//! Property-based fleet invariants: for *every* generated graph and
//! fleet roster (1–8 devices, mixed Table I models) the sharded
//! multi-device count is bit-identical to the serial CPU count, with
//! and without injected device loss; and a one-device fleet is a true
//! no-op — its execution trace and its report (minus the `fleet`
//! section) are byte-identical to a plain single-device run.

use proptest::prelude::*;
use std::sync::Arc;
use trigon::gpu_sim::DeviceSpec;
use trigon::graph::{triangles, Graph};
use trigon::{FleetSpec, Level, LossPlan, ManualClock, Method, Run, Tracer, Workload};

fn arb_graph(max_n: u32) -> impl Strategy<Value = Graph> {
    (3..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..(4 * n as usize)).prop_map(move |raw| {
            let edges: Vec<(u32, u32)> = raw.into_iter().filter(|&(u, v)| u != v).collect();
            Graph::from_edges(n, &edges).expect("filtered edges valid")
        })
    })
}

/// Arbitrary fleet rosters: 1–8 devices drawn per-slot from the Table I
/// registry, so heterogeneous mixes come up constantly.
fn arb_fleet() -> impl Strategy<Value = FleetSpec> {
    proptest::collection::vec(0usize..3, 1..=8).prop_map(|picks| {
        let table = DeviceSpec::table1();
        let spec = picks
            .iter()
            .map(|&i| table[i].name)
            .collect::<Vec<_>>()
            .join(",");
        FleetSpec::parse(&spec).expect("roster from the registry parses")
    })
}

fn fleet_count(g: &Graph, fleet: &FleetSpec, loss: Option<LossPlan>) -> u64 {
    let mut a = Run::new(g)
        .method(Method::GpuOptimized)
        .fleet(fleet.clone())
        .telemetry(Level::Off);
    if let Some(l) = loss {
        a = a.device_loss(l);
    }
    a.execute().unwrap().count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The central fleet invariant: whatever the roster, the sharded
    /// count equals brute force — every triangle lives in exactly one
    /// ALS, so a partition of the ALS list is a partition of the
    /// triangles.
    #[test]
    fn fleet_counts_match_serial(g in arb_graph(40), fleet in arb_fleet()) {
        let brute = triangles::count_brute_force(&g);
        prop_assert_eq!(fleet_count(&g, &fleet, None), brute);
    }

    /// Device loss reshards onto the survivors without perturbing the
    /// count, for any loss size (the plan clamps to leave a survivor).
    #[test]
    fn device_loss_keeps_counts(
        g in arb_graph(40),
        fleet in arb_fleet(),
        lost in 1u32..8,
        seed in 0u64..1_000,
    ) {
        let brute = triangles::count_brute_force(&g);
        let loss = LossPlan::new(lost, seed);
        prop_assert_eq!(fleet_count(&g, &fleet, Some(loss)), brute);
    }

    /// Determinism: the same roster and loss seed reproduce the same
    /// fleet section — per-device partials included — twice over.
    #[test]
    fn same_seed_reproduces_fleet_section(
        fleet in arb_fleet(),
        lost in 0u32..4,
        seed in 0u64..1_000,
    ) {
        let g = trigon::graph::gen::gnp(120, 0.08, 9);
        let run = || {
            let mut a = Run::new(&g)
                .method(Method::GpuOptimized)
                .fleet(fleet.clone())
                .telemetry(Level::Off);
            if lost > 0 {
                a = a.device_loss(LossPlan::new(lost, seed));
            }
            let r = a.execute().unwrap();
            (r.count, format!("{:?}", r.fleet.expect("fleet section")))
        };
        prop_assert_eq!(run(), run());
    }
}

/// A one-device fleet is a true no-op: the Chrome trace of
/// `--devices 1xC2050` is byte-identical to a plain run on that device
/// (spans, attrs, cycle accounting, ordering — everything), and the
/// report JSON matches once the `fleet` section is cleared.
#[test]
fn one_device_fleet_is_byte_identical_to_plain_run() {
    let g = trigon::graph::gen::gnp(300, 0.05, 3);
    let run = |fleet: Option<FleetSpec>| {
        let tracer = Tracer::with_clock(Level::Trace, Arc::new(ManualClock::new()));
        let mut a = Run::new(&g)
            .method(Method::GpuOptimized)
            .device(DeviceSpec::c2050())
            .telemetry(Level::Trace)
            .tracer(tracer);
        if let Some(f) = fleet {
            a = a.fleet(f);
        }
        a.execute().unwrap()
    };
    let plain = run(None);
    let mut fleet = run(Some(FleetSpec::parse("1xC2050").unwrap()));
    assert!(plain.fleet.is_none());
    assert!(fleet.fleet.is_some(), "fleet run must carry the section");
    assert_eq!(
        plain.tracer.to_chrome_trace().to_string_pretty(),
        fleet.tracer.to_chrome_trace().to_string_pretty(),
        "a one-device fleet must not perturb the execution trace"
    );
    fleet.fleet = None;
    assert_eq!(
        plain.to_json().to_string_pretty(),
        fleet.to_json().to_string_pretty(),
        "minus the fleet section, the reports must be byte-identical"
    );
}

/// An over-capacity shard surfaces as the same graph-too-large error the
/// single-device path reports (exit code 5 at the CLI).
#[test]
fn fleet_capacity_errors_are_graph_too_large() {
    let g = trigon::graph::gen::gnp(200, 0.1, 1);
    let mut tiny = DeviceSpec::c1060();
    tiny.global_mem_bytes = 64;
    let fleet = FleetSpec::homogeneous(tiny, 3).unwrap();
    let err = Run::new(&g)
        .method(Method::GpuOptimized)
        .fleet(fleet)
        .telemetry(Level::Off)
        .execute()
        .unwrap_err();
    assert_eq!(err.exit_code(), 5, "unexpected error: {err}");
}

/// Non-GPU methods reject a fleet, and device loss without a fleet is a
/// configuration error (exit code 2) — not a silent no-op.
#[test]
fn fleet_misconfigurations_are_rejected() {
    let g = trigon::graph::gen::gnp(50, 0.1, 1);
    let fleet = FleetSpec::parse("2xC2050").unwrap();
    for (method, workload) in [
        (Method::CpuFast, Workload::Triangles),
        (Method::Hybrid, Workload::Triangles),
        (Method::GpuOptimized, Workload::KCliques(3)),
    ] {
        let err = Run::new(&g)
            .method(method)
            .workload(workload)
            .fleet(fleet.clone())
            .execute()
            .unwrap_err();
        assert_eq!(
            err.exit_code(),
            2,
            "{method:?} {workload:?} must reject a fleet"
        );
    }
    let err = Run::new(&g)
        .method(Method::GpuOptimized)
        .device_loss(LossPlan::new(1, 0))
        .execute()
        .unwrap_err();
    assert_eq!(err.exit_code(), 2, "loss without a fleet must be rejected");
}
