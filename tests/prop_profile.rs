//! Determinism properties of the performance-counter profile.
//!
//! The profiler prices every counter at simulate time and attributes it
//! by the *scheduled* placement, so the profile must be bit-identical
//! across worker-thread widths, under arbitrary chunk-level fault plans,
//! and between a one-device fleet and the plain single-GPU executor.
//! Across *different* executors the cost models legitimately differ,
//! but the per-ALS `tests` attribution — the workload itself — must
//! agree exactly on CPU, GPU, and hybrid.

use proptest::prelude::*;
use trigon::gpu_sim::{DeviceSpec, FaultConfig, FaultPlan, FaultSpec};
use trigon::graph::{gen, Graph};
use trigon::{FleetSpec, Level, Method, Run};

fn arb_graph(max_n: u32) -> impl Strategy<Value = Graph> {
    (3..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..(4 * n as usize)).prop_map(move |raw| {
            let edges: Vec<(u32, u32)> = raw.into_iter().filter(|&(u, v)| u != v).collect();
            Graph::from_edges(n, &edges).expect("filtered edges valid")
        })
    })
}

/// Runs the triangle workload and returns the rendered profile section —
/// comparison is on the serialized bytes, so every counter, hotspot, and
/// roofline figure must match, not just the headline totals.
fn profile_json(
    g: &Graph,
    m: Method,
    threads: Option<usize>,
    faults: Option<FaultConfig>,
    fleet: Option<&str>,
) -> String {
    let mut r = Run::new(g).method(m).telemetry(Level::Off);
    if let Some(t) = threads {
        r = r.threads(t);
    }
    if let Some(fc) = faults {
        r = r.faults(fc);
    }
    if let Some(spec) = fleet {
        r = r.fleet(FleetSpec::parse(spec).unwrap());
    } else {
        r = r.device(DeviceSpec::c1060());
    }
    let rep = r.execute().unwrap();
    rep.profile
        .expect("profile section")
        .to_json()
        .to_string_pretty()
}

/// The per-ALS `tests` attribution of a run.
fn per_als_tests(g: &Graph, m: Method) -> Vec<u128> {
    let rep = Run::new(g)
        .method(m)
        .telemetry(Level::Off)
        .execute()
        .unwrap();
    rep.profile
        .expect("profile section")
        .data
        .per_als
        .iter()
        .map(|c| c.tests)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Worker-thread width never changes a single profile byte, on both
    /// the simulated-GPU and the hybrid executor.
    #[test]
    fn thread_width_never_changes_the_profile(g in arb_graph(28)) {
        for m in [Method::GpuOptimized, Method::Hybrid] {
            let serial = profile_json(&g, m, Some(1), None, None);
            let wide = profile_json(&g, m, Some(4), None, None);
            prop_assert_eq!(&serial, &wide, "profile drifted with threads on {:?}", m);
        }
    }

    /// Chunk-level fault plans never change a single profile byte: the
    /// counters are priced from the schedule, not the (fault-perturbed)
    /// dispatch replay.
    #[test]
    fn fault_plans_leave_the_profile_bit_identical(
        g in arb_graph(24),
        ecc in 0u32..3,
        xfer in 0u32..3,
        abort in 0u32..3,
        seed in 0u64..500,
    ) {
        let clean = profile_json(&g, Method::GpuOptimized, None, None, None);
        let spec = FaultSpec { ecc, xfer, abort, stall: 0 };
        let fc = FaultConfig::new(FaultPlan::new(spec, seed));
        let faulted = profile_json(&g, Method::GpuOptimized, None, Some(fc), None);
        prop_assert_eq!(&faulted, &clean, "profile drifted under faults");
    }

    /// A one-device fleet prices and attributes exactly like the plain
    /// single-GPU executor.
    #[test]
    fn one_device_fleet_profiles_like_plain_gpu(g in arb_graph(28)) {
        let plain = profile_json(&g, Method::GpuOptimized, None, None, None);
        let fleet = profile_json(&g, Method::GpuOptimized, None, None, Some("1xC1060"));
        prop_assert_eq!(&fleet, &plain, "fleet(1) profile diverged from plain gpu");
    }

    /// Every executor attributes the identical number of combination
    /// tests to the identical ALS — the workload is a property of the
    /// graph, not of the executor or its cost model.
    #[test]
    fn per_als_test_attribution_is_executor_independent(g in arb_graph(28)) {
        let cpu = per_als_tests(&g, Method::CpuFast);
        for m in [Method::GpuNaive, Method::GpuOptimized, Method::Hybrid] {
            prop_assert_eq!(&per_als_tests(&g, m), &cpu, "tests attribution drifted on {:?}", m);
        }
    }
}

/// Counter totals are exactly the fold of the per-ALS axis, and of the
/// per-SM axis (blocks attribute to both), on a real evaluation graph.
#[test]
fn totals_equal_both_attribution_axes() {
    let g = gen::gnp(300, 0.05, 1);
    let rep = Run::new(&g)
        .method(Method::GpuOptimized)
        .device(DeviceSpec::c1060())
        .telemetry(Level::Off)
        .execute()
        .unwrap();
    let p = rep.profile.expect("profile section").data;
    let als_tests: u128 = p.per_als.iter().map(|c| c.tests).sum();
    let sm_tests: u128 = p.per_sm.iter().map(|c| c.tests).sum();
    assert_eq!(p.totals.tests, als_tests);
    assert_eq!(p.totals.tests, sm_tests);
    let als_tx: u64 = p.per_als.iter().map(|c| c.transactions).sum();
    let sm_tx: u64 = p.per_sm.iter().map(|c| c.transactions).sum();
    assert_eq!(p.totals.transactions, als_tx);
    assert_eq!(p.totals.transactions, sm_tx);
    assert_eq!(
        rep.tests, p.totals.tests,
        "report tests must match profile totals"
    );
}
