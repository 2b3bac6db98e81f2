//! Bit-identity properties of the adjacency-intersection backends: on
//! arbitrary simple graphs, `cpu-intersect` and `gpu-intersect` always
//! produce exactly the serial reference count — across thread widths,
//! every executor (pipeline CPU, simulated GPU, hybrid, multi-device
//! fleet), and arbitrary fault plans — mirroring `prop_workloads.rs`
//! for the [`IntersectKernel`] family.

use proptest::prelude::*;
use trigon::core::count::als_fast;
use trigon::core::hybrid::run_hybrid_workload_traced;
use trigon::core::{build_als, HybridConfig, IntersectKernel};
use trigon::gpu_sim::{DeviceSpec, FaultConfig, FaultPlan, FaultSpec};
use trigon::graph::Graph;
use trigon::{Collector, FleetSpec, Level, Method, Run, Tracer, Workload};

fn arb_graph(max_n: u32) -> impl Strategy<Value = Graph> {
    (3..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..(4 * n as usize)).prop_map(move |raw| {
            let edges: Vec<(u32, u32)> = raw.into_iter().filter(|&(u, v)| u != v).collect();
            Graph::from_edges(n, &edges).expect("filtered edges valid")
        })
    })
}

/// Runs the triangle workload through `m` and returns the count.
fn count_with(
    g: &Graph,
    m: Method,
    faults: Option<FaultConfig>,
    fleet: Option<&str>,
    threads: Option<usize>,
) -> u64 {
    let mut r = Run::new(g).method(m).telemetry(Level::Off);
    if let Some(fc) = faults {
        r = r.faults(fc);
    }
    if let Some(spec) = fleet {
        r = r.fleet(FleetSpec::parse(spec).unwrap());
    }
    if let Some(t) = threads {
        r = r.threads(t);
    }
    r.execute().unwrap().count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both intersection backends equal the serial reference on random
    /// graphs, including through a heterogeneous fleet.
    #[test]
    fn intersect_backends_match_serial(g in arb_graph(40)) {
        let expect = als_fast(&g);
        prop_assert_eq!(count_with(&g, Method::CpuIntersect, None, None, None), expect);
        prop_assert_eq!(count_with(&g, Method::GpuSimIntersect, None, None, None), expect);
        prop_assert_eq!(
            count_with(&g, Method::GpuSimIntersect, None, Some("2xC2050,1xC1060"), None),
            expect
        );
    }

    /// Thread width never changes the intersection counts.
    #[test]
    fn intersect_is_thread_width_invariant(g in arb_graph(32)) {
        let expect = als_fast(&g);
        for m in [Method::CpuIntersect, Method::GpuSimIntersect] {
            prop_assert_eq!(count_with(&g, m, None, None, Some(1)), expect, "{:?} 1t", m);
            prop_assert_eq!(count_with(&g, m, None, None, Some(4)), expect, "{:?} 4t", m);
        }
    }

    /// Random fault plans (ECC flips, transfer retries, block aborts)
    /// leave the simulated intersection kernel bit-identical: recovery
    /// recomputes lost chunks through the same IntersectKernel.
    #[test]
    fn fault_plans_leave_intersect_bit_identical(
        g in arb_graph(28),
        ecc in 0u32..3,
        xfer in 0u32..3,
        abort in 0u32..3,
        seed in 0u64..500,
    ) {
        let expect = als_fast(&g);
        let spec = FaultSpec { ecc, xfer, abort, stall: 0 };
        let fc = FaultConfig::new(FaultPlan::new(spec, seed));
        prop_assert_eq!(count_with(&g, Method::GpuSimIntersect, Some(fc), None, None), expect);
    }

    /// The hybrid shared/global executor is generic over the kernel;
    /// IntersectKernel rides it to the same bits.
    #[test]
    fn hybrid_executor_carries_intersect_kernel(g in arb_graph(32)) {
        let cfg = HybridConfig::new(DeviceSpec::c1060());
        let (r, partial) = run_hybrid_workload_traced(
            &g, &build_als(&g), &cfg, &IntersectKernel, &mut Collector::disabled(),
            &Tracer::disabled(),
        );
        prop_assert_eq!(r.triangles, als_fast(&g));
        prop_assert_eq!(partial, als_fast(&g));
    }
}

/// The intersection methods are triangles-only: other workloads are
/// rejected up front, as are CPU-side fault/fleet configurations.
#[test]
fn intersect_validation_matrix() {
    let g = trigon::graph::gen::gnp(60, 0.1, 1);
    for m in [Method::CpuIntersect, Method::GpuSimIntersect] {
        for w in [
            Workload::Clustering,
            Workload::KTruss(4),
            Workload::Enumerate,
        ] {
            assert!(
                Run::new(&g).workload(w).method(m).execute().is_err(),
                "{m:?} must reject {w:?}"
            );
        }
    }
    let fc = FaultConfig::new(FaultPlan::new(
        FaultSpec {
            ecc: 1,
            xfer: 0,
            abort: 0,
            stall: 0,
        },
        7,
    ));
    assert!(
        Run::new(&g)
            .method(Method::CpuIntersect)
            .faults(fc)
            .execute()
            .is_err(),
        "cpu-intersect is a host method; fault injection must be rejected"
    );
    assert!(
        Run::new(&g)
            .method(Method::CpuIntersect)
            .fleet(FleetSpec::parse("2xC1060").unwrap())
            .execute()
            .is_err(),
        "cpu-intersect cannot shard over a device fleet"
    );
}

/// `RunReport.profile` carries per-ALS counter data for the simulated
/// intersection method — the acceptance hook for the roofline story.
#[test]
fn gpu_intersect_attaches_profile_counters() {
    let g = trigon::graph::gen::gnp(300, 0.05, 3);
    let r = Run::new(&g)
        .method(Method::GpuSimIntersect)
        .telemetry(Level::Off)
        .execute()
        .unwrap();
    let profile = r.profile.as_ref().expect("profile section present");
    let json = profile.to_json();
    let counters = json.get("counters").expect("counter totals");
    let tx = match counters.get("transactions") {
        Some(trigon::Json::UInt(v)) => *v,
        other => panic!("transactions missing: {other:?}"),
    };
    assert!(tx > 0, "the intersect kernel must price transactions");
    let instr = match counters.get("instructions") {
        Some(trigon::Json::UInt(v)) => *v,
        other => panic!("instructions missing: {other:?}"),
    };
    assert!(instr > 0);
    assert_eq!(r.count, als_fast(&g));
}
