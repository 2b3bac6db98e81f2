//! Property-based fault-injection invariants: under *every* generated
//! [`FaultPlan`] the recovered simulated-GPU count is bit-identical to the
//! serial CPU count, fault/recovery event sequences are a pure function of
//! the seed, and the zero-fault plan leaves the execution trace
//! byte-identical to an unfaulted run.

use proptest::prelude::*;
use std::sync::Arc;
use trigon::core::gpu_exec::{self, GpuConfig};
use trigon::core::workload::CountKernel;
use trigon::gpu_sim::{DeviceSpec, FaultConfig, FaultPlan, FaultSpec};
use trigon::graph::{triangles, Graph};
use trigon::{Collector, Level, ManualClock, Method, Run, Tracer};

fn arb_graph(max_n: u32) -> impl Strategy<Value = Graph> {
    (3..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..(4 * n as usize)).prop_map(move |raw| {
            let edges: Vec<(u32, u32)> = raw.into_iter().filter(|&(u, v)| u != v).collect();
            Graph::from_edges(n, &edges).expect("filtered edges valid")
        })
    })
}

/// Arbitrary fault plans, including empty ones and plans asking for more
/// faults than the run has sites to absorb.
fn arb_spec() -> impl Strategy<Value = FaultSpec> {
    (0u32..4, 0u32..4, 0u32..4, 0u32..3).prop_map(|(ecc, xfer, abort, stall)| FaultSpec {
        ecc,
        xfer,
        abort,
        stall,
    })
}

fn faulted_count(g: &Graph, method: Method, fc: FaultConfig) -> u64 {
    Run::new(g)
        .method(method)
        .telemetry(Level::Off)
        .faults(fc)
        .execute()
        .unwrap()
        .count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The central recovery invariant: whatever the plan injects, the
    /// recovered count equals brute force on both simulated kernels.
    #[test]
    fn recovered_counts_match_serial(
        g in arb_graph(40),
        spec in arb_spec(),
        seed in 0u64..1_000,
    ) {
        let brute = triangles::count_brute_force(&g);
        let fc = FaultConfig::new(FaultPlan::new(spec, seed));
        prop_assert_eq!(faulted_count(&g, Method::GpuOptimized, fc), brute);
        prop_assert_eq!(faulted_count(&g, Method::GpuNaive, fc), brute);
    }

    /// Hybrid runs recover from transfer faults without changing counts.
    #[test]
    fn hybrid_recovers_from_xfer_faults(
        g in arb_graph(30),
        xfer in 1u32..6,
        seed in 0u64..1_000,
    ) {
        let brute = triangles::count_brute_force(&g);
        let spec = FaultSpec { xfer, ..FaultSpec::default() };
        let fc = FaultConfig::new(FaultPlan::new(spec, seed));
        prop_assert_eq!(faulted_count(&g, Method::Hybrid, fc), brute);
    }

    /// Determinism: the same spec and seed reproduce the exact fault and
    /// recovery event sequence, the same tracer instants, and the same
    /// count — twice over.
    #[test]
    fn same_seed_reproduces_event_sequence(
        spec in arb_spec(),
        seed in 0u64..1_000,
    ) {
        let g = trigon::graph::gen::gnp(120, 0.08, 9);
        let fc = FaultConfig::new(FaultPlan::new(spec, seed));
        let cfg = GpuConfig::optimized(DeviceSpec::c1060()).faults(fc);
        let run = || {
            let tracer = Tracer::with_clock(Level::Trace, Arc::new(ManualClock::new()));
            let (r, _) = gpu_exec::run_workload_traced(
                &g, &cfg, &CountKernel, &mut Collector::disabled(), &tracer,
            )
            .unwrap();
            (r.triangles, r.faults.expect("fault outcome"), tracer.instants())
        };
        let (c1, o1, i1) = run();
        let (c2, o2, i2) = run();
        prop_assert_eq!(c1, c2);
        prop_assert_eq!(o1, o2);
        prop_assert_eq!(i1, i2);
    }
}

/// The zero-fault plan is a true no-op: the Chrome trace of a run with an
/// empty `FaultSpec` is byte-identical to a run with no fault config at
/// all (spans, attrs, cycle accounting, ordering — everything).
#[test]
fn zero_fault_plan_trace_is_byte_identical() {
    let g = trigon::graph::gen::gnp(300, 0.05, 3);
    let trace_of = |faults: Option<FaultConfig>| {
        let tracer = Tracer::with_clock(Level::Trace, Arc::new(ManualClock::new()));
        let mut a = Run::new(&g)
            .method(Method::GpuOptimized)
            .device(DeviceSpec::c1060())
            .telemetry(Level::Trace)
            .tracer(tracer);
        if let Some(fc) = faults {
            a = a.faults(fc);
        }
        let r = a.execute().unwrap();
        r.tracer.to_chrome_trace().to_string_pretty()
    };
    let baseline = trace_of(None);
    let zero = trace_of(Some(FaultConfig::new(FaultPlan::new(
        FaultSpec::default(),
        123,
    ))));
    assert_eq!(
        baseline, zero,
        "an empty fault plan must not perturb the execution trace"
    );
}

/// Negative control: with recovery disabled an ECC corruption *must*
/// change the count — otherwise the injection isn't corrupting anything
/// and the recovery property tests above prove nothing.
#[test]
fn recovery_off_ecc_corruption_drifts_count() {
    let g = trigon::graph::gen::gnp(300, 0.05, 3);
    let brute = triangles::count_brute_force(&g);
    let spec = FaultSpec {
        ecc: 1,
        ..FaultSpec::default()
    };
    let mut fc = FaultConfig::new(FaultPlan::new(spec, 11));
    fc.recovery = false;
    let corrupted = faulted_count(&g, Method::GpuOptimized, fc);
    assert_ne!(
        corrupted, brute,
        "with recovery off, an injected ECC corruption must be visible"
    );
}

/// Recovery keeps the count right even when the plan asks for far more
/// faults than the run has chunks or SMs — every site saturates and the
/// executor still converges.
#[test]
fn saturating_plan_still_recovers() {
    let g = trigon::graph::gen::gnp(150, 0.08, 5);
    let brute = triangles::count_brute_force(&g);
    let spec = FaultSpec {
        ecc: 500,
        xfer: 3,
        abort: 500,
        stall: 1_000,
    };
    let fc = FaultConfig::new(FaultPlan::new(spec, 2));
    assert_eq!(faulted_count(&g, Method::GpuOptimized, fc), brute);
}

/// Exhausting every transfer retry degrades gracefully to the CPU path —
/// the count survives and the report says the fallback happened.
#[test]
fn transfer_exhaustion_falls_back_to_cpu() {
    let g = trigon::graph::gen::gnp(200, 0.05, 7);
    let brute = triangles::count_brute_force(&g);
    let spec = FaultSpec {
        xfer: 64,
        ..FaultSpec::default()
    };
    let fc = FaultConfig::new(FaultPlan::new(spec, 4));
    let r = Run::new(&g)
        .method(Method::GpuOptimized)
        .telemetry(Level::Off)
        .faults(fc)
        .execute()
        .unwrap();
    assert_eq!(r.count, brute);
    let f = r.faults.expect("faults section");
    assert!(
        f.run_cpu_fallback,
        "64 transfer faults must exhaust retries"
    );
}
