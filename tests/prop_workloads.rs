//! Cross-workload agreement properties for the [`ChunkKernel`] API: on
//! arbitrary simple graphs every workload is bit-identical across the
//! serial, parallel, simulated-GPU, hybrid, and fleet executors — with
//! and without fault plans — and each workload agrees with an
//! independent reference computation (clustering derived from the
//! enumeration listing, k-truss against a brute-force peeler).

mod common;

use common::{behaviour, first_difference};
use proptest::prelude::*;
use std::collections::HashSet;
use trigon::core::gpu_exec::{self, GpuConfig};
use trigon::core::workload::{
    clustering_coefficients_from_counts, mean_clustering, ChunkKernel, EnumerateKernel,
};
use trigon::gpu_sim::{DeviceSpec, FaultConfig, FaultPlan, FaultSpec};
use trigon::graph::{gen, triangles, Graph};
use trigon::{Collector, FleetSpec, Level, Method, Run, Tracer, Workload, WorkloadSection};

fn arb_graph(max_n: u32) -> impl Strategy<Value = Graph> {
    (3..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..(4 * n as usize)).prop_map(move |raw| {
            let edges: Vec<(u32, u32)> = raw.into_iter().filter(|&(u, v)| u != v).collect();
            Graph::from_edges(n, &edges).expect("filtered edges valid")
        })
    })
}

/// Runs `w` through `m` and returns the comparable outcome: the headline
/// count plus the whole workload section (PartialEq, f64 fields included
/// — agreement must be bitwise, not approximate).
fn outcome(
    g: &Graph,
    w: Workload,
    m: Method,
    faults: Option<FaultConfig>,
    fleet: Option<&str>,
) -> (u64, WorkloadSection) {
    let mut r = Run::new(g).workload(w).method(m).telemetry(Level::Off);
    if let Some(fc) = faults {
        r = r.faults(fc);
    }
    if let Some(spec) = fleet {
        r = r.fleet(FleetSpec::parse(spec).unwrap());
    }
    let rep = r.execute().unwrap();
    (rep.count, rep.workload)
}

/// Brute-force k-truss: recompute every alive edge's support from
/// scratch each round and peel all under-supported edges at once, until
/// a fixed point. Independent of the kernel's per-ALS support counting
/// and of the queue-based peeler.
fn brute_truss_edges(g: &Graph, k: u32) -> u64 {
    let mut alive: HashSet<(u32, u32)> = HashSet::new();
    for u in 0..g.n() {
        for &v in g.neighbors(u) {
            if u < v {
                alive.insert((u, v));
            }
        }
    }
    let thresh = k.saturating_sub(2) as usize;
    loop {
        let doomed: Vec<(u32, u32)> = alive
            .iter()
            .copied()
            .filter(|&(u, v)| {
                let support = (0..g.n())
                    .filter(|&w| {
                        w != u
                            && w != v
                            && alive.contains(&(u.min(w), u.max(w)))
                            && alive.contains(&(v.min(w), v.max(w)))
                    })
                    .count();
                support < thresh
            })
            .collect();
        if doomed.is_empty() {
            return alive.len() as u64;
        }
        for e in doomed {
            alive.remove(&e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clustering coefficients derived from the enumeration workload's
    /// triangle listing are bit-identical to the direct clustering
    /// kernel's (same per-vertex integer counts, same divisions).
    #[test]
    fn clustering_from_enumeration_matches_direct_kernel(g in arb_graph(40)) {
        let cfg = GpuConfig::optimized(DeviceSpec::c1060());
        let kern = EnumerateKernel;
        let (_, mut triples) = gpu_exec::run_workload_traced(
            &g, &cfg, &kern, &mut Collector::disabled(), &Tracer::disabled(),
        ).unwrap();
        kern.finalize(&mut triples);
        let mut per_vertex = vec![0u64; g.n() as usize];
        for t in &triples {
            for &v in t {
                per_vertex[v as usize] += 1;
            }
        }
        let from_enum = clustering_coefficients_from_counts(&g, &per_vertex);
        let (count, section) = outcome(&g, Workload::Clustering, Method::GpuOptimized, None, None);
        prop_assert_eq!(count, triples.len() as u64);
        match section {
            WorkloadSection::Clustering { vertices, mean_clustering: mean, transitivity } => {
                prop_assert_eq!(vertices, g.n() as usize);
                prop_assert_eq!(mean, mean_clustering(&from_enum));
                // And both agree with the reference implementation.
                let reference = triangles::clustering_coefficients(&g);
                for (a, b) in from_enum.iter().zip(reference.iter()) {
                    prop_assert!((a - b).abs() < 1e-9);
                }
                prop_assert!((transitivity - triangles::transitivity(&g)).abs() < 1e-9);
            }
            other => prop_assert!(false, "wrong section {other:?}"),
        }
    }

    /// The support-peeling k-truss agrees with a from-scratch brute
    /// force on arbitrary graphs, across k.
    #[test]
    fn ktruss_matches_brute_force(g in arb_graph(24), k in 3u32..7) {
        let brute = brute_truss_edges(&g, k);
        let (count, section) = outcome(&g, Workload::KTruss(k), Method::CpuFast, None, None);
        prop_assert_eq!(count, brute);
        match section {
            WorkloadSection::KTruss { edges_kept, edges_peeled, edges_initial, .. } => {
                prop_assert_eq!(edges_kept, brute);
                prop_assert_eq!(edges_kept + edges_peeled, edges_initial);
                prop_assert_eq!(edges_initial, g.m() as u64);
            }
            other => prop_assert!(false, "wrong section {other:?}"),
        }
    }

    /// Every workload is bit-identical across every executor: CPU serial,
    /// both simulated-GPU layouts, the sampled fidelity mode, the hybrid
    /// split, and a heterogeneous 3-device fleet.
    #[test]
    fn workloads_agree_across_executors(g in arb_graph(28)) {
        for w in [
            Workload::Triangles,
            Workload::Clustering,
            Workload::KTruss(4),
            Workload::Enumerate,
        ] {
            let base = outcome(&g, w, Method::CpuFast, None, None);
            for m in [Method::CpuExhaustive, Method::GpuNaive, Method::GpuOptimized,
                      Method::GpuSampled, Method::Hybrid] {
                prop_assert_eq!(&outcome(&g, w, m, None, None), &base, "method {:?} on {:?}", m, w);
            }
            let fleet = outcome(&g, w, Method::GpuOptimized, None, Some("2xC2050,1xC1060"));
            prop_assert_eq!(&fleet, &base, "fleet on {:?}", w);
        }
    }

    /// Chunk-level fault plans never change any workload's result: the
    /// recovery path re-executes through the same kernel.
    #[test]
    fn fault_plans_leave_workloads_bit_identical(
        g in arb_graph(24),
        ecc in 0u32..3,
        xfer in 0u32..3,
        abort in 0u32..3,
        seed in 0u64..500,
    ) {
        let spec = FaultSpec { ecc, xfer, abort, stall: 0 };
        for w in [
            Workload::Triangles,
            Workload::Clustering,
            Workload::KTruss(4),
            Workload::Enumerate,
        ] {
            let clean = outcome(&g, w, Method::GpuOptimized, None, None);
            let fc = FaultConfig::new(FaultPlan::new(spec, seed));
            let faulted = outcome(&g, w, Method::GpuOptimized, Some(fc), None);
            prop_assert_eq!(&faulted, &clean, "faulted {:?} drifted", w);
        }
    }
}

/// `kcount` at k = 3 is the triangle count, end to end through the
/// widened-executor path and the report.
#[test]
fn kcount_k3_equals_triangles() {
    let g = gen::gnp(300, 0.05, 7);
    let (tri, _) = outcome(&g, Workload::Triangles, Method::GpuOptimized, None, None);
    let (k3, section) = outcome(&g, Workload::KCliques(3), Method::GpuOptimized, None, None);
    assert_eq!(k3, tri);
    assert_eq!(section, WorkloadSection::KCount { k: 3 });
}

/// The builder's thread pinning gives the same bits at every width: for
/// every admitted method × workload, the whole report and Chrome trace
/// (host wall-clock removed) at widths 1, 2 and 4. The host folds, the
/// hybrid count and the simulators all split their ALS list across the
/// pool, so the graphs have many ALS; the combination-enumerating
/// methods get a smaller ring.
#[test]
fn thread_width_never_changes_workload_results() {
    let wide = gen::community_ring(3000, 150, 0.25, 3, 11);
    let narrow = gen::community_ring(600, 30, 0.25, 3, 11);
    for m in Method::ALL {
        let g = if m.enumerates_combinations() {
            &narrow
        } else {
            &wide
        };
        for w in [
            Workload::Triangles,
            Workload::Clustering,
            Workload::KTruss(5),
            Workload::Enumerate,
        ] {
            let run = Run::new(g).workload(w).method(m);
            if run.check().is_err() {
                continue;
            }
            let (_, _, serial) = behaviour(run.clone().threads(1));
            for t in [2, 4] {
                let (_, _, parallel) = behaviour(run.clone().threads(t));
                if let Some(d) = first_difference(&serial, &parallel, "") {
                    panic!(
                        "{} {}: widths 1 and {t} differ first at {d}",
                        m.label(),
                        w.label()
                    );
                }
            }
        }
    }
}
