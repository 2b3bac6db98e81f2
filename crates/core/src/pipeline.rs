//! The host executor: Algorithm 2 over a graph's ALS decomposition on
//! the CPU, with modeled timing on the paper's hardware.

use crate::als::Als;
use crate::timemodel::CostModel;
use crate::workload::{add_als_by_walk, fold_als, ChunkKernel};
use trigon_gpu_sim::{CounterSet, ProfileData};
use trigon_graph::Graph;
use trigon_telemetry::{Collector, Tracer};

/// Which host implementation counts the triangles.
#[derive(Debug, Clone, Copy)]
pub enum CountMethod {
    /// The paper's single-thread CPU baseline: faithful Algorithm 2
    /// combination testing. Modeled time = host prep + per-test CPU model.
    CpuExhaustive,
    /// The same ALS decomposition with the fast per-window edge iterator.
    /// Exact at any scale; modeled time still prices the *paper's*
    /// combination-testing CPU implementation (the ALS test counts),
    /// since this path exists to make big runs feasible, not to model a
    /// different machine.
    CpuFast,
    /// Degree-ordered adjacency intersection per ALS window (see
    /// [`crate::intersect`]): merge/gallop/bitmap adaptive kernels,
    /// bit-identical counts. `tests` and the modeled time price the
    /// *intersection operations* — the head-to-head the combination
    /// algorithm is raced against.
    CpuIntersect,
}

/// Outcome of one host run.
#[derive(Debug, Clone)]
pub struct TriangleReport {
    /// Vertices.
    pub n: u32,
    /// Edges.
    pub m: usize,
    /// Exact triangle count.
    pub triangles: u64,
    /// Algorithm 2 combination tests (performed or accounted) — or, for
    /// the intersection method, adjacency-intersection operations.
    pub tests: u128,
    /// Modeled seconds on the paper's CPU.
    pub modeled_s: f64,
    /// Actual wall-clock seconds this Rust process spent.
    pub wall_s: f64,
    /// Counter attribution per adjacent level set: the host-side
    /// test/instruction counters (no SM or memory axis).
    pub profile: ProfileData,
}

/// The host-executor profile: per-ALS test and instruction counters.
/// CPU runs have no SM, transaction, or cycle axis, but the per-chunk
/// `tests` attribution is the same exact quantity the GPU path prices —
/// the cross-executor invariant the profiler tests pin.
fn cpu_profile(als: &[Als]) -> ProfileData {
    let mut profile = ProfileData::new(als.len(), 0);
    for (i, a) in als.iter().enumerate() {
        let tests = a.test_count(3);
        profile.record_als(
            i,
            &CounterSet {
                tests,
                instructions: CounterSet::instructions_for_tests(tests),
                blocks: 1,
                ..CounterSet::default()
            },
        );
    }
    profile
}

/// Runs an arbitrary [`ChunkKernel`] workload over `als` (exactly what
/// [`crate::als::build_als`] produces for `g`) on the host, recording
/// the `count` phase into `collector` and a host `count` span into
/// `tracer` (plus an `als.tests` histogram of per-window workloads on
/// the fast path). Every method computes each ALS once, on all lanes of
/// the current pool, folding them in ALS order.
///
/// Returns the timing/count report together with the merged — but *not*
/// finalized — workload partial; the caller runs [`ChunkKernel::finalize`].
pub fn run_workload_traced<K: ChunkKernel>(
    g: &Graph,
    als: &[Als],
    method: CountMethod,
    cost: &CostModel,
    kernel: &K,
    collector: &mut Collector,
    tracer: &Tracer,
) -> (TriangleReport, K::Partial) {
    let t0 = collector.clock().now_ns();
    let combination_tests = || als.iter().map(|a| a.test_count(3)).sum::<u128>();
    let (partial, tests, profile) = {
        let _p = collector.phase("count");
        let _s = tracer.span("count", "phase");
        match method {
            CountMethod::CpuExhaustive => {
                let (partial, _) =
                    fold_als(kernel, g, als, |p, a| add_als_by_walk(kernel, p, g, a));
                (partial, combination_tests(), cpu_profile(als))
            }
            CountMethod::CpuFast => {
                let (partial, _) = fold_als(kernel, g, als, |p, a| kernel.add_als(p, g, a));
                if tracer.enabled() {
                    for a in als {
                        tracer.record("als.tests", a.test_count(3) as f64);
                    }
                }
                (partial, combination_tests(), cpu_profile(als))
            }
            CountMethod::CpuIntersect => {
                let (partial, stats) =
                    fold_als(kernel, g, als, |p, a| kernel.add_als_intersect(p, g, a));
                let mut profile = ProfileData::new(als.len(), 0);
                let mut ops = 0u128;
                for (i, s) in stats.iter().enumerate() {
                    let als_ops = u128::from(s.ops());
                    ops += als_ops;
                    profile.record_als(
                        i,
                        &CounterSet {
                            tests: als_ops,
                            instructions: CounterSet::instructions_for_intersect_ops(als_ops),
                            blocks: 1,
                            ..CounterSet::default()
                        },
                    );
                    tracer.record("als.intersect_ops", als_ops as f64);
                }
                (partial, ops, profile)
            }
        }
    };
    let modeled_s = cost.host_prep_seconds(g.n(), g.m()) + cost.cpu_seconds(g.n(), tests);
    let triangles = kernel.triangles_in(&partial);
    if collector.enabled() {
        collector.add("pipeline.tests", u64::try_from(tests).unwrap_or(u64::MAX));
        collector.add("pipeline.triangles", triangles);
    }
    (
        TriangleReport {
            n: g.n(),
            m: g.m(),
            triangles,
            tests,
            modeled_s,
            wall_s: collector.clock().now_ns().saturating_sub(t0) as f64 / 1e9,
            profile,
        },
        partial,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::als::build_als;
    use crate::workload::CountKernel;
    use trigon_graph::{gen, triangles};

    fn count_triangles(g: &Graph, method: CountMethod) -> TriangleReport {
        run_workload_traced(
            g,
            &build_als(g),
            method,
            &CostModel::default(),
            &CountKernel,
            &mut Collector::disabled(),
            &Tracer::disabled(),
        )
        .0
    }

    #[test]
    fn all_methods_agree_on_counts() {
        let g = gen::gnp(120, 0.08, 6);
        let expect = triangles::count_edge_iterator(&g);
        let methods = [
            CountMethod::CpuExhaustive,
            CountMethod::CpuFast,
            CountMethod::CpuIntersect,
        ];
        for m in methods {
            let r = count_triangles(&g, m);
            assert_eq!(r.triangles, expect, "{m:?}");
            assert!(r.modeled_s > 0.0);
            assert!(r.wall_s >= 0.0);
        }
    }

    #[test]
    fn cpu_paths_report_same_workload() {
        let g = gen::gnp(90, 0.1, 1);
        let a = count_triangles(&g, CountMethod::CpuExhaustive);
        let b = count_triangles(&g, CountMethod::CpuFast);
        assert_eq!(a.tests, b.tests);
        assert_eq!(a.tests, crate::count::total_tests(&g));
        assert_eq!(a.triangles, b.triangles);
        assert!((a.modeled_s - b.modeled_s).abs() < 1e-12);
    }
}
