//! Simulated-GPU counting of the §III extensions: `k`-cliques over
//! adjacent level sets.
//!
//! "Our methods can be extended to solve other combinatorial counting
//! problems on graphs, such as … number of cliques (resp. independent
//! sets) of size k" — a `k`-clique is complete, so its vertices span at
//! most two adjacent BFS levels, and the triangle kernel generalizes by
//! replacing the 3-edge test with the `C(k,2)`-edge test and widening the
//! combination spaces to `k`. Memory traffic is priced with the same
//! coalescing/partition machinery as the triangle kernel.

use crate::als::Als;
use crate::gpu_exec::{GpuConfig, GpuError};
use crate::layout::{GlobalLayout, LayoutKind};
use crate::workload::ChunkKernel;
use rayon::prelude::*;
use trigon_combin::equal_division;
use trigon_gpu_sim::{
    emit, warp_transactions, CounterSet, DeviceProfile, PartitionTraffic, ProfileData,
    TransferModel,
};
use trigon_graph::Graph;
use trigon_telemetry::{Collector, Tracer};

/// Result of a simulated k-clique run.
#[derive(Debug, Clone)]
pub struct KCliqueRunResult {
    /// Exact `k`-clique count.
    pub cliques: u64,
    /// Combination tests performed.
    pub tests: u128,
    /// Global-memory transactions issued.
    pub transactions: u64,
    /// Kernel seconds.
    pub kernel_s: f64,
    /// End-to-end modeled seconds.
    pub total_s: f64,
    /// Thread blocks simulated.
    pub blocks: usize,
    /// Counter attribution per ALS and per LPT-scheduled SM.
    /// Instructions scale with the `C(k,2)` pair tests per combination.
    pub profile: ProfileData,
}

/// Runs the simulated k-clique kernel exhaustively over `als` (small
/// graphs; the space is `Σ C(a+b, k)`) for an arbitrary [`ChunkKernel`]
/// workload. `kernel.emit` fires once per combination passing the
/// `C(k,2)`-edge test, with the ALS-local combination; the per-block
/// partials are merged in canonical work-list order and returned
/// unfinalized. Records host phase spans, the PCIe transfer span, and
/// one simulated-time span per LPT-scheduled block on its SM lane into
/// `tracer`.
///
/// # Errors
///
/// [`GpuError::GraphTooLarge`] when the layout exceeds the device.
///
/// # Panics
///
/// Panics if `k < 2`.
pub fn run_k_cliques_workload_traced<K: ChunkKernel>(
    g: &Graph,
    als: &[Als],
    cfg: &GpuConfig,
    k: u32,
    kernel: &K,
    collector: &mut Collector,
    tracer: &Tracer,
) -> Result<(KCliqueRunResult, K::Partial), GpuError> {
    assert!(k >= 2, "k-cliques need k ≥ 2");
    let spec = &cfg.device;
    tracer.set_device_clock_hz(spec.clock_hz as f64);
    let layout = {
        let _p = collector.phase("layout");
        let _s = tracer.span("layout", "phase");
        GlobalLayout::build(
            cfg.layout,
            g.n(),
            als,
            spec.partitions,
            spec.partition_width,
        )
    };
    if layout.total_bytes() > spec.global_mem_bytes {
        return Err(GpuError::GraphTooLarge {
            needed: layout.total_bytes(),
            capacity: spec.global_mem_bytes,
        });
    }
    let count_guard = collector.phase("count");
    let count_span = tracer.span("count", "phase");
    // Work list: (als, mode, start, len) blocks over the k-spaces.
    let block_tests = u128::from(cfg.threads_per_block) * u128::from(cfg.tests_per_thread);
    let mut work = Vec::new();
    for (ai, a) in als.iter().enumerate() {
        let space = a.space(k);
        for &mode in a.modes() {
            let total = space.count(mode);
            let mut start = 0u128;
            while start < total {
                let len = block_tests.min(total - start);
                work.push((ai, mode, start, len));
                start += len;
            }
        }
    }

    struct Acc<P> {
        partial: P,
        tests: u128,
        transactions: u64,
        min_transactions: u64,
        compute_cycles: u64,
        cycles: u64,
    }
    let results: Vec<Acc<K::Partial>> = work
        .par_iter()
        .map(|&(ai, mode, start, len)| {
            let a = &als[ai];
            let space = a.space(k);
            let warp = spec.warp_size as usize;
            let warps = u64::from(cfg.threads_per_block / spec.warp_size);
            let mut acc = Acc {
                partial: kernel.identity(),
                tests: 0,
                transactions: 0,
                min_transactions: 0,
                compute_cycles: 0,
                cycles: 0,
            };
            let mut traffic = PartitionTraffic::new(spec);
            let mut lanes: Vec<Vec<u32>> = Vec::with_capacity(warp);
            let mut addrs: Vec<u64> = Vec::with_capacity(warp);
            for range in equal_division(len, warps) {
                if range.len == 0 {
                    continue;
                }
                let mut cur = space.cursor_at(mode, start + range.start);
                let mut remaining = range.len;
                while remaining > 0 {
                    let step = remaining.min(warp as u128) as usize;
                    lanes.clear();
                    for _ in 0..step {
                        let c = cur.current().expect("cursor in range");
                        lanes.push(c.to_vec());
                        let _ = cur.advance();
                    }
                    remaining -= step as u128;
                    acc.tests += step as u128;
                    // Functional test: all C(k,2) pairs adjacent.
                    'lane: for c in &lanes {
                        for i in 0..c.len() {
                            for j in i + 1..c.len() {
                                if !a.edge(g, c[i], c[j]) {
                                    continue 'lane;
                                }
                            }
                        }
                        kernel.emit(&mut acc.partial, g, a, &c[..]);
                    }
                    // Price the C(k,2) load phases.
                    let mut step_tx = 0u32;
                    let mut step_min_tx = 0u32;
                    for i in 0..k as usize {
                        for j in i + 1..k as usize {
                            addrs.clear();
                            for c in &lanes {
                                let (u, v) = (c[i], c[j]);
                                let addr = match layout.kind() {
                                    LayoutKind::Monolithic => {
                                        layout.word_addr(0, a.global_id(u), a.global_id(v))
                                    }
                                    LayoutKind::AlsPartitionAligned => layout.word_addr(ai, u, v),
                                };
                                addrs.push(addr);
                            }
                            let s = warp_transactions(spec.compute_capability, &addrs, 4);
                            traffic.record_all(&s.segment_addrs);
                            step_tx += s.transactions;
                            step_min_tx += (addrs.len() as u32 * 4).div_ceil(128).max(1);
                        }
                    }
                    acc.transactions += u64::from(step_tx);
                    acc.min_transactions += u64::from(step_min_tx);
                    // Compute scales with the number of pair tests per lane.
                    let pair_scale = (u64::from(k) * u64::from(k - 1) / 2).div_ceil(3);
                    let compute = cfg.cost.gpu_step_base_cycles * pair_scale;
                    acc.compute_cycles += compute;
                    acc.cycles += compute
                        + (f64::from(step_tx)
                            * spec.transaction_service_cycles as f64
                            * cfg.cost.gpu_mem_derate)
                            .round() as u64;
                }
            }
            acc
        })
        .collect();

    drop(count_span);
    drop(count_guard);

    let tests: u128 = results.iter().map(|r| r.tests).sum();
    let transactions: u64 = results.iter().map(|r| r.transactions).sum();
    // Makespan over SMs via LPT on block cycles.
    let dispatch_guard = collector.phase("dispatch");
    let dispatch_span = tracer.span("dispatch", "phase");
    let job_sizes: Vec<u64> = results.iter().map(|r| r.cycles).collect();
    let schedule = trigon_sched::lpt(&job_sizes, spec.sm_count);
    let kernel_s = spec.cycles_to_seconds(schedule.makespan()) + spec.kernel_launch_s;
    // Attribution: block i carries work[i]'s ALS and lands on the SM the
    // LPT schedule chose. Instructions scale with the C(k,2) pair tests.
    let pair_scale = (u64::from(k) * u64::from(k - 1) / 2).div_ceil(3);
    let mut profile = ProfileData::new(als.len(), spec.sm_count as usize);
    for ((r, &(ai, ..)), &sm) in results
        .iter()
        .zip(work.iter())
        .zip(schedule.assignment.iter())
    {
        let c = CounterSet {
            tests: r.tests,
            instructions: CounterSet::instructions_for_tests(r.tests).saturating_mul(pair_scale),
            transactions: r.transactions,
            min_transactions: r.min_transactions,
            bank_conflicts: 0,
            compute_cycles: r.compute_cycles,
            mem_cycles: r.cycles - r.compute_cycles,
            blocks: 1,
        };
        profile.record(ai, sm as usize, &c);
    }
    profile
        .devices
        .push(DeviceProfile::new(spec, profile.totals.clone()));
    drop(dispatch_span);
    drop(dispatch_guard);
    let transfer_model = TransferModel::from_spec(spec);
    let transfer_s = transfer_model.transfer_seconds(layout.total_bytes());
    if tracer.enabled() {
        let kernel_start = emit::trace_transfer(
            tracer,
            &transfer_model,
            layout.total_bytes(),
            spec.clock_hz,
            0,
        );
        trigon_sched::trace_schedule(tracer, &schedule, &job_sizes, "kernel", kernel_start);
        for r in &results {
            tracer.record("block.cycles", r.cycles as f64);
        }
    }
    let total_s = kernel_s
        + transfer_s
        + cfg.cost.host_prep_seconds(g.n(), g.m())
        + cfg.cost.gpu_context_init_s;
    if collector.enabled() {
        emit::emit_transfer(collector, &transfer_model, layout.total_bytes());
        collector.add("gpu.transactions", transactions);
        collector.add("gpu.makespan_cycles", schedule.makespan());
        collector.add("gpu.blocks", results.len() as u64);
        collector.gauge("gpu.sm_utilization", emit::sm_utilization(&schedule.loads));
        collector.gauge("gpu.schedule_imbalance", schedule.imbalance());
    }
    // Deterministic reduction: fold block partials in work-list order.
    let blocks = results.len();
    let partial = results
        .into_iter()
        .fold(kernel.identity(), |acc, r| kernel.merge(acc, r.partial));
    Ok((
        KCliqueRunResult {
            cliques: kernel.triangles_in(&partial),
            tests,
            transactions,
            kernel_s,
            total_s,
            blocks,
            profile,
        },
        partial,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::als::build_als;
    use crate::kcount;
    use crate::workload::CountKernel;
    use trigon_combin::binom;
    use trigon_gpu_sim::DeviceSpec;
    use trigon_graph::gen;

    fn cfg() -> GpuConfig {
        GpuConfig::optimized(DeviceSpec::c1060())
    }

    fn run_k_cliques(g: &Graph, cfg: &GpuConfig, k: u32) -> Result<KCliqueRunResult, GpuError> {
        run_k_cliques_workload_traced(
            g,
            &build_als(g),
            cfg,
            k,
            &CountKernel,
            &mut Collector::disabled(),
            &Tracer::disabled(),
        )
        .map(|(r, _)| r)
    }

    #[test]
    fn k3_matches_triangle_pipeline() {
        let g = gen::gnp(70, 0.12, 3);
        let r = run_k_cliques(&g, &cfg(), 3).unwrap();
        assert_eq!(r.cliques, trigon_graph::triangles::count_edge_iterator(&g));
        assert_eq!(r.tests, crate::count::total_tests(&g));
    }

    #[test]
    fn k4_and_k5_match_cpu_extension() {
        for seed in 0..2u64 {
            let g = gen::gnp(40, 0.25, seed);
            for k in [4u32, 5] {
                let r = run_k_cliques(&g, &cfg(), k).unwrap();
                assert_eq!(
                    r.cliques,
                    kcount::count_k_cliques(&g, k),
                    "seed {seed} k {k}"
                );
            }
        }
    }

    #[test]
    fn complete_graph_closed_form() {
        let g = gen::complete(12);
        let r = run_k_cliques(&g, &cfg(), 4).unwrap();
        assert_eq!(u128::from(r.cliques), binom(12, 4));
        assert!(r.kernel_s > 0.0);
        assert!(r.transactions > 0);
    }

    #[test]
    fn bipartite_has_no_cliques_past_2() {
        let g = gen::complete_bipartite(8, 8);
        assert_eq!(run_k_cliques(&g, &cfg(), 3).unwrap().cliques, 0);
        assert_eq!(run_k_cliques(&g, &cfg(), 4).unwrap().cliques, 0);
        // k = 2 cliques are edges.
        assert_eq!(run_k_cliques(&g, &cfg(), 2).unwrap().cliques, 64);
    }

    #[test]
    fn larger_k_issues_more_traffic_per_test() {
        // C(5,2) = 10 pair loads per combination vs C(3,2) = 3: the
        // per-test transaction rate must grow accordingly (kernel seconds
        // would be confounded by SM utilization at this size).
        let g = gen::gnp(50, 0.2, 1);
        let k3 = run_k_cliques(&g, &cfg(), 3).unwrap();
        let k5 = run_k_cliques(&g, &cfg(), 5).unwrap();
        let tx_per_test_3 = k3.transactions as f64 / k3.tests as f64;
        let tx_per_test_5 = k5.transactions as f64 / k5.tests as f64;
        assert!(
            tx_per_test_5 > 2.0 * tx_per_test_3,
            "k5 {tx_per_test_5:.2} vs k3 {tx_per_test_3:.2} transactions/test"
        );
    }

    #[test]
    fn naive_layout_also_counts_exactly() {
        let g = gen::gnp(50, 0.2, 2);
        let naive = run_k_cliques(&g, &GpuConfig::naive(DeviceSpec::c1060()), 4).unwrap();
        assert_eq!(naive.cliques, kcount::count_k_cliques(&g, 4));
    }

    #[test]
    #[should_panic(expected = "k ≥ 2")]
    fn rejects_k1() {
        let g = gen::path(3);
        let _ = run_k_cliques(&g, &cfg(), 1);
    }
}
