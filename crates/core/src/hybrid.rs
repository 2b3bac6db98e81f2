//! Hybrid shared/global execution (§V, Eq. 6).
//!
//! After Algorithm 1 splits the graph, "the threads in the GPU access
//! data from both shared and global memory": chunks whose adjacency fits
//! the 16/48 KB shared memory are staged there and their ALS run at
//! shared-memory latency (paying bank conflicts, Eq. 9), while boundary
//! ALS (spanning two chunks) and ALS inside oversize chunks read global
//! memory as in [`crate::gpu_exec`].
//!
//! The module also evaluates the paper's Eq. 6 — the *naive* pipeline
//! time `τt = μ·τs + ψg·τg` where shared chunks run 30-at-a-time but
//! global chunks serialize — against the LPT makespan schedule, showing
//! what "an intelligent scheduling of the computations" (§V) buys.

use crate::als::{build_als, Als};
use crate::split::{split_graph_collected, SplitConfig, SplitResult};
use crate::timemodel::{eq6_total_time, CostModel};
use crate::workload::{ChunkKernel, CountKernel};
use trigon_gpu_sim::{
    bank_conflict_degree, warp_transactions, CounterSet, DeviceProfile, DeviceSpec, FaultConfig,
    FaultEvent, FaultOutcome, ProfileData, TransferModel,
};
use trigon_graph::Graph;
use trigon_telemetry::{Collector, Tracer, Track};

/// Where one ALS's adjacency is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Fully inside a shared-memory-resident chunk.
    Shared {
        /// Index of the chunk in the split result.
        chunk: usize,
    },
    /// Spans a chunk boundary or lives in an oversize chunk.
    Global,
}

/// Configuration for a hybrid run.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Device (shared memory budget, SM count, clocks).
    pub device: DeviceSpec,
    /// Calibration constants.
    pub cost: CostModel,
    /// BFS roots tried by the splitter.
    pub max_roots: usize,
    /// Deterministic fault injection. The hybrid kernel is analytic and
    /// its counts are host-side, so only `xfer` faults are meaningful
    /// here; the [`crate::Run`] builder rejects the other kinds.
    pub faults: Option<FaultConfig>,
}

impl HybridConfig {
    /// Hybrid run on a device with defaults.
    #[must_use]
    pub fn new(device: DeviceSpec) -> Self {
        Self {
            device,
            cost: CostModel::default(),
            max_roots: 4,
            faults: None,
        }
    }
}

/// Result of a hybrid shared/global run.
#[derive(Debug, Clone)]
pub struct HybridResult {
    /// Exact triangle count.
    pub triangles: u64,
    /// Combination tests accounted.
    pub tests: u128,
    /// ALS served from shared memory.
    pub shared_als: usize,
    /// ALS served from global memory.
    pub global_als: usize,
    /// Chunks of the underlying split.
    pub split: SplitResult,
    /// Eq. 9 bank-conflict degree of the shared-tier access pattern:
    /// one broadcast row word plus consecutive column words per lane.
    pub bank_conflict_degree: u32,
    /// Kernel seconds under LPT makespan scheduling of all ALS jobs.
    pub kernel_s: f64,
    /// Kernel seconds under the paper's naive Eq. 6 pipeline (shared
    /// rounds + serialized global chunks).
    pub eq6_s: f64,
    /// End-to-end seconds (LPT kernel + transfer + host + context).
    pub total_s: f64,
    /// Fault/recovery accounting, present iff the run was configured
    /// with faults.
    pub faults: Option<FaultOutcome>,
    /// Counter attribution per ALS and per scheduled SM. The shared
    /// tier's transactions are the chunk staging copies (perfectly
    /// coalesced); its bank-conflict counter carries the Eq. 9 extra
    /// serialized accesses of the access pattern; the global tier prices
    /// the sampled coalescing estimate.
    pub profile: ProfileData,
}

/// Classifies every ALS of `g` against a split result.
#[must_use]
pub fn classify_als(als: &[Als], split: &SplitResult) -> Vec<Placement> {
    als.iter()
        .map(|a| {
            let last_level = if a.second.is_empty() {
                a.first_level
            } else {
                a.first_level + 1
            };
            split
                .chunks
                .iter()
                .enumerate()
                .find(|(_, c)| {
                    c.component == a.component
                        && c.fits_shared
                        && c.levels.0 <= a.first_level
                        && last_level <= c.levels.1
                })
                .map_or(Placement::Global, |(i, _)| Placement::Shared { chunk: i })
        })
        .collect()
}

/// Runs the hybrid triangle count over the graph's whole ALS
/// decomposition, recording phase timings (`split`, `count`), placement
/// counters, and the shared-memory bank-conflict degree of the kernel's
/// access pattern into `collector`: builds the decomposition once with
/// [`build_als`] and runs [`run_hybrid_workload_traced`] on it.
#[must_use]
pub fn run_hybrid_collected(
    g: &Graph,
    cfg: &HybridConfig,
    collector: &mut Collector,
) -> HybridResult {
    run_hybrid_workload_traced(
        g,
        &build_als(g),
        cfg,
        &CountKernel,
        collector,
        &Tracer::disabled(),
    )
    .0
}

/// Runs the hybrid pipeline over `als` (the graph's ALS decomposition)
/// for an arbitrary [`ChunkKernel`] workload, recording time-resolved
/// spans into `tracer`: host `split` and `count` phase spans, the PCIe
/// transfer span, one simulated-time span per LPT-scheduled job on its
/// SM lane, and `chunk.nodes` / `als.tests` histograms of the §V split
/// and ALS workloads. The timing model is workload-independent (it
/// prices the §V shared/global tiers of the paper's triangle kernel);
/// the workload partial is accumulated host-side per ALS in canonical
/// order and returned unfinalized.
#[must_use]
pub fn run_hybrid_workload_traced<K: ChunkKernel>(
    g: &Graph,
    als: &[Als],
    cfg: &HybridConfig,
    kernel: &K,
    collector: &mut Collector,
    tracer: &Tracer,
) -> (HybridResult, K::Partial) {
    let spec = &cfg.device;
    tracer.set_device_clock_hz(spec.clock_hz as f64);
    let split_cfg = SplitConfig {
        max_roots: cfg.max_roots,
        ..SplitConfig::for_device(spec)
    };
    let split = {
        let mut span = tracer.span("split", "phase");
        let split = split_graph_collected(g, &split_cfg, collector);
        span.attr("chunks", split.chunks.len());
        span.attr("oversize", split.oversize_count);
        split
    };
    if tracer.enabled() {
        for c in &split.chunks {
            tracer.record("chunk.nodes", c.nodes.len() as f64);
        }
    }
    let count_guard = collector.phase("count");
    let count_span = tracer.span("count", "phase");
    let placement = classify_als(als, &split);

    let warp = spec.warp_size as u128;
    // Sub-job grain: the same 64k-test blocks the exhaustive simulator
    // uses, so one big ALS parallelizes across SMs (each block stages its
    // own shared-memory copy of the chunk, as CUDA blocks do).
    let block_tests: u128 = 128 * 512;
    let mut partial = kernel.identity();
    let mut tests = 0u128;
    let mut jobs_cycles: Vec<u64> = Vec::new();
    // Per-job (ALS index, counter bundle) — attributed to SMs after the
    // LPT schedule lands; the job's tests split evenly across its blocks
    // (remainder to the leading blocks) so totals stay exact.
    let mut job_meta: Vec<(usize, CounterSet)> = Vec::new();
    // Eq. 9 conflict degree of the shared-tier access pattern
    // (consecutive words): the extra serialized accesses beyond the
    // conflict-free cost, per load phase.
    let bank_addrs: Vec<u64> = (0..spec.warp_size as u64).map(|l| l * 4).collect();
    let conflict_degree = bank_conflict_degree(&bank_addrs, spec.shared_banks);
    let conflict_extra = u64::from(conflict_degree.saturating_sub(1));
    let mut tau_shared_total = 0.0f64;
    let mut tau_global_total = 0.0f64;
    let mut shared_n = 0usize;
    for (ai, (a, place)) in als.iter().zip(&placement).enumerate() {
        partial = kernel.merge(partial, kernel.compute_als(g, a));
        let t = a.test_count(3);
        tests += t;
        tracer.record("als.tests", t as f64);
        if t == 0 {
            continue;
        }
        let blocks = t.div_ceil(block_tests).max(1);
        let steps_per_block = t.div_ceil(warp).div_ceil(blocks) as u64;
        let base_tests = t / blocks;
        let rem = t % blocks;
        let job_tests = |b: u64| base_tests + u128::from(u128::from(b) < rem);
        match place {
            Placement::Shared { .. } => {
                shared_n += 1;
                // Each block stages the chunk: coalesced copy of the
                // local S-UTM bits into its SM's shared memory.
                let copy_tx = (a.size_bits() / 8).div_ceil(128) as u64;
                let copy = copy_tx * spec.transaction_service_cycles;
                // Shared-tier steps: combination generation still costs,
                // memory at bank latency. The access pattern (broadcast
                // rows + consecutive columns) is conflict-light; charge
                // the conflict-free Eq. 9 cost per load phase.
                let step_cost =
                    cfg.cost.gpu_step_base_shared_cycles + 3 * spec.shared_latency_cycles;
                let per_block = copy + steps_per_block * step_cost;
                tau_shared_total += spec.cycles_to_seconds(per_block * blocks as u64);
                for b in 0..blocks as u64 {
                    jobs_cycles.push(per_block);
                    let jt = job_tests(b);
                    job_meta.push((
                        ai,
                        CounterSet {
                            tests: jt,
                            instructions: CounterSet::instructions_for_tests(jt),
                            transactions: copy_tx,
                            min_transactions: copy_tx,
                            bank_conflicts: conflict_extra * steps_per_block * 3,
                            compute_cycles: steps_per_block * cfg.cost.gpu_step_base_shared_cycles,
                            mem_cycles: copy + steps_per_block * 3 * spec.shared_latency_cycles,
                            blocks: 1,
                        },
                    ));
                }
            }
            Placement::Global => {
                // Global-tier steps: base cost + derated memory service
                // for the transactions a 3-phase warp step issues, priced
                // with the real coalescing engine on a sample step.
                let est_tx_per_step = estimate_tx_per_step(a, spec);
                let mem_step_cycles = (est_tx_per_step
                    * spec.transaction_service_cycles as f64
                    * cfg.cost.gpu_mem_derate)
                    .round() as u64;
                let step_cost = cfg.cost.gpu_step_base_cycles + mem_step_cycles;
                let per_block = steps_per_block * step_cost;
                tau_global_total += spec.cycles_to_seconds(per_block * blocks as u64);
                let tx_per_block = (est_tx_per_step * steps_per_block as f64).round() as u64;
                for b in 0..blocks as u64 {
                    jobs_cycles.push(per_block);
                    let jt = job_tests(b);
                    job_meta.push((
                        ai,
                        CounterSet {
                            tests: jt,
                            instructions: CounterSet::instructions_for_tests(jt),
                            transactions: tx_per_block,
                            min_transactions: 3 * steps_per_block,
                            bank_conflicts: 0,
                            compute_cycles: steps_per_block * cfg.cost.gpu_step_base_cycles,
                            mem_cycles: steps_per_block * mem_step_cycles,
                            blocks: 1,
                        },
                    ));
                }
            }
        }
    }

    // Intelligent scheduling: LPT over all ALS jobs on the SMs.
    let schedule = trigon_sched::lpt(&jobs_cycles, spec.sm_count);
    let mut profile = ProfileData::new(als.len(), spec.sm_count as usize);
    for ((ai, c), &sm) in job_meta.iter().zip(schedule.assignment.iter()) {
        profile.record(*ai, sm as usize, c);
    }
    profile
        .devices
        .push(DeviceProfile::new(spec, profile.totals.clone()));
    let mut kernel_s = spec.cycles_to_seconds(schedule.makespan()) + spec.kernel_launch_s;

    // The paper's naive Eq. 6 pipeline: average per-tier chunk times.
    let global_n = als.len() - shared_n;
    let tau_s = if shared_n > 0 {
        tau_shared_total / shared_n as f64
    } else {
        0.0
    };
    let tau_g = if global_n > 0 {
        tau_global_total / global_n as f64
    } else {
        0.0
    };
    let eq6_s = eq6_total_time(
        shared_n as u64,
        global_n as u64,
        tau_s,
        tau_g,
        spec.sm_count,
    );

    let layout_bytes: u64 = als.iter().map(|a| (a.size_bits() / 8) as u64 + 1).sum();
    let transfer_model = TransferModel::from_spec(spec);
    let mut faults_outcome = cfg.faults.as_ref().map(|_| FaultOutcome::new());
    let mut transfer_s = transfer_model.transfer_seconds(layout_bytes);
    let mut landed = true;
    // Device timeline: jobs start on their SM lanes once the ALS
    // layouts have crossed PCIe (and, under fault injection, past every
    // failed attempt plus its backoff).
    let kernel_start = if let (Some(fc), Some(out)) = (cfg.faults.as_ref(), faults_outcome.as_mut())
    {
        let t = crate::gpu_exec::transfer_with_faults(
            &transfer_model,
            layout_bytes,
            spec,
            fc,
            out,
            tracer,
        );
        transfer_s = t.seconds;
        landed = t.landed;
        t.end_cycles
    } else if tracer.enabled() {
        trigon_gpu_sim::emit::trace_transfer(
            tracer,
            &transfer_model,
            layout_bytes,
            spec.clock_hz,
            0,
        )
    } else {
        0
    };
    let mut cpu_fallback_s = 0.0;
    if landed {
        if tracer.enabled() {
            trigon_sched::trace_schedule(tracer, &schedule, &jobs_cycles, "kernel", kernel_start);
        }
    } else {
        // Transfer retries exhausted: the kernel never launches; the
        // (already host-exact) count is priced at the CPU path instead.
        let out = faults_outcome
            .as_mut()
            .expect("transfer faults imply a fault config");
        out.run_cpu_fallback = true;
        out.record(FaultEvent::RunCpuFallback);
        tracer.instant_at("recovery.cpu_fallback", Track::Pcie, kernel_start);
        kernel_s = 0.0;
        cpu_fallback_s = cfg.cost.cpu_seconds(g.n(), tests);
    }
    let total_s = kernel_s
        + transfer_s
        + cfg.cost.host_prep_seconds(g.n(), g.m())
        + cfg.cost.gpu_context_init_s
        + cpu_fallback_s;

    drop(count_span);
    drop(count_guard);
    if collector.enabled() {
        trigon_gpu_sim::emit_transfer(collector, &transfer_model, layout_bytes);
        collector.add("hybrid.shared_als", shared_n as u64);
        collector.add("hybrid.global_als", global_n as u64);
        collector.add("gpu.makespan_cycles", schedule.makespan());
        collector.gauge(
            "gpu.sm_utilization",
            trigon_gpu_sim::sm_utilization(&schedule.loads),
        );
        // Pricing stays conflict-free; the recorded degree documents why.
        collector.gauge("shared.bank_conflict_degree", f64::from(conflict_degree));
    }

    (
        HybridResult {
            triangles: kernel.triangles_in(&partial),
            tests,
            shared_als: shared_n,
            global_als: global_n,
            split,
            bank_conflict_degree: conflict_degree,
            kernel_s,
            eq6_s,
            total_s,
            faults: faults_outcome,
            profile,
        },
        partial,
    )
}

/// Cheap per-ALS estimate of warp-step transactions: one sampled step at
/// the start of the Mixed stream (or FirstOnly when Mixed is empty),
/// priced with the real coalescing engine on an S-UTM-row layout.
fn estimate_tx_per_step(a: &Als, spec: &DeviceSpec) -> f64 {
    use trigon_combin::CrossMode;
    let space = a.space(3);
    let mode = if space.count(CrossMode::Mixed) > 0 {
        CrossMode::Mixed
    } else if space.count(CrossMode::FirstOnly) > 0 {
        CrossMode::FirstOnly
    } else if space.count(CrossMode::SecondOnly) > 0 {
        CrossMode::SecondOnly
    } else {
        return 0.0;
    };
    let mut cur = space.cursor(mode);
    let pitch = u64::from(a.size()).div_ceil(8).next_multiple_of(128);
    let mut lanes: Vec<[u32; 3]> = Vec::with_capacity(32);
    while let Some(c) = cur.current() {
        lanes.push([c[0], c[1], c[2]]);
        if lanes.len() == 32 || !cur.advance() {
            break;
        }
    }
    if lanes.is_empty() {
        return 0.0;
    }
    let mut tx = 0u32;
    for (i, j) in [(0usize, 1usize), (0, 2), (1, 2)] {
        let addrs: Vec<u64> = lanes
            .iter()
            .map(|c| u64::from(c[i]) * pitch + u64::from(c[j] / 32) * 4)
            .collect();
        tx += warp_transactions(spec.compute_capability, &addrs, 4).transactions;
    }
    f64::from(tx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trigon_graph::{gen, triangles};

    fn cfg() -> HybridConfig {
        HybridConfig::new(DeviceSpec::c1060())
    }

    fn run_hybrid(g: &Graph, cfg: &HybridConfig) -> HybridResult {
        run_hybrid_collected(g, cfg, &mut Collector::disabled())
    }

    #[test]
    fn counts_are_exact() {
        for g in [
            gen::gnp(200, 0.05, 1),
            gen::community_ring(2000, 150, 0.2, 3, 2),
            gen::disjoint_cliques(3, 40),
        ] {
            let r = run_hybrid(&g, &cfg());
            assert_eq!(r.triangles, triangles::count_edge_iterator(&g));
            assert_eq!(r.tests, crate::count::total_tests(&g));
            assert_eq!(r.shared_als + r.global_als, build_als(&g).len());
        }
    }

    #[test]
    fn deep_graph_mostly_shared() {
        // Community ring: chunks of ~150-vertex communities fit the 16 KB
        // shared memory (512-vertex S-UTM capacity), so most ALS should be
        // staged shared.
        let g = gen::community_ring(3000, 150, 0.2, 3, 4);
        let r = run_hybrid(&g, &cfg());
        assert!(
            r.shared_als > r.global_als,
            "shared {} vs global {}",
            r.shared_als,
            r.global_als
        );
    }

    #[test]
    fn wide_graph_goes_global() {
        // A dense G(n, p) with a >512-vertex middle level cannot stage its
        // dominant ALS in 16 KB shared memory.
        let g = gen::gnp(1000, 16.0 / 1000.0, 5);
        let r = run_hybrid(&g, &cfg());
        assert!(r.global_als >= 1);
        assert!(r.split.oversize_count >= 1);
    }

    #[test]
    fn lpt_beats_eq6_when_globals_serialize() {
        // Eq. 6 serializes the ψg global chunks; LPT overlaps them across
        // SMs — with several global ALS the makespan must win.
        let g = gen::gnp(900, 16.0 / 900.0, 7);
        let r = run_hybrid(&g, &cfg());
        if r.global_als >= 2 {
            assert!(
                r.kernel_s <= r.eq6_s,
                "LPT {:.4}s should not lose to Eq.6 {:.4}s",
                r.kernel_s,
                r.eq6_s
            );
        }
    }

    #[test]
    fn hybrid_beats_all_global_on_deep_graphs() {
        // When most ALS stage in shared memory, the hybrid kernel should
        // beat the all-global simulated kernel (τs < τg).
        use crate::gpu_exec::{run_workload_traced, GpuConfig};
        let g = gen::community_ring(2500, 150, 0.25, 3, 21);
        let h = run_hybrid(&g, &cfg());
        let (global, _) = run_workload_traced(
            &g,
            &GpuConfig::optimized(DeviceSpec::c1060()).sampled(),
            &CountKernel,
            &mut Collector::disabled(),
            &Tracer::disabled(),
        )
        .unwrap();
        assert!(h.shared_als > h.global_als);
        assert!(
            h.kernel_s < global.kernel_s,
            "hybrid {:.4}s vs all-global {:.4}s",
            h.kernel_s,
            global.kernel_s
        );
        assert_eq!(h.triangles, global.triangles);
    }

    #[test]
    fn classification_consistency() {
        let g = gen::community_ring(1500, 100, 0.25, 2, 9);
        let split_cfg = SplitConfig::for_device(&DeviceSpec::c1060());
        let split = crate::split::split_graph(&g, &split_cfg);
        let als = build_als(&g);
        for (a, p) in als.iter().zip(classify_als(&als, &split)) {
            if let Placement::Shared { chunk } = p {
                let c = &split.chunks[chunk];
                assert!(c.fits_shared);
                assert_eq!(c.component, a.component);
                // Every ALS vertex is inside the chunk.
                for v in a.first.iter().chain(a.second.iter()) {
                    assert!(c.nodes.binary_search(v).is_ok(), "vertex {v} outside chunk");
                }
            }
        }
    }

    #[test]
    fn fermi_shared_capacity_helps() {
        // 48 KB shared (887-vertex S-UTM) stages strictly more ALS than
        // 16 KB (512) on a workload with mid-sized levels.
        let g = gen::community_ring(4000, 250, 0.2, 3, 11);
        let tesla = run_hybrid(&g, &HybridConfig::new(DeviceSpec::c1060()));
        let fermi = run_hybrid(&g, &HybridConfig::new(DeviceSpec::c2050()));
        assert!(fermi.shared_als >= tesla.shared_als);
        assert_eq!(fermi.triangles, tesla.triangles);
    }

    #[test]
    fn collected_run_records_placement_and_phases() {
        let g = gen::community_ring(1500, 100, 0.2, 2, 3);
        let mut c = Collector::new();
        let r = run_hybrid_collected(&g, &cfg(), &mut c);
        assert_eq!(c.counter("hybrid.shared_als"), r.shared_als as u64);
        assert_eq!(c.counter("hybrid.global_als"), r.global_als as u64);
        assert!(c.phase_total("split") > 0.0);
        assert!(c.phase_total("count") > 0.0);
        assert!(c.counter("xfer.bytes") > 0);
        // Consecutive words over 16 banks: a full warp double-covers the
        // banks (degree 2 on C1060; 1 on the 32-bank Fermi parts).
        assert_eq!(c.gauge_value("shared.bank_conflict_degree"), Some(2.0));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]).unwrap();
        let r = run_hybrid(&g, &cfg());
        assert_eq!(r.triangles, 0);
        assert_eq!(r.shared_als, 0);
        assert_eq!(r.global_als, 0);
    }
}
