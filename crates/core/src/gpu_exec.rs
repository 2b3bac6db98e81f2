//! The simulated GPU combination kernel — triangle counting and every
//! other [`ChunkKernel`] workload.
//!
//! This module executes Algorithm 2 the way the paper's CUDA kernel does
//! — §VIII-D equal work division over the per-ALS combination spaces,
//! warp lanes taking consecutive combination indices — while pricing
//! every global-memory access through `trigon-gpu-sim`:
//!
//! 1. each warp *step* tests up to 32 consecutive combinations; its three
//!    adjacency loads per lane are coalesced per the device's compute
//!    capability ([`trigon_gpu_sim::coalesce`]) under the chosen §X data
//!    [`LayoutKind`];
//! 2. transactions accumulate per block into partition histograms;
//!    concurrently-scheduled blocks (one per SM, §VI makespan dispatch)
//!    share the partitions, so each *phase* pays a camping factor
//!    (`max_queue / ideal`, Eq. 10) on its memory cycles;
//! 3. per-step compute cost and end-to-end overheads (PCIe transfer,
//!    context creation, host-side Algorithms 1 prep) come from the
//!    documented [`CostModel`] calibration.
//!
//! Two fidelity modes: [`FidelityMode::Exhaustive`] walks every
//! combination (exact traces — used for the 200–1200-node Figs. 10/12),
//! [`FidelityMode::Sampled`] prices deterministic sample warps and scales
//! by the exact combinatorial workload counts (used for the 5k–100k-node
//! Fig. 11, where exhaustive enumeration is infeasible for *any*
//! implementation; triangle counts there come from the exact fast ALS
//! path).

use crate::als::{build_als, Als};
use crate::layout::{GlobalLayout, LayoutKind};
use crate::timemodel::CostModel;
use crate::workload::ChunkKernel;
use rayon::prelude::*;
use std::collections::VecDeque;
use trigon_combin::{equal_division, CrossMode};
use trigon_gpu_sim::{
    camping_cycles, emit, warp_transactions, CounterSet, DeviceProfile, DeviceSpec, FaultConfig,
    FaultEvent, FaultOutcome, PartitionTraffic, ProfileData, TransferModel,
};
use trigon_graph::{Graph, Xoshiro256pp};
use trigon_telemetry::{AttrValue, Collector, Tracer, Track};

/// Block→SM dispatch policy (§VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Block `i` to SM `i mod sm_count` — the naive strawman.
    RoundRobin,
    /// Graham list scheduling in block order.
    Greedy,
    /// Longest Processing Time first — the paper-motivated heuristic.
    Lpt,
}

/// How combination tests are carved into thread blocks (§VIII).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkDivision {
    /// Strategy D: combinadics equal division — fixed-size contiguous
    /// blocks over the mode streams (`FirstOnly`, `Mixed`,
    /// `SecondOnly`).
    EqualBlocks,
    /// Strategy C: one block per *leading element* over the equivalent
    /// lex streams (`AtLeastOneFirst` replaces `FirstOnly ∪ Mixed`).
    /// Early blocks own `C(n−1, k−1)`-sized workloads — the §VIII-C
    /// imbalance, visible in the resulting schedule makespan.
    LeadingElement,
}

/// Simulation fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FidelityMode {
    /// Enumerate and price every combination (exact; small graphs).
    Exhaustive,
    /// Price `sample_steps` deterministic warp-steps per (ALS, mode) and
    /// scale by exact workload counts; count triangles via the fast ALS
    /// path. Exact counts, modeled timing.
    Sampled {
        /// Warp-steps sampled per combination stream.
        sample_steps: u32,
    },
    /// The degree-ordered adjacency-intersection kernel (see
    /// [`crate::intersect`]): per-ALS merge/gallop/bitmap operation
    /// counts priced as warp steps, coalesced row-scan transactions,
    /// scattered galloping probes, and bitmap shared-memory bank
    /// conflicts. Exact counts (bit-identical to the combination
    /// pipeline), modeled timing.
    Intersect,
}

/// Full configuration of a simulated GPU run.
#[derive(Debug, Clone)]
pub struct GpuConfig {
    /// Device to simulate.
    pub device: DeviceSpec,
    /// §X data layout.
    pub layout: LayoutKind,
    /// Dispatch policy.
    pub schedule: SchedulePolicy,
    /// Fidelity mode.
    pub mode: FidelityMode,
    /// Threads per block (multiple of the warp size).
    pub threads_per_block: u32,
    /// Target combination tests per thread (sets the block grain).
    pub tests_per_thread: u32,
    /// §VIII work-division strategy.
    pub division: WorkDivision,
    /// Calibration constants.
    pub cost: CostModel,
    /// Deterministic fault injection + recovery policy. `None` (the
    /// default) runs the perfect device; `Some` routes dispatch through
    /// the fault-aware executor — which emits a byte-identical trace
    /// when the plan injects nothing.
    pub faults: Option<FaultConfig>,
}

impl GpuConfig {
    /// The paper's *naive* GPU implementation: monolithic layout,
    /// round-robin dispatch.
    #[must_use]
    pub fn naive(device: DeviceSpec) -> Self {
        Self {
            device,
            layout: LayoutKind::Monolithic,
            schedule: SchedulePolicy::RoundRobin,
            mode: FidelityMode::Exhaustive,
            threads_per_block: 128,
            tests_per_thread: 512,
            division: WorkDivision::EqualBlocks,
            cost: CostModel::default(),
            faults: None,
        }
    }

    /// The paper's primitive-optimized implementation: per-ALS
    /// partition-aligned layout, LPT dispatch.
    #[must_use]
    pub fn optimized(device: DeviceSpec) -> Self {
        Self {
            layout: LayoutKind::AlsPartitionAligned,
            schedule: SchedulePolicy::Lpt,
            ..Self::naive(device)
        }
    }

    /// Switches to sampled fidelity (large graphs).
    #[must_use]
    pub fn sampled(mut self) -> Self {
        self.mode = FidelityMode::Sampled { sample_steps: 64 };
        self
    }

    /// The adjacency-intersection kernel on the optimized substrate
    /// (partition-aligned layout, LPT dispatch, intersect fidelity).
    #[must_use]
    pub fn intersect(device: DeviceSpec) -> Self {
        Self {
            mode: FidelityMode::Intersect,
            ..Self::optimized(device)
        }
    }

    /// Enables deterministic fault injection with the given plan and
    /// recovery policy.
    #[must_use]
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// Errors from a simulated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuError {
    /// The layout does not fit the device's global memory (Eq. 1 check).
    GraphTooLarge {
        /// Bytes the layout needs.
        needed: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
}

impl std::fmt::Display for GpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuError::GraphTooLarge { needed, capacity } => write!(
                f,
                "adjacency layout needs {needed} bytes but device holds {capacity}"
            ),
        }
    }
}

impl std::error::Error for GpuError {}

/// Result of one simulated GPU run.
#[derive(Debug, Clone)]
pub struct GpuRunResult {
    /// Triangles found (exact in both fidelity modes).
    pub triangles: u64,
    /// Combination tests performed/accounted.
    pub tests: u128,
    /// Global-memory transactions issued (scaled in sampled mode).
    pub transactions: u64,
    /// Mean camping factor across phases, weighted by phase memory cycles
    /// (1.0 = perfectly spread partitions).
    pub camping_factor: f64,
    /// Kernel cycles (sum of phase cycles).
    pub kernel_cycles: u64,
    /// Kernel seconds (cycles at the core clock + launch overhead).
    pub kernel_s: f64,
    /// Host→device transfer seconds for the layout bytes.
    pub transfer_s: f64,
    /// Host-side prep (BFS + Algorithm 1 + layout) seconds, modeled.
    pub host_s: f64,
    /// One-time context/allocation seconds.
    pub context_s: f64,
    /// End-to-end modeled seconds.
    pub total_s: f64,
    /// Thread blocks simulated (pseudo-blocks in sampled mode).
    pub blocks: usize,
    /// Bytes of simulated global memory the layout consumed.
    pub layout_bytes: u64,
    /// Makespan imbalance of the block schedule (1.0 = perfect).
    pub schedule_imbalance: f64,
    /// Makespan of the block dispatch in base (pre-camping) cycles.
    pub makespan_cycles: u64,
    /// Mean-load / makespan utilization of the SMs (1.0 = perfectly
    /// balanced dispatch).
    pub sm_utilization: f64,
    /// Fault/recovery accounting, present iff the run was configured
    /// with [`GpuConfig::faults`] (an empty plan still yields an — all
    /// zero — outcome).
    pub faults: Option<FaultOutcome>,
    /// Per-ALS / per-SM counter attribution. Counters are priced at
    /// simulation time and attributed by the *scheduled* assignment, so
    /// the profile is bit-identical across thread widths and under any
    /// fault plan.
    pub profile: ProfileData,
}

/// One simulated block's accumulated costs plus its workload partial.
#[derive(Debug, Clone)]
struct BlockSim<P> {
    als_idx: usize,
    compute_cycles: u64,
    mem_base_cycles: u64,
    transactions: u64,
    min_transactions: u64,
    traffic: PartitionTraffic,
    partial: P,
    tests: u128,
    /// Shared-memory bank conflicts (bitmap intersection rows; 0 for the
    /// combination kernels, which keep combinadic state in registers).
    bank_conflicts: u64,
    /// Whether `tests` counts intersection ops (instruction pricing
    /// differs) rather than combination tests.
    intersect: bool,
}

impl<P> BlockSim<P> {
    /// The block's profiler counter bundle (everything priced at
    /// simulation time — nothing here depends on dispatch or faults).
    fn counters(&self) -> CounterSet {
        CounterSet {
            tests: self.tests,
            instructions: if self.intersect {
                CounterSet::instructions_for_intersect_ops(self.tests)
            } else {
                CounterSet::instructions_for_tests(self.tests)
            },
            transactions: self.transactions,
            min_transactions: self.min_transactions,
            bank_conflicts: self.bank_conflicts,
            compute_cycles: self.compute_cycles,
            mem_cycles: self.mem_base_cycles,
            blocks: 1,
        }
    }
}

/// A unit of work: a contiguous slice of one (ALS, mode) stream.
#[derive(Debug, Clone, Copy)]
struct BlockWork {
    als_idx: usize,
    mode: CrossMode,
    start: u128,
    len: u128,
}

/// Runs the simulated kernel for an arbitrary [`ChunkKernel`] workload
/// over the graph's whole ALS decomposition: builds it once with
/// [`build_als`] and runs [`run_workload_traced_with_als`] on it.
///
/// # Errors
///
/// [`GpuError::GraphTooLarge`] when the layout exceeds the device memory.
pub fn run_workload_traced<K: ChunkKernel>(
    g: &Graph,
    cfg: &GpuConfig,
    kernel: &K,
    collector: &mut Collector,
    tracer: &Tracer,
) -> Result<(GpuRunResult, K::Partial), GpuError> {
    run_workload_traced_with_als(g, &build_als(g), cfg, kernel, collector, tracer)
}

/// Runs the simulated kernel for an arbitrary [`ChunkKernel`] workload
/// over `als` — the graph's whole decomposition, or the *shard* (subset
/// of adjacent level sets) a multi-device fleet assigns to one device.
/// The layout is built over exactly these sets, so the Eq. 1 capacity
/// check applies per shard. Records phase timings and — through
/// `tracer` — a time-resolved trace: host phase spans (`layout`,
/// `count`, `dispatch`), a PCIe transfer span, one simulated-time span
/// per block on its assigned SM lane (with transaction and
/// partition-camping attributes), and `block.cycles` /
/// `block.transactions` histograms.
///
/// Returns the run result plus the fully-merged workload partial
/// (reduced in canonical block order; **not** yet
/// [finalized](ChunkKernel::finalize) — callers that stop merging here
/// finalize it themselves).
///
/// # Errors
///
/// [`GpuError::GraphTooLarge`] when the layout exceeds the device
/// memory.
pub fn run_workload_traced_with_als<K: ChunkKernel>(
    g: &Graph,
    als: &[Als],
    cfg: &GpuConfig,
    kernel: &K,
    collector: &mut Collector,
    tracer: &Tracer,
) -> Result<(GpuRunResult, K::Partial), GpuError> {
    assert!(
        cfg.threads_per_block >= cfg.device.warp_size
            && cfg.threads_per_block.is_multiple_of(cfg.device.warp_size),
        "threads_per_block must be a positive multiple of the warp size"
    );
    tracer.set_device_clock_hz(cfg.device.clock_hz as f64);
    let layout = {
        let _p = collector.phase("layout");
        let mut span = tracer.span("layout", "phase");
        span.attr("kind", format!("{:?}", cfg.layout));
        GlobalLayout::build(
            cfg.layout,
            g.n(),
            als,
            cfg.device.partitions,
            cfg.device.partition_width,
        )
    };
    if layout.total_bytes() > cfg.device.global_mem_bytes {
        return Err(GpuError::GraphTooLarge {
            needed: layout.total_bytes(),
            capacity: cfg.device.global_mem_bytes,
        });
    }

    let (blocks, origins) = {
        let _p = collector.phase("count");
        let _span = tracer.span("count", "phase");
        match cfg.mode {
            FidelityMode::Exhaustive => simulate_exhaustive(g, als, &layout, cfg, kernel),
            FidelityMode::Sampled { sample_steps } => {
                simulate_sampled(g, als, &layout, cfg, kernel, sample_steps)
            }
            FidelityMode::Intersect => simulate_intersect(g, als, cfg, kernel),
        }
    };

    // §VI dispatch, then phase-wise accounting.
    let dispatch_guard = collector.phase("dispatch");
    let dispatch_span = tracer.span("dispatch", "phase");
    let spec = &cfg.device;
    let job_sizes: Vec<u64> = blocks
        .iter()
        .map(|b| b.compute_cycles + b.mem_base_cycles)
        .collect();
    let schedule = match cfg.schedule {
        SchedulePolicy::RoundRobin => trigon_sched::round_robin(&job_sizes, spec.sm_count),
        SchedulePolicy::Greedy => trigon_sched::list_schedule(&job_sizes, spec.sm_count),
        SchedulePolicy::Lpt => trigon_sched::lpt(&job_sizes, spec.sm_count),
    };
    // Counter attribution happens here — outside the dispatch loop —
    // from the blocks' simulate-time prices and the *scheduled* SM
    // assignment. Fault recovery below may retry or migrate blocks, but
    // it never re-prices them, so the profile is identical under any
    // fault plan and thread width.
    let mut profile = ProfileData::new(als.len(), spec.sm_count as usize);
    for (b, &sm) in blocks.iter().zip(schedule.assignment.iter()) {
        profile.record(b.als_idx, sm as usize, &b.counters());
    }
    profile
        .devices
        .push(DeviceProfile::new(spec, profile.totals.clone()));
    // The kernel's simulated timeline starts once the layout has crossed
    // PCIe; per-block SM spans are offset past the transfer span (and,
    // under fault injection, past every failed attempt and its backoff).
    let transfer_model = TransferModel::from_spec(spec);
    let mut outcome = cfg.faults.as_ref().map(|_| FaultOutcome::new());
    let mut transfer_s = transfer_model.transfer_seconds(layout.total_bytes());
    let mut transfer_landed = true;
    let kernel_start_cycles = if let (Some(fc), Some(out)) = (cfg.faults.as_ref(), outcome.as_mut())
    {
        let t = transfer_with_faults(&transfer_model, layout.total_bytes(), spec, fc, out, tracer);
        transfer_s = t.seconds;
        transfer_landed = t.landed;
        t.end_cycles
    } else if tracer.enabled() {
        emit::trace_transfer(
            tracer,
            &transfer_model,
            layout.total_bytes(),
            spec.clock_hz,
            0,
        )
    } else {
        0
    };

    let d = if transfer_landed {
        let ctx = DispatchCtx {
            g,
            als,
            spec,
            blocks: &blocks,
            origins: &origins,
            job_sizes: &job_sizes,
            assignment: &schedule.assignment,
            tracer,
            kernel_start_cycles,
        };
        let faults = match (cfg.faults.as_ref(), outcome.as_mut()) {
            (Some(fc), Some(o)) => Some((fc, o)),
            _ => None,
        };
        dispatch_rounds(kernel, ctx, faults)
    } else {
        // Transfer retries exhausted: the kernel never launches and the
        // whole run degrades to the host path — every block's true
        // contribution is recomputed from its origin.
        let o = outcome
            .as_mut()
            .expect("transfer faults imply a fault config");
        o.run_cpu_fallback = true;
        o.record(FaultEvent::RunCpuFallback);
        tracer.instant_at("recovery.cpu_fallback", Track::Pcie, kernel_start_cycles);
        let mut partial = kernel.identity();
        let mut fallback_tests = 0u128;
        for (b, origin) in blocks.iter().zip(&origins) {
            partial = kernel.merge(partial, partial_for_origin(kernel, g, als, origin));
            fallback_tests += b.tests;
        }
        Dispatched {
            kernel_cycles: 0,
            weighted_camping: 0.0,
            camping_weight: 0.0,
            partial,
            transactions: 0,
            fallback_tests,
        }
    };

    drop(dispatch_span);
    drop(dispatch_guard);

    let tests: u128 = blocks.iter().map(|b| b.tests).sum();
    let kernel_s = if transfer_landed {
        spec.cycles_to_seconds(d.kernel_cycles) + spec.kernel_launch_s
    } else {
        0.0
    };
    let mut host_s = cfg.cost.host_prep_seconds(g.n(), g.m());
    if d.fallback_tests > 0 {
        host_s += cfg.cost.cpu_seconds(g.n(), d.fallback_tests);
    }
    let context_s = cfg.cost.gpu_context_init_s;
    let makespan_cycles = schedule.makespan();
    let sm_utilization = emit::sm_utilization(&schedule.loads);
    let camping_factor = if d.camping_weight > 0.0 {
        d.weighted_camping / d.camping_weight
    } else {
        1.0
    };
    if collector.enabled() {
        let mut all_traffic = PartitionTraffic::new(spec);
        for b in &blocks {
            all_traffic.merge(&b.traffic);
        }
        emit::emit_traffic(collector, "kernel", &all_traffic);
        emit::emit_transfer(collector, &transfer_model, layout.total_bytes());
        collector.add("gpu.transactions", d.transactions);
        collector.add("gpu.kernel_cycles", d.kernel_cycles);
        collector.add("gpu.makespan_cycles", makespan_cycles);
        collector.add("gpu.blocks", blocks.len() as u64);
        collector.gauge("gpu.sm_utilization", sm_utilization);
        collector.gauge("gpu.camping_factor", camping_factor);
        collector.gauge("gpu.schedule_imbalance", schedule.imbalance());
        if let Some(o) = outcome.as_ref() {
            collector.add("faults.injected", u64::from(o.injected.total()));
            collector.add("faults.transfer_retries", u64::from(o.transfer_retries));
            collector.add("faults.chunk_retries", u64::from(o.chunk_retries));
            collector.add("faults.reassigned_chunks", o.reassigned_chunks);
            collector.add("faults.cpu_fallback_chunks", o.cpu_fallback_chunks);
            collector.add("faults.backoff_cycles", o.backoff_cycles);
        }
    }
    Ok((
        GpuRunResult {
            triangles: kernel.triangles_in(&d.partial),
            tests,
            transactions: d.transactions,
            camping_factor,
            kernel_cycles: d.kernel_cycles,
            kernel_s,
            transfer_s,
            host_s,
            context_s,
            total_s: kernel_s + transfer_s + host_s + context_s,
            blocks: blocks.len(),
            layout_bytes: layout.total_bytes(),
            schedule_imbalance: schedule.imbalance(),
            makespan_cycles,
            sm_utilization,
            faults: outcome,
            profile,
        },
        d.partial,
    ))
}

/// How a block's true workload contribution is recomputed on the host
/// when recovery has to abandon the device result.
#[derive(Debug, Clone, Copy)]
enum BlockOrigin {
    /// Exhaustive block: functionally re-walk its combination range.
    Range(BlockWork),
    /// Sampled pseudo-block carrying its ALS's whole partial.
    AlsTotal(usize),
    /// Sampled pseudo-block with no workload share.
    Zero,
}

/// Host recomputation of one block's true workload contribution.
fn partial_for_origin<K: ChunkKernel>(
    kernel: &K,
    g: &Graph,
    als: &[Als],
    origin: &BlockOrigin,
) -> K::Partial {
    match *origin {
        BlockOrigin::Range(work) => {
            let a = &als[work.als_idx];
            let space = a.space(3);
            let mut cursor = space.cursor_at(work.mode, work.start);
            let mut remaining = work.len;
            let mut p = kernel.identity();
            while remaining > 0 {
                let c = cursor.current().expect("cursor within counted range");
                if a.edge(g, c[0], c[1]) && a.edge(g, c[0], c[2]) && a.edge(g, c[1], c[2]) {
                    kernel.emit(&mut p, g, a, c);
                }
                let _ = cursor.advance();
                remaining -= 1;
            }
            p
        }
        BlockOrigin::AlsTotal(ai) => {
            let mut p = kernel.identity();
            kernel.add_als(&mut p, g, &als[ai]);
            p
        }
        BlockOrigin::Zero => kernel.identity(),
    }
}

/// End state of the (possibly faulted) H2D transfer.
pub(crate) struct TransferAttempts {
    /// Simulated cycle the transfer (or its last failed attempt) ended.
    pub(crate) end_cycles: u64,
    /// Modeled seconds across all attempts and backoffs.
    pub(crate) seconds: f64,
    /// Whether the data reached the device.
    pub(crate) landed: bool,
}

/// Plays the H2D transfer under the fault plan: every injected transfer
/// fault fails one attempt (traced as its own PCIe span plus a
/// `fault.xfer` instant) and pays a capped exponential backoff in
/// simulated cycles before the retry. When the plan holds at least
/// `max_transfer_retries` failures the transfer never lands and the run
/// must degrade to the CPU path.
pub(crate) fn transfer_with_faults(
    model: &TransferModel,
    bytes: u64,
    spec: &DeviceSpec,
    fc: &FaultConfig,
    out: &mut FaultOutcome,
    tracer: &Tracer,
) -> TransferAttempts {
    let failures = fc.plan.spec().xfer;
    let attempt_s = model.transfer_seconds(bytes);
    let mut cursor = 0u64;
    let mut seconds = 0.0f64;
    let mut failed = 0u32;
    loop {
        if failed < failures {
            if failed >= fc.max_transfer_retries {
                return TransferAttempts {
                    end_cycles: cursor,
                    seconds,
                    landed: false,
                };
            }
            cursor = emit::trace_transfer_labeled(
                tracer,
                "H2D transfer (failed)",
                model,
                bytes,
                spec.clock_hz,
                cursor,
            );
            tracer.instant_at("fault.xfer", Track::Pcie, cursor);
            failed += 1;
            seconds += attempt_s;
            out.injected.xfer += 1;
            out.transfer_retries += 1;
            out.record(FaultEvent::XferFault { attempt: failed });
            let backoff = fc.backoff_cycles(failed);
            out.backoff_cycles += backoff;
            out.record(FaultEvent::XferRetry {
                attempt: failed,
                backoff_cycles: backoff,
            });
            cursor += backoff;
            seconds += spec.cycles_to_seconds(backoff);
        } else {
            cursor = emit::trace_transfer_labeled(
                tracer,
                "H2D transfer",
                model,
                bytes,
                spec.clock_hz,
                cursor,
            );
            seconds += attempt_s;
            return TransferAttempts {
                end_cycles: cursor,
                seconds,
                landed: true,
            };
        }
    }
}

/// Everything the round loop needs to price (and, under faults,
/// recover) the block dispatch.
struct DispatchCtx<'a, P> {
    g: &'a Graph,
    als: &'a [Als],
    spec: &'a DeviceSpec,
    blocks: &'a [BlockSim<P>],
    origins: &'a [BlockOrigin],
    job_sizes: &'a [u64],
    assignment: &'a [u32],
    tracer: &'a Tracer,
    kernel_start_cycles: u64,
}

/// Aggregates of the dispatch rounds.
struct Dispatched<P> {
    kernel_cycles: u64,
    weighted_camping: f64,
    camping_weight: f64,
    partial: P,
    transactions: u64,
    fallback_tests: u128,
}

/// The §VI round loop, unified across the perfect and fault-injected
/// device. With `faults: None` (or an empty plan) it reproduces the
/// perfect dispatch exactly — same spans, same attributes, same cycle
/// accounting — which is what the byte-identical-trace property test
/// pins. Under faults, each completion consumes its pending ECC/abort
/// injections; recovery requeues the chunk onto the currently
/// least-loaded surviving SM (Graham's step, the paper's makespan
/// argument applied online), and a chunk that exhausts its retries is
/// recomputed on the host.
fn dispatch_rounds<K: ChunkKernel>(
    kernel: &K,
    ctx: DispatchCtx<'_, K::Partial>,
    mut faults: Option<(&FaultConfig, &mut FaultOutcome)>,
) -> Dispatched<K::Partial> {
    let DispatchCtx {
        g,
        als,
        spec,
        blocks,
        origins,
        job_sizes,
        assignment,
        tracer,
        kernel_start_cycles,
    } = ctx;
    let sm_count = spec.sm_count as usize;
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); sm_count];
    let mut rem_load = vec![0u64; sm_count];
    for (i, &sm) in assignment.iter().enumerate() {
        queues[sm as usize].push_back(i);
        rem_load[sm as usize] += job_sizes[i];
    }
    let rounds0 = queues.iter().map(VecDeque::len).max().unwrap_or(0);

    // Resolve the plan's targets up front so the loop is a pure function
    // of (graph, config, plan).
    let mut ecc_pending = vec![0u32; blocks.len()];
    let mut abort_pending = vec![0u32; blocks.len()];
    let mut stalls: Vec<(u32, usize)> = Vec::new();
    if let Some((fc, _)) = faults.as_ref() {
        for b in fc.plan.ecc_targets(blocks.len()) {
            ecc_pending[b] += 1;
        }
        for b in fc.plan.abort_targets(blocks.len()) {
            abort_pending[b] += 1;
        }
        stalls = fc.plan.stall_targets(spec.sm_count, rounds0);
    }

    let mut alive = vec![true; sm_count];
    // Cumulative per-SM transactions for the Perfetto counter tracks
    // (trace-only; profile attribution happens at schedule time).
    let mut sm_cum_tx = vec![0u64; if tracer.enabled() { sm_count } else { 0 }];
    let mut committed: Vec<Option<K::Partial>> = vec![None; blocks.len()];
    let mut retries = vec![0u32; blocks.len()];
    let mut ecc_seen = vec![0u32; blocks.len()];
    let mut out = Dispatched {
        kernel_cycles: 0,
        weighted_camping: 0.0,
        camping_weight: 0.0,
        partial: kernel.identity(),
        transactions: 0,
        fallback_tests: 0,
    };

    let mut r = 0usize;
    while queues
        .iter()
        .enumerate()
        .any(|(s, q)| alive[s] && !q.is_empty())
    {
        let phase_start = kernel_start_cycles + out.kernel_cycles;
        // Stalls scheduled for this round strike before it dispatches:
        // the SM dies and (under recovery) its whole queue migrates to
        // the survivors, least-loaded first.
        if let Some((fc, o)) = faults.as_mut() {
            for &(sm, at) in &stalls {
                let s = sm as usize;
                if at != r || !alive[s] {
                    continue;
                }
                alive[s] = false;
                o.injected.stall += 1;
                o.stalled_sms += 1;
                o.record(FaultEvent::SmStall {
                    sm,
                    round: r as u32,
                });
                tracer.instant_at("fault.stall", Track::Sm(sm), phase_start);
                let stranded: Vec<usize> = queues[s].drain(..).collect();
                for b in stranded {
                    rem_load[s] -= job_sizes[b];
                    if !fc.recovery {
                        continue; // stranded for good: its result never arrives
                    }
                    if let Some(d) = trigon_sched::least_loaded_alive(&rem_load, &alive) {
                        queues[d].push_back(b);
                        rem_load[d] += job_sizes[b];
                        o.reassigned_chunks += 1;
                        o.record(FaultEvent::ChunkReassigned {
                            chunk: b,
                            from: sm,
                            to: d as u32,
                        });
                        tracer.instant_at("recovery.reassign", Track::Sm(d as u32), phase_start);
                    } else {
                        committed[b] = Some(partial_for_origin(kernel, g, als, &origins[b]));
                        out.fallback_tests += blocks[b].tests;
                        o.cpu_fallback_chunks += 1;
                        o.record(FaultEvent::ChunkCpuFallback { chunk: b });
                        tracer.instant_at("recovery.cpu_fallback", Track::Pcie, phase_start);
                    }
                }
            }
        }

        let active: Vec<(usize, usize)> = queues
            .iter()
            .enumerate()
            .filter(|&(s, q)| alive[s] && !q.is_empty())
            .map(|(s, q)| (s, *q.front().expect("queue checked nonempty")))
            .collect();
        if active.is_empty() {
            break;
        }
        let mut merged = PartitionTraffic::new(spec);
        for &(_, b) in &active {
            merged.merge(&blocks[b].traffic);
        }
        // Camping factor of this phase (1.0 on cached 2.x devices).
        let factor = if spec.compute_capability.has_cached_global() || merged.total() == 0 {
            1.0
        } else {
            merged.camping_factor()
        };
        let block_cycles = |b: usize| {
            blocks[b].compute_cycles + (blocks[b].mem_base_cycles as f64 * factor).round() as u64
        };
        let phase_cycles = active
            .iter()
            .map(|&(_, b)| block_cycles(b))
            .max()
            .unwrap_or(0);
        if tracer.enabled() {
            for &(sm, b) in &active {
                let cycles = block_cycles(b);
                tracer.device_span(
                    &format!("block {b}"),
                    "kernel",
                    Track::Sm(sm as u32),
                    phase_start,
                    cycles,
                    &[
                        ("round", AttrValue::UInt(r as u64)),
                        ("transactions", AttrValue::UInt(blocks[b].transactions)),
                        ("camping_factor", AttrValue::Float(factor)),
                        ("tests", AttrValue::UInt(blocks[b].tests as u64)),
                    ],
                );
                tracer.record("block.cycles", cycles as f64);
                tracer.record("block.transactions", blocks[b].transactions as f64);
                // Counter tracks: per-SM occupancy steps to 1 while the
                // block runs, and the cumulative transaction count
                // advances at its completion. Emitted from the shared
                // round loop, so a zero-fault plan stays byte-identical
                // to the perfect device.
                sm_cum_tx[sm] += blocks[b].transactions;
                let lane = Track::Sm(sm as u32);
                tracer.counter("sm.occupancy", lane, phase_start, 1.0);
                tracer.counter("sm.occupancy", lane, phase_start + cycles, 0.0);
                tracer.counter(
                    "sm.transactions",
                    lane,
                    phase_start + cycles,
                    sm_cum_tx[sm] as f64,
                );
            }
        }

        // Completions: pop each active block and commit (or fault) it.
        let mut round_backoff = 0u64;
        for &(sm, b) in &active {
            let popped = queues[sm].pop_front();
            debug_assert_eq!(popped, Some(b));
            rem_load[sm] -= job_sizes[b];
            out.transactions += blocks[b].transactions;
            let end = phase_start + block_cycles(b);
            let Some((fc, o)) = faults.as_mut() else {
                committed[b] = Some(blocks[b].partial.clone());
                continue;
            };
            let mut faulted = false;
            if abort_pending[b] > 0 {
                // The kernel burned its cycles, then died: no result.
                abort_pending[b] -= 1;
                o.injected.abort += 1;
                o.record(FaultEvent::KernelAbort {
                    chunk: b,
                    sm: sm as u32,
                    round: r as u32,
                });
                tracer.instant_at("fault.abort", Track::Sm(sm as u32), end);
                faulted = true;
            } else if ecc_pending[b] > 0 {
                // The result lands, but an ECC read corruption flips
                // mask-derived bits of the partial — without recovery
                // this *is* the committed partial (the property suite's
                // negative control).
                ecc_pending[b] -= 1;
                let mask = fc.plan.corruption_mask(b, ecc_seen[b]);
                ecc_seen[b] += 1;
                let mut corrupted = blocks[b].partial.clone();
                kernel.corrupt(&mut corrupted, mask);
                committed[b] = Some(corrupted);
                o.injected.ecc += 1;
                o.record(FaultEvent::EccCorruption {
                    chunk: b,
                    sm: sm as u32,
                    round: r as u32,
                });
                tracer.instant_at("fault.ecc", Track::Sm(sm as u32), end);
                faulted = true;
            } else {
                committed[b] = Some(blocks[b].partial.clone());
            }
            if faulted && fc.recovery {
                retries[b] += 1;
                let attempt = retries[b];
                if attempt <= fc.max_chunk_retries {
                    if let Some(d) = trigon_sched::least_loaded_alive(&rem_load, &alive) {
                        let backoff = fc.backoff_cycles(attempt);
                        round_backoff += backoff;
                        o.backoff_cycles += backoff;
                        o.chunk_retries += 1;
                        queues[d].push_back(b);
                        rem_load[d] += job_sizes[b];
                        o.record(FaultEvent::ChunkRequeued {
                            chunk: b,
                            to: d as u32,
                            attempt,
                            backoff_cycles: backoff,
                        });
                        tracer.instant_at("recovery.requeue", Track::Sm(d as u32), end);
                        continue;
                    }
                }
                // Retries exhausted (or no SM left): host recompute.
                committed[b] = Some(partial_for_origin(kernel, g, als, &origins[b]));
                out.fallback_tests += blocks[b].tests;
                o.cpu_fallback_chunks += 1;
                o.record(FaultEvent::ChunkCpuFallback { chunk: b });
                tracer.instant_at("recovery.cpu_fallback", Track::Pcie, end);
            }
        }
        out.kernel_cycles += phase_cycles;
        let mem_in_phase: u64 = active.iter().map(|&(_, b)| blocks[b].mem_base_cycles).sum();
        out.weighted_camping += factor * mem_in_phase as f64;
        out.camping_weight += mem_in_phase as f64;
        // One camping_cycles call keeps the latency term in the books.
        out.kernel_cycles += camping_cycles(&merged, spec).min(spec.global_latency_cycles);
        // Relaunch backoffs serialize on the device timeline.
        out.kernel_cycles += round_backoff;
        r += 1;
    }

    // The final reduction folds committed partials in canonical block
    // order — kernels' merges are deterministic under that order; a
    // never-committed block (unrecovered abort/stall) contributes the
    // identity.
    out.partial = committed
        .into_iter()
        .fold(kernel.identity(), |acc, c| match c {
            Some(p) => kernel.merge(acc, p),
            None => acc,
        });
    out
}

/// Per-worker-thread reusable step scratch (`addrs`, `lane_combos`):
/// thousands of blocks run per simulation, and allocating two fresh
/// vectors per block showed up in the perf baseline. The pool reuses
/// threads across blocks, so thread-local buffers amortize to zero.
struct StepScratch {
    addrs: Vec<u64>,
    lane_combos: Vec<[u32; 3]>,
}

thread_local! {
    static STEP_SCRATCH: std::cell::RefCell<StepScratch> =
        const { std::cell::RefCell::new(StepScratch { addrs: Vec::new(), lane_combos: Vec::new() }) };
}

/// Runs `f` with the thread's reusable step scratch.
fn with_scratch<R>(f: impl FnOnce(&mut StepScratch) -> R) -> R {
    STEP_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

fn make_block_work(als: &[Als], cfg: &GpuConfig) -> Vec<BlockWork> {
    match cfg.division {
        WorkDivision::EqualBlocks => make_equal_blocks(als, cfg),
        WorkDivision::LeadingElement => make_leading_blocks(als),
    }
}

/// Strategy D: fixed-grain contiguous blocks per mode stream.
fn make_equal_blocks(als: &[Als], cfg: &GpuConfig) -> Vec<BlockWork> {
    let block_tests = u128::from(cfg.threads_per_block) * u128::from(cfg.tests_per_thread);
    let mut work = Vec::new();
    for (ai, a) in als.iter().enumerate() {
        let space = a.space(3);
        for &mode in a.modes() {
            let total = space.count(mode);
            let mut start = 0u128;
            while start < total {
                let len = block_tests.min(total - start);
                work.push(BlockWork {
                    als_idx: ai,
                    mode,
                    start,
                    len,
                });
                start += len;
            }
        }
    }
    work
}

/// Strategy C: one block per leading element over the lex streams.
/// `AtLeastOneFirst` covers `FirstOnly ∪ Mixed` exactly, so the total
/// workload is identical to strategy D's — only its partition differs.
fn make_leading_blocks(als: &[Als]) -> Vec<BlockWork> {
    let mut work = Vec::new();
    for (ai, a) in als.iter().enumerate() {
        let space = a.space(3);
        let mut streams = vec![CrossMode::AtLeastOneFirst];
        if a.is_last {
            streams.push(CrossMode::SecondOnly);
        }
        for mode in streams {
            for r in space.leading_ranges(mode) {
                work.push(BlockWork {
                    als_idx: ai,
                    mode,
                    start: r.start,
                    len: r.len,
                });
            }
        }
    }
    work
}

/// Prices (and functionally executes) one exhaustive block.
fn simulate_block<K: ChunkKernel>(
    g: &Graph,
    als: &Als,
    layout: &GlobalLayout,
    cfg: &GpuConfig,
    kernel: &K,
    work: BlockWork,
) -> BlockSim<K::Partial> {
    let spec = &cfg.device;
    let warp = spec.warp_size as usize;
    let warps = (cfg.threads_per_block / spec.warp_size) as u64;
    let space = als.space(3);
    let mut sim = BlockSim {
        als_idx: work.als_idx,
        compute_cycles: 0,
        mem_base_cycles: 0,
        transactions: 0,
        min_transactions: 0,
        traffic: PartitionTraffic::new(spec),
        partial: kernel.identity(),
        tests: 0,
        bank_conflicts: 0,
        intersect: false,
    };
    with_scratch(|scratch| {
        let StepScratch { addrs, lane_combos } = scratch;
        for range in equal_division(work.len, warps) {
            if range.len == 0 {
                continue;
            }
            let mut cursor = space.cursor_at(work.mode, work.start + range.start);
            let mut remaining = range.len;
            while remaining > 0 {
                let step = (remaining.min(warp as u128)) as usize;
                lane_combos.clear();
                for _ in 0..step {
                    let c = cursor.current().expect("cursor within counted range");
                    lane_combos.push([c[0], c[1], c[2]]);
                    let _ = cursor.advance();
                }
                remaining -= step as u128;
                sim.tests += step as u128;
                // Functional test; survivors feed the workload kernel.
                for c in lane_combos.iter() {
                    if als.edge(g, c[0], c[1]) && als.edge(g, c[0], c[2]) && als.edge(g, c[1], c[2])
                    {
                        kernel.emit(&mut sim.partial, g, als, &c[..]);
                    }
                }
                // Price the three load phases.
                let (step_tx, step_min) = price_step(
                    layout,
                    als,
                    work.als_idx,
                    lane_combos,
                    spec,
                    addrs,
                    &mut sim.traffic,
                );
                sim.transactions += u64::from(step_tx);
                sim.min_transactions += u64::from(step_min);
                sim.compute_cycles += cfg.cost.gpu_step_base_cycles;
                sim.mem_base_cycles += (f64::from(step_tx)
                    * spec.transaction_service_cycles as f64
                    * cfg.cost.gpu_mem_derate)
                    .round() as u64;
            }
        }
    });
    sim
}

/// Coalesces the three adjacency loads of one warp step; returns the
/// issued transaction count plus the perfectly-coalesced minimum (one
/// 128-byte segment per phase covers a full warp of 4-byte words), and
/// records partition traffic.
fn price_step(
    layout: &GlobalLayout,
    als: &Als,
    als_idx: usize,
    lane_combos: &[[u32; 3]],
    spec: &DeviceSpec,
    addrs: &mut Vec<u64>,
    traffic: &mut PartitionTraffic,
) -> (u32, u32) {
    let mut total = 0u32;
    let mut minimal = 0u32;
    for (i, j) in [(0usize, 1usize), (0, 2), (1, 2)] {
        addrs.clear();
        for c in lane_combos {
            let (u, v) = (c[i], c[j]);
            let addr = match layout.kind() {
                LayoutKind::Monolithic => layout.word_addr(0, als.global_id(u), als.global_id(v)),
                LayoutKind::AlsPartitionAligned => layout.word_addr(als_idx, u, v),
            };
            addrs.push(addr);
        }
        let summary = warp_transactions(spec.compute_capability, addrs, 4);
        traffic.record_all(&summary.segment_addrs);
        total += summary.transactions;
        minimal += (addrs.len() as u32 * 4).div_ceil(128).max(1);
    }
    (total, minimal)
}

fn simulate_exhaustive<K: ChunkKernel>(
    g: &Graph,
    als: &[Als],
    layout: &GlobalLayout,
    cfg: &GpuConfig,
    kernel: &K,
) -> (Vec<BlockSim<K::Partial>>, Vec<BlockOrigin>) {
    let work = make_block_work(als, cfg);
    let sims = work
        .par_iter()
        .map(|w| simulate_block(g, &als[w.als_idx], layout, cfg, kernel, *w))
        .collect();
    let origins = work.into_iter().map(BlockOrigin::Range).collect();
    (sims, origins)
}

/// Sampled fidelity: price deterministic sample steps, scale by exact
/// counts, take workload partials from the host's per-ALS compute.
fn simulate_sampled<K: ChunkKernel>(
    g: &Graph,
    als: &[Als],
    layout: &GlobalLayout,
    cfg: &GpuConfig,
    kernel: &K,
    sample_steps: u32,
) -> (Vec<BlockSim<K::Partial>>, Vec<BlockOrigin>) {
    let spec = &cfg.device;
    let warp = spec.warp_size as usize;
    let block_tests = u128::from(cfg.threads_per_block) * u128::from(cfg.tests_per_thread);
    // Cap pseudo-blocks per ALS so huge spaces stay tractable while the
    // schedule still has makespan structure.
    let max_jobs_per_als = 4 * spec.sm_count as usize;

    let per_als: Vec<Vec<(BlockSim<K::Partial>, BlockOrigin)>> = als
        .par_iter()
        .enumerate()
        .map(|(ai, a)| {
            let space = a.space(3);
            let mut rng = Xoshiro256pp::seed_from_u64(0x5A3D ^ (ai as u64) << 8);
            let mut traffic = PartitionTraffic::new(spec);
            let mut sampled_tests = 0u128;
            let mut sampled_tx = 0u64;
            let mut sampled_min_tx = 0u64;
            let mut total_tests = 0u128;
            with_scratch(|scratch| {
                let StepScratch { addrs, lane_combos } = scratch;
                for &mode in a.modes() {
                    let total = space.count(mode);
                    total_tests += total;
                    if total == 0 {
                        continue;
                    }
                    for _ in 0..sample_steps {
                        let max_start = total.saturating_sub(warp as u128);
                        let start = if max_start == 0 {
                            0
                        } else {
                            u128::from(rng.next_u64()) % (max_start + 1)
                        };
                        let mut cursor = space.cursor_at(mode, start);
                        lane_combos.clear();
                        for _ in 0..warp.min(total as usize) {
                            let Some(c) = cursor.current() else { break };
                            lane_combos.push([c[0], c[1], c[2]]);
                            let _ = cursor.advance();
                        }
                        if lane_combos.is_empty() {
                            continue;
                        }
                        sampled_tests += lane_combos.len() as u128;
                        let (tx, min_tx) =
                            price_step(layout, a, ai, lane_combos, spec, addrs, &mut traffic);
                        sampled_tx += u64::from(tx);
                        sampled_min_tx += u64::from(min_tx);
                    }
                }
            });
            if total_tests == 0 {
                return Vec::new();
            }
            // Scale to the full workload.
            let scale = total_tests as f64 / sampled_tests.max(1) as f64;
            let total_steps = total_tests.div_ceil(warp as u128);
            let total_tx = (sampled_tx as f64 * scale).round() as u64;
            let total_min_tx = (sampled_min_tx as f64 * scale).round() as u64;
            let jobs = usize::try_from(total_tests.div_ceil(block_tests))
                .unwrap_or(max_jobs_per_als)
                .clamp(1, max_jobs_per_als);
            // The whole ALS's partial rides on pseudo-block 0; the rest
            // carry the identity (their origins are Zero accordingly).
            let mut als_partial = kernel.identity();
            kernel.add_als(&mut als_partial, g, a);
            let mut als_partial = Some(als_partial);
            let mut out = Vec::with_capacity(jobs);
            for j in 0..jobs {
                let share = |x: u128| -> u128 {
                    x * (j as u128 + 1) / jobs as u128 - x * (j as u128) / jobs as u128
                };
                let job_tests = share(total_tests);
                let job_steps = share(total_steps) as u64;
                let mut job_traffic = PartitionTraffic::new(spec);
                // Scale the sampled histogram to this job's share.
                let counts: Vec<u64> = traffic
                    .counts()
                    .iter()
                    .map(|&c| ((c as f64 * scale) / jobs as f64).round() as u64)
                    .collect();
                for (p, &c) in counts.iter().enumerate() {
                    job_traffic.record_bulk(p as u32, c);
                }
                out.push((
                    BlockSim {
                        als_idx: ai,
                        compute_cycles: job_steps * cfg.cost.gpu_step_base_cycles,
                        mem_base_cycles: ((total_tx as f64 / jobs as f64)
                            * spec.transaction_service_cycles as f64
                            * cfg.cost.gpu_mem_derate)
                            .round() as u64,
                        transactions: total_tx / jobs as u64,
                        min_transactions: total_min_tx / jobs as u64,
                        traffic: job_traffic,
                        partial: if j == 0 {
                            als_partial.take().expect("first job takes the partial")
                        } else {
                            kernel.identity()
                        },
                        tests: job_tests,
                        bank_conflicts: 0,
                        intersect: false,
                    },
                    if j == 0 {
                        BlockOrigin::AlsTotal(ai)
                    } else {
                        BlockOrigin::Zero
                    },
                ))
            }
            out
        })
        .collect();
    per_als.into_iter().flatten().unzip()
}

/// Intersect fidelity: run the degree-ordered adjacency-intersection
/// kernel per ALS on the host, then price its *exact* operation counts
/// as a device execution — the pseudo-block machinery of
/// [`simulate_sampled`] with the combination sampling replaced by
/// [`ChunkKernel::add_als_intersect`], whose one pass per ALS yields
/// both the partial and the op counts.
///
/// Pricing model (per ALS, split across pseudo-blocks):
/// * compute — one warp step per `warp_size` intersection ops;
/// * memory — CSR row scans, merged lists, and bitmap words stream
///   sequentially, so they coalesce at 32 4-byte words per 128-byte
///   transaction; every galloping probe is a scattered single-word
///   access costing a full transaction (the gallop kernel trades
///   coalescing for fewer ops — visible in `min_transactions`);
/// * bank conflicts — bitmap rows live in shared memory; consecutive
///   lanes of a warp read consecutive words, so each pass over the
///   device's `shared_banks` words serializes one extra access.
fn simulate_intersect<K: ChunkKernel>(
    g: &Graph,
    als: &[Als],
    cfg: &GpuConfig,
    kernel: &K,
) -> (Vec<BlockSim<K::Partial>>, Vec<BlockOrigin>) {
    let spec = &cfg.device;
    let warp = u128::from(spec.warp_size);
    let block_ops = u128::from(cfg.threads_per_block) * u128::from(cfg.tests_per_thread);
    let max_jobs_per_als = 4 * spec.sm_count as usize;

    let per_als: Vec<Vec<(BlockSim<K::Partial>, BlockOrigin)>> = als
        .par_iter()
        .enumerate()
        .map(|(ai, a)| {
            // One intersection pass yields both the ALS's partial and the
            // op counts it is priced from.
            let mut als_partial = kernel.identity();
            let stats = kernel.add_als_intersect(&mut als_partial, g, a);
            let total_ops = u128::from(stats.ops());
            if total_ops == 0 {
                // No intersection work ⇒ no triangles (every counted
                // triangle costs at least one op), so the ALS can be
                // skipped entirely, like an empty space in sampled mode.
                return Vec::new();
            }
            let total_steps = total_ops.div_ceil(warp);
            // Sequential streams coalesce; galloping probes do not.
            let seq_tx = stats.seq_words.div_ceil(32);
            let total_tx = seq_tx + stats.gallop_probes;
            let total_min_tx = (stats.seq_words + stats.gallop_probes).div_ceil(32);
            let bank_conflicts = stats.bitmap_words / u64::from(spec.shared_banks.max(1));
            let jobs = usize::try_from(total_ops.div_ceil(block_ops))
                .unwrap_or(max_jobs_per_als)
                .clamp(1, max_jobs_per_als);
            // Row scans walk the layout in address order, so traffic
            // spreads evenly over the partitions — the camping-free
            // profile that is the point of this kernel.
            let parts = spec.partitions.max(1) as u64;
            let mut als_partial = Some(als_partial);
            let mut out = Vec::with_capacity(jobs);
            for j in 0..jobs {
                let share = |x: u128| -> u128 {
                    x * (j as u128 + 1) / jobs as u128 - x * (j as u128) / jobs as u128
                };
                let share64 = |x: u64| -> u64 { share(u128::from(x)) as u64 };
                let job_tx = share64(total_tx);
                let mut job_traffic = PartitionTraffic::new(spec);
                for p in 0..parts {
                    job_traffic
                        .record_bulk(p as u32, job_tx / parts + u64::from(p < job_tx % parts));
                }
                out.push((
                    BlockSim {
                        als_idx: ai,
                        compute_cycles: share(total_steps) as u64 * cfg.cost.gpu_step_base_cycles,
                        mem_base_cycles: (job_tx as f64
                            * spec.transaction_service_cycles as f64
                            * cfg.cost.gpu_mem_derate)
                            .round() as u64,
                        transactions: job_tx,
                        min_transactions: share64(total_min_tx),
                        traffic: job_traffic,
                        partial: if j == 0 {
                            als_partial.take().expect("first job takes the partial")
                        } else {
                            kernel.identity()
                        },
                        tests: share(total_ops),
                        bank_conflicts: share64(bank_conflicts),
                        intersect: true,
                    },
                    if j == 0 {
                        BlockOrigin::AlsTotal(ai)
                    } else {
                        BlockOrigin::Zero
                    },
                ))
            }
            out
        })
        .collect();
    per_als.into_iter().flatten().unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::CountKernel;
    use trigon_graph::{gen, triangles};

    fn c1060() -> DeviceSpec {
        DeviceSpec::c1060()
    }

    fn run(g: &Graph, cfg: &GpuConfig) -> Result<GpuRunResult, GpuError> {
        run_workload_traced(
            g,
            cfg,
            &CountKernel,
            &mut Collector::disabled(),
            &Tracer::disabled(),
        )
        .map(|(r, _)| r)
    }

    #[test]
    fn exhaustive_counts_exactly() {
        for seed in 0..4u64 {
            let g = gen::gnp(80, 0.1, seed);
            let expect = triangles::count_edge_iterator(&g);
            for cfg in [GpuConfig::naive(c1060()), GpuConfig::optimized(c1060())] {
                let r = run(&g, &cfg).unwrap();
                assert_eq!(r.triangles, expect, "seed {seed} layout {:?}", cfg.layout);
                assert_eq!(r.tests, crate::count::total_tests(&g));
            }
        }
    }

    #[test]
    fn sampled_counts_exactly_and_prices_consistently() {
        let g = gen::community_ring(2000, 150, 0.15, 3, 2);
        let expect = triangles::count_edge_iterator(&g);
        let cfg = GpuConfig::optimized(c1060()).sampled();
        let r = run(&g, &cfg).unwrap();
        assert_eq!(r.triangles, expect);
        assert_eq!(r.tests, crate::count::total_tests(&g));
        assert!(r.transactions > 0);
        assert!(r.kernel_s > 0.0);
    }

    #[test]
    fn sampled_time_tracks_exhaustive() {
        // On a graph small enough for both, the sampled estimate should be
        // within a modest factor of the exhaustive price.
        let g = gen::gnp(150, 0.08, 3);
        let ex = run(&g, &GpuConfig::optimized(c1060())).unwrap();
        let sa = run(&g, &GpuConfig::optimized(c1060()).sampled()).unwrap();
        let ratio = sa.kernel_s / ex.kernel_s;
        assert!((0.5..2.0).contains(&ratio), "sampled/exhaustive = {ratio}");
    }

    #[test]
    fn naive_layout_camps_optimized_does_not() {
        let g = gen::gnp(600, 16.0 / 600.0, 5);
        let naive = run(&g, &GpuConfig::naive(c1060())).unwrap();
        let opt = run(&g, &GpuConfig::optimized(c1060())).unwrap();
        assert!(
            naive.camping_factor > opt.camping_factor + 0.2,
            "naive {} vs optimized {}",
            naive.camping_factor,
            opt.camping_factor
        );
        assert!(naive.kernel_s > opt.kernel_s, "optimized must be faster");
    }

    #[test]
    fn fig12_band_improvement() {
        // The §XI claim: primitives buy ≈6–8 % end to end. Accept 3–15 %
        // across seeds to keep the test robust while pinning the order of
        // magnitude.
        let g = gen::gnp(1000, 16.0 / 1000.0, 1);
        let naive = run(&g, &GpuConfig::naive(c1060())).unwrap();
        let opt = run(&g, &GpuConfig::optimized(c1060())).unwrap();
        let gain = (naive.total_s - opt.total_s) / naive.total_s;
        assert!(
            (0.02..0.18).contains(&gain),
            "gain {gain} outside the plausible band"
        );
    }

    #[test]
    fn cc20_ignores_camping() {
        let g = gen::gnp(300, 0.05, 2);
        let mut cfg = GpuConfig::naive(DeviceSpec::c2050());
        cfg.schedule = SchedulePolicy::Lpt;
        let r = run(&g, &cfg).unwrap();
        assert!((r.camping_factor - 1.0).abs() < 1e-9);
    }

    #[test]
    fn too_large_graph_is_rejected() {
        // A graph bigger than the device: fake it with a tiny device.
        let mut small = c1060();
        small.global_mem_bytes = 1024;
        let g = gen::gnp(400, 0.05, 1);
        let err = run(&g, &GpuConfig::naive(small)).unwrap_err();
        match err {
            GpuError::GraphTooLarge { needed, capacity } => {
                assert!(needed > capacity);
                assert_eq!(capacity, 1024);
            }
        }
    }

    #[test]
    fn lpt_beats_or_ties_round_robin_makespan() {
        let g = gen::community_ring(900, 90, 0.2, 2, 4);
        let mut rr = GpuConfig::optimized(c1060());
        rr.schedule = SchedulePolicy::RoundRobin;
        let lpt = run(&g, &GpuConfig::optimized(c1060())).unwrap();
        let rrr = run(&g, &rr).unwrap();
        assert!(lpt.schedule_imbalance <= rrr.schedule_imbalance + 1e-9);
    }

    #[test]
    fn leading_element_division_counts_exactly() {
        // Strategy C repartitions the same workload: identical triangles
        // and identical total test count.
        for seed in 0..3u64 {
            let g = gen::gnp(90, 0.1, seed);
            let mut cfg = GpuConfig::optimized(c1060());
            cfg.division = WorkDivision::LeadingElement;
            let r = run(&g, &cfg).unwrap();
            assert_eq!(
                r.triangles,
                triangles::count_edge_iterator(&g),
                "seed {seed}"
            );
            assert_eq!(r.tests, crate::count::total_tests(&g), "seed {seed}");
        }
    }

    #[test]
    fn leading_element_division_is_less_balanced_statically() {
        // §VIII-C: "threads having id numbers in the beginning doing more
        // work". The imbalance shows under the *static* dispatch the
        // paper describes (ids matching node numbers ⇒ round-robin);
        // LPT would re-balance it — which is exactly why §VI matters.
        let g = gen::gnp(400, 16.0 / 400.0, 2);
        let run_with = |div: WorkDivision| {
            let mut cfg = GpuConfig::optimized(c1060());
            cfg.division = div;
            cfg.schedule = SchedulePolicy::RoundRobin;
            run(&g, &cfg).unwrap()
        };
        let d = run_with(WorkDivision::EqualBlocks);
        let c = run_with(WorkDivision::LeadingElement);
        assert!(
            c.schedule_imbalance > d.schedule_imbalance,
            "C imbalance {} should exceed D imbalance {}",
            c.schedule_imbalance,
            d.schedule_imbalance
        );
        // And LPT recovers the balance even under strategy C.
        let mut cfg = GpuConfig::optimized(c1060());
        cfg.division = WorkDivision::LeadingElement;
        cfg.schedule = SchedulePolicy::Lpt;
        let c_lpt = run(&g, &cfg).unwrap();
        assert!(c_lpt.schedule_imbalance < c.schedule_imbalance);
    }

    #[test]
    fn empty_graph_runs() {
        let g = Graph::from_edges(0, &[]).unwrap();
        let r = run(&g, &GpuConfig::naive(c1060())).unwrap();
        assert_eq!(r.triangles, 0);
        assert_eq!(r.tests, 0);
        assert_eq!(r.blocks, 0);
    }

    #[test]
    #[should_panic(expected = "multiple of the warp size")]
    fn rejects_bad_block_shape() {
        let g = gen::path(4);
        let mut cfg = GpuConfig::naive(c1060());
        cfg.threads_per_block = 48;
        let _ = run(&g, &cfg);
    }
}
