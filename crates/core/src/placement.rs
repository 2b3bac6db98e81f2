//! The placement layer the fleet ([`crate::multi`]) and the cluster
//! ([`crate::cluster`]) share: partition the ALS list across targets
//! (devices or nodes), run each target's share one level down, and
//! reduce in canonical target order.
//!
//! Each level keeps its planner, its link pricing, its one-target
//! passthrough and its report section. What is the same at every level
//! lives here once:
//!
//! * [`reshard`] — lost targets' jobs move to the survivors, and the
//!   targets left with work are the ones that run;
//! * [`boundary_moves`] — consecutive same-component ALS placed on
//!   different targets (the shared BFS level, [`shared_level_bytes`],
//!   crosses a link);
//! * [`run_parts`] — the per-target loop: build the share, run it on a
//!   sub-tracer through the level's closure, fold the partials;
//! * [`harvest`] — re-emit a sub-trace onto the caller's lanes;
//! * [`aggregate`] — the level's [`GpuRunResult`]: critical-path maxima,
//!   kernel-cycle-weighted means, the global per-ALS profile, merged
//!   fault outcomes.

use crate::als::Als;
use crate::gpu_exec::{GpuConfig, GpuError, GpuRunResult};
use crate::workload::ChunkKernel;
use trigon_fleet::{reassign_lost, FleetPlan, ShardJob};
use trigon_gpu_sim::{FaultOutcome, ProfileData};
use trigon_graph::Graph;
use trigon_telemetry::{AttrValue, Collector, Level, Tracer, Track};

/// One target's run of its share.
pub(crate) struct Part {
    /// Target index (device within the fleet, node within the cluster).
    pub target: usize,
    /// ALS in the target's share.
    pub als: usize,
    /// The share's result one level down.
    pub result: GpuRunResult,
    /// Contended upload cycles (fleet: H2D; cluster: node uplink).
    pub upload_cycles: u64,
    /// Incoming boundary-exchange cycles (fleet: D2D; cluster: ghosts).
    pub exchange_cycles: u64,
    /// Cycle the target finishes: its links plus its compute.
    pub end_cycles: u64,
    /// Seconds on the target's transfer path.
    pub transfer_s: f64,
}

/// Moves the jobs of every `lost` target onto the survivors (marking
/// each loss with an `event` instant on its PCIe lane) and returns the
/// number of jobs moved and the targets left with work, ascending.
pub(crate) fn reshard(
    plan: &mut FleetPlan,
    jobs: &[ShardJob],
    lost: &[usize],
    tracer: &Tracer,
    event: &str,
    lane: impl Fn(usize) -> u32,
) -> (usize, Vec<usize>) {
    for &t in lost {
        tracer.instant_at(event, Track::DevicePcie(lane(t)), 0);
    }
    let moved = reassign_lost(plan, jobs, lost);
    let active = (0..plan.loads.len())
        .filter(|t| plan.assignment.contains(t))
        .collect();
    (moved, active)
}

/// Every ALS `j` whose same-component predecessor sits on another
/// target, as `(j, source, destination)`: the shared BFS level must
/// cross a link to reach `j`'s target.
pub(crate) fn boundary_moves<'a>(
    als: &'a [Als],
    assignment: &'a [usize],
) -> impl Iterator<Item = (usize, usize, usize)> + 'a {
    (1..als.len()).filter_map(move |j| {
        let (src, dst) = (assignment[j - 1], assignment[j]);
        (als[j].component == als[j - 1].component && src != dst).then_some((j, src, dst))
    })
}

/// S-UTM bytes of the BFS level `a` shares with its same-component
/// predecessor: what crosses a link when the two sit on different
/// targets.
pub(crate) fn shared_level_bytes(a: &Als) -> u64 {
    let shared = u64::from(a.a());
    shared * shared.saturating_sub(1) / 2 / 8 + 1
}

/// Runs every `active` target's share of `als` through `run_one(target,
/// share, sub_tracer)` and folds the partials in target order (not
/// finalized). A share keeps the global ALS order; the sub-tracer
/// records at trace level when `tracer` is enabled, so `run_one` can
/// [`harvest`] it.
///
/// # Errors
///
/// The first error `run_one` returns.
pub(crate) fn run_parts<K: ChunkKernel>(
    als: &[Als],
    assignment: &[usize],
    active: &[usize],
    kernel: &K,
    collector: &mut Collector,
    tracer: &Tracer,
    mut run_one: impl FnMut(usize, &[Als], &Tracer) -> Result<(K::Partial, Part), GpuError>,
) -> Result<(K::Partial, Vec<Part>), GpuError> {
    let _dispatch = collector.phase("dispatch");
    let _span = tracer.span("dispatch", "phase");
    let mut partial = kernel.identity();
    let mut parts = Vec::with_capacity(active.len());
    for &t in active {
        let share: Vec<Als> = als
            .iter()
            .zip(assignment)
            .filter(|&(_, &a)| a == t)
            .map(|(a, _)| a.clone())
            .collect();
        let sub = if tracer.enabled() {
            Tracer::with_clock(Level::Trace, tracer.clock())
        } else {
            Tracer::disabled()
        };
        let (p, part) = run_one(t, &share, &sub)?;
        partial = kernel.merge(partial, p);
        parts.push(part);
    }
    Ok((partial, parts))
}

/// Re-emits `sub`'s device spans, instants and counter samples onto
/// the lanes `lane` maps their tracks to, shifted by `shift` cycles;
/// tracks `lane` maps to `None` are dropped. Histograms merge.
pub(crate) fn harvest(
    tracer: &Tracer,
    sub: &Tracer,
    shift: u64,
    lane: impl Fn(Track) -> Option<Track>,
) {
    for s in sub.spans() {
        if let Some(track) = lane(s.track) {
            let args: Vec<(&str, AttrValue)> = s
                .args
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .collect();
            tracer.device_span(&s.name, &s.cat, track, s.start + shift, s.dur, &args);
        }
    }
    for i in sub.instants() {
        if let Some(track) = lane(i.track) {
            tracer.instant_at(&i.name, track, i.at + shift);
        }
    }
    for c in sub.counters() {
        if let Some(track) = lane(c.track) {
            tracer.counter(&c.name, track, c.at + shift, c.value);
        }
    }
    tracer.absorb_histograms(sub);
}

/// The placement level's aggregate result over `parts`, whose partials
/// folded to a `triangles` count: the makespan and end-time imbalance
/// over targets, kernel maxima, kernel-cycle-weighted camping and SM
/// utilization, the slowest transfer path, sums of the additive
/// counters, and one profile. Shard-local ALS attribution remaps to
/// global ALS indices through the `assignment` filter order that built
/// each share; per-SM counters merge index-wise; per-device entries
/// concatenate in target order.
pub(crate) fn aggregate(
    g: &Graph,
    base: &GpuConfig,
    assignment: &[usize],
    parts: &[Part],
    triangles: u64,
) -> GpuRunResult {
    let makespan_cycles = parts.iter().map(|p| p.end_cycles).max().unwrap_or(0);
    let mean_end = if parts.is_empty() {
        0.0
    } else {
        parts.iter().map(|p| p.end_cycles as f64).sum::<f64>() / parts.len() as f64
    };
    let imbalance = if mean_end > 0.0 {
        makespan_cycles as f64 / mean_end
    } else {
        1.0
    };
    let kernel_cycle_sum: u64 = parts.iter().map(|p| p.result.kernel_cycles).sum();
    let kernel_weighted = |of: fn(&GpuRunResult) -> f64| {
        if kernel_cycle_sum > 0 {
            parts
                .iter()
                .map(|p| of(&p.result) * p.result.kernel_cycles as f64)
                .sum::<f64>()
                / kernel_cycle_sum as f64
        } else {
            1.0
        }
    };
    let kernel_s = parts
        .iter()
        .map(|p| p.result.kernel_s)
        .fold(0.0f64, f64::max);
    let transfer_s = parts.iter().map(|p| p.transfer_s).fold(0.0f64, f64::max);
    let host_s = base.cost.host_prep_seconds(g.n(), g.m());
    let context_s = base.cost.gpu_context_init_s;

    let n_sm = parts
        .iter()
        .map(|p| p.result.profile.per_sm.len())
        .max()
        .unwrap_or(0);
    let mut profile = ProfileData::new(assignment.len(), n_sm);
    for p in parts {
        let globals = (0..assignment.len()).filter(|&j| assignment[j] == p.target);
        for (gj, c) in globals.zip(&p.result.profile.per_als) {
            profile.record_als(gj, c);
        }
        for (i, c) in p.result.profile.per_sm.iter().enumerate() {
            profile.per_sm[i].merge(c);
        }
        profile
            .devices
            .extend(p.result.profile.devices.iter().cloned());
    }

    GpuRunResult {
        triangles,
        tests: parts.iter().map(|p| p.result.tests).sum(),
        transactions: parts.iter().map(|p| p.result.transactions).sum(),
        camping_factor: kernel_weighted(|r| r.camping_factor),
        kernel_cycles: parts
            .iter()
            .map(|p| p.result.kernel_cycles)
            .max()
            .unwrap_or(0),
        kernel_s,
        transfer_s,
        host_s,
        context_s,
        total_s: kernel_s + transfer_s + host_s + context_s,
        blocks: parts.iter().map(|p| p.result.blocks).sum(),
        layout_bytes: parts.iter().map(|p| p.result.layout_bytes).sum(),
        schedule_imbalance: imbalance,
        makespan_cycles,
        sm_utilization: kernel_weighted(|r| r.sm_utilization),
        faults: merge_fault_outcomes(parts.iter().map(|p| p.result.faults.as_ref())),
        profile,
    }
}

/// Folds per-target fault outcomes into one: injected counts and
/// recovery counters sum, the event logs concatenate in target order,
/// and the CPU-fallback flag ORs. `None` when no target injected.
fn merge_fault_outcomes<'a>(
    outcomes: impl Iterator<Item = Option<&'a FaultOutcome>>,
) -> Option<FaultOutcome> {
    let mut merged: Option<FaultOutcome> = None;
    for o in outcomes.flatten() {
        let m = merged.get_or_insert_with(FaultOutcome::new);
        m.injected.ecc += o.injected.ecc;
        m.injected.xfer += o.injected.xfer;
        m.injected.abort += o.injected.abort;
        m.injected.stall += o.injected.stall;
        m.transfer_retries += o.transfer_retries;
        m.chunk_retries += o.chunk_retries;
        m.reassigned_chunks += o.reassigned_chunks;
        m.cpu_fallback_chunks += o.cpu_fallback_chunks;
        m.run_cpu_fallback |= o.run_cpu_fallback;
        m.stalled_sms += o.stalled_sms;
        m.backoff_cycles += o.backoff_cycles;
        m.events.extend(o.events.iter().cloned());
    }
    merged
}
