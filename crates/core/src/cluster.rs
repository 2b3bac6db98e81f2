//! Simulated cluster execution: the third §VI scheduling level.
//!
//! A [`ClusterSpec`] names a roster of nodes, each node a fleet of
//! devices behind one PCIe root. Execution stacks three schedulers:
//!
//! 1. **partitioner across nodes** — [`trigon_fleet::plan_cluster`]
//!    chooses 1D-by-component or 2D-by-edge-block from a predicted
//!    communication-volume cost model and assigns every ALS to a node;
//! 2. **LPT across a node's devices** — each node's partition runs
//!    through [`multi::run_fleet_workload`], the unchanged fleet
//!    layer;
//! 3. **per-SM schedule** — the single-device §VI dispatch, untouched.
//!
//! Correctness rests on the same ALS exactness theorem as the fleet
//! layer: both layouts partition the ALS list, a partition of the ALS
//! list is a partition of the triangles, and the per-node partials
//! reduce (canonical node order) to a total **bit-identical to the
//! serial count** regardless of node count, layout, faults, or loss.
//! Ghost/surrogate vertices change only the priced communication, never
//! the counted set — each node re-reads the shared BFS level from its
//! own partition upload, and the ghost exchange pays for that
//! materialization on the simulated timeline.
//!
//! A cluster of **one** node delegates verbatim to
//! [`multi::run_fleet_workload`] — trace and report (minus the
//! `cluster` section) byte-identical to a plain fleet run, the same
//! collapse discipline the fleet layer applies to one device.

use crate::als::{build_als, Als};
use crate::gpu_exec::{GpuConfig, GpuError, GpuRunResult};
use crate::multi;
use crate::report::{ClusterNodeEntry, ClusterSection, FleetSection};
use crate::workload::{ChunkKernel, CountKernel};
use trigon_fleet::{
    plan_cluster, reassign_lost_nodes, ClusterJob, ClusterSpec, Interconnect, LossPlan,
    PartitionStrategy,
};
use trigon_gpu_sim::{FaultOutcome, ProfileData};
use trigon_graph::Graph;
use trigon_telemetry::{AttrValue, Collector, Level, Tracer, Track};

/// Runs the simulated triangle count across a cluster of nodes over the
/// graph's whole ALS decomposition: builds it once with [`build_als`]
/// and runs [`run_cluster_workload`] on it with [`CountKernel`].
///
/// # Errors
///
/// As [`run_cluster_workload`].
#[allow(clippy::too_many_arguments)]
pub fn run_cluster(
    g: &Graph,
    cluster: &ClusterSpec,
    base: &GpuConfig,
    strategy: PartitionStrategy,
    node_loss: Option<LossPlan>,
    device_loss: Option<LossPlan>,
    collector: &mut Collector,
    tracer: &Tracer,
) -> Result<(GpuRunResult, ClusterSection), GpuError> {
    run_cluster_workload(
        g,
        &build_als(g),
        cluster,
        base,
        strategy,
        node_loss,
        device_loss,
        &CountKernel,
        collector,
        tracer,
    )
    .map(|(r, _, section)| (r, section))
}

/// Runs an arbitrary [`ChunkKernel`] workload across a cluster over
/// `als`, the graph's ALS decomposition.
///
/// `strategy` selects the node layout (`Auto` lets the cost model
/// decide); `node_loss` kills whole nodes at partition time (orphaned
/// ALS migrate to surviving nodes via the online Graham step);
/// `device_loss` is forwarded to every node's fleet run (single-device
/// nodes are unaffected — a loss plan never kills the last survivor).
///
/// The per-node partials are merged in canonical node-index order via
/// [`ChunkKernel::merge`] but *not* finalized; the caller runs
/// [`ChunkKernel::finalize`] once on the returned partial.
///
/// # Errors
///
/// [`GpuError::GraphTooLarge`] when some node's devices cannot hold its
/// partition.
#[allow(clippy::too_many_arguments)]
pub fn run_cluster_workload<K: ChunkKernel>(
    g: &Graph,
    als: &[Als],
    cluster: &ClusterSpec,
    base: &GpuConfig,
    strategy: PartitionStrategy,
    node_loss: Option<LossPlan>,
    device_loss: Option<LossPlan>,
    kernel: &K,
    collector: &mut Collector,
    tracer: &Tracer,
) -> Result<(GpuRunResult, K::Partial, ClusterSection), GpuError> {
    let nodes = cluster.nodes();
    let lost = node_loss
        .map(|l| l.targets(nodes.len()))
        .unwrap_or_default();

    if nodes.len() == 1 {
        // One node, and LossPlan::targets never kills the last survivor:
        // delegate verbatim so the trace and report stay byte-identical
        // to a plain fleet run on that node's roster.
        debug_assert!(lost.is_empty());
        let (r, partial, fs) = multi::run_fleet_workload(
            g,
            als,
            &nodes[0],
            base,
            device_loss,
            kernel,
            collector,
            tracer,
        )?;
        let section = single_node_section(cluster, strategy, &fs, &r);
        return Ok((r, partial, section));
    }

    // Per-node device offsets into the cluster-global device index space
    // (node n, local device d → lane offsets[n] + d).
    let offsets: Vec<u32> = {
        let mut v = Vec::with_capacity(nodes.len());
        let mut acc = 0u32;
        for f in nodes {
            v.push(acc);
            acc += f.len() as u32;
        }
        v
    };
    let node_clock = |n: usize| nodes[n].devices()[0].clock_hz;
    let net = Interconnect::cluster_default();
    let clock0 = node_clock(0);
    tracer.set_device_clock_hz(clock0 as f64);

    // ---- Level 1: partition ALS across nodes. ----
    let (jobs, mut plan) = {
        let _p = collector.phase("plan");
        let mut span = tracer.span("plan", "phase");
        span.attr("nodes", nodes.len());
        let jobs = cluster_jobs(als);
        let plan = plan_cluster(&jobs, &cluster.node_speeds(), &net, clock0, strategy);
        (jobs, plan)
    };

    // ---- Node loss: reshard orphans onto survivors (online Graham). ----
    let mut reassigned = 0;
    if !lost.is_empty() {
        for &n in &lost {
            tracer.instant_at("cluster.node_lost", Track::DevicePcie(offsets[n]), 0);
        }
        reassigned = reassign_lost_nodes(&mut plan, &jobs, &lost);
    }

    let alive: Vec<bool> = (0..nodes.len()).map(|n| !lost.contains(&n)).collect();
    let active: Vec<usize> = (0..nodes.len())
        .filter(|&n| alive[n] && plan.assignment.contains(&n))
        .collect();
    let links = active.len().max(1);

    // ---- Ghost/surrogate vertices: a component cut across nodes
    // materializes its shared BFS level on the downstream node, paid as
    // a point-to-point exchange over the inter-node tier. ----
    let mut ghost_cycles_in = vec![0u64; nodes.len()];
    let mut ghost_bytes_in = vec![0u64; nodes.len()];
    let mut ghost_vertices_in = vec![0u64; nodes.len()];
    for j in 1..als.len() {
        if als[j].component != als[j - 1].component {
            continue;
        }
        let (src, dst) = (plan.assignment[j - 1], plan.assignment[j]);
        if src == dst {
            continue;
        }
        ghost_cycles_in[dst] += net.ghost_cycles(jobs[j].ghost_bytes, node_clock(dst));
        ghost_bytes_in[dst] += jobs[j].ghost_bytes;
        ghost_vertices_in[dst] += jobs[j].ghost_vertices;
    }

    // ---- Level 2+3: run each node's partition through the fleet layer. ----
    struct NodeRun {
        node: usize,
        als: usize,
        weight: u64,
        result: GpuRunResult,
        fleet: FleetSection,
        uplink_cycles: u64,
        ghost_cycles: u64,
        end_cycles: u64,
    }
    let dispatch_guard = collector.phase("dispatch");
    let dispatch_span = tracer.span("dispatch", "phase");
    let mut runs: Vec<NodeRun> = Vec::with_capacity(active.len());
    let mut partials: Vec<K::Partial> = Vec::with_capacity(active.len());
    for &n in &active {
        let node_als: Vec<Als> = als
            .iter()
            .enumerate()
            .filter(|&(j, _)| plan.assignment[j] == n)
            .map(|(_, a)| a.clone())
            .collect();
        let sub = if tracer.enabled() {
            Tracer::with_clock(Level::Trace, tracer.clock())
        } else {
            Tracer::disabled()
        };
        let (r, node_partial, fs) = multi::run_fleet_workload(
            g,
            &node_als,
            &nodes[n],
            base,
            device_loss,
            kernel,
            &mut Collector::disabled(),
            &sub,
        )?;
        partials.push(node_partial);

        let clock = node_clock(n);
        let uplink = net.uplink_cycles(r.layout_bytes, links, clock);
        let ghost = ghost_cycles_in[n];
        let shift = uplink + ghost;
        if tracer.enabled() {
            let lane = Track::DevicePcie(offsets[n]);
            tracer.device_span(
                "node uplink",
                "cluster",
                lane,
                0,
                uplink,
                &[
                    ("bytes", AttrValue::UInt(r.layout_bytes)),
                    ("links", AttrValue::UInt(links as u64)),
                    ("tier", AttrValue::from(net.inter.name)),
                ],
            );
            if ghost > 0 {
                tracer.device_span(
                    "ghost exchange",
                    "cluster",
                    lane,
                    uplink,
                    ghost,
                    &[
                        ("bytes", AttrValue::UInt(ghost_bytes_in[n])),
                        ("vertices", AttrValue::UInt(ghost_vertices_in[n])),
                        ("tier", AttrValue::from(net.inter.name)),
                    ],
                );
            }
            harvest_node_trace(tracer, &sub, offsets[n], shift);
        }
        let end_cycles = shift + fs.makespan_cycles;
        runs.push(NodeRun {
            node: n,
            als: node_als.len(),
            weight: plan.loads[n],
            result: r,
            fleet: fs,
            uplink_cycles: uplink,
            ghost_cycles: ghost,
            end_cycles,
        });
    }
    drop(dispatch_span);
    drop(dispatch_guard);

    // ---- Deterministic reduction, canonical node-index order. ----
    let partial = partials
        .into_iter()
        .fold(kernel.identity(), |acc, p| kernel.merge(acc, p));
    let triangles = kernel.triangles_in(&partial);
    let tests: u128 = runs.iter().map(|r| r.result.tests).sum();

    // ---- Cluster section + aggregate result. ----
    let makespan_cycles = runs.iter().map(|r| r.end_cycles).max().unwrap_or(0);
    let uplink_sum: u64 = runs.iter().map(|r| r.uplink_cycles).sum();
    let ghost_sum: u64 = runs.iter().map(|r| r.ghost_cycles).sum();
    let compute_sum: u64 = runs.iter().map(|r| r.fleet.makespan_cycles).sum();
    let mean_end = if runs.is_empty() {
        0.0
    } else {
        runs.iter().map(|r| r.end_cycles as f64).sum::<f64>() / runs.len() as f64
    };
    let imbalance = if mean_end > 0.0 {
        makespan_cycles as f64 / mean_end
    } else {
        1.0
    };
    let per_node: Vec<ClusterNodeEntry> = (0..nodes.len())
        .map(|n| {
            let run = runs.iter().find(|r| r.node == n);
            ClusterNodeEntry {
                fleet: nodes[n].to_string(),
                lost: lost.contains(&n),
                als: run.map_or(0, |r| r.als),
                weight: run.map_or(0, |r| r.weight),
                layout_bytes: run.map_or(0, |r| r.result.layout_bytes),
                uplink_cycles: run.map_or(0, |r| r.uplink_cycles),
                ghost_cycles: run.map_or(0, |r| r.ghost_cycles),
                ghost_vertices: run.map_or(0, |_| ghost_vertices_in[n]),
                ghost_bytes: run.map_or(0, |_| ghost_bytes_in[n]),
                fleet_makespan_cycles: run.map_or(0, |r| r.fleet.makespan_cycles),
                end_cycles: run.map_or(0, |r| r.end_cycles),
                triangles: run.map_or(0, |r| r.result.triangles),
            }
        })
        .collect();
    let section = ClusterSection {
        spec: cluster.to_string(),
        nodes: nodes.len(),
        devices: cluster.total_devices(),
        strategy: plan.strategy.label().to_string(),
        auto: plan.auto,
        predicted_one_d_cycles: plan.predicted_one_d_cycles,
        predicted_two_d_cycles: plan.predicted_two_d_cycles,
        lost_nodes: lost.len(),
        reassigned_als: reassigned,
        links,
        inter_tier: net.inter.name.to_string(),
        makespan_cycles,
        compute_cycles: compute_sum,
        uplink_cycles: uplink_sum,
        ghost_cycles: ghost_sum,
        ghost_vertices: ghost_vertices_in.iter().sum(),
        ghost_bytes: ghost_bytes_in.iter().sum(),
        imbalance,
        per_node,
    };

    if collector.enabled() {
        collector.add("cluster.nodes", nodes.len() as u64);
        collector.add("cluster.devices", cluster.total_devices() as u64);
        collector.add("cluster.lost", lost.len() as u64);
        collector.add("cluster.reassigned_als", reassigned as u64);
        collector.add("cluster.uplink_cycles", uplink_sum);
        collector.add("cluster.ghost_cycles", ghost_sum);
        collector.add("cluster.ghost_vertices", ghost_vertices_in.iter().sum());
        collector.add("cluster.makespan_cycles", makespan_cycles);
        collector.add(
            "cluster.strategy_2d",
            u64::from(plan.strategy == PartitionStrategy::TwoD),
        );
        collector.gauge("cluster.imbalance", imbalance);
    }

    // ---- Aggregate GpuRunResult (same conventions as the fleet layer,
    // one level up: maxima over nodes for critical-path quantities,
    // kernel-cycle-weighted means for utilization). ----
    let kernel_weight: u64 = runs
        .iter()
        .map(|r| r.result.kernel_cycles)
        .sum::<u64>()
        .max(1);
    let kernel_cycle_sum: u64 = runs.iter().map(|r| r.result.kernel_cycles).sum();
    let camping_factor = if kernel_cycle_sum > 0 {
        runs.iter()
            .map(|r| r.result.camping_factor * r.result.kernel_cycles as f64)
            .sum::<f64>()
            / kernel_weight as f64
    } else {
        1.0
    };
    let sm_utilization = if kernel_cycle_sum > 0 {
        runs.iter()
            .map(|r| r.result.sm_utilization * r.result.kernel_cycles as f64)
            .sum::<f64>()
            / kernel_weight as f64
    } else {
        1.0
    };
    let kernel_cycles = runs
        .iter()
        .map(|r| r.result.kernel_cycles)
        .max()
        .unwrap_or(0);
    let kernel_s = runs
        .iter()
        .map(|r| r.result.kernel_s)
        .fold(0.0f64, f64::max);
    // The cluster's transfer critical path: slowest node's contended
    // uplink + ghost exchange (its clock domain) + its internal fleet
    // transfer path.
    let transfer_s = runs
        .iter()
        .map(|r| {
            nodes[r.node].devices()[0].cycles_to_seconds(r.uplink_cycles + r.ghost_cycles)
                + r.result.transfer_s
        })
        .fold(0.0f64, f64::max);
    let host_s = base.cost.host_prep_seconds(g.n(), g.m());
    let context_s = base.cost.gpu_context_init_s;

    // ---- Aggregate profile: node-local ALS indices remap to global
    // through the same assignment filter order that built node_als;
    // per-SM counters merge index-wise; per-device entries concatenate
    // in ascending node order. ----
    let n_sm = runs
        .iter()
        .map(|r| r.result.profile.per_sm.len())
        .max()
        .unwrap_or(0);
    let mut profile = ProfileData::new(als.len(), n_sm);
    for r in &runs {
        let globals: Vec<usize> = (0..als.len())
            .filter(|&j| plan.assignment[j] == r.node)
            .collect();
        for (local, c) in r.result.profile.per_als.iter().enumerate() {
            if let Some(&gj) = globals.get(local) {
                profile.record_als(gj, c);
            }
        }
        for (i, c) in r.result.profile.per_sm.iter().enumerate() {
            profile.per_sm[i].merge(c);
        }
        profile
            .devices
            .extend(r.result.profile.devices.iter().cloned());
    }

    let faults = merge_fault_outcomes(runs.iter().map(|r| r.result.faults.as_ref()));

    let aggregate = GpuRunResult {
        triangles,
        tests,
        transactions: runs.iter().map(|r| r.result.transactions).sum(),
        camping_factor,
        kernel_cycles,
        kernel_s,
        transfer_s,
        host_s,
        context_s,
        total_s: kernel_s + transfer_s + host_s + context_s,
        blocks: runs.iter().map(|r| r.result.blocks).sum(),
        layout_bytes: runs.iter().map(|r| r.result.layout_bytes).sum(),
        schedule_imbalance: imbalance,
        makespan_cycles,
        sm_utilization,
        faults,
        profile,
    };
    Ok((aggregate, partial, section))
}

/// Reduces every ALS to its cluster job: §VI weight, byte footprint,
/// component id, and the ghost payload owed iff the partitioner
/// separates it from its same-component predecessor (the shared BFS
/// level's vertices and S-UTM adjacency bytes).
fn cluster_jobs(als: &[Als]) -> Vec<ClusterJob> {
    als.iter()
        .enumerate()
        .map(|(j, a)| {
            let bits = a.size_bits();
            // Compute proxy: Algorithm 2 runs ~C(|A|,2)·|B| combination
            // tests per ALS. The raw bit footprint underprices compute
            // on small graphs, which made the cost model favour 1D (no
            // communication) even when 2D's split was far faster.
            let pairs = u128::from(a.a()) * u128::from(a.a().saturating_sub(1)) / 2;
            let tests = (pairs * u128::from(a.b().max(1))).max(1);
            let (ghost_vertices, ghost_bytes) = if j > 0 && als[j - 1].component == a.component {
                let shared = u64::from(a.a());
                (shared, shared * shared.saturating_sub(1) / 2 / 8 + 1)
            } else {
                (0, 0)
            };
            ClusterJob {
                weight: u64::try_from(tests).unwrap_or(u64::MAX),
                bytes: u64::try_from(bits / 8 + 1).unwrap_or(u64::MAX),
                component: u32::try_from(a.component).unwrap_or(u32::MAX),
                ghost_vertices,
                ghost_bytes,
            }
        })
        .collect()
}

/// Re-emits a node sub-trace onto the cluster-global device lanes: the
/// node's devices occupy lanes `offset..offset+len`, and everything
/// shifts by `shift` cycles (past the node's partition uplink and ghost
/// exchange). Single-device nodes traced on the plain `Sm`/`Pcie` lanes
/// map onto lane `offset`; multi-device nodes traced on `DeviceSm`/
/// `DevicePcie` lanes map by offset. Host-track spans are dropped — the
/// cluster path emits its own phases; histograms merge.
fn harvest_node_trace(tracer: &Tracer, sub: &Tracer, offset: u32, shift: u64) {
    for s in sub.spans() {
        let track = match s.track {
            Track::Sm(i) => Track::DeviceSm(offset, i),
            Track::Pcie => Track::DevicePcie(offset),
            Track::DeviceSm(d, i) => Track::DeviceSm(offset + d, i),
            Track::DevicePcie(d) => Track::DevicePcie(offset + d),
            Track::Host => continue,
        };
        let args: Vec<(&str, AttrValue)> = s
            .args
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        tracer.device_span(&s.name, &s.cat, track, s.start + shift, s.dur, &args);
    }
    for i in sub.instants() {
        let track = match i.track {
            Track::Sm(m) => Track::DeviceSm(offset, m),
            Track::Pcie => Track::DevicePcie(offset),
            Track::DeviceSm(d, m) => Track::DeviceSm(offset + d, m),
            Track::DevicePcie(d) => Track::DevicePcie(offset + d),
            Track::Host => continue,
        };
        tracer.instant_at(&i.name, track, i.at + shift);
    }
    for c in sub.counters() {
        let track = match c.track {
            Track::Sm(m) => Track::DeviceSm(offset, m),
            Track::DeviceSm(d, m) => Track::DeviceSm(offset + d, m),
            _ => continue,
        };
        tracer.counter(&c.name, track, c.at + shift, c.value);
    }
    tracer.absorb_histograms(sub);
}

/// Folds per-node fault outcomes into one cluster-level outcome:
/// injected counts and recovery counters sum, the event logs
/// concatenate in node order, and the CPU-fallback flag ORs.
fn merge_fault_outcomes<'a, I>(outcomes: I) -> Option<FaultOutcome>
where
    I: Iterator<Item = Option<&'a FaultOutcome>>,
{
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

/// The cluster section of a one-node cluster: derived from the verbatim
/// fleet result (no inter-node traffic, no ghosts, trivially 1D).
fn single_node_section(
    cluster: &ClusterSpec,
    strategy: PartitionStrategy,
    fs: &FleetSection,
    r: &GpuRunResult,
) -> ClusterSection {
    let als: usize = fs.per_device.iter().map(|d| d.als).sum();
    let weight: u64 = fs.per_device.iter().map(|d| d.weight).sum();
    ClusterSection {
        spec: cluster.to_string(),
        nodes: 1,
        devices: cluster.total_devices(),
        strategy: PartitionStrategy::OneD.label().to_string(),
        auto: strategy == PartitionStrategy::Auto,
        predicted_one_d_cycles: 0,
        predicted_two_d_cycles: 0,
        lost_nodes: 0,
        reassigned_als: 0,
        links: 1,
        inter_tier: Interconnect::cluster_default().inter.name.to_string(),
        makespan_cycles: fs.makespan_cycles,
        compute_cycles: fs.makespan_cycles,
        uplink_cycles: 0,
        ghost_cycles: 0,
        ghost_vertices: 0,
        ghost_bytes: 0,
        imbalance: 1.0,
        per_node: vec![ClusterNodeEntry {
            fleet: fs.spec.clone(),
            lost: false,
            als,
            weight,
            layout_bytes: r.layout_bytes,
            uplink_cycles: 0,
            ghost_cycles: 0,
            ghost_vertices: 0,
            ghost_bytes: 0,
            fleet_makespan_cycles: fs.makespan_cycles,
            end_cycles: fs.makespan_cycles,
            triangles: r.triangles,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trigon_gpu_sim::DeviceSpec;
    use trigon_graph::{gen, triangles};

    fn cluster(spec: &str) -> ClusterSpec {
        ClusterSpec::parse(spec).unwrap()
    }

    fn count_on(
        g: &Graph,
        spec: &str,
        strategy: PartitionStrategy,
        node_loss: Option<LossPlan>,
    ) -> (GpuRunResult, ClusterSection) {
        let base = GpuConfig::optimized(DeviceSpec::c2050());
        run_cluster(
            g,
            &cluster(spec),
            &base,
            strategy,
            node_loss,
            None,
            &mut Collector::disabled(),
            &Tracer::disabled(),
        )
        .unwrap()
    }

    #[test]
    fn cluster_counts_match_serial_across_rosters_and_layouts() {
        let g = gen::community_ring(1200, 100, 0.25, 2, 7);
        let expect = triangles::count_edge_iterator(&g);
        for spec in ["1x(1xC2050)", "2x(2xC2050)", "4x(1xC2050)", "8x(1xC1060)"] {
            for strategy in [
                PartitionStrategy::Auto,
                PartitionStrategy::OneD,
                PartitionStrategy::TwoD,
            ] {
                let (r, section) = count_on(&g, spec, strategy, None);
                assert_eq!(r.triangles, expect, "{spec} {strategy:?}");
                assert_eq!(
                    section
                        .per_node
                        .iter()
                        .fold(0u64, |acc, n| acc.wrapping_add(n.triangles)),
                    expect,
                    "{spec} {strategy:?} partials"
                );
            }
        }
    }

    #[test]
    fn node_loss_reshards_and_keeps_the_count() {
        let g = gen::community_ring(900, 90, 0.3, 2, 3);
        let expect = triangles::count_edge_iterator(&g);
        let (r, section) = count_on(
            &g,
            "4x(1xC2050)",
            PartitionStrategy::Auto,
            Some(LossPlan::new(2, 13)),
        );
        assert_eq!(r.triangles, expect);
        assert_eq!(section.lost_nodes, 2);
        assert!(section.reassigned_als > 0);
        for n in &section.per_node {
            if n.lost {
                assert_eq!(n.als, 0, "lost nodes run nothing");
                assert_eq!(n.triangles, 0);
            }
        }
    }

    #[test]
    fn more_nodes_shorten_the_cluster_makespan() {
        let g = gen::community_ring(2400, 120, 0.25, 2, 4);
        let (_, one) = count_on(&g, "1x(1xC2050)", PartitionStrategy::Auto, None);
        let (_, eight) = count_on(&g, "8x(1xC2050)", PartitionStrategy::Auto, None);
        assert!(
            eight.makespan_cycles < one.makespan_cycles,
            "8 nodes {} !< 1 node {}",
            eight.makespan_cycles,
            one.makespan_cycles
        );
        assert!(eight.uplink_cycles > 0);
    }

    #[test]
    fn two_d_on_one_component_pays_ghosts() {
        // One connected component: 1D cannot split it, 2D must, so the
        // 2D layout materializes ghost vertices while 1D by construction
        // has none.
        let g = gen::gnp(400, 0.04, 5);
        let expect = triangles::count_edge_iterator(&g);
        let (r2, s2) = count_on(&g, "4x(1xC2050)", PartitionStrategy::TwoD, None);
        assert_eq!(r2.triangles, expect);
        assert_eq!(s2.strategy, "2d");
        assert!(s2.ghost_vertices > 0, "cut component must ghost");
        assert!(s2.ghost_cycles > 0);
        let (r1, s1) = count_on(&g, "4x(1xC2050)", PartitionStrategy::OneD, None);
        assert_eq!(r1.triangles, expect);
        assert_eq!(s1.ghost_vertices, 0, "whole components never ghost");
    }

    #[test]
    fn one_node_cluster_matches_plain_fleet_bitwise() {
        let g = gen::gnp(300, 0.05, 3);
        let base = GpuConfig::optimized(DeviceSpec::c2050());
        let fleet = trigon_fleet::FleetSpec::parse("2xC2050").unwrap();
        let (fr, _) = multi::run_fleet(
            &g,
            &fleet,
            &base,
            None,
            &mut Collector::disabled(),
            &Tracer::disabled(),
        )
        .unwrap();
        let (cr, section) = count_on(&g, "1x(2xC2050)", PartitionStrategy::Auto, None);
        assert_eq!(cr.triangles, fr.triangles);
        assert_eq!(cr.kernel_cycles, fr.kernel_cycles);
        assert_eq!(cr.makespan_cycles, fr.makespan_cycles);
        assert_eq!(cr.layout_bytes, fr.layout_bytes);
        assert_eq!(section.uplink_cycles, 0);
        assert_eq!(section.ghost_cycles, 0);
    }

    #[test]
    fn cluster_trace_lands_on_global_device_lanes() {
        let g = gen::community_ring(600, 100, 0.3, 2, 6);
        let tracer = Tracer::new();
        let base = GpuConfig::optimized(DeviceSpec::c2050());
        run_cluster(
            &g,
            &cluster("2x(2xC2050)"),
            &base,
            PartitionStrategy::TwoD,
            None,
            None,
            &mut Collector::disabled(),
            &tracer,
        )
        .unwrap();
        let spans = tracer.spans();
        assert!(
            spans
                .iter()
                .any(|s| matches!(s.track, Track::DeviceSm(d, _) if d >= 2)),
            "second node's devices must land on lanes >= 2"
        );
        assert!(
            spans.iter().any(|s| s.name == "node uplink"),
            "uplink spans priced on the inter-node tier"
        );
        assert!(
            !spans
                .iter()
                .any(|s| matches!(s.track, Track::Sm(_) | Track::Pcie)),
            "no spans may leak onto the single-device lanes"
        );
        // Kernel spans start at or after their node's uplink.
        for s in &spans {
            if let Track::DeviceSm(d, _) = s.track {
                let lane = Track::DevicePcie(if d < 2 { 0 } else { 2 });
                let up = spans
                    .iter()
                    .find(|p| p.track == lane && p.name == "node uplink")
                    .expect("uplink span");
                assert!(s.start >= up.dur, "kernel before uplink finished");
            }
        }
    }
}
