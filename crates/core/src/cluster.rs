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
//! Levels 1 and 2 run on one shared placement layer: the reshard of
//! lost targets, the per-target loop, the trace harvest, the canonical
//! fold and the aggregate result are the fleet's code too. This module
//! keeps the node planner, the uplink and ghost pricing, the one-node
//! passthrough and the cluster section.
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
use crate::placement::{self, Part};
use crate::report::{ClusterNodeEntry, ClusterSection, FleetSection};
use crate::workload::{ChunkKernel, CountKernel};
use trigon_fleet::{
    plan_cluster, ClusterJob, ClusterSpec, Interconnect, LossPlan, PartitionStrategy, ShardJob,
};
use trigon_graph::Graph;
use trigon_telemetry::{AttrValue, Collector, Tracer, Track};

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
    let shard_jobs: Vec<ShardJob> = jobs
        .iter()
        .map(|j| ShardJob {
            weight: j.weight,
            bytes: j.bytes,
        })
        .collect();
    let (reassigned, active) = placement::reshard(
        &mut plan.placement,
        &shard_jobs,
        &lost,
        tracer,
        "cluster.node_lost",
        |n| offsets[n],
    );
    let assignment = &plan.placement.assignment;
    let links = active.len().max(1);

    // ---- Ghost/surrogate vertices: a component cut across nodes
    // materializes its shared BFS level on the downstream node, paid as
    // a point-to-point exchange over the inter-node tier. ----
    let mut ghost_cycles_in = vec![0u64; nodes.len()];
    let mut ghost_bytes_in = vec![0u64; nodes.len()];
    let mut ghost_vertices_in = vec![0u64; nodes.len()];
    for (j, _, dst) in placement::boundary_moves(als, assignment) {
        ghost_cycles_in[dst] += net.ghost_cycles(jobs[j].ghost_bytes, node_clock(dst));
        ghost_bytes_in[dst] += jobs[j].ghost_bytes;
        ghost_vertices_in[dst] += jobs[j].ghost_vertices;
    }

    // ---- Level 2+3: run each node's partition through the fleet layer. ----
    let mut fleet_makespans = vec![0u64; nodes.len()];
    let (partial, runs) = placement::run_parts(
        als,
        assignment,
        &active,
        kernel,
        collector,
        tracer,
        |n, node_als, sub| {
            let (r, node_partial, fs) = multi::run_fleet_workload(
                g,
                node_als,
                &nodes[n],
                base,
                device_loss,
                kernel,
                &mut Collector::disabled(),
                sub,
            )?;
            fleet_makespans[n] = fs.makespan_cycles;
            let clock = node_clock(n);
            let uplink = net.uplink_cycles(r.layout_bytes, links, clock);
            let ghost = ghost_cycles_in[n];
            if tracer.enabled() {
                let off = offsets[n];
                let lane = Track::DevicePcie(off);
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
                // The node's devices occupy lanes off..off+len: a
                // one-device node traced on the plain lanes maps onto
                // lane off, a fleet's device lanes map by offset. The
                // cluster emits its own host phases.
                placement::harvest(tracer, sub, uplink + ghost, |t| match t {
                    Track::Sm(i) => Some(Track::DeviceSm(off, i)),
                    Track::Pcie => Some(Track::DevicePcie(off)),
                    Track::DeviceSm(d, i) => Some(Track::DeviceSm(off + d, i)),
                    Track::DevicePcie(d) => Some(Track::DevicePcie(off + d)),
                    Track::Host => None,
                });
            }
            let part = Part {
                target: n,
                als: node_als.len(),
                upload_cycles: uplink,
                exchange_cycles: ghost,
                end_cycles: uplink + ghost + fs.makespan_cycles,
                // The node's transfer path: its contended uplink and ghost
                // exchange (its clock domain) plus its fleet's own.
                transfer_s: nodes[n].devices()[0].cycles_to_seconds(uplink + ghost) + r.transfer_s,
                result: r,
            };
            Ok((node_partial, part))
        },
    )?;
    let aggregate = placement::aggregate(g, base, assignment, &runs, kernel.triangles_in(&partial));

    // ---- Cluster section. ----
    let uplink_sum: u64 = runs.iter().map(|r| r.upload_cycles).sum();
    let ghost_sum: u64 = runs.iter().map(|r| r.exchange_cycles).sum();
    let per_node: Vec<ClusterNodeEntry> = (0..nodes.len())
        .map(|n| {
            let run = runs.iter().find(|r| r.target == n);
            ClusterNodeEntry {
                fleet: nodes[n].to_string(),
                lost: lost.contains(&n),
                als: run.map_or(0, |r| r.als),
                weight: plan.placement.loads[n],
                layout_bytes: run.map_or(0, |r| r.result.layout_bytes),
                uplink_cycles: run.map_or(0, |r| r.upload_cycles),
                ghost_cycles: run.map_or(0, |r| r.exchange_cycles),
                ghost_vertices: run.map_or(0, |_| ghost_vertices_in[n]),
                ghost_bytes: run.map_or(0, |_| ghost_bytes_in[n]),
                fleet_makespan_cycles: fleet_makespans[n],
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
        makespan_cycles: aggregate.makespan_cycles,
        compute_cycles: fleet_makespans.iter().sum(),
        uplink_cycles: uplink_sum,
        ghost_cycles: ghost_sum,
        ghost_vertices: ghost_vertices_in.iter().sum(),
        ghost_bytes: ghost_bytes_in.iter().sum(),
        imbalance: aggregate.schedule_imbalance,
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
        collector.add("cluster.makespan_cycles", aggregate.makespan_cycles);
        collector.add(
            "cluster.strategy_2d",
            u64::from(plan.strategy == PartitionStrategy::TwoD),
        );
        collector.gauge("cluster.imbalance", aggregate.schedule_imbalance);
    }
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
                (u64::from(a.a()), placement::shared_level_bytes(a))
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
