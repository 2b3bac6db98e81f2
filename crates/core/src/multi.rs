//! Multi-device fleet execution: shard the ALS decomposition across a
//! [`FleetSpec`] roster, run each shard through the single-device
//! simulator, price the interconnect, and reduce the partial counts.
//!
//! The design rests on the ALS exactness theorem the whole paper builds
//! on: every triangle lives inside exactly one adjacent level set, so a
//! partition of the ALS list is a partition of the triangles, and the
//! per-device partial counts sum (with `wrapping_add`, which is
//! commutative and associative on `u64`) to a total that is
//! **bit-identical to the serial count regardless of device count or
//! reduction order**. The reduction here still folds in canonical
//! device-index order, so even a hypothetical non-commutative
//! accumulator would be deterministic.
//!
//! Two-level §VI scheduling: the *outer* instance is
//! [`trigon_fleet::plan_shards`] — heterogeneity-aware LPT of ALS jobs
//! across devices, capacity-gated by Eq. 1 per device; the *inner*
//! instance is the existing per-SM schedule inside each shard's
//! [`gpu_exec`] run, untouched. The shard loop, the trace harvest, the
//! fold and the aggregate result are the placement layer the cluster
//! tier shares; this module keeps the shard planner, the H2D/D2D
//! pricing, the one-device passthrough and the fleet section.
//!
//! A fleet of **one** device with no device loss delegates verbatim to
//! [`gpu_exec::run_workload_traced_with_als`] on the caller's tracer —
//! the trace and the report (minus the `fleet` section) are
//! byte-identical to a plain single-device run by construction. With
//! two or more devices the shared placement layer runs each shard
//! against a private sub-tracer; its SM spans are harvested onto
//! per-device [`Track::DeviceSm`] lanes, shifted past the contended H2D
//! upload and the D2D boundary exchange, and its histograms are merged
//! into the fleet trace.

use crate::als::{build_als, Als};
use crate::gpu_exec::{self, GpuConfig, GpuError, GpuRunResult};
use crate::placement::{self, Part};
use crate::report::{FleetDeviceEntry, FleetSection};
use crate::workload::{ChunkKernel, CountKernel};
use trigon_fleet::{plan_shards, seconds_to_cycles, FleetSpec, Interconnect, LossPlan, ShardJob};
use trigon_gpu_sim::{DeviceSpec, TransferModel};
use trigon_graph::Graph;
use trigon_telemetry::{AttrValue, Collector, Tracer, Track};

/// Runs the simulated triangle count across a fleet of devices over the
/// graph's whole ALS decomposition: builds it once with [`build_als`]
/// and runs [`run_fleet_workload`] on it with [`CountKernel`].
///
/// # Errors
///
/// As [`run_fleet_workload`].
pub fn run_fleet(
    g: &Graph,
    fleet: &FleetSpec,
    base: &GpuConfig,
    loss: Option<LossPlan>,
    collector: &mut Collector,
    tracer: &Tracer,
) -> Result<(GpuRunResult, FleetSection), GpuError> {
    run_fleet_workload(
        g,
        &build_als(g),
        fleet,
        base,
        loss,
        &CountKernel,
        collector,
        tracer,
    )
    .map(|(r, _, section)| (r, section))
}

/// Runs an arbitrary [`ChunkKernel`] workload across a fleet of devices
/// over `als` — the graph's whole decomposition, or the partition the
/// cluster tier assigns to one node.
///
/// Returns the aggregate [`GpuRunResult`] (for a one-device fleet: the
/// verbatim single-device result) plus the [`FleetSection`] describing
/// the sharding, the interconnect cycles, and the per-device partials.
/// A one-device fleet runs `als` directly on the single-device executor
/// (chunk-level fault plans pass through, exactly as in a plain run); a
/// larger fleet shards it with the outer-LPT plan. `als` must preserve
/// the global ALS order (the D2D boundary-exchange model reads
/// consecutive same-component pairs).
///
/// `loss` injects deterministic device failures at shard start; orphaned
/// ALS jobs migrate to the survivors via the online Graham step. At
/// least one device always survives.
///
/// The shard partials are merged in canonical device-index order via
/// [`ChunkKernel::merge`] but *not* finalized; the caller runs
/// [`ChunkKernel::finalize`] once on the returned partial.
///
/// # Errors
///
/// [`GpuError::GraphTooLarge`] when no device can hold some shard (at
/// planning time against the byte estimate, or at layout time against
/// the exact Eq. 1 footprint).
#[allow(clippy::too_many_arguments)]
pub fn run_fleet_workload<K: ChunkKernel>(
    g: &Graph,
    als: &[Als],
    fleet: &FleetSpec,
    base: &GpuConfig,
    loss: Option<LossPlan>,
    kernel: &K,
    collector: &mut Collector,
    tracer: &Tracer,
) -> Result<(GpuRunResult, K::Partial, FleetSection), GpuError> {
    let devices = fleet.devices();
    let lost = loss.map(|l| l.targets(devices.len())).unwrap_or_default();

    if devices.len() == 1 {
        // One device, and LossPlan::targets never kills the last
        // survivor: delegate verbatim so the trace and report stay
        // byte-identical to a plain single-device run.
        debug_assert!(lost.is_empty());
        let mut cfg = base.clone();
        cfg.device = devices[0].clone();
        let (r, partial) =
            gpu_exec::run_workload_traced_with_als(g, als, &cfg, kernel, collector, tracer)?;
        let section = single_device_section(als, fleet, &cfg.device, &r);
        return Ok((r, partial, section));
    }

    // ---- Outer §VI instance: plan ALS shards across the roster. ----
    tracer.set_device_clock_hz(devices[0].clock_hz as f64);
    let (jobs, mut plan) = {
        let _p = collector.phase("plan");
        let mut span = tracer.span("plan", "phase");
        span.attr("devices", devices.len());
        let jobs: Vec<ShardJob> = als
            .iter()
            .map(|a| {
                let bits = a.size_bits();
                ShardJob {
                    weight: u64::try_from(bits).unwrap_or(u64::MAX),
                    bytes: u64::try_from(bits / 8 + 1).unwrap_or(u64::MAX),
                }
            })
            .collect();
        let plan = plan_shards(&jobs, devices).map_err(|e| GpuError::GraphTooLarge {
            needed: e.needed,
            capacity: e.capacity,
        })?;
        (jobs, plan)
    };

    // ---- Device loss: reshard orphans onto survivors (online Graham). ----
    let (reassigned, active) =
        placement::reshard(&mut plan, &jobs, &lost, tracer, "fleet.device_lost", |d| {
            d as u32
        });
    let links = active.len().max(1);

    // ---- D2D boundary exchange: consecutive ALS of one component share
    // a BFS level; when they land on different devices the downstream
    // device receives the shared level's S-UTM adjacency. ----
    let mut d2d_cycles_in = vec![0u64; devices.len()];
    let mut d2d_bytes_in = vec![0u64; devices.len()];
    for (j, src, dst) in placement::boundary_moves(als, &plan.assignment) {
        let bytes = placement::shared_level_bytes(&als[j]);
        let sm = TransferModel::from_spec(&devices[src]);
        let dm = TransferModel::from_spec(&devices[dst]);
        d2d_cycles_in[dst] += Interconnect::d2d_cycles(&sm, &dm, bytes, devices[dst].clock_hz);
        d2d_bytes_in[dst] += bytes;
    }

    // ---- Run each shard on its device; harvest its SM lanes. ----
    let (partial, shards) = placement::run_parts(
        als,
        &plan.assignment,
        &active,
        kernel,
        collector,
        tracer,
        |d, shard_als, sub| {
            let mut dcfg = base.clone();
            dcfg.device = devices[d].clone();
            dcfg.faults = None;
            let (r, shard_partial) = gpu_exec::run_workload_traced_with_als(
                g,
                shard_als,
                &dcfg,
                kernel,
                &mut Collector::disabled(),
                sub,
            )?;
            let model = TransferModel::from_spec(&devices[d]);
            let clock = devices[d].clock_hz;
            // The sub-run priced its own (uncontended) upload and started
            // its kernel right after it; re-derive that end with the exact
            // `ceil` formula of `trigon_gpu_sim::emit` so the shift is
            // gap-free.
            let internal_end = seconds_to_cycles(model.transfer_seconds(r.layout_bytes), clock);
            let h2d = Interconnect::h2d_cycles(&model, r.layout_bytes, links, clock);
            let d2d = d2d_cycles_in[d];
            if tracer.enabled() {
                let du = d as u32;
                tracer.device_span(
                    "H2D transfer",
                    "pcie",
                    Track::DevicePcie(du),
                    0,
                    h2d,
                    &[
                        ("bytes", AttrValue::UInt(r.layout_bytes)),
                        ("links", AttrValue::UInt(links as u64)),
                        ("bandwidth_Bps", AttrValue::UInt(model.bandwidth)),
                        ("latency_s", AttrValue::Float(model.latency_s)),
                    ],
                );
                if d2d > 0 {
                    tracer.device_span(
                        "D2D exchange",
                        "pcie",
                        Track::DevicePcie(du),
                        h2d,
                        d2d,
                        &[("bytes", AttrValue::UInt(d2d_bytes_in[d]))],
                    );
                }
                // Only the SM lanes: the fleet emitted its own contended
                // upload in place of the sub-run's.
                placement::harvest(tracer, sub, h2d + d2d - internal_end, |t| match t {
                    Track::Sm(i) => Some(Track::DeviceSm(du, i)),
                    _ => None,
                });
            }
            let part = Part {
                target: d,
                als: shard_als.len(),
                upload_cycles: h2d,
                exchange_cycles: d2d,
                end_cycles: h2d + d2d + r.kernel_cycles,
                // The shard's transfer path: its contended upload plus
                // its boundary exchange, in its own clock domain.
                transfer_s: devices[d].cycles_to_seconds(h2d + d2d),
                result: r,
            };
            Ok((shard_partial, part))
        },
    )?;
    let aggregate = placement::aggregate(
        g,
        base,
        &plan.assignment,
        &shards,
        kernel.triangles_in(&partial),
    );

    // ---- Fleet section. ----
    let h2d_sum: u64 = shards.iter().map(|s| s.upload_cycles).sum();
    let d2d_sum: u64 = shards.iter().map(|s| s.exchange_cycles).sum();
    let per_device: Vec<FleetDeviceEntry> = (0..devices.len())
        .map(|d| {
            let shard = shards.iter().find(|s| s.target == d);
            FleetDeviceEntry {
                device: devices[d].name.to_string(),
                lost: lost.contains(&d),
                als: shard.map_or(0, |s| s.als),
                weight: plan.loads[d],
                layout_bytes: shard.map_or(0, |s| s.result.layout_bytes),
                h2d_cycles: shard.map_or(0, |s| s.upload_cycles),
                d2d_cycles: shard.map_or(0, |s| s.exchange_cycles),
                kernel_cycles: shard.map_or(0, |s| s.result.kernel_cycles),
                end_cycles: shard.map_or(0, |s| s.end_cycles),
                triangles: shard.map_or(0, |s| s.result.triangles),
            }
        })
        .collect();
    let section = FleetSection {
        spec: fleet.to_string(),
        devices: devices.len(),
        lost_devices: lost.len(),
        reassigned_als: reassigned,
        links,
        makespan_cycles: aggregate.makespan_cycles,
        compute_cycles: shards.iter().map(|s| s.result.kernel_cycles).sum(),
        h2d_cycles: h2d_sum,
        d2d_cycles: d2d_sum,
        imbalance: aggregate.schedule_imbalance,
        per_device,
    };

    if collector.enabled() {
        collector.add("fleet.devices", devices.len() as u64);
        collector.add("fleet.lost", lost.len() as u64);
        collector.add("fleet.reassigned_als", reassigned as u64);
        collector.add("fleet.h2d_cycles", h2d_sum);
        collector.add("fleet.d2d_cycles", d2d_sum);
        collector.add("fleet.makespan_cycles", aggregate.makespan_cycles);
        collector.gauge("fleet.imbalance", aggregate.schedule_imbalance);
    }
    Ok((aggregate, partial, section))
}

/// The fleet section of a one-device fleet: derived from the verbatim
/// single-device result over the given ALS list (uncontended H2D, no
/// D2D, no loss).
fn single_device_section(
    als: &[Als],
    fleet: &FleetSpec,
    device: &DeviceSpec,
    r: &GpuRunResult,
) -> FleetSection {
    let weight: u64 = als
        .iter()
        .map(|a| u64::try_from(a.size_bits()).unwrap_or(u64::MAX))
        .sum();
    let model = TransferModel::from_spec(device);
    let h2d = seconds_to_cycles(model.transfer_seconds(r.layout_bytes), device.clock_hz);
    let end = h2d + r.kernel_cycles;
    FleetSection {
        spec: fleet.to_string(),
        devices: 1,
        lost_devices: 0,
        reassigned_als: 0,
        links: 1,
        makespan_cycles: end,
        compute_cycles: r.kernel_cycles,
        h2d_cycles: h2d,
        d2d_cycles: 0,
        imbalance: 1.0,
        per_device: vec![FleetDeviceEntry {
            device: device.name.to_string(),
            lost: false,
            als: als.len(),
            weight,
            layout_bytes: r.layout_bytes,
            h2d_cycles: h2d,
            d2d_cycles: 0,
            kernel_cycles: r.kernel_cycles,
            end_cycles: end,
            triangles: r.triangles,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trigon_graph::{gen, triangles};

    fn fleet(spec: &str) -> FleetSpec {
        FleetSpec::parse(spec).unwrap()
    }

    fn count_on(g: &Graph, spec: &str, loss: Option<LossPlan>) -> (GpuRunResult, FleetSection) {
        let base = GpuConfig::optimized(DeviceSpec::c2050());
        run_fleet(
            g,
            &fleet(spec),
            &base,
            loss,
            &mut Collector::disabled(),
            &Tracer::disabled(),
        )
        .unwrap()
    }

    #[test]
    fn fleet_counts_match_serial_across_sizes() {
        let g = gen::gnp(300, 0.05, 3);
        let expect = triangles::count_edge_iterator(&g);
        for spec in [
            "1xC2050",
            "2xC2050",
            "4xC2050",
            "2xC2050,1xC1060",
            "8xC1060",
        ] {
            let (r, section) = count_on(&g, spec, None);
            assert_eq!(r.triangles, expect, "{spec}");
            assert_eq!(
                section
                    .per_device
                    .iter()
                    .fold(0u64, |acc, d| acc.wrapping_add(d.triangles)),
                expect,
                "{spec} partials"
            );
        }
    }

    #[test]
    fn device_loss_reshards_and_keeps_the_count() {
        let g = gen::gnp(250, 0.06, 9);
        let expect = triangles::count_edge_iterator(&g);
        let (r, section) = count_on(&g, "4xC2050", Some(LossPlan::new(2, 11)));
        assert_eq!(r.triangles, expect);
        assert_eq!(section.lost_devices, 2);
        for d in &section.per_device {
            if d.lost {
                assert_eq!(d.als, 0, "lost devices run nothing");
                assert_eq!(d.triangles, 0);
            }
        }
    }

    #[test]
    fn multi_device_shortens_the_outer_makespan() {
        // Strong scaling on a graph with many components: 4 devices must
        // beat 1 on the simulated fleet makespan.
        let g = gen::community_ring(2400, 120, 0.25, 2, 4);
        let (_, one) = count_on(&g, "1xC2050", None);
        let (_, four) = count_on(&g, "4xC2050", None);
        assert!(
            four.makespan_cycles < one.makespan_cycles,
            "4 devices {} !< 1 device {}",
            four.makespan_cycles,
            one.makespan_cycles
        );
        assert!(four.d2d_cycles > 0 || four.h2d_cycles > 0);
    }

    #[test]
    fn fleet_trace_lands_on_per_device_lanes() {
        let g = gen::gnp(220, 0.06, 5);
        let tracer = Tracer::new();
        let base = GpuConfig::optimized(DeviceSpec::c2050());
        run_fleet(
            &g,
            &fleet("2xC2050"),
            &base,
            None,
            &mut Collector::disabled(),
            &tracer,
        )
        .unwrap();
        let spans = tracer.spans();
        let fleet_sm = spans
            .iter()
            .filter(|s| matches!(s.track, Track::DeviceSm(_, _)))
            .count();
        let fleet_pcie = spans
            .iter()
            .filter(|s| matches!(s.track, Track::DevicePcie(_)))
            .count();
        assert!(fleet_sm > 0, "kernel spans on fleet SM lanes");
        assert!(fleet_pcie >= 2, "one H2D span per active device");
        assert!(
            !spans
                .iter()
                .any(|s| matches!(s.track, Track::Sm(_) | Track::Pcie)),
            "no spans may leak onto the single-device lanes"
        );
        // Kernel spans start strictly after their device's H2D upload.
        for s in &spans {
            if let Track::DeviceSm(d, _) = s.track {
                let h2d = spans
                    .iter()
                    .find(|p| p.track == Track::DevicePcie(d) && p.name == "H2D transfer")
                    .expect("H2D span");
                assert!(s.start >= h2d.dur, "kernel before upload finished");
            }
        }
    }
}
