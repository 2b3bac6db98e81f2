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
//! [`gpu_exec`] run, untouched.
//!
//! A fleet of **one** device with no device loss delegates verbatim to
//! [`gpu_exec::run_workload_traced_with_als`] on the caller's tracer —
//! the trace and the report (minus the `fleet` section) are
//! byte-identical to a plain single-device run by construction. With
//! two or more devices each shard runs against a private sub-tracer;
//! its SM spans are harvested onto per-device [`Track::DeviceSm`]
//! lanes, shifted past the contended H2D upload and the D2D boundary
//! exchange, and its histograms are merged into the fleet trace.

use crate::als::{build_als, Als};
use crate::gpu_exec::{self, GpuConfig, GpuError, GpuRunResult};
use crate::report::{FleetDeviceEntry, FleetSection};
use crate::workload::{ChunkKernel, CountKernel};
use trigon_fleet::{
    plan_shards, reassign_lost, seconds_to_cycles, FleetSpec, Interconnect, LossPlan, ShardJob,
};
use trigon_gpu_sim::{DeviceSpec, ProfileData, TransferModel};
use trigon_graph::Graph;
use trigon_telemetry::{AttrValue, Collector, Level, Tracer, Track};

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
    let mut reassigned = 0;
    if !lost.is_empty() {
        for &d in &lost {
            tracer.instant_at("fleet.device_lost", Track::DevicePcie(d as u32), 0);
        }
        reassigned = reassign_lost(&mut plan, &jobs, &lost);
    }

    let alive: Vec<bool> = (0..devices.len()).map(|d| !lost.contains(&d)).collect();
    let active: Vec<usize> = (0..devices.len())
        .filter(|&d| alive[d] && plan.assignment.contains(&d))
        .collect();
    let links = active.len().max(1);

    // ---- D2D boundary exchange: consecutive ALS of one component share
    // a BFS level; when they land on different devices the downstream
    // device receives the shared level's S-UTM adjacency. ----
    let mut d2d_cycles_in = vec![0u64; devices.len()];
    let mut d2d_bytes_in = vec![0u64; devices.len()];
    for j in 1..als.len() {
        if als[j].component != als[j - 1].component {
            continue;
        }
        let (src, dst) = (plan.assignment[j - 1], plan.assignment[j]);
        if src == dst {
            continue;
        }
        let shared = u64::from(als[j].a());
        let bytes = shared * shared.saturating_sub(1) / 2 / 8 + 1;
        let sm = TransferModel::from_spec(&devices[src]);
        let dm = TransferModel::from_spec(&devices[dst]);
        d2d_cycles_in[dst] += Interconnect::d2d_cycles(&sm, &dm, bytes, devices[dst].clock_hz);
        d2d_bytes_in[dst] += bytes;
    }

    // ---- Run each shard; harvest its trace onto fleet lanes. ----
    struct Shard {
        device: usize,
        als: usize,
        weight: u64,
        result: GpuRunResult,
        h2d_cycles: u64,
        d2d_cycles: u64,
        end_cycles: u64,
    }
    let dispatch_guard = collector.phase("dispatch");
    let dispatch_span = tracer.span("dispatch", "phase");
    let mut shards: Vec<Shard> = Vec::with_capacity(active.len());
    let mut partials: Vec<K::Partial> = Vec::with_capacity(active.len());
    for &d in &active {
        let shard_als: Vec<Als> = als
            .iter()
            .enumerate()
            .filter(|&(j, _)| plan.assignment[j] == d)
            .map(|(_, a)| a.clone())
            .collect();
        let mut dcfg = base.clone();
        dcfg.device = devices[d].clone();
        dcfg.faults = None;
        let sub = if tracer.enabled() {
            Tracer::with_clock(Level::Trace, tracer.clock())
        } else {
            Tracer::disabled()
        };
        let (r, shard_partial) = gpu_exec::run_workload_traced_with_als(
            g,
            &shard_als,
            &dcfg,
            kernel,
            &mut Collector::disabled(),
            &sub,
        )?;
        partials.push(shard_partial);

        let model = TransferModel::from_spec(&devices[d]);
        let clock = devices[d].clock_hz;
        // The sub-run priced its own (uncontended) upload and started its
        // kernel right after it; re-derive that end with the exact `ceil`
        // formula of `trigon_gpu_sim::emit` so the shift is gap-free.
        let internal_end = seconds_to_cycles(model.transfer_seconds(r.layout_bytes), clock);
        let h2d = Interconnect::h2d_cycles(&model, r.layout_bytes, links, clock);
        let d2d = d2d_cycles_in[d];
        let shift = h2d + d2d - internal_end;
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
            harvest_shard_trace(tracer, &sub, du, shift);
        }
        let end_cycles = h2d + d2d + r.kernel_cycles;
        shards.push(Shard {
            device: d,
            als: shard_als.len(),
            weight: plan.loads[d],
            result: r,
            h2d_cycles: h2d,
            d2d_cycles: d2d,
            end_cycles,
        });
    }
    drop(dispatch_span);
    drop(dispatch_guard);

    // ---- Deterministic reduction, canonical device-index order.
    // `partials` was pushed in ascending `active` order, so the fold
    // visits shards in device-index order regardless of workload. ----
    let partial = partials
        .into_iter()
        .fold(kernel.identity(), |acc, p| kernel.merge(acc, p));
    let triangles = kernel.triangles_in(&partial);
    let tests: u128 = shards.iter().map(|s| s.result.tests).sum();

    // ---- Fleet section + aggregate result. ----
    let makespan_cycles = shards.iter().map(|s| s.end_cycles).max().unwrap_or(0);
    let h2d_sum: u64 = shards.iter().map(|s| s.h2d_cycles).sum();
    let d2d_sum: u64 = shards.iter().map(|s| s.d2d_cycles).sum();
    let compute_sum: u64 = shards.iter().map(|s| s.result.kernel_cycles).sum();
    let mean_end = if shards.is_empty() {
        0.0
    } else {
        shards.iter().map(|s| s.end_cycles as f64).sum::<f64>() / shards.len() as f64
    };
    let imbalance = if mean_end > 0.0 {
        makespan_cycles as f64 / mean_end
    } else {
        1.0
    };
    let per_device: Vec<FleetDeviceEntry> = (0..devices.len())
        .map(|d| {
            let shard = shards.iter().find(|s| s.device == d);
            FleetDeviceEntry {
                device: devices[d].name.to_string(),
                lost: lost.contains(&d),
                als: shard.map_or(0, |s| s.als),
                weight: shard.map_or(0, |s| s.weight),
                layout_bytes: shard.map_or(0, |s| s.result.layout_bytes),
                h2d_cycles: shard.map_or(0, |s| s.h2d_cycles),
                d2d_cycles: shard.map_or(0, |s| s.d2d_cycles),
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
        makespan_cycles,
        compute_cycles: compute_sum,
        h2d_cycles: h2d_sum,
        d2d_cycles: d2d_sum,
        imbalance,
        per_device,
    };

    if collector.enabled() {
        collector.add("fleet.devices", devices.len() as u64);
        collector.add("fleet.lost", lost.len() as u64);
        collector.add("fleet.reassigned_als", reassigned as u64);
        collector.add("fleet.h2d_cycles", h2d_sum);
        collector.add("fleet.d2d_cycles", d2d_sum);
        collector.add("fleet.makespan_cycles", makespan_cycles);
        collector.gauge("fleet.imbalance", imbalance);
    }

    let kernel_weight: u64 = compute_sum.max(1);
    let camping_factor = if compute_sum > 0 {
        shards
            .iter()
            .map(|s| s.result.camping_factor * s.result.kernel_cycles as f64)
            .sum::<f64>()
            / kernel_weight as f64
    } else {
        1.0
    };
    let sm_utilization = if compute_sum > 0 {
        shards
            .iter()
            .map(|s| s.result.sm_utilization * s.result.kernel_cycles as f64)
            .sum::<f64>()
            / kernel_weight as f64
    } else {
        1.0
    };
    let kernel_cycles = shards
        .iter()
        .map(|s| s.result.kernel_cycles)
        .max()
        .unwrap_or(0);
    let kernel_s = shards
        .iter()
        .map(|s| s.result.kernel_s)
        .fold(0.0f64, f64::max);
    // The fleet's transfer critical path: slowest device's contended
    // upload plus its boundary exchange, in its own clock domain.
    let transfer_s = shards
        .iter()
        .map(|s| devices[s.device].cycles_to_seconds(s.h2d_cycles + s.d2d_cycles))
        .fold(0.0f64, f64::max);
    let host_s = base.cost.host_prep_seconds(g.n(), g.m());
    let context_s = base.cost.gpu_context_init_s;

    // ---- Aggregate profile. Shard-local ALS attribution remaps to
    // global ALS indices through the same `plan.assignment` filter
    // order that built each `shard_als`; per-SM counters merge
    // index-wise; per-device entries concatenate in ascending device
    // order (each shard run pushed exactly one). Counters were priced
    // before dispatch, so this aggregate is bit-identical to the
    // single-device profile of the same plan regardless of loss. ----
    let n_sm = shards
        .iter()
        .map(|s| s.result.profile.per_sm.len())
        .max()
        .unwrap_or(0);
    let mut profile = ProfileData::new(als.len(), n_sm);
    for s in &shards {
        let globals: Vec<usize> = (0..als.len())
            .filter(|&j| plan.assignment[j] == s.device)
            .collect();
        for (local, c) in s.result.profile.per_als.iter().enumerate() {
            if let Some(&gj) = globals.get(local) {
                profile.record_als(gj, c);
            }
        }
        for (i, c) in s.result.profile.per_sm.iter().enumerate() {
            profile.per_sm[i].merge(c);
        }
        profile
            .devices
            .extend(s.result.profile.devices.iter().cloned());
    }

    let aggregate = GpuRunResult {
        triangles,
        tests,
        transactions: shards.iter().map(|s| s.result.transactions).sum(),
        camping_factor,
        kernel_cycles,
        kernel_s,
        transfer_s,
        host_s,
        context_s,
        total_s: kernel_s + transfer_s + host_s + context_s,
        blocks: shards.iter().map(|s| s.result.blocks).sum(),
        layout_bytes: shards.iter().map(|s| s.result.layout_bytes).sum(),
        schedule_imbalance: imbalance,
        makespan_cycles,
        sm_utilization,
        faults: None,
        profile,
    };
    Ok((aggregate, partial, section))
}

/// Re-emits a shard sub-trace onto fleet device `d`'s lanes: SM spans,
/// instants, and counter samples shift by `shift` cycles (past the
/// contended upload and boundary exchange); the sub-run's host phases
/// and uncontended PCIe span are dropped — the fleet path emits its
/// own; histograms merge.
fn harvest_shard_trace(tracer: &Tracer, sub: &Tracer, d: u32, shift: u64) {
    for s in sub.spans() {
        if let Track::Sm(i) = s.track {
            let args: Vec<(&str, AttrValue)> = s
                .args
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .collect();
            tracer.device_span(
                &s.name,
                &s.cat,
                Track::DeviceSm(d, i),
                s.start + shift,
                s.dur,
                &args,
            );
        }
    }
    for i in sub.instants() {
        match i.track {
            Track::Sm(m) => tracer.instant_at(&i.name, Track::DeviceSm(d, m), i.at + shift),
            Track::Pcie => tracer.instant_at(&i.name, Track::DevicePcie(d), i.at + shift),
            _ => {}
        }
    }
    for c in sub.counters() {
        if let Track::Sm(m) = c.track {
            tracer.counter(&c.name, Track::DeviceSm(d, m), c.at + shift, c.value);
        }
    }
    tracer.absorb_histograms(sub);
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
