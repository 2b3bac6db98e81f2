//! Emit hooks: record simulator accounting into a telemetry
//! [`Collector`].
//!
//! The partition and transfer models and the executors built on them
//! each know their own numbers; these helpers give them one shared
//! vocabulary of counter and gauge names so every layer of a pipeline
//! run lands in the same collector. Names are namespaced `gpu.*`,
//! `partition.*`, `xfer.*`.

use crate::partition::PartitionTraffic;
use crate::xfer::TransferModel;
use trigon_telemetry::{AttrValue, Collector, Tracer, Track};

/// Records a partition-traffic histogram: total transactions, distinct
/// partitions touched, the deepest queue, the camping factor (Eq. 10),
/// and one `p{i}` counter per partition so renderers can rebuild the
/// full queue picture from a collector. `prefix` namespaces the entries
/// (e.g. `"kernel"`).
pub fn emit_traffic(c: &mut Collector, prefix: &str, traffic: &PartitionTraffic) {
    if !c.enabled() {
        return;
    }
    c.add(&format!("partition.{prefix}.transactions"), traffic.total());
    c.gauge(
        &format!("partition.{prefix}.distinct"),
        traffic.distinct_partitions() as f64,
    );
    c.gauge(
        &format!("partition.{prefix}.max_queue"),
        traffic.max_queue() as f64,
    );
    if traffic.total() > 0 {
        c.gauge(
            &format!("partition.{prefix}.camping_factor"),
            traffic.camping_factor(),
        );
    }
    for (p, &n) in traffic.counts().iter().enumerate() {
        c.add(&format!("partition.{prefix}.p{p}"), n);
    }
}

/// Records a host↔device transfer: bytes moved and modeled seconds
/// (accumulated into the `xfer` phase).
pub fn emit_transfer(c: &mut Collector, model: &TransferModel, bytes: u64) {
    if !c.enabled() {
        return;
    }
    c.add("xfer.bytes", bytes);
    c.phase_seconds("xfer", model.transfer_seconds(bytes));
}

/// Records a host→device transfer as a span on the tracer's PCIe lane,
/// starting at `start_cycles` on the simulated clock. Returns the end
/// cycle so callers can schedule kernel spans after the data has
/// landed. The span duration is the transfer model's affine cost
/// converted to device cycles at `clock_hz`.
pub fn trace_transfer(
    tracer: &Tracer,
    model: &TransferModel,
    bytes: u64,
    clock_hz: u64,
    start_cycles: u64,
) -> u64 {
    trace_transfer_labeled(tracer, "H2D transfer", model, bytes, clock_hz, start_cycles)
}

/// [`trace_transfer`] with an explicit span label — fault injection uses
/// it to distinguish failed attempts (`"H2D transfer (failed)"`) from
/// the one that lands.
pub fn trace_transfer_labeled(
    tracer: &Tracer,
    label: &str,
    model: &TransferModel,
    bytes: u64,
    clock_hz: u64,
    start_cycles: u64,
) -> u64 {
    let dur_cycles = (model.transfer_seconds(bytes) * clock_hz as f64).ceil() as u64;
    tracer.device_span(
        label,
        "pcie",
        Track::Pcie,
        start_cycles,
        dur_cycles,
        &[
            ("bytes", AttrValue::UInt(bytes)),
            ("bandwidth_Bps", AttrValue::UInt(model.bandwidth)),
            ("latency_s", AttrValue::Float(model.latency_s)),
        ],
    );
    start_cycles + dur_cycles
}

/// Mean-load / makespan utilization of a per-SM cycle vector;
/// 1.0 when empty or perfectly balanced.
#[must_use]
pub fn sm_utilization(per_sm_cycles: &[u64]) -> f64 {
    let max = per_sm_cycles.iter().copied().max().unwrap_or(0);
    if max == 0 || per_sm_cycles.is_empty() {
        return 1.0;
    }
    let mean = per_sm_cycles.iter().sum::<u64>() as f64 / per_sm_cycles.len() as f64;
    mean / max as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;

    #[test]
    fn traffic_emission_names_and_values() {
        let spec = DeviceSpec::c1060();
        let mut t = PartitionTraffic::new(&spec);
        for _ in 0..6 {
            t.record(256);
        }
        t.record(256 + spec.partition_width);
        let mut c = Collector::new();
        emit_traffic(&mut c, "kernel", &t);
        assert_eq!(c.counter("partition.kernel.transactions"), 7);
        assert_eq!(c.gauge_value("partition.kernel.distinct"), Some(2.0));
        assert!(c.gauge_value("partition.kernel.camping_factor").unwrap() > 1.0);
        // Per-partition counters rebuild the queue picture (addr 256
        // with a 256-byte partition width lands in partition 1).
        assert_eq!(c.counter("partition.kernel.p1"), 6);
        assert_eq!(c.counter("partition.kernel.p2"), 1);
    }

    #[test]
    fn trace_transfer_spans_the_pcie_lane() {
        let spec = DeviceSpec::c1060();
        let model = TransferModel::from_spec(&spec);
        let tracer = Tracer::new();
        let end = trace_transfer(&tracer, &model, 1 << 20, spec.clock_hz, 0);
        assert!(end > 0);
        let expect = (model.transfer_seconds(1 << 20) * spec.clock_hz as f64).ceil() as u64;
        assert_eq!(end, expect);
        assert_eq!(tracer.span_count(), 1);
        // Chained transfers start where the previous one ended.
        let end2 = trace_transfer(&tracer, &model, 1 << 20, spec.clock_hz, end);
        assert_eq!(end2, 2 * expect);
    }

    #[test]
    fn transfer_emission_accumulates_phase() {
        let spec = DeviceSpec::c1060();
        let model = TransferModel::from_spec(&spec);
        let mut c = Collector::new();
        emit_transfer(&mut c, &model, 1 << 20);
        emit_transfer(&mut c, &model, 1 << 20);
        assert_eq!(c.counter("xfer.bytes"), 2 << 20);
        let expect = 2.0 * model.transfer_seconds(1 << 20);
        assert!((c.phase_total("xfer") - expect).abs() < 1e-12);
    }

    #[test]
    fn utilization_bounds() {
        assert_eq!(sm_utilization(&[]), 1.0);
        assert_eq!(sm_utilization(&[5, 5, 5]), 1.0);
        let u = sm_utilization(&[10, 0, 0]);
        assert!((u - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_collector_is_untouched() {
        let spec = DeviceSpec::c1060();
        let mut t = PartitionTraffic::new(&spec);
        t.record(0);
        let mut c = Collector::disabled();
        emit_traffic(&mut c, "k", &t);
        emit_transfer(&mut c, &TransferModel::from_spec(&spec), 100);
        assert_eq!(c.counter("partition.k.transactions"), 0);
        assert_eq!(c.counter("xfer.bytes"), 0);
    }
}
