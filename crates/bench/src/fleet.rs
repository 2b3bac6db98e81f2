//! Strong-scaling sweep of the multi-device fleet path.
//!
//! Runs one fixed workload across homogeneous C2050 fleets of growing
//! size, asserts every point's count is bit-identical to the CPU
//! reference, and reports the outer-makespan scaling curve with the
//! interconnect (H2D, D2D) cycles broken out from compute. `repro
//! fleet` renders the table and writes the document to
//! `bench_out/BENCH_fleet.json`.

use trigon_core::{FleetSpec, Json, Level, Method, Run};
use trigon_graph::{gen, triangles, Graph};

use crate::suites::SEED;

/// Schema version of `BENCH_fleet.json`; bump on shape changes.
pub const FLEET_SCHEMA_VERSION: u32 = 1;

/// Largest fleet the sweep grows to.
pub const FLEET_MAX_DEVICES: usize = 8;

/// One point of the scaling curve.
#[derive(Debug, Clone)]
pub struct FleetPoint {
    /// Device count (homogeneous C2050).
    pub devices: usize,
    /// Rendered fleet spec, e.g. `"4xC2050"`.
    pub spec: String,
    /// Outer fleet makespan (slowest device's H2D + D2D + kernel).
    pub makespan_cycles: u64,
    /// Summed kernel cycles across the fleet.
    pub compute_cycles: u64,
    /// Summed contended host→device upload cycles.
    pub h2d_cycles: u64,
    /// Summed device→device boundary-exchange cycles.
    pub d2d_cycles: u64,
    /// Max / mean device finish time (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// 1-device makespan / this makespan.
    pub speedup: f64,
}

/// Outcome of the sweep: the table rows plus the JSON document.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Exact triangle count (identical at every fleet size).
    pub triangles: u64,
    /// One row per fleet size, 1..=[`FLEET_MAX_DEVICES`].
    pub points: Vec<FleetPoint>,
    /// The full `BENCH_fleet.json` document.
    pub report: Json,
}

/// The sweep workload: a community ring with enough components (and so
/// enough adjacent level sets) that an 8-device fleet has work to
/// spread.
#[must_use]
pub fn fleet_graph() -> Graph {
    gen::community_ring(3000, 150, 0.25, 2, SEED)
}

/// Runs the strong-scaling sweep.
///
/// # Panics
///
/// Panics if any fleet size disagrees with the CPU reference count —
/// the sweep doubles as the determinism gate.
#[must_use]
pub fn run_fleet_scaling() -> FleetOutcome {
    let g = fleet_graph();
    let expect = triangles::count_edge_iterator(&g);
    let mut points = Vec::with_capacity(FLEET_MAX_DEVICES);
    let mut base_makespan = 0u64;
    for d in 1..=FLEET_MAX_DEVICES {
        let spec = format!("{d}xC2050");
        let report = Run::new(&g)
            .method(Method::GpuOptimized)
            .fleet(FleetSpec::parse(&spec).expect("fleet spec"))
            .telemetry(Level::Off)
            .execute()
            .expect("fleet run");
        assert_eq!(
            report.count, expect,
            "{spec}: fleet count diverged from the CPU reference"
        );
        let fl = report.fleet.expect("fleet section");
        if d == 1 {
            base_makespan = fl.makespan_cycles;
        }
        points.push(FleetPoint {
            devices: d,
            spec,
            makespan_cycles: fl.makespan_cycles,
            compute_cycles: fl.compute_cycles,
            h2d_cycles: fl.h2d_cycles,
            d2d_cycles: fl.d2d_cycles,
            imbalance: fl.imbalance,
            speedup: base_makespan as f64 / fl.makespan_cycles.max(1) as f64,
        });
    }
    let report = fleet_json(&g, expect, &points);
    FleetOutcome {
        triangles: expect,
        points,
        report,
    }
}

fn fleet_json(g: &Graph, expect: u64, points: &[FleetPoint]) -> Json {
    let mut doc = Json::object();
    doc.set(
        "schema_version",
        Json::UInt(u64::from(FLEET_SCHEMA_VERSION)),
    );
    doc.set("bench_meta", crate::meta::bench_meta());
    let mut w = Json::object();
    w.set("model", Json::Str("community_ring".to_string()));
    w.set("n", Json::UInt(u64::from(g.n())));
    w.set("m", Json::UInt(g.m() as u64));
    w.set("triangles", Json::UInt(expect));
    doc.set("workload", w);
    doc.set("device", Json::Str("C2050".to_string()));
    let mut arr = Vec::with_capacity(points.len());
    for p in points {
        let mut o = Json::object();
        o.set("devices", Json::UInt(p.devices as u64));
        o.set("spec", Json::Str(p.spec.clone()));
        o.set("makespan_cycles", Json::UInt(p.makespan_cycles));
        o.set("compute_cycles", Json::UInt(p.compute_cycles));
        o.set("h2d_cycles", Json::UInt(p.h2d_cycles));
        o.set("d2d_cycles", Json::UInt(p.d2d_cycles));
        o.set("imbalance", Json::Float(p.imbalance));
        o.set("speedup", Json::Float(p.speedup));
        arr.push(o);
    }
    doc.set("points", Json::Array(arr));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_curve_is_deterministic_and_scales() {
        let a = run_fleet_scaling();
        let b = run_fleet_scaling();
        assert_eq!(
            a.report.to_string_pretty(),
            b.report.to_string_pretty(),
            "the sweep must be bit-reproducible"
        );
        assert_eq!(a.points.len(), FLEET_MAX_DEVICES);
        assert!((a.points[0].speedup - 1.0).abs() < 1e-12);
        let four = &a.points[3];
        assert!(
            four.makespan_cycles < a.points[0].makespan_cycles,
            "4 devices must beat 1"
        );
        assert!(four.d2d_cycles > 0 || four.h2d_cycles > 0);
    }
}
