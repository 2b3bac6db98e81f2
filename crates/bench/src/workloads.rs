//! Cross-workload sweep of the [`ChunkKernel`] API.
//!
//! Runs every workload (triangles, k-clique count, clustering +
//! transitivity, k-truss, enumeration) over the fig10-scale evaluation
//! graphs on both the CPU and the simulated-GPU executors, asserts the
//! two agree bit-for-bit at every point, and reports the modeled
//! seconds plus each workload's headline result. `repro workloads`
//! renders the table and writes the document to
//! `bench_out/BENCH_workloads.json`.
//!
//! [`ChunkKernel`]: trigon_core::ChunkKernel

use std::sync::Arc;

use trigon_core::als::Als;
use trigon_core::{Json, Level, Method, Run, RunReport, Workload, WorkloadSection};
use trigon_graph::Graph;

use crate::suites::fig10_graph;

/// Schema version of `BENCH_workloads.json`; bump on shape changes.
pub const WORKLOADS_SCHEMA_VERSION: u32 = 1;

/// The graph sizes the sweep covers (a subset of the fig10 ladder —
/// every workload runs 2x per size, so keep the tail short).
#[must_use]
pub fn workloads_sizes() -> Vec<u32> {
    vec![400, 800, 1200]
}

/// The (smaller) sizes the k-clique workload covers. Its combination
/// space is C(window, 4) — roughly n^4 — so the linear-workload ladder
/// above would run for hours; these keep the sweep under a minute.
#[must_use]
pub fn kcount_sizes() -> Vec<u32> {
    vec![120, 160, 200]
}

/// One (workload, n) cell of the sweep.
#[derive(Debug, Clone)]
pub struct WorkloadPoint {
    /// Canonical workload label (`triangles`, `kcount`, ...).
    pub workload: String,
    /// Graph size.
    pub n: u32,
    /// The headline count (triangles, cliques, or surviving edges).
    pub count: u64,
    /// CPU executor's modeled seconds.
    pub cpu_s: f64,
    /// Simulated-GPU executor's modeled seconds.
    pub gpu_s: f64,
    /// The full workload section of the GPU run.
    pub section: WorkloadSection,
}

/// Outcome of the sweep: the table rows plus the JSON document.
#[derive(Debug, Clone)]
pub struct WorkloadsOutcome {
    /// One row per (workload, size).
    pub points: Vec<WorkloadPoint>,
    /// The full `BENCH_workloads.json` document.
    pub report: Json,
}

fn run(g: &Graph, als: Option<&Arc<Vec<Als>>>, w: Workload, m: Method) -> RunReport {
    let mut a = Run::new(g).workload(w).method(m).telemetry(Level::Off);
    if let Some(als) = als {
        a = a.prebuilt_als(Arc::clone(als));
    }
    a.execute().expect("workload run")
}

/// Runs the cross-workload sweep.
///
/// # Panics
///
/// Panics if any workload's CPU and GPU executors disagree — the sweep
/// doubles as the kernel-API determinism gate.
#[must_use]
pub fn run_workloads() -> WorkloadsOutcome {
    run_workloads_on(&workloads_sizes(), &kcount_sizes())
}

/// [`run_workloads`] over explicit size ladders — the linear workloads
/// (triangles, clustering, k-truss, enumeration) run on `sizes`, the
/// k-clique count on `kcount_sizes`.
#[must_use]
pub fn run_workloads_on(sizes: &[u32], kcount_sizes: &[u32]) -> WorkloadsOutcome {
    let linear = [
        Workload::Triangles,
        Workload::Clustering,
        Workload::KTruss(4),
        Workload::Enumerate,
    ];
    let mut points = Vec::new();
    for &n in sizes {
        let g = fig10_graph(n);
        // One ALS decomposition serves every workload and both
        // executors at this size — rebuilding it per cell was pure
        // duplicated work (the decomposition depends only on the graph).
        let als = Arc::new(trigon_core::als::build_als(&g));
        for w in linear {
            points.push(sweep_point(
                &g,
                Some(&als),
                n,
                w,
                Method::CpuFast,
                Method::GpuOptimized,
            ));
        }
    }
    for &n in kcount_sizes {
        let g = fig10_graph(n);
        // The k-clique workload runs only on the widened simulated
        // device (it builds its own decomposition); time its two GPU
        // layouts instead of CPU-vs-GPU.
        points.push(sweep_point(
            &g,
            None,
            n,
            Workload::KCliques(4),
            Method::GpuNaive,
            Method::GpuOptimized,
        ));
    }
    let report = workloads_json(&points);
    WorkloadsOutcome { points, report }
}

fn sweep_point(
    g: &Graph,
    als: Option<&Arc<Vec<Als>>>,
    n: u32,
    w: Workload,
    cpu_m: Method,
    gpu_m: Method,
) -> WorkloadPoint {
    let cpu = run(g, als, w, cpu_m);
    let gpu = run(g, als, w, gpu_m);
    assert_eq!(
        cpu.count,
        gpu.count,
        "{} at n={n}: executors disagree on the count",
        w.label()
    );
    assert_eq!(
        cpu.workload,
        gpu.workload,
        "{} at n={n}: executors disagree on the workload section",
        w.label()
    );
    WorkloadPoint {
        workload: w.label().to_string(),
        n,
        count: gpu.count,
        cpu_s: cpu.modeled_s,
        gpu_s: gpu.modeled_s,
        section: gpu.workload,
    }
}

fn workloads_json(points: &[WorkloadPoint]) -> Json {
    let mut doc = Json::object();
    doc.set(
        "schema_version",
        Json::UInt(u64::from(WORKLOADS_SCHEMA_VERSION)),
    );
    doc.set("bench_meta", crate::meta::bench_meta());
    doc.set("suite", Json::Str("fig10".to_string()));
    let mut arr = Vec::with_capacity(points.len());
    for p in points {
        let mut o = Json::object();
        o.set("workload", Json::Str(p.workload.clone()));
        o.set("n", Json::UInt(u64::from(p.n)));
        o.set("count", Json::UInt(p.count));
        o.set("cpu_s", Json::Float(p.cpu_s));
        o.set("gpu_s", Json::Float(p.gpu_s));
        match &p.section {
            WorkloadSection::Clustering {
                mean_clustering,
                transitivity,
                ..
            } => {
                o.set("mean_clustering", Json::Float(*mean_clustering));
                o.set("transitivity", Json::Float(*transitivity));
            }
            WorkloadSection::KTruss {
                edges_kept,
                edges_peeled,
                ..
            } => {
                o.set("edges_kept", Json::UInt(*edges_kept));
                o.set("edges_peeled", Json::UInt(*edges_peeled));
            }
            WorkloadSection::Enumerate { checksum, .. } => {
                o.set("checksum", Json::UInt(*checksum));
            }
            WorkloadSection::Triangles | WorkloadSection::KCount { .. } => {}
        }
        arr.push(o);
    }
    doc.set("points", Json::Array(arr));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_covers_every_workload() {
        // A scaled-down ladder: the full one is release-bench material,
        // and the shape/determinism guarantees are size-independent.
        let a = run_workloads_on(&[150], &[100]);
        let b = run_workloads_on(&[150], &[100]);
        assert_eq!(
            a.report.to_string_pretty(),
            b.report.to_string_pretty(),
            "the sweep must be bit-reproducible"
        );
        assert_eq!(a.points.len(), 5);
        let labels: Vec<&str> = a.points.iter().map(|p| p.workload.as_str()).collect();
        for want in ["triangles", "clustering", "ktruss", "enumerate", "kcount"] {
            assert!(labels.contains(&want), "sweep must cover {want}");
        }
        let tri = a
            .points
            .iter()
            .find(|p| p.workload == "triangles" && p.n == 150)
            .unwrap();
        let en = a
            .points
            .iter()
            .find(|p| p.workload == "enumerate" && p.n == 150)
            .unwrap();
        assert_eq!(tri.count, en.count, "enumeration must list every triangle");
    }
}
