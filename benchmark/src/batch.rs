//! The one-shot workloads: a fixed job of `trigon run FILE --json`
//! processes, run serially and checked against the reference.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::check::{self, Analysis};
use crate::inputs::{Format, Input, Spec, TRUSS_K};
use trigon_core::{ClusterSpec, FleetSpec, Method, Run};
use trigon_gpu_sim::DeviceSpec;
use trigon_telemetry::{Json, Level};

/// `analyze-ring`: one fig11-family graph, `community_ring(n, 250, 0.3,
/// 4, seed)`.
pub const RING_N: u32 = 12000;
/// `simulate-gnp`: graphs per seed and their size, `gnp(n, 16/n, ·)`.
/// Several small graphs average out how much the fleet and cluster
/// makespans of one graph depend on its BFS level structure.
pub const GNP_GRAPHS: u64 = 3;
pub const GNP_N: u32 = 400;

/// Where an entry's simulated kernel runs.
#[derive(Debug, Clone, Copy)]
pub enum Placement {
    Device,
    Fleet(&'static str),
    Cluster(&'static str),
}

/// One analysis of the job.
#[derive(Debug, Clone)]
pub struct Entry {
    pub input: usize,
    pub method: &'static str,
    pub analysis: Analysis,
    pub placement: Placement,
}

impl Entry {
    pub fn new(input: usize, method: &'static str, analysis: Analysis) -> Self {
        Self {
            input,
            method,
            analysis,
            placement: Placement::Device,
        }
    }

    /// Short name, e.g. `ring/gpu-opt+4xC2050/triangles`.
    pub fn label(&self, inputs: &[Input]) -> String {
        let place = match self.placement {
            Placement::Device => String::new(),
            Placement::Fleet(s) => format!("+devices:{s}"),
            Placement::Cluster(s) => format!("+cluster:{s}"),
        };
        format!(
            "{}/{}{place}/{}",
            inputs[self.input].spec.name,
            self.method,
            self.analysis.label()
        )
    }

    /// The `trigon run` arguments (device: the CLI default, C1060).
    pub fn cli_args(&self, input: &Input) -> Vec<String> {
        let mut a: Vec<String> = vec![
            "run".into(),
            input.path.display().to_string(),
            "--method".into(),
            self.method.into(),
            "--workload".into(),
            self.analysis.label().into(),
        ];
        if self.analysis == Analysis::KTruss {
            a.extend(["--k".into(), TRUSS_K.to_string()]);
        }
        match self.placement {
            Placement::Device => {}
            Placement::Fleet(s) => a.extend(["--devices".into(), s.into()]),
            Placement::Cluster(s) => a.extend(["--cluster".into(), s.into()]),
        }
        a.push("--json".into());
        a
    }

    /// The same analysis through the library's `Run` builder.
    pub fn run<'g>(&self, g: &'g trigon_graph::Graph, level: Level) -> Run<'g> {
        let mut run = Run::new(g)
            .method(Method::parse(self.method).expect("job methods parse"))
            .workload(self.analysis.workload())
            .device(DeviceSpec::c1060())
            .telemetry(level);
        match self.placement {
            Placement::Device => {}
            Placement::Fleet(s) => run = run.fleet(FleetSpec::parse(s).expect("fleet spec")),
            Placement::Cluster(s) => {
                run = run.cluster(ClusterSpec::parse(s).expect("cluster spec"));
            }
        }
        run
    }
}

/// The inputs of a batch workload for `seed`.
pub fn specs(workload: &str, seed: u64) -> Vec<Spec> {
    match workload {
        "analyze-ring" => vec![Spec {
            name: "ring".into(),
            model: "ring",
            n: RING_N,
            seed,
            format: Format::Edges,
        }],
        _ => (0..GNP_GRAPHS)
            .map(|i| Spec {
                name: format!("gnp{i}"),
                model: "gnp",
                n: GNP_N,
                seed: seed * GNP_GRAPHS + i,
                format: Format::Edges,
            })
            .collect(),
    }
}

/// The fixed job of a batch workload over its inputs.
pub fn job(workload: &str, inputs: &[Input]) -> Vec<Entry> {
    use Analysis::{Clustering, KTruss, Triangles};
    match workload {
        "analyze-ring" => vec![
            Entry::new(0, "cpu-fast", Triangles),
            Entry::new(0, "cpu-intersect", Triangles),
            Entry::new(0, "gpu-sampled", Triangles),
            Entry::new(0, "gpu-intersect", Triangles),
            Entry::new(0, "hybrid", Triangles),
            Entry::new(0, "cpu-fast", Clustering),
            Entry::new(0, "cpu-fast", KTruss),
        ],
        _ => (0..inputs.len())
            .flat_map(|i| {
                [
                    Entry::new(i, "gpu-opt", Triangles),
                    Entry::new(i, "gpu-naive", Triangles),
                    Entry::new(i, "gpu-intersect", Triangles),
                    Entry {
                        placement: Placement::Fleet("4xC2050"),
                        ..Entry::new(i, "gpu-opt", Triangles)
                    },
                    Entry {
                        placement: Placement::Cluster("4xC2050"),
                        ..Entry::new(i, "gpu-opt", Triangles)
                    },
                ]
            })
            .collect(),
    }
}

/// Runs one entry as a `trigon run` process and parses its report.
pub fn spawn_run(bin: &Path, entry: &Entry, input: &Input) -> Result<Json, String> {
    let out = Command::new(bin)
        .args(entry.cli_args(input))
        .output()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "exit {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
    Json::parse(text.trim()).map_err(|e| format!("report is not JSON: {e}"))
}

/// The outcome of one pass over the job.
#[derive(Debug, Default)]
pub struct JobResult {
    pub wall_s: f64,
    pub modeled_s: f64,
    pub latencies_s: Vec<f64>,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Runs every entry once, in order, through `exec`, checking each report
/// against its input's reference. A nonzero exit, an error, or a wrong
/// answer is a failed operation.
pub fn run_job(
    entries: &[Entry],
    inputs: &[Input],
    mut exec: impl FnMut(&Entry, &Input) -> Result<Json, String>,
) -> JobResult {
    let mut r = JobResult::default();
    let t0 = Instant::now();
    for e in entries {
        let input = &inputs[e.input];
        let t = Instant::now();
        let outcome = exec(e, input).and_then(|report| {
            check::check(&report, e.analysis, &input.reference)?;
            check::modeled_s(&report).ok_or_else(|| "report without timing.modeled_s".into())
        });
        r.latencies_s.push(t.elapsed().as_secs_f64());
        match outcome {
            Ok(m) => r.modeled_s += m,
            Err(err) => {
                r.failed += 1;
                r.errors.push(format!("{}: {err}", e.label(inputs)));
            }
        }
    }
    r.wall_s = t0.elapsed().as_secs_f64();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{self, Reference};

    fn ring_inputs(dir: &Path) -> Vec<Input> {
        let specs = vec![Spec {
            name: "ring".into(),
            model: "ring",
            n: 750,
            seed: 5,
            format: Format::Edges,
        }];
        let paths: Vec<_> = specs
            .iter()
            .map(|s| inputs::write(s, dir).unwrap())
            .collect();
        inputs::load(&specs, &paths).unwrap()
    }

    fn in_process(e: &Entry, input: &Input) -> Result<Json, String> {
        let g = inputs::read(&input.path)?;
        let report = e
            .run(&g, Level::Standard)
            .execute()
            .map_err(|e| e.to_string())?;
        Ok(report.to_json())
    }

    #[test]
    fn job_passes_against_its_reference_and_fails_against_a_wrong_one() {
        let dir = std::env::temp_dir().join(format!("trigon-benchmark-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut inputs = ring_inputs(&dir);
        let entries = job("analyze-ring", &inputs);
        let good = run_job(&entries, &inputs, in_process);
        assert_eq!(good.failed, 0, "{:?}", good.errors);
        assert!(good.modeled_s > 0.0);

        // A deliberately wrong expected value: every entry is reported.
        inputs[0].reference = Reference {
            triangles: inputs[0].reference.triangles + 1,
            truss_kept: inputs[0].reference.truss_kept + 1,
            ..inputs[0].reference.clone()
        };
        let bad = run_job(&entries, &inputs, in_process);
        assert_eq!(bad.failed, entries.len() as u64, "{:?}", bad.errors);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
