//! Measured wall-clock performance baseline — the `repro perf` command.
//!
//! Unlike the figure reproductions (which report the paper's *modeled*
//! seconds), this module measures real elapsed time of the hot paths on
//! the machine running it:
//!
//! * fig10 / fig11 workloads × counting strategies (`cpu_serial` =
//!   [`trigon_core::count::als_fast`], `cpu_parallel` across a thread
//!   sweep on the persistent pool, and **every parameterless
//!   [`Method`]** — the list is derived from [`Method::ALL`], so a new
//!   backend joins the head-to-head automatically; combination
//!   enumerators are filtered from the fig11 scales they cannot
//!   execute at), with every count checked bit-identical against the
//!   serial one. The combination-vs-intersection race the intersect
//!   backends exist for falls out of the same rows: `cpu` vs
//!   `cpu-intersect` and `gpu-opt` vs `gpu-intersect`, asserted
//!   strictly faster at fig10 n ≥ 1200;
//! * telemetry overhead — the same `Run` at `Level::Off` vs
//!   `Level::Standard`, for fig10 cpu-fast and for fig11 gpu-sampled
//!   (whose Standard run adds the count-free Eq. 6 plan);
//! * pool dispatch cost — nanoseconds per `par_iter` round-trip on a
//!   tiny input, which is pure submit/wake/join overhead;
//! * optional merge of the criterion shim's JSONL emissions (see
//!   `TRIGON_CRITERION_JSON`).
//!
//! Results land in `bench_out/BENCH_perf.json`. A committed baseline
//! (`crates/bench/baselines/perf_baseline.json`) stores the 1-thread
//! fig10 wall-clock *normalized by a fixed calibration loop*, so the
//! regression check compares machine-independent ratios: a >25 % slowdown
//! of the largest fig10 graph relative to the calibration loop fails.

use std::time::Instant;

use rayon::ThreadPool;
use trigon_core::count::{als_fast, als_fast_parallel};
use trigon_core::{Json, Level, Method, Run};
use trigon_graph::Graph;

use crate::suites::{fig10_graph, fig11_graph};

/// Schema version of `BENCH_perf.json`; bump on shape changes.
pub const PERF_SCHEMA_VERSION: u32 = 1;

/// Maximum tolerated normalized slowdown before the regression check
/// fails: current ratio ≤ baseline ratio × (1 + 25 %).
pub const REGRESSION_TOLERANCE: f64 = 0.25;

/// Options for a perf run.
#[derive(Debug, Clone, Default)]
pub struct PerfOptions {
    /// Trim the suites to a seconds-long smoke run (CI).
    pub quick: bool,
    /// Path of a committed baseline to check against (written there if
    /// the file does not exist yet).
    pub baseline: Option<String>,
}

/// One timed strategy sample.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Strategy label: `cpu_serial`, `cpu_parallel`, or a
    /// [`Method::label`] from the derived method sweep.
    pub strategy: &'static str,
    /// Worker-lane count (1 for serial strategies).
    pub threads: usize,
    /// Best-of-reps wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Triangles counted — must equal the serial count.
    pub triangles: u64,
}

/// Outcome of [`run_perf`]: the report plus the regression verdict.
pub struct PerfOutcome {
    /// The full `BENCH_perf.json` document.
    pub report: Json,
    /// `Some(message)` when the baseline check failed.
    pub regression: Option<String>,
}

/// Times `f` `reps` times and returns (best nanoseconds, last output).
fn time_best<T>(reps: u32, mut f: impl FnMut() -> T) -> (u64, T) {
    assert!(reps >= 1);
    let mut best = u64::MAX;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_nanos() as u64);
        out = Some(v);
    }
    (best, out.unwrap())
}

/// Fixed CPU-bound calibration loop (SplitMix64 over 2²² steps). Its
/// wall-clock normalizes the committed baseline so the regression check
/// transfers across machines of different speeds.
#[must_use]
pub fn calibration_ns() -> u64 {
    let (ns, sink) = time_best(3, || {
        // black_box on the seed and the result keeps the otherwise pure
        // loop inside the timed region (LLVM hoists it out of the rep
        // loop without this).
        let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
        let mut acc = 0u64;
        for _ in 0..(1u32 << 22) {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            acc = acc.wrapping_add(z ^ (z >> 31));
        }
        std::hint::black_box(acc)
    });
    std::hint::black_box(sink);
    ns
}

/// The thread counts swept by the parallel strategy: 1, 2, and (when
/// the machine has more) the full width.
#[must_use]
pub fn thread_sweep() -> Vec<usize> {
    let max = rayon::current_num_threads();
    let mut v = vec![1usize, 2];
    if max > 2 {
        v.push(max);
    }
    v.dedup();
    v
}

/// The methods a figure's graphs are swept over, derived from
/// [`Method::ALL`] so newly added variants are raced automatically.
/// `combination_scale` is false for the fig11 sizes, where exhaustive
/// combination enumeration is infeasible and those methods are skipped.
#[must_use]
pub fn sweep_methods(combination_scale: bool) -> Vec<Method> {
    Method::ALL
        .into_iter()
        .filter(|m| combination_scale || !m.enumerates_combinations())
        .collect()
}

/// Times every strategy on one graph: the serial reference, the thread
/// sweep, and one `Run`-builder pass per method in `methods`.
///
/// The ALS decomposition is built once and passed to every method via
/// `prebuilt_als`, so the method sweep times the counting strategies
/// rather than redundantly rebuilding the same decomposition per
/// method. The methods run on the global pool; each sample records its
/// width.
fn measure_graph(g: &Graph, methods: &[Method], reps: u32, sweep: &[usize]) -> Vec<Sample> {
    let mut out = Vec::new();
    let als = std::sync::Arc::new(trigon_core::als::build_als(g));
    let (serial_ns, expect) = time_best(reps, || als_fast(g));
    out.push(Sample {
        strategy: "cpu_serial",
        threads: 1,
        wall_ns: serial_ns,
        triangles: expect,
    });
    for &t in sweep {
        let pool = ThreadPool::new(t);
        let (ns, got) = time_best(reps, || pool.install(|| als_fast_parallel(g)));
        assert_eq!(
            got,
            expect,
            "cpu_parallel({t}) disagrees with als_fast on n={}",
            g.n()
        );
        out.push(Sample {
            strategy: "cpu_parallel",
            threads: t,
            wall_ns: ns,
            triangles: got,
        });
    }
    for &m in methods {
        let (ns, count) = time_best(1, || {
            Run::new(g)
                .method(m)
                .telemetry(Level::Off)
                .prebuilt_als(std::sync::Arc::clone(&als))
                .execute()
                .unwrap_or_else(|e| panic!("{} run: {e}", m.label()))
                .count
        });
        assert_eq!(count, expect, "{} disagrees with als_fast", m.label());
        out.push(Sample {
            strategy: m.label(),
            threads: rayon::current_num_threads(),
            wall_ns: ns,
            triangles: count,
        });
    }
    out
}

/// The measured combination-vs-intersection race on one graph's
/// samples: wall-clock speedups of the intersection backend over its
/// combination counterpart, for the CPU and simulated-GPU pairs.
fn head_to_head(samples: &[Sample]) -> Option<Json> {
    let ns_of = |label: &str| {
        samples
            .iter()
            .find(|s| s.strategy == label)
            .map(|s| s.wall_ns)
    };
    let mut o = Json::object();
    let mut any = false;
    for (key, comb, inter) in [
        ("cpu_speedup", "cpu", "cpu-intersect"),
        ("gpu_speedup", "gpu-opt", "gpu-intersect"),
    ] {
        if let (Some(c), Some(i)) = (ns_of(comb), ns_of(inter)) {
            if i > 0 {
                o.set(key, Json::Float(c as f64 / i as f64));
                any = true;
            }
        }
    }
    any.then_some(o)
}

/// JSON row for one graph: size, strategies, and speedups vs the
/// 1-thread parallel run.
fn graph_json(n: u32, samples: &[Sample]) -> Json {
    let one_thread_ns = samples
        .iter()
        .find(|s| s.strategy == "cpu_parallel" && s.threads == 1)
        .map(|s| s.wall_ns)
        .unwrap_or(0);
    let mut row = Json::object();
    row.set("n", Json::UInt(u64::from(n)));
    row.set("triangles", Json::UInt(samples[0].triangles));
    let mut arr = Vec::new();
    for s in samples {
        let mut o = Json::object();
        o.set("strategy", Json::Str(s.strategy.to_string()));
        o.set("threads", Json::UInt(s.threads as u64));
        o.set("wall_ns", Json::UInt(s.wall_ns));
        if s.strategy == "cpu_parallel" && one_thread_ns > 0 && s.wall_ns > 0 {
            o.set(
                "speedup_vs_1t",
                Json::Float(one_thread_ns as f64 / s.wall_ns as f64),
            );
        }
        arr.push(o);
    }
    row.set("strategies", Json::Array(arr));
    if let Some(h) = head_to_head(samples) {
        row.set("combination_vs_intersection", h);
    }
    row
}

/// Telemetry overhead: identical `method` analyses of `g` at
/// `Level::Off` vs `Level::Standard`, labelled `workload`.
fn telemetry_overhead(g: &Graph, method: Method, workload: &str) -> Json {
    let run_at = |level: Level| {
        time_best(3, || {
            Run::new(g)
                .method(method)
                .telemetry(level)
                .execute()
                .expect("analysis run")
                .count
        })
        .0
    };
    let off_ns = run_at(Level::Off);
    let std_ns = run_at(Level::Standard);
    let mut o = Json::object();
    o.set("workload", Json::Str(workload.to_string()));
    o.set("off_ns", Json::UInt(off_ns));
    o.set("standard_ns", Json::UInt(std_ns));
    if off_ns > 0 {
        o.set(
            "overhead_pct",
            Json::Float(100.0 * (std_ns as f64 - off_ns as f64) / off_ns as f64),
        );
    }
    o
}

/// Pool dispatch cost: a `par_iter().map().sum()` over 64 elements is
/// almost pure submit/wake/join; report ns per call at each width,
/// next to the serial loop doing the same arithmetic.
fn dispatch_cost(sweep: &[usize]) -> Json {
    const CALLS: u32 = 200;
    let data: Vec<u64> = (0..64).collect();
    let serial_expect: u64 = data.iter().map(|x| x * 2 + 1).sum();
    let (serial_ns, _) = time_best(3, || {
        for _ in 0..CALLS {
            let s: u64 = std::hint::black_box(&data).iter().map(|x| x * 2 + 1).sum();
            assert_eq!(s, serial_expect);
        }
    });
    let mut arr = Vec::new();
    let mut o = Json::object();
    o.set("threads", Json::UInt(0));
    o.set("label", Json::Str("serial loop".to_string()));
    o.set("ns_per_call", Json::UInt(serial_ns / u64::from(CALLS)));
    arr.push(o);
    for &t in sweep {
        let pool = ThreadPool::new(t);
        let (ns, _) = time_best(3, || {
            pool.install(|| {
                use rayon::prelude::*;
                for _ in 0..CALLS {
                    let s: u64 = std::hint::black_box(&data)
                        .par_iter()
                        .map(|x| x * 2 + 1)
                        .sum();
                    assert_eq!(s, serial_expect);
                }
            });
        });
        let mut o = Json::object();
        o.set("threads", Json::UInt(t as u64));
        o.set("label", Json::Str(format!("par_iter pool({t})")));
        o.set("ns_per_call", Json::UInt(ns / u64::from(CALLS)));
        arr.push(o);
    }
    Json::Array(arr)
}

/// Reads the criterion shim's JSONL emissions (one object per line) and
/// returns them as a JSON array; `None` when the file is absent.
fn merge_criterion(path: &str) -> Option<Json> {
    let text = std::fs::read_to_string(path).ok()?;
    let rows: Vec<Json> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| Json::parse(l).ok())
        .collect();
    if rows.is_empty() {
        None
    } else {
        Some(Json::Array(rows))
    }
}

/// The fig10 sizes measured at each profile.
fn perf_fig10_sizes(quick: bool) -> Vec<u32> {
    if quick {
        vec![200, 600]
    } else {
        crate::suites::fig10_sizes()
    }
}

/// The fig11 sizes measured at each profile.
fn perf_fig11_sizes(quick: bool) -> Vec<u32> {
    if quick {
        vec![5_000]
    } else {
        vec![5_000, 10_000, 25_000]
    }
}

/// Runs the full perf suite and returns the report plus the baseline
/// verdict. Pure with respect to the filesystem except for reading the
/// criterion JSONL and the baseline file; the caller writes the report.
#[must_use]
pub fn run_perf(opts: &PerfOptions) -> PerfOutcome {
    let sweep = thread_sweep();
    // More reps in quick mode: its graphs are small, so best-of-5 is
    // still fast and shields the CI regression gate from scheduler
    // noise on shared machines.
    let reps = if opts.quick { 5 } else { 3 };
    let calib = calibration_ns();

    let mut report = Json::object();
    report.set("schema_version", Json::UInt(u64::from(PERF_SCHEMA_VERSION)));
    report.set("bench_meta", crate::meta::bench_meta());
    report.set("quick", Json::Bool(opts.quick));
    report.set(
        "threads_available",
        Json::UInt(rayon::current_num_threads() as u64),
    );
    report.set(
        "thread_sweep",
        Json::Array(sweep.iter().map(|&t| Json::UInt(t as u64)).collect()),
    );
    report.set("calibration_ns", Json::UInt(calib));

    let mut fig10_largest = (0u32, 0u64);
    let mut fig10_intersect_ns = 0u64;
    let mut fig10_rows = Vec::new();
    let fig10_methods = sweep_methods(true);
    for n in perf_fig10_sizes(opts.quick) {
        let g = fig10_graph(n);
        let samples = measure_graph(&g, &fig10_methods, reps, &sweep);
        if let Some(s) = samples
            .iter()
            .find(|s| s.strategy == "cpu_parallel" && s.threads == 1)
        {
            fig10_largest = (n, s.wall_ns); // sizes ascend; last wins
        }
        if let Some(s) = samples.iter().find(|s| s.strategy == "cpu-intersect") {
            fig10_intersect_ns = s.wall_ns;
        }
        if n >= 1_200 {
            // The acceptance race: at the largest fig10 scale the
            // intersection backends must beat their combination
            // counterparts outright (the margin is orders of magnitude,
            // so this is a correctness gate, not a flaky timing one).
            let ns_of = |label: &str| {
                samples
                    .iter()
                    .find(|s| s.strategy == label)
                    .map_or(u64::MAX, |s| s.wall_ns)
            };
            assert!(
                ns_of("cpu-intersect") < ns_of("cpu"),
                "cpu-intersect must beat the combination algorithm at n={n}"
            );
            assert!(
                ns_of("gpu-intersect") < ns_of("gpu-opt"),
                "gpu-intersect must beat the combination kernel at n={n}"
            );
        }
        fig10_rows.push(graph_json(n, &samples));
    }
    report.set("fig10", Json::Array(fig10_rows));

    let mut fig11_rows = Vec::new();
    let fig11_methods = sweep_methods(false);
    for n in perf_fig11_sizes(opts.quick) {
        let g = fig11_graph(n);
        let samples = measure_graph(&g, &fig11_methods, reps, &sweep);
        fig11_rows.push(graph_json(n, &samples));
    }
    report.set("fig11", Json::Array(fig11_rows));

    let mut overhead = Json::object();
    overhead.set(
        "telemetry",
        telemetry_overhead(&fig10_graph(600), Method::CpuFast, "fig10 cpu-fast"),
    );
    // gpu-sampled at Standard also runs the Eq. 6 plan, which cpu-fast
    // does not.
    overhead.set(
        "telemetry_gpu_sampled",
        telemetry_overhead(&fig11_graph(5_000), Method::GpuSampled, "fig11 gpu-sampled"),
    );
    overhead.set("pool_dispatch", dispatch_cost(&sweep));
    report.set("overhead", overhead);

    if let Some(rows) = merge_criterion("bench_out/criterion.jsonl") {
        report.set("criterion", rows);
    }

    // Re-measure the calibration loop after the suite and normalize the
    // regression ratio by the slower of the two readings: if the machine
    // picked up external load mid-run the second calibration slows with
    // it, so the gate does not misread machine noise as a code
    // regression (a real regression slows fig10 without touching the
    // calibration loop).
    let calib_after = calibration_ns();
    report.set("calibration_after_ns", Json::UInt(calib_after));
    let regression = opts.baseline.as_deref().and_then(|path| {
        check_baseline(
            path,
            calib.max(calib_after),
            fig10_largest,
            fig10_intersect_ns,
        )
    });
    PerfOutcome { report, regression }
}

/// Compares the normalized 1-thread fig10 wall-clock against the
/// committed baseline; writes the baseline when the file is absent.
/// Returns `Some(message)` on a regression beyond the tolerance.
/// `fig10_intersect_ns` (the `cpu-intersect` wall at the same largest
/// size) is recorded in the baseline as an informational row — the gate
/// itself stays anchored to the combination fast path.
fn check_baseline(
    path: &str,
    calib: u64,
    fig10_largest: (u32, u64),
    fig10_intersect_ns: u64,
) -> Option<String> {
    let (fig10_n, fig10_ns) = fig10_largest;
    if std::env::var("TRIGON_PERF_SKIP_REGRESSION").is_ok() {
        println!("  [baseline check skipped via TRIGON_PERF_SKIP_REGRESSION]");
        return None;
    }
    if calib == 0 || fig10_ns == 0 {
        return None;
    }
    let cur_ratio = fig10_ns as f64 / calib as f64;
    let Ok(text) = std::fs::read_to_string(path) else {
        let mut b = Json::object();
        b.set("schema_version", Json::UInt(u64::from(PERF_SCHEMA_VERSION)));
        b.set("calibration_ns", Json::UInt(calib));
        b.set("fig10_n", Json::UInt(u64::from(fig10_n)));
        b.set("fig10_largest_1t_ns", Json::UInt(fig10_ns));
        b.set("normalized_ratio", Json::Float(cur_ratio));
        if fig10_intersect_ns > 0 {
            b.set("fig10_cpu_intersect_1t_ns", Json::UInt(fig10_intersect_ns));
            b.set(
                "intersect_normalized_ratio",
                Json::Float(fig10_intersect_ns as f64 / calib as f64),
            );
        }
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, b.to_string_pretty()).expect("write baseline");
        println!("  [no baseline at {path}; wrote one — commit it]");
        return None;
    };
    let base = Json::parse(&text).expect("baseline parses");
    let num = |v: Option<&Json>| -> f64 {
        match v {
            Some(Json::UInt(u)) => *u as f64,
            Some(Json::Int(i)) => *i as f64,
            Some(Json::Float(f)) => *f,
            _ => 0.0,
        }
    };
    let base_calib = num(base.get("calibration_ns"));
    let base_ns = num(base.get("fig10_largest_1t_ns"));
    if base_calib <= 0.0 || base_ns <= 0.0 {
        return Some(format!("baseline {path} is malformed"));
    }
    let base_n = num(base.get("fig10_n")) as u32;
    if base_n != fig10_n {
        println!(
            "  [baseline at {path} was taken at fig10 n={base_n}, this run's largest is \
             n={fig10_n}; profiles differ — regression check skipped]"
        );
        return None;
    }
    let base_ratio = base_ns / base_calib;
    let limit = base_ratio * (1.0 + REGRESSION_TOLERANCE);
    println!(
        "  baseline check: normalized fig10 1-thread ratio {cur_ratio:.3} vs baseline {base_ratio:.3} (limit {limit:.3})"
    );
    if cur_ratio > limit {
        Some(format!(
            "perf regression: 1-thread fig10 wall-clock ratio {cur_ratio:.3} exceeds \
             baseline {base_ratio:.3} by more than {:.0} %",
            REGRESSION_TOLERANCE * 100.0
        ))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_perf_report_has_schema() {
        let out = run_perf(&PerfOptions {
            quick: true,
            baseline: None,
        });
        assert!(out.regression.is_none());
        let r = &out.report;
        assert_eq!(
            r.get("schema_version"),
            Some(&Json::UInt(u64::from(PERF_SCHEMA_VERSION)))
        );
        for key in [
            "fig10",
            "fig11",
            "overhead",
            "thread_sweep",
            "calibration_ns",
        ] {
            assert!(r.get(key).is_some(), "missing {key}");
        }
        for key in ["telemetry", "telemetry_gpu_sampled"] {
            let overhead = r.get("overhead").and_then(|o| o.get(key));
            assert!(
                overhead.and_then(|t| t.get("standard_ns")).is_some(),
                "missing overhead.{key}"
            );
        }
        let Some(Json::Array(rows)) = r.get("fig10") else {
            panic!("fig10 not an array")
        };
        assert!(!rows.is_empty());
        // Every row carries a serial strategy and at least two parallel
        // widths, and all strategies agree on the triangle count.
        for row in rows {
            let Some(Json::Array(strats)) = row.get("strategies") else {
                panic!("strategies missing")
            };
            let widths = strats
                .iter()
                .filter(|s| s.get("strategy") == Some(&Json::Str("cpu_parallel".into())))
                .count();
            assert!(widths >= 2, "wanted >= 2 parallel widths, got {widths}");
            // The derived method sweep puts every Method::ALL entry —
            // including the intersection backends — in each fig10 row,
            // labelled with the width of the pool it ran on.
            let width = Json::UInt(rayon::current_num_threads() as u64);
            for m in Method::ALL {
                let sample = strats
                    .iter()
                    .find(|s| s.get("strategy") == Some(&Json::Str(m.label().into())))
                    .unwrap_or_else(|| panic!("method {} missing from the fig10 sweep", m.label()));
                assert_eq!(sample.get("threads"), Some(&width), "{}", m.label());
            }
            assert!(
                row.get("combination_vs_intersection").is_some(),
                "head-to-head section missing"
            );
        }
    }

    #[test]
    fn thread_sweep_starts_at_one() {
        let s = thread_sweep();
        assert_eq!(s[0], 1);
        assert!(s.contains(&2));
    }

    #[test]
    fn baseline_roundtrip_and_regression() {
        let dir = std::env::temp_dir().join("trigon_perf_baseline_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("baseline.json");
        let p = path.to_str().unwrap();
        // First call writes the baseline.
        assert!(check_baseline(p, 1_000, (600, 2_000), 40).is_none());
        assert!(path.exists());
        // Same ratio: fine. 30 % worse: regression. Other profile
        // (different largest n): skipped, not failed.
        assert!(check_baseline(p, 1_000, (600, 2_000), 40).is_none());
        assert!(check_baseline(p, 1_000, (600, 2_600), 40).is_some());
        assert!(check_baseline(p, 1_000, (1_200, 9_000), 40).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
