//! The trigon benchmark: see `benchmark/README.md`.
//!
//! ```text
//! trigon-benchmark --workload analyze-ring|simulate-gnp|serve-mixed
//!                  --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the shipped front ends (`trigon run`, `trigon
//! serve`) and prints the end-to-end metrics; `--trace 1` replays the
//! workload in-process with spans around every layer call and prints the
//! per-layer metrics. The last stdout line is the result object.

mod batch;
mod check;
mod inputs;
mod loadgen;
mod serve;
mod stats;
mod sys;
mod traced;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::RwLock;
use std::time::Instant;

use inputs::{Input, Spec};
use stats::{median, quantile};
use trigon_graph::Xoshiro256pp;
use trigon_telemetry::Json;

/// Set-ups per run; `setup_s` is their median. A batch set-up takes well
/// under a second, a daemon set-up a few seconds.
const BATCH_SETUP_REPS: usize = 5;
const SERVE_SETUP_REPS: usize = 3;
/// Fewest jobs a batch run measures, whatever `--seconds` says.
const MIN_JOBS: usize = 3;
/// Share of `--seconds` that `serve-mixed` spends in its open loop.
const PHASE_A_SHARE: f64 = 0.8;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Problems that are not failed operations (e.g. a modeled time that
    /// did not repeat); any makes the run incorrect.
    pub problems: Vec<String>,
    /// Operation failures, for the log.
    pub errors: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Free-form detail printed before the result line.
    pub detail: Json,
}

impl Default for Outcome {
    fn default() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            errors: Vec::new(),
            metrics: Vec::new(),
            detail: Json::object(),
        }
    }
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }
}

/// Paths and settings shared by every pass.
pub struct Ctx {
    pub args: Args,
    pub bin: PathBuf,
    pub dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !["analyze-ring", "simulate-gnp", "serve-mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} expects an unsigned integer"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace expects 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("trigon-benchmark: {e}");
            eprintln!(
                "usage: trigon-benchmark --workload analyze-ring|simulate-gnp|serve-mixed \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    // Load never exceeds the host: a run that would use more client
    // connections than cores is invalid and reports nothing.
    if serve::CONNECTIONS > sys::nproc() {
        eprintln!(
            "trigon-benchmark: invalid run: {} client connections exceed nproc = {}",
            serve::CONNECTIONS,
            sys::nproc()
        );
        std::process::exit(3);
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let bin = target.join("release").join("trigon");
    if !bin.is_file() {
        eprintln!(
            "trigon-benchmark: {} not found; run through benchmark/run.sh",
            bin.display()
        );
        std::process::exit(2);
    }
    let dir = PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, args.seed));
    let ctx = Ctx { args, bin, dir };
    let result = match (ctx.args.workload.as_str(), ctx.args.trace) {
        (_, true) => traced::run(&ctx),
        ("serve-mixed", false) => serve_untraced(&ctx),
        (_, false) => batch_untraced(&ctx),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("trigon-benchmark: {e}");
            std::process::exit(1);
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    report(&ctx, &outcome);
}

/// Prints provenance, detail, errors, and the result line.
fn report(ctx: &Ctx, o: &Outcome) {
    let prov = sys::provenance(
        ctx.args.seed,
        &ctx.args.workload,
        serve::CONNECTIONS,
        &[
            ("trace", Json::from(ctx.args.trace)),
            ("seconds", Json::from(ctx.args.seconds)),
            ("arrival_rate_qps", Json::from(serve::RATE_QPS)),
            ("p99_limit_ms", Json::from(serve::P99_LIMIT_MS)),
        ],
    );
    println!("provenance {}", prov.to_string_compact());
    println!("detail {}", o.detail.to_string_compact());
    for e in o.errors.iter().chain(&o.problems).take(20) {
        println!("error {e}");
    }
    let mut metrics = Json::object();
    for (name, value, unit) in &o.metrics {
        let mut m = Json::object();
        // A failed request is beyond any limit; JSON has no infinity.
        let v = if value.is_finite() { *value } else { 1e12 };
        m.set("value", Json::Float(v));
        m.set("unit", Json::from(*unit));
        metrics.set(name, m);
    }
    let mut out = Json::object();
    out.set(
        "correct",
        Json::from(o.failed == 0 && o.problems.is_empty()),
    );
    out.set("attempted", Json::from(o.attempted.max(1)));
    out.set("failed", Json::from(o.failed));
    out.set("metrics", metrics);
    println!("{}", out.to_string_compact());
}

/// Empties (or creates) the run's work directory.
pub fn reset_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// Writes every spec into the work directory.
pub fn write_all(specs: &[Spec], dir: &Path) -> Result<Vec<PathBuf>, String> {
    specs
        .iter()
        .map(|s| inputs::write(s, dir).map_err(|e| format!("write {}: {e}", s.name)))
        .collect()
}

/// Generates the inputs once and computes their references (not timed),
/// printing one line per input.
pub fn prepare(specs: &[Spec], dir: &Path) -> Result<Vec<Input>, String> {
    reset_dir(dir)?;
    let paths = write_all(specs, dir)?;
    let inputs = inputs::load(specs, &paths)?;
    for i in &inputs {
        println!("{}", i.describe());
    }
    Ok(inputs)
}

fn batch_untraced(ctx: &Ctx) -> Result<Outcome, String> {
    let wl = ctx.args.workload.as_str();
    let specs = batch::specs(wl, ctx.args.seed);
    let inputs = prepare(&specs, &ctx.dir)?;
    // Set-up: write the inputs and warm up one ingest per file.
    let mut setups = Vec::new();
    for _ in 0..BATCH_SETUP_REPS {
        let t = Instant::now();
        for path in write_all(&specs, &ctx.dir)? {
            let st = Command::new(&ctx.bin)
                .args(["run", &path.display().to_string(), "--method", "cpu-fast"])
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("spawn {}: {e}", ctx.bin.display()))?;
            if !st.success() {
                return Err(format!("warm-up run on {} failed: {st}", path.display()));
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    let entries = batch::job(wl, &inputs);
    let mut jobs = Vec::new();
    let t0 = Instant::now();
    loop {
        let walls: Vec<f64> = jobs.iter().map(|j: &batch::JobResult| j.wall_s).collect();
        if jobs.len() >= MIN_JOBS && t0.elapsed().as_secs_f64() + median(&walls) > ctx.args.seconds
        {
            break;
        }
        jobs.push(batch::run_job(&entries, &inputs, |e, i| {
            batch::spawn_run(&ctx.bin, e, i)
        }));
    }
    let peak_rss = sys::peak_child_rss_mb();

    let mut o = Outcome::default();
    let walls: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
    let lat_ms: Vec<f64> = jobs
        .iter()
        .flat_map(|j| j.latencies_s.iter().map(|s| s * 1e3))
        .collect();
    o.attempted = lat_ms.len() as u64;
    o.failed = jobs.iter().map(|j| j.failed).sum();
    o.errors = jobs.iter().flat_map(|j| j.errors.clone()).collect();
    let modeled = jobs[0].modeled_s;
    if jobs.iter().any(|j| j.failed == 0 && j.modeled_s != modeled) {
        o.problems.push(format!(
            "modeled_s did not repeat: {:?}",
            jobs.iter().map(|j| j.modeled_s).collect::<Vec<_>>()
        ));
    }
    let job_s = median(&walls);
    o.metric("setup_s", median(&setups), "s");
    o.metric("job_s", job_s, "s");
    o.metric("modeled_s", modeled, "sim_s");
    o.metric("peak_rss_mb", peak_rss, "MB");
    o.metric("p50_ms", quantile(&lat_ms, 0.5), "ms");
    o.metric("p99_ms", quantile(&lat_ms, 0.99), "ms");
    o.metric("sat_qps", entries.len() as f64 / job_s, "1/s");
    let mut d = Json::object();
    d.set("jobs", Json::from(jobs.len()));
    d.set("entries_per_job", Json::from(entries.len()));
    d.set("latency_samples", Json::from(lat_ms.len()));
    d.set("job_walls_s", Json::from(walls));
    d.set("setups_s", Json::from(setups));
    o.detail = d;
    Ok(o)
}

fn serve_untraced(ctx: &Ctx) -> Result<Outcome, String> {
    let specs = serve::specs(ctx.args.seed);
    let inputs = prepare(&specs, &ctx.dir)?;
    // Set-up: write the files, start the daemon, load every graph and
    // prime its result cache. Only the last daemon is kept.
    let mut setups = Vec::new();
    let mut modeled = Vec::new();
    let mut daemon: Option<serve::Daemon> = None;
    for _ in 0..SERVE_SETUP_REPS {
        if let Some(d) = daemon.take() {
            d.stop()?;
        }
        let t = Instant::now();
        write_all(&specs, &ctx.dir)?;
        let d = serve::Daemon::start(&ctx.bin)?;
        modeled.push(serve::load_and_prime(
            &mut serve::Client::connect(&d.addr)?,
            &inputs,
        )?);
        setups.push(t.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");

    // The request mix draws from a stream of its own, apart from the
    // generators seeded with `seed * 8 + i`.
    let mut rng = Xoshiro256pp::seed_from_u64(ctx.args.seed ^ 0x6d69_7865_642d_6c6f);
    let n_a = (serve::RATE_QPS * ctx.args.seconds * PHASE_A_SHARE)
        .round()
        .max(1.0) as usize;
    let dues = loadgen::poisson_schedule(serve::RATE_QPS, n_a, &mut rng);
    let ops_a = serve::mix(0, n_a, inputs.len(), &mut rng);
    let ops_b = serve::mix(n_a, serve::PHASE_B_OPS, inputs.len(), &mut rng);
    let locks: Vec<RwLock<()>> = inputs.iter().map(|_| RwLock::new(())).collect();
    let mut workers = (0..serve::CONNECTIONS)
        .map(|_| serve::Client::connect(&daemon.addr).map(serve::Worker::new))
        .collect::<Result<Vec<_>, _>>()?;

    let a = loadgen::drive(&mut workers, &dues, |w, i| {
        w.perform(&ops_a[i], &inputs, &locks)
    });
    let b = loadgen::drive(&mut workers, &vec![0.0; ops_b.len()], |w, i| {
        w.perform(&ops_b[i], &inputs, &locks)
    });
    let errors: Vec<String> = workers.iter().flat_map(|w| w.errors.clone()).collect();
    drop(workers);
    daemon.stop()?;
    let peak_rss = sys::peak_child_rss_mb();

    let mut o = Outcome::default();
    let lat_ms: Vec<f64> = a.iter().map(|s| s.latency_s() * 1e3).collect();
    let late_ms: Vec<f64> = a.iter().map(|s| s.late_s() * 1e3).collect();
    let job_s = b.iter().map(|s| s.done_s).fold(0.0, f64::max);
    o.attempted = (a.len() + b.len()) as u64;
    o.failed = a.iter().chain(&b).filter(|s| !s.ok).count() as u64;
    o.errors = errors;
    if modeled.iter().any(|&m| m != modeled[0]) {
        o.problems
            .push(format!("modeled_s did not repeat: {modeled:?}"));
    }
    let p99 = quantile(&lat_ms, 0.99);
    o.metric("setup_s", median(&setups), "s");
    o.metric("job_s", job_s, "s");
    o.metric("modeled_s", modeled[0], "sim_s");
    o.metric("peak_rss_mb", peak_rss, "MB");
    o.metric("p50_ms", quantile(&lat_ms, 0.5), "ms");
    o.metric("p99_ms", p99, "ms");
    o.metric("sat_qps", b.len() as f64 / job_s, "1/s");
    let mut d = Json::object();
    d.set("phase_a_samples", Json::from(a.len()));
    d.set(
        "phase_a_deciles_ms",
        Json::from(
            (1..10)
                .map(|q| quantile(&lat_ms, f64::from(q) / 10.0))
                .collect::<Vec<_>>(),
        ),
    );
    d.set("phase_a_rate_qps", Json::from(serve::RATE_QPS));
    let mut top = lat_ms.clone();
    top.sort_by(|a, b| b.total_cmp(a));
    top.truncate(8);
    d.set("phase_a_slowest_ms", Json::from(top));
    d.set(
        "phase_a_p99_within_limit",
        Json::from(p99 <= serve::P99_LIMIT_MS),
    );
    d.set("loadgen_late_ms_p99", Json::from(quantile(&late_ms, 0.99)));
    d.set("phase_b_samples", Json::from(b.len()));
    d.set("setups_s", Json::from(setups));
    o.detail = d;
    Ok(o)
}
