//! End-to-end tests of the `trigon` command-line binary.

use std::process::Command;

fn trigon(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_trigon"))
        .args(args)
        .output()
        .expect("spawn trigon");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Like [`trigon`] but returns the raw exit code for error-path tests.
fn trigon_code(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_trigon"))
        .args(args)
        .output()
        .expect("spawn trigon");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().expect("exit code"),
    )
}

#[test]
fn devices_prints_table() {
    let (stdout, _, ok) = trigon(&["devices"]);
    assert!(ok);
    for needle in ["C1060", "C2050", "C2070", "185363", "321060"] {
        assert!(stdout.contains(needle), "missing {needle} in:\n{stdout}");
    }
}

#[test]
fn no_args_shows_usage() {
    let (_, stderr, ok) = trigon(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn gen_analyze_count_roundtrip() {
    let dir = std::env::temp_dir().join("trigon_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.txt");
    let path_s = path.to_str().unwrap();

    let (stdout, _, ok) = trigon(&["gen", "gnp", "--n", "200", "--seed", "5", "-o", path_s]);
    assert!(ok, "gen failed: {stdout}");
    assert!(stdout.contains("n = 200"));

    let (stdout, _, ok) = trigon(&["analyze", path_s]);
    assert!(ok);
    assert!(stdout.contains("vertices            200"));
    assert!(stdout.contains("triangles"));

    // CPU and GPU methods agree through the CLI.
    let count_of = |method: &str| -> u64 {
        let (stdout, stderr, ok) = trigon(&["run", path_s, "--method", method]);
        assert!(ok, "run {method} failed: {stderr}");
        stdout
            .lines()
            .find(|l| l.starts_with("triangles"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no triangle count in:\n{stdout}"))
    };
    let cpu = count_of("cpu-fast");
    assert_eq!(count_of("gpu-naive"), cpu);
    assert_eq!(count_of("gpu-opt"), cpu);
    assert_eq!(count_of("gpu-sampled"), cpu);
    assert_eq!(count_of("cpu-intersect"), cpu);
    assert_eq!(count_of("gpu-intersect"), cpu);
}

#[test]
fn count_with_generated_graph() {
    let (stdout, stderr, ok) = trigon(&[
        "run",
        "--gen",
        "ring",
        "--n",
        "600",
        "--method",
        "gpu-sampled",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("triangles"));
    assert!(stdout.contains("camping"));
}

#[test]
fn count_threads_flag_pins_pool_width() {
    // Same count at every width, and width 0 is a usage error.
    let count_at = |t: &str| -> String {
        let (stdout, stderr, ok) = trigon(&[
            "run",
            "--gen",
            "gnp",
            "--n",
            "400",
            "--method",
            "cpu-fast",
            "--threads",
            t,
        ]);
        assert!(ok, "--threads {t} failed: {stderr}");
        stdout
            .lines()
            .find(|l| l.starts_with("triangles"))
            .unwrap_or_else(|| panic!("no triangle line in:\n{stdout}"))
            .to_string()
    };
    let serial = count_at("1");
    assert_eq!(count_at("4"), serial);
    let (_, stderr, ok) = trigon(&["run", "--gen", "gnp", "--n", "50", "--threads", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--threads"), "{stderr}");
}

#[test]
fn count_trace_writes_chrome_trace_json() {
    let dir = std::env::temp_dir().join("trigon_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    let path_s = path.to_str().unwrap();

    let (stdout, stderr, ok) = trigon(&[
        "run",
        "--gen",
        "gnp",
        "--n",
        "300",
        "--method",
        "gpu-opt",
        "--trace",
        path_s,
        "--verbose",
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("perfetto"), "{stderr}");
    // --verbose adds the trace summary and the per-SM ASCII timeline.
    assert!(stdout.contains("trace"), "{stdout}");
    assert!(stdout.contains("per-SM timeline"), "{stdout}");
    assert!(stdout.contains("PCIe"), "{stdout}");
    assert!(stdout.contains("SM  0"), "{stdout}");

    // The written file parses back with the vendored JSON reader and has
    // the Chrome trace-event shape: host phase spans on pid 0 and at
    // least one kernel span per SM on pid 1.
    let text = std::fs::read_to_string(&path).unwrap();
    let j = trigon::Json::parse(&text).unwrap();
    let events = match j.get("traceEvents") {
        Some(trigon::Json::Array(a)) => a,
        other => panic!("traceEvents missing: {other:?}"),
    };
    let str_of = |e: &trigon::Json, k: &str| match e.get(k) {
        Some(trigon::Json::Str(s)) => s.clone(),
        _ => String::new(),
    };
    let uint_of = |e: &trigon::Json, k: &str| match e.get(k) {
        Some(trigon::Json::UInt(v)) => Some(*v),
        _ => None,
    };
    let host_spans = events
        .iter()
        .filter(|e| str_of(e, "ph") == "X" && uint_of(e, "pid") == Some(0))
        .count();
    assert!(
        host_spans >= 3,
        "want load/count/run host spans, got {host_spans}"
    );
    let device_sm_tids: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| str_of(e, "ph") == "X" && uint_of(e, "pid") == Some(1))
        .filter_map(|e| uint_of(e, "tid"))
        .filter(|&tid| tid >= 1)
        .collect();
    let sm_threads = events
        .iter()
        .filter(|e| str_of(e, "ph") == "M" && str_of(e, "name") == "thread_name")
        .filter(|e| {
            matches!(e.get("args").and_then(|a| a.get("name")),
                     Some(trigon::Json::Str(s)) if s.starts_with("SM "))
        })
        .count();
    assert!(sm_threads > 0, "no SM thread metadata");
    // On the device process PCIe is tid 0 and SM i is tid i + 1, so tids
    // >= 1 are SM lanes; a 300-node gnp run spreads blocks over several.
    assert!(
        device_sm_tids.len() >= 2,
        "want device spans on several lanes, got {device_sm_tids:?}"
    );
}

#[test]
fn kcount_subcommand() {
    let dir = std::env::temp_dir().join("trigon_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("k4.txt");
    let path_s = path.to_str().unwrap();
    // K5 has C(5,4) = 5 four-cliques.
    let (_, _, ok) = trigon(&["gen", "complete", "--n", "5", "-o", path_s]);
    assert!(ok);
    let (stdout, _, ok) = trigon(&["kcount", path_s, "--k", "4", "--what", "cliques"]);
    assert!(ok);
    assert!(stdout.contains("cliques of size 4: 5"), "{stdout}");
    // The cliques kind runs the kcount workload on gpu-opt, and its JSON
    // report says so, as `run --workload kcount` does.
    let (stdout, _, ok) = trigon(&["kcount", path_s, "--k", "4", "--json"]);
    assert!(ok);
    assert!(stdout.contains("\"method\": \"gpu-opt\""), "{stdout}");
}

/// `--k 0` is a configuration error (exit 2) for every subgraph kind,
/// not a panic.
#[test]
fn kcount_k0_is_a_config_error() {
    for what in ["cliques", "connected", "independent"] {
        let (_, stderr, code) = trigon_code(&[
            "kcount", "--gen", "gnp", "--n", "20", "--k", "0", "--what", what,
        ]);
        assert_eq!(code, 2, "{what}: {stderr}");
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    }
}

#[test]
fn split_subcommand() {
    let (stdout, _, ok) = trigon(&["split", "--gen", "ring", "--n", "2000", "--device", "c1060"]);
    assert!(ok);
    assert!(stdout.contains("chunks on C1060"), "{stdout}");
    assert!(stdout.contains("shared"));
}

/// The hybrid view is `run --method hybrid`: it prints the ALS
/// placement, the chunks and the Eq. 6 prediction. The old `hybrid`
/// subcommand fails like any unknown subcommand.
#[test]
fn hybrid_subcommand() {
    let (stdout, stderr, ok) =
        trigon(&["run", "--gen", "ring", "--n", "1200", "--method", "hybrid"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("ALS placement"), "{stdout}");
    assert!(stdout.contains("chunks"), "{stdout}");
    assert!(stdout.contains("Eq. 6"), "{stdout}");
    let (_, stderr, ok) = trigon(&["hybrid", "--gen", "ring", "--n", "1200"]);
    assert!(!ok, "removed subcommand must not run");
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn camping_demo_renders() {
    let (stdout, _, ok) = trigon(&["camping"]);
    assert!(ok);
    assert!(stdout.contains("camping factor 7.50"));
    assert!(stdout.contains("camping factor 1.00"));
}

#[test]
fn count_with_faults_recovers_and_reports() {
    // Serial reference.
    let (serial, _, ok) = trigon(&["run", "--gen", "gnp", "--n", "500", "--method", "cpu-fast"]);
    assert!(ok);
    let line = serial
        .lines()
        .find(|l| l.starts_with("triangles"))
        .expect("triangle line")
        .to_string();
    // Faulted simulated run: same count, plus the fault/recovery summary.
    let (stdout, stderr, ok) = trigon(&[
        "run",
        "--gen",
        "gnp",
        "--n",
        "500",
        "--method",
        "gpu-opt",
        "--faults",
        "xfer:1,ecc:2",
        "--fault-seed",
        "7",
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains(&line),
        "count drifted:\n{stdout}\nvs {line}"
    );
    assert!(
        stdout.contains("faults        ecc:2,xfer:1 (seed 7)"),
        "{stdout}"
    );
    assert!(stdout.contains("recovery"), "{stdout}");
    // The JSON report carries the faults block.
    let (json, stderr, ok) = trigon(&[
        "run", "--gen", "gnp", "--n", "500", "--method", "gpu-opt", "--faults", "ecc:1", "--json",
    ]);
    assert!(ok, "{stderr}");
    let j = trigon::Json::parse(&json).unwrap();
    let f = j.get("faults").expect("faults block in JSON report");
    assert!(
        matches!(f.get("seed"), Some(trigon::Json::UInt(0))),
        "{f:?}"
    );
}

/// Malformed `--faults` specs are parse errors (exit 4) with a pointed
/// message; `--fault-seed` without `--faults` is a usage error (exit 2).
#[test]
fn fault_flag_error_paths() {
    let base: &[&str] = &["run", "--gen", "gnp", "--n", "50", "--method", "gpu-opt"];
    let with = |extra: &[&str]| {
        let mut v = base.to_vec();
        v.extend_from_slice(extra);
        trigon_code(&v)
    };

    let (_, stderr, code) = with(&["--faults", "bogus:2"]);
    assert_eq!(code, 4, "{stderr}");
    assert!(stderr.contains("unknown fault kind"), "{stderr}");

    let (_, stderr, code) = with(&["--faults", "ecc"]);
    assert_eq!(code, 4, "{stderr}");
    assert!(stderr.contains("--faults"), "{stderr}");

    let (_, stderr, code) = with(&["--faults", "ecc:notanumber"]);
    assert_eq!(code, 4, "{stderr}");

    let (_, stderr, code) = with(&["--fault-seed", "3"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--fault-seed needs --faults"), "{stderr}");

    let (_, stderr, code) = with(&["--faults", "ecc:1", "--fault-seed", "-2"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--fault-seed"), "{stderr}");

    // Faults need a simulated device to inject into.
    let (_, stderr, code) = trigon_code(&[
        "run", "--gen", "gnp", "--n", "50", "--method", "cpu", "--faults", "ecc:1",
    ]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("simulated-device"), "{stderr}");

    // Hybrid accepts only transfer faults.
    let (_, stderr, code) = trigon_code(&[
        "run", "--gen", "gnp", "--n", "50", "--method", "hybrid", "--faults", "abort:1",
    ]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("xfer"), "{stderr}");
}

#[test]
fn bad_inputs_fail_cleanly() {
    let (_, stderr, ok) = trigon(&["run", "/nonexistent/file.txt"]);
    assert!(!ok);
    assert!(stderr.contains("open"));
    let (_, stderr, ok) = trigon(&["run", "--gen", "bogus", "--n", "10"]);
    assert!(!ok);
    assert!(stderr.contains("unknown model"));
    let (_, stderr, ok) = trigon(&["gen", "gnp"]);
    assert!(!ok);
    assert!(stderr.contains("--n"));
}

#[test]
fn run_subcommand_workloads() {
    let base = &["run", "--gen", "gnp", "--n", "200"];
    let with = |extra: &[&str]| {
        let mut args: Vec<&str> = base.to_vec();
        args.extend_from_slice(extra);
        trigon(&args)
    };

    // Default workload is triangles; the first line carries the count.
    let (tri_out, stderr, ok) = with(&[]);
    assert!(ok, "{stderr}");
    assert!(
        !stderr.contains("deprecated"),
        "run must not warn: {stderr}"
    );
    let tri = tri_out
        .lines()
        .find_map(|l| l.strip_prefix("triangles")?.trim().parse::<u64>().ok())
        .unwrap_or_else(|| panic!("no triangle count in:\n{tri_out}"));

    // kcount at k = 3 reproduces the triangle count.
    let (stdout, stderr, ok) = with(&["--workload", "kcount", "--k", "3"]);
    assert!(ok, "{stderr}");
    let k3 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("cliques")?.trim().parse::<u64>().ok())
        .unwrap_or_else(|| panic!("no clique count in:\n{stdout}"));
    assert_eq!(k3, tri);

    // Clustering prints mean cc and transitivity, same on CPU and GPU.
    let (cpu, stderr, ok) = with(&["--workload", "clustering", "--method", "cpu-fast"]);
    assert!(ok, "{stderr}");
    assert!(cpu.contains("mean cc"), "{cpu}");
    assert!(cpu.contains("transitivity"), "{cpu}");
    let (gpu, stderr, ok) = with(&["--workload", "clustering", "--method", "gpu-opt"]);
    assert!(ok, "{stderr}");
    let line = |s: &str, p: &str| {
        s.lines()
            .find(|l| l.starts_with(p))
            .map(str::to_string)
            .unwrap_or_default()
    };
    assert_eq!(line(&cpu, "mean cc"), line(&gpu, "mean cc"));
    assert_eq!(line(&cpu, "transitivity"), line(&gpu, "transitivity"));

    // k-truss reports the edge census; enumeration lists every triangle.
    let (stdout, stderr, ok) = with(&["--workload", "ktruss", "--k", "4"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("truss"), "{stdout}");
    assert!(stdout.contains("peeled"), "{stdout}");
    let (stdout, stderr, ok) = with(&["--workload", "enumerate"]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains(&format!("enumerated    {tri} listed")),
        "{stdout}"
    );

    // --json carries the workload section.
    let (json, stderr, ok) = with(&["--workload", "ktruss", "--k", "4", "--json"]);
    assert!(ok, "{stderr}");
    assert!(json.contains("\"workload\""), "{json}");
    assert!(json.contains("\"edges_kept\""), "{json}");

    // Bad workload / orphan --k are usage errors.
    let (_, stderr, code) =
        trigon_code(&["run", "--gen", "gnp", "--n", "50", "--workload", "bogus"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("unknown workload"), "{stderr}");
    let (_, stderr, code) = trigon_code(&["run", "--gen", "gnp", "--n", "50", "--k", "4"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--k needs --workload"), "{stderr}");
}

/// The deprecated `count` alias is gone: it now fails like any unknown
/// subcommand, with usage on stderr and no deprecation chatter.
#[test]
fn count_alias_is_removed() {
    let (_, stderr, ok) = trigon(&[
        "count", "--gen", "gnp", "--n", "200", "--method", "cpu-fast",
    ]);
    assert!(!ok, "removed alias must not run");
    assert!(stderr.contains("usage"), "{stderr}");
    assert!(!stderr.contains("deprecated"), "{stderr}");
    // And the usage text advertises both intersection methods instead.
    assert!(stderr.contains("cpu-intersect"), "{stderr}");
    assert!(stderr.contains("gpu-intersect"), "{stderr}");
}

/// CLI smoke for the degree-ordered intersection backends: same count
/// as the combination fast path, far fewer priced operations, and the
/// simulated variant reports device-side telemetry.
#[test]
fn intersect_methods_through_the_cli() {
    let line_of = |stdout: &str, prefix: &str| -> String {
        stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{stdout}"))
            .to_string()
    };
    let base = &["run", "--gen", "gnp", "--n", "400", "--method"];
    let run_m = |m: &str| {
        let mut args = base.to_vec();
        args.push(m);
        let (stdout, stderr, ok) = trigon(&args);
        assert!(ok, "run {m} failed: {stderr}");
        stdout
    };

    let fast = run_m("cpu-fast");
    let cpu = run_m("cpu-intersect");
    let gpu = run_m("gpu-intersect");
    let tri = line_of(&fast, "triangles");
    assert_eq!(line_of(&cpu, "triangles"), tri, "cpu-intersect drifted");
    assert_eq!(line_of(&gpu, "triangles"), tri, "gpu-intersect drifted");

    // The tests field prices intersection ops, orders of magnitude
    // below the combination method's candidate tests.
    let tests_of = |s: &str| -> u64 {
        line_of(s, "tests")
            .split_whitespace()
            .nth(1)
            .and_then(|v| v.parse().ok())
            .expect("tests value")
    };
    assert!(
        tests_of(&cpu) * 10 < tests_of(&fast),
        "intersection must price far fewer ops: {} vs {}",
        tests_of(&cpu),
        tests_of(&fast)
    );

    // The simulated variant goes through the device model (camping,
    // transactions) and accepts fault plans bit-identically.
    assert!(gpu.contains("camping"), "{gpu}");
    let (faulted, stderr, ok) = trigon(&[
        "run",
        "--gen",
        "gnp",
        "--n",
        "400",
        "--method",
        "gpu-intersect",
        "--faults",
        "ecc:1,abort:1",
        "--fault-seed",
        "3",
    ]);
    assert!(ok, "{stderr}");
    assert_eq!(
        line_of(&faulted, "triangles"),
        tri,
        "fault recovery drifted"
    );
    assert!(faulted.contains("recovery"), "{faulted}");

    // The underscore spelling parses too.
    let under = run_m("cpu_intersect");
    assert_eq!(line_of(&under, "triangles"), tri);
}

/// The cluster tier through the CLI: counts agree with a plain run and
/// with serial, the text report carries the cluster block, node loss
/// reshards without perturbing the count, and the JSON report carries
/// the populated `cluster` section.
#[test]
fn run_cluster_through_the_cli() {
    let line_of = |stdout: &str, prefix: &str| -> String {
        stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{stdout}"))
            .to_string()
    };
    let base: &[&str] = &["run", "--gen", "ring", "--n", "600", "--method", "gpu-opt"];
    let run_extra = |extra: &[&str]| {
        let mut args = base.to_vec();
        args.extend_from_slice(extra);
        let (stdout, stderr, ok) = trigon(&args);
        assert!(ok, "run {extra:?} failed: {stderr}");
        stdout
    };

    let plain = run_extra(&[]);
    let tri = line_of(&plain, "triangles");

    let clustered = run_extra(&["--cluster", "4x(2xC2050)"]);
    assert_eq!(line_of(&clustered, "triangles"), tri, "cluster drifted");
    assert!(
        clustered.contains("cluster       4x(2xC2050)"),
        "{clustered}"
    );
    assert!(clustered.contains("partition"), "{clustered}");
    assert!(clustered.contains("node  0"), "{clustered}");

    // Pinned layouts and node loss keep the count.
    for extra in [
        &["--cluster", "4xC2050", "--partition", "1d"][..],
        &["--cluster", "4xC2050", "--partition", "2d"][..],
        &[
            "--cluster",
            "4xC2050",
            "--node-loss",
            "2",
            "--fault-seed",
            "9",
        ][..],
    ] {
        let out = run_extra(extra);
        assert_eq!(line_of(&out, "triangles"), tri, "{extra:?} drifted");
    }
    let lost = run_extra(&["--cluster", "4xC2050", "--node-loss", "2"]);
    assert!(lost.contains("2 lost"), "{lost}");
    assert!(lost.contains("LOST"), "{lost}");

    // JSON carries the populated cluster section.
    let json = run_extra(&["--cluster", "2x(2xC2050)", "--json"]);
    assert!(json.contains("\"cluster\": {"), "{json}");
    assert!(json.contains("\"strategy\""), "{json}");
    assert!(json.contains("\"per_node\""), "{json}");
}

/// Cluster flag error paths: malformed specs are parse errors (exit 4);
/// orphaned or invalid flag combinations are configuration errors
/// (exit 2).
#[test]
fn cluster_flag_error_paths() {
    let base: &[&str] = &["run", "--gen", "gnp", "--n", "50", "--method", "gpu-opt"];
    let with = |extra: &[&str]| {
        let mut v = base.to_vec();
        v.extend_from_slice(extra);
        trigon_code(&v)
    };

    let (_, stderr, code) = with(&["--cluster", "0x(C2050)"]);
    assert_eq!(code, 4, "{stderr}");
    assert!(stderr.contains("--cluster"), "{stderr}");

    let (_, stderr, code) = with(&["--cluster", "65xC2050"]);
    assert_eq!(code, 4, "{stderr}");

    let (_, stderr, code) = with(&["--cluster", "2x((C2050)"]);
    assert_eq!(code, 4, "{stderr}");

    let (_, stderr, code) = with(&["--node-loss", "1"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--node-loss needs --cluster"), "{stderr}");

    let (_, stderr, code) = with(&["--partition", "2d"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--partition needs --cluster"), "{stderr}");

    let (_, stderr, code) = with(&["--cluster", "2xC2050", "--partition", "3d"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("partition"), "{stderr}");

    let (_, stderr, code) = with(&["--cluster", "2xC2050", "--devices", "2xC2050"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("mutually exclusive"), "{stderr}");

    // Non-GPU methods reject a cluster.
    let (_, stderr, code) = trigon_code(&[
        "run",
        "--gen",
        "gnp",
        "--n",
        "50",
        "--method",
        "cpu",
        "--cluster",
        "2xC2050",
    ]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("gpu-*"), "{stderr}");
}

// ---------------------------------------------------------------------------
// Serving daemon and dataset-ingestion error paths.
// ---------------------------------------------------------------------------

/// A `trigon serve --listen 127.0.0.1:0` child plus the address it
/// printed; killed on drop so a failing assertion can't leak a daemon.
struct Daemon {
    child: std::process::Child,
    addr: String,
}

impl Daemon {
    fn spawn() -> Daemon {
        Daemon::spawn_with(&[])
    }

    /// `trigon serve --listen 127.0.0.1:0` plus `extra` flags.
    fn spawn_with(extra: &[&str]) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_trigon"));
        cmd.args(["serve", "--listen", "127.0.0.1:0"])
            .args(extra)
            .stderr(std::process::Stdio::null());
        Daemon::start(cmd)
    }

    /// Starts `cmd` and reads the daemon's address from its banner.
    fn start(mut cmd: Command) -> Daemon {
        let mut child = cmd
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn daemon");
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut line = String::new();
        std::io::BufRead::read_line(&mut std::io::BufReader::new(stdout), &mut line)
            .expect("read listen banner");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
            .to_string();
        Daemon { child, addr }
    }

    fn query(&self, args: &[&str]) -> (String, String, i32) {
        let mut full = vec!["query", "--to", self.addr.as_str()];
        full.extend_from_slice(args);
        trigon_code(&full)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Nulls the wall-clock-bearing report sections and the per-request
/// serving annotation so served and one-shot reports compare bitwise.
fn strip_volatile(report: &trigon::Json) -> trigon::Json {
    let mut r = report.clone();
    r.set("serving", trigon::Json::Null);
    r.set("timing", trigon::Json::Null);
    r.set("telemetry", trigon::Json::Null);
    r
}

#[test]
fn malformed_dataset_exits_4() {
    let dir = std::env::temp_dir().join("trigon_cli_malformed");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.txt");
    std::fs::write(&path, "0 1\n1 junk\n").unwrap();
    let path_s = path.to_str().unwrap();

    let (_, stderr, code) = trigon_code(&["run", path_s]);
    assert_eq!(code, 4, "{stderr}");
    assert!(stderr.contains("parse"), "{stderr}");

    // An edge list mislabeled as MatrixMarket fails the same way.
    let (_, stderr, code) = trigon_code(&["analyze", path_s, "--format", "mm"]);
    assert_eq!(code, 4, "{stderr}");
    assert!(stderr.contains("parse"), "{stderr}");

    // The daemon's load op surfaces the identical code over the wire.
    let daemon = Daemon::spawn();
    let (_, stderr, code) = daemon.query(&["load", "bad", path_s]);
    assert_eq!(code, 4, "{stderr}");
    let (_, _, code) = daemon.query(&["shutdown"]);
    assert_eq!(code, 0);
}

#[test]
fn query_against_unloaded_graph_exits_2() {
    let daemon = Daemon::spawn();
    let (_, stderr, code) = daemon.query(&["run", "missing", "--workload", "triangles"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("missing"), "{stderr}");

    let (_, stderr, code) = daemon.query(&["evict", "missing"]);
    assert_eq!(code, 2, "{stderr}");

    let (_, _, code) = daemon.query(&["shutdown"]);
    assert_eq!(code, 0);
}

#[test]
fn serve_concurrent_queries_match_one_shot() {
    let daemon = Daemon::spawn();
    let (_, stderr, code) =
        daemon.query(&["load", "ra", "--gen", "rmat", "--n", "400", "--seed", "7"]);
    assert_eq!(code, 0, "{stderr}");
    let (_, stderr, code) =
        daemon.query(&["load", "gb", "--gen", "gnp", "--n", "300", "--seed", "3"]);
    assert_eq!(code, 0, "{stderr}");

    // Eight concurrent clients across two graphs and four workloads.
    let coords: [(&str, &str, Option<&str>); 8] = [
        ("ra", "triangles", None),
        ("ra", "clustering", None),
        ("ra", "enumerate", None),
        ("ra", "ktruss", Some("3")),
        ("gb", "triangles", None),
        ("gb", "clustering", None),
        ("gb", "enumerate", None),
        ("gb", "ktruss", Some("3")),
    ];
    let handles: Vec<_> = coords
        .iter()
        .map(|&(g, w, k)| {
            let addr = daemon.addr.clone();
            std::thread::spawn(move || {
                let mut args = vec![
                    "query",
                    "--to",
                    &addr,
                    "--json",
                    "run",
                    g,
                    "--workload",
                    w,
                    "--method",
                    "gpu-opt",
                ];
                if let Some(k) = k {
                    args.extend_from_slice(&["--k", k]);
                }
                let out = Command::new(env!("CARGO_BIN_EXE_trigon"))
                    .args(&args)
                    .output()
                    .expect("spawn client");
                assert!(
                    out.status.success(),
                    "client {g}/{w} failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
                (g, w, k, String::from_utf8_lossy(&out.stdout).into_owned())
            })
        })
        .collect();

    for handle in handles {
        let (g, w, k, stdout) = handle.join().expect("client thread");
        let resp = trigon::Json::parse(&stdout).expect("client response parses");
        let served = match resp.get("reports") {
            Some(trigon::Json::Array(reports)) if reports.len() == 1 => reports[0].clone(),
            other => panic!("expected one report for {g}/{w}, got {other:?}"),
        };

        let (model, n, seed) = if g == "ra" {
            ("rmat", "400", "7")
        } else {
            ("gnp", "300", "3")
        };
        let mut args = vec![
            "run",
            "--gen",
            model,
            "--n",
            n,
            "--seed",
            seed,
            "--workload",
            w,
            "--method",
            "gpu-opt",
            "--json",
        ];
        if let Some(k) = k {
            args.extend_from_slice(&["--k", k]);
        }
        let (stdout, stderr, ok) = trigon(&args);
        assert!(ok, "one-shot {g}/{w} failed: {stderr}");
        let one_shot = trigon::Json::parse(&stdout).expect("one-shot report parses");

        assert_eq!(
            strip_volatile(&served),
            strip_volatile(&one_shot),
            "served report for {g}/{w} diverged from one-shot `trigon run`"
        );
    }

    let (_, _, code) = daemon.query(&["shutdown"]);
    assert_eq!(code, 0);
}

/// `reports[*].serving` nulled: the only part of a response that may
/// differ between a cache miss and its replays.
fn without_serving(resp: &trigon::Json) -> trigon::Json {
    let mut resp = resp.clone();
    let reports = match resp.get("reports") {
        Some(trigon::Json::Array(reports)) => reports
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.set("serving", trigon::Json::Null);
                r
            })
            .collect(),
        other => panic!("expected reports, got {other:?}"),
    };
    resp.set("reports", trigon::Json::Array(reports));
    resp
}

/// Back-to-back requests on one persistent connection must not wait on
/// delayed ACKs: a response written in two pieces cost ~40 ms each.
#[test]
fn serve_back_to_back_cache_hits_on_one_connection_do_not_stall() {
    use trigon::serve::Wire;
    for (wire, flags) in [(Wire::Framed, &[][..]), (Wire::Ndjson, &["--ndjson"][..])] {
        let daemon = Daemon::spawn_with(flags);
        let stream = std::net::TcpStream::connect(&daemon.addr).expect("connect");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        let mut reader = std::io::BufReader::new(&stream);
        let mut call = |req: &str| {
            let req = trigon::Json::parse(req).expect("request parses");
            wire.write_msg(&mut &stream, &req).expect("send");
            wire.read_msg(&mut reader)
                .expect("receive")
                .expect("a response")
        };
        let resp = call(r#"{"op":"load","name":"g","gen":"gnp","n":300,"seed":3}"#);
        assert_eq!(resp.get("ok"), Some(&trigon::Json::Bool(true)), "{resp:?}");
        let query = r#"{"op":"query","graph":"g","workload":"triangles","method":"cpu-fast"}"#;
        let miss = without_serving(&call(query));

        let start = std::time::Instant::now();
        let hits: Vec<trigon::Json> = (0..50).map(|_| call(query)).collect();
        let elapsed = start.elapsed();

        for hit in &hits {
            let cache = match hit.get("reports") {
                Some(trigon::Json::Array(r)) => r[0].get("serving").and_then(|s| s.get("cache")),
                _ => None,
            };
            assert_eq!(cache, Some(&trigon::Json::from("hit")), "{wire:?}");
            assert_eq!(without_serving(hit), miss, "{wire:?}: a hit diverged");
        }
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "{wire:?}: 50 cache hits took {elapsed:?}"
        );
        call(r#"{"op":"shutdown"}"#);
    }
}

/// Running out of file descriptors fails `accept`; the daemon must log
/// it, keep retrying, and answer again once clients hang up.
#[cfg(unix)]
#[test]
fn serve_survives_running_out_of_file_descriptors() {
    use std::io::BufRead as _;
    let mut cmd = Command::new("sh");
    cmd.args([
        "-c",
        r#"ulimit -n 32 && exec "$0" serve --listen 127.0.0.1:0"#,
        env!("CARGO_BIN_EXE_trigon"),
    ])
    .stderr(std::process::Stdio::piped());
    let mut daemon = Daemon::start(cmd);
    let stderr = daemon.child.stderr.take().expect("daemon stderr");
    let (tx, rx) = std::sync::mpsc::channel();
    // Keep draining stderr so the daemon's retry log never blocks.
    let drain = std::thread::spawn(move || {
        for line in std::io::BufReader::new(stderr)
            .lines()
            .map_while(Result::ok)
        {
            let _ = tx.send(line);
        }
    });

    let idle: Vec<std::net::TcpStream> = (0..40)
        .map(|_| std::net::TcpStream::connect(&daemon.addr).expect("connect"))
        .collect();
    loop {
        let line = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the daemon logs its failed accept");
        if line.contains("accept failed") {
            break;
        }
    }
    drop(idle);

    let (_, stderr, code) = daemon.query(&["list"]);
    assert_eq!(code, 0, "{stderr}");
    let (_, stderr, code) = daemon.query(&["shutdown"]);
    assert_eq!(code, 0, "{stderr}");
    let status = daemon.child.wait().expect("daemon exits");
    assert!(status.success(), "{status}");
    drain.join().expect("stderr drain");
}
