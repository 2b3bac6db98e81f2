//! Host facts: provenance for every result and the peak memory of the
//! processes under test.

use std::path::Path;
use std::process::Command;

use trigon_telemetry::Json;

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The CPU model string from `/proc/cpuinfo`, or `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's stdout, or `"unknown"` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Git revision of the checkout in the working directory. An exported
/// tree (no `.git` here) reports `"unknown"` rather than the revision of
/// some enclosing repository.
fn git_rev() -> String {
    if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        "unknown".to_string()
    }
}

/// The provenance object printed with every result.
pub fn provenance(seed: u64, workload: &str, connections: usize, extra: &[(&str, Json)]) -> Json {
    let mut o = Json::object();
    o.set("workload", Json::from(workload));
    o.set("seed", Json::from(seed));
    o.set("nproc", Json::from(nproc()));
    o.set("cpu", Json::from(cpu_model()));
    o.set("git_rev", Json::from(git_rev()));
    o.set("rustc", Json::from(command_line("rustc", &["--version"])));
    o.set("client_connections", Json::from(connections));
    for (k, v) in extra {
        o.set(k, v.clone());
    }
    o
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Peak resident set, in MB, of the largest child process this process
/// has waited for (Linux `getrusage(RUSAGE_CHILDREN).ru_maxrss`).
pub fn peak_child_rss_mb() -> f64 {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` has the layout of Linux's `struct rusage` on 64-bit
    // targets (two `timeval`s followed by fourteen `long`s), and the
    // pointer is valid and exclusive for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    if rc != 0 {
        return f64::NAN;
    }
    u.maxrss as f64 / 1024.0
}
