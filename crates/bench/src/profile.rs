//! Simulated performance-counter sweep — the `repro profile` command.
//!
//! Runs the fig10 evaluation graphs through every executor (CPU
//! reference, CPU intersection, naive GPU, optimized GPU, simulated
//! intersection GPU, hybrid shared/global, and a two-device fleet) and
//! collects each run's [`ProfileSection`] — the
//! per-run counter totals, derived metrics, hotspots, and roofline
//! placements. `repro profile` renders the table and writes the document
//! to `bench_out/BENCH_profile.json`.
//!
//! Because every counter is priced deterministically at simulate time
//! (never measured), the sweep admits an **exact-match** regression
//! gate: with `--baseline PATH` the rendered points must equal the
//! committed baseline byte for byte. Any divergence — one transaction,
//! one cycle — fails, which catches accidental cost-model drift the
//! tolerance-band wall-clock gate (`repro perf`) never could. Bless a
//! deliberate cost-model change by deleting the baseline, re-running,
//! and committing the rewritten file. `TRIGON_PROFILE_SKIP_REGRESSION`
//! skips the gate (escape hatch for exploratory cost-model work).
//!
//! [`ProfileSection`]: trigon_core::ProfileSection

use trigon_core::{FleetSpec, Json, Level, Method, ProfileSection, Run, RunReport};

use crate::suites::fig10_graph;

/// Schema version of `BENCH_profile.json`; bump on shape changes.
pub const PROFILE_SCHEMA_VERSION: u32 = 1;

/// Outcome of the sweep: the report plus the exact-match verdict.
pub struct ProfileOutcome {
    /// The full `BENCH_profile.json` document.
    pub report: Json,
    /// `Some(message)` when the baseline gate failed.
    pub regression: Option<String>,
}

/// The graph sizes the sweep covers. Counters are simulated, not
/// measured, so the sweep is always the same (no quick/full split): the
/// committed baseline and every CI run pin the identical point set.
#[must_use]
pub fn profile_sizes() -> Vec<u32> {
    vec![300, 600]
}

/// The executors swept at every size (the fleet point is added on top).
const METHODS: [(&str, Method); 6] = [
    ("cpu-fast", Method::CpuFast),
    ("cpu-intersect", Method::CpuIntersect),
    ("gpu-naive", Method::GpuNaive),
    ("gpu-opt", Method::GpuOptimized),
    ("gpu-intersect", Method::GpuSimIntersect),
    ("hybrid", Method::Hybrid),
];

fn profile_point(label: &str, n: u32, r: &RunReport) -> Json {
    let mut o = Json::object();
    o.set("method", Json::Str(label.to_string()));
    o.set("n", Json::UInt(u64::from(n)));
    o.set("count", Json::UInt(r.count));
    o.set(
        "profile",
        r.profile
            .as_ref()
            .map_or(Json::Null, ProfileSection::to_json),
    );
    o
}

/// Runs the counter sweep over the default size ladder.
///
/// # Panics
///
/// Panics if any executor fails or any pair of executors disagrees on a
/// triangle count — the sweep doubles as a determinism gate.
#[must_use]
pub fn run_profile(baseline: Option<&str>) -> ProfileOutcome {
    run_profile_on(&profile_sizes(), baseline)
}

/// [`run_profile`] over an explicit size ladder.
#[must_use]
pub fn run_profile_on(sizes: &[u32], baseline: Option<&str>) -> ProfileOutcome {
    let mut points = Vec::new();
    for &n in sizes {
        let g = fig10_graph(n);
        let mut expect: Option<u64> = None;
        for (label, method) in METHODS {
            let r = Run::new(&g)
                .method(method)
                .telemetry(Level::Off)
                .execute()
                .expect("profile run");
            assert_eq!(
                *expect.get_or_insert(r.count),
                r.count,
                "{label} at n={n}: executors disagree on the count"
            );
            points.push(profile_point(label, n, &r));
        }
        let r = Run::new(&g)
            .method(Method::GpuOptimized)
            .fleet(FleetSpec::parse("2xC1060").expect("fleet spec"))
            .telemetry(Level::Off)
            .execute()
            .expect("fleet profile run");
        assert_eq!(
            expect,
            Some(r.count),
            "fleet at n={n}: count diverged from the single-device executors"
        );
        points.push(profile_point("fleet-2xC1060", n, &r));
    }
    let points = Json::Array(points);
    let regression = baseline.and_then(|p| check_baseline(p, &points));
    let mut report = Json::object();
    report.set(
        "schema_version",
        Json::UInt(u64::from(PROFILE_SCHEMA_VERSION)),
    );
    report.set("bench_meta", crate::meta::bench_meta());
    report.set("suite", Json::Str("fig10".to_string()));
    report.set("points", points);
    ProfileOutcome { report, regression }
}

/// Compares the rendered points against the committed baseline byte for
/// byte; writes the baseline when the file is absent. Only `"points"` is
/// compared — the surrounding `bench_meta` (git rev!) legitimately
/// differs between commits.
fn check_baseline(path: &str, points: &Json) -> Option<String> {
    if std::env::var("TRIGON_PROFILE_SKIP_REGRESSION").is_ok() {
        println!("  [baseline check skipped via TRIGON_PROFILE_SKIP_REGRESSION]");
        return None;
    }
    let rendered = points.to_string_pretty();
    let Ok(text) = std::fs::read_to_string(path) else {
        let mut b = Json::object();
        b.set(
            "schema_version",
            Json::UInt(u64::from(PROFILE_SCHEMA_VERSION)),
        );
        b.set("points", points.clone());
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, b.to_string_pretty()).expect("write baseline");
        println!("  [no baseline at {path}; wrote one — commit it]");
        return None;
    };
    let base = Json::parse(&text).expect("baseline parses");
    let base_rendered = base
        .get("points")
        .map(Json::to_string_pretty)
        .unwrap_or_default();
    if base_rendered == rendered {
        println!("  baseline check: every counter matches {path} exactly");
        None
    } else {
        Some(format!(
            "profile counter regression: this run diverges from {path} (counters must match \
             exactly; bless an intended cost-model change by deleting the baseline and \
             re-running) — first difference: {}",
            first_diff(&base_rendered, &rendered)
        ))
    }
}

/// The first differing line pair, for the failure message.
fn first_diff(a: &str, b: &str) -> String {
    for (la, lb) in a.lines().zip(b.lines()) {
        if la != lb {
            return format!("baseline `{}` vs current `{}`", la.trim(), lb.trim());
        }
    }
    format!(
        "line counts differ ({} vs {})",
        a.lines().count(),
        b.lines().count()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_covers_every_executor() {
        let a = run_profile_on(&[200], None);
        let b = run_profile_on(&[200], None);
        assert_eq!(
            a.report.get("points").unwrap().to_string_pretty(),
            b.report.get("points").unwrap().to_string_pretty(),
            "the counter sweep must be bit-reproducible"
        );
        let Some(Json::Array(points)) = a.report.get("points") else {
            panic!("points missing")
        };
        assert_eq!(points.len(), METHODS.len() + 1);
        for p in points {
            let prof = p.get("profile").expect("profile section");
            assert!(
                prof.get("counters").is_some(),
                "every point must carry counter totals"
            );
        }
        assert!(a.report.get("bench_meta").is_some());
    }

    #[test]
    fn exact_gate_roundtrips_and_catches_a_single_counter_change() {
        let dir = std::env::temp_dir().join("trigon_profile_baseline_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("baseline.json");
        let p = path.to_str().unwrap();
        let mut points = Json::object();
        points.set("transactions", Json::UInt(806_854));
        let points = Json::Array(vec![points]);
        // First call writes the baseline; identical points then pass.
        assert!(check_baseline(p, &points).is_none());
        assert!(path.exists());
        assert!(check_baseline(p, &points).is_none());
        // One transaction off: exact gate fails.
        let mut tampered = Json::object();
        tampered.set("transactions", Json::UInt(806_855));
        let tampered = Json::Array(vec![tampered]);
        let msg = check_baseline(p, &tampered).expect("one-counter drift must fail");
        assert!(msg.contains("806854") && msg.contains("806855"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
