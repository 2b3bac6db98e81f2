//! Golden-file pin of the [`trigon::RunReport`] JSON schema.
//!
//! The test compares the *key paths* of serialized reports — never the
//! values, which carry timings — against `tests/golden/*.txt`. A schema
//! change (added, renamed, or moved keys) fails here until the golden
//! files are regenerated and `RUN_REPORT_SCHEMA_VERSION` is bumped:
//!
//! ```text
//! BLESS=1 cargo test --test run_report_schema
//! ```

use trigon::gpu_sim::{DeviceSpec, FaultConfig, FaultPlan, FaultSpec};
use trigon::graph::gen;
use trigon::serve::{Server, ServerConfig};
use trigon::{ClusterSpec, FleetSpec, Json, Level, LossPlan, Method, Run, RunReport, Workload};

fn check_golden(name: &str, report: &RunReport) {
    check_golden_json(name, &report.to_json());
}

fn check_golden_json(name: &str, json: &Json) {
    let actual = json.key_paths().join("\n") + "\n";
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR"))).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path} ({e}); run with BLESS=1"));
    assert_eq!(
        actual, expected,
        "RunReport JSON schema drifted from {path}.\n\
         If intentional: bump RUN_REPORT_SCHEMA_VERSION and re-bless with BLESS=1."
    );
}

#[test]
fn gpu_report_schema_is_pinned() {
    let g = gen::gnp(200, 0.05, 1);
    let r = Run::new(&g)
        .method(Method::GpuOptimized)
        .device(DeviceSpec::c1060())
        .telemetry(Level::Trace)
        .execute()
        .unwrap();
    check_golden("run_report_gpu_keys", &r);
}

#[test]
fn hybrid_report_schema_is_pinned() {
    let g = gen::community_ring(1_000, 100, 0.2, 2, 5);
    let r = Run::new(&g)
        .method(Method::Hybrid)
        .telemetry(Level::Trace)
        .execute()
        .unwrap();
    check_golden("run_report_hybrid_keys", &r);
}

#[test]
fn cpu_report_schema_is_pinned() {
    let g = gen::gnp(200, 0.05, 1);
    let r = Run::new(&g)
        .method(Method::CpuFast)
        .telemetry(Level::Trace)
        .execute()
        .unwrap();
    check_golden("run_report_cpu_keys", &r);
}

/// A faulted run pins the `faults` block: the populated section must keep
/// the same key set whatever the plan injects.
#[test]
fn faulted_report_schema_is_pinned() {
    let g = gen::gnp(300, 0.05, 1);
    let spec = FaultSpec::parse("ecc:2,xfer:1,abort:1,stall:1").unwrap();
    let r = Run::new(&g)
        .method(Method::GpuOptimized)
        .device(DeviceSpec::c1060())
        .telemetry(Level::Trace)
        .faults(FaultConfig::new(FaultPlan::new(spec, 7)))
        .execute()
        .unwrap();
    assert!(r.faults.is_some(), "faulted run must emit a faults section");
    check_golden("run_report_faults_keys", &r);
}

/// A multi-device fleet run with device loss pins the `fleet` block —
/// the populated section (including the `per_device[]` element shape)
/// must keep the same key set whatever the roster or loss plan.
#[test]
fn fleet_report_schema_is_pinned() {
    let g = gen::community_ring(1_000, 100, 0.2, 2, 5);
    let r = Run::new(&g)
        .method(Method::GpuOptimized)
        .fleet(FleetSpec::parse("2xC2050,1xC1060").unwrap())
        .device_loss(LossPlan::new(1, 7))
        .telemetry(Level::Trace)
        .execute()
        .unwrap();
    assert!(r.fleet.is_some(), "fleet run must emit a fleet section");
    check_golden("run_report_fleet_keys", &r);
}

/// A multi-node cluster run with node loss pins the `cluster` block —
/// the populated section (including the `per_node[]` element shape)
/// must keep the same key set whatever the roster, layout, or loss
/// plan.
#[test]
fn cluster_report_schema_is_pinned() {
    let g = gen::community_ring(1_000, 100, 0.2, 2, 5);
    let r = Run::new(&g)
        .method(Method::GpuOptimized)
        .cluster(ClusterSpec::parse("2x(2xC2050),2x(C1060)").unwrap())
        .node_loss(LossPlan::new(1, 7))
        .telemetry(Level::Trace)
        .execute()
        .unwrap();
    assert!(
        r.cluster.is_some(),
        "cluster run must emit a cluster section"
    );
    check_golden("run_report_cluster_keys", &r);
}

/// Each non-triangle workload carries its own `workload` section shape;
/// pin one golden per variant across three different methods so the
/// section's keys are stable regardless of the method that produced it.
#[test]
fn clustering_report_schema_is_pinned() {
    let g = gen::gnp(200, 0.05, 1);
    let r = Run::new(&g)
        .workload(Workload::Clustering)
        .method(Method::GpuOptimized)
        .device(DeviceSpec::c1060())
        .telemetry(Level::Trace)
        .execute()
        .unwrap();
    check_golden("workload_clustering_keys", &r);
}

#[test]
fn ktruss_report_schema_is_pinned() {
    let g = gen::gnp(200, 0.05, 1);
    let r = Run::new(&g)
        .workload(Workload::KTruss(3))
        .method(Method::CpuFast)
        .telemetry(Level::Trace)
        .execute()
        .unwrap();
    check_golden("workload_ktruss_keys", &r);
}

#[test]
fn enumerate_report_schema_is_pinned() {
    let g = gen::gnp(200, 0.05, 1);
    let r = Run::new(&g)
        .workload(Workload::Enumerate)
        .method(Method::GpuSampled)
        .device(DeviceSpec::c1060())
        .telemetry(Level::Trace)
        .execute()
        .unwrap();
    check_golden("workload_enumerate_keys", &r);
}

/// A report answered by the serving daemon pins the populated `serving`
/// section — admission verdict, routing target, cache dispositions, and
/// the batching ledger — on top of the ordinary v8 report shape.
#[test]
fn served_report_schema_is_pinned() {
    let server = Server::new(ServerConfig::default());
    let g = gen::gnp(200, 0.05, 1);
    server
        .registry()
        .load("g", g, "golden".to_string())
        .unwrap();
    let (resp, _) = server.handle(
        &Json::parse(r#"{"op":"query","graph":"g","workload":"triangles","method":"gpu-opt"}"#)
            .unwrap(),
    );
    let report = match resp.get("reports") {
        Some(Json::Array(reports)) if reports.len() == 1 => reports[0].clone(),
        other => panic!("expected one served report, got {other:?}"),
    };
    check_golden_json("run_report_serving_keys", &report);
}

/// The profile section must be populated (not `Null`) on every executor
/// path — its key shape is already pinned by the per-method goldens
/// above, so this guards against an arm forgetting to attach it.
#[test]
fn every_executor_attaches_a_profile_section() {
    let g = gen::gnp(200, 0.05, 1);
    for method in [Method::CpuFast, Method::GpuOptimized, Method::Hybrid] {
        let r = Run::new(&g)
            .method(method)
            .telemetry(Level::Off)
            .execute()
            .unwrap();
        let p = r
            .profile
            .unwrap_or_else(|| panic!("{method:?} run must emit a profile section"));
        assert!(
            p.data.totals.tests > 0,
            "{method:?} profile must attribute tests"
        );
    }
}

#[test]
fn schema_version_is_current() {
    assert_eq!(trigon::core::RUN_REPORT_SCHEMA_VERSION, 8);
}
