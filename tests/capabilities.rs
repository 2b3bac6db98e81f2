//! The capability matrix, black-box: every method × workload ×
//! placement × fault plan through `Run::execute` on one small graph. A
//! combination the builder admits must reproduce the host reference
//! exactly; one it rejects must fail as a configuration error (exit 2),
//! never as a panic or another error class. Run with `--nocapture` to
//! list every verdict.

use trigon::gpu_sim::{FaultConfig, FaultPlan, FaultSpec};
use trigon::graph::gen;
use trigon::{ClusterSpec, FleetSpec, Method, Run, Workload};

#[test]
fn every_combination_is_admitted_exactly_or_rejected_with_exit_2() {
    let g = gen::gnp(40, 0.15, 5);
    let workloads = [
        Workload::Triangles,
        Workload::KCliques(3),
        Workload::Clustering,
        Workload::KTruss(3),
        Workload::Enumerate,
    ];
    let placements = ["device", "1xC2050", "2xC2050", "1x(C2050)", "2x(C2050)"];
    let fault_plans = ["none", "xfer:1", "ecc:1"];
    let mut admitted = 0;
    for w in workloads {
        // The host reference: cpu-fast, or one simulated device for the
        // k-clique workload, which only the combination simulators run.
        let reference = match w {
            Workload::KCliques(_) => Method::GpuOptimized,
            _ => Method::CpuFast,
        };
        let want = Run::new(&g)
            .method(reference)
            .workload(w)
            .execute()
            .unwrap();
        for m in Method::ALL {
            for p in placements {
                for f in fault_plans {
                    let mut run = Run::new(&g).method(m).workload(w);
                    if p.contains('(') {
                        run = run.cluster(ClusterSpec::parse(p).unwrap());
                    } else if p != "device" {
                        run = run.fleet(FleetSpec::parse(p).unwrap());
                    }
                    if f != "none" {
                        let spec = FaultSpec::parse(f).unwrap();
                        run = run.faults(FaultConfig::new(FaultPlan::new(spec, 7)));
                    }
                    let label = format!("{} {} {p} {f}", m.label(), w.label());
                    match run.execute() {
                        Ok(r) => {
                            admitted += 1;
                            println!("{label} -> admitted");
                            assert_eq!(r.count, want.count, "{label}");
                            assert_eq!(r.workload, want.workload, "{label}");
                        }
                        Err(e) => {
                            println!("{label} -> rejected");
                            assert_eq!(e.exit_code(), 2, "{label}: {e}");
                        }
                    }
                }
            }
        }
    }
    // 8 host runs (cpu, cpu-fast × four workloads), 1 cpu-intersect,
    // 3 × (4 × 13 + 1) combination simulators, 13 gpu-intersect and
    // 8 hybrid (four workloads, no faults or xfer only).
    assert_eq!(admitted, 189);
}
