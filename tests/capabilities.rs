//! The capability matrix, black-box: every method × workload ×
//! placement × fault plan through `Run::execute` on one small graph. A
//! combination the builder admits must reproduce the host reference
//! exactly; one it rejects must fail as a configuration error (exit 2),
//! never as a panic or another error class. Run with `--nocapture` to
//! list every verdict.
//!
//! Every admitted cell also carries a committed behaviour fingerprint
//! (`tests/golden/fingerprint.txt`): its report and Chrome trace at
//! `Level::Trace`, host wall-clock removed, hashed. After an intended
//! behaviour change, re-bless and explain each changed line:
//!
//! ```text
//! BLESS=1 cargo test --test capabilities
//! ```

mod common;

use common::{behaviour, first_difference};
use trigon::gpu_sim::{FaultConfig, FaultPlan, FaultSpec};
use trigon::graph::{gen, Graph};
use trigon::{ClusterSpec, FleetSpec, Json, Method, Run, Workload};

const WORKLOADS: [Workload; 5] = [
    Workload::Triangles,
    Workload::KCliques(3),
    Workload::Clustering,
    Workload::KTruss(3),
    Workload::Enumerate,
];
const PLACEMENTS: [&str; 5] = ["device", "1xC2050", "2xC2050", "1x(C2050)", "2x(C2050)"];
const FAULT_PLANS: [&str; 3] = ["none", "xfer:1", "ecc:1"];

fn graph() -> Graph {
    gen::gnp(40, 0.15, 5)
}

/// Every method × workload × placement × fault cell on `g`, labelled,
/// in a fixed order.
fn cells(g: &Graph) -> Vec<(String, Workload, Run<'_>)> {
    let mut out = Vec::new();
    for w in WORKLOADS {
        for m in Method::ALL {
            for p in PLACEMENTS {
                for f in FAULT_PLANS {
                    let mut run = Run::new(g).method(m).workload(w);
                    if p.contains('(') {
                        run = run.cluster(ClusterSpec::parse(p).unwrap());
                    } else if p != "device" {
                        run = run.fleet(FleetSpec::parse(p).unwrap());
                    }
                    if f != "none" {
                        let spec = FaultSpec::parse(f).unwrap();
                        run = run.faults(FaultConfig::new(FaultPlan::new(spec, 7)));
                    }
                    out.push((format!("{} {} {p} {f}", m.label(), w.label()), w, run));
                }
            }
        }
    }
    out
}

#[test]
fn every_combination_is_admitted_exactly_or_rejected_with_exit_2() {
    let g = graph();
    let mut admitted = 0;
    for w in WORKLOADS {
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
        for (label, _, run) in cells(&g).into_iter().filter(|(_, cw, _)| *cw == w) {
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
    // 8 host runs (cpu, cpu-fast × four workloads), 1 cpu-intersect,
    // 3 × (4 × 13 + 1) combination simulators, 13 gpu-intersect and
    // 8 hybrid (four workloads, no faults or xfer only).
    assert_eq!(admitted, 189);
}

/// FNV-1a over bytes — the hash `triangle_checksum` uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The top-level paths of a behaviour document (each non-null report
/// section, and the trace) with a 16-bit digest each, so a mismatch
/// against the committed line can name the first path that differs.
fn section_digests(doc: &Json) -> Vec<(String, u16)> {
    let mut out = Vec::new();
    if let Json::Object(fields) = doc {
        for (k, v) in fields {
            match v {
                Json::Object(sections) if k == "report" => {
                    for (s, sv) in sections.iter().filter(|(_, sv)| *sv != Json::Null) {
                        out.push((format!("report.{s}"), digest16(sv)));
                    }
                }
                _ => out.push((k.clone(), digest16(v))),
            }
        }
    }
    out
}

/// A 16-bit fold of the FNV-1a hash of `v`'s compact serialization.
fn digest16(v: &Json) -> u16 {
    let h = fnv1a(v.to_string_compact().as_bytes());
    (h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) as u16
}

/// One committed line: label, count, `modeled_s`, hash, and the section
/// digests.
fn golden_line(label: &str, count: u64, modeled_s: f64, doc: &Json) -> String {
    let sections: Vec<String> = section_digests(doc)
        .iter()
        .map(|(p, d)| format!("{p}={d:04x}"))
        .collect();
    format!(
        "{label}\t{count}\t{modeled_s:e}\t{:016x}\t{}",
        fnv1a(doc.to_string_compact().as_bytes()),
        sections.join(" ")
    )
}

/// The first section path on which two golden lines' digests disagree.
fn first_section_difference(actual: &str, expected: &str) -> String {
    let digests = |line: &str| -> Vec<String> {
        let field = line.split('\t').nth(4).unwrap_or("");
        field.split(' ').map(str::to_string).collect()
    };
    let (a, e) = (digests(actual), digests(expected));
    a.iter()
        .zip(&e)
        .find(|(x, y)| x != y)
        .map(|(x, _)| x.split('=').next().unwrap_or(x).to_string())
        .unwrap_or_else(|| {
            if a.len() == e.len() {
                "the whole document (equal section digests)".to_string()
            } else {
                "report (a section was added or removed)".to_string()
            }
        })
}

/// Every admitted cell reproduces its committed fingerprint bit for bit,
/// at thread widths 1 and 2.
#[test]
fn every_admitted_cell_matches_its_committed_fingerprint() {
    let g = graph();
    let path = format!(
        "{}/tests/golden/fingerprint.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let mut lines = Vec::new();
    for (label, _, run) in cells(&g) {
        if run.check().is_err() {
            continue;
        }
        let (count, modeled_s, doc) = behaviour(run.clone().threads(1));
        let (_, _, wide) = behaviour(run.threads(2));
        if let Some(d) = first_difference(&doc, &wide, "") {
            panic!("{label}: thread widths 1 and 2 differ first at {d}");
        }
        lines.push(golden_line(&label, count, modeled_s, &doc));
    }
    assert_eq!(lines.len(), 189);
    let actual = lines.join("\n") + "\n";
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {path} ({e}); run with BLESS=1"));
    let expected: Vec<&str> = expected.lines().collect();
    for line in &lines {
        let label = line.split('\t').next().unwrap_or("");
        let want = expected
            .iter()
            .find(|l| l.split('\t').next() == Some(label))
            .unwrap_or_else(|| panic!("{label}: no line in {path}; run with BLESS=1"));
        assert!(
            line == want,
            "{label}: behaviour drifted from {path}, first at {}\n  got:  {line}\n  want: {want}",
            first_section_difference(line, want)
        );
    }
    assert_eq!(
        lines.len(),
        expected.len(),
        "{path} lists cells no longer admitted"
    );
}
