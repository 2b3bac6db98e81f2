//! Checks a program answer (a `RunReport` JSON document, from `trigon
//! run --json` or inside a daemon response) against the reference.

use crate::inputs::{Reference, TRUSS_K};
use trigon_telemetry::Json;

/// The analyses the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Analysis {
    Triangles,
    Clustering,
    KTruss,
    Enumerate,
}

impl Analysis {
    /// The program's workload name.
    pub fn label(self) -> &'static str {
        match self {
            Analysis::Triangles => "triangles",
            Analysis::Clustering => "clustering",
            Analysis::KTruss => "ktruss",
            Analysis::Enumerate => "enumerate",
        }
    }

    /// The program's `Workload` value.
    pub fn workload(self) -> trigon_core::Workload {
        match self {
            Analysis::Triangles => trigon_core::Workload::Triangles,
            Analysis::Clustering => trigon_core::Workload::Clustering,
            Analysis::KTruss => trigon_core::Workload::KTruss(TRUSS_K),
            Analysis::Enumerate => trigon_core::Workload::Enumerate,
        }
    }
}

pub fn as_u64(j: Option<&Json>) -> Option<u64> {
    match j? {
        Json::UInt(u) => Some(*u),
        Json::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

pub fn as_f64(j: Option<&Json>) -> Option<f64> {
    match j? {
        Json::Float(f) => Some(*f),
        Json::UInt(u) => Some(*u as f64),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn path<'a>(j: &'a Json, keys: &[&str]) -> Option<&'a Json> {
    keys.iter().try_fold(j, |j, k| j.get(k))
}

fn expect_u64(report: &Json, keys: &[&str], want: u64) -> Result<(), String> {
    match as_u64(path(report, keys)) {
        Some(got) if got == want => Ok(()),
        got => Err(format!("{} = {got:?}, reference {want}", keys.join("."))),
    }
}

fn expect_f64(report: &Json, keys: &[&str], want: f64) -> Result<(), String> {
    match as_f64(path(report, keys)) {
        Some(got) if (got - want).abs() <= 1e-12 * want.abs().max(1.0) => Ok(()),
        got => Err(format!("{} = {got:?}, reference {want}", keys.join("."))),
    }
}

/// `Ok` when `report` answers `analysis` on the graph of `reference`.
pub fn check(report: &Json, analysis: Analysis, reference: &Reference) -> Result<(), String> {
    match analysis {
        Analysis::Triangles => expect_u64(report, &["result", "count"], reference.triangles),
        Analysis::Clustering => {
            expect_u64(report, &["result", "count"], reference.triangles)?;
            expect_u64(report, &["workload", "vertices"], reference.vertices as u64)?;
            expect_f64(
                report,
                &["workload", "mean_clustering"],
                reference.mean_clustering,
            )?;
            expect_f64(
                report,
                &["workload", "transitivity"],
                reference.transitivity,
            )
        }
        Analysis::KTruss => {
            expect_u64(report, &["workload", "edges_kept"], reference.truss_kept)?;
            expect_u64(
                report,
                &["workload", "edges_peeled"],
                reference.truss_peeled,
            )
        }
        Analysis::Enumerate => expect_u64(report, &["workload", "triangles"], reference.triangles),
    }
}

/// Simulated seconds the report models (`timing.modeled_s`).
pub fn modeled_s(report: &Json) -> Option<f64> {
    as_f64(path(report, &["timing", "modeled_s"]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trigon_core::{Method, Run};
    use trigon_graph::gen;

    fn report(g: &trigon_graph::Graph, a: Analysis) -> Json {
        Run::new(g)
            .method(Method::CpuFast)
            .workload(a.workload())
            .execute()
            .expect("run")
            .to_json()
    }

    #[test]
    fn every_analysis_matches_its_reference() {
        let g = gen::community_ring(600, 250, 0.3, 4, 9);
        let r = Reference::compute(&g);
        for a in [
            Analysis::Triangles,
            Analysis::Clustering,
            Analysis::KTruss,
            Analysis::Enumerate,
        ] {
            check(&report(&g, a), a, &r).unwrap_or_else(|e| panic!("{a:?}: {e}"));
        }
    }

    #[test]
    fn a_wrong_reference_is_reported() {
        let g = gen::gnp(300, 0.05, 2);
        let mut r = Reference::compute(&g);
        r.triangles += 1;
        assert!(check(&report(&g, Analysis::Triangles), Analysis::Triangles, &r).is_err());
        assert!(check(&report(&g, Analysis::Enumerate), Analysis::Enumerate, &r).is_err());
    }
}
