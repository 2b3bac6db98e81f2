//! Weak- and strong-scaling sweeps of the simulated cluster tier.
//!
//! Strong scaling runs one fixed 64-community workload across clusters
//! of 1..=64 single-C2050 nodes; weak scaling grows the graph with the
//! node count (one community per node). Every point's count is asserted
//! bit-identical to the CPU reference — the sweep doubles as the
//! cluster determinism gate. `repro cluster` renders both tables and
//! writes the document to `bench_out/BENCH_cluster.json`.

use trigon_core::{ClusterSpec, Json, Level, Method, Run};
use trigon_graph::{gen, triangles, Graph};

use crate::suites::SEED;

/// Schema version of `BENCH_cluster.json`; bump on shape changes.
pub const CLUSTER_SCHEMA_VERSION: u32 = 1;

/// Largest cluster the sweeps grow to.
pub const CLUSTER_MAX_NODES: usize = 64;

/// Node counts both sweeps visit (powers of two up to
/// [`CLUSTER_MAX_NODES`]).
#[must_use]
pub fn cluster_node_counts() -> Vec<usize> {
    let mut v = Vec::new();
    let mut d = 1;
    while d <= CLUSTER_MAX_NODES {
        v.push(d);
        d *= 2;
    }
    v
}

/// Community size of both sweep graphs: small enough that a 64-node
/// weak-scaling run stays fast, large enough that each node has real
/// kernel work.
const COMMUNITY: u32 = 50;

/// The strong-scaling workload: a ring of [`CLUSTER_MAX_NODES`]
/// communities, so even the largest cluster has one component per node
/// to own.
#[must_use]
pub fn cluster_strong_graph() -> Graph {
    gen::community_ring(
        COMMUNITY * CLUSTER_MAX_NODES as u32,
        COMMUNITY,
        0.3,
        2,
        SEED,
    )
}

/// The weak-scaling workload at `nodes` nodes: one community per node,
/// so per-node work is constant as the cluster grows.
#[must_use]
pub fn cluster_weak_graph(nodes: usize) -> Graph {
    gen::community_ring(COMMUNITY * nodes as u32, COMMUNITY, 0.3, 2, SEED)
}

/// One point of a scaling curve.
#[derive(Debug, Clone)]
pub struct ClusterPoint {
    /// Node count (homogeneous 1xC2050 nodes).
    pub nodes: usize,
    /// Rendered cluster spec, e.g. `"4x(C2050)"`.
    pub spec: String,
    /// Vertices of the point's graph.
    pub n: u32,
    /// Edges of the point's graph.
    pub m: usize,
    /// Exact triangle count (asserted equal to the CPU reference).
    pub triangles: u64,
    /// Partition layout the cost model picked (`"1d"` / `"2d"`).
    pub strategy: String,
    /// Outer cluster makespan (slowest node's uplink + ghost + fleet).
    pub makespan_cycles: u64,
    /// Summed kernel cycles across all nodes.
    pub compute_cycles: u64,
    /// Summed contended partition-upload cycles on the inter-node tier.
    pub uplink_cycles: u64,
    /// Summed ghost-vertex exchange cycles on the inter-node tier.
    pub ghost_cycles: u64,
    /// Summed ghost bytes exchanged between nodes.
    pub ghost_bytes: u64,
    /// Max / mean node finish time (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// Speedup: the 1-node makespan **on the same graph** over this
    /// makespan (ideal = `nodes`). Saturates at `serial / max-ALS`
    /// cycles — an adjacent level set is the atomic unit of work, so
    /// the heaviest single ALS bounds cluster parallelism.
    pub scaling: f64,
}

/// Outcome of both sweeps: the table rows plus the JSON document.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Strong-scaling rows, one per node count.
    pub strong: Vec<ClusterPoint>,
    /// Weak-scaling rows, one per node count.
    pub weak: Vec<ClusterPoint>,
    /// The full `BENCH_cluster.json` document.
    pub report: Json,
}

/// Runs one cluster point and converts its report section.
///
/// # Panics
///
/// Panics if the cluster count diverges from the CPU reference count.
fn run_point(g: &Graph, nodes: usize, base_makespan: u64) -> ClusterPoint {
    let expect = triangles::count_edge_iterator(g);
    let spec = ClusterSpec::parse(&format!("{nodes}xC2050")).expect("cluster spec");
    let report = Run::new(g)
        .method(Method::GpuOptimized)
        .cluster(spec)
        .telemetry(Level::Off)
        .execute()
        .expect("cluster run");
    assert_eq!(
        report.count, expect,
        "{nodes} nodes: cluster count diverged from the CPU reference"
    );
    let cl = report.cluster.expect("cluster section");
    ClusterPoint {
        nodes,
        spec: cl.spec,
        n: g.n(),
        m: g.m(),
        triangles: expect,
        strategy: cl.strategy,
        makespan_cycles: cl.makespan_cycles,
        compute_cycles: cl.compute_cycles,
        uplink_cycles: cl.uplink_cycles,
        ghost_cycles: cl.ghost_cycles,
        ghost_bytes: cl.ghost_bytes,
        imbalance: cl.imbalance,
        scaling: if base_makespan == 0 {
            1.0
        } else {
            base_makespan as f64 / cl.makespan_cycles.max(1) as f64
        },
    }
}

/// Runs both sweeps up to `max_nodes` (clamped to the power-of-two
/// ladder); [`run_cluster_scaling`] uses the full 64-node ladder.
///
/// # Panics
///
/// Panics if any point disagrees with the CPU reference count.
#[must_use]
pub fn run_cluster_scaling_to(max_nodes: usize) -> ClusterOutcome {
    let counts: Vec<usize> = cluster_node_counts()
        .into_iter()
        .filter(|&d| d <= max_nodes)
        .collect();
    let strong_g = cluster_strong_graph();
    let mut strong = Vec::with_capacity(counts.len());
    let mut base = 0u64;
    for &d in &counts {
        let p = run_point(&strong_g, d, base);
        if d == 1 {
            base = p.makespan_cycles;
        }
        strong.push(p);
    }
    let mut weak = Vec::with_capacity(counts.len());
    for &d in &counts {
        let g = cluster_weak_graph(d);
        // The ring bridges keep every weak graph connected, so per-node
        // work is not exactly constant; speedup is measured against a
        // serial (1-node) run on the same graph instead of the d = 1
        // point's graph.
        let serial = if d == 1 {
            0
        } else {
            run_point(&g, 1, 0).makespan_cycles
        };
        weak.push(run_point(&g, d, serial));
    }
    let report = cluster_json(&strong_g, &strong, &weak);
    ClusterOutcome {
        strong,
        weak,
        report,
    }
}

/// Runs the full 1..=64-node weak- and strong-scaling sweeps.
///
/// # Panics
///
/// Panics if any point disagrees with the CPU reference count.
#[must_use]
pub fn run_cluster_scaling() -> ClusterOutcome {
    run_cluster_scaling_to(CLUSTER_MAX_NODES)
}

fn point_json(p: &ClusterPoint) -> Json {
    let mut o = Json::object();
    o.set("nodes", Json::UInt(p.nodes as u64));
    o.set("spec", Json::Str(p.spec.clone()));
    o.set("n", Json::UInt(u64::from(p.n)));
    o.set("m", Json::UInt(p.m as u64));
    o.set("triangles", Json::UInt(p.triangles));
    o.set("strategy", Json::Str(p.strategy.clone()));
    o.set("makespan_cycles", Json::UInt(p.makespan_cycles));
    o.set("compute_cycles", Json::UInt(p.compute_cycles));
    o.set("uplink_cycles", Json::UInt(p.uplink_cycles));
    o.set("ghost_cycles", Json::UInt(p.ghost_cycles));
    o.set("ghost_bytes", Json::UInt(p.ghost_bytes));
    o.set("imbalance", Json::Float(p.imbalance));
    o.set("scaling", Json::Float(p.scaling));
    o
}

fn cluster_json(strong_g: &Graph, strong: &[ClusterPoint], weak: &[ClusterPoint]) -> Json {
    let mut doc = Json::object();
    doc.set(
        "schema_version",
        Json::UInt(u64::from(CLUSTER_SCHEMA_VERSION)),
    );
    doc.set("bench_meta", crate::meta::bench_meta());
    let mut w = Json::object();
    w.set("model", Json::Str("community_ring".to_string()));
    w.set("n", Json::UInt(u64::from(strong_g.n())));
    w.set("m", Json::UInt(strong_g.m() as u64));
    doc.set("strong_workload", w);
    doc.set("node", Json::Str("1xC2050".to_string()));
    doc.set("inter_tier", Json::Str("IB-QDR".to_string()));
    doc.set(
        "strong",
        Json::Array(strong.iter().map(point_json).collect()),
    );
    doc.set("weak", Json::Array(weak.iter().map(point_json).collect()));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_sweeps_pin_counts_and_scale() {
        // 8 nodes keeps the test fast; `repro cluster` runs the full
        // 64-node ladder.
        let o = run_cluster_scaling_to(8);
        assert_eq!(o.strong.len(), 4);
        assert_eq!(o.weak.len(), 4);
        assert!((o.strong[0].scaling - 1.0).abs() < 1e-12);
        let eight = &o.strong[3];
        assert!(
            eight.makespan_cycles < o.strong[0].makespan_cycles,
            "8 nodes must beat 1 on the strong curve"
        );
        assert!(
            eight.uplink_cycles > 0,
            "a real multi-node point pays uplink"
        );
        // Weak scaling: per-node work is constant, so the makespan may
        // drift with imbalance but must stay within a small factor.
        let w8 = &o.weak[3];
        assert!(
            w8.scaling > 0.2,
            "weak efficiency collapsed: {}",
            w8.scaling
        );
        // Triangle totals grow with the weak graphs.
        assert!(o.weak[3].triangles > o.weak[0].triangles);
    }
}
