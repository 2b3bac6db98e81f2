//! Exact vs approximate triangle counting: the Algorithm 2 pipeline
//! against DOULION (Tsourakakis et al., KDD '09 — the paper's reference
//! \[16\] for "counting triangles in massive graphs with a coin").
//!
//! Shows the accuracy/work trade-off: DOULION touches only `p·m` edges
//! but returns an estimate; the exact pipeline tests every candidate
//! combination once.
//!
//! ```text
//! cargo run --release --example approx_counting
//! ```

use trigon::graph::{approx, gen};
use trigon::{Method, Run};

fn main() {
    let g = gen::community_ring(8_000, 200, 0.25, 4, 17);
    println!("graph: n = {}, m = {}", g.n(), g.m());

    let exact = Run::new(&g)
        .method(Method::CpuFast)
        .execute()
        .expect("exact");
    println!(
        "exact (Algorithm 2): {} triangles  [{} combination tests accounted]",
        exact.count, exact.tests
    );

    println!("\nDOULION estimates (5-run mean per p):");
    println!(
        "{:>6} {:>14} {:>12} {:>10}",
        "p", "estimate", "rel.err %", "edges kept"
    );
    for p in [0.1, 0.25, 0.5, 0.75, 1.0] {
        let mean = approx::doulion_mean(&g, p, 7, 5);
        let one = approx::doulion(&g, p, 7);
        let rel = 100.0 * (mean - exact.count as f64).abs() / exact.count as f64;
        println!("{p:>6} {mean:>14.0} {rel:>12.2} {:>10}", one.kept_edges);
    }

    // The estimator is exact at p = 1 by construction.
    let full = approx::doulion(&g, 1.0, 1);
    assert_eq!(full.sparsified_triangles, exact.count);
    println!("\np = 1.0 recovers the exact count, as expected.");
}
