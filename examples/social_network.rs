//! Social-network analysis: the paper's Fig. 2 motivation — "friends of
//! friends tend to be friends" — on a synthetic online social network.
//!
//! Computes clustering coefficients and transitivity from triangle
//! counts, and produces friend suggestions by ranking open wedges
//! (pairs with many common friends but no edge).
//!
//! ```text
//! cargo run --release --example social_network
//! ```

use std::collections::HashMap;
use trigon::graph::{gen, triangles};
use trigon::{Method, Run};

fn main() {
    // A small-world OSN: 2,000 users, 12 friends each on the lattice,
    // 10 % rewired long-range.
    let g = gen::watts_strogatz(2_000, 12, 0.10, 11);
    println!("social network: {} users, {} friendships", g.n(), g.m());

    let report = Run::new(&g)
        .method(Method::CpuFast)
        .execute()
        .expect("count");
    println!("triangles (closed friend trios): {}", report.count);

    let t = triangles::transitivity(&g);
    println!("transitivity: {t:.3} (probability a wedge is closed)");

    let cc = triangles::clustering_coefficients(&g);
    let mean_cc = cc.iter().sum::<f64>() / cc.len() as f64;
    println!("mean clustering coefficient: {mean_cc:.3}");

    // Fig. 2: friend suggestion. For each open wedge u–w–v with no u–v
    // edge, credit the pair (u, v) once per common friend; suggest the
    // highest-scoring pairs.
    let mut scores: HashMap<(u32, u32), u32> = HashMap::new();
    for w in 0..g.n() {
        let nb = g.neighbors(w);
        for (i, &u) in nb.iter().enumerate() {
            for &v in &nb[i + 1..] {
                if !g.has_edge(u, v) {
                    *scores.entry((u, v)).or_default() += 1;
                }
            }
        }
    }
    let mut ranked: Vec<((u32, u32), u32)> = scores.into_iter().collect();
    ranked.sort_unstable_by_key(|&((u, v), s)| (std::cmp::Reverse(s), u, v));
    println!("\ntop friend suggestions (common friends, not yet connected):");
    for ((u, v), s) in ranked.iter().take(5) {
        println!("  user {u} - user {v}: {s} mutual friends");
    }

    // Sanity: suggestions really are open wedges.
    for ((u, v), _) in ranked.iter().take(5) {
        assert!(!g.has_edge(*u, *v));
    }
}
