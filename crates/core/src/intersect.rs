//! Degree-ordered adjacency-intersection triangle counting — the
//! post-2013 algorithm family the combination pipeline is raced against.
//!
//! The paper's §VII kernel enumerates every candidate 3-combination of an
//! ALS window and edge-tests it; the modern literature counts the same
//! triangles orders of magnitude faster by *intersecting adjacency
//! lists*. This module implements that family over the same per-ALS
//! windows, with the standard degree orientation and the three adaptive
//! per-edge kernels of the Polak (arXiv:1503.00576) and Wang/Owens
//! (arXiv:1804.06926) taxonomies:
//!
//! 1. **Orientation** — build a CSR over the window induced subgraph,
//!    keep each edge only from its lower-(degree, id) endpoint to the
//!    higher one. Every triangle survives as exactly one directed wedge
//!    closure, and out-degrees are bounded by `O(√m)`.
//! 2. **Sorted merge** — for similar-length neighbor lists, the linear
//!    two-pointer merge.
//! 3. **Galloping search** — when one list is ≥ [`GALLOP_RATIO`]× the
//!    other, exponential + binary search of the short list's elements in
//!    the long one.
//! 4. **Chunked-`u64` bitmap** — hub vertices (out-degree ≥
//!    [`HUB_DEGREE`]) carry a dense rank-space bitmap; a hub–hub edge
//!    intersects by `AND` + `count_ones` over 64-bit words — the
//!    vectorized word-parallel path (no unstable `std::simd` needed).
//!
//! Every kernel invocation is counted in an [`IntersectStats`], which is
//! what the simulated-GPU intersection fidelity mode prices (coalesced
//! row scans vs scattered galloping probes vs bank-conflicting bitmap
//! words).
//!
//! # The bit-identity with the combination pipeline
//!
//! [`count_als_fast`](crate::count::count_als_fast) counts a window
//! triangle iff it touches the first level, or the ALS is last. Since
//! the window is the disjoint union `first ∪ second`, that is exactly
//!
//! ```text
//! tri(window) − (is_last ? 0 : tri(second-level induced subgraph))
//! ```
//!
//! — two plain induced-subgraph counts, which is what lets the
//! popcount bitmap kernel (which cannot filter per-triangle) participate
//! while the per-ALS totals stay **bit-identical** to Algorithm 2.

use crate::als::Als;
use crate::workload::ChunkKernel;
use trigon_graph::Graph;

/// A neighbor-list length ratio of at least this switches the per-edge
/// kernel from the sorted merge to galloping binary search.
pub const GALLOP_RATIO: usize = 8;

/// Oriented out-degree at or above which a vertex is a *hub* and carries
/// a dense rank-space bitmap; a hub–hub edge intersects by word ops.
pub const HUB_DEGREE: usize = 64;

/// Exact operation counts of one intersection run — the quantities the
/// GPU simulator prices and the profiler attributes. Every field is a
/// deterministic integer function of (graph, vertex set).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntersectStats {
    /// Triangles counted (after the window-minus-second subtraction when
    /// produced by [`als_stats`]).
    pub triangles: u64,
    /// Edges resolved by the sorted two-pointer merge.
    pub merge_edges: u64,
    /// Edges resolved by galloping binary search.
    pub gallop_edges: u64,
    /// Edges resolved by the `u64` bitmap popcount kernel.
    pub bitmap_edges: u64,
    /// Comparisons performed by the merge kernel.
    pub merge_steps: u64,
    /// Probes (exponential + binary search reads) of the gallop kernel.
    pub gallop_probes: u64,
    /// 64-bit words `AND`ed + popcounted by the bitmap kernel.
    pub bitmap_words: u64,
    /// 4-byte words streamed sequentially: CSR build scans, merged
    /// neighbor lists, the gallop kernel's short list, and the bitmap
    /// kernel's word rows (2 `u32` words per `u64`). These loads
    /// coalesce on a device; [`IntersectStats::gallop_probes`] are the
    /// scattered ones.
    pub seq_words: u64,
}

impl IntersectStats {
    /// Total kernel operations — the intersection analogue of the
    /// combination pipeline's "tests", and the unit the timing models
    /// scale with.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.merge_steps + self.gallop_probes + self.bitmap_words
    }

    /// Accumulates `other` into `self`, field-wise.
    pub fn merge(&mut self, other: &IntersectStats) {
        self.triangles += other.triangles;
        self.merge_edges += other.merge_edges;
        self.gallop_edges += other.gallop_edges;
        self.bitmap_edges += other.bitmap_edges;
        self.merge_steps += other.merge_steps;
        self.gallop_probes += other.gallop_probes;
        self.bitmap_words += other.bitmap_words;
        self.seq_words += other.seq_words;
    }
}

/// The degree-ordered oriented CSR of one induced subgraph: vertices
/// renamed to ranks ascending in (induced degree, global id), each edge
/// kept only from its lower rank to its higher, adjacency sorted by
/// rank. Triangles = Σ over directed edges `(u, v)` of
/// `|N⁺(u) ∩ N⁺(v)|`.
#[derive(Debug, Clone)]
pub struct OrientedCsr {
    /// CSR offsets into [`OrientedCsr::adj`], length `nv + 1`.
    offsets: Vec<u32>,
    /// Higher-ranked out-neighbors as ranks, sorted ascending per row.
    adj: Vec<u32>,
}

impl OrientedCsr {
    /// Builds the oriented CSR of the subgraph `g` induces on `verts`
    /// (global vertex ids; order irrelevant, duplicates not allowed),
    /// charging the adjacency scan to `stats.seq_words`.
    #[must_use]
    pub fn build(g: &Graph, verts: &[u32], stats: &mut IntersectStats) -> Self {
        let mut vs: Vec<u32> = verts.to_vec();
        vs.sort_unstable();
        let nv = vs.len();
        let pos = |v: u32| vs.binary_search(&v).ok();
        // Induced degrees: one streamed scan of every member's neighbor
        // list (the coalesced row-scan phase the simulator prices).
        let mut deg = vec![0u32; nv];
        let mut scanned = 0u64;
        for (i, &v) in vs.iter().enumerate() {
            let nb = g.neighbors(v);
            scanned += nb.len() as u64;
            deg[i] = nb.iter().filter(|&&u| pos(u).is_some()).count() as u32;
        }
        stats.seq_words += scanned;
        // Rank ascending in (degree, global id): orientation by rank
        // bounds every out-degree and makes the ordering deterministic.
        let mut order: Vec<u32> = (0..nv as u32).collect();
        order.sort_unstable_by_key(|&i| (deg[i as usize], vs[i as usize]));
        let mut rank = vec![0u32; nv];
        for (r, &i) in order.iter().enumerate() {
            rank[i as usize] = r as u32;
        }
        // Second streamed pass fills the rows; each undirected edge is
        // seen from both endpoints and kept once, low rank → high rank.
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); nv];
        for (i, &v) in vs.iter().enumerate() {
            let ri = rank[i];
            for &u in g.neighbors(v) {
                if let Some(j) = pos(u) {
                    let rj = rank[j];
                    if rj > ri {
                        rows[ri as usize].push(rj);
                    }
                }
            }
        }
        stats.seq_words += scanned;
        let mut offsets = Vec::with_capacity(nv + 1);
        let mut adj = Vec::new();
        offsets.push(0u32);
        for row in &mut rows {
            row.sort_unstable();
            adj.extend_from_slice(row);
            offsets.push(adj.len() as u32);
        }
        OrientedCsr { offsets, adj }
    }

    /// Vertices (as ranks) in the CSR.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the CSR is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sorted out-neighbor ranks of rank `u`.
    #[must_use]
    pub fn row(&self, u: usize) -> &[u32] {
        &self.adj[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Counts the triangles of the oriented graph with the adaptive
    /// merge / gallop / bitmap kernel per edge, accumulating every
    /// operation into `stats`.
    #[must_use]
    pub fn count_triangles(&self, stats: &mut IntersectStats) -> u64 {
        let nv = self.len();
        let words = nv.div_ceil(64);
        // Dense rank-space bitmaps for the hubs only: ≤ 2m/HUB_DEGREE of
        // them, so memory stays linear in the edge count.
        let bitmaps: Vec<Option<Vec<u64>>> = (0..nv)
            .map(|u| {
                let row = self.row(u);
                if row.len() < HUB_DEGREE {
                    return None;
                }
                let mut bm = vec![0u64; words];
                for &v in row {
                    bm[(v >> 6) as usize] |= 1u64 << (v & 63);
                }
                Some(bm)
            })
            .collect();
        let mut triangles = 0u64;
        for u in 0..nv {
            let nu = self.row(u);
            for &v in nu {
                let nv_row = self.row(v as usize);
                if nu.is_empty() || nv_row.is_empty() {
                    continue;
                }
                let (short, long) = if nu.len() <= nv_row.len() {
                    (nu, nv_row)
                } else {
                    (nv_row, nu)
                };
                // Common out-neighbors all rank above v (both rows only
                // hold ranks above their owner, and v > u), so the
                // bitmap scan starts past v's word — cheap enough to
                // beat the merge whenever both endpoints are hubs.
                let word_lo = (v >> 6) as usize;
                let span = (words - word_lo) as u64;
                match (&bitmaps[u], &bitmaps[v as usize]) {
                    (Some(bu), Some(bv)) if span <= (short.len() + long.len()) as u64 => {
                        stats.bitmap_edges += 1;
                        stats.bitmap_words += span;
                        stats.seq_words += 2 * 2 * span; // two u64 rows streamed
                        for w in word_lo..words {
                            triangles += u64::from((bu[w] & bv[w]).count_ones());
                        }
                    }
                    _ if long.len() >= GALLOP_RATIO * short.len() => {
                        stats.gallop_edges += 1;
                        stats.seq_words += short.len() as u64;
                        triangles += gallop_count(short, long, &mut stats.gallop_probes);
                    }
                    _ => {
                        stats.merge_edges += 1;
                        stats.seq_words += (short.len() + long.len()) as u64;
                        triangles += merge_count(short, long, &mut stats.merge_steps);
                    }
                }
            }
        }
        triangles
    }
}

/// Two-pointer sorted-merge intersection size; one comparison per step.
fn merge_count(a: &[u32], b: &[u32], steps: &mut u64) -> u64 {
    let (mut i, mut j, mut c) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        *steps += 1;
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// Galloping intersection: each element of the (sorted) short list is
/// located in the long one by exponential search from the previous hit
/// followed by binary search; every array read is one probe.
fn gallop_count(short: &[u32], long: &[u32], probes: &mut u64) -> u64 {
    let mut count = 0u64;
    let mut lo = 0usize;
    for &x in short {
        if lo >= long.len() {
            break;
        }
        // Exponential phase.
        let mut step = 1usize;
        let mut hi = lo;
        loop {
            *probes += 1;
            if long[hi] >= x {
                break;
            }
            lo = hi + 1;
            hi = (hi + step).min(long.len() - 1);
            step *= 2;
            if lo > hi {
                break;
            }
        }
        // Binary phase over [lo, hi].
        let mut l = lo;
        let mut r = hi + 1;
        while l < r {
            let m = (l + r) / 2;
            *probes += 1;
            if long[m] < x {
                l = m + 1;
            } else {
                r = m;
            }
        }
        lo = l;
        if lo < long.len() && long[lo] == x {
            count += 1;
            lo += 1;
        }
    }
    count
}

/// Triangles of the subgraph induced on `verts`, with op accounting.
fn tri_induced(g: &Graph, verts: &[u32], stats: &mut IntersectStats) -> u64 {
    if verts.len() < 3 {
        return 0;
    }
    let csr = OrientedCsr::build(g, verts, stats);
    csr.count_triangles(stats)
}

/// The per-ALS intersection count **and** its exact operation counts.
///
/// `triangles` equals [`count_als_fast`](crate::count::count_als_fast)
/// on the same ALS — the window-minus-second identity of the
/// [module docs](self) — while the op counters cover both induced
/// passes.
#[must_use]
pub fn als_stats(g: &Graph, als: &Als) -> IntersectStats {
    let mut stats = IntersectStats::default();
    let window_tri = tri_induced(g, als.window(), &mut stats);
    let second_tri = if als.is_last {
        0
    } else {
        tri_induced(g, &als.second, &mut stats)
    };
    stats.triangles = window_tri - second_tri;
    stats
}

/// The per-ALS intersection triangle count (bit-identical to
/// [`count_als_fast`](crate::count::count_als_fast)).
#[must_use]
pub fn count_als_intersect(g: &Graph, als: &Als) -> u64 {
    als_stats(g, als).triangles
}

/// Whole-graph intersection count: Σ [`count_als_intersect`] over every
/// ALS — bit-identical to [`als_fast`](crate::count::als_fast).
#[must_use]
pub fn intersect_count(g: &Graph) -> u64 {
    crate::als::build_als(g)
        .iter()
        .map(|a| count_als_intersect(g, a))
        .sum()
}

/// Whole-graph operation counts: the merged [`als_stats`] of every ALS.
#[must_use]
pub fn graph_stats(g: &Graph) -> IntersectStats {
    let mut total = IntersectStats::default();
    for a in &crate::als::build_als(g) {
        total.merge(&als_stats(g, a));
    }
    total
}

/// The intersection counting backend as a [`ChunkKernel`]: `Partial =
/// u64` like [`CountKernel`](crate::workload::CountKernel), but the
/// whole-ALS compute runs the degree-ordered intersection instead of the
/// fast combination walk. Because the per-ALS totals are bit-identical,
/// the kernel rides every executor — sampled-style pseudo-blocks, fault
/// recovery's host recompute, hybrid placement, fleet shards — and
/// always reproduces the serial count exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntersectKernel;

impl ChunkKernel for IntersectKernel {
    type Partial = u64;

    fn identity(&self) -> u64 {
        0
    }

    fn emit(&self, p: &mut u64, _g: &Graph, _als: &Als, _combo: &[u32]) {
        // The combination-walk fallback (e.g. an exhaustive fault-replay
        // origin) attributes exactly like CountKernel.
        *p += 1;
    }

    fn add_als(&self, p: &mut u64, g: &Graph, als: &Als) {
        *p = p.wrapping_add(count_als_intersect(g, als));
    }

    fn add_als_intersect(&self, p: &mut u64, g: &Graph, als: &Als) -> IntersectStats {
        let stats = als_stats(g, als);
        *p = p.wrapping_add(stats.triangles);
        stats
    }

    fn merge(&self, a: u64, b: u64) -> u64 {
        a.wrapping_add(b)
    }

    fn corrupt(&self, p: &mut u64, mask: u64) {
        *p ^= mask;
    }

    fn triangles_in(&self, p: &u64) -> u64 {
        *p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::als::build_als;
    use crate::count::count_als_fast;
    use trigon_graph::{gen, triangles, Graph};

    #[test]
    fn per_als_counts_match_the_combination_pipeline_exactly() {
        for seed in 0..6u64 {
            let g = gen::gnp(140, 0.08, seed);
            for a in &build_als(&g) {
                assert_eq!(
                    count_als_intersect(&g, a),
                    count_als_fast(&g, a),
                    "seed {seed} als {}",
                    a.index
                );
            }
        }
    }

    #[test]
    fn whole_graph_count_matches_every_reference() {
        for (label, g) in [
            ("gnp", gen::gnp(300, 0.05, 3)),
            ("ring", gen::community_ring(1200, 100, 0.25, 3, 7)),
            ("ws", gen::watts_strogatz(200, 8, 0.1, 1)),
            ("complete", gen::complete(24)),
            ("path", gen::path(10)),
        ] {
            assert_eq!(
                intersect_count(&g),
                triangles::count_edge_iterator(&g),
                "{label}"
            );
            assert_eq!(intersect_count(&g), crate::count::als_fast(&g), "{label}");
        }
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(intersect_count(&g), 0);
        let g = gen::path(2);
        assert_eq!(intersect_count(&g), 0);
    }

    #[test]
    fn all_three_kernels_fire_on_a_hub_heavy_graph() {
        // A dense core (hubs → bitmap), plus sparse satellite vertices
        // attached to the core (skewed ratios → galloping), plus the
        // core's own balanced pairs. Complete graph on 160: every
        // oriented out-degree up to 159 ≥ HUB_DEGREE.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for u in 0..160u32 {
            for v in (u + 1)..160 {
                edges.push((u, v));
            }
        }
        // Satellites 160..200 each attach to two core members.
        for (i, s) in (160u32..200).enumerate() {
            let a = (i as u32) % 160;
            edges.push((a, s));
            edges.push(((a + 1) % 160, s));
        }
        let g = Graph::from_edges(200, &edges).unwrap();
        let stats = graph_stats(&g);
        assert_eq!(stats.triangles, triangles::count_edge_iterator(&g));
        assert!(stats.bitmap_edges > 0, "bitmap kernel never selected");
        assert!(stats.gallop_edges > 0, "gallop kernel never selected");
        assert!(stats.merge_edges > 0, "merge kernel never selected");
        assert!(stats.ops() > 0);
    }

    #[test]
    fn stats_are_deterministic() {
        let g = gen::gnp(200, 0.06, 11);
        let a = graph_stats(&g);
        let b = graph_stats(&g);
        assert_eq!(a, b);
    }

    #[test]
    fn intersection_does_far_fewer_ops_than_combination_tests() {
        let g = gen::gnp(600, 16.0 / 600.0, 42);
        let stats = graph_stats(&g);
        let tests = crate::count::total_tests(&g);
        assert!(
            u128::from(stats.ops()) * 100 < tests,
            "ops {} should be <1% of the {tests} combination tests",
            stats.ops()
        );
    }

    #[test]
    fn kernel_matches_count_kernel_per_als() {
        use crate::workload::{ChunkKernel, CountKernel};
        let g = gen::gnp(150, 0.07, 9);
        for a in &build_als(&g) {
            let (mut fast, mut intersect, mut priced) = (0u64, 0u64, 0u64);
            CountKernel.add_als(&mut fast, &g, a);
            IntersectKernel.add_als(&mut intersect, &g, a);
            let stats = IntersectKernel.add_als_intersect(&mut priced, &g, a);
            assert_eq!(intersect, fast);
            assert_eq!(priced, fast);
            assert_eq!(stats, als_stats(&g, a));
        }
    }

    #[test]
    fn gallop_and_merge_agree_on_random_lists() {
        let mut rng = trigon_graph::Xoshiro256pp::seed_from_u64(7);
        for _ in 0..50 {
            let mut a: Vec<u32> = (0..20).map(|_| (rng.next_u64() % 500) as u32).collect();
            let mut b: Vec<u32> = (0..400).map(|_| (rng.next_u64() % 500) as u32).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let mut s1 = 0u64;
            let mut s2 = 0u64;
            assert_eq!(
                gallop_count(&a, &b, &mut s1),
                merge_count(&a, &b, &mut s2),
                "a={a:?} b={b:?}"
            );
            assert!(s1 > 0 || a.is_empty() || b.is_empty());
        }
    }
}
