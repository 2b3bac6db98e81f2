//! The `ChunkKernel` workload abstraction over the §V–§VII pipeline.
//!
//! The paper's pipeline — §V split into adjacent level sets, §VI LPT
//! block dispatch, §VII per-ALS combination kernel — is triangle-specific
//! only at the *last* step: the per-combination test and the accumulator
//! it feeds. §VII itself names clustering coefficient and transitivity as
//! applications of the same enumeration. This module factors that last
//! step into a trait, [`ChunkKernel`]: per-ALS compute producing a
//! commutative, associatively-reducible *partial* (a count, a per-vertex
//! accumulator, an edge-support array, a triangle list) plus a
//! deterministic merge. Everything upstream — layout, capacity checks,
//! warp pricing, fault injection and recovery, fleet sharding, tracing —
//! is workload-agnostic and routes through the trait, so each workload
//! inherits the whole execution stack.
//!
//! Four kernels ship:
//!
//! * [`CountKernel`] — the original triangle count (`Partial = u64`);
//!   bit-identical to the pre-trait pipeline.
//! * [`EnumerateKernel`] — §VII listing mode: every triangle exactly
//!   once, as canonical `u < v < w` global triples.
//! * [`ClusteringKernel`] — per-vertex triangle counts, from which the
//!   clustering coefficients `2·tᵢ / (dᵢ(dᵢ−1))` and the global
//!   transitivity `3T / wedges` follow.
//! * [`KTrussKernel`] — per-edge triangle support, the input of the
//!   [`k_truss_from_support`] peeling loop.
//!
//! # The contract
//!
//! A kernel must satisfy three laws, relied on by the executor:
//!
//! 1. **Purity** — [`ChunkKernel::emit`] and [`ChunkKernel::add_als`]
//!    depend only on their arguments; the same combination (or ALS)
//!    always contributes the same update.
//! 2. **Commutative, associative merge** — [`ChunkKernel::merge`] over
//!    any grouping/order of the same per-ALS partials yields a partial
//!    that is *semantically* equal; partials whose in-memory order can
//!    vary (e.g. triangle lists) are canonicalized by
//!    [`ChunkKernel::finalize`] before use, making the end-to-end result
//!    bit-identical across serial, parallel, simulated-GPU, and fleet
//!    execution.
//! 3. **Merge determinism** — the executors always fold partials in a
//!    canonical order (block order, shard order), so even a merge that is
//!    only commutative *after* `finalize` reduces deterministically. The
//!    host folds split the ALS list into one contiguous range per pool
//!    lane, accumulate each range in place in ALS order, and merge the
//!    lane partials in range order: the serial fold's exact result —
//!    enumeration's list order included — at every thread width.

use std::collections::VecDeque;
use std::ops::Range;

use crate::als::{build_als, Als};
use crate::count::count_als_fast;
use crate::error::Error;
use crate::intersect::IntersectStats;
use rayon::prelude::*;
use trigon_graph::Graph;

/// The analyses the pipeline can run — the CLI's `--workload` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Exact triangle count (the paper's headline workload).
    Triangles,
    /// `k`-clique count over the widened combination spaces (§III).
    KCliques(u32),
    /// Per-vertex clustering coefficients + global transitivity (§VII).
    Clustering,
    /// `k`-truss decomposition by iterative support peeling.
    KTruss(u32),
    /// Triangle enumeration: every triangle listed exactly once.
    Enumerate,
}

impl Workload {
    /// Parses a CLI workload name; `k` feeds the parameterized workloads
    /// (default 4 for both `kcount` and `ktruss`).
    ///
    /// # Errors
    ///
    /// [`Error::BadConfig`] on an unknown name.
    pub fn parse(name: &str, k: Option<u32>) -> Result<Self, Error> {
        match name {
            "triangles" | "tri" => Ok(Workload::Triangles),
            "kcount" | "cliques" | "kcliques" => Ok(Workload::KCliques(k.unwrap_or(4))),
            "clustering" | "cc" => Ok(Workload::Clustering),
            "ktruss" | "truss" => Ok(Workload::KTruss(k.unwrap_or(4))),
            "enumerate" | "enum" | "list" => Ok(Workload::Enumerate),
            other => Err(Error::bad_config(format!(
                "unknown workload {other:?} (expected triangles|kcount|clustering|ktruss|enumerate)"
            ))),
        }
    }

    /// The canonical CLI/JSON name.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Workload::Triangles => "triangles",
            Workload::KCliques(_) => "kcount",
            Workload::Clustering => "clustering",
            Workload::KTruss(_) => "ktruss",
            Workload::Enumerate => "enumerate",
        }
    }
}

/// Per-ALS workload kernel: what the §VII combination enumeration feeds.
///
/// See the [module docs](self) for the purity/commutativity/determinism
/// contract. Implementations are cheap handles (a unit struct or a small
/// index) shared by reference across worker threads.
pub trait ChunkKernel: Sync {
    /// The associatively-reducible per-chunk result.
    type Partial: Clone + Send + Sync + 'static;

    /// The merge identity (an empty partial).
    fn identity(&self) -> Self::Partial;

    /// Records one *confirmed* triangle (or `k`-clique) into `p`.
    ///
    /// `combo` holds the combination's **ALS-local** window indices, in
    /// cursor order; kernels needing global vertex ids map through
    /// [`Als::global_id`]. The executor has already verified every pair
    /// is an edge — `emit` never re-tests.
    fn emit(&self, p: &mut Self::Partial, g: &Graph, als: &Als, combo: &[u32]);

    /// Adds the whole ALS into `p`, host-computed — the same update as
    /// every per-block [`emit`](Self::emit) walk over the ALS (after
    /// [`finalize`](Self::finalize)). Used by the host folds, the hybrid
    /// count, the sampled fidelity mode and fault recovery's host
    /// recompute.
    fn add_als(&self, p: &mut Self::Partial, g: &Graph, als: &Als) {
        add_als_by_walk(self, p, g, als);
    }

    /// Adds the whole ALS into `p`, as [`add_als`](Self::add_als) does,
    /// and returns the degree-ordered intersection's operation counts
    /// for it — what the intersection methods price. The default runs
    /// both passes; [`IntersectKernel`](crate::intersect::IntersectKernel)
    /// takes its count from the one [`als_stats`](crate::intersect::als_stats)
    /// pass that yields the counts.
    fn add_als_intersect(&self, p: &mut Self::Partial, g: &Graph, als: &Als) -> IntersectStats {
        self.add_als(p, g, als);
        crate::intersect::als_stats(g, als)
    }

    /// Deterministic, associative merge of two partials.
    #[must_use]
    fn merge(&self, a: Self::Partial, b: Self::Partial) -> Self::Partial;

    /// Applies a deterministic ECC-style corruption — the simulated
    /// device's bit flips on a read of the partial. Must change the
    /// partial for any nonzero `mask` whenever the partial has at least
    /// one slot to corrupt.
    fn corrupt(&self, p: &mut Self::Partial, mask: u64);

    /// Canonicalizes a fully-merged partial (e.g. sorts a triangle
    /// list). Called once, after the final reduction; the default is a
    /// no-op.
    fn finalize(&self, p: &mut Self::Partial) {
        let _ = p;
    }

    /// The triangle count a partial implies — the workload-agnostic
    /// summary the executor reports in
    /// [`GpuRunResult::triangles`](crate::gpu_exec::GpuRunResult).
    fn triangles_in(&self, p: &Self::Partial) -> u64;
}

/// Reference per-ALS compute: the faithful Algorithm 2 walk — every
/// `GenNxtComb` mode stream, each combination edge-tested, survivors
/// emitted into `p`. This is the default [`ChunkKernel::add_als`];
/// kernels override it with the fast window lister, and the override
/// must agree with this walk (the attribution-set equality the counting
/// pipeline pins per ALS).
pub fn add_als_by_walk<K: ChunkKernel + ?Sized>(
    kernel: &K,
    p: &mut K::Partial,
    g: &Graph,
    als: &Als,
) {
    let space = als.space(3);
    for &mode in als.modes() {
        let mut cur = space.cursor(mode);
        while let Some(c) = cur.current() {
            if als.edge(g, c[0], c[1]) && als.edge(g, c[0], c[2]) && als.edge(g, c[1], c[2]) {
                kernel.emit(p, g, als, c);
            }
            if !cur.advance() {
                break;
            }
        }
    }
}

/// Folds every ALS of `als` into one partial on all lanes of the
/// current pool: one contiguous range of about equal window degree sum
/// per lane, each accumulated in place, in ALS order, by `add`; then the
/// lane partials merge in range order. That reproduces the serial fold
/// bit for bit (law 3 of the [module docs](self)) at every width, and a
/// one-lane pool runs inline. `add`'s per-ALS returns come back in ALS
/// order.
pub(crate) fn fold_als<K, S, F>(kernel: &K, g: &Graph, als: &[Als], add: F) -> (K::Partial, Vec<S>)
where
    K: ChunkKernel,
    S: Send,
    F: Fn(&mut K::Partial, &Als) -> S + Sync,
{
    let lanes: Vec<(K::Partial, Vec<S>)> = lane_ranges(g, als, rayon::current_num_threads())
        .par_iter()
        .map(|r| {
            let mut p = kernel.identity();
            let per_als = als[r.clone()].iter().map(|a| add(&mut p, a)).collect();
            (p, per_als)
        })
        .collect();
    let mut per_als = Vec::with_capacity(als.len());
    let partial = lanes
        .into_iter()
        .map(|(p, s)| {
            per_als.extend(s);
            p
        })
        .reduce(|a, b| kernel.merge(a, b))
        .unwrap_or_else(|| kernel.identity());
    (partial, per_als)
}

/// Cuts `als` into at most `lanes` non-empty contiguous ranges of about
/// equal cost, an ALS's cost being its window's degree sum (the edges
/// its per-ALS compute scans).
fn lane_ranges(g: &Graph, als: &[Als], lanes: usize) -> Vec<Range<usize>> {
    let mut ranges = Vec::with_capacity(lanes);
    let mut start = 0;
    if lanes > 1 {
        let cost: Vec<u64> = als
            .iter()
            .map(|a| 1 + a.window().iter().map(|&v| g.degree(v) as u64).sum::<u64>())
            .collect();
        let total: u64 = cost.iter().sum();
        let mut acc = 0u64;
        for (i, c) in cost.iter().enumerate() {
            acc += c;
            if ranges.len() + 1 < lanes && acc * lanes as u64 >= total * (ranges.len() as u64 + 1) {
                ranges.push(start..i + 1);
                start = i + 1;
            }
        }
    }
    if start < als.len() {
        ranges.push(start..als.len());
    }
    ranges
}

/// Fast per-ALS triangle listing with the counting pipeline's attribution
/// semantics: calls `f(u, v, w)` (global ids, `u < v < w`) exactly for
/// the triangles [`count_als_fast`] counts in this ALS — a window
/// triangle is attributed here iff it touches the first level, or the
/// ALS is last and the triangle lies entirely in the second level.
pub fn for_each_als_triangle(g: &Graph, als: &Als, mut f: impl FnMut(u32, u32, u32)) {
    for &u in als.window() {
        let u_first = als.in_first(u);
        let nu = g.neighbors(u);
        for &v in nu {
            if v <= u || !als.in_window(v) {
                continue;
            }
            let uv_first = u_first || als.in_first(v);
            let nv = g.neighbors(v);
            let mut i = nu.partition_point(|&x| x <= v);
            let mut j = nv.partition_point(|&x| x <= v);
            while i < nu.len() && j < nv.len() {
                match nu[i].cmp(&nv[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let w = nu[i];
                        if als.in_window(w) && (uv_first || als.in_first(w) || als.is_last) {
                            f(u, v, w);
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
}

/// Maps an ALS-local combination to its sorted global triangle.
fn global_triple(als: &Als, combo: &[u32]) -> [u32; 3] {
    let mut t = [
        als.global_id(combo[0]),
        als.global_id(combo[1]),
        als.global_id(combo[2]),
    ];
    t.sort_unstable();
    t
}

/// The original triangle (and `k`-clique) *count* workload.
///
/// `Partial = u64`; `emit` is a bare increment, so the generic executor
/// compiles down to exactly the pre-trait counting loop — bit-identical
/// results at identical cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountKernel;

impl ChunkKernel for CountKernel {
    type Partial = u64;

    fn identity(&self) -> u64 {
        0
    }

    fn emit(&self, p: &mut u64, _g: &Graph, _als: &Als, _combo: &[u32]) {
        *p += 1;
    }

    fn add_als(&self, p: &mut u64, g: &Graph, als: &Als) {
        *p = p.wrapping_add(count_als_fast(g, als));
    }

    fn merge(&self, a: u64, b: u64) -> u64 {
        // Corrupted (unrecovered) partials are arbitrary u64s: wrap
        // instead of overflowing; the no-fault sum is far below the wrap
        // point.
        a.wrapping_add(b)
    }

    fn corrupt(&self, p: &mut u64, mask: u64) {
        *p ^= mask;
    }

    fn triangles_in(&self, p: &u64) -> u64 {
        *p
    }
}

/// §VII listing mode: every triangle exactly once, as canonical
/// `u < v < w` global triples. Merge concatenates; [`finalize`] sorts,
/// so the final list is identical whatever order blocks or shards
/// completed in.
///
/// [`finalize`]: ChunkKernel::finalize
#[derive(Debug, Clone, Copy, Default)]
pub struct EnumerateKernel;

impl ChunkKernel for EnumerateKernel {
    type Partial = Vec<[u32; 3]>;

    fn identity(&self) -> Vec<[u32; 3]> {
        Vec::new()
    }

    fn emit(&self, p: &mut Vec<[u32; 3]>, _g: &Graph, als: &Als, combo: &[u32]) {
        p.push(global_triple(als, combo));
    }

    fn add_als(&self, p: &mut Vec<[u32; 3]>, g: &Graph, als: &Als) {
        for_each_als_triangle(g, als, |u, v, w| p.push([u, v, w]));
    }

    fn merge(&self, mut a: Vec<[u32; 3]>, mut b: Vec<[u32; 3]>) -> Vec<[u32; 3]> {
        a.append(&mut b);
        a
    }

    fn corrupt(&self, p: &mut Vec<[u32; 3]>, mask: u64) {
        if mask == 0 {
            return;
        }
        if p.is_empty() {
            // A phantom triple: the corruption must be visible even on an
            // empty partial.
            p.push([mask as u32, (mask >> 16) as u32, (mask >> 32) as u32]);
        } else {
            let i = (mask as usize) % p.len();
            p[i][0] ^= mask as u32;
        }
    }

    fn finalize(&self, p: &mut Vec<[u32; 3]>) {
        p.sort_unstable();
    }

    fn triangles_in(&self, p: &Vec<[u32; 3]>) -> u64 {
        p.len() as u64
    }
}

/// Per-vertex triangle counts (`Partial = Vec<u64>`, indexed by global
/// vertex id): each confirmed triangle increments its three corners.
/// Clustering coefficients and transitivity derive from the merged
/// counts via [`clustering_coefficients_from_counts`] and
/// [`transitivity_from_count`].
#[derive(Debug, Clone, Copy)]
pub struct ClusteringKernel {
    n: usize,
}

impl ClusteringKernel {
    /// A kernel sized for `g`'s vertex set.
    #[must_use]
    pub fn new(g: &Graph) -> Self {
        Self { n: g.n() as usize }
    }
}

impl ChunkKernel for ClusteringKernel {
    type Partial = Vec<u64>;

    fn identity(&self) -> Vec<u64> {
        vec![0; self.n]
    }

    fn emit(&self, p: &mut Vec<u64>, _g: &Graph, als: &Als, combo: &[u32]) {
        for v in global_triple(als, combo) {
            p[v as usize] = p[v as usize].wrapping_add(1);
        }
    }

    fn add_als(&self, p: &mut Vec<u64>, g: &Graph, als: &Als) {
        for_each_als_triangle(g, als, |u, v, w| {
            for x in [u, v, w] {
                p[x as usize] = p[x as usize].wrapping_add(1);
            }
        });
    }

    fn merge(&self, mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
        for (x, y) in a.iter_mut().zip(b) {
            *x = x.wrapping_add(y);
        }
        a
    }

    fn corrupt(&self, p: &mut Vec<u64>, mask: u64) {
        if !p.is_empty() {
            let i = (mask as usize) % p.len();
            p[i] ^= mask;
        }
    }

    fn triangles_in(&self, p: &Vec<u64>) -> u64 {
        p.iter().fold(0u64, |acc, &c| acc.wrapping_add(c)) / 3
    }
}

/// Per-edge triangle support (`Partial = Vec<u64>`, indexed by
/// [`EdgeIndex`] edge id): each confirmed triangle increments its three
/// edges. The merged supports seed the [`k_truss_from_support`] peeling.
#[derive(Debug, Clone)]
pub struct KTrussKernel {
    idx: EdgeIndex,
}

impl KTrussKernel {
    /// A kernel over `g`'s edge index.
    #[must_use]
    pub fn new(g: &Graph) -> Self {
        Self {
            idx: EdgeIndex::build(g),
        }
    }

    /// The edge index the support array is addressed by.
    #[must_use]
    pub fn index(&self) -> &EdgeIndex {
        &self.idx
    }
}

impl ChunkKernel for KTrussKernel {
    type Partial = Vec<u64>;

    fn identity(&self) -> Vec<u64> {
        vec![0; self.idx.len()]
    }

    fn emit(&self, p: &mut Vec<u64>, g: &Graph, als: &Als, combo: &[u32]) {
        let [u, v, w] = global_triple(als, combo);
        for (a, b) in [(u, v), (u, w), (v, w)] {
            let e = self.idx.id(g, a, b);
            p[e] = p[e].wrapping_add(1);
        }
    }

    fn add_als(&self, p: &mut Vec<u64>, g: &Graph, als: &Als) {
        for_each_als_triangle(g, als, |u, v, w| {
            for (a, b) in [(u, v), (u, w), (v, w)] {
                let e = self.idx.id(g, a, b);
                p[e] = p[e].wrapping_add(1);
            }
        });
    }

    fn merge(&self, mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
        for (x, y) in a.iter_mut().zip(b) {
            *x = x.wrapping_add(y);
        }
        a
    }

    fn corrupt(&self, p: &mut Vec<u64>, mask: u64) {
        if !p.is_empty() {
            let i = (mask as usize) % p.len();
            p[i] ^= mask;
        }
    }

    fn triangles_in(&self, p: &Vec<u64>) -> u64 {
        p.iter().fold(0u64, |acc, &c| acc.wrapping_add(c)) / 3
    }
}

/// Dense edge ids over a graph's sorted adjacency: undirected edge
/// `(u, v)` with `u < v` gets id `prefix[u] + rank of v among u's
/// neighbors above u` — the order `Graph::edges`-style enumeration
/// visits them in. `O(1)` storage per vertex, `O(log d)` id lookups.
#[derive(Debug, Clone)]
pub struct EdgeIndex {
    prefix: Vec<u64>,
}

impl EdgeIndex {
    /// Builds the index for `g`.
    #[must_use]
    pub fn build(g: &Graph) -> Self {
        let n = g.n() as usize;
        let mut prefix = vec![0u64; n + 1];
        for u in 0..n {
            let nu = g.neighbors(u as u32);
            let above = nu.len() - nu.partition_point(|&x| x <= u as u32);
            prefix[u + 1] = prefix[u] + above as u64;
        }
        Self { prefix }
    }

    /// Number of undirected edges indexed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.prefix.last().copied().unwrap_or(0) as usize
    }

    /// Whether the graph has no edges.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The id of edge `(u, v)`, `u < v`; the edge must exist in `g`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `(u, v)` is not an edge of `g`.
    #[must_use]
    pub fn id(&self, g: &Graph, u: u32, v: u32) -> usize {
        debug_assert!(u < v, "edge ids address (u, v) with u < v");
        let nu = g.neighbors(u);
        let base = nu.partition_point(|&x| x <= u);
        let pos = nu[base..].partition_point(|&x| x < v);
        debug_assert_eq!(nu.get(base + pos), Some(&v), "({u}, {v}) must be an edge");
        self.prefix[u as usize] as usize + pos
    }

    /// All edges in id order: `edges(g)[e]` is the `(u, v)` pair with
    /// [`id`](Self::id)` == e`.
    #[must_use]
    pub fn edges(&self, g: &Graph) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.len());
        for u in 0..g.n() {
            let nu = g.neighbors(u);
            for &v in &nu[nu.partition_point(|&x| x <= u)..] {
                out.push((u, v));
            }
        }
        out
    }
}

/// Outcome of the `k`-truss peeling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KTrussResult {
    /// Per-edge survival, indexed by [`EdgeIndex`] id.
    pub alive: Vec<bool>,
    /// Edges in the `k`-truss.
    pub kept: u64,
    /// Edges peeled away.
    pub peeled: u64,
}

/// Peels a support array down to the `k`-truss: repeatedly remove any
/// edge in fewer than `k − 2` surviving triangles, decrementing the
/// support of the two co-edges of each triangle the removal destroys.
/// The worklist is seeded and drained in edge-id order, and the k-truss
/// is unique, so the result is deterministic.
#[must_use]
pub fn k_truss_from_support(g: &Graph, idx: &EdgeIndex, support: &[u64], k: u32) -> KTrussResult {
    let thresh = u64::from(k.saturating_sub(2));
    let m = support.len();
    let mut sup = support.to_vec();
    let mut alive = vec![true; m];
    let edges = idx.edges(g);
    let mut queue: VecDeque<usize> = (0..m).filter(|&e| sup[e] < thresh).collect();
    let mut peeled = 0u64;
    while let Some(e) = queue.pop_front() {
        if !alive[e] {
            continue;
        }
        alive[e] = false;
        peeled += 1;
        let (u, v) = edges[e];
        let nu = g.neighbors(u);
        let nv = g.neighbors(v);
        let (mut i, mut j) = (0, 0);
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let w = nu[i];
                    i += 1;
                    j += 1;
                    let e1 = idx.id(g, u.min(w), u.max(w));
                    let e2 = idx.id(g, v.min(w), v.max(w));
                    // Only a triangle all three of whose edges survive is
                    // destroyed by removing e.
                    if alive[e1] && alive[e2] {
                        sup[e1] = sup[e1].saturating_sub(1);
                        sup[e2] = sup[e2].saturating_sub(1);
                        if sup[e1] < thresh {
                            queue.push_back(e1);
                        }
                        if sup[e2] < thresh {
                            queue.push_back(e2);
                        }
                    }
                }
            }
        }
    }
    let kept = alive.iter().filter(|&&a| a).count() as u64;
    KTrussResult {
        alive,
        kept,
        peeled,
    }
}

/// Convenience: the `k`-truss of `g`, computing supports through the
/// ALS pipeline ([`KTrussKernel`] merged over every level set).
#[must_use]
pub fn k_truss(g: &Graph, k: u32) -> KTrussResult {
    let kern = KTrussKernel::new(g);
    let mut sup = kern.identity();
    for a in build_als(g) {
        kern.add_als(&mut sup, g, &a);
    }
    k_truss_from_support(g, kern.index(), &sup, k)
}

/// Clustering coefficients from merged per-vertex triangle counts:
/// `cᵢ = 2·tᵢ / (dᵢ(dᵢ−1))`, 0 for degree < 2.
#[must_use]
pub fn clustering_coefficients_from_counts(g: &Graph, local: &[u64]) -> Vec<f64> {
    (0..g.n() as usize)
        .map(|v| {
            let d = g.neighbors(v as u32).len() as u64;
            if d < 2 {
                0.0
            } else {
                2.0 * local[v] as f64 / (d * (d - 1)) as f64
            }
        })
        .collect()
}

/// Mean of a coefficient vector (0 for an empty graph).
#[must_use]
pub fn mean_clustering(cc: &[f64]) -> f64 {
    if cc.is_empty() {
        0.0
    } else {
        cc.iter().sum::<f64>() / cc.len() as f64
    }
}

/// Global transitivity from a triangle count: `3T / wedges`, with
/// `wedges = Σ dᵢ(dᵢ−1)/2`; 0 when the graph has no wedge.
#[must_use]
pub fn transitivity_from_count(g: &Graph, triangles: u64) -> f64 {
    let wedges: u64 = (0..g.n())
        .map(|v| {
            let d = g.neighbors(v).len() as u64;
            d * d.saturating_sub(1) / 2
        })
        .sum();
    if wedges == 0 {
        0.0
    } else {
        3.0 * triangles as f64 / wedges as f64
    }
}

/// Order-independent FNV-1a checksum of a *sorted* triple list — the
/// compact fingerprint `RunReport` carries for enumeration runs.
#[must_use]
pub fn triangle_checksum(triples: &[[u32; 3]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in triples {
        for &x in t {
            h ^= u64::from(x);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use trigon_graph::{gen, triangles};

    /// One ALS's partial through the kernel's fast in-place compute.
    fn fast_partial<K: ChunkKernel>(kern: &K, g: &Graph, als: &Als) -> K::Partial {
        let mut p = kern.identity();
        kern.add_als(&mut p, g, als);
        p
    }

    /// One ALS's partial through the faithful Algorithm 2 walk.
    fn walked_partial<K: ChunkKernel>(kern: &K, g: &Graph, als: &Als) -> K::Partial {
        let mut p = kern.identity();
        add_als_by_walk(kern, &mut p, g, als);
        p
    }

    #[test]
    fn workload_parse_roundtrips() {
        for (name, k, expect) in [
            ("triangles", None, Workload::Triangles),
            ("kcount", Some(5), Workload::KCliques(5)),
            ("kcount", None, Workload::KCliques(4)),
            ("clustering", None, Workload::Clustering),
            ("ktruss", Some(3), Workload::KTruss(3)),
            ("enumerate", None, Workload::Enumerate),
        ] {
            let w = Workload::parse(name, k).unwrap();
            assert_eq!(w, expect);
            assert_eq!(Workload::parse(w.label(), k).unwrap(), expect);
        }
        assert!(Workload::parse("frobnicate", None).is_err());
    }

    #[test]
    fn fast_lister_matches_exhaustive_walk_per_als() {
        // The attribution-set equality every override relies on: the
        // fast window lister and the faithful Algorithm 2 walk visit the
        // same triangle set, ALS by ALS.
        for seed in 0..4u64 {
            let g = gen::gnp(60, 0.1, seed);
            let kern = EnumerateKernel;
            for als in build_als(&g) {
                let mut walked = walked_partial(&kern, &g, &als);
                let mut fast = fast_partial(&kern, &g, &als);
                walked.sort_unstable();
                fast.sort_unstable();
                assert_eq!(walked, fast, "seed {seed} als {}", als.index);
            }
        }
    }

    #[test]
    fn count_kernel_matches_fast_count() {
        for seed in 0..3u64 {
            let g = gen::gnp(70, 0.1, seed);
            let kern = CountKernel;
            let mut total = kern.identity();
            for als in build_als(&g) {
                // Exhaustive emit walk and the fast override agree.
                assert_eq!(
                    walked_partial(&kern, &g, &als),
                    fast_partial(&kern, &g, &als)
                );
                kern.add_als(&mut total, &g, &als);
            }
            assert_eq!(total, triangles::count_brute_force(&g), "seed {seed}");
        }
    }

    #[test]
    fn lane_folds_reproduce_the_serial_fold_at_every_width() {
        // Enumeration's unsorted list is the strictest witness: any
        // reordering of ALS or lanes shows before `finalize`.
        let g = gen::community_ring(1200, 60, 0.25, 3, 4);
        let als = build_als(&g);
        let kern = EnumerateKernel;
        let mut serial = kern.identity();
        for a in &als {
            kern.add_als(&mut serial, &g, a);
        }
        for width in 1..=5 {
            let (folded, per_als) = rayon::ThreadPool::new(width).install(|| {
                fold_als(&kern, &g, &als, |p, a| {
                    kern.add_als(p, &g, a);
                    a.index
                })
            });
            assert_eq!(folded, serial, "width {width}");
            assert_eq!(per_als, (0..als.len()).collect::<Vec<_>>(), "width {width}");
            let ranges = lane_ranges(&g, &als, width);
            assert!(ranges.len() <= width && ranges.iter().all(|r| !r.is_empty()));
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
            assert_eq!(ranges.last().map(|r| r.end), Some(als.len()));
        }
    }

    /// Wraps a kernel and counts, on every lane, its whole-ALS computes:
    /// `add_als` calls and `add_als_intersect` calls (each of which is
    /// one [`als_stats`](crate::intersect::als_stats) pass).
    struct PassCounter<K> {
        inner: K,
        adds: std::sync::atomic::AtomicUsize,
        intersects: std::sync::atomic::AtomicUsize,
    }

    impl<K: ChunkKernel> PassCounter<K> {
        fn new(inner: K) -> Self {
            Self {
                inner,
                adds: 0.into(),
                intersects: 0.into(),
            }
        }

        /// `(add_als, add_als_intersect)` calls so far; resets both.
        fn take(&self) -> (usize, usize) {
            use std::sync::atomic::Ordering::SeqCst;
            (self.adds.swap(0, SeqCst), self.intersects.swap(0, SeqCst))
        }
    }

    impl<K: ChunkKernel> ChunkKernel for PassCounter<K> {
        type Partial = K::Partial;

        fn identity(&self) -> K::Partial {
            self.inner.identity()
        }

        fn emit(&self, p: &mut K::Partial, g: &Graph, als: &Als, combo: &[u32]) {
            self.inner.emit(p, g, als, combo);
        }

        fn add_als(&self, p: &mut K::Partial, g: &Graph, als: &Als) {
            self.adds.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.inner.add_als(p, g, als);
        }

        fn add_als_intersect(&self, p: &mut K::Partial, g: &Graph, als: &Als) -> IntersectStats {
            self.intersects
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.inner.add_als_intersect(p, g, als)
        }

        fn merge(&self, a: K::Partial, b: K::Partial) -> K::Partial {
            self.inner.merge(a, b)
        }

        fn corrupt(&self, p: &mut K::Partial, mask: u64) {
            self.inner.corrupt(p, mask);
        }

        fn triangles_in(&self, p: &K::Partial) -> u64 {
            self.inner.triangles_in(p)
        }
    }

    #[test]
    fn every_executor_computes_each_als_once() {
        use crate::gpu_exec::{run_workload_traced_with_als, GpuConfig};
        use crate::hybrid::{run_hybrid_workload_traced, HybridConfig};
        use crate::intersect::IntersectKernel;
        use crate::pipeline::{run_workload_traced, CountMethod};
        use crate::timemodel::CostModel;
        use trigon_gpu_sim::DeviceSpec;
        use trigon_telemetry::{Collector, Level, Tracer};

        let g = gen::community_ring(400, 25, 0.25, 3, 6);
        let als = build_als(&g);
        let n = als.len();
        assert!(n > 8, "the ring must have many ALS, got {n}");
        // Sampled mode skips the ALS whose combination space is empty
        // (they hold no triangle).
        let sampled = als.iter().filter(|a| a.test_count(3) > 0).count();
        let count = PassCounter::new(CountKernel);
        let intersect = PassCounter::new(IntersectKernel);
        let dev = DeviceSpec::c2050();
        rayon::ThreadPool::new(2).install(|| {
            for level in [Level::Off, Level::Trace] {
                let tracer = Tracer::with_level(level);
                let mut c = Collector::with_level(level);
                for (method, want) in [
                    (CountMethod::CpuExhaustive, (0, 0)),
                    (CountMethod::CpuFast, (n, 0)),
                    (CountMethod::CpuIntersect, (0, n)),
                ] {
                    let cost = CostModel::default();
                    let _ = run_workload_traced(&g, &als, method, &cost, &count, &mut c, &tracer);
                    assert_eq!(count.take(), want, "{method:?} at {level:?}");
                }
                let cost = CostModel::default();
                let _ = run_workload_traced(
                    &g,
                    &als,
                    CountMethod::CpuIntersect,
                    &cost,
                    &intersect,
                    &mut c,
                    &tracer,
                );
                assert_eq!(intersect.take(), (0, n), "cpu-intersect at {level:?}");
                let _ = run_hybrid_workload_traced(
                    &g,
                    &als,
                    &HybridConfig::new(dev.clone()),
                    &count,
                    &mut c,
                    &tracer,
                );
                assert_eq!(count.take(), (n, 0), "hybrid at {level:?}");
                for (cfg, want) in [
                    (GpuConfig::optimized(dev.clone()), (0, 0)),
                    (GpuConfig::optimized(dev.clone()).sampled(), (sampled, 0)),
                    (GpuConfig::intersect(dev.clone()), (0, n)),
                ] {
                    let _ = run_workload_traced_with_als(&g, &als, &cfg, &count, &mut c, &tracer)
                        .unwrap();
                    assert_eq!(count.take(), want, "{:?} at {level:?}", cfg.mode);
                }
                let cfg = GpuConfig::intersect(dev.clone());
                let _ = run_workload_traced_with_als(&g, &als, &cfg, &intersect, &mut c, &tracer)
                    .unwrap();
                assert_eq!(intersect.take(), (0, n), "gpu-intersect at {level:?}");
            }
        });
    }

    #[test]
    fn enumerate_kernel_lists_every_triangle_once() {
        for seed in 0..3u64 {
            let g = gen::gnp(60, 0.12, seed);
            let kern = EnumerateKernel;
            let mut all = kern.identity();
            for als in build_als(&g) {
                kern.add_als(&mut all, &g, &als);
            }
            kern.finalize(&mut all);
            let ours: BTreeSet<(u32, u32, u32)> = all.iter().map(|t| (t[0], t[1], t[2])).collect();
            assert_eq!(ours.len(), all.len(), "no duplicates, seed {seed}");
            let mut reference = BTreeSet::new();
            triangles::list_triangles(&g, |u, v, w| {
                reference.insert((u, v, w));
            });
            assert_eq!(ours, reference, "seed {seed}");
        }
    }

    #[test]
    fn clustering_kernel_matches_local_counts() {
        for seed in 0..3u64 {
            let g = gen::gnp(80, 0.08, seed);
            let kern = ClusteringKernel::new(&g);
            let mut counts = kern.identity();
            for als in build_als(&g) {
                kern.add_als(&mut counts, &g, &als);
            }
            assert_eq!(counts, triangles::local_counts(&g), "seed {seed}");
            let cc = clustering_coefficients_from_counts(&g, &counts);
            assert_eq!(cc, triangles::clustering_coefficients(&g));
            let t = kern.triangles_in(&counts);
            assert_eq!(t, triangles::count_brute_force(&g));
            assert!((transitivity_from_count(&g, t) - triangles::transitivity(&g)).abs() < 1e-12);
        }
    }

    #[test]
    fn edge_index_roundtrips() {
        let g = gen::gnp(50, 0.15, 1);
        let idx = EdgeIndex::build(&g);
        assert_eq!(idx.len(), g.m());
        let edges = idx.edges(&g);
        for (e, &(u, v)) in edges.iter().enumerate() {
            assert!(u < v);
            assert_eq!(idx.id(&g, u, v), e);
        }
    }

    #[test]
    fn ktruss_kernel_supports_sum_to_3t() {
        let g = gen::gnp(60, 0.12, 2);
        let kern = KTrussKernel::new(&g);
        let mut sup = kern.identity();
        for als in build_als(&g) {
            kern.add_als(&mut sup, &g, &als);
        }
        let total: u64 = sup.iter().sum();
        assert_eq!(total, 3 * triangles::count_brute_force(&g));
        assert_eq!(kern.triangles_in(&sup), triangles::count_brute_force(&g));
    }

    #[test]
    fn ktruss_on_complete_graph() {
        // Every edge of K6 is in 4 triangles: the whole graph is a
        // 6-truss, and nothing survives k = 7.
        let g = gen::complete(6);
        let six = k_truss(&g, 6);
        assert_eq!(six.kept, 15);
        assert_eq!(six.peeled, 0);
        let seven = k_truss(&g, 7);
        assert_eq!(seven.kept, 0);
        assert_eq!(seven.peeled, 15);
    }

    #[test]
    fn ktruss_cascade_peels_pendant_triangles() {
        // Two K4s sharing one vertex plus a pendant triangle: k = 4
        // keeps exactly the K4 edges.
        let mut edges = Vec::new();
        for c in 0..2u32 {
            let base = c * 3; // vertices {0,1,2,6} and {3,4,5,6}
            let vs = [base, base + 1, base + 2, 6];
            for i in 0..4 {
                for j in i + 1..4 {
                    edges.push((vs[i], vs[j]));
                }
            }
        }
        edges.extend([(7, 8), (8, 9), (7, 9), (6, 7)]); // pendant triangle + bridge
        let g = Graph::from_edges(10, &edges).unwrap();
        let r = k_truss(&g, 4);
        assert_eq!(r.kept, 12, "both K4s survive, triangle and bridge peel");
    }

    #[test]
    fn corruption_is_visible_and_deterministic() {
        let g = gen::gnp(40, 0.15, 3);
        let count = CountKernel;
        let mut c = 7u64;
        count.corrupt(&mut c, 0xFF);
        assert_ne!(c, 7);
        let en = EnumerateKernel;
        let mut e: Vec<[u32; 3]> = vec![[1, 2, 3]];
        let mut e2 = e.clone();
        en.corrupt(&mut e, 0xABCD);
        en.corrupt(&mut e2, 0xABCD);
        assert_ne!(e, vec![[1, 2, 3]]);
        assert_eq!(e, e2, "same mask, same corruption");
        let mut empty: Vec<[u32; 3]> = Vec::new();
        en.corrupt(&mut empty, 0xABCD);
        assert!(!empty.is_empty(), "corruption visible on empty partial");
        let cl = ClusteringKernel::new(&g);
        let mut p = cl.identity();
        cl.corrupt(&mut p, 0x1234);
        assert_ne!(p, cl.identity());
    }

    #[test]
    fn checksum_distinguishes_lists() {
        let a = vec![[0u32, 1, 2], [1, 2, 3]];
        let b = vec![[0u32, 1, 2], [1, 2, 4]];
        assert_ne!(triangle_checksum(&a), triangle_checksum(&b));
        assert_eq!(triangle_checksum(&a), triangle_checksum(&a.clone()));
    }
}
