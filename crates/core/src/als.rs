//! Adjacent level sets (ALS) — the unit Algorithm 2 counts over.
//!
//! Fig. 3 of the paper groups a BFS tree's levels pairwise:
//! `ALS_i = (L_i, L_{i+1})`. Because every edge of the graph joins the
//! same or adjacent BFS levels, every triangle lives inside exactly one
//! ALS's vertex set, and the `GenNxtComb` mode discipline (first level
//! only / mixed / second level only on the last set) visits each
//! candidate combination exactly once across all sets.

use std::sync::Arc;
use trigon_combin::{CrossMode, TwoLevelSpace};
use trigon_graph::storage::BitMatrix;
use trigon_graph::{BfsTree, Graph, LevelMap};

/// One adjacent level set of a BFS tree, with its local adjacency.
///
/// Local vertex positions follow the `trigon-combin` convention: the
/// first level occupies `0 … a-1`, the second `a … a+b-1`.
#[derive(Debug, Clone)]
pub struct Als {
    /// Which consecutive pair this is (`i` for `(L_i, L_{i+1})`), counted
    /// per component in pipeline order.
    pub index: usize,
    /// Connected component this ALS belongs to (index in
    /// `connected_components` order).
    pub component: usize,
    /// BFS level of the first set within its component's tree.
    pub first_level: u32,
    /// Global vertex ids of the first level (sorted).
    pub first: Vec<u32>,
    /// Global vertex ids of the second level (sorted); empty when the
    /// component has a single BFS level.
    pub second: Vec<u32>,
    /// Sorted merge of `first ∪ second`, built once at construction so
    /// counting loops never rebuild-and-sort the window per call.
    pub window: Vec<u32>,
    /// Whether this is the last ALS of its component — only then does
    /// Algorithm 2 issue the `secondLvl` scan.
    pub is_last: bool,
    /// Shared per-graph BFS placement map (component, level, in-level
    /// rank per vertex) answering window/first-level membership in O(1).
    pub levels: Arc<LevelMap>,
    /// Local adjacency over `first ∪ second` (bit matrix, local ids).
    /// Materialized only when `size() ≤ LOCAL_MATRIX_MAX` — for the huge
    /// level sets of 100k-node graphs a dense local matrix would dwarf the
    /// host RAM; the counting paths fall back to the global CSR there.
    pub local: Option<BitMatrix>,
}

/// Largest ALS for which the dense local bit matrix is materialized
/// (4096² bits = 2 MiB per ALS).
pub const LOCAL_MATRIX_MAX: u32 = 4096;

impl Als {
    /// First-level size `a`.
    #[must_use]
    pub fn a(&self) -> u32 {
        self.first.len() as u32
    }

    /// Second-level size `b`.
    #[must_use]
    pub fn b(&self) -> u32 {
        self.second.len() as u32
    }

    /// Total local vertices `a + b`.
    #[must_use]
    pub fn size(&self) -> u32 {
        self.a() + self.b()
    }

    /// The sorted window `first ∪ second` (global ids), precomputed.
    #[inline]
    #[must_use]
    pub fn window(&self) -> &[u32] {
        &self.window
    }

    /// O(1): is global vertex `v` in this ALS's first level?
    #[inline]
    #[must_use]
    pub fn in_first(&self, v: u32) -> bool {
        self.levels
            .is_at(v, self.component as u32, self.first_level)
    }

    /// O(1): is global vertex `v` in this ALS's second level?
    #[inline]
    #[must_use]
    pub fn in_second(&self, v: u32) -> bool {
        !self.second.is_empty()
            && self
                .levels
                .is_at(v, self.component as u32, self.first_level + 1)
    }

    /// O(1): is global vertex `v` anywhere in this ALS's window?
    #[inline]
    #[must_use]
    pub fn in_window(&self, v: u32) -> bool {
        self.in_first(v) || self.in_second(v)
    }

    /// O(1): local position of global vertex `v` in this ALS, or `None`
    /// when `v` is outside the window. Replaces the two binary searches
    /// the dense-matrix construction used to pay per adjacency probe.
    #[inline]
    #[must_use]
    pub fn local_of(&self, v: u32) -> Option<u32> {
        if self.in_first(v) {
            Some(self.levels.rank_of(v))
        } else if self.in_second(v) {
            Some(self.a() + self.levels.rank_of(v))
        } else {
            None
        }
    }

    /// The `GenNxtComb` mode streams Algorithm 2 issues for this ALS:
    /// `firstLvl`, `bothLvls`, and — on the component's last set only —
    /// `secondLvl`. Returned as a static slice so hot loops pay no
    /// allocation per ALS.
    #[inline]
    #[must_use]
    pub fn modes(&self) -> &'static [CrossMode] {
        const ALL: [CrossMode; 3] = [
            CrossMode::FirstOnly,
            CrossMode::Mixed,
            CrossMode::SecondOnly,
        ];
        if self.is_last {
            &ALL
        } else {
            &ALL[..2]
        }
    }

    /// The `k`-combination space over this ALS.
    #[must_use]
    pub fn space(&self, k: u32) -> TwoLevelSpace {
        TwoLevelSpace::new(self.a(), self.b(), k)
    }

    /// Global id of local position `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p ≥ size()`.
    #[inline]
    #[must_use]
    pub fn global_id(&self, p: u32) -> u32 {
        let a = self.a();
        if p < a {
            self.first[p as usize]
        } else {
            self.second[(p - a) as usize]
        }
    }

    /// Whether the local pair `(p, q)` is an edge, answered from the dense
    /// local matrix when materialized, else from the global graph.
    #[inline]
    #[must_use]
    pub fn edge(&self, g: &Graph, p: u32, q: u32) -> bool {
        use trigon_graph::AdjacencyStorage;
        match &self.local {
            Some(m) => m.has_edge(p, q),
            None => g.has_edge(self.global_id(p), self.global_id(q)),
        }
    }

    /// Whether the local pair `(p, q)` is an edge (dense local matrix
    /// only).
    ///
    /// # Panics
    ///
    /// Panics when the local matrix was not materialized (ALS larger than
    /// [`LOCAL_MATRIX_MAX`]); use [`Als::edge`] for the general path.
    #[inline]
    #[must_use]
    pub fn local_edge(&self, p: u32, q: u32) -> bool {
        use trigon_graph::AdjacencyStorage;
        self.local
            .as_ref()
            .expect("local matrix not materialized for this ALS size")
            .has_edge(p, q)
    }

    /// Number of triangle tests Algorithm 2 performs on this ALS:
    /// `C(a,3) + mixed + (last ? C(b,3) : 0)`.
    #[must_use]
    pub fn test_count(&self, k: u32) -> u128 {
        let s = self.space(k);
        self.modes().iter().map(|&m| s.count(m)).sum()
    }

    /// S-UTM bit footprint of the local adjacency — the job size used for
    /// §VI makespan scheduling and the Eq. 3 shared-memory check.
    #[must_use]
    pub fn size_bits(&self) -> u128 {
        let n = u128::from(self.size());
        n * n.saturating_sub(1) / 2
    }
}

/// Builds the ALS of one BFS tree (one component): `depth - 1` sets, or a
/// single degenerate set when the component has one level. `index` is
/// assigned starting from `base_index`. The shared `levels` map must
/// already have this tree recorded under `component`
/// ([`LevelMap::record_tree`]).
#[must_use]
pub fn build_als_for_tree(
    g: &Graph,
    tree: &BfsTree,
    base_index: usize,
    component: usize,
    levels_map: &Arc<LevelMap>,
) -> Vec<Als> {
    let levels = tree.levels();
    let mut out = Vec::new();
    if levels.is_empty() {
        return out;
    }
    if levels.len() == 1 {
        out.push(make_als(
            g,
            base_index,
            component,
            0,
            &levels[0],
            &[],
            true,
            levels_map,
        ));
        return out;
    }
    for i in 0..levels.len() - 1 {
        let is_last = i + 2 == levels.len();
        out.push(make_als(
            g,
            base_index + i,
            component,
            i as u32,
            &levels[i],
            &levels[i + 1],
            is_last,
            levels_map,
        ));
    }
    out
}

#[cfg(test)]
thread_local! {
    /// [`build_als`] calls on this thread, read by the tests that pin one
    /// decomposition per run.
    pub(crate) static BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Builds the full ALS list of a graph: BFS forest rooted at each
/// component's smallest vertex, one shared [`LevelMap`] for O(1)
/// membership, then per-tree ALS construction.
#[must_use]
pub fn build_als(g: &Graph) -> Vec<Als> {
    #[cfg(test)]
    BUILDS.with(|b| b.set(b.get() + 1));
    let comps = trigon_graph::connected_components(g);
    let mut trees = Vec::with_capacity(comps.len());
    let mut map = LevelMap::new(g.n());
    for (ci, comp) in comps.iter().enumerate() {
        let tree = BfsTree::new(g, comp[0]);
        map.record_tree(&tree, ci as u32);
        trees.push(tree);
    }
    let map = Arc::new(map);
    let mut out = Vec::new();
    for (ci, tree) in trees.iter().enumerate() {
        let base = out.len();
        out.extend(build_als_for_tree(g, tree, base, ci, &map));
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn make_als(
    g: &Graph,
    index: usize,
    component: usize,
    first_level: u32,
    first: &[u32],
    second: &[u32],
    is_last: bool,
    levels_map: &Arc<LevelMap>,
) -> Als {
    let a = first.len() as u32;
    let n = a + second.len() as u32;
    // Merge the two sorted, disjoint level sets once; counting loops
    // iterate this instead of rebuilding it per call.
    let mut window = Vec::with_capacity(n as usize);
    let (mut i, mut j) = (0usize, 0usize);
    while i < first.len() && j < second.len() {
        if first[i] < second[j] {
            window.push(first[i]);
            i += 1;
        } else {
            window.push(second[j]);
            j += 1;
        }
    }
    window.extend_from_slice(&first[i..]);
    window.extend_from_slice(&second[j..]);

    let second_level = first_level + 1;
    let local = (n <= LOCAL_MATRIX_MAX).then(|| {
        // Local-id lookup via the shared level map: O(1) per probe.
        let mut m = BitMatrix::new(n);
        let local_of = |v: u32| -> Option<u32> {
            if levels_map.is_at(v, component as u32, first_level) {
                Some(levels_map.rank_of(v))
            } else if !second.is_empty() && levels_map.is_at(v, component as u32, second_level) {
                Some(a + levels_map.rank_of(v))
            } else {
                None
            }
        };
        for (pos, &v) in first.iter().chain(second.iter()).enumerate() {
            for &w in g.neighbors(v) {
                if let Some(q) = local_of(w) {
                    if (pos as u32) < q {
                        m.set_edge(pos as u32, q);
                    }
                }
            }
        }
        m
    });
    Als {
        index,
        component,
        first_level,
        first: first.to_vec(),
        second: second.to_vec(),
        window,
        is_last,
        levels: Arc::clone(levels_map),
        local,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trigon_combin::binom;
    use trigon_graph::gen;

    #[test]
    fn path_graph_als_chain() {
        let g = gen::path(5);
        let als = build_als(&g);
        assert_eq!(als.len(), 4);
        for (i, a) in als.iter().enumerate() {
            assert_eq!(a.index, i);
            assert_eq!(a.a(), 1);
            assert_eq!(a.b(), 1);
            assert_eq!(a.is_last, i == 3);
            assert!(a.local_edge(0, 1));
        }
    }

    #[test]
    fn single_level_component() {
        // Isolated vertices: each component is one level, one degenerate ALS.
        let g = Graph::from_edges(3, &[]).unwrap();
        let als = build_als(&g);
        assert_eq!(als.len(), 3);
        for a in &als {
            assert_eq!(a.a(), 1);
            assert_eq!(a.b(), 0);
            assert!(a.is_last);
            assert_eq!(a.test_count(3), 0);
        }
    }

    #[test]
    fn complete_graph_two_levels() {
        // K_n from any root: L0 = {root}, L1 = rest — one ALS.
        let g = gen::complete(7);
        let als = build_als(&g);
        assert_eq!(als.len(), 1);
        let a = &als[0];
        assert_eq!(a.a(), 1);
        assert_eq!(a.b(), 6);
        assert!(a.is_last);
        // Test count = C(7,3) (every combination touches some mode).
        assert_eq!(a.test_count(3), binom(7, 3));
    }

    #[test]
    fn local_edges_mirror_global() {
        let g = gen::gnp(60, 0.1, 5);
        for als in build_als(&g) {
            let n = als.size();
            assert!(als.local.is_some(), "small ALS must materialize");
            for p in 0..n {
                for q in 0..n {
                    let gp = als.global_id(p);
                    let gq = als.global_id(q);
                    assert_eq!(
                        als.local_edge(p, q),
                        g.has_edge(gp, gq),
                        "als {} local ({p},{q}) global ({gp},{gq})",
                        als.index
                    );
                    assert_eq!(als.edge(&g, p, q), als.local_edge(p, q));
                }
            }
        }
    }

    #[test]
    fn oversized_als_falls_back_to_graph() {
        // A star bigger than LOCAL_MATRIX_MAX: level 1 holds n-1 vertices,
        // so the single ALS exceeds the dense-matrix threshold.
        let n = LOCAL_MATRIX_MAX + 10;
        let g = gen::star(n);
        let als = build_als(&g);
        assert_eq!(als.len(), 1);
        assert!(als[0].local.is_none());
        // edge() still answers correctly through the CSR.
        assert!(als[0].edge(&g, 0, 1)); // center to first leaf
        assert!(!als[0].edge(&g, 1, 2)); // two leaves
    }

    #[test]
    fn als_covers_every_level_pair_once() {
        let g = gen::gnp(80, 0.05, 9);
        let comps = trigon_graph::connected_components(&g);
        let als = build_als(&g);
        // Count ALS per component = max(depth - 1, 1).
        let mut expect = 0usize;
        for comp in &comps {
            let tree = BfsTree::new(&g, comp[0]);
            expect += (tree.depth() - 1).max(1);
        }
        assert_eq!(als.len(), expect);
        // First levels chain: als[i].second == als[i+1].first within a
        // component (the §X-A shared level that must be duplicated).
        for w in als.windows(2) {
            if !w[0].is_last {
                assert_eq!(w[0].second, w[1].first);
            }
        }
    }

    #[test]
    fn test_count_matches_mode_sum() {
        use trigon_combin::CrossMode;
        let g = gen::gnp(50, 0.1, 2);
        for als in build_als(&g) {
            let s = als.space(3);
            let mut want = s.count(CrossMode::FirstOnly) + s.count(CrossMode::Mixed);
            if als.is_last {
                want += s.count(CrossMode::SecondOnly);
            }
            assert_eq!(als.test_count(3), want);
        }
    }

    #[test]
    fn size_bits_is_sutm() {
        let g = gen::complete(10);
        let als = build_als(&g);
        assert_eq!(als[0].size_bits(), 45); // 10·9/2
    }

    #[test]
    fn fig3_level_grouping() {
        // The paper's Fig. 3: a 20-node BFS tree with levels
        // {0}, {1,2}, {3..8}, {9..13}, {14..19}, grouped pairwise into
        // adjacent level sets for triangle counting.
        let mut edges = vec![(0u32, 1), (0, 2)];
        // Level 2: 3..=8, children of 1 and 2.
        for v in 3..=8u32 {
            edges.push((if v % 2 == 1 { 1 } else { 2 }, v));
        }
        // Level 3: 9..=13, children of 3..=7.
        for (i, v) in (9..=13u32).enumerate() {
            edges.push((3 + i as u32, v));
        }
        // Level 4: 14..=19, children of 9..=13 (one parent gets two).
        for (i, v) in (14..=19u32).enumerate() {
            edges.push((9 + (i as u32).min(4), v));
        }
        let g = Graph::from_edges(20, &edges).unwrap();
        let als = build_als(&g);
        assert_eq!(als.len(), 4, "five levels pair into four ALS");
        let shapes: Vec<(u32, u32)> = als.iter().map(|a| (a.a(), a.b())).collect();
        assert_eq!(shapes, vec![(1, 2), (2, 6), (6, 5), (5, 6)]);
        assert!(als[3].is_last);
        assert!(als[..3].iter().all(|a| !a.is_last));
        // A tree has no triangles; Algorithm 2 must agree.
        assert_eq!(crate::count::cpu_exhaustive(&g).triangles, 0);
    }

    #[test]
    fn window_and_membership_queries() {
        for seed in 0..4u64 {
            let g = gen::gnp(60, 0.1, seed);
            for als in build_als(&g) {
                // The precomputed window is the sorted merge of both levels.
                let mut want: Vec<u32> = als.first.iter().chain(&als.second).copied().collect();
                want.sort_unstable();
                assert_eq!(als.window(), &want[..], "seed {seed} als {}", als.index);
                // O(1) probes agree with the level vectors for every vertex.
                for v in 0..g.n() {
                    assert_eq!(als.in_first(v), als.first.binary_search(&v).is_ok());
                    assert_eq!(als.in_second(v), als.second.binary_search(&v).is_ok());
                    assert_eq!(als.in_window(v), als.in_first(v) || als.in_second(v));
                    let want_local =
                        als.first
                            .binary_search(&v)
                            .ok()
                            .map(|i| i as u32)
                            .or_else(|| {
                                als.second
                                    .binary_search(&v)
                                    .ok()
                                    .map(|i| als.a() + i as u32)
                            });
                    assert_eq!(als.local_of(v), want_local, "seed {seed} v {v}");
                }
                // local_of inverts global_id over the whole window.
                for local in 0..als.window().len() as u32 {
                    assert_eq!(als.local_of(als.global_id(local)), Some(local));
                }
            }
        }
    }

    #[test]
    fn modes_match_position() {
        let g = gen::gnp(50, 0.1, 7);
        for als in build_als(&g) {
            let m = als.modes();
            assert_eq!(m[0], trigon_combin::CrossMode::FirstOnly);
            assert_eq!(m[1], trigon_combin::CrossMode::Mixed);
            assert_eq!(m.len(), if als.is_last { 3 } else { 2 });
        }
    }

    #[test]
    fn global_ids_partition_component() {
        let g = gen::gnp(40, 0.15, 3);
        let als = build_als(&g);
        // Within one component, each level appears as `first` exactly once
        // or as the final `second` — union over (first ∪ last second) = V.
        let mut seen = std::collections::BTreeSet::new();
        for a in &als {
            for &v in &a.first {
                seen.insert(v);
            }
            if a.is_last {
                for &v in &a.second {
                    seen.insert(v);
                }
            }
        }
        assert_eq!(seen.len() as u32, g.n());
    }
}
