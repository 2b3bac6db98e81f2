//! Property-based cross-crate equivalence: on *arbitrary* simple graphs,
//! every implementation in the workspace reports the same triangle count
//! — the central correctness invariant of the reproduction.

use proptest::prelude::*;
use trigon::core::{count, kcount};
use trigon::graph::{triangles, Graph};
use trigon::{Level, Method, Run};

fn count_with(g: &Graph, method: Method) -> u64 {
    Run::new(g)
        .method(method)
        .telemetry(Level::Off)
        .execute()
        .unwrap()
        .count
}

fn arb_graph(max_n: u32) -> impl Strategy<Value = Graph> {
    (3..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..(4 * n as usize)).prop_map(move |raw| {
            let edges: Vec<(u32, u32)> = raw.into_iter().filter(|&(u, v)| u != v).collect();
            Graph::from_edges(n, &edges).expect("filtered edges valid")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Five independent counting paths agree with brute force.
    #[test]
    fn all_counters_agree(g in arb_graph(40)) {
        let brute = triangles::count_brute_force(&g);
        prop_assert_eq!(triangles::count_forward(&g), brute);
        prop_assert_eq!(count::cpu_exhaustive(&g).triangles, brute);
        prop_assert_eq!(count::als_fast(&g), brute);
        prop_assert_eq!(count_with(&g, Method::GpuNaive), brute);
        prop_assert_eq!(count_with(&g, Method::GpuOptimized), brute);
    }

    /// The sampled fidelity mode never changes the count.
    #[test]
    fn sampled_mode_is_count_exact(g in arb_graph(30)) {
        let brute = triangles::count_brute_force(&g);
        prop_assert_eq!(count_with(&g, Method::GpuSampled), brute);
    }

    /// k = 3 cliques equal triangles on arbitrary graphs.
    #[test]
    fn k3_cliques_equal_triangles(g in arb_graph(25)) {
        prop_assert_eq!(
            kcount::count_k_cliques(&g, 3),
            triangles::count_brute_force(&g)
        );
    }

    /// Triangles + triangle-free test are consistent.
    #[test]
    fn triangle_free_consistent(g in arb_graph(30)) {
        prop_assert_eq!(
            triangles::is_triangle_free(&g),
            triangles::count_brute_force(&g) == 0
        );
    }
}
