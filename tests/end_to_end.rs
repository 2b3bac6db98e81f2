//! Cross-crate integration: every counting path agrees on every
//! generator family, and known closed forms hold end to end.

use trigon::gpu_sim::DeviceSpec;
use trigon::graph::{gen, triangles, Graph};
use trigon::{Method, Run, RunReport, Workload};

fn all_methods() -> Vec<(&'static str, Method, DeviceSpec)> {
    vec![
        ("cpu_exhaustive", Method::CpuExhaustive, DeviceSpec::c1060()),
        ("cpu_fast", Method::CpuFast, DeviceSpec::c1060()),
        ("gpu_naive", Method::GpuNaive, DeviceSpec::c1060()),
        ("gpu_optimized", Method::GpuOptimized, DeviceSpec::c1060()),
        ("gpu_sampled", Method::GpuSampled, DeviceSpec::c1060()),
        ("gpu_fermi", Method::GpuOptimized, DeviceSpec::c2050()),
        ("hybrid", Method::Hybrid, DeviceSpec::c1060()),
    ]
}

fn run(g: &Graph, method: Method, device: DeviceSpec) -> RunReport {
    Run::new(g).method(method).device(device).execute().unwrap()
}

fn check_graph(g: &Graph, label: &str) {
    let expect = triangles::count_edge_iterator(g);
    for (name, method, device) in all_methods() {
        let r = Run::new(g)
            .method(method)
            .device(device)
            .execute()
            .unwrap_or_else(|e| panic!("{label}/{name}: {e}"));
        assert_eq!(r.count, expect, "{label}: method {name}");
        assert_eq!(r.n, g.n());
        assert_eq!(r.m, g.m());
    }
}

#[test]
fn families_agree_across_all_methods() {
    check_graph(&gen::complete(20), "K20");
    check_graph(&gen::path(40), "P40");
    check_graph(&gen::cycle(30), "C30");
    check_graph(&gen::star(40), "star40");
    check_graph(&gen::complete_bipartite(10, 12), "K10,12");
    check_graph(&gen::grid2d(8, 8), "grid8x8");
    check_graph(&gen::disjoint_cliques(4, 8), "4xK8");
}

#[test]
fn random_models_agree_across_all_methods() {
    check_graph(&gen::gnp(150, 0.08, 1), "gnp150");
    check_graph(&gen::barabasi_albert(200, 4, 2), "ba200");
    check_graph(&gen::watts_strogatz(150, 6, 0.2, 3), "ws150");
    check_graph(&gen::community_ring(400, 50, 0.25, 2, 4), "ring400");
    check_graph(&gen::random_bipartite(40, 40, 0.2, 5), "bip80");
}

#[test]
fn closed_forms_hold_end_to_end() {
    use trigon::combin::binom;
    // ϑ(K_n) = C(n, 3) — the §VII identity.
    let r = run(&gen::complete(25), Method::CpuFast, DeviceSpec::c1060());
    assert_eq!(u128::from(r.count), binom(25, 3));
    // Triangle-free families count zero on the GPU path too.
    for g in [gen::complete_bipartite(15, 15), gen::grid2d(10, 10)] {
        let r = run(&g, Method::GpuOptimized, DeviceSpec::c1060());
        assert_eq!(r.count, 0);
    }
}

#[test]
fn workload_accounting_is_consistent_across_methods() {
    let g = gen::gnp(120, 0.1, 9);
    let tests: Vec<u128> = all_methods()
        .into_iter()
        .filter(|(_, m, _)| *m != Method::Hybrid)
        .map(|(_, m, d)| run(&g, m, d).tests)
        .collect();
    assert!(
        tests.iter().all(|&t| t == tests[0]),
        "methods disagree on workload: {tests:?}"
    );
}

#[test]
fn io_to_pipeline_roundtrip() {
    // Write a generated graph as an edge list, read it back, count on the
    // simulated GPU — full-stack path.
    let g = gen::watts_strogatz(300, 8, 0.1, 7);
    let mut buf = Vec::new();
    trigon::graph::io::write_edge_list(&g, &mut buf).unwrap();
    let (g2, _) = trigon::graph::io::read_edge_list(buf.as_slice()).unwrap();
    let a = run(&g, Method::CpuFast, DeviceSpec::c1060());
    let b = run(&g2, Method::GpuOptimized, DeviceSpec::c1060());
    assert_eq!(a.count, b.count);
}

#[test]
fn kcount_extensions_cross_validate() {
    use trigon::core::kcount;
    let g = gen::gnp(30, 0.25, 3);
    // k = 3 cliques are triangles, across crates.
    assert_eq!(
        kcount::count_k_cliques(&g, 3),
        triangles::count_edge_iterator(&g)
    );
    // The simulated-GPU k-clique path agrees through the builder.
    let r = Run::new(&g)
        .workload(Workload::KCliques(3))
        .method(Method::GpuOptimized)
        .device(DeviceSpec::c1060())
        .execute()
        .unwrap();
    assert_eq!(r.count, triangles::count_edge_iterator(&g));
    assert_eq!(r.kind, "cliques");
    // Independent sets complement cliques.
    let mut comp_edges = Vec::new();
    for u in 0..30u32 {
        for v in u + 1..30 {
            if !g.has_edge(u, v) {
                comp_edges.push((u, v));
            }
        }
    }
    let comp = Graph::from_edges(30, &comp_edges).unwrap();
    assert_eq!(
        kcount::count_k_independent_sets(&g, 3),
        kcount::count_k_cliques(&comp, 3)
    );
}
