//! Property-based cluster invariants: for *every* generated graph and
//! node roster (1–8 nodes, mixed per-node fleets) the node-partitioned
//! count is bit-identical to the serial CPU count under both partition
//! layouts, across CPU thread widths, with injected node loss and
//! device loss; and a one-node cluster is a true no-op — its execution
//! trace and its report (minus the `cluster` section) are byte-identical
//! to a plain fleet run on that node's roster.

use proptest::prelude::*;
use std::sync::Arc;
use trigon::graph::{triangles, Graph};
use trigon::{
    ClusterSpec, FleetSpec, Level, LossPlan, ManualClock, Method, PartitionStrategy, Run, Tracer,
    Workload,
};

fn arb_graph(max_n: u32) -> impl Strategy<Value = Graph> {
    (3..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..(4 * n as usize)).prop_map(move |raw| {
            let edges: Vec<(u32, u32)> = raw.into_iter().filter(|&(u, v)| u != v).collect();
            Graph::from_edges(n, &edges).expect("filtered edges valid")
        })
    })
}

/// Arbitrary cluster rosters: 1–8 nodes, each a 1–3 device fleet drawn
/// per-slot from the Table I registry, so heterogeneous nodes (and
/// heterogeneous fleets inside nodes) come up constantly.
fn arb_cluster() -> impl Strategy<Value = ClusterSpec> {
    proptest::collection::vec(proptest::collection::vec(0usize..3, 1..=3), 1..=8).prop_map(
        |nodes| {
            let table = ["C1060", "C2050", "C2070"];
            let spec = nodes
                .iter()
                .map(|picks| {
                    let fleet = picks
                        .iter()
                        .map(|&i| table[i])
                        .collect::<Vec<_>>()
                        .join(",");
                    format!("({fleet})")
                })
                .collect::<Vec<_>>()
                .join(",");
            ClusterSpec::parse(&spec).expect("roster from the registry parses")
        },
    )
}

fn cluster_count(
    g: &Graph,
    cluster: &ClusterSpec,
    strategy: PartitionStrategy,
    node_loss: Option<LossPlan>,
    device_loss: Option<LossPlan>,
    threads: Option<usize>,
) -> u64 {
    let mut a = Run::new(g)
        .method(Method::GpuOptimized)
        .cluster(cluster.clone())
        .partition(strategy)
        .telemetry(Level::Off);
    if let Some(l) = node_loss {
        a = a.node_loss(l);
    }
    if let Some(l) = device_loss {
        a = a.device_loss(l);
    }
    if let Some(t) = threads {
        a = a.threads(t);
    }
    a.execute().unwrap().count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The central cluster invariant: whatever the roster and layout,
    /// the node-partitioned count equals brute force — every triangle
    /// lives in exactly one ALS, so a partition of the ALS list across
    /// nodes is a partition of the triangles.
    #[test]
    fn cluster_counts_match_serial(g in arb_graph(40), cluster in arb_cluster()) {
        let brute = triangles::count_brute_force(&g);
        for strategy in [PartitionStrategy::Auto, PartitionStrategy::OneD, PartitionStrategy::TwoD] {
            prop_assert_eq!(
                cluster_count(&g, &cluster, strategy, None, None, None),
                brute,
                "{} under {:?}", cluster, strategy
            );
        }
    }

    /// The count is independent of the CPU thread width driving the
    /// simulation — partials fold in canonical node order.
    #[test]
    fn cluster_counts_are_thread_width_independent(
        g in arb_graph(30),
        cluster in arb_cluster(),
        threads in 1usize..5,
    ) {
        let serial = cluster_count(&g, &cluster, PartitionStrategy::Auto, None, None, Some(1));
        let wide = cluster_count(&g, &cluster, PartitionStrategy::Auto, None, None, Some(threads));
        prop_assert_eq!(serial, wide);
    }

    /// Node loss migrates orphaned ALS onto surviving nodes without
    /// perturbing the count, for any loss size (the plan clamps to
    /// leave a survivor); device loss inside every node's fleet rides
    /// along.
    #[test]
    fn node_and_device_loss_keep_counts(
        g in arb_graph(40),
        cluster in arb_cluster(),
        lost_nodes in 1u32..8,
        lost_devices in 0u32..3,
        seed in 0u64..1_000,
    ) {
        let brute = triangles::count_brute_force(&g);
        let node_loss = Some(LossPlan::new(lost_nodes, seed));
        let device_loss = (lost_devices > 0).then(|| LossPlan::new(lost_devices, seed ^ 0x5EED));
        prop_assert_eq!(
            cluster_count(&g, &cluster, PartitionStrategy::Auto, node_loss, device_loss, None),
            brute
        );
    }

    /// Determinism: the same roster, layout, and loss seed reproduce
    /// the same cluster section — per-node partials included — twice
    /// over.
    #[test]
    fn same_seed_reproduces_cluster_section(
        cluster in arb_cluster(),
        lost in 0u32..3,
        seed in 0u64..1_000,
    ) {
        let g = trigon::graph::gen::gnp(120, 0.08, 9);
        let run = || {
            let mut a = Run::new(&g)
                .method(Method::GpuOptimized)
                .cluster(cluster.clone())
                .telemetry(Level::Off);
            if lost > 0 {
                a = a.node_loss(LossPlan::new(lost, seed));
            }
            let r = a.execute().unwrap();
            (r.count, format!("{:?}", r.cluster.expect("cluster section")))
        };
        prop_assert_eq!(run(), run());
    }
}

/// A one-node cluster is a true no-op: the Chrome trace of
/// `--cluster "1x(2xC2050)"` is byte-identical to a plain
/// `--devices 2xC2050` fleet run (spans, attrs, cycle accounting,
/// ordering — everything), and the report JSON matches once the
/// `cluster` section is cleared.
#[test]
fn one_node_cluster_is_byte_identical_to_plain_fleet() {
    let g = trigon::graph::gen::gnp(300, 0.05, 3);
    let run = |cluster: Option<ClusterSpec>| {
        let tracer = Tracer::with_clock(Level::Trace, Arc::new(ManualClock::new()));
        let mut a = Run::new(&g)
            .method(Method::GpuOptimized)
            .telemetry(Level::Trace)
            .tracer(tracer);
        a = match cluster {
            Some(c) => a.cluster(c),
            None => a.fleet(FleetSpec::parse("2xC2050").unwrap()),
        };
        a.execute().unwrap()
    };
    let mut plain = run(None);
    let mut clustered = run(Some(ClusterSpec::parse("1x(2xC2050)").unwrap()));
    assert!(plain.cluster.is_none());
    assert!(
        clustered.cluster.is_some(),
        "cluster run must carry the section"
    );
    assert_eq!(
        plain.tracer.to_chrome_trace().to_string_pretty(),
        clustered.tracer.to_chrome_trace().to_string_pretty(),
        "a one-node cluster must not perturb the execution trace"
    );
    // The same execution reports through `fleet` on the plain run and
    // through `cluster` on the cluster run; minus those two sections the
    // reports must agree bit for bit.
    plain.fleet = None;
    clustered.cluster = None;
    clustered.device = plain.device.clone();
    assert_eq!(
        plain.to_json().to_string_pretty(),
        clustered.to_json().to_string_pretty(),
        "minus the fleet/cluster sections, the reports must be byte-identical"
    );
}

/// Non-GPU methods reject a cluster; node loss without a cluster, a
/// cluster plus a fleet, and chunk faults on multi-device nodes are all
/// configuration errors (exit code 2) — not silent no-ops.
#[test]
fn cluster_misconfigurations_are_rejected() {
    let g = trigon::graph::gen::gnp(50, 0.1, 1);
    let cluster = ClusterSpec::parse("2x(C2050)").unwrap();
    for (method, workload) in [
        (Method::CpuFast, Workload::Triangles),
        (Method::Hybrid, Workload::Triangles),
        (Method::GpuOptimized, Workload::KCliques(3)),
    ] {
        let err = Run::new(&g)
            .method(method)
            .workload(workload)
            .cluster(cluster.clone())
            .execute()
            .unwrap_err();
        assert_eq!(
            err.exit_code(),
            2,
            "{method:?} {workload:?} must reject a cluster"
        );
    }
    let err = Run::new(&g)
        .method(Method::GpuOptimized)
        .node_loss(LossPlan::new(1, 0))
        .execute()
        .unwrap_err();
    assert_eq!(
        err.exit_code(),
        2,
        "loss without a cluster must be rejected"
    );
    let err = Run::new(&g)
        .method(Method::GpuOptimized)
        .cluster(cluster.clone())
        .fleet(FleetSpec::parse("2xC2050").unwrap())
        .execute()
        .unwrap_err();
    assert_eq!(err.exit_code(), 2, "cluster + fleet must be rejected");
}
