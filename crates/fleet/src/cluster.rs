//! The simulated cluster tier: node rosters and the node-level
//! partitioner above the fleet layer.
//!
//! A [`ClusterSpec`] is a roster of *nodes*, each node a [`FleetSpec`]
//! of devices behind one PCIe root — `"4x(2xC2050)"` is four nodes of
//! two C2050s. Work is placed across nodes by [`plan_cluster`], the
//! top level of the three-level §VI scheduling stack (partitioner
//! across nodes → LPT across a node's devices → per-SM schedule), which
//! chooses between the two classic distributed layouts:
//!
//! * **1D by component** — whole components go to one node each (LPT of
//!   component aggregate weights against node speeds). Zero ghost
//!   vertices, but a skewed component distribution leaves nodes idle.
//! * **2D by edge block** — the ALS job list splits into contiguous
//!   blocks proportional to node speed. Balanced by construction, but
//!   every component cut at a block boundary *materializes its shared
//!   BFS level on the downstream node* as ghost/surrogate vertices,
//!   paid for over the inter-node tier.
//!
//! [`PartitionStrategy::Auto`] picks the layout with the lower
//! *predicted* communication-volume cost (contended partition upload +
//! ghost exchanges + compute, maxed over nodes) — the decision rule of
//! the distributed triangle-counting literature (Sanders/Uhl,
//! arXiv:2302.11443; Tom/Karypis, arXiv:1907.09575). Both layouts
//! partition the ALS list, so by the ALS exactness theorem either one
//! reproduces the serial count bit-identically; the choice moves only
//! simulated time.

use crate::{device_speed, FleetPlan, FleetSpec, Interconnect};
use std::fmt;

/// A parsed multi-node roster, e.g. `"4x(2xC2050)"` or
/// `"2x(2xC2050,1xC1060),1xC1060"`.
///
/// Each comma-separated entry at paren depth zero is either
/// `[<count>x](<fleet-spec>)` — `count` nodes with that device roster —
/// or a bare `[<count>x]<model>` — `count` single-device nodes.
/// Expansion order is the spec's textual order, which fixes the
/// canonical node indices used everywhere downstream.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    nodes: Vec<FleetSpec>,
}

impl ClusterSpec {
    /// Largest roster a spec may expand to — the scaling sweep's ceiling.
    pub const MAX_NODES: usize = 64;

    /// Parses a cluster roster.
    ///
    /// # Errors
    ///
    /// A human-readable message for empty specs, unbalanced parentheses,
    /// bad counts, unknown device models, or rosters larger than
    /// [`Self::MAX_NODES`].
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut nodes = Vec::new();
        for raw in split_top_level(s)? {
            let entry = raw.trim();
            if entry.is_empty() {
                return Err(format!("empty node entry in cluster spec {s:?}"));
            }
            let (count, rest) = match entry.split_once(['x', 'X']) {
                Some((n, rest)) if n.chars().all(|c| c.is_ascii_digit()) && !n.is_empty() => {
                    let count: usize = n
                        .parse()
                        .map_err(|_| format!("bad node count {n:?} in {entry:?}"))?;
                    (count, rest.trim())
                }
                _ => (1, entry),
            };
            if count == 0 {
                return Err(format!("node count must be >= 1 in {entry:?}"));
            }
            let fleet_src = match rest.strip_prefix('(') {
                Some(inner) => inner
                    .strip_suffix(')')
                    .ok_or_else(|| format!("unbalanced parentheses in {entry:?}"))?,
                None if rest.contains(['(', ')']) => {
                    return Err(format!("misplaced parenthesis in {entry:?}"));
                }
                None => rest,
            };
            let fleet = FleetSpec::parse(fleet_src)
                .map_err(|e| format!("node roster {fleet_src:?}: {e}"))?;
            for _ in 0..count {
                nodes.push(fleet.clone());
            }
            if nodes.len() > Self::MAX_NODES {
                return Err(format!(
                    "cluster spec {s:?} expands to more than {} nodes",
                    Self::MAX_NODES
                ));
            }
        }
        if nodes.is_empty() {
            return Err("cluster spec names no nodes".into());
        }
        Ok(Self { nodes })
    }

    /// A roster of `count` identical nodes.
    ///
    /// # Errors
    ///
    /// When `count` is zero or exceeds [`Self::MAX_NODES`].
    pub fn homogeneous(node: FleetSpec, count: usize) -> Result<Self, String> {
        if count == 0 || count > Self::MAX_NODES {
            return Err(format!(
                "cluster size must be 1..={}, got {count}",
                Self::MAX_NODES
            ));
        }
        Ok(Self {
            nodes: vec![node; count],
        })
    }

    /// The expanded node rosters, in canonical node-index order.
    #[must_use]
    pub fn nodes(&self) -> &[FleetSpec] {
        &self.nodes
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the roster is empty (never true for a parsed spec).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total devices across every node.
    #[must_use]
    pub fn total_devices(&self) -> usize {
        self.nodes.iter().map(FleetSpec::len).sum()
    }

    /// Nominal per-node processing speed: the sum of each device's §VI
    /// speed (`sm_count × clock_hz`). Used only relatively.
    #[must_use]
    pub fn node_speeds(&self) -> Vec<u128> {
        self.nodes
            .iter()
            .map(|f| f.devices().iter().map(device_speed).sum())
            .collect()
    }
}

impl fmt::Display for ClusterSpec {
    /// Canonical form: consecutive runs of identical node rosters
    /// collapse to `<count>x(<fleet>)` (`"4x(2xC2050)"`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let reprs: Vec<String> = self.nodes.iter().map(FleetSpec::to_string).collect();
        let mut first = true;
        let mut i = 0;
        while i < reprs.len() {
            let mut j = i + 1;
            while j < reprs.len() && reprs[j] == reprs[i] {
                j += 1;
            }
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}x({})", j - i, reprs[i])?;
            first = false;
            i = j;
        }
        Ok(())
    }
}

/// Splits `s` on commas at parenthesis depth zero.
fn split_top_level(s: &str) -> Result<Vec<&str>, String> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| format!("unbalanced ')' in cluster spec {s:?}"))?;
            }
            ',' if depth == 0 => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth != 0 {
        return Err(format!("unbalanced '(' in cluster spec {s:?}"));
    }
    parts.push(&s[start..]);
    Ok(parts)
}

/// One abstract cluster job: an ALS reduced to its §VI weight, its byte
/// footprint, its component, and the ghost-vertex cost owed *iff* the
/// partitioner separates it from its same-component predecessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterJob {
    /// §VI job size (for ALS jobs: the S-UTM bit footprint).
    pub weight: u64,
    /// Approximate bytes of device global memory the job occupies.
    pub bytes: u64,
    /// Connected component the job's ALS belongs to.
    pub component: u32,
    /// Vertices of the BFS level shared with the predecessor ALS —
    /// materialized as ghosts on this job's node when the predecessor
    /// lands elsewhere. Zero for a component's first ALS.
    pub ghost_vertices: u64,
    /// S-UTM bytes of that shared level's adjacency (the ghost payload).
    pub ghost_bytes: u64,
}

/// How work is laid out across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Predict both layouts' communication-volume cost and pick the
    /// cheaper (ties go to 1D, which moves no ghosts).
    #[default]
    Auto,
    /// 1D by component: whole components placed by LPT. No ghosts.
    OneD,
    /// 2D by edge block: contiguous speed-proportional blocks of the
    /// ALS list, ghost vertices at every cut component boundary.
    TwoD,
}

impl PartitionStrategy {
    /// Parses a CLI strategy name (`auto`, `1d`, `2d`).
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown names.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(Self::Auto),
            "1d" | "component" => Ok(Self::OneD),
            "2d" | "edge-block" => Ok(Self::TwoD),
            other => Err(format!(
                "unknown partition strategy {other:?} (auto, 1d, 2d)"
            )),
        }
    }

    /// The canonical CLI name.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::OneD => "1d",
            Self::TwoD => "2d",
        }
    }
}

/// A computed node assignment for a cluster job list.
#[derive(Debug, Clone)]
pub struct ClusterPlan {
    /// The placement proper, in the fleet's shape: `assignment[j]` =
    /// node index of job `j`, plus summed job weight and bytes per node
    /// (so [`crate::reassign_lost`] reshards lost nodes too).
    pub placement: FleetPlan,
    /// The layout actually used ([`PartitionStrategy::OneD`] or
    /// [`PartitionStrategy::TwoD`], never `Auto`).
    pub strategy: PartitionStrategy,
    /// Whether the cost model made the choice (the request was `Auto`).
    pub auto: bool,
    /// Predicted cost of the 1D layout, in cycles.
    pub predicted_one_d_cycles: u64,
    /// Predicted cost of the 2D layout, in cycles.
    pub predicted_two_d_cycles: u64,
}

/// Plans cluster jobs across nodes under `strategy`.
///
/// `speeds` are the per-node §VI speeds ([`ClusterSpec::node_speeds`]);
/// `clock_hz` is the clock the cost model prices cycles on (relative
/// comparisons only, so any representative device clock works). The
/// plan is a pure function of its inputs — no floating point enters the
/// placement decisions, and the cost comparison is exact integer
/// arithmetic over [`predict_cost`] values.
///
/// # Panics
///
/// Panics when `speeds` is empty or contains a zero speed.
#[must_use]
pub fn plan_cluster(
    jobs: &[ClusterJob],
    speeds: &[u128],
    net: &Interconnect,
    clock_hz: u64,
    strategy: PartitionStrategy,
) -> ClusterPlan {
    assert!(!speeds.is_empty(), "cannot plan over an empty cluster");
    assert!(speeds.iter().all(|&s| s > 0), "node speeds must be > 0");
    let one_d = assign_one_d(jobs, speeds);
    let two_d = assign_two_d(jobs, speeds);
    let cost_1d = predict_cost(jobs, &one_d, speeds, net, clock_hz);
    let cost_2d = predict_cost(jobs, &two_d, speeds, net, clock_hz);
    let (assignment, resolved, auto) = match strategy {
        PartitionStrategy::OneD => (one_d, PartitionStrategy::OneD, false),
        PartitionStrategy::TwoD => (two_d, PartitionStrategy::TwoD, false),
        // Ties go to 1D: equal predicted cost with no ghosts beats
        // equal predicted cost with ghosts.
        PartitionStrategy::Auto if cost_2d < cost_1d => (two_d, PartitionStrategy::TwoD, true),
        PartitionStrategy::Auto => (one_d, PartitionStrategy::OneD, true),
    };
    let mut loads = vec![0u64; speeds.len()];
    let mut bytes = vec![0u64; speeds.len()];
    for (j, &node) in assignment.iter().enumerate() {
        loads[node] += jobs[j].weight;
        bytes[node] = bytes[node].saturating_add(jobs[j].bytes);
    }
    ClusterPlan {
        placement: FleetPlan {
            assignment,
            loads,
            bytes,
        },
        strategy: resolved,
        auto,
        predicted_one_d_cycles: cost_1d,
        predicted_two_d_cycles: cost_2d,
    }
}

/// 1D by component: LPT of component aggregate weights across nodes,
/// with the exact cross-multiplied finish-time comparison of
/// [`crate::plan_shards`]. Every job of a component shares its node.
fn assign_one_d(jobs: &[ClusterJob], speeds: &[u128]) -> Vec<usize> {
    // Component ids in first-appearance order, with aggregate weights.
    let mut comp_ids: Vec<u32> = Vec::new();
    let mut comp_weight: Vec<u64> = Vec::new();
    for job in jobs {
        match comp_ids.iter().position(|&c| c == job.component) {
            Some(i) => comp_weight[i] += job.weight,
            None => {
                comp_ids.push(job.component);
                comp_weight.push(job.weight);
            }
        }
    }
    let mut order: Vec<usize> = (0..comp_ids.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(comp_weight[i]), i));
    let mut loads = vec![0u64; speeds.len()];
    let mut comp_node = vec![0usize; comp_ids.len()];
    for &i in &order {
        let mut best = 0usize;
        for d in 1..speeds.len() {
            // finish_d < finish_b ⟺ (load_d + w)·speed_b < (load_b + w)·speed_d
            let fd = u128::from(loads[d] + comp_weight[i]) * speeds[best];
            let fb = u128::from(loads[best] + comp_weight[i]) * speeds[d];
            if fd < fb {
                best = d;
            }
        }
        comp_node[i] = best;
        loads[best] += comp_weight[i];
    }
    jobs.iter()
        .map(|job| {
            let i = comp_ids
                .iter()
                .position(|&c| c == job.component)
                .expect("every job's component was registered");
            comp_node[i]
        })
        .collect()
}

/// 2D by edge block: the job list splits into contiguous blocks whose
/// weights track each node's share of the total speed. Each job goes to
/// the node whose speed-proportional band contains the *midpoint* of the
/// job's weight interval (exact integer comparison), so a single heavy
/// job lands where its bulk falls rather than sticking to the node its
/// left edge touched. Block boundaries that cut a component materialize
/// ghosts downstream.
fn assign_two_d(jobs: &[ClusterJob], speeds: &[u128]) -> Vec<usize> {
    let total_weight: u128 = jobs.iter().map(|j| u128::from(j.weight)).sum();
    let total_speed: u128 = speeds.iter().sum();
    let mut assignment = vec![0usize; jobs.len()];
    let mut node = 0usize;
    let mut speed_prefix: u128 = speeds[0];
    let mut weight_prefix: u128 = 0;
    for (j, job) in jobs.iter().enumerate() {
        // midpoint ≥ band end ⟺ (2·prefix + w)·S ≥ 2·W·speed_prefix
        let mid2 = 2 * weight_prefix + u128::from(job.weight);
        while node + 1 < speeds.len()
            && total_weight > 0
            && mid2 * total_speed >= 2 * total_weight * speed_prefix
        {
            node += 1;
            speed_prefix += speeds[node];
        }
        assignment[j] = node;
        weight_prefix += u128::from(job.weight);
    }
    assignment
}

/// Predicted communication-volume cost of an assignment, in cycles: the
/// max over nodes of contended partition upload + incoming ghost
/// exchanges + compute (`weight·clock/speed`). The makespan surrogate
/// [`PartitionStrategy::Auto`] minimizes.
#[must_use]
pub fn predict_cost(
    jobs: &[ClusterJob],
    assignment: &[usize],
    speeds: &[u128],
    net: &Interconnect,
    clock_hz: u64,
) -> u64 {
    let n = speeds.len();
    let mut bytes = vec![0u64; n];
    let mut weight = vec![0u64; n];
    let mut ghost = vec![0u64; n];
    for (j, job) in jobs.iter().enumerate() {
        let d = assignment[j];
        bytes[d] = bytes[d].saturating_add(job.bytes);
        weight[d] += job.weight;
        if j > 0 && jobs[j - 1].component == job.component && assignment[j - 1] != d {
            ghost[d] += net.ghost_cycles(job.ghost_bytes, clock_hz);
        }
    }
    let links = (0..n).filter(|&d| weight[d] > 0).count().max(1);
    (0..n)
        .map(|d| {
            if weight[d] == 0 {
                return 0;
            }
            let upload = net.uplink_cycles(bytes[d], links, clock_hz);
            let compute = u64::try_from(
                u128::from(weight[d]).saturating_mul(u128::from(clock_hz)) / speeds[d],
            )
            .unwrap_or(u64::MAX);
            upload.saturating_add(ghost[d]).saturating_add(compute)
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(weight: u64, component: u32, ghost_bytes: u64) -> ClusterJob {
        ClusterJob {
            weight,
            bytes: weight / 8 + 1,
            component,
            ghost_vertices: ghost_bytes / 4,
            ghost_bytes,
        }
    }

    #[test]
    fn spec_parses_nodes_and_rosters() {
        let c = ClusterSpec::parse("4x(2xC2050)").unwrap();
        assert_eq!(c.len(), 4);
        assert_eq!(c.total_devices(), 8);
        assert_eq!(c.nodes()[0].len(), 2);
        assert_eq!(c.to_string(), "4x(2xC2050)");

        let c = ClusterSpec::parse("2x(2xC2050,1xC1060),1xC1060").unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.total_devices(), 7);
        assert_eq!(c.to_string(), "2x(2xC2050,1xC1060),1x(1xC1060)");
    }

    #[test]
    fn spec_accepts_bare_models_and_counts() {
        let c = ClusterSpec::parse("c2070").unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.nodes()[0].devices()[0].name, "C2070");
        let c = ClusterSpec::parse("64xC2050").unwrap();
        assert_eq!(c.len(), 64);
        assert_eq!(c.total_devices(), 64);
        let c = ClusterSpec::parse("3X(c1060)").unwrap();
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn spec_rejects_garbage() {
        for bad in [
            "",
            " ,",
            "0x(C2050)",
            "65xC2050",
            "4x(2xC2050",
            "4x2xC2050)",
            "4x(9xC2050)",
            "2xGTX480",
            "(C2050),,(C1060)",
            "4x((C2050))",
        ] {
            assert!(ClusterSpec::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for s in [
            "1x(1xC1060)",
            "4x(2xC2050)",
            "64x(1xC2050)",
            "2x(2xC2050,1xC1060),1x(1xC1060)",
        ] {
            let c = ClusterSpec::parse(s).unwrap();
            assert_eq!(c.to_string(), s);
            let d = ClusterSpec::parse(&c.to_string()).unwrap();
            assert_eq!(d.len(), c.len());
            assert_eq!(d.total_devices(), c.total_devices());
        }
    }

    #[test]
    fn strategy_parses_and_labels() {
        assert_eq!(
            PartitionStrategy::parse("auto").unwrap(),
            PartitionStrategy::Auto
        );
        assert_eq!(
            PartitionStrategy::parse("1D").unwrap(),
            PartitionStrategy::OneD
        );
        assert_eq!(
            PartitionStrategy::parse("2d").unwrap(),
            PartitionStrategy::TwoD
        );
        assert!(PartitionStrategy::parse("3d").is_err());
        for s in [
            PartitionStrategy::Auto,
            PartitionStrategy::OneD,
            PartitionStrategy::TwoD,
        ] {
            assert_eq!(PartitionStrategy::parse(s.label()).unwrap(), s);
        }
    }

    fn homogeneous_speeds(n: usize) -> Vec<u128> {
        vec![14 * 1_150_000_000u128; n]
    }

    #[test]
    fn one_d_keeps_components_whole() {
        let jobs: Vec<ClusterJob> = (0..24).map(|i| job(100 + i, (i % 6) as u32, 64)).collect();
        let speeds = homogeneous_speeds(3);
        let plan = plan_cluster(
            &jobs,
            &speeds,
            &Interconnect::cluster_default(),
            1_150_000_000,
            PartitionStrategy::OneD,
        );
        for (j, job) in jobs.iter().enumerate() {
            for (k, other) in jobs.iter().enumerate() {
                if job.component == other.component {
                    assert_eq!(plan.placement.assignment[j], plan.placement.assignment[k]);
                }
            }
        }
        assert_eq!(plan.strategy, PartitionStrategy::OneD);
        assert!(!plan.auto);
    }

    #[test]
    fn two_d_blocks_are_contiguous_and_cover_all_nodes() {
        let jobs: Vec<ClusterJob> = (0..64).map(|_| job(100, 0, 64)).collect();
        let speeds = homogeneous_speeds(4);
        let plan = plan_cluster(
            &jobs,
            &speeds,
            &Interconnect::cluster_default(),
            1_150_000_000,
            PartitionStrategy::TwoD,
        );
        // Monotone non-decreasing assignment = contiguous blocks.
        for w in plan.placement.assignment.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for d in 0..4 {
            assert!(
                plan.placement.assignment.contains(&d),
                "node {d} got no work"
            );
        }
        let max = *plan.placement.loads.iter().max().unwrap();
        let min = *plan.placement.loads.iter().min().unwrap();
        assert!(
            max - min <= 100,
            "blocks should balance: {:?}",
            plan.placement.loads
        );
    }

    #[test]
    fn auto_picks_two_d_for_one_skewed_component() {
        // One giant component dominates: 1D strands it on a single node,
        // 2D splits it and pays a few cheap ghosts. 2D must win.
        let mut jobs: Vec<ClusterJob> = (0..40).map(|_| job(10_000, 0, 128)).collect();
        jobs.extend((0..4).map(|i| job(100, 1 + i, 0)));
        let speeds = homogeneous_speeds(4);
        let plan = plan_cluster(
            &jobs,
            &speeds,
            &Interconnect::cluster_default(),
            1_150_000_000,
            PartitionStrategy::Auto,
        );
        assert!(plan.auto);
        assert_eq!(plan.strategy, PartitionStrategy::TwoD);
        assert!(
            plan.predicted_two_d_cycles < plan.predicted_one_d_cycles,
            "2D {} must beat 1D {}",
            plan.predicted_two_d_cycles,
            plan.predicted_one_d_cycles
        );
    }

    #[test]
    fn auto_picks_one_d_for_balanced_components_with_heavy_ghosts() {
        // Many equal components already balance under 1D with zero
        // ghosts; under 2D every boundary cut pays a huge ghost payload
        // over a slow fabric. 1D must win.
        let jobs: Vec<ClusterJob> = (0..16)
            .map(|i| job(1_000, (i / 2) as u32, 50_000_000))
            .collect();
        let speeds = homogeneous_speeds(4);
        let net = Interconnect::with_inter(crate::LinkTier::ethernet_10g());
        let plan = plan_cluster(&jobs, &speeds, &net, 1_150_000_000, PartitionStrategy::Auto);
        assert!(plan.auto);
        assert_eq!(plan.strategy, PartitionStrategy::OneD);
        assert!(plan.predicted_one_d_cycles <= plan.predicted_two_d_cycles);
    }

    #[test]
    fn faster_nodes_get_more_two_d_weight() {
        let jobs: Vec<ClusterJob> = (0..100).map(|_| job(100, 0, 0)).collect();
        // Node 1 is 3x the speed of node 0.
        let speeds = vec![1_000_000_000u128, 3_000_000_000u128];
        let plan = plan_cluster(
            &jobs,
            &speeds,
            &Interconnect::cluster_default(),
            1_000_000_000,
            PartitionStrategy::TwoD,
        );
        assert!(
            plan.placement.loads[1] > 2 * plan.placement.loads[0],
            "speed-proportional blocks: {:?}",
            plan.placement.loads
        );
    }

    #[test]
    fn predicted_costs_are_deterministic() {
        let jobs: Vec<ClusterJob> = (0..32)
            .map(|i| job(50 + i * 3, (i % 3) as u32, 16))
            .collect();
        let speeds = homogeneous_speeds(8);
        let a = plan_cluster(
            &jobs,
            &speeds,
            &Interconnect::cluster_default(),
            1_150_000_000,
            PartitionStrategy::Auto,
        );
        let b = plan_cluster(
            &jobs,
            &speeds,
            &Interconnect::cluster_default(),
            1_150_000_000,
            PartitionStrategy::Auto,
        );
        assert_eq!(a.placement.assignment, b.placement.assignment);
        assert_eq!(a.predicted_one_d_cycles, b.predicted_one_d_cycles);
        assert_eq!(a.predicted_two_d_cycles, b.predicted_two_d_cycles);
        assert_eq!(a.strategy, b.strategy);
    }
}
