//! # trigon-fleet
//!
//! The multi-device *fleet* model: everything needed to run the paper's
//! single-device machinery across several simulated devices at once.
//!
//! The paper sizes graphs per device (§IV, Eqs. 1–2) and schedules
//! chunks across one device's SMs (§VI). This crate lifts both one
//! level up:
//!
//! * [`FleetSpec`] — a parsed `"2xC2050,1xC1060"` device roster drawn
//!   from the Table I registry (at most [`FleetSpec::MAX_DEVICES`]);
//! * [`plan_shards`] — the *outer* §VI instance: heterogeneity-aware
//!   LPT of ALS jobs across devices, gated by each device's Eq. 1
//!   global-memory capacity;
//! * [`Interconnect`] — the two-tier network model ([`net`]): per-link
//!   H2D pricing with link contention plus D2D boundary exchange on the
//!   intra-node tier, contended partition uploads and ghost-vertex
//!   exchanges on the inter-node tier, all in simulated cycles like
//!   `trigon_gpu_sim::xfer`;
//! * [`ClusterSpec`] and [`plan_cluster`] — the cluster tier
//!   ([`cluster`]): `"4x(2xC2050)"`-style node rosters and the
//!   node-level partitioner choosing 1D-by-component vs 2D-by-edge-block
//!   from a predicted communication-volume cost model;
//! * [`LossPlan`] — deterministic device- or node-loss injection
//!   (always keeps at least one survivor), with [`reassign_lost`]
//!   migrating orphaned jobs onto survivors via the online Graham step
//!   (`trigon_sched::least_loaded_alive`) — one [`FleetPlan`] shape
//!   serves both levels, a [`ClusterPlan`] carries one.
//!
//! The crate is deliberately free of graph types: jobs are abstract
//! `(weight, bytes)` pairs, so `trigon-core` can feed it ALS footprints
//! and the planner stays unit-testable in isolation.

#![deny(missing_docs)]

pub mod cluster;
pub mod net;

pub use cluster::{
    plan_cluster, predict_cost, ClusterJob, ClusterPlan, ClusterSpec, PartitionStrategy,
};
pub use net::{Interconnect, LinkTier};

use std::fmt;
use trigon_gpu_sim::DeviceSpec;

/// A parsed multi-device roster, e.g. `"2xC2050,1xC1060"`.
///
/// Devices come from the Table I registry (`C1060`, `C2050`, `C2070`,
/// case-insensitive); a bare model name means one device. Expansion
/// order is the spec's textual order, which fixes the canonical device
/// indices used everywhere downstream (sharding, reduction, tracks).
#[derive(Debug, Clone)]
pub struct FleetSpec {
    devices: Vec<DeviceSpec>,
}

impl FleetSpec {
    /// Largest roster a spec may expand to.
    pub const MAX_DEVICES: usize = 8;

    /// Parses a comma-separated roster of `[<count>x]<model>` entries.
    ///
    /// # Errors
    ///
    /// A human-readable message for empty specs, unknown models, zero
    /// counts, or rosters larger than [`Self::MAX_DEVICES`].
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut devices = Vec::new();
        for raw in s.split(',') {
            let entry = raw.trim();
            if entry.is_empty() {
                return Err(format!("empty device entry in fleet spec {s:?}"));
            }
            let (count, model) = match entry.split_once(['x', 'X']) {
                Some((n, model)) if n.chars().all(|c| c.is_ascii_digit()) && !n.is_empty() => {
                    let count: usize = n
                        .parse()
                        .map_err(|_| format!("bad device count {n:?} in {entry:?}"))?;
                    (count, model)
                }
                _ => (1, entry),
            };
            if count == 0 {
                return Err(format!("device count must be >= 1 in {entry:?}"));
            }
            let spec = device_by_name(model).ok_or_else(|| {
                format!("unknown device model {model:?} (Table I: C1060, C2050, C2070)")
            })?;
            for _ in 0..count {
                devices.push(spec.clone());
            }
            if devices.len() > Self::MAX_DEVICES {
                return Err(format!(
                    "fleet spec {s:?} expands to more than {} devices",
                    Self::MAX_DEVICES
                ));
            }
        }
        if devices.is_empty() {
            return Err("fleet spec names no devices".into());
        }
        Ok(Self { devices })
    }

    /// A roster of `count` identical devices.
    ///
    /// # Errors
    ///
    /// When `count` is zero or exceeds [`Self::MAX_DEVICES`].
    pub fn homogeneous(spec: DeviceSpec, count: usize) -> Result<Self, String> {
        if count == 0 || count > Self::MAX_DEVICES {
            return Err(format!(
                "fleet size must be 1..={}, got {count}",
                Self::MAX_DEVICES
            ));
        }
        Ok(Self {
            devices: vec![spec; count],
        })
    }

    /// The expanded roster, in canonical device-index order.
    #[must_use]
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }

    /// Number of devices in the roster.
    #[must_use]
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the roster is empty (never true for a parsed spec).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }
}

impl fmt::Display for FleetSpec {
    /// Canonical form: consecutive runs of the same model collapse to
    /// `<count>x<model>` (`"2xC2050,1xC1060"`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut i = 0;
        while i < self.devices.len() {
            let name = self.devices[i].name;
            let mut j = i + 1;
            while j < self.devices.len() && self.devices[j].name == name {
                j += 1;
            }
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}x{}", j - i, name)?;
            first = false;
            i = j;
        }
        Ok(())
    }
}

/// Looks up a Table I device by (case-insensitive) model name.
#[must_use]
pub fn device_by_name(name: &str) -> Option<DeviceSpec> {
    DeviceSpec::table1()
        .into_iter()
        .find(|d| d.name.eq_ignore_ascii_case(name.trim()))
}

/// One abstract shard job: an ALS (or any chunk) reduced to its §VI
/// weight and its device-global byte footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardJob {
    /// §VI job size (for ALS jobs: the S-UTM bit footprint).
    pub weight: u64,
    /// Approximate bytes of device global memory the job occupies.
    pub bytes: u64,
}

/// A computed assignment of a job list to targets: the devices of a
/// fleet, or (inside a [`ClusterPlan`]) the nodes of a cluster.
#[derive(Debug, Clone)]
pub struct FleetPlan {
    /// `assignment[j]` = target index of job `j`.
    pub assignment: Vec<usize>,
    /// Summed job weight per target.
    pub loads: Vec<u64>,
    /// Summed job bytes per target.
    pub bytes: Vec<u64>,
}

/// Planning failed: some job fits no device's remaining capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityError {
    /// Bytes the unplaceable job needs.
    pub needed: u64,
    /// Largest single-device capacity in the fleet.
    pub capacity: u64,
}

/// Nominal §VI processing speed of a device: aggregate issue capacity,
/// `sm_count × clock_hz`. Used only relatively (finish-time ratios), so
/// the absolute unit does not matter.
#[must_use]
pub fn device_speed(d: &DeviceSpec) -> u128 {
    u128::from(d.sm_count) * u128::from(d.clock_hz)
}

/// The outer §VI scheduling instance: heterogeneity-aware LPT of jobs
/// across devices.
///
/// Jobs are taken longest-first (ties broken by original index) and each
/// is placed on the device minimizing its *finish time*
/// `(load + weight) / speed`, restricted to devices whose Eq. 1 byte
/// budget still fits the job. Finish times are compared exactly by
/// cross-multiplication in `u128` — no floating point — and ties go to
/// the lower device index, so the plan is a pure function of its inputs.
///
/// # Errors
///
/// [`CapacityError`] when a job's bytes exceed every device's remaining
/// global-memory budget.
pub fn plan_shards(jobs: &[ShardJob], devices: &[DeviceSpec]) -> Result<FleetPlan, CapacityError> {
    assert!(!devices.is_empty(), "cannot plan over an empty fleet");
    let speeds: Vec<u128> = devices.iter().map(device_speed).collect();
    let caps: Vec<u64> = devices.iter().map(|d| d.global_mem_bytes).collect();
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&j| (std::cmp::Reverse(jobs[j].weight), j));

    let mut plan = FleetPlan {
        assignment: vec![0; jobs.len()],
        loads: vec![0; devices.len()],
        bytes: vec![0; devices.len()],
    };
    for &j in &order {
        let job = jobs[j];
        let mut best: Option<usize> = None;
        for d in 0..devices.len() {
            if plan.bytes[d].saturating_add(job.bytes) > caps[d] {
                continue;
            }
            best = Some(match best {
                None => d,
                // finish_d < finish_b  ⟺  (load_d + w)·speed_b < (load_b + w)·speed_d
                Some(b) => {
                    let fd = u128::from(plan.loads[d] + job.weight) * speeds[b];
                    let fb = u128::from(plan.loads[b] + job.weight) * speeds[d];
                    if fd < fb {
                        d
                    } else {
                        b
                    }
                }
            });
        }
        let d = best.ok_or(CapacityError {
            needed: job.bytes,
            capacity: caps.iter().copied().max().unwrap_or(0),
        })?;
        plan.assignment[j] = d;
        plan.loads[d] += job.weight;
        plan.bytes[d] = plan.bytes[d].saturating_add(job.bytes);
    }
    Ok(plan)
}

/// Migrates every job owned by a lost target (device or node) onto the
/// survivors with the online Graham step — each orphan (in job order)
/// goes to the currently least-loaded survivor via
/// [`trigon_sched::least_loaded_alive`], exactly the policy the
/// single-device executor uses to drain stalled SMs. Returns the number
/// of jobs moved; an empty `lost` moves none.
///
/// Capacity is not re-checked here: a loss-time reshard is an emergency
/// migration, and the per-shard Eq. 1 layout check downstream still
/// guards the hard limit.
///
/// # Panics
///
/// Panics when `lost` covers every target (callers must keep at least
/// one survivor, which [`LossPlan::targets`] guarantees).
pub fn reassign_lost(plan: &mut FleetPlan, jobs: &[ShardJob], lost: &[usize]) -> usize {
    let mut alive = vec![true; plan.loads.len()];
    for &d in lost {
        alive[d] = false;
        plan.loads[d] = 0;
        plan.bytes[d] = 0;
    }
    assert!(
        alive.iter().any(|&a| a),
        "loss must leave at least one survivor"
    );
    let mut moved = 0;
    for j in 0..plan.assignment.len() {
        if alive[plan.assignment[j]] {
            continue;
        }
        let t = trigon_sched::least_loaded_alive(&plan.loads, &alive)
            .expect("at least one survivor is alive");
        plan.assignment[j] = t;
        plan.loads[t] += jobs[j].weight;
        plan.bytes[t] = plan.bytes[t].saturating_add(jobs[j].bytes);
        moved += 1;
    }
    moved
}

/// Seconds → device cycles, rounding up like `trigon_gpu_sim::emit`.
#[must_use]
pub fn seconds_to_cycles(s: f64, clock_hz: u64) -> u64 {
    (s * clock_hz as f64).ceil() as u64
}

/// A deterministic device-loss plan: `count` devices fail at shard
/// start, chosen by `seed`. Mirrors the SM-stall discipline of
/// `trigon_gpu_sim::faults` — targets are distinct and at least one
/// device always survives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossPlan {
    /// Devices to lose (clamped to `fleet − 1` at draw time).
    pub count: u32,
    /// Seed the targets derive from.
    pub seed: u64,
}

impl LossPlan {
    /// A plan losing `count` devices under `seed`.
    #[must_use]
    pub fn new(count: u32, seed: u64) -> Self {
        Self { count, seed }
    }

    /// The device indices that fail, sorted ascending. Distinct, at most
    /// `devices − 1` of them (one survivor always remains), and a pure
    /// function of `(count, seed, devices)`.
    #[must_use]
    pub fn targets(&self, devices: usize) -> Vec<usize> {
        if devices <= 1 || self.count == 0 {
            return Vec::new();
        }
        let max = (devices - 1).min(self.count as usize);
        let mut rng = SplitMix64(self.seed ^ LOSS_STREAM_TAG.wrapping_mul(0xA076_1D64_78BD_642F));
        let mut picked: Vec<usize> = Vec::with_capacity(max);
        while picked.len() < max {
            let d = (rng.next() % devices as u64) as usize;
            if !picked.contains(&d) {
                picked.push(d);
            }
        }
        picked.sort_unstable();
        picked
    }
}

/// Stream tag separating device-loss draws from any other seeded stream.
const LOSS_STREAM_TAG: u64 = 0xF1EE_7000_0000_0001;

/// SplitMix64 — the same tiny PRNG `trigon_gpu_sim::faults` uses for its
/// per-kind fault streams.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_counts_and_models() {
        let f = FleetSpec::parse("2xC2050,1xC1060").unwrap();
        assert_eq!(f.len(), 3);
        assert_eq!(f.devices()[0].name, "C2050");
        assert_eq!(f.devices()[1].name, "C2050");
        assert_eq!(f.devices()[2].name, "C1060");
        assert_eq!(f.to_string(), "2xC2050,1xC1060");
    }

    #[test]
    fn spec_accepts_bare_and_case_insensitive_names() {
        let f = FleetSpec::parse("c2070").unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(f.devices()[0].name, "C2070");
        assert_eq!(f.to_string(), "1xC2070");
        assert_eq!(FleetSpec::parse("3Xc1060").unwrap().len(), 3);
    }

    #[test]
    fn spec_rejects_garbage() {
        for bad in ["", " ,", "0xC2050", "9xC2050", "2xGTX480", "C2050,,C1060"] {
            assert!(FleetSpec::parse(bad).is_err(), "{bad:?} should not parse");
        }
        assert!(FleetSpec::parse("4xC2050,5xC1060").is_err(), "9 devices");
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for s in [
            "1xC1060",
            "2xC2050,1xC1060",
            "8xC2070",
            "1xC1060,1xC2050,1xC1060",
        ] {
            let f = FleetSpec::parse(s).unwrap();
            assert_eq!(f.to_string(), s);
            let g = FleetSpec::parse(&f.to_string()).unwrap();
            assert_eq!(g.len(), f.len());
        }
    }

    #[test]
    fn lpt_prefers_faster_devices() {
        // C1060: 30 SMs @1.296 GHz; C2050: 14 SMs @1.15 GHz — the C1060
        // has ~2.4x the aggregate speed, so a single job lands there.
        let fleet = vec![DeviceSpec::c2050(), DeviceSpec::c1060()];
        let jobs = [ShardJob {
            weight: 1000,
            bytes: 1,
        }];
        let plan = plan_shards(&jobs, &fleet).unwrap();
        assert_eq!(plan.assignment, vec![1]);
    }

    #[test]
    fn lpt_balances_homogeneous_fleet() {
        let fleet = vec![DeviceSpec::c2050(); 2];
        let jobs: Vec<ShardJob> = [5u64, 4, 3, 3, 3]
            .iter()
            .map(|&w| ShardJob {
                weight: w,
                bytes: 0,
            })
            .collect();
        let plan = plan_shards(&jobs, &fleet).unwrap();
        // LPT: 5 → d0, 4 → d1, 3 → d1 (7), 3 → d0 (8), 3 → d1 (10)…
        let makespan = plan.loads.iter().copied().max().unwrap();
        assert!(makespan <= 10, "loads {:?}", plan.loads);
        assert_eq!(plan.loads.iter().sum::<u64>(), 18);
    }

    #[test]
    fn capacity_gate_redirects_and_errors() {
        let mut small = DeviceSpec::c2050();
        small.global_mem_bytes = 10;
        let fleet = vec![small.clone(), DeviceSpec::c2050()];
        let jobs = [ShardJob {
            weight: 1,
            bytes: 100,
        }];
        // Device 0 cannot hold the job; it must land on device 1 even
        // though both start empty.
        let plan = plan_shards(&jobs, &fleet).unwrap();
        assert_eq!(plan.assignment, vec![1]);

        let fleet = vec![small.clone(), small];
        let err = plan_shards(&jobs, &fleet).unwrap_err();
        assert_eq!(err.needed, 100);
        assert_eq!(err.capacity, 10);
    }

    #[test]
    fn reassign_moves_every_orphan_to_survivors() {
        let fleet = vec![DeviceSpec::c2050(); 3];
        let jobs: Vec<ShardJob> = (0..9)
            .map(|i| ShardJob {
                weight: 10 + i,
                bytes: 1,
            })
            .collect();
        let mut plan = plan_shards(&jobs, &fleet).unwrap();
        let before: u64 = plan.loads.iter().sum();
        let moved = reassign_lost(&mut plan, &jobs, &[1]);
        assert!(moved > 0);
        assert!(plan.assignment.iter().all(|&d| d != 1));
        assert_eq!(plan.loads[1], 0);
        assert_eq!(plan.loads.iter().sum::<u64>(), before);
    }

    #[test]
    fn loss_targets_are_deterministic_and_keep_a_survivor() {
        for devices in 1..=8usize {
            for seed in 0..20u64 {
                let plan = LossPlan::new(100, seed);
                let t1 = plan.targets(devices);
                let t2 = plan.targets(devices);
                assert_eq!(t1, t2);
                assert!(t1.len() < devices.max(1) || devices == 0);
                if devices > 1 {
                    assert_eq!(t1.len(), devices - 1, "saturating plan loses all but one");
                }
                let mut sorted = t1.clone();
                sorted.dedup();
                assert_eq!(sorted, t1, "targets sorted and distinct");
            }
        }
        assert!(LossPlan::new(3, 7).targets(1).is_empty());
        assert!(LossPlan::new(0, 7).targets(4).is_empty());
    }
}
