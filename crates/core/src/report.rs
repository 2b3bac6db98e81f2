//! The unified [`RunReport`]: everything one pipeline run knows about
//! itself, in one schema.
//!
//! A report carries the graph stats, the method/device configuration,
//! the counting result, and — for simulated-GPU runs — the memory-system
//! accounting the paper's primitives act on: coalescing transactions,
//! the partition-camping factor (Eq. 10), per-SM makespan and
//! utilization (§VI), PCIe transfer, and the Eq. 6 predicted pipeline
//! time against the simulated one. The attached telemetry
//! [`Collector`] adds scoped phase wall times (`split`, `layout`,
//! `dispatch`, `count`) and every counter the lower layers emitted.
//!
//! Serialization is the hand-rolled JSON of `trigon-telemetry`
//! ([`RunReport::to_json`]); the schema is pinned by a golden key-path
//! test, not by values, so timings may vary freely between runs.

use trigon_gpu_sim::{CounterSet, FaultOutcome, ProfileData};
use trigon_telemetry::{registry, Collector, Json, TraceSummary, Tracer};

/// Version of the JSON schema [`RunReport::to_json`] emits. Bump when
/// key paths change shape.
///
/// History: 1 = initial telemetry schema; 2 = added the `trace`
/// section ([`TraceSummary`]) and per-partition `partition.*.p{i}`
/// counters; 3 = added the `faults` section ([`FaultsSection`])
/// summarizing fault injection and recovery; 4 = added the `fleet`
/// section ([`FleetSection`]) for multi-device runs; 5 = added the
/// always-present `workload` section ([`WorkloadSection`]) carrying
/// per-workload results (clustering, k-truss, enumeration); 6 = added
/// the `profile` section ([`ProfileSection`]) with per-counter totals,
/// derived metrics, the per-ALS hotspot table, and per-device roofline
/// points; 7 = added the `cluster` section ([`ClusterSection`]) for
/// simulated multi-node runs; 8 = added the `serving` section
/// ([`ServingSection`]) for queries dispatched by the `trigon serve`
/// registry (cache hit/miss, queue wait, batch amortization, admission
/// verdict).
pub const RUN_REPORT_SCHEMA_VERSION: u32 = 8;

/// Workload-specific result detail — the schema-v5 `workload` section,
/// present on every report. The count-style workloads carry only their
/// identity (the count itself lives in `result.count`); the analytic
/// workloads carry their derived quantities.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSection {
    /// Plain triangle count.
    Triangles,
    /// `k`-clique count.
    KCount {
        /// Clique order.
        k: u32,
    },
    /// Per-vertex clustering coefficients + global transitivity.
    Clustering {
        /// Vertices the coefficient vector covers.
        vertices: usize,
        /// Mean clustering coefficient.
        mean_clustering: f64,
        /// Global transitivity `3T / wedges`.
        transitivity: f64,
    },
    /// `k`-truss decomposition.
    KTruss {
        /// Truss order.
        k: u32,
        /// Edges before peeling.
        edges_initial: u64,
        /// Edges surviving in the `k`-truss.
        edges_kept: u64,
        /// Edges peeled away.
        edges_peeled: u64,
    },
    /// Triangle enumeration.
    Enumerate {
        /// Triangles listed.
        triangles: u64,
        /// Order-independent FNV-1a checksum of the sorted triple list.
        checksum: u64,
    },
}

impl WorkloadSection {
    /// The canonical workload name (`result.kind`'s sibling).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadSection::Triangles => "triangles",
            WorkloadSection::KCount { .. } => "kcount",
            WorkloadSection::Clustering { .. } => "clustering",
            WorkloadSection::KTruss { .. } => "ktruss",
            WorkloadSection::Enumerate { .. } => "enumerate",
        }
    }

    fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("name", Json::from(self.name()));
        match *self {
            WorkloadSection::Triangles => {}
            WorkloadSection::KCount { k } => {
                o.set("k", Json::from(u64::from(k)));
            }
            WorkloadSection::Clustering {
                vertices,
                mean_clustering,
                transitivity,
            } => {
                o.set("vertices", Json::from(vertices));
                o.set("mean_clustering", Json::from(mean_clustering));
                o.set("transitivity", Json::from(transitivity));
            }
            WorkloadSection::KTruss {
                k,
                edges_initial,
                edges_kept,
                edges_peeled,
            } => {
                o.set("k", Json::from(u64::from(k)));
                o.set("edges_initial", Json::from(edges_initial));
                o.set("edges_kept", Json::from(edges_kept));
                o.set("edges_peeled", Json::from(edges_peeled));
            }
            WorkloadSection::Enumerate {
                triangles,
                checksum,
            } => {
                o.set("triangles", Json::from(triangles));
                o.set("checksum", Json::from(checksum));
            }
        }
        o
    }
}

/// GPU-simulator detail of a run (absent for pure-CPU methods).
#[derive(Debug, Clone)]
pub struct GpuSection {
    /// Global-memory transactions issued by the kernel (coalescing
    /// output, Table III).
    pub transactions: u64,
    /// Phase-weighted partition-camping factor (Eq. 10; 1.0 = none).
    pub camping_factor: f64,
    /// Simulated kernel cycles.
    pub kernel_cycles: u64,
    /// Kernel seconds.
    pub kernel_s: f64,
    /// Host→device PCIe transfer seconds.
    pub transfer_s: f64,
    /// Host-side preparation seconds (BFS, Algorithm 1, layout).
    pub host_s: f64,
    /// One-time context/allocation seconds.
    pub context_s: f64,
    /// Thread blocks dispatched.
    pub blocks: usize,
    /// Bytes of device global memory the layout used.
    pub layout_bytes: u64,
    /// Makespan of the block dispatch in base cycles (§VI).
    pub makespan_cycles: u64,
    /// Mean-load / makespan SM utilization (1.0 = perfectly balanced).
    pub sm_utilization: f64,
    /// Makespan imbalance of the schedule (1.0 = perfect).
    pub schedule_imbalance: f64,
}

/// Hybrid shared/global placement detail (present for hybrid runs).
#[derive(Debug, Clone)]
pub struct HybridSection {
    /// ALS served from shared memory.
    pub shared_als: usize,
    /// ALS served from global memory.
    pub global_als: usize,
    /// Chunks produced by Algorithm 1.
    pub chunks: usize,
    /// Chunks too large for shared memory.
    pub oversize_chunks: usize,
    /// Eq. 9 bank-conflict degree of the shared-tier access pattern
    /// (1.0 = conflict-free).
    pub bank_conflict_degree: f64,
}

/// Fault-injection and recovery summary (present when the run was
/// configured with `--faults` / [`crate::Run::faults`]).
#[derive(Debug, Clone)]
pub struct FaultsSection {
    /// Canonical `kind:count` form of the requested plan.
    pub spec: String,
    /// Seed the fault targets derive from.
    pub seed: u64,
    /// Whether recovery ran (false = negative-control mode).
    pub recovery: bool,
    /// ECC corruptions actually injected.
    pub injected_ecc: u32,
    /// Transfer failures actually injected.
    pub injected_xfer: u32,
    /// Kernel aborts actually injected.
    pub injected_abort: u32,
    /// SM stalls actually injected.
    pub injected_stall: u32,
    /// Failed transfer attempts that were retried.
    pub transfer_retries: u32,
    /// Chunk re-executions.
    pub chunk_retries: u32,
    /// Chunks moved off stalled SMs.
    pub reassigned_chunks: u64,
    /// Chunks recomputed on the host after exhausting retries.
    pub cpu_fallback_chunks: u64,
    /// Whether the whole run degraded to the CPU path.
    pub run_cpu_fallback: bool,
    /// SMs that stalled.
    pub stalled_sms: u32,
    /// Total retry backoff paid, in device cycles.
    pub backoff_cycles: u64,
    /// Length of the ordered fault/recovery event log.
    pub events: usize,
}

impl FaultsSection {
    /// Builds the section from the executor's [`FaultOutcome`] plus the
    /// plan identity (canonical spec string, seed, recovery flag).
    #[must_use]
    pub fn from_outcome(spec: String, seed: u64, recovery: bool, o: &FaultOutcome) -> Self {
        Self {
            spec,
            seed,
            recovery,
            injected_ecc: o.injected.ecc,
            injected_xfer: o.injected.xfer,
            injected_abort: o.injected.abort,
            injected_stall: o.injected.stall,
            transfer_retries: o.transfer_retries,
            chunk_retries: o.chunk_retries,
            reassigned_chunks: o.reassigned_chunks,
            cpu_fallback_chunks: o.cpu_fallback_chunks,
            run_cpu_fallback: o.run_cpu_fallback,
            stalled_sms: o.stalled_sms,
            backoff_cycles: o.backoff_cycles,
            events: o.events.len(),
        }
    }
}

/// One device's share of a multi-device fleet run.
///
/// Cycle figures are in *that device's* clock domain; for homogeneous
/// fleets (the `repro fleet` sweep) the domains coincide and the
/// section-level maxima are exact makespans.
#[derive(Debug, Clone)]
pub struct FleetDeviceEntry {
    /// Table I model name.
    pub device: String,
    /// Whether the injected loss plan killed this device at shard start.
    pub lost: bool,
    /// Adjacent level sets the device ended up executing.
    pub als: usize,
    /// Summed §VI job weight (ALS S-UTM bits) of those sets.
    pub weight: u64,
    /// Bytes of the shard's global-memory layout.
    pub layout_bytes: u64,
    /// Contended H2D upload cycles (link contention included).
    pub h2d_cycles: u64,
    /// D2D boundary-exchange cycles received by this device.
    pub d2d_cycles: u64,
    /// Simulated kernel cycles of the shard.
    pub kernel_cycles: u64,
    /// End of the device's timeline: `h2d + d2d + kernel` cycles.
    pub end_cycles: u64,
    /// The shard's partial triangle count.
    pub triangles: u64,
}

/// Multi-device fleet summary (present when the run was configured with
/// `--devices` / [`crate::Run::fleet`]).
#[derive(Debug, Clone)]
pub struct FleetSection {
    /// Canonical fleet spec (`"2xC2050,1xC1060"`).
    pub spec: String,
    /// Devices in the roster.
    pub devices: usize,
    /// Devices the loss plan killed.
    pub lost_devices: usize,
    /// ALS jobs migrated off lost devices (online Graham reshard).
    pub reassigned_als: usize,
    /// Concurrent H2D links the contention model priced.
    pub links: usize,
    /// Outer §VI makespan: max per-device `end_cycles`.
    pub makespan_cycles: u64,
    /// Summed per-device kernel cycles (compute, no transfers).
    pub compute_cycles: u64,
    /// Summed contended H2D cycles.
    pub h2d_cycles: u64,
    /// Summed D2D boundary-exchange cycles.
    pub d2d_cycles: u64,
    /// Max / mean per-device `end_cycles` over devices that ran
    /// (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// Per-device detail, in canonical device-index order.
    pub per_device: Vec<FleetDeviceEntry>,
}

/// One node of a simulated cluster run.
///
/// Cycle quantities are measured on the node's own primary clock (its
/// first device); comparisons across nodes are therefore meaningful for
/// homogeneous rosters and approximate otherwise, exactly like
/// [`FleetDeviceEntry`] one level down.
#[derive(Debug, Clone)]
pub struct ClusterNodeEntry {
    /// Canonical fleet spec of the node's device roster.
    pub fleet: String,
    /// Whether the node-loss plan killed this node at partition time.
    pub lost: bool,
    /// Adjacent level sets the node ended up executing.
    pub als: usize,
    /// Summed §VI job weight (ALS S-UTM bits) of those sets.
    pub weight: u64,
    /// Bytes of the node's aggregate global-memory layout.
    pub layout_bytes: u64,
    /// Contended inter-node partition-upload cycles.
    pub uplink_cycles: u64,
    /// Ghost-vertex exchange cycles received by this node.
    pub ghost_cycles: u64,
    /// Ghost/surrogate vertices materialized on this node.
    pub ghost_vertices: u64,
    /// Bytes of ghost adjacency received by this node.
    pub ghost_bytes: u64,
    /// The node's internal fleet makespan (intra-node H2D/D2D + kernels).
    pub fleet_makespan_cycles: u64,
    /// End of the node's timeline: `uplink + ghost + fleet makespan`.
    pub end_cycles: u64,
    /// The node's partial triangle count.
    pub triangles: u64,
}

/// Simulated cluster summary — the schema-v7 `cluster` section, present
/// when the run was configured with `--cluster` /
/// [`crate::Run::cluster`].
///
/// Describes the third scheduling level: the node partitioner's layout
/// choice (1D by component vs 2D by edge block), the predicted
/// communication-volume costs that drove it, and the inter-node traffic
/// (partition uplinks, ghost-vertex exchanges) priced on the two-tier
/// interconnect.
#[derive(Debug, Clone)]
pub struct ClusterSection {
    /// Canonical cluster spec (`"4x(2xC2050)"`).
    pub spec: String,
    /// Nodes in the roster.
    pub nodes: usize,
    /// Total devices across every node.
    pub devices: usize,
    /// Layout the partitioner used: `"1d"` or `"2d"`.
    pub strategy: String,
    /// Whether the cost model chose the layout (request was `auto`).
    pub auto: bool,
    /// Predicted cost of the 1D-by-component layout, in cycles.
    pub predicted_one_d_cycles: u64,
    /// Predicted cost of the 2D-by-edge-block layout, in cycles.
    pub predicted_two_d_cycles: u64,
    /// Nodes the loss plan killed.
    pub lost_nodes: usize,
    /// ALS jobs migrated off lost nodes (online Graham reshard).
    pub reassigned_als: usize,
    /// Concurrent uplinks the inter-node contention model priced.
    pub links: usize,
    /// Inter-node fabric class (`"IB-QDR"`, `"10GbE"`).
    pub inter_tier: String,
    /// Cluster makespan: max per-node `end_cycles`.
    pub makespan_cycles: u64,
    /// Summed per-node fleet makespans (compute + intra-node traffic).
    pub compute_cycles: u64,
    /// Summed contended partition-upload cycles.
    pub uplink_cycles: u64,
    /// Summed ghost-vertex exchange cycles.
    pub ghost_cycles: u64,
    /// Total ghost/surrogate vertices materialized across nodes.
    pub ghost_vertices: u64,
    /// Total ghost adjacency bytes moved over the inter-node tier.
    pub ghost_bytes: u64,
    /// Max / mean per-node `end_cycles` over nodes that ran.
    pub imbalance: f64,
    /// Per-node detail, in canonical node-index order.
    pub per_node: Vec<ClusterNodeEntry>,
}

/// Simulated performance-counter profile — the schema-v6 `profile`
/// section, present on every run that executed work.
///
/// Carries the run's [`ProfileData`]: counter totals (in the canonical
/// [`registry::COUNTERS`] order), the derived metrics of
/// [`registry::DERIVED`], the top-[`ProfileSection::HOTSPOT_N`] per-ALS
/// hotspot table, and one roofline point per device. All quantities are
/// exact integers (or pure functions of them), priced at simulation
/// time — bit-identical across executors, thread widths, and fault
/// plans.
#[derive(Debug, Clone)]
pub struct ProfileSection {
    /// The full attribution data (per-ALS, per-SM, totals, devices).
    pub data: ProfileData,
}

impl ProfileSection {
    /// ALS rows the serialized hotspot table keeps (hottest first).
    pub const HOTSPOT_N: usize = 8;

    /// Wraps the executor's attribution data.
    #[must_use]
    pub fn new(data: ProfileData) -> Self {
        Self { data }
    }

    /// Resolves a raw counter name against `c` (registry lookup).
    fn counter_value(c: &CounterSet, name: &str) -> f64 {
        match name {
            "tests" => c.tests as f64,
            "instructions" => c.instructions as f64,
            "transactions" => c.transactions as f64,
            "min_transactions" => c.min_transactions as f64,
            "bank_conflicts" => c.bank_conflicts as f64,
            "compute_cycles" => c.compute_cycles as f64,
            "mem_cycles" => c.mem_cycles as f64,
            "blocks" => c.blocks as f64,
            _ => 0.0,
        }
    }

    /// One counter bundle as a JSON object, in canonical registry order.
    fn counters_json(c: &CounterSet) -> Json {
        let mut o = Json::object();
        o.set(
            "tests",
            u64::try_from(c.tests).map_or(Json::Float(c.tests as f64), Json::from),
        );
        o.set("instructions", Json::from(c.instructions));
        o.set("transactions", Json::from(c.transactions));
        o.set("min_transactions", Json::from(c.min_transactions));
        o.set("bank_conflicts", Json::from(c.bank_conflicts));
        o.set("compute_cycles", Json::from(c.compute_cycles));
        o.set("mem_cycles", Json::from(c.mem_cycles));
        o.set("blocks", Json::from(c.blocks));
        o
    }

    /// Serializes the section: totals, derived metrics, hotspots,
    /// per-device rooflines.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("counters", Self::counters_json(&self.data.totals));

        let totals = &self.data.totals;
        let get = |name: &str| Self::counter_value(totals, name);
        let mut derived = Json::object();
        for d in registry::DERIVED {
            derived.set(d.name, Json::from(d.eval(&get)));
        }
        o.set("derived", derived);

        o.set("als", Json::from(self.data.per_als.len()));
        o.set("sms", Json::from(self.data.per_sm.len()));
        o.set(
            "hotspots",
            Json::Array(
                self.data
                    .hotspots(Self::HOTSPOT_N)
                    .into_iter()
                    .map(|i| {
                        let c = &self.data.per_als[i];
                        let mut h = Json::object();
                        h.set("als", Json::from(i));
                        h.set(
                            "tests",
                            u64::try_from(c.tests).map_or(Json::Float(c.tests as f64), Json::from),
                        );
                        h.set("transactions", Json::from(c.transactions));
                        h.set("cycles", Json::from(c.cycles()));
                        h.set(
                            "coalescing_efficiency",
                            Json::from(c.coalescing_efficiency()),
                        );
                        h
                    })
                    .collect(),
            ),
        );

        o.set(
            "per_device",
            Json::Array(
                self.data
                    .devices
                    .iter()
                    .map(|d| {
                        let mut e = Json::object();
                        e.set("device", Json::from(d.device.as_str()));
                        e.set("counters", Self::counters_json(&d.counters));
                        let mut r = Json::object();
                        r.set(
                            "compute_roof_ops_s",
                            Json::from(d.roofline.compute_roof_ops_s),
                        );
                        r.set("mem_roof_bytes_s", Json::from(d.roofline.mem_roof_bytes_s));
                        r.set("ridge_ops_byte", Json::from(d.roofline.ridge_ops_byte));
                        r.set(
                            "intensity_ops_byte",
                            Json::from(d.roofline.intensity_ops_byte),
                        );
                        r.set("achieved_ops_s", Json::from(d.roofline.achieved_ops_s));
                        r.set("bound", Json::from(d.roofline.bound));
                        e.set("roofline", r);
                        e
                    })
                    .collect(),
            ),
        );
        o
    }
}

/// Per-request serving detail — the schema-v8 `serving` section, present
/// when the run was dispatched through the `trigon serve` graph
/// registry rather than a one-shot invocation.
///
/// Records what the serving tier did on top of the run itself: the
/// Eqs. 1–2 admission verdict and execution target, the result- and
/// artifact-cache outcomes for the (graph, device, method) key, time
/// spent in the bounded admission queue, and how the batch the request
/// rode in amortized the simulated H2D upload.
#[derive(Debug, Clone)]
pub struct ServingSection {
    /// Registry name of the graph the query ran against.
    pub graph: String,
    /// Admission verdict: `"admit"` (the graph fits the primary device
    /// under Eq. 2) or `"route"` (the device rejected it and the query
    /// ran on the pooled fleet roster instead).
    pub verdict: String,
    /// Where the query executed: a device name or a fleet spec.
    pub target: String,
    /// Result-cache outcome: `"hit"` (an identical earlier query's
    /// report was replayed without executing) or `"miss"`.
    pub cache: String,
    /// Artifact-cache outcome for the (graph, device, method) key:
    /// `"hit"` (`LevelMap`/ALS reused) or `"miss"` (built and cached).
    pub artifacts: String,
    /// Seconds the request waited for a slot in the bounded queue.
    pub queue_wait_s: f64,
    /// Number of queries in the batch this request was dispatched with
    /// (1 = unbatched).
    pub batch_size: u64,
    /// Zero-based position of this request within its batch.
    pub batch_index: u64,
    /// Simulated H2D transfer seconds charged to this request: the
    /// batch's single upload divided across its queries.
    pub h2d_share_s: f64,
}

impl ServingSection {
    /// Serializes the section — also used by the serving front end to
    /// patch a replayed (result-cache hit) report with the current
    /// request's serving detail.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("graph", Json::from(self.graph.as_str()));
        o.set("verdict", Json::from(self.verdict.as_str()));
        o.set("target", Json::from(self.target.as_str()));
        o.set("cache", Json::from(self.cache.as_str()));
        o.set("artifacts", Json::from(self.artifacts.as_str()));
        o.set("queue_wait_s", Json::from(self.queue_wait_s));
        o.set("batch_size", Json::from(self.batch_size));
        o.set("batch_index", Json::from(self.batch_index));
        o.set("h2d_share_s", Json::from(self.h2d_share_s));
        o
    }
}

/// The paper's Eq. 6 execution-time model against the simulation.
#[derive(Debug, Clone)]
pub struct Eq6Section {
    /// Eq. 6 pipeline seconds predicted from the graph's split
    /// (`τt = μ·τs + ψg·τg`).
    pub predicted_s: f64,
    /// Kernel seconds the simulator actually produced.
    pub simulated_s: f64,
    /// `predicted_s / simulated_s`.
    pub ratio: f64,
}

impl Eq6Section {
    /// Builds the section, deriving the ratio (0 when the simulated time
    /// is zero).
    #[must_use]
    pub fn new(predicted_s: f64, simulated_s: f64) -> Self {
        let ratio = if simulated_s > 0.0 {
            predicted_s / simulated_s
        } else {
            0.0
        };
        Self {
            predicted_s,
            simulated_s,
            ratio,
        }
    }
}

/// The unified run report every [`crate::Run`] produces.
#[derive(Debug)]
pub struct RunReport {
    /// Method label (`cpu`, `cpu-fast`, `cpu-intersect`, `gpu-naive`,
    /// `gpu-opt`, `gpu-sampled`, `gpu-intersect`, `hybrid`,
    /// `kcliques`).
    pub method: String,
    /// Simulated device name, when the method uses one.
    pub device: Option<String>,
    /// Vertices.
    pub n: u32,
    /// Edges.
    pub m: usize,
    /// What was counted: `"triangles"`, `"cliques"`, or
    /// `"ktruss_edges"`.
    pub kind: String,
    /// Subgraph order (3 for triangles).
    pub k: u32,
    /// The exact count.
    pub count: u64,
    /// Workload-specific result detail.
    pub workload: WorkloadSection,
    /// Algorithm 2 combination tests performed or accounted.
    pub tests: u128,
    /// Modeled seconds on the paper's hardware.
    pub modeled_s: f64,
    /// Wall-clock seconds this process actually spent.
    pub wall_s: f64,
    /// GPU-simulator detail.
    pub gpu: Option<GpuSection>,
    /// Hybrid placement detail.
    pub hybrid: Option<HybridSection>,
    /// Eq. 6 predicted-vs-simulated comparison.
    pub eq6: Option<Eq6Section>,
    /// Fault-injection/recovery summary (runs configured with faults).
    pub faults: Option<FaultsSection>,
    /// Multi-device fleet summary (runs configured with a fleet).
    pub fleet: Option<FleetSection>,
    /// Simulated cluster summary (runs configured with a cluster).
    pub cluster: Option<ClusterSection>,
    /// Performance-counter profile (per-ALS/per-SM/per-device
    /// attribution); present whenever the executor produced one.
    pub profile: Option<ProfileSection>,
    /// Serving-tier detail (admission verdict, cache outcomes, queue
    /// wait, batch amortization) when the run was dispatched by
    /// `trigon serve`.
    pub serving: Option<ServingSection>,
    /// Trace summary (span counts, critical path, per-SM busy/idle,
    /// histogram quantiles) when the run traced at `Level::Trace`.
    pub trace: Option<TraceSummary>,
    /// Raw telemetry gathered during the run.
    pub telemetry: Collector,
    /// The full tracer (empty unless the run traced at `Level::Trace`);
    /// export with [`Tracer::to_chrome_trace`].
    pub tracer: Tracer,
}

impl RunReport {
    /// Serializes the report. Key order is fixed; the `tests` count is
    /// emitted as an integer when it fits `u64`, else as a float.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut root = Json::object();
        root.set(
            "schema_version",
            Json::from(u64::from(RUN_REPORT_SCHEMA_VERSION)),
        );

        let mut graph = Json::object();
        graph.set("n", Json::from(u64::from(self.n)));
        graph.set("m", Json::from(self.m));
        root.set("graph", graph);

        let mut config = Json::object();
        config.set("method", Json::from(self.method.as_str()));
        config.set(
            "device",
            self.device.as_deref().map_or(Json::Null, Json::from),
        );
        root.set("config", config);

        let mut result = Json::object();
        result.set("kind", Json::from(self.kind.as_str()));
        result.set("k", Json::from(u64::from(self.k)));
        result.set("count", Json::from(self.count));
        result.set(
            "tests",
            u64::try_from(self.tests).map_or(Json::Float(self.tests as f64), Json::from),
        );
        root.set("result", result);

        root.set("workload", self.workload.to_json());

        let mut timing = Json::object();
        timing.set("modeled_s", Json::from(self.modeled_s));
        timing.set("wall_s", Json::from(self.wall_s));
        root.set("timing", timing);

        root.set(
            "gpu",
            self.gpu.as_ref().map_or(Json::Null, |g| {
                let mut o = Json::object();
                o.set("transactions", Json::from(g.transactions));
                o.set("camping_factor", Json::from(g.camping_factor));
                o.set("kernel_cycles", Json::from(g.kernel_cycles));
                o.set("kernel_s", Json::from(g.kernel_s));
                o.set("transfer_s", Json::from(g.transfer_s));
                o.set("host_s", Json::from(g.host_s));
                o.set("context_s", Json::from(g.context_s));
                o.set("blocks", Json::from(g.blocks));
                o.set("layout_bytes", Json::from(g.layout_bytes));
                o.set("makespan_cycles", Json::from(g.makespan_cycles));
                o.set("sm_utilization", Json::from(g.sm_utilization));
                o.set("schedule_imbalance", Json::from(g.schedule_imbalance));
                o
            }),
        );

        root.set(
            "hybrid",
            self.hybrid.as_ref().map_or(Json::Null, |h| {
                let mut o = Json::object();
                o.set("shared_als", Json::from(h.shared_als));
                o.set("global_als", Json::from(h.global_als));
                o.set("chunks", Json::from(h.chunks));
                o.set("oversize_chunks", Json::from(h.oversize_chunks));
                o.set("bank_conflict_degree", Json::from(h.bank_conflict_degree));
                o
            }),
        );

        root.set(
            "eq6",
            self.eq6.as_ref().map_or(Json::Null, |e| {
                let mut o = Json::object();
                o.set("predicted_s", Json::from(e.predicted_s));
                o.set("simulated_s", Json::from(e.simulated_s));
                o.set("ratio", Json::from(e.ratio));
                o
            }),
        );

        root.set(
            "faults",
            self.faults.as_ref().map_or(Json::Null, |f| {
                let mut o = Json::object();
                o.set("spec", Json::from(f.spec.as_str()));
                o.set("seed", Json::from(f.seed));
                o.set("recovery", Json::from(f.recovery));
                let mut injected = Json::object();
                injected.set("ecc", Json::from(u64::from(f.injected_ecc)));
                injected.set("xfer", Json::from(u64::from(f.injected_xfer)));
                injected.set("abort", Json::from(u64::from(f.injected_abort)));
                injected.set("stall", Json::from(u64::from(f.injected_stall)));
                o.set("injected", injected);
                o.set(
                    "transfer_retries",
                    Json::from(u64::from(f.transfer_retries)),
                );
                o.set("chunk_retries", Json::from(u64::from(f.chunk_retries)));
                o.set("reassigned_chunks", Json::from(f.reassigned_chunks));
                o.set("cpu_fallback_chunks", Json::from(f.cpu_fallback_chunks));
                o.set("run_cpu_fallback", Json::from(f.run_cpu_fallback));
                o.set("stalled_sms", Json::from(u64::from(f.stalled_sms)));
                o.set("backoff_cycles", Json::from(f.backoff_cycles));
                o.set("events", Json::from(f.events));
                o
            }),
        );

        root.set(
            "fleet",
            self.fleet.as_ref().map_or(Json::Null, |f| {
                let mut o = Json::object();
                o.set("spec", Json::from(f.spec.as_str()));
                o.set("devices", Json::from(f.devices));
                o.set("lost_devices", Json::from(f.lost_devices));
                o.set("reassigned_als", Json::from(f.reassigned_als));
                o.set("links", Json::from(f.links));
                o.set("makespan_cycles", Json::from(f.makespan_cycles));
                o.set("compute_cycles", Json::from(f.compute_cycles));
                o.set("h2d_cycles", Json::from(f.h2d_cycles));
                o.set("d2d_cycles", Json::from(f.d2d_cycles));
                o.set("imbalance", Json::from(f.imbalance));
                o.set(
                    "per_device",
                    Json::Array(
                        f.per_device
                            .iter()
                            .map(|d| {
                                let mut e = Json::object();
                                e.set("device", Json::from(d.device.as_str()));
                                e.set("lost", Json::from(d.lost));
                                e.set("als", Json::from(d.als));
                                e.set("weight", Json::from(d.weight));
                                e.set("layout_bytes", Json::from(d.layout_bytes));
                                e.set("h2d_cycles", Json::from(d.h2d_cycles));
                                e.set("d2d_cycles", Json::from(d.d2d_cycles));
                                e.set("kernel_cycles", Json::from(d.kernel_cycles));
                                e.set("end_cycles", Json::from(d.end_cycles));
                                e.set("triangles", Json::from(d.triangles));
                                e
                            })
                            .collect(),
                    ),
                );
                o
            }),
        );

        root.set(
            "cluster",
            self.cluster.as_ref().map_or(Json::Null, |c| {
                let mut o = Json::object();
                o.set("spec", Json::from(c.spec.as_str()));
                o.set("nodes", Json::from(c.nodes));
                o.set("devices", Json::from(c.devices));
                o.set("strategy", Json::from(c.strategy.as_str()));
                o.set("auto", Json::from(c.auto));
                o.set(
                    "predicted_one_d_cycles",
                    Json::from(c.predicted_one_d_cycles),
                );
                o.set(
                    "predicted_two_d_cycles",
                    Json::from(c.predicted_two_d_cycles),
                );
                o.set("lost_nodes", Json::from(c.lost_nodes));
                o.set("reassigned_als", Json::from(c.reassigned_als));
                o.set("links", Json::from(c.links));
                o.set("inter_tier", Json::from(c.inter_tier.as_str()));
                o.set("makespan_cycles", Json::from(c.makespan_cycles));
                o.set("compute_cycles", Json::from(c.compute_cycles));
                o.set("uplink_cycles", Json::from(c.uplink_cycles));
                o.set("ghost_cycles", Json::from(c.ghost_cycles));
                o.set("ghost_vertices", Json::from(c.ghost_vertices));
                o.set("ghost_bytes", Json::from(c.ghost_bytes));
                o.set("imbalance", Json::from(c.imbalance));
                o.set(
                    "per_node",
                    Json::Array(
                        c.per_node
                            .iter()
                            .map(|n| {
                                let mut e = Json::object();
                                e.set("fleet", Json::from(n.fleet.as_str()));
                                e.set("lost", Json::from(n.lost));
                                e.set("als", Json::from(n.als));
                                e.set("weight", Json::from(n.weight));
                                e.set("layout_bytes", Json::from(n.layout_bytes));
                                e.set("uplink_cycles", Json::from(n.uplink_cycles));
                                e.set("ghost_cycles", Json::from(n.ghost_cycles));
                                e.set("ghost_vertices", Json::from(n.ghost_vertices));
                                e.set("ghost_bytes", Json::from(n.ghost_bytes));
                                e.set("fleet_makespan_cycles", Json::from(n.fleet_makespan_cycles));
                                e.set("end_cycles", Json::from(n.end_cycles));
                                e.set("triangles", Json::from(n.triangles));
                                e
                            })
                            .collect(),
                    ),
                );
                o
            }),
        );

        root.set(
            "profile",
            self.profile
                .as_ref()
                .map_or(Json::Null, ProfileSection::to_json),
        );

        root.set(
            "serving",
            self.serving
                .as_ref()
                .map_or(Json::Null, ServingSection::to_json),
        );

        root.set(
            "trace",
            self.trace
                .as_ref()
                .map_or(Json::Null, TraceSummary::to_json),
        );

        root.set("telemetry", self.telemetry.to_json());
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            method: "gpu-opt".into(),
            device: Some("C1060".into()),
            n: 10,
            m: 20,
            kind: "triangles".into(),
            k: 3,
            count: 7,
            workload: WorkloadSection::Triangles,
            tests: 120,
            modeled_s: 0.5,
            wall_s: 0.01,
            gpu: Some(GpuSection {
                transactions: 99,
                camping_factor: 1.5,
                kernel_cycles: 1000,
                kernel_s: 0.4,
                transfer_s: 0.01,
                host_s: 0.02,
                context_s: 0.35,
                blocks: 3,
                layout_bytes: 4096,
                makespan_cycles: 900,
                sm_utilization: 0.9,
                schedule_imbalance: 1.1,
            }),
            hybrid: None,
            eq6: Some(Eq6Section::new(0.5, 0.4)),
            faults: None,
            fleet: None,
            cluster: None,
            profile: Some(ProfileSection::new({
                let mut p = ProfileData::new(2, 1);
                p.record(
                    0,
                    0,
                    &CounterSet {
                        tests: 120,
                        instructions: CounterSet::instructions_for_tests(120),
                        transactions: 99,
                        min_transactions: 33,
                        bank_conflicts: 0,
                        compute_cycles: 600,
                        mem_cycles: 400,
                        blocks: 3,
                    },
                );
                p.devices.push(trigon_gpu_sim::DeviceProfile::new(
                    &trigon_gpu_sim::DeviceSpec::c1060(),
                    p.totals.clone(),
                ));
                p
            })),
            serving: None,
            trace: None,
            telemetry: Collector::new(),
            tracer: Tracer::disabled(),
        }
    }

    #[test]
    fn json_has_the_top_level_sections() {
        let j = sample().to_json();
        for key in [
            "schema_version",
            "graph",
            "config",
            "result",
            "workload",
            "timing",
            "gpu",
            "hybrid",
            "eq6",
            "faults",
            "fleet",
            "cluster",
            "profile",
            "serving",
            "trace",
            "telemetry",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        assert_eq!(j.get("hybrid"), Some(&Json::Null));
        assert_eq!(j.get("serving"), Some(&Json::Null));
        assert_eq!(j.get("faults"), Some(&Json::Null));
        assert_eq!(j.get("fleet"), Some(&Json::Null));
        assert_eq!(j.get("cluster"), Some(&Json::Null));
        assert_eq!(j.get("trace"), Some(&Json::Null));
        assert_eq!(j.get("result").unwrap().get("count"), Some(&Json::UInt(7)));
    }

    #[test]
    fn profile_section_serializes_counters_derived_and_roofline() {
        let j = sample().to_json();
        let p = j.get("profile").unwrap();
        let counters = p.get("counters").unwrap();
        for d in registry::COUNTERS {
            assert!(counters.get(d.name).is_some(), "missing counter {}", d.name);
        }
        assert_eq!(counters.get("transactions"), Some(&Json::UInt(99)));
        let derived = p.get("derived").unwrap();
        for d in registry::DERIVED {
            assert!(derived.get(d.name).is_some(), "missing derived {}", d.name);
        }
        assert_eq!(
            derived.get("coalescing_efficiency"),
            Some(&Json::Float(33.0 / 99.0))
        );
        match p.get("hotspots") {
            Some(Json::Array(hs)) => {
                assert_eq!(hs.len(), 1, "one ALS carried work");
                assert_eq!(hs[0].get("als"), Some(&Json::UInt(0)));
                assert_eq!(hs[0].get("cycles"), Some(&Json::UInt(1000)));
            }
            other => panic!("expected hotspot array, got {other:?}"),
        }
        match p.get("per_device") {
            Some(Json::Array(ds)) => {
                assert_eq!(ds.len(), 1);
                assert_eq!(ds[0].get("device"), Some(&Json::from("C1060")));
                let r = ds[0].get("roofline").unwrap();
                assert!(r.get("bound").is_some());
                assert!(r.get("ridge_ops_byte").is_some());
            }
            other => panic!("expected per_device array, got {other:?}"),
        }
    }

    #[test]
    fn huge_test_counts_fall_back_to_float() {
        let mut r = sample();
        r.tests = u128::from(u64::MAX) + 10;
        let j = r.to_json();
        match j.get("result").unwrap().get("tests") {
            Some(Json::Float(f)) => assert!(*f > 1e19),
            other => panic!("expected float tests, got {other:?}"),
        }
    }

    #[test]
    fn eq6_ratio_guards_zero() {
        let e = Eq6Section::new(1.0, 0.0);
        assert_eq!(e.ratio, 0.0);
        let e = Eq6Section::new(1.0, 2.0);
        assert_eq!(e.ratio, 0.5);
    }
}
