//! The [`Run`] builder — the one entry point of the pipeline.
//!
//! Every way of running the paper's machinery (CPU baselines, naive and
//! primitive-optimized simulated GPU, sampled fidelity, the hybrid
//! shared/global split, multi-device fleets) crossed with every
//! [`Workload`] (triangle count, k-clique count, clustering +
//! transitivity, k-truss, triangle enumeration) is reached through the
//! same builder, and every run returns the same [`RunReport`]:
//!
//! ```
//! use trigon_core::{Method, Run};
//! use trigon_gpu_sim::DeviceSpec;
//! use trigon_graph::gen;
//!
//! let g = gen::gnp(200, 0.05, 1);
//! let report = Run::new(&g)
//!     .method(Method::GpuOptimized)
//!     .device(DeviceSpec::c1060())
//!     .execute()
//!     .unwrap();
//! assert!(report.count > 0);
//! assert!(report.gpu.unwrap().transactions > 0);
//! ```
//!
//! Selecting a workload reuses the whole §V–§VII execution stack — the
//! per-ALS [`ChunkKernel`] is the only thing that changes:
//!
//! ```
//! use trigon_core::{Run, Workload};
//! use trigon_core::report::WorkloadSection;
//! use trigon_graph::gen;
//!
//! let g = gen::watts_strogatz(100, 4, 0.0, 1); // a lattice: clustering 0.5
//! let report = Run::new(&g)
//!     .workload(Workload::Clustering)
//!     .execute()
//!     .unwrap();
//! match report.workload {
//!     WorkloadSection::Clustering { mean_clustering, .. } => {
//!         assert!((mean_clustering - 0.5).abs() < 1e-12);
//!     }
//!     _ => unreachable!(),
//! }
//! ```
//!
//! The builder is also where the multi-device fleet path is switched
//! on: [`Run::fleet`] routes the GPU methods through
//! [`crate::multi::run_fleet_workload`], and [`Run::device_loss`]
//! injects deterministic device failures into that fleet.
//!
//! [`Run::execute`] checks every configuration against one capability
//! table (what each method's executor accepts, what each workload
//! needs) before anything runs, then builds the graph's ALS
//! decomposition once — or takes [`Run::prebuilt_als`] — and hands the
//! same slice to the executor and to the Eq. 6 prediction.

use crate::als::{build_als, Als};
use crate::cluster;
use crate::error::Error;
use crate::gpu_exec::{self, GpuConfig, GpuRunResult};
use crate::gpu_kcount::run_k_cliques_workload_traced;
use crate::hybrid::{run_hybrid_workload_traced, HybridConfig};
use crate::multi;
use crate::pipeline;
use crate::report::{
    Eq6Section, FaultsSection, GpuSection, HybridSection, ProfileSection, RunReport,
    WorkloadSection,
};
use crate::timemodel::CostModel;
use crate::workload::{
    clustering_coefficients_from_counts, k_truss_from_support, mean_clustering,
    transitivity_from_count, triangle_checksum, ChunkKernel, ClusteringKernel, CountKernel,
    EnumerateKernel, KTrussKernel, Workload,
};
use std::sync::Arc;
use trigon_fleet::{ClusterSpec, FleetSpec, LossPlan, PartitionStrategy};
use trigon_gpu_sim::{DeviceSpec, FaultConfig, FaultOutcome};
use trigon_graph::Graph;
use trigon_telemetry::{Collector, Level, Tracer};

/// High-level counting method, the builder's main axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Single-thread CPU, faithful Algorithm 2 combination testing.
    CpuExhaustive,
    /// CPU with the fast per-window edge iterator (exact at any scale).
    CpuFast,
    /// CPU degree-ordered adjacency intersection (merge / galloping /
    /// `u64`-bitmap adaptive kernels; see [`crate::intersect`]).
    /// Triangles only; bit-identical counts to every other method.
    CpuIntersect,
    /// Simulated GPU, the paper's naive implementation (monolithic
    /// layout, round-robin dispatch).
    GpuNaive,
    /// Simulated GPU with the §X/§VI primitives (partition-aligned
    /// layout, LPT dispatch).
    GpuOptimized,
    /// [`Method::GpuOptimized`] at sampled fidelity (large graphs).
    GpuSampled,
    /// §V hybrid shared/global execution over the Algorithm 1 split.
    Hybrid,
    /// The adjacency-intersection kernel on the simulated optimized
    /// device: exact per-ALS op counts priced through the counter
    /// profiler (coalesced row scans, scattered galloping probes,
    /// bitmap bank conflicts). Triangles only.
    GpuSimIntersect,
}

/// One row of the capability table: what a method's executor accepts.
#[derive(Debug, Clone, Copy)]
struct MethodCaps {
    /// Runs on the simulated device rather than the host.
    device: bool,
    /// Workloads the executor computes, by [`Workload::label`].
    workloads: &'static [&'static str],
    /// Shards across a device fleet or a cluster.
    placement: bool,
    /// Fault kinds the executor injects and recovers from.
    faults: &'static [&'static str],
}

/// What a workload needs of any method that runs it.
#[derive(Debug, Clone, Copy)]
struct WorkloadCaps {
    /// The `k` it takes, which must be at least 2.
    k: Option<u32>,
    /// Runs on one device only (no fleet or cluster).
    single_device: bool,
    /// Accepts fault injection.
    faults: bool,
}

impl Method {
    /// Every method, in canonical order — the list sweeps (e.g. `repro
    /// perf`) derive their strategy axis from, so a new variant shows up
    /// in the head-to-head automatically.
    pub const ALL: [Method; 8] = [
        Method::CpuExhaustive,
        Method::CpuFast,
        Method::CpuIntersect,
        Method::GpuNaive,
        Method::GpuOptimized,
        Method::GpuSampled,
        Method::GpuSimIntersect,
        Method::Hybrid,
    ];

    /// The method's row of the capability table [`Run::execute`]
    /// validates every configuration against.
    fn caps(self) -> MethodCaps {
        const EVERY: &[&str] = &["triangles", "kcount", "clustering", "ktruss", "enumerate"];
        // k-clique counting needs the widened C(k,2)-test kernel, which
        // only the combination simulators have.
        const NOT_KCOUNT: &[&str] = &["triangles", "clustering", "ktruss", "enumerate"];
        const TRIANGLES: &[&str] = &["triangles"];
        const ALL_FAULTS: &[&str] = &["ecc", "xfer", "abort", "stall"];
        let (device, workloads, placement, faults): (bool, _, bool, &'static [&'static str]) =
            match self {
                Method::CpuExhaustive | Method::CpuFast => (false, NOT_KCOUNT, false, &[]),
                Method::CpuIntersect => (false, TRIANGLES, false, &[]),
                Method::GpuNaive | Method::GpuOptimized | Method::GpuSampled => {
                    (true, EVERY, true, ALL_FAULTS)
                }
                Method::GpuSimIntersect => (true, TRIANGLES, true, ALL_FAULTS),
                // The hybrid kernel is analytic and counts host-side: there
                // are no device chunk results to corrupt, only transfers.
                Method::Hybrid => (true, NOT_KCOUNT, false, &["xfer"]),
            };
        MethodCaps {
            device,
            workloads,
            placement,
            faults,
        }
    }

    /// Whether the method's work scales with the *combination space*
    /// (Algorithm 2 candidate enumeration) rather than with edges —
    /// infeasible to execute exhaustively at fig11 scales, which is what
    /// the sweep harness filters on.
    #[must_use]
    pub fn enumerates_combinations(&self) -> bool {
        matches!(
            self,
            Method::CpuExhaustive | Method::GpuNaive | Method::GpuOptimized
        )
    }
    /// Parses a CLI method name.
    ///
    /// # Errors
    ///
    /// [`Error::BadConfig`] for unknown names.
    pub fn parse(name: &str) -> Result<Method, Error> {
        Ok(match name {
            "cpu" | "cpu-exhaustive" => Method::CpuExhaustive,
            "cpu-fast" => Method::CpuFast,
            "cpu-intersect" | "cpu_intersect" => Method::CpuIntersect,
            "gpu-naive" => Method::GpuNaive,
            "gpu-opt" | "gpu-optimized" => Method::GpuOptimized,
            "gpu-sampled" => Method::GpuSampled,
            "gpu-intersect" | "gpu_sim_intersect" | "gpu-sim-intersect" => Method::GpuSimIntersect,
            "hybrid" => Method::Hybrid,
            other => {
                return Err(Error::bad_config(format!("unknown method {other:?}")));
            }
        })
    }

    /// The canonical CLI name of the method.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Method::CpuExhaustive => "cpu",
            Method::CpuFast => "cpu-fast",
            Method::CpuIntersect => "cpu-intersect",
            Method::GpuNaive => "gpu-naive",
            Method::GpuOptimized => "gpu-opt",
            Method::GpuSampled => "gpu-sampled",
            Method::GpuSimIntersect => "gpu-intersect",
            Method::Hybrid => "hybrid",
        }
    }

    /// Whether the method runs on the simulated device.
    #[must_use]
    pub fn uses_device(&self) -> bool {
        self.caps().device
    }
}

impl WorkloadCaps {
    /// The workload's row of the capability table.
    fn of(workload: Workload) -> Self {
        let (k, single_device, faults) = match workload {
            Workload::Triangles | Workload::Clustering | Workload::Enumerate => (None, false, true),
            Workload::KCliques(k) => (Some(k), true, false),
            Workload::KTruss(k) => (Some(k), false, true),
        };
        Self {
            k,
            single_device,
            faults,
        }
    }
}

/// The labels of every method whose capability row passes `keep`,
/// comma-separated — the alternatives a rejection names.
fn methods_where(keep: impl Fn(MethodCaps) -> bool) -> String {
    Method::ALL
        .iter()
        .filter(|m| keep(m.caps()))
        .map(Method::label)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Builder for one pipeline run. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Run<'g> {
    graph: &'g Graph,
    workload: Workload,
    method: Method,
    device: DeviceSpec,
    cost: CostModel,
    gpu_override: Option<GpuConfig>,
    level: Level,
    max_roots: usize,
    threads: Option<usize>,
    tracer: Option<Tracer>,
    faults: Option<FaultConfig>,
    fleet: Option<FleetSpec>,
    device_loss: Option<LossPlan>,
    cluster: Option<ClusterSpec>,
    partition: PartitionStrategy,
    node_loss: Option<LossPlan>,
    prebuilt_als: Option<Arc<Vec<Als>>>,
}

impl<'g> Run<'g> {
    /// Starts a builder with defaults: [`Workload::Triangles`] via
    /// [`Method::CpuFast`], the C1060 device, the default cost model,
    /// and standard telemetry.
    #[must_use]
    pub fn new(graph: &'g Graph) -> Self {
        Self {
            graph,
            workload: Workload::Triangles,
            method: Method::CpuFast,
            device: DeviceSpec::c1060(),
            cost: CostModel::default(),
            gpu_override: None,
            level: Level::Standard,
            max_roots: 4,
            threads: None,
            tracer: None,
            faults: None,
            fleet: None,
            device_loss: None,
            cluster: None,
            partition: PartitionStrategy::Auto,
            node_loss: None,
            prebuilt_als: None,
        }
    }

    /// Supplies prebuilt ALS artifacts (the output of
    /// [`crate::als::build_als`] for this exact graph, behind an `Arc`
    /// so a registry can share one copy across runs). Every executor
    /// then skips the per-run BFS/`LevelMap`/ALS construction and goes
    /// straight to dispatch; counts are bit-identical to a cold run.
    #[must_use]
    pub fn prebuilt_als(mut self, als: Arc<Vec<Als>>) -> Self {
        self.prebuilt_als = Some(als);
        self
    }

    /// Selects the workload — what the §VII per-ALS kernel computes;
    /// defaults to [`Workload::Triangles`].
    #[must_use]
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Selects the counting method.
    #[must_use]
    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Caps the CPU worker-thread pool for this run (the simulated-GPU
    /// block sweep and the parallel CPU paths). `execute` runs inside a
    /// dedicated pool of this size; without this call the global pool
    /// (one worker per core) is used.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Selects the simulated device (ignored by the CPU methods).
    #[must_use]
    pub fn device(mut self, device: DeviceSpec) -> Self {
        self.device = device;
        self
    }

    /// Overrides the calibration constants.
    #[must_use]
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Supplies a fully explicit [`GpuConfig`] for the GPU methods
    /// (its device and cost take precedence over [`Run::device`] /
    /// [`Run::cost`]).
    #[must_use]
    pub fn gpu_config(mut self, cfg: GpuConfig) -> Self {
        self.gpu_override = Some(cfg);
        self
    }

    /// Sets the telemetry level. [`Level::Off`] skips all collection —
    /// including the extra Eq. 6 prediction pass for GPU runs — leaving
    /// the corresponding report fields empty.
    #[must_use]
    pub fn telemetry(mut self, level: Level) -> Self {
        self.level = level;
        self
    }

    /// BFS roots the splitter tries (hybrid method).
    #[must_use]
    pub fn max_roots(mut self, max_roots: usize) -> Self {
        self.max_roots = max_roots.max(1);
        self
    }

    /// Enables deterministic fault injection with the given plan and
    /// recovery policy. Only device-backed methods accept faults; the
    /// hybrid method accepts `xfer` faults only (its kernel is analytic
    /// and its counts are host-side, so ECC/abort/stall have nothing to
    /// corrupt). [`Run::execute`] rejects unsupported combinations with
    /// [`Error::BadConfig`].
    #[must_use]
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Runs the GPU methods across a multi-device fleet instead of the
    /// single [`Run::device`]: ALS shards are planned across the
    /// roster by the outer §VI instance, the interconnect is priced,
    /// and the partial counts reduce deterministically. A one-device
    /// fleet behaves exactly like a plain run on that device. Only the
    /// GPU methods accept a fleet; [`Run::execute`] rejects the rest
    /// with [`Error::BadConfig`].
    #[must_use]
    pub fn fleet(mut self, fleet: FleetSpec) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Injects deterministic device loss into the fleet run: the plan's
    /// targets die at shard start and their ALS migrate to the
    /// survivors. Requires [`Run::fleet`] or [`Run::cluster`]
    /// (for a cluster the plan is applied inside every node's fleet).
    #[must_use]
    pub fn device_loss(mut self, loss: LossPlan) -> Self {
        self.device_loss = Some(loss);
        self
    }

    /// Runs the GPU methods across a simulated multi-node cluster: the
    /// node partitioner (1D by component vs 2D by edge block) assigns
    /// every ALS to a node, each node's partition runs through its own
    /// device fleet, and inter-node traffic (partition uplinks,
    /// ghost-vertex exchanges) is priced on the two-tier interconnect.
    /// A one-node cluster behaves exactly like a plain fleet run on
    /// that node's roster. Mutually exclusive with [`Run::fleet`];
    /// only the GPU methods accept a cluster.
    #[must_use]
    pub fn cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Selects the cluster partition layout; defaults to
    /// [`PartitionStrategy::Auto`] (predicted communication-volume cost
    /// picks). Ignored without [`Run::cluster`].
    #[must_use]
    pub fn partition(mut self, strategy: PartitionStrategy) -> Self {
        self.partition = strategy;
        self
    }

    /// Injects deterministic node loss into the cluster run: the plan's
    /// targets die at partition time and their ALS migrate to surviving
    /// nodes. Requires [`Run::cluster`].
    #[must_use]
    pub fn node_loss(mut self, loss: LossPlan) -> Self {
        self.node_loss = Some(loss);
        self
    }

    /// Supplies an explicit [`Tracer`] for span-level tracing. The run
    /// records into it (when its level allows) and the report returns
    /// it as [`RunReport::tracer`] alongside a [`RunReport::trace`]
    /// summary. Without this call, a tracer is created from the
    /// builder's telemetry level — so `.telemetry(Level::Trace)` alone
    /// turns tracing on.
    #[must_use]
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Runs the configured workload through the configured method and
    /// returns the unified report.
    ///
    /// # Errors
    ///
    /// [`Error::GraphTooLarge`] when a GPU layout exceeds the device,
    /// [`Error::BadConfig`] for invalid configuration (bad block shape,
    /// `k < 2`, zero threads, and every method/workload/placement/fault
    /// combination the capability table rules out).
    pub fn execute(self) -> Result<RunReport, Error> {
        match self.threads {
            Some(0) => Err(Error::bad_config("threads must be at least 1")),
            Some(t) => rayon::ThreadPool::new(t).install(|| self.execute_inner()),
            None => self.execute_inner(),
        }
    }

    /// Checks the configuration against the capability table: the
    /// method's row, the workload's row, and the shape of the fleet or
    /// cluster. [`Run::execute`] begins with this check; a caller can
    /// run it first to reject a configuration before paying for
    /// anything else (an ALS build, a cache lookup).
    ///
    /// # Errors
    ///
    /// [`Error::BadConfig`] for every method/workload/placement/fault
    /// combination the table rules out, and for `k < 2`.
    pub fn check(&self) -> Result<(), Error> {
        let (method, workload) = (self.method.label(), self.workload.label());
        let caps = self.method.caps();
        let wcaps = WorkloadCaps::of(self.workload);
        if let Some(k) = wcaps.k.filter(|&k| k < 2) {
            return Err(Error::bad_config(format!(
                "the {workload} workload needs k >= 2, got {k}"
            )));
        }
        if !caps.workloads.contains(&workload) {
            return Err(Error::bad_config(format!(
                "the {method} method does not run the {workload} workload; pick one of {}",
                methods_where(|c| c.workloads.contains(&workload))
            )));
        }
        if let Some(fc) = self.faults.as_ref() {
            if caps.faults.is_empty() {
                return Err(Error::bad_config(format!(
                    "fault injection requires a simulated-device method ({}), not {method}",
                    methods_where(|c| !c.faults.is_empty())
                )));
            }
            if !wcaps.faults {
                return Err(Error::bad_config(format!(
                    "fault injection is not supported on the {workload} workload"
                )));
            }
            let spec = fc.plan.spec();
            let kinds = [
                ("ecc", spec.ecc),
                ("xfer", spec.xfer),
                ("abort", spec.abort),
                ("stall", spec.stall),
            ];
            if kinds
                .iter()
                .any(|(kind, n)| *n > 0 && !caps.faults.contains(kind))
            {
                return Err(Error::bad_config(format!(
                    "{method} runs support only {} faults",
                    caps.faults.join(", ")
                )));
            }
        }
        // The placement's name and the device count of its widest fleet
        // (each cluster node is one fleet).
        let placement = match (self.fleet.as_ref(), self.cluster.as_ref()) {
            (Some(_), Some(_)) => {
                return Err(Error::bad_config(
                    "a cluster and a fleet are mutually exclusive; the cluster spec \
                     already carries each node's device roster",
                ));
            }
            (Some(f), None) => Some(("a device fleet", f.len())),
            (None, Some(c)) => Some((
                "a cluster",
                c.nodes().iter().map(FleetSpec::len).max().unwrap_or(0),
            )),
            (None, None) => None,
        };
        if let Some((what, widest)) = placement {
            if widest == 0 {
                return Err(Error::bad_config(format!(
                    "{what} needs at least one device"
                )));
            }
            if !caps.placement {
                return Err(Error::bad_config(format!(
                    "{what} requires a gpu-* method ({}), not {method}",
                    methods_where(|c| c.placement)
                )));
            }
            if wcaps.single_device {
                return Err(Error::bad_config(format!(
                    "the {workload} workload is single-device; drop {what}"
                )));
            }
            if self.faults.is_some() && widest > 1 {
                return Err(Error::bad_config(
                    "chunk-level fault injection is single-device; use it with one-device \
                     fleets or cluster nodes, or --device-loss/--node-loss for coarser faults",
                ));
            }
        }
        if self.device_loss.is_some() && placement.is_none() {
            return Err(Error::bad_config(
                "device loss requires a device fleet (or cluster) to lose devices from",
            ));
        }
        if self.node_loss.is_some() && self.cluster.is_none() {
            return Err(Error::bad_config(
                "node loss requires a cluster to lose nodes from",
            ));
        }
        Ok(())
    }

    fn execute_inner(mut self) -> Result<RunReport, Error> {
        self.check()?;
        let tracer = self
            .tracer
            .take()
            .unwrap_or_else(|| Tracer::with_level(self.level));
        let mut collector = Collector::with_clock(self.level, tracer.clock());
        let g = self.graph;
        let t0 = collector.clock().now_ns();
        let mut run_span = tracer.span("run", "run");
        run_span.attr("method", self.method.label());
        run_span.attr("n", u64::from(g.n()));
        run_span.attr("m", g.m() as u64);
        let device_name =
            self.method
                .uses_device()
                .then(|| match (self.cluster.as_ref(), self.fleet.as_ref()) {
                    (Some(c), _) => c.to_string(),
                    (None, Some(f)) if f.len() > 1 => f.to_string(),
                    (None, Some(f)) => f.devices()[0].name.to_string(),
                    (None, None) => self
                        .gpu_override
                        .as_ref()
                        .map_or(self.device.name, |c| c.device.name)
                        .to_string(),
                });
        // The one ALS decomposition of this run: every executor and the
        // Eq. 6 prediction read this slice.
        let built;
        let als: &[Als] = match self.prebuilt_als.as_deref() {
            Some(als) => als,
            None => {
                built = build_als(g);
                &built
            }
        };

        let mut report = match self.workload {
            Workload::Triangles => {
                if matches!(self.method, Method::CpuIntersect | Method::GpuSimIntersect) {
                    // Same Partial, different per-ALS compute: the
                    // intersection kernel rides the identical executors.
                    self.run_method_kernel(
                        als,
                        &crate::intersect::IntersectKernel,
                        true,
                        &mut collector,
                        &tracer,
                    )?
                    .0
                } else {
                    self.run_method_kernel(als, &CountKernel, true, &mut collector, &tracer)?
                        .0
                }
            }
            Workload::KCliques(k) => {
                // The widened C(k,2)-test kernel has its own executor
                // (combination spaces of order k); CountKernel rides it.
                let cfg = self.gpu_config_for(self.method)?;
                let (r, _) = run_k_cliques_workload_traced(
                    g,
                    als,
                    &cfg,
                    k,
                    &CountKernel,
                    &mut collector,
                    &tracer,
                )?;
                let mut report = self.gpu_report(r, &cfg);
                report.kind = "cliques".into();
                report.k = k;
                report.workload = WorkloadSection::KCount { k };
                report
            }
            Workload::Clustering => {
                let kern = ClusteringKernel::new(g);
                let (mut report, partial) =
                    self.run_method_kernel(als, &kern, false, &mut collector, &tracer)?;
                let cc = clustering_coefficients_from_counts(g, &partial);
                report.workload = WorkloadSection::Clustering {
                    vertices: cc.len(),
                    mean_clustering: mean_clustering(&cc),
                    transitivity: transitivity_from_count(g, report.count),
                };
                report
            }
            Workload::KTruss(k) => {
                let kern = KTrussKernel::new(g);
                let (mut report, partial) =
                    self.run_method_kernel(als, &kern, false, &mut collector, &tracer)?;
                let peel = k_truss_from_support(g, kern.index(), &partial, k);
                report.kind = "ktruss_edges".into();
                report.k = k;
                report.count = peel.kept;
                report.workload = WorkloadSection::KTruss {
                    k,
                    edges_initial: g.m() as u64,
                    edges_kept: peel.kept,
                    edges_peeled: peel.peeled,
                };
                report
            }
            Workload::Enumerate => {
                let kern = EnumerateKernel;
                let (mut report, mut partial) =
                    self.run_method_kernel(als, &kern, false, &mut collector, &tracer)?;
                kern.finalize(&mut partial);
                report.workload = WorkloadSection::Enumerate {
                    triangles: partial.len() as u64,
                    checksum: triangle_checksum(&partial),
                };
                report
            }
        };

        drop(run_span);
        report.device = device_name;
        report.wall_s = collector.clock().now_ns().saturating_sub(t0) as f64 / 1e9;
        report.telemetry = collector;
        report.trace = tracer.enabled().then(|| tracer.summary());
        report.tracer = tracer;
        Ok(report)
    }

    /// Runs `kernel` over `als` through the configured method (everything
    /// except the widened k-clique executor), assembling the method-side
    /// report sections; the workload arms of [`Run::execute`] overlay
    /// their own `workload`/`kind`/`count` afterwards.
    fn run_method_kernel<K: ChunkKernel>(
        &self,
        als: &[Als],
        kernel: &K,
        with_eq6: bool,
        collector: &mut Collector,
        tracer: &Tracer,
    ) -> Result<(RunReport, K::Partial), Error> {
        let g = self.graph;
        match self.method {
            Method::CpuExhaustive | Method::CpuFast | Method::CpuIntersect => {
                let cm = match self.method {
                    Method::CpuExhaustive => pipeline::CountMethod::CpuExhaustive,
                    Method::CpuIntersect => pipeline::CountMethod::CpuIntersect,
                    _ => pipeline::CountMethod::CpuFast,
                };
                let (r, partial) = pipeline::run_workload_traced(
                    g, als, cm, &self.cost, kernel, collector, tracer,
                );
                let mut report = self.base_report(r.triangles, r.tests, r.modeled_s);
                report.profile = Some(ProfileSection::new(r.profile));
                Ok((report, partial))
            }
            Method::GpuNaive
            | Method::GpuOptimized
            | Method::GpuSampled
            | Method::GpuSimIntersect => {
                let mut cfg = self.gpu_config_for(self.method)?;
                let mut fleet_section = None;
                let mut cluster_section = None;
                let (r, partial) = match (self.cluster.as_ref(), self.fleet.as_ref()) {
                    (Some(spec), _) => {
                        cfg.device = spec.nodes()[0].devices()[0].clone();
                        let (r, partial, section) = cluster::run_cluster_workload(
                            g,
                            als,
                            spec,
                            &cfg,
                            self.partition,
                            self.node_loss,
                            self.device_loss,
                            kernel,
                            collector,
                            tracer,
                        )?;
                        cluster_section = Some(section);
                        (r, partial)
                    }
                    (None, Some(fleet)) => {
                        cfg.device = fleet.devices()[0].clone();
                        let (r, partial, section) = multi::run_fleet_workload(
                            g,
                            als,
                            fleet,
                            &cfg,
                            self.device_loss,
                            kernel,
                            collector,
                            tracer,
                        )?;
                        fleet_section = Some(section);
                        (r, partial)
                    }
                    (None, None) => gpu_exec::run_workload_traced_with_als(
                        g, als, &cfg, kernel, collector, tracer,
                    )?,
                };
                // Eq. 6 models one device; skip the prediction for real
                // multi-device fleets and clusters.
                let one_device = self.fleet.as_ref().is_none_or(|f| f.len() == 1)
                    && self.cluster.as_ref().is_none_or(|c| c.total_devices() == 1);
                let eq6 = if with_eq6 && one_device {
                    self.eq6_prediction(als, r.kernel_s, &cfg)
                } else {
                    None
                };
                let mut report = self.gpu_report(r, &cfg);
                report.eq6 = eq6;
                report.fleet = fleet_section;
                report.cluster = cluster_section;
                Ok((report, partial))
            }
            Method::Hybrid => {
                let cfg = HybridConfig {
                    device: self.device.clone(),
                    cost: self.cost,
                    max_roots: self.max_roots,
                    faults: self.faults,
                };
                let (r, partial) =
                    run_hybrid_workload_traced(g, als, &cfg, kernel, collector, tracer);
                let mut report = self.base_report(r.triangles, r.tests, r.total_s);
                report.faults = faults_section(cfg.faults.as_ref(), r.faults.as_ref());
                report.hybrid = Some(HybridSection {
                    shared_als: r.shared_als,
                    global_als: r.global_als,
                    chunks: r.split.chunks.len(),
                    oversize_chunks: r.split.oversize_count,
                    bank_conflict_degree: f64::from(r.bank_conflict_degree),
                });
                report.eq6 = Some(Eq6Section::new(r.eq6_s, r.kernel_s));
                report.profile = Some(ProfileSection::new(r.profile));
                Ok((report, partial))
            }
        }
    }

    /// The report of a simulated-device run under `cfg`: its count,
    /// GPU, faults and profile sections, all read from `r`.
    fn gpu_report(&self, r: GpuRunResult, cfg: &GpuConfig) -> RunReport {
        let mut report = self.base_report(r.triangles, r.tests, r.total_s);
        report.gpu = Some(GpuSection {
            transactions: r.transactions,
            camping_factor: r.camping_factor,
            kernel_cycles: r.kernel_cycles,
            kernel_s: r.kernel_s,
            transfer_s: r.transfer_s,
            host_s: r.host_s,
            context_s: r.context_s,
            blocks: r.blocks,
            layout_bytes: r.layout_bytes,
            makespan_cycles: r.makespan_cycles,
            sm_utilization: r.sm_utilization,
            schedule_imbalance: r.schedule_imbalance,
        });
        report.faults = faults_section(cfg.faults.as_ref(), r.faults.as_ref());
        report.profile = Some(ProfileSection::new(r.profile));
        report
    }

    /// The effective GPU configuration for a GPU-backed method.
    fn gpu_config_for(&self, method: Method) -> Result<GpuConfig, Error> {
        let mut cfg = match &self.gpu_override {
            Some(cfg) => cfg.clone(),
            None => match method {
                Method::GpuNaive => GpuConfig::naive(self.device.clone()),
                Method::GpuSampled => GpuConfig::optimized(self.device.clone()).sampled(),
                Method::GpuSimIntersect => GpuConfig::intersect(self.device.clone()),
                _ => GpuConfig::optimized(self.device.clone()),
            },
        };
        // A substrate override (layout/schedule/block shape) must not
        // silently swap the algorithm back to combination testing.
        if method == Method::GpuSimIntersect {
            cfg.mode = gpu_exec::FidelityMode::Intersect;
        }
        cfg.cost = self.cost;
        if self.faults.is_some() {
            cfg.faults = self.faults;
        }
        if cfg.threads_per_block == 0 || !cfg.threads_per_block.is_multiple_of(cfg.device.warp_size)
        {
            return Err(Error::bad_config(format!(
                "threads_per_block {} must be a positive multiple of the warp size {}",
                cfg.threads_per_block, cfg.device.warp_size
            )));
        }
        Ok(cfg)
    }

    /// Eq. 6 prediction for a pure-GPU run: the pipeline time the paper's
    /// model assigns this graph's Algorithm 1 split on this device,
    /// against the simulated kernel seconds. Skipped (None) when
    /// telemetry is off — it costs an extra analytic pass.
    fn eq6_prediction(
        &self,
        als: &[Als],
        simulated_kernel_s: f64,
        cfg: &GpuConfig,
    ) -> Option<Eq6Section> {
        if self.level == Level::Off {
            return None;
        }
        let hybrid_cfg = HybridConfig {
            device: cfg.device.clone(),
            cost: self.cost,
            max_roots: self.max_roots,
            faults: None,
        };
        let (est, _) = run_hybrid_workload_traced(
            self.graph,
            als,
            &hybrid_cfg,
            &CountKernel,
            &mut Collector::disabled(),
            &Tracer::disabled(),
        );
        Some(Eq6Section::new(est.eq6_s, simulated_kernel_s))
    }

    fn base_report(&self, count: u64, tests: u128, modeled_s: f64) -> RunReport {
        RunReport {
            method: self.method.label().to_string(),
            device: None,
            n: self.graph.n(),
            m: self.graph.m(),
            kind: "triangles".into(),
            k: 3,
            workload: WorkloadSection::Triangles,
            count,
            tests,
            modeled_s,
            wall_s: 0.0,
            gpu: None,
            hybrid: None,
            eq6: None,
            faults: None,
            fleet: None,
            cluster: None,
            profile: None,
            serving: None,
            trace: None,
            telemetry: Collector::disabled(),
            tracer: Tracer::disabled(),
        }
    }
}

/// Builds the report's faults section from the applied config and the
/// executor's outcome (both present iff the run injected).
fn faults_section(
    fc: Option<&FaultConfig>,
    outcome: Option<&FaultOutcome>,
) -> Option<FaultsSection> {
    let (fc, o) = fc.zip(outcome)?;
    Some(FaultsSection::from_outcome(
        fc.plan.spec().to_string(),
        fc.plan.seed(),
        fc.recovery,
        o,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trigon_graph::{gen, triangles};

    #[test]
    fn builder_methods_agree_with_reference() {
        let g = gen::gnp(120, 0.08, 6);
        let expect = triangles::count_edge_iterator(&g);
        for m in Method::ALL {
            let r = Run::new(&g).method(m).execute().unwrap();
            assert_eq!(r.count, expect, "{m:?}");
            assert_eq!(r.method, m.label());
            assert!(r.modeled_s > 0.0, "{m:?}");
            assert_eq!(r.kind, "triangles");
        }
    }

    /// Every configuration the capability table admits on `g`: each
    /// method × workload × placement (one device, one- and two-device
    /// fleets, one- and two-node clusters), pinned to one thread.
    fn admitted_runs(g: &Graph) -> Vec<(String, Run<'_>)> {
        let workloads = [
            Workload::Triangles,
            Workload::KCliques(3),
            Workload::Clustering,
            Workload::KTruss(3),
            Workload::Enumerate,
        ];
        let placements = ["device", "1xC2050", "2xC2050", "1x(C2050)", "2x(C2050)"];
        let mut runs = Vec::new();
        for m in Method::ALL {
            for w in workloads {
                for p in placements {
                    let mut run = Run::new(g).method(m).workload(w).threads(1);
                    if p.contains('(') {
                        run = run.cluster(ClusterSpec::parse(p).unwrap());
                    } else if p != "device" {
                        run = run.fleet(FleetSpec::parse(p).unwrap());
                    }
                    if run.check().is_ok() {
                        runs.push((format!("{} {} {p}", m.label(), w.label()), run));
                    }
                }
            }
        }
        runs
    }

    /// Executes `run` and returns its report with the number of ALS
    /// decompositions it built.
    fn execute_counting_builds(run: Run<'_>) -> (RunReport, usize) {
        crate::als::BUILDS.with(|b| b.set(0));
        let report = run.execute().unwrap();
        (report, crate::als::BUILDS.with(std::cell::Cell::get))
    }

    #[test]
    fn every_admitted_run_builds_the_als_once() {
        let g = gen::gnp(40, 0.15, 2);
        let als = Arc::new(crate::als::build_als(&g));
        for (label, run) in admitted_runs(&g) {
            for level in [Level::Standard, Level::Off] {
                let (_, cold) = execute_counting_builds(run.clone().telemetry(level));
                assert_eq!(cold, 1, "{label} at {level:?}");
                let (_, warm) =
                    execute_counting_builds(run.clone().telemetry(level).prebuilt_als(als.clone()));
                assert_eq!(warm, 0, "{label} at {level:?} with prebuilt ALS");
            }
        }
    }

    #[test]
    fn prebuilt_als_runs_are_bit_identical_to_cold() {
        let g = gen::gnp(40, 0.15, 8);
        let als = Arc::new(crate::als::build_als(&g));
        for (label, run) in admitted_runs(&g) {
            let cold = run.clone().execute().unwrap();
            let warm = run.prebuilt_als(als.clone()).execute().unwrap();
            assert_eq!(cold.count, warm.count, "{label}");
            assert_eq!(cold.tests, warm.tests, "{label}");
            assert_eq!(cold.modeled_s, warm.modeled_s, "{label}");
            assert_eq!(cold.workload, warm.workload, "{label}");
            let eq6 = |r: &RunReport| r.eq6.as_ref().map(|e| (e.predicted_s, e.simulated_s));
            assert_eq!(eq6(&cold), eq6(&warm), "{label}");
        }
    }

    #[test]
    fn gpu_report_is_fully_populated() {
        let g = gen::gnp(300, 0.05, 2);
        let r = Run::new(&g)
            .method(Method::GpuOptimized)
            .device(DeviceSpec::c1060())
            .execute()
            .unwrap();
        let gpu = r.gpu.expect("gpu section");
        assert!(gpu.transactions > 0);
        assert!(gpu.camping_factor >= 1.0);
        assert!(gpu.makespan_cycles > 0);
        assert!(gpu.sm_utilization > 0.0 && gpu.sm_utilization <= 1.0 + 1e-9);
        let eq6 = r.eq6.expect("eq6 section");
        assert!(eq6.predicted_s > 0.0);
        assert!(eq6.simulated_s > 0.0);
        assert_eq!(r.device.as_deref(), Some("C1060"));
        assert!(r.telemetry.counter("gpu.transactions") > 0);
        assert!(r.telemetry.phase_total("count") > 0.0);
    }

    #[test]
    fn hybrid_report_has_placement_and_eq6() {
        let g = gen::community_ring(1500, 100, 0.2, 2, 5);
        let r = Run::new(&g).method(Method::Hybrid).execute().unwrap();
        let h = r.hybrid.expect("hybrid section");
        assert!(h.shared_als + h.global_als > 0);
        assert!(h.chunks > 0);
        let eq6 = r.eq6.expect("eq6 section");
        assert!(eq6.predicted_s > 0.0);
        assert!(r.telemetry.phase_total("split") > 0.0);
    }

    #[test]
    fn kcliques_counts_and_reports() {
        let g = gen::gnp(40, 0.25, 1);
        let r = Run::new(&g)
            .method(Method::GpuOptimized)
            .workload(Workload::KCliques(4))
            .execute()
            .unwrap();
        assert_eq!(r.count, crate::kcount::count_k_cliques(&g, 4));
        assert_eq!(r.kind, "cliques");
        assert_eq!(r.k, 4);
        let gpu = r.gpu.expect("gpu section");
        assert!(gpu.transactions > 0);
        assert!(gpu.makespan_cycles > 0);
    }

    #[test]
    fn trace_level_produces_spans_and_summary() {
        let g = gen::gnp(150, 0.06, 4);
        let r = Run::new(&g)
            .method(Method::GpuOptimized)
            .telemetry(Level::Trace)
            .execute()
            .unwrap();
        let trace = r.trace.expect("trace summary");
        assert!(trace.spans > 0);
        assert!(trace.host_busy_s >= 0.0);
        let dev = trace.device.expect("device timeline");
        assert!(dev.sms > 0);
        assert!(dev.makespan_cycles > 0);
        assert!(r.tracer.enabled());
        assert!(r.tracer.span_count() > 0);
    }

    #[test]
    fn standard_level_records_no_trace() {
        let g = gen::gnp(80, 0.08, 1);
        let r = Run::new(&g).method(Method::GpuOptimized).execute().unwrap();
        assert!(r.trace.is_none());
        assert_eq!(r.tracer.span_count(), 0);
    }

    #[test]
    fn telemetry_off_still_counts() {
        let g = gen::gnp(100, 0.08, 3);
        let r = Run::new(&g)
            .method(Method::GpuOptimized)
            .telemetry(Level::Off)
            .execute()
            .unwrap();
        assert_eq!(r.count, triangles::count_edge_iterator(&g));
        assert!(r.eq6.is_none(), "eq6 pass is skipped when telemetry is off");
        assert_eq!(r.telemetry.counter("gpu.transactions"), 0);
        assert!(r.gpu.is_some(), "gpu section comes from the run result");

        // Every section comes from the executor's result, never from the
        // collector, so it reads the same at every telemetry level.
        let small = gen::gnp(60, 0.2, 3);
        let ring = gen::community_ring(1500, 100, 0.2, 2, 5);
        for (g, method, workload, section) in [
            (&small, Method::GpuOptimized, Workload::KCliques(3), "gpu"),
            (&ring, Method::Hybrid, Workload::Triangles, "hybrid"),
        ] {
            let at = |level| {
                Run::new(g)
                    .method(method)
                    .workload(workload)
                    .telemetry(level)
                    .execute()
                    .unwrap()
                    .to_json()
            };
            let (standard, off) = (at(Level::Standard), at(Level::Off));
            assert!(standard.get(section).is_some(), "{section} section");
            assert_eq!(standard.get(section), off.get(section), "{section}");
        }
    }

    #[test]
    fn bad_configs_are_errors_not_panics() {
        let g = gen::path(4);
        let mut cfg = GpuConfig::naive(DeviceSpec::c1060());
        cfg.threads_per_block = 48;
        let err = Run::new(&g)
            .method(Method::GpuOptimized)
            .gpu_config(cfg)
            .execute()
            .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let err = Run::new(&g)
            .method(Method::GpuOptimized)
            .workload(Workload::KCliques(1))
            .execute()
            .unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn too_large_graph_maps_to_error() {
        let mut dev = DeviceSpec::c1060();
        dev.global_mem_bytes = 64;
        let g = gen::gnp(100, 0.1, 1);
        let err = Run::new(&g)
            .method(Method::GpuNaive)
            .device(dev)
            .execute()
            .unwrap_err();
        assert!(matches!(err, Error::GraphTooLarge { .. }));
        assert_eq!(err.exit_code(), 5);
    }

    #[test]
    fn method_parse_roundtrips() {
        for m in Method::ALL {
            assert_eq!(Method::parse(m.label()).unwrap(), m);
        }
        // The underscore spellings from the issue tracker also parse.
        assert_eq!(
            Method::parse("cpu_intersect").unwrap(),
            Method::CpuIntersect
        );
        assert_eq!(
            Method::parse("gpu_sim_intersect").unwrap(),
            Method::GpuSimIntersect
        );
        assert!(Method::parse("doulion").is_err());
        assert!(Method::parse("").is_err());
    }
}
