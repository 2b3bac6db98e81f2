//! # trigon-core
//!
//! The primary contribution of *On Analyzing Large Graphs Using GPUs*
//! (Chatterjee, Radhakrishnan, Antonio — IPDPSW 2013), implemented on the
//! substrates of the sibling crates:
//!
//! * [`capacity`] — §IV capacity planning: the largest graph each storage
//!   model fits in each memory (Tables I–II, Eqs. 1–2);
//! * [`als`] — adjacent level sets: the BFS-derived unit Algorithm 2
//!   counts over;
//! * [`split`] — Algorithm 1: splitting a graph into consecutive-level
//!   chunks sized against shared memory (Eq. 5 root selection,
//!   fragmentation objective);
//! * [`count`] — Algorithm 2 triangle counting on the CPU, both the
//!   faithful combination-testing form and a fast ALS reference;
//! * [`intersect`] — the degree-ordered adjacency-intersection backend
//!   (sorted merge / galloping search / `u64` bitmap kernels) raced
//!   against the paper's combination algorithm, bit-identical per ALS;
//! * [`layout`] — the §X data layouts: one monolithic adjacency matrix
//!   (Fig. 8, camping-prone) vs per-ALS duplicated, partition-aligned
//!   blocks (Fig. 9);
//! * [`gpu_exec`] — the simulated GPU kernel: §VIII-D equal-division
//!   thread grids, coalesced global loads, partition accounting, LPT
//!   block dispatch;
//! * [`hybrid`] — the §V shared/global execution split: ALS inside
//!   shared-memory-resident chunks run at bank latency, the rest from
//!   global memory, scheduled by LPT and compared against Eq. 6;
//! * [`timemodel`] — the §V execution-time model `τt = μ·τs + ψg·τg`
//!   (Eq. 6);
//! * [`kcount`] — the §III extensions: `k`-cliques, `k`-independent sets
//!   and connected subgraphs of size `k`;
//! * [`multi`] — the fleet execution path: ALS sharding across a
//!   multi-device roster (planned by `trigon-fleet`), interconnect
//!   pricing, and the deterministic partial-count reduction;
//! * [`cluster`] — the simulated cluster tier above the fleet: node
//!   partitioning (1D by component vs 2D by edge block), ghost-vertex
//!   materialization, and two-tier interconnect pricing;
//! * [`pipeline`] — the host executor: Algorithm 2 over a graph's ALS
//!   decomposition on the CPU, with modeled timing;
//! * [`workload`] — the [`ChunkKernel`] trait: the per-ALS workload
//!   abstraction (count, enumeration, clustering, k-truss) every
//!   executor above is generic over;
//! * [`analysis`] — the [`Run`] builder, the single entry point every
//!   front end drives: it checks the configuration against one
//!   capability table, builds the ALS decomposition once, and returns
//!   the unified [`RunReport`];
//! * [`report`] — the [`RunReport`] schema and its JSON serialization;
//! * [`error`] — the one workspace [`Error`] type with per-variant CLI
//!   exit codes.

#![deny(missing_docs)]

pub mod als;
pub mod analysis;
pub mod capacity;
pub mod cluster;
pub mod count;
pub mod error;
pub mod gpu_exec;
pub mod gpu_kcount;
pub mod hybrid;
pub mod intersect;
pub mod kcount;
pub mod layout;
pub mod multi;
pub mod pipeline;
mod placement;
pub mod report;
pub mod split;
pub mod timemodel;
pub mod workload;

pub use als::{build_als, Als};
pub use analysis::{Method, Run};
pub use capacity::{
    max_graph_adjacency, max_graph_sutm, max_graph_utm, table2, table2_fleet, FleetRow, Table2Row,
};
pub use cluster::{run_cluster, run_cluster_workload};
pub use error::Error;
pub use gpu_exec::{GpuConfig, GpuRunResult, SchedulePolicy, WorkDivision};
pub use hybrid::{HybridConfig, HybridPlan, HybridResult, Placement};
pub use intersect::{IntersectKernel, IntersectStats, OrientedCsr};
pub use layout::{GlobalLayout, LayoutKind};
pub use multi::{run_fleet, run_fleet_workload};
pub use pipeline::{CountMethod, TriangleReport};
pub use report::{
    ClusterNodeEntry, ClusterSection, Eq6Section, FleetDeviceEntry, FleetSection, GpuSection,
    HybridSection, ProfileSection, RunReport, ServingSection, WorkloadSection,
    RUN_REPORT_SCHEMA_VERSION,
};
pub use split::{split_graph, split_graph_collected, Chunk, SplitConfig, SplitResult};
pub use trigon_fleet::{ClusterSpec, FleetSpec, LinkTier, LossPlan, PartitionStrategy};
pub use trigon_gpu_sim::{CounterSet, DeviceProfile, ProfileData, RooflinePoint};
pub use trigon_telemetry::{
    Clock, Collector, Json, Level, ManualClock, MonotonicClock, TraceSummary, Tracer, Track,
};
pub use workload::{
    ChunkKernel, ClusteringKernel, CountKernel, EnumerateKernel, KTrussKernel, Workload,
};
