//! # trigon — facade crate
//!
//! Re-exports the whole `trigon` workspace behind one dependency, and
//! hosts the runnable examples (`examples/`) and cross-crate integration
//! tests (`tests/`).
//!
//! `trigon` is a from-scratch Rust reproduction of *On Analyzing Large
//! Graphs Using GPUs* (Chatterjee, Radhakrishnan, Antonio — IPDPSW 2013):
//! triangle counting and related combinatorial counting on graphs whose
//! adjacency data lives in GPU **global memory**, with the paper's memory
//! coalescing and partition-camping-avoidance primitives reproduced on a
//! deterministic GPU memory-hierarchy simulator.
//!
//! Start with the [`Run`] builder for the end-to-end API, or run
//! `cargo run --example quickstart`:
//!
//! ```
//! use trigon::{Method, Run};
//!
//! let g = trigon::graph::gen::gnp(200, 0.05, 1);
//! let report = Run::new(&g).method(Method::GpuOptimized).execute().unwrap();
//! println!("{}", report.to_json().to_string_pretty());
//! ```

pub use trigon_combin as combin;
pub use trigon_core as core;
pub use trigon_fleet as fleet;
pub use trigon_gpu_sim as gpu_sim;
pub use trigon_graph as graph;
pub use trigon_sched as sched;
pub use trigon_serve as serve;

pub use trigon_core::{
    ChunkKernel, Clock, ClusterSection, ClusterSpec, Collector, CounterSet, Error, FleetSpec, Json,
    Level, LossPlan, ManualClock, Method, MonotonicClock, PartitionStrategy, ProfileData,
    ProfileSection, Run, RunReport, TraceSummary, Tracer, Track, Workload, WorkloadSection,
    RUN_REPORT_SCHEMA_VERSION,
};
