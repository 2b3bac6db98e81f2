//! # trigon-gpu-sim
//!
//! A deterministic cost-model simulator of the GPU memory hierarchy that
//! *On Analyzing Large Graphs Using GPUs* (IPDPSW 2013) optimizes against.
//! No GPU hardware is required: the simulator reproduces, from first
//! principles, exactly the quantities the paper's primitives act on —
//!
//! * **memory transactions** per warp access under the coalescing rules of
//!   each compute capability ([`coalesce`], Table III of the paper);
//! * **partition queueing** in global memory, the "partition camping"
//!   effect of §X ([`partition`], Eqs. 10–11);
//! * **bank conflicts** in shared memory ([`shared`], Eq. 9);
//! * **host↔device transfer** over PCIe ([`xfer`]), which dominates small
//!   inputs in Fig. 10.
//!
//! Device parameters ([`device`]) carry the paper's Table I architecture
//! comparison (C1060 / C2050 / C2070) plus documented timing constants;
//! all accounting is in integer cycles, so identical inputs give identical
//! simulated timings on any host.
//!
//! What this is *not*: a functional ISA emulator. The workload (triangle
//! counting in `trigon-core`) executes natively in Rust; this crate prices
//! the memory traffic and compute that execution would generate on the
//! modeled device.

#![deny(missing_docs)]

pub mod coalesce;
pub mod device;
pub mod emit;
pub mod faults;
pub mod occupancy;
pub mod partition;
pub mod profile;
pub mod shared;
pub mod viz;
pub mod xfer;

pub use coalesce::{warp_transactions, CoalesceSummary};
pub use device::{ComputeCapability, DeviceSpec};
pub use emit::{emit_traffic, emit_transfer, sm_utilization};
pub use emit::{trace_transfer, trace_transfer_labeled};
pub use faults::{FaultConfig, FaultEvent, FaultOutcome, FaultPlan, FaultSpec};
pub use occupancy::{occupancy, KernelResources, Occupancy, SmLimits};
pub use partition::{camping_cycles, PartitionTraffic};
pub use profile::{
    CounterSet, DeviceProfile, ProfileData, RooflinePoint, BYTES_PER_TRANSACTION,
    INSTRUCTIONS_PER_INTERSECT_OP, INSTRUCTIONS_PER_TEST,
};
pub use shared::{bank_conflict_degree, shared_access_cycles};
pub use viz::{render_partition_histogram, render_sm_timeline};
pub use xfer::TransferModel;
