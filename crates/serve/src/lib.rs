//! # trigon-serve — the persistent serving tier
//!
//! Turns the one-shot analysis pipeline into a daemon: load graphs
//! once, keep their expensive artifacts warm, and answer many queries
//! against them.
//!
//! * [`registry`] — named graphs plus two cache levels: the ALS
//!   decomposition keyed by `(graph, device, method)` (reused across
//!   workloads via [`trigon_core::Run::prebuilt_als`]) and memoized
//!   report JSON keyed by the full query coordinate. Warm counts are
//!   bit-identical to cold runs — the artifact path feeds the exact
//!   decomposition a cold run would build.
//! * [`admission`] — the §IV capacity gate: Eqs. 1–2 under the S-UTM
//!   packing admit a graph to the primary device, route it to a
//!   pooled-memory fleet roster, or reject it (CLI exit 5) before any
//!   layout work; plus the bounded queue that refuses overflow load.
//! * [`protocol`] — length-prefixed or NDJSON framing of the
//!   `load` / `list` / `evict` / `query` / `report` / `shutdown` ops,
//!   with server error codes equal to the CLI's exit codes.
//! * [`server`] — the dispatcher and its transports (stdio / pipe,
//!   TCP, Unix socket), one thread per connection over shared caches;
//!   query batches amortize the simulated H2D upload and every report
//!   carries the schema-v8 `serving` section.

#![deny(missing_docs)]

use std::sync::{Mutex, MutexGuard, PoisonError};

pub mod admission;
pub mod protocol;
pub mod registry;
pub mod server;

/// Locks `m`, taking the guard back if a thread panicked while holding
/// it. Every critical section in this crate leaves its data valid at
/// each step (map inserts and removals, counter bumps), so the state
/// behind a poisoned lock is consistent, and one panicking request must
/// not wedge every later client.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub use admission::{Permit, Policy, Queue, Verdict};
pub use protocol::{
    err_response, ok_response, parse_request, LoadSource, QueryItem, Request, Wire,
};
pub use registry::{generate, result_key, GraphInfo, Registry, RegistryStats};
pub use server::{Server, ServerConfig};
