//! # trigon-graph
//!
//! Graph substrate for the `trigon` project: everything *On Analyzing
//! Large Graphs Using GPUs* (IPDPSW 2013) assumes about graphs, built from
//! scratch.
//!
//! * [`graph`] — the canonical undirected simple [`Graph`] with CSR
//!   adjacency;
//! * [`storage`] — the paper's §IV storage models: bit-packed adjacency
//!   matrix, upper-triangular (UTM) and strictly-upper-triangular (S-UTM)
//!   packings, with exact bit-size accounting for the Table II capacity
//!   formulas;
//! * [`bfs`] — BFS trees with level sets (the input of Algorithms 1 & 2)
//!   and the level-adjacency invariant that makes ALS counting correct;
//! * [`components`] — connected components (first step of Algorithm 1);
//! * [`gen`] — seeded deterministic generators, including the
//!   Barabási–Albert and Watts–Strogatz models standing in for the SNAP
//!   social graphs of §XI (see DESIGN.md, substitutions);
//! * [`triangles`] — CPU reference triangle counting (node-iterator on bit
//!   rows, edge-iterator on CSR, degree-ordered *forward*), local counts,
//!   clustering coefficient and transitivity (§VII applications);
//! * [`rng`] — an in-house SplitMix64/Xoshiro256++ PRNG so every dataset
//!   is bit-reproducible;
//! * [`io`] — whitespace edge-list reader/writer and the auto-detecting
//!   dataset loader;
//! * [`mm`] — MatrixMarket coordinate reader/writer;
//! * [`approx`] — DOULION coin-flip approximate triangle counting (the
//!   paper's reference \[16\], used as the approximate baseline);
//! * [`cores`] — k-core decomposition and degeneracy ordering.

#![deny(missing_docs)]

pub mod approx;
pub mod bfs;
pub mod components;
pub mod cores;
pub mod gen;
pub mod graph;
pub mod io;
pub mod mm;
pub mod rng;
pub mod storage;
pub mod triangles;

pub use bfs::{BfsTree, LevelMap};
pub use components::connected_components;
pub use graph::{Graph, GraphError};
pub use rng::Xoshiro256pp;
pub use storage::{AdjacencyStorage, BitMatrix, Csr, SUtm, Utm};
