//! # `uocqa` — Uniform Operational Consistent Query Answering
//!
//! Facade crate re-exporting the whole workspace, which is a from-scratch
//! Rust implementation of *Uniform Operational Consistent Query Answering*
//! (Calautti, Livshits, Pieris, Schneider — PODS 2022).
//!
//! The crates composing the system:
//!
//! * [`numeric`] — arbitrary-precision naturals and exact rationals.
//! * [`db`] — relational databases, functional dependencies, violations,
//!   conflict graphs and key blocks.
//! * [`query`] — conjunctive queries and homomorphism-based evaluation.
//! * [`repair`] — operations, repairing sequences, repairing Markov chains
//!   and the uniform Markov-chain generators.
//! * [`core`] — exact and approximate (FPRAS) uniform operational CQA.
//! * [`graphs`] — the graph/DNF substrate and the paper's hardness
//!   reductions.
//! * [`workload`] — seeded synthetic workload generators.
//!
//! See `README.md` for a quickstart and `ARCHITECTURE.md` for the
//! paper → code map and the experiment list.

pub use ucqa_core as core;
pub use ucqa_db as db;
pub use ucqa_graphs as graphs;
pub use ucqa_numeric as numeric;
pub use ucqa_query as query;
pub use ucqa_repair as repair;
pub use ucqa_workload as workload;

/// A convenience prelude re-exporting the most commonly used types.
pub mod prelude {
    pub use ucqa_core::prelude::*;
    pub use ucqa_db::prelude::*;
    pub use ucqa_query::prelude::*;
    pub use ucqa_repair::prelude::*;
}

/// Compiles the `README.md` code examples as doctests (`cargo test --doc`),
/// so the README's "Batched estimation" excerpt can never drift from the
/// real API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
