//! # `ucqa-workload`
//!
//! Seeded synthetic workload generators for the uniform operational CQA
//! experiments.  The paper has no empirical evaluation of its own, so
//! these generators provide the inconsistent databases, constraint sets
//! and queries on which the reproduction validates the theorems and runs
//! its scaling studies (the `experiments` binary of `ucqa-bench`):
//!
//! * [`blocks`] — primary-key workloads parameterised by the block-size
//!   profile (the regime of Theorems 5.1(2), 6.1(2), E.1(2), E.8(2)).
//! * [`keys`] — multi-key workloads (the regime of Theorem 7.1(2), beyond
//!   primary keys).
//! * [`fds`] — non-key FD workloads, including the `D_n` family of
//!   Proposition D.6 (the regime of Theorem 7.5 and of the negative
//!   results).
//! * [`graphs`] — random graphs and graph-derived databases for the
//!   reduction experiments.
//! * [`queries`] — query/candidate generators matched to the workloads.
//! * [`skew`] — Zipf-skewed multi-join workloads (one hot anchor value
//!   per relation plus a tail of singletons), for the cost-based join
//!   planning experiments.
//! * [`stream`] — seeded insert/retract tick streams with configurable
//!   churn and key overlap, for the sliding-window experiments.
//!
//! Every generator takes an explicit seed (or `rand::Rng`) so experiments
//! are reproducible.
//!
//! ## Choosing a workload
//!
//! The generators are matched to the paper's constraint classes, which in
//! turn gate which FPRAS the `ucqa-core` drivers will accept:
//!
//! | Generator | Constraint class | Exercises |
//! |---|---|---|
//! | [`BlockWorkload`] | primary keys | all three uniform semantics; block-profile counting (Lemmas 5.2/C.1/E.2) |
//! | [`MultiKeyWorkload`] | keys, not primary | `M^uo` with pair removals (Theorem 7.1(2)) |
//! | [`FdWorkload`] / [`MultiFdWorkload`] | non-key FDs | `M^{uo,1}` (Theorem 7.5); the general-FD benchmark workload (`fd_joins`) and the component-local walk tests |
//! | [`proposition_d6_database`] | non-key FD, star conflicts | the Proposition D.6 negative result; skewed banks whose cheap queries retire early |
//! | [`SkewedJoinWorkload`] | non-key FDs, skewed postings | cost-based vs coverage-greedy join planning and subtree-shared bank compilation |
//! | [`graphs`] | reduction databases | the hardness experiments (E10/E11) |
//!
//! [`MultiFdWorkload::scaling`] keeps the conflict degree roughly
//! size-independent as the fact count grows, so walk cost scales with the
//! conflict structure rather than quadratically — this is the standard
//! scaling workload of the benchmark's general-FD runs.  The
//! [`queries`] module provides matched query generators
//! ([`queries::block_lookup_query`], [`queries::fact_membership_query`],
//! multi-query banks via [`queries::fact_membership_query_bank`], and
//! banks of CQs sharing atom prefixes via
//! [`queries::overlapping_join_bank`] — the shared-trie compilation
//! workload) whose candidates are guaranteed answers on the full
//! database, so target probabilities are non-zero.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod blocks;
pub mod fds;
pub mod graphs;
pub mod keys;
pub mod queries;
pub mod skew;
pub mod stream;

pub use blocks::BlockWorkload;
pub use fds::{proposition_d6_database, FdWorkload, MultiFdWorkload};
pub use keys::MultiKeyWorkload;
pub use skew::SkewedJoinWorkload;
pub use stream::StreamWorkload;
