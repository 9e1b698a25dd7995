//! # `ucqa-graphs`
//!
//! The graph-theoretic and propositional substrate behind the paper's
//! hardness results (Appendices B and E), built from scratch:
//!
//! * [`UndirectedGraph`] — simple undirected graphs with the notions the
//!   proofs use (degree, connectivity, non-trivial connectivity).
//! * [`independent_sets`] — exact counting of (non-empty) independent sets,
//!   the quantity `♯IS` of Proposition B.4 / Lemma B.5.
//! * [`homomorphism`] — graph homomorphism counting and the fixed graph `H`
//!   of the ♯H-Coloring reduction (Appendix B.1).
//! * [`edge_coloring`] — the constructive Misra–Gries proof of Vizing's
//!   theorem: a (Δ+1)-edge-colouring in polynomial time, required by the
//!   Proposition 5.5 construction.
//! * [`dnf`] — positive 2DNF formulas and ♯Pos2DNF (Appendix E.1).
//! * [`reductions`] — the reduction gadgets themselves: the ♯H-Coloring
//!   database `D_G`, the independent-set database of Proposition 5.5, the
//!   FD gadget `D_F` of Lemma 5.6, the ♯Pos2DNF database `D_φ`, and the
//!   oracle-style Turing-reduction drivers `HOM` and `SAT`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod dnf;
pub mod edge_coloring;
pub mod homomorphism;
pub mod independent_sets;
pub mod reductions;
mod undirected;

pub use dnf::Positive2Dnf;
pub use undirected::UndirectedGraph;
