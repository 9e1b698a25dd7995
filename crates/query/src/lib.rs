//! # `ucqa-query`
//!
//! Conjunctive queries (Section 2 of the paper): abstract syntax, a small
//! textual parser, and homomorphism-based evaluation.
//!
//! A conjunctive query has the form `Ans(x̄) :- R₁(ȳ₁), …, Rₙ(ȳₙ)` where
//! each `Rᵢ(ȳᵢ)` is a relational atom over variables and constants and the
//! answer variables `x̄` all occur in the body.  Evaluation is defined via
//! homomorphisms into a database; [`eval`] enumerates them by executing a
//! [`plan::JoinPlan`] over the database's `(position, value)` indexes —
//! cost-ordered against the live [`ucqa_db::RelationIndex`] statistics
//! when built with [`QueryEvaluator::with_stats`], structurally
//! coverage-ordered otherwise (queries are fixed — data complexity — so
//! the plan is built once per evaluator).  [`bank`] compiles the
//! enumeration result into witnesses for the Monte-Carlo hot loop
//! ([`lineage`] holds their sparse form and the witness cap), sharing
//! both the enumeration (common atom prefixes *and* canonicalised suffix
//! subtrees, one scan trie with fill-once/replay memoisation) and the
//! witnesses (one deduplicated arena) across a whole bank of queries; a
//! single query is a bank of one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod ast;
pub mod bank;
pub mod error;
pub mod eval;
pub mod lineage;
pub mod parser;
pub mod plan;

pub use ast::{Atom, ConjunctiveQuery, Term, Variable};
pub use bank::{BankLiveSet, BankQueryRef, BankScratch, CompileBudget, CompileStats, LineageBank};
pub use error::QueryError;
pub use eval::{Bindings, QueryEvaluator};
pub use lineage::Witness;
pub use plan::{JoinPlan, Membership, PlanExplain, StepExplain};

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use crate::{
        Atom, BankLiveSet, BankScratch, Bindings, CompileBudget, CompileStats, ConjunctiveQuery,
        JoinPlan, LineageBank, PlanExplain, QueryError, QueryEvaluator, StepExplain, Term,
        Variable,
    };
}
