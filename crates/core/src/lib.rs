//! # `ucqa-core`
//!
//! Exact and approximate uniform operational consistent query answering —
//! the algorithmic contribution of the paper (Sections 5–7 and
//! Appendices B–E):
//!
//! * [`exact`] — exact solvers for `OCQA`, `RRFreq`, `SRFreq` and their
//!   singleton-operation variants, based on the explicit constructions of
//!   `ucqa-repair` (exponential; ground truth for small instances).
//! * [`counting`] — polynomial counting for primary keys: `|CORep(D, Σ)|`
//!   (Lemma 5.2), `|CORep¹(D, Σ)|` (Lemma E.2) and the `|CRS(D, Σ)|`
//!   dynamic program of Lemma C.1.
//! * [`sample_repairs`] — the uniform repair samplers `SampleRep`
//!   (Lemma 5.2) and `SampleRep¹` (Lemma E.2).
//! * [`sample_sequences`] — the uniform sequence sampler `SampleSeq`
//!   (Algorithm 1 / Lemma 6.2) and its singleton variant (Lemma E.9).
//! * [`sample_operations`] — the uniform-operations random walk
//!   (Lemmas 7.2 and D.7).
//! * [`bounds`] — the polynomial lower bounds on the target quantities
//!   (Lemmas 5.3, 6.3, E.3, E.10, D.8 and Proposition 7.3).
//! * [`montecarlo`] — Monte-Carlo estimation: the Dagum–Karp–Luby–Ross
//!   optimal stopping rule, sequential and sharded; a fixed sample count
//!   is the same loop with a target no variable reaches.
//! * [`budget`] — run budgets for the estimation loops: draw caps,
//!   wall-clock deadlines, cooperative cancellation, and the achieved
//!   `(ε′, δ)` bound of an interrupted run.
//! * [`fpras`] — the end-to-end FPRAS of Theorems 5.1(2), 6.1(2),
//!   7.1(2), 7.5, E.1(2) and E.8(2), with the constraint-class requirements
//!   of each theorem enforced at run time: one estimator, a bank compiled
//!   once, and two runs over it (`run`, and `run_sharded` with the
//!   `parallel` feature).
//! * [`stream`] — sliding-window continuous CQA: a windowed estimator
//!   that slides facts out of a count- or tick-based window, refreshes
//!   the derived structures by changelog replay, and reuses converged
//!   draws for entries whose lineage fingerprint is unchanged.
//! * `chaos` (feature `chaos`) — deterministic fault injection for
//!   robustness testing: skewed clocks and adversarial experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod bounds;
pub mod budget;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod counting;
pub mod error;
pub mod exact;
pub mod fpras;
pub mod montecarlo;
mod random;
pub mod sample_operations;
pub mod sample_repairs;
pub mod sample_sequences;
pub mod stream;

pub use budget::{
    AchievedBound, BudgetStatus, CancelToken, Clock, EstimateOutcome, ManualClock, QueryOutcome,
    RunBudget,
};
pub use error::CoreError;
pub use exact::ExactSolver;
pub use fpras::{ApproximationParams, BatchEstimator, BatchQuery, Estimate};
pub use stream::{TickOutcome, TickReport, WindowSpec, WindowedEstimator};

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use crate::{
        AchievedBound, ApproximationParams, BatchEstimator, BatchQuery, BudgetStatus, CancelToken,
        CoreError, Estimate, EstimateOutcome, ExactSolver, QueryOutcome, RunBudget, TickOutcome,
        TickReport, WindowSpec, WindowedEstimator,
    };
}
