//! End-to-end FPRAS drivers for uniform operational CQA.
//!
//! [`OcqaEstimator`] wires together a uniform generator specification, the
//! matching polynomial sampler, and a Monte-Carlo estimator, and enforces
//! the constraint-class requirements under which the paper proves each
//! combination approximable:
//!
//! | Generator | Pair + singleton ops | Singleton ops only |
//! |---|---|---|
//! | `M^ur` (uniform repairs)   | primary keys (Thm 5.1(2)); **no FPRAS** for FDs (Thm 5.1(3)); open for keys | primary keys (Thm E.1(2)) |
//! | `M^us` (uniform sequences) | primary keys (Thm 6.1(2)); open for keys/FDs | primary keys (Thm E.8(2)) |
//! | `M^uo` (uniform operations)| arbitrary keys (Thm 7.1(2)); open for FDs (Prop. D.6 rules out plain Monte-Carlo) | arbitrary FDs (Thm 7.5) |
//!
//! Requesting a combination outside this table yields
//! [`CoreError::Unsupported`] with the relevant theorem cited in the error
//! message.

use std::sync::Arc;

use rand::Rng;

use ucqa_db::{ConflictIndex, Database, FactSet, FdSet, Value};
use ucqa_query::{BankLiveSet, BankScratch, LineageBank, Membership, QueryEvaluator};
use ucqa_repair::{GeneratorSpec, UniformSemantics};

use crate::bounds;
use crate::budget::{AchievedBound, BudgetStatus, EstimateOutcome, QueryOutcome, RunBudget};
use crate::montecarlo::{
    estimate_fixed_batch, estimate_stopping_batch_budgeted, BatchOutcome, BudgetedStoppingOutcome,
    StoppingBatchExperiment, StoppingRuleEstimator, StoppingRuleOutcome,
};
#[cfg(feature = "parallel")]
use crate::montecarlo::{
    estimate_fixed_batch_parallel, estimate_stopping_batch_rounds, DEFAULT_SHARD_SIZE,
};
use crate::sample_operations::{OperationWalkSampler, PulledCheck, WalkScratch};
use crate::sample_repairs::RepairSampler;
use crate::sample_sequences::SequenceSampler;
use crate::CoreError;
#[cfg(feature = "parallel")]
use rand::rngs::StdRng;

/// How many samples to draw, and under which guarantee.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorMode {
    /// The Dagum–Karp–Luby–Ross optimal stopping rule with the given
    /// sample cut-off: a relative `(ε, δ)`-guarantee whenever the cut-off
    /// is not hit.  This is the default and the practical choice.
    OptimalStopping {
        /// Hard cap on the number of samples.
        max_samples: u64,
    },
    /// A fixed number of samples derived from the worst-case lower bounds
    /// of [`crate::bounds`] (relative guarantee).  Fails when the bound is
    /// too small to be useful: when the derived count exceeds the
    /// stopping rule's default cut-off [`crate::bounds::DEFAULT_MAX_SAMPLES`].
    FixedFromLowerBound,
    /// A fixed number of samples for an *additive* `(ε, δ)`-guarantee.
    FixedAdditive,
    /// An explicit number of samples (no formal guarantee; useful for
    /// benchmarks).
    FixedSamples(u64),
}

/// Approximation parameters `(ε, δ)` plus the estimator mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproximationParams {
    /// Relative (or additive, depending on the mode) error bound.
    pub epsilon: f64,
    /// Failure probability.
    pub delta: f64,
    /// The estimator mode.
    pub mode: EstimatorMode,
}

impl ApproximationParams {
    /// Creates parameters using the optimal stopping rule with the
    /// default cut-off of [`bounds::DEFAULT_MAX_SAMPLES`] (10 million)
    /// samples.
    pub fn new(epsilon: f64, delta: f64) -> Result<Self, CoreError> {
        let params = ApproximationParams {
            epsilon,
            delta,
            mode: EstimatorMode::OptimalStopping {
                max_samples: bounds::DEFAULT_MAX_SAMPLES,
            },
        };
        params.validate()?;
        Ok(params)
    }

    /// Switches to a different estimator mode.
    pub fn with_mode(mut self, mode: EstimatorMode) -> Self {
        self.mode = mode;
        self
    }

    fn validate(&self) -> Result<(), CoreError> {
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(CoreError::InvalidParameters {
                message: format!("epsilon must be in (0, 1), got {}", self.epsilon),
            });
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(CoreError::InvalidParameters {
                message: format!("delta must be in (0, 1), got {}", self.delta),
            });
        }
        Ok(())
    }
}

/// The result of an approximate OCQA run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The estimated probability `P_{M_Σ,Q}(D, c̄)`.
    pub value: f64,
    /// Number of samples drawn.
    pub samples: u64,
    /// Number of samples whose repair entailed the answer.
    pub successes: u64,
    /// Whether a sample cut-off truncated the run (the `(ε, δ)` guarantee
    /// then no longer applies; the value is the plain empirical mean).
    pub truncated: bool,
}

/// Which sampler backs the estimator: one variant per
/// [`UniformSemantics`], each sampler built in the spec's operation mode
/// (pair or singleton-only), which its draws then follow.
///
/// The operations walker owns its precomputed [`ucqa_db::ConflictIndex`],
/// built once here so that every Monte-Carlo shard shares it by reference;
/// only the pair-mode sequences sampler builds the Lemma C.1 tables.
enum SamplerKind<'a> {
    Repairs(RepairSampler),
    Sequences(SequenceSampler),
    Operations(OperationWalkSampler<'a>),
}

impl SamplerKind<'_> {
    /// Draws one repair into the reused buffer, over what `cover` names;
    /// see [`RepairBuffer`] and [`Cover`].
    ///
    /// This and [`PulledCheck::draw`] are the *only* places the
    /// Monte-Carlo loops consume the RNG — the one experiment
    /// ([`BankExperiment`]) of every estimator dispatches through them,
    /// and a single query is a bank of one, which is what makes batched
    /// and single-query outcomes bit-identical under a shared seed.  A
    /// restricted or pulled draw takes the same single key as the full
    /// one and agrees with it on every unit or fact it decides.
    fn sample_repair_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        cover: &Cover,
        out: &mut FactSet,
        scratch: &mut WalkScratch,
    ) {
        match (self, cover) {
            (SamplerKind::Repairs(sampler), Cover::Units(blocks)) => {
                sampler.sample_blocks_into(rng, blocks, out)
            }
            (SamplerKind::Repairs(sampler), _) => sampler.sample_into(rng, out),
            (SamplerKind::Sequences(sampler), _) => sampler.sample_result_into(rng, out),
            (SamplerKind::Operations(walker), Cover::Units(components)) => {
                walker.sample_components_into(rng, components, out, scratch)
            }
            (SamplerKind::Operations(walker), Cover::All) => {
                walker.sample_result_into(rng, out, scratch)
            }
        }
    }
}

/// What a buffered draw decides: the whole repair, or only what the
/// check of the live entries reads.
///
/// Under `M^ur` and `M^{ur,1}` every block's outcome is independent and
/// keyed by the block (Lemma 5.2), and under `M^uo` every component is
/// drawn alone on a keyed substream (Lemma 7.2, see
/// [`crate::sample_operations`]).  A compiled check reads only its
/// witness facts, so a draw restricted to the blocks or components those
/// witnesses meet decides every check exactly as the full draw would, at
/// a cost set by the bank rather than by `|D|`.  A fallback entry runs
/// the backtracking evaluator on the whole repair, so while one is live
/// the draw is full, as is every draw of the sequence sampler, whose
/// draws are not keyed by component.  `M^{uo,1}` draws no repair at all
/// ([`PulledCheck`]).
#[derive(Debug, PartialEq)]
enum Cover {
    /// Every block or component: the full draw.
    All,
    /// The conflicting blocks (`M^ur`, `M^{ur,1}`) or the conflict
    /// components (`M^uo`) that the live witnesses meet.
    Units(Vec<usize>),
}

impl Cover {
    /// The cover of a draw checked against the live entries of `live`.
    fn of(estimator: &OcqaEstimator<'_>, bank: &LineageBank, live: &BankLiveSet) -> Self {
        let entries = live.live_queries();
        if entries.iter().any(|&q| bank.is_fallback(q)) {
            return Cover::All;
        }
        let witness_facts = entries
            .iter()
            .filter_map(|&q| bank.witnesses_of(q))
            .flatten()
            .flat_map(|witness| witness.iter());
        match &estimator.sampler {
            SamplerKind::Repairs(sampler) => Cover::Units(sampler.blocks_meeting(witness_facts)),
            SamplerKind::Sequences(_) => Cover::All,
            SamplerKind::Operations(walker) => {
                Cover::Units(walker.components_meeting(witness_facts))
            }
        }
    }
}

/// The reused draw state of one buffered experiment: the universe-sized
/// repair buffer, the walk scratch, the draw's [`Cover`] and the scratch
/// of the word-level check.
///
/// A restricted draw rewrites only what it covers; every other fact of
/// the buffer stays as prepared ([`RepairSampler::prepare`] for the
/// blocks, the live facts for the walk) or as an earlier full draw of the
/// same pass left it, and no compiled check reads it.
struct RepairBuffer {
    repair: FactSet,
    scratch: WalkScratch,
    /// What the next draw covers; `None` until the first draw and after
    /// each retirement.
    cover: Option<Cover>,
    bank_scratch: BankScratch,
}

impl RepairBuffer {
    /// The draw state of an experiment of `estimator`.
    fn new(estimator: &OcqaEstimator<'_>) -> Self {
        let mut repair = FactSet::empty(estimator.db.len());
        match &estimator.sampler {
            SamplerKind::Repairs(sampler) => sampler.prepare(&mut repair),
            SamplerKind::Sequences(_) => {}
            SamplerKind::Operations(_) => repair.copy_from(estimator.db.live_facts()),
        }
        RepairBuffer {
            repair,
            scratch: WalkScratch::new(),
            cover: None,
            bank_scratch: BankScratch::new(),
        }
    }

    /// Draws the next repair over the cover of the live entries of `live`
    /// (see [`SamplerKind::sample_repair_into`]), deriving the cover
    /// first if a retirement dropped it, and writes `hits[q]` for every
    /// live compiled entry `q` (see [`LineageBank::evaluate_live_into`]).
    fn draw<R: Rng + ?Sized>(
        &mut self,
        estimator: &OcqaEstimator<'_>,
        bank: &LineageBank,
        live: &BankLiveSet,
        rng: &mut R,
        hits: &mut [bool],
    ) {
        let cover = self
            .cover
            .get_or_insert_with(|| Cover::of(estimator, bank, live));
        estimator
            .sampler
            .sample_repair_into(rng, cover, &mut self.repair, &mut self.scratch);
        bank.evaluate_live_into(live, &self.repair, &mut self.bank_scratch, hits);
    }
}

/// The compiled entries of `bank` that have no witness.  `Q(c̄)` then
/// has no image in `D`, so it has none in any repair either: `P = 0`
/// exactly, under every generator, and such an entry retires before the
/// first draw instead of holding a stopping-rule stream open to its
/// cut-off.
fn witness_free(bank: &LineageBank) -> impl Iterator<Item = usize> + '_ {
    (0..bank.len()).filter(|&q| bank.query_witness_count(q) == Some(0))
}

/// The stopping-rule outcome of an entry that retires before the first
/// draw because its probability is exactly 0.
const SETTLED_AT_ZERO: StoppingRuleOutcome = StoppingRuleOutcome {
    estimate: 0.0,
    samples: 0,
    successes: 0,
    truncated: false,
};

/// The state a stopping-rule stream over `bank` starts from: `prior`, or
/// a fresh stream, with every [witness-free](witness_free) entry retired
/// at [`SETTLED_AT_ZERO`] with status [`BudgetStatus::Converged`].
fn settle_witness_free(
    bank: &LineageBank,
    prior: Option<&BudgetedStoppingOutcome>,
) -> BudgetedStoppingOutcome {
    let mut start = prior.cloned().unwrap_or_else(|| BudgetedStoppingOutcome {
        outcomes: vec![
            StoppingRuleOutcome {
                truncated: true,
                ..SETTLED_AT_ZERO
            };
            bank.len()
        ],
        statuses: vec![BudgetStatus::BudgetExhausted; bank.len()],
        total_samples: 0,
    });
    for q in witness_free(bank) {
        start.outcomes[q] = SETTLED_AT_ZERO;
        start.statuses[q] = BudgetStatus::Converged;
    }
    start
}

/// An approximate (FPRAS) solver for `OCQA(Σ, M, Q)` over one database.
pub struct OcqaEstimator<'a> {
    db: &'a Database,
    sigma: &'a FdSet,
    spec: GeneratorSpec,
    sampler: SamplerKind<'a>,
}

impl<'a> OcqaEstimator<'a> {
    /// Creates an estimator for the given uniform generator, validating
    /// that the paper provides an FPRAS for the combination of generator
    /// and constraint class.
    pub fn new(db: &'a Database, sigma: &'a FdSet, spec: GeneratorSpec) -> Result<Self, CoreError> {
        Self::new_inner(db, sigma, spec, None)
    }

    /// As [`OcqaEstimator::new`], reusing a caller-maintained
    /// [`ConflictIndex`] for the uniform-operations walk — typically one
    /// kept current across database mutations with
    /// [`ConflictIndex::refresh`] — instead of rebuilding it from scratch.
    /// Estimates are bit-identical to [`OcqaEstimator::new`] under the
    /// same seed; only the construction cost differs.
    ///
    /// # Errors
    /// The same support errors as [`OcqaEstimator::new`]; additionally,
    /// the spec must use [`UniformSemantics::Operations`] (the repair and
    /// sequence generators do not consume a conflict index).
    ///
    /// # Panics
    /// Panics if `index` is stale with respect to `db` (see
    /// [`crate::sample_operations::OperationWalkSampler::with_index`]).
    pub fn with_conflict_index(
        db: &'a Database,
        sigma: &'a FdSet,
        spec: GeneratorSpec,
        index: impl Into<Arc<ConflictIndex>>,
    ) -> Result<Self, CoreError> {
        if spec.semantics != UniformSemantics::Operations {
            return Err(CoreError::Unsupported {
                semantics: spec.semantics,
                singleton_only: spec.singleton_only,
                constraint_class: "any".to_string(),
                explanation: "a precomputed conflict index only backs the uniform-operations \
                              walk; use OcqaEstimator::new for the other generators"
                    .to_string(),
            });
        }
        Self::new_inner(db, sigma, spec, Some(index.into()))
    }

    fn new_inner(
        db: &'a Database,
        sigma: &'a FdSet,
        spec: GeneratorSpec,
        index: Option<Arc<ConflictIndex>>,
    ) -> Result<Self, CoreError> {
        let schema = db.schema();
        let primary_keys = sigma.is_primary_keys(schema);
        let keys = sigma.is_keys(schema);
        let constraint_class = if primary_keys {
            "primary keys"
        } else if keys {
            "keys"
        } else {
            "functional dependencies"
        };
        let unsupported = |explanation: &str| CoreError::Unsupported {
            semantics: spec.semantics,
            singleton_only: spec.singleton_only,
            constraint_class: constraint_class.to_string(),
            explanation: explanation.to_string(),
        };

        let sampler = match (spec.semantics, spec.singleton_only) {
            (UniformSemantics::Repairs, false) => {
                if !primary_keys {
                    return Err(unsupported(if keys {
                        "open problem (Theorem 5.1 covers primary keys; Proposition 5.5 \
                         rules out approximate repair counting for keys)"
                    } else {
                        "Theorem 5.1(3): no FPRAS for FDs unless RP = NP"
                    }));
                }
                SamplerKind::Repairs(RepairSampler::new(db, sigma)?)
            }
            (UniformSemantics::Repairs, true) => {
                if !primary_keys {
                    return Err(unsupported(
                        "Theorem E.1 covers primary keys only; E.1(3) rules out FDs",
                    ));
                }
                SamplerKind::Repairs(RepairSampler::new(db, sigma)?.singleton_only())
            }
            (UniformSemantics::Sequences, false) => {
                if !primary_keys {
                    return Err(unsupported(
                        "Theorem 6.1 covers primary keys; keys/FDs are open (conjectured hard)",
                    ));
                }
                SamplerKind::Sequences(SequenceSampler::new_log_space(db, sigma)?)
            }
            (UniformSemantics::Sequences, true) => {
                if !primary_keys {
                    return Err(unsupported("Theorem E.8 covers primary keys only"));
                }
                SamplerKind::Sequences(SequenceSampler::new_singleton_only(db, sigma)?)
            }
            (UniformSemantics::Operations, false) => {
                if !keys {
                    return Err(unsupported(
                        "Theorem 7.1(2) requires keys; for general FDs the target probability \
                         can be exponentially small (Proposition D.6), use singleton operations \
                         (Theorem 7.5) instead",
                    ));
                }
                SamplerKind::Operations(match index {
                    Some(index) => OperationWalkSampler::with_index(db, sigma, index),
                    None => OperationWalkSampler::new(db, sigma),
                })
            }
            (UniformSemantics::Operations, true) => {
                let walker = match index {
                    Some(index) => OperationWalkSampler::with_index(db, sigma, index),
                    None => OperationWalkSampler::new(db, sigma),
                };
                SamplerKind::Operations(walker.singleton_only())
            }
        };
        Ok(OcqaEstimator {
            db,
            sigma,
            spec,
            sampler,
        })
    }

    /// The generator this estimator approximates.
    pub fn spec(&self) -> GeneratorSpec {
        self.spec
    }

    /// The worst-case lower bound on the (non-zero) target probability for
    /// this generator and constraint class, from [`crate::bounds`].
    pub fn theoretical_lower_bound(&self, evaluator: &QueryEvaluator) -> ucqa_numeric::LogFloat {
        let d = self.db.len();
        let q = evaluator.query().atom_count();
        match (&self.sampler, self.spec.singleton_only) {
            (SamplerKind::Repairs(_) | SamplerKind::Sequences(_), true) => {
                bounds::singleton_frequency_lower_bound(d, q)
            }
            (SamplerKind::Repairs(_), false) => bounds::rrfreq_lower_bound(d, q),
            (SamplerKind::Sequences(_), false) => bounds::srfreq_lower_bound(d, q),
            (SamplerKind::Operations(_), true) => bounds::fd_singleton_lower_bound(d, q),
            (SamplerKind::Operations(_), false) => {
                bounds::uniform_operations_keys_lower_bound(d, q, self.sigma.max_fds_per_relation())
            }
        }
    }

    /// Estimates `P_{M_Σ,Q}(D, c̄)`:
    /// [`OcqaEstimator::estimate_with_budget`] under
    /// [`RunBudget::unlimited`].
    pub fn estimate<R: Rng + ?Sized>(
        &self,
        evaluator: &QueryEvaluator,
        candidate: &[Value],
        params: ApproximationParams,
        rng: &mut R,
    ) -> Result<Estimate, CoreError> {
        let unlimited = RunBudget::unlimited();
        let outcome = self.estimate_with_budget(evaluator, candidate, params, &unlimited, rng)?;
        Ok(estimate_of(&outcome.queries[0]))
    }

    /// Estimates `P_{M_Σ,Q}(D, c̄)` under a [`RunBudget`].
    ///
    /// A single query is a bank of one.  The candidate's lineage compiles
    /// into a one-entry [`LineageBank`] under the budget's compile-step
    /// cap (which also validates the candidate arity, before any sampling
    /// happens): a monotone DNF of sparse witnesses, so entailment of a
    /// sampled repair is a word-level "some witness ⊆ repair" check and
    /// the loop performs no heap allocation and no backtracking search.
    /// When the witness count exceeds
    /// [`ucqa_query::lineage::DEFAULT_WITNESS_CAP`], the check falls back
    /// to the (slot-compiled) backtracking evaluator.  The bank then runs
    /// through the same drivers as [`BatchEstimator`]: the stopping rule,
    /// under which a lineage with no witness is answered without drawing
    /// (the probability is exactly 0: estimate 0, zero samples), or the
    /// fixed loop with the mode's sample count
    /// ([`EstimatorMode::FixedFromLowerBound`] derives it from
    /// [`OcqaEstimator::theoretical_lower_bound`]).
    ///
    /// The budget is polled between draws and consumes no randomness: an
    /// unconstrained budget never changes the sample stream and reports
    /// status [`Converged`](crate::budget::BudgetStatus::Converged).  An
    /// interrupted run returns the partial estimate together with the
    /// achieved `(ε′, δ)` bound at the observed counts (see
    /// [`AchievedBound`]).
    pub fn estimate_with_budget<R: Rng + ?Sized>(
        &self,
        evaluator: &QueryEvaluator,
        candidate: &[Value],
        params: ApproximationParams,
        budget: &RunBudget,
        rng: &mut R,
    ) -> Result<EstimateOutcome, CoreError> {
        params.validate()?;
        let queries = [BatchQuery::new(evaluator, candidate)];
        let bank = self.compile(&queries, budget)?;
        let samples = match params.mode {
            EstimatorMode::OptimalStopping { .. } => None,
            _ => Some(self.fixed_sample_count(Some(evaluator), params)?),
        };
        self.run(&bank, &queries, params, samples, budget, rng)
    }

    /// Estimates `P_{M_Σ,Q}(D, c̄)` with samples sharded across rayon
    /// worker threads.
    ///
    /// Only the fixed-sample-count modes are supported (the optimal
    /// stopping rule is inherently sequential).  Each shard owns its own
    /// deterministic RNG stream derived from `master_seed` and its own
    /// sampling buffers, so the result is bit-identical for a fixed master
    /// seed regardless of the number of worker threads.
    #[cfg(feature = "parallel")]
    pub fn estimate_parallel(
        &self,
        evaluator: &QueryEvaluator,
        candidate: &[Value],
        params: ApproximationParams,
        master_seed: u64,
    ) -> Result<Estimate, CoreError> {
        params.validate()?;
        let samples = self.fixed_sample_count(Some(evaluator), params)?;
        let queries = [BatchQuery::new(evaluator, candidate)];
        let bank = self.compile(&queries, &RunBudget::unlimited())?;
        let outcome = self.run_fixed_parallel(&bank, &queries, samples, params.delta, master_seed);
        Ok(estimate_of(&outcome.queries[0]))
    }

    /// The sample count of a fixed-sample [`EstimatorMode`].
    /// [`EstimatorMode::FixedFromLowerBound`] derives it from the lower
    /// bound of one query, so it needs that query's `evaluator`: a bank
    /// shares one loop across queries whose bounds differ.  An error for
    /// [`EstimatorMode::OptimalStopping`], whose sample count is data
    /// dependent.
    fn fixed_sample_count(
        &self,
        evaluator: Option<&QueryEvaluator>,
        params: ApproximationParams,
    ) -> Result<u64, CoreError> {
        let invalid = |message: &str| CoreError::InvalidParameters {
            message: message.to_string(),
        };
        match (params.mode, evaluator) {
            (EstimatorMode::FixedSamples(samples), _) => Ok(samples),
            (EstimatorMode::FixedAdditive, _) => Ok(bounds::samples_for_additive_error(
                params.epsilon,
                params.delta,
            )),
            (EstimatorMode::FixedFromLowerBound, Some(evaluator)) => {
                let bound = self.theoretical_lower_bound(evaluator);
                bounds::samples_for_relative_error(params.epsilon, params.delta, bound).ok_or_else(
                    || {
                        invalid(
                            "the worst-case lower bound is too small to derive a practical \
                             sample count; use the optimal stopping rule",
                        )
                    },
                )
            }
            (EstimatorMode::FixedFromLowerBound, None) => Err(invalid(
                "a bank shares one sample loop across all queries, but FixedFromLowerBound \
                 would derive a different count per query: use FixedSamples, FixedAdditive \
                 or OptimalStopping",
            )),
            (EstimatorMode::OptimalStopping { .. }, _) => Err(invalid(
                "the optimal stopping rule has no fixed sample count: it runs through \
                 `estimate`, `estimate_with_budget` and the `BatchEstimator` stopping paths",
            )),
        }
    }

    /// Compiles `queries` into one [`LineageBank`] under the compile-time
    /// part of `budget` (see [`BatchEstimator::compile_bank`]).
    fn compile(
        &self,
        queries: &[BatchQuery<'_>],
        budget: &RunBudget,
    ) -> Result<LineageBank, CoreError> {
        let refs: Vec<(&QueryEvaluator, &[Value])> =
            queries.iter().map(|q| (q.evaluator, q.candidate)).collect();
        let (bank, _) = LineageBank::compile_with_budget(self.db, &refs, &budget.compile_budget())?;
        Ok(bank)
    }

    /// The sequential driver of both estimators: a fixed loop of
    /// `samples` draws, or the stopping rule when `samples` is `None`.
    fn run<R: Rng + ?Sized>(
        &self,
        bank: &LineageBank,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        samples: Option<u64>,
        budget: &RunBudget,
        rng: &mut R,
    ) -> Result<EstimateOutcome, CoreError> {
        match samples {
            Some(samples) => Ok(self.run_fixed(bank, queries, samples, params.delta, budget, rng)),
            None => self.run_stopping(bank, queries, params, budget, None, rng),
        }
    }

    /// The fixed-sample driver: `samples` shared draws under `budget`,
    /// counting the hits of every entry of `bank`.
    fn run_fixed<R: Rng + ?Sized>(
        &self,
        bank: &LineageBank,
        queries: &[BatchQuery<'_>],
        samples: u64,
        delta: f64,
        budget: &RunBudget,
        rng: &mut R,
    ) -> EstimateOutcome {
        let mut experiment = BankExperiment::new(self, bank, queries, BankLiveSet::full(bank));
        let (outcome, status) =
            estimate_fixed_batch(rng, samples, queries.len(), budget, |rng, successes| {
                experiment.count(rng, successes)
            });
        fixed_outcome(&outcome, status, delta)
    }

    /// The stopping-rule driver: one shared stream over `bank` under the
    /// Dagum–Karp–Luby–Ross rule with per-entry target `Υ(ε, δ/k)`,
    /// starting from `prior` (or a fresh stream) with every
    /// [witness-free](witness_free) entry settled at zero draws.  Only
    /// the entries not yet converged are live.
    fn run_stopping<R: Rng + ?Sized>(
        &self,
        bank: &LineageBank,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        budget: &RunBudget,
        prior: Option<&EstimateOutcome>,
        rng: &mut R,
    ) -> Result<EstimateOutcome, CoreError> {
        let max_samples = stopping_cut_off(params)?;
        let (targets, delta) = stopping_targets(params, queries.len());
        let start = settle_witness_free(bank, prior.map(budgeted_from).as_ref());
        let live: Vec<usize> = (0..bank.len())
            .filter(|&q| !start.statuses[q].is_converged())
            .collect();
        let live = BankLiveSet::restrict(bank, &live);
        let mut experiment = BankExperiment::new(self, bank, queries, live);
        let outcome = estimate_stopping_batch_budgeted(
            rng,
            &targets,
            max_samples,
            budget,
            &mut experiment,
            Some(&start),
        );
        Ok(outcome_from(outcome, delta))
    }

    /// As [`OcqaEstimator::run_fixed`], sharded across rayon worker
    /// threads and without a budget.
    #[cfg(feature = "parallel")]
    fn run_fixed_parallel(
        &self,
        bank: &LineageBank,
        queries: &[BatchQuery<'_>],
        samples: u64,
        delta: f64,
        master_seed: u64,
    ) -> EstimateOutcome {
        let outcome = estimate_fixed_batch_parallel(
            master_seed,
            samples,
            DEFAULT_SHARD_SIZE,
            queries.len(),
            || {
                let mut experiment =
                    BankExperiment::new(self, bank, queries, BankLiveSet::full(bank));
                move |rng: &mut StdRng, successes: &mut [u64]| experiment.count(rng, successes)
            },
        );
        fixed_outcome(&outcome, BudgetStatus::Converged, delta)
    }

    /// As [`OcqaEstimator::run_stopping`] from a fresh stream, in
    /// rayon-sharded rounds of [`DEFAULT_ROUND_SAMPLES`]: each shard's
    /// experiment sees only the entries still live at its round.
    #[cfg(feature = "parallel")]
    fn run_rounds(
        &self,
        bank: &LineageBank,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        master_seed: u64,
        budget: &RunBudget,
    ) -> Result<EstimateOutcome, CoreError> {
        let max_samples = stopping_cut_off(params)?;
        let (targets, delta) = stopping_targets(params, queries.len());
        let settled: Vec<usize> = witness_free(bank).collect();
        let outcome = estimate_stopping_batch_rounds(
            master_seed,
            &targets,
            max_samples,
            DEFAULT_ROUND_SAMPLES,
            DEFAULT_SHARD_SIZE,
            budget,
            &settled,
            |live| {
                let live = BankLiveSet::restrict(bank, live);
                let mut experiment = BankExperiment::new(self, bank, queries, live);
                move |rng: &mut StdRng, hits: &mut [bool]| experiment.draw_live(rng, hits)
            },
        );
        Ok(outcome_from(outcome, delta))
    }
}

/// The `max_samples` cut-off of a stopping-rule run, or an error when
/// `params` is not in [`EstimatorMode::OptimalStopping`].
fn stopping_cut_off(params: ApproximationParams) -> Result<u64, CoreError> {
    params.validate()?;
    match params.mode {
        EstimatorMode::OptimalStopping { max_samples } => Ok(max_samples),
        other => Err(CoreError::InvalidParameters {
            message: format!(
                "the stopping rule requires EstimatorMode::OptimalStopping (got {other:?}); \
                 use `estimate_batch` for the fixed-sample modes"
            ),
        }),
    }
}

/// The per-entry success targets of a stopping-rule run over a bank of
/// `bank_size`, and the per-entry failure probability they are for:
/// relative error `ε` with failure probability `δ / bank_size`, so a union
/// bound over the bank restores the overall `(ε, δ)` guarantee.
fn stopping_targets(params: ApproximationParams, bank_size: usize) -> (Vec<u64>, f64) {
    let delta = params.delta / bank_size.max(1) as f64;
    let target = StoppingRuleEstimator::new(params.epsilon, delta).success_target();
    (vec![target; bank_size], delta)
}

/// The public [`EstimateOutcome`] of a fixed-sample run: every entry
/// shares the run's sample count and status, with its achieved
/// `(ε′, δ)` bound at its observed counts.
fn fixed_outcome(outcome: &BatchOutcome, status: BudgetStatus, delta: f64) -> EstimateOutcome {
    let queries = outcome
        .successes
        .iter()
        .zip(outcome.estimates())
        .map(|(&successes, estimate)| QueryOutcome {
            estimate,
            samples: outcome.samples,
            successes,
            status,
            achieved: AchievedBound::at(outcome.samples, successes, delta),
        })
        .collect();
    EstimateOutcome {
        queries,
        total_draws: outcome.samples,
    }
}

/// Converts a budgeted stopping-batch outcome into the public
/// [`EstimateOutcome`], attaching each query's achieved `(ε′, δ/k)`
/// bound at its observed counts.
fn outcome_from(budgeted: BudgetedStoppingOutcome, per_query_delta: f64) -> EstimateOutcome {
    let queries = budgeted
        .outcomes
        .iter()
        .zip(&budgeted.statuses)
        .map(|(o, &status)| QueryOutcome {
            estimate: o.estimate,
            samples: o.samples,
            successes: o.successes,
            status,
            achieved: AchievedBound::at(o.samples, o.successes, per_query_delta),
        })
        .collect();
    EstimateOutcome {
        queries,
        total_draws: budgeted.total_samples,
    }
}

/// Reconstructs the resumable montecarlo-layer outcome from a prior
/// public [`EstimateOutcome`].
fn budgeted_from(prior: &EstimateOutcome) -> BudgetedStoppingOutcome {
    BudgetedStoppingOutcome {
        outcomes: prior
            .queries
            .iter()
            .map(|q| StoppingRuleOutcome {
                estimate: q.estimate,
                samples: q.samples,
                successes: q.successes,
                truncated: !q.status.is_converged(),
            })
            .collect(),
        statuses: prior.queries.iter().map(|q| q.status).collect(),
        total_samples: prior.total_draws,
    }
}

/// The [`Estimate`] view of one entry's outcome: truncated iff it did not
/// converge.
fn estimate_of(outcome: &QueryOutcome) -> Estimate {
    Estimate {
        value: outcome.estimate,
        samples: outcome.samples,
        successes: outcome.successes,
        truncated: !outcome.status.is_converged(),
    }
}

fn estimates_of(outcome: &EstimateOutcome) -> Vec<Estimate> {
    outcome.queries.iter().map(estimate_of).collect()
}

/// One query of a batched estimation run: an evaluator plus its candidate
/// answer tuple.
#[derive(Debug, Clone, Copy)]
pub struct BatchQuery<'q> {
    /// The (slot-compiled) query evaluator.
    pub evaluator: &'q QueryEvaluator,
    /// The candidate answer tuple (empty for Boolean queries).
    pub candidate: &'q [Value],
}

impl<'q> BatchQuery<'q> {
    /// Creates a batch query.
    pub fn new(evaluator: &'q QueryEvaluator, candidate: &'q [Value]) -> Self {
        BatchQuery {
            evaluator,
            candidate,
        }
    }
}

/// A batched multi-query FPRAS driver: one sampler loop, `k` estimates.
///
/// Estimating `k` queries over the same database with `k` independent
/// [`OcqaEstimator::estimate`] calls runs `k` walk/sampler loops even
/// though a single draw of an operational repair can answer *all* queries
/// at once (the per-draw check is membership of the sampled repair in each
/// query's lineage).  [`BatchEstimator`] compiles the whole query bank
/// into a shared [`LineageBank`] — witness enumeration factored through a
/// shared scan trie over the per-query join plans, witnesses deduplicated
/// into one arena, per-query masks — and drives **one** sampling loop;
/// each sampled repair updates every per-query hit counter in a single
/// word-level pass.  A single-query [`OcqaEstimator`] run is the same
/// loop over a bank of one.
///
/// **Bit-identity guarantee.**  The RNG is consumed by the shared draw
/// only, never by the per-query checks, so under a fixed seed
/// [`BatchEstimator::estimate_batch`] returns, for every query, exactly
/// the `Estimate` that a fresh single-query
/// [`OcqaEstimator::estimate`] run would return from the same RNG state
/// (under the stopping rule, with the bank's per-query `δ/k`) — and
/// [`BatchEstimator::estimate_batch_parallel`] in a fixed mode is
/// bit-identical to `k` independent
/// [`OcqaEstimator::estimate_parallel`] runs under the same master seed,
/// regardless of thread count.
///
/// Every mode but [`EstimatorMode::FixedFromLowerBound`] is supported (it
/// would derive a different fixed count per query, defeating the shared
/// loop).  The fixed-sample-count modes
/// ([`EstimatorMode::FixedSamples`] and [`EstimatorMode::FixedAdditive`])
/// share one loop of a fixed length.  The adaptive
/// [`EstimatorMode::OptimalStopping`] runs the batched stopping rule: each
/// query tracks its own Dagum–Karp–Luby–Ross success target `Υ(ε, δ/k)`
/// over the shared repair stream and **retires** as it converges,
/// shrinking the per-draw work until the last query stops the stream —
/// sequentially ([`BatchEstimator::estimate_batch_with_budget`], which an
/// interrupted run [resumes](BatchEstimator::estimate_stopping_batch_resume)
/// from), or in rayon-sharded rounds
/// ([`BatchEstimator::estimate_stopping_batch_rounds_with_budget`]).  The
/// entry points without a budget run under [`RunBudget::unlimited`].
pub struct BatchEstimator<'a> {
    inner: OcqaEstimator<'a>,
}

impl<'a> BatchEstimator<'a> {
    /// Creates a batched estimator for the given uniform generator, with
    /// the same constraint-class validation as [`OcqaEstimator::new`].
    pub fn new(db: &'a Database, sigma: &'a FdSet, spec: GeneratorSpec) -> Result<Self, CoreError> {
        Ok(BatchEstimator {
            inner: OcqaEstimator::new(db, sigma, spec)?,
        })
    }

    /// As [`BatchEstimator::new`], reusing a caller-maintained
    /// [`ConflictIndex`] for the uniform-operations walk (see
    /// [`OcqaEstimator::with_conflict_index`] for the errors, the
    /// staleness panics, and the bit-identity guarantee).
    pub fn with_conflict_index(
        db: &'a Database,
        sigma: &'a FdSet,
        spec: GeneratorSpec,
        index: impl Into<Arc<ConflictIndex>>,
    ) -> Result<Self, CoreError> {
        Ok(BatchEstimator {
            inner: OcqaEstimator::with_conflict_index(db, sigma, spec, index)?,
        })
    }

    /// The generator this estimator approximates.
    pub fn spec(&self) -> GeneratorSpec {
        self.inner.spec()
    }

    /// The underlying single-query estimator (sharing the sampler and its
    /// precomputed conflict index).
    pub fn estimator(&self) -> &OcqaEstimator<'a> {
        &self.inner
    }

    /// [`BatchEstimator::estimate_batch_with_budget`] under
    /// [`RunBudget::unlimited`].
    pub fn estimate_batch<R: Rng + ?Sized>(
        &self,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        rng: &mut R,
    ) -> Result<Vec<Estimate>, CoreError> {
        let unlimited = RunBudget::unlimited();
        let outcome = self.estimate_batch_with_budget(queries, params, &unlimited, rng)?;
        Ok(estimates_of(&outcome))
    }

    /// As [`BatchEstimator::estimate_batch`] (fixed-sample modes only),
    /// driving a bank compiled earlier with
    /// [`BatchEstimator::compile_bank`] — the compile-once / estimate-many
    /// pattern, which also lets a caller time compilation and estimation
    /// separately.
    ///
    /// # Errors
    /// [`CoreError::InvalidParameters`] if `bank` was not compiled from
    /// `queries` (see [`LineageBank::compiled_from`]) or is stale with respect to the
    /// estimator's database, besides the parameter errors of
    /// [`BatchEstimator::estimate_batch`].
    pub fn estimate_batch_with_bank<R: Rng + ?Sized>(
        &self,
        bank: &LineageBank,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        rng: &mut R,
    ) -> Result<Vec<Estimate>, CoreError> {
        self.check_bank(bank, queries)?;
        params.validate()?;
        let samples = self.inner.fixed_sample_count(None, params)?;
        let unlimited = RunBudget::unlimited();
        let outcome = self
            .inner
            .run_fixed(bank, queries, samples, params.delta, &unlimited, rng);
        Ok(estimates_of(&outcome))
    }

    /// [`BatchEstimator::estimate_batch`], requiring
    /// [`EstimatorMode::OptimalStopping`].
    pub fn estimate_stopping_batch<R: Rng + ?Sized>(
        &self,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        rng: &mut R,
    ) -> Result<Vec<Estimate>, CoreError> {
        stopping_cut_off(params)?;
        self.estimate_batch(queries, params, rng)
    }

    /// Estimates `P_{M_Σ,Qᵢ}(D, c̄ᵢ)` for every query of the bank from one
    /// shared sequence of sampled repairs, under a [`RunBudget`].
    ///
    /// Compiles the [`LineageBank`] (validating every candidate arity)
    /// before any sampling happens, under the budget's compile-step cap
    /// ([`BatchEstimator::compile_bank`]); queries whose witness
    /// enumeration overflows the cap fall back to the backtracking
    /// evaluator per draw while the rest stay on the word-level bitset
    /// path.
    ///
    /// The fixed modes share one loop that the budget can cut at any
    /// draw, in which case every query reports the same truncated sample
    /// count together with its achieved `(ε′, δ)` bound.
    ///
    /// [`EstimatorMode::OptimalStopping`] runs the batched stopping rule
    /// from one shared repair stream: query `i` tracks its own success
    /// target `Υ(ε, δ/k)` and **retires** the moment it is reached — its
    /// witnesses drop out of the shared per-draw containment scan
    /// ([`BankLiveSet`]), so the per-draw cost shrinks as the bank drains
    /// — and the stream stops when the last query retires or
    /// `max_samples` truncates it.  A compiled entry with no witness has
    /// probability exactly 0 and retires before the first draw, with
    /// estimate 0, zero samples and status `Converged`; any other
    /// zero-probability query truncates at the cut-off without stalling
    /// the retirement of the others.  With `δ/k` per query, a union bound
    /// gives: with probability at least `1 − δ`, **every** converged
    /// estimate is within relative error `ε` of its true probability.
    /// Each outcome is bit-identical to a single-query run with the same
    /// target from the same RNG state, since query `i` retires after
    /// observing exactly the stream prefix that run would draw.
    ///
    /// When the budget interrupts the stream, queries that already retired
    /// **keep their converged values**; queries still live report the
    /// empirical mean over the truncated stream, flagged
    /// [`BudgetExhausted`](crate::budget::BudgetStatus::BudgetExhausted) or
    /// [`Cancelled`](crate::budget::BudgetStatus::Cancelled), each with
    /// the achieved `(ε′, δ/k)` bound at its observed counts.  An
    /// interrupted outcome can be continued with
    /// [`BatchEstimator::estimate_stopping_batch_resume`].
    pub fn estimate_batch_with_budget<R: Rng + ?Sized>(
        &self,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        budget: &RunBudget,
        rng: &mut R,
    ) -> Result<EstimateOutcome, CoreError> {
        params.validate()?;
        let samples = match params.mode {
            EstimatorMode::OptimalStopping { .. } => None,
            _ => Some(self.inner.fixed_sample_count(None, params)?),
        };
        let bank = self.compile_bank(queries, budget)?;
        self.inner.run(&bank, queries, params, samples, budget, rng)
    }

    /// Continues an interrupted stopping-rule run of
    /// [`BatchEstimator::estimate_batch_with_budget`] over `bank`, a bank
    /// compiled (or [refreshed](LineageBank::refresh)) from `queries` —
    /// also the **enrollment** path of the sliding-window estimator
    /// (`crate::stream`).
    ///
    /// `prior` must be the outcome of a stopping-rule run over the **same
    /// queries and parameters**, and `rng` must be the same generator,
    /// positioned where the interrupted run left it (the budget machinery
    /// consumes no randomness, so an interruption at draw `t` leaves the
    /// RNG after exactly `t` draws).  Converged entries of `prior` are
    /// returned **verbatim** (bit-identical, zero draws); only the others
    /// are live, and they pick their success counts back up, so the
    /// concatenated run is **bit-identical** to one uninterrupted run
    /// (property-tested).  Draw counts are absolute across resumption:
    /// `max_samples`, a draw cap and a
    /// [`tripped_at_draw`](crate::budget::CancelToken::tripped_at_draw)
    /// token all refer to the total stream length.
    ///
    /// `prior` is also the seeding hook for a *fresh* stream over a
    /// refreshed bank: hand in a baseline outcome whose entries carry
    /// zero counts and a non-converged status for everything that should
    /// (re-)enter the loop, and converged outcomes carried over verbatim
    /// for everything that should not.
    ///
    /// # Errors
    /// [`CoreError::InvalidParameters`] if `bank` was not compiled from
    /// `queries` (see [`LineageBank::compiled_from`]), if `prior` is for a batch of
    /// another size, or if `bank` is stale with respect to the
    /// estimator's database; or if `params` is not in
    /// [`EstimatorMode::OptimalStopping`].
    pub fn estimate_stopping_batch_resume<R: Rng + ?Sized>(
        &self,
        bank: &LineageBank,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        budget: &RunBudget,
        prior: &EstimateOutcome,
        rng: &mut R,
    ) -> Result<EstimateOutcome, CoreError> {
        self.check_bank(bank, queries)?;
        if prior.queries.len() != queries.len() {
            return Err(CoreError::InvalidParameters {
                message: format!(
                    "prior outcome is for a different batch ({} entries for {} queries)",
                    prior.queries.len(),
                    queries.len()
                ),
            });
        }
        self.inner
            .run_stopping(bank, queries, params, budget, Some(prior), rng)
    }

    /// The stopping rule of [`BatchEstimator::estimate_batch_with_budget`]
    /// in rayon-sharded rounds of [`DEFAULT_ROUND_SAMPLES`] shared repairs
    /// (deterministic per-shard RNG streams), retiring converged queries
    /// at each round boundary and rebuilding the compacted live bank view
    /// for the next round.
    ///
    /// **Where bit-identity ends.**  Retirement is round-granular: a query
    /// crossing its success target mid-round keeps observing draws to the
    /// boundary and reports the empirical mean over at least `Υ(ε, δ/k)`
    /// successes, so its outcome differs from the sequential loop's
    /// `Υ/N` — the round-based variant matches the sequential one in
    /// *guarantee*, not bit-for-bit.  It **is** bit-identical across
    /// thread counts for a fixed `master_seed` (deterministic shard seeds,
    /// integer success sums, round-boundary retirement).  The `(ε, δ)`
    /// accuracy bound is validated against the exact solver in the
    /// test-suite.
    ///
    /// The budget is polled once per **round boundary** (consuming no
    /// randomness): cancellation here is round-granular, and the outcome
    /// stays bit-identical across thread counts whenever the budget
    /// decisions are deterministic (draw caps and pre-tripped tokens are;
    /// wall-clock deadlines are not).  Resumption is not offered on this
    /// path — mid-round work cannot be replayed draw-by-draw; use the
    /// sequential path when resumable interruption matters more than
    /// sharding.
    ///
    /// Only available with the `parallel` feature (rayon).
    #[cfg(feature = "parallel")]
    pub fn estimate_stopping_batch_rounds_with_budget(
        &self,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        master_seed: u64,
        budget: &RunBudget,
    ) -> Result<EstimateOutcome, CoreError> {
        stopping_cut_off(params)?;
        let bank = self.compile_bank(queries, budget)?;
        self.inner
            .run_rounds(&bank, queries, params, master_seed, budget)
    }

    /// As [`BatchEstimator::estimate_batch`], with the shared samples
    /// sharded across rayon worker threads exactly like
    /// [`OcqaEstimator::estimate_parallel`]: same shard boundaries, same
    /// per-shard RNG streams, integer success sums — so the result is
    /// bit-identical for a fixed master seed regardless of thread count,
    /// and bit-identical to `k` independent `estimate_parallel` runs.
    ///
    /// [`EstimatorMode::OptimalStopping`] runs the round-based
    /// [`BatchEstimator::estimate_stopping_batch_rounds_with_budget`] under
    /// [`RunBudget::unlimited`].
    #[cfg(feature = "parallel")]
    pub fn estimate_batch_parallel(
        &self,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        master_seed: u64,
    ) -> Result<Vec<Estimate>, CoreError> {
        let unlimited = RunBudget::unlimited();
        let outcome = if matches!(params.mode, EstimatorMode::OptimalStopping { .. }) {
            self.estimate_stopping_batch_rounds_with_budget(
                queries,
                params,
                master_seed,
                &unlimited,
            )?
        } else {
            params.validate()?;
            let samples = self.inner.fixed_sample_count(None, params)?;
            let bank = self.compile_bank(queries, &unlimited)?;
            self.inner
                .run_fixed_parallel(&bank, queries, samples, params.delta, master_seed)
        };
        Ok(estimates_of(&outcome))
    }

    /// Compiles the bank's shared lineage ([`LineageBank::compile`]:
    /// grounded plan-ordered atom sequences factored into one scan trie,
    /// witnesses deduplicated into one arena), validating every candidate
    /// arity, under the compile-time part of `budget`
    /// ([`RunBudget::with_max_compile_steps`] and the cancel token).  All
    /// `estimate_*` paths call this internally; exposing it lets callers
    /// compile once and estimate many times
    /// ([`BatchEstimator::estimate_batch_with_bank`],
    /// [`BatchEstimator::estimate_stopping_batch_resume`]).
    ///
    /// An interrupted enumeration degrades the **whole bank** to evaluator
    /// fallback — a partial witness set would under-report entailment — so
    /// estimation proceeds correctly, just without the word-level bitset
    /// fast path.  Under [`RunBudget::unlimited`] the bank is exactly
    /// [`LineageBank::compile`]'s.
    pub fn compile_bank(
        &self,
        queries: &[BatchQuery<'_>],
        budget: &RunBudget,
    ) -> Result<LineageBank, CoreError> {
        self.inner.compile(queries, budget)
    }

    /// Checks that `bank` can drive `queries` on the estimator's
    /// database: compiled from `queries` (see
    /// [`LineageBank::compiled_from`]), and current with the database's
    /// changelog version (a delete-only delta leaves the universe as it
    /// was, so only the version tells).
    fn check_bank(&self, bank: &LineageBank, queries: &[BatchQuery<'_>]) -> Result<(), CoreError> {
        if !bank.compiled_from(queries.iter().map(|q| (q.evaluator, q.candidate))) {
            return Err(CoreError::InvalidParameters {
                message: format!(
                    "bank was compiled from a different query list ({} entries for {} queries)",
                    bank.len(),
                    queries.len()
                ),
            });
        }
        if bank.version() != self.inner.db.version() {
            return Err(CoreError::InvalidParameters {
                message: "bank is stale: refresh it against the database before estimating"
                    .to_string(),
            });
        }
        Ok(())
    }
}

/// Default number of shared repairs drawn per round by the round-based
/// stopping rule ([`BatchEstimator::estimate_stopping_batch_rounds_with_budget`]):
/// a few shards' worth, so rounds parallelise while retirement stays
/// reasonably fine-grained.
#[cfg(feature = "parallel")]
pub const DEFAULT_ROUND_SAMPLES: u64 = 4 * DEFAULT_SHARD_SIZE;

/// The one fully compiled Bernoulli experiment of both estimators: draw a
/// repair, then decide every **live** entry of the bank against it
/// (fallback entries route through the backtracking evaluator).  The
/// stopping loops retire entries as they converge, which drops the
/// witnesses only they referenced out of the shared check
/// ([`BankLiveSet`]); the fixed loops keep every entry live and count its
/// hits.
///
/// A draw takes one of two forms, chosen by the generator and built on
/// the pass's first draw, so a pass that draws nothing (every entry
/// reused or settled) builds neither:
/// - **Buffered** (`M^ur`, `M^us`, `M^uo`): a [`RepairBuffer`], which is
///   universe-sized, and one word-level containment pass
///   ([`LineageBank::evaluate_live_into`]) over it.  The buffer's
///   [`Cover`] follows the live entries: a retirement drops it, and the
///   next draw derives it again from the entries still live.  So a pass
///   draws whole repairs only while a fallback entry is live, and once the
///   last one retires it decides only what the remaining entries'
///   witnesses read.
/// - **Pulled** (`M^{uo,1}`): no repair at all.  One [`PulledCheck`] per
///   pass decides each witness fact only when a witness reaches it, and
///   answers the fallback evaluator fact by fact.
///
/// Between retirements, neither form's draw nor its check of the
/// compiled entries performs a heap allocation once the buffers reach
/// steady-state capacity.  The backtracking evaluator does, on every
/// call: it is run for each live fallback entry, and in debug builds for
/// every live entry as a cross-check of the compiled one.
struct BankExperiment<'e, 'a> {
    estimator: &'e OcqaEstimator<'a>,
    bank: &'e LineageBank,
    queries: &'e [BatchQuery<'e>],
    live: BankLiveSet,
    /// The draw state; `None` until the first draw.
    draw: Option<DrawState<'e, 'a>>,
    /// The per-entry hits of [`BankExperiment::count`]'s draws.
    hits: Vec<bool>,
}

/// The draw state of a [`BankExperiment`]: a repair buffer, or, under
/// `M^{uo,1}`, the pulled check.
enum DrawState<'e, 'a> {
    Buffered(RepairBuffer),
    Pulled(PulledCheck<'e, 'a>),
}

impl<'e, 'a> DrawState<'e, 'a> {
    /// The draw state of a pass of `estimator` over the live entries of
    /// `live`.  Built once per pass, and kept out of line so that the
    /// per-draw path stays small enough to inline.
    #[inline(never)]
    fn new(estimator: &'e OcqaEstimator<'a>, bank: &LineageBank, live: &BankLiveSet) -> Self {
        match &estimator.sampler {
            SamplerKind::Operations(walker) if estimator.spec.singleton_only => {
                DrawState::Pulled(PulledCheck::new(walker, bank, live))
            }
            _ => DrawState::Buffered(RepairBuffer::new(estimator)),
        }
    }
}

impl<'e, 'a> BankExperiment<'e, 'a> {
    fn new(
        estimator: &'e OcqaEstimator<'a>,
        bank: &'e LineageBank,
        queries: &'e [BatchQuery<'e>],
        live: BankLiveSet,
    ) -> Self {
        BankExperiment {
            estimator,
            bank,
            queries,
            live,
            draw: None,
            hits: vec![false; queries.len()],
        }
    }

    /// Draws one shared repair and writes `hits[q]` for every live query.
    fn draw_live<R: Rng + ?Sized>(&mut self, rng: &mut R, hits: &mut [bool]) {
        let (estimator, bank, live) = (self.estimator, self.bank, &self.live);
        let draw = self
            .draw
            .get_or_insert_with(|| DrawState::new(estimator, bank, live));
        match draw {
            DrawState::Buffered(buffer) => {
                buffer.draw(estimator, bank, live, rng, hits);
                decide_with_evaluator(estimator.db, self.queries, bank, live, &buffer.repair, hits);
            }
            DrawState::Pulled(check) => {
                check.draw(rng);
                for &q in live.live_queries() {
                    hits[q] = !bank.is_fallback(q) && check.entry_hit(q);
                }
                decide_with_evaluator(estimator.db, self.queries, bank, live, check, hits);
            }
        }
    }

    /// Draws one shared repair and adds one to `successes[q]` for every
    /// live query `q` it entails.
    fn count<R: Rng + ?Sized>(&mut self, rng: &mut R, successes: &mut [u64]) {
        let mut hits = std::mem::take(&mut self.hits);
        self.draw_live(rng, &mut hits);
        for &q in self.live.live_queries() {
            successes[q] += u64::from(hits[q]);
        }
        self.hits = hits;
    }
}

/// Writes `hits[q]` for every live fallback entry of `live` from the
/// backtracking evaluator on `repair`, and, in debug builds, checks every
/// live compiled entry's hit against it.
fn decide_with_evaluator<M: Membership + ?Sized>(
    db: &Database,
    queries: &[BatchQuery<'_>],
    bank: &LineageBank,
    live: &BankLiveSet,
    repair: &M,
    hits: &mut [bool],
) {
    for &q in live.live_queries() {
        let query = &queries[q];
        let entailed = || {
            query
                .evaluator
                .has_answer(db, repair, query.candidate)
                .expect("candidate arity was validated during bank compilation")
        };
        if bank.is_fallback(q) {
            hits[q] = entailed();
        } else {
            debug_assert_eq!(
                hits[q],
                entailed(),
                "lineage bank disagrees with the backtracking evaluator on query {q}"
            );
        }
    }
}

impl<R: Rng + ?Sized> StoppingBatchExperiment<R> for BankExperiment<'_, '_> {
    fn draw(&mut self, rng: &mut R, hits: &mut [bool]) {
        self.draw_live(rng, hits);
    }

    fn retire(&mut self, query: usize) {
        self.live.retire(self.bank, query);
        if let Some(DrawState::Buffered(buffer)) = &mut self.draw {
            buffer.cover = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{BudgetStatus, CancelToken};
    use crate::exact::ExactSolver;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ucqa_db::{FactId, FunctionalDependency, Schema};
    use ucqa_query::parser::parse_query;
    use ucqa_query::CompileBudget;

    fn figure2() -> (Database, FdSet) {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A1", "A2"]).unwrap();
        let mut db = Database::with_schema(schema);
        for (a, b) in [
            ("a1", "b1"),
            ("a1", "b2"),
            ("a1", "b3"),
            ("a2", "b1"),
            ("a3", "b1"),
            ("a3", "b2"),
        ] {
            db.insert_values("R", [Value::str(a), Value::str(b)])
                .unwrap();
        }
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A1"], &["A2"]).unwrap());
        (db, sigma)
    }

    /// A two-key database (arbitrary keys, not primary keys).
    fn two_key_database() -> (Database, FdSet) {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        let mut db = Database::with_schema(schema);
        for (a, b) in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)] {
            db.insert_values("R", [Value::int(a), Value::int(b)])
                .unwrap();
        }
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["B"], &["A"]).unwrap());
        (db, sigma)
    }

    fn all_specs() -> Vec<GeneratorSpec> {
        vec![
            GeneratorSpec::uniform_repairs(),
            GeneratorSpec::uniform_repairs().with_singleton_only(),
            GeneratorSpec::uniform_sequences(),
            GeneratorSpec::uniform_sequences().with_singleton_only(),
            GeneratorSpec::uniform_operations(),
            GeneratorSpec::uniform_operations().with_singleton_only(),
        ]
    }

    #[test]
    fn estimates_match_exact_probabilities_on_primary_keys() {
        let (db, sigma) = figure2();
        let q = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let candidate = [Value::str("b1")];
        let solver = ExactSolver::new(&db, &sigma);
        let params = ApproximationParams::new(0.05, 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(2024);
        for spec in all_specs() {
            let exact = solver
                .answer_probability(spec, &evaluator, &candidate)
                .unwrap()
                .to_f64();
            let estimator = OcqaEstimator::new(&db, &sigma, spec).unwrap();
            let estimate = estimator
                .estimate(&evaluator, &candidate, params, &mut rng)
                .unwrap();
            assert!(!estimate.truncated, "spec {}", spec.short_name());
            let relative_error = (estimate.value - exact).abs() / exact;
            assert!(
                relative_error < 0.1,
                "spec {}: exact {exact}, estimate {} (relative error {relative_error})",
                spec.short_name(),
                estimate.value
            );
        }
    }

    #[test]
    fn uniform_operations_supports_arbitrary_keys() {
        let (db, sigma) = two_key_database();
        assert!(!sigma.is_primary_keys(db.schema()));
        let q = parse_query(db.schema(), "Ans() :- R(3, 3)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let solver = ExactSolver::new(&db, &sigma);
        let exact = solver
            .answer_probability(GeneratorSpec::uniform_operations(), &evaluator, &[])
            .unwrap()
            .to_f64();
        let estimator =
            OcqaEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).unwrap();
        let params = ApproximationParams::new(0.05, 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let estimate = estimator
            .estimate(&evaluator, &[], params, &mut rng)
            .unwrap();
        let relative_error = (estimate.value - exact).abs() / exact;
        assert!(
            relative_error < 0.1,
            "exact {exact}, got {}",
            estimate.value
        );
    }

    #[test]
    fn unsupported_combinations_are_rejected_with_theorem_citations() {
        let (db, sigma) = two_key_database();
        // Uniform repairs / sequences over non-primary keys: rejected.
        for spec in [
            GeneratorSpec::uniform_repairs(),
            GeneratorSpec::uniform_sequences(),
            GeneratorSpec::uniform_repairs().with_singleton_only(),
            GeneratorSpec::uniform_sequences().with_singleton_only(),
        ] {
            match OcqaEstimator::new(&db, &sigma, spec) {
                Err(CoreError::Unsupported { .. }) => {}
                Err(other) => panic!("{spec:?}: unexpected error {other}"),
                Ok(_) => panic!("{spec:?}: expected an Unsupported error"),
            }
        }
        // Uniform operations with pair removals over non-key FDs: rejected,
        // but the singleton variant is supported (Theorem 7.5).
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B", "C"]).unwrap();
        let mut db = Database::with_schema(schema);
        db.insert_values("R", [Value::int(0), Value::int(0), Value::int(0)])
            .unwrap();
        db.insert_values("R", [Value::int(0), Value::int(1), Value::int(1)])
            .unwrap();
        let mut fds = FdSet::new();
        fds.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
        assert!(matches!(
            OcqaEstimator::new(&db, &fds, GeneratorSpec::uniform_operations()),
            Err(CoreError::Unsupported { .. })
        ));
        assert!(OcqaEstimator::new(
            &db,
            &fds,
            GeneratorSpec::uniform_operations().with_singleton_only()
        )
        .is_ok());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(ApproximationParams::new(0.0, 0.1).is_err());
        assert!(ApproximationParams::new(0.1, 1.5).is_err());
        let (db, sigma) = figure2();
        let estimator = OcqaEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
        let q = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        // Wrong candidate arity surfaces as a query error.
        let params = ApproximationParams::new(0.1, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            estimator.estimate(
                &evaluator,
                &[Value::int(1), Value::int(2)],
                params,
                &mut rng
            ),
            Err(CoreError::Query(_))
        ));
    }

    #[test]
    fn fixed_modes_work_and_report_sample_counts() {
        let (db, sigma) = figure2();
        let q = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let candidate = [Value::str("b1")];
        let estimator = OcqaEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);

        let additive = ApproximationParams::new(0.05, 0.05)
            .unwrap()
            .with_mode(EstimatorMode::FixedAdditive);
        let estimate = estimator
            .estimate(&evaluator, &candidate, additive, &mut rng)
            .unwrap();
        assert!((estimate.value - 0.25).abs() < 0.05);

        let explicit = ApproximationParams::new(0.05, 0.05)
            .unwrap()
            .with_mode(EstimatorMode::FixedSamples(500));
        let estimate = estimator
            .estimate(&evaluator, &candidate, explicit, &mut rng)
            .unwrap();
        assert_eq!(estimate.samples, 500);

        let from_bound = ApproximationParams::new(0.3, 0.2)
            .unwrap()
            .with_mode(EstimatorMode::FixedFromLowerBound);
        let estimate = estimator
            .estimate(&evaluator, &candidate, from_bound, &mut rng)
            .unwrap();
        assert!((estimate.value - 0.25).abs() < 0.25 * 0.3 + 0.02);
    }

    #[test]
    fn batched_estimates_are_bit_identical_to_single_query_runs() {
        let (db, sigma) = figure2();
        let lookup = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let lookup = QueryEvaluator::new(lookup);
        let member = parse_query(db.schema(), "Ans() :- R('a3', 'b1')").unwrap();
        let member = QueryEvaluator::new(member);
        let never = parse_query(db.schema(), "Ans() :- R('zz', 'zz')").unwrap();
        let never = QueryEvaluator::new(never);
        let b1 = [Value::str("b1")];
        let queries = [
            BatchQuery::new(&lookup, &b1),
            BatchQuery::new(&member, &[]),
            BatchQuery::new(&never, &[]),
        ];
        let params = ApproximationParams::new(0.1, 0.1)
            .unwrap()
            .with_mode(EstimatorMode::FixedSamples(2_000));
        for spec in all_specs() {
            let batch = BatchEstimator::new(&db, &sigma, spec).unwrap();
            let batched = batch.estimate_batch(&queries, params, &mut StdRng::seed_from_u64(99));
            let batched = batched.unwrap();
            assert_eq!(batched.len(), queries.len());
            for (i, query) in queries.iter().enumerate() {
                let single = batch
                    .estimator()
                    .estimate(
                        query.evaluator,
                        query.candidate,
                        params,
                        &mut StdRng::seed_from_u64(99),
                    )
                    .unwrap();
                assert_eq!(batched[i], single, "spec {}, query {i}", spec.short_name());
            }
            // The impossible query is estimated at exactly zero.
            assert_eq!(batched[2].successes, 0, "spec {}", spec.short_name());
        }
    }

    #[test]
    fn batched_stopping_is_bit_identical_to_per_query_stopping_runs() {
        // The sequential adaptive batch draws one shared repair stream;
        // query i's outcome must equal a standalone stopping-rule run
        // with the same per-query target Υ(ε, δ/k) from the same seed —
        // the per-query checks consume no randomness, so each query
        // observes exactly the stream prefix its standalone run would
        // draw.
        let (db, sigma) = figure2();
        let lookup = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let lookup = QueryEvaluator::new(lookup);
        let member = parse_query(db.schema(), "Ans() :- R('a3', 'b1')").unwrap();
        let member = QueryEvaluator::new(member);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let params = ApproximationParams::new(0.25, 0.2).unwrap().with_mode(
            EstimatorMode::OptimalStopping {
                max_samples: 200_000,
            },
        );
        for spec in all_specs() {
            let batch = BatchEstimator::new(&db, &sigma, spec).unwrap();
            // `estimate_batch` routes OptimalStopping to the batched
            // stopping rule.
            let via_batch = batch
                .estimate_batch(&queries, params, &mut StdRng::seed_from_u64(17))
                .unwrap();
            let direct = batch
                .estimate_stopping_batch(&queries, params, &mut StdRng::seed_from_u64(17))
                .unwrap();
            assert_eq!(via_batch, direct, "spec {}", spec.short_name());
            // Per-query: a single-query run (a bank of one) with target
            // Υ(ε, δ/2).
            let single_params = ApproximationParams::new(0.25, 0.2 / queries.len() as f64)
                .unwrap()
                .with_mode(EstimatorMode::OptimalStopping {
                    max_samples: 200_000,
                });
            let estimator = OcqaEstimator::new(&db, &sigma, spec).unwrap();
            for (i, query) in queries.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(17);
                let standalone = estimator
                    .estimate(query.evaluator, query.candidate, single_params, &mut rng)
                    .unwrap();
                assert!(!standalone.truncated);
                assert_eq!(
                    direct[i],
                    standalone,
                    "spec {}, query {i}",
                    spec.short_name()
                );
            }
        }
    }

    #[test]
    fn batched_stopping_truncates_impossible_queries_without_stalling_others() {
        let (db, sigma) = figure2();
        let lookup = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let lookup = QueryEvaluator::new(lookup);
        let never = parse_query(db.schema(), "Ans() :- R('zz', 'zz')").unwrap();
        let never = QueryEvaluator::new(never);
        // One witness, but its two facts share the key 'a1': no repair
        // keeps both, so the probability is 0 without being decided by
        // the witness count.
        let clash = parse_query(db.schema(), "Ans() :- R('a1', 'b1'), R('a1', 'b2')").unwrap();
        let clash = QueryEvaluator::new(clash);
        let b1 = [Value::str("b1")];
        let queries = [
            BatchQuery::new(&lookup, &b1),
            BatchQuery::new(&never, &[]),
            BatchQuery::new(&clash, &[]),
        ];
        let params = ApproximationParams::new(0.2, 0.1)
            .unwrap()
            .with_mode(EstimatorMode::OptimalStopping { max_samples: 5_000 });
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).unwrap();
        let estimates = batch
            .estimate_stopping_batch(&queries, params, &mut StdRng::seed_from_u64(8))
            .unwrap();
        assert!(!estimates[0].truncated);
        assert!(
            estimates[0].samples < 5_000,
            "the feasible query retires before the cut-off"
        );
        assert!((estimates[0].value - 0.25).abs() < 0.25 * 0.3);
        // The witness-free query is exactly 0 and draws nothing.
        assert!(!estimates[1].truncated);
        assert_eq!(estimates[1].samples, 0);
        assert_eq!(estimates[1].successes, 0);
        assert_eq!(estimates[1].value, 0.0);
        // The clashing one rides the stream to the cut-off.
        assert!(estimates[2].truncated);
        assert_eq!(estimates[2].samples, 5_000);
        assert_eq!(estimates[2].successes, 0);
        assert_eq!(estimates[2].value, 0.0);
    }

    #[test]
    fn witness_free_entries_settle_at_zero_draws_and_keep_batches_bit_identical() {
        // A compiled entry with no witness is exactly 0 under every
        // generator.  It retires before the first draw on every stopping
        // path, single-query and batched alike, and the batch around it
        // stays bit-identical to per-query runs.
        let (db, sigma) = figure2();
        let lookup = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let lookup = QueryEvaluator::new(lookup);
        let never = parse_query(db.schema(), "Ans() :- R('zz', 'zz')").unwrap();
        let never = QueryEvaluator::new(never);
        let member = parse_query(db.schema(), "Ans() :- R('a3', 'b1')").unwrap();
        let member = QueryEvaluator::new(member);
        let b1 = [Value::str("b1")];
        let queries = [
            BatchQuery::new(&lookup, &b1),
            BatchQuery::new(&never, &[]),
            BatchQuery::new(&member, &[]),
        ];
        let max_samples = 200_000;
        let params = ApproximationParams::new(0.25, 0.2)
            .unwrap()
            .with_mode(EstimatorMode::OptimalStopping { max_samples });
        // The per-query runs use the batch's per-query δ/k.
        let single_params = ApproximationParams::new(0.25, 0.2 / queries.len() as f64)
            .unwrap()
            .with_mode(EstimatorMode::OptimalStopping { max_samples });
        let zero = Estimate {
            value: 0.0,
            samples: 0,
            successes: 0,
            truncated: false,
        };
        for spec in all_specs() {
            let name = spec.short_name();
            let batch = BatchEstimator::new(&db, &sigma, spec).unwrap();
            let bank = batch
                .compile_bank(&queries, &RunBudget::unlimited())
                .unwrap();
            assert_eq!(bank.query_witness_count(1), Some(0), "spec {name}");
            let direct = batch
                .estimate_stopping_batch(&queries, params, &mut StdRng::seed_from_u64(31))
                .unwrap();
            assert_eq!(direct[1], zero, "spec {name}");
            assert!(direct.iter().all(|e| !e.truncated), "spec {name}");
            for (i, query) in queries.iter().enumerate() {
                let single = batch
                    .estimator()
                    .estimate(
                        query.evaluator,
                        query.candidate,
                        single_params,
                        &mut StdRng::seed_from_u64(31),
                    )
                    .unwrap();
                assert_eq!(direct[i], single, "spec {name}, query {i}");
                let budgeted = batch
                    .estimator()
                    .estimate_with_budget(
                        query.evaluator,
                        query.candidate,
                        single_params,
                        &RunBudget::unlimited(),
                        &mut StdRng::seed_from_u64(31),
                    )
                    .unwrap();
                assert_eq!(
                    (budgeted.queries[0].estimate, budgeted.total_draws),
                    (single.value, single.samples),
                    "spec {name}, query {i}"
                );
                assert!(budgeted.queries[0].status.is_converged());
            }
            let budgeted = batch
                .estimate_batch_with_budget(
                    &queries,
                    params,
                    &RunBudget::unlimited(),
                    &mut StdRng::seed_from_u64(31),
                )
                .unwrap();
            assert!(budgeted.converged(), "spec {name}");
            for (i, outcome) in budgeted.queries.iter().enumerate() {
                assert_eq!(
                    (outcome.estimate, outcome.samples, outcome.successes),
                    (direct[i].value, direct[i].samples, direct[i].successes),
                    "spec {name}, query {i}"
                );
            }
            // A bank of witness-free entries only draws nothing at all.
            let alone = batch
                .estimate_batch_with_budget(
                    &queries[1..2],
                    params,
                    &RunBudget::unlimited(),
                    &mut StdRng::seed_from_u64(31),
                )
                .unwrap();
            assert_eq!(alone.total_draws, 0, "spec {name}");
            assert!(alone.converged(), "spec {name}");
            #[cfg(feature = "parallel")]
            {
                let rounds = batch.estimate_batch_parallel(&queries, params, 23).unwrap();
                assert_eq!(rounds[1], zero, "spec {name}");
                assert!(rounds.iter().all(|e| !e.truncated), "spec {name}");
            }
        }
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn round_based_stopping_matches_guarantee_and_thread_counts() {
        let (db, sigma) = figure2();
        let solver = ExactSolver::new(&db, &sigma);
        let lookup = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let lookup = QueryEvaluator::new(lookup);
        let member = parse_query(db.schema(), "Ans() :- R('a3', 'b1')").unwrap();
        let member = QueryEvaluator::new(member);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let params = ApproximationParams::new(0.1, 0.05).unwrap().with_mode(
            EstimatorMode::OptimalStopping {
                max_samples: 10_000_000,
            },
        );
        let spec = GeneratorSpec::uniform_operations();
        let batch = BatchEstimator::new(&db, &sigma, spec).unwrap();
        // `estimate_batch_parallel` routes OptimalStopping to the
        // round-based stopping rule with the default round size.
        let baseline = batch.estimate_batch_parallel(&queries, params, 23).unwrap();
        let direct = batch
            .estimate_stopping_batch_rounds_with_budget(
                &queries,
                params,
                23,
                &RunBudget::unlimited(),
            )
            .unwrap();
        assert_eq!(baseline, estimates_of(&direct));
        for (i, query) in queries.iter().enumerate() {
            let estimate = baseline[i];
            assert!(!estimate.truncated, "query {i}");
            let exact = solver
                .answer_probability(spec, query.evaluator, query.candidate)
                .unwrap()
                .to_f64();
            let relative_error = (estimate.value - exact).abs() / exact;
            assert!(
                relative_error < 0.15,
                "query {i}: exact {exact}, estimate {} (relative error {relative_error})",
                estimate.value
            );
        }
        // Bit-identical across thread counts.
        for threads in [1usize, 2, 7] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let outcome = pool
                .install(|| batch.estimate_batch_parallel(&queries, params, 23))
                .unwrap();
            assert_eq!(outcome, baseline, "{threads} threads");
        }
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_batched_estimates_match_independent_parallel_runs() {
        let (db, sigma) = figure2();
        let lookup = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let lookup = QueryEvaluator::new(lookup);
        let member = parse_query(db.schema(), "Ans() :- R('a3', 'b1')").unwrap();
        let member = QueryEvaluator::new(member);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let params = ApproximationParams::new(0.1, 0.1)
            .unwrap()
            .with_mode(EstimatorMode::FixedSamples(10_000));
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).unwrap();
        let batched = batch.estimate_batch_parallel(&queries, params, 7).unwrap();
        for (i, query) in queries.iter().enumerate() {
            let single = batch
                .estimator()
                .estimate_parallel(query.evaluator, query.candidate, params, 7)
                .unwrap();
            assert_eq!(batched[i], single, "query {i}");
        }
    }

    #[test]
    fn consistent_database_estimates_exactly_one() {
        // A consistent database has a single repair: the database itself.
        // Every query it entails must be estimated at exactly 1.
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        let mut db = Database::with_schema(schema);
        for (a, b) in [(1, 1), (2, 2), (3, 3)] {
            db.insert_values("R", [Value::int(a), Value::int(b)])
                .unwrap();
        }
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
        assert!(sigma.satisfied_by_database(&db));
        let q1 = QueryEvaluator::new(parse_query(db.schema(), "Ans() :- R(1, 1)").unwrap());
        let q2 = QueryEvaluator::new(parse_query(db.schema(), "Ans() :- R(x, x)").unwrap());
        let queries = [BatchQuery::new(&q1, &[]), BatchQuery::new(&q2, &[])];
        let params = ApproximationParams::new(0.1, 0.1)
            .unwrap()
            .with_mode(EstimatorMode::FixedSamples(500));
        for spec in all_specs() {
            let batch = BatchEstimator::new(&db, &sigma, spec).unwrap();
            let estimates = batch
                .estimate_batch(&queries, params, &mut StdRng::seed_from_u64(3))
                .unwrap();
            for (i, estimate) in estimates.iter().enumerate() {
                assert_eq!(estimate.value, 1.0, "spec {}, query {i}", spec.short_name());
                assert_eq!(estimate.successes, 500);
            }
        }
    }

    #[test]
    fn batched_estimation_rejects_sequential_modes_and_bad_arity() {
        let (db, sigma) = figure2();
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
        let q = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&evaluator, &b1)];
        let mut rng = StdRng::seed_from_u64(0);
        // The per-query lower-bound mode cannot share one loop; the
        // adaptive stopping mode can (it routes through the batched
        // stopping rule) but requires `estimate_stopping_batch` modes to
        // match.
        let params = ApproximationParams::new(0.2, 0.2)
            .unwrap()
            .with_mode(EstimatorMode::FixedFromLowerBound);
        assert!(matches!(
            batch.estimate_batch(&queries, params, &mut rng),
            Err(CoreError::InvalidParameters { .. })
        ));
        let fixed = ApproximationParams::new(0.2, 0.2)
            .unwrap()
            .with_mode(EstimatorMode::FixedSamples(10));
        assert!(matches!(
            batch.estimate_stopping_batch(&queries, fixed, &mut rng),
            Err(CoreError::InvalidParameters { .. })
        ));
        // A wrong candidate arity anywhere in the bank aborts before
        // sampling.
        let bad = [BatchQuery::new(&evaluator, &[])];
        let params = ApproximationParams::new(0.2, 0.2)
            .unwrap()
            .with_mode(EstimatorMode::FixedSamples(10));
        assert!(matches!(
            batch.estimate_batch(&bad, params, &mut rng),
            Err(CoreError::Query(_))
        ));
        // An empty bank is a no-op, not an error.
        let empty = batch.estimate_batch(&[], params, &mut rng).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn unlimited_budget_estimates_are_bit_identical_across_all_specs() {
        // The acceptance check of the budget subsystem: with an
        // unconstrained `RunBudget`, every estimator entry point draws the
        // same sample stream and reports the same counts as the pre-budget
        // path, for every generator spec.
        let (db, sigma) = figure2();
        let q = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let candidate = [Value::str("b1")];
        let params = ApproximationParams::new(0.25, 0.2).unwrap().with_mode(
            EstimatorMode::OptimalStopping {
                max_samples: 200_000,
            },
        );
        let budget = RunBudget::unlimited();
        for spec in all_specs() {
            let estimator = OcqaEstimator::new(&db, &sigma, spec).unwrap();
            let plain = estimator
                .estimate(
                    &evaluator,
                    &candidate,
                    params,
                    &mut StdRng::seed_from_u64(11),
                )
                .unwrap();
            let budgeted = estimator
                .estimate_with_budget(
                    &evaluator,
                    &candidate,
                    params,
                    &budget,
                    &mut StdRng::seed_from_u64(11),
                )
                .unwrap();
            assert_eq!(budgeted.queries.len(), 1, "spec {}", spec.short_name());
            let outcome = &budgeted.queries[0];
            assert_eq!(outcome.estimate, plain.value, "spec {}", spec.short_name());
            assert_eq!(outcome.samples, plain.samples);
            assert_eq!(outcome.successes, plain.successes);
            assert_eq!(outcome.status, BudgetStatus::Converged);
            assert!(outcome.achieved.relative_epsilon.is_some());
        }
    }

    #[test]
    fn unlimited_budget_batch_paths_are_bit_identical_across_all_specs() {
        let (db, sigma) = figure2();
        let lookup = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let lookup = QueryEvaluator::new(lookup);
        let member = parse_query(db.schema(), "Ans() :- R('a3', 'b1')").unwrap();
        let member = QueryEvaluator::new(member);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let budget = RunBudget::unlimited();
        let stopping = ApproximationParams::new(0.25, 0.2).unwrap().with_mode(
            EstimatorMode::OptimalStopping {
                max_samples: 200_000,
            },
        );
        let fixed = ApproximationParams::new(0.1, 0.1)
            .unwrap()
            .with_mode(EstimatorMode::FixedSamples(2_000));
        for spec in all_specs() {
            let batch = BatchEstimator::new(&db, &sigma, spec).unwrap();
            for params in [stopping, fixed] {
                let plain = batch
                    .estimate_batch(&queries, params, &mut StdRng::seed_from_u64(29))
                    .unwrap();
                let budgeted = batch
                    .estimate_batch_with_budget(
                        &queries,
                        params,
                        &budget,
                        &mut StdRng::seed_from_u64(29),
                    )
                    .unwrap();
                assert_eq!(budgeted.queries.len(), plain.len());
                for (i, (b, p)) in budgeted.queries.iter().zip(&plain).enumerate() {
                    assert_eq!(
                        (b.estimate, b.samples, b.successes),
                        (p.value, p.samples, p.successes),
                        "spec {}, query {i}, mode {:?}",
                        spec.short_name(),
                        params.mode,
                    );
                    assert_eq!(b.status, BudgetStatus::Converged);
                }
            }
        }
    }

    #[test]
    fn cancelled_batch_resumes_bit_for_bit() {
        // Cancel the shared stream mid-flight, then resume with the same
        // RNG: the concatenated run must equal one uninterrupted run, for
        // several truncation points.
        let (db, sigma) = figure2();
        let lookup = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let lookup = QueryEvaluator::new(lookup);
        let member = parse_query(db.schema(), "Ans() :- R('a3', 'b1')").unwrap();
        let member = QueryEvaluator::new(member);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let params = ApproximationParams::new(0.25, 0.2).unwrap().with_mode(
            EstimatorMode::OptimalStopping {
                max_samples: 200_000,
            },
        );
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).unwrap();
        let uninterrupted = batch
            .estimate_stopping_batch(&queries, params, &mut StdRng::seed_from_u64(41))
            .unwrap();
        let bank = batch
            .compile_bank(&queries, &RunBudget::unlimited())
            .unwrap();
        for cut in [1u64, 17, 80, 500] {
            let mut rng = StdRng::seed_from_u64(41);
            let token = CancelToken::tripped_at_draw(cut);
            let budget = RunBudget::unlimited().with_cancel_token(token);
            let partial = batch
                .estimate_batch_with_budget(&queries, params, &budget, &mut rng)
                .unwrap();
            assert_eq!(partial.total_draws, cut, "cut {cut}");
            assert!(partial
                .queries
                .iter()
                .any(|q| q.status == BudgetStatus::Cancelled));
            let resumed = batch
                .estimate_stopping_batch_resume(
                    &bank,
                    &queries,
                    params,
                    &RunBudget::unlimited(),
                    &partial,
                    &mut rng,
                )
                .unwrap();
            for (i, (r, u)) in resumed.queries.iter().zip(&uninterrupted).enumerate() {
                assert_eq!(
                    (r.estimate, r.samples, r.successes),
                    (u.value, u.samples, u.successes),
                    "cut {cut}, query {i}"
                );
                assert_eq!(r.status, BudgetStatus::Converged);
            }
        }
    }

    #[test]
    fn enrollment_resume_with_a_precompiled_bank_matches_the_recompiling_resume() {
        // The enrollment path (the live set holds exactly the prior's
        // non-converged entries of a caller-held bank) continues an
        // interrupted run into exactly the uninterrupted outcome: same
        // estimates, statuses, achieved bounds and total draws, for
        // several truncation points.
        let (db, sigma) = figure2();
        let lookup = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let lookup = QueryEvaluator::new(lookup);
        let member = parse_query(db.schema(), "Ans() :- R('a3', 'b1')").unwrap();
        let member = QueryEvaluator::new(member);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let params = ApproximationParams::new(0.25, 0.2).unwrap().with_mode(
            EstimatorMode::OptimalStopping {
                max_samples: 200_000,
            },
        );
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).unwrap();
        let unlimited = RunBudget::unlimited();
        let bank = batch.compile_bank(&queries, &unlimited).unwrap();
        let uninterrupted = batch
            .estimate_batch_with_budget(
                &queries,
                params,
                &unlimited,
                &mut StdRng::seed_from_u64(41),
            )
            .unwrap();
        for cut in [1u64, 17, 80, 500] {
            let mut rng = StdRng::seed_from_u64(41);
            let budget =
                RunBudget::unlimited().with_cancel_token(CancelToken::tripped_at_draw(cut));
            let partial = batch
                .estimate_batch_with_budget(&queries, params, &budget, &mut rng)
                .unwrap();
            let enrolled = batch
                .estimate_stopping_batch_resume(
                    &bank, &queries, params, &unlimited, &partial, &mut rng,
                )
                .unwrap();
            assert_eq!(enrolled, uninterrupted, "cut {cut}");
        }
    }

    /// The lookup and membership queries of figure 2, for the rejection
    /// tests.
    fn lookup_and_member(db: &Database) -> [QueryEvaluator; 2] {
        ["Ans(x) :- R('a1', x)", "Ans() :- R('a3', 'b1')"]
            .map(|text| QueryEvaluator::new(parse_query(db.schema(), text).unwrap()))
    }

    fn stopping_params() -> ApproximationParams {
        ApproximationParams::new(0.25, 0.2)
            .unwrap()
            .with_mode(EstimatorMode::OptimalStopping { max_samples: 2_000 })
    }

    fn is_invalid<T: std::fmt::Debug>(result: Result<T, CoreError>) -> bool {
        matches!(result, Err(CoreError::InvalidParameters { .. }))
    }

    #[test]
    fn a_prior_for_another_batch_is_rejected() {
        let (db, sigma) = figure2();
        let [lookup, member] = lookup_and_member(&db);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
        let unlimited = RunBudget::unlimited();
        let bank = batch.compile_bank(&queries, &unlimited).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        // A prior for a batch of one, and one for a batch of three.
        let one = batch
            .estimate_batch_with_budget(&queries[..1], stopping_params(), &unlimited, &mut rng)
            .unwrap();
        let mut three = one.clone();
        three.queries.extend([one.queries[0]; 2]);
        for prior in [&one, &three] {
            let resumed = batch.estimate_stopping_batch_resume(
                &bank,
                &queries,
                stopping_params(),
                &unlimited,
                prior,
                &mut rng,
            );
            assert!(is_invalid(resumed), "{} prior entries", prior.queries.len());
        }
    }

    #[test]
    fn a_bank_from_another_query_list_is_rejected() {
        let (db, sigma) = figure2();
        let [lookup, member] = lookup_and_member(&db);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
        let unlimited = RunBudget::unlimited();
        let short = batch.compile_bank(&queries[..1], &unlimited).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let prior = batch
            .estimate_batch_with_budget(&queries, stopping_params(), &unlimited, &mut rng)
            .unwrap();
        let resumed = batch.estimate_stopping_batch_resume(
            &short,
            &queries,
            stopping_params(),
            &unlimited,
            &prior,
            &mut rng,
        );
        assert!(is_invalid(resumed));
        let fixed = stopping_params().with_mode(EstimatorMode::FixedSamples(10));
        assert!(is_invalid(
            batch.estimate_batch_with_bank(&short, &queries, fixed, &mut rng)
        ));
    }

    #[test]
    fn a_bank_from_a_foreign_list_of_the_same_length_is_rejected() {
        let (db, sigma) = figure2();
        let [lookup, member] = lookup_and_member(&db);
        let (b1, b2) = ([Value::str("b1")], [Value::str("b2")]);
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
        let unlimited = RunBudget::unlimited();
        let bank = batch.compile_bank(&queries, &unlimited).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let prior = batch
            .estimate_batch_with_budget(&queries, stopping_params(), &unlimited, &mut rng)
            .unwrap();
        let fixed = stopping_params().with_mode(EstimatorMode::FixedSamples(10));
        // Another candidate at one entry, and the entries swapped.
        let other_candidate = [BatchQuery::new(&lookup, &b2), BatchQuery::new(&member, &[])];
        let swapped = [BatchQuery::new(&member, &[]), BatchQuery::new(&lookup, &b1)];
        for foreign in [&other_candidate, &swapped] {
            assert!(is_invalid(
                batch.estimate_batch_with_bank(&bank, foreign, fixed, &mut rng)
            ));
            assert!(is_invalid(batch.estimate_stopping_batch_resume(
                &bank,
                foreign,
                stopping_params(),
                &unlimited,
                &prior,
                &mut rng,
            )));
        }
        assert!(batch
            .estimate_batch_with_bank(&bank, &queries, fixed, &mut rng)
            .is_ok());
    }

    #[test]
    fn a_stale_bank_is_rejected() {
        let (mut db, sigma) = figure2();
        let [lookup, member] = lookup_and_member(&db);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let unlimited = RunBudget::unlimited();
        let (stale, prior) = {
            let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
            let prior = batch
                .estimate_batch_with_budget(
                    &queries,
                    stopping_params(),
                    &unlimited,
                    &mut StdRng::seed_from_u64(3),
                )
                .unwrap();
            (batch.compile_bank(&queries, &unlimited).unwrap(), prior)
        };
        db.insert_values("R", [Value::str("a2"), Value::str("b2")])
            .unwrap();
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let resumed = batch.estimate_stopping_batch_resume(
            &stale,
            &queries,
            stopping_params(),
            &unlimited,
            &prior,
            &mut rng,
        );
        assert!(is_invalid(resumed));
        let fixed = stopping_params().with_mode(EstimatorMode::FixedSamples(10));
        assert!(is_invalid(
            batch.estimate_batch_with_bank(&stale, &queries, fixed, &mut rng)
        ));
        // The same bank refreshed against the database is accepted.
        let mut fresh = stale;
        let refs: Vec<(&QueryEvaluator, &[Value])> =
            queries.iter().map(|q| (q.evaluator, q.candidate)).collect();
        fresh.refresh(&db, &refs).unwrap();
        assert!(batch
            .estimate_batch_with_bank(&fresh, &queries, fixed, &mut rng)
            .is_ok());
        // A delete-only delta leaves the universe as it was; the bank is
        // stale all the same until it is refreshed.
        let victim = db
            .fact_id(&ucqa_db::Fact::new(
                db.schema().relation_id("R").unwrap(),
                vec![Value::str("a2"), Value::str("b2")],
            ))
            .unwrap();
        db.delete(victim).unwrap();
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
        assert_eq!(fresh.universe(), db.len());
        assert!(is_invalid(
            batch.estimate_batch_with_bank(&fresh, &queries, fixed, &mut rng)
        ));
        fresh.refresh(&db, &refs).unwrap();
        assert!(batch
            .estimate_batch_with_bank(&fresh, &queries, fixed, &mut rng)
            .is_ok());
    }

    /// What each spec's draw covers for the live entries of `live`.
    fn cover_of(batch: &BatchEstimator<'_>, bank: &LineageBank, live: &[usize]) -> Cover {
        Cover::of(&batch.inner, bank, &BankLiveSet::restrict(bank, live))
    }

    #[test]
    fn block_and_walk_samplers_draw_only_the_units_a_fallback_free_bank_sees() {
        let (db, sigma) = figure2();
        let parse = |text: &str| QueryEvaluator::new(parse_query(db.schema(), text).unwrap());
        let (a3, a1, any) = (
            parse("Ans(x) :- R('a3', x)"),
            parse("Ans(x) :- R('a1', x)"),
            parse("Ans() :- R(x, y)"),
        );
        let b1 = [Value::str("b1")];
        // Entry 0's witness is R(a3, b1), fact 4; entry 1's is R(a1, b1),
        // fact 0; entry 2 has six witnesses, past a witness cap of 2.
        let queries = [
            BatchQuery::new(&a3, &b1),
            BatchQuery::new(&a1, &b1),
            BatchQuery::new(&any, &[]),
        ];
        let refs: Vec<_> = queries.iter().map(|q| (q.evaluator, q.candidate)).collect();
        let capped = CompileBudget::default().with_witness_cap(2);
        let (bank, _) = LineageBank::compile_with_budget(&db, &refs, &capped).unwrap();
        assert!(!bank.is_fallback(0) && !bank.is_fallback(1) && bank.is_fallback(2));
        let starved = RunBudget::unlimited().with_max_compile_steps(1);
        let facts = |ids: &[usize]| ids.iter().map(|&id| FactId::new(id)).collect::<Vec<_>>();
        let (mut covered, mut pulled) = (0, 0);
        for spec in all_specs() {
            let Ok(batch) = BatchEstimator::new(&db, &sigma, spec) else {
                continue;
            };
            let name = spec.short_name();
            let mut experiment =
                BankExperiment::new(&batch.inner, &bank, &queries, BankLiveSet::full(&bank));
            let mut rng = StdRng::seed_from_u64(3);
            let mut hits = vec![false; queries.len()];
            if spec.semantics == UniformSemantics::Operations && spec.singleton_only {
                // `M^{uo,1}` draws no repair, also while the fallback
                // entry is live: one pulled check serves the whole
                // pass.  Its targets are the conflicting witness facts
                // of the compiled entries, R(a1, b1) and R(a3, b1); a
                // retirement keeps it, and every draw advances it.
                let mut draw_then_check = |experiment: &mut BankExperiment<'_, '_>| {
                    StoppingBatchExperiment::draw(experiment, &mut rng, &mut hits);
                    let Some(DrawState::Pulled(check)) = &experiment.draw else {
                        panic!("{name}: a singleton walk pulls every draw");
                    };
                    (check.target_facts(), check.draws())
                };
                assert_eq!(
                    draw_then_check(&mut experiment),
                    (facts(&[0, 4]), 1),
                    "{name}"
                );
                StoppingBatchExperiment::<StdRng>::retire(&mut experiment, 2);
                assert_eq!(
                    draw_then_check(&mut experiment),
                    (facts(&[0, 4]), 2),
                    "{name}"
                );
                StoppingBatchExperiment::<StdRng>::retire(&mut experiment, 1);
                assert_eq!(
                    draw_then_check(&mut experiment),
                    (facts(&[0, 4]), 3),
                    "{name}"
                );
                pulled += 1;
                continue;
            }
            // The cover of the entries `live`, whose witnesses are the
            // facts `witness_facts`.
            let expected = |witness_facts: &[usize]| match &batch.inner.sampler {
                SamplerKind::Repairs(sampler) => {
                    Cover::Units(sampler.blocks_meeting(facts(witness_facts)))
                }
                SamplerKind::Operations(walker) => {
                    Cover::Units(walker.components_meeting(facts(witness_facts)))
                }
                SamplerKind::Sequences(_) => Cover::All,
            };
            let cover = cover_of(&batch, &bank, &[0]);
            match spec.semantics {
                // R(a3, b1) lies in block a3, partition index 2.
                UniformSemantics::Repairs => assert_eq!(cover, Cover::Units(vec![2]), "{name}"),
                // Its conflict component {R(a3, b1), R(a3, b2)} is the
                // second by smallest fact id, after the a1 facts.
                UniformSemantics::Operations => {
                    assert_eq!(cover, Cover::Units(vec![1]), "{name}")
                }
                UniformSemantics::Sequences => assert_eq!(cover, Cover::All, "{name}"),
            }
            assert_eq!(cover, expected(&[4]), "{name}");
            covered += usize::from(cover != Cover::All);
            // A live set without its fallback entry restricts; with it,
            // the draw is full, since the evaluator reads the whole repair.
            assert_eq!(
                cover_of(&batch, &bank, &[0, 1]),
                expected(&[4, 0]),
                "{name}"
            );
            assert_eq!(cover_of(&batch, &bank, &[0, 2]), Cover::All, "{name}");
            let degraded = batch.compile_bank(&queries[..1], &starved).unwrap();
            assert_eq!(cover_of(&batch, &degraded, &[0]), Cover::All, "{name}");

            // In a pass, each retirement shrinks the next draw's cover to
            // the remaining entries' witness facts.
            let mut draw_then_cover = |experiment: &mut BankExperiment<'_, '_>| {
                StoppingBatchExperiment::draw(experiment, &mut rng, &mut hits);
                let Some(DrawState::Buffered(buffer)) = &mut experiment.draw else {
                    panic!("{name}: only a singleton walk pulls");
                };
                buffer.cover.take().unwrap()
            };
            assert_eq!(draw_then_cover(&mut experiment), Cover::All, "{name}");
            StoppingBatchExperiment::<StdRng>::retire(&mut experiment, 2);
            let Some(DrawState::Buffered(buffer)) = &experiment.draw else {
                unreachable!()
            };
            assert!(buffer.cover.is_none(), "{name}: retire builds no cover");
            assert_eq!(
                draw_then_cover(&mut experiment),
                expected(&[4, 0]),
                "{name}"
            );
            StoppingBatchExperiment::<StdRng>::retire(&mut experiment, 1);
            assert_eq!(draw_then_cover(&mut experiment), expected(&[4]), "{name}");
        }
        assert_eq!(
            (covered, pulled),
            (3, 1),
            "both block specs and the pair walk restrict; the singleton walk pulls"
        );
    }

    #[test]
    fn a_pass_that_never_draws_builds_no_draw_state() {
        let (db, sigma) = figure2();
        let lookup = QueryEvaluator::new(parse_query(db.schema(), "Ans(x) :- R('a3', x)").unwrap());
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1)];
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).unwrap();
        let bank = batch
            .compile_bank(&queries, &RunBudget::unlimited())
            .unwrap();
        let mut experiment =
            BankExperiment::new(&batch.inner, &bank, &queries, BankLiveSet::full(&bank));
        StoppingBatchExperiment::<StdRng>::retire(&mut experiment, 0);
        assert!(experiment.draw.is_none());
    }

    #[test]
    fn compile_budget_fallback_keeps_estimates_bit_identical() {
        // A compile-step cap of 1 degrades the whole bank to evaluator
        // fallback; the sampled repair stream consumes the RNG identically
        // and the fallback evaluator decides the same entailments, so the
        // estimates are bit-identical — only the per-draw cost changes.
        let (db, sigma) = figure2();
        let lookup = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let lookup = QueryEvaluator::new(lookup);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1)];
        let params = ApproximationParams::new(0.25, 0.2).unwrap().with_mode(
            EstimatorMode::OptimalStopping {
                max_samples: 200_000,
            },
        );
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
        let starved = RunBudget::unlimited().with_max_compile_steps(1);
        let bank = batch.compile_bank(&queries, &starved).unwrap();
        assert!(bank.is_fallback(0), "the starved bank degrades to fallback");
        let plain = batch
            .estimate_stopping_batch(&queries, params, &mut StdRng::seed_from_u64(5))
            .unwrap();
        let degraded = batch
            .estimate_batch_with_budget(&queries, params, &starved, &mut StdRng::seed_from_u64(5))
            .unwrap();
        assert_eq!(
            (
                degraded.queries[0].estimate,
                degraded.queries[0].samples,
                degraded.queries[0].successes,
            ),
            (plain[0].value, plain[0].samples, plain[0].successes),
        );
        assert_eq!(degraded.queries[0].status, BudgetStatus::Converged);
    }

    #[test]
    fn truncated_estimates_satisfy_their_achieved_bound_against_the_exact_solver() {
        // Cut the stream at several points; the reported achieved bound at
        // the observed counts must cover the true probability (fixed seeds;
        // the bound holds with probability ≥ 1 − δ per truncation point).
        let (db, sigma) = figure2();
        let q = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let candidate = [Value::str("b1")];
        let spec = GeneratorSpec::uniform_operations();
        let exact = ExactSolver::new(&db, &sigma)
            .answer_probability(spec, &evaluator, &candidate)
            .unwrap()
            .to_f64();
        let params = ApproximationParams::new(0.05, 0.05).unwrap().with_mode(
            EstimatorMode::OptimalStopping {
                max_samples: 10_000_000,
            },
        );
        let estimator = OcqaEstimator::new(&db, &sigma, spec).unwrap();
        for cut in [50u64, 500, 5_000] {
            let budget = RunBudget::unlimited().with_max_draws(cut);
            let outcome = estimator
                .estimate_with_budget(
                    &evaluator,
                    &candidate,
                    params,
                    &budget,
                    &mut StdRng::seed_from_u64(13),
                )
                .unwrap();
            let query = &outcome.queries[0];
            assert_eq!(query.samples, cut);
            assert_eq!(query.status, BudgetStatus::BudgetExhausted);
            let additive = query.achieved.additive_epsilon;
            assert!(
                (query.estimate - exact).abs() <= additive,
                "cut {cut}: estimate {} vs exact {exact}, additive ε′ {additive}",
                query.estimate
            );
            if let Some(relative) = query.achieved.relative_epsilon {
                assert!(
                    (query.estimate - exact).abs() <= relative * exact,
                    "cut {cut}: estimate {} vs exact {exact}, relative ε′ {relative}",
                    query.estimate
                );
            }
        }
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn budgeted_rounds_with_unlimited_budget_match_plain_rounds_at_fpras_level() {
        let (db, sigma) = figure2();
        let lookup = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let lookup = QueryEvaluator::new(lookup);
        let member = parse_query(db.schema(), "Ans() :- R('a3', 'b1')").unwrap();
        let member = QueryEvaluator::new(member);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let params =
            ApproximationParams::new(0.2, 0.1)
                .unwrap()
                .with_mode(EstimatorMode::OptimalStopping {
                    max_samples: 1_000_000,
                });
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).unwrap();
        let plain = batch.estimate_batch_parallel(&queries, params, 23).unwrap();
        let budgeted = batch
            .estimate_stopping_batch_rounds_with_budget(
                &queries,
                params,
                23,
                &RunBudget::unlimited(),
            )
            .unwrap();
        for (i, (b, p)) in budgeted.queries.iter().zip(&plain).enumerate() {
            assert_eq!(
                (b.estimate, b.samples, b.successes),
                (p.value, p.samples, p.successes),
                "query {i}"
            );
            assert_eq!(b.status, BudgetStatus::Converged);
        }
        // A draw cap interrupts at a round boundary: a query that cannot
        // converge is cut after the first round instead of running to the
        // `max_samples` cut-off (queries that converged within the round
        // keep their values — the cap is round-granular).  The query has
        // a witness whose two facts share a key, so it is 0 without being
        // settled before the first round as a witness-free one would be.
        let never = parse_query(db.schema(), "Ans() :- R('a1', 'b1'), R('a1', 'b2')").unwrap();
        let never = QueryEvaluator::new(never);
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&never, &[])];
        let capped = batch
            .estimate_stopping_batch_rounds_with_budget(
                &queries,
                params,
                23,
                &RunBudget::unlimited().with_max_draws(1),
            )
            .unwrap();
        assert_eq!(capped.queries[1].status, BudgetStatus::BudgetExhausted);
        assert!(
            capped.total_draws < 1_000_000,
            "the cap stops the stream long before the cut-off (drew {})",
            capped.total_draws
        );
    }

    #[test]
    fn lower_bound_counts_past_the_stopping_cut_off_are_rejected() {
        let (db, sigma) = figure2();
        let q = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let from_bound = ApproximationParams::new(0.3, 0.2)
            .unwrap()
            .with_mode(EstimatorMode::FixedFromLowerBound);
        for spec in all_specs() {
            let estimator = OcqaEstimator::new(&db, &sigma, spec).unwrap();
            let samples = estimator.fixed_sample_count(Some(&evaluator), from_bound);
            if spec == GeneratorSpec::uniform_operations() {
                // Proposition 7.3 derives about 1.35·10¹⁴ draws here.
                assert!(is_invalid(samples), "{}", spec.short_name());
            } else {
                let samples = samples.unwrap();
                assert!(
                    samples <= bounds::DEFAULT_MAX_SAMPLES,
                    "{}",
                    spec.short_name()
                );
            }
        }
    }

    #[test]
    fn lower_bounds_are_reported_per_generator() {
        let (db, sigma) = figure2();
        let q = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let rr = OcqaEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
        assert!((rr.theoretical_lower_bound(&evaluator).to_f64() - 1.0 / 12.0).abs() < 1e-9);
        let uo1 = OcqaEstimator::new(
            &db,
            &sigma,
            GeneratorSpec::uniform_operations().with_singleton_only(),
        )
        .unwrap();
        let bound = uo1.theoretical_lower_bound(&evaluator).to_f64();
        assert!(bound > 0.0 && bound < 1.0);
    }

    #[test]
    fn a_refreshed_conflict_index_reproduces_the_internally_built_estimates() {
        let (mut db, sigma) = two_key_database();
        // Build the index before the mutations, then bring it up to date
        // with `refresh` — the estimator must behave exactly as if it had
        // built a fresh index itself.
        let mut index = ConflictIndex::build(&db, &sigma);
        db.insert_values("R", [Value::int(3), Value::int(1)])
            .unwrap();
        let gone = ucqa_db::Fact::new(
            db.schema().relation_id("R").unwrap(),
            vec![Value::int(2), Value::int(2)],
        );
        db.retract(&gone).unwrap();
        index.refresh(&db, &sigma);

        let q = parse_query(db.schema(), "Ans(x) :- R(1, x)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let candidate = [Value::int(1)];
        let params = ApproximationParams::new(0.1, 0.1)
            .unwrap()
            .with_mode(EstimatorMode::FixedSamples(512));
        for spec in [
            GeneratorSpec::uniform_operations(),
            GeneratorSpec::uniform_operations().with_singleton_only(),
        ] {
            let fresh = OcqaEstimator::new(&db, &sigma, spec)
                .unwrap()
                .estimate(
                    &evaluator,
                    &candidate,
                    params,
                    &mut StdRng::seed_from_u64(99),
                )
                .unwrap();
            let reused = OcqaEstimator::with_conflict_index(&db, &sigma, spec, index.clone())
                .unwrap()
                .estimate(
                    &evaluator,
                    &candidate,
                    params,
                    &mut StdRng::seed_from_u64(99),
                )
                .unwrap();
            assert_eq!(
                fresh,
                reused,
                "spec {}: a refreshed index must be bit-identical to a fresh build",
                spec.short_name()
            );
        }
    }

    #[test]
    fn a_conflict_index_is_rejected_for_non_operations_generators() {
        let (db, sigma) = two_key_database();
        let index = ConflictIndex::build(&db, &sigma);
        for spec in [
            GeneratorSpec::uniform_repairs(),
            GeneratorSpec::uniform_sequences().with_singleton_only(),
        ] {
            let err = OcqaEstimator::with_conflict_index(&db, &sigma, spec, index.clone());
            assert!(
                matches!(err, Err(CoreError::Unsupported { .. })),
                "spec {} must be rejected",
                spec.short_name()
            );
        }
    }
}
