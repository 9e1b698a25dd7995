//! End-to-end FPRAS drivers for uniform operational CQA.
//!
//! [`BatchEstimator`] wires together a uniform generator specification,
//! the matching polynomial sampler, and a Monte-Carlo estimator, and
//! enforces the constraint-class requirements under which the paper
//! proves each combination approximable:
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
//!
//! Every theorem's FPRAS draws from the generator and estimates a
//! Bernoulli mean, so one scheme serves them all: a bank of queries is
//! compiled once ([`BatchEstimator::compile_bank`]) and estimated from
//! one shared draw stream, sequentially ([`BatchEstimator::run`]) or in
//! rayon-sharded rounds (`BatchEstimator::run_sharded`, feature
//! `parallel`).  A single query is a bank of one.  Both schedules run
//! the Dagum–Karp–Luby–Ross stopping rule; a fixed sample count is the
//! same rule with a success target no entry reaches, cut off at that
//! count.

use std::sync::Arc;

use rand::Rng;

use ucqa_db::{ConflictIndex, Database, FactSet, FdSet, Value};
use ucqa_query::{BankLiveSet, BankScratch, LineageBank, Membership, QueryEvaluator};
use ucqa_repair::{GeneratorSpec, UniformSemantics};

use crate::bounds;
use crate::budget::{AchievedBound, BudgetStatus, EstimateOutcome, QueryOutcome, RunBudget};
use crate::montecarlo::{
    estimate_stopping_batch_budgeted, BudgetedStoppingOutcome, StoppingBatchExperiment,
    StoppingRuleEstimator, StoppingRuleOutcome,
};
#[cfg(feature = "parallel")]
use crate::montecarlo::{estimate_stopping_batch_rounds, DEFAULT_SHARD_SIZE};
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
    /// of [`crate::bounds`] (relative guarantee), for a bank of one entry.
    /// Fails when the bound is too small to be useful: when the derived
    /// count exceeds the stopping rule's default cut-off
    /// [`crate::bounds::DEFAULT_MAX_SAMPLES`].
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

    /// `ε` and `δ` must lie in `(0, 1)`: the range checks of
    /// [`StoppingRuleEstimator::try_new`].
    fn validate(&self) -> Result<(), CoreError> {
        StoppingRuleEstimator::try_new(self.epsilon, self.delta).map(|_| ())
    }
}

/// One entry's outcome without its status and bound: the view the
/// `perfbench` harness reads from [`BatchEstimator::estimate_stopping_batch`]
/// and [`BatchEstimator::estimate_batch_with_bank`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The estimated probability `P_{M_Σ,Q}(D, c̄)`.
    pub value: f64,
    /// Number of samples drawn.
    pub samples: u64,
    /// Number of samples whose repair entailed the answer.
    pub successes: u64,
    /// Whether the entry did not converge: a sample cut-off or a budget
    /// truncated the run (the `(ε, δ)` guarantee then no longer applies;
    /// the value is the plain empirical mean).
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
    /// ([`BankExperiment`]) of every run dispatches through them, which
    /// is what makes a bank's outcomes bit-identical to runs over banks
    /// of one under a shared seed.  A restricted or pulled draw takes the
    /// same single key as the full one and agrees with it on every unit
    /// or fact it decides.
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
    fn of(estimator: &BatchEstimator<'_>, bank: &LineageBank, live: &BankLiveSet) -> Self {
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
    fn new(estimator: &BatchEstimator<'_>) -> Self {
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
        estimator: &BatchEstimator<'_>,
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

/// How a run draws: per-entry success targets over one shared stream,
/// cut off after `cut_off` draws.
///
/// A fixed mode is the stopping rule with every target at `u64::MAX`,
/// which no entry reaches, and the cut-off at its sample count: every
/// entry rides the stream to the cut-off, which is where it converges.
struct Schedule {
    targets: Vec<u64>,
    cut_off: u64,
    /// The failure probability of each entry's achieved bound: `δ/k`
    /// under the stopping rule over a bank of `k`, `δ` under a fixed
    /// count.
    delta: f64,
    fixed: bool,
}

impl Schedule {
    /// The public [`EstimateOutcome`] of a run, attaching each entry's
    /// achieved bound at its observed counts.  Under a fixed mode an
    /// entry that reached the cut-off is [`BudgetStatus::Converged`].
    fn outcome(&self, run: BudgetedStoppingOutcome) -> EstimateOutcome {
        let queries = run
            .outcomes
            .iter()
            .zip(&run.statuses)
            .map(|(o, &status)| QueryOutcome {
                estimate: o.estimate,
                samples: o.samples,
                successes: o.successes,
                status: if self.fixed && o.samples == self.cut_off {
                    BudgetStatus::Converged
                } else {
                    status
                },
                achieved: AchievedBound::at(o.samples, o.successes, self.delta),
            })
            .collect();
        EstimateOutcome {
            queries,
            total_draws: run.total_samples,
        }
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

/// The [`Estimate`] views of a run's entries: truncated iff not
/// converged.
fn estimates_of(outcome: &EstimateOutcome) -> Vec<Estimate> {
    outcome
        .queries
        .iter()
        .map(|q| Estimate {
            value: q.estimate,
            samples: q.samples,
            successes: q.successes,
            truncated: !q.status.is_converged(),
        })
        .collect()
}

fn invalid(message: impl Into<String>) -> CoreError {
    CoreError::InvalidParameters {
        message: message.into(),
    }
}

/// One query of a bank: an evaluator plus its candidate answer tuple.
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

/// The FPRAS for `OCQA(Σ, M, Q)` over one database: one sampler loop,
/// `k` estimates.
///
/// One draw of an operational repair answers *every* query of a bank at
/// once (the per-draw check is membership of the sampled repair in each
/// query's lineage).  So the estimator compiles the whole bank into a
/// shared [`LineageBank`] ([`BatchEstimator::compile_bank`]: witness
/// enumeration factored through a shared scan trie over the per-query
/// join plans, witnesses deduplicated into one arena, per-query masks)
/// and drives **one** sampling loop; each sampled repair updates every
/// live entry in a single word-level pass.  A single query is a bank of
/// one.
///
/// **Bit-identity guarantee.**  The RNG is consumed by the shared draw
/// only, never by the per-query checks, so under a fixed seed every
/// entry of a [`BatchEstimator::run`] is exactly the outcome of a run
/// over a bank of that entry alone from the same RNG state (under the
/// stopping rule, with the bank's per-entry `δ/k`), and every entry of a
/// `run_sharded` (feature `parallel`) in a fixed mode is exactly that of a
/// sharded run over a bank of one under the same master seed, whatever
/// the thread count.
///
/// Under [`EstimatorMode::OptimalStopping`] each entry tracks its own
/// Dagum–Karp–Luby–Ross success target `Υ(ε, δ/k)` over the shared
/// stream and **retires** as it converges, shrinking the per-draw work
/// until the last entry stops the stream.  The fixed modes run the same
/// loop with a target no entry reaches, cut off at the mode's count.
pub struct BatchEstimator<'a> {
    db: &'a Database,
    sigma: &'a FdSet,
    spec: GeneratorSpec,
    sampler: SamplerKind<'a>,
}

impl<'a> BatchEstimator<'a> {
    /// Creates an estimator for the given uniform generator, validating
    /// that the paper provides an FPRAS for the combination of generator
    /// and constraint class.
    pub fn new(db: &'a Database, sigma: &'a FdSet, spec: GeneratorSpec) -> Result<Self, CoreError> {
        Self::new_inner(db, sigma, spec, None)
    }

    /// As [`BatchEstimator::new`], reusing a caller-maintained
    /// [`ConflictIndex`] for the uniform-operations walk — typically one
    /// kept current across database mutations with
    /// [`ConflictIndex::refresh`] — instead of rebuilding it from scratch.
    /// Estimates are bit-identical to [`BatchEstimator::new`] under the
    /// same seed; only the construction cost differs.
    ///
    /// # Errors
    /// The same support errors as [`BatchEstimator::new`]; additionally,
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
                              walk; use BatchEstimator::new for the other generators"
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
        Ok(BatchEstimator {
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

    /// Compiles the bank's shared lineage ([`LineageBank::compile`]:
    /// grounded plan-ordered atom sequences factored into one scan trie,
    /// witnesses deduplicated into one arena), validating every candidate
    /// arity, under the compile-time part of `budget`
    /// ([`RunBudget::with_max_compile_steps`] and the cancel token).
    /// Compile once, then [`run`](BatchEstimator::run) or `run_sharded`
    /// (feature `parallel`) as often as needed.
    ///
    /// Queries whose witness enumeration overflows the witness cap fall
    /// back to the backtracking evaluator per draw while the rest stay on
    /// the word-level bitset path.  An interrupted enumeration degrades
    /// the **whole bank** to evaluator fallback — a partial witness set
    /// would under-report entailment — so estimation proceeds correctly,
    /// just without the bitset fast path.  Under [`RunBudget::unlimited`]
    /// the bank is exactly [`LineageBank::compile`]'s.
    pub fn compile_bank(
        &self,
        queries: &[BatchQuery<'_>],
        budget: &RunBudget,
    ) -> Result<LineageBank, CoreError> {
        let refs: Vec<(&QueryEvaluator, &[Value])> =
            queries.iter().map(|q| (q.evaluator, q.candidate)).collect();
        let (bank, _) = LineageBank::compile_with_budget(self.db, &refs, &budget.compile_budget())?;
        Ok(bank)
    }

    /// Estimates `P_{M_Σ,Qᵢ}(D, c̄ᵢ)` for every query of `bank` from one
    /// shared sequence of sampled repairs, under a [`RunBudget`].
    ///
    /// `bank` must be compiled ([`BatchEstimator::compile_bank`]) or
    /// [refreshed](LineageBank::refresh) from `queries` and current with
    /// the estimator's database.
    ///
    /// [`EstimatorMode::OptimalStopping`] runs the batched stopping rule:
    /// entry `i` tracks its own success target `Υ(ε, δ/k)` and
    /// **retires** the moment it is reached — its witnesses drop out of
    /// the shared per-draw containment scan ([`BankLiveSet`]), so the
    /// per-draw cost shrinks as the bank drains — and the stream stops
    /// when the last entry retires or `max_samples` truncates it.  A
    /// compiled entry with no witness has probability exactly 0 and
    /// retires before the first draw, with estimate 0, zero samples and
    /// status `Converged`; any other zero-probability entry truncates at
    /// the cut-off without stalling the retirement of the others.  With
    /// `δ/k` per entry, a union bound gives: with probability at least
    /// `1 − δ`, **every** converged estimate is within relative error `ε`
    /// of its true probability.
    ///
    /// The fixed modes draw their sample count for every entry (an
    /// [`EstimatorMode::FixedFromLowerBound`] count is derived from
    /// [`BatchEstimator::theoretical_lower_bound`] of the bank's one
    /// entry), each entry reporting its achieved `(ε′, δ)` bound.
    ///
    /// The budget is polled between draws and consumes no randomness: an
    /// unconstrained budget never changes the sample stream.  When it
    /// interrupts the stream, entries that already retired **keep their
    /// converged values**; entries still live report the empirical mean
    /// over the truncated stream, flagged
    /// [`BudgetExhausted`](BudgetStatus::BudgetExhausted) or
    /// [`Cancelled`](BudgetStatus::Cancelled), each with the achieved
    /// bound at its observed counts.
    ///
    /// **Resuming.**  Under the stopping rule, `prior` continues an
    /// interrupted run: it must be the outcome of a run over the **same
    /// queries and parameters**, and `rng` the same generator, positioned
    /// where that run left it (an interruption at draw `t` leaves the RNG
    /// after exactly `t` draws).  Converged entries of `prior` are
    /// returned **verbatim**; only the others are live, and they pick
    /// their success counts back up, so the concatenated run is
    /// bit-identical to one uninterrupted run.  Draw counts are absolute
    /// across resumption: `max_samples`, a draw cap and a
    /// [`tripped_at_draw`](crate::budget::CancelToken::tripped_at_draw)
    /// token all refer to the total stream length.  `prior` is also the
    /// **enrollment** hook of the sliding-window estimator
    /// ([`crate::stream`]): a baseline whose entries carry zero counts
    /// and a non-converged status for everything that should (re-)enter
    /// the loop, and converged outcomes for everything that should not.
    ///
    /// # Errors
    /// [`CoreError::InvalidParameters`] if `bank` was not compiled from
    /// `queries` (see [`LineageBank::compiled_from`]) or is stale with
    /// respect to the estimator's database; if `prior` is given under a
    /// fixed mode or is for a bank of another size; if `params` are out
    /// of range; or if [`EstimatorMode::FixedFromLowerBound`] is asked of
    /// a bank that is not one entry, or derives an impractical count.
    pub fn run<R: Rng + ?Sized>(
        &self,
        bank: &LineageBank,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        budget: &RunBudget,
        prior: Option<&EstimateOutcome>,
        rng: &mut R,
    ) -> Result<EstimateOutcome, CoreError> {
        self.check_bank(bank, queries)?;
        if let Some(prior) = prior {
            if !matches!(params.mode, EstimatorMode::OptimalStopping { .. }) {
                return Err(invalid(format!(
                    "a prior resumes a stopping-rule run, but the mode is {:?}",
                    params.mode
                )));
            }
            if prior.queries.len() != queries.len() {
                return Err(invalid(format!(
                    "prior outcome is for a different batch ({} entries for {} queries)",
                    prior.queries.len(),
                    queries.len()
                )));
            }
        }
        let schedule = self.schedule(queries, params)?;
        Ok(self.drive(bank, queries, &schedule, budget, prior, rng))
    }

    /// [`BatchEstimator::run`] without `prior`, with the shared samples
    /// drawn in rayon-sharded rounds of [`DEFAULT_ROUND_SAMPLES`]
    /// (deterministic per-shard RNG streams derived from `master_seed`),
    /// retiring converged entries at each round boundary and rebuilding
    /// the compacted live bank view for the next round.
    ///
    /// **Where bit-identity ends.**  Retirement is round-granular: an
    /// entry crossing its success target mid-round keeps observing draws
    /// to the boundary and reports the empirical mean over at least
    /// `Υ(ε, δ/k)` successes, so its outcome differs from the sequential
    /// loop's `Υ/N` — the rounds match the sequential run in *guarantee*,
    /// not bit-for-bit.  They **are** bit-identical across thread counts
    /// for a fixed `master_seed` (deterministic shard seeds, integer
    /// success sums, round-boundary retirement).  A fixed mode retires
    /// nothing, so its rounds cut the stream into the same global shards
    /// whatever the bank.
    ///
    /// The budget is polled once per **round boundary** (consuming no
    /// randomness): cancellation here is round-granular, and the outcome
    /// stays bit-identical across thread counts whenever the budget
    /// decisions are deterministic (draw caps and pre-tripped tokens are;
    /// wall-clock deadlines are not).  Resumption is not offered —
    /// mid-round work cannot be replayed draw-by-draw; use
    /// [`BatchEstimator::run`] when resumable interruption matters more
    /// than sharding.
    ///
    /// # Errors
    /// Those of [`BatchEstimator::run`] that do not concern `prior`.
    ///
    /// Only available with the `parallel` feature (rayon).
    #[cfg(feature = "parallel")]
    pub fn run_sharded(
        &self,
        bank: &LineageBank,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        budget: &RunBudget,
        master_seed: u64,
    ) -> Result<EstimateOutcome, CoreError> {
        self.check_bank(bank, queries)?;
        let schedule = self.schedule(queries, params)?;
        let settled: Vec<usize> = if schedule.fixed {
            Vec::new()
        } else {
            witness_free(bank).collect()
        };
        let outcome = estimate_stopping_batch_rounds(
            master_seed,
            &schedule.targets,
            schedule.cut_off,
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
        Ok(schedule.outcome(outcome))
    }

    /// Compiles `queries` and runs the stopping rule over them under
    /// [`RunBudget::unlimited`]: [`BatchEstimator::run`] without the bank
    /// check, as [`Estimate`] views.  The `perfbench` harness times this
    /// path.
    ///
    /// # Errors
    /// [`CoreError::InvalidParameters`] unless `params` is in
    /// [`EstimatorMode::OptimalStopping`], besides the compile errors of
    /// [`BatchEstimator::compile_bank`].
    pub fn estimate_stopping_batch<R: Rng + ?Sized>(
        &self,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        rng: &mut R,
    ) -> Result<Vec<Estimate>, CoreError> {
        if !matches!(params.mode, EstimatorMode::OptimalStopping { .. }) {
            return Err(invalid(format!(
                "estimate_stopping_batch runs the stopping rule, but the mode is {:?}; \
                 `run` takes every mode",
                params.mode
            )));
        }
        let schedule = self.schedule(queries, params)?;
        let unlimited = RunBudget::unlimited();
        let bank = self.compile_bank(queries, &unlimited)?;
        let outcome = self.drive(&bank, queries, &schedule, &unlimited, None, rng);
        Ok(estimates_of(&outcome))
    }

    /// [`BatchEstimator::run`] over a precompiled `bank` under
    /// [`RunBudget::unlimited`] without a prior, as [`Estimate`] views;
    /// the `perfbench` harness checks a window against a scratch rebuild
    /// with it.
    ///
    /// # Errors
    /// Those of [`BatchEstimator::run`].
    pub fn estimate_batch_with_bank<R: Rng + ?Sized>(
        &self,
        bank: &LineageBank,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        rng: &mut R,
    ) -> Result<Vec<Estimate>, CoreError> {
        let outcome = self.run(bank, queries, params, &RunBudget::unlimited(), None, rng)?;
        Ok(estimates_of(&outcome))
    }

    /// The [`Schedule`] of `params` over a bank of `queries`.
    ///
    /// The stopping rule's per-entry target is `Υ(ε, δ/k)`: relative
    /// error `ε` with failure probability `δ/k`, so a union bound over
    /// the bank restores the overall `(ε, δ)` guarantee.
    fn schedule(
        &self,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
    ) -> Result<Schedule, CoreError> {
        params.validate()?;
        let k = queries.len();
        let fixed = |samples| Schedule {
            targets: vec![u64::MAX; k],
            cut_off: samples,
            delta: params.delta,
            fixed: true,
        };
        Ok(match params.mode {
            EstimatorMode::OptimalStopping { max_samples } => {
                let delta = params.delta / k.max(1) as f64;
                let target = StoppingRuleEstimator::new(params.epsilon, delta).success_target();
                Schedule {
                    targets: vec![target; k],
                    cut_off: max_samples,
                    delta,
                    fixed: false,
                }
            }
            EstimatorMode::FixedSamples(samples) => fixed(samples),
            EstimatorMode::FixedAdditive => fixed(bounds::samples_for_additive_error(
                params.epsilon,
                params.delta,
            )),
            EstimatorMode::FixedFromLowerBound => {
                let [query] = queries else {
                    return Err(invalid(format!(
                        "FixedFromLowerBound derives its count from the lower bound of one \
                         query, but the bank has {k} entries: use FixedSamples, FixedAdditive \
                         or OptimalStopping"
                    )));
                };
                let bound = self.theoretical_lower_bound(query.evaluator);
                fixed(
                    bounds::samples_for_relative_error(params.epsilon, params.delta, bound)
                        .ok_or_else(|| {
                            invalid(
                                "the worst-case lower bound is too small to derive a practical \
                                 sample count; use the optimal stopping rule",
                            )
                        })?,
                )
            }
        })
    }

    /// The sequential driver of every run: one shared stream over `bank`
    /// under `schedule`.  Under the stopping rule it starts from `prior`
    /// (or a fresh stream) with every [witness-free](witness_free) entry
    /// settled at zero draws, and only the entries not yet converged are
    /// live; under a fixed mode every entry is live.
    fn drive<R: Rng + ?Sized>(
        &self,
        bank: &LineageBank,
        queries: &[BatchQuery<'_>],
        schedule: &Schedule,
        budget: &RunBudget,
        prior: Option<&EstimateOutcome>,
        rng: &mut R,
    ) -> EstimateOutcome {
        let start =
            (!schedule.fixed).then(|| settle_witness_free(bank, prior.map(budgeted_from).as_ref()));
        let live: Vec<usize> = (0..bank.len())
            .filter(|&q| start.as_ref().is_none_or(|s| !s.statuses[q].is_converged()))
            .collect();
        let live = BankLiveSet::restrict(bank, &live);
        let mut experiment = BankExperiment::new(self, bank, queries, live);
        let outcome = estimate_stopping_batch_budgeted(
            rng,
            &schedule.targets,
            schedule.cut_off,
            budget,
            &mut experiment,
            start.as_ref(),
        );
        schedule.outcome(outcome)
    }

    /// Checks that `bank` can drive `queries` on the estimator's
    /// database: compiled from `queries` (see
    /// [`LineageBank::compiled_from`]), and current with the database's
    /// changelog version (a delete-only delta leaves the universe as it
    /// was, so only the version tells).
    fn check_bank(&self, bank: &LineageBank, queries: &[BatchQuery<'_>]) -> Result<(), CoreError> {
        if !bank.compiled_from(queries.iter().map(|q| (q.evaluator, q.candidate))) {
            return Err(invalid(format!(
                "bank was compiled from a different query list ({} entries for {} queries)",
                bank.len(),
                queries.len()
            )));
        }
        if bank.version() != self.db.version() {
            return Err(invalid(
                "bank is stale: refresh it against the database before estimating",
            ));
        }
        Ok(())
    }
}

/// Default number of shared repairs drawn per round by
/// [`BatchEstimator::run_sharded`]: a few shards' worth, so rounds
/// parallelise while retirement stays reasonably fine-grained.  A whole
/// number of shards, so a fixed run's rounds draw the same global shards
/// as one pass over the stream would.
#[cfg(feature = "parallel")]
pub const DEFAULT_ROUND_SAMPLES: u64 = 4 * DEFAULT_SHARD_SIZE;

/// The one fully compiled Bernoulli experiment of every run: draw a
/// repair, then decide every **live** entry of the bank against it
/// (fallback entries route through the backtracking evaluator).  The
/// stopping loops retire entries as they converge, which drops the
/// witnesses only they referenced out of the shared check
/// ([`BankLiveSet`]).
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
    estimator: &'e BatchEstimator<'a>,
    bank: &'e LineageBank,
    queries: &'e [BatchQuery<'e>],
    live: BankLiveSet,
    /// The draw state; `None` until the first draw.
    draw: Option<DrawState<'e, 'a>>,
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
    fn new(estimator: &'e BatchEstimator<'a>, bank: &LineageBank, live: &BankLiveSet) -> Self {
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
        estimator: &'e BatchEstimator<'a>,
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

    /// Compiles `queries` under `budget` and runs them from a fresh
    /// stream.
    fn run_fresh<R: Rng + ?Sized>(
        estimator: &BatchEstimator<'_>,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        budget: &RunBudget,
        rng: &mut R,
    ) -> Result<EstimateOutcome, CoreError> {
        let bank = estimator.compile_bank(queries, budget)?;
        estimator.run(&bank, queries, params, budget, None, rng)
    }

    /// [`run_fresh`] under an unlimited budget, as [`Estimate`] views.
    fn estimate_fresh<R: Rng + ?Sized>(
        estimator: &BatchEstimator<'_>,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        rng: &mut R,
    ) -> Result<Vec<Estimate>, CoreError> {
        let outcome = run_fresh(estimator, queries, params, &RunBudget::unlimited(), rng)?;
        Ok(estimates_of(&outcome))
    }

    /// One query's [`Estimate`]: a run over a bank of one.
    fn estimate_one<R: Rng + ?Sized>(
        estimator: &BatchEstimator<'_>,
        evaluator: &QueryEvaluator,
        candidate: &[Value],
        params: ApproximationParams,
        rng: &mut R,
    ) -> Result<Estimate, CoreError> {
        let queries = [BatchQuery::new(evaluator, candidate)];
        Ok(estimate_fresh(estimator, &queries, params, rng)?[0])
    }

    /// Compiles `queries` and runs them in sharded rounds.
    #[cfg(feature = "parallel")]
    fn sharded_fresh(
        estimator: &BatchEstimator<'_>,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        budget: &RunBudget,
        master_seed: u64,
    ) -> Result<EstimateOutcome, CoreError> {
        let bank = estimator.compile_bank(queries, budget)?;
        estimator.run_sharded(&bank, queries, params, budget, master_seed)
    }

    /// A budget whose checks run but never fire: an untripped token and
    /// a draw cap past every cut-off.
    fn dormant() -> RunBudget {
        RunBudget::unlimited()
            .with_cancel_token(CancelToken::new())
            .with_max_draws(u64::MAX)
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
            let estimator = BatchEstimator::new(&db, &sigma, spec).unwrap();
            let estimate =
                estimate_one(&estimator, &evaluator, &candidate, params, &mut rng).unwrap();
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
            BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).unwrap();
        let params = ApproximationParams::new(0.05, 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let estimate = estimate_one(&estimator, &evaluator, &[], params, &mut rng).unwrap();
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
            match BatchEstimator::new(&db, &sigma, spec) {
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
            BatchEstimator::new(&db, &fds, GeneratorSpec::uniform_operations()),
            Err(CoreError::Unsupported { .. })
        ));
        assert!(BatchEstimator::new(
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
        let estimator = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
        let q = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        // Wrong candidate arity surfaces as a query error.
        let params = ApproximationParams::new(0.1, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let candidate = [Value::int(1), Value::int(2)];
        assert!(matches!(
            estimate_one(&estimator, &evaluator, &candidate, params, &mut rng),
            Err(CoreError::Query(_))
        ));
    }

    #[test]
    fn fixed_modes_work_and_report_sample_counts() {
        let (db, sigma) = figure2();
        let q = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let candidate = [Value::str("b1")];
        let estimator = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);

        let additive = ApproximationParams::new(0.05, 0.05)
            .unwrap()
            .with_mode(EstimatorMode::FixedAdditive);
        let estimate =
            estimate_one(&estimator, &evaluator, &candidate, additive, &mut rng).unwrap();
        assert!((estimate.value - 0.25).abs() < 0.05);

        let explicit = ApproximationParams::new(0.05, 0.05)
            .unwrap()
            .with_mode(EstimatorMode::FixedSamples(500));
        let estimate =
            estimate_one(&estimator, &evaluator, &candidate, explicit, &mut rng).unwrap();
        assert_eq!(estimate.samples, 500);

        let from_bound = ApproximationParams::new(0.3, 0.2)
            .unwrap()
            .with_mode(EstimatorMode::FixedFromLowerBound);
        let estimate =
            estimate_one(&estimator, &evaluator, &candidate, from_bound, &mut rng).unwrap();
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
            let batched =
                estimate_fresh(&batch, &queries, params, &mut StdRng::seed_from_u64(99)).unwrap();
            assert_eq!(batched.len(), queries.len());
            for (i, query) in queries.iter().enumerate() {
                let single = estimate_one(
                    &batch,
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
            // `run` on a caller-held bank, and the compile-and-run
            // wrapper.
            let via_batch =
                estimate_fresh(&batch, &queries, params, &mut StdRng::seed_from_u64(17)).unwrap();
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
            for (i, query) in queries.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(17);
                let standalone = estimate_one(
                    &batch,
                    query.evaluator,
                    query.candidate,
                    single_params,
                    &mut rng,
                )
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
                let single = estimate_one(
                    &batch,
                    query.evaluator,
                    query.candidate,
                    single_params,
                    &mut StdRng::seed_from_u64(31),
                )
                .unwrap();
                assert_eq!(direct[i], single, "spec {name}, query {i}");
                let budgeted = run_fresh(
                    &batch,
                    std::slice::from_ref(query),
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
            let budgeted = run_fresh(
                &batch,
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
            let alone = run_fresh(
                &batch,
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
                let rounds = sharded_fresh(&batch, &queries, params, &RunBudget::unlimited(), 23);
                let rounds = estimates_of(&rounds.unwrap());
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
        let unlimited = RunBudget::unlimited();
        let bank = batch.compile_bank(&queries, &unlimited).unwrap();
        let rounds = || batch.run_sharded(&bank, &queries, params, &unlimited, 23);
        let baseline = estimates_of(&rounds().unwrap());
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
            let outcome = estimates_of(&pool.install(rounds).unwrap());
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
        let unlimited = RunBudget::unlimited();
        let batched = sharded_fresh(&batch, &queries, params, &unlimited, 7).unwrap();
        for (i, query) in queries.iter().enumerate() {
            let single =
                sharded_fresh(&batch, std::slice::from_ref(query), params, &unlimited, 7).unwrap();
            assert_eq!(batched.queries[i], single.queries[0], "query {i}");
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
            let estimates =
                estimate_fresh(&batch, &queries, params, &mut StdRng::seed_from_u64(3)).unwrap();
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
        // The per-query lower-bound mode cannot share one loop across a
        // bank of two; a bank of one derives its count from its entry.
        // The stopping wrapper requires the stopping mode.
        let params = ApproximationParams::new(0.2, 0.2)
            .unwrap()
            .with_mode(EstimatorMode::FixedFromLowerBound);
        let two = [queries[0], queries[0]];
        assert!(matches!(
            estimate_fresh(&batch, &two, params, &mut rng),
            Err(CoreError::InvalidParameters { .. })
        ));
        let one = estimate_fresh(&batch, &queries, params, &mut rng).unwrap();
        assert!(one[0].samples > 0 && !one[0].truncated);
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
            estimate_fresh(&batch, &bad, params, &mut rng),
            Err(CoreError::Query(_))
        ));
        // An empty bank is a no-op, not an error.
        let empty = estimate_fresh(&batch, &[], params, &mut rng).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn an_empty_bank_draws_nothing_in_every_mode() {
        // A fixed mode is the stopping loop with an unreachable target,
        // and that loop ends once no entry is live: a bank with no entry
        // draws nothing, sequential or sharded, whatever the mode.
        let (db, sigma) = figure2();
        let params = ApproximationParams::new(0.2, 0.2).unwrap();
        let modes = [
            params.mode,
            EstimatorMode::FixedSamples(500),
            EstimatorMode::FixedAdditive,
        ];
        let unlimited = RunBudget::unlimited();
        for spec in all_specs() {
            let batch = BatchEstimator::new(&db, &sigma, spec).unwrap();
            let bank = batch.compile_bank(&[], &unlimited).unwrap();
            for mode in modes {
                let params = params.with_mode(mode);
                let mut rng = StdRng::seed_from_u64(4);
                let mut untouched = rng.clone();
                let outcome = batch
                    .run(&bank, &[], params, &unlimited, None, &mut rng)
                    .unwrap();
                let name = spec.short_name();
                let drew_nothing = |outcome: &EstimateOutcome| {
                    outcome.queries.is_empty() && outcome.total_draws == 0
                };
                assert!(drew_nothing(&outcome), "{name}, {mode:?}");
                assert_eq!(rng.random::<u64>(), untouched.random::<u64>(), "{name}");
                #[cfg(feature = "parallel")]
                assert!(
                    drew_nothing(
                        &batch
                            .run_sharded(&bank, &[], params, &unlimited, 4)
                            .unwrap()
                    ),
                    "{name}, {mode:?}"
                );
            }
            // The lower-bound count needs the bank's one entry.
            let from_bound = params.with_mode(EstimatorMode::FixedFromLowerBound);
            let mut rng = StdRng::seed_from_u64(4);
            assert!(is_invalid(batch.run(
                &bank,
                &[],
                from_bound,
                &unlimited,
                None,
                &mut rng
            )));
        }
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
            let estimator = BatchEstimator::new(&db, &sigma, spec).unwrap();
            let queries = [BatchQuery::new(&evaluator, &candidate)];
            let plain = estimator
                .estimate_stopping_batch(&queries, params, &mut StdRng::seed_from_u64(11))
                .unwrap()[0];
            let budgeted = run_fresh(
                &estimator,
                &queries,
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
                let plain = run_fresh(
                    &batch,
                    &queries,
                    params,
                    &budget,
                    &mut StdRng::seed_from_u64(29),
                )
                .unwrap();
                let budgeted = run_fresh(
                    &batch,
                    &queries,
                    params,
                    &dormant(),
                    &mut StdRng::seed_from_u64(29),
                )
                .unwrap();
                assert_eq!(
                    budgeted,
                    plain,
                    "spec {}, mode {:?}",
                    spec.short_name(),
                    params.mode
                );
                assert!(budgeted.converged());
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
            let partial = run_fresh(&batch, &queries, params, &budget, &mut rng).unwrap();
            assert_eq!(partial.total_draws, cut, "cut {cut}");
            assert!(partial
                .queries
                .iter()
                .any(|q| q.status == BudgetStatus::Cancelled));
            let resumed = batch
                .run(
                    &bank,
                    &queries,
                    params,
                    &RunBudget::unlimited(),
                    Some(&partial),
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
        let uninterrupted = run_fresh(
            &batch,
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
            let partial = run_fresh(&batch, &queries, params, &budget, &mut rng).unwrap();
            let enrolled = batch
                .run(
                    &bank,
                    &queries,
                    params,
                    &unlimited,
                    Some(&partial),
                    &mut rng,
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
        let one = run_fresh(
            &batch,
            &queries[..1],
            stopping_params(),
            &unlimited,
            &mut rng,
        )
        .unwrap();
        let mut three = one.clone();
        three.queries.extend([one.queries[0]; 2]);
        for prior in [&one, &three] {
            let resumed = batch.run(
                &bank,
                &queries,
                stopping_params(),
                &unlimited,
                Some(prior),
                &mut rng,
            );
            assert!(is_invalid(resumed), "{} prior entries", prior.queries.len());
        }
        // A prior of the right size resumes only a stopping-rule run.
        let two = run_fresh(&batch, &queries, stopping_params(), &unlimited, &mut rng).unwrap();
        let fixed = stopping_params().with_mode(EstimatorMode::FixedSamples(10));
        let resumed = batch.run(&bank, &queries, fixed, &unlimited, Some(&two), &mut rng);
        assert!(is_invalid(resumed));
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
        let prior = run_fresh(&batch, &queries, stopping_params(), &unlimited, &mut rng).unwrap();
        let resumed = batch.run(
            &short,
            &queries,
            stopping_params(),
            &unlimited,
            Some(&prior),
            &mut rng,
        );
        assert!(is_invalid(resumed));
        let fixed = stopping_params().with_mode(EstimatorMode::FixedSamples(10));
        assert!(is_invalid(
            batch.run(&short, &queries, fixed, &unlimited, None, &mut rng)
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
        let prior = run_fresh(&batch, &queries, stopping_params(), &unlimited, &mut rng).unwrap();
        let fixed = stopping_params().with_mode(EstimatorMode::FixedSamples(10));
        // Another candidate at one entry, and the entries swapped.
        let other_candidate = [BatchQuery::new(&lookup, &b2), BatchQuery::new(&member, &[])];
        let swapped = [BatchQuery::new(&member, &[]), BatchQuery::new(&lookup, &b1)];
        for foreign in [&other_candidate, &swapped] {
            assert!(is_invalid(
                batch.run(&bank, foreign, fixed, &unlimited, None, &mut rng)
            ));
            assert!(is_invalid(batch.run(
                &bank,
                foreign,
                stopping_params(),
                &unlimited,
                Some(&prior),
                &mut rng,
            )));
        }
        assert!(batch
            .run(&bank, &queries, fixed, &unlimited, None, &mut rng)
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
            let prior = run_fresh(
                &batch,
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
        let resumed = batch.run(
            &stale,
            &queries,
            stopping_params(),
            &unlimited,
            Some(&prior),
            &mut rng,
        );
        assert!(is_invalid(resumed));
        let fixed = stopping_params().with_mode(EstimatorMode::FixedSamples(10));
        assert!(is_invalid(
            batch.run(&stale, &queries, fixed, &unlimited, None, &mut rng)
        ));
        // The same bank refreshed against the database is accepted.
        let mut fresh = stale;
        let refs: Vec<(&QueryEvaluator, &[Value])> =
            queries.iter().map(|q| (q.evaluator, q.candidate)).collect();
        fresh.refresh(&db, &refs).unwrap();
        assert!(batch
            .run(&fresh, &queries, fixed, &unlimited, None, &mut rng)
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
            batch.run(&fresh, &queries, fixed, &unlimited, None, &mut rng)
        ));
        fresh.refresh(&db, &refs).unwrap();
        assert!(batch
            .run(&fresh, &queries, fixed, &unlimited, None, &mut rng)
            .is_ok());
    }

    /// What each spec's draw covers for the live entries of `live`.
    fn cover_of(batch: &BatchEstimator<'_>, bank: &LineageBank, live: &[usize]) -> Cover {
        Cover::of(batch, bank, &BankLiveSet::restrict(bank, live))
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
                BankExperiment::new(&batch, &bank, &queries, BankLiveSet::full(&bank));
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
            let expected = |witness_facts: &[usize]| match &batch.sampler {
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
        let mut experiment = BankExperiment::new(&batch, &bank, &queries, BankLiveSet::full(&bank));
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
        let degraded = run_fresh(
            &batch,
            &queries,
            params,
            &starved,
            &mut StdRng::seed_from_u64(5),
        )
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
        let estimator = BatchEstimator::new(&db, &sigma, spec).unwrap();
        let queries = [BatchQuery::new(&evaluator, &candidate)];
        for cut in [50u64, 500, 5_000] {
            let budget = RunBudget::unlimited().with_max_draws(cut);
            let outcome = run_fresh(
                &estimator,
                &queries,
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
        let plain = sharded_fresh(&batch, &queries, params, &RunBudget::unlimited(), 23).unwrap();
        let budgeted = sharded_fresh(&batch, &queries, params, &dormant(), 23).unwrap();
        assert_eq!(budgeted, plain);
        assert!(budgeted.converged());
        // A draw cap interrupts at a round boundary: a query that cannot
        // converge is cut after the first round instead of running to the
        // `max_samples` cut-off (queries that converged within the round
        // keep their values — the cap is round-granular).  The query has
        // a witness whose two facts share a key, so it is 0 without being
        // settled before the first round as a witness-free one would be.
        let never = parse_query(db.schema(), "Ans() :- R('a1', 'b1'), R('a1', 'b2')").unwrap();
        let never = QueryEvaluator::new(never);
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&never, &[])];
        let capped = sharded_fresh(
            &batch,
            &queries,
            params,
            &RunBudget::unlimited().with_max_draws(1),
            23,
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
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&evaluator, &b1)];
        for spec in all_specs() {
            let estimator = BatchEstimator::new(&db, &sigma, spec).unwrap();
            let samples = estimator
                .schedule(&queries, from_bound)
                .map(|schedule| schedule.cut_off);
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
        let rr = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
        assert!((rr.theoretical_lower_bound(&evaluator).to_f64() - 1.0 / 12.0).abs() < 1e-9);
        let uo1 = BatchEstimator::new(
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
            let fresh = BatchEstimator::new(&db, &sigma, spec).unwrap();
            let fresh = estimate_one(
                &fresh,
                &evaluator,
                &candidate,
                params,
                &mut StdRng::seed_from_u64(99),
            )
            .unwrap();
            let reused =
                BatchEstimator::with_conflict_index(&db, &sigma, spec, index.clone()).unwrap();
            let reused = estimate_one(
                &reused,
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
            let err = BatchEstimator::with_conflict_index(&db, &sigma, spec, index.clone());
            assert!(
                matches!(err, Err(CoreError::Unsupported { .. })),
                "spec {} must be rejected",
                spec.short_name()
            );
        }
    }
}
