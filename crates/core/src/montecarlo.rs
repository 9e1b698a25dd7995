//! Monte-Carlo estimation of Bernoulli means.
//!
//! The FPRAS drivers reduce every approximation task to estimating the
//! means of Bernoulli random variables ("does a sampled repair/sequence
//! entail the query?"), `k` of them at once from **one** shared sample
//! stream.  A single query is a stream with one variable.  Two loops run
//! the *optimal stopping rule* of Dagum, Karp, Luby and Ross (reference
//! \[8\] of the paper, see [`StoppingRuleEstimator`]), which achieves a
//! relative `(ε, δ)`-guarantee with an expected number of samples
//! proportional to `1/p`, without having to know a lower bound on `p` in
//! advance.  Each variable tracks its own success target and *retires*
//! from the per-draw work as it converges:
//!
//! * [`estimate_stopping_batch_budgeted`] — the sequential loop, which an
//!   interrupted run resumes from; [`estimate_stopping_batch`] is the
//!   same loop without a budget;
//! * `estimate_stopping_batch_rounds` (crate-private, `parallel` feature)
//!   — the same rule in rayon-sharded rounds.
//!
//! The textbook fixed-sample-size estimator, with the sample counts of
//! [`crate::bounds`] (additive or relative guarantees), is either loop
//! with a success target no variable reaches (`u64::MAX`) and the cut-off
//! at the sample count: every variable rides the stream to the cut-off
//! and reports its empirical mean.
//!
//! Both loops take a [`RunBudget`] — draw caps, wall-clock deadlines,
//! cooperative cancellation — that can stop the stream mid-flight and
//! reports a [`BudgetStatus`] alongside the partial outcome;
//! [`RunBudget::unlimited`] never interrupts.  Budget checks consume no
//! randomness and run *before* each draw (each round, when sharded), so
//! an unconstrained budget never changes the stream, and an interrupted
//! sequential run can be [resumed](estimate_stopping_batch_budgeted) from
//! the same RNG state to reproduce the uninterrupted stream bit-for-bit.

use crate::budget::{BudgetStatus, RunBudget};
use crate::CoreError;
use rand::Rng;
#[cfg(feature = "parallel")]
use rand::{rngs::StdRng, SeedableRng};
#[cfg(feature = "parallel")]
use rayon::prelude::*;

/// Default number of samples per parallel shard: large enough to amortise
/// per-shard setup (RNG seeding, scratch-buffer construction), small enough
/// to shard a few hundred thousand samples across many cores.
#[cfg(feature = "parallel")]
pub const DEFAULT_SHARD_SIZE: u64 = 4096;

/// Derives the RNG seed of shard `shard` from the master seed via a
/// SplitMix64 round, so shard streams are decorrelated and fully
/// determined by `(master_seed, shard)`.
#[cfg(feature = "parallel")]
fn shard_seed(master_seed: u64, shard: u64) -> u64 {
    let mut z =
        master_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A batched Bernoulli experiment driven by the sequential stopping-rule
/// loop ([`estimate_stopping_batch_budgeted`]).
///
/// The loop *retires* queries as they converge, and the experiment is
/// told about it so the per-draw work can shrink (the FPRAS driver drops a retired query's
/// witnesses out of the shared containment scan).
pub trait StoppingBatchExperiment<R: Rng + ?Sized> {
    /// Draws **one** shared sample and writes `hits[q] = true` iff query
    /// `q` is entailed by it, for every *live* query `q`.
    ///
    /// Entries of retired queries may be left stale — the driver never
    /// reads them.  The RNG must be consumed by the shared draw only
    /// (never per query), which is what keeps the sequential loop
    /// bit-identical to independent per-query stopping-rule runs.
    fn draw(&mut self, rng: &mut R, hits: &mut [bool]);

    /// Notification that `query` has reached its success target and will
    /// never be read again.  The default does nothing; implementations
    /// use it to compact their per-draw state.
    fn retire(&mut self, _query: usize) {}
}

/// The result of a batched stopping-rule run without a budget: one
/// outcome per query, plus the length of the shared sample stream (the
/// stream runs until the last live query retires or `max_samples`
/// truncates it).
#[derive(Debug, Clone, PartialEq)]
pub struct StoppingBatchOutcome {
    /// Per-query stopping-rule outcomes.  `outcomes[q].samples` is the
    /// length of the stream prefix query `q` observed before retiring
    /// (or the full stream length if it was truncated).
    pub outcomes: Vec<StoppingRuleOutcome>,
    /// Total number of shared samples drawn — the maximum of the
    /// per-query sample counts.
    pub total_samples: u64,
}

/// [`estimate_stopping_batch_budgeted`] under [`RunBudget::unlimited`],
/// from a fresh stream.
pub fn estimate_stopping_batch<R, E>(
    rng: &mut R,
    targets: &[u64],
    max_samples: u64,
    experiment: &mut E,
) -> StoppingBatchOutcome
where
    R: Rng + ?Sized,
    E: StoppingBatchExperiment<R>,
{
    let budgeted = estimate_stopping_batch_budgeted(
        rng,
        targets,
        max_samples,
        &RunBudget::unlimited(),
        experiment,
        None,
    );
    StoppingBatchOutcome {
        outcomes: budgeted.outcomes,
        total_samples: budgeted.total_samples,
    }
}

/// The result of a budgeted batched stopping-rule run: the per-query
/// outcomes of [`StoppingBatchOutcome`] plus one [`BudgetStatus`] per
/// query recording *why* that query's stream prefix ended.
///
/// A query is [`Converged`](BudgetStatus::Converged) iff it reached its
/// success target; converged queries keep their values even when the run
/// is later interrupted — only live queries degrade to
/// [`BudgetExhausted`](BudgetStatus::BudgetExhausted) or
/// [`Cancelled`](BudgetStatus::Cancelled) partial estimates.  The whole
/// value can be fed back as the `resume` argument of
/// [`estimate_stopping_batch_budgeted`] to continue the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetedStoppingOutcome {
    /// Per-query stopping-rule outcomes (partial for non-converged ones).
    pub outcomes: Vec<StoppingRuleOutcome>,
    /// Per-query termination statuses.
    pub statuses: Vec<BudgetStatus>,
    /// Total number of shared samples drawn, including the draws of a
    /// resumed prior run.
    pub total_samples: u64,
}

/// Drives **one** shared sample stream under `budget` until every query
/// has reached its success target `targets[q]` (or `max_samples`
/// truncates the stream), retiring queries as they converge; optionally
/// resumes an interrupted run.
///
/// Query `q` retires at the first draw `N_q` where its success count
/// reaches `targets[q]`, with estimate `targets[q] / N_q` — exactly the
/// Dagum–Karp–Luby–Ross stopping rule applied to the prefix of the shared
/// stream it observed.  Because the experiment's per-query checks consume
/// no randomness, that prefix is the *same* sample sequence a one-target
/// run would see from the same RNG state: the batched loop is
/// **bit-identical** to per-query stopping-rule runs (pass each query
/// `Υ(ε, δ/k)` to realise the union-bound guarantee over a bank of `k`).
///
/// Queries still live when `max_samples` is reached are flagged
/// [`truncated`](StoppingRuleOutcome::truncated) and report the plain
/// empirical mean; a zero-probability query therefore truncates without
/// stalling the retirement of the others — it merely keeps the stream
/// running to the cut-off while the per-draw live set shrinks around it.
///
/// The budget is polled *before* each draw and consumes no randomness, so
/// an interruption at draw `t` leaves the RNG having consumed exactly `t`
/// draws.  Feeding the returned outcome back as `resume` (with the *same*
/// RNG, now positioned after draw `t`) continues the shared stream where
/// it stopped: converged queries keep their frozen outcomes (their
/// retirement is re-announced to `experiment`), live queries pick their
/// success counts back up, and the concatenated run is bit-identical to
/// one uninterrupted run.
///
/// Draw counts are absolute across resumption: `max_samples`, a
/// [`max_draws`](RunBudget::with_max_draws) cap and a
/// [`tripped_at_draw`](crate::budget::CancelToken::tripped_at_draw) token
/// all refer to the total stream length, not to the draws of one call.
///
/// # Panics
/// Panics if `resume` covers a different number of queries than `targets`
/// (a programming error, not a runtime condition).
pub fn estimate_stopping_batch_budgeted<R, E>(
    rng: &mut R,
    targets: &[u64],
    max_samples: u64,
    budget: &RunBudget,
    experiment: &mut E,
    resume: Option<&BudgetedStoppingOutcome>,
) -> BudgetedStoppingOutcome
where
    R: Rng + ?Sized,
    E: StoppingBatchExperiment<R>,
{
    let k = targets.len();
    let mut outcomes = vec![
        StoppingRuleOutcome {
            estimate: 0.0,
            samples: 0,
            successes: 0,
            truncated: false,
        };
        k
    ];
    let statuses = vec![BudgetStatus::Converged; k];
    let mut successes = vec![0u64; k];
    let mut hits = vec![false; k];
    let mut live: Vec<usize> = Vec::with_capacity(k);
    let mut draws = 0u64;
    match resume {
        Some(prior) => {
            assert_eq!(
                prior.outcomes.len(),
                k,
                "resume outcome must cover the same queries as `targets`"
            );
            draws = prior.total_samples;
            for q in 0..k {
                successes[q] = prior.outcomes[q].successes;
                if prior.statuses[q] == BudgetStatus::Converged {
                    // Converged entries keep their frozen outcome; the
                    // experiment is told again so it can compact its
                    // per-draw state exactly as in the original run.
                    outcomes[q] = prior.outcomes[q];
                    experiment.retire(q);
                } else {
                    live.push(q);
                }
            }
        }
        None => live.extend(0..k),
    }
    let mut interrupt = None;
    while !live.is_empty() && draws < max_samples {
        if let Some(status) = budget.check(draws) {
            interrupt = Some(status);
            break;
        }
        draws += 1;
        experiment.draw(rng, &mut hits);
        let mut j = 0;
        while j < live.len() {
            let q = live[j];
            if hits[q] {
                successes[q] += 1;
                if successes[q] >= targets[q] {
                    outcomes[q] = StoppingRuleOutcome {
                        estimate: targets[q] as f64 / draws as f64,
                        samples: draws,
                        successes: successes[q],
                        truncated: false,
                    };
                    live.swap_remove(j);
                    experiment.retire(q);
                    continue;
                }
            }
            j += 1;
        }
    }
    truncate_live(outcomes, statuses, &live, &successes, draws, interrupt)
}

/// Closes a stopping-rule stream of `draws` draws: every query still in
/// `live` was cut off — by the budget's `interrupt` if it fired, by the
/// `max_samples` cut-off otherwise — and reports its empirical mean.
fn truncate_live(
    mut outcomes: Vec<StoppingRuleOutcome>,
    mut statuses: Vec<BudgetStatus>,
    live: &[usize],
    successes: &[u64],
    draws: u64,
    interrupt: Option<BudgetStatus>,
) -> BudgetedStoppingOutcome {
    let live_status = interrupt.unwrap_or(BudgetStatus::BudgetExhausted);
    for &q in live {
        outcomes[q] = StoppingRuleOutcome {
            estimate: if draws == 0 {
                0.0
            } else {
                successes[q] as f64 / draws as f64
            },
            samples: draws,
            successes: successes[q],
            truncated: true,
        };
        statuses[q] = live_status;
    }
    BudgetedStoppingOutcome {
        outcomes,
        statuses,
        total_samples: draws,
    }
}

/// The stopping rule of [`estimate_stopping_batch_budgeted`] in
/// rayon-sharded rounds: draws up to `round_samples` shared samples per
/// round, sharded across worker threads, then checks retirement at the
/// round boundary.
///
/// Shard `s` of the whole run — a global counter across rounds — runs
/// its own `StdRng` seeded deterministically from `(master_seed, s)` and
/// draws `shard_size` samples (fewer in the last shard of a round), so
/// per-shard scratch buffers are allocated once per shard, not once per
/// sample.  While every query is live, rounds of a whole number of shards
/// cut the stream into the same shards whatever the number of queries: a
/// fixed-count run (every target `u64::MAX`) over `k` queries counts
/// exactly what `k` one-query runs count.
///
/// `make_experiment` is called once per shard with the **current live
/// query list** and returns the shard's experiment closure, so a fresh
/// shard only pays for the queries that are still live.  The queries
/// listed in `settled` retire before the first round with estimate 0,
/// zero samples and status [`Converged`](BudgetStatus::Converged): the
/// caller knows their probability is exactly 0, so they neither hold the
/// stream open nor reach `make_experiment`'s live lists.
///
/// **Adaptive round size.**  Rounds shrink with the live set: a round
/// draws `⌈round_samples · live/k⌉` samples (never less than one shard,
/// never more than the remaining budget), so a long tail — one rare query
/// pinning the stream after the crowd has retired — checks its target at
/// proportionally finer boundaries instead of paying full-size rounds of
/// overshoot.  The schedule depends only on `(targets, round_samples,
/// shard_size)` and the summed per-round success counts, so it is as
/// thread-count-deterministic as the fixed schedule; retirement still
/// happens only at boundaries with at least the DKLR success target, so
/// the `(ε, δ)` guarantee is unchanged.
///
/// **Where bit-identity ends.**  Retirement is round-granular here: a
/// query that crosses its success target mid-round keeps observing draws
/// until the boundary, so its sample count — and hence its estimate, the
/// empirical mean `successes/samples` over at least `targets[q]`
/// successes — differs from the sequential loop's `target/N_q`.  The
/// round-based loop matches the sequential one in *guarantee*, not
/// bit-for-bit: each query stops with at least the DKLR success target at
/// a sample count at least as large, which preserves the relative
/// `(ε, δ)` bound (tested against the exact solver).  The outcome is still
/// **bit-identical across thread counts** for a fixed `master_seed`:
/// shard boundaries, shard seeds and the element-wise integer success sums
/// are all thread-count independent, and retirement decisions are made
/// from the summed per-round counts.
///
/// The budget is polled once per **round boundary** (consuming no
/// randomness), so cancellation here is round-granular: a deadline or
/// token observed at a boundary stops the run before the next round is
/// dispatched to the thread pool, and live queries report the empirical
/// mean over the rounds that completed.  The outcome stays bit-identical
/// across thread counts whenever the budget decisions themselves are
/// deterministic (draw caps and pre-tripped tokens are; a wall-clock
/// deadline is not, by nature).  Resumption is not offered on this path —
/// mid-round work cannot be replayed draw-by-draw.
///
/// Only available with the `parallel` feature (rayon).
#[cfg(feature = "parallel")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn estimate_stopping_batch_rounds<E, F>(
    master_seed: u64,
    targets: &[u64],
    max_samples: u64,
    round_samples: u64,
    shard_size: u64,
    budget: &RunBudget,
    settled: &[usize],
    make_experiment: F,
) -> BudgetedStoppingOutcome
where
    F: Fn(&[usize]) -> E + Sync,
    E: FnMut(&mut StdRng, &mut [bool]),
{
    let k = targets.len();
    let round_samples = round_samples.max(1);
    let shard_size = shard_size.max(1);
    let mut outcomes = vec![
        StoppingRuleOutcome {
            estimate: 0.0,
            samples: 0,
            successes: 0,
            truncated: false,
        };
        k
    ];
    let mut successes = vec![0u64; k];
    let mut live: Vec<usize> = (0..k).filter(|q| !settled.contains(q)).collect();
    let mut drawn = 0u64;
    let mut next_shard = 0u64;
    let mut interrupt = None;
    while !live.is_empty() && drawn < max_samples {
        if let Some(status) = budget.check(drawn) {
            interrupt = Some(status);
            break;
        }
        // Shrink the round proportionally to the live set (at least one
        // shard's worth), so late-stage boundaries are finer.
        let scaled = ((round_samples as u128 * live.len() as u128).div_ceil(k as u128)) as u64;
        let round = scaled
            .max(shard_size.min(round_samples))
            .min(max_samples - drawn);
        let shards = round.div_ceil(shard_size);
        let live_ref: &[usize] = &live;
        let round_successes = (0..shards)
            .into_par_iter()
            .map(|shard| {
                let mut rng = StdRng::seed_from_u64(shard_seed(master_seed, next_shard + shard));
                let mut experiment = make_experiment(live_ref);
                let count = shard_size.min(round - shard * shard_size);
                let mut hits = vec![false; k];
                let mut acc = vec![0u64; k];
                for _ in 0..count {
                    experiment(&mut rng, &mut hits);
                    for &q in live_ref {
                        if hits[q] {
                            acc[q] += 1;
                        }
                    }
                }
                acc
            })
            .reduce(
                || vec![0u64; k],
                |mut acc, shard| {
                    for (a, s) in acc.iter_mut().zip(&shard) {
                        *a += s;
                    }
                    acc
                },
            );
        next_shard += shards;
        drawn += round;
        live.retain(|&q| {
            successes[q] += round_successes[q];
            if successes[q] >= targets[q] {
                outcomes[q] = StoppingRuleOutcome {
                    estimate: successes[q] as f64 / drawn as f64,
                    samples: drawn,
                    successes: successes[q],
                    truncated: false,
                };
                false
            } else {
                true
            }
        });
    }
    let statuses = vec![BudgetStatus::Converged; k];
    truncate_live(outcomes, statuses, &live, &successes, drawn, interrupt)
}

/// The Stopping Rule Algorithm of Dagum–Karp–Luby–Ross: its success
/// target.
///
/// The rule draws samples until the number of successes reaches
/// `Υ = 1 + 4·(e − 2)·(1 + ε)·ln(2/δ)/ε²` and outputs `Υ / N`, where `N`
/// is the number of samples drawn.  The output is within relative error
/// `ε` of the true mean with probability at least `1 − δ`, and the
/// expected sample count is `O(Υ / p)`.  The loops that run it are
/// [`estimate_stopping_batch_budgeted`] (a single mean is a batch of one)
/// and its sharded twin.
///
/// Because the expected running time is inversely proportional to the true
/// mean, the loops enforce a `max_samples` cut-off; if it is reached they
/// return the empirical mean observed so far and flag the result as
/// truncated.
#[derive(Debug, Clone, Copy)]
pub struct StoppingRuleEstimator {
    epsilon: f64,
    delta: f64,
}

/// The outcome of a stopping-rule estimation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoppingRuleOutcome {
    /// The estimate of the Bernoulli mean.
    pub estimate: f64,
    /// The number of samples that were drawn.
    pub samples: u64,
    /// The number of positive samples among them.
    pub successes: u64,
    /// Whether the sample cut-off was hit before the success target
    /// (in which case the `(ε, δ)` guarantee does not apply; this happens
    /// exactly when the true mean is smaller than roughly
    /// `Υ / max_samples`).
    pub truncated: bool,
}

impl StoppingRuleEstimator {
    /// Creates an estimator with the given relative error `ε ∈ (0, 1)` and
    /// failure probability `δ ∈ (0, 1)`.
    ///
    /// # Panics
    /// Panics if the parameters are out of range — callers validate them as
    /// part of [`crate::fpras::ApproximationParams`]; use
    /// [`StoppingRuleEstimator::try_new`] for a typed error instead.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        match Self::try_new(epsilon, delta) {
            Ok(estimator) => estimator,
            Err(e) => panic!("{e}"),
        }
    }

    /// As [`StoppingRuleEstimator::new`], returning
    /// [`CoreError::InvalidParameters`] instead of panicking on
    /// out-of-range parameters.
    pub fn try_new(epsilon: f64, delta: f64) -> Result<Self, CoreError> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(CoreError::InvalidParameters {
                message: format!("epsilon must be in (0, 1), got {epsilon}"),
            });
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(CoreError::InvalidParameters {
                message: format!("delta must be in (0, 1), got {delta}"),
            });
        }
        Ok(StoppingRuleEstimator { epsilon, delta })
    }

    /// The success target `Υ` of the stopping rule.
    pub fn success_target(&self) -> u64 {
        let e = std::f64::consts::E;
        let upsilon = 1.0
            + 4.0 * (e - 2.0) * (1.0 + self.epsilon) * (2.0 / self.delta).ln()
                / (self.epsilon * self.epsilon);
        upsilon.ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A one-variable fixed run of `samples` Bernoulli(`p`) draws.
    /// A fixed run of `samples` shared draws, each variable a threshold
    /// over one uniform draw: the sequential loop with every target out
    /// of reach, cut off at `samples`.
    fn fixed_thresholds(
        rng: &mut StdRng,
        samples: u64,
        budget: &RunBudget,
        thresholds: &[f64],
    ) -> BudgetedStoppingOutcome {
        let targets = vec![u64::MAX; thresholds.len()];
        let mut experiment = ThresholdExperiment::new(thresholds);
        estimate_stopping_batch_budgeted(rng, &targets, samples, budget, &mut experiment, None)
    }

    fn successes(outcome: &BudgetedStoppingOutcome) -> Vec<u64> {
        outcome.outcomes.iter().map(|o| o.successes).collect()
    }

    fn estimates(outcome: &BudgetedStoppingOutcome) -> Vec<f64> {
        outcome.outcomes.iter().map(|o| o.estimate).collect()
    }

    #[test]
    fn fixed_estimator_recovers_the_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = fixed_thresholds(&mut rng, 40_000, &RunBudget::unlimited(), &[0.3]);
        let estimate = estimates(&outcome)[0];
        assert!((estimate - 0.3).abs() < 0.02);
        assert_eq!(outcome.total_samples, 40_000);
        assert_eq!(successes(&outcome)[0], (estimate * 40_000.0).round() as u64);
        // No target is reached: the variable rides the stream to the
        // cut-off.
        assert_eq!(outcome.outcomes[0].samples, 40_000);
    }

    #[test]
    fn fixed_estimator_with_zero_samples_is_zero() {
        let mut rng = StdRng::seed_from_u64(2);
        let outcome = fixed_thresholds(&mut rng, 0, &RunBudget::unlimited(), &[1.0]);
        assert_eq!(estimates(&outcome), vec![0.0]);
    }

    /// The stopping rule on one Bernoulli(`p`) variable: a one-target
    /// stopping batch.
    fn stopping_bernoulli(
        estimator: StoppingRuleEstimator,
        rng: &mut StdRng,
        max_samples: u64,
        p: f64,
    ) -> StoppingRuleOutcome {
        let mut experiment = ThresholdExperiment::new(&[p]);
        let target = [estimator.success_target()];
        estimate_stopping_batch(rng, &target, max_samples, &mut experiment).outcomes[0]
    }

    #[test]
    fn stopping_rule_achieves_relative_error() {
        let estimator = StoppingRuleEstimator::new(0.1, 0.05);
        let mut rng = StdRng::seed_from_u64(3);
        for &p in &[0.5, 0.1, 0.01] {
            let outcome = stopping_bernoulli(estimator, &mut rng, 50_000_000, p);
            assert!(!outcome.truncated);
            let relative_error = (outcome.estimate - p).abs() / p;
            assert!(
                relative_error < 0.15,
                "p = {p}: estimate {} (relative error {relative_error})",
                outcome.estimate
            );
        }
    }

    #[test]
    fn stopping_rule_uses_fewer_samples_for_larger_means() {
        let estimator = StoppingRuleEstimator::new(0.2, 0.1);
        let mut rng = StdRng::seed_from_u64(4);
        let big = stopping_bernoulli(estimator, &mut rng, 50_000_000, 0.5);
        let small = stopping_bernoulli(estimator, &mut rng, 50_000_000, 0.02);
        assert!(big.samples * 5 < small.samples);
    }

    #[test]
    fn stopping_rule_truncates_on_zero_probability_events() {
        let estimator = StoppingRuleEstimator::new(0.2, 0.1);
        let mut rng = StdRng::seed_from_u64(5);
        let outcome = stopping_bernoulli(estimator, &mut rng, 5_000, 0.0);
        assert!(outcome.truncated);
        assert_eq!(outcome.estimate, 0.0);
        assert_eq!(outcome.samples, 5_000);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn invalid_epsilon_panics() {
        let _ = StoppingRuleEstimator::new(1.5, 0.1);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_estimator_recovers_the_mean() {
        let outcome = parallel_thresholds(99, 80_000, DEFAULT_SHARD_SIZE, &[0.25]);
        assert_eq!(outcome.total_samples, 80_000);
        assert!((estimates(&outcome)[0] - 0.25).abs() < 0.01);
    }

    /// A one-variable sharded run of `samples` Bernoulli(`p`) draws.
    #[cfg(feature = "parallel")]
    /// As [`fixed_thresholds`] in sharded rounds of four shards, without
    /// a budget.
    #[cfg(feature = "parallel")]
    fn parallel_thresholds(
        master_seed: u64,
        samples: u64,
        shard_size: u64,
        thresholds: &[f64],
    ) -> BudgetedStoppingOutcome {
        let targets = vec![u64::MAX; thresholds.len()];
        let budget = RunBudget::unlimited();
        estimate_stopping_batch_rounds(
            master_seed,
            &targets,
            samples,
            4 * shard_size,
            shard_size,
            &budget,
            &[],
            |_live| {
                move |rng: &mut StdRng, hits: &mut [bool]| {
                    let draw: f64 = rng.random();
                    for (hit, &t) in hits.iter_mut().zip(thresholds) {
                        *hit = draw < t;
                    }
                }
            },
        )
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_estimator_is_thread_count_independent() {
        let run = || parallel_thresholds(7, 50_001, 1_000, &[0.4]);
        let baseline = run();
        for threads in [1usize, 2, 5, 16] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let outcome = pool.install(run);
            assert_eq!(outcome, baseline, "{threads} threads");
        }
    }

    #[test]
    fn batch_estimator_matches_independent_runs_per_variable() {
        // A shared experiment whose per-variable checks are deterministic
        // functions of one shared draw: batched counts must equal running
        // each variable independently from the same RNG state.
        let thresholds = [0.2f64, 0.5, 0.8];
        let budget = RunBudget::unlimited();
        let batched =
            fixed_thresholds(&mut StdRng::seed_from_u64(11), 10_000, &budget, &thresholds);
        assert_eq!(batched.total_samples, 10_000);
        for (i, &t) in thresholds.iter().enumerate() {
            let single = fixed_thresholds(&mut StdRng::seed_from_u64(11), 10_000, &budget, &[t]);
            assert_eq!(
                successes(&batched)[i],
                successes(&single)[0],
                "variable {i}"
            );
        }
        for (e, &t) in estimates(&batched).iter().zip(&thresholds) {
            assert!((e - t).abs() < 0.02);
        }
    }

    #[test]
    fn batch_estimator_with_zero_samples_or_queries() {
        let mut rng = StdRng::seed_from_u64(1);
        let budget = RunBudget::unlimited();
        let mut untouched = rng.clone();
        let zero = fixed_thresholds(&mut rng, 0, &budget, &[0.2, 0.5, 0.8]);
        assert_eq!(successes(&zero), vec![0, 0, 0]);
        assert_eq!(estimates(&zero), vec![0.0, 0.0, 0.0]);
        // An empty bank draws nothing either, whatever the cut-off.
        let empty = fixed_thresholds(&mut rng, 5, &budget, &[]);
        assert!(empty.outcomes.is_empty());
        assert_eq!(empty.total_samples, 0);
        assert_eq!(rng.random::<u64>(), untouched.random::<u64>(), "no draws");
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_batch_matches_independent_parallel_runs() {
        let thresholds = [0.3f64, 0.7];
        let batched = parallel_thresholds(42, 30_001, 1_000, &thresholds);
        for (i, &t) in thresholds.iter().enumerate() {
            let single = parallel_thresholds(42, 30_001, 1_000, &[t]);
            assert_eq!(
                successes(&batched)[i],
                successes(&single)[0],
                "variable {i}"
            );
        }
        // Thread-count independence.
        for threads in [1usize, 2, 7] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let outcome = pool.install(|| parallel_thresholds(42, 30_001, 1_000, &thresholds));
            assert_eq!(outcome, batched, "{threads} threads");
        }
    }

    /// A batched experiment whose per-query checks are thresholds over one
    /// shared uniform draw; records retirement notifications.
    struct ThresholdExperiment {
        thresholds: Vec<f64>,
        retired: Vec<usize>,
    }

    impl ThresholdExperiment {
        fn new(thresholds: &[f64]) -> Self {
            ThresholdExperiment {
                thresholds: thresholds.to_vec(),
                retired: Vec::new(),
            }
        }
    }

    impl<R: Rng + ?Sized> StoppingBatchExperiment<R> for ThresholdExperiment {
        fn draw(&mut self, rng: &mut R, hits: &mut [bool]) {
            let draw: f64 = rng.random();
            for (hit, &t) in hits.iter_mut().zip(&self.thresholds) {
                *hit = draw < t;
            }
        }

        fn retire(&mut self, query: usize) {
            self.retired.push(query);
        }
    }

    #[test]
    fn stopping_batch_is_bit_identical_to_independent_stopping_runs() {
        // Per-query targets over one shared stream: each query's outcome
        // must equal a standalone stopping-rule run with the same target
        // from the same RNG state (the draws it observes are identical).
        let thresholds = [0.6f64, 0.25, 0.05];
        let targets: Vec<u64> = vec![40, 25, 10];
        let mut experiment = ThresholdExperiment::new(&thresholds);
        let mut rng = StdRng::seed_from_u64(21);
        let batched = estimate_stopping_batch(&mut rng, &targets, 1_000_000, &mut experiment);
        assert_eq!(batched.outcomes.len(), 3);
        for (q, (&t, &target)) in thresholds.iter().zip(&targets).enumerate() {
            let mut rng = StdRng::seed_from_u64(21);
            let mut samples = 0u64;
            let mut successes = 0u64;
            while successes < target {
                samples += 1;
                let draw: f64 = rng.random();
                if draw < t {
                    successes += 1;
                }
            }
            let outcome = batched.outcomes[q];
            assert!(!outcome.truncated, "query {q}");
            assert_eq!(outcome.samples, samples, "query {q}");
            assert_eq!(outcome.successes, target, "query {q}");
            assert_eq!(
                outcome.estimate,
                target as f64 / samples as f64,
                "query {q}"
            );
        }
        // Rarer queries observe longer stream prefixes; the stream length
        // is the maximum.
        assert!(batched.outcomes[0].samples <= batched.outcomes[1].samples);
        assert!(batched.outcomes[1].samples <= batched.outcomes[2].samples);
        assert_eq!(batched.total_samples, batched.outcomes[2].samples);
        // Every converged query was retired, in convergence order.
        assert_eq!(experiment.retired, vec![0, 1, 2]);
    }

    #[test]
    fn stopping_batch_truncates_impossible_queries_without_stalling_others() {
        let thresholds = [0.5f64, 0.0];
        let targets = vec![30u64, 30];
        let mut experiment = ThresholdExperiment::new(&thresholds);
        let mut rng = StdRng::seed_from_u64(5);
        let batched = estimate_stopping_batch(&mut rng, &targets, 2_000, &mut experiment);
        let easy = batched.outcomes[0];
        assert!(!easy.truncated);
        assert!(easy.samples < 2_000, "the easy query retires early");
        let never = batched.outcomes[1];
        assert!(never.truncated);
        assert_eq!(never.samples, 2_000);
        assert_eq!(never.successes, 0);
        assert_eq!(never.estimate, 0.0);
        assert_eq!(batched.total_samples, 2_000);
        assert_eq!(experiment.retired, vec![0]);
    }

    #[test]
    fn stopping_batch_with_empty_bank_draws_nothing() {
        let mut experiment = ThresholdExperiment::new(&[]);
        let mut rng = StdRng::seed_from_u64(1);
        let batched = estimate_stopping_batch(&mut rng, &[], 1_000, &mut experiment);
        assert!(batched.outcomes.is_empty());
        assert_eq!(batched.total_samples, 0);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn stopping_batch_rounds_achieves_relative_error_and_retires() {
        let thresholds = [0.5f64, 0.02];
        let estimator = StoppingRuleEstimator::new(0.1, 0.05);
        let targets = vec![estimator.success_target(); 2];
        let run = || {
            let budget = RunBudget::unlimited();
            estimate_stopping_batch_rounds(
                33,
                &targets,
                10_000_000,
                2_048,
                512,
                &budget,
                &[],
                |_| {
                    move |rng: &mut StdRng, hits: &mut [bool]| {
                        let draw: f64 = rng.random();
                        for (hit, &t) in hits.iter_mut().zip(&thresholds) {
                            *hit = draw < t;
                        }
                    }
                },
            )
        };
        let batched = run();
        for (q, &t) in thresholds.iter().enumerate() {
            let outcome = batched.outcomes[q];
            assert!(!outcome.truncated, "query {q}");
            assert!(outcome.successes >= targets[q], "query {q}");
            let relative_error = (outcome.estimate - t).abs() / t;
            assert!(
                relative_error < 0.15,
                "query {q}: estimate {} (relative error {relative_error})",
                outcome.estimate
            );
        }
        // The common query retires rounds earlier than the rare one.
        assert!(batched.outcomes[0].samples < batched.outcomes[1].samples);
        assert_eq!(batched.total_samples, batched.outcomes[1].samples);
        // Bit-identical across thread counts.
        for threads in [1usize, 2, 7] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let outcome = pool.install(run);
            assert_eq!(outcome, batched, "{threads} threads");
        }
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn stopping_batch_rounds_shrink_with_the_live_set() {
        use std::sync::Mutex;

        // One common query retiring in round one, one rare query riding a
        // long tail.  With shard_size == round_samples / 2, a full round
        // runs as two shards and a half-sized tail round as one, so the
        // live-set sizes recorded per `make_experiment` call reveal the
        // schedule.
        let thresholds = [0.9f64, 0.02];
        let target = StoppingRuleEstimator::new(0.3, 0.1).success_target();
        let targets = vec![target; 2];
        let live_sizes: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let budget = RunBudget::unlimited();
        let batched = estimate_stopping_batch_rounds(
            9,
            &targets,
            1_000_000,
            1_000,
            500,
            &budget,
            &[],
            |live| {
                live_sizes.lock().unwrap().push(live.len());
                move |rng: &mut StdRng, hits: &mut [bool]| {
                    let draw: f64 = rng.random();
                    for (hit, &t) in hits.iter_mut().zip(&thresholds) {
                        *hit = draw < t;
                    }
                }
            },
        );
        let easy = batched.outcomes[0];
        assert!(!easy.truncated);
        assert_eq!(easy.samples, 1_000, "the common query retires in round one");
        let rare = batched.outcomes[1];
        assert!(!rare.truncated);
        assert!(rare.samples > 1_000);
        // After the first retirement rounds shrink to ⌈1000 · 1/2⌉ = 500.
        assert_eq!(
            (rare.samples - 1_000) % 500,
            0,
            "tail rounds are half-sized: {} samples",
            rare.samples
        );
        let sizes = live_sizes.into_inner().unwrap();
        assert_eq!(&sizes[..2], &[2, 2], "the full first round runs two shards");
        assert!(sizes[2..].iter().all(|&s| s == 1), "{sizes:?}");
        assert_eq!(
            sizes.len() as u64,
            2 + (rare.samples - 1_000) / 500,
            "one shard per tail round: {sizes:?}"
        );
        // The adaptive schedule stays bit-identical across thread counts.
        let rerun = || {
            estimate_stopping_batch_rounds(9, &targets, 1_000_000, 1_000, 500, &budget, &[], |_| {
                move |rng: &mut StdRng, hits: &mut [bool]| {
                    let draw: f64 = rng.random();
                    for (hit, &t) in hits.iter_mut().zip(&thresholds) {
                        *hit = draw < t;
                    }
                }
            })
        };
        for threads in [1usize, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            assert_eq!(pool.install(rerun), batched, "{threads} threads");
        }
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn stopping_batch_rounds_truncates_at_the_cut_off() {
        let targets = vec![10u64];
        let budget = RunBudget::unlimited();
        let batched =
            estimate_stopping_batch_rounds(1, &targets, 1_000, 256, 64, &budget, &[], |_| {
                |_rng: &mut StdRng, hits: &mut [bool]| hits.fill(false)
            });
        assert!(batched.outcomes[0].truncated);
        assert_eq!(batched.outcomes[0].samples, 1_000);
        assert_eq!(batched.total_samples, 1_000);
    }

    #[test]
    fn unbudgeted_and_unlimited_budget_fixed_runs_are_bit_identical() {
        // The plain loop: draw 5 000 times, count the successes.
        let plain = {
            let mut rng = StdRng::seed_from_u64(77);
            (0..5_000).filter(|_| rng.random::<f64>() < 0.3).count() as u64
        };
        let budgeted = fixed_thresholds(
            &mut StdRng::seed_from_u64(77),
            5_000,
            &RunBudget::unlimited(),
            &[0.3],
        );
        assert_eq!(budgeted.total_samples, 5_000);
        assert_eq!(successes(&budgeted), vec![plain]);
        assert_eq!(budgeted.outcomes[0].samples, 5_000, "ran to the cut-off");
    }

    #[test]
    fn budgeted_fixed_run_stops_at_the_draw_cap() {
        let mut rng = StdRng::seed_from_u64(77);
        let budget = RunBudget::unlimited().with_max_draws(100);
        let outcome = fixed_thresholds(&mut rng, 5_000, &budget, &[0.3]);
        assert_eq!(outcome.statuses, vec![BudgetStatus::BudgetExhausted]);
        assert_eq!(outcome.total_samples, 100);
        // Exactly 100 draws were consumed: the next draw continues the
        // uninterrupted stream.
        let unlimited = RunBudget::unlimited();
        let continued = fixed_thresholds(&mut rng, 4_900, &unlimited, &[0.3]);
        let full = fixed_thresholds(&mut StdRng::seed_from_u64(77), 5_000, &unlimited, &[0.3]);
        assert_eq!(
            successes(&outcome)[0] + successes(&continued)[0],
            successes(&full)[0]
        );
    }

    #[test]
    fn budgeted_batch_run_cancels_mid_stream() {
        let token = crate::budget::CancelToken::tripped_at_draw(42);
        let budget = RunBudget::unlimited().with_cancel_token(token);
        let mut rng = StdRng::seed_from_u64(3);
        let outcome = fixed_thresholds(&mut rng, 10_000, &budget, &[0.2, 0.8]);
        assert_eq!(outcome.statuses, vec![BudgetStatus::Cancelled; 2]);
        assert_eq!(outcome.total_samples, 42);
    }

    #[test]
    fn budgeted_stopping_batch_with_unlimited_budget_matches_plain() {
        let thresholds = [0.6f64, 0.25, 0.05];
        let targets: Vec<u64> = vec![40, 25, 10];
        let plain = {
            let mut experiment = ThresholdExperiment::new(&thresholds);
            let mut rng = StdRng::seed_from_u64(21);
            estimate_stopping_batch(&mut rng, &targets, 1_000_000, &mut experiment)
        };
        let budgeted = {
            let mut experiment = ThresholdExperiment::new(&thresholds);
            let mut rng = StdRng::seed_from_u64(21);
            estimate_stopping_batch_budgeted(
                &mut rng,
                &targets,
                1_000_000,
                &RunBudget::unlimited(),
                &mut experiment,
                None,
            )
        };
        assert_eq!(budgeted.outcomes, plain.outcomes);
        assert_eq!(budgeted.total_samples, plain.total_samples);
        assert!(budgeted.statuses.iter().all(|s| s.is_converged()));
    }

    #[test]
    fn cancelled_stopping_batch_resumes_bit_for_bit() {
        let thresholds = [0.6f64, 0.25, 0.05];
        let targets: Vec<u64> = vec![40, 25, 10];
        let uninterrupted = {
            let mut experiment = ThresholdExperiment::new(&thresholds);
            let mut rng = StdRng::seed_from_u64(21);
            estimate_stopping_batch(&mut rng, &targets, 1_000_000, &mut experiment)
        };
        // Cancel mid-stream at several truncation points, then resume with
        // the same RNG: the concatenated run must equal the uninterrupted
        // one bit-for-bit.
        for trip_at in [1u64, 17, 60, 150] {
            let mut experiment = ThresholdExperiment::new(&thresholds);
            let mut rng = StdRng::seed_from_u64(21);
            let budget = RunBudget::unlimited()
                .with_cancel_token(crate::budget::CancelToken::tripped_at_draw(trip_at));
            let partial = estimate_stopping_batch_budgeted(
                &mut rng,
                &targets,
                1_000_000,
                &budget,
                &mut experiment,
                None,
            );
            assert_eq!(partial.total_samples, trip_at);
            for (q, status) in partial.statuses.iter().enumerate() {
                if !status.is_converged() {
                    assert_eq!(*status, BudgetStatus::Cancelled, "query {q} at {trip_at}");
                    assert!(partial.outcomes[q].truncated);
                }
            }
            let resumed = estimate_stopping_batch_budgeted(
                &mut rng,
                &targets,
                1_000_000,
                &RunBudget::unlimited(),
                &mut experiment,
                Some(&partial),
            );
            assert_eq!(
                resumed.outcomes, uninterrupted.outcomes,
                "trip at {trip_at}"
            );
            assert_eq!(resumed.total_samples, uninterrupted.total_samples);
            assert!(resumed.statuses.iter().all(|s| s.is_converged()));
        }
    }

    #[test]
    fn stopping_rule_budgeted_matches_plain_and_reports_cancellation() {
        // A single mean is a one-target stopping batch.
        let estimator = StoppingRuleEstimator::new(0.2, 0.1);
        let target = [estimator.success_target()];
        let budgeted = |budget: &RunBudget| {
            let mut experiment = ThresholdExperiment::new(&[0.4]);
            let mut rng = StdRng::seed_from_u64(13);
            estimate_stopping_batch_budgeted(
                &mut rng,
                &target,
                50_000_000,
                budget,
                &mut experiment,
                None,
            )
        };
        let plain = stopping_bernoulli(estimator, &mut StdRng::seed_from_u64(13), 50_000_000, 0.4);
        let unlimited = budgeted(&RunBudget::unlimited());
        assert_eq!(unlimited.outcomes, vec![plain]);
        assert_eq!(unlimited.statuses, vec![BudgetStatus::Converged]);
        let budget = RunBudget::unlimited()
            .with_cancel_token(crate::budget::CancelToken::tripped_at_draw(7));
        let partial = budgeted(&budget);
        assert_eq!(partial.statuses, vec![BudgetStatus::Cancelled]);
        assert!(partial.outcomes[0].truncated);
        assert_eq!(partial.outcomes[0].samples, 7);
    }

    #[test]
    fn try_new_rejects_out_of_range_parameters() {
        assert!(StoppingRuleEstimator::try_new(0.0, 0.1).is_err());
        assert!(StoppingRuleEstimator::try_new(0.1, 1.0).is_err());
        assert!(StoppingRuleEstimator::try_new(f64::NAN, 0.1).is_err());
        assert!(StoppingRuleEstimator::try_new(0.1, 0.1).is_ok());
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn budgeted_rounds_with_unlimited_budget_match_plain_rounds() {
        // A budget whose checks run but never fire (an untripped token, a
        // draw cap past the cut-off) leaves the rounds as they are without
        // one.
        let thresholds = [0.5f64, 0.02];
        let targets = vec![StoppingRuleEstimator::new(0.1, 0.05).success_target(); 2];
        let experiment = |_live: &[usize]| {
            move |rng: &mut StdRng, hits: &mut [bool]| {
                let draw: f64 = rng.random();
                for (hit, &t) in hits.iter_mut().zip(&thresholds) {
                    *hit = draw < t;
                }
            }
        };
        let run = |budget: &RunBudget| {
            estimate_stopping_batch_rounds(
                33,
                &targets,
                10_000_000,
                2_048,
                512,
                budget,
                &[],
                experiment,
            )
        };
        let plain = run(&RunBudget::unlimited());
        let dormant = RunBudget::unlimited()
            .with_cancel_token(crate::budget::CancelToken::new())
            .with_max_draws(20_000_000);
        assert_eq!(run(&dormant), plain);
        assert!(plain.statuses.iter().all(|s| s.is_converged()));
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn budgeted_rounds_cancel_at_round_boundaries() {
        let targets = vec![1_000u64];
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let budget = RunBudget::unlimited().with_cancel_token(token);
        let cancelled = estimate_stopping_batch_rounds(
            1,
            &targets,
            1_000_000,
            256,
            64,
            &budget,
            &[],
            |_live| |rng: &mut StdRng, hits: &mut [bool]| hits.fill(rng.random_bool(0.5)),
        );
        // A pre-tripped token fires at the first boundary: nothing drawn.
        assert_eq!(cancelled.total_samples, 0);
        assert_eq!(cancelled.statuses, vec![BudgetStatus::Cancelled]);
        assert!(cancelled.outcomes[0].truncated);
        let capped = estimate_stopping_batch_rounds(
            1,
            &targets,
            1_000_000,
            256,
            64,
            &RunBudget::unlimited().with_max_draws(300),
            &[],
            |_live| |rng: &mut StdRng, hits: &mut [bool]| hits.fill(rng.random_bool(0.001)),
        );
        // The cap is observed at the next boundary after 300 draws.
        assert_eq!(capped.statuses, vec![BudgetStatus::BudgetExhausted]);
        assert!(capped.total_samples >= 300);
        assert!(capped.outcomes[0].truncated);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_estimator_handles_edge_sample_counts() {
        let zero = parallel_thresholds(1, 0, 64, &[1.0]);
        assert_eq!(estimates(&zero), vec![0.0]);
        assert_eq!(zero.total_samples, 0);
        let one = parallel_thresholds(1, 1, 64, &[1.0]);
        assert_eq!(successes(&one), vec![1]);
    }
}
