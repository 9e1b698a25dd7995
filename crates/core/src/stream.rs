//! Sliding-window continuous CQA: windowed estimation with
//! converged-draw reuse.
//!
//! The FPRAS of the paper answers a bank of queries over one *static*
//! database.  [`WindowedEstimator`] runs the same machinery over a fact
//! *stream*: it owns a [`Database`] together with its maintained
//! [`ConflictIndex`] and compiled [`LineageBank`], accepts **ticks** of
//! `(inserts, retracts)`, slides facts out of a count- or tick-based
//! [`WindowSpec`] as [`Database::retract`]-style tombstones, and brings
//! every derived structure up to date by replaying the database changelog
//! (the PR 8 delta paths) instead of rebuilding.
//!
//! **Draw reuse.**  Re-estimating the whole bank from draw zero after
//! every tick would waste the dominant cost of the pipeline on queries
//! the tick did not touch.  Each bank entry carries a fingerprint
//! ([`LineageBank::entry_fingerprint`]: a hash of its sorted witness
//! id-lists, each witness fact paired with the digest of its conflict
//! component); after a tick, entries whose fingerprint is unchanged keep
//! their converged [`QueryOutcome`] **verbatim** (bit-identical, zero
//! draws), and only changed entries re-enter the shared stopping loop
//! through the enrollment path
//! (the `prior` of [`BatchEstimator::run`], whose live set
//! holds exactly the entries not yet converged — the dual of the
//! retirement the loop performs as queries converge).
//!
//! A reused outcome is the estimate the entry converged to when it last
//! changed, carried forward across ticks that provably did not move its
//! answer probability.  The fingerprint covers both the witness sets
//! *and* the composition of each witness fact's conflict block: a fact
//! that joins a witness's block without matching any query atom leaves
//! the lineage intact but changes the repair distribution, so it must
//! (and does) re-enroll the entry.  Under uniform repairs and uniform
//! operations the per-component repair marginals are independent of the
//! rest of the database, so the per-entry fingerprint is a sound reuse
//! gate on its own; under uniform **sequences** the marginals also
//! depend on how sequences of *other* components interleave, so any tick
//! that changes the conflict-component structure anywhere
//! ([`ConflictIndex::structure_fingerprint`]) re-enrolls the whole bank.
//! Consistent churn — facts that conflict with nothing sliding in and
//! out — never disturbs reuse under any semantics.
//!
//! Within one tick the estimate stream is tick-local and interruptible:
//! a [`RunBudget`] can cut it, and calling
//! [`WindowedEstimator::estimate`] again with the same RNG resumes it
//! bit-for-bit (the same resume guarantee as the static batched paths).
//!
//! The windowed state is property-tested indistinguishable from a
//! from-scratch rebuild of the live window after every tick (conflict
//! index, bank witness sets, and same-seed estimates), and the
//! enrollment mechanism doubles as the concurrent-admission groundwork
//! for a long-running estimation service: admitting a new query to a
//! draining bank is the same operation as re-admitting a changed one.

use std::collections::HashSet;
use std::sync::Arc;

use rand::Rng;

use ucqa_db::{ConflictIndex, Database, Fact, FactId, FdSet, StatsSnapshot, Value};
use ucqa_query::{BankQueryRef, LineageBank, QueryEvaluator};
use ucqa_repair::{GeneratorSpec, UniformSemantics};

use crate::budget::{AchievedBound, BudgetStatus, EstimateOutcome, QueryOutcome, RunBudget};
use crate::fpras::{ApproximationParams, BatchEstimator, BatchQuery};
use crate::CoreError;

/// How facts expire from the sliding window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// No expiry: facts stay live until explicitly retracted.
    Unbounded,
    /// A count-bounded window: after each tick at most this many facts
    /// stay live, oldest (lowest live fact id — insertion order) expiring
    /// first.
    Count(usize),
    /// A tick-bounded window: a fact arriving at tick `t` stays live
    /// through tick `t + lifetime - 1` and expires at tick
    /// `t + lifetime`.  Facts present at construction arrive at tick 0.
    Ticks(usize),
}

/// What one [`WindowedEstimator::tick`] did to the window and its
/// derived state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickReport {
    /// The tick number (the first call to `tick` is tick 1).
    pub tick: u64,
    /// Facts inserted this tick.
    pub inserted: usize,
    /// Explicit retractions that hit a live fact (retraction is
    /// idempotent; misses are not counted).
    pub retracted: usize,
    /// Fact ids the window slid out, oldest first.
    pub expired: Vec<FactId>,
    /// Changelog entries the index/bank refreshes replayed.
    pub replayed: usize,
    /// Per bank entry: `true` iff its fingerprint — witness sets plus
    /// the composition of each witness fact's conflict component (see
    /// [`LineageBank::entry_fingerprint`]) — changed, i.e. its answer
    /// probability may have moved and its converged outcome cannot be
    /// reused.  Under uniform-sequences generators any change to the
    /// conflict-component structure flags every entry (the marginals do
    /// not factorize across components).
    pub changed: Vec<bool>,
    /// Per bank entry: `true` iff the next [`WindowedEstimator::estimate`]
    /// will re-enter it into the stopping loop (changed this tick, still
    /// enrolled from an earlier tick, or never fully estimated).
    pub enrolled: Vec<bool>,
}

/// The result of one windowed estimation pass.
#[derive(Debug, Clone, PartialEq)]
pub struct TickOutcome {
    /// Per-query outcomes: reused entries verbatim from the last
    /// converged pass, enrolled entries freshly (re-)estimated.
    pub outcome: EstimateOutcome,
    /// Per bank entry: `true` iff its converged outcome was carried over
    /// verbatim without consuming a single draw.
    pub reused: Vec<bool>,
    /// Draws consumed by **this tick's** stream (`outcome.total_draws`
    /// is tick-local; an all-reused pass reports zero).
    pub tick_draws: u64,
}

/// A continuous-query estimator over a sliding window of a fact stream.
///
/// See the [module documentation](self) for the design.  The lifecycle
/// is `new → (tick → estimate)*`; [`WindowedEstimator::estimate`] may be
/// called repeatedly between ticks (an interrupted pass resumes, a
/// converged pass returns verbatim at zero draws).
///
/// `params` should be held fixed across the stream: reused outcomes
/// carry the `(ε, δ/k)` they converged under, so a call with different
/// params drops the reuse baseline and re-estimates the whole bank.
pub struct WindowedEstimator {
    db: Database,
    sigma: FdSet,
    spec: GeneratorSpec,
    window: WindowSpec,
    /// Shared with the estimator of each pass, so a pass borrows the
    /// index instead of copying it; refreshed through [`Arc::make_mut`],
    /// which copies nothing once the pass's estimator is dropped.
    conflict: Arc<ConflictIndex>,
    queries: Vec<(QueryEvaluator, Vec<Value>)>,
    bank: LineageBank,
    /// Per-entry fingerprints current with `bank` and `conflict` (see
    /// [`LineageBank::entry_fingerprint`]) — what the next tick's
    /// refresh compares against.  Cached because the conflict structure
    /// they were computed under no longer exists once a tick has mutated
    /// the database.
    fingerprints: Vec<Option<u64>>,
    /// The [`ConflictIndex::structure_fingerprint`] current with
    /// `conflict` — the global freshness gate for uniform-sequences
    /// generators, and only read under them.
    structure: u64,
    /// The last fully-converged estimation pass over the current (or an
    /// earlier, fingerprint-equivalent) window state.
    prior: Option<EstimateOutcome>,
    /// An interrupted tick-local pass, resumable until the next mutating
    /// tick.
    pending: Option<EstimateOutcome>,
    /// The params `prior`/`pending` were produced under; estimating with
    /// different params restarts the whole bank.
    baseline_params: Option<ApproximationParams>,
    /// Sticky per-entry re-admission flags: set when a tick changes an
    /// entry's fingerprint (or at construction), cleared only when a
    /// pass converges for every entry.
    enrolled: Vec<bool>,
    tick: u64,
    /// Arrival ticks of live facts, in insertion order; only maintained
    /// for [`WindowSpec::Ticks`].
    arrivals: std::collections::VecDeque<(u64, FactId)>,
    /// The [`RelationIndex`](ucqa_db::RelationIndex) statistics the
    /// current query plans were costed against.  Steady-state ticks keep
    /// the compiled plans (and therefore the bit-identical reuse path);
    /// a tick whose maintained stats drift by more than
    /// [`REPLAN_DRIFT_FACTOR`] against this snapshot re-costs every
    /// evaluator before the next enumeration.
    planning_stats: StatsSnapshot,
    /// How many times the stream has re-costed its plans (see
    /// [`WindowedEstimator::replans`]).
    replans: u64,
}

/// A maintained statistic (relation cardinality or longest posting run)
/// must move by more than this factor against the snapshot the current
/// plans were costed under before a tick triggers a replan.  2× is
/// deliberately coarse: the greedy cost order only changes when relative
/// selectivities shift materially, and replanning on every tick would
/// re-cost plans whose order cannot have moved.
pub const REPLAN_DRIFT_FACTOR: f64 = 2.0;

impl WindowedEstimator {
    /// Creates a windowed estimator over an initial database state,
    /// taking ownership of the window's single source of truth.
    ///
    /// Validates the generator/constraint combination up front (the same
    /// table as [`BatchEstimator::new`]), builds the conflict index,
    /// compiles the bank, and applies the window to the initial facts
    /// (a count window narrower than the initial database expires the
    /// oldest facts immediately; under a tick window the initial facts
    /// arrive at tick 0).
    pub fn new(
        db: Database,
        sigma: FdSet,
        spec: GeneratorSpec,
        window: WindowSpec,
        queries: Vec<(QueryEvaluator, Vec<Value>)>,
    ) -> Result<Self, CoreError> {
        if window == WindowSpec::Ticks(0) {
            return Err(CoreError::InvalidParameters {
                message: "a tick window needs a lifetime of at least one tick \
                          (WindowSpec::Ticks(0) would expire every fact on arrival)"
                    .to_string(),
            });
        }
        let mut db = db;
        let arrivals: std::collections::VecDeque<(u64, FactId)> =
            if matches!(window, WindowSpec::Ticks(_)) {
                db.fact_ids().map(|id| (0, id)).collect()
            } else {
                Default::default()
            };
        // Apply the window to the initial state.  A tick window never
        // expires anything at tick 0 (lifetime ≥ 1).
        if let WindowSpec::Count(keep) = window {
            db.expire_oldest(keep)?;
        }
        let conflict = Arc::new(ConflictIndex::build(&db, &sigma));
        let refs = Self::query_refs(&queries);
        let bank = LineageBank::compile(&db, &refs)?;
        drop(refs);
        let fingerprints = bank.fingerprints(&conflict);
        let structure = conflict.structure_fingerprint();
        let enrolled = vec![true; queries.len()];
        let planning_stats = db.relation_index().stats_snapshot();
        let this = WindowedEstimator {
            db,
            sigma,
            spec,
            window,
            conflict,
            queries,
            bank,
            fingerprints,
            structure,
            prior: None,
            pending: None,
            baseline_params: None,
            enrolled,
            tick: 0,
            arrivals,
            planning_stats,
            replans: 0,
        };
        // Validate the generator/constraint combination now rather than
        // at the first estimate.
        this.estimator()?;
        Ok(this)
    }

    fn query_refs(queries: &[(QueryEvaluator, Vec<Value>)]) -> Vec<BankQueryRef<'_>> {
        queries.iter().map(|(e, c)| (e, c.as_slice())).collect()
    }

    /// The estimator of the current window state.  The uniform-operations
    /// walk reuses the maintained conflict index (bit-identical to a
    /// fresh build, per the PR 8 property tests); the repair and sequence
    /// samplers derive their own block structure from the database.
    fn estimator(&self) -> Result<BatchEstimator<'_>, CoreError> {
        if self.spec.semantics == UniformSemantics::Operations {
            BatchEstimator::with_conflict_index(
                &self.db,
                &self.sigma,
                self.spec,
                Arc::clone(&self.conflict),
            )
        } else {
            BatchEstimator::new(&self.db, &self.sigma, self.spec)
        }
    }

    fn expire(&mut self) -> Result<Vec<FactId>, CoreError> {
        match self.window {
            WindowSpec::Unbounded => Ok(Vec::new()),
            WindowSpec::Count(keep) => Ok(self.db.expire_oldest(keep)?),
            WindowSpec::Ticks(lifetime) => {
                let mut expired = Vec::new();
                while let Some(&(arrived, id)) = self.arrivals.front() {
                    if self.tick < arrived + lifetime as u64 {
                        break;
                    }
                    self.arrivals.pop_front();
                    // An explicit retraction may have beaten the window
                    // to this fact.
                    if self.db.is_live(id) {
                        expired.push(id);
                    }
                }
                // A fact inserted more than once has more than one
                // arrival, and several of them can fall due together.
                distinct_in_order(&mut expired);
                self.db.delete_all(&expired)?;
                Ok(expired)
            }
        }
    }

    /// Advances the stream by one tick: applies the explicit
    /// retractions, inserts the new facts, slides the window, and
    /// replays the resulting changelog suffix into the conflict index
    /// and the bank.  Entries whose fingerprint changed are marked for
    /// re-admission; an interrupted estimation pass is dropped if
    /// anything at all changed (its stream no longer matches the window)
    /// and kept resumable across a no-op tick.
    ///
    /// A tick that errors part-way (say, a schema-mismatched insert
    /// after some retractions applied) leaves the database ahead of the
    /// derived state; the next [`WindowedEstimator::tick`] or
    /// [`WindowedEstimator::estimate`] replays the gap before doing
    /// anything else, so a failed tick is self-healing rather than
    /// poisoning the stream.
    pub fn tick(&mut self, inserts: Vec<Fact>, retracts: &[Fact]) -> Result<TickReport, CoreError> {
        self.tick += 1;
        // Retractions resolve to live ids before the insert, so a fact the
        // tick both retracts and re-inserts is deleted and then re-minted,
        // and they apply as one storage batch.
        let mut retracted: Vec<FactId> = retracts
            .iter()
            .filter_map(|fact| self.db.fact_id(fact))
            .collect();
        distinct_in_order(&mut retracted);
        self.db.delete_all(&retracted)?;
        let inserted_ids = self.db.extend(inserts)?;
        if matches!(self.window, WindowSpec::Ticks(_)) {
            let tick = self.tick;
            self.arrivals
                .extend(inserted_ids.iter().map(|&id| (tick, id)));
        }
        let expired = self.expire()?;
        let (replayed, changed) = self.refresh_derived()?;
        Ok(TickReport {
            tick: self.tick,
            inserted: inserted_ids.len(),
            retracted: retracted.len(),
            expired,
            replayed,
            changed,
            enrolled: self.enrolled.clone(),
        })
    }

    /// Brings the conflict index, the bank, the cached fingerprints, and
    /// the per-entry enrollment flags up to date with the database,
    /// replaying the changelog since the last successful refresh.
    /// Returns `(replayed, changed)` — a no-op when everything is
    /// already current.
    ///
    /// Called by [`WindowedEstimator::tick`] after the tick's mutations
    /// and defensively at the top of [`WindowedEstimator::estimate`]: if
    /// an earlier tick failed between mutating the database and
    /// refreshing the derived state, the estimate call heals the gap
    /// instead of running the batch paths against a stale bank (which
    /// panic by contract).
    fn refresh_derived(&mut self) -> Result<(usize, Vec<bool>), CoreError> {
        if self.conflict.version() == self.db.version() && self.bank.version() == self.db.version()
        {
            return Ok((0, vec![false; self.queries.len()]));
        }
        let conflict_replayed = Arc::make_mut(&mut self.conflict).refresh(&self.db, &self.sigma);
        let refs = Self::query_refs(&self.queries);
        let bank_replayed = self.bank.refresh(&self.db, &refs)?;
        drop(refs);
        // A bank that replayed nothing saw the database stand still: even
        // fallback entries are provably fresh, and the cached
        // fingerprints still describe this state.  Otherwise an entry is
        // changed iff its fingerprint moved; a fallback entry has no
        // witness set to fingerprint, so it always reads changed.
        let mut changed = if bank_replayed == 0 {
            vec![false; self.queries.len()]
        } else {
            let fingerprints = self.bank.fingerprints(&self.conflict);
            let changed = fingerprints
                .iter()
                .zip(&self.fingerprints)
                .map(|(after, before)| after.is_none() || after != before)
                .collect();
            self.fingerprints = fingerprints;
            changed
        };
        // Uniform-sequences marginals depend on how the repairing
        // sequences of *other* components interleave with a witness's
        // own: a changed component anywhere invalidates every entry, not
        // just those whose witness facts touch it.  (Uniform repairs and
        // uniform operations factorize per component, so their per-entry
        // fingerprints already tell the whole story.)
        if self.spec.semantics == UniformSemantics::Sequences {
            let structure = self.conflict.structure_fingerprint();
            if structure != self.structure {
                changed.iter_mut().for_each(|c| *c = true);
            }
            self.structure = structure;
        }
        for (flag, &c) in self.enrolled.iter_mut().zip(&changed) {
            *flag |= c;
        }
        // After a partial failure the two replays can differ (one
        // structure healed earlier than the other); report the wider
        // window.
        let replayed = conflict_replayed.max(bank_replayed);
        if replayed > 0 {
            // A mutated window invalidates a mid-stream pass: its draws
            // came from the previous window's repair distribution.
            self.pending = None;
            // Replan only when the maintained statistics have drifted
            // materially since the plans were last costed.  Witness sets
            // are plan-independent (the planner only reorders the join
            // enumeration), so re-costing evaluators never perturbs the
            // fingerprints above — steady-state ticks and replanning
            // ticks alike keep the bit-identical reuse path.
            let current = self.db.relation_index().stats_snapshot();
            if self.planning_stats.drifted(&current, REPLAN_DRIFT_FACTOR) {
                for (evaluator, _) in &mut self.queries {
                    *evaluator = QueryEvaluator::with_stats(evaluator.query().clone(), &self.db)?;
                }
                self.planning_stats = current;
                self.replans += 1;
            }
        }
        Ok((replayed, changed))
    }

    /// Estimates the bank over the current window with draw reuse.
    ///
    /// Entries not enrolled keep their converged outcome from the last
    /// converged pass **verbatim** — bit-identical [`QueryOutcome`]s,
    /// zero draws — while enrolled entries run the shared DKLR stopping
    /// loop from draw zero of a tick-local stream (requires
    /// [`OptimalStopping`](crate::fpras::EstimatorMode::OptimalStopping)).
    /// When every entry ends [`Converged`](BudgetStatus::Converged) the
    /// pass becomes the new reuse baseline; a pass interrupted by
    /// `budget` is stored instead and the next call resumes it
    /// bit-for-bit (same RNG, absolute tick-local draw counts) as long
    /// as no mutating tick intervened.
    ///
    /// Reused outcomes carry the `(ε, δ/k)` they converged under, so
    /// `params` is part of what "converged" means: calling with params
    /// different from the baseline's drops the prior and any pending
    /// pass and re-enrolls the whole bank rather than silently mixing
    /// stopping targets.
    pub fn estimate<R: Rng + ?Sized>(
        &mut self,
        params: ApproximationParams,
        budget: &RunBudget,
        rng: &mut R,
    ) -> Result<TickOutcome, CoreError> {
        // Heal a tick that failed between mutating the database and
        // refreshing the derived state (newly changed entries enroll
        // here exactly as they would have in the failed tick).
        self.refresh_derived()?;
        if self.baseline_params.is_some_and(|p| p != params) {
            self.prior = None;
            self.pending = None;
            self.enrolled = vec![true; self.queries.len()];
        }
        self.baseline_params = Some(params);
        let per_delta = params.delta / self.queries.len().max(1) as f64;
        let source = match &self.pending {
            Some(pending) => pending.clone(),
            None => EstimateOutcome {
                queries: self
                    .enrolled
                    .iter()
                    .enumerate()
                    .map(|(q, &enrolled)| match (&self.prior, enrolled) {
                        (Some(prior), false) => prior.queries[q],
                        _ => QueryOutcome {
                            estimate: 0.0,
                            samples: 0,
                            successes: 0,
                            status: BudgetStatus::BudgetExhausted,
                            achieved: AchievedBound::at(0, 0, per_delta),
                        },
                    })
                    .collect(),
                total_draws: 0,
            },
        };
        let reused: Vec<bool> = self.enrolled.iter().map(|&e| !e).collect();
        let batch: Vec<BatchQuery<'_>> = self
            .queries
            .iter()
            .map(|(e, c)| BatchQuery::new(e, c.as_slice()))
            .collect();
        let estimator = self.estimator()?;
        let outcome = estimator.run(&self.bank, &batch, params, budget, Some(&source), rng)?;
        let tick_draws = outcome.total_draws;
        if outcome.converged() {
            self.prior = Some(outcome.clone());
            self.pending = None;
            self.enrolled = vec![false; self.queries.len()];
        } else {
            self.pending = Some(outcome.clone());
        }
        Ok(TickOutcome {
            outcome,
            reused,
            tick_draws,
        })
    }

    /// The current window contents — the single source of truth the
    /// derived indexes and the bank are maintained against.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The constraints the window is repaired against.
    pub fn sigma(&self) -> &FdSet {
        &self.sigma
    }

    /// The generator this estimator approximates.
    pub fn spec(&self) -> GeneratorSpec {
        self.spec
    }

    /// The window policy.
    pub fn window(&self) -> WindowSpec {
        self.window
    }

    /// The maintained conflict index (current with [`WindowedEstimator::db`]).
    pub fn conflict_index(&self) -> &ConflictIndex {
        &self.conflict
    }

    /// The maintained lineage bank (current with [`WindowedEstimator::db`]).
    pub fn bank(&self) -> &LineageBank {
        &self.bank
    }

    /// How many times the stream has re-costed its query plans.
    ///
    /// Plans are costed against a [`StatsSnapshot`] of the relation
    /// index; a tick replans only when a maintained statistic (relation
    /// cardinality or longest posting run) moves by more than
    /// [`REPLAN_DRIFT_FACTOR`] against the snapshot the current plans
    /// were costed under.  Steady-state ticks leave the compiled plans
    /// untouched, so this counter staying flat certifies the
    /// bit-identical reuse path was never re-entered for planning
    /// reasons.
    pub fn replans(&self) -> u64 {
        self.replans
    }

    /// The last fully-converged estimation pass, if any — the baseline
    /// unchanged entries are reused from.
    pub fn last_converged(&self) -> Option<&EstimateOutcome> {
        self.prior.as_ref()
    }

    /// `true` iff an interrupted tick-local pass is waiting to be
    /// resumed by the next [`WindowedEstimator::estimate`].
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }
}

/// Keeps the first occurrence of each id, in order.
fn distinct_in_order(ids: &mut Vec<FactId>) {
    let mut seen = HashSet::with_capacity(ids.len());
    ids.retain(|&id| seen.insert(id));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::CancelToken;
    use crate::fpras::EstimatorMode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ucqa_db::{FunctionalDependency, Schema, Value};
    use ucqa_query::parser::parse_query;

    fn blocks() -> (Database, FdSet) {
        let mut schema = Schema::new();
        schema.add_relation("R", &["K", "V"]).unwrap();
        let mut db = Database::with_schema(schema);
        for (k, v) in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 7)] {
            db.insert_values("R", [Value::int(k), Value::int(v)])
                .unwrap();
        }
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["K"], &["V"]).unwrap());
        (db, sigma)
    }

    fn fact(db: &Database, k: i64, v: i64) -> Fact {
        Fact::new(
            db.schema().relation_id("R").unwrap(),
            vec![Value::int(k), Value::int(v)],
        )
    }

    fn queries(db: &Database, texts: &[&str]) -> Vec<(QueryEvaluator, Vec<Value>)> {
        texts
            .iter()
            .map(|t| {
                (
                    QueryEvaluator::new(parse_query(db.schema(), t).unwrap()),
                    Vec::new(),
                )
            })
            .collect()
    }

    fn params() -> ApproximationParams {
        ApproximationParams::new(0.3, 0.2)
            .unwrap()
            .with_mode(EstimatorMode::OptimalStopping {
                max_samples: 200_000,
            })
    }

    fn windowed(window: WindowSpec) -> WindowedEstimator {
        let (db, sigma) = blocks();
        let qs = queries(&db, &["Ans() :- R(1, 1)", "Ans() :- R(3, x)"]);
        WindowedEstimator::new(
            db,
            sigma,
            GeneratorSpec::uniform_operations().with_singleton_only(),
            window,
            qs,
        )
        .unwrap()
    }

    #[test]
    fn count_window_expires_the_oldest_facts() {
        let mut w = windowed(WindowSpec::Count(4));
        // The initial database holds 5 facts: construction already
        // narrowed it to the newest 4.
        assert_eq!(w.db().live_count(), 4);
        let insert = fact(w.db(), 4, 4);
        let report = w.tick(vec![insert], &[]).unwrap();
        assert_eq!(report.inserted, 1);
        assert_eq!(report.expired.len(), 1, "one fact slid out");
        assert_eq!(w.db().live_count(), 4);
        // Derived state is current with the mutated window.
        assert_eq!(w.conflict_index().version(), w.db().version());
        assert_eq!(w.bank().version(), w.db().version());
    }

    #[test]
    fn tick_window_expires_by_arrival_tick() {
        let mut w = windowed(WindowSpec::Ticks(2));
        assert_eq!(w.db().live_count(), 5);
        let insert = fact(w.db(), 4, 4);
        let report = w.tick(vec![insert], &[]).unwrap();
        assert!(report.expired.is_empty(), "tick 1 < lifetime 2");
        // Tick 2: the five construction-time facts (arrival tick 0)
        // expire; the tick-1 arrival stays.
        let report = w.tick(vec![], &[]).unwrap();
        assert_eq!(report.expired.len(), 5);
        assert_eq!(w.db().live_count(), 1);
        // Tick 3: the tick-1 arrival expires and the window runs empty.
        let report = w.tick(vec![], &[]).unwrap();
        assert_eq!(report.expired.len(), 1);
        assert_eq!(w.db().live_count(), 0);
    }

    #[test]
    fn ticks_zero_is_rejected() {
        let (db, sigma) = blocks();
        let qs = queries(&db, &["Ans() :- R(1, 1)"]);
        let err = WindowedEstimator::new(
            db,
            sigma,
            GeneratorSpec::uniform_operations().with_singleton_only(),
            WindowSpec::Ticks(0),
            qs,
        );
        assert!(matches!(err, Err(CoreError::InvalidParameters { .. })));
    }

    #[test]
    fn unchanged_entries_are_reused_verbatim_at_zero_draws() {
        let mut w = windowed(WindowSpec::Unbounded);
        let first = w
            .estimate(
                params(),
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(7),
            )
            .unwrap();
        assert!(first.outcome.converged());
        assert!(
            first.reused.iter().all(|&r| !r),
            "first pass reuses nothing"
        );

        // A block-9 insert conflicts with nothing and enters no witness:
        // every fingerprint survives, the whole bank is reused, and the
        // pass consumes zero draws without touching the RNG.
        let insert = fact(w.db(), 9, 9);
        let report = w.tick(vec![insert], &[]).unwrap();
        assert!(report.changed.iter().all(|&c| !c));
        assert!(report.enrolled.iter().all(|&e| !e));
        let reuse = w
            .estimate(
                params(),
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(999),
            )
            .unwrap();
        assert_eq!(reuse.tick_draws, 0);
        assert!(reuse.reused.iter().all(|&r| r));
        assert_eq!(reuse.outcome.queries, first.outcome.queries);
    }

    #[test]
    fn fallback_entries_read_changed_whenever_the_window_moves() {
        // 65 keys of one fact each: the two-atom cross product has
        // 65² > DEFAULT_WITNESS_CAP images, so entry 0 is a fallback
        // entry with no fingerprint; entry 1 stays compiled.
        let mut schema = Schema::new();
        schema.add_relation("R", &["K", "V"]).unwrap();
        let mut db = Database::with_schema(schema);
        for k in 0..65 {
            db.insert_values("R", [Value::int(k), Value::int(0)])
                .unwrap();
        }
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["K"], &["V"]).unwrap());
        let qs = queries(&db, &["Ans() :- R(x, y), R(z, w)", "Ans() :- R(1, 0)"]);
        let mut w = WindowedEstimator::new(
            db,
            sigma,
            GeneratorSpec::uniform_repairs(),
            WindowSpec::Unbounded,
            qs,
        )
        .unwrap();
        assert!(w.bank().is_fallback(0) && !w.bank().is_fallback(1));
        // A tick that moves nothing replays nothing: nothing is changed.
        let report = w.tick(vec![], &[]).unwrap();
        assert_eq!(report.replayed, 0);
        assert_eq!(report.changed, vec![false, false]);
        // A consistent insert under a fresh key leaves entry 1's
        // fingerprint alone, but the fallback entry has none to prove
        // unchanged.
        let insert = fact(w.db(), 100, 0);
        let report = w.tick(vec![insert], &[]).unwrap();
        assert_eq!(report.replayed, 1);
        assert_eq!(report.changed, vec![true, false]);
    }

    #[test]
    fn changed_entries_reenter_the_stopping_loop() {
        let mut w = windowed(WindowSpec::Unbounded);
        let first = w
            .estimate(
                params(),
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(7),
            )
            .unwrap();
        // R(3, 8) joins block 3: entry 1's lineage gains a conflict and
        // must re-converge; entry 0 (block 1) is untouched and reused.
        let insert = fact(w.db(), 3, 8);
        let report = w.tick(vec![insert], &[]).unwrap();
        assert_eq!(report.changed, vec![false, true]);
        let second = w
            .estimate(
                params(),
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(8),
            )
            .unwrap();
        assert_eq!(second.reused, vec![true, false]);
        assert!(second.tick_draws > 0);
        assert_eq!(second.outcome.queries[0], first.outcome.queries[0]);
        // The re-estimated entry matches a from-scratch estimator over
        // the same window under the same seed (draw-for-draw: enrolled
        // entries start at draw zero of the tick-local stream).
        let scratch_est = BatchEstimator::new(w.db(), w.sigma(), w.spec()).unwrap();
        let evals = queries(w.db(), &["Ans() :- R(3, x)"]);
        let batch = [BatchQuery::new(&evals[0].0, &evals[0].1)];
        let unlimited = RunBudget::unlimited();
        let bank = scratch_est.compile_bank(&batch, &unlimited).unwrap();
        let scratch = scratch_est
            .run(
                &bank,
                &batch,
                // δ/k must match the windowed pass (k = 2 there).
                ApproximationParams::new(0.3, 0.1).unwrap().with_mode(
                    EstimatorMode::OptimalStopping {
                        max_samples: 200_000,
                    },
                ),
                &unlimited,
                None,
                &mut StdRng::seed_from_u64(8),
            )
            .unwrap();
        assert_eq!(
            (
                second.outcome.queries[1].estimate,
                second.outcome.queries[1].samples,
                second.outcome.queries[1].successes,
            ),
            (
                scratch.queries[0].estimate,
                scratch.queries[0].samples,
                scratch.queries[0].successes,
            ),
        );
    }

    #[test]
    fn interrupted_pass_resumes_bit_for_bit_and_survives_noop_ticks() {
        let mut uninterrupted = windowed(WindowSpec::Unbounded);
        let full = uninterrupted
            .estimate(
                params(),
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(21),
            )
            .unwrap();

        let mut w = windowed(WindowSpec::Unbounded);
        let mut rng = StdRng::seed_from_u64(21);
        let cut = RunBudget::unlimited().with_cancel_token(CancelToken::tripped_at_draw(5));
        let partial = w.estimate(params(), &cut, &mut rng).unwrap();
        assert!(!partial.outcome.converged());
        assert!(w.has_pending());
        // A tick that replays nothing keeps the pass resumable.
        let report = w.tick(vec![], &[]).unwrap();
        assert_eq!(report.replayed, 0);
        assert!(w.has_pending());
        let resumed = w
            .estimate(params(), &RunBudget::unlimited(), &mut rng)
            .unwrap();
        assert_eq!(
            resumed.outcome, full.outcome,
            "concatenated ≡ uninterrupted"
        );
        assert!(!w.has_pending());
    }

    #[test]
    fn mutating_tick_drops_a_pending_pass() {
        let mut w = windowed(WindowSpec::Unbounded);
        let cut = RunBudget::unlimited().with_cancel_token(CancelToken::tripped_at_draw(3));
        let _ = w
            .estimate(params(), &cut, &mut StdRng::seed_from_u64(21))
            .unwrap();
        assert!(w.has_pending());
        // R(3, 8) adds a witness to entry 1's lineage.
        let insert = fact(w.db(), 3, 8);
        let report = w.tick(vec![insert], &[]).unwrap();
        assert!(report.replayed > 0);
        assert!(!w.has_pending(), "a mutated window invalidates the stream");
        // The changed entry is enrolled for a full re-run — and so is the
        // unchanged one, whose interrupted pass never converged.
        assert_eq!(report.changed, vec![false, true]);
        assert_eq!(report.enrolled, vec![true, true]);
    }

    #[test]
    fn conflict_growth_without_lineage_change_reenrolls_the_entry() {
        // The reuse-soundness counterexample from review: blocks
        // {1: 2, 2: 2, 3: 1} and the membership query R(1, 1).  Insert
        // R(1, 100): it matches no query atom, so entry 0's witness set
        // stays {R(1, 1)} — but block 1 grows from 2 to 3 facts and the
        // exact probability drops from 1/2 to 1/3.  The fingerprint must
        // catch this, and the re-estimate must track the new truth.
        let (db, sigma) = blocks();
        let qs = queries(&db, &["Ans() :- R(1, 1)"]);
        let mut w = WindowedEstimator::new(
            db,
            sigma,
            GeneratorSpec::uniform_operations().with_singleton_only(),
            WindowSpec::Unbounded,
            qs,
        )
        .unwrap();
        let first = w
            .estimate(
                params(),
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(7),
            )
            .unwrap();
        assert!(first.outcome.converged());
        assert!((first.outcome.queries[0].estimate - 0.5).abs() <= 0.3 * 0.5);

        let insert = fact(w.db(), 1, 100);
        let report = w.tick(vec![insert], &[]).unwrap();
        assert_eq!(
            report.changed,
            vec![true],
            "a block-mate insert must invalidate the membership entry"
        );
        let second = w
            .estimate(
                params(),
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(8),
            )
            .unwrap();
        assert!(second.outcome.converged());
        assert!(second.tick_draws > 0, "the entry re-entered the loop");
        let exact = 1.0 / 3.0;
        assert!(
            (second.outcome.queries[0].estimate - exact).abs() <= 0.3 * exact,
            "re-estimate {} missed the post-tick truth {}",
            second.outcome.queries[0].estimate,
            exact
        );
    }

    #[test]
    fn failed_tick_heals_on_the_next_estimate() {
        let mut w = windowed(WindowSpec::Unbounded);
        let first = w
            .estimate(
                params(),
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(7),
            )
            .unwrap();
        assert!(first.outcome.converged());

        // A tick that applies its retraction and then fails on an
        // arity-mismatched insert (inserts are staged after retracts)
        // leaves the database ahead of the derived state.
        let bad = Fact::new(
            w.db().schema().relation_id("R").unwrap(),
            vec![Value::int(1)],
        );
        let gone = fact(w.db(), 1, 2);
        assert!(w.tick(vec![bad], &[gone]).is_err());
        assert!(w.bank().version() < w.db().version(), "derived state lags");

        // The next estimate replays the gap first: entry 0 (block 1 lost
        // its conflict, the probability jumped to 1) re-enrolls and
        // re-converges; entry 1 is reused.
        let healed = w
            .estimate(
                params(),
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(9),
            )
            .unwrap();
        assert!(healed.outcome.converged());
        assert_eq!(w.bank().version(), w.db().version());
        assert_eq!(healed.reused, vec![false, true]);
        assert_eq!(healed.outcome.queries[1], first.outcome.queries[1]);
        assert!((healed.outcome.queries[0].estimate - 1.0).abs() <= 0.3);
        // And so does the next tick, reporting the healed backlog.
        let report = w.tick(vec![], &[]).unwrap();
        assert_eq!(report.replayed, 0, "nothing left to heal");
    }

    #[test]
    fn changing_params_restarts_the_whole_bank() {
        let mut w = windowed(WindowSpec::Unbounded);
        let first = w
            .estimate(
                params(),
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(7),
            )
            .unwrap();
        assert!(first.outcome.converged());
        // Same params: reused verbatim.
        let again = w
            .estimate(
                params(),
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(8),
            )
            .unwrap();
        assert_eq!(again.tick_draws, 0);

        // Tighter ε: the converged baseline no longer certifies the
        // requested bound, so nothing is reused.
        let tighter =
            ApproximationParams::new(0.2, 0.2)
                .unwrap()
                .with_mode(EstimatorMode::OptimalStopping {
                    max_samples: 200_000,
                });
        let restarted = w
            .estimate(
                tighter,
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(8),
            )
            .unwrap();
        assert!(restarted.reused.iter().all(|&r| !r));
        assert!(restarted.tick_draws > 0);
        assert!(restarted.outcome.converged());
    }

    #[test]
    fn steady_ticks_keep_plans_and_forced_skew_replans_exactly_once() {
        let mut w = windowed(WindowSpec::Unbounded);
        let first = w
            .estimate(
                params(),
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(7),
            )
            .unwrap();
        assert!(first.outcome.converged());
        // Steady state: singleton inserts move no maintained statistic
        // past the 2× drift factor (cardinality 5 → 7, runs stay 2).
        for (k, v) in [(4, 4), (5, 5)] {
            let insert = fact(w.db(), k, v);
            let report = w.tick(vec![insert], &[]).unwrap();
            assert!(report.replayed > 0);
            assert_eq!(w.replans(), 0, "steady-state ticks keep compiled plans");
        }
        // A burst under one key more than doubles both the relation
        // cardinality (5 → 13 against the planning snapshot) and the
        // longest K posting run (2 → 6): exactly one replan.
        let burst: Vec<Fact> = (0..6).map(|v| fact(w.db(), 9, v)).collect();
        w.tick(burst, &[]).unwrap();
        assert_eq!(w.replans(), 1, "the skewed tick replans exactly once");
        // The replan only re-costs join order — witness sets are
        // plan-independent and block 9 intersects no witness, so every
        // entry still reuses its converged outcome verbatim.
        let reuse = w
            .estimate(
                params(),
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(99),
            )
            .unwrap();
        assert_eq!(reuse.tick_draws, 0);
        assert!(reuse.reused.iter().all(|&r| r));
        assert_eq!(reuse.outcome.queries, first.outcome.queries);
        // The snapshot rebased on the replan, so the next steady tick
        // does not replan again.
        let insert = fact(w.db(), 10, 10);
        w.tick(vec![insert], &[]).unwrap();
        assert_eq!(w.replans(), 1);
    }

    #[test]
    fn explicit_retraction_is_idempotent_and_counted() {
        let mut w = windowed(WindowSpec::Unbounded);
        let gone = fact(w.db(), 3, 7);
        let report = w.tick(vec![], &[gone.clone(), gone]).unwrap();
        assert_eq!(report.retracted, 1, "second retraction misses");
        assert_eq!(w.db().live_count(), 4);
        assert_eq!(report.changed, vec![false, true]);
    }
}
