//! Property tests for the sliding-window continuous CQA pipeline
//! (`ucqa_core::stream`): after **every** tick of a random stream the
//! windowed state must be indistinguishable from a from-scratch rebuild
//! of the live window, and the converged-draw-reuse path must return
//! byte-identical outcomes at zero draws for untouched entries while
//! changed entries re-converge to the exact answer probabilities.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use uocqa::core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
use uocqa::core::sample_operations::{OperationWalkSampler, WalkScratch};
use uocqa::core::{
    BudgetStatus, ExactSolver, RunBudget, TickOutcome, WindowSpec, WindowedEstimator,
};
use uocqa::db::{ConflictIndex, Database, Fact, FactId, FactSet, FdSet, Value};
use uocqa::query::{LineageBank, QueryEvaluator};
use uocqa::repair::{GeneratorSpec, UniformSemantics};
use uocqa::workload::StreamWorkload;

mod common;
use common::{
    all_specs, assert_bank_matches_scratch, assert_conflict_matches_scratch, remap, scratch_rebuild,
};

/// The query bank every stream test runs: a membership query and two
/// block queries over the `StreamWorkload` schema `R(K, V)`.
const QUERY_TEXTS: [&str; 3] = ["Ans() :- R(0, 0)", "Ans() :- R(0, x)", "Ans() :- R(1, x)"];

fn stream_queries(db: &Database) -> Vec<(QueryEvaluator, Vec<Value>)> {
    QUERY_TEXTS
        .iter()
        .map(|t| {
            let q = uocqa::query::parser::parse_query(db.schema(), t).unwrap();
            (QueryEvaluator::new(q), Vec::new())
        })
        .collect()
}

fn batch_refs(queries: &[(QueryEvaluator, Vec<Value>)]) -> Vec<BatchQuery<'_>> {
    queries
        .iter()
        .map(|(e, c)| BatchQuery::new(e, c.as_slice()))
        .collect()
}

/// Builds the estimator of the windowed state exactly as the windowed
/// pipeline does: the maintained conflict index drives the
/// uniform-operations walk, the other samplers derive their structure
/// from the database.
fn windowed_batch_estimator<'a>(
    w: &'a WindowedEstimator,
    spec: GeneratorSpec,
) -> BatchEstimator<'a> {
    if spec.semantics == UniformSemantics::Operations {
        BatchEstimator::with_conflict_index(w.db(), w.sigma(), spec, w.conflict_index().clone())
            .unwrap()
    } else {
        BatchEstimator::new(w.db(), w.sigma(), spec).unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Satellite 1: after every tick of a random insert/retract/expiry
    /// stream, the windowed state is indistinguishable from a rebuild:
    /// the delta-maintained conflict index and bank equal (under the
    /// live-id remap) structures built from scratch over a fresh
    /// database holding exactly the live window, and same-seed
    /// estimates over both states are bit-identical — for all six
    /// generator specs.
    #[test]
    fn windowed_state_matches_scratch_after_every_tick(
        seed in 0u64..1_000_000,
        est_seed in 0u64..1_000_000,
        facts in 4usize..10,
        ticks in 1usize..4,
        window_kind in 0usize..3,
    ) {
        for spec in all_specs() {
            // Clone the generator so every spec sees the identical stream.
            let mut workload = StreamWorkload::new(3, 2, 1, 0.6, seed);
            let (db, sigma) = workload.initial(facts);
            let window = match window_kind {
                0 => WindowSpec::Unbounded,
                1 => WindowSpec::Count(facts),
                _ => WindowSpec::Ticks(2),
            };
            let queries = stream_queries(&db);
            let mut w = WindowedEstimator::new(db, sigma.clone(), spec, window, queries).unwrap();

            for tick in 1..=ticks {
                let (inserts, retracts) = workload.tick(w.db());
                w.tick(inserts, &retracts).unwrap();
                let context = format!(
                    "spec {} seed {seed} tick {tick} window {:?}",
                    spec.short_name(),
                    window
                );

                // Ground truth: a fresh database holding exactly the
                // live window, with every derived structure built from
                // scratch.
                let (scratch_db, map) = scratch_rebuild(w.db());
                prop_assert_eq!(scratch_db.live_count(), w.db().live_count());
                let scratch_conflict = ConflictIndex::build(&scratch_db, &sigma);
                assert_conflict_matches_scratch(
                    w.conflict_index(),
                    &scratch_conflict,
                    &map,
                    &context,
                );

                let scratch_queries = stream_queries(&scratch_db);
                let scratch_refs: Vec<_> = scratch_queries
                    .iter()
                    .map(|(e, c)| (e, c.as_slice()))
                    .collect();
                let scratch_bank = LineageBank::compile(&scratch_db, &scratch_refs).unwrap();
                assert_bank_matches_scratch(w.bank(), &scratch_bank, &map, &context);

                // Same-seed estimates over the maintained state and the
                // rebuilt state are bit-identical.
                let params = ApproximationParams::new(0.2, 0.2)
                    .unwrap()
                    .with_mode(EstimatorMode::FixedSamples(24));
                let live_queries = stream_queries(w.db());
                let windowed = windowed_batch_estimator(&w, spec)
                    .estimate_batch_with_bank(
                        w.bank(),
                        &batch_refs(&live_queries),
                        params,
                        &mut StdRng::seed_from_u64(est_seed),
                    )
                    .unwrap();
                let scratch = BatchEstimator::new(&scratch_db, &sigma, spec)
                    .unwrap()
                    .estimate_batch_with_bank(
                        &scratch_bank,
                        &batch_refs(&scratch_queries),
                        params,
                        &mut StdRng::seed_from_u64(est_seed),
                    )
                    .unwrap();
                prop_assert_eq!(&windowed, &scratch, "estimates diverged: {}", &context);
            }
        }
    }
}

/// The fixed inconsistent window the draw-reuse properties run on:
/// blocks {0: 2 facts, 1: 2 facts, 2: 1 fact} of `R(K, V)`.
fn reuse_fixture() -> (WindowedEstimator, ApproximationParams) {
    let mut workload = StreamWorkload::new(1, 0, 0, 0.0, 0);
    let (mut db, sigma) = workload.initial(0);
    for (k, v) in [(0, 0), (0, 1), (1, 10), (1, 11), (2, 20)] {
        db.insert_values("R", [Value::int(k), Value::int(v)])
            .unwrap();
    }
    let queries = stream_queries(&db);
    let w = WindowedEstimator::new(
        db,
        sigma,
        GeneratorSpec::uniform_operations().with_singleton_only(),
        WindowSpec::Unbounded,
        queries,
    )
    .unwrap();
    let params =
        ApproximationParams::new(0.25, 0.15)
            .unwrap()
            .with_mode(EstimatorMode::OptimalStopping {
                max_samples: 400_000,
            });
    (w, params)
}

fn fact(db: &Database, k: i64, v: i64) -> Fact {
    Fact::new(
        db.schema().relation_id("R").unwrap(),
        vec![Value::int(k), Value::int(v)],
    )
}

/// The exact answer probabilities of the query bank over the live
/// window (rebuilt from scratch, so tombstones cannot interfere).
fn exact_probabilities(db: &Database, sigma: &FdSet, spec: GeneratorSpec) -> Vec<f64> {
    let (scratch, _) = scratch_rebuild(db);
    let queries = stream_queries(&scratch);
    let refs: Vec<(&QueryEvaluator, &[Value])> =
        queries.iter().map(|(e, c)| (e, c.as_slice())).collect();
    ExactSolver::new(&scratch, sigma)
        .answer_probabilities(spec, &refs)
        .unwrap()
        .into_iter()
        .map(|r| r.to_f64())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite 2 (reuse half): a tick that provably leaves every
    /// lineage untouched reuses the whole converged pass **verbatim** —
    /// byte-identical `QueryOutcome`s, zero draws, the RNG never even
    /// consulted (the reuse pass runs under a different seed).
    #[test]
    fn unchanged_entries_are_byte_identical_at_zero_draws(
        first_seed in 0u64..1_000_000,
        reuse_seed in 0u64..1_000_000,
        noise_key in 10i64..1_000,
    ) {
        let (mut w, params) = reuse_fixture();
        let first = w
            .estimate(params, &RunBudget::unlimited(), &mut StdRng::seed_from_u64(first_seed))
            .unwrap();
        prop_assert!(first.outcome.converged());

        // A fresh-key insert conflicts with nothing and joins no witness
        // set: every fingerprint survives the refresh.
        let insert = fact(w.db(), noise_key, -1);
        let report = w.tick(vec![insert], &[]).unwrap();
        prop_assert!(report.replayed > 0);
        prop_assert!(report.changed.iter().all(|&c| !c));
        prop_assert!(report.enrolled.iter().all(|&e| !e));

        let TickOutcome { outcome, reused, tick_draws } = w
            .estimate(params, &RunBudget::unlimited(), &mut StdRng::seed_from_u64(reuse_seed))
            .unwrap();
        prop_assert_eq!(tick_draws, 0, "a fully reused pass consumes no draws");
        prop_assert!(reused.iter().all(|&r| r));
        prop_assert!(outcome
            .queries
            .iter()
            .all(|q| q.status == BudgetStatus::Converged));
        prop_assert_eq!(outcome.queries, first.outcome.queries);
    }

    /// Satellite 2 (re-convergence half): a tick that changes an entry's
    /// fingerprint re-enrolls it; the re-estimated outcome converges
    /// within the relative `(ε, δ/k)` bound of the exact solver over the
    /// mutated window, while untouched entries stay byte-identical —
    /// and, crucially, **every** entry (reused or re-estimated) satisfies
    /// the bound against the exact probabilities of the *post-tick*
    /// window.  Reuse of a stale outcome whose block changed under it
    /// (the fingerprint-soundness bug) fails the reused half.
    #[test]
    fn changed_entries_reconverge_to_the_exact_answer(
        est_seed in 0u64..16,
        grow_block in 0i64..2,
    ) {
        let (mut w, params) = reuse_fixture();
        let first = w
            .estimate(params, &RunBudget::unlimited(), &mut StdRng::seed_from_u64(3))
            .unwrap();
        prop_assert!(first.outcome.converged());

        // Grow block 0 or 1: the matching block query's lineage gains a
        // witness.  Growing block 0 also re-enrolls the membership query
        // R(0, 0): its witness set is untouched, but its witness now
        // sits in a bigger block, so its answer probability moved.
        let insert = fact(w.db(), grow_block, 100 + grow_block);
        let report = w.tick(vec![insert], &[]).unwrap();
        let grown_query = (grow_block + 1) as usize; // QUERY_TEXTS[1] = block 0, [2] = block 1
        prop_assert!(report.changed[grown_query]);
        if grow_block == 0 {
            prop_assert!(
                report.changed[0],
                "the membership query's block grew: reusing its outcome would be unsound"
            );
        } else {
            prop_assert!(!report.changed[0] && !report.changed[1]);
        }

        let second = w
            .estimate(params, &RunBudget::unlimited(), &mut StdRng::seed_from_u64(est_seed))
            .unwrap();
        prop_assert!(second.outcome.converged());
        let exact = exact_probabilities(w.db(), w.sigma(), w.spec());
        for (q, outcome) in second.outcome.queries.iter().enumerate() {
            if second.reused[q] {
                prop_assert_eq!(*outcome, first.outcome.queries[q], "reused entry {} drifted", q);
            }
            // Reused or re-estimated, every entry must satisfy the
            // relative (ε, δ/k) bound against the exact chain
            // probabilities of the mutated window: reuse is only legal
            // when the tick provably did not move the probability.
            prop_assert!(
                (outcome.estimate - exact[q]).abs() <= params.epsilon * exact[q] + 1e-12,
                "entry {} ({}): estimate {} vs exact {} (ε = {})",
                q,
                if second.reused[q] { "reused" } else { "re-estimated" },
                outcome.estimate,
                exact[q],
                params.epsilon
            );
        }
    }

    /// Uniform-sequences marginals do not factorize across conflict
    /// components: the interleaving of other components' repairing
    /// sequences reweights a component's own outcomes.  A tick that
    /// changes *any* component must therefore re-enroll the whole bank
    /// under `M^us` — per-entry fingerprints are not a sound gate there
    /// — and the re-estimates must land on the post-tick truth.
    #[test]
    fn sequences_reenroll_everything_when_any_component_changes(
        est_seed in 0u64..8,
    ) {
        let mut workload = StreamWorkload::new(1, 0, 0, 0.0, 0);
        let (mut db, sigma) = workload.initial(0);
        // Block 0 holds three facts (mixed sequence lengths: a pair
        // removal can finish it early), so its marginals feel the
        // interleaving of other blocks' sequences.
        for (k, v) in [(0, 0), (0, 1), (0, 2), (1, 10), (1, 11)] {
            db.insert_values("R", [Value::int(k), Value::int(v)])
                .unwrap();
        }
        let queries = stream_queries(&db);
        let mut w = WindowedEstimator::new(
            db,
            sigma,
            GeneratorSpec::uniform_sequences(),
            WindowSpec::Unbounded,
            queries,
        )
        .unwrap();
        let params = ApproximationParams::new(0.25, 0.15)
            .unwrap()
            .with_mode(EstimatorMode::OptimalStopping {
                max_samples: 400_000,
            });
        let first = w
            .estimate(params, &RunBudget::unlimited(), &mut StdRng::seed_from_u64(3))
            .unwrap();
        prop_assert!(first.outcome.converged());

        // Grow block 1: block 0 is untouched — its witness sets and its
        // component composition both survive — yet its probabilities
        // move with the interleaving, so every entry must re-enroll.
        let insert = fact(w.db(), 1, 100);
        let report = w.tick(vec![insert], &[]).unwrap();
        prop_assert!(
            report.changed.iter().all(|&c| c),
            "a changed component re-enrolls the whole bank under M^us, got {:?}",
            report.changed
        );

        let second = w
            .estimate(params, &RunBudget::unlimited(), &mut StdRng::seed_from_u64(est_seed))
            .unwrap();
        prop_assert!(second.outcome.converged());
        prop_assert!(second.reused.iter().all(|&r| !r));
        let exact = exact_probabilities(w.db(), w.sigma(), w.spec());
        for (q, outcome) in second.outcome.queries.iter().enumerate() {
            prop_assert!(
                (outcome.estimate - exact[q]).abs() <= params.epsilon * exact[q] + 1e-12,
                "entry {}: estimate {} vs exact {} (ε = {})",
                q,
                outcome.estimate,
                exact[q],
                params.epsilon
            );
        }

        // Consistent churn, by contrast, leaves even `M^us` reuse
        // intact: a conflict-free fact joins no component.
        let insert = fact(w.db(), 7, 7);
        let report = w.tick(vec![insert], &[]).unwrap();
        prop_assert!(report.changed.iter().all(|&c| !c));
        let third = w
            .estimate(params, &RunBudget::unlimited(), &mut StdRng::seed_from_u64(est_seed ^ 9))
            .unwrap();
        prop_assert_eq!(third.tick_draws, 0);
        prop_assert!(third.reused.iter().all(|&r| r));
        prop_assert_eq!(third.outcome.queries, second.outcome.queries);
    }
}

/// Hand-built ticks over a `Ticks(2)` window, for every generator spec:
/// a duplicate retraction, an absent one, a retraction of a fact the same
/// tick re-inserts, a fact inserted twice in one tick (it arrives twice
/// and expires once), and a window expiry racing an explicit retraction.
/// After every tick the windowed state matches the scratch rebuild, and
/// the database log is exactly the one per-fact retract → insert →
/// expire calls produce.
#[test]
fn hand_built_ticks_match_scratch_and_the_per_fact_log() {
    for spec in all_specs() {
        let (mut db, sigma) = StreamWorkload::new(1, 0, 0, 0.0, 0).initial(0);
        for (k, v) in [(0, 0), (0, 1), (1, 10), (1, 11), (2, 20)] {
            db.insert_values("R", [Value::int(k), Value::int(v)])
                .unwrap();
        }
        let mut per_fact = db.clone();
        let queries = stream_queries(&db);
        let mut w =
            WindowedEstimator::new(db, sigma.clone(), spec, WindowSpec::Ticks(2), queries).unwrap();
        let r = w.db().schema().relation_id("R").unwrap();
        let f = |k: i64, v: i64| Fact::new(r, vec![Value::int(k), Value::int(v)]);
        let ticks: [(Vec<Fact>, Vec<Fact>); 3] = [
            (
                vec![f(0, 0), f(3, 30), f(3, 30)],
                vec![f(1, 10), f(9, 99), f(0, 0), f(1, 10)],
            ),
            (vec![f(2, 21)], vec![f(2, 20), f(0, 1)]),
            (vec![], vec![f(9, 99)]),
        ];
        // (retracted, live facts expired) per tick.
        let expected: [(usize, Vec<(i64, i64)>); 3] = [
            (2, vec![]),
            // Tick 2 expires the tick-0 arrivals the retractions missed.
            (2, vec![(1, 11)]),
            // (3, 30) arrived twice at tick 1 but expires once.
            (0, vec![(0, 0), (3, 30)]),
        ];
        for (tick, ((inserts, retracts), (retracted, expired))) in
            ticks.into_iter().zip(expected).enumerate()
        {
            let context = format!("spec {} tick {}", spec.short_name(), tick + 1);
            let expired_ids: Vec<_> = expired
                .iter()
                .map(|&(k, v)| w.db().fact_id(&f(k, v)).unwrap())
                .collect();
            let report = w.tick(inserts.clone(), &retracts).unwrap();
            assert_eq!(report.retracted, retracted, "{context}");
            assert_eq!(report.expired, expired_ids, "{context}");

            for fact in &retracts {
                per_fact.retract(fact).unwrap();
            }
            per_fact.extend(inserts).unwrap();
            for &id in &report.expired {
                per_fact.delete(id).unwrap();
            }
            assert_eq!(
                w.db().changes_since(0),
                per_fact.changes_since(0),
                "{context}"
            );

            assert_window_matches_scratch(&w, &sigma, spec, 5, &context);
        }
    }
}

/// Asserts the windowed state equals a scratch rebuild of the live
/// window: the conflict index and the bank's witnesses under the live-id
/// remap, and same-seed estimates over both states.
fn assert_window_matches_scratch(
    w: &WindowedEstimator,
    sigma: &FdSet,
    spec: GeneratorSpec,
    est_seed: u64,
    context: &str,
) {
    let (scratch_db, map) = scratch_rebuild(w.db());
    let scratch_conflict = ConflictIndex::build(&scratch_db, sigma);
    assert_conflict_matches_scratch(w.conflict_index(), &scratch_conflict, &map, context);
    let scratch_queries = stream_queries(&scratch_db);
    let scratch_refs: Vec<_> = scratch_queries
        .iter()
        .map(|(e, c)| (e, c.as_slice()))
        .collect();
    let scratch_bank = LineageBank::compile(&scratch_db, &scratch_refs).unwrap();
    assert_bank_matches_scratch(w.bank(), &scratch_bank, &map, context);
    let params = ApproximationParams::new(0.2, 0.2)
        .unwrap()
        .with_mode(EstimatorMode::FixedSamples(24));
    let live_queries = stream_queries(w.db());
    let windowed = windowed_batch_estimator(w, spec)
        .estimate_batch_with_bank(
            w.bank(),
            &batch_refs(&live_queries),
            params,
            &mut StdRng::seed_from_u64(est_seed),
        )
        .unwrap();
    let scratch = BatchEstimator::new(&scratch_db, sigma, spec)
        .unwrap()
        .estimate_batch_with_bank(
            &scratch_bank,
            &batch_refs(&scratch_queries),
            params,
            &mut StdRng::seed_from_u64(est_seed),
        )
        .unwrap();
    assert_eq!(windowed, scratch, "estimates diverged: {context}");
    // The walk draws themselves, too: under `M^{uo,1}` a primary-key block
    // never empties, so the block entries hold in every repair and only
    // the draws show whether a draw follows the remap.
    if spec.semantics == UniformSemantics::Operations {
        let mut windowed =
            OperationWalkSampler::with_index(w.db(), sigma, w.conflict_index().clone());
        let mut scratch = OperationWalkSampler::new(&scratch_db, sigma);
        if spec.singleton_only {
            (windowed, scratch) = (windowed.singleton_only(), scratch.singleton_only());
        }
        let mut rngs = [0, 1].map(|_| StdRng::seed_from_u64(est_seed));
        let mut repairs = [
            FactSet::empty(w.db().len()),
            FactSet::empty(scratch_db.len()),
        ];
        let mut walk_scratch = WalkScratch::new();
        for draw in 0..8 {
            windowed.sample_result_into(&mut rngs[0], &mut repairs[0], &mut walk_scratch);
            scratch.sample_result_into(&mut rngs[1], &mut repairs[1], &mut walk_scratch);
            let remapped: Vec<FactId> = repairs[0]
                .iter()
                .filter(|&f| w.db().is_live(f))
                .map(|f| remap(&map, f))
                .collect();
            let drawn: Vec<FactId> = repairs[1].iter().collect();
            assert_eq!(remapped, drawn, "draw {draw} diverged: {context}");
        }
    }
}

/// A 300-tick stream over a `Count(12)` window, under `M^uo`, `M^{uo,1}`
/// and `M^ur`: its expiries and retractions push the relation past its
/// row-compaction threshold and the relation index past its
/// arena-compaction threshold every few ticks, and after every tick the
/// windowed state still matches the scratch rebuild.  The property test
/// above runs 1–3 ticks and never compacts.  Same-seed estimates must
/// agree under the live-id remap, so the `M^{uo,1}` ranks must be keyed
/// by something the remap keeps (a component and a position in it), not
/// by fact id.
#[test]
fn count_window_matches_scratch_across_storage_compactions() {
    for spec in [
        GeneratorSpec::uniform_operations(),
        GeneratorSpec::uniform_operations().with_singleton_only(),
        GeneratorSpec::uniform_repairs(),
    ] {
        let mut workload = StreamWorkload::new(4, 3, 1, 0.5, 7);
        let (db, sigma) = workload.initial(12);
        let queries = stream_queries(&db);
        let mut w = WindowedEstimator::new(db, sigma.clone(), spec, WindowSpec::Count(12), queries)
            .unwrap();
        for tick in 1..=300u64 {
            let (inserts, retracts) = workload.tick(w.db());
            w.tick(inserts, &retracts).unwrap();
            let context = format!("spec {} tick {tick}", spec.short_name());
            assert_window_matches_scratch(&w, &sigma, spec, tick, &context);
        }
    }
}

/// A count window slides the queried block 0 out: its entry is left
/// with no witness, so its probability is exactly 0 under every
/// generator.  It must settle at zero draws on the tick that empties the
/// block and stay reused on every later tick, while the other entries
/// keep their reuse throughout.  (An entry that ran to `max_samples`
/// instead would also keep the pass from converging, and so redraw on
/// every later tick.)
#[test]
fn an_expired_queried_block_draws_nothing_on_later_ticks() {
    for spec in [
        GeneratorSpec::uniform_operations().with_singleton_only(),
        GeneratorSpec::uniform_operations(),
        GeneratorSpec::uniform_repairs(),
    ] {
        let name = spec.short_name();
        let (mut db, sigma) = StreamWorkload::new(1, 0, 0, 0.0, 0).initial(0);
        // Block 0 is the oldest, so a count window expires it first.
        for (k, v) in [(0, 0), (0, 1), (1, 10), (1, 11), (2, 20)] {
            db.insert_values("R", [Value::int(k), Value::int(v)])
                .unwrap();
        }
        let queries = stream_queries(&db);
        let mut w = WindowedEstimator::new(db, sigma, spec, WindowSpec::Count(5), queries).unwrap();
        let params = ApproximationParams::new(0.25, 0.15).unwrap().with_mode(
            EstimatorMode::OptimalStopping {
                max_samples: 400_000,
            },
        );
        let first = w
            .estimate(
                params,
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(3),
            )
            .unwrap();
        assert!(first.outcome.converged(), "spec {name}");
        assert!(first.outcome.queries.iter().all(|q| q.estimate > 0.0));

        // Two fresh keys push block 0 out of the window.
        let report = w
            .tick(vec![fact(w.db(), 5, 50), fact(w.db(), 6, 60)], &[])
            .unwrap();
        assert_eq!(report.expired.len(), 2, "spec {name}");
        // Entries 0 and 1 query block 0; entry 2 queries block 1.
        assert_eq!(report.changed, vec![true, true, false], "spec {name}");
        let emptied = w
            .estimate(
                params,
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(4),
            )
            .unwrap();
        assert_eq!(
            emptied.tick_draws, 0,
            "spec {name}: nothing left to draw for"
        );
        assert_eq!(emptied.reused, vec![false, false, true], "spec {name}");
        assert!(emptied.outcome.converged(), "spec {name}");
        for q in &emptied.outcome.queries[..2] {
            assert_eq!((q.estimate, q.samples, q.successes), (0.0, 0, 0));
        }
        assert_eq!(
            emptied.outcome.queries[2], first.outcome.queries[2],
            "spec {name}"
        );

        // Later ticks replace a fresh fact without expiring anything: no
        // entry changes, so every entry is reused at zero draws.
        for (tick, key) in (7..10).enumerate() {
            let old = fact(w.db(), key - 2, (key - 2) * 10);
            let report = w.tick(vec![fact(w.db(), key, key * 10)], &[old]).unwrap();
            assert!(report.expired.is_empty(), "spec {name} tick {tick}");
            assert!(
                report.enrolled.iter().all(|&e| !e),
                "spec {name} tick {tick}"
            );
            let later = w
                .estimate(
                    params,
                    &RunBudget::unlimited(),
                    &mut StdRng::seed_from_u64(5),
                )
                .unwrap();
            assert_eq!(later.tick_draws, 0, "spec {name} tick {tick}");
            assert!(later.reused.iter().all(|&r| r), "spec {name} tick {tick}");
            assert_eq!(
                later.outcome.queries, emptied.outcome.queries,
                "spec {name}"
            );
        }
    }
}
