//! Pulled `M^{uo,1}` draws.  Under singleton removals a fact survives
//! iff its keyed rank beats every conflict neighbour's, so a draw can
//! decide only the facts a check reads
//! ([`OperationWalkSampler::survives`]) instead of whole components, and
//! the estimators check a bank without drawing any repair
//! ([`PulledCheck`]).  These tests check that each decided fact, and each
//! entry the pulled check decides, gets exactly what the full draw from
//! the same RNG state gives it, on a built and on a refreshed conflict
//! index, and that the pulled draws realise the local-maxima law on small
//! instances.
//!
//! A fallback entry reads the pulled check through the backtracking
//! evaluator, so no `M^{uo,1}` draw is ever full.  The mixed-bank pins
//! fold every entry's `(samples, successes, truncated)` on the sequential
//! stopping path, the round-based path and the windowed path, over banks
//! whose fallback entries retire in the middle of a pass.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::TestCaseResult;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

use uocqa::core::budget::{BudgetStatus, RunBudget};
use uocqa::core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
use uocqa::core::sample_operations::{OperationWalkSampler, PulledCheck, WalkScratch};
use uocqa::core::{EstimateOutcome, WindowSpec, WindowedEstimator};
use uocqa::db::{ConflictIndex, Database, Fact, FactId, FactSet, FdSet, Value};
use uocqa::query::parser::parse_query;
use uocqa::query::{
    BankLiveSet, BankScratch, CompileBudget, LineageBank, Membership, QueryEvaluator,
};
use uocqa::repair::GeneratorSpec;
use uocqa::workload::queries::fact_membership_query_bank;
use uocqa::workload::MultiFdWorkload;

mod common;
use common::{binomial_upper_tail, local_maxima_repairs};

/// The singleton-only walk over `db`, backed by `index`.
fn pulling_walker<'a>(
    db: &'a Database,
    sigma: &'a FdSet,
    index: &ConflictIndex,
) -> OperationWalkSampler<'a> {
    OperationWalkSampler::with_index(db, sigma, index.clone()).singleton_only()
}

/// Draws `draws` repairs in full, and decides the facts `picked` under
/// the key of each, from equal RNG states.  Checks that each draw takes
/// one `u64`, and that every picked fact, deleted and conflict-free ones
/// included, gets the full draw's membership.
fn check_pulled_against_full(
    db: &Database,
    sampler: &OperationWalkSampler<'_>,
    picked: &[FactId],
    seed: u64,
    draws: usize,
) -> TestCaseResult {
    let mut full_rng = StdRng::seed_from_u64(seed);
    let mut pull_rng = StdRng::seed_from_u64(seed);
    let (mut full, mut scratch) = (FactSet::empty(db.len()), WalkScratch::new());
    for draw in 0..draws {
        sampler.sample_result_into(&mut full_rng, &mut full, &mut scratch);
        let key = pull_rng.next_u64();
        prop_assert_eq!(full_rng.clone().next_u64(), pull_rng.clone().next_u64());
        for &fact in picked {
            prop_assert_eq!(
                sampler.survives(key, fact),
                full.contains(fact),
                "draw {}, {:?}",
                draw,
                fact
            );
        }
    }
    Ok(())
}

/// A random choice of `picks` fact ids of `0..universe`, with repeats.
fn random_facts(universe: usize, picks: usize, seed: u64) -> Vec<FactId> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..picks)
        .map(|_| FactId::new(rng.random_range(0..universe)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random general-FD databases and random fact picks, drawn from a
    /// freshly built index.
    #[test]
    fn pulled_draws_equal_full_draws_on_a_built_index(
        facts in 4usize..80,
        relations in 1usize..3,
        spread in 2usize..6,
        rhs_domain in 2usize..4,
        data_seed in 0u64..1_000,
        picks in 0usize..24,
        seed in 0u64..1_000,
    ) {
        let (db, sigma) =
            MultiFdWorkload::new(facts, relations, (facts / spread).max(1), rhs_domain, data_seed)
                .generate();
        let index = ConflictIndex::build(&db, &sigma);
        let picked = random_facts(db.len(), picks, seed);
        check_pulled_against_full(&db, &pulling_walker(&db, &sigma, &index), &picked, seed, 12)?;
    }

    /// The same after a refresh: the index is built over a prefix of the
    /// facts, then the rest arrive (merging components) and every
    /// `gap`-th fact is deleted (splitting them), and the refreshed index
    /// equals a fresh build.  Picks include deleted facts.
    #[test]
    fn pulled_draws_equal_full_draws_on_a_refreshed_index(
        facts in 8usize..80,
        spread in 2usize..6,
        data_seed in 0u64..1_000,
        prefix in 20usize..80,
        gap in 2usize..7,
        picks in 0usize..24,
        seed in 0u64..1_000,
    ) {
        let (generated, sigma) =
            MultiFdWorkload::new(facts, 2, (facts / spread).max(1), 3, data_seed).generate();
        let (db, index) = refreshed(&generated, &sigma, prefix, gap);
        prop_assert_eq!(&index, &ConflictIndex::build(&db, &sigma));
        let picked = random_facts(db.len(), picks, seed);
        check_pulled_against_full(&db, &pulling_walker(&db, &sigma, &index), &picked, seed, 12)?;
    }

    /// Random banks under a small witness cap, so that some entries fall
    /// back, checked by the pulled check against the full draw from the
    /// same RNG state: the word-level check plus the evaluator.  Every
    /// live compiled entry's hit, every live entry's evaluator answer
    /// through the check, and every fact's membership must agree, while
    /// entries retire in random order in the middle of the pass.  The
    /// index is built, or refreshed over merged and split components
    /// and deleted facts.
    #[test]
    fn pulled_checks_equal_full_draws_while_entries_retire(
        facts in 8usize..80,
        relations in 1usize..3,
        spread in 2usize..6,
        data_seed in 0u64..1_000,
        refresh in 0u8..2,
        prefix in 20usize..80,
        gap in 2usize..7,
        cap in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let (generated, sigma) =
            MultiFdWorkload::new(facts, relations, (facts / spread).max(1), 3, data_seed)
                .generate();
        let (db, index) = if refresh == 1 {
            refreshed(&generated, &sigma, prefix, gap)
        } else {
            (generated.clone(), ConflictIndex::build(&generated, &sigma))
        };
        let queries = random_bank(&generated, seed);
        check_bank_against_full(&db, &sigma, &index, &queries, cap, seed, 16)?;
    }
}

/// `generated`'s facts, ingested as a first `prefix` per cent and then
/// the rest (merging components), with every `gap`-th fact deleted after
/// (splitting them), beside the conflict index built over the first part
/// and refreshed since.
fn refreshed(
    generated: &Database,
    sigma: &FdSet,
    prefix: usize,
    gap: usize,
) -> (Database, ConflictIndex) {
    let rows: Vec<Fact> = generated.iter().map(|(_, fact)| fact).collect();
    let split = rows.len() * prefix / 100;
    let mut db = Database::with_schema(generated.schema().clone());
    db.extend(rows[..split].to_vec()).unwrap();
    let mut index = ConflictIndex::build(&db, sigma);
    db.extend(rows[split..].to_vec()).unwrap();
    for id in (0..db.len()).step_by(gap) {
        db.delete(FactId::new(id)).unwrap();
    }
    index.refresh(&db, sigma);
    (db, index)
}

/// A random bank over the first and last relation of `generated`, the
/// facts before any deletion: fact-membership entries (witness-free once
/// their fact is deleted), a join, a three-atom join, a non-Boolean
/// entry with a candidate, and a product with many witnesses.
fn random_bank(generated: &Database, seed: u64) -> Vec<(QueryEvaluator, Vec<Value>)> {
    let db = generated;
    let parse = |text: &str| QueryEvaluator::new(parse_query(db.schema(), text).unwrap());
    let last = format!("R{}", db.schema().relation_count() - 1);
    let mut queries: Vec<(QueryEvaluator, Vec<Value>)> = fact_membership_query_bank(db, 4, seed)
        .unwrap()
        .into_iter()
        .map(|query| (QueryEvaluator::new(query), Vec::new()))
        .collect();
    for text in [
        format!("Ans() :- R0(x, y, z, w), {last}(x, y, u, v)"),
        format!("Ans() :- R0(x, y, z, w), {last}(x, u, v, t), R0(a, y, c, d)"),
        format!("Ans() :- R0(x, y, z, w), {last}(a, b, c, d)"),
    ] {
        queries.push((parse(&text), Vec::new()));
    }
    let pivot = db.fact(FactId::new(
        StdRng::seed_from_u64(seed).random_range(0..db.len()),
    ));
    queries.push((
        parse(&format!("Ans(y) :- {last}(x, y, z, w), R0(x, u, v, t)")),
        vec![pivot.values()[1].clone()],
    ));
    queries
}

/// The core of `pulled_checks_equal_full_draws_while_entries_retire`:
/// compiles `queries` under a witness cap of `cap`, builds one pulled
/// check over all of them, and runs `draws` draws, retiring the entries
/// in a random order at random draws.
fn check_bank_against_full(
    db: &Database,
    sigma: &FdSet,
    index: &ConflictIndex,
    queries: &[(QueryEvaluator, Vec<Value>)],
    cap: usize,
    seed: u64,
    draws: usize,
) -> TestCaseResult {
    let refs: Vec<_> = queries.iter().map(|(e, c)| (e, c.as_slice())).collect();
    let budget = CompileBudget::default().with_witness_cap(cap);
    let (bank, _) = LineageBank::compile_with_budget(db, &refs, &budget).unwrap();
    let walker = pulling_walker(db, sigma, index);
    let mut live = BankLiveSet::full(&bank);
    let mut check = PulledCheck::new(&walker, &bank, &live);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut retirements: Vec<(usize, usize)> = (0..bank.len())
        .map(|q| (rng.random_range(0..draws), q))
        .collect();
    retirements.shuffle(&mut rng);
    let mut pull_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut full_rng = pull_rng.clone();
    let (mut full, mut scratch) = (FactSet::empty(db.len()), WalkScratch::new());
    let (mut bank_scratch, mut hits) = (BankScratch::new(), vec![false; bank.len()]);
    for draw in 0..draws {
        for &(at, q) in &retirements {
            if at == draw {
                live.retire(&bank, q);
            }
        }
        check.draw(&mut pull_rng);
        walker.sample_result_into(&mut full_rng, &mut full, &mut scratch);
        prop_assert_eq!(full_rng.clone().next_u64(), pull_rng.clone().next_u64());
        for fact in (0..db.len()).map(FactId::new) {
            prop_assert_eq!(
                check.contains(fact),
                full.contains(fact),
                "draw {}, {:?}",
                draw,
                fact
            );
        }
        bank.evaluate_live_into(&live, &full, &mut bank_scratch, &mut hits);
        for &q in live.live_queries() {
            let (evaluator, candidate) = &queries[q];
            let entailed = evaluator.has_answer(db, &full, candidate).unwrap();
            if !bank.is_fallback(q) {
                prop_assert_eq!(hits[q], entailed, "draw {}, entry {}", draw, q);
                prop_assert_eq!(check.entry_hit(q), entailed, "draw {}, entry {}", draw, q);
            }
            prop_assert_eq!(
                evaluator.has_answer(db, &check, candidate).unwrap(),
                entailed,
                "draw {}, entry {}",
                draw,
                q
            );
        }
    }
    Ok(())
}

/// Pulled draws of every conflicting fact, written into a set of all
/// facts, realise the local-maxima law ([`local_maxima_repairs`]) on small
/// general-FD instances: every drawn repair is in its support, and each
/// repair's count is `Binomial(SAMPLES, p)`, failing only in a tail of
/// probability below `ALPHA` on either side.
#[test]
fn pulled_draws_follow_the_local_maxima_law() {
    const SAMPLES: u64 = 2_000;
    const ALPHA: f64 = 1e-6;
    for seed in 0..4 {
        let (db, sigma) = MultiFdWorkload::new(7, 2, 2, 2, seed).generate();
        let index = ConflictIndex::build(&db, &sigma);
        let exact = local_maxima_repairs(&db, &sigma);
        let sampler = pulling_walker(&db, &sigma, &index);
        let mut rng = StdRng::seed_from_u64(41 + seed);
        let mut repair = db.all_facts();
        let mut counts: BTreeMap<FactSet, u64> = BTreeMap::new();
        for _ in 0..SAMPLES {
            let key = rng.next_u64();
            for &fact in index.conflicting_facts() {
                repair.set(fact, sampler.survives(key, fact));
            }
            *counts.entry(repair.clone()).or_insert(0) += 1;
        }
        assert!(
            counts.keys().all(|r| exact.contains_key(r)),
            "seed {seed}: a pulled repair is not a set of local maxima"
        );
        for (repair, p) in &exact {
            let p = p.to_f64();
            let k = counts.get(repair).copied().unwrap_or(0);
            let upper = binomial_upper_tail(SAMPLES, p, k);
            let lower = 1.0 - binomial_upper_tail(SAMPLES, p, k + 1);
            assert!(
                upper > ALPHA && lower > ALPHA,
                "seed {seed}: repair {repair:?} drawn {k} of {SAMPLES} times, exact {p}"
            );
        }
    }
}

/// The general-FD instance of the mixed-bank pins: eight conflict
/// components over two relations.
fn mixed_instance() -> (Database, FdSet) {
    MultiFdWorkload::new(200, 2, 60, 3, 4).generate()
}

/// Six fact-membership entries, a join whose witnesses span components,
/// and two products past the default witness cap: one with 100² images,
/// true in almost every repair, and one that also needs a fact of a
/// conflicting `A`-group of `R0` to survive, which fails in a share of
/// the repairs.  An evaluator oracle that read the group's facts as
/// present, as they are in `D`, would satisfy it on every draw.  Both
/// fallback entries retire before the rarest membership entry.
fn mixed_queries(db: &Database) -> Vec<(QueryEvaluator, Vec<Value>)> {
    let parse = |text: &str| QueryEvaluator::new(parse_query(db.schema(), text).unwrap());
    let group = (0..)
        .find(|a| {
            let group = parse(&format!("Ans() :- R0({a}, y, z, w)"));
            let bank = LineageBank::compile(db, &[(&group, &[])]).unwrap();
            bank.query_witness_count(0).unwrap() >= 2
        })
        .unwrap();
    let mut queries: Vec<(QueryEvaluator, Vec<Value>)> = fact_membership_query_bank(db, 6, 8)
        .unwrap()
        .into_iter()
        .map(|query| (QueryEvaluator::new(query), Vec::new()))
        .collect();
    for text in [
        "Ans() :- R0(x, y, z, w), R1(x, y, u, v)".to_string(),
        "Ans() :- R0(x, y, z, w), R1(a, b, c, d)".to_string(),
        format!("Ans() :- R0({group}, y, z, w), R1(a, b, c, d), R0(e, f, g, h)"),
    ] {
        queries.push((parse(&text), Vec::new()));
    }
    queries
}

fn batch_refs(queries: &[(QueryEvaluator, Vec<Value>)]) -> Vec<BatchQuery<'_>> {
    queries
        .iter()
        .map(|(e, c)| BatchQuery::new(e, c.as_slice()))
        .collect()
}

fn params(epsilon: f64) -> ApproximationParams {
    ApproximationParams::new(epsilon, 0.1)
        .unwrap()
        .with_mode(EstimatorMode::OptimalStopping {
            max_samples: 50_000,
        })
}

fn spec() -> GeneratorSpec {
    GeneratorSpec::uniform_operations().with_singleton_only()
}

/// An FNV-1a fold of every entry's `(samples, successes, truncated)` and
/// the pass's draw count.
fn digest(outcomes: &[&EstimateOutcome]) -> u64 {
    let mix = |hash: u64, word: u64| (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for outcome in outcomes {
        for query in &outcome.queries {
            hash = mix(hash, query.samples);
            hash = mix(hash, query.successes);
            hash = mix(hash, u64::from(query.status != BudgetStatus::Converged));
        }
        hash = mix(hash, outcome.total_draws);
    }
    hash
}

/// Checks that the pass converged, and that every fallback entry retired
/// while a compiled entry was still live: the pass's one pulled check
/// served the evaluator and the compiled entries together, and kept
/// serving the compiled entries after the fallback entries retired.
fn assert_fallbacks_retire_mid_pass(outcome: &EstimateOutcome, bank: &LineageBank, context: &str) {
    assert!(outcome.converged(), "{context}");
    let last = |fallback: bool| {
        (0..bank.len())
            .filter(|&q| bank.is_fallback(q) == fallback)
            .map(|q| outcome.queries[q].samples)
            .max()
    };
    assert!(
        last(true) < last(false),
        "{context}: no compiled entry outlived the fallback entries"
    );
}

/// The sequential stopping path over a bank whose join entry is pushed
/// past a witness cap of 16, beside the two products (past the cap too),
/// from a fresh stream.
#[test]
fn mixed_bank_stopping_outcomes_are_pinned() {
    let (db, sigma) = mixed_instance();
    let queries = mixed_queries(&db);
    let batch = batch_refs(&queries);
    let estimator = BatchEstimator::new(&db, &sigma, spec()).unwrap();
    let refs: Vec<_> = queries.iter().map(|(e, c)| (e, c.as_slice())).collect();
    let (bank, _) = LineageBank::compile_with_budget(
        &db,
        &refs,
        &CompileBudget::default().with_witness_cap(16),
    )
    .unwrap();
    assert_eq!((0..bank.len()).filter(|&q| bank.is_fallback(q)).count(), 3);
    // A pass cut before its first draw is a fresh stream to resume.
    let uncut = RunBudget::unlimited().with_max_draws(0);
    let uncapped = estimator.compile_bank(&batch, &uncut).unwrap();
    let fresh = estimator
        .run(
            &uncapped,
            &batch,
            params(0.2),
            &uncut,
            None,
            &mut StdRng::seed_from_u64(1),
        )
        .unwrap();
    let outcome = estimator
        .run(
            &bank,
            &batch,
            params(0.2),
            &RunBudget::unlimited(),
            Some(&fresh),
            &mut StdRng::seed_from_u64(5),
        )
        .unwrap();
    assert_fallbacks_retire_mid_pass(&outcome, &bank, "stopping");
    assert_eq!(digest(&[&outcome]), 9836023562149814198, "stopping digest");
}

/// The round-based path, whose every round builds its draw state for the
/// entries still live.
#[test]
fn mixed_bank_round_outcomes_are_pinned() {
    let (db, sigma) = mixed_instance();
    let queries = mixed_queries(&db);
    let batch = batch_refs(&queries);
    let estimator = BatchEstimator::new(&db, &sigma, spec()).unwrap();
    let unlimited = RunBudget::unlimited();
    let bank = estimator.compile_bank(&batch, &unlimited).unwrap();
    let outcome = estimator
        .run_sharded(&bank, &batch, params(0.07), &unlimited, 9)
        .unwrap();
    assert_fallbacks_retire_mid_pass(&outcome, &bank, "rounds");
    assert_eq!(digest(&[&outcome]), 8448021296435329892, "rounds digest");
}

/// The windowed path: a first pass over the whole bank, then ticks that
/// retract facts (splitting components) and insert them again (merging
/// them), each followed by a pass over the entries they changed.
#[test]
fn mixed_bank_window_outcomes_are_pinned() {
    let (db, sigma) = mixed_instance();
    let queries = mixed_queries(&db);
    let facts: Vec<Fact> = (0..db.len())
        .step_by(11)
        .map(|id| db.fact(FactId::new(id)))
        .collect();
    let mut window =
        WindowedEstimator::new(db, sigma, spec(), WindowSpec::Unbounded, queries).unwrap();
    let mut rng = StdRng::seed_from_u64(13);
    let budget = RunBudget::unlimited();
    let first = window.estimate(params(0.2), &budget, &mut rng).unwrap();
    assert_fallbacks_retire_mid_pass(&first.outcome, window.bank(), "window, first pass");
    let mut outcomes = vec![first.outcome];
    for tick in 0..4 {
        let (inserts, retracts) = if tick % 2 == 0 {
            (Vec::new(), facts.clone())
        } else {
            (facts.clone(), Vec::new())
        };
        window.tick(inserts, &retracts).unwrap();
        outcomes.push(
            window
                .estimate(params(0.2), &budget, &mut rng)
                .unwrap()
                .outcome,
        );
    }
    let outcomes: Vec<&EstimateOutcome> = outcomes.iter().collect();
    assert_eq!(digest(&outcomes), 11620128251723852869, "window digest");
}
