//! Block-local draws under `M^ur` and `M^{ur,1}` (Lemmas 5.2 and E.2).
//!
//! The estimators draw only the conflicting blocks a bank's witnesses
//! meet.  That is sound because (1) a restricted draw agrees with the
//! full draw from the same RNG state on every block it covers, taking the
//! same single RNG word, and (2) a block query's answer probability
//! factorizes: it is the same on the block's own sub-database as on the
//! whole database.  These tests check both, plus that the estimators'
//! restricted path reproduces full draws exactly, with and without an
//! above-cap fallback entry.

use proptest::prelude::*;
use proptest::TestCaseResult;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use uocqa::core::budget::RunBudget;
use uocqa::core::exact::ExactSolver;
use uocqa::core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
use uocqa::core::sample_repairs::RepairSampler;
use uocqa::db::{Database, FactSet, FdSet, Value};
use uocqa::query::parser::parse_query;
use uocqa::query::QueryEvaluator;
use uocqa::repair::GeneratorSpec;
use uocqa::workload::queries::block_lookup_query;
use uocqa::workload::BlockWorkload;

mod common;
use common::block_database;

/// The two block-based generators.
const BLOCK_SPECS: [fn() -> GeneratorSpec; 2] = [GeneratorSpec::uniform_repairs, || {
    GeneratorSpec::uniform_repairs().with_singleton_only()
}];

/// The next word of a copy of `rng`, without advancing `rng`.
fn peek(rng: &StdRng) -> u64 {
    rng.clone().next_u64()
}

/// Draws `draws` repairs both in full and restricted to `listed` (indices
/// into the sampler's partition), from equal RNG states, and checks that
/// the restricted buffer agrees with the full draw on every fact of the
/// listed blocks, keeps every other conflicting fact absent and every
/// singleton fact present, and that each draw takes exactly one `u64`.
fn check_restricted_against_full(
    db: &Database,
    sigma: &FdSet,
    listed: &[usize],
    seed: u64,
    draws: usize,
) -> TestCaseResult {
    let pair = RepairSampler::new(db, sigma).unwrap();
    let blocks = pair.partition().blocks();
    for singleton in [false, true] {
        let sampler = if singleton {
            pair.clone().singleton_only()
        } else {
            pair.clone()
        };
        let mut full_rng = StdRng::seed_from_u64(seed);
        let mut part_rng = StdRng::seed_from_u64(seed);
        let mut full = FactSet::empty(db.len());
        let mut part = FactSet::empty(db.len());
        sampler.prepare(&mut part);
        for draw in 0..draws {
            let mut after_one_word = full_rng.clone();
            after_one_word.next_u64();
            sampler.sample_into(&mut full_rng, &mut full);
            sampler.sample_blocks_into(&mut part_rng, listed, &mut part);
            prop_assert_eq!(peek(&full_rng), peek(&after_one_word), "full draw {}", draw);
            prop_assert_eq!(
                peek(&part_rng),
                peek(&after_one_word),
                "restricted draw {}",
                draw
            );
            for (index, block) in blocks.iter().enumerate() {
                for &fact in block.facts() {
                    let expected = if block.len() == 1 || listed.contains(&index) {
                        full.contains(fact)
                    } else {
                        false
                    };
                    prop_assert_eq!(
                        part.contains(fact),
                        expected,
                        "singleton {}, draw {}, block {}, fact {:?}",
                        singleton,
                        draw,
                        index,
                        fact
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random primary-key databases (variable block sizes, singleton
    /// blocks included) and random block subsets, listed in arbitrary
    /// order and with repeats.
    #[test]
    fn restricted_draws_equal_full_draws_on_every_listed_block(
        blocks in 1usize..12,
        min_size in 1usize..3,
        spread in 0usize..3,
        data_seed in 0u64..1_000,
        picks in prop::collection::vec(0usize..12, 0..8),
        seed in 0u64..1_000,
    ) {
        let (db, sigma) = BlockWorkload {
            blocks,
            min_block_size: min_size,
            max_block_size: min_size + spread,
            seed: data_seed,
        }
        .generate();
        let listed: Vec<usize> = picks.into_iter().filter(|&b| b < blocks).collect();
        check_restricted_against_full(&db, &sigma, &listed, seed, 24)?;
    }

    /// Factorization (the `M^ur` half): a block query's exact answer
    /// probability on the block's own sub-database equals its probability
    /// on the whole database, under `M^ur` and `M^{ur,1}`.  Restricted
    /// draws, and `perfbench`'s per-block exact check, rest on it.
    #[test]
    fn block_marginals_factorize_under_uniform_repairs(
        profile in prop::collection::vec(1usize..4, 1..4),
        block in 0usize..3,
    ) {
        let (db, sigma) = block_database(&profile);
        let block = block % profile.len();
        let (own, own_sigma) = block_database(&profile[block..=block]);
        // `block_database` keys block `i` by `i`; the sub-database's only
        // block is keyed 0, so the same query text names it there.
        let query = |db: &Database, key: usize| {
            QueryEvaluator::new(parse_query(db.schema(), &format!("Ans(x) :- R({key}, x)")).unwrap())
        };
        let (whole_query, own_query) = (query(&db, block), query(&own, 0));
        for spec in BLOCK_SPECS.map(|spec| spec()) {
            for row in 0..profile[block] {
                let candidate = [Value::int(row as i64)];
                let whole = ExactSolver::new(&db, &sigma)
                    .answer_probability(spec, &whole_query, &candidate)
                    .unwrap();
                let local = ExactSolver::new(&own, &own_sigma)
                    .answer_probability(spec, &own_query, &candidate)
                    .unwrap();
                prop_assert_eq!(
                    &whole,
                    &local,
                    "{}, profile {:?}, block {}, row {}",
                    spec.short_name(),
                    &profile,
                    block,
                    row
                );
            }
        }
    }
}

/// Figure 2 (blocks `a1` of 3, `a2` of 1, `a3` of 2), every subset of
/// its blocks.
#[test]
fn figure2_restricted_draws_equal_full_draws_for_every_block_subset() {
    let (db, sigma) = block_database(&[3, 1, 2]);
    for mask in 0u32..8 {
        let listed: Vec<usize> = (0..3).filter(|b| mask >> b & 1 == 1).collect();
        check_restricted_against_full(&db, &sigma, &listed, u64::from(mask), 200).unwrap();
    }
}

/// The success counts of `draws` full draws from `seed`, checked against
/// every query with the backtracking evaluator: what the estimators
/// would count if they never restricted a draw.
fn full_draw_successes(
    db: &Database,
    sigma: &FdSet,
    singleton: bool,
    queries: &[(QueryEvaluator, Vec<Value>)],
    seed: u64,
    draws: u64,
) -> Vec<u64> {
    let mut sampler = RepairSampler::new(db, sigma).unwrap();
    if singleton {
        sampler = sampler.singleton_only();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut repair = FactSet::empty(db.len());
    let mut successes = vec![0u64; queries.len()];
    for _ in 0..draws {
        sampler.sample_into(&mut rng, &mut repair);
        for ((evaluator, candidate), count) in queries.iter().zip(&mut successes) {
            if evaluator.has_answer(db, &repair, candidate).unwrap() {
                *count += 1;
            }
        }
    }
    successes
}

/// The estimators' restricted path gives exactly the success counts of
/// full draws — per query, for a bank of block lookups, and for the same
/// bank plus an above-cap fallback entry, which keeps the full draw.
#[test]
fn estimators_reproduce_full_draws_with_and_without_a_fallback_entry() {
    let (db, sigma) = BlockWorkload::uniform(40, 3, 7).generate();
    let mut queries: Vec<(QueryEvaluator, Vec<Value>)> = (0..4)
        .map(|seed| {
            let (query, candidate) = block_lookup_query(&db, seed).unwrap();
            (QueryEvaluator::new(query), candidate)
        })
        .collect();
    let lookups = queries.len();
    // 120² homomorphism images: far past the default witness cap.
    queries.push((
        QueryEvaluator::new(parse_query(db.schema(), "Ans() :- R(x, y), R(z, w)").unwrap()),
        Vec::new(),
    ));
    let draws = 400;
    let params = ApproximationParams::new(0.1, 0.1)
        .unwrap()
        .with_mode(EstimatorMode::FixedSamples(draws));
    for spec in BLOCK_SPECS.map(|spec| spec()) {
        let singleton = spec.singleton_only;
        let estimator = BatchEstimator::new(&db, &sigma, spec).unwrap();
        for seed in [3, 11] {
            let expected = full_draw_successes(&db, &sigma, singleton, &queries, seed, draws);
            for bank_len in [lookups, lookups + 1] {
                let bank: Vec<BatchQuery<'_>> = queries[..bank_len]
                    .iter()
                    .map(|(e, c)| BatchQuery::new(e, c))
                    .collect();
                let compiled = estimator
                    .compile_bank(&bank, &RunBudget::unlimited())
                    .unwrap();
                assert_eq!(compiled.has_fallback(), bank_len > lookups);
                let batched = common::estimate_bank(
                    &estimator,
                    &bank,
                    params,
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
                let counts: Vec<u64> = batched.iter().map(|e| e.successes).collect();
                assert_eq!(
                    counts,
                    expected[..bank_len],
                    "{}, seed {seed}, bank of {bank_len}",
                    spec.short_name()
                );
            }
            let single = BatchEstimator::new(&db, &sigma, spec).unwrap();
            for (index, (evaluator, candidate)) in queries.iter().enumerate() {
                let estimate = common::estimate_one(
                    &single,
                    evaluator,
                    candidate,
                    params,
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
                assert_eq!(
                    estimate.successes,
                    expected[index],
                    "{}, seed {seed}, query {index}",
                    spec.short_name()
                );
            }
        }
    }
}
