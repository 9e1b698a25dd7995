//! Component-local draws under `M^uo` and `M^{uo,1}` (Lemmas 7.2 and D.7).
//!
//! Every singleton or pair operation lies inside one conflict component,
//! so the uniform-operations walk projected onto a component is that
//! component's own walk.  The repair draws walk each component on its own
//! keyed substream, and the estimators draw only the components a bank's
//! witnesses meet.  That is sound because (1) a restricted draw agrees
//! with the full draw from the same RNG state on every fact of the
//! components it covers, taking the same single RNG word, and (2) a
//! query's answer probability factorizes: it is the same on its
//! component's sub-database as on the whole database.  These tests check
//! both, that `ConflictIndex` stores the conflict graph's components,
//! that the keyed full walk still realises the chain's repair
//! distribution on a multi-component instance, that the lazy repair draws
//! realise it on components that are not cliques, in full and restricted
//! draws, that `M^us` does *not*
//! factorize, that the estimators' restricted path reproduces full
//! walks exactly, with and without an above-cap fallback entry, and that
//! the interleaved walk realises the chain's leaf distribution.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::TestCaseResult;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use uocqa::core::budget::RunBudget;
use uocqa::core::exact::ExactSolver;
use uocqa::core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
use uocqa::core::sample_operations::{OperationWalkSampler, WalkScratch};
use uocqa::db::{
    ConflictGraph, ConflictIndex, Database, Fact, FactId, FactSet, FdSet, FunctionalDependency,
    Schema, Value,
};
use uocqa::numeric::Ratio;
use uocqa::query::parser::parse_query;
use uocqa::query::{Atom, ConjunctiveQuery, QueryEvaluator, Term};
use uocqa::repair::operation::justified_operations;
use uocqa::repair::{GeneratorSpec, Operation, TreeLimits};
use uocqa::workload::fds::proposition_d6_database;
use uocqa::workload::queries::{block_lookup_query, fact_membership_query_bank};
use uocqa::workload::{BlockWorkload, MultiFdWorkload, SkewedJoinWorkload, StreamWorkload};

mod common;
use common::{binomial_upper_tail, block_database, local_maxima_repairs, multi_fd_database};

/// The two walk generators.
const WALK_SPECS: [fn() -> GeneratorSpec; 2] = [GeneratorSpec::uniform_operations, || {
    GeneratorSpec::uniform_operations().with_singleton_only()
}];

/// The walk sampler of `spec` over `db`.
fn walker<'a>(db: &'a Database, sigma: &'a FdSet, singleton: bool) -> OperationWalkSampler<'a> {
    let sampler = OperationWalkSampler::new(db, sigma);
    if singleton {
        sampler.singleton_only()
    } else {
        sampler
    }
}

/// The next word of a copy of `rng`, without advancing `rng`.
fn peek(rng: &StdRng) -> u64 {
    rng.clone().next_u64()
}

/// Draws `draws` repairs both in full and restricted to the components
/// `listed`, from equal RNG states, for the pair and the singleton walk.
/// Checks that the restricted buffer agrees with the full draw on every
/// fact of the listed components and keeps every other fact present,
/// that each draw takes exactly one `u64`, and that a fresh buffer and
/// scratch receive what the reused ones do.
fn check_restricted_against_full(
    db: &Database,
    sigma: &FdSet,
    listed: &[usize],
    seed: u64,
    draws: usize,
) -> TestCaseResult {
    for singleton in [false, true] {
        let sampler = walker(db, sigma, singleton);
        let index = sampler.conflict_index();
        let mut full_rng = StdRng::seed_from_u64(seed);
        let mut part_rng = StdRng::seed_from_u64(seed);
        let mut full = FactSet::empty(db.len());
        let mut part = FactSet::full(db.len());
        let (mut full_scratch, mut part_scratch) = (WalkScratch::new(), WalkScratch::new());
        for draw in 0..draws {
            let mut after_one_word = full_rng.clone();
            after_one_word.next_u64();
            let mut fresh = FactSet::empty(db.len());
            sampler.sample_result_into(&mut full_rng.clone(), &mut fresh, &mut WalkScratch::new());
            sampler.sample_result_into(&mut full_rng, &mut full, &mut full_scratch);
            sampler.sample_components_into(&mut part_rng, listed, &mut part, &mut part_scratch);
            prop_assert_eq!(&fresh, &full, "fresh buffer, draw {}", draw);
            prop_assert_eq!(peek(&full_rng), peek(&after_one_word), "full draw {}", draw);
            prop_assert_eq!(
                peek(&part_rng),
                peek(&after_one_word),
                "restricted draw {}",
                draw
            );
            for fact in (0..db.len()).map(FactId::new) {
                let expected = match index.component_of(fact) {
                    Some(c) if listed.contains(&c) => full.contains(fact),
                    _ => true,
                };
                prop_assert_eq!(
                    part.contains(fact),
                    expected,
                    "singleton {}, draw {}, fact {:?}",
                    singleton,
                    draw,
                    fact
                );
            }
        }
    }
    Ok(())
}

/// The stored partition is the conflict graph's non-trivial connected
/// components, in order of smallest fact id, and `component_of` agrees
/// with it.
fn check_partition(db: &Database, sigma: &FdSet) -> TestCaseResult {
    let index = ConflictIndex::build(db, sigma);
    let expected: Vec<Vec<FactId>> = ConflictGraph::build(db, sigma)
        .connected_components()
        .into_iter()
        .filter(|component| component.len() > 1)
        .collect();
    prop_assert_eq!(&index.components(), &expected);
    for fact in (0..db.len()).map(FactId::new) {
        let owner = expected.iter().position(|c| c.contains(&fact));
        prop_assert_eq!(index.component_of(fact), owner, "fact {:?}", fact);
    }
    Ok(())
}

/// A random subset of `0..count`, in arbitrary order and with repeats.
fn random_components(count: usize, picks: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..picks).map(|_| rng.random_range(0..count)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random many-component general-FD databases (two non-key FDs per
    /// relation, one or two relations) and random component subsets.
    #[test]
    fn restricted_walks_equal_full_walks_on_every_listed_component(
        facts in 4usize..80,
        relations in 1usize..3,
        spread in 2usize..6,
        rhs_domain in 2usize..4,
        data_seed in 0u64..1_000,
        picks in prop::collection::vec(0usize..64, 0..8),
        seed in 0u64..1_000,
    ) {
        let (db, sigma) =
            MultiFdWorkload::new(facts, relations, (facts / spread).max(1), rhs_domain, data_seed)
                .generate();
        check_partition(&db, &sigma)?;
        let count = ConflictIndex::build(&db, &sigma).component_count();
        let listed: Vec<usize> = picks.into_iter().filter(|&c| c < count).collect();
        check_restricted_against_full(&db, &sigma, &listed, seed, 12)?;
    }

    /// Factorization (the `M^uo` half): a fact's exact survival
    /// probability on its conflict component's sub-database equals its
    /// probability on the whole database, under `M^uo` and `M^{uo,1}`.
    /// Restricted walks rest on it.
    #[test]
    fn component_marginals_factorize_under_uniform_operations(
        rows in prop::collection::vec((0u8..3, 0u8..3, 0u8..3, 0u8..2), 1..6),
    ) {
        let (db, sigma) = multi_fd_database(&rows);
        for spec in WALK_SPECS.map(|spec| spec()) {
            for fact in (0..db.len()).map(FactId::new) {
                let (whole, local) = survival_whole_and_local(&db, &sigma, spec, fact);
                prop_assert_eq!(
                    &whole,
                    &local,
                    "{}, rows {:?}, fact {:?}",
                    spec.short_name(),
                    &rows,
                    fact
                );
            }
        }
    }
}

/// The exact probability that `fact` survives under `spec`, on the whole
/// database and on the sub-database of `fact`'s conflict component (or of
/// `fact` alone, if it conflicts with nothing).
fn survival_whole_and_local(
    db: &Database,
    sigma: &FdSet,
    spec: GeneratorSpec,
    fact: FactId,
) -> (Ratio, Ratio) {
    let index = ConflictIndex::build(db, sigma);
    let own = match index.component_of(fact) {
        Some(c) => FactSet::from_iter(db.len(), index.component(c).iter().copied()),
        None => FactSet::from_iter(db.len(), [fact]),
    };
    let own = db.restrict(&own);
    let member = db.fact(fact);
    let terms = member.values().iter().cloned().map(Term::Const).collect();
    let query =
        ConjunctiveQuery::boolean(db.schema(), vec![Atom::new(member.relation(), terms)]).unwrap();
    let query = QueryEvaluator::new(query);
    let whole = ExactSolver::new(db, sigma)
        .answer_probability(spec, &query, &[])
        .unwrap();
    let local = ExactSolver::new(&own, sigma)
        .answer_probability(spec, &query, &[])
        .unwrap();
    (whole, local)
}

/// `M^us` does not factorize, which is why its draws stay global: with
/// blocks of 2 and 3 facts, a fact of the 3-block survives 1/4 of the
/// 3-block's own complete sequences but only 8/33 of the whole
/// database's, because a sequence's interleavings with the other block
/// depend on its length.
#[test]
fn uniform_sequences_marginals_do_not_factorize() {
    let (db, sigma) = block_database(&[2, 3]);
    let fact = FactId::new(2);
    let (whole, local) =
        survival_whole_and_local(&db, &sigma, GeneratorSpec::uniform_sequences(), fact);
    assert_eq!(local, Ratio::from_u64(1, 4));
    assert_eq!(whole, Ratio::from_u64(8, 33));
    // The walk generators agree on both databases.
    for spec in WALK_SPECS.map(|spec| spec()) {
        let (whole, local) = survival_whole_and_local(&db, &sigma, spec, fact);
        assert_eq!(whole, local, "{}", spec.short_name());
    }
}

/// Restricted walks over the other many-component inputs: a larger
/// `MultiFdWorkload`, a `SkewedJoinWorkload` (single FD `C → B`), and a
/// stream window after some ticks, so that tombstoned ids are present.
#[test]
fn restricted_walks_equal_full_walks_on_workload_databases() {
    let mut stream = StreamWorkload::new(60, 12, 12, 0.5, 5);
    let (mut window, window_sigma) = stream.initial(150);
    for _ in 0..6 {
        let (inserts, retracts) = stream.tick(&window);
        for fact in &retracts {
            window.retract(fact).unwrap();
        }
        for fact in inserts {
            window.insert(fact).unwrap();
        }
    }
    assert!(
        window.live_count() < window.len(),
        "the window holds tombstones"
    );
    let inputs = [
        MultiFdWorkload::new(600, 2, 150, 3, 9).generate(),
        SkewedJoinWorkload::scaling(400, 3).generate(),
        (window, window_sigma),
    ];
    for (which, (db, sigma)) in inputs.iter().enumerate() {
        check_partition(db, sigma).unwrap();
        let count = ConflictIndex::build(db, sigma).component_count();
        assert!(count >= 10, "input {which} has {count} components");
        for (picks, seed) in [(1, 1), (count / 4, 2), (count, 3)] {
            let listed = random_components(count, picks, 40 + seed);
            check_restricted_against_full(db, sigma, &listed, seed, 20).unwrap();
        }
    }
}

/// The paper's running example (one component) plus a two-fact block in
/// a component of its own.
fn two_component_database() -> (Database, FdSet) {
    let mut schema = Schema::new();
    schema.add_relation("R", &["A", "B", "C"]).unwrap();
    let mut db = Database::with_schema(schema);
    let mut sigma = FdSet::new();
    for lhs in ["A", "C"] {
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &[lhs], &["B"]).unwrap());
    }
    for (a, b, c) in [
        ("a1", "b1", "c1"),
        ("a1", "b2", "c2"),
        ("a2", "b1", "c2"),
        ("a3", "b1", "c3"),
        ("a3", "b2", "c4"),
    ] {
        db.insert_values("R", [Value::str(a), Value::str(b), Value::str(c)])
            .unwrap();
    }
    (db, sigma)
}

/// The operational semantics of `spec` over `db`: each repair with its
/// exact probability, from the solver's chain tree.
fn tree_repairs(db: &Database, sigma: &FdSet, spec: GeneratorSpec) -> BTreeMap<FactSet, Ratio> {
    ExactSolver::new(db, sigma)
        .semantics(spec)
        .unwrap()
        .repairs()
        .iter()
        .map(|entry| (entry.repair.clone(), entry.probability.clone()))
        .collect()
}

/// Checks that `SAMPLES` keyed walks of `spec` from `seed` realise the
/// chain's repair distribution `semantics`: each repair's count is
/// `Binomial(SAMPLES, p)`, and the check fails only when a count lies in a
/// tail of probability below `ALPHA` on either side.  The walks are full
/// draws, or, given `listed`, draws restricted to those components
/// ([`OperationWalkSampler::sample_components_into`] on a full buffer),
/// checked against `semantics` with every fact outside the listed
/// components present.
fn assert_walk_matches_the_exact_semantics(
    db: &Database,
    sigma: &FdSet,
    spec: GeneratorSpec,
    semantics: &BTreeMap<FactSet, Ratio>,
    listed: Option<&[usize]>,
    seed: u64,
) {
    const SAMPLES: u64 = 3_000;
    const ALPHA: f64 = 1e-6;
    let sampler = walker(db, sigma, spec.singleton_only);
    let index = sampler.conflict_index();
    let untouched: Vec<FactId> = (0..index.component_count())
        .filter(|c| listed.is_some_and(|listed| !listed.contains(c)))
        .flat_map(|c| index.component(c).iter().copied())
        .collect();
    let mut exact: BTreeMap<FactSet, f64> = BTreeMap::new();
    for (repair, probability) in semantics {
        let mut repair = repair.clone();
        for &fact in &untouched {
            repair.insert(fact);
        }
        *exact.entry(repair).or_insert(0.0) += probability.to_f64();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut repair, mut scratch) = (FactSet::full(db.len()), WalkScratch::new());
    let mut counts: BTreeMap<FactSet, u64> = BTreeMap::new();
    for _ in 0..SAMPLES {
        match listed {
            None => sampler.sample_result_into(&mut rng, &mut repair, &mut scratch),
            Some(listed) => {
                sampler.sample_components_into(&mut rng, listed, &mut repair, &mut scratch)
            }
        }
        *counts.entry(repair.clone()).or_insert(0) += 1;
    }
    assert!(
        counts.keys().all(|r| exact.contains_key(r)),
        "{}: a sampled repair is not in the semantics",
        spec.short_name()
    );
    for (repair, &p) in &exact {
        // No underflow in the tail's first term at this sample size.
        assert!(binomial_upper_tail(SAMPLES, p, 0) > 0.999);
        let k = counts.get(repair).copied().unwrap_or(0);
        let upper = binomial_upper_tail(SAMPLES, p, k);
        let lower = 1.0 - binomial_upper_tail(SAMPLES, p, k + 1);
        assert!(
            upper > ALPHA && lower > ALPHA,
            "{}: repair {repair:?} drawn {k} of {SAMPLES} times, exact {p}",
            spec.short_name()
        );
    }
}

/// The keyed full walk realises the chain's repair distribution on a
/// two-component instance.
#[test]
fn keyed_full_walk_matches_the_exact_semantics_on_two_components() {
    let (db, sigma) = two_component_database();
    assert_eq!(ConflictIndex::build(&db, &sigma).component_count(), 2);
    for spec in WALK_SPECS.map(|spec| spec()) {
        let semantics = tree_repairs(&db, &sigma, spec);
        assert_walk_matches_the_exact_semantics(&db, &sigma, spec, &semantics, None, 17);
    }
}

/// The walks count conflicting neighbours, not violations, so a pair
/// violating two FDs must weigh like any other pair.  Over `R(A, B, C)`
/// with `A → B` and `C → B`: f0 and f1 violate both FDs, f2 conflicts
/// with both under `C → B`, and f3 conflicts with f2 under `A → B`; f4
/// and f5 form a second component, again violating both FDs.
#[test]
fn walks_match_the_exact_semantics_with_a_doubly_violated_pair() {
    let mut schema = Schema::new();
    schema.add_relation("R", &["A", "B", "C"]).unwrap();
    let mut db = Database::with_schema(schema);
    let mut sigma = FdSet::new();
    for lhs in ["A", "C"] {
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &[lhs], &["B"]).unwrap());
    }
    for (a, b, c) in [
        ("a1", "b1", "c1"),
        ("a1", "b2", "c1"),
        ("a2", "b3", "c1"),
        ("a2", "b1", "c2"),
        ("a3", "b1", "c3"),
        ("a3", "b2", "c3"),
    ] {
        db.insert_values("R", [Value::str(a), Value::str(b), Value::str(c)])
            .unwrap();
    }
    let index = ConflictIndex::build(&db, &sigma);
    assert_eq!(index.violations().len(), 7);
    assert_eq!(index.pairs().len(), 5);
    assert_eq!(index.component_count(), 2);
    for spec in WALK_SPECS.map(|spec| spec()) {
        let semantics = tree_repairs(&db, &sigma, spec);
        assert_walk_matches_the_exact_semantics(&db, &sigma, spec, &semantics, None, 23);
    }
}

/// Over `R(A, B, C, P)` with `A → B` and `C → B`, ten facts in one
/// component that is not a clique; f0 and f1 violate both FDs.  The same
/// database backs the walk sampler's in-crate cross-check of its justified
/// operations against a recompute.
fn overlapping_fd_database() -> (Database, FdSet) {
    let mut schema = Schema::new();
    schema.add_relation("R", &["A", "B", "C", "P"]).unwrap();
    let mut db = Database::with_schema(schema);
    for (payload, (a, b, c)) in [
        (0, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 1),
        (1, 0, 0),
        (2, 2, 1),
        (2, 2, 2),
        (2, 0, 2),
        (0, 2, 2),
        (1, 1, 0),
    ]
    .into_iter()
    .enumerate()
    {
        let row = [a, b, c, payload as i64].map(Value::int);
        db.insert_values("R", row).unwrap();
    }
    let mut sigma = FdSet::new();
    for lhs in ["A", "C"] {
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &[lhs], &["B"]).unwrap());
    }
    (db, sigma)
}

/// The repair distribution of the uniform-operations chain, by dynamic
/// programming over the sub-databases it reaches rather than over its
/// tree: each reached `D'` passes its probability on to its justified
/// successors in equal shares, or keeps it as a repair if it has none.
/// Every step removes a fact, so visiting the sub-databases by falling
/// size settles each before it is expanded.  Its cost follows the
/// reachable sub-databases (at most `2^|D|`), the tree's the sequences.
fn uniform_operations_repairs(
    db: &Database,
    sigma: &FdSet,
    singleton_only: bool,
) -> BTreeMap<FactSet, Ratio> {
    let mut by_size: Vec<BTreeMap<FactSet, Ratio>> = vec![BTreeMap::new(); db.len() + 1];
    by_size[db.len()].insert(db.all_facts(), Ratio::one());
    let mut repairs = BTreeMap::new();
    for size in (0..=db.len()).rev() {
        for (subset, p) in std::mem::take(&mut by_size[size]) {
            let ops = justified_operations(db, sigma, &subset, singleton_only);
            if ops.is_empty() {
                repairs.insert(subset, p);
                continue;
            }
            let share = &p * &Ratio::from_u64(1, ops.len() as u64);
            for op in &ops {
                let next = op.applied_to(&subset);
                *by_size[next.len()].entry(next).or_insert_with(Ratio::zero) += &share;
            }
        }
    }
    repairs
}

/// The repair draws (the `M^uo` lazy permutation and the `M^{uo,1}` local
/// maxima) realise the chain's repair distribution where a walk's
/// operations stop being justified out of order: on general-FD components
/// that are not cliques, under both walk specs, in full and restricted to
/// some components.  The one-component ten-fact database's `M^uo` tree
/// is far past the solver's node cap, so its semantics come from
/// [`uniform_operations_repairs`], which first has to equal the tree's on
/// the three-component workload instance.
#[test]
fn repair_draws_match_the_exact_semantics_on_non_clique_components() {
    // Components of 3 facts (a path), 2 and 3 (a triangle).
    let workload = MultiFdWorkload::new(10, 2, 3, 3, 10).generate();
    for spec in WALK_SPECS.map(|spec| spec()) {
        let (db, sigma) = &workload;
        assert_eq!(
            uniform_operations_repairs(db, sigma, spec.singleton_only),
            tree_repairs(db, sigma, spec),
            "{}",
            spec.short_name()
        );
    }
    // A restricted draw over the one-component database covers all of it.
    let inputs = [(overlapping_fd_database(), vec![0]), (workload, vec![0, 2])];
    for ((db, sigma), listed) in &inputs {
        let index = ConflictIndex::build(db, sigma);
        assert!((0..index.component_count()).any(|c| {
            let size = index.component(c).len();
            index.component_pairs(c).len() < size * (size - 1) / 2
        }));
        for spec in WALK_SPECS.map(|spec| spec()) {
            let semantics = uniform_operations_repairs(db, sigma, spec.singleton_only);
            for (draws, seed) in [(None, 29), (Some(&listed[..]), 31)] {
                assert_walk_matches_the_exact_semantics(db, sigma, spec, &semantics, draws, seed);
            }
        }
    }
}

/// The local-maxima law of the `M^{uo,1}` draws is the chain's own: on
/// small general-FD instances it gives every repair exactly the
/// probability `ExactSolver` computes from the chain's tree.
#[test]
fn local_maxima_law_equals_the_exact_singleton_semantics() {
    let spec = GeneratorSpec::uniform_operations().with_singleton_only();
    let mut non_cliques = 0;
    for (facts, lhs, rhs) in [(7, 2, 2), (8, 3, 3), (8, 2, 3)] {
        for seed in 0..16 {
            let (db, sigma) = MultiFdWorkload::new(facts, 2, lhs, rhs, seed).generate();
            let index = ConflictIndex::build(&db, &sigma);
            non_cliques += (0..index.component_count())
                .filter(|&c| {
                    let size = index.component(c).len();
                    index.component_pairs(c).len() < size * (size - 1) / 2
                })
                .count();
            assert_eq!(
                local_maxima_repairs(&db, &sigma),
                tree_repairs(&db, &sigma, spec),
                "MultiFdWorkload::new({facts}, 2, {lhs}, {rhs}, {seed})"
            );
        }
    }
    // On a clique the law is trivially the chain's (one uniform
    // survivor); the instances must also hold components that are not.
    assert!(non_cliques >= 40, "{non_cliques} non-clique components");
}

/// A digest of `draws` keyed repair draws from `seed`: every draw's
/// surviving fact ids, folded with FNV-1a.
fn draw_digest(sampler: &OperationWalkSampler<'_>, seed: u64, draws: usize) -> u64 {
    let mix = |hash: u64, word: u64| (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    let mut rng = StdRng::seed_from_u64(seed);
    let universe = sampler.conflict_index().universe();
    let (mut repair, mut scratch) = (FactSet::empty(universe), WalkScratch::new());
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for _ in 0..draws {
        sampler.sample_result_into(&mut rng, &mut repair, &mut scratch);
        hash = mix(hash, repair.len() as u64);
        for fact in repair.iter() {
            hash = mix(hash, fact.index() as u64);
        }
    }
    hash
}

/// The walk sampler of `spec` over `db`, backed by a caller-maintained
/// conflict index.
fn indexed_walker<'a>(
    db: &'a Database,
    sigma: &'a FdSet,
    index: &ConflictIndex,
    singleton: bool,
) -> OperationWalkSampler<'a> {
    let sampler = OperationWalkSampler::with_index(db, sigma, index.clone());
    if singleton {
        sampler.singleton_only()
    } else {
        sampler
    }
}

/// Pins the `M^uo` and `M^{uo,1}` draw streams on a one-FD stream window
/// with tombstones, drawn from a freshly built index and from one
/// refreshed after every tick.  Under a single FD the walks' singleton
/// and pair retirement orders follow the pair order, so these digests
/// only move when the walk itself changes.
#[test]
fn single_fd_walk_streams_are_pinned() {
    let mut stream = StreamWorkload::new(20, 6, 6, 0.5, 3);
    let (mut window, sigma) = stream.initial(60);
    let mut refreshed = ConflictIndex::build(&window, &sigma);
    for _ in 0..4 {
        let (inserts, retracts) = stream.tick(&window);
        for fact in &retracts {
            window.retract(fact).unwrap();
        }
        for fact in inserts {
            window.insert(fact).unwrap();
        }
        refreshed.refresh(&window, &sigma);
    }
    assert!(
        window.live_count() < window.len(),
        "the window holds tombstones"
    );
    let pinned = [0x0d5d_f761_f89e_0679, 0x4248_c446_0cd1_ecbb];
    let digests =
        [false, true].map(|singleton| draw_digest(&walker(&window, &sigma, singleton), 7, 200));
    assert_eq!(digests, pinned, "M^uo, M^{{uo,1}} draw digests");
    let digests = [false, true].map(|singleton| {
        draw_digest(
            &indexed_walker(&window, &sigma, &refreshed, singleton),
            7,
            200,
        )
    });
    assert_eq!(
        digests, pinned,
        "M^uo, M^{{uo,1}} draw digests from a refreshed index"
    );
}

/// A digest of `walks` interleaved walks ([`OperationWalkSampler::sample`])
/// from `seed`: every walk's operations, leaf probability and surviving
/// fact ids, folded with FNV-1a.
fn sequence_digest(sampler: &OperationWalkSampler<'_>, seed: u64, walks: usize) -> u64 {
    let mix = |hash: u64, word: u64| (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for _ in 0..walks {
        let outcome = sampler.sample(&mut rng);
        hash = mix(hash, outcome.sequence.len() as u64);
        for operation in outcome.sequence.operations() {
            hash = mix(hash, operation.facts().len() as u64);
            for fact in operation.facts() {
                hash = mix(hash, fact.index() as u64);
            }
        }
        hash = mix(hash, outcome.probability.ln().to_bits());
        hash = mix(hash, outcome.result.len() as u64);
        for fact in outcome.result.iter() {
            hash = mix(hash, fact.index() as u64);
        }
    }
    hash
}

/// A multi-FD, multi-component `MultiFdWorkload` database reached by a
/// bulk insert, a second bulk insert and a run of deletes, with a
/// conflict index built before the second insert and refreshed after
/// the deletes.
fn refreshed_multi_fd_window() -> (Database, FdSet, ConflictIndex) {
    let (generated, sigma) = MultiFdWorkload::new(200, 2, 60, 3, 2).generate();
    let facts: Vec<Fact> = generated.iter().map(|(_, fact)| fact).collect();
    let mut db = Database::with_schema(generated.schema().clone());
    db.extend(facts[..120].to_vec()).unwrap();
    let mut index = ConflictIndex::build(&db, &sigma);
    db.extend(facts[120..].to_vec()).unwrap();
    for id in (0..db.len()).step_by(9) {
        db.delete(FactId::new(id)).unwrap();
    }
    index.refresh(&db, &sigma);
    (db, sigma, index)
}

/// Pins the interleaved `M^uo` and `M^{uo,1}` walks
/// ([`OperationWalkSampler::sample`], which picks from every component's
/// justified operations at once, in canonical order) on a multi-FD,
/// multi-component database, drawn from a freshly built and from a
/// refreshed index.
#[test]
fn interleaved_walk_streams_are_pinned() {
    let (db, sigma, refreshed) = refreshed_multi_fd_window();
    let built = ConflictIndex::build(&db, &sigma);
    assert!(built.component_count() >= 4);
    assert!(built.violations().len() > built.pairs().len());
    assert_eq!(refreshed, built);
    for (which, index) in [("built", &built), ("refreshed", &refreshed)] {
        let digests = [false, true].map(|singleton| {
            sequence_digest(&indexed_walker(&db, &sigma, index, singleton), 5, 60)
        });
        assert_eq!(
            digests,
            [0xd4ab_6d0c_7262_36d1, 0x74f9_e4d7_5e21_0848],
            "M^uo, M^{{uo,1}} sequence digests from the {which} index"
        );
    }
}

/// Pins the `M^uo` and `M^{uo,1}` repair draws
/// ([`OperationWalkSampler::sample_result_into`]: the lazy permutation of
/// each component's operations, and the local maxima of each component's
/// keyed ranks) on the multi-FD, multi-component database, drawn from a
/// freshly built and from a refreshed index.  Its components are not
/// cliques, so operations stop being justified out of draw order and the
/// pool's discards shape the `M^uo` stream, while the `M^{uo,1}` stream
/// reads every fact's neighbour ranks by component position.
#[test]
fn multi_fd_repair_draw_streams_are_pinned() {
    let (db, sigma, refreshed) = refreshed_multi_fd_window();
    let built = ConflictIndex::build(&db, &sigma);
    for (which, index) in [("built", &built), ("refreshed", &refreshed)] {
        let digests = [false, true]
            .map(|singleton| draw_digest(&indexed_walker(&db, &sigma, index, singleton), 11, 200));
        assert_eq!(
            digests,
            [0xa5f9_57cd_f95f_8652, 0x119a_334c_50d3_ab0d],
            "M^uo, M^{{uo,1}} draw digests from the {which} index"
        );
    }
}

/// The success counts of `draws` full walks from `seed`, checked against
/// every query with the backtracking evaluator: what the estimators
/// would count if they never restricted a draw.
fn full_walk_successes(
    db: &Database,
    sigma: &FdSet,
    singleton: bool,
    queries: &[(QueryEvaluator, Vec<Value>)],
    seed: u64,
    draws: u64,
) -> Vec<u64> {
    let sampler = walker(db, sigma, singleton);
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut repair, mut scratch) = (FactSet::empty(db.len()), WalkScratch::new());
    let mut successes = vec![0u64; queries.len()];
    for _ in 0..draws {
        sampler.sample_result_into(&mut rng, &mut repair, &mut scratch);
        for ((evaluator, candidate), count) in queries.iter().zip(&mut successes) {
            if evaluator.has_answer(db, &repair, candidate).unwrap() {
                *count += 1;
            }
        }
    }
    successes
}

/// Checks that the batched and the per-query estimators count exactly
/// what full walks count, for the bank of all but the last query and for
/// the bank with the last query, an above-cap fallback entry, added.
fn assert_estimators_reproduce_full_walks(
    db: &Database,
    sigma: &FdSet,
    spec: GeneratorSpec,
    queries: &[(QueryEvaluator, Vec<Value>)],
) {
    let draws = 300;
    let params = ApproximationParams::new(0.1, 0.1)
        .unwrap()
        .with_mode(EstimatorMode::FixedSamples(draws));
    let lookups = queries.len() - 1;
    let estimator = BatchEstimator::new(db, sigma, spec).unwrap();
    for seed in [3, 11] {
        let expected = full_walk_successes(db, sigma, spec.singleton_only, queries, seed, draws);
        for bank_len in [lookups, lookups + 1] {
            let bank: Vec<BatchQuery<'_>> = queries[..bank_len]
                .iter()
                .map(|(e, c)| BatchQuery::new(e, c))
                .collect();
            let compiled = estimator
                .compile_bank(&bank, &RunBudget::unlimited())
                .unwrap();
            assert_eq!(compiled.has_fallback(), bank_len > lookups);
            let batched =
                common::estimate_bank(&estimator, &bank, params, &mut StdRng::seed_from_u64(seed))
                    .unwrap();
            let counts: Vec<u64> = batched.iter().map(|e| e.successes).collect();
            assert_eq!(
                counts,
                expected[..bank_len],
                "{}, seed {seed}, bank of {bank_len}",
                spec.short_name()
            );
        }
        let single = BatchEstimator::new(db, sigma, spec).unwrap();
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

/// The estimators' restricted path gives exactly the success counts of
/// full walks, per query and per bank, with and without an above-cap
/// fallback entry (which keeps the full walk): over primary keys for both
/// walk specs, and over general FDs for `M^{uo,1}`.
#[test]
fn estimators_reproduce_full_walks_with_and_without_a_fallback_entry() {
    let (db, sigma) = BlockWorkload::uniform(40, 3, 7).generate();
    let mut queries: Vec<(QueryEvaluator, Vec<Value>)> = (0..4)
        .map(|seed| {
            let (query, candidate) = block_lookup_query(&db, seed).unwrap();
            (QueryEvaluator::new(query), candidate)
        })
        .collect();
    // 40 · 120 homomorphism images: past the default witness cap.  No
    // repair keeps two facts of one block, so the query never holds; a
    // draw that skipped the blocks the lookups miss would leave them
    // whole and satisfy it on every draw.
    queries.push((
        QueryEvaluator::new(
            parse_query(db.schema(), "Ans() :- R(x, 0), R(x, 1), R(z, w)").unwrap(),
        ),
        Vec::new(),
    ));
    for spec in WALK_SPECS.map(|spec| spec()) {
        assert_estimators_reproduce_full_walks(&db, &sigma, spec, &queries);
    }

    // Eight components, most of them small.
    let (db, sigma) = MultiFdWorkload::new(200, 2, 60, 3, 4).generate();
    assert_eq!(ConflictIndex::build(&db, &sigma).component_count(), 8);
    let mut queries: Vec<(QueryEvaluator, Vec<Value>)> = fact_membership_query_bank(&db, 4, 8)
        .unwrap()
        .into_iter()
        .map(|query| (QueryEvaluator::new(query), Vec::new()))
        .collect();
    // A join whose witnesses span many components.
    queries.push((
        QueryEvaluator::new(
            parse_query(db.schema(), "Ans() :- R0(x, y, z, w), R1(x, y, u, v)").unwrap(),
        ),
        Vec::new(),
    ));
    // 100² images: above the cap.
    queries.push((
        QueryEvaluator::new(
            parse_query(db.schema(), "Ans() :- R0(x, y, z, w), R1(a, b, c, d)").unwrap(),
        ),
        Vec::new(),
    ));
    assert_estimators_reproduce_full_walks(
        &db,
        &sigma,
        GeneratorSpec::uniform_operations().with_singleton_only(),
        &queries,
    );
}

/// A repair drawn after deletions is a subset of the live database under
/// both walk generators, from a freshly built and from a refreshed index:
/// a tombstoned id belongs to no conflict component, so no draw rewrites
/// it, and the draw must start from the live facts rather than from every
/// id of the universe.  The same holds for the interleaved walk, whose
/// result is also the result of its sequence applied to the database.
#[test]
fn walk_repairs_after_deletions_hold_only_live_facts() {
    let (db, sigma, refreshed) = refreshed_multi_fd_window();
    assert!(db.live_count() < db.len(), "the database holds tombstones");
    let built = ConflictIndex::build(&db, &sigma);
    for (which, index) in [("built", &built), ("refreshed", &refreshed)] {
        for singleton in [false, true] {
            let sampler = indexed_walker(&db, &sigma, index, singleton);
            let mut rng = StdRng::seed_from_u64(5);
            let (mut repair, mut scratch) = (FactSet::empty(db.len()), WalkScratch::new());
            for draw in 0..40 {
                sampler.sample_result_into(&mut rng, &mut repair, &mut scratch);
                assert!(
                    repair.is_subset_of(db.live_facts()),
                    "draw {draw} (singleton {singleton}, {which} index) holds a deleted fact"
                );
                let outcome = sampler.sample(&mut rng);
                assert!(
                    outcome.result.is_subset_of(db.live_facts()),
                    "walk {draw} (singleton {singleton}, {which} index) holds a deleted fact"
                );
                assert_eq!(
                    outcome.sequence.result(&db),
                    outcome.result,
                    "walk {draw} (singleton {singleton}, {which} index)"
                );
            }
        }
    }
}

/// The interleaved walk ([`OperationWalkSampler::sample`]) realises the
/// chain's *sequence* law, not only its repair law: every sampled
/// sequence is a leaf of the chain, its reported `π(s)` is that leaf's
/// exact probability, and each leaf's count is `Binomial(SAMPLES, π)`,
/// failing only in a tail of probability below `ALPHA` on either side.
/// Checked under `M^uo` and `M^{uo,1}` on the running example, on the
/// running example beside a second component (so the walk interleaves
/// components), and on the Proposition D.6 family for n = 4.
#[test]
fn interleaved_walks_follow_the_chain_leaf_distribution() {
    const SAMPLES: u64 = 1_500;
    const ALPHA: f64 = 1e-6;
    let (two_components, sigma) = two_component_database();
    let mut running_example = Database::with_schema(two_components.schema().clone());
    for (_, fact) in two_components.iter().take(3) {
        running_example.insert(fact).unwrap();
    }
    let (star, star_sigma) = proposition_d6_database(4);
    for (name, db, sigma) in [
        ("running example", &running_example, &sigma),
        ("two components", &two_components, &sigma),
        ("Prop. D.6", &star, &star_sigma),
    ] {
        for spec in WALK_SPECS.map(|spec| spec()) {
            let chain = spec.build_chain(db, sigma, TreeLimits::default()).unwrap();
            let exact: BTreeMap<Vec<Operation>, f64> = chain
                .leaf_distribution()
                .into_iter()
                .map(|(leaf, p)| {
                    (
                        chain.tree().sequence(leaf).operations().to_vec(),
                        p.to_f64(),
                    )
                })
                .collect();
            let context = format!("{name}, {}", spec.short_name());
            let sampler = walker(db, sigma, spec.singleton_only);
            let mut rng = StdRng::seed_from_u64(29);
            let mut counts: BTreeMap<Vec<Operation>, u64> = BTreeMap::new();
            for _ in 0..SAMPLES {
                let outcome = sampler.sample(&mut rng);
                let sequence = outcome.sequence.operations().to_vec();
                let Some(&p) = exact.get(&sequence) else {
                    panic!(
                        "{context}: {:?} is not a leaf of the chain",
                        outcome.sequence
                    );
                };
                let reported = outcome.probability.to_f64();
                assert!(
                    (reported - p).abs() <= 1e-12 * p,
                    "{context}: {:?} reports π = {reported}, exact {p}",
                    outcome.sequence
                );
                *counts.entry(sequence).or_insert(0) += 1;
            }
            for (sequence, &p) in &exact {
                // No underflow in the tail's first term at this sample size.
                assert!(binomial_upper_tail(SAMPLES, p, 0) > 0.999);
                let k = counts.get(sequence).copied().unwrap_or(0);
                let upper = binomial_upper_tail(SAMPLES, p, k);
                let lower = 1.0 - binomial_upper_tail(SAMPLES, p, k + 1);
                assert!(
                    upper > ALPHA && lower > ALPHA,
                    "{context}: {sequence:?} drawn {k} of {SAMPLES} times, exact {p}"
                );
            }
        }
    }
}

/// `binomial_upper_tail` past the point where `(1 − p)ⁿ` underflows: at
/// `n = 4000, p = 0.2`, `n·ln(1/(1 − p)) ≈ 893`.  The tail at `k = 0` is
/// 1, and at `k = 844` it matches the exact rational sum
/// `Σ_{i ≥ k} C(n, i)·4ⁿ⁻ⁱ / 5ⁿ`; at small `n` it matches a direct
/// floating-point sum for every `k`.
#[test]
fn binomial_upper_tail_does_not_underflow() {
    use uocqa::numeric::Natural;
    let (n, k) = (4000u64, 844u64);
    assert!((binomial_upper_tail(n, 0.2, 0) - 1.0).abs() < 1e-9);
    // Term i of the numerator is C(n, i)·4ⁿ⁻ⁱ; term i + 1 is term i
    // times (n − i) / (4·(i + 1)), an exact division.
    let mut term = Natural::from_u64(4).pow(n as u32);
    let mut numerator = Natural::zero();
    for i in 0..=n {
        if i >= k {
            numerator += &term;
        }
        if i < n {
            term = (&term * &Natural::from_u64(n - i))
                .div_rem(&Natural::from_u64(4 * (i + 1)))
                .0;
        }
    }
    let exact = (numerator.ln() - Natural::from_u64(5).pow(n as u32).ln()).exp();
    let tail = binomial_upper_tail(n, 0.2, k);
    assert!(exact > 0.01, "exact tail {exact}");
    assert!(
        (tail - exact).abs() < 1e-9 * exact,
        "tail {tail}, exact {exact}"
    );

    let (n, p) = (30u64, 0.3f64);
    let direct = |k: u64| -> f64 {
        (k..=n)
            .map(|i| {
                let choose = (0..i).fold(1.0, |c, j| c * (n - j) as f64 / (j + 1) as f64);
                choose * p.powi(i as i32) * (1.0 - p).powi((n - i) as i32)
            })
            .sum()
    };
    for k in 0..=n + 1 {
        let (tail, direct) = (binomial_upper_tail(n, p, k), direct(k));
        assert!(
            (tail - direct).abs() <= 1e-12 * direct.max(1e-300),
            "k {k}: tail {tail}, direct {direct}"
        );
    }
}
