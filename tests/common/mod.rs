//! Shared fixtures and assert helpers for the integration test suites.
//!
//! Every test binary compiles this module independently and uses a
//! different subset of it, hence the file-wide `dead_code` allowance.

#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};

use rand::Rng;

use uocqa::core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, Estimate};
use uocqa::core::{CoreError, EstimateOutcome, RunBudget};
use uocqa::db::{
    ConflictIndex, Database, FactId, FactSet, FdSet, FunctionalDependency, Schema, Value,
};
use uocqa::numeric::Ratio;
use uocqa::query::{LineageBank, QueryEvaluator};
use uocqa::repair::GeneratorSpec;

/// The [`Estimate`] view of every entry of `outcome`: truncated iff not
/// converged.
pub fn estimates(outcome: &EstimateOutcome) -> Vec<Estimate> {
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

/// Compiles `queries` into a bank and runs it from a fresh stream without
/// a budget, as [`Estimate`] views.
pub fn estimate_bank<R: Rng + ?Sized>(
    estimator: &BatchEstimator<'_>,
    queries: &[BatchQuery<'_>],
    params: ApproximationParams,
    rng: &mut R,
) -> Result<Vec<Estimate>, CoreError> {
    let unlimited = RunBudget::unlimited();
    let bank = estimator.compile_bank(queries, &unlimited)?;
    let outcome = estimator.run(&bank, queries, params, &unlimited, None, rng)?;
    Ok(estimates(&outcome))
}

/// One query's [`Estimate`]: [`estimate_bank`] over a bank of one.
pub fn estimate_one<R: Rng + ?Sized>(
    estimator: &BatchEstimator<'_>,
    evaluator: &QueryEvaluator,
    candidate: &[Value],
    params: ApproximationParams,
    rng: &mut R,
) -> Result<Estimate, CoreError> {
    let queries = [BatchQuery::new(evaluator, candidate)];
    Ok(estimate_bank(estimator, &queries, params, rng)?[0])
}

/// As [`estimate_bank`], in rayon-sharded rounds under `master_seed`.
pub fn estimate_sharded(
    estimator: &BatchEstimator<'_>,
    queries: &[BatchQuery<'_>],
    params: ApproximationParams,
    master_seed: u64,
) -> Result<Vec<Estimate>, CoreError> {
    let unlimited = RunBudget::unlimited();
    let bank = estimator.compile_bank(queries, &unlimited)?;
    let outcome = estimator.run_sharded(&bank, queries, params, &unlimited, master_seed)?;
    Ok(estimates(&outcome))
}

/// All six generator specifications of the paper: the three uniform
/// semantics, each with pair+singleton and singleton-only operations.
pub fn all_specs() -> [GeneratorSpec; 6] {
    [
        GeneratorSpec::uniform_repairs(),
        GeneratorSpec::uniform_repairs().with_singleton_only(),
        GeneratorSpec::uniform_sequences(),
        GeneratorSpec::uniform_sequences().with_singleton_only(),
        GeneratorSpec::uniform_operations(),
        GeneratorSpec::uniform_operations().with_singleton_only(),
    ]
}

/// The `M^{uo,1}` repair distribution of `(db, sigma)` by the
/// local-maxima law, independent of any walk: order the conflicting facts
/// uniformly at random, and keep every conflict-free fact and each
/// conflicting fact that comes after all of its conflict neighbours.
/// Exact, by enumerating the `n!` orders of the `n` conflicting facts, so
/// `n` must be small.
pub fn local_maxima_repairs(db: &Database, sigma: &FdSet) -> BTreeMap<FactSet, Ratio> {
    let index = ConflictIndex::build(db, sigma);
    let facts = index.conflicting_facts();
    let n = facts.len();
    assert!(n <= 10, "{n} conflicting facts are too many to enumerate");
    // Each fact's neighbours, as a mask over positions in `facts`.
    let bit = |f: FactId| 1u32 << facts.binary_search(&f).expect("pair facts conflict");
    let mut neighbours = vec![0u32; n];
    for &(a, b) in index.pairs() {
        neighbours[bit(a).trailing_zeros() as usize] |= bit(b);
        neighbours[bit(b).trailing_zeros() as usize] |= bit(a);
    }
    // Heap's algorithm visits every order of the positions once; count
    // the orders giving each set of local maxima.
    let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
    let mut order: Vec<usize> = (0..n).collect();
    let mut maxima = |order: &[usize]| {
        let (mut before, mut kept) = (0u32, 0u32);
        for &p in order {
            if neighbours[p] & !before == 0 {
                kept |= 1 << p;
            }
            before |= 1 << p;
        }
        *counts.entry(kept).or_insert(0) += 1;
    };
    maxima(&order);
    let mut c = vec![0usize; n];
    let mut i = 1;
    while i < n {
        if c[i] < i {
            order.swap(if i % 2 == 0 { 0 } else { c[i] }, i);
            maxima(&order);
            c[i] += 1;
            i = 1;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    let orders: u64 = (1..=n as u64).product();
    counts
        .into_iter()
        .map(|(kept, count)| {
            let mut repair = db.all_facts();
            for (p, &fact) in facts.iter().enumerate() {
                repair.set(fact, kept >> p & 1 == 1);
            }
            (repair, Ratio::from_u64(count, orders))
        })
        .collect()
}

/// `P(X ≥ k)` for `X ~ Binomial(n, p)`.
///
/// The statistical tests count, over independent seeds, how often an
/// estimate misses its guarantee: a guarantee failing with probability at
/// most `δ` makes the miss count stochastically dominated by
/// `Binomial(seeds, δ)`, so a count `k` refutes the guarantee at level `α`
/// iff `binomial_upper_tail(seeds, δ, k) ≤ α` — iff the one-sided
/// Clopper–Pearson lower confidence bound on the miss rate, at confidence
/// `1 − α`, exceeds `δ`.
///
/// The terms are summed in log space (log-sum-exp), so the tail stays
/// exact to rounding where `(1 − p)ⁿ` alone underflows, from
/// `n·ln(1/(1 − p))` of about 708 on.
pub fn binomial_upper_tail(n: u64, p: f64, k: u64) -> f64 {
    if p <= 0.0 || p >= 1.0 {
        // X is 0 or n surely.
        let x = if p <= 0.0 { 0 } else { n };
        return if x >= k { 1.0 } else { 0.0 };
    }
    // ln of term i, C(n, i)·pⁱ·(1−p)ⁿ⁻ⁱ, built from term i − 1.
    let (ln_p, ln_q) = (p.ln(), (-p).ln_1p());
    let mut ln_term = n as f64 * ln_q;
    let mut ln_terms = Vec::new();
    for i in 0..=n {
        if i > 0 {
            ln_term += ((n - i + 1) as f64 / i as f64).ln() + ln_p - ln_q;
        }
        if i >= k {
            ln_terms.push(ln_term);
        }
    }
    let max = ln_terms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max == f64::NEG_INFINITY {
        return 0.0;
    }
    max.exp() * ln_terms.iter().map(|t| (t - max).exp()).sum::<f64>()
}

/// Builds a primary-key database (single relation `R(A, B)`, key `A → B`)
/// from a block-size profile.
pub fn block_database(profile: &[usize]) -> (Database, FdSet) {
    let mut schema = Schema::new();
    schema.add_relation("R", &["A", "B"]).unwrap();
    let mut db = Database::with_schema(schema);
    for (block, &size) in profile.iter().enumerate() {
        for row in 0..size {
            db.insert_values("R", [Value::int(block as i64), Value::int(row as i64)])
                .unwrap();
        }
    }
    let mut sigma = FdSet::new();
    sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
    (db, sigma)
}

/// Builds a general-FD database over `R(A, B, C)` with `A → B` from a list
/// of (a, b) pairs; the third attribute is a unique payload.
pub fn fd_database(pairs: &[(u8, u8)]) -> (Database, FdSet) {
    let mut schema = Schema::new();
    schema.add_relation("R", &["A", "B", "C"]).unwrap();
    let mut db = Database::with_schema(schema);
    for (i, (a, b)) in pairs.iter().enumerate() {
        db.insert_values(
            "R",
            [
                Value::int(i64::from(*a % 3)),
                Value::int(i64::from(*b % 3)),
                Value::int(i as i64),
            ],
        )
        .unwrap();
    }
    let mut sigma = FdSet::new();
    sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
    (db, sigma)
}

/// Builds a two-relation database with overlapping **non-key** FDs
/// (`R : A → B`, `R : C → B` and `S : A → B`) from value tuples; a unique
/// payload attribute keeps facts distinct, so no FD is a key and conflict
/// structures span both relations.
pub fn multi_fd_database(rows: &[(u8, u8, u8, u8)]) -> (Database, FdSet) {
    let mut schema = Schema::new();
    schema.add_relation("R", &["A", "B", "C", "P"]).unwrap();
    schema.add_relation("S", &["A", "B", "P"]).unwrap();
    let mut db = Database::with_schema(schema);
    for (i, (a, b, c, which)) in rows.iter().enumerate() {
        let (a, b, c) = (
            Value::int(i64::from(*a % 3)),
            Value::int(i64::from(*b % 3)),
            Value::int(i64::from(*c % 3)),
        );
        if which % 2 == 0 {
            db.insert_values("R", [a, b, c, Value::int(i as i64)])
                .unwrap();
        } else {
            db.insert_values("S", [a, b, Value::int(i as i64)]).unwrap();
        }
    }
    let mut sigma = FdSet::new();
    sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
    sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["C"], &["B"]).unwrap());
    sigma.add(FunctionalDependency::from_names(db.schema(), "S", &["A"], &["B"]).unwrap());
    (db, sigma)
}

/// A Boolean membership query `Ans() :- R(0, 0)` over the block database.
pub fn parse_membership(db: &Database) -> QueryEvaluator {
    let q = uocqa::query::parser::parse_query(db.schema(), "Ans() :- R(0, 0)").unwrap();
    QueryEvaluator::new(q)
}

/// Rebuilds a fresh database holding exactly the live facts of `db`, in
/// insertion (= ascending live id) order, together with the id map:
/// `map[scratch_position] = windowed_id`.  Because ids are assigned
/// densely in insertion order, the map is an order-preserving bijection
/// from the windowed database's live ids onto `0..live_count` — the
/// ground-truth universe the windowed state is compared against.
pub fn scratch_rebuild(db: &Database) -> (Database, Vec<FactId>) {
    let mut scratch = Database::with_schema(db.schema().clone());
    let mut map = Vec::with_capacity(db.live_count());
    for (id, fact) in db.iter() {
        scratch.insert(fact).unwrap();
        map.push(id);
    }
    (scratch, map)
}

/// Maps a windowed-database fact id to its position in the scratch
/// rebuild (`map` as produced by [`scratch_rebuild`]).
pub fn remap(map: &[FactId], id: FactId) -> FactId {
    let position = map
        .binary_search(&id)
        .expect("windowed id is live and therefore in the scratch map");
    FactId::new(position)
}

/// Asserts the delta-maintained conflict index over the windowed
/// database equals, under the id remap, the index built from scratch
/// over the rebuilt window.
pub fn assert_conflict_matches_scratch(
    windowed: &ConflictIndex,
    scratch: &ConflictIndex,
    map: &[FactId],
    context: &str,
) {
    let mut remapped: BTreeSet<(FactId, FactId)> = windowed
        .pairs()
        .iter()
        .map(|&(a, b)| {
            let (a, b) = (remap(map, a), remap(map, b));
            (a.min(b), a.max(b))
        })
        .collect();
    let from_scratch: BTreeSet<(FactId, FactId)> = scratch
        .pairs()
        .iter()
        .map(|&(a, b)| (a.min(b), a.max(b)))
        .collect();
    assert_eq!(remapped, from_scratch, "conflict pairs diverged: {context}");
    remapped.clear();
    let conflicting: BTreeSet<FactId> = windowed
        .conflicting_facts()
        .iter()
        .map(|&f| remap(map, f))
        .collect();
    let scratch_conflicting: BTreeSet<FactId> =
        scratch.conflicting_facts().iter().copied().collect();
    assert_eq!(
        conflicting, scratch_conflicting,
        "conflicting fact sets diverged: {context}"
    );
}

/// The canonical (sorted) witness id-sets of one bank entry, remapped
/// through `map` when given — `None` for a fallback entry.
pub fn canonical_witnesses(
    bank: &LineageBank,
    entry: usize,
    map: Option<&[FactId]>,
) -> Option<BTreeSet<Vec<FactId>>> {
    bank.witnesses_of(entry).map(|witnesses| {
        witnesses
            .iter()
            .map(|w| {
                let mut ids: Vec<FactId> = match map {
                    Some(map) => w.iter().map(|id| remap(map, id)).collect(),
                    None => w.iter().collect(),
                };
                ids.sort_unstable();
                ids
            })
            .collect()
    })
}

/// The reference witness set of `(evaluator, candidate)` over the whole
/// database, in the format of [`canonical_witnesses`], built from the
/// backtracking evaluator alone: the images of the homomorphisms whose
/// answer tuple is `candidate`, with duplicates and supersets absorbed.
/// `None` (a fallback entry) iff more than `cap` homomorphisms answer
/// `candidate`.
pub fn reference_witnesses(
    evaluator: &QueryEvaluator,
    db: &Database,
    candidate: &[Value],
    cap: usize,
) -> Option<BTreeSet<Vec<FactId>>> {
    let images: Vec<Vec<FactId>> = evaluator
        .homomorphisms_unplanned(db, &db.all_facts(), None)
        .into_iter()
        .filter(|h| h.answer_tuple(evaluator.query()) == candidate)
        .map(|h| h.image)
        .collect();
    if images.len() > cap {
        return None;
    }
    let subset = |a: &[FactId], b: &[FactId]| a.iter().all(|f| b.binary_search(f).is_ok());
    Some(
        images
            .iter()
            .filter(|w| !images.iter().any(|v| v != *w && subset(v, w)))
            .cloned()
            .collect(),
    )
}

/// Asserts the delta-maintained bank over the windowed database holds,
/// entry by entry and under the id remap, the same witness sets as the
/// bank compiled from scratch over the rebuilt window.
pub fn assert_bank_matches_scratch(
    windowed: &LineageBank,
    scratch: &LineageBank,
    map: &[FactId],
    context: &str,
) {
    assert_eq!(
        windowed.len(),
        scratch.len(),
        "bank sizes diverged: {context}"
    );
    for entry in 0..windowed.len() {
        assert_eq!(
            windowed.is_fallback(entry),
            scratch.is_fallback(entry),
            "fallback status of entry {entry} diverged: {context}"
        );
        assert_eq!(
            canonical_witnesses(windowed, entry, Some(map)),
            canonical_witnesses(scratch, entry, None),
            "witness sets of entry {entry} diverged: {context}"
        );
    }
}
