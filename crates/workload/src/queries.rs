//! Query and candidate-tuple generators matched to the workloads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ucqa_db::{Database, FactId, Value};
use ucqa_query::{Atom, ConjunctiveQuery, QueryError, Term, Variable};

/// For the block workloads (`R(K, V)`): the unary query
/// `Ans(x) :- R(k, x)` for a randomly chosen key value `k`, together with a
/// candidate tuple that is an answer on the full database (so the target
/// probability is non-zero).
///
/// This mirrors the query of Examples B.3 / C.3.
pub fn block_lookup_query(
    db: &Database,
    seed: u64,
) -> Result<(ConjunctiveQuery, Vec<Value>), QueryError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let relation = db.schema().relation_id("R")?;
    let fact_id = FactId::new(rng.random_range(0..db.len()));
    let fact = db.fact(fact_id);
    let key = fact.values()[0].clone();
    let answer = fact.values()[1].clone();
    let query = ConjunctiveQuery::new(
        db.schema(),
        vec![Variable::new("x")],
        vec![Atom::new(relation, vec![Term::Const(key), Term::var("x")])],
    )?;
    Ok((query, vec![answer]))
}

/// A Boolean atomic query asking for one specific fact of the database
/// (chosen by seed): `Ans() :- R(c₁, …, cₙ)`.
///
/// The answer probability is then exactly the probability that the chosen
/// fact survives repairing, which is the quantity the lower-bound lemmas
/// reason about.
pub fn fact_membership_query(db: &Database, seed: u64) -> Result<ConjunctiveQuery, QueryError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let fact_id = FactId::new(rng.random_range(0..db.len()));
    let fact = db.fact(fact_id);
    let terms = fact.values().iter().cloned().map(Term::Const).collect();
    ConjunctiveQuery::boolean(db.schema(), vec![Atom::new(fact.relation(), terms)])
}

/// A bank of `k` Boolean atomic fact-membership queries over **distinct**
/// facts (chosen by seed): the multi-query workload of the batched FPRAS
/// drivers, where every sampled repair is checked against all `k`
/// lineages at once.
///
/// Distinct facts keep the per-query answer probabilities independent and
/// non-trivially different; when `k` exceeds the database size the bank
/// wraps around and duplicates (which the lineage bank dedups anyway).
///
/// # Panics
/// Panics if `k > 0` and the database is empty.
pub fn fact_membership_query_bank(
    db: &Database,
    k: usize,
    seed: u64,
) -> Result<Vec<ConjunctiveQuery>, QueryError> {
    assert!(
        k == 0 || !db.is_empty(),
        "a non-empty query bank requires at least one fact"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..db.len()).collect();
    use rand::seq::SliceRandom;
    order.shuffle(&mut rng);
    (0..k)
        .map(|i| {
            let fact = db.fact(FactId::new(order[i % order.len()]));
            let terms = fact.values().iter().cloned().map(Term::Const).collect();
            ConjunctiveQuery::boolean(db.schema(), vec![Atom::new(fact.relation(), terms)])
        })
        .collect()
}

/// A bank of `k` Boolean **overlapping join** queries: every query shares
/// the same `prefix_depth`-atom prefix and appends one diverging atom, so
/// the bank is exactly the workload the shared-trie bank compilation
/// (`ucqa_query::LineageBank::compile`) factors into ~one enumeration
/// pass.  This is the workload of the planner property tests and of the
/// `join_planning` example.
///
/// Construction (works over any schema whose relations have arity ≥ 2,
/// e.g. `MultiFdWorkload`'s `R*(A, B, C, P)` or the block schema
/// `R(K, V)`): a join value `b` is drawn from position 1 of a seed-chosen
/// fact, and every atom has the shape `Rᵢ(aᵢ, v, …fresh vars…)` — a
/// constant anchor at position 0 (taken from a database fact with `B = b`)
/// and the shared join variable `v` at position 1.  All atoms carry
/// exactly one constant, so the greedy bound-coverage planner keeps the
/// written order (ties break towards earlier atoms) and the shared prefix
/// survives planning verbatim.  Every query is entailed by the full
/// database via `v = b` and its anchor facts, so target probabilities are
/// non-zero.
///
/// # Panics
/// Panics if `k > 0` and the database is empty, or if no fact belongs to
/// a relation of arity ≥ 2 (there is nothing to join on).
pub fn overlapping_join_bank(
    db: &Database,
    k: usize,
    prefix_depth: usize,
    seed: u64,
) -> Result<Vec<ConjunctiveQuery>, QueryError> {
    assert!(
        k == 0 || !db.is_empty(),
        "a non-empty query bank requires at least one fact"
    );
    if k == 0 {
        return Ok(Vec::new());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // Joinable facts: relations of arity ≥ 2 (position 1 is the join
    // position).
    let joinable: Vec<FactId> = db
        .fact_ids()
        .filter(|&id| db.fact(id).values().len() >= 2)
        .collect();
    assert!(
        !joinable.is_empty(),
        "overlapping joins require facts over relations of arity >= 2"
    );
    // The join value: position 1 of a seed-chosen fact.
    let pivot = db.fact(joinable[rng.random_range(0..joinable.len())]);
    let join_value = pivot.values()[1].clone();
    // Anchor pool: facts agreeing with the pivot at position 1, shuffled.
    let mut anchors: Vec<FactId> = joinable
        .iter()
        .copied()
        .filter(|&id| db.fact(id).values()[1] == join_value)
        .collect();
    use rand::seq::SliceRandom;
    anchors.shuffle(&mut rng);
    let mut fresh = 0usize;
    let mut anchored_atom = |anchor: FactId| {
        let fact = db.fact(anchor);
        let terms: Vec<Term> = fact
            .values()
            .iter()
            .enumerate()
            .map(|(position, value)| match position {
                0 => Term::Const(value.clone()),
                1 => Term::var("v"),
                _ => {
                    fresh += 1;
                    Term::var(format!("w{fresh}"))
                }
            })
            .collect();
        Atom::new(fact.relation(), terms)
    };
    let prefix: Vec<Atom> = (0..prefix_depth)
        .map(|j| anchored_atom(anchors[j % anchors.len()]))
        .collect();
    (0..k)
        .map(|i| {
            let mut atoms = prefix.clone();
            atoms.push(anchored_atom(anchors[(prefix_depth + i) % anchors.len()]));
            ConjunctiveQuery::boolean(db.schema(), atoms)
        })
        .collect()
}

/// A Boolean "join" query over the block workload schema `R(K, V)`:
/// `Ans() :- R(k₁, x), R(k₂, x)` for two randomly chosen key values — it is
/// entailed by a repair iff the two chosen blocks keep facts sharing a `V`
/// value, exercising multi-atom queries in the estimators.
pub fn block_join_query(db: &Database, seed: u64) -> Result<ConjunctiveQuery, QueryError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let relation = db.schema().relation_id("R")?;
    let first = db.fact(FactId::new(rng.random_range(0..db.len())));
    let second = db.fact(FactId::new(rng.random_range(0..db.len())));
    ConjunctiveQuery::boolean(
        db.schema(),
        vec![
            Atom::new(
                relation,
                vec![Term::Const(first.values()[0].clone()), Term::var("x")],
            ),
            Atom::new(
                relation,
                vec![Term::Const(second.values()[0].clone()), Term::var("x")],
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockWorkload;
    use ucqa_query::QueryEvaluator;

    #[test]
    fn block_lookup_query_has_a_positive_answer_on_the_full_database() {
        let (db, _) = BlockWorkload::uniform(6, 3, 1).generate();
        let (query, candidate) = block_lookup_query(&db, 42).unwrap();
        assert_eq!(query.answer_vars().len(), 1);
        let evaluator = QueryEvaluator::new(query);
        assert!(evaluator
            .has_answer(&db, &db.all_facts(), &candidate)
            .unwrap());
    }

    #[test]
    fn fact_membership_query_is_boolean_and_entailed() {
        let (db, _) = BlockWorkload::uniform(4, 2, 2).generate();
        let query = fact_membership_query(&db, 7).unwrap();
        assert!(query.is_boolean());
        assert!(query.is_atomic());
        let evaluator = QueryEvaluator::new(query);
        assert!(evaluator.entails(&db, &db.all_facts()));
    }

    #[test]
    fn query_bank_uses_distinct_facts_and_wraps_around() {
        let (db, _) = BlockWorkload::uniform(4, 2, 2).generate();
        let bank = fact_membership_query_bank(&db, 5, 3).unwrap();
        assert_eq!(bank.len(), 5);
        for query in &bank {
            assert!(query.is_boolean());
            assert!(query.is_atomic());
            let evaluator = QueryEvaluator::new(query.clone());
            assert!(evaluator.entails(&db, &db.all_facts()));
        }
        // The first min(k, |D|) queries target distinct facts.
        let distinct: std::collections::BTreeSet<String> =
            bank.iter().take(4).map(|q| format!("{q:?}")).collect();
        assert_eq!(distinct.len(), 4);
        // Deterministic in the seed.
        let again = fact_membership_query_bank(&db, 5, 3).unwrap();
        assert_eq!(bank, again);
        // Oversized banks wrap around instead of failing.
        let wrapped = fact_membership_query_bank(&db, db.len() + 2, 3).unwrap();
        assert_eq!(wrapped.len(), db.len() + 2);
    }

    #[test]
    fn overlapping_join_bank_shares_prefixes_and_is_entailed() {
        let (db, _) = crate::MultiFdWorkload::new(200, 2, 10, 3, 11).generate();
        let bank = overlapping_join_bank(&db, 6, 2, 4).unwrap();
        assert_eq!(bank.len(), 6);
        let prefix = &bank[0].atoms()[..2];
        for query in &bank {
            assert!(query.is_boolean());
            assert_eq!(query.atom_count(), 3);
            // Every query literally shares the two prefix atoms.
            assert_eq!(&query.atoms()[..2], prefix);
            // Guaranteed entailed on the full database.
            let evaluator = QueryEvaluator::new(query.clone());
            assert!(evaluator.entails(&db, &db.all_facts()));
            // The greedy planner keeps the written (prefix-first) order,
            // which is the trie-sharing invariant.
            let order: Vec<usize> = evaluator.plan().atom_order().collect();
            assert_eq!(order, vec![0, 1, 2]);
        }
        // Deterministic in the seed.
        assert_eq!(overlapping_join_bank(&db, 6, 2, 4).unwrap(), bank);
        // Works over the arity-2 block schema too, and for k = 0.
        let (blocks, _) = BlockWorkload::uniform(4, 3, 2).generate();
        let small = overlapping_join_bank(&blocks, 3, 1, 9).unwrap();
        assert_eq!(small.len(), 3);
        for query in &small {
            assert!(QueryEvaluator::new(query.clone()).entails(&blocks, &blocks.all_facts()));
        }
        assert!(overlapping_join_bank(&db, 0, 2, 4).unwrap().is_empty());
    }

    #[test]
    fn block_join_query_has_two_atoms() {
        let (db, _) = BlockWorkload::uniform(4, 2, 3).generate();
        let query = block_join_query(&db, 9).unwrap();
        assert_eq!(query.atom_count(), 2);
        assert!(query.is_boolean());
    }

    #[test]
    fn generators_are_deterministic_in_the_seed() {
        let (db, _) = BlockWorkload::uniform(6, 3, 1).generate();
        let a = block_lookup_query(&db, 5).unwrap();
        let b = block_lookup_query(&db, 5).unwrap();
        assert_eq!(a.1, b.1);
        assert_eq!(a.0, b.0);
    }
}
