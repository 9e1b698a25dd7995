//! Zipf-skewed multi-join workloads: one hot anchor value per relation.
//!
//! The cost-based join planner (`ucqa_query::plan::JoinPlan::build_costed`)
//! only separates from the coverage-greedy baseline when posting-list
//! lengths are skewed: on uniform data every constant anchor is equally
//! selective and any order is as good as any other.  [`SkewedJoinWorkload`]
//! generates that separation deliberately — in every relation a single
//! **hot** anchor value absorbs a configurable share of the facts and the
//! remaining facts get globally unique **tail** values (the extreme-Zipf
//! profile: one heavy head, a tail of singletons).  A lookup on the hot
//! anchor therefore scans a posting of thousands of facts while a tail
//! lookup touches exactly one, which is the regime where the two
//! planners differ.
//!
//! Two query generators are matched to the workload:
//!
//! * [`hot_tail_join_queries`] — two-atom joins written hot-first, so the
//!   coverage-greedy planner (which ties towards written order) enumerates
//!   the hot posting while the cost-based planner flips to the singleton
//!   tail anchor.
//! * [`hot_suffix_bank`] — a bank whose queries share an expensive two-hot
//!   join prefix in written order and append one distinct tail atom.
//!   Structural compilation shares the prefix via the scan trie; costed
//!   plans move the cheap distinct atom first, and only the bank
//!   compiler's common-*subtree* factoring keeps the hot join enumerated
//!   once instead of once per query.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ucqa_db::{Database, Fact, FdSet, FunctionalDependency, RelationId, Schema, Value};
use ucqa_query::{Atom, ConjunctiveQuery, QueryError, Term};

/// A generator for skewed multi-relation join workloads over relations
/// `R0, …` with schema `(A, B, C, P)`:
///
/// * `A` — the **anchor** column: with probability `hot_percent / 100` a
///   fact carries its relation's single hot value
///   ([`SkewedJoinWorkload::hot_value`]), otherwise a globally unique
///   tail value.
/// * `B` — the **join** column, uniform over `join_domain` values.
/// * `C` — the **conflict** column; the per-relation non-key FD `C → B`
///   makes the instance inconsistent with block sizes governed by
///   `facts / (relations · conflict_domain)`.
/// * `P` — a unique payload, so no FD is a key.
///
/// Skew lives entirely in `A`, which queries anchor on; conflicts live in
/// `(C, B)`, which they do not — so planning effects (posting-run skew)
/// and repair effects (conflict structure) can be dialed independently.
#[derive(Debug, Clone)]
pub struct SkewedJoinWorkload {
    /// Total number of facts (spread round-robin over relations).
    pub facts: usize,
    /// Number of relations `R0, …` (at least 2 for the join generators).
    pub relations: usize,
    /// Percentage (0–100) of each relation's facts anchored on its hot
    /// value; the rest get unique tail values.
    pub hot_percent: u32,
    /// Domain size of the join column `B`.
    pub join_domain: usize,
    /// Domain size of the FD-constrained column `C`.
    pub conflict_domain: usize,
    /// RNG seed.
    pub seed: u64,
}

impl SkewedJoinWorkload {
    /// A workload with the given parameters.
    pub fn new(
        facts: usize,
        relations: usize,
        hot_percent: u32,
        join_domain: usize,
        conflict_domain: usize,
        seed: u64,
    ) -> Self {
        SkewedJoinWorkload {
            facts,
            relations,
            hot_percent,
            join_domain,
            conflict_domain,
            seed,
        }
    }

    /// The scaling profile of the planning comparison: two relations,
    /// half of each relation's facts on its hot anchor, a join domain
    /// that grows with the fact count (so hot⋈hot match counts — and
    /// with them witness-set sizes — stay well under the compile cap),
    /// and sparse conflicts (average block size around 10).
    pub fn scaling(facts: usize, seed: u64) -> Self {
        SkewedJoinWorkload::new(facts, 2, 50, facts.max(4), (facts / 40).max(1), seed)
    }

    /// The hot anchor value of relation `R{relation}` — shared by
    /// roughly `hot_percent` of its facts.  Tail values are disjoint
    /// from every hot value by construction.
    pub fn hot_value(&self, relation: usize) -> Value {
        Value::int(relation as i64)
    }

    /// Generates the database and its FD set (one non-key FD `C → B`
    /// per relation).
    ///
    /// # Panics
    /// Panics if `facts`, `relations` or a domain is zero.
    pub fn generate(&self) -> (Database, FdSet) {
        assert!(self.facts > 0, "at least one fact is required");
        assert!(self.relations > 0, "at least one relation is required");
        assert!(
            self.join_domain > 0 && self.conflict_domain > 0,
            "domains must be non-empty"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut schema = Schema::new();
        let names: Vec<String> = (0..self.relations).map(|r| format!("R{r}")).collect();
        for name in &names {
            schema
                .add_relation(name, &["A", "B", "C", "P"])
                .expect("fresh schema");
        }
        let mut db = Database::with_schema(schema);
        let ids: Vec<_> = names
            .iter()
            .map(|name| db.schema().relation_id(name).expect("relation exists"))
            .collect();
        let facts: Vec<Fact> = (0..self.facts)
            .map(|payload| {
                let relation = payload % self.relations;
                let hot = rng.random_range(0..100) < self.hot_percent;
                // Hot values are 0..relations; tail values start at
                // `relations` and are unique per fact, so the anchor
                // column is one heavy posting plus singletons.
                let a = if hot {
                    relation as i64
                } else {
                    (self.relations + payload) as i64
                };
                let b = rng.random_range(0..self.join_domain) as i64;
                let c = rng.random_range(0..self.conflict_domain) as i64;
                Fact::new(
                    ids[relation],
                    vec![
                        Value::int(a),
                        Value::int(b),
                        Value::int(c),
                        Value::int(payload as i64),
                    ],
                )
            })
            .collect();
        db.extend(facts).expect("schema matches");
        let mut sigma = FdSet::new();
        for name in &names {
            sigma.add(
                FunctionalDependency::from_names(db.schema(), name, &["C"], &["B"])
                    .expect("relation has attributes C and B"),
            );
        }
        (db, sigma)
    }
}

/// The `(R0, R1)` relation pair plus R0's hot-anchored fact `B` values,
/// shared by both query generators.
fn hot_join_context(
    db: &Database,
) -> Result<(RelationId, RelationId, BTreeSet<Value>), QueryError> {
    let r0 = db.schema().relation_id("R0")?;
    let r1 = db.schema().relation_id("R1")?;
    let hot0 = Value::int(0);
    let hot_b: BTreeSet<Value> = db
        .iter()
        .filter(|(_, f)| f.relation() == r0 && f.values()[0] == hot0)
        .map(|(_, f)| f.values()[1].clone())
        .collect();
    Ok((r0, r1, hot_b))
}

/// A bank of `k` Boolean two-atom join queries over a
/// [`SkewedJoinWorkload`] database, each **written hot-first**:
///
/// ```text
/// Ans() :- R0(hot₀, v, w1, w2), R1(tailᵢ, v, w3, w4)
/// ```
///
/// Every atom carries exactly one constant, so the coverage-greedy
/// planner ties and keeps the written order — enumerating R0's hot
/// posting (thousands of facts) and probing R1 per binding — while the
/// cost-based planner starts from the singleton tail posting and
/// intersects into the hot side.  Same witness sets, orders-of-magnitude
/// different enumeration cost.
///
/// The tail anchors are distinct singleton values chosen (by seed) from
/// R1 facts whose `B` value also occurs among R0's hot facts, so every
/// query is entailed by the full database.
///
/// # Panics
/// Panics if the database has fewer than `k` tail facts in R1 that join
/// with an R0 hot fact.
pub fn hot_tail_join_queries(
    db: &Database,
    k: usize,
    seed: u64,
) -> Result<Vec<ConjunctiveQuery>, QueryError> {
    let (r0, r1, hot_b) = hot_join_context(db)?;
    let hot0 = Value::int(0);
    let hot1 = Value::int(1);
    let mut anchors: Vec<Value> = db
        .iter()
        .filter(|(_, f)| {
            f.relation() == r1 && f.values()[0] != hot1 && hot_b.contains(&f.values()[1])
        })
        .map(|(_, f)| f.values()[0].clone())
        .collect();
    assert!(
        anchors.len() >= k,
        "only {} of the requested {k} tail anchors join with a hot fact",
        anchors.len()
    );
    use rand::seq::SliceRandom;
    anchors.shuffle(&mut StdRng::seed_from_u64(seed));
    anchors
        .into_iter()
        .take(k)
        .map(|tail| {
            ConjunctiveQuery::boolean(
                db.schema(),
                vec![
                    Atom::new(
                        r0,
                        vec![
                            Term::Const(hot0.clone()),
                            Term::var("v"),
                            Term::var("w1"),
                            Term::var("w2"),
                        ],
                    ),
                    Atom::new(
                        r1,
                        vec![
                            Term::Const(tail),
                            Term::var("v"),
                            Term::var("w3"),
                            Term::var("w4"),
                        ],
                    ),
                ],
            )
        })
        .collect()
}

/// A bank of `k` Boolean queries sharing an expensive hot⋈hot prefix and
/// diverging in one cheap tail atom:
///
/// ```text
/// Ans() :- R0(hot₀, v, w1, w2), R1(hot₁, v, w3, w4), R1(tailᵢ, u1, u2, u3)
/// ```
///
/// In **written** order the two hot atoms are a shared prefix, so
/// structural bank compilation factors them into one trie pass.  The
/// **cost-based** planner moves the singleton tail atom first (and keeps
/// the hot join in one fixed order after it, identical across the bank),
/// which destroys prefix sharing — every query now *ends* with the hot
/// join.  Because the tail atom shares no variable with the hot atoms,
/// that two-atom suffix is a closed common subtree, and the bank
/// compiler's subtree factoring enumerates it once and replays it `k`
/// times: the workload behind the pass-count test of the subtree
/// sharing.
///
/// The hot join is guaranteed non-empty (the generator's `B` collisions
/// are checked), so every query is entailed by the full database.
///
/// # Panics
/// Panics if no R0 hot fact joins with an R1 hot fact, or if R1 has
/// fewer than `k` tail facts.
pub fn hot_suffix_bank(
    db: &Database,
    k: usize,
    seed: u64,
) -> Result<Vec<ConjunctiveQuery>, QueryError> {
    let (_, r1, hot_b) = hot_join_context(db)?;
    let hot0 = Value::int(0);
    let hot1 = Value::int(1);
    assert!(
        db.iter().any(|(_, f)| f.relation() == r1
            && f.values()[0] == hot1
            && hot_b.contains(&f.values()[1])),
        "no hot R0 fact joins with a hot R1 fact; grow the workload or shrink join_domain"
    );
    let mut tails: Vec<Value> = db
        .iter()
        .filter(|(_, f)| f.relation() == r1 && f.values()[0] != hot1)
        .map(|(_, f)| f.values()[0].clone())
        .collect();
    assert!(
        tails.len() >= k,
        "only {} of the requested {k} distinct tail atoms exist in R1",
        tails.len()
    );
    use rand::seq::SliceRandom;
    tails.shuffle(&mut StdRng::seed_from_u64(seed));
    let r0 = db.schema().relation_id("R0")?;
    tails
        .into_iter()
        .take(k)
        .map(|tail| {
            ConjunctiveQuery::boolean(
                db.schema(),
                vec![
                    Atom::new(
                        r0,
                        vec![
                            Term::Const(hot0.clone()),
                            Term::var("v"),
                            Term::var("w1"),
                            Term::var("w2"),
                        ],
                    ),
                    Atom::new(
                        r1,
                        vec![
                            Term::Const(hot1.clone()),
                            Term::var("v"),
                            Term::var("w3"),
                            Term::var("w4"),
                        ],
                    ),
                    Atom::new(
                        r1,
                        vec![
                            Term::Const(tail),
                            Term::var("u1"),
                            Term::var("u2"),
                            Term::var("u3"),
                        ],
                    ),
                ],
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucqa_db::ViolationSet;
    use ucqa_query::QueryEvaluator;

    fn workload() -> SkewedJoinWorkload {
        SkewedJoinWorkload::scaling(800, 13)
    }

    #[test]
    fn skew_concentrates_on_one_hot_value_per_relation() {
        let w = workload();
        let (db, sigma) = w.generate();
        assert_eq!(db.len(), 800);
        assert!(!sigma.is_keys(db.schema()));
        assert!(!ViolationSet::of_database(&db, &sigma).is_empty());
        for relation in 0..2 {
            let id = db.schema().relation_id(&format!("R{relation}")).unwrap();
            let hot = w.hot_value(relation);
            let hot_count = db
                .iter()
                .filter(|(_, f)| f.relation() == id && f.values()[0] == hot)
                .count();
            // ~50% of the relation's 400 facts; generous slack.
            assert!(
                (120..=280).contains(&hot_count),
                "R{relation} hot share {hot_count} is off profile"
            );
            // Tail anchors are singletons: every non-hot value occurs once.
            let tails: Vec<Value> = db
                .iter()
                .filter(|(_, f)| f.relation() == id && f.values()[0] != hot)
                .map(|(_, f)| f.values()[0].clone())
                .collect();
            let distinct: BTreeSet<_> = tails.iter().collect();
            assert_eq!(distinct.len(), tails.len());
        }
        // Deterministic in the seed.
        let (again, _) = workload().generate();
        for (id, fact) in db.iter() {
            assert_eq!(fact, again.fact(id));
        }
    }

    #[test]
    fn hot_tail_queries_split_the_planners_and_are_entailed() {
        let (db, _) = workload().generate();
        let queries = hot_tail_join_queries(&db, 4, 5).unwrap();
        assert_eq!(queries.len(), 4);
        for query in &queries {
            // Coverage-greedy ties towards the written hot-first order…
            let structural = QueryEvaluator::new(query.clone());
            let order: Vec<usize> = structural.plan().atom_order().collect();
            assert_eq!(order, vec![0, 1], "structural keeps the hot atom first");
            // …while the cost model starts from the singleton tail posting.
            let costed = QueryEvaluator::with_stats(query.clone(), &db).unwrap();
            let order: Vec<usize> = costed.plan().atom_order().collect();
            assert_eq!(order, vec![1, 0], "costed flips to the tail atom");
            assert!(structural.entails(&db, &db.all_facts()));
        }
        assert_eq!(hot_tail_join_queries(&db, 4, 5).unwrap(), queries);
    }

    #[test]
    fn hot_suffix_bank_shares_a_written_prefix_and_a_costed_suffix() {
        let (db, _) = workload().generate();
        let bank = hot_suffix_bank(&db, 6, 3).unwrap();
        assert_eq!(bank.len(), 6);
        let prefix = &bank[0].atoms()[..2];
        let mut costed_suffix = None;
        for query in &bank {
            assert_eq!(&query.atoms()[..2], prefix, "written prefix is shared");
            let structural = QueryEvaluator::new(query.clone());
            let order: Vec<usize> = structural.plan().atom_order().collect();
            assert_eq!(order, vec![0, 1, 2], "structural keeps the written order");
            assert!(structural.entails(&db, &db.all_facts()));
            let costed = QueryEvaluator::with_stats(query.clone(), &db).unwrap();
            let order: Vec<usize> = costed.plan().atom_order().collect();
            assert_eq!(order[0], 2, "costed moves the cheap tail atom first");
            // The hot suffix lands in one fixed order across the bank —
            // the shape the subtree-sharing compiler collapses.
            match &costed_suffix {
                None => costed_suffix = Some(order[1..].to_vec()),
                Some(suffix) => assert_eq!(&order[1..], suffix.as_slice()),
            }
        }
        assert_eq!(hot_suffix_bank(&db, 6, 3).unwrap(), bank);
    }

    #[test]
    fn costed_hot_suffix_bank_compiles_within_1_3x_of_the_prefix_trie() {
        // Costed plans lead with the distinct tail atom, so the bank loses
        // its shared written prefix; subtree sharing must enumerate the
        // common hot suffix once and replay it for every entry, keeping
        // the pass count close to the structural prefix trie's.
        use ucqa_query::{CompileBudget, CompileStats, LineageBank};

        let (db, _) = workload().generate();
        let k = 16;
        let bank = hot_suffix_bank(&db, k, 3).unwrap();
        let compile = |costed: bool| -> CompileStats {
            let evaluators: Vec<QueryEvaluator> = bank
                .iter()
                .map(|q| {
                    if costed {
                        QueryEvaluator::with_stats(q.clone(), &db).unwrap()
                    } else {
                        QueryEvaluator::new(q.clone())
                    }
                })
                .collect();
            let refs: Vec<(&QueryEvaluator, &[Value])> =
                evaluators.iter().map(|e| (e, &[] as &[Value])).collect();
            let (compiled, stats) =
                LineageBank::compile_with_budget(&db, &refs, &CompileBudget::unlimited()).unwrap();
            for entry in 0..k {
                assert!(!compiled.is_fallback(entry), "entry {entry} overflowed");
            }
            stats
        };
        let structural = compile(false);
        let costed = compile(true);
        assert!(costed.shared_subtrees >= 1, "{costed:?}");
        assert!(costed.replays as usize >= k, "{costed:?}");
        assert!(
            costed.steps as f64 <= 1.3 * structural.steps as f64,
            "costed {costed:?} vs structural {structural:?}"
        );
    }
}
