//! Non-key FD workloads, including the Proposition D.6 family.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ucqa_db::{Database, Fact, FdSet, FunctionalDependency, Schema, Value};

/// A generator for databases over `R(A, B, C)` constrained by the single
/// **non-key** FD `R : A → B`.
///
/// Because the FD is not a key, facts agreeing on `A` and `B` do not
/// conflict with each other — only facts agreeing on `A` but differing on
/// `B` do — which produces the richer conflict structures (e.g. star
/// shaped) that separate the FD case from the key case in the paper.
#[derive(Debug, Clone)]
pub struct FdWorkload {
    /// Number of facts to draw.
    pub facts: usize,
    /// Domain size of the determining attribute `A`.
    pub domain_a: usize,
    /// Domain size of the determined attribute `B`.
    pub domain_b: usize,
    /// RNG seed.
    pub seed: u64,
}

impl FdWorkload {
    /// A workload with the given parameters.
    pub fn new(facts: usize, domain_a: usize, domain_b: usize, seed: u64) -> Self {
        FdWorkload {
            facts,
            domain_a,
            domain_b,
            seed,
        }
    }

    /// Generates the database and its FD set.
    ///
    /// # Panics
    /// Panics if `facts == 0` or a domain is empty.
    pub fn generate(&self) -> (Database, FdSet) {
        assert!(self.facts > 0, "at least one fact is required");
        assert!(
            self.domain_a > 0 && self.domain_b > 0,
            "domains must be non-empty"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut schema = Schema::new();
        schema
            .add_relation("R", &["A", "B", "C"])
            .expect("fresh schema");
        let mut db = Database::with_schema(schema);
        let relation = db.schema().relation_id("R").expect("relation R exists");
        // Draw the whole fact stream first (the RNG consumption matches the
        // old per-insert loop exactly), then bulk-load it: one `extend`
        // interns every constant and defers index invalidation to the end.
        let facts: Vec<Fact> = (0..self.facts)
            .map(|payload| {
                let a = rng.random_range(0..self.domain_a) as i64;
                let b = rng.random_range(0..self.domain_b) as i64;
                Fact::new(
                    relation,
                    vec![Value::int(a), Value::int(b), Value::int(payload as i64)],
                )
            })
            .collect();
        db.extend(facts).expect("schema matches");
        let mut sigma = FdSet::new();
        sigma.add(
            FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"])
                .expect("R has attributes A and B"),
        );
        (db, sigma)
    }
}

/// A generator for **large multi-FD inconsistent instances**: several
/// relations, each constrained by two overlapping non-key FDs
/// (`R : A → B` and `R : C → B`, the shape of the paper's running
/// example), with a unique payload attribute so that no FD is a key.
///
/// This is the workload behind the benchmark's general-FD `fd_joins`
/// runs: as it grows the conflict structure stays sparse (block sizes
/// are governed by `facts / (relations · lhs_domain)`), so the
/// uniform-operations walk terminates in O(conflicting facts) steps
/// while a per-step violation rescan would pay O(|D|) each step.
#[derive(Debug, Clone)]
pub struct MultiFdWorkload {
    /// Total number of facts to draw (spread uniformly over relations).
    pub facts: usize,
    /// Number of relations `R0, …` (cross-relation conflict structure).
    pub relations: usize,
    /// Domain size of each determining attribute (`A` and `C`).
    pub lhs_domain: usize,
    /// Domain size of the determined attribute `B`.
    pub rhs_domain: usize,
    /// RNG seed.
    pub seed: u64,
}

impl MultiFdWorkload {
    /// A workload with the given parameters.
    pub fn new(
        facts: usize,
        relations: usize,
        lhs_domain: usize,
        rhs_domain: usize,
        seed: u64,
    ) -> Self {
        MultiFdWorkload {
            facts,
            relations,
            lhs_domain,
            rhs_domain,
            seed,
        }
    }

    /// A scaling profile: block sizes stay around 10 facts on average as
    /// `facts` grows, so conflict degree is roughly size-independent.
    pub fn scaling(facts: usize, seed: u64) -> Self {
        MultiFdWorkload::new(facts, 2, (facts / 20).max(1), 3, seed)
    }

    /// Generates the database and its FD set (two non-key FDs per
    /// relation: `A → B` and `C → B`).
    ///
    /// # Panics
    /// Panics if `facts`, `relations` or a domain is zero.
    pub fn generate(&self) -> (Database, FdSet) {
        assert!(self.facts > 0, "at least one fact is required");
        assert!(self.relations > 0, "at least one relation is required");
        assert!(
            self.lhs_domain > 0 && self.rhs_domain > 0,
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
        // Same RNG stream as the old per-insert loop, loaded in one bulk
        // `extend` (single intern pass, one deferred index invalidation) —
        // this is the generator behind the 100k/1M-fact bench databases.
        let facts: Vec<Fact> = (0..self.facts)
            .map(|payload| {
                let a = rng.random_range(0..self.lhs_domain) as i64;
                let b = rng.random_range(0..self.rhs_domain) as i64;
                let c = rng.random_range(0..self.lhs_domain) as i64;
                Fact::new(
                    ids[payload % self.relations],
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
                FunctionalDependency::from_names(db.schema(), name, &["A"], &["B"])
                    .expect("relation has attributes A and B"),
            );
            sigma.add(
                FunctionalDependency::from_names(db.schema(), name, &["C"], &["B"])
                    .expect("relation has attributes C and B"),
            );
        }
        (db, sigma)
    }
}

/// The family `{D_n}` of Proposition D.6: over `R(A1, A2, A3)` with the FD
/// `R : A1 → A2`, the database
/// `D_n = {R(0,0,0)} ∪ {R(0,1,i) | i ∈ [n−1]}`.
///
/// Every `R(0,1,i)` conflicts with `R(0,0,0)` but not with the others, and
/// the probability that the uniform-operations semantics (with pair
/// removals) keeps `R(0,0,0)` is positive yet at most `1/2^{n−1}` — the
/// witness that plain Monte-Carlo cannot give an FPRAS for FDs with pair
/// operations.
pub fn proposition_d6_database(n: usize) -> (Database, FdSet) {
    assert!(n >= 1, "the family is defined for n ≥ 1");
    let mut schema = Schema::new();
    schema
        .add_relation("R", &["A1", "A2", "A3"])
        .expect("fresh schema");
    let mut db = Database::with_schema(schema);
    db.insert_values("R", [Value::int(0), Value::int(0), Value::int(0)])
        .expect("schema matches");
    for i in 1..n {
        db.insert_values("R", [Value::int(0), Value::int(1), Value::int(i as i64)])
            .expect("schema matches");
    }
    let mut sigma = FdSet::new();
    sigma.add(
        FunctionalDependency::from_names(db.schema(), "R", &["A1"], &["A2"])
            .expect("R has attributes A1 and A2"),
    );
    (db, sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucqa_db::{ConflictGraph, FactId, ViolationSet};

    #[test]
    fn fd_workload_is_not_a_key_workload() {
        let (db, sigma) = FdWorkload::new(50, 6, 3, 5).generate();
        assert_eq!(db.len(), 50);
        assert!(!sigma.is_keys(db.schema()));
        assert!(!ViolationSet::of_database(&db, &sigma).is_empty());
    }

    #[test]
    fn proposition_d6_conflict_graph_is_a_star() {
        let (db, sigma) = proposition_d6_database(6);
        assert_eq!(db.len(), 6);
        let cg = ConflictGraph::build(&db, &sigma);
        assert_eq!(cg.degree(FactId::new(0)), 5);
        for i in 1..6 {
            assert_eq!(cg.degree(FactId::new(i)), 1);
        }
        assert!(cg.is_non_trivially_connected());
    }

    #[test]
    fn proposition_d6_base_case_is_consistent() {
        let (db, sigma) = proposition_d6_database(1);
        assert_eq!(db.len(), 1);
        assert!(sigma.satisfied_by_database(&db));
    }

    #[test]
    fn multi_fd_workload_is_inconsistent_non_key_and_cross_relation() {
        let workload = MultiFdWorkload::new(400, 3, 10, 3, 9);
        let (db, sigma) = workload.generate();
        assert_eq!(db.len(), 400);
        assert_eq!(db.schema().relation_count(), 3);
        assert_eq!(sigma.len(), 6);
        assert!(!sigma.is_keys(db.schema()));
        let violations = ViolationSet::of_database(&db, &sigma);
        assert!(!violations.is_empty());
        // Every relation contributes violations (cross-relation structure).
        let facts = violations.conflicting_facts();
        for relation in 0..3 {
            assert!(
                facts
                    .iter()
                    .any(|f| db.fact(*f).relation().index() == relation),
                "relation R{relation} has no violation"
            );
        }
    }

    #[test]
    fn multi_fd_scaling_profile_keeps_conflicts_sparse() {
        let (db, sigma) = MultiFdWorkload::scaling(2_000, 7).generate();
        let violations = ViolationSet::of_database(&db, &sigma);
        assert!(!violations.is_empty());
        // Sparse regime: far fewer violations than the quadratic worst
        // case, so walks terminate quickly.
        assert!(violations.len() < db.len() * 20);
        let (db2, _) = MultiFdWorkload::scaling(2_000, 7).generate();
        for (id, fact) in db.iter() {
            assert_eq!(fact, db2.fact(id));
        }
    }

    #[test]
    fn fd_workload_is_reproducible() {
        let a = FdWorkload::new(30, 4, 2, 77).generate().0;
        let b = FdWorkload::new(30, 4, 2, 77).generate().0;
        for (id, fact) in a.iter() {
            assert_eq!(fact, b.fact(id));
        }
    }
}
