//! Operations `−F` and justifiedness.

use std::fmt;

use ucqa_db::{Database, FactId, FactSet, FdSet, ViolationSet};

/// A repairing operation `−F`: removes a non-empty set `F` of facts
/// (Definition 3.1).
///
/// For functional dependencies a justified operation removes either a
/// single fact or a pair of facts that jointly violate an FD
/// (Definition 3.3), so `F` always has one or two elements.  The fact ids
/// are kept sorted, which gives operations a canonical form and a total
/// order; that order is what induces the deterministic child ordering of
/// the repairing tree (and hence the canonical-sequence choice `≺` used by
/// the uniform-repairs generator).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Operation {
    facts: Vec<FactId>,
}

impl Operation {
    /// The operation `−f` removing a single fact.
    pub fn remove_one(fact: FactId) -> Self {
        Operation { facts: vec![fact] }
    }

    /// The operation `−{f, g}` removing a pair of distinct facts.
    ///
    /// # Panics
    /// Panics if `f == g`.
    pub fn remove_pair(f: FactId, g: FactId) -> Self {
        assert_ne!(f, g, "a pair operation must remove two distinct facts");
        let (a, b) = if f < g { (f, g) } else { (g, f) };
        Operation { facts: vec![a, b] }
    }

    /// The facts removed by this operation, sorted.
    pub fn facts(&self) -> &[FactId] {
        &self.facts
    }

    /// Returns `true` iff this operation removes exactly one fact.
    pub fn is_singleton(&self) -> bool {
        self.facts.len() == 1
    }

    /// Returns `true` iff this operation removes `fact`.
    pub fn removes(&self, fact: FactId) -> bool {
        self.facts.contains(&fact)
    }

    /// Applies the operation to a subset, removing its facts.
    pub fn apply(&self, subset: &mut FactSet) {
        for &fact in &self.facts {
            subset.remove(fact);
        }
    }

    /// Returns a copy of `subset` with the operation applied.
    pub fn applied_to(&self, subset: &FactSet) -> FactSet {
        let mut result = subset.clone();
        self.apply(&mut result);
        result
    }

    /// Returns `true` iff this operation is `(D', Σ)`-justified for the
    /// sub-database `subset = D'` (Definition 3.3): there is a violation
    /// `(φ, {f, g}) ∈ V(D', Σ)` with `F ⊆ {f, g}`.
    pub fn is_justified(&self, db: &Database, sigma: &FdSet, subset: &FactSet) -> bool {
        let violations = ViolationSet::compute(db, sigma, subset);
        self.is_justified_with(&violations)
    }

    /// Justifiedness check against a precomputed violation set of the
    /// current sub-database.
    pub fn is_justified_with(&self, violations: &ViolationSet) -> bool {
        match self.facts.as_slice() {
            [f] => violations.iter().any(|v| v.involves(*f)),
            [f, g] => violations
                .iter()
                .any(|v| v.pair() == (*f, *g) || v.pair() == (*g, *f)),
            _ => false,
        }
    }

    /// Renders the operation as the paper does, e.g. `-f1` or `-{f1,f2}`.
    pub fn render(&self) -> String {
        match self.facts.as_slice() {
            [f] => format!("-{f}"),
            facts => {
                let inner: Vec<String> = facts.iter().map(|f| f.to_string()).collect();
                format!("-{{{}}}", inner.join(","))
            }
        }
    }
}

impl fmt::Debug for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Enumerates the justified operations available on the sub-database
/// `subset = D'`, i.e. the operations `op` such that `s · op` extends a
/// repairing sequence `s` with `s(D) = D'` (the children `Ops_s(D, Σ)` of a
/// tree node).
///
/// With `singleton_only = true`, only operations removing a single fact are
/// returned — the operation space of the `M^{·,1}` generators (Section 7 /
/// Appendix E).
///
/// The result is sorted in the canonical operation order and free of
/// duplicates; it is empty iff `D' ⊨ Σ`.
pub fn justified_operations(
    db: &Database,
    sigma: &FdSet,
    subset: &FactSet,
    singleton_only: bool,
) -> Vec<Operation> {
    let violations = ViolationSet::compute(db, sigma, subset);
    justified_operations_from(&violations, singleton_only)
}

/// As [`justified_operations`], but from a precomputed violation set of the
/// current sub-database.
pub fn justified_operations_from(
    violations: &ViolationSet,
    singleton_only: bool,
) -> Vec<Operation> {
    let mut scratch = OperationScratch::default();
    let mut ops = Vec::new();
    justified_operations_into(violations, singleton_only, &mut scratch, &mut ops);
    ops
}

/// Reusable buffers for [`justified_operations_into`], so repeated
/// enumeration (the tree builder's per-node loop) only allocates the
/// [`Operation`] values themselves.
#[derive(Debug, Default, Clone)]
pub struct OperationScratch {
    facts: Vec<FactId>,
    pairs: Vec<(FactId, FactId)>,
}

/// As [`justified_operations_from`], writing into a reused output vector
/// (cleared first) and deduplicating through the reused `scratch` buffers.
pub fn justified_operations_into(
    violations: &ViolationSet,
    singleton_only: bool,
    scratch: &mut OperationScratch,
    out: &mut Vec<Operation>,
) {
    out.clear();
    violations.conflicting_facts_into(&mut scratch.facts);
    for &fact in &scratch.facts {
        out.push(Operation::remove_one(fact));
    }
    if !singleton_only {
        violations.conflicting_pairs_into(&mut scratch.pairs);
        for &(f, g) in &scratch.pairs {
            out.push(Operation::remove_pair(f, g));
        }
    }
    // The `_into` variants already deduplicate facts and pairs, so the
    // operations are distinct; only the canonical order remains.
    out.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucqa_db::{ConflictIndex, Database, FunctionalDependency, Schema, Value};

    /// The running example of the paper (Example 3.6).
    fn running_example() -> (Database, FdSet) {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B", "C"]).unwrap();
        let mut db = Database::with_schema(schema);
        db.insert_values("R", [Value::str("a1"), Value::str("b1"), Value::str("c1")])
            .unwrap();
        db.insert_values("R", [Value::str("a1"), Value::str("b2"), Value::str("c2")])
            .unwrap();
        db.insert_values("R", [Value::str("a2"), Value::str("b1"), Value::str("c2")])
            .unwrap();
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["C"], &["B"]).unwrap());
        (db, sigma)
    }

    #[test]
    fn canonical_form_and_rendering() {
        let op = Operation::remove_pair(FactId::new(3), FactId::new(1));
        assert_eq!(op.facts(), &[FactId::new(1), FactId::new(3)]);
        assert_eq!(op.render(), "-{f1,f3}");
        assert_eq!(Operation::remove_one(FactId::new(0)).render(), "-f0");
        assert!(op.removes(FactId::new(3)));
        assert!(!op.removes(FactId::new(2)));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn pair_of_equal_facts_panics() {
        let _ = Operation::remove_pair(FactId::new(1), FactId::new(1));
    }

    #[test]
    fn apply_removes_facts() {
        let mut subset = FactSet::full(4);
        Operation::remove_pair(FactId::new(0), FactId::new(2)).apply(&mut subset);
        assert_eq!(subset.len(), 2);
        assert!(!subset.contains(FactId::new(0)));
        assert!(subset.contains(FactId::new(1)));
    }

    #[test]
    fn running_example_root_operations_match_figure1() {
        // The root of Figure 1 has five children:
        // -f1, -{f1,f2}, -f2, -{f2,f3}, -f3.
        let (db, sigma) = running_example();
        let ops = justified_operations(&db, &sigma, &db.all_facts(), false);
        let rendered: Vec<String> = ops.iter().map(Operation::render).collect();
        assert_eq!(rendered, vec!["-f0", "-{f0,f1}", "-f1", "-{f1,f2}", "-f2"]);
        // Singleton-only variant keeps just the three single-fact removals.
        let ops1 = justified_operations(&db, &sigma, &db.all_facts(), true);
        assert_eq!(ops1.len(), 3);
        assert!(ops1.iter().all(Operation::is_singleton));
    }

    #[test]
    fn justifiedness_checks() {
        let (db, sigma) = running_example();
        let full = db.all_facts();
        // f1 and f3 (ids 0 and 2) do not form a violating pair.
        assert!(!Operation::remove_pair(FactId::new(0), FactId::new(2))
            .is_justified(&db, &sigma, &full));
        assert!(
            Operation::remove_pair(FactId::new(0), FactId::new(1)).is_justified(&db, &sigma, &full)
        );
        assert!(Operation::remove_one(FactId::new(2)).is_justified(&db, &sigma, &full));
        // After removing f2 (id 1) the database is consistent: nothing is
        // justified any more.
        let mut subset = full.clone();
        subset.remove(FactId::new(1));
        assert!(!Operation::remove_one(FactId::new(0)).is_justified(&db, &sigma, &subset));
        assert!(justified_operations(&db, &sigma, &subset, false).is_empty());
    }

    #[test]
    fn index_backed_enumeration_matches_rescan_enumeration() {
        // The conflict index decides `Ops_s` without a rescan: a live fact
        // is a singleton operation iff it has a live neighbour, and a pair
        // iff both its facts are live.
        let (db, sigma) = running_example();
        let index = ConflictIndex::build(&db, &sigma);
        let from_index = |subset: &FactSet, singleton_only: bool| {
            let mut ops: Vec<Operation> = index
                .conflicting_facts()
                .iter()
                .filter(|&&f| subset.contains(f) && index.has_live_neighbour(f, subset))
                .map(|&f| Operation::remove_one(f))
                .collect();
            if !singleton_only {
                ops.extend(
                    index
                        .pairs()
                        .iter()
                        .filter(|&&(f, g)| subset.contains(f) && subset.contains(g))
                        .map(|&(f, g)| Operation::remove_pair(f, g)),
                );
            }
            ops.sort_unstable();
            ops
        };
        let mut subset = db.all_facts();
        for singleton_only in [false, true] {
            assert_eq!(
                from_index(&subset, singleton_only),
                justified_operations(&db, &sigma, &subset, singleton_only)
            );
        }
        // After removing f1 the two enumerations must still agree.
        subset.remove(FactId::new(0));
        assert_eq!(
            from_index(&subset, false),
            justified_operations(&db, &sigma, &subset, false)
        );
    }

    #[test]
    fn buffered_enumeration_matches_allocating_enumeration() {
        let (db, sigma) = running_example();
        let violations = ViolationSet::compute(&db, &sigma, &db.all_facts());
        let mut scratch = OperationScratch::default();
        let mut ops = Vec::new();
        for singleton_only in [false, true] {
            justified_operations_into(&violations, singleton_only, &mut scratch, &mut ops);
            assert_eq!(ops, justified_operations_from(&violations, singleton_only));
        }
    }

    #[test]
    fn operations_are_totally_ordered() {
        let mut ops = [
            Operation::remove_one(FactId::new(2)),
            Operation::remove_pair(FactId::new(0), FactId::new(1)),
            Operation::remove_one(FactId::new(0)),
        ];
        ops.sort();
        let rendered: Vec<String> = ops.iter().map(Operation::render).collect();
        assert_eq!(rendered, vec!["-f0", "-{f0,f1}", "-f2"]);
    }
}
