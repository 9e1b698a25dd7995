//! FD violations `V(D, Σ)` (Definition 3.2).

use crate::{Database, FactId, FactSet, FdId, FdSet, FunctionalDependency};

/// A single violation: an FD `φ ∈ Σ` together with a pair of facts
/// `{f, g} ⊆ D` such that `{f, g} ⊭ φ`.
///
/// The pair is stored with `first < second` so that violations are
/// canonical and can be deduplicated / compared directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Violation {
    /// The violated FD.
    pub fd: FdId,
    /// The smaller fact id of the violating pair.
    pub first: FactId,
    /// The larger fact id of the violating pair.
    pub second: FactId,
}

impl Violation {
    /// Constructs a violation, normalising the pair order.
    pub fn new(fd: FdId, a: FactId, b: FactId) -> Self {
        let (first, second) = if a <= b { (a, b) } else { (b, a) };
        Violation { fd, first, second }
    }

    /// Returns `true` iff `fact` is one of the two facts of this violation.
    pub fn involves(&self, fact: FactId) -> bool {
        self.first == fact || self.second == fact
    }

    /// The two facts of the violation as a pair.
    pub fn pair(&self) -> (FactId, FactId) {
        (self.first, self.second)
    }
}

/// Appends the violations of `fd` among the facts in `live` to `out`.
///
/// This is the shared detection kernel: it sorts the live facts by the
/// FD's left-hand-side *symbols* (dense `u32`s straight off the relation's
/// columns — no `Value` hashing or cloning), groups equal-LHS facts as
/// consecutive runs, and checks pairs within each run for a differing
/// right-hand-side symbol.  The first two LHS symbols are packed into a
/// cached `u64` sort key so the comparator is a plain integer compare;
/// FDs with longer left-hand sides fall back to comparing the remaining
/// columns on key ties.  Interning is injective, so symbol (in)equality
/// is value (in)equality; the caller canonicalises `out` by a final
/// sort + dedup, which also erases the sort-order dependence of the
/// emission order.
fn scan_fd(
    db: &Database,
    fd_id: FdId,
    fd: &FunctionalDependency,
    live: &[FactId],
    keyed: &mut Vec<(u64, FactId)>,
    out: &mut Vec<Violation>,
) {
    let columns = db.columns_of(fd.relation());
    let lhs: Vec<usize> = fd.lhs().iter().map(|a| a.index()).collect();
    let rhs: Vec<usize> = fd.rhs().iter().map(|a| a.index()).collect();
    let tail = &lhs[lhs.len().min(2)..];
    keyed.clear();
    keyed.extend(live.iter().map(|&fact| {
        let row = db.row_of(fact);
        let hi = columns[lhs[0]][row].0 as u64;
        let lo = lhs.get(1).map_or(0, |&attr| columns[attr][row].0 as u64);
        ((hi << 32) | lo, fact)
    }));
    let tail_cmp = |a: FactId, b: FactId| {
        let (ra, rb) = (db.row_of(a), db.row_of(b));
        tail.iter()
            .map(|&attr| columns[attr][ra].cmp(&columns[attr][rb]))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    };
    if tail.is_empty() {
        keyed.sort_unstable_by_key(|&(key, _)| key);
    } else {
        keyed.sort_unstable_by(|&(ka, a), &(kb, b)| ka.cmp(&kb).then_with(|| tail_cmp(a, b)));
    }
    let same_group = |a: &(u64, FactId), b: &(u64, FactId)| {
        a.0 == b.0 && (tail.is_empty() || tail_cmp(a.1, b.1).is_eq())
    };
    let rhs_differs = |a: FactId, b: FactId| {
        let (ra, rb) = (db.row_of(a), db.row_of(b));
        rhs.iter()
            .any(|&attr| columns[attr][ra] != columns[attr][rb])
    };
    let mut start = 0;
    while start < keyed.len() {
        let mut end = start + 1;
        while end < keyed.len() && same_group(&keyed[start], &keyed[end]) {
            end += 1;
        }
        for i in start..end {
            for j in (i + 1)..end {
                if rhs_differs(keyed[i].1, keyed[j].1) {
                    out.push(Violation::new(fd_id, keyed[i].1, keyed[j].1));
                }
            }
        }
        start = end;
    }
}

/// The set `V(D', Σ)` of violations of a sub-database `D' ⊆ D`.
#[derive(Debug, Clone, Default)]
pub struct ViolationSet {
    violations: Vec<Violation>,
    /// Sort-key scratch of [`scan_fd`], reused across recomputes so
    /// repeated scans (the repairing tree's, one per node) stay
    /// allocation-free at steady state.
    keyed: Vec<(u64, FactId)>,
}

impl ViolationSet {
    /// Computes `V(D', Σ)` for the sub-database `subset ⊆ D`.
    ///
    /// Facts are grouped per relation and FD left-hand side (by sorting on
    /// the interned symbol columns) so that only facts agreeing on the LHS
    /// are compared pairwise, which keeps detection close to linear for
    /// databases with small blocks.
    pub fn compute(db: &Database, sigma: &FdSet, subset: &FactSet) -> Self {
        let mut set = ViolationSet::default();
        set.recompute(db, sigma, subset, &mut Vec::new());
        set
    }

    /// Computes `V(D, Σ)` for the whole database.
    pub fn of_database(db: &Database, sigma: &FdSet) -> Self {
        ViolationSet::compute(db, sigma, &db.all_facts())
    }

    /// Recomputes `V(D', Σ)` into `self`, reusing its allocation and the
    /// caller-provided `live` scratch buffer, so repeated scans over
    /// single-attribute left-hand sides (the inner loop of the
    /// uniform-operations walk) perform no heap allocation once the
    /// buffers have grown to their steady-state capacity.
    ///
    /// Instead of hashing LHS value tuples (which would allocate a key per
    /// fact), single-attribute left-hand sides walk the relation index's
    /// posting runs — which *are* the LHS groups, so grouping costs
    /// nothing — and composite left-hand sides sort the live facts by
    /// their LHS symbols (packed into cached `u64` sort keys).
    pub fn recompute(
        &mut self,
        db: &Database,
        sigma: &FdSet,
        subset: &FactSet,
        live: &mut Vec<FactId>,
    ) {
        self.violations.clear();
        for (fd_id, fd) in sigma.iter() {
            if fd.lhs().len() == 1 {
                let attr = fd.lhs().iter().next().expect("non-empty LHS").index();
                let columns = db.columns_of(fd.relation());
                let rhs_differs = |a: FactId, b: FactId| {
                    let (ra, rb) = (db.row_of(a), db.row_of(b));
                    fd.rhs()
                        .iter()
                        .any(|r| columns[r.index()][ra] != columns[r.index()][rb])
                };
                for run in db.relation_index().posting_runs(fd.relation(), attr) {
                    live.clear();
                    live.extend(run.iter().copied().filter(|&f| subset.contains(f)));
                    for (i, &a) in live.iter().enumerate() {
                        for &b in &live[i + 1..] {
                            if rhs_differs(a, b) {
                                self.violations.push(Violation::new(fd_id, a, b));
                            }
                        }
                    }
                }
            } else {
                live.clear();
                live.extend(db.facts_of(fd.relation()).filter(|&f| subset.contains(f)));
                scan_fd(db, fd_id, fd, live, &mut self.keyed, &mut self.violations);
            }
        }
        self.violations.sort_unstable();
        self.violations.dedup();
    }

    /// The violations, sorted canonically.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Number of violations.
    pub fn len(&self) -> usize {
        self.violations.len()
    }

    /// Returns `true` iff there are no violations, i.e. `D' ⊨ Σ`.
    pub fn is_empty(&self) -> bool {
        self.violations.is_empty()
    }

    /// Iterates over the violations.
    pub fn iter(&self) -> impl Iterator<Item = &Violation> + '_ {
        self.violations.iter()
    }

    /// The distinct unordered pairs `{f, g}` appearing in some violation
    /// (the same pair may violate several FDs).
    pub fn conflicting_pairs(&self) -> Vec<(FactId, FactId)> {
        let mut pairs = Vec::new();
        self.conflicting_pairs_into(&mut pairs);
        pairs
    }

    /// As [`ViolationSet::conflicting_pairs`], writing into a reused buffer
    /// (cleared first) so hot callers perform no per-call allocation.
    pub fn conflicting_pairs_into(&self, out: &mut Vec<(FactId, FactId)>) {
        out.clear();
        out.extend(self.violations.iter().map(Violation::pair));
        out.sort_unstable();
        out.dedup();
    }

    /// The facts involved in at least one violation.
    pub fn conflicting_facts(&self) -> Vec<FactId> {
        let mut facts = Vec::new();
        self.conflicting_facts_into(&mut facts);
        facts
    }

    /// As [`ViolationSet::conflicting_facts`], writing into a reused buffer
    /// (cleared first) so hot callers perform no per-call allocation.
    pub fn conflicting_facts_into(&self, out: &mut Vec<FactId>) {
        out.clear();
        out.extend(self.violations.iter().flat_map(|v| [v.first, v.second]));
        out.sort_unstable();
        out.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, FunctionalDependency, Schema, Value};

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
    fn running_example_violations_match_paper() {
        // V(D, Σ) = {(φ1, {f1, f2}), (φ2, {f2, f3})}.
        let (db, sigma) = running_example();
        let violations = ViolationSet::of_database(&db, &sigma);
        assert_eq!(violations.len(), 2);
        let expected = vec![
            Violation::new(FdId::new(0), FactId::new(0), FactId::new(1)),
            Violation::new(FdId::new(1), FactId::new(1), FactId::new(2)),
        ];
        assert_eq!(violations.violations(), expected.as_slice());
        assert_eq!(
            violations.conflicting_facts(),
            vec![FactId::new(0), FactId::new(1), FactId::new(2)]
        );
        assert_eq!(violations.conflicting_pairs().len(), 2);
    }

    #[test]
    fn violations_of_consistent_subset_are_empty() {
        let (db, sigma) = running_example();
        let mut subset = db.all_facts();
        subset.remove(FactId::new(1)); // remove f2
        let violations = ViolationSet::compute(&db, &sigma, &subset);
        assert!(violations.is_empty());
    }

    #[test]
    fn recompute_matches_compute_on_all_subsets() {
        let (db, sigma) = running_example();
        let mut reused = ViolationSet::default();
        let mut scratch = Vec::new();
        for mask in 0u32..(1 << db.len()) {
            let subset = FactSet::from_iter(
                db.len(),
                (0..db.len())
                    .filter(|i| (mask >> i) & 1 == 1)
                    .map(FactId::new),
            );
            let fresh = ViolationSet::compute(&db, &sigma, &subset);
            reused.recompute(&db, &sigma, &subset, &mut scratch);
            assert_eq!(fresh.violations(), reused.violations(), "mask {mask:b}");
        }
    }

    #[test]
    fn symbol_kernel_matches_pairwise_value_check() {
        // Brute-force reference: every pair of live facts, checked through
        // the Value-level FunctionalDependency::satisfied_by_pair shell.
        let (db, sigma) = running_example();
        let all = db.all_facts();
        let violations = ViolationSet::compute(&db, &sigma, &all);
        let mut reference = Vec::new();
        for (fd_id, fd) in sigma.iter() {
            for a in db.fact_ids() {
                for b in db.fact_ids() {
                    if a < b && !fd.satisfied_by_pair(&db.fact(a), &db.fact(b)) {
                        reference.push(Violation::new(fd_id, a, b));
                    }
                }
            }
        }
        reference.sort_unstable();
        assert_eq!(violations.violations(), reference.as_slice());
    }

    #[test]
    fn pair_normalisation() {
        let v = Violation::new(FdId::new(0), FactId::new(5), FactId::new(2));
        assert_eq!(v.pair(), (FactId::new(2), FactId::new(5)));
        assert!(v.involves(FactId::new(5)));
        assert!(!v.involves(FactId::new(3)));
    }

    #[test]
    fn same_pair_violating_two_fds_counted_twice() {
        // Both FDs violated by the same pair → two violations, one pair.
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        let mut db = Database::with_schema(schema);
        db.insert_values("R", [Value::int(1), Value::int(1)])
            .unwrap();
        db.insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["A", "B"]).unwrap());
        let violations = ViolationSet::of_database(&db, &sigma);
        assert_eq!(violations.len(), 2);
        assert_eq!(violations.conflicting_pairs().len(), 1);
    }
}
