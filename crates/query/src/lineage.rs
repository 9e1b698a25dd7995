//! Compiled query lineage: the monotone DNF of witness sets.
//!
//! The FPRAS drivers of `ucqa-core` reduce uniform operational CQA to
//! drawing millions of Bernoulli samples of the form *"does this sampled
//! repair entail the query (with the candidate answer)?"*.  Every repair is
//! a subset `D' ⊆ D` of one fixed database, and conjunctive queries are
//! monotone, so the entailment predicate is a fixed monotone Boolean
//! function of the fact bits: `D' ⊨ Q(c̄)` iff the image of **some**
//! homomorphism `h` with `h(x̄) = c̄` survives in `D'`.
//!
//! [`CompiledLineage`] materialises that function once per
//! `(D, Q, candidate)` triple: it enumerates all homomorphisms up front and
//! compiles their images into a minimal antichain of witness bitsets.  The
//! per-sample check is then *"some witness ⊆ repair"* — a handful of
//! word-level AND/compare operations per witness — instead of a full
//! backtracking homomorphism search.  Witness enumeration is capped (query
//! lineage can be exponential in the query size); past the cap the caller
//! falls back to the backtracking evaluator.

use ucqa_db::Value;
use ucqa_db::{Database, FactChange, FactId, FactSet};

use crate::{CompileBudget, QueryError, QueryEvaluator};

/// Default cap on the number of witnesses materialised by
/// [`CompiledLineage::compile`].
///
/// `4096` witnesses × a 1 000-fact universe is ~64 KiB of bitset words —
/// comfortably cache-resident — while the linear witness scan stays far
/// cheaper than a backtracking search that would re-derive those same
/// homomorphisms on every sample.
pub const DEFAULT_WITNESS_CAP: usize = 4096;

/// The compiled lineage of one `(database, query, candidate)` triple: a
/// minimal monotone DNF over fact bitsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledLineage {
    /// Minimal witness antichain, sorted by ascending popcount (smaller
    /// witnesses are cheaper to check and more likely to be contained).
    witnesses: Vec<FactSet>,
    /// `witnesses` by their non-zero words: what [`CompiledLineage::entails`]
    /// reads.
    sparse: SparseWitnesses,
    universe: usize,
    /// The database changelog version the lineage was compiled (or last
    /// refreshed) against — what [`CompiledLineage::refresh`] replays from.
    version: u64,
}

impl CompiledLineage {
    /// Compiles the lineage of `candidate` over the **full** database with
    /// the default witness cap.
    ///
    /// Returns `Ok(None)` when the number of distinct witnesses exceeds the
    /// cap, in which case the caller should keep using the backtracking
    /// evaluator.
    pub fn compile(
        evaluator: &QueryEvaluator,
        db: &Database,
        candidate: &[Value],
    ) -> Result<Option<Self>, QueryError> {
        Self::compile_with_cap(evaluator, db, candidate, DEFAULT_WITNESS_CAP)
    }

    /// As [`CompiledLineage::compile`], with an explicit witness cap.
    ///
    /// Witness enumeration runs on the evaluator's plan-based pipeline
    /// ([`QueryEvaluator::for_each_answer_image`] — atom steps over the
    /// database's relation indexes, cost-ordered against the live
    /// statistics when the evaluator was built with
    /// [`QueryEvaluator::with_stats`]); the step order never changes the
    /// compiled antichain, only the enumeration cost.
    pub fn compile_with_cap(
        evaluator: &QueryEvaluator,
        db: &Database,
        candidate: &[Value],
        cap: usize,
    ) -> Result<Option<Self>, QueryError> {
        let universe = db.len();
        let all = db.all_facts();
        let mut raw: Vec<FactSet> = Vec::new();
        let overflowed = evaluator.for_each_answer_image(db, &all, candidate, |image| {
            let mut witness = FactSet::empty(universe);
            for &fact in image {
                witness.insert(fact);
            }
            raw.push(witness);
            // Enumeration keeps its own budget: one past the cap is
            // enough to know compilation must be abandoned.
            raw.len() > cap
        })?;
        if overflowed {
            return Ok(None);
        }
        Ok(Some(Self::from_witnesses(raw, universe, db.version())))
    }

    /// As [`CompiledLineage::compile`], under a [`CompileBudget`].
    ///
    /// The budget is polled once per enumerated witness; when it
    /// interrupts enumeration the result is `Ok(None)` — exactly the
    /// over-cap outcome — so the caller degrades to the backtracking
    /// evaluator instead of stalling on a pathological lineage.
    pub fn compile_with_budget(
        evaluator: &QueryEvaluator,
        db: &Database,
        candidate: &[Value],
        budget: &CompileBudget,
    ) -> Result<Option<Self>, QueryError> {
        let universe = db.len();
        let all = db.all_facts();
        let mut raw: Vec<FactSet> = Vec::new();
        let mut steps = 0u64;
        let interrupted = evaluator.for_each_answer_image(db, &all, candidate, |image| {
            steps += 1;
            if budget.interrupted(steps) {
                return true;
            }
            let mut witness = FactSet::empty(universe);
            for &fact in image {
                witness.insert(fact);
            }
            raw.push(witness);
            raw.len() > DEFAULT_WITNESS_CAP
        })?;
        if interrupted {
            return Ok(None);
        }
        Ok(Some(Self::from_witnesses(raw, universe, db.version())))
    }

    /// Builds the minimal antichain from raw witness sets: duplicates and
    /// supersets are absorbed (`w ⊆ w'` makes `w'` redundant — monotone DNF
    /// absorption).
    fn from_witnesses(raw: Vec<FactSet>, universe: usize, version: u64) -> Self {
        let witnesses = minimal_antichain(raw);
        CompiledLineage {
            sparse: SparseWitnesses::of(&witnesses),
            witnesses,
            universe,
            version,
        }
    }

    /// Incrementally refreshes the lineage after database mutations, with
    /// the default witness cap: replays the changelog since the version
    /// the lineage was compiled against instead of re-enumerating every
    /// homomorphism.
    ///
    /// * Witnesses touching a deleted fact are dropped (their absorbed
    ///   supersets contained the same fact, so no absorbed witness can
    ///   resurface); survivors, the witnesses whose facts are all still
    ///   live, are grown to the new universe.
    /// * New witnesses are enumerated by pinned delta passes of the join
    ///   plan ([`QueryEvaluator::for_each_delta_answer_image`]), visiting
    ///   only matches that touch an inserted fact.
    ///
    /// The merged set re-minimalises to **exactly** the antichain a fresh
    /// [`CompiledLineage::compile`] would build — same witnesses, same
    /// order — so estimates drawn over a refreshed lineage are
    /// bit-identical to estimates over a recompiled one.
    ///
    /// Returns `Ok(false)` when the refreshed witness count exceeds the
    /// cap; the lineage is then left unchanged and the caller should fall
    /// back to the backtracking evaluator (or recompile).  `evaluator` and
    /// `candidate` must be the pair the lineage was compiled from.
    pub fn refresh(
        &mut self,
        evaluator: &QueryEvaluator,
        db: &Database,
        candidate: &[Value],
    ) -> Result<bool, QueryError> {
        self.refresh_with_cap(evaluator, db, candidate, DEFAULT_WITNESS_CAP)
    }

    /// As [`CompiledLineage::refresh`], with an explicit witness cap.
    pub fn refresh_with_cap(
        &mut self,
        evaluator: &QueryEvaluator,
        db: &Database,
        candidate: &[Value],
        cap: usize,
    ) -> Result<bool, QueryError> {
        let universe = db.len();
        let mut inserted_by_relation: Vec<Vec<FactId>> =
            vec![Vec::new(); db.schema().relation_count()];
        for change in db.changes_since(self.version) {
            // An inserted-then-deleted fact is skipped here and cannot
            // appear in old witnesses (its id postdates them), so it
            // contributes nothing — as it should.
            if let FactChange::Inserted(id) = change {
                if db.is_live(*id) {
                    inserted_by_relation[db.relation_of(*id).index()].push(*id);
                }
            }
        }
        let live = db.live_facts();
        let mut raw: Vec<FactSet> = Vec::with_capacity(self.witnesses.len());
        for witness in &self.witnesses {
            // Ids are never reused, so a witness survives iff its facts
            // are all still live.
            let mut survivor = witness.clone();
            survivor.grow(universe);
            if survivor.is_subset_of(live) {
                raw.push(survivor);
            }
        }
        let overflowed = evaluator.for_each_delta_answer_image(
            db,
            live,
            candidate,
            &inserted_by_relation,
            |image| {
                let mut witness = FactSet::empty(universe);
                for &fact in image {
                    witness.insert(fact);
                }
                raw.push(witness);
                raw.len() > cap
            },
        )?;
        if overflowed {
            return Ok(false);
        }
        *self = Self::from_witnesses(raw, universe, db.version());
        Ok(true)
    }

    /// The per-sample entailment check: `true` iff some witness survives in
    /// `repair`, i.e. `repair ⊨ Q(c̄)`.
    ///
    /// Performs no heap allocation; each witness costs one word operation
    /// per non-zero word it spans (one per fact at most), with early exit
    /// — independent of the universe size.
    #[inline]
    pub fn entails(&self, repair: &FactSet) -> bool {
        debug_assert_eq!(repair.universe(), self.universe);
        (0..self.witnesses.len()).any(|w| self.sparse.contained(w, repair.words()))
    }

    /// Number of witnesses in the minimal antichain.
    pub fn witness_count(&self) -> usize {
        self.witnesses.len()
    }

    /// The witnesses themselves (sorted by ascending cardinality).
    pub fn witnesses(&self) -> &[FactSet] {
        &self.witnesses
    }

    /// The size of the fact universe the lineage ranges over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The database changelog version the lineage is current with (see
    /// [`Database::version`]); [`CompiledLineage::refresh`] replays the
    /// changelog from here.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// `true` iff the candidate is entailed by **every** subset, including
    /// the empty one (the query is satisfied by zero atoms matching — only
    /// possible for queries with an empty body).
    pub fn is_unconditional(&self) -> bool {
        self.witnesses.first().is_some_and(FactSet::is_empty)
    }

    /// `true` iff no subset of the database entails the candidate (the
    /// target probability is exactly zero).
    pub fn never_entails(&self) -> bool {
        self.witnesses.is_empty()
    }
}

/// Witness bitsets stored by their non-zero words: witness `i` is the
/// `(word index, mask)` pairs `words[starts[i]..starts[i + 1]]`.
///
/// A witness spans a handful of facts but its bitset spans the whole
/// universe, so the per-draw containment check reads only the few repair
/// words a witness touches instead of `⌈universe/64⌉` of them.  Built
/// next to the bitsets at compile and refresh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SparseWitnesses {
    starts: Vec<usize>,
    words: Vec<(usize, u64)>,
}

impl Default for SparseWitnesses {
    fn default() -> Self {
        SparseWitnesses {
            starts: vec![0],
            words: Vec::new(),
        }
    }
}

impl SparseWitnesses {
    /// The sparse form of `witnesses`, in the same order.
    pub(crate) fn of(witnesses: &[FactSet]) -> Self {
        let mut sparse = SparseWitnesses::default();
        for witness in witnesses {
            sparse.push(witness.iter());
        }
        sparse
    }

    /// Appends one witness, given by its facts in ascending order.
    pub(crate) fn push(&mut self, facts: impl IntoIterator<Item = FactId>) {
        let start = self.words.len();
        for fact in facts {
            let (word, bit) = (fact.index() / 64, 1u64 << (fact.index() % 64));
            match self.words[start..].last_mut() {
                Some((last, mask)) if *last == word => *mask |= bit,
                _ => self.words.push((word, bit)),
            }
        }
        self.starts.push(self.words.len());
    }

    /// The `(word index, mask)` pairs of witness `index`.
    fn pairs(&self, index: usize) -> &[(usize, u64)] {
        &self.words[self.starts[index]..self.starts[index + 1]]
    }

    /// The facts of witness `index`, ascending.
    pub(crate) fn facts(&self, index: usize) -> impl Iterator<Item = FactId> + '_ {
        self.pairs(index).iter().flat_map(|&(word, mask)| {
            let mut bits = mask;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    FactId::new(word * 64 + bit)
                })
            })
        })
    }

    /// `true` iff witness `index` ⊆ the set whose membership words are
    /// `repair` (see [`FactSet::words`]).
    #[inline]
    pub(crate) fn contained(&self, index: usize, repair: &[u64]) -> bool {
        self.pairs(index)
            .iter()
            .all(|&(word, mask)| repair[word] & mask == mask)
    }
}

/// Reduces raw witness sets to the minimal monotone-DNF antichain:
/// duplicates and supersets are absorbed (`w ⊆ w'` makes `w'` redundant),
/// and the survivors are sorted by ascending popcount (smaller witnesses
/// are cheaper to check and more likely to be contained).
///
/// Exact duplicates are removed by sorting first, so the quadratic
/// containment pass only compares a candidate against *strictly smaller*
/// kept witnesses (among equal cardinalities, `⊆` implies `=`, which the
/// dedup already handled).  Banks of equal-size witnesses — atomic
/// membership queries, fixed-shape join banks — thus minimise in
/// `O(n log n)` instead of `O(n²)` word scans.
///
/// Shared between single-query compilation and the bank's shared-trie
/// compilation, so both produce the same antichain from the same raw set.
pub(crate) fn minimal_antichain(mut raw: Vec<FactSet>) -> Vec<FactSet> {
    raw.sort_unstable();
    raw.dedup();
    raw.sort_by_key(FactSet::len);
    let mut witnesses: Vec<FactSet> = Vec::new();
    for candidate in raw {
        // `witnesses` is in ascending cardinality order (candidates
        // arrive that way), so the strictly-smaller prefix is contiguous.
        let smaller = witnesses.partition_point(|kept| kept.len() < candidate.len());
        if !witnesses[..smaller]
            .iter()
            .any(|kept| kept.is_subset_of(&candidate))
        {
            witnesses.push(candidate);
        }
    }
    witnesses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use ucqa_db::{FactId, Schema};

    fn blocks_db() -> Database {
        let mut schema = Schema::new();
        schema.add_relation("R", &["K", "V"]).unwrap();
        let mut db = Database::with_schema(schema);
        for (k, v) in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 7)] {
            db.insert_values("R", [Value::int(k), Value::int(v)])
                .unwrap();
        }
        db
    }

    #[test]
    fn entails_agrees_with_the_evaluator_on_all_subsets() {
        let db = blocks_db();
        for (text, candidate) in [
            ("Ans(x) :- R(1, x)", vec![Value::int(1)]),
            ("Ans() :- R(x, y), R(z, y)", vec![]),
            ("Ans() :- R(1, x), R(2, x)", vec![]),
            ("Ans() :- R(9, 9)", vec![]),
        ] {
            let evaluator = QueryEvaluator::new(parse_query(db.schema(), text).unwrap());
            let lineage = CompiledLineage::compile(&evaluator, &db, &candidate)
                .unwrap()
                .expect("under cap");
            for mask in 0u32..(1 << db.len()) {
                let subset = FactSet::from_iter(
                    db.len(),
                    (0..db.len())
                        .filter(|i| (mask >> i) & 1 == 1)
                        .map(FactId::new),
                );
                assert_eq!(
                    lineage.entails(&subset),
                    evaluator.has_answer(&db, &subset, &candidate).unwrap(),
                    "query {text}, mask {mask:b}"
                );
            }
        }
    }

    #[test]
    fn witnesses_form_a_minimal_antichain() {
        let db = blocks_db();
        // R(x, y), R(z, y): single-fact images (x = z) absorb the two-fact
        // ones, leaving exactly the five singleton witnesses.
        let evaluator =
            QueryEvaluator::new(parse_query(db.schema(), "Ans() :- R(x, y), R(z, y)").unwrap());
        let lineage = CompiledLineage::compile(&evaluator, &db, &[])
            .unwrap()
            .unwrap();
        assert_eq!(lineage.witness_count(), 5);
        assert!(lineage.witnesses().iter().all(|w| w.len() == 1));
        for (i, a) in lineage.witnesses().iter().enumerate() {
            for (j, b) in lineage.witnesses().iter().enumerate() {
                if i != j {
                    assert!(!a.is_subset_of(b), "witness {i} ⊆ witness {j}");
                }
            }
        }
    }

    #[test]
    fn unsatisfiable_candidates_have_no_witnesses() {
        let db = blocks_db();
        let evaluator = QueryEvaluator::new(parse_query(db.schema(), "Ans() :- R(9, 9)").unwrap());
        let lineage = CompiledLineage::compile(&evaluator, &db, &[])
            .unwrap()
            .unwrap();
        assert!(lineage.never_entails());
        assert!(!lineage.entails(&db.all_facts()));
    }

    #[test]
    fn cap_overflow_returns_none() {
        let db = blocks_db();
        let evaluator = QueryEvaluator::new(parse_query(db.schema(), "Ans() :- R(x, y)").unwrap());
        assert!(CompiledLineage::compile_with_cap(&evaluator, &db, &[], 2)
            .unwrap()
            .is_none());
        assert!(CompiledLineage::compile_with_cap(&evaluator, &db, &[], 5)
            .unwrap()
            .is_some());
    }

    #[test]
    fn refresh_replays_mutations_and_matches_a_fresh_compile() {
        let mut db = blocks_db();
        for (text, candidate) in [
            ("Ans(x) :- R(1, x)", vec![Value::int(1)]),
            ("Ans() :- R(x, y), R(z, y)", vec![]),
            ("Ans() :- R(1, x), R(2, x)", vec![]),
            ("Ans() :- R(9, 9)", vec![]),
        ] {
            let evaluator = QueryEvaluator::new(parse_query(db.schema(), text).unwrap());
            let mut lineage = CompiledLineage::compile(&evaluator, &db, &candidate)
                .unwrap()
                .unwrap();
            // No mutations: refresh is a structural no-op.
            let before = lineage.clone();
            assert!(lineage.refresh(&evaluator, &db, &candidate).unwrap());
            assert_eq!(lineage, before, "query {text}");
            // Insert facts extending block 1 and bridging blocks, and
            // delete R(2, 1); the refreshed lineage must equal — same
            // witnesses, same order — a compile from scratch.
            db.insert_values("R", [Value::int(1), Value::int(9)])
                .unwrap();
            db.insert_values("R", [Value::int(2), Value::int(9)])
                .unwrap();
            let gone = ucqa_db::Fact::new(
                db.schema().relation_id("R").unwrap(),
                vec![Value::int(2), Value::int(1)],
            );
            db.delete(db.fact_id(&gone).unwrap()).unwrap();
            assert!(lineage.refresh(&evaluator, &db, &candidate).unwrap());
            let fresh = CompiledLineage::compile(&evaluator, &db, &candidate)
                .unwrap()
                .unwrap();
            assert_eq!(lineage, fresh, "query {text}");
            // Undo for the next query: re-insert what was deleted (new id,
            // but compile and refresh both see the same database).
            db.insert_values("R", [Value::int(2), Value::int(1)])
                .unwrap();
        }
    }

    #[test]
    fn refresh_grounds_constants_first_interned_by_the_mutations() {
        let mut db = blocks_db();
        // 8 is not interned at compile time: the lineage compiles to zero
        // witnesses (never entails).
        let evaluator = QueryEvaluator::new(parse_query(db.schema(), "Ans() :- R(8, x)").unwrap());
        let mut lineage = CompiledLineage::compile(&evaluator, &db, &[])
            .unwrap()
            .unwrap();
        assert!(lineage.never_entails());
        db.insert_values("R", [Value::int(8), Value::int(1)])
            .unwrap();
        assert!(lineage.refresh(&evaluator, &db, &[]).unwrap());
        let fresh = CompiledLineage::compile(&evaluator, &db, &[])
            .unwrap()
            .unwrap();
        assert_eq!(lineage, fresh);
        assert_eq!(lineage.witness_count(), 1);
        assert!(lineage.entails(&db.all_facts()));
    }

    #[test]
    fn over_cap_refresh_reports_false_and_leaves_the_lineage_unchanged() {
        let mut db = blocks_db();
        let evaluator = QueryEvaluator::new(parse_query(db.schema(), "Ans() :- R(1, x)").unwrap());
        let mut lineage = CompiledLineage::compile_with_cap(&evaluator, &db, &[], 3)
            .unwrap()
            .unwrap();
        let before = lineage.clone();
        for v in 10..14 {
            db.insert_values("R", [Value::int(1), Value::int(v)])
                .unwrap();
        }
        assert!(!lineage.refresh_with_cap(&evaluator, &db, &[], 3).unwrap());
        assert_eq!(
            lineage, before,
            "failed refresh must not corrupt the lineage"
        );
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let db = blocks_db();
        let evaluator = QueryEvaluator::new(parse_query(db.schema(), "Ans(x) :- R(1, x)").unwrap());
        assert!(CompiledLineage::compile(&evaluator, &db, &[]).is_err());
    }
}
