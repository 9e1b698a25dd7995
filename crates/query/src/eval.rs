//! Homomorphism-based evaluation of conjunctive queries.
//!
//! The evaluator compiles the query once at construction: variables are
//! interned into dense *slots*, every atom's terms are resolved to either
//! a constant or a slot index, and two [`JoinPlan`]s are built — one for
//! free enumeration and one with the answer slots treated as prebound
//! (the candidate-driven paths: `has_answer` and the lineage bank).  Evaluation
//! executes the plan on **dictionary-encoded symbols**: at each entry
//! point the query's constants are resolved through the database's
//! [`Dictionary`] (a constant the dictionary never
//! saw provably matches nothing, so the run short-circuits), atoms join
//! in selectivity order, each step an indexed lookup against the
//! database's [`RelationIndex`](ucqa_db::RelationIndex) (or a filtered
//! scan when nothing is bound), binding symbols by slot into a flat
//! `Vec<Option<Sym>>` — every comparison a `u32` compare, no
//! `Variable`/`Value` clones on the search path.  Named [`Bindings`] are
//! only decoded back to [`Value`]s when a full homomorphism is reported.
//!
//! The pre-plan behaviour — body order, whole-relation scans — survives as
//! the `*_unplanned` methods ([`QueryEvaluator::homomorphisms_unplanned`],
//! [`QueryEvaluator::entails_unplanned`],
//! [`QueryEvaluator::has_answer_unplanned`]): the independent reference
//! the tests compare the planned paths against.

use std::collections::{BTreeMap, BTreeSet};

use ucqa_db::{Database, Dictionary, FactId, FactSet, Sym, Value};

use crate::plan::{
    match_and_bind, unbind, JoinPlan, Membership, PlanAtom, PlanTerm, SymAtom, SymTerm,
};
use crate::{ConjunctiveQuery, QueryError, Term, Variable};

/// A variable assignment produced by a homomorphism from a query into a
/// database.
pub type Bindings = BTreeMap<Variable, Value>;

/// A single homomorphism `h` from a query `Q` into (a subset of) a database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Homomorphism {
    /// The variable bindings of `h`.
    pub bindings: Bindings,
    /// The image `h(Q)`: the facts hit by the atoms of `Q`, as ids into the
    /// underlying database (deduplicated, sorted).
    pub image: Vec<FactId>,
}

impl Homomorphism {
    /// Applies the homomorphism to the answer variables, producing the
    /// answer tuple `h(x̄)`.
    pub fn answer_tuple(&self, query: &ConjunctiveQuery) -> Vec<Value> {
        query
            .answer_vars()
            .iter()
            .map(|v| {
                self.bindings
                    .get(v)
                    // Invariant, not user-reachable: safety of answer
                    // variables is checked at query construction.
                    .expect("answer variables are safe, so every homomorphism binds them")
                    .clone()
            })
            .collect()
    }
}

/// Evaluates conjunctive queries over sub-databases via a planned,
/// index-backed join.
///
/// The evaluator is constructed once per query and can then be applied to
/// many subsets `D' ⊆ D` (the typical usage pattern of the samplers:
/// evaluate the same query on thousands of sampled repairs).
#[derive(Debug, Clone)]
pub struct QueryEvaluator {
    query: ConjunctiveQuery,
    /// Slot index → variable, in first-occurrence order.
    slots: Vec<Variable>,
    /// Atoms with terms resolved to slots, in body order.
    atoms: Vec<PlanAtom>,
    /// Answer variable positions resolved to slots.
    answer_slots: Vec<usize>,
    /// Join plan for free enumeration (no slots prebound).
    plan: JoinPlan,
    /// Join plan with the answer slots treated as prebound (the
    /// candidate-driven paths: `has_answer`, the lineage bank).
    answer_plan: JoinPlan,
}

impl QueryEvaluator {
    /// Creates an evaluator for `query`, interning its variables into
    /// dense slots and planning the join order.
    ///
    /// # Panics
    ///
    /// Panics if the query is outside the supported fragment (an atom
    /// with more than 64 terms); use [`QueryEvaluator::try_new`] for a
    /// typed error instead.
    pub fn new(query: ConjunctiveQuery) -> Self {
        match Self::try_new(query) {
            Ok(eval) => eval,
            Err(e) => panic!("{e}"),
        }
    }

    /// As [`QueryEvaluator::new`], returning
    /// [`QueryError::Unsupported`] instead of panicking when the query
    /// is outside the supported fragment.
    pub fn try_new(query: ConjunctiveQuery) -> Result<Self, QueryError> {
        Self::build(query, None)
    }

    /// As [`QueryEvaluator::try_new`], but plans with the full cost model
    /// over `db`'s live relation-index statistics
    /// ([`JoinPlan::build_costed`]): each step is chosen to minimise the
    /// estimated output cardinality, instead of bound coverage with
    /// body-order ties.
    ///
    /// Statistics describe `db` specifically, so use the resulting
    /// evaluator against that database (family).  The default constructor
    /// stays purely structural — its stable tie-break is the
    /// coverage-greedy baseline, and what the bank trie's prefix sharing
    /// relies on.  Witness sets, fallback flags, and same-seed estimates
    /// are identical either way; only enumeration speed differs.
    pub fn with_stats(query: ConjunctiveQuery, db: &Database) -> Result<Self, QueryError> {
        Self::build(query, Some(db))
    }

    fn build(query: ConjunctiveQuery, stats_db: Option<&Database>) -> Result<Self, QueryError> {
        let mut slots: Vec<Variable> = Vec::new();
        let slot_of = |slots: &mut Vec<Variable>, var: &Variable| -> usize {
            match slots.iter().position(|v| v == var) {
                Some(i) => i,
                None => {
                    slots.push(var.clone());
                    slots.len() - 1
                }
            }
        };
        let mut atoms: Vec<PlanAtom> = Vec::with_capacity(query.atoms().len());
        for atom in query.atoms() {
            // The search's backtrack bookkeeping records the term
            // positions bound per frame in a u64 bitmask.
            if atom.terms().len() > 64 {
                return Err(QueryError::Unsupported {
                    message: "atoms with more than 64 terms are not supported".into(),
                });
            }
            atoms.push(PlanAtom {
                relation: atom.relation(),
                terms: atom
                    .terms()
                    .iter()
                    .map(|term| match term {
                        Term::Const(c) => PlanTerm::Const(c.clone()),
                        Term::Var(v) => PlanTerm::Var(slot_of(&mut slots, v)),
                    })
                    .collect(),
            });
        }
        let answer_slots: Vec<usize> = query
            .answer_vars()
            .iter()
            .map(|v| {
                slots
                    .iter()
                    .position(|s| s == v)
                    // Invariant, not user-reachable: `ConjunctiveQuery::new`
                    // rejects unsafe answer variables at construction.
                    .expect("answer variables are safe, so they occur in the body")
            })
            .collect();
        let (plan, answer_plan) = match stats_db {
            Some(db) => {
                let index = db.relation_index();
                let dict = db.dictionary();
                (
                    JoinPlan::build_costed(&atoms, slots.len(), &[], index, dict),
                    JoinPlan::build_costed(&atoms, slots.len(), &answer_slots, index, dict),
                )
            }
            None => (
                JoinPlan::build(&atoms, slots.len(), &[]),
                JoinPlan::build(&atoms, slots.len(), &answer_slots),
            ),
        };
        Ok(QueryEvaluator {
            query,
            slots,
            atoms,
            answer_slots,
            plan,
            answer_plan,
        })
    }

    /// The underlying query.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The join plan of free enumeration (nothing prebound).
    pub fn plan(&self) -> &JoinPlan {
        &self.plan
    }

    /// The join plan of candidate-driven enumeration (answer slots treated
    /// as prebound) — the order the bank's shared scan trie and its delta
    /// refresh enumerate witnesses in.
    pub fn answer_plan(&self) -> &JoinPlan {
        &self.answer_plan
    }

    /// Dictionary-encodes the query body against `db`.  `None` means some
    /// query constant was never interned, so no atom — and hence the whole
    /// query — matches anything in `db`.
    fn encode_atoms(&self, db: &Database) -> Option<Vec<SymAtom>> {
        SymAtom::encode_all(&self.atoms, db.dictionary())
    }

    /// Enumerates all homomorphisms from the query into the sub-database
    /// `subset ⊆ db`.
    ///
    /// If `max` is `Some(n)`, enumeration stops after `n` homomorphisms.
    pub fn homomorphisms(
        &self,
        db: &Database,
        subset: &FactSet,
        max: Option<usize>,
    ) -> Vec<Homomorphism> {
        let mut results = Vec::new();
        let Some(encoded) = self.encode_atoms(db) else {
            return results;
        };
        let dict = db.dictionary();
        let mut bindings: Vec<Option<Sym>> = vec![None; self.slots.len()];
        let mut image = Vec::new();
        self.plan.run(
            db,
            db.relation_index(),
            subset,
            &encoded,
            &mut bindings,
            &mut image,
            &mut |bindings, image| {
                results.push(self.materialize(dict, bindings, image));
                max.is_some_and(|limit| results.len() >= limit)
            },
        );
        results
    }

    /// Returns `true` iff at least one homomorphism exists, i.e. `D' ⊨ Q`
    /// for Boolean queries (and "Q has some answer" otherwise).
    pub fn entails(&self, db: &Database, subset: &FactSet) -> bool {
        let Some(encoded) = self.encode_atoms(db) else {
            return false;
        };
        let mut bindings: Vec<Option<Sym>> = vec![None; self.slots.len()];
        let mut image = Vec::new();
        self.plan.run(
            db,
            db.relation_index(),
            subset,
            &encoded,
            &mut bindings,
            &mut image,
            &mut |_, _| true,
        )
    }

    /// The set of answers `Q(D')`.
    pub fn answers(&self, db: &Database, subset: &FactSet) -> BTreeSet<Vec<Value>> {
        let mut answers = BTreeSet::new();
        let Some(encoded) = self.encode_atoms(db) else {
            return answers;
        };
        let dict = db.dictionary();
        let mut bindings: Vec<Option<Sym>> = vec![None; self.slots.len()];
        let mut image = Vec::new();
        self.plan.run(
            db,
            db.relation_index(),
            subset,
            &encoded,
            &mut bindings,
            &mut image,
            &mut |bindings, _| {
                answers.insert(
                    self.answer_slots
                        .iter()
                        .map(|&slot| {
                            let sym = bindings[slot]
                                // Invariant, not user-reachable: the plan
                                // binds every slot before reaching a leaf.
                                .expect("answer slots are bound at every leaf");
                            dict.decode(sym).clone()
                        })
                        .collect(),
                );
                false
            },
        );
        answers
    }

    /// Returns `true` iff the tuple `candidate` is an answer to the query
    /// over `D'`, i.e. `candidate ∈ Q(D')`.
    ///
    /// `subset` is read one fact at a time through [`Membership`], so it
    /// may be a [`FactSet`] or a sampler that decides each fact only when
    /// the search reaches it.
    pub fn has_answer<M: Membership + ?Sized>(
        &self,
        db: &Database,
        subset: &M,
        candidate: &[Value],
    ) -> Result<bool, QueryError> {
        let mut bindings: Vec<Option<Sym>> = vec![None; self.slots.len()];
        if !self.prebind_candidate(db.dictionary(), candidate, &mut bindings)? {
            return Ok(false);
        }
        let Some(encoded) = self.encode_atoms(db) else {
            return Ok(false);
        };
        let mut image = Vec::new();
        Ok(self.answer_plan.run(
            db,
            db.relation_index(),
            subset,
            &encoded,
            &mut bindings,
            &mut image,
            &mut |_, _| true,
        ))
    }

    /// Visits the image `h(Q)` of every homomorphism `h` with
    /// `h(x̄) = candidate` that touches at least one fact of
    /// `inserted_by_relation` (one ascending fact-id list per relation
    /// id), without materialising bindings — the delta enumeration
    /// backend of [`crate::LineageBank::refresh`].  The visitor returns
    /// `true` to stop enumeration early; the overall return value is
    /// `true` iff enumeration was stopped.  Images arrive unsorted and may
    /// contain duplicate fact ids (facts hit by several atoms).
    ///
    /// Runs one pinned pass of the answer plan per plan step (step `p`
    /// draws its candidates from the inserted facts of its relation, all
    /// other steps keep their indexed access paths, and the pinned atom is
    /// still fully re-validated); images touching several inserted facts
    /// are visited once per touched step, so callers must deduplicate.
    /// Candidate prebinding and atom encoding run against the *current*
    /// dictionary, so a candidate or constant first interned by the
    /// inserted facts grounds here even though it could not at compile
    /// time.
    pub fn for_each_delta_answer_image<F>(
        &self,
        db: &Database,
        subset: &FactSet,
        candidate: &[Value],
        inserted_by_relation: &[Vec<FactId>],
        mut visitor: F,
    ) -> Result<bool, QueryError>
    where
        F: FnMut(&[FactId]) -> bool,
    {
        let mut bindings: Vec<Option<Sym>> = vec![None; self.slots.len()];
        if !self.prebind_candidate(db.dictionary(), candidate, &mut bindings)? {
            return Ok(false);
        }
        let Some(encoded) = self.encode_atoms(db) else {
            return Ok(false);
        };
        let mut image = Vec::new();
        Ok(self.answer_plan.run_delta(
            db,
            db.relation_index(),
            subset,
            &encoded,
            inserted_by_relation,
            &mut bindings,
            &mut image,
            &mut |_, image| visitor(image),
        ))
    }

    /// As [`QueryEvaluator::homomorphisms`], on the unplanned baseline
    /// (body-order backtracking, whole-relation scans).
    pub fn homomorphisms_unplanned(
        &self,
        db: &Database,
        subset: &FactSet,
        max: Option<usize>,
    ) -> Vec<Homomorphism> {
        let mut results = Vec::new();
        let Some(encoded) = self.encode_atoms(db) else {
            return results;
        };
        let dict = db.dictionary();
        let mut bindings: Vec<Option<Sym>> = vec![None; self.slots.len()];
        let mut image = Vec::new();
        self.search(
            db,
            &encoded,
            subset,
            0,
            &mut bindings,
            &mut image,
            &mut |bindings, image| {
                results.push(self.materialize(dict, bindings, image));
                max.is_some_and(|limit| results.len() >= limit)
            },
        );
        results
    }

    /// As [`QueryEvaluator::entails`], on the unplanned baseline.
    pub fn entails_unplanned(&self, db: &Database, subset: &FactSet) -> bool {
        let Some(encoded) = self.encode_atoms(db) else {
            return false;
        };
        let mut bindings: Vec<Option<Sym>> = vec![None; self.slots.len()];
        let mut image = Vec::new();
        self.search(
            db,
            &encoded,
            subset,
            0,
            &mut bindings,
            &mut image,
            &mut |_, _| true,
        )
    }

    /// As [`QueryEvaluator::has_answer`], on the unplanned baseline.
    pub fn has_answer_unplanned(
        &self,
        db: &Database,
        subset: &FactSet,
        candidate: &[Value],
    ) -> Result<bool, QueryError> {
        let mut bindings: Vec<Option<Sym>> = vec![None; self.slots.len()];
        if !self.prebind_candidate(db.dictionary(), candidate, &mut bindings)? {
            return Ok(false);
        }
        let Some(encoded) = self.encode_atoms(db) else {
            return Ok(false);
        };
        let mut image = Vec::new();
        Ok(self.search(
            db,
            &encoded,
            subset,
            0,
            &mut bindings,
            &mut image,
            &mut |_, _| true,
        ))
    }

    /// The grounded, plan-ordered, dictionary-encoded atoms of a
    /// candidate-driven enumeration: the atoms in
    /// [`QueryEvaluator::answer_plan`] order, with answer slots
    /// substituted by the candidate constants (as symbols) and the
    /// remaining variables renumbered by first occurrence along that
    /// order.
    ///
    /// Two bank entries with equal grounded atom prefixes enumerate the
    /// same partial joins, which is what the shared scan trie of
    /// [`crate::LineageBank::compile`] factors out — and symbol-encoded
    /// atoms make that prefix comparison a `u32` compare.  Returns
    /// `Ok(None)` when the candidate provably has no homomorphisms at
    /// all: a repeated answer variable receives two different candidate
    /// values, or a candidate/query constant was never interned by
    /// `dict` (it then occurs in no fact).
    pub(crate) fn grounded_answer_atoms(
        &self,
        dict: &Dictionary,
        candidate: &[Value],
    ) -> Result<Option<Vec<SymAtom>>, QueryError> {
        if candidate.len() != self.answer_slots.len() {
            return Err(QueryError::AnswerArityMismatch {
                expected: self.answer_slots.len(),
                actual: candidate.len(),
            });
        }
        let mut slot_value: Vec<Option<&Value>> = vec![None; self.slots.len()];
        for (&slot, value) in self.answer_slots.iter().zip(candidate) {
            match slot_value[slot] {
                Some(existing) if existing != value => return Ok(None),
                _ => slot_value[slot] = Some(value),
            }
        }
        let mut renumbered: Vec<Option<usize>> = vec![None; self.slots.len()];
        let mut next = 0usize;
        let mut grounded = Vec::with_capacity(self.atoms.len());
        for atom in self.answer_plan.atom_order() {
            let mut terms = Vec::with_capacity(self.atoms[atom].terms.len());
            for term in &self.atoms[atom].terms {
                let encoded = match term {
                    PlanTerm::Const(c) => match dict.lookup(c) {
                        Some(sym) => SymTerm::Const(sym),
                        None => return Ok(None),
                    },
                    PlanTerm::Var(slot) => match slot_value[*slot] {
                        Some(value) => match dict.lookup(value) {
                            Some(sym) => SymTerm::Const(sym),
                            None => return Ok(None),
                        },
                        None => {
                            let id = *renumbered[*slot].get_or_insert_with(|| {
                                let id = next;
                                next += 1;
                                id
                            });
                            SymTerm::Var(id)
                        }
                    },
                };
                terms.push(encoded);
            }
            grounded.push(SymAtom {
                relation: self.atoms[atom].relation,
                terms,
            });
        }
        Ok(Some(grounded))
    }

    /// Binds the answer slots to the candidate values (encoded through
    /// `dict`), returning `Ok(false)` if a repeated answer variable
    /// receives two different values or a candidate value was never
    /// interned (it then matches nothing).
    fn prebind_candidate(
        &self,
        dict: &Dictionary,
        candidate: &[Value],
        bindings: &mut [Option<Sym>],
    ) -> Result<bool, QueryError> {
        if candidate.len() != self.answer_slots.len() {
            return Err(QueryError::AnswerArityMismatch {
                expected: self.answer_slots.len(),
                actual: candidate.len(),
            });
        }
        for (&slot, value) in self.answer_slots.iter().zip(candidate) {
            let Some(sym) = dict.lookup(value) else {
                return Ok(false);
            };
            match bindings[slot] {
                Some(existing) if existing != sym => return Ok(false),
                _ => bindings[slot] = Some(sym),
            }
        }
        Ok(true)
    }

    /// Builds a caller-facing [`Homomorphism`] from slot bindings and a raw
    /// image (leaf-time only — never on the backtracking path).  This is
    /// the decode boundary: symbols become [`Value`]s here.
    fn materialize(
        &self,
        dict: &Dictionary,
        bindings: &[Option<Sym>],
        image: &[FactId],
    ) -> Homomorphism {
        let named: Bindings = self
            .slots
            .iter()
            .zip(bindings)
            .filter_map(|(var, sym)| sym.map(|s| (var.clone(), dict.decode(s).clone())))
            .collect();
        let mut image = image.to_vec();
        image.sort();
        image.dedup();
        Homomorphism {
            bindings: named,
            image,
        }
    }

    /// The unplanned backtracking join (body order, whole-relation scans).
    /// `sink` is invoked at every leaf with the current slot bindings and
    /// the (unsorted, possibly duplicated) image; it returns `true` to
    /// stop the search.  The overall return value is `true` iff the search
    /// was stopped by the sink.
    #[allow(clippy::too_many_arguments)]
    fn search<F>(
        &self,
        db: &Database,
        encoded: &[SymAtom],
        subset: &FactSet,
        atom_index: usize,
        bindings: &mut Vec<Option<Sym>>,
        image: &mut Vec<FactId>,
        sink: &mut F,
    ) -> bool
    where
        F: FnMut(&[Option<Sym>], &[FactId]) -> bool,
    {
        if atom_index == encoded.len() {
            return sink(bindings, image);
        }
        let atom = &encoded[atom_index];
        let columns = db.columns_of(atom.relation);
        for fact_id in db.facts_of(atom.relation) {
            if !subset.contains(fact_id) {
                continue;
            }
            // Unify the atom's terms with the fact's symbols; the same
            // match-and-bind kernel backs the planned executor and the
            // bank's scan trie, so the baselines cannot drift.
            let Some(bound_here) =
                match_and_bind(&atom.terms, columns, db.row_of(fact_id), bindings)
            else {
                continue;
            };
            image.push(fact_id);
            let stop = self.search(db, encoded, subset, atom_index + 1, bindings, image, sink);
            image.pop();
            unbind(&atom.terms, bound_here, bindings);
            if stop {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use ucqa_db::Schema;

    /// A small graph encoded as a database, following the B.1 reduction
    /// layout: V(node, colour), E(src, dst), T(flag).
    fn graph_db() -> Database {
        let mut schema = Schema::new();
        schema.add_relation("V", &["N", "C"]).unwrap();
        schema.add_relation("E", &["S", "T"]).unwrap();
        schema.add_relation("T", &["X"]).unwrap();
        let mut db = Database::with_schema(schema);
        for node in ["u", "v", "w"] {
            db.insert_values("V", [Value::str(node), Value::int(0)])
                .unwrap();
            db.insert_values("V", [Value::str(node), Value::int(1)])
                .unwrap();
        }
        db.insert_values("E", [Value::str("u"), Value::str("v")])
            .unwrap();
        db.insert_values("E", [Value::str("v"), Value::str("w")])
            .unwrap();
        db.insert_values("T", [Value::int(1)]).unwrap();
        db
    }

    #[test]
    fn boolean_entailment() {
        let db = graph_db();
        let q = parse_query(db.schema(), "Ans() :- E(x, y), V(x, z), V(y, z), T(z)").unwrap();
        let eval = QueryEvaluator::new(q);
        // Full database contains V(u,1), V(v,1), E(u,v), T(1) → entailed.
        assert!(eval.entails(&db, &db.all_facts()));
        // Remove all colour-1 facts for u: V(u,1) is fact id 1.
        let mut subset = db.all_facts();
        subset.remove(FactId::new(1));
        subset.remove(FactId::new(3)); // V(v,1)
        assert!(!eval.entails(&db, &subset));
    }

    #[test]
    fn answers_and_has_answer() {
        let db = graph_db();
        let q = parse_query(db.schema(), "Ans(x, y) :- E(x, y)").unwrap();
        let eval = QueryEvaluator::new(q);
        let answers = eval.answers(&db, &db.all_facts());
        assert_eq!(answers.len(), 2);
        assert!(answers.contains(&vec![Value::str("u"), Value::str("v")]));
        assert!(eval
            .has_answer(&db, &db.all_facts(), &[Value::str("v"), Value::str("w")])
            .unwrap());
        assert!(!eval
            .has_answer(&db, &db.all_facts(), &[Value::str("w"), Value::str("u")])
            .unwrap());
        assert!(eval
            .has_answer(&db, &db.all_facts(), &[Value::str("v")])
            .is_err());
    }

    #[test]
    fn unknown_constants_match_nothing_without_interning() {
        let db = graph_db();
        // "zzz" was never inserted: the planned and unplanned paths, the
        // candidate paths, and answers all agree on "no match", and the
        // probe must not grow the dictionary.
        let q = parse_query(db.schema(), "Ans() :- V('zzz', x)").unwrap();
        let eval = QueryEvaluator::new(q);
        assert!(!eval.entails(&db, &db.all_facts()));
        assert!(!eval.entails_unplanned(&db, &db.all_facts()));
        assert!(eval.homomorphisms(&db, &db.all_facts(), None).is_empty());
        let q = parse_query(db.schema(), "Ans(x) :- E(x, y)").unwrap();
        let eval = QueryEvaluator::new(q);
        assert!(!eval
            .has_answer(&db, &db.all_facts(), &[Value::str("zzz")])
            .unwrap());
        assert!(db.dictionary().lookup(&Value::str("zzz")).is_none());
        // Arity errors still take precedence over unknown constants.
        assert!(eval
            .has_answer(&db, &db.all_facts(), &[Value::str("zzz"), Value::str("q")])
            .is_err());
    }

    #[test]
    fn homomorphism_images_contain_hit_facts() {
        let db = graph_db();
        let q = parse_query(db.schema(), "Ans() :- V(x, 1), T(1)").unwrap();
        let eval = QueryEvaluator::new(q);
        let homs = eval.homomorphisms(&db, &db.all_facts(), None);
        // One homomorphism per node (x ∈ {u, v, w}).
        assert_eq!(homs.len(), 3);
        for h in &homs {
            assert_eq!(h.image.len(), 2); // a V fact plus the T fact
        }
    }

    #[test]
    fn constants_in_atoms_filter_matches() {
        let db = graph_db();
        let q = parse_query(db.schema(), "Ans(x) :- V(x, 0)").unwrap();
        let eval = QueryEvaluator::new(q);
        assert_eq!(eval.answers(&db, &db.all_facts()).len(), 3);
        let q = parse_query(db.schema(), "Ans(x) :- V('u', x)").unwrap();
        let eval = QueryEvaluator::new(q);
        let answers = eval.answers(&db, &db.all_facts());
        assert_eq!(answers.len(), 2);
        assert!(answers.contains(&vec![Value::int(0)]));
    }

    #[test]
    fn repeated_variables_enforce_equality() {
        let db = graph_db();
        // E(x, x) has no match in this graph (no self loops).
        let q = parse_query(db.schema(), "Ans() :- E(x, x)").unwrap();
        let eval = QueryEvaluator::new(q);
        assert!(!eval.entails(&db, &db.all_facts()));
    }

    #[test]
    fn empty_subset_entails_nothing() {
        let db = graph_db();
        let q = parse_query(db.schema(), "Ans() :- T(1)").unwrap();
        let eval = QueryEvaluator::new(q);
        assert!(!eval.entails(&db, &FactSet::empty(db.len())));
    }

    #[test]
    fn limited_enumeration_stops_early() {
        let db = graph_db();
        let q = parse_query(db.schema(), "Ans(x) :- V(x, y)").unwrap();
        let eval = QueryEvaluator::new(q);
        assert_eq!(eval.homomorphisms(&db, &db.all_facts(), Some(2)).len(), 2);
        assert_eq!(eval.homomorphisms(&db, &db.all_facts(), None).len(), 6);
    }

    #[test]
    fn repeated_answer_variables_require_equal_candidate_values() {
        let db = graph_db();
        let q = ConjunctiveQuery::new(
            db.schema(),
            vec![Variable::new("x"), Variable::new("x")],
            vec![crate::Atom::new(
                db.schema().relation_id("E").unwrap(),
                vec![Term::var("x"), Term::var("y")],
            )],
        )
        .unwrap();
        let eval = QueryEvaluator::new(q);
        assert!(!eval
            .has_answer(&db, &db.all_facts(), &[Value::str("u"), Value::str("v")])
            .unwrap());
        assert!(eval
            .has_answer(&db, &db.all_facts(), &[Value::str("u"), Value::str("u")])
            .unwrap());
        // Grounding mirrors the prebind rules: a conflicting candidate has
        // no grounded atoms at all.
        let dict = db.dictionary();
        assert!(eval
            .grounded_answer_atoms(dict, &[Value::str("u"), Value::str("v")])
            .unwrap()
            .is_none());
        assert!(eval
            .grounded_answer_atoms(dict, &[Value::str("u"), Value::str("u")])
            .unwrap()
            .is_some());
        assert!(eval
            .grounded_answer_atoms(dict, &[Value::str("u")])
            .is_err());
        // A never-interned candidate also grounds to nothing.
        assert!(eval
            .grounded_answer_atoms(dict, &[Value::str("zz"), Value::str("zz")])
            .unwrap()
            .is_none());
    }

    #[test]
    fn planned_evaluation_agrees_with_the_unplanned_baseline() {
        let db = graph_db();
        let texts = [
            "Ans() :- E(x, y), V(x, z), V(y, z), T(z)",
            "Ans(x) :- V(x, z), T(z)",
            "Ans(x, y) :- E(x, y), V(y, 1)",
            "Ans() :- V(x, 9)",
        ];
        for text in texts {
            let eval = QueryEvaluator::new(parse_query(db.schema(), text).unwrap());
            for mask in 0u32..(1 << db.len().min(11)) {
                let subset = FactSet::from_iter(
                    db.len(),
                    (0..db.len())
                        .filter(|i| (mask >> i) & 1 == 1)
                        .map(FactId::new),
                );
                assert_eq!(
                    eval.entails(&db, &subset),
                    eval.entails_unplanned(&db, &subset),
                    "{text}, mask {mask:b}"
                );
                let mut planned: Vec<Homomorphism> = eval.homomorphisms(&db, &subset, None);
                let mut unplanned = eval.homomorphisms_unplanned(&db, &subset, None);
                planned.sort_by(|a, b| a.bindings.cmp(&b.bindings));
                unplanned.sort_by(|a, b| a.bindings.cmp(&b.bindings));
                assert_eq!(planned, unplanned, "{text}, mask {mask:b}");
            }
        }
    }

    #[test]
    fn oversized_atoms_are_a_typed_error() {
        let mut schema = Schema::new();
        let attrs: Vec<String> = (0..65).map(|i| format!("A{i}")).collect();
        let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        schema.add_relation("W", &attr_refs).unwrap();
        let relation = schema.relation_id("W").unwrap();
        let terms: Vec<Term> = (0..65).map(|i| Term::var(format!("x{i}"))).collect();
        let query = ConjunctiveQuery::new(&schema, vec![], vec![crate::Atom::new(relation, terms)])
            .unwrap();
        let err = QueryEvaluator::try_new(query).unwrap_err();
        assert!(matches!(err, QueryError::Unsupported { .. }));
        assert!(err.to_string().contains("64"));
    }

    #[test]
    fn grounded_answer_atoms_substitute_candidates_and_renumber() {
        let db = graph_db();
        let q = parse_query(db.schema(), "Ans(x) :- V(x, z), T(z)").unwrap();
        let eval = QueryEvaluator::new(q);
        let dict = db.dictionary();
        let grounded = eval
            .grounded_answer_atoms(dict, &[Value::str("u")])
            .unwrap()
            .unwrap();
        assert_eq!(grounded.len(), 2);
        // The answer slot is substituted by the constant's symbol; z is
        // renumbered to slot 0 in first-occurrence order along the plan.
        let v = db.schema().relation_id("V").unwrap();
        let u_sym = dict.lookup(&Value::str("u")).unwrap();
        let first = grounded
            .iter()
            .find(|atom| atom.relation == v)
            .expect("the V atom survives grounding");
        assert_eq!(first.terms[0], SymTerm::Const(u_sym));
        assert_eq!(first.terms[1], SymTerm::Var(0));
        // Identical queries with identical candidates ground identically
        // (the trie-sharing invariant).
        let q2 = parse_query(db.schema(), "Ans(a) :- V(a, b), T(b)").unwrap();
        let eval2 = QueryEvaluator::new(q2);
        assert_eq!(
            eval2
                .grounded_answer_atoms(dict, &[Value::str("u")])
                .unwrap(),
            Some(grounded)
        );
    }
}
