//! Selectivity-ordered join plans for witness enumeration.
//!
//! The slot-compiled backtracking evaluator of [`crate::eval`] joins the
//! query atoms **in the order they were written**, scanning the whole
//! relation at every step.  That is fine for entailment checks on sampled
//! repairs (the compiled-lineage bitsets took that job over in PR 1), but
//! witness *enumeration* — the compile step behind every
//! [`crate::LineageBank`] entry — still ran one naive pass per
//! `(query, candidate)`.  This module turns enumeration
//! into a plan-based pipeline:
//!
//! * **Atom order** is chosen greedily.  The structural planner
//!   ([`JoinPlan::build`]) picks the atom with the most bound terms
//!   (constants plus variables bound by earlier steps, plus prebound
//!   answer slots), ties broken by the original body order; the
//!   cost-based planner ([`JoinPlan::build_costed`], the default whenever
//!   a database is in scope) instead minimises an estimated output
//!   cardinality per step, computed from live [`RelationIndex`]
//!   statistics: the shortest constant-bound posting run, divided by the
//!   distinct counts of variable-bound positions, falling back to the
//!   relation cardinality for pure scans.  Bound-late atoms become indexed
//!   lookups instead of cross products, and [`JoinPlan::explain`] reports
//!   the chosen order with per-step estimates.
//! * **Access paths**: execution works on dictionary-encoded [`Sym`]
//!   columns end-to-end.  A step with at least one bound position probes
//!   the [`RelationIndex`] posting runs (dense `u32`-indexed CSR slices)
//!   and walks the *shortest*; when several bound runs are long, the two
//!   shortest are first intersected with a galloping merge
//!   ([`ucqa_db::intersect_postings`]).  A step with no bound position
//!   falls back to a filtered scan of the relation.
//! * **No per-step allocation**: the executor recurses over borrowed
//!   posting slices with the caller-owned slot bindings and image buffers
//!   of the evaluator; nothing is heap-allocated per step (the galloping
//!   path amortises one scratch buffer over its candidate threshold).
//!
//! The planner is purely structural (it only needs the query), so a
//! [`JoinPlan`] is built once per [`crate::QueryEvaluator`] and reused for
//! every database subset; the query's [`Value`] constants are encoded to
//! symbols once per evaluator entry point (a constant the dictionary has
//! never seen matches nothing, so encoding can short-circuit the whole
//! run).  [`LineageBank::compile`](crate::LineageBank) goes one step
//! further and factors the *shared prefixes* of many planned queries into
//! one scan trie — see [`crate::bank`].

use ucqa_db::{
    intersect_postings, Database, Dictionary, FactId, FactSet, RelationId, RelationIndex, Sym,
    Value,
};

/// The sub-database a plan runs against, read one fact at a time: the
/// seam between the executor and what decides membership.  A [`FactSet`]
/// answers from its bits; a sampler can instead decide each fact of a
/// random repair only when the executor reaches it, so that no repair is
/// ever materialised.  A fact outside the sub-database, a deleted one
/// included, must read as absent.
pub trait Membership {
    /// Whether `fact` belongs to the sub-database.
    fn contains(&self, fact: FactId) -> bool;
}

impl Membership for FactSet {
    #[inline]
    fn contains(&self, fact: FactId) -> bool {
        FactSet::contains(self, fact)
    }
}

/// An atom term resolved against the evaluator's interned variable slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanTerm {
    /// A constant that the fact value must equal.
    Const(Value),
    /// A variable, identified by its slot index.
    Var(usize),
}

/// An atom with terms resolved to slots — the planner's unit of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanAtom {
    /// The atom's relation.
    pub relation: RelationId,
    /// The atom's terms, in positional order.
    pub terms: Vec<PlanTerm>,
}

/// A [`PlanTerm`] with its constant dictionary-encoded: the executor's
/// unit of comparison (symbol equality = one `u32` compare).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SymTerm {
    /// A constant symbol the fact's symbol must equal.
    Const(Sym),
    /// A variable, identified by its slot index.
    Var(usize),
}

/// A [`PlanAtom`] with constants encoded to symbols — what the executor
/// matches and what the bank's scan trie keys its nodes on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SymAtom {
    /// The atom's relation.
    pub relation: RelationId,
    /// The atom's encoded terms, in positional order.
    pub terms: Vec<SymTerm>,
}

impl SymAtom {
    /// Encodes `atom` against `dict` without interning.  `None` means some
    /// constant was never interned — the atom (and hence the whole query)
    /// matches no fact of any database over `dict`.
    pub fn encode(atom: &PlanAtom, dict: &Dictionary) -> Option<SymAtom> {
        let terms = atom
            .terms
            .iter()
            .map(|term| match term {
                PlanTerm::Const(value) => dict.lookup(value).map(SymTerm::Const),
                PlanTerm::Var(slot) => Some(SymTerm::Var(*slot)),
            })
            .collect::<Option<Vec<SymTerm>>>()?;
        Some(SymAtom {
            relation: atom.relation,
            terms,
        })
    }

    /// Encodes a whole body; `None` if any atom has an unknown constant.
    pub fn encode_all(atoms: &[PlanAtom], dict: &Dictionary) -> Option<Vec<SymAtom>> {
        atoms
            .iter()
            .map(|atom| SymAtom::encode(atom, dict))
            .collect()
    }
}

impl PlanAtom {
    /// The term positions that are bound when `bound[slot]` marks the
    /// already-bound variable slots: constants, plus bound variables.
    pub(crate) fn bound_positions(&self, bound: &[bool]) -> Vec<usize> {
        self.terms
            .iter()
            .enumerate()
            .filter(|(_, term)| match term {
                PlanTerm::Const(_) => true,
                PlanTerm::Var(slot) => bound[*slot],
            })
            .map(|(position, _)| position)
            .collect()
    }
}

/// One step of a [`JoinPlan`]: match one atom against the sub-database,
/// extending the current slot bindings.
#[derive(Debug, Clone)]
struct PlanStep {
    /// Index of the atom in the original query body (also the index into
    /// the encoded body the executor runs on).
    atom: usize,
    relation: RelationId,
    /// Term positions guaranteed bound when this step runs (constants and
    /// variables bound by earlier steps / prebinding).  Non-empty ⇒ the
    /// step executes as an indexed lookup.
    bound_positions: Vec<usize>,
    /// The planner's estimated output cardinality for this step at the
    /// time the order was chosen; `None` for purely structural plans
    /// (no statistics were consulted).
    estimate: Option<f64>,
}

/// How [`JoinPlan::build_inner`] orders the atoms.
enum PlanMode<'a> {
    /// Bound coverage only; ties keep the body order.
    Structural,
    /// Minimal [`step_estimate`] per step; ties broken by coverage, then
    /// body order.
    Costed(&'a RelationIndex, &'a Dictionary),
}

/// A selectivity-ordered join plan over the atoms of one query.
///
/// Built once per [`crate::QueryEvaluator`] (one plan for free
/// enumeration, one with the answer slots treated as prebound for
/// candidate-driven enumeration) and executed against any sub-database.
#[derive(Debug, Clone)]
pub struct JoinPlan {
    steps: Vec<PlanStep>,
}

/// Once the shortest posting run of a step exceeds this many candidates
/// (and a second bound run exists), the executor intersects the two
/// shortest runs with a galloping merge before matching, instead of
/// filtering the shortest run one fact at a time.
const GALLOP_THRESHOLD: usize = 64;

impl JoinPlan {
    /// Plans `atoms` greedily by bound coverage.  `slot_count` is the
    /// number of interned variable slots; `prebound_slots` lists the slots
    /// that will be bound before execution starts (the answer slots of a
    /// candidate-driven run, empty for free enumeration).
    ///
    /// Coverage ties go to the earliest body atom — a *stable* choice that
    /// keeps queries sharing a written prefix sharing it after planning
    /// (which is what lets the bank trie factor it).  For a plan ordered
    /// by estimated cardinality see [`JoinPlan::build_costed`].
    pub fn build(atoms: &[PlanAtom], slot_count: usize, prebound_slots: &[usize]) -> Self {
        JoinPlan::build_inner(atoms, slot_count, prebound_slots, PlanMode::Structural)
    }

    /// Plans `atoms` by a real cost model: at each step the planner picks
    /// the atom with the smallest `step_estimate` — the estimated output
    /// cardinality of executing it next, computed from live
    /// [`RelationIndex`] statistics (shortest constant-bound posting run,
    /// divided by the distinct counts of already-bound variable positions,
    /// relation cardinality for pure scans).  Since the intermediate size
    /// after a step is the current size times the step's estimate, the
    /// greedy minimum-estimate choice minimises the estimated *cumulative*
    /// intermediate size one step at a time.  Estimate ties go to the atom
    /// with higher bound coverage, then the body order.
    ///
    /// This is the default plan wherever a database is in scope
    /// ([`crate::QueryEvaluator::with_stats`], and through it every
    /// [`crate::LineageBank`] compile); the
    /// structural [`JoinPlan::build`] order survives as the baseline.
    /// The chosen order never changes *what* is enumerated — witness sets
    /// and fallback decisions are enumeration-order-independent — only how
    /// fast.
    pub fn build_costed(
        atoms: &[PlanAtom],
        slot_count: usize,
        prebound_slots: &[usize],
        index: &RelationIndex,
        dict: &Dictionary,
    ) -> Self {
        JoinPlan::build_inner(
            atoms,
            slot_count,
            prebound_slots,
            PlanMode::Costed(index, dict),
        )
    }

    fn build_inner(
        atoms: &[PlanAtom],
        slot_count: usize,
        prebound_slots: &[usize],
        mode: PlanMode<'_>,
    ) -> Self {
        let mut bound = vec![false; slot_count];
        for &slot in prebound_slots {
            bound[slot] = true;
        }
        let mut remaining: Vec<usize> = (0..atoms.len()).collect();
        let mut steps = Vec::with_capacity(atoms.len());
        while !remaining.is_empty() {
            // Pick the best remaining atom by strict improvement over the
            // incumbent, scanning in body order — so full ties always keep
            // the earliest body atom, with no seeded incumbent that could
            // shadow a strictly better later one.
            let mut best: Option<(usize, usize, f64)> = None;
            for (i, &atom) in remaining.iter().enumerate() {
                let coverage = atoms[atom].bound_positions(&bound).len();
                let cost = match mode {
                    PlanMode::Structural => 0.0,
                    PlanMode::Costed(index, dict) => {
                        step_estimate(&atoms[atom], &bound, index, dict)
                    }
                };
                let improves = match best {
                    None => true,
                    Some((_, best_coverage, best_cost)) => match mode {
                        PlanMode::Structural => coverage > best_coverage,
                        PlanMode::Costed(..) => {
                            cost < best_cost || (cost == best_cost && coverage > best_coverage)
                        }
                    },
                };
                if improves {
                    best = Some((i, coverage, cost));
                }
            }
            // Invariant, not user-reachable: `remaining` is non-empty, so
            // the first iteration always sets `best`.
            let (i, _, cost) = best.expect("non-empty remaining always yields a best atom");
            let atom = remaining.remove(i);
            let bound_positions = atoms[atom].bound_positions(&bound);
            for term in &atoms[atom].terms {
                if let PlanTerm::Var(slot) = term {
                    bound[*slot] = true;
                }
            }
            let estimate = match mode {
                PlanMode::Structural => None,
                PlanMode::Costed(..) => Some(cost),
            };
            steps.push(PlanStep {
                atom,
                relation: atoms[atom].relation,
                bound_positions,
                estimate,
            });
        }
        JoinPlan { steps }
    }

    /// Introspects the plan: one [`StepExplain`] per step, in execution
    /// order, carrying the atom index, the bound positions, the
    /// lookup-vs-scan kind, and the planner's cost estimate (for plans
    /// built with statistics).  The returned report implements
    /// [`std::fmt::Display`] for one-line-per-step printing.
    pub fn explain(&self) -> PlanExplain {
        PlanExplain {
            steps: self
                .steps
                .iter()
                .map(|step| StepExplain {
                    atom: step.atom,
                    relation: step.relation,
                    bound_positions: step.bound_positions.clone(),
                    estimate: step.estimate,
                })
                .collect(),
        }
    }

    /// The planned atom order, as indices into the original query body.
    pub fn atom_order(&self) -> impl Iterator<Item = usize> + '_ {
        self.steps.iter().map(|step| step.atom)
    }

    /// Number of steps that execute as indexed lookups (at least one
    /// statically bound position).  The remaining
    /// `len − indexed_steps` steps are filtered relation scans.
    pub fn indexed_steps(&self) -> usize {
        self.steps
            .iter()
            .filter(|step| !step.bound_positions.is_empty())
            .count()
    }

    /// Number of plan steps (= number of body atoms).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` iff the plan has no steps (empty query body).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Executes the plan against `subset ⊆ db`, invoking `sink` at every
    /// full match with the slot bindings and the (unsorted, possibly
    /// duplicated) image.  The sink returns `true` to stop; the overall
    /// return value is `true` iff the run was stopped.
    ///
    /// `encoded` is the dictionary-encoded query body in **original body
    /// order** (the plan's steps index into it); `bindings` must have one
    /// entry per slot, with prebound slots already filled.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run<M, F>(
        &self,
        db: &Database,
        index: &RelationIndex,
        subset: &M,
        encoded: &[SymAtom],
        bindings: &mut Vec<Option<Sym>>,
        image: &mut Vec<FactId>,
        sink: &mut F,
    ) -> bool
    where
        M: Membership + ?Sized,
        F: FnMut(&[Option<Sym>], &[FactId]) -> bool,
    {
        self.step(db, index, subset, encoded, 0, bindings, image, sink)
    }

    /// As [`JoinPlan::run`], restricted to matches whose image touches at
    /// least one fact of `inserted_by_relation` (one fact-id list per
    /// relation id, each sorted ascending) — the delta passes behind
    /// incremental lineage refresh.
    ///
    /// The plan is executed once per step `p`, with step `p` *pinned*: its
    /// candidate list is replaced by the inserted facts of its relation
    /// while every other step keeps its normal access path.  Every new
    /// match must place an inserted fact at some step, so the union of the
    /// pinned passes covers exactly the new matches; a match placing `k`
    /// inserted facts at `k` distinct steps is emitted once per such step,
    /// and callers absorb the duplicates (the bank's minimal antichain
    /// does so by construction).  Pinning is safe because
    /// [`match_and_bind`] re-validates *all* terms of the pinned atom — an
    /// inserted fact that does not actually match is skipped, never bound.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_delta<F>(
        &self,
        db: &Database,
        index: &RelationIndex,
        subset: &FactSet,
        encoded: &[SymAtom],
        inserted_by_relation: &[Vec<FactId>],
        bindings: &mut Vec<Option<Sym>>,
        image: &mut Vec<FactId>,
        sink: &mut F,
    ) -> bool
    where
        F: FnMut(&[Option<Sym>], &[FactId]) -> bool,
    {
        for pinned in 0..self.steps.len() {
            if inserted_by_relation[self.steps[pinned].relation.index()].is_empty() {
                continue;
            }
            if self.step_delta(
                db,
                index,
                subset,
                encoded,
                0,
                pinned,
                inserted_by_relation,
                bindings,
                image,
                sink,
            ) {
                return true;
            }
        }
        false
    }

    /// One recursion frame of a pinned [`JoinPlan::run_delta`] pass:
    /// identical to [`JoinPlan::step`] except that at `depth == pinned`
    /// the candidate facts are the inserted facts of the step's relation.
    #[allow(clippy::too_many_arguments)]
    fn step_delta<F>(
        &self,
        db: &Database,
        index: &RelationIndex,
        subset: &FactSet,
        encoded: &[SymAtom],
        depth: usize,
        pinned: usize,
        inserted_by_relation: &[Vec<FactId>],
        bindings: &mut Vec<Option<Sym>>,
        image: &mut Vec<FactId>,
        sink: &mut F,
    ) -> bool
    where
        F: FnMut(&[Option<Sym>], &[FactId]) -> bool,
    {
        if depth == self.steps.len() {
            return sink(bindings, image);
        }
        let step = &self.steps[depth];
        let terms = &encoded[step.atom].terms;
        let columns = db.columns_of(step.relation);
        let mut gallop_scratch = Vec::new();
        let candidates = if depth == pinned {
            inserted_by_relation[step.relation.index()].as_slice()
        } else {
            candidate_facts(
                db,
                index,
                step.relation,
                terms,
                &step.bound_positions,
                bindings,
                &mut gallop_scratch,
            )
        };
        for &fact_id in candidates {
            if !subset.contains(fact_id) {
                continue;
            }
            let row = db.row_of(fact_id);
            let Some(bound_here) = match_and_bind(terms, columns, row, bindings) else {
                continue;
            };
            image.push(fact_id);
            let stop = self.step_delta(
                db,
                index,
                subset,
                encoded,
                depth + 1,
                pinned,
                inserted_by_relation,
                bindings,
                image,
                sink,
            );
            image.pop();
            unbind(terms, bound_here, bindings);
            if stop {
                return true;
            }
        }
        false
    }

    #[allow(clippy::too_many_arguments)]
    fn step<M, F>(
        &self,
        db: &Database,
        index: &RelationIndex,
        subset: &M,
        encoded: &[SymAtom],
        depth: usize,
        bindings: &mut Vec<Option<Sym>>,
        image: &mut Vec<FactId>,
        sink: &mut F,
    ) -> bool
    where
        M: Membership + ?Sized,
        F: FnMut(&[Option<Sym>], &[FactId]) -> bool,
    {
        if depth == self.steps.len() {
            return sink(bindings, image);
        }
        let step = &self.steps[depth];
        let terms = &encoded[step.atom].terms;
        let columns = db.columns_of(step.relation);
        let mut gallop_scratch = Vec::new();
        let candidates = candidate_facts(
            db,
            index,
            step.relation,
            terms,
            &step.bound_positions,
            bindings,
            &mut gallop_scratch,
        );
        for &fact_id in candidates {
            if !subset.contains(fact_id) {
                continue;
            }
            let row = db.row_of(fact_id);
            let Some(bound_here) = match_and_bind(terms, columns, row, bindings) else {
                continue;
            };
            image.push(fact_id);
            let stop = self.step(db, index, subset, encoded, depth + 1, bindings, image, sink);
            image.pop();
            unbind(terms, bound_here, bindings);
            if stop {
                return true;
            }
        }
        false
    }
}

/// One step of a [`PlanExplain`] report.
#[derive(Debug, Clone)]
pub struct StepExplain {
    /// Index of the atom in the original query body.
    pub atom: usize,
    /// The relation the step matches against.
    pub relation: RelationId,
    /// Term positions statically bound when the step runs.
    pub bound_positions: Vec<usize>,
    /// The planner's estimated output cardinality for the step; `None`
    /// for structural plans, which consult no statistics.
    pub estimate: Option<f64>,
}

impl StepExplain {
    /// `true` iff the step executes as an indexed lookup (at least one
    /// statically bound position); `false` means a filtered relation scan.
    pub fn is_lookup(&self) -> bool {
        !self.bound_positions.is_empty()
    }
}

/// Introspection report for a [`JoinPlan`], from [`JoinPlan::explain`]:
/// the planned step order with per-step bound positions, access-path kind,
/// and cost estimates.  [`std::fmt::Display`] renders one line per step
/// plus the running (cumulative) estimated intermediate size, so plan
/// regressions show up in plain text diffs.
#[derive(Debug, Clone)]
pub struct PlanExplain {
    steps: Vec<StepExplain>,
}

impl PlanExplain {
    /// The per-step reports, in execution order.
    pub fn steps(&self) -> &[StepExplain] {
        &self.steps
    }
}

impl std::fmt::Display for PlanExplain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut cumulative = 1.0f64;
        for (i, step) in self.steps.iter().enumerate() {
            let kind = if step.is_lookup() {
                format!("lookup{:?}", step.bound_positions)
            } else {
                "scan".to_string()
            };
            write!(
                f,
                "step {i}: atom {} relation {} {kind}",
                step.atom,
                step.relation.index()
            )?;
            match step.estimate {
                Some(estimate) => {
                    cumulative *= estimate.max(1.0);
                    write!(f, " est {estimate:.1} (cumulative {cumulative:.1})")?;
                }
                None => write!(f, " est - (structural)")?,
            }
            if i + 1 < self.steps.len() {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

/// The cost model of [`JoinPlan::build_costed`]: the estimated output
/// cardinality of executing `atom` next, given the currently bound slots.
///
/// * Base: the *shortest* constant-bound posting run
///   ([`RelationIndex::posting_len`]; a never-interned constant is a
///   provable zero), or the relation cardinality when the atom has no
///   constants (a scan).
/// * Each variable-bound position divides the base by its
///   [`RelationIndex::distinct_count`] — the expected shrink factor of
///   matching a run-time symbol at that position.
/// * Unbound variables are free and contribute nothing.
fn step_estimate(atom: &PlanAtom, bound: &[bool], index: &RelationIndex, dict: &Dictionary) -> f64 {
    let cardinality = index.relation_cardinality(atom.relation) as f64;
    let mut constant_best = f64::INFINITY;
    let mut distinct_product = 1.0f64;
    for (position, term) in atom.terms.iter().enumerate() {
        match term {
            PlanTerm::Const(value) => {
                let run = match dict.lookup(value) {
                    Some(sym) => index.posting_len(atom.relation, position, sym) as f64,
                    // Never-interned constant: provably zero matches.
                    None => 0.0,
                };
                constant_best = constant_best.min(run);
            }
            PlanTerm::Var(slot) if bound[*slot] => {
                distinct_product *= index.distinct_count(atom.relation, position).max(1) as f64;
            }
            PlanTerm::Var(_) => {}
        }
    }
    let base = if constant_best.is_finite() {
        constant_best
    } else {
        cardinality
    };
    base / distinct_product
}

/// Unifies an atom's encoded terms with one stored row against the current
/// slot bindings.  On success, returns the term positions whose slots were
/// **newly** bound by this frame as a bitmask (pass it to [`unbind`] on
/// backtrack); on mismatch, any partial bindings are rolled back and
/// `None` is returned.
///
/// This is the one definition of the match-and-bind semantics, shared by
/// the plan executor, the bank's scan trie, and the backtracking reference
/// evaluator the tests compare them against — so the three cannot
/// disagree on what a single atom matches, only on join order and access
/// paths.
/// Every comparison is a `u32` symbol compare against the relation's
/// columns; the fact is never materialized.  The bitmask limits atoms to
/// 64 terms, which `QueryEvaluator::new` enforces at construction.
pub(crate) fn match_and_bind(
    terms: &[SymTerm],
    columns: &[Vec<Sym>],
    row: usize,
    bindings: &mut [Option<Sym>],
) -> Option<u64> {
    let mut bound_here: u64 = 0;
    for (position, term) in terms.iter().enumerate() {
        let sym = columns[position][row];
        match term {
            SymTerm::Const(c) => {
                if *c != sym {
                    unbind(terms, bound_here, bindings);
                    return None;
                }
            }
            SymTerm::Var(slot) => match bindings[*slot] {
                Some(bound) => {
                    if bound != sym {
                        unbind(terms, bound_here, bindings);
                        return None;
                    }
                }
                None => {
                    bindings[*slot] = Some(sym);
                    bound_here |= 1 << position;
                }
            },
        }
    }
    Some(bound_here)
}

/// The candidate fact list of one plan (or trie) step: the shortest
/// posting run among the step's statically bound positions, or the whole
/// relation when nothing is bound.  Shared between [`JoinPlan`] execution
/// and the bank's scan trie, which runs the same access logic per node.
///
/// When a second bound run exists and the shortest run is longer than
/// [`GALLOP_THRESHOLD`], the two shortest runs are intersected into
/// `scratch` with a galloping merge first — the intersection is an
/// order-preserving subset of the shortest run (dropped ids would have
/// failed the dropped position's symbol check in [`match_and_bind`]), so
/// enumeration order, and hence every witness set, is unchanged.
pub(crate) fn candidate_facts<'c>(
    db: &'c Database,
    index: &'c RelationIndex,
    relation: RelationId,
    terms: &[SymTerm],
    bound_positions: &[usize],
    bindings: &[Option<Sym>],
    scratch: &'c mut Vec<FactId>,
) -> &'c [FactId] {
    if bound_positions.is_empty() {
        scratch.clear();
        scratch.extend(db.facts_of(relation));
        return scratch;
    }
    let mut best: Option<&'c [FactId]> = None;
    let mut second: Option<&'c [FactId]> = None;
    for &position in bound_positions {
        let sym: Sym = match &terms[position] {
            SymTerm::Const(c) => *c,
            // Invariant, not user-reachable: `bound_positions` only lists
            // positions whose slots the plan has already bound.
            SymTerm::Var(slot) => bindings[*slot].expect("planner guarantees this slot is bound"),
        };
        let posting = index.matches(relation, position, sym);
        match best {
            Some(b) if posting.len() >= b.len() => {
                if second.is_none_or(|s| posting.len() < s.len()) {
                    second = Some(posting);
                }
            }
            _ => {
                second = best;
                best = Some(posting);
            }
        }
        if posting.is_empty() {
            break;
        }
    }
    // Invariant, not user-reachable: the early return above handles the
    // empty case, so the loop assigned `best` at least once.
    let best = best.expect("bound_positions is non-empty");
    if let Some(second) = second {
        if best.len() > GALLOP_THRESHOLD && !second.is_empty() {
            scratch.clear();
            intersect_postings(best, second, scratch);
            return scratch;
        }
    }
    best
}

/// Clears the bindings introduced by one frame, identified by the term
/// positions recorded in `bound_here`.
pub(crate) fn unbind(terms: &[SymTerm], bound_here: u64, bindings: &mut [Option<Sym>]) {
    let mut mask = bound_here;
    while mask != 0 {
        let position = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        if let SymTerm::Var(slot) = &terms[position] {
            bindings[*slot] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::QueryEvaluator;
    use ucqa_db::Schema;

    fn graph_db() -> Database {
        let mut schema = Schema::new();
        schema.add_relation("V", &["N", "C"]).unwrap();
        schema.add_relation("E", &["S", "T"]).unwrap();
        let mut db = Database::with_schema(schema);
        for node in ["u", "v", "w"] {
            db.insert_values("V", [Value::str(node), Value::int(0)])
                .unwrap();
        }
        db.insert_values("E", [Value::str("u"), Value::str("v")])
            .unwrap();
        db
    }

    #[test]
    fn constants_and_join_chains_order_by_bound_coverage() {
        let db = graph_db();
        // Written order: unbound scan first, then a constant atom.  The
        // planner flips them: the constant atom has coverage 1 at step
        // one, then binds x so E(x, y) becomes an indexed lookup.
        let q = parse_query(db.schema(), "Ans() :- E(x, y), V('u', z)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let order: Vec<usize> = evaluator.plan().atom_order().collect();
        assert_eq!(order, vec![1, 0]);
        // V('u', z) has a constant; E(x, y) stays a scan (x is not bound
        // by the V atom).
        assert_eq!(evaluator.plan().indexed_steps(), 1);
    }

    #[test]
    fn ties_preserve_the_written_order() {
        let db = graph_db();
        let q = parse_query(db.schema(), "Ans() :- V('u', a), V('v', b), V('w', c)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let order: Vec<usize> = evaluator.plan().atom_order().collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(evaluator.plan().indexed_steps(), 3);
    }

    #[test]
    fn answer_slots_count_as_bound_in_the_answer_plan() {
        let db = graph_db();
        // Free plan: both atoms start unbound, written order stays.  With
        // x prebound (candidate-driven), E(x, y) becomes the first,
        // indexed step.
        let q = parse_query(db.schema(), "Ans(x) :- V(z, c), E(x, y), V(x, c)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let answer_order: Vec<usize> = evaluator.answer_plan().atom_order().collect();
        assert_eq!(
            answer_order[0], 1,
            "the x-bound atom leads: {answer_order:?}"
        );
        assert!(evaluator.answer_plan().indexed_steps() >= 2);
    }

    #[test]
    fn a_later_higher_coverage_atom_always_beats_the_first_atom() {
        // Crafted body with strictly increasing coverage left to right:
        // E(x, y) covers 0, V('u', a) covers 1, E('u', 'v') covers 2.  With
        // no statistics every cost is 0.0, so only coverage (then body
        // order) decides — the first atom must not win by virtue of
        // seeding the comparison.
        let db = graph_db();
        let q = parse_query(db.schema(), "Ans() :- E(x, y), V('u', a), E('u', 'v')").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let order: Vec<usize> = evaluator.plan().atom_order().collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn costed_plans_prefer_a_cheap_scan_over_an_expensive_lookup() {
        // V('hot', z) is an indexed lookup but walks a 3-fact posting run;
        // W(x, y) is a scan of a 1-fact relation.  Coverage-greedy leads
        // with the lookup; the cost model leads with the cheaper scan.
        let mut schema = Schema::new();
        schema.add_relation("V", &["N", "C"]).unwrap();
        schema.add_relation("W", &["A", "B"]).unwrap();
        let mut db = Database::with_schema(schema);
        for i in 0..3 {
            db.insert_values("V", [Value::str("hot"), Value::int(i)])
                .unwrap();
        }
        db.insert_values("W", [Value::int(7), Value::int(8)])
            .unwrap();
        let q = parse_query(db.schema(), "Ans() :- V('hot', z), W(x, y)").unwrap();
        let structural = QueryEvaluator::new(q.clone());
        assert_eq!(
            structural.plan().atom_order().collect::<Vec<_>>(),
            vec![0, 1]
        );
        let costed = QueryEvaluator::with_stats(q, &db).unwrap();
        assert_eq!(costed.plan().atom_order().collect::<Vec<_>>(), vec![1, 0]);
    }

    #[test]
    fn explain_reports_estimates_kinds_and_bound_positions() {
        let db = graph_db();
        let q = parse_query(db.schema(), "Ans() :- E(x, y), V('u', z)").unwrap();
        let structural = QueryEvaluator::new(q.clone()).plan().explain();
        assert_eq!(structural.steps().len(), 2);
        assert!(structural.steps().iter().all(|s| s.estimate.is_none()));
        assert!(format!("{structural}").contains("structural"));
        let costed = QueryEvaluator::with_stats(q, &db).unwrap().plan().explain();
        // V('u', z) leads: a lookup on position 0 with posting length 1.
        assert_eq!(costed.steps()[0].atom, 1);
        assert!(costed.steps()[0].is_lookup());
        assert_eq!(costed.steps()[0].bound_positions, vec![0]);
        assert_eq!(costed.steps()[0].estimate, Some(1.0));
        // E(x, y) stays a scan over the single edge.
        assert!(!costed.steps()[1].is_lookup());
        assert_eq!(costed.steps()[1].estimate, Some(1.0));
        let rendered = format!("{costed}");
        assert!(rendered.contains("lookup[0]"), "{rendered}");
        assert!(rendered.contains("scan"), "{rendered}");
        assert!(rendered.contains("est 1.0"), "{rendered}");
    }

    #[test]
    fn stats_tie_break_prefers_the_shorter_posting() {
        // V('hot', x) (posting length 3) vs V('cold', y) (posting length
        // 1): same coverage, so the default plan keeps the written order
        // while the stats-aware plan leads with the rarer constant.
        let mut schema = Schema::new();
        schema.add_relation("V", &["N", "C"]).unwrap();
        let mut db = Database::with_schema(schema);
        for i in 0..3 {
            db.insert_values("V", [Value::str("hot"), Value::int(i)])
                .unwrap();
        }
        db.insert_values("V", [Value::str("cold"), Value::int(9)])
            .unwrap();
        let q = parse_query(db.schema(), "Ans() :- V('hot', x), V('cold', y)").unwrap();
        let evaluator = QueryEvaluator::new(q.clone());
        let default_order: Vec<usize> = evaluator.plan().atom_order().collect();
        assert_eq!(default_order, vec![0, 1]);
        let stats = QueryEvaluator::with_stats(q, &db).unwrap();
        let stats_order: Vec<usize> = stats.plan().atom_order().collect();
        assert_eq!(stats_order, vec![1, 0]);
    }

    #[test]
    fn stats_plan_enumerates_the_same_witnesses() {
        let db = graph_db();
        let q = parse_query(db.schema(), "Ans() :- V(x, c), E(x, y), V(y, c)").unwrap();
        let default = QueryEvaluator::new(q.clone());
        let stats = QueryEvaluator::with_stats(q, &db).unwrap();
        let subset = db.all_facts();
        let mut a = default.homomorphisms(&db, &subset, None);
        let mut b = stats.homomorphisms(&db, &subset, None);
        a.sort_by(|x, y| x.bindings.cmp(&y.bindings));
        b.sort_by(|x, y| x.bindings.cmp(&y.bindings));
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn encoding_fails_only_for_unknown_constants() {
        let db = graph_db();
        let known = PlanAtom {
            relation: db.schema().relation_id("V").unwrap(),
            terms: vec![PlanTerm::Const(Value::str("u")), PlanTerm::Var(0)],
        };
        let unknown = PlanAtom {
            relation: db.schema().relation_id("V").unwrap(),
            terms: vec![PlanTerm::Const(Value::str("zzz")), PlanTerm::Var(0)],
        };
        let dict = db.dictionary();
        let encoded = SymAtom::encode(&known, dict).unwrap();
        assert_eq!(encoded.terms[1], SymTerm::Var(0));
        assert!(matches!(encoded.terms[0], SymTerm::Const(_)));
        assert!(SymAtom::encode(&unknown, dict).is_none());
        assert!(SymAtom::encode_all(&[known, unknown], dict).is_none());
    }
}
