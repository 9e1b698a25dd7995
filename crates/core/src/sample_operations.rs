//! The uniform-operations random walk (Lemmas 7.2 and D.7).
//!
//! Sampling a leaf of `M^uo_Σ(D)` (or `M^{uo,1}_Σ(D)`) according to its
//! leaf distribution is straightforward because the generator is *local*:
//! starting from `D`, repeatedly pick one of the currently justified
//! operations uniformly at random and apply it, until the database is
//! consistent.  The walk works for **arbitrary FDs** — this locality is
//! precisely what Section 7 exploits to push approximability beyond
//! primary keys.
//!
//! The hot path is backed by the precomputed incremental
//! [`ConflictIndex`]: `V(D, Σ)` and its conflict components are computed
//! **once** when the sampler is built.  `Ops_s(D, Σ)` of a sub-database is
//! derived from the index in one place,
//! [`OperationWalkSampler::available_operations`].  The reference walk
//! ([`OperationWalkSampler::sample`]) calls it at every step, because its
//! leaf probability needs `|Ops_s|`; the repair draws never keep `Ops_s`.
//!
//! **Lazy permutation.**  The `M^uo` repair draws need only the result,
//! so they never maintain `Ops_s`.  A component's walk fills a pool with
//! all of its operations (its facts ascending, then its pairs in arena
//! order) and repeatedly swap-removes a uniform pick from the pool,
//! applying the picked operation only if it is still justified: a
//! singleton `f` iff `f` is live and has a live neighbour (an early-exit
//! scan of its neighbour run), a pair iff both its facts are live.  The
//! walk ends when the pool is empty.  This is the same walk, because
//! justification is *monotone under removal*: an operation that is not
//! justified on `D'` is not justified on any `D'' ⊆ D'`.  So an
//! operation discarded once would stay discarded, every operation still
//! justified is still in the pool, and the pool's remaining order is
//! uniform whatever was drawn before; the first justified operation that
//! order reaches is therefore uniform over `Ops_s`, exactly the chain's
//! next step.  A draw costs O(component operations + the neighbour scans
//! of the facts checked): each fact is checked at most once, and only
//! the survivors' scans run to the end.  No per-fact counter is written.
//!
//! **Singleton draws are local maxima.**  Under `M^{uo,1}` the pool holds
//! only the facts, so the lazy permutation is a uniform random order of
//! the component's facts in which each fact, at its turn, is removed iff
//! it is still live and has a live neighbour.  Only its own turn can
//! remove a fact, so every fact is live at its turn.  If a neighbour `g`
//! of `f` comes after `f`, then `g` is live at `f`'s turn and `f` is
//! removed.  If every neighbour of `f` comes before `f`, each of them was
//! removed at its own turn (`f` was live then), so `f` has no live
//! neighbour at its turn and survives.  An `M^{uo,1}` repair is therefore
//! exactly the set of facts ordered after all their conflict neighbours:
//! the local maxima of a uniform random ranking, with no walk at all.
//! The draw ranks the fact at position `i` of
//! [`ConflictIndex::component`] with the `i`-th word of the component's
//! keyed stream (distinct within the component, because `mix64` is a
//! bijection and the stream's counters are distinct) and keeps a fact iff
//! its rank exceeds the maximum rank over its whole neighbour run, read
//! by position through [`ConflictIndex::neighbour_positions`].  That is
//! one branch-free fold per fact, O(facts + pairs) per component, with
//! the ranks in a scratch buffer sized to the largest component drawn.
//! The fold reads every neighbour rather than stopping at the first
//! larger one, because data-dependent exits mispredict and cost more than
//! the reads they save.  Ranks are keyed by (component, position), not by
//! fact id, so an order-preserving renumbering of the fact ids, which
//! keeps both, leaves every draw unchanged.  On a clique component (a
//! primary-key block, or any key FD) the draw keeps exactly the
//! top-ranked fact.
//!
//! **Keyed components.**  Every singleton or pair operation lies inside
//! one conflict component, so the walk projected onto a component is that
//! component's own walk, independent of the others: the repair
//! distribution is the product of the components' repair distributions.
//! The repair draws therefore take exactly one `u64` key from the
//! caller's RNG and walk component `c` alone on a SplitMix64 substream
//! whose state starts at `mix64(key + (c+1)·φ)`.  A draw restricted to a
//! list of components ([`OperationWalkSampler::sample_components_into`])
//! is then bit-identical, on every fact of those components, to the full
//! draw from the same RNG state.  The full draw
//! ([`OperationWalkSampler::sample_result_into`]) is the same routine over
//! every component after one O(|D|/64) copy of the live facts (deleted
//! ids stay absent).  Only [`OperationWalkSampler::sample`], which returns
//! a sequence, walks all components interleaved on the caller's RNG.
//!
//! **Pulled `M^{uo,1}` draws.**  Under the local-maxima law a fact's
//! membership depends only on its own rank and its neighbours' ranks, and
//! the `i`-th word of a keyed stream is `mix64(start + (i+1)·φ)`, which
//! can be read at random access.  So a check that reads a few facts needs
//! no component drawn:
//! [`OperationWalkSampler::sample_facts_into`] decides just the facts it
//! is given ([`FactTarget`]s, from
//! [`OperationWalkSampler::targets_meeting`]), each bit-identical to the
//! full draw's membership, and stops a fact's neighbour scan at the first
//! neighbour that outranks it.
//!
//! **Cost per draw.**  Full: O(|D|/64 + |V|).  Restricted to components:
//! O(facts + pairs of the listed components, plus, under `M^uo`, their
//! survivors' degrees).  Pulled (`M^{uo,1}` only): O(Σ degrees of the
//! decided facts), independent of `|D|` and of the size of their
//! components, which matters most where a few large components hold
//! every fact and a restriction to components saves nothing.

use std::sync::Arc;

use rand::{Rng, RngCore};

use ucqa_db::{ConflictIndex, Database, FactId, FactSet, FdSet};
use ucqa_numeric::LogFloat;
use ucqa_repair::{Operation, RepairingSequence};

use crate::random::KeyedStream;

/// Reusable buffers for the allocation-free walk
/// [`OperationWalkSampler::sample_result_into`].
///
/// Holding the mutable walk state outside the sampler keeps
/// `OperationWalkSampler` `Sync` (one sampler is shared across threads by
/// the parallel estimator); each sampling loop owns one scratch.
#[derive(Debug, Default, Clone)]
pub struct WalkScratch {
    /// `M^uo` only: the operations of the component being walked that are
    /// not yet drawn, as positions in its facts and then its pairs;
    /// refilled per component, so it grows to the largest component's
    /// operation count.
    pool: Vec<u32>,
    /// `M^{uo,1}` only: the ranks of the component being drawn, indexed by
    /// position in its fact run; refilled per component, so it grows to
    /// the largest component's fact count.
    ranks: Vec<u64>,
}

impl WalkScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        WalkScratch::default()
    }
}

/// A fact a pulled `M^{uo,1}` draw decides
/// ([`OperationWalkSampler::sample_facts_into`]): the fact, its conflict
/// component, and its position in the component's fact run, which keys
/// its rank.  Built by [`OperationWalkSampler::targets_meeting`]; the
/// order sorts by component, then position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FactTarget {
    component: u32,
    position: u32,
    fact: FactId,
}

/// The outcome of one uniform-operations walk.
#[derive(Debug, Clone)]
pub struct WalkOutcome {
    /// The sampled complete repairing sequence.
    pub sequence: RepairingSequence,
    /// Its result `s(D)` — an operational repair.
    pub result: FactSet,
    /// The leaf probability `π(s)` of the sampled sequence (a product of
    /// `1/|Ops_s|` factors, kept in log-space because it underflows `f64`
    /// for large databases).
    pub probability: LogFloat,
}

/// A sampler for the leaf distribution of `M^uo_Σ(D)` / `M^{uo,1}_Σ(D)`.
///
/// Unlike the primary-key samplers, this one accepts any set of FDs.
///
/// Construction computes `V(D, Σ)` once and builds the incremental
/// [`ConflictIndex`] with its component partition.  A full repair draw
/// then costs O(|V| + |D|/64) in total instead of O(|D|) *per step*, a
/// draw restricted to some components costs O(their facts + pairs, plus,
/// under `M^uo`, their survivors' degrees), and a pulled `M^{uo,1}` draw
/// of some facts costs O(their degrees), the last two independent of
/// `|D|`.
/// The sampler itself is immutable after construction (`Sync`), so the
/// parallel estimator shares one instance across its worker threads; the
/// per-walk mutable state lives in [`WalkScratch`].
#[derive(Debug, Clone)]
pub struct OperationWalkSampler<'a> {
    db: &'a Database,
    index: Arc<ConflictIndex>,
    singleton_only: bool,
}

impl<'a> OperationWalkSampler<'a> {
    /// Creates a sampler over all justified operations (`M^uo_Σ`),
    /// computing the violations of `D` once.
    pub fn new(db: &'a Database, sigma: &'a FdSet) -> Self {
        OperationWalkSampler {
            db,
            index: Arc::new(ConflictIndex::build(db, sigma)),
            singleton_only: false,
        }
    }

    /// As [`OperationWalkSampler::new`], reusing a caller-maintained
    /// [`ConflictIndex`] — typically one kept current across database
    /// mutations with [`ConflictIndex::refresh`] — instead of rebuilding
    /// the violations from scratch.  Walks are bit-identical to a sampler
    /// built by [`OperationWalkSampler::new`] under the same seed; only
    /// the construction cost differs.  The index holds everything the walk
    /// reads from the FD set, so the FD set itself is not consulted.
    /// The index may be passed owned or as a shared [`Arc`]; a shared
    /// index is not copied.
    ///
    /// # Panics
    /// Panics if `index` is stale: its universe must equal `db.len()` and
    /// its changelog version must equal `db.version()` (a freshly built or
    /// just-refreshed index satisfies both).
    pub fn with_index(
        db: &'a Database,
        _sigma: &'a FdSet,
        index: impl Into<Arc<ConflictIndex>>,
    ) -> Self {
        let index = index.into();
        assert_eq!(
            index.universe(),
            db.len(),
            "conflict index universe is stale"
        );
        assert_eq!(
            index.version(),
            db.version(),
            "conflict index version is stale; refresh it first"
        );
        OperationWalkSampler {
            db,
            index,
            singleton_only: false,
        }
    }

    /// Restricts the walk to singleton removals (`M^{uo,1}_Σ`).
    pub fn singleton_only(mut self) -> Self {
        self.singleton_only = true;
        self
    }

    /// The precomputed conflict index backing the walks.
    pub fn conflict_index(&self) -> &ConflictIndex {
        &self.index
    }

    /// Runs one walk: a sequence drawn according to the leaf distribution
    /// of the uniform-operations Markov chain, together with its leaf
    /// probability `π(s)`.
    ///
    /// This is the reference chain itself: starting from the live facts,
    /// each step picks uniformly from
    /// [`OperationWalkSampler::available_operations`] on the current
    /// sub-database, multiplies `π(s)` by `1/|Ops_s|` and applies the
    /// pick, until no operation is justified.  Each step costs O(|V|).
    /// The per-component walks of the repair draws
    /// ([`OperationWalkSampler::sample_result_into`]) have the chain's
    /// *repair* distribution but not its *sequence* distribution (they
    /// fix an order in which components are repaired), so they cannot
    /// stand in here.  Its RNG stream therefore differs from the repair
    /// draws': `sample(rng).result` and the repair
    /// [`OperationWalkSampler::sample_result_into`] writes are equally
    /// distributed, not equal.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> WalkOutcome {
        let mut live = self.db.live_facts().clone();
        let (mut operations, mut probability) = (Vec::new(), LogFloat::one());
        let mut available = self.available_operations(&live);
        while !available.is_empty() {
            probability *= LogFloat::from_value(1.0 / available.len() as f64);
            let operation = available.swap_remove(rng.random_range(0..available.len()));
            operation.apply(&mut live);
            operations.push(operation);
            available = self.available_operations(&live);
        }
        WalkOutcome {
            sequence: RepairingSequence::from_operations(operations),
            result: live,
            probability,
        }
    }

    /// Draws one repair into a reused buffer, reusing `scratch` across
    /// walks, so the draw performs no heap allocation once the buffers
    /// reach steady-state capacity.  Takes one `u64` from `rng`.
    ///
    /// The draw copies the live facts into `out` once (deleted ids stay
    /// absent) and then draws every conflict component
    /// on its own keyed substream, exactly as
    /// [`OperationWalkSampler::sample_components_into`] over all
    /// components.  Under `M^uo` each component walk draws the
    /// component's operations from the scratch's pool in a uniform random
    /// order and applies each one that is still justified when it comes
    /// up (the lazy permutation of the module docs): O(component
    /// operations + the degrees of the facts it checks).  Under
    /// `M^{uo,1}` the component keeps the local maxima of keyed ranks (the
    /// module docs prove this is the same law): O(component facts +
    /// pairs).  Either way the repair distribution is the same as
    /// [`OperationWalkSampler::sample`]'s.
    ///
    /// # Panics
    /// Panics if `out`'s universe differs from the sampler's database.
    pub fn sample_result_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut FactSet,
        scratch: &mut WalkScratch,
    ) {
        assert_eq!(out.universe(), self.db.len(), "buffer universe mismatch");
        out.copy_from(self.db.live_facts());
        let components = 0..self.index.component_count();
        self.walk_components(rng.next_u64(), components, out, scratch);
    }

    /// As [`OperationWalkSampler::sample_result_into`], restricted to the
    /// conflict components `components` (ordinals of
    /// [`ConflictIndex::component`]): takes one `u64` from `rng` and
    /// rewrites only the facts of the listed components, each to exactly
    /// the value the full draw from the same RNG state gives it.  Every
    /// other fact of `out` is left as it was, so `out` should start as
    /// the live facts (or hold an earlier draw) for the facts outside
    /// `components` to read as a repair would.  Cost is linear in the facts and pairs of
    /// the listed components, plus, under `M^uo`, the degrees of the facts
    /// their walks check.
    ///
    /// # Panics
    /// Panics if a component is out of range, or if `out`'s universe
    /// differs from the sampler's database.
    pub fn sample_components_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        components: &[usize],
        out: &mut FactSet,
        scratch: &mut WalkScratch,
    ) {
        assert_eq!(out.universe(), self.db.len(), "buffer universe mismatch");
        self.walk_components(rng.next_u64(), components.iter().copied(), out, scratch);
    }

    /// The pulled `M^{uo,1}` draw: takes one `u64` from `rng` and decides
    /// only the facts of `targets` (from
    /// [`OperationWalkSampler::targets_meeting`]), each to exactly the
    /// membership the full draw from the same RNG state gives it.  Every
    /// other fact of `out` is left as it was.
    ///
    /// A fact survives iff its keyed rank beats every neighbour's (the
    /// local-maxima law of the module docs), and every rank is one word of
    /// its component's keyed stream, read at random access by position.
    /// So no component is drawn: a target costs one word plus, at most,
    /// one per neighbour, and the scan of its neighbours stops at the
    /// first that outranks it.  The draw costs O(Σ degrees of the targets),
    /// independent of `|D|` and of the size of the targets' components.
    ///
    /// # Panics
    /// Panics if the sampler is not singleton-only (an `M^uo` walk has no
    /// per-fact law), or if `out`'s universe differs from the sampler's
    /// database.
    pub fn sample_facts_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        targets: &[FactTarget],
        out: &mut FactSet,
    ) {
        assert!(
            self.singleton_only,
            "only a singleton-only walk draws single facts"
        );
        assert_eq!(out.universe(), self.db.len(), "buffer universe mismatch");
        let key = rng.next_u64();
        let index: &ConflictIndex = &self.index;
        for run in targets.chunk_by(|a, b| a.component == b.component) {
            let ranks = KeyedStream::new(key, run[0].component as usize);
            for target in run {
                let rank = ranks.word(target.position as usize);
                let survives = index
                    .neighbour_positions(target.fact)
                    .iter()
                    .all(|&p| ranks.word(p as usize) < rank);
                out.set(target.fact, survives);
            }
        }
    }

    /// The one repair-draw routine: draws each listed component alone on
    /// its keyed substream, rewriting the component's facts in `out`.
    /// Under `M^{uo,1}` a fact survives iff its rank beats every
    /// neighbour's; under `M^uo` the component walks the lazy permutation
    /// of the module docs, with `out` as the live sub-database and the
    /// pool holding the operations not yet drawn, as positions in the
    /// component's facts and then in its pairs.
    fn walk_components(
        &self,
        key: u64,
        components: impl IntoIterator<Item = usize>,
        out: &mut FactSet,
        scratch: &mut WalkScratch,
    ) {
        // One deref of the shared index for the whole draw, not one per
        // step.
        let index: &ConflictIndex = &self.index;
        for component in components {
            let facts = index.component(component);
            let mut stream = KeyedStream::new(key, component);
            if self.singleton_only {
                let ranks = &mut scratch.ranks;
                ranks.clear();
                ranks.extend(facts.iter().map(|_| stream.next_u64()));
                for (&fact, &rank) in facts.iter().zip(ranks.iter()) {
                    let top = max_rank(ranks, index.neighbour_positions(fact));
                    out.set(fact, rank > top);
                }
                continue;
            }
            let pairs = index.component_pairs(component);
            for &fact in facts {
                out.insert(fact);
            }
            let pool = &mut scratch.pool;
            pool.clear();
            pool.extend(0..(facts.len() + pairs.len()) as u32);
            while !pool.is_empty() {
                let op = pool.swap_remove(stream.random_range(0..pool.len())) as usize;
                if let Some(&fact) = facts.get(op) {
                    if out.contains(fact) && index.has_live_neighbour(fact, out) {
                        out.remove(fact);
                    }
                } else {
                    let (f, g) = pairs[op - facts.len()];
                    if out.contains(f) && out.contains(g) {
                        out.remove(f);
                        out.remove(g);
                    }
                }
            }
        }
    }

    /// The conflict components (ascending, no repeats) that contain one
    /// of `facts` — all a restricted draw must cover for a check that
    /// reads only `facts`.  Conflict-free and deleted facts belong to no
    /// component and are skipped.
    pub fn components_meeting(&self, facts: impl IntoIterator<Item = FactId>) -> Vec<usize> {
        let mut components: Vec<usize> = facts
            .into_iter()
            .filter_map(|fact| self.index.component_of(fact))
            .collect();
        components.sort_unstable();
        components.dedup();
        components
    }

    /// The targets of a pulled draw
    /// ([`OperationWalkSampler::sample_facts_into`]) for a check that
    /// reads only `facts`: each distinct fact with its component and its
    /// position in the component's fact run (a binary search), sorted by
    /// component and position.  Conflict-free and deleted facts are in
    /// every repair or in none; they are skipped.
    pub fn targets_meeting(&self, facts: impl IntoIterator<Item = FactId>) -> Vec<FactTarget> {
        let index: &ConflictIndex = &self.index;
        let mut targets: Vec<FactTarget> = facts
            .into_iter()
            .filter_map(|fact| {
                let component = index.component_of(fact)?;
                let position = index
                    .component(component)
                    .binary_search(&fact)
                    .expect("a component's fact run holds its facts");
                Some(FactTarget {
                    component: component as u32,
                    position: position as u32,
                    fact,
                })
            })
            .collect();
        targets.sort_unstable();
        targets.dedup();
        targets
    }

    /// The justified operations `Ops_s(D, Σ)` available on `subset`, in
    /// canonical order, read from the conflict index: the facts of
    /// `subset` with a conflicting neighbour in `subset`, and, unless the
    /// sampler is singleton-only, the conflicting pairs with both facts in
    /// `subset`.  O(|V|).
    pub fn available_operations(&self, subset: &FactSet) -> Vec<Operation> {
        let index: &ConflictIndex = &self.index;
        let mut operations: Vec<Operation> = index
            .conflicting_facts()
            .iter()
            .filter(|&&fact| subset.contains(fact) && index.has_live_neighbour(fact, subset))
            .map(|&fact| Operation::remove_one(fact))
            .collect();
        if !self.singleton_only {
            operations.extend(
                index
                    .pairs()
                    .iter()
                    .filter(|&&(f, g)| subset.contains(f) && subset.contains(g))
                    .map(|&(f, g)| Operation::remove_pair(f, g)),
            );
        }
        operations.sort_unstable();
        operations
    }
}

/// The largest of `ranks` at `positions`, or 0 for none: a full fold with
/// no early exit.  Four independent running maxima let the loads of
/// consecutive neighbours overlap instead of waiting on one chain of
/// comparisons.
#[inline]
fn max_rank(ranks: &[u64], positions: &[u32]) -> u64 {
    let mut top = [0u64; 4];
    let mut chunks = positions.chunks_exact(4);
    for chunk in &mut chunks {
        for (top, &p) in top.iter_mut().zip(chunk) {
            *top = (*top).max(ranks[p as usize]);
        }
    }
    for &p in chunks.remainder() {
        top[0] = top[0].max(ranks[p as usize]);
    }
    top[0].max(top[1]).max(top[2].max(top[3]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::collections::HashMap;
    use ucqa_db::{FunctionalDependency, Schema, Value, ViolationSet};
    use ucqa_repair::operation::justified_operations_from;
    use ucqa_repair::{GeneratorSpec, OperationalSemantics, TreeLimits};
    use ucqa_workload::BlockWorkload;

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
    fn walks_produce_valid_complete_sequences() {
        let (db, sigma) = running_example();
        let sampler = OperationWalkSampler::new(&db, &sigma);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let outcome = sampler.sample(&mut rng);
            let result = outcome.sequence.validate(&db, &sigma).unwrap();
            assert_eq!(result, outcome.result);
            assert!(outcome.sequence.is_complete(&db, &sigma));
            assert!(outcome.probability.to_f64() > 0.0);
        }
    }

    #[test]
    fn repair_distribution_matches_exact_uniform_operations_semantics() {
        let (db, sigma) = running_example();
        let chain = GeneratorSpec::uniform_operations()
            .build_chain(&db, &sigma, TreeLimits::default())
            .unwrap();
        let semantics = OperationalSemantics::from_chain(&chain);
        let exact: HashMap<Vec<usize>, f64> = semantics
            .repairs()
            .iter()
            .map(|entry| {
                (
                    entry.repair.iter().map(|f| f.index()).collect(),
                    entry.probability.to_f64(),
                )
            })
            .collect();
        let sampler = OperationWalkSampler::new(&db, &sigma);
        let mut rng = StdRng::seed_from_u64(9);
        let (mut result, mut scratch) = (FactSet::empty(db.len()), WalkScratch::new());
        let samples = 40_000usize;
        let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
        for _ in 0..samples {
            sampler.sample_result_into(&mut rng, &mut result, &mut scratch);
            *counts
                .entry(result.iter().map(|f| f.index()).collect())
                .or_insert(0) += 1;
        }
        assert_eq!(counts.len(), exact.len());
        for (repair, probability) in exact {
            let observed = counts.get(&repair).copied().unwrap_or(0) as f64 / samples as f64;
            assert!(
                (observed - probability).abs() < 0.02,
                "repair {repair:?}: observed {observed}, exact {probability}"
            );
        }
    }

    #[test]
    fn running_example_leaf_probabilities_are_fifth_or_fifteenth() {
        let (db, sigma) = running_example();
        let sampler = OperationWalkSampler::new(&db, &sigma);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let outcome = sampler.sample(&mut rng);
            let p = outcome.probability.to_f64();
            let matches_one_fifth = (p - 0.2).abs() < 1e-12;
            let matches_one_fifteenth = (p - 1.0 / 15.0).abs() < 1e-12;
            assert!(
                matches_one_fifth || matches_one_fifteenth,
                "unexpected leaf probability {p}"
            );
        }
    }

    #[test]
    fn buffered_walk_matches_exact_uniform_operations_semantics() {
        let (db, sigma) = running_example();
        let chain = GeneratorSpec::uniform_operations()
            .build_chain(&db, &sigma, TreeLimits::default())
            .unwrap();
        let semantics = OperationalSemantics::from_chain(&chain);
        let exact: HashMap<Vec<usize>, f64> = semantics
            .repairs()
            .iter()
            .map(|entry| {
                (
                    entry.repair.iter().map(|f| f.index()).collect(),
                    entry.probability.to_f64(),
                )
            })
            .collect();
        let sampler = OperationWalkSampler::new(&db, &sigma);
        let mut rng = StdRng::seed_from_u64(31);
        let mut repair = FactSet::empty(db.len());
        let mut scratch = WalkScratch::new();
        let samples = 40_000usize;
        let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
        for _ in 0..samples {
            sampler.sample_result_into(&mut rng, &mut repair, &mut scratch);
            assert!(ucqa_db::ViolationSet::compute(&db, &sigma, &repair).is_empty());
            *counts
                .entry(repair.iter().map(|f| f.index()).collect())
                .or_insert(0) += 1;
        }
        assert_eq!(counts.len(), exact.len());
        for (repair, probability) in exact {
            let observed = counts.get(&repair).copied().unwrap_or(0) as f64 / samples as f64;
            assert!(
                (observed - probability).abs() < 0.02,
                "repair {repair:?}: observed {observed}, exact {probability}"
            );
        }
    }

    #[test]
    fn incremental_walk_state_matches_recompute_at_every_step() {
        // Drive the index-backed walk by hand on a general-FD database,
        // component by component as the repair draws do, and cross-check
        // the justified operations read from the index against a
        // from-scratch recompute after every step, for the pair and the
        // singleton sampler.
        let (db, sigma) = ucqa_workload_like_database();
        let paired = OperationWalkSampler::new(&db, &sigma);
        let unpaired = OperationWalkSampler::new(&db, &sigma).singleton_only();
        let index = paired.conflict_index();
        // f0 and f1 violate both FDs: the one pair on which counting
        // conflicting neighbours and counting violations differ.
        assert!(index.violations().len() > index.pairs().len());
        assert_eq!(index.neighbour_positions(FactId::new(0)).len(), 3);
        let mut rng = StdRng::seed_from_u64(4);
        for sampler in [&paired, &unpaired] {
            for _ in 0..50 {
                for component in 0..index.component_count() {
                    let facts = index.component(component);
                    let mut subset = FactSet::from_iter(db.len(), facts.iter().copied());
                    loop {
                        let available = sampler.available_operations(&subset);
                        let violations = ViolationSet::compute(&db, &sigma, &subset);
                        assert_eq!(
                            available,
                            justified_operations_from(&violations, sampler.singleton_only)
                        );
                        if available.is_empty() {
                            break;
                        }
                        available[rng.random_range(0..available.len())].apply(&mut subset);
                    }
                    assert!(ViolationSet::compute(&db, &sigma, &subset).is_empty());
                }
            }
        }
    }

    #[test]
    fn singleton_draws_on_cliques_keep_the_top_ranked_fact() {
        // On a clique every fact neighbours every other, so the local
        // maxima are the one fact whose keyed rank is largest: the
        // position of the largest word of the component's stream.
        let (db, sigma) = BlockWorkload {
            blocks: 60,
            min_block_size: 1,
            max_block_size: 8,
            seed: 5,
        }
        .generate();
        let sampler = OperationWalkSampler::new(&db, &sigma).singleton_only();
        let index = sampler.conflict_index();
        assert!(index.component_count() > 40);
        let mut rng = StdRng::seed_from_u64(8);
        let (mut repair, mut scratch) = (FactSet::empty(db.len()), WalkScratch::new());
        for _ in 0..50 {
            let key = rng.clone().next_u64();
            sampler.sample_result_into(&mut rng, &mut repair, &mut scratch);
            for component in 0..index.component_count() {
                let facts = index.component(component);
                let size = facts.len();
                assert_eq!(
                    index.component_pairs(component).len(),
                    size * (size - 1) / 2
                );
                let mut stream = KeyedStream::new(key, component);
                let ranks: Vec<u64> = facts.iter().map(|_| stream.next_u64()).collect();
                let top = (0..size).max_by_key(|&i| ranks[i]).unwrap();
                for (i, &fact) in facts.iter().enumerate() {
                    assert_eq!(repair.contains(fact), i == top, "component {component}");
                }
            }
        }
    }

    /// A small multi-FD database with overlapping, non-key FDs.
    fn ucqa_workload_like_database() -> (Database, FdSet) {
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
            db.insert_values(
                "R",
                [
                    Value::int(a),
                    Value::int(b),
                    Value::int(c),
                    Value::int(payload as i64),
                ],
            )
            .unwrap();
        }
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["C"], &["B"]).unwrap());
        (db, sigma)
    }

    #[test]
    fn buffered_singleton_walk_only_removes_single_facts() {
        let (db, sigma) = running_example();
        let sampler = OperationWalkSampler::new(&db, &sigma).singleton_only();
        let mut rng = StdRng::seed_from_u64(13);
        let mut repair = FactSet::empty(db.len());
        let mut scratch = WalkScratch::new();
        for _ in 0..200 {
            sampler.sample_result_into(&mut rng, &mut repair, &mut scratch);
            // Singleton walks keep at least one fact of the running example
            // (removing everything requires a pair removal).
            assert!(!repair.is_empty());
            assert!(ucqa_db::ViolationSet::compute(&db, &sigma, &repair).is_empty());
        }
    }

    #[test]
    fn singleton_walk_never_uses_pair_removals() {
        let (db, sigma) = running_example();
        let sampler = OperationWalkSampler::new(&db, &sigma).singleton_only();
        assert!(sampler.singleton_only);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let outcome = sampler.sample(&mut rng);
            assert!(outcome.sequence.is_singleton_only());
            assert!(!outcome.result.is_empty());
        }
        assert_eq!(sampler.available_operations(&db.all_facts()).len(), 3);
        assert_eq!(
            OperationWalkSampler::new(&db, &sigma)
                .available_operations(&db.all_facts())
                .len(),
            5
        );
    }

    #[test]
    fn works_with_general_fds_not_just_keys() {
        // The Proposition D.6 family for n = 4: R(0,0,0) conflicts with
        // three facts R(0,1,i) under R : A1 → A2.
        let mut schema = Schema::new();
        schema.add_relation("R", &["A1", "A2", "A3"]).unwrap();
        let mut db = Database::with_schema(schema);
        db.insert_values("R", [Value::int(0), Value::int(0), Value::int(0)])
            .unwrap();
        for i in 1..=3 {
            db.insert_values("R", [Value::int(0), Value::int(1), Value::int(i)])
                .unwrap();
        }
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A1"], &["A2"]).unwrap());
        let sampler = OperationWalkSampler::new(&db, &sigma);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..200 {
            let outcome = sampler.sample(&mut rng);
            assert!(outcome.sequence.is_complete(&db, &sigma));
        }
    }
}
