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
//! can be read at random access.  So a check needs no repair drawn at
//! all: [`OperationWalkSampler::survives`] decides one fact under a draw
//! key, bit-identical to the full draw's membership, and stops the scan
//! of its neighbours soon after the first that outranks it.
//! [`PulledCheck`] is the estimators' check of a whole bank on that
//! primitive.  Each draw takes one key, and a fact is decided only when
//! a witness reaches it, at most once per draw.  A witness stops at its
//! first absent fact, and an entry at its first contained witness.  The
//! backtracking evaluator of a fallback entry asks the check about the
//! facts its search reaches ([`Membership`]), so no `M^{uo,1}` draw is
//! ever full.
//!
//! **Cost per draw.**  Full: O(|D|/64 + |V|).  Restricted to components:
//! O(facts + pairs of the listed components, plus, under `M^uo`, their
//! survivors' degrees).  Pulled (`M^{uo,1}` only): the trie nodes of the
//! live entries that the draw reaches, plus O(degree) for each fact it
//! decides.  That is independent of `|D|` and of the size of the facts'
//! components, which matters most where a few large components hold
//! every fact and a restriction to components saves nothing.  Building
//! the check once per pass costs O(witness facts) lookups and sorts, and
//! nothing universe-sized.

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use rand::{Rng, RngCore};

use ucqa_db::{ConflictIndex, Database, FactId, FactSet, FdSet};
use ucqa_numeric::LogFloat;
use ucqa_query::{BankLiveSet, LineageBank, Membership};
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

    /// The pulled `M^{uo,1}` draw of one fact: whether `fact` is in the
    /// repair that [`OperationWalkSampler::sample_result_into`] writes when
    /// it takes `key` from its RNG.  A deleted fact is in none, a
    /// conflict-free live fact in every one.
    ///
    /// A fact of a conflict component survives iff its keyed rank beats
    /// every neighbour's (the local-maxima law of the module docs), and
    /// every rank is one word of its component's keyed stream, read at
    /// random access by position.  So no component is drawn: the fact
    /// costs the search for its position, one word, and at most one word
    /// per neighbour, since the scan stops soon after the first neighbour
    /// that outranks it.  That is independent of `|D|` and of the size of
    /// the fact's component.
    ///
    /// # Panics
    /// Panics if the sampler is not singleton-only (an `M^uo` walk has no
    /// per-fact law).
    pub fn survives(&self, key: u64, fact: FactId) -> bool {
        assert!(
            self.singleton_only,
            "only a singleton-only walk decides single facts"
        );
        match self.index.position_of(fact) {
            Some((component, position)) => self.outranks_neighbours(key, fact, component, position),
            None => self.db.is_live(fact),
        }
    }

    /// [`OperationWalkSampler::survives`] for a fact of a conflict
    /// component whose component and position are already known: its rank
    /// under `key` beats the rank of every neighbour.  The neighbours are
    /// read four at a time, and the scan stops after the first group of
    /// four that holds a higher rank: a data-dependent exit per neighbour
    /// mispredicts more than the extra reads cost.
    #[inline]
    pub(crate) fn outranks_neighbours(
        &self,
        key: u64,
        fact: FactId,
        component: usize,
        position: usize,
    ) -> bool {
        let ranks = KeyedStream::new(key, component);
        let rank = ranks.word(position);
        let word = |p: &u32| ranks.word(*p as usize);
        let mut chunks = self.index.neighbour_positions(fact).chunks_exact(4);
        for chunk in &mut chunks {
            let top = word(&chunk[0])
                .max(word(&chunk[1]))
                .max(word(&chunk[2]).max(word(&chunk[3])));
            if top > rank {
                return false;
            }
        }
        chunks.remainder().iter().all(|p| word(p) < rank)
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

/// A fact the pulled check decides: a conflicting witness fact, with its
/// component and its position there, which key its rank.
#[derive(Debug, Clone, Copy)]
struct Target {
    fact: FactId,
    component: u32,
    position: u32,
}

/// A node of a [`PulledCheck`] trie: a target ordinal, flagged with
/// [`LEAF`] where a witness ends, and the index just past its subtree.
#[derive(Debug, Clone, Copy)]
struct TrieNode {
    target: u32,
    next: u32,
}

/// The flag of a [`TrieNode`] that ends a witness.
const LEAF: u32 = 1 << 31;

/// The ordinal of a witness fact in no conflict component: it is in every
/// repair, so no check reads it.
const CONFLICT_FREE: u32 = u32::MAX;

/// The pulled `M^{uo,1}` check of a bank's entries: each draw decides
/// them without drawing a repair, and decides a fact only when a witness
/// or the evaluator reaches it.
///
/// Under the local-maxima law a fact's membership is a function of the
/// draw key and the ranks of the fact and its neighbours
/// ([`OperationWalkSampler::survives`]).  So each draw takes one key,
/// exactly as the full draw does ([`PulledCheck::draw`]), and a compiled
/// entry walks its witnesses ([`PulledCheck::entry_hit`]): a witness stops
/// at its first absent fact, and the entry at its first contained
/// witness.  A fallback entry runs the backtracking evaluator with the
/// check as its [`Membership`] oracle.  Every answer is the full draw's,
/// bit for bit, so only the work changes.
///
/// The estimators build one check per pass, over the entries live at its
/// first draw.  The distinct conflicting facts of their witnesses become
/// the targets, each looked up once: its component and its position
/// there.  Conflict-free witness facts are in every repair and drop out.
/// Each entry's witnesses form one trie, whose paths test first the
/// facts that the most witnesses share and then those of the highest
/// degree: one absent shared fact rules out every witness below it, and a
/// fact survives with probability `1/(deg+1)`.  A per-target memo,
/// stamped with the draw's epoch, decides each target at most once per
/// draw, and all of it is sized by the witnesses, not by `|D|`.  A
/// retirement needs no rebuild: the estimator stops asking about the
/// entry.
pub struct PulledCheck<'e, 'a> {
    walker: &'e OperationWalkSampler<'a>,
    /// The targets, ordered so that each trie path runs from the highest
    /// ordinal down (see [`PulledCheck::new`]).
    targets: Vec<Target>,
    /// Per target: `epoch << 1 | present`, as the last draw that decided
    /// it left it.
    memo: Vec<Cell<u64>>,
    /// The ordinal of every witness fact, by fact id, or
    /// [`CONFLICT_FREE`].
    lookup: HashMap<u32, u32>,
    /// Every entry's witnesses as a trie, one run of nodes per entry, in
    /// depth-first order.
    nodes: Vec<TrieNode>,
    /// Per bank entry: the end of its run in `nodes`; empty for an entry
    /// that is a fallback entry or was not live at the build.
    entry_ends: Vec<u32>,
    /// Per bank entry: whether it has a witness of conflict-free facts
    /// only, and so is in every repair.
    certain: Vec<bool>,
    /// The current draw's key, and its epoch: the number of draws so far.
    key: u64,
    epoch: u64,
}

impl<'e, 'a> PulledCheck<'e, 'a> {
    /// The check of the live entries of `live`, drawn by `walker`.
    ///
    /// # Panics
    /// Panics if `walker` is not singleton-only.
    pub fn new(
        walker: &'e OperationWalkSampler<'a>,
        bank: &LineageBank,
        live: &BankLiveSet,
    ) -> Self {
        assert!(
            walker.singleton_only,
            "only a singleton-only walk decides single facts"
        );
        // Every witness fact of every live compiled entry, witness after
        // witness and entry after entry, as it occurs.
        let mut occurrences: Vec<u32> = Vec::new();
        let mut witness_ends = Vec::new();
        let mut entry_ends = Vec::with_capacity(bank.len());
        for q in 0..bank.len() {
            if live.is_live(q) {
                for witness in bank.witnesses_of(q).into_iter().flatten() {
                    occurrences.extend(witness.iter().map(|fact| fact.index() as u32));
                    witness_ends.push(occurrences.len() as u32);
                }
            }
            entry_ends.push(witness_ends.len() as u32);
        }
        // Look each distinct fact up once, and count the witnesses that
        // share it; every occurrence becomes the fact's ordinal.
        let index: &ConflictIndex = &walker.index;
        let mut lookup = HashMap::new();
        let (mut targets, mut order_keys): (_, Vec<(usize, usize, FactId)>) =
            (Vec::new(), Vec::new());
        for occurrence in &mut occurrences {
            *occurrence = match lookup.entry(*occurrence) {
                Entry::Occupied(seen) => {
                    let ordinal = *seen.get();
                    if ordinal != CONFLICT_FREE {
                        order_keys[ordinal as usize].0 += 1;
                    }
                    ordinal
                }
                Entry::Vacant(new) => {
                    let fact = FactId::new(*new.key() as usize);
                    let ordinal = match index.position_of(fact) {
                        Some((component, position)) => {
                            targets.push(Target {
                                fact,
                                component: component as u32,
                                position: position as u32,
                            });
                            let degree = index.neighbour_positions(fact).len();
                            order_keys.push((1usize, degree, fact));
                            (targets.len() - 1) as u32
                        }
                        None => CONFLICT_FREE,
                    };
                    *new.insert(ordinal)
                }
            };
        }
        // Renumber the targets by ascending order key, so that a path
        // sorted by descending ordinal tests the most shared fact first,
        // and sibling paths in ascending order try the most likely
        // present first.
        let mut order: Vec<u32> = (0..targets.len() as u32).collect();
        order.sort_unstable_by_key(|&t| order_keys[t as usize]);
        let mut renumbered = vec![0; targets.len()];
        for (rank, &t) in order.iter().enumerate() {
            renumbered[t as usize] = rank as u32;
        }
        let targets: Vec<Target> = order.iter().map(|&t| targets[t as usize]).collect();
        for ordinal in lookup.values_mut() {
            if *ordinal != CONFLICT_FREE {
                *ordinal = renumbered[*ordinal as usize];
            }
        }
        // Each witness's path: its targets, by descending ordinal.
        let mut paths: Vec<u32> = Vec::with_capacity(occurrences.len());
        let mut start = 0;
        for end in &mut witness_ends {
            let first = paths.len();
            paths.extend(
                occurrences[start..*end as usize]
                    .iter()
                    .filter(|&&ordinal| ordinal != CONFLICT_FREE)
                    .map(|&ordinal| renumbered[ordinal as usize]),
            );
            paths[first..].sort_unstable_by(|a, b| b.cmp(a));
            start = *end as usize;
            *end = paths.len() as u32;
        }
        let path = |w: usize| {
            let start = if w == 0 { 0 } else { witness_ends[w - 1] } as usize;
            &paths[start..witness_ends[w] as usize]
        };
        // Each entry's paths, sorted, as one trie.
        let (mut nodes, mut certain) = (Vec::new(), Vec::with_capacity(bank.len()));
        let (mut sorted, mut open, mut sort_keys) = (Vec::new(), Vec::new(), Vec::new());
        let mut first_witness = 0;
        for end in &mut entry_ends {
            sorted.clear();
            sorted.extend((first_witness..*end as usize).map(path));
            first_witness = *end as usize;
            // A witness of conflict-free facts only is in every repair.
            let sure = sorted.iter().any(|path| path.is_empty());
            certain.push(sure);
            if sure {
                sorted.clear();
            }
            sort_paths(&mut sorted, &mut sort_keys);
            let mut previous: &[u32] = &[];
            for &path in &sorted {
                let common = previous
                    .iter()
                    .zip(path)
                    .take_while(|(a, b)| a == b)
                    .count();
                if !previous.is_empty() && common == previous.len() {
                    // `previous ⊆ path`: the path adds nothing.
                    continue;
                }
                debug_assert!(common < path.len(), "paths are sorted");
                for node in open.drain(common..) {
                    close(&mut nodes, node);
                }
                for &target in &path[common..] {
                    open.push(nodes.len());
                    nodes.push(TrieNode { target, next: 0 });
                }
                if let Some(leaf) = nodes.last_mut() {
                    leaf.target |= LEAF;
                }
                previous = path;
            }
            for node in open.drain(..) {
                close(&mut nodes, node);
            }
            *end = nodes.len() as u32;
        }
        PulledCheck {
            walker,
            memo: vec![Cell::new(0); targets.len()],
            targets,
            lookup,
            nodes,
            entry_ends,
            certain,
            key: 0,
            epoch: 0,
        }
    }

    /// Starts the next draw: takes one `u64` key from `rng`, as
    /// [`OperationWalkSampler::sample_result_into`] does, and forgets
    /// every fact the previous draw decided.
    pub fn draw<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.key = rng.next_u64();
        self.epoch += 1;
    }

    /// Whether target `t` is in the current draw's repair: as its memo
    /// records, if the current draw decided it already.
    #[inline]
    fn target_present(&self, t: usize) -> bool {
        let stamp = self.memo[t].get();
        if stamp >> 1 == self.epoch {
            return stamp & 1 == 1;
        }
        let Target {
            fact,
            component,
            position,
        } = self.targets[t];
        let present =
            self.walker
                .outranks_neighbours(self.key, fact, component as usize, position as usize);
        self.memo[t].set((self.epoch << 1) | u64::from(present));
        present
    }

    /// The facts the check decides by witness, ascending.
    #[cfg(test)]
    pub(crate) fn target_facts(&self) -> Vec<FactId> {
        let mut facts: Vec<FactId> = self.targets.iter().map(|target| target.fact).collect();
        facts.sort_unstable();
        facts
    }

    /// The number of draws so far.
    #[cfg(test)]
    pub(crate) fn draws(&self) -> u64 {
        self.epoch
    }

    /// Whether some witness of bank entry `q` is in the current draw's
    /// repair: the entry's outcome on the full draw from the same key,
    /// for a compiled entry that was live when the check was built, and
    /// `false` for any other entry.
    ///
    /// A walk of the entry's trie: a present node descends to its first
    /// child, an absent one skips its subtree, and a present leaf ends the
    /// walk.
    pub fn entry_hit(&self, q: usize) -> bool {
        if self.certain[q] {
            return true;
        }
        let mut at = if q == 0 { 0 } else { self.entry_ends[q - 1] } as usize;
        let end = self.entry_ends[q] as usize;
        while at < end {
            let TrieNode { target, next } = self.nodes[at];
            if !self.target_present((target & !LEAF) as usize) {
                at = next as usize;
            } else if target & LEAF != 0 {
                return true;
            } else {
                at += 1;
            }
        }
        false
    }
}

impl Membership for PulledCheck<'_, '_> {
    /// Membership in the current draw's repair: a target through its
    /// memo, any other fact decided afresh.
    fn contains(&self, fact: FactId) -> bool {
        match self.lookup.get(&(fact.index() as u32)) {
            Some(&t) if t != CONFLICT_FREE => self.target_present(t as usize),
            _ => self.walker.survives(self.key, fact),
        }
    }
}

/// Sorts `paths` lexicographically: by a packed key of their first two
/// targets, which decides most comparisons since most witnesses have one
/// or two conflicting facts, and, among paths that share both, by the
/// whole path.  `keys` is scratch.
fn sort_paths(paths: &mut Vec<&[u32]>, keys: &mut Vec<u128>) {
    let target = |path: &[u32], i: usize| path.get(i).map_or(0, |&t| u128::from(t) + 1);
    keys.clear();
    keys.extend(
        paths
            .iter()
            .enumerate()
            .map(|(i, path)| (target(path, 0) << 96) | (target(path, 1) << 64) | i as u128),
    );
    keys.sort_unstable();
    let sorted: Vec<&[u32]> = keys.iter().map(|&key| paths[key as u64 as usize]).collect();
    *paths = sorted;
    for run in paths.chunk_by_mut(|a, b| a.len() >= 2 && b.len() >= 2 && a[..2] == b[..2]) {
        run.sort_unstable();
    }
}

/// Points `node` past its subtree: at the next node to be pushed.
fn close(nodes: &mut [TrieNode], node: usize) {
    nodes[node].next = nodes.len() as u32;
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
    fn a_witness_that_extends_another_after_its_conflict_free_facts_drop_adds_nothing() {
        // Two key blocks of R and one of T, plus T(4, a) alone.  The
        // witnesses of the query are {R(1,a), R(2,a), T(3,a)} and
        // {R(1,a), R(2,a), T(4,a)}; T(4, a) is conflict-free, so the
        // second reads as the path R(1,a), R(2,a), a prefix of the
        // first's.  The entry holds iff both R facts survive, whatever
        // T(3, a) does, and the pulled check must agree with the full
        // draw on every draw.
        let mut schema = Schema::new();
        schema.add_relation("R", &["K", "V"]).unwrap();
        schema.add_relation("T", &["K", "V"]).unwrap();
        let mut db = Database::with_schema(schema);
        for (relation, k, v) in [
            ("R", 1, "a"),
            ("R", 1, "b"),
            ("R", 2, "a"),
            ("R", 2, "b"),
            ("T", 3, "a"),
            ("T", 3, "b"),
            ("T", 4, "a"),
        ] {
            db.insert_values(relation, [Value::int(k), Value::str(v)])
                .unwrap();
        }
        let mut sigma = FdSet::new();
        for relation in ["R", "T"] {
            sigma.add(
                FunctionalDependency::from_names(db.schema(), relation, &["K"], &["V"]).unwrap(),
            );
        }
        let query = ucqa_query::parser::parse_query(
            db.schema(),
            "Ans() :- R(1, 'a'), R(2, 'a'), T(k, 'a')",
        )
        .unwrap();
        let evaluator = ucqa_query::QueryEvaluator::new(query);
        let bank = LineageBank::compile(&db, &[(&evaluator, &[])]).unwrap();
        assert_eq!(bank.query_witness_count(0), Some(2));
        let walker = OperationWalkSampler::new(&db, &sigma).singleton_only();
        let mut check = PulledCheck::new(&walker, &bank, &BankLiveSet::full(&bank));
        let mut rng = StdRng::seed_from_u64(6);
        let (mut repair, mut scratch) = (FactSet::empty(db.len()), WalkScratch::new());
        let (mut without_t3, mut hits) = (0, 0);
        for _ in 0..400 {
            let mut full_rng = rng.clone();
            check.draw(&mut rng);
            walker.sample_result_into(&mut full_rng, &mut repair, &mut scratch);
            let expected = repair.contains(FactId::new(0)) && repair.contains(FactId::new(2));
            assert_eq!(check.entry_hit(0), expected);
            hits += usize::from(expected);
            without_t3 += usize::from(expected && !repair.contains(FactId::new(4)));
        }
        assert!(
            hits > 0 && without_t3 > 0,
            "{hits} hits, {without_t3} without T(3, a)"
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
