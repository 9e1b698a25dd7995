//! Precomputed incremental conflict index.
//!
//! The uniform-operations walk (Lemmas 7.2 / D.7) repeatedly asks for the
//! justified operations `Ops_s(D, Σ)` of the current sub-database and then
//! removes one or two facts.  Violations are *monotone under removal*:
//! `V(D', Σ)` is exactly the subset of `V(D, Σ)` whose two facts both
//! survive in `D'`.  So instead of rescanning the database on every step
//! (O(|D|) per step, O(|D|²) per walk), the index computes `V(D, Σ)`
//! **once**, stores per-fact adjacency, and maintains the live operation
//! sets incrementally:
//!
//! * [`ConflictIndex`] — the immutable part, built once per `(D, Σ)`:
//!   the violations, the deduplicated conflicting pairs, one CSR
//!   neighbour list per fact (each entry a conflicting fact and the id of
//!   their pair), the singleton / pair operation universe, and the
//!   **component partition** of the conflict graph (CSR
//!   `component → facts` and `component → pair ids`, plus
//!   `component_of(fact)`).  Shareable across threads.
//! * [`LiveOps`] — the mutable cursor owned by each walk: the live
//!   sub-database, per-fact counts of live conflicting neighbours, and the
//!   live singleton (and, optionally, pair) operation sets as dense
//!   swap-remove arrays, so a uniform pick over `Ops_s(D, Σ)` is O(1) and
//!   [`LiveOps::remove_fact`] is one pass over the removed fact's
//!   neighbours.  [`LiveOps::reset_component`] starts a walk of one
//!   component alone, in O(component size).
//!
//! A live fact is a justified singleton operation iff it has a live
//! conflicting neighbour, so several FDs violating the same pair count
//! once: the walk never needs the violations themselves.
//!
//! Every singleton or pair operation lies inside one conflict component,
//! so the walk projected onto a component is that component's own walk;
//! the keyed walk of `ucqa_core::sample_operations` walks each component
//! on its own and can therefore skip the components a query cannot see.
//! Components are numbered in order of their smallest fact id, so their
//! ordinals survive any order-preserving renumbering of the fact ids.

use crate::{Database, FactChange, FactId, FactSet, FdSet, Violation, ViolationSet};

/// Sentinel marking a fact/pair as absent from its dense live array.
const NOT_LIVE: u32 = u32::MAX;

/// Merges two sorted, deduplicated, element-disjoint runs into one sorted
/// list — the linear canonicalisation step of [`ConflictIndex::refresh`].
/// Equal elements would indicate a broken disjointness invariant; they are
/// collapsed (and rejected under `debug_assertions`) so the output stays
/// canonical regardless.
fn merge_disjoint_sorted<T: Ord + Copy>(a: Vec<T>, b: Vec<T>) -> Vec<T> {
    debug_assert!(a.is_sorted() && b.is_sorted(), "runs must be sorted");
    if b.is_empty() {
        return a;
    }
    if a.is_empty() {
        return b;
    }
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                merged.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                merged.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                debug_assert!(false, "the merged runs must be disjoint");
                merged.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&a[i..]);
    merged.extend_from_slice(&b[j..]);
    merged
}

/// The immutable conflict structure of `(D, Σ)`, precomputed once.
///
/// Holds `V(D, Σ)` plus the adjacency needed to maintain the justified
/// operation sets of any sub-database reached by removals.  All state that
/// changes during a walk lives in [`LiveOps`], so one `ConflictIndex` can
/// back any number of concurrent walks.
///
/// A [`ConflictIndex::build`]-created index remembers the database
/// version it describes and can be brought up to date with
/// [`ConflictIndex::refresh`], which replays the fact-level changelog
/// instead of recomputing `V(D, Σ)` from scratch; the refreshed index is
/// structurally equal to a fresh build (the property-tested oracle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictIndex {
    universe: usize,
    /// The [`Database::version`] this index describes (the changelog
    /// cursor [`ConflictIndex::refresh`] resumes from).
    version: u64,
    /// `V(D, Σ)`, canonically sorted.
    violations: Vec<Violation>,
    /// The deduplicated conflicting pairs (the pair-operation universe),
    /// canonically sorted.
    pairs: Vec<(FactId, FactId)>,
    /// CSR offsets into [`ConflictIndex::neighbours`] (length
    /// `universe + 1`).
    neighbour_offsets: Vec<u32>,
    /// Per fact, in pair-id order: each conflicting fact and the id of
    /// the pair the two form.
    neighbours: Vec<(FactId, u32)>,
    /// Facts involved in at least one violation (the singleton-operation
    /// universe), sorted.
    conflicting: Vec<FactId>,
    /// The connected components of the conflict graph.
    partition: ComponentPartition,
}

/// The connected components of a conflict graph as CSR arrays, numbered
/// in order of their smallest fact id.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ComponentPartition {
    /// Per fact: its component, or [`NOT_LIVE`] for a fact in no
    /// violation.
    of: Vec<u32>,
    /// CSR offsets into `facts` (length `components + 1`).
    fact_offsets: Vec<u32>,
    /// Each component's facts, ascending.
    facts: Vec<FactId>,
    /// CSR offsets into `pairs` (length `components + 1`).
    pair_offsets: Vec<u32>,
    /// Each component's pair ids, ascending.
    pairs: Vec<u32>,
}

impl ComponentPartition {
    /// Groups the `conflicting` facts (sorted) by reachability over
    /// `pairs` with one union-find pass.
    fn compute(universe: usize, conflicting: &[FactId], pairs: &[(FactId, FactId)]) -> Self {
        // Path halving; linking the larger root under the smaller keeps
        // every root the smallest fact id of its set, and every parent at
        // most its child.
        let mut parent: Vec<u32> = (0..universe as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        for &(a, b) in pairs {
            let (ra, rb) = (
                find(&mut parent, a.index() as u32),
                find(&mut parent, b.index() as u32),
            );
            if ra != rb {
                parent[ra.max(rb) as usize] = ra.min(rb);
            }
        }
        // Relabel `parent` into the component map in ascending order: a
        // fact is either its set's root (a new component) or points to a
        // smaller member of its set, which already holds its component.
        let mut of = parent;
        let mut count = 0;
        let mut next = 0;
        for &fact in conflicting {
            let f = fact.index();
            of[next..f].fill(NOT_LIVE);
            next = f + 1;
            of[f] = if of[f] as usize == f {
                count += 1;
                count - 1
            } else {
                of[of[f] as usize]
            };
        }
        of[next..].fill(NOT_LIVE);
        let component = |fact: FactId| of[fact.index()] as usize;
        let (fact_offsets, facts) = group_by_key(
            count as usize,
            FactId::new(0),
            conflicting.iter().map(|&fact| (component(fact), fact)),
        );
        let (pair_offsets, pairs) = group_by_key(
            count as usize,
            0,
            (0..).zip(pairs).map(|(id, &(a, _))| (component(a), id)),
        );
        ComponentPartition {
            of,
            fact_offsets,
            facts,
            pair_offsets,
            pairs,
        }
    }
}

/// Counting sort into CSR form: the `(key, value)` items grouped by key
/// in `0..keys`, each group in input order.  Returns the `keys + 1`
/// offsets and the grouped values.
fn group_by_key<T: Copy>(
    keys: usize,
    zero: T,
    items: impl Iterator<Item = (usize, T)> + Clone,
) -> (Vec<u32>, Vec<T>) {
    let mut offsets = vec![0u32; keys + 1];
    for (key, _) in items.clone() {
        offsets[key + 1] += 1;
    }
    for key in 0..keys {
        offsets[key + 1] += offsets[key];
    }
    let mut values = vec![zero; offsets[keys] as usize];
    let mut cursor = offsets.clone();
    for (key, value) in items {
        values[cursor[key] as usize] = value;
        cursor[key] += 1;
    }
    (offsets, values)
}

impl ConflictIndex {
    /// Builds the index of `db` w.r.t. `sigma`, computing `V(D, Σ)` once.
    pub fn build(db: &Database, sigma: &FdSet) -> Self {
        let violations = ViolationSet::of_database(db, sigma);
        Self::assemble(db.len(), db.version(), violations.violations().to_vec())
    }

    /// Builds the index over `universe` facts from a precomputed violation
    /// set of the **full** database.
    ///
    /// The index carries version 0; only [`ConflictIndex::build`]-created
    /// indexes track the database version for [`ConflictIndex::refresh`].
    pub fn from_violations(universe: usize, violations: &ViolationSet) -> Self {
        Self::assemble(universe, 0, violations.violations().to_vec())
    }

    /// Assembles the CSR structure from a canonically sorted, deduplicated
    /// violation list — the shared tail of [`ConflictIndex::build`] and
    /// [`ConflictIndex::refresh`], so a refreshed index is reassembled
    /// exactly like a fresh one.
    fn assemble(universe: usize, version: u64, violations: Vec<Violation>) -> Self {
        // Deduplicated pair universe (several FDs may violate the same
        // pair).
        let mut pairs: Vec<(FactId, FactId)> = violations.iter().map(Violation::pair).collect();
        pairs.sort_unstable();
        pairs.dedup();
        Self::assemble_with_pairs(universe, version, violations, pairs)
    }

    /// As [`ConflictIndex::assemble`], with the deduplicated, sorted pair
    /// universe already computed — [`ConflictIndex::refresh`] obtains it
    /// by merging sorted runs instead of re-sorting `2|V|` pairs.
    fn assemble_with_pairs(
        universe: usize,
        version: u64,
        violations: Vec<Violation>,
        pairs: Vec<(FactId, FactId)>,
    ) -> Self {
        debug_assert!(violations.is_sorted(), "violations must be canonical");
        debug_assert!(pairs.is_sorted(), "pairs must be canonical");

        // CSR adjacency fact → (neighbour, pair id) (two passes: count,
        // fill).
        let mut neighbour_offsets = vec![0u32; universe + 1];
        for &(a, b) in &pairs {
            neighbour_offsets[a.index() + 1] += 1;
            neighbour_offsets[b.index() + 1] += 1;
        }
        for i in 0..universe {
            neighbour_offsets[i + 1] += neighbour_offsets[i];
        }
        let mut neighbours = vec![(FactId::new(0), 0u32); pairs.len() * 2];
        let mut cursor = neighbour_offsets.clone();
        for (id, &(a, b)) in (0..).zip(&pairs) {
            for (fact, other) in [(a, b), (b, a)] {
                neighbours[cursor[fact.index()] as usize] = (other, id);
                cursor[fact.index()] += 1;
            }
        }

        let conflicting: Vec<FactId> = (0..universe)
            .filter(|&f| neighbour_offsets[f + 1] > neighbour_offsets[f])
            .map(FactId::new)
            .collect();
        let partition = ComponentPartition::compute(universe, &conflicting, &pairs);

        ConflictIndex {
            universe,
            version,
            violations,
            pairs,
            neighbour_offsets,
            neighbours,
            conflicting,
            partition,
        }
    }

    /// Brings a [`ConflictIndex::build`]-created index up to date with
    /// `db` by replaying the fact-level changelog since the index's
    /// version, returning the number of changes applied.
    ///
    /// Violations are *local*: a violation of the current database either
    /// survives from the old one (neither endpoint was deleted — an O(|V|)
    /// filter) or touches a fact inserted since (discovered through the
    /// maintained [`crate::RelationIndex`]'s posting runs, looking only at
    /// the blocks of the inserted facts).  Survivors keep the canonical
    /// order of the old list and a delta violation always touches a fact
    /// that did not exist at the old version, so the two runs are disjoint
    /// and a linear merge (no re-sort of `|V|` elements) canonicalises the
    /// result; the pair universe is maintained the same way.  The CSR
    /// adjacency is then reassembled, so the result is structurally equal
    /// to `ConflictIndex::build(db, sigma)` — at a cost proportional to
    /// the delta plus `|V|`, not to `|D|`.
    pub fn refresh(&mut self, db: &Database, sigma: &FdSet) -> usize {
        let changes = db.changes_since(self.version);
        if changes.is_empty() {
            return 0;
        }
        let applied = changes.len();
        // Partition the delta: tombstoned ids kill old violations;
        // still-live inserted facts may found new ones.  (A fact inserted
        // and deleted again within the window is marked deleted and
        // filtered from `inserted` by the liveness check.)
        let mut deleted = vec![false; db.len()];
        let mut inserted: Vec<FactId> = Vec::new();
        for change in changes {
            match change {
                FactChange::Inserted(id) => {
                    if db.is_live(*id) {
                        inserted.push(*id);
                    }
                }
                FactChange::Deleted { id, .. } => deleted[id.index()] = true,
            }
        }
        // The filter preserves the canonical order of the old list.
        let survivors: Vec<Violation> = self
            .violations
            .iter()
            .filter(|v| !deleted[v.first.index()] && !deleted[v.second.index()])
            .copied()
            .collect();
        // Every violation of the current database that is not a survivor
        // touches an inserted fact (two live old facts violating an FD
        // already violated it at the old version).  Probe each inserted
        // fact's LHS block through the relation index; pairs of two
        // inserted facts are discovered twice and deduplicated below.
        let mut fresh: Vec<Violation> = Vec::new();
        let index = db.relation_index();
        for &f in &inserted {
            let relation = db.relation_of(f);
            let columns = db.columns_of(relation);
            let row_f = db.row_of(f);
            for (fd_id, fd) in sigma.iter() {
                if fd.relation() != relation {
                    continue;
                }
                let mut lhs = fd.lhs().iter().map(|a| a.index());
                let first = lhs.next().expect("FDs have a non-empty LHS");
                let rest: Vec<usize> = lhs.collect();
                for &g in index.matches(relation, first, columns[first][row_f]) {
                    if g == f {
                        continue;
                    }
                    let row_g = db.row_of(g);
                    let same_lhs = rest
                        .iter()
                        .all(|&attr| columns[attr][row_g] == columns[attr][row_f]);
                    let rhs_differs = fd
                        .rhs()
                        .iter()
                        .any(|r| columns[r.index()][row_g] != columns[r.index()][row_f]);
                    if same_lhs && rhs_differs {
                        fresh.push(Violation::new(fd_id, f, g));
                    }
                }
            }
        }
        // Only the delta is sorted; the big list is reassembled by a
        // linear merge.  A fresh violation involves a fact inserted in the
        // window, and a re-inserted (revived) id is marked `deleted` — its
        // old violations left `survivors` and are rediscovered fresh — so
        // the runs never share an element.
        fresh.sort_unstable();
        fresh.dedup();
        // The pair universe keeps a pair iff both endpoints are live (then
        // every old violation on it survived) and gains the fresh pairs,
        // disjoint for the same reason.
        let surviving_pairs: Vec<(FactId, FactId)> = self
            .pairs
            .iter()
            .filter(|(a, b)| !deleted[a.index()] && !deleted[b.index()])
            .copied()
            .collect();
        let mut fresh_pairs: Vec<(FactId, FactId)> = fresh.iter().map(Violation::pair).collect();
        fresh_pairs.sort_unstable();
        fresh_pairs.dedup();
        let violations = merge_disjoint_sorted(survivors, fresh);
        let pairs = merge_disjoint_sorted(surviving_pairs, fresh_pairs);
        *self = ConflictIndex::assemble_with_pairs(db.len(), db.version(), violations, pairs);
        applied
    }

    /// The size of the fact universe.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The [`Database::version`] this index describes (0 for indexes built
    /// via [`ConflictIndex::from_violations`]).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// `V(D, Σ)` of the full database, canonically sorted.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The deduplicated pair-operation universe of the full database.
    pub fn pairs(&self) -> &[(FactId, FactId)] {
        &self.pairs
    }

    /// The singleton-operation universe of the full database: the facts
    /// involved in at least one violation, sorted.
    pub fn conflicting_facts(&self) -> &[FactId] {
        &self.conflicting
    }

    /// The number of facts `fact` conflicts with in the full database —
    /// its degree in the conflict graph, as
    /// [`crate::ConflictGraph::degree`].  A pair violating several FDs
    /// counts once.
    pub fn degree(&self, fact: FactId) -> usize {
        self.neighbours_of(fact).len()
    }

    /// The facts `fact` conflicts with, each with the id of their pair,
    /// in pair-id order.
    fn neighbours_of(&self, fact: FactId) -> &[(FactId, u32)] {
        let start = self.neighbour_offsets[fact.index()] as usize;
        let end = self.neighbour_offsets[fact.index() + 1] as usize;
        &self.neighbours[start..end]
    }

    /// The number of connected components of the conflict graph.
    pub fn component_count(&self) -> usize {
        self.partition.fact_offsets.len() - 1
    }

    /// The facts of component `component`, ascending.
    ///
    /// # Panics
    /// Panics if `component` is out of range.
    pub fn component(&self, component: usize) -> &[FactId] {
        let offsets = &self.partition.fact_offsets;
        &self.partition.facts[offsets[component] as usize..offsets[component + 1] as usize]
    }

    /// The pair ids of component `component`, ascending.
    fn component_pairs(&self, component: usize) -> &[u32] {
        let offsets = &self.partition.pair_offsets;
        &self.partition.pairs[offsets[component] as usize..offsets[component + 1] as usize]
    }

    /// The component of `fact`, or `None` for a fact in no violation
    /// (conflict-free or deleted) or outside the universe.
    pub fn component_of(&self, fact: FactId) -> Option<usize> {
        self.partition
            .of
            .get(fact.index())
            .filter(|&&c| c != NOT_LIVE)
            .map(|&c| c as usize)
    }

    /// The connected components of the conflict graph: facts involved in
    /// at least one violation, grouped by reachability over conflicting
    /// pairs.  Each component is sorted ascending; components are sorted
    /// by their smallest fact id, so component `c` is
    /// [`ConflictIndex::component`]`(c)`.  Conflict-free facts belong to no
    /// component (they survive every repair and play no role in the
    /// repairing process).
    pub fn components(&self) -> Vec<Vec<FactId>> {
        (0..self.component_count())
            .map(|c| self.component(c).to_vec())
            .collect()
    }

    /// The conflict structure of the indexed state: a stable digest of
    /// each fact's conflict component, plus a fingerprint of the whole
    /// component list.  See [`ConflictStructure`].
    pub fn structure(&self) -> ConflictStructure {
        ConflictStructure::of(self)
    }
}

/// A digest view of a [`ConflictIndex`]'s conflict-graph components,
/// built once per refresh and consumed by lineage fingerprinting.
///
/// The repair distribution a fact is subject to is determined by its
/// conflict component (under uniform repairs and uniform operations the
/// per-component marginals are independent of the rest of the database;
/// under uniform sequences they additionally depend on the global
/// component structure — see [`ConflictStructure::fingerprint`]).  Two
/// database states assign a fact equal digests iff the fact's component
/// holds the same fact ids, so an estimate that depends only on a set of
/// facts and their components can be proven unchanged across a delta by
/// comparing digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictStructure {
    /// Per fact id: a 64-bit FNV-1a digest of the sorted id-list of the
    /// fact's conflict component, or the digest of `[id]` for a
    /// conflict-free fact (its "component" is the fact alone).
    digests: Vec<u64>,
    /// A digest of the entire component list, in canonical order.
    fingerprint: u64,
}

impl ConflictStructure {
    fn of(index: &ConflictIndex) -> Self {
        let mut digests: Vec<u64> = (0..index.universe)
            .map(|id| {
                let mut h = Fnv::new();
                h.mix(1);
                h.mix(id as u64);
                h.finish()
            })
            .collect();
        let mut global = Fnv::new();
        global.mix(index.component_count() as u64);
        for c in 0..index.component_count() {
            let component = index.component(c);
            let mut h = Fnv::new();
            h.mix(component.len() as u64);
            for &fact in component {
                h.mix(fact.index() as u64);
            }
            let digest = h.finish();
            global.mix(digest);
            for &fact in component {
                digests[fact.index()] = digest;
            }
        }
        ConflictStructure {
            digests,
            fingerprint: global.finish(),
        }
    }

    /// The component digest of `fact` (the digest of `[fact]` itself if
    /// it conflicts with nothing).
    pub fn digest(&self, fact: FactId) -> u64 {
        self.digests[fact.index()]
    }

    /// A fingerprint of the whole conflict-component structure: equal
    /// across two states iff they hold the same components over the same
    /// fact ids.  Conflict-free facts do not participate, so consistent
    /// churn leaves the fingerprint intact.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// A minimal incremental FNV-1a hasher over little-endian `u64` words.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn mix(&mut self, value: u64) {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// The mutable state of one walk over a [`ConflictIndex`]: the live
/// sub-database plus the live operation sets `Ops_s(D, Σ)`, maintained
/// incrementally under fact removal.
///
/// The singleton set holds the live facts with at least one live
/// conflicting neighbour; the pair set, when the reset asked for pairs,
/// holds the pair ids whose two facts are both live.  Both are dense
/// arrays with positional back-pointers, so membership updates are O(1)
/// swap-removes and a uniform draw is a single `random_range` plus an
/// array read.
///
/// A default-constructed `LiveOps` owns no buffers; the first
/// [`LiveOps::reset_full`], [`LiveOps::reset_component`] or
/// [`LiveOps::reset_to`] sizes them, and later resets reuse the
/// allocations (the walk hot loop is allocation-free).
#[derive(Debug, Clone, Default)]
pub struct LiveOps {
    /// The live sub-database `D'`.
    live: FactSet,
    /// Per fact: the number of live facts it conflicts with (zero for a
    /// removed fact, so `degree[f] != 0` iff `f` is a live singleton).
    degree: Vec<u32>,
    /// Dense array of live singleton operations (facts with `degree > 0`).
    singles: Vec<FactId>,
    /// Per fact: its position in `singles`, or [`NOT_LIVE`].
    single_pos: Vec<u32>,
    /// Whether the last reset asked for the pair set; without it `pairs`
    /// stays empty and `pair_pos` is never read or written.
    track_pairs: bool,
    /// Dense array of live pair operations (pair ids).
    pairs: Vec<u32>,
    /// Per pair id: its position in `pairs`, or [`NOT_LIVE`].
    pair_pos: Vec<u32>,
}

impl LiveOps {
    /// Creates an empty cursor (no buffers allocated yet).
    pub fn new() -> Self {
        LiveOps::default()
    }

    /// Clears any state left by a previous (possibly abandoned) walk,
    /// restoring the invariant that every `single_pos`/`pair_pos` entry is
    /// [`NOT_LIVE`] and every degree is zero, then sizes the buffers for
    /// `index` (the pair positions only when `pairs` is set).
    /// O(current live operations) — the positional arrays are only ever
    /// written through `singles` / `pairs`, so clearing those entries
    /// suffices even when the reset targets a **different**
    /// [`ConflictIndex`].
    fn prepare(&mut self, index: &ConflictIndex, pairs: bool) {
        for &fact in &self.singles {
            self.single_pos[fact.index()] = NOT_LIVE;
            self.degree[fact.index()] = 0;
        }
        self.singles.clear();
        for &pair in &self.pairs {
            self.pair_pos[pair as usize] = NOT_LIVE;
        }
        self.pairs.clear();
        if self.live.universe() != index.universe {
            self.live = FactSet::empty(index.universe);
            self.degree = vec![0; index.universe];
            self.single_pos = vec![NOT_LIVE; index.universe];
        }
        if pairs && self.pair_pos.len() != index.pairs.len() {
            self.pair_pos = vec![NOT_LIVE; index.pairs.len()];
        }
        self.track_pairs = pairs;
    }

    /// Opens `facts` as live singletons at their full-database degrees.
    fn open_singles(&mut self, index: &ConflictIndex, facts: &[FactId]) {
        for (position, &fact) in (0..).zip(facts) {
            self.degree[fact.index()] = index.degree(fact) as u32;
            self.single_pos[fact.index()] = position;
            self.singles.push(fact);
        }
    }

    /// Opens the pair ids `pairs` as live pair operations.
    fn open_pairs(&mut self, pairs: impl IntoIterator<Item = u32>) {
        for (position, pair) in (0..).zip(pairs) {
            self.pair_pos[pair as usize] = position;
            self.pairs.push(pair);
        }
    }

    /// Resets to the full database: every fact live, every singleton
    /// operation of the universe available, and every pair operation too
    /// when `pairs` is set (a singleton walk passes `false` and keeps no
    /// pair set).  O(conflicting facts + |D|/64), plus the pairs if kept.
    pub fn reset_full(&mut self, index: &ConflictIndex, pairs: bool) {
        self.prepare(index, pairs);
        self.live.fill();
        self.open_singles(index, &index.conflicting);
        if pairs {
            self.open_pairs(0..index.pairs.len() as u32);
        }
    }

    /// Resets to the start of component `component`'s own walk: every
    /// fact of the component live, and exactly the component's singleton
    /// operations available, plus its pair operations when `pairs` is set.
    /// O(component facts), plus the component's pairs if kept, plus a
    /// one-off O(|D|) sizing when the buffers first meet `index`'s
    /// universe.
    ///
    /// Only the component's facts are written to [`LiveOps::live`]; facts
    /// outside it keep whatever an earlier walk left there, and no
    /// operation touches them.
    ///
    /// # Panics
    /// Panics if `component` is out of range.
    pub fn reset_component(&mut self, index: &ConflictIndex, component: usize, pairs: bool) {
        self.prepare(index, pairs);
        let facts = index.component(component);
        for &fact in facts {
            self.live.insert(fact);
        }
        self.open_singles(index, facts);
        if pairs {
            self.open_pairs(index.component_pairs(component).iter().copied());
        }
    }

    /// Resets to an arbitrary sub-database `subset ⊆ D`, pair set
    /// included.  O(conflicting facts + pairs + |D|/64); used by the
    /// diagnostics APIs, not by the walk hot loop.
    ///
    /// # Panics
    /// Panics if `subset`'s universe differs from the index's.
    pub fn reset_to(&mut self, index: &ConflictIndex, subset: &FactSet) {
        assert_eq!(
            subset.universe(),
            index.universe,
            "subset universe mismatch"
        );
        self.prepare(index, true);
        self.live.copy_from(subset);
        for (pair, &(a, b)) in index.pairs.iter().enumerate() {
            if self.live.contains(a) && self.live.contains(b) {
                self.degree[a.index()] += 1;
                self.degree[b.index()] += 1;
                self.pair_pos[pair] = self.pairs.len() as u32;
                self.pairs.push(pair as u32);
            }
        }
        for &fact in &index.conflicting {
            if self.degree[fact.index()] > 0 {
                self.single_pos[fact.index()] = self.singles.len() as u32;
                self.singles.push(fact);
            }
        }
    }

    /// Removes a live fact in one pass over its conflicting neighbours:
    /// each live neighbour loses one live neighbour and leaves the
    /// singleton set at zero, and each live pair touching the fact dies
    /// (when pairs are tracked).
    ///
    /// # Panics
    /// Panics if `fact` is not live.
    pub fn remove_fact(&mut self, index: &ConflictIndex, fact: FactId) {
        let was_live = self.live.remove(fact);
        assert!(was_live, "removed a fact that is not live");
        self.retire_single(fact);
        self.degree[fact.index()] = 0;
        for &(other, pair) in index.neighbours_of(fact) {
            // A neighbour with a nonzero count is live, so the pair was
            // live until this call; a removed neighbour's count is zero.
            let degree = &mut self.degree[other.index()];
            if *degree == 0 {
                continue;
            }
            *degree -= 1;
            if *degree == 0 {
                self.retire_single(other);
            }
            if self.track_pairs {
                self.retire_pair(pair);
            }
        }
    }

    /// Swap-removes `fact` from the singleton set, if present.
    fn retire_single(&mut self, fact: FactId) {
        let position = self.single_pos[fact.index()];
        if position == NOT_LIVE {
            return;
        }
        self.single_pos[fact.index()] = NOT_LIVE;
        let last = self.singles.pop().expect("a positioned fact is present");
        if (position as usize) < self.singles.len() {
            self.singles[position as usize] = last;
            self.single_pos[last.index()] = position;
        }
    }

    /// Swap-removes a pair id from the pair set, if present.
    fn retire_pair(&mut self, pair: u32) {
        let position = self.pair_pos[pair as usize];
        if position == NOT_LIVE {
            return;
        }
        self.pair_pos[pair as usize] = NOT_LIVE;
        let last = self.pairs.pop().expect("a positioned pair is present");
        if (position as usize) < self.pairs.len() {
            self.pairs[position as usize] = last;
            self.pair_pos[last as usize] = position;
        }
    }

    /// The live sub-database `D'`.
    pub fn live(&self) -> &FactSet {
        &self.live
    }

    /// Number of live singleton operations (= live conflicting facts).
    pub fn single_count(&self) -> usize {
        self.singles.len()
    }

    /// Number of live pair operations (zero when the last reset kept no
    /// pair set).
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// The `i`-th live singleton operation (arbitrary but stable order
    /// between mutations).
    pub fn single(&self, i: usize) -> FactId {
        self.singles[i]
    }

    /// The `i`-th live pair operation.
    pub fn pair(&self, index: &ConflictIndex, i: usize) -> (FactId, FactId) {
        index.pairs[self.pairs[i] as usize]
    }

    /// The live singleton operations (unsorted).
    pub fn live_singles(&self) -> &[FactId] {
        &self.singles
    }

    /// The live pair operations (unsorted), resolved against the index.
    pub fn live_pairs<'a>(
        &'a self,
        index: &'a ConflictIndex,
    ) -> impl Iterator<Item = (FactId, FactId)> + 'a {
        self.pairs.iter().map(|&p| index.pairs[p as usize])
    }

    /// Returns `true` iff the live sub-database is consistent, i.e. no
    /// justified operation remains.
    pub fn is_consistent(&self) -> bool {
        self.singles.is_empty()
    }

    /// The live violations, i.e. `V(D', Σ)` for the current sub-database
    /// (for diagnostics and cross-checking tests).
    pub fn live_violations<'a>(
        &'a self,
        index: &'a ConflictIndex,
    ) -> impl Iterator<Item = &'a Violation> + 'a {
        index
            .violations
            .iter()
            .filter(|v| self.live.contains(v.first) && self.live.contains(v.second))
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

    /// Sorted copies of the live operation sets.
    fn sorted_state(index: &ConflictIndex, ops: &LiveOps) -> (Vec<FactId>, Vec<(FactId, FactId)>) {
        let mut singles = ops.live_singles().to_vec();
        singles.sort();
        let mut pairs: Vec<(FactId, FactId)> = ops.live_pairs(index).collect();
        pairs.sort();
        (singles, pairs)
    }

    #[test]
    fn full_reset_matches_figure1_root_operations() {
        let (db, sigma) = running_example();
        let index = ConflictIndex::build(&db, &sigma);
        assert_eq!(index.universe(), 3);
        assert_eq!(index.violations().len(), 2);
        assert_eq!(index.pairs().len(), 2);
        let mut ops = LiveOps::new();
        ops.reset_full(&index, true);
        // Root of Figure 1: -f1, -f2, -f3, -{f1,f2}, -{f2,f3}.
        let (singles, pairs) = sorted_state(&index, &ops);
        assert_eq!(
            singles,
            vec![FactId::new(0), FactId::new(1), FactId::new(2)]
        );
        assert_eq!(
            pairs,
            vec![
                (FactId::new(0), FactId::new(1)),
                (FactId::new(1), FactId::new(2))
            ]
        );
        assert!(!ops.is_consistent());
        assert_eq!(ops.live_violations(&index).count(), 2);
    }

    #[test]
    fn removing_the_middle_fact_kills_everything() {
        let (db, sigma) = running_example();
        let index = ConflictIndex::build(&db, &sigma);
        let mut ops = LiveOps::new();
        ops.reset_full(&index, true);
        // f2 (id 1) is in both violations; removing it repairs the
        // database in one step.
        ops.remove_fact(&index, FactId::new(1));
        assert!(ops.is_consistent());
        assert_eq!(ops.single_count(), 0);
        assert_eq!(ops.pair_count(), 0);
        assert_eq!(ops.live().len(), 2);
        assert_eq!(ops.live_violations(&index).count(), 0);
    }

    #[test]
    fn removing_an_endpoint_keeps_the_other_violation() {
        let (db, sigma) = running_example();
        let index = ConflictIndex::build(&db, &sigma);
        let mut ops = LiveOps::new();
        ops.reset_full(&index, true);
        // Removing f1 kills the φ1 violation {f1, f2}; {f2, f3} survives.
        ops.remove_fact(&index, FactId::new(0));
        assert!(!ops.is_consistent());
        let (singles, pairs) = sorted_state(&index, &ops);
        assert_eq!(singles, vec![FactId::new(1), FactId::new(2)]);
        assert_eq!(pairs, vec![(FactId::new(1), FactId::new(2))]);
        assert_eq!(ops.pair(&index, 0), (FactId::new(1), FactId::new(2)));
    }

    #[test]
    fn reset_to_matches_recompute_on_all_subsets() {
        let (db, sigma) = running_example();
        let index = ConflictIndex::build(&db, &sigma);
        let mut ops = LiveOps::new();
        for mask in 0u32..(1 << db.len()) {
            let subset = FactSet::from_iter(
                db.len(),
                (0..db.len())
                    .filter(|i| (mask >> i) & 1 == 1)
                    .map(FactId::new),
            );
            ops.reset_to(&index, &subset);
            let violations = ViolationSet::compute(&db, &sigma, &subset);
            let (singles, pairs) = sorted_state(&index, &ops);
            assert_eq!(singles, violations.conflicting_facts(), "mask {mask:b}");
            assert_eq!(pairs, violations.conflicting_pairs(), "mask {mask:b}");
        }
    }

    #[test]
    fn incremental_removal_matches_recompute() {
        let (db, sigma) = running_example();
        let index = ConflictIndex::build(&db, &sigma);
        let mut ops = LiveOps::new();
        // Remove facts one at a time in every order, with and without the
        // pair set (the cursor is reused across modes); after each removal
        // the incremental state must match a from-scratch recompute.
        for track_pairs in [true, false, true] {
            for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [2, 1, 0], [2, 0, 1]] {
                ops.reset_full(&index, track_pairs);
                let mut subset = db.all_facts();
                for fact in order {
                    ops.remove_fact(&index, FactId::new(fact));
                    subset.remove(FactId::new(fact));
                    let violations = ViolationSet::compute(&db, &sigma, &subset);
                    let (singles, pairs) = sorted_state(&index, &ops);
                    let context = format!("order {order:?}, pairs {track_pairs}");
                    assert_eq!(singles, violations.conflicting_facts(), "{context}");
                    if track_pairs {
                        assert_eq!(pairs, violations.conflicting_pairs(), "{context}");
                    } else {
                        assert_eq!(ops.pair_count(), 0, "{context}");
                    }
                    assert_eq!(ops.live(), &subset);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn double_removal_panics() {
        let (db, sigma) = running_example();
        let index = ConflictIndex::build(&db, &sigma);
        let mut ops = LiveOps::new();
        ops.reset_full(&index, true);
        ops.remove_fact(&index, FactId::new(0));
        ops.remove_fact(&index, FactId::new(0));
    }

    #[test]
    fn same_pair_violating_two_fds_is_one_pair_operation() {
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
        let index = ConflictIndex::build(&db, &sigma);
        assert_eq!(index.violations().len(), 2);
        assert_eq!(index.pairs().len(), 1);
        let mut ops = LiveOps::new();
        ops.reset_full(&index, true);
        assert_eq!(ops.single_count(), 2);
        assert_eq!(ops.pair_count(), 1);
        // The pair is one conflicting neighbour, not two: both violations
        // die with one endpoint, the pair dies too, and the surviving fact
        // leaves the singleton set exactly once.
        assert_eq!(index.degree(FactId::new(1)), 1);
        ops.remove_fact(&index, FactId::new(0));
        assert!(ops.is_consistent());
        assert_eq!(ops.pair_count(), 0);
    }

    #[test]
    fn abandoned_walk_state_does_not_leak_across_indexes() {
        // An abandoned mid-walk cursor reset against a *different* index of
        // the same universe must not inherit stale positions or degrees.
        let (db_a, sigma_a) = running_example();
        let index_a = ConflictIndex::build(&db_a, &sigma_a);
        // Same universe (3 facts), different conflict structure: only
        // f0/f1 conflict under A → B, f2 is conflict-free.
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        let mut db_b = Database::with_schema(schema);
        db_b.insert_values("R", [Value::int(1), Value::int(1)])
            .unwrap();
        db_b.insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        db_b.insert_values("R", [Value::int(2), Value::int(1)])
            .unwrap();
        let mut sigma_b = FdSet::new();
        sigma_b.add(FunctionalDependency::from_names(db_b.schema(), "R", &["A"], &["B"]).unwrap());
        let index_b = ConflictIndex::build(&db_b, &sigma_b);

        let mut reused = LiveOps::new();
        reused.reset_full(&index_a, true);
        // Abandon mid-walk: f2 still live with stale position/degree.
        reused.remove_fact(&index_a, FactId::new(0));
        reused.reset_full(&index_b, true);
        let mut fresh = LiveOps::new();
        fresh.reset_full(&index_b, true);
        let (reused_state, fresh_state) = (
            sorted_state(&index_b, &reused),
            sorted_state(&index_b, &fresh),
        );
        assert_eq!(reused_state, fresh_state);
        // Removing the conflict-free fact must leave the singles intact.
        reused.remove_fact(&index_b, FactId::new(2));
        assert_eq!(reused.single_count(), 2);
        assert_eq!(reused.pair_count(), 1);
        // And reset_to after an abandoned walk is clean as well.
        reused.reset_to(&index_a, &db_a.all_facts());
        fresh.reset_to(&index_a, &db_a.all_facts());
        assert_eq!(
            sorted_state(&index_a, &reused),
            sorted_state(&index_a, &fresh)
        );
    }

    #[test]
    fn refresh_replays_the_changelog_and_matches_a_fresh_build() {
        let (mut db, sigma) = running_example();
        let mut index = ConflictIndex::build(&db, &sigma);
        assert_eq!(index.version(), db.version());
        // Nothing changed: refresh is a no-op.
        assert_eq!(index.refresh(&db, &sigma), 0);

        // Insert a fact extending the a1-block (new violations against f1
        // and f2) and delete f3 (kills the φ2 violation {f2, f3}).
        db.insert_values("R", [Value::str("a1"), Value::str("b3"), Value::str("c3")])
            .unwrap();
        db.delete(FactId::new(2)).unwrap();
        assert_eq!(index.refresh(&db, &sigma), 2);
        assert_eq!(index, ConflictIndex::build(&db, &sigma));
        assert_eq!(index.universe(), 4);
        // {f1, f4} under φ1 (b1 ≠ b3), {f2, f4} under φ1 (b2 ≠ b3); the
        // old {f1, f2} survives; {f2, f3} died with f3.
        assert_eq!(index.violations().len(), 3);
        assert!(index
            .violations()
            .iter()
            .all(|v| !v.involves(FactId::new(2))));

        // A fact inserted and deleted again within the window leaves no
        // trace, and a second refresh from the new cursor is a no-op.
        let ephemeral = db
            .insert_values("R", [Value::str("a9"), Value::str("x"), Value::str("y")])
            .unwrap();
        db.delete(ephemeral).unwrap();
        assert_eq!(index.refresh(&db, &sigma), 2);
        assert_eq!(index, ConflictIndex::build(&db, &sigma));
        assert_eq!(index.refresh(&db, &sigma), 0);

        // A refreshed index backs walks exactly like a fresh one.
        let mut ops = LiveOps::new();
        ops.reset_full(&index, true);
        assert!(!ops.is_consistent());
    }

    #[test]
    fn refresh_discovers_composite_lhs_violations() {
        // FD with a two-attribute LHS: the refresh probe filters the first
        // attribute's posting run by the remaining LHS columns.
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B", "C"]).unwrap();
        let mut db = Database::with_schema(schema);
        db.insert_values("R", [Value::int(1), Value::int(1), Value::int(1)])
            .unwrap();
        // Same A, different B: agrees on A but not on the full LHS {A, B}.
        db.insert_values("R", [Value::int(1), Value::int(2), Value::int(2)])
            .unwrap();
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A", "B"], &["C"]).unwrap());
        let mut index = ConflictIndex::build(&db, &sigma);
        assert!(index.violations().is_empty());
        // Full LHS match with differing RHS: one new violation against f0.
        db.insert_values("R", [Value::int(1), Value::int(1), Value::int(3)])
            .unwrap();
        index.refresh(&db, &sigma);
        assert_eq!(index, ConflictIndex::build(&db, &sigma));
        assert_eq!(index.violations().len(), 1);
        assert_eq!(
            index.violations()[0].pair(),
            (FactId::new(0), FactId::new(2))
        );
    }

    #[test]
    fn consistent_database_has_empty_operation_universe() {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        let mut db = Database::with_schema(schema);
        db.insert_values("R", [Value::int(1), Value::int(1)])
            .unwrap();
        db.insert_values("R", [Value::int(2), Value::int(1)])
            .unwrap();
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
        let index = ConflictIndex::build(&db, &sigma);
        assert!(index.violations().is_empty());
        assert!(index.conflicting_facts().is_empty());
        let mut ops = LiveOps::new();
        ops.reset_full(&index, true);
        assert!(ops.is_consistent());
        assert_eq!(ops.live().len(), 2);
    }

    /// `R(A, B)` with key `A → B` over blocks `1: {f0, f1}`, `2: {f2}`,
    /// `3: {f3, f4, f5}`: two components and one conflict-free fact.
    fn two_component_example() -> (Database, FdSet) {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        let mut db = Database::with_schema(schema);
        for (a, b) in [(1, 1), (1, 2), (2, 1), (3, 1), (3, 2), (3, 3)] {
            db.insert_values("R", [Value::int(a), Value::int(b)])
                .unwrap();
        }
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
        (db, sigma)
    }

    #[test]
    fn component_partition_is_stored_in_order_of_smallest_fact() {
        let (mut db, sigma) = two_component_example();
        let mut index = ConflictIndex::build(&db, &sigma);
        let ids = |ids: &[usize]| ids.iter().map(|&i| FactId::new(i)).collect::<Vec<_>>();
        assert_eq!(index.component_count(), 2);
        assert_eq!(index.component(0), ids(&[0, 1]));
        assert_eq!(index.component(1), ids(&[3, 4, 5]));
        assert_eq!(index.components(), vec![ids(&[0, 1]), ids(&[3, 4, 5])]);
        let of: Vec<Option<usize>> = (0..7).map(|f| index.component_of(FactId::new(f))).collect();
        assert_eq!(
            of,
            [Some(0), Some(0), None, Some(1), Some(1), Some(1), None]
        );
        for c in 0..index.component_count() {
            for &pair in index.component_pairs(c) {
                let (a, b) = index.pairs()[pair as usize];
                assert_eq!(
                    (index.component_of(a), index.component_of(b)),
                    (Some(c), Some(c))
                );
            }
        }
        assert_eq!(
            (0..2)
                .map(|c| index.component_pairs(c).len())
                .sum::<usize>(),
            index.pairs().len()
        );

        // A fact joining block 2 founds a component between the two, which
        // renumbers block 3's; deleting f0 leaves f1 conflict-free.  The
        // refreshed partition equals a fresh build's.
        db.insert_values("R", [Value::int(2), Value::int(9)])
            .unwrap();
        db.delete(FactId::new(0)).unwrap();
        index.refresh(&db, &sigma);
        assert_eq!(index, ConflictIndex::build(&db, &sigma));
        assert_eq!(index.components(), vec![ids(&[2, 6]), ids(&[3, 4, 5])]);
        assert_eq!(index.component_of(FactId::new(0)), None);
        assert_eq!(index.component_of(FactId::new(1)), None);
        assert_eq!(index.component_of(FactId::new(6)), Some(0));
    }

    #[test]
    fn reset_component_opens_exactly_one_components_operations() {
        let (db, sigma) = two_component_example();
        let index = ConflictIndex::build(&db, &sigma);
        let mut ops = LiveOps::new();
        for c in [1, 0, 1] {
            // Abandon the previous component mid-walk before resetting.
            ops.reset_component(&index, c, true);
            let (singles, pairs) = sorted_state(&index, &ops);
            assert_eq!(singles, index.component(c));
            let mut expected: Vec<(FactId, FactId)> = index
                .pairs()
                .iter()
                .copied()
                .filter(|&(a, _)| index.component_of(a) == Some(c))
                .collect();
            expected.sort();
            assert_eq!(pairs, expected);
            assert!(index.component(c).iter().all(|&f| ops.live().contains(f)));
            ops.remove_fact(&index, index.component(c)[0]);
        }
        // Walking component 1 to the end touches nothing outside it.
        ops.reset_component(&index, 1, true);
        ops.remove_fact(&index, FactId::new(3));
        ops.remove_fact(&index, FactId::new(4));
        assert!(ops.is_consistent());
        assert!(ops.live().contains(FactId::new(5)));
    }

    #[test]
    fn components_group_facts_by_conflict_reachability() {
        // f1 –(A→B)– f2 –(C→B)– f3: one component, not a clique.
        let (mut db, sigma) = running_example();
        let index = ConflictIndex::build(&db, &sigma);
        assert_eq!(
            index.components(),
            vec![vec![FactId::new(0), FactId::new(1), FactId::new(2)]]
        );

        // A conflict-free fact joins no component and leaves the
        // structure fingerprint intact, but carries its own digest.
        let before = index.structure();
        db.insert_values("R", [Value::str("a9"), Value::str("b9"), Value::str("c9")])
            .unwrap();
        let mut index = index;
        index.refresh(&db, &sigma);
        let after = index.structure();
        assert_eq!(index.components().len(), 1);
        assert_eq!(before.fingerprint(), after.fingerprint());
        for f in 0..3 {
            assert_eq!(before.digest(FactId::new(f)), after.digest(FactId::new(f)));
        }

        // A fact that conflicts with f3 (same C, different B) extends the
        // component: every member's digest and the fingerprint move.
        db.insert_values("R", [Value::str("a2"), Value::str("b7"), Value::str("c2")])
            .unwrap();
        index.refresh(&db, &sigma);
        let grown = index.structure();
        assert_ne!(after.fingerprint(), grown.fingerprint());
        assert_ne!(after.digest(FactId::new(2)), grown.digest(FactId::new(2)));
        // The refreshed structure matches a from-scratch build.
        assert_eq!(grown, ConflictIndex::build(&db, &sigma).structure());
    }
}
