//! Precomputed incremental conflict index.
//!
//! The uniform-operations walk (Lemmas 7.2 / D.7) repeatedly asks for the
//! justified operations `Ops_s(D, Σ)` of the current sub-database and then
//! removes one or two facts.  Violations are *monotone under removal*:
//! `V(D', Σ)` is exactly the subset of `V(D, Σ)` whose two facts both
//! survive in `D'`.  So instead of rescanning the database on every step
//! (O(|D|) per step, O(|D|²) per walk), [`ConflictIndex`] computes
//! `V(D, Σ)` **once**, is patched per database delta, and answers every
//! question about `Ops_s` of a sub-database `D' ⊆ D` from its adjacency:
//! a live fact `f` is a justified singleton iff
//! [`ConflictIndex::has_live_neighbour`] finds a live fact in its
//! neighbour run, and a pair of [`ConflictIndex::component_pairs`] is
//! justified iff both its facts are live.  The index holds no walk state,
//! so it is shareable across threads and backs any number of concurrent
//! walks.
//!
//! It stores the conflict graph **per component**: each component's facts
//! (ascending), its deduplicated conflicting pairs (lexicographic), its
//! violations (canonical order) and its facts' neighbour runs (ascending
//! neighbour id, with each neighbour's position in the component's fact
//! run beside it) are contiguous runs of flat arenas, and one per-fact
//! entry holds the fact's component slot and its neighbour run.
//! Components are ranked in order of their smallest fact id through a
//! bitset of component minima whose word-level popcount prefix gives each
//! minimum its rank.  Under `M^uo` the repair draws of
//! `ucqa_core::sample_operations` visit a component's operations in a
//! uniform random order and test each one when it comes up, reading only
//! [`ConflictIndex::component`], [`ConflictIndex::component_pairs`] and
//! [`ConflictIndex::has_live_neighbour`]; under `M^{uo,1}` they compare
//! each fact's rank with its neighbours', read by position through
//! [`ConflictIndex::neighbour_positions`].
//!
//! A pair violating several FDs is one neighbour and one pair operation,
//! so the walk never needs the violations themselves.
//!
//! Every singleton or pair operation lies inside one conflict component,
//! so the walk projected onto a component is that component's own walk;
//! the keyed walk of `ucqa_core::sample_operations` walks each component
//! on its own and can therefore skip the components a query cannot see.
//! Components are numbered in order of their smallest fact id, so their
//! ordinals survive any order-preserving renumbering of the fact ids.
//!
//! **Patching.**  A delta can only change the components it touches:
//! those holding a deleted fact and those a fresh violation reaches.
//! [`ConflictIndex::refresh`] re-partitions just their union, appends the
//! rebuilt components to the arenas and frees the old runs; the arenas
//! are compacted once their garbage outgrows their live entries.  A
//! survivor is recognised by the liveness of its facts, and each rebuilt
//! component sorts only its own runs, so a refresh builds no set of
//! deleted ids and never sorts the whole union or its facts.  Each
//! component keeps a digest of its fact ids, and the structure
//! fingerprint is the wrapping sum of the digests, so both follow the
//! delta too.  The global lists [`ConflictIndex::pairs`],
//! [`ConflictIndex::violations`] and [`ConflictIndex::conflicting_facts`]
//! are views assembled on first use after a change, for diagnostics,
//! tests and the reference walk's `Ops_s`; the repair draws never read
//! them.

use std::ops::Range;
use std::sync::OnceLock;

use crate::{Database, FactChange, FactId, FactSet, FdId, FdSet, Violation, ViolationSet};

/// Sentinel slot of a fact that belongs to no component.
const NO_COMPONENT: u32 = u32::MAX;

/// Per fact: its component slot and its neighbour run.
#[derive(Debug, Clone, Copy)]
struct FactEntry {
    /// The slot of the fact's component in [`ConflictIndex::slots`], or
    /// [`NO_COMPONENT`] for a fact in no violation (conflict-free or deleted).
    slot: u32,
    /// Start of the fact's neighbour run in the neighbour arena.
    start: u32,
    /// Length of the run: the fact's degree in the conflict graph.
    len: u32,
}

/// The entry of a fact in no component.
const CONFLICT_FREE: FactEntry = FactEntry {
    slot: NO_COMPONENT,
    start: 0,
    len: 0,
};

/// A run `start..end` of one arena.
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    start: u32,
    end: u32,
}

impl Run {
    /// The run that `len` entries appended to an arena of `at` entries
    /// occupy.
    fn appended(at: usize, len: usize) -> Self {
        Run {
            start: at as u32,
            end: (at + len) as u32,
        }
    }

    fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }

    fn len(self) -> usize {
        (self.end - self.start) as usize
    }
}

/// One component's runs in the fact, pair and violation arenas, and its
/// digest.  Its neighbour runs are contiguous too: they start at its
/// smallest fact's run and hold two entries per pair.  A slot with an
/// empty fact run is free.
#[derive(Debug, Clone, Copy, Default)]
struct Component {
    facts: Run,
    pairs: Run,
    violations: Run,
    /// FNV-1a over the component's size and its fact ids, ascending.
    digest: u64,
}

impl Component {
    /// The component's entry counts in the four arenas.
    fn sizes(&self) -> [usize; 4] {
        [
            self.facts.len(),
            self.pairs.len(),
            self.violations.len(),
            2 * self.pairs.len(),
        ]
    }
}

/// The four flat arenas every component's runs live in.
#[derive(Debug, Clone, Default)]
struct Arenas {
    facts: Vec<FactId>,
    pairs: Vec<(FactId, FactId)>,
    violations: Vec<Violation>,
    /// Each entry a conflicting fact.
    neighbours: Vec<FactId>,
    /// Beside each entry of `neighbours`: the conflicting fact's position
    /// in its component's fact run.
    positions: Vec<u32>,
}

impl Arenas {
    /// The arenas' lengths, live runs and garbage together.
    fn sizes(&self) -> [usize; 4] {
        [
            self.facts.len(),
            self.pairs.len(),
            self.violations.len(),
            self.neighbours.len(),
        ]
    }
}

/// The whole-database lists, each assembled from the components on
/// first use.
#[derive(Debug, Default)]
struct Views {
    violations: OnceLock<Vec<Violation>>,
    pairs: OnceLock<Vec<(FactId, FactId)>>,
    conflicting: OnceLock<Vec<FactId>>,
}

/// The conflict structure of `(D, Σ)`: precomputed once, patched per
/// delta.
///
/// Holds `V(D, Σ)` plus the adjacency that decides the justified
/// operations of any sub-database reached by removals, stored per
/// conflict component (see the module docs).  All state that changes
/// during a walk lives in the walk's own buffers, so one `ConflictIndex`
/// can back any number of concurrent walks.
///
/// An index remembers the database version it describes and is brought up
/// to date with [`ConflictIndex::refresh`], which replays the fact-level
/// changelog instead of recomputing `V(D, Σ)` from scratch; the refreshed
/// index equals a fresh build (the property-tested oracle).  Equality is
/// canonical: it compares the universe, the version, the pairs, the
/// violations, each fact's neighbours and the components in rank order,
/// never the arena layout.  A clone leaves the whole-database views
/// behind; it assembles its own on first use.
#[derive(Debug)]
pub struct ConflictIndex {
    universe: usize,
    /// The [`Database::version`] this index describes (the changelog
    /// cursor [`ConflictIndex::refresh`] resumes from).
    version: u64,
    /// Per fact id: its component slot and its neighbour run.
    facts: Vec<FactEntry>,
    arenas: Arenas,
    /// The arena entries the live components hold, per arena.
    live: [usize; 4],
    /// The components, by slot; free slots are listed in `free`.
    slots: Vec<Component>,
    free: Vec<u32>,
    /// A bit per fact id, set at each component's smallest fact.
    minima: Vec<u64>,
    /// Per word of `minima`: the bits set in the words before it, so the
    /// rank of a component is one load and one popcount.
    ranks: Vec<u32>,
    /// The first word of `ranks` that is out of date.
    stale_ranks: usize,
    /// The number of live components.
    components: usize,
    /// The wrapping sum of the component digests.
    fingerprint: u64,
    views: Views,
    /// Components stored by [`ConflictIndex::build`] and every
    /// [`ConflictIndex::refresh`] since.
    #[cfg(test)]
    stored: u64,
}

/// Counting sort onto the end of an arena: appends the values of the
/// `(key, value)` items to `arena` grouped by key in `0..keys`, each group
/// in input order, and returns the `keys + 1` arena offsets of the groups.
fn append_grouped<T: Copy>(
    arena: &mut Vec<T>,
    keys: usize,
    zero: T,
    items: impl Iterator<Item = (usize, T)> + Clone,
) -> Vec<u32> {
    let mut offsets = vec![0u32; keys + 1];
    offsets[0] = arena.len() as u32;
    for (key, _) in items.clone() {
        offsets[key + 1] += 1;
    }
    for key in 0..keys {
        offsets[key + 1] += offsets[key];
    }
    arena.resize(offsets[keys] as usize, zero);
    let mut cursor = offsets.clone();
    for (key, value) in items {
        arena[cursor[key] as usize] = value;
        cursor[key] += 1;
    }
    offsets
}

/// The digest of a fact in no component: the digest of `[id]`.
fn singleton_digest(fact: FactId) -> u64 {
    let mut h = Fnv::new();
    h.mix(1);
    h.mix(fact.index() as u64);
    h.finish()
}

/// The positions of the bits set in `bits`, the `word`-th word of a
/// bitset, ascending.
fn set_bits(word: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let bit = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        Some(word * 64 + bit)
    })
}

impl ConflictIndex {
    /// An index over `universe` facts with no components.
    fn empty(universe: usize, version: u64) -> Self {
        ConflictIndex {
            universe,
            version,
            facts: vec![CONFLICT_FREE; universe],
            arenas: Arenas::default(),
            live: [0; 4],
            slots: Vec::new(),
            free: Vec::new(),
            minima: vec![0; universe.div_ceil(64)],
            ranks: Vec::new(),
            stale_ranks: 0,
            components: 0,
            fingerprint: 0,
            views: Views::default(),
            #[cfg(test)]
            stored: 0,
        }
    }

    /// Builds the index of `db` w.r.t. `sigma`, computing `V(D, Σ)` once.
    pub fn build(db: &Database, sigma: &FdSet) -> Self {
        let violations = ViolationSet::of_database(db, sigma);
        let violations = violations.violations();
        // Deduplicated pair universe (several FDs may violate the same
        // pair).
        let mut pairs: Vec<(FactId, FactId)> = violations.iter().map(Violation::pair).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut index = ConflictIndex::empty(db.len(), db.version());
        // `pairs` and `violations` are sorted, so every part's pair and
        // violation runs are already in order.
        index.store(&pairs, violations, true);
        index.update_ranks();
        index
    }

    /// Brings the index up to date with `db` by replaying the fact-level
    /// changelog since the index's version, returning the number of
    /// changes applied.
    ///
    /// Violations are *local*: a violation of the current database either
    /// survives from the old one (neither endpoint was deleted) or touches
    /// a fact inserted since (discovered through the maintained
    /// [`crate::RelationIndex`]'s posting runs, looking only at the blocks
    /// of the inserted facts).  So only the components holding a deleted
    /// fact or meeting a fresh violation can change.  Their surviving
    /// pairs and violations, plus the fresh ones, are re-partitioned on
    /// their own and stored as new components; every other component keeps
    /// its runs, its rank order and its digest.  The result equals
    /// `ConflictIndex::build(db, sigma)`.
    ///
    /// Ids are never reused, so a survivor is a pair or violation whose
    /// facts are both [live](Database::is_live): one bit test each, with
    /// no set of deleted ids to build or search.  Only the fresh pairs
    /// are sorted as a whole; each new component sorts its own fact, pair
    /// and violation runs, and its facts are the distinct endpoints of its
    /// pairs, found without a sort.  The cost is the delta plus the facts
    /// and pairs of the touched components (times the logarithm of the
    /// largest new component, for its sorts), plus one pass over the
    /// words of the component-minima bitset from the lowest changed one
    /// on — never `|V|` or `|D|`, except for the amortised compaction of
    /// the arenas.
    pub fn refresh(&mut self, db: &Database, sigma: &FdSet) -> usize {
        let changes = db.changes_since(self.version);
        if changes.is_empty() {
            return 0;
        }
        self.grow(db.len());
        // Partition the delta: deleted ids kill their components' old
        // violations; still-live inserted facts may found new ones.  (A
        // fact inserted and deleted again within the window is filtered
        // from `inserted` by the liveness check.)
        let mut inserted: Vec<FactId> = Vec::new();
        let mut touched: Vec<u32> = Vec::new();
        for change in changes {
            match change {
                FactChange::Inserted(id) => {
                    if db.is_live(*id) {
                        inserted.push(*id);
                    }
                }
                FactChange::Deleted { id, .. } => {
                    touched.push(self.facts[id.index()].slot);
                }
            }
        }
        let fresh = Self::probe(db, sigma, &inserted);
        touched.extend(
            fresh
                .iter()
                .flat_map(|v| [v.first, v.second])
                .map(|fact| self.facts[fact.index()].slot),
        );
        touched.sort_unstable();
        touched.dedup();
        if touched.last() == Some(&NO_COMPONENT) {
            touched.pop();
        }

        // The touched components' surviving pairs and violations, plus
        // the fresh ones.  Ids are never reused, so a fact of the old
        // index survives iff it is still live.  A fresh violation involves
        // a fact inserted in the window, so it is never a survivor, and
        // survivors of distinct components are disjoint: only the fresh
        // pairs need deduplicating.  `store` sorts each new component's
        // runs.
        let survives = |fact: FactId| db.is_live(fact);
        let mut pairs: Vec<(FactId, FactId)> = fresh.iter().map(Violation::pair).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut violations = fresh;
        for &slot in &touched {
            let component = self.slots[slot as usize];
            pairs.extend(
                self.arenas.pairs[component.pairs.range()]
                    .iter()
                    .filter(|&&(a, b)| survives(a) && survives(b)),
            );
            violations.extend(
                self.arenas.violations[component.violations.range()]
                    .iter()
                    .filter(|v| survives(v.first) && survives(v.second)),
            );
            self.drop_component(slot);
        }
        self.store(&pairs, &violations, false);

        self.universe = db.len();
        self.version = db.version();
        self.update_ranks();
        self.views = Views::default();
        if self
            .arenas
            .sizes()
            .iter()
            .zip(self.live)
            .any(|(&size, live)| size > 2 * live)
        {
            self.compact();
        }
        changes.len()
    }

    /// The violations of the current database that touch a fact of
    /// `inserted`, sorted and deduplicated: each inserted fact's LHS block
    /// is probed through the relation index, once per FD of its relation.
    /// A pair of two inserted facts is discovered from both sides.
    fn probe(db: &Database, sigma: &FdSet, inserted: &[FactId]) -> Vec<Violation> {
        let mut fresh: Vec<Violation> = Vec::new();
        if inserted.is_empty() {
            return fresh;
        }
        let index = db.relation_index();
        for (fd_id, fd) in sigma.iter() {
            let relation = fd.relation();
            let columns = db.columns_of(relation);
            let mut lhs = fd.lhs().iter().map(|a| a.index());
            let first = lhs.next().expect("FDs have a non-empty LHS");
            let rest: Vec<usize> = lhs.collect();
            for &f in inserted {
                if db.relation_of(f) != relation {
                    continue;
                }
                let row_f = db.row_of(f);
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
        fresh.sort_unstable();
        fresh.dedup();
        fresh
    }

    /// Extends the per-fact entries and the minima bitset to `universe`
    /// facts.
    fn grow(&mut self, universe: usize) {
        self.facts.resize(universe, CONFLICT_FREE);
        let words = universe.div_ceil(64);
        if words > self.minima.len() {
            self.stale_ranks = self.stale_ranks.min(self.minima.len());
            self.minima.resize(words, 0);
        }
    }

    /// Sets or clears the minima bit of `fact`.
    fn mark_minimum(&mut self, fact: FactId, set: bool) {
        let (word, bit) = (fact.index() / 64, fact.index() % 64);
        if set {
            self.minima[word] |= 1 << bit;
        } else {
            self.minima[word] &= !(1 << bit);
        }
        self.stale_ranks = self.stale_ranks.min(word);
    }

    /// Recomputes the popcount prefix from the first stale word on.
    fn update_ranks(&mut self) {
        let from = self.stale_ranks.min(self.minima.len());
        self.ranks.resize(self.minima.len(), 0);
        let mut rank = match from {
            0 => 0,
            _ => self.ranks[from - 1] + self.minima[from - 1].count_ones(),
        };
        for (slot, &bits) in self.ranks[from..].iter_mut().zip(&self.minima[from..]) {
            *slot = rank;
            rank += bits.count_ones();
        }
        self.stale_ranks = self.minima.len();
    }

    /// Partitions the endpoints of `pairs` (deduplicated) by reachability
    /// over `pairs` and stores each part as a new component, with its
    /// share of `pairs`, of `violations` and its facts' neighbour runs.
    /// Each part's fact run is sorted after grouping, and so are its pair
    /// and violation runs unless `sorted` says the inputs already are
    /// (grouping keeps their order).  The endpoints' entries must not
    /// belong to a live component.
    fn store(&mut self, pairs: &[(FactId, FactId)], violations: &[Violation], sorted: bool) {
        // The distinct endpoints in order of first appearance, and
        // union-find over their positions, which the facts' entries hold
        // until the parts are written: an endpoint whose entry already
        // holds a position is a repeat.  Linking the larger root under
        // the smaller keeps every root the smallest position of its set
        // and every parent at most its child.
        let mut facts: Vec<FactId> = Vec::new();
        for &(a, b) in pairs {
            for fact in [a, b] {
                let entry = &mut self.facts[fact.index()];
                if entry.slot == NO_COMPONENT {
                    entry.slot = facts.len() as u32;
                    facts.push(fact);
                }
            }
        }
        let entries = &self.facts;
        let position = |fact: FactId| entries[fact.index()].slot as usize;
        let mut parent: Vec<u32> = (0..facts.len() as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        let mut degree = vec![0u32; facts.len()];
        for &(a, b) in pairs {
            let (a, b) = (position(a), position(b));
            degree[a] += 1;
            degree[b] += 1;
            let (ra, rb) = (find(&mut parent, a as u32), find(&mut parent, b as u32));
            if ra != rb {
                parent[ra.max(rb) as usize] = ra.min(rb);
            }
        }
        // Relabel `parent` into parts in ascending order of their
        // smallest position: a position is either its set's root (a new
        // part) or points to a smaller member of its set, already
        // relabelled.
        let mut part = parent;
        let mut parts = 0;
        for p in 0..part.len() {
            part[p] = if part[p] as usize == p {
                parts += 1;
                parts - 1
            } else {
                part[part[p] as usize]
            };
        }
        let parts = parts as usize;
        let part_of = |fact: FactId| part[position(fact)] as usize;
        let arenas = &mut self.arenas;
        let first_fact = arenas.facts.len();
        let fact_at = append_grouped(
            &mut arenas.facts,
            parts,
            FactId::new(0),
            (0..).zip(&facts).map(|(p, &fact)| (part[p] as usize, fact)),
        );
        let pair_at = append_grouped(
            &mut arenas.pairs,
            parts,
            (FactId::new(0), FactId::new(0)),
            pairs.iter().map(|&pair| (part_of(pair.0), pair)),
        );
        let violation_at = append_grouped(
            &mut arenas.violations,
            parts,
            Violation::new(FdId::new(0), FactId::new(0), FactId::new(0)),
            violations.iter().map(|&v| (part_of(v.first), v)),
        );
        for p in 0..parts {
            arenas.facts[fact_at[p] as usize..fact_at[p + 1] as usize].sort_unstable();
        }
        if !sorted {
            for p in 0..parts {
                arenas.pairs[pair_at[p] as usize..pair_at[p + 1] as usize].sort_unstable();
                arenas.violations[violation_at[p] as usize..violation_at[p + 1] as usize]
                    .sort_unstable();
            }
        }
        let degree: Vec<u32> = arenas.facts[first_fact..]
            .iter()
            .map(|&fact| degree[position(fact)])
            .collect();

        // Neighbour runs in fact order; filling them in pair order lists
        // each fact's neighbours by ascending id.  Until the parts are
        // written, each entry's slot holds the fact's position in its
        // part, which the neighbour entries record.
        let mut cursor = arenas.neighbours.len() as u32;
        for part in fact_at.windows(2) {
            for (local, position) in (0..).zip(part[0] as usize..part[1] as usize) {
                self.facts[arenas.facts[position].index()] = FactEntry {
                    slot: local,
                    start: cursor,
                    len: 0,
                };
                cursor += degree[position - first_fact];
            }
        }
        arenas.neighbours.resize(cursor as usize, FactId::new(0));
        arenas.positions.resize(cursor as usize, 0);
        for &(a, b) in &arenas.pairs[pair_at[0] as usize..] {
            for (fact, other) in [(a, b), (b, a)] {
                let position = self.facts[other.index()].slot;
                let entry = &mut self.facts[fact.index()];
                let at = (entry.start + entry.len) as usize;
                arenas.neighbours[at] = other;
                arenas.positions[at] = position;
                entry.len += 1;
            }
        }

        for p in 0..parts {
            let run = |offsets: &[u32]| Run {
                start: offsets[p],
                end: offsets[p + 1],
            };
            let facts = run(&fact_at);
            let slot = match self.free.pop() {
                Some(slot) => slot,
                None => {
                    self.slots.push(Component::default());
                    self.slots.len() as u32 - 1
                }
            };
            let mut digest = Fnv::new();
            digest.mix(facts.len() as u64);
            for &fact in &self.arenas.facts[facts.range()] {
                digest.mix(fact.index() as u64);
                self.facts[fact.index()].slot = slot;
            }
            let component = Component {
                facts,
                pairs: run(&pair_at),
                violations: run(&violation_at),
                digest: digest.finish(),
            };
            self.attach(slot, component);
        }
        #[cfg(test)]
        {
            self.stored += parts as u64;
        }
    }

    /// Enters `component`, whose runs are already in the arenas, at
    /// `slot`.
    fn attach(&mut self, slot: u32, component: Component) {
        self.mark_minimum(self.arenas.facts[component.facts.start as usize], true);
        for (live, size) in self.live.iter_mut().zip(component.sizes()) {
            *live += size;
        }
        self.fingerprint = self.fingerprint.wrapping_add(component.digest);
        self.components += 1;
        self.slots[slot as usize] = component;
    }

    /// Removes the component at `slot`: its facts leave every component
    /// and its runs become garbage.
    fn drop_component(&mut self, slot: u32) {
        let component = std::mem::take(&mut self.slots[slot as usize]);
        let facts = &self.arenas.facts[component.facts.range()];
        for &fact in facts {
            self.facts[fact.index()] = CONFLICT_FREE;
        }
        self.mark_minimum(facts[0], false);
        for (live, size) in self.live.iter_mut().zip(component.sizes()) {
            *live -= size;
        }
        self.fingerprint = self.fingerprint.wrapping_sub(component.digest);
        self.components -= 1;
        self.free.push(slot);
    }

    /// Copies the live runs into fresh arenas, in rank order, and numbers
    /// the slots by rank.
    fn compact(&mut self) {
        let order: Vec<usize> = self.slots_by_rank().collect();
        let old = std::mem::take(&mut self.arenas);
        let old_slots = std::mem::take(&mut self.slots);
        let [facts, pairs, violations, neighbours] = self.live;
        self.arenas = Arenas {
            facts: Vec::with_capacity(facts),
            pairs: Vec::with_capacity(pairs),
            violations: Vec::with_capacity(violations),
            neighbours: Vec::with_capacity(neighbours),
            positions: Vec::with_capacity(neighbours),
        };
        self.slots = Vec::with_capacity(order.len());
        self.free.clear();
        let arenas = &mut self.arenas;
        for (slot, component) in (0..).zip(order.into_iter().map(|s| old_slots[s])) {
            let moved = Component {
                facts: Run::appended(arenas.facts.len(), component.facts.len()),
                pairs: Run::appended(arenas.pairs.len(), component.pairs.len()),
                violations: Run::appended(arenas.violations.len(), component.violations.len()),
                digest: component.digest,
            };
            let member_facts = &old.facts[component.facts.range()];
            let neighbours = Run::appended(
                self.facts[member_facts[0].index()].start as usize,
                2 * component.pairs.len(),
            );
            let shifted = arenas.neighbours.len() as u32;
            for &fact in member_facts {
                let entry = &mut self.facts[fact.index()];
                entry.slot = slot;
                entry.start = entry.start - neighbours.start + shifted;
            }
            arenas.facts.extend_from_slice(member_facts);
            arenas
                .pairs
                .extend_from_slice(&old.pairs[component.pairs.range()]);
            arenas
                .violations
                .extend_from_slice(&old.violations[component.violations.range()]);
            arenas
                .neighbours
                .extend_from_slice(&old.neighbours[neighbours.range()]);
            arenas
                .positions
                .extend_from_slice(&old.positions[neighbours.range()]);
            self.slots.push(moved);
        }
    }

    /// The slots of the live components, in rank order.
    fn slots_by_rank(&self) -> impl Iterator<Item = usize> + '_ {
        (0..)
            .zip(&self.minima)
            .flat_map(|(word, &bits)| set_bits(word, bits))
            .map(|fact| self.facts[fact].slot as usize)
    }

    /// The rank of the component whose smallest fact is `minimum`.
    fn rank_of(&self, minimum: FactId) -> usize {
        let (word, bit) = (minimum.index() / 64, minimum.index() % 64);
        self.ranks[word] as usize + (self.minima[word] & ((1 << bit) - 1)).count_ones() as usize
    }

    /// The slot of component `component` (a rank).
    ///
    /// # Panics
    /// Panics if `component` is out of range.
    fn slot(&self, component: usize) -> usize {
        assert!(
            component < self.components,
            "component {component} out of range ({} components)",
            self.components
        );
        // The last word whose prefix is at most `component` holds its
        // minimum.
        let word = self.ranks.partition_point(|&r| r as usize <= component) - 1;
        let mut bits = self.minima[word];
        for _ in self.ranks[word] as usize..component {
            bits &= bits - 1;
        }
        self.facts[word * 64 + bits.trailing_zeros() as usize].slot as usize
    }

    /// The live components, in slot order.
    fn live_components(&self) -> impl Iterator<Item = &Component> {
        self.slots.iter().filter(|c| c.facts.len() > 0)
    }

    /// The concatenated `field` runs of the live components, sorted.
    fn sorted_runs<T: Copy + Ord>(&self, arena: &[T], field: fn(&Component) -> Run) -> Vec<T> {
        let mut all: Vec<T> = self
            .live_components()
            .flat_map(|c| &arena[field(c).range()])
            .copied()
            .collect();
        all.sort_unstable();
        all
    }

    /// The size of the fact universe.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The [`Database::version`] this index describes.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// `V(D, Σ)` of the full database, canonically sorted.  Assembled
    /// from the components on first use after a change.
    pub fn violations(&self) -> &[Violation] {
        self.views
            .violations
            .get_or_init(|| self.sorted_runs(&self.arenas.violations, |c| c.violations))
    }

    /// The deduplicated pair-operation universe of the full database,
    /// sorted.  Assembled from the components on first use after a
    /// change.
    pub fn pairs(&self) -> &[(FactId, FactId)] {
        self.views
            .pairs
            .get_or_init(|| self.sorted_runs(&self.arenas.pairs, |c| c.pairs))
    }

    /// The singleton-operation universe of the full database: the facts
    /// involved in at least one violation, sorted.  Assembled from the
    /// components on first use after a change.
    pub fn conflicting_facts(&self) -> &[FactId] {
        self.views
            .conflicting
            .get_or_init(|| self.sorted_runs(&self.arenas.facts, |c| c.facts))
    }

    /// The facts `fact` conflicts with, by ascending fact id (the pair
    /// order).
    fn neighbours_of(&self, fact: FactId) -> &[FactId] {
        let FactEntry { start, len, .. } = self.facts[fact.index()];
        &self.arenas.neighbours[start as usize..(start + len) as usize]
    }

    /// The positions in their component's fact run
    /// ([`ConflictIndex::component`]) of the facts `fact` conflicts with,
    /// in neighbour order: O(1), so a per-component buffer indexed by
    /// position can be read at a fact's neighbours without a lookup by
    /// fact id.  Empty for a fact in no component.
    pub fn neighbour_positions(&self, fact: FactId) -> &[u32] {
        let FactEntry { start, len, .. } = self.facts[fact.index()];
        &self.arenas.positions[start as usize..(start + len) as usize]
    }

    /// Whether `fact` conflicts with a fact of `live` — for a live fact,
    /// whether the singleton operation removing it is justified on `live`.
    /// An early-exit scan of the fact's neighbour run: O(degree) at most.
    pub fn has_live_neighbour(&self, fact: FactId, live: &FactSet) -> bool {
        self.neighbours_of(fact)
            .iter()
            .any(|&other| live.contains(other))
    }

    /// The number of connected components of the conflict graph.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// The facts of component `component`, ascending.
    ///
    /// # Panics
    /// Panics if `component` is out of range.
    pub fn component(&self, component: usize) -> &[FactId] {
        &self.arenas.facts[self.slots[self.slot(component)].facts.range()]
    }

    /// The conflicting pairs of component `component`, lexicographic (the
    /// order of its arena run): the component's share of the
    /// pair-operation universe.
    ///
    /// # Panics
    /// Panics if `component` is out of range.
    pub fn component_pairs(&self, component: usize) -> &[(FactId, FactId)] {
        &self.arenas.pairs[self.slots[self.slot(component)].pairs.range()]
    }

    /// The component of `fact`, or `None` for a fact in no violation
    /// (conflict-free or deleted) or outside the universe.
    pub fn component_of(&self, fact: FactId) -> Option<usize> {
        let slot = self.facts.get(fact.index())?.slot;
        if slot == NO_COMPONENT {
            return None;
        }
        let facts = self.slots[slot as usize].facts;
        Some(self.rank_of(self.arenas.facts[facts.start as usize]))
    }

    /// The component of `fact` and its position in the component's fact
    /// run ([`ConflictIndex::component`]), or `None` for a fact in no
    /// violation (conflict-free or deleted) or outside the universe.  A
    /// binary search in the run: O(log of the component's size).
    pub fn position_of(&self, fact: FactId) -> Option<(usize, usize)> {
        let slot = self.facts.get(fact.index())?.slot;
        if slot == NO_COMPONENT {
            return None;
        }
        let run = &self.arenas.facts[self.slots[slot as usize].facts.range()];
        let position = run
            .binary_search(&fact)
            .expect("a component's fact run holds its facts");
        Some((self.rank_of(run[0]), position))
    }

    /// The connected components of the conflict graph: facts involved in
    /// at least one violation, grouped by reachability over conflicting
    /// pairs.  Each component is sorted ascending; components are sorted
    /// by their smallest fact id, so component `c` is
    /// [`ConflictIndex::component`]`(c)`.  Conflict-free facts belong to no
    /// component (they survive every repair and play no role in the
    /// repairing process).
    pub fn components(&self) -> Vec<Vec<FactId>> {
        self.slots_by_rank()
            .map(|slot| self.arenas.facts[self.slots[slot].facts.range()].to_vec())
            .collect()
    }

    /// A stable digest of `fact`'s conflict component: the 64-bit FNV-1a
    /// digest of the component's size and sorted fact ids, or the digest
    /// of `[fact]` for a fact in no component (its "component" is the fact
    /// alone).
    ///
    /// The repair distribution a fact is subject to is determined by its
    /// conflict component (under uniform repairs and uniform operations
    /// the per-component marginals are independent of the rest of the
    /// database; under uniform sequences they additionally depend on the
    /// global component structure — see
    /// [`ConflictIndex::structure_fingerprint`]).  Two database states
    /// assign a fact equal digests iff the fact's component holds the same
    /// fact ids, so an estimate that depends only on a set of facts and
    /// their components can be proven unchanged across a delta by
    /// comparing digests.  O(1).
    pub fn component_digest(&self, fact: FactId) -> u64 {
        match self.facts.get(fact.index()) {
            Some(entry) if entry.slot != NO_COMPONENT => self.slots[entry.slot as usize].digest,
            _ => singleton_digest(fact),
        }
    }

    /// A fingerprint of the whole conflict-component structure: the
    /// wrapping sum of the component digests, so it does not depend on
    /// the order of the components and a refresh updates it per changed
    /// component.  Equal across two states that hold the same components
    /// over the same fact ids.  Conflict-free facts do not participate,
    /// so consistent churn leaves the fingerprint intact.  O(1).
    pub fn structure_fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl Clone for ConflictIndex {
    fn clone(&self) -> Self {
        ConflictIndex {
            universe: self.universe,
            version: self.version,
            facts: self.facts.clone(),
            arenas: self.arenas.clone(),
            live: self.live,
            slots: self.slots.clone(),
            free: self.free.clone(),
            minima: self.minima.clone(),
            ranks: self.ranks.clone(),
            stale_ranks: self.stale_ranks,
            components: self.components,
            fingerprint: self.fingerprint,
            views: Views::default(),
            #[cfg(test)]
            stored: self.stored,
        }
    }
}

impl PartialEq for ConflictIndex {
    fn eq(&self, other: &Self) -> bool {
        self.universe == other.universe
            && self.version == other.version
            && self.pairs() == other.pairs()
            && self.violations() == other.violations()
            && (0..self.universe)
                .map(FactId::new)
                .all(|fact| self.neighbours_of(fact) == other.neighbours_of(fact))
            && self.component_count() == other.component_count()
            && self
                .slots_by_rank()
                .zip(other.slots_by_rank())
                .all(|(a, b)| {
                    self.arenas.facts[self.slots[a].facts.range()]
                        == other.arenas.facts[other.slots[b].facts.range()]
                })
    }
}

impl Eq for ConflictIndex {}

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

    /// The justified operations of `subset`, read from the index: the
    /// facts of `subset` with a live neighbour and the component pairs
    /// with both facts in `subset`, each list sorted.
    fn operations_on(
        index: &ConflictIndex,
        subset: &FactSet,
    ) -> (Vec<FactId>, Vec<(FactId, FactId)>) {
        let (mut singles, mut pairs) = (Vec::new(), Vec::new());
        for c in 0..index.component_count() {
            singles.extend(
                index
                    .component(c)
                    .iter()
                    .filter(|&&f| subset.contains(f) && index.has_live_neighbour(f, subset)),
            );
            pairs.extend(
                index
                    .component_pairs(c)
                    .iter()
                    .filter(|&&(a, b)| subset.contains(a) && subset.contains(b)),
            );
        }
        singles.sort();
        pairs.sort();
        (singles, pairs)
    }

    /// The number of violations of `V(D, Σ)` with both facts in `subset`.
    fn live_violations(index: &ConflictIndex, subset: &FactSet) -> usize {
        index
            .violations()
            .iter()
            .filter(|v| subset.contains(v.first) && subset.contains(v.second))
            .count()
    }

    #[test]
    fn full_reset_matches_figure1_root_operations() {
        let (db, sigma) = running_example();
        let index = ConflictIndex::build(&db, &sigma);
        assert_eq!(index.universe(), 3);
        assert_eq!(index.violations().len(), 2);
        assert_eq!(index.pairs().len(), 2);
        // Root of Figure 1: -f1, -f2, -f3, -{f1,f2}, -{f2,f3}.
        let (singles, pairs) = operations_on(&index, &db.all_facts());
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
        assert_eq!(live_violations(&index, &db.all_facts()), 2);
    }

    #[test]
    fn removing_the_middle_fact_kills_everything() {
        let (db, sigma) = running_example();
        let index = ConflictIndex::build(&db, &sigma);
        // f2 (id 1) is in both violations; removing it repairs the
        // database in one step.
        let mut subset = db.all_facts();
        subset.remove(FactId::new(1));
        assert_eq!(operations_on(&index, &subset), (vec![], vec![]));
        assert_eq!(subset.len(), 2);
        assert_eq!(live_violations(&index, &subset), 0);
    }

    #[test]
    fn removing_an_endpoint_keeps_the_other_violation() {
        let (db, sigma) = running_example();
        let index = ConflictIndex::build(&db, &sigma);
        // Removing f1 kills the φ1 violation {f1, f2}; {f2, f3} survives.
        let mut subset = db.all_facts();
        subset.remove(FactId::new(0));
        let (singles, pairs) = operations_on(&index, &subset);
        assert_eq!(singles, vec![FactId::new(1), FactId::new(2)]);
        assert_eq!(pairs, vec![(FactId::new(1), FactId::new(2))]);
        assert_eq!(live_violations(&index, &subset), 1);
    }

    #[test]
    fn reset_to_matches_recompute_on_all_subsets() {
        let (db, sigma) = running_example();
        let index = ConflictIndex::build(&db, &sigma);
        for mask in 0u32..(1 << db.len()) {
            let subset = FactSet::from_iter(
                db.len(),
                (0..db.len())
                    .filter(|i| (mask >> i) & 1 == 1)
                    .map(FactId::new),
            );
            let violations = ViolationSet::compute(&db, &sigma, &subset);
            let (singles, pairs) = operations_on(&index, &subset);
            assert_eq!(singles, violations.conflicting_facts(), "mask {mask:b}");
            assert_eq!(pairs, violations.conflicting_pairs(), "mask {mask:b}");
        }
    }

    #[test]
    fn incremental_removal_matches_recompute() {
        let (db, sigma) = running_example();
        let index = ConflictIndex::build(&db, &sigma);
        // Remove facts one at a time in every order; after each removal
        // the index's operations must match a from-scratch recompute.
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [2, 1, 0], [2, 0, 1]] {
            let mut subset = db.all_facts();
            for fact in order {
                subset.remove(FactId::new(fact));
                let violations = ViolationSet::compute(&db, &sigma, &subset);
                let (singles, pairs) = operations_on(&index, &subset);
                assert_eq!(singles, violations.conflicting_facts(), "order {order:?}");
                assert_eq!(pairs, violations.conflicting_pairs(), "order {order:?}");
                assert_eq!(live_violations(&index, &subset), violations.len());
            }
        }
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
        let (singles, pairs) = operations_on(&index, &db.all_facts());
        assert_eq!((singles.len(), pairs.len()), (2, 1));
        // The pair is one conflicting neighbour, not two: both violations
        // die with one endpoint, the pair dies too, and the surviving fact
        // is no longer a singleton operation.
        assert_eq!(index.neighbour_positions(FactId::new(1)).len(), 1);
        let mut subset = db.all_facts();
        subset.remove(FactId::new(0));
        assert_eq!(operations_on(&index, &subset), (vec![], vec![]));
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
        let (singles, pairs) = operations_on(&index, &db.all_facts());
        assert!(!singles.is_empty() && !pairs.is_empty());
        assert_eq!(
            (singles, pairs),
            operations_on(&ConflictIndex::build(&db, &sigma), &db.all_facts())
        );
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
        assert_eq!(operations_on(&index, &db.all_facts()), (vec![], vec![]));
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
            for &(a, b) in index.component_pairs(c) {
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
        for c in 0..index.component_count() {
            // The component's facts alone carry exactly its operations.
            let facts = index.component(c);
            let mut subset = FactSet::from_iter(db.len(), facts.iter().copied());
            let (singles, pairs) = operations_on(&index, &subset);
            assert_eq!(singles, facts);
            let expected: Vec<(FactId, FactId)> = index
                .pairs()
                .iter()
                .copied()
                .filter(|&(a, _)| index.component_of(a) == Some(c))
                .collect();
            assert_eq!(pairs, expected);
            // Removing its facts one by one tracks a recompute and touches
            // nothing outside it.
            for &fact in facts {
                subset.remove(fact);
                let violations = ViolationSet::compute(&db, &sigma, &subset);
                let (singles, pairs) = operations_on(&index, &subset);
                assert_eq!(singles, violations.conflicting_facts());
                assert_eq!(pairs, violations.conflicting_pairs());
            }
        }
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
        let digests = |index: &ConflictIndex, facts: usize| -> Vec<u64> {
            (0..facts)
                .map(|f| index.component_digest(FactId::new(f)))
                .collect()
        };
        let (before, before_digests) = (index.structure_fingerprint(), digests(&index, 3));
        db.insert_values("R", [Value::str("a9"), Value::str("b9"), Value::str("c9")])
            .unwrap();
        let mut index = index;
        index.refresh(&db, &sigma);
        let (after, after_digests) = (index.structure_fingerprint(), digests(&index, 4));
        assert_eq!(index.components().len(), 1);
        assert_eq!(before, after);
        assert_eq!(before_digests, after_digests[..3]);
        assert_ne!(after_digests[3], after_digests[0]);

        // A fact that conflicts with f3 (same C, different B) extends the
        // component: every member's digest and the fingerprint move.
        db.insert_values("R", [Value::str("a2"), Value::str("b7"), Value::str("c2")])
            .unwrap();
        index.refresh(&db, &sigma);
        let grown = index.structure_fingerprint();
        assert_ne!(after, grown);
        assert_ne!(after_digests[2], index.component_digest(FactId::new(2)));
        // The refreshed structure matches a from-scratch build.
        let built = ConflictIndex::build(&db, &sigma);
        assert_eq!(grown, built.structure_fingerprint());
        assert_eq!(digests(&index, db.len()), digests(&built, db.len()));
    }

    /// A seeded SplitMix64 stream for the storage test (the crate has no
    /// RNG dependency).
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }
    }

    /// A primary-key stream through a count window, shaped like the
    /// workload crate's `StreamWorkload` over `R(K, V)` with `K → V`: each
    /// tick retracts live facts uniformly, inserts facts with fresh
    /// values that reuse a live key with probability 3/10, and expires the
    /// oldest facts down to the window.  After every tick the refreshed
    /// arenas hold at most twice the live facts, pairs, violations and
    /// neighbour entries, and a tick whose delta touches no conflicting
    /// fact stores no component.
    #[test]
    fn refresh_storage_stays_within_twice_the_live_index() {
        const TICKS: usize = 1_200;
        const WINDOW: usize = 60;
        let mut schema = Schema::new();
        schema.add_relation("R", &["K", "V"]).unwrap();
        let mut db = Database::with_schema(schema);
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["K"], &["V"]).unwrap());
        let mut rng = SplitMix(11);
        let mut value = 0i64;
        let mut fresh = |db: &mut Database, key: i64| {
            value += 1;
            db.insert_values("R", [Value::int(key), Value::int(value)])
                .unwrap()
        };
        for _ in 0..WINDOW {
            let key = rng.below(40) as i64;
            fresh(&mut db, key);
        }
        let mut index = ConflictIndex::build(&db, &sigma);
        let (mut untouched, mut compactions) = (0, 0);
        for tick in 0..TICKS {
            let live: Vec<FactId> = db.fact_ids().collect();
            let mut deleted = Vec::new();
            for _ in 0..rng.below(3) {
                let id = live[rng.below(live.len())];
                if db.is_live(id) {
                    db.delete(id).unwrap();
                    deleted.push(id);
                }
            }
            let live: Vec<FactId> = db.fact_ids().collect();
            let mut inserted = Vec::new();
            for _ in 0..rng.below(4) {
                let key = if rng.below(10) < 3 {
                    let of = live[rng.below(live.len())];
                    match db.fact(of).values()[0] {
                        Value::Int(key) => key,
                        ref other => panic!("unexpected key {other:?}"),
                    }
                } else {
                    rng.below(40) as i64
                };
                inserted.push(fresh(&mut db, key));
            }
            deleted.extend(db.expire_oldest(WINDOW).unwrap());
            let touched_before = deleted.iter().any(|&f| index.component_of(f).is_some());
            let (stored, arena_facts) = (index.stored, index.arenas.facts.len());
            index.refresh(&db, &sigma);
            let touched_after = inserted.iter().any(|&f| index.component_of(f).is_some());
            if !touched_before && !touched_after {
                untouched += 1;
                assert_eq!(index.stored, stored, "tick {tick} stored a component");
            }
            compactions += usize::from(index.arenas.facts.len() < arena_facts);

            let pairs = index.pairs().len();
            assert_eq!(
                index.live,
                [
                    index.conflicting_facts().len(),
                    pairs,
                    index.violations().len(),
                    2 * pairs
                ],
                "tick {tick}"
            );
            for (arena, live) in index.arenas.sizes().into_iter().zip(index.live) {
                assert!(arena <= 2 * live, "tick {tick}: arena {arena}, live {live}");
            }
            if tick % 100 == 0 {
                assert_eq!(index, ConflictIndex::build(&db, &sigma), "tick {tick}");
            }
        }
        assert_eq!(index, ConflictIndex::build(&db, &sigma));
        assert!(untouched > TICKS / 10, "{untouched} untouched ticks");
        assert!(compactions > 0, "the arenas were never compacted");
    }
}
