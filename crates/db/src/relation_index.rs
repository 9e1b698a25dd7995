//! Per-relation symbol indexes: `(position, symbol) → fact ids` as
//! ascending runs of one flat arena.
//!
//! The plan-based witness enumeration of `ucqa-query` replaces the naive
//! "scan the whole relation per atom" join with indexed lookups: an atom
//! whose term at some position is already bound (a constant, or a variable
//! bound by an earlier join step) only has to look at the facts carrying
//! that symbol at that position.  [`RelationIndex`] materialises those
//! posting lists: every `(relation, position, symbol)` posting list is a
//! run of one flat `Vec<FactId>` arena, and per `(relation, position)` a
//! run table indexed directly by [`Sym`] says where each run lives — so a
//! probe is one array read and a slice, with no `HashMap<Value, _>` on
//! the path.  The index is shared across threads exactly like
//! [`crate::ConflictIndex`].
//!
//! [`crate::Database::relation_index`] builds the index lazily on first
//! use and caches it behind an `Arc`; once built, the cache is
//! *maintained*: database mutations patch it instead of invalidating it.
//! A mutation is a batch — one [`crate::Database::extend`] or
//! [`crate::Database::delete_all`] — and the crate-private
//! `RelationIndex::apply_inserts` / `RelationIndex::apply_deletes` rewrite
//! only the runs the batch touches.  A deletion closes the gaps inside its
//! run in place (a deleted prefix, the sliding-window case, just advances
//! the run's start); an insertion appends to its run in place when the run
//! ends the arena and otherwise copies the run to the arena's end first.
//! Either way the slots no run covers any more are garbage, and the arena
//! is compacted — every run copied, in build order, into a fresh arena —
//! once its garbage outgrows its live entries.  So a batch costs the delta
//! plus the lengths of the runs it touches, amortised, never the
//! dictionary or the relation.  [`RelationIndex::build`] is one
//! counting-sort pass per column that lays the runs out contiguously, in
//! symbol order, without slack.
//!
//! Each column also keeps a histogram of its run lengths, so the longest
//! run — the planner's hot-spot statistic — follows every batch and
//! [`RelationIndex::stats_snapshot`] costs one read per column.
//!
//! Equality compares content, never layout: a delta-maintained index
//! equals a fresh [`RelationIndex::build`] (the rebuild is the
//! property-tested oracle).  Posting runs hold ascending fact ids, so
//! enumeration orders are deterministic and the runs are valid inputs for
//! [`intersect_postings`].

use std::ops::Range;

use crate::{Database, FactId, RelationId, Sym};

/// A run `start..start + len` of the posting arena.
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    start: u32,
    len: u32,
}

impl Run {
    fn range(self) -> Range<usize> {
        self.start as usize..self.end()
    }

    fn end(self) -> usize {
        (self.start + self.len) as usize
    }
}

/// The posting runs of one `(relation, position)` pair and the planner
/// statistics over them.
#[derive(Debug, Clone)]
struct PostingColumn {
    /// `runs[sym.index()]`: where the ascending ids of the facts carrying
    /// `sym` lie in the arena; one entry per dictionary symbol.
    runs: Vec<Run>,
    /// Number of symbols with a non-empty run.
    distinct: u32,
    /// `run_lengths[n]`: the number of symbols whose run holds `n` facts
    /// (`n ≥ 1`; entry 0 stays zero).
    run_lengths: Vec<u32>,
    /// The length of the longest run: the largest `n` with
    /// `run_lengths[n] > 0`, or 0.
    longest: u32,
}

impl PostingColumn {
    /// The column over `runs`, whose lengths are `lengths`.
    fn new(runs: Vec<Run>, lengths: &[u32]) -> Self {
        let longest = lengths.iter().copied().max().unwrap_or(0);
        let mut run_lengths = vec![0u32; longest as usize + 1];
        for &len in lengths {
            run_lengths[len as usize] += 1;
        }
        let distinct = (lengths.len() - run_lengths[0] as usize) as u32;
        run_lengths[0] = 0;
        PostingColumn {
            runs,
            distinct,
            run_lengths,
            longest,
        }
    }

    #[inline]
    fn run(&self, sym: Sym) -> Run {
        // A symbol interned after this index was built (or by a sibling
        // database) matches no indexed fact.
        self.runs.get(sym.index()).copied().unwrap_or_default()
    }

    /// Updates the statistics for one run whose length moved from `old` to
    /// `new`.  The longest run only walks down past lengths no run has any
    /// more, at most `old - new` steps, so the cost follows the change.
    fn record_len(&mut self, old: u32, new: u32) {
        if old == new {
            return;
        }
        if old > 0 {
            self.run_lengths[old as usize] -= 1;
        } else {
            self.distinct += 1;
        }
        if new > 0 {
            if self.run_lengths.len() <= new as usize {
                self.run_lengths.resize(new as usize + 1, 0);
            }
            self.run_lengths[new as usize] += 1;
        } else {
            self.distinct -= 1;
        }
        if new > self.longest {
            self.longest = new;
        }
        while self.longest > 0 && self.run_lengths[self.longest as usize] == 0 {
            self.longest -= 1;
        }
    }

    /// The run-length histogram up to the longest run (the entries past it
    /// are zero).
    fn histogram(&self) -> &[u32] {
        &self.run_lengths[..=self.longest as usize]
    }
}

/// Per-relation indexes from `(position, symbol)` to the ascending ids of
/// the facts carrying that symbol at that position.
///
/// Built once per [`Database`] (see [`Database::relation_index`]), then
/// patched per mutation batch, and shared across threads; all lookups
/// return borrowed slices, so the query-evaluation hot path performs no
/// allocation.  The cardinality accessors
/// ([`RelationIndex::posting_len`], [`RelationIndex::distinct_count`],
/// [`RelationIndex::relation_cardinality`]) expose the exact statistics
/// the join planner uses for selectivity-based ordering.  Equality
/// compares the posting runs and statistics, not the arena layout.
#[derive(Debug, Clone, Default)]
pub struct RelationIndex {
    /// `columns[relation][position]`: symbol → run of `arena`.
    columns: Vec<Vec<PostingColumn>>,
    /// Facts per relation (for planner cardinality estimates).
    cardinalities: Vec<u32>,
    /// Every posting run, back to back; the slots no run covers are
    /// garbage.
    arena: Vec<FactId>,
    /// The number of garbage slots in `arena`.
    garbage: usize,
    /// Arena entries written by batches since the build, compactions
    /// excluded.
    #[cfg(test)]
    moved: u64,
    /// Arena compactions since the build.
    #[cfg(test)]
    compactions: u64,
}

impl RelationIndex {
    /// Builds the index of `db`: one counting-sort pass per column.
    pub fn build(db: &Database) -> Self {
        let schema = db.schema();
        let sym_bound = db.dictionary().len();
        let mut index = RelationIndex {
            columns: Vec::with_capacity(schema.relation_count()),
            cardinalities: Vec::with_capacity(schema.relation_count()),
            ..RelationIndex::default()
        };
        for relation in schema.relation_ids() {
            let ids = db.row_ids(relation);
            let dead = db.dead_rows(relation);
            let live = |row: usize| dead == 0 || db.is_live(ids[row]);
            index.cardinalities.push((ids.len() - dead) as u32);
            let mut relation_columns = Vec::with_capacity(schema.arity(relation));
            for column in db.columns_of(relation) {
                // Count, prefix-sum, fill — visiting rows in ascending
                // fact-id order keeps every run ascending.
                let mut counts = vec![0u32; sym_bound];
                for (row, &sym) in column.iter().enumerate() {
                    if live(row) {
                        counts[sym.index()] += 1;
                    }
                }
                let mut at = index.arena.len() as u32;
                let mut runs: Vec<Run> = counts
                    .iter()
                    .map(|&len| {
                        let run = Run { start: at, len: 0 };
                        at += len;
                        run
                    })
                    .collect();
                index.arena.resize(at as usize, FactId::new(0));
                for (row, (&sym, &id)) in column.iter().zip(ids).enumerate() {
                    if live(row) {
                        let run = &mut runs[sym.index()];
                        index.arena[run.end()] = id;
                        run.len += 1;
                    }
                }
                relation_columns.push(PostingColumn::new(runs, &counts));
            }
            index.columns.push(relation_columns);
        }
        index
    }

    /// Iterates the non-empty posting runs of `(relation, position)` in
    /// symbol order.  Each run is the ascending id list of the facts
    /// sharing one symbol at that position — i.e. the runs partition the
    /// relation into its groups of equal `position`-values, which is what
    /// the FD violation scan consumes for single-attribute left-hand
    /// sides.
    ///
    /// # Panics
    /// Panics if `relation` or `position` is out of range for the indexed
    /// database.
    pub fn posting_runs(
        &self,
        relation: RelationId,
        position: usize,
    ) -> impl Iterator<Item = &[FactId]> + '_ {
        self.columns[relation.index()][position]
            .runs
            .iter()
            .filter(|run| run.len > 0)
            .map(|run| &self.arena[run.range()])
    }

    /// The ids of the facts of `relation` whose symbol at `position` equals
    /// `sym`, in ascending id order (empty if no fact matches, including
    /// for symbols interned after this index was built).
    ///
    /// # Panics
    /// Panics if `relation` or `position` is out of range for the indexed
    /// database.
    #[inline]
    pub fn matches(&self, relation: RelationId, position: usize, sym: Sym) -> &[FactId] {
        &self.arena[self.columns[relation.index()][position].run(sym).range()]
    }

    /// The exact length of the posting run of `sym` at
    /// `(relation, position)` — the statistic the join planner uses to
    /// break atom-order ties.
    #[inline]
    pub fn posting_len(&self, relation: RelationId, position: usize, sym: Sym) -> usize {
        self.columns[relation.index()][position].run(sym).len as usize
    }

    /// Alias of [`RelationIndex::posting_len`] kept for the run-time
    /// access-path choice in `ucqa-query`.
    pub fn selectivity(&self, relation: RelationId, position: usize, sym: Sym) -> usize {
        self.posting_len(relation, position, sym)
    }

    /// Number of distinct symbols with at least one fact at
    /// `(relation, position)`.
    #[inline]
    pub fn distinct_count(&self, relation: RelationId, position: usize) -> usize {
        self.columns[relation.index()][position].distinct as usize
    }

    /// Number of facts of `relation`.
    #[inline]
    pub fn relation_cardinality(&self, relation: RelationId) -> usize {
        self.cardinalities[relation.index()] as usize
    }

    /// Total number of posting entries across all relations and positions
    /// (= Σ relation arity × fact count; a size diagnostic).
    pub fn posting_entries(&self) -> usize {
        self.arena.len() - self.garbage
    }

    /// Extends every column's run table to cover symbols `< bound` (new
    /// symbols have empty runs).
    ///
    /// [`RelationIndex::build`] sizes every run table to the *global*
    /// dictionary bound, so a delta-maintained index must grow its tables
    /// the same way whenever a mutation interned new constants — otherwise
    /// it could never equal a fresh rebuild.
    pub(crate) fn ensure_sym_bound(&mut self, bound: usize) {
        for column in self.columns.iter_mut().flatten() {
            if column.runs.len() < bound {
                column.runs.resize(bound, Run::default());
            }
        }
    }

    /// Applies a batch of insertions: each `(relation, row, id)` appends
    /// `id` to the posting run of every `(position, symbol)` pair of `row`
    /// and bumps the relation cardinality.  Only the touched runs are
    /// rewritten (see the module docs).
    ///
    /// Every `id` must be a *newly assigned* fact id — greater than every
    /// id already indexed — so appending at the end of each run preserves
    /// the ascending-run invariant.  Callers must have called
    /// [`RelationIndex::ensure_sym_bound`] first if the batch interned new
    /// constants.
    pub(crate) fn apply_inserts<'a>(
        &mut self,
        facts: impl IntoIterator<Item = (RelationId, &'a [Sym], FactId)>,
    ) {
        self.apply_batch(facts, true);
    }

    /// Applies a batch of deletions: each `(relation, row, id)` removes
    /// `id` (which carried symbols `row`) from the posting run of every
    /// `(position, symbol)` pair and decrements the relation cardinality.
    /// Only the touched runs are rewritten (see the module docs).  The ids
    /// must be distinct.
    ///
    /// # Panics
    /// Panics if some `id` is not indexed under every `(position, symbol)`
    /// of its `row` — the row must be exactly the one the fact was
    /// inserted with.
    pub(crate) fn apply_deletes<'a>(
        &mut self,
        facts: impl IntoIterator<Item = (RelationId, &'a [Sym], FactId)>,
    ) {
        self.apply_batch(facts, false);
    }

    /// Groups a batch by relation, hands every touched run of every column
    /// of a touched relation its sorted ids, and compacts the arena if its
    /// garbage now outgrows its live entries.
    fn apply_batch<'a>(
        &mut self,
        facts: impl IntoIterator<Item = (RelationId, &'a [Sym], FactId)>,
        insert: bool,
    ) {
        let mut by_relation: Vec<Vec<(&[Sym], FactId)>> = vec![Vec::new(); self.columns.len()];
        for (relation, row, id) in facts {
            by_relation[relation.index()].push((row, id));
        }
        let mut changes: Vec<(Sym, FactId)> = Vec::new();
        for (relation, rows) in by_relation.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            for position in 0..self.columns[relation].len() {
                changes.clear();
                changes.extend(rows.iter().map(|&(row, id)| (row[position], id)));
                changes.sort_unstable();
                for group in changes.chunk_by(|a, b| a.0 == b.0) {
                    if insert {
                        self.append_to_run(relation, position, group);
                    } else {
                        self.remove_from_run(relation, position, group);
                    }
                }
            }
            if insert {
                self.cardinalities[relation] += rows.len() as u32;
            } else {
                self.cardinalities[relation] -= rows.len() as u32;
            }
        }
        if self.garbage > self.posting_entries() {
            self.compact();
        }
    }

    /// Appends the ascending ids of `group`, which share one symbol, to
    /// that symbol's run: in place when the run ends the arena, else after
    /// copying the run to the arena's end, which turns its old slots into
    /// garbage.
    fn append_to_run(&mut self, relation: usize, position: usize, group: &[(Sym, FactId)]) {
        let sym = group[0].0;
        debug_assert!(
            sym.index() < self.columns[relation][position].runs.len(),
            "insert without ensure_sym_bound: {sym} out of range"
        );
        let column = &mut self.columns[relation][position];
        let run = &mut column.runs[sym.index()];
        debug_assert!(
            run.len == 0 || self.arena[run.end() - 1] < group[0].1,
            "inserted fact id must exceed every indexed id of its run"
        );
        let old = run.len;
        if run.end() != self.arena.len() {
            let start = self.arena.len();
            self.arena.extend_from_within(run.range());
            self.garbage += old as usize;
            run.start = start as u32;
            #[cfg(test)]
            {
                self.moved += u64::from(old);
            }
        }
        self.arena.extend(group.iter().map(|&(_, id)| id));
        run.len += group.len() as u32;
        let new = run.len;
        column.record_len(old, new);
        #[cfg(test)]
        {
            self.moved += group.len() as u64;
        }
    }

    /// Removes the ascending ids of `group`, which share one symbol, from
    /// that symbol's run in place: a removed prefix advances the run's
    /// start, and the kept ids after any other gap move left to close it.
    /// The freed slots become garbage.
    ///
    /// # Panics
    /// Panics if some id is not in the run of its symbol.
    fn remove_from_run(&mut self, relation: usize, position: usize, group: &[(Sym, FactId)]) {
        let sym = group[0].0;
        let column = &mut self.columns[relation][position];
        let run = column.run(sym);
        let entries = &mut self.arena[run.range()];
        let prefix = entries
            .iter()
            .zip(group)
            .take_while(|&(&a, &(_, b))| a == b)
            .count();
        if prefix < group.len() {
            let (mut read, mut write) = (prefix, prefix);
            for &(_, id) in &group[prefix..] {
                let at = match entries[read..].binary_search(&id) {
                    Ok(at) => read + at,
                    Err(_) => panic!("delete: {id} is not indexed under {sym}"),
                };
                entries.copy_within(read..at, write);
                write += at - read;
                read = at + 1;
            }
            entries.copy_within(read.., write);
            #[cfg(test)]
            {
                self.moved += (entries.len() - prefix) as u64;
            }
        }
        let shrunk = Run {
            start: run.start + prefix as u32,
            len: run.len - group.len() as u32,
        };
        column.runs[sym.index()] = shrunk;
        column.record_len(run.len, shrunk.len);
        self.garbage += group.len();
    }

    /// Copies every run, in build order, into a fresh arena without
    /// garbage.
    fn compact(&mut self) {
        let mut arena = Vec::with_capacity(self.posting_entries());
        for column in self.columns.iter_mut().flatten() {
            for run in &mut column.runs {
                let start = arena.len() as u32;
                arena.extend_from_slice(&self.arena[run.range()]);
                run.start = start;
            }
        }
        self.arena = arena;
        self.garbage = 0;
        #[cfg(test)]
        {
            self.compactions += 1;
        }
    }

    /// Snapshots the statistics the cost-based join planner consumes:
    /// per-relation cardinality plus, per column, the distinct-symbol
    /// count and the *longest* posting run (the hot-spot statistic a skew
    /// shift moves first).  The snapshot is the input of the drift
    /// heuristic ([`StatsSnapshot::drifted`]) that gates replanning in
    /// the streaming layer: steady-state ticks keep their compiled plans,
    /// a >2× move in any counter triggers one replan.  Both counters are
    /// maintained per batch, so a snapshot costs one read per column.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            cardinalities: self.cardinalities.clone(),
            columns: self
                .columns
                .iter()
                .map(|relation_columns| {
                    relation_columns
                        .iter()
                        .map(|column| (column.distinct, column.longest))
                        .collect()
                })
                .collect(),
        }
    }
}

impl PartialEq for RelationIndex {
    fn eq(&self, other: &Self) -> bool {
        let same_column = |a: &PostingColumn, b: &PostingColumn| {
            a.runs.len() == b.runs.len()
                && a.distinct == b.distinct
                && a.histogram() == b.histogram()
                && a.runs
                    .iter()
                    .zip(&b.runs)
                    .all(|(x, y)| self.arena[x.range()] == other.arena[y.range()])
        };
        self.cardinalities == other.cardinalities
            && self.columns.len() == other.columns.len()
            && self
                .columns
                .iter()
                .zip(&other.columns)
                .all(|(ours, theirs)| {
                    ours.len() == theirs.len()
                        && ours.iter().zip(theirs).all(|(a, b)| same_column(a, b))
                })
    }
}

impl Eq for RelationIndex {}

#[cfg(test)]
impl RelationIndex {
    /// The arena's length, live entries and garbage together.
    pub(crate) fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Arena entries written by batches since the build, compactions
    /// excluded.
    pub(crate) fn moved_entries(&self) -> u64 {
        self.moved
    }

    /// Arena compactions since the build.
    pub(crate) fn compactions(&self) -> u64 {
        self.compactions
    }

    /// The planner statistics recomputed from the runs themselves, the
    /// oracle of the maintained ones.
    pub(crate) fn stats_from_runs(&self) -> StatsSnapshot {
        StatsSnapshot {
            cardinalities: self.cardinalities.clone(),
            columns: self
                .columns
                .iter()
                .map(|relation_columns| {
                    relation_columns
                        .iter()
                        .map(|column| {
                            let lengths = column.runs.iter().map(|run| run.len);
                            (
                                lengths.clone().filter(|&len| len > 0).count() as u32,
                                lengths.max().unwrap_or(0),
                            )
                        })
                        .collect()
                })
                .collect(),
        }
    }
}

/// A compact snapshot of the planner-relevant statistics of a
/// [`RelationIndex`], from [`RelationIndex::stats_snapshot`]: per-relation
/// cardinalities and per-column `(distinct count, longest posting run)`
/// aggregates.
///
/// Cost-based plans (`JoinPlan::build_costed` in `ucqa-query`) are only
/// as good as the statistics they were built from; the streaming layer
/// snapshots the statistics at plan time and compares against the live
/// index each tick.  [`StatsSnapshot::drifted`] is the replan gate, and
/// [`StatsSnapshot::fingerprint`] a cheap "did anything move at all"
/// probe for reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Facts per relation.
    cardinalities: Vec<u32>,
    /// Per relation, per position: `(distinct symbols, longest run)`.
    columns: Vec<Vec<(u32, u32)>>,
}

impl StatsSnapshot {
    /// `true` iff `current` has moved by more than `factor` relative to
    /// `self` in any relation cardinality or any column's longest posting
    /// run — growth or shrink; a counter moving between zero and non-zero
    /// (or a shape change, e.g. a new relation) always counts as drift.
    /// `factor` is a ratio: the streaming layer passes `2.0` for its
    /// ">2× moved ⇒ replan once" policy.
    pub fn drifted(&self, current: &StatsSnapshot, factor: f64) -> bool {
        fn moved(a: u32, b: u32, factor: f64) -> bool {
            if a == b {
                return false;
            }
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            if lo == 0 {
                return true;
            }
            hi as f64 > factor * lo as f64
        }
        if self.cardinalities.len() != current.cardinalities.len()
            || self.columns.len() != current.columns.len()
        {
            return true;
        }
        for (&a, &b) in self.cardinalities.iter().zip(&current.cardinalities) {
            if moved(a, b, factor) {
                return true;
            }
        }
        for (ours, theirs) in self.columns.iter().zip(&current.columns) {
            if ours.len() != theirs.len() {
                return true;
            }
            for (&(_, run_a), &(_, run_b)) in ours.iter().zip(theirs) {
                if moved(run_a, run_b, factor) {
                    return true;
                }
            }
        }
        false
    }

    /// A 64-bit FNV-1a fingerprint over every counter of the snapshot —
    /// equal fingerprints mean (modulo collisions) no planner statistic
    /// moved at all, a stronger condition than the ratio-based
    /// [`StatsSnapshot::drifted`].
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        let mut mix = |value: u32| {
            for byte in value.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(PRIME);
            }
        };
        for &cardinality in &self.cardinalities {
            mix(cardinality);
        }
        for relation_columns in &self.columns {
            mix(relation_columns.len() as u32);
            for &(distinct, longest) in relation_columns {
                mix(distinct);
                mix(longest);
            }
        }
        hash
    }
}

/// Intersects two ascending fact-id runs with a galloping merge, appending
/// the common ids (in ascending order) to `out`.
///
/// When the runs' lengths are lopsided the cost is
/// `O(min · log(max / min))` instead of `O(min + max)`: each element of
/// the shorter run gallops (doubling probe, then binary search) through
/// the longer one.  Both inputs must be strictly ascending, which posting
/// runs of a [`RelationIndex`] always are.
pub fn intersect_postings(a: &[FactId], b: &[FactId], out: &mut Vec<FactId>) {
    // Gallop from the shorter side.
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut lo = 0usize;
    for &id in small {
        if lo >= large.len() {
            break;
        }
        // Exponential probe: after the loop, the first element `>= id`
        // (if any) lies in `[lo, lo + step]`.
        let mut step = 1usize;
        while lo + step < large.len() && large[lo + step] < id {
            lo += step;
            step <<= 1;
        }
        let hi = (lo + step + 1).min(large.len());
        match large[lo..hi].binary_search(&id) {
            Ok(offset) => {
                out.push(id);
                lo += offset + 1;
            }
            Err(offset) => lo += offset,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;
    use crate::Value;

    fn sample_db() -> Database {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        schema.add_relation("S", &["X"]).unwrap();
        let mut db = Database::with_schema(schema);
        for (a, b) in [(1, 1), (1, 2), (2, 1)] {
            db.insert_values("R", [Value::int(a), Value::int(b)])
                .unwrap();
        }
        db.insert_values("S", [Value::str("u")]).unwrap();
        db
    }

    fn sym_of(db: &Database, value: &Value) -> Sym {
        db.dictionary().lookup(value).expect("interned")
    }

    #[test]
    fn postings_group_facts_by_position_and_symbol() {
        let db = sample_db();
        let index = RelationIndex::build(&db);
        let r = db.schema().relation_id("R").unwrap();
        let one = sym_of(&db, &Value::int(1));
        assert_eq!(index.matches(r, 0, one), &[FactId::new(0), FactId::new(1)]);
        assert_eq!(index.matches(r, 1, one), &[FactId::new(0), FactId::new(2)]);
        assert_eq!(index.posting_len(r, 0, sym_of(&db, &Value::int(2))), 1);
        assert_eq!(index.distinct_count(r, 0), 2);
        assert_eq!(index.distinct_count(r, 1), 2);
        assert_eq!(index.relation_cardinality(r), 3);
        let s = db.schema().relation_id("S").unwrap();
        assert_eq!(
            index.matches(s, 0, sym_of(&db, &Value::str("u"))),
            &[FactId::new(3)]
        );
        assert_eq!(index.relation_cardinality(s), 1);
        // 3 facts × arity 2 + 1 fact × arity 1.
        assert_eq!(index.posting_entries(), 7);
    }

    #[test]
    fn late_interned_symbols_match_nothing() {
        let mut db = sample_db();
        let index = db.share_relation_index();
        let r = db.schema().relation_id("R").unwrap();
        // Interning a new constant after the index snapshot was taken must
        // not panic — the stale index simply reports no matches.
        db.insert_values("R", [Value::int(50), Value::int(60)])
            .unwrap();
        let late = sym_of(&db, &Value::int(50));
        assert!(index.matches(r, 0, late).is_empty());
        assert_eq!(index.posting_len(r, 0, late), 0);
    }

    #[test]
    fn database_caches_and_maintains_the_index() {
        let mut db = sample_db();
        let r = db.schema().relation_id("R").unwrap();
        let one = Value::int(1);
        let len_of_one = |db: &Database| {
            let sym = db.dictionary().lookup(&one).unwrap();
            db.relation_index().posting_len(r, 0, sym)
        };
        assert_eq!(len_of_one(&db), 2);
        // Re-inserting an existing fact keeps the cache valid.
        db.insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        assert_eq!(len_of_one(&db), 2);
        assert_eq!(db.index_builds(), 1);
        assert_eq!(db.index_delta_applies(), 0);
        // A genuinely new fact patches the cached index in place — no
        // rebuild, and the patched index equals a fresh one.
        db.insert_values("R", [Value::int(1), Value::int(3)])
            .unwrap();
        assert_eq!(len_of_one(&db), 3);
        assert_eq!(db.index_builds(), 1);
        assert_eq!(db.index_delta_applies(), 1);
        assert_eq!(*db.relation_index(), RelationIndex::build(&db));
        // Deleting patches too.
        let gone = crate::Fact::new(r, vec![Value::int(1), Value::int(3)]);
        let id = db.fact_id(&gone).unwrap();
        db.delete(id).unwrap();
        assert_eq!(len_of_one(&db), 2);
        assert_eq!(db.index_builds(), 1);
        assert_eq!(db.index_delta_applies(), 2);
        assert_eq!(*db.relation_index(), RelationIndex::build(&db));
        // Clones share the already-built index.
        let shared = db.share_relation_index();
        let clone = db.clone();
        assert_eq!(
            clone.relation_index().posting_entries(),
            shared.posting_entries()
        );
    }

    #[test]
    fn stats_snapshot_drifts_on_big_moves_only() {
        let mut db = sample_db();
        let r = db.schema().relation_id("R").unwrap();
        let baseline = db.relation_index().stats_snapshot();
        assert!(!baseline.drifted(&baseline, 2.0), "self-compare is stable");
        let fp = baseline.fingerprint();

        // One benign insert: cardinality 3 → 4, longest run 2 → 2 for
        // column 0 (key 3 starts a fresh run).  No ratio clears 2×, but
        // the exact fingerprint moves.
        db.insert_values("R", [Value::int(3), Value::int(5)])
            .unwrap();
        let benign = db.relation_index().stats_snapshot();
        assert!(!baseline.drifted(&benign, 2.0), "small moves stay quiet");
        assert_ne!(fp, benign.fingerprint());

        // A skew burst on key 1: its posting run grows 2 → 7, more than
        // 2× — the drift heuristic fires (in both directions).
        for i in 0..5 {
            db.insert_values("R", [Value::int(1), Value::int(100 + i)])
                .unwrap();
        }
        let skewed = db.relation_index().stats_snapshot();
        assert!(baseline.drifted(&skewed, 2.0), "hot-run growth is drift");
        assert!(skewed.drifted(&baseline, 2.0), "shrink is drift too");
        assert_eq!(
            db.relation_index()
                .posting_len(r, 0, db.dictionary().lookup(&Value::int(1)).unwrap()),
            7
        );
    }

    fn ids(raw: &[usize]) -> Vec<FactId> {
        raw.iter().copied().map(FactId::new).collect()
    }

    #[test]
    fn galloping_intersection_matches_naive() {
        let cases: &[(&[usize], &[usize])] = &[
            (&[], &[]),
            (&[1], &[]),
            (&[1, 2, 3], &[2]),
            (&[2], &[1, 2, 3]),
            (&[0, 5, 9], &[1, 2, 3, 4, 5, 6, 7, 8, 9]),
            (&[0, 1, 2, 3], &[4, 5, 6]),
            (&[0, 1, 2, 3], &[0, 1, 2, 3]),
            (&[3, 50, 900], &(0..1000).step_by(3).collect::<Vec<_>>()),
        ];
        for (a, b) in cases {
            let a = ids(a);
            let b = ids(b);
            let naive: Vec<FactId> = a.iter().filter(|x| b.contains(x)).copied().collect();
            let mut out = Vec::new();
            intersect_postings(&a, &b, &mut out);
            assert_eq!(out, naive, "a={a:?} b={b:?}");
            out.clear();
            intersect_postings(&b, &a, &mut out);
            assert_eq!(out, naive, "swapped a={a:?} b={b:?}");
        }
    }

    #[test]
    fn galloping_intersection_on_real_postings() {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        let mut db = Database::with_schema(schema);
        for i in 0..100i64 {
            db.insert_values("R", [Value::int(i % 4), Value::int(i % 7)])
                .unwrap();
        }
        let r = db.schema().relation_id("R").unwrap();
        let index = db.relation_index();
        let a = index.matches(r, 0, sym_of(&db, &Value::int(1)));
        let b = index.matches(r, 1, sym_of(&db, &Value::int(2)));
        let mut out = Vec::new();
        intersect_postings(a, b, &mut out);
        let naive: Vec<FactId> = a.iter().filter(|x| b.contains(x)).copied().collect();
        assert_eq!(out, naive);
        assert!(!out.is_empty());
    }
}
