//! Databases: dictionary-encoded columnar fact storage with dense ids.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::{
    DbError, Dictionary, Fact, FactId, FactSet, RelationId, RelationIndex, Schema, Sym, Value,
};

/// One fact-level change in a database's mutation log.
///
/// [`Database::changes_since`] exposes the suffix of the log past a
/// version cursor, which is what delta consumers ([`crate::ConflictIndex`]
/// refresh, lineage refresh in `ucqa-query`) replay instead of rescanning
/// the database.  Deletions carry the relation and symbol row because the
/// database no longer answers for a deleted fact: [`Database::row_of`] and
/// [`Database::sym`] take live ids only, and the tombstoned row itself is
/// reclaimed by the next compaction of its relation — a late reader could
/// not recover it from the database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactChange {
    /// A genuinely new fact was inserted under this id.
    Inserted(FactId),
    /// The fact with this id was deleted.
    Deleted {
        /// The id the fact held (never reused).
        id: FactId,
        /// The relation the fact belonged to.
        relation: RelationId,
        /// The fact's symbol row at deletion time.
        row: Box<[Sym]>,
    },
}

impl FactChange {
    /// The fact id this change concerns.
    pub fn fact(&self) -> FactId {
        match self {
            FactChange::Inserted(id) => *id,
            FactChange::Deleted { id, .. } => *id,
        }
    }
}

/// A database `D` over a schema **S**: a finite set of facts.
///
/// Facts are deduplicated on insertion and receive dense [`FactId`]s in
/// insertion order.  Storage is *columnar and dictionary-encoded*: every
/// constant is interned into a shared [`Dictionary`] and each relation
/// stores its facts as per-position [`Sym`] columns, so the hot paths
/// (violation detection, join probes) compare dense `u32` symbols instead
/// of hashing [`Value`]s.  The [`Value`]-facing API ([`Database::fact`],
/// [`Database::insert`], …) is a thin encode/decode shell over the
/// columns.
///
/// The schema and dictionary are shared behind [`Arc`]s so that derived
/// databases (e.g. the reduction gadgets) and concurrent samplers can
/// reuse them cheaply; the dictionary is cloned copy-on-write only if a
/// snapshot handle is still held when new constants arrive.
pub struct Database {
    schema: Arc<Schema>,
    /// The shared value interner; append-only, copy-on-write under
    /// [`Arc::make_mut`].
    dict: Arc<Dictionary>,
    /// Per relation, per position, per row: the interned symbol.  Rows of
    /// relation `r` align with `by_relation[r]` (insertion order within
    /// the relation).  A deleted fact's row stays in place, tombstoned,
    /// until its relation is compacted.
    columns: Vec<Vec<Vec<Sym>>>,
    /// FactId → owning relation.
    fact_rel: Vec<RelationId>,
    /// FactId → row within its relation's columns; meaningful for live
    /// ids only (a compaction renumbers the live rows and leaves the dead
    /// ids' entries stale).
    fact_row: Vec<u32>,
    /// Per relation, per row: the id of the row's fact, live or
    /// tombstoned; ascending, since rows are appended in id order and a
    /// compaction keeps their order.
    by_relation: Vec<Vec<FactId>>,
    /// Per relation: the number of tombstoned rows.  A delete batch
    /// compacts a relation once they outnumber its live rows, so the rows
    /// never exceed twice the live facts and each dead row is moved past
    /// once.
    dead_rows: Vec<u32>,
    /// Dedup map from encoded fact to id.
    by_key: HashMap<(RelationId, Box<[Sym]>), FactId>,
    /// The live facts: one bit per id ever assigned, cleared when the
    /// fact is deleted.  Ids are never reused: a deleted fact keeps its id
    /// forever, so `FactSet`s and changelogs stay valid across versions.
    /// [`Database::is_live`] is a bit test and [`Database::all_facts`] a
    /// word copy.
    live: FactSet,
    /// Number of live facts (members of `live`).
    live_count: usize,
    /// The lowest id that may be live: every id below it is deleted.
    /// Ids are never reused and inserts append, so deletes only ever
    /// advance it; it keeps [`Database::fact_ids`] and
    /// [`Database::expire_oldest`] from rescanning the stream's history.
    first_live: usize,
    /// The fact-level mutation log; `version()` is its length.
    log: Vec<FactChange>,
    /// Lazily built `(position, symbol) → fact ids` index backing the
    /// plan-based query evaluator; once built it is *maintained* under
    /// mutations, one patch per batch, instead of being invalidated and
    /// rebuilt.
    value_index: OnceLock<Arc<RelationIndex>>,
    /// Number of times the relation index has been (re)built, for
    /// observing cache behaviour under bulk loads.
    index_builds: AtomicU64,
    /// Number of facts patched into or out of the cached relation index
    /// (diagnostics twin of `index_builds`).
    index_delta_applies: u64,
    /// Relation compactions since the database was created.
    #[cfg(test)]
    row_compactions: u64,
}

impl Clone for Database {
    fn clone(&self) -> Self {
        let value_index = OnceLock::new();
        if let Some(index) = self.value_index.get() {
            // An already-built index describes the same facts; share it.
            let _ = value_index.set(Arc::clone(index));
        }
        Database {
            schema: Arc::clone(&self.schema),
            dict: Arc::clone(&self.dict),
            columns: self.columns.clone(),
            fact_rel: self.fact_rel.clone(),
            fact_row: self.fact_row.clone(),
            by_relation: self.by_relation.clone(),
            dead_rows: self.dead_rows.clone(),
            by_key: self.by_key.clone(),
            live: self.live.clone(),
            live_count: self.live_count,
            first_live: self.first_live,
            log: self.log.clone(),
            value_index,
            index_builds: AtomicU64::new(self.index_builds.load(Ordering::Relaxed)),
            index_delta_applies: self.index_delta_applies,
            #[cfg(test)]
            row_compactions: self.row_compactions,
        }
    }
}

impl Database {
    /// Creates an empty database over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        Database::with_dictionary(schema, Arc::new(Dictionary::new()))
    }

    /// Creates an empty database taking ownership of `schema`.
    pub fn with_schema(schema: Schema) -> Self {
        Database::new(Arc::new(schema))
    }

    /// Creates an empty database over `schema` that interns into (a
    /// copy-on-write handle of) an existing dictionary.
    ///
    /// Pre-seeding the dictionary lets several databases agree on symbol
    /// assignments, and lets tests exercise symbol-order independence.
    fn with_dictionary(schema: Arc<Schema>, dict: Arc<Dictionary>) -> Self {
        let relations = schema.relation_count();
        let columns = (0..relations)
            .map(|r| vec![Vec::new(); schema.arity(RelationId(r as u32))])
            .collect();
        Database {
            schema,
            dict,
            columns,
            fact_rel: Vec::new(),
            fact_row: Vec::new(),
            by_relation: vec![Vec::new(); relations],
            dead_rows: vec![0; relations],
            by_key: HashMap::new(),
            live: FactSet::empty(0),
            live_count: 0,
            first_live: 0,
            log: Vec::new(),
            value_index: OnceLock::new(),
            index_builds: AtomicU64::new(0),
            index_delta_applies: 0,
            #[cfg(test)]
            row_compactions: 0,
        }
    }

    /// The schema of this database.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// A shared handle to the schema.
    fn schema_arc(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// The dictionary this database interns its constants into.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// A shared handle to the dictionary, for decoding symbols on other
    /// threads.  Later inserts of *new* constants copy-on-write the
    /// database's dictionary, leaving the returned snapshot untouched.
    fn share_dictionary(&self) -> Arc<Dictionary> {
        Arc::clone(&self.dict)
    }

    /// Validates `fact` against the schema (relation id range and arity)
    /// without interning or mutating anything.
    fn validate_fact(&self, fact: &Fact) -> Result<(), DbError> {
        if fact.relation().index() >= self.schema.relation_count() {
            return Err(DbError::ForeignRelationId {
                index: fact.relation().index(),
                relations: self.schema.relation_count(),
            });
        }
        let arity = self.schema.arity(fact.relation());
        if fact.arity() != arity {
            return Err(DbError::ArityMismatch {
                relation: self.schema.relation_name(fact.relation()).to_string(),
                expected: arity,
                actual: fact.arity(),
            });
        }
        Ok(())
    }

    /// Appends an encoded (validated, deduplicated) row, returning the new
    /// fact's id.  Bumps the version and logs the insertion; does **not**
    /// touch the cached index (the caller patches or skips it).
    fn push_row(&mut self, relation: RelationId, row: Box<[Sym]>) -> FactId {
        let id = FactId::new(self.fact_rel.len());
        let columns = &mut self.columns[relation.index()];
        let row_index = self.by_relation[relation.index()].len() as u32;
        for (column, &sym) in columns.iter_mut().zip(row.iter()) {
            column.push(sym);
        }
        self.by_relation[relation.index()].push(id);
        self.fact_rel.push(relation);
        self.fact_row.push(row_index);
        self.by_key.insert((relation, row), id);
        self.live.grow(id.index() + 1);
        self.live.insert(id);
        self.live_count += 1;
        self.log.push(FactChange::Inserted(id));
        id
    }

    /// Inserts a fact, checking its relation id and arity against the
    /// schema.
    ///
    /// Returns the fact's id (existing id if the fact was already present).
    /// A fact whose [`RelationId`] was minted by a different (larger)
    /// schema is rejected with [`DbError::ForeignRelationId`] instead of
    /// corrupting the per-relation index.  A rejected fact interns
    /// nothing.  A genuinely new fact is *delta-applied* to the cached
    /// [`RelationIndex`] (if one has been built) instead of invalidating
    /// it.
    pub fn insert(&mut self, fact: Fact) -> Result<FactId, DbError> {
        let mut ids = self.extend(std::iter::once(fact))?;
        match ids.pop() {
            Some(id) => Ok(id),
            // `extend` returns exactly one id per input fact.
            None => unreachable!("extend of one fact yields one id"),
        }
    }

    /// Bulk insert with **validate-then-commit** semantics: every fact of
    /// the batch is validated and encoded before any row is pushed, so a
    /// failed bulk load leaves the database — facts, dictionary, cached
    /// index, version — exactly as it was.
    ///
    /// Constants are interned only when the batch commits, and only the
    /// constants of genuinely new facts reach the dictionary: rejected and
    /// duplicate facts cannot grow the symbol table (and therefore cannot
    /// skew `distinct_count`-based planning statistics).  On commit each
    /// new row is appended to its relation's columns, and the cached
    /// [`RelationIndex`] (if built) absorbs the whole batch by rewriting
    /// only the posting runs it touches; it is never invalidated.  Beyond
    /// staging, a batch costs its own size plus the touched runs'
    /// lengths, amortised — not the relation's size or the dictionary's.
    /// Returns the id of each input fact in order.
    pub fn extend(
        &mut self,
        facts: impl IntoIterator<Item = Fact>,
    ) -> Result<Vec<FactId>, DbError> {
        /// Where each input fact of a staged batch ends up.
        enum Slot {
            /// Already present before the batch.
            Existing(FactId),
            /// The `n`-th genuinely new row of the batch.
            Pending(usize),
        }

        // --- Stage: validate and encode everything, mutate nothing. ---
        // New constants are assigned provisional symbols past the current
        // dictionary bound; they become real only if the whole batch
        // validates.
        // A borrow, not a second `Arc` handle: the commit's
        // `Arc::make_mut` must see the dictionary unshared to append in
        // place instead of copying it.
        let dict: &Dictionary = &self.dict;
        let mut staged_values: Vec<Value> = Vec::new();
        let mut staged_index: HashMap<Value, Sym> = HashMap::new();
        let mut slots: Vec<Slot> = Vec::new();
        let mut pending: Vec<(RelationId, Box<[Sym]>)> = Vec::new();
        let mut pending_keys: HashMap<(RelationId, Box<[Sym]>), usize> = HashMap::new();
        for fact in facts {
            self.validate_fact(&fact)?;
            let row: Box<[Sym]> = fact
                .values()
                .iter()
                .map(|value| {
                    if let Some(sym) = dict.lookup(value) {
                        return Ok(sym);
                    }
                    match staged_index.entry(value.clone()) {
                        Entry::Occupied(staged) => Ok(*staged.get()),
                        Entry::Vacant(slot) => {
                            let index = dict.len() + staged_values.len();
                            let sym = Sym::try_new(index)
                                .ok_or(DbError::DictionaryFull { symbols: index })?;
                            staged_values.push(value.clone());
                            Ok(*slot.insert(sym))
                        }
                    }
                })
                .collect::<Result<_, DbError>>()?;
            let key = (fact.relation(), row);
            if let Some(&id) = self.by_key.get(&key) {
                slots.push(Slot::Existing(id));
                continue;
            }
            match pending_keys.entry(key) {
                Entry::Occupied(position) => slots.push(Slot::Pending(*position.get())),
                Entry::Vacant(slot) => {
                    slots.push(Slot::Pending(pending.len()));
                    pending.push(slot.key().clone());
                    slot.insert(pending.len() - 1);
                }
            }
        }

        // --- Commit: the batch is valid; now mutate. ---
        if !staged_values.is_empty() {
            // The staged symbols were assigned densely past the old
            // bound, so appending them in order reproduces them exactly.
            Arc::make_mut(&mut self.dict).append_staged(staged_values, staged_index);
        }
        let pending_ids: Vec<FactId> = pending
            .iter()
            .cloned()
            .map(|(relation, row)| self.push_row(relation, row))
            .collect();
        if !pending.is_empty() {
            if let Some(shared) = self.value_index.get_mut() {
                let index = Arc::make_mut(shared);
                index.ensure_sym_bound(self.dict.len());
                index.apply_inserts(
                    pending
                        .iter()
                        .zip(&pending_ids)
                        .map(|((relation, row), &id)| (*relation, &row[..], id)),
                );
                self.index_delta_applies += pending.len() as u64;
            }
        }
        Ok(slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Existing(id) => id,
                Slot::Pending(position) => pending_ids[position],
            })
            .collect())
    }

    /// Deletes the fact with the given id, if it is live: a batch of one
    /// for [`Database::delete_all`].
    ///
    /// The id is tombstoned (never reused) together with the fact's row,
    /// which later compaction reclaims (see [`Database::delete_all`]).
    /// The cached [`RelationIndex`] (if built) is delta-patched, the
    /// version is bumped, and the change is logged with the deleted symbol
    /// row so delta consumers can replay it.  Returns
    /// [`DbError::NoSuchFact`] for an out-of-range or already-deleted id.
    pub fn delete(&mut self, id: FactId) -> Result<(), DbError> {
        self.delete_all(&[id])
    }

    /// Deletes every fact of `ids` as one batch, with
    /// **validate-then-commit** semantics like [`Database::extend`]: if
    /// some id is out of range, already deleted or repeated, the call
    /// returns [`DbError::NoSuchFact`] for the first such id and leaves
    /// the database — facts, cached index, version, log — exactly as it
    /// was.
    ///
    /// The log gains one [`FactChange::Deleted`] per id, in the order of
    /// `ids`: the very entries a sequence of [`Database::delete`] calls
    /// would log.  Each deleted row is tombstoned in place; a relation is
    /// compacted in one pass, renumbering its live rows, only once its
    /// dead rows outnumber its live ones, so every dead row is moved past
    /// once.  The cached [`RelationIndex`] (if built) rewrites only the
    /// posting runs the batch touches.  A batch therefore costs its size
    /// plus the touched runs' lengths, amortised — not the relation's
    /// size or the dictionary's.
    pub fn delete_all(&mut self, ids: &[FactId]) -> Result<(), DbError> {
        // --- Validate: tombstone as we go, so a repeated id fails exactly
        // as a second `delete` would; undo everything on failure. ---
        for (checked, &id) in ids.iter().enumerate() {
            if !self.is_live(id) {
                for &earlier in &ids[..checked] {
                    self.live.insert(earlier);
                }
                return Err(DbError::NoSuchFact {
                    index: id.index(),
                    universe: self.len(),
                });
            }
            self.live.remove(id);
        }
        if ids.is_empty() {
            return Ok(());
        }

        // --- Commit: log every deletion in order, then compact the
        // relations whose dead rows now outnumber their live ones. ---
        let first_entry = self.log.len();
        let mut touched: Vec<usize> = Vec::new();
        for &id in ids {
            let relation = self.fact_rel[id.index()];
            let row = self.fact_row[id.index()] as usize;
            let key = (
                relation,
                self.columns[relation.index()]
                    .iter()
                    .map(|column| column[row])
                    .collect::<Box<[Sym]>>(),
            );
            self.by_key.remove(&key);
            self.dead_rows[relation.index()] += 1;
            touched.push(relation.index());
            self.log.push(FactChange::Deleted {
                id,
                relation,
                row: key.1,
            });
        }
        self.live_count -= ids.len();
        touched.sort_unstable();
        touched.dedup();
        for relation in touched {
            let dead = self.dead_rows[relation] as usize;
            if dead > self.by_relation[relation].len() - dead {
                self.compact_rows(relation);
            }
        }
        if let Some(shared) = self.value_index.get_mut() {
            Arc::make_mut(shared).apply_deletes(self.log[first_entry..].iter().filter_map(
                |change| match change {
                    FactChange::Deleted { id, relation, row } => Some((*relation, &row[..], *id)),
                    FactChange::Inserted(_) => None,
                },
            ));
            self.index_delta_applies += ids.len() as u64;
        }
        self.first_live = self
            .live
            .iter_from(self.first_live)
            .next()
            .map_or(self.len(), FactId::index);
        Ok(())
    }

    /// Drops the tombstoned rows of `relation` in one pass, moving each live
    /// row down over them and renumbering it.
    fn compact_rows(&mut self, relation: usize) {
        let facts = &mut self.by_relation[relation];
        let columns = &mut self.columns[relation];
        let mut write = 0usize;
        for read in 0..facts.len() {
            let id = facts[read];
            if !self.live.contains(id) {
                continue;
            }
            if write != read {
                facts[write] = id;
                for column in columns.iter_mut() {
                    column[write] = column[read];
                }
            }
            self.fact_row[id.index()] = write as u32;
            write += 1;
        }
        facts.truncate(write);
        for column in columns.iter_mut() {
            column.truncate(write);
        }
        self.dead_rows[relation] = 0;
        #[cfg(test)]
        {
            self.row_compactions += 1;
        }
    }

    /// Deletes `fact` by value, returning the id it held, or `None` if the
    /// fact was not present (which is not an error — retraction is
    /// idempotent).
    pub fn retract(&mut self, fact: &Fact) -> Result<Option<FactId>, DbError> {
        match self.fact_id(fact) {
            Some(id) => {
                self.delete(id)?;
                Ok(Some(id))
            }
            None => Ok(None),
        }
    }

    /// Expires the oldest live facts until at most `keep` remain,
    /// returning the expired ids, oldest first.  "Oldest" is insertion
    /// order — fact ids are assigned monotonically and never reused, so
    /// the lowest live ids are the ones that slid out of a count-bounded
    /// window.  The expiries are one [`Database::delete_all`] batch: it
    /// tombstones the ids, patches the cached indexes, and logs a
    /// [`FactChange::Deleted`] per id for delta consumers to replay.  The
    /// scan starts at the lowest id that may be live and the batch
    /// tombstones rows in place, so the cost follows the expired facts and
    /// the posting runs they leave, amortised — not the window or the
    /// stream's history.
    pub fn expire_oldest(&mut self, keep: usize) -> Result<Vec<FactId>, DbError> {
        let excess = self.live_count.saturating_sub(keep);
        let victims: Vec<FactId> = self.fact_ids().take(excess).collect();
        self.delete_all(&victims)?;
        Ok(victims)
    }

    /// The database version: the number of fact-level changes (insertions
    /// and deletions) ever applied.  Bumped monotonically; duplicates and
    /// rejected facts do not bump it.
    pub fn version(&self) -> u64 {
        self.log.len() as u64
    }

    /// The suffix of the mutation log past a version cursor: everything
    /// that changed since `version` (as previously returned by
    /// [`Database::version`]), oldest first.
    pub fn changes_since(&self, version: u64) -> &[FactChange] {
        let from = usize::try_from(version).unwrap_or(self.log.len());
        &self.log[from.min(self.log.len())..]
    }

    /// Returns `true` iff `id` names a live (inserted and not deleted)
    /// fact.
    #[inline]
    pub fn is_live(&self, id: FactId) -> bool {
        id.index() < self.live.universe() && self.live.contains(id)
    }

    /// The number of live facts (`len()` minus tombstones).
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Convenience: insert a fact given by relation name and values.
    pub fn insert_values(
        &mut self,
        relation: &str,
        values: impl IntoIterator<Item = Value>,
    ) -> Result<FactId, DbError> {
        let rel = self.schema.relation_id(relation)?;
        self.insert(Fact::new(rel, values.into_iter().collect()))
    }

    /// The id-space size: every [`FactId`] ever assigned is below this
    /// bound.  Equal to the number of live facts until the first deletion
    /// (ids are never reused, so deletions leave the id space unchanged);
    /// use [`Database::live_count`] for the live cardinality `|D|`.
    pub fn len(&self) -> usize {
        self.fact_rel.len()
    }

    /// Returns `true` iff the database has no live facts.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Decodes the fact with the given id.
    ///
    /// Facts are stored columnar, so this materializes an owned [`Fact`]
    /// by decoding one symbol per position; hot paths should work on
    /// [`Database::sym`] / [`Database::columns_of`] instead.
    ///
    /// # Panics
    /// Panics if `id` does not name a live fact.
    pub fn fact(&self, id: FactId) -> Fact {
        assert!(
            self.is_live(id),
            "fact id {id} does not name a live fact (deleted or out of range)"
        );
        let relation = self.fact_rel[id.index()];
        let row = self.fact_row[id.index()] as usize;
        let values = self.columns[relation.index()]
            .iter()
            .map(|column| self.dict.decode(column[row]).clone())
            .collect();
        Fact::new(relation, values)
    }

    /// The owning relation of a fact.
    #[inline]
    pub fn relation_of(&self, id: FactId) -> RelationId {
        self.fact_rel[id.index()]
    }

    /// The row of a live fact within its relation's columns: index
    /// [`Database::columns_of`] with it.
    ///
    /// # Panics
    /// Debug builds panic if `id` does not name a live fact: a deleted
    /// fact has no row (its old one may hold another fact after a
    /// compaction).  Read deleted facts off [`FactChange::Deleted`].
    #[inline]
    pub fn row_of(&self, id: FactId) -> usize {
        debug_assert!(self.is_live(id), "row_of: fact id {id} is not live");
        self.fact_row[id.index()] as usize
    }

    /// The symbol of a live fact at `position`.
    ///
    /// # Panics
    /// Debug builds panic if `id` does not name a live fact (see
    /// [`Database::row_of`]).
    #[inline]
    pub fn sym(&self, id: FactId, position: usize) -> Sym {
        self.columns[self.fact_rel[id.index()].index()][position][self.row_of(id)]
    }

    /// The per-position symbol columns of `relation` (one `Vec<Sym>` per
    /// position), indexed by [`Database::row_of`].  They also hold the
    /// tombstoned rows of deleted facts not yet compacted away, so read
    /// them through the rows of live facts only.
    #[inline]
    pub fn columns_of(&self, relation: RelationId) -> &[Vec<Sym>] {
        &self.columns[relation.index()]
    }

    /// One symbol column of `relation`, tombstoned rows included (see
    /// [`Database::columns_of`]).
    #[inline]
    pub fn column(&self, relation: RelationId, position: usize) -> &[Sym] {
        &self.columns[relation.index()][position]
    }

    /// Looks up the id of a fact, if present.
    ///
    /// A fact containing a constant the dictionary has never seen is
    /// provably absent, so the lookup never interns.
    pub fn fact_id(&self, fact: &Fact) -> Option<FactId> {
        let row: Option<Box<[Sym]>> = fact.values().iter().map(|v| self.dict.lookup(v)).collect();
        self.by_key.get(&(fact.relation(), row?)).copied()
    }

    /// Returns `true` iff the database contains `fact`.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.fact_id(fact).is_some()
    }

    /// Iterates over all live fact ids in insertion order.
    pub fn fact_ids(&self) -> impl Iterator<Item = FactId> + '_ {
        self.live.iter_from(self.first_live)
    }

    /// Iterates over `(id, fact)` pairs, decoding each fact.
    pub fn iter(&self) -> impl Iterator<Item = (FactId, Fact)> + '_ {
        self.fact_ids().map(|id| (id, self.fact(id)))
    }

    /// Per row of `relation`'s columns, the id of the row's fact, live or
    /// tombstoned (ascending).
    pub(crate) fn row_ids(&self, relation: RelationId) -> &[FactId] {
        &self.by_relation[relation.index()]
    }

    /// The number of tombstoned rows in `relation`'s columns.
    pub(crate) fn dead_rows(&self, relation: RelationId) -> usize {
        self.dead_rows[relation.index()] as usize
    }

    /// The ids of the live facts over `relation`, ascending.
    pub fn facts_of(&self, relation: RelationId) -> impl Iterator<Item = FactId> + '_ {
        self.by_relation[relation.index()]
            .iter()
            .copied()
            .filter(move |&id| self.is_live(id))
    }

    /// The `(position, symbol) → fact ids` index of this database, built
    /// on first use and thereafter *maintained*: each insert or delete
    /// batch patches the cached index once instead of invalidating it
    /// (see [`Database::index_delta_applies`]).
    ///
    /// This is the access-path backbone of the plan-based query evaluator
    /// in `ucqa-query`: a join step whose term at some position is bound
    /// looks up its posting list here instead of scanning the relation.
    pub fn relation_index(&self) -> &RelationIndex {
        self.value_index.get_or_init(|| {
            self.index_builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(RelationIndex::build(self))
        })
    }

    /// A shared handle to the relation index (building it if necessary),
    /// for sharing across threads like [`crate::ConflictIndex`].
    pub fn share_relation_index(&self) -> Arc<RelationIndex> {
        self.relation_index();
        Arc::clone(self.value_index.get().expect("just initialised"))
    }

    /// How many times the relation index has been (re)built over this
    /// database's lifetime (diagnostics for bulk-load cache behaviour; see
    /// [`Database::extend`]).
    pub fn index_builds(&self) -> u64 {
        self.index_builds.load(Ordering::Relaxed)
    }

    /// How many facts have been patched into or out of the cached
    /// relation index — a batch counts each of its facts (zero while no
    /// index is cached — an unbuilt index has nothing to maintain).
    pub fn index_delta_applies(&self) -> u64 {
        self.index_delta_applies
    }

    /// The live fact set `D` as an owned [`FactSet`] over this database's
    /// id space (deleted ids are absent): a word copy of the maintained
    /// set [`Database::live_facts`] borrows.
    pub fn all_facts(&self) -> FactSet {
        self.live.clone()
    }

    /// The maintained live fact set `D` over this database's id space
    /// (deleted ids are absent), borrowed: what [`Database::all_facts`]
    /// copies.
    pub fn live_facts(&self) -> &FactSet {
        &self.live
    }

    /// The active domain `dom(D)`: the set of constants occurring in `D`.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        // The dictionary may hold constants interned by a sibling database
        // sharing it, and the columns tombstoned rows, so walk the live
        // facts' rows.
        self.fact_ids()
            .flat_map(|id| {
                let row = self.row_of(id);
                self.columns[self.fact_rel[id.index()].index()]
                    .iter()
                    .map(move |column| column[row])
            })
            .map(|sym| self.dict.decode(sym).clone())
            .collect()
    }

    /// Materializes the sub-database induced by `subset` as a new
    /// [`Database`] (fresh ids).  Mostly useful for tests and displays; the
    /// algorithms operate on [`FactSet`]s directly.
    pub fn restrict(&self, subset: &FactSet) -> Database {
        let mut db = Database::with_dictionary(self.schema_arc(), self.share_dictionary());
        db.extend(subset.iter().map(|id| self.fact(id)))
            .expect("restricting an existing fact cannot fail arity checks");
        db
    }

    /// Renders `subset` as a set of facts with relation names resolved.
    pub fn render_subset(&self, subset: &FactSet) -> String {
        let mut parts: Vec<String> = subset
            .iter()
            .map(|id| self.fact(id).display(&self.schema).to_string())
            .collect();
        parts.sort();
        format!("{{{}}}", parts.join(", "))
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Database ({} facts):", self.live_count())?;
        for (id, fact) in self.iter() {
            writeln!(f, "  {id}: {}", fact.display(&self.schema))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema_r2() -> Schema {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        schema
    }

    #[test]
    fn expire_oldest_slides_out_the_lowest_live_ids() {
        let mut db = Database::with_schema(schema_r2());
        let ids: Vec<FactId> = (0..6)
            .map(|i| {
                db.insert_values("R", [Value::int(i), Value::int(i)])
                    .unwrap()
            })
            .collect();
        // Tombstone one early id first: expiry must skip it and count
        // only live facts against the window.
        db.delete(ids[1]).unwrap();
        let version = db.version();
        let expired = db.expire_oldest(3).unwrap();
        assert_eq!(expired, vec![ids[0], ids[2]], "oldest live facts first");
        assert_eq!(db.live_count(), 3);
        assert_eq!(db.fact_ids().collect::<Vec<_>>(), &ids[3..]);
        // Each expiry is an ordinary logged deletion for delta replay.
        assert_eq!(db.changes_since(version).len(), 2);
        // Already within the window: a no-op.
        assert_eq!(db.expire_oldest(3).unwrap(), Vec::<FactId>::new());
        assert_eq!(db.version(), version + 2);
    }

    #[test]
    fn insert_and_lookup() {
        let mut db = Database::with_schema(schema_r2());
        let f0 = db
            .insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        let f1 = db
            .insert_values("R", [Value::int(1), Value::int(3)])
            .unwrap();
        assert_eq!(db.len(), 2);
        assert_ne!(f0, f1);
        assert_eq!(db.fact(f0).values()[1], Value::int(2));
        let rel = db.schema().relation_id("R").unwrap();
        assert_eq!(db.facts_of(rel).collect::<Vec<_>>(), [f0, f1]);
    }

    #[test]
    fn duplicate_insertion_returns_same_id() {
        let mut db = Database::with_schema(schema_r2());
        let a = db
            .insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        let b = db
            .insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut db = Database::with_schema(schema_r2());
        let err = db.insert_values("R", [Value::int(1)]).unwrap_err();
        assert!(matches!(err, DbError::ArityMismatch { .. }));
    }

    #[test]
    fn unknown_relation_rejected() {
        let mut db = Database::with_schema(schema_r2());
        let err = db.insert_values("S", [Value::int(1)]).unwrap_err();
        assert!(matches!(err, DbError::UnknownRelation { .. }));
    }

    #[test]
    fn foreign_relation_id_rejected() {
        // Mint a RelationId against a two-relation schema, then insert the
        // fact into a database whose schema declares only one.
        let mut big = Schema::new();
        big.add_relation("R", &["A", "B"]).unwrap();
        big.add_relation("S", &["A", "B"]).unwrap();
        let foreign = big.relation_id("S").unwrap();
        let mut db = Database::with_schema(schema_r2());
        let err = db
            .insert(Fact::new(foreign, vec![Value::int(1), Value::int(2)]))
            .unwrap_err();
        assert!(matches!(
            err,
            DbError::ForeignRelationId {
                index: 1,
                relations: 1
            }
        ));
        assert!(err.to_string().contains("different schema"));
        assert!(db.is_empty());
    }

    #[test]
    fn rejected_fact_does_not_pollute_the_dictionary() {
        let mut db = Database::with_schema(schema_r2());
        db.insert_values("R", [Value::int(1)]).unwrap_err();
        assert!(db.dictionary().is_empty());
    }

    #[test]
    fn active_domain() {
        let mut db = Database::with_schema(schema_r2());
        db.insert_values("R", [Value::int(1), Value::str("a")])
            .unwrap();
        db.insert_values("R", [Value::int(1), Value::str("b")])
            .unwrap();
        let dom = db.active_domain();
        assert_eq!(dom.len(), 3);
        assert!(dom.contains(&Value::int(1)));
        assert!(dom.contains(&Value::str("b")));
        // A deleted fact's tombstoned row contributes nothing.
        let b = Fact::new(RelationId(0), vec![Value::int(1), Value::str("b")]);
        db.retract(&b).unwrap();
        assert!(!db.active_domain().contains(&Value::str("b")));
    }

    #[test]
    fn restrict_and_render() {
        let mut db = Database::with_schema(schema_r2());
        let f0 = db
            .insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        db.insert_values("R", [Value::int(3), Value::int(4)])
            .unwrap();
        let subset = FactSet::from_iter(db.len(), [f0]);
        let restricted = db.restrict(&subset);
        assert_eq!(restricted.len(), 1);
        assert_eq!(db.render_subset(&subset), "{R(1, 2)}");
    }

    #[test]
    fn columns_align_with_relation_rows() {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        schema.add_relation("S", &["A"]).unwrap();
        let mut db = Database::with_schema(schema);
        db.insert_values("S", [Value::str("s0")]).unwrap();
        let f1 = db
            .insert_values("R", [Value::str("a"), Value::str("b")])
            .unwrap();
        let f2 = db
            .insert_values("R", [Value::str("a"), Value::str("c")])
            .unwrap();
        let r = db.schema().relation_id("R").unwrap();
        assert_eq!(db.facts_of(r).collect::<Vec<_>>(), [f1, f2]);
        assert_eq!(db.row_of(f1), 0);
        assert_eq!(db.row_of(f2), 1);
        assert_eq!(db.relation_of(f1), r);
        // Shared first column, distinct second column.
        assert_eq!(db.column(r, 0)[0], db.column(r, 0)[1]);
        assert_ne!(db.column(r, 1)[0], db.column(r, 1)[1]);
        assert_eq!(db.sym(f2, 1), db.column(r, 1)[1]);
    }

    #[test]
    fn fact_id_with_unknown_constant_is_none() {
        let mut db = Database::with_schema(schema_r2());
        db.insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        let rel = db.schema().relation_id("R").unwrap();
        let stranger = Fact::new(rel, vec![Value::int(1), Value::str("never-seen")]);
        assert_eq!(db.fact_id(&stranger), None);
        assert!(!db.contains(&stranger));
        // The probe must not have interned the stranger's constant.
        assert_eq!(db.dictionary().lookup(&Value::str("never-seen")), None);
    }

    #[test]
    fn shared_dictionary_snapshot_is_copy_on_write() {
        let mut db = Database::with_schema(schema_r2());
        db.insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        let snapshot = db.share_dictionary();
        db.insert_values("R", [Value::int(1), Value::int(99)])
            .unwrap();
        // The snapshot still decodes the old symbols but never saw 99.
        assert_eq!(snapshot.lookup(&Value::int(99)), None);
        assert!(db.dictionary().lookup(&Value::int(99)).is_some());
        assert_eq!(
            snapshot.decode(Sym::new(0)),
            db.dictionary().decode(Sym::new(0))
        );
    }

    /// Regression: `extend` held a second handle on the dictionary while
    /// committing, so copy-on-write copied the whole dictionary on every
    /// batch that interned a constant, snapshot or not.
    #[test]
    fn extend_without_a_snapshot_interns_in_place() {
        let mut db = Database::with_schema(schema_r2());
        db.insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        let before: *const Dictionary = db.dictionary();
        db.extend((3..40).map(|i| Fact::new(RelationId(0), vec![Value::int(i), Value::int(i)])))
            .unwrap();
        assert!(db.dictionary().lookup(&Value::int(39)).is_some());
        assert!(
            std::ptr::eq(before, db.dictionary()),
            "an unshared dictionary must not be copied"
        );
    }

    #[test]
    fn delete_all_logs_what_a_delete_sequence_logs() {
        let mut schema = schema_r2();
        schema.add_relation("S", &["A"]).unwrap();
        let mut batched = Database::with_schema(schema);
        for i in 0..12 {
            batched
                .insert_values("R", [Value::int(i % 3), Value::int(i)])
                .unwrap();
            batched.insert_values("S", [Value::int(i % 4)]).unwrap();
        }
        batched.relation_index();
        let mut sequential = batched.clone();
        let version = batched.version();
        // Unsorted, across both relations (R holds the even ids below 8
        // and every id from 8, S the odd ones below 8), including the
        // newest fact.
        let victims: Vec<FactId> = [13, 0, 5, 2, 15, 3, 1, 14]
            .into_iter()
            .map(FactId::new)
            .filter(|&id| batched.is_live(id))
            .collect();
        batched.delete_all(&victims).unwrap();
        for &id in &victims {
            sequential.delete(id).unwrap();
        }
        assert_eq!(
            batched.changes_since(version),
            sequential.changes_since(version)
        );
        assert_eq!(
            batched.index_delta_applies(),
            sequential.index_delta_applies()
        );
        assert_eq!(*batched.relation_index(), *sequential.relation_index());
        assert_eq!(*batched.relation_index(), RelationIndex::build(&batched));
        for relation in batched.schema().relation_ids() {
            assert!(batched.facts_of(relation).eq(sequential.facts_of(relation)));
            assert_eq!(
                batched.columns_of(relation),
                sequential.columns_of(relation)
            );
        }
        for id in batched.fact_ids() {
            assert_eq!(batched.row_of(id), sequential.row_of(id));
            assert_eq!(batched.fact(id), sequential.fact(id));
        }
        // An empty batch changes nothing.
        batched.delete_all(&[]).unwrap();
        assert_eq!(batched.version(), sequential.version());
    }

    #[test]
    fn delete_all_with_a_dead_or_repeated_id_changes_nothing() {
        let mut db = Database::with_schema(schema_r2());
        let ids: Vec<FactId> = (0..5)
            .map(|i| {
                db.insert_values("R", [Value::int(i % 2), Value::int(i)])
                    .unwrap()
            })
            .collect();
        db.delete(ids[3]).unwrap();
        db.relation_index();
        let rel = RelationId(0);
        let version = db.version();
        let columns = db.columns_of(rel).to_vec();
        let index = db.relation_index().clone();
        let log = db.changes_since(0).to_vec();
        for batch in [
            vec![ids[0], ids[3], ids[1]],
            vec![ids[0], ids[2], ids[0]],
            vec![ids[4], FactId::new(99)],
        ] {
            let culprit = batch
                .iter()
                .enumerate()
                .find(|&(n, &id)| !db.is_live(id) || batch[..n].contains(&id))
                .map(|(_, id)| id.index());
            match db.delete_all(&batch) {
                Err(DbError::NoSuchFact { index, .. }) => assert_eq!(Some(index), culprit),
                other => panic!("expected NoSuchFact for {batch:?}, got {other:?}"),
            }
            assert_eq!(db.version(), version);
            assert_eq!(db.columns_of(rel), &columns[..]);
            assert_eq!(*db.relation_index(), index);
            assert_eq!(db.changes_since(0), &log[..]);
            assert_eq!(db.live_count(), 4);
            assert_eq!(
                db.fact_ids().collect::<Vec<_>>(),
                [0, 1, 2, 4].map(|i| ids[i])
            );
        }
    }

    #[test]
    fn live_cursor_matches_a_full_scan_after_random_deletes_and_reinserts() {
        let scan = |db: &Database| -> Vec<FactId> {
            (0..db.len())
                .map(FactId::new)
                .filter(|&id| db.is_live(id))
                .collect()
        };
        for seed in 1..=24u64 {
            let mut db = Database::with_schema(schema_r2());
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut next = |bound: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % bound as u64) as usize
            };
            for step in 0..200 {
                let live = scan(&db);
                match next(8) {
                    0..=3 => {
                        let v = next(40) as i64;
                        db.insert_values("R", [Value::int(v), Value::int(v % 5)])
                            .unwrap();
                    }
                    4 | 5 if !live.is_empty() => {
                        // One of the oldest live ids, where the cursor sits.
                        let victim = live[next(live.len().min(4))];
                        let fact = db.fact(victim);
                        db.delete(victim).unwrap();
                        if next(2) == 0 {
                            db.insert(fact).unwrap();
                        }
                    }
                    6 => {
                        let victims: Vec<FactId> =
                            live.iter().copied().filter(|_| next(3) == 0).collect();
                        db.delete_all(&victims).unwrap();
                    }
                    _ => {
                        let keep = live.len().saturating_sub(next(3));
                        let expected = live[..live.len() - keep].to_vec();
                        assert_eq!(
                            db.expire_oldest(keep).unwrap(),
                            expected,
                            "seed {seed} step {step}"
                        );
                    }
                }
                assert_eq!(
                    db.fact_ids().collect::<Vec<_>>(),
                    scan(&db),
                    "seed {seed} step {step}"
                );
            }
        }
    }

    #[test]
    fn liveness_bitset_matches_a_bool_model_across_words_and_compactions() {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        schema.add_relation("S", &["A"]).unwrap();
        let mut db = Database::with_schema(schema);
        let mut model: Vec<bool> = Vec::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut value = 0i64;
        let mut compacted = [false; 2];
        for step in 0..600 {
            let rows: Vec<usize> = (0..2).map(|r| db.row_ids(RelationId(r)).len()).collect();
            let live: Vec<FactId> = (0..model.len())
                .filter(|&i| model[i])
                .map(FactId::new)
                .collect();
            let mut inserts: Vec<Fact> = Vec::new();
            match next(6) {
                0..=2 => {
                    for _ in 0..1 + next(4) {
                        value += 1;
                        inserts.push(match next(2) {
                            0 => Fact::new(RelationId(0), vec![Value::int(value), Value::int(0)]),
                            _ => Fact::new(RelationId(1), vec![Value::int(value)]),
                        });
                    }
                }
                3 | 4 => {
                    let victims: Vec<FactId> =
                        live.iter().copied().filter(|_| next(2) == 0).collect();
                    db.delete_all(&victims).unwrap();
                    for id in victims {
                        model[id.index()] = false;
                    }
                }
                _ => {
                    // The ids at and past word boundaries, revived under
                    // new ids.
                    let victims: Vec<FactId> = [63, 64, 128]
                        .into_iter()
                        .filter(|&i| model.get(i) == Some(&true))
                        .map(FactId::new)
                        .collect();
                    inserts.extend(victims.iter().map(|&id| db.fact(id)));
                    db.delete_all(&victims).unwrap();
                    for id in victims {
                        model[id.index()] = false;
                    }
                }
            }
            for id in db.extend(inserts).unwrap() {
                assert_eq!(id.index(), model.len(), "step {step}: a new id");
                model.push(true);
            }
            for (r, &before) in rows.iter().enumerate() {
                compacted[r] |= db.row_ids(RelationId(r as u32)).len() < before;
            }

            let expected: Vec<FactId> = (0..model.len())
                .filter(|&i| model[i])
                .map(FactId::new)
                .collect();
            assert_eq!(db.len(), model.len(), "step {step}");
            for (i, &alive) in model.iter().enumerate() {
                assert_eq!(db.is_live(FactId::new(i)), alive, "step {step}, id {i}");
            }
            assert!(!db.is_live(FactId::new(model.len())), "step {step}");
            assert_eq!(db.fact_ids().collect::<Vec<_>>(), expected, "step {step}");
            let all = db.all_facts();
            assert_eq!(all.universe(), db.len(), "step {step}");
            assert_eq!(all.to_vec(), expected, "step {step}");
            assert_eq!(db.live_count(), expected.len(), "step {step}");
        }
        assert!(model.len() > 128 && !model[63] && !model[64] && !model[128]);
        assert_eq!(compacted, [true, true], "both relations compact their rows");
    }

    #[test]
    fn mutations_maintain_the_cached_index_without_rebuilds() {
        let rel_facts = |n: usize| {
            (0..n).map(move |i| {
                Fact::new(
                    RelationId(0),
                    vec![Value::int(i as i64), Value::int((i % 3) as i64)],
                )
            })
        };
        // Interleaved insert + read builds the index exactly once and then
        // patches it with per-fact deltas...
        let mut slow = Database::with_schema(schema_r2());
        for fact in rel_facts(10) {
            slow.insert(fact).unwrap();
            slow.relation_index();
        }
        assert_eq!(slow.index_builds(), 1);
        assert_eq!(slow.index_delta_applies(), 9);
        assert_eq!(
            *slow.relation_index(),
            RelationIndex::build(&slow),
            "delta-maintained index diverged from a fresh rebuild"
        );
        // ...while a bulk extend before the first read needs no patching
        // at all (nothing is cached yet).
        let mut fast = Database::with_schema(schema_r2());
        let ids = fast.extend(rel_facts(10)).unwrap();
        assert_eq!(ids.len(), 10);
        fast.relation_index();
        assert_eq!(fast.index_builds(), 1);
        assert_eq!(fast.index_delta_applies(), 0);
        // Same database either way.
        assert_eq!(slow.len(), fast.len());
        for id in slow.fact_ids() {
            assert_eq!(slow.fact(id), fast.fact(id));
        }
        // An all-duplicate extend leaves the cached index untouched.
        fast.extend(rel_facts(10)).unwrap();
        fast.relation_index();
        assert_eq!(fast.index_builds(), 1);
        assert_eq!(fast.index_delta_applies(), 0);
        // Duplicates report their original ids.
        assert_eq!(fast.extend(rel_facts(3)).unwrap(), ids[..3].to_vec());
    }

    #[test]
    fn extend_rejects_bad_facts() {
        let mut db = Database::with_schema(schema_r2());
        let err = db
            .extend([Fact::new(RelationId(0), vec![Value::int(1)])])
            .unwrap_err();
        assert!(matches!(err, DbError::ArityMismatch { .. }));
    }

    /// Regression: `extend` used to push earlier facts of a batch before a
    /// later fact failed validation, returning early *past* the deferred
    /// index invalidation — a mutated database under a stale cached index.
    #[test]
    fn failed_extend_is_atomic_and_keeps_the_cached_index_fresh() {
        let mut db = Database::with_schema(schema_r2());
        db.insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        // Build and cache the index, then attempt a batch whose second
        // fact is invalid.
        db.relation_index();
        let version = db.version();
        let good = Fact::new(RelationId(0), vec![Value::int(7), Value::int(8)]);
        let bad = Fact::new(RelationId(0), vec![Value::int(9)]);
        let err = db.extend([good.clone(), bad]).unwrap_err();
        assert!(matches!(err, DbError::ArityMismatch { .. }));
        // Atomicity: the good fact did not land, the version did not move.
        assert_eq!(db.len(), 1);
        assert_eq!(db.version(), version);
        assert_eq!(db.fact_id(&good), None);
        assert_eq!(db.dictionary().lookup(&Value::int(7)), None);
        // Cache freshness: the cached index still describes the database.
        assert_eq!(db.index_builds(), 1);
        assert_eq!(*db.relation_index(), RelationIndex::build(&db));
    }

    /// Regression: rejected facts (and failed batches) must not intern
    /// constants — `share_dictionary` snapshots stay bit-identical, down
    /// to the very same allocation (copy-on-write is never triggered).
    #[test]
    fn rejected_batch_leaves_dictionary_snapshots_bit_identical() {
        let mut db = Database::with_schema(schema_r2());
        db.insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        let snapshot = db.share_dictionary();
        let fresh = Fact::new(RelationId(0), vec![Value::str("fresh"), Value::int(3)]);
        let bad = Fact::new(RelationId(0), vec![Value::int(9)]);
        db.extend([fresh, bad]).unwrap_err();
        // No constant of the failed batch reached the dictionary; the
        // database still shares the snapshot's allocation.
        assert_eq!(db.dictionary().lookup(&Value::str("fresh")), None);
        assert_eq!(db.dictionary().len(), snapshot.len());
        assert!(Arc::ptr_eq(&snapshot, &db.share_dictionary()));
        // A rejected single insert behaves the same.
        db.insert(Fact::new(RelationId(0), vec![Value::str("also-fresh")]))
            .unwrap_err();
        assert!(Arc::ptr_eq(&snapshot, &db.share_dictionary()));
    }

    #[test]
    fn delete_tombstones_ids_and_compacts_columns() {
        let mut db = Database::with_schema(schema_r2());
        let f0 = db
            .insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        let f1 = db
            .insert_values("R", [Value::int(3), Value::int(4)])
            .unwrap();
        let f2 = db
            .insert_values("R", [Value::int(5), Value::int(6)])
            .unwrap();
        let rel = db.schema().relation_id("R").unwrap();
        db.delete(f1).unwrap();
        // Ids are never reused; the id space keeps its size.
        assert_eq!(db.len(), 3);
        assert_eq!(db.live_count(), 2);
        assert!(!db.is_live(f1));
        // The deleted row is tombstoned in place: one dead row of three
        // does not outnumber the live ones, so nothing moves yet.
        assert_eq!(db.facts_of(rel).collect::<Vec<_>>(), [f0, f2]);
        assert_eq!(db.row_of(f0), 0);
        assert_eq!(db.row_of(f2), 2);
        assert_eq!(db.sym(f2, 0), db.column(rel, 0)[db.row_of(f2)]);
        assert_eq!(db.fact(f2).values()[0], Value::int(5));
        // The deleted fact is gone by value and from the live set.
        let gone = Fact::new(rel, vec![Value::int(3), Value::int(4)]);
        assert_eq!(db.fact_id(&gone), None);
        assert!(!db.all_facts().contains(f1));
        assert_eq!(db.fact_ids().collect::<Vec<_>>(), vec![f0, f2]);
        // Deleting twice (or out of range) is a typed error.
        assert!(matches!(
            db.delete(f1),
            Err(DbError::NoSuchFact { index: 1, .. })
        ));
        assert!(matches!(
            db.delete(FactId::new(17)),
            Err(DbError::NoSuchFact { .. })
        ));
        // Re-inserting the same values mints a fresh id.
        let f3 = db
            .insert_values("R", [Value::int(3), Value::int(4)])
            .unwrap();
        assert_ne!(f3, f1);
        assert_eq!(db.len(), 4);
        // Two dead rows of four do not outnumber the live ones; three of
        // four do, and the relation is compacted in one pass: the live
        // rows move down, in id order, and the columns stay aligned.
        db.delete(f0).unwrap();
        assert_eq!(db.column(rel, 0).len(), 4);
        db.delete(f3).unwrap();
        assert_eq!(db.column(rel, 0).len(), 1);
        assert_eq!(db.row_of(f2), 0);
        assert_eq!(db.sym(f2, 0), db.column(rel, 0)[0]);
        assert_eq!(db.fact(f2).values()[0], Value::int(5));
    }

    /// The posting-run lengths a batch touches: per distinct `(relation,
    /// position, symbol)` of `rows`, the run's current length.
    fn touched_run_lengths(db: &Database, rows: &[(RelationId, Box<[Sym]>)]) -> usize {
        let mut runs: Vec<(RelationId, usize, Sym)> = rows
            .iter()
            .flat_map(|(relation, row)| {
                row.iter()
                    .enumerate()
                    .map(move |(position, &sym)| (*relation, position, sym))
            })
            .collect();
        runs.sort_unstable();
        runs.dedup();
        let index = db.relation_index();
        runs.iter()
            .map(|&(relation, position, sym)| index.posting_len(relation, position, sym))
            .sum()
    }

    /// A long count-window stream over `R(K, V)`, generated here in the
    /// shape of `ucqa_workload::StreamWorkload` (this crate cannot depend
    /// on the workload crate): each tick retracts one uniform live fact,
    /// inserts facts that reuse a live key with probability ½ and carry
    /// fresh values, and expires the oldest facts beyond the window.
    /// After every one of the ~1 500 batches the storage stays bounded by
    /// its live content, the maintained index equals a rebuild, the
    /// maintained planner statistics equal ones recomputed from the runs,
    /// and a batch that compacts nothing moves no more posting entries
    /// than its own size plus the runs it touches.  Both compactions
    /// occur.
    #[test]
    fn long_window_stream_keeps_storage_proportional_to_the_live_facts() {
        const WINDOW: usize = 40;
        const TICKS: usize = 500;
        let mut db = Database::with_schema(schema_r2());
        let rel = RelationId(0);
        db.relation_index();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut value = 0i64;
        let mut batches = 0usize;
        for tick in 0..TICKS {
            for step in 0..3 {
                let live: Vec<FactId> = db.fact_ids().collect();
                let before = (
                    db.relation_index().compactions(),
                    db.relation_index().moved_entries(),
                    db.row_compactions,
                );
                // Each batch's own facts as encoded rows, with the posting
                // runs they touch: read before a deletion, after an
                // insertion (whose new symbols have no run before).
                let (delta, touched) = match step {
                    0 => {
                        let victims: Vec<FactId> = if live.is_empty() {
                            Vec::new()
                        } else {
                            vec![live[next(live.len())]]
                        };
                        let rows: Vec<_> = victims
                            .iter()
                            .map(|&id| (rel, (0..2).map(|p| db.sym(id, p)).collect()))
                            .collect();
                        let touched = touched_run_lengths(&db, &rows);
                        db.delete_all(&victims).unwrap();
                        (rows.len(), touched)
                    }
                    1 => {
                        let facts: Vec<Fact> = (0..4)
                            .map(|_| {
                                let key = if !live.is_empty() && next(2) == 0 {
                                    db.fact(live[next(live.len())]).values()[0].clone()
                                } else {
                                    Value::int(next(24) as i64)
                                };
                                value += 1;
                                Fact::new(rel, vec![key, Value::int(1_000 + value)])
                            })
                            .collect();
                        let ids = db.extend(facts).unwrap();
                        let rows: Vec<_> = ids
                            .iter()
                            .map(|&id| (rel, (0..2).map(|p| db.sym(id, p)).collect()))
                            .collect();
                        (rows.len(), touched_run_lengths(&db, &rows))
                    }
                    _ => {
                        let excess = db.live_count().saturating_sub(WINDOW);
                        let rows: Vec<_> = db
                            .fact_ids()
                            .take(excess)
                            .map(|id| (rel, (0..2).map(|p| db.sym(id, p)).collect()))
                            .collect();
                        let touched = touched_run_lengths(&db, &rows);
                        assert_eq!(db.expire_oldest(WINDOW).unwrap().len(), excess);
                        (rows.len(), touched)
                    }
                };
                batches += 1;
                let context = format!("tick {tick} step {step}");
                let index = db.relation_index();
                let live_rows = db.live_count();
                let dead_rows = db.dead_rows[rel.index()] as usize;
                assert_eq!(db.by_relation[rel.index()].len(), live_rows + dead_rows);
                assert!(
                    dead_rows <= live_rows.max(1),
                    "{context}: {dead_rows} dead rows"
                );
                assert!(
                    index.arena_len() <= 2 * index.posting_entries() + 2,
                    "{context}: arena {} for {} live entries",
                    index.arena_len(),
                    index.posting_entries()
                );
                assert_eq!(*index, RelationIndex::build(&db), "{context}");
                assert_eq!(index.stats_snapshot(), index.stats_from_runs(), "{context}");
                if (index.compactions(), db.row_compactions) == (before.0, before.2) {
                    let moved = index.moved_entries() - before.1;
                    assert!(
                        moved <= (2 * delta + touched) as u64,
                        "{context}: moved {moved} entries for {delta} facts touching {touched}"
                    );
                }
            }
        }
        assert!(batches >= 1_200);
        assert!(
            db.relation_index().compactions() > 0,
            "the arena never compacted"
        );
        assert!(db.row_compactions > 0, "no relation was ever compacted");
    }

    /// `row_of` and `sym` answer for live facts only: a deleted fact's row
    /// is tombstoned and, after a compaction, holds another fact.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "is not live")]
    fn row_of_a_deleted_fact_panics_in_debug_builds() {
        let mut db = Database::with_schema(schema_r2());
        let id = db
            .insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        db.delete(id).unwrap();
        db.row_of(id);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "is not live")]
    fn sym_of_a_deleted_fact_panics_in_debug_builds() {
        let mut db = Database::with_schema(schema_r2());
        let id = db
            .insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        db.delete(id).unwrap();
        db.sym(id, 0);
    }

    #[test]
    fn version_and_changelog_track_fact_level_changes() {
        let mut db = Database::with_schema(schema_r2());
        assert_eq!(db.version(), 0);
        let f0 = db
            .insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        // Duplicates and rejected facts do not bump the version.
        db.insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        db.insert_values("R", [Value::int(1)]).unwrap_err();
        assert_eq!(db.version(), 1);
        let cursor = db.version();
        let f1 = db
            .insert_values("R", [Value::int(3), Value::int(4)])
            .unwrap();
        db.delete(f0).unwrap();
        assert_eq!(db.version(), 3);
        let changes = db.changes_since(cursor);
        assert_eq!(changes.len(), 2);
        assert_eq!(changes[0], FactChange::Inserted(f1));
        match &changes[1] {
            FactChange::Deleted { id, relation, row } => {
                assert_eq!(*id, f0);
                assert_eq!(relation.index(), 0);
                assert_eq!(row.len(), 2);
            }
            other => panic!("expected a deletion, got {other:?}"),
        }
        assert!(db.changes_since(db.version()).is_empty());
        assert!(db.changes_since(u64::MAX).is_empty());
        // `retract` resolves by value and tolerates absent facts.
        let fact1 = db.fact(f1);
        assert_eq!(db.retract(&fact1).unwrap(), Some(f1));
        let absent = Fact::new(RelationId(0), vec![Value::int(99), Value::int(99)]);
        assert_eq!(db.retract(&absent).unwrap(), None);
    }
}
