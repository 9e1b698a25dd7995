//! Key blocks: groups of facts agreeing on a key's left-hand side.
//!
//! For a set of (primary) keys, the facts of each relation partition into
//! *blocks* of facts sharing the key's left-hand-side values; two facts
//! jointly violate the key iff they are distinct facts of the same block.
//! Blocks are the combinatorial backbone of the primary-key algorithms
//! (Lemmas 5.2, 5.3, 6.2, 6.3, C.1, E.2, E.3, E.9, E.10).

use std::collections::HashMap;

use crate::{Database, DbError, FactId, FdSet, RelationId, Sym};

/// A single block: the facts of one relation sharing the key LHS values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    relation: RelationId,
    facts: Vec<FactId>,
}

impl Block {
    /// The relation of this block.
    pub fn relation(&self) -> RelationId {
        self.relation
    }

    /// The facts of this block, in fact-id order.
    pub fn facts(&self) -> &[FactId] {
        &self.facts
    }

    /// Number of facts in the block.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Returns `true` iff the block is empty (never produced by
    /// [`BlockPartition::compute`]).
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }
}

/// The partition of a database's facts into key blocks w.r.t. a set of
/// primary keys.
///
/// Facts of relations without a key in `Σ`, and facts whose block would be
/// a singleton, are still represented (as singleton blocks) so that the
/// partition covers the whole database; the algorithms that only care about
/// conflicting blocks skip the blocks of one fact.
#[derive(Debug, Clone)]
pub struct BlockPartition {
    blocks: Vec<Block>,
    block_of_fact: Vec<usize>,
}

impl BlockPartition {
    /// Computes the block partition of `db` w.r.t. the set `sigma` of
    /// primary keys.
    ///
    /// Returns an error if `sigma` is not a set of primary keys (the block
    /// partition is only well-defined when each relation has at most one
    /// key).
    pub fn compute(db: &Database, sigma: &FdSet) -> Result<Self, DbError> {
        sigma.require_primary_keys(db.schema())?;
        Ok(Self::compute_unchecked(db, sigma))
    }

    /// Computes the block partition without validating that `sigma` is a
    /// set of primary keys.  For each relation, the *first* key of `sigma`
    /// over that relation (if any) determines the blocks; relations without
    /// a key contribute singleton blocks.
    fn compute_unchecked(db: &Database, sigma: &FdSet) -> Self {
        // Choose one key per relation (the first declared): its LHS
        // positions, per relation index.
        let mut key_positions: Vec<Option<Vec<usize>>> = vec![None; db.schema().relation_count()];
        for (_, fd) in sigma.iter() {
            if let Some(slot) = key_positions.get_mut(fd.relation().index()) {
                slot.get_or_insert_with(|| fd.lhs().iter().map(|a| a.index()).collect());
            }
        }

        let mut blocks: Vec<Block> = Vec::new();
        let mut block_of_fact = vec![usize::MAX; db.len()];
        let mut index: HashMap<(RelationId, Vec<Sym>), usize> = HashMap::new();

        for fact_id in db.fact_ids() {
            let relation = db.relation_of(fact_id);
            let key = key_positions[relation.index()].as_deref();
            // Without a key over the relation, every fact is its own
            // block.
            let mut new_block = || {
                blocks.push(Block {
                    relation,
                    facts: Vec::new(),
                });
                blocks.len() - 1
            };
            let block_index = match key {
                Some(positions) => {
                    let syms = positions.iter().map(|&p| db.sym(fact_id, p)).collect();
                    *index.entry((relation, syms)).or_insert_with(new_block)
                }
                None => new_block(),
            };
            blocks[block_index].facts.push(fact_id);
            block_of_fact[fact_id.index()] = block_index;
        }

        BlockPartition {
            blocks,
            block_of_fact,
        }
    }

    /// All blocks (including singletons), in first-seen order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The index (into [`BlockPartition::blocks`]) of the block containing
    /// `fact`.
    pub fn block_index_of(&self, fact: FactId) -> usize {
        self.block_of_fact[fact.index()]
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` iff there are no blocks (empty database).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, FunctionalDependency, Schema, Value};

    /// The database of Figure 2 of the paper: six facts over R/2 with the
    /// primary key R : A1 → A2, forming blocks of sizes 3, 1, 2.
    pub(crate) fn figure2() -> (Database, FdSet) {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A1", "A2"]).unwrap();
        let mut db = Database::with_schema(schema);
        for (a, b) in [
            ("a1", "b1"),
            ("a1", "b2"),
            ("a1", "b3"),
            ("a2", "b1"),
            ("a3", "b1"),
            ("a3", "b2"),
        ] {
            db.insert_values("R", [Value::str(a), Value::str(b)])
                .unwrap();
        }
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A1"], &["A2"]).unwrap());
        (db, sigma)
    }

    #[test]
    fn figure2_blocks_have_sizes_3_1_2() {
        let (db, sigma) = figure2();
        let partition = BlockPartition::compute(&db, &sigma).unwrap();
        let mut sizes: Vec<usize> = partition.blocks().iter().map(Block::len).collect();
        sizes.sort();
        assert_eq!(sizes, vec![1, 2, 3]);
    }

    #[test]
    fn block_of_fact_lookup() {
        let (db, sigma) = figure2();
        let partition = BlockPartition::compute(&db, &sigma).unwrap();
        // f0, f1, f2 share the block keyed by a1.
        assert_eq!(
            partition.block_index_of(FactId::new(0)),
            partition.block_index_of(FactId::new(2))
        );
        assert_ne!(
            partition.block_index_of(FactId::new(0)),
            partition.block_index_of(FactId::new(3))
        );
        let block_of = |fact| &partition.blocks()[partition.block_index_of(fact)];
        assert_eq!(block_of(FactId::new(3)).len(), 1);
        assert_eq!(
            block_of(FactId::new(0)).facts(),
            &[FactId::new(0), FactId::new(1), FactId::new(2)]
        );
    }

    #[test]
    fn non_primary_keys_rejected() {
        let (db, _) = figure2();
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A1"], &["A2"]).unwrap());
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A2"], &["A1"]).unwrap());
        assert!(BlockPartition::compute(&db, &sigma).is_err());
        // But the unchecked variant still produces a partition based on the
        // first key.
        let partition = BlockPartition::compute_unchecked(&db, &sigma);
        assert_eq!(partition.len(), 3);
    }

    #[test]
    fn relations_without_keys_get_singleton_blocks() {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        schema.add_relation("T", &["X"]).unwrap();
        let mut db = Database::with_schema(schema);
        db.insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        db.insert_values("R", [Value::int(1), Value::int(3)])
            .unwrap();
        db.insert_values("T", [Value::int(9)]).unwrap();
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
        let partition = BlockPartition::compute(&db, &sigma).unwrap();
        assert_eq!(partition.len(), 2);
        assert_eq!(
            partition.blocks()[partition.block_index_of(FactId::new(2))].len(),
            1
        );
    }
}
