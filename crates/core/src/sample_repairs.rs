//! Uniform sampling of candidate operational repairs for primary keys.
//!
//! * `SampleRep` of Lemma 5.2 ([`RepairSampler::new`]): draws a repair
//!   uniformly from `CORep(D, Σ)` by choosing, independently for every
//!   block `B` with `|B| ≥ 2`, one of its `|B| + 1` outcomes (keep one
//!   specific fact, or keep none).
//! * `SampleRep¹` of Lemma E.2 ([`RepairSampler::singleton_only`]): the
//!   singleton-operation variant, where every block keeps exactly one fact
//!   (`|B|` outcomes).
//!
//! A sampler takes its mode at construction, and its draws
//! ([`RepairSampler::sample_into`], [`RepairSampler::sample_blocks_into`])
//! are *exactly* uniform over that mode's repair space, which is what
//! makes the Monte-Carlo estimators of Theorems 5.1(2) and E.1(2) correct.
//!
//! **Keyed block coordinates.**  Every draw takes exactly one `u64` key
//! from the caller's RNG, and block `b`'s outcome is a pure function of
//! `(key, b)`: the SplitMix64 finalizer of `key + (b+1)·φ` (a
//! counter-based hash, `φ` the golden-ratio increment), mapped into the
//! block's outcome range with Lemire's exact widening-multiply rejection.
//! Because the blocks do not share a stream, a draw can be restricted to
//! any list of blocks ([`RepairSampler::sample_blocks_into`]) and is then
//! bit-identical, on every block it covers, to the full draw from the
//! same RNG state.  The full draws are that same routine over every
//! conflicting block.  A draw's cost is linear in the facts of the drawn
//! blocks; facts of singleton blocks, which every repair keeps, are
//! written once per buffer by [`RepairSampler::prepare`].
//!
//! This is what lets the estimators draw only the blocks a query bank can
//! see: a bank's answer depends only on the blocks its witness facts meet
//! (Lemma 5.2's per-block independence).

use rand::Rng;

use ucqa_db::{BlockPartition, Database, DbError, FactId, FactSet, FdSet};

use crate::random::{keyed_counter, mix64, GOLDEN_GAMMA};

/// Block `block`'s outcome in `0..n` under the draw key `key` (`n ≥ 1`).
///
/// Lemire's method: the high word of `x·n` is uniform on `0..n` once the
/// `2⁶⁴ mod n` low values are rejected.  A rejection (probability below
/// `n/2⁶⁴`) continues a SplitMix64 stream seeded at the rejected word.
#[inline]
fn keyed_outcome(key: u64, block: usize, n: usize) -> usize {
    let n = n as u64;
    let mut state = keyed_counter(key, block);
    loop {
        let word = mix64(state);
        let product = u128::from(word) * u128::from(n);
        let low = product as u64;
        if low >= n || low >= n.wrapping_neg() % n {
            return (product >> 64) as usize;
        }
        state = word.wrapping_add(GOLDEN_GAMMA);
    }
}

/// A reusable uniform sampler over `CORep(D, Σ)` / `CORep¹(D, Σ)` for a
/// fixed database and set of primary keys.
///
/// The block partition is computed once at construction; each draw then
/// only computes one keyed outcome per drawn conflicting block.
#[derive(Debug, Clone)]
pub struct RepairSampler {
    partition: BlockPartition,
    /// Every block's facts, flattened in partition order: block `b` is
    /// `block_facts[block_starts[b]..block_starts[b + 1]]`.  One
    /// contiguous array keeps the draw loop off the partition's
    /// per-block allocations.
    block_starts: Vec<usize>,
    block_facts: Vec<FactId>,
    /// Indices into the partition of the blocks with at least two facts,
    /// ascending: the blocks a full draw covers.
    conflicting: Vec<usize>,
    /// The facts of singleton blocks, which every repair keeps.
    fixed: FactSet,
    /// Whether draws follow `SampleRep¹` (every block keeps one fact).
    singleton_only: bool,
}

impl RepairSampler {
    /// Creates a sampler for `db` w.r.t. the set `sigma` of primary keys.
    ///
    /// Fails if `sigma` is not a set of primary keys — the block-based
    /// sampler is only uniform in that case (Lemma 5.2 is stated for
    /// primary keys).
    pub fn new(db: &Database, sigma: &FdSet) -> Result<Self, DbError> {
        let partition = BlockPartition::compute(db, sigma)?;
        let mut block_starts = Vec::with_capacity(partition.len() + 1);
        let mut block_facts = Vec::with_capacity(db.len());
        let mut conflicting = Vec::new();
        let mut fixed = FactSet::empty(db.len());
        block_starts.push(0);
        for (index, block) in partition.blocks().iter().enumerate() {
            match block.facts() {
                [fact] => {
                    fixed.insert(*fact);
                }
                _ => conflicting.push(index),
            }
            block_facts.extend_from_slice(block.facts());
            block_starts.push(block_facts.len());
        }
        Ok(RepairSampler {
            partition,
            block_starts,
            block_facts,
            conflicting,
            fixed,
            singleton_only: false,
        })
    }

    /// Restricts the draws to `SampleRep¹` (Lemma E.2): every block keeps
    /// exactly one of its facts, uniformly over `CORep¹(D, Σ)`.
    pub fn singleton_only(mut self) -> Self {
        self.singleton_only = true;
        self
    }

    /// Draws a repair uniformly at random from the sampler's repair space
    /// into a reused buffer: the Monte-Carlo hot loop performs no heap
    /// allocation.  Takes one `u64` from `rng`.
    ///
    /// # Panics
    /// Panics if `out`'s universe differs from the sampler's database.
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut FactSet) {
        self.prepare(out);
        self.draw::<false>(rng.next_u64(), &self.conflicting, out);
    }

    /// Prepares `out` for restricted draws: every singleton-block fact
    /// present, every conflicting-block fact absent.
    ///
    /// # Panics
    /// Panics if `out`'s universe differs from the sampler's database.
    pub fn prepare(&self, out: &mut FactSet) {
        out.copy_from(&self.fixed);
    }

    /// As [`RepairSampler::sample_into`], restricted to the partition
    /// blocks `blocks`: takes one `u64` from `rng` and rewrites only the
    /// facts of the listed blocks, each to exactly the outcome the full
    /// draw from the same RNG state gives it.  Every other fact of `out`
    /// is left as it was, so `out` should come from
    /// [`RepairSampler::prepare`] (or an earlier draw) for the facts
    /// outside `blocks` to read as a repair would.  Listed singleton
    /// blocks are left alone.  Cost is linear in the facts of `blocks`.
    ///
    /// # Panics
    /// Panics if a block index is out of range, or if `out`'s universe is
    /// smaller than the sampler's database.
    pub fn sample_blocks_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        blocks: &[usize],
        out: &mut FactSet,
    ) {
        self.draw::<true>(rng.next_u64(), blocks, out);
    }

    /// The one draw routine: writes the keyed outcome of every listed
    /// conflicting block into `out`.  `REWRITE` first clears the block's
    /// facts; the full draws skip that, their buffer having just been
    /// prepared.  The mode, read once per draw, picks `SampleRep¹`'s `|B|`
    /// outcomes or `SampleRep`'s `|B| + 1` (the last of which keeps no
    /// fact).
    #[inline]
    fn draw<const REWRITE: bool>(&self, key: u64, blocks: &[usize], out: &mut FactSet) {
        let no_survivor = usize::from(!self.singleton_only);
        for &block in blocks {
            let facts = &self.block_facts[self.block_starts[block]..self.block_starts[block + 1]];
            if facts.len() < 2 {
                continue;
            }
            if REWRITE {
                for &fact in facts {
                    out.remove(fact);
                }
            }
            // Outcome `|B|` (pair variant only) keeps no fact: it clears
            // the last fact instead of setting it.  Branch-free, because
            // the outcome is random and a mispredicted branch would stall
            // on the hash.
            let last = facts.len() - 1;
            let outcome = keyed_outcome(key, block, facts.len() + no_survivor);
            out.set(facts[outcome.min(last)], outcome <= last);
        }
    }

    /// The conflicting blocks (indices into [`RepairSampler::partition`],
    /// ascending, no repeats) that contain one of `facts` — all a
    /// restricted draw must cover for a check that reads only `facts`.
    /// Deleted facts belong to no block and are skipped.
    pub fn blocks_meeting(&self, facts: impl IntoIterator<Item = FactId>) -> Vec<usize> {
        let blocks_of = self.partition.blocks();
        let mut blocks: Vec<usize> = facts
            .into_iter()
            .map(|fact| self.partition.block_index_of(fact))
            .filter(|&block| blocks_of.get(block).is_some_and(|b| b.len() >= 2))
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks
    }

    /// The block partition backing the sampler.
    pub fn partition(&self) -> &BlockPartition {
        &self.partition
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::collections::HashMap;
    use ucqa_db::{FunctionalDependency, Schema, Value, ViolationSet};

    fn figure2() -> (Database, FdSet) {
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
    fn samples_are_consistent_candidate_repairs() {
        let (db, sigma) = figure2();
        let sampler = RepairSampler::new(&db, &sigma).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut repair = FactSet::empty(db.len());
        for _ in 0..200 {
            sampler.sample_into(&mut rng, &mut repair);
            assert!(ViolationSet::compute(&db, &sigma, &repair).is_empty());
            // The isolated fact f2,1 (id 3) must always survive.
            assert!(repair.contains(ucqa_db::FactId::new(3)));
        }
    }

    #[test]
    fn sampler_hits_all_12_repairs_roughly_uniformly() {
        let (db, sigma) = figure2();
        let sampler = RepairSampler::new(&db, &sigma).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let samples = 24_000usize;
        let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
        let mut repair = FactSet::empty(db.len());
        for _ in 0..samples {
            sampler.sample_into(&mut rng, &mut repair);
            let key: Vec<usize> = repair.iter().map(|f| f.index()).collect();
            *counts.entry(key).or_insert(0) += 1;
        }
        // Example B.2: exactly 12 candidate repairs; each should receive
        // about samples/12 = 2000 hits (±25 %).
        assert_eq!(counts.len(), 12);
        for (repair, count) in counts {
            let expected = samples as f64 / 12.0;
            assert!(
                (count as f64 - expected).abs() < expected * 0.25,
                "repair {repair:?} sampled {count} times (expected ≈ {expected})"
            );
        }
    }

    #[test]
    fn singleton_sampler_hits_all_6_repairs() {
        let (db, sigma) = figure2();
        let sampler = RepairSampler::new(&db, &sigma).unwrap().singleton_only();
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        let mut repair = FactSet::empty(db.len());
        for _ in 0..2_000 {
            sampler.sample_into(&mut rng, &mut repair);
            assert!(ViolationSet::compute(&db, &sigma, &repair).is_empty());
            // Singleton repairs keep one fact per block: 3 facts in total.
            assert_eq!(repair.len(), 3);
            seen.insert(repair.to_vec());
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn sample_into_reuses_the_buffer_and_matches_fresh_samples() {
        let (db, sigma) = figure2();
        let pair = RepairSampler::new(&db, &sigma).unwrap();
        let singleton = pair.clone().singleton_only();
        let mut fresh_rng = StdRng::seed_from_u64(77);
        let mut reused_rng = StdRng::seed_from_u64(77);
        let mut buffer = FactSet::empty(db.len());
        for _ in 0..100 {
            for sampler in [&pair, &singleton] {
                let mut fresh = FactSet::empty(db.len());
                sampler.sample_into(&mut fresh_rng, &mut fresh);
                sampler.sample_into(&mut reused_rng, &mut buffer);
                assert_eq!(fresh, buffer);
            }
        }
    }

    #[test]
    fn keyed_outcomes_are_in_range_and_cover_every_outcome() {
        let mut rng = StdRng::seed_from_u64(9);
        for n in 1..=7 {
            let mut seen = vec![0usize; n];
            for _ in 0..700 {
                let key = rng.next_u64();
                for block in 0..4 {
                    seen[keyed_outcome(key, block, n)] += 1;
                }
            }
            // 2800 draws over n ≤ 7 outcomes: each at 400+ expected hits.
            assert!(seen.iter().all(|&hits| hits > 250), "n = {n}: {seen:?}");
        }
        // The widest range rejects with probability ≈ 1/2 and must still
        // terminate and stay in range.
        let n = (1usize << 63) + 1;
        for key in 0..64 {
            assert!(keyed_outcome(key, 3, n) < n);
        }
    }

    #[test]
    fn restricted_draws_match_the_full_draw_on_their_blocks() {
        let (db, sigma) = figure2();
        let sampler = RepairSampler::new(&db, &sigma).unwrap();
        // Blocks 0 (a1) and 2 (a3) conflict; block 1 (a2) is a singleton.
        assert_eq!(
            sampler.blocks_meeting([FactId::new(5), FactId::new(3), FactId::new(0)]),
            vec![0, 2]
        );
        let mut full_rng = StdRng::seed_from_u64(5);
        let mut part_rng = StdRng::seed_from_u64(5);
        let mut full = FactSet::empty(db.len());
        let mut part = FactSet::empty(db.len());
        sampler.prepare(&mut part);
        for _ in 0..200 {
            sampler.sample_into(&mut full_rng, &mut full);
            sampler.sample_blocks_into(&mut part_rng, &[2], &mut part);
            for fact in [4, 5, 3].map(FactId::new) {
                assert_eq!(full.contains(fact), part.contains(fact));
            }
            // Unlisted conflicting blocks stay as prepared.
            assert!((0..3).all(|i| !part.contains(FactId::new(i))));
            assert_eq!(full_rng.next_u64(), part_rng.next_u64());
        }
    }

    #[test]
    fn deleted_facts_meet_no_block() {
        let (mut db, sigma) = figure2();
        db.delete(FactId::new(5)).unwrap();
        let sampler = RepairSampler::new(&db, &sigma).unwrap();
        // Block a3 keeps one live fact, so it no longer conflicts.
        assert_eq!(
            sampler.blocks_meeting([FactId::new(5), FactId::new(4), FactId::new(1)]),
            vec![0]
        );
    }

    #[test]
    fn non_primary_keys_are_rejected() {
        let (db, _) = figure2();
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A1"], &["A2"]).unwrap());
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A2"], &["A1"]).unwrap());
        assert!(RepairSampler::new(&db, &sigma).is_err());
    }
}
