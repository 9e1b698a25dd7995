//! Uniform sampling of complete repairing sequences for primary keys
//! (Lemma 6.2 / Algorithm 1, and the singleton variant of Lemma E.9).
//!
//! The sampler realises the same distribution as the paper's Algorithm 1
//! (which extends a sequence one justified operation at a time with
//! probability `|CRS(op(D'))| / |CRS(D')|`), but factors the work
//! differently so that the expensive counting is done **once** per database
//! instead of once per step:
//!
//! 1. A complete sequence decomposes uniquely into one complete *block
//!    sequence* per conflicting block plus an interleaving of those block
//!    sequences.
//! 2. The dynamic program of Lemma C.1 is materialised layer by layer, in
//!    log-space `f64`; a backward walk through its tables samples the
//!    per-block configuration (number of pair removals, empty vs.
//!    non-empty outcome) with probability proportional to the number of
//!    complete sequences compatible with it.
//! 3. Given its configuration, each block's sequence is drawn uniformly by
//!    elementary choices (survivor, paired facts, operation order), and the
//!    block sequences are interleaved uniformly at random.
//!
//! The composition of these three uniform choices is the uniform
//! distribution over `CRS(D, Σ)`; see the module tests, which compare the
//! induced repair distribution against the exact `M^us` semantics, and the
//! tables against the exact DP of [`crate::counting::count_complete_sequences`].
//!
//! Under singleton operations (`CRS¹`) the survivor of each block is
//! uniform and independent of the other blocks (the interleaving count
//! does not depend on which facts survive), so that mode needs no DP.

use rand::seq::SliceRandom;
use rand::Rng;

use ucqa_db::{BlockPartition, Database, DbError, FactId, FactSet, FdSet};
use ucqa_repair::{Operation, RepairingSequence};

use crate::counting::{sequences_empty_block, sequences_nonempty_block};

/// Outcome chosen for one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockConfig {
    /// Number of pair removals used inside the block.
    pairs: u64,
    /// Whether the block ends up empty.
    empty: bool,
}

/// The configuration of every block of a singleton-only sequence: one
/// survivor, no pair removal.
const SURVIVOR_ONLY: BlockConfig = BlockConfig {
    pairs: 0,
    empty: false,
};

/// A uniform sampler over the complete repairing sequences `CRS(D, Σ)`
/// (built by [`SequenceSampler::new_log_space`]) or `CRS¹(D, Σ)` (built by
/// [`SequenceSampler::new_singleton_only`]) of a database w.r.t. a set of
/// primary keys.
///
/// The mode is fixed at construction and both draws serve it:
/// [`SequenceSampler::sample_result_into`] (the Monte-Carlo hot path,
/// free of heap allocation) and [`SequenceSampler::sample_sequence`].
/// Both run one backward walk over the log-space Lemma C.1 tables, which
/// only the pair mode builds.  The `f64` weights agree with the exact
/// counts to ~15 significant digits, far below the statistical
/// resolution of any Monte-Carlo estimate, and building them is plain
/// `f64` arithmetic, so the sampler scales to thousands of blocks.
#[derive(Debug)]
pub struct SequenceSampler {
    universe: usize,
    /// Facts of blocks with at least two facts, per block.
    conflict_blocks: Vec<Vec<FactId>>,
    /// Facts that can never be removed (singleton blocks / keyless
    /// relations).
    untouchable: Vec<FactId>,
    /// The Lemma C.1 tables of the pair mode; `None` in singleton mode.
    tables: Option<LogTables>,
}

/// The Lemma C.1 dynamic program over the conflicting blocks' sizes, in
/// log-space `f64` (`-inf` for zero cells).
#[derive(Debug)]
struct LogTables {
    /// Prefix sums of block sizes (`prefix_facts[j]` = facts in the first
    /// `j` conflict blocks).
    prefix_facts: Vec<u64>,
    max_pairs: u64,
    /// `ln_layers[j][k][i]` is `ln P^{k,i}_{j+1}`.
    ln_layers: Vec<Vec<Vec<f64>>>,
    /// `ln(n!)` for `n` up to the total number of conflict facts.
    ln_fact: Vec<f64>,
    /// Per block `j`: `ln(sequences_empty_block(m_j, i2))` for each `i2`.
    ln_seq_empty: Vec<Vec<f64>>,
    /// Per block `j`: `ln(sequences_nonempty_block(m_j, i2))`.
    ln_seq_nonempty: Vec<Vec<f64>>,
    /// Cumulative distribution over the final DP cells `(k, i)`.
    final_cells: Vec<(usize, u64, f64)>,
}

impl SequenceSampler {
    /// Creates a sampler over `CRS(D, Σ)` for `db` w.r.t. the set `sigma`
    /// of primary keys, building the log-space Lemma C.1 tables.
    pub fn new_log_space(db: &Database, sigma: &FdSet) -> Result<Self, DbError> {
        Self::build(db, sigma, false)
    }

    /// Creates a sampler over the singleton-only sequences `CRS¹(D, Σ)`;
    /// it builds no tables.
    pub fn new_singleton_only(db: &Database, sigma: &FdSet) -> Result<Self, DbError> {
        Self::build(db, sigma, true)
    }

    fn build(db: &Database, sigma: &FdSet, singleton_only: bool) -> Result<Self, DbError> {
        let partition = BlockPartition::compute(db, sigma)?;
        let mut conflict_blocks = Vec::new();
        let mut untouchable = Vec::new();
        for block in partition.blocks() {
            if block.len() >= 2 {
                conflict_blocks.push(block.facts().to_vec());
            } else {
                untouchable.extend_from_slice(block.facts());
            }
        }
        let tables = (!singleton_only).then(|| {
            let sizes: Vec<u64> = conflict_blocks.iter().map(|b| b.len() as u64).collect();
            LogTables::build(&sizes)
        });
        Ok(SequenceSampler {
            universe: db.len(),
            conflict_blocks,
            untouchable,
            tables,
        })
    }

    /// Draws the *result* `s(D)` of a uniformly random complete sequence
    /// `s` of the sampler's mode into a reused buffer.
    ///
    /// This is all the Monte-Carlo estimator for `SRFreq` needs; use
    /// [`SequenceSampler::sample_sequence`] when the sequence itself is
    /// required.
    ///
    /// # Panics
    /// Panics if `out`'s universe differs from the sampler's database.
    pub fn sample_result_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut FactSet) {
        assert_eq!(out.universe(), self.universe, "buffer universe mismatch");
        out.clear();
        for &fact in &self.untouchable {
            out.insert(fact);
        }
        self.walk_configs(rng, |rng, j, config| {
            if !config.empty {
                let block = &self.conflict_blocks[j];
                out.insert(block[rng.random_range(0..block.len())]);
            }
        });
    }

    /// Draws a uniformly random complete repairing sequence of the
    /// sampler's mode.
    pub fn sample_sequence<R: Rng + ?Sized>(&self, rng: &mut R) -> RepairingSequence {
        let mut configs = vec![SURVIVOR_ONLY; self.conflict_blocks.len()];
        self.walk_configs(rng, |_, j, config| configs[j] = config);
        // Per-block operation lists, each in a valid (already randomised)
        // internal order.
        let block_sequences: Vec<Vec<Operation>> = self
            .conflict_blocks
            .iter()
            .zip(&configs)
            .map(|(facts, config)| sample_block_sequence(rng, facts, *config))
            .collect();
        // Interleave uniformly: shuffle a multiset of block labels and
        // consume each block's operations in order.
        let mut labels: Vec<usize> = Vec::new();
        for (index, ops) in block_sequences.iter().enumerate() {
            labels.extend(std::iter::repeat_n(index, ops.len()));
        }
        labels.shuffle(rng);
        let mut cursors = vec![0usize; block_sequences.len()];
        let mut operations = Vec::with_capacity(labels.len());
        for label in labels {
            operations.push(block_sequences[label][cursors[label]].clone());
            cursors[label] += 1;
        }
        RepairingSequence::from_operations(operations)
    }

    /// Draws every conflicting block's configuration, calling
    /// `visit(rng, j, config)` once per block `j` as soon as its
    /// configuration is drawn, so that `visit` may draw from `rng` in
    /// between.
    ///
    /// In pair mode the final DP cell `(k, i)` is drawn from its
    /// cumulative distribution, then the blocks are walked backwards,
    /// splitting `(k, i)` into the last block's configuration and the
    /// prefix state, with probability proportional to the number of
    /// complete sequences compatible with each split.  In singleton mode
    /// every block keeps one survivor, visited first to last, and no
    /// randomness is drawn here.
    fn walk_configs<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mut visit: impl FnMut(&mut R, usize, BlockConfig),
    ) {
        let n = self.conflict_blocks.len();
        let Some(tables) = &self.tables else {
            for j in 0..n {
                visit(rng, j, SURVIVOR_ONLY);
            }
            return;
        };
        if n == 0 {
            return;
        }
        let draw = rng.random::<f64>();
        let index = tables
            .final_cells
            .partition_point(|&(_, _, cumulative)| cumulative <= draw)
            .min(tables.final_cells.len() - 1);
        let (mut k, mut i, _) = tables.final_cells[index];
        for j in (1..n).rev() {
            let (pairs, empty) = tables.sample_backward_split(rng, j, k, i);
            visit(rng, j, BlockConfig { pairs, empty });
            if !empty {
                k -= 1;
            }
            i -= pairs;
        }
        // The first block absorbs whatever remains.
        debug_assert!(k <= 1, "first block can keep at most one fact non-empty");
        visit(
            rng,
            0,
            BlockConfig {
                pairs: i,
                empty: k == 0,
            },
        );
    }
}

impl LogTables {
    /// Builds the tables for the conflicting blocks of sizes `sizes`.
    ///
    /// Each cell is a log-sum-exp over the terms of the Lemma C.1
    /// recurrence, accumulated with a running maximum for stability; the
    /// per-block sequence counts stay exact (`O(m)` big-integer cells per
    /// block, which is cheap) and only their logs enter the tables.
    fn build(sizes: &[u64]) -> Self {
        let max_pairs: u64 = sizes.iter().map(|m| m / 2).sum();
        let mut prefix_facts = vec![0u64; sizes.len() + 1];
        for (j, &m) in sizes.iter().enumerate() {
            prefix_facts[j + 1] = prefix_facts[j] + m;
        }
        let total_facts = *prefix_facts.last().expect("prefix sums are non-empty");
        let mut ln_fact = Vec::with_capacity(total_facts as usize + 1);
        ln_fact.push(0.0f64);
        for n in 1..=total_facts {
            ln_fact.push(ln_fact[n as usize - 1] + (n as f64).ln());
        }
        let ln_seq_empty: Vec<Vec<f64>> = sizes
            .iter()
            .map(|&m| {
                (0..=m / 2)
                    .map(|i2| sequences_empty_block(m, i2).ln())
                    .collect()
            })
            .collect();
        let ln_seq_nonempty: Vec<Vec<f64>> = sizes
            .iter()
            .map(|&m| {
                (0..=m / 2)
                    .map(|i2| sequences_nonempty_block(m, i2).ln())
                    .collect()
            })
            .collect();
        let mut tables = LogTables {
            prefix_facts,
            max_pairs,
            ln_layers: Vec::with_capacity(sizes.len()),
            ln_fact,
            ln_seq_empty,
            ln_seq_nonempty,
            final_cells: Vec::new(),
        };
        tables.fill_layers(sizes);
        tables.final_cells = match tables.ln_layers.last() {
            None => Vec::new(),
            Some(layer) => cumulative_cells(layer),
        };
        tables
    }

    /// Fills `ln_layers`, one layer per block.
    fn fill_layers(&mut self, sizes: &[u64]) {
        let Some(&first_size) = sizes.first() else {
            return;
        };
        let max_pairs = self.max_pairs;
        let neg_table = |blocks: usize| -> Vec<Vec<f64>> {
            vec![vec![f64::NEG_INFINITY; (max_pairs + 1) as usize]; blocks + 1]
        };
        let mut first = neg_table(1);
        for i in 0..=max_pairs.min(first_size / 2) {
            first[0][i as usize] = self.ln_seq_empty[0][i as usize];
            first[1][i as usize] = self.ln_seq_nonempty[0][i as usize];
        }
        self.ln_layers.push(first);
        for j in 2..=sizes.len() {
            let block = sizes[j - 1];
            let total_now = self.prefix_facts[j];
            let previous = &self.ln_layers[j - 2];
            let mut next = neg_table(j);
            #[allow(clippy::needless_range_loop)]
            for k in 0..=j {
                for i in 0..=max_pairs {
                    // Infeasible states (more pair removals + survivors
                    // than facts) have zero count; skip them before
                    // computing the operation total, which would underflow.
                    if i + k as u64 > total_now {
                        continue;
                    }
                    let total_ops = total_now - i - k as u64;
                    // Running log-sum-exp over the feasible splits.
                    let mut max_ln = f64::NEG_INFINITY;
                    let mut sum = 0.0f64;
                    let mut add = |term: f64| {
                        if term == f64::NEG_INFINITY {
                            return;
                        }
                        if term <= max_ln {
                            sum += (term - max_ln).exp();
                        } else {
                            sum = sum * (max_ln - term).exp() + 1.0;
                            max_ln = term;
                        }
                    };
                    for i2 in 0..=i.min(block / 2) {
                        let i1 = (i - i2) as usize;
                        if k < previous.len() {
                            let prev = previous[k][i1];
                            let s_e = self.ln_seq_empty[j - 1][i2 as usize];
                            if prev > f64::NEG_INFINITY && s_e > f64::NEG_INFINITY {
                                add(prev + s_e + self.ln_binomial(total_ops, block - i2));
                            }
                        }
                        if k >= 1 && k - 1 < previous.len() {
                            let prev = previous[k - 1][i1];
                            let s_ne = self.ln_seq_nonempty[j - 1][i2 as usize];
                            if prev > f64::NEG_INFINITY && s_ne > f64::NEG_INFINITY {
                                add(prev + s_ne + self.ln_binomial(total_ops, block - i2 - 1));
                            }
                        }
                    }
                    if sum > 0.0 {
                        next[k][i as usize] = max_ln + sum.ln();
                    }
                }
            }
            self.ln_layers.push(next);
        }
    }

    /// Draws the split `(i2, empty)` of state `(k, i)` at block `j ≥ 1`,
    /// with probability proportional to its weight: the two passes over
    /// the splits (one to normalise, one to walk the cumulative sum) keep
    /// the walk free of heap allocation.
    fn sample_backward_split<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        j: usize,
        k: usize,
        i: u64,
    ) -> (u64, bool) {
        // Pass 1: the maximum log-weight, for stable normalisation.
        let mut max_ln = f64::NEG_INFINITY;
        self.for_each_split(j, k, i, |_, _, ln| {
            max_ln = max_ln.max(ln);
        });
        debug_assert!(
            max_ln > f64::NEG_INFINITY,
            "reachable states always have a split"
        );
        let mut total = 0.0f64;
        self.for_each_split(j, k, i, |_, _, ln| {
            total += (ln - max_ln).exp();
        });

        // Pass 2: walk the cumulative sum to the drawn point.
        let target = rng.random::<f64>() * total;
        let mut cumulative = 0.0f64;
        let mut chosen: Option<(u64, bool)> = None;
        let mut last: Option<(u64, bool)> = None;
        self.for_each_split(j, k, i, |i2, empty, ln| {
            last = Some((i2, empty));
            if chosen.is_none() {
                cumulative += (ln - max_ln).exp();
                if target < cumulative {
                    chosen = Some((i2, empty));
                }
            }
        });
        chosen.or(last).expect("at least one split option exists")
    }

    /// Enumerates the feasible splits of state `(k, i)` at block `j`,
    /// invoking `visit(i2, empty, ln_weight)` for each — the terms of the
    /// Lemma C.1 recurrence that [`LogTables::fill_layers`] sums.
    fn for_each_split(&self, j: usize, k: usize, i: u64, mut visit: impl FnMut(u64, bool, f64)) {
        let block_size = self.prefix_facts[j + 1] - self.prefix_facts[j];
        let total_ops = self.prefix_facts[j + 1] - i - k as u64;
        let previous = &self.ln_layers[j - 1];
        for i2 in 0..=i.min(block_size / 2) {
            let i1 = i - i2;
            if i1 > self.max_pairs {
                continue;
            }
            let ln_s_e = self.ln_seq_empty[j][i2 as usize];
            if ln_s_e > f64::NEG_INFINITY && k < previous.len() {
                let prev = previous[k][i1 as usize];
                if prev > f64::NEG_INFINITY {
                    let ln_choose = self.ln_binomial(total_ops, block_size - i2);
                    visit(i2, true, prev + ln_s_e + ln_choose);
                }
            }
            if k >= 1 {
                let ln_s_ne = self.ln_seq_nonempty[j][i2 as usize];
                if ln_s_ne > f64::NEG_INFINITY {
                    let prev = previous[k - 1][i1 as usize];
                    if prev > f64::NEG_INFINITY {
                        let ln_choose = self.ln_binomial(total_ops, block_size - i2 - 1);
                        visit(i2, false, prev + ln_s_ne + ln_choose);
                    }
                }
            }
        }
    }

    /// `ln C(n, k)` from the precomputed factorial table.
    fn ln_binomial(&self, n: u64, k: u64) -> f64 {
        if k > n {
            return f64::NEG_INFINITY;
        }
        self.ln_fact[n as usize] - self.ln_fact[k as usize] - self.ln_fact[(n - k) as usize]
    }
}

/// The non-zero cells `(k, i)` of the final layer with their cumulative
/// probabilities (the last forced to exactly 1).
fn cumulative_cells(layer: &[Vec<f64>]) -> Vec<(usize, u64, f64)> {
    let mut cells: Vec<(usize, u64, f64)> = Vec::new();
    let mut max_ln = f64::NEG_INFINITY;
    for (k, row) in layer.iter().enumerate() {
        for (i, &ln) in row.iter().enumerate() {
            if ln > f64::NEG_INFINITY {
                max_ln = max_ln.max(ln);
                cells.push((k, i as u64, ln));
            }
        }
    }
    let total: f64 = cells.iter().map(|&(_, _, ln)| (ln - max_ln).exp()).sum();
    let mut cumulative = 0.0f64;
    for cell in &mut cells {
        cumulative += (cell.2 - max_ln).exp() / total;
        cell.2 = cumulative;
    }
    if let Some(last) = cells.last_mut() {
        last.2 = 1.0;
    }
    cells
}

/// Draws a uniformly random complete block sequence for a block with the
/// given facts and configuration.
fn sample_block_sequence<R: Rng + ?Sized>(
    rng: &mut R,
    facts: &[FactId],
    config: BlockConfig,
) -> Vec<Operation> {
    let mut pool: Vec<FactId> = facts.to_vec();
    pool.shuffle(rng);
    let mut operations = Vec::new();
    let final_op;
    if config.empty {
        // The last operation removes the final surviving pair; the first
        // `pairs − 1` pair removals and all singleton removals precede it in
        // uniformly random order.
        let last_a = pool.pop().expect("blocks have at least two facts");
        let last_b = pool.pop().expect("blocks have at least two facts");
        final_op = Some(Operation::remove_pair(last_a, last_b));
        for _ in 1..config.pairs {
            let a = pool.pop().expect("enough facts for the sampled pair count");
            let b = pool.pop().expect("enough facts for the sampled pair count");
            operations.push(Operation::remove_pair(a, b));
        }
    } else {
        // One survivor; `pairs` pair removals and the rest singletons.
        let _survivor = pool.pop().expect("blocks have at least two facts");
        final_op = None;
        for _ in 0..config.pairs {
            let a = pool.pop().expect("enough facts for the sampled pair count");
            let b = pool.pop().expect("enough facts for the sampled pair count");
            operations.push(Operation::remove_pair(a, b));
        }
    }
    for fact in pool {
        operations.push(Operation::remove_one(fact));
    }
    operations.shuffle(rng);
    if let Some(op) = final_op {
        operations.push(op);
    }
    operations
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;
    use ucqa_db::{FunctionalDependency, Schema, Value};
    use ucqa_repair::{GeneratorSpec, OperationalSemantics, TreeLimits};

    use crate::counting::count_complete_sequences;

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

    /// A primary-key database whose block profile is `sizes`.
    fn database_with_blocks(sizes: &[usize]) -> (Database, FdSet) {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        let mut db = Database::with_schema(schema);
        for (block, &size) in sizes.iter().enumerate() {
            for row in 0..size {
                db.insert_values("R", [Value::int(block as i64), Value::int(row as i64)])
                    .unwrap();
            }
        }
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
        (db, sigma)
    }

    /// `ln` of the sum of a layer's cells.
    fn log_sum_exp(layer: &[Vec<f64>]) -> f64 {
        let max = layer
            .iter()
            .flatten()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        max + layer
            .iter()
            .flatten()
            .map(|&ln| (ln - max).exp())
            .sum::<f64>()
            .ln()
    }

    /// The exact result distribution of `spec` on `db`.
    fn exact_distribution(
        db: &Database,
        sigma: &FdSet,
        spec: GeneratorSpec,
    ) -> HashMap<Vec<usize>, f64> {
        let chain = spec.build_chain(db, sigma, TreeLimits::default()).unwrap();
        OperationalSemantics::from_chain(&chain)
            .repairs()
            .iter()
            .map(|entry| {
                (
                    entry.repair.iter().map(|f| f.index()).collect(),
                    entry.probability.to_f64(),
                )
            })
            .collect()
    }

    /// Checks that `samples` results drawn from `seed` hit every repair
    /// of `exact`, each within 0.02 of its probability.
    fn assert_results_follow(
        db: &Database,
        sampler: &SequenceSampler,
        exact: HashMap<Vec<usize>, f64>,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let samples = 40_000usize;
        let mut result = FactSet::empty(db.len());
        let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
        for _ in 0..samples {
            sampler.sample_result_into(&mut rng, &mut result);
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
    fn sequence_count_matches_example_c2() {
        let (db, sigma) = figure2();
        let sampler = SequenceSampler::new_log_space(&db, &sigma).unwrap();
        let tables = sampler.tables.as_ref().unwrap();
        let count = log_sum_exp(tables.ln_layers.last().unwrap()).exp();
        assert!(
            (count - 99.0).abs() < 1e-9,
            "|CRS| read off the tables: {count}"
        );
    }

    #[test]
    fn sampled_sequences_are_valid_complete_and_uniform() {
        let (db, sigma) = figure2();
        let sampler = SequenceSampler::new_log_space(&db, &sigma).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen: HashMap<String, usize> = HashMap::new();
        let samples = 19_800usize; // 200 per sequence on average
        for _ in 0..samples {
            let sequence = sampler.sample_sequence(&mut rng);
            let result = sequence
                .validate(&db, &sigma)
                .expect("sampled sequence is repairing");
            assert!(sequence.is_complete(&db, &sigma));
            assert_eq!(result, sequence.result(&db));
            *seen.entry(sequence.render()).or_insert(0) += 1;
        }
        // All 99 sequences should appear, each roughly samples/99 times.
        assert_eq!(seen.len(), 99);
        let expected = samples as f64 / 99.0;
        for (sequence, count) in seen {
            assert!(
                (count as f64 - expected).abs() < expected * 0.5,
                "sequence {sequence} sampled {count} times (expected ≈ {expected})"
            );
        }
    }

    #[test]
    fn result_distribution_matches_exact_uniform_sequences_semantics() {
        // The singleton mode against the exact `M^{us,1}` semantics.
        let (db, sigma) = figure2();
        let sampler = SequenceSampler::new_singleton_only(&db, &sigma).unwrap();
        let spec = GeneratorSpec::uniform_sequences().with_singleton_only();
        assert_results_follow(&db, &sampler, exact_distribution(&db, &sigma, spec), 5);
    }

    #[test]
    fn singleton_samples_are_valid_and_cover_all_sequences() {
        let (db, sigma) = figure2();
        let sampler = SequenceSampler::new_singleton_only(&db, &sigma).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5_000 {
            let sequence = sampler.sample_sequence(&mut rng);
            assert!(sequence.is_singleton_only());
            sequence
                .validate(&db, &sigma)
                .expect("valid singleton sequence");
            assert!(sequence.is_complete(&db, &sigma));
            seen.insert(sequence.render());
        }
        // |CRS¹| = (2 + 1)! · 3 · 2 = 36 singleton sequences.
        assert_eq!(seen.len(), 36);
        let mut result = FactSet::empty(db.len());
        sampler.sample_result_into(&mut rng, &mut result);
        assert_eq!(result.len(), 3);
    }

    #[test]
    fn singleton_mode_holds_no_tables() {
        let (db, sigma) = figure2();
        let singleton = SequenceSampler::new_singleton_only(&db, &sigma).unwrap();
        assert!(singleton.tables.is_none());
        let pair = SequenceSampler::new_log_space(&db, &sigma).unwrap();
        assert!(pair.tables.is_some());
    }

    #[test]
    fn log_space_only_tables_match_ln_of_exact_tables() {
        // Layer `j` sums `P^{k,i}_{j+1}` over all `(k, i)`: the number of
        // complete sequences of the first `j + 1` conflicting blocks.
        let cycle = |sizes: &[usize], blocks: usize| -> Vec<usize> {
            sizes.iter().copied().cycle().take(blocks).collect()
        };
        for profile in [
            vec![3, 1, 2],
            vec![2, 2, 2, 2],
            vec![2, 3, 4, 5, 6, 7],
            vec![7, 1, 5, 2, 6, 3, 4],
            cycle(&[2, 3], 42),
        ] {
            let (db, sigma) = database_with_blocks(&profile);
            let sampler = SequenceSampler::new_log_space(&db, &sigma).unwrap();
            let sizes: Vec<usize> = sampler.conflict_blocks.iter().map(Vec::len).collect();
            let layers = &sampler.tables.as_ref().unwrap().ln_layers;
            assert_eq!(layers.len(), sizes.len(), "profile {profile:?}");
            for (j, layer) in layers.iter().enumerate() {
                let table = log_sum_exp(layer);
                let exact = count_complete_sequences(&sizes[..=j]).ln();
                assert!(
                    (table - exact).abs() <= 1e-9 * exact.abs().max(1.0),
                    "profile {profile:?}, layer {j}: {table} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn log_space_result_distribution_matches_exact_semantics() {
        let (db, sigma) = figure2();
        let sampler = SequenceSampler::new_log_space(&db, &sigma).unwrap();
        let spec = GeneratorSpec::uniform_sequences();
        assert_results_follow(&db, &sampler, exact_distribution(&db, &sigma, spec), 19);
    }

    #[test]
    fn consistent_database_yields_empty_sequence() {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        let mut db = Database::with_schema(schema);
        db.insert_values("R", [Value::int(1), Value::int(1)])
            .unwrap();
        db.insert_values("R", [Value::int(2), Value::int(1)])
            .unwrap();
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
        let mut rng = StdRng::seed_from_u64(0);
        let mut result = FactSet::empty(db.len());
        for sampler in [
            SequenceSampler::new_log_space(&db, &sigma).unwrap(),
            SequenceSampler::new_singleton_only(&db, &sigma).unwrap(),
        ] {
            assert!(sampler.sample_sequence(&mut rng).is_empty());
            sampler.sample_result_into(&mut rng, &mut result);
            assert_eq!(result.len(), 2);
        }
    }
}
