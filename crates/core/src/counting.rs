//! Polynomial-time counting for primary keys.
//!
//! * `|CORep(D, Σ)|` — the number of candidate operational repairs
//!   (Lemma 5.2): every block `B` with at least two facts contributes a
//!   factor `|B| + 1` (keep one of its facts, or none of them).
//! * `|CORep¹(D, Σ)|` — the singleton-operation variant (Lemma E.2): every
//!   block contributes a factor `|B|` (exactly one surviving fact).
//! * `|CRS(D, Σ)|` — the number of complete repairing sequences, via the
//!   dynamic program of Lemma C.1 over the block-size profile.
//! * `|CRS¹(D, Σ)|` — the singleton-operation variant, in closed form.
//!
//! All counts are returned as exact [`Natural`]s: they grow factorially in
//! the database size and overflow machine integers almost immediately.

use ucqa_db::{BlockPartition, Database, DbError, FactSet, FdSet};
use ucqa_numeric::combinatorics::{binomial, factorial};
use ucqa_numeric::Natural;

/// The block-size profile of a sub-database w.r.t. a set of primary keys:
/// the multiset of block cardinalities restricted to `subset`, with empty
/// blocks dropped.
///
/// All the primary-key counting formulas and samplers depend on the
/// database only through this profile, which is what makes them polynomial.
pub fn block_sizes(db: &Database, sigma: &FdSet, subset: &FactSet) -> Result<Vec<usize>, DbError> {
    let partition = BlockPartition::compute(db, sigma)?;
    Ok(partition
        .blocks()
        .iter()
        .map(|block| {
            block
                .facts()
                .iter()
                .filter(|f| subset.contains(**f))
                .count()
        })
        .filter(|size| *size > 0)
        .collect())
}

/// `|CORep(D, Σ)|` for a set of primary keys, from the block-size profile:
/// the product of `m + 1` over the blocks with `m ≥ 2` facts (Lemma 5.2).
pub fn count_candidate_repairs(sizes: &[usize]) -> Natural {
    let mut count = Natural::one();
    for &m in sizes {
        if m >= 2 {
            count = &count * &Natural::from_u64(m as u64 + 1);
        }
    }
    count
}

/// `|CORep¹(D, Σ)|` for a set of primary keys, from the block-size
/// profile: the product of `m` over all blocks (Lemma E.2) — every block
/// keeps exactly one fact under singleton operations.
pub fn count_candidate_repairs_singleton(sizes: &[usize]) -> Natural {
    let mut count = Natural::one();
    for &m in sizes {
        count = &count * &Natural::from_u64(m as u64);
    }
    count
}

/// `S^{ne,i}_m` of Lemma C.1: the number of complete repairing sequences of
/// a single block of `m ≥ 2` facts that leave the block *non-empty* and use
/// exactly `i` pair removals.
pub fn sequences_nonempty_block(m: u64, i: u64) -> Natural {
    if m < 2 || 2 * i + 1 > m {
        return Natural::zero();
    }
    // m! · (m − i − 1)! / (2^i · i! · (m − 2i − 1)!)
    let numerator = &factorial(m) * &factorial(m - i - 1);
    let denominator =
        &(&Natural::from_u64(2).pow(i as u32) * &factorial(i)) * &factorial(m - 2 * i - 1);
    let (q, r) = numerator.div_rem(&denominator);
    debug_assert!(r.is_zero(), "S^ne must be an integer");
    q
}

/// `S^{e,i}_m` of Lemma C.1: the number of complete repairing sequences of
/// a single block of `m ≥ 2` facts that leave the block *empty* and use
/// exactly `i` pair removals.
pub fn sequences_empty_block(m: u64, i: u64) -> Natural {
    if m < 2 || i == 0 || 2 * i > m {
        return Natural::zero();
    }
    // m! · (m − i − 1)! / (2^i · (i−1)! · (m − 2i)!)
    let numerator = &factorial(m) * &factorial(m - i - 1);
    let denominator =
        &(&Natural::from_u64(2).pow(i as u32) * &factorial(i - 1)) * &factorial(m - 2 * i);
    let (q, r) = numerator.div_rem(&denominator);
    debug_assert!(r.is_zero(), "S^e must be an integer");
    q
}

/// `|CRS(D, Σ)|` for a set of primary keys, computed from the block-size
/// profile via the dynamic program of Lemma C.1.
///
/// The DP state `P^{k,i}_j` counts the interleaved complete sequences over
/// the first `j` conflicting blocks that use exactly `i` pair removals and
/// leave exactly `k` of those blocks non-empty; block sequences are
/// interleaved with multinomial factors.  This is the one exact form of
/// the DP: the `M^us` sampler keeps its tables in log-space `f64`
/// ([`crate::sample_sequences`]), and its tests check every layer
/// against this count.
pub fn count_complete_sequences(sizes: &[usize]) -> Natural {
    // Only blocks with at least two facts host operations.
    let blocks: Vec<u64> = sizes
        .iter()
        .filter(|&&m| m >= 2)
        .map(|&m| m as u64)
        .collect();
    if blocks.is_empty() {
        // A consistent database has exactly one complete sequence: ε.
        return Natural::one();
    }
    let max_pairs: u64 = blocks.iter().map(|m| m / 2).sum();
    let n = blocks.len();

    // prefix_facts[j] = |B_1 ∪ … ∪ B_j|.
    let mut prefix_facts = vec![0u64; n + 1];
    for (j, &m) in blocks.iter().enumerate() {
        prefix_facts[j + 1] = prefix_facts[j] + m;
    }

    // table[k][i] = P^{k,i}_j for the current j.
    let zero_table = || vec![vec![Natural::zero(); (max_pairs + 1) as usize]; n + 1];
    let mut table = zero_table();
    let first = blocks[0];
    for i in 0..=max_pairs {
        table[0][i as usize] = sequences_empty_block(first, i);
        table[1][i as usize] = sequences_nonempty_block(first, i);
    }

    for j in 2..=n {
        let block = blocks[j - 1];
        let total_now = prefix_facts[j];
        let mut next = zero_table();
        #[allow(clippy::needless_range_loop)]
        for k in 0..=j {
            for i in 0..=max_pairs {
                let mut cell = Natural::zero();
                for i2 in 0..=i.min(block / 2) {
                    let i1 = i - i2;
                    // Case 1: block j ends empty (k blocks among the first
                    // j−1 are non-empty).
                    let prev = &table[k][i1 as usize];
                    if !prev.is_zero() {
                        let s_e = sequences_empty_block(block, i2);
                        if !s_e.is_zero() {
                            let total_ops = total_now - i - k as u64;
                            let ops_block = block - i2;
                            let interleave = binomial(total_ops, ops_block);
                            cell = &cell + &(&(prev * &s_e) * &interleave);
                        }
                    }
                    // Case 2: block j ends non-empty (k−1 blocks among the
                    // first j−1 are non-empty).
                    if k >= 1 {
                        let prev = &table[k - 1][i1 as usize];
                        if !prev.is_zero() {
                            let s_ne = sequences_nonempty_block(block, i2);
                            if !s_ne.is_zero() {
                                let total_ops = total_now - i - k as u64;
                                let ops_block = block - i2 - 1;
                                let interleave = binomial(total_ops, ops_block);
                                cell = &cell + &(&(prev * &s_ne) * &interleave);
                            }
                        }
                    }
                }
                next[k][i as usize] = cell;
            }
        }
        table = next;
    }

    let mut total = Natural::zero();
    for row in &table {
        for cell in row {
            total = &total + cell;
        }
    }
    total
}

/// `|CRS¹(D, Σ)|` for a set of primary keys, in closed form: each block of
/// `m ≥ 2` facts has `m!` singleton-only complete sequences (`m` choices of
/// survivor × `(m−1)!` removal orders), and block sequences interleave
/// multinomially, which simplifies to `(Σ (mⱼ − 1))! · Π mⱼ`.
pub fn count_complete_sequences_singleton(sizes: &[usize]) -> Natural {
    let blocks: Vec<u64> = sizes
        .iter()
        .filter(|&&m| m >= 2)
        .map(|&m| m as u64)
        .collect();
    if blocks.is_empty() {
        return Natural::one();
    }
    let total_ops: u64 = blocks.iter().map(|m| m - 1).sum();
    let mut count = factorial(total_ops);
    for &m in &blocks {
        count = &count * &Natural::from_u64(m);
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucqa_db::{Database, FunctionalDependency, Schema, Value};
    use ucqa_repair::{RepairingTree, TreeLimits};

    /// The Figure 2 database: blocks of sizes 3, 1, 2.
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
    fn block_sizes_of_figure2() {
        let (db, sigma) = figure2();
        let mut sizes = block_sizes(&db, &sigma, &db.all_facts()).unwrap();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 3]);
    }

    #[test]
    fn candidate_repair_counts_match_example_b2() {
        // Example B.2: (3+1) × (2+1) = 12 candidate repairs.
        assert_eq!(count_candidate_repairs(&[3, 1, 2]).to_u64(), Some(12));
        // Singleton variant: 3 × 1 × 2 = 6.
        assert_eq!(
            count_candidate_repairs_singleton(&[3, 1, 2]).to_u64(),
            Some(6)
        );
        // A consistent database has exactly one candidate repair.
        assert_eq!(count_candidate_repairs(&[1, 1]).to_u64(), Some(1));
    }

    #[test]
    fn per_block_sequence_counts_match_example_c2() {
        // Example C.2: for the block of size 3,
        // S^{ne,0} = 6, S^{ne,1} = 3, S^{e,0} = 0, S^{e,1} = 3;
        // for the block of size 2, S^{ne,0} = 2, S^{ne,1} = 0, S^{e,1} = 1.
        assert_eq!(sequences_nonempty_block(3, 0).to_u64(), Some(6));
        assert_eq!(sequences_nonempty_block(3, 1).to_u64(), Some(3));
        assert_eq!(sequences_empty_block(3, 0).to_u64(), Some(0));
        assert_eq!(sequences_empty_block(3, 1).to_u64(), Some(3));
        assert_eq!(sequences_nonempty_block(2, 0).to_u64(), Some(2));
        assert_eq!(sequences_nonempty_block(2, 1).to_u64(), Some(0));
        assert_eq!(sequences_empty_block(2, 1).to_u64(), Some(1));
    }

    #[test]
    fn crs_count_matches_example_c2() {
        // Example C.2: |CRS(D, Σ)| = 99 for the Figure 2 database.
        assert_eq!(count_complete_sequences(&[3, 1, 2]).to_u64(), Some(99));
    }

    #[test]
    fn crs_count_matches_tree_enumeration_on_small_profiles() {
        // Cross-check the DP against brute-force enumeration for several
        // block profiles.
        for profile in [
            vec![2usize],
            vec![3],
            vec![4],
            vec![2, 2],
            vec![3, 2],
            vec![2, 2, 2],
            vec![3, 3],
        ] {
            let (db, sigma) = database_with_blocks(&profile);
            let tree = RepairingTree::build(&db, &sigma, false, TreeLimits::default()).unwrap();
            let expected = tree.leaf_count() as u64;
            assert_eq!(
                count_complete_sequences(&profile).to_u64(),
                Some(expected),
                "profile {profile:?}"
            );
        }
    }

    #[test]
    fn singleton_crs_count_matches_tree_enumeration() {
        for profile in [vec![2usize], vec![3], vec![3, 2], vec![2, 2, 2], vec![4, 3]] {
            let (db, sigma) = database_with_blocks(&profile);
            let tree = RepairingTree::build(&db, &sigma, true, TreeLimits::default()).unwrap();
            let expected = tree.leaf_count() as u64;
            assert_eq!(
                count_complete_sequences_singleton(&profile).to_u64(),
                Some(expected),
                "profile {profile:?}"
            );
        }
    }

    #[test]
    fn consistent_profiles_have_one_sequence() {
        assert_eq!(count_complete_sequences(&[]).to_u64(), Some(1));
        assert_eq!(count_complete_sequences(&[1, 1, 1]).to_u64(), Some(1));
        assert_eq!(count_complete_sequences_singleton(&[1]).to_u64(), Some(1));
    }

    /// Builds a primary-key database whose block profile is `sizes`.
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
}
