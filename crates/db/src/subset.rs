//! Compact subsets of a database's facts.

use std::fmt;

use crate::FactId;

/// A subset of the facts of a fixed database, stored as a bit-set over
/// [`FactId`]s.
///
/// The repairing process of the paper only ever moves from a database `D`
/// to subsets `D' ⊆ D` (FDs are repaired by deletions only), so every
/// intermediate state of a repairing sequence, every candidate repair and
/// every operational repair is represented as a [`FactSet`] relative to the
/// original database.  Bit-sets make the per-step operations (removal,
/// membership, iteration) cheap and allocation-light.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FactSet {
    words: Vec<u64>,
    universe: usize,
}

impl Default for FactSet {
    /// An empty subset of the empty universe — the state of a scratch
    /// buffer before its first `copy_from`/resize.
    fn default() -> Self {
        FactSet::empty(0)
    }
}

impl FactSet {
    /// Creates an empty subset of a universe with `universe` facts.
    pub fn empty(universe: usize) -> Self {
        FactSet {
            words: vec![0; universe.div_ceil(64)],
            universe,
        }
    }

    /// Creates the full subset `{0, …, universe−1}`.
    pub fn full(universe: usize) -> Self {
        let mut set = FactSet::empty(universe);
        set.fill();
        set
    }

    /// Creates a subset from an iterator of fact ids.
    pub fn from_iter(universe: usize, facts: impl IntoIterator<Item = FactId>) -> Self {
        let mut set = FactSet::empty(universe);
        for f in facts {
            set.insert(f);
        }
        set
    }

    /// The size of the universe this subset ranges over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The membership bits, 64 facts per word (fact `i` is bit `i % 64` of
    /// word `i / 64`); bits past the universe are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Returns `true` iff `fact` is a member.
    pub fn contains(&self, fact: FactId) -> bool {
        let idx = fact.index();
        debug_assert!(idx < self.universe, "fact id out of range");
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Inserts `fact`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, fact: FactId) -> bool {
        let idx = fact.index();
        assert!(idx < self.universe, "fact id out of range");
        let word = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        let newly = *word & mask == 0;
        *word |= mask;
        newly
    }

    /// Makes `fact` a member iff `member`, without branching on `member`
    /// (for hot loops where `member` is random).
    #[inline]
    pub fn set(&mut self, fact: FactId, member: bool) {
        let idx = fact.index();
        assert!(idx < self.universe, "fact id out of range");
        let word = &mut self.words[idx / 64];
        let bit = idx % 64;
        *word = (*word & !(1u64 << bit)) | (u64::from(member) << bit);
    }

    /// Removes `fact`; returns `true` if it was present.
    pub fn remove(&mut self, fact: FactId) -> bool {
        let idx = fact.index();
        assert!(idx < self.universe, "fact id out of range");
        let word = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        let present = *word & mask != 0;
        *word &= !mask;
        present
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` iff the subset is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Returns `true` iff `self ⊆ other`.
    pub fn is_subset_of(&self, other: &FactSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` iff `other ⊆ self`, i.e. `self` contains every member
    /// of `other`.
    ///
    /// This is the per-sample kernel of the compiled-lineage entailment
    /// check ("some witness ⊆ repair"): a handful of word-level AND/compare
    /// operations, no iteration over members.
    pub fn contains_all(&self, other: &FactSet) -> bool {
        other.is_subset_of(self)
    }

    /// Removes every member, keeping the allocation.
    pub fn clear(&mut self) {
        for word in &mut self.words {
            *word = 0;
        }
    }

    /// Inserts every element of the universe, filling whole `u64` words and
    /// masking the final partial word.
    pub fn fill(&mut self) {
        for word in &mut self.words {
            *word = u64::MAX;
        }
        self.mask_tail();
    }

    /// Widens the universe to `universe` facts, keeping the membership of
    /// every existing id (new ids start absent).  Shrinking is not
    /// supported — fact ids are never reused, so universes only grow.
    pub fn grow(&mut self, universe: usize) {
        debug_assert!(
            universe >= self.universe,
            "FactSet universes only grow ({} → {universe})",
            self.universe
        );
        self.words.resize(universe.div_ceil(64), 0);
        self.universe = universe;
    }

    /// In-place intersection: `self ← self ∩ other`.
    pub fn intersect_with(&mut self, other: &FactSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Copies the contents of `other` into `self` without allocating.
    ///
    /// # Panics
    /// Panics if the universes differ.
    pub fn copy_from(&mut self, other: &FactSet) {
        assert_eq!(
            self.universe, other.universe,
            "copy_from requires equal universes"
        );
        self.words.copy_from_slice(&other.words);
    }

    /// Zeroes the bits above `universe` in the final partial word.
    fn mask_tail(&mut self) {
        let tail_bits = self.universe % 64;
        if tail_bits != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail_bits) - 1;
            }
        }
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = FactId> + '_ {
        self.iter_from(0)
    }

    /// Iterates over the members with an id of at least `from`, in
    /// increasing id order; the words below `from`'s are never read.
    pub fn iter_from(&self, from: usize) -> impl Iterator<Item = FactId> + '_ {
        let first = from / 64;
        // Clears the bits below `from` in its own word.
        let low = u64::MAX << (from % 64);
        let words = self.words.get(first..).unwrap_or(&[]);
        (first..).zip(words).flat_map(move |(wi, &word)| {
            let mut word = if wi == first { word & low } else { word };
            std::iter::from_fn(move || {
                if word == 0 {
                    None
                } else {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    Some(FactId::new(wi * 64 + bit))
                }
            })
        })
    }

    /// Collects the members into a vector of fact ids.
    pub fn to_vec(&self) -> Vec<FactId> {
        self.iter().collect()
    }
}

impl fmt::Debug for FactSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, fact) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{fact}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_full_and_membership() {
        let mut set = FactSet::empty(70);
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert!(set.insert(FactId::new(65)));
        assert!(!set.insert(FactId::new(65)));
        assert!(set.contains(FactId::new(65)));
        assert!(!set.contains(FactId::new(64)));
        assert_eq!(set.len(), 1);

        let full = FactSet::full(70);
        assert_eq!(full.len(), 70);
        assert!(set.is_subset_of(&full));
        assert!(!full.is_subset_of(&set));
    }

    #[test]
    fn remove_and_iterate() {
        let mut set = FactSet::full(10);
        assert!(set.remove(FactId::new(3)));
        assert!(!set.remove(FactId::new(3)));
        set.remove(FactId::new(0));
        set.remove(FactId::new(9));
        let members: Vec<usize> = set.iter().map(FactId::index).collect();
        assert_eq!(members, vec![1, 2, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn subset_relation() {
        let a = FactSet::from_iter(8, [FactId::new(1), FactId::new(2)]);
        let b = FactSet::from_iter(8, [FactId::new(1), FactId::new(2), FactId::new(5)]);
        assert!(a.is_subset_of(&b));
        assert!(a.is_subset_of(&a));
        assert!(!b.is_subset_of(&a));
    }

    #[test]
    fn iter_from_skips_the_members_below_its_start() {
        let members = [0usize, 5, 63, 64, 100, 128, 129];
        let set = FactSet::from_iter(130, members.iter().map(|&i| FactId::new(i)));
        for from in [0usize, 1, 5, 6, 63, 64, 65, 127, 128, 129, 130, 200] {
            let expected: Vec<usize> = members.iter().copied().filter(|&i| i >= from).collect();
            let got: Vec<usize> = set.iter_from(from).map(FactId::index).collect();
            assert_eq!(got, expected, "from {from}");
        }
    }

    #[test]
    fn debug_rendering() {
        let set = FactSet::from_iter(4, [FactId::new(0), FactId::new(3)]);
        assert_eq!(format!("{set:?}"), "{f0, f3}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        let mut set = FactSet::empty(4);
        set.insert(FactId::new(4));
    }

    #[test]
    fn full_fills_words_and_masks_the_tail() {
        // Universe sizes around word boundaries: the tail word must not
        // carry bits past the universe, or len()/iter() would be wrong.
        for universe in [0usize, 1, 63, 64, 65, 127, 128, 130] {
            let full = FactSet::full(universe);
            assert_eq!(full.len(), universe, "universe {universe}");
            assert_eq!(full.iter().count(), universe, "universe {universe}");
            if universe > 0 {
                assert!(full.contains(FactId::new(universe - 1)));
            }
            let mut refilled = FactSet::empty(universe);
            refilled.fill();
            assert_eq!(refilled, full);
        }
    }

    #[test]
    fn superset_and_contains_all() {
        let a = FactSet::from_iter(100, [FactId::new(1), FactId::new(70)]);
        let b = FactSet::from_iter(100, [FactId::new(1), FactId::new(70), FactId::new(99)]);
        assert!(b.contains_all(&a));
        assert!(!a.contains_all(&b));
        assert!(a.contains_all(&FactSet::empty(100)));
    }

    #[test]
    fn set_writes_membership_and_words_expose_it() {
        let mut s = FactSet::from_iter(100, [FactId::new(3), FactId::new(70)]);
        s.set(FactId::new(3), false);
        s.set(FactId::new(65), true);
        s.set(FactId::new(70), true);
        s.set(FactId::new(99), false);
        assert_eq!(s.to_vec(), vec![FactId::new(65), FactId::new(70)]);
        assert_eq!(s.words(), &[0, (1 << 1) | (1 << 6)]);
    }

    #[test]
    fn clear_and_copy_from_reuse_the_allocation() {
        let mut set = FactSet::full(130);
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.universe(), 130);
        let other = FactSet::from_iter(130, [FactId::new(0), FactId::new(129)]);
        set.copy_from(&other);
        assert_eq!(set, other);
    }

    #[test]
    fn word_level_set_operations() {
        let mut a = FactSet::from_iter(70, [FactId::new(1), FactId::new(2), FactId::new(69)]);
        let b = FactSet::from_iter(70, [FactId::new(2), FactId::new(3), FactId::new(69)]);
        a.intersect_with(&b);
        assert_eq!(a.to_vec(), vec![FactId::new(2), FactId::new(69)]);
    }

    #[test]
    #[should_panic(expected = "equal universes")]
    fn copy_from_rejects_mismatched_universes() {
        let mut a = FactSet::empty(10);
        a.copy_from(&FactSet::empty(11));
    }
}
