//! Compiled query lineage: the monotone DNF of witness sets.
//!
//! The FPRAS drivers of `ucqa-core` reduce uniform operational CQA to
//! drawing millions of Bernoulli samples of the form *"does this sampled
//! repair entail the query (with the candidate answer)?"*.  Every repair is
//! a subset `D' ⊆ D` of one fixed database, and conjunctive queries are
//! monotone, so the entailment predicate is a fixed monotone Boolean
//! function of the fact bits: `D' ⊨ Q(c̄)` iff the image of **some**
//! homomorphism `h` with `h(x̄) = c̄` survives in `D'`.
//!
//! [`LineageBank`](crate::LineageBank) materialises that function once per
//! `(D, Q, candidate)` entry — a single query is a bank of one: it
//! enumerates all homomorphisms up front and compiles their images into a
//! minimal antichain of witnesses.  The per-sample check is then *"some
//! witness ⊆ repair"* — a handful of word-level AND/compare operations per
//! witness (`SparseWitnesses`) — instead of a full backtracking
//! homomorphism search.  Witness enumeration is capped (query lineage can
//! be exponential in the query size); past the cap the entry falls back
//! to the backtracking evaluator.

use ucqa_db::FactId;

/// Default cap on the number of raw homomorphism images enumerated per
/// bank entry (see
/// [`CompileBudget::with_witness_cap`](crate::CompileBudget::with_witness_cap)).
/// The cap counts images before minimisation, duplicates and absorbed
/// supersets included, so it also bounds the entry's witness count.
///
/// A witness is stored as the few `(word, mask)` runs its facts span, so
/// `4096` witnesses of a short join take a few tens of KiB whatever the
/// universe size — comfortably cache-resident — while the linear witness
/// scan stays far cheaper than a backtracking search that would re-derive
/// those same homomorphisms on every sample.
pub const DEFAULT_WITNESS_CAP: usize = 4096;

/// The witnesses of a bank arena, each stored once by the non-zero words
/// of its bitset: witness `i` is the `(word index, mask)` pairs
/// `words[starts[i]..starts[i + 1]]`.
///
/// A witness spans a handful of facts, so it costs a few pairs rather
/// than a universe-sized bitset, and the per-draw containment check reads
/// only the few repair words a witness touches instead of
/// `⌈universe/64⌉` of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SparseWitnesses {
    starts: Vec<usize>,
    words: Vec<(usize, u64)>,
}

impl Default for SparseWitnesses {
    fn default() -> Self {
        SparseWitnesses {
            starts: vec![0],
            words: Vec::new(),
        }
    }
}

impl SparseWitnesses {
    /// Appends one witness, given by its facts in ascending order.
    pub(crate) fn push(&mut self, facts: impl IntoIterator<Item = FactId>) {
        let start = self.words.len();
        for fact in facts {
            let (word, bit) = (fact.index() / 64, 1u64 << (fact.index() % 64));
            match self.words[start..].last_mut() {
                Some((last, mask)) if *last == word => *mask |= bit,
                _ => self.words.push((word, bit)),
            }
        }
        self.starts.push(self.words.len());
    }

    /// Number of witnesses stored.
    pub(crate) fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Witness `index`.
    pub(crate) fn get(&self, index: usize) -> Witness<'_> {
        Witness {
            pairs: &self.words[self.starts[index]..self.starts[index + 1]],
        }
    }

    /// `true` iff witness `index` ⊆ the set whose membership words are
    /// `repair` (see [`FactSet::words`](ucqa_db::FactSet::words)).
    #[inline]
    pub(crate) fn contained(&self, index: usize, repair: &[u64]) -> bool {
        self.get(index)
            .pairs
            .iter()
            .all(|&(word, mask)| repair[word] & mask == mask)
    }
}

/// One witness of a bank arena: a view over its `(word, mask)` runs (see
/// [`LineageBank::witnesses_of`](crate::LineageBank::witnesses_of)).
#[derive(Debug, Clone, Copy)]
pub struct Witness<'a> {
    pairs: &'a [(usize, u64)],
}

impl<'a> Witness<'a> {
    /// The witness's facts, ascending.
    pub fn iter(&self) -> impl Iterator<Item = FactId> + 'a {
        self.pairs.iter().flat_map(|&(word, mask)| {
            let mut bits = mask;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    FactId::new(word * 64 + bit)
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    //! One query's lineage, compiled as a bank of one and checked against
    //! the backtracking evaluator.

    use crate::parser::parse_query;
    use crate::{BankLiveSet, BankScratch, CompileBudget, LineageBank, QueryEvaluator};
    use ucqa_db::{Database, FactId, FactSet, Schema, Value};

    fn blocks_db() -> Database {
        let mut schema = Schema::new();
        schema.add_relation("R", &["K", "V"]).unwrap();
        let mut db = Database::with_schema(schema);
        for (k, v) in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 7)] {
            db.insert_values("R", [Value::int(k), Value::int(v)])
                .unwrap();
        }
        db
    }

    fn evaluator(db: &Database, text: &str) -> QueryEvaluator {
        QueryEvaluator::new(parse_query(db.schema(), text).unwrap())
    }

    /// The bank of one `(evaluator, candidate)` entry.
    fn single(db: &Database, evaluator: &QueryEvaluator, candidate: &[Value]) -> LineageBank {
        LineageBank::compile(db, &[(evaluator, candidate)]).unwrap()
    }

    /// Whether the bank's one entry holds on `subset`.
    fn entails(bank: &LineageBank, subset: &FactSet) -> bool {
        let mut hits = [false];
        let live = BankLiveSet::full(bank);
        bank.evaluate_live_into(&live, subset, &mut BankScratch::new(), &mut hits);
        hits[0]
    }

    /// The entry's witnesses as sorted fact-id lists.
    fn witnesses(bank: &LineageBank) -> Vec<Vec<FactId>> {
        let mut ids: Vec<Vec<FactId>> = bank
            .witnesses_of(0)
            .unwrap()
            .iter()
            .map(|w| w.iter().collect())
            .collect();
        ids.sort();
        ids
    }

    #[test]
    fn entails_agrees_with_the_evaluator_on_all_subsets() {
        let db = blocks_db();
        for (text, candidate) in [
            ("Ans(x) :- R(1, x)", vec![Value::int(1)]),
            ("Ans() :- R(x, y), R(z, y)", vec![]),
            ("Ans() :- R(1, x), R(2, x)", vec![]),
            ("Ans() :- R(9, 9)", vec![]),
        ] {
            let evaluator = evaluator(&db, text);
            let lineage = single(&db, &evaluator, &candidate);
            assert!(!lineage.is_fallback(0), "under cap");
            for mask in 0u32..(1 << db.len()) {
                let subset = FactSet::from_iter(
                    db.len(),
                    (0..db.len())
                        .filter(|i| (mask >> i) & 1 == 1)
                        .map(FactId::new),
                );
                assert_eq!(
                    entails(&lineage, &subset),
                    evaluator.has_answer(&db, &subset, &candidate).unwrap(),
                    "query {text}, mask {mask:b}"
                );
            }
        }
    }

    #[test]
    fn witnesses_form_a_minimal_antichain() {
        let db = blocks_db();
        // R(x, y), R(z, y): single-fact images (x = z) absorb the two-fact
        // ones, leaving exactly the five singleton witnesses.
        let evaluator = evaluator(&db, "Ans() :- R(x, y), R(z, y)");
        let lineage = single(&db, &evaluator, &[]);
        let witnesses = witnesses(&lineage);
        assert_eq!(witnesses.len(), 5);
        assert!(witnesses.iter().all(|w| w.len() == 1));
        for (i, a) in witnesses.iter().enumerate() {
            for (j, b) in witnesses.iter().enumerate() {
                if i != j {
                    assert!(
                        !a.iter().all(|f| b.contains(f)),
                        "witness {i} ⊆ witness {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn unsatisfiable_candidates_have_no_witnesses() {
        let db = blocks_db();
        let evaluator = evaluator(&db, "Ans() :- R(9, 9)");
        let lineage = single(&db, &evaluator, &[]);
        assert_eq!(lineage.query_witness_count(0), Some(0));
        assert!(!entails(&lineage, &db.all_facts()));
    }

    #[test]
    fn cap_overflow_returns_none() {
        let db = blocks_db();
        let evaluator = evaluator(&db, "Ans() :- R(x, y)");
        let queries = [(&evaluator, &[] as &[Value])];
        let capped = |cap| {
            let budget = CompileBudget::unlimited().with_witness_cap(cap);
            LineageBank::compile_with_budget(&db, &queries, &budget)
                .unwrap()
                .0
        };
        assert!(capped(2).query_witness_count(0).is_none());
        assert!(capped(2).witnesses_of(0).is_none());
        assert_eq!(capped(5).query_witness_count(0), Some(5));
    }

    #[test]
    fn refresh_replays_mutations_and_matches_a_fresh_compile() {
        let mut db = blocks_db();
        for (text, candidate) in [
            ("Ans(x) :- R(1, x)", vec![Value::int(1)]),
            ("Ans() :- R(x, y), R(z, y)", vec![]),
            ("Ans() :- R(1, x), R(2, x)", vec![]),
            ("Ans() :- R(9, 9)", vec![]),
        ] {
            let evaluator = evaluator(&db, text);
            let queries = [(&evaluator, candidate.as_slice())];
            let mut lineage = single(&db, &evaluator, &candidate);
            // No mutations: refresh is a structural no-op.
            let before = witnesses(&lineage);
            assert_eq!(lineage.refresh(&db, &queries).unwrap(), 0);
            assert_eq!(witnesses(&lineage), before, "query {text}");
            // Insert facts extending block 1 and bridging blocks, and
            // delete R(2, 1); the refreshed lineage must equal a compile
            // from scratch.
            db.insert_values("R", [Value::int(1), Value::int(9)])
                .unwrap();
            db.insert_values("R", [Value::int(2), Value::int(9)])
                .unwrap();
            let gone = ucqa_db::Fact::new(
                db.schema().relation_id("R").unwrap(),
                vec![Value::int(2), Value::int(1)],
            );
            db.delete(db.fact_id(&gone).unwrap()).unwrap();
            lineage.refresh(&db, &queries).unwrap();
            assert!(!lineage.is_fallback(0), "query {text}");
            let fresh = single(&db, &evaluator, &candidate);
            assert_eq!(witnesses(&lineage), witnesses(&fresh), "query {text}");
            // Undo for the next query: re-insert what was deleted (new id,
            // but compile and refresh both see the same database).
            db.insert_values("R", [Value::int(2), Value::int(1)])
                .unwrap();
        }
    }

    #[test]
    fn refresh_grounds_constants_first_interned_by_the_mutations() {
        let mut db = blocks_db();
        // 8 is not interned at compile time: the lineage compiles to zero
        // witnesses (never entails).
        let evaluator = evaluator(&db, "Ans() :- R(8, x)");
        let queries = [(&evaluator, &[] as &[Value])];
        let mut lineage = single(&db, &evaluator, &[]);
        assert_eq!(lineage.query_witness_count(0), Some(0));
        db.insert_values("R", [Value::int(8), Value::int(1)])
            .unwrap();
        assert_eq!(lineage.refresh(&db, &queries).unwrap(), 1);
        let fresh = single(&db, &evaluator, &[]);
        assert_eq!(witnesses(&lineage), witnesses(&fresh));
        assert_eq!(lineage.query_witness_count(0), Some(1));
        assert!(entails(&lineage, &db.all_facts()));
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let db = blocks_db();
        let evaluator = evaluator(&db, "Ans(x) :- R(1, x)");
        assert!(LineageBank::compile(&db, &[(&evaluator, &[] as &[Value])]).is_err());
    }
}
