//! A refreshed `ConflictIndex` equals a fresh build after every step of
//! long random multi-FD streams with scripted steps.
//!
//! `ConflictIndex::refresh` re-partitions only the components a delta
//! touches and leaves every other component's storage, rank and digest in
//! place.  The scripted steps aim at what that can get wrong: splitting a
//! component by deleting a bridge fact, merging two components with one
//! insert, deleting a component's smallest fact (which moves its rank past
//! another component's), and reviving a deleted fact's values under a new
//! id.  After every step the refreshed index must equal the built one
//! canonically, give every fact id the same component, component digest
//! and structure fingerprint, keep each component's facts ascending and
//! its pairs strictly lexicographic (the order the walks read), and back
//! walks that draw the same repairs and sequences from the same seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use uocqa::core::sample_operations::{OperationWalkSampler, WalkScratch};
use uocqa::db::{
    ConflictIndex, Database, FactId, FactSet, FdSet, FunctionalDependency, Schema, Value,
};

/// Random values of `A` and `C` stay below this; scripted facts use values
/// at or above it, so random facts never conflict with them.
const DOMAIN: i64 = 8;

/// A database over `R(A, B, C)` with the FDs `A → B` and `C → B`, its
/// conflict index refreshed after every step, and the random source of
/// the stream.
struct Stream {
    db: Database,
    sigma: FdSet,
    index: ConflictIndex,
    rng: StdRng,
    next_fresh: i64,
    steps: usize,
}

impl Stream {
    fn new(seed: u64) -> Self {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B", "C"]).unwrap();
        let db = Database::with_schema(schema);
        let mut sigma = FdSet::new();
        for lhs in ["A", "C"] {
            sigma.add(FunctionalDependency::from_names(db.schema(), "R", &[lhs], &["B"]).unwrap());
        }
        let index = ConflictIndex::build(&db, &sigma);
        let mut stream = Stream {
            db,
            sigma,
            index,
            rng: StdRng::seed_from_u64(seed),
            next_fresh: DOMAIN,
            steps: 0,
        };
        for _ in 0..40 {
            stream.insert_random();
        }
        stream.check("initial facts");
        stream
    }

    fn insert(&mut self, a: i64, b: i64, c: i64) -> FactId {
        self.db
            .insert_values("R", [Value::int(a), Value::int(b), Value::int(c)])
            .unwrap()
    }

    fn insert_random(&mut self) -> FactId {
        let a = self.rng.random_range(0..DOMAIN);
        let b = self.rng.random_range(0..3);
        let c = self.rng.random_range(0..DOMAIN);
        self.insert(a, b, c)
    }

    /// A value no fact has used yet.
    fn fresh(&mut self) -> i64 {
        self.next_fresh += 1;
        self.next_fresh
    }

    /// Refreshes the index and checks it against a fresh build.
    fn check(&mut self, step: &str) {
        self.steps += 1;
        let changes = self.db.changes_since(self.index.version()).len();
        assert_eq!(self.index.refresh(&self.db, &self.sigma), changes);
        let context = format!("step {} ({step})", self.steps);
        assert_refresh_matches_build(&self.db, &self.sigma, &self.index, &context);
    }

    fn component(&self, fact: FactId) -> Option<usize> {
        self.index.component_of(fact)
    }

    /// Up to three random inserts and two random deletes, refreshed as one
    /// delta; the database stays around 60 live facts.
    fn random_step(&mut self) {
        let inserts = self.rng.random_range(0..4);
        for _ in 0..inserts {
            self.insert_random();
        }
        let deletes = self.rng.random_range(0..3) + usize::from(self.db.live_count() > 60);
        for _ in 0..deletes {
            let live: Vec<FactId> = self.db.fact_ids().collect();
            let victim = live[self.rng.random_range(0..live.len())];
            self.db.delete(victim).unwrap();
        }
        self.check("random");
    }

    /// The chain `l1 – l2 – m – r1 – r2` is one component; deleting the
    /// bridge `m` leaves `{l1, l2}` and `{r1, r2}`.
    fn split(&mut self) {
        let (u, m, w) = (self.fresh(), self.fresh(), self.fresh());
        let (x, y, z) = (self.fresh(), self.fresh(), self.fresh());
        let l1 = self.insert(u, 1, x);
        let l2 = self.insert(u, 2, y);
        let bridge = self.insert(m, 1, y);
        let r1 = self.insert(m, 2, z);
        let r2 = self.insert(w, 1, z);
        self.check("split: chain");
        let chain = self.component(l1);
        assert!(chain.is_some());
        for fact in [l2, bridge, r1, r2] {
            assert_eq!(self.component(fact), chain);
        }
        let components = self.index.component_count();
        self.db.delete(bridge).unwrap();
        self.check("split: bridge deleted");
        assert_eq!(self.index.component_count(), components + 1);
        assert_eq!(self.component(bridge), None);
        assert_eq!(self.component(l1), self.component(l2));
        assert_eq!(self.component(r1), self.component(r2));
        assert_ne!(self.component(l1), self.component(r1));
    }

    /// `{p1, p2}` and `{q1, q2}` are two components; one insert that
    /// conflicts with `p1`, `p2` (on `A`) and `q1` (on `C`) merges them.
    fn merge(&mut self) {
        let (u, w) = (self.fresh(), self.fresh());
        let (x1, x2, z1, z2) = (self.fresh(), self.fresh(), self.fresh(), self.fresh());
        let p1 = self.insert(u, 1, x1);
        let p2 = self.insert(u, 2, x2);
        let q1 = self.insert(w, 1, z1);
        let q2 = self.insert(w, 2, z2);
        self.check("merge: two components");
        assert_ne!(self.component(p1), self.component(q1));
        let components = self.index.component_count();
        let joint = self.insert(u, 3, z1);
        self.check("merge: joining insert");
        assert_eq!(self.index.component_count(), components - 1);
        for fact in [p2, q1, q2, joint] {
            assert_eq!(self.component(fact), self.component(p1));
        }
    }

    /// Component `{k1, k2, k3}` ranks before `{o1, o2}` while `k1 < o1`;
    /// deleting `k1` makes `k2 > o1` its smallest fact, so the ranks swap.
    fn delete_minimum(&mut self) {
        let (u, w) = (self.fresh(), self.fresh());
        let c: Vec<i64> = (0..5).map(|_| self.fresh()).collect();
        let k1 = self.insert(u, 1, c[0]);
        let o1 = self.insert(w, 1, c[1]);
        let o2 = self.insert(w, 2, c[2]);
        let k2 = self.insert(u, 2, c[3]);
        let k3 = self.insert(u, 3, c[4]);
        self.check("delete minimum: two components");
        assert!(self.component(k1) < self.component(o1));
        assert_eq!(self.component(o1), self.component(o2));
        let components = self.index.component_count();
        self.db.delete(k1).unwrap();
        self.check("delete minimum: minimum deleted");
        assert_eq!(self.index.component_count(), components);
        assert_eq!(self.component(k2), self.component(k3));
        assert!(self.component(k2) > self.component(o1));
    }

    /// Deletes a conflicting fact and inserts its values again, once in
    /// a later delta and once within the same delta.  The values come back
    /// under a new id, in the component of their old partners.
    fn revive(&mut self) {
        for same_delta in [false, true] {
            let Some(&victim) = self.index.conflicting_facts().first() else {
                return;
            };
            let fact = self.db.fact(victim);
            self.db.delete(victim).unwrap();
            if !same_delta {
                self.check("revive: deleted");
            }
            let revived = self.db.insert(fact).unwrap();
            self.check("revive: inserted again");
            assert_ne!(revived, victim);
            assert_eq!(self.component(victim), None);
            assert!(self.component(revived).is_some());
        }
    }
}

/// Draws `draws` repairs restricted to `listed` and `walks` interleaved
/// walks from `seed`, under both walk generators, from a sampler over
/// `index`.
fn draws(
    db: &Database,
    sigma: &FdSet,
    index: &ConflictIndex,
    listed: &[usize],
    seed: u64,
) -> Vec<(FactSet, Vec<FactId>, u64)> {
    let mut out = Vec::new();
    for singleton in [false, true] {
        let sampler = OperationWalkSampler::with_index(db, sigma, index.clone());
        let sampler = if singleton {
            sampler.singleton_only()
        } else {
            sampler
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut repair, mut scratch) = (FactSet::full(db.len()), WalkScratch::new());
        for _ in 0..3 {
            sampler.sample_components_into(&mut rng, listed, &mut repair, &mut scratch);
            out.push((repair.clone(), Vec::new(), 0));
        }
        for _ in 0..2 {
            let walk = sampler.sample(&mut rng);
            let removed = walk
                .sequence
                .operations()
                .iter()
                .flat_map(|operation| operation.facts().iter().copied())
                .collect();
            out.push((walk.result, removed, walk.probability.ln().to_bits()));
        }
    }
    out
}

/// The refreshed index equals a fresh build: canonically, in every fact's
/// component and component digest, in the structure fingerprint, and in
/// the walks it backs.
fn assert_refresh_matches_build(
    db: &Database,
    sigma: &FdSet,
    refreshed: &ConflictIndex,
    context: &str,
) {
    let built = ConflictIndex::build(db, sigma);
    assert!(refreshed == &built, "{context}: refreshed ≠ built");
    assert_eq!(
        refreshed.structure_fingerprint(),
        built.structure_fingerprint(),
        "{context}"
    );
    for fact in (0..db.len()).map(FactId::new) {
        assert_eq!(
            refreshed.component_of(fact),
            built.component_of(fact),
            "{context}: {fact:?}"
        );
        assert_eq!(
            refreshed.component_digest(fact),
            built.component_digest(fact),
            "{context}: {fact:?}"
        );
    }
    // Canonical `==` compares the global pair list, not the per-component
    // runs the `M^uo` walk pool reads: check their order directly.
    for c in 0..refreshed.component_count() {
        let facts = refreshed.component(c);
        assert!(
            facts.windows(2).all(|w| w[0] < w[1]),
            "{context}: component {c} facts are not ascending: {facts:?}"
        );
        let pairs = refreshed.component_pairs(c);
        assert!(
            pairs.windows(2).all(|w| w[0] < w[1]),
            "{context}: component {c} pairs are not strictly lexicographic: {pairs:?}"
        );
        assert_eq!(pairs, built.component_pairs(c), "{context}: component {c}");
        // The `M^{uo,1}` draw reads each fact's neighbours as positions in
        // its component's fact run: they must resolve to the fact's
        // neighbours, ascending.
        let mut neighbours = vec![Vec::new(); facts.len()];
        for &(a, b) in pairs {
            for (f, g) in [(a, b), (b, a)] {
                let at = facts
                    .binary_search(&f)
                    .expect("pair facts are in the component");
                neighbours[at].push(g);
            }
        }
        for (&fact, expected) in facts.iter().zip(&mut neighbours) {
            expected.sort_unstable();
            let resolved: Vec<FactId> = refreshed
                .neighbour_positions(fact)
                .iter()
                .map(|&p| facts[p as usize])
                .collect();
            assert_eq!(&resolved, expected, "{context}: neighbours of {fact:?}");
        }
    }
    let listed: Vec<usize> = (0..built.component_count()).step_by(2).collect();
    let seed = db.version();
    assert!(
        draws(db, sigma, refreshed, &listed, seed) == draws(db, sigma, &built, &listed, seed),
        "{context}: same-seed draws differ"
    );
}

#[test]
fn refreshed_index_matches_a_build_after_every_scripted_and_random_step() {
    for seed in [1, 2, 3] {
        let mut stream = Stream::new(seed);
        for round in 0..50 {
            for _ in 0..3 {
                stream.random_step();
            }
            match round % 4 {
                0 => stream.split(),
                1 => stream.merge(),
                2 => stream.delete_minimum(),
                _ => stream.revive(),
            }
        }
        assert!(stream.index.component_count() > 5, "seed {seed}");
    }
}
