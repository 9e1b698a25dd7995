//! Golden digests of the block samplers' draws.
//!
//! Each pin folds 64 draws of one sampler, in one operation mode, on
//! `BlockWorkload::uniform(50, 4, _)` into one `u64`: the index of every
//! fact of every drawn repair.  The pins cover `M^us` and `M^{us,1}`
//! (`SequenceSampler::sample_result_into`) and `M^ur` and `M^{ur,1}`
//! (`RepairSampler`'s full and block-restricted draws).  A refactor of
//! the samplers may change how a mode is chosen, never which repairs a
//! seed draws.

use rand::rngs::StdRng;
use rand::SeedableRng;

use uocqa::core::sample_repairs::RepairSampler;
use uocqa::core::sample_sequences::SequenceSampler;
use uocqa::db::{Database, FactSet, FdSet};
use uocqa::workload::BlockWorkload;

const DRAWS: usize = 64;

/// An FNV-style fold of the drawn repairs.
#[derive(Default)]
struct Digest(u64);

impl Digest {
    fn word(&mut self, word: u64) {
        if self.0 == 0 {
            self.0 = 0xcbf2_9ce4_8422_2325;
        }
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn repair(&mut self, repair: &FactSet) {
        for fact in repair.iter() {
            self.word(fact.index() as u64);
        }
        self.word(u64::MAX);
    }
}

fn workload(seed: u64) -> (Database, FdSet) {
    BlockWorkload::uniform(50, 4, seed).generate()
}

/// The digest of `DRAWS` draws of `draw` into one reused buffer.
fn digest_of(db: &Database, seed: u64, mut draw: impl FnMut(&mut StdRng, &mut FactSet)) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut repair = FactSet::empty(db.len());
    let mut digest = Digest::default();
    for _ in 0..DRAWS {
        draw(&mut rng, &mut repair);
        digest.repair(&repair);
    }
    digest.0
}

fn sequence_digest(singleton: bool) -> u64 {
    let (db, sigma) = workload(3);
    let sampler = if singleton {
        SequenceSampler::new_singleton_only(&db, &sigma).unwrap()
    } else {
        SequenceSampler::new_log_space(&db, &sigma).unwrap()
    };
    digest_of(&db, 11, |rng, out| sampler.sample_result_into(rng, out))
}

fn repair_sampler(db: &Database, sigma: &FdSet, singleton: bool) -> RepairSampler {
    let sampler = RepairSampler::new(db, sigma).unwrap();
    if singleton {
        sampler.singleton_only()
    } else {
        sampler
    }
}

fn repair_full_digest(singleton: bool) -> u64 {
    let (db, sigma) = workload(5);
    let sampler = repair_sampler(&db, &sigma, singleton);
    digest_of(&db, 13, |rng, out| sampler.sample_into(rng, out))
}

/// Restricted draws over every third block, into a prepared buffer.
fn repair_restricted_digest(singleton: bool) -> u64 {
    let (db, sigma) = workload(5);
    let sampler = repair_sampler(&db, &sigma, singleton);
    let blocks: Vec<usize> = (0..sampler.partition().len()).step_by(3).collect();
    let mut prepared = false;
    digest_of(&db, 13, |rng, out| {
        if !prepared {
            sampler.prepare(out);
            prepared = true;
        }
        sampler.sample_blocks_into(rng, &blocks, out);
    })
}

#[test]
fn sequence_sampler_pair_mode_draws_are_pinned() {
    assert_eq!(sequence_digest(false), 5_125_197_517_588_375_668);
}

#[test]
fn sequence_sampler_singleton_mode_draws_are_pinned() {
    assert_eq!(sequence_digest(true), 6_332_049_502_954_999_856);
}

#[test]
fn repair_sampler_full_draws_are_pinned() {
    assert_eq!(repair_full_digest(false), 14_364_079_964_817_297_443);
}

#[test]
fn repair_sampler_singleton_full_draws_are_pinned() {
    assert_eq!(repair_full_digest(true), 10_367_722_619_586_350_791);
}

#[test]
fn repair_sampler_restricted_draws_are_pinned() {
    assert_eq!(repair_restricted_digest(false), 5_710_928_213_272_220_558);
}

#[test]
fn repair_sampler_singleton_restricted_draws_are_pinned() {
    assert_eq!(repair_restricted_digest(true), 12_660_780_968_887_936_006);
}
