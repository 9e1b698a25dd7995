//! The traced replay of the library's stopping loop.
//!
//! The library's own per-draw experiment is private, so the traced run
//! drives the public `montecarlo` stopping loop with an experiment of its
//! own that makes the same public calls in the same order: a draw from
//! the sampler the generator table of `ucqa_core::fpras` picks,
//! `LineageBank::evaluate_live_into`, `QueryEvaluator::has_answer` on each
//! live fallback entry, and `BankLiveSet::retire` when an entry converges.
//! The RNG is consumed by the draw alone, so a replay from the same seed
//! reproduces the untraced per-entry counts bit for bit, which the
//! workloads assert.

use std::time::{Duration, Instant};

use rand::Rng;

use ucqa_core::montecarlo::StoppingBatchExperiment;
use ucqa_core::sample_operations::{OperationWalkSampler, WalkScratch};
use ucqa_core::sample_repairs::RepairSampler;
use ucqa_core::sample_sequences::SequenceSampler;
use ucqa_db::{ConflictIndex, Database, DbError, FactSet, FdSet, Value};
use ucqa_query::{BankLiveSet, BankScratch, LineageBank, QueryEvaluator};
use ucqa_repair::{GeneratorSpec, UniformSemantics};

/// The sampler behind one of the benchmark's generator specs, built
/// through the public constructor the estimator's generator table picks
/// for it.
pub enum Sampler<'a> {
    /// `M^ur`, pair and singleton operations.
    Repairs(RepairSampler),
    /// `M^us`, pair and singleton operations.
    Sequences(SequenceSampler),
    /// `M^uo`, singleton operations only.
    Walk(OperationWalkSampler<'a>),
}

impl<'a> Sampler<'a> {
    /// Builds the sampler for `spec`; `index` backs the operations walk
    /// and is ignored by the other generators.
    ///
    /// # Panics
    /// Panics on a spec no workload uses.
    pub fn new(
        db: &'a Database,
        sigma: &'a FdSet,
        spec: GeneratorSpec,
        index: ConflictIndex,
    ) -> Result<Self, DbError> {
        Ok(match (spec.semantics, spec.singleton_only) {
            (UniformSemantics::Repairs, false) => Sampler::Repairs(RepairSampler::new(db, sigma)?),
            (UniformSemantics::Sequences, false) => {
                Sampler::Sequences(SequenceSampler::new_log_space(db, sigma)?)
            }
            (UniformSemantics::Operations, true) => {
                Sampler::Walk(OperationWalkSampler::with_index(db, sigma, index).singleton_only())
            }
            _ => panic!("no workload runs {}", spec.short_name()),
        })
    }

    fn draw<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut FactSet, scratch: &mut WalkScratch) {
        match self {
            Sampler::Repairs(sampler) => sampler.sample_into(rng, out),
            Sampler::Sequences(sampler) => sampler.sample_result_into(rng, out),
            Sampler::Walk(walker) => walker.sample_result_into(rng, out, scratch),
        }
    }
}

/// One shared draw per call, checked against every live bank entry, with
/// the time of each layer accumulated over the whole loop.
pub struct TracedExperiment<'e, 'a> {
    sampler: &'e Sampler<'a>,
    db: &'e Database,
    bank: &'e LineageBank,
    queries: &'e [(QueryEvaluator, Vec<Value>)],
    live: BankLiveSet,
    has_fallback: bool,
    repair: FactSet,
    scratch: WalkScratch,
    bank_scratch: BankScratch,
    /// Time inside the sampler.
    pub draw_time: Duration,
    /// Time inside `LineageBank::evaluate_live_into`.
    pub check_time: Duration,
    /// Time inside `has_answer` on fallback entries.
    pub fallback_time: Duration,
    /// Draws made.
    pub draws: u64,
    /// Live fallback entries checked, summed over draws.
    pub fallback_checks: u64,
    /// Live witnesses scanned, summed over draws.
    pub live_witnesses: u64,
}

impl<'e, 'a> TracedExperiment<'e, 'a> {
    /// An experiment over `bank`, compiled from `queries` against `db`,
    /// starting from the live set `live`.
    pub fn new(
        sampler: &'e Sampler<'a>,
        db: &'e Database,
        bank: &'e LineageBank,
        queries: &'e [(QueryEvaluator, Vec<Value>)],
        live: BankLiveSet,
    ) -> Self {
        TracedExperiment {
            sampler,
            db,
            bank,
            queries,
            live,
            has_fallback: bank.has_fallback(),
            repair: FactSet::empty(db.len()),
            scratch: WalkScratch::new(),
            bank_scratch: BankScratch::new(),
            draw_time: Duration::ZERO,
            check_time: Duration::ZERO,
            fallback_time: Duration::ZERO,
            draws: 0,
            fallback_checks: 0,
            live_witnesses: 0,
        }
    }
}

impl<R: Rng + ?Sized> StoppingBatchExperiment<R> for TracedExperiment<'_, '_> {
    fn draw(&mut self, rng: &mut R, hits: &mut [bool]) {
        let start = Instant::now();
        self.sampler.draw(rng, &mut self.repair, &mut self.scratch);
        let drawn = Instant::now();
        self.live_witnesses += self.live.live_witness_count() as u64;
        self.bank
            .evaluate_live_into(&self.live, &self.repair, &mut self.bank_scratch, hits);
        let checked = Instant::now();
        self.draw_time += drawn - start;
        self.check_time += checked - drawn;
        self.draws += 1;
        if self.has_fallback {
            for &q in self.live.live_queries() {
                if self.bank.is_fallback(q) {
                    let (evaluator, candidate) = &self.queries[q];
                    hits[q] = evaluator
                        .has_answer(self.db, &self.repair, candidate)
                        .expect("candidate arity was validated during bank compilation");
                    self.fallback_checks += 1;
                }
            }
            self.fallback_time += checked.elapsed();
        }
    }

    fn retire(&mut self, query: usize) {
        self.live.retire(self.bank, query);
    }
}
