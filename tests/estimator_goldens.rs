//! Golden digests of every estimate schedule, for all six generator
//! specifications.
//!
//! Each row runs `BatchEstimator::run` or `run_sharded` once per spec on
//! a fixed database, bank and seed, and folds its outcome into one
//! `u64`: the estimate's bits, the sample and success counts, and the
//! truncated flag (through the [`Estimate`] view) or the budget status
//! of every entry (plus the total draw count of an [`EstimateOutcome`]).
//! The row names keep the entry points they pinned before the estimator
//! had one `run`: `single/*` rows are banks of one.  The pinned values
//! are the regression net of the estimator core: any change to which
//! draws a run makes, in which order, or how it turns them into an
//! outcome moves a digest.  A refactor of the estimator loops may change
//! how these runs are called, never what they return.
//!
//! Covered: a bank of one under the stopping rule and every fixed mode,
//! budgeted (unlimited, draw-capped) and sharded; a bank of four under
//! fixed, stopping, budgeted, precompiled-bank, sharded fixed and
//! round-based schedules; a draw-capped stopping run and its two
//! resumes; a bank with a witness-free entry and one whose entry is 0
//! without being witness-free; and a bank degraded to evaluator fallback
//! by a compile step cap of 1.

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;

use uocqa::core::budget::{BudgetStatus, CancelToken, RunBudget};
use uocqa::core::fpras::{
    ApproximationParams, BatchEstimator, BatchQuery, Estimate, EstimatorMode,
};
use uocqa::core::{CoreError, EstimateOutcome};
use uocqa::db::{Database, FdSet, FunctionalDependency, Schema, Value};
use uocqa::query::parser::parse_query;
use uocqa::query::QueryEvaluator;
use uocqa::repair::GeneratorSpec;

/// The running example of the paper (Figure 2): one relation `R(A1, A2)`
/// with primary key `A1`, blocks of three, one and two facts.
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

/// An FNV-style fold of outcome words.
#[derive(Default)]
struct Digest(u64);

impl Digest {
    fn word(&mut self, word: u64) {
        if self.0 == 0 {
            self.0 = 0xcbf2_9ce4_8422_2325;
        }
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn estimate(&mut self, estimate: &Estimate) {
        self.word(estimate.value.to_bits());
        self.word(estimate.samples);
        self.word(estimate.successes);
        self.word(u64::from(estimate.truncated));
    }

    fn outcome(&mut self, outcome: &EstimateOutcome) {
        for query in &outcome.queries {
            self.word(query.estimate.to_bits());
            self.word(query.samples);
            self.word(query.successes);
            self.word(match query.status {
                BudgetStatus::Converged => 0,
                BudgetStatus::BudgetExhausted => 1,
                BudgetStatus::Cancelled => 2,
            });
        }
        self.word(outcome.total_draws);
    }

    /// Folds an error as its variant, so a path that rejects a spec is
    /// pinned as rejecting it.
    fn error(&mut self, error: &CoreError) {
        self.word(match error {
            CoreError::InvalidParameters { .. } => 0xe1,
            CoreError::Unsupported { .. } => 0xe2,
            _ => 0xe3,
        });
    }

    /// Folds every entry of a run through its [`Estimate`] view.
    fn estimates(mut self, result: Result<EstimateOutcome, CoreError>) -> u64 {
        match result {
            Ok(outcome) => common::estimates(&outcome)
                .iter()
                .for_each(|e| self.estimate(e)),
            Err(e) => self.error(&e),
        }
        self.0
    }

    /// Folds the one entry of a run over a bank of one through its
    /// [`Estimate`] view.
    fn single(mut self, result: Result<EstimateOutcome, CoreError>) -> u64 {
        match result {
            Ok(outcome) => self.estimate(&common::estimates(&outcome)[0]),
            Err(e) => self.error(&e),
        }
        self.0
    }

    fn budgeted(mut self, result: Result<EstimateOutcome, CoreError>) -> u64 {
        match result {
            Ok(outcome) => self.outcome(&outcome),
            Err(e) => self.error(&e),
        }
        self.0
    }
}

fn rng() -> StdRng {
    StdRng::seed_from_u64(0x5eed)
}

/// The digest of every entry point under `spec`, in a fixed order.
fn digests(spec: GeneratorSpec) -> Vec<(&'static str, u64)> {
    let (db, sigma) = figure2();
    let parse = |text: &str| QueryEvaluator::new(parse_query(db.schema(), text).unwrap());
    let lookup = parse("Ans(x) :- R('a1', x)");
    let member = parse("Ans() :- R('a3', 'b1')");
    // No image in the database: witness-free, exactly 0.
    let never = parse("Ans() :- R('zz', 'zz')");
    // One witness whose facts share a key: 0, but not witness-free, so
    // the stopping rule truncates it at the cut-off.
    let clash = parse("Ans() :- R('a1', 'b1'), R('a1', 'b2')");
    let b1 = [Value::str("b1")];
    let queries = [
        BatchQuery::new(&lookup, &b1),
        BatchQuery::new(&member, &[]),
        BatchQuery::new(&never, &[]),
        BatchQuery::new(&clash, &[]),
    ];
    let stopping = ApproximationParams::new(0.25, 0.2)
        .unwrap()
        .with_mode(EstimatorMode::OptimalStopping { max_samples: 4_000 });
    let samples = ApproximationParams::new(0.25, 0.2)
        .unwrap()
        .with_mode(EstimatorMode::FixedSamples(1_500));
    let additive = ApproximationParams::new(0.1, 0.1)
        .unwrap()
        .with_mode(EstimatorMode::FixedAdditive);
    let from_bound = ApproximationParams::new(0.3, 0.2)
        .unwrap()
        .with_mode(EstimatorMode::FixedFromLowerBound);
    let parallel = ApproximationParams::new(0.25, 0.2)
        .unwrap()
        .with_mode(EstimatorMode::FixedSamples(5_000));
    let unlimited = RunBudget::unlimited();
    let capped = RunBudget::unlimited().with_max_draws(300);
    let cancelled = RunBudget::unlimited().with_cancel_token(CancelToken::tripped_at_draw(120));
    let starved = RunBudget::unlimited().with_max_compile_steps(1);

    let batch = BatchEstimator::new(&db, &sigma, spec).unwrap();
    // A fresh bank of `queries`, compiled under `budget`.
    let compile =
        |queries: &[BatchQuery<'_>], budget: &RunBudget| batch.compile_bank(queries, budget);
    // `run` from a fresh stream over a fresh bank.
    let run = |queries: &[BatchQuery<'_>], params, budget: &RunBudget| {
        let bank = compile(queries, budget)?;
        batch.run(&bank, queries, params, budget, None, &mut rng())
    };
    let sharded = |queries: &[BatchQuery<'_>], params, budget: &RunBudget| {
        let bank = compile(queries, budget)?;
        batch.run_sharded(&bank, queries, params, budget, 7)
    };
    let lookup_only = &queries[..1];
    let d = Digest::default;
    let mut out = Vec::new();

    // Banks of one.
    for (name, query) in [
        ("single/stopping/lookup", &queries[0]),
        ("single/stopping/never", &queries[2]),
        ("single/stopping/clash", &queries[3]),
    ] {
        let result = run(std::slice::from_ref(query), stopping, &unlimited);
        out.push((name, d().single(result)));
    }
    for (name, params) in [
        ("single/fixed-samples", samples),
        ("single/fixed-additive", additive),
    ] {
        out.push((name, d().single(run(lookup_only, params, &unlimited))));
    }
    for (name, params, budget) in [
        ("single/budget/stopping", stopping, &unlimited),
        ("single/budget/stopping-capped", stopping, &capped),
        ("single/budget/stopping-cancelled", stopping, &cancelled),
        ("single/budget/fixed", samples, &unlimited),
        ("single/budget/fixed-capped", samples, &capped),
        // The derived count runs under a cap.  Under M^uo the
        // Proposition 7.3 bound asks for about 1.35·10¹⁴ draws, past the
        // stopping cut-off, so that run is rejected before drawing.
        ("single/budget/fixed-from-bound-capped", from_bound, &capped),
    ] {
        out.push((name, d().budgeted(run(lookup_only, params, budget))));
    }
    out.push((
        "single/parallel",
        d().single(sharded(lookup_only, parallel, &unlimited)),
    ));

    // The bank of four.
    for (name, params) in [("batch/fixed", samples), ("batch/stopping", stopping)] {
        out.push((name, d().estimates(run(&queries, params, &unlimited))));
    }
    let bank = compile(&queries, &unlimited).unwrap();
    out.push((
        "batch/with-bank",
        d().estimates(batch.run(&bank, &queries, samples, &unlimited, None, &mut rng())),
    ));
    out.push((
        "batch/stopping-direct",
        d().estimates(run(&queries, stopping, &unlimited)),
    ));
    for (name, params, budget) in [
        ("batch/budget/fixed", samples, &unlimited),
        ("batch/budget/fixed-capped", samples, &capped),
        ("batch/budget/stopping", stopping, &unlimited),
        ("batch/budget/fixed-fallback", samples, &starved),
        ("batch/budget/stopping-fallback", stopping, &starved),
    ] {
        out.push((name, d().budgeted(run(&queries, params, budget))));
    }

    // A draw-capped stopping run and its resumes: on the recompiled bank
    // and on a caller-held one.
    let mut resume_rng = rng();
    let capped_bank = compile(&queries, &capped).unwrap();
    let partial = batch
        .run(
            &capped_bank,
            &queries,
            stopping,
            &capped,
            None,
            &mut resume_rng,
        )
        .unwrap();
    out.push(("batch/stopping-capped", d().budgeted(Ok(partial.clone()))));
    let mut held_rng = resume_rng.clone();
    let recompiled = compile(&queries, &unlimited).unwrap();
    let resumed = batch.run(
        &recompiled,
        &queries,
        stopping,
        &unlimited,
        Some(&partial),
        &mut resume_rng,
    );
    out.push(("batch/resume", d().budgeted(resumed)));
    let resumed = batch.run(
        &bank,
        &queries,
        stopping,
        &unlimited,
        Some(&partial),
        &mut held_rng,
    );
    out.push(("batch/resume-with-bank", d().budgeted(resumed)));

    // The sharded runs: a fixed count and the stopping rule.
    for (name, params) in [
        ("batch/parallel/fixed", parallel),
        ("batch/parallel/rounds", stopping),
    ] {
        out.push((name, d().estimates(sharded(&queries, params, &unlimited))));
    }
    // A round covers 4 000 draws at once, so the cap of 300 cuts the
    // stream at the first round boundary of a longer run.
    let long = stopping.with_mode(EstimatorMode::OptimalStopping {
        max_samples: 100_000,
    });
    for (name, params, budget) in [
        ("batch/parallel/rounds-budget", stopping, &unlimited),
        ("batch/parallel/rounds-capped", long, &capped),
    ] {
        out.push((name, d().budgeted(sharded(&queries, params, budget))));
    }
    out
}

/// Per entry point, the digest under each of [`common::all_specs`]:
/// `M^ur`, `M^{ur,1}`, `M^us`, `M^{us,1}`, `M^uo`, `M^{uo,1}`.
const PINNED: &[(&str, [u64; 6])] = &[
    (
        "single/stopping/lookup",
        [
            0xdfde37745d77688a,
            0x82b7253d16c18864,
            0x8b1ad1d6af230649,
            0x7441de29013aa11b,
            0x08aa748c62314764,
            0xee6add0f846ca07e,
        ],
    ),
    (
        "single/stopping/never",
        [
            0x4d25767f9dce13f5,
            0x4d25767f9dce13f5,
            0x4d25767f9dce13f5,
            0x4d25767f9dce13f5,
            0x4d25767f9dce13f5,
            0x4d25767f9dce13f5,
        ],
    ),
    (
        "single/stopping/clash",
        [
            0xb7125582aecd3d22,
            0xb7125582aecd3d22,
            0xb7125582aecd3d22,
            0xb7125582aecd3d22,
            0xb7125582aecd3d22,
            0xb7125582aecd3d22,
        ],
    ),
    (
        "single/fixed-samples",
        [
            0xf2ef7f56daa5ea58,
            0xfe6f8de05c47d9b7,
            0xf1a5b37df95c3fd5,
            0xfded89573405a268,
            0x6f6db384c6a6d24c,
            0xe30e4af26b0ed0e0,
        ],
    ),
    (
        "single/fixed-additive",
        [
            0xc212bc663a627a01,
            0x6efabbe87a2d4bc0,
            0x62c243c412dd8e86,
            0x62c243c412dd8e86,
            0x932b80ac7f6386af,
            0xa5d21ca12c21ea75,
        ],
    ),
    (
        "single/budget/stopping",
        [
            0xde02dcbad1ea3146,
            0xdebd63cdaadbfc47,
            0x819a49cb9886210e,
            0xc68d3ead169f248d,
            0xeaeac98ad9bb368d,
            0x8c37785e04970055,
        ],
    ),
    (
        "single/budget/stopping-capped",
        [
            0x3ffcf1e4dc01e812,
            0x7b702633bdab131f,
            0x7969071432f7d54c,
            0x0e626b0039cc40ce,
            0xb7358c28950542f7,
            0x8c0868ea8c60b85b,
        ],
    ),
    (
        "single/budget/stopping-cancelled",
        [
            0x0f0d9406b55f86b3,
            0x3b9127c422be34fb,
            0x58ae9bfaaa7f91b3,
            0x1f03d5dd42a3470d,
            0x58ae9bfaaa7f91b3,
            0x6b4e3250999cdebd,
        ],
    ),
    (
        "single/budget/fixed",
        [
            0x72e4e49587f5fd4c,
            0x9f6a7f3cce1b89d1,
            0xf8ca080eb7b69d4b,
            0x8048132d659bf6dc,
            0xfe3f9a9d8d8049b0,
            0xe01e95ebea3454f4,
        ],
    ),
    (
        "single/budget/fixed-capped",
        [
            0x3ffcf1e4dc01e812,
            0x7b702633bdab131f,
            0x7969071432f7d54c,
            0x0e626b0039cc40ce,
            0xb7358c28950542f7,
            0x8c0868ea8c60b85b,
        ],
    ),
    (
        "single/budget/fixed-from-bound-capped",
        [
            0x3ffcf1e4dc01e812,
            0x7b702633bdab131f,
            0x7969071432f7d54c,
            0x0e626b0039cc40ce,
            0xaf645c4c8602c60c,
            0x8c0868ea8c60b85b,
        ],
    ),
    (
        "single/parallel",
        [
            0xb20f5ccedb7e0f61,
            0x007fae4746524fb5,
            0x52355fcdf2dc3d29,
            0xa6cd734274f13604,
            0x3399c11e2e358041,
            0xb5b2f6a6a0cdebca,
        ],
    ),
    (
        "batch/fixed",
        [
            0x8a9b957934146fd7,
            0xaedec446f6a4e345,
            0x88ee55e72a5ec479,
            0x777679f3bd71fecd,
            0x95f408f81584a3f0,
            0xd0894b2170bd9fce,
        ],
    ),
    (
        "batch/stopping",
        [
            0x84d4085748ce26d3,
            0x5ed651b5018b5d88,
            0x28c16e4f85343fbd,
            0x72fc2a2f5f7dab53,
            0xb1e64acdddf98428,
            0xf77defa089e70016,
        ],
    ),
    (
        "batch/with-bank",
        [
            0x8a9b957934146fd7,
            0xaedec446f6a4e345,
            0x88ee55e72a5ec479,
            0x777679f3bd71fecd,
            0x95f408f81584a3f0,
            0xd0894b2170bd9fce,
        ],
    ),
    (
        "batch/stopping-direct",
        [
            0x84d4085748ce26d3,
            0x5ed651b5018b5d88,
            0x28c16e4f85343fbd,
            0x72fc2a2f5f7dab53,
            0xb1e64acdddf98428,
            0xf77defa089e70016,
        ],
    ),
    (
        "batch/budget/fixed",
        [
            0x9ac907f37eb030b1,
            0xc96e1d951a33d5fb,
            0x0bbd9cccff030b5f,
            0x704c4a2ae8ad9de3,
            0x5251698c90665cc4,
            0x16e4bbd2922ccc96,
        ],
    ),
    (
        "batch/budget/fixed-capped",
        [
            0x9e0d750405d4b76a,
            0x8453cf2ba907c664,
            0xac9b0e205086b24e,
            0xe1720b86829a9395,
            0xf1512e937e58790f,
            0x2d25ad7de88abd10,
        ],
    ),
    (
        "batch/budget/stopping",
        [
            0x82739f50b6506e69,
            0xb17efe919fbc99f8,
            0x74de8e1f57adc147,
            0xe020a17f427f48e9,
            0x43dca3d02f081818,
            0x720de3ca539fb242,
        ],
    ),
    (
        "batch/budget/fixed-fallback",
        [
            0x9ac907f37eb030b1,
            0xc96e1d951a33d5fb,
            0x0bbd9cccff030b5f,
            0x704c4a2ae8ad9de3,
            0x5251698c90665cc4,
            0x16e4bbd2922ccc96,
        ],
    ),
    (
        "batch/budget/stopping-fallback",
        [
            0xc71550ba67b6f830,
            0xc16b384509b9a3f1,
            0x8caefeaa77f3d1ce,
            0x5d18e8616c16fdb0,
            0xa6468ab6ee839d51,
            0x8cc40e3ac51cbe3b,
        ],
    ),
    (
        "batch/stopping-capped",
        [
            0x7645259181d0b697,
            0x4f12a14f07dbb381,
            0x6ce5aa598deb0113,
            0x2edb810f80b3ce00,
            0x2513eb44096ff422,
            0xb04a48fadcf791d5,
        ],
    ),
    (
        "batch/resume",
        [
            0x82739f50b6506e69,
            0xb17efe919fbc99f8,
            0x74de8e1f57adc147,
            0xe020a17f427f48e9,
            0x43dca3d02f081818,
            0x720de3ca539fb242,
        ],
    ),
    (
        "batch/resume-with-bank",
        [
            0x82739f50b6506e69,
            0xb17efe919fbc99f8,
            0x74de8e1f57adc147,
            0xe020a17f427f48e9,
            0x43dca3d02f081818,
            0x720de3ca539fb242,
        ],
    ),
    (
        "batch/parallel/fixed",
        [
            0x8fb2f69c796deb86,
            0x6cfab67a523a23b7,
            0x40881fe9b1e3e50f,
            0x20d2bae0c3f3784e,
            0xf8d68ed87bcaab3f,
            0x2e589f93e19a12f9,
        ],
    ),
    (
        "batch/parallel/rounds",
        [
            0xccfe42e0ebaec499,
            0x53520abe964301a7,
            0xef175c7636157b41,
            0x4ad99e6ea3c8ceec,
            0xeb277dc4cd3a6015,
            0x11fbcb987b8e7255,
        ],
    ),
    (
        "batch/parallel/rounds-budget",
        [
            0x02d6dd307a0351db,
            0xd77648d953f0d5e5,
            0x5a26fddde6759a53,
            0xf88982004e207424,
            0xce8a6a68ba4bd08f,
            0x1d58e919f320074f,
        ],
    ),
    (
        "batch/parallel/rounds-capped",
        [
            0x402f70156c3fe188,
            0xfcc1f98273376ab0,
            0xf756ed88118c7655,
            0x97237b97f31a3ee3,
            0xe14f9de694989c01,
            0x53539c9f3bb21808,
        ],
    ),
];

#[test]
fn every_estimate_entry_point_keeps_its_golden_digest() {
    let specs = common::all_specs();
    let actual: Vec<Vec<(&str, u64)>> = specs.iter().map(|&spec| digests(spec)).collect();
    let names: Vec<&str> = actual[0].iter().map(|&(name, _)| name).collect();
    let table: String = names
        .iter()
        .enumerate()
        .map(|(row, name)| {
            let cells: Vec<String> = actual
                .iter()
                .map(|per_spec| format!("{:#018x}", per_spec[row].1))
                .collect();
            format!("    (\"{name}\", [{}]),\n", cells.join(", "))
        })
        .collect();
    assert_eq!(
        names,
        PINNED.iter().map(|&(name, _)| name).collect::<Vec<_>>(),
        "entry points differ from the pinned table; actual:\n{table}"
    );
    for (row, &(name, pinned)) in PINNED.iter().enumerate() {
        for (column, spec) in specs.iter().enumerate() {
            assert_eq!(
                actual[column][row].1,
                pinned[column],
                "{name} under {} moved; actual table:\n{table}",
                spec.short_name()
            );
        }
    }
}
