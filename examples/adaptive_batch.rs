//! Adaptive batched estimation: one shared repair stream, per-query
//! Dagum–Karp–Luby–Ross stopping targets, early retirement.
//!
//! A skewed question bank over an inconsistent sensor table: most
//! questions concern well-supported readings (high answer probability,
//! cheap to certify), one concerns a heavily contradicted reading (low
//! probability, needs a long stream).  A fixed shared budget would make
//! every question pay for the hardest one; the adaptive batch
//! (`BatchEstimator::run` under the stopping rule) retires each question the
//! moment its own success target `Υ(ε, δ/k)` is reached, shrinking the
//! per-draw work, and only the rare question rides the stream to the end.
//!
//! ```text
//! cargo run --example adaptive_batch
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use uocqa::core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
use uocqa::core::RunBudget;
use uocqa::db::{Database, FdSet, FunctionalDependency, Schema, Value};
use uocqa::query::{parser::parse_query, QueryEvaluator};
use uocqa::repair::GeneratorSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One sensor ("hub") is contradicted by a crowd of later readings:
    // its "ok" status survives repairing only rarely.  The other sensors
    // have a single contradiction each.
    let mut schema = Schema::new();
    schema.add_relation("Reading", &["sensor", "status", "ts"])?;
    let mut db = Database::with_schema(schema);
    let mut sigma = FdSet::new();
    sigma.add(FunctionalDependency::from_names(
        db.schema(),
        "Reading",
        &["sensor"],
        &["status"],
    )?);
    db.insert_values("Reading", [Value::int(0), Value::str("ok"), Value::int(0)])?;
    for ts in 1..40 {
        // 39 conflicting "fault" reports against the hub's lone "ok".
        db.insert_values(
            "Reading",
            [Value::int(0), Value::str("fault"), Value::int(ts)],
        )?;
    }
    for sensor in 1..4 {
        db.insert_values(
            "Reading",
            [
                Value::int(sensor),
                Value::str("ok"),
                Value::int(100 + sensor),
            ],
        )?;
        db.insert_values(
            "Reading",
            [
                Value::int(sensor),
                Value::str("fault"),
                Value::int(200 + sensor),
            ],
        )?;
    }

    // The bank: one rare question (the hub), three cheap ones.
    let texts = [
        "Ans() :- Reading(0, 'ok', x)",
        "Ans() :- Reading(1, 'ok', x)",
        "Ans() :- Reading(2, 'ok', x)",
        "Ans() :- Reading(3, 'ok', x)",
    ];
    let evaluators: Vec<QueryEvaluator> = texts
        .iter()
        .map(|t| parse_query(db.schema(), t).map(QueryEvaluator::new))
        .collect::<Result<_, _>>()?;
    let bank: Vec<BatchQuery<'_>> = evaluators.iter().map(|e| BatchQuery::new(e, &[])).collect();

    // Non-key FD ⇒ uniform operations with singleton removals
    // (Theorem 7.5).  Under OptimalStopping `run` drives the batched
    // stopping rule: per-query targets Υ(ε, δ/4) over one shared walk
    // stream, retirement on convergence.
    let spec = GeneratorSpec::uniform_operations().with_singleton_only();
    let estimator = BatchEstimator::new(&db, &sigma, spec)?;
    let params = ApproximationParams::new(0.1, 0.05)?.with_mode(EstimatorMode::OptimalStopping {
        max_samples: 2_000_000,
    });
    let unlimited = RunBudget::unlimited();
    let compiled = estimator.compile_bank(&bank, &unlimited)?;
    let mut rng = StdRng::seed_from_u64(7);
    let estimates = estimator
        .run(&compiled, &bank, params, &unlimited, None, &mut rng)?
        .queries;

    println!("adaptive batched stopping rule (ε = 0.1, δ = 0.05, δ/k per query):");
    for (text, estimate) in texts.iter().zip(&estimates) {
        println!(
            "  {text}\n    estimate {:.4} after {} samples ({} successes{})",
            estimate.estimate,
            estimate.samples,
            estimate.successes,
            if !estimate.status.is_converged() {
                ", TRUNCATED — no (ε, δ) guarantee"
            } else {
                ""
            }
        );
    }
    let stream = estimates.iter().map(|e| e.samples).max().unwrap_or(0);
    let evaluations: u64 = estimates.iter().map(|e| e.samples).sum();
    println!(
        "shared stream: {stream} draws; query evaluations performed: {evaluations} \
         (a fixed loop of the same length would perform {})",
        stream * bank.len() as u64
    );
    Ok(())
}
