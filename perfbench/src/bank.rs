//! The three bank workloads: `pk_bank`, `pk_sequences` and `fd_joins`.
//!
//! Set-up ingests the generated facts (`Database::extend`), builds the
//! relation index, and constructs a `BatchEstimator`.  A request is a
//! fresh seeded bank of queries: plan each one (`QueryEvaluator::with_stats`)
//! and estimate the whole bank with `BatchEstimator::estimate_stopping_batch`,
//! which compiles the lineage bank and runs the stopping loop until every
//! entry converges.  A run makes the same seeded requests in rounds, at
//! least two; a request's latency is its fastest execution.
//!
//! An entry fails when the request returns an error, when it does not
//! converge, or when its estimate lies outside (0, 1] (every query holds
//! on the full database).  On `pk_bank` it also fails when it misses its
//! exact value by more than 3ε relative; the exact value comes from
//! `ExactSolver` on the queried block's own sub-database, which is valid
//! because `M^ur` marginals factorize per block.  The count within ε is
//! printed as information only.  These checks run on the first round; a
//! later round must reproduce its per-entry outcomes bit for bit.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ucqa_core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, Estimate, EstimatorMode};
use ucqa_core::montecarlo::{self, StoppingRuleEstimator, StoppingRuleOutcome};
use ucqa_core::{CoreError, ExactSolver};
use ucqa_db::{Database, Fact, FactId, FdSet, Value};
use ucqa_query::{Atom, BankLiveSet, ConjunctiveQuery, LineageBank, QueryEvaluator, Term};
use ucqa_repair::GeneratorSpec;
use ucqa_workload::queries::{
    block_lookup_query, fact_membership_query_bank, overlapping_join_bank,
};
use ucqa_workload::{BlockWorkload, MultiFdWorkload};

use crate::replay::{Sampler, TracedExperiment};
use crate::report::{self, Report};
use crate::setup::{Components, SetupTimes};
use crate::stats::{fnv, median, mix, ms, ratio, us_per, FNV_OFFSET};
use crate::trace::{insert_self_times, Tracer, BENCH, REQUEST, SETUP};
use crate::Args;

/// A query bank: each query with its candidate answer tuple.
type Bank = Vec<(ConjunctiveQuery, Vec<Value>)>;

/// What a bank workload generates.
enum Data {
    /// `BlockWorkload::uniform(blocks, 4)`: `R(K, V)` under a primary
    /// key; a bank is eight `block_lookup_query` entries plus an
    /// eight-entry `fact_membership_query_bank`.
    Blocks { blocks: usize },
    /// `MultiFdWorkload::scaling(facts)`: two relations under non-key FDs;
    /// a bank is a six-entry `overlapping_join_bank` (one-atom shared
    /// prefix) plus the three joins of [`broad_joins`], two of them above
    /// the compile cap.
    MultiFd { facts: usize },
}

/// One bank workload's configuration.
pub struct Workload {
    spec: GeneratorSpec,
    params: ApproximationParams,
    data: Data,
    /// Set-ups per run (the median is reported).
    setup_runs: usize,
    /// Distinct requests of one round.
    requests: usize,
    /// Check each estimate against its exact per-block value.
    exact_check: bool,
}

/// Cut-off of the stopping loop: far above any workload's need, so a
/// truncated entry signals a fault.
const MAX_SAMPLES: u64 = 2_000_000;

/// Rounds over the same requests a run always makes.  A request's latency
/// is its fastest execution, which filters out the bursts other
/// processes on the host cause.
const MIN_ROUNDS: usize = 2;

/// Seed of the generated database.  `MultiFdWorkload` data drawn from
/// different seeds differs in cost by up to a quarter per request.
const DATA_SEED: u64 = 1;

impl Workload {
    /// The workload called `name`, at smoke size if `smoke`.
    pub fn named(name: &str, smoke: bool) -> Option<Self> {
        let params = |epsilon, delta| {
            ApproximationParams::new(epsilon, delta)
                .expect("valid approximation parameters")
                .with_mode(EstimatorMode::OptimalStopping {
                    max_samples: MAX_SAMPLES,
                })
        };
        let pick = |full: usize, small: usize| if smoke { small } else { full };
        Some(match name {
            "pk_bank" => Workload {
                spec: GeneratorSpec::uniform_repairs(),
                params: params(0.2, 0.1),
                data: Data::Blocks {
                    blocks: pick(5000, 200),
                },
                setup_runs: pick(25, 2),
                requests: pick(16, 2),
                exact_check: true,
            },
            "pk_sequences" => Workload {
                spec: GeneratorSpec::uniform_sequences(),
                params: params(0.2, 0.1),
                data: Data::Blocks {
                    blocks: pick(250, 25),
                },
                setup_runs: pick(7, 2),
                requests: pick(16, 2),
                exact_check: false,
            },
            "fd_joins" => Workload {
                spec: GeneratorSpec::uniform_operations().with_singleton_only(),
                params: params(0.5, 0.2),
                data: Data::MultiFd {
                    facts: pick(800, 300),
                },
                setup_runs: pick(61, 2),
                requests: pick(24, 2),
                exact_check: false,
            },
            _ => return None,
        })
    }

    /// The database, the same for every run seed: seeds vary the requests
    /// only, so runs with different seeds time the same data.
    fn generate(&self) -> (Database, FdSet) {
        match self.data {
            Data::Blocks { blocks } => BlockWorkload::uniform(blocks, 4, DATA_SEED).generate(),
            Data::MultiFd { facts } => MultiFdWorkload::scaling(facts, DATA_SEED).generate(),
        }
    }

    fn bank(&self, reference: &Database, seed: u64) -> Result<Bank, CoreError> {
        let mut bank = Vec::new();
        match self.data {
            Data::Blocks { .. } => {
                for j in 0..8 {
                    bank.push(block_lookup_query(reference, mix(seed, j))?);
                }
                for query in fact_membership_query_bank(reference, 8, seed)? {
                    bank.push((query, Vec::new()));
                }
            }
            Data::MultiFd { .. } => {
                for query in overlapping_join_bank(reference, 6, 1, seed)? {
                    bank.push((query, Vec::new()));
                }
                bank.extend(
                    broad_joins(reference, seed)?
                        .into_iter()
                        .map(|q| (q, Vec::new())),
                );
            }
        }
        Ok(bank)
    }

    /// How many entries of an answered bank fail, and how many land within
    /// ε of their exact value (counted on `pk_bank` only).
    fn failures(
        &self,
        db: &Database,
        sigma: &FdSet,
        blocks: &BTreeMap<Value, Vec<FactId>>,
        bank: &Bank,
        estimates: &[Estimate],
    ) -> (u64, u64) {
        let mut failed = bank.len().saturating_sub(estimates.len()) as u64;
        let mut within_epsilon = 0;
        for ((query, candidate), estimate) in bank.iter().zip(estimates) {
            let mut fails = estimate.truncated || !(estimate.value > 0.0 && estimate.value <= 1.0);
            if self.exact_check {
                let exact = exact_value(db, blocks, sigma, self.spec, query, candidate);
                let error = (estimate.value - exact).abs() / exact;
                fails |= error > 3.0 * self.params.epsilon;
                within_epsilon += u64::from(error <= self.params.epsilon);
            }
            failed += u64::from(fails);
        }
        (failed, within_epsilon)
    }

    /// Cut-off of the stopping loop.
    fn max_samples(&self) -> u64 {
        match self.params.mode {
            EstimatorMode::OptimalStopping { max_samples } => max_samples,
            _ => unreachable!("bank workloads run the stopping rule"),
        }
    }

    /// One untraced request: plan every query, then estimate the bank.
    fn answer(
        &self,
        db: &Database,
        estimator: &BatchEstimator<'_>,
        bank: &Bank,
        rng_seed: u64,
    ) -> (Duration, Result<Vec<Estimate>, CoreError>) {
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let start = Instant::now();
        let result = bank
            .iter()
            .map(|(query, _)| QueryEvaluator::with_stats(query.clone(), db))
            .collect::<Result<Vec<_>, _>>()
            .map_err(CoreError::from)
            .and_then(|evaluators| {
                let batch: Vec<BatchQuery<'_>> = evaluators
                    .iter()
                    .zip(bank)
                    .map(|(evaluator, (_, candidate))| BatchQuery::new(evaluator, candidate))
                    .collect();
                estimator.estimate_stopping_batch(&batch, self.params, &mut rng)
            });
        (start.elapsed(), result)
    }

    /// The traced replay of one request: the same plan, compile and
    /// stopping loop through public calls, with spans around each layer.
    fn replay(
        &self,
        db: &Database,
        sampler: &Sampler<'_>,
        bank: &Bank,
        rng_seed: u64,
        request: u32,
        tracer: &mut Tracer,
    ) -> Result<Replay, CoreError> {
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let start = Instant::now();
        let root = tracer.open(request, BENCH, REQUEST, None);

        let planning = Instant::now();
        let queries: Vec<(QueryEvaluator, Vec<Value>)> = bank
            .iter()
            .map(|(query, candidate)| {
                QueryEvaluator::with_stats(query.clone(), db).map(|e| (e, candidate.clone()))
            })
            .collect::<Result<_, _>>()?;
        tracer.record(
            request,
            "query",
            "plan",
            Some(root),
            planning.elapsed(),
            bank.len() as u64,
        );

        let compiling = Instant::now();
        let refs: Vec<(&QueryEvaluator, &[Value])> =
            queries.iter().map(|(e, c)| (e, c.as_slice())).collect();
        let compiled = LineageBank::compile(db, &refs)?;
        tracer.record(
            request,
            "query",
            "compile",
            Some(root),
            compiling.elapsed(),
            1,
        );

        // The per-entry target of the batched stopping rule: relative
        // error ε at failure probability δ/k, as the estimator derives it.
        let k = bank.len().max(1);
        let target = StoppingRuleEstimator::new(self.params.epsilon, self.params.delta / k as f64)
            .success_target();
        let targets = vec![target; bank.len()];
        let mut experiment = TracedExperiment::new(
            sampler,
            db,
            &compiled,
            &queries,
            BankLiveSet::full(&compiled),
        );
        let looping = Instant::now();
        let outcome = montecarlo::estimate_stopping_batch(
            &mut rng,
            &targets,
            self.max_samples(),
            &mut experiment,
        );
        let stop = tracer.record(
            request,
            "core.stop",
            "loop",
            Some(root),
            looping.elapsed(),
            1,
        );
        let draws = experiment.draws;
        tracer.record(
            request,
            "core.draw",
            "sample",
            Some(stop),
            experiment.draw_time,
            draws,
        );
        tracer.record(
            request,
            "query",
            "check",
            Some(stop),
            experiment.check_time,
            draws,
        );
        if experiment.fallback_checks > 0 {
            tracer.record(
                request,
                "query",
                "fallback",
                Some(stop),
                experiment.fallback_time,
                experiment.fallback_checks,
            );
        }
        tracer.close(root, start.elapsed());
        Ok(Replay {
            outcomes: outcome.outcomes,
            draws,
            live_witnesses: experiment.live_witnesses,
            witnesses: compiled.witness_count(),
            fallback_entries: (0..compiled.len())
                .filter(|&q| compiled.is_fallback(q))
                .count(),
            bank: compiled,
        })
    }
}

/// Three Boolean joins of `R0` and `R1` on `B` around a seeded pivot
/// fact: a wide one anchored at the pivot's `A` value, which stays under
/// the compile cap and fills the witness arena, then two broad ones whose
/// witness counts exceed the cap (evaluator fallback): one anchored at the
/// pivot's `B` value, one joining on any shared `B` value.
fn broad_joins(reference: &Database, seed: u64) -> Result<Vec<ConjunctiveQuery>, CoreError> {
    let schema = reference.schema();
    let r0 = schema.relation_id("R0")?;
    let r1 = schema.relation_id("R1")?;
    let mut rng = StdRng::seed_from_u64(seed);
    let pivot = reference.fact(FactId::new(rng.random_range(0..reference.len())));
    let a = Term::Const(pivot.values()[0].clone());
    let b = Term::Const(pivot.values()[1].clone());
    let v = Term::var("v");
    let atom = |relation, a: Option<&Term>, b: &Term, tag: &str| {
        Atom::new(
            relation,
            vec![
                a.cloned().unwrap_or_else(|| Term::var(format!("a{tag}"))),
                b.clone(),
                Term::var(format!("c{tag}")),
                Term::var(format!("p{tag}")),
            ],
        )
    };
    Ok(vec![
        ConjunctiveQuery::boolean(
            schema,
            vec![atom(r0, Some(&a), &v, "0"), atom(r1, None, &v, "1")],
        )?,
        ConjunctiveQuery::boolean(
            schema,
            vec![atom(r0, None, &b, "0"), atom(r1, None, &b, "1")],
        )?,
        ConjunctiveQuery::boolean(
            schema,
            vec![atom(r1, None, &v, "1"), atom(r0, None, &v, "0")],
        )?,
    ])
}

/// What a traced replay produced beside its spans.
struct Replay {
    outcomes: Vec<StoppingRuleOutcome>,
    draws: u64,
    live_witnesses: u64,
    witnesses: usize,
    fallback_entries: usize,
    bank: LineageBank,
}

/// Totals over the first round, which repeat exactly for a seed.
#[derive(Default)]
struct Counted {
    draws: u64,
    converged: u64,
    live_witnesses: u64,
    witnesses: Vec<f64>,
    fallback_entries: Vec<f64>,
    relevant_components: Vec<f64>,
}

/// What decides an entry's fate: per entry `(samples, successes,
/// truncated)`, or the request's error.
type Outcome = Result<Vec<(u64, u64, bool)>, String>;

/// Runs one bank workload and reports it.
pub fn run(workload: &Workload, args: &Args, mut tracer: Option<&mut Tracer>) -> Report {
    let (generated, sigma) = workload.generate();
    let schema = generated.schema().clone();
    let mut facts: Vec<Fact> = generated.iter().map(|(_, fact)| fact).collect();
    drop(generated);
    let mut report = Report {
        inputs_digest: fnv(FNV_OFFSET, format!("{facts:?}").as_bytes()),
        ..Report::default()
    };

    // Set-up, repeated; the last one moves the generated facts in and is
    // kept, so only the library's copy stays resident.
    let mut setup = SetupTimes::default();
    for _ in 1..workload.setup_runs {
        let (db, start) = setup.ingest(&schema, facts.clone());
        let estimator =
            BatchEstimator::new(&db, &sigma, workload.spec).expect("supported generator");
        setup.finish(start);
        drop(estimator);
    }
    let (db, start) = setup.ingest(&schema, std::mem::take(&mut facts));
    let estimator = BatchEstimator::new(&db, &sigma, workload.spec).expect("supported generator");
    setup.finish(start);

    // Every input of the request loop, generated outside the timers from
    // the library's database (same facts, same ids): the distinct
    // requests of one round, and for the exact check the fact ids of
    // each block.
    let requests: Vec<(Bank, u64)> = (0..workload.requests as u64)
        .map(|r| {
            let bank = workload
                .bank(&db, mix(args.seed, 2 * r))
                .expect("generated bank is valid");
            (bank, mix(args.seed, 2 * r + 1))
        })
        .collect();
    for (bank, _) in &requests {
        report.inputs_digest = fnv(report.inputs_digest, format!("{bank:?}").as_bytes());
    }
    let mut blocks: BTreeMap<Value, Vec<FactId>> = BTreeMap::new();
    if workload.exact_check {
        for id in db.fact_ids() {
            blocks
                .entry(db.fact(id).values()[0].clone())
                .or_default()
                .push(id);
        }
    }

    // Traced runs time the layers the estimator builds internally by
    // calling their public constructors once more, outside the set-up.
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let traced = tracer.as_deref_mut().map(|tracer| {
        let (index, components) = Components::traced(&db, &sigma, tracer, &mut layer);
        let start = Instant::now();
        let sampler = Sampler::new(&db, &sigma, workload.spec, index).expect("supported generator");
        let built = start.elapsed();
        tracer.record(SETUP, "core.draw", "build", None, built, 1);
        layer.insert("core.draw.build_ms", ms(built));
        (sampler, components)
    });

    // The closed loop, in rounds over the same requests: at least
    // `MIN_ROUNDS` rounds, then on until `--seconds` have passed.  A
    // request's latency is its fastest execution.
    let n = requests.len();
    let mut fastest = vec![Duration::MAX; n];
    let mut first: Vec<Outcome> = Vec::with_capacity(n);
    let mut failed_in = vec![0u64; n];
    let mut busy = Duration::ZERO;
    let mut within_epsilon = 0u64;
    let mut counted = Counted::default();
    let mut executions = 0usize;
    let start = Instant::now();
    while executions < MIN_ROUNDS * n || start.elapsed() < args.seconds {
        let (i, round) = (executions % n, executions / n);
        let (bank, rng_seed) = &requests[i];
        let (latency, result) = workload.answer(&db, &estimator, bank, *rng_seed);
        fastest[i] = fastest[i].min(latency);
        busy += latency;
        report.attempted += bank.len() as u64;
        let outcome: Outcome = match &result {
            Ok(estimates) => Ok(estimates
                .iter()
                .map(|e| (e.samples, e.successes, e.truncated))
                .collect()),
            Err(error) => Err(error.to_string()),
        };
        if round == 0 {
            failed_in[i] = match &result {
                Ok(estimates) => {
                    let (failed, within) = workload.failures(&db, &sigma, &blocks, bank, estimates);
                    within_epsilon += within;
                    counted.converged += estimates.iter().filter(|e| !e.truncated).count() as u64;
                    failed
                }
                Err(error) => {
                    report.notes.push(format!("request {i}: {error}"));
                    bank.len() as u64
                }
            };
            first.push(outcome);
        } else if outcome != first[i] {
            // A repeat runs from the same seed, so it must reproduce the
            // first round bit for bit.
            report.mismatches += 1;
            failed_in[i] = bank.len() as u64;
        }
        report.failed += failed_in[i];

        if let Some((sampler, components)) = traced.as_ref() {
            let tracer = tracer.as_deref_mut().expect("traced run");
            let replayed =
                workload.replay(&db, sampler, bank, *rng_seed, executions as u32, tracer);
            match (&result, replayed) {
                (Ok(estimates), Ok(replay)) => {
                    let identical = estimates.len() == replay.outcomes.len()
                        && estimates.iter().zip(&replay.outcomes).all(|(e, r)| {
                            (e.samples, e.successes, e.truncated)
                                == (r.samples, r.successes, r.truncated)
                        });
                    report.mismatches += u64::from(!identical);
                    if round == 0 {
                        counted.draws += replay.draws;
                        counted.live_witnesses += replay.live_witnesses;
                        counted.witnesses.push(replay.witnesses as f64);
                        counted
                            .fallback_entries
                            .push(replay.fallback_entries as f64);
                        counted
                            .relevant_components
                            .push(components.relevant(&replay.bank) as f64);
                    }
                }
                (Err(_), Err(_)) => {}
                _ => report.mismatches += 1,
            }
        }
        executions += 1;
    }

    let fastest_ms: Vec<f64> = fastest.iter().copied().map(ms).collect();
    let answers = requests
        .iter()
        .zip(&failed_in)
        .map(|((bank, _), failed)| bank.len() as u64 - failed)
        .sum::<u64>();
    report.set_end_to_end(
        median(&setup.total),
        setup.total.len(),
        &fastest_ms,
        ratio(
            answers as f64,
            fastest.iter().sum::<Duration>().as_secs_f64(),
        ),
    );
    report.notes.push(format!(
        "{n} distinct requests, {executions} executions ({:.1} rounds); \
         latencies are each request's fastest execution",
        executions as f64 / n as f64
    ));
    if workload.exact_check {
        report.notes.push(format!(
            "within_epsilon {within_epsilon} of {} first-round entries (information only)",
            requests.iter().map(|(bank, _)| bank.len()).sum::<usize>()
        ));
    }
    if report.mismatches > 0 {
        report.notes.push(format!(
            "{} repeats or traced replays diverged from the first outcome",
            report.mismatches
        ));
    }

    if let Some(tracer) = tracer {
        setup.insert_layers(&mut layer);
        for (name, time) in [("plan", "query.plan_ms"), ("compile", "query.compile_ms")] {
            let per_request: Vec<f64> = tracer.per_request(name).into_iter().map(ms).collect();
            layer.insert(time, median(&per_request));
        }
        layer.insert("query.witnesses", median(&counted.witnesses));
        layer.insert("query.fallback_entries", median(&counted.fallback_entries));
        layer.insert(
            "db.relevant_components",
            median(&counted.relevant_components),
        );
        layer.insert(
            "query.live_witnesses_per_draw",
            ratio(counted.live_witnesses as f64, counted.draws as f64),
        );
        layer.insert("core.stop.draws", counted.draws as f64);
        layer.insert(
            "core.stop.draws_per_answer",
            ratio(counted.draws as f64, counted.converged as f64),
        );
        let (draw, draws) = tracer.total("sample");
        let (check, _) = tracer.total("check");
        let (fallback, _) = tracer.total("fallback");
        let (looping, _) = tracer.total("loop");
        let (traced, _) = tracer.total(REQUEST);
        layer.insert("core.draw.us_per_draw", us_per(draw, draws));
        layer.insert("query.check_us_per_draw", us_per(check, draws));
        layer.insert("query.fallback_us_per_draw", us_per(fallback, draws));
        layer.insert(
            "core.stop.overhead_us_per_draw",
            us_per(looping.saturating_sub(draw + check + fallback), draws),
        );
        layer.insert(
            "core.draw.share",
            ratio(draw.as_secs_f64(), traced.as_secs_f64()),
        );
        layer.insert(
            "trace.overhead_ratio",
            ratio(traced.as_secs_f64(), busy.as_secs_f64()),
        );
        let note = insert_self_times(&mut layer, tracer, traced);
        report.notes.push(note);
        report.per_layer = report::per_layer(&layer);
    }
    report
}

/// The exact answer probability of a single-block query, computed on the
/// queried block's own sub-database.
fn exact_value(
    db: &Database,
    blocks: &BTreeMap<Value, Vec<FactId>>,
    sigma: &FdSet,
    spec: GeneratorSpec,
    query: &ConjunctiveQuery,
    candidate: &[Value],
) -> f64 {
    let Term::Const(key) = &query.atoms()[0].terms()[0] else {
        unreachable!("block queries fix the key");
    };
    let mut block = Database::with_schema(db.schema().clone());
    block
        .extend(blocks[key].iter().map(|&id| db.fact(id)))
        .expect("block facts match their schema");
    ExactSolver::new(&block, sigma)
        .answer_probability(spec, &QueryEvaluator::new(query.clone()), candidate)
        .expect("a four-fact block is exactly solvable")
        .to_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broad_joins_overflow_the_compile_cap() {
        let workload = Workload::named("fd_joins", false).expect("fd_joins exists");
        let (db, _) = workload.generate();
        let bank = workload.bank(&db, 7).expect("valid bank");
        let evaluators: Vec<QueryEvaluator> = bank
            .iter()
            .map(|(q, _)| QueryEvaluator::new(q.clone()))
            .collect();
        let refs: Vec<(&QueryEvaluator, &[Value])> =
            evaluators.iter().map(|e| (e, &[] as &[Value])).collect();
        let compiled = LineageBank::compile(&db, &refs).expect("bank compiles");
        let fallback: Vec<usize> = (0..compiled.len())
            .filter(|&q| compiled.is_fallback(q))
            .collect();
        assert_eq!(fallback, vec![bank.len() - 2, bank.len() - 1]);
    }

    #[test]
    fn exact_block_value_is_a_probability() {
        let workload = Workload::named("pk_bank", true).expect("pk_bank exists");
        let (db, sigma) = workload.generate();
        let mut blocks: BTreeMap<Value, Vec<FactId>> = BTreeMap::new();
        for (id, fact) in db.iter() {
            blocks.entry(fact.values()[0].clone()).or_default().push(id);
        }
        let (query, candidate) = block_lookup_query(&db, 5).expect("valid query");
        let exact = exact_value(&db, &blocks, &sigma, workload.spec, &query, &candidate);
        assert!(exact > 0.0 && exact < 1.0, "exact value {exact}");
    }
}
