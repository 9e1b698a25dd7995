//! The `window_stream` workload: a `StreamWorkload` over primary-key
//! `R(K, V)` through a count window of about 20k live facts, answered by
//! `WindowedEstimator` under `M^uo` with singleton operations.
//!
//! Set-up ingests the initial facts, builds the relation index, constructs
//! the windowed estimator and runs its first converged pass.  A request is
//! one tick of inserts, retractions and expiry (`WindowedEstimator::tick`)
//! followed by `WindowedEstimator::estimate`.  A fixed bank of eight
//! queries is pinned to blocks that neither expire nor churn during an
//! epoch, and every fourth tick grows one queried block, so a quarter of
//! the ticks re-enroll an entry (walk draws) while the rest reuse every
//! converged outcome at zero draws (window maintenance only).  A run is a
//! sequence of epochs of the same 40 ticks, each from a fresh set-up, so
//! a faster library makes more epochs, never longer ones; a tick's latency
//! is its fastest execution.
//!
//! An entry fails when the tick or the estimate returns an error, when it
//! does not converge, or when its estimate lies outside (0, 1].  At every
//! tenth tick of the first epoch, outside the timers, the windowed state
//! is compared with a from-scratch rebuild of the live window: conflict
//! pairs and witness sets under the live-id remap, and a same-seed
//! fixed-samples probe.  A mismatch fails the tick's entries.  A later
//! epoch must reproduce the first one's outcomes bit for bit, and every
//! pinned fact must still be live when an epoch ends.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use ucqa_core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
use ucqa_core::montecarlo::{
    self, BudgetedStoppingOutcome, StoppingRuleEstimator, StoppingRuleOutcome,
};
use ucqa_core::{
    BudgetStatus, CoreError, EstimateOutcome, RunBudget, TickOutcome, TickReport, WindowSpec,
    WindowedEstimator,
};
use ucqa_db::{ConflictIndex, Database, Fact, FactId, Value};
use ucqa_query::parser::parse_query;
use ucqa_query::{BankLiveSet, LineageBank, QueryEvaluator};
use ucqa_repair::GeneratorSpec;
use ucqa_workload::StreamWorkload;

use crate::replay::{Sampler, TracedExperiment};
use crate::report::{self, Report};
use crate::setup::{Components, SetupTimes};
use crate::stats::{fnv, median, mix, ms, ratio, us_per, FNV_OFFSET};
use crate::trace::{Tracer, BENCH, REQUEST};
use crate::Args;

/// Entries of the pinned query bank.
const BANK_SIZE: usize = 8;

/// Cut-off of the stopping loop, far above any tick's need.
const MAX_SAMPLES: u64 = 2_000_000;

/// Sizes of one run.
struct Config {
    /// Live facts the count window keeps.
    facts: usize,
    inserts_per_tick: usize,
    retracts_per_tick: usize,
    /// Ticks of one epoch, a multiple of four; the counted metrics cover
    /// the first epoch.  The pinned blocks outlive five epochs.
    epoch_ticks: usize,
    setup_runs: usize,
    /// Every this many ticks of the first epoch the state is compared
    /// with a rebuild.
    check_every: usize,
}

/// Draws of the same-seed probe that compares the window with a rebuild.
const PROBE_SAMPLES: u64 = 20;

/// Epochs a run always makes, so at least 120 ticks.  A tick's latency is
/// its fastest execution, which filters out the bursts other processes on
/// the host cause.
const MIN_EPOCHS: usize = 3;

impl Config {
    fn new(smoke: bool) -> Self {
        if smoke {
            Config {
                facts: 300,
                inserts_per_tick: 10,
                retracts_per_tick: 5,
                epoch_ticks: 8,
                setup_runs: 2,
                check_every: 4,
            }
        } else {
            Config {
                facts: 20_000,
                inserts_per_tick: 50,
                retracts_per_tick: 25,
                epoch_ticks: 40,
                setup_runs: 3,
                check_every: 10,
            }
        }
    }
}

/// The generated stream: initial facts, the pinned bank, and the keys it
/// spares from churn.
struct Stream {
    generator: StreamWorkload,
    sigma: ucqa_db::FdSet,
    schema: ucqa_db::Schema,
    /// The initial window, until set-up moves it into the library.
    facts: Vec<Fact>,
    /// Digest of the initial facts and the bank's texts.
    digest: u64,
    texts: Vec<String>,
    queried_keys: BTreeSet<Value>,
    block_keys: Vec<Value>,
    /// The initial facts of the queried blocks.
    pinned: Vec<Fact>,
}

impl Stream {
    /// Generates the initial window and pins the bank to the last
    /// two-fact blocks lying wholly in the newer half of the window.
    fn generate(config: &Config, seed: u64) -> Self {
        let mut generator = StreamWorkload::new(
            (config.facts / 2).max(4),
            config.inserts_per_tick,
            config.retracts_per_tick,
            0.3,
            mix(seed, u64::MAX),
        );
        let (initial, sigma) = generator.initial(config.facts);
        let facts: Vec<Fact> = initial.iter().map(|(_, fact)| fact).collect();
        // A block whose oldest fact sits in the newer half of the window
        // outlives five epochs, so its entries re-enroll only when the run
        // grows the block on purpose.  Pinning two-fact
        // blocks only keeps the first pass the same size for every seed.
        let mut blocks: BTreeMap<&Value, (usize, usize)> = BTreeMap::new();
        for (position, fact) in facts.iter().enumerate() {
            blocks.entry(&fact.values()[0]).or_insert((position, 0)).1 += 1;
        }
        let recent = facts.len() / 2;
        let mut texts = Vec::new();
        let mut queried_keys = BTreeSet::new();
        let mut block_keys = Vec::new();
        for fact in facts.iter().rev() {
            let (key, value) = (&fact.values()[0], &fact.values()[1]);
            let (oldest, size) = blocks[key];
            if oldest < recent || size != 2 || !queried_keys.insert(key.clone()) {
                continue;
            }
            if texts.len() < BANK_SIZE / 2 {
                texts.push(format!("Ans() :- R({key}, x)"));
                block_keys.push(key.clone());
            } else {
                texts.push(format!("Ans() :- R({key}, {value})"));
            }
            if texts.len() == BANK_SIZE {
                break;
            }
        }
        assert_eq!(texts.len(), BANK_SIZE, "enough distinct keys in the window");
        let pinned = facts
            .iter()
            .filter(|fact| queried_keys.contains(&fact.values()[0]))
            .cloned()
            .collect();
        Stream {
            generator,
            sigma,
            schema: initial.schema().clone(),
            digest: fnv(FNV_OFFSET, format!("{facts:?}{texts:?}").as_bytes()),
            facts,
            texts,
            queried_keys,
            block_keys,
            pinned,
        }
    }

    /// `true` iff every initial fact of a queried block is still live.
    fn pinned_live(&self, db: &Database) -> bool {
        self.pinned
            .iter()
            .all(|fact| db.fact_id(fact).is_some_and(|id| db.is_live(id)))
    }

    fn queries(&self) -> Vec<(QueryEvaluator, Vec<Value>)> {
        self.texts
            .iter()
            .map(|text| {
                let query = parse_query(&self.schema, text).expect("pinned query parses");
                (QueryEvaluator::new(query), Vec::new())
            })
            .collect()
    }

    /// The next tick's inputs against the current window.  Churn spares
    /// the queried blocks; every fourth tick grows one of them instead, so
    /// exactly a quarter of the ticks re-enroll an entry.
    fn tick(&mut self, db: &Database, tick: usize) -> (Vec<Fact>, Vec<Fact>) {
        let (mut inserts, mut retracts) = self.generator.tick(db);
        let unqueried = |fact: &Fact| !self.queried_keys.contains(&fact.values()[0]);
        inserts.retain(unqueried);
        retracts.retain(unqueried);
        if tick.is_multiple_of(4) {
            let relation = self.schema.relation_id("R").expect("stream relation");
            let key = self.block_keys[tick / 4 % self.block_keys.len()].clone();
            inserts.push(Fact::new(
                relation,
                vec![key, Value::int(-(1_000 + tick as i64))],
            ));
        }
        (inserts, retracts)
    }
}

fn params() -> ApproximationParams {
    ApproximationParams::new(0.25, 0.2)
        .expect("valid approximation parameters")
        .with_mode(EstimatorMode::OptimalStopping {
            max_samples: MAX_SAMPLES,
        })
}

fn spec() -> GeneratorSpec {
    GeneratorSpec::uniform_operations().with_singleton_only()
}

/// Totals over the first epoch, which repeat exactly for a seed.
#[derive(Default)]
struct Counted {
    replayed: u64,
    tick_draws: u64,
    reused: u64,
    re_estimated: u64,
    changed: u64,
    zero_draw_ticks: u64,
    replans: u64,
    live_witnesses: u64,
    witnesses: Vec<f64>,
}

/// What decides a tick's entries: per entry `(samples, successes,
/// status)`, or the tick's error.
type Outcome = Result<Vec<(u64, u64, BudgetStatus)>, String>;

/// One epoch's state: the stream from its first tick, and the windowed
/// estimator with the RNG after the first converged pass.
struct Epoch {
    stream: Stream,
    windowed: WindowedEstimator,
    rng: StdRng,
}

impl Epoch {
    /// Generates the stream and sets up its windowed estimator: ingest,
    /// relation index, `WindowedEstimator::new` and the first converged
    /// pass, timed into `setup`.
    fn set_up(config: &Config, seed: u64, setup: &mut SetupTimes) -> Self {
        let mut stream = Stream::generate(config, seed);
        let queries = stream.queries();
        let facts = std::mem::take(&mut stream.facts);
        let (db, start) = setup.ingest(&stream.schema, facts);
        let mut windowed = WindowedEstimator::new(
            db,
            stream.sigma.clone(),
            spec(),
            WindowSpec::Count(config.facts),
            queries,
        )
        .expect("primary keys support singleton operations");
        let mut rng = StdRng::seed_from_u64(mix(seed, 1));
        let first = windowed.estimate(params(), &RunBudget::unlimited(), &mut rng);
        setup.finish(start);
        let converged = first.as_ref().is_ok_and(|pass| pass.outcome.converged());
        assert!(converged, "the first windowed pass converges: {first:?}");
        Epoch {
            stream,
            windowed,
            rng,
        }
    }
}

/// Runs `window_stream` and reports it.
pub fn run(args: &Args, mut tracer: Option<&mut Tracer>) -> Report {
    let config = Config::new(args.smoke);
    let params = params();
    let budget = RunBudget::unlimited();

    // Set-up, repeated; the last one is kept as the first epoch.  The
    // previous estimator is dropped before the next is built, so only one
    // is ever resident.
    let mut setup = SetupTimes::default();
    let mut state = None;
    for _ in 0..config.setup_runs {
        drop(state.take());
        state = Some(Epoch::set_up(&config, args.seed, &mut setup));
    }
    let epoch = state.as_ref().expect("at least one set-up");
    let mut report = Report {
        inputs_digest: epoch.stream.digest,
        ..Report::default()
    };

    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    if let Some(tracer) = tracer.as_deref_mut() {
        let windowed = &epoch.windowed;
        let (_, components) =
            Components::traced(windowed.db(), windowed.sigma(), tracer, &mut layer);
        layer.insert(
            "db.relevant_components",
            components.relevant(windowed.bank()) as f64,
        );
    }

    // The closed loop, one tick and one estimate per request, in epochs
    // of the same ticks from a fresh set-up: at least `MIN_EPOCHS`, then
    // on until `--seconds` have passed.  A tick's latency is its fastest
    // execution.
    let ticks = config.epoch_ticks;
    let mut fastest = vec![Duration::MAX; ticks];
    let mut first: Vec<Outcome> = Vec::with_capacity(ticks);
    let mut failed_in = vec![0u64; ticks];
    let mut counted = Counted::default();
    let mut build_ms = Vec::new();
    let mut executions = 0usize;
    let mut epochs = 0usize;
    let start = Instant::now();
    loop {
        let Epoch {
            stream,
            windowed,
            rng,
        } = state.as_mut().expect("an epoch is set up");
        let queries = stream.queries();
        let mut cut = false;
        for tick in 1..=ticks {
            if epochs >= MIN_EPOCHS && start.elapsed() >= args.seconds {
                cut = true;
                break;
            }
            let (i, is_first) = (tick - 1, epochs == 0);
            let (inserts, retracts) = stream.tick(windowed.db(), tick);
            // What the traced replay of this tick's estimate starts from.
            let before = tracer
                .is_some()
                .then(|| (windowed.last_converged().cloned(), rng.clone()));

            let begin = Instant::now();
            let ticked = windowed.tick(inserts, &retracts);
            let tick_time = begin.elapsed();
            let result: Result<(TickReport, TickOutcome), CoreError> =
                ticked.and_then(|tick_report| {
                    windowed
                        .estimate(params, &budget, rng)
                        .map(|pass| (tick_report, pass))
                });
            let latency = begin.elapsed();
            fastest[i] = fastest[i].min(latency);
            executions += 1;
            report.attempted += BANK_SIZE as u64;

            let outcome: Outcome = match &result {
                Ok((_, pass)) => Ok(pass
                    .outcome
                    .queries
                    .iter()
                    .map(|q| (q.samples, q.successes, q.status))
                    .collect()),
                Err(error) => Err(error.to_string()),
            };
            if is_first {
                failed_in[i] = match &result {
                    Ok((tick_report, pass)) => {
                        counted.add(tick_report, pass, windowed);
                        // A tick that changed no fingerprint is answered
                        // from reuse alone.
                        let unchanged = tick_report.changed.iter().all(|&c| !c);
                        report.mismatches += u64::from(unchanged && pass.tick_draws != 0);
                        pass.outcome
                            .queries
                            .iter()
                            .filter(|q| {
                                !(q.status.is_converged() && q.estimate > 0.0 && q.estimate <= 1.0)
                            })
                            .count() as u64
                    }
                    Err(error) => {
                        report.notes.push(format!("tick {tick}: {error}"));
                        BANK_SIZE as u64
                    }
                };
                if tick.is_multiple_of(config.check_every) && !matches_rebuild(windowed, &queries) {
                    report.mismatches += 1;
                    failed_in[i] = BANK_SIZE as u64;
                    report.notes.push(format!(
                        "tick {tick}: windowed state diverged from its rebuild"
                    ));
                }
                first.push(outcome);
            } else if outcome != first[i] {
                // Every epoch replays the same ticks from the same seed.
                report.mismatches += 1;
                failed_in[i] = BANK_SIZE as u64;
            }
            report.failed += failed_in[i];

            if let (Some(tracer), Some((prior, rng_before)), Ok((tick_report, pass))) =
                (tracer.as_deref_mut(), before, &result)
            {
                let request = executions as u32;
                let root = tracer.open(request, BENCH, REQUEST, None);
                tracer.record(request, "stream", "tick", Some(root), tick_time, 1);
                let estimate_time = latency - tick_time;
                tracer.record(request, "stream", "estimate", Some(root), estimate_time, 1);
                tracer.close(root, latency);
                let replay = replay(
                    windowed,
                    &queries,
                    tick_report,
                    prior.as_ref(),
                    rng_before,
                    params,
                    request,
                    tracer,
                );
                build_ms.push(ms(replay.build));
                let identical = replay
                    .outcomes
                    .iter()
                    .zip(&replay.statuses)
                    .zip(&pass.outcome.queries)
                    .all(|((outcome, status), query)| {
                        (outcome.samples, outcome.successes, *status)
                            == (query.samples, query.successes, query.status)
                    });
                report.mismatches += u64::from(!identical);
                if is_first {
                    counted.live_witnesses += replay.live_witnesses;
                }
            }
        }
        // The pinned blocks must outlive the epoch, or their entries would
        // change for a reason other than the planned growth.
        if !stream.pinned_live(windowed.db()) {
            report.mismatches += 1;
            report
                .notes
                .push(format!("epoch {epochs}: a pinned fact left the window"));
        }
        epochs += 1;
        if cut || (epochs >= MIN_EPOCHS && start.elapsed() >= args.seconds) {
            break;
        }
        // The finished epoch is dropped before the next is set up.
        drop(state.take());
        state = Some(Epoch::set_up(&config, args.seed, &mut setup));
    }

    let fastest_ms: Vec<f64> = fastest.iter().copied().map(ms).collect();
    let answers = (ticks * BANK_SIZE) as u64 - failed_in.iter().sum::<u64>();
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
        "{ticks} distinct ticks, {executions} executions ({:.1} epochs), re-enrolling \
         ticks {} of {ticks}; latencies are each tick's fastest execution",
        executions as f64 / ticks as f64,
        ticks as u64 - counted.zero_draw_ticks,
    ));

    if let Some(tracer) = tracer {
        setup.insert_layers(&mut layer);
        let ticks = ticks as f64;
        let per_request =
            |name| -> Vec<f64> { tracer.per_request(name).into_iter().map(ms).collect() };
        layer.insert("stream.tick_ms", median(&per_request("tick")));
        layer.insert("stream.estimate_ms", median(&per_request("estimate")));
        layer.insert("stream.replayed", counted.replayed as f64);
        layer.insert("stream.tick_draws", counted.tick_draws as f64);
        layer.insert(
            "stream.reused_ratio",
            ratio(counted.reused as f64, ticks * BANK_SIZE as f64),
        );
        layer.insert(
            "stream.zero_draw_tick_ratio",
            ratio(counted.zero_draw_ticks as f64, ticks),
        );
        layer.insert("stream.changed_entries", counted.changed as f64);
        layer.insert("stream.replans", counted.replans as f64);
        layer.insert("query.witnesses", median(&counted.witnesses));
        layer.insert(
            "query.live_witnesses_per_draw",
            ratio(counted.live_witnesses as f64, counted.tick_draws as f64),
        );
        layer.insert("core.stop.draws", counted.tick_draws as f64);
        layer.insert(
            "core.stop.draws_per_answer",
            ratio(counted.tick_draws as f64, counted.re_estimated as f64),
        );
        layer.insert("core.draw.build_ms", median(&build_ms));
        let (draw, draws) = tracer.total("sample");
        let (check, _) = tracer.total("check");
        let (looping, _) = tracer.total("loop");
        let (traced, _) = tracer.total(REQUEST);
        layer.insert("core.draw.us_per_draw", us_per(draw, draws));
        layer.insert("query.check_us_per_draw", us_per(check, draws));
        layer.insert(
            "core.stop.overhead_us_per_draw",
            us_per(looping.saturating_sub(draw + check), draws),
        );
        // The draws run inside `estimate`; the replay reproduces them
        // outside the request, and their share is taken of the request time.
        layer.insert(
            "core.draw.share",
            ratio(draw.as_secs_f64(), traced.as_secs_f64()),
        );
        // `trace.overhead_ratio` and `trace.self_coverage` stay 0 here: the
        // request spans time the untraced calls themselves, so both would
        // read 1 by construction.
        report.per_layer = report::per_layer(&layer);
    }
    report
}

impl Counted {
    /// Adds one first-epoch tick.
    fn add(&mut self, tick_report: &TickReport, pass: &TickOutcome, windowed: &WindowedEstimator) {
        self.replayed += tick_report.replayed as u64;
        self.tick_draws += pass.tick_draws;
        let reused = pass.reused.iter().filter(|&&r| r).count() as u64;
        self.reused += reused;
        self.re_estimated += BANK_SIZE as u64 - reused;
        self.changed += tick_report.changed.iter().filter(|&&c| c).count() as u64;
        self.zero_draw_ticks += u64::from(pass.tick_draws == 0);
        self.replans = windowed.replans();
        self.witnesses.push(windowed.bank().witness_count() as f64);
    }
}

/// What the traced replay of one tick's estimate produced.
struct Replay {
    outcomes: Vec<StoppingRuleOutcome>,
    statuses: Vec<BudgetStatus>,
    build: Duration,
    live_witnesses: u64,
}

/// Replays one tick's estimate from the RNG state before it: converged
/// entries not enrolled by the tick keep the prior outcome, enrolled ones
/// restart from zero, and the public budgeted stopping loop resumes them
/// with the traced experiment.  Its spans sit under a `replay` root of
/// their own, outside the request.
#[allow(clippy::too_many_arguments)]
fn replay(
    windowed: &WindowedEstimator,
    queries: &[(QueryEvaluator, Vec<Value>)],
    tick_report: &TickReport,
    prior: Option<&EstimateOutcome>,
    mut rng: StdRng,
    params: ApproximationParams,
    request: u32,
    tracer: &mut Tracer,
) -> Replay {
    let start = Instant::now();
    let root = tracer.open(request, BENCH, "replay", None);
    let bank = windowed.bank();
    let mut outcomes = Vec::with_capacity(bank.len());
    let mut statuses = Vec::with_capacity(bank.len());
    let mut live = BankLiveSet::empty(bank);
    for (q, &enrolled) in tick_report.enrolled.iter().enumerate() {
        match prior {
            Some(prior) if !enrolled => {
                let kept = prior.queries[q];
                outcomes.push(StoppingRuleOutcome {
                    estimate: kept.estimate,
                    samples: kept.samples,
                    successes: kept.successes,
                    truncated: !kept.status.is_converged(),
                });
                statuses.push(kept.status);
            }
            _ => {
                outcomes.push(StoppingRuleOutcome {
                    estimate: 0.0,
                    samples: 0,
                    successes: 0,
                    truncated: true,
                });
                statuses.push(BudgetStatus::BudgetExhausted);
                live.enroll(bank, q);
            }
        }
    }
    let resume = BudgetedStoppingOutcome {
        outcomes,
        statuses,
        total_samples: 0,
    };

    let building = Instant::now();
    let index = windowed.conflict_index().clone();
    let sampler = Sampler::new(windowed.db(), windowed.sigma(), windowed.spec(), index)
        .expect("supported generator");
    let build = building.elapsed();
    tracer.record(request, "core.draw", "build", Some(root), build, 1);

    let target = StoppingRuleEstimator::new(params.epsilon, params.delta / bank.len() as f64)
        .success_target();
    let targets = vec![target; bank.len()];
    let mut experiment = TracedExperiment::new(&sampler, windowed.db(), bank, queries, live);
    let looping = Instant::now();
    let outcome = montecarlo::estimate_stopping_batch_budgeted(
        &mut rng,
        &targets,
        MAX_SAMPLES,
        &RunBudget::unlimited(),
        &mut experiment,
        Some(&resume),
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
    tracer.close(root, start.elapsed());
    Replay {
        outcomes: outcome.outcomes,
        statuses: outcome.statuses,
        build,
        live_witnesses: experiment.live_witnesses,
    }
}

/// Compares the windowed state with a from-scratch rebuild of the live
/// window: conflict pairs and bank witness sets under the live-id remap,
/// and a same-seed fixed-samples estimate over both states.
fn matches_rebuild(windowed: &WindowedEstimator, queries: &[(QueryEvaluator, Vec<Value>)]) -> bool {
    let db = windowed.db();
    let (map, facts): (Vec<FactId>, Vec<Fact>) = db.iter().unzip();
    let mut scratch = Database::with_schema(db.schema().clone());
    scratch.extend(facts).expect("schema matches");
    let remap = |id: FactId| FactId::new(map.binary_search(&id).expect("live id"));
    let sigma = windowed.sigma();
    let conflict = ConflictIndex::build(&scratch, sigma);
    let ordered = |(a, b): (FactId, FactId)| (a.min(b), a.max(b));
    let windowed_pairs: BTreeSet<(FactId, FactId)> = windowed
        .conflict_index()
        .pairs()
        .iter()
        .map(|&(a, b)| ordered((remap(a), remap(b))))
        .collect();
    let scratch_pairs: BTreeSet<(FactId, FactId)> =
        conflict.pairs().iter().map(|&pair| ordered(pair)).collect();
    if windowed_pairs != scratch_pairs {
        return false;
    }

    let refs: Vec<(&QueryEvaluator, &[Value])> =
        queries.iter().map(|(e, c)| (e, c.as_slice())).collect();
    let Ok(bank) = LineageBank::compile(&scratch, &refs) else {
        return false;
    };
    let canonical = |bank: &LineageBank, entry: usize, remapped: bool| {
        bank.witnesses_of(entry).map(|witnesses| {
            witnesses
                .iter()
                .map(|witness| {
                    let mut ids: Vec<FactId> = witness
                        .iter()
                        .map(|id| if remapped { remap(id) } else { id })
                        .collect();
                    ids.sort_unstable();
                    ids
                })
                .collect::<BTreeSet<_>>()
        })
    };
    if windowed.bank().len() != bank.len()
        || (0..bank.len())
            .any(|e| canonical(windowed.bank(), e, true) != canonical(&bank, e, false))
    {
        return false;
    }

    let batch: Vec<BatchQuery<'_>> = queries
        .iter()
        .map(|(e, c)| BatchQuery::new(e, c.as_slice()))
        .collect();
    let probe = ApproximationParams::new(0.2, 0.2)
        .expect("valid approximation parameters")
        .with_mode(EstimatorMode::FixedSamples(PROBE_SAMPLES));
    let estimate = |db: &Database, index: ConflictIndex, bank: &LineageBank| {
        BatchEstimator::with_conflict_index(db, sigma, windowed.spec(), index)
            .and_then(|estimator| {
                estimator.estimate_batch_with_bank(
                    bank,
                    &batch,
                    probe,
                    &mut StdRng::seed_from_u64(17),
                )
            })
            .ok()
    };
    let windowed_probe = estimate(db, windowed.conflict_index().clone(), windowed.bank());
    windowed_probe.is_some() && windowed_probe == estimate(&scratch, conflict, &bank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_facts_outlive_five_epochs() {
        let config = Config::new(false);
        let mut stream = Stream::generate(&config, 5);
        let mut db = Database::with_schema(stream.schema.clone());
        db.extend(std::mem::take(&mut stream.facts))
            .expect("generated facts match their schema");
        let mut windowed = WindowedEstimator::new(
            db,
            stream.sigma.clone(),
            spec(),
            WindowSpec::Count(config.facts),
            stream.queries(),
        )
        .expect("primary keys support singleton operations");
        let ticks = 5 * config.epoch_ticks;
        for tick in 1..=ticks {
            let (inserts, retracts) = stream.tick(windowed.db(), tick);
            windowed.tick(inserts, &retracts).expect("tick applies");
            assert!(stream.pinned_live(windowed.db()), "tick {tick}");
        }
        // The window did slide: more facts left it than retractions remove.
        let removed = windowed.db().len() - windowed.db().live_count();
        assert!(removed > ticks * config.retracts_per_tick);
    }
}
