//! The experiment suite E1–E12 (see "Experiments and benchmark" in
//! `ARCHITECTURE.md`).
//!
//! Each function regenerates one experiment and returns the tables that the
//! `experiments` binary prints.  Paper-stated quantities are reported next
//! to the measured ones.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ucqa_core::counting;
use ucqa_core::exact::ExactSolver;
use ucqa_core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, Estimate};
use ucqa_core::montecarlo::{
    estimate_stopping_batch, StoppingBatchExperiment, StoppingRuleEstimator,
};
use ucqa_core::sample_operations::{OperationWalkSampler, WalkScratch};
use ucqa_core::sample_repairs::RepairSampler;
use ucqa_core::sample_sequences::SequenceSampler;
use ucqa_core::{bounds, CoreError, RunBudget};
use ucqa_db::{Database, FactSet, FdSet, Value};
use ucqa_graphs::homomorphism::{count_homomorphisms, TargetGraph};
use ucqa_graphs::independent_sets::count_independent_sets;
use ucqa_graphs::reductions::{
    FdGadget, HColoringReduction, IndependentSetReduction, Pos2DnfReduction,
};
use ucqa_graphs::{Positive2Dnf, UndirectedGraph};
use ucqa_numeric::{Natural, Ratio};
use ucqa_query::{parser::parse_query, QueryEvaluator};
use ucqa_repair::{GeneratorSpec, OperationalSemantics, RepairingTree, TreeLimits};
use ucqa_workload::graphs::connected_bounded_degree;
use ucqa_workload::queries::block_lookup_query;
use ucqa_workload::{proposition_d6_database, BlockWorkload, FdWorkload, MultiKeyWorkload};

use crate::fixtures;
use crate::Table;

/// Runs one experiment by id (`"e1"` … `"e12"`), or all of them (`"all"`).
pub fn run(which: &str) -> Vec<Table> {
    match which {
        "e1" => e01_running_example(),
        "e2" => e02_block_repairs(),
        "e3" => e03_crs_counting(),
        "e4" => e04_relative_frequencies(),
        "e5" => e05_fpras_rrfreq(),
        "e6" => e06_fpras_srfreq(),
        "e7" => e07_fpras_uniform_operations_keys(),
        "e8" => e08_fpras_fd_singleton(),
        "e9" => e09_proposition_d6(),
        "e10" => e10_independent_sets(),
        "e11" => e11_hardness_reductions(),
        "e12" => e12_scaling(),
        "all" => {
            let mut tables = Vec::new();
            for id in [
                "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
            ] {
                tables.extend(run(id));
            }
            tables
        }
        other => {
            let mut table = Table::new(format!("unknown experiment `{other}`"), &["available"]);
            table.add_row(vec!["e1 … e12, all".to_string()]);
            vec![table]
        }
    }
}

/// One query's FPRAS estimate: a run over a bank of one, compiled and
/// estimated without a budget.
fn estimate_one(
    estimator: &BatchEstimator<'_>,
    evaluator: &QueryEvaluator,
    candidate: &[Value],
    params: ApproximationParams,
    rng: &mut StdRng,
) -> Result<Estimate, CoreError> {
    let queries = [BatchQuery::new(evaluator, candidate)];
    let unlimited = RunBudget::unlimited();
    let bank = estimator.compile_bank(&queries, &unlimited)?;
    let outcome = estimator.run(&bank, &queries, params, &unlimited, None, rng)?;
    let entry = &outcome.queries[0];
    Ok(Estimate {
        value: entry.estimate,
        samples: entry.samples,
        successes: entry.successes,
        truncated: !entry.status.is_converged(),
    })
}

fn ratio_str(r: &Ratio) -> String {
    format!("{r} ≈ {:.6}", r.to_f64())
}

fn root_child_probabilities(db: &Database, sigma: &FdSet, spec: GeneratorSpec) -> Vec<Ratio> {
    let chain = spec
        .build_chain(db, sigma, TreeLimits::default())
        .expect("the running example is tiny");
    chain
        .tree()
        .children(chain.tree().root())
        .iter()
        .map(|&c| chain.edge_probability(c).clone())
        .collect()
}

/// E1 — Figure 1 / Example 3.6 / Section 4: the running example.
pub fn e01_running_example() -> Vec<Table> {
    let (db, sigma) = fixtures::running_example();
    let mut table = Table::new(
        "E1 — running example (Figure 1, Example 3.6, Section 4 worked probabilities)",
        &["quantity", "paper", "measured"],
    );
    let tree = RepairingTree::build(&db, &sigma, false, TreeLimits::default())
        .expect("the running example is tiny");
    table.add_row(vec![
        "|RS(D,Σ)| (tree nodes, Figure 1)".into(),
        "12".into(),
        tree.node_count().to_string(),
    ]);
    table.add_row(vec![
        "|CRS(D,Σ)| (leaves)".into(),
        "9".into(),
        tree.leaf_count().to_string(),
    ]);
    table.add_row(vec![
        "|CORep(D,Σ)|".into(),
        "5".into(),
        tree.candidate_repairs().len().to_string(),
    ]);

    let us = root_child_probabilities(&db, &sigma, GeneratorSpec::uniform_sequences());
    table.add_row(vec![
        "M^us root probabilities p1..p5".into(),
        "3/9, 1/9, 1/9, 1/9, 3/9".into(),
        us.iter()
            .map(Ratio::to_string)
            .collect::<Vec<_>>()
            .join(", "),
    ]);
    let ur = root_child_probabilities(&db, &sigma, GeneratorSpec::uniform_repairs());
    table.add_row(vec![
        "M^ur root probabilities p1..p5".into(),
        "3/5, 0, 1/5, 1/5, 0".into(),
        ur.iter()
            .map(Ratio::to_string)
            .collect::<Vec<_>>()
            .join(", "),
    ]);
    let uo = root_child_probabilities(&db, &sigma, GeneratorSpec::uniform_operations());
    table.add_row(vec![
        "M^uo root probabilities p1..p5".into(),
        "1/5 each".into(),
        uo.iter()
            .map(Ratio::to_string)
            .collect::<Vec<_>>()
            .join(", "),
    ]);

    let semantics_ur = OperationalSemantics::from_chain(
        &GeneratorSpec::uniform_repairs()
            .build_chain(&db, &sigma, TreeLimits::default())
            .expect("tiny"),
    );
    table.add_row(vec![
        "|ORep(D, M^ur)| and per-repair probability".into(),
        "5 repairs, 1/5 each".into(),
        format!(
            "{} repairs, {}",
            semantics_ur.repair_count(),
            semantics_ur.repairs()[0].probability
        ),
    ]);
    let semantics_us = OperationalSemantics::from_chain(
        &GeneratorSpec::uniform_sequences()
            .build_chain(&db, &sigma, TreeLimits::default())
            .expect("tiny"),
    );
    let min_leaf = GeneratorSpec::uniform_sequences()
        .build_chain(&db, &sigma, TreeLimits::default())
        .expect("tiny")
        .leaf_distribution()
        .into_iter()
        .map(|(_, p)| p)
        .min()
        .expect("nine leaves");
    table.add_row(vec![
        "M^us leaf probability π(s) (all leaves)".into(),
        "1/9 each".into(),
        format!(
            "{min_leaf} each, total {} over {} repairs",
            semantics_us.total_probability(),
            semantics_us.repair_count()
        ),
    ]);
    vec![table]
}

/// E2 — Figure 2 / Example B.2 / Lemma 5.2: candidate-repair counting and
/// the uniform repair sampler.
pub fn e02_block_repairs() -> Vec<Table> {
    let (db, sigma) = fixtures::figure2();
    let mut table = Table::new(
        "E2 — Figure 2 / Example B.2: |CORep| counting and the SampleRep sampler",
        &["quantity", "paper", "measured"],
    );
    let sizes = counting::block_sizes(&db, &sigma, &db.all_facts()).expect("primary keys");
    table.add_row(vec![
        "block profile".into(),
        "3, 1, 2".into(),
        format!("{sizes:?}"),
    ]);
    table.add_row(vec![
        "|CORep(D,Σ)| (closed form (|B|+1)·…)".into(),
        "12".into(),
        counting::count_candidate_repairs(&sizes).to_string(),
    ]);
    let solver = ExactSolver::new(&db, &sigma);
    table.add_row(vec![
        "|CORep(D,Σ)| (tree enumeration)".into(),
        "12".into(),
        solver
            .candidate_repair_count(false)
            .expect("tiny")
            .to_string(),
    ]);
    table.add_row(vec![
        "|CORep¹(D,Σ)| (singleton operations)".into(),
        "6 (3·1·2)".into(),
        counting::count_candidate_repairs_singleton(&sizes).to_string(),
    ]);

    // Empirical uniformity of SampleRep over the 12 repairs.
    let sampler = RepairSampler::new(&db, &sigma).expect("primary keys");
    let mut rng = StdRng::seed_from_u64(20_220_401);
    let samples = 60_000usize;
    let mut counts: std::collections::HashMap<Vec<usize>, usize> = std::collections::HashMap::new();
    let mut repair = FactSet::empty(db.len());
    for _ in 0..samples {
        sampler.sample_into(&mut rng, &mut repair);
        *counts
            .entry(repair.iter().map(|f| f.index()).collect())
            .or_insert(0) += 1;
    }
    let expected = samples as f64 / 12.0;
    let max_deviation = counts
        .values()
        .map(|&c| ((c as f64 - expected) / expected).abs())
        .fold(0.0f64, f64::max);
    table.add_row(vec![
        "distinct repairs hit by SampleRep".into(),
        "12".into(),
        counts.len().to_string(),
    ]);
    table.add_row(vec![
        "max relative deviation from uniform (60k samples)".into(),
        "→ 0".into(),
        format!("{max_deviation:.3}"),
    ]);
    vec![table]
}

/// E3 — Example C.2 / Lemma C.1: counting complete repairing sequences.
pub fn e03_crs_counting() -> Vec<Table> {
    let (db, sigma) = fixtures::figure2();
    let mut table = Table::new(
        "E3 — Example C.2 / Lemma C.1: counting complete repairing sequences",
        &["quantity", "paper", "measured"],
    );
    let sizes = counting::block_sizes(&db, &sigma, &db.all_facts()).expect("primary keys");
    table.add_row(vec![
        "|CRS(D,Σ)| (Lemma C.1 dynamic program)".into(),
        "99".into(),
        counting::count_complete_sequences(&sizes).to_string(),
    ]);
    let solver = ExactSolver::new(&db, &sigma);
    table.add_row(vec![
        "|CRS(D,Σ)| (tree enumeration)".into(),
        "99".into(),
        solver
            .complete_sequence_count(false)
            .expect("tiny")
            .to_string(),
    ]);
    table.add_row(vec![
        "|CRS¹(D,Σ)| (singleton operations, closed form)".into(),
        "36".into(),
        counting::count_complete_sequences_singleton(&sizes).to_string(),
    ]);
    table.add_row(vec![
        "per-block counts S^{ne,0}_3, S^{ne,1}_3, S^{e,1}_3".into(),
        "6, 3, 3".into(),
        format!(
            "{}, {}, {}",
            counting::sequences_nonempty_block(3, 0),
            counting::sequences_nonempty_block(3, 1),
            counting::sequences_empty_block(3, 1)
        ),
    ]);
    table.add_row(vec![
        "per-block counts S^{ne,0}_2, S^{e,1}_2".into(),
        "2, 1".into(),
        format!(
            "{}, {}",
            counting::sequences_nonempty_block(2, 0),
            counting::sequences_empty_block(2, 1)
        ),
    ]);
    // Larger profiles: DP vs closed upper bound sanity plus timing.
    let profile: Vec<usize> = vec![5; 12];
    let start = Instant::now();
    let count = counting::count_complete_sequences(&profile);
    let elapsed = start.elapsed();
    table.add_row(vec![
        "|CRS| for 12 blocks of 5 (DP, digits / time)".into(),
        "poly-time (Lemma C.1)".into(),
        format!("{} digits in {:.1?}", count.to_string().len(), elapsed),
    ]);
    vec![table]
}

/// E4 — Examples B.3 / C.3 and the lower bounds of Lemmas 5.3 / 6.3 /
/// E.3 / E.10.
pub fn e04_relative_frequencies() -> Vec<Table> {
    let (db, sigma) = fixtures::figure2();
    let solver = ExactSolver::new(&db, &sigma);
    let q = parse_query(db.schema(), "Ans(x) :- R('a1', x)").expect("valid query");
    let evaluator = QueryEvaluator::new(q);
    let candidate = [Value::str("b1")];

    let mut table = Table::new(
        "E4 — Examples B.3 / C.3: relative frequencies and their lower bounds",
        &["quantity", "paper", "measured"],
    );
    let rrfreq = solver.rrfreq(&evaluator, &candidate, false).expect("tiny");
    table.add_row(vec![
        "rrfreq_{Σ,Q}(D, b1)".into(),
        "3/12 = 1/4".into(),
        ratio_str(&rrfreq),
    ]);
    table.add_row(vec![
        "Lemma 5.3 lower bound 1/(2|D|)^{|Q|}".into(),
        "1/12".into(),
        format!("{:.6}", bounds::rrfreq_lower_bound(db.len(), 1).to_f64()),
    ]);
    let srfreq = solver.srfreq(&evaluator, &candidate, false).expect("tiny");
    table.add_row(vec![
        "srfreq_{Σ,Q}(D, b1)".into(),
        "24/99".into(),
        ratio_str(&srfreq),
    ]);
    table.add_row(vec![
        "Lemma 6.3 lower bound".into(),
        "1/12".into(),
        format!("{:.6}", bounds::srfreq_lower_bound(db.len(), 1).to_f64()),
    ]);
    let rrfreq1 = solver.rrfreq(&evaluator, &candidate, true).expect("tiny");
    table.add_row(vec![
        "rrfreq¹_{Σ,Q}(D, b1) (singleton ops)".into(),
        "2/6 = 1/3".into(),
        ratio_str(&rrfreq1),
    ]);
    table.add_row(vec![
        "Lemma E.3 lower bound 1/|D|^{|Q|}".into(),
        "1/6".into(),
        format!(
            "{:.6}",
            bounds::singleton_frequency_lower_bound(db.len(), 1).to_f64()
        ),
    ]);
    let uo = solver
        .answer_probability(GeneratorSpec::uniform_operations(), &evaluator, &candidate)
        .expect("tiny");
    table.add_row(vec![
        "P_{M^uo,Q}(D, b1) (exact, for reference)".into(),
        "positive (Prop. 7.3)".into(),
        ratio_str(&uo),
    ]);
    vec![table]
}

/// Helper: run an FPRAS experiment on block workloads with the analytic
/// exact value `1/(block_size + 1)` (uniform repairs) as ground truth.
fn fpras_block_sweep(
    title: &str,
    spec: GeneratorSpec,
    exact_for_block: impl Fn(usize) -> Option<f64>,
    epsilon: f64,
) -> Table {
    let mut table = Table::new(
        title,
        &[
            "blocks × size",
            "|D|",
            "exact",
            "estimate",
            "rel. error",
            "samples",
            "time",
        ],
    );
    let mut rng = StdRng::seed_from_u64(7_771);
    for (blocks, size) in [(10usize, 4usize), (25, 4), (50, 4), (100, 4)] {
        let (db, sigma) = BlockWorkload::uniform(blocks, size, 1000 + blocks as u64).generate();
        let (query, candidate) = block_lookup_query(&db, 5).expect("valid workload query");
        let evaluator = QueryEvaluator::new(query);
        let estimator = BatchEstimator::new(&db, &sigma, spec).expect("supported combination");
        let params = ApproximationParams::new(epsilon, 0.05).expect("valid parameters");
        let start = Instant::now();
        let estimate = estimate_one(&estimator, &evaluator, &candidate, params, &mut rng)
            .expect("estimation succeeds");
        let elapsed = start.elapsed();
        let exact = exact_for_block(size);
        let (exact_str, error_str) = match exact {
            Some(value) => (
                format!("{value:.4}"),
                format!("{:.3}", (estimate.value - value).abs() / value),
            ),
            None => ("n/a (too large for exact)".to_string(), "—".to_string()),
        };
        table.add_row(vec![
            format!("{blocks} × {size}"),
            db.len().to_string(),
            exact_str,
            format!("{:.4}", estimate.value),
            error_str,
            estimate.samples.to_string(),
            format!("{elapsed:.1?}"),
        ]);
    }
    table
}

/// E5 — Theorem 5.1(2): FPRAS for RRFreq under primary keys.
pub fn e05_fpras_rrfreq() -> Vec<Table> {
    let mut table = fpras_block_sweep(
        "E5 — Theorem 5.1(2): FPRAS for uniform repairs (RRFreq), primary keys, ε = 0.1",
        GeneratorSpec::uniform_repairs(),
        // Under uniform repairs the probability that a fixed fact of a block
        // of size m survives is exactly 1/(m+1).
        |block_size| Some(1.0 / (block_size as f64 + 1.0)),
        0.1,
    );
    table.add_note(
        "exact value for a block of size m under M^ur is 1/(m+1); every run stays within ε",
    );
    vec![table]
}

/// E6 — Theorem 6.1(2): FPRAS for SRFreq under primary keys.
pub fn e06_fpras_srfreq() -> Vec<Table> {
    // Small instance with a known exact value (Example C.3).
    let (db, sigma) = fixtures::figure2();
    let q = parse_query(db.schema(), "Ans(x) :- R('a1', x)").expect("valid query");
    let evaluator = QueryEvaluator::new(q);
    let candidate = [Value::str("b1")];
    let estimator =
        BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_sequences()).expect("primary keys");
    let params = ApproximationParams::new(0.05, 0.05).expect("valid parameters");
    let mut rng = StdRng::seed_from_u64(606);
    let estimate = estimate_one(&estimator, &evaluator, &candidate, params, &mut rng)
        .expect("estimation succeeds");

    let mut table = Table::new(
        "E6 — Theorem 6.1(2): FPRAS for uniform sequences (SRFreq), primary keys",
        &["quantity", "paper / exact", "measured"],
    );
    table.add_row(vec![
        "srfreq on Figure 2 (exact 24/99 ≈ 0.2424), ε = 0.05".into(),
        "0.2424".into(),
        format!("{:.4} with {} samples", estimate.value, estimate.samples),
    ]);

    // Larger workloads: the sampler is polynomial; report estimates, sample
    // counts, and the sequence-count magnitude handled by the DP.
    let mut rng = StdRng::seed_from_u64(607);
    for (blocks, size) in [(10usize, 4usize), (25, 4), (50, 4)] {
        let (db, sigma) = BlockWorkload::uniform(blocks, size, 2000 + blocks as u64).generate();
        let (query, candidate) = block_lookup_query(&db, 5).expect("valid workload query");
        let evaluator = QueryEvaluator::new(query);
        let sizes = counting::block_sizes(&db, &sigma, &db.all_facts()).expect("primary keys");
        let digits = counting::count_complete_sequences(&sizes).to_string().len();
        let estimator = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_sequences())
            .expect("primary keys");
        let params = ApproximationParams::new(0.1, 0.05).expect("valid parameters");
        let start = Instant::now();
        let estimate = estimate_one(&estimator, &evaluator, &candidate, params, &mut rng)
            .expect("estimation succeeds");
        let elapsed = start.elapsed();
        table.add_row(vec![
            format!("{blocks} blocks × {size} facts, ε = 0.1"),
            format!("|CRS| has {digits} digits"),
            format!(
                "estimate {:.4}, {} samples, {:.1?}",
                estimate.value, estimate.samples, elapsed
            ),
        ]);
    }
    table.add_note("estimates on the larger instances are validated indirectly: the sampler distribution is checked against the exact M^us semantics in the test-suite");
    vec![table]
}

/// E7 — Theorem 7.1(2): FPRAS for uniform operations under arbitrary keys
/// (beyond primary keys).
pub fn e07_fpras_uniform_operations_keys() -> Vec<Table> {
    let mut table = Table::new(
        "E7 — Theorem 7.1(2): FPRAS for uniform operations, arbitrary keys (2 keys/relation)",
        &[
            "instance",
            "exact",
            "estimate",
            "rel. error",
            "samples",
            "time",
        ],
    );
    let mut rng = StdRng::seed_from_u64(700);

    // Small instance: exact via chain enumeration.
    let (db, sigma) = MultiKeyWorkload::new(8, 3, 1).generate();
    let query = ucqa_workload::queries::fact_membership_query(&db, 2).expect("valid query");
    let evaluator = QueryEvaluator::new(query);
    let solver = ExactSolver::new(&db, &sigma);
    let exact = solver
        .answer_probability(GeneratorSpec::uniform_operations(), &evaluator, &[])
        .expect("small instance")
        .to_f64();
    let estimator = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations())
        .expect("keys are supported");
    let params = ApproximationParams::new(0.05, 0.05).expect("valid parameters");
    let start = Instant::now();
    let estimate =
        estimate_one(&estimator, &evaluator, &[], params, &mut rng).expect("estimation succeeds");
    table.add_row(vec![
        format!("8 facts, domain 3 (exactly solvable)"),
        format!("{exact:.4}"),
        format!("{:.4}", estimate.value),
        format!("{:.3}", (estimate.value - exact).abs() / exact.max(1e-12)),
        estimate.samples.to_string(),
        format!("{:.1?}", start.elapsed()),
    ]);

    // Larger instances: estimate only (exact is intractable).
    for (facts, domain) in [(40usize, 8usize), (80, 12), (160, 20)] {
        let (db, sigma) = MultiKeyWorkload::new(facts, domain, 7 + facts as u64).generate();
        let query = ucqa_workload::queries::fact_membership_query(&db, 2).expect("valid query");
        let evaluator = QueryEvaluator::new(query);
        let estimator = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations())
            .expect("keys are supported");
        let params = ApproximationParams::new(0.1, 0.05).expect("valid parameters");
        let start = Instant::now();
        let estimate = estimate_one(&estimator, &evaluator, &[], params, &mut rng)
            .expect("estimation succeeds");
        table.add_row(vec![
            format!("{facts} facts, domain {domain}"),
            "n/a".into(),
            format!("{:.4}", estimate.value),
            "—".into(),
            estimate.samples.to_string(),
            format!("{:.1?}", start.elapsed()),
        ]);
    }
    table.add_note("this regime (non-primary keys) is exactly where uniform repairs / sequences have no known FPRAS — the corresponding BatchEstimator constructors return Unsupported, see E11 notes");
    vec![table]
}

/// E8 — Theorem 7.5: FPRAS for FDs with singleton operations, and the
/// Lemma D.8 lower bound.
pub fn e08_fpras_fd_singleton() -> Vec<Table> {
    let mut table = Table::new(
        "E8 — Theorem 7.5: FPRAS for uniform operations with singleton removals, arbitrary FDs",
        &[
            "instance",
            "exact",
            "estimate",
            "rel. error",
            "samples",
            "time",
        ],
    );
    let mut rng = StdRng::seed_from_u64(800);
    let spec = GeneratorSpec::uniform_operations().with_singleton_only();

    // Small instance with exact ground truth.
    let (db, sigma) = FdWorkload::new(9, 3, 2, 3).generate();
    let query = ucqa_workload::queries::fact_membership_query(&db, 1).expect("valid query");
    let evaluator = QueryEvaluator::new(query);
    let exact = ExactSolver::new(&db, &sigma)
        .answer_probability(spec, &evaluator, &[])
        .expect("small instance")
        .to_f64();
    let estimator = BatchEstimator::new(&db, &sigma, spec).expect("FDs with singleton ops");
    let params = ApproximationParams::new(0.05, 0.05).expect("valid parameters");
    let start = Instant::now();
    let estimate =
        estimate_one(&estimator, &evaluator, &[], params, &mut rng).expect("estimation succeeds");
    table.add_row(vec![
        "9 facts, FD A→B (exactly solvable)".into(),
        format!("{exact:.4}"),
        format!("{:.4}", estimate.value),
        format!("{:.3}", (estimate.value - exact).abs() / exact.max(1e-12)),
        estimate.samples.to_string(),
        format!("{:.1?}", start.elapsed()),
    ]);

    for (facts, da, db_size) in [(50usize, 8usize, 3usize), (100, 12, 4), (200, 20, 4)] {
        let (db, sigma) = FdWorkload::new(facts, da, db_size, 11 + facts as u64).generate();
        let query = ucqa_workload::queries::fact_membership_query(&db, 1).expect("valid query");
        let evaluator = QueryEvaluator::new(query);
        let estimator = BatchEstimator::new(&db, &sigma, spec).expect("FDs with singleton ops");
        let lower_bound = estimator.theoretical_lower_bound(&evaluator).to_f64();
        let params = ApproximationParams::new(0.1, 0.05).expect("valid parameters");
        let start = Instant::now();
        let estimate = estimate_one(&estimator, &evaluator, &[], params, &mut rng)
            .expect("estimation succeeds");
        table.add_row(vec![
            format!("{facts} facts, FD A→B (Lemma D.8 bound {lower_bound:.2e})"),
            "n/a".into(),
            format!("{:.4}", estimate.value),
            "—".into(),
            estimate.samples.to_string(),
            format!("{:.1?}", start.elapsed()),
        ]);
    }
    vec![table]
}

/// The raw uniform-operations walk as a one-query stopping-rule
/// experiment: does the sampled repair entail the Boolean query?  Each
/// draw reuses one repair buffer and one walk scratch.
struct WalkExperiment<'a> {
    walk: OperationWalkSampler<'a>,
    db: &'a Database,
    evaluator: &'a QueryEvaluator,
    repair: FactSet,
    scratch: WalkScratch,
}

impl<R: Rng + ?Sized> StoppingBatchExperiment<R> for WalkExperiment<'_> {
    fn draw(&mut self, rng: &mut R, hits: &mut [bool]) {
        self.walk
            .sample_result_into(rng, &mut self.repair, &mut self.scratch);
        hits[0] = self
            .evaluator
            .has_answer(self.db, &self.repair, &[])
            .expect("boolean query");
    }
}

/// E9 — Proposition D.6: with pair removals and FDs the target probability
/// can be exponentially small, so Monte-Carlo sampling breaks down.
pub fn e09_proposition_d6() -> Vec<Table> {
    let mut table = Table::new(
        "E9 — Proposition D.6: P_{M^uo,Q}(D_n, ()) for the star family (pair removals allowed)",
        &[
            "n (=|D_n|)",
            "exact P (closed form)",
            "paper bound 1/2^{n-1}",
            "exact ≤ bound / driver refuses",
            "raw walk + stopping rule (ε=0.2, δ=0.1, ≤200k samples)",
        ],
    );
    let q_text = "Ans() :- R(0, 0, 0)";
    for n in [2usize, 4, 6, 8, 10, 12, 16, 20] {
        let (db, sigma) = proposition_d6_database(n);
        let query = parse_query(db.schema(), q_text).expect("valid query");
        let evaluator = QueryEvaluator::new(query);

        // Closed form from the inductive proof: P(n) = Π_{p=1}^{n−1} p/(2p+1).
        let mut exact = Ratio::one();
        for p in 1..n as u64 {
            exact = &exact * &Ratio::from_u64(p, 2 * p + 1);
        }
        // Cross-check against full enumeration while it is feasible.
        if n <= 6 {
            let enumerated = ExactSolver::new(&db, &sigma)
                .answer_probability(GeneratorSpec::uniform_operations(), &evaluator, &[])
                .expect("small instance");
            assert_eq!(enumerated, exact, "closed form disagrees with enumeration");
        }
        let bound = 0.5f64.powi(n as i32 - 1);
        // The FPRAS driver refuses this combination (FDs with pair
        // removals); record the refusal once, and demonstrate directly why
        // plain Monte-Carlo fails by running the raw uniform-operations
        // walk under the stopping rule.
        let refused = matches!(
            BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()),
            Err(CoreError::Unsupported { .. })
        );
        let mut walk = WalkExperiment {
            walk: OperationWalkSampler::new(&db, &sigma),
            db: &db,
            evaluator: &evaluator,
            repair: FactSet::empty(db.len()),
            scratch: WalkScratch::new(),
        };
        let mut rng = StdRng::seed_from_u64(900 + n as u64);
        let target = [StoppingRuleEstimator::new(0.2, 0.1).success_target()];
        let outcome = estimate_stopping_batch(&mut rng, &target, 200_000, &mut walk).outcomes[0];
        let walk_cell = if outcome.truncated {
            format!(
                "truncated: {} successes in {} samples",
                outcome.successes, outcome.samples
            )
        } else {
            format!("{:.2e} with {} samples", outcome.estimate, outcome.samples)
        };
        table.add_row(vec![
            n.to_string(),
            format!("{:.3e}", exact.to_f64()),
            format!("{bound:.3e}"),
            format!(
                "{} / driver refuses: {}",
                exact.to_f64() <= bound + 1e-15,
                refused
            ),
            walk_cell,
        ]);
    }
    table.add_note("the BatchEstimator constructor refuses FDs with pair removals (the open case of Section 7); the last column drives the raw uniform-operations walk through the stopping rule anyway, showing that the number of samples needed explodes as the target probability decays exponentially");
    vec![table]
}

/// E10 — Lemmas 5.4 / E.4 and Proposition 5.5: repairs vs. independent
/// sets via the Vizing-colouring construction.
pub fn e10_independent_sets() -> Vec<Table> {
    let mut table = Table::new(
        "E10 — Lemma 5.4 / Proposition 5.5: |CORep(D_G, Σ_K)| = |IS(G)| via edge colouring",
        &[
            "graph",
            "nodes/edges",
            "Δ",
            "|IS(G)|",
            "|CORep(D_G, Σ_K)|",
            "|CORep¹| = |IS≠∅|",
            "conflict graph ≅ G",
        ],
    );
    let mut graphs: Vec<(String, UndirectedGraph)> = vec![
        ("path P6".into(), UndirectedGraph::path(6)),
        ("cycle C7".into(), UndirectedGraph::cycle(7)),
        ("complete K4".into(), UndirectedGraph::complete(4)),
    ];
    for seed in [1u64, 2] {
        graphs.push((
            format!("random connected (seed {seed})"),
            connected_bounded_degree(8, 3, seed),
        ));
    }
    for (name, graph) in graphs {
        let reduction = IndependentSetReduction::new(graph.max_degree());
        let db = reduction.database(&graph);
        let solver = ExactSolver::new(&db, reduction.sigma()).with_limits(TreeLimits {
            max_nodes: 5_000_000,
        });
        let is_count = count_independent_sets(&graph);
        let corep = solver
            .candidate_repair_count(false)
            .map(|n| n.to_string())
            .unwrap_or_else(|_| "tree limit".into());
        let corep1 = solver
            .candidate_repair_count(true)
            .map(|n| n.to_string())
            .unwrap_or_else(|_| "tree limit".into());
        table.add_row(vec![
            name,
            format!("{}/{}", graph.node_count(), graph.edge_count()),
            graph.max_degree().to_string(),
            is_count.to_string(),
            corep,
            corep1,
            reduction.conflict_graph_matches(&graph, &db).to_string(),
        ]);
    }
    table.add_note("|CORep| must equal |IS(G)| (Lemma 5.4) and |CORep¹| must equal |IS(G)| − 1 (Lemma E.4, non-empty independent sets)");
    vec![table]
}

/// E11 — the hardness reductions run against brute force, plus the FD
/// gadget of Lemma 5.6.
pub fn e11_hardness_reductions() -> Vec<Table> {
    let mut hom_table = Table::new(
        "E11a — Theorem 5.1(1): ♯H-Coloring via the RRFreq oracle",
        &[
            "graph",
            "♯hom(G,H) brute force",
            "via reduction (exact oracle)",
            "match",
        ],
    );
    let reduction = HColoringReduction::new();
    let h = TargetGraph::hardness_gadget();
    let graphs = vec![
        (
            "single edge".to_string(),
            UndirectedGraph::from_edges(2, &[(0, 1)]),
        ),
        ("path P4".to_string(), UndirectedGraph::path(4)),
        ("cycle C5".to_string(), UndirectedGraph::cycle(5)),
        ("K4 minus an edge".to_string(), {
            let mut g = UndirectedGraph::complete(4);
            g = UndirectedGraph::from_edges(
                4,
                &g.edges()
                    .into_iter()
                    .filter(|&e| e != (2, 3))
                    .collect::<Vec<_>>(),
            );
            g
        }),
    ];
    for (name, graph) in &graphs {
        let brute = count_homomorphisms(graph, &h);
        let sigma = reduction.sigma().clone();
        let via = reduction.hom_count_via_oracle(graph, |db, query| {
            ExactSolver::new(db, &sigma)
                .rrfreq(&QueryEvaluator::new(query.clone()), &[], false)
                .expect("small instance")
        });
        hom_table.add_row(vec![
            name.clone(),
            brute.to_string(),
            via.to_string(),
            (via == Ratio::from_natural(brute)).to_string(),
        ]);
    }

    let mut sat_table = Table::new(
        "E11b — Theorem E.1(1): ♯Pos2DNF via the RRFreq¹ oracle",
        &[
            "formula",
            "♯sat brute force",
            "via reduction (exact oracle)",
            "match",
        ],
    );
    let dnf_reduction = Pos2DnfReduction::new();
    let formulas = vec![
        (
            "(x0∧x1) ∨ (x1∧x2)".to_string(),
            Positive2Dnf::new(3, vec![(0, 1), (1, 2)]),
        ),
        (
            "single clause over 4 vars".to_string(),
            Positive2Dnf::new(4, vec![(0, 3)]),
        ),
        (
            "chain of 4 clauses over 5 vars".to_string(),
            Positive2Dnf::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]),
        ),
        (
            "dense: 6 clauses over 6 vars".to_string(),
            Positive2Dnf::new(6, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]),
        ),
    ];
    for (name, formula) in &formulas {
        let brute = formula.count_satisfying_assignments();
        let sigma = dnf_reduction.sigma().clone();
        let via = dnf_reduction.sat_count_via_oracle(formula, |db, query| {
            ExactSolver::new(db, &sigma)
                .rrfreq(&QueryEvaluator::new(query.clone()), &[], true)
                .expect("small instance")
        });
        sat_table.add_row(vec![
            name.clone(),
            brute.to_string(),
            via.to_string(),
            (via == Ratio::from_natural(brute)).to_string(),
        ]);
    }

    let mut gadget_table = Table::new(
        "E11c — Lemma 5.6: the FD gadget adds exactly one repair",
        &[
            "source graph",
            "|CORep(D, Σ_K)|",
            "|CORep(D_F, Σ_F)|",
            "rrfreq(D_F, Q_F)",
            "recovered count",
        ],
    );
    for graph in [UndirectedGraph::cycle(5), UndirectedGraph::path(5)] {
        let is_reduction = IndependentSetReduction::new(graph.max_degree());
        let source = is_reduction.database(&graph);
        let source_count = ExactSolver::new(&source, is_reduction.sigma())
            .candidate_repair_count(false)
            .expect("small instance");
        let arity = source
            .schema()
            .arity(source.schema().relation_id("R").expect("R exists"));
        let gadget = FdGadget::new(arity, is_reduction.sigma());
        let target = gadget.database(&source);
        let target_solver = ExactSolver::new(&target, gadget.sigma());
        let target_count = target_solver
            .candidate_repair_count(false)
            .expect("small instance");
        let rrfreq = target_solver
            .rrfreq(&QueryEvaluator::new(gadget.query().clone()), &[], false)
            .expect("small instance");
        let sigma = gadget.sigma().clone();
        let recovered = gadget.corep_count_via_oracle(&source, |db, query| {
            ExactSolver::new(db, &sigma)
                .rrfreq(&QueryEvaluator::new(query.clone()), &[], false)
                .expect("small instance")
        });
        gadget_table.add_row(vec![
            format!(
                "{} nodes / {} edges",
                graph.node_count(),
                graph.edge_count()
            ),
            source_count.to_string(),
            target_count.to_string(),
            rrfreq.to_string(),
            recovered.to_string(),
        ]);
    }

    vec![hom_table, sat_table, gadget_table]
}

/// E12 — scaling study: exact enumeration vs. the polynomial samplers and
/// FPRAS drivers across the three semantics.
pub fn e12_scaling() -> Vec<Table> {
    let mut table = Table::new(
        "E12 — scaling: exact enumeration vs. sampling (block workloads, block size 4, ε = 0.2)",
        &[
            "|D|",
            "exact tree",
            "SampleRep / sample",
            "SampleSeq / sample",
            "M^uo walk / sample",
            "FPRAS M^ur total",
            "FPRAS M^uo total",
        ],
    );
    let mut rng = StdRng::seed_from_u64(1200);
    for blocks in [2usize, 3, 4, 8, 16, 32, 64] {
        let (db, sigma) = BlockWorkload::uniform(blocks, 4, 42 + blocks as u64).generate();
        let (query, candidate) = block_lookup_query(&db, 5).expect("valid workload query");
        let evaluator = QueryEvaluator::new(query);

        // Exact enumeration with a hard node limit.
        let exact_cell = {
            let solver =
                ExactSolver::new(&db, &sigma).with_limits(TreeLimits { max_nodes: 300_000 });
            let start = Instant::now();
            match solver.candidate_repair_count(false) {
                Ok(count) => format!("{count} repairs in {:.1?}", start.elapsed()),
                Err(_) => "> 300k tree nodes (intractable)".to_string(),
            }
        };

        // Per-sample costs.
        let mut repair = FactSet::empty(db.len());
        let repair_sampler = RepairSampler::new(&db, &sigma).expect("primary keys");
        let start = Instant::now();
        for _ in 0..1_000 {
            repair_sampler.sample_into(&mut rng, &mut repair);
        }
        let per_repair_sample = start.elapsed() / 1_000;

        let sequence_sampler = SequenceSampler::new_log_space(&db, &sigma).expect("primary keys");
        let start = Instant::now();
        for _ in 0..200 {
            sequence_sampler.sample_result_into(&mut rng, &mut repair);
        }
        let per_sequence_sample = start.elapsed() / 200;

        let walk = OperationWalkSampler::new(&db, &sigma);
        let mut scratch = WalkScratch::new();
        let start = Instant::now();
        for _ in 0..50 {
            walk.sample_result_into(&mut rng, &mut repair, &mut scratch);
        }
        let per_walk_sample = start.elapsed() / 50;

        // End-to-end FPRAS times.
        let params = ApproximationParams::new(0.2, 0.1).expect("valid parameters");
        let ur = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs())
            .expect("primary keys");
        let start = Instant::now();
        let ur_estimate = estimate_one(&ur, &evaluator, &candidate, params, &mut rng)
            .expect("estimation succeeds");
        let ur_time = start.elapsed();
        let uo =
            BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).expect("keys");
        let start = Instant::now();
        let uo_estimate = estimate_one(&uo, &evaluator, &candidate, params, &mut rng)
            .expect("estimation succeeds");
        let uo_time = start.elapsed();

        table.add_row(vec![
            db.len().to_string(),
            exact_cell,
            format!("{per_repair_sample:.1?}"),
            format!("{per_sequence_sample:.1?}"),
            format!("{per_walk_sample:.1?}"),
            format!("{ur_time:.1?} ({} samples)", ur_estimate.samples),
            format!("{uo_time:.1?} ({} samples)", uo_estimate.samples),
        ]);
    }
    table.add_note("the qualitative claim of the paper: exact uniform operational CQA blows up almost immediately, while the samplers stay polynomial; the uniform-operations walk is the most expensive sampler but the only one available beyond primary keys");
    vec![table]
}

/// A Natural → string helper used by tables that report huge counts.
pub fn digits(n: &Natural) -> usize {
    n.to_string().len()
}
