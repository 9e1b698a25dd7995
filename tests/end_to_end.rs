//! End-to-end integration tests: workloads → samplers → FPRAS drivers,
//! validated against the exact solvers and the theorems' guarantees.

use rand::rngs::StdRng;
use rand::SeedableRng;

use uocqa::core::exact::ExactSolver;
use uocqa::core::fpras::{ApproximationParams, BatchEstimator, EstimatorMode};
use uocqa::core::CoreError;
use uocqa::db::{FactSet, ViolationSet};
use uocqa::query::QueryEvaluator;
use uocqa::repair::GeneratorSpec;
use uocqa::workload::queries::{block_join_query, block_lookup_query, fact_membership_query};
use uocqa::workload::{BlockWorkload, FdWorkload, MultiKeyWorkload};

mod common;

#[test]
fn all_supported_fpras_combinations_agree_with_exact_on_a_small_instance() {
    // A block workload small enough for exact enumeration (3 blocks of 3).
    let (db, sigma) = BlockWorkload::uniform(3, 3, 5).generate();
    let (query, candidate) = block_lookup_query(&db, 1).unwrap();
    let evaluator = QueryEvaluator::new(query);
    let solver = ExactSolver::new(&db, &sigma);
    let params = ApproximationParams::new(0.05, 0.05).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    for spec in [
        GeneratorSpec::uniform_repairs(),
        GeneratorSpec::uniform_repairs().with_singleton_only(),
        GeneratorSpec::uniform_sequences(),
        GeneratorSpec::uniform_sequences().with_singleton_only(),
        GeneratorSpec::uniform_operations(),
        GeneratorSpec::uniform_operations().with_singleton_only(),
    ] {
        let exact = solver
            .answer_probability(spec, &evaluator, &candidate)
            .unwrap()
            .to_f64();
        let estimator = BatchEstimator::new(&db, &sigma, spec).unwrap();
        let estimate =
            common::estimate_one(&estimator, &evaluator, &candidate, params, &mut rng).unwrap();
        assert!(!estimate.truncated);
        let error = (estimate.value - exact).abs() / exact;
        assert!(
            error < 0.12,
            "{}: exact {exact:.4}, estimate {:.4}",
            spec.short_name(),
            estimate.value
        );
    }
}

#[test]
fn batched_estimates_match_exact_within_additive_epsilon() {
    // Accuracy of the batched FPRAS against exact repair counting, tested
    // as a guarantee rather than at one seed.  With the paper's additive
    // (ε, δ) sample-size bound (Hoeffding, ln(2/δ)/(2ε²) samples) each
    // per-query estimate misses its exact probability by more than ε with
    // probability at most δ, independently across seeds.  Over `SEEDS`
    // seeds a query's miss count is thus dominated by Binomial(SEEDS, δ);
    // the check fails only when the count refutes δ at level `ALPHA`
    // (its one-sided Clopper–Pearson lower bound exceeds δ).
    use common::binomial_upper_tail;
    use uocqa::core::fpras::{BatchEstimator, BatchQuery};
    use uocqa::numeric::Ratio;
    use uocqa::workload::queries::fact_membership_query_bank;

    const SEEDS: u64 = 20;
    const ALPHA: f64 = 1e-3;
    // At these constants, 6 or more misses of one query refute δ.
    assert!(binomial_upper_tail(SEEDS, 0.05, 5) > ALPHA);
    assert!(binomial_upper_tail(SEEDS, 0.05, 6) < ALPHA);
    let (epsilon, delta) = (0.1, 0.05);
    let params = ApproximationParams::new(epsilon, delta)
        .unwrap()
        .with_mode(EstimatorMode::FixedAdditive);
    let check = |label: &str,
                 estimator: &BatchEstimator<'_>,
                 bank: &[BatchQuery<'_>],
                 exact: &[Ratio]| {
        let mut misses = vec![0u64; bank.len()];
        for seed in 1..=SEEDS {
            let estimates =
                common::estimate_bank(estimator, bank, params, &mut StdRng::seed_from_u64(seed))
                    .unwrap();
            for ((estimate, exact), miss) in estimates.iter().zip(exact).zip(&mut misses) {
                if (estimate.value - exact.to_f64()).abs() > epsilon {
                    *miss += 1;
                }
            }
        }
        for (i, &miss) in misses.iter().enumerate() {
            let tail = binomial_upper_tail(SEEDS, delta, miss);
            assert!(
                tail > ALPHA,
                "{label}, query {i} (exact {:.4}): {miss} of {SEEDS} seeds missed by more \
                 than ε = {epsilon}; P(Binomial({SEEDS}, {delta}) ≥ {miss}) = {tail:.2e}",
                exact[i].to_f64()
            );
        }
    };

    // A primary-key block workload: every generator is supported.
    let (db, sigma) = BlockWorkload::uniform(3, 3, 5).generate();
    let queries = fact_membership_query_bank(&db, 4, 2).unwrap();
    let evaluators: Vec<QueryEvaluator> = queries.into_iter().map(QueryEvaluator::new).collect();
    let bank: Vec<BatchQuery<'_>> = evaluators.iter().map(|e| BatchQuery::new(e, &[])).collect();
    let refs: Vec<(&QueryEvaluator, &[uocqa::db::Value])> =
        evaluators.iter().map(|e| (e, &[] as &[_])).collect();
    let solver = ExactSolver::new(&db, &sigma);
    for spec in [
        GeneratorSpec::uniform_repairs(),
        GeneratorSpec::uniform_repairs().with_singleton_only(),
        GeneratorSpec::uniform_sequences(),
        GeneratorSpec::uniform_sequences().with_singleton_only(),
        GeneratorSpec::uniform_operations(),
        GeneratorSpec::uniform_operations().with_singleton_only(),
    ] {
        let exact = solver.answer_probabilities(spec, &refs).unwrap();
        let estimator = BatchEstimator::new(&db, &sigma, spec).unwrap();
        check(&spec.short_name(), &estimator, &bank, &exact);
    }

    // A non-key FD workload: the singleton-operations generator.
    let (db, sigma) = FdWorkload::new(8, 3, 2, 3).generate();
    let queries = fact_membership_query_bank(&db, 4, 2).unwrap();
    let evaluators: Vec<QueryEvaluator> = queries.into_iter().map(QueryEvaluator::new).collect();
    let bank: Vec<BatchQuery<'_>> = evaluators.iter().map(|e| BatchQuery::new(e, &[])).collect();
    let refs: Vec<(&QueryEvaluator, &[uocqa::db::Value])> =
        evaluators.iter().map(|e| (e, &[] as &[_])).collect();
    let spec = GeneratorSpec::uniform_operations().with_singleton_only();
    let exact = ExactSolver::new(&db, &sigma)
        .answer_probabilities(spec, &refs)
        .unwrap();
    let estimator = BatchEstimator::new(&db, &sigma, spec).unwrap();
    check("FD workload", &estimator, &bank, &exact);
}

#[test]
fn multi_atom_queries_are_estimated_correctly() {
    let (db, sigma) = BlockWorkload::uniform(3, 2, 9).generate();
    let query = block_join_query(&db, 4).unwrap();
    let evaluator = QueryEvaluator::new(query);
    let solver = ExactSolver::new(&db, &sigma);
    let exact = solver
        .answer_probability(GeneratorSpec::uniform_repairs(), &evaluator, &[])
        .unwrap()
        .to_f64();
    let estimator = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
    let params = ApproximationParams::new(0.05, 0.05).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let estimate = common::estimate_one(&estimator, &evaluator, &[], params, &mut rng).unwrap();
    if exact > 0.0 {
        assert!((estimate.value - exact).abs() / exact < 0.12);
    } else {
        assert_eq!(estimate.successes, 0);
    }
}

#[test]
fn keys_beyond_primary_keys_route_to_uniform_operations_only() {
    let (db, sigma) = MultiKeyWorkload::new(30, 6, 2).generate();
    assert!(sigma.is_keys(db.schema()) && !sigma.is_primary_keys(db.schema()));
    for unsupported in [
        GeneratorSpec::uniform_repairs(),
        GeneratorSpec::uniform_sequences(),
    ] {
        assert!(matches!(
            BatchEstimator::new(&db, &sigma, unsupported).err(),
            Some(CoreError::Unsupported { .. })
        ));
    }
    let estimator = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).unwrap();
    let query = fact_membership_query(&db, 7).unwrap();
    let evaluator = QueryEvaluator::new(query);
    let params = ApproximationParams::new(0.2, 0.1).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let estimate = common::estimate_one(&estimator, &evaluator, &[], params, &mut rng).unwrap();
    assert!(estimate.value > 0.0 && estimate.value <= 1.0);
}

#[test]
fn fd_instances_require_singleton_operations() {
    let (db, sigma) = FdWorkload::new(40, 6, 3, 13).generate();
    assert!(!sigma.is_keys(db.schema()));
    assert!(matches!(
        BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).err(),
        Some(CoreError::Unsupported { .. })
    ));
    let estimator = BatchEstimator::new(
        &db,
        &sigma,
        GeneratorSpec::uniform_operations().with_singleton_only(),
    )
    .unwrap();
    let query = fact_membership_query(&db, 3).unwrap();
    let evaluator = QueryEvaluator::new(query);
    let params = ApproximationParams::new(0.15, 0.1).unwrap();
    let mut rng = StdRng::seed_from_u64(17);
    let estimate = common::estimate_one(&estimator, &evaluator, &[], params, &mut rng).unwrap();
    assert!(estimate.value > 0.0 && estimate.value <= 1.0);
    // Theorem 7.5 / Lemma D.8: the (non-zero) value respects the bound.
    let bound = estimator.theoretical_lower_bound(&evaluator).to_f64();
    assert!(estimate.value >= bound);
}

#[test]
fn fixed_sample_modes_scale_to_larger_workloads() {
    let (db, sigma) = BlockWorkload::uniform(100, 5, 21).generate();
    assert_eq!(db.len(), 500);
    let (query, candidate) = block_lookup_query(&db, 2).unwrap();
    let evaluator = QueryEvaluator::new(query);
    let estimator = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
    let params = ApproximationParams::new(0.1, 0.1)
        .unwrap()
        .with_mode(EstimatorMode::FixedSamples(4_000));
    let mut rng = StdRng::seed_from_u64(23);
    let estimate =
        common::estimate_one(&estimator, &evaluator, &candidate, params, &mut rng).unwrap();
    // Exact value for a block of size 5 under uniform repairs is 1/6.
    assert!((estimate.value - 1.0 / 6.0).abs() < 0.03);
    assert_eq!(estimate.samples, 4_000);
}

#[test]
fn sampled_repairs_from_every_sampler_are_consistent() {
    use uocqa::core::sample_operations::{OperationWalkSampler, WalkScratch};
    use uocqa::core::sample_repairs::RepairSampler;
    use uocqa::core::sample_sequences::SequenceSampler;

    let (db, sigma) = BlockWorkload::uniform(10, 4, 31).generate();
    let mut rng = StdRng::seed_from_u64(5);
    let repair_sampler = RepairSampler::new(&db, &sigma).unwrap();
    let repair_sampler_1 = repair_sampler.clone().singleton_only();
    let sequence_sampler = SequenceSampler::new_log_space(&db, &sigma).unwrap();
    let sequence_sampler_1 = SequenceSampler::new_singleton_only(&db, &sigma).unwrap();
    let walk = OperationWalkSampler::new(&db, &sigma);
    let consistent = |repair: &FactSet| ViolationSet::compute(&db, &sigma, repair).is_empty();
    let (mut repair, mut scratch) = (FactSet::empty(db.len()), WalkScratch::new());
    for _ in 0..25 {
        repair_sampler.sample_into(&mut rng, &mut repair);
        assert!(consistent(&repair));
        repair_sampler_1.sample_into(&mut rng, &mut repair);
        assert!(consistent(&repair));
        sequence_sampler.sample_result_into(&mut rng, &mut repair);
        assert!(consistent(&repair));
        sequence_sampler_1.sample_result_into(&mut rng, &mut repair);
        assert!(consistent(&repair));
        walk.sample_result_into(&mut rng, &mut repair, &mut scratch);
        assert!(consistent(&repair));
    }
}
