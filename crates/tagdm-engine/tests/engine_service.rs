//! End-to-end tests of the engine as a service: a mixed concurrent workload must give
//! bit-identical answers to direct `Solver::solve` calls, and repeated requests must be
//! served from the outcome cache.

use std::time::Duration;

use tagdm_core::catalog::{problem_1, problem_2, problem_4, problem_6, ProblemParams};
use tagdm_core::context::{MiningContext, SummarizerChoice};
use tagdm_core::problem::TagDmProblem;
use tagdm_core::solvers::{ConstraintMode, SolverOutcome};
use tagdm_data::generator::{GeneratorConfig, MovieLensStyleGenerator};
use tagdm_data::group::GroupingScheme;
use tagdm_engine::{
    ContextSpec, Engine, EngineConfig, EngineError, RetryPolicy, SolveRequest, SolverChoice,
};
use tagdm_topics::lda::LdaConfig;

const GROUPING: [(&str, &str); 3] = [("user", "gender"), ("user", "age"), ("item", "genre")];
const MIN_GROUP_SIZE: usize = 5;
const SUMMARIZER: SummarizerChoice = SummarizerChoice::FrequencyNormalized;

fn params() -> ProblemParams {
    ProblemParams {
        k: 3,
        min_support: 5,
        user_threshold: 0.2,
        item_threshold: 0.2,
    }
}

/// The same corpus the engine tests register, built the way the engine builds it.
fn direct_context() -> MiningContext {
    let dataset = MovieLensStyleGenerator::new(GeneratorConfig::small()).generate();
    let groups = GroupingScheme::over(&dataset, &GROUPING)
        .expect("grouping attributes exist")
        .min_group_size(MIN_GROUP_SIZE)
        .enumerate(&dataset);
    MiningContext::build(&dataset, groups, SUMMARIZER)
}

fn engine_with_registered_corpus(workers: usize) -> (Engine, ContextSpec) {
    let engine = Engine::new(EngineConfig::default().with_workers(workers));
    let dataset = MovieLensStyleGenerator::new(GeneratorConfig::small()).generate();
    engine.register_dataset("ml-small", dataset);
    let spec = ContextSpec::grouped("ml-small", &GROUPING, MIN_GROUP_SIZE, SUMMARIZER);
    (engine, spec)
}

/// A mixed Table-1 workload covering every solver family.
fn mixed_workload() -> Vec<(TagDmProblem, SolverChoice)> {
    let params = params();
    vec![
        (problem_1(params), SolverChoice::Exact),
        (problem_1(params), SolverChoice::SmLsh(ConstraintMode::Fold)),
        (
            problem_2(params),
            SolverChoice::SmLsh(ConstraintMode::Filter),
        ),
        (problem_2(params), SolverChoice::ExactCapped(100_000)),
        (problem_4(params), SolverChoice::Recommended),
        (problem_6(params), SolverChoice::Exact),
        (problem_6(params), SolverChoice::DvFdp(ConstraintMode::Fold)),
        (problem_6(params), SolverChoice::Recommended),
    ]
}

/// Submit the whole workload against `spec` as one batch (it runs concurrently across
/// the pool) and check every answer against the direct solves, field by field.
fn assert_batch_matches_direct(
    engine: &Engine,
    spec: &ContextSpec,
    workload: &[(TagDmProblem, SolverChoice)],
    direct: &[SolverOutcome],
) {
    let responses = engine.solve_batch(
        workload
            .iter()
            .map(|(problem, solver)| SolveRequest::new(spec.clone(), problem.clone(), *solver))
            .collect(),
    );

    assert_eq!(responses.len(), workload.len());
    for (direct, response) in direct.iter().zip(responses) {
        let engine_outcome = response.result.expect("mixed workload solves succeed");
        // Everything but wall-clock time must be bit-identical to the direct call.
        assert_eq!(engine_outcome.solver, direct.solver);
        assert_eq!(engine_outcome.groups, direct.groups);
        assert_eq!(engine_outcome.objective, direct.objective);
        assert_eq!(engine_outcome.feasible, direct.feasible);
        assert_eq!(
            engine_outcome.candidates_evaluated,
            direct.candidates_evaluated
        );
        assert!(!response.deadline_hit);
    }
}

#[test]
fn concurrent_engine_solves_match_direct_solver_calls() {
    let (engine, spec) = engine_with_registered_corpus(4);
    assert!(engine.num_workers() >= 4);
    let context = direct_context();
    let workload = mixed_workload();
    let direct: Vec<SolverOutcome> = workload
        .iter()
        .map(|(problem, choice)| choice.instantiate(problem).solve(&context, problem))
        .collect();

    assert_batch_matches_direct(&engine, &spec, &workload, &direct);
    let grouped = engine.metrics();
    assert_eq!(grouped.jobs_submitted, workload.len() as u64);
    assert_eq!(grouped.jobs_completed, workload.len() as u64);
    // One grouped context build, shared by every job in the batch (two may race on the
    // first-miss build, so at least one miss rather than exactly one).
    assert!(grouped.context_misses >= 1);
    assert_eq!(
        grouped.context_hits + grouped.context_misses,
        workload.len() as u64
    );

    // The same workload over a pre-built context installed under a name: every job
    // is a context hit on the pinned entry, with no miss and no build.
    engine.install_context("ml-small-installed", context);
    let installed = ContextSpec::installed("ml-small-installed");
    assert_batch_matches_direct(&engine, &installed, &workload, &direct);
    let metrics = engine.metrics();
    assert_eq!(metrics.jobs_completed, 2 * workload.len() as u64);
    assert_eq!(
        metrics.context_hits,
        grouped.context_hits + workload.len() as u64
    );
    assert_eq!(metrics.context_misses, grouped.context_misses);
    assert_eq!(metrics.context_build.count, grouped.context_build.count);
    assert_eq!(
        metrics.context_builds_deduped,
        grouped.context_builds_deduped
    );
}

#[test]
fn repeated_request_is_a_cache_hit_with_an_equal_outcome() {
    let (engine, spec) = engine_with_registered_corpus(4);
    let request = SolveRequest::new(
        spec,
        problem_1(params()),
        SolverChoice::SmLsh(ConstraintMode::Fold),
    );

    let first = engine.solve(request.clone());
    assert!(!first.cache.outcome_hit);
    let first_outcome = first.result.expect("first solve succeeds");

    let second = engine.solve(request);
    assert!(
        second.cache.outcome_hit,
        "repeat must hit the outcome cache"
    );
    assert!(
        second.cache.context_hit,
        "repeat must hit the context cache"
    );
    let second_outcome = second.result.expect("cached solve succeeds");

    // Full structural equality, `elapsed` included: the cache returns the stored
    // outcome, it does not re-run the solver.
    assert_eq!(first_outcome, second_outcome);

    let metrics = engine.metrics();
    assert_eq!(metrics.outcome_hits, 1);
    assert_eq!(metrics.outcome_misses, 1);
    assert_eq!(metrics.solve_hit.count, 1);
    assert_eq!(metrics.solve_miss.count, 1);
}

#[test]
fn zero_deadline_expires_in_queue_without_running_the_solver() {
    let (engine, spec) = engine_with_registered_corpus(1);
    let request = SolveRequest::new(spec, problem_1(params()), SolverChoice::Exact)
        .with_deadline(Duration::ZERO);
    let response = engine.solve(request);
    assert!(response.deadline_hit);
    match response.result {
        Err(EngineError::DeadlineExpiredInQueue { .. }) => {}
        other => panic!("expected a queue-expiry error, got {other:?}"),
    }
    assert_eq!(engine.metrics().jobs_expired, 1);
}

#[test]
fn unknown_names_surface_typed_errors() {
    let (engine, _) = engine_with_registered_corpus(2);
    let missing_dataset = engine.solve(SolveRequest::new(
        ContextSpec::grouped("nope", &GROUPING, MIN_GROUP_SIZE, SUMMARIZER),
        problem_1(params()),
        SolverChoice::Recommended,
    ));
    assert_eq!(
        missing_dataset.result,
        Err(EngineError::UnknownDataset("nope".to_string()))
    );

    let missing_context = engine.solve(SolveRequest::new(
        ContextSpec::installed("nope"),
        problem_1(params()),
        SolverChoice::Recommended,
    ));
    assert_eq!(
        missing_context.result,
        Err(EngineError::UnknownContext("nope".to_string()))
    );
}

#[test]
fn non_finite_objective_weight_is_an_invalid_problem() {
    let (engine, spec) = engine_with_registered_corpus(2);
    // The JSON decoder reads an out-of-range literal as +inf, so a remote SOLVE can
    // carry an infinite weight.
    let json = serde_json::to_string(&problem_1(params())).expect("problems serialize");
    let inflated = json.replace("\"weight\":1.0", "\"weight\":1e400");
    assert_ne!(json, inflated, "the problem JSON carries a unit weight");
    let problem: TagDmProblem = serde_json::from_str(&inflated).expect("problem decodes");
    assert_eq!(problem.objectives[0].weight, f64::INFINITY);

    let response = engine.solve(SolveRequest::new(spec, problem, SolverChoice::Recommended));
    match response.result {
        Err(EngineError::InvalidProblem(_)) => {}
        other => panic!("expected an invalid-problem error, got {other:?}"),
    }
    assert_eq!(
        engine.metrics().outcome_misses,
        0,
        "nothing was solved or cached"
    );
}

#[test]
fn invalid_lda_settings_are_a_non_transient_spec_error() {
    let (engine, _) = engine_with_registered_corpus(2);
    let lda = LdaConfig::fast(4);
    let invalid = [
        LdaConfig {
            burn_in: lda.iterations,
            ..lda
        },
        LdaConfig {
            num_topics: 0,
            ..lda
        },
        LdaConfig { alpha: 0.0, ..lda },
        LdaConfig {
            beta: f64::NAN,
            ..lda
        },
    ];
    for config in invalid {
        let spec = ContextSpec::grouped(
            "ml-small",
            &GROUPING,
            MIN_GROUP_SIZE,
            SummarizerChoice::Lda(config),
        );
        let request =
            SolveRequest::new(spec.clone(), problem_1(params()), SolverChoice::Recommended);
        let response = engine.solve_with(request, RetryPolicy::default());
        match &response.result {
            Err(error @ EngineError::InvalidGrouping(_)) => assert!(!error.is_transient()),
            other => panic!("expected an invalid-spec error for {config:?}, got {other:?}"),
        }
        // `Engine::context` reaches the same check.
        assert!(matches!(
            engine.context(&spec),
            Err(EngineError::InvalidGrouping(_))
        ));
    }
    let metrics = engine.metrics();
    assert_eq!(metrics.jobs_panicked, 0);
    assert_eq!(metrics.jobs_retried, 0);
    assert_eq!(metrics.context_build.count, 0);
}
