//! Answer checks and the Exact-bound oracle. Nothing here is timed.

use std::collections::HashMap;
use std::sync::Arc;

use tagdm_core::catalog::{problem, ProblemParams};
use tagdm_core::context::{MiningContext, SummarizerChoice};
use tagdm_core::problem::TagDmProblem;
use tagdm_core::solvers::{
    ConstraintMode, DvFdpSolver, ExactSolver, SmLshSolver, Solver, SolverOutcome,
};
use tagdm_data::dataset::Dataset;
use tagdm_data::generator::MovieLensStyleGenerator;
use tagdm_data::group::{GroupingScheme, TaggingActionGroup};
use tagdm_engine::{ContextSpec, SolveRequest};

use crate::drive::{Agreement, Answer, CallRecord, LoopRun};
use crate::inputs::{Call, Inputs, Scale, DATASET, QUALITY_SEED};
use crate::rng::Rng;
use crate::service::Service;

/// Stream id of the oracle's LDA seed (see `Rng::derive`).
const ORACLE: u64 = 5;

pub struct Checked {
    pub failures: Vec<String>,
    /// Answers compared field by field with a direct solve.
    pub compared: usize,
    /// Mean objective of the feasible answers in the quality set.
    pub objective_mean: f64,
    /// Share of the quality set's answers that are feasible.
    pub feasible_ratio: f64,
}

/// The groups of `spec`, enumerated the way the engine does.
pub fn enumerate(dataset: &Dataset, spec: &ContextSpec) -> Vec<TaggingActionGroup> {
    let ContextSpec::Grouped {
        grouping,
        min_group_size,
        ..
    } = spec
    else {
        panic!("the benchmark only generates grouped contexts");
    };
    let attrs: Vec<(&str, &str)> = grouping
        .iter()
        .map(|(dim, attr)| (dim.as_str(), attr.as_str()))
        .collect();
    GroupingScheme::over(dataset, &attrs)
        .expect("generated groupings name attributes of the generated schemas")
        .min_group_size(*min_group_size)
        .enumerate(dataset)
}

pub fn summarizer(spec: &ContextSpec) -> SummarizerChoice {
    match spec {
        ContextSpec::Grouped { summarizer, .. } => *summarizer,
        ContextSpec::Installed { .. } => panic!("the benchmark only generates grouped contexts"),
    }
}

/// Build the context of `spec` directly, without the engine.
pub fn build_direct(dataset: &Dataset, spec: &ContextSpec) -> MiningContext {
    MiningContext::build(dataset, enumerate(dataset, spec), summarizer(spec))
}

/// Check the loops' answers and take the answer metrics. Answers to one key
/// must agree across every loop. The first `check_calls` calls of the run's
/// stream, and the quality set (the first `quality_calls` calls of the
/// [`QUALITY_SEED`] stream, asked now), must equal a direct `Solver::solve` on a
/// directly built context. The answer metrics are taken over the quality set,
/// so they are the same for every seed.
pub fn check_answers(inputs: &Inputs, service: &Service, loops: &[&LoopRun]) -> Checked {
    let mut agreement = Agreement::default();
    for run in loops {
        agreement.merge(&run.agreement);
    }
    let mut failures = agreement.conflicts;

    let dataset = service.dataset();
    let mut contexts: HashMap<String, Arc<MiningContext>> = HashMap::new();
    let mut compared = 0;
    let mut verify = |label: &str, call: &Call, outcomes: Result<Vec<SolverOutcome>, String>| {
        let outcomes = match outcomes {
            Ok(outcomes) => outcomes,
            Err(error) => {
                failures.push(format!("{label} failed: {error}"));
                return Vec::new();
            }
        };
        for (request, served) in call.requests.iter().zip(&outcomes) {
            let ctx = contexts
                .entry(request.context.key().as_str().to_string())
                .or_insert_with(|| Arc::new(build_direct(&dataset, &request.context)));
            compared += 1;
            if let Some(problem) = compare(ctx, request, served) {
                failures.push(format!("{label}: {problem}"));
            }
        }
        outcomes
    };

    let by_index: HashMap<u64, &CallRecord> = loops
        .iter()
        .flat_map(|run| run.records.iter())
        .map(|r| (r.index, r))
        .collect();
    for index in 0..inputs.kind.check_calls() {
        let call = inputs.call(index);
        let label = format!("call {index}");
        let outcomes = match by_index.get(&index) {
            Some(record) => record.answers.iter().map(answer_outcome).collect(),
            None => ask(service, &call),
        };
        verify(&label, &call, outcomes);
    }

    let quality = Inputs::generate(inputs.kind, QUALITY_SEED);
    let mut objectives = Vec::new();
    let mut answers = 0usize;
    for index in 0..inputs.kind.quality_calls() {
        let call = quality.call(index);
        let outcomes = verify(&format!("quality call {index}"), &call, ask(service, &call));
        answers += call.requests.len();
        objectives.extend(outcomes.iter().filter(|o| o.feasible).map(|o| o.objective));
    }

    let feasible = objectives.len();
    Checked {
        failures,
        compared,
        objective_mean: crate::stats::mean(&objectives),
        feasible_ratio: feasible as f64 / answers.max(1) as f64,
    }
}

/// Ask the service `call` outside any loop.
fn ask(service: &Service, call: &Call) -> Result<Vec<SolverOutcome>, String> {
    service
        .execute(call)
        .into_iter()
        .map(|response| response.result.map_err(|e| e.to_string()))
        .collect()
}

fn answer_outcome(answer: &Answer) -> Result<SolverOutcome, String> {
    match (&answer.outcome, &answer.error) {
        (Some(outcome), _) => Ok(outcome.clone()),
        (None, Some(error)) => Err(error.clone()),
        (None, None) => Err("outcome was not kept".to_string()),
    }
}

/// `None` when `served` equals a direct solve (elapsed zeroed) and its
/// `feasible` flag equals a recomputation of the constraints.
fn compare(ctx: &MiningContext, request: &SolveRequest, served: &SolverOutcome) -> Option<String> {
    let mut direct = request
        .solver
        .instantiate(&request.problem)
        .solve(ctx, &request.problem);
    let mut served = served.clone();
    direct.elapsed = Default::default();
    served.elapsed = Default::default();
    let recomputed = request.problem.feasible(ctx, &served.groups);
    if served.feasible != recomputed {
        return Some(format!(
            "feasible = {} but the constraints recompute to {recomputed}",
            served.feasible
        ));
    }
    (served != direct).then(|| {
        let mut diffs = Vec::new();
        if served.solver != direct.solver {
            diffs.push(format!("solver {} vs {}", served.solver, direct.solver));
        }
        if served.groups != direct.groups {
            diffs.push(format!("groups {:?} vs {:?}", served.groups, direct.groups));
        }
        if served.objective.to_bits() != direct.objective.to_bits() {
            diffs.push(format!(
                "objective {} vs {}",
                served.objective, direct.objective
            ));
        }
        if served.feasible != direct.feasible {
            diffs.push(format!(
                "feasible {} vs {}",
                served.feasible, direct.feasible
            ));
        }
        if served.candidates_evaluated != direct.candidates_evaluated {
            diffs.push(format!(
                "candidates {} vs {}",
                served.candidates_evaluated, direct.candidates_evaluated
            ));
        }
        format!(
            "served answer differs from direct solve: {}",
            diffs.join("; ")
        )
    })
}

/// The Exact-bound oracle: on a Small-scale context drawn from `seed`, no
/// feasible SM-LSH or DV-FDP answer to a Table-1 problem may beat `ExactSolver`.
/// Returns the failures and the number of heuristic answers compared.
pub fn exact_oracle(seed: u64) -> (Vec<String>, usize) {
    let corpus = Scale::Small.corpus();
    let dataset = MovieLensStyleGenerator::new(corpus.clone()).generate();
    let spec = ContextSpec::grouped(
        DATASET,
        &[("user", "gender"), ("user", "age"), ("item", "genre")],
        5,
        SummarizerChoice::Lda(Scale::Small.lda(Rng::derive(seed, ORACLE, 0).next_u64())),
    );
    let ctx = build_direct(&dataset, &spec);
    let params = ProblemParams::paper_defaults(corpus.num_actions);
    let mut failures = Vec::new();
    let mut compared = 0;
    for id in 1..=6 {
        let p: TagDmProblem = problem(id, params);
        let exact = ExactSolver::new().solve(&ctx, &p);
        let heuristics: [Box<dyn Solver>; 4] = [
            Box::new(SmLshSolver::new(ConstraintMode::Fold)),
            Box::new(SmLshSolver::new(ConstraintMode::Filter)),
            Box::new(DvFdpSolver::new(ConstraintMode::Fold)),
            Box::new(DvFdpSolver::new(ConstraintMode::Filter)),
        ];
        for solver in heuristics {
            let outcome = solver.solve(&ctx, &p);
            if !outcome.feasible {
                continue;
            }
            compared += 1;
            if !exact.feasible || outcome.objective > exact.objective + 1e-9 {
                failures.push(format!(
                    "problem {id}: {} objective {} beats Exact {} (feasible {})",
                    outcome.solver, outcome.objective, exact.objective, exact.feasible
                ));
            }
        }
    }
    (failures, compared)
}
