//! Figures 3–6: execution time and result quality of the Exact baseline against the
//! LSH-based solvers (Problems 1–3) and the FDP-based solvers (Problems 4–6).
//!
//! The paper runs all six Table 1 instantiations over the full corpus with `k = 3`,
//! `p = 1%`, `q = r = 50%`, `l = 1` hash table and an initial `d′ = 10`, and reports the
//! wall-clock time (Figures 3 and 5) and the average pairwise cosine similarity of the
//! returned tag signature vectors (Figures 4 and 6). This module reproduces those runs;
//! absolute times differ from the paper's Python prototype, but the *shape* — the
//! heuristics beating Exact by orders of magnitude at comparable quality — is what the
//! reproduction checks (see `EXPERIMENTS.md`).

use serde::{Deserialize, Serialize};

use tagdm_core::catalog::{self, ProblemParams};
use tagdm_core::evaluation::{evaluate, QualityReport};
use tagdm_core::problem::TagDmProblem;
use tagdm_core::solvers::{ConstraintMode, DvFdpSolver, ExactSolver, SmLshSolver, Solver};

use crate::report::{format_ms, format_speedup, render_table};
use crate::workloads::Workload;

/// One (problem, solver) measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolverRun {
    /// Problem id (1–6 of Table 1).
    pub problem_id: usize,
    /// Problem name.
    pub problem: String,
    /// Solver name.
    pub solver: String,
    /// The quality report (time, objective, tag-signature similarity, feasibility).
    pub report: QualityReport,
}

/// The full record behind one of Figures 3–6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonResult {
    /// Experiment scale name.
    pub scale: String,
    /// Number of tagging-action tuples in the corpus.
    pub num_actions: usize,
    /// Number of candidate groups.
    pub num_groups: usize,
    /// Problem parameters used.
    pub params: ProblemParams,
    /// Whether the Exact baseline was candidate-capped (only relevant at paper scale).
    pub exact_capped: bool,
    /// All (problem, solver) measurements.
    pub runs: Vec<SolverRun>,
}

impl ComparisonResult {
    /// The runs belonging to one problem id.
    pub fn runs_for(&self, problem_id: usize) -> Vec<&SolverRun> {
        self.runs
            .iter()
            .filter(|r| r.problem_id == problem_id)
            .collect()
    }

    /// The measurement of one (problem, solver) pair.
    pub fn run(&self, problem_id: usize, solver: &str) -> Option<&SolverRun> {
        self.runs
            .iter()
            .find(|r| r.problem_id == problem_id && r.solver == solver)
    }

    /// Render the execution-time table (Figure 3 or 5).
    pub fn time_table(&self, title: &str) -> String {
        let mut rows = Vec::new();
        let mut problem_ids: Vec<usize> = self.runs.iter().map(|r| r.problem_id).collect();
        problem_ids.sort_unstable();
        problem_ids.dedup();
        for pid in problem_ids {
            let runs = self.runs_for(pid);
            let exact_ms = runs
                .iter()
                .find(|r| r.solver == "Exact")
                .map(|r| r.report.elapsed_ms)
                .unwrap_or(0.0);
            for run in runs {
                rows.push(vec![
                    format!("Problem {pid}"),
                    run.solver.clone(),
                    format_ms(run.report.elapsed_ms),
                    format_speedup(exact_ms, run.report.elapsed_ms),
                    run.report.candidates_evaluated.to_string(),
                ]);
            }
        }
        render_table(
            title,
            &[
                "problem",
                "solver",
                "time",
                "speedup vs Exact",
                "candidates",
            ],
            &rows,
        )
    }

    /// Render the quality table (Figure 4 or 6).
    pub fn quality_table(&self, title: &str) -> String {
        let mut rows = Vec::new();
        let mut problem_ids: Vec<usize> = self.runs.iter().map(|r| r.problem_id).collect();
        problem_ids.sort_unstable();
        problem_ids.dedup();
        for pid in problem_ids {
            for run in self.runs_for(pid) {
                rows.push(vec![
                    format!("Problem {pid}"),
                    run.solver.clone(),
                    format!("{:.4}", run.report.avg_pairwise_tag_similarity),
                    format!("{:.4}", run.report.avg_pairwise_tag_diversity),
                    format!("{:.4}", run.report.objective),
                    if run.report.null_result {
                        "null".to_string()
                    } else if run.report.feasible {
                        "yes".to_string()
                    } else {
                        "no".to_string()
                    },
                ]);
            }
        }
        render_table(
            title,
            &[
                "problem",
                "solver",
                "tag sim",
                "tag div",
                "objective",
                "feasible",
            ],
            &rows,
        )
    }
}

/// Budget for the Exact baseline at paper scale, where full enumeration of C(n, 3)
/// candidate sets is intractable (which is the paper's point).
const EXACT_CANDIDATE_CAP: u64 = 5_000_000;

fn run_problem(
    workload: &Workload,
    problem_id: usize,
    problem: &TagDmProblem,
    solvers: &[&dyn Solver],
) -> Vec<SolverRun> {
    solvers
        .iter()
        .map(|solver| {
            let outcome = solver.solve(&workload.context, problem);
            SolverRun {
                problem_id,
                problem: problem.name.clone(),
                solver: outcome.solver.clone(),
                report: evaluate(&workload.context, problem, &outcome),
            }
        })
        .collect()
}

fn exact_solver(workload: &Workload) -> (ExactSolver, bool) {
    // At paper scale cap the brute force so the experiment terminates; the cap is
    // reported in the result record.
    let needs_cap = workload.num_groups() > 1_500;
    if needs_cap {
        (ExactSolver::with_cap(EXACT_CANDIDATE_CAP), true)
    } else {
        (ExactSolver::new(), false)
    }
}

/// Figures 3–4: Problems 1, 2 and 3 (tag-similarity maximization) solved by Exact,
/// SM-LSH-Fi and SM-LSH-Fo.
pub fn run_similarity(workload: &Workload, params: ProblemParams) -> ComparisonResult {
    let (exact, capped) = exact_solver(workload);
    let lsh_fi = SmLshSolver::new(ConstraintMode::Filter);
    let lsh_fo = SmLshSolver::new(ConstraintMode::Fold);
    let solvers: Vec<&dyn Solver> = vec![&exact, &lsh_fi, &lsh_fo];

    let mut runs = Vec::new();
    for pid in 1..=3 {
        let problem = catalog::problem(pid, params);
        runs.extend(run_problem(workload, pid, &problem, &solvers));
    }
    ComparisonResult {
        scale: workload.scale.name().to_string(),
        num_actions: workload.dataset.num_actions(),
        num_groups: workload.num_groups(),
        params,
        exact_capped: capped,
        runs,
    }
}

/// Figures 5–6: Problems 4, 5 and 6 (tag-diversity maximization) solved by Exact,
/// DV-FDP-Fi and DV-FDP-Fo.
pub fn run_diversity(workload: &Workload, params: ProblemParams) -> ComparisonResult {
    let (exact, capped) = exact_solver(workload);
    let fdp_fi = DvFdpSolver::new(ConstraintMode::Filter);
    let fdp_fo = DvFdpSolver::new(ConstraintMode::Fold);
    let solvers: Vec<&dyn Solver> = vec![&exact, &fdp_fi, &fdp_fo];

    let mut runs = Vec::new();
    for pid in 4..=6 {
        let problem = catalog::problem(pid, params);
        runs.extend(run_problem(workload, pid, &problem, &solvers));
    }
    ComparisonResult {
        scale: workload.scale.name().to_string(),
        num_actions: workload.dataset.num_actions(),
        num_groups: workload.num_groups(),
        params,
        exact_capped: capped,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{ExperimentScale, Workload};

    fn small_workload() -> Workload {
        Workload::build(ExperimentScale::Small)
    }

    /// One run's answer: `(problem_id, solver, groups, objective bits, feasible,
    /// candidates_evaluated)`.
    type Answer<'a> = (usize, &'a str, &'a [usize], u64, bool, u64);

    /// Figures 3–4 at Small scale with the relaxed parameters, bit for bit.
    const SIMILARITY_ANSWERS: [Answer<'static>; 9] = [
        (1, "Exact", &[32, 60], 0x3fefb72b422fda2b, true, 54809),
        (1, "SM-LSH-Fi", &[11, 41], 0x3fef88179cb00a5b, true, 44),
        (1, "SM-LSH-Fo", &[18, 48], 0x3fef4ce35508a956, true, 118),
        (2, "Exact", &[66, 67], 0x3fef87dfe5dd8d06, true, 54809),
        (2, "SM-LSH-Fi", &[48, 52], 0x3fef82cac5ea43db, true, 42),
        (2, "SM-LSH-Fo", &[66, 67], 0x3fef87dfe5dd8d06, true, 81),
        (3, "Exact", &[32, 60], 0x3fefb72b422fda2b, true, 54809),
        (3, "SM-LSH-Fi", &[11, 41], 0x3fef88179cb00a5b, true, 44),
        (3, "SM-LSH-Fo", &[32, 60], 0x3fefb72b422fda2b, true, 54),
    ];

    /// Figures 5–6 at Small scale with the relaxed parameters, bit for bit.
    const DIVERSITY_ANSWERS: [Answer<'static>; 9] = [
        (4, "Exact", &[11, 16, 28], 0x3fd64fb38ae96903, true, 54809),
        (4, "DV-FDP-Fi", &[], 0x0000000000000000, false, 2346),
        (
            4,
            "DV-FDP-Fo",
            &[11, 28, 34],
            0x3fd5102f74935f5a,
            true,
            5133,
        ),
        (5, "Exact", &[11, 16], 0x3fdd65c0db4d8a2a, true, 54809),
        (5, "DV-FDP-Fi", &[2, 16, 33], 0x3fd9168566d5c555, true, 2346),
        (5, "DV-FDP-Fo", &[2, 11, 16], 0x3fd96c228e8199b9, true, 5906),
        (6, "Exact", &[16, 28, 33], 0x3fd5aff62bcfd1f4, true, 54809),
        (6, "DV-FDP-Fi", &[], 0x0000000000000000, false, 2346),
        (
            6,
            "DV-FDP-Fo",
            &[28, 34, 45],
            0x3fd36baa73f19ea3,
            true,
            4965,
        ),
    ];

    fn assert_answers(runs: &[SolverRun], expected: &[Answer]) {
        let actual: Vec<Answer> = runs
            .iter()
            .map(|run| {
                (
                    run.problem_id,
                    run.solver.as_str(),
                    run.report.groups.as_slice(),
                    run.report.objective.to_bits(),
                    run.report.feasible,
                    run.report.candidates_evaluated,
                )
            })
            .collect();
        assert_eq!(actual, expected);
    }

    /// SM-LSH on Problems 1–3 at the larger sizes `warm-explore` also asks for, `k = 4`
    /// and `k = 5`, at Small scale with the relaxed thresholds, bit for bit.
    const SM_LSH_K4_ANSWERS: [Answer<'static>; 6] = [
        (1, "SM-LSH-Fi", &[11, 41], 0x3fef88179cb00a5b, true, 48),
        (1, "SM-LSH-Fo", &[18, 48], 0x3fef4ce35508a956, true, 121),
        (2, "SM-LSH-Fi", &[48, 52], 0x3fef82cac5ea43db, true, 46),
        (2, "SM-LSH-Fo", &[66, 67], 0x3fef87dfe5dd8d06, true, 90),
        (3, "SM-LSH-Fi", &[11, 41], 0x3fef88179cb00a5b, true, 48),
        (3, "SM-LSH-Fo", &[32, 60], 0x3fefb72b422fda2b, true, 61),
    ];
    const SM_LSH_K5_ANSWERS: [Answer<'static>; 6] = [
        (1, "SM-LSH-Fi", &[11, 41], 0x3fef88179cb00a5b, true, 52),
        (1, "SM-LSH-Fo", &[18, 48], 0x3fef4ce35508a956, true, 121),
        (2, "SM-LSH-Fi", &[48, 52], 0x3fef82cac5ea43db, true, 50),
        (2, "SM-LSH-Fo", &[66, 67], 0x3fef87dfe5dd8d06, true, 95),
        (3, "SM-LSH-Fi", &[11, 41], 0x3fef88179cb00a5b, true, 52),
        (3, "SM-LSH-Fo", &[32, 60], 0x3fefb72b422fda2b, true, 68),
    ];

    #[test]
    fn similarity_comparison_runs_all_nine_measurements() {
        let workload = small_workload();
        let result = run_similarity(&workload, workload.relaxed_params());
        assert_eq!(result.runs.len(), 9);
        assert!(!result.exact_capped);
        assert_answers(&result.runs, &SIMILARITY_ANSWERS);
        for pid in 1..=3 {
            let runs = result.runs_for(pid);
            assert_eq!(runs.len(), 3);
            let exact = result.run(pid, "Exact").unwrap();
            // The heuristics never beat Exact on the objective when all are feasible.
            for solver in ["SM-LSH-Fi", "SM-LSH-Fo"] {
                let run = result.run(pid, solver).unwrap();
                if !run.report.null_result && !exact.report.null_result {
                    assert!(run.report.objective <= exact.report.objective + 1e-9);
                }
            }
        }
        let table = result.time_table("Figure 3");
        assert!(table.contains("Problem 1"));
        assert!(table.contains("SM-LSH-Fo"));
        let quality = result.quality_table("Figure 4");
        assert!(quality.contains("tag sim"));
    }

    #[test]
    fn diversity_comparison_runs_all_nine_measurements() {
        let workload = small_workload();
        let result = run_diversity(&workload, workload.relaxed_params());
        assert_eq!(result.runs.len(), 9);
        assert_answers(&result.runs, &DIVERSITY_ANSWERS);
        for pid in 4..=6 {
            assert_eq!(result.runs_for(pid).len(), 3);
            let exact = result.run(pid, "Exact").unwrap();
            let fo = result.run(pid, "DV-FDP-Fo").unwrap();
            if !exact.report.null_result && !fo.report.null_result {
                assert!(fo.report.objective <= exact.report.objective + 1e-9);
                // Factor-4 guarantee holds comfortably in practice.
                assert!(fo.report.objective * 4.0 + 1e-9 >= exact.report.objective);
            }
        }
    }

    #[test]
    fn sm_lsh_answers_at_k_4_and_5_are_pinned() {
        let workload = small_workload();
        let lsh_fi = SmLshSolver::new(ConstraintMode::Filter);
        let lsh_fo = SmLshSolver::new(ConstraintMode::Fold);
        for (k, expected) in [(4, &SM_LSH_K4_ANSWERS), (5, &SM_LSH_K5_ANSWERS)] {
            let params = ProblemParams {
                k,
                ..workload.relaxed_params()
            };
            let runs: Vec<SolverRun> = (1..=3)
                .flat_map(|pid| {
                    let problem = catalog::problem(pid, params);
                    run_problem(&workload, pid, &problem, &[&lsh_fi, &lsh_fo])
                })
                .collect();
            assert_answers(&runs, expected);
        }
    }

    #[test]
    fn heuristics_find_results_on_the_small_workload() {
        let workload = small_workload();
        let params = workload.relaxed_params();
        let sim = run_similarity(&workload, params);
        let div = run_diversity(&workload, params);
        let heuristic_runs: Vec<&SolverRun> = sim
            .runs
            .iter()
            .chain(div.runs.iter())
            .filter(|r| r.solver != "Exact")
            .collect();
        let found = heuristic_runs
            .iter()
            .filter(|r| !r.report.null_result)
            .count();
        assert!(
            found * 2 >= heuristic_runs.len(),
            "at least half of the heuristic runs should return results ({found}/{})",
            heuristic_runs.len()
        );
    }
}
