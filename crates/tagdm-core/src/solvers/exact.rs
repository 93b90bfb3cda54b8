//! The brute-force Exact baseline (Section 3.1 of the paper).
//!
//! Enumerates every candidate set of groups of size `k_lo … k_hi`, checks feasibility and
//! keeps the feasible set with the largest objective. The number of candidate sets is
//! `Σ_j C(n, j)` — exponential in `k` — which is exactly why the paper develops SM-LSH
//! and DV-FDP; the Exact solver exists as the ground-truth baseline for the quality and
//! running-time comparisons of Figures 3–8.

use std::time::Instant;

use crate::context::MiningContext;
use crate::problem::TagDmProblem;
use crate::solvers::{CancelToken, Solver, SolverOutcome};

/// How many candidate evaluations pass between cancellation checks: frequent enough
/// that a deadline lands within microseconds, rare enough to stay off the hot path
/// (each evaluation is a full feasibility + objective pass over the candidate set).
const CANCEL_CHECK_MASK: u64 = 0x3F;

/// Exhaustive enumeration solver.
#[derive(Debug, Clone, Default)]
pub struct ExactSolver {
    /// Optional safety cap on the number of candidate sets evaluated (0 = unlimited).
    /// When the cap is hit the best result found so far is returned; the outcome's
    /// `candidates_evaluated` reveals the truncation.
    pub max_candidates: u64,
}

impl ExactSolver {
    /// An uncapped exact solver.
    pub fn new() -> Self {
        ExactSolver { max_candidates: 0 }
    }

    /// An exact solver that stops after evaluating `max_candidates` candidate sets.
    pub fn with_cap(max_candidates: u64) -> Self {
        ExactSolver { max_candidates }
    }
}

impl Solver for ExactSolver {
    fn name(&self) -> String {
        "Exact".to_string()
    }

    fn solve_cancellable(
        &self,
        ctx: &MiningContext,
        problem: &TagDmProblem,
        cancel: &CancelToken,
    ) -> SolverOutcome {
        let start = Instant::now();
        let n = ctx.num_groups();
        let mut best: Option<(Vec<usize>, f64)> = None;
        let mut evaluated: u64 = 0;
        let mut exhausted = false;

        let mut current: Vec<usize> = Vec::with_capacity(problem.max_groups);
        // Depth-first enumeration of subsets of size min_groups..=max_groups. The
        // recursion threads every loop variable explicitly instead of a context
        // struct so the hot path stays allocation-free; hence the argument count.
        #[allow(clippy::too_many_arguments)]
        fn recurse(
            ctx: &MiningContext,
            problem: &TagDmProblem,
            n: usize,
            start_idx: usize,
            current: &mut Vec<usize>,
            best: &mut Option<(Vec<usize>, f64)>,
            evaluated: &mut u64,
            cap: u64,
            exhausted: &mut bool,
            cancel: &CancelToken,
        ) {
            if *exhausted {
                return;
            }
            if current.len() >= problem.min_groups {
                *evaluated += 1;
                if problem.feasible(ctx, current) {
                    let objective = problem.objective(ctx, current);
                    if best.as_ref().is_none_or(|(_, b)| objective > *b) {
                        *best = Some((current.clone(), objective));
                    }
                }
                if cap > 0 && *evaluated >= cap {
                    *exhausted = true;
                    return;
                }
                if *evaluated & CANCEL_CHECK_MASK == 0 && cancel.is_cancelled() {
                    *exhausted = true;
                    return;
                }
            }
            if current.len() == problem.max_groups {
                return;
            }
            for i in start_idx..n {
                current.push(i);
                recurse(
                    ctx,
                    problem,
                    n,
                    i + 1,
                    current,
                    best,
                    evaluated,
                    cap,
                    exhausted,
                    cancel,
                );
                current.pop();
                if *exhausted {
                    return;
                }
            }
        }

        recurse(
            ctx,
            problem,
            n,
            0,
            &mut current,
            &mut best,
            &mut evaluated,
            self.max_candidates,
            &mut exhausted,
            cancel,
        );

        let elapsed = start.elapsed();
        match best {
            Some((groups, objective)) => SolverOutcome {
                solver: self.name(),
                feasible: problem.feasible(ctx, &groups),
                groups,
                objective,
                elapsed,
                candidates_evaluated: evaluated,
            },
            None => SolverOutcome {
                elapsed,
                candidates_evaluated: evaluated,
                ..SolverOutcome::null(self.name())
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{problem_1, problem_6, ProblemParams};
    use crate::criteria::{MiningCriterion, TaggingDimension};
    use crate::problem::{ObjectiveSpec, TagDmProblem};
    use crate::solvers::test_support::small_context;

    fn loose_params() -> ProblemParams {
        ProblemParams {
            k: 3,
            min_support: 2,
            user_threshold: 0.2,
            item_threshold: 0.2,
        }
    }

    #[test]
    fn exact_finds_a_feasible_optimum_when_one_exists() {
        let ctx = small_context();
        let problem = problem_1(loose_params());
        let outcome = ExactSolver::new().solve(&ctx, &problem);
        assert!(!outcome.is_null(), "the small corpus has feasible pairs");
        assert!(outcome.feasible);
        assert!(outcome.groups.len() <= 3);
        assert!(outcome.objective > 0.0);
        assert!(outcome.candidates_evaluated > 0);
        // The optimum's objective equals the problem objective re-evaluated on the set.
        assert!((problem.objective(&ctx, &outcome.groups) - outcome.objective).abs() < 1e-12);
    }

    #[test]
    fn exact_is_optimal_over_explicit_enumeration() {
        let ctx = small_context();
        let problem = problem_6(loose_params());
        let outcome = ExactSolver::new().solve(&ctx, &problem);
        // Manually enumerate all feasible pairs/triples and confirm nothing beats it.
        let n = ctx.num_groups();
        let mut best = f64::NEG_INFINITY;
        let mut sets: Vec<Vec<usize>> = Vec::new();
        for a in 0..n {
            sets.push(vec![a]);
            for b in (a + 1)..n {
                sets.push(vec![a, b]);
                for c in (b + 1)..n {
                    sets.push(vec![a, b, c]);
                }
            }
        }
        for set in sets {
            if problem.feasible(&ctx, &set) {
                best = best.max(problem.objective(&ctx, &set));
            }
        }
        assert!((outcome.objective - best).abs() < 1e-9);
    }

    #[test]
    fn exact_returns_null_when_nothing_is_feasible() {
        let ctx = small_context();
        let mut problem = problem_1(loose_params());
        problem.min_support = 1_000_000; // impossible support
        let outcome = ExactSolver::new().solve(&ctx, &problem);
        assert!(outcome.is_null());
        assert!(!outcome.feasible);
    }

    #[test]
    fn candidate_cap_truncates_the_search() {
        let ctx = small_context();
        let problem = problem_1(loose_params());
        let capped = ExactSolver::with_cap(3).solve(&ctx, &problem);
        assert!(capped.candidates_evaluated <= 3);
        let full = ExactSolver::new().solve(&ctx, &problem);
        assert!(full.candidates_evaluated > capped.candidates_evaluated);
        assert!(full.objective >= capped.objective - 1e-12);
    }

    #[test]
    fn unfired_cancel_token_leaves_the_result_unchanged() {
        let ctx = small_context();
        let problem = problem_1(loose_params());
        let direct = ExactSolver::new().solve(&ctx, &problem);
        let token = crate::solvers::CancelToken::new();
        let cancellable = ExactSolver::new().solve_cancellable(&ctx, &problem, &token);
        assert_eq!(direct.groups, cancellable.groups);
        assert_eq!(direct.objective, cancellable.objective);
        assert_eq!(
            direct.candidates_evaluated,
            cancellable.candidates_evaluated
        );
    }

    #[test]
    fn pre_fired_cancel_token_truncates_the_search() {
        let ctx = small_context();
        let problem = problem_1(loose_params());
        let full = ExactSolver::new().solve(&ctx, &problem);
        let token = crate::solvers::CancelToken::new();
        token.cancel();
        let truncated = ExactSolver::new().solve_cancellable(&ctx, &problem, &token);
        // The first checkpoint (every 64 evaluations) aborts the enumeration well
        // before the full search space is covered.
        assert!(truncated.candidates_evaluated < full.candidates_evaluated);
    }

    #[test]
    fn unconstrained_objective_only_problem_picks_the_best_pairs() {
        let ctx = small_context();
        // No constraints at all: maximize tag diversity over at most 2 groups.
        let problem = TagDmProblem::new("unconstrained", 2, 1).with_objective(
            ObjectiveSpec::standard(TaggingDimension::Tags, MiningCriterion::Diversity),
        );
        let outcome = ExactSolver::new().solve(&ctx, &problem);
        assert_eq!(outcome.groups.len(), 2);
        // The chosen pair attains the maximum pairwise diversity.
        let mut best = 0.0f64;
        for a in 0..ctx.num_groups() {
            for b in (a + 1)..ctx.num_groups() {
                best = best.max(problem.pairwise_objective(&ctx, a, b));
            }
        }
        assert!((outcome.objective - best).abs() < 1e-9);
    }
}
