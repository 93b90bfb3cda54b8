//! The SM-LSH solver family (Section 4 of the paper): tag-similarity maximization via
//! random-hyperplane locality sensitive hashing.
//!
//! The algorithm hashes every group's tag signature vector into `l` hash tables of
//! `d′`-bit signatures (Algorithm 1). Instead of using the buckets for nearest-neighbour
//! queries, it *ranks the buckets with the mining scoring function* and returns the best
//! bucket whose size fits `1 ≤ |G_opt| ≤ k`. If no bucket qualifies, the number of hash
//! bits `d′` is halved (fewer bits → larger buckets) and hashing is repeated, down to a
//! single bit.
//!
//! Constraint handling:
//!
//! * **SM-LSH-Fi** ([`ConstraintMode::Filter`]): buckets are post-filtered for the hard
//!   constraints (user/item similarity or diversity thresholds plus group support).
//! * **SM-LSH-Fo** ([`ConstraintMode::Fold`]): the *similarity* constraints are folded
//!   into the hashed vector — the group's unarized (boolean) user and/or item attribute
//!   vectors are concatenated with its tag signature (Section 4.3) — so that groups
//!   agreeing on the constrained attributes are more likely to share a bucket; the
//!   remaining constraints are post-checked as in filtering.
//!
//! One practical extension over the paper's pseudo-code: buckets larger than `k` are not
//! discarded but greedily refined to their best subsets of every admissible size, which
//! avoids needless null results when `d′` is small.

use std::time::Instant;

use tagdm_lsh::index::{LshConfig, LshIndex};

use crate::context::MiningContext;
use crate::criteria::TaggingDimension;
use crate::problem::TagDmProblem;
use crate::solvers::{greedy_picks, CancelToken, ConstraintMode, Solver, SolverOutcome};

/// Tag-similarity maximization by locality sensitive hashing.
#[derive(Debug, Clone)]
pub struct SmLshSolver {
    /// How hard constraints are handled.
    pub mode: ConstraintMode,
    /// Number of hash tables `l` (the paper's experiments use 1).
    pub num_tables: usize,
    /// Initial number of hash bits `d′` (the paper's experiments use 10); the iterative
    /// relaxation halves it, down to 1, while no bucket qualifies.
    pub initial_bits: usize,
    /// RNG seed for the hyperplane families.
    pub seed: u64,
}

impl SmLshSolver {
    /// A solver with the paper's default parameters (`l = 1`, `d′ = 10`).
    pub fn new(mode: ConstraintMode) -> Self {
        SmLshSolver {
            mode,
            num_tables: 1,
            initial_bits: 10,
            seed: 0x5A17,
        }
    }

    /// Override the number of hash tables.
    pub fn with_tables(mut self, num_tables: usize) -> Self {
        self.num_tables = num_tables.max(1);
        self
    }

    /// Override the initial number of hash bits.
    pub fn with_bits(mut self, bits: usize) -> Self {
        self.initial_bits = bits.max(1);
        self
    }

    /// Override the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Which attribute blocks the folding variant concatenates: the dimensions with a
    /// *similarity* constraint (folding a diversity constraint into a similarity hash
    /// would be counter-productive, as the paper notes in Section 4.4).
    fn fold_dimensions(&self, problem: &TagDmProblem) -> (bool, bool) {
        if self.mode != ConstraintMode::Fold {
            return (false, false);
        }
        let mut fold_users = false;
        let mut fold_items = false;
        for c in problem.similarity_constraints() {
            match c.function.dimension {
                TaggingDimension::Users => fold_users = true,
                TaggingDimension::Items => fold_items = true,
                TaggingDimension::Tags => {}
            }
        }
        (fold_users, fold_items)
    }

    /// Evaluate every bucket of an index, returning the best candidate set and the
    /// number of candidate sets evaluated.
    fn evaluate_buckets(
        &self,
        ctx: &MiningContext,
        problem: &TagDmProblem,
        index: &LshIndex,
        cancel: &CancelToken,
    ) -> (Option<(Vec<usize>, f64)>, u64) {
        let mut best: Option<(Vec<usize>, f64)> = None;
        let mut evaluated = 0u64;
        for bucket in index.all_buckets() {
            if cancel.is_cancelled() {
                break;
            }
            if bucket.len() < problem.min_groups {
                continue;
            }
            // Candidate sets drawn from this bucket: the bucket itself when it fits, and
            // greedy sub-selections of every admissible smaller size, so that a feasible
            // high-scoring pair inside an oversized or partly constraint-violating bucket
            // is not lost. One greedy run to the largest such size yields every smaller
            // one as a prefix of its picks.
            let mut candidates: Vec<Vec<usize>> = Vec::new();
            if bucket.len() <= problem.max_groups {
                candidates.push(bucket.to_vec());
            }
            let largest = problem.max_groups.min(bucket.len().saturating_sub(1));
            let picks = greedy_picks(ctx, problem, bucket, largest, |_| true);
            for size in (problem.min_groups..=largest).rev() {
                candidates.push(match size {
                    1 => vec![bucket[0]],
                    _ => sorted(picks[..size].to_vec()),
                });
            }
            // A constraint-aware selection rescues buckets whose objective-best subset
            // violates a hard constraint that some other subset satisfies.
            if self.mode != ConstraintMode::Ignore && !problem.constraints.is_empty() {
                let feasible = greedy_picks(ctx, problem, bucket, problem.max_groups, |set| {
                    problem.constraints_satisfied(ctx, set)
                });
                candidates.push(sorted(feasible));
            }
            // A support-oriented selection (the bucket's largest groups) rescues buckets
            // whose objective-best subsets cover too few tuples to meet the group-support
            // threshold p.
            if self.mode != ConstraintMode::Ignore && problem.min_support > 1 {
                let mut by_size = bucket.to_vec();
                by_size.sort_by_key(|&g| std::cmp::Reverse(ctx.group(g).len()));
                by_size.truncate(problem.max_groups);
                candidates.push(sorted(by_size));
            }

            for candidate in candidates {
                if candidate.is_empty() {
                    continue;
                }
                evaluated += 1;
                let acceptable = match self.mode {
                    ConstraintMode::Ignore => problem.size_ok(candidate.len()),
                    ConstraintMode::Filter | ConstraintMode::Fold => {
                        problem.feasible(ctx, &candidate)
                    }
                };
                if !acceptable {
                    continue;
                }
                let objective = problem.objective(ctx, &candidate);
                if best.as_ref().is_none_or(|(_, b)| objective > *b) {
                    best = Some((candidate, objective));
                }
            }
        }
        (best, evaluated)
    }
}

/// `set` sorted in ascending order.
fn sorted(mut set: Vec<usize>) -> Vec<usize> {
    set.sort_unstable();
    set
}

impl Solver for SmLshSolver {
    fn name(&self) -> String {
        format!("SM-LSH{}", self.mode.suffix())
    }

    fn solve_cancellable(
        &self,
        ctx: &MiningContext,
        problem: &TagDmProblem,
        cancel: &CancelToken,
    ) -> SolverOutcome {
        let start = Instant::now();
        let (fold_users, fold_items) = self.fold_dimensions(problem);
        let dims = ctx.folded_dims(fold_users, fold_items).max(1);
        let vectors: Vec<Vec<(u32, f64)>> = (0..ctx.num_groups())
            .map(|i| ctx.folded_vector(i, fold_users, fold_items))
            .collect();

        let mut evaluated_total = 0u64;
        let mut best: Option<(Vec<usize>, f64)> = None;

        // Iterative relaxation of d′ (Algorithm 1): start from the configured d′; on a
        // null result, halve it (fewer bits → larger buckets) and rehash.
        let mut bits = self.initial_bits;
        while bits > 0 {
            let index = LshIndex::build(
                LshConfig {
                    dims,
                    num_bits: bits,
                    num_tables: self.num_tables,
                    seed: self.seed,
                },
                vectors.iter().map(|v| v.as_slice()),
            );
            let (found, evaluated) = self.evaluate_buckets(ctx, problem, &index, cancel);
            evaluated_total += evaluated;
            if found.is_some() {
                best = found;
                break;
            }
            // A fired token ends the relaxation: rehashing with fewer bits restarts the
            // whole bucket sweep, which a deadline-bound caller cannot afford.
            if cancel.is_cancelled() {
                break;
            }
            bits /= 2;
        }

        let elapsed = start.elapsed();
        match best {
            Some((groups, objective)) => SolverOutcome {
                solver: self.name(),
                feasible: problem.feasible(ctx, &groups),
                groups,
                objective,
                elapsed,
                candidates_evaluated: evaluated_total,
            },
            None => SolverOutcome {
                elapsed,
                candidates_evaluated: evaluated_total,
                ..SolverOutcome::null(self.name())
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{problem_1, problem_2, problem_3, ProblemParams};
    use crate::solvers::test_support::small_context;
    use crate::solvers::ExactSolver;

    fn loose_params() -> ProblemParams {
        ProblemParams {
            k: 3,
            min_support: 2,
            user_threshold: 0.2,
            item_threshold: 0.2,
        }
    }

    #[test]
    fn names_follow_the_paper() {
        assert_eq!(SmLshSolver::new(ConstraintMode::Ignore).name(), "SM-LSH");
        assert_eq!(SmLshSolver::new(ConstraintMode::Filter).name(), "SM-LSH-Fi");
        assert_eq!(SmLshSolver::new(ConstraintMode::Fold).name(), "SM-LSH-Fo");
    }

    #[test]
    fn lsh_finds_a_similarity_maximizing_set() {
        let ctx = small_context();
        let problem = problem_1(loose_params());
        for mode in [ConstraintMode::Filter, ConstraintMode::Fold] {
            let outcome = SmLshSolver::new(mode).with_bits(6).solve(&ctx, &problem);
            assert!(!outcome.is_null(), "{mode:?} should find a result");
            assert!(
                outcome.feasible,
                "{mode:?} result should satisfy constraints"
            );
            assert!(outcome.groups.len() <= 3);
            assert!(outcome.objective > 0.0);
        }
    }

    #[test]
    fn lsh_quality_is_close_to_exact() {
        let ctx = small_context();
        for problem in [
            problem_1(loose_params()),
            problem_2(loose_params()),
            problem_3(loose_params()),
        ] {
            let exact = ExactSolver::new().solve(&ctx, &problem);
            // Several short hash tables: on this tiny corpus a single long signature
            // separates near-identical groups too aggressively (the paper's d' = 10 is
            // tuned for thousands of groups).
            let lsh = SmLshSolver::new(ConstraintMode::Fold)
                .with_bits(4)
                .with_tables(4)
                .solve(&ctx, &problem);
            assert!(!exact.is_null());
            assert!(!lsh.is_null(), "{}", problem.name);
            // LSH is approximate: allow a modest quality gap but never a better-than-
            // optimal result.
            assert!(lsh.objective <= exact.objective + 1e-9, "{}", problem.name);
            assert!(
                lsh.objective >= 0.5 * exact.objective,
                "{}: lsh {} vs exact {}",
                problem.name,
                lsh.objective,
                exact.objective
            );
        }
    }

    #[test]
    fn relaxation_recovers_from_too_many_bits() {
        let ctx = small_context();
        let problem = problem_1(loose_params());
        // With an absurdly large d′ every group initially lands in its own bucket, and a
        // single group scores 0 against the thresholds, so the first pass finds nothing;
        // halving d′ must still find a result.
        let outcome = SmLshSolver::new(ConstraintMode::Filter)
            .with_bits(48)
            .solve(&ctx, &problem);
        assert!(
            !outcome.is_null(),
            "relaxation should eventually produce buckets"
        );
    }

    #[test]
    fn unsatisfiable_constraints_produce_null_results() {
        let ctx = small_context();
        let mut problem = problem_1(loose_params());
        problem.min_support = 1_000_000;
        let outcome = SmLshSolver::new(ConstraintMode::Filter).solve(&ctx, &problem);
        assert!(outcome.is_null());
        assert!(!outcome.feasible);
    }

    #[test]
    fn ignore_mode_skips_constraint_checks() {
        let ctx = small_context();
        let mut problem = problem_1(loose_params());
        problem.min_support = 1_000_000; // impossible, but Ignore mode does not care
        let outcome = SmLshSolver::new(ConstraintMode::Ignore)
            .with_bits(4)
            .solve(&ctx, &problem);
        assert!(!outcome.is_null());
        assert!(
            !outcome.feasible,
            "result exists but does not meet the support bar"
        );
    }

    #[test]
    fn folding_uses_a_larger_hash_space() {
        let ctx = small_context();
        let problem = problem_1(loose_params());
        let solver = SmLshSolver::new(ConstraintMode::Fold);
        let (fold_users, fold_items) = solver.fold_dimensions(&problem);
        assert!(
            fold_users && fold_items,
            "Problem 1 constrains both dimensions to similarity"
        );
        assert!(ctx.folded_dims(fold_users, fold_items) > ctx.signature_dims());

        // Problem 3 has a *diversity* user constraint: only items are folded.
        let p3 = problem_3(loose_params());
        let (fu, fi) = solver.fold_dimensions(&p3);
        assert!(!fu && fi);

        // Filtering never folds.
        let fi_solver = SmLshSolver::new(ConstraintMode::Filter);
        assert_eq!(fi_solver.fold_dimensions(&problem), (false, false));
    }

    #[test]
    fn cancellation_preserves_results_until_fired() {
        let ctx = small_context();
        let problem = problem_1(loose_params());
        let solver = SmLshSolver::new(ConstraintMode::Fold).with_bits(4);
        let direct = solver.solve(&ctx, &problem);
        let token = crate::solvers::CancelToken::new();
        let cancellable = solver.solve_cancellable(&ctx, &problem, &token);
        assert_eq!(direct.groups, cancellable.groups);
        assert_eq!(direct.objective, cancellable.objective);

        // A token fired before the solve starts suppresses every bucket evaluation.
        token.cancel();
        let truncated = solver.solve_cancellable(&ctx, &problem, &token);
        assert_eq!(truncated.candidates_evaluated, 0);
        assert!(truncated.is_null());
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let ctx = small_context();
        let problem = problem_1(loose_params());
        let a = SmLshSolver::new(ConstraintMode::Fold)
            .with_seed(9)
            .solve(&ctx, &problem);
        let b = SmLshSolver::new(ConstraintMode::Fold)
            .with_seed(9)
            .solve(&ctx, &problem);
        assert_eq!(a.groups, b.groups);
        assert_eq!(a.objective, b.objective);
    }
}
