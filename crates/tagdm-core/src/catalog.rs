//! The catalogue of concrete TagDM problem instances.
//!
//! Table 1 of the paper lists the six instantiations studied in detail: all three
//! components participate, users and items are constrained, and the tag component is
//! optimized. [`problem_1`] … [`problem_6`] build exactly those. [`all_instances`]
//! enumerates the full space the framework captures (every assignment of each component
//! to constraint/objective/unused crossed with similarity/diversity, requiring at least
//! one objective), which is the space behind the paper's "112 concrete problem
//! instances" claim — our enumeration yields the 98 semantically distinct ones, since a
//! component that participates in neither C nor O has no meaningful measure.

use serde::{Deserialize, Serialize};

use crate::criteria::{MiningCriterion, TaggingDimension};
use crate::problem::{ConstraintSpec, ObjectiveSpec, TagDmProblem};

/// Shared numeric parameters of the canonical problems: the result size `k`, the support
/// threshold `p` and the user/item constraint thresholds `q` and `r`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProblemParams {
    /// Maximum number of groups `k` to return (`k_lo` is fixed at 1, as in the paper).
    pub k: usize,
    /// Group support threshold `p` (absolute tuple count).
    pub min_support: usize,
    /// User-dimension constraint threshold `q`.
    pub user_threshold: f64,
    /// Item-dimension constraint threshold `r`.
    pub item_threshold: f64,
}

impl ProblemParams {
    /// The paper's experimental setting: `k = 3`, `p = 1%` of the input tuples,
    /// `q = r = 0.5` (Section 6.1).
    pub fn paper_defaults(num_input_actions: usize) -> Self {
        ProblemParams {
            k: 3,
            min_support: (num_input_actions / 100).max(1),
            user_threshold: 0.5,
            item_threshold: 0.5,
        }
    }
}

impl Default for ProblemParams {
    fn default() -> Self {
        ProblemParams {
            k: 3,
            min_support: 1,
            user_threshold: 0.5,
            item_threshold: 0.5,
        }
    }
}

/// The criterion assignment of one Table 1 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CanonicalRow {
    /// Problem id (1–6, as in Table 1).
    pub id: usize,
    /// Criterion applied to the user dimension (a constraint).
    pub user: MiningCriterion,
    /// Criterion applied to the item dimension (a constraint).
    pub item: MiningCriterion,
    /// Criterion applied to the tag dimension (the optimization goal).
    pub tag: MiningCriterion,
}

/// The six rows of Table 1.
pub fn table_1() -> Vec<CanonicalRow> {
    use MiningCriterion::{Diversity as D, Similarity as S};
    vec![
        CanonicalRow {
            id: 1,
            user: S,
            item: S,
            tag: S,
        },
        CanonicalRow {
            id: 2,
            user: S,
            item: D,
            tag: S,
        },
        CanonicalRow {
            id: 3,
            user: D,
            item: S,
            tag: S,
        },
        CanonicalRow {
            id: 4,
            user: D,
            item: S,
            tag: D,
        },
        CanonicalRow {
            id: 5,
            user: S,
            item: D,
            tag: D,
        },
        CanonicalRow {
            id: 6,
            user: S,
            item: S,
            tag: D,
        },
    ]
}

/// Build the TagDM problem for one Table 1 row.
pub fn from_row(row: CanonicalRow, params: ProblemParams) -> TagDmProblem {
    TagDmProblem::new(
        format!("Problem {} (Table 1)", row.id),
        params.k,
        params.min_support,
    )
    .with_constraint(ConstraintSpec::standard(
        TaggingDimension::Users,
        row.user,
        params.user_threshold,
    ))
    .with_constraint(ConstraintSpec::standard(
        TaggingDimension::Items,
        row.item,
        params.item_threshold,
    ))
    .with_objective(ObjectiveSpec::standard(TaggingDimension::Tags, row.tag))
}

/// Problem 1: similar users, similar items, maximize tag **similarity**.
pub fn problem_1(params: ProblemParams) -> TagDmProblem {
    from_row(table_1()[0], params)
}

/// Problem 2: similar users, **diverse** items, maximize tag similarity — "find similar
/// user sub-populations who agree most on their tagging behaviour for a diverse set of
/// items" (Section 2.2, Problem 1 of the running examples).
pub fn problem_2(params: ProblemParams) -> TagDmProblem {
    from_row(table_1()[1], params)
}

/// Problem 3: **diverse** users, similar items, maximize tag similarity.
pub fn problem_3(params: ProblemParams) -> TagDmProblem {
    from_row(table_1()[2], params)
}

/// Problem 4: **diverse** users, similar items, maximize tag **diversity** — "find
/// diverse user sub-populations who disagree most on their tagging behaviour for a
/// similar set of items" (Section 2.2, Problem 4).
pub fn problem_4(params: ProblemParams) -> TagDmProblem {
    from_row(table_1()[3], params)
}

/// Problem 5: similar users, **diverse** items, maximize tag **diversity**.
pub fn problem_5(params: ProblemParams) -> TagDmProblem {
    from_row(table_1()[4], params)
}

/// Problem 6: similar users, similar items, maximize tag **diversity**.
pub fn problem_6(params: ProblemParams) -> TagDmProblem {
    from_row(table_1()[5], params)
}

/// Problem `id` (1–6) of Table 1.
pub fn problem(id: usize, params: ProblemParams) -> TagDmProblem {
    assert!(
        (1..=6).contains(&id),
        "Table 1 defines problems 1 through 6"
    );
    from_row(table_1()[id - 1], params)
}

/// All six canonical problems, in Table 1 order.
pub fn canonical_problems(params: ProblemParams) -> Vec<TagDmProblem> {
    table_1()
        .into_iter()
        .map(|row| from_row(row, params))
        .collect()
}

/// The role of one tagging component in a problem instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ComponentRole {
    /// The component appears among the hard constraints with the given criterion.
    Constraint(MiningCriterion),
    /// The component appears in the optimization goal with the given criterion.
    Objective(MiningCriterion),
    /// The component does not participate.
    Unused,
}

impl ComponentRole {
    /// All five possible roles of a component.
    pub const ALL: [ComponentRole; 5] = [
        ComponentRole::Constraint(MiningCriterion::Similarity),
        ComponentRole::Constraint(MiningCriterion::Diversity),
        ComponentRole::Objective(MiningCriterion::Similarity),
        ComponentRole::Objective(MiningCriterion::Diversity),
        ComponentRole::Unused,
    ];
}

/// Enumerate every semantically distinct problem instance the framework captures: each
/// of the three components takes one of five roles (constraint/objective × criterion, or
/// unused), and at least one component must be an objective. Constraint thresholds come
/// from `params` (`q` for users, `r` for items, `q` for tags).
pub fn all_instances(params: ProblemParams) -> Vec<TagDmProblem> {
    let mut problems = Vec::new();
    let dims = [
        TaggingDimension::Users,
        TaggingDimension::Items,
        TaggingDimension::Tags,
    ];
    for &user_role in &ComponentRole::ALL {
        for &item_role in &ComponentRole::ALL {
            for &tag_role in &ComponentRole::ALL {
                let roles = [user_role, item_role, tag_role];
                if !roles
                    .iter()
                    .any(|r| matches!(r, ComponentRole::Objective(_)))
                {
                    continue;
                }
                let mut problem = TagDmProblem::new(
                    format!("instance-{}", problems.len() + 1),
                    params.k,
                    params.min_support,
                );
                for (dim, role) in dims.iter().zip(roles.iter()) {
                    match role {
                        ComponentRole::Constraint(criterion) => {
                            let threshold = match dim {
                                TaggingDimension::Users | TaggingDimension::Tags => {
                                    params.user_threshold
                                }
                                TaggingDimension::Items => params.item_threshold,
                            };
                            problem = problem.with_constraint(ConstraintSpec::standard(
                                *dim, *criterion, threshold,
                            ));
                        }
                        ComponentRole::Objective(criterion) => {
                            problem =
                                problem.with_objective(ObjectiveSpec::standard(*dim, *criterion));
                        }
                        ComponentRole::Unused => {}
                    }
                }
                problems.push(problem);
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_1_has_six_rows_matching_the_paper() {
        let rows = table_1();
        assert_eq!(rows.len(), 6);
        // Problems 1-3 optimize tag similarity, 4-6 tag diversity.
        for row in &rows[..3] {
            assert_eq!(row.tag, MiningCriterion::Similarity);
        }
        for row in &rows[3..] {
            assert_eq!(row.tag, MiningCriterion::Diversity);
        }
        // Row 4 is diverse users, similar items.
        assert_eq!(rows[3].user, MiningCriterion::Diversity);
        assert_eq!(rows[3].item, MiningCriterion::Similarity);
    }

    #[test]
    fn canonical_problems_constrain_users_items_and_optimize_tags() {
        let params = ProblemParams::default();
        for (i, problem) in canonical_problems(params).iter().enumerate() {
            problem.validate().unwrap();
            assert_eq!(problem.constraints.len(), 2);
            assert_eq!(problem.objectives.len(), 1);
            assert_eq!(
                problem.objectives[0].function.dimension,
                TaggingDimension::Tags
            );
            assert_eq!(problem.max_groups, params.k);
            assert!(problem.name.contains(&format!("{}", i + 1)));
        }
    }

    #[test]
    fn problem_accessors_agree_with_canonical_list() {
        let params = ProblemParams::default();
        let all = canonical_problems(params);
        for id in 1..=6 {
            assert_eq!(problem(id, params), all[id - 1]);
        }
        assert_eq!(problem_1(params), all[0]);
        assert_eq!(problem_2(params), all[1]);
        assert_eq!(problem_3(params), all[2]);
        assert_eq!(problem_4(params), all[3]);
        assert_eq!(problem_5(params), all[4]);
        assert_eq!(problem_6(params), all[5]);
    }

    #[test]
    #[should_panic(expected = "1 through 6")]
    fn out_of_range_problem_id_panics() {
        problem(7, ProblemParams::default());
    }

    #[test]
    fn paper_defaults_use_one_percent_support() {
        let params = ProblemParams::paper_defaults(33_322);
        assert_eq!(params.k, 3);
        assert_eq!(params.min_support, 333);
        assert_eq!(params.user_threshold, 0.5);
    }

    #[test]
    fn all_instances_enumerates_the_framework_space() {
        let instances = all_instances(ProblemParams::default());
        // 5 roles per component, 3 components, minus assignments with no objective:
        // 5^3 − 3^3 = 98 semantically distinct instances.
        assert_eq!(instances.len(), 98);
        for p in &instances {
            p.validate().unwrap();
            assert!(!p.objectives.is_empty());
            assert!(p.constraints.len() + p.objectives.len() <= 3);
        }
        // The six canonical problems appear in the enumeration (modulo the name).
        let canonical = canonical_problems(ProblemParams::default());
        for c in &canonical {
            assert!(
                instances.iter().any(|i| i.constraints == c.constraints
                    && i.objectives == c.objectives
                    && i.max_groups == c.max_groups),
                "canonical problem missing from enumeration: {}",
                c.name
            );
        }
    }
}
