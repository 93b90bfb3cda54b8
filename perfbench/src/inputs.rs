//! The generated inputs of each workload.
//!
//! The corpus is a fixed generator preset; everything else is derived from the
//! workload seed: the contexts built during set-up and call `i` of the request
//! stream. The service under test only ever sees the generated `SolveRequest`s.

use std::collections::BTreeMap;

use tagdm_core::catalog::{problem, ProblemParams};
use tagdm_core::context::SummarizerChoice;
use tagdm_core::solvers::ConstraintMode;
use tagdm_data::generator::GeneratorConfig;
use tagdm_engine::{ContextSpec, SolveRequest, SolverChoice};
use tagdm_topics::lda::LdaConfig;

use crate::report::json_str;
use crate::rng::{draw, zipf_cdf, Rng};

/// Name under which every engine registers the generated corpus.
pub const DATASET: &str = "ml";
const MIN_GROUP_SIZE: usize = 5;

// Stream ids for `Rng::derive`, one per kind of generated input.
const CALLS: u64 = 3;
const KEYS: u64 = 4;

/// Contexts built during warm-explore set-up.
const WARM_CONTEXTS: usize = 3;
const WARM_K: [usize; 4] = [2, 3, 4, 5];
const WARM_THRESHOLDS: [f64; 5] = [0.2, 0.3, 0.4, 0.5, 0.6];
/// Share of warm-explore calls per solver group: SM-LSH (Fo and Fi), DV-FDP-Fi
/// and DV-FDP-Fo. A DV-FDP solve costs 5-10x an SM-LSH one, so these shares
/// keep each family between a third and two thirds of solve time. They also put
/// `latency_p90_ms` inside the DV-FDP-Fi mode (6-11 ms) and the p99 inside
/// the DV-FDP-Fo mode (15-35 ms), not in a sparse gap between modes,
/// where a small change in the mix would move them a lot.
const WARM_MIX: [f64; 3] = [0.8, 0.15, 0.05];
/// Zipf exponent of key popularity within a solver group: mild, so the outcome
/// cache (256 entries, a sixth of the key space) hits about one call in three.
const WARM_ZIPF: f64 = 0.4;
/// Seed of the quality set: the head of the stream this seed generates, asked
/// of the service in the check phase. It is the same for every run, so the
/// answer metrics taken over it repeat exactly across seeds.
pub const QUALITY_SEED: u64 = 0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    ColdContext,
    WarmExplore,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 2] = [WorkloadKind::ColdContext, WorkloadKind::WarmExplore];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::ColdContext => "cold-context",
            WorkloadKind::WarmExplore => "warm-explore",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Calls at the head of the stream whose answers are checked against direct solves.
    pub fn check_calls(self) -> u64 {
        match self {
            WorkloadKind::ColdContext => 10,
            WorkloadKind::WarmExplore => 192,
        }
    }

    /// Calls at the head of the [`QUALITY_SEED`] stream that make up the quality
    /// set, over which the answer metrics are taken.
    pub fn quality_calls(self) -> u64 {
        match self {
            WorkloadKind::ColdContext => 4,
            WorkloadKind::WarmExplore => 192,
        }
    }

    /// Calls at the head of the stream answered before timing starts, so the
    /// outcome cache holds what it holds in steady state.
    pub fn warm_up_calls(self) -> u64 {
        match self {
            WorkloadKind::ColdContext => 0,
            WorkloadKind::WarmExplore => 512,
        }
    }

    /// Calls at the head of the stream replayed layer by layer in a traced run.
    pub fn replay_calls(self) -> u64 {
        match self {
            WorkloadKind::ColdContext => 3,
            WorkloadKind::WarmExplore => 48,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Small,
    Medium,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Medium => "medium",
        }
    }

    /// The repository's generator preset at this scale. The corpus is the same
    /// for every seed, so seeds change the requests, not the amount of work.
    pub fn corpus(self) -> GeneratorConfig {
        match self {
            Scale::Small => GeneratorConfig::small(),
            Scale::Medium => GeneratorConfig::medium(),
        }
    }

    /// The LDA settings the repository's experiments use at this scale.
    pub fn lda(self, seed: u64) -> LdaConfig {
        let (topics, iterations, burn_in) = match self {
            Scale::Small => (10, 60, 20),
            Scale::Medium => (25, 120, 40),
        };
        LdaConfig {
            iterations,
            burn_in,
            seed,
            ..LdaConfig::with_topics(topics)
        }
    }

    /// A context over two or three of gender, age and occupation plus the
    /// genre, with its own LDA seed, so every drawn spec is a distinct cache key.
    /// These groupings give similar group counts and feasible answers to the
    /// Table-1 problems, so seeds differ in data, not in how much work a call is.
    pub fn draw_context(self, rng: &mut Rng) -> ContextSpec {
        const SUBSETS: [&[&str]; 4] = [
            &["gender", "age"],
            &["gender", "occupation"],
            &["age", "occupation"],
            &["gender", "age", "occupation"],
        ];
        let users = SUBSETS[rng.below(SUBSETS.len())];
        self.context(users, rng.next_u64())
    }

    /// The context over `users` and the genre, summarized by LDA seeded with `lda_seed`.
    pub fn context(self, users: &[&str], lda_seed: u64) -> ContextSpec {
        let mut grouping: Vec<(String, String)> = users
            .iter()
            .map(|attr| ("user".to_string(), attr.to_string()))
            .collect();
        grouping.push(("item".to_string(), "genre".to_string()));
        ContextSpec::Grouped {
            dataset: DATASET.to_string(),
            grouping,
            min_group_size: MIN_GROUP_SIZE,
            summarizer: SummarizerChoice::Lda(self.lda(lda_seed)),
        }
    }
}

/// A seeded popularity order in which every run of consecutive ranks takes one
/// key from each stratum, so the seed moves which keys are hot but not the mix
/// of work the hot keys stand for.
fn stratified_order(mut strata: Vec<Vec<usize>>, rng: &mut Rng) -> Vec<usize> {
    for stratum in &mut strata {
        rng.shuffle(stratum);
    }
    let rounds = strata.iter().map(Vec::len).max().unwrap_or(0);
    let mut order = Vec::new();
    for round in 0..rounds {
        let mut picks: Vec<usize> = strata
            .iter()
            .filter_map(|s| s.get(round).copied())
            .collect();
        rng.shuffle(&mut picks);
        order.extend(picks);
    }
    order
}

/// Whether repeated answers to a call must agree with each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKey {
    /// The call's requests appear once in the stream.
    Unique,
    /// The call repeats entry `n` of [`Inputs::keys`].
    Shared(usize),
}

/// One client call: a session batch (cold-context) or a single request.
pub struct Call {
    pub requests: Vec<SolveRequest>,
    pub key: CallKey,
}

pub struct Inputs {
    pub kind: WorkloadKind,
    pub seed: u64,
    pub scale: Scale,
    pub corpus: GeneratorConfig,
    pub params: ProblemParams,
    /// Contexts built during set-up.
    pub resident: Vec<ContextSpec>,
    /// The warm-explore key space.
    pub keys: Vec<SolveRequest>,
    /// Warm-explore key indices per solver group, in seeded popularity order.
    groups: Vec<Vec<usize>>,
    group_cdfs: Vec<Vec<f64>>,
}

impl Inputs {
    pub fn generate(kind: WorkloadKind, seed: u64) -> Inputs {
        let scale = Scale::Medium;
        let corpus = scale.corpus();
        let params = ProblemParams::paper_defaults(corpus.num_actions);
        // Warm-explore's contexts are fixed: the grouping the repository's Medium
        // experiments use, with LDA seeds 0, 1 and 2. The seed then moves which
        // requests are asked, not how costly the contexts make every solve.
        // Cold-context builds nothing in set-up.
        let resident: Vec<ContextSpec> = match kind {
            WorkloadKind::ColdContext => Vec::new(),
            WorkloadKind::WarmExplore => (0..WARM_CONTEXTS as u64)
                .map(|i| scale.context(&["gender", "age", "occupation"], i))
                .collect(),
        };

        let mut keys = Vec::new();
        let mut groups = Vec::new();
        match kind {
            WorkloadKind::ColdContext => {}
            WorkloadKind::WarmExplore => {
                // Strata of similar cost: (group, problem, mode, k).
                let mut strata: BTreeMap<(usize, usize, usize, usize), Vec<usize>> =
                    BTreeMap::new();
                for spec in &resident {
                    for id in 1..=6 {
                        for k in WARM_K {
                            for threshold in WARM_THRESHOLDS {
                                let p = ProblemParams {
                                    k,
                                    user_threshold: threshold,
                                    item_threshold: threshold,
                                    ..params
                                };
                                for (m, mode) in [ConstraintMode::Fold, ConstraintMode::Filter]
                                    .into_iter()
                                    .enumerate()
                                {
                                    for (group, solver) in [
                                        (0, SolverChoice::SmLsh(mode)),
                                        (2 - m, SolverChoice::DvFdp(mode)),
                                    ] {
                                        strata
                                            .entry((group, id, m, k))
                                            .or_default()
                                            .push(keys.len());
                                        keys.push(SolveRequest::new(
                                            spec.clone(),
                                            problem(id, p),
                                            solver,
                                        ));
                                    }
                                }
                            }
                        }
                    }
                }
                let mut rng = Rng::derive(seed, KEYS, 0);
                groups = (0..WARM_MIX.len())
                    .map(|group| {
                        let members = strata
                            .iter()
                            .filter(|((g, ..), _)| *g == group)
                            .map(|(_, keys)| keys.clone())
                            .collect();
                        stratified_order(members, &mut rng)
                    })
                    .collect();
            }
        }
        let group_cdfs = groups
            .iter()
            .map(|g| zipf_cdf(g.len(), WARM_ZIPF))
            .collect();
        Inputs {
            kind,
            seed,
            scale,
            corpus,
            params,
            resident,
            keys,
            groups,
            group_cdfs,
        }
    }

    /// Call `index` of the request stream.
    pub fn call(&self, index: u64) -> Call {
        let mut rng = Rng::derive(self.seed, CALLS, index);
        match self.kind {
            WorkloadKind::ColdContext => {
                let spec = self.scale.draw_context(&mut rng);
                let requests = (1..=3)
                    .map(|id| {
                        SolveRequest::new(
                            spec.clone(),
                            problem(id, self.params),
                            SolverChoice::Recommended,
                        )
                    })
                    .collect();
                Call {
                    requests,
                    key: CallKey::Unique,
                }
            }
            WorkloadKind::WarmExplore => {
                let u = rng.unit();
                let mut group = 0;
                let mut edge = WARM_MIX[0];
                while u >= edge && group + 1 < WARM_MIX.len() {
                    group += 1;
                    edge += WARM_MIX[group];
                }
                let key = self.groups[group][draw(&self.group_cdfs[group], &mut rng)];
                Call {
                    requests: vec![self.keys[key].clone()],
                    key: CallKey::Shared(key),
                }
            }
        }
    }

    /// The generated parameters, as a JSON object for the provenance block.
    pub fn describe(&self) -> String {
        let c = &self.corpus;
        let resident: Vec<String> = self
            .resident
            .iter()
            .map(|spec| json_str(spec.key().as_str()))
            .collect();
        let mix = match self.kind {
            WorkloadKind::ColdContext => format!(
                "\"session\":\"solve_batch of problems 1-3, Recommended solver, on a new context\",\"lda\":{}",
                json_str(&format!("{:?}, seed drawn per session", self.scale.lda(0)))
            ),
            WorkloadKind::WarmExplore => format!(
                "\"key_space\":{},\"k\":{:?},\"thresholds\":{:?},\"mix_sm_lsh_dvfdp_fi_dvfdp_fo\":{:?},\"zipf_exponent\":{}",
                self.keys.len(),
                WARM_K,
                WARM_THRESHOLDS,
                WARM_MIX,
                WARM_ZIPF
            ),
        };
        format!(
            "{{\"scale\":\"{}\",\"corpus\":{{\"users\":{},\"items\":{},\"actions\":{},\"vocab\":{},\"seed\":{}}},\"params\":{{\"k\":{},\"min_support\":{},\"threshold\":{}}},\"resident\":[{}],{}}}",
            self.scale.name(),
            c.num_users,
            c.num_items,
            c.num_actions,
            c.vocab_size,
            c.seed,
            self.params.k,
            self.params.min_support,
            self.params.user_threshold,
            resident.join(","),
            mix
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed() {
        for kind in WorkloadKind::ALL {
            let a = Inputs::generate(kind, 11);
            let b = Inputs::generate(kind, 11);
            for i in 0..20 {
                assert_eq!(a.call(i).requests, b.call(i).requests);
                assert_eq!(a.call(i).key, b.call(i).key);
            }
            assert_eq!(a.describe(), b.describe());
        }
    }

    #[test]
    fn warm_key_space_exceeds_the_outcome_cache_several_times() {
        let inputs = Inputs::generate(WorkloadKind::WarmExplore, 3);
        assert_eq!(inputs.keys.len(), 3 * 6 * 4 * 5 * 4);
        assert!(inputs.keys.len() >= 5 * 256);
    }

    #[test]
    fn cold_sessions_never_repeat_a_context() {
        let inputs = Inputs::generate(WorkloadKind::ColdContext, 5);
        let mut keys: Vec<String> = (0..200)
            .map(|i| {
                inputs.call(i).requests[0]
                    .context
                    .key()
                    .as_str()
                    .to_string()
            })
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 200);
    }
}
