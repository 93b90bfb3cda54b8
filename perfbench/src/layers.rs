//! The traced replay: the head of the workload's generated stream, passed
//! through the public functions of each crate on the request path and timed
//! from outside the crates.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tagdm_cluster::{Cluster, ClusterConfig, ClusterMetricsSnapshot};
use tagdm_core::context::{MiningContext, SummarizerChoice};
use tagdm_core::criteria::TaggingDimension;
use tagdm_core::problem::TagDmProblem;
use tagdm_core::solvers::{ConstraintMode, DvFdpSolver, SmLshSolver, Solver, SolverOutcome};
use tagdm_engine::{CacheReport, JobId, SolveRequest, SolveResponse, SolverChoice};
use tagdm_geometry::dispersion::max_avg_greedy;
use tagdm_geometry::distance::DistanceMatrix;
use tagdm_lsh::index::{LshConfig, LshIndex};
use tagdm_net::proto::{AnswerFrame, Frame, SolveFrame, HEADER_LEN};
use tagdm_net::{Client, ClientConfig, Server, ServerConfig};
use tagdm_topics::corpus::Corpus;
use tagdm_topics::frequency::FrequencySummarizer;
use tagdm_topics::lda::LdaSummarizer;
use tagdm_topics::summarizer::GroupSummarizer;

use crate::check::{enumerate, summarizer};
use crate::inputs::Inputs;
use crate::report::{metric, Metric};
use crate::service::Service;
use crate::stats::{mean, median, quantile};
use crate::trace::{Span, Tracer};

/// `Cluster::shard_for` is sub-microsecond, so each lookup is timed over this many calls.
const ROUTE_REPS: u32 = 256;
/// The paper's SM-LSH settings: d' = 10 bits, l = 1 table, and the solver's default seed.
const LSH_BITS: usize = 10;
const LSH_SEED: u64 = 0x5A17;

pub struct Replay {
    pub metrics: Vec<Metric>,
    pub spans: Vec<Span>,
    /// Mean time to enumerate the groups of one context and build it.
    pub context_ms: f64,
    /// Mean time of one replayed request's solve with its own solver.
    pub solve_ms: f64,
}

#[derive(Default)]
struct Samples {
    enumerate_ms: Vec<f64>,
    groups: Vec<f64>,
    summarize_ms: Vec<f64>,
    sweeps_per_s: Vec<f64>,
    build_ms: Vec<f64>,
    encode_ms: Vec<f64>,
    sm_lsh_ms: Vec<f64>,
    dv_fdp_ms: Vec<f64>,
    own_solve_ms: Vec<f64>,
    sm_lsh_candidates: Vec<f64>,
    dv_fdp_candidates: Vec<f64>,
    lsh_build_us: Vec<f64>,
    bucket_size: Vec<f64>,
    matrix_us: Vec<f64>,
    greedy_us: Vec<f64>,
    codec_us: Vec<f64>,
    request_bytes: Vec<f64>,
    answer_bytes: Vec<f64>,
    overhead_us: Vec<f64>,
    route_us: Vec<f64>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn replay(inputs: &Inputs, service: &Service, origin: Instant) -> Result<Replay, String> {
    let dataset = service.dataset();
    let mut tracer = Tracer::new(origin, 8);
    let mut s = Samples::default();
    let requests: Vec<(u64, SolveRequest)> = (0..inputs.kind.replay_calls())
        .flat_map(|index| {
            inputs
                .call(index)
                .requests
                .into_iter()
                .map(move |r| (index, r))
        })
        .collect();

    // tagdm-data, tagdm-topics and the context half of tagdm-core.
    let mut contexts: HashMap<String, MiningContext> = HashMap::new();
    for (index, request) in &requests {
        let key = request.context.key().as_str().to_string();
        if contexts.contains_key(&key) {
            continue;
        }
        let index = *index;
        let root = tracer.open("replay.context", None, index);
        let (groups, t_enumerate) = tracer.time("data.enumerate", Some(root), index, || {
            enumerate(&dataset, &request.context)
        });
        s.enumerate_ms.push(ms(t_enumerate));
        s.groups.push(groups.len() as f64);
        let choice = summarizer(&request.context);
        let SummarizerChoice::Lda(lda) = choice else {
            return Err("the benchmark generates LDA contexts only".to_string());
        };
        let corpus = Corpus::from_documents(
            dataset.num_tags(),
            groups
                .iter()
                .map(|g| g.tag_counts.iter().map(|&(t, c)| (t.0, c)).collect())
                .collect(),
        );
        let (_, t_summarize) = tracer.time("topics.summarize", Some(root), index, || {
            LdaSummarizer::new(lda).summarize(&corpus)
        });
        s.summarize_ms.push(ms(t_summarize));
        s.sweeps_per_s
            .push(corpus.total_tokens() as f64 * lda.iterations as f64 / t_summarize.as_secs_f64());
        // The encode work of a build, apart from summarizing: timed with the cheap
        // frequency summarizer, because LDA's own run-to-run spread is larger than it.
        let (_, t_frequency) = tracer.time("topics.frequency", Some(root), index, || {
            FrequencySummarizer::new().summarize(&corpus)
        });
        let (_, t_light_build) = tracer.time("core.context_encode", Some(root), index, || {
            MiningContext::build(&dataset, groups.clone(), SummarizerChoice::Frequency)
        });
        s.encode_ms
            .push(ms(t_light_build.saturating_sub(t_frequency)));
        let (ctx, t_build) = tracer.time("core.context_build", Some(root), index, || {
            MiningContext::build(&dataset, groups, choice)
        });
        s.build_ms.push(ms(t_build));
        tracer.close(root);
        contexts.insert(key, ctx);
    }

    // The solver half of tagdm-core, tagdm-lsh, tagdm-geometry and the tagdm-net codec.
    for (index, request) in &requests {
        let index = *index;
        let ctx = &contexts[request.context.key().as_str()];
        let problem = &request.problem;
        let mode = match request.solver {
            SolverChoice::SmLsh(mode) | SolverChoice::DvFdp(mode) => mode,
            _ => ConstraintMode::Fold,
        };
        let root = tracer.open("replay.request", None, index);
        let (sm, t_sm) = tracer.time("core.solve.sm_lsh", Some(root), index, || {
            SmLshSolver::new(mode).solve(ctx, problem)
        });
        let (dv, t_dv) = tracer.time("core.solve.dv_fdp", Some(root), index, || {
            DvFdpSolver::new(mode).solve(ctx, problem)
        });
        s.sm_lsh_ms.push(ms(t_sm));
        s.dv_fdp_ms.push(ms(t_dv));
        s.sm_lsh_candidates.push(sm.candidates_evaluated as f64);
        s.dv_fdp_candidates.push(dv.candidates_evaluated as f64);

        let (fold_users, fold_items) = fold_flags(mode, problem);
        let vectors: Vec<Vec<(u32, f64)>> = (0..ctx.num_groups())
            .map(|i| ctx.folded_vector(i, fold_users, fold_items))
            .collect();
        let config = LshConfig {
            dims: ctx.folded_dims(fold_users, fold_items).max(1),
            num_bits: LSH_BITS,
            num_tables: 1,
            seed: LSH_SEED,
        };
        let (lsh, t_lsh) = tracer.time("lsh.index_build", Some(root), index, || {
            LshIndex::build(config, vectors.iter().map(|v| v.as_slice()))
        });
        s.lsh_build_us.push(us(t_lsh));
        s.bucket_size.push(lsh.mean_bucket_size(0));

        let (matrix, t_matrix) = tracer.time("geometry.matrix_build", Some(root), index, || {
            DistanceMatrix::from_fn(ctx.num_groups(), |i, j| {
                problem.pairwise_objective(ctx, i, j)
            })
        });
        let (_, t_greedy) = tracer.time("geometry.greedy", Some(root), index, || {
            max_avg_greedy(&matrix, problem.max_groups)
        });
        s.matrix_us.push(us(t_matrix));
        s.greedy_us.push(us(t_greedy));

        let (own, t_own) = if request
            .solver
            .instantiate(problem)
            .name()
            .starts_with("DV-FDP")
        {
            (dv, t_dv)
        } else {
            (sm, t_sm)
        };
        s.own_solve_ms.push(ms(t_own));
        let (bytes, t_codec) = tracer.time("net.codec", Some(root), index, || {
            codec_round_trip(index, request, own)
        });
        let (request_bytes, answer_bytes) = bytes?;
        s.codec_us.push(us(t_codec));
        s.request_bytes.push(request_bytes as f64);
        s.answer_bytes.push(answer_bytes as f64);
        tracer.close(root);
    }

    let snapshot = net_and_cluster(service, &requests, &mut tracer, &mut s)?;
    let routed: Vec<u64> = snapshot.shards.iter().map(|shard| shard.routed).collect();
    let share_max =
        routed.iter().copied().max().unwrap_or(0) as f64 / routed.iter().sum::<u64>().max(1) as f64;

    let context_ms = mean(&s.enumerate_ms) + mean(&s.build_ms);
    let metrics = vec![
        metric("data.enumerate_ms", median(&s.enumerate_ms), "ms"),
        metric("data.groups", mean(&s.groups), "count"),
        metric("topics.summarize_ms", median(&s.summarize_ms), "ms"),
        metric("topics.token_sweeps_per_s", median(&s.sweeps_per_s), "1/s"),
        metric("core.context_build_ms", median(&s.build_ms), "ms"),
        metric("core.context_encode_ms", median(&s.encode_ms), "ms"),
        metric("core.solve_ms.sm_lsh.p50", median(&s.sm_lsh_ms), "ms"),
        metric(
            "core.solve_ms.sm_lsh.p99",
            quantile(&s.sm_lsh_ms, 0.99),
            "ms",
        ),
        metric("core.solve_ms.dv_fdp.p50", median(&s.dv_fdp_ms), "ms"),
        metric(
            "core.solve_ms.dv_fdp.p99",
            quantile(&s.dv_fdp_ms, 0.99),
            "ms",
        ),
        metric(
            "core.candidates_per_solve.sm_lsh",
            mean(&s.sm_lsh_candidates),
            "count",
        ),
        metric(
            "core.candidates_per_solve.dv_fdp",
            mean(&s.dv_fdp_candidates),
            "count",
        ),
        metric("lsh.index_build_us", median(&s.lsh_build_us), "us"),
        metric("lsh.mean_bucket_size", mean(&s.bucket_size), "count"),
        metric("geometry.matrix_build_us", median(&s.matrix_us), "us"),
        metric("geometry.greedy_us", median(&s.greedy_us), "us"),
        metric("net.codec_us", median(&s.codec_us), "us"),
        metric("net.request_bytes", mean(&s.request_bytes), "bytes"),
        metric("net.answer_bytes", mean(&s.answer_bytes), "bytes"),
        metric("net.overhead_us", median(&s.overhead_us), "us"),
        metric("cluster.route_us", median(&s.route_us), "us"),
        metric("cluster.shard_share_max", share_max, "ratio"),
        metric(
            "cluster.spilled",
            snapshot
                .shards
                .iter()
                .map(|shard| shard.spilled)
                .sum::<u64>() as f64,
            "count",
        ),
        metric(
            "cluster.failed",
            snapshot
                .shards
                .iter()
                .map(|shard| shard.failed)
                .sum::<u64>() as f64,
            "count",
        ),
    ];
    Ok(Replay {
        metrics,
        spans: tracer.spans,
        context_ms,
        solve_ms: mean(&s.own_solve_ms),
    })
}

/// Which sides SM-LSH folds into the vectors it hashes (as `SmLshSolver` does).
fn fold_flags(mode: ConstraintMode, problem: &TagDmProblem) -> (bool, bool) {
    let mut folds = (false, false);
    if mode == ConstraintMode::Fold {
        for constraint in problem.similarity_constraints() {
            match constraint.function.dimension {
                TaggingDimension::Users => folds.0 = true,
                TaggingDimension::Items => folds.1 = true,
                TaggingDimension::Tags => {}
            }
        }
    }
    folds
}

/// Encode and decode the SOLVE frame and its ANSWER; returns both frames' sizes.
fn codec_round_trip(
    id: u64,
    request: &SolveRequest,
    outcome: SolverOutcome,
) -> Result<(usize, usize), String> {
    let solve = Frame::Solve(SolveFrame {
        id,
        request: request.clone(),
    });
    let answer = Frame::Answer(AnswerFrame {
        id,
        response: SolveResponse {
            job: JobId(id),
            result: Ok(outcome),
            cache: CacheReport::default(),
            deadline_hit: false,
            queue_wait: Duration::ZERO,
            total: Duration::ZERO,
        },
    });
    let mut sizes = [0usize; 2];
    for (frame, size) in [solve, answer].iter().zip(sizes.iter_mut()) {
        let payload = frame.encode_payload().map_err(|e| e.to_string())?;
        let decoded = Frame::decode(frame.kind(), &payload).map_err(|e| e.to_string())?;
        if &decoded != frame {
            return Err("a frame did not survive its codec round trip".to_string());
        }
        *size = HEADER_LEN + payload.len();
    }
    Ok((sizes[0], sizes[1]))
}

/// `tagdm-net` round trips against a server over the workload's engine, and
/// `tagdm-cluster` routing and solves through a 2-shard cluster of local shards
/// over the same engine. Returns the cluster's metrics.
fn net_and_cluster(
    service: &Service,
    requests: &[(u64, SolveRequest)],
    tracer: &mut Tracer,
    s: &mut Samples,
) -> Result<ClusterMetricsSnapshot, String> {
    let engine = &service.engine;
    let cluster = Cluster::builder(ClusterConfig::default())
        .local("shard-0", Arc::clone(engine))
        .local("shard-1", Arc::clone(engine))
        .build();
    let server = Server::bind("127.0.0.1:0", Arc::clone(engine), ServerConfig::default())
        .map_err(|e| format!("replay server bind failed: {e}"))?;

    let mut client = Client::connect(server.local_addr(), ClientConfig::default())
        .map_err(|e| format!("replay client connect failed: {e}"))?;
    for (index, request) in requests {
        let sent = Instant::now();
        let response = client
            .solve(request.clone())
            .map_err(|e| format!("replay solve failed: {e}"))?;
        let round_trip = sent.elapsed();
        let root = tracer.record("net.round_trip", None, *index, sent, round_trip);
        let job_start = sent + round_trip.saturating_sub(response.total) / 2;
        tracer.record("engine.job", Some(root), *index, job_start, response.total);
        s.overhead_us
            .push(us(round_trip.saturating_sub(response.total)));
    }
    drop(client);

    for (index, request) in requests {
        let key = request.context.key();
        let (_, elapsed) = tracer.time("cluster.route", None, *index, || {
            for _ in 0..ROUTE_REPS {
                black_box(cluster.shard_for(black_box(&key)));
            }
        });
        s.route_us.push(us(elapsed) / f64::from(ROUTE_REPS));
        if let Err(error) = cluster.solve(request.clone()).result {
            return Err(format!("replay cluster solve failed: {error}"));
        }
    }
    Ok(cluster.metrics())
}
