//! TagDM service benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-context|warm-explore> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the service up several times (reporting the median set-up time), drives
//! the workload's generated stream in a closed loop with two client threads for
//! `--seconds`, then checks the answers against direct solves and runs the
//! Exact-bound oracle. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! splits the time between an untraced and a traced loop, replays the head of
//! the stream through each crate's public functions and reports the per-layer
//! metrics. The last line of standard output is the JSON result; the
//! workloads, metrics and predictions are described in `BENCHMARK.json` and
//! `perfbench/README.md`.

mod check;
mod drive;
mod inputs;
mod layers;
mod report;
mod rng;
mod service;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use drive::{Answer, LoopRun, Until};
use inputs::{Inputs, WorkloadKind};
use report::{metric, Metric, Provenance};
use service::Service;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Spans written to the dump at most.
const SPAN_DUMP_LIMIT: usize = 50_000;

const USAGE: &str = "usage: tagdm-perfbench --workload <cold-context|warm-explore> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(WorkloadKind::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| s > 0)
                        .ok_or_else(|| bad("expected a positive integer"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(error) => {
            eprintln!("tagdm-perfbench: {error}");
            std::process::exit(1);
        }
    }
}

/// Run one benchmark; `Ok(correct)`.
fn run(args: &Args) -> Result<bool, String> {
    let origin = Instant::now();
    let inputs = Inputs::generate(args.workload, args.seed);

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut service = None;
    for _ in 0..SETUP_REPEATS {
        drop(service.take());
        let started = Instant::now();
        service = Some(Service::start(&inputs)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let service = service.expect("at least one set-up ran");

    let seconds = Duration::from_secs(args.seconds);
    let keep = inputs.kind.check_calls();
    let warm_up = drive::run(
        &inputs,
        &service,
        0,
        Until::Index(inputs.kind.warm_up_calls()),
        keep,
        false,
    );
    let first = warm_up.next_index;
    let (measured, traced) = if args.trace {
        let untraced = drive::run(
            &inputs,
            &service,
            first,
            Until::Elapsed(seconds / 2),
            keep,
            false,
        );
        let traced = drive::run(
            &inputs,
            &service,
            untraced.next_index,
            Until::Elapsed(seconds / 2),
            keep,
            true,
        );
        (untraced, Some(traced))
    } else {
        let measured = drive::run(
            &inputs,
            &service,
            first,
            Until::Elapsed(seconds),
            keep,
            false,
        );
        (measured, None)
    };
    let peak_rss_mb = stats::peak_rss_mb();
    let snapshot = service.engine.metrics();

    let timed: Vec<&LoopRun> = std::iter::once(&measured).chain(&traced).collect();
    let mut loops = vec![&warm_up];
    loops.extend(timed.iter().copied());
    let checked = check::check_answers(&inputs, &service, &loops);
    let (oracle_failures, oracle_compared) = check::exact_oracle(args.seed);

    let attempted: u64 = timed.iter().map(|run| run.attempted()).sum();
    let failed: u64 = timed.iter().map(|run| run.failed()).sum();
    let calls: usize = timed.iter().map(|run| run.samples.len()).sum();

    let mut lines = vec![format!(
        "{}: {} calls, {attempted} solves ({failed} failed) in {:.2}s; {} answers compared with direct solves; Exact-bound oracle compared {oracle_compared} heuristic answers",
        inputs.kind.name(),
        calls,
        measured.wall.as_secs_f64() + traced.as_ref().map_or(0.0, |t| t.wall.as_secs_f64()),
        checked.compared,
    )];
    let metrics = match &traced {
        None => {
            let latency = measured.latency_ms();
            lines.push(format!(
                "timed loop latency: p99 {:.4} ms, max {:.4} ms (printed, not gated)",
                stats::quantile(&latency, 0.99),
                stats::quantile(&latency, 1.0)
            ));
            end_to_end(&measured, &setups, &checked, peak_rss_mb)
        }
        Some(traced) => {
            let replay = layers::replay(&inputs, &service, origin)?;
            let mut metrics = engine_layer(traced, &snapshot);
            metrics.extend(replay.metrics.iter().cloned());
            metrics.extend(trace_summary(
                &inputs, &measured, traced, &replay, &mut lines,
            ));
            let mut spans = traced.spans.clone();
            spans.extend(replay.spans);
            let path = report::out_dir().join(format!("{}.spans.jsonl", inputs.kind.name()));
            trace::dump(&path, &spans, SPAN_DUMP_LIMIT)
                .map_err(|e| format!("span dump to {} failed: {e}", path.display()))?;
            lines.push(format!(
                "span dump: {} ({} of {} spans)",
                path.display(),
                spans.len().min(SPAN_DUMP_LIMIT),
                spans.len()
            ));
            metrics
        }
    };
    drop(service);

    let failures: Vec<&String> = checked.failures.iter().chain(&oracle_failures).collect();
    let correct = failures.is_empty();
    for failure in failures.iter().take(20) {
        lines.push(format!("CHECK FAILED: {failure}"));
    }
    let provenance = Provenance {
        workload: inputs.kind.name(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: inputs.scale.name(),
        generated: inputs.describe(),
    }
    .json();
    let result = report::result_line(correct, attempted, failed, &metrics);
    let record = format!("{{\"provenance\":{provenance},\"result\":{result}}}\n");
    let path = report::out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        inputs.kind.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::create_dir_all(report::out_dir())
        .and_then(|()| std::fs::write(&path, record))
        .map_err(|e| format!("writing {} failed: {e}", path.display()))?;

    for line in lines {
        println!("{line}");
    }
    println!("provenance {provenance}");
    println!("{result}");
    Ok(correct)
}

/// End-to-end metrics of the whole timed loop.
fn end_to_end(
    run: &LoopRun,
    setups: &[f64],
    checked: &check::Checked,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let latency = run.latency_ms();
    let attempted = run.attempted().max(1);
    let ok = attempted - run.failed();
    vec![
        metric("setup_s", stats::median(setups), "s"),
        metric("solves_per_s", run.solves_per_s(), "1/s"),
        metric("latency_p50_ms", stats::quantile(&latency, 0.5), "ms"),
        metric("latency_p90_ms", stats::quantile(&latency, 0.9), "ms"),
        metric("answered_ratio", ok as f64 / attempted as f64, "ratio"),
        metric("answer_objective_mean", checked.objective_mean, "score"),
        metric("answer_feasible_ratio", checked.feasible_ratio, "ratio"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// `tagdm-engine` metrics from the traced loop's responses and the engine's counters.
fn engine_layer(traced: &LoopRun, snapshot: &tagdm_engine::MetricsSnapshot) -> Vec<Metric> {
    let ok: Vec<&Answer> = traced.answers().filter(|a| a.error.is_none()).collect();
    let queue_us: Vec<f64> = ok
        .iter()
        .map(|a| a.queue_wait.as_secs_f64() * 1e6)
        .collect();
    let service_us: Vec<f64> = ok
        .iter()
        .map(|a| a.total.saturating_sub(a.queue_wait).as_secs_f64() * 1e6)
        .collect();
    let ratio = |hit: fn(&Answer) -> bool| {
        ok.iter().filter(|a| hit(a)).count() as f64 / ok.len().max(1) as f64
    };
    let count = |field: fn(&tagdm_engine::MetricsSnapshot) -> u64| field(snapshot) as f64;
    vec![
        metric(
            "engine.queue_wait_us.p50",
            stats::quantile(&queue_us, 0.5),
            "us",
        ),
        metric(
            "engine.queue_wait_us.p99",
            stats::quantile(&queue_us, 0.99),
            "us",
        ),
        metric("engine.service_us", stats::median(&service_us), "us"),
        metric(
            "engine.context_hit_ratio",
            ratio(|a| a.context_hit),
            "ratio",
        ),
        metric(
            "engine.outcome_hit_ratio",
            ratio(|a| a.outcome_hit),
            "ratio",
        ),
        metric(
            "engine.contexts_deduped",
            count(|m| m.context_builds_deduped),
            "count",
        ),
        metric("engine.rejected", count(|m| m.jobs_rejected), "count"),
        metric("engine.expired", count(|m| m.jobs_expired), "count"),
    ]
}

/// Per-layer self time of the traced loop, the tracing overhead and the
/// intended-dominant-layer check.
fn trace_summary(
    inputs: &Inputs,
    untraced: &LoopRun,
    traced: &LoopRun,
    replay: &layers::Replay,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let call_ns: f64 = traced
        .spans
        .iter()
        .filter(|s| s.name == "call")
        .map(|s| s.duration_ns() as f64)
        .sum::<f64>()
        .max(1.0);
    let self_ns: BTreeMap<&str, u64> = trace::self_times(&traced.spans);
    lines.push("layer self time in the traced loop (share of call time):".to_string());
    for (name, ns) in &self_ns {
        lines.push(format!(
            "  {name:16} {:10.3} ms  {:6.2}%",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / call_ns
        ));
    }
    let replay_ns = trace::self_times(&replay.spans);
    lines.push("layer self time in the replay:".to_string());
    for (name, ns) in &replay_ns {
        lines.push(format!("  {name:22} {:10.3} ms", *ns as f64 / 1e6));
    }

    let miss_service_ns: f64 = traced
        .answers()
        .filter(|a| a.error.is_none() && !a.outcome_hit)
        .map(|a| a.total.saturating_sub(a.queue_wait).as_nanos() as f64)
        .sum();
    let mut family_ns: BTreeMap<&str, f64> = BTreeMap::new();
    for record in &traced.records {
        let call = inputs.call(record.index);
        for (request, answer) in call.requests.iter().zip(&record.answers) {
            if answer.error.is_none() && !answer.outcome_hit {
                let family = match request.solver.instantiate(&request.problem).name() {
                    name if name.starts_with("DV-FDP") => "DV-FDP",
                    _ => "SM-LSH",
                };
                *family_ns.entry(family).or_default() +=
                    answer.total.saturating_sub(answer.queue_wait).as_nanos() as f64;
            }
        }
    }
    let shares: Vec<String> = family_ns
        .iter()
        .map(|(family, ns)| format!("{family} {:.1}%", 100.0 * ns / miss_service_ns.max(1.0)))
        .collect();
    lines.push(format!(
        "solve time of outcome-cache misses by solver family: {}",
        shares.join(", ")
    ));
    let (intended, basis, share) = match inputs.kind {
        // Sessions queue behind each other's builds, so session latency would
        // blur the split; compare the work of one session instead.
        WorkloadKind::ColdContext => {
            let solves_ms = replay.solve_ms * inputs.call(0).requests.len() as f64;
            (
                "context build",
                "a session's work",
                replay.context_ms / (replay.context_ms + solves_ms),
            )
        }
        WorkloadKind::WarmExplore => ("solvers", "call time", miss_service_ns / call_ns),
    };
    lines.push(format!(
        "intended dominant layer: {intended} at {:.1}% of {basis}: {}",
        100.0 * share,
        if share >= 0.5 {
            "dominant"
        } else {
            "NOT dominant (workload drift)"
        }
    ));
    let overhead = traced.solves_per_s() / untraced.solves_per_s().max(f64::MIN_POSITIVE);
    lines.push(format!(
        "tracing overhead: traced {:.1} solves/s vs untraced {:.1} solves/s (ratio {overhead:.3})",
        traced.solves_per_s(),
        untraced.solves_per_s()
    ));
    vec![
        metric("trace.overhead_ratio", overhead, "ratio"),
        metric("trace.intended_share", share, "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_contract_flags() {
        let parsed = args(&[
            "--workload",
            "warm-explore",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid flags");
        assert_eq!(parsed.workload, WorkloadKind::WarmExplore);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 10, true));
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "warm-explore",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "warm-explore",
            "--seed",
            "1",
            "--seconds",
            "1"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "warm-explore",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }
}
