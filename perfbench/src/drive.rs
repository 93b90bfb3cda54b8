//! The closed loop: two client threads, each sending its next call only after
//! the previous one is answered.
//!
//! Every call leaves a small fixed-size [`Sample`], so the benchmark's own
//! bookkeeping barely moves `peak_rss_mb`; full answers are kept only for the
//! calls the check phase compares and for traced loops.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use tagdm_core::solvers::SolverOutcome;
use tagdm_engine::SolveResponse;

use crate::inputs::{CallKey, Inputs};
use crate::service::Service;
use crate::trace::{Span, Tracer};

/// Client threads, one per core of the 2-core machine the benchmark targets.
pub const CLIENTS: usize = 2;

/// What every call leaves behind: 16 bytes.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Latency of the call as the client sees it.
    pub latency_ns: u64,
    pub ok: u16,
    pub failed: u16,
}

/// Samples one client reserves up front. Untouched capacity is not resident,
/// and a vector that never regrows never holds two copies of itself, so the
/// benchmark's own bookkeeping adds little to `peak_rss_mb`.
const RESERVED_SAMPLES: usize = 1 << 21;

pub struct Answer {
    /// `None` when the response was `Ok`.
    pub error: Option<String>,
    pub queue_wait: Duration,
    pub total: Duration,
    pub context_hit: bool,
    pub outcome_hit: bool,
    /// The full outcome, kept only for calls the check phase compares.
    pub outcome: Option<SolverOutcome>,
}

impl Answer {
    fn from_response(response: SolveResponse, keep: bool) -> Answer {
        let (error, outcome) = match response.result {
            Ok(outcome) => (None, keep.then_some(outcome)),
            Err(error) => (Some(error.to_string()), None),
        };
        Answer {
            error,
            queue_wait: response.queue_wait,
            total: response.total,
            context_hit: response.cache.context_hit,
            outcome_hit: response.cache.outcome_hit,
            outcome,
        }
    }
}

/// Hash of every outcome field except `elapsed`.
fn digest(outcome: &SolverOutcome) -> u64 {
    let mut hasher = DefaultHasher::new();
    outcome.solver.hash(&mut hasher);
    outcome.groups.hash(&mut hasher);
    outcome.objective.to_bits().hash(&mut hasher);
    outcome.feasible.hash(&mut hasher);
    outcome.candidates_evaluated.hash(&mut hasher);
    hasher.finish()
}

/// A call kept in full.
pub struct CallRecord {
    pub index: u64,
    pub answers: Vec<Answer>,
}

/// The answers seen per shared key, and every call that disagreed with them.
#[derive(Default)]
pub struct Agreement {
    /// Digest of the first answer seen per key, with the index of its call.
    first: HashMap<usize, (u64, u64)>,
    pub conflicts: Vec<String>,
}

impl Agreement {
    fn note(&mut self, key: usize, digest: u64, index: u64) {
        let (expected, first) = *self.first.entry(key).or_insert((digest, index));
        if expected != digest {
            self.conflicts.push(format!(
                "call {index} answered key {key} differently from call {first}"
            ));
        }
    }

    pub fn merge(&mut self, other: &Agreement) {
        for (&key, &(digest, index)) in &other.first {
            self.note(key, digest, index);
        }
        self.conflicts.extend(other.conflicts.iter().cloned());
    }
}

pub struct LoopRun {
    pub samples: Vec<Sample>,
    /// Calls kept in full, in stream order.
    pub records: Vec<CallRecord>,
    pub agreement: Agreement,
    /// From the first send to the last answer.
    pub wall: Duration,
    pub spans: Vec<Span>,
    /// The first stream index no client claimed.
    pub next_index: u64,
}

impl LoopRun {
    /// Answers of the calls kept in full (every call of a traced loop).
    pub fn answers(&self) -> impl Iterator<Item = &Answer> {
        self.records.iter().flat_map(|r| r.answers.iter())
    }

    pub fn attempted(&self) -> u64 {
        self.samples
            .iter()
            .map(|s| u64::from(s.ok + s.failed))
            .sum()
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().map(|s| u64::from(s.failed)).sum()
    }

    pub fn solves_per_s(&self) -> f64 {
        (self.attempted() - self.failed()) as f64 / self.wall.as_secs_f64()
    }

    pub fn latency_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect()
    }
}

/// When a loop stops sending calls.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Elapsed(Duration),
    /// The stream index at which to stop.
    Index(u64),
}

/// Run the stream from `first_index` until `until`. Calls below `keep_below`
/// keep their full outcomes; `traced` records spans around every call.
pub fn run(
    inputs: &Inputs,
    service: &Service,
    first_index: u64,
    until: Until,
    keep_below: u64,
    traced: bool,
) -> LoopRun {
    let next = AtomicU64::new(first_index);
    let origin = Instant::now();
    let (deadline, end) = match until {
        Until::Elapsed(duration) => (Some(origin + duration), u64::MAX),
        Until::Index(end) => (None, end),
    };
    let per_client: Vec<ClientRun> = thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let tracer = traced.then(|| Tracer::new(origin, client as u64 + 1));
                    client_loop(inputs, service, next, (deadline, end), keep_below, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall = origin.elapsed();
    let mut run = LoopRun {
        samples: Vec::with_capacity(RESERVED_SAMPLES),
        records: Vec::new(),
        agreement: Agreement::default(),
        wall,
        spans: Vec::new(),
        next_index: next.load(Ordering::SeqCst).min(end),
    };
    for client in per_client {
        run.samples.extend(client.samples);
        run.records.extend(client.records);
        run.agreement.merge(&client.agreement);
        run.spans.extend(client.spans);
    }
    run.records.sort_by_key(|r| r.index);
    run
}

#[derive(Default)]
struct ClientRun {
    samples: Vec<Sample>,
    records: Vec<CallRecord>,
    agreement: Agreement,
    spans: Vec<Span>,
}

fn client_loop(
    inputs: &Inputs,
    service: &Service,
    next: &AtomicU64,
    (deadline, end): (Option<Instant>, u64),
    keep_below: u64,
    mut tracer: Option<Tracer>,
) -> ClientRun {
    let mut out = ClientRun {
        samples: Vec::with_capacity(RESERVED_SAMPLES),
        ..ClientRun::default()
    };
    while deadline.is_none_or(|deadline| Instant::now() < deadline) {
        let index = next.fetch_add(1, Ordering::SeqCst);
        if index >= end {
            break;
        }
        let call = inputs.call(index);
        let sent = Instant::now();
        let responses = service.execute(&call);
        let latency = sent.elapsed();
        if let Some(tracer) = tracer.as_mut() {
            trace_call(tracer, index, sent, latency, &responses);
        }
        let mut sample = Sample {
            latency_ns: latency.as_nanos() as u64,
            ok: 0,
            failed: 0,
        };
        let kept = index < keep_below;
        let mut answers = Vec::new();
        for response in responses {
            match (&response.result, call.key) {
                (Ok(outcome), CallKey::Shared(key)) => {
                    sample.ok += 1;
                    out.agreement.note(key, digest(outcome), index);
                }
                (Ok(_), CallKey::Unique) => sample.ok += 1,
                (Err(_), _) => sample.failed += 1,
            }
            if kept || tracer.is_some() {
                answers.push(Answer::from_response(response, kept));
            }
        }
        if !answers.is_empty() {
            out.records.push(CallRecord { index, answers });
        }
        out.samples.push(sample);
    }
    out.spans = tracer.map(|t| t.spans).unwrap_or_default();
    out
}

/// Spans of one call. Every job of the call starts when the call is sent; the
/// engine's own timings split it into queue wait and service.
fn trace_call(
    tracer: &mut Tracer,
    index: u64,
    sent: Instant,
    latency: Duration,
    responses: &[SolveResponse],
) {
    let root = tracer.record("call", None, index, sent, latency);
    for response in responses {
        let job = tracer.record("engine.job", Some(root), index, sent, response.total);
        tracer.record("engine.queue", Some(job), index, sent, response.queue_wait);
        tracer.record(
            "engine.service",
            Some(job),
            index,
            sent + response.queue_wait,
            response.total.saturating_sub(response.queue_wait),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disagreeing_answers_to_one_key_are_conflicts() {
        let mut a = Agreement::default();
        a.note(3, 7, 0);
        a.note(3, 7, 1);
        assert!(a.conflicts.is_empty());
        let mut b = Agreement::default();
        b.note(3, 8, 2);
        a.merge(&b);
        assert_eq!(a.conflicts.len(), 1);
    }
}
