//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory and written out when the run ends. A span's self
//! time is its duration minus the part of it that its children cover.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The stream index of the call that caused the span; spans of one call share it.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder; `base` keeps ids unique across recorders.
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, base: u64) -> Self {
        Tracer {
            origin,
            next_id: base << 40,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span from `start` lasting `length`, returning its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        length: Duration,
    ) -> u64 {
        let start_ns = self.ns(start);
        self.push(
            name,
            parent,
            request,
            start_ns,
            start_ns + length.as_nanos() as u64,
        )
    }

    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        self.next_id += 1;
        self.spans.push(Span {
            id: self.next_id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        self.next_id
    }

    /// Start a span that [`Tracer::close`] ends, so children can name it as parent.
    pub fn open(&mut self, name: &'static str, parent: Option<u64>, request: u64) -> u64 {
        let now = self.ns(Instant::now());
        self.push(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: u64) {
        let now = self.ns(Instant::now());
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.end_ns = now;
        }
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        self.record(name, parent, request, start, elapsed);
        (out, elapsed)
    }
}

/// Total self time per span name, in nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    let mut totals = BTreeMap::new();
    for span in spans {
        let covered = children
            .get(&span.id)
            .map_or(0, |kids| covered_ns(span.start_ns, span.end_ns, kids));
        *totals.entry(span.name).or_insert(0) += span.duration_ns().saturating_sub(covered);
    }
    totals
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Write up to `limit` spans as JSON lines.
pub fn dump(path: &Path, spans: &[Span], limit: usize) -> std::io::Result<()> {
    let mut out = String::new();
    for span in spans.iter().take(limit) {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            span.id, parent, span.request, span.name, span.start_ns, span.end_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin, 0);
        let root = tracer.push("call", None, 1, 0, 100);
        tracer.push("a", Some(root), 1, 10, 40);
        tracer.push("b", Some(root), 1, 30, 50);
        tracer.push("c", Some(root), 1, 90, 120);
        let totals = self_times(&tracer.spans);
        assert_eq!(totals["call"], 100 - 40 - 10);
        assert_eq!(totals["a"], 30);
        assert_eq!(totals["c"], 30);
    }
}
