//! The benchmark's own span recorder, used only in traced runs.
//!
//! Spans are kept in memory and written out when the run ends. The
//! benchmark records a span around every call it makes into a layer
//! (`ingest.*`, `durable.*`, `supervisor.*`, `catalog.*`, `scan.*`,
//! `core.*`, and `io.*` from the timing `StoreIo` wrapper); the spans
//! the program records itself (`rel.*`, `scan.plan`, `par.*`, ...)
//! are captured with [`mob_obs::explain`] and attached as children of
//! the benchmark span that caused them. Spans of one request (a writer
//! tick, a fresh query, a window query, a reopen) share a request id.

use crate::stats::now;
use mob_obs::{Node, Snapshot};
use mob_storage::{FsIo, StoreIo};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The least share of a request's time its child spans must cover.
pub const COVERAGE_MIN: f64 = 0.95;
/// Root spans that are requests: a writer tick, a fresh query, a window
/// query, a reopen. Set-up is a root too, but not a request.
pub const REQUESTS: [&str; 4] = ["tick", "fresh", "query", "recover"];

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Span name; the part before the first `.` names the layer.
    pub name: String,
    /// The request this span belongs to.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, on the benchmark's clock. A program span captured through
    /// `explain` has no start of its own and carries its parent's.
    pub start: Duration,
    /// Total duration.
    pub dur: Duration,
    /// Entries coalesced into this record (program spans of one name
    /// under one parent are summed by `explain`).
    pub count: u64,
    /// Recorded by the program (through `explain`), not the benchmark.
    pub program: bool,
}

#[derive(Default)]
struct Buf {
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    request: u64,
}

/// A cheap, cloneable handle to the span buffer; inert when off.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Mutex<Buf>>>);

/// Time spent under one span name across the run.
#[derive(Clone, Debug, PartialEq)]
pub struct NameTimes {
    /// Span name.
    pub name: String,
    /// Entries.
    pub count: u64,
    /// Total duration.
    pub total: Duration,
    /// Duration minus the time its child spans cover.
    pub self_time: Duration,
}

/// What the recorded spans say, per name and per request kind.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Per span name, in first-seen order.
    pub names: Vec<NameTimes>,
    /// Per request-root name: (name, requests, total, covered by children).
    pub roots: Vec<(String, u64, Duration, Duration)>,
    /// Share of all request time (roots named in [`REQUESTS`]) that
    /// child spans cover.
    pub coverage: f64,
}

impl Summary {
    /// Total and self time of span `name` (zero when never entered).
    pub fn get(&self, name: &str) -> NameTimes {
        self.names
            .iter()
            .find(|n| n.name == name)
            .cloned()
            .unwrap_or(NameTimes {
                name: name.to_string(),
                count: 0,
                total: Duration::ZERO,
                self_time: Duration::ZERO,
            })
    }

    /// Self time summed per layer (the name part before the first `.`).
    pub fn layers(&self) -> Vec<(String, Duration)> {
        let mut out: Vec<(String, Duration)> = Vec::new();
        for n in &self.names {
            let layer = n.name.split('.').next().unwrap_or(&n.name);
            match out.iter_mut().find(|(l, _)| l == layer) {
                Some((_, d)) => *d += n.self_time,
                None => out.push((layer.to_string(), n.self_time)),
            }
        }
        out
    }
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer(None)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer(Some(Arc::default()))
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    fn with<R>(&self, f: impl FnOnce(&mut Buf) -> R) -> Option<R> {
        self.0
            .as_ref()
            .map(|b| f(&mut b.lock().expect("span buffer lock poisoned")))
    }

    /// Start a new request: spans opened from now on share its id.
    pub fn request(&self) {
        self.with(|b| b.request += 1);
    }

    /// Open a span named `name` under the innermost open span.
    pub fn enter(&self, name: &str) {
        self.with(|b| {
            let rec = SpanRec {
                name: name.to_string(),
                request: b.request,
                parent: b.open.last().copied(),
                start: now(),
                dur: Duration::ZERO,
                count: 1,
                program: false,
            };
            b.spans.push(rec);
            b.open.push(b.spans.len() - 1);
        });
    }

    /// Close the innermost open span.
    pub fn exit(&self) {
        self.with(|b| {
            if let Some(i) = b.open.pop() {
                let s = &mut b.spans[i];
                s.dur = now().saturating_sub(s.start);
            }
        });
    }

    /// Run `f` inside a span.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Run `f` inside a span, capturing the program's own spans with
    /// [`mob_obs::explain`] as its children. Returns the registry
    /// delta `f` caused (empty when the tracer is off: `f` then runs
    /// bare).
    pub fn explained<R>(&self, name: &str, f: impl FnOnce() -> R) -> (R, Snapshot) {
        if !self.is_on() {
            return (f(), Snapshot::default());
        }
        self.enter(name);
        let (out, report) = mob_obs::explain(name, f);
        self.with(|b| {
            if let Some(&parent) = b.open.last() {
                for child in &report.root.children {
                    attach(b, parent, child);
                }
            }
        });
        self.exit();
        (out, report.metrics().clone())
    }

    /// Summarize the recorded spans.
    pub fn summary(&self) -> Summary {
        self.with(|b| summarize(&b.spans)).unwrap_or_default()
    }

    /// Write every span as one JSON line to `dir/name`.
    pub fn write_jsonl(&self, dir: &Path, name: &str) -> mob_base::DecodeResult<()> {
        let text = self
            .with(|b| {
                let mut s = String::new();
                for rec in &b.spans {
                    let parent = rec.parent.map_or("null".to_string(), |p| p.to_string());
                    let _ = writeln!(
                        s,
                        "{{\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_ns\":{},\"dur_ns\":{},\"count\":{},\"program\":{}}}",
                        rec.name,
                        rec.request,
                        parent,
                        rec.start.as_nanos(),
                        rec.dur.as_nanos(),
                        rec.count,
                        rec.program
                    );
                }
                s
            })
            .unwrap_or_default();
        let io = FsIo::open(dir)?;
        io.write_file(name, text.as_bytes())?;
        io.sync(name)
    }
}

fn attach(b: &mut Buf, parent: usize, node: &Node) {
    let rec = SpanRec {
        name: node.name.clone(),
        request: b.request,
        parent: Some(parent),
        start: b.spans[parent].start,
        dur: Duration::from_nanos(node.total_ns),
        count: node.count,
        program: true,
    };
    b.spans.push(rec);
    let me = b.spans.len() - 1;
    for child in &node.children {
        attach(b, me, child);
    }
}

fn summarize(spans: &[SpanRec]) -> Summary {
    let mut child_sum = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_sum[p] += s.dur;
        }
    }
    let mut out = Summary::default();
    let (mut all, mut covered_all) = (Duration::ZERO, Duration::ZERO);
    for (i, s) in spans.iter().enumerate() {
        // Worker spans replayed from a parallel pool can sum past their
        // parent's wall time; self time never goes below zero.
        let self_time = s.dur.saturating_sub(child_sum[i]);
        match out.names.iter_mut().find(|n| n.name == s.name) {
            Some(n) => {
                n.count += s.count;
                n.total += s.dur;
                n.self_time += self_time;
            }
            None => out.names.push(NameTimes {
                name: s.name.clone(),
                count: s.count,
                total: s.dur,
                self_time,
            }),
        }
        if s.parent.is_none() {
            let covered = child_sum[i].min(s.dur);
            if REQUESTS.contains(&s.name.as_str()) {
                all += s.dur;
                covered_all += covered;
            }
            match out.roots.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.dur;
                    r.3 += covered;
                }
                None => out.roots.push((s.name.clone(), 1, s.dur, covered)),
            }
        }
    }
    out.coverage = if all.is_zero() {
        1.0
    } else {
        covered_all.as_secs_f64() / all.as_secs_f64()
    };
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_and_coverage() {
        let t = Tracer::on();
        t.request();
        t.span("tick", || {
            t.span("a.x", || std::thread::sleep(Duration::from_millis(4)));
            t.span("b.y", || std::thread::sleep(Duration::from_millis(4)));
        });
        let s = t.summary();
        assert_eq!(s.get("a.x").count, 1);
        assert!(s.get("tick").self_time < s.get("tick").total);
        assert!(s.coverage > 0.5 && s.coverage <= 1.0);
        assert_eq!(s.roots.len(), 1);
        assert_eq!(s.layers().len(), 3);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::off();
        let (v, delta) = t.explained("x", || 3);
        assert_eq!(v, 3);
        assert!(delta.is_empty());
        assert!(t.summary().names.is_empty());
    }
}
