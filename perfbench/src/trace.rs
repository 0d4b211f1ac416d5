//! Spans recorded around the benchmark's own calls into each layer, and
//! their Chrome trace-event rendering.
//!
//! Each operation (a sweep unit, a verdict sample, a request) is one
//! [`OpTrace`]: a root span plus the child spans of the layer calls made
//! inside it. Spans stay in memory until the run ends. The part of a
//! root that no child covers is the operation's *gap*; when it exceeds
//! [`GAP_TOLERANCE`] of the root it is written to the trace as its own
//! `bench.gap` span, so the children of every root always account for
//! its whole wall time.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Share of a root span its children may leave uncovered before the
/// remainder is shown as a named gap.
pub const GAP_TOLERANCE: f64 = 0.05;

/// Events written to a trace file at most; the metrics always use every
/// span, the file keeps the first operations.
pub const MAX_TRACE_EVENTS: usize = 100_000;

/// One timed interval, relative to the run's trace origin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Layer call name (`<crate>.<stage>`).
    pub name: &'static str,
    /// Start since the origin.
    pub start: Duration,
    /// Duration.
    pub dur: Duration,
}

/// One operation's root span and the layer calls inside it.
#[derive(Clone, Debug, PartialEq)]
pub struct OpTrace {
    /// Operation id (unit, sample or request index in the pass).
    pub id: u64,
    /// Small per-thread index (the trace's `tid`).
    pub tid: u32,
    /// The root span.
    pub root: Span,
    /// Child spans, in call order.
    pub children: Vec<Span>,
}

impl OpTrace {
    /// Root time no child covers (children never overlap: they are
    /// sequential calls on the root's thread).
    pub fn gap(&self) -> Duration {
        let covered: Duration = self.children.iter().map(|c| c.dur).sum();
        self.root.dur.saturating_sub(covered)
    }

    /// Whether the children cover the root within [`GAP_TOLERANCE`].
    pub fn reconciled(&self) -> bool {
        self.gap().as_secs_f64() <= GAP_TOLERANCE * self.root.dur.as_secs_f64()
    }

    /// Summed duration of the children named `name`.
    pub fn child_total(&self, name: &str) -> Duration {
        self.children
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.dur)
            .sum()
    }
}

/// Times the layer calls of one operation.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    start: Instant,
    children: Vec<Span>,
}

impl Recorder {
    /// Starts an operation's root span now.
    pub fn start(origin: Instant) -> Recorder {
        Recorder {
            origin,
            start: Instant::now(),
            children: Vec::new(),
        }
    }

    /// Runs `f` as a child span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.children.push(Span {
            name,
            start: t0.duration_since(self.origin),
            dur: t0.elapsed(),
        });
        out
    }

    /// Records an already measured child span.
    pub fn push(&mut self, name: &'static str, t0: Instant, dur: Duration) {
        self.children.push(Span {
            name,
            start: t0.duration_since(self.origin),
            dur,
        });
    }

    /// Ends the root span now.
    pub fn finish(self, name: &'static str, id: u64) -> OpTrace {
        OpTrace {
            id,
            tid: thread_index(),
            root: Span {
                name,
                start: self.start.duration_since(self.origin),
                dur: self.start.elapsed(),
            },
            children: self.children,
        }
    }
}

/// A small, stable index for the calling thread (the first thread to ask
/// gets 1).
pub fn thread_index() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local!(static INDEX: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    INDEX.with(|i| *i)
}

fn event(out: &mut String, span: &Span, tid: u32, id: u64, parent: Option<&str>) {
    let _ = write!(
        out,
        "{{\"name\": \"{}\", \"cat\": \"rtpf\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
         \"pid\": 1, \"tid\": {tid}, \"args\": {{\"id\": {id}",
        span.name,
        span.start.as_secs_f64() * 1e6,
        span.dur.as_secs_f64() * 1e6,
    );
    if let Some(p) = parent {
        let _ = write!(out, ", \"parent\": \"{p}\"");
    }
    out.push_str("}},\n");
}

/// The intervals of `op`'s root no child covers, as `bench.gap` spans.
fn gaps(op: &OpTrace) -> Vec<Span> {
    let root_end = op.root.start + op.root.dur;
    let intervals = op
        .children
        .iter()
        .map(|c| (c.start, c.start + c.dur))
        .chain(std::iter::once((root_end, root_end)));
    let mut out = Vec::new();
    let mut cursor = op.root.start;
    for (start, end) in intervals {
        if start > cursor + Duration::from_micros(1) {
            out.push(Span {
                name: "bench.gap",
                start: cursor,
                dur: start - cursor,
            });
        }
        cursor = cursor.max(end);
    }
    out
}

/// Renders operations as Chrome trace-event JSON (Perfetto and
/// `chrome://tracing` open it). Children carry their root's name as
/// `parent` and share its `id`; an unreconciled root gets a `bench.gap`
/// child covering the remainder. Stops before [`MAX_TRACE_EVENTS`];
/// returns the JSON, its event count and the operations it holds.
pub fn chrome_json(ops: &[OpTrace]) -> (String, usize, usize) {
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    let mut events = 0;
    let mut written = 0;
    for op in ops {
        // Root, children, and at most one gap before each child and one
        // after the last.
        if events + 2 * op.children.len() + 2 > MAX_TRACE_EVENTS {
            break;
        }
        written += 1;
        event(&mut out, &op.root, op.tid, op.id, None);
        for c in &op.children {
            event(&mut out, c, op.tid, op.id, Some(op.root.name));
        }
        events += 1 + op.children.len();
        if !op.reconciled() {
            for gap in gaps(op) {
                event(&mut out, &gap, op.tid, op.id, Some(op.root.name));
                events += 1;
            }
        }
    }
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
        out.push('\n');
    }
    out.push_str("]}\n");
    (out, events, written)
}
