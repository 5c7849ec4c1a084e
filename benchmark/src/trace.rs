//! Spans around the benchmark's own calls into each layer.
//!
//! Spans live in memory while a workload runs and are written to
//! `trace.jsonl` when it ends. The tracer is the benchmark's, not the
//! program's: it wraps call sites in this package only, so the program
//! under test is byte-for-byte the same with tracing on or off.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::median_f64;

/// Index of a span within its tracer.
pub type SpanId = u32;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one request (or one sweep cell) share this identifier.
    pub request: u64,
    /// Layer calls the interval covers: 1, or the batch size where a
    /// single call is too short to time on its own.
    pub calls: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder. When off, every method is a passthrough
/// that reads no clock.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Self {
        Self {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A tracer for another thread, on the same epoch; [`Tracer::absorb`]
    /// it when the thread is done. It records only if this one does.
    pub fn fork(&self, on: bool) -> Tracer {
        Tracer::new(self.epoch, on && self.on)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds from the epoch to `at`.
    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record an interval that has already been timed.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
        calls: u32,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
            calls,
        });
        Some(self.spans.len() as SpanId - 1)
    }

    /// Open a span whose children are recorded before it ends.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, now, now, parent, request, 1)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.ns(Instant::now());
        }
    }

    /// Time `calls` layer calls made by `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        calls: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, request, calls);
        out
    }

    /// Append another tracer's spans (a client thread's), keeping their
    /// parent links. Both tracers must share an epoch.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    /// Per-call nanoseconds of every span called `name`.
    fn per_call_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / f64::from(s.calls))
            .collect()
    }

    /// Median per-call time of the spans called `name`, or `None` when
    /// the workload never made that call.
    pub fn p50_ns(&self, name: &str) -> Option<f64> {
        let samples = self.per_call_ns(name);
        (!samples.is_empty()).then(|| median_f64(&samples))
    }

    /// Write one JSON object per span, self time included.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"request\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.calls
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if start < end {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            request: 0,
            calls: 1,
        }
    }

    #[test]
    fn a_span_without_children_is_all_self_time() {
        assert_eq!(self_times(&[span(10, 110, None)]), vec![100]);
    }

    #[test]
    fn a_child_fully_inside_is_subtracted() {
        let spans = [span(0, 100, None), span(20, 50, Some(0))];
        assert_eq!(self_times(&spans), vec![70, 30]);
    }

    #[test]
    fn adjacent_children_are_each_subtracted_once() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 50]);
    }

    #[test]
    fn overlapping_and_overhanging_children_cover_only_their_union_inside_the_parent() {
        let spans = [
            span(100, 200, None),
            span(90, 150, Some(0)),
            span(140, 260, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 0);
        let nested = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times(&nested), vec![50, 40, 10]);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing_and_still_runs_the_call() {
        let mut t = Tracer::new(Instant::now(), false);
        assert_eq!(t.time("x", None, 0, 1, || 7), 7);
        let root = t.open("root", None, 0);
        t.close(root);
        assert!(t.spans().is_empty());
        assert_eq!(t.p50_ns("x"), None);
    }

    #[test]
    fn absorbing_a_thread_tracer_keeps_parent_links() {
        let epoch = Instant::now();
        let mut main = Tracer::new(epoch, true);
        main.open("main", None, 0);
        let mut thread = Tracer::new(epoch, true);
        let parent = thread.open("request", None, 9);
        thread.time("write", parent, 9, 1, || ());
        thread.close(parent);
        main.absorb(thread);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.spans()[1].parent, None);
    }

    #[test]
    fn per_call_time_divides_a_batch_by_its_calls() {
        let mut t = Tracer::new(Instant::now(), true);
        t.spans.push(Span {
            name: "b",
            start_ns: 0,
            end_ns: 1000,
            parent: None,
            request: 0,
            calls: 10,
        });
        t.spans.push(Span {
            name: "b",
            start_ns: 0,
            end_ns: 3000,
            parent: None,
            request: 0,
            calls: 10,
        });
        t.spans.push(Span {
            name: "b",
            start_ns: 0,
            end_ns: 2000,
            parent: None,
            request: 0,
            calls: 10,
        });
        assert_eq!(t.p50_ns("b"), Some(200.0));
    }
}
