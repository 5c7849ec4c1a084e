//! Span tracing: begin/end events with parent linkage.
//!
//! A span is one timed region of a run — "run", one engine phase, one
//! collective — identified by a [`SpanId`] and positioned in a tree via an
//! optional parent. Timestamps are opaque `u64` *ticks* supplied by the
//! caller; the engine passes simulated picoseconds, keeping this crate
//! free of host clocks. A [`TraceBuffer`] accumulates the events of one
//! run in begin order and can reconstruct the tree or dump JSONL.

/// Identifier of one span within a [`TraceBuffer`] (1-based; ids are
/// assigned in begin order). [`SpanId::NULL`] is the id the no-op
/// recorder hands out — it never names a real span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The non-span: returned by recorders that drop trace data.
    pub const NULL: SpanId = SpanId(0);

    /// Whether this id names a real span.
    pub fn is_null(&self) -> bool {
        self.0 == 0
    }
}

/// One span: a named region with caller-supplied begin/end ticks and an
/// optional parent span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// This span's id.
    pub id: SpanId,
    /// Region name (e.g. the phase name).
    pub name: String,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Tick value at entry (opaque; simulated picoseconds in the engine).
    pub begin_ticks: u64,
    /// Tick value at exit; `None` while the span is open.
    pub end_ticks: Option<u64>,
}

impl SpanEvent {
    /// Ticks spent in the span, if it was closed.
    pub fn duration_ticks(&self) -> Option<u64> {
        self.end_ticks.map(|e| e.saturating_sub(self.begin_ticks))
    }
}

/// One finished span in a batch submission (see `Recorder::span_many`):
/// `parent` indexes an **earlier** entry of the same batch; `None` makes
/// a root.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord<'a> {
    /// Span name.
    pub name: &'a str,
    /// Index of the parent within the batch (must be smaller than this
    /// entry's own index; anything else is treated as a root).
    pub parent: Option<usize>,
    /// Opaque begin tick.
    pub begin_ticks: u64,
    /// Opaque end tick.
    pub end_ticks: u64,
}

/// Per-run span storage: events in begin order, tree queries, JSONL dump.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    events: Vec<SpanEvent>,
}

impl TraceBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a span; returns its id. `parent` of `None` makes a root.
    pub fn begin(&mut self, name: &str, parent: Option<SpanId>, begin_ticks: u64) -> SpanId {
        let id = SpanId(self.events.len() as u64 + 1);
        self.events.push(SpanEvent {
            id,
            name: name.to_string(),
            parent: parent.filter(|p| !p.is_null()),
            begin_ticks,
            end_ticks: None,
        });
        id
    }

    /// Close a span. Ends on unknown/null ids are ignored (they come from
    /// spans begun against a different recorder), and the first end wins.
    pub fn end(&mut self, id: SpanId, end_ticks: u64) {
        if id.is_null() {
            return;
        }
        if let Some(ev) = self.events.get_mut(id.0 as usize - 1) {
            if ev.end_ticks.is_none() {
                ev.end_ticks = Some(end_ticks);
            }
        }
    }

    /// All events, in begin order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Look an event up by id.
    pub fn get(&self, id: SpanId) -> Option<&SpanEvent> {
        if id.is_null() {
            return None;
        }
        self.events.get(id.0 as usize - 1)
    }

    /// Ids of parentless spans, in begin order.
    pub fn roots(&self) -> Vec<SpanId> {
        self.events
            .iter()
            .filter(|e| e.parent.is_none())
            .map(|e| e.id)
            .collect()
    }

    /// Direct children of `id`, in begin order.
    pub fn children(&self, id: SpanId) -> Vec<SpanId> {
        self.events
            .iter()
            .filter(|e| e.parent == Some(id))
            .map(|e| e.id)
            .collect()
    }

    /// Render the trace as JSONL: one object per span, in begin order,
    /// e.g. `{"id":2,"name":"collision","parent":1,"begin":0,"end":812}`.
    /// Open spans render `"end":null`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str("{\"id\":");
            out.push_str(&e.id.0.to_string());
            out.push_str(",\"name\":\"");
            out.push_str(&escape_json(&e.name));
            out.push_str("\",\"parent\":");
            match e.parent {
                Some(p) => out.push_str(&p.0.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(",\"begin\":");
            out.push_str(&e.begin_ticks.to_string());
            out.push_str(",\"end\":");
            match e.end_ticks {
                Some(t) => out.push_str(&t.to_string()),
                None => out.push_str("null"),
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// the one escape function in the workspace (`pvs_core::json::escape`
/// re-exports it).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_end_round_trip() {
        let mut t = TraceBuffer::new();
        let root = t.begin("run", None, 0);
        let child = t.begin("collision", Some(root), 10);
        t.end(child, 50);
        t.end(root, 60);
        assert_eq!(t.get(root).unwrap().duration_ticks(), Some(60));
        assert_eq!(t.get(child).unwrap().duration_ticks(), Some(40));
        assert_eq!(t.get(child).unwrap().parent, Some(root));
    }

    #[test]
    fn tree_queries_reconstruct_nesting() {
        let mut t = TraceBuffer::new();
        let run = t.begin("run", None, 0);
        let a = t.begin("a", Some(run), 1);
        let b = t.begin("b", Some(run), 2);
        let a1 = t.begin("a1", Some(a), 3);
        assert_eq!(t.roots(), vec![run]);
        assert_eq!(t.children(run), vec![a, b]);
        assert_eq!(t.children(a), vec![a1]);
        assert!(t.children(b).is_empty());
    }

    #[test]
    fn null_parent_becomes_root() {
        let mut t = TraceBuffer::new();
        let s = t.begin("orphan", Some(SpanId::NULL), 0);
        assert_eq!(t.get(s).unwrap().parent, None);
        assert_eq!(t.roots(), vec![s]);
    }

    #[test]
    fn end_on_null_or_unknown_is_ignored() {
        let mut t = TraceBuffer::new();
        t.end(SpanId::NULL, 5);
        t.end(SpanId(99), 5);
        let s = t.begin("s", None, 0);
        t.end(s, 7);
        t.end(s, 9); // first end wins
        assert_eq!(t.get(s).unwrap().end_ticks, Some(7));
    }

    #[test]
    fn jsonl_shape() {
        let mut t = TraceBuffer::new();
        let run = t.begin("run", None, 0);
        let ph = t.begin("ph\"1\"", Some(run), 5);
        t.end(ph, 9);
        let dump = t.to_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"id\":1,\"name\":\"run\",\"parent\":null,\"begin\":0,\"end\":null}"
        );
        assert_eq!(
            lines[1],
            "{\"id\":2,\"name\":\"ph\\\"1\\\"\",\"parent\":1,\"begin\":5,\"end\":9}"
        );
    }

    #[test]
    fn escape_handles_control_chars() {
        assert_eq!(escape_json("a\tb\nc"), "a\\tb\\nc");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
