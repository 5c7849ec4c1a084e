//! Chrome trace-event export and per-span self-time rollups.
//!
//! A [`TraceBuffer`] holds one run's span tree with timestamps in
//! simulated picoseconds (the engine never reads a host clock — PVS003).
//! This module serializes it into the Chrome trace-event JSON format
//! (`chrome://tracing` / Perfetto's legacy loader): one complete `"X"`
//! event per closed span, `ts`/`dur` in the buffer's own tick unit, and
//! the span tree carried in `args`. It also folds the tree into
//! *self-time* rollups — per span name, total duration minus the time
//! covered by child spans — which is what a flame-graph's width shows.

use pvs_core::json::{array, parse, JsonObject, Value};
use pvs_obs::span::TraceBuffer;

/// Serialize a trace buffer as a Chrome trace-event document.
///
/// Only closed spans become events (Chrome's `"X"` phase needs a
/// duration); open spans are skipped. Events appear in begin order. The
/// whole simulated run is one process/thread, so `pid`/`tid` are fixed.
pub fn to_chrome_trace(trace: &TraceBuffer, label: &str) -> String {
    let events = trace.events().iter().filter_map(|e| {
        let dur = e.duration_ticks()?;
        let mut args = JsonObject::new().number("span_id", e.id.0 as f64);
        if let Some(parent) = e.parent {
            args = args.number("parent_span_id", parent.0 as f64);
        }
        Some(
            JsonObject::new()
                .string("name", &e.name)
                .string("ph", "X")
                .number("ts", e.begin_ticks as f64)
                .number("dur", dur as f64)
                .number("pid", 1.0)
                .number("tid", 1.0)
                .raw("args", args.render())
                .render(),
        )
    });
    JsonObject::new()
        .raw("traceEvents", array(events))
        .string("displayTimeUnit", "ns")
        .raw(
            "otherData",
            JsonObject::new()
                .string("label", label)
                .string("tick_unit", "simulated picoseconds")
                .render(),
        )
        .render()
}

/// Self-time of every span name: `(name, total_ticks, self_ticks, count)`
/// sorted by self-time descending, name ascending on ties. Self-time is
/// a span's duration minus the duration covered by its direct children,
/// summed over all closed spans of the same name.
pub fn self_time_rollup(trace: &TraceBuffer) -> Vec<SelfTime> {
    // child_ticks[i] accumulates closed-child durations of event i.
    let events = trace.events();
    let mut child_ticks = vec![0u64; events.len()];
    for e in events {
        if let (Some(parent), Some(dur)) = (e.parent, e.duration_ticks()) {
            if let Some(slot) = child_ticks.get_mut(parent.0 as usize - 1) {
                *slot += dur;
            }
        }
    }
    let mut by_name: Vec<SelfTime> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let Some(dur) = e.duration_ticks() else { continue };
        let self_ticks = dur.saturating_sub(child_ticks[i]);
        match by_name.iter_mut().find(|r| r.name == e.name) {
            Some(r) => {
                r.total_ticks += dur;
                r.self_ticks += self_ticks;
                r.count += 1;
            }
            None => by_name.push(SelfTime {
                name: e.name.clone(),
                total_ticks: dur,
                self_ticks,
                count: 1,
            }),
        }
    }
    by_name.sort_by(|a, b| {
        b.self_ticks
            .cmp(&a.self_ticks)
            .then_with(|| a.name.cmp(&b.name))
    });
    by_name
}

/// Aggregated time of one span name across a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfTime {
    /// Span name.
    pub name: String,
    /// Summed durations of all closed spans with this name.
    pub total_ticks: u64,
    /// Summed durations minus child-covered time.
    pub self_ticks: u64,
    /// Number of closed spans with this name.
    pub count: u64,
}

/// Validate a serialized document against the trace-event schema: a
/// top-level `traceEvents` array whose members each carry `name`, a
/// `ph` string, numeric `ts`, `pid` and `tid`, and (for complete `"X"`
/// events) a numeric `dur`. Returns the event count.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing `traceEvents` array")?;
    for (i, e) in events.iter().enumerate() {
        let ctx = |field: &str| format!("traceEvents[{i}]: missing/invalid `{field}`");
        e.str("name").ok_or_else(|| ctx("name"))?;
        let ph = e.str("ph").ok_or_else(|| ctx("ph"))?;
        e.num("ts").ok_or_else(|| ctx("ts"))?;
        e.num("pid").ok_or_else(|| ctx("pid"))?;
        e.num("tid").ok_or_else(|| ctx("tid"))?;
        if ph == "X" {
            e.num("dur").ok_or_else(|| ctx("dur"))?;
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// run(0..100) { collision(0..60) { inner(10..30) }, stream(60..90) },
    /// plus an open span that must not become an event.
    fn sample_trace() -> TraceBuffer {
        let mut t = TraceBuffer::new();
        let run = t.begin("run", None, 0);
        let coll = t.begin("collision", Some(run), 0);
        let inner = t.begin("inner", Some(coll), 10);
        t.end(inner, 30);
        t.end(coll, 60);
        let stream = t.begin("stream", Some(run), 60);
        t.end(stream, 90);
        t.begin("open", Some(run), 95);
        t.end(run, 100);
        t
    }

    #[test]
    fn export_validates_and_skips_open_spans() {
        let doc = to_chrome_trace(&sample_trace(), "LBMHD/ES");
        // 5 spans begun, one left open → 4 complete events.
        assert_eq!(validate_chrome_trace(&doc), Ok(4));
        assert!(doc.contains("\"displayTimeUnit\":\"ns\""));
        assert!(doc.contains("\"label\":\"LBMHD/ES\""));
        assert!(!doc.contains("\"open\""));
    }

    #[test]
    fn events_carry_tree_and_tick_fields() {
        let doc = parse(&to_chrome_trace(&sample_trace(), "t")).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // Begin order: run first.
        assert_eq!(events[0].str("name"), Some("run"));
        assert_eq!(events[0].num("ts"), Some(0.0));
        assert_eq!(events[0].num("dur"), Some(100.0));
        assert_eq!(events[0].get("args").unwrap().num("parent_span_id"), None);
        let coll = &events[1];
        assert_eq!(coll.str("name"), Some("collision"));
        assert_eq!(coll.str("ph"), Some("X"));
        assert_eq!(coll.get("args").unwrap().num("parent_span_id"), Some(1.0));
        assert_eq!(coll.get("args").unwrap().num("span_id"), Some(2.0));
    }

    #[test]
    fn self_time_subtracts_children() {
        let rollup = self_time_rollup(&sample_trace());
        let get = |name: &str| rollup.iter().find(|r| r.name == name).unwrap();
        // collision: 60 total, child inner covers 20 → 40 self.
        assert_eq!(get("collision").self_ticks, 40);
        assert_eq!(get("collision").total_ticks, 60);
        // run: 100 total − (60 + 30) closed children → 10 self; the open
        // child contributes nothing.
        assert_eq!(get("run").self_ticks, 10);
        assert_eq!(get("stream").self_ticks, 30);
        assert_eq!(get("inner").self_ticks, 20);
        // Sorted by self-time descending.
        assert_eq!(rollup[0].name, "collision");
        // The open span never rolls up.
        assert!(rollup.iter().all(|r| r.name != "open"));
    }

    #[test]
    fn repeated_names_aggregate() {
        let mut t = TraceBuffer::new();
        for rep in 0..3u64 {
            let s = t.begin("step", None, rep * 10);
            t.end(s, rep * 10 + 4);
        }
        let rollup = self_time_rollup(&t);
        assert_eq!(rollup.len(), 1);
        assert_eq!(rollup[0].count, 3);
        assert_eq!(rollup[0].total_ticks, 12);
        assert_eq!(rollup[0].self_ticks, 12);
    }

    #[test]
    fn validation_rejects_malformed_documents() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("not json").is_err());
        let missing_dur =
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"pid\":1,\"tid\":1}]}";
        let err = validate_chrome_trace(missing_dur).unwrap_err();
        assert!(err.contains("dur"), "{err}");
        let empty = "{\"traceEvents\":[]}";
        assert_eq!(validate_chrome_trace(empty), Ok(0));
    }
}
