//! Chrome trace-event export and per-phase time rollups.
//!
//! A run's [`PerfReport::phases`] is its timeline: phase names and
//! modelled seconds in execution order (the engine never reads a host
//! clock — PVS003). This module renders it in the Chrome
//! trace-event JSON format (`chrome://tracing` / Perfetto's legacy
//! loader): one complete `"X"` event for the whole `run` and one per
//! phase under it, `ts`/`dur` in simulated picoseconds. It also folds
//! the phases into per-name time rollups — what a flame-graph's width
//! shows.

use pvs_core::json::{array, parse, JsonObject, Value};
use pvs_core::report::{PerfReport, PhaseBreakdown};

/// Modelled seconds as trace ticks: simulated picoseconds.
fn ticks(seconds: f64) -> u64 {
    (seconds * 1e12).round() as u64
}

/// `(name, begin_ticks, duration_ticks)` per phase. Boundaries are the
/// left-to-right sum of `seconds` that produced `time_s`, so the last
/// phase ends exactly where the run does.
fn phase_ticks(phases: &[PhaseBreakdown]) -> impl Iterator<Item = (&str, u64, u64)> {
    let mut end_s = 0.0;
    phases.iter().map(move |phase| {
        let begin = ticks(end_s);
        end_s += phase.seconds;
        (phase.name.as_str(), begin, ticks(end_s).saturating_sub(begin))
    })
}

/// Render a run's model timeline as a Chrome trace-event document: the
/// `run` event (`span_id` 1) followed by its phases in execution order.
/// The whole simulated run is one process/thread, so `pid`/`tid` are
/// fixed.
pub fn to_chrome_trace(report: &PerfReport, label: &str) -> String {
    let event = |name: &str, ts: u64, dur: u64, args: JsonObject| {
        JsonObject::new()
            .string("name", name)
            .string("ph", "X")
            .number("ts", ts as f64)
            .number("dur", dur as f64)
            .number("pid", 1.0)
            .number("tid", 1.0)
            .raw("args", args.render())
            .render()
    };
    let run = event(
        "run",
        0,
        ticks(report.time_s),
        JsonObject::new().number("span_id", 1.0),
    );
    let phases = phase_ticks(&report.phases)
        .enumerate()
        .map(|(i, (name, ts, dur))| {
            let args = JsonObject::new()
                .number("span_id", (i + 2) as f64)
                .number("parent_span_id", 1.0);
            event(name, ts, dur, args)
        });
    JsonObject::new()
        .raw("traceEvents", array(std::iter::once(run).chain(phases)))
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

/// Time per phase name, sorted by ticks descending, name ascending on
/// ties.
pub fn self_time_rollup(phases: &[PhaseBreakdown]) -> Vec<PhaseTime> {
    let mut by_name: Vec<PhaseTime> = Vec::new();
    for (name, _, dur) in phase_ticks(phases) {
        match by_name.iter_mut().find(|r| r.name == name) {
            Some(r) => {
                r.ticks += dur;
                r.count += 1;
            }
            None => by_name.push(PhaseTime {
                name: name.to_string(),
                ticks: dur,
                count: 1,
            }),
        }
    }
    by_name.sort_by(|a, b| b.ticks.cmp(&a.ticks).then_with(|| a.name.cmp(&b.name)));
    by_name
}

/// Aggregated time of one phase name across a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTime {
    /// Phase name.
    pub name: String,
    /// Summed durations of all phases with this name.
    pub ticks: u64,
    /// Number of phases with this name.
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

    fn model(time_s: f64, phases: &[(&str, f64, bool)]) -> PerfReport {
        PerfReport {
            machine: String::new(),
            procs: 1,
            time_s,
            comm_s: 0.0,
            flops_per_p: 0.0,
            gflops_per_p: 0.0,
            pct_peak: 0.0,
            vector_metrics: None,
            phases: phases
                .iter()
                .map(|&(name, seconds, is_comm)| PhaseBreakdown {
                    name: name.to_string(),
                    seconds,
                    flops: 0.0,
                    is_comm,
                })
                .collect(),
        }
    }

    /// The LBMHD/ES/P64 cell of `BENCH_sweep.json`.
    fn lbmhd_es() -> PerfReport {
        model(
            8.095052333333333,
            &[
                ("collision", 4.644864, false),
                ("stream", 3.35872, false),
                ("exchange", 0.09146833333333333, true),
            ],
        )
    }

    #[test]
    fn lbmhd_es_document_renders_its_four_events() {
        let doc = parse(&to_chrome_trace(&lbmhd_es(), "LBMHD/ES/P64")).unwrap();
        let events: Vec<(&str, f64, f64, f64, Option<f64>)> = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|e| {
                let args = e.get("args").unwrap();
                (
                    e.str("name").unwrap(),
                    e.num("ts").unwrap(),
                    e.num("dur").unwrap(),
                    args.num("span_id").unwrap(),
                    args.num("parent_span_id"),
                )
            })
            .collect();
        assert_eq!(
            events,
            [
                ("run", 0.0, 8095052333333.0, 1.0, None),
                ("collision", 0.0, 4644864000000.0, 2.0, Some(1.0)),
                ("stream", 4644864000000.0, 3358720000000.0, 3.0, Some(1.0)),
                ("exchange", 8003584000000.0, 91468333333.0, 4.0, Some(1.0)),
            ]
        );
    }

    #[test]
    fn export_validates_and_carries_the_label() {
        let doc = to_chrome_trace(&lbmhd_es(), "LBMHD/ES");
        assert_eq!(validate_chrome_trace(&doc), Ok(4));
        assert!(doc.contains("\"displayTimeUnit\":\"ns\""));
        assert!(doc.contains("\"label\":\"LBMHD/ES\""));
        assert_eq!(validate_chrome_trace(&to_chrome_trace(&model(0.0, &[]), "t")), Ok(1));
    }

    #[test]
    fn rollup_groups_by_name_and_orders_by_time_then_name() {
        let phases = model(
            0.0,
            &[("step", 4e-12, false), ("b", 6e-12, true), ("step", 4e-12, false), ("a", 6e-12, false)],
        )
        .phases;
        let rollup = self_time_rollup(&phases);
        let rows: Vec<(&str, u64, u64)> =
            rollup.iter().map(|r| (r.name.as_str(), r.ticks, r.count)).collect();
        assert_eq!(rows, [("step", 8, 2), ("a", 6, 1), ("b", 6, 1)]);
        assert_eq!(self_time_rollup(&lbmhd_es().phases)[0].name, "collision");
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
