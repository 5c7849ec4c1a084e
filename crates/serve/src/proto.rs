//! Wire protocol: newline-delimited JSON, one request per line, one
//! response line back.
//!
//! Requests are parsed and responses rendered with the workspace's own
//! codec ([`pvs_core::json`]) — no external serialization crates
//! (PVS001).
//! The operations:
//!
//! | request                                     | response                          |
//! |---------------------------------------------|-----------------------------------|
//! | `{"op":"cell","app":…,"config":…,…}`        | `{"ok":true,…,"cell":{…}}`        |
//! | `{"op":"stats"}`                            | telemetry snapshot (cumulative)   |
//! | `{"op":"stats","mode":"delta"}`             | snapshot since the last delta     |
//! | `{"op":"health"}`                           | liveness + occupancy summary      |
//! | `{"op":"ping"}`                             | `{"ok":true,"pong":true}`         |
//! | `{"op":"shutdown"}`                         | ack, then the server drains       |
//!
//! `stats` and `health` responses are versioned documents tagged
//! [`pvs_core::schema::SNAPSHOT_V1`]. A cumulative snapshot reports the
//! registry since server start; a delta snapshot reports counter and
//! histogram *increments* since the previous delta request (gauges are
//! always current values — subtracting them would be meaningless), so a
//! poller can chart rates without client-side bookkeeping.
//!
//! A cell request may carry `deadline_ms`, an optional time budget: the
//! server checks remaining budget at admission, while waiting on an
//! in-flight simulation, and at dispatch, answering
//! `{"error":"deadline_exceeded","stage":…}` once it runs out. Cache
//! hits always serve regardless of budget. Rejections under load
//! (`{"error":"overloaded"}`) carry a deterministic `retry_after_ms`
//! backoff hint derived from the queue depth, and a key whose
//! simulation the supervisor has retired answers
//! `{"error":"failed","panics":N}`.
//!
//! A cell response puts the `cell` member **last**, holding the cached
//! body verbatim — so the bytes after `"cell":` (minus the closing `}`
//! and newline) are exactly the `pvs_core::json::perf_report`
//! rendering a direct engine run would produce. Clients can check
//! byte-identity without re-parsing.

use pvs_core::json::{escape, parse, JsonObject};
use pvs_obs::Snapshot;

use crate::store::{CellResponse, ServeError};
use crate::workload::{FaultSpec, Request, DEFAULT_FAULT_EVENTS};

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Serve a sweep cell.
    Cell {
        /// The validated-shape request (semantic validation happens in
        /// the store).
        request: Request,
        /// Optional deadline budget in milliseconds. The server turns
        /// it into a remaining-budget probe checked at admission, queue
        /// wait, and simulation dispatch; exhaustion answers
        /// `deadline_exceeded`. Deliberately *not* part of
        /// [`Request`]: the deadline must never perturb the content
        /// address.
        deadline_ms: Option<u64>,
    },
    /// Dump the server's observability registry. `delta` reports
    /// increments since the previous delta request instead of totals.
    Stats {
        /// `{"mode":"delta"}` was requested.
        delta: bool,
    },
    /// Liveness + occupancy probe (no registry walk).
    Health,
    /// Liveness probe.
    Ping,
    /// Ask the server to stop accepting connections and exit.
    Shutdown,
}

/// Parse one request line. The error string is client-facing (it goes
/// back in a `malformed` response), so it names the offending field.
pub fn parse_line(line: &str) -> Result<Op, String> {
    let doc = parse(line).map_err(|e| e.to_string())?;
    let op = doc.str("op").ok_or("missing string field \"op\"")?;
    match op {
        "stats" => match doc.str("mode") {
            None | Some("cumulative") => Ok(Op::Stats { delta: false }),
            Some("delta") => Ok(Op::Stats { delta: true }),
            Some(other) => Err(format!(
                "\"mode\" must be \"cumulative\" or \"delta\", got {other:?}"
            )),
        },
        "health" => Ok(Op::Health),
        "ping" => Ok(Op::Ping),
        "shutdown" => Ok(Op::Shutdown),
        "cell" => {
            let field = |name: &str| {
                doc.str(name)
                    .map(str::to_string)
                    .ok_or(format!("missing string field {name:?}"))
            };
            let procs = doc.num("procs").ok_or("missing numeric field \"procs\"")?;
            if procs.fract() != 0.0 || procs < 0.0 {
                return Err(format!("\"procs\" must be a non-negative integer, got {procs}"));
            }
            let faults = match (doc.num("fault_seed"), doc.num("fault_events")) {
                (None, None) => None,
                (None, Some(_)) => {
                    return Err("\"fault_events\" given without \"fault_seed\"".to_string())
                }
                (Some(seed), events) => {
                    if seed.fract() != 0.0 || seed < 0.0 {
                        return Err(format!(
                            "\"fault_seed\" must be a non-negative integer, got {seed}"
                        ));
                    }
                    let events = match events {
                        None => DEFAULT_FAULT_EVENTS,
                        Some(e) if e.fract() == 0.0 && e >= 0.0 => e as usize,
                        Some(e) => {
                            return Err(format!(
                                "\"fault_events\" must be a non-negative integer, got {e}"
                            ))
                        }
                    };
                    Some(FaultSpec { seed: seed as u64, events })
                }
            };
            let deadline_ms = match doc.num("deadline_ms") {
                None => None,
                Some(ms) if ms.fract() == 0.0 && ms >= 0.0 => Some(ms as u64),
                Some(ms) => {
                    return Err(format!(
                        "\"deadline_ms\" must be a non-negative integer, got {ms}"
                    ))
                }
            };
            Ok(Op::Cell {
                request: Request {
                    app: field("app")?,
                    config: field("config")?,
                    machine: field("machine")?,
                    procs: procs as usize,
                    faults,
                },
                deadline_ms,
            })
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Successful cell response (one line, no trailing newline). `cell` is
/// last and verbatim — see the module docs.
pub fn cell_response(resp: &CellResponse) -> String {
    format!(
        "{{\"ok\":true,\"key\":\"{}\",\"source\":\"{}\",\"cell\":{}}}",
        resp.key,
        resp.source.as_str(),
        resp.body
    )
}

/// Error response for a failed cell request.
pub fn error_response(err: &ServeError) -> String {
    match err {
        ServeError::BadRequest(detail) => JsonObject::new()
            .boolean("ok", false)
            .string("error", "bad_request")
            .string("detail", &detail.to_string())
            .render(),
        ServeError::Overloaded { pending, max, retry_after_ms } => JsonObject::new()
            .boolean("ok", false)
            .string("error", "overloaded")
            .number("pending", *pending as f64)
            .number("max", *max as f64)
            .number("retry_after_ms", *retry_after_ms as f64)
            .render(),
        ServeError::DeadlineExceeded { stage } => JsonObject::new()
            .boolean("ok", false)
            .string("error", "deadline_exceeded")
            .string("stage", stage)
            .render(),
        ServeError::Failed { panics } => JsonObject::new()
            .boolean("ok", false)
            .string("error", "failed")
            .number("panics", *panics as f64)
            .string("detail", "key poisoned: simulation panicked repeatedly")
            .render(),
        ServeError::Internal(detail) => JsonObject::new()
            .boolean("ok", false)
            .string("error", "internal")
            .string("detail", detail)
            .render(),
    }
}

/// Response to a line that did not parse into any [`Op`].
pub fn malformed_response(detail: &str) -> String {
    JsonObject::new()
        .boolean("ok", false)
        .string("error", "malformed")
        .string("detail", detail)
        .render()
}

/// Occupancy figures the responses report alongside the registry:
/// clock-free server state sampled at dispatch time, plus the uptime the
/// caller measured (the protocol layer itself never reads a clock —
/// PVS003 confines that to `server.rs`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerVitals {
    /// Whole seconds since the server started.
    pub uptime_s: u64,
    /// In-memory cache entries.
    pub cached_cells: usize,
    /// Distinct simulations in flight right now.
    pub inflight: usize,
}

/// Stats dump, schema [`pvs_core::schema::SNAPSHOT_V1`]: every counter,
/// gauge, and histogram summary in the registry snapshot (alphabetical —
/// the snapshot is already sorted) plus the server vitals. `delta` tags
/// the `mode` member so a poller can tell which flavor it got.
pub fn stats_response(snapshot: &Snapshot, vitals: ServerVitals, delta: bool) -> String {
    let members = |entries: &[(String, u64)]| {
        entries
            .iter()
            .map(|(name, value)| format!("\"{}\":{}", escape(name), value))
            .collect::<Vec<_>>()
            .join(",")
    };
    let hists = snapshot
        .hists
        .iter()
        .map(|(name, h)| {
            let s = h.summary();
            format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                escape(name),
                s.count,
                s.sum,
                s.min,
                s.max,
                s.p50,
                s.p90,
                s.p99
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"ok\":true,\"schema\":\"{}\",\"mode\":\"{}\",\"uptime_s\":{},\"cached_cells\":{},\"inflight\":{},\"counters\":{{{}}},\"gauges\":{{{}}},\"hists\":{{{}}}}}",
        pvs_core::schema::SNAPSHOT_V1,
        if delta { "delta" } else { "cumulative" },
        vitals.uptime_s,
        vitals.cached_cells,
        vitals.inflight,
        members(&snapshot.counters),
        members(&snapshot.gauges),
        hists
    )
}

/// Health probe: liveness plus the vitals, without walking the registry.
pub fn health_response(vitals: ServerVitals) -> String {
    format!(
        "{{\"ok\":true,\"healthy\":true,\"schema\":\"{}\",\"uptime_s\":{},\"cached_cells\":{},\"inflight\":{}}}",
        pvs_core::schema::SNAPSHOT_V1,
        vitals.uptime_s,
        vitals.cached_cells,
        vitals.inflight
    )
}

/// Liveness ack.
pub fn pong_response() -> String {
    "{\"ok\":true,\"pong\":true}".to_string()
}

/// Shutdown ack (sent before the server drains).
pub fn shutdown_response() -> String {
    "{\"ok\":true,\"shutdown\":true}".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::RequestError;

    #[test]
    fn cell_lines_parse_into_requests() {
        let op = parse_line(
            r#"{"op":"cell","app":"LBMHD","config":"8192x8192","machine":"ES","procs":64}"#,
        )
        .unwrap();
        assert_eq!(
            op,
            Op::Cell {
                request: Request::cell("LBMHD", "8192x8192", "ES", 64),
                deadline_ms: None
            }
        );
    }

    #[test]
    fn deadline_budget_parses_without_touching_the_request() {
        let line = r#"{"op":"cell","app":"LBMHD","config":"8192x8192","machine":"ES","procs":64,"deadline_ms":250}"#;
        match parse_line(line).unwrap() {
            Op::Cell { request, deadline_ms } => {
                assert_eq!(deadline_ms, Some(250));
                // The deadline must not perturb the content address.
                assert_eq!(request.key_hash(), Request::cell("LBMHD", "8192x8192", "ES", 64).key_hash());
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_line(
            r#"{"op":"cell","app":"LBMHD","config":"8192x8192","machine":"ES","procs":64,"deadline_ms":-3}"#
        )
        .unwrap_err()
        .contains("deadline_ms"));
        assert!(parse_line(
            r#"{"op":"cell","app":"LBMHD","config":"8192x8192","machine":"ES","procs":64,"deadline_ms":1.5}"#
        )
        .unwrap_err()
        .contains("1.5"));
    }

    #[test]
    fn fault_fields_parse_with_defaulted_events() {
        let op = parse_line(
            r#"{"op":"cell","app":"GTC","config":"10 part/cell","machine":"X1","procs":64,"fault_seed":7}"#,
        )
        .unwrap();
        match op {
            Op::Cell { request: r, .. } => assert_eq!(
                r.faults,
                Some(FaultSpec { seed: 7, events: DEFAULT_FAULT_EVENTS })
            ),
            other => panic!("{other:?}"),
        }
        let op = parse_line(
            r#"{"op":"cell","app":"GTC","config":"10 part/cell","machine":"X1","procs":64,"fault_seed":7,"fault_events":9}"#,
        )
        .unwrap();
        match op {
            Op::Cell { request: r, .. } => {
                assert_eq!(r.faults, Some(FaultSpec { seed: 7, events: 9 }))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn control_ops_parse() {
        assert_eq!(parse_line(r#"{"op":"stats"}"#).unwrap(), Op::Stats { delta: false });
        assert_eq!(
            parse_line(r#"{"op":"stats","mode":"cumulative"}"#).unwrap(),
            Op::Stats { delta: false }
        );
        assert_eq!(
            parse_line(r#"{"op":"stats","mode":"delta"}"#).unwrap(),
            Op::Stats { delta: true }
        );
        assert!(parse_line(r#"{"op":"stats","mode":"weekly"}"#)
            .unwrap_err()
            .contains("weekly"));
        assert_eq!(parse_line(r#"{"op":"health"}"#).unwrap(), Op::Health);
        assert_eq!(parse_line(r#"{"op":"ping"}"#).unwrap(), Op::Ping);
        assert_eq!(parse_line(r#"{"op":"shutdown"}"#).unwrap(), Op::Shutdown);
    }

    #[test]
    fn malformed_lines_produce_field_naming_errors() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line(r#"{"op":"teleport"}"#).unwrap_err().contains("teleport"));
        assert!(parse_line(r#"{"app":"LBMHD"}"#).unwrap_err().contains("\"op\""));
        assert!(parse_line(r#"{"op":"cell","app":"LBMHD"}"#)
            .unwrap_err()
            .contains("procs"));
        assert!(parse_line(
            r#"{"op":"cell","app":"LBMHD","config":"x","machine":"ES","procs":2.5}"#
        )
        .unwrap_err()
        .contains("2.5"));
        assert!(parse_line(
            r#"{"op":"cell","app":"LBMHD","config":"x","machine":"ES","procs":4,"fault_events":2}"#
        )
        .unwrap_err()
        .contains("fault_seed"));
    }

    #[test]
    fn cell_response_embeds_the_body_verbatim_and_last() {
        let resp = CellResponse {
            key: "00000000000000ab".to_string(),
            body: "{\"time_s\":1.5}".into(),
            source: crate::store::CellSource::Memory,
        };
        let line = cell_response(&resp);
        assert_eq!(
            line,
            "{\"ok\":true,\"key\":\"00000000000000ab\",\"source\":\"memory\",\"cell\":{\"time_s\":1.5}}"
        );
        // The byte-extraction contract: strip prefix up to "cell": and
        // the final brace to recover the body exactly.
        let cell = line
            .split_once("\"cell\":")
            .map(|(_, rest)| &rest[..rest.len() - 1])
            .unwrap();
        assert_eq!(cell, &*resp.body);
        // Round-trips through the parser.
        assert!(parse(&line).unwrap().get("cell").is_some());
    }

    #[test]
    fn error_responses_are_parseable_and_tagged() {
        let bad = error_response(&ServeError::BadRequest(RequestError::UnknownApp(
            "LINPACK".to_string(),
        )));
        let doc = parse(&bad).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(doc.str("error"), Some("bad_request"));
        assert!(doc.str("detail").unwrap().contains("LINPACK"));

        let over = error_response(&ServeError::Overloaded {
            pending: 3,
            max: 3,
            retry_after_ms: 80,
        });
        let doc = parse(&over).unwrap();
        assert_eq!(doc.str("error"), Some("overloaded"));
        assert_eq!(doc.num("pending"), Some(3.0));
        assert_eq!(doc.num("retry_after_ms"), Some(80.0));

        let dl = error_response(&ServeError::DeadlineExceeded { stage: "admission" });
        let doc = parse(&dl).unwrap();
        assert_eq!(doc.str("error"), Some("deadline_exceeded"));
        assert_eq!(doc.str("stage"), Some("admission"));

        let failed = error_response(&ServeError::Failed { panics: 3 });
        let doc = parse(&failed).unwrap();
        assert_eq!(doc.str("error"), Some("failed"));
        assert_eq!(doc.num("panics"), Some(3.0));

        let doc = parse(&malformed_response("unknown op \"x\"")).unwrap();
        assert_eq!(doc.str("error"), Some("malformed"));
    }

    #[test]
    fn stats_response_carries_the_snapshot() {
        let registry = pvs_obs::Registry::new();
        use pvs_obs::Recorder;
        registry.add("serve.cache.hits", 5);
        registry.gauge_set("serve.queue.depth", 2);
        registry.record_n("serve.hist.busy_us", 40, 3);
        registry.record("serve.hist.busy_us", 2_000);
        let vitals = ServerVitals { uptime_s: 12, cached_cells: 7, inflight: 1 };
        let line = stats_response(&registry.snapshot(), vitals, false);
        let doc = parse(&line).unwrap();
        assert_eq!(doc.str("schema"), Some(pvs_core::schema::SNAPSHOT_V1));
        assert_eq!(doc.str("mode"), Some("cumulative"));
        assert_eq!(doc.num("uptime_s"), Some(12.0));
        assert_eq!(doc.num("cached_cells"), Some(7.0));
        assert_eq!(doc.num("inflight"), Some(1.0));
        assert_eq!(doc.get("counters").unwrap().num("serve.cache.hits"), Some(5.0));
        assert_eq!(doc.get("gauges").unwrap().num("serve.queue.depth"), Some(2.0));
        let hist = doc.get("hists").unwrap().get("serve.hist.busy_us").unwrap();
        assert_eq!(hist.num("count"), Some(4.0));
        assert_eq!(hist.num("min"), Some(40.0));
        assert_eq!(hist.num("p50"), Some(40.0));
        // 2000 sits above the exact range: p99 is its bucket lower bound.
        let p99 = hist.num("p99").unwrap();
        assert!(p99 > 1900.0 && p99 <= 2000.0, "p99 = {p99}");

        let delta_line = stats_response(&registry.snapshot(), vitals, true);
        assert_eq!(parse(&delta_line).unwrap().str("mode"), Some("delta"));
    }

    #[test]
    fn health_response_reports_vitals() {
        let line = health_response(ServerVitals { uptime_s: 3, cached_cells: 2, inflight: 0 });
        let doc = parse(&line).unwrap();
        assert_eq!(doc.get("healthy").unwrap().as_bool(), Some(true));
        assert_eq!(doc.str("schema"), Some(pvs_core::schema::SNAPSHOT_V1));
        assert_eq!(doc.num("uptime_s"), Some(3.0));
        assert_eq!(doc.num("inflight"), Some(0.0));
    }
}
