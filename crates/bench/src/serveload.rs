//! Seeded load generator for the serving layer, plus the
//! `BENCH_serve.json` emitter.
//!
//! Two arrival models, both deterministic in *what* they ask for:
//!
//! * **closed loop** — `C` connections issue requests back-to-back; the
//!   offered load follows service capacity (classic saturation probe);
//! * **open loop** — requests arrive on a seeded Poisson process at a
//!   fixed rate, each on its own connection, regardless of how the
//!   server is keeping up (latency-under-load probe).
//!
//! Request *content* is a fixed schedule over a cell list (request `i`
//! asks for cell `i mod cells.len()`), so two runs with the same options
//! offer the same work in the same order; only host timing differs. The
//! emitted document is schema `pvs-bench/profile-v2`: model metrics are
//! the served cell bytes (pure, gated exactly by `compare`), request
//! latencies land in `host_wall` (report-only).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pvs_core::engine::Engine;
use pvs_core::json::{array, pretty, JsonObject};
use pvs_core::rng::Pcg32;
use pvs_obs::{Histogram, Recorder, Registry, Snapshot};
use pvs_serve::Request;

use crate::profile::cell_json;

/// Odd 64-bit mixer (the SplitMix64 increment): spreads request indices
/// into independent per-request jitter streams.
const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// The default serving grid: every application's large configuration on
/// the two vector machines at the paper's common P=64 — eight distinct
/// cells, so a load run exercises both cold misses and hits.
pub fn paper_serve_cells() -> Vec<Request> {
    let mut cells = Vec::new();
    for (app, config) in [
        ("LBMHD", "8192x8192"),
        ("PARATEC", "686 atom"),
        ("CACTUS", "250x64x64"),
        ("GTC", "100 part/cell"),
    ] {
        for machine in ["ES", "X1"] {
            cells.push(Request::cell(app, config, machine, 64));
        }
    }
    cells
}

/// How requests arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalMode {
    /// `connections` workers, each issuing back-to-back requests.
    Closed {
        /// Concurrent connections.
        connections: usize,
    },
    /// Seeded Poisson arrivals at `rate_rps` requests per second, one
    /// connection per request.
    Open {
        /// Offered arrival rate (requests/second).
        rate_rps: f64,
    },
}

/// Seeded-jitter exponential-backoff retry policy. Retryable outcomes
/// are `overloaded` responses and transport errors (refused, reset,
/// timeout); protocol-level rejections (`bad_request`, `malformed`,
/// `deadline_exceeded`, `failed`, `internal`) are definitive and never
/// retried. The backoff *schedule* is a pure function of the load seed
/// and request index (half-jitter drawn from a per-request [`Pcg32`]),
/// floored at the server's `retry_after_ms` hint when one arrives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request, first try included (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds; doubles per
    /// retry until `cap_ms`.
    pub base_ms: u64,
    /// Per-sleep ceiling in milliseconds.
    pub cap_ms: u64,
    /// Total backoff a single request may accumulate before giving up,
    /// in milliseconds.
    pub budget_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 4, base_ms: 25, cap_ms: 400, budget_ms: 2_000 }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (1-based), in
    /// milliseconds: exponential from `base_ms`, capped at `cap_ms`,
    /// half-jittered from `rng`, and floored at the server's
    /// `hint_ms`. Deterministic in `(rng state, retry, hint_ms)`.
    pub fn backoff_ms(&self, rng: &mut Pcg32, retry: u32, hint_ms: u64) -> u64 {
        let exp = self.base_ms.saturating_mul(1u64 << retry.saturating_sub(1).min(16));
        let capped = exp.min(self.cap_ms).max(1);
        let jittered = capped / 2 + u64::from(rng.next_below((capped / 2 + 1).min(u32::MAX as u64) as u32));
        jittered.max(hint_ms)
    }
}

/// One load run's knobs.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Total requests to issue.
    pub requests: usize,
    /// Arrival model.
    pub mode: ArrivalMode,
    /// Seed for the open-loop arrival process and the retry jitter.
    pub seed: u64,
    /// Retry policy for retryable failures (`None` = fail fast).
    pub retry: Option<RetryPolicy>,
}

impl Default for LoadOptions {
    fn default() -> Self {
        Self {
            requests: 64,
            mode: ArrivalMode::Closed { connections: 4 },
            seed: 0xC0FFEE,
            retry: Some(RetryPolicy::default()),
        }
    }
}

/// One request's outcome.
#[derive(Debug, Clone)]
pub struct RequestSample {
    /// Index into the cell list this request asked for.
    pub cell: usize,
    /// Wall-clock seconds from send to full response line.
    pub latency_s: f64,
    /// The response's `source` tag (`memory`, `computed`, …), or the
    /// error tag for `"ok":false` responses.
    pub source: String,
    /// Whether the response was `"ok":true`.
    pub ok: bool,
    /// Attempts this request took, first try included.
    pub attempts: u32,
}

/// A completed load run.
#[derive(Debug, Clone)]
pub struct LoadRun {
    /// Per-request outcomes, in schedule order.
    pub samples: Vec<RequestSample>,
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Client-side retry telemetry: `serve.retry.attempts` /
    /// `serve.retry.giveups` counters and the
    /// `serve.retry.hist.backoff_ms` histogram of slept backoffs.
    pub retry: Snapshot,
}

impl LoadRun {
    /// Achieved throughput over the run.
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_s <= 0.0 {
            0.0
        } else {
            self.samples.len() as f64 / self.wall_s
        }
    }

    /// Histogram of successful request latencies in whole microseconds —
    /// the same [`pvs_obs::Histogram`] the server uses for
    /// `serve.hist.busy_us`, so client-side and server-side quantiles
    /// share one nearest-rank definition. Values below 64us are exact;
    /// larger ones resolve to ~3.1% (one sub-bucket).
    pub fn latency_hist_us(&self) -> Histogram {
        let mut h = Histogram::new();
        for s in self.samples.iter().filter(|s| s.ok) {
            h.record((s.latency_s * 1e6) as u64);
        }
        h
    }

    /// How many responses carried each `source` tag, sorted by tag.
    pub fn source_counts(&self) -> Vec<(String, usize)> {
        let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
        for s in &self.samples {
            *counts.entry(s.source.clone()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }
}

fn request_line(request: &Request) -> String {
    let mut obj = JsonObject::new()
        .string("op", "cell")
        .string("app", &request.app)
        .string("config", &request.config)
        .string("machine", &request.machine)
        .number("procs", request.procs as f64);
    if let Some(f) = request.faults {
        obj = obj
            .number("fault_seed", f.seed as f64)
            .number("fault_events", f.events as f64);
    }
    obj.render()
}

/// A parsed response's fate, as far as the load client cares.
struct Outcome {
    ok: bool,
    tag: String,
    /// The server's backoff hint on `overloaded` responses.
    retry_after_ms: Option<u64>,
}

fn outcome_of(response: &str) -> Outcome {
    let doc = match pvs_core::json::parse(response) {
        Ok(doc) => doc,
        Err(_) => {
            return Outcome { ok: false, tag: "unparseable".to_string(), retry_after_ms: None }
        }
    };
    let ok = doc.get("ok").and_then(|v| v.as_bool()).unwrap_or(false);
    let tag = if ok { doc.str("source") } else { doc.str("error") };
    Outcome {
        ok,
        tag: tag.unwrap_or("missing").to_string(),
        retry_after_ms: doc.num("retry_after_ms").map(|ms| ms.max(0.0) as u64),
    }
}

fn exchange(stream: &mut TcpStream, line: &str) -> std::io::Result<String> {
    // Body and newline go out in one write: split across two, Nagle +
    // delayed ACK can park the newline for tens of milliseconds on
    // non-loopback links, polluting the latency samples with transport
    // artifacts (and stalling the server mid-line).
    stream.write_all(format!("{line}\n").as_bytes())?;
    stream.flush()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut response = String::new();
    reader.read_line(&mut response)?;
    Ok(response.trim_end().to_string())
}

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    // Measurement client: never let Nagle defer a request.
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Run one request, retrying retryable failures per `policy`, and time
/// the whole exchange (backoff sleeps included — the latency a caller
/// with this policy actually experiences). The jitter stream is seeded
/// per request (`seed`), so the backoff schedule is reproducible; only
/// *whether* each retry was needed depends on server state. Transport
/// errors reconnect before retrying; a failed reconnect is definitive.
fn timed_request(
    addr: &str,
    stream: &mut TcpStream,
    cell: usize,
    line: &str,
    policy: Option<&RetryPolicy>,
    seed: u64,
    retry_stats: &Registry,
) -> RequestSample {
    let started = Instant::now();
    let mut rng = Pcg32::seed_from_u64(seed);
    let mut attempts = 0u32;
    let mut slept_ms = 0u64;
    loop {
        attempts += 1;
        let outcome = match exchange(stream, line) {
            Ok(response) => outcome_of(&response),
            Err(e) => Outcome { ok: false, tag: format!("io: {e}"), retry_after_ms: None },
        };
        let sample = |o: &Outcome| RequestSample {
            cell,
            latency_s: started.elapsed().as_secs_f64(),
            source: o.tag.clone(),
            ok: o.ok,
            attempts,
        };
        if outcome.ok {
            return sample(&outcome);
        }
        let retryable = outcome.tag == "overloaded" || outcome.tag.starts_with("io:");
        let Some(policy) = policy.filter(|_| retryable) else {
            return sample(&outcome);
        };
        if attempts >= policy.max_attempts {
            retry_stats.add("serve.retry.giveups", 1);
            return sample(&outcome);
        }
        let backoff = policy.backoff_ms(&mut rng, attempts, outcome.retry_after_ms.unwrap_or(0));
        if slept_ms + backoff > policy.budget_ms {
            retry_stats.add("serve.retry.giveups", 1);
            return sample(&outcome);
        }
        if outcome.tag.starts_with("io:") {
            match connect(addr) {
                Ok(fresh) => *stream = fresh,
                Err(_) => return sample(&outcome),
            }
        }
        retry_stats.add("serve.retry.attempts", 1);
        retry_stats.record("serve.retry.hist.backoff_ms", backoff);
        slept_ms += backoff;
        std::thread::sleep(Duration::from_millis(backoff));
    }
}

/// Drive `options.requests` requests at `addr` over the cell schedule.
pub fn run_load(addr: &str, cells: &[Request], options: &LoadOptions) -> std::io::Result<LoadRun> {
    assert!(!cells.is_empty(), "load run needs at least one cell");
    let lines: Vec<String> = cells.iter().map(request_line).collect();
    // LOCK ORDER: 65 — per-run sample slots, written one statement at a
    // time by the load workers (client side; never nested with the
    // server's locks, which live in another process in real use).
    let results: Mutex<Vec<Option<RequestSample>>> = Mutex::new(vec![None; options.requests]);
    let retry_stats = Registry::new();
    let started = Instant::now();

    match options.mode {
        ArrivalMode::Closed { connections } => {
            let connections = connections.clamp(1, options.requests.max(1));
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| -> std::io::Result<()> {
                let mut handles = Vec::new();
                for _ in 0..connections {
                    let mut stream = connect(addr)?;
                    let next = &next;
                    let results = &results;
                    let lines = &lines;
                    let retry_stats = &retry_stats;
                    handles.push(scope.spawn(move || {
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= options.requests {
                                return;
                            }
                            let cell = i % lines.len();
                            let sample = timed_request(
                                addr,
                                &mut stream,
                                cell,
                                &lines[cell],
                                options.retry.as_ref(),
                                options.seed ^ (i as u64).wrapping_mul(SEED_MIX),
                                retry_stats,
                            );
                            // INFALLIBLE: holders only store a sample.
                            results.lock().expect("results poisoned")[i] = Some(sample);
                        }
                    }));
                }
                for h in handles {
                    let _ = h.join();
                }
                Ok(())
            })?;
        }
        ArrivalMode::Open { rate_rps } => {
            assert!(rate_rps > 0.0, "open-loop rate must be positive");
            // Pre-draw the arrival offsets so the schedule depends only
            // on the seed, not on how fast responses come back.
            let mut rng = Pcg32::seed_from_u64(options.seed);
            let mut at = 0.0f64;
            let arrivals: Vec<f64> = (0..options.requests)
                .map(|_| {
                    // Exponential inter-arrival; 1 - u keeps ln() finite.
                    at += -(1.0 - rng.next_f64()).ln() / rate_rps;
                    at
                })
                .collect();
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for (i, arrival) in arrivals.into_iter().enumerate() {
                    let elapsed = started.elapsed().as_secs_f64();
                    if arrival > elapsed {
                        std::thread::sleep(Duration::from_secs_f64(arrival - elapsed));
                    }
                    let results = &results;
                    let lines = &lines;
                    let retry_stats = &retry_stats;
                    handles.push(scope.spawn(move || {
                        let cell = i % lines.len();
                        let sample = match connect(addr) {
                            Ok(mut stream) => timed_request(
                                addr,
                                &mut stream,
                                cell,
                                &lines[cell],
                                options.retry.as_ref(),
                                options.seed ^ (i as u64).wrapping_mul(SEED_MIX),
                                retry_stats,
                            ),
                            Err(e) => RequestSample {
                                cell,
                                latency_s: 0.0,
                                source: format!("io: {e}"),
                                ok: false,
                                attempts: 1,
                            },
                        };
                        // INFALLIBLE: holders only store a sample.
                        results.lock().expect("results poisoned")[i] = Some(sample);
                    }));
                }
                for h in handles {
                    let _ = h.join();
                }
            });
        }
    }

    let wall_s = started.elapsed().as_secs_f64();
    // INFALLIBLE: all workers have joined; the lock is free.
    let samples = results
        .into_inner()
        .expect("results poisoned")
        .into_iter()
        .map(|s| s.expect("every request index filled"))
        .collect();
    Ok(LoadRun { samples, wall_s, retry: retry_stats.snapshot() })
}

/// Fetch one cell's served body (the verbatim `cell` member bytes).
pub fn fetch_cell_body(addr: &str, request: &Request) -> std::io::Result<String> {
    let mut stream = connect(addr)?;
    let response = exchange(&mut stream, &request_line(request))?;
    match response.split_once("\"cell\":") {
        Some((_, rest)) if response.starts_with("{\"ok\":true") => {
            Ok(rest[..rest.len() - 1].to_string())
        }
        _ => Err(std::io::Error::other(format!("not a cell response: {response}"))),
    }
}

/// Fetch the server's `stats` dump (raw JSON line).
pub fn fetch_stats(addr: &str) -> std::io::Result<String> {
    let mut stream = connect(addr)?;
    exchange(&mut stream, "{\"op\":\"stats\"}")
}

/// The model bytes a direct, serial engine run renders for `request` —
/// the reference the serving layer must match byte-for-byte.
pub fn direct_cell_body(request: &Request) -> Result<String, String> {
    let cell = request.resolve().map_err(|e| e.to_string())?;
    Ok(pvs_core::json::perf_report(&Engine::new(cell.machine).run(&cell.phases, cell.procs)))
}

/// Verify every cell's served bytes equal the direct computation.
/// Returns the offending cell keys on mismatch.
pub fn check_identity(addr: &str, cells: &[Request]) -> Result<(), Vec<String>> {
    let mut bad = Vec::new();
    for request in cells {
        let served = fetch_cell_body(addr, request);
        let direct = direct_cell_body(request);
        match (served, direct) {
            (Ok(s), Ok(d)) if s == d => {}
            _ => bad.push(request.canonical_key()),
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad)
    }
}

/// Render the run as a `pvs-bench/profile-v2` document: one cell per
/// distinct request (model = served bytes, host_wall = that cell's
/// request latencies), the load aggregates in a `load` object, and —
/// when the server answered a versioned snapshot — its final stats
/// document verbatim in a `server` member. `harness` is empty: what the
/// server counted (`serve.host.busy_us`, who hit and who missed under
/// four racing connections) depends on the host schedule, so it rides in
/// `server`, which `compare` does not gate.
pub fn bench_serve_doc(
    cells: &[Request],
    bodies: &[String],
    run: &LoadRun,
    server_stats: &str,
    options: &LoadOptions,
) -> String {
    assert_eq!(cells.len(), bodies.len());
    let cell_docs = array(cells.iter().zip(bodies).enumerate().map(|(i, (req, body))| {
        let mut lat: Vec<f64> = run
            .samples
            .iter()
            .filter(|s| s.ok && s.cell == i)
            .map(|s| s.latency_s)
            .collect();
        lat.sort_by(f64::total_cmp);
        let key = [req.app.as_str(), &req.config, &req.machine];
        cell_json(key, req.procs, body.clone(), &lat).render()
    }));

    let lat = run.latency_hist_us().summary();
    let mode = match options.mode {
        ArrivalMode::Closed { connections } => JsonObject::new()
            .string("mode", "closed")
            .number("connections", connections as f64)
            .render(),
        ArrivalMode::Open { rate_rps } => JsonObject::new()
            .string("mode", "open")
            .number("rate_rps", rate_rps)
            .render(),
    };
    let backoff = run
        .retry
        .hists
        .iter()
        .find(|(name, _)| name == "serve.retry.hist.backoff_ms")
        .map(|(_, h)| h.summary());
    let retry = JsonObject::new()
        .number("attempts", run.retry.counter("serve.retry.attempts").unwrap_or(0) as f64)
        .number("giveups", run.retry.counter("serve.retry.giveups").unwrap_or(0) as f64)
        .number(
            "backoff_p50_ms",
            backoff.as_ref().map(|s| s.p50 as f64).unwrap_or(0.0),
        )
        .number(
            "backoff_max_ms",
            backoff.as_ref().map(|s| s.max as f64).unwrap_or(0.0),
        )
        .render();
    let load = JsonObject::new()
        .number("requests", run.samples.len() as f64)
        .raw("arrivals", mode)
        .number("seed", options.seed as f64)
        .number("wall_s", run.wall_s)
        .number("throughput_rps", run.throughput_rps())
        .number("latency_p50_us", lat.p50 as f64)
        .number("latency_p90_us", lat.p90 as f64)
        .number("latency_p99_us", lat.p99 as f64)
        .raw("retry", retry)
        .render();

    let mut doc = JsonObject::new()
        .string("schema", pvs_core::schema::PROFILE_V2)
        .raw("load", load)
        .raw("harness", array([]));
    // The server's final snapshot document, embedded verbatim when it is
    // the versioned `pvs-obs/snapshot-v1` line (older servers answered
    // an unversioned stats dump; their runs simply omit the member).
    if pvs_core::json::parse(server_stats)
        .ok()
        .and_then(|d| d.str("schema").map(|s| s == pvs_core::schema::SNAPSHOT_V1))
        .unwrap_or(false)
    {
        doc = doc.raw("server", server_stats.to_string());
    }
    pretty(&doc.raw("cells", cell_docs).render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvs_serve::{Server, ServerOptions};

    fn run_of_us(lats_us: &[u64]) -> LoadRun {
        let samples = lats_us
            .iter()
            .map(|&us| RequestSample {
                cell: 0,
                latency_s: us as f64 / 1e6,
                source: "memory".to_string(),
                ok: true,
                attempts: 1,
            })
            .collect();
        LoadRun { samples, wall_s: 1.0, retry: Snapshot::default() }
    }

    #[test]
    fn latency_hist_is_nearest_rank_on_even_counts() {
        // 4 samples: rank(50) = 2 — the lower-middle sample, per the
        // nearest-rank definition shared with the server's histograms.
        let h = run_of_us(&[10, 20, 30, 40]).latency_hist_us();
        assert_eq!(h.percentile(50), 20);
        assert_eq!(h.percentile(90), 40);
        assert_eq!(h.percentile(99), 40);
        assert_eq!(run_of_us(&[]).latency_hist_us().percentile(50), 0);
        assert_eq!(run_of_us(&[7]).latency_hist_us().percentile(99), 7);
    }

    #[test]
    fn latency_hist_is_nearest_rank_on_odd_counts() {
        // 5 samples: rank(50) = 3 — the true median.
        let h = run_of_us(&[1, 2, 3, 4, 5]).latency_hist_us();
        assert_eq!(h.percentile(50), 3);
        assert_eq!(h.percentile(90), 5);
    }

    #[test]
    fn latency_hist_keeps_sub_64us_values_exact_and_skips_failures() {
        let mut run = run_of_us(&[7, 63]);
        run.samples.push(RequestSample {
            cell: 0,
            latency_s: 9.9,
            source: "io: refused".to_string(),
            ok: false,
            attempts: 1,
        });
        let h = run.latency_hist_us();
        assert_eq!(h.count(), 2, "failed requests never pollute latency");
        assert_eq!(h.min(), 7);
        assert_eq!(h.max(), 63);
        assert_eq!(h.sum(), 70);
    }

    #[test]
    fn default_serve_grid_is_eight_valid_cells() {
        let cells = paper_serve_cells();
        assert_eq!(cells.len(), 8);
        for c in &cells {
            c.resolve().unwrap();
        }
    }

    #[test]
    fn closed_loop_run_covers_the_schedule_and_passes_identity() {
        let server = Server::start(ServerOptions::default()).unwrap();
        let addr = server.addr().to_string();
        let cells = vec![
            Request::cell("LBMHD", "4096x4096", "ES", 16),
            Request::cell("GTC", "10 part/cell", "X1", 16),
        ];
        let options = LoadOptions {
            requests: 10,
            mode: ArrivalMode::Closed { connections: 3 },
            seed: 1,
            ..Default::default()
        };
        let run = run_load(&addr, &cells, &options).unwrap();
        assert_eq!(run.samples.len(), 10);
        assert!(run.samples.iter().all(|s| s.ok), "{:?}", run.source_counts());
        // Request i asked for cell i % 2.
        for (i, s) in run.samples.iter().enumerate() {
            assert_eq!(s.cell, i % 2);
        }
        check_identity(&addr, &cells).unwrap();

        let bodies: Vec<String> = cells
            .iter()
            .map(|c| fetch_cell_body(&addr, c).unwrap())
            .collect();
        let stats = fetch_stats(&addr).unwrap();
        let doc = bench_serve_doc(&cells, &bodies, &run, &stats, &options);
        // The emitted document passes the profile-v2 gate and carries both cells.
        let parsed = pvs_core::json::parse(&doc).unwrap();
        pvs_analyze::sentinel::check_profile_doc(&parsed).unwrap();
        let cells = parsed.get("cells").and_then(pvs_core::json::Value::as_array);
        assert_eq!(cells.map(<[_]>::len), Some(2));
        assert!(doc.contains("\"harness\": []"), "host-dependent counters stay out of harness");
        assert!(doc.contains("serve.cache.hits"), "the server snapshot carries them");
        assert!(doc.contains("throughput_rps"));
        // The final server snapshot rides along verbatim.
        assert!(doc.contains("\"server\""), "{doc}");
        assert!(doc.contains("\"uptime_s\""), "{doc}");
        assert!(doc.contains("serve.hist.busy_us"), "{doc}");
    }

    #[test]
    fn backoff_schedules_are_seed_deterministic_and_respect_the_hint() {
        let policy = RetryPolicy::default();
        let schedule = |seed: u64, hint: u64| -> Vec<u64> {
            let mut rng = Pcg32::seed_from_u64(seed);
            (1..=6).map(|retry| policy.backoff_ms(&mut rng, retry, hint)).collect()
        };
        assert_eq!(schedule(7, 0), schedule(7, 0), "same seed, same jitter");
        assert_ne!(schedule(7, 0), schedule(8, 0), "seeds must matter");
        for (retry, &ms) in schedule(7, 0).iter().enumerate() {
            // Half-jitter window: [capped/2, capped].
            let capped = (policy.base_ms << retry).min(policy.cap_ms);
            assert!(ms >= capped / 2 && ms <= capped, "retry {retry}: {ms}");
        }
        // The server hint floors every sleep.
        assert!(schedule(7, 300).iter().all(|&ms| ms >= 300));
    }

    #[test]
    fn overload_is_retried_then_given_up_structurally() {
        // max_pending = 0 rejects every miss, so each attempt draws an
        // `overloaded` + hint and the client must exhaust its attempts.
        let server = Server::start(ServerOptions {
            store: pvs_serve::StoreOptions { threads: 1, max_pending: 0, ..Default::default() },
            ..Default::default()
        })
        .unwrap();
        let addr = server.addr().to_string();
        let cells = vec![Request::cell("LBMHD", "4096x4096", "ES", 16)];
        let options = LoadOptions {
            requests: 2,
            mode: ArrivalMode::Closed { connections: 1 },
            seed: 9,
            retry: Some(RetryPolicy { max_attempts: 3, base_ms: 1, cap_ms: 2, budget_ms: 500 }),
        };
        let run = run_load(&addr, &cells, &options).unwrap();
        for s in &run.samples {
            assert!(!s.ok);
            assert_eq!(s.source, "overloaded");
            assert_eq!(s.attempts, 3, "retries exhausted");
        }
        assert_eq!(run.retry.counter("serve.retry.attempts"), Some(4), "2 requests × 2 retries");
        assert_eq!(run.retry.counter("serve.retry.giveups"), Some(2));
        let (_, backoffs) = run
            .retry
            .hists
            .iter()
            .find(|(n, _)| n == "serve.retry.hist.backoff_ms")
            .expect("backoff histogram recorded");
        // Every slept backoff honored the server's 20 ms queue-depth hint.
        assert_eq!(backoffs.count(), 4);
        assert!(backoffs.min() >= 20, "hint floors the backoff: {}", backoffs.min());
        // The server turned away every attempt: 2 requests × 3 attempts.
        assert_eq!(server.store().registry().counter("serve.queue.rejected"), 6);

        // No-retry mode fails fast on the same server.
        let fast = run_load(&addr, &cells, &LoadOptions { retry: None, requests: 1, ..options })
            .unwrap();
        assert_eq!(fast.samples[0].attempts, 1);
        assert_eq!(fast.retry.counter("serve.retry.attempts"), None);
    }

    #[test]
    fn open_loop_arrivals_are_seed_deterministic() {
        let server = Server::start(ServerOptions::default()).unwrap();
        let addr = server.addr().to_string();
        let cells = vec![Request::cell("CACTUS", "80x80x80", "Power3", 16)];
        let options = LoadOptions {
            requests: 5,
            mode: ArrivalMode::Open { rate_rps: 200.0 },
            seed: 42,
            ..Default::default()
        };
        let run = run_load(&addr, &cells, &options).unwrap();
        assert_eq!(run.samples.len(), 5);
        assert!(run.samples.iter().all(|s| s.ok), "{:?}", run.source_counts());
        // Exactly one computed miss; the rest were batched or hits.
        let counts = run.source_counts();
        let computed: usize = counts
            .iter()
            .filter(|(tag, _)| tag == "computed")
            .map(|(_, n)| *n)
            .sum();
        assert_eq!(computed, 1, "{counts:?}");
    }
}
