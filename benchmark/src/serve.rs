//! `serve_hot` and `serve_cold`: a closed loop of keep-alive connections
//! against an in-process `pvs_serve::Server`, over the TCP wire.
//!
//! Closed loop: each connection sends its next request only after the
//! previous reply's newline has been read. Client count is
//! [`crate::spec::threads`]; there is no think time.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use pvs_analyze::json::Value;
use pvs_core::engine::Engine;
use pvs_core::rng::Pcg32;
use pvs_serve::cache::ShardedCache;
use pvs_serve::{proto, Request, Server, ServerOptions, StoreOptions};

use crate::gen;
use crate::stats::{median, percentile, quiet, Digest};
use crate::trace::Tracer;
use crate::{layers, peak_rss_mb, spec, timed_set_ups, BenchError, Outcome, RunConfig};

/// Set-ups timed at each of the three sampling points of a run.
const SETUPS: usize = 8;
/// Cells each replayed stage walks, and `serve_cold`'s digest covers.
const REPLAY_CELLS: usize = 64;
/// Walks over those cells per replayed stage.
const REPLAY_REPS: usize = 8;

/// The bytes a direct, serial engine run renders for `request`: what the
/// server must serve, byte for byte.
fn direct_body(request: &Request) -> String {
    let cell = request.resolve().expect("generated cells resolve");
    pvs_report::json::perf_report(&Engine::new(cell.machine).run(&cell.phases, cell.procs))
}

/// The `cell` member of a cell response line, verbatim; `None` for any
/// other response.
fn served_body(response: &[u8]) -> Option<&[u8]> {
    const MARK: &[u8] = b"\"cell\":";
    if !response.starts_with(b"{\"ok\":true") {
        return None;
    }
    let at = response.windows(MARK.len()).position(|w| w == MARK)?;
    response[at + MARK.len()..].strip_suffix(b"}\n")
}

/// One keep-alive client connection.
struct Conn {
    stream: TcpStream,
    response: Vec<u8>,
    chunk: Vec<u8>,
}

/// The four instants of one exchange.
struct Exchange {
    start: Instant,
    written: Instant,
    first_byte: Instant,
    done: Instant,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        // The request leaves in one segment whatever Nagle thinks.
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            response: Vec::new(),
            chunk: vec![0; 64 * 1024],
        })
    }

    /// Send one line (newline included) and read the reply up to its
    /// newline into `self.response`.
    fn exchange(&mut self, line: &[u8]) -> std::io::Result<Exchange> {
        let start = Instant::now();
        self.stream.write_all(line)?;
        let written = Instant::now();
        self.response.clear();
        let mut first_byte = None;
        while self.response.last() != Some(&b'\n') {
            let n = self.stream.read(&mut self.chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            first_byte.get_or_insert_with(Instant::now);
            self.response.extend_from_slice(&self.chunk[..n]);
        }
        let done = Instant::now();
        Ok(Exchange {
            start,
            written,
            first_byte: first_byte.unwrap_or(done),
            done,
        })
    }
}

/// One `{"op":"stats","mode":"delta"}` exchange on a fresh connection:
/// the registry's increments since the previous such call.
fn stats_delta(addr: SocketAddr) -> Result<Value, BenchError> {
    let mut conn = Conn::open(addr)?;
    conn.exchange(b"{\"op\":\"stats\",\"mode\":\"delta\"}\n")?;
    let text = String::from_utf8_lossy(&conn.response).into_owned();
    pvs_analyze::json::parse(&text).map_err(|e| BenchError::Check(format!("stats reply: {e}")))
}

fn counter(stats: &Value, name: &str) -> f64 {
    stats
        .get("counters")
        .and_then(|c| c.num(name))
        .unwrap_or(0.0)
}

/// Where a connection's next request comes from.
enum Picker<'a> {
    /// Uniformly at random from the resident set.
    Hot(Pcg32),
    /// The next never-sent cell of the shared permutation.
    Cold(&'a AtomicUsize),
}

/// What one connection measured in one phase.
struct Samples {
    latency_ns: Vec<u64>,
    failed: u64,
    /// Replies kept for the identity check, with their cell index.
    kept: Vec<(usize, Vec<u8>)>,
    ended: Instant,
}

/// Drive one connection until `until` (or until the cold list runs out).
fn client_loop(
    conn: &mut Conn,
    picker: &mut Picker<'_>,
    lines: &[Vec<u8>],
    seed: u64,
    until: Instant,
    tracer: &mut Tracer,
) -> std::io::Result<Samples> {
    let mut out = Samples {
        latency_ns: Vec::new(),
        failed: 0,
        kept: Vec::new(),
        ended: until,
    };
    // `serve_hot` keeps each cell's latest reply: one slot per cell.
    let mut latest: Vec<Vec<u8>> = match picker {
        Picker::Hot(_) => vec![Vec::new(); lines.len()],
        Picker::Cold(_) => Vec::new(),
    };
    while Instant::now() < until {
        let cell = match picker {
            Picker::Hot(rng) => rng.next_below(lines.len() as u32) as usize,
            Picker::Cold(next) => next.fetch_add(1, Ordering::Relaxed),
        };
        if cell >= lines.len() {
            break;
        }
        let x = conn.exchange(&lines[cell])?;
        out.latency_ns
            .push(x.done.duration_since(x.start).as_nanos() as u64);
        let id = cell as u64;
        let parent = tracer.record("serve.request", x.start, x.done, None, id, 1);
        tracer.record("serve.client_write", x.start, x.written, parent, id, 1);
        tracer.record("serve.client_wait", x.written, x.first_byte, parent, id, 1);
        tracer.record("serve.client_read", x.first_byte, x.done, parent, id, 1);
        if !conn.response.starts_with(b"{\"ok\":true") {
            out.failed += 1;
        } else if let Some(slot) = latest.get_mut(cell) {
            std::mem::swap(slot, &mut conn.response);
        } else if gen::cold_sampled(seed, cell) {
            out.kept.push((cell, std::mem::take(&mut conn.response)));
        }
    }
    out.ended = Instant::now();
    out.kept.extend(
        latest
            .into_iter()
            .enumerate()
            .filter(|(_, r)| !r.is_empty()),
    );
    Ok(out)
}

/// What one phase (all connections, one window) measured.
struct Phase {
    latency_ns: Vec<u64>,
    failed: u64,
    kept: Vec<(usize, Vec<u8>)>,
    window_s: f64,
}

impl Phase {
    fn ok(&self) -> u64 {
        self.latency_ns.len() as u64 - self.failed
    }

    fn ops_per_s(&self) -> f64 {
        self.ok() as f64 / self.window_s
    }
}

/// Everything set-up builds.
struct Bed {
    server: Server,
    cells: Vec<Request>,
    lines: Vec<Vec<u8>>,
    /// `serve_hot` only: the body each resident cell must be served as.
    /// (`serve_cold` computes its sampled cells' bodies after the window:
    /// which of its 40 960 cells get sent is not known before.)
    expected: Vec<String>,
}

impl Bed {
    /// The bytes the server must serve for cell `index`.
    fn expected_body(&self, index: usize) -> std::borrow::Cow<'_, str> {
        match self.expected.get(index) {
            Some(body) => body.as_str().into(),
            None => direct_body(&self.cells[index]).into(),
        }
    }
}

/// `spill` names the spill directory under the run's scratch directory:
/// the measured server and the set-ups timed beside it must not share one.
fn set_up(hot: bool, cfg: &RunConfig, spill: &str) -> Result<Bed, BenchError> {
    let spill_dir = cfg.out_dir.join(spill);
    let store = StoreOptions {
        threads: spec::threads(),
        spill_dir: (!hot).then(|| spill_dir.clone()),
        ..StoreOptions::default()
    };
    if !hot {
        let _ = std::fs::remove_dir_all(&spill_dir);
        std::fs::create_dir_all(&spill_dir).map_err(BenchError::Output)?;
    }
    let server = Server::start(ServerOptions {
        store,
        ..ServerOptions::default()
    })?;
    let cells = if hot {
        gen::hot_set(cfg.seed)
    } else {
        gen::cold_cells(cfg.seed)
    };
    let mut expected = Vec::new();
    if hot {
        for cell in &cells {
            server
                .store()
                .get(cell)
                .map_err(|e| BenchError::Check(format!("pre-fill: {e}")))?;
            expected.push(direct_body(cell));
        }
    }
    let lines = cells
        .iter()
        .map(|c| (gen::request_line(c) + "\n").into_bytes())
        .collect();
    Ok(Bed {
        server,
        cells,
        lines,
        expected,
    })
}

/// Run `serve_hot` (`hot`) or `serve_cold`.
pub fn run(hot: bool, cfg: &RunConfig) -> Result<Outcome, BenchError> {
    let threads = spec::threads();
    let mut tracer = Tracer::new(Instant::now(), cfg.trace);
    let mut setup_ns = Vec::new();
    let bed = timed_set_ups(&mut setup_ns, SETUPS, || set_up(hot, cfg, "spill"))?;
    // Later set-up samples: the measured server stays up beside them.
    let mut more_set_ups = || -> Result<(), BenchError> {
        if !cfg.trace {
            timed_set_ups(&mut setup_ns, SETUPS, || set_up(hot, cfg, "spill-setup"))?;
        }
        Ok(())
    };
    let addr = bed.server.addr();

    let mut conns = (0..threads)
        .map(|_| Conn::open(addr))
        .collect::<std::io::Result<Vec<_>>>()?;
    let next_cold = AtomicUsize::new(0);
    let mut pickers: Vec<Picker<'_>> = (0..threads)
        .map(|c| {
            if hot {
                Picker::Hot(gen::hot_picks(cfg.seed, c))
            } else {
                Picker::Cold(&next_cold)
            }
        })
        .collect();

    // One window: every connection loops on its own thread until the
    // window ends. Connections and pick streams carry over between
    // windows; only a traced window records spans.
    let mut phase =
        |seconds: f64, traced: bool, tracer: &mut Tracer| -> Result<Phase, BenchError> {
            let started = Instant::now();
            let until = started + Duration::from_secs_f64(seconds);
            let epoch_tracer = &*tracer;
            let results: Vec<std::io::Result<(Samples, Tracer)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = conns
                    .iter_mut()
                    .zip(pickers.iter_mut())
                    .map(|(conn, picker)| {
                        let mut local = epoch_tracer.fork(traced);
                        let lines = &bed.lines;
                        scope.spawn(move || {
                            client_loop(conn, picker, lines, cfg.seed, until, &mut local)
                                .map(|samples| (samples, local))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            let mut out = Phase {
                latency_ns: Vec::new(),
                failed: 0,
                kept: Vec::new(),
                window_s: 0.0,
            };
            let mut ended = started;
            for result in results {
                let (samples, local) = result?;
                tracer.absorb(local);
                out.latency_ns.extend(samples.latency_ns);
                out.failed += samples.failed;
                out.kept.extend(samples.kept);
                ended = ended.max(samples.ended);
            }
            out.window_s = ended.duration_since(started).as_secs_f64();
            if out.latency_ns.is_empty() {
                return Err(BenchError::Check("a window completed no request".into()));
            }
            Ok(out)
        };

    phase(cfg.warmup_seconds(), false, &mut tracer)?;
    more_set_ups()?;
    let reference = if cfg.trace {
        Some(phase(cfg.window_seconds(), false, &mut tracer)?)
    } else {
        None
    };
    stats_delta(addr)?;
    let measured = phase(cfg.window_seconds(), cfg.trace, &mut tracer)?;
    let stats = stats_delta(addr)?;
    let peak_rss_mb = peak_rss_mb();
    more_set_ups()?;

    // Off the clock from here on.
    let mut failed = measured.failed + reference.as_ref().map_or(0, |r| r.failed);
    let attempted =
        (measured.latency_ns.len() + reference.as_ref().map_or(0, |r| r.latency_ns.len())) as u64;
    let mut notes = vec![
        ("requests", measured.latency_ns.len().to_string()),
        ("window_s", format!("{:.3}", measured.window_s)),
        ("connections", threads.to_string()),
    ];

    // The workload's premise: all hits, or all misses.
    let (hits, misses) = (
        counter(&stats, "serve.cache.hits"),
        counter(&stats, "serve.cache.misses"),
    );
    let hit_ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    if hit_ratio != if hot { 1.0 } else { 0.0 } {
        failed += 1;
        notes.push((
            "premise",
            format!("hit ratio {hit_ratio} ({hits} hits, {misses} misses)"),
        ));
    }

    // Identity: every kept reply equals the direct computation.
    let mut checked = 0u64;
    for (cell, response) in measured
        .kept
        .iter()
        .chain(reference.iter().flat_map(|r| &r.kept))
    {
        checked += 1;
        if served_body(response) != Some(bed.expected_body(*cell).as_bytes()) {
            failed += 1;
            notes.push(("mismatch", bed.cells[*cell].canonical_key()));
        }
    }
    notes.push(("bodies_checked", checked.to_string()));

    let mut digest = Digest::new();
    for index in 0..REPLAY_CELLS.min(bed.cells.len()) {
        digest.add(bed.expected_body(index).as_bytes());
    }

    let p50_ns = median(&measured.latency_ns);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    if let Some(reference) = reference {
        let busy_p50_us = stats
            .get("hists")
            .and_then(|h| h.get("serve.hist.busy_us"))
            .and_then(|h| h.num("p50"))
            .unwrap_or(0.0);
        metrics.push((
            "trace_overhead_pct".into(),
            (reference.ops_per_s() / measured.ops_per_s() - 1.0) * 100.0,
        ));
        metrics.push(("op_p50_us".into(), p50_ns as f64 / 1e3));
        metrics.push((
            "op_p95_us".into(),
            percentile(&measured.latency_ns, 95) as f64 / 1e3,
        ));
        metrics.push(("serve.busy_p50_us".into(), busy_p50_us));
        metrics.push((
            "serve.unaccounted_us".into(),
            p50_ns as f64 / 1e3 - busy_p50_us,
        ));
        metrics.push(("serve.hit_ratio".into(), hit_ratio));
        metrics.push(("serve.sim_runs".into(), counter(&stats, "serve.sim.runs")));
        metrics.push((
            "serve.overloaded".into(),
            counter(&stats, "serve.queue.rejected"),
        ));
        metrics.push((
            "serve.spill_errors".into(),
            counter(&stats, "serve.spill.errors"),
        ));
        let first_unsent = next_cold.load(Ordering::Relaxed);
        replay(hot, &bed, first_unsent, &cfg.out_dir, &mut tracer)?;
        metrics.extend(layers::metrics_from_spans(&tracer));
    } else {
        metrics.push(("ops_per_s".into(), measured.ops_per_s()));
        metrics.push(("op_p2_us".into(), quiet(&measured.latency_ns) as f64 / 1e3));
        metrics.push(("setup_s".into(), quiet(&setup_ns) as f64 / 1e9));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb));
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        digest: digest.finish(),
        notes,
        tracer,
    })
}

/// Replay the workload's own inputs, single-threaded, through the public
/// function of each serve stage it exercises.
fn replay(
    hot: bool,
    bed: &Bed,
    first_unsent: usize,
    out_dir: &Path,
    tracer: &mut Tracer,
) -> Result<(), BenchError> {
    let root = tracer.open("bench.replay", None, 0);
    let cells = &bed.cells[..REPLAY_CELLS.min(bed.cells.len())];
    let lines: Vec<String> = cells.iter().map(gen::request_line).collect();
    let store = bed.server.store();

    for _ in 0..REPLAY_REPS {
        for (i, (cell, line)) in cells.iter().zip(&lines).enumerate() {
            let id = i as u64;
            tracer.time("serve.parse", root, id, 1, || {
                std::hint::black_box(proto::parse_line(line).expect("request lines parse"));
            });
            tracer.time("serve.key", root, id, 1, || {
                std::hint::black_box(cell.key_hash())
            });
            tracer.time("serve.resolve", root, id, 1, || {
                std::hint::black_box(cell.resolve().expect("generated cells resolve"));
            });
        }
    }
    layers::analyze_parse(tracer, root, &lines, REPLAY_REPS);
    layers::obs(tracer, root);

    if hot {
        // Every hot cell is resident: `get` is the memory-hit path.
        let mut bodies = Vec::new();
        for rep in 0..REPLAY_REPS {
            for (i, cell) in cells.iter().enumerate() {
                let response = tracer
                    .time("serve.store_hit", root, i as u64, 1, || store.get(cell))
                    .map_err(|e| BenchError::Check(format!("replayed hit: {e}")))?;
                tracer.time("serve.respond", root, i as u64, 1, || {
                    std::hint::black_box(proto::cell_response(&response));
                });
                if rep == 0 {
                    bodies.push((response.key, response.body));
                }
            }
        }
        let cache = ShardedCache::new(pvs_serve::cache::DEFAULT_SHARDS, None);
        for (key, body) in &bodies {
            cache.insert(key, body.clone())?;
        }
        for _ in 0..REPLAY_REPS * 8 {
            tracer.time("serve.cache_get", root, 0, bodies.len() as u32, || {
                for (key, _) in &bodies {
                    std::hint::black_box(cache.get_memory(key));
                }
            });
        }
    } else {
        // Cells from the unsent tail of the permutation are still absent:
        // `get` is the full miss path, spill write included.
        let absent = &bed.cells[first_unsent.min(bed.cells.len())..];
        let absent = &absent[absent.len().saturating_sub(REPLAY_CELLS)..];
        let mut responses = Vec::new();
        for (i, cell) in absent.iter().enumerate() {
            responses.push(
                tracer
                    .time("serve.store_miss", root, i as u64, 1, || store.get(cell))
                    .map_err(|e| BenchError::Check(format!("replayed miss: {e}")))?,
            );
        }
        let spill = out_dir.join("insert-spill");
        let cache = ShardedCache::new(pvs_serve::cache::DEFAULT_SHARDS, Some(spill));
        for (i, response) in responses.iter().enumerate() {
            tracer.time("serve.respond", root, i as u64, 1, || {
                std::hint::black_box(proto::cell_response(response));
            });
            tracer
                .time("serve.cache_insert", root, i as u64, 1, || {
                    cache.insert(&response.key, response.body.clone())
                })
                .map_err(BenchError::Output)?;
        }
        let reports = layers::engine_runs(tracer, root, cells, 3);
        layers::report_render(tracer, root, &reports, REPLAY_REPS);
        layers::pool_handoff(tracer, root, spec::threads());
    }
    tracer.close(root);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_served_body_is_the_verbatim_cell_member() {
        let line = b"{\"ok\":true,\"key\":\"00\",\"source\":\"memory\",\"cell\":{\"procs\":4}}\n";
        assert_eq!(served_body(line), Some(&b"{\"procs\":4}"[..]));
        assert_eq!(
            served_body(b"{\"ok\":false,\"error\":\"overloaded\"}\n"),
            None
        );
        assert_eq!(served_body(b"{\"ok\":true,\"pong\":true}\n"), None);
    }

    #[test]
    fn a_hot_cell_is_served_byte_identical_over_the_wire() {
        let server = Server::start(ServerOptions::default()).unwrap();
        let cell = &gen::hot_set(1)[0];
        let mut conn = Conn::open(server.addr()).unwrap();
        let line = (gen::request_line(cell) + "\n").into_bytes();
        for _ in 0..2 {
            let x = conn.exchange(&line).unwrap();
            assert!(x.start <= x.written && x.written <= x.first_byte && x.first_byte <= x.done);
            assert_eq!(
                served_body(&conn.response),
                Some(direct_body(cell).as_bytes())
            );
        }
        let stats = stats_delta(server.addr()).unwrap();
        assert_eq!(counter(&stats, "serve.cache.hits"), 1.0);
        assert_eq!(counter(&stats, "serve.cache.misses"), 1.0);
        assert_eq!(counter(&stats, "serve.no.such.counter"), 0.0);
    }
}
