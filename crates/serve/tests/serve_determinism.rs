//! End-to-end serving-layer tests: the invariants the server promises
//! hold over real sockets, not just in-process calls.
//!
//! The load-bearing ones:
//! * a served cell's model metrics are byte-identical to a direct
//!   `Engine::run` + `perf_report` rendering, at any store thread count,
//!   cache hit or miss;
//! * N concurrent identical requests cost exactly one simulation
//!   (proved by the server's own `serve.*` counters);
//! * admission control rejects misses deterministically while hits
//!   still serve;
//! * a restarted server warm-starts from its disk spill.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use pvs_core::engine::Engine;
use pvs_core::json::perf_report;
use pvs_serve::store::StoreOptions;
use pvs_serve::{CellSource, CellStore, Request, Server, ServerOptions};

fn direct_body(request: &Request) -> String {
    let cell = request.resolve().expect("test request resolves");
    perf_report(&Engine::new(cell.machine).run(&cell.phases, cell.procs))
}

/// One request/response exchange on an existing connection.
fn roundtrip(stream: &mut TcpStream, line: &str) -> String {
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response.trim_end().to_string()
}

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

/// Extract the verbatim cell payload from a `{"ok":true,...,"cell":{…}}`
/// line — the protocol puts `cell` last precisely to allow this.
fn cell_bytes(response: &str) -> &str {
    let (_, rest) = response
        .split_once("\"cell\":")
        .unwrap_or_else(|| panic!("no cell member in {response}"));
    &rest[..rest.len() - 1]
}

#[test]
fn served_bytes_match_direct_computation_at_any_thread_count() {
    let request = Request::cell("PARATEC", "686 atom", "ES", 256);
    let expected = direct_body(&request);
    for threads in [1, 8] {
        let store = Arc::new(CellStore::new(StoreOptions {
            threads,
            ..Default::default()
        }));
        let miss = store.get(&request).unwrap();
        assert_eq!(miss.source, CellSource::Computed);
        assert_eq!(*miss.body, expected, "threads={threads} (miss)");
        let hit = store.get(&request).unwrap();
        assert_eq!(hit.source, CellSource::Memory);
        assert_eq!(*hit.body, expected, "threads={threads} (hit)");
    }
}

#[test]
fn tcp_roundtrip_serves_the_exact_model_bytes() {
    let server = Server::start(ServerOptions::default()).unwrap();
    let mut stream = connect(&server);

    assert_eq!(
        roundtrip(&mut stream, r#"{"op":"ping"}"#),
        r#"{"ok":true,"pong":true}"#
    );

    let request = Request::cell("GTC", "100 part/cell", "X1", 64);
    let line = r#"{"op":"cell","app":"GTC","config":"100 part/cell","machine":"X1","procs":64}"#;
    let first = roundtrip(&mut stream, line);
    assert!(first.contains("\"source\":\"computed\""), "{first}");
    assert_eq!(cell_bytes(&first), direct_body(&request));

    // Second ask on the same connection: a memory hit, same bytes.
    let second = roundtrip(&mut stream, line);
    assert!(second.contains("\"source\":\"memory\""), "{second}");
    assert_eq!(cell_bytes(&second), cell_bytes(&first));

    // Stats reflect what just happened.
    let stats = roundtrip(&mut stream, r#"{"op":"stats"}"#);
    assert!(stats.contains("\"serve.cache.hits\":1"), "{stats}");
    assert!(stats.contains("\"serve.cache.misses\":1"), "{stats}");
    assert!(stats.contains("\"cached_cells\":1"), "{stats}");
}

#[test]
fn telemetry_snapshots_carry_schema_mode_and_deltas_that_tile() {
    let server = Server::start(ServerOptions::default()).unwrap();
    let mut stream = connect(&server);

    let health = roundtrip(&mut stream, r#"{"op":"health"}"#);
    assert!(health.contains("\"healthy\":true"), "{health}");
    assert!(health.contains("\"schema\":\"pvs-obs/snapshot-v1\""), "{health}");
    assert!(health.contains("\"inflight\":0"), "{health}");

    let line = r#"{"op":"cell","app":"LBMHD","config":"8192x8192","machine":"ES","procs":64}"#;
    roundtrip(&mut stream, line);

    let d1 = roundtrip(&mut stream, r#"{"op":"stats","mode":"delta"}"#);
    assert!(d1.contains("\"schema\":\"pvs-obs/snapshot-v1\""), "{d1}");
    assert!(d1.contains("\"mode\":\"delta\""), "{d1}");
    assert!(d1.contains("\"serve.sim.runs\":1"), "{d1}");
    // The requests before this one are in the busy-time histogram.
    assert!(d1.contains("\"serve.hist.busy_us\":{\"count\":"), "{d1}");

    // An immediate second delta covers an empty period: the run counter
    // reads zero, while the cumulative view still shows the total.
    let d2 = roundtrip(&mut stream, r#"{"op":"stats","mode":"delta"}"#);
    assert!(d2.contains("\"serve.sim.runs\":0"), "{d2}");
    let total = roundtrip(&mut stream, r#"{"op":"stats"}"#);
    assert!(total.contains("\"mode\":\"cumulative\""), "{total}");
    assert!(total.contains("\"serve.sim.runs\":1"), "{total}");
}

#[test]
fn malformed_and_invalid_requests_get_tagged_errors() {
    let server = Server::start(ServerOptions::default()).unwrap();
    let mut stream = connect(&server);

    for frame in ["this is not json", r#"{"op":"teleport"}"#, "[1,2"] {
        let garbled = roundtrip(&mut stream, frame);
        assert!(garbled.contains("\"error\":\"malformed\""), "{frame}: {garbled}");
    }
    let registry = server.store().registry();
    assert_eq!(registry.counter("serve.errors.malformed"), 3);

    let unknown = roundtrip(
        &mut stream,
        r#"{"op":"cell","app":"LINPACK","config":"x","machine":"ES","procs":4}"#,
    );
    assert!(unknown.contains("\"error\":\"bad_request\""), "{unknown}");
    assert!(unknown.contains("LINPACK"), "{unknown}");

    // A fault plan past MAX_FAULT_EVENTS is refused before it is built.
    let huge_plan = roundtrip(
        &mut stream,
        r#"{"op":"cell","app":"GTC","config":"10 part/cell","machine":"X1","procs":64,"fault_seed":1,"fault_events":1e15}"#,
    );
    assert!(huge_plan.contains("\"error\":\"bad_request\""), "{huge_plan}");
    assert!(huge_plan.contains("fault_events"), "{huge_plan}");
    assert_eq!(registry.counter("serve.sim.runs"), 0);

    // The connection survives errors: a good request still works.
    let ok = roundtrip(
        &mut stream,
        r#"{"op":"cell","app":"LBMHD","config":"4096x4096","machine":"Power3","procs":16}"#,
    );
    assert!(ok.starts_with("{\"ok\":true"), "{ok}");
}

#[test]
fn concurrent_tcp_clients_on_one_cell_cost_one_simulation() {
    let server = Server::start(ServerOptions::default()).unwrap();
    let addr = server.addr();
    let n = 6;
    let line = r#"{"op":"cell","app":"CACTUS","config":"250x64x64","machine":"ES","procs":64}"#;

    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    roundtrip(&mut stream, line)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let first_cell = cell_bytes(&bodies[0]).to_string();
    for body in &bodies {
        assert!(body.starts_with("{\"ok\":true"), "{body}");
        assert_eq!(cell_bytes(body), first_cell);
    }

    let snap = server.store().registry().snapshot();
    assert_eq!(snap.counter("serve.sim.runs"), Some(1), "{snap:?}");
    assert_eq!(snap.counter("serve.cache.misses"), Some(1), "{snap:?}");
    let batched = snap.counter("serve.cache.batched_misses").unwrap_or(0);
    let hits = snap.counter("serve.cache.hits").unwrap_or(0);
    assert_eq!(batched + hits, n - 1, "{snap:?}");
}

#[test]
fn overloaded_server_rejects_misses_but_keeps_serving_hits() {
    // Warm a normal server, note the cell bytes, then restart with
    // max_pending = 0 over the same spill dir: the warmed cell still
    // serves (from disk) while any new cell is rejected.
    let dir = std::env::temp_dir().join(format!("pvs_serve_e2e_admission_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = |max_pending| ServerOptions {
        store: StoreOptions {
            max_pending,
            spill_dir: Some(dir.clone()),
            ..Default::default()
        },
        ..Default::default()
    };
    let warm_line = r#"{"op":"cell","app":"LBMHD","config":"8192x8192","machine":"Altix","procs":64}"#;
    let warmed = {
        let server = Server::start(opts(64)).unwrap();
        roundtrip(&mut connect(&server), warm_line)
    };

    let server = Server::start(opts(0)).unwrap();
    let mut stream = connect(&server);
    let rejected = roundtrip(
        &mut stream,
        r#"{"op":"cell","app":"LBMHD","config":"4096x4096","machine":"Altix","procs":64}"#,
    );
    assert!(rejected.contains("\"error\":\"overloaded\""), "{rejected}");
    let served = roundtrip(&mut stream, warm_line);
    assert!(served.contains("\"source\":\"disk\""), "{served}");
    assert_eq!(cell_bytes(&served), cell_bytes(&warmed));
    assert_eq!(
        server.store().registry().counter("serve.queue.rejected"),
        1
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shutdown_op_drains_the_server() {
    let mut server = Server::start(ServerOptions::default()).unwrap();
    let mut stream = connect(&server);
    assert_eq!(
        roundtrip(&mut stream, r#"{"op":"shutdown"}"#),
        r#"{"ok":true,"shutdown":true}"#
    );
    // wait() returns because the client's shutdown stopped the accept
    // loop — no explicit server.shutdown() here.
    server.wait();
}

#[test]
fn idle_server_times_out_and_exits() {
    let mut server = Server::start(ServerOptions {
        idle_timeout: Some(Duration::from_millis(100)),
        ..Default::default()
    })
    .unwrap();
    server.wait();
}

#[test]
fn request_stalled_mid_line_survives_the_read_timeout() {
    // A client that pauses mid-line for longer than the server's 50ms
    // socket read timeout must not lose the bytes it already sent: the
    // server keeps the partial line and resumes it.
    let server = Server::start(ServerOptions::default()).unwrap();
    let mut stream = connect(&server);
    let (head, tail) = r#"{"op":"ping"}"#.split_at(6);
    stream.write_all(head.as_bytes()).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(200));
    stream.write_all(tail.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    assert_eq!(response.trim_end(), r#"{"ok":true,"pong":true}"#);
}

#[test]
fn oversized_request_line_closes_the_connection() {
    let server = Server::start(ServerOptions::default()).unwrap();
    let mut stream = connect(&server);
    // Well past the 64 KiB line cap, no newline anywhere. The server
    // may reset mid-write, so write errors are expected and ignored.
    let _ = stream.write_all(&vec![b'x'; 128 * 1024]);
    let _ = stream.flush();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut response = String::new();
    // Clean close (0 bytes) or reset — never a response line.
    if let Ok(n) = reader.read_line(&mut response) {
        assert_eq!(n, 0, "unexpected response: {response}");
    }
    assert_eq!(
        server.store().registry().counter("serve.errors.oversized"),
        1
    );
}

#[test]
fn connection_cap_sheds_excess_clients_but_keeps_existing_ones() {
    let server = Server::start(ServerOptions {
        max_connections: 1,
        ..Default::default()
    })
    .unwrap();
    let mut first = connect(&server);
    assert!(roundtrip(&mut first, r#"{"op":"ping"}"#).contains("pong"));

    // `first` still holds the one slot: the second connect is accepted
    // and immediately closed without a response.
    let second = connect(&server);
    let mut reader = BufReader::new(second.try_clone().unwrap());
    let mut response = String::new();
    if let Ok(n) = reader.read_line(&mut response) {
        assert_eq!(n, 0, "unexpected response: {response}");
    }
    assert_eq!(server.store().registry().counter("serve.net.rejected"), 1);

    // The surviving connection is unaffected.
    assert!(roundtrip(&mut first, r#"{"op":"ping"}"#).contains("pong"));
}
