//! The TCP edge: accept loop, connection threads, and the *only* place
//! in the serving layer allowed to read a wall clock.
//!
//! This file is the one path-scoped exemption from the workspace's
//! PVS003 lint (wall-clock sources are otherwise confined to
//! `pvs-bench`): a server genuinely needs host time — to notice it has
//! been idle long enough to exit, and to meter how long each request
//! held a connection thread (`serve.host.busy_us`). Everything those
//! clocks feed is *operational* (lifecycle and load metrics), never
//! model output: the store, cache, and protocol modules are clock-free,
//! so a served cell remains a pure function of its key.
//!
//! Shape: one nonblocking accept loop on a background thread, one
//! thread per connection reading newline-delimited requests. Sockets
//! carry a short read timeout so connection threads poll the shutdown
//! flag instead of blocking forever on a silent client; a partial line
//! accumulated before such a timeout is kept and resumed, never
//! discarded. Two caps bound a hostile client: request lines longer
//! than `MAX_LINE_BYTES` close the connection, and connects past
//! `ServerOptions::max_connections` live threads are shed at accept.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pvs_obs::Recorder;

use crate::proto;
use crate::store::{CellStore, StoreOptions};

/// How often idle loops wake to poll flags.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// Socket read timeout: bounds how long a connection thread can ignore
/// the shutdown flag.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Hard bound on one request line. A real request is a few hundred
/// bytes; a client past this cap is broken or hostile and its
/// connection is closed (`serve.errors.oversized`).
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address; use port `0` for an ephemeral port (tests).
    pub addr: String,
    /// Store knobs (threads, admission cap, spill dir).
    pub store: StoreOptions,
    /// Exit after this long with no connections or requests
    /// (`None` = run until `shutdown`).
    pub idle_timeout: Option<Duration>,
    /// Cap on live connection threads; connects past it are accepted
    /// and immediately closed (`serve.net.rejected`).
    pub max_connections: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            store: StoreOptions::default(),
            idle_timeout: None,
            max_connections: 256,
        }
    }
}

/// A running server. Dropping it requests shutdown and joins the accept
/// loop.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    store: Arc<CellStore>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving on a background thread. Returns as soon
    /// as the listener is live — `addr()` is immediately connectable.
    pub fn start(options: ServerOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&options.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let store = Arc::new(CellStore::new(options.store));
        let shutdown = Arc::new(AtomicBool::new(false));
        // Birth instant for `uptime_s` in stats/health responses. Host
        // time, so it stays here: the protocol layer receives the
        // already-computed seconds and remains clock-free.
        let started = Instant::now();
        // LOCK ORDER: 60 — idle-timeout timestamp; touched only as a
        // statement temporary from the accept loop and handlers, never
        // nested with (or under) any other lock.
        let last_activity = Arc::new(Mutex::new(Instant::now()));

        let accept_store = Arc::clone(&store);
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = std::thread::spawn(move || {
            accept_loop(
                listener,
                accept_store,
                accept_shutdown,
                last_activity,
                options.idle_timeout,
                options.max_connections.max(1),
                started,
            )
        });

        Ok(Server {
            addr,
            store,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving core (for in-process callers and tests).
    pub fn store(&self) -> &Arc<CellStore> {
        &self.store
    }

    /// Request shutdown without waiting.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Block until the accept loop exits (via `shutdown`, a client's
    /// `{"op":"shutdown"}`, or the idle timeout).
    pub fn wait(&mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        self.wait();
    }
}

fn touch(last_activity: &Mutex<Instant>) {
    // INFALLIBLE: holders only store an Instant — no code runs under
    // the lock.
    *last_activity.lock().expect("activity clock poisoned") = Instant::now();
}

fn accept_loop(
    listener: TcpListener,
    store: Arc<CellStore>,
    shutdown: Arc<AtomicBool>,
    last_activity: Arc<Mutex<Instant>>,
    idle_timeout: Option<Duration>,
    max_connections: usize,
    server_started: Instant,
) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                touch(&last_activity);
                connections.retain(|h| !h.is_finished());
                if connections.len() >= max_connections {
                    store.registry().add("serve.net.rejected", 1);
                    drop(stream);
                    continue;
                }
                store.registry().add("serve.net.connections", 1);
                let store = Arc::clone(&store);
                let shutdown = Arc::clone(&shutdown);
                let last_activity = Arc::clone(&last_activity);
                connections.push(std::thread::spawn(move || {
                    serve_connection(stream, store, shutdown, last_activity, server_started)
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if let Some(limit) = idle_timeout {
                    // INFALLIBLE: see `touch`.
                    let idle = last_activity.lock().expect("activity clock poisoned").elapsed();
                    if idle >= limit {
                        shutdown.store(true, Ordering::SeqCst);
                        break;
                    }
                }
                connections.retain(|h| !h.is_finished());
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => break,
        }
    }
    shutdown.store(true, Ordering::SeqCst);
    for handle in connections {
        let _ = handle.join();
    }
}

/// What one bounded line read produced.
enum LineRead {
    /// A newline-terminated request (or the EOF-terminated tail) is in
    /// the buffer.
    Complete,
    /// The stream closed with nothing buffered.
    Closed,
    /// The read timed out mid-line; the partial bytes stay buffered and
    /// the next call resumes them.
    Stalled,
    /// The accumulated line exceeded `MAX_LINE_BYTES`.
    Oversized,
}

/// Read one newline-terminated request into `line`, resuming any
/// partial line left by an earlier read timeout. `BufRead::read_line`
/// cannot be used here: on `WouldBlock`/`TimedOut` it has already
/// appended the bytes it consumed, so a caller that clears the buffer
/// each iteration silently drops the first half of any request whose
/// client stalls mid-line for longer than `READ_TIMEOUT`.
fn read_request_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> std::io::Result<LineRead> {
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Ok(LineRead::Stalled);
            }
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            // EOF: an unterminated tail still dispatches, matching
            // `read_line`'s end-of-stream semantics.
            return Ok(if line.is_empty() {
                LineRead::Closed
            } else {
                LineRead::Complete
            });
        }
        let (take, complete) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (buf.len(), false),
        };
        line.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if line.len() > MAX_LINE_BYTES {
            return Ok(LineRead::Oversized);
        }
        if complete {
            return Ok(LineRead::Complete);
        }
    }
}

fn serve_connection(
    stream: TcpStream,
    store: Arc<CellStore>,
    shutdown: Arc<AtomicBool>,
    last_activity: Arc<Mutex<Instant>>,
    server_started: Instant,
) {
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    loop {
        match read_request_line(&mut reader, &mut line) {
            Ok(LineRead::Closed) => return,
            Ok(LineRead::Stalled) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Ok(LineRead::Oversized) => {
                store.registry().add("serve.errors.oversized", 1);
                return;
            }
            Ok(LineRead::Complete) => {
                // Invalid UTF-8 becomes replacement characters and falls
                // through to a malformed-request response rather than a
                // silent close.
                let text = String::from_utf8_lossy(&line);
                let trimmed = text.trim();
                if trimmed.is_empty() {
                    line.clear();
                    continue;
                }
                touch(&last_activity);
                let started = Instant::now();
                let (response, stop) =
                    dispatch(&store, trimmed, server_started.elapsed().as_secs());
                let busy_us = started.elapsed().as_micros() as u64;
                store.registry().add("serve.host.busy_us", busy_us);
                store.registry().record("serve.hist.busy_us", busy_us);
                // A simulation can outlast idle_timeout; mark the server
                // live again when dispatch completes so the idle check
                // measures true idleness, not time spent computing.
                touch(&last_activity);
                if writer
                    .write_all(response.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    return;
                }
                if stop {
                    shutdown.store(true, Ordering::SeqCst);
                    return;
                }
                line.clear();
            }
            Err(_) => return,
        }
    }
}

/// Route one request line; returns the response and whether the server
/// should stop. Clock-free — time metering stays in the caller, which
/// also hands in the pre-computed uptime the telemetry ops report.
fn dispatch(store: &Arc<CellStore>, line: &str, uptime_s: u64) -> (String, bool) {
    store.registry().add("serve.net.lines", 1);
    let vitals = || proto::ServerVitals {
        uptime_s,
        cached_cells: store.cached_cells(),
        inflight: store.inflight(),
    };
    match proto::parse_line(line) {
        Err(detail) => {
            store.registry().add("serve.errors.malformed", 1);
            (proto::malformed_response(&detail), false)
        }
        Ok(proto::Op::Ping) => (proto::pong_response(), false),
        Ok(proto::Op::Stats { delta }) => (
            proto::stats_response(&store.stats_snapshot(delta), vitals(), delta),
            false,
        ),
        Ok(proto::Op::Health) => (proto::health_response(vitals()), false),
        Ok(proto::Op::Shutdown) => (proto::shutdown_response(), true),
        Ok(proto::Op::Cell { request, deadline_ms }) => {
            // Turn the wire deadline into a clock-free remaining-budget
            // probe. The `Instant` lives here — the store (and
            // everything below it) only ever sees remaining
            // `Duration`s, so PVS003's clock confinement holds.
            let budget: Option<crate::store::BudgetProbe> = deadline_ms.map(|ms| {
                let start = Instant::now();
                let total = Duration::from_millis(ms);
                let probe: crate::store::BudgetProbe =
                    Arc::new(move || total.saturating_sub(start.elapsed()));
                probe
            });
            match store.get_with_budget(&request, budget) {
                Ok(resp) => (proto::cell_response(&resp), false),
                Err(err) => (proto::error_response(&err), false),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::io::Read;

    /// Scripted reader: each step yields bytes or a simulated read
    /// timeout (`None`); an exhausted script reads as EOF.
    struct Script(VecDeque<Option<Vec<u8>>>);

    impl Read for Script {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                Some(Some(bytes)) => {
                    out[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(None) => Err(std::io::ErrorKind::WouldBlock.into()),
                None => Ok(0),
            }
        }
    }

    fn reader(steps: Vec<Option<&str>>) -> BufReader<Script> {
        BufReader::new(Script(
            steps
                .into_iter()
                .map(|s| s.map(|s| s.as_bytes().to_vec()))
                .collect(),
        ))
    }

    #[test]
    fn partial_line_survives_a_read_timeout() {
        let mut r = reader(vec![Some("{\"op\":"), None, Some("\"ping\"}\n")]);
        let mut line = Vec::new();
        assert!(matches!(
            read_request_line(&mut r, &mut line).unwrap(),
            LineRead::Stalled
        ));
        assert_eq!(line, b"{\"op\":");
        assert!(matches!(
            read_request_line(&mut r, &mut line).unwrap(),
            LineRead::Complete
        ));
        assert_eq!(line, b"{\"op\":\"ping\"}\n");
    }

    #[test]
    fn eof_terminated_tail_completes_then_stream_reads_closed() {
        let mut r = reader(vec![Some("{\"op\":\"ping\"}")]);
        let mut line = Vec::new();
        assert!(matches!(
            read_request_line(&mut r, &mut line).unwrap(),
            LineRead::Complete
        ));
        assert_eq!(line, b"{\"op\":\"ping\"}");
        line.clear();
        assert!(matches!(
            read_request_line(&mut r, &mut line).unwrap(),
            LineRead::Closed
        ));
    }

    #[test]
    fn newline_free_stream_is_rejected_at_the_length_cap() {
        let chunk = "x".repeat(4096);
        let steps: Vec<Option<&str>> = (0..17).map(|_| Some(chunk.as_str())).collect();
        let mut r = reader(steps);
        let mut line = Vec::new();
        assert!(matches!(
            read_request_line(&mut r, &mut line).unwrap(),
            LineRead::Oversized
        ));
        assert!(line.len() <= MAX_LINE_BYTES + 4096);
    }
}
