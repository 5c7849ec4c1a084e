//! Deterministic malformed-frame fuzz of the wire protocol.
//!
//! Not a coverage-guided fuzzer: a *seeded grid* of hostile inputs —
//! every prefix truncation of every valid request line, a seeded spray
//! of bit-flips, oversized frames, and field permutations — pinned to
//! one invariant: the parser answers a structured error or a clean
//! close, and **never panics**. The grid is a pure function of its
//! seed, so a regression reproduces with the same line, same byte,
//! same flipped bit.
//!
//! Two layers:
//! * in-process: `parse_line` over the whole grid, with the resulting
//!   classification fingerprint proved identical when the grid is
//!   evaluated serially and sharded across 8 threads (the PVS_THREADS
//!   1-vs-8 identity check, applied to the protocol layer);
//! * over TCP: the malformed subset of the grid against a live server
//!   — every line gets a `{"ok":false,...}` response or a clean close,
//!   and the server keeps serving correct bytes afterwards.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use pvs_core::{fnv1a, SplitMix64};
use pvs_serve::proto::{parse_line, Op};
use pvs_serve::{Request, Server, ServerOptions};

const FUZZ_SEED: u64 = 0x5EED_F00D;
const FLIPS_PER_LINE: usize = 96;

/// The valid request corpus the mutations start from: every op shape,
/// with and without the optional budget and fault fields.
fn corpus() -> Vec<String> {
    vec![
        r#"{"op":"cell","app":"LBMHD","config":"8192x8192","machine":"ES","procs":64}"#.into(),
        r#"{"op":"cell","app":"GTC","config":"10 part/cell","machine":"X1","procs":64,"fault_seed":7,"fault_events":9}"#.into(),
        r#"{"op":"cell","app":"PARATEC","config":"432 atom","machine":"Altix","procs":128,"deadline_ms":250}"#.into(),
        r#"{"op":"cell","app":"CACTUS","config":"80x80x80","machine":"Power3","procs":16,"deadline_ms":0}"#.into(),
        r#"{"op":"stats"}"#.into(),
        r#"{"op":"stats","mode":"delta"}"#.into(),
        r#"{"op":"health"}"#.into(),
        r#"{"op":"ping"}"#.into(),
        r#"{"op":"shutdown"}"#.into(),
    ]
}

/// The full seeded mutation grid: truncations, bit-flips, and a few
/// hand-picked hostile shapes. Byte vectors, because bit-flips step
/// outside UTF-8 on purpose.
fn mutation_grid() -> Vec<Vec<u8>> {
    let mut grid = Vec::new();
    for line in corpus() {
        let bytes = line.as_bytes();
        // Every prefix truncation, including the empty line.
        for end in 0..bytes.len() {
            grid.push(bytes[..end].to_vec());
        }
        // Seeded bit-flip spray: position and bit are pure functions of
        // (seed, line, flip index).
        let mut rng = SplitMix64::new(FUZZ_SEED ^ fnv1a(bytes));
        for _ in 0..FLIPS_PER_LINE {
            let pos = (rng.next_u64() as usize) % bytes.len();
            let bit = (rng.next_u64() % 8) as u8;
            let mut mutant = bytes.to_vec();
            mutant[pos] ^= 1 << bit;
            grid.push(mutant);
        }
    }
    // Hostile shapes the grid would only hit by luck.
    grid.push(vec![]);
    grid.push(b"null".to_vec());
    grid.push(b"[1,2,3]".to_vec());
    grid.push(b"{}".to_vec());
    grid.push(b"{\"op\":42}".to_vec());
    grid.push(b"{\"op\":\"cell\",\"procs\":\"many\"}".to_vec());
    grid.push(b"\"op\":\"ping\"".to_vec());
    grid.push(vec![b'{'; 512]);
    grid.push(vec![0xFF, 0xFE, 0x00, 0x7B]);
    // An oversized-but-syntactically-valid line: the parser itself must
    // survive it even though the transport would shed it first.
    let mut huge = String::from(r#"{"op":"cell","app":""#);
    huge.push_str(&"A".repeat(128 * 1024));
    huge.push_str(r#"","config":"x","machine":"ES","procs":4}"#);
    grid.push(huge.into_bytes());
    grid
}

/// Classify one frame. `catch_unwind` turns a parser panic into a
/// distinguished tag the assertions reject.
fn classify(frame: &[u8]) -> &'static str {
    let text = match std::str::from_utf8(frame) {
        Ok(text) => text,
        // The transport never hands the parser invalid UTF-8 (read_line
        // fails first); classified, not skipped, so the fingerprint
        // still covers these frames.
        Err(_) => return "non-utf8",
    };
    let owned = text.to_string();
    match std::panic::catch_unwind(move || parse_line(&owned)) {
        Err(_) => "panic",
        Ok(Err(_)) => "err",
        Ok(Ok(Op::Cell { .. })) => "cell",
        Ok(Ok(Op::Stats { delta: false })) => "stats",
        Ok(Ok(Op::Stats { delta: true })) => "stats-delta",
        Ok(Ok(Op::Health)) => "health",
        Ok(Ok(Op::Ping)) => "ping",
        Ok(Ok(Op::Shutdown)) => "shutdown",
    }
}

/// Classify the whole grid across `threads` workers (stride-sharded)
/// and fold the tags, in grid order, into one FNV-1a fingerprint.
fn grid_fingerprint(threads: usize) -> u64 {
    let grid = mutation_grid();
    let mut tags: Vec<(usize, &'static str)> = std::thread::scope(|scope| {
        let grid = &grid;
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                scope.spawn(move || {
                    grid.iter()
                        .enumerate()
                        .skip(worker)
                        .step_by(threads)
                        .map(|(i, frame)| (i, classify(frame)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    tags.sort_unstable_by_key(|&(i, _)| i);
    assert!(
        tags.iter().all(|&(_, tag)| tag != "panic"),
        "parser panicked inside the grid"
    );
    let joined: String = tags
        .iter()
        .map(|&(_, tag)| tag)
        .collect::<Vec<_>>()
        .join(",");
    fnv1a(joined.as_bytes())
}

#[test]
fn seeded_mutation_grid_never_panics_and_fingerprints_identically_across_threads() {
    let serial = grid_fingerprint(1);
    let parallel = grid_fingerprint(8);
    assert_eq!(
        serial, parallel,
        "classification fingerprint diverges between 1 and 8 threads"
    );
    // And the grid itself is a pure function of the seed: a second
    // serial pass reproduces the fingerprint bit-for-bit.
    assert_eq!(serial, grid_fingerprint(1));
}

#[test]
fn field_permutations_parse_to_the_same_op() {
    // Member order must never matter: every permutation of a cell
    // request's fields parses to the identical Op (same content
    // address, same deadline).
    let fields = [
        ("\"op\":\"cell\"", ()),
        ("\"app\":\"GTC\"", ()),
        ("\"config\":\"10 part/cell\"", ()),
        ("\"machine\":\"X1\"", ()),
        ("\"procs\":64", ()),
        ("\"deadline_ms\":125", ()),
        ("\"fault_seed\":7", ()),
    ];
    let baseline = parse_line(&format!(
        "{{{}}}",
        fields.iter().map(|(f, _)| *f).collect::<Vec<_>>().join(",")
    ))
    .unwrap();
    match &baseline {
        Op::Cell { request, deadline_ms } => {
            assert_eq!(request.app, "GTC");
            assert_eq!(*deadline_ms, Some(125));
        }
        other => panic!("baseline parsed as {other:?}"),
    }

    // A seeded walk over permutations (7! = 5040 is cheap, but the
    // seeded shuffle also exercises *repeated* draws of the same
    // order — the parser must be stateless).
    let mut rng = SplitMix64::new(FUZZ_SEED);
    for _ in 0..512 {
        let mut order: Vec<&str> = fields.iter().map(|(f, _)| *f).collect();
        // Fisher–Yates with seeded draws.
        for i in (1..order.len()).rev() {
            let j = (rng.next_u64() as usize) % (i + 1);
            order.swap(i, j);
        }
        let line = format!("{{{}}}", order.join(","));
        let op = parse_line(&line)
            .unwrap_or_else(|e| panic!("permutation {line} failed to parse: {e}"));
        assert_eq!(op, baseline, "permutation changed the parse: {line}");
    }
}

/// One request/response exchange; `None` means the server closed the
/// connection without answering (the clean-close arm of the contract).
fn exchange(addr: std::net::SocketAddr, frame: &[u8]) -> Option<String> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Write errors mean the server already shed us — that is the clean
    // close; reads then confirm it.
    let _ = stream.write_all(frame);
    let _ = stream.write_all(b"\n");
    let _ = stream.flush();
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    match reader.read_line(&mut response) {
        Ok(0) | Err(_) => None,
        Ok(_) => Some(response.trim_end().to_string()),
    }
}

#[test]
fn hostile_frames_over_tcp_get_structured_errors_or_clean_closes() {
    let server = Server::start(ServerOptions::default()).unwrap();
    let addr = server.addr();

    // The malformed subset of the grid, thinned so the test stays fast
    // over real sockets. Frames that still parse as valid ops are
    // excluded: a lucky bit-flip that produces a well-formed cell (or a
    // shutdown!) is not a malformed-frame case.
    let hostile: Vec<Vec<u8>> = mutation_grid()
        .into_iter()
        .enumerate()
        .filter(|(i, frame)| {
            // Whitespace-only frames are not malformed: the server
            // skips blank lines without answering (proved separately
            // below), so a one-shot exchange would just time out.
            let blank = String::from_utf8_lossy(frame).trim().is_empty();
            i % 17 == 0 && !blank && matches!(classify(frame), "err" | "non-utf8")
        })
        .map(|(_, frame)| frame)
        .collect();
    assert!(hostile.len() >= 20, "grid thinned too far: {}", hostile.len());

    for frame in &hostile {
        // Frames with interior newlines are really two frames; the
        // first response (or close) is still bound by the contract.
        match exchange(addr, frame) {
            None => {}
            Some(response) => assert!(
                response.starts_with("{\"ok\":false"),
                "hostile frame {:?} got a non-error response: {response}",
                String::from_utf8_lossy(frame)
            ),
        }
    }

    // The oversized transport case: well past the 64 KiB line cap.
    assert_eq!(exchange(addr, &vec![b'z'; 128 * 1024]), None);
    assert!(server.store().registry().counter("serve.errors.oversized") >= 1);

    // Blank lines are keep-alives, not errors: the server skips them
    // silently and answers the next real request on the connection.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        stream.write_all(b"\n   \n{\"op\":\"ping\"}\n").unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert_eq!(response.trim_end(), r#"{"ok":true,"pong":true}"#);
    }

    // After the whole barrage the server still serves exact bytes.
    let good =
        exchange(addr, br#"{"op":"cell","app":"LBMHD","config":"4096x4096","machine":"ES","procs":16}"#)
            .expect("server must survive the fuzz grid");
    assert!(good.starts_with("{\"ok\":true"), "{good}");
    let request = Request::cell("LBMHD", "4096x4096", "ES", 16);
    let direct = {
        let cell = request.resolve().unwrap();
        pvs_core::json::perf_report(&pvs_core::engine::Engine::new(cell.machine).run(&cell.phases, cell.procs))
    };
    let (_, rest) = good.split_once("\"cell\":").unwrap();
    assert_eq!(&rest[..rest.len() - 1], direct);
}
