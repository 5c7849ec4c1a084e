//! servechaos — the host-fault resilience harness for the serving
//! plane.
//!
//! `chaos` breaks the *simulated* machines; this harness breaks the
//! *host* the server runs on: spilled cache cells corrupted on disk,
//! writers killed mid-spill, hostile and half-dead clients, panicking
//! simulation workers, expiring deadline budgets, and overload with a
//! retrying client. Every scenario is seeded ([`HostFaultPlan`]) and
//! every assertion is exact, so the whole run renders as a
//! `pvs-bench/profile-v2` document (`BENCH_servechaos.json`) the
//! `compare` sentinel can gate — a resilience regression shows up as a
//! missing cell or a changed counter, not a flaky test.
//!
//! Invariants checked on every run:
//!
//! * **Zero unplanned panics** — the only panics observed are the ones
//!   the plan injected, proved by exact `serve.sim.panics` counts;
//! * **Byte identity** — every successfully served body is
//!   byte-identical to a direct `run_sweep` + `perf_report` rendering,
//!   no matter how much damage the scenario did first;
//! * **No bad byte is ever served** — corrupt spill cells are
//!   quarantined (warm-start) or detected and recomputed (runtime),
//!   never returned;
//! * **Structured failure** — hostile frames, poisoned keys, expired
//!   budgets, and overload all answer tagged error responses (or a
//!   clean close), and the server keeps serving afterwards.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use crate::chaos::scenario_config;
use crate::profile::{observed_run, ProfileOutput, SweepCell};
use crate::serveload::{direct_cell_body, fetch_cell_body, run_load, ArrivalMode, LoadOptions, RetryPolicy};
use pvs_core::Adversity;
use pvs_fault::{HostFaultKind, HostFaultPlan};
use pvs_obs::{Recorder, Registry};
use pvs_serve::store::{BudgetProbe, StoreOptions};
use pvs_serve::{
    CellSource, CellStore, PanicSpec, Request, ServeError, Server, ServerOptions,
};

/// The four-cell request grid every scenario draws from: one cell per
/// application, small enough that the whole harness stays CI-sized.
fn base_cells() -> [SweepCell; 4] {
    [
        SweepCell { app: "LBMHD", config: "4096x4096", machine: "ES", procs: 16 },
        SweepCell { app: "PARATEC", config: "432 atom", machine: "X1", procs: 16 },
        SweepCell { app: "CACTUS", config: "80x80x80", machine: "Power3", procs: 16 },
        SweepCell { app: "GTC", config: "10 part/cell", machine: "Altix", procs: 16 },
    ]
}

fn request_of(cell: &SweepCell) -> Request {
    Request::cell(cell.app, cell.config, cell.machine, cell.procs)
}

/// Scratch directory for one scenario run's spill. Unique per call, not
/// per process: concurrent runs of the same scenario (the unit tests)
/// must never share a spill directory.
fn scratch(name: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pvs_servechaos_{}_{}_{name}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic budget probe: reports `calls` nonzero probes, then
/// zero forever. No wall clock involved, so deadline counters are
/// exact rather than racy.
fn countdown(calls: u64) -> BudgetProbe {
    use std::sync::atomic::{AtomicU64, Ordering};
    let left = AtomicU64::new(calls);
    Arc::new(move || {
        if left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            Duration::from_millis(1)
        } else {
            Duration::ZERO
        }
    })
}

/// What one scenario proved, for the human-readable summary.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name (folded into the document's cell configs).
    pub name: &'static str,
    /// Requests the scenario pushed through the serving plane.
    pub requests: usize,
    /// Cells served and proved byte-identical to direct computation.
    pub identical: usize,
    /// One-line description of what was injected and survived.
    pub note: String,
}

/// A complete servechaos run.
#[derive(Debug, Clone)]
pub struct ServeChaosOutput {
    /// The profile-v2 document: one row per (cell, scenario) pair the
    /// scenario served, plus the harness counter snapshot.
    pub profile: ProfileOutput,
    /// Per-scenario accounting.
    pub scenarios: Vec<ScenarioReport>,
}

impl ServeChaosOutput {
    /// Render as the `BENCH_servechaos.json` document.
    pub fn to_json(&self) -> String {
        self.profile.to_json()
    }
}

/// Shorthand: the exact bytes a direct engine run renders for a cell.
fn reference_body(cell: &SweepCell) -> Result<String, String> {
    direct_cell_body(&request_of(cell))
}

type Counters = Vec<(&'static str, u64)>;

struct ScenarioOutcome {
    report: ScenarioReport,
    counters: Counters,
    cells: Vec<SweepCell>,
}

/// Scenario 1 — seeded spill corruption. Warm a spilled store, damage
/// three of the four cells on disk three different ways (truncation,
/// bit-flip, garbage header), and prove a restarted store quarantines
/// exactly the damaged files, serves the survivor from disk, and
/// recomputes the victims byte-identically. Then corrupt a cell *after*
/// the warm-start scan and prove the runtime read path detects it too.
fn spill_corruption(threads: usize) -> Result<ScenarioOutcome, String> {
    let name = "spill-corruption";
    let cells = base_cells().to_vec();
    let dir = scratch(name);
    let opts = || StoreOptions { threads, spill_dir: Some(dir.clone()), ..Default::default() };

    // Warm pass: every cell computed and spilled.
    let warm = Arc::new(CellStore::new(opts()));
    for cell in &cells {
        let served = warm.get(&request_of(cell)).map_err(|e| format!("{name}: warm {e:?}"))?;
        if served.source != CellSource::Computed {
            return Err(format!("{name}: warm pass expected a computed miss, got {:?}", served.source));
        }
    }
    drop(warm);

    // Seeded damage: the plan picks three distinct victims and how each
    // one breaks. Keys sort deterministically, so (seed → victims) is a
    // pure function.
    let plan = HostFaultPlan::new(0x5C0_44C7)
        .with(HostFaultKind::SpillTruncation)
        .with(HostFaultKind::SpillBitFlip)
        .with(HostFaultKind::SpillGarbageHeader);
    let mut keys: Vec<String> = cells.iter().map(|c| request_of(c).key_hash()).collect();
    keys.sort();
    let mut victims = Vec::new();
    let mut pool = keys.clone();
    for event in 0..3u64 {
        let pick = plan.target(event, pool.len());
        victims.push(pool.remove(pick));
    }
    for (event, (key, kind)) in victims
        .iter()
        .zip([HostFaultKind::SpillTruncation, HostFaultKind::SpillBitFlip, HostFaultKind::SpillGarbageHeader])
        .enumerate()
    {
        let path = dir.join(format!("{key}.cell"));
        let bytes = std::fs::read(&path).map_err(|e| format!("{name}: read {path:?}: {e}"))?;
        let damaged = match kind {
            HostFaultKind::SpillTruncation => bytes[..bytes.len() / 2].to_vec(),
            HostFaultKind::SpillBitFlip => {
                let mut b = bytes.clone();
                let pos = b.len() / 2 + (event % 7);
                b[pos] ^= plan.flip_mask(event as u64);
                b
            }
            _ => {
                let mut b = b"pvs-serve/not-a-cell 0 0\n".to_vec();
                b.extend_from_slice(&bytes);
                b
            }
        };
        std::fs::write(&path, damaged).map_err(|e| format!("{name}: damage {path:?}: {e}"))?;
    }

    // Warm restart: the scan must quarantine exactly the three victims
    // and verify the survivor — and every cell must still serve the
    // exact reference bytes.
    let restarted = Arc::new(CellStore::new(opts()));
    let verified = restarted.registry().counter("serve.store.verified");
    let quarantined = restarted.registry().counter("serve.store.quarantined");
    if verified != 1 || quarantined != 3 {
        return Err(format!(
            "{name}: warm-start scan saw verified={verified} quarantined={quarantined}, expected 1/3"
        ));
    }
    let quarantine_files = std::fs::read_dir(dir.join("quarantine"))
        .map_err(|e| format!("{name}: no quarantine dir: {e}"))?
        .count();
    if quarantine_files != 3 {
        return Err(format!("{name}: quarantine holds {quarantine_files} files, expected 3"));
    }
    let mut identical = 0;
    for cell in &cells {
        let served = restarted.get(&request_of(cell)).map_err(|e| format!("{name}: {e:?}"))?;
        let expected = reference_body(cell)?;
        if *served.body != expected {
            return Err(format!("{name}: served bytes diverge for {}/{}", cell.app, cell.machine));
        }
        identical += 1;
        let damaged = victims.contains(&request_of(cell).key_hash());
        match (damaged, served.source) {
            (true, CellSource::Computed) | (false, CellSource::Disk) => {}
            (damaged, source) => {
                return Err(format!(
                    "{name}: {}/{} damaged={damaged} served from {source:?}",
                    cell.app, cell.machine
                ))
            }
        }
    }
    drop(restarted);

    // Runtime detection: corrupt one re-spilled cell after the next
    // store's warm scan already verified it; the read path must catch
    // it, count it, and recompute identical bytes — never serve it.
    let runtime = Arc::new(CellStore::new(opts()));
    if runtime.registry().counter("serve.store.verified") != 4 {
        return Err(format!("{name}: re-spill left fewer than 4 verified cells"));
    }
    let victim = &cells[0];
    let path = dir.join(format!("{}.cell", request_of(victim).key_hash()));
    std::fs::write(&path, b"rotted after the scan").map_err(|e| format!("{name}: {e}"))?;
    let served = runtime.get(&request_of(victim)).map_err(|e| format!("{name}: {e:?}"))?;
    if runtime.registry().counter("serve.store.corrupt") != 1 {
        return Err(format!("{name}: runtime corruption was not counted"));
    }
    if served.source != CellSource::Computed || *served.body != reference_body(victim)? {
        return Err(format!("{name}: runtime-corrupt cell was not recomputed identically"));
    }
    let _ = std::fs::remove_dir_all(&dir);

    Ok(ScenarioOutcome {
        report: ScenarioReport {
            name,
            requests: cells.len() * 2 + 1,
            identical,
            note: "3 seeded corruptions quarantined on restart, 1 runtime corruption recomputed".into(),
        },
        counters: vec![
            ("store.verified", verified),
            ("store.quarantined", quarantined),
            ("store.runtime_corrupt", 1),
        ],
        cells: cells.to_vec(),
    })
}

/// Scenario 2 — kill-and-warm-restart. Simulate a writer killed
/// mid-spill (an orphaned `*.tmp.*` file and a torn `.cell`) and prove
/// the restart scan quarantines the wreckage exactly once: a second
/// restart finds a clean directory and the surviving cells still serve
/// the reference bytes from disk.
fn torn_restart(threads: usize) -> Result<ScenarioOutcome, String> {
    let name = "torn-restart";
    let cells = base_cells()[..2].to_vec();
    let dir = scratch(name);
    let opts = || StoreOptions { threads, spill_dir: Some(dir.clone()), ..Default::default() };

    let warm = Arc::new(CellStore::new(opts()));
    for cell in &cells {
        warm.get(&request_of(cell)).map_err(|e| format!("{name}: warm {e:?}"))?;
    }
    drop(warm);

    // The torn write: a half-flushed temp file, an orphaned temp from
    // another doomed writer, and a `.cell` whose body was cut mid-byte.
    let survivor = dir.join(format!("{}.cell", request_of(&cells[0]).key_hash()));
    let good = std::fs::read(&survivor).map_err(|e| format!("{name}: {e}"))?;
    std::fs::write(dir.join("deadbeefdeadbeef.cell.tmp.1234"), &good[..good.len() / 3])
        .map_err(|e| format!("{name}: {e}"))?;
    std::fs::write(dir.join("0123456789abcdef.tmp.7"), b"{\"half\":")
        .map_err(|e| format!("{name}: {e}"))?;
    let torn = dir.join("feedfacefeedface.cell");
    std::fs::write(&torn, &good[..good.len() - 9]).map_err(|e| format!("{name}: {e}"))?;

    let restarted = Arc::new(CellStore::new(opts()));
    let verified = restarted.registry().counter("serve.store.verified");
    let quarantined = restarted.registry().counter("serve.store.quarantined");
    if verified != 2 || quarantined != 3 {
        return Err(format!(
            "{name}: restart scan saw verified={verified} quarantined={quarantined}, expected 2/3"
        ));
    }
    let mut identical = 0;
    for cell in &cells {
        let served = restarted.get(&request_of(cell)).map_err(|e| format!("{name}: {e:?}"))?;
        if served.source != CellSource::Disk || *served.body != reference_body(cell)? {
            return Err(format!("{name}: survivor {}/{} did not serve from disk identically", cell.app, cell.machine));
        }
        identical += 1;
    }
    drop(restarted);

    // Idempotence: the wreckage is gone, so a second restart verifies
    // the survivors and quarantines nothing.
    let again = Arc::new(CellStore::new(opts()));
    let re_verified = again.registry().counter("serve.store.verified");
    let re_quarantined = again.registry().counter("serve.store.quarantined");
    if re_verified != 2 || re_quarantined != 0 {
        return Err(format!(
            "{name}: second restart saw verified={re_verified} quarantined={re_quarantined}, expected 2/0"
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);

    Ok(ScenarioOutcome {
        report: ScenarioReport {
            name,
            requests: cells.len() * 2,
            identical,
            note: "torn tmp + torn cell quarantined once; second restart is clean".into(),
        },
        counters: vec![
            ("store.verified", verified),
            ("store.quarantined", quarantined),
            ("store.reverified", re_verified),
        ],
        cells: cells.to_vec(),
    })
}

/// One request/response exchange on a fresh connection; `None` means
/// the server closed without answering.
fn exchange(addr: std::net::SocketAddr, frame: &[u8]) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok()?;
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

/// Scenario 3 — hostile clients. A slowloris client dribbles a valid
/// request in three chunks with pauses past the server's read timeout;
/// an oversized client blows the line cap; garbage clients send
/// malformed frames. The slow request is served byte-identically, the
/// hostile ones get structured errors or clean closes, and the server
/// keeps serving afterwards.
fn hostile_clients(plan: &HostFaultPlan) -> Result<ScenarioOutcome, String> {
    let name = "hostile-clients";
    if !plan.covers(HostFaultKind::SlowClient) || !plan.covers(HostFaultKind::OversizedFrame) {
        return Err(format!("{name}: plan does not cover the client fault kinds"));
    }
    let cell = base_cells()[2].clone();
    let server = Server::start(ServerOptions::default()).map_err(|e| format!("{name}: {e}"))?;
    let addr = server.addr();

    // Slowloris: three chunks, 60ms apart (the read timeout is 50ms) —
    // the server must keep the partial line and serve it.
    let line = format!(
        "{{\"op\":\"cell\",\"app\":\"{}\",\"config\":\"{}\",\"machine\":\"{}\",\"procs\":{}}}\n",
        cell.app, cell.config, cell.machine, cell.procs
    );
    let expected = reference_body(&cell)?;
    let slow_response = {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("{name}: {e}"))?;
        stream.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| format!("{name}: {e}"))?;
        let bytes = line.as_bytes();
        let third = bytes.len() / 3;
        for chunk in [&bytes[..third], &bytes[third..2 * third], &bytes[2 * third..]] {
            stream.write_all(chunk).map_err(|e| format!("{name}: {e}"))?;
            stream.flush().map_err(|e| format!("{name}: {e}"))?;
            std::thread::sleep(Duration::from_millis(60));
        }
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).map_err(|e| format!("{name}: {e}"))?;
        response.trim_end().to_string()
    };
    let (_, rest) = slow_response
        .split_once("\"cell\":")
        .ok_or_else(|| format!("{name}: slowloris got no cell: {slow_response}"))?;
    if &rest[..rest.len() - 1] != expected {
        return Err(format!("{name}: slowloris served different bytes"));
    }

    // Oversized frame: well past the 64 KiB line cap — clean close.
    if exchange(addr, &vec![b'z'; 128 * 1024]).is_some() {
        return Err(format!("{name}: oversized frame got a response"));
    }

    // Garbage frames: structured malformed responses, connection-safe.
    let garbage: [&[u8]; 3] = [b"not json at all", b"{\"op\":\"teleport\"}", b"[1,2"];
    for frame in garbage {
        match exchange(addr, frame) {
            Some(response) if response.starts_with("{\"ok\":false") => {}
            other => return Err(format!("{name}: garbage frame answered {other:?}")),
        }
    }

    let oversized = server.store().registry().counter("serve.errors.oversized");
    let malformed = server.store().registry().counter("serve.errors.malformed");
    if oversized != 1 || malformed != 3 {
        return Err(format!(
            "{name}: counters oversized={oversized} malformed={malformed}, expected 1/3"
        ));
    }

    // The barrage over, a normal client still gets exact bytes.
    let normal = exchange(addr, line.trim_end().as_bytes())
        .ok_or_else(|| format!("{name}: server died after the barrage"))?;
    let (_, rest) = normal
        .split_once("\"cell\":")
        .ok_or_else(|| format!("{name}: no cell in {normal}"))?;
    if &rest[..rest.len() - 1] != expected {
        return Err(format!("{name}: post-barrage bytes diverge"));
    }

    Ok(ScenarioOutcome {
        report: ScenarioReport {
            name,
            requests: 6,
            identical: 2,
            note: "slowloris served; oversized shed; 3 garbage frames answered structurally".into(),
        },
        counters: vec![("net.oversized", oversized), ("net.malformed", malformed)],
        cells: vec![cell],
    })
}

/// Scenario 4 — worker panic storm. A key whose simulation always
/// panics is retired by the supervisor after exactly `max_key_panics`
/// attempts (poison pill), later requests get the structured `failed`
/// answer without re-running the crash, other keys are unaffected, and
/// a key that panics once recovers. Sequential requests make every
/// counter exact — the zero-unplanned-panics proof.
fn panic_storm(plan: &HostFaultPlan) -> Result<ScenarioOutcome, String> {
    let name = "panic-storm";
    if !plan.covers(HostFaultKind::WorkerPanic) {
        return Err(format!("{name}: plan does not cover WorkerPanic"));
    }
    let storm_cell = base_cells()[3].clone();
    let safe_cell = base_cells()[0].clone();
    let storm_key = request_of(&storm_cell).key_hash();

    let s = Arc::new(CellStore::new(StoreOptions {
        threads: 1,
        max_key_panics: 3,
        panic_inject: Some(PanicSpec { key_substring: storm_key.clone(), times: u32::MAX }),
        ..Default::default()
    }));
    let outcomes: Vec<Result<_, ServeError>> =
        (0..5).map(|_| s.get(&request_of(&storm_cell))).collect();
    let mut internal = 0;
    let mut failed = 0;
    for outcome in &outcomes {
        match outcome {
            Err(ServeError::Internal(_)) => internal += 1,
            Err(ServeError::Failed { panics: 3 }) => failed += 1,
            other => return Err(format!("{name}: unexpected outcome {other:?}")),
        }
    }
    let reg = s.registry();
    let counts = [
        ("serve.sim.panics", 3),
        ("serve.supervisor.poisoned", 1),
        ("serve.supervisor.failed_served", 2),
        ("serve.errors.internal", 3),
        ("serve.sim.runs", 3),
    ];
    for (counter, expected) in counts {
        let got = reg.counter(counter);
        if got != expected {
            return Err(format!("{name}: {counter} = {got}, expected {expected}"));
        }
    }
    if internal != 3 || failed != 2 {
        return Err(format!("{name}: outcomes internal={internal} failed={failed}, expected 3/2"));
    }

    // Collateral check: an innocent key on the same store still serves
    // the exact reference bytes.
    let safe = s.get(&request_of(&safe_cell)).map_err(|e| format!("{name}: {e:?}"))?;
    if *safe.body != reference_body(&safe_cell)? {
        return Err(format!("{name}: innocent key served wrong bytes"));
    }

    // Recovery: a key that panics exactly once computes on the retry
    // and the supervisor never poisons it.
    let r = Arc::new(CellStore::new(StoreOptions {
        threads: 1,
        max_key_panics: 3,
        panic_inject: Some(PanicSpec { key_substring: storm_key, times: 1 }),
        ..Default::default()
    }));
    let (first, second) = (r.get(&request_of(&storm_cell)), r.get(&request_of(&storm_cell)));
    if !matches!(first, Err(ServeError::Internal(_))) {
        return Err(format!("{name}: one-shot panic did not surface as internal: {first:?}"));
    }
    let recovered = second.map_err(|e| format!("{name}: retry after one panic failed: {e:?}"))?;
    if *recovered.body != reference_body(&storm_cell)? {
        return Err(format!("{name}: recovered key served wrong bytes"));
    }
    if r.registry().counter("serve.supervisor.poisoned") != 0 {
        return Err(format!("{name}: one panic must not poison the key"));
    }

    Ok(ScenarioOutcome {
        report: ScenarioReport {
            name,
            requests: 8,
            identical: 2,
            note: "poisoned after exactly 3 panics; 2 failed answers; 1-shot key recovered".into(),
        },
        counters: vec![
            ("sim.panics", 4),
            ("supervisor.poisoned", 1),
            ("supervisor.failed_served", 2),
        ],
        cells: vec![safe_cell, storm_cell],
    })
}

/// Scenario 5 — deadline pressure. Clock-free countdown probes make
/// every budget expiry deterministic: a dead-on-arrival budget is
/// rejected at admission, a budget that survives admission but dies in
/// the queue abandons the simulation before it runs, warm hits serve
/// regardless of budget, and a generous budget computes normally.
fn deadline_pressure(threads: usize) -> Result<ScenarioOutcome, String> {
    let name = "deadline-pressure";
    let cell = base_cells()[1].clone();
    let request = request_of(&cell);
    let s = Arc::new(CellStore::new(StoreOptions { threads, ..Default::default() }));

    // Dead on arrival: rejected at admission, no simulation.
    match s.get_with_budget(&request, Some(countdown(0))) {
        Err(ServeError::DeadlineExceeded { stage: "admission" }) => {}
        other => return Err(format!("{name}: zero budget answered {other:?}")),
    }
    // Dies in the queue: admission passes (one nonzero probe), then the
    // job's dispatch check abandons before the engine runs.
    match s.get_with_budget(&request, Some(countdown(1))) {
        Err(ServeError::DeadlineExceeded { .. }) => {}
        other => return Err(format!("{name}: queue-expired budget answered {other:?}")),
    }
    while s.inflight() != 0 {
        std::thread::yield_now();
    }
    // Generous budget: computes, byte-identical.
    let served = s
        .get_with_budget(&request, Some(countdown(1_000_000)))
        .map_err(|e| format!("{name}: generous budget failed: {e:?}"))?;
    if served.source != CellSource::Computed || *served.body != reference_body(&cell)? {
        return Err(format!("{name}: generous budget served wrong bytes"));
    }
    // Warm hit with a dead budget: cache probes precede the check.
    let hit = s
        .get_with_budget(&request, Some(countdown(0)))
        .map_err(|e| format!("{name}: warm hit under dead budget failed: {e:?}"))?;
    if hit.source != CellSource::Memory {
        return Err(format!("{name}: warm hit came from {:?}", hit.source));
    }

    let reg = s.registry();
    // `serve.deadline.expired_wait` is deliberately not pinned: whether
    // the leader's own wait probe or the job's abandonment fires first
    // is a benign race — the structured answer and the abandon counter
    // are what the contract promises.
    let counts = [
        ("serve.deadline.requests", 4),
        ("serve.deadline.rejected", 1),
        ("serve.deadline.abandoned", 1),
        ("serve.sim.runs", 1),
    ];
    for (counter, expected) in counts {
        let got = reg.counter(counter);
        if got != expected {
            return Err(format!("{name}: {counter} = {got}, expected {expected}"));
        }
    }

    Ok(ScenarioOutcome {
        report: ScenarioReport {
            name,
            requests: 4,
            identical: 1,
            note: "admission reject, queue abandon, warm hit under dead budget, generous compute".into(),
        },
        counters: vec![("deadline.rejected", 1), ("deadline.abandoned", 1)],
        cells: vec![cell],
    })
}

/// Scenario 6 — backoff under overload. A server that sheds every miss
/// (drain mode) is driven by the retrying `serveload` client: cold
/// requests burn their full seeded backoff schedule (every sleep
/// floored at the server's deterministic `retry_after_ms` hint) and
/// give up structurally; a spill-warmed cell serves on the first
/// attempt. Every retry counter is exact.
fn overload_backoff() -> Result<ScenarioOutcome, String> {
    let name = "overload-backoff";
    let warm_cell = base_cells()[0].clone();
    let cold_cell = base_cells()[3].clone();
    let dir = scratch(name);
    let opts = |max_pending| ServerOptions {
        store: StoreOptions { max_pending, spill_dir: Some(dir.clone()), ..Default::default() },
        ..Default::default()
    };

    // Warm the spill through a healthy server, then restart in drain
    // mode over the same directory.
    {
        let server = Server::start(opts(64)).map_err(|e| format!("{name}: {e}"))?;
        fetch_cell_body(&server.addr().to_string(), &request_of(&warm_cell))
            .map_err(|e| format!("{name}: warm fetch: {e}"))?;
    }
    let server = Server::start(opts(0)).map_err(|e| format!("{name}: {e}"))?;
    let addr = server.addr().to_string();

    let policy = RetryPolicy { max_attempts: 3, base_ms: 1, cap_ms: 2, budget_ms: 2_000 };
    let cold = run_load(
        &addr,
        &[request_of(&cold_cell)],
        &LoadOptions {
            requests: 2,
            mode: ArrivalMode::Closed { connections: 1 },
            seed: 7,
            retry: Some(policy.clone()),
        },
    )
    .map_err(|e| format!("{name}: cold load: {e}"))?;
    for sample in &cold.samples {
        if sample.ok || sample.attempts != 3 {
            return Err(format!(
                "{name}: cold sample ok={} attempts={}, expected a 3-attempt giveup",
                sample.ok, sample.attempts
            ));
        }
    }
    let attempts = cold.retry.counter("serve.retry.attempts").unwrap_or(0);
    let giveups = cold.retry.counter("serve.retry.giveups").unwrap_or(0);
    if attempts != 4 || giveups != 2 {
        return Err(format!("{name}: retry counters attempts={attempts} giveups={giveups}, expected 4/2"));
    }
    let backoff = cold
        .retry
        .hists
        .iter()
        .find(|(h, _)| h == "serve.retry.hist.backoff_ms")
        .map(|(_, h)| h.summary())
        .ok_or_else(|| format!("{name}: no backoff histogram"))?;
    if backoff.count != 4 || backoff.min < 20 {
        return Err(format!(
            "{name}: backoff hist count={} min={}ms — every sleep must floor at the 20ms hint",
            backoff.count, backoff.min
        ));
    }
    let rejected = server.store().registry().counter("serve.queue.rejected");
    if rejected != 6 {
        return Err(format!("{name}: server rejected {rejected} misses, expected 6 (2 requests × 3 attempts)"));
    }

    // The warmed cell rides the disk spill past admission control, on
    // the first attempt, byte-identical.
    let warm = run_load(
        &addr,
        &[request_of(&warm_cell)],
        &LoadOptions {
            requests: 1,
            mode: ArrivalMode::Closed { connections: 1 },
            seed: 7,
            retry: Some(policy),
        },
    )
    .map_err(|e| format!("{name}: warm load: {e}"))?;
    let sample = &warm.samples[0];
    if !sample.ok || sample.attempts != 1 || sample.source != "disk" {
        return Err(format!(
            "{name}: warm sample ok={} attempts={} source={} — expected a first-attempt disk hit",
            sample.ok, sample.attempts, sample.source
        ));
    }
    let body = fetch_cell_body(&addr, &request_of(&warm_cell)).map_err(|e| format!("{name}: {e}"))?;
    if body != reference_body(&warm_cell)? {
        return Err(format!("{name}: warm cell served wrong bytes under overload"));
    }
    let _ = std::fs::remove_dir_all(&dir);

    Ok(ScenarioOutcome {
        report: ScenarioReport {
            name,
            requests: 4,
            identical: 1,
            note: "cold misses retried 3× then gave up; warm cell served from spill attempt 1".into(),
        },
        counters: vec![
            ("retry.attempts", attempts),
            ("retry.giveups", giveups),
            ("queue.rejected", rejected),
        ],
        cells: vec![warm_cell],
    })
}

/// The host-fault plan the harness runs: every host fault kind the
/// fault crate knows, under one seed.
pub fn harness_plan() -> HostFaultPlan {
    HostFaultPlan::new(0x5EC4_A05)
        .with(HostFaultKind::SpillTruncation)
        .with(HostFaultKind::SpillBitFlip)
        .with(HostFaultKind::SpillGarbageHeader)
        .with(HostFaultKind::TornTmpFile)
        .with(HostFaultKind::WorkerPanic)
        .with(HostFaultKind::SlowClient)
        .with(HostFaultKind::OversizedFrame)
}

/// Run the six-scenario harness. Returns the rendered output or a
/// description of the first violated invariant.
pub fn run_servechaos(threads: usize) -> Result<ServeChaosOutput, String> {
    let plan = harness_plan();
    let outcomes = vec![
        spill_corruption(threads)?,
        torn_restart(threads)?,
        hostile_clients(&plan)?,
        panic_storm(&plan)?,
        deadline_pressure(threads)?,
        overload_backoff()?,
    ];

    let harness_reg = Registry::new();
    let mut rows = Vec::new();
    let mut scenarios = Vec::new();
    for outcome in outcomes {
        for (counter, value) in &outcome.counters {
            harness_reg.add(&format!("servechaos.{}.{counter}", outcome.report.name), *value);
        }
        harness_reg.add(
            &format!("servechaos.{}.requests", outcome.report.name),
            outcome.report.requests as u64,
        );
        for cell in &outcome.cells {
            let mut row = observed_run(cell, &Adversity::healthy());
            row.cell.config = scenario_config(cell.config, outcome.report.name);
            rows.push(row);
        }
        scenarios.push(outcome.report);
    }
    harness_reg.add("servechaos.scenarios", scenarios.len() as u64);

    Ok(ServeChaosOutput {
        profile: ProfileOutput::from_rows(rows, harness_reg.snapshot(), threads),
        scenarios,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn servechaos_passes_its_invariants() {
        let out = run_servechaos(2).expect("invariants hold");
        assert_eq!(out.scenarios.len(), 6);
        assert!(out.scenarios.iter().all(|s| s.identical >= 1));
        let names: Vec<_> = out.scenarios.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "spill-corruption",
                "torn-restart",
                "hostile-clients",
                "panic-storm",
                "deadline-pressure",
                "overload-backoff"
            ]
        );
    }

    #[test]
    fn servechaos_document_reuses_the_profile_schema() {
        let out = run_servechaos(2).expect("invariants hold");
        let json = out.to_json();
        assert!(json.contains("\"schema\": \"pvs-bench/profile-v2\""));
        assert!(json.contains("@spill-corruption"));
        assert!(json.contains("@overload-backoff"));
        assert!(json.contains("servechaos.scenarios"));
        let doc = pvs_analyze::profiledoc::load(&json).expect("readable");
        assert!(doc.cells.len() >= 10);
    }

    #[test]
    fn servechaos_reruns_are_bit_identical() {
        // Everything but the recorded thread-count knob is identical at
        // any PVS_THREADS — the model axes the compare sentinel joins on
        // never move.
        let strip = |json: String| {
            json.lines()
                .filter(|l| !l.contains("sweep_threads"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let a = strip(run_servechaos(1).expect("invariants hold").to_json());
        let b = strip(run_servechaos(4).expect("invariants hold").to_json());
        assert_eq!(a, b, "servechaos output is thread-count independent");
    }

    #[test]
    fn harness_plan_covers_every_host_fault_kind() {
        let plan = harness_plan();
        for kind in [
            HostFaultKind::SpillTruncation,
            HostFaultKind::SpillBitFlip,
            HostFaultKind::SpillGarbageHeader,
            HostFaultKind::TornTmpFile,
            HostFaultKind::WorkerPanic,
            HostFaultKind::SlowClient,
            HostFaultKind::OversizedFrame,
        ] {
            assert!(plan.covers(kind), "plan misses {kind:?}");
        }
    }
}
