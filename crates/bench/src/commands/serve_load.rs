//! Seeded load generator for the sweep server, and the
//! `BENCH_serve.json` emitter.
//!
//! ```text
//! cargo run --release -p pvs-bench --bin pvs -- serve_load --inline --check-identity --out target/BENCH_serve.json
//! cargo run --release -p pvs-bench --bin pvs -- serve_load --inline --out BENCH_serve.json  # rewrite the baseline
//! cargo run --release -p pvs-bench --bin pvs -- serve_load --addr 127.0.0.1:7411 --rate 500
//! ```
//!
//! Flags: `--inline` (start a server in-process on an ephemeral port —
//! the one-command CI path) or `--addr A` (drive an existing server);
//! `--requests N`; `--connections C` (closed loop, default 4) or
//! `--rate R` (open loop, Poisson arrivals at R req/s); `--seed S`;
//! `--check-identity` (verify every served cell byte-matches a direct
//! engine run); `--stats-every N` (poll the server's live telemetry
//! plane during the run, printing one
//! snapshot line per N completed requests and validating each response
//! against the versioned snapshot schema); `--retry-attempts N` (total
//! attempts per request for retryable failures — `overloaded` and
//! transport errors — with seeded-jitter exponential backoff floored at
//! the server's `retry_after_ms` hint; `1` disables retries);
//! `--out PATH` (write the profile-v2 document, probed first, written
//! atomically).
//!
//! Exit codes (the shared `pvs_bench::cli` convention): 0 success,
//! 1 a request failed or identity was violated, 2 malformed usage,
//! 6 `--out` cannot be written.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::cli::{self, exit, Args, Kind, Spec};
use crate::serveload::{
    bench_serve_doc, check_identity, fetch_cell_body, fetch_stats, paper_serve_cells, run_load,
    ArrivalMode, LoadOptions, RetryPolicy,
};
use pvs_serve::{Request, Server, ServerOptions};

pub const SPEC: Spec = Spec {
    command: "serve_load",
    synopsis: "[--inline | --addr A] [--requests N] [--connections C | --rate R] \
               [--seed S] [--check-identity] [--stats-every N] \
               [--retry-attempts N] [--out PATH]",
    flags: &[
        ("--inline", Kind::Flag),
        ("--addr", Kind::Text),
        ("--requests", Kind::Count),
        ("--connections", Kind::Count),
        ("--rate", Kind::Real),
        ("--seed", Kind::Index),
        ("--check-identity", Kind::Flag),
        ("--stats-every", Kind::Count),
        ("--retry-attempts", Kind::Count),
        ("--out", Kind::Text),
    ],
    positionals: 0,
};

/// Poll the live telemetry plane while the load run is in flight.
///
/// Every ~20ms the poller fetches a cumulative `stats` snapshot,
/// validates it against the versioned snapshot schema, and prints one
/// progress line each time `serve.requests` crosses the next multiple
/// of `every`. Returns the number of snapshots taken, or an error if
/// any response failed schema validation (connection errors are
/// tolerated — the server may still be binding or already gone).
fn spawn_stats_poller(
    addr: String,
    every: usize,
    done: Arc<AtomicBool>,
) -> std::thread::JoinHandle<Result<usize, String>> {
    std::thread::spawn(move || {
        let mut snapshots = 0usize;
        let mut reported = 0u64;
        while !done.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(20));
            let body = match fetch_stats(&addr) {
                Ok(body) => body,
                Err(_) => continue,
            };
            let doc = pvs_core::json::parse(&body)
                .map_err(|e| format!("stats response is not JSON: {e:?}"))?;
            if doc.str("schema") != Some(pvs_core::schema::SNAPSHOT_V1) {
                return Err(format!(
                    "stats response is not a {} document: {}",
                    pvs_core::schema::SNAPSHOT_V1,
                    body.chars().take(120).collect::<String>()
                ));
            }
            snapshots += 1;
            let served = doc
                .get("counters")
                .and_then(|c| c.get("serve.requests"))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0) as u64;
            let uptime = doc.num("uptime_s").unwrap_or(0.0) as u64;
            while served >= reported + every as u64 {
                reported += every as u64;
                println!("stats: {reported} requests served  (uptime {uptime}s)");
            }
        }
        Ok(snapshots)
    })
}

/// `pvs serve_load`.
pub fn run(args: &Args) -> i32 {
    let mut options = LoadOptions::default();
    if let Some(requests) = args.count("--requests") {
        options.requests = requests;
    }
    if let Some(connections) = args.count("--connections") {
        options.mode = ArrivalMode::Closed { connections };
    }
    if let Some(rate_rps) = args.real("--rate") {
        options.mode = ArrivalMode::Open { rate_rps };
    }
    if let Some(seed) = args.count("--seed") {
        options.seed = seed as u64;
    }
    if let Some(n) = args.count("--retry-attempts") {
        let Ok(max_attempts) = u32::try_from(n) else {
            return SPEC.usage_error("--retry-attempts is out of range");
        };
        options.retry =
            (max_attempts > 1).then(|| RetryPolicy { max_attempts, ..RetryPolicy::default() });
    }
    // No target named means `--inline`: the one-command default.
    let addr = args.text("--addr");
    if args.flag("--inline") && addr.is_some() {
        return SPEC.usage_error("--inline and --addr are mutually exclusive");
    }
    let cells = paper_serve_cells();
    let load = || drive(args, addr, &cells, &options);
    match args.text("--out") {
        Some(out) => cli::write_probed(out, load),
        None => load().map_or_else(|code| code, |_| exit::OK),
    }
}

/// Run the load against `addr` (or an in-process server), print the
/// summary, and return the `BENCH_serve.json` document when `--out`
/// asks for one (empty otherwise).
fn drive(
    args: &Args,
    addr: Option<&str>,
    cells: &[Request],
    options: &LoadOptions,
) -> Result<String, i32> {
    let inline_server = match addr {
        Some(_) => None,
        None => Some(Server::start(ServerOptions::default()).map_err(|e| {
            eprintln!("error: cannot start inline server: {e}");
            exit::WRITE
        })?),
    };
    let addr = match (&inline_server, addr) {
        (Some(server), _) => server.addr().to_string(),
        (None, Some(addr)) => addr.to_string(),
        (None, None) => unreachable!("no --addr starts an inline server"),
    };

    let poll_done = Arc::new(AtomicBool::new(false));
    let poller = args
        .count("--stats-every")
        .map(|every| spawn_stats_poller(addr.clone(), every, Arc::clone(&poll_done)));

    let run = run_load(&addr, cells, options);
    poll_done.store(true, Ordering::Relaxed);
    let polled = poller.map(|handle| handle.join().expect("stats poller panicked"));
    let run = run.map_err(|e| {
        eprintln!("error: load run failed: {e}");
        exit::FAILURE
    })?;
    match polled {
        Some(Ok(snapshots)) => println!("stats: polled {snapshots} live snapshots"),
        Some(Err(e)) => {
            eprintln!("FAILURE: live telemetry check failed: {e}");
            return Err(exit::FAILURE);
        }
        None => {}
    }

    let lat = run.latency_hist_us().summary();
    println!(
        "{} requests in {:.3}s  ({:.1} req/s)",
        run.samples.len(),
        run.wall_s,
        run.throughput_rps()
    );
    println!(
        "latency p50 {}us  p90 {}us  p99 {}us",
        lat.p50, lat.p90, lat.p99
    );
    for (source, count) in run.source_counts() {
        println!("  {source:<12} {count}");
    }
    let retries = run.retry.counter("serve.retry.attempts").unwrap_or(0);
    let giveups = run.retry.counter("serve.retry.giveups").unwrap_or(0);
    if retries + giveups > 0 {
        println!("retries: {retries} backoffs slept, {giveups} giveups");
    }

    let failed = run.samples.iter().filter(|s| !s.ok).count();
    if failed > 0 {
        eprintln!("FAILURE: {failed} requests did not succeed");
        return Err(exit::FAILURE);
    }

    if args.flag("--check-identity") {
        if let Err(bad) = check_identity(&addr, cells) {
            eprintln!("FAILURE: served bytes diverge from direct computation for:");
            for key in bad {
                eprintln!("  {key}");
            }
            return Err(exit::FAILURE);
        }
        println!("identity: every served cell matches the direct computation");
    }

    if !args.flag("--out") {
        return Ok(String::new());
    }
    let bodies: Result<Vec<String>, _> = cells.iter().map(|c| fetch_cell_body(&addr, c)).collect();
    match (bodies, fetch_stats(&addr)) {
        (Ok(bodies), Ok(stats)) => Ok(bench_serve_doc(cells, &bodies, &run, &stats, options)),
        (b, s) => {
            eprintln!("error: could not gather document inputs: {:?} {:?}", b.err(), s.err());
            Err(exit::FAILURE)
        }
    }
}
