//! Break the serving plane's host and prove it stays correct; write
//! `BENCH_servechaos.json`.
//!
//! ```text
//! cargo run --release -p pvs-bench --bin pvs -- servechaos                             # target/BENCH_servechaos.json
//! cargo run --release -p pvs-bench --bin pvs -- servechaos --out BENCH_servechaos.json # rewrite the baseline
//! ```
//!
//! Six seeded scenarios against in-process stores and live TCP servers:
//! spill corruption, kill-and-warm-restart, hostile clients, a worker
//! panic storm, deadline pressure, and backoff under overload. Every
//! assertion is exact (zero unplanned panics, byte-identical bodies,
//! pinned counters), and the run renders as a `pvs-bench/profile-v2`
//! document `compare` gates, scenario counters included.
//!
//! Flags: `--threads N` (store worker threads, default honours
//! `PVS_THREADS`), `--out PATH` (default `target/BENCH_servechaos.json`;
//! the committed baseline is rewritten only by naming it).
//!
//! Exit codes (the shared `pvs_bench::cli` convention): 0 success,
//! 1 a resilience invariant failed, 2 malformed usage, 6 the output
//! cannot be written. The output path is probed before the scenarios
//! run and written atomically — no partial documents.

use crate::cli::{self, exit, Args, Kind, Spec};
use crate::servechaos::run_servechaos;

pub const SPEC: Spec = Spec {
    command: "servechaos",
    synopsis: "[--threads N] [--out PATH]",
    flags: &[("--threads", Kind::Count), ("--out", Kind::Text)],
    positionals: 0,
};

/// `pvs servechaos`.
pub fn run(args: &Args) -> i32 {
    let threads = args.count("--threads").unwrap_or_else(pvs_core::pool::default_threads);

    let code = cli::write_probed(&cli::bench_out_path(args, "servechaos"), || {
        let out = run_servechaos(threads).map_err(|e| {
            eprintln!("SERVECHAOS FAILURE: {e}");
            exit::FAILURE
        })?;

        for s in &out.scenarios {
            println!(
                "{:<18} {} requests, {} byte-identical  ok  {}",
                s.name, s.requests, s.identical, s.note
            );
        }
        Ok(out.to_json() + "\n")
    });
    if code == exit::OK {
        println!("ok: the serving plane survived every host-fault scenario");
    }
    code
}
