//! Run the paper sweep under injected faults and write `BENCH_chaos.json`.
//!
//! ```text
//! cargo run --release -p pvs-bench --bin pvs -- chaos                        # target/BENCH_chaos.json
//! cargo run --release -p pvs-bench --bin pvs -- chaos --out BENCH_chaos.json # rewrite the baseline
//! cargo run --release -p pvs-bench --bin pvs -- chaos --checkpoint-check
//! ```
//!
//! Flags: `--threads N` (sweep worker threads, default honours
//! `PVS_THREADS`), `--out PATH` (default `target/BENCH_chaos.json`; the
//! committed baseline is rewritten only by naming it), `--checkpoint-check` (kill a
//! degraded sweep mid-flight, resume it from the serialized checkpoint,
//! and require bit-identical results — then exit),
//! `--verify-checkpoint PATH` (integrity-check a serialized sweep
//! checkpoint without resuming it — then exit).
//!
//! Exit codes (the shared `pvs_bench::cli` convention): 0 success,
//! 1 a resilience invariant failed, 2 malformed usage, 3 a checkpoint
//! under `--verify-checkpoint` cannot be read, 4 it is truncated,
//! bit-damaged, or not a checkpoint at all, 6 the output cannot be
//! written. The output path is probed before the sweep runs and written
//! atomically — no partial documents.

use crate::chaos::{self, checkpoint_roundtrip_check, covered_kinds, run_chaos};
use crate::cli::{self, exit, Args, Kind, Spec};
use crate::profile::paper_cells;
use pvs_core::checkpoint::SweepCheckpoint;

/// Integrity-check a serialized checkpoint without resuming it: the
/// surface operators point at a file left by a dead campaign before
/// deciding whether a resume can trust it. Runs the full version,
/// checksum and structural parse. Returns the process exit code: 0
/// valid, `UNREADABLE` on I/O failure, `MALFORMED` for truncation, bit
/// damage, or a file that is no checkpoint at all.
fn verify_checkpoint(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return exit::UNREADABLE;
        }
    };
    match SweepCheckpoint::parse(&text) {
        Ok(ck) => {
            println!(
                "ok: {path} is a valid sweep checkpoint: {} of {} cells completed",
                ck.completed(),
                ck.total()
            );
            exit::OK
        }
        Err(e) => {
            eprintln!("error: {path} failed verification: {e}");
            exit::MALFORMED
        }
    }
}

pub const SPEC: Spec = Spec {
    command: "chaos",
    synopsis: "[--threads N] [--out PATH] [--checkpoint-check] [--verify-checkpoint PATH]",
    flags: &[
        ("--threads", Kind::Count),
        ("--out", Kind::Text),
        ("--checkpoint-check", Kind::Flag),
        ("--verify-checkpoint", Kind::Text),
    ],
    positionals: 0,
};

/// `pvs chaos`.
pub fn run(args: &Args) -> i32 {
    if let Some(path) = args.text("--verify-checkpoint") {
        return verify_checkpoint(path);
    }
    let threads = args.count("--threads").unwrap_or_else(pvs_core::pool::default_threads);

    if args.flag("--checkpoint-check") {
        return match checkpoint_roundtrip_check(threads) {
            Ok(summary) => {
                println!("{summary}");
                exit::OK
            }
            Err(e) => {
                eprintln!("CHECKPOINT FAILURE: {e}");
                exit::FAILURE
            }
        };
    }

    let (cells, scenarios) = (paper_cells(), chaos::scenarios());
    let code = cli::write_probed(&cli::bench_out_path(args, "chaos"), || {
        let kinds = covered_kinds(&scenarios);
        println!(
            "{} scenarios over {} cells ({} threads); fault kinds: {}",
            scenarios.len(),
            cells.len(),
            threads,
            kinds.iter().copied().collect::<Vec<_>>().join(", ")
        );

        let out = run_chaos(&cells, &scenarios, threads).map_err(|e| {
            eprintln!("CHAOS FAILURE: {e}");
            exit::FAILURE
        })?;

        for s in &out.scenarios {
            let mut notes = Vec::new();
            if s.engine_faulted {
                notes.push("engine damage".to_string());
            }
            if s.mpisim.drops > 0 || s.mpisim.delays > 0 {
                notes.push(format!(
                    "mpisim {} delivered / {} drops / {} retries / {} delays",
                    s.mpisim.delivered, s.mpisim.drops, s.mpisim.retries, s.mpisim.delays
                ));
            }
            if s.retired_workers > 0 {
                notes.push(format!("{} workers retired", s.retired_workers));
            }
            println!(
                "{:<16} {} cells  ok  {}",
                s.name,
                s.cells,
                notes.join("; ")
            );
        }
        Ok(out.to_json() + "\n")
    });
    if code == exit::OK {
        println!("ok: all resilience invariants hold");
    }
    code
}
