//! Run the paper sweep under injected faults and write `BENCH_chaos.json`.
//!
//! ```text
//! cargo run --release -p pvs-bench --bin pvs -- chaos                        # target/BENCH_chaos.json
//! cargo run --release -p pvs-bench --bin pvs -- chaos --out BENCH_chaos.json # rewrite the baseline
//! ```
//!
//! Flags: `--out PATH` (default `target/BENCH_chaos.json`; the committed
//! baseline is rewritten only by naming it). The sweep pool's width is
//! `PVS_THREADS`.
//!
//! Exit codes (the shared `pvs_bench::cli` convention): 0 success,
//! 1 a resilience invariant failed, 2 malformed usage, 6 the output
//! cannot be written. The output path is probed before the sweep runs and
//! written atomically — no partial documents.

use crate::chaos::{self, run_chaos};
use crate::cli::{self, exit, Args, Kind, Spec};
use crate::profile::paper_cells;

pub const SPEC: Spec = Spec {
    command: "chaos",
    synopsis: "[--out PATH]",
    flags: &[("--out", Kind::Text)],
    positionals: 0,
};

/// `pvs chaos`.
pub fn run(args: &Args) -> i32 {
    let threads = pvs_core::pool::default_threads();
    let (cells, scenarios) = (paper_cells(), chaos::scenarios());
    let code = cli::write_probed(&cli::bench_out_path(args, "chaos"), || {
        println!("{} scenarios over {} cells ({} threads)", scenarios.len(), cells.len(), threads);

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
