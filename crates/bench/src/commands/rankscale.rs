//! Weak-scale the four applications' communication kernels to 10⁵
//! virtual ranks on the event-driven mpisim runtime and write
//! `BENCH_mpisim.json`.
//!
//! ```text
//! cargo run --release -p pvs-bench --bin pvs -- rankscale                          # target/BENCH_mpisim.json
//! cargo run --release -p pvs-bench --bin pvs -- rankscale --out BENCH_mpisim.json  # rewrite the baseline
//! ```
//!
//! Flags: `--out PATH` (default `target/BENCH_mpisim.json`; the committed
//! baseline is rewritten only by naming it). There is no worker count to
//! set: the event runtime resumes every superstep on one thread.
//!
//! Every cell prints its host wall, that wall per program resume
//! (`ns/resume`) and the minor page faults its run took (`minflt`, from
//! `/proc/self/stat`; `-` where `/proc` is absent). Neither the walls
//! nor the faults enter a cell's counters.
//!
//! Before any cell runs, the identity gate replays every kernel on both
//! runtimes at small P and requires bit-identical values and traffic;
//! a divergence exits 1 without writing anything.
//!
//! Exit codes (the shared `pvs_bench::cli` convention): 0 success,
//! 1 the identity gate failed, 2 malformed usage, 6 the output cannot
//! be written. The output path is probed before the sweep runs and
//! written atomically — no partial documents.

use crate::cli::{self, exit, Args, Kind, Spec};
use crate::rankscale::{run_rankscale, weak_scaling_cells, IDENTITY_P};

pub const SPEC: Spec = Spec {
    command: "rankscale",
    synopsis: "[--out PATH]",
    flags: &[("--out", Kind::Text)],
    positionals: 0,
};

/// `pvs rankscale`.
pub fn run(args: &Args) -> i32 {
    let cells = weak_scaling_cells();

    let code = cli::write_probed(&cli::bench_out_path(args, "mpisim"), || {
        let max_p = cells.iter().map(|c| c.procs).max().unwrap_or(0);
        println!(
            "{} cells up to P={} on the event-driven runtime (one scheduler thread)",
            cells.len(),
            max_p
        );

        let (out, minflt) = run_rankscale(&cells).map_err(|e| {
            eprintln!("IDENTITY FAILURE: {e}");
            exit::FAILURE
        })?;

        for (c, faults) in out.cells.iter().zip(minflt) {
            let host_s = c.host_secs.first().copied().unwrap_or(0.0);
            let resumes = c.snapshot.counter("mpisim.sim.resumes").unwrap_or(0);
            let faults = faults.map_or("-".to_string(), |n| n.to_string());
            println!(
                "{:<8} P={:<7} events={:<10} comm={:<9} checksum={:<17} host {:.3}s {:>5.0} ns/resume {:>6} minflt",
                c.cell.app,
                c.cell.procs,
                c.report.time_s,
                c.report.comm_s,
                c.report.gflops_per_p,
                host_s,
                host_s * 1e9 / resumes as f64,
                faults
            );
        }
        Ok(out.to_json() + "\n")
    });
    if code == exit::OK {
        println!("ok: v1/v2 identity gate held at P in {IDENTITY_P:?}");
    }
    code
}
