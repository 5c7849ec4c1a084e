//! Run the 4-application × 5-machine paper sweep under full
//! instrumentation and write the observability baseline.
//!
//! ```text
//! cargo run --release -p pvs-bench --bin pvs -- profile               # target/BENCH_sweep.json
//! cargo run --release -p pvs-bench --bin pvs -- profile --out BENCH_sweep.json  # rewrite the baseline
//! cargo run --release -p pvs-bench --bin pvs -- profile --overhead   # recorder cost, A/B
//! cargo run --release -p pvs-bench --bin pvs -- profile --analyze
//! cargo run --release -p pvs-bench --bin pvs -- profile --trace target/traces
//! ```
//!
//! Flags: `--samples N` (host wall-clock samples per cell, default 3),
//! `--out PATH` (default `target/BENCH_sweep.json`; the committed
//! baseline is rewritten only by naming it), `--analyze` (print the
//! bottleneck-attribution findings table and per-cell self-time
//! rollups), `--trace DIR` (render each cell's phases as one Chrome
//! trace-event JSON — timestamps are simulated picoseconds),
//! `--overhead [N]` (on its own: every cell with and without a recorder
//! attached, N interleaved rounds, one line, no document). Analysis and
//! traces read the run itself, never the document written from it.
//!
//! Exit codes (the shared `pvs_bench::cli` convention): 0 success,
//! 1 internal failure, 2 malformed usage, 6 the output file or `--trace`
//! directory cannot be written. Output paths are probed *before* the
//! sweep runs and written atomically, so a failed run never leaves a
//! partial document behind.

use crate::cli::{self, exit, Args, Kind, Spec};
use crate::profile::{measure_overhead, paper_cells, run_profile, ProfileOptions, SweepCell};
use pvs_analyze::{chrome, findings};
use pvs_core::report::fmt_pct_signed;

pub const SPEC: Spec = Spec {
    command: "profile",
    synopsis: "[--samples N] [--out PATH] [--analyze] [--trace DIR] | --overhead [N]",
    flags: &[
        ("--samples", Kind::Count),
        ("--out", Kind::Text),
        ("--analyze", Kind::Flag),
        ("--trace", Kind::Text),
        ("--overhead", Kind::OptionalCount),
    ],
    positionals: 0,
};

/// `pvs profile`.
pub fn run(args: &Args) -> i32 {
    let cells = paper_cells();

    if args.flag("--overhead") {
        if let Some(other) = ["--samples", "--out", "--analyze", "--trace"]
            .into_iter()
            .find(|name| args.flag(name))
        {
            return SPEC.usage_error(&format!("--overhead writes no document: drop {other}"));
        }
        let rounds = args.count("--overhead").unwrap_or(9);
        let (observed, plain) = measure_overhead(&cells, rounds);
        println!(
            "instrumented {observed:.3e}s vs bare {plain:.3e}s over {} cells \
             ({rounds} interleaved rounds, min per arm): overhead {}",
            cells.len(),
            fmt_pct_signed(100.0 * (observed / plain - 1.0))
        );
        return exit::OK;
    }
    let mut options = ProfileOptions::default();
    if let Some(n) = args.count("--samples") {
        options.host_samples = n;
    }
    let trace_dir = args.text("--trace");

    // Both destinations are probed before the sweep.
    cli::write_probed(&cli::bench_out_path(args, "sweep"), || {
        if let Some(dir) = trace_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: cannot create --trace directory {dir}: {e}");
                return Err(exit::WRITE);
            }
        }
        sweep_document(cells, options, trace_dir, args.flag("--analyze"))
    })
}

/// Run the sweep, print its per-cell lines (and traces / analysis when
/// asked), and return the document to write.
fn sweep_document(
    cells: Vec<SweepCell>,
    options: ProfileOptions,
    trace_dir: Option<&str>,
    analyze: bool,
) -> Result<String, i32> {
    let out = run_profile(cells, options);
    for c in &out.cells {
        println!(
            "{:<8} {:<8} P={:<4} {:>7.3} Gflop/s/P  model {:>9.4}s  host {:>9.2e}s  {} counters",
            c.cell.app,
            c.cell.machine,
            c.cell.procs,
            c.report.gflops_per_p,
            c.report.time_s,
            c.host_median_s(),
            c.snapshot.counters.len(),
        );
    }
    let pool = out.pool.as_ref().map_or(String::new(), |pool| {
        format!(
            " (tasks per worker {:?}, peak queue depth {})",
            pool.per_worker_tasks, pool.peak_queue_depth
        )
    });
    println!(
        "{} cells, sweep on {} threads{pool}, host median sum {:.3e}s",
        out.cells.len(),
        out.options.threads,
        out.host_median_sum_s(),
    );

    if let Some(dir) = trace_dir {
        for c in &out.cells {
            let SweepCell { app, machine, procs, .. } = c.cell;
            let name = format!(
                "{}_{}_P{procs}.trace.json",
                app.to_lowercase(),
                machine.to_lowercase().replace('-', "_"),
            );
            let label = format!("{app}/{machine}/P{procs}");
            let path = std::path::Path::new(dir).join(&name);
            let trace = chrome::to_chrome_trace(&c.report, &label);
            let display = path.display().to_string();
            if let Err(e) = cli::write_atomic(&display, &(trace + "\n")) {
                eprintln!("error: cannot write {display}: {e}");
                return Err(exit::WRITE);
            }
            println!("wrote {display} ({} events)", c.report.phases.len() + 1);
        }
    }

    if analyze {
        print!("{}", findings::findings_table(&out.diagnoses()).render());
        for c in &out.cells {
            let rollup = chrome::self_time_rollup(&c.report.phases);
            let total: u64 = rollup.iter().map(|r| r.ticks).sum();
            if total == 0 {
                continue;
            }
            let top: Vec<String> = rollup
                .iter()
                .take(3)
                .map(|r| format!("{} {:.0}%", r.name, 100.0 * r.ticks as f64 / total as f64))
                .collect();
            println!(
                "self-time {:<8} {:<8} P={:<4} {}",
                c.cell.app,
                c.cell.machine,
                c.cell.procs,
                top.join(", ")
            );
        }
    }

    Ok(out.to_json() + "\n")
}
