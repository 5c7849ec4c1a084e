//! Profile the harness itself — wall-clock histograms per pipeline
//! stage — and write the `BENCH_selfperf.json` baseline.
//!
//! ```text
//! cargo run --release -p pvs-bench --bin pvs -- selfperf               # BENCH_selfperf.json
//! cargo run --release -p pvs-bench --bin pvs -- selfperf --smoke    # CI subset
//! cargo run --release -p pvs-bench --bin pvs -- selfperf --check-identity
//! ```
//!
//! Flags: `--smoke` (6-cell subset, one round, written under
//! `target/`), `--rounds N` (passes over the cell set, default 3),
//! `--out PATH` (override the output path), `--check-identity` (prove a
//! fully observed, stage-wrapped engine run renders bitwise-identically
//! to a bare one, then report the interleaved A/B overhead against the
//! ≤5% budget).
//!
//! The document reuses the `pvs-bench/profile-v2` schema: one cell per
//! stage with `procs` carrying the sample count, so `compare
//! BENCH_selfperf.json NEW.json` gates the stage list and sample counts
//! exactly while the microsecond axes stay advisory until `--host-tol`.
//!
//! Exit codes (the shared `pvs_bench::cli` convention): 0 success,
//! 1 identity violated, 2 malformed usage, 6 unwritable output.

use crate::cli::{self, exit, Args, Kind, Spec};
use crate::profile::{paper_cells, smoke_cells};
use crate::selfperf::{
    check_model_identity, measure_stage_overhead, run_selfperf, HostProfiler, SelfperfOptions,
};
use pvs_core::report::fmt_pct_signed;
use std::sync::Arc;

pub const SPEC: Spec = Spec {
    command: "selfperf",
    synopsis: "[--smoke] [--rounds N] [--out PATH] [--check-identity]",
    flags: &[
        ("--smoke", Kind::Flag),
        ("--rounds", Kind::Count),
        ("--out", Kind::Text),
        ("--check-identity", Kind::Flag),
    ],
    positionals: 0,
};

/// `pvs selfperf`.
pub fn run(args: &Args) -> i32 {
    let smoke = args.flag("--smoke");
    let cells = if smoke { smoke_cells() } else { paper_cells() };
    let options = SelfperfOptions {
        rounds: args.count("--rounds").unwrap_or(if smoke { 1 } else { 3 }),
        ..SelfperfOptions::default()
    };

    cli::write_probed(&cli::bench_out_path(args, "selfperf"), || {
        let profiler = Arc::new(HostProfiler::new(true));
        let run = run_selfperf(&profiler, &cells, options);
        println!(
            "{} stages over {} cells × {} rounds on {} threads, total self-time {:.3e}s",
            run.stages.len(),
            cells.len(),
            run.options.rounds,
            run.options.threads,
            run.total_s()
        );

        // Rank through the same reader `compare` and offline analysis use —
        // what gets ranked is exactly what the file will say.
        let json = run.to_json();
        match pvs_analyze::profiledoc::load(&json) {
            Ok(doc) => {
                print!(
                    "{}",
                    pvs_analyze::selftime::render_table(&pvs_analyze::selftime::rank_stages(&doc))
                );
            }
            Err(e) => {
                eprintln!("error: selfperf document does not round-trip: {e}");
                return Err(exit::FAILURE);
            }
        }

        if args.flag("--check-identity") {
            if let Err(bad) = check_model_identity(&cells) {
                eprintln!("FAILURE: profiler perturbed the model for:");
                for key in bad {
                    eprintln!("  {key}");
                }
                return Err(exit::FAILURE);
            }
            println!("identity: stage-wrapped observed runs render bitwise-identically");
            let rounds = if smoke { 3 } else { 9 };
            let (armed, plain) = measure_stage_overhead(&cells, rounds);
            let pct = 100.0 * (armed / plain - 1.0);
            println!(
                "overhead: armed {armed:.3e}s vs disarmed {plain:.3e}s \
                 ({rounds} interleaved rounds, min per arm): {} (budget ≤5%)",
                fmt_pct_signed(pct)
            );
        }
        Ok(json + "\n")
    })
}
