//! The perf-regression sentinel CLI.
//!
//! ```text
//! cargo run -p pvs-bench --bin pvs -- compare BENCH_sweep.json target/BENCH_new.json
//! ```
//!
//! Joins the two profile documents on cell identity and exits nonzero on
//! regression: any modelled-time growth or modelled-Gflop/s drop (the
//! model is deterministic, so these compare exactly), or a baseline cell
//! missing from the new document. Host wall-clock drift is reported and
//! never enforced — host times are machine-specific noise and the
//! committed baseline usually comes from another machine.
//!
//! Exit codes (the shared `pvs_bench::cli` convention): 0 clean,
//! 1 regression, 2 malformed usage, 3 unreadable input, 4 input is not
//! valid JSON, 5 input is JSON but not a known profile schema.

use crate::cli::{self, exit, Args, Spec};
use pvs_analyze::sentinel::compare_docs;

pub const SPEC: Spec = Spec {
    command: "compare",
    synopsis: "<old.json> <new.json>",
    flags: &[],
    positionals: 2,
};

/// `pvs compare`.
pub fn run(args: &Args) -> i32 {
    let (old_path, new_path) = (args.positional(0), args.positional(1));
    let mut docs = Vec::new();
    for path in [old_path, new_path] {
        match cli::load_profile_doc(path) {
            Ok(doc) => docs.push(doc),
            Err((code, msg)) => {
                eprintln!("error: {msg}");
                return code;
            }
        }
    }
    let cmp = compare_docs(&docs[0], &docs[1]);
    print!("{}", cmp.table().render());
    println!(
        "{} matched cells, {} drifts ({} vs {})",
        cmp.matched_cells,
        cmp.drifts.len(),
        old_path,
        new_path
    );
    if cmp.regressed() {
        eprintln!("REGRESSION: model metrics moved the wrong way (see table)");
        return exit::FAILURE;
    }
    println!("ok: no regression");
    exit::OK
}
