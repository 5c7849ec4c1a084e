//! The baseline gate CLI.
//!
//! ```text
//! cargo run -p pvs-bench --bin pvs -- compare BENCH_sweep.json target/BENCH_sweep.json
//! ```
//!
//! Two profile documents agree when they are equal: `schema`, `harness`
//! and every member of every cell (joined on cell identity), except the host notes `pvs_analyze::sentinel` names as
//! ungated. Prints one `path old -> new` row per differing JSON path and
//! exits nonzero on any — there is no tolerance and no direction, the
//! simulators are deterministic. Host wall-clock is machine-specific
//! noise: the one `host_median_sum_s` note is printed and never enforced.
//!
//! Exit codes (the shared `pvs_bench::cli` convention): 0 equal,
//! 1 different, 2 malformed usage, 3 unreadable input, 4 input is not
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
    let (old, new) = (&docs[0], &docs[1]);
    let cmp = compare_docs(old, new);
    for difference in &cmp.differences {
        println!("{difference}");
    }
    match (old.num("host_median_sum_s"), new.num("host_median_sum_s")) {
        (Some(o), Some(n)) if o != n => {
            println!("note: host_median_sum_s {o:.3e}s -> {n:.3e}s (host time, not compared)")
        }
        _ => {}
    }
    println!(
        "{} matched cells, {} differences ({} vs {})",
        cmp.matched_cells,
        cmp.differences.len(),
        old_path,
        new_path
    );
    if !cmp.equal() {
        eprintln!("DIFFERENT: the documents disagree outside the host notes (rows above)");
        return exit::FAILURE;
    }
    println!("ok: documents are equal");
    exit::OK
}
