//! Golden-fixture test pinning the Chrome trace-event serialized form.
//!
//! `--trace` writes these documents to disk for chrome://tracing and
//! Perfetto; the exact byte shape is an external interface. Regenerate
//! after an intentional change with
//! `PVS_ANALYZE_BLESS=1 cargo test -p pvs-analyze --test golden`.

use std::fs;
use std::path::{Path, PathBuf};

use pvs_analyze::chrome::{to_chrome_trace, validate_chrome_trace};
use pvs_core::report::{PerfReport, PhaseBreakdown};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// A run with a comm phase and a phase name that needs escaping.
fn reference_run() -> PerfReport {
    let phases = [
        ("collision", 812e-6, false),
        ("strip \"tail\"", 88e-6, false),
        ("stream", 488e-6, false),
        ("exchange", 12e-6, true),
    ];
    PerfReport {
        machine: "ES".into(),
        procs: 64,
        time_s: 1400e-6,
        comm_s: 12e-6,
        flops_per_p: 0.0,
        gflops_per_p: 0.0,
        pct_peak: 0.0,
        vector_metrics: None,
        phases: phases
            .iter()
            .map(|&(name, seconds, is_comm)| PhaseBreakdown {
                name: name.to_string(),
                seconds,
                flops: 0.0,
                is_comm,
            })
            .collect(),
    }
}

#[test]
fn chrome_trace_matches_golden() {
    let actual = to_chrome_trace(&reference_run(), "LBMHD/ES/P64");
    let path = fixture_path("chrome_trace.json");
    if std::env::var_os("PVS_ANALYZE_BLESS").is_some() {
        fs::create_dir_all(path.parent().unwrap()).expect("fixture dir");
        fs::write(&path, &actual).expect("write golden");
        return;
    }
    let golden = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        actual, golden,
        "chrome trace diverged from golden (PVS_ANALYZE_BLESS=1 to regenerate)"
    );
}

#[test]
fn golden_form_still_validates() {
    // The pinned bytes must themselves satisfy the trace-event schema:
    // the run plus its four phases.
    let doc = to_chrome_trace(&reference_run(), "LBMHD/ES/P64");
    assert_eq!(validate_chrome_trace(&doc), Ok(5));
    assert!(doc.contains("\"tick_unit\":\"simulated picoseconds\""));
}
