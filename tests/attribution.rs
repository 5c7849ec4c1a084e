//! End-to-end pins for the analysis layer: the smoke sweep's bottleneck
//! classifications, the regression sentinel's exit semantics, and the
//! Chrome trace export — the acceptance criteria of the pvs-analyze PR,
//! exercised through the same code paths the `profile` and `compare`
//! binaries use.

use pvs::analyze::bottleneck::Bottleneck;
use pvs::analyze::chrome::{to_chrome_trace, validate_chrome_trace};
use pvs::analyze::sentinel::compare_docs;
use pvs::analyze::{findings, profiledoc};
use pvs_bench::profile::{run_profile, smoke_cells, ProfileOptions};

fn quick_options() -> ProfileOptions {
    ProfileOptions {
        host_samples: 1,
        ..ProfileOptions::default()
    }
}

/// Run the smoke sweep and round-trip it through the document loader,
/// exactly as `profile --smoke --analyze` does.
fn smoke_doc() -> profiledoc::ProfileDoc {
    let out = run_profile(smoke_cells(), quick_options());
    profiledoc::load(&out.to_json()).expect("smoke sweep document loads")
}

fn classification_of(doc: &profiledoc::ProfileDoc, app: &str, machine: &str) -> Bottleneck {
    let cell = doc
        .cell(app, machine)
        .unwrap_or_else(|| panic!("{app}/{machine} missing from smoke sweep"));
    findings::analyze_cell(cell)
        .unwrap_or_else(|| panic!("{app}/{machine} machine unknown"))
        .bottleneck
}

/// The paper's qualitative findings, recovered from recorded counters:
/// LBMHD starves superscalar memory systems (§4.1), PARATEC's FFT
/// transposes press on the X1 torus bisection (§4.2), and the Cactus/GTC
/// vector cells serialize their unvectorized remainders onto the scalar
/// unit (§4.3–4.4).
#[test]
fn smoke_sweep_recovers_the_papers_bottleneck_attributions() {
    let doc = smoke_doc();
    assert_eq!(
        classification_of(&doc, "LBMHD", "Power3"),
        Bottleneck::MemoryBandwidthBound
    );
    assert_eq!(
        classification_of(&doc, "PARATEC", "X1"),
        Bottleneck::BisectionBound
    );
    assert_eq!(
        classification_of(&doc, "CACTUS", "X1"),
        Bottleneck::ScalarSerializationBound
    );
    assert_eq!(
        classification_of(&doc, "GTC", "ES"),
        Bottleneck::ScalarSerializationBound
    );
}

#[test]
fn findings_table_renders_every_smoke_cell() {
    let doc = smoke_doc();
    let rendered = findings::findings_table(&findings::analyze_doc(&doc)).render();
    for needle in ["LBMHD", "PARATEC", "CACTUS", "GTC", "bisection-bound"] {
        assert!(rendered.contains(needle), "missing {needle}:\n{rendered}");
    }
}

/// The committed baseline compared against itself is the sentinel's
/// identity case: zero drift, no regression — the `pvs-bench compare
/// BENCH_sweep.json BENCH_sweep.json` invocation the verify skill runs.
#[test]
fn sentinel_passes_the_committed_baseline_against_itself() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_sweep.json"))
        .expect("committed baseline readable");
    let doc = profiledoc::load(&text).expect("committed baseline loads");
    assert!(!doc.cells.is_empty());
    let cmp = compare_docs(&doc, &doc);
    assert!(!cmp.regressed(), "{:?}", cmp.drifts);
    assert!(cmp.drifts.is_empty());
    assert_eq!(cmp.matched_cells, doc.cells.len());
}

/// A synthetic 5% model-time slowdown in one cell must trip the sentinel
/// — model metrics compare exactly, so any growth is a regression.
#[test]
fn sentinel_catches_a_synthetic_model_time_regression() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_sweep.json"))
        .expect("committed baseline readable");
    let old = profiledoc::load(&text).expect("committed baseline loads");
    let mut new = profiledoc::load(&text).unwrap();
    new.cells[0].model.time_s *= 1.05;
    let cmp = compare_docs(&old, &new);
    assert!(cmp.regressed());
    let drift = cmp
        .drifts
        .iter()
        .find(|d| d.regression)
        .expect("regression drift recorded");
    assert_eq!(drift.metric, "model.time_s");
    let pct = drift.pct_change().expect("finite drift");
    assert!((pct - 5.0).abs() < 1e-6, "{pct}");
    // The reverse direction — a speedup — is drift, not regression.
    let cmp = compare_docs(&new, &old);
    assert!(!cmp.regressed(), "{:?}", cmp.drifts);
}

/// Every smoke cell's trace exports to a schema-valid Chrome trace-event
/// document whose timestamps are the engine's simulated picoseconds.
#[test]
fn exported_chrome_traces_validate_for_every_smoke_cell() {
    let out = run_profile(smoke_cells(), quick_options());
    for c in &out.cells {
        let label = format!("{}/{}/P{}", c.cell.app, c.cell.machine, c.cell.procs);
        let doc = to_chrome_trace(&c.trace, &label);
        let events = validate_chrome_trace(&doc)
            .unwrap_or_else(|e| panic!("{label}: invalid chrome trace: {e}"));
        assert_eq!(events, c.trace.events().len(), "{label}");
        // The root "run" span covers the whole modelled runtime in
        // simulated picoseconds.
        let run = c.trace.events().first().expect("root span");
        let expect_ps = (c.report.time_s * 1e12).round() as u64;
        assert_eq!(run.name, "run");
        assert_eq!(run.end_ticks, Some(expect_ps), "{label}");
    }
}
