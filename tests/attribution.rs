//! End-to-end pins for the analysis layer: the six-cell sweep's
//! bottleneck classifications, the baseline gate's equality rule on the
//! committed baselines, and the Chrome trace export — exercised through
//! the same code paths the `profile` and `compare` commands use.

use pvs::analyze::bottleneck::Bottleneck;
use pvs::analyze::chrome::{to_chrome_trace, validate_chrome_trace};
use pvs::analyze::sentinel::compare_docs;
use pvs::analyze::{findings, profiledoc};
use pvs::core::json::{parse, Value};
use pvs_bench::profile::{run_profile, smoke_cells, ProfileOptions};

fn quick_options() -> ProfileOptions {
    ProfileOptions {
        host_samples: 1,
        ..ProfileOptions::default()
    }
}

/// Run the six one-per-bottleneck-class cells and round-trip them through
/// the document loader, exactly as `profile --analyze` does.
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

fn committed_baseline(stem: &str) -> Value {
    let path = format!("{}/BENCH_{stem}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("committed baseline readable");
    let doc = parse(&text).expect("committed baseline parses");
    profiledoc::from_value(&doc).expect("committed baseline passes the typed reader");
    doc
}

fn member_mut<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Object(members) = value else { panic!("{key}: not an object") };
    let (_, member) = members.iter_mut().find(|(k, _)| k == key).expect(key);
    member
}

/// Every committed baseline compared against itself is the gate's
/// identity case: all cells matched, no difference.
#[test]
fn sentinel_passes_the_committed_baseline_against_itself() {
    for stem in ["sweep", "chaos", "servechaos", "mpisim", "serve"] {
        let doc = committed_baseline(stem);
        let cells = doc.get("cells").and_then(Value::as_array).unwrap().len();
        assert!(cells > 0, "{stem}");
        let cmp = compare_docs(&doc, &doc);
        assert!(cmp.equal(), "{stem}: {:?}", cmp.differences);
        assert_eq!(cmp.matched_cells, cells, "{stem}");
    }
}

/// A synthetic 5% model-time move in one cell must trip the gate, named
/// by its path — and in both directions: the model is deterministic, so
/// a speed-up nobody asked for is a changed model too.
#[test]
fn sentinel_catches_a_synthetic_model_time_regression() {
    let old = committed_baseline("sweep");
    for factor in [1.05, 0.95] {
        let mut new = old.clone();
        let Value::Array(cells) = member_mut(&mut new, "cells") else { panic!("cells") };
        let Value::Number(time_s) = member_mut(member_mut(&mut cells[0], "model"), "time_s")
        else {
            panic!("model.time_s")
        };
        *time_s *= factor;
        for (a, b) in [(&old, &new), (&new, &old)] {
            let cmp = compare_docs(a, b);
            assert!(!cmp.equal());
            assert_eq!(cmp.differences.len(), 1, "{:?}", cmp.differences);
            assert_eq!(
                cmp.differences[0].path,
                "cells[LBMHD/8192x8192/Power3/P64].model.time_s"
            );
        }
    }
}

/// Every cell's trace exports to a schema-valid Chrome trace-event
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
