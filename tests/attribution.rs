//! End-to-end pins for the analysis layer: the six-cell sweep's
//! bottleneck classifications, the baseline gate's equality rule on the
//! committed baselines, and the Chrome trace export — exercised through
//! the same code paths the `profile` and `compare` commands use.

use pvs::analyze::bottleneck::Bottleneck;
use pvs::analyze::chrome::{to_chrome_trace, validate_chrome_trace};
use pvs::analyze::findings;
use pvs::analyze::sentinel::{check_profile_doc, compare_docs};
use pvs::core::json::{parse, Value};
use pvs_bench::chaos::{run_chaos, scenarios};
use pvs_bench::profile::{paper_cells, run_profile, smoke_cells, ProfileOptions, ProfileOutput};
use pvs_bench::rankscale::{run_rankscale, weak_scaling_cells};
use pvs_bench::serveload::{
    bench_serve_doc, fetch_cell_body, fetch_stats, paper_serve_cells, run_load, LoadOptions,
};

fn quick_options() -> ProfileOptions {
    ProfileOptions {
        host_samples: 1,
        ..ProfileOptions::default()
    }
}

/// Run the six one-per-bottleneck-class cells, as `profile --analyze`
/// runs the sweep it then analyses.
fn smoke_run() -> ProfileOutput {
    run_profile(smoke_cells(), quick_options())
}

fn classification_of(run: &ProfileOutput, app: &str, machine: &str) -> Bottleneck {
    let row = run
        .cells
        .iter()
        .position(|c| c.cell.app == app && c.cell.machine == machine)
        .unwrap_or_else(|| panic!("{app}/{machine} missing from smoke sweep"));
    run.diagnoses()[row].bottleneck
}

/// The paper's qualitative findings, recovered from recorded counters:
/// LBMHD starves superscalar memory systems (§4.1), PARATEC's FFT
/// transposes press on the X1 torus bisection (§4.2), and the Cactus/GTC
/// vector cells serialize their unvectorized remainders onto the scalar
/// unit (§4.3–4.4).
#[test]
fn smoke_sweep_recovers_the_papers_bottleneck_attributions() {
    let run = smoke_run();
    assert_eq!(
        classification_of(&run, "LBMHD", "Power3"),
        Bottleneck::MemoryBandwidthBound
    );
    assert_eq!(
        classification_of(&run, "PARATEC", "X1"),
        Bottleneck::BisectionBound
    );
    assert_eq!(
        classification_of(&run, "CACTUS", "X1"),
        Bottleneck::ScalarSerializationBound
    );
    assert_eq!(
        classification_of(&run, "GTC", "ES"),
        Bottleneck::ScalarSerializationBound
    );
}

#[test]
fn findings_table_renders_every_smoke_cell() {
    let rendered = findings::findings_table(&smoke_run().diagnoses()).render();
    for needle in ["LBMHD", "PARATEC", "CACTUS", "GTC", "bisection-bound"] {
        assert!(rendered.contains(needle), "missing {needle}:\n{rendered}");
    }
}

fn committed_baseline(stem: &str) -> Value {
    let path = format!("{}/BENCH_{stem}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("committed baseline readable");
    let doc = parse(&text).expect("committed baseline parses");
    check_profile_doc(&doc).expect("committed baseline passes the schema gate");
    doc
}

fn member_mut<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Object(members) = value else { panic!("{key}: not an object") };
    let (_, member) = members.iter_mut().find(|(k, _)| k == key).expect(key);
    member
}

/// What `pvs serve_load --inline --out` writes: the default load against
/// an in-process server on an ephemeral port, then the eight served
/// bodies and the final stats snapshot.
fn fresh_serve_doc() -> String {
    let (cells, options) = (paper_serve_cells(), LoadOptions::default());
    let server = pvs::serve::Server::start(Default::default()).expect("inline server starts");
    let addr = server.addr().to_string();
    let run = run_load(&addr, &cells, &options).expect("load run completes");
    let bodies: Vec<String> = cells
        .iter()
        .map(|c| fetch_cell_body(&addr, c).expect("served cell body"))
        .collect();
    let stats = fetch_stats(&addr).expect("stats reply");
    bench_serve_doc(&cells, &bodies, &run, &stats, &options)
}

/// Every committed baseline compared against itself is the gate's
/// identity case: all cells matched, no difference. Each is also held
/// against a fresh run of its harness, so a stale committed file fails
/// here, in `cargo test`, and not only in the command gate.
#[test]
fn sentinel_passes_the_committed_baseline_against_itself() {
    let fresh = [
        ("sweep", run_profile(paper_cells(), quick_options()).to_json()),
        (
            "chaos",
            run_chaos(&paper_cells(), &scenarios(), 1)
                .expect("resilience invariants hold")
                .to_json(),
        ),
        (
            "mpisim",
            run_rankscale(&weak_scaling_cells())
                .expect("v1/v2 identity gate holds")
                .0
                .to_json(),
        ),
        ("serve", fresh_serve_doc()),
    ];
    for (stem, fresh) in fresh {
        let doc = committed_baseline(stem);
        let cells = doc.get("cells").and_then(Value::as_array).unwrap().len();
        assert!(cells > 0, "{stem}");
        let fresh = parse(&fresh).expect("fresh document parses");
        for new in [&doc, &fresh] {
            let cmp = compare_docs(&doc, new);
            assert!(cmp.equal(), "{stem}: {:?}", cmp.differences);
            assert_eq!(cmp.matched_cells, cells, "{stem}");
        }
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

/// Every cell's phases render to a schema-valid Chrome
/// trace-event document whose timestamps are simulated picoseconds.
#[test]
fn exported_chrome_traces_validate_for_every_smoke_cell() {
    for c in &smoke_run().cells {
        let label = c.cell.key();
        let text = to_chrome_trace(&c.report, &label);
        let events = validate_chrome_trace(&text)
            .unwrap_or_else(|e| panic!("{label}: invalid chrome trace: {e}"));
        assert_eq!(events, c.report.phases.len() + 1, "{label}");
        // The "run" event covers the whole modelled runtime in simulated
        // picoseconds, and the last phase ends where it does.
        let trace = parse(&text).unwrap();
        let events = trace.get("traceEvents").and_then(Value::as_array).unwrap();
        let (run, last) = (&events[0], events.last().unwrap());
        assert_eq!(run.str("name"), Some("run"));
        assert_eq!(run.num("ts"), Some(0.0));
        assert_eq!(run.num("dur"), Some((c.report.time_s * 1e12).round()), "{label}");
        assert_eq!(
            last.num("ts").unwrap() + last.num("dur").unwrap(),
            run.num("dur").unwrap(),
            "{label}"
        );
    }
}
