//! Malformed-input hardening for the `pvs` commands, driven through the
//! real executable (`CARGO_BIN_EXE_pvs`). Every failure mode must
//! produce a one-line diagnostic and its documented exit code — never a
//! panic, never a partial output file. The code convention lives in
//! `pvs_bench::cli`: 0 ok, 1 difference/invariant, 2 usage, 3 unreadable
//! input, 4 input not JSON, 5 unknown schema, 6 unwritable output.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

const PVS: &str = env!("CARGO_BIN_EXE_pvs");

/// A fresh directory per call: tests run concurrently in one process.
fn scratch_dir(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pvs_cli_hard_{}_{}_{name}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(PVS).args(args).output().expect("pvs spawns")
}

fn assert_exit(out: &Output, want: i32, ctx: &str) {
    assert_eq!(out.status.code(), Some(want), "{ctx}\nstderr: {}", stderr(out));
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_no_panic(out: &Output, ctx: &str) {
    let err = stderr(out);
    assert!(!err.contains("panicked"), "{ctx} panicked:\n{err}");
    assert!(
        err.lines().filter(|l| l.starts_with("error:")).count() <= 1,
        "{ctx} should emit at most one error line:\n{err}"
    );
}

/// Every command `pvs --help` lists — the binary's own command table.
fn commands() -> Vec<String> {
    let out = run(&["--help"]);
    assert_exit(&out, 0, "pvs --help");
    let listing = stdout(&out);
    assert!(listing.starts_with("usage: pvs <command>"), "{listing}");
    let names: Vec<String> = listing
        .lines()
        .skip_while(|l| *l != "commands:")
        .skip(1)
        .map(|l| l.trim().to_string())
        .collect();
    assert_eq!(names.len(), 28, "the command table: {names:?}");
    names
}

/// The smallest valid profile document: known schema, zero cells.
const EMPTY_DOC: &str = "{\"schema\": \"pvs-bench/profile-v2\", \"cells\": []}";

#[test]
fn every_command_answers_help_and_rejects_unknown_flags() {
    for name in commands() {
        // --help answers without running the model (exit 0, usage on stdout).
        let out = run(&[&name, "--help"]);
        assert_exit(&out, 0, &format!("{name} --help is not an error"));
        assert!(
            stdout(&out).starts_with(&format!("usage: pvs {name}")),
            "{name} --help: {}",
            stdout(&out)
        );

        // Unknown flags are refused before any work: nothing on stdout.
        let out = run(&[&name, "--definitely-not-a-flag"]);
        assert_exit(&out, 2, &format!("{name} rejects unknown flags"));
        assert_no_panic(&out, &format!("{name} on an unknown flag"));
        assert!(stdout(&out).is_empty(), "{name} printed before failing: {}", stdout(&out));
        assert!(stderr(&out).contains("usage:"), "{name}: {}", stderr(&out));
    }
}

#[test]
fn unknown_or_missing_command_exits_2_listing_the_commands() {
    // Retired commands are unknown ones: their checks live in unit tests.
    for args in [&["frobnicate"][..], &["selfperf"], &["servechaos"], &[]] {
        let out = run(args);
        assert_exit(&out, 2, "no such command");
        assert!(stdout(&out).is_empty());
        for name in ["table3", "fig9", "compare", "serve_load"] {
            assert!(stderr(&out).contains(&format!("  {name}\n")), "{}", stderr(&out));
        }
    }
}

/// Malformed invocations: each must exit 2 with one error line and the
/// usage line on stderr, before any model work.
const USAGE_ERRORS: &[&[&str]] = &[
    &["compare", "only-one-path.json"],
    &["compare", "--bogus-flag"],
    &["compare", "a.json", "b.json", "--host-tol", "25"],
    &["profile", "--bogus"],
    &["profile", "--samples", "zero"],
    &["profile", "--out"],
    // Retired with the span subsystem: every sweep is observed.
    &["profile", "--no-obs"],
    // `--overhead` prints one line and writes nothing; it takes no company.
    &["profile", "--overhead", "1", "--out", "x.json"],
    &["profile", "--overhead", "1", "--samples", "2"],
    &["profile", "--overhead", "--analyze"],
    &["profile", "--overhead", "1", "--analyze", "--trace", "zz"],
    // Retired with smoke mode: the four harnesses run in full.
    &["profile", "--smoke"],
    &["chaos", "--smoke"],
    &["rankscale", "--smoke"],
    &["serve_load", "--inline", "--smoke"],
    &["chaos", "--bogus"],
    // The pool width is PVS_THREADS, as for every other sweep.
    &["chaos", "--threads", "2"],
    // Retired with the sweep checkpoint: no command wrote the format.
    &["chaos", "--checkpoint-check"],
    &["chaos", "--verify-checkpoint", "x.ck"],
    &["rankscale", "--bogus"],
    // The event runtime has one scheduler thread; there is nothing to set.
    &["rankscale", "--threads", "2"],
    &["scaling", "--bogus"],
    &["fig9", "--jsonn"],
    &["table3", "extra-positional"],
    &["serve", "--bogus"],
    &["serve", "--threads"],
    &["serve", "--max-pending", "lots"],
    // Sixteen cache shards is a constant, not a knob.
    &["serve", "--shards", "4"],
    &["serve_load", "--bogus"],
    &["serve_load", "--requests", "many"],
    &["serve_load", "--requests", "0"],
    &["serve_load", "--inline", "--addr", "127.0.0.1:1"],
    &["serve_load", "--rate", "-3"],
    &["serve_load", "--rate", "abc"],
    // A real flag is finite and positive, checked before any model work.
    &["serve_load", "--inline", "--rate", "nan"],
    &["serve_load", "--inline", "--rate", "inf"],
    &["experiments", "--bogus"],
    &["experiments", "--out"],
    &["whatif"],
    &["whatif", "Cray-2"],
    &["whatif", "Power3", "--scalar-gflops", "1"],
    &["whatif", "Power3", "--peak", "abc"],
    &["whatif", "Power3", "--peak", "nan"],
    &["whatif", "ES", "--mem-bw", "-5"],
    &["whatif", "Power3", "--issue-eff", "7"],
];

#[test]
fn usage_errors_exit_2() {
    for args in USAGE_ERRORS {
        let out = run(args);
        assert_exit(&out, 2, &format!("{args:?} is a usage error"));
        assert_no_panic(&out, &format!("{args:?}"));
        assert!(stderr(&out).contains("usage:"), "{args:?}: {}", stderr(&out));
        assert!(stdout(&out).is_empty(), "{args:?} printed before failing: {}", stdout(&out));
    }
}

/// Commands that write a document: `--out` under a regular file must
/// fail fast with exit 6, before the run, leaving nothing behind.
const WRITERS: &[&[&str]] = &[
    &["profile"],
    &["chaos"],
    &["rankscale"],
    &["serve_load", "--inline"],
    &["experiments"],
];

#[test]
fn unwritable_out_exits_6_fast_and_writes_nothing() {
    for args in WRITERS {
        let dir = scratch_dir("unwritable_out");
        let occupied = dir.join("not-a-dir");
        std::fs::write(&occupied, "file in the way").unwrap();
        let under = occupied.join("doc.json");
        let mut argv = args.to_vec();
        argv.extend(["--out", under.to_str().unwrap()]);
        let out = run(&argv);
        assert_exit(&out, 6, &format!("{args:?} --out under a file"));
        assert_no_panic(&out, &format!("{args:?} on unwritable --out"));
        assert!(stdout(&out).is_empty(), "{args:?} ran before failing: {}", stdout(&out));
        assert!(!under.exists(), "no partial document");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn compare_classifies_damaged_documents() {
    let dir = scratch_dir("cmp");
    let good = dir.join("good.json");
    std::fs::write(&good, EMPTY_DOC).unwrap();
    let good = good.to_str().unwrap();

    let out = run(&["compare", good, good]);
    assert_exit(&out, 0, "a valid document compared to itself is clean");

    let out = run(&["compare", "/nonexistent/never/old.json", good]);
    assert_exit(&out, 3, "missing input file");
    assert_no_panic(&out, "compare on missing file");
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));

    let trunc = dir.join("trunc.json");
    std::fs::write(&trunc, &EMPTY_DOC[..EMPTY_DOC.len() / 2]).unwrap();
    let out = run(&["compare", good, trunc.to_str().unwrap()]);
    assert_exit(&out, 4, "truncated JSON is malformed input");
    assert_no_panic(&out, "compare on truncated JSON");

    // A version from the future and the retired compact v1: neither is
    // a schema this build reads.
    for version in ["profile-v99", "profile-v1"] {
        let other = dir.join(format!("{version}.json"));
        let doc = format!("{{\"schema\": \"pvs-bench/{version}\", \"cells\": []}}");
        std::fs::write(&other, doc).unwrap();
        let out = run(&["compare", good, other.to_str().unwrap()]);
        assert_exit(&out, 5, "unknown schema version is its own failure mode");
        assert_no_panic(&out, "compare on unknown schema");
        assert!(stderr(&out).contains(version), "{}", stderr(&out));
    }

    // A cell without its model or its processor count is not a profile
    // cell, and the error names the cell.
    let cell_doc = |cell: &str| format!("{{\"schema\": \"pvs-bench/profile-v2\", \"cells\": [{cell}]}}");
    for (missing, cell) in [
        ("`model`", r#"{"app": "GTC", "machine": "ES", "procs": 64}"#),
        ("`procs`", r#"{"app": "GTC", "machine": "ES", "model": {"time_s": 1, "gflops_per_p": 1}}"#),
    ] {
        let other = dir.join("cell.json");
        std::fs::write(&other, cell_doc(cell)).unwrap();
        let out = run(&["compare", good, other.to_str().unwrap()]);
        assert_exit(&out, 5, &format!("a cell without {missing}"));
        assert_no_panic(&out, "compare on an incomplete cell");
        let err = stderr(&out);
        assert!(err.contains(&format!("cell 0: missing {missing}")), "{err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The committed baseline `BENCH_<stem>.json` at the repository root.
fn committed(stem: &str) -> String {
    format!("{}/../../BENCH_{stem}.json", env!("CARGO_MANIFEST_DIR"))
}

/// `text` with the number after the first `"field": ` past `anchor`
/// replaced by `change(number)` — one member of a pretty-printed
/// document moved, everything else byte-identical.
fn tampered(text: &str, anchor: &str, field: &str, change: fn(f64) -> f64) -> String {
    let label = format!("\"{field}\": ");
    let at = text.find(anchor).unwrap_or_else(|| panic!("{anchor} not found"));
    let after = text[at..].find(&label).unwrap_or_else(|| panic!("no {field} after {anchor}"));
    let start = at + after + label.len();
    let end = start + text[start..].find([',', '\n']).expect("a number ends");
    let old: f64 = text[start..end].parse().expect("a number");
    format!("{}{}{}", &text[..start], change(old), &text[end..])
}

/// One tampering of a committed baseline: (baseline, anchor, field after
/// the anchor, change, exit code, stdout says).
type Tamper = (&'static str, &'static str, &'static str, fn(f64) -> f64, i32, String);

/// The gate gates: one member of a committed baseline changed alone,
/// whatever its kind and whichever way it moved, exits 1 and names the
/// path; a changed host note exits 0.
#[test]
fn compare_exits_1_naming_the_path_of_any_changed_member() {
    let lbmhd = "cells[LBMHD/8192x8192/Power3/P64]";
    let rung = "cells[LBMHD/weak-scaling/mpisim-v2/P64]";
    let drops = "chaos.msg-drop-delay.mpisim.drops";
    let cases: [Tamper; 11] = [
        // The LBMHD P=64 rank-output checksum, either way.
        ("mpisim", "\"cells\"", "gflops_per_p", |x| x + 1.0, 1, format!("{rung}.model.gflops_per_p")),
        ("mpisim", "\"cells\"", "gflops_per_p", |x| x - 1.0, 1, format!("{rung}.model.gflops_per_p")),
        // A model that got 5 % faster is a changed model.
        ("sweep", "\"cells\"", "time_s", |x| x * 0.95, 1, format!("{lbmhd}.model.time_s")),
        ("sweep", "\"cells\"", "time_s", |x| x * 1.05, 1, format!("{lbmhd}.model.time_s")),
        ("sweep", "\"stream\"", "seconds", |x| x * 2.0, 1, format!("{lbmhd}.model.phases[1].seconds")),
        ("sweep", "\"engine.loop.flops\"", "value", |x| x + 1.0, 1, format!("{lbmhd}.counters.engine.loop.flops")),
        ("sweep", "\"gauges\"", "value", |x| x + 1.0, 1, format!("{lbmhd}.gauges.netsim.link.peak_bytes")),
        ("serve", "\"GTC\"", "avl", |x| x + 1.0, 1, "cells[GTC/100 part/cell/ES/P64].model.avl".into()),
        ("chaos", drops, "value", |x| x + 2.0, 1, format!("harness.{drops}")),
        // Host notes are printed at most, never compared.
        ("sweep", "\"schema\"", "sweep_threads", |_| 8.0, 0, "ok: documents are equal".into()),
        ("sweep", "\"host_wall\"", "median_s", |x| x * 3.0, 0, "ok: documents are equal".into()),
    ];
    let dir = scratch_dir("cmp_tamper");
    let new = dir.join("new.json");
    let new = new.to_str().unwrap();
    for (stem, anchor, field, change, code, says) in cases {
        let old = committed(stem);
        let text = std::fs::read_to_string(&old).unwrap();
        std::fs::write(new, tampered(&text, anchor, field, change)).unwrap();
        let ctx = format!("{stem}: {field} after {anchor}");
        for (a, b) in [(old.as_str(), new), (new, old.as_str())] {
            let out = run(&["compare", a, b]);
            assert_exit(&out, code, &ctx);
            assert_no_panic(&out, &ctx);
            assert!(stdout(&out).contains(&says), "{ctx}: {}", stdout(&out));
            // One member moved: one row (none for a host note).
            assert!(stdout(&out).contains(&format!(", {code} differences")), "{ctx}");
        }
    }

    // A member the typed reader has never heard of is still the document's.
    let old = committed("sweep");
    let text = std::fs::read_to_string(&old).unwrap();
    let unknown = "\"energy_j\": 7,\n      \"counters\":";
    std::fs::write(new, text.replacen("\"counters\":", unknown, 1)).unwrap();
    let out = run(&["compare", &old, new]);
    assert_exit(&out, 1, "an unknown member on one side");
    assert!(stdout(&out).contains(&format!("{lbmhd}.energy_j absent -> 7")), "{}", stdout(&out));

    // A cell on one side only, whichever side.
    std::fs::write(new, text.replacen("\"app\": \"LBMHD\"", "\"app\": \"LBMHD-2\"", 1)).unwrap();
    let out = run(&["compare", &old, new]);
    assert_exit(&out, 1, "a cell renamed on one side");
    let said = stdout(&out);
    assert!(said.contains(&format!("{lbmhd} {{8 members}} -> absent")), "{said}");
    assert!(said.contains("cells[LBMHD-2/8192x8192/Power3/P64] absent -> {8 members}"), "{said}");
    assert!(said.contains("19 matched cells, 2 differences"), "{said}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Each harness, run in full into a scratch directory, equals its
/// committed baseline — the tier-1 recipe, in the test profile.
#[test]
fn fresh_full_runs_equal_the_committed_baselines() {
    let dir = scratch_dir("fresh");
    let harnesses: [(&str, &[&str]); 4] = [
        ("sweep", &["profile", "--samples", "1"]),
        ("chaos", &["chaos"]),
        ("mpisim", &["rankscale"]),
        ("serve", &["serve_load", "--inline", "--check-identity"]),
    ];
    for (stem, args) in harnesses {
        let fresh = dir.join(format!("BENCH_{stem}.json"));
        let mut argv = args.to_vec();
        argv.extend(["--out", fresh.to_str().unwrap()]);
        let out = run(&argv);
        assert_exit(&out, 0, &format!("{args:?}"));
        assert!(stderr(&out).is_empty(), "{args:?}: {}", stderr(&out));
        let out = run(&["compare", &committed(stem), fresh.to_str().unwrap()]);
        assert_exit(&out, 0, &format!("fresh {stem} vs committed:\n{}", stdout(&out)));
        assert!(stdout(&out).contains("ok: documents are equal"), "{}", stdout(&out));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Without `--out` a harness writes under `target/`: running the recipe
/// cannot rewrite a committed baseline.
#[test]
fn default_destination_is_under_target() {
    let dir = scratch_dir("default_out");
    let out = Command::new(PVS).arg("chaos").current_dir(&dir).output().expect("pvs spawns");
    assert_exit(&out, 0, "chaos with no --out");
    assert!(stdout(&out).contains("wrote target/BENCH_chaos.json"), "{}", stdout(&out));
    assert!(dir.join("target/BENCH_chaos.json").exists());
    assert!(!dir.join("BENCH_chaos.json").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn profile_unwritable_trace_dir_exits_6_fast_and_writes_nothing() {
    let dir = scratch_dir("prof_trace");
    let occupied = dir.join("not-a-dir");
    std::fs::write(&occupied, "file in the way").unwrap();
    let out_json = dir.join("o.json");
    let trace = occupied.join("traces");
    let out = run(&[
        "profile",
        "--out",
        out_json.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert_exit(&out, 6, "a file where the --trace dir should go");
    assert_no_panic(&out, "profile on unwritable --trace");
    assert!(!out_json.exists(), "failed run must not leave a partial document");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fig3_pgm_writes_the_image_into_the_working_directory() {
    let dir = scratch_dir("fig3_pgm");
    let out = Command::new(PVS)
        .args(["fig3", "--pgm"])
        .current_dir(&dir)
        .output()
        .expect("pvs spawns");
    assert_exit(&out, 0, "fig3 --pgm");
    assert!(stdout(&out).contains("(image written to fig3.pgm)"), "{}", stdout(&out));
    let image = std::fs::read(dir.join("fig3.pgm")).unwrap();
    assert!(image.starts_with(b"P5"), "a binary PGM");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The rule in `pvs_core::schema`, run: an identifier stays registered
/// only while something still writes it, so each one is looked for in
/// bytes its writer has just produced.
#[test]
fn every_schema_id_has_a_writer() {
    use pvs_bench::serveload::{fetch_stats, paper_serve_cells};
    use pvs_core::schema;
    use pvs_serve::{Server, ServerOptions, StoreOptions};

    let dir = scratch_dir("schema_writers");
    let profile = dir.join("profile.json");
    let out = run(&["profile", "--samples", "1", "--out", profile.to_str().unwrap()]);
    assert_exit(&out, 0, "profile --out");

    // An inline server over a store that spills: its `stats` reply, and
    // the file the store writes for the one cell it is asked for.
    let spill = dir.join("spill");
    let store = StoreOptions { threads: 1, spill_dir: Some(spill.clone()), ..Default::default() };
    let server = Server::start(ServerOptions { store, ..Default::default() }).expect("inline server");
    let cell = &paper_serve_cells()[0];
    server.store().get(cell).expect("a served cell");
    let stats = fetch_stats(&server.addr().to_string()).expect("a stats reply");
    drop(server);
    let spilled = std::fs::read_to_string(spill.join(format!("{}.cell", cell.key_hash())))
        .expect("a spilled cell");

    let table = [
        (schema::PROFILE_V2, std::fs::read_to_string(&profile).unwrap()),
        (schema::SNAPSHOT_V1, stats),
        (schema::SPILL_CELL_V1, spilled.lines().next().unwrap().to_string()),
    ];
    assert_eq!(table.len(), schema::ALL.len(), "a registered id no writer is listed for");
    for (id, written) in &table {
        assert!(schema::ALL.contains(id), "{id} is not registered");
        assert!(written.contains(id), "{id} is not in what its writer wrote:\n{written}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serve_load_inline_passes_identity() {
    let dir = scratch_dir("serve_inline");
    let out_path = dir.join("BENCH_serve.json");
    let out = run(
        &[
            "serve_load",
            "--inline",
            "--requests",
            "8",
            "--connections",
            "2",
            "--check-identity",
            "--out",
            out_path.to_str().unwrap(),
        ],
    );
    assert_exit(&out, 0, "inline load run");
    assert_no_panic(&out, "serve_load inline");
    assert!(stdout(&out).contains("identity: every served cell"), "{}", stdout(&out));
    let doc = std::fs::read_to_string(&out_path).unwrap();
    assert!(doc.contains("\"schema\": \"pvs-bench/profile-v2\""), "{doc}");
    std::fs::remove_dir_all(&dir).unwrap();
}
