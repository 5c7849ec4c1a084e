//! End-to-end tests of the `pvs-lint` binary: exit codes, JSON output,
//! and `--explain`, driven through `CARGO_BIN_EXE_pvs-lint` against both
//! the real workspace and a seeded-violation scratch workspace.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn lint_bin() -> &'static str {
    env!("CARGO_BIN_EXE_pvs-lint")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

fn run(args: &[&str]) -> Output {
    Command::new(lint_bin())
        .args(args)
        .output()
        .expect("pvs-lint runs")
}

/// A scratch workspace with one violation per pass family.
fn seeded_workspace() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pvs-lint-e2e-{}", std::process::id()));
    let src = dir.join("crates/badapp/src");
    fs::create_dir_all(&src).expect("scratch dirs");
    fs::write(
        dir.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n\n[workspace.dependencies]\nserde = \"1.0\"\n",
    )
    .expect("root manifest");
    fs::write(
        dir.join("Cargo.lock"),
        "version = 3\n\n[[package]]\nname = \"rand\"\nversion = \"0.8.5\"\n\
         source = \"registry+https://github.com/rust-lang/crates.io-index\"\n",
    )
    .expect("lockfile");
    fs::write(
        dir.join("crates/badapp/Cargo.toml"),
        "[package]\nname = \"pvs-badapp\"\n",
    )
    .expect("member manifest");
    fs::write(
        src.join("lib.rs"),
        "pub fn now() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
    )
    .expect("seeded source");
    dir
}

#[test]
fn real_workspace_is_clean_and_exits_zero() {
    let root = workspace_root();
    let out = run(&["--root", root.to_str().expect("utf-8 path")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    // A clean tree prints the summary line and nothing else.
    let summary = stdout.trim_end();
    assert!(
        summary.starts_with("pvs-lint: ")
            && summary.ends_with(" file(s) scanned: 0 error(s), 0 warning(s)")
            && !summary.contains('\n'),
        "expected exactly the summary line: {stdout}"
    );
}

#[test]
fn seeded_violations_exit_nonzero_with_correct_spans() {
    let dir = seeded_workspace();
    let out = run(&["--root", dir.to_str().expect("utf-8 path")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    // PVS001 with the manifest line of the serde entry.
    assert!(
        stdout.contains("Cargo.toml:5: error[PVS001]"),
        "{stdout}"
    );
    assert!(stdout.contains("serde"), "{stdout}");
    // PVS002 pointing at the lockfile's registry source line.
    assert!(stdout.contains("Cargo.lock:4: error[PVS002]"), "{stdout}");
    assert!(stdout.contains("Cargo.lock:6: error[PVS002]"), "{stdout}");
    // PVS003 in the seeded source, both lines.
    let src = "crates/badapp/src/lib.rs";
    assert!(stdout.contains(&format!("{src}:1: error[PVS003]")), "{stdout}");
    assert!(stdout.contains(&format!("{src}:2: error[PVS003]")), "{stdout}");
    fs::remove_dir_all(&dir).ok();
}

/// A scratch workspace seeding the cross-file passes: a two-lock
/// acquisition cycle (PVS013), a consumed-but-never-emitted counter
/// (PVS014), and a schema literal outside the registry (PVS015).
fn seeded_cross_file_workspace() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pvs-lint-xfile-{}", std::process::id()));
    let src = dir.join("crates/badapp/src");
    fs::create_dir_all(&src).expect("scratch dirs");
    fs::write(
        dir.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .expect("root manifest");
    fs::write(dir.join("Cargo.lock"), "version = 3\n").expect("lockfile");
    fs::write(
        dir.join("crates/badapp/Cargo.toml"),
        "[package]\nname = \"pvs-badapp\"\n",
    )
    .expect("member manifest");
    fs::write(
        src.join("lib.rs"),
        "use std::sync::Mutex;\n\
         \n\
         pub struct S {\n\
         \x20   // LOCK ORDER: 10\n\
         \x20   pub alpha: Mutex<u32>,\n\
         \x20   // LOCK ORDER: 20\n\
         \x20   pub beta: Mutex<u32>,\n\
         }\n\
         \n\
         pub fn forward(s: &S) {\n\
         \x20   let alpha = s.alpha.lock().expect(\"alpha\");\n\
         \x20   let beta = s.beta.lock().expect(\"beta\");\n\
         \x20   drop(beta);\n\
         \x20   drop(alpha);\n\
         }\n\
         \n\
         pub fn backward(s: &S) {\n\
         \x20   let beta = s.beta.lock().expect(\"beta\");\n\
         \x20   let alpha = s.alpha.lock().expect(\"alpha\");\n\
         \x20   drop(alpha);\n\
         \x20   drop(beta);\n\
         }\n\
         \n\
         pub fn read_counters(r: &Registry) -> u64 {\n\
         \x20   r.counter(\"badapp.requests.total\")\n\
         }\n\
         \n\
         pub const SCHEMA: &str = \"pvs-bench/profile-v2\";\n",
    )
    .expect("seeded source");
    dir
}

#[test]
fn seeded_two_lock_cycle_trips_all_cross_file_codes() {
    let dir = seeded_cross_file_workspace();
    let root = dir.to_str().expect("utf-8 path");
    let out = run(&["--root", root]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("error[PVS013]: lock order inversion"),
        "{stdout}"
    );
    assert!(
        stdout.contains("error[PVS013]: acquisition-order cycle: badapp.alpha -> badapp.beta -> badapp.alpha"),
        "{stdout}"
    );
    assert!(
        stdout.contains("error[PVS014]: counter `badapp.requests.total` is consumed but never emitted"),
        "{stdout}"
    );
    assert!(
        stdout.contains("error[PVS015]: schema version `pvs-bench/profile-v2`"),
        "{stdout}"
    );

    // --codes narrows the report to the listed codes only.
    let filtered = run(&["--root", root, "--codes", "PVS013"]);
    let filtered_out = String::from_utf8_lossy(&filtered.stdout);
    assert_eq!(filtered.status.code(), Some(1), "{filtered_out}");
    assert!(filtered_out.contains("PVS013"), "{filtered_out}");
    assert!(!filtered_out.contains("PVS014"), "{filtered_out}");
    assert!(!filtered_out.contains("PVS015"), "{filtered_out}");

    // Filtering away every firing code leaves a clean (exit 0) run.
    let none = run(&["--root", root, "--codes", "PVS005"]);
    assert_eq!(none.status.code(), Some(0));

    // Unknown codes are usage errors.
    let bad = run(&["--root", root, "--codes", "PVS999"]);
    assert_eq!(bad.status.code(), Some(2));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_output_is_byte_stable_across_runs() {
    let root = workspace_root();
    let args = ["--json", "--root", root.to_str().expect("utf-8 path")];
    let first = run(&args);
    let second = run(&args);
    assert!(first.status.success());
    assert_eq!(
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&second.stdout),
        "--json output must be deterministic"
    );
}

#[test]
fn json_report_is_machine_readable() {
    let root = workspace_root();
    let out = run(&["--json", "--root", root.to_str().expect("utf-8 path")]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json = stdout.trim();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    assert!(json.contains("\"errors\":0"), "{json}");
    assert!(json.contains("\"files_scanned\":"), "{json}");
    assert!(json.contains("\"diagnostics\":["), "{json}");
}

#[test]
fn explain_prints_rationale_and_rejects_unknown_codes() {
    let out = run(&["--explain", "PVS003"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("PVS003:"), "{stdout}");
    assert!(stdout.contains("byte-identical"), "{stdout}");

    // Unknown and retired numbers alike: a retired code is never reused,
    // and it is not a code any more either.
    for gone in ["PVS999", "PVS004", "PVS008", "PVS009", "PVS010"] {
        assert_eq!(run(&["--explain", gone]).status.code(), Some(2), "{gone}");
        assert_eq!(run(&["--codes", gone]).status.code(), Some(2), "{gone}");
    }

    let unknown_flag = run(&["--frobnicate"]);
    assert_eq!(unknown_flag.status.code(), Some(2));
}
