//! Golden-file tests: every lint code has a clean fixture (must produce
//! no findings) and a multi-violation fixture whose exact findings —
//! code, severity, line, message — are pinned by a `.expected` golden.
//!
//! Regenerate goldens after an intentional behaviour change with
//! `PVS_LINT_BLESS=1 cargo test -p pvs-lint --test fixtures`.

use std::fs;
use std::path::{Path, PathBuf};

use pvs_lint::diag::{sort_diagnostics, Diagnostic};
use pvs_lint::facts::{FileFacts, WorkspaceFacts};
use pvs_lint::manifest::{check_lockfile_text, check_manifest_text};
use pvs_lint::source::{check_source, SourceContext};
use pvs_lint::{locks, names};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// Run the pass family a fixture's name/extension selects. The
/// cross-file codes (PVS011, PVS013–PVS015) treat the fixture as a
/// one-file workspace; PVS014 fixtures document their names with
/// `// DOCUMENTED:` directives in place of the README table.
fn findings_for(name: &str) -> Vec<Diagnostic> {
    let text = fs::read_to_string(fixture_dir().join(name)).expect("fixture readable");
    let mut diags = if name.ends_with(".toml") {
        check_manifest_text(name, &text)
    } else if name.ends_with(".lock") {
        check_lockfile_text(name, &text)
    } else if ["pvs011", "pvs013", "pvs014", "pvs015"].contains(&&name[..6]) {
        let ws = WorkspaceFacts::build(vec![FileFacts::parse("fixture", name, &text, false)]);
        if name.starts_with("pvs011") {
            names::check_counter_grammar(&ws)
        } else if name.starts_with("pvs013") {
            locks::check(&ws)
        } else if name.starts_with("pvs014") {
            let docs = ws
                .files
                .iter()
                .flat_map(|f| f.documented.iter().cloned())
                .collect();
            names::check_counters(&ws, &docs)
        } else {
            names::check_schemas(&ws)
        }
    } else {
        check_source(
            SourceContext {
                crate_name: "fixture",
                path: name,
            },
            &text,
        )
    };
    sort_diagnostics(&mut diags);
    diags
}

fn rendered(name: &str) -> String {
    let lines: Vec<String> = findings_for(name).iter().map(|d| d.render_spanless()).collect();
    lines.join("\n")
}

fn assert_matches_golden(fixture: &str) {
    let actual = rendered(fixture);
    let golden_path = fixture_dir().join(format!(
        "{}.expected",
        fixture.rsplit_once('.').expect("extension").0
    ));
    if std::env::var_os("PVS_LINT_BLESS").is_some() {
        fs::write(&golden_path, format!("{actual}\n")).expect("write golden");
        return;
    }
    let golden = fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", golden_path.display()));
    assert_eq!(
        actual,
        golden.trim_end(),
        "{fixture} findings diverged from golden (PVS_LINT_BLESS=1 to regenerate)"
    );
}

const VIOLATION_FIXTURES: [&str; 11] = [
    "pvs001_violations.toml",
    "pvs002_violations.lock",
    "pvs003_violations.rs",
    "pvs005_violations.rs",
    "pvs006_violations.rs",
    "pvs007_violations.rs",
    "pvs011_violations.rs",
    "pvs012_violations.rs",
    "pvs013_violations.rs",
    "pvs014_violations.rs",
    "pvs015_violations.rs",
];

const CLEAN_FIXTURES: [&str; 11] = [
    "pvs001_clean.toml",
    "pvs002_clean.lock",
    "pvs003_clean.rs",
    "pvs005_clean.rs",
    "pvs006_clean.rs",
    "pvs007_clean.rs",
    "pvs011_clean.rs",
    "pvs012_clean.rs",
    "pvs013_clean.rs",
    "pvs014_clean.rs",
    "pvs015_clean.rs",
];

#[test]
fn violation_fixtures_match_goldens() {
    for fixture in VIOLATION_FIXTURES {
        assert_matches_golden(fixture);
    }
}

#[test]
fn violation_fixtures_each_trip_their_own_code() {
    for fixture in VIOLATION_FIXTURES {
        let code = fixture[..6].to_ascii_uppercase();
        let findings = findings_for(fixture);
        assert!(
            findings.iter().any(|d| d.code.as_str() == code),
            "{fixture} never tripped {code}: {findings:?}"
        );
        assert!(
            findings.iter().filter(|d| d.code.as_str() == code).count() >= 2,
            "{fixture} should be multi-violation for {code}"
        );
    }
}

/// PVS003 must hold for `pvs-obs` specifically: the observability layer
/// records opaque ticks and simulated quantities, so host clocks inside
/// it are exactly the bug the lint exists to catch — while the same text
/// inside `pvs-bench` (the one crate allowed to time the host) is legal.
#[test]
fn obs_crate_gets_no_wall_clock_exemption() {
    let text = fs::read_to_string(fixture_dir().join("pvs003_obs_violations.rs"))
        .expect("fixture readable");
    let as_obs = check_source(
        SourceContext {
            crate_name: "obs",
            path: "crates/obs/src/bad.rs",
        },
        &text,
    );
    let pvs003 = as_obs.iter().filter(|d| d.code.as_str() == "PVS003").count();
    assert!(
        pvs003 >= 2,
        "expected >=2 PVS003 findings in crate obs, got {pvs003}: {as_obs:?}"
    );
    let as_bench = check_source(
        SourceContext {
            crate_name: "bench",
            path: "crates/bench/src/ok.rs",
        },
        &text,
    );
    assert!(
        as_bench.iter().all(|d| d.code.as_str() != "PVS003"),
        "bench is the host-timing crate; PVS003 must not fire there: {as_bench:?}"
    );
}

#[test]
fn clean_fixtures_produce_no_findings() {
    for fixture in CLEAN_FIXTURES {
        let findings = findings_for(fixture);
        assert!(findings.is_empty(), "{fixture}: {findings:?}");
    }
}
