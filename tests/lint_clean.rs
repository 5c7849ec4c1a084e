//! Tier-1: the whole workspace must be clean under `pvs-lint`.
//!
//! Runs every lint pass — manifest/lockfile invariants (no external
//! dependency can come back: PVS001/PVS002 are errors like any other),
//! the determinism source lints, and the cross-file lock-order,
//! counter-name and schema-literal passes — exactly as
//! `cargo run -p pvs-lint` does. Errors fail; so do warnings, because a
//! clean tree has none.

use std::path::Path;

use pvs::lint::diag::Severity;
use pvs::lint::lint_workspace;
use pvs::lint::manifest::workspace_manifest_paths;

#[test]
fn workspace_has_no_lint_errors() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint_workspace(root);
    let errors: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.render())
        .collect();
    assert!(errors.is_empty(), "{errors:#?}");
    assert!(
        report.files_scanned > 100,
        "walker regressed: only {} files scanned",
        report.files_scanned
    );
    assert!(
        workspace_manifest_paths(root).len() >= 15,
        "manifest walker regressed: expected the full workspace"
    );
}

#[test]
fn a_clean_tree_has_zero_warnings() {
    let report = lint_workspace(Path::new(env!("CARGO_MANIFEST_DIR")));
    let warnings: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .map(|d| d.render())
        .collect();
    assert!(warnings.is_empty(), "{warnings:#?}");
}
