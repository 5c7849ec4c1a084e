//! `pvs-lint`: in-tree static analysis for the PVS workspace.
//!
//! It reads manifests and source text and nothing else — no workspace
//! crate is linked to be *run*. Two pass families share one diagnostic
//! engine ([`diag`]):
//!
//! * **Invariant lints** keep the properties the rest of the test suite
//!   *assumes* true by construction: the offline std-only build
//!   ([`manifest`], PVS001/PVS002) and the determinism source rules
//!   ([`source`], PVS003, PVS005–PVS007, PVS012) that make sweep output
//!   byte-identical.
//! * **Cross-file lints** run in two passes: [`facts`] scans every file
//!   into a workspace fact base (lock acquisitions with guard liveness,
//!   Recorder counter names written and read, schema-version literals),
//!   then [`locks`] (PVS013, the lock-order graph) and [`names`]
//!   (PVS011 counter-name grammar, PVS014 counter registry, PVS015
//!   schema registry) join the facts across crate boundaries.
//!
//! The `pvs-lint` binary (`cargo run -p pvs-lint`) drives both families
//! over the whole workspace; `tests/lint_clean.rs` wires the same entry
//! point into tier-1. Run `pvs-lint --explain PVS00x` for the rationale
//! behind any code.

#![forbid(unsafe_code)]

pub mod diag;
pub mod facts;
pub mod locks;
pub mod manifest;
pub mod names;
pub mod scan;
pub mod source;

use std::fs;
use std::path::{Path, PathBuf};

use diag::{sort_diagnostics, Diagnostic, LintCode};
use source::SourceContext;

/// Everything one lint run produced.
#[derive(Debug)]
pub struct LintReport {
    /// All diagnostics, sorted by file, line, code, message.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of Rust source files scanned by the source passes.
    pub files_scanned: usize,
}

impl LintReport {
    /// `(errors, warnings)` severity counts.
    pub fn counts(&self) -> (usize, usize) {
        diag::count(&self.diagnostics)
    }

    /// Render the machine-readable JSON report.
    pub fn to_json(&self) -> String {
        diag::report_json(&self.diagnostics, self.files_scanned)
    }
}

/// Recursively collect `.rs` files under `dir`, sorted for
/// deterministic diagnostic order.
fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files_under(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `.rs` file under `crates/*/<subdir>` plus the root `<subdir>/`.
fn rust_files_in(root: &Path, subdir: &str) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut members: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        members.sort();
        for member in members {
            rust_files_under(&member.join(subdir), &mut out);
        }
    }
    rust_files_under(&root.join(subdir), &mut out);
    out
}

/// The Rust sources the source passes walk: every `crates/*/src` tree
/// plus the facade crate's own `src/`. Root `tests/` (host-facing
/// integration harnesses, legitimately timed) and fixture trees are
/// deliberately out of scope — the invariants lint *model and library*
/// code.
pub fn source_files(root: &Path) -> Vec<PathBuf> {
    rust_files_in(root, "src")
}

/// Test-tree sources (`crates/*/tests` plus the root `tests/`): out of
/// scope for the invariant passes, but their *name facts* still feed
/// PVS014 — a counter emitted only by a test satisfies a test's read of
/// it, and test consumption of library counters is checked too.
pub fn test_files(root: &Path) -> Vec<PathBuf> {
    rust_files_in(root, "tests")
}

/// Crate name for a workspace-relative source path
/// (`crates/core/src/…` → `core`; the facade's `src/…` → `pvs`).
fn crate_of(rel: &Path) -> &str {
    let mut parts = rel.components();
    match parts.next().and_then(|c| c.as_os_str().to_str()) {
        Some("crates") => parts
            .next()
            .and_then(|c| c.as_os_str().to_str())
            .unwrap_or("pvs"),
        _ => "pvs",
    }
}

/// Build the workspace fact base (pass 1 of the cross-file lints):
/// library sources in full, test trees for name facts only.
pub fn workspace_facts(root: &Path) -> facts::WorkspaceFacts {
    let mut fact_files = Vec::new();
    for (paths, is_test) in [(source_files(root), false), (test_files(root), true)] {
        for path in paths {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let rel_str = rel.display().to_string();
            if let Ok(text) = fs::read_to_string(&path) {
                fact_files.push(facts::FileFacts::parse(
                    crate_of(rel),
                    &rel_str,
                    &text,
                    is_test,
                ));
            }
        }
    }
    facts::WorkspaceFacts::build(fact_files)
}

/// The canonical documented-counter table: README rows (backtick
/// tokens, `<placeholder>` segments normalized to `*`) plus any
/// `// DOCUMENTED:` directives in the scanned sources.
fn documented_counters(root: &Path, ws: &facts::WorkspaceFacts) -> std::collections::BTreeSet<String> {
    let mut documented =
        names::documented_names(&fs::read_to_string(root.join("README.md")).unwrap_or_default());
    documented.extend(ws.files.iter().flat_map(|f| f.documented.iter().cloned()));
    documented
}

/// Run every lint pass over the workspace at `root`.
pub fn lint_workspace(root: &Path) -> LintReport {
    let mut diagnostics = manifest::check_workspace_manifests(root);

    let files = source_files(root);
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let rel_str = rel.display().to_string();
        match fs::read_to_string(path) {
            Ok(text) => diagnostics.extend(source::check_source(
                SourceContext {
                    crate_name: crate_of(rel),
                    path: &rel_str,
                },
                &text,
            )),
            Err(err) => diagnostics.push(Diagnostic::new(
                LintCode::Pvs003,
                &rel_str,
                0,
                format!("cannot read source file: {err}"),
            )),
        }
    }

    let ws = workspace_facts(root);
    diagnostics.extend(locks::check(&ws));
    diagnostics.extend(names::check_counter_grammar(&ws));
    diagnostics.extend(names::check_counters(&ws, &documented_counters(root, &ws)));
    diagnostics.extend(names::check_schemas(&ws));

    sort_diagnostics(&mut diagnostics);
    LintReport {
        diagnostics,
        files_scanned: files.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root")
            .to_path_buf()
    }

    #[test]
    fn walker_sees_every_crate_and_skips_fixtures() {
        let root = workspace_root();
        let files = source_files(&root);
        assert!(files.len() > 50, "only {} files", files.len());
        for needle in [
            "crates/core/src/lib.rs",
            "crates/lint/src/lib.rs",
            "crates/vectorsim/src/descriptor.rs",
            "src/lib.rs",
        ] {
            assert!(
                files.iter().any(|p| p.ends_with(needle)),
                "walker missed {needle}"
            );
        }
        assert!(
            files.iter().all(|p| !p.to_string_lossy().contains("fixtures")),
            "fixtures must not be walked"
        );
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "walk order must be deterministic");
    }

    #[test]
    fn crate_names_resolve_from_paths() {
        assert_eq!(crate_of(Path::new("crates/bench/src/harness.rs")), "bench");
        assert_eq!(crate_of(Path::new("crates/core/src/engine.rs")), "core");
        assert_eq!(crate_of(Path::new("src/lib.rs")), "pvs");
    }

    #[test]
    fn serve_lock_order_graph_is_pinned() {
        // The real workspace's observed acquisition edges. Serve's
        // request path is the only place one workspace lock nests under
        // another: `CellStore::get` consults the cache shards and the
        // obs registry while holding the flight map. If this test
        // fails, the cross-crate locking structure changed — update the
        // `LOCK ORDER` tiers (and this list) deliberately.
        let ws = workspace_facts(&workspace_root());
        let graph = locks::lock_graph(&ws);
        assert_eq!(
            graph,
            vec![
                ("serve.flights".to_string(), "obs.inner".to_string()),
                ("serve.flights".to_string(), "serve.shards".to_string()),
            ],
            "observed lock-order graph changed"
        );
        let tiers: Vec<(String, Option<u32>)> = ws
            .locks
            .iter()
            .map(|l| (l.id.clone(), l.tier))
            .collect();
        assert!(
            ws.locks.len() >= 8 && tiers.iter().all(|(_, t)| t.is_some()),
            "every workspace Mutex must declare a LOCK ORDER tier: {tiers:?}"
        );
    }
}
