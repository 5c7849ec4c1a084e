//! Manifest and lockfile lints (PVS001, PVS002).
//!
//! The workspace must build with no network and no registry cache, so
//! every dependency — normal, dev, or build — has to be an in-tree
//! `pvs-*` path crate. Cargo resolves *declared* dependencies into
//! Cargo.lock even when they are never compiled (dev-deps of untested
//! crates, optional deps), so the only safe state is "not declared at
//! all". These passes parse the manifests and lockfile by hand (no toml
//! crate, for exactly the reason being linted) and report the offending
//! line.

use std::fs;
use std::path::{Path, PathBuf};

use crate::diag::{Diagnostic, LintCode};

/// Section headers whose entries must all be `pvs-*` path dependencies.
fn is_dependency_section(header: &str) -> bool {
    matches!(
        header,
        "[dependencies]"
            | "[dev-dependencies]"
            | "[build-dependencies]"
            | "[workspace.dependencies]"
    ) || header.starts_with("[target.") && header.contains("dependencies")
}

/// PVS001 over one manifest's text. `path` is used only for spans.
pub fn check_manifest_text(path: &str, text: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut in_dep_section = false;
    for (lineno, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            in_dep_section = is_dependency_section(trimmed);
            continue;
        }
        if !in_dep_section || trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let name = trimmed
            .split(['=', '.'])
            .next()
            .unwrap_or("")
            .trim()
            .trim_matches('"');
        if !name.starts_with("pvs") {
            out.push(Diagnostic::new(
                LintCode::Pvs001,
                path,
                lineno + 1,
                format!(
                    "external dependency `{name}` declared — the workspace \
                     must stay std-only (offline build)"
                ),
            ));
            continue;
        }
        // A pvs-* dep must resolve by path (directly or via the
        // workspace table), never from a registry.
        if trimmed.contains("version") {
            out.push(Diagnostic::new(
                LintCode::Pvs001,
                path,
                lineno + 1,
                format!(
                    "`{name}` pinned by version — use a path dependency so \
                     no registry lookup is needed"
                ),
            ));
        }
    }
    out
}

/// PVS002 over the lockfile's text. `path` is used only for spans.
pub fn check_lockfile_text(path: &str, text: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut package: Option<String> = None;
    for (lineno, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed == "[[package]]" {
            package = None;
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("name = ") {
            let name = rest.trim_matches('"');
            package = Some(name.to_string());
            if name != "pvs" && !name.starts_with("pvs-") {
                out.push(Diagnostic::new(
                    LintCode::Pvs002,
                    path,
                    lineno + 1,
                    format!("unexpected non-workspace package `{name}` in lockfile"),
                ));
            }
        }
        if trimmed.starts_with("source = ") {
            out.push(Diagnostic::new(
                LintCode::Pvs002,
                path,
                lineno + 1,
                format!(
                    "package `{}` resolves from an external source ({trimmed}) \
                     — the workspace must stay path-only",
                    package.as_deref().unwrap_or("<unknown>")
                ),
            ));
        }
    }
    out
}

/// Every manifest in the workspace: the root `Cargo.toml` plus one per
/// `crates/*` member, sorted for deterministic diagnostic order.
pub fn workspace_manifest_paths(root: &Path) -> Vec<PathBuf> {
    let mut out = vec![root.join("Cargo.toml")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut members: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path().join("Cargo.toml"))
            .filter(|p| p.is_file())
            .collect();
        members.sort();
        out.extend(members);
    }
    out
}

/// Run PVS001 over every workspace manifest and PVS002 over the
/// lockfile. Paths in diagnostics are relative to `root`.
pub fn check_workspace_manifests(root: &Path) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for path in workspace_manifest_paths(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .display()
            .to_string();
        match fs::read_to_string(&path) {
            Ok(text) => out.extend(check_manifest_text(&rel, &text)),
            Err(err) => out.push(Diagnostic::new(
                LintCode::Pvs001,
                &rel,
                0,
                format!("cannot read manifest: {err}"),
            )),
        }
    }
    let lock = root.join("Cargo.lock");
    match fs::read_to_string(&lock) {
        Ok(text) => out.extend(check_lockfile_text("Cargo.lock", &text)),
        Err(err) => out.push(Diagnostic::new(
            LintCode::Pvs002,
            "Cargo.lock",
            0,
            format!("cannot read lockfile: {err}"),
        )),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_manifest_passes() {
        let text = "[package]\nname = \"pvs-core\"\n\n[dependencies]\n\
                    pvs-vectorsim.workspace = true\npvs-model = { path = \"../model\" }\n";
        assert!(check_manifest_text("Cargo.toml", &text.to_string()).is_empty());
    }

    #[test]
    fn external_dep_flagged_with_line() {
        let text = "[dependencies]\nserde = \"1\"\n";
        let diags = check_manifest_text("crates/x/Cargo.toml", text);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code.as_str(), "PVS001");
        assert_eq!(diags[0].line, 2);
        assert!(diags[0].message.contains("serde"));
    }

    #[test]
    fn version_pinned_pvs_dep_flagged() {
        let text = "[dev-dependencies]\npvs-core = { version = \"0.1\" }\n";
        let diags = check_manifest_text("Cargo.toml", text);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("version"));
    }

    #[test]
    fn non_dependency_sections_are_ignored() {
        let text = "[package]\nversion = \"0.1.0\"\n[features]\nextra = []\n";
        assert!(check_manifest_text("Cargo.toml", text).is_empty());
    }

    #[test]
    fn target_dependency_sections_are_checked() {
        let text = "[target.'cfg(unix)'.dependencies]\nlibc = \"0.2\"\n";
        let diags = check_manifest_text("Cargo.toml", text);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("libc"));
    }

    #[test]
    fn lockfile_registry_source_flagged() {
        let text = "[[package]]\nname = \"pvs-core\"\nversion = \"0.1.0\"\n\n\
                    [[package]]\nname = \"rand\"\nversion = \"0.8.5\"\n\
                    source = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
        let diags = check_lockfile_text("Cargo.lock", text);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().any(|d| d.message.contains("non-workspace package `rand`")));
        assert!(diags.iter().any(|d| d.message.contains("external source")));
        assert!(diags.iter().all(|d| d.code.as_str() == "PVS002"));
    }

    #[test]
    fn clean_lockfile_passes() {
        let text = "version = 3\n\n[[package]]\nname = \"pvs\"\nversion = \"0.1.0\"\n";
        assert!(check_lockfile_text("Cargo.lock", text).is_empty());
    }

    #[test]
    fn real_workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let diags = check_workspace_manifests(root);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(
            workspace_manifest_paths(root).len() >= 15,
            "expected the full workspace"
        );
    }
}
