//! The `pvs-lint` driver: walk the workspace, run every pass, report.
//!
//! ```text
//! cargo run -p pvs-lint              # human-readable findings
//! cargo run -p pvs-lint -- --json    # machine-readable report
//! cargo run -p pvs-lint -- --codes PVS013,PVS014   # filter by code
//! cargo run -p pvs-lint -- --explain PVS003
//! cargo run -p pvs-lint -- --root /path/to/checkout
//! ```
//!
//! Exit status: 0 when the tree is clean (warnings allowed), 1 when any
//! error-severity finding fired, 2 on usage errors.

#![forbid(unsafe_code)]

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pvs_lint::diag::LintCode;
use pvs_lint::lint_workspace;

/// Print a line to stdout, tolerating a closed pipe (`pvs-lint | head`
/// must not panic mid-report).
fn out_line(line: &str) {
    let _ = writeln!(std::io::stdout(), "{line}");
}

/// Walk up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

fn usage() -> &'static str {
    "usage: pvs-lint [--json] [--root DIR] [--codes PVS0xx,PVS0yy] [--explain PVS00N]\n\
     \n\
     Walks every workspace manifest and Rust source file and reports\n\
     invariant violations. --codes keeps only the listed codes\n\
     (comma-separated). Exit 0 when clean (warnings allowed), 1 on\n\
     errors, 2 on usage errors.\n\
     \n\
     Lint codes:"
}

fn print_code_table() {
    for code in LintCode::all() {
        eprintln!("  {} ({}): {}", code.as_str(), code.severity(), code.summary());
    }
}

/// Malformed usage: the complaint, the synopsis and the code table on
/// stderr; exit 2.
fn usage_error(complaint: &str) -> ExitCode {
    eprintln!("pvs-lint: {complaint}\n\n{}", usage());
    print_code_table();
    ExitCode::from(2)
}

fn unknown_code(name: &str) -> ExitCode {
    eprintln!("pvs-lint: unknown lint code `{name}`; known codes:");
    print_code_table();
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut json = false;
    let mut root_arg: Option<PathBuf> = None;
    let mut explain: Option<String> = None;
    let mut codes: Option<Vec<LintCode>> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--codes" => {
                let Some(list) = args.next() else {
                    return usage_error("--codes needs a comma-separated list");
                };
                let mut wanted = Vec::new();
                for name in list.split(',').filter(|s| !s.is_empty()) {
                    match LintCode::parse(name.trim()) {
                        Some(code) => wanted.push(code),
                        None => return unknown_code(name),
                    }
                }
                codes = Some(wanted);
            }
            "--root" => match args.next() {
                Some(dir) => root_arg = Some(PathBuf::from(dir)),
                None => return usage_error("--root needs a directory"),
            },
            "--explain" => match args.next() {
                Some(code) => explain = Some(code),
                None => return usage_error("--explain needs a lint code"),
            },
            "--help" | "-h" => {
                eprintln!("{}", usage());
                print_code_table();
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    if let Some(name) = explain {
        return match LintCode::parse(&name) {
            Some(code) => {
                out_line(code.explain());
                ExitCode::SUCCESS
            }
            None => unknown_code(&name),
        };
    }

    let root = match root_arg {
        Some(dir) => dir,
        None => {
            let cwd = std::env::current_dir().expect("current dir");
            match find_workspace_root(&cwd) {
                Some(dir) => dir,
                None => {
                    eprintln!(
                        "pvs-lint: no workspace Cargo.toml found above {} — pass --root",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let mut report = lint_workspace(&root);
    if let Some(wanted) = &codes {
        report.diagnostics.retain(|d| wanted.contains(&d.code));
    }
    let (errors, warnings) = report.counts();

    if json {
        out_line(&report.to_json());
    } else {
        for d in &report.diagnostics {
            out_line(&d.render());
        }
        out_line(&format!(
            "pvs-lint: {} file(s) scanned: {errors} error(s), {warnings} warning(s)",
            report.files_scanned
        ));
    }

    if errors > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
