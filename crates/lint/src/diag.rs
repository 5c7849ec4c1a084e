//! The diagnostic engine: lint codes, severities, spans, and rendering.
//!
//! Every finding is a [`Diagnostic`]: a stable code (`PVS001..`), a
//! severity, a repo-relative `file:line` span, and a one-line message.
//! Output is deliberately boring and stable — sorted, plain text, one
//! finding per line — so goldens and CI greps stay byte-reproducible; a
//! machine-readable JSON form rides along for tooling.

use pvs_core::json::{array, JsonObject};
use std::fmt;

/// How bad a finding is. Only errors fail the build (nonzero driver exit,
/// tier-1 `lint_clean` test); warnings are advisories (PVS014's
/// emitted-but-undocumented arm).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: printed, never fails the run.
    Warning,
    /// Invariant violation: nonzero exit, tier-1 failure.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The stable lint-code namespace. Codes are never reused or renumbered.
/// Retired: PVS004 (rustc holds it: `#![forbid(unsafe_code)]` at every
/// crate root) and PVS008–PVS010 (the static ≡ dynamic kernel check is
/// the root test `tests/simulators.rs`, not a property of source text).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintCode {
    /// External dependency declared in a workspace manifest.
    Pvs001,
    /// `Cargo.lock` resolves a package from a registry source.
    Pvs002,
    /// Wall-clock time source outside the bench harness.
    Pvs003,
    /// `HashMap`/`HashSet` named in a walked source file.
    Pvs005,
    /// Floating-point accumulation over a channel-receive loop.
    Pvs006,
    /// Blanket lint-suppression escape hatch.
    Pvs007,
    /// Recorder counter/gauge name literal is not lowercase
    /// `snake.dotted`.
    Pvs011,
    /// `unwrap()`/`expect()` on a `Result` in simulator library code.
    Pvs012,
    /// Lock discipline: undeclared `Mutex`, acquisition-order inversion
    /// or cycle, or a guard held across a blocking hazard.
    Pvs013,
    /// Counter registry: consumed-but-never-emitted recorder name
    /// (error) or emitted-but-undocumented name (warning).
    Pvs014,
    /// Schema registry: a canonical schema version string spelled as a
    /// literal outside `pvs_core::schema`.
    Pvs015,
}

/// One row of the code table: everything the driver prints about a code.
struct CodeRow {
    code: LintCode,
    /// The stable printed form ("PVS003").
    name: &'static str,
    /// The default severity findings of this code carry.
    severity: Severity,
    /// One-line summary (the `--help` table row).
    summary: &'static str,
    /// The long-form `--explain` text.
    explain: &'static str,
}

/// The code table, in numeric order; `LintCode as usize` indexes it.
const CODES: [CodeRow; 11] = [
    CodeRow {
        code: LintCode::Pvs001,
        name: "PVS001",
        severity: Severity::Error,
        summary: "external dependency declared in a workspace manifest",
        explain: "PVS001: external dependency declared in a workspace manifest.\n\
         \n\
         The workspace must build with no network and no registry cache,\n\
         so every dependency (normal, dev, or build) has to be an in-tree\n\
         `pvs-*` path crate. Cargo resolves *declared* dependencies into\n\
         Cargo.lock even when they are never compiled, so the only safe\n\
         state is \"not declared at all\". This lint parses every\n\
         dependency section of every manifest and flags any entry that is\n\
         not a `pvs-*` path dependency, and any `pvs-*` entry pinned by a\n\
         registry version instead of a path.",
    },
    CodeRow {
        code: LintCode::Pvs002,
        name: "PVS002",
        severity: Severity::Error,
        summary: "Cargo.lock resolves a package from a registry source",
        explain: "PVS002: Cargo.lock resolves a package from a registry source.\n\
         \n\
         A `source =` line in Cargo.lock means some package would be\n\
         fetched from a registry or git remote at build time, breaking the\n\
         offline build. The lockfile must contain only the workspace's own\n\
         `pvs`/`pvs-*` path packages.",
    },
    CodeRow {
        code: LintCode::Pvs003,
        name: "PVS003",
        severity: Severity::Error,
        summary: "wall-clock time source outside the exempt bench/serve-edge surface",
        explain: "PVS003: wall-clock time source outside the exempt surface.\n\
         \n\
         Every table, figure, and sweep in this repository must be\n\
         byte-identical across runs and across worker counts. Reading\n\
         wall-clock time (`std::time::Instant`, `std::time::SystemTime`)\n\
         anywhere in model or application code would let nondeterminism\n\
         leak into results. Host timing is allowed in exactly two\n\
         places: `pvs-bench` (the harness measures the host, not the\n\
         model) and `crates/serve/src/server.rs` (the serving layer's\n\
         process edge: idle timeouts and service-time accounting). The\n\
         rest of `pvs-serve` stays clock-free so cached responses are\n\
         pure functions of the request.",
    },
    CodeRow {
        code: LintCode::Pvs005,
        name: "PVS005",
        severity: Severity::Error,
        summary: "`HashMap`/`HashSet` named in a walked source file",
        explain: "PVS005: `HashMap`/`HashSet` named in a walked source file.\n\
         \n\
         `HashMap`/`HashSet` iteration order is randomized per process,\n\
         so any walk over one that reaches a rendered table, a figure, a\n\
         report or a float sum breaks byte-identical regeneration — and\n\
         whether a given container is ever walked cannot be decided from\n\
         one line of text (a struct field, a parameter, a `.values().sum()`\n\
         three calls away). The rule is therefore on the type, not the\n\
         walk: model and library code under `crates/*/src` and `src/`\n\
         does not name the hash containers at all. Use `BTreeMap`/\n\
         `BTreeSet`, or a sorted `Vec`.",
    },
    CodeRow {
        code: LintCode::Pvs006,
        name: "PVS006",
        severity: Severity::Error,
        summary: "floating-point accumulation over a channel-receive loop",
        explain: "PVS006: floating-point accumulation over a channel-receive loop.\n\
         \n\
         Float addition is not associative: accumulating (`+=`) inside a\n\
         loop whose iteration order is nondeterministic — a channel\n\
         receive loop (`.recv()`, `.try_iter()`) — produces run-to-run\n\
         different low bits, which the byte-identical sweep guarantee\n\
         (tests/parallel_sweep.rs) will eventually catch far from the\n\
         cause. Collect into a Vec in a deterministic order (e.g. indexed\n\
         by worker id) and reduce serially, as\n\
         `pvs_core::pool::ThreadPool::map` does. (The other unordered\n\
         source, a hash-container walk, cannot occur: see PVS005.)",
    },
    CodeRow {
        code: LintCode::Pvs007,
        name: "PVS007",
        severity: Severity::Error,
        summary: "blanket lint-suppression escape hatch",
        explain: "PVS007: blanket lint-suppression escape hatch.\n\
         \n\
         `cargo build --release` is warning-clean and must stay that way\n\
         honestly: a broad `allow(..)`/`expect(..)` of `warnings`,\n\
         `unused`, `dead_code`, or `clippy::all`-style groups — in any\n\
         attribute, `#![cfg_attr(test, allow(warnings))]` included —\n\
         hides real defects wholesale. Narrow, named allows (e.g.\n\
         `clippy::needless_range_loop` in index-heavy kernels) remain\n\
         fine; whole-category suppression is not.",
    },
    CodeRow {
        code: LintCode::Pvs011,
        name: "PVS011",
        severity: Severity::Error,
        summary: "recorder counter name literal is not lowercase `snake.dotted`",
        explain: "PVS011: recorder counter name literal is not lowercase `snake.dotted`.\n\
         \n\
         Every counter and gauge name handed to the observability\n\
         Recorder (`add`, `gauge_set`, `gauge_max`, `add_many`, the\n\
         engine's `entries.push((..))` batch idiom) forms one shared\n\
         namespace that analysis code (`pvs-analyze`), baselines\n\
         (BENCH_sweep.json), and the regression sentinel all join on.\n\
         A stray `QueueDepth` or single-word `flops` silently forks\n\
         that namespace. Literal names must be lowercase dotted paths\n\
         (`engine.loop.cycles`, `netsim.bisection_bytes`): at least\n\
         two segments of `[a-z0-9_]+` separated by dots. Dynamically\n\
         built names (`format!`) are not checked.",
    },
    CodeRow {
        code: LintCode::Pvs012,
        name: "PVS012",
        severity: Severity::Error,
        summary: "`unwrap()`/`expect()` on a Result in simulator library code",
        explain: "PVS012: `unwrap()`/`expect()` on a Result in simulator library code.\n\
         \n\
         The fault-injection layer (`pvs-fault`, `pvs_mpisim::fault`,\n\
         `Adversity`) deliberately drives the simulators into degraded\n\
         states, so an \"impossible\" error in simulator library code is\n\
         now an input, not a bug — a stray `.unwrap()` turns a modelled\n\
         fault into a process abort. In the simulator crates (core,\n\
         memsim, netsim, vectorsim, mpisim, obs, fault), library code\n\
         must handle Result errors or justify the infallibility with a\n\
         `// INFALLIBLE:` comment on the same line or the three lines\n\
         above. Test code (`#[cfg(test)]` modules, integration tests)\n\
         and build scripts are exempt, and Option `unwrap`/`expect` is\n\
         out of scope. The pass is heuristic: it fires only when the\n\
         call chain ends in a known Result-producing call (`lock()`,\n\
         `recv()`, `send(..)`, `join()`, `wait(..)`, `spawn(..)`,\n\
         `parse()`, ...), so it cannot misfire on Option accessors.",
    },
    CodeRow {
        code: LintCode::Pvs013,
        name: "PVS013",
        severity: Severity::Error,
        summary: "lock discipline: undeclared Mutex, order inversion/cycle, or guard held across a blocking hazard",
        explain: "PVS013: lock discipline across the workspace's Mutex population.\n\
         \n\
         The serving layer nests locks (serve's flight map holds its\n\
         guard while touching a cache shard and the obs registry), so\n\
         deadlock-freedom is now a whole-program property, not a\n\
         per-file one. The lint's cross-file fact base records every\n\
         `Mutex` declaration, tracks guard liveness through each\n\
         function, and resolves calls made while a guard is held to\n\
         the locks those callees may acquire. Four rules:\n\
         \n\
         * every `Mutex` field or binding must declare its place in\n\
         the acquisition order with a `// LOCK ORDER: <tier>`\n\
         comment (same line or the three lines above);\n\
         * while holding a lock, only locks with a *strictly higher*\n\
         tier may be acquired — an inversion is a lock-order cycle\n\
         waiting for its second thread;\n\
         * the observed acquisition graph must be acyclic;\n\
         * a held guard must not cross a blocking hazard — pool\n\
         dispatch (`spawn`), `catch_unwind`, a channel send/recv,\n\
         or file/TCP I/O — unless a `// LOCK OK:` comment justifies\n\
         it. Condvar waits are exempt: waiting releases the guard.\n\
         \n\
         The pass is heuristic (guard liveness is brace-scoped, call\n\
         resolution is by name with common std method names excluded)\n\
         and false-positive lean; the real serve/obs/pool graph is\n\
         pinned by unit tests.",
    },
    CodeRow {
        code: LintCode::Pvs014,
        name: "PVS014",
        severity: Severity::Error,
        summary: "counter registry: consumed-but-never-emitted (error) or emitted-but-undocumented (warning) recorder name",
        explain: "PVS014: the counter-name registry must stay closed.\n\
         \n\
         Recorder names (`serve.cache.hits`, `pool.tasks_executed`,\n\
         ...) form one namespace that emitters (engine, pool, serve),\n\
         consumers (pvs-analyze, the stats endpoint, tests), the\n\
         committed baselines, and the README counter table all join\n\
         on — and the join is stringly typed, so a renamed or\n\
         misspelled name fails silently as a zero. The fact base\n\
         collects every name literal written to a Recorder (including\n\
         `add_many` batches, `entries.push((..))`, `record_to` tuple\n\
         arrays, and `format!` templates, which match as wildcard\n\
         patterns) and every name read back (`.counter(\"..\")`,\n\
         `.gauge(\"..\")`). A name consumed by non-test code that no\n\
         emitter can produce is an error; a name emitted by library\n\
         code but absent from the README's counter table is a\n\
         warning. Names under the `test.` prefix and single-segment\n\
         names are out of scope.",
    },
    CodeRow {
        code: LintCode::Pvs015,
        name: "PVS015",
        severity: Severity::Error,
        summary: "schema registry: canonical version string spelled outside `pvs_core::schema`",
        explain: "PVS015: schema version strings come from `pvs_core::schema`.\n\
         \n\
         Every on-disk format in the workspace is versioned by a\n\
         leading schema identifier (`pvs-bench/profile-v2`,\n\
         `pvs-serve/spill-cell-v1`, ...). Writer and reader must\n\
         agree on the exact bytes, so each identifier has one canonical\n\
         spelling: a const in `pvs_core::schema`. Any other file that\n\
         spells a registered identifier as a string literal (exact\n\
         match, outside `#[cfg(test)]` regions) is one silent\n\
         version-bump away from writer/reader drift — reference the\n\
         const instead. Prose mentions in comments and doc strings\n\
         are fine; deliberately-unknown versions in tests\n\
         (`profile-v99`) never match.",
    },
];

impl LintCode {
    /// Every code, in numeric order.
    pub fn all() -> [LintCode; 11] {
        std::array::from_fn(|i| CODES[i].code)
    }

    fn row(&self) -> &'static CodeRow {
        &CODES[*self as usize]
    }

    /// The stable printed form ("PVS003").
    pub fn as_str(&self) -> &'static str {
        self.row().name
    }

    /// Parse a user-supplied code name (case-insensitive).
    pub fn parse(s: &str) -> Option<LintCode> {
        let upper = s.to_ascii_uppercase();
        CODES.iter().find(|r| r.name == upper).map(|r| r.code)
    }

    /// The default severity findings of this code carry.
    pub fn severity(&self) -> Severity {
        self.row().severity
    }

    /// One-line summary (the lint-code table row).
    pub fn summary(&self) -> &'static str {
        self.row().summary
    }

    /// The long-form `--explain` text: what the lint enforces and why the
    /// invariant exists in this repository.
    pub fn explain(&self) -> &'static str {
        self.row().explain
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: LintCode,
    /// Error or warning.
    pub severity: Severity,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number; 0 means the finding is file-scoped.
    pub line: usize,
    /// One-line description with the concrete evidence.
    pub message: String,
}

impl Diagnostic {
    /// Build a finding at the code's default severity.
    pub fn new(code: LintCode, file: impl Into<String>, line: usize, message: String) -> Self {
        Diagnostic {
            severity: code.severity(),
            code,
            file: file.into(),
            line,
            message,
        }
    }

    /// Build an advisory finding regardless of the code's default
    /// severity (PVS014's emitted-but-undocumented arm).
    pub fn warning(code: LintCode, file: impl Into<String>, line: usize, message: String) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::new(code, file, line, message)
        }
    }

    /// Stable single-line rendering: `file:line: severity[CODE]: message`
    /// (the `:line` span is omitted for file-scoped findings).
    pub fn render(&self) -> String {
        if self.line == 0 {
            format!("{}: {}[{}]: {}", self.file, self.severity, self.code, self.message)
        } else {
            format!(
                "{}:{}: {}[{}]: {}",
                self.file, self.line, self.severity, self.code, self.message
            )
        }
    }

    /// Rendering without the file path — the golden-fixture form, so
    /// goldens do not embed absolute paths.
    pub fn render_spanless(&self) -> String {
        format!(
            "{}: {}[{}]: {}",
            self.line, self.severity, self.code, self.message
        )
    }

    /// Machine-readable JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .string("code", self.code.as_str())
            .string("severity", &self.severity.to_string())
            .string("file", &self.file)
            .number("line", self.line as f64)
            .string("message", &self.message)
            .render()
    }
}

/// Sort diagnostics into the stable output order: file, then line, then
/// code, then message.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.code, &a.message).cmp(&(&b.file, b.line, b.code, &b.message))
    });
}

/// Render a full report (diagnostics plus counters) as one JSON object.
pub fn report_json(diags: &[Diagnostic], files_scanned: usize) -> String {
    let (errors, warnings) = count(diags);
    JsonObject::new()
        .number("files_scanned", files_scanned as f64)
        .number("errors", errors as f64)
        .number("warnings", warnings as f64)
        .raw("diagnostics", array(diags.iter().map(|d| d.to_json())))
        .render()
}

/// Count `(errors, warnings)`.
pub fn count(diags: &[Diagnostic]) -> (usize, usize) {
    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    (errors, diags.len() - errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip_and_explain() {
        for code in LintCode::all() {
            assert_eq!(LintCode::parse(code.as_str()), Some(code));
            assert_eq!(LintCode::parse(&code.as_str().to_lowercase()), Some(code));
            assert!(code.explain().starts_with(code.as_str()));
            assert!(!code.summary().is_empty());
        }
        for retired in ["PVS004", "PVS008", "PVS009", "PVS010", "PVS999"] {
            assert_eq!(LintCode::parse(retired), None, "{retired}");
        }
    }

    #[test]
    fn the_table_is_indexed_by_the_enum() {
        assert_eq!(LintCode::all().len(), 11);
        for (i, row) in CODES.iter().enumerate() {
            assert_eq!(row.code as usize, i, "{}", row.name);
            assert!(i == 0 || CODES[i - 1].name < row.name, "numeric order");
        }
    }

    #[test]
    fn rendering_is_stable() {
        let d = Diagnostic::new(
            LintCode::Pvs003,
            "crates/x/src/a.rs",
            12,
            "found `Instant`".to_string(),
        );
        assert_eq!(
            d.render(),
            "crates/x/src/a.rs:12: error[PVS003]: found `Instant`"
        );
        assert_eq!(d.render_spanless(), "12: error[PVS003]: found `Instant`");
        let file_scoped = Diagnostic::new(LintCode::Pvs003, "a.rs", 0, "m".to_string());
        assert_eq!(file_scoped.render(), "a.rs: error[PVS003]: m");
    }

    #[test]
    fn sort_is_total_and_stable() {
        let mut ds = vec![
            Diagnostic::new(LintCode::Pvs005, "b.rs", 1, "x".into()),
            Diagnostic::new(LintCode::Pvs003, "a.rs", 9, "x".into()),
            Diagnostic::new(LintCode::Pvs003, "a.rs", 2, "x".into()),
        ];
        sort_diagnostics(&mut ds);
        assert_eq!(
            ds.iter().map(|d| (d.file.clone(), d.line)).collect::<Vec<_>>(),
            vec![("a.rs".into(), 2), ("a.rs".into(), 9), ("b.rs".into(), 1)]
        );
    }

    #[test]
    fn json_shape() {
        let ds = vec![Diagnostic::new(LintCode::Pvs001, "Cargo.toml", 3, "rand".into())];
        let json = report_json(&ds, 10);
        assert!(json.contains("\"errors\":1"));
        assert!(json.contains("\"warnings\":0"));
        assert!(json.contains("\"code\":\"PVS001\""));
        assert!(json.contains("\"files_scanned\":10"));
    }
}
