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
/// tier-1 `lint_clean` test); warnings are advisories (e.g. the
/// short-vector kernel note PVS010).
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

/// The stable lint-code namespace. Codes are never reused or renumbered;
/// retired lints keep their number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintCode {
    /// External dependency declared in a workspace manifest.
    Pvs001,
    /// `Cargo.lock` resolves a package from a registry source.
    Pvs002,
    /// Wall-clock time source outside the bench harness.
    Pvs003,
    /// `unsafe` without an adjacent `// SAFETY:` comment.
    Pvs004,
    /// Iteration over an unordered hash container.
    Pvs005,
    /// Floating-point accumulation over an unordered source.
    Pvs006,
    /// Blanket lint-suppression escape hatch.
    Pvs007,
    /// Kernel descriptor: static AVL prediction diverges from the
    /// dynamic model.
    Pvs008,
    /// Kernel descriptor: static VOR prediction diverges from the
    /// dynamic model.
    Pvs009,
    /// Kernel descriptor: predicted AVL below half the hardware vector
    /// length (short-vector advisory).
    Pvs010,
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

impl LintCode {
    /// Every code, in numeric order.
    pub fn all() -> [LintCode; 15] {
        [
            LintCode::Pvs001,
            LintCode::Pvs002,
            LintCode::Pvs003,
            LintCode::Pvs004,
            LintCode::Pvs005,
            LintCode::Pvs006,
            LintCode::Pvs007,
            LintCode::Pvs008,
            LintCode::Pvs009,
            LintCode::Pvs010,
            LintCode::Pvs011,
            LintCode::Pvs012,
            LintCode::Pvs013,
            LintCode::Pvs014,
            LintCode::Pvs015,
        ]
    }

    /// The stable printed form ("PVS003").
    pub fn as_str(&self) -> &'static str {
        match self {
            LintCode::Pvs001 => "PVS001",
            LintCode::Pvs002 => "PVS002",
            LintCode::Pvs003 => "PVS003",
            LintCode::Pvs004 => "PVS004",
            LintCode::Pvs005 => "PVS005",
            LintCode::Pvs006 => "PVS006",
            LintCode::Pvs007 => "PVS007",
            LintCode::Pvs008 => "PVS008",
            LintCode::Pvs009 => "PVS009",
            LintCode::Pvs010 => "PVS010",
            LintCode::Pvs011 => "PVS011",
            LintCode::Pvs012 => "PVS012",
            LintCode::Pvs013 => "PVS013",
            LintCode::Pvs014 => "PVS014",
            LintCode::Pvs015 => "PVS015",
        }
    }

    /// Parse a user-supplied code name (case-insensitive).
    pub fn parse(s: &str) -> Option<LintCode> {
        let upper = s.to_ascii_uppercase();
        LintCode::all().into_iter().find(|c| c.as_str() == upper)
    }

    /// The default severity findings of this code carry.
    pub fn severity(&self) -> Severity {
        match self {
            LintCode::Pvs010 => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// One-line summary (the lint-code table row).
    pub fn summary(&self) -> &'static str {
        match self {
            LintCode::Pvs001 => "external dependency declared in a workspace manifest",
            LintCode::Pvs002 => "Cargo.lock resolves a package from a registry source",
            LintCode::Pvs003 => "wall-clock time source outside the exempt bench/serve-edge surface",
            LintCode::Pvs004 => "`unsafe` without an adjacent `// SAFETY:` comment",
            LintCode::Pvs005 => "iteration over an unordered hash container",
            LintCode::Pvs006 => "floating-point accumulation over an unordered source",
            LintCode::Pvs007 => "blanket lint-suppression escape hatch",
            LintCode::Pvs008 => "kernel static AVL prediction diverges from the dynamic model",
            LintCode::Pvs009 => "kernel static VOR prediction diverges from the dynamic model",
            LintCode::Pvs010 => "kernel predicted AVL below half the hardware vector length",
            LintCode::Pvs011 => "recorder counter name literal is not lowercase `snake.dotted`",
            LintCode::Pvs012 => "`unwrap()`/`expect()` on a Result in simulator library code",
            LintCode::Pvs013 => "lock discipline: undeclared Mutex, order inversion/cycle, or guard held across a blocking hazard",
            LintCode::Pvs014 => "counter registry: consumed-but-never-emitted (error) or emitted-but-undocumented (warning) recorder name",
            LintCode::Pvs015 => "schema registry: canonical version string spelled outside `pvs_core::schema`",
        }
    }

    /// The long-form `--explain` text: what the lint enforces and why the
    /// invariant exists in this repository.
    pub fn explain(&self) -> &'static str {
        match self {
            LintCode::Pvs001 => {
                "PVS001: external dependency declared in a workspace manifest.\n\
                 \n\
                 The workspace must build with no network and no registry cache,\n\
                 so every dependency (normal, dev, or build) has to be an in-tree\n\
                 `pvs-*` path crate. Cargo resolves *declared* dependencies into\n\
                 Cargo.lock even when they are never compiled, so the only safe\n\
                 state is \"not declared at all\". This lint parses every\n\
                 dependency section of every manifest and flags any entry that is\n\
                 not a `pvs-*` path dependency, and any `pvs-*` entry pinned by a\n\
                 registry version instead of a path."
            }
            LintCode::Pvs002 => {
                "PVS002: Cargo.lock resolves a package from a registry source.\n\
                 \n\
                 A `source =` line in Cargo.lock means some package would be\n\
                 fetched from a registry or git remote at build time, breaking the\n\
                 offline build. The lockfile must contain only the workspace's own\n\
                 `pvs`/`pvs-*` path packages."
            }
            LintCode::Pvs003 => {
                "PVS003: wall-clock time source outside the exempt surface.\n\
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
                 pure functions of the request."
            }
            LintCode::Pvs004 => {
                "PVS004: `unsafe` without an adjacent `// SAFETY:` comment.\n\
                 \n\
                 The workspace is currently 100% safe Rust. If an `unsafe` block\n\
                 or function ever becomes necessary (e.g. a vectorized hot loop),\n\
                 the invariant it relies on must be written down in a `// SAFETY:`\n\
                 comment on the same line or within the three lines above, the\n\
                 same convention the standard library uses."
            }
            LintCode::Pvs005 => {
                "PVS005: iteration over an unordered hash container.\n\
                 \n\
                 `HashMap`/`HashSet` iteration order is randomized per process.\n\
                 Any such iteration that feeds rendered tables, figures, or\n\
                 report output breaks byte-identical regeneration. Iterate a\n\
                 `BTreeMap`/`BTreeSet`, or sort the keys first. The lint tracks\n\
                 bindings declared with a hash type in each file and flags\n\
                 `for .. in`, `.iter()`, `.keys()`, `.values()`, `.drain()`, and\n\
                 `.into_iter()` over them."
            }
            LintCode::Pvs006 => {
                "PVS006: floating-point accumulation over an unordered source.\n\
                 \n\
                 Float addition is not associative: accumulating (`+=`) inside a\n\
                 loop whose iteration order is nondeterministic — a channel\n\
                 receive loop (`.recv()`, `.try_iter()`) or a hash-container\n\
                 walk — produces run-to-run different low bits, which the\n\
                 byte-identical sweep guarantee (tests/parallel_sweep.rs) will\n\
                 eventually catch far from the cause. Collect into a Vec in a\n\
                 deterministic order (e.g. indexed by worker id) and reduce\n\
                 serially, as `pvs_core::pool::ThreadPool::map` does."
            }
            LintCode::Pvs007 => {
                "PVS007: blanket lint-suppression escape hatch.\n\
                 \n\
                 `cargo build --release` is warning-clean and must stay that way\n\
                 honestly: a broad `#[allow(..)]`/`#[expect(..)]` of `warnings`,\n\
                 `unused`, `dead_code`, or `clippy::all`-style groups hides real\n\
                 defects wholesale. Narrow, named allows (e.g.\n\
                 `clippy::needless_range_loop` in index-heavy kernels) remain\n\
                 fine; whole-category suppression is not."
            }
            LintCode::Pvs008 => {
                "PVS008: kernel static AVL prediction diverges from the dynamic model.\n\
                 \n\
                 Every registered kernel descriptor carries enough static\n\
                 information to predict its average vector length from\n\
                 strip-mining arithmetic alone, the way the ES and X1 compiler\n\
                 listing files did. The dynamic pipeline model must agree within\n\
                 5% (the paper's listing-vs-hardware-counter cross-check). A\n\
                 divergence means a descriptor mis-declares its loop, or the\n\
                 static and dynamic derivations drifted apart."
            }
            LintCode::Pvs009 => {
                "PVS009: kernel static VOR prediction diverges from the dynamic model.\n\
                 \n\
                 A vectorizable descriptor predicts a vector operation ratio of\n\
                 1.0; a scalar one 0.0. The dynamic model's operation accounting\n\
                 must reproduce that within 5 percentage points. See PVS008 for\n\
                 the rationale."
            }
            LintCode::Pvs010 => {
                "PVS010: kernel predicted AVL below half the hardware vector length\n\
                 (warning).\n\
                 \n\
                 Short vector lengths cannot amortize instruction startup: the\n\
                 paper's Cactus discussion shows an 80-point x-dimension costing\n\
                 the ES most of its advantage (AVL ~80 of 256). This advisory\n\
                 marks registered kernels whose predicted AVL is under max_vl/2 so\n\
                 the workload shape (or the descriptor) gets a second look. It\n\
                 never fails the build."
            }
            LintCode::Pvs011 => {
                "PVS011: recorder counter name literal is not lowercase `snake.dotted`.\n\
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
                 built names (`format!`) are not checked."
            }
            LintCode::Pvs012 => {
                "PVS012: `unwrap()`/`expect()` on a Result in simulator library code.\n\
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
                 `parse()`, ...), so it cannot misfire on Option accessors."
            }
            LintCode::Pvs013 => {
                "PVS013: lock discipline across the workspace's Mutex population.\n\
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
                 pinned by unit tests."
            }
            LintCode::Pvs014 => {
                "PVS014: the counter-name registry must stay closed.\n\
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
                 names are out of scope."
            }
            LintCode::Pvs015 => {
                "PVS015: schema version strings come from `pvs_core::schema`.\n\
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
                 (`profile-v99`) never match."
            }
        }
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
    /// Repo-relative path of the offending file (or registry provenance
    /// for model lints).
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
            code,
            file: file.into(),
            line,
            message,
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
pub fn report_json(diags: &[Diagnostic], files_scanned: usize, kernels_checked: usize) -> String {
    let (errors, warnings) = count(diags);
    JsonObject::new()
        .number("files_scanned", files_scanned as f64)
        .number("kernels_checked", kernels_checked as f64)
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
        assert_eq!(LintCode::parse("PVS999"), None);
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
        let file_scoped = Diagnostic::new(LintCode::Pvs008, "reg", 0, "m".to_string());
        assert_eq!(file_scoped.render(), "reg: error[PVS008]: m");
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
        let json = report_json(&ds, 10, 4);
        assert!(json.contains("\"errors\":1"));
        assert!(json.contains("\"warnings\":0"));
        assert!(json.contains("\"code\":\"PVS001\""));
        assert!(json.contains("\"files_scanned\":10"));
    }

    #[test]
    fn only_pvs010_is_a_warning() {
        for code in LintCode::all() {
            let expect = if code == LintCode::Pvs010 {
                Severity::Warning
            } else {
                Severity::Error
            };
            assert_eq!(code.severity(), expect, "{code}");
        }
    }
}
