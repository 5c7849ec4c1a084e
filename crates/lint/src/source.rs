//! Invariant lints over scanned source files (PVS003, PVS005–PVS007,
//! PVS012).
//!
//! Each pass is a heuristic over the comment/string-stripped code channel
//! of [`crate::scan`], tuned to this workspace's idiom and pinned by the
//! golden fixtures in `fixtures/`. False-negative-averse, false-positive
//! lean: when a pass cannot decide statically it stays silent, because a
//! lint that cries wolf gets `allow`ed — and PVS007 exists precisely to
//! keep that from happening wholesale.

use crate::diag::{Diagnostic, LintCode};
use crate::scan::{has_word, scan_source, ScannedLine};

/// Where a source file came from, for pass gating and spans.
#[derive(Debug, Clone, Copy)]
pub struct SourceContext<'a> {
    /// Crate the file belongs to ("core", "bench", …; "pvs" for the
    /// facade crate's own `src/`).
    pub crate_name: &'a str,
    /// Repo-relative path used in diagnostics.
    pub path: &'a str,
}

/// Run every source pass over one file.
pub fn check_source(ctx: SourceContext<'_>, text: &str) -> Vec<Diagnostic> {
    let lines = scan_source(text);
    let mut out = Vec::new();
    pass_time_sources(&ctx, &lines, &mut out);
    pass_hash_containers(&ctx, &lines, &mut out);
    pass_unordered_accumulation(&ctx, &lines, &mut out);
    pass_allow_escape_hatches(&ctx, &lines, &mut out);
    pass_result_unwraps(&ctx, &lines, &mut out);
    out
}

/// Where PVS003 permits host wall-clock access. The exemption is scoped
/// as tightly as the architecture allows:
///
/// * crate `bench` — the harness exists to time the host;
/// * `crates/serve/src/server.rs` — the serving layer's process edge,
///   where idle timeouts and service-time accounting are host concerns
///   by definition. The rest of `pvs-serve` (key canonicalization,
///   cache, single-flight batching) stays clock-free and enforced, so
///   cached responses remain pure functions of the request.
const WALL_CLOCK_EXEMPT_PATHS: [&str; 1] = ["crates/serve/src/server.rs"];

fn wall_clock_exempt(ctx: &SourceContext<'_>) -> bool {
    ctx.crate_name == "bench" || WALL_CLOCK_EXEMPT_PATHS.contains(&ctx.path)
}

/// PVS003: wall-clock time sources outside the exempt surface (see
/// [`WALL_CLOCK_EXEMPT_PATHS`]). The bench harness times the *host*;
/// everything else models machines and must be a pure function of its
/// inputs.
fn pass_time_sources(ctx: &SourceContext<'_>, lines: &[ScannedLine], out: &mut Vec<Diagnostic>) {
    if wall_clock_exempt(ctx) {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        for token in ["Instant", "SystemTime"] {
            if has_word(&line.code, token) {
                out.push(Diagnostic::new(
                    LintCode::Pvs003,
                    ctx.path,
                    idx + 1,
                    format!(
                        "`{token}` used outside the wall-clock-exempt surface \
                         (pvs-bench, the serve server edge) — model and application \
                         code must be wall-clock free for byte-identical output"
                    ),
                ));
            }
        }
        // Whole-module or glob imports would hide `time::Instant` from
        // the word checks above. `std::time::Duration` (a pure value
        // type) stays legal everywhere.
        let hides_clock = line.code.contains("std::time::*")
            || line.code.contains("use std::time;")
            || line.code.contains("use core::time;");
        if hides_clock
            && !has_word(&line.code, "Instant")
            && !has_word(&line.code, "SystemTime")
        {
            out.push(Diagnostic::new(
                LintCode::Pvs003,
                ctx.path,
                idx + 1,
                "`std::time` imported wholesale outside the wall-clock-exempt \
                 surface — import the specific items needed (`Duration` is \
                 fine; clock types are not)"
                    .to_string(),
            ));
        }
    }
}

/// PVS005: `HashMap`/`HashSet` named in model or library source. Hash
/// iteration order is randomized per process; anything a walk feeds —
/// rendered tables, figures, accumulated floats — loses byte-identical
/// reproducibility, and whether a container is ever walked (through a
/// struct field, a parameter, a call three frames away) is not decidable
/// from line text. So the rule is on the type name, which is.
fn pass_hash_containers(ctx: &SourceContext<'_>, lines: &[ScannedLine], out: &mut Vec<Diagnostic>) {
    for (idx, line) in lines.iter().enumerate() {
        for token in ["HashMap", "HashSet"] {
            if has_word(&line.code, token) {
                out.push(Diagnostic::new(
                    LintCode::Pvs005,
                    ctx.path,
                    idx + 1,
                    format!(
                        "`{token}` named in model/library source — hash iteration \
                         order is per-process random; use a BTree container or a \
                         sorted Vec"
                    ),
                ));
            }
        }
    }
}

/// The unordered-source loop headers PVS006 tracks: channel receives
/// (the other unordered source, a hash-container walk, is PVS005's).
fn is_unordered_loop_header(code: &str) -> bool {
    let channel_source = [".recv()", ".try_recv()", ".try_iter()", ".recv_timeout("]
        .iter()
        .any(|m| code.contains(m));
    let for_loop = has_word(code, "for") && has_word(code, "in");
    let while_let = code.contains("while let");
    (for_loop || while_let) && channel_source
}

/// PVS006: floating-point accumulation inside a loop whose iteration
/// order is nondeterministic. Float addition is not associative, so the
/// sum's low bits differ run to run — exactly what the byte-identical
/// sweep guarantee forbids. Tracks brace depth to know when the loop
/// body ends.
fn pass_unordered_accumulation(
    ctx: &SourceContext<'_>,
    lines: &[ScannedLine],
    out: &mut Vec<Diagnostic>,
) {
    let mut depth: i64 = 0;
    let mut regions: Vec<i64> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        let header = is_unordered_loop_header(code);
        let entry_depth = depth;
        depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
        if header && depth > entry_depth {
            regions.push(entry_depth);
        } else if !regions.is_empty()
            && (code.contains("+=") || code.contains("-=") || code.contains("*="))
        {
            out.push(Diagnostic::new(
                LintCode::Pvs006,
                ctx.path,
                idx + 1,
                "compound accumulation inside an unordered-iteration loop — \
                 float reduction order is nondeterministic; collect in a \
                 deterministic order and reduce serially"
                    .to_string(),
            ));
        }
        regions.retain(|&entry| depth > entry);
    }
}

/// Lint categories too broad to `allow`/`expect`: suppressing one of
/// these hides whole defect classes rather than one named false positive.
const BANNED_SUPPRESSIONS: [&str; 10] = [
    "warnings",
    "unused",
    "dead_code",
    "unused_variables",
    "unused_imports",
    "unused_mut",
    "unreachable_code",
    "clippy::all",
    "clippy::correctness",
    "clippy::suspicious",
];

/// PVS007: blanket lint-suppression escape hatches. The workspace builds
/// warning-clean; broad `allow(..)` categories would let that rot
/// silently. Narrow, named allows stay legal. Any attribute line counts
/// (`#![cfg_attr(test, allow(warnings))]` suppresses as much as the bare
/// form); a `.expect(..)` method call on one does not.
fn pass_allow_escape_hatches(
    ctx: &SourceContext<'_>,
    lines: &[ScannedLine],
    out: &mut Vec<Diagnostic>,
) {
    for (idx, line) in lines.iter().enumerate() {
        let Some(attr) = ["#[", "#!["].iter().filter_map(|m| line.code.find(m)).min() else {
            continue;
        };
        let code = &line.code[attr..];
        let calls = ["allow(", "expect("]
            .into_iter()
            .flat_map(|m| code.match_indices(m).map(move |(pos, _)| (pos, pos + m.len())));
        for (pos, open) in calls {
            // `.expect(` is a method call and `disallow(` another word
            // (`code` opens with `#[`, so `pos >= 2`).
            let prev = code.as_bytes()[pos - 1];
            if prev == b'.' || prev == b'_' || prev.is_ascii_alphanumeric() {
                continue;
            }
            let inner = code[open..].split(')').next().unwrap_or_default();
            for item in inner.split(',').map(str::trim) {
                if BANNED_SUPPRESSIONS.contains(&item) {
                    out.push(Diagnostic::new(
                        LintCode::Pvs007,
                        ctx.path,
                        idx + 1,
                        format!(
                            "blanket suppression `{item}` — the workspace must stay \
                             warning-clean without category-wide escape hatches \
                             (narrow, named lint allows are fine)"
                        ),
                    ));
                }
            }
        }
    }
}

/// The crates whose library code PVS012 covers: the simulators the
/// fault-injection layer drives into degraded states (plus "fixture",
/// the crate name the golden-fixture driver scans under). Application
/// and harness crates stay out of scope — their errors are programmer
/// bugs, not modelled faults.
const PVS012_CRATES: [&str; 8] = [
    "core", "memsim", "netsim", "vectorsim", "mpisim", "obs", "fault", "fixture",
];

/// Call suffixes that produce a `Result` in this std-only workspace.
/// PVS012 fires only when the `unwrap`/`expect` chain ends in one of
/// these, so Option accessors (`first()`, `get()`, `max_by()`, ...)
/// can never trip it.
const RESULT_MARKERS: [&str; 13] = [
    ".lock()",
    ".read()",
    ".write()",
    ".join()",
    ".wait(",
    ".recv()",
    ".try_recv()",
    ".recv_timeout(",
    ".send(",
    ".spawn(",
    ".parse()",
    ".parse::<",
    "from_utf8(",
];

/// How many lines above an `unwrap`/`expect` a `// INFALLIBLE:`
/// justification may sit.
const INFALLIBLE_COMMENT_WINDOW: usize = 3;

/// PVS012: `unwrap()`/`expect()` on a Result in simulator library code.
/// The fault layer makes simulator errors *inputs*, so panicking on one
/// turns a modelled fault into a process abort. Test modules are exempt
/// (`#[cfg(test)]` to end of file — the workspace keeps tests last);
/// `// INFALLIBLE:` justifies a genuinely unreachable error path. The
/// chain may continue across lines: a line starting with `.` extends
/// the two lines above it.
fn pass_result_unwraps(ctx: &SourceContext<'_>, lines: &[ScannedLine], out: &mut Vec<Diagnostic>) {
    if !PVS012_CRATES.contains(&ctx.crate_name) {
        return;
    }
    let cutoff = lines
        .iter()
        .position(|l| l.code.contains("#[cfg(test)]"))
        .unwrap_or(lines.len());
    for (idx, line) in lines.iter().enumerate().take(cutoff) {
        let code = &line.code;
        if !code.contains(".unwrap()") && !code.contains(".expect(") {
            continue;
        }
        // The statement window: this line, plus — when the line is a
        // method-chain continuation — the lines back to the end of the
        // previous statement (a multi-line struct-literal argument keeps
        // `.send(..)` far above its `.expect(..)`), bounded to stay local.
        let mut window_start = idx;
        if code.trim_start().starts_with('.') {
            for back in 1..=8 {
                let Some(prev_idx) = idx.checked_sub(back) else {
                    break;
                };
                window_start = prev_idx;
                let prev = lines[prev_idx].code.trim();
                if prev.ends_with(';') || prev.ends_with('}') {
                    break;
                }
            }
        }
        let marker = lines[window_start..=idx]
            .iter()
            .find_map(|l| RESULT_MARKERS.iter().find(|m| l.code.contains(**m)));
        let Some(marker) = marker else {
            continue;
        };
        let justified = lines[idx.saturating_sub(INFALLIBLE_COMMENT_WINDOW)..=idx]
            .iter()
            .any(|l| l.comment.contains("INFALLIBLE:"));
        if !justified {
            out.push(Diagnostic::new(
                LintCode::Pvs012,
                ctx.path,
                idx + 1,
                format!(
                    "`unwrap`/`expect` on the Result of `{}` in simulator \
                     library code — handle the error (faults make it \
                     reachable) or justify with `// INFALLIBLE:`",
                    marker.trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '_'),
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(crate_name: &str, src: &str) -> Vec<Diagnostic> {
        check_source(
            SourceContext {
                crate_name,
                path: "test.rs",
            },
            src,
        )
    }

    fn codes(diags: &[Diagnostic]) -> Vec<(&'static str, usize)> {
        diags.iter().map(|d| (d.code.as_str(), d.line)).collect()
    }

    #[test]
    fn time_sources_flagged_outside_bench_only() {
        let src = "use std::time::Instant;\nlet t = Instant::now();\n";
        assert_eq!(
            codes(&check("core", src)),
            vec![("PVS003", 1), ("PVS003", 2)]
        );
        assert!(check("bench", src).is_empty());
    }

    #[test]
    fn serve_wall_clock_exemption_is_path_scoped() {
        let src = "use std::time::Instant;\nlet t = Instant::now();\n";
        let at = |path| {
            check_source(
                SourceContext {
                    crate_name: "serve",
                    path,
                },
                src,
            )
        };
        // Only the server edge may read the host clock...
        assert!(at("crates/serve/src/server.rs").is_empty());
        // ...the rest of the serve crate stays enforced clock-free.
        for path in [
            "crates/serve/src/lib.rs",
            "crates/serve/src/cache.rs",
            "crates/serve/src/workload.rs",
        ] {
            assert_eq!(
                codes(&at(path)),
                vec![("PVS003", 1), ("PVS003", 2)],
                "{path} must not be exempt"
            );
        }
    }

    #[test]
    fn time_in_comments_and_strings_is_fine() {
        let src = "// Instant::now() would be wrong here\nlet s = \"SystemTime\";\n";
        assert!(check("core", src).is_empty());
    }

    #[test]
    fn duration_is_legal_but_module_imports_are_not() {
        let src = "std::thread::sleep(std::time::Duration::from_millis(2));\n";
        assert!(check("core", src).is_empty());
        assert_eq!(codes(&check("core", "use std::time::*;\n")), vec![("PVS003", 1)]);
        assert_eq!(codes(&check("core", "use std::time;\n")), vec![("PVS003", 1)]);
    }

    #[test]
    fn hash_containers_flagged_wherever_they_are_named() {
        // The struct-field and parameter walks a binding tracker cannot
        // see: the type name is on a line either way.
        let field = "struct S { m: std::collections::HashMap<u32, f64> }\n\
                     impl S { fn t(&self) -> f64 { let mut t = 0.0; for (_, v) in self.m.iter() { t += v; } t } }\n";
        assert_eq!(codes(&check("report", field)), vec![("PVS005", 1)]);
        let param = "fn total(m: &HashMap<u32, f64>) -> f64 {\n    m.values().sum()\n}\n";
        assert_eq!(codes(&check("report", param)), vec![("PVS005", 1)]);
        let set = "let set: std::collections::HashSet<_> = xs.iter().collect();\n";
        assert_eq!(codes(&check("paratec", set)), vec![("PVS005", 1)]);
        let sorted = "let m = std::collections::BTreeMap::new();\nfor (k, v) in m.iter() {}\n";
        assert!(check("report", sorted).is_empty());
        let prose = "// a HashMap would be wrong here\nlet s = \"HashSet\";\nstruct MyHashMap;\n";
        assert!(check("report", prose).is_empty());
    }

    #[test]
    fn accumulation_over_channel_flagged() {
        let src = "let mut sum = 0.0;\n\
                   while let Ok(x) = rx.try_recv() {\n\
                       sum += x;\n\
                   }\n\
                   total(sum);\n";
        assert_eq!(codes(&check("core", src)), vec![("PVS006", 3)]);
    }

    #[test]
    fn accumulation_in_ordered_loop_is_fine() {
        let src = "let mut sum = 0.0;\nfor x in results.iter() {\n    sum += x;\n}\n";
        assert!(check("core", src).is_empty());
    }

    #[test]
    fn blanket_allow_flagged_narrow_allow_fine() {
        let src = "#![allow(dead_code)]\n#[allow(clippy::needless_range_loop)]\nfn f() {}\n";
        assert_eq!(codes(&check("gtc", src)), vec![("PVS007", 1)]);
        let expect = "#[expect(unused)]\nfn g() {}\n";
        assert_eq!(codes(&check("gtc", expect)), vec![("PVS007", 1)]);
        let nested = "#![cfg_attr(test, allow(warnings))]\n\
                      #[cfg_attr(feature = \"x\", allow(dead_code, unused))]\nfn h() {}\n";
        assert_eq!(
            codes(&check("gtc", nested)),
            vec![("PVS007", 1), ("PVS007", 2), ("PVS007", 2)]
        );
    }

    #[test]
    fn method_expect_is_not_an_attribute() {
        let src = "let v = map.get(&k).expect(\"present\");\n\
                   #[test] fn t() { r.expect(warnings); disallow(unused); }\n";
        assert!(check("core", src).is_empty());
    }

    #[test]
    fn result_unwraps_flagged_in_simulator_crates_only() {
        let src = "let q = shared.lock().unwrap();\n";
        assert_eq!(codes(&check("core", src)), vec![("PVS012", 1)]);
        assert_eq!(codes(&check("mpisim", src)), vec![("PVS012", 1)]);
        assert!(check("bench", src).is_empty());
        assert!(check("lbmhd", src).is_empty());
    }

    #[test]
    fn result_unwrap_chain_continuations_are_tracked() {
        let src = "self.senders[dst]\n\
                   .send(pkt)\n\
                   .expect(\"receiver alive\");\n";
        assert_eq!(codes(&check("mpisim", src)), vec![("PVS012", 3)]);
    }

    #[test]
    fn option_unwraps_are_out_of_scope() {
        let src = "let x = v.first().expect(\"nonempty\");\n\
                   let y = m.get(&k).unwrap();\n\
                   let (xd, yd) = self.torus_dims.expect(\"torus dims\");\n";
        assert!(check("netsim", src).is_empty());
    }

    #[test]
    fn infallible_comment_and_test_modules_are_exempt() {
        let justified = "// INFALLIBLE: poisoning needs a panicked holder\n\
                         let q = shared.lock().expect(\"pool lock\");\n";
        assert!(check("core", justified).is_empty());
        let in_tests = "fn lib() {}\n\
                        #[cfg(test)]\n\
                        mod tests {\n\
                            fn t() { tx.send(1).unwrap(); }\n\
                        }\n";
        assert!(check("core", in_tests).is_empty());
        let before_tests = "fn lib() { tx.send(1).unwrap(); }\n\
                            #[cfg(test)]\n\
                            mod tests {}\n";
        assert_eq!(codes(&check("core", before_tests)), vec![("PVS012", 1)]);
    }
}
