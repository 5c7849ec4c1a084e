//! PVS011/PVS014/PVS015 — the counter-name grammar and registry, and
//! the schema-version registry.
//!
//! **PVS011** holds every name literal handed to a Recorder write to the
//! lowercase `snake.dotted` grammar the registry joins on; the sites are
//! the ones [`crate::facts`] already scans for PVS014.
//!
//! **PVS014** joins the emission and consumption sides of the
//! `pvs-obs` name-string contract across the whole workspace:
//!
//! * a name *consumed* (`.counter("..")` / `.gauge("..")`) that no
//!   Recorder write ever emits is an **error** — the reader will see a
//!   silent zero forever (the `serve.queue.peak` class of bug);
//! * a name *emitted* from library (non-test) code that the canonical
//!   documentation table does not list is a **warning** — undocumented
//!   telemetry bit-rots.
//!
//! `format!`-built names participate as `*` wildcard patterns
//! (`pool.worker.*.tasks`); documentation rows written with `<angle>`
//! placeholders normalize to the same wildcard form. Names under the
//! `test.` prefix are exempt on both sides.
//!
//! **PVS015** pins every canonical schema-version string (the
//! `pvs_core::schema` registry) to that one const module: an exact
//! literal spelling of a registered identifier anywhere else in
//! non-test code is an error, because the writer and readers can then
//! drift independently.

use crate::diag::{Diagnostic, LintCode};
use crate::facts::WorkspaceFacts;
use std::collections::BTreeSet;

/// The one file allowed to spell schema identifiers as literals.
const SCHEMA_HOME: &str = "crates/core/src/schema.rs";

/// PVS011: name literals at Recorder write sites must be lowercase
/// `snake.dotted` paths — the names are joined across the engine, the
/// committed baselines and the analysis layer, so a malformed literal
/// forks the namespace silently. Non-literal names (`format!`,
/// variables) are not checked.
pub fn check_counter_grammar(ws: &WorkspaceFacts) -> Vec<Diagnostic> {
    ws.files
        .iter()
        .flat_map(|f| f.malformed.iter())
        .map(|fact| {
            Diagnostic::new(
                LintCode::Pvs011,
                fact.file.clone(),
                fact.line,
                format!(
                    "counter name literal {:?} is not lowercase \
                     `snake.dotted` — recorder names must be two or more \
                     `[a-z0-9_]+` segments joined by dots",
                    fact.name
                ),
            )
        })
        .collect()
}

/// PVS014: consumed-but-never-emitted (error) and
/// emitted-but-undocumented (warning). `documented` is the canonical
/// name table (README rows plus any `// DOCUMENTED:` directives),
/// already normalized to wildcard form.
pub fn check_counters(ws: &WorkspaceFacts, documented: &BTreeSet<String>) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    let emitted_literal: BTreeSet<&str> = ws
        .files
        .iter()
        .flat_map(|f| f.emitted.iter())
        .filter(|n| !n.name.contains('*'))
        .map(|n| n.name.as_str())
        .collect();
    let emitted_patterns: Vec<&str> = ws
        .files
        .iter()
        .flat_map(|f| f.emitted.iter())
        .filter(|n| n.name.contains('*'))
        .map(|n| n.name.as_str())
        .collect();

    // Consumed side: every read must have a possible writer.
    for fact in ws.files.iter().flat_map(|f| f.consumed.iter()) {
        if fact.name.starts_with("test.") {
            continue;
        }
        let matched = emitted_literal.contains(fact.name.as_str())
            || emitted_patterns.iter().any(|p| glob_match(p, &fact.name));
        if !matched {
            out.push(Diagnostic::new(
                LintCode::Pvs014,
                fact.file.clone(),
                fact.line,
                format!(
                    "counter `{}` is consumed but never emitted by any Recorder \
                     write in the workspace — the reader sees a silent zero",
                    fact.name
                ),
            ));
        }
    }

    // Emitted side: every library write must be documented. One report
    // per name, at its first site.
    let mut reported: BTreeSet<&str> = BTreeSet::new();
    for fact in ws.files.iter().flat_map(|f| f.emitted.iter()) {
        if fact.in_test || fact.name.starts_with("test.") || reported.contains(fact.name.as_str())
        {
            continue;
        }
        let documented_here = documented.contains(&fact.name)
            || documented.iter().any(|d| glob_match(d, &fact.name));
        if !documented_here {
            reported.insert(fact.name.as_str());
            out.push(Diagnostic::warning(
                LintCode::Pvs014,
                fact.file.clone(),
                fact.line,
                format!(
                    "counter `{}` is emitted but not documented in the canonical \
                     counter table — add a row describing it",
                    fact.name
                ),
            ));
        }
    }
    out
}

/// PVS015: canonical schema identifiers spelled outside the registry.
pub fn check_schemas(ws: &WorkspaceFacts) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        if file.path.ends_with(SCHEMA_HOME) {
            continue;
        }
        for lit in &file.schema_lits {
            out.push(Diagnostic::new(
                LintCode::Pvs015,
                lit.file.clone(),
                lit.line,
                format!(
                    "schema version `{}` spelled as a literal — reference the \
                     `pvs_core::schema` const so writers and readers cannot drift",
                    lit.id
                ),
            ));
        }
    }
    out
}

/// Segment-wise glob: `*` matches one or more dotted segments, every
/// other segment must match exactly. Both sides match iff either
/// contains wildcards covering the other ("pattern" may itself be a
/// concrete name, in which case this is equality).
pub fn glob_match(pattern: &str, name: &str) -> bool {
    fn rec(pat: &[&str], name: &[&str]) -> bool {
        match (pat.first(), name.first()) {
            (None, None) => true,
            (Some(&"*"), Some(_)) => {
                // `*` eats one segment, then either stays or advances.
                rec(pat, &name[1..]) || rec(&pat[1..], &name[1..])
            }
            (Some(&p), Some(&n)) if p == n => rec(&pat[1..], &name[1..]),
            _ => false,
        }
    }
    let pat: Vec<&str> = pattern.split('.').collect();
    let segs: Vec<&str> = name.split('.').collect();
    rec(&pat, &segs)
}

/// Extract the canonical counter-name table from documentation text:
/// every backtick-quoted token whose `.`-separated segments are all
/// `[a-z0-9_]+` or `<placeholder>` (normalized to `*`), with at least
/// two segments.
pub fn documented_names(doc_text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for chunk in doc_text.split('`').skip(1).step_by(2) {
        let normalized: String = chunk
            .split('.')
            .map(|seg| {
                if seg.starts_with('<') && seg.ends_with('>') && seg.len() > 2 {
                    "*"
                } else {
                    seg
                }
            })
            .collect::<Vec<_>>()
            .join(".");
        if crate::facts::is_counter_name(&normalized, true) {
            out.insert(normalized);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::{FileFacts, WorkspaceFacts};

    fn ws(src: &str) -> WorkspaceFacts {
        WorkspaceFacts::build(vec![FileFacts::parse("fixture", "test.rs", src, false)])
    }

    #[test]
    fn glob_semantics() {
        assert!(glob_match("pool.worker.*.tasks", "pool.worker.3.tasks"));
        assert!(glob_match("chaos.*.mpisim.*", "chaos.drop_heavy.mpisim.drops"));
        assert!(glob_match("a.b", "a.b"));
        assert!(!glob_match("a.b", "a.b.c"));
        assert!(!glob_match("a.*.c", "a.c"));
        // a pattern matches a pattern with identical shape
        assert!(glob_match("pool.worker.*.tasks", "pool.worker.*.tasks"));
    }

    #[test]
    fn malformed_recorder_names_flagged() {
        let src = "r.add(\"flops\", 1);\n\
                   r.gauge_set(\"queueDepth\", 2);\n\
                   r.gauge_max( \"Engine.Phases\", 3);\n\
                   entries.push((\"engine..cycles\", 4));\n\
                   r.add_many(&[(\"ok.name\", 1), (\"bad name\", 2)]);\n";
        let d = check_counter_grammar(&ws(src));
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
        assert!(d.iter().all(|d| d.code == LintCode::Pvs011));
    }

    #[test]
    fn dotted_dynamic_and_non_recorder_names_are_fine() {
        let src = "r.add(\"engine.loop.flops\", 1);\n\
                   r.gauge_max(\"netsim.link.peak_bytes\", 2);\n\
                   entries.push((\"memsim.bank.stall_cycles\", 3));\n\
                   r.add_many(&[(\"vectorsim.strips\", 1), (\"pool.queue.depth\", 2)]);\n\
                   r.add(&format!(\"pool.worker.{i}.tasks\"), 1);\n\
                   r.add(name, 1);\n\
                   // r.add(\"BAD\", 1) would be wrong\n\
                   stack.push((\"Label\", 1));\n\
                   let v = other.add(2);\n";
        assert!(check_counter_grammar(&ws(src)).is_empty());
    }

    #[test]
    fn test_trees_are_out_of_scope_for_the_grammar() {
        let ff = FileFacts::parse("fixture", "tests/t.rs", "r.add(\"Odd\", 1);\n", true);
        assert!(check_counter_grammar(&WorkspaceFacts::build(vec![ff])).is_empty());
    }

    #[test]
    fn consumed_never_emitted_is_an_error() {
        let src = "fn lib(r: &Registry, snap: &Snapshot) {\n\
                   r.add(\"serve.hits\", 1);\n\
                   snap.counter(\"serve.hits\");\n\
                   snap.counter(\"serve.queue.peak\");\n\
                   snap.counter(\"test.only.name\");\n\
                   }\n";
        let d = check_counters(&ws(src), &documented_names("`serve.hits` `serve.queue.peak`"));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("serve.queue.peak"));
        assert!(d[0].message.contains("never emitted"));
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn wildcard_emission_satisfies_concrete_consumption() {
        let src = "fn lib(r: &Registry, snap: &Snapshot, i: usize) {\n\
                   r.add(&format!(\"pool.worker.{i}.tasks\"), 1);\n\
                   snap.counter(\"pool.worker.0.tasks\");\n\
                   }\n";
        let docs = documented_names("`pool.worker.<i>.tasks`");
        assert!(check_counters(&ws(src), &docs).is_empty());
    }

    #[test]
    fn undocumented_emission_is_a_warning_once() {
        let src = "fn lib(r: &Registry) {\n\
                   r.add(\"serve.undocumented\", 1);\n\
                   r.add(\"serve.undocumented\", 2);\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn t(r: &Registry) { r.add(\"only.in.tests\", 1); }\n\
                   }\n";
        let d = check_counters(&ws(src), &BTreeSet::new());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].severity, crate::diag::Severity::Warning);
        assert!(d[0].message.contains("serve.undocumented"));
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn schema_literal_outside_registry_is_an_error() {
        let src = "fn f() { let s = \"pvs-bench/profile-v2\"; }\n";
        let d = check_schemas(&ws(src));
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("pvs_core::schema"));
    }

    #[test]
    fn the_registry_file_itself_is_exempt() {
        let ff = FileFacts::parse(
            "pvs-core",
            "crates/core/src/schema.rs",
            "pub const PROFILE_V2: &str = \"pvs-bench/profile-v2\";\n",
            false,
        );
        assert!(check_schemas(&WorkspaceFacts::build(vec![ff])).is_empty());
    }

    #[test]
    fn documented_names_parses_tables_and_placeholders() {
        let docs = documented_names(
            "| `engine.phases` | phases |\n\
             | `pool.worker.<i>.tasks` | per-worker |\n\
             | `chaos.<scenario>.mpisim.<counter>` | fault stats |\n\
             not `a` single `segment` or `Capitalized.Name`\n",
        );
        assert!(docs.contains("engine.phases"));
        assert!(docs.contains("pool.worker.*.tasks"));
        assert!(docs.contains("chaos.*.mpisim.*"));
        assert_eq!(docs.len(), 3, "{docs:?}");
    }
}
