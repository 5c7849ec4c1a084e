//! PVS013 — lock discipline over the workspace fact base.
//!
//! Three rules, all driven by [`crate::facts::WorkspaceFacts`]:
//!
//! 1. **Declaration**: every `Mutex` field or binding must carry a
//!    `// LOCK ORDER: <tier>` annotation. The annotation is the
//!    contract reviewers check hand-written lock code against; an
//!    unannotated lock has no place in the order and cannot be
//!    validated.
//! 2. **Order**: while a guard is held, only locks with a *strictly
//!    higher* tier may be acquired (directly or through any function
//!    the held region calls, resolved transitively). Equal tiers are
//!    inversions too: two same-tier locks taken in both orders deadlock
//!    just as surely. Independently of tiers, any cycle in the observed
//!    acquisition graph is reported — this catches deadlocks even when
//!    annotations are missing.
//! 3. **Hazards**: a guard held across a blocking operation (pool or
//!    thread dispatch, `catch_unwind`, channel send/receive, stream or
//!    filesystem I/O) serializes unrelated work behind the lock and is
//!    an error unless a `// LOCK OK:` comment within three lines
//!    justifies it.

use crate::diag::{Diagnostic, LintCode};
use crate::facts::WorkspaceFacts;
use std::collections::{BTreeMap, BTreeSet};

/// Run the PVS013 rules over a built fact base.
pub fn check(ws: &WorkspaceFacts) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Rule 1: every lock is declared into the order.
    for lock in &ws.locks {
        if lock.tier.is_none() {
            out.push(Diagnostic::new(
                LintCode::Pvs013,
                lock.file.clone(),
                lock.line,
                format!(
                    "Mutex `{}` has no `// LOCK ORDER: <tier>` annotation; every lock \
                     must declare its place in the acquisition order",
                    lock.name
                ),
            ));
        }
    }

    let tiers: BTreeMap<&str, u32> = ws
        .locks
        .iter()
        .filter_map(|l| l.tier.map(|t| (l.id.as_str(), t)))
        .collect();

    // Rule 2a: tier monotonicity on every observed edge.
    for edge in &ws.edges {
        if edge.holder == edge.acquired {
            out.push(Diagnostic::new(
                LintCode::Pvs013,
                edge.file.clone(),
                edge.line,
                format!(
                    "lock `{}` re-acquired while already held — std::sync::Mutex is \
                     not reentrant, this self-deadlocks",
                    edge.holder
                ),
            ));
            continue;
        }
        let (Some(&hold), Some(&acq)) =
            (tiers.get(edge.holder.as_str()), tiers.get(edge.acquired.as_str()))
        else {
            continue; // missing tiers already reported by rule 1
        };
        if acq <= hold {
            out.push(Diagnostic::new(
                LintCode::Pvs013,
                edge.file.clone(),
                edge.line,
                format!(
                    "lock order inversion: `{}` (tier {acq}) acquired while holding \
                     `{}` (tier {hold}); acquisition tiers must strictly increase",
                    edge.acquired, edge.holder
                ),
            ));
        }
    }

    // Rule 2b: cycles in the observed graph (tier-independent).
    for cycle in find_cycles(ws) {
        let next = &cycle[1 % cycle.len()];
        let (file, line) = ws
            .edges
            .iter()
            .find(|e| e.holder == cycle[0] && e.acquired == *next)
            .map(|e| (e.file.clone(), e.line))
            .unwrap_or_default();
        out.push(Diagnostic::new(
            LintCode::Pvs013,
            file,
            line,
            format!(
                "acquisition-order cycle: {} -> {} — concurrent callers taking these \
                 locks in opposite orders deadlock",
                cycle.join(" -> "),
                cycle[0]
            ),
        ));
    }

    // Rule 3: guards held across blocking hazards.
    for site in &ws.hazard_sites {
        if site.justified {
            continue;
        }
        out.push(Diagnostic::new(
            LintCode::Pvs013,
            site.file.clone(),
            site.line,
            format!(
                "guard on `{}` held across {} — release the lock first, or justify \
                 with a `// LOCK OK:` comment",
                site.holders.join("`, `"),
                site.what
            ),
        ));
    }
    out
}

/// Elementary cycles in the dedup edge graph, canonicalized (rotated to
/// start at the lexicographically smallest node) so each cycle is
/// reported once regardless of discovery order.
fn find_cycles(ws: &WorkspaceFacts) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for e in &ws.edges {
        if e.holder != e.acquired {
            adj.entry(e.holder.as_str()).or_default().push(e.acquired.as_str());
        }
    }
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    let starts: Vec<&str> = adj.keys().copied().collect();
    for start in starts {
        let mut path = vec![start];
        dfs(start, &adj, &mut path, &mut seen);
    }
    seen.into_iter().collect()
}

fn dfs<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    path: &mut Vec<&'a str>,
    seen: &mut BTreeSet<Vec<String>>,
) {
    let Some(nexts) = adj.get(node) else { return };
    for &next in nexts {
        if let Some(pos) = path.iter().position(|&n| n == next) {
            let cycle = &path[pos..];
            let min = cycle
                .iter()
                .enumerate()
                .min_by_key(|(_, n)| **n)
                .map(|(i, _)| i)
                .unwrap_or(0);
            let canon: Vec<String> = (0..cycle.len())
                .map(|i| cycle[(min + i) % cycle.len()].to_string())
                .collect();
            seen.insert(canon);
        } else if path.len() < 16 {
            path.push(next);
            dfs(next, adj, path, seen);
            path.pop();
        }
    }
}

/// The observed lock-order graph as sorted `holder -> acquired` pairs,
/// for the tests that pin the real workspace's graph.
#[cfg(test)]
pub(crate) fn lock_graph(ws: &WorkspaceFacts) -> Vec<(String, String)> {
    let mut pairs: Vec<(String, String)> = ws
        .edges
        .iter()
        .map(|e| (e.holder.clone(), e.acquired.clone()))
        .collect();
    pairs.sort();
    pairs.dedup();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::{FileFacts, WorkspaceFacts};

    fn ws(src: &str) -> WorkspaceFacts {
        WorkspaceFacts::build(vec![FileFacts::parse("fixture", "test.rs", src, false)])
    }

    #[test]
    fn missing_tier_is_reported() {
        let d = check(&ws("struct S { a: Mutex<u32> }\n"));
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("LOCK ORDER"));
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn correct_nesting_is_clean() {
        let src = "struct S {\n\
                   // LOCK ORDER: 10\n\
                   a: Mutex<u32>,\n\
                   // LOCK ORDER: 20\n\
                   b: Mutex<u32>,\n\
                   }\n\
                   fn f(s: &S) {\n\
                   let a = s.a.lock().unwrap();\n\
                   let b = s.b.lock().unwrap();\n\
                   }\n";
        assert!(check(&ws(src)).is_empty());
    }

    #[test]
    fn inversion_and_cycle_are_reported() {
        let src = "struct S {\n\
                   // LOCK ORDER: 10\n\
                   a: Mutex<u32>,\n\
                   // LOCK ORDER: 20\n\
                   b: Mutex<u32>,\n\
                   }\n\
                   fn fwd(s: &S) {\n\
                   let a = s.a.lock().unwrap();\n\
                   let b = s.b.lock().unwrap();\n\
                   }\n\
                   fn rev(s: &S) {\n\
                   let b = s.b.lock().unwrap();\n\
                   let a = s.a.lock().unwrap();\n\
                   }\n";
        let d = check(&ws(src));
        let msgs: Vec<&str> = d.iter().map(|d| d.message.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("inversion")),
            "{msgs:?}"
        );
        assert!(msgs.iter().any(|m| m.contains("cycle")), "{msgs:?}");
    }

    #[test]
    fn reentrant_acquisition_is_reported() {
        let src = "struct S {\n\
                   // LOCK ORDER: 10\n\
                   a: Mutex<u32>,\n\
                   }\n\
                   fn f(s: &S) {\n\
                   let g = s.a.lock().unwrap();\n\
                   let h = s.a.lock().unwrap();\n\
                   }\n";
        let d = check(&ws(src));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("not reentrant"));
    }

    #[test]
    fn graph_is_sorted_and_deduped() {
        let src = "struct S {\n\
                   // LOCK ORDER: 10\n\
                   a: Mutex<u32>,\n\
                   // LOCK ORDER: 20\n\
                   b: Mutex<u32>,\n\
                   }\n\
                   fn f(s: &S) {\n\
                   let a = s.a.lock().unwrap();\n\
                   let b = s.b.lock().unwrap();\n\
                   }\n\
                   fn g(s: &S) {\n\
                   let a = s.a.lock().unwrap();\n\
                   let b = s.b.lock().unwrap();\n\
                   }\n";
        assert_eq!(
            lock_graph(&ws(src)),
            vec![("fixture.a".to_string(), "fixture.b".to_string())]
        );
    }
}
