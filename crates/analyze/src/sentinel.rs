//! The baseline gate: two profile documents agree when they are equal.
//!
//! `pvs compare <old.json> <new.json>` walks the two parsed documents
//! member by member. Everything a writer emitted is compared — `schema`,
//! `harness`, and every member of every cell, the cells joined on `(app, config, machine, procs)` — except the host notes
//! named in [`UNGATED`] and [`UNGATED_CELL`]. The lists name what is
//! *not* compared, so a member a later writer adds is gated by default.
//!
//! The simulators are deterministic and every gated member is a pure
//! function of the cell identity (or, in `harness`, of the seeded fault
//! plan), so there is no tolerance and no direction: a model time that
//! went *down* is as much a changed model as one that went up, and a
//! cell present on one side only is a difference. Host wall-clock is
//! machine-specific noise, lives only in the ungated members, and is
//! gated by `benchmark/`.
//!
//! Each side passes [`check_profile_doc`] first: the gate is the only
//! reader of a profile document, since the analysis reads runs.

use pvs_core::json::{number, Value};

/// Top-level members that are host notes, never compared: the worker
/// count a run happened to use, its host-sample bookkeeping, and
/// `serve_load`'s latency aggregates and final server snapshot.
pub const UNGATED: [&str; 5] = [
    "sweep_threads",
    "host_samples_per_cell",
    "host_median_sum_s",
    "load",
    "server",
];

/// Per-cell members that are host notes, never compared.
pub const UNGATED_CELL: [&str; 1] = ["host_wall"];

/// One JSON path at which the two documents disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Difference {
    /// Dotted path from the document root. Cells are addressed by
    /// identity (`cells[app/config/machine/Pn].model.time_s`) and
    /// `name`/`value` arrays by name (`harness.chaos.scenarios`).
    pub path: String,
    /// The old side, rendered (`absent` when the path exists only in new).
    pub old: String,
    /// The new side, rendered (`absent` when the path exists only in old).
    pub new: String,
}

impl std::fmt::Display for Difference {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} -> {}", self.path, self.old, self.new)
    }
}

/// Outcome of comparing two profile documents.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Every differing path: top-level members in document order, then
    /// cells in document order.
    pub differences: Vec<Difference>,
    /// Number of cells present in both documents.
    pub matched_cells: usize,
}

impl Comparison {
    /// Whether the documents agree (exit 0 for the CLI).
    pub fn equal(&self) -> bool {
        self.differences.is_empty()
    }
}

type Members<'a> = Vec<(&'a str, &'a Value)>;

/// An object's members in document order (none for any other value).
fn members(value: &Value) -> Members<'_> {
    match value {
        Value::Object(members) => members.iter().map(|(k, v)| (k.as_str(), v)).collect(),
        _ => Vec::new(),
    }
}

fn find<'a>(side: &Members<'a>, key: &str) -> Option<&'a Value> {
    side.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

/// A `[{"name": .., "value": ..}, ..]` array (counters, gauges,
/// `harness`) read as the map it encodes, so a difference names the
/// counter and not an array index.
fn named_values(items: &[Value]) -> Option<Members<'_>> {
    items
        .iter()
        .map(|item| match item {
            Value::Object(members) if members.len() == 2 => {
                Some((item.str("name")?, item.get("value")?))
            }
            _ => None,
        })
        .collect()
}

fn show(value: Option<&Value>) -> String {
    match value {
        None => "absent".to_string(),
        Some(Value::Null) => "null".to_string(),
        Some(Value::Bool(b)) => b.to_string(),
        Some(Value::Number(x)) => number(*x),
        Some(Value::String(s)) => format!("{s:?}"),
        Some(Value::Array(items)) => format!("[{} items]", items.len()),
        Some(Value::Object(members)) => format!("{{{} members}}", members.len()),
    }
}

fn diff(path: &str, old: Option<&Value>, new: Option<&Value>, out: &mut Vec<Difference>) {
    if old == new {
        return;
    }
    match (old, new) {
        (Some(a @ Value::Object(_)), Some(b @ Value::Object(_))) => {
            diff_members(path, &members(a), &members(b), &[], out)
        }
        (Some(Value::Array(a)), Some(Value::Array(b))) => {
            match (named_values(a), named_values(b)) {
                (Some(a), Some(b)) => diff_members(path, &a, &b, &[], out),
                _ => {
                    for i in 0..a.len().max(b.len()) {
                        diff(&format!("{path}[{i}]"), a.get(i), b.get(i), out);
                    }
                }
            }
        }
        _ => out.push(Difference {
            path: path.to_string(),
            old: show(old),
            new: show(new),
        }),
    }
}

/// Compare two keyed member lists: old's keys in old's order, then the
/// keys only new has. Order itself is not compared.
fn diff_members(
    path: &str,
    old: &Members<'_>,
    new: &Members<'_>,
    ungated: &[&str],
    out: &mut Vec<Difference>,
) {
    let only_new = new.iter().filter(|(k, _)| find(old, k).is_none());
    for (key, _) in old.iter().chain(only_new) {
        if ungated.contains(key) {
            continue;
        }
        let at = if path.is_empty() {
            key.to_string()
        } else {
            format!("{path}.{key}")
        };
        diff(&at, find(old, key), find(new, key), out);
    }
}

/// `app/config/machine/Pn` — the identity cells are joined on (the same
/// spelling as `pvs_bench`'s `SweepCell::key` and the findings table).
fn cell_key(cell: &Value) -> String {
    format!(
        "{}/{}/{}/P{}",
        cell.str("app").unwrap_or("?"),
        cell.str("config").unwrap_or(""),
        cell.str("machine").unwrap_or("?"),
        cell.num("procs").map_or("?".to_string(), number),
    )
}

/// A document's cells with the identity each is joined on.
fn cells(doc: &Value) -> Vec<(String, &Value)> {
    doc.get("cells")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .map(|cell| (cell_key(cell), cell))
        .collect()
}

/// The schema gate `compare` puts each input through before comparing:
/// `schema` is [`PROFILE_V2`](pvs_core::schema::PROFILE_V2), `cells` is
/// an array, and every cell carries its model (`model.time_s`,
/// `model.gflops_per_p`) and its identity (`app`, `machine`, `procs`).
/// The error names the first check that failed, and its cell by index.
pub fn check_profile_doc(doc: &Value) -> Result<(), String> {
    let expected = pvs_core::schema::PROFILE_V2;
    let schema = doc.str("schema").ok_or("missing `schema` member")?;
    if schema != expected {
        return Err(format!("unknown schema `{schema}` (expected `{expected}`)"));
    }
    let cells = doc.get("cells").and_then(Value::as_array).ok_or("missing `cells` array")?;
    for (i, cell) in cells.iter().enumerate() {
        let model = cell.get("model");
        let model_has = |name: &str| model.and_then(|m| m.num(name)).is_some();
        let checks = [
            ("`model`", model.is_some()),
            ("model.time_s", model_has("time_s")),
            ("model.gflops_per_p", model_has("gflops_per_p")),
            ("`app`", cell.str("app").is_some()),
            ("`machine`", cell.str("machine").is_some()),
            ("`procs`", cell.num("procs").is_some()),
        ];
        if let Some((missing, _)) = checks.iter().find(|(_, present)| !present) {
            return Err(format!("cell {i}: missing {missing}"));
        }
    }
    Ok(())
}

/// Compare `new` against `old`, both parsed profile documents.
pub fn compare_docs(old: &Value, new: &Value) -> Comparison {
    let mut cmp = Comparison::default();
    let ungated_top: Vec<&str> = UNGATED.iter().copied().chain(["cells"]).collect();
    diff_members(
        "",
        &members(old),
        &members(new),
        &ungated_top,
        &mut cmp.differences,
    );

    let mut new_cells: Vec<Option<(String, &Value)>> = cells(new).into_iter().map(Some).collect();
    for (key, old_cell) in cells(old) {
        let path = format!("cells[{key}]");
        // Each new cell answers one old cell, so a duplicated identity on
        // one side does not pass against a single cell on the other.
        let twin = new_cells
            .iter_mut()
            .find(|slot| slot.as_ref().is_some_and(|(k, _)| *k == key))
            .and_then(Option::take);
        match twin {
            Some((_, new_cell)) => {
                cmp.matched_cells += 1;
                diff_members(
                    &path,
                    &members(old_cell),
                    &members(new_cell),
                    &UNGATED_CELL,
                    &mut cmp.differences,
                );
            }
            None => diff(&path, Some(old_cell), None, &mut cmp.differences),
        }
    }
    for (key, new_cell) in new_cells.into_iter().flatten() {
        let path = format!("cells[{key}]");
        diff(&path, None, Some(new_cell), &mut cmp.differences);
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvs_core::json::parse;

    /// A two-cell document with every kind of member the writers emit.
    const DOC: &str = r#"{"schema":"pvs-bench/profile-v2",
        "sweep_threads":1,"host_samples_per_cell":3,"host_median_sum_s":0.5,
        "load":{"wall_s":1.5},"server":{"uptime_s":2},
        "harness":[{"name":"chaos.scenarios","value":6},
                   {"name":"chaos.msg-drop-delay.mpisim.drops","value":3}],
        "cells":[
          {"app":"LBMHD","config":"8192x8192","machine":"Power3","procs":64,
           "model":{"machine":"Power3","procs":64,"time_s":10,"comm_s":0.25,
                    "gflops_per_p":2,"pct_peak":6.5,
                    "phases":[{"name":"collision","seconds":6,"flops":2.8e10,"is_comm":false},
                              {"name":"exchange","seconds":0.25,"flops":0,"is_comm":true}]},
           "host_wall":{"median_s":0.25,"samples":1,"all_s":[0.25]},
           "counters":[{"name":"engine.phases","value":2}],
           "gauges":[{"name":"netsim.link.peak_bytes","value":512}]},
          {"app":"GTC","config":"100 part/cell","machine":"ES","procs":64,
           "model":{"machine":"ES","procs":64,"time_s":4,"comm_s":0.5,
                    "gflops_per_p":1,"pct_peak":15,"avl":230.5,"vor_pct":97.25,"phases":[]},
           "host_wall":{"median_s":0.125,"samples":1,"all_s":[0.125]},
           "counters":[],"gauges":[]}
        ]}"#;

    /// `DOC` with the first `from` replaced by `to`, compared against `DOC`
    /// in both directions (equality has none): the differing paths.
    fn paths_after(from: &str, to: &str) -> Vec<String> {
        assert!(DOC.contains(from), "{from:?} not in the document");
        let (old, new) = (
            parse(DOC).unwrap(),
            parse(&DOC.replacen(from, to, 1)).unwrap(),
        );
        let forward = compare_docs(&old, &new);
        assert_eq!(forward.matched_cells, 2);
        assert_eq!(
            compare_docs(&new, &old).differences.len(),
            forward.differences.len(),
            "a difference has no direction"
        );
        forward.differences.into_iter().map(|d| d.path).collect()
    }

    #[test]
    fn the_schema_gate_names_the_first_missing_member() {
        let gate = |doc: &str| check_profile_doc(&parse(doc).unwrap());
        assert_eq!(gate(DOC), Ok(()));
        assert_eq!(gate("[1,2,3]").unwrap_err(), "missing `schema` member");
        assert_eq!(
            gate(&DOC.replacen("profile-v2", "profile-v99", 1)).unwrap_err(),
            "unknown schema `pvs-bench/profile-v99` (expected `pvs-bench/profile-v2`)"
        );
        let no_cells = r#"{"schema":"pvs-bench/profile-v2"}"#;
        assert_eq!(gate(no_cells).unwrap_err(), "missing `cells` array");
        for (from, to, missing) in [
            ("\"model\":{\"machine\":\"ES\"", "\"modl\":{\"machine\":\"ES\"", "`model`"),
            ("\"time_s\":4,", "", "model.time_s"),
            ("\"gflops_per_p\":1,", "", "model.gflops_per_p"),
            ("\"app\":\"GTC\",", "", "`app`"),
            ("\"machine\":\"ES\",\"procs\":64,", "\"machine\":\"ES\",", "`procs`"),
        ] {
            assert!(DOC.contains(from), "{from}");
            let err = gate(&DOC.replacen(from, to, 1)).unwrap_err();
            assert_eq!(err, format!("cell 1: missing {missing}"), "{from} -> {to}");
        }
    }

    #[test]
    fn identical_documents_compare_equal() {
        let doc = parse(DOC).unwrap();
        let cmp = compare_docs(&doc, &doc);
        assert!(cmp.equal(), "{:?}", cmp.differences);
        assert_eq!(cmp.matched_cells, 2);
    }

    #[test]
    fn whitespace_and_member_order_are_not_part_of_the_document() {
        let counters = "\"counters\":[{\"name\":\"engine.phases\",\"value\":2}]";
        let gauges = "\"gauges\":[{\"name\":\"netsim.link.peak_bytes\",\"value\":512}]";
        let reordered = DOC
            .replacen(&format!("{counters},"), "", 1)
            .replacen(gauges, &format!("{gauges},{counters}"), 1);
        assert_ne!(reordered, DOC);
        let pretty = pvs_core::json::pretty(&reordered);
        assert!(compare_docs(&parse(DOC).unwrap(), &parse(&pretty).unwrap()).equal());
    }

    #[test]
    fn a_model_metric_moving_either_way_is_a_difference() {
        let time = "cells[LBMHD/8192x8192/Power3/P64].model.time_s";
        // 5 % slower and 5 % faster: the model changed both times.
        assert_eq!(paths_after("\"time_s\":10,", "\"time_s\":10.5,"), [time]);
        assert_eq!(paths_after("\"time_s\":10,", "\"time_s\":9.5,"), [time]);
        let checksum = "cells[LBMHD/8192x8192/Power3/P64].model.gflops_per_p";
        assert_eq!(
            paths_after("\"gflops_per_p\":2,", "\"gflops_per_p\":3,"),
            [checksum]
        );
        assert_eq!(
            paths_after("\"gflops_per_p\":2,", "\"gflops_per_p\":1,"),
            [checksum]
        );
    }

    #[test]
    fn every_emitted_member_is_gated_and_named_by_path() {
        let lbmhd = "cells[LBMHD/8192x8192/Power3/P64]";
        let gtc = "cells[GTC/100 part/cell/ES/P64]";
        for (from, to, path) in [
            (
                "\"value\":3}",
                "\"value\":0}",
                "harness.chaos.msg-drop-delay.mpisim.drops".to_string(),
            ),
            (
                "\"engine.phases\",\"value\":2",
                "\"engine.phases\",\"value\":3",
                format!("{lbmhd}.counters.engine.phases"),
            ),
            (
                "\"value\":512",
                "\"value\":1024",
                format!("{lbmhd}.gauges.netsim.link.peak_bytes"),
            ),
            (
                "\"seconds\":0.25",
                "\"seconds\":0.5",
                format!("{lbmhd}.model.phases[1].seconds"),
            ),
            ("\"avl\":230.5", "\"avl\":231.5", format!("{gtc}.model.avl")),
            ("\"vor_pct\":97.25,", "", format!("{gtc}.model.vor_pct")),
            (
                "\"schema\":\"pvs-bench/profile-v2\"",
                "\"schema\":\"pvs-bench/profile-v3\"",
                "schema".to_string(),
            ),
            // A member no typed reader knows is still part of the document.
            (
                "\"counters\":[],",
                "\"counters\":[],\"energy_j\":7,",
                format!("{gtc}.energy_j"),
            ),
            (
                "\"harness\":[",
                "\"fidelity\":{\"median_err\":13.8},\"harness\":[",
                "fidelity".to_string(),
            ),
        ] {
            assert_eq!(paths_after(from, to), [path], "{from} -> {to}");
        }
    }

    #[test]
    fn a_difference_renders_as_path_old_new() {
        let (old, new) = (
            parse(DOC).unwrap(),
            parse(&DOC.replacen("\"value\":3}", "\"value\":0}", 1)).unwrap(),
        );
        let cmp = compare_docs(&old, &new);
        assert!(!cmp.equal());
        assert_eq!(
            cmp.differences[0].to_string(),
            "harness.chaos.msg-drop-delay.mpisim.drops 3 -> 0"
        );
    }

    #[test]
    fn a_counter_on_one_side_only_is_absent_on_the_other() {
        let (old, new) = (
            parse(DOC).unwrap(),
            parse(&DOC.replacen("{\"name\":\"chaos.scenarios\",\"value\":6},", "", 1)).unwrap(),
        );
        let cmp = compare_docs(&old, &new);
        assert_eq!(cmp.differences.len(), 1);
        assert_eq!(
            cmp.differences[0].to_string(),
            "harness.chaos.scenarios 6 -> absent"
        );
    }

    #[test]
    fn host_notes_are_never_compared() {
        for (from, to) in [
            ("\"sweep_threads\":1", "\"sweep_threads\":8"),
            ("\"host_samples_per_cell\":3", "\"host_samples_per_cell\":1"),
            ("\"host_median_sum_s\":0.5", "\"host_median_sum_s\":0.75"),
            ("\"load\":{\"wall_s\":1.5}", "\"load\":{\"wall_s\":9}"),
            ("\"server\":{\"uptime_s\":2},", ""),
            (
                "\"median_s\":0.25,\"samples\":1,\"all_s\":[0.25]",
                "\"median_s\":0.5,\"samples\":2,\"all_s\":[0.5,0.5]",
            ),
        ] {
            assert_eq!(paths_after(from, to), [""; 0], "{from} -> {to}");
        }
    }

    #[test]
    fn a_cell_on_one_side_only_is_a_difference_either_way() {
        let both = parse(DOC).unwrap();
        let start = DOC.find("{\"app\":\"GTC\"").unwrap();
        let end = DOC.rfind(']').unwrap();
        let one = parse(&format!(
            "{}{}",
            DOC[..start].trim_end().trim_end_matches(','),
            &DOC[end..]
        ))
        .unwrap();
        for (old, new, want) in [
            (
                &both,
                &one,
                "cells[GTC/100 part/cell/ES/P64] {8 members} -> absent",
            ),
            (
                &one,
                &both,
                "cells[GTC/100 part/cell/ES/P64] absent -> {8 members}",
            ),
        ] {
            let cmp = compare_docs(old, new);
            assert_eq!(cmp.matched_cells, 1);
            assert_eq!(cmp.differences.len(), 1);
            assert_eq!(cmp.differences[0].to_string(), want);
        }
        // A duplicated identity does not pass against a single cell.
        let twice = parse(&format!(
            "{},{}{}",
            &DOC[..end].trim_end(),
            &DOC[start..end].trim_end(),
            &DOC[end..]
        ))
        .unwrap();
        assert!(!compare_docs(&both, &twice).equal());
        assert!(!compare_docs(&twice, &both).equal());
    }
}
