//! `pvs-benchmark compare <a.json> <b.json>`: the repeatability check
//! between two results files of the same settings.

use std::path::Path;
use std::process::ExitCode;

use pvs_analyze::json::{parse, Value};

use crate::spec::END_TO_END;

/// Schema tag of a results file.
pub const SCHEMA: &str = "pvs-benchmark/results-v1";

/// Settings that must match before two files may be compared.
const SETTINGS: [&str; 4] = ["seed", "seconds", "nproc", "threads"];

/// Per-layer metrics that are counts or model numbers: they repeat
/// exactly or something changed.
fn repeats_exactly(metric: &str) -> bool {
    ["mpisim.resumes.", "mpisim.messages.", "mpisim.batches."]
        .iter()
        .any(|p| metric.starts_with(p))
        || ["report.paper_err_median_pct", "serve.hit_ratio"].contains(&metric)
}

fn load(path: &Path) -> Result<Value, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read {}: {e}", path.display());
        ExitCode::from(3)
    })?;
    let doc = parse(&text).map_err(|e| {
        eprintln!("error: {} is not JSON: {e}", path.display());
        ExitCode::from(4)
    })?;
    if doc.str("schema") != Some(SCHEMA) {
        eprintln!("error: {} is not a {SCHEMA} document", path.display());
        return Err(ExitCode::from(5));
    }
    Ok(doc)
}

/// One row of the report.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: String,
    pub b: String,
    /// `(b - a) / a`, for timed metrics.
    pub relative: Option<f64>,
    pub bound: Option<f64>,
    pub verdict: &'static str,
}

fn runs(doc: &Value) -> &[Value] {
    doc.get("runs").and_then(Value::as_array).unwrap_or(&[])
}

fn metric_value(run: &Value, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.num("value")
}

/// Every row two results documents give, or the setting they differ in.
pub fn rows(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    for key in SETTINGS {
        if a.num(key) != b.num(key) {
            return Err(format!(
                "{key} differs ({:?} vs {:?})",
                a.num(key),
                b.num(key)
            ));
        }
    }
    let mut out = Vec::new();
    for run_a in runs(a) {
        let (Some(workload), Some(trace)) = (run_a.str("workload"), run_a.num("trace")) else {
            return Err("a run without a workload name".into());
        };
        let Some(run_b) = runs(b)
            .iter()
            .find(|r| r.str("workload") == Some(workload) && r.num("trace") == Some(trace))
        else {
            return Err(format!(
                "{workload} (trace {trace}) is missing from the second file"
            ));
        };
        let mut exact = |metric: &str, a: String, b: String| {
            let verdict = if a == b { "ok" } else { "exact-mismatch" };
            out.push(Row {
                workload: workload.into(),
                metric: metric.into(),
                a,
                b,
                relative: None,
                bound: None,
                verdict,
            });
        };
        let text = |run: &Value, key: &str| run.str(key).unwrap_or("?").to_string();
        let number = |run: &Value, key: &str| run.num(key).map_or("?".into(), |n| n.to_string());
        exact(
            "model_digest",
            text(run_a, "model_digest"),
            text(run_b, "model_digest"),
        );
        exact("failed", number(run_a, "failed"), number(run_b, "failed"));
        if trace == 1.0 {
            for m in crate::spec::per_layer()
                .iter()
                .filter(|m| repeats_exactly(&m.name))
            {
                let value = |run| metric_value(run, &m.name).map_or("?".into(), |v| v.to_string());
                exact(&m.name, value(run_a), value(run_b));
            }
            continue;
        }
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (metric_value(run_a, m.name), metric_value(run_b, m.name))
            else {
                return Err(format!("{workload} lacks {}", m.name));
            };
            let relative = (vb - va) / va;
            out.push(Row {
                workload: workload.into(),
                metric: m.name.into(),
                a: format!("{va:.4}"),
                b: format!("{vb:.4}"),
                relative: Some(relative),
                bound: Some(m.bound),
                verdict: if relative.abs() <= m.bound {
                    "ok"
                } else {
                    "outside"
                },
            });
        }
    }
    Ok(out)
}

/// Print the report; exit 1 on any row that is not `ok`.
pub fn run(a: &Path, b: &Path) -> ExitCode {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let rows = match rows(&a, &b) {
        Ok(rows) => rows,
        Err(why) => {
            eprintln!("error: the two files do not compare: {why}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<13} {:<34} {:>18} {:>18} {:>9} {:>6}  verdict",
        "workload", "metric", "a", "b", "rel", "bound"
    );
    for r in &rows {
        let pct = |x: Option<f64>| x.map_or("-".to_string(), |x| format!("{:+.1}%", x * 100.0));
        println!(
            "{:<13} {:<34} {:>18} {:>18} {:>9} {:>6}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            pct(r.relative),
            r.bound
                .map_or("exact".to_string(), |b| format!("{:.0}%", b * 100.0)),
            r.verdict
        );
    }
    let bad = rows.iter().filter(|r| r.verdict != "ok").count();
    println!("{} rows, {bad} not ok", rows.len());
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(seed: u64, ops: f64, digest: &str) -> Value {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    if m.name == "ops_per_s" { ops } else { 10.0 },
                    m.unit
                )
            })
            .collect();
        parse(&format!(
            "{{\"schema\":\"{SCHEMA}\",\"seed\":{seed},\"seconds\":15,\"nproc\":2,\"threads\":2,\"runs\":[{{\"workload\":\"serve_hot\",\"trace\":0,\"failed\":0,\"model_digest\":\"{digest}\",\"metrics\":{{{}}}}}]}}",
            metrics.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn a_file_compares_ok_against_itself() {
        let a = doc(1, 46.0, "aa");
        let rows = rows(&a, &a).unwrap();
        assert_eq!(rows.len(), 2 + END_TO_END.len());
        assert!(rows.iter().all(|r| r.verdict == "ok"));
    }

    #[test]
    fn a_move_past_the_bound_is_outside_and_a_changed_digest_is_an_exact_mismatch() {
        let rows = rows(&doc(1, 46.0, "aa"), &doc(1, 30.0, "bb")).unwrap();
        let verdict = |metric: &str| rows.iter().find(|r| r.metric == metric).unwrap().verdict;
        assert_eq!(verdict("ops_per_s"), "outside");
        assert_eq!(verdict("op_p2_us"), "ok");
        assert_eq!(verdict("model_digest"), "exact-mismatch");
        assert_eq!(verdict("failed"), "ok");
        let within = super::rows(&doc(1, 46.0, "aa"), &doc(1, 44.0, "aa")).unwrap();
        assert!(within.iter().all(|r| r.verdict == "ok"));
    }

    #[test]
    fn files_from_different_settings_refuse_to_compare() {
        assert!(rows(&doc(1, 46.0, "aa"), &doc(2, 46.0, "aa"))
            .unwrap_err()
            .contains("seed"));
    }
}
