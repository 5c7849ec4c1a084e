//! The deterministic perf-regression sentinel.
//!
//! `pvs-bench compare <old.json> <new.json>` joins two profile documents
//! on cell identity and diffs them with two distinct policies:
//!
//! * **model metrics** (`time_s`, `comm_s`, `gflops_per_p`) are pure
//!   functions of the cell identity — the simulator is deterministic, so
//!   any drift at all is a real behavioural change and is compared
//!   *exactly*;
//! * **host wall-clock** is machine-specific noise: the committed
//!   baseline was produced on someone else's machine. It is reported as
//!   drift and never enforced — host time is gated by `benchmark/`.
//!
//! A regression is: modelled time up, modelled Gflop/s per processor
//! down, or a baseline cell missing from the new document. Improvements
//! and new cells are drift (reported, exit 0).

use crate::profiledoc::ProfileDoc;
use pvs_report::tables::Table;

/// How one metric of one cell moved between the two documents.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// Cell identity key (`app/config/machine/Pn`).
    pub key: String,
    /// Metric name (`model.time_s`, `host.median_s`, ...).
    pub metric: String,
    /// Baseline value (`None` when the cell is new).
    pub old: Option<f64>,
    /// New value (`None` when the cell disappeared).
    pub new: Option<f64>,
    /// Whether this drift alone fails the comparison.
    pub regression: bool,
}

impl Drift {
    /// Relative change in percent, when both sides exist and the old
    /// value is nonzero.
    pub fn pct_change(&self) -> Option<f64> {
        match (self.old, self.new) {
            (Some(o), Some(n)) if o != 0.0 => Some(100.0 * (n - o) / o),
            _ => None,
        }
    }
}

/// Outcome of comparing two profile documents.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Every drift found, in document (cell) order.
    pub drifts: Vec<Drift>,
    /// Number of cells present in both documents.
    pub matched_cells: usize,
}

impl Comparison {
    /// Whether any drift is a regression (nonzero exit for the CLI).
    pub fn regressed(&self) -> bool {
        self.drifts.iter().any(|d| d.regression)
    }

    /// Render the per-cell drift table. Empty drift list renders a
    /// one-row "no drift" table so the output is never blank.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Profile drift (old -> new)",
            &["Cell", "Metric", "Old", "New", "Change", "Verdict"],
        );
        if self.drifts.is_empty() {
            t.push_row(vec![
                format!("{} matched cells", self.matched_cells),
                "-".into(),
                "-".into(),
                "-".into(),
                "none".into(),
                "ok".into(),
            ]);
            return t;
        }
        for d in &self.drifts {
            let fmt = |v: Option<f64>| match v {
                Some(x) => format!("{x:.6}"),
                None => "absent".to_string(),
            };
            t.push_row(vec![
                d.key.clone(),
                d.metric.clone(),
                fmt(d.old),
                fmt(d.new),
                match d.pct_change() {
                    Some(p) => format!("{p:+.2}%"),
                    None => "-".to_string(),
                },
                if d.regression { "REGRESSION" } else { "drift" }.to_string(),
            ]);
        }
        t
    }
}

/// Compare `new` against the `old` baseline.
pub fn compare_docs(old: &ProfileDoc, new: &ProfileDoc) -> Comparison {
    let mut cmp = Comparison::default();
    for old_cell in &old.cells {
        let key = old_cell.key();
        let Some(new_cell) = new.cells.iter().find(|c| c.key() == key) else {
            cmp.drifts.push(Drift {
                key,
                metric: "cell".into(),
                old: Some(old_cell.model.time_s),
                new: None,
                regression: true,
            });
            continue;
        };
        cmp.matched_cells += 1;
        // Model metrics: exact comparison — the model is deterministic.
        let model = [
            ("model.time_s", old_cell.model.time_s, new_cell.model.time_s),
            ("model.comm_s", old_cell.model.comm_s, new_cell.model.comm_s),
            (
                "model.gflops_per_p",
                old_cell.model.gflops_per_p,
                new_cell.model.gflops_per_p,
            ),
        ];
        for (metric, o, n) in model {
            if o != n {
                let slower = metric == "model.gflops_per_p" && n < o;
                let longer = metric != "model.gflops_per_p" && n > o;
                cmp.drifts.push(Drift {
                    key: key.clone(),
                    metric: metric.into(),
                    old: Some(o),
                    new: Some(n),
                    regression: slower || longer,
                });
            }
        }
        // Host wall-clock: noisy, reported, never enforced.
        let (o, n) = (old_cell.host_median_s, new_cell.host_median_s);
        if o > 0.0 && n != o {
            cmp.drifts.push(Drift {
                key: key.clone(),
                metric: "host.median_s".into(),
                old: Some(o),
                new: Some(n),
                regression: false,
            });
        }
    }
    for new_cell in &new.cells {
        let key = new_cell.key();
        if !old.cells.iter().any(|c| c.key() == key) {
            cmp.drifts.push(Drift {
                key,
                metric: "cell".into(),
                old: None,
                new: Some(new_cell.model.time_s),
                regression: false,
            });
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiledoc::{ModelMetrics, ProfileCell};

    fn doc(cells: Vec<ProfileCell>) -> ProfileDoc {
        ProfileDoc {
            schema: crate::profiledoc::SCHEMA_V2.into(),
            observed: true,
            cells,
        }
    }

    fn cell(app: &str, time_s: f64, gflops: f64, host_s: f64) -> ProfileCell {
        ProfileCell {
            app: app.into(),
            config: "cfg".into(),
            machine: "ES".into(),
            procs: 64,
            model: ModelMetrics {
                time_s,
                comm_s: 0.1,
                gflops_per_p: gflops,
                ..ModelMetrics::default()
            },
            host_median_s: host_s,
            ..ProfileCell::default()
        }
    }

    #[test]
    fn identical_documents_compare_clean() {
        let a = doc(vec![cell("LBMHD", 10.0, 2.0, 0.5), cell("GTC", 4.0, 1.0, 0.2)]);
        let cmp = compare_docs(&a, &a);
        assert!(!cmp.regressed());
        assert!(cmp.drifts.is_empty());
        assert_eq!(cmp.matched_cells, 2);
        assert!(cmp.table().render().contains("2 matched cells"));
    }

    #[test]
    fn any_model_time_growth_is_a_regression() {
        let old = doc(vec![cell("LBMHD", 10.0, 2.0, 0.5)]);
        // 5% slower model time — any growth must fail.
        let new = doc(vec![cell("LBMHD", 10.5, 2.0, 0.5)]);
        let cmp = compare_docs(&old, &new);
        assert!(cmp.regressed());
        assert_eq!(cmp.drifts.len(), 1);
        assert_eq!(cmp.drifts[0].metric, "model.time_s");
        assert!((cmp.drifts[0].pct_change().unwrap() - 5.0).abs() < 1e-9);
        assert!(cmp.table().render().contains("REGRESSION"));
    }

    #[test]
    fn model_improvement_is_drift_not_regression() {
        let old = doc(vec![cell("LBMHD", 10.0, 2.0, 0.5)]);
        let new = doc(vec![cell("LBMHD", 9.0, 2.2, 0.5)]);
        let cmp = compare_docs(&old, &new);
        assert!(!cmp.regressed());
        assert_eq!(cmp.drifts.len(), 2);
    }

    #[test]
    fn gflops_drop_is_a_regression() {
        let old = doc(vec![cell("LBMHD", 10.0, 2.0, 0.5)]);
        let new = doc(vec![cell("LBMHD", 10.0, 1.8, 0.5)]);
        assert!(compare_docs(&old, &new).regressed());
    }

    #[test]
    fn missing_cell_fails_and_new_cell_does_not() {
        let old = doc(vec![cell("LBMHD", 10.0, 2.0, 0.5)]);
        let new = doc(vec![cell("GTC", 4.0, 1.0, 0.2)]);
        let cmp = compare_docs(&old, &new);
        assert!(cmp.regressed());
        let missing = cmp.drifts.iter().find(|d| d.new.is_none()).unwrap();
        assert!(missing.regression);
        let added = cmp.drifts.iter().find(|d| d.old.is_none()).unwrap();
        assert!(!added.regression);
        // Only the old cells gate; additions ride along.
        let only_new = compare_docs(&doc(vec![]), &new);
        assert!(!only_new.regressed());
    }

    #[test]
    fn host_growth_is_reported_as_drift_and_never_a_regression() {
        let old = doc(vec![cell("LBMHD", 10.0, 2.0, 0.50)]);
        let new = doc(vec![cell("LBMHD", 10.0, 2.0, 0.60)]);
        let cmp = compare_docs(&old, &new);
        assert!(!cmp.regressed());
        assert_eq!(cmp.drifts.len(), 1);
        assert_eq!(cmp.drifts[0].metric, "host.median_s");
        assert!((cmp.drifts[0].pct_change().unwrap() - 20.0).abs() < 1e-9);
    }
}
