//! The findings table: the analysis layer's answer to the paper's
//! qualitative per-application discussion, produced from recorded
//! counters instead of prose.

use crate::bottleneck::Diagnosis;
use pvs_report::tables::Table;

/// Render diagnoses as the findings table: one row per cell with the
/// classification and the signals that drove it.
pub fn findings_table(diagnoses: &[Diagnosis]) -> Table {
    let mut t = Table::new(
        "Bottleneck attribution",
        &["Cell", "Bottleneck", "Comm", "Glob", "F/B", "MemBW", "Scalar", "Why"],
    );
    for d in diagnoses {
        let pct = |x: f64| format!("{:.0}%", 100.0 * x);
        t.push_row(vec![
            d.key.clone(),
            d.bottleneck.name().to_string(),
            pct(d.comm_fraction),
            format!("{:.2}", d.globality),
            if d.intensity.is_finite() {
                format!("{:.2}", d.intensity)
            } else {
                "inf".to_string()
            },
            pct(d.membw_fraction),
            pct(d.scalar_share),
            d.why.clone(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottleneck::{diagnose, Bottleneck};
    use pvs_core::platforms;
    use pvs_core::report::PerfReport;
    use pvs_obs::Snapshot;
    use pvs_vectorsim::VectorMetrics;

    #[test]
    fn findings_table_shows_classification_and_signals() {
        // 70% VOR on the X1: the scalar unit holds most of the loop time.
        let report = PerfReport {
            machine: "X1".into(),
            procs: 64,
            time_s: 10.0,
            comm_s: 0.5,
            flops_per_p: 0.0,
            gflops_per_p: 0.5,
            pct_peak: 0.0,
            vector_metrics: Some(VectorMetrics {
                vector_element_ops: 700,
                vector_instructions: 20,
                scalar_ops: 300,
            }),
            phases: Vec::new(),
        };
        let key = "CACTUS/250x64x64/X1/P64".to_string();
        let d = diagnose(key, &report, &Snapshot::default(), &platforms::x1());
        assert_eq!(d.bottleneck, Bottleneck::ScalarSerializationBound);
        let rendered = findings_table(&[d]).render();
        assert!(rendered.contains("Bottleneck attribution"));
        assert!(rendered.contains("CACTUS/250x64x64/X1/P64"));
        assert!(rendered.contains("scalar-serialization"));
        assert!(rendered.contains("32:1"));
    }
}
