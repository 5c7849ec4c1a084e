//! Whole-document analysis: classify every cell and render the findings
//! table — the analysis layer's answer to the paper's qualitative
//! per-application discussion, produced from recorded counters instead
//! of prose.

use crate::bottleneck::{diagnose, Diagnosis};
use crate::profiledoc::{ProfileCell, ProfileDoc};
use pvs_core::platforms;
use pvs_report::tables::Table;

/// Diagnose every cell whose machine is a known study platform, in
/// document order. Cells naming unknown machines are skipped (a foreign
/// document should degrade, not panic).
pub fn analyze_doc(doc: &ProfileDoc) -> Vec<Diagnosis> {
    doc.cells.iter().filter_map(analyze_cell).collect()
}

/// Diagnose one cell, if its machine is a known study platform.
pub fn analyze_cell(cell: &ProfileCell) -> Option<Diagnosis> {
    let machine = platforms::by_name(&cell.machine)?;
    Some(diagnose(cell, &machine))
}

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
    use crate::bottleneck::Bottleneck;
    use crate::profiledoc::ModelMetrics;

    fn doc() -> ProfileDoc {
        let scalar_cell = ProfileCell {
            app: "CACTUS".into(),
            config: "250x64x64".into(),
            machine: "X1".into(),
            procs: 64,
            model: ModelMetrics {
                time_s: 10.0,
                comm_s: 0.5,
                gflops_per_p: 0.5,
                vor_pct: Some(70.0),
                avl: Some(40.0),
                ..ModelMetrics::default()
            },
            ..ProfileCell::default()
        };
        let foreign_cell = ProfileCell {
            app: "LBMHD".into(),
            machine: "SX-8".into(),
            ..ProfileCell::default()
        };
        ProfileDoc {
            schema: crate::profiledoc::SCHEMA_V2.into(),
            cells: vec![scalar_cell, foreign_cell],
        }
    }

    #[test]
    fn unknown_machines_are_skipped_not_fatal() {
        let diagnoses = analyze_doc(&doc());
        assert_eq!(diagnoses.len(), 1);
        assert_eq!(diagnoses[0].key, "CACTUS/250x64x64/X1/P64");
        assert_eq!(diagnoses[0].bottleneck, Bottleneck::ScalarSerializationBound);
    }

    #[test]
    fn findings_table_shows_classification_and_signals() {
        let rendered = findings_table(&analyze_doc(&doc())).render();
        assert!(rendered.contains("Bottleneck attribution"));
        assert!(rendered.contains("CACTUS/250x64x64/X1/P64"));
        assert!(rendered.contains("scalar-serialization"));
        assert!(rendered.contains("32:1"));
    }
}
