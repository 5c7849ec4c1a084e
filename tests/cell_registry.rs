//! The cell registry (`pvs::serve::workload::cell_phases`) is the one
//! place a paper cell becomes a phase stream. These tests pin what the
//! consolidation must not move: every byte EXPERIMENTS.md carries,
//! the registry's coverage of every published cell, and its agreement
//! with the serving plane.

use pvs::report::paper::{self, PaperRow, MACHINES};
use pvs::serve::workload::{cell_phases, Request, APP_CONFIGS};
use pvs_bench::commands::experiments;

fn paper_tables() -> [(&'static str, Vec<PaperRow>); 4] {
    [
        ("LBMHD", paper::table3()),
        ("PARATEC", paper::table4()),
        ("CACTUS", paper::table5()),
        ("GTC", paper::table6()),
    ]
}

#[test]
fn regenerated_tables_match_the_committed_experiments_document() {
    let committed = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md"))
        .expect("EXPERIMENTS.md is committed at the repository root");
    // The whole file: every table body, all 143 comparison lines, the
    // aggregates, the AMR and attribution tables and the prose between.
    let generated = experiments::document();
    let stale = generated
        .lines()
        .zip(committed.lines())
        .position(|(g, c)| g != c);
    assert!(
        generated == committed,
        "stale from line index {stale:?}: run `pvs experiments --out EXPERIMENTS.md`"
    );
    assert!(experiments::document() == generated, "a second call moved");
}

#[test]
fn every_published_cell_resolves_and_only_the_hybrid_row_is_blank() {
    for (app, rows) in paper_tables() {
        for row in rows {
            for (machine, published) in MACHINES.iter().zip(row.entries) {
                let cell = cell_phases(app, row.config, machine, row.procs);
                let what = format!("{app} / {} / {machine} / {}", row.config, row.procs);
                if published.is_some() {
                    assert!(
                        cell.as_ref().is_some_and(|p| !p.is_empty()),
                        "{what} is published"
                    );
                }
                // The tables render a model value wherever the registry
                // has a cell, published or not; the blanks are exactly
                // the hybrid row off the Power3.
                let blank = row.config == "100 p/c hybrid" && *machine != "Power3";
                assert_eq!(cell.is_none(), blank, "{what}");
            }
        }
    }
}

#[test]
fn serving_plane_and_registry_agree_on_every_served_cell() {
    for (app, configs) in APP_CONFIGS {
        for config in configs {
            for &machine in &MACHINES[..5] {
                for procs in [16, 64, 1024] {
                    let served = Request::cell(app, config, machine, procs)
                        .resolve()
                        .unwrap_or_else(|e| panic!("{app}/{config}/{machine}/{procs}: {e}"));
                    let direct = cell_phases(app, config, machine, procs).unwrap();
                    assert_eq!(
                        format!("{:?}", served.phases),
                        format!("{direct:?}"),
                        "{app}/{config}/{machine}/{procs}"
                    );
                    assert_eq!(served.machine.name, machine);
                }
            }
        }
    }
}
