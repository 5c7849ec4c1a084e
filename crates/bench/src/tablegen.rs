//! Regeneration of the paper's evaluation tables from the performance
//! model, printed side by side with the published values.
//!
//! Every generator takes a worker count and runs its cells one way:
//! enumerate them row-major, evaluate them as one [`run_sweep_threads`],
//! and walk the reports back in rows with `chunks`. The sweep returns
//! reports in job order, so the rendered output is byte-identical at any
//! thread count (1 = serial reference).

use pvs_core::engine::{run_sweep_threads, Engine, SweepJob};
use pvs_core::phase::Phase;
use pvs_core::platforms;
use pvs_core::report::PerfReport;
use pvs_report::compare::{geometric_mean_ratio, Comparison, ShapeCheck};
use pvs_report::paper::{self, PaperRow, MACHINES};
use pvs_report::tables::{blank_cell, Table};
use pvs_serve::cell_phases;

/// A regenerated table plus its paper-vs-model bookkeeping.
#[derive(Debug, Clone)]
pub struct TableOutput {
    /// The rendered table (model values, paper in parentheses).
    pub table: Table,
    /// All cells for which the paper publishes a value.
    pub comparisons: Vec<Comparison>,
    /// Qualitative shape assertions.
    pub checks: Vec<ShapeCheck>,
}

impl TableOutput {
    /// Render table, comparison lines and checks into one report string.
    pub fn render(&self) -> String {
        let mut out = self.table.render();
        out.push('\n');
        out.push_str("Paper-vs-model (model/paper ratios):\n");
        for c in &self.comparisons {
            out.push_str(&c.line());
            out.push('\n');
        }
        out.push_str(&format!(
            "Geometric-mean ratio over {} published cells: {:.2}x\n\n",
            self.comparisons.len(),
            geometric_mean_ratio(&self.comparisons)
        ));
        out.push_str("Shape checks:\n");
        for c in &self.checks {
            out.push_str(&c.line());
            out.push('\n');
        }
        out
    }

    /// Whether every shape check holds.
    pub fn all_checks_pass(&self) -> bool {
        self.checks.iter().all(|c| c.holds)
    }

    /// Machine-readable rendering (for `--json` on the table commands).
    pub fn render_json(&self) -> String {
        use pvs_core::json::{array, JsonObject};
        let comparisons = array(self.comparisons.iter().map(|c| {
            JsonObject::new()
                .string("label", &c.label)
                .number("paper", c.paper)
                .number("model", c.model)
                .number("ratio", c.ratio())
                .render()
        }));
        let checks = array(self.checks.iter().map(|c| {
            JsonObject::new()
                .string("claim", &c.claim)
                .boolean("holds", c.holds)
                .string("detail", &c.detail)
                .render()
        }));
        JsonObject::new()
            .string("title", &self.table.title)
            .number(
                "geometric_mean_ratio",
                geometric_mean_ratio(&self.comparisons),
            )
            .raw("comparisons", comparisons)
            .raw("checks", checks)
            .render()
    }
}

/// Table 1: the architectural-highlights table (static data).
pub fn table1_text() -> String {
    let mut out = String::from(
        "Table 1: Architectural highlights of the Power3, Power4, Altix, ES, and X1.\n",
    );
    out.push_str(&format!(
        "{:<8} {:>5} {:>8} {:>7} {:>8} {:>6} {:>8} {:>8} {:>9} {:>10}\n",
        "Platform",
        "CPU/N",
        "MHz",
        "GF/s",
        "MemGB/s",
        "B/F",
        "MPI us",
        "NetGB/s",
        "BisB/s/F",
        "Topology"
    ));
    for m in platforms::all() {
        out.push_str(&m.table1_row());
        out.push('\n');
    }
    out
}

/// Table 2: the application-overview table (static data).
pub fn table2_text() -> String {
    let mut t = Table::new(
        "Table 2: Overview of scientific applications examined in our study",
        &["Name", "Lines", "Discipline", "Methods", "Structure"],
    );
    let rows = [
        (
            "LBMHD",
            "1,500",
            "Plasma Physics",
            "Magneto-Hydrodynamics, Lattice Boltzmann",
            "Grid",
        ),
        (
            "PARATEC",
            "50,000",
            "Material Science",
            "Density Functional Theory, Kohn Sham, FFT",
            "Fourier/Grid",
        ),
        (
            "CACTUS",
            "84,000",
            "Astrophysics",
            "Einstein Theory of GR, ADM-BSSN, Method of Lines",
            "Grid",
        ),
        (
            "GTC",
            "5,000",
            "Magnetic Fusion",
            "Particle in Cell, gyrophase-averaged Vlasov-Poisson",
            "Particle",
        ),
    ];
    for (n, l, d, m, s) in rows {
        t.push_row(vec![n.into(), l.into(), d.into(), m.into(), s.into()]);
    }
    t.render()
}

fn cell_with_paper(model: &PerfReport, paper: Option<(f64, f64)>) -> String {
    match paper {
        Some((g, p)) => format!(
            "{:.3}/{:.0}% (paper {:.3}/{:.0}%)",
            model.gflops_per_p, model.pct_peak, g, p
        ),
        None => format!("{:.3}/{:.0}%", model.gflops_per_p, model.pct_peak),
    }
}

/// Generic per-table driver: every `(config_label, procs)` row of `app`
/// resolves the first `columns` of [`MACHINES`] through the cell registry
/// (a cell the registry does not know renders blank). Returns the table
/// without shape checks, plus every report keyed `config|procs|machine`
/// for the caller's checks.
fn build_table(
    title: &str,
    app: &str,
    paper_rows: Vec<PaperRow>,
    columns: usize,
    threads: usize,
) -> (TableOutput, Vec<(String, PerfReport)>) {
    let machines = &MACHINES[..columns];
    let headers: Vec<&str> = ["Config", "P"].iter().chain(machines).copied().collect();
    let mut table = Table::new(title, &headers);

    // Row-major, `None` for a blank cell; the sweep runs the others.
    let jobs: Vec<Option<SweepJob>> = paper_rows
        .iter()
        .flat_map(|row| {
            machines.iter().map(move |&m| {
                cell_phases(app, row.config, m, row.procs).map(|p| sweep_job(m, p, row.procs))
            })
        })
        .collect();
    let present = jobs.iter().flatten().cloned().collect();
    let mut swept = run_sweep_threads(present, threads).into_iter();
    let results: Vec<Option<PerfReport>> = jobs
        .iter()
        .map(|job| job.as_ref().and_then(|_| swept.next()))
        .collect();

    let mut comparisons = Vec::new();
    let mut reports = Vec::new();
    for (row, results) in paper_rows.iter().zip(results.chunks(columns)) {
        let mut cells = vec![row.config.to_string(), row.procs.to_string()];
        for ((&m, published), report) in machines.iter().zip(row.entries).zip(results) {
            let Some(report) = report else {
                cells.push(blank_cell());
                continue;
            };
            if let Some((gflops, _)) = published {
                let label = format!("{} {} P={} {m}", title_short(title), row.config, row.procs);
                comparisons.push(Comparison::new(label, gflops, report.gflops_per_p));
            }
            cells.push(cell_with_paper(report, published));
            reports.push((format!("{}|{}|{m}", row.config, row.procs), report.clone()));
        }
        table.push_row(cells);
    }
    (TableOutput { table, comparisons, checks: Vec::new() }, reports)
}

fn sweep_job(machine: &str, phases: Vec<Phase>, procs: usize) -> SweepJob {
    SweepJob {
        machine: platforms::by_name(machine).unwrap_or_else(|| panic!("unknown machine {machine}")),
        phases,
        procs,
    }
}

fn title_short(title: &str) -> &str {
    title.split(':').next().unwrap_or(title)
}

/// The report of the cell keyed `config|procs|machine`. A shape check
/// reads only cells its table holds, so a key it misspells panics here
/// instead of silently dropping the check.
fn cell<'a>(reports: &'a [(String, PerfReport)], key: &str) -> &'a PerfReport {
    reports
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, r)| r)
        .unwrap_or_else(|| panic!("no table cell {key}"))
}

/// Table 3: LBMHD, its cells evaluated on `threads` workers.
pub fn table3_model(threads: usize) -> TableOutput {
    let (mut out, reports) = build_table(
        "Table 3: LBMHD per processor performance (model vs paper)",
        "LBMHD",
        paper::table3(),
        MACHINES.len(),
        threads,
    );
    let cell = |key| cell(&reports, key);

    let es = cell("4096x4096|64|ES");
    let x1 = cell("4096x4096|64|X1");
    let p3 = cell("4096x4096|64|Power3");
    out.checks.push(ShapeCheck::new(
        "vector systems dominate LBMHD (~44x over Power3 at P=64)",
        es.gflops_per_p / p3.gflops_per_p > 20.0,
        format!("ES/Power3 = {:.1}x", es.gflops_per_p / p3.gflops_per_p),
    ));
    out.checks.push(ShapeCheck::new(
        "ES sustains a higher fraction of peak than the X1",
        es.pct_peak > x1.pct_peak,
        format!("{:.0}% vs {:.0}%", es.pct_peak, x1.pct_peak),
    ));
    out.checks.push(ShapeCheck::new(
        "AVL and VOR near maximum on both vector systems",
        es.avl().unwrap_or(0.0) > 250.0 && x1.avl().unwrap_or(0.0) > 60.0,
        format!(
            "ES AVL {:.0}, X1 AVL {:.0}, ES VOR {:.1}%",
            es.avl().unwrap_or(0.0),
            x1.avl().unwrap_or(0.0),
            es.vor_pct().unwrap_or(0.0)
        ),
    ));
    let (caf, mpi) = (cell("8192x8192|256|X1-CAF"), cell("8192x8192|256|X1"));
    out.checks.push(ShapeCheck::new(
        "CAF improves on MPI for the large grid at scale",
        caf.gflops_per_p >= mpi.gflops_per_p,
        format!("CAF {:.2} vs MPI {:.2}", caf.gflops_per_p, mpi.gflops_per_p),
    ));
    out
}

/// Table 4: PARATEC, its cells evaluated on `threads` workers.
pub fn table4_model(threads: usize) -> TableOutput {
    let (mut out, reports) = build_table(
        "Table 4: PARATEC per processor performance (model vs paper)",
        "PARATEC",
        paper::table4(),
        5,
        threads,
    );
    let cell = |key| cell(&reports, key);

    let es32 = cell("432 atom|32|ES");
    let x132 = cell("432 atom|32|X1");
    let p3 = cell("432 atom|32|Power3");
    out.checks.push(ShapeCheck::new(
        "every architecture sustains a high fraction on PARATEC",
        p3.pct_peak > 40.0 && es32.pct_peak > 40.0,
        format!("Power3 {:.0}%, ES {:.0}%", p3.pct_peak, es32.pct_peak),
    ));
    out.checks.push(ShapeCheck::new(
        "ES outperforms the X1 despite the X1's higher peak",
        es32.gflops_per_p > x132.gflops_per_p,
        format!("{:.2} vs {:.2}", es32.gflops_per_p, x132.gflops_per_p),
    ));
    let es1024 = cell("432 atom|1024|ES");
    out.checks.push(ShapeCheck::new(
        "fixed-size scaling declines toward P=1024 (FFT transposes)",
        es1024.gflops_per_p < 0.8 * es32.gflops_per_p,
        format!("{:.2} -> {:.2}", es32.gflops_per_p, es1024.gflops_per_p),
    ));
    let (es, x1) = (cell("686 atom|256|ES"), cell("686 atom|256|X1"));
    out.checks.push(ShapeCheck::new(
        "ES holds a large advantage at P=256 on 686 atoms (paper ~3.5x)",
        es.gflops_per_p > 2.0 * x1.gflops_per_p,
        format!("{:.2} vs {:.2}", es.gflops_per_p, x1.gflops_per_p),
    ));
    out
}

/// Table 5: Cactus, its cells evaluated on `threads` workers.
pub fn table5_model(threads: usize) -> TableOutput {
    let (mut out, reports) = build_table(
        "Table 5: Cactus per processor performance, weak scaling (model vs paper)",
        "CACTUS",
        paper::table5(),
        5,
        threads,
    );
    let cell = |key| cell(&reports, key);

    let es_l = cell("250x64x64|16|ES");
    let es_s = cell("80x80x80|16|ES");
    let x1_l = cell("250x64x64|16|X1");
    let p3_l = cell("250x64x64|16|Power3");
    let p3_s = cell("80x80x80|16|Power3");
    out.checks.push(ShapeCheck::new(
        "ES runs the large (long-x) case far more efficiently than the small",
        es_l.pct_peak > 1.3 * es_s.pct_peak,
        format!(
            "{:.0}% vs {:.0}% (AVL {:.0} vs {:.0})",
            es_l.pct_peak,
            es_s.pct_peak,
            es_l.avl().unwrap_or(0.0),
            es_s.avl().unwrap_or(0.0)
        ),
    ));
    out.checks.push(ShapeCheck::new(
        "X1 sustains far less of its peak than the ES on Cactus",
        x1_l.pct_peak < 0.5 * es_l.pct_peak,
        format!("{:.1}% vs {:.1}%", x1_l.pct_peak, es_l.pct_peak),
    ));
    out.checks.push(ShapeCheck::new(
        "Power3 collapses on the large case (prefetch streams disengaged)",
        p3_l.gflops_per_p < 0.6 * p3_s.gflops_per_p,
        format!("{:.3} vs {:.3}", p3_l.gflops_per_p, p3_s.gflops_per_p),
    ));
    out.checks.push(ShapeCheck::new(
        "unvectorized boundaries are a significant ES cost (paper: up to 20%)",
        es_s.phase_fraction("radiation_boundary") > 0.05,
        format!(
            "{:.0}% of ES time",
            100.0 * es_s.phase_fraction("radiation_boundary")
        ),
    ));
    let es_l1024 = cell("250x64x64|1024|ES");
    out.checks.push(ShapeCheck::new(
        "weak scaling is nearly flat on the ES",
        es_l1024.gflops_per_p > 0.85 * es_l.gflops_per_p,
        format!("{:.2} -> {:.2}", es_l.gflops_per_p, es_l1024.gflops_per_p),
    ));
    out
}

/// Table 6: GTC, its cells evaluated on `threads` workers.
pub fn table6_model(threads: usize) -> TableOutput {
    let (mut out, reports) = build_table(
        "Table 6: GTC per processor performance (model vs paper)",
        "GTC",
        paper::table6(),
        5,
        threads,
    );
    let cell = |key| cell(&reports, key);

    let es10 = cell("10 part/cell|32|ES");
    let es100 = cell("100 part/cell|32|ES");
    let x1100 = cell("100 part/cell|32|X1");
    let p3 = cell("100 part/cell|32|Power3");
    out.checks.push(ShapeCheck::new(
        "higher resolution (100 ppc) improves vector efficiency",
        es100.gflops_per_p > es10.gflops_per_p,
        format!("{:.2} -> {:.2}", es10.gflops_per_p, es100.gflops_per_p),
    ));
    out.checks.push(ShapeCheck::new(
        "X1 leads in absolute terms; ES sustains the higher fraction",
        x1100.gflops_per_p > 0.9 * es100.gflops_per_p && es100.pct_peak > x1100.pct_peak,
        format!(
            "raw {:.2} vs {:.2}; %pk {:.0} vs {:.0}",
            x1100.gflops_per_p, es100.gflops_per_p, x1100.pct_peak, es100.pct_peak
        ),
    ));
    out.checks.push(ShapeCheck::new(
        "vector systems are 4-10x faster than superscalar",
        (4.0..20.0).contains(&(es100.gflops_per_p / p3.gflops_per_p)),
        format!("ES/Power3 {:.1}x", es100.gflops_per_p / p3.gflops_per_p),
    ));
    let hybrid = cell("100 p/c hybrid|1024|Power3");
    let flat = cell("100 part/cell|64|Power3");
    out.checks.push(ShapeCheck::new(
        "1024 hybrid Power3 processors still lose to 64 vector processors",
        hybrid.gflops_per_p < 0.8 * flat.gflops_per_p,
        format!(
            "hybrid {:.3} vs flat {:.3}",
            hybrid.gflops_per_p, flat.gflops_per_p
        ),
    ));
    out
}

/// The largest problem size every machine ran, per application — the
/// configurations Table 7, Fig. 9 and the profiling sweep compare at.
pub const LARGEST_COMPARABLE: [(&str, &str); 4] = [
    ("LBMHD", "8192x8192"),
    ("PARATEC", "432 atom"),
    ("CACTUS", "250x64x64"),
    ("GTC", "100 part/cell"),
];

/// Table 7's "largest comparable" processor counts, one row per
/// [`LARGEST_COMPARABLE`] application: the P used against
/// [Power3, Power4, Altix, X1].
const TABLE7_PROCS: [[usize; 4]; 4] = [
    [1024, 256, 64, 256],
    [512, 256, 64, 128],
    [1024, 16, 64, 256],
    [64, 64, 64, 64],
];

/// Fig. 9 compares at P=64, except that Cactus's large case ran on only
/// 16 Power4 processors.
pub fn fig9_procs(app: &str, machine: &str) -> usize {
    if app == "CACTUS" && machine == "Power4" {
        16
    } else {
        64
    }
}

/// Phase stream of `app` at its [`LARGEST_COMPARABLE`] size, with the
/// code variant the paper ran on the machine named `machine`.
pub fn comparable_phases(app: &str, machine: &str, procs: usize) -> Vec<Phase> {
    let (_, config) = LARGEST_COMPARABLE
        .iter()
        .find(|(name, _)| *name == app)
        .unwrap_or_else(|| panic!("unknown app {app}"));
    cell_phases(app, config, machine, procs).expect("a published size")
}

/// Aggregate Gflop/s of one registry cell across all `procs` processors
/// (the paper's prose headlines: "3.3 Tflop/s on 1024 ES processors").
pub fn aggregate_gflops(app: &str, config: &str, machine: &str, procs: usize) -> f64 {
    let phases = cell_phases(app, config, machine, procs).expect("a published cell");
    let job = sweep_job(machine, phases, procs);
    procs as f64 * Engine::new(job.machine).run(&job.phases, procs).gflops_per_p
}

fn comparable_job(app: &str, machine: &str, procs: usize) -> SweepJob {
    sweep_job(machine, comparable_phases(app, machine, procs), procs)
}

/// Table 7: ES speedup vs each platform (model vs paper), its cells
/// evaluated on `threads` workers.
pub fn table7_model(threads: usize) -> TableOutput {
    let comparators = ["Power3", "Power4", "Altix", "X1"];
    let mut table = Table::new(
        "Table 7: ES speedup vs each platform, largest comparable configuration (model vs paper)",
        &["Name", "Power3", "Power4", "Altix", "X1"],
    );

    // Row-major, two jobs per cell: the ES, then the comparator.
    let jobs = LARGEST_COMPARABLE
        .iter()
        .zip(TABLE7_PROCS)
        .flat_map(|(&(app, _), procs)| {
            comparators
                .iter()
                .zip(procs)
                .flat_map(move |(&m, p)| [comparable_job(app, "ES", p), comparable_job(app, m, p)])
        })
        .collect();
    let results = run_sweep_threads(jobs, threads);

    let paper7 = paper::table7();
    let mut comparisons = Vec::new();
    let mut sums = [0.0f64; 4];
    for ((app, _), row) in LARGEST_COMPARABLE.into_iter().zip(results.chunks(8)) {
        let (_, paper_row) = paper7.iter().find(|(n, _)| *n == app).expect("paper row");
        let mut cells = vec![app.to_string()];
        for (col, (&m, pair)) in comparators.iter().zip(row.chunks(2)).enumerate() {
            let speedup = pair[0].gflops_per_p / pair[1].gflops_per_p;
            sums[col] += speedup;
            cells.push(format!("{speedup:.1} (paper {:.1})", paper_row[col]));
            comparisons.push(Comparison::new(
                format!("Table 7 {app} ES-vs-{m}"),
                paper_row[col],
                speedup,
            ));
        }
        table.push_row(cells);
    }
    let mut avg_cells = vec!["Average".to_string()];
    let paper_avg = paper7.last().expect("average").1;
    for col in 0..4 {
        avg_cells.push(format!(
            "{:.1} (paper {:.1})",
            sums[col] / 4.0,
            paper_avg[col]
        ));
    }
    table.push_row(avg_cells);

    let checks = vec![ShapeCheck::new(
        "ES is faster than every platform on every application except GTC-on-X1",
        comparisons
            .iter()
            .all(|c| c.model > 1.0 || c.label.contains("GTC ES-vs-X1")),
        "speedup > 1 for all but GTC vs X1",
    )];
    TableOutput {
        table,
        comparisons,
        checks,
    }
}

/// Figure 9: sustained fraction of peak at P=64 (Cactus Power4 at P=16),
/// largest comparable problem sizes, its cells evaluated on `threads`
/// workers.
pub fn fig9_model(threads: usize) -> TableOutput {
    let machines = &MACHINES[..5];
    let mut table = Table::new(
        "Figure 9: Sustained performance (% of peak) using 64 processors (model vs paper)",
        &["App", "Power3", "Power4", "Altix", "ES", "X1"],
    );
    // The paper series is the %-of-peak half of Tables 3-6 at the Fig. 9
    // configurations; all 20 cells are published.
    let paper_tables = [
        paper::table3(),
        paper::table4(),
        paper::table5(),
        paper::table6(),
    ];

    let jobs = LARGEST_COMPARABLE
        .iter()
        .flat_map(|&(app, _)| {
            machines
                .iter()
                .map(move |&m| comparable_job(app, m, fig9_procs(app, m)))
        })
        .collect();
    let results = run_sweep_threads(jobs, threads);

    let mut comparisons = Vec::new();
    let rows = LARGEST_COMPARABLE.into_iter().zip(&paper_tables);
    for (((app, config), paper_rows), reports) in rows.zip(results.chunks(5)) {
        let mut cells = vec![app.to_string()];
        for (&m, r) in machines.iter().zip(reports) {
            let (_, p) = paper::lookup(paper_rows, config, fig9_procs(app, m), m)
                .expect("Fig. 9 plots published cells");
            comparisons.push(Comparison::new(
                format!("Fig9 {app} {m} %peak"),
                p,
                r.pct_peak,
            ));
            cells.push(format!("{:.0}% (paper {:.0}%)", r.pct_peak, p));
        }
        table.push_row(cells);
    }
    let model_vals: Vec<Vec<f64>> =
        results.chunks(5).map(|row| row.iter().map(|r| r.pct_peak).collect()).collect();

    let mut checks = Vec::new();
    for ((app, _), v) in LARGEST_COMPARABLE.into_iter().zip(&model_vals) {
        checks.push(ShapeCheck::new(
            format!("{app}: ES sustains the highest fraction of peak"),
            (0..5).all(|c| v[3] >= v[c]),
            format!(
                "ES {:.0}% vs best other {:.0}%",
                v[3],
                (0..5).filter(|&c| c != 3).map(|c| v[c]).fold(0.0, f64::max)
            ),
        ));
    }
    checks.push(ShapeCheck::new(
        "PARATEC is every superscalar machine's best application",
        (0..3).all(|c| {
            model_vals[1][c] >= model_vals[0][c]
                && model_vals[1][c] >= model_vals[2][c]
                && model_vals[1][c] >= model_vals[3][c]
        }),
        "BLAS3/FFT content rewards cache hierarchies",
    ));
    TableOutput {
        table,
        comparisons,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_and_2_render() {
        let t1 = table1_text();
        assert!(t1.contains("ES") && t1.contains("Crossbar"));
        let t2 = table2_text();
        assert!(t2.contains("PARATEC") && t2.contains("Particle"));
    }

    #[test]
    #[should_panic(expected = "no table cell 4096x4096|64|ES")]
    fn a_shape_check_on_a_missing_cell_panics_naming_it() {
        cell(&[], "4096x4096|64|ES");
    }
}
