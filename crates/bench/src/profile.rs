//! The `profile` command's engine: the paper's 4-application ×
//! 5-machine sweep (the Figure 9 configurations) run under full
//! observability.
//!
//! Each cell gets its own [`pvs_obs::Registry`], so the simulated
//! counters for a cell are a pure function of `(app, machine, procs)`
//! and identical at any thread count. The simulated sweep itself fans
//! out across host cores through [`pvs_core::pool::ThreadPool`]; which
//! worker won which cell depends on the host schedule, so the pool's own
//! metrics are printed and never written into the document. Host
//! wall-clock is measured afterwards, serially, one cell at a time,
//! through [`crate::harness::time_samples`] — host timing never leaves
//! `pvs-bench`.

use crate::harness::{interleaved_ab, time_samples};
use crate::tablegen::{fig9_procs, LARGEST_COMPARABLE};
use pvs_analyze::bottleneck::{diagnose, Diagnosis};
use pvs_core::engine::Engine;
use pvs_core::json::{array, number, perf_report, JsonObject};
use pvs_core::machine::Machine;
use pvs_core::phase::Phase;
use pvs_core::pool::{PoolMetrics, ThreadPool};
use pvs_core::report::PerfReport;
use pvs_core::{platforms, Adversity};
use pvs_obs::{Registry, Snapshot};
use std::sync::Arc;

/// One cell of the profiling sweep.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Application name (`LBMHD`, `PARATEC`, `CACTUS`, `GTC`).
    pub app: &'static str,
    /// Problem-size label as the tables spell it.
    pub config: &'static str,
    /// Machine name.
    pub machine: &'static str,
    /// Processor count.
    pub procs: usize,
}

impl SweepCell {
    /// The cell's phase stream, from the one cell registry.
    pub fn phases(&self) -> Vec<Phase> {
        pvs_serve::cell_phases(self.app, self.config, self.machine, self.procs)
            .unwrap_or_else(|| panic!("{self:?} is not a paper cell"))
    }

    /// The cell's machine model.
    pub fn machine(&self) -> Machine {
        platforms::by_name(self.machine).unwrap_or_else(|| panic!("unknown machine in {self:?}"))
    }

    /// `app/config/machine/Pn`: the identity `compare` joins cells on,
    /// and the findings table's row name.
    pub fn key(&self) -> String {
        format!("{}/{}/{}/P{}", self.app, self.config, self.machine, self.procs)
    }
}

/// The full paper sweep: 4 applications × 5 machines at the Figure 9
/// configurations — P=64 everywhere except Cactus on Power4 (P=16, the
/// largest published run).
pub fn paper_cells() -> Vec<SweepCell> {
    let machines = ["Power3", "Power4", "Altix", "ES", "X1"];
    let mut cells = Vec::with_capacity(LARGEST_COMPARABLE.len() * machines.len());
    for (app, config) in LARGEST_COMPARABLE {
        for machine in machines {
            let procs = fig9_procs(app, machine);
            cells.push(SweepCell { app, config, machine, procs });
        }
    }
    cells
}

/// The six cells of the attribution table (and of most tests): one per
/// bottleneck class the analysis layer distinguishes — LBMHD and GTC on
/// one superscalar and one vector machine, plus PARATEC and Cactus on the
/// X1 (the bisection-bound and scalar-serialization-bound corners).
pub fn smoke_cells() -> Vec<SweepCell> {
    paper_cells()
        .into_iter()
        .filter(|c| {
            (matches!(c.app, "LBMHD" | "GTC") && matches!(c.machine, "Power3" | "ES"))
                || (matches!(c.app, "PARATEC" | "CACTUS") && c.machine == "X1")
        })
        .collect()
}

/// Knobs for one profiling run.
#[derive(Debug, Clone, Copy)]
pub struct ProfileOptions {
    /// Host wall-clock samples per cell.
    pub host_samples: usize,
    /// Worker threads for the simulated sweep (host timing is serial
    /// regardless).
    pub threads: usize,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        Self {
            host_samples: 3,
            threads: pvs_core::pool::default_threads(),
        }
    }
}

/// Everything measured for one cell.
#[derive(Debug, Clone)]
pub struct CellProfile {
    /// The cell identity.
    pub cell: SweepCell,
    /// The simulated performance report.
    pub report: PerfReport,
    /// Counter/gauge/histogram snapshot for this cell.
    pub snapshot: Snapshot,
    /// Host wall-clock seconds per [`Engine::run`] call, one entry per
    /// sample, in sample order.
    pub host_secs: Vec<f64>,
}

impl CellProfile {
    /// Median of the host samples (0 when no samples were taken):
    /// midpoint average of the middle pair for even sample counts.
    pub fn host_median_s(&self) -> f64 {
        crate::harness::median(&self.host_secs)
    }
}

/// A complete profiling run: per-cell profiles plus the harness's own
/// counters.
#[derive(Debug, Clone)]
pub struct ProfileOutput {
    /// One profile per requested cell, in input order.
    pub cells: Vec<CellProfile>,
    /// Snapshot of the harness registry — the document's `harness`
    /// array, which `compare` gates exactly: only values that are a pure
    /// function of the harness's seeds belong here.
    pub harness: Snapshot,
    /// What the sweep pool of [`run_profile`] did. Schedule-dependent, so
    /// it is printed on the summary line and not part of the document.
    pub pool: Option<PoolMetrics>,
    /// The options the run used.
    pub options: ProfileOptions,
}

impl ProfileOutput {
    /// The document of a harness that ran its own observed rows: the
    /// rows, the harness registry's snapshot and the worker count; the
    /// host samples per cell are what the rows carry.
    pub fn from_rows(cells: Vec<CellProfile>, harness: Snapshot, threads: usize) -> Self {
        let host_samples = cells.first().map_or(0, |cell| cell.host_secs.len());
        let options = ProfileOptions { host_samples, threads };
        ProfileOutput { cells, harness, pool: None, options }
    }

    /// Each row's bottleneck diagnosis, in row order, read off the run
    /// itself: the document rendered from it is never read back. Rows
    /// name study machines, as [`SweepCell::machine`] requires.
    pub fn diagnoses(&self) -> Vec<Diagnosis> {
        self.cells
            .iter()
            .map(|c| diagnose(c.cell.key(), &c.report, &c.snapshot, &c.cell.machine()))
            .collect()
    }

    /// Sum of per-cell median host seconds.
    pub fn host_median_sum_s(&self) -> f64 {
        self.cells.iter().map(|c| c.host_median_s()).sum()
    }

    /// Render the run as the `BENCH_sweep.json` document: schema
    /// `pvs-bench/profile-v2` — stable key order, pretty-printed so the
    /// committed baseline diffs line-by-line.
    pub fn to_json(&self) -> String {
        pvs_core::json::pretty(&self.to_json_compact())
    }

    fn to_json_compact(&self) -> String {
        let cells = array(self.cells.iter().map(|c| {
            let counters = array(c.snapshot.counters.iter().map(|(name, value)| {
                JsonObject::new()
                    .string("name", name)
                    .number("value", *value as f64)
                    .render()
            }));
            let gauges = array(c.snapshot.gauges.iter().map(|(name, value)| {
                JsonObject::new()
                    .string("name", name)
                    .number("value", *value as f64)
                    .render()
            }));
            let key = [c.cell.app, c.cell.config, c.cell.machine];
            cell_json(key, c.cell.procs, perf_report(&c.report), &c.host_secs)
                .raw("counters", counters)
                .raw("gauges", gauges)
                .render()
        }));
        let harness = array(self.harness.counters.iter().chain(&self.harness.gauges).map(
            |(name, value)| {
                JsonObject::new()
                    .string("name", name)
                    .number("value", *value as f64)
                    .render()
            },
        ));
        JsonObject::new()
            .string("schema", pvs_core::schema::PROFILE_V2)
            .number("sweep_threads", self.options.threads as f64)
            .number("host_samples_per_cell", self.options.host_samples as f64)
            .number("host_median_sum_s", self.host_median_sum_s())
            .raw("harness", harness)
            .raw("cells", cells)
            .render()
    }
}

/// One profile-v2 cell: its `app`/`config`/`machine` key, `procs`, `model`
/// and `host_wall` samples; callers append their own members.
pub(crate) fn cell_json(key: [&str; 3], procs: usize, model: String, host_s: &[f64]) -> JsonObject {
    let host = JsonObject::new()
        .number("median_s", crate::harness::median(host_s))
        .number("samples", host_s.len() as f64)
        .raw("all_s", array(host_s.iter().map(|s| number(*s))))
        .render();
    let [app, config, machine] = key;
    JsonObject::new()
        .string("app", app)
        .string("config", config)
        .string("machine", machine)
        .number("procs", procs as f64)
        .raw("model", model)
        .raw("host_wall", host)
}

/// The cell's engine with a fresh registry attached.
fn observed_engine(cell: &SweepCell) -> (Engine, Arc<Registry>) {
    let reg = Arc::new(Registry::new());
    (Engine::new(cell.machine()).with_recorder(reg.clone()), reg)
}

/// Run one cell serially under full observability (no host timing) —
/// the reference the chaos harness compares degraded runs against.
pub(crate) fn observed_run(cell: &SweepCell, adversity: &Adversity) -> CellProfile {
    let (engine, reg) = observed_engine(cell);
    let report = engine
        .with_adversity(adversity.clone())
        .run(&cell.phases(), cell.procs);
    CellProfile {
        cell: cell.clone(),
        report,
        snapshot: reg.snapshot(),
        host_secs: Vec::new(),
    }
}

/// Run the sweep: the simulated pass fans out across `options.threads`
/// workers; the host-timing pass then walks the cells serially.
pub fn run_profile(cells: Vec<SweepCell>, options: ProfileOptions) -> ProfileOutput {
    // Pass 1 (parallel): the instrumented simulated runs. Each cell owns
    // its registry, so per-cell counters are thread-count independent.
    let pool = ThreadPool::new(options.threads);
    let simulated: Vec<CellProfile> =
        pool.map(cells, |cell| observed_run(&cell, &Adversity::healthy()));
    let pool = pool.metrics();

    // Pass 2 (serial): host wall-clock per cell. The registry is
    // attached once per cell, so each timed call pays exactly the
    // steady-state counter cost.
    let cells = simulated
        .into_iter()
        .map(|mut profile| {
            let cell = &profile.cell;
            let phases = cell.phases();
            let (engine, _reg) = observed_engine(cell);
            profile.host_secs = time_samples(options.host_samples, || {
                std::hint::black_box(engine.run(&phases, cell.procs));
            });
            profile
        })
        .collect();

    ProfileOutput {
        cells,
        harness: Snapshot::default(),
        pool: Some(pool),
        options,
    }
}

/// Interleaved A/B measurement of instrumentation cost
/// ([`interleaved_ab`]): every cell with and without a recorder
/// attached. Returns `(observed_s, plain_s)` — the overhead ratio is
/// `observed_s / plain_s - 1`.
pub fn measure_overhead(cells: &[SweepCell], rounds: usize) -> (f64, f64) {
    let prepared: Vec<_> = cells.iter().map(|cell| (cell, cell.phases())).collect();
    // Build (and drop) the engine *inside* each timed iteration: a
    // registry lives for exactly one run in real usage, so its
    // construction and teardown belong to the observed arm's cost.
    interleaved_ab(
        &prepared,
        rounds,
        |(cell, phases)| {
            let (engine, _reg) = observed_engine(cell);
            std::hint::black_box(engine.run(phases, cell.procs));
        },
        |(cell, phases)| {
            std::hint::black_box(Engine::new(cell.machine()).run(phases, cell.procs));
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvs_core::machine::CpuClass;

    fn quick_options() -> ProfileOptions {
        ProfileOptions {
            host_samples: 1,
            threads: 2,
        }
    }

    #[test]
    fn paper_sweep_covers_every_app_machine_pair() {
        let cells = paper_cells();
        assert_eq!(cells.len(), 20);
        let cactus_p4 = cells
            .iter()
            .find(|c| c.app == "CACTUS" && c.machine == "Power4")
            .unwrap();
        assert_eq!(cactus_p4.procs, 16, "largest published Cactus/Power4 run");
        assert!(cells
            .iter()
            .filter(|c| !(c.app == "CACTUS" && c.machine == "Power4"))
            .all(|c| c.procs == 64));
    }

    #[test]
    fn smoke_subset_is_small_but_mixed() {
        let cells = smoke_cells();
        assert_eq!(cells.len(), 6);
        assert!(cells.iter().any(|c| c.machine == "ES"));
        assert!(cells.iter().any(|c| c.machine == "Power3"));
        // The bisection-bound and scalar-serialization corners ride along
        // so the attribution table shows every bottleneck class.
        assert!(cells.iter().any(|c| c.app == "PARATEC" && c.machine == "X1"));
        assert!(cells.iter().any(|c| c.app == "CACTUS" && c.machine == "X1"));
    }

    #[test]
    fn profile_exports_counters_per_cell() {
        let out = run_profile(smoke_cells(), quick_options());
        assert_eq!(out.cells.len(), 6);
        for c in &out.cells {
            assert!(!c.snapshot.counters.is_empty(), "{} has counters", c.cell.app);
            assert_eq!(c.host_secs.len(), 1);
            let phases = c
                .snapshot
                .counters
                .iter()
                .find(|(n, _)| n == "engine.phases")
                .map(|(_, v)| *v)
                .unwrap();
            assert_eq!(phases as usize, c.report.phases.len(), "one report row per phase");
        }
        // The sweep pool ran one task per cell, and says so outside the
        // document: who ran which cell is the host's schedule.
        assert_eq!(out.pool.as_ref().unwrap().tasks_executed, 6);
        assert!(out.harness.counters.is_empty() && out.harness.gauges.is_empty());
    }

    #[test]
    fn cell_snapshots_are_thread_count_independent() {
        // `record_many` batches land atomically under one registry lock,
        // so the exact bucket contents of every histogram — not just the
        // summaries — must match at any worker count.
        let serial = run_profile(
            smoke_cells(),
            ProfileOptions {
                threads: 1,
                ..quick_options()
            },
        );
        let parallel = run_profile(
            smoke_cells(),
            ProfileOptions {
                threads: 8,
                ..quick_options()
            },
        );
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.snapshot, b.snapshot, "{} {}", a.cell.app, a.cell.machine);
            assert!(
                a.snapshot.hists.iter().any(|(_, h)| !h.is_empty()),
                "{} {} has populated model histograms",
                a.cell.app,
                a.cell.machine
            );
        }
    }

    #[test]
    fn observed_model_is_bitwise_identical_to_unobserved() {
        // The histogram wiring rides the same recorder gate as every
        // counter: with a recorder attached the *rendered* model report
        // must still match a bare engine's byte for byte.
        for c in &run_profile(smoke_cells(), quick_options()).cells {
            assert!(!c.snapshot.hists.is_empty(), "observed arm has histograms");
            let bare = Engine::new(c.cell.machine()).run(&c.cell.phases(), c.cell.procs);
            assert_eq!(
                perf_report(&c.report),
                perf_report(&bare),
                "{} {}",
                c.cell.app,
                c.cell.machine
            );
        }
    }

    /// What `amdahl::decompose` rests on when it reads
    /// `report.vector_metrics` alone: a vector cell's `vectorsim.*`
    /// counters are those three numbers, and a superscalar cell has none.
    #[test]
    fn vector_counters_are_the_reports_vector_metrics() {
        let mut vector_cells = 0;
        for c in &run_profile(paper_cells(), quick_options()).cells {
            let key = c.cell.key();
            let counters = [
                "vectorsim.element_ops",
                "vectorsim.vector_instructions",
                "vectorsim.scalar_ops",
            ]
            .map(|name| c.snapshot.counter(name));
            match (&c.cell.machine().cpu, c.report.vector_metrics) {
                (CpuClass::Vector { .. }, Some(m)) => {
                    vector_cells += 1;
                    let fields = [m.vector_element_ops, m.vector_instructions, m.scalar_ops];
                    if counters == [None; 3] {
                        assert_eq!(fields, [0; 3], "{key}: a run that vectorized has no counters");
                    } else {
                        assert_eq!(counters, fields.map(Some), "{key}");
                    }
                }
                (CpuClass::Superscalar { .. }, None) => {}
                (_, m) => panic!("{key}: vector metrics {m:?} on this CPU class"),
            }
        }
        assert_eq!(vector_cells, 8, "four apps on the ES and on the X1");
    }

    fn profile_with_host_secs(host_secs: Vec<f64>) -> CellProfile {
        let mut out = run_profile(vec![paper_cells().remove(0)], quick_options());
        let mut c = out.cells.remove(0);
        c.host_secs = host_secs;
        c
    }

    #[test]
    fn host_median_of_odd_sample_count_is_middle_element() {
        let c = profile_with_host_secs(vec![0.9, 0.1, 0.5]);
        assert_eq!(c.host_median_s(), 0.5);
    }

    #[test]
    fn host_median_of_even_sample_count_averages_the_middle_pair() {
        // `v[len / 2]` would report 0.75 (the upper-middle sample); the
        // true median of {0.125, 0.25, 0.75, 0.875} is 0.5.
        let c = profile_with_host_secs(vec![0.875, 0.25, 0.75, 0.125]);
        assert_eq!(c.host_median_s(), 0.5);
        assert_eq!(profile_with_host_secs(vec![]).host_median_s(), 0.0);
    }

    #[test]
    fn json_document_is_balanced_and_complete() {
        let out = run_profile(smoke_cells(), quick_options());
        let json = out.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
        assert!(json.contains("\"schema\": \"pvs-bench/profile-v2\""));
        assert!(json.contains("\"app\": \"LBMHD\""));
        assert!(json.contains("\"harness\": []"), "no pool.* in the document");
        assert!(json.contains("\"engine.phases\""));
        assert!(!json.contains("NaN") && !json.contains("inf"));
        // Pretty-printed: one member per line, two-space indented.
        assert!(json.contains("\n  \"schema\""));
        assert!(json.lines().count() > 100);
    }
}
