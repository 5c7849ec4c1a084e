//! Harness self-profiling: wall-clock histograms of the harness's own
//! pipeline stages, and the `BENCH_selfperf.json` document.
//!
//! The sweep pipeline has four heavy stages — the netsim DES loop, the
//! memsim access dispatch, the vectorsim strip loop, and the thread-pool
//! task path — plus the full [`Engine::run`] that composes them. The
//! [`HostProfiler`] wraps each stage call with an [`std::time::Instant`]
//! pair (host timing never leaves `pvs-bench`; see PVS003) and feeds the
//! elapsed microseconds into a [`pvs_obs::Histogram`], so the harness
//! profiles itself with exactly the instrument the models use.
//!
//! The profiler is armed by `PVS_SELF_PROFILE=1` (or explicitly by the
//! `selfperf` command). Disarmed, [`HostProfiler::stage`] is a plain
//! passthrough — no clock read, no lock — so the instrumented sweep is
//! bitwise-identical to the uninstrumented one, and the A/B overhead
//! proof in the `selfperf` command can hold the armed path to its ≤5%
//! budget.
//!
//! `BENCH_selfperf.json` reuses the `pvs-bench/profile-v2` schema so the
//! regression sentinel (`compare`) gates it with zero new code: each
//! stage becomes one cell with `app = "HARNESS"`, `config = <stage>`,
//! `machine = "host"`, and — deliberately — `procs = <sample count>`.
//! The sentinel joins cells on `(app, config, machine, procs)`, so the
//! stage list *and* every stage's sample count are structural axes gated
//! exactly (a changed count makes the baseline cell unmatched, which is
//! a regression), while the noisy microsecond axes ride in `host_wall`
//! and stay advisory until `--host-tol` arms them.

use crate::harness::{interleaved_ab, median};
use crate::profile::SweepCell;
use pvs_core::engine::Engine;
use pvs_core::json::{array, number, JsonObject};
use pvs_core::machine::CpuClass;
use pvs_core::pool::ThreadPool;
use pvs_memsim::banks::{BankConfig, BankedMemory};
use pvs_memsim::trace::scrambled_indices;
use pvs_netsim::collectives::halo_exchange_2d_stats;
use pvs_netsim::topology::Network;
use pvs_obs::{HistSummary, Recorder, Registry};
use pvs_vectorsim::exec::{LoopClass, MemoryEnv, VectorLoop, VectorUnit};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Stage name: one 2-D halo exchange through the discrete-event network
/// simulator, at the cell's process grid.
pub const STAGE_NETSIM: &str = "bench.hist.netsim_halo_us";
/// Stage name: one scrambled gather through the banked-memory conflict
/// simulator (the GTC deposition access pattern).
pub const STAGE_MEMSIM: &str = "bench.hist.memsim_gather_us";
/// Stage name: one strip-mined vector loop execution (vector machines
/// only — superscalar cells skip it).
pub const STAGE_VECTORSIM: &str = "bench.hist.vectorsim_exec_us";
/// Stage name: one sweep-cell task through [`ThreadPool::map`], timed
/// inside the worker (queue wait excluded, task body included).
pub const STAGE_POOL: &str = "bench.hist.pool_task_us";
/// Stage name: one full [`Engine::run`] of the cell's phase list.
pub const STAGE_ENGINE: &str = "bench.hist.engine_run_us";

/// Every stage the profiler knows, in canonical (document) order.
pub const STAGES: [&str; 5] = [
    STAGE_NETSIM,
    STAGE_MEMSIM,
    STAGE_VECTORSIM,
    STAGE_POOL,
    STAGE_ENGINE,
];

/// The environment variable that arms self-profiling inside the normal
/// `profile` sweep (`selfperf` arms it programmatically).
pub const SELF_PROFILE_ENV: &str = "PVS_SELF_PROFILE";

/// Wall-clock recorder for the harness's own pipeline stages.
///
/// Cheap to share: stage timings go through an internal [`Registry`]
/// histogram (microseconds) plus a raw-seconds side channel for the
/// `host_wall` arrays. Disarmed, [`HostProfiler::stage`] runs the
/// closure untouched.
pub struct HostProfiler {
    enabled: bool,
    registry: Registry,
    // LOCK ORDER: 70 — raw per-stage samples, taken after the obs
    // registry's inner lock (tier 30) has been released; never held
    // across a stage closure.
    samples: Mutex<BTreeMap<&'static str, Vec<f64>>>,
}

impl HostProfiler {
    /// A profiler in the given arm state.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            registry: Registry::new(),
            samples: Mutex::new(BTreeMap::new()),
        }
    }

    /// Armed iff `PVS_SELF_PROFILE=1` in the environment.
    pub fn from_env() -> Self {
        Self::new(std::env::var(SELF_PROFILE_ENV).as_deref() == Ok("1"))
    }

    /// A disarmed profiler: every [`HostProfiler::stage`] call is a
    /// passthrough.
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// Whether stage calls are being timed.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f`, attributing its wall-clock to `name` when armed. The
    /// elapsed time lands in the `name` histogram (whole microseconds)
    /// and in the raw-seconds sample list.
    pub fn stage<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let result = f();
        let secs = start.elapsed().as_secs_f64();
        self.registry.record(name, (secs * 1e6).round() as u64);
        self.samples
            .lock()
            .expect("selfperf samples lock poisoned")
            .entry(name)
            .or_default()
            .push(secs);
        result
    }

    /// Summary of one stage's histogram (`None` before its first sample).
    pub fn summary(&self, name: &str) -> Option<HistSummary> {
        self.registry.hist(name).map(|h| h.summary())
    }

    /// Raw per-record seconds for every stage that fired, in stage name
    /// order, each stage's samples in record order.
    pub fn samples(&self) -> Vec<(&'static str, Vec<f64>)> {
        self.samples
            .lock()
            .expect("selfperf samples lock poisoned")
            .iter()
            .map(|(name, secs)| (*name, secs.clone()))
            .collect()
    }
}

/// Knobs for one self-profiling run.
#[derive(Debug, Clone, Copy)]
pub struct SelfperfOptions {
    /// How many times each cell's stage set is driven.
    pub rounds: usize,
    /// Worker threads for the pool-task stage.
    pub threads: usize,
}

impl Default for SelfperfOptions {
    fn default() -> Self {
        Self {
            rounds: 3,
            threads: pvs_core::pool::default_threads(),
        }
    }
}

/// One stage's measurements: the raw samples and their histogram summary.
#[derive(Debug, Clone)]
pub struct StageProfile {
    /// Stage name (one of [`STAGES`]).
    pub stage: &'static str,
    /// Raw per-record seconds, in record order.
    pub secs: Vec<f64>,
    /// Microsecond histogram summary.
    pub summary: HistSummary,
}

impl StageProfile {
    /// Median of the raw samples, seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.secs)
    }
}

/// A complete self-profiling run.
#[derive(Debug, Clone)]
pub struct SelfperfOutput {
    /// One profile per stage that fired, in [`STAGES`] order.
    pub stages: Vec<StageProfile>,
    /// The options the run used.
    pub options: SelfperfOptions,
}

/// The stage-summary counters for one stage, emitted through a real
/// [`Recorder`] so the names live in the registry namespace like every
/// other counter (and so the name lint sees them where they are born).
fn summary_counters(s: &HistSummary) -> Vec<(String, u64)> {
    let reg = Registry::new();
    reg.add("bench.self.count", s.count);
    reg.add("bench.self.sum_us", s.sum);
    reg.add("bench.self.p50_us", s.p50);
    reg.add("bench.self.p90_us", s.p90);
    reg.add("bench.self.p99_us", s.p99);
    reg.add("bench.self.max_us", s.max);
    reg.snapshot().counters
}

impl SelfperfOutput {
    /// Total self-time across all stages, seconds.
    pub fn total_s(&self) -> f64 {
        self.stages
            .iter()
            .map(|s| s.secs.iter().sum::<f64>())
            .sum()
    }

    /// Render the run as the `BENCH_selfperf.json` document — schema
    /// `pvs-bench/profile-v2`, one cell per stage (see the module docs
    /// for why `procs` carries the sample count).
    pub fn to_json(&self) -> String {
        let cells = array(self.stages.iter().map(|s| {
            let counters = array(summary_counters(&s.summary).iter().map(|(name, value)| {
                JsonObject::new()
                    .string("name", name)
                    .number("value", *value as f64)
                    .render()
            }));
            let host = JsonObject::new()
                .number("median_s", s.median_s())
                .number("samples", s.secs.len() as f64)
                .raw("all_s", array(s.secs.iter().map(|x| number(*x))))
                .render();
            // Model axes are identically zero: a harness stage has no
            // simulated time, so the sentinel's exact model comparison
            // can never fire on noise — only the identity join (stage
            // list, sample counts) and the host axes carry signal.
            let model = JsonObject::new()
                .number("time_s", 0.0)
                .number("comm_s", 0.0)
                .number("gflops_per_p", 0.0)
                .render();
            JsonObject::new()
                .string("app", "HARNESS")
                .string("config", s.stage)
                .string("machine", "host")
                .number("procs", s.secs.len() as f64)
                .raw("model", model)
                .raw("host_wall", host)
                .number("span_events", 0.0)
                .raw("counters", counters)
                .raw("gauges", "[]".to_string())
                .render()
        }));
        let doc = JsonObject::new()
            .string("schema", pvs_core::schema::PROFILE_V2)
            .boolean("observed", true)
            .number("sweep_threads", self.options.threads as f64)
            .number("rounds", self.options.rounds as f64)
            .raw("harness", "[]".to_string())
            .raw("cells", cells)
            .render();
        pvs_core::json::pretty(&doc)
    }
}

/// A square-ish 2-D factorization of `procs` for the halo grid.
fn grid_2d(procs: usize) -> (usize, usize) {
    let mut px = (procs as f64).sqrt() as usize;
    while px > 1 && procs % px != 0 {
        px -= 1;
    }
    (px.max(1), procs / px.max(1))
}

/// Drive every stage once for one cell, attributing each to its name.
fn drive_cell(profiler: &HostProfiler, cell: &SweepCell) {
    let machine = cell.machine();
    let (px, py) = grid_2d(cell.procs);

    // Netsim DES loop: a 2-D halo exchange on the cell's network.
    let net = Network::new(machine.network(cell.procs));
    profiler.stage(STAGE_NETSIM, || {
        std::hint::black_box(halo_exchange_2d_stats(&net, px, py, 64 * 1024, 1024));
    });

    // Memsim access dispatch: a scrambled gather (the PIC deposition
    // pattern) through the machine's bank geometry.
    let banks = match &machine.cpu {
        CpuClass::Vector { banks, .. } => *banks,
        _ => BankConfig::default(),
    };
    let mut mem = BankedMemory::new(banks);
    let indices = scrambled_indices(4096, 1 << 16);
    profiler.stage(STAGE_MEMSIM, || {
        std::hint::black_box(mem.gather(0, &indices));
    });

    // Vectorsim strip loop: vector machines only.
    if let CpuClass::Vector { unit, .. } = &machine.cpu {
        let vu = VectorUnit::new(*unit);
        let l = VectorLoop {
            trips: 4096,
            outer_iters: 8,
            flops_per_iter: 12.0,
            bytes_per_iter: 24.0,
            gather_fraction: 0.1,
            live_vector_temps: 8,
            class: LoopClass::Vectorizable {
                multistreamable: true,
            },
        };
        let env = MemoryEnv::clean(machine.bytes_per_cycle());
        profiler.stage(STAGE_VECTORSIM, || {
            std::hint::black_box(vu.execute(&l, &env));
        });
    }

    // The full engine run composing all of the above.
    let phases = cell.phases();
    let engine = Engine::new(cell.machine());
    profiler.stage(STAGE_ENGINE, || {
        std::hint::black_box(engine.run(&phases, cell.procs));
    });
}

/// Run the self-profiling sweep: `rounds` passes over `cells`, each pass
/// driving the four stage workloads serially per cell and then one
/// parallel [`ThreadPool::map`] over the cells with the task body timed
/// inside the worker.
pub fn run_selfperf(
    profiler: &Arc<HostProfiler>,
    cells: &[SweepCell],
    options: SelfperfOptions,
) -> SelfperfOutput {
    for _ in 0..options.rounds.max(1) {
        for cell in cells {
            drive_cell(profiler, cell);
        }
        // Pool task latency: time each task body from inside the worker
        // thread, so queue wait is excluded and per-task cost included.
        let pool = ThreadPool::new(options.threads);
        let prof = Arc::clone(profiler);
        pool.map(cells.to_vec(), move |cell| {
            prof.stage(STAGE_POOL, || {
                let phases = cell.phases();
                let engine = Engine::new(cell.machine());
                std::hint::black_box(engine.run(&phases, cell.procs));
            });
        });
    }

    SelfperfOutput {
        stages: collect_stages(profiler),
        options,
    }
}

/// Snapshot every stage that fired on `profiler` into its profile, in
/// [`STAGES`] order. The shared tail of [`run_selfperf`] and the
/// `profile` command's `PVS_SELF_PROFILE=1` report.
pub fn collect_stages(profiler: &HostProfiler) -> Vec<StageProfile> {
    let samples: BTreeMap<&'static str, Vec<f64>> = profiler.samples().into_iter().collect();
    STAGES
        .iter()
        .filter_map(|&stage| {
            let secs = samples.get(stage)?.clone();
            let summary = profiler.summary(stage)?;
            Some(StageProfile {
                stage,
                secs,
                summary,
            })
        })
        .collect()
}

/// Interleaved A/B measurement of the profiler's own cost
/// ([`interleaved_ab`]): every cell's engine run once wrapped in an
/// *armed* profiler stage with a full recorder attached (the maximally
/// observed arm), once through a *disarmed* stage with no recorder.
/// Returns `(armed_s, plain_s)`; the overhead ratio is
/// `armed_s / plain_s - 1`, held to the ≤5% budget by the `selfperf`
/// command's report.
pub fn measure_stage_overhead(cells: &[SweepCell], rounds: usize) -> (f64, f64) {
    let armed = HostProfiler::new(true);
    let disarmed = HostProfiler::disabled();
    let prepared: Vec<_> = cells.iter().map(|cell| (cell, cell.phases())).collect();
    interleaved_ab(
        &prepared,
        rounds,
        |(cell, phases)| {
            let engine = Engine::new(cell.machine()).with_recorder(Arc::new(Registry::new()));
            armed.stage(STAGE_ENGINE, || {
                std::hint::black_box(engine.run(phases, cell.procs));
            });
        },
        |(cell, phases)| {
            let engine = Engine::new(cell.machine());
            disarmed.stage(STAGE_ENGINE, || {
                std::hint::black_box(engine.run(phases, cell.procs));
            });
        },
    )
}

/// Prove the profiler never perturbs the model: for every cell, the
/// perf report from an armed, fully observed, stage-wrapped run must be
/// bitwise identical (as rendered JSON) to a bare run's. Returns the
/// offending cell keys on failure.
pub fn check_model_identity(cells: &[SweepCell]) -> Result<(), Vec<String>> {
    let profiler = HostProfiler::new(true);
    let mut bad = Vec::new();
    for cell in cells {
        let phases = cell.phases();
        let reg = Arc::new(Registry::new());
        let observed = Engine::new(cell.machine()).with_recorder(reg);
        let wrapped = profiler.stage(STAGE_ENGINE, || observed.run(&phases, cell.procs));
        let bare = Engine::new(cell.machine()).run(&phases, cell.procs);
        if pvs_core::json::perf_report(&wrapped) != pvs_core::json::perf_report(&bare) {
            bad.push(format!(
                "{}/{}/{}/P{}",
                cell.app, cell.config, cell.machine, cell.procs
            ));
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::smoke_cells;

    fn quick_run() -> SelfperfOutput {
        let profiler = Arc::new(HostProfiler::new(true));
        run_selfperf(
            &profiler,
            &smoke_cells(),
            SelfperfOptions {
                rounds: 1,
                threads: 2,
            },
        )
    }

    #[test]
    fn disarmed_profiler_is_a_passthrough() {
        let p = HostProfiler::disabled();
        assert!(!p.enabled());
        assert_eq!(p.stage(STAGE_ENGINE, || 41 + 1), 42);
        assert!(p.summary(STAGE_ENGINE).is_none());
        assert!(p.samples().is_empty());
    }

    #[test]
    fn armed_profiler_records_every_stage_call() {
        let p = HostProfiler::new(true);
        for _ in 0..5 {
            p.stage(STAGE_NETSIM, || std::hint::black_box(3 * 7));
        }
        let s = p.summary(STAGE_NETSIM).unwrap();
        assert_eq!(s.count, 5);
        let samples = p.samples();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].0, STAGE_NETSIM);
        assert_eq!(samples[0].1.len(), 5);
        assert!(samples[0].1.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn smoke_run_fires_every_stage() {
        let out = quick_run();
        let stages: Vec<&str> = out.stages.iter().map(|s| s.stage).collect();
        assert_eq!(stages, STAGES.to_vec(), "every stage fires on the smoke set");
        for s in &out.stages {
            assert_eq!(s.secs.len() as u64, s.summary.count);
            assert!(s.summary.p50 <= s.summary.p99);
            assert!(s.summary.p99 <= s.summary.max);
        }
        // The smoke set has 6 cells, 4 of them on vector machines
        // (LBMHD/GTC on the ES, PARATEC/CACTUS on the X1):
        // netsim/memsim/engine/pool fire per cell, vectorsim only on the
        // vector cells.
        let by_name: BTreeMap<&str, u64> =
            out.stages.iter().map(|s| (s.stage, s.summary.count)).collect();
        assert_eq!(by_name[STAGE_NETSIM], 6);
        assert_eq!(by_name[STAGE_MEMSIM], 6);
        assert_eq!(by_name[STAGE_POOL], 6);
        assert_eq!(by_name[STAGE_ENGINE], 6);
        assert_eq!(by_name[STAGE_VECTORSIM], 4, "two ES + two X1 cells");
        assert!(out.total_s() > 0.0);
    }

    #[test]
    fn document_round_trips_through_the_profile_loader() {
        let out = quick_run();
        let doc = pvs_analyze::profiledoc::load(&out.to_json()).unwrap();
        assert_eq!(doc.schema, pvs_core::schema::PROFILE_V2);
        assert_eq!(doc.cells.len(), out.stages.len());
        for (cell, stage) in doc.cells.iter().zip(&out.stages) {
            assert_eq!(cell.app, "HARNESS");
            assert_eq!(cell.machine, "host");
            assert_eq!(cell.config, stage.stage);
            // `procs` carries the sample count: the sentinel's identity
            // join gates it exactly.
            assert_eq!(cell.procs, stage.secs.len());
            assert_eq!(cell.model.time_s, 0.0);
            assert_eq!(cell.counter("bench.self.count"), stage.summary.count);
            assert_eq!(cell.counter("bench.self.sum_us"), stage.summary.sum);
            assert_eq!(cell.host_all_s.len(), stage.secs.len());
        }
    }

    #[test]
    fn self_document_never_regresses_against_itself() {
        let out = quick_run();
        let doc = pvs_analyze::profiledoc::load(&out.to_json()).unwrap();
        let report = pvs_analyze::sentinel::compare_docs(&doc, &doc, None);
        assert!(!report.regressed(), "self-compare must be clean");
    }

    #[test]
    fn profiler_never_perturbs_the_model() {
        check_model_identity(&smoke_cells()).expect("wrapped == bare for every smoke cell");
    }

    #[test]
    fn overhead_measurement_produces_finite_arms() {
        let cells = smoke_cells();
        let (armed, plain) = measure_stage_overhead(&cells[..2], 2);
        assert!(armed.is_finite() && armed > 0.0);
        assert!(plain.is_finite() && plain > 0.0);
    }

    #[test]
    fn grid_factorization_is_square_ish_and_exact() {
        assert_eq!(grid_2d(64), (8, 8));
        assert_eq!(grid_2d(16), (4, 4));
        assert_eq!(grid_2d(12), (3, 4));
        assert_eq!(grid_2d(7), (1, 7));
        assert_eq!(grid_2d(1), (1, 1));
    }
}
