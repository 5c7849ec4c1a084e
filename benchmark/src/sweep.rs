//! `sweep_paper` and `sweep_p64`: batches through
//! `pvs_core::engine::run_sweep_threads`, repeated for the window.

use std::collections::BTreeMap;
use std::time::Instant;

use pvs_core::engine::{run_sweep_threads, SweepJob};
use pvs_core::report::PerfReport;
use pvs_core::rng::Pcg32;
use pvs_serve::Request;

use crate::gen;
use crate::stats::{median, median_f64, percentile, quiet, Digest};
use crate::trace::Tracer;
use crate::{layers, peak_rss_mb, spec, timed_set_ups, BenchError, Outcome, RunConfig};

/// Set-ups timed at each of the three sampling points of a run.
const SETUPS: usize = 8;
/// Wall-clock budget of each replayed stage in the traced pass, seconds.
const REPLAY_BUDGET_S: f64 = 0.6;

/// Everything set-up builds, all in canonical (table) cell order.
struct Bed {
    cells: Vec<Request>,
    /// The paper's Gflop/s per processor, where the sweep has a reference.
    paper_gflops_per_p: Vec<f64>,
    /// Published cells the sweep leaves out because they do not resolve.
    skipped: usize,
    jobs: Vec<SweepJob>,
    /// The one-thread reports of `jobs`, the reference every parallel
    /// pass must reproduce.
    serial: Vec<PerfReport>,
}

fn set_up(paper: bool) -> Bed {
    let (cells, paper_gflops_per_p, skipped): (Vec<Request>, Vec<f64>, usize) = if paper {
        let (published, skipped) = gen::paper_cells();
        let (cells, gflops) = published
            .into_iter()
            .map(|c| (c.request, c.paper_gflops_per_p))
            .unzip();
        (cells, gflops, skipped)
    } else {
        (gen::p64_cells(), Vec::new(), 0)
    };
    let jobs: Vec<SweepJob> = cells
        .iter()
        .map(|request| {
            let cell = request.resolve().expect("generated cells resolve");
            SweepJob::new(cell.machine, cell.phases, cell.procs)
        })
        .collect();
    let serial = run_sweep_threads(jobs.clone(), 1);
    Bed {
        cells,
        paper_gflops_per_p,
        skipped,
        jobs,
        serial,
    }
}

/// Cheap per-cell identity between passes: every modelled number's bits.
fn same_model(a: &PerfReport, b: &PerfReport) -> bool {
    let bits = |r: &PerfReport| {
        [
            r.time_s,
            r.comm_s,
            r.flops_per_p,
            r.gflops_per_p,
            r.pct_peak,
        ]
        .map(f64::to_bits)
    };
    a.machine == b.machine
        && a.procs == b.procs
        && a.phases.len() == b.phases.len()
        && bits(a) == bits(b)
}

/// FNV-1a over every report's rendered bytes, in canonical cell order;
/// `reports[j]` is the cell `order[j]`.
fn model_digest(order: &[usize], reports: &[PerfReport]) -> u64 {
    let mut by_cell: Vec<Option<&PerfReport>> = vec![None; reports.len()];
    for (&cell, report) in order.iter().zip(reports) {
        by_cell[cell] = Some(report);
    }
    let mut digest = Digest::new();
    for report in by_cell {
        digest
            .add(pvs_report::json::perf_report(report.expect("order is a permutation")).as_bytes());
    }
    digest.finish()
}

/// What one window of passes measured.
struct Window {
    pass_ns: Vec<u64>,
    mismatched_cells: u64,
    /// The last pass: its submission order and its reports.
    last: (Vec<usize>, Vec<PerfReport>),
}

impl Window {
    /// Cells a second at the quiet-host pass time.
    fn cells_per_s(&self, cells_per_pass: usize) -> f64 {
        cells_per_pass as f64 / (quiet(&self.pass_ns) as f64 / 1e9)
    }
}

/// Repeat parallel passes for `seconds`. Every pass submits the jobs in a
/// fresh seeded order: with a few dozen cells on two workers the order
/// decides the load balance, and a run should measure the sweep, not one
/// lucky or unlucky order. Only the `run_sweep_threads` call is on the
/// clock; building the batch it consumes and checking its reports happen
/// between passes.
fn window(
    bed: &Bed,
    seconds: f64,
    threads: usize,
    orders: &mut Pcg32,
    tracer: &mut Tracer,
) -> Window {
    let mut out = Window {
        pass_ns: Vec::new(),
        mismatched_cells: 0,
        last: (Vec::new(), Vec::new()),
    };
    let started = Instant::now();
    while out.pass_ns.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let order = gen::next_order(orders, bed.jobs.len());
        let batch: Vec<SweepJob> = order.iter().map(|&cell| bed.jobs[cell].clone()).collect();
        let begin = Instant::now();
        let reports = run_sweep_threads(batch, threads);
        let end = Instant::now();
        out.pass_ns
            .push(end.duration_since(begin).as_nanos() as u64);
        tracer.record(
            "core.sweep_pass",
            begin,
            end,
            None,
            0,
            bed.jobs.len() as u32,
        );
        out.mismatched_cells += order
            .iter()
            .zip(&reports)
            .filter(|(&cell, r)| !same_model(r, &bed.serial[cell]))
            .count() as u64;
        out.last = (order, reports);
    }
    out
}

/// Run `sweep_paper` (`paper`) or `sweep_p64`.
pub fn run(paper: bool, cfg: &RunConfig) -> Result<Outcome, BenchError> {
    let threads = spec::threads();
    let mut tracer = Tracer::new(Instant::now(), cfg.trace);

    let mut setup_ns = Vec::new();
    let bed = timed_set_ups(&mut setup_ns, SETUPS, || Ok(set_up(paper)))?;
    let mut more_set_ups = || -> Result<(), BenchError> {
        if !cfg.trace {
            timed_set_ups(&mut setup_ns, SETUPS, || Ok(set_up(paper)))?;
        }
        Ok(())
    };
    let cells = bed.jobs.len();

    let mut orders = gen::sweep_orders(cfg.seed);
    let mut off = tracer.fork(false);
    window(&bed, cfg.warmup_seconds(), threads, &mut orders, &mut off);
    more_set_ups()?;
    let reference = cfg
        .trace
        .then(|| window(&bed, cfg.window_seconds(), threads, &mut orders, &mut off));
    let measured = window(
        &bed,
        cfg.window_seconds(),
        threads,
        &mut orders,
        &mut tracer,
    );
    let peak_rss_mb = peak_rss_mb();
    more_set_ups()?;

    // Off the clock from here on.
    let passes = measured.pass_ns.len() + reference.as_ref().map_or(0, |r| r.pass_ns.len());
    let attempted = (passes * cells) as u64;
    let mut failed =
        measured.mismatched_cells + reference.as_ref().map_or(0, |r| r.mismatched_cells);
    let canonical: Vec<usize> = (0..cells).collect();
    let digest = model_digest(&measured.last.0, &measured.last.1);
    if digest != model_digest(&canonical, &bed.serial) {
        failed += 1;
    }
    let mut notes = vec![
        ("passes", measured.pass_ns.len().to_string()),
        ("cells_per_pass", cells.to_string()),
        ("sweep_threads", threads.to_string()),
    ];

    let paper_err_median_pct = paper.then(|| {
        notes.push(("published_cells_skipped", bed.skipped.to_string()));
        let mut errors: Vec<f64> = bed
            .serial
            .iter()
            .zip(&bed.paper_gflops_per_p)
            .map(|(model, paper)| (model.gflops_per_p - paper).abs() / paper * 100.0)
            .collect();
        // An error statistic, not a timing: the textbook median (mean of
        // the two middle cells on an even count), not nearest-rank.
        errors.sort_by(f64::total_cmp);
        (errors[(errors.len() - 1) / 2] + errors[errors.len() / 2]) / 2.0
    });
    if let Some(err) = paper_err_median_pct {
        notes.push(("paper_err_median_pct", format!("{err}")));
    }

    let mut metrics: Vec<(String, f64)> = Vec::new();
    if let Some(reference) = reference {
        metrics.push((
            "trace_overhead_pct".into(),
            (reference.cells_per_s(cells) / measured.cells_per_s(cells) - 1.0) * 100.0,
        ));
        metrics.push(("op_p50_us".into(), median(&measured.pass_ns) as f64 / 1e3));
        metrics.push((
            "op_p95_us".into(),
            percentile(&measured.pass_ns, 95) as f64 / 1e3,
        ));
        if let Some(err) = paper_err_median_pct {
            metrics.push(("report.paper_err_median_pct".into(), err));
        }
        let msgs_per_s = replay(&bed, threads, &mut tracer);
        metrics.push(("netsim.msgs_per_s".into(), msgs_per_s));
        metrics.extend(layers::metrics_from_spans(&tracer));

        // The ledger: what a parallel pass costs beyond its cells.
        let parallel_ns = median(&measured.pass_ns) as f64;
        let serial_ns = tracer
            .p50_ns("core.sweep_serial")
            .expect("replay ran serial passes");
        let mut per_cell: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for span in tracer
            .spans()
            .iter()
            .filter(|s| s.name.starts_with("core.engine_run."))
        {
            per_cell
                .entry(span.request)
                .or_default()
                .push(span.duration_ns() as f64);
        }
        let engine_sum_ns: f64 = per_cell.values().map(|runs| median_f64(runs)).sum();
        metrics.push((
            "core.sweep_parallel_eff".into(),
            serial_ns / (threads as f64 * parallel_ns),
        ));
        metrics.push((
            "core.sweep_overhead_us_per_cell".into(),
            (threads as f64 * parallel_ns - engine_sum_ns) / cells as f64 / 1e3,
        ));
    } else {
        metrics.push(("ops_per_s".into(), measured.cells_per_s(cells)));
        metrics.push(("op_p2_us".into(), quiet(&measured.pass_ns) as f64 / 1e3));
        metrics.push(("setup_s".into(), quiet(&setup_ns) as f64 / 1e9));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb));
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        digest,
        notes,
        tracer,
    })
}

/// Replay the sweep's own cells, single-threaded, through each layer
/// under it. Returns netsim's messages per host second.
fn replay(bed: &Bed, threads: usize, tracer: &mut Tracer) -> f64 {
    let root = tracer.open("bench.replay", None, 0);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < REPLAY_BUDGET_S {
        let batch = bed.jobs.clone();
        tracer.time("core.sweep_serial", root, 0, 1, || {
            std::hint::black_box(run_sweep_threads(batch, 1));
        });
    }
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < REPLAY_BUDGET_S {
        layers::engine_runs(tracer, root, &bed.cells, 1);
    }
    layers::pool_handoff(tracer, root, threads);
    let msgs_per_s = layers::netsim(tracer, root);
    layers::memsim(tracer, root);
    layers::vectorsim(tracer, root);
    tracer.close(root);
    msgs_per_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_digest_does_not_depend_on_submission_order() {
        let bed = set_up(false);
        let canonical: Vec<usize> = (0..bed.jobs.len()).collect();
        let order = gen::next_order(&mut gen::sweep_orders(1), bed.jobs.len());
        assert_ne!(order, canonical);
        let shuffled: Vec<PerfReport> =
            order.iter().map(|&cell| bed.serial[cell].clone()).collect();
        assert_eq!(
            model_digest(&order, &shuffled),
            model_digest(&canonical, &bed.serial)
        );
        assert_ne!(
            model_digest(&canonical, &shuffled),
            model_digest(&canonical, &bed.serial)
        );
    }

    #[test]
    fn a_parallel_pass_reproduces_the_serial_reference() {
        let bed = set_up(false);
        let mut tracer = Tracer::new(Instant::now(), true);
        let w = window(&bed, 0.0, 2, &mut gen::sweep_orders(1), &mut tracer);
        assert_eq!(w.pass_ns.len(), 1);
        assert_eq!(w.mismatched_cells, 0);
        assert_eq!(tracer.spans().len(), 1);
        assert_eq!(tracer.spans()[0].calls, 20);
        let canonical: Vec<usize> = (0..20).collect();
        assert_eq!(
            model_digest(&w.last.0, &w.last.1),
            model_digest(&canonical, &bed.serial)
        );
    }

    #[test]
    fn a_changed_model_number_is_a_mismatch() {
        let bed = set_up(false);
        let mut other = bed.serial[0].clone();
        assert!(same_model(&bed.serial[0], &other));
        other.time_s = f64::from_bits(other.time_s.to_bits() + 1);
        assert!(!same_model(&bed.serial[0], &other));
    }
}
