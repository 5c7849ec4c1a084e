//! Stage timings: direct calls into one public function of one layer,
//! each under a span, replaying inputs the workload itself used.
//!
//! Every function here appends spans under `root`; [`span_metrics`] then
//! turns the spans a workload recorded into its per-layer metrics. A
//! workload calls only the stages of the layers it exercises, so a layer
//! it bypasses leaves no span in its trace and reports 0.

use std::hint::black_box;
use std::sync::Arc;

use pvs_core::engine::Engine;
use pvs_core::machine::CpuClass;
use pvs_core::platforms;
use pvs_core::pool::ThreadPool;
use pvs_core::report::PerfReport;
use pvs_memsim::banks::{BankConfig, BankedMemory};
use pvs_memsim::hierarchy::CacheHierarchy;
use pvs_memsim::trace::{indirect, scrambled_indices};
use pvs_netsim::collectives::{all_to_all_stats_sampled, allreduce_stats, halo_exchange_2d_stats};
use pvs_netsim::topology::Network;
use pvs_obs::{Recorder, Registry};
use pvs_serve::workload::Request;
use pvs_vectorsim::exec::{LoopClass, MemoryEnv, VectorLoop, VectorUnit};

use crate::spec::{LADDER, NETSIM_MACHINES};
use crate::trace::{SpanId, Tracer};

/// Span of one `Engine::run`, by application.
pub fn engine_span(app: &str) -> &'static str {
    match app {
        "LBMHD" => "core.engine_run.LBMHD",
        "PARATEC" => "core.engine_run.PARATEC",
        "CACTUS" => "core.engine_run.CACTUS",
        _ => "core.engine_run.GTC",
    }
}

/// Netsim stage spans, `[family][machine]` in [`NETSIM_MACHINES`] order.
const NETSIM_SPANS: [[&str; 3]; 3] = [
    [
        "netsim.halo2d.Power3",
        "netsim.halo2d.ES",
        "netsim.halo2d.X1",
    ],
    [
        "netsim.alltoall.Power3",
        "netsim.alltoall.ES",
        "netsim.alltoall.X1",
    ],
    [
        "netsim.allreduce.Power3",
        "netsim.allreduce.ES",
        "netsim.allreduce.X1",
    ],
];

/// `(span name, metric name, nanoseconds per metric unit)` for every
/// per-layer metric that is the median per-call time of one span name.
pub fn span_metrics() -> Vec<(&'static str, String, f64)> {
    let mut out: Vec<(&'static str, String, f64)> = Vec::new();
    for span in [
        "serve.client_write",
        "serve.client_wait",
        "serve.client_read",
        "serve.parse",
        "serve.key",
        "serve.resolve",
        "serve.store_hit",
        "serve.store_miss",
        "serve.respond",
        "serve.cache_insert",
        "core.pool_handoff",
        "report.render",
        "analyze.json_parse",
    ] {
        out.push((span, format!("{span}_us"), 1e3));
    }
    for span in [
        "serve.cache_get",
        "vectorsim.execute",
        "obs.add",
        "obs.record",
    ] {
        out.push((span, format!("{span}_ns"), 1.0));
    }
    out.push(("obs.record_many", "obs.record_many_ns_per_item".into(), 1.0));
    out.push((
        "memsim.bank_gather",
        "memsim.bank_gather_ns_per_access".into(),
        1.0,
    ));
    out.push((
        "memsim.cache_trace",
        "memsim.cache_trace_ns_per_access".into(),
        1.0,
    ));
    out.push(("core.sweep_serial", "core.sweep_serial_ms".into(), 1e6));
    for app in crate::spec::APPS {
        out.push((engine_span(app), format!("core.engine_run_us.{app}"), 1e3));
    }
    for (family, spans) in ["halo2d", "alltoall", "allreduce"].iter().zip(NETSIM_SPANS) {
        for (machine, span) in NETSIM_MACHINES.iter().zip(spans) {
            out.push((span, format!("netsim.{family}_us.{machine}"), 1e3));
        }
    }
    for rung in &LADDER {
        out.push((rung.span, format!("mpisim.wall_s.{}", rung.label), 1e9));
    }
    out
}

/// The per-layer metrics the recorded spans give.
pub fn metrics_from_spans(tracer: &Tracer) -> Vec<(String, f64)> {
    span_metrics()
        .into_iter()
        .filter_map(|(span, metric, ns_per_unit)| {
            tracer.p50_ns(span).map(|ns| (metric, ns / ns_per_unit))
        })
        .collect()
}

/// `Engine::run` once per cell per repetition, a span each; the span's
/// request id is the cell's index. Returns the last repetition's reports.
pub fn engine_runs(
    tracer: &mut Tracer,
    root: Option<SpanId>,
    cells: &[Request],
    reps: usize,
) -> Vec<PerfReport> {
    let resolved: Vec<_> = cells
        .iter()
        .map(|c| c.resolve().expect("generated cells resolve"))
        .collect();
    let mut reports = Vec::new();
    for _ in 0..reps {
        reports.clear();
        for (i, (request, cell)) in cells.iter().zip(&resolved).enumerate() {
            let engine = Engine::new(cell.machine.clone());
            reports.push(
                tracer.time(engine_span(&request.app), root, i as u64, 1, || {
                    engine.run(&cell.phases, cell.procs)
                }),
            );
        }
    }
    reports
}

/// `pvs_report::json::perf_report` on each report, a span each.
pub fn report_render(
    tracer: &mut Tracer,
    root: Option<SpanId>,
    reports: &[PerfReport],
    reps: usize,
) {
    for _ in 0..reps {
        for (i, report) in reports.iter().enumerate() {
            tracer.time("report.render", root, i as u64, 1, || {
                black_box(pvs_report::json::perf_report(report));
            });
        }
    }
}

/// `pvs_analyze::json::parse` on each request line, a span each.
pub fn analyze_parse(tracer: &mut Tracer, root: Option<SpanId>, lines: &[String], reps: usize) {
    for _ in 0..reps {
        for (i, line) in lines.iter().enumerate() {
            tracer.time("analyze.json_parse", root, i as u64, 1, || {
                black_box(pvs_analyze::json::parse(line).expect("request lines are JSON"));
            });
        }
    }
}

/// Calls too short to time singly run in batches of this many per span.
const BATCH: u32 = 10_000;
/// Batches per short-call stage.
const BATCHES: usize = 15;

/// `ThreadPool::map` over [`BATCH`] empty tasks: the hand-off cost per
/// task with nothing to compute.
pub fn pool_handoff(tracer: &mut Tracer, root: Option<SpanId>, threads: usize) {
    let pool = ThreadPool::new(threads);
    for _ in 0..BATCHES {
        let items = vec![(); BATCH as usize];
        tracer.time("core.pool_handoff", root, 0, BATCH, || {
            black_box(pool.map(items, |()| ()));
        });
    }
}

/// `Registry::add`, `record` and `record_many` on a private registry.
pub fn obs(tracer: &mut Tracer, root: Option<SpanId>) {
    const MANY: [(&str, u64, u64); 8] = [
        ("bench.hist.a", 3, 1),
        ("bench.hist.b", 17, 1),
        ("bench.hist.c", 250, 1),
        ("bench.hist.d", 4_000, 1),
        ("bench.hist.e", 65_000, 1),
        ("bench.hist.f", 1, 1),
        ("bench.hist.g", 900, 1),
        ("bench.hist.h", 12, 1),
    ];
    let registry = Arc::new(Registry::new());
    for _ in 0..BATCHES {
        tracer.time("obs.add", root, 0, BATCH, || {
            for _ in 0..BATCH {
                registry.add("bench.requests", 1);
            }
        });
        tracer.time("obs.record", root, 0, BATCH, || {
            for i in 0..BATCH {
                registry.record("bench.hist.busy_us", u64::from(i));
            }
        });
        tracer.time("obs.record_many", root, 0, BATCH / 8 * 8, || {
            for _ in 0..BATCH / 8 {
                registry.record_many(&MANY);
            }
        });
    }
    black_box(registry.counter("bench.requests"));
}

/// The three `*_stats` collectives at P = 1024 on three machines'
/// networks. Returns DES messages simulated per host second.
pub fn netsim(tracer: &mut Tracer, root: Option<SpanId>) -> f64 {
    const P: usize = 1024;
    const REPS: usize = 5;
    let mut messages = 0u64;
    let started = std::time::Instant::now();
    for (m, name) in NETSIM_MACHINES.iter().enumerate() {
        let machine = platforms::by_name(name).expect("study machine");
        let net = Network::new(machine.network(P));
        for _ in 0..REPS {
            messages += tracer
                .time(NETSIM_SPANS[0][m], root, 0, 1, || {
                    halo_exchange_2d_stats(&net, 32, 32, 64 * 1024, 1024)
                })
                .messages;
            messages += tracer
                .time(NETSIM_SPANS[1][m], root, 0, 1, || {
                    all_to_all_stats_sampled(&net, P, 16 * 1024, 24)
                })
                .messages;
            messages += tracer
                .time(NETSIM_SPANS[2][m], root, 0, 1, || {
                    allreduce_stats(&net, P, 8)
                })
                .messages;
        }
    }
    messages as f64 / started.elapsed().as_secs_f64()
}

/// A scrambled gather through the banked-memory model (the GTC
/// deposition pattern) and a scattered trace through the Power3 cache
/// hierarchy.
pub fn memsim(tracer: &mut Tracer, root: Option<SpanId>) {
    const REPS: usize = 40;
    let indices = scrambled_indices(4096, 1 << 16);
    let mut banks = BankedMemory::new(BankConfig::default());
    for _ in 0..REPS {
        banks.reset();
        tracer.time("memsim.bank_gather", root, 0, indices.len() as u32, || {
            black_box(banks.gather(0, &indices));
        });
    }
    let CpuClass::Superscalar { hierarchy, .. } = platforms::power3().cpu else {
        unreachable!("the Power3 is cache-based");
    };
    let addresses = indirect(0, &scrambled_indices(16_384, 1 << 20), 8);
    let mut caches = CacheHierarchy::new(&hierarchy);
    for _ in 0..REPS {
        caches.reset();
        tracer.time(
            "memsim.cache_trace",
            root,
            0,
            addresses.len() as u32,
            || {
                black_box(caches.run_trace(addresses.iter().copied()));
            },
        );
    }
}

/// `VectorUnit::execute` of one strip-mined loop on the ES vector unit.
pub fn vectorsim(tracer: &mut Tracer, root: Option<SpanId>) {
    let machine = platforms::earth_simulator();
    let CpuClass::Vector { unit, .. } = &machine.cpu else {
        unreachable!("the ES is a vector machine");
    };
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
    for _ in 0..BATCHES {
        tracer.time("vectorsim.execute", root, 0, BATCH, || {
            for _ in 0..BATCH {
                black_box(vu.execute(black_box(&l), &env));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::per_layer;

    #[test]
    fn every_span_metric_is_a_listed_per_layer_metric() {
        let listed: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        for (_, metric, _) in span_metrics() {
            assert!(listed.contains(&metric), "{metric}");
        }
    }
}
