//! `ranks_ladder`: the four applications' communication kernels on the
//! event-driven rank runtime, through each app's public
//! `scale::run_scale_v2`. Fixed work: the window only sets how many
//! passes over the ladder are taken.

use std::time::Instant;

use pvs_mpisim::event::SimStats;
use pvs_mpisim::CommStats;

use crate::spec::{self, Rung, APPS, LADDER};
use crate::stats::{median, percentile, quiet, Digest};
use crate::trace::Tracer;
use crate::{layers, peak_rss_mb, timed_set_ups, BenchError, Outcome, RunConfig};

/// Set-ups timed before the window, and again after it (the ladder has
/// no warm-up to sample between).
const SETUPS: usize = 3;
/// A pass is started only if it is expected to end within this multiple
/// of the window; the first pass always runs.
const OVERRUN: f64 = 1.25;
/// Rank counts the v1/v2 identity check replays.
const IDENTITY_P: [usize; 3] = [2, 4, 16];

type PerRank = Vec<(Vec<f64>, CommStats)>;
type KernelV1 = fn(usize) -> PerRank;
type KernelV2 = fn(usize, usize) -> (PerRank, SimStats);

/// The thread-runtime and event-runtime entry points of one app.
fn kernels(app: &str) -> (KernelV1, KernelV2) {
    match app {
        "LBMHD" => (
            pvs_lbmhd::scale::run_scale_v1,
            pvs_lbmhd::scale::run_scale_v2,
        ),
        "GTC" => (pvs_gtc::scale::run_scale_v1, pvs_gtc::scale::run_scale_v2),
        "CACTUS" => (
            pvs_cactus::scale::run_scale_v1,
            pvs_cactus::scale::run_scale_v2,
        ),
        "PARATEC" => (
            pvs_paratec::scale::run_scale_v1,
            pvs_paratec::scale::run_scale_v2,
        ),
        other => panic!("no scale kernel for {other:?}"),
    }
}

/// Every rank's values (bit patterns) and traffic, in rank order.
fn checksum(per_rank: &PerRank) -> u64 {
    let mut digest = Digest::new();
    for (values, traffic) in per_rank {
        for v in values {
            digest.add_u64(v.to_bits());
        }
        digest.add_u64(traffic.messages_sent);
        digest.add_u64(traffic.bytes_sent);
    }
    digest.finish()
}

/// Whether two runs agree bit for bit, values and `CommStats`.
fn identical(a: &PerRank, b: &PerRank) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((va, sa), (vb, sb))| {
            sa == sb
                && va.len() == vb.len()
                && va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

/// One timed `run_scale_v2` call.
struct RungRun {
    wall_ns: u64,
    checksum: u64,
    stats: SimStats,
}

fn run_rung(rung: &Rung, threads: usize, tracer: &mut Tracer, parent: Option<u32>) -> RungRun {
    let (_, v2) = kernels(rung.app);
    let begin = Instant::now();
    let (per_rank, stats) = v2(rung.procs, threads);
    let end = Instant::now();
    tracer.record(rung.span, begin, end, parent, rung.procs as u64, 1);
    RungRun {
        wall_ns: end.duration_since(begin).as_nanos() as u64,
        checksum: checksum(&per_rank),
        stats,
    }
}

/// Set-up: one small run of every kernel, so allocator growth and
/// first-touch page faults are paid before the clock starts. On one
/// thread: what it warms does not depend on the thread count, and a
/// single thread's wall clock is the steadier one on a shared host.
fn set_up() {
    for (app, procs) in [
        ("LBMHD", 8192),
        ("GTC", 8192),
        ("CACTUS", 8192),
        ("PARATEC", 256),
    ] {
        std::hint::black_box(kernels(app).1(procs, 1));
    }
}

/// Take passes over the ladder until the window is used.
fn window(seconds: f64, threads: usize, tracer: &mut Tracer) -> Vec<Vec<RungRun>> {
    let mut passes: Vec<Vec<RungRun>> = Vec::new();
    let started = Instant::now();
    loop {
        let pass_span = tracer.open("mpisim.pass", None, passes.len() as u64);
        let pass: Vec<RungRun> = LADDER
            .iter()
            .map(|rung| run_rung(rung, threads, tracer, pass_span))
            .collect();
        tracer.close(pass_span);
        let pass_s = pass.iter().map(|r| r.wall_ns).sum::<u64>() as f64 / 1e9;
        passes.push(pass);
        if started.elapsed().as_secs_f64() + pass_s > seconds * OVERRUN {
            return passes;
        }
    }
}

/// Run `ranks_ladder`.
pub fn run(cfg: &RunConfig) -> Result<Outcome, BenchError> {
    let threads = spec::threads();
    let mut tracer = Tracer::new(Instant::now(), cfg.trace);

    let mut setup_ns = Vec::new();
    let mut timed_set_up = || {
        timed_set_ups(&mut setup_ns, SETUPS, || {
            set_up();
            Ok(())
        })
    };
    timed_set_up()?;
    let reference = if cfg.trace {
        window(cfg.window_seconds(), threads, &mut tracer.fork(false))
    } else {
        Vec::new()
    };
    let measured = window(cfg.window_seconds(), threads, &mut tracer);
    let peak_rss_mb = peak_rss_mb();
    if !cfg.trace {
        timed_set_up()?;
    }

    // Off the clock from here on. Every pass must repeat the first one
    // exactly: output bits, traffic, and the runtime's own event counts.
    let first = &measured[0];
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for pass in reference.iter().chain(&measured) {
        for (run, expected) in pass.iter().zip(first) {
            attempted += 1;
            if run.checksum != expected.checksum || run.stats != expected.stats {
                failed += 1;
            }
        }
    }
    for app in APPS {
        let (v1, v2) = kernels(app);
        for p in IDENTITY_P {
            attempted += 1;
            if !identical(&v1(p), &v2(p, threads).0) {
                failed += 1;
            }
        }
    }
    let (_, gtc) = kernels("GTC");
    let (one, one_stats) = gtc(8192, 1);
    let (two, two_stats) = gtc(8192, 2);
    attempted += 1;
    if !identical(&one, &two) || one_stats != two_stats {
        failed += 1;
    }

    let mut digest = Digest::new();
    for run in first {
        digest.add_u64(run.checksum);
        for count in [
            run.stats.resumes,
            run.stats.messages,
            run.stats.batches,
            run.stats.collectives,
        ] {
            digest.add_u64(count);
        }
    }

    let pass_ns = |passes: &[Vec<RungRun>]| -> Vec<u64> {
        passes
            .iter()
            .map(|p| p.iter().map(|r| r.wall_ns).sum())
            .collect()
    };
    let walls = pass_ns(&measured);
    // Two or three passes are too few for a percentile, and a rung is
    // long enough for the host to change speed inside a pass: the quiet
    // pass is assembled from each rung's fastest run.
    let quiet_pass_ns = |passes: &[Vec<RungRun>]| -> u64 {
        (0..LADDER.len())
            .map(|rung| passes.iter().map(|p| p[rung].wall_ns).min().unwrap_or(0))
            .sum()
    };
    let notes = vec![
        ("passes", measured.len().to_string()),
        ("rungs", LADDER.len().to_string()),
        ("scale_threads", threads.to_string()),
    ];
    let mut metrics: Vec<(String, f64)> = Vec::new();
    if cfg.trace {
        metrics.push((
            "trace_overhead_pct".into(),
            (quiet_pass_ns(&measured) as f64 / quiet_pass_ns(&reference) as f64 - 1.0) * 100.0,
        ));
        metrics.push(("op_p50_us".into(), median(&walls) as f64 / 1e3));
        metrics.push(("op_p95_us".into(), percentile(&walls, 95) as f64 / 1e3));
        metrics.extend(layers::metrics_from_spans(&tracer));
        let wall_ns = |rung: &Rung| {
            tracer
                .p50_ns(rung.span)
                .expect("the traced pass ran every rung")
        };
        for (rung, run) in LADDER.iter().zip(first) {
            let stats = &run.stats;
            metrics.push((
                format!("mpisim.ns_per_resume.{}", rung.label),
                wall_ns(rung) / stats.resumes as f64,
            ));
            metrics.push((
                format!("mpisim.resumes.{}", rung.label),
                stats.resumes as f64,
            ));
            metrics.push((
                format!("mpisim.messages.{}", rung.label),
                stats.messages as f64,
            ));
            metrics.push((
                format!("mpisim.batches.{}", rung.label),
                stats.batches as f64,
            ));
        }
        // Base: the 65 536-rank rung.
        metrics.push((
            "mpisim.doubling_cost".into(),
            wall_ns(&LADDER[1]) / wall_ns(&LADDER[0]),
        ));
    } else {
        let ranks: usize = LADDER.iter().map(|r| r.procs).sum();
        let quiet_ns = quiet_pass_ns(&measured) as f64;
        metrics.push(("ops_per_s".into(), ranks as f64 / (quiet_ns / 1e9)));
        metrics.push(("op_p2_us".into(), quiet_ns / 1e3));
        metrics.push(("setup_s".into(), quiet(&setup_ns) as f64 / 1e9));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb));
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        digest: digest.finish(),
        notes,
        tracer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_runtimes_agree_at_small_p() {
        for app in APPS {
            let (v1, v2) = kernels(app);
            let (a, b) = (v1(4), v2(4, 2).0);
            assert!(identical(&a, &b), "{app}");
            assert_eq!(checksum(&a), checksum(&b), "{app}");
        }
    }

    #[test]
    fn a_flipped_bit_or_a_changed_count_is_not_identical() {
        let (_, v2) = kernels("LBMHD");
        let a = v2(4, 1).0;
        let mut b = a.clone();
        assert!(identical(&a, &b));
        b[3].0[0] = f64::from_bits(b[3].0[0].to_bits() ^ 1);
        assert!(!identical(&a, &b));
        assert_ne!(checksum(&a), checksum(&b));
        let mut c = a.clone();
        c[0].1.messages_sent += 1;
        assert!(!identical(&a, &c));
    }

    #[test]
    fn the_ladder_names_its_rungs_consistently() {
        for rung in &LADDER {
            assert_eq!(rung.label, format!("{}.{}", rung.app, rung.procs));
            assert_eq!(rung.span, format!("mpisim.run.{}", rung.label));
            kernels(rung.app);
        }
    }
}
