//! Dependency-free benchmark harness with a Criterion-compatible surface.
//!
//! The bench targets in `benches/` were written against the subset of the
//! `criterion` API they actually use (`benchmark_group`, `sample_size`,
//! `bench_function`, `Bencher::iter`, `finish`, and the two entry-point
//! macros). This module provides that surface on `std` alone so the
//! workspace builds and benches offline. Timing methodology is simpler
//! than Criterion's (auto-calibrated batched samples, median-of-samples
//! reporting) but adequate for the A/B ablations these benches exist for:
//! both sides of every comparison run under the identical harness.
//!
//! Set `PVS_BENCH_SAMPLE_MS` to change the per-sample time target
//! (default 2 ms; raise it for lower-noise numbers).

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Default per-sample time target when `PVS_BENCH_SAMPLE_MS` is unset or
/// invalid.
const DEFAULT_SAMPLE_MS: u64 = 2;

/// Resolve a raw `PVS_BENCH_SAMPLE_MS` value: a positive integer wins;
/// a set-but-invalid value (unparseable or zero) falls back to the
/// default and returns a warning naming the variable. Pure so the parse
/// paths are unit-testable without touching process environment.
fn sample_ms_from(raw: Option<&str>) -> (u64, Option<String>) {
    match raw {
        None => (DEFAULT_SAMPLE_MS, None),
        Some(s) => match s.trim().parse::<u64>() {
            Ok(ms) if ms >= 1 => (ms, None),
            _ => (
                DEFAULT_SAMPLE_MS,
                Some(format!(
                    "warning: PVS_BENCH_SAMPLE_MS={s:?} is not a positive integer; \
                     using the {DEFAULT_SAMPLE_MS} ms default"
                )),
            ),
        },
    }
}

/// Per-sample measurement time target. Resolved once per process; an
/// invalid `PVS_BENCH_SAMPLE_MS` prints a single stderr warning.
fn sample_target() -> Duration {
    static TARGET_MS: OnceLock<u64> = OnceLock::new();
    let ms = *TARGET_MS.get_or_init(|| {
        let raw = std::env::var("PVS_BENCH_SAMPLE_MS").ok();
        let (ms, warning) = sample_ms_from(raw.as_deref());
        if let Some(w) = warning {
            eprintln!("{w}");
        }
        ms
    });
    Duration::from_millis(ms)
}

/// Top-level handle passed to every benchmark function (Criterion-shaped).
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
        }
    }
}

/// A named group of benchmarks sharing a sample-count setting.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Number of timed samples per benchmark (Criterion-compatible knob).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Run one benchmark: `f` receives a [`Bencher`] and calls
    /// [`Bencher::iter`] with the routine to measure.
    pub fn bench_function<S, F>(&mut self, name: S, mut f: F) -> &mut Self
    where
        S: Into<String>,
        F: FnMut(&mut Bencher),
    {
        let name = name.into();
        let mut per_iter: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let mut b = Bencher {
                elapsed: Duration::ZERO,
                iters: 0,
            };
            f(&mut b);
            if let Some(secs) = b.per_iter_secs() {
                per_iter.push(secs);
            }
        }
        per_iter.sort_by(f64::total_cmp);
        if per_iter.is_empty() {
            eprintln!(
                "warning: {}/{name}: benchmark closure never called Bencher::iter; skipping",
                self.name
            );
        } else {
            let median = median(&per_iter);
            let (lo, hi) = (per_iter[0], per_iter[per_iter.len() - 1]);
            println!(
                "{}/{name}: time [{} {} {}] ({} samples)",
                self.name,
                fmt_time(lo),
                fmt_time(median),
                fmt_time(hi),
                per_iter.len(),
            );
        }
        self
    }

    /// End the group (Criterion-compatible no-op).
    pub fn finish(self) {}
}

/// Measures one routine: calibrates a batch size on first use, then times
/// whole batches so per-iteration overhead vanishes.
pub struct Bencher {
    elapsed: Duration,
    iters: u64,
}

impl Bencher {
    /// Time `routine`, auto-scaling repetitions to the per-sample target.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Calibration: time a single call (also serves as warmup).
        let t0 = Instant::now();
        std::hint::black_box(routine());
        let once = t0.elapsed();
        let target = sample_target();
        let n = if once.is_zero() {
            1024
        } else {
            (target.as_nanos() / once.as_nanos().max(1)).clamp(1, 1_000_000) as u64
        };
        let start = Instant::now();
        for _ in 0..n {
            std::hint::black_box(routine());
        }
        self.elapsed += start.elapsed();
        self.iters += n;
    }

    /// Seconds per iteration measured so far, or `None` when the closure
    /// never called [`Bencher::iter`] — the guard that keeps a zero-iter
    /// benchmark from reporting `NaN`.
    pub fn per_iter_secs(&self) -> Option<f64> {
        if self.iters == 0 {
            None
        } else {
            Some(self.elapsed.as_secs_f64() / self.iters as f64)
        }
    }
}

/// Median of a sample vector: midpoint average of the two middle
/// elements for even lengths, the middle element for odd lengths, `0.0`
/// for an empty slice. Sorts a copy with `f64::total_cmp`, so NaN-free
/// inputs order totally and the result is deterministic.
///
/// Every reported-time path in this crate funnels through here: a bare
/// `v[v.len() / 2]` picks the *upper*-middle element for even-length
/// samples, biasing every reported median upward.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 0 {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Take `samples` wall-clock measurements of `f` and return seconds per
/// call for each — the hook the `pvs` commands use for host timing so
/// clock access stays confined to this crate.
pub fn time_samples<R, F: FnMut() -> R>(samples: usize, mut f: F) -> Vec<f64> {
    (0..samples)
        .filter_map(|_| {
            let mut b = Bencher {
                elapsed: Duration::ZERO,
                iters: 0,
            };
            b.iter(&mut f);
            b.per_iter_secs()
        })
        .collect()
}

/// Interleaved A/B wall-clock comparison: each round times `treated`
/// and `plain` once per item, alternating which arm goes first so load
/// drift on the host cannot systematically favour one, and each arm
/// keeps its minimum round total (the minimum is the strongest noise
/// rejector for wall-clock timing). Returns `(treated_s, plain_s)`.
pub fn interleaved_ab<T>(
    items: &[T],
    rounds: usize,
    mut treated: impl FnMut(&T),
    mut plain: impl FnMut(&T),
) -> (f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    for round in 0..rounds.max(1) {
        let mut total = (0.0, 0.0);
        for item in items {
            let mut time_treated = || time_samples(1, || treated(item))[0];
            let mut time_plain = || time_samples(1, || plain(item))[0];
            if round % 2 == 0 {
                total.1 += time_plain();
                total.0 += time_treated();
            } else {
                total.0 += time_treated();
                total.1 += time_plain();
            }
        }
        best = (best.0.min(total.0), best.1.min(total.1));
    }
    best
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// Criterion-compatible group declaration: expands to a function running
/// each benchmark function against a fresh [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Criterion-compatible entry point: expands to `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_accumulates_iterations() {
        let mut b = Bencher {
            elapsed: Duration::ZERO,
            iters: 0,
        };
        let mut count = 0u64;
        b.iter(|| count += 1);
        assert!(b.iters >= 1);
        assert!(count as u64 >= b.iters, "calibration call counts too");
    }

    #[test]
    fn sample_ms_env_parse_paths() {
        assert_eq!(sample_ms_from(None), (DEFAULT_SAMPLE_MS, None));
        assert_eq!(sample_ms_from(Some("7")), (7, None));
        assert_eq!(sample_ms_from(Some(" 12 ")), (12, None));
        for bad in ["abc", "0", "-3", "", "1.5"] {
            let (ms, warning) = sample_ms_from(Some(bad));
            assert_eq!(ms, DEFAULT_SAMPLE_MS, "{bad:?} must fall back");
            let w = warning.expect("invalid value must warn");
            assert!(w.contains("PVS_BENCH_SAMPLE_MS"), "warning names the var: {w}");
            assert!(w.contains(bad) || bad.is_empty());
        }
    }

    #[test]
    fn zero_iter_bencher_reports_none_not_nan() {
        let b = Bencher {
            elapsed: Duration::ZERO,
            iters: 0,
        };
        assert_eq!(b.per_iter_secs(), None);
    }

    #[test]
    fn zero_iter_bench_is_skipped_without_panicking() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(3);
        let mut calls = 0;
        // Closure never calls `b.iter` — the bench must be skipped, not
        // divide 0 elapsed by 0 iterations.
        g.bench_function("empty", |_b| {
            calls += 1;
        });
        g.finish();
        assert_eq!(calls, 3, "all samples still attempted");
    }

    #[test]
    fn median_of_odd_length_is_middle_element() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[2.0, 8.0, 4.0, 10.0, 6.0]), 6.0);
    }

    #[test]
    fn median_of_even_length_averages_the_middle_pair() {
        // A bare `v[len / 2]` would return 4.0 here — the upper-middle
        // element — instead of the true median 3.0.
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 8.0]), 3.0);
        assert_eq!(median(&[10.0, 20.0, 30.0, 40.0, 50.0, 60.0]), 35.0);
    }

    #[test]
    fn median_of_empty_slice_is_zero() {
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn time_samples_returns_one_value_per_sample() {
        let v = time_samples(3, || std::hint::black_box(3u64.pow(7)));
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|s| s.is_finite() && *s >= 0.0));
    }

    #[test]
    fn group_runs_benchmarks() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(2);
        let mut ran = 0;
        g.bench_function("noop", |b| {
            ran += 1;
            b.iter(|| 1 + 1);
        });
        g.finish();
        assert_eq!(ran, 2);
    }
}
