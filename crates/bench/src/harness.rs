//! Host wall-clock timing for the `pvs` commands: calibrated samples,
//! their median, and an interleaved A/B comparison. Clock access stays
//! confined to this crate (lint PVS003).

use std::time::{Duration, Instant};

/// Per-sample measurement time target.
const SAMPLE_TARGET: Duration = Duration::from_millis(2);

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
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Take `samples` wall-clock measurements of `f` and return seconds per
/// call for each — the hook the `pvs` commands use for host timing so
/// clock access stays confined to this crate. Each sample times one
/// call to calibrate (also the warm-up), then a whole batch sized to
/// `SAMPLE_TARGET` (2 ms) so per-iteration overhead vanishes.
pub fn time_samples<R, F: FnMut() -> R>(samples: usize, mut f: F) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            let once = t0.elapsed();
            let n = if once.is_zero() {
                1024
            } else {
                (SAMPLE_TARGET.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64
            };
            let start = Instant::now();
            for _ in 0..n {
                std::hint::black_box(f());
            }
            start.elapsed().as_secs_f64() / n as f64
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut calls = 0u64;
        let v = time_samples(3, || calls += 1);
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|s| s.is_finite() && *s >= 0.0));
        assert!(calls >= 6, "a calibration call and a batch per sample");
    }
}
