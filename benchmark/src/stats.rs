//! Percentiles on raw samples, and the digest both sides of a
//! byte-for-byte comparison share.

use pvs_core::hash::Fnv1a;

/// Nearest-rank percentile of raw samples: the value at rank
/// `ceil(pct/100 * n)` of the sorted list. No interpolation and no
/// histogram midpoints, so the answer is always a value that occurred.
/// Panics on an empty list: a workload that measured nothing is a bug.
pub fn percentile(samples: &[u64], pct: u32) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&pct));
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (sorted.len() * pct as usize).div_ceil(100);
    sorted[rank.max(1) - 1]
}

/// Nearest-rank median (the lower middle on an even count).
pub fn median(samples: &[u64]) -> u64 {
    percentile(samples, 50)
}

/// The percentile [`quiet`] takes.
pub const QUIET_PCT: u32 = 2;

/// The 2nd percentile of raw timings: what an operation costs while the
/// host runs at full speed. The sandbox's two cores belong to a shared host
/// that switches, for seconds to minutes at a time, into a state where
/// CPU-bound work takes about 1.6 times as long at the median. A median
/// reads one state or the other depending on which filled more of the
/// window (ten runs of the same code spread 18 % between quartiles). The
/// slow state is fine-grained, though: it still lets a few operations in a
/// hundred through at full speed, so the low end of the distribution barely
/// moves (p2 spread 2-4 %, p10 up to 24 %, in windows of one 300 s series).
/// Interference only ever adds time, so a slower program still moves it.
/// On fewer than 51 samples this is the fastest one.
pub fn quiet(samples: &[u64]) -> u64 {
    percentile(samples, QUIET_PCT)
}

/// Nearest-rank median of float samples.
pub fn median_f64(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len().div_ceil(2) - 1]
}

/// FNV-1a over a sequence of byte strings, each followed by a `0xff`
/// separator (a byte no UTF-8 body contains), so the digest is injective
/// over where one body ends and the next begins.
#[derive(Default)]
pub struct Digest(Fnv1a);

impl Digest {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
        self.0.write(&[0xff]);
    }

    pub fn add_u64(&mut self, value: u64) {
        self.add(&value.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_an_odd_count() {
        let s = [50, 10, 40, 20, 30];
        assert_eq!(median(&s), 30);
        assert_eq!(percentile(&s, 99), 50);
        assert_eq!(percentile(&s, 20), 10);
        assert_eq!(percentile(&s, 21), 20);
    }

    #[test]
    fn nearest_rank_on_an_even_count_takes_the_lower_middle() {
        let s = [4, 1, 3, 2];
        assert_eq!(median(&s), 2);
        assert_eq!(percentile(&s, 75), 3);
        assert_eq!(percentile(&s, 76), 4);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn the_quiet_timing_is_the_nearest_rank_2nd_percentile() {
        let s: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(quiet(&s), 20);
        let s: Vec<u64> = (1..=51).collect();
        assert_eq!(quiet(&s), 2);
        // The 24 set-up samples of a run: the fastest.
        let s: Vec<u64> = (1..=24).rev().collect();
        assert_eq!(quiet(&s), 1);
    }

    #[test]
    fn one_sample_is_every_percentile() {
        assert_eq!(percentile(&[7], 1), 7);
        assert_eq!(median(&[7]), 7);
        assert_eq!(quiet(&[7]), 7);
        assert_eq!(percentile(&[7], 100), 7);
        assert_eq!(median_f64(&[7.5]), 7.5);
    }

    #[test]
    fn percentiles_are_raw_values_not_bucket_midpoints() {
        // 100 samples 1..=100: p99 is the 99th value exactly.
        let s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&s, 99), 99);
        assert_eq!(percentile(&s, 50), 50);
    }

    #[test]
    fn digest_separates_bodies() {
        let mut a = Digest::new();
        a.add(b"ab");
        a.add(b"c");
        let mut b = Digest::new();
        b.add(b"a");
        b.add(b"bc");
        assert_ne!(a.finish(), b.finish());
    }
}
