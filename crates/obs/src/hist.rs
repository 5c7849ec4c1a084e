//! Deterministic log2-bucketed [`Histogram`] with sub-bucket resolution.
//!
//! The layout is HdrHistogram-style: values below
//! [`Histogram::SUB_BUCKET_COUNT`] land in unit-width buckets and are
//! *exactly* representable; larger values share an octave split into
//! [`Histogram::SUB_BUCKET_HALF`] sub-buckets, bounding relative error
//! at `1/SUB_BUCKET_HALF` (~3.1%). Count and sum are exact regardless of
//! bucketing. Storage is a sparse `BTreeMap` keyed by bucket index, so
//! iteration is sorted and every dump is deterministic (PVS005), and an
//! idle histogram costs nothing.
//!
//! Everything is integer arithmetic — quantiles are nearest-rank with
//! the rank computed as `ceil(count * p / 100)`, so results are
//! byte-identical across hosts and thread counts. Recording order never
//! matters: a histogram's state is a pure function of the multiset of
//! recorded values, which is what lets the engine batch per-run values
//! through [`crate::Recorder::record_many`] from any worker.

use std::collections::BTreeMap;

/// Sparse, mergeable, integer-only value-distribution sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Nonzero bucket counts keyed by bucket index (sorted).
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u64,
    /// Exact extrema; `min` holds `u64::MAX` while empty so that merge
    /// and equality behave without a separate emptiness flag.
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: BTreeMap::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Point summary of a histogram: exact count/sum/extrema plus
/// nearest-rank quantiles. This is the shape serialized into
/// `pvs-obs/snapshot-v1` documents and `BENCH_serve.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistSummary {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

impl Histogram {
    /// Bits of sub-bucket resolution per octave.
    const SUB_BUCKET_BITS: u32 = 6;
    /// Values below this are exactly representable (unit-width buckets).
    pub const SUB_BUCKET_COUNT: u64 = 1 << Self::SUB_BUCKET_BITS;
    /// Sub-buckets per octave above the exact range.
    pub const SUB_BUCKET_HALF: u64 = Self::SUB_BUCKET_COUNT / 2;

    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a value.
    fn index_of(value: u64) -> u32 {
        if value < Self::SUB_BUCKET_COUNT {
            return value as u32;
        }
        let msb = 63 - value.leading_zeros();
        // Octave number, 1-based above the exact range: values in
        // [2^(bits+b-1), 2^(bits+b)) belong to octave b.
        let octave = msb - (Self::SUB_BUCKET_BITS - 1);
        let sub = (value >> octave) as u32 - Self::SUB_BUCKET_HALF as u32;
        Self::SUB_BUCKET_COUNT as u32 + (octave - 1) * Self::SUB_BUCKET_HALF as u32 + sub
    }

    /// Lowest value mapping to bucket `index` — the representative used
    /// for quantiles, so a quantile never exceeds any recorded value in
    /// its bucket.
    fn value_of(index: u32) -> u64 {
        if u64::from(index) < Self::SUB_BUCKET_COUNT {
            return u64::from(index);
        }
        let rel = index - Self::SUB_BUCKET_COUNT as u32;
        let octave = rel / Self::SUB_BUCKET_HALF as u32 + 1;
        let sub = u64::from(rel % Self::SUB_BUCKET_HALF as u32);
        (Self::SUB_BUCKET_HALF + sub) << octave
    }

    /// Record one occurrence of `value`.
    pub fn record(&mut self, value: u64) {
        self.accumulate(value, 1);
    }

    /// Record `count` occurrences of `value` in one step. Equivalent to
    /// `count` calls to [`Histogram::record`]; this weighted form is what
    /// the engine uses to fold a whole phase into a histogram without a
    /// per-message loop.
    pub fn record_n(&mut self, value: u64, count: u64) {
        self.accumulate(value, count);
    }

    /// The shared accumulation path behind [`Histogram::record`] and
    /// [`Histogram::record_n`]. Registry holders call this name — not
    /// `record_n`, which the `Recorder` trait also uses for its (locking)
    /// registry method — so the lock-order lint's name-based call graph
    /// never sees a registry lock feeding back into itself.
    pub fn accumulate(&mut self, value: u64, count: u64) {
        if count == 0 {
            return;
        }
        let slot = self.buckets.entry(Self::index_of(value)).or_insert(0);
        *slot = slot.saturating_add(count);
        self.count = self.count.saturating_add(count);
        self.sum = self.sum.saturating_add(value.saturating_mul(count));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total recorded occurrences (exact).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (exact, saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Nearest-rank percentile, `p` in `0..=100`: the value whose
    /// cumulative count first reaches `ceil(count * p / 100)` (rank
    /// clamped to at least 1). Integer arithmetic throughout; values in
    /// the exact range come back verbatim, larger ones as their bucket's
    /// lower bound. Returns 0 on an empty histogram.
    pub fn percentile(&self, p: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.min(100);
        // ceil(count * p / 100), computed in u128 to survive huge counts.
        let rank = ((u128::from(self.count) * u128::from(p)).div_ceil(100)).max(1);
        let mut seen: u128 = 0;
        for (&idx, &n) in &self.buckets {
            seen += u128::from(n);
            if seen >= rank {
                return Self::value_of(idx);
            }
        }
        // INFALLIBLE-by-construction: bucket counts sum to `count` and
        // rank <= count, so the loop always returns. Saturated counters
        // could break the invariant; fall back to the max.
        self.max
    }

    /// Exact count/sum/extrema plus p50/p90/p99.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max(),
            p50: self.percentile(50),
            p90: self.percentile(90),
            p99: self.percentile(99),
        }
    }

    /// Fold `other` into `self` bucket-by-bucket. Exact fields merge
    /// exactly; the result equals recording both value multisets into
    /// one histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (&idx, &n) in &other.buckets {
            let slot = self.buckets.entry(idx).or_insert(0);
            *slot = slot.saturating_add(n);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The histogram of everything recorded since `baseline` was cloned
    /// from this histogram's past. Buckets, count, and sum subtract
    /// exactly; extrema are only known to bucket resolution in the delta
    /// (the exact min/max of the *period* were never stored), so they are
    /// recomputed from the surviving buckets' representative values.
    pub fn delta_since(&self, baseline: &Histogram) -> Histogram {
        let mut buckets = BTreeMap::new();
        for (&idx, &n) in &self.buckets {
            let base = baseline.buckets.get(&idx).copied().unwrap_or(0);
            let d = n.saturating_sub(base);
            if d > 0 {
                buckets.insert(idx, d);
            }
        }
        let (min, max) = match (buckets.keys().next(), buckets.keys().next_back()) {
            (Some(&lo), Some(&hi)) => (Self::value_of(lo), Self::value_of(hi)),
            _ => (u64::MAX, 0),
        };
        Histogram {
            buckets,
            count: self.count.saturating_sub(baseline.count),
            sum: self.sum.saturating_sub(baseline.sum),
            min,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..Histogram::SUB_BUCKET_COUNT {
            let mut h = Histogram::new();
            h.record(v);
            assert_eq!(h.percentile(50), v);
            assert_eq!(h.min(), v);
            assert_eq!(h.max(), v);
        }
    }

    #[test]
    fn large_values_land_within_one_sub_bucket() {
        for &v in &[64u64, 100, 1000, 65_535, 1 << 32, u64::MAX] {
            let mut h = Histogram::new();
            h.record(v);
            let q = h.percentile(50);
            assert!(q <= v, "representative {q} above recorded {v}");
            // Lower bound within one sub-bucket width of the value.
            let octave = 63 - v.leading_zeros();
            let width = 1u64 << (octave - (Histogram::SUB_BUCKET_BITS - 1));
            assert!(v - q < width, "{v}: rep {q} off by >= width {width}");
        }
    }

    #[test]
    fn count_and_sum_are_exact() {
        let mut h = Histogram::new();
        h.record_n(7, 3);
        h.record(1_000_000);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 21 + 1_000_000);
        assert_eq!(h.min(), 7);
        assert_eq!(h.max(), 1_000_000);
    }

    #[test]
    fn nearest_rank_odd_count() {
        // 5 samples: rank(50) = ceil(2.5) = 3 -> the true median.
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5] {
            h.record(v);
        }
        assert_eq!(h.percentile(50), 3);
        assert_eq!(h.percentile(90), 5);
        assert_eq!(h.percentile(99), 5);
        assert_eq!(h.percentile(100), 5);
        assert_eq!(h.percentile(0), 1); // rank clamps to 1
    }

    #[test]
    fn nearest_rank_even_count() {
        // 4 samples: rank(50) = 2 -> lower-middle, by nearest-rank
        // definition (contrast with the averaging median in pvs-bench).
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.percentile(50), 20);
        assert_eq!(h.percentile(75), 30);
        assert_eq!(h.percentile(90), 40);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.summary(), HistSummary::default());
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut a = Histogram::new();
        a.record_n(42, 5);
        a.record_n(128, 2);
        let mut b = Histogram::new();
        for _ in 0..5 {
            b.record(42);
        }
        for _ in 0..2 {
            b.record(128);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn merge_matches_single_histogram() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in [3u64, 70, 900, 3] {
            a.record(v);
            whole.record(v);
        }
        for v in [5u64, 70, 1 << 20] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn merge_order_does_not_matter() {
        let parts: Vec<Vec<u64>> = vec![vec![1, 500, 9], vec![64, 64, 2], vec![1 << 30]];
        let mut fwd = Histogram::new();
        for p in &parts {
            let mut h = Histogram::new();
            for &v in p {
                h.record(v);
            }
            fwd.merge(&h);
        }
        let mut rev = Histogram::new();
        for p in parts.iter().rev() {
            let mut h = Histogram::new();
            for &v in p {
                h.record(v);
            }
            rev.merge(&h);
        }
        assert_eq!(fwd, rev);
    }

    #[test]
    fn delta_since_isolates_the_period() {
        let mut h = Histogram::new();
        h.record(5);
        h.record(100);
        let baseline = h.clone();
        h.record(5);
        h.record(7);
        let d = h.delta_since(&baseline);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 12);
        assert_eq!(d.percentile(50), 5);
        assert_eq!(d.min(), 5);
        assert_eq!(d.max(), 7);
        // Delta against itself is empty.
        let z = h.delta_since(&h);
        assert!(z.is_empty());
        assert_eq!(z, Histogram::new());
    }

    #[test]
    fn summary_reports_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.min, 1);
        assert_eq!(s.p50, 50);
        // 90 and 99 are above the exact range; representatives are the
        // bucket lower bounds at or below the true rank values.
        assert!(s.p90 <= 90 && s.p90 >= 88, "p90 = {}", s.p90);
        assert!(s.p99 <= 99 && s.p99 >= 96, "p99 = {}", s.p99);
        assert_eq!(s.max, 100);
    }

    #[test]
    fn bucket_index_round_trips_lower_bounds() {
        for idx in 0..1920u32 {
            let v = Histogram::value_of(idx);
            assert_eq!(Histogram::index_of(v), idx, "lower bound of {idx}");
        }
        assert_eq!(Histogram::index_of(u64::MAX), Histogram::index_of(u64::MAX - 1));
    }
}
