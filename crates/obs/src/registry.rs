//! The [`Registry`]: a thread-safe store of one run's counters, gauges
//! and histograms.
//!
//! One registry per observed run keeps parallel sweeps isolated: each
//! sweep cell builds its own registry inside the pool closure, so cells
//! never contend and per-cell counters stay exact. Storage is `BTreeMap`
//! under a single `Mutex` — iteration order is the sorted name order, so
//! every dump is deterministic (PVS005).

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::hist::Histogram;
use crate::recorder::Recorder;

/// What a snapshot entry *is*, which fixes how deltas treat it:
/// counters and histograms accumulate and subtract; gauges are
/// point-in-time readings and are reported as-is. Consumers that
/// dispatch on `Kind` (the serve telemetry plane does) cannot misread a
/// gauge as a counter when computing a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Counter,
    Gauge,
    Hist,
}

impl Kind {
    /// Wire name used in `pvs-obs/snapshot-v1` documents.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Hist => "hist",
        }
    }
}

/// Point-in-time copy of a registry's counters, gauges, and histograms,
/// each sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotonic counters `(name, value)`, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges `(name, value)`, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Histograms `(name, histogram)`, sorted by name.
    pub hists: Vec<(String, Histogram)>,
}

impl Snapshot {
    /// Value of a named counter in this snapshot (`None` if absent).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Value of a named gauge in this snapshot (`None` if absent).
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Named histogram in this snapshot (`None` if absent).
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Every entry name with its explicit [`Kind`], counters first, then
    /// gauges, then histograms, each group sorted by name.
    pub fn entries(&self) -> Vec<(String, Kind)> {
        let mut out = Vec::with_capacity(self.counters.len() + self.gauges.len() + self.hists.len());
        out.extend(self.counters.iter().map(|(n, _)| (n.clone(), Kind::Counter)));
        out.extend(self.gauges.iter().map(|(n, _)| (n.clone(), Kind::Gauge)));
        out.extend(self.hists.iter().map(|(n, _)| (n.clone(), Kind::Hist)));
        out
    }

    /// The change since `baseline`, dispatching per [`Kind`]: counters
    /// and histogram buckets subtract (an entry absent from the baseline
    /// contributes its full value); gauges are *never* subtracted — the
    /// delta carries their current reading, because a point-in-time
    /// value has no meaningful difference. This is the one place delta
    /// semantics are defined; `pvs-serve`'s `"mode":"delta"` stats path
    /// goes through here.
    pub fn delta_since(&self, baseline: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(n, v)| (n.clone(), v.saturating_sub(baseline.counter(n).unwrap_or(0))))
                .collect(),
            gauges: self.gauges.clone(),
            hists: self
                .hists
                .iter()
                .map(|(n, h)| match baseline.hist(n) {
                    Some(b) => (n.clone(), h.delta_since(b)),
                    None => (n.clone(), h.clone()),
                })
                .collect(),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
}

/// Thread-safe recorder that stores everything it is handed.
#[derive(Debug, Default)]
pub struct Registry {
    // LOCK ORDER: 30 — innermost of the cross-crate request path:
    // recorder calls are made under serve's flight map (tier 10), and
    // registry holders call nothing but BTreeMap/Histogram methods.
    inner: Mutex<Inner>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        // INFALLIBLE: registry holders only update plain maps and
        // counters — no user code runs while the lock is held.
        self.inner.lock().expect("obs registry poisoned")
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock_inner().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge (0 if never touched).
    pub fn gauge(&self, name: &str) -> u64 {
        self.lock_inner().gauges.get(name).copied().unwrap_or(0)
    }

    /// Current copy of a histogram (`None` if never touched).
    pub fn hist(&self, name: &str) -> Option<Histogram> {
        self.lock_inner().hists.get(name).cloned()
    }

    /// Sorted copy of all counters, gauges, and histograms.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock_inner();
        Snapshot {
            counters: inner.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            hists: inner.hists.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        }
    }
}

impl Recorder for Registry {
    fn add(&self, name: &str, delta: u64) {
        let mut inner = self.lock_inner();
        match inner.counters.get_mut(name) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                inner.counters.insert(name.to_string(), delta);
            }
        }
    }

    fn gauge_set(&self, name: &str, value: u64) {
        self.lock_inner().gauges.insert(name.to_string(), value);
    }

    fn gauge_max(&self, name: &str, value: u64) {
        let mut inner = self.lock_inner();
        match inner.gauges.get_mut(name) {
            Some(v) => *v = (*v).max(value),
            None => {
                inner.gauges.insert(name.to_string(), value);
            }
        }
    }

    fn record_n(&self, name: &str, value: u64, count: u64) {
        if count == 0 {
            return;
        }
        let mut inner = self.lock_inner();
        match inner.hists.get_mut(name) {
            Some(h) => h.accumulate(value, count),
            None => {
                let mut h = Histogram::new();
                h.accumulate(value, count);
                inner.hists.insert(name.to_string(), h);
            }
        }
    }

    fn record_many(&self, entries: &[(&str, u64, u64)]) {
        let mut inner = self.lock_inner();
        for (name, value, count) in entries {
            if *count == 0 {
                continue;
            }
            match inner.hists.get_mut(*name) {
                Some(h) => h.accumulate(*value, *count),
                None => {
                    let mut h = Histogram::new();
                    h.accumulate(*value, *count);
                    inner.hists.insert((*name).to_string(), h);
                }
            }
        }
    }

    fn add_many(&self, entries: &[(&str, u64)]) {
        let mut inner = self.lock_inner();
        for (name, delta) in entries {
            match inner.counters.get_mut(*name) {
                Some(v) => *v = v.saturating_add(*delta),
                None => {
                    inner.counters.insert((*name).to_string(), *delta);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        r.add("a.b.c", 3);
        r.add("a.b.c", 4);
        assert_eq!(r.counter("a.b.c"), 7);
        assert_eq!(r.counter("test.untouched"), 0);
    }

    #[test]
    fn counter_saturates_instead_of_overflowing() {
        let r = Registry::new();
        r.add("test.big", u64::MAX - 1);
        r.add("test.big", 10);
        assert_eq!(r.counter("test.big"), u64::MAX);
    }

    #[test]
    fn gauges_set_and_max() {
        let r = Registry::new();
        r.gauge_set("queue.depth", 5);
        r.gauge_max("queue.depth", 3); // lower: ignored
        assert_eq!(r.gauge("queue.depth"), 5);
        r.gauge_max("queue.depth", 9);
        assert_eq!(r.gauge("queue.depth"), 9);
        r.gauge_set("queue.depth", 1); // set always wins
        assert_eq!(r.gauge("queue.depth"), 1);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = Registry::new();
        r.add("z.last", 1);
        r.add("a.first", 2);
        r.add("m.middle", 3);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.first", "m.middle", "z.last"]);
    }

    #[test]
    fn snapshot_lookup_by_name() {
        let r = Registry::new();
        r.add("serve.cache.hits", 4);
        r.gauge_set("serve.queue.depth", 2);
        let snap = r.snapshot();
        assert_eq!(snap.counter("serve.cache.hits"), Some(4));
        assert_eq!(snap.counter("serve.cache.misses"), None);
        assert_eq!(snap.gauge("serve.queue.depth"), Some(2));
        assert_eq!(snap.gauge("test.absent.gauge"), None);
    }

    #[test]
    fn batched_paths_match_the_one_call_paths() {
        let a = Registry::new();
        a.add("test.x", 1);
        a.add("test.y", 2);
        a.add("test.x", 3);
        let b = Registry::new();
        b.add_many(&[("test.x", 1), ("test.y", 2), ("test.x", 3)]);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn histograms_accumulate_and_snapshot() {
        let r = Registry::new();
        r.record("test.hist.lat", 5);
        r.record_n("test.hist.lat", 100, 3);
        r.record_many(&[("test.hist.lat", 7, 1), ("test.hist.bytes", 64, 2)]);
        let h = r.hist("test.hist.lat").unwrap();
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5 + 300 + 7);
        let snap = r.snapshot();
        assert_eq!(snap.hist("test.hist.lat").unwrap().count(), 5);
        assert_eq!(snap.hist("test.hist.bytes").unwrap().count(), 2);
        assert!(snap.hist("test.hist.absent").is_none());
        assert!(r.hist("test.hist.absent").is_none());
    }

    #[test]
    fn batched_record_matches_single_calls() {
        let a = Registry::new();
        a.record("test.h", 3);
        a.record_n("test.h", 90, 2);
        a.record("test.other", 1);
        let b = Registry::new();
        b.record_many(&[("test.h", 3, 1), ("test.h", 90, 2), ("test.other", 1, 1)]);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn zero_count_records_do_not_create_histograms() {
        let r = Registry::new();
        r.record_n("test.h", 5, 0);
        r.record_many(&[("test.h", 5, 0)]);
        assert!(r.hist("test.h").is_none());
        assert!(r.snapshot().hists.is_empty());
    }

    #[test]
    fn snapshot_entries_carry_kinds() {
        let r = Registry::new();
        r.add("test.c", 1);
        r.gauge_set("test.g", 2);
        r.record("test.h", 3);
        let entries = r.snapshot().entries();
        assert_eq!(
            entries,
            vec![
                ("test.c".to_string(), Kind::Counter),
                ("test.g".to_string(), Kind::Gauge),
                ("test.h".to_string(), Kind::Hist),
            ]
        );
        assert_eq!(Kind::Counter.as_str(), "counter");
        assert_eq!(Kind::Gauge.as_str(), "gauge");
        assert_eq!(Kind::Hist.as_str(), "hist");
    }

    #[test]
    fn delta_subtracts_counters_but_not_gauges() {
        let r = Registry::new();
        r.add("test.c", 10);
        r.gauge_set("test.g", 7);
        r.record_n("test.h", 5, 4);
        let baseline = r.snapshot();
        r.add("test.c", 3);
        r.gauge_set("test.g", 2); // gauge *dropped* since baseline
        r.record("test.h", 5);
        let d = r.snapshot().delta_since(&baseline);
        assert_eq!(d.counter("test.c"), Some(3));
        // A gauge is a point-in-time reading: the delta reports the
        // current value, never current-minus-baseline (which would be
        // nonsense here: 2 - 7 underflows).
        assert_eq!(d.gauge("test.g"), Some(2));
        assert_eq!(d.hist("test.h").unwrap().count(), 1);
        // Delta against itself: all counters zero, hists empty.
        let now = r.snapshot();
        let z = now.delta_since(&now);
        assert!(z.counters.iter().all(|(_, v)| *v == 0));
        assert!(z.hists.iter().all(|(_, h)| h.is_empty()));
        assert_eq!(z.gauge("test.g"), Some(2));
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let r = Arc::new(Registry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.add("test.shared", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter("test.shared"), 8000);
    }
}
