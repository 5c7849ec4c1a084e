//! The [`Recorder`] trait the simulators report into.

/// Sink for observability data, implemented by [`crate::Registry`];
/// simulators take `&dyn Recorder` so instrumentation costs one virtual
/// call when enabled and nothing structural when not wired at all.
///
/// All quantities are simulated or caller-defined — implementations must
/// not consult host clocks.
pub trait Recorder: Send + Sync {
    /// Add `delta` to the named monotonic counter (creating it at 0).
    fn add(&self, name: &str, delta: u64);

    /// Set the named gauge to `value`.
    fn gauge_set(&self, name: &str, value: u64);

    /// Raise the named gauge to `value` if `value` is larger (high-water
    /// marks: peak queue depth, widest strip).
    fn gauge_max(&self, name: &str, value: u64);

    /// Add several counter increments at once. Semantically identical to
    /// calling [`Recorder::add`] per entry; lock-based implementations
    /// override this to batch the whole slice under one acquisition, which
    /// is what keeps the engine's per-run flush cheap.
    fn add_many(&self, entries: &[(&str, u64)]) {
        for (name, delta) in entries {
            self.add(name, *delta);
        }
    }

    /// Record `count` occurrences of `value` into the named histogram
    /// (creating it empty). The weighted form is the primitive — the
    /// engine folds "N messages of B bytes" into one call instead of N.
    fn record_n(&self, name: &str, value: u64, count: u64);

    /// Record one occurrence of `value` into the named histogram.
    fn record(&self, name: &str, value: u64) {
        self.record_n(name, value, 1);
    }

    /// Record several weighted histogram samples `(name, value, count)`
    /// at once. Semantically identical to calling
    /// [`Recorder::record_n`] per entry; lock-based implementations
    /// override this to batch the whole slice under one acquisition —
    /// the same one-lock-per-batch discipline as [`Recorder::add_many`].
    fn record_many(&self, entries: &[(&str, u64, u64)]) {
        for (name, value, count) in entries {
            self.record_n(name, *value, *count);
        }
    }
}
