//! Hammer one shared [`Registry`] from many threads at once.
//!
//! The parallel sweep executor gives every cell its own registry, so
//! nothing in production shares one across threads today — but the type
//! promises thread-safety (`Recorder: Send + Sync`, one mutex inside),
//! and this test keeps that promise honest: concurrent `add_many`
//! batches from `PVS_THREADS` workers must lose no updates and leave
//! totals exactly equal to the per-thread sums.

use std::sync::Arc;

use pvs_obs::{Recorder, Registry};

/// Worker count: `PVS_THREADS` when set to a positive integer (the same
/// variable the sweep pool honors), 8 otherwise.
fn worker_count() -> usize {
    std::env::var("PVS_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(8)
}

const BATCHES_PER_WORKER: usize = 200;

#[test]
fn concurrent_batches_lose_nothing() {
    let workers = worker_count();
    let r = Arc::new(Registry::new());
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                for batch in 0..BATCHES_PER_WORKER {
                    // Shared counters contended by every worker, plus one
                    // per-worker counter whose final value is predictable
                    // per thread.
                    r.add_many(&[
                        ("test.shared.events", 3),
                        ("test.shared.bytes", 10),
                        ("test.shared.events", 1),
                    ]);
                    r.add(&format!("test.worker.{w}.batches"), 1);
                    r.gauge_max("test.peak.batch", (w * BATCHES_PER_WORKER + batch) as u64);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let total_batches = (workers * BATCHES_PER_WORKER) as u64;
    assert_eq!(r.counter("test.shared.events"), 4 * total_batches);
    assert_eq!(r.counter("test.shared.bytes"), 10 * total_batches);
    for w in 0..workers {
        assert_eq!(
            r.counter(&format!("test.worker.{w}.batches")),
            BATCHES_PER_WORKER as u64,
            "worker {w}"
        );
    }
    // gauge_max saw every candidate exactly once; the max survives.
    assert_eq!(
        r.gauge("test.peak.batch"),
        (workers * BATCHES_PER_WORKER - 1) as u64
    );
}
