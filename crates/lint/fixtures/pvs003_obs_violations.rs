// What pvs-obs must never become: a recorder that consults host clocks.
// Recorded values are opaque and caller-supplied (the engine passes
// simulated quantities); the moment the observability layer reaches for
// Instant or SystemTime, counters stop being a pure function of the
// simulated inputs and PVS003 fires.

use std::time::Instant;

pub struct WallClockRecorder {
    started: Instant,
}

impl WallClockRecorder {
    pub fn begin_ticks(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    pub fn stamp() -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
    }
}
