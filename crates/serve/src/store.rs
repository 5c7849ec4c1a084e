//! The [`CellStore`]: cache, single-flight batching, admission control,
//! deadline propagation, and supervised recovery behind one `get` call —
//! the clock-free heart of the serving layer.
//!
//! Request flow:
//!
//! 1. **Validate** — malformed requests are rejected before touching any
//!    shared state.
//! 2. **Memory, then disk** — a hit returns the cached bytes untouched.
//!    Disk entries are checksum-verified before serving; a damaged entry
//!    is quarantined ([`crate::cache`]) and recomputed, never served.
//! 3. **Supervisor check** — a key that has panicked the simulation
//!    [`MAX_KEY_PANICS`] times is *poisoned*: it is served
//!    as a structured [`ServeError::Failed`] instead of re-running a
//!    crashing input forever.
//! 4. **Deadline** — a request carrying a budget
//!    ([`BudgetProbe`]) is checked at admission, while waiting on a
//!    flight, and at simulation dispatch; an exhausted budget returns
//!    [`ServeError::DeadlineExceeded`] naming the stage. Cache hits are
//!    probed *before* the budget, so a warm key always serves.
//! 5. **Single-flight** — concurrent misses on the same key coalesce
//!    onto one in-flight simulation: the first caller becomes the leader
//!    and submits the cell to the shared [`pvs_core::ThreadPool`];
//!    followers wait on the leader's flight and receive the same `Arc`'d
//!    bytes. N identical in-flight requests cost exactly one simulation.
//!    If the leader's simulation panics (or its deadline expires before
//!    dispatch), followers are *re-driven*: they loop back and elect a
//!    new leader rather than being stranded on a dead flight.
//! 6. **Admission control** — distinct in-flight simulations are capped
//!    at `max_pending`; a miss arriving at the cap is answered
//!    `overloaded` immediately — with a deterministic `retry_after_ms`
//!    hint derived from the queue depth — instead of growing an
//!    unbounded backlog. Cache hits (and followers of existing flights)
//!    are never rejected: the cap bounds *new work*, not traffic.
//!
//! Because a cell is a pure function of its key (the workspace's
//! determinism invariant), serving a cached body and recomputing it are
//! observably identical — byte-for-byte. The store records every
//! decision into a [`pvs_obs::Registry`] under `serve.*` names. This
//! module holds no clock: deadlines arrive as externally supplied
//! remaining-budget probes (the TCP edge builds them from its wall
//! clock; tests use deterministic countdowns).

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use pvs_core::engine::Engine;
use pvs_core::json::perf_report;
use pvs_core::ThreadPool;
use pvs_obs::{Recorder, Registry, Snapshot};

use crate::cache::{DiskRead, ShardedCache, DEFAULT_SHARDS};
use crate::workload::{Request, RequestError};

/// Remaining-deadline probe: returns how much budget the request has
/// left (`Duration::ZERO` = expired). The store itself never reads a
/// clock; callers that have one (the TCP edge) close over it, and tests
/// supply deterministic countdowns.
pub type BudgetProbe = Arc<dyn Fn() -> Duration + Send + Sync>;

/// How often a budgeted waiter re-checks its probe while parked on a
/// flight. Requests without a deadline block without polling.
const WAIT_POLL: Duration = Duration::from_millis(5);

/// Panics on the same key before the supervisor poisons it.
pub const MAX_KEY_PANICS: u32 = 3;

/// Re-drive attempts before a follower gives up on a key whose leaders
/// keep dying. Generous: each attempt either succeeds, poisons the key
/// (→ structured `failed`), or burns one of [`MAX_KEY_PANICS`], so the
/// loop converges long before this backstop.
const MAX_REDRIVES: u32 = 8;

/// Deterministic panic-injection knob for the supervisor's tests: the
/// simulation panics on keys containing `key_substring` until that key
/// has panicked `times` times. `times = 1` exercises follower re-drive
/// and recovery; `times = u32::MAX` exercises poison-pill retirement.
#[derive(Debug, Clone)]
pub struct PanicSpec {
    /// Substring of the 16-hex content address to target.
    pub key_substring: String,
    /// How many panics to inject before the key computes normally.
    pub times: u32,
}

/// Knobs for one store.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Worker threads for the simulation pool.
    pub threads: usize,
    /// Maximum distinct in-flight simulations before misses are
    /// rejected `overloaded`. `0` rejects every miss (useful in tests
    /// and as a drain mode); hits always serve.
    pub max_pending: usize,
    /// On-disk spill directory (`None` = memory only).
    pub spill_dir: Option<PathBuf>,
    /// Deterministic fault injection (test use only).
    pub panic_inject: Option<PanicSpec>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            threads: pvs_core::pool::default_threads(),
            max_pending: 64,
            spill_dir: None,
            panic_inject: None,
        }
    }
}

/// Where a served body came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSource {
    /// In-memory cache hit.
    Memory,
    /// Disk-spill hit (now promoted to memory).
    Disk,
    /// This request led the simulation.
    Computed,
    /// This request coalesced onto another request's simulation.
    Batched,
}

impl CellSource {
    /// Wire spelling (the response `source` field).
    pub fn as_str(self) -> &'static str {
        match self {
            CellSource::Memory => "memory",
            CellSource::Disk => "disk",
            CellSource::Computed => "computed",
            CellSource::Batched => "batched",
        }
    }
}

/// A successfully served cell.
#[derive(Debug, Clone)]
pub struct CellResponse {
    /// Content address (16 hex digits).
    pub key: String,
    /// The rendered model report — byte-identical to
    /// `pvs_core::json::perf_report` over a direct engine run.
    pub body: Arc<str>,
    /// How the store satisfied the request.
    pub source: CellSource,
}

/// Why a request was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request failed validation.
    BadRequest(RequestError),
    /// Admission control: too many distinct simulations in flight.
    Overloaded {
        /// Distinct in-flight simulations at rejection time.
        pending: usize,
        /// The configured cap.
        max: usize,
        /// Deterministic backoff hint: how long the client should wait
        /// before retrying, derived from the queue depth.
        retry_after_ms: u64,
    },
    /// The request's deadline budget ran out before a body was ready.
    DeadlineExceeded {
        /// Which stage observed the expiry: `"admission"`, `"wait"`, or
        /// `"dispatch"`.
        stage: &'static str,
    },
    /// The key is poisoned: its simulation panicked `panics` times and
    /// the supervisor retired it rather than re-running a crashing
    /// input forever.
    Failed {
        /// Panic count at retirement.
        panics: u32,
    },
    /// The simulation panicked (a bug, not a client error); the flight
    /// is failed so followers are not stranded.
    Internal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadRequest(e) => write!(f, "bad request: {e}"),
            ServeError::Overloaded { pending, max, retry_after_ms } => {
                write!(
                    f,
                    "overloaded: {pending} simulations in flight (max {max}), retry in {retry_after_ms} ms"
                )
            }
            ServeError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded at {stage}")
            }
            ServeError::Failed { panics } => {
                write!(f, "key poisoned after {panics} simulation panics")
            }
            ServeError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

/// Deterministic backoff hint for a rejection observed at `pending`
/// in-flight simulations: deeper queue, longer hint, capped at 2 s.
fn retry_after_ms(pending: usize) -> u64 {
    (20 * (pending as u64 + 1)).min(2_000)
}

/// How an in-flight simulation failed to produce a body.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FlightFail {
    /// The simulation panicked.
    Panicked(String),
    /// The supervisor had already poisoned the key (after this many
    /// panics) when the job reached the front of the pool queue.
    Poisoned(u32),
    /// The leader's deadline expired before the simulation dispatched,
    /// so no work was done.
    Abandoned,
}

/// One in-flight simulation that any number of requests may wait on.
#[derive(Debug, Default)]
struct Flight {
    // LOCK ORDER: 15 — leaf under the flight map: `fulfill`/`wait` take
    // it with no other serve lock held, and flight-map holders never
    // reach into a slot.
    slot: Mutex<Option<Result<Arc<str>, FlightFail>>>,
    done: Condvar,
}

impl Flight {
    fn fulfill(&self, result: Result<Arc<str>, FlightFail>) {
        // INFALLIBLE: slot holders only move a value — no user code
        // runs under the lock.
        *self.slot.lock().expect("flight slot poisoned") = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<Arc<str>, FlightFail> {
        // INFALLIBLE: see `fulfill`.
        let mut slot = self.slot.lock().expect("flight slot poisoned");
        loop {
            match &*slot {
                Some(result) => return result.clone(),
                // INFALLIBLE: waiting repoisons only on a panicked holder.
                None => slot = self.done.wait(slot).expect("flight wait"),
            }
        }
    }

    /// Wait with a deadline: `None` means the probe expired before the
    /// flight produced a result. The result is checked *before* the
    /// probe on every pass, so a fulfilled flight always wins a race
    /// against an expiring budget.
    fn wait_budgeted(&self, probe: &BudgetProbe) -> Option<Result<Arc<str>, FlightFail>> {
        // INFALLIBLE: see `fulfill`.
        let mut slot = self.slot.lock().expect("flight slot poisoned");
        loop {
            if let Some(result) = &*slot {
                return Some(result.clone());
            }
            if probe().is_zero() {
                return None;
            }
            // INFALLIBLE: waiting repoisons only on a panicked holder.
            slot = self.done.wait_timeout(slot, WAIT_POLL).expect("flight wait").0;
        }
    }
}

/// Panic bookkeeping for poison-pill detection.
#[derive(Debug, Default)]
struct SupervisorState {
    /// Panics observed per key.
    panics: BTreeMap<String, u32>,
    /// Keys retired after reaching [`MAX_KEY_PANICS`].
    failed: BTreeSet<String>,
}

/// The serving core. Share it across connection handlers with an `Arc`.
pub struct CellStore {
    cache: ShardedCache,
    pool: ThreadPool,
    // LOCK ORDER: 10 — outermost serve lock: `get` consults the cache
    // shards (tier 20) and the registry (tier 30) under it, so it must
    // sit below both in the order.
    flights: Mutex<BTreeMap<String, Arc<Flight>>>,
    max_pending: usize,
    panic_inject: Option<PanicSpec>,
    // LOCK ORDER: 12 — supervisor panic ledger. Always taken standalone
    // (never while holding the flight map or a slot); holders only
    // update the two maps before touching the registry (tier 30).
    supervisor: Mutex<SupervisorState>,
    registry: Arc<Registry>,
    // LOCK ORDER: 35 — stats delta baseline. Taken only in
    // `stats_snapshot`, strictly after the registry snapshot (tier 30)
    // has been materialized and released; nothing is acquired under it.
    stats_baseline: Mutex<Snapshot>,
}

impl std::fmt::Debug for CellStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellStore")
            .field("max_pending", &self.max_pending)
            .field("cached_cells", &self.cache.len())
            .finish_non_exhaustive()
    }
}

impl CellStore {
    /// Build a store from options. When a spill directory is configured
    /// this runs the warm-start integrity scan: every on-disk entry is
    /// checksum-verified, damaged or torn files are quarantined, and the
    /// outcome lands in `serve.store.verified` / `serve.store.quarantined`
    /// before the first request can arrive.
    pub fn new(options: StoreOptions) -> Self {
        let cache = ShardedCache::new(DEFAULT_SHARDS, options.spill_dir);
        let registry = Arc::new(Registry::new());
        let scan = cache.verify_spill();
        if scan.verified > 0 {
            registry.add("serve.store.verified", scan.verified);
        }
        if scan.quarantined > 0 {
            registry.add("serve.store.quarantined", scan.quarantined);
        }
        Self {
            cache,
            pool: ThreadPool::new(options.threads),
            flights: Mutex::new(BTreeMap::new()),
            max_pending: options.max_pending,
            panic_inject: options.panic_inject,
            supervisor: Mutex::new(SupervisorState::default()),
            registry,
            stats_baseline: Mutex::new(Snapshot::default()),
        }
    }

    /// The store's observability registry (`serve.*` counters/gauges).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// In-memory cache entries.
    pub fn cached_cells(&self) -> usize {
        self.cache.len()
    }

    /// Distinct simulations in flight right now.
    pub fn inflight(&self) -> usize {
        self.lock_flights().len()
    }

    /// Registry snapshot for a `stats` response. Cumulative mode copies
    /// the registry; delta mode reports the change since the previous
    /// delta request and advances the stored baseline, so consecutive
    /// delta snapshots tile the timeline without gaps or overlaps.
    pub fn stats_snapshot(&self, delta: bool) -> Snapshot {
        let now = self.registry.snapshot();
        if !delta {
            return now;
        }
        // Swap the stored baseline under the lock, but difference the
        // snapshots *outside* it: `delta_since` walks snapshot lookups
        // whose names the lock-order lint resolves against the (locking)
        // registry methods, and the baseline tier (35) sits above the
        // registry's (30).
        let prev = {
            // INFALLIBLE: baseline holders only swap a snapshot value.
            let mut baseline = self.stats_baseline.lock().expect("stats baseline poisoned");
            std::mem::replace(&mut *baseline, now.clone())
        };
        now.delta_since(&prev)
    }

    fn lock_flights(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Arc<Flight>>> {
        // INFALLIBLE: flight-map holders only update the map and gauges.
        self.flights.lock().expect("flight map poisoned")
    }

    fn lock_supervisor(&self) -> std::sync::MutexGuard<'_, SupervisorState> {
        // INFALLIBLE: supervisor holders only update the panic ledger.
        self.supervisor.lock().expect("supervisor poisoned")
    }

    /// Panics recorded so far for `key`.
    fn panics_so_far(&self, key: &str) -> u32 {
        self.lock_supervisor().panics.get(key).copied().unwrap_or(0)
    }

    /// If `key` is retired, its panic count at retirement.
    fn failed_panics(&self, key: &str) -> Option<u32> {
        let sup = self.lock_supervisor();
        sup.failed.contains(key).then(|| sup.panics.get(key).copied().unwrap_or(0))
    }

    /// Record one panic on `key`; retire the key once the count reaches
    /// [`MAX_KEY_PANICS`]. Returns the new count.
    fn note_panic(&self, key: &str) -> u32 {
        let poisoned;
        let count;
        {
            let mut sup = self.lock_supervisor();
            let entry = sup.panics.entry(key.to_string()).or_insert(0);
            *entry += 1;
            count = *entry;
            poisoned = count >= MAX_KEY_PANICS && sup.failed.insert(key.to_string());
        }
        if poisoned {
            self.registry.add("serve.supervisor.poisoned", 1);
        }
        count
    }

    /// Serve one request with no deadline. Blocks the calling thread
    /// until the body is available (or the request is rejected);
    /// concurrency comes from calling this from many connection threads
    /// at once.
    pub fn get(self: &Arc<Self>, request: &Request) -> Result<CellResponse, ServeError> {
        self.get_with_budget(request, None)
    }

    /// Serve one request, optionally bounded by a deadline budget. The
    /// probe is consulted at admission, while waiting on a flight, and
    /// at simulation dispatch; cache hits are served before the budget
    /// is ever consulted (a warm key costs nothing, so expiring it
    /// helps no one).
    pub fn get_with_budget(
        self: &Arc<Self>,
        request: &Request,
        budget: Option<BudgetProbe>,
    ) -> Result<CellResponse, ServeError> {
        self.registry.add("serve.requests", 1);
        if budget.is_some() {
            self.registry.add("serve.deadline.requests", 1);
        }
        let resolved = match request.resolve() {
            Ok(r) => r,
            Err(e) => {
                self.registry.add("serve.errors.bad_request", 1);
                return Err(ServeError::BadRequest(e));
            }
        };
        let key = request.key_hash();

        if let Some(body) = self.cache.get_memory(&key) {
            self.registry.add("serve.cache.hits", 1);
            return Ok(CellResponse { key, body, source: CellSource::Memory });
        }
        match self.cache.get_disk(&key) {
            DiskRead::Hit(body) => {
                self.registry.add("serve.cache.disk_hits", 1);
                return Ok(CellResponse { key, body, source: CellSource::Disk });
            }
            DiskRead::Corrupt => {
                // The entry was quarantined; fall through and recompute.
                self.registry.add("serve.store.corrupt", 1);
            }
            DiskRead::Miss => {}
        }

        // Miss: single-flight with supervised re-drive. Each pass either
        // returns, or (for a follower orphaned by a dead leader) loops
        // to elect a new one.
        let mut dead_flight: Option<Arc<Flight>> = None;
        for attempt in 0..=MAX_REDRIVES {
            if attempt > 0 {
                self.registry.add("serve.supervisor.redrives", 1);
            }
            if let Some(panics) = self.failed_panics(&key) {
                self.registry.add("serve.supervisor.failed_served", 1);
                return Err(ServeError::Failed { panics });
            }
            if let Some(probe) = &budget {
                if probe().is_zero() {
                    self.registry.add("serve.deadline.rejected", 1);
                    return Err(ServeError::DeadlineExceeded { stage: "admission" });
                }
            }

            let (flight, leader) = {
                let mut flights = self.lock_flights();
                // Double-check under the flight lock: a flight that
                // completed between the cache probe above and this lock
                // has already populated the cache, and must not be
                // recomputed.
                if let Some(body) = self.cache.get_memory(&key) {
                    self.registry.add("serve.cache.hits", 1);
                    return Ok(CellResponse { key, body, source: CellSource::Memory });
                }
                // A re-driving follower may observe the flight it just
                // watched die still in the map (the job removes it after
                // fulfilling); joining it again would spin. Evict it —
                // idempotent with the job's own cleanup.
                if let Some(dead) = &dead_flight {
                    if flights.get(&key).is_some_and(|f| Arc::ptr_eq(f, dead)) {
                        flights.remove(&key);
                    }
                }
                match flights.get(&key) {
                    Some(flight) => (Arc::clone(flight), false),
                    None => {
                        if flights.len() >= self.max_pending {
                            let pending = flights.len();
                            self.registry.add("serve.queue.rejected", 1);
                            return Err(ServeError::Overloaded {
                                pending,
                                max: self.max_pending,
                                retry_after_ms: retry_after_ms(pending),
                            });
                        }
                        let flight = Arc::new(Flight::default());
                        flights.insert(key.clone(), Arc::clone(&flight));
                        self.registry.gauge_set("serve.queue.depth", flights.len() as u64);
                        self.registry.gauge_max("serve.queue.peak_depth", flights.len() as u64);
                        (flight, true)
                    }
                }
            };

            if leader {
                self.registry.add("serve.cache.misses", 1);
                let store = Arc::clone(self);
                let flight_for_job = Arc::clone(&flight);
                let job_key = key.clone();
                let job_budget = budget.clone();
                let resolved = resolved.clone();
                self.pool.spawn(move || {
                    store.run_flight(job_key, resolved, flight_for_job, job_budget);
                });
            } else {
                self.registry.add("serve.cache.batched_misses", 1);
            }

            let outcome = match &budget {
                None => flight.wait(),
                Some(probe) => match flight.wait_budgeted(probe) {
                    Some(outcome) => outcome,
                    None => {
                        self.registry.add("serve.deadline.expired_wait", 1);
                        return Err(ServeError::DeadlineExceeded { stage: "wait" });
                    }
                },
            };
            match outcome {
                Ok(body) => {
                    return Ok(CellResponse {
                        key,
                        body,
                        source: if leader { CellSource::Computed } else { CellSource::Batched },
                    })
                }
                Err(FlightFail::Poisoned(panics)) => {
                    self.registry.add("serve.supervisor.failed_served", 1);
                    return Err(ServeError::Failed { panics });
                }
                Err(FlightFail::Panicked(msg)) if leader => {
                    // The leader's own simulation died; that is this
                    // request's definitive answer. Followers re-drive.
                    return Err(ServeError::Internal(msg));
                }
                Err(FlightFail::Abandoned) if leader => {
                    return Err(ServeError::DeadlineExceeded { stage: "dispatch" });
                }
                Err(FlightFail::Panicked(_) | FlightFail::Abandoned) => {
                    dead_flight = Some(flight);
                }
            }
        }
        self.registry.add("serve.errors.internal", 1);
        Err(ServeError::Internal(format!("gave up on {key} after {MAX_REDRIVES} re-drives")))
    }

    /// The pool-side half of a flight: run the simulation under
    /// `catch_unwind`, record the outcome, fulfill the flight, and
    /// retire it from the map. Ordering matters for determinism: the
    /// supervisor ledger is updated *before* waiters wake (so a
    /// re-driving follower always observes the panic that orphaned it),
    /// and the flight leaves the map last.
    fn run_flight(
        self: &Arc<Self>,
        key: String,
        resolved: crate::workload::ResolvedCell,
        flight: Arc<Flight>,
        budget: Option<BudgetProbe>,
    ) {
        let result = if let Some(panics) = self.failed_panics(&key) {
            // Poisoned while this job sat in the pool queue: answer
            // structurally, run nothing.
            Err(FlightFail::Poisoned(panics))
        } else if budget.as_ref().is_some_and(|probe| probe().is_zero()) {
            // The leader's budget died in the queue; don't burn a
            // simulation nobody is willing to wait for. Followers with
            // live budgets re-drive.
            self.registry.add("serve.deadline.abandoned", 1);
            Err(FlightFail::Abandoned)
        } else {
            let store = Arc::clone(self);
            let job_key = key.clone();
            let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                store.registry.add("serve.sim.runs", 1);
                if let Some(spec) = &store.panic_inject {
                    if job_key.contains(&spec.key_substring)
                        && store.panics_so_far(&job_key) < spec.times
                    {
                        // `resume_unwind` skips the panic hook: a planned
                        // panic unwinds like a real one but prints nothing,
                        // so no caller has to silence the process-global
                        // hook (and a genuine panic still reports).
                        std::panic::resume_unwind(Box::new(format!(
                            "injected panic for key {job_key}"
                        )));
                    }
                }
                let mut engine = Engine::new(resolved.machine);
                if let Some(adversity) = resolved.adversity {
                    engine = engine.with_adversity(adversity);
                }
                let report = engine.run(&resolved.phases, resolved.procs);
                let body: Arc<str> = perf_report(&report).into();
                if store.cache.insert(&job_key, Arc::clone(&body)).is_err() {
                    store.registry.add("serve.spill.errors", 1);
                }
                body
            }));
            match computed {
                Ok(body) => Ok(body),
                Err(_) => {
                    self.registry.add("serve.sim.panics", 1);
                    self.registry.add("serve.errors.internal", 1);
                    let count = self.note_panic(&key);
                    Err(FlightFail::Panicked(format!(
                        "simulation panicked ({count} panic{} on this key)",
                        if count == 1 { "" } else { "s" }
                    )))
                }
            }
        };
        flight.fulfill(result);
        let mut flights = self.lock_flights();
        flights.remove(&key);
        self.registry.gauge_set("serve.queue.depth", flights.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn store(options: StoreOptions) -> Arc<CellStore> {
        Arc::new(CellStore::new(options))
    }

    fn lbmhd() -> Request {
        Request::cell("LBMHD", "8192x8192", "ES", 64)
    }

    /// The bytes a direct engine run renders for `request`.
    fn direct(request: &Request) -> String {
        let cell = request.resolve().unwrap();
        perf_report(&Engine::new(cell.machine).run(&cell.phases, cell.procs))
    }

    /// Deterministic budget: reports `calls` nonzero probes, then zero
    /// forever. No wall clock involved.
    fn countdown(calls: u64) -> BudgetProbe {
        let left = AtomicU64::new(calls);
        Arc::new(move || {
            if left.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)).is_ok() {
                Duration::from_millis(1)
            } else {
                Duration::ZERO
            }
        })
    }

    #[test]
    fn miss_then_hit_serves_identical_bytes() {
        let s = store(StoreOptions { threads: 2, ..Default::default() });
        let first = s.get(&lbmhd()).unwrap();
        assert_eq!(first.source, CellSource::Computed);
        let second = s.get(&lbmhd()).unwrap();
        assert_eq!(second.source, CellSource::Memory);
        assert_eq!(first.body, second.body);
        assert_eq!(s.registry().counter("serve.sim.runs"), 1);
        assert_eq!(s.registry().counter("serve.cache.hits"), 1);
    }

    #[test]
    fn served_body_matches_direct_run_sweep_byte_for_byte() {
        let s = store(StoreOptions { threads: 2, ..Default::default() });
        let req = Request::cell("CACTUS", "250x64x64", "X1", 64);
        let served = s.get(&req).unwrap();
        assert_eq!(*served.body, direct(&req));
    }

    #[test]
    fn concurrent_identical_requests_cost_one_simulation() {
        let s = store(StoreOptions { threads: 4, ..Default::default() });
        let n = 8;
        let bodies: Vec<Arc<str>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    let s = Arc::clone(&s);
                    scope.spawn(move || s.get(&lbmhd()).unwrap().body)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(bodies.windows(2).all(|w| w[0] == w[1]));
        let snap = s.registry().snapshot();
        assert_eq!(snap.counter("serve.sim.runs"), Some(1), "{snap:?}");
        assert_eq!(snap.counter("serve.cache.misses"), Some(1));
        // Every non-leader either batched onto the flight or arrived
        // after completion and hit the cache.
        let batched = snap.counter("serve.cache.batched_misses").unwrap_or(0);
        let hits = snap.counter("serve.cache.hits").unwrap_or(0);
        assert_eq!(batched + hits, n - 1, "{snap:?}");
    }

    #[test]
    fn zero_max_pending_rejects_misses_but_serves_hits() {
        let warm = store(StoreOptions { threads: 2, ..Default::default() });
        let body = warm.get(&lbmhd()).unwrap().body;

        let s = store(StoreOptions { threads: 2, max_pending: 0, ..Default::default() });
        match s.get(&lbmhd()) {
            Err(ServeError::Overloaded { pending: 0, max: 0, retry_after_ms: 20 }) => {}
            other => panic!("expected overload, got {other:?}"),
        }
        assert_eq!(s.registry().counter("serve.queue.rejected"), 1);
        assert_eq!(s.registry().counter("serve.sim.runs"), 0);

        // Pre-seed the cache through the spill-free insert path and
        // confirm hits still serve at max_pending = 0.
        s.cache.insert(&lbmhd().key_hash(), Arc::clone(&body)).unwrap();
        let hit = s.get(&lbmhd()).unwrap();
        assert_eq!(hit.source, CellSource::Memory);
        assert_eq!(hit.body, body);
    }

    #[test]
    fn delta_snapshots_tile_the_timeline() {
        let s = store(StoreOptions { threads: 2, ..Default::default() });
        assert_eq!(s.inflight(), 0);
        s.get(&lbmhd()).unwrap();
        let d1 = s.stats_snapshot(true);
        assert_eq!(d1.counter("serve.sim.runs"), Some(1));
        // An immediate second delta covers an empty period.
        let d2 = s.stats_snapshot(true);
        assert_eq!(d2.counter("serve.sim.runs"), Some(0));
        s.get(&lbmhd()).unwrap();
        let d3 = s.stats_snapshot(true);
        assert_eq!(d3.counter("serve.cache.hits"), Some(1));
        assert_eq!(d3.counter("serve.sim.runs"), Some(0));
        // Cumulative mode never consults or moves the baseline. (No
        // `inflight() == 0` assert here: the leader's flight-map cleanup
        // runs on the pool thread after the body is delivered, so it may
        // still be pending when `get` returns.)
        assert_eq!(s.stats_snapshot(false).counter("serve.sim.runs"), Some(1));
    }

    #[test]
    fn bad_requests_never_touch_the_cache_or_pool() {
        let s = store(StoreOptions { threads: 1, ..Default::default() });
        let err = s.get(&Request::cell("LINPACK", "x", "ES", 64)).unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)));
        assert_eq!(s.registry().counter("serve.errors.bad_request"), 1);
        assert_eq!(s.registry().counter("serve.sim.runs"), 0);
        assert_eq!(s.cached_cells(), 0);
    }

    #[test]
    fn disk_spill_survives_a_store_restart() {
        let dir = std::env::temp_dir().join(format!("pvs_serve_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = || StoreOptions {
            threads: 2,
            spill_dir: Some(dir.clone()),
            ..Default::default()
        };
        let first = store(opts());
        let body = first.get(&lbmhd()).unwrap().body;
        drop(first);

        let second = store(opts());
        assert_eq!(second.registry().counter("serve.store.verified"), 1);
        assert_eq!(second.registry().counter("serve.store.quarantined"), 0);
        let served = second.get(&lbmhd()).unwrap();
        assert_eq!(served.source, CellSource::Disk);
        assert_eq!(served.body, body);
        assert_eq!(second.registry().counter("serve.sim.runs"), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_spill_entry_is_quarantined_and_recomputed_identically() {
        // A torn write, media decay, and a foreign file under our name.
        type Damage = fn(&mut Vec<u8>);
        let damages: [(&str, Damage); 3] = [
            ("truncated", |b| b.truncate(b.len() / 2)),
            ("bit-flipped", |b| {
                let last = b.len() - 1;
                b[last] ^= 0x04;
            }),
            ("garbage-header", |b| {
                b.splice(0..0, *b"pvs-serve/not-a-cell 0 0\n");
            }),
        ];
        for (name, damage) in damages {
            let dir = std::env::temp_dir()
                .join(format!("pvs_serve_corrupt_{}_{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let opts = || StoreOptions {
                threads: 2,
                spill_dir: Some(dir.clone()),
                ..Default::default()
            };
            let first = store(opts());
            let body = first.get(&lbmhd()).unwrap().body;
            drop(first);

            let file = format!("{}.cell", lbmhd().key_hash());
            let mut bytes = std::fs::read(dir.join(&file)).unwrap();
            damage(&mut bytes);
            std::fs::write(dir.join(&file), &bytes).unwrap();

            // Warm start quarantines it...
            let second = store(opts());
            assert_eq!(second.registry().counter("serve.store.quarantined"), 1, "{name}");
            assert_eq!(second.registry().counter("serve.store.verified"), 0, "{name}");
            assert!(dir.join("quarantine").join(&file).exists(), "{name}");
            // ...and the recomputed body is byte-identical to the original.
            let served = second.get(&lbmhd()).unwrap();
            assert_eq!(served.source, CellSource::Computed, "{name}");
            assert_eq!(served.body, body, "{name}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn runtime_corruption_is_detected_and_never_served() {
        let dir = std::env::temp_dir().join(format!("pvs_serve_runtime_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = || StoreOptions {
            threads: 2,
            spill_dir: Some(dir.clone()),
            ..Default::default()
        };
        let first = store(opts());
        let body = first.get(&lbmhd()).unwrap().body;

        // Corrupt the entry *after* this store's warm-start scan, and
        // evict it from memory by using a fresh store built before the
        // corruption is visible on disk... simplest honest setup: a new
        // store whose scan we bypass by corrupting afterwards.
        let second = store(opts());
        let path = dir.join(format!("{}.cell", lbmhd().key_hash()));
        std::fs::write(&path, b"garbage, not a spill cell").unwrap();

        let served = second.get(&lbmhd()).unwrap();
        assert_eq!(second.registry().counter("serve.store.corrupt"), 1);
        assert_eq!(served.source, CellSource::Computed);
        assert_eq!(served.body, body, "recompute must be byte-identical");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn expired_budget_is_rejected_at_admission_but_hits_still_serve() {
        let s = store(StoreOptions { threads: 2, ..Default::default() });
        let err = s.get_with_budget(&lbmhd(), Some(countdown(0))).unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded { stage: "admission" });
        assert_eq!(s.registry().counter("serve.deadline.requests"), 1);
        assert_eq!(s.registry().counter("serve.deadline.rejected"), 1);
        assert_eq!(s.registry().counter("serve.sim.runs"), 0);

        // Warm the key without a deadline, then prove a zero budget
        // still serves the hit: cache probes precede the budget check.
        s.get(&lbmhd()).unwrap();
        let hit = s.get_with_budget(&lbmhd(), Some(countdown(0))).unwrap();
        assert_eq!(hit.source, CellSource::Memory);
        assert_eq!(s.registry().counter("serve.deadline.rejected"), 1);
    }

    #[test]
    fn budget_expiring_in_the_queue_abandons_the_simulation() {
        let s = store(StoreOptions { threads: 2, ..Default::default() });
        // One nonzero probe (admission), zero ever after: the job's
        // dispatch check must abandon without running the engine.
        let err = s.get_with_budget(&lbmhd(), Some(countdown(1))).unwrap_err();
        assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "{err:?}");
        // The caller may return (via its own expired wait) before the
        // pool job observes the dead budget; the flight leaves the map
        // only after the job runs, so drain it before asserting.
        while s.inflight() != 0 {
            std::thread::yield_now();
        }
        assert_eq!(s.registry().counter("serve.deadline.abandoned"), 1);
        assert_eq!(s.registry().counter("serve.sim.runs"), 0);
        // The abandoned flight leaves no residue: the next request, with
        // a budget that outlives the run, computes the exact bytes.
        let served = s.get_with_budget(&lbmhd(), Some(countdown(1_000_000))).unwrap();
        assert_eq!(served.source, CellSource::Computed);
        assert_eq!(*served.body, direct(&lbmhd()));
        assert_eq!(s.registry().counter("serve.sim.runs"), 1);
        assert_eq!(s.registry().counter("serve.deadline.requests"), 2);
    }

    #[test]
    fn budget_expiring_while_waiting_on_a_stranger_flight_is_structured() {
        let s = store(StoreOptions { threads: 1, ..Default::default() });
        // Park a never-completing flight on the key, then join it with a
        // finite budget: the waiter must time out structurally.
        let key = lbmhd().key_hash();
        s.lock_flights().insert(key, Arc::new(Flight::default()));
        let err = s.get_with_budget(&lbmhd(), Some(countdown(3))).unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded { stage: "wait" });
        assert_eq!(s.registry().counter("serve.deadline.expired_wait"), 1);
        assert_eq!(s.registry().counter("serve.cache.batched_misses"), 1);
    }

    #[test]
    fn panicking_key_is_poisoned_after_max_key_panics() {
        let key = lbmhd().key_hash();
        let s = store(StoreOptions {
            threads: 1,
            panic_inject: Some(PanicSpec { key_substring: key.clone(), times: u32::MAX }),
            ..Default::default()
        });
        for attempt in 0..MAX_KEY_PANICS {
            let err = s.get(&lbmhd()).unwrap_err();
            assert!(matches!(err, ServeError::Internal(_)), "{attempt}: {err:?}");
        }
        // The key is now retired: served structurally, no more sim runs.
        for _ in 0..2 {
            assert_eq!(s.get(&lbmhd()).unwrap_err(), ServeError::Failed { panics: MAX_KEY_PANICS });
        }
        let snap = s.registry().snapshot();
        let panics = Some(u64::from(MAX_KEY_PANICS));
        assert_eq!(snap.counter("serve.sim.panics"), panics, "{snap:?}");
        assert_eq!(snap.counter("serve.sim.runs"), panics);
        assert_eq!(snap.counter("serve.errors.internal"), panics);
        assert_eq!(snap.counter("serve.supervisor.poisoned"), Some(1));
        assert_eq!(snap.counter("serve.supervisor.failed_served"), Some(2));
        // Other keys are untouched by the poisoning.
        let gtc = Request::cell("GTC", "100 part/cell", "ES", 64);
        assert_eq!(*s.get(&gtc).unwrap().body, direct(&gtc));
    }

    /// Planned panics unwind through `resume_unwind`, which never runs
    /// the panic hook — so these tests never touch the process-global
    /// hook, and a genuine panic still reports. A probe
    /// that forwards everything but its own two markers sees the genuine
    /// panic and none of the injected ones.
    #[test]
    fn injected_panics_bypass_the_panic_hook_and_genuine_ones_do_not() {
        const GENUINE: &str = "probe: a genuine panic";
        let planned = Arc::new(AtomicU64::new(0));
        let genuine = Arc::new(AtomicU64::new(0));
        let previous = Arc::new(std::panic::take_hook());
        std::panic::set_hook({
            let (planned, genuine, previous) = (planned.clone(), genuine.clone(), previous.clone());
            Box::new(move |info| match info.payload_as_str() {
                Some(message) if message.contains("injected panic") => {
                    planned.fetch_add(1, Ordering::SeqCst);
                }
                Some(GENUINE) => {
                    genuine.fetch_add(1, Ordering::SeqCst);
                }
                _ => previous(info),
            })
        });
        let s = store(StoreOptions {
            threads: 1,
            panic_inject: Some(PanicSpec { key_substring: lbmhd().key_hash(), times: 1 }),
            ..Default::default()
        });
        let injected = s.get(&lbmhd());
        let caught = std::panic::catch_unwind(|| panic!("{GENUINE}"));
        drop(std::panic::take_hook());
        std::panic::set_hook(Arc::into_inner(previous).expect("the probe was the other owner"));
        assert!(matches!(injected, Err(ServeError::Internal(_))), "{injected:?}");
        assert!(caught.is_err());
        assert_eq!(s.registry().counter("serve.sim.panics"), 1);
        assert_eq!(planned.load(Ordering::SeqCst), 0, "a planned panic reached the hook");
        assert_eq!(genuine.load(Ordering::SeqCst), 1, "a genuine panic did not");
    }

    #[test]
    fn followers_redrive_past_a_panicked_leader_and_recover() {
        let key = lbmhd().key_hash();
        let s = store(StoreOptions {
            threads: 4,
            // Exactly one injected panic, then the key computes fine.
            panic_inject: Some(PanicSpec { key_substring: key, times: 1 }),
            ..Default::default()
        });
        let results: Vec<Result<CellResponse, ServeError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let s = Arc::clone(&s);
                    scope.spawn(move || s.get(&lbmhd()))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Exactly one caller led the panicking flight and got the
        // structured internal error; everyone else recovered (re-drive
        // or arrived after the recomputed body hit the cache).
        let failed = results.iter().filter(|r| r.is_err()).count();
        assert_eq!(failed, 1, "{results:?}");
        let direct = direct(&lbmhd());
        for r in results.iter().flatten() {
            assert_eq!(*r.body, direct, "recovered bodies must be byte-identical");
        }
        assert_eq!(s.registry().counter("serve.sim.panics"), 1);
        assert_eq!(s.registry().counter("serve.supervisor.poisoned"), 0);
        // And the store is fully healthy afterwards.
        assert_eq!(s.get(&lbmhd()).unwrap().source, CellSource::Memory);
    }

    #[test]
    fn faulted_and_healthy_cells_are_distinct_entries() {
        let s = store(StoreOptions { threads: 2, ..Default::default() });
        let healthy = s.get(&lbmhd()).unwrap();
        let mut faulty_req = lbmhd();
        faulty_req.faults = Some(crate::workload::FaultSpec { seed: 3, events: 8 });
        let faulty = s.get(&faulty_req).unwrap();
        assert_ne!(healthy.key, faulty.key);
        assert_eq!(s.registry().counter("serve.sim.runs"), 2);
        // Damage must actually change the model output.
        assert_ne!(healthy.body, faulty.body);
        // And the faulty cell is itself deterministic.
        assert_eq!(s.get(&faulty_req).unwrap().body, faulty.body);
    }

    #[test]
    fn faulted_served_bodies_are_pinned() {
        // FNV-1a of the served body for `fault_seed 7`, `fault_events 8`
        // at P = 64: hard link failures on the X1 torus, the same draws
        // downgraded to derates on the ES crossbar and Power3's fat-tree.
        // No baseline serves a faulted cell, so these hold the seeded
        // damage generator and the damaged network to their bytes.
        let pins = [
            ("LBMHD", "8192x8192", "X1", "1b8e038707514d05"),
            ("PARATEC", "432 atom", "X1", "3a4135dc3c2aba5b"),
            ("LBMHD", "8192x8192", "ES", "94dbce76eb149410"),
            ("PARATEC", "432 atom", "ES", "f85ea8194662ce17"),
            ("LBMHD", "8192x8192", "Power3", "50e10b13f36df7b5"),
            ("PARATEC", "432 atom", "Power3", "8636fe808f019deb"),
        ];
        let s = store(StoreOptions { threads: 2, ..Default::default() });
        for (app, config, machine, pin) in pins {
            let request = Request {
                faults: Some(crate::workload::FaultSpec { seed: 7, events: 8 }),
                ..Request::cell(app, config, machine, 64)
            };
            let adversity = request.resolve().unwrap().adversity.unwrap();
            assert_eq!(
                adversity.net.failed_links.is_empty(),
                machine != "X1",
                "{machine}: {adversity:?}"
            );
            assert!(!adversity.net.degraded_links.is_empty(), "{machine}: {adversity:?}");
            let body = s.get(&request).unwrap().body;
            assert_eq!(
                pvs_core::hash::fnv1a_hex(body.as_bytes()),
                pin,
                "{app} {config} {machine}"
            );
        }
    }

    #[test]
    fn retry_hint_grows_with_queue_depth_and_caps() {
        assert_eq!(retry_after_ms(0), 20);
        assert_eq!(retry_after_ms(9), 200);
        assert_eq!(retry_after_ms(10_000), 2_000);
    }
}
