//! Two std-only executors with deterministic result ordering:
//! [`map_slice`] and the long-lived [`ThreadPool`].
//!
//! The paper's evaluation is a grid — 4 applications × 5 machines × many
//! processor counts — and every cell is an independent `Engine::run`.
//! [`map_slice`] fans one such batch out across host cores: the caller is
//! worker 0, and each thread claims the next index from one atomic
//! counter. Its helpers are process-wide: spawned on demand up to the
//! largest `threads − 1` any call has asked for, parked on a condvar
//! between calls, and joined to a batch through a queue of posted
//! batches, so a sweep pass spawns no thread once the first pass has.
//! [`ThreadPool`] keeps its own workers for fire-and-forget jobs (the
//! serve store) and counts tasks per worker (profile, chaos). Both give
//! the same two guarantees, which make a parallel batch drop-in for the
//! serial one:
//!
//! * **Deterministic ordering** — results come back in input order
//!   regardless of which worker finished first, so table and figure
//!   output is byte-identical to the serial path.
//! * **Panic propagation** — a panic inside a task is captured and
//!   re-raised on the caller's thread once all tasks of the batch have
//!   drained (the earliest-indexed panic wins, again deterministically).
//!
//! No external crates. Both balance ragged task durations the same way:
//! an idle thread takes the next task the moment it finishes one. The
//! pool's queue is a `Mutex<VecDeque>` woken by a `Condvar`, with
//! completion counted under a per-batch lock. A [`map_slice`] caller
//! waits only for the helpers that joined its batch before it ran out of
//! items; one that arrives later finds the batch closed and does nothing,
//! so nested and concurrent calls cannot deadlock on busy helpers.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
    /// High-water mark of `jobs.len()`, maintained on push.
    peak_depth: usize,
}

struct Shared {
    // LOCK ORDER: 40 — the pool's job queue. Jobs themselves run with
    // no guard held (`worker_loop` drops it before invoking), so queue
    // holders only touch the VecDeque and the condvar.
    queue: Mutex<Queue>,
    /// Signalled when a job is pushed or shutdown begins.
    work_ready: Condvar,
    /// Tasks claimed by each worker, indexed by worker id. Incremented at
    /// pop time (before the job runs), so once a batch has drained the
    /// sum equals the number of jobs submitted.
    worker_tasks: Vec<AtomicU64>,
    /// Fault injection: worker `i` exits after claiming `retire_quota[i]`
    /// tasks (`None` = immortal). Because the queue is shared, work a
    /// retired worker would have claimed redistributes to the survivors
    /// and `map` results are unchanged.
    retire_quota: Vec<Option<u64>>,
    /// Workers that have hit their quota and exited.
    retired_workers: AtomicU64,
}

/// The pool. Dropping it drains outstanding jobs and joins the workers.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// Number of worker threads to use by default: the `PVS_THREADS`
/// environment variable if set to a positive integer, otherwise the
/// host's available parallelism (1 if that cannot be determined). An
/// invalid setting (`PVS_THREADS=abc`, `=0`) falls back to the host
/// count with a one-line stderr warning (printed once per process).
pub fn default_threads() -> usize {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (threads, warning) = threads_from_env(std::env::var("PVS_THREADS").ok().as_deref(), host);
    if let Some(w) = warning {
        // Callers read it once per table or sweep, so a process that
        // renders many of them would repeat the warning; print it once.
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| eprintln!("{w}"));
    }
    threads
}

/// Parse a raw `PVS_THREADS` value against a host fallback. Returns the
/// thread count and, for an invalid setting, the warning to print.
/// Separated from the environment so the parse paths are unit-testable.
fn threads_from_env(raw: Option<&str>, host: usize) -> (usize, Option<String>) {
    match raw {
        None => (host, None),
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n >= 1 => (n, None),
            _ => (
                host,
                Some(format!(
                    "warning: PVS_THREADS={s:?} is not a positive integer; \
                     falling back to host parallelism ({host} threads)"
                )),
            ),
        },
    }
}

/// Apply `f` to every item on up to `threads` threads, returning results
/// **in input order**. The calling thread is worker 0 and
/// `min(threads, items.len()) − 1` of the process-wide helpers join it,
/// so `threads ≤ 1` runs everything on the caller and spawns nothing.
/// Each thread claims the next index from one counter until the items are
/// exhausted. Panics in `f` follow [`ThreadPool::map`]'s contract: every
/// item still runs, then the lowest-indexed panic is re-raised here.
pub fn map_slice<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(&T) -> R + Send + Sync + 'static,
{
    HELPERS.map(items, threads, f)
}

/// The helper threads behind every [`map_slice`] call.
static HELPERS: Helpers = Helpers::new();

/// A set of helper threads that join [`map_slice`] batches. They are
/// spawned on demand, up to the largest `threads − 1` any call has asked
/// for, then live for the process, parked on `ready` between batches.
struct Helpers {
    // LOCK ORDER: 44 — batches posted to the helpers. Held only to push,
    // pop or withdraw an entry; a batch runs with it released.
    posted: Mutex<Posted>,
    /// Signalled once per entry posted.
    ready: Condvar,
}

struct Posted {
    /// One entry per helper a batch asked for.
    batches: VecDeque<Arc<dyn Help>>,
    /// Helper threads spawned so far.
    spawned: usize,
}

/// A posted batch as a helper sees it.
trait Help: Send + Sync {
    /// Join the batch unless its caller has closed it, run items until
    /// none are left, and hand the results back.
    fn help(&self);
}

/// One [`map_slice`] call: its items, its closure and the next unclaimed
/// index, shared by the caller and the helpers that join it.
struct Batch<T, R, F> {
    items: Vec<T>,
    f: F,
    next: AtomicUsize,
    // LOCK ORDER: 54 — one batch's join count and helper results. Taken by
    // a helper as it joins and as it finishes, and by the caller to close
    // the batch and wait; `f` never runs under it.
    joined: Mutex<Joined<R>>,
    /// Signalled when a joined helper finishes.
    done: Condvar,
}

struct Joined<R> {
    /// Set by the caller once every index is claimed: a helper that
    /// arrives later does nothing, so the caller waits only for helpers
    /// already running its items.
    closed: bool,
    /// Helpers that joined and have not finished.
    running: usize,
    /// `(index, result)` of every item a helper ran.
    claimed: Vec<(usize, std::thread::Result<R>)>,
}

impl<T, R, F: Fn(&T) -> R> Batch<T, R, F> {
    /// Claim and run items until none are left.
    fn claim(&self) -> Vec<(usize, std::thread::Result<R>)> {
        let mut claimed = Vec::new();
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = self.items.get(i) else {
                break claimed;
            };
            claimed.push((i, catch_unwind(AssertUnwindSafe(|| (self.f)(item)))));
        }
    }
}

impl<T, R, F> Help for Batch<T, R, F>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Send + Sync,
{
    fn help(&self) {
        {
            // INFALLIBLE: holders of `joined` only count and move results
            // (`f` runs unlocked, under catch_unwind); poisoning is
            // unreachable.
            let mut j = self.joined.lock().expect("batch lock");
            if j.closed {
                return;
            }
            j.running += 1;
        }
        let claimed = self.claim();
        // INFALLIBLE: as above.
        let mut j = self.joined.lock().expect("batch lock");
        j.claimed.extend(claimed);
        j.running -= 1;
        drop(j);
        self.done.notify_one();
    }
}

impl Helpers {
    const fn new() -> Self {
        Self {
            posted: Mutex::new(Posted {
                batches: VecDeque::new(),
                spawned: 0,
            }),
            ready: Condvar::new(),
        }
    }

    /// [`map_slice`] on this set of helpers.
    fn map<T, R, F>(&'static self, items: Vec<T>, threads: usize, f: F) -> Vec<R>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        let helpers = threads.min(n).saturating_sub(1);
        let batch = Arc::new(Batch {
            items,
            f,
            next: AtomicUsize::new(0),
            joined: Mutex::new(Joined {
                closed: false,
                running: 0,
                claimed: Vec::new(),
            }),
            done: Condvar::new(),
        });
        let mut claimed = if helpers == 0 {
            batch.claim()
        } else {
            let posted: Arc<dyn Help> = batch.clone();
            self.post(&posted, helpers);
            let mut claimed = batch.claim();
            self.withdraw(&posted);
            // INFALLIBLE: see `Batch::help`.
            let mut j = batch.joined.lock().expect("batch lock");
            j.closed = true;
            while j.running > 0 {
                // INFALLIBLE: waiting repoisons only if a holder panicked.
                j = batch.done.wait(j).expect("batch wait");
            }
            claimed.append(&mut j.claimed);
            claimed
        };
        claimed.sort_unstable_by_key(|&(i, _)| i);
        let mut out = Vec::with_capacity(n);
        let mut first_panic = None;
        for (_, r) in claimed {
            match r {
                Ok(v) => out.push(v),
                Err(p) => {
                    first_panic.get_or_insert(p);
                }
            }
        }
        if let Some(p) = first_panic {
            resume_unwind(p);
        }
        out
    }

    /// Post `batch` once for each of `helpers` helpers, first spawning
    /// the helpers this set is short of.
    fn post(&'static self, batch: &Arc<dyn Help>, helpers: usize) {
        let missing = {
            // INFALLIBLE: holders of `posted` only move queue entries.
            let mut p = self.posted.lock().expect("helper lock");
            p.batches.extend((0..helpers).map(|_| Arc::clone(batch)));
            let missing = helpers.saturating_sub(p.spawned);
            p.spawned += missing;
            missing
        };
        for _ in 0..missing {
            let spawned = std::thread::Builder::new()
                .name("pvs-sweep".into())
                .spawn(move || self.helper_loop());
            if spawned.is_err() {
                // No thread to be had: the caller runs the items itself.
                // INFALLIBLE: as above.
                self.posted.lock().expect("helper lock").spawned -= 1;
            }
        }
        for _ in 0..helpers {
            self.ready.notify_one();
        }
    }

    /// Take back the entries of `batch` no helper has picked up.
    fn withdraw(&self, batch: &Arc<dyn Help>) {
        // INFALLIBLE: as in `post`.
        let mut p = self.posted.lock().expect("helper lock");
        p.batches.retain(|b| !Arc::ptr_eq(b, batch));
    }

    fn helper_loop(&self) {
        loop {
            let batch = {
                // INFALLIBLE: as in `post`.
                let mut p = self.posted.lock().expect("helper lock");
                loop {
                    if let Some(batch) = p.batches.pop_front() {
                        break batch;
                    }
                    // INFALLIBLE: waiting repoisons only on a panicked holder.
                    p = self.ready.wait(p).expect("helper wait");
                }
            };
            // The helper may hold the batch's last reference, so dropping
            // it runs the items' and the closure's `Drop` here.
            run_contained(move || batch.help());
        }
    }
}

impl ThreadPool {
    /// Spawn a pool with `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        Self::with_retirements(threads, &[])
    }

    /// [`ThreadPool::new`] with deterministic worker-loss injection:
    /// each `(worker, quota)` entry makes that worker exit after
    /// claiming `quota` tasks (its final claim still runs to
    /// completion). At least one worker must be left immortal so the
    /// queue always drains; lost workers' unstarted share redistributes
    /// through the shared queue, so [`ThreadPool::map`] output is
    /// unchanged by the losses.
    pub fn with_retirements(threads: usize, retirements: &[(usize, u64)]) -> Self {
        let threads = threads.max(1);
        let mut retire_quota: Vec<Option<u64>> = vec![None; threads];
        for &(worker, quota) in retirements {
            assert!(
                worker < threads,
                "retirement for worker {worker} of {threads}"
            );
            assert!(quota >= 1, "a zero quota would strand a claimed task slot");
            retire_quota[worker] = Some(quota);
        }
        assert!(
            retire_quota.iter().any(Option::is_none),
            "at least one worker must be immortal"
        );
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
                peak_depth: 0,
            }),
            work_ready: Condvar::new(),
            worker_tasks: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            retire_quota,
            retired_workers: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pvs-pool-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    // INFALLIBLE: spawn fails only on OS thread exhaustion
                    // at construction — there is no pool to degrade into.
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submit a fire-and-forget job. A panicking job is contained (the
    /// worker survives); use [`ThreadPool::map`] when the caller needs the
    /// panic re-raised.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        // INFALLIBLE: jobs run under catch_unwind, so no thread panics
        // while holding the queue lock; poisoning is unreachable.
        let mut q = self.shared.queue.lock().expect("pool lock");
        assert!(!q.shutdown, "spawn on a shut-down pool");
        q.jobs.push_back(Box::new(job));
        q.peak_depth = q.peak_depth.max(q.jobs.len());
        drop(q);
        self.shared.work_ready.notify_one();
    }

    /// Counters accumulated so far (tasks claimed per worker, peak queue
    /// depth). Exact once outstanding batches have drained — e.g. right
    /// after [`ThreadPool::map`] returns.
    pub fn metrics(&self) -> PoolMetrics {
        // INFALLIBLE: see `spawn` — queue-lock holders never panic.
        let peak_queue_depth = self.shared.queue.lock().expect("pool lock").peak_depth as u64;
        let per_worker_tasks: Vec<u64> = self
            .shared
            .worker_tasks
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .collect();
        PoolMetrics {
            tasks_executed: per_worker_tasks.iter().sum(),
            peak_queue_depth,
            per_worker_tasks,
            retired_workers: self.shared.retired_workers.load(Ordering::SeqCst),
        }
    }

    /// Report this pool's counters into a [`Recorder`](pvs_obs::Recorder)
    /// under the `pool.*` names (see [`PoolMetrics`]).
    pub fn record_to(&self, r: &dyn pvs_obs::Recorder) {
        self.metrics().record_to(self.threads(), r);
    }

    /// Apply `f` to every item, in parallel, returning results **in input
    /// order**. Panics in `f` are re-raised here after the whole batch has
    /// drained; when several tasks panic, the lowest-indexed panic is the
    /// one re-raised, so failure behaviour is deterministic too.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        struct Batch<R> {
            // LOCK ORDER: 50 — per-`map` result slots, taken by workers
            // after the user closure returns (queue guard long since
            // dropped) and by the submitter while waiting on `done`.
            slots: Mutex<BatchSlots<R>>,
            done: Condvar,
        }
        struct BatchSlots<R> {
            results: Vec<Option<std::thread::Result<R>>>,
            finished: usize,
        }
        let batch = Arc::new(Batch {
            slots: Mutex::new(BatchSlots {
                results: (0..n).map(|_| None).collect(),
                finished: 0,
            }),
            done: Condvar::new(),
        });
        let f = Arc::new(f);
        for (i, item) in items.into_iter().enumerate() {
            let batch = Arc::clone(&batch);
            let f = Arc::clone(&f);
            self.spawn(move || {
                let out = catch_unwind(AssertUnwindSafe(|| f(item)));
                // INFALLIBLE: the user closure already ran (contained
                // above); the bookkeeping below cannot panic.
                let mut slots = batch.slots.lock().expect("batch lock");
                slots.results[i] = Some(out);
                slots.finished += 1;
                if slots.finished == slots.results.len() {
                    batch.done.notify_all();
                }
            });
        }
        // INFALLIBLE: batch-lock holders only do bookkeeping (user
        // panics are contained by catch_unwind before the lock).
        let mut slots = batch.slots.lock().expect("batch lock");
        while slots.finished < n {
            // INFALLIBLE: waiting repoisons only if a holder panicked.
            slots = batch.done.wait(slots).expect("batch wait");
        }
        let results = std::mem::take(&mut slots.results);
        drop(slots);
        let mut out = Vec::with_capacity(n);
        let mut first_panic = None;
        for r in results {
            match r.expect("slot filled") {
                Ok(v) => out.push(v),
                Err(p) => {
                    if first_panic.is_none() {
                        first_panic = Some(p);
                    }
                }
            }
        }
        if let Some(p) = first_panic {
            resume_unwind(p);
        }
        out
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            // INFALLIBLE: see `spawn` — queue-lock holders never panic.
            let mut q = self.shared.queue.lock().expect("pool lock");
            q.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        // The pool can be dropped *on one of its own workers*: a spawned
        // job may own the last strong reference to the structure holding
        // the pool (e.g. an abandoned serve flight whose caller already
        // returned), and dropping it inside the job lands here on the
        // worker thread. `JoinHandle::join` on the current thread aborts
        // with EDEADLK inside std, so detach that one handle instead —
        // the worker exits its loop on the shutdown flag just set, and
        // it owns its own `Arc<Shared>`, so nothing dangles.
        let me = std::thread::current().id();
        for w in self.workers.drain(..) {
            if w.thread().id() == me {
                continue;
            }
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    loop {
        let job = {
            // INFALLIBLE: see `spawn` — queue-lock holders never panic.
            let mut q = shared.queue.lock().expect("pool lock");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                // INFALLIBLE: waiting repoisons only on a panicked holder.
                q = shared.work_ready.wait(q).expect("pool wait");
            }
        };
        let claimed = shared.worker_tasks[worker].fetch_add(1, Ordering::SeqCst) + 1;
        run_contained(job);
        if shared.retire_quota[worker].is_some_and(|quota| claimed >= quota) {
            // Injected worker loss: this worker dies here. Survivors may
            // be asleep with work still queued, so re-kick them.
            shared.retired_workers.fetch_add(1, Ordering::SeqCst);
            shared.work_ready.notify_all();
            return;
        }
    }
}

/// Run one job so that nothing it does can take the worker thread down.
/// `catch_unwind` alone is not enough: dropping a caught panic payload
/// runs the payload's own `Drop`, and if *that* panics the unwind would
/// escape the loop, kill the worker, and strand every queued task (a
/// deadlock in `map` at one worker). So the payload is dropped inside a
/// second catch.
fn run_contained(job: impl FnOnce()) {
    if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
        let _ = catch_unwind(AssertUnwindSafe(move || drop(payload)));
    }
}

/// Counters describing one pool's activity, from [`ThreadPool::metrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Total tasks claimed by workers (sum of `per_worker_tasks`).
    pub tasks_executed: u64,
    /// Deepest the job queue ever got.
    pub peak_queue_depth: u64,
    /// Tasks claimed per worker, indexed by worker id.
    pub per_worker_tasks: Vec<u64>,
    /// Workers lost to injected retirement (always 0 without
    /// [`ThreadPool::with_retirements`]).
    pub retired_workers: u64,
}

impl PoolMetrics {
    /// Report into a [`Recorder`](pvs_obs::Recorder):
    /// `pool.tasks_executed` and `pool.worker.<i>.tasks` counters, `pool.queue.peak_depth` and
    /// `pool.threads` gauges.
    pub fn record_to(&self, threads: usize, r: &dyn pvs_obs::Recorder) {
        r.add("pool.tasks_executed", self.tasks_executed);
        r.gauge_max("pool.queue.peak_depth", self.peak_queue_depth);
        r.gauge_set("pool.threads", threads as u64);
        for (i, &t) in self.per_worker_tasks.iter().enumerate() {
            r.add(&format!("pool.worker.{i}.tasks"), t);
        }
        // Only present under fault injection, so healthy observability
        // snapshots are unchanged.
        if self.retired_workers > 0 {
            r.add("pool.workers.retired", self.retired_workers);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_input_order() {
        // Ragged task durations: later items finish first, results must
        // still come back in input order.
        let pool = ThreadPool::new(4);
        let out = pool.map((0..64usize).collect(), |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * i
        });
        assert_eq!(out, (0..64usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_slice_preserves_input_order() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1usize, 2, 4] {
            let out = map_slice(items.clone(), threads, |&i| {
                if i % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                i * i
            });
            assert_eq!(
                out,
                items.iter().map(|i| i * i).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn map_slice_runs_every_item_then_reraises_the_lowest_panic() {
        for threads in [1usize, 2, 8] {
            let ran = Arc::new(AtomicUsize::new(0));
            let counter = Arc::clone(&ran);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                map_slice((0..12u32).collect(), threads, move |&i| {
                    if i == 3 || i == 7 {
                        panic!("item {i} exploded");
                    }
                    counter.fetch_add(1, Ordering::SeqCst);
                    i
                })
            }));
            let payload = caught.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(msg, "item 3 exploded", "threads={threads}");
            assert_eq!(ran.load(Ordering::SeqCst), 10, "threads={threads}");
        }
    }

    #[test]
    fn map_slice_at_one_thread_stays_on_the_caller() {
        // Items take long enough that a stray helper would claim one.
        let caller = std::thread::current().id();
        for threads in [0usize, 1] {
            let ids = map_slice(vec![(); 8], threads, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                std::thread::current().id()
            });
            assert!(ids.iter().all(|&id| id == caller), "threads={threads}");
        }
    }

    #[test]
    fn map_slice_more_threads_than_items_and_empty() {
        assert_eq!(map_slice(vec![1u32, 2, 3], 8, |x| x * 10), vec![10, 20, 30]);
        assert!(map_slice(Vec::<u32>::new(), 8, |x| *x).is_empty());
        assert!(map_slice(Vec::<u32>::new(), 0, |x| *x).is_empty());
    }

    /// A two-item batch on `set` at two threads whose items each wait for
    /// the other to start, so the caller runs one and a helper the other.
    /// Returns the helper's thread, and `Err` if item `panic_at` panicked.
    fn rendezvous(
        set: &'static Helpers,
        panic_at: Option<usize>,
    ) -> (std::thread::ThreadId, std::thread::Result<()>) {
        let caller = std::thread::current().id();
        let both = Arc::new(std::sync::Barrier::new(2));
        let helper = Arc::new(Mutex::new(None));
        let seen = Arc::clone(&helper);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            set.map(vec![0usize, 1], 2, move |&i| {
                both.wait();
                let me = std::thread::current().id();
                if me != caller {
                    *seen.lock().unwrap() = Some(me);
                }
                if panic_at == Some(i) {
                    panic!("item {i} exploded");
                }
            });
        }));
        let helper = helper.lock().unwrap().expect("a helper ran an item");
        (helper, outcome)
    }

    fn spawned(set: &Helpers) -> usize {
        set.posted.lock().unwrap().spawned
    }

    #[test]
    fn consecutive_calls_reuse_one_helper() {
        static SET: Helpers = Helpers::new();
        let (first, _) = rendezvous(&SET, None);
        assert_eq!(spawned(&SET), 1);
        let (second, _) = rendezvous(&SET, None);
        assert_eq!(
            second, first,
            "the second call ran on the first call's helper"
        );
        assert_eq!(spawned(&SET), 1, "the second call spawned no helper");
    }

    #[test]
    fn helpers_survive_a_reraised_panic() {
        static SET: Helpers = Helpers::new();
        for panic_at in [0, 1] {
            let (before, _) = rendezvous(&SET, None);
            let (during, outcome) = rendezvous(&SET, Some(panic_at));
            let payload = outcome.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(msg, format!("item {panic_at} exploded"));
            let (after, _) = rendezvous(&SET, None);
            assert_eq!((during, after), (before, before), "panic_at={panic_at}");
            assert_eq!(spawned(&SET), 1);
        }
    }

    #[test]
    fn nested_map_slice_terminates() {
        // Every helper may be busy in the outer batch when the inner one
        // is posted; the inner caller then runs its items alone.
        let out = map_slice((0..8u64).collect(), 2, |&i| {
            map_slice((0..4u64).collect(), 2, move |&j| i * 10 + j)
        });
        let want: Vec<Vec<u64>> = (0..8u64)
            .map(|i| (0..4).map(|j| i * 10 + j).collect())
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn concurrent_callers_get_their_own_results() {
        let callers: Vec<_> = (0..4u64)
            .map(|c| {
                std::thread::spawn(move || {
                    let items: Vec<u64> = (0..50).map(|i| c * 1_000 + i).collect();
                    let want: Vec<u64> = items.iter().map(|x| x * 3).collect();
                    (map_slice(items, 3, |&x| x * 3), want)
                })
            })
            .collect();
        for (c, h) in callers.into_iter().enumerate() {
            let (got, want) = h.join().expect("caller thread");
            assert_eq!(got, want, "caller {c}");
        }
    }

    #[test]
    fn dropping_the_pool_from_its_own_worker_detaches_instead_of_deadlocking() {
        // A spawned job can own the last strong reference to the pool's
        // owner (an abandoned serve flight, say). Dropping it inside the
        // job lands ThreadPool::drop on a worker thread; a self-join
        // there panics inside std with EDEADLK, killing the job before
        // it can signal. The drop must detach that handle instead.
        struct Owner {
            pool: ThreadPool,
        }
        let owner = Arc::new(Owner {
            pool: ThreadPool::new(2),
        });
        let (tx, rx) = std::sync::mpsc::channel();
        let job_owner = Arc::clone(&owner);
        owner.pool.spawn(move || {
            // Wait until the main thread has released its reference so
            // this job's drop is deterministically the last one.
            while Arc::strong_count(&job_owner) > 1 {
                std::thread::yield_now();
            }
            drop(job_owner);
            let _ = tx.send(());
        });
        drop(owner);
        // With a self-join the send is unreachable (the panic unwinds the
        // job before it); the timeout turns that into a clean failure.
        rx.recv_timeout(std::time::Duration::from_secs(30))
            .expect("job survived dropping the pool from its own worker");
    }

    #[test]
    fn one_thread_degenerate_case_matches() {
        let map = |threads| {
            ThreadPool::new(threads).map((0..40u64).collect(), |i| i.wrapping_mul(31) ^ 5)
        };
        assert_eq!(map(1), map(8));
    }

    #[test]
    fn empty_batch() {
        let pool = ThreadPool::new(2);
        let out: Vec<u32> = pool.map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn panic_in_task_propagates_to_caller() {
        let pool = ThreadPool::new(3);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.map(vec![0, 1, 2, 3], |i| {
                if i == 2 {
                    panic!("task {i} exploded");
                }
                i
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("task 2 exploded"), "payload: {msg}");
        // The pool survives the panic and keeps serving.
        assert_eq!(pool.map(vec![10, 20], |x| x + 1), vec![11, 21]);
    }

    #[test]
    fn workers_share_the_queue() {
        // With 4 workers and 4 long tasks, all should run concurrently —
        // observed as a peak in-flight count above 1. (On a single-core
        // host the scheduler may still interleave them; require >= 2 only
        // when parallelism is real.)
        let pool = ThreadPool::new(4);
        let peak = Arc::new(AtomicUsize::new(0));
        let inflight = Arc::new(AtomicUsize::new(0));
        let (p, f) = (Arc::clone(&peak), Arc::clone(&inflight));
        pool.map((0..8u32).collect(), move |_| {
            let now = f.fetch_add(1, Ordering::SeqCst) + 1;
            p.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(5));
            f.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn spawn_runs_detached_jobs() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // drains the queue before joining
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    /// A panic payload whose own `Drop` panics — the nastiest thing a
    /// task can throw at the pool. Quiet while another unwind is in
    /// flight (a double panic would abort the process instead of
    /// testing anything).
    struct VolatilePayload;
    impl Drop for VolatilePayload {
        fn drop(&mut self) {
            if !std::thread::panicking() {
                panic!("payload drop exploded");
            }
        }
    }

    #[test]
    fn panic_payload_drop_cannot_kill_the_worker() {
        // Regression: dropping a caught panic payload runs the payload's
        // Drop; before run_contained a panicking Drop escaped the catch,
        // killed the worker, and stranded every queued task — at one
        // worker, a permanent deadlock in map. Checked at the two
        // PVS_THREADS settings the determinism suite pins.
        for threads in [1usize, 8] {
            let pool = ThreadPool::new(threads);
            pool.spawn(|| std::panic::panic_any(VolatilePayload));
            let out = pool.map((0..16u32).collect(), |x| x + 1);
            assert_eq!(out, (1..=16u32).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn panic_with_queue_nonempty_strands_no_tasks() {
        // One worker, a grenade first in the queue, real work behind it:
        // every queued task must still run and shutdown must not hang.
        let pool = ThreadPool::new(1);
        let counter = Arc::new(AtomicUsize::new(0));
        pool.spawn(|| std::panic::panic_any(VolatilePayload));
        for _ in 0..16 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn retired_workers_do_not_change_map_output() {
        let expected: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(31) ^ 5).collect();
        // All but worker 0 die after their first task; the shared queue
        // hands their unstarted share to the survivors.
        let lossy = ThreadPool::with_retirements(
            8,
            &[(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)],
        );
        let out = lossy.map((0..64u64).collect(), |i| i.wrapping_mul(31) ^ 5);
        assert_eq!(out, expected);
        let m = lossy.metrics();
        assert_eq!(m.tasks_executed, 64);
        for (i, &t) in m.per_worker_tasks.iter().enumerate().skip(1) {
            assert!(t <= 1, "worker {i} claimed {t} past its quota");
        }
        assert!(m.retired_workers <= 7);
        // The pool keeps serving on the immortal worker afterwards.
        assert_eq!(lossy.map(vec![10u64, 20], |x| x + 1), vec![11, 21]);
    }

    #[test]
    fn retirements_with_shutdown_strand_nothing() {
        let pool = ThreadPool::with_retirements(2, &[(1, 1)]);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..24 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::SeqCst), 24);
    }

    #[test]
    #[should_panic(expected = "at least one worker must be immortal")]
    fn total_worker_loss_is_rejected() {
        let _ = ThreadPool::with_retirements(1, &[(0, 5)]);
    }

    #[test]
    fn retirement_counter_reported_only_under_loss() {
        let healthy = ThreadPool::new(2);
        healthy.map((0..8u32).collect(), |x| x);
        let reg = pvs_obs::Registry::new();
        healthy.record_to(&reg);
        assert_eq!(reg.counter("pool.workers.retired"), 0);
        assert_eq!(healthy.metrics().retired_workers, 0);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn threads_env_parse_paths() {
        // Unset: host fallback, silent.
        assert_eq!(threads_from_env(None, 6), (6, None));
        // Valid: value wins, silent.
        assert_eq!(threads_from_env(Some("3"), 6), (3, None));
        assert_eq!(threads_from_env(Some("1"), 6), (1, None));
        // Invalid: host fallback plus a warning naming the variable.
        for bad in ["abc", "0", "-2", "", "4.5"] {
            let (n, warning) = threads_from_env(Some(bad), 6);
            assert_eq!(n, 6, "{bad:?} must fall back to host");
            let w = warning.expect("invalid value must warn");
            assert!(w.contains("PVS_THREADS"), "warning names the variable: {w}");
            assert!(w.contains(bad) || bad.is_empty());
            assert!(w.contains("6 threads"), "warning names the fallback: {w}");
        }
    }

    #[test]
    fn metrics_count_tasks_and_queue_depth() {
        for threads in [1usize, 8] {
            let pool = ThreadPool::new(threads);
            let jobs = 48usize;
            let out = pool.map((0..jobs).collect(), |i| i + 1);
            assert_eq!(out.len(), jobs);
            let m = pool.metrics();
            assert_eq!(m.tasks_executed, jobs as u64, "threads={threads}");
            assert_eq!(m.per_worker_tasks.len(), threads);
            assert_eq!(
                m.per_worker_tasks.iter().sum::<u64>(),
                jobs as u64,
                "per-worker counts must partition the batch"
            );
            assert!(m.peak_queue_depth >= 1);
            assert!(m.peak_queue_depth <= jobs as u64);
        }
    }

    #[test]
    fn single_worker_executes_everything() {
        let pool = ThreadPool::new(1);
        pool.map((0..10u32).collect(), |x| x);
        let m = pool.metrics();
        assert_eq!(m.per_worker_tasks, vec![10]);
    }

    #[test]
    fn metrics_record_to_registry() {
        let pool = ThreadPool::new(2);
        pool.map((0..12u32).collect(), |x| x * 2);
        let reg = pvs_obs::Registry::new();
        pool.record_to(&reg);
        assert_eq!(reg.counter("pool.tasks_executed"), 12);
        assert_eq!(reg.gauge("pool.threads"), 2);
        assert!(reg.gauge("pool.queue.peak_depth") >= 1);
        assert_eq!(
            reg.counter("pool.worker.0.tasks") + reg.counter("pool.worker.1.tasks"),
            12
        );
    }

    #[test]
    fn idle_pool_metrics_are_zero() {
        let pool = ThreadPool::new(3);
        let m = pool.metrics();
        assert_eq!(m.tasks_executed, 0);
        assert_eq!(m.peak_queue_depth, 0);
        assert_eq!(m.per_worker_tasks, vec![0; 3]);
    }
}
