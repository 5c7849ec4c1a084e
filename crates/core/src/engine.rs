//! The execution engine: maps a phase stream onto a machine.
//!
//! For vector machines, loop phases go through `pvs-vectorsim` (strip
//! mining, AVL/VOR accounting, MSP multistreaming, scalar-unit fallback)
//! with bank-conflict derating simulated by `pvs-memsim::banks`. For
//! superscalar machines, loop phases follow a roofline bounded by the
//! analytic cache/prefetch bandwidth model. Communication phases are timed
//! by the discrete-event network simulator in `pvs-netsim`, with one-sided
//! (CAF) semantics skipping the MPI intermediate-copy traffic.

use crate::adversity::Adversity;
use crate::kernel::vector_loop_from_phase;
use crate::machine::{CpuClass, Machine};
use crate::phase::{CommPattern, CommPhase, LoopPhase, Phase};
use crate::pool::{default_threads, map_slice};
use crate::report::{PerfReport, PhaseBreakdown};
use pvs_memsim::banks::{BankConfig, BankedMemory};
use pvs_memsim::trace::scrambled_stream;
use pvs_netsim::collectives::{all_to_all_sampled, allreduce, halo_exchange_2d, halo_exchange_3d};
use pvs_netsim::des::{Ledger, SimStats, Traffic};
use pvs_netsim::schedule::{recursive_doubling, rotation};
use pvs_netsim::topology::Network;
use pvs_obs::Recorder;
use pvs_vectorsim::exec::{MemoryEnv, VectorUnit};
use pvs_vectorsim::metrics::VectorMetrics;
use std::sync::{Arc, Mutex, MutexGuard};

/// Accesses sampled when simulating bank behaviour for a loop phase.
const BANK_SAMPLE: usize = 4096;

/// Healthy gather replays a process keeps. The cell registry holds at
/// most 8 distinct patterns (two bank geometries × `duplicate` × two
/// hot-word counts); a pattern past the cap is replayed on every call.
const REPLAY_TABLE_CAP: usize = 64;

/// All-to-all rounds simulated before linear extrapolation.
const MAX_A2A_ROUNDS: usize = 24;

/// Latency ratio of one-sided (CAF) to MPI semantics on hardware with a
/// globally addressable memory (X1 measured: 3.9 µs vs 7.3 µs).
const ONE_SIDED_LATENCY_RATIO: f64 = 3.9 / 7.3;

/// What a single loop phase produced: modelled seconds, the vector
/// counters (vector machines only), the strip-mine loop count, and the
/// bank replay from `pvs-memsim`.
struct LoopOutcome {
    seconds: f64,
    metrics: Option<VectorMetrics>,
    strips: u64,
    /// `(strip_length, strips)` pairs from the vector unit (empty slots
    /// are zero-count).
    strip_lens: [(u64, u64); 2],
    /// The bank replay, if the loop had one. Only an observed run reads
    /// its counters and queue depths.
    bank: Option<Arc<BankSummary>>,
}

/// What the engine reads of one bank replay, taken once from the
/// [`BankedMemory`] that ran it: the derating, the conflict counters
/// and the queue-depth histogram.
struct BankSummary {
    efficiency: f64,
    accesses: u64,
    stall_cycles: u64,
    queue_depths: Vec<(u64, u64)>,
}

impl BankSummary {
    fn of(mem: &BankedMemory) -> Self {
        BankSummary {
            efficiency: mem.efficiency(),
            accesses: mem.accesses,
            stall_cycles: mem.stall_cycles,
            queue_depths: mem.queue_depths(),
        }
    }
}

/// Everything a healthy gather replay reads besides [`BANK_SAMPLE`]: the
/// bank geometry, the `duplicate` pragma and the hot-word count. The
/// processor count, the network and the rest of the loop never enter.
#[derive(Clone, Copy, PartialEq, Eq)]
struct ReplayKey {
    banks: BankConfig,
    duplicated: bool,
    gather_hot_words: usize,
}

impl ReplayKey {
    /// Gather [`BANK_SAMPLE`] accesses over the hot words into fresh
    /// banks with `failed` mapped out.
    fn replay(&self, failed: &[usize]) -> BankSummary {
        let mut mem = fresh_banks(self.banks, failed, self.duplicated);
        mem.gather(
            0,
            scrambled_stream(BANK_SAMPLE, self.gather_hot_words.max(1)),
        );
        BankSummary::of(&mem)
    }
}

/// Idle banks with `failed` mapped out and, under the `duplicate`
/// pragma, 32 images of the address space.
fn fresh_banks(banks: BankConfig, failed: &[usize], duplicated: bool) -> BankedMemory {
    let mut mem = BankedMemory::new(banks);
    for &b in failed {
        mem.fail_bank(b % banks.num_banks);
    }
    if duplicated {
        mem.duplicate(32);
    }
    mem
}

/// The healthy gather replays every engine in the process shares.
static REPLAYS: ReplayTable = ReplayTable::new();

/// Summaries of finished healthy gather replays, one per [`ReplayKey`],
/// scanned linearly and capped at [`REPLAY_TABLE_CAP`]. A replay is a
/// pure function of its key, so a stored one equals a fresh one.
struct ReplayTable {
    // LOCK ORDER: 70 — leaf: held only to scan or push an entry; a
    // replay runs with it released.
    done: Mutex<Vec<(ReplayKey, Arc<BankSummary>)>>,
}

impl ReplayTable {
    const fn new() -> Self {
        Self {
            done: Mutex::new(Vec::new()),
        }
    }

    fn lock_done(&self) -> MutexGuard<'_, Vec<(ReplayKey, Arc<BankSummary>)>> {
        // INFALLIBLE: holders only scan the entries or push one; no
        // replay runs while the lock is held.
        self.done.lock().expect("replay table poisoned")
    }

    /// The replay for `key`: the stored one, else a fresh one, stored if
    /// no other thread stored it first and the table has room.
    fn get(&self, key: ReplayKey) -> Arc<BankSummary> {
        let find = |done: &[(ReplayKey, Arc<BankSummary>)]| {
            done.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, mem)| Arc::clone(mem))
        };
        if let Some(mem) = find(&self.lock_done()) {
            return mem;
        }
        let fresh = Arc::new(key.replay(&[]));
        let mut done = self.lock_done();
        if let Some(mem) = find(&done) {
            return mem;
        }
        if done.len() < REPLAY_TABLE_CAP {
            done.push((key, Arc::clone(&fresh)));
        }
        fresh
    }
}

/// Per-run counter totals, accumulated locally during the phase walk and
/// flushed to the [`Recorder`] once at the end. The registry only ever
/// holds per-run aggregates, so batching the emission is invisible in the
/// snapshot — it exists to keep instrumentation overhead low (one locked
/// update per counter per run instead of one per phase).
#[derive(Default)]
struct RunTally {
    loop_phases: u64,
    comm_phases: u64,
    loop_flops: f64,
    loop_bytes: f64,
    loop_seconds: f64,
    comm_seconds: f64,
    comm_repetitions: u64,
    strips: u64,
    bank_accesses: u64,
    bank_stall_cycles: u64,
    net_messages: u64,
    net_payload_bytes: u64,
    net_hops: u64,
    net_bisection_bytes: u64,
    net_links_used: u64,
    net_peak_link_bytes: u64,
    /// Weighted histogram samples `(name, value, count)` accumulated
    /// across phases and flushed as one `record_many` batch. All values
    /// are simulated units (bytes, hops, queue depths, strip lengths) —
    /// pure functions of `(app, machine, procs)` like every counter
    /// above. Order is the phase walk order, but histograms are
    /// order-independent, so the flushed state is too.
    hist_samples: Vec<(&'static str, u64, u64)>,
}

impl RunTally {
    /// Count one comm phase of `secs` seconds whose pattern, simulated
    /// once, produced `stats`.
    fn comm(&mut self, c: &CommPhase, secs: f64, stats: &SimStats) {
        self.comm_phases += 1;
        self.comm_repetitions += c.repetitions as u64;
        self.comm_seconds += secs;
        // Traffic counters describe the messages simulated for one
        // repetition of the pattern; `engine.comm.repetitions` scales
        // them. For an all-to-all at ranks > MAX_A2A_ROUNDS + 1 that is
        // only the sampled rounds, not all ranks − 1 of them (the
        // makespan alone is extrapolated).
        self.net_messages += stats.messages;
        self.net_payload_bytes += stats.total_bytes;
        self.net_hops += stats.hops;
        self.net_bisection_bytes += c.pattern.bisection_bytes();
        self.net_links_used += stats.links_used();
        self.net_peak_link_bytes = self.net_peak_link_bytes.max(stats.peak_link_bytes());
        // Distributions cover the same simulated messages as the
        // traffic counters.
        for (&bytes, &n) in &stats.size_dist {
            self.hist_samples.push(("netsim.hist.msg_bytes", bytes, n));
        }
        for (&hops, &n) in &stats.hop_dist {
            self.hist_samples.push(("netsim.hist.msg_hops", hops, n));
        }
    }

    fn flush(&self, r: &dyn Recorder, metrics: &VectorMetrics, clock_mhz: f64) {
        let mut entries: Vec<(&str, u64)> = Vec::with_capacity(16);
        entries.push(("engine.phases", self.loop_phases + self.comm_phases));
        if self.loop_phases > 0 {
            entries.push(("engine.loop.phases", self.loop_phases));
            entries.push(("engine.loop.flops", self.loop_flops.round() as u64));
            entries.push(("engine.loop.bytes", self.loop_bytes.round() as u64));
            entries.push((
                "engine.loop.cycles",
                (self.loop_seconds * clock_mhz * 1e6).round() as u64,
            ));
            entries.push(("vectorsim.strips", self.strips));
        }
        if self.comm_phases > 0 {
            entries.push(("engine.comm.phases", self.comm_phases));
            entries.push(("engine.comm.repetitions", self.comm_repetitions));
            entries.push((
                "engine.comm.cycles",
                (self.comm_seconds * clock_mhz * 1e6).round() as u64,
            ));
            entries.push(("netsim.messages", self.net_messages));
            entries.push(("netsim.payload_bytes", self.net_payload_bytes));
            entries.push(("netsim.hops", self.net_hops));
            entries.push(("netsim.bisection_bytes", self.net_bisection_bytes));
            entries.push(("netsim.links.used", self.net_links_used));
        }
        if self.bank_accesses > 0 {
            // Same names `BankedMemory::record_to` uses, totalled over
            // every bank replay in the run.
            entries.push(("memsim.bank.accesses", self.bank_accesses));
            entries.push(("memsim.bank.stall_cycles", self.bank_stall_cycles));
        }
        if metrics.vector_element_ops + metrics.vector_instructions + metrics.scalar_ops > 0 {
            entries.push(("vectorsim.element_ops", metrics.vector_element_ops));
            entries.push(("vectorsim.vector_instructions", metrics.vector_instructions));
            entries.push(("vectorsim.scalar_ops", metrics.scalar_ops));
        }
        r.add_many(&entries);
        if self.comm_phases > 0 {
            r.gauge_max("netsim.link.peak_bytes", self.net_peak_link_bytes);
        }
        if !self.hist_samples.is_empty() {
            r.record_many(&self.hist_samples);
        }
    }
}

/// An engine bound to one machine, optionally reporting counters,
/// gauges and histograms into a [`Recorder`], optionally running under
/// injected hardware damage.
#[derive(Clone)]
pub struct Engine {
    machine: Machine,
    recorder: Option<Arc<dyn Recorder>>,
    adversity: Adversity,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("machine", &self.machine)
            .field("observed", &self.recorder.is_some())
            .field("adversity", &self.adversity)
            .finish()
    }
}

impl Engine {
    /// Bind the engine to a machine.
    pub fn new(machine: Machine) -> Self {
        Self {
            machine,
            recorder: None,
            adversity: Adversity::healthy(),
        }
    }

    /// Attach a recorder: every subsequent [`Engine::run`] emits
    /// `engine.*`, `vectorsim.*`, `memsim.bank.*` and `netsim.*` counters
    /// and histograms. Per-phase time is not recorded:
    /// [`PerfReport::phases`] is that timeline.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Inject hardware damage: every subsequent run executes on the
    /// degraded machine. See [`Adversity`].
    pub fn with_adversity(mut self, adversity: Adversity) -> Self {
        self.adversity = adversity;
        self
    }

    /// The bound machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The injected damage (healthy unless [`Engine::with_adversity`]
    /// was called).
    pub fn adversity(&self) -> &Adversity {
        &self.adversity
    }

    /// Execute a phase stream built for `procs` processors. Returns the
    /// per-processor performance report (Gflop/s per processor, % of peak,
    /// AVL/VOR on vector machines, communication fraction).
    pub fn run(&self, phases: &[Phase], procs: usize) -> PerfReport {
        assert!(procs >= 1);
        let rec = self.recorder.as_deref();
        let mut time_s = 0.0;
        let mut comm_s = 0.0;
        let mut flops = 0.0;
        let mut metrics = VectorMetrics::default();
        let mut breakdown = Vec::with_capacity(phases.len());
        let mut tally = RunTally::default();

        for phase in phases {
            match phase {
                Phase::Loop(l) => {
                    let outcome = self.run_loop(l);
                    time_s += outcome.seconds;
                    flops += phase.counted_flops();
                    if let Some(m) = outcome.metrics {
                        metrics.merge(&m);
                    }
                    if rec.is_some() {
                        tally.loop_phases += 1;
                        tally.loop_flops += phase.total_flops();
                        tally.loop_bytes +=
                            l.bytes_per_iter * l.trips as f64 * l.outer_iters as f64;
                        tally.loop_seconds += outcome.seconds;
                        tally.strips += outcome.strips;
                        for &(len, n) in &outcome.strip_lens {
                            if n > 0 {
                                tally
                                    .hist_samples
                                    .push(("vectorsim.hist.strip_len", len, n));
                            }
                        }
                        if let Some(bank) = &outcome.bank {
                            tally.bank_accesses += bank.accesses;
                            tally.bank_stall_cycles += bank.stall_cycles;
                            for &(depth, n) in &bank.queue_depths {
                                tally
                                    .hist_samples
                                    .push(("memsim.hist.bank_queue_depth", depth, n));
                            }
                        }
                    }
                    breakdown.push(PhaseBreakdown {
                        name: l.name.to_string(),
                        seconds: outcome.seconds,
                        flops: phase.total_flops(),
                        is_comm: false,
                    });
                }
                Phase::Comm(c) => {
                    // Only an observed run reads the traffic ledger; a
                    // bare run advances the link clocks and nothing else.
                    let secs = if rec.is_some() {
                        let (secs, wire_s, traffic) = self.run_comm::<Traffic>(c, procs);
                        tally.comm(c, secs, &traffic.into_stats(wire_s));
                        secs
                    } else {
                        self.run_comm::<()>(c, procs).0
                    };
                    time_s += secs;
                    comm_s += secs;
                    breakdown.push(PhaseBreakdown {
                        name: c.name.to_string(),
                        seconds: secs,
                        flops: 0.0,
                        is_comm: true,
                    });
                }
            }
        }

        if let Some(r) = rec {
            tally.flush(r, &metrics, self.machine.clock_mhz);
        }

        let gflops_per_p = if time_s > 0.0 {
            flops / 1e9 / time_s
        } else {
            0.0
        };
        PerfReport {
            machine: self.machine.name.to_string(),
            procs,
            time_s,
            comm_s,
            flops_per_p: flops,
            gflops_per_p,
            pct_peak: 100.0 * gflops_per_p / self.machine.peak_gflops,
            vector_metrics: if self.machine.is_vector() {
                Some(metrics)
            } else {
                None
            },
            phases: breakdown,
        }
    }

    fn run_loop(&self, l: &LoopPhase) -> LoopOutcome {
        match &self.machine.cpu {
            CpuClass::Vector {
                unit,
                banks,
                mem_efficiency,
            } => {
                let vloop = vector_loop_from_phase(l);
                let bank = self.bank_replay(l, *banks);
                let bank_eff = bank.as_deref().map_or(1.0, |bank| bank.efficiency);
                let env = MemoryEnv {
                    bytes_per_cycle: self.machine.bytes_per_cycle(),
                    access_efficiency: mem_efficiency * bank_eff,
                };
                let result = VectorUnit::new(*unit).execute(&vloop, &env);
                LoopOutcome {
                    seconds: result.seconds,
                    metrics: Some(result.metrics),
                    strips: result.strips,
                    strip_lens: result.strip_lens,
                    bank,
                }
            }
            CpuClass::Superscalar {
                issue_efficiency, ..
            } => {
                let model = self.machine.bandwidth_model();
                let bw_gbs = model.sustained_gbs(l.working_set_bytes, l.pattern);
                let intensity = if l.bytes_per_iter > 0.0 {
                    l.flops_per_iter / l.bytes_per_iter
                } else {
                    f64::INFINITY
                };
                let compute_rate = self.machine.peak_gflops
                    * 1e9
                    * issue_efficiency
                    * l.vector.ilp_efficiency.clamp(0.0, 1.0);
                let memory_rate = intensity * bw_gbs * 1e9;
                let rate = compute_rate.min(memory_rate);
                let flops = l.flops_per_iter * l.trips as f64 * l.outer_iters as f64;
                LoopOutcome {
                    seconds: flops / rate,
                    metrics: None,
                    strips: 0,
                    strip_lens: [(0, 0); 2],
                    bank: None,
                }
            }
        }
    }

    /// Replay a sample of the loop's access pattern through the
    /// banked-memory simulator; `None` when the pattern cannot conflict
    /// (unit stride, efficiency 1.0). The caller reads the derating and
    /// the conflict counters off the returned summary. A healthy gather
    /// comes from the process-wide table, keyed by [`ReplayKey`]:
    /// `banks`, `duplicated` and `gather_hot_words`. Failed banks always
    /// replay fresh.
    fn bank_replay(&self, l: &LoopPhase, banks: BankConfig) -> Option<Arc<BankSummary>> {
        let failed = &self.adversity.failed_banks[..];
        if let Some(hot) = l.vector.gather_hot_words {
            let key = ReplayKey {
                banks,
                duplicated: l.vector.duplicated,
                gather_hot_words: hot,
            };
            return Some(if failed.is_empty() {
                REPLAYS.get(key)
            } else {
                Arc::new(key.replay(failed))
            });
        }
        if failed.is_empty() {
            return None;
        }
        // Patterns that cannot conflict on healthy hardware *do*
        // conflict once banks are mapped out: the remapped share of a
        // unit-stride walk piles onto the surviving neighbours.
        let mut mem = fresh_banks(banks, failed, l.vector.duplicated);
        mem.strided_access(0, BANK_SAMPLE, 1);
        Some(Arc::new(BankSummary::of(&mem)))
    }

    /// Time one communication phase on a network built for `procs`,
    /// booking its messages into an `L`. Returns the phase's seconds (all
    /// repetitions, copies included), the wire time of one repetition,
    /// and the ledger.
    fn run_comm<L: Ledger>(&self, c: &CommPhase, procs: usize) -> (f64, f64, L) {
        let mut config = self.machine.network(procs);
        if c.one_sided {
            config.latency_us *= ONE_SIDED_LATENCY_RATIO;
        }
        let net = Network::with_faults(config, &self.adversity.net);
        let ((wire, ledger), payload_per_rank) = match c.pattern {
            CommPattern::Halo2d {
                px,
                py,
                bytes_edge,
                bytes_corner,
            } => (
                halo_exchange_2d(&net, px, py, bytes_edge, bytes_corner),
                4 * bytes_edge + 4 * bytes_corner,
            ),
            CommPattern::Halo3d {
                px,
                py,
                pz,
                bytes_face,
            } => (
                halo_exchange_3d(&net, px, py, pz, bytes_face),
                6 * bytes_face,
            ),
            CommPattern::AllToAll {
                ranks,
                bytes_per_pair,
            } => (
                all_to_all_sampled(&net, ranks, bytes_per_pair, MAX_A2A_ROUNDS),
                rotation(ranks).len() as u64 * bytes_per_pair,
            ),
            CommPattern::AllReduce { ranks, bytes } => (
                allreduce(&net, ranks, bytes),
                recursive_doubling(ranks).len() as u64 * bytes,
            ),
        };
        // MPI buffers payload twice through memory (user-level pack and
        // system-level copy); one-sided puts write directly. This is the
        // "CAF reduced memory traffic by 3x" effect of §3.2.
        let copy = if c.one_sided {
            0.0
        } else {
            2.0 * payload_per_rank as f64 / (self.machine.mem_bw_gbs * 1e9)
        };
        ((wire + copy) * c.repetitions as f64, wire, ledger)
    }
}

/// One cell of a cross-machine sweep: a machine, its phase stream, and
/// the processor count the stream was built for.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// The machine model to run on.
    pub machine: Machine,
    /// The phase stream (already built for `procs` processors).
    pub phases: Vec<Phase>,
    /// Processor count the phases were decomposed for.
    pub procs: usize,
}

impl SweepJob {
    /// Convenience constructor.
    pub fn new(machine: Machine, phases: Vec<Phase>, procs: usize) -> Self {
        Self {
            machine,
            phases,
            procs,
        }
    }
}

/// Run a machine × workload × procs grid in parallel across host cores,
/// returning one report per job **in input order** — the batch engine
/// behind the Table 3–7 generators in `pvs-bench`.
pub fn run_sweep(jobs: Vec<SweepJob>) -> Vec<PerfReport> {
    run_sweep_threads(jobs, default_threads())
}

/// [`run_sweep`] with an explicit worker count. `threads == 1` is the
/// serial reference path and runs on the caller alone; any other count
/// produces byte-identical output because every job is pure and results
/// are reassembled in input order.
pub fn run_sweep_threads(jobs: Vec<SweepJob>, threads: usize) -> Vec<PerfReport> {
    map_slice(jobs, threads, |job| {
        Engine::new(job.machine.clone()).run(&job.phases, job.procs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::VectorizationInfo;
    use crate::platforms;
    use pvs_memsim::bandwidth::AccessPattern;

    fn lbmhd_like() -> Phase {
        Phase::loop_nest("collision", 4096, 2048)
            .flops_per_iter(26.0)
            .bytes_per_iter(144.0)
            .pattern(AccessPattern::UnitStride)
            .working_set(64 << 20)
            .vector(VectorizationInfo::full())
    }

    fn blas3_like() -> Phase {
        // High-intensity, cache-blocked GEMM: working set fits in L2/L3.
        Phase::loop_nest("dgemm", 256, 40_000)
            .flops_per_iter(64.0)
            .bytes_per_iter(8.0)
            .pattern(AccessPattern::UnitStride)
            .working_set(512 << 10)
            .vector(VectorizationInfo::full())
    }

    #[test]
    fn vector_trounces_superscalar_on_low_intensity() {
        let phases = [lbmhd_like()];
        let es = Engine::new(platforms::earth_simulator()).run(&phases, 64);
        let p3 = Engine::new(platforms::power3()).run(&phases, 64);
        let ratio = es.gflops_per_p / p3.gflops_per_p;
        assert!(ratio > 15.0, "ES/Power3 ratio {ratio}");
    }

    #[test]
    fn superscalar_competitive_on_blas3() {
        let phases = [blas3_like()];
        let p3 = Engine::new(platforms::power3()).run(&phases, 32);
        assert!(
            p3.pct_peak > 40.0,
            "Power3 should sustain a high fraction on BLAS3: {}%",
            p3.pct_peak
        );
    }

    #[test]
    fn scalar_phase_devastates_x1_more_than_es() {
        let vec_phase = lbmhd_like();
        let scalar_phase = Phase::loop_nest("boundary", 4096, 200)
            .flops_per_iter(26.0)
            .bytes_per_iter(144.0)
            .vector(VectorizationInfo::scalar());
        let es = Engine::new(platforms::earth_simulator());
        let x1 = Engine::new(platforms::x1());

        let es_clean = es.run(std::slice::from_ref(&vec_phase), 16).time_s;
        let es_dirty = es
            .run(&[vec_phase.clone(), scalar_phase.clone()], 16)
            .time_s;
        let x1_clean = x1.run(std::slice::from_ref(&vec_phase), 16).time_s;
        let x1_dirty = x1.run(&[vec_phase, scalar_phase], 16).time_s;

        let es_slowdown = es_dirty / es_clean;
        let x1_slowdown = x1_dirty / x1_clean;
        assert!(
            x1_slowdown > 1.5 * es_slowdown,
            "X1 slowdown {x1_slowdown:.2} vs ES {es_slowdown:.2}"
        );
    }

    #[test]
    fn vector_metrics_only_on_vector_machines() {
        let phases = [lbmhd_like()];
        assert!(Engine::new(platforms::earth_simulator())
            .run(&phases, 4)
            .avl()
            .is_some());
        assert!(Engine::new(platforms::altix())
            .run(&phases, 4)
            .avl()
            .is_none());
    }

    #[test]
    fn caf_comm_beats_mpi_on_x1() {
        let mpi = Phase::comm(
            "exchange",
            CommPattern::Halo2d {
                px: 8,
                py: 8,
                bytes_edge: 200_000,
                bytes_corner: 2_000,
            },
        )
        .repetitions(10);
        let caf = mpi.clone().one_sided(true);
        let x1 = Engine::new(platforms::x1());
        let t_mpi = x1.run(&[mpi], 64).comm_s;
        let t_caf = x1.run(&[caf], 64).comm_s;
        assert!(t_caf < t_mpi, "CAF {t_caf} must beat MPI {t_mpi}");
    }

    #[test]
    fn alltoall_hurts_x1_more_than_es_at_scale() {
        let phase = |ranks| {
            Phase::comm(
                "transpose",
                CommPattern::AllToAll {
                    ranks,
                    bytes_per_pair: 40_000,
                },
            )
        };
        let es = Engine::new(platforms::earth_simulator());
        let x1 = Engine::new(platforms::x1());
        let es_t = es.run(&[phase(256)], 256).comm_s;
        let x1_t = x1.run(&[phase(256)], 256).comm_s;
        assert!(
            x1_t > 1.3 * es_t,
            "X1 torus all-to-all {x1_t} should exceed ES crossbar {es_t}"
        );
    }

    #[test]
    fn gather_conflicts_slow_vector_loops_duplicate_recovers() {
        let base = Phase::loop_nest("deposit", 4096, 500)
            .flops_per_iter(16.0)
            .bytes_per_iter(48.0);
        let mk = |hot, dup| {
            let mut v = VectorizationInfo::full();
            v.gather_hot_words = Some(hot);
            v.duplicated = dup;
            base.clone().vector(v)
        };
        let es = Engine::new(platforms::earth_simulator());
        let conflicted = es.run(&[mk(8, false)], 4).time_s;
        let duplicated = es.run(&[mk(8, true)], 4).time_s;
        let spread = es.run(&[mk(100_000, false)], 4).time_s;
        assert!(conflicted > duplicated, "{conflicted} vs {duplicated}");
        assert!(conflicted > spread);
    }

    #[test]
    fn pct_peak_is_bounded() {
        for m in platforms::all() {
            let r = Engine::new(m).run(&[blas3_like(), lbmhd_like()], 16);
            assert!(
                r.pct_peak > 0.0 && r.pct_peak <= 100.0,
                "{}: {}",
                r.machine,
                r.pct_peak
            );
        }
    }

    #[test]
    fn halo3d_costs_scale_with_face_size() {
        let mk = |bytes| {
            Phase::comm(
                "ghost",
                CommPattern::Halo3d {
                    px: 2,
                    py: 2,
                    pz: 2,
                    bytes_face: bytes,
                },
            )
        };
        let engine = Engine::new(platforms::earth_simulator());
        let small = engine.run(&[mk(10_000)], 8).comm_s;
        let large = engine.run(&[mk(10_000_000)], 8).comm_s;
        assert!(large > 5.0 * small, "{small} -> {large}");
    }

    #[test]
    fn overhead_phases_cost_time_but_not_flops() {
        let work = Phase::loop_nest("work", 1024, 100).flops_per_iter(8.0);
        let overhead = Phase::loop_nest("reduce", 1024, 100)
            .flops_per_iter(8.0)
            .overhead();
        let engine = Engine::new(platforms::earth_simulator());
        let lone = engine.run(std::slice::from_ref(&work), 1);
        let both = engine.run(&[work, overhead], 1);
        assert!(both.time_s > lone.time_s, "overhead costs time");
        assert!(
            (both.flops_per_p - lone.flops_per_p).abs() < 1e-9,
            "but not baseline flops"
        );
        assert!(both.gflops_per_p < lone.gflops_per_p);
    }

    #[test]
    fn ilp_efficiency_scales_superscalar_compute() {
        let mk = |ilp: f64| {
            let mut v = VectorizationInfo::full();
            v.ilp_efficiency = ilp;
            Phase::loop_nest("k", 4096, 100)
                .flops_per_iter(64.0)
                .bytes_per_iter(8.0)
                .working_set(64 << 10)
                .vector(v)
        };
        let engine = Engine::new(platforms::power3());
        let full = engine.run(&[mk(1.0)], 1).gflops_per_p;
        let half = engine.run(&[mk(0.5)], 1).gflops_per_p;
        assert!((full / half - 2.0).abs() < 0.05, "{full} vs {half}");
    }

    #[test]
    fn comm_fraction_accounted() {
        let phases = [
            lbmhd_like(),
            Phase::comm(
                "halo",
                CommPattern::Halo2d {
                    px: 4,
                    py: 4,
                    bytes_edge: 1_000_000,
                    bytes_corner: 0,
                },
            ),
        ];
        let r = Engine::new(platforms::power3()).run(&phases, 16);
        assert!(r.comm_s > 0.0);
        assert!(r.comm_fraction() > 0.0 && r.comm_fraction() < 1.0);
    }

    /// Render the fields the table generators consume, so byte-identity
    /// of the parallel path is checked on exactly what users see.
    fn fingerprint(r: &PerfReport) -> String {
        format!(
            "{}|{}|{:.17e}|{:.17e}|{:.17e}|{:.17e}",
            r.machine, r.procs, r.time_s, r.comm_s, r.gflops_per_p, r.pct_peak
        )
    }

    #[test]
    fn sweep_parallel_output_is_bit_identical_to_serial() {
        let jobs: Vec<SweepJob> = platforms::all()
            .into_iter()
            .flat_map(|m| {
                [16usize, 64].into_iter().map(move |procs| {
                    SweepJob::new(m.clone(), vec![lbmhd_like(), blas3_like()], procs)
                })
            })
            .collect();
        let serial: Vec<String> = run_sweep_threads(jobs.clone(), 1)
            .iter()
            .map(fingerprint)
            .collect();
        let parallel: Vec<String> = run_sweep_threads(jobs, 4).iter().map(fingerprint).collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn phases_tile_the_run_exactly() {
        let phases = [
            lbmhd_like(),
            Phase::comm(
                "halo",
                CommPattern::Halo2d {
                    px: 4,
                    py: 4,
                    bytes_edge: 100_000,
                    bytes_corner: 1_000,
                },
            ),
            blas3_like(),
        ];
        let reg = std::sync::Arc::new(pvs_obs::Registry::new());
        let report = Engine::new(platforms::earth_simulator())
            .with_recorder(reg.clone())
            .run(&phases, 16);

        let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            ["collision", "halo", "dgemm"],
            "phase order preserved"
        );
        let comm: Vec<bool> = report.phases.iter().map(|p| p.is_comm).collect();
        assert_eq!(comm, [false, true, false]);
        // Same left-to-right sum on both sides: no rounding allowance.
        let (mut time_s, mut comm_s) = (0.0, 0.0);
        for p in &report.phases {
            time_s += p.seconds;
            if p.is_comm {
                comm_s += p.seconds;
            }
        }
        assert_eq!(time_s, report.time_s, "phases tile the run with no gaps");
        assert_eq!(comm_s, report.comm_s);
        assert_eq!(reg.counter("engine.phases"), 3);
        assert_eq!(reg.counter("engine.loop.phases"), 2);
        assert_eq!(reg.counter("engine.comm.phases"), 1);
    }

    #[test]
    fn counters_cross_check_avl_and_flops() {
        let phases = [lbmhd_like()];
        let reg = std::sync::Arc::new(pvs_obs::Registry::new());
        let report = Engine::new(platforms::earth_simulator())
            .with_recorder(reg.clone())
            .run(&phases, 16);

        // AVL recomputed from raw counters matches the report.
        let elems = reg.counter("vectorsim.element_ops") as f64;
        let insts = reg.counter("vectorsim.vector_instructions") as f64;
        assert!(insts > 0.0);
        let avl = elems / insts;
        assert!((avl - report.avl().unwrap()).abs() < 1e-9, "AVL {avl}");

        // Strip-mine loop count is consistent with the loop shape: each
        // strip covers at most the ES maximum vector length (256), and
        // lbmhd_like runs 4096 trips × 2048 outer iterations.
        let strips = reg.counter("vectorsim.strips");
        assert!(strips > 0);
        let elements_per_strip = (4096.0 * 2048.0) / strips as f64;
        assert!(
            elements_per_strip <= 256.0 + 1e-9,
            "elements per strip {elements_per_strip}"
        );

        // Flop counter matches the analytic total.
        let flops = reg.counter("engine.loop.flops") as f64;
        assert!((flops - report.flops_per_p).abs() <= 1.0, "flops {flops}");
    }

    #[test]
    fn observed_run_exports_model_histograms() {
        let mut gather = Phase::loop_nest("deposit", 4096, 64)
            .flops_per_iter(12.0)
            .bytes_per_iter(48.0)
            .pattern(AccessPattern::Indirect {
                elem_bytes: 8,
                reuse: 0.5,
            })
            .working_set(8 << 20)
            .vector(VectorizationInfo::full());
        if let Phase::Loop(l) = &mut gather {
            l.vector.gather_hot_words = Some(4);
        }
        let phases = [
            lbmhd_like(),
            gather,
            Phase::comm(
                "halo",
                CommPattern::Halo2d {
                    px: 4,
                    py: 4,
                    bytes_edge: 100_000,
                    bytes_corner: 1_000,
                },
            ),
        ];
        let reg = std::sync::Arc::new(pvs_obs::Registry::new());
        Engine::new(platforms::earth_simulator())
            .with_recorder(reg.clone())
            .run(&phases, 16);
        let snap = reg.snapshot();

        // Strip lengths: counts sum to the strip counter, weighted sum to
        // the element-slot total (strip length x strips = trip coverage).
        let strips = snap.hist("vectorsim.hist.strip_len").unwrap();
        assert_eq!(strips.count(), snap.counter("vectorsim.strips").unwrap());
        assert!(strips.max() <= 256, "ES max VL bounds every strip");

        // Message sizes: counts and sums tie out to the traffic counters.
        let sizes = snap.hist("netsim.hist.msg_bytes").unwrap();
        assert_eq!(sizes.count(), snap.counter("netsim.messages").unwrap());
        assert_eq!(sizes.sum(), snap.counter("netsim.payload_bytes").unwrap());
        let hops = snap.hist("netsim.hist.msg_hops").unwrap();
        assert_eq!(hops.sum(), snap.counter("netsim.hops").unwrap());

        // Bank queue depths: one sample per replayed access, and the hot
        // gather must actually queue somewhere.
        let depths = snap.hist("memsim.hist.bank_queue_depth").unwrap();
        assert_eq!(
            depths.count(),
            snap.counter("memsim.bank.accesses").unwrap()
        );
        assert!(depths.max() > 0, "hot-word gather must conflict");
    }

    /// A bare run times its comm phases on the timing-only ledger, an
    /// observed one on the counting ledger: every modelled second must
    /// agree to the bit, healthy and damaged.
    #[test]
    fn observed_run_matches_unobserved_run() {
        let phases = comm_heavy(64);
        let damaged = |machine, faults| {
            Engine::new(machine).with_adversity(Adversity::healthy().with_net(faults))
        };
        let mut engines: Vec<Engine> = platforms::all().into_iter().map(Engine::new).collect();
        engines.push(damaged(
            platforms::x1(),
            pvs_netsim::LinkFaults::healthy()
                .fail_link(0)
                .degrade_link(5, 0.5),
        ));
        engines.push(damaged(
            platforms::earth_simulator(),
            pvs_netsim::LinkFaults::healthy().lose_port(0).lose_port(7),
        ));
        let seconds =
            |r: &PerfReport| -> Vec<u64> { r.phases.iter().map(|p| p.seconds.to_bits()).collect() };
        for engine in engines {
            let ctx = format!("{} {:?}", engine.machine().name, engine.adversity());
            let plain = engine.run(&phases, 64);
            let reg = std::sync::Arc::new(pvs_obs::Registry::new());
            let observed = engine.clone().with_recorder(reg.clone()).run(&phases, 64);
            assert!(
                reg.counter("netsim.messages") > 0,
                "{ctx}: the run reached the network"
            );
            assert_eq!(fingerprint(&plain), fingerprint(&observed), "{ctx}");
            assert_eq!(seconds(&plain), seconds(&observed), "{ctx}");
        }
    }

    fn comm_heavy(procs: usize) -> Vec<Phase> {
        let side = (procs as f64).sqrt() as usize;
        vec![
            lbmhd_like(),
            Phase::comm(
                "transpose",
                CommPattern::AllToAll {
                    ranks: procs,
                    bytes_per_pair: 40_000,
                },
            ),
            Phase::comm(
                "halo",
                CommPattern::Halo2d {
                    px: side,
                    py: side,
                    bytes_edge: 200_000,
                    bytes_corner: 2_000,
                },
            ),
        ]
    }

    #[test]
    fn healthy_adversity_changes_nothing() {
        let phases = comm_heavy(64);
        let plain = Engine::new(platforms::x1()).run(&phases, 64);
        let guarded = Engine::new(platforms::x1())
            .with_adversity(Adversity::healthy())
            .run(&phases, 64);
        assert_eq!(fingerprint(&plain), fingerprint(&guarded));
    }

    #[test]
    fn torus_link_loss_slows_the_x1_deterministically() {
        let phases = comm_heavy(64);
        let healthy = Engine::new(platforms::x1()).run(&phases, 64);
        let adversity = Adversity::healthy().with_net(
            pvs_netsim::LinkFaults::healthy()
                .fail_link(0)
                .degrade_link(5, 0.5),
        );
        let hurt = |_: usize| {
            Engine::new(platforms::x1())
                .with_adversity(adversity.clone())
                .run(&phases, 64)
        };
        let a = hurt(0);
        let b = hurt(1);
        assert_eq!(fingerprint(&a), fingerprint(&b), "same faults, same run");
        assert!(
            a.comm_s > healthy.comm_s,
            "damaged torus must communicate slower: {} vs {}",
            a.comm_s,
            healthy.comm_s
        );
        assert!(a.gflops_per_p < healthy.gflops_per_p);
    }

    #[test]
    fn crossbar_port_loss_slows_the_es() {
        let phases = comm_heavy(64);
        let healthy = Engine::new(platforms::earth_simulator()).run(&phases, 64);
        let hurt = Engine::new(platforms::earth_simulator())
            .with_adversity(
                Adversity::healthy()
                    .with_net(pvs_netsim::LinkFaults::healthy().lose_port(0).lose_port(7)),
            )
            .run(&phases, 64);
        assert!(
            hurt.comm_s > healthy.comm_s,
            "{} vs {}",
            hurt.comm_s,
            healthy.comm_s
        );
    }

    #[test]
    fn failed_banks_slow_vector_loops() {
        // lbmhd_like is unit-stride: conflict-free on healthy hardware,
        // so the bank replay normally doesn't even run. A mapped-out
        // bank must force the fallback and cost time.
        let phases = [lbmhd_like()];
        let healthy = Engine::new(platforms::earth_simulator()).run(&phases, 16);
        let hurt = Engine::new(platforms::earth_simulator())
            .with_adversity(Adversity::healthy().fail_bank(0).fail_bank(1))
            .run(&phases, 16);
        assert!(
            hurt.time_s > healthy.time_s,
            "{} vs {}",
            hurt.time_s,
            healthy.time_s
        );
        assert!(hurt.gflops_per_p < healthy.gflops_per_p);
    }

    /// A replay straight from `pvs-memsim`, built without the engine:
    /// the expected value of every replay-table test.
    fn direct_replay(
        banks: BankConfig,
        failed: &[usize],
        duplicated: bool,
        hot: usize,
    ) -> BankedMemory {
        let mut mem = BankedMemory::new(banks);
        for &b in failed {
            mem.fail_bank(b);
        }
        if duplicated {
            mem.duplicate(32);
        }
        mem.gather(0, scrambled_stream(BANK_SAMPLE, hot));
        mem
    }

    /// Every summary field against the replay, the efficiency as bits.
    fn assert_same_replay(got: &BankSummary, want: &BankedMemory, ctx: &str) {
        assert_eq!(
            got.efficiency.to_bits(),
            want.efficiency().to_bits(),
            "{ctx}: efficiency"
        );
        assert_eq!(got.accesses, want.accesses, "{ctx}: accesses");
        assert_eq!(got.stall_cycles, want.stall_cycles, "{ctx}: stall cycles");
        assert_eq!(got.queue_depths, want.queue_depths(), "{ctx}: queue depths");
    }

    fn vector_banks(machine: &Machine) -> BankConfig {
        match machine.cpu {
            CpuClass::Vector { banks, .. } => banks,
            CpuClass::Superscalar { .. } => panic!("{} has no banks", machine.name),
        }
    }

    fn loop_of(phase: Phase) -> LoopPhase {
        match phase {
            Phase::Loop(l) => l,
            Phase::Comm(c) => panic!("{} is not a loop", c.name),
        }
    }

    fn gather_loop(hot: usize, duplicated: bool) -> LoopPhase {
        let mut v = VectorizationInfo::full();
        v.gather_hot_words = Some(hot);
        v.duplicated = duplicated;
        loop_of(Phase::loop_nest("deposit", 4096, 64).vector(v))
    }

    #[test]
    fn replay_table_hits_equal_direct_replays() {
        let table = ReplayTable::new();
        for machine in [platforms::earth_simulator(), platforms::x1()] {
            let banks = vector_banks(&machine);
            let engine = Engine::new(machine.clone());
            for duplicated in [false, true] {
                for hot in [8, 4096] {
                    let ctx = format!("{} duplicated={duplicated} hot={hot}", machine.name);
                    let want = direct_replay(banks, &[], duplicated, hot);
                    let key = ReplayKey {
                        banks,
                        duplicated,
                        gather_hot_words: hot,
                    };
                    let first = table.get(key);
                    let hit = table.get(key);
                    assert!(Arc::ptr_eq(&first, &hit), "{ctx}: the second call hits");
                    assert_same_replay(&first, &want, &format!("{ctx} first"));
                    assert_same_replay(&hit, &want, &format!("{ctx} hit"));
                    let l = gather_loop(hot, duplicated);
                    let shared = engine.bank_replay(&l, banks).expect("a gather replays");
                    assert_same_replay(&shared, &want, &format!("{ctx} engine"));
                }
            }
        }
        assert_eq!(table.lock_done().len(), 8);
    }

    #[test]
    fn replay_table_stops_storing_at_its_cap() {
        let table = ReplayTable::new();
        let banks = BankConfig {
            num_banks: 64,
            bank_cycle: 8,
            word_bytes: 8,
        };
        let key = |hot| ReplayKey {
            banks,
            duplicated: false,
            gather_hot_words: hot,
        };
        for hot in 1..=REPLAY_TABLE_CAP {
            table.get(key(hot));
        }
        let past = REPLAY_TABLE_CAP + 1;
        let (a, b) = (table.get(key(past)), table.get(key(past)));
        assert!(!Arc::ptr_eq(&a, &b), "past the cap every call replays");
        assert_same_replay(&b, &direct_replay(banks, &[], false, past), "past the cap");
        let stored = table.lock_done().len();
        assert_eq!(stored, REPLAY_TABLE_CAP);
    }

    #[test]
    fn failed_banks_bypass_the_replay_table() {
        let machine = platforms::earth_simulator();
        let banks = vector_banks(&machine);
        let healthy = Engine::new(machine.clone());
        let hurt =
            Engine::new(machine).with_adversity(Adversity::healthy().fail_bank(0).fail_bank(1));
        let gather = gather_loop(8, true);
        let unit = loop_of(lbmhd_like());
        let want_healthy = direct_replay(banks, &[], true, 8);
        let want_hurt = direct_replay(banks, &[0, 1], true, 8);
        assert!(want_hurt.remapped_accesses > 0, "the failed banks are hit");
        let mut want_fallback = BankedMemory::new(banks);
        want_fallback.fail_bank(0);
        want_fallback.fail_bank(1);
        want_fallback.strided_access(0, BANK_SAMPLE, 1);
        for order in [[&healthy, &hurt], [&hurt, &healthy]] {
            for engine in order {
                let failed = !engine.adversity().failed_banks.is_empty();
                let ctx = format!("failed banks: {failed}");
                let got = engine
                    .bank_replay(&gather, banks)
                    .expect("a gather replays");
                let want = if failed { &want_hurt } else { &want_healthy };
                assert_same_replay(&got, want, &ctx);
                match engine.bank_replay(&unit, banks) {
                    Some(got) => assert_same_replay(&got, &want_fallback, &ctx),
                    None => assert!(!failed, "{ctx}: the strided fallback must replay"),
                }
            }
        }
    }

    #[test]
    fn degraded_sweep_is_thread_count_invariant() {
        let engine = Engine::new(platforms::x1()).with_adversity(
            Adversity::healthy()
                .with_net(pvs_netsim::LinkFaults::healthy().fail_link(0))
                .fail_bank(3),
        );
        let batch: Vec<(Vec<Phase>, usize)> = (0..6)
            .map(|i| (comm_heavy(16 << (i % 3)), 16 << (i % 3)))
            .collect();
        let sweep = |threads: usize| -> Vec<String> {
            let engine = engine.clone();
            map_slice(batch.clone(), threads, move |(phases, procs)| {
                fingerprint(&engine.run(phases, *procs))
            })
        };
        assert_eq!(sweep(1), sweep(8));
    }

    #[test]
    fn engine_batch_matches_individual_runs() {
        let engine = Engine::new(platforms::x1());
        let batch = vec![
            (vec![lbmhd_like()], 4usize),
            (vec![blas3_like()], 16),
            (vec![lbmhd_like(), blas3_like()], 64),
        ];
        let worker = engine.clone();
        let swept = map_slice(batch.clone(), default_threads(), move |(phases, procs)| {
            worker.run(phases, *procs)
        });
        for ((phases, procs), got) in batch.iter().zip(&swept) {
            let lone = engine.run(phases, *procs);
            assert_eq!(fingerprint(&lone), fingerprint(got));
        }
    }
}
