//! mpisim v2 — the event-driven rank runtime.
//!
//! The thread-backed runtime ([`crate::comm::run`]) spends one OS thread
//! per rank, which caps simulations far below the scales the related
//! scale studies run natively (weak scaling to 10⁵ ranks). This module
//! removes the cap: virtual ranks are **continuation-style tasks**
//! resumed on the scheduler's own thread, scheduled by
//! the simulated-picosecond event core ([`pvs_core::EventQueue`]).
//! A rank blocked in a receive or a
//! collective *parks* — its continuation is keyed on what it waits for
//! and rescheduled when the matching packet arrives or the collective
//! completes — so P is bounded by memory, not by thread count.
//!
//! ## Programming model
//!
//! Stable std Rust has no stackful coroutines, so a virtual rank is an
//! explicit state machine implementing [`RankProgram`]: the scheduler
//! calls [`RankProgram::resume`] with the [`Reply`] to the previously
//! requested [`Op`] ([`Reply::Start`] first), and the program answers
//! with its next op or [`Step::Finish`]. [`ScriptProgram`] covers the
//! common case of a fixed op sequence.
//!
//! ## Scheduling determinism rule
//!
//! Results are a function of the programs alone — no host thread count
//! or timing enters them — because
//!
//! 1. every event carries `(at_ps, seq)` and drains in that order
//!    ([`EventQueue`] keeps FIFO among equal timestamps);
//! 2. one *batch* = every rank runnable at the earliest timestamp; the
//!    batch is resumed **in place**: rank slots never leave the
//!    scheduler's slot array, and a resume touches only its own slot —
//!    state and mailbox — and appends what it asks of other ranks to the
//!    scheduler's one effects log, so the order of resumes within a batch
//!    is observable only as the order of the log;
//! 3. all cross-rank effects (packet delivery, wakeups, collective
//!    completion) are applied **in log order** — batch order, i.e. queue
//!    order, not rank order; within a rank its sends, then its collective
//!    entry — after every rank of the batch has been resumed.
//!
//! Every superstep runs on the scheduler thread: a resume is ≈ 110 ns of
//! work (LBMHD's halo kernel at 131 072 ranks on a 2-core x86-64 host),
//! and sharing a batch out to workers measured slower than one thread at
//! every rung of the rank ladder (DESIGN §12).
//!
//! ## Collectives
//!
//! Collectives are computed centrally when every participant has
//! entered, from [`pvs_core::schedule`] and the private `collective`
//! module: values fold in canonical rank order, and the per-rank
//! [`CommStats`]/[`FaultStats`] are charged arithmetically from the
//! schedule v1 executes as packets (under fault injection, replaying
//! v1's seeded draw per scheduled message), so the two runtimes agree
//! bit-for-bit on results *and* traffic accounting.
//!
//! One intended divergence: when a faulty collective message exhausts
//! its retries, v1's ring deadlocks for P > 2 (the erroring rank stops
//! forwarding and its successors block forever); v2 instead fails every
//! participant with the first timeout in schedule order. Conformance is
//! therefore gated on regimes where retries succeed.

use crate::blocks::Blocks;
use crate::caf::CoArray;
use crate::collective::{fold_max, fold_sum, World};
use crate::comm::{received, take_match, CommStats, Packet, Payload, Received, Want};
use crate::fault::{FaultError, FaultSpec, FaultStats, RankOutcome};
use crate::tags::{self, assert_user_tag, ctag};
use pvs_core::schedule::{binomial, dissemination, ring, rotation, Round};
use pvs_core::EventQueue;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, RwLock};

/// One operation a rank program asks the scheduler to perform.
#[derive(Debug, Clone)]
pub enum Op {
    /// Send `data` to `dst` with a user-space `tag` (completes
    /// immediately; faulty mode may report drop-exhaustion).
    Send {
        /// Destination rank.
        dst: usize,
        /// User tag (top bit clear).
        tag: u64,
        /// Payload.
        data: Vec<f64>,
    },
    /// Receive from `src` with `tag`; parks until a match arrives.
    Recv {
        /// Source rank.
        src: usize,
        /// User tag (top bit clear).
        tag: u64,
    },
    /// Combined send + receive with one partner (halo exchange).
    Sendrecv {
        /// The partner rank (self is a no-op echo).
        partner: usize,
        /// User tag (top bit clear).
        tag: u64,
        /// Payload.
        data: Vec<f64>,
    },
    /// Dissemination-barrier synchronization.
    Barrier,
    /// Element-wise sum allreduce (canonical rank-order fold).
    AllreduceSum {
        /// This rank's contribution.
        data: Vec<f64>,
    },
    /// Scalar max allreduce (canonical rank-order fold).
    AllreduceMaxScalar {
        /// This rank's contribution.
        x: f64,
    },
    /// Allgather: every rank's contribution, indexed by rank.
    Allgather {
        /// This rank's contribution.
        data: Vec<f64>,
    },
    /// Broadcast from `root` (binomial-tree schedule).
    Broadcast {
        /// The broadcasting rank.
        root: usize,
        /// Payload (ignored on non-root ranks).
        data: Vec<f64>,
    },
    /// Personalized all-to-all: `sends[d]` goes to rank `d`.
    Alltoallv {
        /// Per-destination payloads (`sends.len() == size`).
        sends: Blocks,
    },
    /// Collectively create a [`CoArray`] window of `len` doubles.
    CoCreate {
        /// Elements per image.
        len: usize,
    },
}

/// The completion of the previously requested [`Op`], handed to
/// [`RankProgram::resume`]. In a healthy simulation every `Result` is
/// `Ok`; faulty simulations surface the same [`FaultError`]s v1 does.
#[derive(Debug, Clone)]
pub enum Reply {
    /// First resume of the program; no op has completed yet.
    Start,
    /// [`Op::Send`] completed (or timed out / hit a failed rank).
    Sent(Result<(), FaultError>),
    /// [`Op::Recv`] matched (or surfaced the sender's loss).
    Received(Result<Vec<f64>, FaultError>),
    /// [`Op::Sendrecv`] completed.
    Exchanged(Result<Vec<f64>, FaultError>),
    /// [`Op::Barrier`] completed.
    BarrierDone(Result<(), FaultError>),
    /// [`Op::AllreduceSum`] result, identical bits on every rank.
    Reduced(Result<Vec<f64>, FaultError>),
    /// [`Op::AllreduceMaxScalar`] result.
    MaxReduced(Result<f64, FaultError>),
    /// [`Op::Allgather`] result (healthy mode only): one allocation,
    /// shared by every rank's reply.
    Gathered(Arc<[Vec<f64>]>),
    /// [`Op::Broadcast`] result (healthy mode only).
    Broadcasted(Vec<f64>),
    /// [`Op::Alltoallv`] result (healthy mode only): block `s` is what
    /// rank `s` sent here.
    Alltoall(Blocks),
    /// [`Op::CoCreate`] result (healthy mode only).
    CoCreated(CoArray),
}

/// What a program does after a resume: request the next op or finish.
#[derive(Debug)]
pub enum Step<T> {
    /// Ask the scheduler to perform an operation.
    Op(Op),
    /// The rank is done; its value is collected in rank order.
    Finish(T),
}

/// Read-only per-rank context handed to every resume.
#[derive(Debug, Clone, Copy)]
pub struct RankCtx {
    /// This rank's id in `[0, size)`.
    pub rank: usize,
    /// Number of ranks, failed ones included.
    pub size: usize,
    /// Traffic statistics so far (delivered messages only).
    pub comm: CommStats,
    /// Fault accounting so far (all zero in healthy mode).
    pub faults: FaultStats,
    /// This rank's simulated clock: backoff + delay charged so far.
    pub clock_ps: u64,
}

/// A virtual rank: an explicit continuation resumed by the scheduler.
pub trait RankProgram: Send + 'static {
    /// The per-rank return value, collected in rank order.
    type Output: Send + 'static;

    /// Advance the rank. `reply` completes the previously requested op
    /// ([`Reply::Start`] on the first call).
    fn resume(&mut self, ctx: &RankCtx, reply: Reply) -> Step<Self::Output>;
}

/// A [`RankProgram`] that executes a fixed op sequence and returns every
/// reply it saw — the workhorse for conformance tests. It builds every op
/// before the run and keeps every reply until the end, so the scale
/// kernels are hand-written continuations instead; only PARATEC's runs
/// as a script, because its per-rank state is O(P) anyway.
#[derive(Debug)]
pub struct ScriptProgram {
    ops: VecDeque<Op>,
    replies: Vec<Reply>,
}

impl ScriptProgram {
    /// A program that performs `ops` in order.
    pub fn new(ops: Vec<Op>) -> Self {
        ScriptProgram {
            ops: ops.into(),
            replies: Vec::new(),
        }
    }
}

impl RankProgram for ScriptProgram {
    type Output = Vec<Reply>;

    fn resume(&mut self, _ctx: &RankCtx, reply: Reply) -> Step<Vec<Reply>> {
        if !matches!(reply, Reply::Start) {
            self.replies.push(reply);
        }
        match self.ops.pop_front() {
            Some(op) => Step::Op(op),
            None => Step::Finish(std::mem::take(&mut self.replies)),
        }
    }
}

/// Scheduler-level counters for one event-driven run, reported under
/// the `mpisim.sim.*` namespace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Virtual ranks simulated.
    pub ranks: u64,
    /// Program resumes (continuation invocations).
    pub resumes: u64,
    /// Scheduler batches (supersteps) resumed.
    pub batches: u64,
    /// Point-to-point packets routed through the scheduler.
    pub messages: u64,
    /// Times a rank parked (blocked receive or collective entry).
    pub parks: u64,
    /// Times a parked rank was rescheduled by a matching packet.
    pub wakeups: u64,
    /// Collectives completed centrally.
    pub collectives: u64,
    /// High-water mark of simultaneously parked ranks.
    pub peak_parked: u64,
}

impl SimStats {
    /// Report into a [`pvs_obs::Recorder`] under `mpisim.sim.*`.
    pub fn record_to(&self, r: &dyn pvs_obs::Recorder) {
        r.gauge_set("mpisim.sim.ranks", self.ranks);
        r.add("mpisim.sim.resumes", self.resumes);
        r.add("mpisim.sim.batches", self.batches);
        r.add("mpisim.sim.messages", self.messages);
        r.add("mpisim.sim.parks", self.parks);
        r.add("mpisim.sim.wakeups", self.wakeups);
        r.add("mpisim.sim.collectives", self.collectives);
        r.gauge_max("mpisim.sim.peak_parked", self.peak_parked);
    }
}

/// Everything one event-driven run produced.
#[derive(Debug)]
pub struct SimReport<T> {
    /// Per-rank results in rank order ([`RankOutcome::Failed`] for ranks
    /// in the fault spec's failed set).
    pub outcomes: Vec<RankOutcome<T>>,
    /// Per-rank traffic statistics (`None` for failed ranks).
    pub comm_stats: Vec<Option<CommStats>>,
    /// Per-rank simulated clocks in picoseconds (0 for failed ranks).
    pub clocks_ps: Vec<u64>,
    /// Scheduler counters.
    pub sim: SimStats,
    /// Superstep batch-size distribution: `(ranks_in_batch, batches)`
    /// pairs, sorted by size. Counts sum to `sim.batches`. Kept off
    /// [`SimStats`] so that struct stays `Copy`.
    pub batch_sizes: Vec<(u64, u64)>,
}

impl<T> SimReport<T> {
    /// Report the scheduler counters *and* the superstep batch-size
    /// histogram (`mpisim.hist.batch_ranks`, in simulated ranks per
    /// batch) into a [`pvs_obs::Recorder`].
    pub fn record_to(&self, r: &dyn pvs_obs::Recorder) {
        self.sim.record_to(r);
        if !self.batch_sizes.is_empty() {
            let entries: Vec<(&str, u64, u64)> = self
                .batch_sizes
                .iter()
                .map(|&(size, n)| ("mpisim.hist.batch_ranks", size, n))
                .collect();
            r.record_many(&entries);
        }
    }

    /// The per-rank values, panicking if any rank was failed — the
    /// healthy-mode convenience mirroring [`crate::comm::run`]'s shape.
    pub fn into_values(self) -> Vec<T> {
        self.into_values_and_stats()
            .into_iter()
            .map(|(value, _)| value)
            .collect()
    }

    /// Each rank's value with its traffic statistics, panicking if any
    /// rank was failed — what a healthy v1 closure returning
    /// `(value, comm.stats())` yields.
    pub fn into_values_and_stats(self) -> Vec<(T, CommStats)> {
        self.outcomes
            .into_iter()
            .zip(self.comm_stats)
            .map(|rank| match rank {
                (RankOutcome::Completed { value, .. }, Some(stats)) => (value, stats),
                // INFALLIBLE: healthy sims have no failed ranks; callers
                // of faulty sims read `outcomes` instead.
                _ => unreachable!("failed rank in a healthy report"),
            })
            .collect()
    }
}

/// Builder for an event-driven simulation.
#[derive(Debug, Clone)]
pub struct EventSim {
    nranks: usize,
    faults: Option<FaultSpec>,
}

impl EventSim {
    /// A healthy simulation of `nranks` virtual ranks.
    pub fn new(nranks: usize) -> Self {
        assert!(nranks >= 1);
        EventSim {
            nranks,
            faults: None,
        }
    }

    /// Inject faults: every message replays the seeded drop/delay draws
    /// [`crate::run_faulty`] makes, and ranks in the failed set never
    /// execute. Mirrors v1's faulty surface — only the collectives
    /// [`FaultSpec`]-mode v1 offers (barrier, sum allreduce) are legal.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// Run the simulation: `make(rank, size)` builds each surviving
    /// rank's program.
    pub fn run<P, F>(&self, make: F) -> SimReport<P::Output>
    where
        P: RankProgram,
        F: Fn(usize, usize) -> P,
    {
        let world = World::new(self.nranks, self.faults.clone());
        let slots = (0..self.nranks)
            .map(|rank| {
                world
                    .alive(rank)
                    .then(|| RankSlot::new(make(rank, self.nranks), world.armed()))
            })
            .collect();
        let mut sched = Scheduler {
            world,
            slots,
            queue: EventQueue::new(),
            group: Group::default(),
            parked_count: 0,
            sim: SimStats {
                ranks: self.nranks as u64,
                ..SimStats::default()
            },
            batch_dist: BTreeMap::new(),
        };
        for &rank in sched.world.survivors() {
            sched.queue.push(0, rank);
        }
        sched.drive();
        sched.into_report()
    }
}

/// The shape a completed receive is answered in: [`Reply::Received`],
/// or [`Reply::Exchanged`] for a sendrecv.
type RecvReply = fn(Received) -> Reply;

/// Why a rank's continuation is parked.
#[derive(Debug, Clone, Copy)]
enum Parked {
    /// Blocked receive of `(src, tag)`.
    Recv {
        src: usize,
        tag: u64,
        reply: RecvReply,
    },
    /// Entered the collective in flight.
    Collective,
}

/// Where a rank is between resumes: exactly one of these at a time.
enum State<T> {
    /// Runnable, with the reply its next resume gets (`Start` at launch,
    /// the parked op's completion after a wake).
    Ready(Reply),
    /// Blocked until a matching packet or the collective's completion.
    Parked(Parked),
    /// Finished with its value.
    Done(T),
    /// Inside `run_local`, which holds the reply while the program runs.
    Running,
}

/// What a resume asks of another rank's slot or of the group, logged
/// while the batch runs and applied once all of it has.
enum Effect {
    /// Route `packet` to `dst`.
    Deliver { dst: usize, packet: Packet },
    /// `rank` parked on the collective `op`.
    Enter { rank: usize, op: Op },
}

/// One virtual rank's complete state, cut to what varies per healthy
/// rank: the rank is the slot's index and the size the world's, so
/// `run_local` builds the [`RankCtx`] a resume reads on the stack. A slot
/// never leaves `Scheduler::slots`: a resume borrows it (`&mut`), the
/// effects log, and nothing else of the scheduler.
struct RankSlot<P: RankProgram> {
    program: P,
    comm: CommStats,
    /// The fault ledger and the simulated clock, boxed in an armed world
    /// only: nothing but a [`FaultSpec`] ever moves either.
    ledger: Option<Box<(FaultStats, u64)>>,
    /// Packets that arrived ahead of their receive, allocated by the first
    /// of them or by a loopback send. A packet that matches the receive
    /// its rank is parked on never enters it (`deliver`).
    #[expect(clippy::box_collection, reason = "8 bytes a slot, not 32")]
    mailbox: Option<Box<VecDeque<Packet>>>,
    state: State<P::Output>,
}

impl<P: RankProgram> RankSlot<P> {
    fn new(program: P, armed: bool) -> Self {
        RankSlot {
            program,
            comm: CommStats::default(),
            ledger: armed.then(Box::default),
            mailbox: None,
            state: State::Ready(Reply::Start),
        }
    }

    /// The fault accounting and simulated clock, zero when unarmed.
    fn ledger(&self) -> (FaultStats, u64) {
        self.ledger.as_deref().copied().unwrap_or_default()
    }

    fn ctx(&self, rank: usize, size: usize) -> RankCtx {
        let (faults, clock_ps) = self.ledger();
        RankCtx {
            rank,
            size,
            comm: self.comm,
            faults,
            clock_ps,
        }
    }

    fn mailbox(&mut self) -> &mut VecDeque<Packet> {
        self.mailbox.get_or_insert_default()
    }

    /// [`World::charge_send`] against this rank's ledger; an unarmed
    /// world, which has none, charges nothing.
    fn charge_send(
        &mut self,
        world: &World,
        src: usize,
        dst: usize,
        tag: u64,
    ) -> Result<(), FaultError> {
        match self.ledger.as_deref_mut() {
            Some((faults, clock_ps)) => world.charge_send(src, dst, tag, faults, clock_ps),
            None => Ok(()),
        }
    }
}

/// The slot array, indexed by rank; a failed rank leaves a hole.
type Slots<P> = [Option<RankSlot<P>>];

/// The collective in flight: the `Op` each rank entered with, by rank.
/// One at a time suffices — every rank's k-th collective joins the same
/// group (MPI requires identical order), and nobody reaches its k+1-th
/// before every survivor has entered the k-th and so completed it.
#[derive(Default)]
struct Group {
    ops: Vec<Option<Op>>,
    /// The first rank to enter, whose op the others must match.
    first: Option<usize>,
    entered: usize,
}

struct Scheduler<P: RankProgram> {
    world: World,
    slots: Vec<Option<RankSlot<P>>>,
    /// Runnable ranks keyed by their simulated clocks.
    queue: EventQueue<usize>,
    group: Group,
    parked_count: u64,
    sim: SimStats,
    /// Batches by rank count: `batch_dist[size]` batches resumed exactly
    /// `size` ranks. Sorted map so the exported distribution is
    /// deterministic.
    batch_dist: BTreeMap<u64, u64>,
}

impl<P: RankProgram> Scheduler<P> {
    fn drive(&mut self) {
        // Rank ids in queue order, reused by every superstep.
        let mut batch: Vec<usize> = Vec::new();
        // The batch's cross-rank effects in resume order, likewise reused:
        // sized once, for an effect per rank of the first batch.
        let mut effects: Vec<Effect> = Vec::with_capacity(self.queue.len());
        while let Some(at_ps) = self.queue.peek_time() {
            // One batch: every rank runnable at the earliest timestamp.
            batch.clear();
            while self.queue.peek_time() == Some(at_ps) {
                // INFALLIBLE: peek_time just returned Some.
                batch.push(self.queue.pop().expect("peeked entry").payload);
            }
            self.sim.batches += 1;
            *self.batch_dist.entry(batch.len() as u64).or_insert(0) += 1;

            // Resume every rank of the batch against its own slot and the
            // log, counting its park as it happens: every park of the batch
            // is counted BEFORE any delivery — a packet toward a rank later
            // in the same batch wakes it, and a wake must find its park counted.
            for &rank in &batch {
                // INFALLIBLE: only surviving ranks are ever scheduled.
                let slot = self.slots[rank]
                    .as_mut()
                    .expect("scheduled rank owns its slot");
                if run_local(&self.world, rank, slot, &mut effects, &mut self.sim.resumes) {
                    self.parked_count += 1;
                    self.sim.parks += 1;
                }
            }
            self.sim.peak_parked = self.sim.peak_parked.max(self.parked_count);
            // Then the cross-rank effects in log order — batch order, and
            // within a rank its sends, then its collective entry.
            for effect in effects.drain(..) {
                match effect {
                    Effect::Deliver { dst, packet } => self.deliver(dst, packet),
                    Effect::Enter { rank, op } => self.enter_collective(rank, op),
                }
            }
        }
        self.check_quiescent();
    }

    fn slot(&mut self, rank: usize) -> &mut RankSlot<P> {
        // INFALLIBLE: only surviving ranks run, park or enter collectives,
        // and a survivor's slot is live for the whole run.
        self.slots[rank]
            .as_mut()
            .expect("surviving rank owns its slot")
    }

    /// Hand `packet` to `dst` if it parks on a receive the packet matches,
    /// else append it to `dst`'s mailbox. The hand-off is v1's first match:
    /// a rank parks only after its mailbox held no match, and every later
    /// arrival comes through here, so a parked receiver's mailbox never
    /// holds an earlier one. Packets toward failed ranks are blackholed
    /// (a dead node's NIC still sinks traffic); packets toward finished
    /// ranks are buffered and never read, exactly like v1's channels.
    fn deliver(&mut self, dst: usize, packet: Packet) {
        let Some(slot) = self.slots[dst].as_mut() else {
            return; // blackhole: dst is in the failed set
        };
        self.sim.messages += 1;
        match slot.state {
            State::Parked(Parked::Recv { src, tag, reply })
                if packet.matches(src, tag, Want::DataOrLost) =>
            {
                let result = received(&self.world, src, tag, packet.payload);
                self.wake(dst, reply(result));
            }
            _ => slot.mailbox().push_back(packet),
        }
    }

    /// Unpark `rank` with the reply to the op it parked on.
    fn wake(&mut self, rank: usize, reply: Reply) {
        let slot = self.slot(rank);
        debug_assert!(
            matches!(slot.state, State::Parked(_)),
            "rank {rank} woken but not parked"
        );
        slot.state = State::Ready(reply);
        let at_ps = slot.ledger().1;
        self.parked_count -= 1;
        self.sim.wakeups += 1;
        self.queue.push(at_ps, rank);
    }

    /// Register `rank`'s entry into the collective in flight; complete it
    /// centrally once every expected participant has entered.
    fn enter_collective(&mut self, rank: usize, op: Op) {
        let group = &mut self.group;
        if group.ops.is_empty() {
            group.ops.resize_with(self.slots.len(), || None);
        }
        let first = group
            .first
            .and_then(|first| group.ops[first].as_ref())
            .unwrap_or(&op);
        assert_eq!(
            std::mem::discriminant(first),
            std::mem::discriminant(&op),
            "collective #{}: rank {rank} entered {op:?} while peers entered {first:?} \
             — all ranks must issue collectives in the same order",
            self.sim.collectives
        );
        group.first.get_or_insert(rank);
        debug_assert!(
            group.ops[rank].is_none(),
            "rank {rank} entered twice, or a stale entry survived"
        );
        group.ops[rank] = Some(op);
        group.entered += 1;
        if group.entered < self.world.survivors().len() {
            return;
        }
        (group.first, group.entered) = (None, 0);
        self.sim.collectives += 1;
        // Survivors in rank order are the participants in index order.
        let ops = group.ops.iter_mut().filter_map(Option::take);
        let replies = complete_collective(&self.world, ops, &mut self.slots);
        // A barrier or broadcast reads only some of the entries: drop the
        // rest, so the group is empty between collectives.
        group.ops.iter_mut().for_each(|op| *op = None);
        for (rank, reply) in replies {
            self.wake(rank, reply);
        }
    }

    /// The queue drained: every surviving rank must have finished, or
    /// the program set deadlocked (mirrors a hung v1 run, but with a
    /// diagnosis instead of a silent hang).
    fn check_quiescent(&self) {
        let mut stuck = Vec::new();
        for (rank, slot) in self.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            stuck.push(match slot.state {
                State::Done(_) => continue,
                State::Parked(Parked::Recv { src, tag, .. }) => {
                    format!("rank {rank} waiting on recv(src={src}, tag={tag:#x})")
                }
                State::Parked(Parked::Collective) => {
                    format!("rank {rank} inside collective #{}", self.sim.collectives)
                }
                State::Ready(_) | State::Running => format!("rank {rank} runnable but unscheduled"),
            });
        }
        assert!(
            stuck.is_empty(),
            "event-driven run deadlocked with {} rank(s) parked: {}",
            stuck.len(),
            stuck.join("; ")
        );
    }

    fn into_report(self) -> SimReport<P::Output> {
        let nranks = self.world.size();
        let mut outcomes = Vec::with_capacity(nranks);
        let mut comm_stats = Vec::with_capacity(nranks);
        let mut clocks_ps = Vec::with_capacity(nranks);
        for slot in self.slots {
            match slot {
                None => {
                    outcomes.push(RankOutcome::Failed);
                    comm_stats.push(None);
                    clocks_ps.push(0);
                }
                Some(s) => {
                    // INFALLIBLE: check_quiescent proved every survivor
                    // finished before the queue drained.
                    let (faults, clock_ps) = s.ledger();
                    let State::Done(value) = s.state else {
                        unreachable!("rank finished")
                    };
                    outcomes.push(RankOutcome::Completed { value, faults });
                    comm_stats.push(Some(s.comm));
                    clocks_ps.push(clock_ps);
                }
            }
        }
        SimReport {
            outcomes,
            comm_stats,
            clocks_ps,
            sim: self.sim,
            batch_sizes: self.batch_dist.iter().map(|(&s, &n)| (s, n)).collect(),
        }
    }
}

/// Resume one rank until it parks or finishes, touching only its own
/// slot, and return whether it parked. Every resume adds one to
/// `resumes`. Cross-rank effects are appended to `effects` — sends in send
/// order, then the collective entry that ends the slice — and applied by
/// the scheduler once the whole batch has run.
fn run_local<P: RankProgram>(
    world: &World,
    rank: usize,
    slot: &mut RankSlot<P>,
    effects: &mut Vec<Effect>,
    resumes: &mut u64,
) -> bool {
    // INFALLIBLE: only a ready rank is in the queue (Start at launch, op
    // completion at every wake).
    let State::Ready(mut reply) = std::mem::replace(&mut slot.state, State::Running) else {
        unreachable!("scheduled rank {rank} is not ready")
    };
    loop {
        *resumes += 1;
        // Point-to-point ops leave the receive they still have to complete.
        let ctx = slot.ctx(rank, world.size());
        let (src, tag, recv_reply): (_, _, RecvReply) = match slot.program.resume(&ctx, reply) {
            Step::Finish(out) => {
                slot.state = State::Done(out);
                return false;
            }
            Step::Op(Op::Send { dst, tag, data }) => {
                reply = Reply::Sent(local_send(world, rank, slot, effects, dst, tag, data));
                continue;
            }
            Step::Op(Op::Recv { src, tag }) => (src, tag, Reply::Received),
            Step::Op(Op::Sendrecv { partner, tag, data }) => {
                if partner == rank {
                    assert_user_tag(tag);
                    reply = Reply::Exchanged(Ok(data));
                    continue;
                }
                if let Err(e) = local_send(world, rank, slot, effects, partner, tag, data) {
                    reply = Reply::Exchanged(Err(e));
                    continue;
                }
                (partner, tag, Reply::Exchanged)
            }
            Step::Op(collective) => {
                assert!(
                    !world.armed() || matches!(collective, Op::Barrier | Op::AllreduceSum { .. }),
                    "{collective:?} has no faulty-mode counterpart in v1 \
                     (FaultyComm offers barrier and sum allreduce only)"
                );
                slot.state = State::Parked(Parked::Collective);
                effects.push(Effect::Enter {
                    rank,
                    op: collective,
                });
                return true;
            }
        };
        assert_user_tag(tag);
        match try_recv(world, slot.mailbox.as_deref_mut(), src, tag) {
            Some(result) => reply = recv_reply(result),
            None => {
                slot.state = State::Parked(Parked::Recv {
                    src,
                    tag,
                    reply: recv_reply,
                });
                return true;
            }
        }
    }
}

/// The v2 send path: charge the message as v1 does, then emit what v1
/// would put on the wire. Loopback lands in the rank's own mailbox.
fn local_send<P: RankProgram>(
    world: &World,
    src: usize,
    slot: &mut RankSlot<P>,
    effects: &mut Vec<Effect>,
    dst: usize,
    tag: u64,
    data: Vec<f64>,
) -> Result<(), FaultError> {
    assert_user_tag(tag);
    let sent = slot.charge_send(world, src, dst, tag);
    let Some(payload) = Payload::sent(&sent, data) else {
        return sent;
    };
    payload.charge(&mut slot.comm);
    let packet = Packet { src, tag, payload };
    if dst == src {
        slot.mailbox().push_back(packet);
    } else {
        effects.push(Effect::Deliver { dst, packet });
    }
    sent
}

/// Try to complete a receive from a rank's mailbox with v1's first-match
/// buffering (healthy sims never emit a tombstone); a rank that has no
/// mailbox yet has nothing to match. `None` parks.
fn try_recv(
    world: &World,
    mailbox: Option<&mut VecDeque<Packet>>,
    src: usize,
    tag: u64,
) -> Option<Received> {
    if !world.alive(src) {
        return Some(Err(FaultError::RankFailed { rank: src }));
    }
    take_match(mailbox?, src, tag, Want::DataOrLost).map(|p| received(world, src, tag, p))
}

/// Complete a collective centrally: canonical rank-order values, plus
/// per-rank stats charged from the schedule v1 executes as messages.
/// `ops` are the participants' entries in index order; returns
/// `(rank, reply)` pairs in ascending rank order.
fn complete_collective<P: RankProgram>(
    world: &World,
    ops: impl Iterator<Item = Op>,
    slots: &mut Slots<P>,
) -> Vec<(usize, Reply)> {
    // Every survivor has entered, so the participants are the survivors.
    let participants = world.survivors();
    let n = participants.len();
    let ring_steps = ring(n).len() as u64;
    let reply_all = |make: &dyn Fn(usize) -> Reply| -> Vec<(usize, Reply)> {
        participants.iter().map(|&r| (r, make(r))).collect()
    };
    let mixed = || -> ! { unreachable!("mixed collective") };
    let mut ops = ops.peekable();
    // INFALLIBLE: a group completes only after at least one entry.
    match ops.peek().expect("non-empty group") {
        Op::Barrier => {
            let rounds = dissemination(n);
            if world.armed() {
                return faulty_rounds(world, slots, rounds, tags::NS_FAULTY_BARRIER, None);
            }
            charge(slots, participants, rounds.len() as u64, 0);
            reply_all(&|_| Reply::BarrierDone(Ok(())))
        }
        Op::AllreduceSum { .. } => {
            let contribs: Vec<Vec<f64>> = ops.map(data_of).collect();
            let value = fold_sum(&contribs);
            if world.armed() {
                return faulty_rounds(
                    world,
                    slots,
                    ring(n),
                    tags::NS_FAULTY_ALLREDUCE,
                    Some(&value),
                );
            }
            let bytes = (contribs[0].len() * 8) as u64;
            charge(slots, participants, ring_steps, ring_steps * bytes);
            reply_all(&|_| Reply::Reduced(Ok(value.clone())))
        }
        Op::AllreduceMaxScalar { .. } => {
            let contribs: Vec<f64> = ops
                .map(|op| match op {
                    Op::AllreduceMaxScalar { x } => x,
                    _ => mixed(),
                })
                .collect();
            let value = fold_max(&contribs);
            charge(slots, participants, ring_steps, ring_steps * 8);
            reply_all(&|_| Reply::MaxReduced(Ok(value)))
        }
        Op::Allgather { .. } => {
            let rows: Arc<[Vec<f64>]> = ops.map(data_of).collect();
            // Each ring step forwards the frame that arrived the step
            // before — the origin's rank id plus the origin's body — so over
            // the n−1 steps participant i sends the frames of origins
            // i, i−1, …, i−(n−2): every one but its successor's.
            let frames: usize = rows.iter().map(|row| 1 + row.len()).sum();
            for (i, &r) in participants.iter().enumerate() {
                let unsent = 1 + rows[(i + 1) % n].len();
                charge(slots, &[r], ring_steps, ((frames - unsent) * 8) as u64);
            }
            reply_all(&|_| Reply::Gathered(Arc::clone(&rows)))
        }
        &Op::Broadcast { root, .. } => {
            assert!(root < n, "broadcast root {root} of {n}");
            // INFALLIBLE: the assert above put `root` among the n entries.
            let data = data_of(ops.nth(root).expect("root participates"));
            // Each rank sends `data` once per child in the binomial tree.
            let bytes = (data.len() * 8) as u64;
            for (i, &r) in participants.iter().enumerate() {
                let children = binomial(i, root, n).1.len() as u64;
                charge(slots, &[r], children, children * bytes);
            }
            reply_all(&|_| Reply::Broadcasted(data.clone()))
        }
        Op::Alltoallv { .. } => {
            let blocks = |op| {
                if let Op::Alltoallv { sends } = op {
                    sends
                } else {
                    mixed()
                }
            };
            let sends: Vec<Blocks> = ops.map(blocks).collect();
            // One pass over the block lengths charges every sender and
            // sizes every reader's buffer exactly. `rotation(n)` pairs
            // participant `i` with every peer but itself exactly once, so
            // it sends every block but its own.
            let mut doubles = vec![0usize; n];
            for (i, (sends, &r)) in sends.iter().zip(participants).enumerate() {
                assert_eq!(sends.len(), n, "rank {r}: sends.len() == size");
                let mut sent = 0;
                for (total, block) in doubles.iter_mut().zip(sends.iter()) {
                    *total += block.len();
                    sent += block.len();
                }
                sent -= sends.get(i).len();
                charge(slots, &[r], rotation(n).len() as u64, (sent * 8) as u64);
            }
            // Block `i` of `received[me]` is what participant `i` sent to
            // `me`: copied into the reader's one buffer sender by sender,
            // each sender's buffer freed as soon as it has been scattered.
            let mut received: Vec<Blocks> = doubles
                .iter()
                .map(|&d| Blocks::with_capacity(n, d))
                .collect();
            for sends in sends {
                for (block, rows) in sends.iter().zip(&mut received) {
                    rows.push(block.iter().copied());
                }
            }
            let replies = received.into_iter().map(Reply::Alltoall);
            participants.iter().copied().zip(replies).collect()
        }
        &Op::CoCreate { len } => {
            for (op, &r) in ops.zip(participants) {
                match op {
                    Op::CoCreate { len: l } => assert_eq!(l, len, "rank {r}: window length"),
                    _ => mixed(),
                }
            }
            let windows: Vec<_> = (0..n)
                .map(|_| Arc::new(RwLock::new(vec![0.0; len])))
                .collect();
            // The handles' ring circulation sends one origin-id frame per step.
            charge(slots, participants, ring_steps, ring_steps * 8);
            reply_all(&|r| Reply::CoCreated(CoArray::from_windows(r, windows.clone())))
        }
        Op::Send { .. } | Op::Recv { .. } | Op::Sendrecv { .. } => {
            unreachable!("point-to-point ops never enter a collective group")
        }
    }
}

/// The vector a rank contributed to a sum allreduce, allgather or broadcast
/// (`enter_collective` pins one discriminant per group).
fn data_of(op: Op) -> Vec<f64> {
    match op {
        Op::AllreduceSum { data } | Op::Allgather { data } | Op::Broadcast { data, .. } => data,
        _ => unreachable!("mixed collective"),
    }
}

/// Replay v1's faulty barrier (`value: None`) or sum allreduce
/// (`value: Some`) round by round: every scheduled message makes v1's
/// seeded draws in v1's per-rank order, charging the sending rank, and a
/// rank stops at its first failure like v1's `?`. A message that exhausts
/// retries fails *all* participants (the documented divergence).
fn faulty_rounds<P: RankProgram>(
    world: &World,
    slots: &mut Slots<P>,
    rounds: impl IntoIterator<Item = Round>,
    ns: u64,
    value: Option<&[f64]>,
) -> Vec<(usize, Reply)> {
    let participants = world.survivors();
    let n = participants.len();
    let bytes = value.map_or(0, |v| (v.len() * 8) as u64);
    // Per participant: the first failure wins, then it stops sending.
    let mut errors: Vec<Option<FaultError>> = vec![None; n];
    for round in rounds {
        let tag = ctag(ns, round.seq);
        // Send wave: every still-healthy participant performs its send
        // for this round, charging its own draws.
        let mut sent_ok: Vec<bool> = vec![false; n];
        let mut expiry: Vec<u64> = vec![0; n];
        for (i, &me) in participants.iter().enumerate() {
            if errors[i].is_some() {
                continue;
            }
            let dst = participants[round.to(i, n)];
            // INFALLIBLE: participants are alive ranks with live slots.
            let slot = slots[me].as_mut().expect("participant slot");
            match slot.charge_send(world, me, dst, tag) {
                Ok(()) => {
                    slot.comm.messages_sent += 1;
                    slot.comm.bytes_sent += bytes;
                    sent_ok[i] = true;
                }
                Err(e) => {
                    expiry[i] = slot.ledger().1;
                    errors[i] = Some(e);
                }
            }
        }
        // Receive wave: a still-healthy participant observes its
        // predecessor's outcome for this round.
        for (i, error) in errors.iter_mut().enumerate() {
            let from = round.from(i, n);
            if error.is_none() && !sent_ok[from] && from != i {
                *error = Some(world.timeout(participants[from], tag, expiry[from]));
            }
        }
    }
    // The first failure in schedule order fails everyone.
    let first_error = errors.iter().flatten().next().copied();
    participants
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let result = match errors[i].or(first_error) {
                Some(e) => Err(e),
                None => Ok(()),
            };
            let reply = match value {
                None => Reply::BarrierDone(result),
                Some(v) => Reply::Reduced(result.map(|()| v.to_vec())),
            };
            (r, reply)
        })
        .collect()
}

/// Add `messages` and `bytes` to the traffic each of `ranks` has sent.
fn charge<P: RankProgram>(slots: &mut Slots<P>, ranks: &[usize], messages: u64, bytes: u64) {
    for &rank in ranks {
        // INFALLIBLE: collectives charge only alive participants.
        let slot = slots[rank].as_mut().expect("participant slot");
        slot.comm.messages_sent += messages;
        slot.comm.bytes_sent += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::run_programs;

    fn probe(rank: usize) -> f64 {
        [1e16, 1.0, -1e16][rank % 3]
    }

    /// Script: ring shift (send right, recv left) then an allreduce.
    fn ring_script(rank: usize, size: usize) -> ScriptProgram {
        let right = (rank + 1) % size;
        let left = (rank + size - 1) % size;
        let mut ops = Vec::new();
        if size > 1 {
            ops.push(Op::Send {
                dst: right,
                tag: 7,
                data: vec![rank as f64],
            });
            ops.push(Op::Recv { src: left, tag: 7 });
        }
        ops.push(Op::AllreduceSum {
            data: vec![probe(rank)],
        });
        ScriptProgram::new(ops)
    }

    fn reduced(reply: &Reply) -> &[f64] {
        match reply {
            Reply::Reduced(Ok(v)) => v,
            other => panic!("expected Reduced, got {other:?}"),
        }
    }

    #[test]
    fn ring_and_allreduce_match_v1_bitwise() {
        for n in [1usize, 2, 3, 7, 8, 16] {
            let v1 = run_programs(n, None, ring_script).into_values();
            let v2 = EventSim::new(n).run(ring_script).into_values();
            for (rank, (a, b)) in v1.iter().zip(&v2).enumerate() {
                let sums = [a, b].map(|replies| reduced(replies.last().expect("allreduce reply")));
                assert_eq!(
                    sums[0].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    sums[1].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "n={n} rank={rank}"
                );
            }
        }
    }

    #[test]
    fn allreduce_is_bit_identical_across_ranks_on_v2() {
        for n in [2usize, 3, 7, 8] {
            let script = |rank, _| {
                ScriptProgram::new(vec![Op::AllreduceSum {
                    data: vec![probe(rank), 0.1],
                }])
            };
            let results = EventSim::new(n).run(script).into_values();
            let first = reduced(results[0].last().expect("reply")).to_vec();
            for r in &results {
                let got = reduced(r.last().expect("reply"));
                assert_eq!(
                    first.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn sixty_five_thousand_ranks_without_rank_threads() {
        // P = 65536 virtual ranks and not one rank thread: the whole point
        // of the event-driven core. One ring shift + one allreduce each.
        let n = 65536usize;
        let report = EventSim::new(n).run(|rank, size| {
            let right = (rank + 1) % size;
            let left = (rank + size - 1) % size;
            ScriptProgram::new(vec![
                Op::Send {
                    dst: right,
                    tag: 1,
                    data: vec![rank as f64],
                },
                Op::Recv { src: left, tag: 1 },
                Op::AllreduceSum { data: vec![1.0] },
            ])
        });
        assert_eq!(report.sim.ranks, n as u64);
        assert_eq!(report.sim.collectives, 1);
        let canonical: f64 = (1..n).fold(1.0f64, |acc, _| acc + 1.0);
        for (rank, o) in report.outcomes.iter().enumerate() {
            let replies = o.value().expect("completed");
            match (&replies[1], &replies[2]) {
                (Reply::Received(Ok(v)), Reply::Reduced(Ok(sum))) => {
                    let left = (rank + n - 1) % n;
                    assert_eq!(v[0], left as f64);
                    assert_eq!(sum[0].to_bits(), canonical.to_bits());
                }
                other => panic!("rank {rank}: {other:?}"),
            }
        }
    }

    #[test]
    fn deadlock_is_diagnosed_not_hung() {
        // One rank stuck in each parked state while the other finishes:
        // a receive nobody sends to, and a barrier nobody else enters.
        let cases = [
            (
                1,
                Op::Recv { src: 0, tag: 9 },
                "rank 1 waiting on recv(src=0, tag=0x9)",
            ),
            (0, Op::Barrier, "rank 0 inside collective #0"),
        ];
        for (stuck, op, diagnosis) in cases {
            let err = std::panic::catch_unwind(|| {
                EventSim::new(2).run(|rank, _| {
                    ScriptProgram::new(if rank == stuck {
                        vec![op.clone()]
                    } else {
                        vec![]
                    })
                })
            })
            .expect_err("must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("deadlocked with 1 rank(s)"), "{msg}");
            assert!(msg.contains(diagnosis), "{msg}");
        }
    }

    #[test]
    fn slot_array_stays_under_the_heap_reuse_ceiling() {
        // glibc serves an allocation above its largest mmap threshold,
        // 32 MiB on 64-bit hosts, with a fresh mapping and unmaps it on
        // free, so a slot array above that size is first-touched again
        // on every run (DESIGN §12). LBMHD's halo kernel is a 56-byte
        // program returning a `Vec<f64>`; its slot is the program, the
        // traffic, two boxes a healthy run never allocates and the
        // state: 136 bytes, 17 MiB at the ladder's top rung of 131 072
        // ranks.
        struct Halo([u64; 7]);
        impl RankProgram for Halo {
            type Output = Vec<f64>;
            fn resume(&mut self, _: &RankCtx, _: Reply) -> Step<Vec<f64>> {
                Step::Finish(self.0.map(|x| x as f64).to_vec())
            }
        }
        assert_eq!(std::mem::size_of_val(&Halo([0; 7])), 56);
        let slot = std::mem::size_of::<Option<RankSlot<Halo>>>();
        assert_eq!(
            slot,
            136,
            "a {slot}-byte slot, not 136: the 131 072-rank array is {} bytes",
            131_072 * slot
        );
        assert!(
            131_072 * slot < 32 << 20,
            "{slot}-byte slot: the 131 072-rank array is not under 32 MiB"
        );
    }

    #[test]
    fn loopback_and_self_exchange() {
        let report = EventSim::new(3).run(|rank, _| {
            ScriptProgram::new(vec![
                Op::Send {
                    dst: rank,
                    tag: 4,
                    data: vec![rank as f64 + 0.5],
                },
                Op::Recv { src: rank, tag: 4 },
                Op::Sendrecv {
                    partner: rank,
                    tag: 5,
                    data: vec![2.0],
                },
            ])
        });
        let results = report.into_values();
        for (rank, replies) in results.iter().enumerate() {
            match (&replies[1], &replies[2]) {
                (Reply::Received(Ok(v)), Reply::Exchanged(Ok(e))) => {
                    assert_eq!(v[0], rank as f64 + 0.5);
                    assert_eq!(e, &vec![2.0]);
                }
                other => panic!("rank {rank}: {other:?}"),
            }
        }
    }

    #[test]
    fn out_of_order_tags_are_buffered_like_v1() {
        let make = |rank, _| {
            if rank == 0 {
                ScriptProgram::new(vec![
                    Op::Send {
                        dst: 1,
                        tag: 1,
                        data: vec![1.0],
                    },
                    Op::Send {
                        dst: 1,
                        tag: 2,
                        data: vec![2.0],
                    },
                ])
            } else {
                ScriptProgram::new(vec![
                    Op::Recv { src: 0, tag: 2 },
                    Op::Recv { src: 0, tag: 1 },
                ])
            }
        };
        for report in [run_programs(2, None, make), EventSim::new(2).run(make)] {
            match &report.into_values()[1][..] {
                [Reply::Received(Ok(b)), Reply::Received(Ok(a))] => {
                    assert_eq!((b[0], a[0]), (2.0, 1.0));
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn sim_stats_report_to_obs() {
        let report = EventSim::new(4).run(ring_script);
        let reg = pvs_obs::Registry::new();
        report.record_to(&reg);
        assert_eq!(reg.gauge("mpisim.sim.ranks"), 4);
        assert!(reg.counter("mpisim.sim.resumes") >= 4);
        assert!(reg.counter("mpisim.sim.collectives") == 1);
        assert!(reg.counter("mpisim.sim.parks") >= reg.counter("mpisim.sim.wakeups"));
        // The superstep histogram partitions the batch counter, and no
        // batch can resume more ranks than exist.
        let h = reg.hist("mpisim.hist.batch_ranks").unwrap();
        assert_eq!(h.count(), reg.counter("mpisim.sim.batches"));
        assert!(h.max() <= 4);
        assert_eq!(
            report.batch_sizes.iter().map(|&(_, n)| n).sum::<u64>(),
            report.sim.batches
        );
    }

    #[test]
    #[should_panic(expected = "same order")]
    fn mismatched_collectives_are_diagnosed() {
        EventSim::new(2).run(|rank, _| {
            if rank == 0 {
                ScriptProgram::new(vec![Op::Barrier])
            } else {
                ScriptProgram::new(vec![Op::AllreduceSum { data: vec![1.0] }])
            }
        });
    }
}
