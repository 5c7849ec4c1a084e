//! mpisim v2 — the event-driven rank runtime.
//!
//! The thread-backed runtime ([`crate::comm::run`]) spends one OS thread
//! per rank, which caps simulations far below the scales the related
//! scale studies run natively (weak scaling to 10⁵ ranks). This module
//! removes the cap: virtual ranks are **continuation-style tasks**
//! resumed on the scheduler's own thread. A rank blocked in a receive or
//! a collective *parks* — its continuation is keyed on what it waits for
//! and queued again when the matching packet arrives or the collective
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
//! 1. one *batch* (superstep) = every rank queued when it starts: all
//!    ranks in rank order at launch, then the ranks the previous batch
//!    woke, in wake order;
//! 2. the batch is resumed **in place**: rank slots never leave the
//!    scheduler's slot array, and a resume touches only its own slot —
//!    state and mailbox — and appends what it asks of other ranks to the
//!    scheduler's one effects log, so the order of resumes within a batch
//!    is observable only as the order of the log;
//! 3. all cross-rank effects (packet delivery, wakeups, collective
//!    completion) are applied **in log order** — batch order, not rank
//!    order; within a rank its sends, then its collective entry — after
//!    every rank of the batch has been resumed.
//!
//! Every superstep runs on the scheduler thread: a resume is ≈ 110 ns of
//! work (LBMHD's halo kernel at 131 072 ranks on a 2-core x86-64 host),
//! and sharing a batch out to workers measured slower than one thread at
//! every rung of the rank ladder (DESIGN §12).
//!
//! ## Collectives
//!
//! Collectives are computed centrally when every rank has entered, from
//! [`pvs_core::schedule`] and the private `collective` module: values
//! fold in canonical rank order, and the per-rank [`CommStats`] are
//! charged arithmetically from the schedule v1 executes as packets, so
//! the two runtimes agree bit-for-bit on results *and* traffic
//! accounting. Fault injection lives on v1 alone ([`crate::run_faulty`]).

use crate::blocks::Blocks;
use crate::caf::CoArray;
use crate::collective::{fold_max, fold_sum};
use crate::comm::{take_match, CommStats, Packet, Payload, Want};
use crate::tags::assert_user_tag;
use pvs_core::schedule::{dissemination, ring, rotation};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, RwLock};

/// One operation a rank program asks the scheduler to perform.
#[derive(Debug, Clone)]
pub enum Op {
    /// Send `data` to `dst` with a user-space `tag` (completes
    /// immediately).
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
/// [`RankProgram::resume`].
#[derive(Debug, Clone)]
pub enum Reply {
    /// First resume of the program; no op has completed yet.
    Start,
    /// [`Op::Send`] completed.
    Sent,
    /// [`Op::Recv`] matched.
    Received(Vec<f64>),
    /// [`Op::Barrier`] completed.
    BarrierDone,
    /// [`Op::AllreduceSum`] result, identical bits on every rank.
    Reduced(Vec<f64>),
    /// [`Op::AllreduceMaxScalar`] result.
    MaxReduced(f64),
    /// [`Op::Allgather`] result: one allocation, shared by every rank's
    /// reply.
    Gathered(Arc<[Vec<f64>]>),
    /// [`Op::Alltoallv`] result: block `s` is what rank `s` sent here.
    Alltoall(Blocks),
    /// [`Op::CoCreate`] result.
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
    /// Number of ranks.
    pub size: usize,
    /// Traffic statistics so far.
    pub comm: CommStats,
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
    /// Times a parked rank was queued again by a packet or a collective.
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

/// Everything one run of a set of [`RankProgram`]s produced.
#[derive(Debug)]
pub struct SimReport<T> {
    /// Each rank's value and traffic statistics, in rank order — what a
    /// v1 closure returning `(value, comm.stats())` yields.
    pub ranks: Vec<(T, CommStats)>,
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

    /// The per-rank values, in rank order — [`crate::comm::run`]'s shape.
    pub fn into_values(self) -> Vec<T> {
        self.ranks.into_iter().map(|(value, _)| value).collect()
    }
}

/// Builder for an event-driven simulation.
#[derive(Debug, Clone)]
pub struct EventSim {
    nranks: usize,
}

impl EventSim {
    /// A simulation of `nranks` virtual ranks.
    pub fn new(nranks: usize) -> Self {
        assert!(nranks >= 1);
        EventSim { nranks }
    }

    /// Run the simulation: `make(rank, size)` builds each rank's program.
    pub fn run<P, F>(&self, make: F) -> SimReport<P::Output>
    where
        P: RankProgram,
        F: Fn(usize, usize) -> P,
    {
        let slots = (0..self.nranks)
            .map(|rank| RankSlot::new(make(rank, self.nranks)))
            .collect();
        let mut sched = Scheduler {
            slots,
            queue: (0..self.nranks).collect(),
            group: Group::default(),
            parked_count: 0,
            sim: SimStats {
                ranks: self.nranks as u64,
                ..SimStats::default()
            },
            batch_dist: BTreeMap::new(),
        };
        sched.drive();
        sched.into_report()
    }
}

/// Why a rank's continuation is parked.
#[derive(Debug, Clone, Copy)]
enum Parked {
    /// Blocked receive of `(src, tag)`.
    Recv { src: usize, tag: u64 },
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

/// One virtual rank's complete state: the rank is the slot's index and
/// the size the slot array's, so `run_local` builds the [`RankCtx`] a
/// resume reads on the stack. A slot never leaves `Scheduler::slots`: a
/// resume borrows it (`&mut`), the effects log, and nothing else of the
/// scheduler.
struct RankSlot<P: RankProgram> {
    program: P,
    comm: CommStats,
    /// Packets that arrived ahead of their receive, allocated by the first
    /// of them or by a loopback send. A packet that matches the receive
    /// its rank is parked on never enters it (`deliver`).
    #[expect(clippy::box_collection, reason = "8 bytes a slot, not 32")]
    mailbox: Option<Box<VecDeque<Packet>>>,
    state: State<P::Output>,
}

impl<P: RankProgram> RankSlot<P> {
    fn new(program: P) -> Self {
        RankSlot {
            program,
            comm: CommStats::default(),
            mailbox: None,
            state: State::Ready(Reply::Start),
        }
    }

    fn mailbox(&mut self) -> &mut VecDeque<Packet> {
        self.mailbox.get_or_insert_default()
    }
}

/// The collective in flight: the `Op` each rank entered with, by rank.
/// One at a time suffices — every rank's k-th collective joins the same
/// group (MPI requires identical order), and nobody reaches its k+1-th
/// before every rank has entered the k-th and so completed it.
#[derive(Default)]
struct Group {
    ops: Vec<Option<Op>>,
    /// The first rank to enter, whose op the others must match.
    first: Option<usize>,
    entered: usize,
}

struct Scheduler<P: RankProgram> {
    slots: Vec<RankSlot<P>>,
    /// Runnable ranks, in the order the next superstep resumes them.
    queue: Vec<usize>,
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
        let size = self.slots.len();
        // The superstep's ranks; swapped with the queue, so the two
        // buffers are reused by every superstep.
        let mut batch: Vec<usize> = Vec::with_capacity(size);
        // The batch's cross-rank effects in resume order, likewise reused:
        // sized once, for an effect per rank of the first batch.
        let mut effects: Vec<Effect> = Vec::with_capacity(size);
        while !self.queue.is_empty() {
            // One batch: every rank queued when it starts. The ranks its
            // effects wake are queued for the next.
            std::mem::swap(&mut batch, &mut self.queue);
            self.queue.clear();
            self.sim.batches += 1;
            *self.batch_dist.entry(batch.len() as u64).or_insert(0) += 1;

            // Resume every rank of the batch against its own slot and the
            // log, counting its park as it happens: every park of the batch
            // is counted BEFORE any delivery — a packet toward a rank later
            // in the same batch wakes it, and a wake must find its park counted.
            for &rank in &batch {
                let slot = &mut self.slots[rank];
                if run_local(rank, size, slot, &mut effects, &mut self.sim.resumes) {
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

    /// Hand `packet` to `dst` if it parks on a receive the packet matches,
    /// else append it to `dst`'s mailbox. The hand-off is v1's first match:
    /// a rank parks only after its mailbox held no match, and every later
    /// arrival comes through here, so a parked receiver's mailbox never
    /// holds an earlier one. Packets toward finished ranks are buffered
    /// and never read, exactly like v1's channels.
    fn deliver(&mut self, dst: usize, packet: Packet) {
        self.sim.messages += 1;
        let slot = &mut self.slots[dst];
        match slot.state {
            State::Parked(Parked::Recv { src, tag }) if packet.matches(src, tag, Want::Data) => {
                self.wake(dst, Reply::Received(packet.payload.into_data()));
            }
            _ => slot.mailbox().push_back(packet),
        }
    }

    /// Unpark `rank` with the reply to the op it parked on.
    fn wake(&mut self, rank: usize, reply: Reply) {
        let slot = &mut self.slots[rank];
        debug_assert!(
            matches!(slot.state, State::Parked(_)),
            "rank {rank} woken but not parked"
        );
        slot.state = State::Ready(reply);
        self.parked_count -= 1;
        self.sim.wakeups += 1;
        self.queue.push(rank);
    }

    /// Register `rank`'s entry into the collective in flight; complete it
    /// centrally once every rank has entered.
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
        if group.entered < self.slots.len() {
            return;
        }
        (group.first, group.entered) = (None, 0);
        self.sim.collectives += 1;
        let ops = group.ops.iter_mut().filter_map(Option::take);
        let replies = complete_collective(ops, &mut self.slots);
        // A barrier reads only its first entry: drop the rest, so the
        // group is empty between collectives.
        group.ops.iter_mut().for_each(|op| *op = None);
        for (rank, reply) in replies.into_iter().enumerate() {
            self.wake(rank, reply);
        }
    }

    /// The queue drained: every rank must have finished, or the program
    /// set deadlocked (mirrors a hung v1 run, but with a diagnosis instead
    /// of a silent hang).
    fn check_quiescent(&self) {
        let mut stuck = Vec::new();
        for (rank, slot) in self.slots.iter().enumerate() {
            stuck.push(match slot.state {
                State::Done(_) => continue,
                State::Parked(Parked::Recv { src, tag }) => {
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
        let ranks = self
            .slots
            .into_iter()
            .map(|slot| {
                // INFALLIBLE: check_quiescent proved every rank finished
                // before the queue drained.
                let State::Done(value) = slot.state else {
                    unreachable!("rank finished")
                };
                (value, slot.comm)
            })
            .collect();
        SimReport {
            ranks,
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
    rank: usize,
    size: usize,
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
        let ctx = RankCtx {
            rank,
            size,
            comm: slot.comm,
        };
        reply = match slot.program.resume(&ctx, reply) {
            Step::Finish(out) => {
                slot.state = State::Done(out);
                return false;
            }
            Step::Op(Op::Send { dst, tag, data }) => {
                assert_user_tag(tag);
                let payload = Payload::Data(data);
                payload.charge(&mut slot.comm);
                let packet = Packet {
                    src: rank,
                    tag,
                    payload,
                };
                // Loopback lands in the rank's own mailbox.
                if dst == rank {
                    slot.mailbox().push_back(packet);
                } else {
                    effects.push(Effect::Deliver { dst, packet });
                }
                Reply::Sent
            }
            Step::Op(Op::Recv { src, tag }) => {
                assert_user_tag(tag);
                // v1's first-match buffering; a rank that has no mailbox
                // yet has nothing to match.
                let mailbox = slot.mailbox.as_deref_mut();
                match mailbox.and_then(|m| take_match(m, src, tag, Want::Data)) {
                    Some(payload) => Reply::Received(payload.into_data()),
                    None => {
                        slot.state = State::Parked(Parked::Recv { src, tag });
                        return true;
                    }
                }
            }
            Step::Op(collective) => {
                slot.state = State::Parked(Parked::Collective);
                effects.push(Effect::Enter {
                    rank,
                    op: collective,
                });
                return true;
            }
        };
    }
}

/// Complete a collective centrally: canonical rank-order values, plus
/// per-rank stats charged from the schedule v1 executes as messages.
/// `ops` are the ranks' entries in rank order; returns each rank's reply
/// in rank order.
fn complete_collective<P: RankProgram>(
    ops: impl Iterator<Item = Op>,
    slots: &mut [RankSlot<P>],
) -> Vec<Reply> {
    let n = slots.len();
    let ring_steps = ring(n).len() as u64;
    let mut charge_all = |messages: u64, bytes: u64| {
        for slot in slots.iter_mut() {
            charge(&mut slot.comm, messages, bytes);
        }
    };
    let mixed = || -> ! { unreachable!("mixed collective") };
    let mut ops = ops.peekable();
    // INFALLIBLE: a group completes only after at least one entry.
    match ops.peek().expect("non-empty group") {
        Op::Barrier => {
            charge_all(dissemination(n).len() as u64, 0);
            vec![Reply::BarrierDone; n]
        }
        Op::AllreduceSum { .. } => {
            let contribs: Vec<Vec<f64>> = ops.map(data_of).collect();
            let value = fold_sum(&contribs);
            let bytes = (contribs[0].len() * 8) as u64;
            charge_all(ring_steps, ring_steps * bytes);
            vec![Reply::Reduced(value); n]
        }
        Op::AllreduceMaxScalar { .. } => {
            let contribs: Vec<f64> = ops
                .map(|op| match op {
                    Op::AllreduceMaxScalar { x } => x,
                    _ => mixed(),
                })
                .collect();
            charge_all(ring_steps, ring_steps * 8);
            vec![Reply::MaxReduced(fold_max(&contribs)); n]
        }
        Op::Allgather { .. } => {
            let rows: Arc<[Vec<f64>]> = ops.map(data_of).collect();
            // Each ring step forwards the frame that arrived the step
            // before — the origin's rank id plus the origin's body — so over
            // the n−1 steps rank i sends the frames of origins i, i−1, …,
            // i−(n−2): every one but its successor's.
            let frames: usize = rows.iter().map(|row| 1 + row.len()).sum();
            for (i, slot) in slots.iter_mut().enumerate() {
                let unsent = 1 + rows[(i + 1) % n].len();
                charge(&mut slot.comm, ring_steps, ((frames - unsent) * 8) as u64);
            }
            vec![Reply::Gathered(rows); n]
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
            // rank `i` with every peer but itself exactly once, so it
            // sends every block but its own.
            let mut doubles = vec![0usize; n];
            for (i, (sends, slot)) in sends.iter().zip(slots.iter_mut()).enumerate() {
                assert_eq!(sends.len(), n, "rank {i}: sends.len() == size");
                let mut sent = 0;
                for (total, block) in doubles.iter_mut().zip(sends.iter()) {
                    *total += block.len();
                    sent += block.len();
                }
                sent -= sends.get(i).len();
                charge(&mut slot.comm, rotation(n).len() as u64, (sent * 8) as u64);
            }
            // Block `i` of `received[me]` is what rank `i` sent to `me`:
            // copied into the reader's one buffer sender by sender, each
            // sender's buffer freed as soon as it has been scattered.
            let mut received: Vec<Blocks> = doubles
                .iter()
                .map(|&d| Blocks::with_capacity(n, d))
                .collect();
            for sends in sends {
                for (block, rows) in sends.iter().zip(&mut received) {
                    rows.push(block.iter().copied());
                }
            }
            received.into_iter().map(Reply::Alltoall).collect()
        }
        &Op::CoCreate { len } => {
            for (r, op) in ops.enumerate() {
                match op {
                    Op::CoCreate { len: l } => assert_eq!(l, len, "rank {r}: window length"),
                    _ => mixed(),
                }
            }
            let windows: Vec<_> = (0..n)
                .map(|_| Arc::new(RwLock::new(vec![0.0; len])))
                .collect();
            // The handles' ring circulation sends one origin-id frame per step.
            charge_all(ring_steps, ring_steps * 8);
            (0..n)
                .map(|r| Reply::CoCreated(CoArray::from_windows(r, windows.clone())))
                .collect()
        }
        Op::Send { .. } | Op::Recv { .. } => {
            unreachable!("point-to-point ops never enter a collective group")
        }
    }
}

/// The vector a rank contributed to a sum allreduce or an allgather
/// (`enter_collective` pins one discriminant per group).
fn data_of(op: Op) -> Vec<f64> {
    match op {
        Op::AllreduceSum { data } | Op::Allgather { data } => data,
        _ => unreachable!("mixed collective"),
    }
}

/// Add `messages` and `bytes` to the traffic a rank has sent.
fn charge(comm: &mut CommStats, messages: u64, bytes: u64) {
    comm.messages_sent += messages;
    comm.bytes_sent += bytes;
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
            Reply::Reduced(v) => v,
            other => panic!("expected Reduced, got {other:?}"),
        }
    }

    #[test]
    fn ring_and_allreduce_match_v1_bitwise() {
        for n in [1usize, 2, 3, 7, 8, 16] {
            let v1 = run_programs(n, ring_script).into_values();
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
        for (rank, replies) in report.into_values().iter().enumerate() {
            match (&replies[1], &replies[2]) {
                (Reply::Received(v), Reply::Reduced(sum)) => {
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
        // traffic, the mailbox's 8-byte box and the state: 128 bytes,
        // 16 MiB at the ladder's top rung of 131 072 ranks.
        struct Halo([u64; 7]);
        impl RankProgram for Halo {
            type Output = Vec<f64>;
            fn resume(&mut self, _: &RankCtx, _: Reply) -> Step<Vec<f64>> {
                Step::Finish(self.0.map(|x| x as f64).to_vec())
            }
        }
        assert_eq!(std::mem::size_of_val(&Halo([0; 7])), 56);
        let slot = std::mem::size_of::<RankSlot<Halo>>();
        assert_eq!(
            slot,
            128,
            "a {slot}-byte slot, not 128: the 131 072-rank array is {} bytes",
            131_072 * slot
        );
        assert!(
            131_072 * slot < 32 << 20,
            "{slot}-byte slot: the 131 072-rank array is not under 32 MiB"
        );
    }

    #[test]
    fn loopback_lands_in_the_senders_own_mailbox() {
        let report = EventSim::new(3).run(|rank, _| {
            ScriptProgram::new(vec![
                Op::Send {
                    dst: rank,
                    tag: 4,
                    data: vec![rank as f64 + 0.5],
                },
                Op::Recv { src: rank, tag: 4 },
            ])
        });
        assert_eq!(report.sim.messages, 0, "loopback never leaves the rank");
        for (rank, replies) in report.into_values().iter().enumerate() {
            match &replies[..] {
                [Reply::Sent, Reply::Received(v)] => assert_eq!(v[0], rank as f64 + 0.5),
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
        for report in [run_programs(2, make), EventSim::new(2).run(make)] {
            match &report.into_values()[1][..] {
                [Reply::Received(b), Reply::Received(a)] => {
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
