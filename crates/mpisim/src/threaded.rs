//! [`RankProgram`]s on the thread-backed runtime.
//!
//! A rank workload is written once, as a [`RankProgram`], and the runtime
//! is an argument: [`EventSim::run`](crate::EventSim::run) schedules it as
//! parked continuations, [`run_programs`] gives every rank an OS thread and
//! answers each [`Op`] with the [`Comm`] / [`FaultyComm`] method of the
//! same name, so the program moves real packets. Both return a
//! [`SimReport`], and [`first_divergence`] names the first rank and field
//! at which two runs of one workload differ — the identity gate between
//! the runtimes compares the same program by construction.

use crate::caf::CoArray;
use crate::comm::{run, Comm, CommStats};
use crate::event::{EventSim, Op, RankCtx, RankProgram, Reply, SimReport, SimStats, Step};
use crate::fault::{run_faulty, FaultSpec, FaultStats, FaultyComm, RankOutcome};

/// A thread-backed endpoint as a rank program sees it.
trait Endpoint {
    fn ctx(&self) -> RankCtx;
    fn answer(&mut self, op: Op) -> Reply;
}

impl Endpoint for Comm {
    fn ctx(&self) -> RankCtx {
        RankCtx {
            rank: self.rank(),
            size: self.size(),
            comm: self.stats(),
            faults: FaultStats::default(),
            clock_ps: 0,
        }
    }

    fn answer(&mut self, op: Op) -> Reply {
        match op {
            Op::Send { dst, tag, data } => {
                self.send(dst, tag, data);
                Reply::Sent(Ok(()))
            }
            Op::Recv { src, tag } => Reply::Received(Ok(self.recv(src, tag))),
            Op::Sendrecv { partner, tag, data } => Reply::Exchanged(Ok(self.sendrecv(partner, tag, data))),
            Op::Barrier => {
                self.barrier();
                Reply::BarrierDone(Ok(()))
            }
            Op::AllreduceSum { data } => Reply::Reduced(Ok(self.allreduce_sum(&data))),
            Op::AllreduceMaxScalar { x } => Reply::MaxReduced(Ok(self.allreduce_max_scalar(x))),
            Op::Allgather { data } => Reply::Gathered(self.allgather(&data).into()),
            Op::Broadcast { root, data } => Reply::Broadcasted(self.broadcast(root, data)),
            Op::Alltoallv { sends } => {
                // `Comm` moves one packet per block: nested at the v1 boundary.
                let received = self.alltoallv(sends.iter().map(<[f64]>::to_vec).collect());
                Reply::Alltoall(received.into_iter().collect())
            }
            Op::CoCreate { len } => Reply::CoCreated(CoArray::create(self, len)),
        }
    }
}

impl Endpoint for FaultyComm {
    fn ctx(&self) -> RankCtx {
        RankCtx {
            rank: self.rank(),
            size: self.size(),
            comm: self.comm_stats(),
            faults: self.fault_stats(),
            clock_ps: self.clock_ps(),
        }
    }

    fn answer(&mut self, op: Op) -> Reply {
        match op {
            Op::Send { dst, tag, data } => Reply::Sent(self.send(dst, tag, data)),
            Op::Recv { src, tag } => Reply::Received(self.recv(src, tag)),
            Op::Sendrecv { partner, tag, data } => Reply::Exchanged(self.sendrecv(partner, tag, data)),
            Op::Barrier => Reply::BarrierDone(self.barrier()),
            Op::AllreduceSum { data } => Reply::Reduced(self.allreduce_sum(&data)),
            // The event runtime's assert, word for word.
            collective => panic!(
                "{collective:?} has no faulty-mode counterpart in v1 \
                 (FaultyComm offers barrier and sum allreduce only)"
            ),
        }
    }
}

/// Resume `program` against `end` until it finishes; its value, and the
/// endpoint's closing statistics and clock.
fn drive<P: RankProgram>(mut program: P, end: &mut impl Endpoint) -> (P::Output, RankCtx) {
    let mut reply = Reply::Start;
    loop {
        match program.resume(&end.ctx(), reply) {
            Step::Op(op) => reply = end.answer(op),
            Step::Finish(value) => return (value, end.ctx()),
        }
    }
}

/// Run `make(rank, size)`'s programs on the thread-backed runtime, one OS
/// thread per surviving rank: through [`run`], or through [`run_faulty`]
/// under `faults` — where, as on the event runtime, only barrier and sum
/// allreduce are legal collectives. The report has the event runtime's
/// per-rank shape; there is no scheduler, so `sim` counts only the ranks.
pub fn run_programs<P, F>(nranks: usize, faults: Option<FaultSpec>, make: F) -> SimReport<P::Output>
where
    P: RankProgram,
    F: Fn(usize, usize) -> P + Send + Sync,
{
    let ranks: Vec<RankOutcome<_>> = match faults {
        None => run(nranks, |mut comm| drive(make(comm.rank(), nranks), &mut comm))
            .into_iter()
            .map(|(value, ctx)| RankOutcome::Completed { value: (value, ctx), faults: ctx.faults })
            .collect(),
        Some(spec) => run_faulty(nranks, spec, |comm| drive(make(comm.rank(), nranks), comm)),
    };
    let mut report = SimReport {
        outcomes: Vec::with_capacity(nranks),
        comm_stats: Vec::with_capacity(nranks),
        clocks_ps: Vec::with_capacity(nranks),
        sim: SimStats { ranks: nranks as u64, ..SimStats::default() },
        batch_sizes: Vec::new(),
    };
    for rank in ranks {
        let (outcome, comm, clock_ps) = match rank {
            RankOutcome::Completed { value: (value, ctx), faults } => {
                (RankOutcome::Completed { value, faults }, Some(ctx.comm), ctx.clock_ps)
            }
            RankOutcome::Failed => (RankOutcome::Failed, None, 0),
        };
        report.outcomes.push(outcome);
        report.comm_stats.push(comm);
        report.clocks_ps.push(clock_ps);
    }
    report
}

/// Run `make`'s programs healthy on both runtimes: each rank's value and
/// traffic, v1's run first, after panicking with [`first_divergence`]'s
/// sentence if any rank's traffic or value bits, as `bits` lists them,
/// differ. The event runtime runs first, so a program that deadlocks
/// fails with its diagnosis instead of hanging v1's threads.
pub fn run_both<P, F>(nranks: usize, make: F, bits: impl Fn(&P::Output) -> Vec<f64>) -> [Vec<(P::Output, CommStats)>; 2]
where
    P: RankProgram,
    F: Fn(usize, usize) -> P + Send + Sync,
{
    let v2 = EventSim::new(nranks).run(&make);
    let runs = [run_programs(nranks, None, &make), v2].map(SimReport::into_values_and_stats);
    let flat = |run: &[(P::Output, CommStats)]| run.iter().map(|(value, stats)| (bits(value), *stats)).collect::<Vec<_>>();
    if let Some(divergence) = first_divergence(&flat(&runs[0]), &flat(&runs[1])) {
        panic!("{divergence}");
    }
    runs
}

/// The first place two healthy runs of one workload differ, as
/// [`SimReport::into_values_and_stats`] renders them: `None` when every
/// rank's value bits and traffic agree, else a sentence naming P, the
/// rank and the field.
pub fn first_divergence(v1: &[(Vec<f64>, CommStats)], v2: &[(Vec<f64>, CommStats)]) -> Option<String> {
    let p = v1.len();
    if v2.len() != p {
        return Some(format!("P={p}: rank count diverged (v1 {p} vs v2 {})", v2.len()));
    }
    let bits = |values: &[f64]| values.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    v1.iter().zip(v2).enumerate().find_map(|(rank, ((a, sa), (b, sb)))| {
        if bits(a) != bits(b) {
            Some(format!("P={p} rank {rank}: values diverged (v1 {a:?} vs v2 {b:?})"))
        } else if sa != sb {
            Some(format!("P={p} rank {rank}: traffic diverged (v1 {sa:?} vs v2 {sb:?})"))
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ScriptProgram;
    use std::panic::catch_unwind;

    #[test]
    fn two_rank_script_replies_equal_literals() {
        let report = run_programs(2, None, |rank, _| {
            ScriptProgram::new(vec![
                Op::Sendrecv { partner: 1 - rank, tag: 3, data: vec![rank as f64 + 0.5] },
                Op::AllreduceSum { data: vec![1.0, rank as f64] },
                Op::Allgather { data: vec![10.0 * rank as f64] },
            ])
        });
        assert_eq!(report.clocks_ps, [0, 0]);
        assert_eq!(report.sim, SimStats { ranks: 2, ..SimStats::default() });
        for (rank, (replies, stats)) in report.into_values_and_stats().iter().enumerate() {
            let got: Vec<String> = replies.iter().map(|reply| format!("{reply:?}")).collect();
            let swapped = if rank == 0 { "Exchanged(Ok([1.5]))" } else { "Exchanged(Ok([0.5]))" };
            assert_eq!(got, [swapped, "Reduced(Ok([2.0, 1.0]))", "Gathered([[0.0], [10.0]])"]);
            // One exchange, one 2-double ring step, one framed 1-double row.
            assert_eq!(*stats, CommStats { messages_sent: 3, bytes_sent: 8 + 16 + 16 });
        }
    }

    /// Panics on its first resume, so no rank is left blocked on a peer.
    struct Bomb;

    impl RankProgram for Bomb {
        type Output = ();

        fn resume(&mut self, ctx: &RankCtx, _reply: Reply) -> Step<()> {
            std::panic::panic_any(ctx.size)
        }
    }

    #[test]
    fn a_panicking_program_is_reraised_with_its_own_payload() {
        let payload = catch_unwind(|| run_programs(3, None, |_, _| Bomb)).expect_err("must panic");
        assert_eq!(payload.downcast_ref::<usize>(), Some(&3));
    }

    #[test]
    fn unsupported_faulty_collective_trips_the_same_assert_on_both_runtimes() {
        fn make(_rank: usize, _size: usize) -> ScriptProgram {
            ScriptProgram::new(vec![Op::Allgather { data: vec![1.0] }])
        }
        let message = |run: fn() -> SimReport<Vec<Reply>>| {
            let payload = catch_unwind(run).expect_err("must panic");
            payload.downcast_ref::<String>().cloned().expect("a formatted panic message")
        };
        let threads = message(|| run_programs(2, Some(FaultSpec::healthy()), make));
        let events = message(|| EventSim::new(2).faults(FaultSpec::healthy()).run(make));
        assert_eq!(threads, events);
        assert!(threads.starts_with("Allgather { data: [1.0] } has no faulty-mode counterpart"), "{threads}");
    }

    #[test]
    fn first_divergence_names_rank_and_field() {
        let row = |x: f64, messages_sent| (vec![x], CommStats { messages_sent, bytes_sent: 0 });
        let base = vec![row(1.0, 1), row(0.0, 2)];
        assert_eq!(first_divergence(&base, &base), None);
        // 0.0 == -0.0, but not bit for bit.
        let drifted = first_divergence(&base, &[row(1.0, 1), row(-0.0, 2)]).expect("value bits differ");
        assert!(drifted.starts_with("P=2 rank 1: values diverged"), "{drifted}");
        let drifted = first_divergence(&base, &[row(1.0, 7), row(0.0, 2)]).expect("traffic differs");
        assert!(drifted.starts_with("P=2 rank 0: traffic diverged"), "{drifted}");
        let drifted = first_divergence(&base, &base[..1]).expect("a rank is missing");
        assert!(drifted.starts_with("P=2: rank count diverged"), "{drifted}");
    }
}
