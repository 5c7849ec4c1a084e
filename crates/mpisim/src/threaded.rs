//! [`RankProgram`]s on the thread-backed runtime.
//!
//! A rank workload is written once, as a [`RankProgram`], and the runtime
//! is an argument: [`EventSim::run`](crate::EventSim::run) schedules it as
//! parked continuations, [`run_programs`] gives every rank an OS thread and
//! answers each [`Op`] with the [`Comm`] method of the same name, so the
//! program moves real packets. Both return a [`SimReport`], and
//! [`first_divergence`] names the first rank and field at which two runs
//! of one workload differ — the identity gate between the runtimes
//! compares the same program by construction.

use crate::caf::CoArray;
use crate::comm::{run, Comm, CommStats};
use crate::event::{EventSim, Op, RankCtx, RankProgram, Reply, SimReport, SimStats, Step};

/// `comm`'s answer to `op`.
fn answer(comm: &mut Comm, op: Op) -> Reply {
    match op {
        Op::Send { dst, tag, data } => {
            comm.send(dst, tag, data);
            Reply::Sent
        }
        Op::Recv { src, tag } => Reply::Received(comm.recv(src, tag)),
        Op::Barrier => {
            comm.barrier();
            Reply::BarrierDone
        }
        Op::AllreduceSum { data } => Reply::Reduced(comm.allreduce_sum(&data)),
        Op::AllreduceMaxScalar { x } => Reply::MaxReduced(comm.allreduce_max_scalar(x)),
        Op::Allgather { data } => Reply::Gathered(comm.allgather(&data).into()),
        Op::Alltoallv { sends } => {
            // `Comm` moves one packet per block: nested at the v1 boundary.
            let received = comm.alltoallv(sends.iter().map(<[f64]>::to_vec).collect());
            Reply::Alltoall(received.into_iter().collect())
        }
        Op::CoCreate { len } => Reply::CoCreated(CoArray::create(comm, len)),
    }
}

/// Run `make(rank, size)`'s programs on the thread-backed runtime, one OS
/// thread per rank, through [`run`]. The report has the event runtime's
/// per-rank shape; there is no scheduler, so `sim` counts only the ranks.
pub fn run_programs<P, F>(nranks: usize, make: F) -> SimReport<P::Output>
where
    P: RankProgram,
    F: Fn(usize, usize) -> P + Send + Sync,
{
    let ranks = run(nranks, |mut comm| {
        let mut program = make(comm.rank(), nranks);
        let mut reply = Reply::Start;
        loop {
            let ctx = RankCtx {
                rank: comm.rank(),
                size: nranks,
                comm: comm.stats(),
            };
            match program.resume(&ctx, reply) {
                Step::Op(op) => reply = answer(&mut comm, op),
                Step::Finish(value) => return (value, comm.stats()),
            }
        }
    });
    SimReport {
        ranks,
        sim: SimStats {
            ranks: nranks as u64,
            ..SimStats::default()
        },
        batch_sizes: Vec::new(),
    }
}

/// Run `make`'s programs on both runtimes: each rank's value and traffic,
/// v1's run first, after panicking with [`first_divergence`]'s sentence if
/// any rank's traffic or value bits, as `bits` lists them, differ. The
/// event runtime runs first, so a program that deadlocks fails with its
/// diagnosis instead of hanging v1's threads.
pub fn run_both<P, F>(
    nranks: usize,
    make: F,
    bits: impl Fn(&P::Output) -> Vec<f64>,
) -> [Vec<(P::Output, CommStats)>; 2]
where
    P: RankProgram,
    F: Fn(usize, usize) -> P + Send + Sync,
{
    let v2 = EventSim::new(nranks).run(&make);
    let runs = [run_programs(nranks, &make), v2].map(|report| report.ranks);
    let flat = |run: &[(P::Output, CommStats)]| {
        run.iter()
            .map(|(value, stats)| (bits(value), *stats))
            .collect::<Vec<_>>()
    };
    if let Some(divergence) = first_divergence(&flat(&runs[0]), &flat(&runs[1])) {
        panic!("{divergence}");
    }
    runs
}

/// The first place two runs of one workload differ, as [`SimReport::ranks`]
/// holds them: `None` when every rank's value bits and traffic agree, else
/// a sentence naming P, the rank and the field.
pub fn first_divergence(
    v1: &[(Vec<f64>, CommStats)],
    v2: &[(Vec<f64>, CommStats)],
) -> Option<String> {
    let p = v1.len();
    if v2.len() != p {
        return Some(format!(
            "P={p}: rank count diverged (v1 {p} vs v2 {})",
            v2.len()
        ));
    }
    let bits = |values: &[f64]| values.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    v1.iter()
        .zip(v2)
        .enumerate()
        .find_map(|(rank, ((a, sa), (b, sb)))| {
            if bits(a) != bits(b) {
                Some(format!(
                    "P={p} rank {rank}: values diverged (v1 {a:?} vs v2 {b:?})"
                ))
            } else if sa != sb {
                Some(format!(
                    "P={p} rank {rank}: traffic diverged (v1 {sa:?} vs v2 {sb:?})"
                ))
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
        let report = run_programs(2, |rank, _| {
            ScriptProgram::new(vec![
                Op::Send {
                    dst: 1 - rank,
                    tag: 3,
                    data: vec![rank as f64 + 0.5],
                },
                Op::Recv {
                    src: 1 - rank,
                    tag: 3,
                },
                Op::AllreduceSum {
                    data: vec![1.0, rank as f64],
                },
                Op::Allgather {
                    data: vec![10.0 * rank as f64],
                },
            ])
        });
        assert_eq!(
            report.sim,
            SimStats {
                ranks: 2,
                ..SimStats::default()
            }
        );
        for (rank, (replies, stats)) in report.ranks.iter().enumerate() {
            let got: Vec<String> = replies.iter().map(|reply| format!("{reply:?}")).collect();
            let swapped = if rank == 0 {
                "Received([1.5])"
            } else {
                "Received([0.5])"
            };
            assert_eq!(
                got,
                [
                    "Sent",
                    swapped,
                    "Reduced([2.0, 1.0])",
                    "Gathered([[0.0], [10.0]])"
                ]
            );
            // One exchange, one 2-double ring step, one framed 1-double row.
            assert_eq!(
                *stats,
                CommStats {
                    messages_sent: 3,
                    bytes_sent: 8 + 16 + 16
                }
            );
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
        let payload = catch_unwind(|| run_programs(3, |_, _| Bomb)).expect_err("must panic");
        assert_eq!(payload.downcast_ref::<usize>(), Some(&3));
    }

    #[test]
    fn run_both_diagnoses_a_lost_message_instead_of_hanging() {
        // Rank 1 waits for a message rank 0 never sends: on threads it
        // would block forever, so the event runtime must run first.
        let make = |rank, _| {
            let ops = if rank == 0 {
                vec![]
            } else {
                vec![Op::Recv { src: 0, tag: 3 }]
            };
            ScriptProgram::new(ops)
        };
        let payload = catch_unwind(|| run_both(2, make, |_| Vec::new())).expect_err("must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains("rank 1 waiting on recv(src=0, tag=0x3)"),
            "{message}"
        );
    }

    #[test]
    fn first_divergence_names_rank_and_field() {
        let row = |x: f64, messages_sent| {
            (
                vec![x],
                CommStats {
                    messages_sent,
                    bytes_sent: 0,
                },
            )
        };
        let base = vec![row(1.0, 1), row(0.0, 2)];
        assert_eq!(first_divergence(&base, &base), None);
        // 0.0 == -0.0, but not bit for bit.
        let drifted =
            first_divergence(&base, &[row(1.0, 1), row(-0.0, 2)]).expect("value bits differ");
        assert!(
            drifted.starts_with("P=2 rank 1: values diverged"),
            "{drifted}"
        );
        let drifted =
            first_divergence(&base, &[row(1.0, 7), row(0.0, 2)]).expect("traffic differs");
        assert!(
            drifted.starts_with("P=2 rank 0: traffic diverged"),
            "{drifted}"
        );
        let drifted = first_divergence(&base, &base[..1]).expect("a rank is missing");
        assert!(drifted.starts_with("P=2: rank count diverged"), "{drifted}");
    }
}
