//! Supersteps in place, at sizes the other suites do not reach.
//!
//! Every other mpisim test runs at P ≤ 16 (bar one ring), where a batch
//! is a handful of ranks in rank order. These programs run thousands of
//! ranks whose wake order is *not* rank order, with holes in the slot
//! array, and pin the order in which a superstep's effects are applied:
//! park accounting for the whole batch, then deliveries and collective
//! entries in batch order.

use pvs_mpisim::{EventSim, FaultSpec, Op, RankCtx, RankProgram, Reply, ScriptProgram, Step};

/// Catastrophic-cancellation probe: canonical fold order is observable.
fn probe(rank: usize) -> f64 {
    [1e16, 1.0, -1e16][rank % 3]
}

/// Exchange with the mirror rank once per tag, then issue `then`. Rank
/// 0's packet wakes rank P−1 first, so the superstep after an exchange
/// runs in *descending* rank order, and its first rank sends to the rank
/// that is last in the same batch. (With P odd the middle rank is its
/// own mirror: loopback, never parked on a receive.)
fn mirror_exchanges(rank: usize, size: usize, tags: &[u64], then: Op) -> ScriptProgram {
    let mirror = size - 1 - rank;
    let mut ops = Vec::new();
    for &tag in tags {
        ops.push(Op::Send { dst: mirror, tag, data: vec![rank as f64 + tag as f64] });
        ops.push(Op::Recv { src: mirror, tag });
    }
    ops.push(then);
    ScriptProgram::new(ops)
}

#[test]
fn batch_order_is_wake_order_not_rank_order() {
    let p = 4097usize;
    let report = EventSim::new(p).run(|rank, size| {
        mirror_exchanges(rank, size, &[1, 2], Op::AllreduceSum { data: vec![probe(rank)] })
    });
    // Every rank is parked at once after the first superstep, and each parks three times (two receives, one
    // collective) bar the middle rank, whose loopback receives never
    // park. Interleaving park accounting with deliveries would wake ranks
    // whose park was never counted.
    assert_eq!(report.sim.peak_parked, p as u64);
    assert_eq!(report.sim.parks, 3 * p as u64 - 2);
    assert_eq!(report.sim.wakeups, 3 * p as u64 - 2);
    assert_eq!(report.sim.messages, 2 * (p as u64 - 1));
}

#[test]
fn collectives_are_entered_in_batch_order() {
    // The middle rank enters its collective in the first superstep, the
    // others in the second, which runs P−1, P−2, …, 0. The middle rank
    // alone issues an allreduce, so in batch order rank P−1 is the one
    // diagnosed; in rank order it would be rank 0.
    let p = 4097usize;
    let panic = std::panic::catch_unwind(|| {
        EventSim::new(p).run(|rank, size| {
            let odd = Op::AllreduceSum { data: vec![1.0] };
            mirror_exchanges(rank, size, &[1], if rank == size / 2 { odd } else { Op::Barrier })
        })
    })
    .expect_err("mismatched collectives must panic");
    let message = panic.downcast_ref::<String>().expect("assert message");
    let expect = format!("rank {} entered Barrier while peers entered AllreduceSum", p - 1);
    assert!(message.contains(&expect), "{message}");
}

#[test]
fn failed_ranks_leave_holes_in_the_slot_array() {
    let p = 1100usize;
    let mut spec = FaultSpec::healthy()
        .with_seed(0x5eed)
        .drop_per_mille(150)
        .delay_per_mille(100);
    spec.failed_ranks = vec![137, 138, 366, 367, 549, 550];
    spec.max_attempts = 16;
    let report = EventSim::new(p).faults(spec).run(|rank, size| {
        ScriptProgram::new(vec![
            Op::Send { dst: (rank + 1) % size, tag: 1, data: vec![rank as f64] },
            Op::Recv { src: (rank + size - 1) % size, tag: 1 },
            Op::Barrier,
            Op::AllreduceSum { data: vec![probe(rank)] },
        ])
    });
    let survivors: Vec<_> = report.outcomes.iter().filter_map(|o| o.faults()).collect();
    assert_eq!(survivors.len(), p - 6);
    assert!(survivors.iter().map(|f| f.retries).sum::<u64>() > 0, "the regime must retry");
    assert_eq!(survivors.iter().map(|f| f.timeouts).sum::<u64>(), 0, "retries must succeed");
    // The first superstep holds every survivor and nobody else.
    assert_eq!(report.batch_sizes.last().map(|&(size, _)| size), Some(p as u64 - 6));
    // Rank 139's left neighbour is dead, rank 136's right neighbour too.
    let replies = report.outcomes[139].value().expect("survivor");
    assert!(matches!(replies[1], Reply::Received(Err(_))), "{:?}", replies[1]);
    let replies = report.outcomes[136].value().expect("survivor");
    assert!(matches!(replies[0], Reply::Sent(Err(_))), "{:?}", replies[0]);
}

/// Issues `fuse` back to front, then panics if armed.
struct Bomb {
    armed: bool,
    fuse: Vec<Op>,
}

impl RankProgram for Bomb {
    type Output = ();

    fn resume(&mut self, ctx: &RankCtx, _reply: Reply) -> Step<()> {
        if let Some(op) = self.fuse.pop() {
            return Step::Op(op);
        }
        assert!(!self.armed, "rank {} exploded", ctx.rank);
        Step::Finish(())
    }
}

#[test]
fn the_caller_sees_the_payload_of_the_first_panic_in_batch_order() {
    let exploded = |after_exchange: bool| {
        let panic = std::panic::catch_unwind(|| {
            EventSim::new(4097).run(|rank, size| {
                let mirror = size - 1 - rank;
                let exchange = vec![
                    Op::Recv { src: mirror, tag: 1 },
                    Op::Send { dst: mirror, tag: 1, data: Vec::new() },
                ];
                Bomb {
                    armed: rank == 10 || rank == 4000,
                    fuse: if after_exchange { exchange } else { Vec::new() },
                }
            })
        })
        .expect_err("a bomb went off");
        panic.downcast_ref::<String>().expect("assert message").clone()
    };
    // The first superstep runs in rank order, the one after a mirror
    // exchange in descending order.
    assert_eq!(exploded(false), "rank 10 exploded");
    assert_eq!(exploded(true), "rank 4000 exploded");
}
