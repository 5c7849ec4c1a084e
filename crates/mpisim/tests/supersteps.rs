//! Supersteps in place, at sizes the other suites do not reach.
//!
//! Every other mpisim test runs at P ≤ 16 (bar one ring), where a batch
//! is a handful of ranks in rank order. These programs run thousands of
//! ranks whose wake order is *not* rank order, and pin the order in which
//! a superstep's effects are applied: park accounting for the whole
//! batch, then deliveries and collective entries in batch order.

use pvs_mpisim::{run_programs, EventSim, Op, RankCtx, RankProgram, Reply, ScriptProgram, SimReport, Step};

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

/// `make`'s programs on both runtimes: the event runtime's report, after
/// holding its replies (`Debug`-rendered — every double round-trips) and
/// traffic to the thread-backed runtime's, where every receive scans a
/// real mailbox.
fn held_to_threads(
    name: &str,
    n: usize,
    make: impl Fn(usize, usize) -> ScriptProgram + Send + Sync,
) -> SimReport<Vec<Reply>> {
    let v2 = EventSim::new(n).run(&make);
    let v1 = run_programs(n, &make);
    assert_eq!(format!("{:?}", v1.ranks), format!("{:?}", v2.ranks), "{name}: replies and traffic");
    v2
}

/// Each reply as `Debug` prints it.
fn rendered(replies: &[Reply]) -> Vec<String> {
    replies.iter().map(|reply| format!("{reply:?}")).collect()
}

/// `deliver` completes a parked receive from the arriving packet itself.
/// In every scenario both ranks run in the first superstep, so rank 1 is
/// parked when rank 0's packets are routed, in send order, after it. What
/// rank 0 sees is held to the thread runtime only.
#[test]
fn a_parked_receiver_is_handed_its_first_match_and_nothing_else() {
    let send = |tag, x: f64| Op::Send { dst: 1, tag, data: vec![x] };
    let recv = |tag| Op::Recv { src: 0, tag };
    // (scenario, each rank's ops, rank 1's replies,
    //  [parks, wakeups, messages, batches])
    type Case = (&'static str, [Vec<Op>; 2], &'static [&'static str], [u64; 4]);
    let cases: [Case; 2] = [
        (
            "a non-match arrives first: it stays buffered for the receive that wants it",
            [vec![send(1, 1.0), send(2, 2.0)], vec![recv(2), recv(1)]],
            &["Received([2.0])", "Received([1.0])"],
            [1, 1, 2, 2],
        ),
        (
            "two matches in one superstep: the first is handed off, the second buffered",
            [vec![send(6, 9.0), send(5, 1.0), send(5, 2.0)], vec![recv(5), recv(5), recv(6)]],
            &["Received([1.0])", "Received([2.0])", "Received([9.0])"],
            [1, 1, 3, 2],
        ),
    ];
    for (name, ops, sees, [parks, wakeups, messages, batches]) in cases {
        let report = held_to_threads(name, 2, |rank, _| ScriptProgram::new(ops[rank].clone()));
        assert_eq!(rendered(&report.ranks[1].0), sees, "{name}");
        let sim = report.sim;
        assert_eq!([sim.parks, sim.wakeups, sim.messages, sim.batches], [parks, wakeups, messages, batches], "{name}");
    }
}

#[test]
fn log_ordered_effects_reproduce_the_mirror_exchange() {
    // Superstep 2 runs P−1, …, 0 (wake order) bar the never-parked middle
    // rank, so its log interleaves ranks in descending order; every value
    // must still reach its mirror, on each tag, through a hand-off.
    let p = 4097usize;
    let report = EventSim::new(p).run(|rank, size| {
        mirror_exchanges(rank, size, &[1, 2], Op::AllreduceSum { data: vec![probe(rank)] })
    });
    let sim = report.sim;
    assert_eq!([sim.parks, sim.wakeups, sim.messages, sim.batches], [12289, 12289, 8192, 4]);
    assert_eq!(report.batch_sizes, [(4096, 2), (4097, 2)]);
    let canonical = (1..p).fold(probe(0), |acc, rank| acc + probe(rank));
    for (rank, replies) in report.into_values().iter().enumerate() {
        let mirror = (p - 1 - rank) as f64;
        let received = |tag: f64| format!("Received([{:?}])", mirror + tag);
        let reduced = format!("Reduced([{canonical:?}])");
        let expect = ["Sent".into(), received(1.0), "Sent".into(), received(2.0), reduced];
        assert_eq!(rendered(replies), expect, "rank {rank}");
    }
}
