//! v1 ↔ v2 conformance: the thread-backed runtime (`run_programs`, over
//! `run`) and the event-driven runtime (`EventSim`) must agree
//! **bit-for-bit** on every value and every statistic, at every rank
//! count. Every scenario is one program run through both, so a
//! disagreement is a runtime's, never a second spelling's. These tests
//! are the gate that lets the scale harness trust v2 at rank counts v1
//! cannot reach. Fault injection is v1's alone (`run_faulty`) and is
//! tested in `fault.rs`.

use pvs_mpisim::{run_both, run_programs, EventSim, Op, RankCtx, RankProgram, Reply, ScriptProgram, Step};
use std::fmt::Debug;

const SWEEP_P: [usize; 4] = [1, 2, 4, 16];

/// Catastrophic-cancellation probe: canonical order is observable.
fn probe(rank: usize) -> f64 {
    [1e16, 1.0, -1e16][rank % 3]
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// What a reply carried, every double as its bit pattern.
fn carried(reply: &Reply) -> Vec<Vec<u64>> {
    match reply {
        Reply::Start | Reply::Sent | Reply::BarrierDone => Vec::new(),
        Reply::Received(data) | Reply::Reduced(data) => vec![bits(data)],
        Reply::MaxReduced(x) => vec![vec![x.to_bits()]],
        Reply::Gathered(rows) => rows.iter().map(|row| bits(row)).collect(),
        Reply::Alltoall(rows) => rows.iter().map(bits).collect(),
        Reply::CoCreated(array) => vec![vec![array.this_image() as u64]],
    }
}

fn script_bits(replies: &[Reply]) -> Vec<Vec<Vec<u64>>> {
    replies.iter().map(carried).collect()
}

/// Run `make` on both runtimes and hold them to each other rank by rank:
/// the values, as `view` renders them, and the traffic.
fn assert_runtimes_match<P: RankProgram, V: PartialEq + Debug>(
    ctx: &str,
    n: usize,
    make: impl Fn(usize, usize) -> P + Send + Sync,
    view: impl Fn(&P::Output) -> V,
) {
    let v2 = EventSim::new(n).run(&make).ranks;
    let v1 = run_programs(n, &make).ranks;
    for (rank, ((a, sa), (b, sb))) in v1.iter().zip(&v2).enumerate() {
        let ctx = format!("{ctx} n={n} rank={rank}");
        assert_eq!(view(a), view(b), "values {ctx}");
        assert_eq!(sa, sb, "traffic {ctx}");
    }
}

/// The sweep: one op of every kind, each arm naming what follows that
/// kind. There is no wildcard arm, so a new `Op` variant does not compile
/// until it has a place in this both-runtimes scenario.
fn every_op(rank: usize, size: usize) -> Vec<Op> {
    let r = rank as f64;
    let mut ops = vec![Op::Barrier];
    loop {
        let next = match &ops[ops.len() - 1] {
            Op::Barrier => Op::AllreduceSum { data: vec![probe(rank), 0.25 * r] },
            Op::AllreduceSum { .. } => Op::AllreduceMaxScalar { x: probe(rank) },
            Op::AllreduceMaxScalar { .. } => Op::Allgather { data: vec![r + 0.5; rank % 3 + 1] },
            Op::Allgather { .. } => Op::Alltoallv {
                sends: (0..size).map(|d| vec![(rank * size + d) as f64; (rank + d) % 2 + 1]).collect(),
            },
            Op::Alltoallv { .. } => Op::CoCreate { len: 3 },
            Op::CoCreate { .. } => Op::Send { dst: (rank + 1) % size, tag: 12, data: vec![r * 7.0] },
            Op::Send { .. } => Op::Recv { src: (rank + size - 1) % size, tag: 12 },
            Op::Recv { .. } => return ops,
        };
        ops.push(next);
    }
}

/// A data-dependent program, GTC's shape: ring-shift a value until a max
/// reduction reports every rank's hop budget spent, so the op sequence is
/// known only from the replies — and `ctx.comm` is read mid-run.
struct GatedShift {
    value: f64,
    hops: u32,
}

impl GatedShift {
    fn new(rank: usize, _size: usize) -> Self {
        GatedShift { value: probe(rank), hops: (rank % 3) as u32 }
    }

    fn gate(&self) -> Step<Vec<f64>> {
        Step::Op(Op::AllreduceMaxScalar { x: self.hops as f64 })
    }
}

impl RankProgram for GatedShift {
    type Output = Vec<f64>;

    fn resume(&mut self, ctx: &RankCtx, reply: Reply) -> Step<Vec<f64>> {
        let (right, left) = ((ctx.rank + 1) % ctx.size, (ctx.rank + ctx.size - 1) % ctx.size);
        match reply {
            Reply::Start => self.gate(),
            Reply::MaxReduced(most) if most > 0.0 => {
                Step::Op(Op::Send { dst: right, tag: 30, data: vec![self.value, 0.5] })
            }
            Reply::MaxReduced(_) => Step::Finish(vec![self.value, ctx.comm.bytes_sent as f64]),
            Reply::Sent => Step::Op(Op::Recv { src: left, tag: 30 }),
            Reply::Received(data) => {
                self.value = data[0] + data[1] + ctx.comm.messages_sent as f64;
                self.hops = self.hops.saturating_sub(1);
                self.gate()
            }
            other => panic!("unexpected reply in the gated shift: {other:?}"),
        }
    }
}

/// Every collective plus both p2p shapes, v1 and v2, all rank counts:
/// values and per-rank traffic statistics must match bitwise — for the
/// fixed script and for a program whose ops depend on what it receives.
#[test]
fn healthy_sweep_is_bit_exact() {
    for n in SWEEP_P {
        let script = |rank, size| ScriptProgram::new(every_op(rank, size));
        assert_runtimes_match("script", n, script, |r| script_bits(r));
        assert_runtimes_match("gated shift", n, GatedShift::new, |values| bits(values));
    }
}

/// Packets that land before their receive is posted, and loopback. Two
/// packets go right and are received in reverse order, so the first
/// arrives at a rank with no mailbox yet; a loopback send lands in the
/// sender's own; a packet sent left arrives while its receiver sits in a
/// barrier.
fn early_and_loopback(rank: usize, size: usize) -> ScriptProgram {
    let (right, left) = ((rank + 1) % size, (rank + size - 1) % size);
    let r = rank as f64;
    ScriptProgram::new(vec![
        Op::Send { dst: right, tag: 40, data: vec![r, 0.5] },
        Op::Send { dst: right, tag: 41, data: vec![probe(rank)] },
        Op::Recv { src: left, tag: 41 },
        Op::Recv { src: left, tag: 40 },
        Op::Send { dst: rank, tag: 42, data: vec![r + 0.25] },
        Op::Recv { src: rank, tag: 42 },
        Op::Send { dst: left, tag: 43, data: vec![r * 3.0] },
        Op::Barrier,
        Op::Recv { src: right, tag: 43 },
    ])
}

/// Every received payload, in receive order.
fn received(replies: &[Reply]) -> Vec<f64> {
    replies
        .iter()
        .filter_map(|reply| match reply {
            Reply::Received(data) => Some(data.clone()),
            _ => None,
        })
        .flatten()
        .collect()
}

/// The mailbox and loopback paths agree on both runtimes: values and
/// traffic.
#[test]
fn early_packets_and_loopback_are_bit_exact() {
    for n in [2usize, 3, 16] {
        let [v1, _] = run_both(n, early_and_loopback, |r| received(r));
        for (rank, (values, _)) in v1.iter().enumerate() {
            let (right, left) = ((rank + 1) % n, (rank + n - 1) % n);
            let want = [probe(left), left as f64, 0.5, rank as f64 + 0.25, right as f64 * 3.0];
            assert_eq!(bits(&received(values)), bits(&want), "n={n} rank={rank}");
        }
    }
}

/// A sum allreduce whose contributions differ in length: rank 1 brings 3
/// doubles to a 2-double reduction. Both runtimes fold through the one
/// `fold_sum`, which used to `zip` the third element away in silence.
fn ragged_allreduce(rank: usize, _size: usize) -> ScriptProgram {
    ScriptProgram::new(vec![Op::AllreduceSum { data: vec![1.0; if rank == 1 { 3 } else { 2 }] }])
}

#[test]
#[should_panic(expected = "participant 1 contributed 3 doubles, participant 0 2")]
fn a_ragged_allreduce_is_diagnosed_on_threads() {
    run_programs(3, ragged_allreduce);
}

#[test]
#[should_panic(expected = "participant 1 contributed 3 doubles, participant 0 2")]
fn a_ragged_allreduce_is_diagnosed_on_events() {
    EventSim::new(3).run(ragged_allreduce);
}
