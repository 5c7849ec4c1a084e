//! v1 ↔ v2 conformance: the thread-backed runtime (`run_programs`, over
//! `run`/`run_faulty`) and the event-driven runtime (`EventSim`) must
//! agree **bit-for-bit** on every value and every statistic, at every
//! rank count, in healthy and faulty regimes alike. Every scenario is one
//! program run through both, so a disagreement is a runtime's, never a
//! second spelling's. These tests are the gate that lets the scale
//! harness trust v2 at rank counts v1 cannot reach.
//!
//! Faulty *collective* regimes are restricted to retry-succeeds seeds:
//! on a mid-collective timeout v1's ring deadlocks (the erroring rank
//! stops forwarding), while v2 fails all participants deterministically
//! — the one documented divergence. The tests assert the chosen seeds
//! actually produce zero timeouts so a bad seed fails loudly instead of
//! hanging the v1 side.

use pvs_mpisim::{
    run_both, run_programs, EventSim, FaultError, FaultSpec, Op, RankCtx, RankProgram, Reply,
    ScriptProgram, SimReport, Step,
};
use std::fmt::Debug;

const SWEEP_P: [usize; 4] = [1, 2, 4, 16];

/// Catastrophic-cancellation probe: canonical order is observable.
fn probe(rank: usize) -> f64 {
    [1e16, 1.0, -1e16][rank % 3]
}

/// A seeded drop/delay regime with an explicit attempt budget.
fn spec_with(seed: u64, drop: u32, max_attempts: u32, delay: u32) -> FaultSpec {
    let mut spec = FaultSpec::healthy()
        .with_seed(seed)
        .drop_per_mille(drop)
        .delay_per_mille(delay);
    spec.max_attempts = max_attempts;
    spec
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// What a reply carried, every double as its bit pattern, or the fault
/// it surfaced.
fn carried(reply: &Reply) -> Result<Vec<Vec<u64>>, FaultError> {
    Ok(match reply {
        Reply::Start => Vec::new(),
        Reply::Sent(done) | Reply::BarrierDone(done) => {
            (*done)?;
            Vec::new()
        }
        Reply::Received(data) | Reply::Exchanged(data) | Reply::Reduced(data) => {
            vec![bits(data.as_ref().map_err(|e| *e)?)]
        }
        Reply::MaxReduced(x) => vec![vec![(*x)?.to_bits()]],
        Reply::Broadcasted(data) => vec![bits(data)],
        Reply::Gathered(rows) => rows.iter().map(|row| bits(row)).collect(),
        Reply::Alltoall(rows) => rows.iter().map(bits).collect(),
        Reply::CoCreated(array) => vec![vec![array.this_image() as u64, array.num_images() as u64]],
    })
}

fn script_bits(replies: &[Reply]) -> Vec<Result<Vec<Vec<u64>>, FaultError>> {
    replies.iter().map(carried).collect()
}

/// `make`'s programs on the event runtime, healthy or under `faults`.
fn on_events<P: RankProgram>(
    n: usize,
    faults: &Option<FaultSpec>,
    make: impl Fn(usize, usize) -> P,
) -> SimReport<P::Output> {
    let sim = EventSim::new(n);
    match faults {
        Some(spec) => sim.faults(spec.clone()).run(make),
        None => sim.run(make),
    }
}

/// Run the same `make` on the thread-backed runtime and hold it to the
/// event runtime's report `v2`, rank by rank: who survived, the values
/// (as `view` renders them), fault accounting, traffic and clock.
fn assert_threads_match<P: RankProgram, V: PartialEq + Debug>(
    ctx: &str,
    faults: Option<FaultSpec>,
    make: impl Fn(usize, usize) -> P + Send + Sync,
    v2: &SimReport<P::Output>,
    view: impl Fn(&P::Output) -> V,
) {
    let n = v2.outcomes.len();
    let v1 = run_programs(n, faults, make);
    for rank in 0..n {
        let ctx = format!("{ctx} n={n} rank={rank}");
        let values = |report: &SimReport<P::Output>| report.outcomes[rank].value().map(&view);
        assert_eq!(values(&v1), values(v2), "values {ctx}");
        assert_eq!(v1.outcomes[rank].faults(), v2.outcomes[rank].faults(), "fault stats {ctx}");
        assert_eq!(v1.comm_stats[rank], v2.comm_stats[rank], "traffic {ctx}");
        assert_eq!(v1.clocks_ps[rank], v2.clocks_ps[rank], "clock {ctx}");
    }
}

/// The healthy sweep: one op of every kind, each arm naming what follows
/// that kind. There is no wildcard arm, so a new `Op` variant does not
/// compile until it has a place in this both-runtimes scenario.
fn every_op(rank: usize, size: usize) -> Vec<Op> {
    let r = rank as f64;
    let root = size - 1;
    let mut ops = vec![Op::Barrier];
    loop {
        let next = match &ops[ops.len() - 1] {
            Op::Barrier => Op::AllreduceSum { data: vec![probe(rank), 0.25 * r] },
            Op::AllreduceSum { .. } => Op::AllreduceMaxScalar { x: probe(rank) },
            Op::AllreduceMaxScalar { .. } => Op::Allgather { data: vec![r + 0.5; rank % 3 + 1] },
            Op::Allgather { .. } => Op::Broadcast {
                root,
                data: if rank == root { vec![3.5, -1e16, probe(rank)] } else { Vec::new() },
            },
            Op::Broadcast { .. } => Op::Alltoallv {
                sends: (0..size).map(|d| vec![(rank * size + d) as f64; (rank + d) % 2 + 1]).collect(),
            },
            Op::Alltoallv { .. } => Op::CoCreate { len: 3 },
            Op::CoCreate { .. } => Op::Sendrecv {
                partner: if rank ^ 1 < size { rank ^ 1 } else { rank },
                tag: 11,
                data: vec![r, r + 0.5],
            },
            Op::Sendrecv { .. } => Op::Send { dst: (rank + 1) % size, tag: 12, data: vec![r * 7.0] },
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
            Reply::MaxReduced(Ok(most)) if most > 0.0 => {
                Step::Op(Op::Send { dst: right, tag: 30, data: vec![self.value, 0.5] })
            }
            Reply::MaxReduced(Ok(_)) => Step::Finish(vec![self.value, ctx.comm.bytes_sent as f64]),
            Reply::Sent(Ok(())) => Step::Op(Op::Recv { src: left, tag: 30 }),
            Reply::Received(Ok(data)) => {
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
        let v2 = on_events(n, &None, script);
        assert_threads_match("script", None, script, &v2, |r| script_bits(r));
        let v2 = on_events(n, &None, GatedShift::new);
        assert_threads_match("gated shift", None, GatedShift::new, &v2, |values| bits(values));
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
            Reply::Received(data) => Some(data.clone().expect("a delivered packet")),
            _ => None,
        })
        .flatten()
        .collect()
}

/// The mailbox and loopback paths agree on both runtimes, healthy and
/// armed: values, traffic and, armed, fault accounting and clocks.
#[test]
fn early_packets_and_loopback_are_bit_exact() {
    for n in [2usize, 3, 16] {
        let [v1, _] = run_both(n, early_and_loopback, |r| received(r));
        for (rank, (values, _)) in v1.iter().enumerate() {
            let (right, left) = ((rank + 1) % n, (rank + n - 1) % n);
            let want = [probe(left), left as f64, 0.5, rank as f64 + 0.25, right as f64 * 3.0];
            assert_eq!(bits(&received(values)), bits(&want), "n={n} rank={rank}");
        }
        for spec in [FaultSpec::healthy(), spec_with(5, 0, 1, 500)] {
            let v2 = on_events(n, &Some(spec.clone()), early_and_loopback);
            let delays: u64 = v2.outcomes.iter().filter_map(|o| o.faults()).map(|f| f.delays).sum();
            assert_eq!(delays > 0, spec.delay_per_mille > 0, "n={n}: the delay regime must delay");
            let ctx = format!("armed seed={}", spec.seed);
            assert_threads_match(&ctx, Some(spec), early_and_loopback, &v2, |r| script_bits(r));
        }
    }
}

/// Seeded drop/delay p2p under retries, including guaranteed timeouts
/// (drop_per_mille = 1000): results, fault accounting, traffic, and
/// simulated clocks must match bitwise.
#[test]
fn faulty_p2p_drop_delay_and_timeout_paths_are_bit_exact() {
    let regimes = [
        // Retries succeed: moderate drops, frequent delays.
        spec_with(42, 350, 10, 400),
        // Every attempt lost: both sides observe the timeout.
        spec_with(7, 1000, 3, 0),
        // Boundary regime: huge attempt budget exercises saturation.
        spec_with(21, 1000, 80, 0),
        // Saturated clock: the first drop pins the clock at u64::MAX and
        // every delivery is then delayed on top of it.
        FaultSpec {
            base_backoff_ps: u64::MAX,
            ..spec_with(3, 500, 64, 1000)
        },
    ];
    // Pairwise exchange, then a one-way send/recv chain.
    let make = |rank: usize, size| {
        let mut ops = vec![Op::Sendrecv { partner: rank ^ 1, tag: 5, data: vec![rank as f64] }];
        if rank + 1 < size {
            ops.push(Op::Send { dst: rank + 1, tag: 6, data: vec![2.5] });
        }
        if rank > 0 {
            ops.push(Op::Recv { src: rank - 1, tag: 6 });
        }
        ScriptProgram::new(ops)
    };
    for spec in regimes {
        for n in [2usize, 4] {
            let seed = format!("seed={}", spec.seed);
            let v2 = on_events(n, &Some(spec.clone()), make);
            assert_threads_match(&seed, Some(spec.clone()), make, &v2, |r| script_bits(r));
            if spec.base_backoff_ps == u64::MAX {
                let pinned = v2.clocks_ps.iter().filter(|&&c| c == u64::MAX).count();
                assert!(pinned > 0, "{seed} n={n}: no delayed send after a drop");
            }
        }
    }
}

/// Faulty collectives (barrier + survivor allreduce) in retry-succeeds
/// regimes, with and without failed ranks: values, fault accounting,
/// and clocks must match bitwise.
#[test]
fn faulty_collectives_with_retries_are_bit_exact() {
    let cases = [
        (4usize, spec_with(3, 300, 64, 0)),
        (16, spec_with(11, 250, 64, 500)),
        (5, spec_with(9, 300, 64, 0).fail_rank(1).fail_rank(3)),
    ];
    let make = |rank, _| {
        ScriptProgram::new(vec![Op::Barrier, Op::AllreduceSum { data: vec![probe(rank), 0.5] }])
    };
    for (n, spec) in cases {
        let v2 = on_events(n, &Some(spec.clone()), make);
        // Guard: the seed must keep every retry under budget, otherwise
        // the v1 ring below would deadlock instead of failing the test.
        for outcome in &v2.outcomes {
            if let Some(f) = outcome.faults() {
                assert_eq!(f.timeouts, 0, "pick a retry-succeeds seed (n={n})");
            }
            match outcome.value().map(Vec::as_slice) {
                None | Some([Reply::BarrierDone(Ok(())), Reply::Reduced(Ok(_))]) => {}
                Some(other) => panic!("unexpected replies seed={} n={n}: {other:?}", spec.seed),
            }
        }
        assert_threads_match(&format!("seed={}", spec.seed), Some(spec), make, &v2, |r| script_bits(r));
    }
}

/// Sends toward a failed rank fail fast identically in both runtimes.
#[test]
fn rank_failure_fail_fast_is_bit_exact() {
    let spec = FaultSpec::healthy().fail_rank(2);
    let make = |_, _| {
        ScriptProgram::new(vec![Op::Send { dst: 2, tag: 9, data: vec![1.0] }, Op::Recv { src: 2, tag: 9 }])
    };
    let v2 = on_events(4, &Some(spec.clone()), make);
    let failed = Err(FaultError::RankFailed { rank: 2 });
    for rank in [0usize, 1, 3] {
        let replies = v2.outcomes[rank].value().expect("v2 completed");
        assert_eq!(script_bits(replies), [failed.clone(), failed.clone()], "rank {rank}");
    }
    assert!(v2.outcomes[2].is_failed());
    assert_threads_match("fail-fast", Some(spec), make, &v2, |r| script_bits(r));
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
    run_programs(3, None, ragged_allreduce);
}

#[test]
#[should_panic(expected = "participant 1 contributed 3 doubles, participant 0 2")]
fn a_ragged_allreduce_is_diagnosed_on_events() {
    EventSim::new(3).run(ragged_allreduce);
}
