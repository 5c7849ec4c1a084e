//! v1 ↔ v2 conformance: the thread-backed runtime (`run`/`run_faulty`)
//! and the event-driven runtime (`EventSim`) must agree **bit-for-bit**
//! on every value and every statistic, at every rank count, in healthy
//! and faulty regimes alike. These tests are the gate that lets the
//! scale harness trust v2 at rank counts v1 cannot reach.
//!
//! Faulty *collective* regimes are restricted to retry-succeeds seeds:
//! on a mid-collective timeout v1's ring deadlocks (the erroring rank
//! stops forwarding), while v2 fails all participants deterministically
//! — the one documented divergence. The tests assert the chosen seeds
//! actually produce zero timeouts so a bad seed fails loudly instead of
//! hanging the v1 side.

use pvs_mpisim::{
    run, run_faulty, CommStats, EventSim, FaultSpec, Op, Reply, ScriptProgram,
};

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

/// Flatten a v2 reply stream into the same `Vec<Vec<f64>>` shape the v1
/// closure records, panicking on any fault in a healthy run.
fn flatten_replies(replies: &[Reply]) -> Vec<Vec<f64>> {
    let mut out = Vec::new();
    for reply in replies {
        match reply {
            Reply::Start | Reply::Sent(Ok(())) | Reply::BarrierDone(Ok(())) => {}
            Reply::Reduced(Ok(v)) | Reply::Broadcasted(v) => out.push(v.clone()),
            Reply::MaxReduced(Ok(x)) => out.push(vec![*x]),
            Reply::Gathered(rows) => out.extend(rows.iter().cloned()),
            Reply::Alltoall(rows) => out.extend(rows.iter().cloned()),
            Reply::Exchanged(Ok(v)) | Reply::Received(Ok(v)) => out.push(v.clone()),
            other => panic!("unexpected reply in healthy run: {other:?}"),
        }
    }
    out
}

fn bits(vals: &[Vec<f64>]) -> Vec<Vec<u64>> {
    vals.iter()
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// Every collective plus both p2p shapes, v1 and v2, all rank counts:
/// values and per-rank traffic statistics must match bitwise.
#[test]
fn healthy_sweep_is_bit_exact() {
    for n in SWEEP_P {
        let bcast_root = n - 1;
        let v1: Vec<(Vec<Vec<f64>>, CommStats)> = run(n, move |mut c| {
            let rank = c.rank();
            let r = rank as f64;
            let mut out: Vec<Vec<f64>> = Vec::new();
            c.barrier();
            out.push(c.allreduce_sum(&[probe(rank), 0.25 * r]));
            out.push(vec![c.allreduce_max_scalar(probe(rank))]);
            out.extend(c.allgather(&vec![r + 0.5; rank % 3 + 1]));
            let root_data = if rank == bcast_root {
                vec![3.5, -1e16, probe(rank)]
            } else {
                Vec::new()
            };
            out.push(c.broadcast(bcast_root, root_data));
            let sends: Vec<Vec<f64>> = (0..n)
                .map(|d| vec![(rank * n + d) as f64; (rank + d) % 2 + 1])
                .collect();
            out.extend(c.alltoallv(sends));
            let partner = if rank ^ 1 < n { rank ^ 1 } else { rank };
            out.push(c.sendrecv(partner, 11, vec![r, r + 0.5]));
            if n > 1 {
                c.send((rank + 1) % n, 12, vec![r * 7.0]);
                out.push(c.recv((rank + n - 1) % n, 12));
            }
            (out, c.stats())
        });
        let report = EventSim::new(n).run(|rank, size| {
            let r = rank as f64;
            let mut ops = vec![
                Op::Barrier,
                Op::AllreduceSum {
                    data: vec![probe(rank), 0.25 * r],
                },
                Op::AllreduceMaxScalar { x: probe(rank) },
                Op::Allgather {
                    data: vec![r + 0.5; rank % 3 + 1],
                },
                Op::Broadcast {
                    root: bcast_root,
                    data: if rank == bcast_root {
                        vec![3.5, -1e16, probe(rank)]
                    } else {
                        Vec::new()
                    },
                },
                Op::Alltoallv {
                    sends: (0..size)
                        .map(|d| vec![(rank * size + d) as f64; (rank + d) % 2 + 1])
                        .collect(),
                },
                Op::Sendrecv {
                    partner: if rank ^ 1 < size { rank ^ 1 } else { rank },
                    tag: 11,
                    data: vec![r, r + 0.5],
                },
            ];
            if size > 1 {
                ops.push(Op::Send {
                    dst: (rank + 1) % size,
                    tag: 12,
                    data: vec![r * 7.0],
                });
                ops.push(Op::Recv {
                    src: (rank + size - 1) % size,
                    tag: 12,
                });
            }
            ScriptProgram::new(ops)
        });
        for rank in 0..n {
            let (v1_vals, v1_stats) = &v1[rank];
            let replies = report.outcomes[rank].value().expect("completed");
            let v2_vals = flatten_replies(replies);
            assert_eq!(bits(v1_vals), bits(&v2_vals), "values n={n} rank={rank}");
            assert_eq!(
                Some(*v1_stats),
                report.comm_stats[rank],
                "traffic n={n} rank={rank}"
            );
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
    for spec in regimes {
        for n in [2usize, 4] {
            let v1 = {
                let spec = spec.clone();
                run_faulty(n, spec, |c| {
                    let rank = c.rank();
                    let n = c.size();
                    let mut log: Vec<String> = Vec::new();
                    // Pairwise exchange, then a one-way send/recv chain.
                    let partner = rank ^ 1;
                    log.push(format!("{:?}", c.sendrecv(partner, 5, vec![rank as f64])));
                    if rank + 1 < n {
                        log.push(format!("{:?}", c.send(rank + 1, 6, vec![2.5])));
                    }
                    if rank > 0 {
                        log.push(format!("{:?}", c.recv(rank - 1, 6)));
                    }
                    (log, c.comm_stats(), c.clock_ps())
                })
            };
            let report = EventSim::new(n).faults(spec.clone()).run(|rank, size| {
                let mut ops = vec![Op::Sendrecv {
                    partner: rank ^ 1,
                    tag: 5,
                    data: vec![rank as f64],
                }];
                if rank + 1 < size {
                    ops.push(Op::Send {
                        dst: rank + 1,
                        tag: 6,
                        data: vec![2.5],
                    });
                }
                if rank > 0 {
                    ops.push(Op::Recv { src: rank - 1, tag: 6 });
                }
                ScriptProgram::new(ops)
            });
            for rank in 0..n {
                let (v1_log, v1_comm, v1_clock) = v1[rank].value().expect("v1 completed");
                let replies = report.outcomes[rank].value().expect("v2 completed");
                let v2_log: Vec<String> = replies
                    .iter()
                    .map(|reply| match reply {
                        Reply::Exchanged(res) => format!("{res:?}"),
                        Reply::Sent(res) => format!("{res:?}"),
                        Reply::Received(res) => format!("{res:?}"),
                        other => panic!("unexpected reply: {other:?}"),
                    })
                    .collect();
                let ctx = format!("seed={} n={n} rank={rank}", spec.seed);
                assert_eq!(v1_log, &v2_log, "results {ctx}");
                assert_eq!(
                    v1[rank].faults(),
                    report.outcomes[rank].faults(),
                    "fault stats {ctx}"
                );
                assert_eq!(Some(*v1_comm), report.comm_stats[rank], "traffic {ctx}");
                assert_eq!(*v1_clock, report.clocks_ps[rank], "clock {ctx}");
            }
            if spec.base_backoff_ps == u64::MAX {
                let pinned = report.clocks_ps.iter().filter(|&&c| c == u64::MAX).count();
                assert!(pinned > 0, "seed={} n={n}: no delayed send after a drop", spec.seed);
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
    for (n, spec) in cases {
        let report = EventSim::new(n).faults(spec.clone()).run(|rank, _| {
            ScriptProgram::new(vec![
                Op::Barrier,
                Op::AllreduceSum {
                    data: vec![probe(rank), 0.5],
                },
            ])
        });
        // Guard: the seed must keep every retry under budget, otherwise
        // the v1 ring below would deadlock instead of failing the test.
        for outcome in &report.outcomes {
            if let Some(f) = outcome.faults() {
                assert_eq!(f.timeouts, 0, "pick a retry-succeeds seed (n={n})");
            }
        }
        let v1 = {
            let spec = spec.clone();
            run_faulty(n, spec, |c| {
                c.barrier().expect("barrier survives retries");
                let v = c
                    .allreduce_sum(&[probe(c.rank()), 0.5])
                    .expect("allreduce survives retries");
                (v, c.comm_stats(), c.clock_ps())
            })
        };
        for rank in 0..n {
            let ctx = format!("seed={} n={n} rank={rank}", spec.seed);
            match (v1[rank].value(), report.outcomes[rank].value()) {
                (None, None) => {} // failed rank in both runtimes
                (Some((v1_vals, v1_comm, v1_clock)), Some(replies)) => {
                    let v2_vals = match replies.as_slice() {
                        [Reply::BarrierDone(Ok(())), Reply::Reduced(Ok(v))] => v,
                        other => panic!("unexpected replies {ctx}: {other:?}"),
                    };
                    assert_eq!(
                        v1_vals.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        v2_vals.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "values {ctx}"
                    );
                    assert_eq!(
                        v1[rank].faults(),
                        report.outcomes[rank].faults(),
                        "fault stats {ctx}"
                    );
                    assert_eq!(Some(*v1_comm), report.comm_stats[rank], "traffic {ctx}");
                    assert_eq!(*v1_clock, report.clocks_ps[rank], "clock {ctx}");
                }
                (a, b) => panic!("survivor mismatch {ctx}: v1={} v2={}", a.is_some(), b.is_some()),
            }
        }
    }
}

/// Sends toward a failed rank fail fast identically in both runtimes.
#[test]
fn rank_failure_fail_fast_is_bit_exact() {
    let spec = FaultSpec::healthy().fail_rank(2);
    let n = 4;
    let v1 = run_faulty(n, spec.clone(), |c| {
        let mut log = Vec::new();
        log.push(format!("{:?}", c.send(2, 9, vec![1.0])));
        log.push(format!("{:?}", c.recv(2, 9)));
        (log, c.comm_stats(), c.clock_ps())
    });
    let report = EventSim::new(n).faults(spec).run(|_, _| {
        ScriptProgram::new(vec![
            Op::Send {
                dst: 2,
                tag: 9,
                data: vec![1.0],
            },
            Op::Recv { src: 2, tag: 9 },
        ])
    });
    for rank in [0usize, 1, 3] {
        let (v1_log, v1_comm, v1_clock) = v1[rank].value().expect("v1 completed");
        let replies = report.outcomes[rank].value().expect("v2 completed");
        let v2_log: Vec<String> = replies
            .iter()
            .map(|reply| match reply {
                Reply::Sent(res) => format!("{res:?}"),
                Reply::Received(res) => format!("{res:?}"),
                other => panic!("unexpected reply: {other:?}"),
            })
            .collect();
        assert_eq!(v1_log, &v2_log, "rank {rank}");
        assert_eq!(v1[rank].faults(), report.outcomes[rank].faults(), "rank {rank}");
        assert_eq!(Some(*v1_comm), report.comm_stats[rank], "rank {rank}");
        assert_eq!(*v1_clock, report.clocks_ps[rank], "rank {rank}");
    }
    assert!(v1[2].value().is_none());
    assert!(report.outcomes[2].value().is_none());
}
