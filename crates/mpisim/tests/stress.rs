//! Stress and property tests for the message-passing runtimes: ragged
//! payloads, adversarial orderings, repeated collectives, and co-array
//! consistency under load. Every scenario but the co-array one is a
//! `ScriptProgram` run through `run_both`, so it holds on both runtimes,
//! and a lost message fails with the event runtime's parked-rank
//! diagnosis instead of hanging the thread-backed runtime. The former
//! `proptest` properties are run as deterministic parameter sweeps so
//! they execute on every `cargo test` with no external dependencies.

use pvs_mpisim::caf::CoArray;
use pvs_mpisim::{run, run_both, Op, Reply, ScriptProgram};

/// Every double a script's replies carried, each row behind its length —
/// what `run_both` holds bit-identical across the runtimes.
fn carried(replies: &[Reply]) -> Vec<f64> {
    let rows = |rows: &mut dyn Iterator<Item = &[f64]>| -> Vec<f64> {
        rows.flat_map(|row| std::iter::once(row.len() as f64).chain(row.iter().copied())).collect()
    };
    replies
        .iter()
        .flat_map(|reply| match reply {
            Reply::Received(data) | Reply::Reduced(data) => data.clone(),
            Reply::MaxReduced(x) => vec![*x],
            Reply::Gathered(gathered) => rows(&mut gathered.iter().map(Vec::as_slice)),
            Reply::Alltoall(blocks) => rows(&mut blocks.iter()),
            _ => Vec::new(),
        })
        .collect()
}

#[test]
fn alltoallv_with_ragged_sizes() {
    // Every (src, dst) pair uses a different payload length; contents
    // encode (src, dst, index) so any misrouting is caught.
    let p = 5;
    let len = |src: usize, dst: usize| (src * 7 + dst * 3) % 11;
    let value = |src: usize, dst: usize, i: usize| (src * 10_000 + dst * 100 + i) as f64;
    let make = |me, _| {
        let block = |dst| (0..len(me, dst)).map(|i| value(me, dst, i)).collect::<Vec<f64>>();
        ScriptProgram::new(vec![Op::Alltoallv { sends: (0..p).map(block).collect() }])
    };
    let [v1, _] = run_both(p, make, |replies| carried(replies));
    for (dst, (replies, _)) in v1.iter().enumerate() {
        let [Reply::Alltoall(got)] = &replies[..] else { panic!("rank {dst}: {replies:?}") };
        for (src, payload) in got.iter().enumerate() {
            assert_eq!(payload.len(), len(src, dst), "{src}->{dst} length");
            for (i, &v) in payload.iter().enumerate() {
                assert_eq!(v, value(src, dst, i), "{src}->{dst}[{i}]");
            }
        }
    }
}

/// `0..n` scrambled by swapping each position `i` with `(i·a + b) mod n`.
fn scrambled(n: u64, a: usize, b: usize) -> Vec<u64> {
    let mut tags: Vec<u64> = (0..n).collect();
    let len = tags.len();
    for i in 0..len {
        tags.swap(i, (i * a + b) % len);
    }
    tags
}

#[test]
fn interleaved_tag_storm_is_fully_matched() {
    // Rank 0 sends 200 messages with shuffled tags; rank 1 receives them
    // in a different shuffled order. Every message must match its tag.
    let n = 200u64;
    let make = |rank, _| {
        ScriptProgram::new(if rank == 0 {
            scrambled(n, 7, 3).into_iter().map(|tag| Op::Send { dst: 1, tag, data: vec![tag as f64] }).collect()
        } else {
            scrambled(n, 13, 5).into_iter().map(|tag| Op::Recv { src: 0, tag }).collect()
        })
    };
    let [v1, _] = run_both(2, make, |replies| carried(replies));
    let matched = &v1[1].0;
    assert_eq!(matched.len(), n as usize);
    for (reply, tag) in matched.iter().zip(scrambled(n, 13, 5)) {
        match reply {
            Reply::Received(v) => assert_eq!(v, &[tag as f64], "tag {tag}"),
            other => panic!("tag {tag}: {other:?}"),
        }
    }
}

#[test]
fn repeated_collectives_stay_consistent() {
    // Chains of allreduce/barrier/max allreduce across many rounds: every
    // rank must see identical reductions every round.
    let x = |rank: usize, round: usize| (rank * 31 + round * 17) as f64;
    let make = |rank, _| {
        let round = |round| {
            let x = x(rank, round);
            [Op::AllreduceSum { data: vec![x] }, Op::Barrier, Op::AllreduceMaxScalar { x }]
        };
        ScriptProgram::new((0..25).flat_map(round).collect())
    };
    let [v1, _] = run_both(6, make, |replies| carried(replies));
    for round in 0..25 {
        // Verify the sum analytically: Σ_r (31r + 17·round).
        let analytic_sum: f64 = (0..6).map(|r| x(r, round)).sum();
        for (rank, (replies, _)) in v1.iter().enumerate() {
            match &replies[3 * round..3 * round + 3] {
                [Reply::Reduced(s), Reply::BarrierDone, Reply::MaxReduced(m)] => {
                    assert_eq!(s, &[analytic_sum], "rank {rank} round {round}");
                    assert_eq!(*m, x(5, round), "rank {rank} round {round}");
                }
                other => panic!("rank {rank} round {round}: {other:?}"),
            }
        }
    }
}

#[test]
fn coarray_puts_from_all_ranks_land() {
    // Every rank puts into every other rank's window concurrently;
    // disjoint offsets mean no races and all values must land.
    let p = 6;
    let results = run(p, move |mut comm| {
        let me = comm.rank();
        let ca = CoArray::create(&mut comm, p);
        for dst in 0..p {
            ca.put(dst, me, &[(me * 100 + dst) as f64]);
        }
        comm.barrier();
        ca.local(|w| w.to_vec())
    });
    for (dst, window) in results.iter().enumerate() {
        for (src, &v) in window.iter().enumerate() {
            assert_eq!(v, (src * 100 + dst) as f64, "window[{dst}][{src}]");
        }
    }
}

/// Deterministic stand-in for proptest's float vectors: a fixed-seed hash
/// stream mapped into `[-1e6, 1e6)`.
fn payload_of(len: usize, seed: u64) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let h = (i as u64 + 1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            ((h >> 11) as f64 / (1u64 << 53) as f64) * 2e6 - 1e6
        })
        .collect()
}

#[test]
fn allgather_preserves_arbitrary_payloads() {
    for ranks in 2usize..6 {
        for len in [0usize, 1, 7, 19] {
            let payload = payload_of(len, ranks as u64 * 31 + len as u64);
            // Each rank contributes the payload scaled by its rank.
            let scaled = |rank: usize| payload.iter().map(|v| v * (rank + 1) as f64).collect::<Vec<f64>>();
            let make = |rank, _| ScriptProgram::new(vec![Op::Allgather { data: scaled(rank) }]);
            let [v1, _] = run_both(ranks, make, |replies| carried(replies));
            for (rank, (replies, _)) in v1.iter().enumerate() {
                let [Reply::Gathered(gathered)] = &replies[..] else { panic!("rank {rank}: {replies:?}") };
                assert_eq!(gathered.len(), ranks);
                for (src, part) in gathered.iter().enumerate() {
                    assert_eq!(*part, scaled(src), "rank {rank} slot {src}");
                }
            }
        }
    }
}
