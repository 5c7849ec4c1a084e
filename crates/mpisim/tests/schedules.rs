//! Independent oracle for the collective schedules.
//!
//! Both runtimes and the engine's timing model take their schedules from
//! one module, `pvs_netsim::schedule`, so a wrong schedule would move v1,
//! v2 and the model together and `conformance.rs` would not see it. This
//! table pins what every rank sends — literal `(messages_sent,
//! bytes_sent)` worked out by hand from the algorithms' definitions
//! (dissemination barrier, gather-to-all ring, all-to-all rotation), not
//! from the code — and holds both runtimes to it; the rotation it pins is
//! the one the model times PARATEC's transposes on.

use pvs_mpisim::{run_programs, Blocks, EventSim, Op, Reply, ScriptProgram, SimReport};

/// The collective `name` as rank `rank` of `p` enters it: 2-double sum,
/// scalar max, ragged allgather rows of `rank % 3 + 1` doubles, ragged
/// all-to-all blocks of `(rank + dst) % 2 + 1` doubles.
fn op(name: &str, rank: usize, p: usize) -> Op {
    match name {
        "barrier" => Op::Barrier,
        "allreduce_sum" => Op::AllreduceSum { data: vec![rank as f64, 0.5] },
        "allreduce_max" => Op::AllreduceMaxScalar { x: rank as f64 },
        "allgather" => Op::Allgather { data: vec![1.0; rank % 3 + 1] },
        "alltoallv" => Op::Alltoallv {
            sends: (0..p).map(|dst| vec![0.0; (rank + dst) % 2 + 1]).collect(),
        },
        "cocreate" => Op::CoCreate { len: 4 },
        other => panic!("no such collective: {other}"),
    }
}

/// Per-rank `(messages_sent, bytes_sent)`.
type RankTraffic = &'static [(u64, u64)];

/// `(ranks, collective, per-rank traffic)`.
#[rustfmt::skip]
const ORACLE: &[(usize, &str, RankTraffic)] = &[
    (1, "barrier", &[(0, 0); 1]),
    (1, "allreduce_sum", &[(0, 0); 1]),
    (1, "allreduce_max", &[(0, 0); 1]),
    (1, "allgather", &[(0, 0); 1]),
    (1, "alltoallv", &[(0, 0); 1]),
    (1, "cocreate", &[(0, 0); 1]),
    (2, "barrier", &[(1, 0); 2]),
    (2, "allreduce_sum", &[(1, 16); 2]),
    (2, "allreduce_max", &[(1, 8); 2]),
    (2, "allgather", &[(1, 16), (1, 24)]),
    (2, "alltoallv", &[(1, 16); 2]),
    (2, "cocreate", &[(1, 8); 2]),
    (3, "barrier", &[(2, 0); 3]),
    (3, "allreduce_sum", &[(2, 32); 3]),
    (3, "allreduce_max", &[(2, 16); 3]),
    (3, "allgather", &[(2, 48), (2, 40), (2, 56)]),
    (3, "alltoallv", &[(2, 24), (2, 32), (2, 24)]),
    (3, "cocreate", &[(2, 16); 3]),
    (7, "barrier", &[(3, 0); 7]),
    (7, "allreduce_sum", &[(6, 96); 7]),
    (7, "allreduce_max", &[(6, 48); 7]),
    (7, "allgather", &[(6, 136), (6, 128), (6, 144), (6, 136), (6, 128), (6, 144), (6, 144)]),
    (7, "alltoallv", &[(6, 72), (6, 80), (6, 72), (6, 80), (6, 72), (6, 80), (6, 72)]),
    (7, "cocreate", &[(6, 48); 7]),
    (8, "barrier", &[(3, 0); 8]),
    (8, "allreduce_sum", &[(7, 112); 8]),
    (8, "allreduce_max", &[(7, 56); 8]),
    (8, "allgather", &[
        (7, 160), (7, 152), (7, 168), (7, 160), (7, 152), (7, 168), (7, 160), (7, 168),
    ]),
    (8, "alltoallv", &[(7, 88); 8]),
    (8, "cocreate", &[(7, 56); 8]),
    (16, "barrier", &[(4, 0); 16]),
    (16, "allreduce_sum", &[(15, 240); 16]),
    (16, "allreduce_max", &[(15, 120); 16]),
    (16, "allgather", &[
        (15, 352), (15, 344), (15, 360), (15, 352), (15, 344), (15, 360), (15, 352), (15, 344),
        (15, 360), (15, 352), (15, 344), (15, 360), (15, 352), (15, 344), (15, 360), (15, 360),
    ]),
    (16, "alltoallv", &[(15, 184); 16]),
    (16, "cocreate", &[(15, 120); 16]),
];

#[test]
fn both_runtimes_send_exactly_the_tabulated_traffic() {
    for &(p, name, expect) in ORACLE {
        assert_eq!(expect.len(), p, "{name}@{p}: one row per rank");
        let [v1, v2] = traffic(p, |rank| op(name, rank, p));
        assert_eq!(v1, expect, "v1 {name}@{p}");
        assert_eq!(v2, expect, "v2 {name}@{p}");
    }
}

/// One single-op script per rank on the thread-backed and on the event
/// runtime, in that order.
fn on_both(p: usize, op: impl Fn(usize) -> Op + Sync) -> [SimReport<Vec<Reply>>; 2] {
    let make = |rank, _| ScriptProgram::new(vec![op(rank)]);
    [run_programs(p, make), EventSim::new(p).run(make)]
}

/// Per-rank `(messages_sent, bytes_sent)` of one op on each runtime.
fn traffic(p: usize, op: impl Fn(usize) -> Op + Sync) -> [Vec<(u64, u64)>; 2] {
    on_both(p, op).map(|report| {
        let per_rank = report.ranks;
        per_rank.iter().map(|(_, stats)| (stats.messages_sent, stats.bytes_sent)).collect()
    })
}

/// The event runtime charges an allgather by a closed form; replay the
/// ring literally — each step forwards the frame that arrived the step
/// before, an origin id plus that origin's row — and hold both runtimes
/// to the replay, with rows of 0, 1 and 5 doubles cycling.
#[test]
fn allgather_traffic_equals_a_literal_ring_replay() {
    let row = |rank: usize| vec![rank as f64; [0, 1, 5][rank % 3]];
    for n in [1usize, 2, 3, 7, 64] {
        let replay: Vec<(u64, u64)> = (0..n)
            .map(|me| {
                let (mut carried, mut bytes) = (me, 0);
                for step in 0..n - 1 {
                    bytes += 8 * (1 + row(carried).len() as u64);
                    carried = (me + n - 1 - step) % n;
                }
                (n as u64 - 1, bytes)
            })
            .collect();
        let [v1, v2] = traffic(n, |rank| Op::Allgather { data: row(rank) });
        assert_eq!(v1, replay, "v1 n={n}");
        assert_eq!(v2, replay, "v2 n={n}");
    }
}

/// Rank `me` receives `[sends_0[me], …, sends_{n−1}[me]]` from an
/// all-to-all: with the ragged block lengths of PARATEC's transpose
/// (1–3 doubles), and with rows a third of whose blocks are empty — at
/// n = 1 the lone block itself.
#[test]
fn alltoallv_delivers_column_me_of_the_send_matrix() {
    for (n, shortest) in [1usize, 2, 5, 16].into_iter().flat_map(|n| [(n, 1), (n, 0)]) {
        let block = |src: usize, dst: usize| -> Vec<f64> {
            (0..(src + dst) % 3 + shortest).map(|i| (src * n + dst) as f64 + i as f64 * 0.25).collect()
        };
        let sends = |rank: usize| (0..n).map(|dst| block(rank, dst)).collect::<Blocks>();
        let column = |me: usize| (0..n).map(|src| block(src, me)).collect::<Vec<_>>();
        for (v, report) in on_both(n, |rank| Op::Alltoallv { sends: sends(rank) }).into_iter().enumerate() {
            for (me, replies) in report.into_values().iter().enumerate() {
                let ctx = format!("v{} n={n} shortest={shortest} rank {me}", v + 1);
                match &replies[..] {
                    [Reply::Alltoall(rows)] => {
                        assert_eq!(rows.len(), n, "{ctx}");
                        assert_eq!(rows.iter().map(<[f64]>::to_vec).collect::<Vec<_>>(), column(me), "{ctx}");
                    }
                    other => panic!("{ctx}: {other:?}"),
                }
            }
        }
    }
}
