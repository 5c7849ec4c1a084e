//! Weak-scaling communication kernel for PARATEC on both mpisim runtimes.
//!
//! PARATEC's 3D FFTs transpose the wavefunction grid between
//! G-space slabs and real-space planes: every rank exchanges a distinct
//! block with every other rank (§5 of the paper — the all-to-all is
//! what makes PARATEC the most communication-bound of the four codes).
//! The kernel is one personalized all-to-all followed by an allgather
//! of per-rank norms and the energy allreduce — the fixed schedule is a
//! [`ScriptProgram`], identical to the v1 closure's op sequence.

use pvs_mpisim::event::{EventSim, Op, Reply, ScriptProgram, SimStats};
use pvs_mpisim::CommStats;

/// The block rank `rank` ships to rank `dst` in the transpose
/// (variable-length, as slab decompositions are never perfectly even).
fn block(rank: usize, dst: usize, size: usize) -> Vec<f64> {
    let len = (rank + dst) % 3 + 1;
    (0..len)
        .map(|i| {
            let base = ((rank * size + dst) * 31 + i * 7) as f64 * 1e-3;
            if i == 0 {
                base + [1e16, 1.0, -1e16][(rank + dst) % 3]
            } else {
                base
            }
        })
        .collect()
}

/// Per-rank wavefunction norm contribution (data-independent).
fn norm_contrib(rank: usize) -> f64 {
    1.0 + (rank % 7) as f64 * 0.375
}

/// Fold transpose rows, gathered norms, and the reduced energy into the
/// kernel output `[row_checksum, norm_checksum, energy]`.
fn fold_output(rows: &[Vec<f64>], norms: &[Vec<f64>], energy: &[f64]) -> Vec<f64> {
    let row_sum = rows.iter().fold(0.0, |acc, r| {
        r.iter()
            .enumerate()
            .fold(acc, |a, (i, x)| a + x * (i % 3 + 1) as f64)
    });
    let norm_sum = norms
        .iter()
        .fold(0.0, |acc, n| n.iter().fold(acc, |a, x| a + x));
    let mut out = vec![row_sum, norm_sum];
    out.extend_from_slice(energy);
    out
}

fn schedule(rank: usize, size: usize) -> Vec<Op> {
    vec![
        Op::Alltoallv {
            sends: (0..size).map(|d| block(rank, d, size)).collect(),
        },
        Op::Allgather {
            data: vec![norm_contrib(rank)],
        },
        Op::AllreduceSum {
            data: vec![norm_contrib(rank) * 0.5, rank as f64],
        },
    ]
}

/// Run the kernel on the thread-backed runtime.
pub fn run_scale_v1(p: usize) -> Vec<(Vec<f64>, CommStats)> {
    pvs_mpisim::run(p, |mut comm| {
        let rank = comm.rank();
        let size = comm.size();
        let rows = comm.alltoallv((0..size).map(|d| block(rank, d, size)).collect());
        let norms = comm.allgather(&[norm_contrib(rank)]);
        let energy = comm.allreduce_sum(&[norm_contrib(rank) * 0.5, rank as f64]);
        (fold_output(&rows, &norms, &energy), comm.stats())
    })
}

/// Run the kernel on the event-driven runtime.
pub fn run_scale_v2(p: usize, threads: usize) -> (Vec<(Vec<f64>, CommStats)>, SimStats) {
    let report = EventSim::new(p)
        .threads(threads)
        .run(|rank, size| ScriptProgram::new(schedule(rank, size)));
    let sim = report.sim;
    let per_rank = report
        .into_values_and_stats()
        .into_iter()
        .map(|(replies, stats)| {
            let (mut rows, mut norms, mut energy) = (Vec::new(), None, Vec::new());
            for reply in replies {
                match reply {
                    Reply::Alltoall(r) => rows = r,
                    Reply::Gathered(n) => norms = Some(n),
                    Reply::Reduced(Ok(e)) => energy = e,
                    other => unreachable!("not in the PARATEC schedule: {other:?}"),
                }
            }
            (fold_output(&rows, norms.as_deref().unwrap_or(&[]), &energy), stats)
        })
        .collect();
    (per_rank, sim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v2_transpose_kernel_matches_v1_bitwise() {
        for p in [1usize, 2, 4, 16] {
            let v1 = run_scale_v1(p);
            let (v2, sim) = run_scale_v2(p, 2);
            assert_eq!(sim.ranks as usize, p);
            for (rank, ((a, sa), (b, sb))) in v1.iter().zip(&v2).enumerate() {
                assert_eq!(
                    a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "p={p} rank={rank}"
                );
                assert_eq!(sa, sb, "traffic p={p} rank={rank}");
            }
        }
    }

    #[test]
    fn energy_is_identical_on_every_rank() {
        let (v2, _) = run_scale_v2(8, 2);
        let first = &v2[0].0;
        // row checksums differ per rank (each keeps its own slab), but
        // the gathered-norm sum and reduced energy are global.
        for (v, _) in &v2 {
            assert_eq!(v[1].to_bits(), first[1].to_bits());
            assert_eq!(v[2].to_bits(), first[2].to_bits());
            assert_eq!(v[3].to_bits(), first[3].to_bits());
        }
    }
}
