//! Weak-scaling communication kernel for PARATEC on both mpisim runtimes.
//!
//! PARATEC's 3D FFTs transpose the wavefunction grid between
//! G-space slabs and real-space planes: every rank exchanges a distinct
//! block with every other rank (§5 of the paper — the all-to-all is
//! what makes PARATEC the most communication-bound of the four codes).
//! The kernel is one personalized all-to-all followed by an allgather
//! of per-rank norms and the energy allreduce — a fixed schedule, so a
//! [`ScriptProgram`]: one op list, run on either runtime.

use pvs_mpisim::event::{EventSim, Op, Reply, ScriptProgram, SimReport, SimStats};
use pvs_mpisim::{run_programs, CommStats};

/// The block rank `rank` ships to rank `dst` in the transpose
/// (variable-length, as slab decompositions are never perfectly even),
/// as the elements to write into the rank's one send buffer.
fn block(rank: usize, dst: usize, size: usize) -> impl Iterator<Item = f64> {
    let len = (rank + dst) % 3 + 1;
    (0..len).map(move |i| {
        let base = ((rank * size + dst) * 31 + i * 7) as f64 * 1e-3;
        if i == 0 {
            base + [1e16, 1.0, -1e16][(rank + dst) % 3]
        } else {
            base
        }
    })
}

/// Per-rank wavefunction norm contribution (data-independent).
fn norm_contrib(rank: usize) -> f64 {
    1.0 + (rank % 7) as f64 * 0.375
}

/// Fold each rank's replies — transpose rows, gathered norms, reduced
/// energy — into the kernel output `[row_checksum, norm_checksum, energy]`.
fn fold_output(report: SimReport<Vec<Reply>>) -> Vec<(Vec<f64>, CommStats)> {
    let fold = |(replies, stats): (Vec<Reply>, CommStats)| {
        let mut out = vec![0.0, 0.0];
        for reply in replies {
            match reply {
                Reply::Alltoall(rows) => {
                    out[0] = rows.iter().fold(0.0, |acc, r| {
                        r.iter()
                            .enumerate()
                            .fold(acc, |a, (i, x)| a + x * (i % 3 + 1) as f64)
                    });
                }
                Reply::Gathered(norms) => {
                    out[1] = norms
                        .iter()
                        .fold(0.0, |acc, n| n.iter().fold(acc, |a, x| a + x));
                }
                Reply::Reduced(energy) => out.extend(energy),
                other => unreachable!("not in the PARATEC schedule: {other:?}"),
            }
        }
        (out, stats)
    };
    report.ranks.into_iter().map(fold).collect()
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

/// The kernel's programs: what both runtimes run.
fn make(rank: usize, size: usize) -> ScriptProgram {
    ScriptProgram::new(schedule(rank, size))
}

/// Run the kernel on the thread-backed runtime.
pub fn run_scale_v1(p: usize) -> Vec<(Vec<f64>, CommStats)> {
    fold_output(run_programs(p, make))
}

/// Run the kernel on the event-driven runtime. `_threads` is unused:
/// `benchmark/` links this signature.
pub fn run_scale_v2(p: usize, _threads: usize) -> (Vec<(Vec<f64>, CommStats)>, SimStats) {
    let report = EventSim::new(p).run(make);
    let sim = report.sim;
    (fold_output(report), sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvs_mpisim::first_divergence;

    #[test]
    fn v2_transpose_kernel_matches_v1_bitwise() {
        for p in [1usize, 2, 4, 16] {
            let v1 = run_scale_v1(p);
            let (v2, sim) = run_scale_v2(p, 2);
            assert_eq!(sim.ranks as usize, p);
            assert_eq!(first_divergence(&v1, &v2), None);
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
