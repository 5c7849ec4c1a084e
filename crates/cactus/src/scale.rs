//! Weak-scaling communication kernel for Cactus on both mpisim runtimes.
//!
//! Cactus exchanges six ghost faces over a 3D processor grid each
//! evolution step ([`crate::halo`]) and closes the step with a global
//! constraint-norm reduction. The schedule is fixed — no op depends on
//! received data — so the kernel is a [`ScriptProgram`]: one op list,
//! run on either runtime. Received faces and the reduced norm are folded
//! into a checksum once, from the replies.

use pvs_mpisim::cart::Cart3d;
use pvs_mpisim::event::{EventSim, Op, Reply, ScriptProgram, SimReport, SimStats};
use pvs_mpisim::{run_programs, CommStats};

/// Doubles per ghost face.
pub const FACE: usize = 16;

const TAG_FACE_BASE: u64 = 0x20;

/// The face rank `rank` ships in direction `dir` (0..6).
fn face(rank: usize, dir: usize) -> Vec<f64> {
    (0..FACE)
        .map(|i| {
            let base = ((rank * 167 + dir * 29 + i) % 1009) as f64 * 1e-3;
            if i == 0 {
                base + [1e16, 1.0, -1e16][rank % 3]
            } else {
                base
            }
        })
        .collect()
}

/// Local contribution to the constraint norm (data-independent).
fn residual(rank: usize) -> f64 {
    (rank % 5) as f64 * 0.125 + 1.0
}

/// Fold each rank's replies — six received faces, then the reduced
/// norm — into the kernel's output vector `[checksum, norm]`.
fn fold_output(report: SimReport<Vec<Reply>>) -> Vec<(Vec<f64>, CommStats)> {
    let fold = |(replies, stats): (Vec<Reply>, CommStats)| {
        let (mut checksum, mut norm) = (0.0, f64::NAN);
        for reply in replies {
            match reply {
                Reply::Sent(Ok(())) => {}
                Reply::Received(Ok(face)) => {
                    checksum = face
                        .iter()
                        .enumerate()
                        .fold(checksum, |a, (i, x)| a + x * (i % 5 + 1) as f64);
                }
                Reply::MaxReduced(Ok(m)) => norm = m,
                other => unreachable!("not in the Cactus schedule: {other:?}"),
            }
        }
        (vec![checksum, norm], stats)
    };
    report.into_values_and_stats().into_iter().map(fold).collect()
}

/// The fixed op schedule for one rank: for each axis, a ring shift in
/// the plus direction then the minus direction, then the norm reduce.
fn schedule(rank: usize, cart: &Cart3d) -> Vec<Op> {
    let nbrs = cart.neighbors6(rank); // [+x, -x, +y, -y, +z, -z]
    let mut ops = Vec::with_capacity(13);
    for axis in 0..3 {
        let plus = nbrs[2 * axis];
        let minus = nbrs[2 * axis + 1];
        let tag_p = TAG_FACE_BASE + 2 * axis as u64;
        let tag_m = TAG_FACE_BASE + 2 * axis as u64 + 1;
        // Shift in +axis: send to plus, receive from minus.
        ops.push(Op::Send {
            dst: plus,
            tag: tag_p,
            data: face(rank, 2 * axis),
        });
        ops.push(Op::Recv {
            src: minus,
            tag: tag_p,
        });
        // Shift in -axis.
        ops.push(Op::Send {
            dst: minus,
            tag: tag_m,
            data: face(rank, 2 * axis + 1),
        });
        ops.push(Op::Recv { src: plus, tag: tag_m });
    }
    ops.push(Op::AllreduceMaxScalar { x: residual(rank) });
    ops
}

/// The kernel's programs over `cart`: what both runtimes run.
fn make(cart: Cart3d) -> impl Fn(usize, usize) -> ScriptProgram + Sync {
    move |rank, _| ScriptProgram::new(schedule(rank, &cart))
}

/// Run the kernel on the thread-backed runtime.
pub fn run_scale_v1(p: usize) -> Vec<(Vec<f64>, CommStats)> {
    let cart = Cart3d::near_cubic(p);
    fold_output(run_programs(cart.size(), None, make(cart)))
}

/// Run the kernel on the event-driven runtime. `_threads` is unused:
/// `benchmark/` links this signature.
pub fn run_scale_v2(p: usize, _threads: usize) -> (Vec<(Vec<f64>, CommStats)>, SimStats) {
    let cart = Cart3d::near_cubic(p);
    let report = EventSim::new(cart.size()).run(make(cart));
    let sim = report.sim;
    (fold_output(report), sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvs_mpisim::first_divergence;

    #[test]
    fn v2_face_exchange_matches_v1_bitwise() {
        for p in [1usize, 2, 4, 16] {
            let v1 = run_scale_v1(p);
            let (v2, sim) = run_scale_v2(p, 2);
            assert_eq!(sim.ranks as usize, v1.len());
            assert_eq!(first_divergence(&v1, &v2), None);
        }
    }

    #[test]
    fn norm_is_global_max_of_residuals() {
        let (v2, _) = run_scale_v2(8, 2);
        let expected = (0..v2.len()).map(residual).fold(f64::MIN, f64::max);
        for (v, _) in &v2 {
            assert_eq!(v[1], expected);
        }
    }
}
