//! Weak-scaling communication kernel for Cactus on both mpisim runtimes.
//!
//! Cactus exchanges six ghost faces over a 3D processor grid each
//! evolution step ([`crate::halo`]) and closes the step with a global
//! constraint-norm reduction. The kernel is written once, as a
//! [`RankProgram`] continuation like LBMHD's, and run on either runtime:
//! each received face is folded into the checksum as it arrives, and the
//! face buffer that arrived carries the next face out.

use pvs_core::schedule::Cart3d;
use pvs_mpisim::event::{EventSim, Op, RankCtx, RankProgram, Reply, SimStats, Step};
use pvs_mpisim::{run_programs, CommStats};

/// Doubles per ghost face.
pub const FACE: usize = 16;

const TAG_FACE_BASE: u64 = 0x20;

/// The face formula's residue modulus.
const RESIDUE: usize = 1009;

/// `k × 10⁻³` for every residue k, then the first `FACE − 1` again, so
/// the face starting at any residue is one contiguous window.
const RESIDUES: [f64; RESIDUE + FACE - 1] = {
    let mut table = [0.0; RESIDUE + FACE - 1];
    let mut k = 0;
    while k < table.len() {
        table[k] = (k % RESIDUE) as f64 * 1e-3;
        k += 1;
    }
    table
};

/// `absorb`'s position weights, `i % 5 + 1`.
const WEIGHTS: [f64; FACE] = {
    let mut weights = [0.0; FACE];
    let mut i = 0;
    while i < FACE {
        weights[i] = (i % 5 + 1) as f64;
        i += 1;
    }
    weights
};

/// The face rank `rank` ships in direction `dir` (0..6), written over
/// `buf`: value `i` is residue `(167 rank + 29 dir + i) mod 1009` ×
/// 10⁻³, plus a cancellation probe on value 0.
fn face(rank: usize, dir: usize, mut buf: Vec<f64>) -> Vec<f64> {
    let start = (rank * 167 + dir * 29) % RESIDUE;
    buf.clear();
    buf.extend_from_slice(&RESIDUES[start..start + FACE]);
    buf[0] += [1e16, 1.0, -1e16][rank % 3];
    buf
}

/// Fold a received face into the running checksum (position-weighted
/// so transposed deliveries cannot cancel out).
fn absorb(acc: f64, data: &[f64]) -> f64 {
    debug_assert_eq!(data.len(), FACE, "a ghost face");
    data.iter().zip(&WEIGHTS).fold(acc, |a, (x, w)| a + x * w)
}

/// Local contribution to the constraint norm (data-independent).
fn residual(rank: usize) -> f64 {
    (rank % 5) as f64 * 0.125 + 1.0
}

/// One face exchange + norm reduction as a continuation. For each axis
/// it ring-shifts in the plus direction, then the minus direction: face
/// `k` goes to neighbour `k` of `[+x, -x, +y, -y, +z, -z]` under tag
/// `TAG_FACE_BASE + k` and arrives from the opposite side, neighbour
/// `k ^ 1`. The run ends with `[checksum, norm]`.
pub struct FaceScaleProgram {
    rank: usize,
    /// `[+x, -x, +y, -y, +z, -z]`, computed once: every resume reads them.
    neighbours: [usize; 6],
    checksum: f64,
    step: u8,
}

impl FaceScaleProgram {
    /// The kernel for one rank of `cart`.
    pub fn new(rank: usize, cart: Cart3d) -> Self {
        FaceScaleProgram {
            rank,
            neighbours: cart.neighbors6(rank),
            checksum: 0.0,
            step: 0,
        }
    }
}

impl RankProgram for FaceScaleProgram {
    type Output = Vec<f64>;

    fn resume(&mut self, _ctx: &RankCtx, reply: Reply) -> Step<Vec<f64>> {
        let step = self.step;
        self.step += 1;
        // Step 2k asks for face k's send, after a start or a receive, and
        // step 2k + 1 its receive, after the send; step 12 folds the last
        // face and enters the norm reduction. Any other reply is a broken
        // run, not an empty face.
        let buf = match (step, reply) {
            (0, Reply::Start) | (1 | 3 | 5 | 7 | 9 | 11, Reply::Sent) => Vec::new(),
            (2 | 4 | 6 | 8 | 10 | 12, Reply::Received(data)) => {
                self.checksum = absorb(self.checksum, &data);
                data
            }
            (13, Reply::MaxReduced(norm)) => return Step::Finish(vec![self.checksum, norm]),
            (_, other) => {
                panic!("unexpected reply in Cactus face kernel at step {step}: {other:?}")
            }
        };
        let k = usize::from(step / 2);
        let tag = TAG_FACE_BASE + k as u64;
        Step::Op(match step {
            12 => Op::AllreduceMaxScalar {
                x: residual(self.rank),
            },
            _ if step.is_multiple_of(2) => Op::Send {
                dst: self.neighbours[k],
                tag,
                data: face(self.rank, k, buf),
            },
            _ => Op::Recv {
                src: self.neighbours[k ^ 1],
                tag,
            },
        })
    }
}

/// The kernel's programs over `cart`: what both runtimes run.
fn make(cart: Cart3d) -> impl Fn(usize, usize) -> FaceScaleProgram + Sync {
    move |rank, _| FaceScaleProgram::new(rank, cart)
}

/// Run the kernel on the thread-backed runtime.
pub fn run_scale_v1(p: usize) -> Vec<(Vec<f64>, CommStats)> {
    let cart = Cart3d::near_cubic(p);
    run_programs(cart.size(), make(cart)).ranks
}

/// Run the kernel on the event-driven runtime. `_threads` is unused:
/// `benchmark/` links this signature.
pub fn run_scale_v2(p: usize, _threads: usize) -> (Vec<(Vec<f64>, CommStats)>, SimStats) {
    let cart = Cart3d::near_cubic(p);
    let report = EventSim::new(cart.size()).run(make(cart));
    (report.ranks, report.sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvs_mpisim::first_divergence;

    fn ctx() -> RankCtx {
        RankCtx {
            rank: 0,
            size: 8,
            comm: CommStats::default(),
        }
    }

    /// The face as a closed formula, value by value.
    fn closed_face(rank: usize, dir: usize) -> Vec<f64> {
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

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn faces_equal_the_closed_formula_bit_for_bit() {
        // 1009 is prime and coprime to 167 and 3, so ranks 0..3·1009
        // start a face at every residue with every probe, in every
        // direction.
        for rank in 0..3 * RESIDUE {
            for dir in 0..6 {
                let got = face(rank, dir, vec![7.0; 3]);
                assert_eq!(
                    bits(&got),
                    bits(&closed_face(rank, dir)),
                    "rank {rank} dir {dir}"
                );
            }
        }
    }

    #[test]
    fn absorb_equals_the_enumerated_fold_bit_for_bit() {
        let enumerated = |acc: f64, data: &[f64]| {
            data.iter()
                .enumerate()
                .fold(acc, |a, (i, x)| a + x * (i % 5 + 1) as f64)
        };
        for rank in 0..3 * RESIDUE {
            let data = closed_face(rank, rank % 6);
            let acc = [0.0, 1e16, -0.1][rank % 3] + rank as f64 * 1e-7;
            assert_eq!(
                absorb(acc, &data).to_bits(),
                enumerated(acc, &data).to_bits(),
                "rank {rank}"
            );
        }
    }

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

    #[test]
    #[should_panic(expected = "unexpected reply in Cactus face kernel at step 2: Sent")]
    fn a_send_completion_is_not_an_empty_face() {
        let ctx = ctx();
        let mut program = FaceScaleProgram::new(0, Cart3d::near_cubic(8));
        program.resume(&ctx, Reply::Start);
        program.resume(&ctx, Reply::Sent);
        program.resume(&ctx, Reply::Sent);
    }

    #[test]
    #[should_panic(expected = "unexpected reply in Cactus face kernel at step 13: Reduced(")]
    fn a_sum_reply_is_not_the_max_norm() {
        let ctx = ctx();
        let mut program = FaceScaleProgram::new(0, Cart3d::near_cubic(8));
        program.resume(&ctx, Reply::Start);
        for _ in 0..6 {
            program.resume(&ctx, Reply::Sent);
            program.resume(&ctx, Reply::Received(vec![0.0; FACE]));
        }
        program.resume(&ctx, Reply::Reduced(vec![1.0]));
    }
}
