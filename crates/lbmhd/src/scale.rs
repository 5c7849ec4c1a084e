//! Weak-scaling communication kernel for LBMHD on both mpisim runtimes.
//!
//! The distributed solver ([`crate::parallel`]) exchanges a one-cell
//! ghost ring over a 2D processor grid every step. This module distils
//! that pattern into a self-contained kernel — four ring shifts (east,
//! west, north, south) followed by the diagnostics allreduce — written
//! once, as a [`RankProgram`] continuation, and run on either runtime.
//! The two runs are pinned bit-identical at small P, which licenses the
//! scale harness to use the event runtime at the paper's largest
//! configurations (8192² lattice on P = 8192, weak scaling to 10⁵
//! ranks) where a thread per rank is impossible.

use pvs_mpisim::cart::Cart2d;
use pvs_mpisim::event::{EventSim, Op, RankCtx, RankProgram, Reply, SimStats, Step};
use pvs_mpisim::{run_programs, CommStats};

/// Doubles per boundary strip (SITE_VALUES-sized ghost payload).
pub const STRIP: usize = 24;

const TAG_E: u64 = 0x10;
const TAG_W: u64 = 0x11;
const TAG_N: u64 = 0x12;
const TAG_S: u64 = 0x13;

/// The boundary strip rank `rank` ships in direction `dir` (0..4):
/// deterministic, with a cancellation probe so reduction order shows.
fn strip(rank: usize, dir: usize) -> Vec<f64> {
    (0..STRIP)
        .map(|i| {
            let base = ((rank * 131 + dir * 17 + i) % 997) as f64 * 1e-3;
            if i == 0 {
                base + [1e16, 1.0, -1e16][rank % 3]
            } else {
                base
            }
        })
        .collect()
}

/// Fold a received strip into the running diagnostic (position-weighted
/// so transposed deliveries cannot cancel out).
fn absorb(acc: f64, data: &[f64]) -> f64 {
    data.iter()
        .enumerate()
        .fold(acc, |a, (i, x)| a + x * (i % 7 + 1) as f64)
}

/// One full exchange + diagnostics pass as a continuation: each `resume`
/// turns the reply to the previous phase into the next exchange op. The
/// ring shifts all send the same direction, so each receive is satisfied
/// by the opposite neighbour's send.
pub struct HaloScaleProgram {
    rank: usize,
    cart: Cart2d,
    acc: f64,
    phase: u8,
}

impl HaloScaleProgram {
    /// The kernel for one rank of `cart`.
    pub fn new(rank: usize, cart: Cart2d) -> Self {
        HaloScaleProgram {
            rank,
            cart,
            acc: 0.0,
            phase: 0,
        }
    }
}

impl RankProgram for HaloScaleProgram {
    type Output = Vec<f64>;

    fn resume(&mut self, _ctx: &RankCtx, reply: Reply) -> Step<Vec<f64>> {
        let [e, w, n, s] = self.cart.neighbors4(self.rank);
        if let Reply::Received(Ok(data)) = &reply {
            self.acc = absorb(self.acc, data);
        }
        let step = self.phase;
        self.phase += 1;
        match step {
            0 => Step::Op(Op::Send {
                dst: e,
                tag: TAG_E,
                data: strip(self.rank, 0),
            }),
            1 => Step::Op(Op::Recv { src: w, tag: TAG_E }),
            2 => Step::Op(Op::Send {
                dst: w,
                tag: TAG_W,
                data: strip(self.rank, 1),
            }),
            3 => Step::Op(Op::Recv { src: e, tag: TAG_W }),
            4 => Step::Op(Op::Send {
                dst: n,
                tag: TAG_N,
                data: strip(self.rank, 2),
            }),
            5 => Step::Op(Op::Recv { src: s, tag: TAG_N }),
            6 => Step::Op(Op::Send {
                dst: s,
                tag: TAG_S,
                data: strip(self.rank, 3),
            }),
            7 => Step::Op(Op::Recv { src: n, tag: TAG_S }),
            8 => Step::Op(Op::AllreduceSum {
                data: vec![self.acc, self.rank as f64 + 0.25],
            }),
            _ => match reply {
                Reply::Reduced(Ok(v)) => Step::Finish(v),
                other => panic!("unexpected reply in halo kernel: {other:?}"),
            },
        }
    }
}

/// The kernel's programs over `cart`: what both runtimes run.
fn make(cart: Cart2d) -> impl Fn(usize, usize) -> HaloScaleProgram + Sync {
    move |rank, _| HaloScaleProgram::new(rank, cart)
}

/// Run the kernel on the thread-backed runtime (one OS thread per rank).
pub fn run_scale_v1(p: usize) -> Vec<(Vec<f64>, CommStats)> {
    let cart = Cart2d::near_square(p);
    run_programs(cart.size(), None, make(cart)).into_values_and_stats()
}

/// Run the kernel on the event-driven runtime. `_threads` is unused:
/// `benchmark/` links this signature.
pub fn run_scale_v2(p: usize, _threads: usize) -> (Vec<(Vec<f64>, CommStats)>, SimStats) {
    let cart = Cart2d::near_square(p);
    let report = EventSim::new(cart.size()).run(make(cart));
    let sim = report.sim;
    (report.into_values_and_stats(), sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvs_mpisim::first_divergence;

    #[test]
    fn v2_halo_kernel_matches_v1_bitwise() {
        for p in [1usize, 2, 4, 16] {
            let v1 = run_scale_v1(p);
            let (v2, sim) = run_scale_v2(p, 2);
            assert_eq!(sim.ranks as usize, v1.len());
            assert_eq!(first_divergence(&v1, &v2), None);
        }
    }

    #[test]
    fn diagnostic_is_identical_on_every_rank() {
        let (v2, _) = run_scale_v2(8, 2);
        let first = &v2[0].0;
        for (rank, (v, _)) in v2.iter().enumerate() {
            assert_eq!(
                first.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "rank {rank}"
            );
        }
    }
}
