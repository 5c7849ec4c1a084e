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

use pvs_core::schedule::Cart2d;
use pvs_mpisim::event::{EventSim, Op, RankCtx, RankProgram, Reply, SimStats, Step};
use pvs_mpisim::{run_programs, CommStats};

/// Doubles per boundary strip (SITE_VALUES-sized ghost payload).
pub const STRIP: usize = 24;

const TAG_E: u64 = 0x10;
const TAG_W: u64 = 0x11;
const TAG_N: u64 = 0x12;
const TAG_S: u64 = 0x13;

/// The strip formula's residue modulus.
const RESIDUE: usize = 997;

/// `k × 10⁻³` for every residue k, then the first `STRIP − 1` again, so
/// the strip starting at any residue is one contiguous window.
const RESIDUES: [f64; RESIDUE + STRIP - 1] = {
    let mut table = [0.0; RESIDUE + STRIP - 1];
    let mut k = 0;
    while k < table.len() {
        table[k] = (k % RESIDUE) as f64 * 1e-3;
        k += 1;
    }
    table
};

/// `absorb`'s position weights, `i % 7 + 1`.
const WEIGHTS: [f64; STRIP] = {
    let mut weights = [0.0; STRIP];
    let mut i = 0;
    while i < STRIP {
        weights[i] = (i % 7 + 1) as f64;
        i += 1;
    }
    weights
};

/// The boundary strip rank `rank` ships in direction `dir` (0..4),
/// written over `buf`: value `i` is residue `(131 rank + 17 dir + i) mod
/// 997` × 10⁻³, plus a cancellation probe on value 0 so reduction order
/// shows.
fn strip(rank: usize, dir: usize, mut buf: Vec<f64>) -> Vec<f64> {
    let start = (rank * 131 + dir * 17) % RESIDUE;
    buf.clear();
    buf.extend_from_slice(&RESIDUES[start..start + STRIP]);
    buf[0] += [1e16, 1.0, -1e16][rank % 3];
    buf
}

/// Fold a received strip into the running diagnostic (position-weighted
/// so transposed deliveries cannot cancel out).
fn absorb(acc: f64, data: &[f64]) -> f64 {
    debug_assert_eq!(data.len(), STRIP, "a halo strip");
    data.iter().zip(&WEIGHTS).fold(acc, |a, (x, w)| a + x * w)
}

/// One full exchange + diagnostics pass as a continuation: each `resume`
/// turns the reply to the previous phase into the next exchange op. The
/// ring shifts all send the same direction, so each receive is satisfied
/// by the opposite neighbour's send, and each send after the first ships
/// its strip in the buffer the receive before it delivered.
pub struct HaloScaleProgram {
    rank: usize,
    /// `[E, W, N, S]`, computed once: every resume reads them.
    neighbours: [usize; 4],
    acc: f64,
    phase: u8,
}

impl HaloScaleProgram {
    /// The kernel for one rank of `cart`.
    pub fn new(rank: usize, cart: Cart2d) -> Self {
        let [e, w, n, s, ..] = cart.neighbors8(rank);
        HaloScaleProgram {
            rank,
            neighbours: [e, w, n, s],
            acc: 0.0,
            phase: 0,
        }
    }
}

impl RankProgram for HaloScaleProgram {
    type Output = Vec<f64>;

    fn resume(&mut self, _ctx: &RankCtx, reply: Reply) -> Step<Vec<f64>> {
        let [e, w, n, s] = self.neighbours;
        let step = self.phase;
        self.phase += 1;
        // Sends (even steps) follow a start or a receive, receives (odd
        // steps) follow a send; anything else is a broken run, not an
        // empty strip.
        let buf = match (step, reply) {
            (0, Reply::Start) | (1 | 3 | 5 | 7, Reply::Sent) => Vec::new(),
            (2 | 4 | 6 | 8, Reply::Received(data)) => {
                self.acc = absorb(self.acc, &data);
                data
            }
            (9, Reply::Reduced(v)) => return Step::Finish(v),
            (_, other) => panic!("unexpected reply in halo kernel at step {step}: {other:?}"),
        };
        Step::Op(match step {
            0 => Op::Send {
                dst: e,
                tag: TAG_E,
                data: strip(self.rank, 0, buf),
            },
            1 => Op::Recv { src: w, tag: TAG_E },
            2 => Op::Send {
                dst: w,
                tag: TAG_W,
                data: strip(self.rank, 1, buf),
            },
            3 => Op::Recv { src: e, tag: TAG_W },
            4 => Op::Send {
                dst: n,
                tag: TAG_N,
                data: strip(self.rank, 2, buf),
            },
            5 => Op::Recv { src: s, tag: TAG_N },
            6 => Op::Send {
                dst: s,
                tag: TAG_S,
                data: strip(self.rank, 3, buf),
            },
            7 => Op::Recv { src: n, tag: TAG_S },
            _ => Op::AllreduceSum {
                data: vec![self.acc, self.rank as f64 + 0.25],
            },
        })
    }
}

/// The kernel's programs over `cart`: what both runtimes run.
fn make(cart: Cart2d) -> impl Fn(usize, usize) -> HaloScaleProgram + Sync {
    move |rank, _| HaloScaleProgram::new(rank, cart)
}

/// Run the kernel on the thread-backed runtime (one OS thread per rank).
pub fn run_scale_v1(p: usize) -> Vec<(Vec<f64>, CommStats)> {
    let cart = Cart2d::near_square(p);
    run_programs(cart.size(), make(cart)).ranks
}

/// Run the kernel on the event-driven runtime. `_threads` is unused:
/// `benchmark/` links this signature.
pub fn run_scale_v2(p: usize, _threads: usize) -> (Vec<(Vec<f64>, CommStats)>, SimStats) {
    let cart = Cart2d::near_square(p);
    let report = EventSim::new(cart.size()).run(make(cart));
    (report.ranks, report.sim)
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
    fn program_is_the_56_bytes_the_runtime_slot_is_sized_for() {
        // pvs-mpisim's `slot_array_stays_under_the_heap_reuse_ceiling`
        // sizes its slot around a 56-byte program.
        assert_eq!(std::mem::size_of::<HaloScaleProgram>(), 56);
    }

    #[test]
    #[should_panic(expected = "unexpected reply in halo kernel at step 2: Sent")]
    fn a_send_completion_is_not_an_empty_strip() {
        let ctx = RankCtx {
            rank: 0,
            size: 4,
            comm: CommStats::default(),
        };
        let mut program = HaloScaleProgram::new(0, Cart2d::near_square(4));
        program.resume(&ctx, Reply::Start);
        program.resume(&ctx, Reply::Sent);
        program.resume(&ctx, Reply::Sent);
    }

    /// The strip as a closed formula, value by value.
    fn closed_strip(rank: usize, dir: usize) -> Vec<f64> {
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

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn strips_equal_the_closed_formula_bit_for_bit() {
        // 997 is prime and coprime to 131 and 3, so ranks 0..3·997 start
        // a strip at every residue with every probe, in every direction.
        for rank in 0..3 * RESIDUE {
            for dir in 0..4 {
                let got = strip(rank, dir, vec![7.0; 3]);
                assert_eq!(
                    bits(&got),
                    bits(&closed_strip(rank, dir)),
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
                .fold(acc, |a, (i, x)| a + x * (i % 7 + 1) as f64)
        };
        for rank in 0..3 * RESIDUE {
            let data = closed_strip(rank, rank % 4);
            let acc = [0.0, 1e16, -0.1][rank % 3] + rank as f64 * 1e-7;
            assert_eq!(
                absorb(acc, &data).to_bits(),
                enumerated(acc, &data).to_bits(),
                "rank {rank}"
            );
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
