//! The particle shift: migrating particles that crossed a subdomain
//! boundary to the owning rank.
//!
//! GTC decomposes its domain one-dimensionally (here: slabs in y, the
//! paper's ~64-subdomain toroidal decomposition). After each push, `shift`
//! scans the particle list for emigrants. The scan's control flow is the
//! §6.1 story: the original *nested-if* form defeated the X1's vectorizer
//! (54% of runtime); rewriting it as two successive independent condition
//! blocks let the compiler stream and vectorize it (4%). Both forms are
//! implemented and must classify identically. The emigrants travel
//! through the stencil exchange every solver shares.

use crate::particles::Particles;
use pvs_mpisim::{Exchange, Halo};

/// Ownership classification of one particle relative to this rank's slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Destination {
    /// Stays on this rank.
    Stay,
    /// Must move to the left (lower-y) neighbour.
    Left,
    /// Must move to the right (higher-y) neighbour.
    Right,
}

/// Nested-`if` classification (the form that serializes on the X1):
/// exactly one branch chain per particle.
pub fn classify_nested(y: f64, y_lo: f64, y_hi: f64, ny: f64) -> Destination {
    // Handle the periodic seam: a slab may wrap (y_lo > y_hi never happens
    // here because slabs partition [0, ny), but emigrants may wrap).
    if y < y_lo {
        if y_lo - y <= ny / 2.0 {
            Destination::Left
        } else {
            Destination::Right // wrapped around the bottom
        }
    } else if y >= y_hi {
        if y - y_hi < ny / 2.0 {
            Destination::Right
        } else {
            Destination::Left // wrapped around the top
        }
    } else {
        Destination::Stay
    }
}

/// Split-condition classification (the vectorizable rewrite): two
/// independent, branch-free condition evaluations combined arithmetically.
pub fn classify_split(y: f64, y_lo: f64, y_hi: f64, ny: f64) -> Destination {
    // Signed periodic distance from the slab: negative = below, positive
    // = above, computed without nested control flow.
    let below = (y < y_lo) as i32;
    let above = (y >= y_hi) as i32;
    let wrap_below = (below == 1 && y_lo - y > ny / 2.0) as i32;
    let wrap_above = (above == 1 && y - y_hi >= ny / 2.0) as i32;
    let code = below * (1 - 2 * wrap_below) - above * (1 - 2 * wrap_above);
    match code {
        0 => Destination::Stay,
        c if c > 0 => Destination::Left,
        _ => Destination::Right,
    }
}

/// Move every particle outside rank `rank`'s slab of a 1D periodic slab
/// decomposition in y over `size` ranks, each owning
/// `[rank·ny/size, (rank+1)·ny/size)`, into `outbox`: side 0 for the
/// right neighbour, side 1 for the left, `(x, y, rho, w)` each.
pub fn shift_particles(
    p: &mut Particles,
    outbox: &mut [Vec<f64>; 2],
    rank: usize,
    size: usize,
    ny: usize,
) {
    let slab = ny as f64 / size as f64;
    let y_lo = rank as f64 * slab;
    let y_hi = (rank + 1) as f64 * slab;
    let mut i = 0;
    while i < p.len() {
        match classify_split(p.y[i], y_lo, y_hi, ny as f64) {
            Destination::Stay => i += 1,
            dest => {
                let (x, y, rho, w) = p.swap_remove(i);
                let side = usize::from(dest == Destination::Left);
                outbox[side].extend_from_slice(&[x, y, rho, w]);
            }
        }
    }
}

/// A rank's particles and its outbox, as the shift's stencil exchange
/// sees them: side 0 ships the right-bound emigrants, side 1 the
/// left-bound, and immigrants join the particles.
pub(crate) struct Migrants<'a>(pub &'a mut Particles, pub &'a mut [Vec<f64>; 2]);

impl Halo for Migrants<'_> {
    fn pack(&mut self, side: usize) -> Vec<f64> {
        std::mem::take(&mut self.1[side])
    }

    fn unpack(&mut self, _side: usize, data: &[f64]) {
        for c in data.chunks_exact(4) {
            self.0.push(c[0], c[1], c[2], c[3]);
        }
    }
}

/// The shift's exchange for rank `rank` of `size`: over `[right, left]`,
/// each the other's opposite, so what the right neighbour sent left
/// arrives before what the left one sent right. On one rank both sides
/// loop back.
pub(crate) fn shift_exchange(rank: usize, size: usize) -> Exchange<2> {
    let sides = [(rank + 1) % size, (rank + size - 1) % size];
    Exchange::new(rank, sides, [1, 0], 0x5F1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvs_mpisim::event::{RankCtx, RankProgram, Reply, Step};
    use pvs_mpisim::run_both;

    #[test]
    fn classifications_agree() {
        let ny = 64.0;
        for (y_lo, y_hi) in [(0.0, 16.0), (16.0, 32.0), (48.0, 64.0)] {
            for y in [0.0, 5.0, 15.99, 16.0, 31.9, 40.0, 63.9, 0.01] {
                assert_eq!(
                    classify_nested(y, y_lo, y_hi, ny),
                    classify_split(y, y_lo, y_hi, ny),
                    "y={y} slab=({y_lo},{y_hi})"
                );
            }
        }
    }

    #[test]
    fn interior_particles_stay() {
        assert_eq!(classify_nested(10.0, 8.0, 16.0, 64.0), Destination::Stay);
        assert_eq!(classify_split(10.0, 8.0, 16.0, 64.0), Destination::Stay);
    }

    #[test]
    fn wraparound_goes_the_short_way() {
        // Rank owning [0, 16) sees a particle at y=63.5: that is one step
        // below 0 across the seam - it belongs to the left neighbour.
        assert_eq!(classify_nested(63.5, 0.0, 16.0, 64.0), Destination::Left);
        assert_eq!(classify_split(63.5, 0.0, 16.0, 64.0), Destination::Left);
    }

    /// `rounds` shifts of a uniformly loaded population on every rank.
    struct Rounds {
        particles: Particles,
        outbox: [Vec<f64>; 2],
        exchange: Exchange<2>,
        ny: usize,
        rounds: usize,
    }

    impl RankProgram for Rounds {
        type Output = Particles;

        fn resume(&mut self, ctx: &RankCtx, reply: Reply) -> Step<Particles> {
            let mut op = match reply {
                Reply::Start => None,
                reply => self
                    .exchange
                    .resume(reply, &mut Migrants(&mut self.particles, &mut self.outbox)),
            };
            while op.is_none() && self.rounds > 0 {
                self.rounds -= 1;
                let p = &mut self.particles;
                shift_particles(p, &mut self.outbox, ctx.rank, ctx.size, self.ny);
                op = self.exchange.begin(&mut Migrants(p, &mut self.outbox));
            }
            match op {
                Some(op) => Step::Op(op),
                None => Step::Finish(std::mem::take(&mut self.particles)),
            }
        }
    }

    /// Shift `rounds` times over `size` ranks on both runtimes, which must
    /// agree bit for bit: each rank's particles before and after.
    fn shift_rounds(size: usize, ny: usize, rounds: usize) -> Vec<(Particles, Particles)> {
        let load = |rank: usize| Particles::load_uniform(100, 32, ny, 1.0, rank as u64);
        let make = |rank, size| Rounds {
            particles: load(rank),
            outbox: Default::default(),
            exchange: shift_exchange(rank, size),
            ny,
            rounds,
        };
        let bits = |p: &Particles| [&p.x[..], &p.y[..], &p.rho[..], &p.w[..]].concat();
        let [v1, _] = run_both(size, make, bits);
        v1.into_iter()
            .enumerate()
            .map(|(rank, (after, _))| (load(rank), after))
            .collect()
    }

    #[test]
    fn shift_conserves_particles_and_charge() {
        let ny = 32;
        // Every rank starts with particles scattered over the whole
        // domain (deliberately misplaced); one round moves each at most
        // one slab, so after five every particle is home.
        let total = |ranks: &[(Particles, Particles)], after: bool| -> f64 {
            ranks
                .iter()
                .map(|(b, a)| if after { a } else { b }.total_charge())
                .sum()
        };
        let once = shift_rounds(4, ny, 1);
        assert!(
            (total(&once, false) - total(&once, true)).abs() < 1e-9,
            "charge conserved"
        );
        let settled = shift_rounds(4, ny, 5);
        for (rank, (_, p)) in settled.iter().enumerate() {
            let slab = ny as f64 / 4.0;
            let (y_lo, y_hi) = (rank as f64 * slab, (rank + 1) as f64 * slab);
            assert!(
                p.y.iter().all(|&y| y >= y_lo && y < y_hi),
                "rank {rank} homed"
            );
        }
    }

    #[test]
    fn single_rank_shift_is_noop() {
        let [(before, after)] = &shift_rounds(1, 16, 1)[..] else {
            unreachable!("one rank")
        };
        assert_eq!(before.len(), after.len());
    }

    #[test]
    fn forms_agree_everywhere() {
        // Former proptest property: dense deterministic sweep of the
        // domain (quarter-cell steps) plus the exact slab seams, for
        // every slab.
        for slab_idx in 0usize..4 {
            let y_lo = slab_idx as f64 * 16.0;
            let y_hi = y_lo + 16.0;
            let mut ys: Vec<f64> = (0..256).map(|i| i as f64 * 0.25).collect();
            ys.extend([y_lo, y_hi - 1e-9, y_hi, 63.999_999, 0.0]);
            for y in ys {
                assert_eq!(
                    classify_nested(y, y_lo, y_hi, 64.0),
                    classify_split(y, y_lo, y_hi, 64.0),
                    "y={y} slab={slab_idx}"
                );
            }
        }
    }
}
