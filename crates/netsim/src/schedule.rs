//! Every message schedule, defined once: whom participant `me` of `n`
//! meets in each round, and whom a rank of a periodic process grid
//! ([`Cart2d`], [`Cart3d`]) exchanges halos with. The engine's timing
//! model ([`crate::collectives`]), both rank runtimes of `pvs-mpisim` and
//! the applications' rank programs (through `pvs_core::schedule`) walk
//! these. [`Round`] and the grid stencils wrap by compare-and-subtract,
//! not `%`, because netsim calls them once per message.

/// One round of a shift schedule over `n` participants: participant `me`
/// sends `dist` places forward and receives from `dist` places behind,
/// and what arrives was contributed `lag` places behind.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Tag sequence number of this round's messages.
    pub seq: u64,
    dist: usize,
    lag: usize,
}

impl Round {
    fn new(seq: u64, dist: usize, lag: usize) -> Self {
        Round { seq, dist, lag }
    }

    /// Whom `me` sends to.
    pub fn to(&self, me: usize, n: usize) -> usize {
        wrap(me + self.dist, n)
    }

    /// Whom `me` receives from.
    pub fn from(&self, me: usize, n: usize) -> usize {
        wrap(me + n - self.dist, n)
    }

    /// Who contributed what `me` receives.
    pub fn origin(&self, me: usize, n: usize) -> usize {
        wrap(me + n - self.lag, n)
    }
}

/// `i mod n` for `i < 2n`.
fn wrap(i: usize, n: usize) -> usize {
    debug_assert!(i < 2 * n, "{i} wraps more than once in {n}");
    if i < n {
        i
    } else {
        i - n
    }
}

/// ⌈log₂ n⌉, the round count of the doubling schedules (0 for n ≤ 1).
fn ceil_log2(n: usize) -> u32 {
    n.next_power_of_two().trailing_zeros()
}

/// Dissemination barrier: ⌈log₂ n⌉ rounds at doubling distance.
pub fn dissemination(n: usize) -> impl ExactSizeIterator<Item = Round> {
    (0..ceil_log2(n)).map(|r| Round::new(r as u64, 1 << r, 1 << r))
}

/// Gather-to-all ring: n−1 steps to the successor; the packet received at
/// step `s` originated `s + 1` places behind, so every contribution can
/// be indexed by its origin and folded in canonical order.
pub fn ring(n: usize) -> impl ExactSizeIterator<Item = Round> {
    (0..n.saturating_sub(1)).map(|s| Round::new(s as u64, 1, s + 1))
}

/// All-to-all rotation: round `r` of `1..n` pairs each participant with
/// the one `r` places away, which avoids head-of-line hotspots.
pub fn rotation(n: usize) -> impl ExactSizeIterator<Item = Round> {
    rotation_sampled(n, n)
}

/// `min(n − 1, k)` of the [`rotation`]'s rounds, evenly strided from
/// round 1: all of them once `k >= n − 1`.
pub fn rotation_sampled(n: usize, k: usize) -> impl ExactSizeIterator<Item = Round> + Clone {
    let (total, take) = (n.saturating_sub(1), k.min(n.saturating_sub(1)));
    let stride = total as f64 / take as f64;
    let rounds = (0..take).map(move |i| 1 + (i as f64 * stride) as usize);
    rounds.map(|r| Round::new(r as u64, r, r))
}

/// Recursive doubling, the butterfly of MPICH's short-message allreduce
/// (Thakur, Rabenseifner & Gropp, IJHPCA 2005) without its fold-in steps
/// for a non-power-of-two `n`: round `r` of ⌈log₂ n⌉ is the partner map
/// `me ↦ me ^ 2^r`, `None` where that is at or beyond `n` (skipped).
pub fn recursive_doubling(
    n: usize,
) -> impl ExactSizeIterator<Item = impl Fn(usize) -> Option<usize>> {
    (0..ceil_log2(n)).map(move |r| move |me: usize| Some(me ^ (1 << r)).filter(|&peer| peer < n))
}

/// `[c + 1, c - 1]` on a ring of `n`: the two neighbours of coordinate
/// `c` along one axis of a periodic grid.
fn steps(c: usize, n: usize) -> [usize; 2] {
    [wrap(c + 1, n), wrap(c + n - 1, n)]
}

/// Every coordinate of a grid of `extent` in rank order, axis 0 fastest,
/// stepped like an odometer: netsim walks a whole grid per halo, and
/// dividing every rank into its coordinates costs about what building
/// its stencil does.
fn walk<const D: usize>(extent: [usize; D]) -> impl Iterator<Item = [usize; D]> {
    let mut at = [0; D];
    (0..extent.iter().product()).map(move |_| {
        let here = at;
        for (c, &n) in at.iter_mut().zip(&extent) {
            *c = if *c + 1 < n { *c + 1 } else { 0 };
            if *c > 0 {
                break;
            }
        }
        here
    })
}

/// A 2D periodic process grid (the `MPI_Cart_create` analogue): LBMHD
/// block-distributes its lattice over one, and GTC's toroidal shift is
/// its one-row case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cart2d {
    /// Extent in x (fastest-varying in rank order).
    pub px: usize,
    /// Extent in y.
    pub py: usize,
}

impl Cart2d {
    /// Side `k` of [`Self::neighbors8`] faces side `OPPOSITE[k]` of the
    /// neighbour it names: E and W, N and S, NE and SW, SE and NW.
    pub const OPPOSITE: [usize; 8] = [1, 0, 3, 2, 7, 6, 5, 4];

    /// Build a grid; `px * py` must equal the communicator size when used
    /// with one.
    pub fn new(px: usize, py: usize) -> Self {
        assert!(px >= 1 && py >= 1);
        Self { px, py }
    }

    /// The most-square decomposition of `p` ranks.
    pub fn near_square(p: usize) -> Self {
        let mut x = (p as f64).sqrt().floor() as usize;
        while x > 1 && !p.is_multiple_of(x) {
            x -= 1;
        }
        Self::new(p / x.max(1), x.max(1))
    }

    /// Total ranks.
    pub fn size(&self) -> usize {
        self.px * self.py
    }

    /// Coordinates of `rank`.
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        assert!(rank < self.size());
        (rank % self.px, rank / self.px)
    }

    /// The eight periodic neighbours of `rank` in the order
    /// `[E, W, N, S, NE, SE, NW, SW]`, where E is +x and N is +y: the
    /// four edges, then the four corners LBMHD's diagonal streaming
    /// reaches. On a one-wide axis a neighbour folds onto the sender or
    /// onto an edge neighbour.
    pub fn neighbors8(&self, rank: usize) -> [usize; 8] {
        let (x, y) = self.coords(rank);
        self.stencil(x, y)
    }

    /// [`Self::neighbors8`] of every rank, in rank order.
    pub fn stencils(&self) -> impl Iterator<Item = [usize; 8]> + '_ {
        walk([self.px, self.py]).map(|[x, y]| self.stencil(x, y))
    }

    fn stencil(&self, x: usize, y: usize) -> [usize; 8] {
        let ([e, w], [n, s]) = (steps(x, self.px), steps(y, self.py));
        let at = |x: usize, y: usize| y * self.px + x;
        [
            at(e, y),
            at(w, y),
            at(x, n),
            at(x, s),
            at(e, n),
            at(e, s),
            at(w, n),
            at(w, s),
        ]
    }
}

/// A 3D periodic process grid (Cactus-style block decomposition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cart3d {
    /// Extent in x.
    pub px: usize,
    /// Extent in y.
    pub py: usize,
    /// Extent in z.
    pub pz: usize,
}

impl Cart3d {
    /// Side `k` of [`Self::neighbors6`] faces side `k ^ 1` of the
    /// neighbour it names: the same axis, the other direction.
    pub const OPPOSITE: [usize; 6] = [1, 0, 3, 2, 5, 4];

    /// Build a grid.
    pub fn new(px: usize, py: usize, pz: usize) -> Self {
        assert!(px >= 1 && py >= 1 && pz >= 1);
        Self { px, py, pz }
    }

    /// A near-cubic decomposition of `p` ranks.
    pub fn near_cubic(p: usize) -> Self {
        let mut best = (p, 1, 1);
        let mut best_score = usize::MAX;
        for a in 1..=p {
            if !p.is_multiple_of(a) {
                continue;
            }
            let rest = p / a;
            for b in 1..=rest {
                if !rest.is_multiple_of(b) {
                    continue;
                }
                let c = rest / b;
                let max = a.max(b).max(c);
                let min = a.min(b).min(c);
                let score = max - min;
                if score < best_score {
                    best_score = score;
                    best = (a, b, c);
                }
            }
        }
        Self::new(best.0, best.1, best.2)
    }

    /// Total ranks.
    pub fn size(&self) -> usize {
        self.px * self.py * self.pz
    }

    /// Coordinates of `rank` (x fastest).
    pub fn coords(&self, rank: usize) -> (usize, usize, usize) {
        assert!(rank < self.size());
        (
            rank % self.px,
            (rank / self.px) % self.py,
            rank / (self.px * self.py),
        )
    }

    /// The six periodic face neighbours `[+x, -x, +y, -y, +z, -z]`.
    pub fn neighbors6(&self, rank: usize) -> [usize; 6] {
        let (x, y, z) = self.coords(rank);
        self.stencil(x, y, z)
    }

    /// [`Self::neighbors6`] of every rank, in rank order.
    pub fn stencils(&self) -> impl Iterator<Item = [usize; 6]> + '_ {
        walk([self.px, self.py, self.pz]).map(|[x, y, z]| self.stencil(x, y, z))
    }

    fn stencil(&self, x: usize, y: usize, z: usize) -> [usize; 6] {
        let ([xp, xm], [yp, ym], [zp, zm]) =
            (steps(x, self.px), steps(y, self.py), steps(z, self.pz));
        let at = |x: usize, y: usize, z: usize| (z * self.py + y) * self.px + x;
        [
            at(xp, y, z),
            at(xm, y, z),
            at(x, yp, z),
            at(x, ym, z),
            at(x, y, zp),
            at(x, y, zm),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `to` of every participant, one row per round.
    fn to_rows(rounds: impl Iterator<Item = Round>, n: usize) -> Vec<Vec<usize>> {
        rounds
            .map(|r| (0..n).map(|me| r.to(me, n)).collect())
            .collect()
    }

    fn from_rows(rounds: impl Iterator<Item = Round>, n: usize) -> Vec<Vec<usize>> {
        rounds
            .map(|r| (0..n).map(|me| r.from(me, n)).collect())
            .collect()
    }

    fn origin_rows(rounds: impl Iterator<Item = Round>, n: usize) -> Vec<Vec<usize>> {
        rounds
            .map(|r| (0..n).map(|me| r.origin(me, n)).collect())
            .collect()
    }

    /// Every table below is worked out by hand from the algorithms'
    /// definitions, not printed from the code.
    #[test]
    #[rustfmt::skip]
    fn schedules_match_hand_derived_tables() {
        // Dissemination: the distance of each round.
        let dissemination_dists: [(usize, &[usize]); 5] =
            [(1, &[]), (2, &[1]), (3, &[1, 2]), (5, &[1, 2, 4]), (8, &[1, 2, 4])];
        for (n, dists) in dissemination_dists {
            let got: Vec<_> = dissemination(n).map(|r| (r.seq, r.dist, r.lag)).collect();
            let want: Vec<_> = dists.iter().enumerate().map(|(s, &d)| (s as u64, d, d)).collect();
            assert_eq!(got, want, "dissemination n={n}");
            assert_eq!(dissemination(n).len(), dists.len());
        }

        // Ring: `(seq, lag)` of each step, always one place forward.
        let ring_lags: [(usize, &[(u64, usize)]); 5] = [
            (1, &[]),
            (2, &[(0, 1)]),
            (3, &[(0, 1), (1, 2)]),
            (5, &[(0, 1), (1, 2), (2, 3), (3, 4)]),
            (8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]),
        ];
        for (n, lags) in ring_lags {
            assert!(ring(n).all(|r| r.dist == 1), "ring n={n}");
            assert_eq!(ring(n).map(|r| (r.seq, r.lag)).collect::<Vec<_>>(), lags, "ring n={n}");
        }
        assert_eq!(origin_rows(ring(3), 3), [[2, 0, 1], [1, 2, 0]]);
        assert_eq!(origin_rows(ring(5), 5)[3], [1, 2, 3, 4, 0]);

        // Rotation: round r's `to` and `from` for every participant;
        // what arrives was contributed by the sender, so origin == from.
        let rotation_to: [(usize, &[&[usize]]); 5] = [
            (1, &[]),
            (2, &[&[1, 0]]),
            (3, &[&[1, 2, 0], &[2, 0, 1]]),
            (5, &[&[1, 2, 3, 4, 0], &[2, 3, 4, 0, 1], &[3, 4, 0, 1, 2], &[4, 0, 1, 2, 3]]),
            (8, &[&[1, 2, 3, 4, 5, 6, 7, 0], &[2, 3, 4, 5, 6, 7, 0, 1],
                  &[3, 4, 5, 6, 7, 0, 1, 2], &[4, 5, 6, 7, 0, 1, 2, 3],
                  &[5, 6, 7, 0, 1, 2, 3, 4], &[6, 7, 0, 1, 2, 3, 4, 5],
                  &[7, 0, 1, 2, 3, 4, 5, 6]]),
        ];
        let rotation_from: [(usize, &[&[usize]]); 5] = [
            (1, &[]),
            (2, &[&[1, 0]]),
            (3, &[&[2, 0, 1], &[1, 2, 0]]),
            (5, &[&[4, 0, 1, 2, 3], &[3, 4, 0, 1, 2], &[2, 3, 4, 0, 1], &[1, 2, 3, 4, 0]]),
            (8, &[&[7, 0, 1, 2, 3, 4, 5, 6], &[6, 7, 0, 1, 2, 3, 4, 5],
                  &[5, 6, 7, 0, 1, 2, 3, 4], &[4, 5, 6, 7, 0, 1, 2, 3],
                  &[3, 4, 5, 6, 7, 0, 1, 2], &[2, 3, 4, 5, 6, 7, 0, 1],
                  &[1, 2, 3, 4, 5, 6, 7, 0]]),
        ];
        for ((n, to), (_, from)) in rotation_to.into_iter().zip(rotation_from) {
            let seqs: Vec<u64> = rotation(n).map(|r| r.seq).collect();
            assert_eq!(seqs, (1..n as u64).collect::<Vec<_>>(), "rotation n={n}");
            assert_eq!(to_rows(rotation(n), n), to, "rotation to n={n}");
            assert_eq!(from_rows(rotation(n), n), from, "rotation from n={n}");
            assert_eq!(origin_rows(rotation(n), n), from, "rotation origin n={n}");
        }
        // Sampling strides (n − 1) / k rounds from round 1: 15 / 5 = 3.
        let sampled: Vec<u64> = rotation_sampled(16, 5).map(|r| r.seq).collect();
        assert_eq!(sampled, [1, 4, 7, 10, 13]);
        assert_eq!(rotation_sampled(16, 24).len(), 15);

        // Recursive doubling: each round's partners, `None` where the
        // partner `me ^ 2^r` is at or beyond n and the round is skipped.
        const N: Option<usize> = None;
        let doubling: [(usize, &[&[Option<usize>]]); 5] = [
            (1, &[]),
            (2, &[&[Some(1), Some(0)]]),
            (3, &[&[Some(1), Some(0), N], &[Some(2), N, Some(0)]]),
            (5, &[&[Some(1), Some(0), Some(3), Some(2), N],
                  &[Some(2), Some(3), Some(0), Some(1), N],
                  &[Some(4), N, N, N, Some(0)]]),
            (8, &[&[Some(1), Some(0), Some(3), Some(2), Some(5), Some(4), Some(7), Some(6)],
                  &[Some(2), Some(3), Some(0), Some(1), Some(6), Some(7), Some(4), Some(5)],
                  &[Some(4), Some(5), Some(6), Some(7), Some(0), Some(1), Some(2), Some(3)]]),
        ];
        for (n, rows) in doubling {
            let got: Vec<Vec<_>> =
                recursive_doubling(n).map(|partner| (0..n).map(partner).collect()).collect();
            assert_eq!(got, rows, "recursive doubling n={n}");
        }
    }

    /// Compare-and-subtract agrees with `%` for every participant of
    /// every shift round up to n = 64.
    #[test]
    fn shifts_wrap_like_the_remainder() {
        for n in 1..=64 {
            for round in dissemination(n).chain(ring(n)).chain(rotation(n)) {
                for me in 0..n {
                    assert_eq!(round.to(me, n), (me + round.dist) % n, "{round:?} n={n}");
                    assert_eq!(
                        round.from(me, n),
                        (me + n - round.dist) % n,
                        "{round:?} n={n}"
                    );
                    assert_eq!(
                        round.origin(me, n),
                        (me + n - round.lag) % n,
                        "{round:?} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn cart2d_roundtrip() {
        let c = Cart2d::new(4, 3);
        for (r, [x, y]) in walk([4, 3]).enumerate() {
            assert_eq!(c.coords(r), (x, y));
            assert_eq!(y * 4 + x, r);
        }
        assert_eq!(walk([4, 3]).count(), 12);
    }

    #[test]
    fn cart2d_periodic_wrap() {
        let c = Cart2d::new(4, 4);
        assert_eq!(c.neighbors8(0)[..4], [1, 3, 4, 12]);
        assert_eq!(c.neighbors8(3)[0], 0);
    }

    #[test]
    fn neighbors8_of_corner() {
        let c = Cart2d::new(3, 3);
        let n = c.neighbors8(0);
        // E, W, N, S, NE, SE, NW, SW of (0,0) with wraparound.
        assert_eq!(n, [1, 2, 3, 6, 4, 7, 5, 8]);
    }

    #[test]
    fn near_square_prefers_balance() {
        assert_eq!(Cart2d::near_square(16), Cart2d::new(4, 4));
        assert_eq!(Cart2d::near_square(64), Cart2d::new(8, 8));
        assert_eq!(Cart2d::near_square(12), Cart2d::new(4, 3));
        assert_eq!(Cart2d::near_square(32), Cart2d::new(8, 4));
        assert_eq!(Cart2d::near_square(7), Cart2d::new(7, 1));
    }

    #[test]
    fn cart3d_roundtrip_and_neighbors() {
        let c = Cart3d::new(2, 3, 4);
        assert_eq!(c.size(), 24);
        for (r, [x, y, z]) in walk([2, 3, 4]).enumerate() {
            assert_eq!(c.coords(r), (x, y, z));
            assert_eq!((z * 3 + y) * 2 + x, r);
        }
        assert_eq!(walk([2, 3, 4]).count(), 24);
        let n = c.neighbors6(0);
        assert_eq!(n[0], 1); // +x
        assert_eq!(n[1], 1); // -x wraps in px=2
        assert_eq!(n[2], 2); // +y
        assert_eq!(n[4], 6); // +z
    }

    #[test]
    fn near_cubic_balanced() {
        let c = Cart3d::near_cubic(64);
        assert_eq!((c.px, c.py, c.pz), (4, 4, 4));
        let c = Cart3d::near_cubic(8);
        assert_eq!((c.px, c.py, c.pz), (2, 2, 2));
    }

    /// The compare-and-subtract stencils, rank by rank and walked over
    /// the whole grid, agree with the remainder on every rank of every
    /// grid up to 4 per axis.
    #[test]
    fn stencils_wrap_like_the_remainder() {
        let wrap = |c: usize, d: isize, n: usize| (c as isize + d).rem_euclid(n as isize) as usize;
        // E, W, N, S, NE, SE, NW, SW as (dx, dy); ±x, ±y, ±z as (dx, dy, dz).
        let steps2: [(isize, isize); 8] = [
            (1, 0),
            (-1, 0),
            (0, 1),
            (0, -1),
            (1, 1),
            (1, -1),
            (-1, 1),
            (-1, -1),
        ];
        let steps3: [(isize, isize, isize); 6] = [
            (1, 0, 0),
            (-1, 0, 0),
            (0, 1, 0),
            (0, -1, 0),
            (0, 0, 1),
            (0, 0, -1),
        ];
        // Each side's opposite steps the other way.
        for (k, &o) in Cart2d::OPPOSITE.iter().enumerate() {
            assert_eq!(steps2[o], (-steps2[k].0, -steps2[k].1));
        }
        for (k, &o) in Cart3d::OPPOSITE.iter().enumerate() {
            assert_eq!(
                (o, steps3[o]),
                (k ^ 1, (-steps3[k].0, -steps3[k].1, -steps3[k].2))
            );
        }
        for px in 1..=4 {
            for py in 1..=4 {
                let c = Cart2d::new(px, py);
                let walked: Vec<_> = c.stencils().collect();
                assert_eq!(walked.len(), c.size());
                for (r, stencil) in walked.into_iter().enumerate() {
                    let (x, y) = c.coords(r);
                    let want = steps2.map(|(dx, dy)| wrap(y, dy, py) * px + wrap(x, dx, px));
                    assert_eq!(c.neighbors8(r), want, "{c:?} rank {r}");
                    assert_eq!(stencil, want, "{c:?} rank {r}");
                }
                for pz in 1..=4 {
                    let c = Cart3d::new(px, py, pz);
                    let walked: Vec<_> = c.stencils().collect();
                    assert_eq!(walked.len(), c.size());
                    for (r, stencil) in walked.into_iter().enumerate() {
                        let (x, y, z) = c.coords(r);
                        let want = steps3.map(|(dx, dy, dz)| {
                            (wrap(z, dz, pz) * py + wrap(y, dy, py)) * px + wrap(x, dx, px)
                        });
                        assert_eq!(c.neighbors6(r), want, "{c:?} rank {r}");
                        assert_eq!(stencil, want, "{c:?} rank {r}");
                    }
                }
            }
        }
    }
}
