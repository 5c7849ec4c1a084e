//! Every message schedule, defined once: whom participant `me` of `n`
//! meets in each round. The engine's timing model ([`crate::collectives`])
//! and both rank runtimes of `pvs-mpisim` (through `pvs_core::schedule`)
//! walk these iterators. [`Round`] wraps by compare-and-subtract, not `%`,
//! because netsim calls it once per message.

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

/// Position of participant `me` in the binomial broadcast tree rooted at
/// `root` (MPICH's relative-rank/mask schedule): its parent (`None` at
/// the root) and its children in send order — log₂ n rounds, and nobody
/// sends more than log₂ n messages.
pub fn binomial(me: usize, root: usize, n: usize) -> (Option<usize>, Vec<usize>) {
    let relative = (me + n - root) % n;
    let mut parent = None;
    let mut mask = 1usize;
    while mask < n {
        if relative & mask != 0 {
            parent = Some((me + n - mask) % n);
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    let mut children = Vec::new();
    while mask > 0 {
        if relative + mask < n {
            children.push((me + mask) % n);
        }
        mask >>= 1;
    }
    (parent, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(parent, children)` of every participant of a binomial tree.
    type Tree = &'static [(Option<usize>, &'static [usize])];

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

        // Binomial tree: `(parent, children)` of every participant.
        let binomial_trees: [(usize, usize, Tree); 6] = [
            (1, 0, &[(N, &[])]),
            (2, 0, &[(N, &[1]), (Some(0), &[])]),
            (3, 0, &[(N, &[2, 1]), (Some(0), &[]), (Some(0), &[])]),
            (5, 0, &[(N, &[4, 2, 1]), (Some(0), &[]), (Some(0), &[3]), (Some(2), &[]), (Some(0), &[])]),
            (5, 3, &[(Some(3), &[1]), (Some(0), &[]), (Some(3), &[]), (N, &[2, 0, 4]), (Some(3), &[])]),
            (8, 0, &[(N, &[4, 2, 1]), (Some(0), &[]), (Some(0), &[3]), (Some(2), &[]),
                     (Some(0), &[6, 5]), (Some(4), &[]), (Some(4), &[7]), (Some(6), &[])]),
        ];
        for (n, root, tree) in binomial_trees {
            for (me, &(parent, children)) in tree.iter().enumerate() {
                assert_eq!(binomial(me, root, n), (parent, children.to_vec()), "n={n} root={root} me={me}");
            }
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
}
