//! The stencil exchange every distributed solver shares, as a
//! continuation its [`RankProgram`](crate::RankProgram) embeds. Side `k`
//! of an `N`-side stencil ships `pack(k)` to neighbour `k` under tag
//! `base + k`; then, side by side, it receives from neighbour `k` under
//! tag `base + opposite[k]` and calls `unpack(k, data)`. A side whose
//! neighbour is the rank itself loops back: its strip fills the rank's
//! own `opposite[k]` ghosts, and no message is sent or charged.

use crate::event::{Op, Reply};

/// The solver's half of an [`Exchange`].
pub trait Halo {
    /// The strip side `side` ships to its neighbour.
    fn pack(&mut self, side: usize) -> Vec<f64>;
    /// Fill side `side`'s ghosts from the strip its neighbour shipped.
    fn unpack(&mut self, side: usize, data: &[f64]);
}

/// One rank's exchange over an `N`-side stencil, reusable pass after
/// pass: [`Self::begin`] starts one, [`Self::resume`] answers each op it
/// asked for, and `None` from either means the ghosts are filled.
#[derive(Debug)]
pub struct Exchange<const N: usize> {
    me: usize,
    neighbours: [usize; N],
    opposite: [usize; N],
    tag_base: u64,
    loopback: [Option<Vec<f64>>; N],
    /// Steps `0..N` send side `k`, `N..2N` receive side `k - N`.
    cursor: usize,
}

impl<const N: usize> Exchange<N> {
    /// Rank `me`'s exchange with `neighbours`, where side `k`'s strip fills
    /// side `opposite[k]`'s ghosts on the receiving rank.
    pub fn new(me: usize, neighbours: [usize; N], opposite: [usize; N], tag_base: u64) -> Self {
        let loopback = std::array::from_fn(|_| None);
        let cursor = 2 * N;
        Exchange {
            me,
            neighbours,
            opposite,
            tag_base,
            loopback,
            cursor,
        }
    }

    /// Start a pass: its first op.
    pub fn begin(&mut self, halo: &mut impl Halo) -> Option<Op> {
        self.cursor = 0;
        self.advance(halo)
    }

    /// Answer the pass's last op: the next one. Any reply but that op's
    /// completion is a broken run.
    pub fn resume(&mut self, reply: Reply, halo: &mut impl Halo) -> Option<Op> {
        let c = self.cursor;
        match reply {
            Reply::Sent if (1..=N).contains(&c) => {}
            Reply::Received(data) if c > N => halo.unpack(c - N - 1, &data),
            other => panic!("unexpected reply in a stencil exchange at step {c}: {other:?}"),
        }
        self.advance(halo)
    }

    fn advance(&mut self, halo: &mut impl Halo) -> Option<Op> {
        while self.cursor < 2 * N {
            let (send, side) = (self.cursor < N, self.cursor % N);
            let peer = self.neighbours[side];
            self.cursor += 1;
            if peer == self.me && send {
                self.loopback[self.opposite[side]] = Some(halo.pack(side));
            } else if peer == self.me {
                // INFALLIBLE: the opposite side loops back too, and left it.
                halo.unpack(side, &self.loopback[side].take().expect("loopback strip"));
            } else if send {
                let (dst, tag, data) = (peer, self.tag_base + side as u64, halo.pack(side));
                return Some(Op::Send { dst, tag, data });
            } else {
                let (src, tag) = (peer, self.tag_base + self.opposite[side] as u64);
                return Some(Op::Recv { src, tag });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventSim, RankCtx, RankProgram, Step};
    use crate::{run_programs, CommStats};

    /// A ring of cells, one per rank, each with a ghost on either side:
    /// side 0 is the right neighbour, side 1 the left.
    struct Cell {
        value: f64,
        ghosts: [f64; 2],
    }

    impl Halo for Cell {
        fn pack(&mut self, _side: usize) -> Vec<f64> {
            vec![self.value]
        }

        fn unpack(&mut self, side: usize, data: &[f64]) {
            self.ghosts[side] = data[0];
        }
    }

    struct Ring {
        cell: Cell,
        exchange: Exchange<2>,
    }

    impl RankProgram for Ring {
        type Output = Vec<f64>;

        fn resume(&mut self, _ctx: &RankCtx, reply: Reply) -> Step<Vec<f64>> {
            let op = match reply {
                Reply::Start => self.exchange.begin(&mut self.cell),
                reply => self.exchange.resume(reply, &mut self.cell),
            };
            match op {
                Some(op) => Step::Op(op),
                None => Step::Finish(self.cell.ghosts.to_vec()),
            }
        }
    }

    fn ring(rank: usize, size: usize) -> Ring {
        let neighbours = [(rank + 1) % size, (rank + size - 1) % size];
        let cell = Cell {
            value: 10.0 * rank as f64,
            ghosts: [f64::NAN; 2],
        };
        Ring {
            cell,
            exchange: Exchange::new(rank, neighbours, [1, 0], 0x40),
        }
    }

    #[test]
    fn every_ghost_holds_its_neighbours_value_on_both_runtimes() {
        for size in [1, 2, 3, 5] {
            let v1 = run_programs(size, ring).ranks;
            let v2 = EventSim::new(size).run(ring).ranks;
            assert_eq!(crate::first_divergence(&v1, &v2), None);
            for (rank, (ghosts, stats)) in v1.iter().enumerate() {
                let value = |r: usize| 10.0 * r as f64;
                let want = [value((rank + 1) % size), value((rank + size - 1) % size)];
                assert_eq!(ghosts[..], want, "size {size} rank {rank}");
                // A one-rank ring loops both sides back: nothing is charged.
                let messages = if size == 1 { 0 } else { 2 };
                assert_eq!(
                    *stats,
                    CommStats {
                        messages_sent: messages,
                        bytes_sent: 8 * messages
                    }
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "unexpected reply in a stencil exchange at step 3: Sent")]
    fn a_send_completion_in_place_of_a_receive_is_a_broken_run() {
        let mut program = ring(0, 3);
        let mut exchange = program.exchange;
        let cell = &mut program.cell;
        assert!(matches!(
            exchange.begin(cell),
            Some(Op::Send {
                dst: 1,
                tag: 0x40,
                ..
            })
        ));
        assert!(matches!(
            exchange.resume(Reply::Sent, cell),
            Some(Op::Send { dst: 2, .. })
        ));
        assert!(matches!(
            exchange.resume(Reply::Sent, cell),
            Some(Op::Recv { src: 1, tag: 0x41 })
        ));
        exchange.resume(Reply::Sent, cell);
    }
}
