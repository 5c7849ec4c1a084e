//! The block-decomposed distributed solver (ghost-zone exchange, Fig. 6).
//!
//! "The standard MPI driver for Cactus solves the PDE on a local grid
//! section and then updates the values at the ghost zones by exchanging
//! data on the faces of its topological neighbors" — exactly what this
//! module does, with a 3D cartesian decomposition and periodic global
//! boundaries. Each rank is one [`CactusBlock`], a [`RankProgram`] that
//! runs on either `pvs-mpisim` runtime and exchanges its faces before
//! every RHS evaluation through the stencil exchange every solver shares.

use crate::grid::{Grid3, NFIELDS};
use crate::icn::{icn_midpoint, icn_update, ICN_ITERATIONS};
use crate::rhs::evaluate;
use pvs_core::schedule::Cart3d;
use pvs_mpisim::event::{RankCtx, RankProgram, Reply, Step};
use pvs_mpisim::{Exchange, Halo};

/// Face `k` travels under `TAG_BASE + k`.
const TAG_BASE: u64 = 0xCAC0;

/// One rank's result: its block's global origin and interior `h_xx`,
/// x fastest.
pub type RankField = ((usize, usize, usize), Vec<f64>);

/// One rank of the distributed solver: its block of the global grid,
/// evolved for a fixed number of ICN steps. It finishes with its
/// [`RankField`].
pub struct CactusBlock {
    /// Local fields (interior `nx × ny × nz`, one ghost layer): the
    /// current ICN iterate.
    grid: Grid3,
    origin: (usize, usize, usize),
    dx: f64,
    dt: f64,
    exchange: Exchange<6>,
    /// The state the current step started from.
    base: Grid3,
    /// Where the current iteration evaluates the RHS, ghosts included.
    eval: Grid3,
    deriv: Grid3,
    /// ICN iterations done, and to do.
    iter: usize,
    iters: usize,
}

impl CactusBlock {
    /// This rank's block of a `gn` global periodic grid over `cart`,
    /// initialized from global coordinates, to run `steps` ICN steps of
    /// `dt`.
    pub fn new(
        cart: Cart3d,
        rank: usize,
        gn: (usize, usize, usize),
        dx: f64,
        dt: f64,
        steps: usize,
        init: impl Fn(usize, usize, usize) -> [f64; NFIELDS],
    ) -> Self {
        assert!(
            gn.0.is_multiple_of(cart.px)
                && gn.1.is_multiple_of(cart.py)
                && gn.2.is_multiple_of(cart.pz)
        );
        let (nx, ny, nz) = (gn.0 / cart.px, gn.1 / cart.py, gn.2 / cart.pz);
        let (cx, cy, cz) = cart.coords(rank);
        let origin = (cx * nx, cy * ny, cz * nz);
        let mut grid = Grid3::new(nx, ny, nz, 1);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let v = init(origin.0 + x, origin.1 + y, origin.2 + z);
                    for (f, val) in v.iter().enumerate() {
                        grid.set(f, x as isize, y as isize, z as isize, *val);
                    }
                }
            }
        }
        let exchange = Exchange::new(rank, cart.neighbors6(rank), Cart3d::OPPOSITE, TAG_BASE);
        Self {
            base: grid.clone(),
            eval: grid.clone(),
            deriv: Grid3::new(nx, ny, nz, 1),
            grid,
            origin,
            dx,
            dt,
            exchange,
            iter: 0,
            iters: ICN_ITERATIONS * steps,
        }
    }

    /// The ghosts of the evaluation point are fresh: evaluate the RHS
    /// there and close the ICN iteration.
    fn end_iteration(&mut self) {
        evaluate(&self.eval, &mut self.deriv, self.dx);
        icn_update(&mut self.grid, &self.base, &self.deriv, self.dt);
        self.iter += 1;
    }
}

impl RankProgram for CactusBlock {
    type Output = RankField;

    fn resume(&mut self, _ctx: &RankCtx, reply: Reply) -> Step<RankField> {
        match reply {
            Reply::Start => {}
            reply => match self.exchange.resume(reply, &mut self.eval) {
                Some(op) => return Step::Op(op),
                None => self.end_iteration(),
            },
        }
        while self.iter < self.iters {
            let k = self.iter % ICN_ITERATIONS;
            if k == 0 {
                self.base = self.grid.clone();
            }
            self.eval = icn_midpoint(&self.base, &self.grid, k);
            match self.exchange.begin(&mut self.eval) {
                Some(op) => return Step::Op(op),
                None => self.end_iteration(),
            }
        }
        let g = &self.grid;
        let mut out = Vec::with_capacity(g.interior_points());
        for z in 0..g.nz as isize {
            for y in 0..g.ny as isize {
                for x in 0..g.nx as isize {
                    out.push(g.get(0, x, y, z));
                }
            }
        }
        Step::Finish((self.origin, out))
    }
}

/// Faces by side of [`Cart3d::neighbors6`]: a face is one layer of every
/// field, field-major. The edge and corner ghosts are not needed by the
/// 7-point stencil.
impl Halo for Grid3 {
    fn pack(&mut self, face: usize) -> Vec<f64> {
        let (nx, ny, nz) = (self.nx as isize, self.ny as isize, self.nz as isize);
        let g = &*self;
        let mut buf = Vec::new();
        for f in 0..NFIELDS {
            match face {
                0 => (0..nz).for_each(|z| (0..ny).for_each(|y| buf.push(g.get(f, nx - 1, y, z)))),
                1 => (0..nz).for_each(|z| (0..ny).for_each(|y| buf.push(g.get(f, 0, y, z)))),
                2 => (0..nz).for_each(|z| (0..nx).for_each(|x| buf.push(g.get(f, x, ny - 1, z)))),
                3 => (0..nz).for_each(|z| (0..nx).for_each(|x| buf.push(g.get(f, x, 0, z)))),
                4 => (0..ny).for_each(|y| (0..nx).for_each(|x| buf.push(g.get(f, x, y, nz - 1)))),
                5 => (0..ny).for_each(|y| (0..nx).for_each(|x| buf.push(g.get(f, x, y, 0)))),
                _ => unreachable!(),
            }
        }
        buf
    }

    fn unpack(&mut self, face: usize, buf: &[f64]) {
        let (nx, ny, nz) = (self.nx as isize, self.ny as isize, self.nz as isize);
        let mut it = buf.iter();
        let mut next = || *it.next().expect("buffer length");
        for f in 0..NFIELDS {
            match face {
                0 => (0..nz).for_each(|z| (0..ny).for_each(|y| self.set(f, nx, y, z, next()))),
                1 => (0..nz).for_each(|z| (0..ny).for_each(|y| self.set(f, -1, y, z, next()))),
                2 => (0..nz).for_each(|z| (0..nx).for_each(|x| self.set(f, x, ny, z, next()))),
                3 => (0..nz).for_each(|z| (0..nx).for_each(|x| self.set(f, x, -1, z, next()))),
                4 => (0..ny).for_each(|y| (0..nx).for_each(|x| self.set(f, x, y, nz, next()))),
                5 => (0..ny).for_each(|y| (0..nx).for_each(|x| self.set(f, x, y, -1, next()))),
                _ => unreachable!(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::BoundaryKind;
    use crate::solver::{tt_plane_wave, CactusConfig, CactusSim};
    use pvs_mpisim::run_both;

    fn init_fields(gn: usize) -> impl Fn(usize, usize, usize) -> [f64; NFIELDS] {
        move |_, _, z| {
            let (h, k) = tt_plane_wave(z, gn, 0.01);
            let mut out = [0.0; NFIELDS];
            out[..6].copy_from_slice(&h);
            out[6..].copy_from_slice(&k);
            out
        }
    }

    /// Evolve a `gn³` plane wave `steps` steps of 0.25 over `cart` on both
    /// runtimes, which must agree bit for bit, and hold every rank's
    /// `h_xx` to the serial solver's within `tol`.
    fn assert_matches_serial(gn: usize, cart: Cart3d, steps: usize, tol: f64) {
        let dt = 0.25;
        let mut serial = CactusSim::from_fields(
            CactusConfig {
                nx: gn,
                ny: gn,
                nz: gn,
                dx: 1.0,
                dt,
                boundary: BoundaryKind::Periodic,
            },
            |_, _, z| tt_plane_wave(z, gn, 0.01),
        );
        serial.run(steps);

        let make =
            |rank, _| CactusBlock::new(cart, rank, (gn, gn, gn), 1.0, dt, steps, init_fields(gn));
        let (nx, ny, nz) = (gn / cart.px, gn / cart.py, gn / cart.pz);
        for (runtime, parts) in ["v1", "v2"]
            .iter()
            .zip(run_both(cart.size(), make, |f| f.1.clone()))
        {
            assert_eq!(parts.len(), cart.size());
            for (((ox, oy, oz), values), _) in parts {
                assert_eq!(values.len(), nx * ny * nz);
                let mut i = 0;
                for z in oz..oz + nz {
                    for y in oy..oy + ny {
                        for x in ox..ox + nx {
                            let want = serial.grid.get(0, x as isize, y as isize, z as isize);
                            assert!(
                                (values[i] - want).abs() < tol,
                                "{runtime} {cart:?} ({x},{y},{z})"
                            );
                            i += 1;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn distributed_matches_serial() {
        // 1 × 2 × 2 loops its x faces back, as near_cubic(4) does.
        for cart in [Cart3d::new(2, 2, 2), Cart3d::new(1, 2, 2)] {
            assert_matches_serial(8, cart, 6, 1e-12);
        }
    }

    #[test]
    fn single_rank_distributed_matches_serial() {
        assert_matches_serial(6, Cart3d::new(1, 1, 1), 4, 1e-13);
    }

    #[test]
    fn asymmetric_decomposition() {
        assert_matches_serial(8, Cart3d::new(4, 1, 2), 3, 1e-12);
    }
}
