//! The block-decomposed distributed solver (ghost-zone exchange, Fig. 6).
//!
//! "The standard MPI driver for Cactus solves the PDE on a local grid
//! section and then updates the values at the ghost zones by exchanging
//! data on the faces of its topological neighbors" — exactly what this
//! module does on the `pvs-mpisim` runtime, with a 3D cartesian
//! decomposition and periodic global boundaries.

use crate::grid::{Grid3, NFIELDS};
use crate::icn::icn_step;
use crate::rhs::evaluate;
use pvs_core::schedule::Cart3d;
use pvs_mpisim::comm::Comm;

/// One rank's block of the global grid.
pub struct CactusBlock {
    /// Local fields (interior `nx × ny × nz`, one ghost layer).
    pub grid: Grid3,
    /// Global offsets.
    pub origin: (usize, usize, usize),
    cart: Cart3d,
    rank: usize,
    dx: f64,
}

impl CactusBlock {
    /// Build this rank's block of a `gn³` global periodic grid.
    pub fn new(
        cart: Cart3d,
        rank: usize,
        gn: (usize, usize, usize),
        dx: f64,
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
        Self {
            grid,
            origin,
            cart,
            rank,
            dx,
        }
    }

    /// Exchange all six face ghost layers with the topological neighbours.
    pub fn exchange(&mut self, comm: &mut Comm) {
        exchange_grid(self.cart, self.rank, &mut self.grid, comm);
    }

    /// One distributed ICN step.
    pub fn step(&mut self, comm: &mut Comm, dt: f64) {
        let dx = self.dx;
        let cart = self.cart;
        let rank = self.rank;
        icn_step(
            &mut self.grid,
            dt,
            |g| exchange_grid(cart, rank, g, comm),
            |s, out| evaluate(s, out, dx),
        );
    }
}

/// Pack one face's boundary layer (all fields) for sending.
fn pack_face(g: &Grid3, face: usize) -> Vec<f64> {
    {
        let (nx, ny, nz) = (g.nx as isize, g.ny as isize, g.nz as isize);
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
}

/// Unpack a received face buffer into a block's ghost layer.
fn unpack_face(grid: &mut Grid3, face: usize, buf: &[f64]) {
    let (nx, ny, nz) = (grid.nx as isize, grid.ny as isize, grid.nz as isize);
    let mut it = buf.iter();
    let mut next = || *it.next().expect("buffer length");
    for f in 0..NFIELDS {
        match face {
            0 => (0..nz).for_each(|z| (0..ny).for_each(|y| grid.set(f, nx, y, z, next()))),
            1 => (0..nz).for_each(|z| (0..ny).for_each(|y| grid.set(f, -1, y, z, next()))),
            2 => (0..nz).for_each(|z| (0..nx).for_each(|x| grid.set(f, x, ny, z, next()))),
            3 => (0..nz).for_each(|z| (0..nx).for_each(|x| grid.set(f, x, -1, z, next()))),
            4 => (0..ny).for_each(|y| (0..nx).for_each(|x| grid.set(f, x, y, nz, next()))),
            5 => (0..ny).for_each(|y| (0..nx).for_each(|x| grid.set(f, x, y, -1, next()))),
            _ => unreachable!(),
        }
    }
}

/// Exchange all six face ghost layers of `grid` with the topological
/// neighbours of `rank` in `cart`. The edge/corner ghosts are not needed
/// by the 7-point stencil.
pub fn exchange_grid(cart: Cart3d, rank: usize, grid: &mut Grid3, comm: &mut Comm) {
    let neighbors = cart.neighbors6(rank);
    const PARTNER_FACE: [usize; 6] = [1, 0, 3, 2, 5, 4];
    const TAG: u64 = 0xCAC0;
    let mut loopback: [Option<Vec<f64>>; 6] = Default::default();
    for face in 0..6 {
        let buf = pack_face(grid, face);
        if neighbors[face] == rank {
            loopback[PARTNER_FACE[face]] = Some(buf);
        } else {
            comm.send(neighbors[face], TAG + face as u64, buf);
        }
    }
    for face in 0..6 {
        let buf = if neighbors[face] == rank {
            loopback[face].take().expect("loopback")
        } else {
            comm.recv(neighbors[face], TAG + PARTNER_FACE[face] as u64)
        };
        unpack_face(grid, face, &buf);
    }
}

/// Run a distributed evolution and return each rank's interior `h_xx`
/// field with its origin.
pub fn run_distributed(
    gn: usize,
    cart: Cart3d,
    steps: usize,
    dt: f64,
    init: impl Fn(usize, usize, usize) -> [f64; NFIELDS] + Send + Sync,
) -> Vec<((usize, usize, usize), Vec<f64>)> {
    let init = &init;
    pvs_mpisim::run(cart.size(), move |mut comm| {
        let mut block = CactusBlock::new(cart, comm.rank(), (gn, gn, gn), 1.0, init);
        for _ in 0..steps {
            block.step(&mut comm, dt);
        }
        let g = &block.grid;
        let mut out = Vec::with_capacity(g.interior_points());
        for z in 0..g.nz as isize {
            for y in 0..g.ny as isize {
                for x in 0..g.nx as isize {
                    out.push(g.get(0, x, y, z));
                }
            }
        }
        (block.origin, out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::BoundaryKind;
    use crate::solver::{tt_plane_wave, CactusConfig, CactusSim};

    fn init_fields(gn: usize) -> impl Fn(usize, usize, usize) -> [f64; NFIELDS] + Send + Sync {
        move |_, _, z| {
            let (h, k) = tt_plane_wave(z, gn, 0.01);
            let mut out = [0.0; NFIELDS];
            out[..6].copy_from_slice(&h);
            out[6..].copy_from_slice(&k);
            out
        }
    }

    #[test]
    fn distributed_matches_serial() {
        let gn = 8;
        let steps = 6;
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

        let parts = run_distributed(gn, Cart3d::new(2, 2, 2), steps, dt, init_fields(gn));
        for ((ox, oy, oz), values) in parts {
            let mut i = 0;
            for z in 0..gn / 2 {
                for y in 0..gn / 2 {
                    for x in 0..gn / 2 {
                        let want = serial.grid.get(
                            0,
                            (ox + x) as isize,
                            (oy + y) as isize,
                            (oz + z) as isize,
                        );
                        assert!(
                            (values[i] - want).abs() < 1e-12,
                            "({},{},{})",
                            ox + x,
                            oy + y,
                            oz + z
                        );
                        i += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn single_rank_distributed_matches_serial() {
        let gn = 6;
        let parts = run_distributed(gn, Cart3d::new(1, 1, 1), 4, 0.25, init_fields(gn));
        let mut serial = CactusSim::from_fields(
            CactusConfig {
                nx: gn,
                ny: gn,
                nz: gn,
                dx: 1.0,
                dt: 0.25,
                boundary: BoundaryKind::Periodic,
            },
            |_, _, z| tt_plane_wave(z, gn, 0.01),
        );
        serial.run(4);
        let (_, values) = &parts[0];
        let mut i = 0;
        for z in 0..gn as isize {
            for y in 0..gn as isize {
                for x in 0..gn as isize {
                    assert!((values[i] - serial.grid.get(0, x, y, z)).abs() < 1e-13);
                    i += 1;
                }
            }
        }
    }

    #[test]
    fn asymmetric_decomposition() {
        let gn = 8;
        let parts = run_distributed(gn, Cart3d::new(4, 1, 2), 3, 0.25, init_fields(gn));
        assert_eq!(parts.len(), 8);
        let total: usize = parts.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, gn * gn * gn);
    }
}
