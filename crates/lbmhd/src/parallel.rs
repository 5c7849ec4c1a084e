//! The distributed LBMHD solver: 2D block decomposition with ghost cells.
//!
//! The spatial grid is block-distributed over a 2D processor grid (paper
//! §3). Each step: collide locally, exchange the one-cell boundary ring
//! with the eight neighbours, then stream reading the refreshed ghosts.
//! Two exchange implementations mirror the paper's two ports:
//!
//! * **MPI mode** — non-contiguous mesoscopic variables are copied into
//!   temporary buffers and sent with two-sided messages ("thereby reducing
//!   the required number of send/receive messages", §3.1);
//! * **CAF mode** — boundary strips are `put` directly into the
//!   neighbour's co-array window, eliminating the intermediate copies
//!   (§3.1's Co-array Fortran port).
//!
//! The distributed solver is bit-identical to the serial one — the
//! integration test reassembles subdomains and compares exactly.

use crate::collision::{collide_site, SiteMoments};
use crate::lattice::{C, CB, Q, QB};
use crate::solver::SimulationConfig;
use pvs_core::schedule::Cart2d;
use pvs_mpisim::caf::CoArray;
use pvs_mpisim::comm::Comm;

/// Values carried per lattice site across the halo (Q hydrodynamic + 2·QB
/// magnetic components).
pub const SITE_VALUES: usize = Q + 2 * QB;

/// Interior coordinates of a boundary strip to send.
type SendCells = Vec<(usize, usize)>;
/// Ghost-ring coordinates (may be −1 or n) a received strip fills.
type GhostCells = Vec<(isize, isize)>;
/// One rank's result: `(x0, y0, nx, ny, bx, by)`.
pub type RankField = (usize, usize, usize, usize, Vec<f64>, Vec<f64>);

/// Which exchange implementation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeMode {
    /// Two-sided buffered messages.
    Mpi,
    /// One-sided co-array puts.
    Caf,
}

/// One rank's block of the global grid, with a one-cell ghost ring.
pub struct Subdomain {
    /// Interior extent in x.
    pub nx: usize,
    /// Interior extent in y.
    pub ny: usize,
    /// Global offset of this block.
    pub x0: usize,
    /// Global offset of this block.
    pub y0: usize,
    cfg: SimulationConfig,
    cart: Cart2d,
    rank: usize,
    /// Distribution planes with ghosts: `plane[p][(y+1)*(nx+2) + (x+1)]`,
    /// planes ordered f₀..f₈, gx₀..gx₄, gy₀..gy₄.
    planes: Vec<Vec<f64>>,
    scratch: Vec<f64>,
}

impl Subdomain {
    /// Build this rank's block of an `(gnx × gny)` global grid decomposed
    /// over `cart`, initialized from global-coordinate moments.
    pub fn new(
        cfg: SimulationConfig,
        cart: Cart2d,
        rank: usize,
        gnx: usize,
        gny: usize,
        init: impl Fn(usize, usize) -> SiteMoments,
    ) -> Self {
        assert!(
            gnx.is_multiple_of(cart.px) && gny.is_multiple_of(cart.py),
            "grid must divide evenly"
        );
        let nx = gnx / cart.px;
        let ny = gny / cart.py;
        let (cx, cy) = cart.coords(rank);
        let (x0, y0) = (cx * nx, cy * ny);
        let w = nx + 2;
        let h = ny + 2;
        let mut planes = vec![vec![0.0; w * h]; SITE_VALUES];
        for y in 0..ny {
            for x in 0..nx {
                let m = init(x0 + x, y0 + y);
                let feq = crate::collision::equilibrium_f(&m);
                let geq = crate::collision::equilibrium_b(&m);
                let s = (y + 1) * w + (x + 1);
                for i in 0..Q {
                    planes[i][s] = feq[i];
                }
                for i in 0..QB {
                    planes[Q + i][s] = geq[i].0;
                    planes[Q + QB + i][s] = geq[i].1;
                }
            }
        }
        Self {
            nx,
            ny,
            x0,
            y0,
            cfg,
            cart,
            rank,
            planes,
            scratch: vec![0.0; w * h],
        }
    }

    #[inline]
    fn at(&self, p: usize, x: isize, y: isize) -> f64 {
        let w = self.nx + 2;
        self.planes[p][((y + 1) as usize) * w + (x + 1) as usize]
    }

    /// Collide all interior sites.
    pub fn collide(&mut self) {
        let w = self.nx + 2;
        for y in 0..self.ny {
            for x in 0..self.nx {
                let s = (y + 1) * w + (x + 1);
                let mut fs = [0.0; Q];
                for i in 0..Q {
                    fs[i] = self.planes[i][s];
                }
                let mut gs = [(0.0, 0.0); QB];
                for i in 0..QB {
                    gs[i] = (self.planes[Q + i][s], self.planes[Q + QB + i][s]);
                }
                collide_site(&mut fs, &mut gs, self.cfg.tau_f, self.cfg.tau_b);
                for i in 0..Q {
                    self.planes[i][s] = fs[i];
                }
                for i in 0..QB {
                    self.planes[Q + i][s] = gs[i].0;
                    self.planes[Q + QB + i][s] = gs[i].1;
                }
            }
        }
    }

    /// Pack a boundary strip: `cells` are interior coordinates, output is
    /// `[plane-major][cell]`.
    fn pack(&self, cells: &[(usize, usize)]) -> Vec<f64> {
        let w = self.nx + 2;
        let mut buf = Vec::with_capacity(SITE_VALUES * cells.len());
        for p in 0..SITE_VALUES {
            for &(x, y) in cells {
                buf.push(self.planes[p][(y + 1) * w + (x + 1)]);
            }
        }
        buf
    }

    /// Unpack a strip into ghost coordinates (`x`/`y` may be −1 or n).
    fn unpack(&mut self, cells: &[(isize, isize)], buf: &[f64]) {
        let w = self.nx + 2;
        assert_eq!(buf.len(), SITE_VALUES * cells.len());
        let mut k = 0;
        for p in 0..SITE_VALUES {
            for &(x, y) in cells {
                self.planes[p][((y + 1) as usize) * w + (x + 1) as usize] = buf[k];
                k += 1;
            }
        }
    }

    fn edge_cells(&self, side: usize) -> (SendCells, GhostCells) {
        let (nx, ny) = (self.nx, self.ny);
        match side {
            // (cells I send = my boundary facing that side,
            //  ghosts I fill = ghost ring on that side)
            0 => (
                (0..ny).map(|y| (nx - 1, y)).collect(),
                (0..ny).map(|y| (nx as isize, y as isize)).collect(),
            ), // E
            1 => (
                (0..ny).map(|y| (0, y)).collect(),
                (0..ny).map(|y| (-1, y as isize)).collect(),
            ), // W
            2 => (
                (0..nx).map(|x| (x, ny - 1)).collect(),
                (0..nx).map(|x| (x as isize, ny as isize)).collect(),
            ), // N
            3 => (
                (0..nx).map(|x| (x, 0)).collect(),
                (0..nx).map(|x| (x as isize, -1)).collect(),
            ), // S
            4 => (vec![(nx - 1, ny - 1)], vec![(nx as isize, ny as isize)]), // NE
            5 => (vec![(nx - 1, 0)], vec![(nx as isize, -1)]),               // SE
            6 => (vec![(0, ny - 1)], vec![(-1, ny as isize)]),               // NW
            7 => (vec![(0, 0)], vec![(-1, -1)]),                             // SW
            _ => unreachable!(),
        }
    }

    /// Two-sided halo exchange: pack strips into temporary buffers, send
    /// one message per neighbour (tagged by the *sender's* side), then
    /// receive and unpack into ghosts. My side-`s` ghost ring is filled by
    /// the neighbour's boundary facing me — the message it tagged with the
    /// opposite side.
    pub fn exchange_mpi(&mut self, comm: &mut Comm) {
        let neighbors = self.cart.neighbors8(self.rank);
        // My E boundary fills my east neighbour's W ghosts, etc.
        const PARTNER_SIDE: [usize; 8] = [1, 0, 3, 2, 7, 6, 5, 4];
        const TAG_BASE: u64 = 0x1B00;
        let mut local_loopback: [Option<Vec<f64>>; 8] = Default::default();
        for side in 0..8 {
            let (send_cells, _) = self.edge_cells(side);
            let buf = self.pack(&send_cells);
            let partner = neighbors[side];
            if partner == self.rank {
                // Periodic wrap onto myself: my own boundary fills my
                // opposite ghost ring.
                local_loopback[PARTNER_SIDE[side]] = Some(buf);
            } else {
                comm.send(partner, TAG_BASE + side as u64, buf);
            }
        }
        for side in 0..8 {
            let partner = neighbors[side];
            let received = if partner == self.rank {
                local_loopback[side].take().expect("loopback buffer")
            } else {
                comm.recv(partner, TAG_BASE + PARTNER_SIDE[side] as u64)
            };
            let (_, ghost_cells) = self.edge_cells(side);
            self.unpack(&ghost_cells, &received);
        }
    }

    /// Number of window doubles needed per rank for CAF exchange.
    pub fn caf_window_len(&self) -> usize {
        SITE_VALUES * (2 * self.ny + 2 * self.nx + 4)
    }

    fn caf_region(&self, side: usize) -> (usize, usize) {
        // Window regions in side order [E ghost, W ghost, N ghost, S ghost,
        // NE, SE, NW, SW], each sized SITE_VALUES * len(side).
        let ny = SITE_VALUES * self.ny;
        let nx = SITE_VALUES * self.nx;
        let c = SITE_VALUES;
        let offsets = [
            0,
            ny,
            2 * ny,
            2 * ny + nx,
            2 * ny + 2 * nx,
            2 * ny + 2 * nx + c,
            2 * ny + 2 * nx + 2 * c,
            2 * ny + 2 * nx + 3 * c,
        ];
        let lens = [ny, ny, nx, nx, c, c, c, c];
        (offsets[side], lens[side])
    }

    /// One-sided halo exchange: put boundary strips straight into the
    /// neighbours' windows, synchronize, unpack the local window.
    pub fn exchange_caf(&mut self, ca: &CoArray, comm: &mut Comm) {
        let neighbors = self.cart.neighbors8(self.rank);
        const PARTNER_SIDE: [usize; 8] = [1, 0, 3, 2, 7, 6, 5, 4];
        for side in 0..8 {
            let (send_cells, _) = self.edge_cells(side);
            let buf = self.pack(&send_cells);
            // My `side` boundary becomes the partner's `PARTNER_SIDE[side]`
            // ghost region.
            let (off, len) = self.caf_region(PARTNER_SIDE[side]);
            assert_eq!(buf.len(), len);
            ca.put(neighbors[side], off, &buf);
        }
        comm.barrier();
        for side in 0..8 {
            let (off, len) = self.caf_region(side);
            let buf = ca.get(self.rank, off, len);
            let (_, ghost_cells) = self.edge_cells(side);
            self.unpack(&ghost_cells, &buf);
        }
        // Second synchronization so no rank starts the next step's puts
        // while a neighbour is still reading its window.
        comm.barrier();
    }

    /// Stream all interior sites, reading ghosts at the block boundary.
    pub fn stream(&mut self) {
        let w = self.nx + 2;
        for plane_idx in 0..SITE_VALUES {
            let (dx, dy) = if plane_idx < Q {
                C[plane_idx]
            } else {
                CB[(plane_idx - Q) % QB]
            };
            if dx == 0 && dy == 0 {
                continue;
            }
            for y in 0..self.ny as isize {
                for x in 0..self.nx as isize {
                    self.scratch[((y + 1) as usize) * w + (x + 1) as usize] =
                        self.at(plane_idx, x - dx as isize, y - dy as isize);
                }
            }
            std::mem::swap(&mut self.planes[plane_idx], &mut self.scratch);
        }
    }

    /// One full distributed step.
    pub fn step(&mut self, comm: &mut Comm, ca: Option<&CoArray>) {
        self.collide();
        match ca {
            Some(ca) => self.exchange_caf(ca, comm),
            None => self.exchange_mpi(comm),
        }
        self.stream();
    }

    /// Interior macroscopic magnetic field (site-indexed `y * nx + x`).
    pub fn magnetic_field(&self) -> (Vec<f64>, Vec<f64>) {
        let w = self.nx + 2;
        let mut bx = vec![0.0; self.nx * self.ny];
        let mut by = vec![0.0; self.nx * self.ny];
        for y in 0..self.ny {
            for x in 0..self.nx {
                let s = (y + 1) * w + (x + 1);
                for i in 0..QB {
                    bx[y * self.nx + x] += self.planes[Q + i][s];
                    by[y * self.nx + x] += self.planes[Q + QB + i][s];
                }
            }
        }
        (bx, by)
    }

    /// Interior density field.
    pub fn density(&self) -> Vec<f64> {
        let w = self.nx + 2;
        let mut rho = vec![0.0; self.nx * self.ny];
        for y in 0..self.ny {
            for x in 0..self.nx {
                let s = (y + 1) * w + (x + 1);
                for i in 0..Q {
                    rho[y * self.nx + x] += self.planes[i][s];
                }
            }
        }
        rho
    }
}

/// Run a distributed simulation for `steps` steps on `px × py` ranks and
/// return each rank's `(x0, y0, nx, ny, bx, by)`.
pub fn run_distributed(
    cfg: SimulationConfig,
    px: usize,
    py: usize,
    steps: usize,
    mode: ExchangeMode,
    init: impl Fn(usize, usize) -> SiteMoments + Send + Sync,
) -> Vec<RankField> {
    let cart = Cart2d::new(px, py);
    let init = &init;
    pvs_mpisim::run(px * py, move |mut comm| {
        let mut sub = Subdomain::new(cfg, cart, comm.rank(), cfg.nx, cfg.ny, init);
        let ca = match mode {
            ExchangeMode::Caf => Some(CoArray::create(&mut comm, sub.caf_window_len())),
            ExchangeMode::Mpi => None,
        };
        for _ in 0..steps {
            sub.step(&mut comm, ca.as_ref());
        }
        let (bx, by) = sub.magnetic_field();
        (sub.x0, sub.y0, sub.nx, sub.ny, bx, by)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::crossed_current_sheets;
    use crate::solver::Simulation;

    fn serial_reference(n: usize, steps: usize) -> (Vec<f64>, Vec<f64>) {
        let cfg = SimulationConfig::new(n, n);
        let mut sim =
            Simulation::from_moments(cfg, |x, y| crossed_current_sheets(x, y, n, n, 0.08));
        sim.run(steps);
        let (_, _, _, bx, by) = sim.fields();
        (bx, by)
    }

    fn reassemble(parts: &[RankField], n: usize) -> (Vec<f64>, Vec<f64>) {
        let mut bx = vec![0.0; n * n];
        let mut by = vec![0.0; n * n];
        for (x0, y0, nx, ny, pbx, pby) in parts {
            for y in 0..*ny {
                for x in 0..*nx {
                    bx[(y0 + y) * n + (x0 + x)] = pbx[y * nx + x];
                    by[(y0 + y) * n + (x0 + x)] = pby[y * nx + x];
                }
            }
        }
        (bx, by)
    }

    #[test]
    fn mpi_distributed_matches_serial_exactly() {
        let n = 16;
        let steps = 8;
        let cfg = SimulationConfig::new(n, n);
        let (sbx, sby) = serial_reference(n, steps);
        let parts = run_distributed(cfg, 2, 2, steps, ExchangeMode::Mpi, |x, y| {
            crossed_current_sheets(x, y, n, n, 0.08)
        });
        let (dbx, dby) = reassemble(&parts, n);
        for s in 0..n * n {
            assert!((sbx[s] - dbx[s]).abs() < 1e-13, "bx at {s}");
            assert!((sby[s] - dby[s]).abs() < 1e-13, "by at {s}");
        }
    }

    #[test]
    fn caf_distributed_matches_serial_exactly() {
        let n = 16;
        let steps = 8;
        let cfg = SimulationConfig::new(n, n);
        let (sbx, sby) = serial_reference(n, steps);
        let parts = run_distributed(cfg, 2, 2, steps, ExchangeMode::Caf, |x, y| {
            crossed_current_sheets(x, y, n, n, 0.08)
        });
        let (dbx, dby) = reassemble(&parts, n);
        for s in 0..n * n {
            assert!((sbx[s] - dbx[s]).abs() < 1e-13, "bx at {s}");
            assert!((sby[s] - dby[s]).abs() < 1e-13, "by at {s}");
        }
    }

    #[test]
    fn asymmetric_process_grids_work() {
        let n = 16;
        let cfg = SimulationConfig::new(n, n);
        let (sbx, _) = serial_reference(n, 4);
        let parts = run_distributed(cfg, 4, 1, 4, ExchangeMode::Mpi, |x, y| {
            crossed_current_sheets(x, y, n, n, 0.08)
        });
        let (dbx, _) = reassemble(&parts, n);
        for s in 0..n * n {
            assert!((sbx[s] - dbx[s]).abs() < 1e-13);
        }
    }

    #[test]
    fn mass_conserved_across_ranks() {
        let n = 16;
        let cfg = SimulationConfig::new(n, n);
        let cart = Cart2d::new(2, 2);
        let totals = pvs_mpisim::run(4, |mut comm| {
            let mut sub = Subdomain::new(cfg, cart, comm.rank(), n, n, |x, y| {
                crossed_current_sheets(x, y, n, n, 0.08)
            });
            let before: f64 = sub.density().iter().sum();
            let before = comm.allreduce_sum_scalar(before);
            for _ in 0..5 {
                sub.step(&mut comm, None);
            }
            let after: f64 = sub.density().iter().sum();
            let after = comm.allreduce_sum_scalar(after);
            (before, after)
        });
        for (b, a) in totals {
            assert!((b - a).abs() / b < 1e-12);
        }
    }
}
