//! The distributed LBMHD solver: 2D block decomposition with ghost cells.
//!
//! The spatial grid is block-distributed over a 2D processor grid (paper
//! §3), one [`Subdomain`] rank program per block. Each step: collide
//! locally, exchange the one-cell boundary ring with the eight
//! neighbours, then stream reading the refreshed ghosts. Two exchanges
//! mirror the paper's two ports:
//!
//! * **MPI mode** — non-contiguous mesoscopic variables are copied into
//!   temporary buffers and sent with two-sided messages ("thereby reducing
//!   the required number of send/receive messages", §3.1), through the
//!   stencil exchange every solver shares ([`Exchange`]);
//! * **CAF mode** — boundary strips are `put` directly into the
//!   neighbour's co-array window, eliminating the intermediate copies
//!   (§3.1's Co-array Fortran port).
//!
//! The distributed solver is bit-identical to the serial one — the
//! tests reassemble subdomains and compare them.

use crate::collision::{collide_site, SiteMoments};
use crate::lattice::{C, CB, Q, QB};
use crate::solver::SimulationConfig;
use pvs_core::schedule::Cart2d;
use pvs_mpisim::caf::CoArray;
use pvs_mpisim::event::{Op, RankCtx, RankProgram, Reply, Step};
use pvs_mpisim::{Exchange, Halo};

/// Values carried per lattice site across the halo (Q hydrodynamic + 2·QB
/// magnetic components).
pub const SITE_VALUES: usize = Q + 2 * QB;

/// MPI mode's tags: side `k`'s strip travels under `TAG_BASE + k`.
const TAG_BASE: u64 = 0x1B00;

/// The sides of [`Cart2d::neighbors8`] — E, W, N, S, NE, SE, NW, SW — as
/// lattice steps.
const SIDE_DX: [isize; 8] = [1, -1, 0, 0, 1, 1, -1, -1];
const SIDE_DY: [isize; 8] = [0, 0, 1, -1, 1, -1, 1, -1];

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

/// One rank of the distributed solver: its block of the global grid,
/// run for a fixed number of steps. It finishes with its [`RankField`].
pub struct Subdomain {
    x0: usize,
    y0: usize,
    block: Block,
    mode: ExchangeMode,
    /// `[E, W, N, S, NE, SE, NW, SW]`: where CAF mode puts each strip.
    neighbours: [usize; 8],
    exchange: Exchange<8>,
    /// CAF mode's window, from the first op on.
    window: Option<CoArray>,
    /// CAF mode: the ghosts are read and the closing barrier is in flight.
    reading: bool,
    /// Steps left.
    steps: usize,
}

impl Subdomain {
    /// This rank's block of the `cfg.nx × cfg.ny` global grid decomposed
    /// over `cart`, initialized from global-coordinate moments, to run
    /// `steps` steps exchanging in `mode`.
    pub fn new(
        cfg: SimulationConfig,
        cart: Cart2d,
        rank: usize,
        steps: usize,
        mode: ExchangeMode,
        init: impl Fn(usize, usize) -> SiteMoments,
    ) -> Self {
        assert!(
            cfg.nx.is_multiple_of(cart.px) && cfg.ny.is_multiple_of(cart.py),
            "grid must divide evenly"
        );
        let nx = cfg.nx / cart.px;
        let ny = cfg.ny / cart.py;
        let (cx, cy) = cart.coords(rank);
        let (x0, y0) = (cx * nx, cy * ny);
        let w = nx + 2;
        let mut planes = vec![vec![0.0; w * (ny + 2)]; SITE_VALUES];
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
        let neighbours = cart.neighbors8(rank);
        Self {
            x0,
            y0,
            block: Block {
                nx,
                ny,
                cfg,
                planes,
                scratch: vec![0.0; w * (ny + 2)],
            },
            mode,
            neighbours,
            exchange: Exchange::new(rank, neighbours, Cart2d::OPPOSITE, TAG_BASE),
            window: None,
            reading: false,
            steps,
        }
    }

    /// CAF mode's exchange: put each boundary strip straight into the
    /// neighbour's window, where it is the ghost region of the opposite
    /// side; or, after a barrier, unpack the ghosts from the local window.
    fn caf(&mut self, put: bool) {
        // INFALLIBLE: CAF mode creates its window before the first step.
        let window = self.window.as_ref().expect("co-array window");
        for side in 0..8 {
            if put {
                let (off, len) = self.block.caf_region(Cart2d::OPPOSITE[side]);
                let data = self.block.pack(side);
                assert_eq!(data.len(), len);
                window.put(self.neighbours[side], off, &data);
            } else {
                let (off, len) = self.block.caf_region(side);
                let data = window.get(window.this_image(), off, len);
                self.block.unpack(side, &data);
            }
        }
    }

    /// The ghosts are fresh: stream, and the step is done.
    fn end_step(&mut self) {
        self.block.stream();
        self.steps -= 1;
    }
}

impl RankProgram for Subdomain {
    type Output = RankField;

    fn resume(&mut self, _ctx: &RankCtx, reply: Reply) -> Step<RankField> {
        match (self.mode, reply) {
            (ExchangeMode::Mpi, Reply::Start) => {}
            (ExchangeMode::Mpi, reply) => match self.exchange.resume(reply, &mut self.block) {
                Some(op) => return Step::Op(op),
                None => self.end_step(),
            },
            (ExchangeMode::Caf, Reply::Start) => {
                // The last side's region ends the window.
                let (off, len) = self.block.caf_region(7);
                return Step::Op(Op::CoCreate { len: off + len });
            }
            (ExchangeMode::Caf, Reply::CoCreated(window)) if self.window.is_none() => {
                self.window = Some(window);
            }
            (ExchangeMode::Caf, Reply::BarrierDone) if !self.reading => {
                self.caf(false);
                // A second barrier, so no rank starts the next step's puts
                // while a neighbour is still reading its window.
                self.reading = true;
                return Step::Op(Op::Barrier);
            }
            (ExchangeMode::Caf, Reply::BarrierDone) => {
                self.reading = false;
                self.end_step();
            }
            (ExchangeMode::Caf, other) => panic!(
                "unexpected reply in LBMHD's CAF exchange, {} steps left: {other:?}",
                self.steps
            ),
        }
        while self.steps > 0 {
            self.block.collide();
            match self.mode {
                ExchangeMode::Mpi => match self.exchange.begin(&mut self.block) {
                    Some(op) => return Step::Op(op),
                    None => self.end_step(),
                },
                ExchangeMode::Caf => {
                    self.caf(true);
                    return Step::Op(Op::Barrier);
                }
            }
        }
        let b = &self.block;
        let (bx, by) = (b.site_sums(Q..Q + QB), b.site_sums(Q + QB..SITE_VALUES));
        Step::Finish((self.x0, self.y0, b.nx, b.ny, bx, by))
    }
}

/// A block of the lattice with a one-cell ghost ring.
struct Block {
    nx: usize,
    ny: usize,
    cfg: SimulationConfig,
    /// Distribution planes with ghosts: `plane[p][(y+1)*(nx+2) + (x+1)]`,
    /// planes ordered f₀..f₈, gx₀..gx₄, gy₀..gy₄.
    planes: Vec<Vec<f64>>,
    scratch: Vec<f64>,
}

/// A strip is `[plane-major][cell]`: my cells facing the side I ship,
/// the ghosts facing it I fill.
impl Halo for Block {
    fn pack(&mut self, side: usize) -> Vec<f64> {
        let cells = self.boundary(side);
        let mut buf = Vec::with_capacity(SITE_VALUES * cells.len());
        for p in 0..SITE_VALUES {
            buf.extend(cells.iter().map(|&(x, y)| self.at(p, x, y)));
        }
        buf
    }

    fn unpack(&mut self, side: usize, buf: &[f64]) {
        let cells = self.boundary(side);
        assert_eq!(buf.len(), SITE_VALUES * cells.len());
        let (dx, dy, w) = (SIDE_DX[side], SIDE_DY[side], self.nx + 2);
        for (plane, strip) in self.planes.iter_mut().zip(buf.chunks_exact(cells.len())) {
            for (&(x, y), &v) in cells.iter().zip(strip) {
                plane[((y + dy + 1) as usize) * w + (x + dx + 1) as usize] = v;
            }
        }
    }
}

impl Block {
    #[inline]
    fn at(&self, p: usize, x: isize, y: isize) -> f64 {
        let w = self.nx + 2;
        self.planes[p][((y + 1) as usize) * w + (x + 1) as usize]
    }

    /// Collide all interior sites.
    fn collide(&mut self) {
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

    /// My interior cells facing `side`, y-major; one step to `side`
    /// from each is the ghost its strip fills.
    fn boundary(&self, side: usize) -> Vec<(isize, isize)> {
        let span = |d: isize, n: usize| match d {
            1 => n as isize - 1..n as isize,
            -1 => 0..1,
            _ => 0..n as isize,
        };
        let xs = span(SIDE_DX[side], self.nx);
        span(SIDE_DY[side], self.ny)
            .flat_map(|y| xs.clone().map(move |x| (x, y)))
            .collect()
    }

    /// Side `side`'s ghost region of the CAF window, `(offset, len)`: the
    /// regions follow in side order.
    fn caf_region(&self, side: usize) -> (usize, usize) {
        let len = |k| SITE_VALUES * self.boundary(k).len();
        ((0..side).map(len).sum(), len(side))
    }

    /// Stream all interior sites, reading ghosts at the block boundary.
    fn stream(&mut self) {
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

    /// The sum of `planes` at every interior site (site-indexed
    /// `y * nx + x`).
    fn site_sums(&self, planes: std::ops::Range<usize>) -> Vec<f64> {
        let (nx, ny) = (self.nx as isize, self.ny as isize);
        let sum = |x, y| planes.clone().fold(0.0, |acc, p| acc + self.at(p, x, y));
        (0..ny)
            .flat_map(|y| (0..nx).map(move |x| sum(x, y)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::crossed_current_sheets;
    use crate::solver::Simulation;
    use pvs_mpisim::{run_both, CommStats};

    fn serial_reference(n: usize, steps: usize) -> (Vec<f64>, Vec<f64>) {
        let cfg = SimulationConfig::new(n, n);
        let mut sim =
            Simulation::from_moments(cfg, |x, y| crossed_current_sheets(x, y, n, n, 0.08));
        sim.run(steps);
        let (_, _, _, bx, by) = sim.fields();
        (bx, by)
    }

    fn reassemble(parts: &[(RankField, CommStats)], n: usize) -> (Vec<f64>, Vec<f64>) {
        let mut bx = vec![0.0; n * n];
        let mut by = vec![0.0; n * n];
        for ((x0, y0, nx, ny, pbx, pby), _) in parts {
            for y in 0..*ny {
                for x in 0..*nx {
                    bx[(y0 + y) * n + (x0 + x)] = pbx[y * nx + x];
                    by[(y0 + y) * n + (x0 + x)] = pby[y * nx + x];
                }
            }
        }
        (bx, by)
    }

    /// Run `steps` steps of an `n × n` grid on `px × py` ranks on both
    /// runtimes, which must agree bit for bit, and hold each runtime's
    /// reassembled field to the serial solver's within 1e-13.
    fn assert_matches_serial(n: usize, steps: usize, (px, py): (usize, usize), mode: ExchangeMode) {
        let (sbx, sby) = serial_reference(n, steps);
        let cfg = SimulationConfig::new(n, n);
        let cart = Cart2d::new(px, py);
        let make = |rank, _| {
            Subdomain::new(cfg, cart, rank, steps, mode, |x, y| {
                crossed_current_sheets(x, y, n, n, 0.08)
            })
        };
        let runs = run_both(cart.size(), make, |f: &RankField| {
            [&f.4[..], &f.5[..]].concat()
        });
        // Each runtime's first miss, so a fault in the shared program
        // names both.
        let close = |a: f64, b: f64| (a - b).abs() < 1e-13;
        let misses: Vec<String> = ["v1", "v2"]
            .iter()
            .zip(&runs)
            .filter_map(|(runtime, parts)| {
                let (dbx, dby) = reassemble(parts, n);
                (0..n * n)
                    .find(|&s| !(close(sbx[s], dbx[s]) && close(sby[s], dby[s])))
                    .map(|s| {
                        format!("{runtime}: {px}x{py} {mode:?} differs from serial at site {s}")
                    })
            })
            .collect();
        assert!(misses.is_empty(), "{misses:?}");
    }

    #[test]
    fn mpi_distributed_matches_serial_exactly() {
        assert_matches_serial(16, 8, (2, 2), ExchangeMode::Mpi);
    }

    #[test]
    fn caf_distributed_matches_serial_exactly() {
        assert_matches_serial(16, 8, (2, 2), ExchangeMode::Caf);
    }

    #[test]
    fn asymmetric_process_grids_work() {
        assert_matches_serial(16, 4, (4, 1), ExchangeMode::Mpi);
    }

    fn mass(sub: &Subdomain) -> f64 {
        sub.block.site_sums(0..Q).iter().sum()
    }

    /// A subdomain that also reports its mass before and after its run.
    struct Weighed {
        sub: Subdomain,
        before: f64,
    }

    impl RankProgram for Weighed {
        type Output = [f64; 2];

        fn resume(&mut self, ctx: &RankCtx, reply: Reply) -> Step<[f64; 2]> {
            match self.sub.resume(ctx, reply) {
                Step::Op(op) => Step::Op(op),
                Step::Finish(_) => Step::Finish([self.before, mass(&self.sub)]),
            }
        }
    }

    #[test]
    fn mass_conserved_across_ranks() {
        let n = 16;
        let cfg = SimulationConfig::new(n, n);
        let cart = Cart2d::new(2, 2);
        let make = |rank, _| {
            let sub = Subdomain::new(cfg, cart, rank, 5, ExchangeMode::Mpi, |x, y| {
                crossed_current_sheets(x, y, n, n, 0.08)
            });
            let before = mass(&sub);
            Weighed { sub, before }
        };
        for masses in run_both(4, make, |m: &[f64; 2]| m.to_vec()) {
            let total = |i: usize| masses.iter().map(|(m, _)| m[i]).sum::<f64>();
            let (b, a) = (total(0), total(1));
            assert!((b - a).abs() / b < 1e-12);
        }
    }
}
