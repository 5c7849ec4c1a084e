//! Serial and distributed GTC drivers.

use crate::deposit::{deposit_gyro_serial, deposit_gyro_workvector};
use crate::field::{electric_field, solve_potential};
use crate::grid2d::Grid2d;
use crate::particles::Particles;
use crate::push::push_particles;
use crate::shift::{shift_exchange, shift_particles, Migrants};
use pvs_mpisim::event::{Op, RankCtx, RankProgram, Reply, Step};
use pvs_mpisim::Exchange;

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct GtcConfig {
    /// Grid extent in x.
    pub nx: usize,
    /// Grid extent in y.
    pub ny: usize,
    /// Particles per grid cell (the paper's 10 / 100 knob).
    pub particles_per_cell: usize,
    /// Magnetic field strength.
    pub b: f64,
    /// Inverse squared screening length of the gyrokinetic Poisson
    /// equation.
    pub inv_lambda2: f64,
    /// Time step.
    pub dt: f64,
    /// Work-vector lanes for vectorized deposition (`None` = serial
    /// scatter).
    pub work_vector_lanes: Option<usize>,
}

impl GtcConfig {
    /// A stable default on an `nx × ny` grid.
    pub fn new(nx: usize, ny: usize, particles_per_cell: usize) -> Self {
        Self {
            nx,
            ny,
            particles_per_cell,
            b: 1.0,
            inv_lambda2: 1.0,
            dt: 0.2,
            work_vector_lanes: None,
        }
    }
}

/// The serial simulation state.
pub struct GtcSim {
    /// Parameters.
    pub config: GtcConfig,
    /// Marker particles.
    pub particles: Particles,
    /// Deposited (gyroaveraged) charge density, minus the neutralizing
    /// background.
    pub rho: Grid2d,
    /// Electrostatic potential.
    pub phi: Grid2d,
    steps_taken: usize,
}

impl GtcSim {
    /// Initialize with uniformly loaded particles (plus a density
    /// perturbation via weights if `perturb` is nonzero).
    pub fn new(config: GtcConfig, seed: u64, perturb: f64) -> Self {
        let n = config.nx * config.ny * config.particles_per_cell;
        let mut particles = Particles::load_uniform(n, config.nx, config.ny, 2.0, seed);
        if perturb != 0.0 {
            let k = 2.0 * std::f64::consts::PI / config.nx as f64;
            for i in 0..particles.len() {
                let w = particles.w[i];
                particles.w[i] = w * (1.0 + perturb * (k * particles.x[i]).sin());
            }
        }
        Self {
            config,
            particles,
            rho: Grid2d::new(config.nx, config.ny),
            phi: Grid2d::new(config.nx, config.ny),
            steps_taken: 0,
        }
    }

    /// One full PIC cycle: deposit → subtract background → solve → push.
    pub fn step(&mut self) {
        self.deposit();
        self.solve_and_push();
        self.steps_taken += 1;
    }

    /// Deposit the particles' gyroaveraged charge into a cleared `rho`.
    fn deposit(&mut self) {
        self.rho.clear();
        match self.config.work_vector_lanes {
            Some(lanes) => deposit_gyro_workvector(&self.particles, &mut self.rho, lanes),
            None => deposit_gyro_serial(&self.particles, &mut self.rho),
        }
    }

    /// Subtract the quasi-neutral background from `rho` (its mean, so the
    /// screened solve sees only fluctuations), solve for `phi` and push
    /// the particles in its field.
    fn solve_and_push(&mut self) {
        let mean = self.rho.total() / self.rho.len() as f64;
        for v in self.rho.as_mut_slice() {
            *v -= mean;
        }
        self.phi = solve_potential(&self.rho, self.config.inv_lambda2, 1e-8);
        let (ex, ey) = electric_field(&self.phi);
        push_particles(&mut self.particles, &ex, &ey, self.config.b, self.config.dt);
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Steps taken.
    pub fn steps_taken(&self) -> usize {
        self.steps_taken
    }

    /// Field energy `½ Σ ρ φ` (the electrostatic fluctuation energy).
    pub fn field_energy(&self) -> f64 {
        0.5 * self
            .rho
            .as_slice()
            .iter()
            .zip(self.phi.as_slice())
            .map(|(r, p)| r * p)
            .sum::<f64>()
    }
}

/// One rank of the distributed GTC on a 1D slab decomposition in y, run
/// for a fixed number of steps: local deposit, global field reduction,
/// redundant solve (GTC solves its field on a per-plane basis; our 2D
/// field is small relative to particle work), push, shift. It finishes
/// with its particles.
pub struct GtcRank {
    sim: GtcSim,
    exchange: Exchange<2>,
    outbox: [Vec<f64>; 2],
    /// Steps left.
    steps: usize,
}

impl GtcRank {
    /// Rank `rank` of `size`, starting from `sim`, to run `steps` steps.
    pub fn new(sim: GtcSim, rank: usize, size: usize, steps: usize) -> Self {
        let (exchange, outbox) = (shift_exchange(rank, size), Default::default());
        GtcRank {
            sim,
            exchange,
            outbox,
            steps,
        }
    }

    /// Deposit and sum the charge grid of the next step, or finish.
    fn next_step(&mut self) -> Step<Particles> {
        if self.steps == 0 {
            return Step::Finish(std::mem::take(&mut self.sim.particles));
        }
        self.sim.deposit();
        // Ring-points may deposit into other ranks' slabs: the global grid
        // is replicated.
        let data = self.sim.rho.as_slice().to_vec();
        Step::Op(Op::AllreduceSum { data })
    }
}

impl RankProgram for GtcRank {
    type Output = Particles;

    fn resume(&mut self, ctx: &RankCtx, reply: Reply) -> Step<Particles> {
        let (sim, outbox) = (&mut self.sim, &mut self.outbox);
        let shifting = match reply {
            Reply::Start => return self.next_step(),
            Reply::Reduced(summed) => {
                sim.rho.as_mut_slice().copy_from_slice(&summed);
                sim.solve_and_push();
                let p = &mut sim.particles;
                shift_particles(p, outbox, ctx.rank, ctx.size, sim.config.ny);
                self.exchange.begin(&mut Migrants(p, outbox))
            }
            reply => self
                .exchange
                .resume(reply, &mut Migrants(&mut sim.particles, outbox)),
        };
        let Some(op) = shifting else {
            self.steps -= 1;
            return self.next_step();
        };
        Step::Op(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvs_mpisim::run_both;

    #[test]
    fn charge_is_conserved_over_steps() {
        let mut sim = GtcSim::new(GtcConfig::new(16, 16, 4), 1, 0.1);
        let q0 = sim.particles.total_charge();
        sim.run(5);
        assert!((sim.particles.total_charge() - q0).abs() < 1e-9);
        assert_eq!(sim.steps_taken(), 5);
    }

    #[test]
    fn unperturbed_plasma_stays_quiet() {
        // Uniform weights + uniform load: fluctuations stay at noise level.
        let mut sim = GtcSim::new(GtcConfig::new(16, 16, 16), 2, 0.0);
        sim.step();
        let e0 = sim.field_energy().abs();
        sim.run(10);
        let e1 = sim.field_energy().abs();
        assert!(
            e1 < 10.0 * e0.max(1e-9),
            "noise must not blow up: {e0} -> {e1}"
        );
    }

    #[test]
    fn perturbation_creates_field_energy() {
        let mut quiet = GtcSim::new(GtcConfig::new(16, 16, 8), 3, 0.0);
        let mut loud = GtcSim::new(GtcConfig::new(16, 16, 8), 3, 0.5);
        quiet.step();
        loud.step();
        assert!(
            loud.field_energy().abs() > 3.0 * quiet.field_energy().abs(),
            "perturbed: {} vs quiet: {}",
            loud.field_energy(),
            quiet.field_energy()
        );
    }

    #[test]
    fn work_vector_mode_matches_serial_trajectory() {
        let mut a = GtcSim::new(GtcConfig::new(12, 12, 6), 4, 0.2);
        let mut b = GtcSim::new(
            GtcConfig {
                work_vector_lanes: Some(16),
                ..GtcConfig::new(12, 12, 6)
            },
            4,
            0.2,
        );
        a.run(3);
        b.run(3);
        for i in 0..a.particles.len() {
            assert!(
                (a.particles.x[i] - b.particles.x[i]).abs() < 1e-8,
                "particle {i}"
            );
            assert!((a.particles.y[i] - b.particles.y[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn distributed_conserves_global_charge() {
        let cfg = GtcConfig::new(16, 16, 4);
        // Each rank loads its own population, confined to its slab.
        let load = |rank: usize| {
            let mut sim = GtcSim::new(cfg, 10 + rank as u64, 0.1);
            let slab = cfg.ny as f64 / 4.0;
            let y0 = rank as f64 * slab;
            for y in sim.particles.y.iter_mut() {
                *y = y0 + (*y / cfg.ny as f64) * slab;
            }
            sim
        };
        let before: f64 = (0..4).map(|rank| load(rank).particles.total_charge()).sum();
        let make = |rank, size| GtcRank::new(load(rank), rank, size, 3);
        let bits = |p: &Particles| [&p.x[..], &p.y[..], &p.rho[..], &p.w[..]].concat();
        for run in run_both(4, make, bits) {
            let after: f64 = run.iter().map(|(p, _)| p.total_charge()).sum();
            assert!((before - after).abs() / before < 1e-12);
        }
    }
}
