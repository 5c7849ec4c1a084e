//! The serial LBMHD simulation driver.

use crate::collision::{collide_site, moments, SiteMoments};
use crate::lattice::{C, CB, Q, QB};
use crate::stream::shift_periodic;

/// The macroscopic fields `(rho, ux, uy, bx, by)` as site-indexed vectors.
pub type MacroFields = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimulationConfig {
    /// Grid extent in x.
    pub nx: usize,
    /// Grid extent in y.
    pub ny: usize,
    /// Viscous relaxation time (> 0.5).
    pub tau_f: f64,
    /// Resistive relaxation time (> 0.5).
    pub tau_b: f64,
}

impl SimulationConfig {
    /// A stable default configuration.
    pub fn new(nx: usize, ny: usize) -> Self {
        Self {
            nx,
            ny,
            tau_f: 0.8,
            tau_b: 0.9,
        }
    }
}

/// Serial LBMHD simulation state: distribution fields in SoA layout
/// (`field[i * n + site]`, site = `y * nx + x`).
#[derive(Debug, Clone)]
pub struct Simulation {
    /// Parameters.
    pub config: SimulationConfig,
    /// Hydrodynamic distributions.
    f: Vec<f64>,
    /// Magnetic distributions, x component.
    gx: Vec<f64>,
    /// Magnetic distributions, y component.
    gy: Vec<f64>,
    scratch: Vec<f64>,
    steps_taken: usize,
}

impl Simulation {
    /// Initialize from a macroscopic field function evaluated at every grid
    /// point; distributions start at their local equilibrium.
    pub fn from_moments(
        config: SimulationConfig,
        init: impl Fn(usize, usize) -> SiteMoments,
    ) -> Self {
        let n = config.nx * config.ny;
        let mut sim = Self {
            config,
            f: vec![0.0; Q * n],
            gx: vec![0.0; QB * n],
            gy: vec![0.0; QB * n],
            scratch: vec![0.0; n],
            steps_taken: 0,
        };
        for y in 0..config.ny {
            for x in 0..config.nx {
                let m = init(x, y);
                let feq = crate::collision::equilibrium_f(&m);
                let geq = crate::collision::equilibrium_b(&m);
                let s = y * config.nx + x;
                for i in 0..Q {
                    sim.f[i * n + s] = feq[i];
                }
                for i in 0..QB {
                    sim.gx[i * n + s] = geq[i].0;
                    sim.gy[i * n + s] = geq[i].1;
                }
            }
        }
        sim
    }

    /// Number of lattice sites.
    pub fn num_sites(&self) -> usize {
        self.config.nx * self.config.ny
    }

    /// Steps taken so far.
    pub fn steps_taken(&self) -> usize {
        self.steps_taken
    }

    /// Collision sub-step over all sites (dependence-free point updates).
    pub fn collide(&mut self) {
        let n = self.num_sites();
        let (tau_f, tau_b) = (self.config.tau_f, self.config.tau_b);
        for s in 0..n {
            let mut fs = [0.0; Q];
            for i in 0..Q {
                fs[i] = self.f[i * n + s];
            }
            let mut gs = [(0.0, 0.0); QB];
            for i in 0..QB {
                gs[i] = (self.gx[i * n + s], self.gy[i * n + s]);
            }
            collide_site(&mut fs, &mut gs, tau_f, tau_b);
            for i in 0..Q {
                self.f[i * n + s] = fs[i];
            }
            for i in 0..QB {
                self.gx[i * n + s] = gs[i].0;
                self.gy[i * n + s] = gs[i].1;
            }
        }
    }

    /// Streaming sub-step: shift every distribution along its lattice
    /// direction with periodic wraparound.
    pub fn stream(&mut self) {
        let n = self.num_sites();
        let (nx, ny) = (self.config.nx, self.config.ny);
        for i in 1..Q {
            let (dx, dy) = C[i];
            let src = &self.f[i * n..(i + 1) * n];
            shift_periodic(src, &mut self.scratch, nx, ny, dx, dy);
            self.f[i * n..(i + 1) * n].copy_from_slice(&self.scratch);
        }
        for i in 1..QB {
            let (dx, dy) = CB[i];
            for comp in 0..2 {
                let field = if comp == 0 {
                    &mut self.gx
                } else {
                    &mut self.gy
                };
                let src = &field[i * n..(i + 1) * n];
                shift_periodic(src, &mut self.scratch, nx, ny, dx, dy);
                field[i * n..(i + 1) * n].copy_from_slice(&self.scratch);
            }
        }
    }

    /// One full time step (collide then stream).
    pub fn step(&mut self) {
        self.collide();
        self.stream();
        self.steps_taken += 1;
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Macroscopic moments at a site.
    pub fn moments_at(&self, x: usize, y: usize) -> SiteMoments {
        let n = self.num_sites();
        let s = y * self.config.nx + x;
        let mut fs = [0.0; Q];
        for i in 0..Q {
            fs[i] = self.f[i * n + s];
        }
        let mut gs = [(0.0, 0.0); QB];
        for i in 0..QB {
            gs[i] = (self.gx[i * n + s], self.gy[i * n + s]);
        }
        moments(&fs, &gs)
    }

    /// All macroscopic fields as flat site-indexed vectors
    /// `(rho, ux, uy, bx, by)`.
    pub fn fields(&self) -> MacroFields {
        let n = self.num_sites();
        let mut rho = vec![0.0; n];
        let mut ux = vec![0.0; n];
        let mut uy = vec![0.0; n];
        let mut bx = vec![0.0; n];
        let mut by = vec![0.0; n];
        for y in 0..self.config.ny {
            for x in 0..self.config.nx {
                let m = self.moments_at(x, y);
                let s = y * self.config.nx + x;
                rho[s] = m.rho;
                ux[s] = m.u.0;
                uy[s] = m.u.1;
                bx[s] = m.b.0;
                by[s] = m.b.1;
            }
        }
        (rho, ux, uy, bx, by)
    }

    /// Global invariants `(total mass, total momentum, total B)`.
    pub fn invariants(&self) -> (f64, (f64, f64), (f64, f64)) {
        let n = self.num_sites();
        let mut mass = 0.0;
        let mut mom = (0.0, 0.0);
        let mut btot = (0.0, 0.0);
        for i in 0..Q {
            let (cx, cy) = (C[i].0 as f64, C[i].1 as f64);
            for s in 0..n {
                let v = self.f[i * n + s];
                mass += v;
                mom.0 += v * cx;
                mom.1 += v * cy;
            }
        }
        for i in 0..QB {
            for s in 0..n {
                btot.0 += self.gx[i * n + s];
                btot.1 += self.gy[i * n + s];
            }
        }
        (mass, mom, btot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::{kinetic_energy, magnetic_energy};

    fn uniform(config: SimulationConfig) -> Simulation {
        Simulation::from_moments(config, |_, _| SiteMoments {
            rho: 1.0,
            u: (0.0, 0.0),
            b: (0.0, 0.0),
        })
    }

    #[test]
    fn uniform_state_is_stationary() {
        let mut sim = uniform(SimulationConfig::new(16, 16));
        let before = sim.moments_at(5, 7);
        sim.run(10);
        let after = sim.moments_at(5, 7);
        assert!((before.rho - after.rho).abs() < 1e-13);
        assert!(after.u.0.abs() < 1e-13 && after.u.1.abs() < 1e-13);
    }

    #[test]
    fn invariants_conserved() {
        let cfg = SimulationConfig::new(24, 24);
        let mut sim = Simulation::from_moments(cfg, |x, y| SiteMoments {
            rho: 1.0 + 0.05 * ((x as f64 * 0.3).sin() * (y as f64 * 0.4).cos()),
            u: (
                0.02 * (y as f64 * 0.26).sin(),
                -0.02 * (x as f64 * 0.26).sin(),
            ),
            b: (
                0.03 * (y as f64 * 0.26).cos(),
                0.03 * (x as f64 * 0.26).cos(),
            ),
        });
        let (m0, p0, b0) = sim.invariants();
        sim.run(20);
        let (m1, p1, b1) = sim.invariants();
        assert!((m0 - m1).abs() / m0 < 1e-12, "mass");
        assert!(
            (p0.0 - p1.0).abs() < 1e-10 && (p0.1 - p1.1).abs() < 1e-10,
            "momentum"
        );
        assert!(
            (b0.0 - b1.0).abs() < 1e-10 && (b0.1 - b1.1).abs() < 1e-10,
            "flux"
        );
    }

    #[test]
    fn shear_wave_decays_at_viscous_rate() {
        // ux = A sin(k y) decays like exp(-ν k² t).
        let n = 32;
        let cfg = SimulationConfig {
            nx: n,
            ny: n,
            tau_f: 0.8,
            tau_b: 0.8,
        };
        let k = 2.0 * std::f64::consts::PI / n as f64;
        let a0 = 0.01;
        let mut sim = Simulation::from_moments(cfg, |_, y| SiteMoments {
            rho: 1.0,
            u: (a0 * (k * y as f64).sin(), 0.0),
            b: (0.0, 0.0),
        });
        let steps = 200;
        sim.run(steps);
        // Measure the remaining amplitude of the sin(ky) mode of ux.
        let (_, ux, _, _, _) = sim.fields();
        let mut amp = 0.0;
        for y in 0..n {
            amp += ux[y * n] * (k * y as f64).sin();
        }
        amp *= 2.0 / n as f64;
        let nu = crate::collision::viscosity(cfg.tau_f);
        let expect = a0 * (-nu * k * k * steps as f64).exp();
        assert!(
            (amp - expect).abs() / expect < 0.05,
            "measured {amp}, theory {expect}"
        );
    }

    #[test]
    fn magnetic_mode_decays_at_resistive_rate() {
        // bx = A sin(k y), u = 0 decays like exp(-η k² t).
        let n = 32;
        let cfg = SimulationConfig {
            nx: n,
            ny: n,
            tau_f: 0.8,
            tau_b: 1.2,
        };
        let k = 2.0 * std::f64::consts::PI / n as f64;
        let a0 = 0.01;
        let mut sim = Simulation::from_moments(cfg, |_, y| SiteMoments {
            rho: 1.0,
            u: (0.0, 0.0),
            b: (a0 * (k * y as f64).sin(), 0.0),
        });
        let steps = 200;
        sim.run(steps);
        let (_, _, _, bx, _) = sim.fields();
        let mut amp = 0.0;
        for y in 0..n {
            amp += bx[y * n] * (k * y as f64).sin();
        }
        amp *= 2.0 / n as f64;
        let eta = crate::collision::resistivity(cfg.tau_b);
        let expect = a0 * (-eta * k * k * steps as f64).exp();
        assert!(
            (amp - expect).abs() / expect < 0.05,
            "measured {amp}, theory {expect}"
        );
    }

    #[test]
    fn alfven_wave_oscillates_at_the_alfven_frequency() {
        // The hallmark of MHD: a transverse velocity perturbation on a
        // background field B0 x̂ propagates as an Alfvén wave with
        // v_A = B0/√ρ. A standing wave u_y = a sin(kx) swaps its energy
        // into b_y = a sin(kx) after a quarter period T/4 = π/(2 k v_A).
        let n = 64;
        let cfg = SimulationConfig {
            nx: n,
            ny: n,
            tau_f: 0.6,
            tau_b: 0.6,
        };
        let b0 = 0.1;
        let a0 = 0.005;
        let k = 2.0 * std::f64::consts::PI / n as f64;
        let mut sim = Simulation::from_moments(cfg, |x, _| SiteMoments {
            rho: 1.0,
            u: (0.0, a0 * (k * x as f64).sin()),
            b: (b0, 0.0),
        });
        let v_a = b0; // rho = 1
        let quarter_period = (std::f64::consts::PI / (2.0 * k * v_a)).round() as usize;
        sim.run(quarter_period);
        // Project u_y onto sin(kx) and b_y onto cos(kx): the induction
        // equation gives ∂t b_y ∝ ∂x u_y, so the magnetic mode appears a
        // quarter wavelength out of phase.
        let (_, _, uy, _, by) = sim.fields();
        let mut amp_u = 0.0;
        let mut amp_b = 0.0;
        for x in 0..n {
            amp_u += uy[x] * (k * x as f64).sin();
            amp_b += by[x] * (k * x as f64).cos();
        }
        amp_u *= 2.0 / n as f64;
        amp_b *= 2.0 / n as f64;
        assert!(
            amp_u.abs() < 0.25 * a0,
            "kinetic mode nearly empty at T/4: {amp_u} vs {a0}"
        );
        assert!(
            (amp_b.abs() - a0).abs() < 0.25 * a0,
            "magnetic mode nearly full at T/4: {amp_b} vs {a0}"
        );
    }

    #[test]
    fn energies_decay_from_turbulent_initial_conditions() {
        let cfg = SimulationConfig::new(32, 32);
        let mut sim =
            Simulation::from_moments(cfg, |x, y| crate::init::orszag_tang(x, y, 32, 32, 0.05));
        let (_, ux0, uy0, bx0, by0) = sim.fields();
        let e0 = kinetic_energy(&ux0, &uy0) + magnetic_energy(&bx0, &by0);
        sim.run(100);
        let (_, ux1, uy1, bx1, by1) = sim.fields();
        let e1 = kinetic_energy(&ux1, &uy1) + magnetic_energy(&bx1, &by1);
        assert!(e1 < e0, "dissipative MHD must lose energy: {e0} -> {e1}");
        assert!(e1 > 0.1 * e0, "but not all of it in 100 steps");
    }
}
