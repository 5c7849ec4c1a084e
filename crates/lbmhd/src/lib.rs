//! # pvs-lbmhd — Lattice-Boltzmann magnetohydrodynamics
//!
//! A from-scratch implementation of the study's plasma-physics application:
//! a 2D lattice-Boltzmann method for dissipative incompressible MHD in the
//! style of Dellar (J. Comput. Phys. 2002) and Macnab et al., simulating a
//! conducting fluid decaying from simple initial conditions into current
//! sheets (the paper's Fig. 1 shows two cross-shaped current structures).
//!
//! Structure:
//!
//! * [`lattice`]: the streaming lattice — nine velocity directions (eight
//!   plus the null vector, as in the paper) for the hydrodynamic
//!   distributions and five for the vector-valued magnetic distributions —
//!   with the moment identities the scheme relies on;
//! * [`collision`]: the BGK collision step, whose equilibrium carries the
//!   full Maxwell stress `ρuu + (p + B²/2)I − BB` so the Lorentz force
//!   emerges from the second moment, and the magnetic equilibrium carries
//!   the induction flux `uB − Bu`;
//! * [`stream`]: the streaming step (dense and strided copies), plus the
//!   octagonal-lattice interpolation variant with third-degree polynomial
//!   evaluation that the paper's stream step performs;
//! * [`init`] / [`diagnostics`]: cross-shaped current-sheet initial
//!   conditions and current-density/energy diagnostics (Fig. 1's data);
//! * [`solver`]: the serial simulation driver;
//! * [`parallel`]: the 2D block-decomposed distributed solver with both
//!   MPI-style buffered exchanges and CAF-style one-sided puts (the X1's
//!   two ports in Table 3);
//! * [`perf`]: the instrumented workload descriptor that regenerates
//!   Table 3 through `pvs-core`'s engine.
//!
//! ## Example
//!
//! ```
//! use pvs_lbmhd::init::crossed_current_sheets;
//! use pvs_lbmhd::solver::{Simulation, SimulationConfig};
//!
//! let n = 32;
//! let cfg = SimulationConfig::new(n, n);
//! let mut sim = Simulation::from_moments(cfg, |x, y| crossed_current_sheets(x, y, n, n, 0.08));
//! let (mass0, ..) = sim.invariants();
//! sim.run(20);
//! let (mass1, ..) = sim.invariants();
//! assert!((mass0 - mass1).abs() / mass0 < 1e-12);
//! ```

#![forbid(unsafe_code)]

// Index loops mirror the Fortran-style kernels they reproduce (SoA plane gathers).
#![allow(clippy::needless_range_loop)]

pub mod collision;
pub mod diagnostics;
pub mod init;
pub mod lattice;
pub mod octagonal;
pub mod parallel;
pub mod perf;
pub mod scale;
pub mod solver;
pub mod stream;

pub use diagnostics::{current_density, kinetic_energy, magnetic_energy};
pub use solver::{Simulation, SimulationConfig};
