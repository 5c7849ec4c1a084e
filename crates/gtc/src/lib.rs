//! # pvs-gtc — the magnetic-fusion application
//!
//! A from-scratch stand-in for the Gyrokinetic Toroidal Code evaluated in
//! the paper: a particle-in-cell solver for gyrophase-averaged
//! Vlasov–Poisson dynamics of charged rings in a strong magnetic field.
//!
//! **Substitution note** (see DESIGN.md): GTC's 3D toroidal geometry is
//! replaced by a doubly periodic 2D slab perpendicular to `B = B ẑ` — the
//! plane in which the gyroaverage, the E×B turbulent transport, and every
//! performance-relevant code structure live:
//!
//! * [`deposit`]: the **4-point gyroaveraged charge deposition** (paper
//!   Fig. 8b) — each particle is a charged ring sampled at four points,
//!   each bilinearly scattered to the grid. Two interchangeable
//!   implementations: serial scatter and the Nishiguchi **work-vector**
//!   vectorization (lane-private grids + reduction, cf.
//!   `pvs-vectorsim::workvec`);
//! * [`field`]: the gyrokinetic (screened) Poisson solve
//!   `−∇²φ + φ/λ² = ρ` by conjugate gradient, and `E = −∇φ`;
//! * [`push`]: gyroaveraged field gather and second-order E×B drift push;
//! * [`shift`]: the particle-migration routine between 1D domains — the
//!   nested-`if` form the X1 compiler could not vectorize and the
//!   split-condition rewrite that cut its overhead from 54% to 4% (§6.1);
//! * [`sim`]: serial and distributed drivers with conservation and drift
//!   physics tests;
//! * [`perf`]: the Table 6 workload (10 and 100 particles per cell).
//!
//! ## Example
//!
//! ```
//! use pvs_gtc::sim::{GtcConfig, GtcSim};
//!
//! let mut sim = GtcSim::new(GtcConfig::new(16, 16, 4), 1, 0.2);
//! let q0 = sim.particles.total_charge();
//! sim.run(3);
//! assert!((sim.particles.total_charge() - q0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]

// Index loops mirror the Fortran-style kernels they reproduce (particle/grid index loops).
#![allow(clippy::needless_range_loop)]

pub mod deposit;
pub mod field;
pub mod grid2d;
pub mod particles;
pub mod perf;
pub mod scale;
pub mod push;
pub mod shift;
pub mod sim;

pub use grid2d::Grid2d;
pub use particles::Particles;
pub use sim::{GtcConfig, GtcSim};
