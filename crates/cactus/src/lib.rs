//! # pvs-cactus — the astrophysics application
//!
//! A from-scratch stand-in for the Cactus ADM-BSSN general-relativity
//! solver evaluated in the paper: Einstein's equations as an initial-value
//! problem on a regular 3D grid, solved with the method of finite
//! differences and evolved with the iterative Crank–Nicholson scheme the
//! paper names (§5).
//!
//! **Substitution note** (see DESIGN.md): the full nonlinear BSSN system is
//! ~84 000 lines with thousands of RHS terms; we evolve the *linearized*
//! ADM equations — metric perturbation `h_ij` and extrinsic curvature
//! `k_ij`, twelve coupled fields — which exercise the identical
//! computational structure: a wide stencil loop over many simultaneously
//! swept grid functions (the register-pressure and prefetch-stream
//! behaviour §5.2 analyses), ghost-zone exchanges, radiation boundary
//! conditions (the unvectorized hotspot of the ES port), and constraint
//! monitoring. Gravitational plane waves propagate with the correct speed
//! and the linearized Hamiltonian/momentum constraints are preserved —
//! the physics tests verify both.
//!
//! * [`grid`]: multi-field 3D grid with ghost zones;
//! * [`rhs`]: the evolution equations `∂t h = −2k`, `∂t k = −½∇²h`;
//! * [`icn`]: the iterative Crank–Nicholson integrator;
//! * [`boundary`]: periodic and Sommerfeld (radiation) boundaries;
//! * [`solver`]: the serial driver with constraint diagnostics;
//! * [`halo`]: the block-decomposed distributed solver;
//! * [`perf`]: the Table 5 workload (80³ and 250×64×64 per processor,
//!   weak scaling).
//!
//! ## Example
//!
//! ```
//! use pvs_cactus::solver::{tt_plane_wave, CactusConfig, CactusSim};
//!
//! let n = 12;
//! let mut sim = CactusSim::from_fields(CactusConfig::periodic_cube(n), |_, _, z| {
//!     tt_plane_wave(z, n, 0.01)
//! });
//! sim.run(8);
//! assert!(sim.constraint_violation() < 1e-10);
//! ```

#![forbid(unsafe_code)]

// Index loops mirror the Fortran-style kernels they reproduce (multi-field stencil loops).
#![allow(clippy::needless_range_loop)]

pub mod boundary;
pub mod grid;
pub mod halo;
pub mod icn;
pub mod perf;
pub mod scale;
pub mod rhs;
pub mod solver;

pub use grid::Grid3;
pub use solver::{CactusConfig, CactusSim};
