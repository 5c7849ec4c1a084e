//! # pvs-amr — adaptive mesh refinement, the paper's future work
//!
//! The study closes: *"We are particularly interested in investigating the
//! vector performance of adaptive mesh refinement (AMR) methods, as we
//! believe they will become a key component of future high-fidelity
//! multi-scale physics simulations."* This crate implements that
//! investigation:
//!
//! * [`mesh`] / [`solver`]: a real block-structured, two-level AMR solver
//!   for scalar advection on a doubly periodic 2D domain — tile-based
//!   refinement (each tile either stays coarse or carries a 2× finer
//!   patch), gradient-driven regridding, coarse-fine ghost interpolation,
//!   fine-to-coarse restriction, and sub-cycled time stepping; validated
//!   against the analytic translated-profile solution;
//! * [`perf`]: the vector-performance analysis the authors call for — the
//!   same total work expressed at different AMR tile sizes produces loop
//!   trip counts equal to the tile edge, and the cross-architecture engine
//!   quantifies the outcome: vector machines lose efficiency rapidly as
//!   tiles shrink below the hardware vector length (AVL collapse), while
//!   cache-based superscalar machines are nearly indifferent — AMR's
//!   small-block irregularity is exactly the "additional dimension of
//!   architectural balance" the paper warns about.
//!
//! ## Example
//!
//! ```
//! use pvs_amr::AmrSim;
//!
//! // A steep Gaussian triggers local refinement; far tiles stay coarse.
//! let mut sim = AmrSim::new(4, 8, (1.0, 0.0), 0.05, |x, y| {
//!     (-((x - 16.0).powi(2) + (y - 16.0).powi(2)) / 8.0).exp()
//! });
//! assert!(sim.mesh.refined_tiles() > 0);
//! assert!(sim.mesh.refined_tiles() < 16);
//! sim.run(4);
//! ```

#![forbid(unsafe_code)]

// Index loops mirror the Fortran-style kernels they reproduce (tile sweeps).
#![allow(clippy::needless_range_loop)]

pub mod mesh;
pub mod perf;
pub mod solver;

pub use mesh::{AmrMesh, Tile};
pub use solver::AmrSim;
