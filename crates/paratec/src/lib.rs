//! # pvs-paratec — the material-science application
//!
//! A from-scratch stand-in for PARATEC: ab-initio total-energy
//! calculations with a plane-wave basis and pseudopotentials, solving the
//! Kohn–Sham equations with an all-band conjugate-gradient-style solver
//! (§4 of the paper).
//!
//! **Substitution note** (see DESIGN.md): the full self-consistent DFT
//! machinery (exchange-correlation, nonlocal pseudopotentials, forces) is
//! replaced by the fixed-potential eigenproblem that consumes PARATEC's
//! cycles: find the lowest `nbands` eigenstates of
//! `H = −½∇² + V_loc(r)` in a plane-wave basis, where the kinetic term is
//! diagonal in Fourier space and the local (pseudo)potential is applied in
//! real space through 3D FFTs — "part of the calculation is carried out in
//! real space and the remainder in Fourier space using parallel 3D FFTs to
//! transform the wavefunctions". The computational profile matches the
//! paper's: BLAS3 subspace algebra (~30%), FFTs (~30%), hand-coded
//! loops over the sphere (remainder).
//!
//! * [`basis`]: the G-sphere plane-wave basis for an energy cutoff;
//! * [`hamiltonian`]: kinetic + FFT-applied local potential, with a
//!   Gaussian-well empirical pseudopotential for silicon-like atoms;
//! * [`solver`]: blocked Rayleigh–Ritz eigensolver (orthonormalization +
//!   subspace diagonalization on `pvs-linalg`, preconditioned residual
//!   expansion) — the all-band update;
//! * [`density`]: real-space charge density (the paper's Fig. 3 data);
//! * [`layout`]: the Fourier/real-space parallel data layouts of Fig. 4;
//! * [`perf`]: the Table 4 workload (432 / 686 silicon atoms).
//!
//! ## Example
//!
//! ```
//! use pvs_paratec::basis::PwBasis;
//! use pvs_paratec::hamiltonian::Hamiltonian;
//! use pvs_paratec::solver::{solve_lowest, SolveOptions};
//!
//! // Free electrons: the lowest band energies are the plane-wave kinetic
//! // energies, exactly.
//! let basis = PwBasis::new(8, 1.0);
//! let expected = basis.kinetic[..3].to_vec();
//! let r = solve_lowest(&Hamiltonian::free(basis), SolveOptions::new(3));
//! for (got, want) in r.eigenvalues.iter().zip(&expected) {
//!     assert!((got - want).abs() < 1e-6);
//! }
//! ```

#![forbid(unsafe_code)]

// Index loops mirror the Fortran-style kernels they reproduce (band/coefficient index loops).
#![allow(clippy::needless_range_loop)]

pub mod basis;
pub mod density;
pub mod hamiltonian;
pub mod layout;
pub mod perf;
pub mod scale;
pub mod solver;

pub use basis::PwBasis;
pub use hamiltonian::Hamiltonian;
pub use solver::{solve_lowest, SolveOptions, SolveResult};
