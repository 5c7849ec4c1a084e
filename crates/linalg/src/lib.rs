//! # pvs-linalg — dense linear algebra substrate
//!
//! PARATEC spends ~30% of its runtime in vendor BLAS3 and relies on
//! orthonormalization and subspace diagonalization inside its all-band
//! conjugate-gradient solver; GTC needs an SPD solver for its Poisson
//! equation. This crate provides those kernels from scratch:
//!
//! * [`complex`]: a `Complex64` value type (plane-wave coefficients are
//!   complex);
//! * [`matrix`]: real and complex dense matrices (column-major, BLAS
//!   convention);
//! * [`gemm`]: blocked matrix-matrix multiply — the BLAS3 workhorse — with
//!   naive reference implementations for validation;
//! * [`blas1`]: dots, axpys and norms;
//! * [`orth`]: modified Gram–Schmidt orthonormalization of complex bases;
//! * [`eig`]: Jacobi eigensolvers (real symmetric and complex Hermitian)
//!   for subspace diagonalization;
//! * [`cg`]: conjugate gradient for SPD operators.
//!
//! ## Example
//!
//! ```
//! use pvs_linalg::{dgemm, Matrix};
//!
//! let a = Matrix::from_fn(16, 16, |i, j| (i + 2 * j) as f64);
//! let mut c = Matrix::zeros(16, 16);
//! dgemm(1.0, &a, &Matrix::identity(16), 0.0, &mut c);
//! assert!(c.max_abs_diff(&a) < 1e-12);
//! ```

#![forbid(unsafe_code)]

// Index loops mirror the Fortran-style kernels they reproduce (BLAS-style index loops).
#![allow(clippy::needless_range_loop)]

pub mod blas1;
pub mod cg;
pub mod complex;
pub mod eig;
pub mod gemm;
pub mod matrix;
pub mod orth;

pub use blas1::{axpy, dot, nrm2, zaxpy, zdotc, znrm2};
pub use cg::{cg_solve, CgResult};
pub use complex::Complex64;
pub use eig::{eigh, eigh_real};
pub use gemm::{dgemm, dgemm_naive, zgemm, zgemm_naive};
pub use matrix::{Matrix, ZMatrix};
pub use orth::{gram_schmidt, gram_schmidt_robust, orthonormality_error};
