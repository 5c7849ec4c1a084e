//! # pvs-fft — Fourier transform substrate
//!
//! PARATEC transforms electron wavefunctions between Fourier space (a
//! sphere of plane-wave coefficients) and real space (a 3D grid) with
//! specialized parallel 3D FFTs; §4.1 of the paper describes the two
//! porting details this crate reproduces:
//!
//! * vendor 1D FFTs ran poorly on the ES/X1, so the 3D FFT was rewritten
//!   over **simultaneous (multiple) 1D FFTs** that vectorize *across*
//!   transforms — [`multi`] implements exactly that layout and [`fft1d`]
//!   the underlying radix-2 kernels;
//! * global transposes dominate at scale, so only the **non-zero sphere
//!   columns** are communicated — [`sphere`] builds the G-sphere, applies
//!   the paper's greedy column load balancer (Fig. 4a), and reports the
//!   communication-volume saving; [`dist3d`] runs the distributed 3D FFT
//!   (1D FFTs along Z, Y, X with all-to-all transposes between) on the
//!   `pvs-mpisim` runtime.
//!
//! ## Example
//!
//! ```
//! use pvs_fft::{fft, ifft};
//! use pvs_linalg::Complex64;
//!
//! let orig: Vec<Complex64> =
//!     (0..64).map(|i| Complex64::new((i as f64 * 0.3).sin(), 0.0)).collect();
//! let mut data = orig.clone();
//! fft(&mut data);
//! ifft(&mut data);
//! for (a, b) in orig.iter().zip(&data) {
//!     assert!((*a - *b).abs() < 1e-10);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod dist3d;
pub mod fft1d;
pub mod multi;
pub mod sphere;

pub use dist3d::{fft3d_serial, ifft3d_serial, DistFft3};
pub use fft1d::{fft, ifft, FftPlan};
pub use multi::{fft_multi, ifft_multi, MultiFft};
pub use sphere::{balance_columns, gsphere_columns, GColumn};
