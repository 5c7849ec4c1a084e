//! # pvs-report — table rendering and paper reference data
//!
//! Holds the published numbers from every evaluation table of the SC 2004
//! paper ([`paper`]), generic text table rendering ([`tables`]),
//! and paper-vs-model comparison helpers ([`compare`]) used by the
//! `pvs-bench` regeneration commands and by EXPERIMENTS.md.
//!
//! ## Example
//!
//! ```
//! use pvs_report::paper;
//!
//! // The paper's own Table 3: the ES ran LBMHD at 4.62 Gflops/P on 16
//! // processors of the 4096^2 grid.
//! let cell = paper::lookup(&paper::table3(), "4096x4096", 16, "ES");
//! assert_eq!(cell, Some((4.62, 58.0)));
//! ```

#![forbid(unsafe_code)]

pub mod compare;
pub mod image;
pub mod json;
pub mod paper;
pub mod tables;

pub use compare::{shape_checks, Comparison, ShapeCheck};
pub use image::{encode_pgm, save_pgm};
pub use paper::{table3, table4, table5, table6, table7, PaperRow, MACHINES};
pub use tables::Table;
