//! # pvs-bench — the benchmark and regeneration harness
//!
//! One `pvs` binary (`src/bin/pvs.rs`) with one command per table,
//! figure, sweep, harness and server ([`commands`]), backed by the
//! generators in [`tablegen`] and [`figures`]; host wall-clock timing
//! for the commands lives in [`harness`].
//!
//! ```text
//! cargo run -p pvs-bench --bin pvs -- table3      # LBMHD, model vs paper
//! cargo run -p pvs-bench --bin pvs -- fig9       # sustained %peak bars
//! ```

#![forbid(unsafe_code)]

pub mod chaos;
pub mod cli;
pub mod commands;
pub mod figures;
pub mod harness;
pub mod profile;
pub mod rankscale;
pub mod serveload;
pub mod tablegen;

pub use tablegen::{
    fig9_model, table1_text, table2_text, table3_model, table4_model, table5_model, table6_model,
    table7_model, TableOutput,
};
