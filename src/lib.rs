//! # pvs — Parallel Vector Systems study, reproduced in Rust
//!
//! Facade crate re-exporting the whole workspace: four scientific
//! applications (LBMHD, PARATEC, Cactus, GTC) and the simulated substrate
//! (machine models, memory/network/vector simulators, message-passing
//! runtime, FFT and dense linear algebra) used to reproduce the SC 2004
//! paper *"Scientific Computations on Modern Parallel Vector Systems"*.
//!
//! See the repository `README.md` for a quickstart and `DESIGN.md` for the
//! system inventory and experiment index.

#![forbid(unsafe_code)]

pub use pvs_amr as amr;
pub use pvs_analyze as analyze;
pub use pvs_cactus as cactus;
pub use pvs_core as core;
pub use pvs_fault as fault;
pub use pvs_fft as fft;
pub use pvs_gtc as gtc;
pub use pvs_lbmhd as lbmhd;
pub use pvs_linalg as linalg;
pub use pvs_memsim as memsim;
pub use pvs_mpisim as mpisim;
pub use pvs_netsim as netsim;
pub use pvs_obs as obs;
pub use pvs_paratec as paratec;
pub use pvs_report as report;
pub use pvs_serve as serve;
pub use pvs_vectorsim as vectorsim;
