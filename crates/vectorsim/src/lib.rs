//! # pvs-vectorsim — vector pipeline execution model
//!
//! Models how the Earth Simulator and Cray X1 execute loop nests, at the
//! level of detail the SC 2004 paper's analysis uses:
//!
//! * **strip-mining** ([`stripmine`]): a loop of `n` iterations runs as
//!   `ceil(n / VL)` vector instructions, whose average chunk size *is* the
//!   hardware AVL counter the paper reports (`ftrace` on the ES, `pat` on
//!   the X1);
//! * **vector-operation-ratio accounting** ([`metrics`]): every element
//!   processed by a vector instruction counts toward VOR's numerator, every
//!   scalar-unit operation toward the denominator's scalar part;
//! * **multistreaming** ([`config`], [`exec`]): the X1 MSP distributes loop
//!   iterations across four SSPs; a vectorized-but-unstreamed loop uses one
//!   SSP (¼ performance) and a fully serial loop uses one SSP's *scalar*
//!   core (1/32 of MSP peak — the asymmetry behind the paper's Cactus and
//!   GTC findings);
//! * **work-vector dependency resolution** ([`workvec`]): Nishiguchi-style
//!   replication of a scatter target across the vector length, trading a
//!   2–8× memory footprint for vectorizability (GTC charge deposition).
//!
//! The paper reads AVL and VOR two ways, from the compiler listing and from
//! the hardware counters. The root test `tests/simulators.rs` mirrors that:
//! it walks the cell registry's ES and X1 cells and holds each loop's
//! closed-form strip arithmetic ([`stripmine`]) to its run through [`exec`].
//!
//! ## Example
//!
//! ```
//! use pvs_vectorsim::{es_processor, LoopClass, MemoryEnv, VectorLoop, VectorUnit};
//!
//! let unit = VectorUnit::new(es_processor());
//! let compute_bound = VectorLoop {
//!     trips: 4096, outer_iters: 100,
//!     flops_per_iter: 64.0, bytes_per_iter: 16.0,
//!     gather_fraction: 0.0, live_vector_temps: 8,
//!     class: LoopClass::Vectorizable { multistreamable: true },
//! };
//! let r = unit.execute(&compute_bound, &MemoryEnv::clean(64.0));
//! assert!(r.gflops() > 4.0);           // well-vectorized: most of 8 GF/s
//! assert!(r.metrics.avl() > 250.0);    // full 256-element strips
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod exec;
pub mod metrics;
pub mod stripmine;
pub mod workvec;

pub use config::{es_processor, x1_msp, x1_ssp, VectorUnitConfig};
pub use exec::{ExecResult, LoopClass, MemoryEnv, VectorLoop, VectorUnit};
pub use metrics::VectorMetrics;
pub use stripmine::{average_vector_length, num_strips};
pub use workvec::{resolve_dependency, DepResolution, ScatterDependency};
