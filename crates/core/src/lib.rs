//! # pvs-core — machine models and the cross-architecture performance engine
//!
//! This crate is the primary contribution of the reproduction: the
//! evaluation framework that the SC 2004 study applied by hand across five
//! supercomputers. It contains
//!
//! * [`machine`]: the architectural description of a platform — every
//!   quantity in the paper's Table 1 plus the microarchitectural detail
//!   (vector length, cache geometry, bank structure, prefetch engines) that
//!   the per-application analysis sections rely on;
//! * [`platforms`]: the five machines of the study (IBM Power3, IBM Power4,
//!   SGI Altix 3000, NEC Earth Simulator, Cray X1) with values transcribed
//!   from Table 1 and §2;
//! * [`phase`]: the *phase IR* — a machine-independent description of what
//!   an application does (vectorizable loop nests, scalar segments, and
//!   communication patterns), produced by the instrumented application
//!   crates (`pvs-lbmhd`, `pvs-paratec`, `pvs-cactus`, `pvs-gtc`);
//! * [`engine`]: the execution model that maps a phase stream onto a
//!   machine, producing wall-clock time, Gflop/s per processor, percentage
//!   of peak, AVL and VOR — the exact columns of Tables 3–6, plus the
//!   [`engine::run_sweep`] batch API that fans a machine × workload ×
//!   procs grid out across host cores with deterministic result ordering;
//! * [`pool`]: std-only executors (no external crates — the whole
//!   workspace builds offline): `map_slice`, which runs `run_sweep` on
//!   the caller plus process-wide helpers parked between calls, and the
//!   long-lived `ThreadPool` the serve store, profile and chaos keep;
//! * [`rng`]: deterministic in-tree SplitMix64/PCG32 generators replacing
//!   `rand`, so every seeded simulation is bit-reproducible;
//! * [`hash`]: stable FNV-1a content hashing (unlike `DefaultHasher`,
//!   never randomly seeded), used by the serving layer to address cells;
//! * [`json`]: the workspace's one JSON codec — writer, pretty-printer
//!   and parser — shared by every document, wire format and CLI.
//!
//! ## Example
//!
//! ```
//! use pvs_core::{engine::Engine, phase::{Phase, VectorizationInfo}, platforms};
//! use pvs_memsim::AccessPattern;
//!
//! // A low-intensity streaming loop (LBMHD-like) on two architectures.
//! let phase = Phase::loop_nest("collision", 4096, 1024)
//!     .flops_per_iter(26.0)
//!     .bytes_per_iter(144.0)
//!     .pattern(AccessPattern::UnitStride)
//!     .working_set(64 << 20)
//!     .vector(VectorizationInfo::full());
//!
//! let es = Engine::new(platforms::earth_simulator()).run(&[phase.clone()], 64);
//! let p3 = Engine::new(platforms::power3()).run(&[phase], 64);
//! assert!(es.gflops_per_p > 10.0 * p3.gflops_per_p);
//! ```

#![forbid(unsafe_code)]

pub mod adversity;
pub mod engine;
pub mod hash;
pub mod json;
pub mod kernel;
pub mod machine;
pub mod phase;
pub mod platforms;
pub mod pool;
pub mod report;
pub mod rng;
pub mod schema;

pub use adversity::Adversity;
pub use engine::{run_sweep, run_sweep_threads, Engine, SweepJob};
pub use hash::{fnv1a, fnv1a_hex, Fnv1a};
pub use machine::{CpuClass, Machine};
pub use phase::{CommPattern, Phase, VectorizationInfo};
pub use pool::ThreadPool;
pub use pvs_netsim::schedule;
pub use report::{PerfReport, PhaseBreakdown};
pub use rng::{Pcg32, SplitMix64};
