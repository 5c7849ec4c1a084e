//! # pvs-memsim — memory-system simulation substrate
//!
//! This crate models the two memory-system families that the SC 2004 study
//! ("Scientific Computations on Modern Parallel Vector Systems") contrasts:
//!
//! * **cache-based superscalar memory hierarchies** (IBM Power3/Power4, SGI
//!   Altix): multi-level set-associative caches with LRU replacement plus a
//!   hardware stream-prefetch engine ([`cache`], [`hierarchy`], [`prefetch`]);
//! * **cacheless banked vector memory** (Earth Simulator FPLRAM, Cray X1
//!   memory ports): heavily interleaved banks whose throughput collapses
//!   under bank conflicts ([`banks`]).
//!
//! Two usage styles are supported, mirroring how the paper reasons about
//! memory:
//!
//! 1. **trace-driven simulation** — feed an address trace (see [`trace`])
//!    through a [`hierarchy::CacheHierarchy`] or a [`banks::BankedMemory`]
//!    and read hit/conflict statistics; this is how the unit and property
//!    tests validate the models, and how the application crates calibrate
//!    their phase descriptors;
//! 2. **analytic effective-bandwidth estimation** — [`bandwidth`] turns a
//!    working-set / access-pattern description into a sustained fraction of
//!    the machine's peak memory bandwidth, which the performance engine in
//!    `pvs-core` consumes.
//!
//! ## Example
//!
//! ```
//! use pvs_memsim::{Cache, CacheConfig};
//!
//! // A Power3-like 8 MB 4-way L2: a 4 MB working set streamed twice hits
//! // on the second pass.
//! let mut l2 = Cache::new(CacheConfig::new(8 << 20, 128, 4));
//! for _pass in 0..2 {
//!     for line in 0..(4u64 << 20) / 128 {
//!         l2.access(line * 128);
//!     }
//! }
//! assert!(l2.stats().hit_rate() > 0.49);
//! ```

#![forbid(unsafe_code)]

pub mod bandwidth;
pub mod banks;
pub mod cache;
pub mod hierarchy;
pub mod prefetch;
pub mod trace;

pub use bandwidth::{AccessPattern, BandwidthModel};
pub use banks::{BankConfig, BankedMemory};
pub use cache::{AccessResult, Cache, CacheConfig, CacheStats};
pub use hierarchy::{CacheHierarchy, HierarchyConfig, LevelHit};
pub use prefetch::{PrefetchConfig, StreamPrefetcher};
