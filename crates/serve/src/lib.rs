//! # pvs-serve — a deterministic sweep-serving layer
//!
//! Long-running server that answers `(app, machine, procs, config,
//! faults?) → profile cell` questions over newline-delimited JSON on
//! TCP, std-only like the rest of the workspace (PVS001).
//!
//! The design leans entirely on the workspace's determinism invariant:
//! every simulation cell is a pure function of its request, byte-
//! identical at any thread count. That makes responses
//! *content-addressable* — a request canonicalizes to a stable key
//! ([`workload`]), the key addresses a sharded cache with an on-disk
//! spill ([`cache`]), and concurrent misses on the same key coalesce
//! onto a single simulation ([`store`]). Admission control bounds how
//! many distinct simulations may be in flight; excess misses are
//! answered `overloaded` rather than queued without bound.
//!
//! Module map:
//!
//! * [`workload`] — request vocabulary, validation, canonical keys;
//! * [`cache`] — sharded in-memory cache with atomic disk spill;
//! * [`store`] — single-flight batching, admission control, `serve.*`
//!   observability counters;
//! * [`proto`] — the newline-delimited JSON wire protocol;
//! * [`server`] — the TCP edge (the only wall-clock-bearing file; every
//!   other module is clock-free so model output stays pure).
//!
//! The `serve` and `serve_load` commands of `pvs-bench` wrap this crate
//! with CLI plumbing and a seeded load generator.

#![forbid(unsafe_code)]

pub mod cache;
pub mod proto;
pub mod server;
pub mod store;
pub mod workload;

pub use cache::{DiskRead, ShardedCache, SpillScan};
pub use server::{Server, ServerOptions};
pub use store::{
    BudgetProbe, CellResponse, CellSource, CellStore, PanicSpec, ServeError, StoreOptions,
};
pub use workload::{cell_phases, FaultSpec, Request, RequestError};
