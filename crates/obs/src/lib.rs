//! # pvs-obs — observability for the simulation stack
//!
//! A zero-external-dep layer the simulators report into: named monotonic
//! counters, gauges, and deterministic log2-bucketed [`Histogram`]s, all
//! behind the [`Recorder`] trait. The engine, thread pool, and
//! memory/network/vector simulators call `Recorder` methods; a [`Registry`]
//! collects everything for one run and snapshots it as sorted lists.
//! Per-phase model time is not recorded here: `PerfReport::phases`
//! already is that timeline.
//!
//! Two design rules keep the repo's invariants intact:
//!
//! * **No host clocks.** This crate records only *simulated* or
//!   caller-defined quantities. Host wall-clock timing lives exclusively in
//!   `pvs-bench`, where lint PVS003 permits it.
//! * **Deterministic iteration.** Counter and gauge storage is a
//!   `BTreeMap`, so every dump is sorted by name and byte-identical
//!   across runs and thread counts (lint PVS005 bans unordered
//!   iteration for exactly this reason).
//!
//! Counter names follow a `layer.component.metric` scheme, e.g.
//! `engine.loop.flops`, `pool.queue.peak_depth`, `memsim.bank.stall_cycles`.

#![forbid(unsafe_code)]

pub mod hist;
pub mod recorder;
pub mod registry;

pub use hist::{HistSummary, Histogram};
pub use recorder::Recorder;
pub use registry::{Kind, Registry, Snapshot};
