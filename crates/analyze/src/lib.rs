//! pvs-analyze: bottleneck attribution for the parallel-vector study.
//!
//! The observability layer (`pvs-obs`) records what a simulated run
//! *did* — counters, gauges, histograms. This crate turns those records
//! plus the machine models into *why it was slow*:
//!
//! * [`amdahl`] — vectorized/scalar time split and the closed-form
//!   serialization bound (8:1 ES, 32:1 X1 MSP);
//! * [`bottleneck`] — per-cell classification into compute-, memory-
//!   bandwidth-, bisection-, or scalar-serialization-bound;
//! * [`findings`] — the rendered findings table over a whole sweep;
//! * [`chrome`] — Chrome trace-event export and per-phase time rollups
//!   of a run's phases;
//! * [`sentinel`] — the schema check and the equality gate on committed
//!   baselines behind `pvs compare`, over the shared `pvs_core::json`
//!   parser ([`json`] re-exports it).
//!
//! The analysis reads a run in memory — its `PerfReport` and the
//! `pvs_obs::Snapshot` its recorder took — never a document rendered
//! from it; [`sentinel`] is the only reader of profile documents.
//!
//! Everything is std-only and deterministic: same inputs, byte-identical
//! reports, no host clocks.

#![forbid(unsafe_code)]

pub mod amdahl;
pub mod bottleneck;
pub mod chrome;
pub mod findings;
pub mod json;
pub mod sentinel;
