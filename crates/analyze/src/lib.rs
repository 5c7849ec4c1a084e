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
//!   of a cell's `model.phases`;
//! * [`sentinel`] — the equality gate on committed baselines behind
//!   `pvs compare`;
//! * [`profiledoc`] — the `BENCH_sweep.json` reader (schema
//!   `profile-v2` only), over the shared `pvs_core::json` parser
//!   ([`json`] re-exports it).
//!
//! Everything is std-only and deterministic: same inputs, byte-identical
//! reports, no host clocks.

#![forbid(unsafe_code)]

pub mod amdahl;
pub mod bottleneck;
pub mod chrome;
pub mod findings;
pub mod json;
pub mod profiledoc;
pub mod sentinel;
