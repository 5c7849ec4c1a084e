//! # pvs-mpisim — a message-passing runtime on threads
//!
//! The four applications of the SC 2004 study are distributed-memory MPI
//! codes (LBMHD additionally has a Co-array Fortran port). This crate
//! provides the runtime they run on in this reproduction: ranks are OS
//! threads, messages are typed packets over `std::sync::mpsc` channels,
//! and the one-sided (CAF/SHMEM-style) layer exposes remote windows
//! through shared memory (`std::sync::RwLock`) — the same semantics
//! hardware-supported globally addressable memory gives the X1. The whole
//! runtime is standard library only, so it builds with no network access.
//!
//! * [`comm`]: two-sided primitives (`send`/`recv` with tag matching and
//!   out-of-order buffering), collectives (barrier, allreduce, allgather,
//!   all-to-all), and traffic statistics used to calibrate the
//!   performance model's communication phases;
//! * [`caf`]: co-array style one-sided windows (`put`/`get` into remote
//!   rank memory) mirroring LBMHD's CAF port;
//! * [`fault`]: deterministic message-level fault injection — seeded
//!   drop/delay decisions, exponential backoff in simulated picoseconds,
//!   timeouts, rank failure with survivor-only collectives, and retry
//!   counters reported through `pvs-obs` — on the thread-backed runtime
//!   only, through [`run_faulty`]'s closures;
//! * [`event`]: the event-driven runtime (v2) — virtual ranks as
//!   continuation-style [`RankProgram`]s resumed in place on the
//!   scheduler thread in supersteps, bit-identical to the thread-backed
//!   runtime and able to simulate 10⁵+ ranks without 10⁵ OS threads;
//! * [`threaded`]: the same [`RankProgram`]s on the thread-backed
//!   runtime, each [`Op`] answered by the [`Comm`] method of the same
//!   name, and [`run_both`], which holds one workload bit-identical on
//!   both runtimes;
//! * [`exchange`]: the one stencil exchange the solvers' programs embed;
//! * `collective` (private): canonical folds, survivor set and seeded
//!   per-message fault charge, run with the [`pvs_core::schedule`]
//!   schedules as packets by `comm`/`fault`/`caf`; `event` charges the
//!   same schedules as sums and folds through the same functions;
//! * [`tags`]: the collective tag namespace — the top tag bit is
//!   reserved so user traffic can never collide with a collective's
//!   internal messages.
//!
//! Two runtimes, one semantics, one spelling per workload: a rank
//! workload is a [`RankProgram`] value and the runtime is an argument.
//! [`run_programs`] gives each rank a thread and real packets (v1, bounded
//! P; [`run`] is its closure form), [`EventSim`] schedules parked
//! continuations (v2, P bounded by memory). The conformance suite runs
//! every scenario — one op list — through both and pins them
//! bit-identical on values and traffic statistics. A [`RankProgram`] never
//! sees a fault: message faults and failed ranks are the closure API's
//! ([`run_faulty`], [`FaultyComm`]), which the chaos harness drives.
//!
//! ## Example
//!
//! ```
//! use pvs_mpisim::run;
//!
//! // Sum rank ids with an allreduce across 4 ranks.
//! let results = run(4, |mut comm| comm.allreduce_sum_scalar(comm.rank() as f64));
//! assert!(results.iter().all(|&x| x == 6.0));
//! ```

#![forbid(unsafe_code)]

mod blocks;
pub mod caf;
mod collective;
pub mod comm;
pub mod event;
pub mod exchange;
pub mod fault;
pub mod tags;
pub mod threaded;

pub use blocks::Blocks;
pub use caf::CoArray;
pub use comm::{run, Comm, CommStats};
pub use event::{
    EventSim, Op, RankCtx, RankProgram, Reply, ScriptProgram, SimReport, SimStats, Step,
};
pub use fault::{
    retry_backoff_ps, run_faulty, FaultError, FaultSpec, FaultStats, FaultyComm, RankOutcome,
};
pub use tags::{is_user_tag, COLLECTIVE_BIT};
pub use exchange::{Exchange, Halo};
pub use threaded::{first_divergence, run_both, run_programs};
