//! # pvs-netsim — interconnect simulation substrate
//!
//! Models the four interconnect families of the SC 2004 study:
//!
//! | Machine | Topology | Modelled as |
//! |---|---|---|
//! | IBM Power3 | Colony switch, omega topology | slimmed fat-tree ([`topology::TopologyKind::FatTree`] with `slim < 1`) |
//! | IBM Power4 | Federation (HPS) fat-tree | slimmed fat-tree |
//! | SGI Altix | NUMAlink3 fat-tree | full fat-tree (`slim = 1`, bisection scales linearly) |
//! | Earth Simulator | 640-node single-stage crossbar | non-blocking [`topology::TopologyKind::Crossbar`] |
//! | Cray X1 | modified 2D torus | [`topology::TopologyKind::Torus2D`] (bisection-limited) |
//!
//! Three layers are provided:
//!
//! * [`topology`] + [`des`]: an explicit link-level graph with shortest-path /
//!   dimension-order routing and a discrete-event, store-and-forward
//!   contention simulator — used to *measure* effective bisection bandwidth
//!   and collective times from first principles. The simulator books each
//!   message into a [`des::Ledger`]: [`des::Traffic`] counts what
//!   [`SimStats`] reports, `()` books nothing and only times;
//! * [`schedule`]: every message schedule, defined once: walked by
//!   [`collectives`] and by both rank runtimes of `pvs-mpisim`;
//! * [`collectives`]: the communication patterns the applications use (halo
//!   exchange, FFT transpose all-to-all, allreduce), expressed as schedules
//!   whose messages are timed on the simulator one by one as they are
//!   emitted — except a healthy crossbar's all-to-all, whose rotation
//!   rounds keep every endpoint in step and are timed on one endpoint's
//!   clocks — each generic over the ledger with a counting `*_stats`
//!   wrapper.
//!
//! The per-machine numbers (link bandwidth, latency) are calibrated from
//! Table 1 of the paper by `pvs-core::platforms`.
//!
//! ## Example
//!
//! ```
//! use pvs_netsim::collectives::all_to_all_stats_sampled;
//! use pvs_netsim::topology::{Network, NetworkConfig, TopologyKind};
//!
//! let mk = |kind| Network::new(NetworkConfig {
//!     kind, endpoints: 64, link_bw_gbs: 1.0, latency_us: 5.0,
//! });
//! // The ES-style crossbar beats the X1-style torus under all-to-all load.
//! let time = |net| all_to_all_stats_sampled(&net, 64, 50_000, 63).makespan_s;
//! assert!(time(mk(TopologyKind::Torus2D)) > time(mk(TopologyKind::Crossbar)));
//! ```

#![forbid(unsafe_code)]

pub mod collectives;
pub mod des;
pub mod fault;
pub mod schedule;
pub mod topology;

pub use collectives::measured_bisection_gbs;
pub use des::{Ledger, Message, NetSim, SimStats};
pub use fault::LinkFaults;
pub use topology::{Network, NetworkConfig, TopologyKind};
