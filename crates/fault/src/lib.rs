//! # pvs-fault — the deterministic fault planner
//!
//! The SC 2004 study ran on shared production machines, where degraded
//! interconnects, flaky memory banks, and node loss were facts of life.
//! This crate is the single entry point for rehearsing those conditions
//! across the whole reproduction: a [`FaultPlan`] is a seeded, sorted
//! list of [`FaultEvent`]s stamped in **simulated picoseconds**, and
//! [`FaultPlan::compile`] turns the prefix of events up to a horizon into
//! the per-run damage state each layer consumes:
//!
//! * [`pvs_core::Adversity`] — interconnect damage and failed memory
//!   banks, applied by the engine to every communication phase and bank
//!   replay ([`pvs_core::engine::Engine::with_adversity`]);
//! * [`pvs_mpisim::FaultSpec`] — message drop/delay probabilities, rank
//!   failures, and retry/backoff parameters for the message-passing
//!   runtime ([`pvs_mpisim::run_faulty`]);
//! * worker retirements for the host-side thread pool
//!   ([`pvs_core::ThreadPool::with_retirements`]).
//!
//! Faults are compiled into *state*, never injected by a clock: the plan
//! is scheduled in simulated time, the simulators stay clock-free, and
//! the determinism lint (PVS003) holds. Two plans built from the same
//! seed are identical, and every downstream decision (which message
//! drops, which attempt succeeds) is a pure function of the plan seed —
//! so a degraded run reproduces bit-for-bit at any host thread count.
//!
//! ```
//! use pvs_fault::{FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::new(0xC0FFEE)
//!     .inject(1_000_000, FaultKind::LinkFailure { link: 12 })
//!     .inject(5_000_000, FaultKind::BankFault { bank: 3 });
//!
//! // Compile at t = 2 µs: only the link failure is active yet.
//! let early = plan.compile(2_000_000);
//! assert!(early.adversity.net.link_failed(12));
//! assert!(early.adversity.failed_banks.is_empty());
//!
//! // Compile at the full horizon: both faults are live.
//! let late = plan.compile(u64::MAX);
//! assert_eq!(late.adversity.failed_banks, vec![3]);
//! ```

#![forbid(unsafe_code)]

use pvs_core::{Adversity, EventQueue, Pcg32, SplitMix64};
use pvs_mpisim::FaultSpec;
use pvs_netsim::LinkFaults;

/// One kind of injected damage. Indices are interpreted by the consuming
/// layer (link ids by `pvs-netsim`, bank ids modulo the machine's bank
/// count by the engine, ranks and workers by their runtimes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A directed network link stops carrying traffic (torus rerouting
    /// detours around it; see `pvs_netsim::Network::with_faults`).
    LinkFailure {
        /// Link id in the topology's link numbering.
        link: usize,
    },
    /// A link keeps working at a fraction of its healthy bandwidth.
    LinkDegrade {
        /// Link id in the topology's link numbering.
        link: usize,
        /// Remaining bandwidth fraction, in `(0, 1]`.
        factor: f64,
    },
    /// A crossbar endpoint loses half its port lanes (ES-style).
    PortLoss {
        /// Endpoint (processor) index.
        port: usize,
    },
    /// A memory bank is mapped out of the interleave, forcing the
    /// conflict-heavy fallback path in the bank replay.
    BankFault {
        /// Bank index, taken modulo the machine's bank count.
        bank: usize,
    },
    /// A rank dies: it never executes, its traffic blackholes, and
    /// survivor-only collectives exclude it.
    RankFailure {
        /// The failed rank.
        rank: usize,
    },
    /// Message-loss regime change: every send attempt now drops with
    /// probability `drop_per_mille / 1000` (later events override).
    MessageLoss {
        /// Drop probability out of 1000.
        drop_per_mille: u32,
    },
    /// Message-delay regime change (later events override).
    MessageDelay {
        /// Delay probability out of 1000.
        delay_per_mille: u32,
        /// Simulated picoseconds charged per delayed message.
        delay_ps: u64,
    },
    /// A host-pool worker retires after claiming `after_tasks` tasks;
    /// queued work redistributes over the survivors.
    WorkerLoss {
        /// Worker index in the pool.
        worker: usize,
        /// Tasks the worker claims before exiting (>= 1).
        after_tasks: u64,
    },
}

/// One scheduled fault: *what* breaks and *when*, in simulated
/// picoseconds since run start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulated onset time in picoseconds.
    pub at_ps: u64,
    /// The damage.
    pub kind: FaultKind,
}

/// A seeded, time-sorted schedule of fault events, kept on the shared
/// simulated-time event core ([`pvs_core::EventQueue`]) that also
/// drives mpisim's event-driven runtime.
///
/// The seed flows into every downstream random decision (message-drop
/// draws in `pvs-mpisim` derive their seed from it), so the plan fully
/// determines a degraded run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    events: EventQueue<FaultKind>,
}

/// The damage state active at one compile horizon, ready to hand to each
/// layer of the stack.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFaults {
    /// Engine-level damage (interconnect + memory banks).
    pub adversity: Adversity,
    /// Message-passing fault spec (drop/delay/rank failure), seeded from
    /// the plan seed.
    pub comm: FaultSpec,
    /// `(worker, after_tasks)` retirements for
    /// [`pvs_core::ThreadPool::with_retirements`].
    pub retirements: Vec<(usize, u64)>,
}

impl FaultPlan {
    /// An empty plan. Compiling it yields healthy state everywhere.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: EventQueue::new(),
        }
    }

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Schedule one fault at `at_ps`. Events are kept sorted by onset
    /// time; equal times preserve insertion order, so plan construction
    /// is deterministic regardless of call order of *distinct* times.
    pub fn inject(mut self, at_ps: u64, kind: FaultKind) -> Self {
        if let FaultKind::LinkDegrade { factor, .. } = kind {
            assert!(
                factor > 0.0 && factor <= 1.0,
                "degrade factor must be in (0, 1], got {factor}"
            );
        }
        if let FaultKind::WorkerLoss { after_tasks, .. } = kind {
            assert!(after_tasks >= 1, "a worker claims at least one task");
        }
        self.events.push(at_ps, kind);
        self
    }

    /// The scheduled events, sorted by onset time (insertion order among
    /// equal timestamps).
    pub fn events(&self) -> impl Iterator<Item = FaultEvent> + '_ {
        self.events.iter().map(|e| FaultEvent {
            at_ps: e.at_ps,
            kind: e.payload,
        })
    }

    /// Generate `n_events` faults at seeded-random times in
    /// `[0, horizon_ps)` with kinds and indices drawn from the given
    /// resource bounds. Same seed, same plan — useful for chaos sweeps
    /// that want varied-but-reproducible scenarios.
    pub fn random(seed: u64, horizon_ps: u64, n_events: usize, links: usize, banks: usize) -> Self {
        assert!(horizon_ps > 0 && links > 0 && banks > 0);
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut plan = FaultPlan::new(seed);
        for _ in 0..n_events {
            let at_ps = rng.next_u64() % horizon_ps;
            let kind = match rng.next_below(5) {
                0 => FaultKind::LinkFailure {
                    link: rng.next_below(links as u32) as usize,
                },
                1 => FaultKind::LinkDegrade {
                    link: rng.next_below(links as u32) as usize,
                    // Factors in [0.25, 1.0): degraded but never dead.
                    factor: 0.25 + 0.75 * rng.next_f64(),
                },
                2 => FaultKind::BankFault {
                    bank: rng.next_below(banks as u32) as usize,
                },
                3 => FaultKind::MessageLoss {
                    drop_per_mille: rng.next_below(300),
                },
                _ => FaultKind::MessageDelay {
                    delay_per_mille: rng.next_below(500),
                    delay_ps: 1_000_000 * (1 + rng.next_below(100)) as u64,
                },
            };
            plan = plan.inject(at_ps, kind);
        }
        plan
    }

    /// Compile the damage active at `horizon_ps`: every event with
    /// `at_ps <= horizon_ps` is applied, in onset order. Message-loss and
    /// message-delay events are regime changes — the latest one wins.
    /// The returned [`FaultSpec`] seed derives from the plan seed, so a
    /// plan fixes every downstream drop/delay decision too.
    pub fn compile(&self, horizon_ps: u64) -> CompiledFaults {
        let mut net = LinkFaults::healthy();
        let mut adversity = Adversity::healthy();
        let mut comm = FaultSpec::healthy()
            .with_seed(SplitMix64::new(self.seed).next_u64());
        let mut retirements = Vec::new();
        for e in self.events.iter().take_while(|e| e.at_ps <= horizon_ps) {
            match e.payload {
                FaultKind::LinkFailure { link } => net = net.fail_link(link),
                FaultKind::LinkDegrade { link, factor } => net = net.degrade_link(link, factor),
                FaultKind::PortLoss { port } => net = net.lose_port(port),
                FaultKind::BankFault { bank } => adversity = adversity.fail_bank(bank),
                FaultKind::RankFailure { rank } => comm = comm.fail_rank(rank),
                FaultKind::MessageLoss { drop_per_mille } => {
                    comm.drop_per_mille = drop_per_mille;
                }
                FaultKind::MessageDelay {
                    delay_per_mille,
                    delay_ps,
                } => {
                    comm.delay_per_mille = delay_per_mille;
                    comm.delay_ps = delay_ps;
                }
                FaultKind::WorkerLoss {
                    worker,
                    after_tasks,
                } => retirements.push((worker, after_tasks)),
            }
        }
        adversity.net = net;
        CompiledFaults {
            adversity,
            comm,
            retirements,
        }
    }

    /// Compile the plan's full horizon (every scheduled event active).
    pub fn compile_all(&self) -> CompiledFaults {
        self.compile(u64::MAX)
    }
}

impl CompiledFaults {
    /// Whether this compilation injects nothing at all.
    pub fn is_healthy(&self) -> bool {
        self.adversity.is_healthy() && self.comm.is_healthy() && self.retirements.is_empty()
    }
}

/// One kind of *host-level* damage: faults that strike the serving
/// plane itself (disk, workers, clients) rather than the simulated
/// machine. [`FaultKind`] events change what a simulation computes;
/// `HostFaultKind` events attack where the result is stored and how it
/// is delivered — the resilience layer's job is that they change
/// *availability*, never *bytes served*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HostFaultKind {
    /// A spill-cell file is truncated to a strict prefix (torn write,
    /// full disk, or a writer killed mid-`write`).
    SpillTruncation,
    /// A single byte of a spill-cell body is bit-flipped (media decay).
    SpillBitFlip,
    /// A spill-cell header is replaced with garbage (foreign or
    /// misrenamed file in the spill directory).
    SpillGarbageHeader,
    /// A stray `*.tmp.*` fragment from a writer killed between `write`
    /// and `rename`.
    TornTmpFile,
    /// A simulation worker panics on a specific key.
    WorkerPanic,
    /// A client trickles its request bytes with long pauses (slowloris).
    SlowClient,
    /// A client sends a frame past the server's line cap.
    OversizedFrame,
}

/// A seeded plan of host-level faults for the `servechaos` harness:
/// *which* artifacts get hit, and with what damage, as a pure function
/// of the seed. The plan carries no wall-clock schedule — host faults
/// are applied at scenario-defined points (before restart, between
/// requests), so the harness stays deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostFaultPlan {
    seed: u64,
    kinds: Vec<HostFaultKind>,
}

impl HostFaultPlan {
    /// An empty plan.
    pub fn new(seed: u64) -> Self {
        HostFaultPlan { seed, kinds: Vec::new() }
    }

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Add a fault kind to the plan (idempotent).
    pub fn with(mut self, kind: HostFaultKind) -> Self {
        if !self.kinds.contains(&kind) {
            self.kinds.push(kind);
            self.kinds.sort();
        }
        self
    }

    /// Whether the plan includes `kind`.
    pub fn covers(&self, kind: HostFaultKind) -> bool {
        self.kinds.contains(&kind)
    }

    /// The plan's kinds, sorted.
    pub fn kinds(&self) -> &[HostFaultKind] {
        &self.kinds
    }

    /// Seeded draw in `[0, n)` for event `event_index`: which of `n`
    /// candidate artifacts (files, bytes, requests) fault number
    /// `event_index` strikes. Pure in `(seed, event_index, n)`.
    pub fn target(&self, event_index: u64, n: usize) -> usize {
        assert!(n > 0, "no targets to choose from");
        let draw = SplitMix64::new(self.seed ^ event_index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .next_u64();
        (draw % n as u64) as usize
    }

    /// Seeded nonzero bit mask for event `event_index` — the XOR mask a
    /// `SpillBitFlip` applies to its victim byte.
    pub fn flip_mask(&self, event_index: u64) -> u8 {
        1u8 << (self.target(event_index.wrapping_add(0x5bd1), 8) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(seed)
            .inject(3_000, FaultKind::BankFault { bank: 2 })
            .inject(1_000, FaultKind::LinkFailure { link: 7 })
            .inject(2_000, FaultKind::MessageLoss { drop_per_mille: 100 })
            .inject(4_000, FaultKind::MessageLoss { drop_per_mille: 250 })
            .inject(5_000, FaultKind::RankFailure { rank: 1 })
            .inject(6_000, FaultKind::WorkerLoss { worker: 2, after_tasks: 3 })
            .inject(7_000, FaultKind::PortLoss { port: 4 })
            .inject(8_000, FaultKind::LinkDegrade { link: 9, factor: 0.5 })
    }

    #[test]
    fn events_sort_by_onset_time() {
        let times: Vec<u64> = busy_plan(1).events().map(|e| e.at_ps).collect();
        assert_eq!(times, vec![1_000, 2_000, 3_000, 4_000, 5_000, 6_000, 7_000, 8_000]);
    }

    #[test]
    fn empty_plan_compiles_healthy() {
        let c = FaultPlan::new(9).compile_all();
        assert!(c.is_healthy());
        assert!(c.adversity.is_healthy());
        assert!(c.comm.is_healthy());
        assert!(c.retirements.is_empty());
    }

    #[test]
    fn horizon_gates_which_events_are_active() {
        let plan = busy_plan(1);
        let early = plan.compile(1_500);
        assert!(early.adversity.net.link_failed(7));
        assert!(early.adversity.failed_banks.is_empty());
        assert_eq!(early.comm.drop_per_mille, 0);

        let mid = plan.compile(3_000); // inclusive horizon
        assert_eq!(mid.adversity.failed_banks, vec![2]);
        assert_eq!(mid.comm.drop_per_mille, 100);
        assert!(mid.comm.failed_ranks.is_empty());

        let full = plan.compile_all();
        assert_eq!(full.comm.drop_per_mille, 250, "latest regime wins");
        assert_eq!(full.comm.failed_ranks, vec![1]);
        assert_eq!(full.retirements, vec![(2, 3)]);
        assert!(!full.adversity.net.is_healthy());
        assert!((full.adversity.net.degrade_factor(9) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn same_seed_same_plan_same_compilation() {
        assert_eq!(busy_plan(77), busy_plan(77));
        assert_eq!(busy_plan(77).compile_all(), busy_plan(77).compile_all());
    }

    #[test]
    fn plan_seed_fixes_the_comm_decision_seed() {
        let a = FaultPlan::new(5).compile_all().comm.seed;
        let b = FaultPlan::new(5).compile_all().comm.seed;
        let c = FaultPlan::new(6).compile_all().comm.seed;
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_plans_reproduce_and_vary_by_seed() {
        let a = FaultPlan::random(12, 1_000_000, 16, 64, 32);
        let b = FaultPlan::random(12, 1_000_000, 16, 64, 32);
        let c = FaultPlan::random(13, 1_000_000, 16, 64, 32);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.events().count(), 16);
        let times: Vec<u64> = a.events().map(|e| e.at_ps).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // Generated degrade factors stay in the legal range by construction;
        // compiling must therefore never panic.
        let _ = a.compile_all();
    }

    #[test]
    #[should_panic(expected = "degrade factor")]
    fn zero_degrade_factor_is_rejected() {
        let _ = FaultPlan::new(0).inject(0, FaultKind::LinkDegrade { link: 0, factor: 0.0 });
    }

    #[test]
    fn host_fault_plans_are_pure_functions_of_their_seed() {
        let build = |seed| {
            HostFaultPlan::new(seed)
                .with(HostFaultKind::SpillTruncation)
                .with(HostFaultKind::SpillBitFlip)
                .with(HostFaultKind::SpillBitFlip) // idempotent
                .with(HostFaultKind::TornTmpFile)
        };
        let a = build(42);
        assert_eq!(a, build(42));
        assert_eq!(a.kinds().len(), 3);
        assert!(a.covers(HostFaultKind::SpillBitFlip));
        assert!(!a.covers(HostFaultKind::WorkerPanic));
        for event in 0..64u64 {
            assert!(a.target(event, 5) < 5);
            assert_eq!(a.target(event, 5), build(42).target(event, 5));
            assert_ne!(a.flip_mask(event), 0, "a flip must change the byte");
        }
        // Different seeds must actually move the draws.
        let b = build(43);
        assert!((0..64u64).any(|e| a.target(e, 1_000) != b.target(e, 1_000)));
    }

    #[test]
    #[should_panic(expected = "no targets")]
    fn host_fault_target_rejects_an_empty_candidate_set() {
        let _ = HostFaultPlan::new(0).target(0, 0);
    }
}
