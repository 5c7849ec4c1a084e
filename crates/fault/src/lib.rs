//! # pvs-fault — the deterministic fault planner
//!
//! The SC 2004 study ran on shared production machines, where degraded
//! interconnects, flaky memory banks, and node loss were facts of life.
//! This crate is the single entry point for rehearsing those conditions
//! across the whole reproduction: a [`FaultPlan`] is a seeded, ordered
//! list of [`FaultKind`]s, and [`FaultPlan::compile_all`] turns it into
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
//! Faults are compiled into *state*, never injected by a clock: the
//! simulators stay clock-free and the determinism lint (PVS003) holds.
//! Two plans built from the same seed are identical, and every
//! downstream decision (which message drops, which attempt succeeds) is
//! a pure function of the plan seed — so a degraded run reproduces
//! bit-for-bit at any host thread count.
//!
//! ```
//! use pvs_fault::{FaultKind, FaultPlan};
//!
//! let compiled = FaultPlan::new(0xC0FFEE)
//!     .inject(FaultKind::LinkFailure { link: 12 })
//!     .inject(FaultKind::BankFault { bank: 3 })
//!     .compile_all();
//! assert!(compiled.adversity.net.link_failed(12));
//! assert_eq!(compiled.adversity.failed_banks, vec![3]);
//! ```

#![forbid(unsafe_code)]

use pvs_core::{Adversity, Pcg32, SplitMix64};
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

/// A seeded list of faults, applied in order when compiled.
///
/// The seed flows into every downstream random decision (message-drop
/// draws in `pvs-mpisim` derive their seed from it), so the plan fully
/// determines a degraded run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    kinds: Vec<FaultKind>,
}

/// The damage state a plan compiles to, ready to hand to each layer of
/// the stack.
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
            kinds: Vec::new(),
        }
    }

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Append one fault. Faults apply in injection order: a later loss
    /// or delay regime overrides an earlier one, and the compiled link,
    /// bank and rank lists keep that order.
    pub fn inject(mut self, kind: FaultKind) -> Self {
        if let FaultKind::LinkDegrade { factor, .. } = kind {
            assert!(
                factor > 0.0 && factor <= 1.0,
                "degrade factor must be in (0, 1], got {factor}"
            );
        }
        if let FaultKind::WorkerLoss { after_tasks, .. } = kind {
            assert!(after_tasks >= 1, "a worker claims at least one task");
        }
        self.kinds.push(kind);
        self
    }

    /// The faults, in the order they apply.
    pub fn kinds(&self) -> &[FaultKind] {
        &self.kinds
    }

    /// Generate `n_events` faults with kinds and indices drawn from the
    /// given resource bounds, ordered by a seeded-random onset in
    /// `[0, horizon_ps)` (ties keep draw order). Same seed, same plan —
    /// useful for chaos sweeps that want varied-but-reproducible
    /// scenarios.
    pub fn random(seed: u64, horizon_ps: u64, n_events: usize, links: usize, banks: usize) -> Self {
        assert!(horizon_ps > 0 && links > 0 && banks > 0);
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut drawn = Vec::with_capacity(n_events);
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
            drawn.push((at_ps, kind));
        }
        drawn.sort_by_key(|&(at_ps, _)| at_ps);
        FaultPlan {
            seed,
            kinds: drawn.into_iter().map(|(_, kind)| kind).collect(),
        }
    }

    /// Compile every fault, in order. Message-loss and message-delay
    /// faults are regime changes — the latest one wins. The returned
    /// [`FaultSpec`] seed derives from the plan seed, so a plan fixes
    /// every downstream drop/delay decision too.
    pub fn compile_all(&self) -> CompiledFaults {
        let mut net = LinkFaults::healthy();
        let mut adversity = Adversity::healthy();
        let mut comm = FaultSpec::healthy()
            .with_seed(SplitMix64::new(self.seed).next_u64());
        let mut retirements = Vec::new();
        for &kind in &self.kinds {
            match kind {
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
}

impl CompiledFaults {
    /// Whether this compilation injects nothing at all.
    pub fn is_healthy(&self) -> bool {
        self.adversity.is_healthy() && self.comm.is_healthy() && self.retirements.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(seed)
            .inject(FaultKind::LinkFailure { link: 7 })
            .inject(FaultKind::MessageLoss { drop_per_mille: 100 })
            .inject(FaultKind::BankFault { bank: 2 })
            .inject(FaultKind::MessageLoss { drop_per_mille: 250 })
            .inject(FaultKind::RankFailure { rank: 1 })
            .inject(FaultKind::WorkerLoss { worker: 2, after_tasks: 3 })
            .inject(FaultKind::PortLoss { port: 4 })
            .inject(FaultKind::LinkDegrade { link: 9, factor: 0.5 })
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
    fn every_fault_compiles_and_the_latest_regime_wins() {
        let full = busy_plan(1).compile_all();
        assert!(full.adversity.net.link_failed(7));
        assert_eq!(full.adversity.failed_banks, vec![2]);
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
        assert_eq!(a.kinds().len(), 16);
        // Pinned: what this seed compiles to, in onset order — the link
        // lists keep it, and the latest loss/delay regime wins.
        let compiled = a.compile_all();
        assert_eq!(compiled.adversity.net.failed_links, vec![11, 39, 6]);
        assert_eq!(
            compiled.adversity.net.degraded_links,
            vec![(44, 0.6868937008376049), (15, 0.77579182684578), (43, 0.6235592553621394)]
        );
        assert_eq!(compiled.adversity.failed_banks, vec![27, 25, 17]);
        assert_eq!(
            (compiled.comm.drop_per_mille, compiled.comm.delay_per_mille, compiled.comm.delay_ps),
            (32, 374, 32_000_000)
        );
    }

    #[test]
    #[should_panic(expected = "degrade factor")]
    fn zero_degrade_factor_is_rejected() {
        let _ = FaultPlan::new(0).inject(FaultKind::LinkDegrade { link: 0, factor: 0.0 });
    }
}
