//! Injected hardware damage for degraded-mode simulation.
//!
//! An [`Adversity`] value describes what is broken while a run executes:
//! interconnect damage (failed or derated links, lost crossbar port
//! lanes — see [`pvs_netsim::LinkFaults`]) and memory banks mapped out
//! of the interleave. The engine consumes it via
//! [`crate::engine::Engine::with_adversity`]; the same phase stream then
//! runs on the damaged machine and every derate shows up in the modelled
//! time, the bottleneck attribution, and the observability counters.
//!
//! Like `LinkFaults`, adversity is *state*, not a schedule: callers
//! build it directly (or draw it with `pvs_fault::random_adversity`) and
//! hand one value to each run, so the engine stays clock-free and the
//! determinism lint (PVS003) holds.

use pvs_netsim::LinkFaults;

/// Everything injected into one run. Healthy by default.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Adversity {
    /// Interconnect damage, applied to every communication phase.
    pub net: LinkFaults,
    /// Memory banks mapped out of the interleave (indices are taken
    /// modulo the machine's bank count, so one scenario ports across
    /// machines with different bank geometry). Forces the
    /// conflict-heavy fallback path in the bank replay even for loop
    /// patterns that are conflict-free on healthy hardware.
    pub failed_banks: Vec<usize>,
}

impl Adversity {
    /// Nothing is broken.
    pub fn healthy() -> Self {
        Self::default()
    }

    /// Whether this value changes nothing.
    pub fn is_healthy(&self) -> bool {
        self.net.is_healthy() && self.failed_banks.is_empty()
    }

    /// Replace the interconnect damage.
    pub fn with_net(mut self, net: LinkFaults) -> Self {
        self.net = net;
        self
    }

    /// Map one memory bank out of the interleave.
    pub fn fail_bank(mut self, bank: usize) -> Self {
        if !self.failed_banks.contains(&bank) {
            self.failed_banks.push(bank);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_by_default() {
        assert!(Adversity::healthy().is_healthy());
        assert!(Adversity::default().is_healthy());
    }

    #[test]
    fn any_damage_is_unhealthy() {
        assert!(!Adversity::healthy().fail_bank(0).is_healthy());
        assert!(!Adversity::healthy()
            .with_net(LinkFaults::healthy().fail_link(1))
            .is_healthy());
    }

    #[test]
    fn duplicate_bank_failures_collapse() {
        let a = Adversity::healthy().fail_bank(3).fail_bank(3);
        assert_eq!(a.failed_banks, vec![3]);
    }
}
