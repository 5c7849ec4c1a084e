//! Link-level fault injection for the interconnect simulator.
//!
//! A [`LinkFaults`] value describes the damage applied to one network
//! before a simulation: hard link failures (the X1 torus routes around
//! them, the long way round the affected ring), bandwidth degradation on
//! surviving links (flaky cables, oversubscribed switch ports), and
//! crossbar port-lane loss on the ES (each endpoint port has redundant
//! lanes; losing one halves that endpoint's injection and ejection
//! bandwidth).
//!
//! Faults here are *state*, not events: a network built by
//! [`crate::topology::Network::with_faults`] keeps its `LinkFaults`, routes
//! around the hard failures, and every [`crate::des::NetSim`] on it prices
//! the derates. No clock is involved, so PVS003 holds.

/// The fault state of one network. Healthy by default.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkFaults {
    /// Directed link ids removed from service. Only the 2D torus can
    /// reroute around a dead link; building a crossbar or fat-tree
    /// network with a failed link is rejected (those routes are unique).
    pub failed_links: Vec<usize>,
    /// `(link id, factor)` bandwidth derates with `0 < factor <= 1`.
    pub degraded_links: Vec<(usize, f64)>,
    /// Crossbar endpoints that lost one of their two redundant port
    /// lanes: injection and ejection bandwidth halve. Ignored on
    /// non-crossbar topologies.
    pub lost_ports: Vec<usize>,
}

impl LinkFaults {
    /// No faults.
    pub fn healthy() -> Self {
        Self::default()
    }

    /// Whether this value changes nothing.
    pub fn is_healthy(&self) -> bool {
        self.failed_links.is_empty()
            && self.degraded_links.is_empty()
            && self.lost_ports.is_empty()
    }

    /// Add a hard link failure.
    pub fn fail_link(mut self, id: usize) -> Self {
        if !self.failed_links.contains(&id) {
            self.failed_links.push(id);
        }
        self
    }

    /// Add a bandwidth derate on a surviving link.
    pub fn degrade_link(mut self, id: usize, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "degrade factor {factor} outside (0, 1]"
        );
        self.degraded_links.push((id, factor));
        self
    }

    /// Mark a crossbar endpoint as having lost a port lane.
    pub fn lose_port(mut self, endpoint: usize) -> Self {
        if !self.lost_ports.contains(&endpoint) {
            self.lost_ports.push(endpoint);
        }
        self
    }

    /// Whether link `id` is hard-failed.
    pub fn link_failed(&self, id: usize) -> bool {
        self.failed_links.contains(&id)
    }

    /// Combined derate factor for link `id` from the degrade list alone
    /// (port-lane loss is topology-dependent and applied by
    /// [`crate::topology::Network::effective_link_factor`]).
    pub fn degrade_factor(&self, id: usize) -> f64 {
        self.degraded_links
            .iter()
            .filter(|(l, _)| *l == id)
            .map(|(_, f)| *f)
            .product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_by_default() {
        assert!(LinkFaults::healthy().is_healthy());
        assert!(!LinkFaults::healthy().fail_link(3).is_healthy());
        assert!(!LinkFaults::healthy().lose_port(0).is_healthy());
    }

    #[test]
    fn degrade_factors_compose() {
        let f = LinkFaults::healthy()
            .degrade_link(5, 0.5)
            .degrade_link(5, 0.5)
            .degrade_link(9, 0.25);
        assert!((f.degrade_factor(5) - 0.25).abs() < 1e-12);
        assert!((f.degrade_factor(9) - 0.25).abs() < 1e-12);
        assert_eq!(f.degrade_factor(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn zero_degrade_factor_rejected() {
        let _ = LinkFaults::healthy().degrade_link(1, 0.0);
    }

    #[test]
    fn duplicate_failures_collapse() {
        let f = LinkFaults::healthy().fail_link(2).fail_link(2);
        assert_eq!(f.failed_links, vec![2]);
        assert!(f.link_failed(2) && !f.link_failed(1));
    }
}
