//! # pvs-fault — the seeded damage generator
//!
//! The SC 2004 study ran on shared production machines, where degraded
//! interconnects and flaky memory banks were facts of life. Each kind of
//! damage has one owner that callers build directly:
//! [`pvs_netsim::LinkFaults`] for links, [`pvs_core::Adversity`] for
//! banks (and the links it carries), `pvs_mpisim::FaultSpec` for
//! messages and ranks, and `pvs_core::ThreadPool::with_retirements` for
//! workers. This crate holds the one thing none of them owns: turning a
//! request's `fault_seed` and `fault_events` into an [`Adversity`].
//!
//! ```
//! let a = pvs_fault::random_adversity(12, 16, 64, 32);
//! assert_eq!(a, pvs_fault::random_adversity(12, 16, 64, 32));
//! assert_eq!(a.failed_banks, vec![27, 17, 25]);
//! ```

#![forbid(unsafe_code)]

use pvs_core::{Adversity, Pcg32};

/// Simulated horizon the events' onsets are drawn over (1 simulated
/// second, longer than any cell of the grid). Only their order is used.
const HORIZON_PS: u64 = 1_000_000_000_000;

/// One drawn event that damages the machine model.
enum Damage {
    FailLink(usize),
    DegradeLink(usize, f64),
    FailBank(usize),
}

/// `events` seeded events over `links` link ids and `banks` bank ids,
/// applied in the order of a seeded-random onset (ties keep draw order).
/// An event fails a link, derates one to a factor in `[0.25, 1)`, maps a
/// bank out, or changes the message-loss or message-delay regime. The
/// last two are drawn and dropped: a served cell runs the engine, not the
/// message runtime. Same seed, same damage.
pub fn random_adversity(seed: u64, events: usize, links: usize, banks: usize) -> Adversity {
    assert!(links > 0 && banks > 0);
    let mut rng = Pcg32::seed_from_u64(seed);
    let mut drawn = Vec::with_capacity(events);
    for _ in 0..events {
        let at_ps = rng.next_u64() % HORIZON_PS;
        let damage = match rng.next_below(5) {
            0 => Damage::FailLink(rng.next_below(links as u32) as usize),
            1 => {
                let link = rng.next_below(links as u32) as usize;
                Damage::DegradeLink(link, 0.25 + 0.75 * rng.next_f64())
            }
            2 => Damage::FailBank(rng.next_below(banks as u32) as usize),
            3 => {
                rng.next_below(300); // drop per mille
                continue;
            }
            _ => {
                rng.next_below(500); // delay per mille
                rng.next_below(100); // delay, in microseconds less one
                continue;
            }
        };
        drawn.push((at_ps, damage));
    }
    drawn.sort_by_key(|&(at_ps, _)| at_ps);
    let mut adversity = Adversity::healthy();
    for (_, damage) in drawn {
        match damage {
            Damage::FailLink(link) => adversity.net = adversity.net.fail_link(link),
            Damage::DegradeLink(link, factor) => {
                adversity.net = adversity.net.degrade_link(link, factor);
            }
            Damage::FailBank(bank) => adversity = adversity.fail_bank(bank),
        }
    }
    adversity
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_reproduce_and_vary_by_seed() {
        let a = random_adversity(12, 16, 64, 32);
        assert_eq!(a, random_adversity(12, 16, 64, 32));
        assert_ne!(a, random_adversity(13, 16, 64, 32));
        // Pinned: what this seed draws, in onset order — the link and bank
        // lists keep it.
        assert_eq!(a.net.failed_links, vec![11, 6, 39]);
        assert_eq!(
            a.net.degraded_links,
            vec![(15, 0.77579182684578), (43, 0.6235592553621394), (44, 0.6868937008376049)]
        );
        assert_eq!(a.failed_banks, vec![27, 17, 25]);
    }

    #[test]
    fn no_events_is_healthy() {
        assert!(random_adversity(9, 0, 64, 16).is_healthy());
    }
}
