//! Collective-communication patterns timed on the simulator.
//!
//! These are the three patterns the study's applications use:
//!
//! * **2D halo exchange** — LBMHD stream step, Cactus ghost zones;
//! * **all-to-all personalized exchange** — PARATEC's 3D-FFT data
//!   transposes (the global communication the paper identifies as the
//!   scaling limiter);
//! * **allreduce** — CG dot products in PARATEC and GTC's Poisson solve.
//!
//! Each collective walks its [`crate::schedule`] and sends every message
//! through [`NetSim::send`] as the schedule emits it, so contention effects
//! (torus bisection, slim-tree uplinks) emerge from the topology rather than
//! being assumed. One schedule has a shortcut: on a crossbar whose links
//! the exchange uses all run at one rate, the rotation all-to-all keeps
//! every endpoint's clocks in step, so it is timed on one endpoint's two
//! clocks (`NetSim::rotate`, same expressions as `send`) and its messages
//! are only booked. Each collective is one body generic over the
//! [`Ledger`] and returns `(seconds, ledger)`; its `*_stats` wrapper
//! counts into [`SimStats`], and the `()` ledger times it without
//! counting. An allreduce round ends at its latest finish, merged with the
//! simulator's own compare-select. On a network built by
//! [`Network::with_faults`] the same functions time the damaged machine:
//! routes detour around hard failures and derated links and lost crossbar
//! port lanes slow what crosses them.

use crate::des::{later, Ledger, NetSim, SimStats, Traffic};
use crate::schedule::{recursive_doubling, rotation_sampled, Cart2d, Cart3d};
use crate::topology::Network;

/// A 2D periodic halo exchange: every rank of a `px × py` [`Cart2d`]
/// sends `bytes_per_edge` to each of its four edge neighbours and
/// `bytes_per_corner` to each of its four corners (LBMHD's octagonal
/// lattice streams along diagonals too), in [`Cart2d::neighbors8`]'s
/// order. Returns the time in seconds and the ledger every message was
/// booked into. A neighbour that folds onto the sender and a zero-byte
/// message are not sent.
pub fn halo_exchange_2d<L: Ledger>(
    net: &Network,
    px: usize,
    py: usize,
    bytes_per_edge: u64,
    bytes_per_corner: u64,
) -> (f64, L) {
    let grid = Cart2d::new(px, py);
    let (e, c) = (bytes_per_edge, bytes_per_corner);
    let bytes = [e, e, e, e, c, c, c, c];
    halo_exchange(net, grid.size(), grid.stencils(), bytes)
}

/// [`halo_exchange_2d`] counted into [`SimStats`].
pub fn halo_exchange_2d_stats(
    net: &Network,
    px: usize,
    py: usize,
    bytes_per_edge: u64,
    bytes_per_corner: u64,
) -> SimStats {
    let halo = halo_exchange_2d(net, px, py, bytes_per_edge, bytes_per_corner);
    stats(halo)
}

/// A 3D face halo exchange: every rank of a `px × py × pz` [`Cart3d`]
/// sends `bytes_per_face` to each of its six face neighbours (Cactus
/// ghost zones), in [`Cart3d::neighbors6`]'s order. Returns the time in
/// seconds and the ledger. A neighbour that folds onto the sender and a
/// zero-byte message are not sent.
pub fn halo_exchange_3d<L: Ledger>(
    net: &Network,
    px: usize,
    py: usize,
    pz: usize,
    bytes_per_face: u64,
) -> (f64, L) {
    let grid = Cart3d::new(px, py, pz);
    halo_exchange(net, grid.size(), grid.stencils(), [bytes_per_face; 6])
}

/// [`halo_exchange_3d`] counted into [`SimStats`].
pub fn halo_exchange_3d_stats(
    net: &Network,
    px: usize,
    py: usize,
    pz: usize,
    bytes_per_face: u64,
) -> SimStats {
    stats(halo_exchange_3d(net, px, py, pz, bytes_per_face))
}

/// The halo body both exchanges share: each of the `size` ranks, in rank
/// order, sends `bytes[i]` to the `i`-th neighbour of its stencil,
/// skipping itself and zero-byte messages.
fn halo_exchange<L: Ledger, const K: usize>(
    net: &Network,
    size: usize,
    stencils: impl Iterator<Item = [usize; K]>,
    bytes: [u64; K],
) -> (f64, L) {
    assert!(
        size <= net.config().endpoints,
        "process grid exceeds network"
    );
    let mut sim = NetSim::<L>::with_ledger(net);
    for (src, stencil) in stencils.enumerate() {
        for (dst, bytes) in stencil.into_iter().zip(bytes) {
            if dst != src && bytes > 0 {
                sim.send(src, dst, bytes, 0.0);
            }
        }
    }
    sim.finish()
}

/// An all-to-all personalized exchange of `bytes_per_pair` between every
/// ordered pair of the first `p` endpoints — the communication core of a
/// distributed matrix/FFT transpose — simulating at most `max_rounds` of
/// the `p - 1` rotation rounds ([`rotation_sampled`]) and scaling
/// linearly, which keeps 1024-rank FFT-transpose modelling cheap
/// (`max_rounds >= p - 1` simulates every round). Linear scaling assumes
/// every round loads the network alike, and the torus breaks that:
/// sampled ÷ full schedule at 24 rounds reads 0.71–0.76 on the X1 torus
/// at P = 128–1024, where the stride aliases with the torus rows, against
/// 1.03–1.07 on the fat-trees and ≈ 1.005 on the ES (ROADMAP item 4).
/// The returned time is the extrapolated full-collective time; the ledger
/// describes only the rounds actually simulated — consumers extrapolating
/// totals should scale by `(p - 1) / min(p - 1, max_rounds)`.
pub fn all_to_all_sampled<L: Ledger>(
    net: &Network,
    p: usize,
    bytes_per_pair: u64,
    max_rounds: usize,
) -> (f64, L) {
    assert!(p <= net.config().endpoints && max_rounds >= 1);
    let mut sim = NetSim::<L>::with_ledger(net);
    if p < 2 {
        return sim.finish();
    }
    // Stagger destinations (rotation schedule) like real MPI_Alltoall
    // implementations to avoid synthetic endpoint hotspots. A healthy
    // crossbar times the schedule on one endpoint's clocks; anything else
    // sends it message by message.
    let rounds = rotation_sampled(p, max_rounds);
    let scale = (p - 1) as f64 / rounds.len() as f64;
    if !sim.rotate(p, bytes_per_pair, 0.0, rounds.clone()) {
        for round in rounds {
            for src in 0..p {
                sim.send(src, round.to(src, p), bytes_per_pair, 0.0);
            }
        }
    }
    let (makespan_s, ledger) = sim.finish();
    (makespan_s * scale, ledger)
}

/// [`all_to_all_sampled`] counted into [`SimStats`].
pub fn all_to_all_stats_sampled(
    net: &Network,
    p: usize,
    bytes_per_pair: u64,
    max_rounds: usize,
) -> SimStats {
    stats(all_to_all_sampled(net, p, bytes_per_pair, max_rounds))
}

/// A recursive-doubling allreduce of `bytes` across the first `p`
/// endpoints: every round of [`recursive_doubling`] exchanges `bytes`
/// between each rank and its partner. At a non-power-of-two `p` this is
/// not an allreduce: a partner at or beyond `p` is skipped, so at p = 12
/// ranks 4–7 never receive 8–11's contributions, and only the 40 messages
/// sent (12 + 12 + 8 + 8) are timed. Rounds execute back to back on idle
/// links, so makespans add; the ledger accumulates over all rounds.
pub fn allreduce<L: Ledger>(net: &Network, p: usize, bytes: u64) -> (f64, L) {
    assert!(p >= 1 && p <= net.config().endpoints);
    let mut sim = NetSim::<L>::with_ledger(net);
    let mut makespan_s = 0.0;
    for partner in recursive_doubling(p) {
        sim.reset();
        let mut round_s = 0.0f64;
        for src in 0..p {
            if let Some(dst) = partner(src) {
                round_s = later(round_s, sim.send(src, dst, bytes, 0.0));
            }
        }
        makespan_s += round_s;
    }
    (makespan_s, sim.finish().1)
}

/// [`allreduce`] counted into [`SimStats`].
pub fn allreduce_stats(net: &Network, p: usize, bytes: u64) -> SimStats {
    stats(allreduce(net, p, bytes))
}

/// A collective's counted result as [`SimStats`].
fn stats((makespan_s, traffic): (f64, Traffic)) -> SimStats {
    traffic.into_stats(makespan_s)
}

/// Measure the effective bisection bandwidth (GB/s) of a network by
/// saturating it with pairwise traffic across a balanced cut and dividing
/// moved bytes by the makespan. On a damaged network, rerouting around
/// failed torus links and derated survivors both show up in the number.
pub fn measured_bisection_gbs(net: &Network, bytes_per_pair: u64) -> f64 {
    assert!(net.config().endpoints >= 2);
    let mut sim = NetSim::new(net);
    for (a, b) in net.bisection_pairs() {
        sim.send(a, b, bytes_per_pair, 0.0);
        sim.send(b, a, bytes_per_pair, 0.0);
    }
    sim.into_stats().aggregate_gbs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::Message;
    use crate::fault::LinkFaults;
    use crate::topology::{NetworkConfig, TopologyKind};

    fn mk(kind: TopologyKind, endpoints: usize) -> Network {
        Network::new(NetworkConfig {
            kind,
            endpoints,
            link_bw_gbs: 1.0,
            latency_us: 5.0,
        })
    }

    /// Every rotation round simulated: the sampled schedule with nothing
    /// left to extrapolate.
    fn all_to_all_time(net: &Network, p: usize, bytes_per_pair: u64) -> f64 {
        all_to_all_stats_sampled(net, p, bytes_per_pair, p.saturating_sub(1).max(1)).makespan_s
    }

    #[test]
    fn halo_stats_count_every_message() {
        let net = mk(TopologyKind::Crossbar, 16);
        let stats = halo_exchange_2d_stats(&net, 4, 4, 10_000, 100);
        // 16 ranks x (4 edge + 4 corner) neighbours, all distinct on 4x4.
        assert_eq!(stats.messages, 16 * 8);
        assert_eq!(stats.total_bytes, 16 * (4 * 10_000 + 4 * 100));
        assert!(
            stats.hops >= stats.messages,
            "every message routes >= 1 hop"
        );
        // Byte-hop conservation: per-link loads sum to bytes x hops traversed.
        let link_sum: u64 = stats.link_bytes.iter().sum();
        assert!(link_sum >= stats.total_bytes);
    }

    #[test]
    fn halos_skip_self_and_zero_byte_messages() {
        let net = mk(TopologyKind::Crossbar, 16);
        // One row: N and S fold onto the sender, the corners onto E and W.
        assert_eq!(
            halo_exchange_2d_stats(&net, 16, 1, 1_000, 0).messages,
            16 * 2
        );
        assert_eq!(
            halo_exchange_2d_stats(&net, 16, 1, 1_000, 10).messages,
            16 * 6
        );
        assert_eq!(halo_exchange_2d_stats(&net, 4, 4, 0, 10).messages, 16 * 4);
        // 2 × 2 × 4: ±x and ±y each fold onto one neighbour, ±z are two.
        assert_eq!(halo_exchange_3d_stats(&net, 2, 2, 4, 10).messages, 16 * 6);
        let silent = halo_exchange_3d_stats(&net, 2, 2, 4, 0);
        assert_eq!((silent.messages, silent.makespan_s), (0, 0.0));
        let silent = halo_exchange_2d_stats(&net, 4, 4, 0, 0);
        assert_eq!((silent.messages, silent.makespan_s), (0, 0.0));
    }

    #[test]
    fn stats_record_to_registry() {
        let net = mk(TopologyKind::Torus2D, 16);
        let stats = halo_exchange_3d_stats(&net, 2, 2, 2, 5_000);
        let reg = pvs_obs::Registry::new();
        stats.record_to(&reg);
        assert_eq!(reg.counter("netsim.messages"), stats.messages);
        assert_eq!(reg.counter("netsim.payload_bytes"), stats.total_bytes);
        assert_eq!(reg.counter("netsim.hops"), stats.hops);
        assert_eq!(reg.counter("netsim.links.used"), stats.links_used());
        assert_eq!(reg.gauge("netsim.link.peak_bytes"), stats.peak_link_bytes());
        assert!(stats.links_used() > 0);
    }

    #[test]
    fn allreduce_stats_accumulate_rounds() {
        let net = mk(TopologyKind::Crossbar, 16);
        let stats = allreduce_stats(&net, 16, 8_000);
        // 4 recursive-doubling rounds x 16 ranks exchanging pairwise.
        assert_eq!(stats.messages, 4 * 16);
        // A partner at or beyond p is skipped. p = 12: masks 1 and 2 pair
        // all 12, mask 4 pairs 0–3 with 4–7 and leaves 8–11 alone, mask 8
        // pairs 0–3 with 8–11 and leaves 4–7 alone. p = 3: 0↔1, then 0↔2.
        assert_eq!(allreduce_stats(&net, 12, 8_000).messages, 12 + 12 + 8 + 8);
        assert_eq!(allreduce_stats(&net, 3, 8_000).messages, 2 + 2);
        let single = allreduce_stats(&net, 1, 8_000);
        assert_eq!(single.messages, 0);
        assert_eq!(single.makespan_s, 0.0);
    }

    #[test]
    fn sampled_all_to_all_stats_describe_simulated_rounds() {
        let net = mk(TopologyKind::Crossbar, 16);
        let stats = all_to_all_stats_sampled(&net, 16, 10_000, 5);
        assert_eq!(stats.messages, 5 * 16, "5 simulated rounds of p messages");
    }

    #[test]
    fn halo_scales_mildly_with_processors() {
        let n64 = mk(TopologyKind::Crossbar, 64);
        let n256 = mk(TopologyKind::Crossbar, 256);
        let t64 = halo_exchange_2d_stats(&n64, 8, 8, 100_000, 1_000).makespan_s;
        let t256 = halo_exchange_2d_stats(&n256, 16, 16, 100_000, 1_000).makespan_s;
        // Nearest-neighbour traffic on a crossbar: roughly constant per P.
        assert!(t256 < 2.0 * t64, "halo should not blow up: {t64} -> {t256}");
    }

    #[test]
    fn all_to_all_on_torus_slower_than_crossbar() {
        let torus = mk(TopologyKind::Torus2D, 64);
        let xbar = mk(TopologyKind::Crossbar, 64);
        let tt = all_to_all_time(&torus, 64, 50_000);
        let tc = all_to_all_time(&xbar, 64, 50_000);
        assert!(
            tt > 1.5 * tc,
            "torus bisection must hurt all-to-all: torus {tt}, crossbar {tc}"
        );
    }

    #[test]
    fn all_to_all_grows_superlinearly_on_torus() {
        let t64 = all_to_all_time(&mk(TopologyKind::Torus2D, 64), 64, 20_000);
        let t256 = all_to_all_time(&mk(TopologyKind::Torus2D, 256), 256, 20_000);
        // 4x endpoints => 16x pairs but only 2x bisection: > 4x time.
        assert!(t256 > 4.0 * t64, "{t64} -> {t256}");
    }

    #[test]
    fn sampled_all_to_all_tracks_full_simulation() {
        let net = mk(TopologyKind::Torus2D, 32);
        let full = all_to_all_time(&net, 32, 40_000);
        let sampled = all_to_all_stats_sampled(&net, 32, 40_000, 8).makespan_s;
        assert!(
            (sampled - full).abs() / full < 0.35,
            "sampled {sampled} vs full {full}"
        );
    }

    #[test]
    fn all_to_all_of_fewer_than_two_ranks_is_empty() {
        let net = mk(TopologyKind::Crossbar, 4);
        for p in [0, 1] {
            assert_eq!(all_to_all_time(&net, p, 10_000), 0.0, "p={p}");
            let stats = all_to_all_stats_sampled(&net, p, 10_000, 1);
            assert_eq!(stats.messages, 0, "p={p}");
            assert!(stats.size_dist.is_empty(), "p={p}");
            assert_eq!(stats.makespan_s, 0.0, "p={p}");
        }
    }

    #[test]
    fn all_to_all_time_is_the_full_rotation_list_bit_for_bit() {
        // Every rotation round, spelled out message by message.
        let full_rotation = |net: &Network, p: usize, bytes: u64| {
            let mut msgs = Vec::new();
            for round in 1..p {
                for src in 0..p {
                    msgs.push(Message {
                        src,
                        dst: (src + round) % p,
                        bytes,
                        submit_s: 0.0,
                    });
                }
            }
            NetSim::new(net).run(&msgs).makespan_s
        };
        let slim_tree = TopologyKind::FatTree {
            arity: 4,
            slim: 0.5,
        };
        for kind in [TopologyKind::Crossbar, slim_tree, TopologyKind::Torus2D] {
            let net = mk(kind, 33);
            for p in [2, 16, 33] {
                assert_eq!(
                    all_to_all_time(&net, p, 40_000).to_bits(),
                    full_rotation(&net, p, 40_000).to_bits(),
                    "{kind:?} p={p}"
                );
            }
        }
    }

    #[test]
    fn sampled_all_to_all_exact_when_rounds_cover_all() {
        let net = mk(TopologyKind::Crossbar, 16);
        let full = all_to_all_time(&net, 16, 10_000);
        let sampled = all_to_all_stats_sampled(&net, 16, 10_000, 15).makespan_s;
        assert!((sampled - full).abs() / full < 0.25, "{sampled} vs {full}");
    }

    #[test]
    fn allreduce_log_rounds() {
        let net = mk(TopologyKind::Crossbar, 64);
        let t8 = allreduce_stats(&net, 8, 8_000).makespan_s;
        let t64 = allreduce_stats(&net, 64, 8_000).makespan_s;
        // 3 rounds vs 6 rounds: about 2x.
        assert!(
            t64 < 3.0 * t8,
            "allreduce must scale logarithmically: {t8} vs {t64}"
        );
        assert!(t64 > t8);
    }

    #[test]
    fn allreduce_single_rank_is_free() {
        let net = mk(TopologyKind::Crossbar, 4);
        assert_eq!(allreduce_stats(&net, 1, 1_000_000).makespan_s, 0.0);
    }

    #[test]
    fn measured_bisection_orders_topologies() {
        let xbar = measured_bisection_gbs(&mk(TopologyKind::Crossbar, 64), 1_000_000);
        let full_tree = measured_bisection_gbs(
            &mk(
                TopologyKind::FatTree {
                    arity: 4,
                    slim: 1.0,
                },
                64,
            ),
            1_000_000,
        );
        let slim_tree = measured_bisection_gbs(
            &mk(
                TopologyKind::FatTree {
                    arity: 4,
                    slim: 0.5,
                },
                64,
            ),
            1_000_000,
        );
        let torus = measured_bisection_gbs(&mk(TopologyKind::Torus2D, 64), 1_000_000);
        assert!(xbar > torus, "crossbar {xbar} vs torus {torus}");
        assert!(
            full_tree > slim_tree,
            "full {full_tree} vs slim {slim_tree}"
        );
    }

    #[test]
    fn a_network_built_with_no_faults_times_like_a_healthy_one() {
        let net = mk(TopologyKind::Torus2D, 16);
        let same = Network::with_faults(net.config().clone(), &LinkFaults::healthy());
        assert_eq!(
            halo_exchange_2d_stats(&net, 4, 4, 10_000, 100).makespan_s,
            halo_exchange_2d_stats(&same, 4, 4, 10_000, 100).makespan_s
        );
        assert_eq!(
            allreduce_stats(&net, 16, 8_000).makespan_s,
            allreduce_stats(&same, 16, 8_000).makespan_s
        );
        assert_eq!(
            all_to_all_stats_sampled(&net, 16, 10_000, 5).makespan_s,
            all_to_all_stats_sampled(&same, 16, 10_000, 5).makespan_s
        );
    }

    #[test]
    fn torus_link_failure_slows_all_to_all_and_shifts_traffic() {
        let healthy_net = mk(TopologyKind::Torus2D, 16);
        let healthy = all_to_all_stats_sampled(&healthy_net, 16, 50_000, 8);
        let faults = LinkFaults::healthy().fail_link(0).fail_link(2);
        let net = Network::with_faults(healthy_net.config().clone(), &faults);
        let degraded = all_to_all_stats_sampled(&net, 16, 50_000, 8);
        assert!(
            degraded.makespan_s >= healthy.makespan_s,
            "rerouting never speeds things up: {} vs {}",
            degraded.makespan_s,
            healthy.makespan_s
        );
        assert_eq!(degraded.link_bytes[0], 0, "dead link carries nothing");
        assert!(
            degraded.hops > healthy.hops,
            "detours add hops: {} vs {}",
            degraded.hops,
            healthy.hops
        );
    }

    #[test]
    fn crossbar_port_loss_slows_the_halo() {
        let net = mk(TopologyKind::Crossbar, 16);
        let healthy = halo_exchange_2d_stats(&net, 4, 4, 200_000, 2_000).makespan_s;
        let damaged =
            Network::with_faults(net.config().clone(), &LinkFaults::healthy().lose_port(5));
        let degraded = halo_exchange_2d_stats(&damaged, 4, 4, 200_000, 2_000).makespan_s;
        assert!(degraded > healthy, "{degraded} vs {healthy}");
    }

    #[test]
    fn measured_bisection_drops_with_cut_link_failures() {
        let healthy_net = mk(TopologyKind::Torus2D, 64);
        let cut = healthy_net.bisection_cut_links().expect("torus cut");
        // Cut layout per row: [interior +x, interior -x, wrap +x, wrap -x].
        // Failing both +x crossings in half the rows squeezes all of those
        // rows' crossing traffic onto the two surviving -x links, halving
        // their capacity; each ring stays connected (the -x arc survives).
        let mut faults = LinkFaults::healthy();
        for row in cut.chunks(4).take(4) {
            faults = faults.fail_link(row[0]).fail_link(row[2]);
        }
        let net = Network::with_faults(healthy_net.config().clone(), &faults);
        let healthy = measured_bisection_gbs(&healthy_net, 1_000_000);
        let degraded = measured_bisection_gbs(&net, 1_000_000);
        assert!(
            degraded > 0.0 && degraded < 0.9 * healthy,
            "lost cut capacity must show up: {degraded} vs {healthy}"
        );
    }

    #[test]
    fn measured_bisection_tracks_analytic_for_crossbar() {
        let net = mk(TopologyKind::Crossbar, 32);
        let measured = measured_bisection_gbs(&net, 10_000_000);
        let analytic = net.analytic_bisection_gbs();
        // Measured counts both directions; allow a 2x band plus latency noise.
        assert!(
            measured > analytic * 0.8 && measured < analytic * 2.2,
            "{measured} vs {analytic}"
        );
    }
}
