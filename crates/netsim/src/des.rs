//! Discrete-event message-transfer simulation with link contention.
//!
//! The simulator uses a store-and-forward approximation with per-link FIFO
//! serialization: a message occupies each link on its route for
//! `bytes / link_bw` seconds, queueing behind earlier traffic. Latency is
//! charged once per message (software overhead, dominant at these message
//! sizes) plus a small per-hop wire component. This level of fidelity
//! captures what the paper's analysis needs — serialization on shared tree
//! uplinks and torus rows under all-to-all load — without modelling flits.
//!
//! Each send advances the link clocks, which decide the time, and books
//! the message into a [`Ledger`]. The counting [`Traffic`] ledger backs
//! [`SimStats`]; the `()` ledger books nothing, so a caller that never
//! reads the counters (an engine run with no recorder) pays only for the
//! timing chain. Both ledgers see the same clocks, so their makespans are
//! bit-identical.
//!
//! The timing chain of a hop is one clock merge and one add. Every merge
//! of two simulated times (a hop's start behind its link's clock, the
//! makespan, a rotation's two clocks, an allreduce round's finish) is
//! the compare-select `later`, one `maxsd` on x86, where `f64::max` adds
//! four instructions to order NaN. It is exact because no simulated time is
//! NaN: [`Network::new`] rejects a bandwidth that is not finite and
//! positive, a latency that is not finite and non-negative and a fat-tree
//! `slim` that is not finite and positive, and [`NetSim::send`] a submit
//! time that is NaN or negative.

use std::collections::BTreeMap;

use crate::schedule::Round;
use crate::topology::{Network, TopologyKind};

/// Per-hop wire/switch latency as a fraction of the configured end-to-end
/// latency (the rest is software/injection overhead charged once).
const HOP_LATENCY_SHARE: f64 = 0.1;

/// The later of two simulated times: the one spelling of a clock merge.
/// A compare-select is one `maxsd`, where `f64::max` adds four
/// instructions to order NaN. The two agree bit for bit on every pair of
/// non-NaN times but `(+0, −0)`, and no simulated time is NaN:
/// [`Network::new`] requires a positive link rate and a non-negative
/// latency, and [`NetSim::send`] a non-negative submit time.
#[inline(always)]
pub(crate) fn later(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// One point-to-point transfer request.
#[derive(Debug, Clone, Copy)]
pub struct Message {
    /// Source endpoint.
    pub src: usize,
    /// Destination endpoint.
    pub dst: usize,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Time the message is submitted, in seconds.
    pub submit_s: f64,
}

/// Aggregate results of a simulation run.
#[derive(Debug, Clone)]
pub struct SimStats {
    /// Time at which the last message completed.
    pub makespan_s: f64,
    /// Total payload bytes moved.
    pub total_bytes: u64,
    /// Messages simulated.
    pub messages: u64,
    /// Route hops traversed across all messages (a local copy has none).
    pub hops: u64,
    /// Payload bytes carried per link, indexed by link id.
    pub link_bytes: Vec<u64>,
    /// Message count by payload size: `size_dist[bytes]` messages carried
    /// exactly `bytes` of payload. Sorted, so dumps are deterministic.
    pub size_dist: BTreeMap<u64, u64>,
    /// Message count by route length: `hop_dist[hops]` messages traversed
    /// exactly `hops` links (local copies count as 0 hops).
    pub hop_dist: BTreeMap<u64, u64>,
}

impl SimStats {
    /// Aggregate delivered bandwidth in GB/s over the makespan.
    pub fn aggregate_gbs(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        self.total_bytes as f64 / 1e9 / self.makespan_s
    }

    /// Number of links that carried any payload.
    pub fn links_used(&self) -> u64 {
        self.link_bytes.iter().filter(|&&b| b > 0).count() as u64
    }

    /// Heaviest per-link payload (the hotspot a collective serializes on).
    pub fn peak_link_bytes(&self) -> u64 {
        self.link_bytes.iter().copied().max().unwrap_or(0)
    }

    /// Report aggregate traffic counters into a
    /// [`Recorder`](pvs_obs::Recorder) under the `netsim.*` names (message
    /// count, payload/hop totals, link usage; the full per-link byte vector
    /// stays on the struct for programmatic consumers).
    pub fn record_to(&self, r: &dyn pvs_obs::Recorder) {
        r.add("netsim.messages", self.messages);
        r.add("netsim.payload_bytes", self.total_bytes);
        r.add("netsim.hops", self.hops);
        r.add("netsim.links.used", self.links_used());
        r.gauge_max("netsim.link.peak_bytes", self.peak_link_bytes());
        let mut entries: Vec<(&str, u64, u64)> =
            Vec::with_capacity(self.size_dist.len() + self.hop_dist.len());
        entries.extend(
            self.size_dist
                .iter()
                .map(|(&size, &n)| ("netsim.hist.msg_bytes", size, n)),
        );
        entries.extend(
            self.hop_dist
                .iter()
                .map(|(&hops, &n)| ("netsim.hist.msg_hops", hops, n)),
        );
        if !entries.is_empty() {
            r.record_many(&entries);
        }
    }
}

/// What a simulator books besides its link clocks: one hook per hop a
/// message crosses and one per message. The link clocks and the makespan
/// live on [`NetSim`] and decide every time; a ledger only watches.
pub trait Ledger {
    /// An empty ledger for a network of `links` links.
    fn open(links: usize) -> Self;
    /// `bytes` of payload crossed link `link`.
    fn hop(&mut self, link: usize, bytes: u64);
    /// A message of `bytes` payload was sent over `hops` links (0 for a
    /// local copy).
    fn message(&mut self, bytes: u64, hops: usize);
}

/// The timing-only ledger: every hook is a no-op.
impl Ledger for () {
    fn open(_: usize) {}
    #[inline]
    fn hop(&mut self, _: usize, _: u64) {}
    #[inline]
    fn message(&mut self, _: u64, _: usize) {}
}

/// The counting ledger: traffic counters of the messages sent since it
/// opened. The distributions stay flat while messages fly and become
/// maps once, in [`Traffic::into_stats`]: payload sizes as runs of equal
/// consecutive sizes (a collective has one or two), hop counts as an
/// array indexed by route length.
#[derive(Debug)]
pub struct Traffic {
    total_bytes: u64,
    messages: u64,
    hops: u64,
    link_bytes: Vec<u64>,
    size_runs: Vec<(u64, u64)>,
    hop_counts: Vec<u64>,
}

impl Ledger for Traffic {
    fn open(links: usize) -> Self {
        Self {
            total_bytes: 0,
            messages: 0,
            hops: 0,
            link_bytes: vec![0; links],
            size_runs: Vec::new(),
            hop_counts: Vec::new(),
        }
    }

    #[inline]
    fn hop(&mut self, link: usize, bytes: u64) {
        self.link_bytes[link] += bytes;
    }

    #[inline]
    fn message(&mut self, bytes: u64, hops: usize) {
        self.messages += 1;
        self.total_bytes += bytes;
        match self.size_runs.last_mut() {
            Some((size, n)) if *size == bytes => *n += 1,
            _ => self.size_runs.push((bytes, 1)),
        }
        self.hops += hops as u64;
        if self.hop_counts.len() <= hops {
            self.hop_counts.resize(hops + 1, 0);
        }
        self.hop_counts[hops] += 1;
    }
}

impl Traffic {
    /// The counters as [`SimStats`], with `makespan_s` the time the
    /// caller assigns them.
    pub fn into_stats(self, makespan_s: f64) -> SimStats {
        let mut size_dist: BTreeMap<u64, u64> = BTreeMap::new();
        for (bytes, n) in self.size_runs {
            *size_dist.entry(bytes).or_insert(0) += n;
        }
        let hop_dist = (0u64..).zip(self.hop_counts).filter(|&(_, n)| n > 0).collect();
        SimStats {
            makespan_s,
            total_bytes: self.total_bytes,
            messages: self.messages,
            hops: self.hops,
            link_bytes: self.link_bytes,
            size_dist,
            hop_dist,
        }
    }
}

/// Discrete-event network simulator bound to a [`Network`]. Messages go
/// in one at a time through [`NetSim::send`], which times each against
/// the link clocks and books it into the ledger `L` (a healthy crossbar's
/// rotation all-to-all goes in a whole schedule at a time, timed on one
/// endpoint's clocks); [`NetSim::finish`]
/// hands back the makespan and the ledger. The default, [`Traffic`],
/// counts, and [`NetSim::run`] and [`NetSim::into_stats`] close it into
/// a [`SimStats`].
#[derive(Debug)]
pub struct NetSim<'a, L: Ledger = Traffic> {
    net: &'a Network,
    link_free_s: Vec<f64>,
    /// Per-link delivered bandwidth in bytes/s, derated by the link's
    /// failure-injection factor in `(0, 1]` (a degraded cable, a
    /// congested switch port). A hop's transfer time is
    /// `bytes / link_rate[l]`.
    link_rate: Vec<f64>,
    /// Software latency, charged on a message's injection link.
    sw_latency: f64,
    /// Wire/switch latency, charged on every further hop.
    hop_latency: f64,
    /// Bytes/s of a local (same-endpoint) copy.
    local_rate: f64,
    /// Latest finish time among the messages booked into `ledger`.
    makespan_s: f64,
    ledger: L,
}

impl<'a, L: Ledger> NetSim<'a, L> {
    /// New simulator booking into an empty `L`, with all links idle and
    /// every link named by the network's damage (a degrade or a crossbar
    /// port-lane loss) derated to its [`Network::effective_link_factor`].
    /// Hard link failures are already routed around by the network
    /// itself.
    pub fn with_ledger(net: &'a Network) -> Self {
        let latency_s = net.config().latency_us * 1e-6;
        // The one spelling of a link's delivered bytes/s. The operand
        // order is part of the model: every published cell's bits depend
        // on it.
        let rate = |id: usize, derate: f64| net.link_bw(id) * derate * 1e9;
        let mut link_rate: Vec<f64> = (0..net.num_links()).map(|l| rate(l, 1.0)).collect();
        let faults = net.faults();
        let degraded = faults.degraded_links.iter().map(|&(id, _)| id);
        let ports = faults.lost_ports.iter().flat_map(|&e| [2 * e, 2 * e + 1]);
        for id in degraded.chain(ports).filter(|&id| id < net.num_links()) {
            let factor = net.effective_link_factor(id);
            if factor > 0.0 && factor < 1.0 {
                link_rate[id] = rate(id, factor);
            }
        }
        Self {
            net,
            link_free_s: vec![0.0; net.num_links()],
            link_rate,
            sw_latency: latency_s * (1.0 - HOP_LATENCY_SHARE),
            hop_latency: latency_s * HOP_LATENCY_SHARE,
            local_rate: net.config().link_bw_gbs * 1e9,
            makespan_s: 0.0,
            ledger: L::open(net.num_links()),
        }
    }

    /// The per-message step: send `bytes` from `src` to `dst` at
    /// `submit_s`, each link of the route acquired FIFO behind the traffic
    /// already sent, and book the message into the ledger. Returns its
    /// finish time. Callers send in submission order; `submit_s` must be
    /// a time, so NaN and negative values panic.
    pub fn send(&mut self, src: usize, dst: usize, bytes: u64, submit_s: f64) -> f64 {
        assert!(submit_s >= 0.0, "submit time {submit_s} is not a time");
        // The first (injection) link carries the per-message software
        // overhead: a sender issuing many small messages serializes on it
        // (what makes per-band FFT transposes latency-bound at high
        // processor counts). Every further hop costs the wire/switch share.
        let size = bytes as f64;
        let (free, rate, ledger) = (&mut self.link_free_s, &self.link_rate, &mut self.ledger);
        let hop_latency = self.hop_latency;
        let mut latency = self.sw_latency;
        let mut t = submit_s;
        let mut hops = 0;
        self.net.walk_route(src, dst, |l| {
            ledger.hop(l, bytes);
            let start = later(t, free[l]);
            t = start + (latency + size / rate[l]);
            free[l] = t;
            latency = hop_latency;
            hops += 1;
        });
        if hops == 0 {
            // Local copy: charge only a memcpy-ish cost via injection bw.
            t = submit_s + size / self.local_rate;
        }
        ledger.message(bytes, hops);
        self.makespan_s = later(self.makespan_s, t);
        t
    }

    /// Time a rotation all-to-all among the first `p` endpoints of a
    /// crossbar on two scalar clocks, booking every message into the
    /// ledger as [`NetSim::send`] would. In each of `rounds` (rounds of
    /// [`rotation`](crate::schedule::rotation) over `p`) every `src < p`
    /// sends `bytes` to `round.to(src, p)`, submitted at `submit_s`. A
    /// round is a permutation: each of the `p` endpoints injects once, on
    /// its own link `2·src`, and ejects once, on its own `2·dst + 1`. So
    /// if those `2p` links share one rate, all `p` injection clocks agree
    /// and all `p` ejection clocks agree (as on a fresh simulator), they
    /// still agree after every round, and one message's chain, spelled as
    /// in `send`, times every message of the round. Returns `false` having
    /// done nothing when that does not hold: another topology, `p < 2`, or
    /// a derated link or a diverged clock among those endpoints.
    pub(crate) fn rotate(
        &mut self,
        p: usize,
        bytes: u64,
        submit_s: f64,
        rounds: impl Iterator<Item = Round>,
    ) -> bool {
        assert!(submit_s >= 0.0, "submit time {submit_s} is not a time");
        let links = 2 * p;
        if !matches!(self.net.config().kind, TopologyKind::Crossbar) || p < 2 {
            return false;
        }
        let rate = self.link_rate[0];
        let (mut inj, mut ej) = (self.link_free_s[0], self.link_free_s[1]);
        let clocks = &mut self.link_free_s[..links];
        if self.link_rate[..links].iter().any(|&r| r != rate)
            || clocks.chunks_exact(2).any(|c| c[0] != inj || c[1] != ej)
        {
            return false;
        }
        let size = bytes as f64;
        for round in rounds {
            for src in 0..p {
                let dst = round.to(src, p);
                self.ledger.hop(2 * src, bytes);
                self.ledger.hop(2 * dst + 1, bytes);
                self.ledger.message(bytes, 2);
            }
            inj = later(submit_s, inj) + (self.sw_latency + size / rate);
            ej = later(inj, ej) + (self.hop_latency + size / rate);
            self.makespan_s = later(self.makespan_s, ej);
        }
        for c in clocks.chunks_exact_mut(2) {
            c[0] = inj;
            c[1] = ej;
        }
        true
    }

    /// Close the simulator: the latest finish time among the messages
    /// sent since it was built (0 for none), and the ledger they were
    /// booked into.
    pub fn finish(self) -> (f64, L) {
        (self.makespan_s, self.ledger)
    }

    /// Reset link occupancy (keeps the derates, the makespan and the
    /// ledger).
    pub fn reset(&mut self) {
        self.link_free_s.iter_mut().for_each(|t| *t = 0.0);
    }
}

impl<'a> NetSim<'a> {
    /// New counting simulator: [`NetSim::with_ledger`] with a
    /// [`Traffic`] ledger.
    pub fn new(net: &'a Network) -> Self {
        Self::with_ledger(net)
    }

    /// Close the counting ledger: the traffic counters of every message
    /// sent since the simulator was built or last [`NetSim::run`], with
    /// `makespan_s` the latest finish time among them (0 for none).
    pub fn into_stats(self) -> SimStats {
        let (makespan_s, traffic) = self.finish();
        traffic.into_stats(makespan_s)
    }

    /// Simulate a batch of messages: [`NetSim::send`] over them in
    /// submission order (stable for equal times), closing the ledger.
    /// Link occupancy carries over into the next batch until
    /// [`NetSim::reset`].
    pub fn run(&mut self, messages: &[Message]) -> SimStats {
        // Every collective submits its whole batch at t = 0, so the
        // stable sort only runs when the batch is out of order (a NaN
        // time counts as out of order and fails the `expect`).
        if messages.windows(2).all(|w| w[0].submit_s <= w[1].submit_s) {
            for m in messages {
                self.send(m.src, m.dst, m.bytes, m.submit_s);
            }
        } else {
            let mut order: Vec<&Message> = messages.iter().collect();
            order.sort_by(|a, b| a.submit_s.partial_cmp(&b.submit_s).expect("finite times"));
            for m in order {
                self.send(m.src, m.dst, m.bytes, m.submit_s);
            }
        }
        let traffic = std::mem::replace(&mut self.ledger, Traffic::open(self.net.num_links()));
        traffic.into_stats(std::mem::take(&mut self.makespan_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::LinkFaults;
    use crate::schedule::rotation;
    use crate::topology::{NetworkConfig, TopologyKind};

    fn cfg(kind: TopologyKind, endpoints: usize) -> NetworkConfig {
        NetworkConfig {
            kind,
            endpoints,
            link_bw_gbs: 1.0,
            latency_us: 10.0,
        }
    }

    fn net(kind: TopologyKind, endpoints: usize) -> Network {
        Network::new(cfg(kind, endpoints))
    }

    /// A crossbar with `faults` applied.
    fn damaged(endpoints: usize, faults: &LinkFaults) -> Network {
        Network::with_faults(cfg(TopologyKind::Crossbar, endpoints), faults)
    }

    #[test]
    fn single_message_time_is_latency_plus_transfer() {
        let n = net(TopologyKind::Crossbar, 4);
        let mut sim = NetSim::new(&n);
        let stats = sim.run(&[Message {
            src: 0,
            dst: 1,
            bytes: 1_000_000,
            submit_s: 0.0,
        }]);
        // 10us latency + 2 hops x 1MB / 1GB/s = 10e-6 + 2e-3.
        let expect = 10e-6 + 2.0 * 1e-3;
        assert!(
            (stats.makespan_s - expect).abs() / expect < 0.05,
            "{}",
            stats.makespan_s
        );
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        let n = net(TopologyKind::Crossbar, 4);
        let mut sim = NetSim::new(&n);
        // Two messages into the same destination share its ejection link.
        let stats = sim.run(&[
            Message {
                src: 0,
                dst: 3,
                bytes: 1_000_000,
                submit_s: 0.0,
            },
            Message {
                src: 1,
                dst: 3,
                bytes: 1_000_000,
                submit_s: 0.0,
            },
        ]);
        assert!(
            stats.makespan_s > 2.9e-3,
            "shared ejection must serialize: {}",
            stats.makespan_s
        );
    }

    #[test]
    fn disjoint_pairs_run_concurrently_on_crossbar() {
        let n = net(TopologyKind::Crossbar, 8);
        let mut sim = NetSim::new(&n);
        let msgs: Vec<Message> = (0..4)
            .map(|i| Message {
                src: i,
                dst: i + 4,
                bytes: 1_000_000,
                submit_s: 0.0,
            })
            .collect();
        let stats = sim.run(&msgs);
        // All four should finish in ~ one message time (2ms + latency).
        assert!(
            stats.makespan_s < 2.5e-3,
            "crossbar must not serialize disjoint pairs: {}",
            stats.makespan_s
        );
    }

    #[test]
    fn torus_column_contention_slower_than_crossbar() {
        let t = net(TopologyKind::Torus2D, 16);
        let c = net(TopologyKind::Crossbar, 16);
        // Each rank in the bottom two rows sends two rows up: the +y links
        // of the middle rows are shared, a bisection-style hotspot.
        let msgs: Vec<Message> = (0..8)
            .map(|i| Message {
                src: i,
                dst: i + 8,
                bytes: 500_000,
                submit_s: 0.0,
            })
            .collect();
        let mt = NetSim::new(&t).run(&msgs).makespan_s;
        let mc = NetSim::new(&c).run(&msgs).makespan_s;
        assert!(
            mt > mc,
            "torus {mt} should exceed crossbar {mc} under cross traffic"
        );
    }

    #[test]
    fn local_message_is_cheap() {
        let n = net(TopologyKind::Crossbar, 4);
        let mut sim = NetSim::new(&n);
        let stats = sim.run(&[Message {
            src: 2,
            dst: 2,
            bytes: 1_000_000,
            submit_s: 0.0,
        }]);
        assert!(stats.makespan_s < 1.1e-3);
    }

    #[test]
    fn distributions_partition_the_traffic() {
        let n = net(TopologyKind::Crossbar, 4);
        let mut sim = NetSim::new(&n);
        let stats = sim.run(&[
            Message { src: 0, dst: 1, bytes: 1000, submit_s: 0.0 },
            Message { src: 1, dst: 2, bytes: 1000, submit_s: 0.0 },
            Message { src: 2, dst: 3, bytes: 64, submit_s: 0.0 },
            Message { src: 3, dst: 3, bytes: 8, submit_s: 0.0 }, // local: 0 hops
        ]);
        assert_eq!(stats.size_dist.get(&1000), Some(&2));
        assert_eq!(stats.size_dist.get(&64), Some(&1));
        assert_eq!(stats.size_dist.get(&8), Some(&1));
        assert_eq!(stats.size_dist.values().sum::<u64>(), stats.messages);
        assert_eq!(stats.hop_dist.get(&0), Some(&1));
        assert_eq!(stats.hop_dist.values().sum::<u64>(), stats.messages);
        let weighted: u64 = stats.hop_dist.iter().map(|(&h, &n)| h * n).sum();
        assert_eq!(weighted, stats.hops);

        let reg = pvs_obs::Registry::new();
        stats.record_to(&reg);
        let sizes = reg.hist("netsim.hist.msg_bytes").unwrap();
        assert_eq!(sizes.count(), stats.messages);
        assert_eq!(sizes.sum(), stats.total_bytes);
        let hops = reg.hist("netsim.hist.msg_hops").unwrap();
        assert_eq!(hops.sum(), stats.hops);
    }

    #[test]
    fn a_batch_counts_every_send_across_a_reset() {
        let n = net(TopologyKind::Crossbar, 4);
        let mut sim = NetSim::new(&n);
        let first = sim.send(0, 1, 500, 0.0);
        sim.reset();
        let second = sim.send(0, 1, 500, 0.0);
        assert_eq!(first.to_bits(), second.to_bits(), "reset idles the links");
        let stats = sim.into_stats();
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.size_dist.get(&500), Some(&2));
        assert_eq!(stats.hop_dist.get(&2), Some(&2));
        assert_eq!(stats.link_bytes[0], 1000);
        assert_eq!(stats.makespan_s, first);
    }

    #[test]
    fn submit_times_are_respected() {
        let n = net(TopologyKind::Crossbar, 4);
        assert!(NetSim::new(&n).send(0, 1, 1000, 1.0) > 1.0);
    }

    #[test]
    fn one_degraded_link_stalls_a_whole_collective() {
        // Bulk-synchronous damage amplification: a single 10x-slow
        // injection link inflates the makespan of an all-to-all round far
        // beyond its own 1/64 share of the traffic.
        let n = net(TopologyKind::Crossbar, 16);
        let msgs: Vec<Message> = (0..16)
            .flat_map(|s| {
                (0..16).filter(move |&d| d != s).map(move |d| Message {
                    src: s,
                    dst: d,
                    bytes: 200_000,
                    submit_s: 0.0,
                })
            })
            .collect();
        let healthy = NetSim::new(&n).run(&msgs).makespan_s;
        // Rank 7's injection link at 10 %.
        let sick = damaged(16, &LinkFaults::healthy().degrade_link(2 * 7, 0.1));
        let degraded = NetSim::new(&sick).run(&msgs).makespan_s;
        assert!(
            degraded > 3.0 * healthy,
            "one bad link must dominate the collective: {degraded} vs {healthy}"
        );
    }

    #[test]
    fn degrading_an_unused_link_changes_nothing() {
        let n = net(TopologyKind::Crossbar, 4);
        let msgs = [Message {
            src: 0,
            dst: 1,
            bytes: 1_000_000,
            submit_s: 0.0,
        }];
        let clean = NetSim::new(&n).run(&msgs).makespan_s;
        // Rank 3's injection link: not on the route.
        let sick = damaged(4, &LinkFaults::healthy().degrade_link(2 * 3, 0.01));
        let faulty = NetSim::new(&sick).run(&msgs).makespan_s;
        assert!((clean - faulty).abs() < 1e-15);
    }

    #[test]
    fn healthy_with_faults_is_new_and_fault_entries_reach_their_links() {
        let n = net(TopologyKind::Crossbar, 8);
        let msgs: Vec<Message> = (0..8)
            .map(|i| Message {
                src: i,
                dst: (i + 3) % 8,
                bytes: 50_000 + i as u64,
                submit_s: 0.0,
            })
            .collect();
        let finishes = |net: &Network| -> Vec<u64> {
            let mut sim = NetSim::new(net);
            msgs.iter().map(|m| sim.send(m.src, m.dst, m.bytes, m.submit_s).to_bits()).collect()
        };
        let plain = NetSim::new(&n).run(&msgs);
        let healthy_net = damaged(8, &LinkFaults::healthy());
        let healthy = NetSim::new(&healthy_net).run(&msgs);
        assert_eq!(finishes(&n), finishes(&healthy_net));
        assert_eq!(plain.makespan_s, healthy.makespan_s);
        assert_eq!(plain.link_bytes, healthy.link_bytes);
        assert_eq!(plain.size_dist, healthy.size_dist);
        assert_eq!(plain.hop_dist, healthy.hop_dist);

        // Two 0.5 derates on one link compose to 0.25; a lost port
        // halves both of its endpoint's links; out-of-range ids are
        // ignored.
        let faults = LinkFaults::healthy()
            .degrade_link(4, 0.5)
            .degrade_link(4, 0.5)
            .degrade_link(999, 0.5)
            .lose_port(5)
            .lose_port(99);
        let by_hand = LinkFaults::healthy()
            .degrade_link(4, 0.25)
            .degrade_link(10, 0.5)
            .degrade_link(11, 0.5);
        assert_eq!(finishes(&damaged(8, &faults)), finishes(&damaged(8, &by_hand)));
        assert!(NetSim::new(&damaged(8, &faults)).run(&msgs).makespan_s > plain.makespan_s);
    }

    #[test]
    fn rotation_times_like_send_message_by_message() {
        // Endpoints 6..12 first flood the ejection links of 0..6, so the
        // rotation among 0..6 starts with its ejection clocks ahead of
        // its injection clocks; the second rotation is submitted after
        // every link is idle again.
        let n = net(TopologyKind::Crossbar, 12);
        let (p, bytes, rounds) = (6, 7_000, [1, 3, 4, 5]);
        let mut sent = NetSim::new(&n);
        let mut rotated = NetSim::new(&n);
        for sim in [&mut sent, &mut rotated] {
            for src in p..2 * p {
                sim.send(src, src - p, 90_000, 0.0);
            }
        }
        let bits = |sim: &NetSim| sim.link_free_s.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        for submit_s in [0.0, 2e-3] {
            for round in rounds {
                for src in 0..p {
                    sent.send(src, (src + round) % p, bytes, submit_s);
                }
            }
            let picked = rotation(p).filter(|r| rounds.contains(&(r.seq as usize)));
            assert!(rotated.rotate(p, bytes, submit_s, picked));
            assert_eq!(bits(&rotated), bits(&sent), "link clocks after submit {submit_s}");
        }
        let (sent, rotated) = (sent.into_stats(), rotated.into_stats());
        assert_eq!(rotated.makespan_s.to_bits(), sent.makespan_s.to_bits());
        assert_eq!(rotated.messages, sent.messages);
        assert_eq!(rotated.total_bytes, sent.total_bytes);
        assert_eq!(rotated.hops, sent.hops);
        assert_eq!(rotated.link_bytes, sent.link_bytes);
        assert_eq!(rotated.size_dist, sent.size_dist);
        assert_eq!(rotated.hop_dist, sent.hop_dist);
    }

    #[test]
    fn rotation_declines_what_one_endpoint_cannot_time() {
        let xbar = net(TopologyKind::Crossbar, 8);
        let declines = |net: &Network, p: usize| {
            let mut sim = NetSim::new(net);
            sim.send(7, 6, 100, 0.0);
            let before = sim.link_free_s.clone();
            if sim.rotate(p, 100, 0.0, rotation(p)) {
                return false;
            }
            assert_eq!(sim.link_free_s, before, "a declined rotation sends nothing");
            assert_eq!(sim.into_stats().messages, 1, "a declined rotation books nothing");
            true
        };
        assert!(declines(&net(TopologyKind::Torus2D, 8), 4));
        assert!(declines(&net(TopologyKind::FatTree { arity: 2, slim: 1.0 }, 8), 4));
        assert!(declines(&xbar, 1));
        // Endpoint 6's ejection clock is ahead of the others'.
        assert!(declines(&xbar, 8));
        // Derated or half-lost links among the first p endpoints…
        assert!(declines(&damaged(8, &LinkFaults::healthy().degrade_link(2 * 2 + 1, 0.5)), 4));
        assert!(declines(&damaged(8, &LinkFaults::healthy().lose_port(3)), 4));
        // …but not beyond them.
        assert!(!declines(&damaged(8, &LinkFaults::healthy().lose_port(4)), 4));
    }

    #[test]
    fn later_is_max_bit_for_bit_on_every_time() {
        let mut grid = Vec::new();
        for t in [0.0, f64::from_bits(1), 1e-300, 1.0, 1e300, f64::INFINITY] {
            grid.extend([t, t.next_up()]);
        }
        for &a in &grid {
            for &b in &grid {
                assert_eq!(later(a, b).to_bits(), a.max(b).to_bits(), "later({a:e}, {b:e})");
            }
        }
    }

    #[test]
    fn a_negative_zero_submit_finishes_like_positive_zero() {
        // With no latency and no payload every hop costs +0, so the merge
        // of a −0 submit with an idle +0 link is all the finish time is.
        let kinds = [
            TopologyKind::Crossbar,
            TopologyKind::FatTree { arity: 2, slim: 1.0 },
            TopologyKind::FatTree { arity: 4, slim: 0.5 },
            TopologyKind::Torus2D,
        ];
        for kind in kinds {
            for latency_us in [0.0, 10.0] {
                let n = Network::new(NetworkConfig { latency_us, ..cfg(kind, 16) });
                for (src, dst, bytes) in [(3, 3, 0), (3, 3, 64), (3, 12, 0), (3, 12, 4_096)] {
                    let finish = |submit_s: f64| {
                        let mut sim = NetSim::new(&n);
                        let t = sim.send(src, dst, bytes, submit_s);
                        [t.to_bits(), sim.into_stats().makespan_s.to_bits()]
                    };
                    let ctx = format!("{kind:?} latency {latency_us} {src}->{dst} {bytes} B");
                    assert_eq!(finish(-0.0), finish(0.0), "{ctx}");
                }
            }
            if kind == TopologyKind::Crossbar {
                let n = Network::new(NetworkConfig { latency_us: 0.0, ..cfg(kind, 16) });
                let rotated = |submit_s: f64| {
                    let mut sim = NetSim::new(&n);
                    assert!(sim.rotate(8, 0, submit_s, rotation(8)));
                    sim.into_stats().makespan_s.to_bits()
                };
                assert_eq!(rotated(-0.0), rotated(0.0), "rotation");
            }
        }
    }

    #[test]
    #[should_panic(expected = "is not a time")]
    fn a_nan_submit_is_rejected() {
        NetSim::new(&net(TopologyKind::Crossbar, 4)).send(0, 1, 8, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "is not a time")]
    fn a_negative_submit_is_rejected() {
        NetSim::new(&net(TopologyKind::Torus2D, 4)).send(0, 1, 8, -1e-9);
    }

    /// A 16-endpoint network with the given link bandwidth, latency and
    /// topology.
    fn built(link_bw_gbs: f64, latency_us: f64, kind: TopologyKind) -> Network {
        Network::new(NetworkConfig { kind, endpoints: 16, link_bw_gbs, latency_us })
    }

    #[test]
    #[should_panic(expected = "not a positive rate")]
    fn a_zero_bandwidth_is_rejected() {
        built(0.0, 10.0, TopologyKind::Crossbar);
    }

    #[test]
    #[should_panic(expected = "not a positive rate")]
    fn a_negative_bandwidth_is_rejected() {
        built(-1.0, 10.0, TopologyKind::Torus2D);
    }

    #[test]
    #[should_panic(expected = "not a positive rate")]
    fn a_nan_bandwidth_is_rejected() {
        built(f64::NAN, 10.0, TopologyKind::Crossbar);
    }

    #[test]
    #[should_panic(expected = "not a non-negative time")]
    fn a_nan_latency_is_rejected() {
        built(1.0, f64::NAN, TopologyKind::Crossbar);
    }

    #[test]
    #[should_panic(expected = "not a positive factor")]
    fn a_zero_slim_is_rejected() {
        built(1.0, 10.0, TopologyKind::FatTree { arity: 4, slim: 0.0 });
    }

    #[test]
    #[should_panic(expected = "not a positive factor")]
    fn a_negative_slim_is_rejected() {
        built(1.0, 10.0, TopologyKind::FatTree { arity: 2, slim: -0.5 });
    }

    #[test]
    fn aggregate_bandwidth_bounded_by_links() {
        let n = net(TopologyKind::Crossbar, 16);
        let mut sim = NetSim::new(&n);
        // Saturating all-to-all-ish load.
        let mut msgs = Vec::new();
        for s in 0..16 {
            for d in 0..16 {
                if s != d {
                    msgs.push(Message {
                        src: s,
                        dst: d,
                        bytes: 100_000,
                        submit_s: 0.0,
                    });
                }
            }
        }
        let stats = sim.run(&msgs);
        // 16 endpoints x 1 GB/s injection = 16 GB/s ceiling.
        assert!(stats.aggregate_gbs() <= 16.0 + 1e-6);
        assert!(
            stats.aggregate_gbs() > 4.0,
            "should get decent utilization: {}",
            stats.aggregate_gbs()
        );
    }
}
