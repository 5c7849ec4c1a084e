//! Independent oracle for the DES hot path.
//!
//! `NetSim::send` and `Network::walk_route` are written for speed: no
//! route is ever stored, the fat-tree climb reads a precomputed ancestor
//! table, torus coordinates come from a table instead of `%` and `/`, a
//! torus ring is one stepping loop over an arc picked once, every clock
//! merge is a compare-select, per-link denominators are hoisted, the
//! distributions are run-length bookkeeping, the collectives send
//! straight from their schedule loops, and a healthy crossbar's rotation
//! all-to-all is timed on one endpoint's two clocks without sending a
//! message. This file keeps the straightforward spelling — a fresh `Vec`
//! per route, coordinates by division, a direction branch and a `%` per
//! ring hop, `f64::max` for every merge, a `BTreeMap` update per message,
//! an unconditional stable sort, a derate looked up per link, one message
//! list per collective, every message timed on its own links — as a
//! private reference, and requires the crate to agree with it **bit for
//! bit**: every message's finish time (the step's return value) and every
//! `SimStats` field, for every topology family, every collective the
//! engine issues, and every fault shape the chaos harness injects, plus
//! torus links failed on the wrap-around arc. Routes are compared for
//! every ordered pair at 7 (a 7 × 1 ring), 16, 64 and 250 (25 × 10)
//! endpoints. The message lists are rebuilt here too, so the collectives'
//! schedules are checked against a second spelling as well. Each
//! collective also runs on the timing-only `()` ledger, the one a bare
//! engine run uses, and its makespan must equal the reference's bit for
//! bit: a ledger may only watch the link clocks, never move them.

use std::collections::BTreeMap;

use pvs_netsim::collectives::{
    all_to_all_sampled, all_to_all_stats_sampled, allreduce, allreduce_stats, halo_exchange_2d,
    halo_exchange_2d_stats, halo_exchange_3d, halo_exchange_3d_stats,
};
use pvs_netsim::{
    Ledger, LinkFaults, Message, NetSim, Network, NetworkConfig, SimStats, TopologyKind,
};

const HOP_LATENCY_SHARE: f64 = 0.1;
const ENDPOINTS: [usize; 7] = [1, 2, 7, 16, 64, 250, 1024];

fn kinds() -> [TopologyKind; 6] {
    let tree = |arity, slim| TopologyKind::FatTree { arity, slim };
    [
        TopologyKind::Crossbar,
        tree(2, 1.0),
        tree(2, 0.5),
        tree(4, 1.0),
        tree(4, 0.5),
        TopologyKind::Torus2D,
    ]
}

/// With this bandwidth and the 0.7 derate of `fault_cases`, the three ways
/// to associate `bw * derate * 1e9` give three different doubles, so the
/// operand order of the hoisted rate is pinned
/// (`the_bandwidth_tells_every_rate_association_apart` checks that).
const LINK_BW_GBS: f64 = 2.7;
const DERATE: f64 = 0.7;

fn cfg(kind: TopologyKind, endpoints: usize) -> NetworkConfig {
    NetworkConfig {
        kind,
        endpoints,
        link_bw_gbs: LINK_BW_GBS,
        latency_us: 7.3,
    }
}

// ---------------------------------------------------------------------
// The reference: routing
// ---------------------------------------------------------------------

fn ref_route(net: &Network, src: usize, dst: usize) -> Vec<usize> {
    let endpoints = net.config().endpoints;
    assert!(src < endpoints && dst < endpoints);
    if src == dst {
        return Vec::new();
    }
    match net.config().kind {
        TopologyKind::Crossbar => vec![2 * src, 2 * dst + 1],
        TopologyKind::FatTree { arity, .. } => {
            let mut levels = 0usize;
            let mut span = 1usize;
            while span < endpoints {
                span *= arity;
                levels += 1;
            }
            let mut up = vec![2 * src];
            let mut down = vec![2 * dst + 1];
            let mut base = 2 * endpoints;
            for l in 0..levels {
                let group = arity.pow(l as u32 + 1);
                let groups = endpoints.div_ceil(group);
                let gs = src / group;
                let gd = dst / group;
                if gs == gd {
                    break;
                }
                up.push(base + 2 * gs);
                down.push(base + 2 * gd + 1);
                base += 2 * groups;
            }
            down.reverse();
            up.extend(down);
            up
        }
        TopologyKind::Torus2D => {
            let (xd, yd) = net.torus_dims().expect("torus dims");
            let (sx, sy) = (src % xd, src / xd);
            let (dx, dy) = (dst % xd, dst / xd);
            let mut route = ref_ring(net, sx, dx, xd, |c| sy * xd + c, 0);
            route.extend(ref_ring(net, sy, dy, yd, |c| c * xd + dx, 2));
            route
        }
    }
}

fn ref_ring(
    net: &Network,
    from: usize,
    to: usize,
    len: usize,
    node_of: impl Fn(usize) -> usize,
    dir_base: usize,
) -> Vec<usize> {
    if from == to {
        return Vec::new();
    }
    let fwd = (to + len - from) % len;
    let arc = |forward: bool| -> Vec<usize> {
        let mut links = Vec::new();
        let mut c = from;
        while c != to {
            let node = node_of(c);
            if forward {
                links.push(4 * node + dir_base);
                c = (c + 1) % len;
            } else {
                links.push(4 * node + dir_base + 1);
                c = (c + len - 1) % len;
            }
        }
        links
    };
    let preferred = arc(fwd <= len - fwd);
    if !preferred.iter().any(|&l| net.link_failed(l)) {
        return preferred;
    }
    let detour = arc(fwd > len - fwd);
    assert!(
        !detour.iter().any(|&l| net.link_failed(l)),
        "reference: torus ring partitioned"
    );
    detour
}

// ---------------------------------------------------------------------
// The reference: the simulator
// ---------------------------------------------------------------------

/// Straightforward simulator state: per-link free time and derate.
struct RefSim<'a> {
    net: &'a Network,
    link_free_s: Vec<f64>,
    link_derate: Vec<f64>,
}

impl<'a> RefSim<'a> {
    /// Every link asked for its effective factor, one by one.
    fn new(net: &'a Network) -> Self {
        let mut link_derate = vec![1.0; net.num_links()];
        for (id, derate) in link_derate.iter_mut().enumerate() {
            let factor = net.effective_link_factor(id);
            if factor > 0.0 && factor < 1.0 {
                *derate = factor;
            }
        }
        Self {
            net,
            link_free_s: vec![0.0; net.num_links()],
            link_derate,
        }
    }

    fn reset(&mut self) {
        self.link_free_s.iter_mut().for_each(|t| *t = 0.0);
    }

    fn run(&mut self, messages: &[Message]) -> RefRun {
        let mut order: Vec<usize> = (0..messages.len()).collect();
        order.sort_by(|&a, &b| {
            messages[a]
                .submit_s
                .partial_cmp(&messages[b].submit_s)
                .expect("finite times")
                .then(a.cmp(&b))
        });
        let latency_s = self.net.config().latency_us * 1e-6;
        let sw_latency = latency_s * (1.0 - HOP_LATENCY_SHARE);
        let hop_latency = latency_s * HOP_LATENCY_SHARE;

        let mut finish = vec![0.0f64; messages.len()];
        let mut total_bytes = 0u64;
        let mut hops = 0u64;
        let mut link_bytes = vec![0u64; self.net.num_links()];
        let mut size_dist: BTreeMap<u64, u64> = BTreeMap::new();
        let mut hop_dist: BTreeMap<u64, u64> = BTreeMap::new();
        for &i in &order {
            let m = &messages[i];
            total_bytes += m.bytes;
            let route = ref_route(self.net, m.src, m.dst);
            hops += route.len() as u64;
            *size_dist.entry(m.bytes).or_insert(0) += 1;
            *hop_dist.entry(route.len() as u64).or_insert(0) += 1;
            for &l in route.iter() {
                link_bytes[l] += m.bytes;
            }
            if route.is_empty() {
                finish[i] = m.submit_s + m.bytes as f64 / (self.net.config().link_bw_gbs * 1e9);
                continue;
            }
            let mut t = m.submit_s;
            for (k, &l) in route.iter().enumerate() {
                let start = t.max(self.link_free_s[l]);
                let xfer = m.bytes as f64 / (self.net.link_bw(l) * self.link_derate[l] * 1e9);
                let occupancy = if k == 0 {
                    sw_latency + xfer
                } else {
                    hop_latency + xfer
                };
                t = start + occupancy;
                self.link_free_s[l] = t;
            }
            finish[i] = t;
        }
        let makespan_s = finish.iter().cloned().fold(0.0, f64::max);
        RefRun {
            stats: SimStats {
                makespan_s,
                total_bytes,
                messages: messages.len() as u64,
                hops,
                link_bytes,
                size_dist,
                hop_dist,
            },
            finish,
            order,
        }
    }
}

/// One reference batch: its statistics, every message's finish time by
/// index, and the order the messages were processed in.
struct RefRun {
    stats: SimStats,
    finish: Vec<f64>,
    order: Vec<usize>,
}

/// Fold a later round, run after `total` on idle links, into it:
/// makespans add and traffic counters sum.
fn absorb_sequential(total: &mut SimStats, round: &SimStats) {
    total.makespan_s += round.makespan_s;
    total.total_bytes += round.total_bytes;
    total.messages += round.messages;
    total.hops += round.hops;
    for (a, b) in total.link_bytes.iter_mut().zip(&round.link_bytes) {
        *a += *b;
    }
    for (&size, &n) in &round.size_dist {
        *total.size_dist.entry(size).or_insert(0) += n;
    }
    for (&hops, &n) in &round.hop_dist {
        *total.hop_dist.entry(hops).or_insert(0) += n;
    }
}

// ---------------------------------------------------------------------
// The reference: message lists of the four collectives
// ---------------------------------------------------------------------

fn msg(src: usize, dst: usize, bytes: u64) -> Message {
    Message {
        src,
        dst,
        bytes,
        submit_s: 0.0,
    }
}

fn halo_2d_msgs(px: usize, py: usize, edge: u64, corner: u64) -> Vec<Message> {
    let rank = |x: usize, y: usize| (y % py) * px + (x % px);
    let mut msgs = Vec::new();
    for y in 0..py {
        for x in 0..px {
            let src = rank(x, y);
            for (dx, dy) in [(1, 0), (px - 1, 0), (0, 1), (0, py - 1)] {
                let dst = rank(x + dx, y + dy);
                if dst != src && edge > 0 {
                    msgs.push(msg(src, dst, edge));
                }
            }
            for (dx, dy) in [(1, 1), (1, py - 1), (px - 1, 1), (px - 1, py - 1)] {
                let dst = rank(x + dx, y + dy);
                if dst != src && corner > 0 {
                    msgs.push(msg(src, dst, corner));
                }
            }
        }
    }
    msgs
}

fn halo_3d_msgs(px: usize, py: usize, pz: usize, face: u64) -> Vec<Message> {
    let rank = |x: usize, y: usize, z: usize| ((z % pz) * py + (y % py)) * px + (x % px);
    let mut msgs = Vec::new();
    for z in 0..pz {
        for y in 0..py {
            for x in 0..px {
                let src = rank(x, y, z);
                let steps = [
                    (1, 0, 0),
                    (px - 1, 0, 0),
                    (0, 1, 0),
                    (0, py - 1, 0),
                    (0, 0, 1),
                    (0, 0, pz - 1),
                ];
                for (dx, dy, dz) in steps {
                    let dst = rank(x + dx, y + dy, z + dz);
                    if dst != src {
                        msgs.push(msg(src, dst, face));
                    }
                }
            }
        }
    }
    msgs
}

/// Sampled rotation schedule and the factor its makespan is scaled by.
fn all_to_all_msgs(p: usize, bytes: u64, max_rounds: usize) -> (Vec<Message>, f64) {
    if p < 2 {
        return (Vec::new(), 1.0);
    }
    let total_rounds = p - 1;
    let simulate = total_rounds.min(max_rounds);
    let stride = total_rounds as f64 / simulate as f64;
    let mut msgs = Vec::new();
    for k in 0..simulate {
        let round = 1 + (k as f64 * stride) as usize;
        for src in 0..p {
            msgs.push(msg(src, (src + round) % p, bytes));
        }
    }
    (msgs, total_rounds as f64 / simulate as f64)
}

/// One message list per recursive-doubling round.
fn allreduce_rounds(p: usize, bytes: u64) -> Vec<Vec<Message>> {
    let mut rounds = Vec::new();
    let mut dist = 1usize;
    while dist < p {
        rounds.push(
            (0..p)
                .filter(|src| src ^ dist < p)
                .map(|src| msg(src, src ^ dist, bytes))
                .collect(),
        );
        dist <<= 1;
    }
    rounds
}

// ---------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------

fn assert_same(got: &SimStats, want: &SimStats, ctx: &str) {
    assert_eq!(
        got.makespan_s.to_bits(),
        want.makespan_s.to_bits(),
        "{ctx}: makespan_s {:e} vs {:e}",
        got.makespan_s,
        want.makespan_s
    );
    assert_eq!(got.total_bytes, want.total_bytes, "{ctx}: total_bytes");
    assert_eq!(got.messages, want.messages, "{ctx}: messages");
    assert_eq!(got.hops, want.hops, "{ctx}: hops");
    assert_eq!(got.link_bytes, want.link_bytes, "{ctx}: link_bytes");
    assert_eq!(got.size_dist, want.size_dist, "{ctx}: size_dist");
    assert_eq!(got.hop_dist, want.hop_dist, "{ctx}: hop_dist");
}

/// Drive the crate's per-message step over `msgs` in the reference's
/// processing order, holding every returned finish time to the
/// reference's bit for bit. Returns the latest of them.
fn step_all<L: Ledger>(sim: &mut NetSim<L>, msgs: &[Message], want: &RefRun, ctx: &str) -> f64 {
    let mut latest = 0.0f64;
    for &i in &want.order {
        let m = &msgs[i];
        let got = sim.send(m.src, m.dst, m.bytes, m.submit_s);
        assert_eq!(
            got.to_bits(),
            want.finish[i].to_bits(),
            "{ctx}: finish of message {i} {got:e} vs {:e}",
            want.finish[i]
        );
        latest = latest.max(got);
    }
    latest
}

/// A collective's counted result `got` and its timing-only makespan
/// `timed` equal the reference run of its message list `msgs` (makespan
/// scaled by `scale`), and so does the crate's step driven over that list
/// message by message.
fn check_collective(
    net: &Network,
    msgs: &[Message],
    scale: f64,
    got: &SimStats,
    timed: f64,
    ctx: &str,
) {
    let mut want = RefSim::new(net).run(msgs);
    let mut sim = NetSim::new(net);
    step_all(&mut sim, msgs, &want, ctx);
    let mut stepped = sim.into_stats();
    want.stats.makespan_s *= scale;
    stepped.makespan_s *= scale;
    assert_same(got, &want.stats, ctx);
    assert_same(&stepped, &want.stats, &format!("stepped {ctx}"));
    assert_eq!(
        timed.to_bits(),
        want.stats.makespan_s.to_bits(),
        "timing-only {ctx}: makespan_s {timed:e} vs {:e}",
        want.stats.makespan_s
    );
}

/// Smallest-first factorisation of `n` into `parts` factors.
fn factors(n: usize, parts: usize) -> Vec<usize> {
    if parts == 1 {
        return vec![n];
    }
    let root = (n as f64).powf(1.0 / parts as f64).round() as usize;
    let f = (1..=root.max(1))
        .rev()
        .find(|&f| n.is_multiple_of(f))
        .unwrap_or(1);
    let mut rest = factors(n / f, parts - 1);
    rest.insert(0, f);
    rest
}

/// The fault shapes the chaos harness injects, as `(label, faults)`.
/// Hard failures are only legal on the torus.
fn fault_cases(net: &Network) -> Vec<(&'static str, LinkFaults)> {
    let last = net.num_links() - 1;
    let mut cases = vec![
        ("healthy", LinkFaults::healthy()),
        (
            "degraded",
            // Link 0 is endpoint 0's injection link (+x of node 0 on the
            // torus); the last link is the top of the tree. The second
            // one composes two derates.
            LinkFaults::healthy()
                .degrade_link(0, DERATE)
                .degrade_link(last, 0.5)
                .degrade_link(last, 0.5),
        ),
        (
            "lost-port",
            LinkFaults::healthy()
                .lose_port(0)
                .lose_port(net.config().endpoints / 2),
        ),
    ];
    if let Some((xd, yd)) = net.torus_dims() {
        cases.push((
            "failed-links",
            LinkFaults::healthy()
                .fail_link(0)
                .fail_link(2)
                .degrade_link(1, DERATE),
        ));
        // The + links out of coordinate 1 and out of the last coordinate
        // (the wrap-around link back to 0) of row 0 and column 0. A short
        // forward arc over coordinate 1 detours backwards through 0 and
        // round the wrap; one over the wrap detours backwards to it. Only
        // + links fail, so no ring is partitioned.
        let (x1, y1) = (1 % xd, (1 % yd) * xd);
        cases.push((
            "failed-wrap",
            LinkFaults::healthy()
                .fail_link(4 * x1)
                .fail_link(4 * (xd - 1))
                .fail_link(4 * y1 + 2)
                .fail_link(4 * (yd - 1) * xd + 2),
        ));
    }
    cases
}

/// Every `(kind, endpoints, fault case)` the collectives are checked on,
/// each as one damaged network.
fn for_each_network(mut check: impl FnMut(&Network, &str)) {
    for kind in kinds() {
        for endpoints in ENDPOINTS {
            let healthy = Network::new(cfg(kind, endpoints));
            for (label, faults) in fault_cases(&healthy) {
                let net = Network::with_faults(cfg(kind, endpoints), &faults);
                check(&net, &format!("{kind:?} n={endpoints} {label}"));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[test]
fn halo_exchanges_match_the_reference() {
    for_each_network(|net, ctx| {
        let n = net.config().endpoints;
        // The near-square grid and the one-row grid of GTC's shift, where
        // N and S fold onto the sender and the corners onto E and W.
        for g in [factors(n, 2), vec![n, 1]] {
            let got = halo_exchange_2d_stats(net, g[0], g[1], 48_000, 600);
            let (timed, ()) = halo_exchange_2d(net, g[0], g[1], 48_000, 600);
            let msgs = halo_2d_msgs(g[0], g[1], 48_000, 600);
            let ctx = format!("halo2d {}x{} {ctx}", g[0], g[1]);
            check_collective(net, &msgs, 1.0, &got, timed, &ctx);
        }

        let g = factors(n, 3);
        let got = halo_exchange_3d_stats(net, g[0], g[1], g[2], 125_000);
        let (timed, ()) = halo_exchange_3d(net, g[0], g[1], g[2], 125_000);
        let msgs = halo_3d_msgs(g[0], g[1], g[2], 125_000);
        check_collective(net, &msgs, 1.0, &got, timed, &format!("halo3d {ctx}"));
    });
}

#[test]
fn sampled_all_to_all_matches_the_reference() {
    for_each_network(|net, ctx| {
        let p = net.config().endpoints;
        let got = all_to_all_stats_sampled(net, p, 9_216, 24);
        let (timed, ()) = all_to_all_sampled(net, p, 9_216, 24);
        let (msgs, scale) = all_to_all_msgs(p, 9_216, 24);
        check_collective(net, &msgs, scale, &got, timed, &format!("all-to-all {ctx}"));
    });
}

/// The sampled all-to-all among part of a crossbar, at every sampling
/// depth. Healthy, and with damage only beyond the exchanging endpoints,
/// the crate times it on one endpoint's clocks; `degraded` and
/// `lost-port` touch endpoint 0, so it sends message by message. Every
/// case must equal the reference.
#[test]
fn crossbar_all_to_all_among_part_of_the_machine_matches_the_reference() {
    let n = 1024;
    let healthy = Network::new(cfg(TopologyKind::Crossbar, n));
    let mut cases = fault_cases(&healthy);
    cases.push((
        "damaged-beyond-p",
        LinkFaults::healthy()
            .lose_port(n - 24)
            .degrade_link(2 * n - 1, 0.7),
    ));
    for (label, faults) in cases {
        let net = Network::with_faults(cfg(TopologyKind::Crossbar, n), &faults);
        for p in [2, 7, 250] {
            for max_rounds in [1, 5, 24, p - 1] {
                let got = all_to_all_stats_sampled(&net, p, 9_216, max_rounds);
                let (timed, ()) = all_to_all_sampled(&net, p, 9_216, max_rounds);
                let (msgs, scale) = all_to_all_msgs(p, 9_216, max_rounds);
                let ctx = format!("all-to-all p={p} rounds={max_rounds} Crossbar n={n} {label}");
                check_collective(&net, &msgs, scale, &got, timed, &ctx);
            }
        }
    }
}

#[test]
fn allreduce_matches_the_reference() {
    for_each_network(|net, ctx| {
        let p = net.config().endpoints;
        let mut reference = RefSim::new(net);
        let mut sim = NetSim::new(net);
        let mut want = reference.run(&[]).stats;
        let mut stepped_makespan = 0.0;
        for msgs in allreduce_rounds(p, 8_192) {
            reference.reset();
            sim.reset();
            let round = reference.run(&msgs);
            stepped_makespan += step_all(&mut sim, &msgs, &round, &format!("allreduce {ctx}"));
            absorb_sequential(&mut want, &round.stats);
        }
        let mut stepped = sim.into_stats();
        stepped.makespan_s = stepped_makespan;
        let got = allreduce_stats(net, p, 8_192);
        assert_same(&got, &want, &format!("allreduce {ctx}"));
        assert_same(&stepped, &want, &format!("stepped allreduce {ctx}"));
        let (timed, ()) = allreduce(net, p, 8_192);
        assert_eq!(timed.to_bits(), want.makespan_s.to_bits(), "timing-only allreduce {ctx}");
    });
}

/// `sim.run(msgs)` equals the reference run, and so does a second
/// simulator in the same state stepped through the reference's order; a
/// timing-only third returns the same finish times.
fn check_batch(
    sim: &mut NetSim,
    stepper: &mut NetSim,
    timed: &mut NetSim<()>,
    reference: &mut RefSim,
    msgs: &[Message],
    ctx: &str,
) {
    let want = reference.run(msgs);
    assert_same(&sim.run(msgs), &want.stats, ctx);
    step_all(stepper, msgs, &want, ctx);
    // An empty run closes the batch the steps opened.
    assert_same(&stepper.run(&[]), &want.stats, &format!("stepped {ctx}"));
    step_all(timed, msgs, &want, &format!("timing-only {ctx}"));
}

/// A batch no collective produces: submit times out of order and tied,
/// three payload sizes interleaved, local copies, and a second batch on
/// the same (un-reset, then reset) simulator. Exercises the sort
/// fallback, the run-length flush and the 0-hop bucket, and the only
/// local copies the timing-only ledger sees (no collective sends a rank
/// to itself).
#[test]
fn hand_built_batches_match_the_reference() {
    for_each_network(|net, ctx| {
        let n = net.config().endpoints;
        let sizes = [4_096u64, 17, 4_096, 4_096, 1_000_000, 17];
        let times = [3e-6, 0.0, 3e-6, 1e-6, 0.0, 2.5e-4, 1e-6];
        let unsorted: Vec<Message> = (0..60)
            .map(|i| Message {
                src: (i * 7) % n,
                dst: if i % 5 == 0 {
                    (i * 7) % n
                } else {
                    (i * 11 + 3) % n
                },
                bytes: sizes[i % sizes.len()],
                submit_s: times[i % times.len()],
            })
            .collect();
        // Already non-decreasing, with ties and a size change mid-run.
        let sorted: Vec<Message> = (0..40)
            .map(|i| Message {
                src: (i * 3) % n,
                dst: (i * 13 + 1) % n,
                bytes: if i < 25 { 2_048 } else { 96 },
                submit_s: (i / 4) as f64 * 1e-6,
            })
            .collect();

        let mut reference = RefSim::new(net);
        let mut sim = NetSim::new(net);
        let mut stepper = NetSim::new(net);
        let mut timed = NetSim::<()>::with_ledger(net);
        let (sim, stepper, timed, reference) =
            (&mut sim, &mut stepper, &mut timed, &mut reference);
        check_batch(sim, stepper, timed, reference, &unsorted, &format!("unsorted {ctx}"));
        // Link occupancy carries over into the next batch…
        check_batch(sim, stepper, timed, reference, &sorted, &format!("carried {ctx}"));
        // …until it is reset.
        sim.reset();
        stepper.reset();
        timed.reset();
        reference.reset();
        check_batch(sim, stepper, timed, reference, &unsorted, &format!("reset {ctx}"));
        check_batch(sim, stepper, timed, reference, &[], &format!("empty {ctx}"));
    });
}

#[test]
#[should_panic(expected = "finite times")]
fn nan_submit_times_still_reach_the_sort() {
    let net = Network::new(cfg(TopologyKind::Crossbar, 4));
    let at = |submit_s| Message {
        src: 0,
        dst: 1,
        bytes: 8,
        submit_s,
    };
    let _ = NetSim::new(&net).run(&[at(0.0), at(f64::NAN), at(1.0)]);
}

/// Every ordered pair, on every topology family and fault case, at a
/// 7 × 1 ring, a square 4 × 4 and 8 × 8 torus and an oblong 25 × 10 one.
#[test]
fn walk_route_matches_the_reference_for_every_pair() {
    for kind in kinds() {
        for n in [7, 16, 64, 250] {
            let healthy = Network::new(cfg(kind, n));
            for (label, faults) in fault_cases(&healthy) {
                let net = Network::with_faults(cfg(kind, n), &faults);
                for src in 0..n {
                    for dst in 0..n {
                        let ctx = format!("{kind:?} n={n} {label} {src}->{dst}");
                        let want = ref_route(&net, src, dst);
                        let mut walked = Vec::new();
                        net.walk_route(src, dst, |l| walked.push(l));
                        assert_eq!(walked, want, "{ctx}");
                        assert_eq!(net.route(src, dst), want, "{ctx}");
                        assert_eq!(net.hops(src, dst), want.len(), "{ctx}");
                    }
                }
            }
        }
    }
}

/// The `failed-wrap` case really detours: on the 8 × 8 torus, 1 → 3 in
/// row 0 goes backwards through coordinate 0 and round the wrap, and
/// 7 → 0 backwards the long way to 0.
#[test]
fn a_failed_wrap_link_detours_backwards_through_zero() {
    let healthy = Network::new(cfg(TopologyKind::Torus2D, 64));
    let (_, faults) = fault_cases(&healthy)
        .into_iter()
        .find(|(label, _)| *label == "failed-wrap")
        .expect("torus wrap case");
    let net = Network::with_faults(cfg(TopologyKind::Torus2D, 64), &faults);
    let minus_x = |nodes: &[usize]| nodes.iter().map(|&n| 4 * n + 1).collect::<Vec<_>>();
    assert_eq!(healthy.route(1, 3), vec![4, 8]);
    assert_eq!(net.route(1, 3), minus_x(&[1, 0, 7, 6, 5, 4]));
    assert_eq!(healthy.route(7, 0), vec![28]);
    assert_eq!(net.route(7, 0), minus_x(&[7, 6, 5, 4, 3, 2, 1]));
}

#[test]
fn the_bandwidth_tells_every_rate_association_apart() {
    let rates = [
        (LINK_BW_GBS * DERATE) * 1e9,
        LINK_BW_GBS * (DERATE * 1e9),
        (LINK_BW_GBS * 1e9) * DERATE,
    ];
    assert_ne!(rates[0].to_bits(), rates[1].to_bits(), "{rates:?}");
    assert_ne!(rates[0].to_bits(), rates[2].to_bits(), "{rates:?}");
    assert_ne!(rates[1].to_bits(), rates[2].to_bits(), "{rates:?}");
}

#[test]
#[should_panic(expected = "torus ring partitioned")]
fn a_partitioned_ring_still_panics() {
    // Both x exits of node 0 on a 4x4 torus: +x blocks the short arc to
    // node 1, -x blocks the detour.
    let faults = LinkFaults::healthy().fail_link(0).fail_link(1);
    let net = Network::with_faults(cfg(TopologyKind::Torus2D, 16), &faults);
    net.walk_route(0, 1, |_| {});
}
