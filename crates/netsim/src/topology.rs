//! Interconnect topology graphs and routing.
//!
//! A [`Network`] is a set of endpoints (processors) connected by directed
//! links, each with its own bandwidth. Routing is deterministic: up/down
//! through the least common ancestor for fat-trees, two hops through the
//! non-blocking core for the crossbar, and dimension-order (X then Y) with
//! wraparound for the 2D torus — matching how the real machines route.
//! A torus ring is walked by one stepping loop: its arc (direction and
//! detour) is picked once, and each hop steps the ring coordinate with a
//! compare-and-wrap, healthy or damaged alike. A network's bandwidth,
//! latency and fat-tree `slim` are checked when it is built, so every
//! link rate is positive and no simulated time on it can become NaN.

use crate::fault::LinkFaults;
use crate::schedule::Cart2d;

/// Topology family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyKind {
    /// Single-stage non-blocking crossbar (Earth Simulator IN).
    Crossbar,
    /// `arity`-ary fat-tree. `slim` scales how much capacity is added per
    /// level: `slim = 1.0` is a full fat-tree (bisection grows linearly with
    /// endpoints, like NUMAlink), smaller values model slimmed trees /
    /// omega networks (Colony, Federation).
    FatTree { arity: usize, slim: f64 },
    /// 2D torus with dimension-order routing (Cray X1). Its dimensions
    /// are [`Cart2d::near_square`] of the endpoint count.
    Torus2D,
}

/// Static description of an interconnect.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Topology family.
    pub kind: TopologyKind,
    /// Number of endpoints (processors or nodes, caller's choice of unit).
    pub endpoints: usize,
    /// Injection-link bandwidth per endpoint in GB/s (Table 1 per-CPU BW).
    pub link_bw_gbs: f64,
    /// Per-message software + wire latency in microseconds (Table 1 MPI
    /// latency).
    pub latency_us: f64,
}

/// One directed link.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// Bandwidth in GB/s.
    pub bw_gbs: f64,
}

/// A routable interconnect graph.
#[derive(Debug, Clone)]
pub struct Network {
    config: NetworkConfig,
    links: Vec<Link>,
    /// Torus dimensions when applicable.
    torus_dims: Option<(usize, usize)>,
    /// Fat-tree levels, leaf uplinks first: `(group, base)` where a level
    /// groups `group` endpoints under one switch and group `g`'s up/down
    /// link pair sits at `base + 2 * g`. Empty for the other topologies.
    tree: Vec<(usize, usize)>,
    /// Fat-tree ancestor table, endpoint-major: `up[e * levels + l]` is
    /// the up link endpoint `e` climbs at level `l` (its group's down link
    /// is one past it). Two endpoints share a level-`l` switch exactly when
    /// their entries there are equal. Empty for the other topologies.
    up: Vec<u32>,
    /// Torus coordinate table: `xy[e]` is endpoint `e`'s `(x, y)` on the
    /// `xd × yd` grid, so routing a message divides nothing. Empty for
    /// the other topologies.
    xy: Vec<(u32, u32)>,
    /// The damage this network was built with (healthy from
    /// [`Network::new`]): routes avoid its hard failures, and
    /// [`crate::des::NetSim::new`] prices its derates.
    faults: LinkFaults,
}

impl Network {
    /// Build the link graph for a configuration. Panics unless the link
    /// bandwidth is finite and positive, the latency finite and not
    /// negative, and a fat-tree's `slim` finite and positive: then every
    /// link rate is positive and every hop costs a time of at least +0,
    /// so no simulated time is NaN.
    pub fn new(config: NetworkConfig) -> Self {
        assert!(config.endpoints >= 1);
        let (bw, latency) = (config.link_bw_gbs, config.latency_us);
        assert!(bw.is_finite() && bw > 0.0, "link bandwidth {bw} GB/s is not a positive rate");
        assert!(
            latency.is_finite() && latency >= 0.0,
            "latency {latency} us is not a non-negative time"
        );
        match config.kind {
            TopologyKind::Crossbar => {
                // Per endpoint: one injection + one ejection link.
                let links = (0..2 * config.endpoints)
                    .map(|_| Link {
                        bw_gbs: config.link_bw_gbs,
                    })
                    .collect();
                Self {
                    config,
                    links,
                    torus_dims: None,
                    tree: Vec::new(),
                    up: Vec::new(),
                    xy: Vec::new(),
                    faults: LinkFaults::healthy(),
                }
            }
            TopologyKind::FatTree { arity, slim } => {
                assert!(arity >= 2);
                assert!(
                    slim.is_finite() && slim > 0.0,
                    "fat-tree slim {slim} is not a positive factor"
                );
                // Links: first, one injection + one ejection link per
                // endpoint into its leaf switch; then, for each level l
                // (0 = leaf uplink), each group of arity^(l+1) endpoints
                // shares an up/down link pair whose capacity is
                // link_bw * (arity * slim)^l (a full fat tree keeps
                // per-endpoint bandwidth constant up the tree).
                let mut links: Vec<Link> = (0..2 * config.endpoints)
                    .map(|_| Link {
                        bw_gbs: config.link_bw_gbs,
                    })
                    .collect();
                // As many levels as it takes to span all endpoints.
                let mut tree = Vec::new();
                let mut group = 1usize;
                while group < config.endpoints {
                    group *= arity;
                    let groups = config.endpoints.div_ceil(group);
                    let cap = config.link_bw_gbs * (arity as f64 * slim).powi(tree.len() as i32);
                    tree.push((group, links.len()));
                    // up and down, per group
                    links.resize(links.len() + 2 * groups, Link { bw_gbs: cap });
                }
                assert!(links.len() <= u32::MAX as usize, "fat-tree link ids exceed u32");
                let levels = tree.len();
                let mut up = vec![0u32; config.endpoints * levels];
                for (l, &(group, base)) in tree.iter().enumerate() {
                    for (g, members) in up.chunks_mut(group * levels).enumerate() {
                        for row in members.chunks_mut(levels) {
                            row[l] = (base + 2 * g) as u32;
                        }
                    }
                }
                Self {
                    config,
                    links,
                    torus_dims: None,
                    tree,
                    up,
                    xy: Vec::new(),
                    faults: LinkFaults::healthy(),
                }
            }
            TopologyKind::Torus2D => {
                let Cart2d { px: x, py: y } = Cart2d::near_square(config.endpoints);
                // 4 directed links per node: +x, -x, +y, -y.
                let links = (0..4 * x * y)
                    .map(|_| Link {
                        bw_gbs: config.link_bw_gbs,
                    })
                    .collect();
                assert!(x * y <= u32::MAX as usize, "torus coordinates exceed u32");
                let xy = (0..y as u32).flat_map(|r| (0..x as u32).map(move |c| (c, r))).collect();
                Self {
                    config,
                    links,
                    torus_dims: Some((x, y)),
                    tree: Vec::new(),
                    up: Vec::new(),
                    xy,
                    faults: LinkFaults::healthy(),
                }
            }
        }
    }

    /// Build a damaged network: the one way link damage enters the
    /// simulator. Routes avoid the hard failures and every simulator on
    /// the network prices the derates and lost port lanes. Only the 2D
    /// torus has redundant paths to route around a dead link (the long
    /// way round the affected ring); a failed link on a crossbar or
    /// fat-tree would disconnect endpoints outright, so it is rejected
    /// here — degrade those links instead.
    pub fn with_faults(config: NetworkConfig, faults: &LinkFaults) -> Self {
        let mut net = Self::new(config);
        if !faults.failed_links.is_empty() {
            assert!(
                matches!(net.config.kind, TopologyKind::Torus2D),
                "hard link failures are only reroutable on the 2D torus"
            );
        }
        for &id in &faults.failed_links {
            assert!(id < net.links.len(), "failed link {id} out of range");
        }
        net.faults = faults.clone();
        net
    }

    /// The damage this network was built with.
    pub(crate) fn faults(&self) -> &LinkFaults {
        &self.faults
    }

    /// Whether link `id` is hard-failed.
    pub fn link_failed(&self, id: usize) -> bool {
        self.faults.link_failed(id)
    }

    /// The configuration this network was built from.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Number of directed links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Bandwidth of link `id` in GB/s.
    pub fn link_bw(&self, id: usize) -> f64 {
        self.links[id].bw_gbs
    }

    /// Torus dimensions if this is a torus.
    pub fn torus_dims(&self) -> Option<(usize, usize)> {
        self.torus_dims
    }

    /// Walk the deterministic route from `src` to `dst`, calling `hop`
    /// with each link id in traversal order. The link leaving `src` (its
    /// injection link) comes first, so the first call is the hop that
    /// carries the per-message software latency. A local (same-endpoint)
    /// transfer calls `hop` never. This is the one routing implementation:
    /// [`Network::route`], [`Network::hops`] and every simulated message go
    /// through it.
    // Inlined into each caller so the callback's state (the DES clock)
    // stays in registers; left to the compiler, the walk was not inlined
    // and a simulated message cost more than storing its route had.
    #[inline(always)]
    pub fn walk_route(&self, src: usize, dst: usize, mut hop: impl FnMut(usize)) {
        assert!(src < self.config.endpoints && dst < self.config.endpoints);
        if src == dst {
            return;
        }
        match self.config.kind {
            TopologyKind::Crossbar => {
                hop(2 * src);
                hop(2 * dst + 1);
            }
            TopologyKind::FatTree { .. } => {
                // Inject at src, climb src's up links until src and dst
                // share a switch, descend dst's down links, eject at dst.
                let levels = self.tree.len();
                let up_src = &self.up[src * levels..][..levels];
                let up_dst = &self.up[dst * levels..][..levels];
                let climbed = up_src.iter().zip(up_dst).take_while(|(s, d)| s != d).count();
                hop(2 * src);
                up_src[..climbed].iter().for_each(|&l| hop(l as usize));
                up_dst[..climbed].iter().rev().for_each(|&l| hop(l as usize + 1));
                hop(2 * dst + 1);
            }
            TopologyKind::Torus2D => {
                // Dimension order: the X ring along row `sy`, then the Y
                // ring along column `dx`. Node `n` leaves by link
                // `4·n + dir + side` (dir 0 = x, 2 = y; side 0 = +, 1 = −),
                // and a hop steps the ring coordinate by the arc's `step`
                // with a compare-and-wrap.
                let (xd, yd) = self.torus_dims.expect("torus dims");
                let ((sx, sy), (dx, dy)) = (self.xy[src], self.xy[dst]);
                let (sx, sy, dx, dy) = (sx as usize, sy as usize, dx as usize, dy as usize);
                let row = sy * xd;
                let x_link = |c: usize| 4 * (row + c);
                let (hops, step, side) = self.ring_arc(sx, dx, xd, x_link);
                let mut c = sx;
                for _ in 0..hops {
                    hop(x_link(c) + side);
                    c += step;
                    if c >= xd {
                        c -= xd;
                    }
                }
                let y_link = |c: usize| 4 * (c * xd + dx) + 2;
                let (hops, step, side) = self.ring_arc(sy, dy, yd, y_link);
                let mut c = sy;
                for _ in 0..hops {
                    hop(y_link(c) + side);
                    c += step;
                    if c >= yd {
                        c -= yd;
                    }
                }
            }
        }
    }

    /// The arc of one torus-ring traversal from coordinate `from` to `to`
    /// on a ring of `len` nodes, where coordinate `c` leaves forward by
    /// link `link(c)` and backward by `link(c) + 1`: `(hops, step, side)`,
    /// with `step` the coordinate increment mod `len` (1 forward,
    /// `len − 1` backward) and `side` the link offset (0 forward, 1
    /// backward). The shortest arc wins and ties go forward; a hard-failed
    /// link on it diverts the whole traversal the long way round the
    /// ring. The arc is scanned only when the network has failed links.
    #[inline(always)]
    fn ring_arc(
        &self,
        from: usize,
        to: usize,
        len: usize,
        link: impl Fn(usize) -> usize,
    ) -> (usize, usize, usize) {
        let fwd = if to >= from { to - from } else { to + len - from };
        let (forward, backward) = ((fwd, 1, 0), (len - fwd, len - 1, 1));
        let mut arc = if fwd <= len - fwd { forward } else { backward };
        let failed = &self.faults.failed_links;
        if !failed.is_empty() {
            let blocked = |(hops, step, side): (usize, usize, usize)| {
                let mut c = from;
                (0..hops).any(|_| {
                    let l = link(c) + side;
                    c += step;
                    if c >= len {
                        c -= len;
                    }
                    failed.contains(&l)
                })
            };
            if blocked(arc) {
                arc = if arc == forward { backward } else { forward };
                assert!(
                    !blocked(arc),
                    "torus ring partitioned: failures on both arcs between \
                     coordinates {from} and {to}"
                );
            }
        }
        arc
    }

    /// Deterministic route from `src` to `dst` as a list of link ids.
    /// An empty route means a local (same-endpoint) transfer.
    pub fn route(&self, src: usize, dst: usize) -> Vec<usize> {
        let mut route = Vec::new();
        self.walk_route(src, dst, |l| route.push(l));
        route
    }

    /// Hop count between two endpoints.
    pub fn hops(&self, src: usize, dst: usize) -> usize {
        let mut hops = 0;
        self.walk_route(src, dst, |_| hops += 1);
        hops
    }

    /// Effective bandwidth factor of link `id` under the network's
    /// damage, in `[0, 1]`: 0 for a hard-failed link, otherwise the
    /// product of its degrade factors, halved again on a crossbar whose
    /// endpoint (`id / 2`) lost a port lane.
    pub fn effective_link_factor(&self, id: usize) -> f64 {
        let faults = &self.faults;
        if faults.link_failed(id) {
            return 0.0;
        }
        let mut factor = faults.degrade_factor(id);
        if matches!(self.config.kind, TopologyKind::Crossbar)
            && id < 2 * self.config.endpoints
            && faults.lost_ports.contains(&(id / 2))
        {
            factor *= 0.5;
        }
        factor
    }

    /// Analytic bisection bandwidth in GB/s: the aggregate link capacity
    /// crossing a balanced cut of the endpoint set.
    pub fn analytic_bisection_gbs(&self) -> f64 {
        let n = self.config.endpoints;
        match self.config.kind {
            TopologyKind::Crossbar => {
                // Non-blocking: limited only by the injection links of one half.
                (n as f64 / 2.0) * self.config.link_bw_gbs
            }
            TopologyKind::FatTree { arity, slim } => {
                // Cut at the top level: capacity of top-level links.
                let Some(&(group, _)) = self.tree.last() else {
                    return f64::INFINITY;
                };
                let l = self.tree.len() - 1;
                let groups = n.div_ceil(group);
                let cap = self.config.link_bw_gbs * (arity as f64 * slim).powi(l as i32);
                // Links crossing the cut ~ half of the top-level groups' uplinks.
                (groups as f64 / 2.0).max(0.5) * cap * 2.0
            }
            TopologyKind::Torus2D => {
                let (xd, yd) = self.torus_dims.expect("torus dims");
                // Cut along the Y axis: 2 directed links per row, both
                // directions, plus wraparound: 2 * yd links each way.
                let cut_links = if xd > 2 { 2 * yd } else { yd };
                cut_links as f64 * 2.0 * self.config.link_bw_gbs
            }
        }
    }

    /// The directed link ids crossing the balanced cut that
    /// [`Network::analytic_bisection_gbs`] prices, when they can be
    /// enumerated exactly: crossbar (one half's injection links) and 2D
    /// torus (the ±x links at the cut column and the wraparound). Fat
    /// trees return `None` (their cut is priced per level, not per link).
    pub fn bisection_cut_links(&self) -> Option<Vec<usize>> {
        let n = self.config.endpoints;
        match self.config.kind {
            TopologyKind::Crossbar => Some((0..n / 2).map(|e| 2 * e).collect()),
            TopologyKind::FatTree { .. } => None,
            TopologyKind::Torus2D => {
                let (xd, yd) = self.torus_dims.expect("torus dims");
                if xd < 2 {
                    return Some(Vec::new());
                }
                let mut links = Vec::new();
                if xd > 2 {
                    // Interior cut between columns c and c+1, plus the
                    // wraparound between columns xd-1 and 0 — 4 directed
                    // links per row.
                    let c = xd / 2 - 1;
                    for y in 0..yd {
                        links.push(4 * (y * xd + c)); // +x across the cut
                        links.push(4 * (y * xd + c + 1) + 1); // -x back
                        links.push(4 * (y * xd + xd - 1)); // +x wraparound
                        links.push(4 * (y * xd) + 1); // -x wraparound
                    }
                } else {
                    // A 2-ring: the two +x links per row are the crossing
                    // capacity the healthy formula prices.
                    for y in 0..yd {
                        links.push(4 * (y * xd));
                        links.push(4 * (y * xd + 1));
                    }
                }
                Some(links)
            }
        }
    }

    /// Endpoint pairs whose traffic crosses the balanced cut priced by
    /// [`Network::analytic_bisection_gbs`]. For the crossbar and fat
    /// trees the halves are `[0, n/2)` and `[n/2, n)`; for the 2D torus
    /// the priced cut runs between *columns*, so each node pairs with the
    /// one half a ring away in x (same row) — the pattern
    /// [`crate::collectives::measured_bisection_gbs`] saturates.
    pub fn bisection_pairs(&self) -> Vec<(usize, usize)> {
        let n = self.config.endpoints;
        match self.config.kind {
            TopologyKind::Crossbar | TopologyKind::FatTree { .. } => {
                (0..n / 2).map(|i| (i, n / 2 + i)).collect()
            }
            TopologyKind::Torus2D => {
                let (xd, yd) = self.torus_dims.expect("torus dims");
                let mut pairs = Vec::new();
                for y in 0..yd {
                    for x in 0..xd / 2 {
                        pairs.push((y * xd + x, y * xd + x + xd / 2));
                    }
                }
                pairs
            }
        }
    }

    /// [`Network::analytic_bisection_gbs`] with the network's damage
    /// priced in: each crossing link contributes its effective (derated)
    /// bandwidth, and hard-failed links contribute nothing. Where the cut
    /// cannot be enumerated (fat trees), the healthy analytic value is
    /// returned unchanged. With no faults this equals the healthy value.
    pub fn bisection_gbs_degraded(&self) -> f64 {
        let Some(cut) = self.bisection_cut_links() else {
            return self.analytic_bisection_gbs();
        };
        if cut.is_empty() {
            return self.analytic_bisection_gbs();
        }
        let healthy_per_link = self.analytic_bisection_gbs() / cut.len() as f64;
        cut.iter()
            .map(|&id| healthy_per_link * self.effective_link_factor(id))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(kind: TopologyKind, endpoints: usize) -> NetworkConfig {
        NetworkConfig {
            kind,
            endpoints,
            link_bw_gbs: 1.0,
            latency_us: 5.0,
        }
    }

    #[test]
    fn crossbar_all_pairs_two_hops() {
        let net = Network::new(cfg(TopologyKind::Crossbar, 16));
        for s in 0..16 {
            for d in 0..16 {
                if s != d {
                    assert_eq!(net.hops(s, d), 2, "{s}->{d}");
                }
            }
        }
    }

    #[test]
    fn self_route_is_empty() {
        for kind in [
            TopologyKind::Crossbar,
            TopologyKind::FatTree {
                arity: 2,
                slim: 1.0,
            },
            TopologyKind::Torus2D,
        ] {
            let net = Network::new(cfg(kind, 8));
            assert!(net.route(3, 3).is_empty());
        }
    }

    #[test]
    fn fat_tree_sibling_distance() {
        let net = Network::new(cfg(
            TopologyKind::FatTree {
                arity: 2,
                slim: 1.0,
            },
            8,
        ));
        // Endpoints 0 and 1 share the leaf switch: inject + eject only.
        assert_eq!(net.hops(0, 1), 2);
        // Endpoints 0 and 7 cross the root: inject + 2 up + 2 down + eject.
        assert_eq!(net.hops(0, 7), 6);
    }

    #[test]
    fn fat_tree_route_symmetry() {
        let net = Network::new(cfg(
            TopologyKind::FatTree {
                arity: 4,
                slim: 1.0,
            },
            64,
        ));
        for (s, d) in [(0, 63), (5, 9), (17, 48)] {
            assert_eq!(net.hops(s, d), net.hops(d, s));
        }
    }

    #[test]
    fn torus_dimension_order_hops() {
        let net = Network::new(cfg(TopologyKind::Torus2D, 16)); // 4x4
        assert_eq!(net.torus_dims(), Some((4, 4)));
        // (0,0) -> (1,0): one +x hop.
        assert_eq!(net.hops(0, 1), 1);
        // (0,0) -> (3,0): wraparound -x, one hop.
        assert_eq!(net.hops(0, 3), 1);
        // (0,0) -> (2,2): 2 + 2 hops.
        assert_eq!(net.hops(0, 10), 4);
    }

    #[test]
    fn torus_max_distance_is_half_each_dim() {
        let net = Network::new(cfg(TopologyKind::Torus2D, 64)); // 8x8
        let max_hops = (0..64).map(|d| net.hops(0, d)).max().unwrap();
        assert_eq!(max_hops, 8, "8x8 torus diameter is 4+4");
    }

    #[test]
    fn full_fat_tree_bisection_scales_linearly() {
        let b16 = Network::new(cfg(
            TopologyKind::FatTree {
                arity: 2,
                slim: 1.0,
            },
            16,
        ))
        .analytic_bisection_gbs();
        let b64 = Network::new(cfg(
            TopologyKind::FatTree {
                arity: 2,
                slim: 1.0,
            },
            64,
        ))
        .analytic_bisection_gbs();
        assert!(
            b64 > 3.0 * b16,
            "full fat-tree bisection must scale: {b16} -> {b64}"
        );
    }

    #[test]
    fn slim_tree_bisection_lags_full_tree() {
        let full = Network::new(cfg(
            TopologyKind::FatTree {
                arity: 4,
                slim: 1.0,
            },
            256,
        ))
        .analytic_bisection_gbs();
        let slim = Network::new(cfg(
            TopologyKind::FatTree {
                arity: 4,
                slim: 0.5,
            },
            256,
        ))
        .analytic_bisection_gbs();
        assert!(slim < full / 2.0, "slim {slim} vs full {full}");
    }

    #[test]
    fn torus_bisection_sublinear() {
        let b64 = Network::new(cfg(TopologyKind::Torus2D, 64)).analytic_bisection_gbs();
        let b256 = Network::new(cfg(TopologyKind::Torus2D, 256)).analytic_bisection_gbs();
        // 4x endpoints but only 2x bisection (sqrt scaling).
        assert!(b256 < 2.5 * b64, "{b64} -> {b256}");
        assert!(b256 > 1.5 * b64);
    }

    #[test]
    fn crossbar_bisection_linear() {
        let b = Network::new(cfg(TopologyKind::Crossbar, 128)).analytic_bisection_gbs();
        assert!((b - 64.0).abs() < 1e-9);
    }

    #[test]
    fn routes_valid_and_symmetric_across_topologies() {
        // Deterministic all-pairs sweep over every topology family at
        // several endpoint counts (including non-powers of the arity):
        // every route uses in-range link ids, and hop counts are
        // symmetric for these symmetric topologies.
        for endpoints in [1usize, 2, 5, 8, 13, 16, 27] {
            let kinds = [
                TopologyKind::Crossbar,
                TopologyKind::FatTree {
                    arity: 2,
                    slim: 1.0,
                },
                TopologyKind::FatTree {
                    arity: 4,
                    slim: 0.5,
                },
                TopologyKind::Torus2D,
            ];
            for kind in kinds {
                let net = Network::new(cfg(kind, endpoints));
                for s in 0..endpoints {
                    for d in 0..endpoints {
                        let route = net.route(s, d);
                        for id in &route {
                            assert!(
                                *id < net.num_links(),
                                "{kind:?} n={endpoints} {s}->{d}: link {id}"
                            );
                            assert!(net.link_bw(*id) > 0.0);
                        }
                        assert_eq!(
                            route.len(),
                            net.hops(d, s),
                            "{kind:?} n={endpoints} {s}<->{d} asymmetric"
                        );
                        if s == d {
                            assert!(route.is_empty());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn torus_reroutes_around_a_failed_link() {
        let healthy = Network::new(cfg(TopologyKind::Torus2D, 16)); // 4x4
        // (0,0) -> (1,0) uses +x link of node 0 (link id 0).
        assert_eq!(healthy.route(0, 1), vec![0]);
        let faults = LinkFaults::healthy().fail_link(0);
        let faulty = Network::with_faults(cfg(TopologyKind::Torus2D, 16), &faults);
        let detour = faulty.route(0, 1);
        // The long way round the x ring: 0 -> 3 -> 2 -> 1 via -x links.
        assert_eq!(detour.len(), 3, "detour {detour:?}");
        assert!(!detour.contains(&0));
        for &l in &detour {
            assert!(!faulty.link_failed(l));
        }
        // Unrelated pairs keep their healthy routes.
        assert_eq!(faulty.route(5, 6), healthy.route(5, 6));
        // And the reverse direction still has its own healthy link.
        assert_eq!(faulty.route(1, 0), healthy.route(1, 0));
    }

    #[test]
    fn torus_detour_spans_both_dimensions() {
        let n = 16; // 4x4
        let healthy = Network::new(cfg(TopologyKind::Torus2D, n));
        // Fail the first +y link on the route (0,0) -> (2,2): dimension
        // order goes x first, so the y traversal starts at node 2.
        let y_link = 4 * 2 + 2;
        let faults = LinkFaults::healthy().fail_link(y_link);
        let faulty = Network::with_faults(cfg(TopologyKind::Torus2D, n), &faults);
        let healthy_route = healthy.route(0, 10);
        let detour = faulty.route(0, 10);
        assert!(healthy_route.contains(&y_link));
        assert!(!detour.contains(&y_link));
        // On a 4-ring the forward and backward arcs between y=0 and y=2
        // tie in length; the detour must simply avoid the dead link while
        // still reaching the destination with valid links.
        assert_eq!(detour.len(), healthy_route.len());
        assert_ne!(detour, healthy_route);
        for &l in &detour {
            assert!(l < faulty.num_links() && !faulty.link_failed(l));
        }
    }

    #[test]
    #[should_panic(expected = "torus ring partitioned")]
    fn partitioned_ring_is_rejected() {
        // Fail both x exits of node 0 on a 4x4 torus: +x (link 0) blocks
        // the short arc to node 1 and -x (link 1) blocks the detour.
        let faults = LinkFaults::healthy().fail_link(0).fail_link(1);
        let net = Network::with_faults(cfg(TopologyKind::Torus2D, 16), &faults);
        let _ = net.route(0, 1);
    }

    #[test]
    #[should_panic(expected = "only reroutable on the 2D torus")]
    fn crossbar_rejects_hard_link_failures() {
        let faults = LinkFaults::healthy().fail_link(0);
        let _ = Network::with_faults(cfg(TopologyKind::Crossbar, 8), &faults);
    }

    #[test]
    fn degraded_bisection_matches_healthy_when_fault_free() {
        for kind in [
            TopologyKind::Crossbar,
            TopologyKind::Torus2D,
            TopologyKind::FatTree {
                arity: 4,
                slim: 0.5,
            },
        ] {
            let net = Network::new(cfg(kind, 64));
            let healthy = net.analytic_bisection_gbs();
            let degraded = net.bisection_gbs_degraded();
            assert!(
                (healthy - degraded).abs() < 1e-9,
                "{kind:?}: {healthy} vs {degraded}"
            );
        }
    }

    #[test]
    fn failed_torus_link_cuts_recomputed_bisection() {
        let net = Network::new(cfg(TopologyKind::Torus2D, 64)); // 8x8
        let cut = net.bisection_cut_links().expect("torus cut");
        let healthy = net.analytic_bisection_gbs();
        let damaged = |faults: &LinkFaults| Network::with_faults(cfg(TopologyKind::Torus2D, 64), faults);
        let degraded = damaged(&LinkFaults::healthy().fail_link(cut[0])).bisection_gbs_degraded();
        let expected = healthy * (cut.len() as f64 - 1.0) / cut.len() as f64;
        assert!(
            (degraded - expected).abs() < 1e-9,
            "one of {} cut links gone: {degraded} vs {expected}",
            cut.len()
        );
        // Failing a link off the cut changes nothing.
        let elsewhere = (0..net.num_links())
            .find(|l| !cut.contains(l))
            .expect("non-cut link");
        let same = damaged(&LinkFaults::healthy().fail_link(elsewhere)).bisection_gbs_degraded();
        assert!((same - healthy).abs() < 1e-9);
    }

    #[test]
    fn crossbar_port_loss_halves_its_share_of_bisection() {
        // Endpoint 0 is in the sending half of the cut.
        let faults = LinkFaults::healthy().lose_port(0);
        let net = Network::with_faults(cfg(TopologyKind::Crossbar, 16), &faults);
        let healthy = net.analytic_bisection_gbs();
        let degraded = net.bisection_gbs_degraded();
        let expected = healthy - 0.5 * healthy / 8.0;
        assert!((degraded - expected).abs() < 1e-9, "{degraded} vs {expected}");
    }
}
