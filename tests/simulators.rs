//! Integration: cross-validation of the simulated substrate — measured
//! (discrete-event) network behaviour vs analytic expectations, prefetch
//! simulation vs its closed form, the static ("listing file") AVL/VOR of
//! every loop the cell registry's ES and X1 cells run vs the dynamic
//! pipeline's ("hardware counter") AVL/VOR, and engine sanity across the
//! whole platform × workload matrix.

use pvs::core::machine::{CpuClass, Machine};
use pvs::core::platforms;
use pvs::netsim::collectives::measured_bisection_gbs;
use pvs::netsim::topology::{Network, NetworkConfig, TopologyKind};
use pvs::vectorsim::{
    average_vector_length, LoopClass, MemoryEnv, VectorLoop, VectorUnit, VectorUnitConfig,
};

fn net(kind: TopologyKind, endpoints: usize) -> Network {
    Network::new(NetworkConfig {
        kind,
        endpoints,
        link_bw_gbs: 1.0,
        latency_us: 5.0,
    })
}

#[test]
fn measured_bisection_ranks_topologies_like_the_analytic_model() {
    for endpoints in [32, 64, 128] {
        let xbar = measured_bisection_gbs(&net(TopologyKind::Crossbar, endpoints), 4_000_000);
        let full = measured_bisection_gbs(
            &net(
                TopologyKind::FatTree {
                    arity: 4,
                    slim: 1.0,
                },
                endpoints,
            ),
            4_000_000,
        );
        let slim = measured_bisection_gbs(
            &net(
                TopologyKind::FatTree {
                    arity: 4,
                    slim: 0.5,
                },
                endpoints,
            ),
            4_000_000,
        );
        let torus = measured_bisection_gbs(&net(TopologyKind::Torus2D, endpoints), 4_000_000);
        assert!(
            xbar >= torus,
            "P={endpoints}: crossbar {xbar} vs torus {torus}"
        );
        assert!(full > slim, "P={endpoints}: full {full} vs slim {slim}");
    }
}

#[test]
fn torus_bisection_grows_as_sqrt_of_endpoints() {
    let b64 = net(TopologyKind::Torus2D, 64).analytic_bisection_gbs();
    let b1024 = net(TopologyKind::Torus2D, 1024).analytic_bisection_gbs();
    // 16x the endpoints, 4x the bisection.
    let growth = b1024 / b64;
    assert!((3.0..6.0).contains(&growth), "sqrt scaling, got {growth}x");
}

/// ROADMAP #6, netsim half, on a healthy crossbar: the ES network's DES
/// reduces to α–β costs. α is the MPI latency, 0.9α of it charged on a
/// message's injection link and 0.1α on its ejection link; β is the link
/// rate. A sampled all-to-all simulates k = min(P−1, 24) rotation rounds
/// (24 is the engine's sampling cap), each a permutation, so every
/// injection link serialises k messages and the last still crosses its
/// ejection link: `k·(0.9α + n/β) + 0.1α + n/β`, scaled by (P−1)/k.
/// Recursive doubling runs ⌈log₂P⌉ rounds on idle links, α + 2n/β each.
#[test]
fn crossbar_collectives_match_their_alpha_beta_closed_forms() {
    use pvs::netsim::collectives::{all_to_all_stats_sampled, allreduce_stats};

    let es = platforms::earth_simulator();
    let close = |got: f64, want: f64| ((got - want) / want).abs() <= 1e-12;
    for p in [2usize, 3, 7, 16, 25, 26, 64, 250, 512, 1024] {
        let net = Network::new(es.network(p));
        assert_eq!(net.config().kind, TopologyKind::Crossbar);
        let alpha = net.config().latency_us * 1e-6;
        let beta = net.config().link_bw_gbs * 1e9;
        let k = (p - 1).min(24) as f64;
        let rounds = p.next_power_of_two().trailing_zeros() as f64;
        for n in [8u64, 64, 9_216, 1_000_000] {
            let wire = n as f64 / beta;
            let a2a = (k * (0.9 * alpha + wire) + 0.1 * alpha + wire) * (p - 1) as f64 / k;
            let got = all_to_all_stats_sampled(&net, p, n, 24).makespan_s;
            assert!(close(got, a2a), "all-to-all P={p} n={n}: {got:e} vs closed form {a2a:e}");
            let allreduce = rounds * (alpha + 2.0 * wire);
            let got = allreduce_stats(&net, p, n).makespan_s;
            assert!(
                close(got, allreduce),
                "allreduce P={p} n={n}: {got:e} vs closed form {allreduce:e}"
            );
        }
    }
}

/// ROADMAP #6, halo half: the law the ES-crossbar DES actually obeys,
/// which counts each message's wire time **twice**. `NetSim::send` books
/// each link in send order, not arrival order, so a receiver's ejection
/// link is held by a message that arrives after one sent later; the
/// neighbours serialise at α + 2n/β each.
/// A 2D halo is `4·(α + 2e/β) + 4·(α + 2c/β)` (a term drops out when its
/// byte count is 0), a 3D halo `6·(α + 2f/β)`. The α–β expectation with
/// the wire term once, `6·(0.9α + f/β) + 0.1α + f/β` in 3D, is 1.71×
/// short at f = 1 MB (ROADMAP #5d). Sides of 1–2 break the law: there
/// neighbours coincide.
#[test]
fn crossbar_halos_count_the_wire_term_twice() {
    use pvs::netsim::collectives::{halo_exchange_2d_stats, halo_exchange_3d_stats};

    let es = platforms::earth_simulator();
    let close = |got: f64, want: f64| ((got - want) / want).abs() <= 1e-12;
    let es_net = |p: usize| {
        let net = Network::new(es.network(p));
        assert_eq!(net.config().kind, TopologyKind::Crossbar);
        let alpha = net.config().latency_us * 1e-6;
        let beta = net.config().link_bw_gbs * 1e9;
        (net, alpha, beta)
    };
    let sizes = [0u64, 8, 4_096, 48_000, 1_000_000];
    for (px, py) in [(3usize, 3usize), (3, 4), (4, 4), (5, 3), (8, 8), (16, 4)] {
        let (net, alpha, beta) = es_net(px * py);
        let term = |n: u64| if n == 0 { 0.0 } else { 4.0 * (alpha + 2.0 * n as f64 / beta) };
        for e in sizes {
            for c in sizes {
                if e == 0 && c == 0 {
                    continue;
                }
                let want = term(e) + term(c);
                let got = halo_exchange_2d_stats(&net, px, py, e, c).makespan_s;
                assert!(close(got, want), "2D {px}x{py} e={e} c={c}: {got:e} vs {want:e}");
            }
        }
    }
    for (px, py, pz) in [(3usize, 3usize, 3usize), (4, 3, 3), (4, 4, 4), (5, 4, 3), (8, 4, 4)] {
        let (net, alpha, beta) = es_net(px * py * pz);
        for f in sizes.into_iter().skip(1) {
            let want = 6.0 * (alpha + 2.0 * f as f64 / beta);
            let got = halo_exchange_3d_stats(&net, px, py, pz, f).makespan_s;
            assert!(close(got, want), "3D {px}x{py}x{pz} f={f}: {got:e} vs {want:e}");
        }
    }
}

#[test]
fn prefetch_simulation_matches_closed_form_across_run_lengths() {
    use pvs::memsim::prefetch::{ghost_zone_coverage, PrefetchConfig, StreamPrefetcher};
    use pvs::memsim::trace::ghost_zone_sweep;

    let cfg = PrefetchConfig {
        num_streams: 4,
        min_run_to_engage: 3,
        line_bytes: 128,
    };
    for interior_lines in [8usize, 16, 64] {
        let interior_elems = interior_lines * 16; // 8-byte elements
        let analytic = ghost_zone_coverage(interior_elems, 8, &cfg);
        let mut sim = StreamPrefetcher::new(cfg);
        for a in ghost_zone_sweep(64, interior_elems, 32, 8) {
            sim.access(a);
        }
        assert!(
            (analytic - sim.coverage()).abs() < 0.08,
            "{interior_lines} lines: analytic {analytic} vs simulated {}",
            sim.coverage()
        );
    }
}

#[test]
fn engine_is_sane_across_the_full_platform_workload_matrix() {
    use pvs::core::engine::Engine;
    use pvs::serve::workload::{cell_phases, APP_CONFIGS};

    for m in platforms::all() {
        let cells = APP_CONFIGS
            .iter()
            .flat_map(|(app, configs)| configs.map(|config| (*app, config)));
        for (app, config) in cells {
            let phases = cell_phases(app, config, m.name, 64).expect("a published size");
            let name = m.name;
            let r = Engine::new(m.clone()).run(&phases, 64);
            assert!(
                r.gflops_per_p.is_finite() && r.gflops_per_p > 0.0,
                "{name}/{app}/{config}: {}",
                r.gflops_per_p
            );
            assert!(
                r.pct_peak > 0.0 && r.pct_peak <= 100.0,
                "{name}/{app}/{config}: {}% of peak",
                r.pct_peak
            );
            assert!(r.comm_fraction() >= 0.0 && r.comm_fraction() < 1.0);
            if m.is_vector() {
                let avl = r.avl().expect("vector metrics");
                assert!(avl > 0.0 && avl <= 256.0 + 1e-9, "{name}/{app}: AVL {avl}");
                let vor = r.vor_pct().expect("vector metrics");
                assert!((0.0..=100.0).contains(&vor), "{name}/{app}: VOR {vor}");
            }
        }
    }
}

#[test]
fn one_sided_semantics_never_slow_communication_down() {
    use pvs::core::engine::Engine;
    use pvs::core::phase::{CommPattern, Phase};

    for pattern in [
        CommPattern::Halo2d {
            px: 8,
            py: 8,
            bytes_edge: 100_000,
            bytes_corner: 1_000,
        },
        CommPattern::AllToAll {
            ranks: 64,
            bytes_per_pair: 10_000,
        },
        CommPattern::AllReduce {
            ranks: 64,
            bytes: 65_536,
        },
    ] {
        let two_sided = Phase::comm("c", pattern);
        let one_sided = Phase::comm("c", pattern).one_sided(true);
        let engine = Engine::new(platforms::x1());
        let t2 = engine.run(std::slice::from_ref(&two_sided), 64).comm_s;
        let t1 = engine.run(std::slice::from_ref(&one_sided), 64).comm_s;
        assert!(
            t1 <= t2 + 1e-12,
            "{pattern:?}: one-sided {t1} vs two-sided {t2}"
        );
    }
}

/// The vector unit of an ES or X1 platform.
fn vector_unit(machine: &Machine) -> VectorUnitConfig {
    match machine.cpu {
        CpuClass::Vector { unit, .. } => unit,
        CpuClass::Superscalar { .. } => panic!("{} has no vector unit", machine.name),
    }
}

/// The paper's "listing file" view of a loop: AVL and VOR from closed-form
/// strip arithmetic alone. A vector loop of `n` trips over `s` streams runs
/// `⌈n/s⌉` iterations per stream, so its AVL is their average strip length
/// and every operation it retires is a vector element operation (VOR 1); a
/// scalar loop issues no vector instruction at all (AVL 0, VOR 0).
fn listing_avl_vor(l: &VectorLoop, unit: &VectorUnitConfig) -> (f64, f64) {
    match l.class {
        LoopClass::Scalar => (0.0, 0.0),
        LoopClass::Vectorizable { multistreamable } => {
            let streams = if multistreamable { unit.ssp_count } else { 1 };
            (average_vector_length(l.trips.div_ceil(streams), unit.max_vl), 1.0)
        }
    }
}

/// `(AVL gap relative to the listing, absolute VOR gap)` between a loop's
/// closed-form strip arithmetic and its run through the instruction-
/// accounting pipeline on `machine`'s vector unit, in clean memory. The two
/// derivations share nothing but the loop description, so a gap means one
/// of them is wrong.
fn static_dynamic_gaps(l: &VectorLoop, machine: &Machine) -> (f64, f64) {
    let unit = vector_unit(machine);
    let (avl, vor) = listing_avl_vor(l, &unit);
    let m = VectorUnit::new(unit)
        .execute(l, &MemoryEnv::clean(machine.bytes_per_cycle()))
        .metrics;
    let avl_gap = if avl == 0.0 { m.avl().abs() } else { (m.avl() - avl).abs() / avl };
    (avl_gap, (m.vor() - vor).abs())
}

/// The limiting cases the paper's §2 architecture discussion is built on,
/// as always-present calibration rows: a long compute-bound loop, a
/// stream-bound one and a serialized one.
fn synthetic_loops() -> [(&'static str, VectorLoop); 3] {
    let compute_bound_long = VectorLoop {
        trips: 4096,
        outer_iters: 100,
        flops_per_iter: 64.0,
        bytes_per_iter: 16.0,
        gather_fraction: 0.0,
        live_vector_temps: 8,
        class: LoopClass::Vectorizable { multistreamable: true },
    };
    [
        ("compute_bound_long", compute_bound_long),
        (
            "stream_bound",
            VectorLoop { flops_per_iter: 12.0, bytes_per_iter: 64.0, ..compute_bound_long },
        ),
        ("serialized", VectorLoop { class: LoopClass::Scalar, ..compute_bound_long }),
    ]
}

/// The paper's listing-file vs hardware-counter cross-check, over what the
/// engine actually runs: every loop phase of the cell registry's ES and X1
/// cells at P = 64 (both Cactus block shapes, each machine's own port
/// variant), lowered as the engine lowers it, plus the synthetic loops.
/// Static and dynamic AVL agree within 5 %, VOR within 0.05. The loops a
/// vector machine runs at under half its vector length are exactly the
/// paper's Cactus small-grid pathology (§5.2: an 80-point x-dimension on a
/// VL-256 machine) — a new member of that set is a workload change worth a
/// look.
#[test]
fn registered_kernels_static_and_dynamic_vectorization_agree() {
    use pvs::core::kernel::vector_loop_from_phase;
    use pvs::core::phase::Phase;
    use pvs::serve::workload::cell_phases;

    const CELLS: [(&str, &str); 5] = [
        ("LBMHD", "4096x4096"),
        ("GTC", "10 part/cell"),
        ("CACTUS", "80x80x80"),
        ("CACTUS", "250x64x64"),
        ("PARATEC", "432 atom"),
    ];
    let mut checked = 0;
    let mut short_vector = Vec::new();
    for name in ["ES", "X1"] {
        let machine = platforms::by_name(name).expect("study platform");
        let unit = vector_unit(&machine);
        let mut loops: Vec<(String, VectorLoop)> = synthetic_loops()
            .map(|(kernel, l)| (format!("synthetic/{kernel}"), l))
            .into();
        for (app, config) in CELLS {
            let phases = cell_phases(app, config, name, 64).expect("registered cell");
            for phase in &phases {
                if let Phase::Loop(l) = phase {
                    loops.push((format!("{app}/{config}/{}", l.name), vector_loop_from_phase(l)));
                }
            }
        }
        for (kernel, l) in &loops {
            let label = format!("{kernel} on {name}");
            let (avl_gap, vor_gap) = static_dynamic_gaps(l, &machine);
            assert!(avl_gap <= 0.05, "{label}: static vs dynamic AVL differ by {avl_gap}");
            assert!(vor_gap <= 0.05, "{label}: static vs dynamic VOR differ by {vor_gap}");
            let (avl, vor) = listing_avl_vor(l, &unit);
            if vor > 0.0 && avl < unit.max_vl as f64 / 2.0 {
                short_vector.push(label);
            }
        }
        checked += loops.len();
    }
    assert_eq!(checked, 38, "6 synthetic loops and 32 registry loop phases");
    assert_eq!(
        short_vector,
        [
            "CACTUS/80x80x80/ADM_BSSN_Sources on ES",
            "CACTUS/80x80x80/ADM_BSSN_Sources on X1",
            "CACTUS/80x80x80/radiation_boundary on X1",
        ]
    );

    // The synthetic loops' listing values, exactly: full 256-element ES
    // strips at intensity 4, a scalar loop's zeros, and 4096 trips over
    // the X1's 4 SSPs — 1024 each at VL 64.
    let [(_, long), _, (_, serialized)] = synthetic_loops();
    let (es, x1) = (vector_unit(&platforms::earth_simulator()), vector_unit(&platforms::x1()));
    assert_eq!(listing_avl_vor(&long, &es), (256.0, 1.0));
    assert_eq!(long.intensity(), 4.0);
    assert_eq!(listing_avl_vor(&serialized, &es), (0.0, 0.0));
    assert_eq!(listing_avl_vor(&long, &x1).0, 64.0);
}

/// The same cross-check for *time* (ROADMAP #6, vectorsim half): with no
/// gathers, no spill and a clean memory environment, a vector loop costs
/// SNIPPETS §1's `t₁ + N·t₂` per vector instruction, summed over strips —
/// `outer × vinsn × (⌈N/VL⌉·startup + N/pipes)` cycles, `N` being the trips
/// one stream sees — up to 5·10⁷ trips.
#[test]
fn vector_loop_time_matches_its_closed_form() {
    use pvs::vectorsim::{es_processor, x1_msp};

    for cfg in [es_processor(), x1_msp()] {
        for trips in [1, 255, 256, 257, 4_096, 31_250, 3_125_000, 50_000_000] {
            for (flops_per_iter, multistreamable) in [(2.0, true), (13.0, true), (24.0, false)] {
                let l = VectorLoop {
                    trips,
                    outer_iters: 7,
                    flops_per_iter,
                    bytes_per_iter: 8.0,
                    gather_fraction: 0.0,
                    live_vector_temps: 8,
                    class: LoopClass::Vectorizable { multistreamable },
                };
                let r = VectorUnit::new(cfg).execute(&l, &MemoryEnv::clean(64.0));
                let streams = if multistreamable { cfg.ssp_count } else { 1 };
                let n = trips.div_ceil(streams);
                let vinsn = (flops_per_iter / 2.0).max(1.0);
                let closed = 7.0
                    * vinsn
                    * (n.div_ceil(cfg.max_vl) as f64 * cfg.startup_cycles
                        + n as f64 / cfg.pipes as f64);
                let cycles = r.seconds * cfg.clock_mhz * 1e6;
                assert!(
                    ((cycles - closed) / closed).abs() <= 1e-12,
                    "VL {} trips {trips} flops {flops_per_iter}: {cycles} vs closed form {closed}",
                    cfg.max_vl
                );
            }
        }
    }
}

/// The check above has teeth: three trips of a loop with a fractional
/// vector-instruction count per iteration, where the dynamic accounting's
/// ceil-rounding visibly departs from the closed-form strip average.
#[test]
fn a_divergent_descriptor_is_caught() {
    let rounding_pathology = VectorLoop {
        trips: 3,
        outer_iters: 1,
        flops_per_iter: 3.0,
        bytes_per_iter: 8.0,
        gather_fraction: 0.0,
        live_vector_temps: 8,
        class: LoopClass::Vectorizable { multistreamable: true },
    };
    let (avl_gap, _) = static_dynamic_gaps(&rounding_pathology, &platforms::earth_simulator());
    assert!(avl_gap > 0.05, "expected divergence, got {avl_gap}");
}
