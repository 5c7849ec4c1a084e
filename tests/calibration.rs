//! Calibration validation: the phase streams the performance model runs
//! must describe what the real implementations actually do. These tests
//! measure the real codes (communication traffic from the runtime's own
//! statistics, operation counts from the data structures) and compare
//! against the workload descriptors.

#[test]
fn lbmhd_halo_descriptor_matches_measured_traffic() {
    // Run the real distributed LBMHD on a 2x2 process grid and compare the
    // per-step bytes each rank sends against the Table 3 workload's
    // Halo2d descriptor for the same decomposition.
    use pvs::lbmhd::init::crossed_current_sheets;
    use pvs::lbmhd::parallel::{ExchangeMode, RankField, Subdomain, SITE_VALUES};
    use pvs::lbmhd::solver::SimulationConfig;
    use pvs::core::schedule::Cart2d;

    let n = 32;
    let steps = 4;
    let cfg = SimulationConfig::new(n, n);
    let cart = Cart2d::new(2, 2);
    let make = |rank, _| {
        Subdomain::new(cfg, cart, rank, steps, ExchangeMode::Mpi, |x, y| {
            crossed_current_sheets(x, y, n, n, 0.08)
        })
    };
    // Both runtimes, the event one first: a lost strip fails with its
    // parked-rank diagnosis instead of hanging the thread runtime.
    let [runs, _] = pvs::mpisim::run_both(4, make, |f: &RankField| [&f.4[..], &f.5[..]].concat());
    let stats: Vec<_> = runs.into_iter().map(|(_, stats)| stats).collect();

    // Model prediction: 4 edges of (n/2)*SITE_VALUES doubles + 4 corners
    // of SITE_VALUES doubles per rank per step.
    let local_edge = n / 2;
    let predicted_bytes_per_step = (4 * local_edge * SITE_VALUES + 4 * SITE_VALUES) * 8;
    for (rank, s) in stats.iter().enumerate() {
        let measured = s.bytes_sent as f64 / steps as f64;
        let rel = (measured - predicted_bytes_per_step as f64).abs() / measured;
        assert!(
            rel < 0.05,
            "rank {rank}: measured {measured} B/step vs descriptor {predicted_bytes_per_step}"
        );
    }
}

#[test]
fn cactus_face_descriptor_matches_measured_traffic() {
    use pvs::cactus::grid::NFIELDS;
    use pvs::cactus::halo::CactusBlock;
    use pvs::core::schedule::Cart3d;

    let gn = 8;
    let steps = 3;
    let cart = Cart3d::new(2, 2, 2);
    let make = |rank, _| {
        CactusBlock::new(cart, rank, (gn, gn, gn), 1.0, 0.25, steps, |_, _, _| [0.01; NFIELDS])
    };
    let [runs, _] = pvs::mpisim::run_both(8, make, |f| f.1.clone());
    let stats: Vec<_> = runs.into_iter().map(|(_, stats)| stats).collect();

    // Six faces of (gn/2)² points × NFIELDS doubles, exchanged once per
    // ICN iteration (three per step).
    let face = (gn / 2) * (gn / 2) * NFIELDS * 8;
    let predicted_per_step = 6 * face * 3;
    for (rank, s) in stats.iter().enumerate() {
        let measured = s.bytes_sent as f64 / steps as f64;
        let rel = (measured - predicted_per_step as f64).abs() / measured;
        assert!(
            rel < 0.05,
            "rank {rank}: measured {measured} B/step vs descriptor {predicted_per_step}"
        );
    }
}

#[test]
fn halo_scale_kernels_traffic_and_events_match_their_closed_forms() {
    // Each halo scale kernel is k sends of `len` doubles, then one
    // allreduce of `w` doubles over n ranks (a ring: n − 1 messages).
    // Every send along an axis of extent 1 goes to the rank itself and
    // is not routed through the scheduler, so routed messages are k·n
    // only when every axis has extent ≥ 2. On such a grid each rank parks
    // on every receive — a superstep's packets are delivered only after
    // all of its ranks have run — and once in the allreduce, so there are
    // k + 1 supersteps of n parks and n wakeups, one more that finishes
    // every rank, and never more than the n ranks parked at once.
    use pvs::core::schedule::{Cart2d, Cart3d};
    use pvs::mpisim::{CommStats, SimStats};

    type PerRank = Vec<(Vec<f64>, CommStats)>;
    struct Kernel {
        name: &'static str,
        k: u64,
        len: u64,
        w: u64,
        v1: fn(usize) -> PerRank,
        v2: fn(usize, usize) -> (PerRank, SimStats),
        extents: fn(usize) -> Vec<usize>,
    }
    let kernels = [
        Kernel {
            name: "LBMHD",
            k: 4,
            len: pvs::lbmhd::scale::STRIP as u64,
            w: 2,
            v1: pvs::lbmhd::scale::run_scale_v1,
            v2: pvs::lbmhd::scale::run_scale_v2,
            extents: |p| {
                let c = Cart2d::near_square(p);
                vec![c.px, c.py]
            },
        },
        Kernel {
            name: "CACTUS",
            k: 6,
            len: pvs::cactus::scale::FACE as u64,
            w: 1,
            v1: pvs::cactus::scale::run_scale_v1,
            v2: pvs::cactus::scale::run_scale_v2,
            extents: |p| {
                let c = Cart3d::near_cubic(p);
                vec![c.px, c.py, c.pz]
            },
        },
    ];
    assert_eq!((kernels[0].len, kernels[1].len), (24, 16));

    for kernel in &kernels {
        let (name, k, len, w) = (kernel.name, kernel.k, kernel.len, kernel.w);
        let mut full_grids = 0;
        for p in [1usize, 2, 16, 64, 1024, 8192] {
            let n = p as u64;
            let per_rank = CommStats {
                messages_sent: k + n - 1,
                bytes_sent: 8 * (k * len + (n - 1) * w),
            };
            let (v2, sim) = (kernel.v2)(p, 1);
            let mut runs = vec![("v2", v2)];
            if p <= 64 {
                runs.push(("v1", (kernel.v1)(p)));
            }
            for (runtime, run) in runs {
                assert_eq!(run.len(), p, "{name} {runtime} P={p}");
                for (rank, (_, stats)) in run.iter().enumerate() {
                    assert_eq!(*stats, per_rank, "{name} {runtime} P={p} rank {rank}");
                }
            }

            let extents = (kernel.extents)(p);
            let routed = 2 * n * extents.iter().filter(|&&e| e >= 2).count() as u64;
            if extents.iter().all(|&e| e >= 2) {
                full_grids += 1;
                assert_eq!(routed, k * n, "{name} P={p}");
                assert_eq!(
                    (sim.batches, sim.parks, sim.wakeups, sim.peak_parked),
                    (k + 2, (k + 1) * n, (k + 1) * n, n),
                    "{name} P={p} supersteps"
                );
            }
            assert_eq!(
                (sim.ranks, sim.resumes, sim.collectives, sim.messages),
                (n, (2 * k + 2) * n, 1, routed),
                "{name} P={p}"
            );
        }
        assert!(full_grids >= 3, "{name}: the superstep closed forms checked {full_grids} grids");
    }
}

#[test]
fn gtc_deposit_flop_constant_matches_the_kernel() {
    // Count the arithmetic the 4-point deposition actually performs per
    // particle (ring setup + 4 bilinear scatters) and check the workload
    // constant is within 2x — the convention the paper itself uses for
    // "valid baseline flop-counts".
    use pvs::gtc::perf::DEPOSIT_FLOPS;

    // Per ring point: bilinear weights (2 subtractions + 2 floors treated
    // as free + 4 weight products of 2 muls each) ≈ 12 flops, plus 4
    // multiply-adds into the grid = 8 flops. Four ring points plus setup:
    let per_point = 12.0 + 8.0;
    let counted = 4.0 * per_point + 10.0;
    assert!(
        (counted / DEPOSIT_FLOPS).abs() > 0.5 && (counted / DEPOSIT_FLOPS) < 2.0,
        "workload constant {DEPOSIT_FLOPS} vs counted {counted}"
    );
}

#[test]
fn lbmhd_collision_flop_constant_matches_the_kernel() {
    // The collision body: moments (9·5 + 5·2 ≈ 55), stress setup (~14),
    // 9 equilibrium evaluations (~14 each = 126), 5 magnetic equilibria
    // (~14 each = 70), relaxations (9·3 + 5·6 = 57) ≈ 322 raw ops, of
    // which ~270 are floating-point (the rest indexing). The workload
    // constant must sit in that window.
    use pvs::lbmhd::collision::COLLISION_FLOPS_PER_SITE;
    assert!(
        (200.0..400.0).contains(&COLLISION_FLOPS_PER_SITE),
        "constant {COLLISION_FLOPS_PER_SITE}"
    );
}

#[test]
fn paratec_blas3_flops_match_the_gemm_shapes() {
    // The Table 4 descriptor claims 24·npw·nbands²/P flops per processor
    // per CG step; verify against the solver's actual GEMM shapes: the
    // Rayleigh-Ritz sweep performs one `npw×m · m×m` projection
    // (zgemm_ctrans_a) and two `npw×m · m×m` rotations, 8 flops per
    // complex MAC → 3 · 8 · npw · m².
    use pvs::paratec::perf::ParatecWorkload;
    let w = ParatecWorkload::si432(64);
    let expected = 3.0 * 8.0 * w.npw as f64 * (w.nbands as f64).powi(2) / w.procs as f64;
    assert!(
        (w.blas3_flops_per_proc() - expected).abs() / expected < 1e-12,
        "{} vs {expected}",
        w.blas3_flops_per_proc()
    );
}
