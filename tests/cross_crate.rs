//! Integration: pipelines spanning multiple crates — the application
//! codes on the message-passing runtime, the FFT inside the Hamiltonian,
//! and the distributed solvers against their serial references.

use pvs::fft::dist3d::{fft3d_serial, DistFft3};
use pvs::linalg::complex::Complex64;
use pvs::mpisim::{run_both, CommStats};

/// Each rank's value, the runtimes having agreed on it bit for bit.
fn agreed<T>([v1, _]: [Vec<(T, CommStats)>; 2]) -> Vec<T> {
    v1.into_iter().map(|(value, _)| value).collect()
}

#[test]
fn distributed_fft_matches_serial_at_several_rank_counts() {
    let n = 8;
    let cube: Vec<Complex64> = (0..n * n * n)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
            Complex64::new(
                ((h >> 16) % 1000) as f64 / 500.0 - 1.0,
                ((h >> 40) % 1000) as f64 / 500.0 - 1.0,
            )
        })
        .collect();
    let mut expect = cube.clone();
    fft3d_serial(&mut expect, n);

    for p in [1usize, 2, 4, 8] {
        let planes = n / p;
        let make = |rank, _| {
            DistFft3::forward(n, cube[rank * planes * n * n..(rank + 1) * planes * n * n].to_vec())
        };
        let bits = |slab: &Vec<Complex64>| slab.iter().flat_map(|z| [z.re, z.im]).collect();
        let results = agreed(run_both(p, make, bits));
        for (q, local) in results.iter().enumerate() {
            for ly in 0..planes {
                let iy = q * planes + ly;
                for iz in 0..n {
                    for ix in 0..n {
                        let got = local[(ly * n + iz) * n + ix];
                        let want = expect[(iz * n + iy) * n + ix];
                        assert!((got - want).abs() < 1e-8, "p={p} rank {q} ({ix},{iy},{iz})");
                    }
                }
            }
        }
    }
}

#[test]
fn lbmhd_distributed_agrees_across_decompositions() {
    use pvs::lbmhd::init::orszag_tang;
    use pvs::core::schedule::Cart2d;
    use pvs::lbmhd::parallel::{ExchangeMode, RankField, Subdomain};
    use pvs::lbmhd::solver::SimulationConfig;

    let n = 24;
    let cfg = SimulationConfig::new(n, n);
    let steps = 5;
    let run = |px, py, mode| {
        let cart = Cart2d::new(px, py);
        let make = |rank, _| {
            Subdomain::new(cfg, cart, rank, steps, mode, |x, y| orszag_tang(x, y, n, n, 0.05))
        };
        agreed(run_both(cart.size(), make, |f: &RankField| [&f.4[..], &f.5[..]].concat()))
    };
    let reference = run(1, 1, ExchangeMode::Mpi);
    let ref_bx = &reference[0].4;

    for (px, py, mode) in [
        (2, 2, ExchangeMode::Mpi),
        (3, 2, ExchangeMode::Mpi),
        (2, 2, ExchangeMode::Caf),
    ] {
        for (x0, y0, nx, ny, bx, _) in run(px, py, mode) {
            for y in 0..ny {
                for x in 0..nx {
                    let want = ref_bx[(y0 + y) * n + (x0 + x)];
                    let got = bx[y * nx + x];
                    assert!(
                        (got - want).abs() < 1e-12,
                        "{px}x{py} {mode:?} at ({},{})",
                        x0 + x,
                        y0 + y
                    );
                }
            }
        }
    }
}

#[test]
fn gtc_distributed_step_keeps_particles_homed_and_conserved() {
    use pvs::gtc::sim::{GtcConfig, GtcRank, GtcSim};
    use pvs::gtc::Particles;

    let cfg = GtcConfig::new(16, 16, 8);
    let slab = cfg.ny as f64 / 4.0;
    let load = |rank: usize| {
        let mut sim = GtcSim::new(cfg, 5 + rank as u64, 0.2);
        // Confine initial particles to this rank's slab.
        let y0 = rank as f64 * slab;
        for y in sim.particles.y.iter_mut() {
            *y = y0 + (*y / cfg.ny as f64) * slab;
        }
        sim
    };
    let before: f64 = (0..4).map(|rank| load(rank).particles.total_charge()).sum();
    let make = |rank, size| GtcRank::new(load(rank), rank, size, 4);
    let bits = |p: &Particles| [&p.x[..], &p.y[..], &p.rho[..], &p.w[..]].concat();
    let results = agreed(run_both(4, make, bits));
    let after: f64 = results.iter().map(Particles::total_charge).sum();
    assert!((before - after).abs() / before < 1e-12);
    for (rank, p) in results.iter().enumerate() {
        let y_lo = rank as f64 * slab;
        let y_hi = y_lo + slab;
        let homed = p.y.iter().all(|&y| y >= y_lo && y < y_hi);
        assert!(homed, "all particles in their owner's slab after shift");
    }
}

#[test]
fn cactus_distributed_wave_speed_is_preserved() {
    use pvs::cactus::grid::NFIELDS;
    use pvs::cactus::halo::CactusBlock;
    use pvs::cactus::solver::tt_plane_wave;
    use pvs::core::schedule::Cart3d;

    // One full period on 8 ranks: the wave must come back to its start.
    let gn = 16;
    let dt = 0.25;
    let steps = (gn as f64 / dt) as usize;
    let init = move |_x: usize, _y: usize, z: usize| -> [f64; NFIELDS] {
        let (h, k) = tt_plane_wave(z, gn, 0.01);
        let mut out = [0.0; NFIELDS];
        out[..6].copy_from_slice(&h);
        out[6..].copy_from_slice(&k);
        out
    };
    let cart = Cart3d::new(2, 2, 2);
    let make = |rank, _| CactusBlock::new(cart, rank, (gn, gn, gn), 1.0, dt, steps, init);
    for ((_, _, oz), values) in agreed(run_both(cart.size(), make, |f| f.1.clone())) {
        // h_xx of the first local point must match its initial value.
        let kappa = 2.0 * std::f64::consts::PI / gn as f64;
        let expect = 0.01 * (kappa * oz as f64).cos();
        assert!(
            (values[0] - expect).abs() < 2e-3,
            "origin z={oz}: {} vs {expect}",
            values[0]
        );
    }
}

#[test]
fn paratec_hamiltonian_round_trips_through_the_fft_crate() {
    use pvs::paratec::basis::PwBasis;
    use pvs::paratec::hamiltonian::Hamiltonian;

    // V = 0: applying H twice is the same as scaling by kinetic² per G.
    let basis = PwBasis::new(8, 1.5);
    let h = Hamiltonian::free(basis);
    let npw = h.basis.npw();
    let psi: Vec<Complex64> = (0..npw)
        .map(|i| Complex64::new(1.0 / (i as f64 + 1.0), 0.3))
        .collect();
    let h2 = h.apply(&h.apply(&psi));
    for i in 0..npw {
        let expect = psi[i].scale(h.basis.kinetic[i] * h.basis.kinetic[i]);
        assert!((h2[i] - expect).abs() < 1e-9, "pw {i}");
    }
}
