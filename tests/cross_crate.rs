//! Integration: pipelines spanning multiple crates — the application
//! codes on the message-passing runtime, the FFT inside the Hamiltonian,
//! and the distributed solvers against their serial references.

use pvs::fft::dist3d::{fft3d_serial, DistFft3};
use pvs::linalg::complex::Complex64;

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
        let cube = cube.clone();
        let results = pvs::mpisim::run(p, move |mut comm| {
            let planes = n / p;
            let rank = comm.rank();
            let local = cube[rank * planes * n * n..(rank + 1) * planes * n * n].to_vec();
            DistFft3::new(n).forward(&mut comm, local)
        });
        let planes = n / p;
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
    use pvs::lbmhd::parallel::{run_distributed, ExchangeMode};
    use pvs::lbmhd::solver::SimulationConfig;

    let n = 24;
    let cfg = SimulationConfig::new(n, n);
    let steps = 5;
    let reference = run_distributed(cfg, 1, 1, steps, ExchangeMode::Mpi, |x, y| {
        orszag_tang(x, y, n, n, 0.05)
    });
    let (_, _, _, _, ref_bx, _) = (
        reference[0].0,
        reference[0].1,
        reference[0].2,
        reference[0].3,
        reference[0].4.clone(),
        reference[0].5.clone(),
    );

    for (px, py, mode) in [
        (2, 2, ExchangeMode::Mpi),
        (3, 2, ExchangeMode::Mpi),
        (2, 2, ExchangeMode::Caf),
    ] {
        let parts = run_distributed(cfg, px, py, steps, mode, |x, y| {
            orszag_tang(x, y, n, n, 0.05)
        });
        for (x0, y0, nx, ny, bx, _) in parts {
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
    use pvs::gtc::sim::{distributed_step, GtcConfig, GtcSim};

    let results = pvs::mpisim::run(4, |mut comm| {
        let cfg = GtcConfig::new(16, 16, 8);
        let mut sim = GtcSim::new(cfg, 5 + comm.rank() as u64, 0.2);
        // Confine initial particles to this rank's slab.
        let slab = cfg.ny as f64 / 4.0;
        let y0 = comm.rank() as f64 * slab;
        for y in sim.particles.y.iter_mut() {
            *y = y0 + (*y / cfg.ny as f64) * slab;
        }
        let before = comm.allreduce_sum_scalar(sim.particles.total_charge());
        for _ in 0..4 {
            distributed_step(&mut sim, &mut comm);
        }
        let after = comm.allreduce_sum_scalar(sim.particles.total_charge());
        let y_lo = comm.rank() as f64 * slab;
        let y_hi = y_lo + slab;
        let homed = sim.particles.y.iter().all(|&y| y >= y_lo && y < y_hi);
        (before, after, homed)
    });
    for (before, after, homed) in results {
        assert!((before - after).abs() / before < 1e-12);
        assert!(homed, "all particles in their owner's slab after shift");
    }
}

#[test]
fn cactus_distributed_wave_speed_is_preserved() {
    use pvs::cactus::grid::NFIELDS;
    use pvs::cactus::halo::run_distributed;
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
    let parts = run_distributed(gn, Cart3d::new(2, 2, 2), steps, dt, init);
    for ((_, _, oz), values) in parts {
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
