//! Charge deposition: classic PIC and the 4-point gyroaverage, in serial
//! and work-vector forms.
//!
//! The gyrokinetic trick (paper Fig. 8): instead of resolving the fast
//! circular motion, each particle is a charged *ring*; four points on the
//! ring each carry a quarter of the charge and deposit bilinearly. Two or
//! more ring points of concurrently processed particles may hit the same
//! grid cell — the memory dependency that blocks vectorization and that
//! the work-vector algorithm (Nishiguchi et al. 1985) resolves with
//! lane-private copies at a 2–8× memory cost (§6.1).

use crate::grid2d::Grid2d;
use crate::particles::Particles;
use pvs_vectorsim::workvec::WorkVectorGrid;

/// The four gyroaverage sample offsets for gyroradius `rho` (points at
/// 0°, 90°, 180°, 270° on the ring).
#[inline]
pub fn ring_points(rho: f64) -> [(f64, f64); 4] {
    [(rho, 0.0), (0.0, rho), (-rho, 0.0), (0.0, -rho)]
}

/// Classic PIC deposition (Fig. 8a): the guiding centre deposits directly.
pub fn deposit_classic(p: &Particles, grid: &mut Grid2d) {
    for i in 0..p.len() {
        grid.scatter(p.x[i], p.y[i], p.w[i]);
    }
}

/// Serial 4-point gyroaveraged deposition (Fig. 8b) — the reference
/// implementation every vectorized variant must reproduce exactly.
pub fn deposit_gyro_serial(p: &Particles, grid: &mut Grid2d) {
    for i in 0..p.len() {
        let q = p.w[i] * 0.25;
        for (dx, dy) in ring_points(p.rho[i]) {
            grid.scatter(p.x[i] + dx, p.y[i] + dy, q);
        }
    }
}

/// Work-vector 4-point deposition: particles are processed in chunks of
/// `lanes`; each lane scatters into its private grid copy and the copies
/// are reduced at the end — dependence-free inner loop, `lanes ×` memory.
pub fn deposit_gyro_workvector(p: &Particles, grid: &mut Grid2d, lanes: usize) {
    assert!(lanes >= 1);
    let n = grid.len();
    let mut wv = WorkVectorGrid::new(lanes, n.max(1));
    let nx = grid.nx;
    for (i, ((x, y), (rho, w))) in p.x.iter().zip(&p.y).zip(p.rho.iter().zip(&p.w)).enumerate() {
        let lane = i % lanes;
        let q = w * 0.25;
        for (dx, dy) in ring_points(*rho) {
            for (ix, iy, bw) in grid.bilinear(x + dx, y + dy) {
                let xm = ix.rem_euclid(nx as isize) as usize;
                let ym = iy.rem_euclid(grid.ny as isize) as usize;
                wv.deposit(lane, ym * nx + xm, bw * q);
            }
        }
    }
    wv.reduce_into(grid.as_mut_slice());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_particles(n: usize, seed: u64) -> Particles {
        Particles::load_uniform(n, 16, 16, 2.5, seed)
    }

    #[test]
    fn gyro_deposition_conserves_charge() {
        let p = sample_particles(500, 3);
        let mut g = Grid2d::new(16, 16);
        deposit_gyro_serial(&p, &mut g);
        assert!((g.total() - p.total_charge()).abs() < 1e-10);
    }

    #[test]
    fn classic_deposition_conserves_charge() {
        let p = sample_particles(500, 4);
        let mut g = Grid2d::new(16, 16);
        deposit_classic(&p, &mut g);
        assert!((g.total() - p.total_charge()).abs() < 1e-10);
    }

    #[test]
    fn work_vector_matches_serial_exactly_in_total_and_closely_per_cell() {
        let p = sample_particles(300, 5);
        let mut serial = Grid2d::new(16, 16);
        deposit_gyro_serial(&p, &mut serial);
        for lanes in [1, 4, 64] {
            let mut wv = Grid2d::new(16, 16);
            deposit_gyro_workvector(&p, &mut wv, lanes);
            for (a, b) in serial.as_slice().iter().zip(wv.as_slice()) {
                assert!((a - b).abs() < 1e-10, "lanes={lanes}");
            }
        }
    }

    #[test]
    fn zero_gyroradius_reduces_to_classic() {
        let mut p = sample_particles(200, 7);
        p.rho.iter_mut().for_each(|r| *r = 0.0);
        let mut gyro = Grid2d::new(16, 16);
        let mut classic = Grid2d::new(16, 16);
        deposit_gyro_serial(&p, &mut gyro);
        deposit_classic(&p, &mut classic);
        for (a, b) in gyro.as_slice().iter().zip(classic.as_slice()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn ring_points_have_radius_rho() {
        for (dx, dy) in ring_points(2.5) {
            assert!((dx * dx + dy * dy - 6.25).abs() < 1e-12);
        }
    }

    #[test]
    fn gyroaverage_smooths_the_deposit() {
        // A single particle's gyro deposit spreads charge wider than the
        // classic deposit: peak cell value must be lower.
        let mut p = Particles::default();
        p.push(8.0, 8.0, 3.0, 1.0);
        let mut gyro = Grid2d::new(16, 16);
        let mut classic = Grid2d::new(16, 16);
        deposit_gyro_serial(&p, &mut gyro);
        deposit_classic(&p, &mut classic);
        let max = |g: &Grid2d| g.as_slice().iter().cloned().fold(0.0f64, f64::max);
        assert!(max(&gyro) < max(&classic));
    }

    #[test]
    fn charge_conservation_across_populations_and_lane_counts() {
        // Former proptest property, swept deterministically: population
        // sizes straddling the lane counts (including n < lanes), several
        // seeds, and ragged lane widths.
        for n in [1usize, 3, 7, 50, 111, 199] {
            for seed in [0u64, 123, 499] {
                for lanes in [1usize, 3, 8, 15] {
                    let p = sample_particles(n, seed);
                    let mut g = Grid2d::new(16, 16);
                    deposit_gyro_workvector(&p, &mut g, lanes);
                    assert!(
                        (g.total() - p.total_charge()).abs() < 1e-9,
                        "n={n} seed={seed} lanes={lanes}"
                    );
                }
            }
        }
    }
}
