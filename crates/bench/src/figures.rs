//! Regeneration of the paper's figures: each function runs the *real*
//! application code at laptop scale and renders the figure's underlying
//! data (as ASCII heat maps and printed series — the quantities the
//! paper's visualizations plot).

use pvs_lbmhd::diagnostics::{current_density, current_enstrophy, magnetic_energy};
use pvs_report::image::{save_pgm, upscale};
use std::path::Path;

/// Write a field as an upscaled PGM image next to the ASCII rendering.
pub fn save_field_pgm(
    field: &[f64],
    nx: usize,
    ny: usize,
    path: impl AsRef<Path>,
) -> std::io::Result<()> {
    let k = (512 / nx.max(ny)).max(1);
    let (big, mx, my) = upscale(field, nx, ny, k);
    save_pgm(&big, mx, my, path)
}
use pvs_lbmhd::init::crossed_current_sheets;
use pvs_lbmhd::solver::{Simulation, SimulationConfig};

/// With `--pgm`, save the field next to its ASCII rendering and say so.
fn note_pgm(out: &mut String, pgm: bool, field: &[f64], nx: usize, ny: usize, path: &str) {
    if pgm && save_field_pgm(field, nx, ny, path).is_ok() {
        out.push_str(&format!("(image written to {path})\n"));
    }
}

/// Render a scalar field as an ASCII heat map.
pub fn ascii_heatmap(field: &[f64], nx: usize, ny: usize, max_rows: usize) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let lo = field.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = field.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-300);
    let step = (ny / max_rows.min(ny)).max(1);
    let xstep = (nx / (2 * max_rows).min(nx)).max(1);
    let mut out = String::new();
    for y in (0..ny).step_by(step) {
        for x in (0..nx).step_by(xstep) {
            let v = (field[y * nx + x] - lo) / span;
            let idx = ((v * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    out.push_str(&format!("range: [{lo:.4e}, {hi:.4e}]\n"));
    out
}

/// Figure 1: current-density decay of two cross-shaped structures,
/// computed by running the real LBMHD solver. `pgm` also saves each
/// snapshot as `fig1_t<step>.pgm` in the working directory.
pub fn fig1(n: usize, snapshots: &[usize], pgm: bool) -> String {
    let cfg = SimulationConfig {
        nx: n,
        ny: n,
        tau_f: 0.6,
        tau_b: 0.6,
    };
    let mut sim = Simulation::from_moments(cfg, |x, y| crossed_current_sheets(x, y, n, n, 0.08));
    let mut out = String::from(
        "Figure 1: current density j_z of two crossed magnetic shear layers, decaying\ninto current sheets (LBMHD).\n\n",
    );
    let mut done = 0;
    for &target in snapshots {
        sim.run(target - done);
        done = target;
        let (_, _, _, bx, by) = sim.fields();
        let j = current_density(&bx, &by, n, n);
        out.push_str(&format!(
            "t = {target}: magnetic energy {:.5}, current enstrophy {:.5}\n",
            magnetic_energy(&bx, &by),
            current_enstrophy(&j)
        ));
        out.push_str(&ascii_heatmap(&j, n, n, 24));
        note_pgm(&mut out, pgm, &j, n, n, &format!("fig1_t{target}.pgm"));
        out.push('\n');
    }
    out
}

/// Figure 2: the octagonal streaming lattice coupled to the square grid,
/// and the third-degree interpolation weights the diagonal streams use.
pub fn fig2() -> String {
    use pvs_lbmhd::lattice::{octagon_directions, C, CB, W, WB};
    use pvs_lbmhd::stream::lagrange4_weights;
    let mut out = String::from("Figure 2a: streaming lattices\n\nSquare-lattice velocity directions (9 = 8 + null) and weights:\n");
    for (i, ((cx, cy), w)) in C.iter().zip(W).enumerate() {
        out.push_str(&format!("  c{i} = ({cx:>2}, {cy:>2})   w = {w:.6}\n"));
    }
    out.push_str("\nMagnetic streaming directions (vector-valued) and weights:\n");
    for (i, ((cx, cy), w)) in CB.iter().zip(WB).enumerate() {
        out.push_str(&format!("  b{i} = ({cx:>2}, {cy:>2})   w = {w:.6}\n"));
    }
    out.push_str("\nOctagonal (unit-speed) directions; diagonals land between grid points:\n");
    for (k, (x, y)) in octagon_directions().iter().enumerate() {
        out.push_str(&format!("  e{k} = ({x:+.4}, {y:+.4})\n"));
    }
    let t = std::f64::consts::FRAC_1_SQRT_2;
    let w = lagrange4_weights(t);
    out.push_str(&format!(
        "\nFigure 2b: a diagonal stream updates multiple cells through cubic (4-point\nLagrange) interpolation; at offset 1/sqrt(2) = {t:.4} the weights are\n  {:+.4} {:+.4} {:+.4} {:+.4}  (sum = {:.6})\n",
        w[0], w[1], w[2], w[3], w.iter().sum::<f64>()
    ));
    out
}

/// Figure 3: charge density of a PARATEC-style calculation (the paper's
/// glycine visualization stands in for "density from a converged run").
/// `pgm` also saves the slice as `fig3.pgm` in the working directory.
pub fn fig3(pgm: bool) -> String {
    use pvs_paratec::basis::PwBasis;
    use pvs_paratec::density::charge_density;
    use pvs_paratec::hamiltonian::Hamiltonian;
    use pvs_paratec::solver::{solve_lowest, SolveOptions};
    let n = 8;
    let basis = PwBasis::new(n, 1.5);
    let h = Hamiltonian::with_atoms(basis, &[(0.3, 0.5, 0.5), (0.7, 0.5, 0.5)], -4.0, 1.0);
    let r = solve_lowest(&h, SolveOptions::new(4));
    let rho = charge_density(&h.basis, &r.eigenvectors, 2.0);
    let mut out = String::from(
        "Figure 3: charge density (z = midplane slice) of a two-atom plane-wave DFT\ncalculation (model system standing in for the paper's glycine run).\n\n",
    );
    let slice: Vec<f64> = (0..n * n).map(|i| rho[(n / 2) * n * n + i]).collect();
    out.push_str(&ascii_heatmap(&slice, n, n, 8));
    note_pgm(&mut out, pgm, &slice, n, n, "fig3.pgm");
    out.push_str(&format!(
        "\nband energies: {:?}\nsweeps: {}, residual {:.2e}\n",
        r.eigenvalues
            .iter()
            .map(|e| (e * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>(),
        r.sweeps,
        r.residual
    ));
    out
}

/// Figure 4: the Fourier-space and real-space parallel data layouts.
pub fn fig4() -> String {
    use pvs_paratec::layout::{FourierLayout, RealLayout};
    let layout = FourierLayout::new(16, 18.0, 3);
    let mut out = String::from(
        "Figure 4a: three-processor decomposition of the wavefunction sphere into\ncolumns (greedy balancer: longest column to least-loaded processor).\n\n",
    );
    for q in 0..3 {
        let cols = layout.columns_of(q);
        let points: usize = cols.iter().map(|c| c.len).sum();
        out.push_str(&format!(
            "  P{q}: {:>3} columns, {points:>4} points\n",
            cols.len()
        ));
    }
    out.push_str(&format!(
        "  imbalance: {:.2}%\n",
        100.0 * layout.imbalance()
    ));
    out.push_str("\nFigure 4b: real-space layout (contiguous plane slabs):\n");
    let real = RealLayout { n: 16, procs: 3 };
    for q in 0..3 {
        let (start, count) = real.planes_of(q);
        out.push_str(&format!("  P{q}: planes {start}..{}\n", start + count));
    }
    out
}

/// Figure 5: an evolved gravitational-wave field from the real Cactus
/// solver (standing in for the black-hole collision visualization).
/// `pgm` also saves the slice as `fig5.pgm` in the working directory.
pub fn fig5(pgm: bool) -> String {
    use pvs_cactus::grid::h;
    use pvs_cactus::solver::{tt_plane_wave, CactusConfig, CactusSim};
    let n = 24;
    let mut sim = CactusSim::from_fields(CactusConfig::periodic_cube(n), |_, _, z| {
        tt_plane_wave(z, n, 0.01)
    });
    sim.run(2 * n);
    let mut out = String::from(
        "Figure 5: h_xx metric perturbation (x-z slice) of a propagating\ngravitational wave after half a crossing time (Cactus ADM solver).\n\n",
    );
    let mut slice = vec![0.0; n * n];
    for z in 0..n {
        for x in 0..n {
            slice[z * n + x] = sim.grid.get(h(0), x as isize, (n / 2) as isize, z as isize);
        }
    }
    out.push_str(&ascii_heatmap(&slice, n, n, 24));
    note_pgm(&mut out, pgm, &slice, n, n, "fig5.pgm");
    out.push_str(&format!(
        "\nconstraint RMS: {:.3e}\n",
        sim.constraint_violation()
    ));
    out
}

/// Figure 6: the ghost-zone exchange pattern of the block decomposition.
pub fn fig6() -> String {
    use pvs_core::schedule::Cart3d;
    let cart = Cart3d::near_cubic(8);
    let mut out = String::from(
        "Figure 6: each processor updates ghost zones by exchanging faces with its\ntopological neighbours (2x2x2 decomposition shown).\n\n",
    );
    for r in 0..cart.size() {
        let (x, y, z) = cart.coords(r);
        let n = cart.neighbors6(r);
        out.push_str(&format!(
            "  rank {r} at ({x},{y},{z}): +x->{} -x->{} +y->{} -y->{} +z->{} -z->{}\n",
            n[0], n[1], n[2], n[3], n[4], n[5]
        ));
    }
    out
}

/// Figure 7: electrostatic potential of a GTC microturbulence run.
/// `pgm` also saves the field as `fig7.pgm` in the working directory.
pub fn fig7(pgm: bool) -> String {
    use pvs_gtc::sim::{GtcConfig, GtcSim};
    let mut sim = GtcSim::new(GtcConfig::new(32, 32, 8), 7, 0.3);
    sim.run(10);
    let mut out = String::from(
        "Figure 7: electrostatic potential in a self-consistent gyrokinetic PIC\nsimulation (elongated turbulent eddies act as transport channels).\n\n",
    );
    out.push_str(&ascii_heatmap(sim.phi.as_slice(), 32, 32, 16));
    note_pgm(&mut out, pgm, sim.phi.as_slice(), 32, 32, "fig7.pgm");
    out.push_str(&format!("\nfield energy: {:.4e}\n", sim.field_energy()));
    out
}

/// Figure 8: classic vs 4-point gyroaveraged charge deposition footprints.
pub fn fig8() -> String {
    use pvs_gtc::deposit::{deposit_classic, deposit_gyro_serial};
    use pvs_gtc::grid2d::Grid2d;
    use pvs_gtc::particles::Particles;
    let mut p = Particles::default();
    p.push(8.3, 8.6, 3.0, 1.0);
    let mut classic = Grid2d::new(16, 16);
    let mut gyro = Grid2d::new(16, 16);
    deposit_classic(&p, &mut classic);
    deposit_gyro_serial(&p, &mut gyro);
    let mut out =
        String::from("Figure 8a: classic PIC deposition (guiding centre -> nearest cells):\n\n");
    out.push_str(&ascii_heatmap(classic.as_slice(), 16, 16, 16));
    out.push_str("\nFigure 8b: 4-point gyroaveraged deposition (charged ring, rho = 3):\n\n");
    out.push_str(&ascii_heatmap(gyro.as_slice(), 16, 16, 16));
    let nz_classic = classic.as_slice().iter().filter(|&&v| v != 0.0).count();
    let nz_gyro = gyro.as_slice().iter().filter(|&&v| v != 0.0).count();
    out.push_str(&format!(
        "\ncells touched: classic {nz_classic}, gyroaveraged {nz_gyro}\n(concurrent ring points may target the same cell - the vectorization hazard)\n",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_dimensions_and_range() {
        let field = vec![0.0, 1.0, 2.0, 3.0];
        let s = ascii_heatmap(&field, 2, 2, 4);
        assert!(s.contains("range"));
        assert!(s.lines().count() >= 3);
    }

    #[test]
    fn fig1_reports_decaying_energy() {
        let s = fig1(32, &[0, 60], false);
        assert!(s.contains("t = 0"));
        assert!(s.contains("t = 60"));
        // Parse the two magnetic-energy values and check decay.
        let vals: Vec<f64> = s
            .lines()
            .filter(|l| l.contains("magnetic energy"))
            .map(|l| {
                l.split("magnetic energy ")
                    .nth(1)
                    .and_then(|r| r.split(',').next())
                    .and_then(|v| v.trim().parse().ok())
                    .expect("parsable energy")
            })
            .collect();
        assert_eq!(vals.len(), 2);
        assert!(vals[1] < vals[0], "magnetic energy must decay: {vals:?}");
    }

    #[test]
    fn fig2_weights_consistent() {
        let s = fig2();
        assert!(s.contains("sum = 1.000000"));
    }

    #[test]
    fn fig4_balanced() {
        let s = fig4();
        assert!(s.contains("P0") && s.contains("P2"));
    }

    #[test]
    fn fig6_neighbor_symmetry() {
        let s = fig6();
        assert!(s.contains("rank 0"));
        assert!(s.contains("rank 7"));
    }

    #[test]
    fn fig8_gyro_touches_more_cells() {
        let s = fig8();
        let line = s
            .lines()
            .find(|l| l.starts_with("cells touched"))
            .expect("summary");
        let nums: Vec<usize> = line
            .split(|c: char| !c.is_ascii_digit())
            .filter(|t| !t.is_empty())
            .map(|t| t.parse().expect("number"))
            .collect();
        assert!(nums[1] > nums[0], "{line}");
    }
}
