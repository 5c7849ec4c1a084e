//! The paper's future work, running: a block-structured AMR solver tracks
//! an advected feature with local refinement. What AMR tile sizes do to
//! the five machines is `pvs amr_sweep`.
//!
//! ```text
//! cargo run --release --example amr_refinement
//! ```

use pvs::amr::solver::AmrSim;

fn main() {
    // The real AMR solver following a moving Gaussian.
    let gauss = |cx: f64| {
        move |x: f64, y: f64| {
            let d = |a: f64, b: f64| {
                let r = (a - b).rem_euclid(32.0);
                r.min(32.0 - r)
            };
            (-(d(x, cx).powi(2) + d(y, 16.0).powi(2)) / 10.0).exp()
        }
    };
    let mut sim = AmrSim::new(4, 8, (1.0, 0.0), 0.02, gauss(10.0));
    println!("AMR advection of a Gaussian (4x4 tiles of 8x8 cells, 2x refinement):\n");
    println!(
        "{:>6} {:>8} {:>16} {:>12}",
        "step", "time", "refined tiles", "L1 error"
    );
    for _ in 0..6 {
        sim.run(10);
        let t = sim.time();
        let err = sim.l1_error(gauss(10.0 + t));
        println!(
            "{:>6} {:>8.2} {:>13}/16 {:>12.5}",
            sim.steps_taken(),
            t,
            sim.mesh.refined_tiles(),
            err
        );
    }
    println!("\nRefinement follows the feature; accuracy tracks the fine level where");
    println!("it matters while most of the domain stays coarse.");
}
