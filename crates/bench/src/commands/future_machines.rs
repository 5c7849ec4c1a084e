//! The paper's forward-looking questions, answered by the model:
//!
//! 1. §5.2: would the Power5's irregularity-tolerant prefetch engines fix
//!    Cactus's large-case collapse? (The authors "look forward to testing
//!    Cactus on the Power5".)
//! 2. Would the X1 have fared better in SSP mode, where code that fails to
//!    multistream pays 8:1 instead of 32:1?

use crate::tablegen::comparable_phases;
use pvs_core::engine::Engine;
use pvs_core::platforms;
use pvs_serve::cell_phases;

/// `pvs future_machines`.
pub fn run() {
    println!("1. Cactus on the speculative Power5 (weak scaling, P=64)\n");
    println!("{:<9} {:>9} {:<8} {:>11}", "case", "machine", "Gflops/P", "%peak");
    let cactus = |config, m: pvs_core::machine::Machine| {
        let phases = cell_phases("CACTUS", config, m.name, 64).expect("a Table 5 size");
        Engine::new(m).run(&phases, 64)
    };
    for (label, config) in [("80^3", "80x80x80"), ("250x64x64", "250x64x64")] {
        for m in [
            platforms::power3(),
            platforms::power4(),
            platforms::power5_preview(),
        ] {
            let name = m.name;
            let r = cactus(config, m);
            println!(
                "{:<9} {:>9} {:>4.3} {:>13.1}%",
                label, name, r.gflops_per_p, r.pct_peak
            );
        }
        println!();
    }
    let p3_large = cactus("250x64x64", platforms::power3());
    let p5_large = cactus("250x64x64", platforms::power5_preview());
    println!(
        "The Power5's extra prefetch trackers recover the large case: {:.2} vs {:.2}\nGflops/P ({}x) — the fix §5.2 anticipates.\n",
        p5_large.gflops_per_p,
        p3_large.gflops_per_p,
        (p5_large.gflops_per_p / p3_large.gflops_per_p).round()
    );

    println!("2. X1 MSP mode vs SSP mode (P=64 MSPs vs 256 SSPs: same hardware)\n");
    println!(
        "{:<9} {:>12} {:>12} {:>14}",
        "App", "MSP GF/rank", "SSP GF/rank", "SSP aggregate"
    );
    for app in ["PARATEC", "CACTUS", "GTC"] {
        // SSP mode runs the X1 port of each code, four ranks per MSP.
        let msp = Engine::new(platforms::x1()).run(&comparable_phases(app, "X1", 64), 64);
        let ssp =
            Engine::new(platforms::x1_ssp_mode()).run(&comparable_phases(app, "X1", 256), 256);
        // Aggregate over the same silicon: 64 MSPs = 256 SSPs.
        let msp_agg = 64.0 * msp.gflops_per_p;
        let ssp_agg = 256.0 * ssp.gflops_per_p;
        println!(
            "{:<9} {:>12.3} {:>12.3} {:>9.1} vs {:.1}",
            app, msp.gflops_per_p, ssp.gflops_per_p, ssp_agg, msp_agg
        );
    }
    println!("\nSSP mode trades peak for serialization tolerance: codes whose hot loops");
    println!("multistream cleanly prefer MSP mode; multistreaming-hostile codes close");
    println!("most of the gap (or win) by running four smaller ranks per MSP.");
}
