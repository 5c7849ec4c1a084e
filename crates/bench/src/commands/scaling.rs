//! Scaling curves: per-processor performance vs processor count for every
//! application on the ES, X1 and Power3 — the fixed-size (LBMHD, PARATEC)
//! and weak (Cactus) scaling behaviour the paper discusses, plus the
//! headline cross-machine claim: "the 64-way vector systems still
//! performed up to 20% faster than 1024 Power3 processors" (§6.2/§7).
//!
//! The whole (app × P × machine) grid is evaluated through the parallel
//! sweep executor; jobs are enumerated and printed in the same order, so
//! the output is identical at any thread count.

use crate::tablegen::comparable_phases;
use pvs_core::engine::{run_sweep, SweepJob};
use pvs_core::machine::Machine;
use pvs_core::platforms;
use pvs_gtc::perf::{GtcVariant, GtcWorkload};

fn job(machine: &Machine, app: &str, procs: usize) -> SweepJob {
    // The one rule that is this command's own: GTC's MPI decomposition
    // stops at 64 toroidal domains, so beyond P=64 the Power3 runs the
    // extra processors as OpenMP threads under each domain.
    let phases = if app == "GTC" && procs > 64 && machine.name == "Power3" {
        GtcWorkload::new(100, procs).phases(GtcVariant::hybrid(procs / 64))
    } else {
        comparable_phases(app, machine.name, procs)
    };
    SweepJob {
        machine: machine.clone(),
        phases,
        procs,
    }
}

/// `pvs scaling`.
pub fn run() {
    let procs = [16usize, 64, 256, 1024];
    let apps = ["LBMHD", "PARATEC", "CACTUS", "GTC"];
    let [p3, es, x1] = [platforms::power3(), platforms::earth_simulator(), platforms::x1()];

    // The grid (app-major, then P, then Power3/ES/X1), then the three
    // aggregate-comparison cells.
    let mut jobs = Vec::new();
    for app in apps {
        for &p in &procs {
            jobs.extend([job(&p3, app, p), job(&es, app, p), job(&x1, app, p)]);
        }
    }
    jobs.push(job(&es, "GTC", 64));
    jobs.push(job(&x1, "GTC", 64));
    jobs.push(job(&p3, "GTC", 1024));
    let results = run_sweep(jobs);

    let (grid, aggregate) = results.split_at(apps.len() * procs.len() * 3);
    for (app, rows) in apps.iter().zip(grid.chunks(procs.len() * 3)) {
        println!("{app}: Gflops/P vs P\n");
        println!("{:>6} {:>9} {:>9} {:>9}", "P", "Power3", "ES", "X1");
        for (p, row) in procs.iter().zip(rows.chunks(3)) {
            let [p3, es, x1] = [0, 1, 2].map(|i| row[i].gflops_per_p);
            println!("{p:>6} {p3:>9.3} {es:>9.3} {x1:>9.3}");
        }
        println!();
    }

    // The famous aggregate comparison: 64 vector processors vs 1024
    // Power3 processors running GTC flat-out.
    let es64 = 64.0 * aggregate[0].gflops_per_p;
    let x164 = 64.0 * aggregate[1].gflops_per_p;
    let p3_1024 = 1024.0 * aggregate[2].gflops_per_p;
    println!("GTC aggregate performance (same problem):");
    println!("      64 ES processors: {es64:>8.1} Gflop/s");
    println!("      64 X1 MSPs:       {x164:>8.1} Gflop/s");
    println!("    1024 Power3 CPUs:   {p3_1024:>8.1} Gflop/s");
    println!(
        "\n\"the 64-way vector systems still performed up to 20% faster than 1024\nPower3 processors\" — model: ES x{:.2}, X1 x{:.2}.",
        es64 / p3_1024,
        x164 / p3_1024
    );
}
