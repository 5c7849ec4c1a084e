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
use pvs_core::platforms;
use pvs_gtc::perf::{GtcVariant, GtcWorkload};

fn job(machine: pvs_core::machine::Machine, app: &str, procs: usize) -> SweepJob {
    // The one rule that is this command's own: GTC's MPI decomposition
    // stops at 64 toroidal domains, so beyond P=64 the workload keeps 64
    // and the Power3 runs the extra processors as OpenMP threads.
    let phases = if app == "GTC" && procs > 64 {
        let variant = if machine.name == "Power3" {
            GtcVariant::hybrid(procs / 64)
        } else {
            GtcVariant::for_machine(machine.name)
        };
        GtcWorkload {
            mpi_domains: 64,
            ..GtcWorkload::new(100, procs)
        }
        .phases(variant)
    } else {
        comparable_phases(app, machine.name, procs)
    };
    SweepJob {
        machine,
        phases,
        procs,
    }
}

/// `pvs scaling`.
pub fn run() {
    let procs = [16usize, 64, 256, 1024];
    let apps = ["LBMHD", "PARATEC", "CACTUS", "GTC"];

    // Pass 1: enumerate the grid (app-major, then P, then machine), plus
    // the three aggregate-comparison cells at the end.
    let mut jobs = Vec::new();
    for app in apps {
        for &p in &procs {
            jobs.push(job(platforms::power3(), app, p));
            jobs.push(job(platforms::earth_simulator(), app, p));
            jobs.push(job(platforms::x1(), app, p));
        }
    }
    jobs.push(job(platforms::earth_simulator(), "GTC", 64));
    jobs.push(job(platforms::x1(), "GTC", 64));
    jobs.push(job(platforms::power3(), "GTC", 1024));

    // Pass 2: evaluate in parallel (results keep enumeration order).
    let results = run_sweep(jobs);

    // Pass 3: print in enumeration order.
    let mut next = results.iter();
    for app in apps {
        println!("{app}: Gflops/P vs P\n");
        println!("{:>6} {:>9} {:>9} {:>9}", "P", "Power3", "ES", "X1");
        for &p in &procs {
            let p3 = next.next().expect("Power3 cell").gflops_per_p;
            let es = next.next().expect("ES cell").gflops_per_p;
            let x1 = next.next().expect("X1 cell").gflops_per_p;
            println!("{p:>6} {p3:>9.3} {es:>9.3} {x1:>9.3}");
        }
        println!();
    }

    // The famous aggregate comparison: 64 vector processors vs 1024
    // Power3 processors running GTC flat-out.
    let es64 = 64.0 * next.next().expect("ES aggregate").gflops_per_p;
    let x164 = 64.0 * next.next().expect("X1 aggregate").gflops_per_p;
    let p3_1024 = 1024.0 * next.next().expect("Power3 aggregate").gflops_per_p;
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
