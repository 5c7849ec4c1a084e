//! What-if machine explorer: modify one of the study's machines from the
//! command line and see how every application responds — the tool a
//! downstream user reaches for when asking "what would the ES have done
//! with half the memory bandwidth?" or "what if the X1's scalar unit were
//! twice as fast?".
//!
//! ```text
//! cargo run --release -p pvs-bench --bin pvs -- whatif ES --mem-bw 16
//! cargo run --release -p pvs-bench --bin pvs -- whatif X1 --scalar-gflops 0.8
//! cargo run --release -p pvs-bench --bin pvs -- whatif Power3 --issue-eff 0.9 --procs 256
//! ```

use crate::cli::{exit, Args, Kind, Spec};
use crate::tablegen::{comparable_phases, LARGEST_COMPARABLE};
use pvs_core::engine::Engine;
use pvs_core::machine::CpuClass;
use pvs_core::platforms;
use pvs_netsim::topology::TopologyKind;

pub const SPEC: Spec = Spec {
    command: "whatif",
    synopsis: "<Power3|Power4|Altix|ES|X1> [--mem-bw GB/s] [--peak GF/s]\n\
               \x20                 [--net-bw GB/s] [--latency us] [--scalar-gflops GF/s]\n\
               \x20                 [--issue-eff 0..1] [--topology crossbar|torus|fattree]\n\
               \x20                 [--procs N]",
    flags: &[
        ("--mem-bw", Kind::Real),
        ("--peak", Kind::Real),
        ("--net-bw", Kind::Real),
        ("--latency", Kind::Real),
        ("--scalar-gflops", Kind::Real),
        ("--issue-eff", Kind::Real),
        ("--topology", Kind::Text),
        ("--procs", Kind::Count),
    ],
    positionals: 1,
};

/// `pvs whatif`.
pub fn run(args: &Args) -> i32 {
    let Some(mut machine) = platforms::all()
        .into_iter()
        .find(|m| m.name == args.positional(0))
    else {
        return SPEC.usage_error(&format!("unknown machine {:?}", args.positional(0)));
    };
    let baseline = machine.clone();
    let procs = args.count("--procs").unwrap_or(64);

    for (flag, field) in [
        ("--mem-bw", &mut machine.mem_bw_gbs),
        ("--peak", &mut machine.peak_gflops),
        ("--net-bw", &mut machine.net_bw_gbs_per_cpu),
        ("--latency", &mut machine.mpi_latency_us),
    ] {
        if let Some(v) = args.real(flag) {
            *field = v;
        }
    }
    if let Some(v) = args.real("--scalar-gflops") {
        let CpuClass::Vector { unit, .. } = &mut machine.cpu else {
            return SPEC.usage_error("--scalar-gflops applies to vector machines");
        };
        unit.scalar_peak_gflops = v;
    }
    if let Some(v) = args.real("--issue-eff") {
        let CpuClass::Superscalar { issue_efficiency, .. } = &mut machine.cpu else {
            return SPEC.usage_error("--issue-eff applies to superscalar machines");
        };
        if v > 1.0 {
            return SPEC.usage_error("--issue-eff is a fraction of peak issue, at most 1");
        }
        *issue_efficiency = v;
    }
    if let Some(topology) = args.text("--topology") {
        machine.topology = match topology {
            "crossbar" => TopologyKind::Crossbar,
            "torus" => TopologyKind::Torus2D,
            "fattree" => TopologyKind::FatTree {
                arity: 4,
                slim: 1.0,
            },
            other => return SPEC.usage_error(&format!("unknown topology {other:?}")),
        };
    }

    println!(
        "What-if: {} with mem {} GB/s (was {}), peak {} GF/s (was {}), P={procs}\n",
        machine.name,
        machine.mem_bw_gbs,
        baseline.mem_bw_gbs,
        machine.peak_gflops,
        baseline.peak_gflops,
    );
    println!(
        "{:<9} {:>14} {:>14} {:>8}",
        "App", "baseline GF/P", "what-if GF/P", "change"
    );

    // The code variant follows the machine's name, which no flag changes,
    // so both columns run the same phase stream.
    for (app, _) in LARGEST_COMPARABLE {
        let phases = comparable_phases(app, machine.name, procs);
        let base = Engine::new(baseline.clone()).run(&phases, procs).gflops_per_p;
        let what = Engine::new(machine.clone()).run(&phases, procs).gflops_per_p;
        println!(
            "{:<9} {:>14.3} {:>14.3} {:>+7.1}%",
            app,
            base,
            what,
            100.0 * (what / base - 1.0)
        );
    }
    exit::OK
}
