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
use pvs_core::machine::{CpuClass, Machine};
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

/// The study machine `args` names, and it again with the flags' fields
/// overwritten — or the usage error's exit code.
fn patched(args: &Args) -> Result<(Machine, Machine), i32> {
    let Some(baseline) = platforms::all()
        .into_iter()
        .find(|m| m.name == args.positional(0))
    else {
        return Err(SPEC.usage_error(&format!("unknown machine {:?}", args.positional(0))));
    };
    let mut machine = baseline.clone();
    for (flag, field) in [
        ("--mem-bw", &mut machine.mem_bw_gbs),
        ("--net-bw", &mut machine.net_bw_gbs_per_cpu),
        ("--latency", &mut machine.mpi_latency_us),
    ] {
        if let Some(v) = args.real(flag) {
            *field = v;
        }
    }
    if let Some(v) = args.real("--peak") {
        // Peak is clock × width. `peak_gflops` alone is only the %-of-peak
        // denominator on a vector machine, whose rate is the unit's clock
        // × pipes: scale the clocks with it, so the unit's peak stays the
        // machine's and memory GB/s (bytes per cycle × clock) stays fixed.
        let scale = v / machine.peak_gflops;
        machine.peak_gflops = v;
        machine.clock_mhz *= scale;
        if let CpuClass::Vector { unit, .. } = &mut machine.cpu {
            unit.clock_mhz *= scale;
        }
    }
    if let Some(v) = args.real("--scalar-gflops") {
        let CpuClass::Vector { unit, .. } = &mut machine.cpu else {
            return Err(SPEC.usage_error("--scalar-gflops applies to vector machines"));
        };
        unit.scalar_peak_gflops = v;
    }
    if let Some(v) = args.real("--issue-eff") {
        let CpuClass::Superscalar { issue_efficiency, .. } = &mut machine.cpu else {
            return Err(SPEC.usage_error("--issue-eff applies to superscalar machines"));
        };
        if v > 1.0 {
            return Err(SPEC.usage_error("--issue-eff is a fraction of peak issue, at most 1"));
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
            other => return Err(SPEC.usage_error(&format!("unknown topology {other:?}"))),
        };
    }
    Ok((baseline, machine))
}

/// `(app, baseline Gflop/s/P, what-if Gflop/s/P)` for the four apps. The
/// code variant follows the machine's name, which no flag changes, so
/// both columns run the same phase stream.
fn rows(baseline: &Machine, machine: &Machine, procs: usize) -> Vec<(&'static str, f64, f64)> {
    LARGEST_COMPARABLE
        .iter()
        .map(|&(app, _)| {
            let phases = comparable_phases(app, machine.name, procs);
            let run = |m: &Machine| Engine::new(m.clone()).run(&phases, procs).gflops_per_p;
            (app, run(baseline), run(machine))
        })
        .collect()
}

/// The header line: every field the flags changed, old -> new, named by
/// its flag.
fn header(old: &Machine, new: &Machine, procs: usize) -> String {
    let cpu = |m: &Machine| match &m.cpu {
        CpuClass::Vector { unit, .. } => ("scalar-gflops", unit.scalar_peak_gflops, " GF/s"),
        CpuClass::Superscalar { issue_efficiency, .. } => ("issue-eff", *issue_efficiency, ""),
    };
    let ((flag, a, unit), (_, b, _)) = (cpu(old), cpu(new));
    let mut changed: Vec<String> = [
        ("mem-bw", old.mem_bw_gbs, new.mem_bw_gbs, " GB/s"),
        ("peak", old.peak_gflops, new.peak_gflops, " GF/s"),
        ("net-bw", old.net_bw_gbs_per_cpu, new.net_bw_gbs_per_cpu, " GB/s"),
        ("latency", old.mpi_latency_us, new.mpi_latency_us, " us"),
        (flag, a, b, unit),
    ]
    .iter()
    .filter(|(_, a, b, _)| a != b)
    .map(|(flag, a, b, unit)| format!("{flag} {a} -> {b}{unit}"))
    .collect();
    if old.topology != new.topology {
        changed.push(format!("topology {:?} -> {:?}", old.topology, new.topology));
    }
    if changed.is_empty() {
        changed.push("no field changed".into());
    }
    let changed = changed.join(", ");
    format!("What-if: {} with {changed}, P={procs}", new.name)
}

/// `pvs whatif`.
pub fn run(args: &Args) -> i32 {
    let (baseline, machine) = match patched(args) {
        Ok(pair) => pair,
        Err(code) => return code,
    };
    let procs = args.count("--procs").unwrap_or(64);

    println!("{}\n", header(&baseline, &machine, procs));
    println!(
        "{:<9} {:>14} {:>14} {:>8}",
        "App", "baseline GF/P", "what-if GF/P", "change"
    );

    for (app, base, what) in rows(&baseline, &machine, procs) {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Percent change per app for `pvs whatif <argv>` at P=64, with the
    /// patched machine.
    fn changes(argv: &[&str]) -> (Machine, Vec<(&'static str, f64)>) {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        let (baseline, machine) = patched(&SPEC.parse(&argv).unwrap()).unwrap();
        let changes = rows(&baseline, &machine, 64)
            .into_iter()
            .map(|(app, base, what)| (app, 100.0 * (what / base - 1.0)))
            .collect();
        (machine, changes)
    }

    fn header_of(argv: &[&str]) -> String {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        let args = SPEC.parse(&argv).unwrap();
        let (baseline, machine) = patched(&args).unwrap();
        header(&baseline, &machine, args.count("--procs").unwrap_or(64))
    }

    #[test]
    fn header_names_each_field_a_flag_changed() {
        assert_eq!(
            header_of(&["Power3", "--latency", "8.15", "--procs", "512"]),
            "What-if: Power3 with latency 16.3 -> 8.15 us, P=512"
        );
        assert_eq!(
            header_of(&["X1", "--topology", "crossbar"]),
            "What-if: X1 with topology Torus2D -> Crossbar, P=64"
        );
        assert_eq!(
            header_of(&["ES", "--topology", "crossbar", "--mem-bw", "16"]),
            "What-if: ES with mem-bw 32 -> 16 GB/s, P=64"
        );
        assert_eq!(
            header_of(&["ES", "--topology", "crossbar"]),
            "What-if: ES with no field changed, P=64"
        );
    }

    #[test]
    fn peak_moves_a_vector_machines_rate_not_only_its_header() {
        let paratec = |changes: &[(&str, f64)]| {
            changes.iter().find(|(app, _)| *app == "PARATEC").expect("four apps").1
        };
        let (es, doubled) = changes(&["ES", "--peak", "16"]);
        let CpuClass::Vector { unit, .. } = &es.cpu else { panic!("ES is vector") };
        assert!((unit.vector_peak_gflops() - es.peak_gflops).abs() < 1e-9);
        // Both clocks moved together: the unit still sees 32 GB/s.
        let unit_gbs = es.bytes_per_cycle() * unit.clock_mhz * 1e-3;
        assert!((unit_gbs - 32.0).abs() < 1e-9, "{unit_gbs}");
        assert!(paratec(&doubled) > 20.0, "PARATEC/ES is compute-bound: {doubled:?}");
        // The unchanged peak is the unchanged machine.
        for (app, pct) in changes(&["ES", "--peak", "8"]).1 {
            assert_eq!(pct, 0.0, "{app}");
        }
        assert!(paratec(&changes(&["Power3", "--peak", "3"]).1) > 90.0);
    }
}
