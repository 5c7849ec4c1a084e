//! Smoke tests for every figure generator: each runs its real application
//! and must produce the expected markers and well-formed heat maps.

#[test]
fn every_figure_generator_produces_its_data() {
    let checks: Vec<(&str, String, Vec<&str>)> = vec![
        (
            "fig1",
            pvs_bench::figures::fig1(32, &[0, 40], false),
            vec!["current density", "magnetic energy", "range:"],
        ),
        ("fig2", pvs_bench::figures::fig2(), vec!["streaming lattices", "sum = 1.000000"]),
        ("fig3", pvs_bench::figures::fig3(false), vec!["charge density", "band energies"]),
        ("fig4", pvs_bench::figures::fig4(), vec!["columns", "imbalance"]),
        ("fig5", pvs_bench::figures::fig5(false), vec!["h_xx", "constraint RMS"]),
        ("fig6", pvs_bench::figures::fig6(), vec!["rank 0", "+x->"]),
        ("fig7", pvs_bench::figures::fig7(false), vec!["electrostatic potential", "field energy"]),
        ("fig8", pvs_bench::figures::fig8(), vec!["classic", "gyroaveraged", "cells touched"]),
    ];
    for (name, output, markers) in checks {
        assert!(!output.is_empty(), "{name} empty");
        for m in markers {
            assert!(output.contains(m), "{name} missing marker {m:?}:\n{output}");
        }
    }
}

#[test]
fn fig5_constraints_remain_small() {
    let out = pvs_bench::figures::fig5(false);
    let rms: f64 = out
        .lines()
        .find(|l| l.contains("constraint RMS"))
        .and_then(|l| l.split(':').next_back())
        .and_then(|v| v.trim().parse().ok())
        .expect("parsable RMS");
    assert!(rms < 1e-8, "evolved wave stays constraint-satisfying: {rms}");
}

#[test]
fn fig4_decomposition_is_complete_and_balanced() {
    let out = pvs_bench::figures::fig4();
    let imbalance: f64 = out
        .lines()
        .find(|l| l.contains("imbalance"))
        .and_then(|l| l.split(':').next_back())
        .and_then(|v| v.trim().trim_end_matches('%').parse().ok())
        .expect("parsable imbalance");
    assert!(imbalance < 5.0, "greedy balancer imbalance {imbalance}%");
}
