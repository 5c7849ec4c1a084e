//! Bottleneck classification: the paper's qualitative findings table as
//! a machine-checked artifact.
//!
//! Every profiled cell is reduced to a small set of *signals* (scalar
//! serialization share, communication/bisection pressure, memory-roofline
//! position) and classified into the bound that dominates it:
//!
//! * **LBMHD** on superscalar machines — computational intensity far
//!   below the machine balance point ⇒ [`Bottleneck::MemoryBandwidthBound`];
//! * **PARATEC** at scale on the X1 torus — all-to-all FFT transposes
//!   against a thin bisection ⇒ [`Bottleneck::BisectionBound`];
//! * **Cactus** and **GTC** on vector machines — unvectorized boundary /
//!   shift work serialized at 8:1 (ES) or 32:1 (X1 MSP) ⇒
//!   [`Bottleneck::ScalarSerializationBound`];
//! * well-blocked BLAS3-heavy work near peak ⇒ [`Bottleneck::ComputeBound`].

use crate::amdahl;
use pvs_core::machine::Machine;
use pvs_core::report::PerfReport;
use pvs_obs::Snapshot;

/// The dominant limit on a cell's performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// Runs near the compute roofline; more flops/s needs more peak.
    ComputeBound,
    /// Runs on the memory-bandwidth roofline (intensity below balance).
    MemoryBandwidthBound,
    /// Limited by global interconnect bandwidth (all-to-all vs bisection).
    BisectionBound,
    /// Limited by unvectorized work serialized onto the scalar unit.
    ScalarSerializationBound,
}

impl Bottleneck {
    /// Stable display name (also used in rendered findings tables).
    pub fn name(&self) -> &'static str {
        match self {
            Bottleneck::ComputeBound => "compute-bound",
            Bottleneck::MemoryBandwidthBound => "memory-bw-bound",
            Bottleneck::BisectionBound => "bisection-bound",
            Bottleneck::ScalarSerializationBound => "scalar-serialization",
        }
    }
}

/// Scalar-serialization share of runtime above which the scalar unit is
/// the dominant limit (Amdahl share × loop fraction). Calibrated against
/// the paper sweep: the Cactus vector cells sit at 22–23% (boundary
/// physics serialized on one SSP) while every fully vectorized cell is
/// exactly 0, so 0.20 splits them with margin on both sides.
pub const SCALAR_SHARE_THRESHOLD: f64 = 0.20;
/// Traffic-globality ratio — `netsim.bisection_bytes` over
/// `netsim.payload_bytes` — above which the pattern is genuinely global.
/// An all-to-all pushes about half its analytic volume through any
/// bisection (the sweep's FFT transposes measure 1.33 because netsim
/// stages the exchange, shrinking the wire payload below the analytic
/// crossing volume); halo and recursive-doubling traffic measures below
/// 0.09. The gap is more than an order of magnitude, so the exact cut
/// point is uncritical.
pub const BISECTION_GLOBALITY_THRESHOLD: f64 = 0.25;
/// Communication fraction below which even global traffic cannot be the
/// dominant limit. In the sweep the X1 torus is the only machine that
/// pushes the PARATEC transposes above this (7.2% vs ≤3.8% elsewhere).
pub const BISECTION_COMM_FRACTION: f64 = 0.05;
/// Fraction of the sustained-bandwidth roofline above which a loop is
/// bandwidth-starved rather than issue-limited.
pub const MEMBW_SATURATION_THRESHOLD: f64 = 0.50;

/// Everything the classifier derived for one cell.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// Cell identity key (`app/config/machine/Pn`).
    pub key: String,
    /// The classification.
    pub bottleneck: Bottleneck,
    /// Fraction of modelled time spent communicating.
    pub comm_fraction: f64,
    /// Mean route hops per network message (0 when no traffic).
    pub mean_hops: f64,
    /// Traffic globality: bisection-crossing bytes over wire payload
    /// bytes (0 when no traffic).
    pub globality: f64,
    /// Loop computational intensity in flops per byte.
    pub intensity: f64,
    /// Machine balance point in flops per byte (peak / memory BW).
    pub balance: f64,
    /// Achieved fraction of the machine's memory bandwidth during loops.
    pub membw_fraction: f64,
    /// Amdahl decomposition, vector machines only.
    pub amdahl: Option<amdahl::AmdahlDecomposition>,
    /// Scalar-serialization share of total runtime (0 on superscalar).
    pub scalar_share: f64,
    /// One-line human-readable justification.
    pub why: String,
}

/// Classify one run — its report and the counters its recorder took —
/// against its machine model; `key` names the cell in the findings.
pub fn diagnose(
    key: String,
    report: &PerfReport,
    counters: &Snapshot,
    machine: &Machine,
) -> Diagnosis {
    let count = |name: &str| counters.counter(name).unwrap_or(0) as f64;
    let comm_fraction = report.comm_fraction();
    let loop_flops = count("engine.loop.flops");
    let loop_bytes = count("engine.loop.bytes");
    let intensity = if loop_bytes > 0.0 {
        loop_flops / loop_bytes
    } else {
        f64::INFINITY
    };
    let balance = machine.peak_gflops / machine.mem_bw_gbs;
    let loop_s = (report.time_s - report.comm_s).max(0.0);
    let membw_fraction = if loop_s > 0.0 {
        (loop_bytes / loop_s) / (machine.mem_bw_gbs * 1e9)
    } else {
        0.0
    };
    let messages = count("netsim.messages");
    let mean_hops = if messages > 0.0 {
        count("netsim.hops") / messages
    } else {
        0.0
    };
    let payload = count("netsim.payload_bytes");
    let globality = if payload > 0.0 {
        count("netsim.bisection_bytes") / payload
    } else {
        0.0
    };
    let amdahl = amdahl::decompose(report, machine);
    let scalar_share = amdahl
        .as_ref()
        .map(|d| d.scalar_share_of_runtime(comm_fraction))
        .unwrap_or(0.0);

    let (bottleneck, why) = if scalar_share > SCALAR_SHARE_THRESHOLD {
        let d = amdahl.as_ref().unwrap();
        (
            Bottleneck::ScalarSerializationBound,
            format!(
                "scalar unit holds {:.0}% of runtime (VOR {:.1}%, {}:1 penalty)",
                100.0 * scalar_share,
                100.0 * d.vor,
                d.penalty.round()
            ),
        )
    } else if globality > BISECTION_GLOBALITY_THRESHOLD
        && comm_fraction > BISECTION_COMM_FRACTION
    {
        (
            Bottleneck::BisectionBound,
            format!(
                "global traffic (bisection/payload {:.2}) holds {:.0}% of \
                 runtime at {:.1} hops/message",
                globality,
                100.0 * comm_fraction,
                mean_hops
            ),
        )
    } else if membw_fraction > MEMBW_SATURATION_THRESHOLD && intensity < balance {
        (
            Bottleneck::MemoryBandwidthBound,
            format!(
                "loops sustain {:.0}% of memory bandwidth at {:.2} flops/byte \
                 (balance point {:.2})",
                100.0 * membw_fraction,
                intensity,
                balance
            ),
        )
    } else {
        (
            Bottleneck::ComputeBound,
            format!(
                "compute-roofline: {:.1}% of peak with {:.2} flops/byte \
                 above effective balance",
                report.pct_peak,
                intensity
            ),
        )
    };

    Diagnosis {
        key,
        bottleneck,
        comm_fraction,
        mean_hops,
        globality,
        intensity,
        balance,
        membw_fraction,
        amdahl,
        scalar_share,
        why,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvs_core::platforms;
    use pvs_vectorsim::VectorMetrics;

    /// A 64-processor run of `time_s` seconds, `comm_s` of them
    /// communicating, that recorded `counters`.
    fn run_with(counters: &[(&str, u64)], time_s: f64, comm_s: f64) -> (PerfReport, Snapshot) {
        let report = PerfReport {
            machine: "ES".into(),
            procs: 64,
            time_s,
            comm_s,
            flops_per_p: 0.0,
            gflops_per_p: 0.0,
            pct_peak: 0.0,
            vector_metrics: None,
            phases: Vec::new(),
        };
        let counters = counters.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        (report, Snapshot { counters, ..Snapshot::default() })
    }

    fn classify((report, counters): &(PerfReport, Snapshot), machine: &Machine) -> Diagnosis {
        diagnose("TEST/ES/P64".into(), report, counters, machine)
    }

    #[test]
    fn scalar_contamination_dominates_on_vector_machines() {
        // VOR 50% on the X1: scalar share = 0.5*32/(0.5+0.5*32) ≈ 97%.
        let mut run = run_with(&[], 10.0, 0.0);
        run.0.vector_metrics = Some(VectorMetrics {
            vector_element_ops: 500,
            vector_instructions: 10,
            scalar_ops: 500,
        });
        let d = classify(&run, &platforms::x1());
        assert_eq!(d.bottleneck, Bottleneck::ScalarSerializationBound);
        assert!(d.scalar_share > 0.9, "{}", d.scalar_share);
        assert!(d.why.contains("32:1"), "{}", d.why);
    }

    #[test]
    fn global_comm_pressure_classifies_as_bisection() {
        // All-to-all shape: about half the payload crosses the bisection.
        let run = run_with(
            &[
                ("netsim.messages", 1000),
                ("netsim.hops", 4000),
                ("netsim.payload_bytes", 1_000_000),
                ("netsim.bisection_bytes", 500_000),
                ("engine.loop.flops", 1_000_000),
                ("engine.loop.bytes", 10_000),
            ],
            10.0,
            5.0,
        );
        let d = classify(&run, &platforms::x1());
        assert_eq!(d.bottleneck, Bottleneck::BisectionBound);
        assert!((d.mean_hops - 4.0).abs() < 1e-12);
        assert!((d.globality - 0.5).abs() < 1e-12);
    }

    #[test]
    fn neighbor_comm_is_not_bisection_pressure() {
        // Same comm fraction but halo traffic: only the straddling pairs
        // cross the cut, so globality stays far below the threshold.
        let run = run_with(
            &[
                ("netsim.messages", 1000),
                ("netsim.hops", 1000),
                ("netsim.payload_bytes", 1_000_000),
                ("netsim.bisection_bytes", 80_000),
                ("engine.loop.flops", u64::MAX),
                ("engine.loop.bytes", 1),
            ],
            10.0,
            5.0,
        );
        let d = classify(&run, &platforms::power3());
        assert_ne!(d.bottleneck, Bottleneck::BisectionBound);
    }

    #[test]
    fn global_pattern_with_negligible_comm_time_is_not_bisection_bound() {
        // The PARATEC-on-ES shape: all-to-all transposes, but the fat ES
        // crossbar keeps comm under the time floor.
        let run = run_with(
            &[
                ("netsim.payload_bytes", 1_000_000),
                ("netsim.bisection_bytes", 1_300_000),
                ("engine.loop.flops", 64_000_000),
                ("engine.loop.bytes", 1_000_000),
            ],
            10.0,
            0.3,
        );
        let d = classify(&run, &platforms::earth_simulator());
        assert_ne!(d.bottleneck, Bottleneck::BisectionBound);
    }

    #[test]
    fn bandwidth_starved_loop_is_memory_bound() {
        // 0.18 flops/byte against Power3's ~2.1 flops/byte balance,
        // pushing 80% of memory bandwidth: the LBMHD shape.
        let bytes: u64 = 8_000_000_000;
        let run = run_with(
            &[
                ("engine.loop.flops", bytes / 6),
                ("engine.loop.bytes", bytes),
            ],
            // 8 GB over 10 s = 0.8 GB/s ≈ 80% of Power3's 1 GB/s.
            10.0,
            0.0,
        );
        let d = classify(&run, &platforms::power3());
        assert_eq!(d.bottleneck, Bottleneck::MemoryBandwidthBound);
        assert!(d.membw_fraction > 0.5);
        assert!(d.intensity < d.balance);
    }

    #[test]
    fn high_intensity_defaults_to_compute_bound() {
        let run = run_with(
            &[
                ("engine.loop.flops", 64_000_000),
                ("engine.loop.bytes", 1_000_000),
            ],
            10.0,
            0.1,
        );
        let d = classify(&run, &platforms::power3());
        assert_eq!(d.bottleneck, Bottleneck::ComputeBound);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Bottleneck::ComputeBound.name(), "compute-bound");
        assert_eq!(Bottleneck::MemoryBandwidthBound.name(), "memory-bw-bound");
        assert_eq!(Bottleneck::BisectionBound.name(), "bisection-bound");
        assert_eq!(
            Bottleneck::ScalarSerializationBound.name(),
            "scalar-serialization"
        );
    }
}
