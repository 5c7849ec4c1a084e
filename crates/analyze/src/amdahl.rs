//! Amdahl decomposition of vector-machine cells.
//!
//! The paper's central serialization argument (§4–§6): a loop that the
//! compiler cannot vectorize runs on the scalar unit at `1/R` of vector
//! peak — R = 8 on the ES, R = 32 on an X1 MSP — so even a small scalar
//! work fraction dominates runtime. This module turns a run's
//! [`VectorMetrics`](pvs_vectorsim::VectorMetrics) — the same numbers the
//! engine flushes as its `vectorsim.*` counters — into time fractions and
//! closed-form bounds:
//!
//! * with vector-operation ratio `VOR` (fraction of element operations
//!   executed vector-side) and penalty `R`, the time split of the loop
//!   work is `VOR : (1-VOR)·R` (vector : scalar);
//! * making the remaining vector work scalar too would slow the loop by
//!   `R / (VOR + (1-VOR)·R)` — the closed-form unvectorized-slowdown
//!   bound the engine's scalar-variant runs are checked against.

use pvs_core::machine::{CpuClass, Machine};
use pvs_core::report::PerfReport;

/// Closed-form slowdown of running everything on the scalar unit,
/// relative to the current mix: `R / (VOR + (1-VOR)·R)`. Equals `R` at
/// `VOR = 1` (fully vectorized code has everything to lose) and `1` at
/// `VOR = 0` (already serialized).
pub fn closed_form_slowdown(vor: f64, penalty: f64) -> f64 {
    let vor = vor.clamp(0.0, 1.0);
    penalty / (vor + (1.0 - vor) * penalty)
}

/// The Amdahl view of one vector-machine cell.
#[derive(Debug, Clone, PartialEq)]
pub struct AmdahlDecomposition {
    /// Vector-operation ratio in `[0, 1]`.
    pub vor: f64,
    /// Average vector length.
    pub avl: f64,
    /// Serialization penalty `R` of the machine (8 ES, 32 X1 MSP).
    pub penalty: f64,
    /// Fraction of loop compute time spent in vectorized work.
    pub vector_time_fraction: f64,
    /// Fraction of loop compute time serialized onto the scalar unit —
    /// `(1-VOR)·R / (VOR + (1-VOR)·R)`.
    pub scalar_time_fraction: f64,
    /// Closed-form slowdown if the remaining vector work were scalar.
    pub predicted_unvectorized_slowdown: f64,
}

impl AmdahlDecomposition {
    /// The scalar share of *total* runtime, given the cell's
    /// communication fraction (scalar serialization only affects loop
    /// phases).
    pub fn scalar_share_of_runtime(&self, comm_fraction: f64) -> f64 {
        self.scalar_time_fraction * (1.0 - comm_fraction.clamp(0.0, 1.0))
    }
}

/// Serialization penalty of a machine's CPU, if it is a vector CPU.
pub fn serialization_penalty(machine: &Machine) -> Option<f64> {
    match &machine.cpu {
        CpuClass::Vector { unit, .. } => Some(unit.serialization_penalty()),
        CpuClass::Superscalar { .. } => None,
    }
}

/// Decompose a run. `None` on superscalar machines (no scalar/vector
/// split exists) and when the report carries no vector metrics.
pub fn decompose(report: &PerfReport, machine: &Machine) -> Option<AmdahlDecomposition> {
    let penalty = serialization_penalty(machine)?;
    let metrics = report.vector_metrics?;
    let vor = metrics.vor();
    let scalar_weight = (1.0 - vor) * penalty;
    let total = vor + scalar_weight;
    Some(AmdahlDecomposition {
        vor,
        avl: metrics.avl(),
        penalty,
        vector_time_fraction: vor / total,
        scalar_time_fraction: scalar_weight / total,
        predicted_unvectorized_slowdown: closed_form_slowdown(vor, penalty),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvs_core::engine::Engine;
    use pvs_core::phase::{Phase, VectorizationInfo};
    use pvs_core::platforms;
    use pvs_vectorsim::VectorMetrics;

    #[test]
    fn closed_form_endpoints() {
        assert!((closed_form_slowdown(1.0, 8.0) - 8.0).abs() < 1e-12);
        assert!((closed_form_slowdown(0.0, 8.0) - 1.0).abs() < 1e-12);
        assert!((closed_form_slowdown(1.0, 32.0) - 32.0).abs() < 1e-12);
        // 10% scalar work on the ES already halves throughput and worse:
        // slowdown left is 8 / (0.9 + 0.1*8) = 4.7x.
        assert!((closed_form_slowdown(0.9, 8.0) - 8.0 / 1.7).abs() < 1e-12);
    }

    /// A report carrying only `vector_metrics`.
    fn report(vector_metrics: Option<VectorMetrics>) -> PerfReport {
        PerfReport {
            machine: String::new(),
            procs: 1,
            time_s: 0.0,
            comm_s: 0.0,
            flops_per_p: 0.0,
            gflops_per_p: 0.0,
            pct_peak: 0.0,
            vector_metrics,
            phases: Vec::new(),
        }
    }

    #[test]
    fn time_fractions_follow_the_vor_penalty_split() {
        let metrics = VectorMetrics {
            vector_element_ops: 9000,
            vector_instructions: 40,
            scalar_ops: 1000,
        };
        let es = platforms::earth_simulator();
        let d = decompose(&report(Some(metrics)), &es).unwrap();
        assert!((d.vor - 0.9).abs() < 1e-12);
        assert!((d.avl - 225.0).abs() < 1e-12);
        assert_eq!(d.penalty, 8.0);
        // 90% of ops vector-side, but the 10% scalar tail takes
        // 0.1*8 / (0.9 + 0.1*8) = 47% of the loop time.
        assert!((d.scalar_time_fraction - 0.8 / 1.7).abs() < 1e-12);
        assert!((d.vector_time_fraction + d.scalar_time_fraction - 1.0).abs() < 1e-12);
        // Communication dilutes the scalar share of total runtime.
        assert!(d.scalar_share_of_runtime(0.5) < d.scalar_time_fraction);
    }

    #[test]
    fn superscalar_machines_have_no_decomposition() {
        let metrics = Some(VectorMetrics::default());
        assert!(decompose(&report(metrics), &platforms::power3()).is_none());
        assert!(serialization_penalty(&platforms::power3()).is_none());
        assert_eq!(serialization_penalty(&platforms::x1()), Some(32.0));
        // No vector metrics on a vector machine: nothing to attribute.
        assert!(decompose(&report(None), &platforms::earth_simulator()).is_none());
    }

    /// The acceptance check behind the closed form: running a
    /// compute-bound loop's unvectorized variant through the actual
    /// engine must slow it down by ≈ the closed-form bound at the
    /// machine's *effective* penalty, and by at least the nominal bound
    /// (the scalar unit loses more of its peak than the vector unit
    /// loses to startup, so the ideal 8:1 / 32:1 is a floor).
    #[test]
    fn engine_slowdown_matches_closed_form_on_compute_bound_loops() {
        // High computational intensity keeps both variants off the
        // memory roofline, which is the closed form's regime; full-VL
        // strips (4096 trips) realize the full issue efficiency.
        let loop_of = |v: VectorizationInfo| {
            Phase::loop_nest("kernel", 4096, 200)
                .flops_per_iter(64.0)
                .bytes_per_iter(4.0)
                .vector(v)
        };
        for machine in [platforms::earth_simulator(), platforms::x1()] {
            let nominal = serialization_penalty(&machine).unwrap();
            // What the execution model actually produces: the nominal
            // ratio corrected for scalar-unit efficiency and vector startup.
            let CpuClass::Vector { unit, .. } = &machine.cpu else {
                unreachable!("{} is a vector machine", machine.name)
            };
            let effective = unit.effective_serialization_penalty();
            let engine = Engine::new(machine.clone());
            let vectorized = engine.run(&[loop_of(VectorizationInfo::full())], 4);
            let scalar = engine.run(&[loop_of(VectorizationInfo::scalar())], 4);
            let measured = scalar.time_s / vectorized.time_s;
            let vor = vectorized.vector_metrics.unwrap().vor();
            let bound = closed_form_slowdown(vor, effective);
            let disagreement = (measured - bound).abs() / bound;
            assert!(
                disagreement < 0.05,
                "{}: measured {measured:.2}x vs closed-form {bound:.2}x ({:.0}% off)",
                machine.name,
                100.0 * disagreement
            );
            assert!(
                measured >= closed_form_slowdown(vor, nominal),
                "{}: measured {measured:.2}x under the ideal {nominal}:1 floor",
                machine.name
            );
        }
    }
}
