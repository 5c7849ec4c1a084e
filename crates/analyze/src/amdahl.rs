//! Amdahl decomposition of vector-machine cells.
//!
//! The paper's central serialization argument (§4–§6): a loop that the
//! compiler cannot vectorize runs on the scalar unit at `1/R` of vector
//! peak — R = 8 on the ES, R = 32 on an X1 MSP — so even a small scalar
//! work fraction dominates runtime. This module turns the recorded
//! `vectorsim.*` counters into time fractions and closed-form bounds:
//!
//! * with vector-operation ratio `VOR` (fraction of element operations
//!   executed vector-side) and penalty `R`, the time split of the loop
//!   work is `VOR : (1-VOR)·R` (vector : scalar);
//! * making the remaining vector work scalar too would slow the loop by
//!   `R / (VOR + (1-VOR)·R)` — the closed-form unvectorized-slowdown
//!   bound the engine's scalar-variant runs are checked against.

use crate::profiledoc::ProfileCell;
use pvs_core::machine::{CpuClass, Machine};

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

/// Decompose a cell. `None` on superscalar machines (no scalar/vector
/// split exists) and when the cell carries neither `vectorsim.*`
/// counters nor model AVL/VOR (nothing to attribute).
pub fn decompose(cell: &ProfileCell, machine: &Machine) -> Option<AmdahlDecomposition> {
    let penalty = serialization_penalty(machine)?;
    let element_ops = cell.counter("vectorsim.element_ops") as f64;
    let scalar_ops = cell.counter("vectorsim.scalar_ops") as f64;
    let instructions = cell.counter("vectorsim.vector_instructions") as f64;
    let (vor, avl) = if element_ops + scalar_ops > 0.0 {
        (
            element_ops / (element_ops + scalar_ops),
            if instructions > 0.0 {
                element_ops / instructions
            } else {
                0.0
            },
        )
    } else {
        // No vector counters in the cell: fall back to the model
        // report's AVL/VOR.
        (
            cell.model.vor_pct? / 100.0,
            cell.model.avl.unwrap_or(0.0),
        )
    };
    let scalar_weight = (1.0 - vor) * penalty;
    let total = vor + scalar_weight;
    Some(AmdahlDecomposition {
        vor,
        avl,
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

    #[test]
    fn closed_form_endpoints() {
        assert!((closed_form_slowdown(1.0, 8.0) - 8.0).abs() < 1e-12);
        assert!((closed_form_slowdown(0.0, 8.0) - 1.0).abs() < 1e-12);
        assert!((closed_form_slowdown(1.0, 32.0) - 32.0).abs() < 1e-12);
        // 10% scalar work on the ES already halves throughput and worse:
        // slowdown left is 8 / (0.9 + 0.1*8) = 4.7x.
        assert!((closed_form_slowdown(0.9, 8.0) - 8.0 / 1.7).abs() < 1e-12);
    }

    #[test]
    fn time_fractions_follow_the_vor_penalty_split() {
        let mut cell = ProfileCell::default();
        cell.counters = vec![
            ("vectorsim.element_ops".into(), 9000),
            ("vectorsim.scalar_ops".into(), 1000),
            ("vectorsim.vector_instructions".into(), 40),
        ];
        let es = platforms::earth_simulator();
        let d = decompose(&cell, &es).unwrap();
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
        let cell = ProfileCell::default();
        assert!(decompose(&cell, &platforms::power3()).is_none());
        assert!(serialization_penalty(&platforms::power3()).is_none());
        assert_eq!(serialization_penalty(&platforms::x1()), Some(32.0));
    }

    #[test]
    fn falls_back_to_model_vor_when_counters_are_absent() {
        let mut cell = ProfileCell::default();
        cell.model.vor_pct = Some(95.0);
        cell.model.avl = Some(240.0);
        let d = decompose(&cell, &platforms::earth_simulator()).unwrap();
        assert!((d.vor - 0.95).abs() < 1e-12);
        assert!((d.avl - 240.0).abs() < 1e-12);
        // Neither counters nor model metrics: nothing to attribute.
        let empty = ProfileCell::default();
        assert!(decompose(&empty, &platforms::earth_simulator()).is_none());
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
