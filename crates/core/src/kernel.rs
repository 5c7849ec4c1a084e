//! Kernel registration: from phase IR to static kernel descriptors.
//!
//! The application crates describe their computation as [`Phase`] streams;
//! the engine lowers each loop phase to a `pvs-vectorsim` [`VectorLoop`]
//! before execution. This module owns that lowering
//! ([`vector_loop_from_phase`], shared with [`crate::engine::Engine`] so
//! the static and dynamic paths can never drift apart) and builds
//! [`KernelDescriptor`]s from phase streams so the root test
//! `tests/simulators.rs` can hold every registered kernel's static AVL/VOR
//! prediction to the dynamic execution model.

pub use pvs_vectorsim::descriptor::{KernelDescriptor, MachineKind, StaticPrediction};

use crate::phase::{LoopPhase, Phase};
use pvs_vectorsim::exec::{LoopClass, VectorLoop};

/// Lower a loop phase to the execution model's loop description — exactly
/// the mapping [`crate::engine::Engine`] applies before running a loop on
/// a vector machine. The `vector_op_overhead` multiplier models non-MADD
/// operation mixes and spill traffic by inflating the effective flop count
/// per iteration.
pub fn vector_loop_from_phase(l: &LoopPhase) -> VectorLoop {
    let class = if l.vector.vectorizable {
        LoopClass::Vectorizable {
            multistreamable: l.vector.multistreamable,
        }
    } else {
        LoopClass::Scalar
    };
    let overhead = l.vector.vector_op_overhead.max(1.0);
    VectorLoop {
        trips: l.trips,
        outer_iters: l.outer_iters,
        flops_per_iter: l.flops_per_iter * overhead,
        bytes_per_iter: l.bytes_per_iter,
        live_vector_temps: l.vector.live_vector_temps,
        gather_fraction: l.vector.gather_fraction,
        class,
    }
}

/// Build a descriptor for one loop phase on one machine.
pub fn descriptor_from_phase(
    app: &'static str,
    source_hint: &'static str,
    machine: MachineKind,
    kernel: impl Into<String>,
    l: &LoopPhase,
) -> KernelDescriptor {
    KernelDescriptor {
        app,
        kernel: kernel.into(),
        machine,
        source_hint,
        vloop: vector_loop_from_phase(l),
    }
}

/// Build descriptors for every loop phase in a stream (communication
/// phases have no kernel body and are skipped).
pub fn descriptors_from_phases(
    app: &'static str,
    source_hint: &'static str,
    machine: MachineKind,
    phases: &[Phase],
) -> Vec<KernelDescriptor> {
    phases
        .iter()
        .filter_map(|p| match p {
            Phase::Loop(l) => Some(descriptor_from_phase(
                app,
                source_hint,
                machine,
                l.name.to_string(),
                l,
            )),
            Phase::Comm(_) => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::VectorizationInfo;

    #[test]
    fn lowering_applies_overhead_and_class() {
        let mut v = VectorizationInfo::full();
        v.vector_op_overhead = 2.0;
        v.live_vector_temps = 90;
        let p = Phase::loop_nest("k", 100, 10)
            .flops_per_iter(8.0)
            .bytes_per_iter(64.0)
            .vector(v);
        let Phase::Loop(l) = &p else { unreachable!() };
        let vl = vector_loop_from_phase(l);
        assert_eq!(vl.flops_per_iter, 16.0);
        assert_eq!(vl.live_vector_temps, 90);
        assert!(matches!(
            vl.class,
            LoopClass::Vectorizable {
                multistreamable: true
            }
        ));

        let sp = Phase::loop_nest("s", 100, 10).vector(VectorizationInfo::scalar());
        let Phase::Loop(sl) = &sp else { unreachable!() };
        assert!(matches!(
            vector_loop_from_phase(sl).class,
            LoopClass::Scalar
        ));
    }

    #[test]
    fn comm_phases_are_skipped() {
        use crate::phase::CommPattern;
        let phases = vec![
            Phase::loop_nest("a", 64, 1),
            Phase::comm("halo", CommPattern::AllReduce { ranks: 4, bytes: 8 }),
            Phase::loop_nest("b", 64, 1),
        ];
        let ds = descriptors_from_phases("test", "here", MachineKind::Es, &phases);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[0].kernel, "a");
        assert_eq!(ds[1].kernel, "b");
        assert_eq!(ds[0].machine, MachineKind::Es);
    }
}
