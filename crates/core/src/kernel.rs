//! Kernel lowering: from a loop phase to the vector execution model.
//!
//! The application crates describe their computation as
//! [`Phase`](crate::phase::Phase) streams; the engine lowers each loop
//! phase to a `pvs-vectorsim` [`VectorLoop`] before running it on a vector
//! machine. [`vector_loop_from_phase`] is that lowering, shared by
//! [`crate::engine::Engine`] and the root test `tests/simulators.rs`, which
//! walks the cell registry's ES and X1 cells and holds each lowered loop's
//! closed-form AVL/VOR to its dynamic run.

use crate::phase::LoopPhase;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::{Phase, VectorizationInfo};

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
}
