//! Static kernel descriptors: the "compiler listing" view of a loop nest.
//!
//! On the Earth Simulator and the Cray X1, the paper's per-kernel analysis
//! started from *statically knowable* properties — the vectorization
//! diagnostics and operation counts the compilers' listing files exposed —
//! and cross-checked them against the hardware counters (`ftrace`, `pat`)
//! after a run. A [`KernelDescriptor`] is this reproduction's listing-file
//! entry: enough static information about one registered kernel on one
//! machine to predict computational intensity, AVL, and VOR *without
//! executing anything* ([`KernelDescriptor::static_prediction`]), plus the
//! hook to run the same loop through the dynamic pipeline model
//! ([`KernelDescriptor::dynamic_metrics`]) so the root test
//! `tests/simulators.rs` can fail on any descriptor whose static story
//! diverges from what the simulated hardware counters report.
//!
//! The two predictions are *independently derived*: the static side uses
//! only the closed-form strip-mining arithmetic in [`crate::stripmine`],
//! while the dynamic side goes through the full instruction-accounting
//! model in [`crate::exec`]. Agreement is therefore a real invariant, not a
//! tautology — a change to either derivation that breaks the relationship
//! fails that test.

use crate::config::{es_processor, x1_msp, VectorUnitConfig};
use crate::exec::{ExecResult, LoopClass, MemoryEnv, VectorLoop, VectorUnit};
use crate::metrics::VectorMetrics;
use crate::stripmine::average_vector_length;

/// The vector machine a descriptor is registered for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineKind {
    /// NEC Earth Simulator processor (VL 256, 8 pipes, one stream).
    Es,
    /// Cray X1 multi-streaming processor (VL 64, 4 ganged SSPs).
    X1Msp,
}

impl MachineKind {
    /// The machine's vector-unit configuration.
    pub fn unit(&self) -> VectorUnitConfig {
        match self {
            MachineKind::Es => es_processor(),
            MachineKind::X1Msp => x1_msp(),
        }
    }

    /// Short display name matching `pvs_core::platforms` machine names.
    pub fn name(&self) -> &'static str {
        match self {
            MachineKind::Es => "ES",
            MachineKind::X1Msp => "X1",
        }
    }

    /// Clean sustained memory bandwidth in bytes per core cycle (ES:
    /// 32 GB/s at 500 MHz; X1 MSP: 34.1 GB/s at 800 MHz), used for the
    /// dynamic cross-check run. AVL and VOR are pure operation-count
    /// ratios, so the exact bandwidth does not affect the comparison.
    pub fn bytes_per_cycle(&self) -> f64 {
        match self {
            MachineKind::Es => 64.0,
            MachineKind::X1Msp => 42.6,
        }
    }
}

/// One registered kernel: a loop nest bound to the machine whose port it
/// describes, with a stable provenance trail for diagnostics.
#[derive(Debug, Clone)]
pub struct KernelDescriptor {
    /// Application the kernel belongs to ("lbmhd", "gtc", …).
    pub app: &'static str,
    /// Kernel name as reported in tables ("collision", "gather_push", …).
    pub kernel: String,
    /// Machine whose port this descriptor models.
    pub machine: MachineKind,
    /// Repo-relative file that registered the descriptor (diagnostic span).
    pub source_hint: &'static str,
    /// The loop nest, in the execution model's own terms.
    pub vloop: VectorLoop,
}

/// What the static analysis predicts for a kernel, before any execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticPrediction {
    /// Computational intensity in flops per byte of memory traffic.
    pub intensity: f64,
    /// Predicted average vector length (0 for a scalar kernel).
    pub avl: f64,
    /// Predicted vector operation ratio in `[0, 1]`.
    pub vor: f64,
}

impl KernelDescriptor {
    /// Predict intensity, AVL, and VOR from the descriptor alone, using
    /// only strip-mining arithmetic — the paper's "listing file" numbers.
    ///
    /// A vectorized loop of `n` trips on a unit with `s` streams and
    /// maximum vector length `VL` issues `ceil(n/s) / VL`-strip
    /// instructions per stream, so its AVL is the average strip length of
    /// `ceil(n/s)` iterations; every operation it retires is a vector
    /// element operation, so VOR is 1. A scalar loop issues no vector
    /// instructions at all: AVL 0, VOR 0.
    pub fn static_prediction(&self) -> StaticPrediction {
        let unit = self.machine.unit();
        let intensity = self.vloop.intensity();
        match self.vloop.class {
            LoopClass::Scalar => StaticPrediction {
                intensity,
                avl: 0.0,
                vor: 0.0,
            },
            LoopClass::Vectorizable { multistreamable } => {
                let streams = if multistreamable { unit.ssp_count } else { 1 };
                let trips_per_stream = self.vloop.trips.div_ceil(streams.max(1));
                StaticPrediction {
                    intensity,
                    avl: average_vector_length(trips_per_stream, unit.max_vl),
                    vor: 1.0,
                }
            }
        }
    }

    /// Execute the kernel through the dynamic pipeline model on its
    /// machine (clean memory) and return the full result.
    pub fn execute(&self) -> ExecResult {
        let unit = VectorUnit::new(self.machine.unit());
        unit.execute(
            &self.vloop,
            &MemoryEnv::clean(self.machine.bytes_per_cycle()),
        )
    }

    /// The simulated hardware counters for a dynamic run of this kernel —
    /// what `ftrace`/`pat` would report.
    pub fn dynamic_metrics(&self) -> VectorMetrics {
        self.execute().metrics
    }
}

/// The synthetic microkernels `pvs-vectorsim` itself registers: the
/// limiting cases the paper's §2 architecture discussion is built on,
/// useful as always-present calibration rows for the agreement test.
pub fn reference_descriptors() -> Vec<KernelDescriptor> {
    const HERE: &str = "crates/vectorsim/src/descriptor.rs";
    let compute_bound = |trips: usize| VectorLoop {
        trips,
        outer_iters: 100,
        flops_per_iter: 64.0,
        bytes_per_iter: 16.0,
        gather_fraction: 0.0,
        live_vector_temps: 8,
        class: LoopClass::Vectorizable {
            multistreamable: true,
        },
    };
    let mut out = Vec::new();
    for machine in [MachineKind::Es, MachineKind::X1Msp] {
        out.push(KernelDescriptor {
            app: "vectorsim",
            kernel: "compute_bound_long".to_string(),
            machine,
            source_hint: HERE,
            vloop: compute_bound(4096),
        });
        out.push(KernelDescriptor {
            app: "vectorsim",
            kernel: "stream_bound".to_string(),
            machine,
            source_hint: HERE,
            vloop: VectorLoop {
                flops_per_iter: 12.0,
                bytes_per_iter: 64.0,
                ..compute_bound(4096)
            },
        });
        out.push(KernelDescriptor {
            app: "vectorsim",
            kernel: "serialized".to_string(),
            machine,
            source_hint: HERE,
            vloop: VectorLoop {
                class: LoopClass::Scalar,
                ..compute_bound(4096)
            },
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn es_long_loop_predicts_full_strips() {
        let d = &reference_descriptors()[0];
        assert_eq!(d.machine, MachineKind::Es);
        let s = d.static_prediction();
        assert_eq!(s.avl, 256.0);
        assert_eq!(s.vor, 1.0);
        assert!((s.intensity - 4.0).abs() < 1e-12);
    }

    #[test]
    fn scalar_kernel_predicts_zero_avl_and_vor() {
        let d = reference_descriptors()
            .into_iter()
            .find(|d| d.kernel == "serialized")
            .expect("registered");
        let s = d.static_prediction();
        assert_eq!(s.avl, 0.0);
        assert_eq!(s.vor, 0.0);
    }

    #[test]
    fn multistreaming_divides_x1_trip_count() {
        // 4096 trips over 4 SSPs: 1024 each, VL 64 ⇒ AVL exactly 64.
        let d = reference_descriptors()
            .into_iter()
            .find(|d| d.machine == MachineKind::X1Msp && d.kernel == "compute_bound_long")
            .expect("registered");
        assert_eq!(d.static_prediction().avl, 64.0);
    }
}
