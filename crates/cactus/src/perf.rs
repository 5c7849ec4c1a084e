//! The Table 5 workload: Cactus's phase stream for the performance engine.
//!
//! Table 5 is weak scaling: each processor holds a fixed 80×80×80 or
//! 250×64×64 block. The per-point operation count is the linearized
//! system's measured [`crate::rhs::RHS_FLOPS_PER_POINT`] scaled by
//! [`BSSN_TERM_SCALE`] — the full ADM-BSSN right-hand side expands to
//! "thousands of terms" (§5), roughly 45× our twelve-field linearization —
//! so the stream carries production-Cactus operation counts while the
//! loop *structure* (one wide stencil sweep over 13 concurrent grid-
//! function streams, x innermost) matches the real code in this crate.

use crate::boundary::face_points;
use crate::grid::NFIELDS;
use crate::rhs::{CONCURRENT_STREAMS, RHS_FLOPS_PER_POINT};
use pvs_core::phase::{CommPattern, Phase, VectorizationInfo};
use pvs_core::schedule::Cart3d;
use pvs_memsim::bandwidth::AccessPattern;

/// Ratio of full ADM-BSSN RHS terms to our linearized twelve-field system.
pub const BSSN_TERM_SCALE: f64 = 45.0;

/// Flops per grid point per time step of the production solver (three ICN
/// iterations of the scaled RHS).
pub fn flops_per_point() -> f64 {
    3.0 * RHS_FLOPS_PER_POINT * BSSN_TERM_SCALE
}

/// Memory traffic per grid point per step: `NFIELDS` state fields read and
/// written per ICN iteration plus stencil-neighbour and temporary traffic.
pub const BYTES_PER_POINT: f64 = 3000.0;

/// Live vector temporaries of the BSSN source kernel — comfortably inside
/// the ES's 72 vector registers, far beyond the X1 SSP's 32 (the paper's
/// register-spilling discussion, §5.2).
pub const BSSN_LIVE_TEMPS: usize = 90;

/// Non-MADD operation mix overhead of the source kernel.
pub const BSSN_OP_OVERHEAD: f64 = 2.0;

/// ILP efficiency of the source kernel on superscalar cores ("relatively
/// low scalar performance … partially due to register spilling", §5.2).
pub const BSSN_ILP_EFFICIENCY: f64 = 0.25;

/// Which port of the application runs (the paper benchmarked different
/// code versions per machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CactusVariant {
    /// ES port: main loop vectorized, radiation boundaries **not**
    /// vectorized (the up-to-20%-of-runtime scalar hotspot).
    EarthSimulator,
    /// X1 port: hand-vectorized boundaries, but residual small routines
    /// still serialize (and pay the 32:1 MSP penalty).
    X1,
    /// Superscalar systems: cache-blocked via slice buffers; scalar code
    /// runs at native speed.
    Superscalar,
}

impl CactusVariant {
    /// The variant the paper ran on the named platform.
    pub fn for_machine(name: &str) -> Self {
        match name {
            "ES" => CactusVariant::EarthSimulator,
            "X1" | "X1-CAF" => CactusVariant::X1,
            _ => CactusVariant::Superscalar,
        }
    }
}

/// One Table 5 configuration (per-processor block, weak scaling).
#[derive(Debug, Clone, Copy)]
pub struct CactusWorkload {
    /// Per-processor block extent in x (the vectorized dimension).
    pub nx: usize,
    /// Per-processor block extent in y.
    pub ny: usize,
    /// Per-processor block extent in z.
    pub nz: usize,
    /// Processor count.
    pub procs: usize,
    /// Time steps modelled.
    pub steps: usize,
}

impl CactusWorkload {
    /// The small test case: 80³ per processor.
    pub fn small(procs: usize) -> Self {
        Self {
            nx: 80,
            ny: 80,
            nz: 80,
            procs,
            steps: 10,
        }
    }

    /// The large test case: 250×64×64 per processor (the odd shape the ES
    /// memory capacity forced, §5.2).
    pub fn large(procs: usize) -> Self {
        Self {
            nx: 250,
            ny: 64,
            nz: 64,
            procs,
            steps: 10,
        }
    }

    /// Points per processor.
    pub fn points(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// The phase stream for the given code variant.
    pub fn phases(&self, variant: CactusVariant) -> Vec<Phase> {
        let points = self.points();
        let outer = self.ny * self.nz * self.steps;
        // Whether the slice-buffer cache blocking applies (superscalar
        // only, and only effective on the cubic domain; §5.1 notes blocking
        // was disabled on the vector machines).
        let blocked_cube = variant == CactusVariant::Superscalar && self.nx == self.ny;
        let slice_bytes = (NFIELDS + 1) * self.nx * self.ny * 8;
        let (working_set, pattern) = if blocked_cube {
            (slice_bytes, AccessPattern::UnitStride)
        } else {
            (
                points * (NFIELDS + 1) * 8,
                AccessPattern::GhostZoneSweep {
                    interior_elems: self.nx,
                    elem_bytes: 8,
                    streams: CONCURRENT_STREAMS,
                },
            )
        };

        let mut main_vec = VectorizationInfo::full();
        main_vec.vector_op_overhead = BSSN_OP_OVERHEAD;
        main_vec.ilp_efficiency = BSSN_ILP_EFFICIENCY;
        main_vec.live_vector_temps = BSSN_LIVE_TEMPS;
        let main = Phase::loop_nest("ADM_BSSN_Sources", self.nx, outer)
            .flops_per_iter(flops_per_point())
            .bytes_per_iter(BYTES_PER_POINT)
            .pattern(pattern)
            .working_set(working_set)
            .vector(main_vec);

        // Radiation boundary enforcement on the six faces.
        let faces = face_points(self.nx, self.ny, self.nz);
        let bc_vec = match variant {
            CactusVariant::EarthSimulator => VectorizationInfo::scalar(),
            CactusVariant::X1 => {
                // Hand-coded vectorized boundaries (the port of §5.1).
                let mut v = VectorizationInfo::full();
                v.vector_op_overhead = BSSN_OP_OVERHEAD;
                v
            }
            CactusVariant::Superscalar => {
                let mut v = VectorizationInfo::full();
                v.ilp_efficiency = BSSN_ILP_EFFICIENCY;
                v
            }
        };
        let boundary =
            Phase::loop_nest("radiation_boundary", self.nx, faces / self.nx * self.steps)
                .flops_per_iter(flops_per_point() * 0.6)
                .bytes_per_iter(BYTES_PER_POINT * 0.6)
                .pattern(AccessPattern::UnitStride)
                .working_set(faces * NFIELDS * 8)
                .vector(bc_vec);

        // The residue of the profile (analysis thorns, gauge bookkeeping —
        // "the next most expensive routine … occupied only 4.5%"): scalar
        // on the vector machines.
        let other_vec = if variant == CactusVariant::Superscalar {
            let mut v = VectorizationInfo::full();
            v.ilp_efficiency = 0.5;
            v
        } else {
            VectorizationInfo::scalar()
        };
        let other = Phase::loop_nest("other_thorns", self.nx, outer)
            .flops_per_iter(flops_per_point() * 0.05)
            .bytes_per_iter(BYTES_PER_POINT * 0.05)
            .pattern(AccessPattern::UnitStride)
            .working_set(points * 2 * 8)
            .vector(other_vec);

        // Ghost-zone exchange: NFIELDS values per face point, every step.
        let cart = Cart3d::near_cubic(self.procs);
        let face_area = (self.nx * self.ny)
            .max(self.ny * self.nz)
            .max(self.nx * self.nz);
        let halo = Phase::comm(
            "ghost_exchange",
            CommPattern::Halo3d {
                px: cart.px,
                py: cart.py,
                pz: cart.pz,
                bytes_face: (face_area * NFIELDS * 8) as u64,
            },
        )
        .repetitions(self.steps * 3); // one per ICN iteration

        vec![main, boundary, other, halo]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvs_core::engine::Engine;
    use pvs_core::platforms;
    use pvs_core::report::PerfReport;

    fn run(machine: pvs_core::machine::Machine, w: &CactusWorkload) -> PerfReport {
        let variant = CactusVariant::for_machine(machine.name);
        Engine::new(machine).run(&w.phases(variant), w.procs)
    }

    #[test]
    fn es_large_case_more_efficient_than_small() {
        // Paper: 34% of peak on 250x64x64 vs 17-18% on 80³ (AVL 248 vs 92).
        let large = run(platforms::earth_simulator(), &CactusWorkload::large(16));
        let small = run(platforms::earth_simulator(), &CactusWorkload::small(16));
        assert!(
            large.pct_peak > 1.3 * small.pct_peak,
            "large {}% vs small {}%",
            large.pct_peak,
            small.pct_peak
        );
        assert!(
            (20.0..45.0).contains(&large.pct_peak),
            "ES large {}%",
            large.pct_peak
        );
        assert!(
            (10.0..25.0).contains(&small.pct_peak),
            "ES small {}%",
            small.pct_peak
        );
    }

    #[test]
    fn es_avl_tracks_x_dimension() {
        let large = run(platforms::earth_simulator(), &CactusWorkload::large(16));
        let small = run(platforms::earth_simulator(), &CactusWorkload::small(16));
        assert!(
            large.avl().expect("vector") > 200.0,
            "AVL {}",
            large.avl().unwrap()
        );
        assert!(small.avl().expect("vector") < 100.0);
    }

    #[test]
    fn x1_far_below_es() {
        // Paper: X1 3-6% of peak vs ES 17-35%.
        let es = run(platforms::earth_simulator(), &CactusWorkload::large(16));
        let x1 = run(platforms::x1(), &CactusWorkload::large(16));
        assert!(
            x1.pct_peak < 0.5 * es.pct_peak,
            "X1 {}% must be far below ES {}%",
            x1.pct_peak,
            es.pct_peak
        );
    }

    #[test]
    fn es_boundary_cost_is_significant_unvectorized() {
        // Paper: unvectorized radiation boundaries were up to 20% of ES
        // runtime vs <5% on superscalar.
        let es = run(platforms::earth_simulator(), &CactusWorkload::small(16));
        let p3 = run(platforms::power3(), &CactusWorkload::small(16));
        let es_bc = es.phase_fraction("radiation_boundary");
        let p3_bc = p3.phase_fraction("radiation_boundary");
        assert!(
            (0.08..0.35).contains(&es_bc),
            "ES boundary fraction {es_bc}"
        );
        assert!(p3_bc < 0.08, "Power3 boundary fraction {p3_bc}");
    }

    #[test]
    fn power3_collapses_on_large_case() {
        // Paper: 0.21-0.31 Gflops/P small vs 0.06-0.10 large (prefetch
        // streams disengaged by the 13-array ghost-zone sweep).
        let small = run(platforms::power3(), &CactusWorkload::small(16));
        let large = run(platforms::power3(), &CactusWorkload::large(16));
        assert!(
            large.gflops_per_p < 0.6 * small.gflops_per_p,
            "large {} must collapse vs small {}",
            large.gflops_per_p,
            small.gflops_per_p
        );
    }

    #[test]
    fn superscalar_ordering_small_case() {
        // Paper small case raw Gflops/P: Altix > Power4 > Power3.
        let p3 = run(platforms::power3(), &CactusWorkload::small(16)).gflops_per_p;
        let p4 = run(platforms::power4(), &CactusWorkload::small(16)).gflops_per_p;
        let altix = run(platforms::altix(), &CactusWorkload::small(16)).gflops_per_p;
        assert!(
            altix > p4 && p4 > p3,
            "Altix {altix}, Power4 {p4}, Power3 {p3}"
        );
    }

    #[test]
    fn weak_scaling_is_flat_on_es() {
        // Paper: ES sustains 2.7 Gflops/P from P=16 to P=1024.
        let lo = run(platforms::earth_simulator(), &CactusWorkload::large(16));
        let hi = run(platforms::earth_simulator(), &CactusWorkload::large(256));
        let drop = 1.0 - hi.gflops_per_p / lo.gflops_per_p;
        assert!(drop < 0.15, "weak scaling drop {drop}");
    }
}
