//! The Table 3 workload: LBMHD's phase stream for the performance engine.
//!
//! Operation counts come from the implementation in this crate
//! ([`crate::collision::COLLISION_FLOPS_PER_SITE`], the interpolation
//! weights in [`crate::stream`]) and the halo payloads from the distributed
//! solver's actual strip sizes ([`crate::parallel::SITE_VALUES`]). Memory
//! traffic per site includes the padded temporary arrays the ES port
//! introduced (§3.1), which is what pushes the measured computational
//! intensity down to the paper's "about 1.5 FP operations per data word of
//! access".

use crate::collision::COLLISION_FLOPS_PER_SITE;
use crate::parallel::SITE_VALUES;
use pvs_core::phase::{CommPattern, Phase, VectorizationInfo};
use pvs_core::schedule::Cart2d;
use pvs_memsim::bandwidth::AccessPattern;

/// Third-degree polynomial interpolation work in the stream step
/// (separable 4-point Lagrange on the four diagonal planes — §3's
/// "third degree polynomial evaluations").
pub const STREAM_INTERP_FLOPS_PER_SITE: f64 = 90.0;

/// Collision-phase memory traffic per site: 19 distribution values read +
/// written (304 B) plus the padded temporaries of the vector port
/// (≈2.5× the distribution traffic).
pub const COLLISION_BYTES_PER_SITE: f64 = 1100.0;

/// Stream-phase traffic per site: 17 moving planes read + written plus the
/// interpolation stencil re-reads.
pub const STREAM_BYTES_PER_SITE: f64 = 820.0;

/// One Table 3 configuration.
#[derive(Debug, Clone, Copy)]
pub struct LbmhdWorkload {
    /// Square grid edge (4096 or 8192 in the paper).
    pub grid: usize,
    /// Processor count (restricted to perfect squares in the paper).
    pub procs: usize,
    /// Time steps modelled.
    pub steps: usize,
    /// Use the CAF one-sided exchange (X1 CAF column).
    pub caf: bool,
}

impl LbmhdWorkload {
    /// A workload in the paper's configuration space.
    pub fn new(grid: usize, procs: usize) -> Self {
        Self {
            grid,
            procs,
            steps: 100,
            caf: false,
        }
    }

    /// Enable CAF-style exchanges.
    pub fn with_caf(mut self) -> Self {
        self.caf = true;
        self
    }

    /// The 2D process grid (squared-integer processor counts).
    pub fn process_grid(&self) -> Cart2d {
        Cart2d::near_square(self.procs)
    }

    /// Local subdomain sites per processor.
    pub fn sites_per_proc(&self) -> usize {
        self.grid * self.grid / self.procs
    }

    /// Total memory footprint in bytes (the paper: 7.5 GB at 4096²,
    /// 30 GB at 8192²): double-buffered distributions plus the padded
    /// temporary arrays of the vector port ≈ 56 doubles/site.
    pub fn memory_bytes(&self) -> u64 {
        (self.grid * self.grid) as u64 * (2 * SITE_VALUES as u64 + 18) * 8
    }

    /// The per-processor phase stream for one run.
    pub fn phases(&self) -> Vec<Phase> {
        let cart = self.process_grid();
        let sites = self.sites_per_proc();
        let nx_local = self.grid / cart.px;
        let ny_local = self.grid / cart.py;
        // The ES port took the grid-point loop inside the streaming loops
        // and vectorized it over the full subdomain (§3.1), so trip counts
        // are the collapsed site count.
        let working_set = sites * (2 * SITE_VALUES + 18) * 8;

        let collision = Phase::loop_nest("collision", sites, self.steps)
            .flops_per_iter(COLLISION_FLOPS_PER_SITE)
            .bytes_per_iter(COLLISION_BYTES_PER_SITE)
            .pattern(AccessPattern::UnitStride)
            .working_set(working_set)
            .vector(VectorizationInfo::full());

        let stream = Phase::loop_nest("stream", sites, self.steps)
            .flops_per_iter(STREAM_INTERP_FLOPS_PER_SITE)
            .bytes_per_iter(STREAM_BYTES_PER_SITE)
            .pattern(AccessPattern::Strided {
                stride_elems: 2,
                elem_bytes: 8,
            })
            .working_set(working_set)
            .vector(VectorizationInfo::full());

        // Halo strips: SITE_VALUES doubles per boundary cell, exchanged
        // with 4 edge + 4 corner neighbours every step.
        let bytes_edge = (ny_local.max(nx_local) * SITE_VALUES * 8) as u64;
        let bytes_corner = (SITE_VALUES * 8) as u64;
        let exchange = Phase::comm(
            "exchange",
            CommPattern::Halo2d {
                px: cart.px,
                py: cart.py,
                bytes_edge,
                bytes_corner,
            },
        )
        .one_sided(self.caf)
        .repetitions(self.steps);

        vec![collision, stream, exchange]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvs_core::engine::Engine;
    use pvs_core::platforms;

    fn run(machine: pvs_core::machine::Machine, w: &LbmhdWorkload) -> pvs_core::report::PerfReport {
        Engine::new(machine).run(&w.phases(), w.procs)
    }

    #[test]
    fn memory_footprint_matches_paper() {
        // Paper: 7.5 GB at 4096², 30 GB at 8192².
        let small = LbmhdWorkload::new(4096, 64).memory_bytes() as f64 / 1e9;
        let large = LbmhdWorkload::new(8192, 64).memory_bytes() as f64 / 1e9;
        assert!((6.0..9.0).contains(&small), "4096²: {small} GB");
        assert!((24.0..36.0).contains(&large), "8192²: {large} GB");
    }

    #[test]
    fn intensity_is_low() {
        // "about 1.5 FP operations per data word of access".
        let flops = COLLISION_FLOPS_PER_SITE + STREAM_INTERP_FLOPS_PER_SITE;
        let words = (COLLISION_BYTES_PER_SITE + STREAM_BYTES_PER_SITE) / 8.0;
        let intensity = flops / words;
        assert!((1.0..2.0).contains(&intensity), "{intensity} flops/word");
    }

    #[test]
    fn es_wins_and_sustains_more_than_half_peak() {
        let w = LbmhdWorkload::new(4096, 64);
        let es = run(platforms::earth_simulator(), &w);
        assert!(
            (45.0..70.0).contains(&es.pct_peak),
            "ES %peak {} (paper: 54-58%)",
            es.pct_peak
        );
    }

    #[test]
    fn vector_speedups_match_paper_factors() {
        // Paper (P=64): ES ≈ 44x Power3, 16x Power4, 7x Altix.
        let w = LbmhdWorkload::new(4096, 64);
        let es = run(platforms::earth_simulator(), &w).gflops_per_p;
        let p3 = run(platforms::power3(), &w).gflops_per_p;
        let p4 = run(platforms::power4(), &w).gflops_per_p;
        let altix = run(platforms::altix(), &w).gflops_per_p;
        assert!((20.0..70.0).contains(&(es / p3)), "ES/Power3 {}", es / p3);
        assert!((8.0..30.0).contains(&(es / p4)), "ES/Power4 {}", es / p4);
        assert!(
            (4.0..14.0).contains(&(es / altix)),
            "ES/Altix {}",
            es / altix
        );
    }

    #[test]
    fn x1_raw_close_to_es_but_lower_fraction() {
        let w = LbmhdWorkload::new(4096, 64);
        let es = run(platforms::earth_simulator(), &w);
        let x1 = run(platforms::x1(), &w);
        let raw_ratio = x1.gflops_per_p / es.gflops_per_p;
        assert!((0.7..1.2).contains(&raw_ratio), "X1/ES raw {raw_ratio}");
        assert!(
            x1.pct_peak < 0.75 * es.pct_peak,
            "X1 %peak {} must trail ES {}",
            x1.pct_peak,
            es.pct_peak
        );
    }

    #[test]
    fn avl_near_maximum() {
        let w = LbmhdWorkload::new(4096, 64);
        let es = run(platforms::earth_simulator(), &w);
        let x1 = run(platforms::x1(), &w);
        assert!(es.avl().expect("vector") > 250.0);
        assert!(x1.avl().expect("vector") > 60.0);
        assert!(es.vor_pct().expect("vector") > 99.0);
    }

    #[test]
    fn caf_at_least_matches_mpi_on_x1() {
        let mpi = LbmhdWorkload::new(8192, 256);
        let caf = LbmhdWorkload::new(8192, 256).with_caf();
        let x1 = platforms::x1();
        let caf_machine = platforms::x1_caf();
        let t_mpi = Engine::new(x1).run(&mpi.phases(), 256);
        let t_caf = Engine::new(caf_machine).run(&caf.phases(), 256);
        assert!(
            t_caf.gflops_per_p >= t_mpi.gflops_per_p,
            "CAF {} vs MPI {}",
            t_caf.gflops_per_p,
            t_mpi.gflops_per_p
        );
    }

    #[test]
    fn scaling_declines_at_high_concurrency() {
        let es = platforms::earth_simulator();
        let lo = run(es.clone(), &LbmhdWorkload::new(4096, 16));
        let hi = run(es, &LbmhdWorkload::new(4096, 256));
        assert!(
            hi.gflops_per_p <= lo.gflops_per_p,
            "per-P performance must not rise with P: {} -> {}",
            lo.gflops_per_p,
            hi.gflops_per_p
        );
    }
}
