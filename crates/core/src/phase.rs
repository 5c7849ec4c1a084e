//! The phase IR: a machine-independent description of application behaviour.
//!
//! Applications are expressed as a stream of phases — loop nests (with
//! operation counts, access patterns, and vectorization facts) and
//! communication events. The application crates build these streams from
//! their instrumented real implementations; [`crate::engine::Engine`] then
//! maps a stream onto any [`crate::machine::Machine`].

use pvs_memsim::bandwidth::AccessPattern;
use std::borrow::Cow;

/// Vectorization facts about a loop nest, as a vectorizing compiler (plus
/// directives) would determine them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorizationInfo {
    /// The loop vectorizes (no unresolved dependences, no nested ifs, …).
    pub vectorizable: bool,
    /// On the X1, the compiler can also distribute iterations across the
    /// MSP's four SSPs.
    pub multistreamable: bool,
    /// For gather/scatter loops: number of distinct hot words per 4096
    /// accesses (small values concentrate on few banks — the GTC charge
    /// deposition pathology). `None` = no gather component.
    pub gather_hot_words: Option<usize>,
    /// Whether the `duplicate` pragma (array replication across banks) is
    /// applied to mitigate gather conflicts.
    pub duplicated: bool,
    /// Vector-instruction overhead multiplier (default 1.0): >1 for loop
    /// bodies whose operation mix is far from pure fused multiply-adds or
    /// that spill vector registers (the Cactus BSSN kernel's "large number
    /// of variables in the main loop").
    pub vector_op_overhead: f64,
    /// Superscalar instruction-level-parallelism efficiency (default 1.0):
    /// <1 for loop bodies limited by register spilling and dependence
    /// chains rather than by issue width.
    pub ilp_efficiency: f64,
    /// Live vector-register temporaries in the loop body (default 8; the
    /// hardware register file size decides whether they spill).
    pub live_vector_temps: usize,
    /// Fraction of vector instructions that are gather/scatter (default 0;
    /// they retire one element per cycle instead of one per pipe).
    pub gather_fraction: f64,
}

impl VectorizationInfo {
    /// Fully vectorized and multistreamed — the ideal case.
    pub fn full() -> Self {
        Self {
            vectorizable: true,
            multistreamable: true,
            gather_hot_words: None,
            duplicated: false,
            vector_op_overhead: 1.0,
            ilp_efficiency: 1.0,
            live_vector_temps: 8,
            gather_fraction: 0.0,
        }
    }

    /// Vectorized but not multistreamable (runs on one SSP of an X1 MSP).
    pub fn vector_only() -> Self {
        Self {
            multistreamable: false,
            ..Self::full()
        }
    }

    /// Not vectorizable at all: runs on the scalar unit.
    pub fn scalar() -> Self {
        Self {
            vectorizable: false,
            multistreamable: false,
            ..Self::full()
        }
    }
}

/// A communication event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CommPattern {
    /// 2D nearest-neighbour (plus optional diagonal) halo exchange over a
    /// `px × py` process grid.
    Halo2d {
        /// Process-grid extent in x.
        px: usize,
        /// Process-grid extent in y.
        py: usize,
        /// Bytes exchanged with each edge neighbour.
        bytes_edge: u64,
        /// Bytes exchanged with each corner neighbour (0 to disable).
        bytes_corner: u64,
    },
    /// 3D face halo exchange over a `px × py × pz` process grid (Cactus
    /// ghost zones).
    Halo3d {
        /// Process-grid extent in x.
        px: usize,
        /// Process-grid extent in y.
        py: usize,
        /// Process-grid extent in z.
        pz: usize,
        /// Bytes exchanged with each face neighbour.
        bytes_face: u64,
    },
    /// All-to-all personalized exchange (distributed transpose) over the
    /// first `ranks` processors.
    AllToAll {
        /// Participating ranks.
        ranks: usize,
        /// Bytes per ordered pair.
        bytes_per_pair: u64,
    },
    /// Recursive-doubling allreduce.
    AllReduce {
        /// Participating ranks.
        ranks: usize,
        /// Message size per round.
        bytes: u64,
    },
}

impl CommPattern {
    /// Bytes that cross a machine bisection during **one repetition** of
    /// the pattern, with ranks laid out in order and cut into two
    /// contiguous halves. This is the analytic load the paper's
    /// bytes/flop bisection column (Table 1) is weighed against: halo
    /// exchanges only send the straddling-pair traffic across the cut,
    /// while an all-to-all pushes a quarter of its total volume through
    /// it — which is why the FFT transposes, not the ghost-zone
    /// exchanges, expose a thin bisection.
    pub fn bisection_bytes(&self) -> u64 {
        match *self {
            CommPattern::Halo2d {
                px,
                py,
                bytes_edge,
                bytes_corner,
            } => {
                if px.max(py) < 2 {
                    return 0;
                }
                // Cut perpendicular to the longer grid axis: one line of
                // process pairs straddles it, each exchanging both ways.
                let cross = px.min(py) as u64;
                2 * cross * bytes_edge + 4 * cross.saturating_sub(1) * bytes_corner
            }
            CommPattern::Halo3d {
                px,
                py,
                pz,
                bytes_face,
            } => {
                if px.max(py).max(pz) < 2 {
                    return 0;
                }
                // Cut perpendicular to the longest axis: the straddling
                // face pairs tile the other two extents.
                let longest = px.max(py).max(pz) as u64;
                let cross = (px * py * pz) as u64 / longest;
                2 * cross * bytes_face
            }
            CommPattern::AllToAll {
                ranks,
                bytes_per_pair,
            } => {
                let h1 = (ranks / 2) as u64;
                let h2 = (ranks - ranks / 2) as u64;
                // Every ordered pair with endpoints in opposite halves.
                2 * h1 * h2 * bytes_per_pair
            }
            CommPattern::AllReduce { ranks, bytes } => {
                if ranks < 2 {
                    return 0;
                }
                // One message per rank: the crossing of the recursive-
                // doubling round at stride ranks/2 when ranks is a power
                // of two. Elsewhere no round has that stride: at 12 the
                // widest crossing round (stride 8) sends 8 messages, not
                // 12. The count is a `BENCH_*.json` axis, so it stays
                // until ROADMAP item 5 step 2 gives the model the fold-in
                // allreduce.
                ranks as u64 * bytes
            }
        }
    }
}

/// One phase of an application run.
#[derive(Debug, Clone)]
pub enum Phase {
    /// A computational loop nest.
    Loop(LoopPhase),
    /// A communication event.
    Comm(CommPhase),
}

/// A computational loop nest (see [`Phase::loop_nest`] for construction).
#[derive(Debug, Clone)]
pub struct LoopPhase {
    /// Diagnostic name ("collision", "ADM_BSSN_Sources", …).
    pub name: Cow<'static, str>,
    /// Innermost (vectorized) trip count.
    pub trips: usize,
    /// Product of enclosing loop trip counts.
    pub outer_iters: usize,
    /// Flops per innermost iteration.
    pub flops_per_iter: f64,
    /// Bytes moved per innermost iteration.
    pub bytes_per_iter: f64,
    /// Memory access pattern.
    pub pattern: AccessPattern,
    /// Per-processor working set in bytes (cache-capture analysis).
    pub working_set_bytes: usize,
    /// Vectorization facts.
    pub vector: VectorizationInfo,
    /// Whether this phase's flops count toward the reported baseline.
    /// Overhead work (work-vector zeroing/reduction, spill traffic) costs
    /// time but is not part of the paper's "valid baseline flop-count".
    pub counts_flops: bool,
}

/// A communication phase (see [`Phase::comm`]).
#[derive(Debug, Clone)]
pub struct CommPhase {
    /// Diagnostic name.
    pub name: Cow<'static, str>,
    /// The pattern.
    pub pattern: CommPattern,
    /// One-sided (CAF/SHMEM) semantics: lower latency, no intermediate
    /// message copies.
    pub one_sided: bool,
    /// How many times this event repeats (e.g. once per time step).
    pub repetitions: usize,
}

impl Phase {
    /// Start building a loop-nest phase with `trips` inner iterations
    /// executed `outer_iters` times.
    pub fn loop_nest(name: impl Into<Cow<'static, str>>, trips: usize, outer_iters: usize) -> Self {
        Phase::Loop(LoopPhase {
            name: name.into(),
            trips,
            outer_iters,
            flops_per_iter: 1.0,
            bytes_per_iter: 8.0,
            pattern: AccessPattern::UnitStride,
            working_set_bytes: usize::MAX / 2, // assume streaming unless told
            vector: VectorizationInfo::full(),
            counts_flops: true,
        })
    }

    /// Build a communication phase.
    pub fn comm(name: impl Into<Cow<'static, str>>, pattern: CommPattern) -> Self {
        Phase::Comm(CommPhase {
            name: name.into(),
            pattern,
            one_sided: false,
            repetitions: 1,
        })
    }

    /// Set flops per inner iteration (loop phases only).
    pub fn flops_per_iter(mut self, f: f64) -> Self {
        self.as_loop_mut().flops_per_iter = f;
        self
    }

    /// Set bytes per inner iteration (loop phases only).
    pub fn bytes_per_iter(mut self, b: f64) -> Self {
        self.as_loop_mut().bytes_per_iter = b;
        self
    }

    /// Set the access pattern (loop phases only).
    pub fn pattern(mut self, p: AccessPattern) -> Self {
        self.as_loop_mut().pattern = p;
        self
    }

    /// Set the per-processor working set (loop phases only).
    pub fn working_set(mut self, bytes: usize) -> Self {
        self.as_loop_mut().working_set_bytes = bytes;
        self
    }

    /// Set vectorization facts (loop phases only).
    pub fn vector(mut self, v: VectorizationInfo) -> Self {
        self.as_loop_mut().vector = v;
        self
    }

    /// Mark this loop as overhead: it costs time but its operations do not
    /// count toward the baseline flop count (loop phases only).
    pub fn overhead(mut self) -> Self {
        self.as_loop_mut().counts_flops = false;
        self
    }

    /// Use one-sided (CAF) communication semantics (comm phases only).
    pub fn one_sided(mut self, enabled: bool) -> Self {
        match &mut self {
            Phase::Comm(c) => c.one_sided = enabled,
            Phase::Loop(_) => panic!("one_sided applies to comm phases"),
        }
        self
    }

    /// Repeat a comm phase `n` times (comm phases only).
    pub fn repetitions(mut self, n: usize) -> Self {
        match &mut self {
            Phase::Comm(c) => c.repetitions = n,
            Phase::Loop(_) => panic!("repetitions applies to comm phases"),
        }
        self
    }

    /// Total flops executed in this phase (0 for comm).
    pub fn total_flops(&self) -> f64 {
        match self {
            Phase::Loop(l) => l.flops_per_iter * l.trips as f64 * l.outer_iters as f64,
            Phase::Comm(_) => 0.0,
        }
    }

    /// Flops counting toward the reported baseline (0 for comm/overhead).
    pub fn counted_flops(&self) -> f64 {
        match self {
            Phase::Loop(l) if l.counts_flops => self.total_flops(),
            _ => 0.0,
        }
    }

    /// Phase name.
    pub fn name(&self) -> &str {
        match self {
            Phase::Loop(l) => &l.name,
            Phase::Comm(c) => &c.name,
        }
    }

    fn as_loop_mut(&mut self) -> &mut LoopPhase {
        match self {
            Phase::Loop(l) => l,
            Phase::Comm(_) => panic!("builder method applies to loop phases"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let p = Phase::loop_nest("k", 100, 10)
            .flops_per_iter(5.0)
            .bytes_per_iter(40.0)
            .working_set(1 << 20)
            .vector(VectorizationInfo::scalar());
        match p {
            Phase::Loop(l) => {
                assert_eq!(l.trips, 100);
                assert_eq!(l.outer_iters, 10);
                assert_eq!(l.flops_per_iter, 5.0);
                assert_eq!(l.working_set_bytes, 1 << 20);
                assert!(!l.vector.vectorizable);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn total_flops() {
        let p = Phase::loop_nest("k", 100, 10).flops_per_iter(5.0);
        assert_eq!(p.total_flops(), 5000.0);
        let c = Phase::comm("halo", CommPattern::AllReduce { ranks: 4, bytes: 8 });
        assert_eq!(c.total_flops(), 0.0);
    }

    #[test]
    #[should_panic]
    fn loop_builder_on_comm_panics() {
        let _ =
            Phase::comm("halo", CommPattern::AllReduce { ranks: 4, bytes: 8 }).flops_per_iter(1.0);
    }

    #[test]
    fn vectorization_presets() {
        assert!(VectorizationInfo::full().multistreamable);
        assert!(!VectorizationInfo::vector_only().multistreamable);
        assert!(VectorizationInfo::vector_only().vectorizable);
        assert!(!VectorizationInfo::scalar().vectorizable);
    }
}
