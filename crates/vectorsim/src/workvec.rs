//! Scatter-dependency analysis and the work-vector transformation.
//!
//! PIC charge deposition scatters particle contributions onto grid points;
//! two elements of one vector chunk may target the *same* grid point, so the
//! loop cannot be vectorized as-is. The paper's GTC port uses the
//! work-vector algorithm (Nishiguchi, Orii & Yabe 1985): give the target
//! array an extra dimension of the vector length so each vector lane writes
//! a private copy, then reduce. The price is a 2–8× memory footprint, which
//! in GTC prevented OpenMP loop-level parallelism on the ES (§6.1).

/// A potential memory dependency in a scatter loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScatterDependency {
    /// Can two iterations within one vector chunk write the same address?
    pub intra_chunk_conflicts: bool,
    /// Size in bytes of the scatter target array (the grid).
    pub target_bytes: usize,
    /// Bytes of non-replicated state per processor (particles etc.), used to
    /// report the whole-application memory multiplier.
    pub other_bytes: usize,
}

/// How a scatter loop is executed on a vector unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DepResolution {
    /// No conflicts: vectorize directly.
    Direct,
    /// Work-vector transform: replicate the target over `copies` lanes.
    WorkVector {
        /// Number of private copies (the effective vector length used).
        copies: usize,
        /// Total application memory footprint multiplier this causes.
        memory_multiplier: f64,
        /// Extra element-operations for the final reduction of the copies,
        /// per grid point.
        reduction_ops_per_point: usize,
    },
    /// Leave the loop scalar (what happens without the transform).
    Serialize,
}

/// Decide how a scatter loop runs, mirroring the compiler + pragma decision
/// in the GTC port. `allow_work_vector = false` models the unported code
/// (or an architecture without the memory headroom).
pub fn resolve_dependency(
    dep: &ScatterDependency,
    vector_length: usize,
    allow_work_vector: bool,
) -> DepResolution {
    if !dep.intra_chunk_conflicts {
        return DepResolution::Direct;
    }
    if !allow_work_vector {
        return DepResolution::Serialize;
    }
    let replicated = dep.target_bytes as f64 * vector_length as f64;
    let total_before = (dep.target_bytes + dep.other_bytes) as f64;
    let total_after = replicated + dep.other_bytes as f64;
    DepResolution::WorkVector {
        copies: vector_length,
        memory_multiplier: total_after / total_before,
        reduction_ops_per_point: vector_length,
    }
}

/// A reusable, *functional* work-vector accumulator used by the GTC crate:
/// `lanes` private copies of a length-`n` grid, merged on demand. This is
/// the same data structure a vectorizing compiler materializes, and it also
/// serves as the per-thread private grid for loop-level (OpenMP-style)
/// parallelism.
#[derive(Debug, Clone)]
pub struct WorkVectorGrid {
    lanes: usize,
    n: usize,
    data: Vec<f64>,
}

impl WorkVectorGrid {
    /// Allocate `lanes` zeroed private copies of a grid with `n` points.
    pub fn new(lanes: usize, n: usize) -> Self {
        assert!(lanes >= 1 && n >= 1);
        Self {
            lanes,
            n,
            data: vec![0.0; lanes * n],
        }
    }

    /// Deposit `value` at grid point `idx` from vector lane `lane`.
    #[inline]
    pub fn deposit(&mut self, lane: usize, idx: usize, value: f64) {
        debug_assert!(lane < self.lanes && idx < self.n);
        self.data[lane * self.n + idx] += value;
    }

    /// Reduce all lanes into `out` (adds to existing contents).
    pub fn reduce_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.n);
        for lane in 0..self.lanes {
            let base = lane * self.n;
            for (i, o) in out.iter_mut().enumerate() {
                *o += self.data[base + i];
            }
        }
    }

    /// Zero all lanes for reuse.
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Number of private copies.
    pub fn lanes(&self) -> usize {
        self.lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_conflict_vectorizes_directly() {
        let dep = ScatterDependency {
            intra_chunk_conflicts: false,
            target_bytes: 1000,
            other_bytes: 0,
        };
        assert_eq!(resolve_dependency(&dep, 256, true), DepResolution::Direct);
    }

    #[test]
    fn conflict_without_transform_serializes() {
        let dep = ScatterDependency {
            intra_chunk_conflicts: true,
            target_bytes: 1000,
            other_bytes: 0,
        };
        assert_eq!(
            resolve_dependency(&dep, 256, false),
            DepResolution::Serialize
        );
    }

    #[test]
    fn gtc_memory_multiplier_in_paper_range() {
        // GTC: grid is small relative to particles (10 particles/cell,
        // ~13 doubles per particle vs 1 per grid point): a 256-copy grid
        // lands the total footprint multiplier in the paper's 2-8x band.
        let grid = 2_000_000 * 8; // 2M grid points
        let particles = 20_000_000 * 13 * 8; // 20M particles
        let dep = ScatterDependency {
            intra_chunk_conflicts: true,
            target_bytes: grid,
            other_bytes: particles,
        };
        match resolve_dependency(&dep, 256, true) {
            DepResolution::WorkVector {
                memory_multiplier,
                copies,
                ..
            } => {
                assert_eq!(copies, 256);
                assert!(
                    (2.0..=8.0).contains(&memory_multiplier),
                    "multiplier {memory_multiplier} outside the paper's 2-8x"
                );
            }
            other => panic!("expected work-vector, got {other:?}"),
        }
    }

    #[test]
    fn work_vector_grid_equals_serial_scatter() {
        // The correctness property the transform relies on: lane-private
        // deposition + reduction == serial deposition.
        let n = 50;
        let deposits: Vec<(usize, f64)> = (0..400).map(|i| (i * 7 % n, (i as f64).sin())).collect();

        let mut serial = vec![0.0; n];
        for &(ix, v) in &deposits {
            serial[ix] += v;
        }

        let mut wv = WorkVectorGrid::new(8, n);
        for (k, &(ix, v)) in deposits.iter().enumerate() {
            wv.deposit(k % 8, ix, v);
        }
        let mut reduced = vec![0.0; n];
        wv.reduce_into(&mut reduced);

        for i in 0..n {
            assert!((serial[i] - reduced[i]).abs() < 1e-12, "point {i}");
        }
    }

    #[test]
    fn clear_resets_lanes() {
        let mut wv = WorkVectorGrid::new(4, 10);
        wv.deposit(2, 3, 1.5);
        wv.clear();
        let mut out = vec![0.0; 10];
        wv.reduce_into(&mut out);
        assert!(out.iter().all(|&x| x == 0.0));
    }
}
