//! Address-trace generators for the access patterns that appear in the
//! study's four applications.
//!
//! Traces are plain `Vec<u64>` byte addresses so they can be replayed through
//! any of the simulators in this crate. Generators cover: unit-stride sweeps
//! (LBMHD collision), strided sweeps (stream step's strided copies), blocked
//! 2D sweeps (the cache-blocking ports), ghost-zone-skipping stencil sweeps
//! (Cactus on Power), and indirect gathers (GTC deposition).

/// `n` accesses of `elem_bytes` each starting at `base`, unit stride.
pub fn unit_stride(base: u64, n: usize, elem_bytes: usize) -> Vec<u64> {
    (0..n).map(|i| base + (i * elem_bytes) as u64).collect()
}

/// `n` accesses with a constant stride of `stride_elems` elements.
pub fn strided(base: u64, n: usize, stride_elems: usize, elem_bytes: usize) -> Vec<u64> {
    (0..n)
        .map(|i| base + (i * stride_elems * elem_bytes) as u64)
        .collect()
}

/// Row-major sweep over the `interior` of each of `rows` rows, skipping
/// `ghost` elements between rows — the ghost-zone pattern that disengages
/// the IBM prefetch engines.
pub fn ghost_zone_sweep(
    rows: usize,
    interior_elems: usize,
    ghost_elems: usize,
    elem_bytes: usize,
) -> Vec<u64> {
    let row_len = interior_elems + ghost_elems;
    let mut t = Vec::with_capacity(rows * interior_elems);
    for r in 0..rows {
        let row_base = (r * row_len * elem_bytes) as u64;
        for c in 0..interior_elems {
            t.push(row_base + (c * elem_bytes) as u64);
        }
    }
    t
}

/// Indirect gather: accesses `indices[i] * elem_bytes` offsets from `base`,
/// the pattern of PIC charge deposition and gather-push.
pub fn indirect(base: u64, indices: &[usize], elem_bytes: usize) -> Vec<u64> {
    indices
        .iter()
        .map(|&ix| base + (ix * elem_bytes) as u64)
        .collect()
}

/// Deterministic pseudo-random particle-to-grid indices for `n` particles
/// over `grid_points` grid points (multiplicative-hash scramble; no external
/// RNG needed for trace generation).
pub fn scrambled_indices(n: usize, grid_points: usize) -> Vec<usize> {
    assert!(grid_points > 0);
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16) as usize % grid_points)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_shape() {
        let t = unit_stride(100, 4, 8);
        assert_eq!(t, vec![100, 108, 116, 124]);
    }

    #[test]
    fn strided_shape() {
        let t = strided(0, 3, 10, 8);
        assert_eq!(t, vec![0, 80, 160]);
    }

    #[test]
    fn ghost_zone_skips() {
        let t = ghost_zone_sweep(2, 3, 2, 8);
        // Row stride is 5 elements = 40 bytes.
        assert_eq!(t, vec![0, 8, 16, 40, 48, 56]);
    }

    #[test]
    fn scrambled_indices_in_range() {
        let idx = scrambled_indices(1000, 37);
        assert!(idx.iter().all(|&i| i < 37));
        // Spread: all 37 grid points should be touched for 1000 particles.
        let mut seen = [false; 37];
        for &i in &idx {
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
