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
    scrambled_stream(n, grid_points).collect()
}

/// The indices [`scrambled_indices`] collects, generated one at a time, so
/// a replay such as [`BankedMemory::gather`](crate::banks::BankedMemory::gather)
/// can consume them without an index vector.
pub fn scrambled_stream(n: usize, grid_points: usize) -> impl Iterator<Item = usize> {
    assert!(grid_points > 0);
    let d = grid_points as u64;
    // A power-of-two grid reduces by mask; any other by `fastmod`. Both
    // are `% d` exactly.
    let (mask, c) = if d.is_power_of_two() {
        (Some(d - 1), 0)
    } else {
        (None, fastmod_constant(d))
    };
    (0..n).map(move |i| {
        let v = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
        match mask {
            Some(m) => (v & m) as usize,
            None => fastmod(v, c, d) as usize,
        }
    })
}

/// `⌈2^128 / d⌉ mod 2^128`, the multiplier [`fastmod`] needs for `d`.
fn fastmod_constant(d: u64) -> u128 {
    (u128::MAX / u128::from(d)).wrapping_add(1)
}

/// `v % d` without a division: the high 64 bits of `(c·v mod 2^128)·d`,
/// exact for every 64-bit `v` and `d > 0` (Lemire, Kaser & Kurz 2019,
/// Theorem 1, with 128-bit fractions).
fn fastmod(v: u64, c: u128, d: u64) -> u64 {
    let frac = c.wrapping_mul(u128::from(v));
    let (hi, lo) = (frac >> 64, frac & u128::from(u64::MAX));
    let d = u128::from(d);
    ((hi * d + ((lo * d) >> 64)) >> 64) as u64
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

    #[test]
    fn fastmod_equals_the_remainder() {
        for d in [
            1u64,
            2,
            3,
            7,
            8,
            4_096,
            9_973,
            (1 << 32) - 1,
            (1 << 40) + 1,
            u64::MAX,
        ] {
            let c = fastmod_constant(d);
            let edges = [
                0,
                1,
                d - 1,
                d,
                d.wrapping_add(1),
                d.wrapping_mul(2),
                u64::MAX - 1,
                u64::MAX,
            ];
            let spread = (0..10_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for v in edges.into_iter().chain(spread) {
                assert_eq!(fastmod(v, c, d), v % d, "{v} mod {d}");
            }
        }
    }
}
