//! The plane-wave basis: all G-vectors with kinetic energy below a cutoff.

/// Signed frequency of FFT index `i` on an `n`-point grid.
fn freq(i: usize, n: usize) -> i32 {
    if i <= n / 2 {
        i as i32
    } else {
        i as i32 - n as i32
    }
}

/// A plane-wave basis on an `n³` FFT grid: the sphere
/// `½|G|² ≤ E_cut` (atomic-like units with unit cell spacing `2π/n`).
#[derive(Debug, Clone)]
pub struct PwBasis {
    /// FFT grid edge.
    pub n: usize,
    /// Cutoff in `½|G|²` units.
    pub ecut: f64,
    /// Grid indices `(ix, iy, iz)` of each basis plane wave.
    pub g_index: Vec<(usize, usize, usize)>,
    /// Kinetic energy `½|G|²` of each plane wave (units of `(2π/n)² = 1`
    /// per frequency step squared over 2).
    pub kinetic: Vec<f64>,
}

impl PwBasis {
    /// Build the basis. Plane waves are ordered by ascending kinetic
    /// energy (ties broken by grid index), so truncations are physical.
    pub fn new(n: usize, ecut: f64) -> Self {
        assert!(n.is_power_of_two(), "FFT grid must be a power of two");
        let mut items: Vec<((usize, usize, usize), f64)> = Vec::new();
        for iz in 0..n {
            let fz = freq(iz, n) as f64;
            for iy in 0..n {
                let fy = freq(iy, n) as f64;
                for ix in 0..n {
                    let fx = freq(ix, n) as f64;
                    let ke = 0.5 * (fx * fx + fy * fy + fz * fz);
                    if ke <= ecut {
                        items.push(((ix, iy, iz), ke));
                    }
                }
            }
        }
        items.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(a.0.cmp(&b.0)));
        Self {
            n,
            ecut,
            g_index: items.iter().map(|&(g, _)| g).collect(),
            kinetic: items.iter().map(|&(_, k)| k).collect(),
        }
    }

    /// Number of plane waves.
    pub fn npw(&self) -> usize {
        self.g_index.len()
    }

    /// Flat grid index of basis element `i` (x fastest).
    pub fn grid_offset(&self, i: usize) -> usize {
        let (ix, iy, iz) = self.g_index[i];
        (iz * self.n + iy) * self.n + ix
    }

    /// Total grid points.
    pub fn grid_len(&self) -> usize {
        self.n * self.n * self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_point_first() {
        let b = PwBasis::new(8, 2.0);
        assert_eq!(b.g_index[0], (0, 0, 0));
        assert_eq!(b.kinetic[0], 0.0);
    }

    #[test]
    fn kinetic_is_sorted() {
        let b = PwBasis::new(8, 4.0);
        for w in b.kinetic.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn cutoff_respected_and_count_plausible() {
        let b = PwBasis::new(16, 8.0);
        assert!(b.kinetic.iter().all(|&k| k <= 8.0));
        // Sphere volume estimate: (4/3)π r³ with r = sqrt(2·8) = 4.
        let analytic = 4.0 / 3.0 * std::f64::consts::PI * 4.0f64.powi(3);
        let ratio = b.npw() as f64 / analytic;
        assert!((0.8..1.3).contains(&ratio), "npw {} vs {analytic}", b.npw());
    }

    #[test]
    fn tiny_cutoff_is_gamma_only() {
        let b = PwBasis::new(8, 0.25);
        assert_eq!(b.npw(), 1);
    }

    #[test]
    fn inversion_symmetry() {
        // For every G in the sphere, −G is in the sphere.
        let b = PwBasis::new(8, 3.0);
        let set: std::collections::BTreeSet<_> = b.g_index.iter().cloned().collect();
        for &(ix, iy, iz) in &b.g_index {
            let neg = ((8 - ix) % 8, (8 - iy) % 8, (8 - iz) % 8);
            assert!(set.contains(&neg), "missing -G for ({ix},{iy},{iz})");
        }
    }

    #[test]
    fn grid_offsets_unique() {
        let b = PwBasis::new(8, 4.0);
        let mut offsets: Vec<usize> = (0..b.npw()).map(|i| b.grid_offset(i)).collect();
        offsets.sort_unstable();
        offsets.dedup();
        assert_eq!(offsets.len(), b.npw());
    }
}
