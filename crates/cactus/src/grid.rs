//! Multi-field 3D grids with ghost zones.

/// Number of evolved grid functions: the six metric perturbations `h_ij`
/// followed by the six extrinsic-curvature components `k_ij` (symmetric
/// index order xx, xy, xz, yy, yz, zz).
pub const NFIELDS: usize = 12;

/// Index of `h_ij` component `c` (0..6).
pub const fn h(c: usize) -> usize {
    c
}

/// Index of `k_ij` component `c` (0..6).
pub const fn k(c: usize) -> usize {
    6 + c
}

/// A block of `NFIELDS` grid functions on an `nx × ny × nz` interior with
/// `ghost` ghost layers on every face.
#[derive(Debug, Clone)]
pub struct Grid3 {
    /// Interior extent in x.
    pub nx: usize,
    /// Interior extent in y.
    pub ny: usize,
    /// Interior extent in z.
    pub nz: usize,
    /// Ghost layers per face.
    pub ghost: usize,
    fields: Vec<Vec<f64>>,
    wx: usize,
    wy: usize,
}

impl Grid3 {
    /// Allocate a zeroed grid.
    pub fn new(nx: usize, ny: usize, nz: usize, ghost: usize) -> Self {
        let wx = nx + 2 * ghost;
        let wy = ny + 2 * ghost;
        let wz = nz + 2 * ghost;
        Self {
            nx,
            ny,
            nz,
            ghost,
            fields: vec![vec![0.0; wx * wy * wz]; NFIELDS],
            wx,
            wy,
        }
    }

    /// Storage index of (possibly ghost) coordinates; interior runs
    /// `0..n`, ghosts use negative / `>= n` values.
    #[inline]
    pub fn idx(&self, x: isize, y: isize, z: isize) -> usize {
        let g = self.ghost as isize;
        debug_assert!(x >= -g && (x as i64) < (self.nx + self.ghost) as i64);
        (((z + g) as usize) * self.wy + ((y + g) as usize)) * self.wx + ((x + g) as usize)
    }

    /// Read field `f` at coordinates.
    #[inline]
    pub fn get(&self, f: usize, x: isize, y: isize, z: isize) -> f64 {
        self.fields[f][self.idx(x, y, z)]
    }

    /// Write field `f` at coordinates.
    #[inline]
    pub fn set(&mut self, f: usize, x: isize, y: isize, z: isize, v: f64) {
        let i = self.idx(x, y, z);
        self.fields[f][i] = v;
    }

    /// Immutable access to a whole field plane.
    pub fn field(&self, f: usize) -> &[f64] {
        &self.fields[f]
    }

    /// Mutable access to a whole field plane.
    pub fn field_mut(&mut self, f: usize) -> &mut [f64] {
        &mut self.fields[f]
    }

    /// Interior point count.
    pub fn interior_points(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Fill ghost zones of every field periodically from the interior.
    pub fn fill_periodic_ghosts(&mut self) {
        let g = self.ghost as isize;
        let (nx, ny, nz) = (self.nx as isize, self.ny as isize, self.nz as isize);
        for f in 0..NFIELDS {
            // Collect writes first to appease the borrow checker cheaply:
            // ghost count is small relative to the interior.
            let mut writes = Vec::new();
            for z in -g..nz + g {
                for y in -g..ny + g {
                    for x in -g..nx + g {
                        let interior =
                            (0..nx).contains(&x) && (0..ny).contains(&y) && (0..nz).contains(&z);
                        if interior {
                            continue;
                        }
                        let sx = x.rem_euclid(nx);
                        let sy = y.rem_euclid(ny);
                        let sz = z.rem_euclid(nz);
                        writes.push((self.idx(x, y, z), self.get(f, sx, sy, sz)));
                    }
                }
            }
            for (i, v) in writes {
                self.fields[f][i] = v;
            }
        }
    }

    /// Max |value| over the interior of field `f`.
    pub fn max_abs(&self, f: usize) -> f64 {
        let mut m: f64 = 0.0;
        for z in 0..self.nz as isize {
            for y in 0..self.ny as isize {
                for x in 0..self.nx as isize {
                    m = m.max(self.get(f, x, y, z).abs());
                }
            }
        }
        m
    }

    /// L2 norm over the interior of field `f`.
    pub fn l2(&self, f: usize) -> f64 {
        let mut s = 0.0;
        for z in 0..self.nz as isize {
            for y in 0..self.ny as isize {
                for x in 0..self.nx as isize {
                    let v = self.get(f, x, y, z);
                    s += v * v;
                }
            }
        }
        (s / self.interior_points() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut g = Grid3::new(4, 5, 6, 1);
        g.set(3, 2, 4, 5, 7.5);
        assert_eq!(g.get(3, 2, 4, 5), 7.5);
        assert_eq!(g.get(3, 0, 0, 0), 0.0);
    }

    #[test]
    fn ghost_coordinates_are_addressable() {
        let mut g = Grid3::new(4, 4, 4, 2);
        g.set(0, -2, -1, 5, 1.0);
        assert_eq!(g.get(0, -2, -1, 5), 1.0);
    }

    #[test]
    fn periodic_fill_wraps() {
        let mut g = Grid3::new(4, 4, 4, 1);
        g.set(2, 0, 1, 2, 9.0);
        g.fill_periodic_ghosts();
        assert_eq!(g.get(2, 4, 1, 2), 9.0, "+x ghost mirrors x=0");
        g.set(2, 3, 1, 2, 4.0);
        g.fill_periodic_ghosts();
        assert_eq!(g.get(2, -1, 1, 2), 4.0, "-x ghost mirrors x=nx-1");
    }

    #[test]
    fn norms() {
        let mut g = Grid3::new(2, 2, 2, 1);
        for z in 0..2 {
            for y in 0..2 {
                for x in 0..2 {
                    g.set(0, x, y, z, 3.0);
                }
            }
        }
        assert_eq!(g.max_abs(0), 3.0);
        assert!((g.l2(0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn field_indices() {
        assert_eq!(h(0), 0);
        assert_eq!(k(0), 6);
        assert_eq!(k(5), 11);
    }
}
