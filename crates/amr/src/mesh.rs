//! The two-level tiled AMR mesh.
//!
//! The doubly periodic coarse grid is partitioned into square tiles of
//! `tile` × `tile` cells. Every tile always carries coarse data; a
//! *refined* tile additionally carries a 2× finer patch (the authoritative
//! values there). Refinement follows a gradient criterion, re-evaluated by
//! [`AmrMesh::regrid`].

/// One tile of the mesh.
#[derive(Debug, Clone)]
pub struct Tile {
    /// Coarse data, `tile × tile`, row-major.
    pub coarse: Vec<f64>,
    /// Fine patch (`2·tile × 2·tile`) when refined.
    pub fine: Option<Vec<f64>>,
}

/// The tiled two-level mesh.
#[derive(Debug, Clone)]
pub struct AmrMesh {
    /// Tiles per side.
    pub tiles_per_side: usize,
    /// Coarse cells per tile side.
    pub tile: usize,
    /// Tiles, row-major (`ty * tiles_per_side + tx`).
    pub tiles: Vec<Tile>,
}

impl AmrMesh {
    /// Build an unrefined mesh from a cell-centred initial condition on
    /// the coarse grid (`n = tiles_per_side * tile` cells per side, unit
    /// spacing).
    pub fn new(tiles_per_side: usize, tile: usize, init: impl Fn(f64, f64) -> f64) -> Self {
        assert!(tiles_per_side >= 1 && tile >= 2);
        let mut tiles = Vec::with_capacity(tiles_per_side * tiles_per_side);
        for ty in 0..tiles_per_side {
            for tx in 0..tiles_per_side {
                let mut coarse = vec![0.0; tile * tile];
                for j in 0..tile {
                    for i in 0..tile {
                        let x = (tx * tile + i) as f64 + 0.5;
                        let y = (ty * tile + j) as f64 + 0.5;
                        coarse[j * tile + i] = init(x, y);
                    }
                }
                tiles.push(Tile { coarse, fine: None });
            }
        }
        Self {
            tiles_per_side,
            tile,
            tiles,
        }
    }

    /// Coarse cells per side of the whole domain.
    pub fn n(&self) -> usize {
        self.tiles_per_side * self.tile
    }

    /// Coarse cell value at global (periodic) coordinates — reads the
    /// restricted value for refined tiles (kept in sync by the solver).
    pub fn coarse_at(&self, x: isize, y: isize) -> f64 {
        let n = self.n() as isize;
        let xm = x.rem_euclid(n) as usize;
        let ym = y.rem_euclid(n) as usize;
        let (tx, ty) = (xm / self.tile, ym / self.tile);
        let (i, j) = (xm % self.tile, ym % self.tile);
        self.tiles[ty * self.tiles_per_side + tx].coarse[j * self.tile + i]
    }

    /// Fine-resolution sample at global fine coordinates (`2n` per side):
    /// the fine value where refined, the parent coarse value otherwise
    /// (piecewise-constant prolongation).
    pub fn fine_at(&self, fx: isize, fy: isize) -> f64 {
        let fn_ = 2 * self.n() as isize;
        let xm = fx.rem_euclid(fn_) as usize;
        let ym = fy.rem_euclid(fn_) as usize;
        let (cx, cy) = (xm / 2, ym / 2);
        let (tx, ty) = (cx / self.tile, cy / self.tile);
        let t = &self.tiles[ty * self.tiles_per_side + tx];
        match &t.fine {
            Some(fine) => {
                let ft = 2 * self.tile;
                let (fi, fj) = (xm - tx * ft, ym - ty * ft);
                fine[fj * ft + fi]
            }
            None => t.coarse[(cy % self.tile) * self.tile + (cx % self.tile)],
        }
    }

    /// Refine a tile: prolong its coarse data piecewise-constantly.
    pub fn refine(&mut self, idx: usize) {
        let tile = self.tile;
        let t = &mut self.tiles[idx];
        if t.fine.is_some() {
            return;
        }
        let ft = 2 * tile;
        let mut fine = vec![0.0; ft * ft];
        for j in 0..ft {
            for i in 0..ft {
                fine[j * ft + i] = t.coarse[(j / 2) * tile + (i / 2)];
            }
        }
        t.fine = Some(fine);
    }

    /// Derefine a tile: restrict (average) its fine patch into the coarse
    /// data and drop it.
    pub fn derefine(&mut self, idx: usize) {
        let tile = self.tile;
        let t = &mut self.tiles[idx];
        if let Some(fine) = t.fine.take() {
            let ft = 2 * tile;
            for j in 0..tile {
                for i in 0..tile {
                    t.coarse[j * tile + i] = 0.25
                        * (fine[(2 * j) * ft + 2 * i]
                            + fine[(2 * j) * ft + 2 * i + 1]
                            + fine[(2 * j + 1) * ft + 2 * i]
                            + fine[(2 * j + 1) * ft + 2 * i + 1]);
                }
            }
        }
    }

    /// Restrict every refined tile's fine patch into its coarse shadow
    /// (without dropping the patch) so coarse reads stay consistent.
    pub fn sync_coarse_shadows(&mut self) {
        let tile = self.tile;
        for t in &mut self.tiles {
            if let Some(fine) = &t.fine {
                let ft = 2 * tile;
                for j in 0..tile {
                    for i in 0..tile {
                        t.coarse[j * tile + i] = 0.25
                            * (fine[(2 * j) * ft + 2 * i]
                                + fine[(2 * j) * ft + 2 * i + 1]
                                + fine[(2 * j + 1) * ft + 2 * i]
                                + fine[(2 * j + 1) * ft + 2 * i + 1]);
                    }
                }
            }
        }
    }

    /// Max |gradient| (one-sided, coarse resolution) within a tile.
    pub fn tile_gradient(&self, tx: usize, ty: usize) -> f64 {
        let mut g: f64 = 0.0;
        let x0 = (tx * self.tile) as isize;
        let y0 = (ty * self.tile) as isize;
        for j in 0..self.tile as isize {
            for i in 0..self.tile as isize {
                let c = self.coarse_at(x0 + i, y0 + j);
                g = g.max((self.coarse_at(x0 + i + 1, y0 + j) - c).abs());
                g = g.max((self.coarse_at(x0 + i, y0 + j + 1) - c).abs());
            }
        }
        g
    }

    /// Re-evaluate refinement: refine tiles whose gradient exceeds
    /// `threshold`, derefine the rest. Returns the refined-tile count.
    pub fn regrid(&mut self, threshold: f64) -> usize {
        self.sync_coarse_shadows();
        let tps = self.tiles_per_side;
        let mut flags = vec![false; tps * tps];
        for ty in 0..tps {
            for tx in 0..tps {
                flags[ty * tps + tx] = self.tile_gradient(tx, ty) > threshold;
            }
        }
        let mut refined = 0;
        for (idx, &flag) in flags.iter().enumerate() {
            if flag {
                self.refine(idx);
                refined += 1;
            } else {
                self.derefine(idx);
            }
        }
        refined
    }

    /// Total conserved quantity (coarse-cell measure; refined tiles are
    /// averaged through their shadows).
    pub fn total(&mut self) -> f64 {
        self.sync_coarse_shadows();
        self.tiles
            .iter()
            .map(|t| t.coarse.iter().sum::<f64>())
            .sum()
    }

    /// Number of refined tiles.
    pub fn refined_tiles(&self) -> usize {
        self.tiles.iter().filter(|t| t.fine.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gauss(x: f64, y: f64) -> f64 {
        let (cx, cy) = (16.0, 16.0);
        (-((x - cx).powi(2) + (y - cy).powi(2)) / 18.0).exp()
    }

    #[test]
    fn construction_and_sampling() {
        let m = AmrMesh::new(4, 8, gauss);
        assert_eq!(m.n(), 32);
        // Cell (15, 15) has centre (15.5, 15.5).
        assert!((m.coarse_at(15, 15) - gauss(15.5, 15.5)).abs() < 1e-12);
        // Periodic wrap.
        assert_eq!(m.coarse_at(-1, 0), m.coarse_at(31, 0));
    }

    #[test]
    fn refine_prolongs_and_derefine_restores() {
        let mut m = AmrMesh::new(2, 4, |x, y| x + 10.0 * y);
        let before = m.tiles[0].coarse.clone();
        m.refine(0);
        assert!(m.tiles[0].fine.is_some());
        // Piecewise-constant prolongation: fine children equal the parent.
        assert_eq!(m.fine_at(0, 0), before[0]);
        assert_eq!(m.fine_at(1, 1), before[0]);
        m.derefine(0);
        for (a, b) in m.tiles[0].coarse.iter().zip(&before) {
            assert!((a - b).abs() < 1e-12, "refine+derefine is the identity");
        }
    }

    #[test]
    fn regrid_flags_the_steep_region_only() {
        let mut m = AmrMesh::new(4, 8, gauss);
        let refined = m.regrid(0.05);
        assert!(
            (1..16).contains(&refined),
            "refined {refined} of 16 tiles"
        );
        // The tile containing the Gaussian centre (cells 16,16 -> tile 2,2)
        // must be refined.
        assert!(m.tiles[2 * 4 + 2].fine.is_some() || m.tiles[4 + 1].fine.is_some());
        // A far corner must not be.
        assert!(m.tiles[0].fine.is_none());
    }

    #[test]
    fn total_is_preserved_by_refinement_cycles() {
        let mut m = AmrMesh::new(4, 8, gauss);
        let t0 = m.total();
        m.regrid(0.05);
        let t1 = m.total();
        m.regrid(f64::INFINITY); // derefine everything
        let t2 = m.total();
        assert!((t0 - t1).abs() < 1e-12);
        assert!((t0 - t2).abs() < 1e-12);
    }

    #[test]
    fn fine_sampling_falls_back_to_coarse() {
        let m = AmrMesh::new(2, 4, |x, _| x);
        // Unrefined: fine sample = parent coarse value.
        assert_eq!(m.fine_at(5, 0), m.coarse_at(2, 0));
    }
}
