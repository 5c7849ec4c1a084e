//! Serial and distributed 3D FFTs.
//!
//! The serial transform applies 1D FFTs along X, then Y, then Z, using the
//! simultaneous-FFT kernel for the strided Y and Z passes (the exact
//! structure of PARATEC's rewritten 3D FFT). The distributed transform
//! slab-decomposes the cube over Z, performs per-plane 2D FFTs locally,
//! transposes to a Y-slab decomposition with an all-to-all exchange, and
//! finishes with the Z-direction FFTs — "taking 1D FFTs along the Z, Y,
//! and X directions with parallel data transposes between each set of 1D
//! FFTs" (§4.2). Each rank's share is a [`DistFft3`], a [`RankProgram`]
//! that runs on either `pvs-mpisim` runtime.

use crate::fft1d::FftPlan;
use crate::multi::MultiFft;
use pvs_linalg::complex::Complex64;
use pvs_mpisim::event::{Op, RankCtx, RankProgram, Reply, Step};

/// Index of `(ix, iy, iz)` in the canonical layout (x fastest).
#[inline]
pub fn idx3(ix: usize, iy: usize, iz: usize, n: usize) -> usize {
    (iz * n + iy) * n + ix
}

fn fft3d_serial_impl(data: &mut [Complex64], n: usize, inverse: bool) {
    assert_eq!(data.len(), n * n * n);
    let plan = FftPlan::new(n);
    let multi_plane = MultiFft::new(n, n);
    let multi_cube = MultiFft::new(n, n * n);

    // X direction: contiguous rows.
    for row in data.chunks_exact_mut(n) {
        if inverse {
            plan.inverse(row);
        } else {
            plan.forward(row);
        }
    }
    // Y direction: within each z-plane the layout [iy][ix] is exactly the
    // transform-major layout of n simultaneous length-n FFTs (the
    // transforms are indexed by ix).
    for plane in data.chunks_exact_mut(n * n) {
        if inverse {
            multi_plane.inverse(plane);
        } else {
            multi_plane.forward(plane);
        }
    }
    // Z direction: the whole cube is transform-major over n² transforms.
    if inverse {
        multi_cube.inverse(data);
    } else {
        multi_cube.forward(data);
    }
}

/// In-place serial forward 3D FFT on an `n³` cube (x-fastest layout).
pub fn fft3d_serial(data: &mut [Complex64], n: usize) {
    fft3d_serial_impl(data, n, false);
}

/// In-place serial inverse 3D FFT.
pub fn ifft3d_serial(data: &mut [Complex64], n: usize) {
    fft3d_serial_impl(data, n, true);
}

/// One rank's share of a distributed 3D FFT of an `n³` cube over `p`
/// ranks (`p` must divide `n`): local FFTs, one all-to-all transpose,
/// local FFTs.
///
/// [`DistFft3::forward`] takes the rank's `n/p` consecutive Z planes in
/// the canonical layout — X then Y FFTs on each, the transpose, Z FFTs —
/// and finishes with its `n/p` consecutive Y planes, laid out
/// `[ly][iz][ix]` (x fastest). [`DistFft3::backward`] inverts the whole
/// pipeline back to Z-slab layout.
#[derive(Debug)]
pub struct DistFft3 {
    n: usize,
    inverse: bool,
    local: Vec<Complex64>,
}

impl DistFft3 {
    /// The forward transform of one rank's Z slab.
    pub fn forward(n: usize, local: Vec<Complex64>) -> Self {
        assert!(n.is_power_of_two());
        DistFft3 {
            n,
            inverse: false,
            local,
        }
    }

    /// The inverse transform of one rank's Y slab.
    pub fn backward(n: usize, local: Vec<Complex64>) -> Self {
        DistFft3 {
            inverse: true,
            ..Self::forward(n, local)
        }
    }
}

impl RankProgram for DistFft3 {
    type Output = Vec<Complex64>;

    fn resume(&mut self, ctx: &RankCtx, reply: Reply) -> Step<Vec<Complex64>> {
        let n = self.n;
        assert!(n.is_multiple_of(ctx.size), "ranks must divide n");
        let planes = n / ctx.size;
        let plan = FftPlan::new(n);
        // Each owned plane, `[iy][ix]` of a Z slab or `[iz][ix]` of a Y
        // slab, is transform-major over n simultaneous transforms.
        let multi_plane = MultiFft::new(n, n);
        match reply {
            Reply::Start => {
                assert_eq!(self.local.len(), planes * n * n);
                for plane in self.local.chunks_exact_mut(n * n) {
                    if self.inverse {
                        multi_plane.inverse(plane);
                    } else {
                        for row in plane.chunks_exact_mut(n) {
                            plan.forward(row);
                        }
                        multi_plane.forward(plane);
                    }
                }
                let sends = (0..ctx.size)
                    .map(|peer| {
                        rows(n, planes, !self.inverse, peer)
                            .flat_map(|r| &self.local[r..r + n])
                            .flat_map(|z| [z.re, z.im])
                    })
                    .collect();
                Step::Op(Op::Alltoallv { sends })
            }
            Reply::Alltoall(blocks) => {
                let mut local = vec![Complex64::ZERO; planes * n * n];
                for (peer, block) in blocks.iter().enumerate() {
                    assert_eq!(block.len(), planes * planes * 2 * n, "from rank {peer}");
                    let rows = rows(n, planes, self.inverse, peer);
                    for (r, row) in rows.zip(block.chunks_exact(2 * n)) {
                        for (z, c) in local[r..r + n].iter_mut().zip(row.chunks_exact(2)) {
                            *z = Complex64::new(c[0], c[1]);
                        }
                    }
                }
                for plane in local.chunks_exact_mut(n * n) {
                    if self.inverse {
                        multi_plane.inverse(plane);
                        for row in plane.chunks_exact_mut(n) {
                            plan.inverse(row);
                        }
                    } else {
                        multi_plane.forward(plane);
                    }
                }
                Step::Finish(local)
            }
            other => panic!("unexpected reply in a distributed 3D FFT: {other:?}"),
        }
    }
}

/// The x-rows a transpose moves between this rank and rank `peer`, as
/// offsets into this rank's slab, in the frame order both sides walk:
/// `[lz][ly]`, where `lz` counts the Z slab's planes and `ly` the Y
/// slab's. Either layout keeps the row of local plane `l` and global
/// index `g` at `(l·n + g)·n`; `z_slab` says whether this rank's side of
/// the transpose is the Z slab.
fn rows(n: usize, planes: usize, z_slab: bool, peer: usize) -> impl Iterator<Item = usize> {
    (0..planes).flat_map(move |lz| {
        (0..planes).map(move |ly| {
            let (mine, theirs) = if z_slab { (lz, ly) } else { (ly, lz) };
            (mine * n + peer * planes + theirs) * n
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvs_mpisim::run_both;

    /// Run `program` for each of `p` ranks on both runtimes, which must
    /// agree bit for bit: each rank's slab.
    fn run(p: usize, program: impl Fn(usize) -> DistFft3 + Sync) -> Vec<Vec<Complex64>> {
        let flat = |slab: &Vec<Complex64>| slab.iter().flat_map(|z| [z.re, z.im]).collect();
        let [v1, _] = run_both(p, |rank, _| program(rank), flat);
        v1.into_iter().map(|(slab, _)| slab).collect()
    }

    fn cube(n: usize, seed: u64) -> Vec<Complex64> {
        (0..n * n * n)
            .map(|i| {
                let h = (i as u64 + seed).wrapping_mul(0x9E3779B97F4A7C15);
                Complex64::new(
                    ((h >> 16) % 2000) as f64 / 1000.0 - 1.0,
                    ((h >> 40) % 2000) as f64 / 1000.0 - 1.0,
                )
            })
            .collect()
    }

    #[test]
    fn serial_roundtrip() {
        let n = 8;
        let orig = cube(n, 5);
        let mut data = orig.clone();
        fft3d_serial(&mut data, n);
        ifft3d_serial(&mut data, n);
        for (a, b) in orig.iter().zip(&data) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn serial_plane_wave_is_delta() {
        // e^{2πi (k·r)/n} transforms to a single spike at k.
        let n = 8;
        let k = (2usize, 3usize, 1usize);
        let mut data = vec![Complex64::ZERO; n * n * n];
        for iz in 0..n {
            for iy in 0..n {
                for ix in 0..n {
                    let phase =
                        2.0 * std::f64::consts::PI * (k.0 * ix + k.1 * iy + k.2 * iz) as f64
                            / n as f64;
                    data[idx3(ix, iy, iz, n)] = Complex64::cis(phase);
                }
            }
        }
        fft3d_serial(&mut data, n);
        for iz in 0..n {
            for iy in 0..n {
                for ix in 0..n {
                    let expect = if (ix, iy, iz) == k {
                        (n * n * n) as f64
                    } else {
                        0.0
                    };
                    let got = data[idx3(ix, iy, iz, n)].abs();
                    assert!((got - expect).abs() < 1e-8, "({ix},{iy},{iz}): {got}");
                }
            }
        }
    }

    #[test]
    fn distributed_matches_serial() {
        let n = 8;
        let p = 4;
        let full = cube(n, 77);
        let mut expect = full.clone();
        fft3d_serial(&mut expect, n);

        let planes = n / p;
        let results = run(p, |rank| {
            let local = full[rank * planes * n * n..(rank + 1) * planes * n * n].to_vec();
            DistFft3::forward(n, local)
        });

        // Output layout: rank q owns y-planes [q*planes, ...), [ly][iz][ix].
        for (q, local) in results.iter().enumerate() {
            for ly in 0..planes {
                let iy = q * planes + ly;
                for iz in 0..n {
                    for ix in 0..n {
                        let got = local[(ly * n + iz) * n + ix];
                        let want = expect[idx3(ix, iy, iz, n)];
                        assert!(
                            (got - want).abs() < 1e-8,
                            "rank {q} ({ix},{iy},{iz}): {got:?} vs {want:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn distributed_roundtrip() {
        let n = 8;
        let p = 2;
        let full = cube(n, 99);
        let planes = n / p;
        let freq = run(p, |rank| {
            DistFft3::forward(
                n,
                full[rank * planes * n * n..(rank + 1) * planes * n * n].to_vec(),
            )
        });
        let results = run(p, |rank| DistFft3::backward(n, freq[rank].clone()));
        for (q, local) in results.iter().enumerate() {
            let expect = &full[q * planes * n * n..(q + 1) * planes * n * n];
            for (a, b) in local.iter().zip(expect) {
                assert!((*a - *b).abs() < 1e-10, "rank {q}");
            }
        }
    }

    #[test]
    fn single_rank_distributed_equals_serial() {
        let n = 4;
        let full = cube(n, 3);
        let mut expect = full.clone();
        fft3d_serial(&mut expect, n);
        let results = run(1, |_| DistFft3::forward(n, full.clone()));
        // p=1: y-slab layout [iy][iz][ix] vs canonical [iz][iy][ix].
        for iy in 0..n {
            for iz in 0..n {
                for ix in 0..n {
                    let got = results[0][(iy * n + iz) * n + ix];
                    let want = expect[idx3(ix, iy, iz, n)];
                    assert!((got - want).abs() < 1e-9);
                }
            }
        }
    }
}
