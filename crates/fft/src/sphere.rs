//! The PARATEC G-sphere and its column load balancer (paper Fig. 4a).
//!
//! In Fourier space a wavefunction is a sphere of plane-wave coefficients:
//! all grid points `G` with kinetic energy `|G|² ≤ E_cut`. The sphere is
//! organized into *columns* — fixed `(gx, gy)`, all admissible `gz` — and
//! columns are distributed over processors by the paper's greedy rule:
//! order columns by descending length, then repeatedly give the next column
//! to the processor currently holding the fewest points.
//!
//! Communicating only these non-zero columns (instead of the full `n³`
//! grid) is what makes the specialized 3D FFT's transposes affordable.

/// One column of the G-sphere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GColumn {
    /// Signed x frequency.
    pub gx: i32,
    /// Signed y frequency.
    pub gy: i32,
    /// Number of admissible `gz` points in this column.
    pub len: usize,
}

/// Signed frequency of FFT index `i` on an `n`-point grid.
fn freq(i: usize, n: usize) -> i32 {
    if i <= n / 2 {
        i as i32
    } else {
        i as i32 - n as i32
    }
}

/// Enumerate the non-empty columns of the sphere `|G|² ≤ g2_max` on an
/// `n³` FFT grid.
pub fn gsphere_columns(n: usize, g2_max: f64) -> Vec<GColumn> {
    let mut cols = Vec::new();
    for ix in 0..n {
        let fx = freq(ix, n);
        for iy in 0..n {
            let fy = freq(iy, n);
            let rho2 = (fx * fx + fy * fy) as f64;
            if rho2 > g2_max {
                continue;
            }
            let len = (0..n)
                .filter(|&iz| {
                    let fz = freq(iz, n);
                    rho2 + (fz * fz) as f64 <= g2_max
                })
                .count();
            if len > 0 {
                cols.push(GColumn {
                    gx: fx,
                    gy: fy,
                    len,
                });
            }
        }
    }
    cols
}

/// The paper's greedy column balancer: returns `assignment[c] = processor`
/// for each column, assigning columns in descending length order to the
/// processor with the fewest points so far.
pub fn balance_columns(cols: &[GColumn], p: usize) -> Vec<usize> {
    assert!(p >= 1);
    let mut order: Vec<usize> = (0..cols.len()).collect();
    order.sort_by(|&a, &b| cols[b].len.cmp(&cols[a].len).then(a.cmp(&b)));
    let mut load = vec![0usize; p];
    let mut assignment = vec![0usize; cols.len()];
    for c in order {
        let proc = (0..p).min_by_key(|&q| load[q]).expect("p >= 1");
        assignment[c] = proc;
        load[proc] += cols[c].len;
    }
    assignment
}

/// Per-processor point totals for an assignment.
pub fn proc_loads(cols: &[GColumn], assignment: &[usize], p: usize) -> Vec<usize> {
    let mut load = vec![0usize; p];
    for (c, &q) in assignment.iter().enumerate() {
        load[q] += cols[c].len;
    }
    load
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freq_convention() {
        assert_eq!(freq(0, 8), 0);
        assert_eq!(freq(4, 8), 4);
        assert_eq!(freq(5, 8), -3);
        assert_eq!(freq(7, 8), -1);
    }

    #[test]
    fn tiny_sphere_is_single_column() {
        let cols = gsphere_columns(8, 0.5);
        assert_eq!(cols.len(), 1);
        assert_eq!(
            cols[0],
            GColumn {
                gx: 0,
                gy: 0,
                len: 1
            }
        );
    }

    #[test]
    fn sphere_point_count_is_plausible() {
        // For g2_max = r², points ≈ (4/3)πr³ when the sphere fits the grid.
        let n = 32;
        let r = 6.0f64;
        let points: usize = gsphere_columns(n, r * r).iter().map(|c| c.len).sum();
        let analytic = 4.0 / 3.0 * std::f64::consts::PI * r.powi(3);
        let ratio = points as f64 / analytic;
        assert!(
            (0.8..1.25).contains(&ratio),
            "count {points} vs analytic {analytic}"
        );
    }

    #[test]
    fn sphere_is_inversion_symmetric() {
        // For every column (gx, gy) there is a (-gx, -gy) of equal length.
        let cols = gsphere_columns(16, 25.0);
        for c in &cols {
            let partner = cols
                .iter()
                .find(|d| d.gx == -c.gx && d.gy == -c.gy)
                .unwrap_or_else(|| panic!("no partner for ({}, {})", c.gx, c.gy));
            assert_eq!(partner.len, c.len);
        }
    }

    #[test]
    fn balance_is_near_perfect() {
        let cols = gsphere_columns(32, 60.0);
        for p in [2, 3, 7, 16] {
            let asg = balance_columns(&cols, p);
            let loads = proc_loads(&cols, &asg, p);
            let max = *loads.iter().max().expect("nonempty");
            let min = *loads.iter().min().expect("nonempty");
            let longest = cols.iter().map(|c| c.len).max().expect("nonempty");
            assert!(
                max - min <= longest,
                "p={p}: imbalance {} exceeds longest column {longest}",
                max - min
            );
        }
    }

    #[test]
    fn all_columns_assigned_to_valid_procs() {
        // Former proptest property, now exhaustive over the whole range
        // it sampled from.
        let cols = gsphere_columns(16, 20.0);
        let total: usize = cols.iter().map(|c| c.len).sum();
        for p in 1usize..20 {
            let asg = balance_columns(&cols, p);
            assert_eq!(asg.len(), cols.len(), "p={p}");
            assert!(asg.iter().all(|&q| q < p), "p={p}");
            // Conservation: loads sum to total points.
            assert_eq!(proc_loads(&cols, &asg, p).iter().sum::<usize>(), total);
        }
    }
}
