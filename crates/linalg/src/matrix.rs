//! Dense column-major matrices (real and complex), BLAS storage convention.

use crate::complex::Complex64;

/// A dense real matrix, column-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a closure over (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Column `j` as a slice (column-major makes this contiguous).
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutable column.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// The raw column-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Max absolute element difference to another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[j * self.rows + i]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[j * self.rows + i]
    }
}

/// A dense complex matrix, column-major.
#[derive(Debug, Clone, PartialEq)]
pub struct ZMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl ZMatrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Build from a closure.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Column `j` as a contiguous slice.
    pub fn col(&self, j: usize) -> &[Complex64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutable column.
    pub fn col_mut(&mut self, j: usize) -> &mut [Complex64] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Raw data.
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable raw data.
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Conjugate transpose.
    pub fn dagger(&self) -> ZMatrix {
        ZMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Max absolute element difference.
    pub fn max_abs_diff(&self, other: &ZMatrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }
}

impl std::ops::Index<(usize, usize)> for ZMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[j * self.rows + i]
    }
}

impl std::ops::IndexMut<(usize, usize)> for ZMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[j * self.rows + i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_column_major() {
        let m = Matrix::from_fn(3, 2, |i, j| (10 * i + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 10.0, 20.0, 1.0, 11.0, 21.0]);
        assert_eq!(m[(2, 1)], 21.0);
        assert_eq!(m.col(1), &[1.0, 11.0, 21.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(4, 3, |i, j| (i * 7 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn identity_diag() {
        let m = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn dagger_conjugates() {
        let m = ZMatrix::from_fn(2, 2, |i, j| Complex64::new(i as f64, j as f64));
        let d = m.dagger();
        assert_eq!(d[(1, 0)], Complex64::new(0.0, -1.0));
        assert_eq!(d.dagger().max_abs_diff(&m), 0.0);
    }
}
