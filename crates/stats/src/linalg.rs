//! Small dense matrices for the mixing diagnostics.
//!
//! The matrices here are explicit transition matrices of test-sized
//! overlays, so the implementation favours clarity over blocking/SIMD
//! tricks: row-major storage, products, and a power-iteration spectral
//! radius.

use crate::error::StatsError;
use crate::Result;

/// A row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major vector.
    ///
    /// # Errors
    ///
    /// [`StatsError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(StatsError::DimensionMismatch {
                context: "from_rows: data length must equal rows * cols",
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the underlying row-major buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self · other`.
    ///
    /// # Errors
    ///
    /// [`StatsError::DimensionMismatch`] if the inner dimensions differ.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(StatsError::DimensionMismatch {
                context: "matmul: self.cols must equal other.rows",
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                // Sparsity skip: exact zeros (either sign) contribute
                // nothing to the row.
                if a.classify() == std::num::FpCategory::Zero {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Errors
    ///
    /// [`StatsError::DimensionMismatch`] if `v.len() != self.cols`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(StatsError::DimensionMismatch {
                context: "matvec: vector length must equal cols",
            });
        }
        let out = self
            .data
            .chunks_exact(self.cols)
            .map(|row| row.iter().zip(v.iter()).map(|(a, b)| a * b).sum())
            .collect();
        Ok(out)
    }

    /// Largest absolute eigenvalue estimated by power iteration, for
    /// spectral diagnostics of small transition matrices.
    ///
    /// Returns `None` when the iteration fails to grow a direction (e.g.
    /// the zero matrix).
    #[must_use]
    pub fn spectral_radius(&self, iterations: usize) -> Option<f64> {
        if self.rows != self.cols || self.rows == 0 {
            return None;
        }
        let n = self.rows;
        let mut v = vec![1.0 / (n as f64).sqrt(); n];
        let mut lambda = 0.0;
        for _ in 0..iterations {
            let w = self.matvec(&v).ok()?;
            let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm < 1e-300 {
                return None;
            }
            lambda = norm;
            for (vi, wi) in v.iter_mut().zip(w.iter()) {
                *vi = wi / norm;
            }
        }
        Some(lambda)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]
mod tests {
    use super::*;

    #[test]
    fn matmul_and_transpose() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let at = a.transpose();
        assert_eq!(at.rows(), 3);
        assert_eq!(at.cols(), 2);
        let ata = at.matmul(&a).unwrap();
        assert_eq!(ata.rows(), 3);
        // (AᵀA)[0][0] = 1 + 16 = 17.
        assert!((ata[(0, 0)] - 17.0).abs() < 1e-12);
        // Symmetry.
        for i in 0..3 {
            for j in 0..3 {
                assert!((ata[(i, j)] - ata[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_known() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = a.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn spectral_radius_of_diagonal() {
        let a = Matrix::from_rows(2, 2, vec![3.0, 0.0, 0.0, 1.0]).unwrap();
        let r = a.spectral_radius(200).unwrap();
        assert!((r - 3.0).abs() < 1e-6);
    }

    #[test]
    fn spectral_radius_of_stochastic_matrix_is_one() {
        // Row-stochastic matrices have spectral radius 1.
        let a =
            Matrix::from_rows(3, 3, vec![0.5, 0.25, 0.25, 0.1, 0.8, 0.1, 0.3, 0.3, 0.4]).unwrap();
        let r = a.spectral_radius(500).unwrap();
        assert!((r - 1.0).abs() < 1e-6, "spectral radius = {r}");
    }

    #[test]
    fn from_rows_validates_length() {
        assert!(Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0]).is_err());
    }
}
