//! Small dense matrices with LU factorization.
//!
//! These kernels back the 24x24 element stiffness matrices of the
//! finite-element engine and the small "capacitance" systems of the
//! Sherman–Morrison–Woodbury update. They are deliberately simple,
//! row-major, and allocation-friendly rather than tuned for large sizes.

use crate::error::SparseError;

/// A dense row-major matrix of `f64`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), emgrid_sparse::SparseError> {
/// use emgrid_sparse::DenseMatrix;
///
/// let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let x = a.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "inconsistent row lengths");
            data.extend_from_slice(r);
        }
        DenseMatrix {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix-vector product `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            y[i] = acc;
        }
        y
    }

    /// Matrix-matrix product `A B`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.data[i * self.cols + k];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += aik * other.data[k * other.cols + j];
                }
            }
        }
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Adds `alpha * other` to `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f64, other: &DenseMatrix) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Solves `A x = b` by LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] for non-square matrices,
    /// [`SparseError::DimensionMismatch`] if `b` has the wrong length, and
    /// [`SparseError::Singular`] when a pivot is (numerically) zero.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SparseError> {
        let lu = LuFactor::factor(self)?;
        lu.solve(b)
    }

    /// Solves `A X = B` column-by-column for a dense right-hand side.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DenseMatrix::solve`].
    pub fn solve_matrix(&self, b: &DenseMatrix) -> Result<DenseMatrix, SparseError> {
        let lu = LuFactor::factor(self)?;
        let mut out = DenseMatrix::zeros(b.rows, b.cols);
        let mut col = vec![0.0; b.rows];
        for j in 0..b.cols {
            for i in 0..b.rows {
                col[i] = b[(i, j)];
            }
            let x = lu.solve(&col)?;
            for i in 0..b.rows {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }

    /// Maximum absolute entry, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// LU factorization with partial pivoting of a square [`DenseMatrix`].
#[derive(Debug, Clone)]
pub struct LuFactor {
    n: usize,
    /// Packed L (unit diagonal, below) and U (on/above diagonal).
    lu: Vec<f64>,
    /// Row permutation: `perm[i]` is the original row stored at position `i`.
    perm: Vec<usize>,
}

impl LuFactor {
    /// Factors `a`, consuming nothing; `a` is copied internally.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`], or [`SparseError::Singular`] when
    /// a pivot is at most `16·ε·n·max|a|` in magnitude.
    pub fn factor(a: &DenseMatrix) -> Result<Self, SparseError> {
        Self::factor_scaled(a, a.max_abs())
    }

    /// [`LuFactor::factor`] with the singularity test relative to `scale`
    /// instead of `max|a|`. For a matrix formed as a sum of terms that may
    /// cancel, the size of the terms, not of the cancelled entries, says
    /// which pivot is numerically zero.
    pub(crate) fn factor_scaled(a: &DenseMatrix, scale: f64) -> Result<Self, SparseError> {
        if a.rows != a.cols {
            return Err(SparseError::NotSquare {
                rows: a.rows,
                cols: a.cols,
            });
        }
        let n = a.rows;
        // Relative, so the verdict does not change when the matrix is
        // rescaled.
        let tiny = f64::EPSILON * 16.0 * (n as f64).max(1.0) * scale;
        let mut lu = a.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Partial pivoting: find the largest entry in column k at/below k.
            let mut p = k;
            let mut pmax = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax <= tiny {
                return Err(SparseError::Singular { column: k });
            }
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
                perm.swap(k, p);
            }
            let pivot = lu[k * n + k];
            for i in (k + 1)..n {
                let factor = lu[i * n + k] / pivot;
                lu[i * n + k] = factor;
                for j in (k + 1)..n {
                    lu[i * n + j] -= factor * lu[k * n + j];
                }
            }
        }
        Ok(LuFactor { n, lu, perm })
    }

    /// Solves `A x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SparseError> {
        let n = self.n;
        if b.len() != n {
            return Err(SparseError::DimensionMismatch {
                expected: n,
                found: b.len(),
            });
        }
        // Apply permutation, then forward/backward substitution.
        let mut x: Vec<f64> = self.perm.iter().map(|&i| b[i]).collect();
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[i * n + j] * x[j];
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[i * n + j] * x[j];
            }
            x[i] = acc / self.lu[i * n + i];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_solve_returns_rhs() {
        let a = DenseMatrix::identity(4);
        let b = vec![1.0, -2.0, 3.5, 0.0];
        let x = a.solve(&b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn known_2x2_solution() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let err = a.solve(&[1.0, 1.0]).unwrap_err();
        assert!(matches!(err, SparseError::Singular { .. }));
    }

    #[test]
    fn tiny_but_well_conditioned_matrix_solves() {
        let a = DenseMatrix::from_rows(&[&[1e-18, 0.0], &[0.0, 1e-18]]);
        let x = a.solve(&[1e-18, -2e-18]).unwrap();
        assert_eq!(x, vec![1.0, -2.0]);
    }

    #[test]
    fn huge_numerically_singular_matrix_is_reported() {
        // Condition number ~1.6e16: singular to working precision, although
        // its last pivot (256) is far above any absolute threshold.
        let a = DenseMatrix::from_rows(&[&[1e18, 1e18], &[1e18, 1e18 + 256.0]]);
        let err = a.solve(&[1.0, 1.0]).unwrap_err();
        assert!(matches!(err, SparseError::Singular { column: 1 }));
    }

    #[test]
    fn singularity_verdict_is_scale_invariant() {
        let near = DenseMatrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0 + 1e-15]]);
        let fine = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        for scale in [1e-200, 1e-18, 1.0, 1e18, 1e200] {
            let mut a = DenseMatrix::zeros(2, 2);
            a.axpy(scale, &near);
            assert!(LuFactor::factor(&a).is_err(), "scale {scale}");
            let mut a = DenseMatrix::zeros(2, 2);
            a.axpy(scale, &fine);
            assert!(LuFactor::factor(&a).is_ok(), "scale {scale}");
        }
        assert!(LuFactor::factor(&DenseMatrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn non_square_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        let err = a.solve(&[1.0, 1.0]).unwrap_err();
        assert!(matches!(err, SparseError::NotSquare { rows: 2, cols: 3 }));
    }

    #[test]
    fn rhs_length_checked() {
        let a = DenseMatrix::identity(3);
        let err = a.solve(&[1.0]).unwrap_err();
        assert!(matches!(
            err,
            SparseError::DimensionMismatch {
                expected: 3,
                found: 1
            }
        ));
    }

    #[test]
    fn matmul_against_hand_computation() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn solve_matrix_matches_columnwise_solve() {
        let a = DenseMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let b = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let inv = a.solve_matrix(&b).unwrap();
        let prod = a.matmul(&inv);
        for i in 0..2 {
            for j in 0..2 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-12);
            }
        }
    }

    fn diagonally_dominant(n: usize) -> impl Strategy<Value = DenseMatrix> {
        proptest::collection::vec(-1.0f64..1.0, n * n).prop_map(move |vals| {
            let mut m = DenseMatrix::zeros(n, n);
            for i in 0..n {
                let mut rowsum = 0.0;
                for j in 0..n {
                    let v = vals[i * n + j];
                    m[(i, j)] = v;
                    rowsum += v.abs();
                }
                m[(i, i)] = rowsum + 1.0;
            }
            m
        })
    }

    proptest! {
        #[test]
        fn lu_solve_residual_small(
            a in diagonally_dominant(6),
            b in proptest::collection::vec(-10.0f64..10.0, 6),
        ) {
            let x = a.solve(&b).unwrap();
            let ax = a.matvec(&x);
            for (ai, bi) in ax.iter().zip(&b) {
                prop_assert!((ai - bi).abs() < 1e-8);
            }
        }

        #[test]
        fn matvec_linear_in_x(
            a in diagonally_dominant(5),
            x in proptest::collection::vec(-5.0f64..5.0, 5),
            alpha in -3.0f64..3.0,
        ) {
            let scaled: Vec<f64> = x.iter().map(|v| alpha * v).collect();
            let left = a.matvec(&scaled);
            let right: Vec<f64> = a.matvec(&x).iter().map(|v| alpha * v).collect();
            for (l, r) in left.iter().zip(&right) {
                prop_assert!((l - r).abs() < 1e-9);
            }
        }
    }
}
