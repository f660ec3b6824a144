//! Zero-fill incomplete Cholesky factorization (IC(0)).
//!
//! A preconditioner for [`crate::cg::conjugate_gradient`]: the Cholesky
//! algorithm restricted to the sparsity pattern of the lower triangle of
//! `A`. On the thermoelastic stiffness matrices of the FEA engine it cuts
//! CG iteration counts several-fold relative to diagonal (Jacobi) scaling
//! (see `ic0_outperforms_jacobi_on_stiffness_systems` in `emgrid-fea`).
//!
//! IC(0) can break down on general SPD matrices (a pivot can go
//! non-positive inside the truncated pattern); the standard remedy applied
//! here is a retried **shifted** factorization of `A + α·diag(A)` with
//! geometrically increasing `α`.
//!
//! The factor is stored once, as `L` in CSR, reserved at its exact size.
//! The forward sweep `L y = r` reads each row as a dot product; the
//! backward sweep `Lᵀ z = y` walks the same rows in descending order as a
//! column-oriented scatter, so no transposed copy is kept.

use crate::csr::CsrMatrix;
use crate::error::SparseError;

/// A zero-fill incomplete Cholesky factor `L` with `A ≈ L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Ic0 {
    n: usize,
    /// Lower-triangular factor in CSR (row-major, columns `<= row`).
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
    /// Diagonal shift that was needed (0 when the plain factorization
    /// succeeded).
    shift: f64,
}

impl Ic0 {
    /// Factors the lower-triangular pattern of `a`, retrying with diagonal
    /// shifts `α ∈ {0, 1e-3, 1e-2, …}` on breakdown.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] for non-square input and
    /// [`SparseError::NotPositiveDefinite`] if even a strongly shifted
    /// factorization breaks down (the matrix is far from SPD).
    pub fn factor(a: &CsrMatrix) -> Result<Self, SparseError> {
        if a.rows() != a.cols() {
            return Err(SparseError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let mut shift = 0.0f64;
        for attempt in 0..8 {
            match Self::try_factor(a, shift) {
                Ok(f) => return Ok(f),
                Err(e) if attempt == 7 => return Err(e),
                Err(_) => {
                    shift = if shift == 0.0 { 1e-3 } else { shift * 10.0 };
                }
            }
        }
        unreachable!("loop returns on the final attempt");
    }

    fn try_factor(a: &CsrMatrix, shift: f64) -> Result<Self, SparseError> {
        let n = a.rows();
        // Extract the lower-triangular pattern (columns <= row), counted
        // first so the factor is allocated once at its exact size.
        let nnz = (0..n)
            .map(|i| a.row(i).filter(|&(j, _)| j <= i).count())
            .sum();
        let mut row_ptr = vec![0usize; n + 1];
        let mut col_idx: Vec<u32> = Vec::with_capacity(nnz);
        let mut values: Vec<f64> = Vec::with_capacity(nnz);
        for i in 0..n {
            for (j, v) in a.row(i) {
                if j <= i {
                    let v = if j == i { v * (1.0 + shift) } else { v };
                    col_idx.push(j as u32);
                    values.push(v);
                }
            }
            row_ptr[i + 1] = col_idx.len();
        }

        // Up-looking IC(0): process rows in order; for entry (i, j) subtract
        // the dot product of the already-computed prefixes of rows i and j.
        // `pos` maps each column of row i to its slot, so the dot walks row
        // j's stored prefix alone and picks up the shared columns in
        // ascending order.
        let mut pos = vec![usize::MAX; n];
        for i in 0..n {
            let (ri_start, ri_end) = (row_ptr[i], row_ptr[i + 1]);
            // The diagonal must be the last stored entry of the row; a
            // missing diagonal means the pattern cannot support IC(0).
            if ri_end == ri_start || col_idx[ri_end - 1] as usize != i {
                return Err(SparseError::NotPositiveDefinite {
                    column: i,
                    pivot: 0.0,
                });
            }
            for idx in ri_start..ri_end - 1 {
                let j = col_idx[idx] as usize;
                let rj_end = row_ptr[j + 1];
                // dot(L[i, :j], L[j, :j]) over the stored patterns.
                let mut dot = 0.0;
                for q in row_ptr[j]..rj_end - 1 {
                    let p = pos[col_idx[q] as usize];
                    if p != usize::MAX {
                        dot += values[p] * values[q];
                    }
                }
                // Off-diagonal: L_ij = (a_ij - dot) / L_jj.
                values[idx] = (values[idx] - dot) / values[rj_end - 1];
                pos[j] = idx;
            }
            // Diagonal: L_ii = sqrt(a_ii - dot(L[i, :i], L[i, :i])).
            let mut dot = 0.0;
            for p in ri_start..ri_end - 1 {
                dot += values[p] * values[p];
                pos[col_idx[p] as usize] = usize::MAX;
            }
            let d = values[ri_end - 1] - dot;
            if d <= 0.0 || !d.is_finite() {
                return Err(SparseError::NotPositiveDefinite {
                    column: i,
                    pivot: d,
                });
            }
            values[ri_end - 1] = d.sqrt();
        }

        Ok(Ic0 {
            n,
            row_ptr,
            col_idx,
            values,
            shift,
        })
    }

    /// Dimension of the factored matrix.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the factored matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The diagonal shift the factorization needed (0 when none).
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// The lower-triangular factor in CSR: `(row_ptr, col_idx, values)`,
    /// columns ascending with the diagonal last in each row. Exposed for
    /// byte-level determinism checks.
    pub fn factor_parts(&self) -> (&[usize], &[u32], &[f64]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// Applies the preconditioner: solves `L Lᵀ z = r`.
    ///
    /// # Panics
    ///
    /// Panics if `r.len()` differs from the matrix dimension.
    pub fn apply(&self, r: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; self.n];
        self.apply_into(r, &mut z);
        z
    }

    /// [`Ic0::apply`] into a caller-provided buffer (no allocation).
    ///
    /// The forward sweep keeps each row's running value in a local
    /// accumulator, `z[i] = (r[i] - Σ L[i,c]·z[c]) / L[i,i]` with the terms
    /// subtracted in ascending stored order. The backward sweep visits the
    /// rows in descending order: row `i` finalizes `z[i] /= L[i,i]`, then
    /// scatters `z[c] -= L[i,c]·z[i]` into its columns in ascending stored
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `r.len()` or `z.len()` differs from the matrix dimension.
    pub fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.n, "rhs length mismatch");
        assert_eq!(z.len(), self.n, "output length mismatch");
        // Forward: L y = r (CSR rows, diagonal last). Row i reads only
        // finalized rows c < i.
        for i in 0..self.n {
            let (start, end) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let mut acc = r[i];
            for idx in start..end - 1 {
                acc -= self.values[idx] * z[self.col_idx[idx] as usize];
            }
            z[i] = acc / self.values[end - 1];
        }
        // Backward: Lᵀ z = y, column-oriented. Column i of Lᵀ is row i of
        // L; once z[i] is final, its terms leave the rows c < i.
        for i in (0..self.n).rev() {
            let (start, end) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let zi = z[i] / self.values[end - 1];
            z[i] = zi;
            for idx in start..end - 1 {
                z[self.col_idx[idx] as usize] -= self.values[idx] * zi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::TripletMatrix;

    fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix {
        let id = |x: usize, y: usize| y * nx + x;
        let mut t = TripletMatrix::new(nx * ny, nx * ny);
        for y in 0..ny {
            for x in 0..nx {
                t.push(id(x, y), id(x, y), 4.01);
                if x + 1 < nx {
                    t.push_sym(id(x, y), id(x + 1, y), -1.0);
                }
                if y + 1 < ny {
                    t.push_sym(id(x, y), id(x, y + 1), -1.0);
                }
            }
        }
        t.to_csr()
    }

    #[test]
    fn tridiagonal_ic0_is_exact() {
        // A tridiagonal SPD matrix has no fill: IC(0) equals the exact
        // Cholesky factor, so apply() is an exact solve.
        let n = 30;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.5);
            if i + 1 < n {
                t.push_sym(i, i + 1, -1.0);
            }
        }
        let a = t.to_csr();
        let f = Ic0::factor(&a).unwrap();
        assert_eq!(f.shift(), 0.0);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let x = f.apply(&b);
        assert!(a.residual_norm(&x, &b) < 1e-10);
    }

    #[test]
    fn apply_inverts_the_stored_factor() {
        // On a 2-D pattern (real fill dropped), z = apply(r) must still
        // satisfy L Lᵀ z = r for the L that factor_parts exposes: the
        // scatter backward sweep reads the same single copy of L.
        let a = laplacian_2d(8, 6);
        let f = Ic0::factor(&a).unwrap();
        let (row_ptr, col_idx, values) = f.factor_parts();
        let n = a.rows();
        assert_eq!(row_ptr[n], values.len());
        let r: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let z = f.apply(&r);
        // w = Lᵀ z, then L w.
        let mut w = vec![0.0; n];
        for i in 0..n {
            for k in row_ptr[i]..row_ptr[i + 1] {
                w[col_idx[k] as usize] += values[k] * z[i];
            }
        }
        for i in 0..n {
            let lw: f64 = (row_ptr[i]..row_ptr[i + 1])
                .map(|k| values[k] * w[col_idx[k] as usize])
                .sum();
            assert!((lw - r[i]).abs() < 1e-12, "row {i}: {lw} vs {}", r[i]);
        }
    }

    #[test]
    fn apply_is_spd_like() {
        // z = M⁻¹ r should satisfy rᵀ z > 0 for r ≠ 0 (M SPD).
        let a = laplacian_2d(7, 7);
        let f = Ic0::factor(&a).unwrap();
        for s in 0..5 {
            let r: Vec<f64> = (0..49)
                .map(|i| ((i * 31 + s * 7) % 11) as f64 - 5.0)
                .collect();
            let z = f.apply(&r);
            let dot: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            assert!(dot > 0.0);
        }
    }

    #[test]
    fn one_application_beats_a_jacobi_sweep() {
        // A single application of IC(0) is a better approximate solve than
        // a Jacobi sweep (the decisive comparison — iteration counts — is
        // asserted in the CG tests).
        let a = laplacian_2d(10, 10);
        let f = Ic0::factor(&a).unwrap();
        let b = vec![1.0; 100];
        let z = f.apply(&b);
        let res_ic = a.residual_norm(&z, &b);
        let jac: Vec<f64> = b.iter().map(|v| v / 4.01).collect();
        let res_jac = a.residual_norm(&jac, &b);
        assert!(res_ic < res_jac, "ic {res_ic} vs jacobi {res_jac}");
    }

    #[test]
    fn apply_into_overwrites_a_reused_buffer() {
        // CG hands the same `z` buffer back every iteration: stale contents
        // must never leak into the result.
        let a = laplacian_2d(9, 11);
        let f = Ic0::factor(&a).unwrap();
        let mut z = vec![f64::NAN; 99];
        for s in 0..3 {
            let r: Vec<f64> = (0..99)
                .map(|i| ((i * 29 + s * 13) % 17) as f64 * 0.5 - 4.0)
                .collect();
            f.apply_into(&r, &mut z);
            assert_eq!(z, f.apply(&r));
        }
    }

    #[test]
    fn non_square_rejected() {
        let t = TripletMatrix::new(2, 3);
        assert!(matches!(
            Ic0::factor(&t.to_csr()),
            Err(SparseError::NotSquare { .. })
        ));
    }

    #[test]
    fn indefinite_matrix_gets_shifted_or_rejected() {
        // A matrix needing a shift: strongly non-diagonally-dominant SPD-ish
        // pattern that breaks plain IC(0) may still factor with a shift;
        // a clearly indefinite matrix must error.
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push_sym(0, 1, 2.0);
        t.push(1, 1, 1.0);
        // Eigenvalues 3, -1: not SPD. Large shifts eventually "fix" the
        // factorization (it becomes diagonally dominant), which is fine for
        // a preconditioner; just assert we get *something* usable or a
        // clean error.
        match Ic0::factor(&t.to_csr()) {
            Ok(f) => assert!(f.shift() > 0.0),
            Err(e) => assert!(matches!(e, SparseError::NotPositiveDefinite { .. })),
        }
    }
}
