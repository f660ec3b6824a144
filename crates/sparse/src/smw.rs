//! Incremental re-solve after low-rank updates (Sherman–Morrison–Woodbury).
//!
//! During the power-grid Monte Carlo (Algorithm 1 of the paper), every
//! electromigration failure event changes the resistance of one via array —
//! a rank-1 change `c · u uᵀ` of the conductance matrix, where `u = e_i - e_j`
//! for an internal edge. Re-factoring the full grid after each failure is
//! wasteful; this module keeps the base factorization and accumulates the
//! Woodbury correction
//!
//! `(A + U C Uᵀ)⁻¹ b = A⁻¹ b − Z (C⁻¹ + Uᵀ Z)⁻¹ Uᵀ A⁻¹ b`, with `Z = A⁻¹ U`.
//!
//! Cost model, with `k` accumulated updates:
//!
//! * each update costs one base solve (`z_k = A⁻¹ u_k`) plus an `O(k³)` LU
//!   of the `k × k` capacitance matrix;
//! * each system solve costs `O(n·k)` for the correction. The base solution
//!   `y = A⁻¹ b` is kept, and recomputed (one more base solve) only when
//!   `b` or the base factor changes;
//! * a rebase folds the updates into the matrix. Updates that land on
//!   existing entries keep the pattern, so only the numeric factorization
//!   reruns, under the base factor's permutation.
//!
//! None of this changes a bit of the result: the orderings depend on the
//! pattern alone, `y` is the same expression evaluated once, and the
//! row-blocked correction subtracts the same terms from each `x_i` in the
//! same order as a column-by-column sweep. The `smw_ablation` bench
//! compares the incremental path against full refactorization.

use crate::csr::CsrMatrix;
use crate::dense::{DenseMatrix, LuFactor};
use crate::error::SparseError;
use crate::ldl::{FactorOptions, LdlFactor};

/// A sparse update vector: a short list of `(index, coefficient)` pairs.
pub type UpdateVector = Vec<(usize, f64)>;

/// Rows per block of the Woodbury correction `x = y − Z t`: a block of `x`
/// stays in L1 while every update column is subtracted from it.
const ROW_BLOCK: usize = 256;

/// A factored SPD system that accepts rank-1 updates without refactoring.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), emgrid_sparse::SparseError> {
/// use emgrid_sparse::{TripletMatrix, IncrementalSolver};
///
/// // Two resistors of conductance 1 from node 0 and 1 to ground, plus a
/// // unit conductance between them.
/// let mut t = TripletMatrix::new(2, 2);
/// t.push(0, 0, 2.0);
/// t.push(1, 1, 2.0);
/// t.push_sym(0, 1, -1.0);
/// let a = t.to_csr();
/// let mut solver = IncrementalSolver::new(&a)?;
///
/// // Cut the internal conductance (edge 0-1 fails): A += (-1)·u uᵀ.
/// solver.update_edge(0, 1, -1.0)?;
/// let x = solver.solve(&[1.0, 0.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-10); // node 0 now isolated from node 1
/// assert!(x[1].abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalSolver {
    a: CsrMatrix,
    base: LdlFactor,
    /// Factorization configuration reused by [`IncrementalSolver::rebase`].
    opts: FactorOptions,
    n: usize,
    /// Sparse update vectors u_k.
    us: Vec<UpdateVector>,
    /// Scalars c_k in `A + Σ c_k u_k u_kᵀ`.
    cs: Vec<f64>,
    /// Columns of `Z = A⁻¹ U`.
    z: Vec<Vec<f64>>,
    /// LU of the capacitance matrix `S = C⁻¹ + Uᵀ Z`.
    s_lu: Option<LuFactor>,
    /// The last right-hand side `b` and its base solution `A⁻¹ b`, valid
    /// until the base factor changes.
    base_solution: Option<(Vec<f64>, Vec<f64>)>,
}

impl IncrementalSolver {
    /// Factors the base matrix with the default [`FactorOptions`] and starts
    /// with no updates.
    ///
    /// # Errors
    ///
    /// Propagates factorization failures from [`LdlFactor::factor_with`].
    pub fn new(a: &CsrMatrix) -> Result<Self, SparseError> {
        Self::with_options(a, &FactorOptions::default())
    }

    /// [`IncrementalSolver::new`] with explicit factorization options; the
    /// same options are reused on every [`IncrementalSolver::rebase`].
    ///
    /// # Errors
    ///
    /// Propagates factorization failures from [`LdlFactor::factor_with`].
    pub fn with_options(a: &CsrMatrix, opts: &FactorOptions) -> Result<Self, SparseError> {
        let base = LdlFactor::factor_with(a, opts)?;
        Ok(IncrementalSolver {
            a: a.clone(),
            n: a.rows(),
            base,
            opts: *opts,
            us: Vec::new(),
            cs: Vec::new(),
            z: Vec::new(),
            s_lu: None,
            base_solution: None,
        })
    }

    /// Dimension of the system.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the system is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of accumulated rank-1 updates since the last (re)base.
    pub fn rank(&self) -> usize {
        self.us.len()
    }

    /// Adds the rank-1 update `c · u uᵀ` where `u` is given sparsely.
    ///
    /// Coefficients `c > 0` add conductance; `c < 0` removes it (a failure).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] for bad indices, and
    /// [`SparseError::Singular`] if the updated system is singular (e.g. the
    /// update disconnects part of the grid from every voltage source).
    /// On error the update is rolled back and the solver stays usable.
    pub fn update(&mut self, u: UpdateVector, c: f64) -> Result<(), SparseError> {
        for &(i, _) in &u {
            if i >= self.n {
                return Err(SparseError::IndexOutOfBounds {
                    index: i,
                    bound: self.n,
                });
            }
        }
        // z_k = A⁻¹ u_k.
        let mut dense_u = vec![0.0; self.n];
        for &(i, v) in &u {
            dense_u[i] += v;
        }
        let zk = self.base.solve(&dense_u);
        self.us.push(u);
        self.cs.push(c);
        self.z.push(zk);
        match self.refresh_capacitance() {
            Ok(()) => Ok(()),
            Err(e) => {
                // Roll back so the solver remains consistent.
                self.us.pop();
                self.cs.pop();
                self.z.pop();
                self.refresh_capacitance().ok();
                Err(e)
            }
        }
    }

    /// Convenience: changes the conductance of the edge `(i, j)` by `delta_g`
    /// (the update `delta_g · (e_i − e_j)(e_i − e_j)ᵀ`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`IncrementalSolver::update`].
    pub fn update_edge(&mut self, i: usize, j: usize, delta_g: f64) -> Result<(), SparseError> {
        self.update(vec![(i, 1.0), (j, -1.0)], delta_g)
    }

    /// Convenience: changes the conductance from node `i` to ground by
    /// `delta_g` (the update `delta_g · e_i e_iᵀ`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`IncrementalSolver::update`].
    pub fn update_ground(&mut self, i: usize, delta_g: f64) -> Result<(), SparseError> {
        self.update(vec![(i, 1.0)], delta_g)
    }

    fn refresh_capacitance(&mut self) -> Result<(), SparseError> {
        let k = self.us.len();
        if k == 0 {
            self.s_lu = None;
            return Ok(());
        }
        let mut s = DenseMatrix::zeros(k, k);
        // Largest term magnitude. An update that disconnects part of the
        // grid cancels a diagonal entry (`1/c_k + u_kᵀ z_k = −R + R = 0`), so
        // the pivot test is relative to the terms, not to what is left of
        // them.
        let mut scale = 0.0f64;
        for (row, u) in self.us.iter().enumerate() {
            for (col, zc) in self.z.iter().enumerate() {
                let mut acc = 0.0;
                for &(i, v) in u {
                    acc += v * zc[i];
                }
                s[(row, col)] = acc;
                scale = scale.max(acc.abs());
            }
        }
        for (i, &c) in self.cs.iter().enumerate() {
            if c == 0.0 {
                return Err(SparseError::Singular { column: i });
            }
            let inv = 1.0 / c;
            s[(i, i)] += inv;
            scale = scale.max(inv.abs());
        }
        self.s_lu = Some(LuFactor::factor_scaled(&s, scale)?);
        Ok(())
    }

    /// Solves the **updated** system `(A + Σ c_k u_k u_kᵀ) x = b`.
    ///
    /// Takes `&mut self` to keep the base solution `A⁻¹ b`: repeated solves
    /// with the same `b` between updates pay no base solve at all.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `b` has the wrong
    /// length.
    pub fn solve(&mut self, b: &[f64]) -> Result<Vec<f64>, SparseError> {
        if b.len() != self.n {
            return Err(SparseError::DimensionMismatch {
                expected: self.n,
                found: b.len(),
            });
        }
        let stale = self.base_solution.as_ref().is_none_or(|(cached, _)| {
            cached
                .iter()
                .zip(b)
                .any(|(u, v)| u.to_bits() != v.to_bits())
        });
        if stale {
            self.base_solution = Some((b.to_vec(), self.base.solve(b)));
        }
        let (_, y) = self.base_solution.as_ref().expect("base solution cached");
        let Some(s_lu) = &self.s_lu else {
            return Ok(y.clone());
        };
        let k = self.us.len();
        // w = Uᵀ y.
        let mut w = vec![0.0; k];
        for (row, u) in self.us.iter().enumerate() {
            w[row] = u.iter().map(|&(i, v)| v * y[i]).sum();
        }
        let t = s_lu.solve(&w)?;
        // x = y − Z t, a block of rows at a time; within a block every x_i
        // takes its subtractions in ascending column order.
        let mut x = y.clone();
        for (block, xb) in x.chunks_mut(ROW_BLOCK).enumerate() {
            for (zc, &tc) in self.z.iter().zip(&t) {
                if tc != 0.0 {
                    for (xi, zi) in xb.iter_mut().zip(&zc[block * ROW_BLOCK..]) {
                        *xi -= zi * tc;
                    }
                }
            }
        }
        Ok(x)
    }

    /// Folds all accumulated updates into the matrix and refactors,
    /// resetting the update rank to zero.
    ///
    /// When every update landed on an existing matrix entry (always the
    /// case for a conductance change between already-coupled nodes or to
    /// ground), the folded matrix keeps the base pattern, and only the
    /// numeric factorization reruns, under the base factor's permutation.
    /// An update that adds an entry triggers a full
    /// [`LdlFactor::factor_with`].
    ///
    /// # Errors
    ///
    /// Propagates factorization failures (e.g. if the folded matrix is
    /// singular).
    pub fn rebase(&mut self) -> Result<(), SparseError> {
        let folded = self.to_matrix();
        let same_pattern =
            folded.row_ptr() == self.a.row_ptr() && folded.col_idx() == self.a.col_idx();
        let base = if same_pattern {
            LdlFactor::factor_permuted(&folded, self.base.permutation().clone(), &self.opts)?
        } else {
            LdlFactor::factor_with(&folded, &self.opts)?
        };
        self.a = folded;
        self.base = base;
        self.us.clear();
        self.cs.clear();
        self.z.clear();
        self.s_lu = None;
        self.base_solution = None;
        Ok(())
    }

    /// The current (updated) matrix, reconstructed explicitly. Intended for
    /// verification and debugging; costs a full matrix rebuild.
    pub fn to_matrix(&self) -> CsrMatrix {
        let mut triplets: Vec<(u32, u32, f64)> = Vec::with_capacity(self.a.nnz() + 4 * self.rank());
        for r in 0..self.n {
            for (c, v) in self.a.row(r) {
                triplets.push((r as u32, c as u32, v));
            }
        }
        for (u, &c) in self.us.iter().zip(&self.cs) {
            for &(i, vi) in u {
                for &(j, vj) in u {
                    triplets.push((i as u32, j as u32, c * vi * vj));
                }
            }
        }
        CsrMatrix::from_triplets(self.n, self.n, &triplets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::TripletMatrix;
    use proptest::prelude::*;

    /// A 1-D resistor chain grounded at both ends through unit conductances.
    fn chain(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            let mut d = 0.0;
            if i == 0 || i == n - 1 {
                d += 1.0; // to ground
            }
            if i > 0 {
                t.push_sym(i, i - 1, -1.0);
                d += 1.0;
            }
            if i + 1 < n {
                d += 1.0;
            }
            t.push(i, i, d);
        }
        t.to_csr()
    }

    /// A `nx × ny` resistor mesh of unit conductances with a 0.5
    /// conductance from every node to ground: a stand-in for a power grid.
    fn mesh(nx: usize, ny: usize) -> CsrMatrix {
        let id = |x: usize, y: usize| y * nx + x;
        let mut t = TripletMatrix::new(nx * ny, nx * ny);
        let mut diag = vec![0.5; nx * ny];
        for y in 0..ny {
            for x in 0..nx {
                for (dx, dy) in [(1, 0), (0, 1)] {
                    if x + dx < nx && y + dy < ny {
                        let (i, j) = (id(x, y), id(x + dx, y + dy));
                        t.push_sym(i, j, -1.0);
                        diag[i] += 1.0;
                        diag[j] += 1.0;
                    }
                }
            }
        }
        for (i, d) in diag.iter().enumerate() {
            t.push(i, i, *d);
        }
        t.to_csr()
    }

    /// Partial cuts of existing mesh edges and ground ties, as a grid Monte
    /// Carlo applies them: every update lands on an existing entry.
    fn apply_mixed_updates(solver: &mut IncrementalSolver, nx: usize, salt: usize) {
        for k in 0..12 {
            let i = (k * 37 + salt * 11) % (solver.len() - nx - 1);
            if k % 3 == 2 {
                solver.update_ground(i, -0.2).unwrap();
            } else if k % 2 == 0 {
                solver.update_edge(i, i + 1, -0.3).unwrap();
            } else {
                solver.update_edge(i, i + nx, -0.4).unwrap();
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The Woodbury solve without the kept base solution or the row
    /// blocking: a fresh base solve, then one pass over `x` per column.
    fn textbook_solve(solver: &IncrementalSolver, b: &[f64]) -> Vec<f64> {
        let mut x = solver.base.solve(b);
        let Some(s_lu) = &solver.s_lu else {
            return x;
        };
        let w: Vec<f64> = solver
            .us
            .iter()
            .map(|u| u.iter().map(|&(i, v)| v * x[i]).sum())
            .collect();
        let t = s_lu.solve(&w).unwrap();
        for (zc, &tc) in solver.z.iter().zip(&t) {
            if tc != 0.0 {
                for i in 0..x.len() {
                    x[i] -= zc[i] * tc;
                }
            }
        }
        x
    }

    #[test]
    fn rebase_keeps_the_ordering_and_matches_a_fresh_factor() {
        use crate::ldl::Ordering;
        let (nx, ny) = (23, 17);
        let a = mesh(nx, ny);
        for ordering in [
            Ordering::Natural,
            Ordering::Rcm,
            Ordering::Amd,
            Ordering::Nd,
        ] {
            for supernodal in [false, true] {
                let opts = FactorOptions {
                    ordering,
                    supernodal,
                    ..FactorOptions::default()
                };
                let mut solver = IncrementalSolver::with_options(&a, &opts).unwrap();
                for round in 0..2 {
                    apply_mixed_updates(&mut solver, nx, round);
                    let folded = solver.to_matrix();
                    assert_eq!(folded.col_idx(), a.col_idx(), "pattern must not grow");
                    let fresh = LdlFactor::factor_with(&folded, &opts).unwrap();
                    solver.rebase().unwrap();
                    let label = format!("{ordering:?} supernodal={supernodal} round {round}");
                    assert_eq!(
                        solver.base.permutation().as_slice(),
                        fresh.permutation().as_slice(),
                        "{label}"
                    );
                    let (cp, ri, va, di) = solver.base.factor_parts();
                    let (fcp, fri, fva, fdi) = fresh.factor_parts();
                    assert_eq!((cp, ri), (fcp, fri), "{label}");
                    assert_eq!(bits(va), bits(fva), "{label}");
                    assert_eq!(bits(di), bits(fdi), "{label}");
                }
            }
        }
    }

    #[test]
    fn pattern_growing_update_refactors_from_scratch() {
        let a = chain(40);
        let opts = FactorOptions::default();
        let mut solver = IncrementalSolver::with_options(&a, &opts).unwrap();
        // Nodes 3 and 30 share no entry: the folded pattern grows, so the
        // kept ordering no longer applies.
        solver.update_edge(3, 30, 0.5).unwrap();
        solver.update_edge(10, 11, -0.25).unwrap();
        let folded = solver.to_matrix();
        assert!(folded.nnz() > a.nnz());
        let fresh = LdlFactor::factor_with(&folded, &opts).unwrap();
        let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).sin()).collect();
        let x_smw = solver.solve(&b).unwrap();
        solver.rebase().unwrap();
        assert_eq!(
            solver.base.permutation().as_slice(),
            fresh.permutation().as_slice()
        );
        assert_eq!(solver.base.factor_parts(), fresh.factor_parts());
        let x = solver.solve(&b).unwrap();
        assert_eq!(bits(&x), bits(&fresh.solve(&b)));
        for (u, v) in x.iter().zip(&x_smw) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
        assert!(folded.residual_norm(&x, &b) < 1e-9);
    }

    #[test]
    fn kept_base_solution_and_row_blocks_do_not_move_bits() {
        // More rows than one correction block, so blocks split the sweep.
        let (nx, ny) = (31, 19);
        assert!(nx * ny > 2 * ROW_BLOCK);
        let a = mesh(nx, ny);
        let mut solver = IncrementalSolver::new(&a).unwrap();
        let mut b: Vec<f64> = (0..nx * ny).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let check = |solver: &mut IncrementalSolver, b: &[f64], step: &str| {
            let expected = textbook_solve(solver, b);
            assert_eq!(bits(&solver.solve(b).unwrap()), bits(&expected), "{step}");
            // A repeat solve reuses the kept base solution.
            assert_eq!(bits(&solver.solve(b).unwrap()), bits(&expected), "{step}");
        };
        check(&mut solver, &b, "base");
        for k in 0..20 {
            let i = (k * 53) % (nx * ny - nx - 1);
            solver.update_edge(i, i + nx, -0.6).unwrap();
            if k % 5 == 4 {
                // A ground update with a pinned endpoint changes the rhs.
                solver.update_ground(i + 1, -0.1).unwrap();
                b[i + 1] -= 0.1 * 1.2;
            }
            check(&mut solver, &b, &format!("update {k}"));
            if k == 9 {
                solver.rebase().unwrap();
                check(&mut solver, &b, "after rebase");
            }
        }
    }

    #[test]
    fn no_update_matches_base_solve() {
        let a = chain(8);
        let mut solver = IncrementalSolver::new(&a).unwrap();
        let b = vec![1.0; 8];
        let x = solver.solve(&b).unwrap();
        assert!(a.residual_norm(&x, &b) < 1e-10);
    }

    #[test]
    fn single_update_matches_refactor() {
        let a = chain(10);
        let mut solver = IncrementalSolver::new(&a).unwrap();
        solver.update_edge(3, 4, -0.9).unwrap();
        let updated = solver.to_matrix();
        let b: Vec<f64> = (0..10).map(|i| i as f64 * 0.1).collect();
        let x_smw = solver.solve(&b).unwrap();
        let x_direct = LdlFactor::factor_with(&updated, &FactorOptions::default())
            .unwrap()
            .solve(&b);
        for (u, v) in x_smw.iter().zip(&x_direct) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }

    #[test]
    fn stacked_updates_match_refactor() {
        let a = chain(12);
        let mut solver = IncrementalSolver::new(&a).unwrap();
        solver.update_edge(2, 3, -0.5).unwrap();
        solver.update_edge(7, 8, -0.25).unwrap();
        solver.update_ground(5, 2.0).unwrap();
        solver.update_edge(2, 3, -0.49).unwrap(); // nearly sever
        let b = vec![1.0; 12];
        let x_smw = solver.solve(&b).unwrap();
        let x_direct = LdlFactor::factor_with(&solver.to_matrix(), &FactorOptions::default())
            .unwrap()
            .solve(&b);
        for (u, v) in x_smw.iter().zip(&x_direct) {
            assert!((u - v).abs() < 1e-7, "{u} vs {v}");
        }
    }

    #[test]
    fn rebase_preserves_solution_and_resets_rank() {
        let a = chain(9);
        let mut solver = IncrementalSolver::new(&a).unwrap();
        solver.update_edge(1, 2, -0.7).unwrap();
        solver.update_edge(5, 6, -0.2).unwrap();
        let b = vec![0.5; 9];
        let before = solver.solve(&b).unwrap();
        assert_eq!(solver.rank(), 2);
        solver.rebase().unwrap();
        assert_eq!(solver.rank(), 0);
        let after = solver.solve(&b).unwrap();
        for (u, v) in before.iter().zip(&after) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn disconnecting_update_is_rejected_and_rolled_back() {
        // Chain of 3 grounded only at node 0; cutting edge 0-1 floats {1,2}.
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 2.0); // ground + edge to 1
        t.push_sym(0, 1, -1.0);
        t.push(1, 1, 2.0);
        t.push_sym(1, 2, -1.0);
        t.push(2, 2, 1.0);
        let a = t.to_csr();
        let mut solver = IncrementalSolver::new(&a).unwrap();
        let err = solver.update_edge(0, 1, -1.0);
        assert!(err.is_err());
        assert_eq!(solver.rank(), 0);
        // Solver still answers the base system.
        let b = vec![1.0, 0.0, 0.0];
        let x = solver.solve(&b).unwrap();
        assert!(a.residual_norm(&x, &b) < 1e-10);
    }

    #[test]
    fn disconnecting_update_is_detected_at_any_conductance_scale() {
        // A 5-node chain grounded only at node 0: cutting edge 1-2 floats
        // nodes 2..4, whatever the units of the conductances.
        for g in [1e-6, 1e-3, 0.7, 1e3, 1e6] {
            let mut t = TripletMatrix::new(5, 5);
            t.push(0, 0, 2.0 * g);
            for i in 0..4 {
                t.push_sym(i, i + 1, -g);
                if i > 0 {
                    t.push(i, i, 2.0 * g);
                }
            }
            t.push(4, 4, g);
            let mut solver = IncrementalSolver::new(&t.to_csr()).unwrap();
            solver.update_edge(3, 4, -0.5 * g).unwrap();
            let err = solver.update_edge(1, 2, -g);
            assert!(
                matches!(err, Err(SparseError::Singular { .. })),
                "g = {g}: {err:?}"
            );
            assert_eq!(solver.rank(), 1, "g = {g}");
        }
    }

    #[test]
    fn zero_coefficient_update_rejected() {
        let a = chain(4);
        let mut solver = IncrementalSolver::new(&a).unwrap();
        let err = solver.update_edge(0, 1, 0.0);
        assert!(matches!(err, Err(SparseError::Singular { .. })));
        assert_eq!(solver.rank(), 0);
    }

    #[test]
    fn smw_and_refactor_agree_under_amd() {
        // Regression guard for the FactorOptions migration: the Woodbury
        // correction must stay consistent with a from-scratch AMD+supernodal
        // refactorization, including across a rebase.
        use crate::ldl::Ordering;
        let a = chain(16);
        let opts = FactorOptions::default().with_ordering(Ordering::Amd);
        let mut solver = IncrementalSolver::with_options(&a, &opts).unwrap();
        solver.update_edge(4, 5, -0.7).unwrap();
        solver.update_edge(10, 11, -0.3).unwrap();
        let b: Vec<f64> = (0..16).map(|i| (i as f64 * 0.37).cos()).collect();
        let x_smw = solver.solve(&b).unwrap();
        let x_direct = LdlFactor::factor_with(&solver.to_matrix(), &opts)
            .unwrap()
            .solve(&b);
        for (u, v) in x_smw.iter().zip(&x_direct) {
            assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
        solver.rebase().unwrap();
        solver.update_edge(7, 8, -0.5).unwrap();
        let x_smw = solver.solve(&b).unwrap();
        let x_direct = LdlFactor::factor_with(&solver.to_matrix(), &opts)
            .unwrap()
            .solve(&b);
        for (u, v) in x_smw.iter().zip(&x_direct) {
            assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
    }

    #[test]
    fn out_of_bounds_index_rejected() {
        let a = chain(4);
        let mut solver = IncrementalSolver::new(&a).unwrap();
        let err = solver.update(vec![(9, 1.0)], 1.0);
        assert!(matches!(err, Err(SparseError::IndexOutOfBounds { .. })));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn smw_equals_refactor_for_random_cut_sequences(
            cuts in proptest::collection::vec((0usize..13, 0.05f64..0.95), 1..6),
            b in proptest::collection::vec(-2.0f64..2.0, 14),
        ) {
            let a = chain(14);
            let mut solver = IncrementalSolver::new(&a).unwrap();
            let mut remaining = [1.0f64; 13];
            for (edge, frac) in cuts {
                // Reduce edge (edge, edge+1) conductance by `frac` of what is
                // left, never fully severing so the system stays SPD.
                let cut = frac * 0.9 * remaining[edge];
                remaining[edge] -= cut;
                solver.update_edge(edge, edge + 1, -cut).unwrap();
            }
            let x_smw = solver.solve(&b).unwrap();
            let x_direct = LdlFactor::factor_with(&solver.to_matrix(), &FactorOptions::default())
                .unwrap()
                .solve(&b);
            for (u, v) in x_smw.iter().zip(&x_direct) {
                prop_assert!((u - v).abs() < 1e-6);
            }
        }
    }
}
