//! Incremental re-solve after rank-1 updates of a factored SPD system.
//!
//! During the power-grid Monte Carlo (Algorithm 1 of the paper), every
//! electromigration failure event changes the resistance of one via array —
//! a rank-1 change `c · u uᵀ` of the conductance matrix, where `u = e_i − e_j`
//! for an internal edge and `u = e_i` for an edge to a pinned node.
//! [`IncrementalSolver`] keeps one factor `P A Pᵀ = L D Lᵀ` of the current
//! matrix across such changes instead of refactoring:
//!
//! * **The factor is updated in place.** When every pair of `u`'s entries is
//!   a stored matrix entry, the update keeps L's pattern, and `u`'s support
//!   lies on one elimination-tree path. The update modifies L and D by the
//!   LDLᵀ form of method C1 (Gill, Golub, Murray & Saunders, 1974), walking
//!   only that path, as Davis & Hager do for sparse factors (SIAM J. Matrix
//!   Anal. Appl. 20(3), 1999). With `w = P u` and `α = c`, each path column
//!   `j`, in ascending order, takes `p = w_j`, `d̄_j = d_j + α p²`,
//!   `β = α p / d̄_j`, `α ← α d_j / d̄_j`, and then, for each stored row `i`,
//!   `w_i −= p L_ij` followed by `L_ij += β w_i`. The parent of column `j` is
//!   the first stored row of L's column `j`, so the factor carries no extra
//!   state for the walk.
//! * **The solution is kept.** The solver keeps the last right-hand side `b`
//!   and the current system's solution `x` for it. An update moves `x` by
//!   one Sherman–Morrison step against the updated factor,
//!   `x ← x − c (uᵀx) A′⁻¹u`. That costs one [`LdlFactor::solve`], whose
//!   forward sweep skips the zero columns off the path. A solve with the
//!   same `b` (bit for bit) returns `x`; any other `b` is solved in full and
//!   kept.
//! * **A disconnecting update is rejected.** It makes the matrix singular,
//!   so some `d̄_j` cancels to rounding. The update is rejected when
//!   `d̄_j ≤ 16·ε·|path|·max(d_j, |α| p²)`, and the touched columns are
//!   restored bit for bit.
//! * **Anything else refactors.** An update that would add an entry to the
//!   pattern is folded into the matrix, which is factored from scratch.
//!
//! Each update thus costs one path walk plus one solve, and nothing
//! accumulates: there is no correction to fold back, so the solver never
//! needs a rebase. [`IncrementalSolver::rebase`] refactors on demand.
//! Results match a fresh factor of the updated matrix to rounding (about
//! 1e-13 relative after hundreds of updates), not bit for bit.

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::ldl::{FactorOptions, LdlFactor};
use crate::ordering::Permutation;

/// A sparse update vector: a short list of `(index, coefficient)` pairs.
pub type UpdateVector = Vec<(usize, f64)>;

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
    /// The current (updated) matrix.
    a: CsrMatrix,
    /// `L D Lᵀ` factor of `a`, updated in place.
    factor: LdlFactor,
    /// Factorization configuration reused by every refactor.
    opts: FactorOptions,
    /// Permuted position of each original index.
    position: Vec<usize>,
    /// Updates applied since the factor was last computed from scratch.
    rank: usize,
    /// The last right-hand side `b` and the current system's solution for
    /// it.
    kept: Option<(Vec<f64>, Vec<f64>)>,
    /// Zeroed scratch for `w`, in permuted coordinates.
    w: Vec<f64>,
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
    /// same options are reused whenever the solver refactors.
    ///
    /// # Errors
    ///
    /// Propagates factorization failures from [`LdlFactor::factor_with`].
    pub fn with_options(a: &CsrMatrix, opts: &FactorOptions) -> Result<Self, SparseError> {
        let factor = LdlFactor::factor_with(a, opts)?;
        Ok(IncrementalSolver {
            a: a.clone(),
            position: positions(factor.permutation()),
            factor,
            opts: *opts,
            rank: 0,
            kept: None,
            w: vec![0.0; a.rows()],
        })
    }

    /// Dimension of the system.
    pub fn len(&self) -> usize {
        self.a.rows()
    }

    /// Whether the system is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of updates applied since the factor was last computed from
    /// scratch (by construction, [`IncrementalSolver::rebase`] or a
    /// pattern-growing update).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Adds the rank-1 update `c · u uᵀ` where `u` is given sparsely.
    ///
    /// Coefficients `c > 0` add conductance; `c < 0` removes it (a failure).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] for bad indices, and
    /// [`SparseError::Singular`] for `c = 0` or if the updated system is
    /// singular (e.g. the update disconnects part of the grid from every
    /// voltage source). On error the solver is left exactly as it was.
    pub fn update(&mut self, u: UpdateVector, c: f64) -> Result<(), SparseError> {
        for &(i, _) in &u {
            if i >= self.len() {
                return Err(SparseError::IndexOutOfBounds {
                    index: i,
                    bound: self.len(),
                });
            }
        }
        if c == 0.0 {
            return Err(SparseError::Singular { column: 0 });
        }
        // The entries of c·u uᵀ, as slots of the stored pattern.
        let mut slots = Vec::with_capacity(u.len() * u.len());
        for &(i, vi) in &u {
            for &(j, vj) in &u {
                match stored_slot(&self.a, i, j) {
                    Some(slot) => slots.push((slot, c * vi * vj)),
                    None => return self.refactor_with(&u, c),
                }
            }
        }
        self.update_factor(&u, c)?;
        let values = self.a.values_mut();
        for (slot, v) in slots {
            values[slot] += v;
        }
        self.rank += 1;
        // Sherman–Morrison against the updated factor:
        // x ← x − c (uᵀx) A′⁻¹u.
        if let Some((_, x)) = &mut self.kept {
            let utx: f64 = u.iter().map(|&(i, v)| v * x[i]).sum();
            if utx != 0.0 {
                let mut dense_u = vec![0.0; x.len()];
                for &(i, v) in &u {
                    dense_u[i] += v;
                }
                let z = self.factor.solve(&dense_u);
                let scale = c * utx;
                for (xi, zi) in x.iter_mut().zip(&z) {
                    *xi -= scale * zi;
                }
            }
        }
        Ok(())
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

    /// Method C1 on the factor, along the elimination-tree path of `u`'s
    /// support. Every pair of `u`'s entries is stored, so the support lies
    /// on the path of its lowest permuted position. A rejected update
    /// restores the touched columns bit for bit.
    fn update_factor(&mut self, u: &[(usize, f64)], c: f64) -> Result<(), SparseError> {
        let Some(start) = u.iter().map(|&(i, _)| self.position[i]).min() else {
            return Ok(());
        };
        for &(i, v) in u {
            self.w[self.position[i]] += v;
        }
        let w = &mut self.w;
        let (col_ptr, row_idx, values, diag) = self.factor.factor_parts_mut();
        let mut path = Vec::new();
        let mut j = start;
        loop {
            path.push(j);
            let (lo, hi) = (col_ptr[j], col_ptr[j + 1]);
            if lo == hi {
                break;
            }
            j = row_idx[lo] as usize;
        }
        let tiny = 16.0 * f64::EPSILON * path.len() as f64;
        // Each visited column's D entry and values, in path order, as they
        // were before the update.
        let mut saved = Vec::new();
        let mut alpha = c;
        for (k, &j) in path.iter().enumerate() {
            let (lo, hi) = (col_ptr[j], col_ptr[j + 1]);
            let p = w[j];
            w[j] = 0.0;
            let d = diag[j];
            let d_bar = d + alpha * p * p;
            // A NaN pivot fails the test too.
            let pivot_ok = p == 0.0 || d_bar > tiny * d.max(alpha.abs() * p * p);
            if !pivot_ok {
                let mut saved = saved.iter();
                for &col in &path[..k] {
                    diag[col] = *saved.next().expect("saved pivot");
                    for (l, &s) in values[col_ptr[col]..col_ptr[col + 1]]
                        .iter_mut()
                        .zip(&mut saved)
                    {
                        *l = s;
                    }
                }
                for &col in &path[k..] {
                    w[col] = 0.0;
                }
                return Err(SparseError::Singular { column: j });
            }
            saved.push(d);
            saved.extend_from_slice(&values[lo..hi]);
            if p == 0.0 {
                continue;
            }
            let beta = alpha * p / d_bar;
            alpha = alpha * d / d_bar;
            diag[j] = d_bar;
            for (&i, l) in row_idx[lo..hi].iter().zip(&mut values[lo..hi]) {
                let wi = &mut w[i as usize];
                *wi -= p * *l;
                *l += beta * *wi;
            }
        }
        Ok(())
    }

    /// Folds `c · u uᵀ` into a matrix whose pattern grows, and factors it
    /// from scratch. On error the solver is unchanged.
    fn refactor_with(&mut self, u: &[(usize, f64)], c: f64) -> Result<(), SparseError> {
        let n = self.len();
        let mut triplets: Vec<(u32, u32, f64)> =
            Vec::with_capacity(self.a.nnz() + u.len() * u.len());
        for r in 0..n {
            for (col, v) in self.a.row(r) {
                triplets.push((r as u32, col as u32, v));
            }
        }
        for &(i, vi) in u {
            for &(j, vj) in u {
                triplets.push((i as u32, j as u32, c * vi * vj));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &triplets);
        let factor = LdlFactor::factor_with(&a, &self.opts).map_err(|e| match e {
            SparseError::NotPositiveDefinite { column, .. } => SparseError::Singular { column },
            e => e,
        })?;
        self.position = positions(factor.permutation());
        self.a = a;
        self.install(factor);
        Ok(())
    }

    /// Makes `factor`, computed from scratch, the current factor, and
    /// re-solves the kept right-hand side with it.
    fn install(&mut self, factor: LdlFactor) {
        self.factor = factor;
        self.rank = 0;
        if let Some((b, x)) = &mut self.kept {
            *x = self.factor.solve(b);
        }
    }

    /// Solves the **updated** system `(A + Σ c_k u_k u_kᵀ) x = b`.
    ///
    /// Takes `&mut self` to keep the solution: a solve with the same `b`
    /// as the last one costs a copy, updates or not.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `b` has the wrong
    /// length.
    pub fn solve(&mut self, b: &[f64]) -> Result<Vec<f64>, SparseError> {
        if b.len() != self.len() {
            return Err(SparseError::DimensionMismatch {
                expected: self.len(),
                found: b.len(),
            });
        }
        if let Some((kept_b, x)) = &self.kept {
            if kept_b
                .iter()
                .zip(b)
                .all(|(u, v)| u.to_bits() == v.to_bits())
            {
                return Ok(x.clone());
            }
        }
        let x = self.factor.solve(b);
        self.kept = Some((b.to_vec(), x.clone()));
        Ok(x)
    }

    /// Refactors the current matrix from scratch under the kept
    /// permutation and re-solves the kept right-hand side, resetting
    /// [`IncrementalSolver::rank`] to zero. The factor has the same bits as
    /// [`LdlFactor::factor_with`] of [`IncrementalSolver::to_matrix`]: every
    /// ordering is a function of the pattern alone.
    ///
    /// # Errors
    ///
    /// Propagates factorization failures.
    pub fn rebase(&mut self) -> Result<(), SparseError> {
        let factor =
            LdlFactor::factor_permuted(&self.a, self.factor.permutation().clone(), &self.opts)?;
        self.install(factor);
        Ok(())
    }

    /// The current (updated) matrix.
    pub fn to_matrix(&self) -> CsrMatrix {
        self.a.clone()
    }
}

/// The permuted position of each original index (the inverse of
/// `perm`'s `new -> old` map).
fn positions(perm: &Permutation) -> Vec<usize> {
    let mut position = vec![0; perm.len()];
    for (new, &old) in perm.as_slice().iter().enumerate() {
        position[old] = new;
    }
    position
}

/// Index into `a`'s values of the stored entry `(i, j)`, if any.
fn stored_slot(a: &CsrMatrix, i: usize, j: usize) -> Option<usize> {
    let (lo, hi) = (a.row_ptr()[i], a.row_ptr()[i + 1]);
    a.col_idx()[lo..hi]
        .binary_search(&(j as u32))
        .ok()
        .map(|k| lo + k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::TripletMatrix;
    use crate::ldl::Ordering;
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
    /// Carlo applies them, and a few added conductances: every update lands
    /// on an existing entry.
    fn apply_mixed_updates(solver: &mut IncrementalSolver, nx: usize, salt: usize) {
        for k in 0..12 {
            let i = (k * 37 + salt * 11) % (solver.len() - nx - 1);
            match k % 4 {
                0 => solver.update_edge(i, i + 1, -0.3).unwrap(),
                1 => solver.update_edge(i, i + nx, -0.4).unwrap(),
                2 => solver.update_ground(i, -0.2).unwrap(),
                _ => solver.update_edge(i, i + nx, 0.25).unwrap(),
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn max_rel_gap(x: &[f64], y: &[f64]) -> f64 {
        let scale = y.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-300);
        x.iter()
            .zip(y)
            .fold(0.0f64, |m, (u, v)| m.max((u - v).abs()))
            / scale
    }

    fn every_engine() -> Vec<FactorOptions> {
        let mut all = Vec::new();
        for ordering in [
            Ordering::Natural,
            Ordering::Rcm,
            Ordering::Amd,
            Ordering::Nd,
        ] {
            for supernodal in [false, true] {
                all.push(FactorOptions {
                    ordering,
                    supernodal,
                    ..FactorOptions::default()
                });
            }
        }
        all
    }

    #[test]
    fn updated_factor_matches_a_fresh_factor() {
        let (nx, ny) = (23, 17);
        let a = mesh(nx, ny);
        for opts in every_engine() {
            let mut solver = IncrementalSolver::with_options(&a, &opts).unwrap();
            for round in 0..2 {
                apply_mixed_updates(&mut solver, nx, round);
                let label = format!("{opts:?} round {round}");
                let fresh = LdlFactor::factor_with(&solver.to_matrix(), &opts).unwrap();
                assert_eq!(
                    solver.factor.permutation().as_slice(),
                    fresh.permutation().as_slice(),
                    "{label}"
                );
                let (cp, ri, va, di) = solver.factor.factor_parts();
                let (fcp, fri, fva, fdi) = fresh.factor_parts();
                assert_eq!((cp, ri), (fcp, fri), "{label}");
                assert!(max_rel_gap(va, fva) < 1e-12, "{label}: L");
                for (u, v) in di.iter().zip(fdi) {
                    assert!((u - v).abs() <= 1e-12 * v.abs(), "{label}: D {u} vs {v}");
                }
            }
        }
    }

    #[test]
    fn rebase_keeps_the_ordering_and_matches_a_fresh_factor() {
        let (nx, ny) = (23, 17);
        let a = mesh(nx, ny);
        let b: Vec<f64> = (0..nx * ny).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        for opts in every_engine() {
            let mut solver = IncrementalSolver::with_options(&a, &opts).unwrap();
            solver.solve(&b).unwrap();
            for round in 0..2 {
                apply_mixed_updates(&mut solver, nx, round);
                let folded = solver.to_matrix();
                assert_eq!(folded.col_idx(), a.col_idx(), "pattern must not grow");
                let fresh = LdlFactor::factor_with(&folded, &opts).unwrap();
                solver.rebase().unwrap();
                assert_eq!(solver.rank(), 0);
                let label = format!("{opts:?} round {round}");
                assert_eq!(
                    solver.factor.permutation().as_slice(),
                    fresh.permutation().as_slice(),
                    "{label}"
                );
                let (cp, ri, va, di) = solver.factor.factor_parts();
                let (fcp, fri, fva, fdi) = fresh.factor_parts();
                assert_eq!((cp, ri), (fcp, fri), "{label}");
                assert_eq!(bits(va), bits(fva), "{label}");
                assert_eq!(bits(di), bits(fdi), "{label}");
                // The kept solution is re-solved with the new factor.
                assert_eq!(bits(&solver.solve(&b).unwrap()), bits(&fresh.solve(&b)));
            }
        }
    }

    #[test]
    fn pattern_growing_update_refactors_from_scratch() {
        let a = chain(40);
        let opts = FactorOptions::default();
        let mut solver = IncrementalSolver::with_options(&a, &opts).unwrap();
        let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).sin()).collect();
        solver.solve(&b).unwrap();
        solver.update_edge(10, 11, -0.25).unwrap();
        assert_eq!(solver.rank(), 1);
        // Nodes 3 and 30 share no entry: the folded pattern grows, so the
        // solver refactors, under a new ordering.
        solver.update_edge(3, 30, 0.5).unwrap();
        assert_eq!(solver.rank(), 0);
        let folded = solver.to_matrix();
        assert!(folded.nnz() > a.nnz());
        let fresh = LdlFactor::factor_with(&folded, &opts).unwrap();
        assert_eq!(
            solver.factor.permutation().as_slice(),
            fresh.permutation().as_slice()
        );
        assert_eq!(solver.factor.factor_parts(), fresh.factor_parts());
        let x = solver.solve(&b).unwrap();
        assert_eq!(bits(&x), bits(&fresh.solve(&b)));
        assert!(folded.residual_norm(&x, &b) < 1e-9);
        // Later updates run on the grown pattern.
        solver.update_edge(3, 30, -0.25).unwrap();
        assert_eq!(solver.rank(), 1);
        let x = solver.solve(&b).unwrap();
        assert!(solver.to_matrix().residual_norm(&x, &b) < 1e-9);
    }

    #[test]
    fn kept_solution_tracks_updates_and_rhs_changes() {
        let (nx, ny) = (31, 19);
        let a = mesh(nx, ny);
        let mut solver = IncrementalSolver::new(&a).unwrap();
        let mut b: Vec<f64> = (0..nx * ny).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let check = |solver: &mut IncrementalSolver, b: &[f64], step: &str| {
            let fresh = LdlFactor::factor_with(&solver.to_matrix(), &FactorOptions::default())
                .unwrap()
                .solve(b);
            let x = solver.solve(b).unwrap();
            assert!(max_rel_gap(&x, &fresh) < 1e-12, "{step}");
            // A repeat solve returns the kept solution.
            assert_eq!(bits(&solver.solve(b).unwrap()), bits(&x), "{step}");
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
        }
    }

    #[test]
    fn kept_solution_drift_stays_small_over_a_thousand_updates() {
        let (nx, ny) = (40, 40);
        let a = mesh(nx, ny);
        let b: Vec<f64> = (0..nx * ny).map(|i| ((i * 11) % 17) as f64 - 8.0).collect();
        let mut solver = IncrementalSolver::new(&a).unwrap();
        solver.solve(&b).unwrap();
        // Partial cuts that never sever: each takes a fraction of what is
        // left of the edge.
        let mut left = vec![1.0f64; 2 * nx * ny];
        let mut state = 12345u64;
        for k in 0..1000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (state >> 33) as usize % (nx * ny - nx - 1);
            let (j, e) = if k % 2 == 0 && i % nx + 1 < nx {
                (i + 1, 2 * i)
            } else {
                (i + nx, 2 * i + 1)
            };
            let cut = 0.5 * left[e];
            left[e] -= cut;
            solver.update_edge(i, j, -cut).unwrap();
        }
        assert_eq!(solver.rank(), 1000);
        let kept = solver.solve(&b).unwrap();
        let fresh = LdlFactor::factor_with(&solver.to_matrix(), &FactorOptions::default())
            .unwrap()
            .solve(&b);
        let gap = max_rel_gap(&kept, &fresh);
        assert!(gap < 1e-10, "kept solution drifted {gap:e}");
    }

    #[test]
    fn kept_solutions_are_thread_count_invariant() {
        // 80 x 70 = 5600 unknowns: past the size where the planned
        // parallel solve engages.
        let (nx, ny) = (80, 70);
        let a = mesh(nx, ny);
        let b: Vec<f64> = (0..nx * ny).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let run = |threads: usize| {
            let opts = FactorOptions::default().with_threads(threads);
            let mut solver = IncrementalSolver::with_options(&a, &opts).unwrap();
            let mut out = vec![bits(&solver.solve(&b).unwrap())];
            for round in 0..3 {
                apply_mixed_updates(&mut solver, nx, round);
                out.push(bits(&solver.solve(&b).unwrap()));
            }
            out
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }

    #[test]
    fn rejected_update_leaves_the_solver_bit_identical() {
        // A mesh tied to ground only at node 0, plus a dangling node
        // `last` hanging off one edge: cutting that edge floats it.
        let (nx, ny) = (9, 7);
        let n = nx * ny + 1;
        let last = n - 1;
        let mut t = TripletMatrix::new(n, n);
        let mut diag = vec![0.0; n];
        diag[0] = 1.0;
        for y in 0..ny {
            for x in 0..nx {
                let i = y * nx + x;
                for j in [i + 1, i + nx] {
                    if (j == i + 1 && x + 1 < nx) || (j == i + nx && y + 1 < ny) {
                        t.push_sym(i, j, -1.0);
                        diag[i] += 1.0;
                        diag[j] += 1.0;
                    }
                }
            }
        }
        t.push_sym(last, 30, -2.0);
        diag[last] += 2.0;
        diag[30] += 2.0;
        for (i, d) in diag.iter().enumerate() {
            t.push(i, i, *d);
        }
        let a = t.to_csr();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        for opts in every_engine() {
            let mut solver = IncrementalSolver::with_options(&a, &opts).unwrap();
            solver.update_edge(4, 5, -0.5).unwrap();
            let x = solver.solve(&b).unwrap();
            let (cp, ri, va, di) = solver.factor.factor_parts();
            let before = (cp.to_vec(), ri.to_vec(), bits(va), bits(di));
            let matrix = solver.to_matrix();
            let err = solver.update_edge(30, last, -2.0);
            assert!(
                matches!(err, Err(SparseError::Singular { .. })),
                "{opts:?}: {err:?}"
            );
            let (cp, ri, va, di) = solver.factor.factor_parts();
            assert_eq!(
                before,
                (cp.to_vec(), ri.to_vec(), bits(va), bits(di)),
                "{opts:?}"
            );
            assert_eq!(solver.to_matrix(), matrix);
            assert_eq!(bits(&solver.solve(&b).unwrap()), bits(&x));
            assert_eq!(solver.rank(), 1);
            assert!(solver.w.iter().all(|&v| v == 0.0), "scratch left dirty");
            // The solver still takes updates.
            solver.update_edge(30, last, -1.0).unwrap();
            let x = solver.solve(&b).unwrap();
            assert!(solver.to_matrix().residual_norm(&x, &b) < 1e-9);
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
        // The incremental path must stay consistent with a from-scratch
        // AMD+supernodal refactorization, including across a rebase.
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
