//! Sparse LDLᵀ (Cholesky-type) factorization for SPD matrices.
//!
//! Two numeric engines share one entry point, [`LdlFactor::factor_with`]:
//!
//! * a scalar up-looking factorization in the style of Davis' `LDL` package —
//!   a symbolic pass computes the elimination tree and column counts, then a
//!   numeric pass computes one row of `L` at a time using the tree to find
//!   each row's sparsity pattern; and
//! * a blocked supernodal factorization (the crate-private `supernodal`
//!   module) that groups columns with nested patterns into dense panels and
//!   applies cache-contiguous update kernels — the default, and the faster
//!   choice on the mesh-structured conductance and stiffness matrices this
//!   workspace produces.
//!
//! [`FactorOptions`] selects the fill-reducing ordering (natural, reverse
//! Cuthill–McKee, or minimum degree via [`crate::ordering::amd`]), the numeric
//! engine, and the worker-thread count for the triangular solves. Whatever the
//! combination, results are deterministic: the ordering and supernode
//! partition are pure functions of the sparsity pattern, and the parallel
//! solve folds per-subtree contributions in a fixed order, so bits never
//! depend on thread count.

use emgrid_runtime::{obs, parallel_map_chunks};

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::ordering::{amd, nested_dissection, reverse_cuthill_mckee, Permutation};
use crate::panel::BlockedKernels;
use crate::supernodal::{self, SolvePlan, Symbolic, MAX_SUPERNODE_WIDTH, TOP};

/// Fill-reducing ordering applied before factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ordering {
    /// Factor the matrix as given.
    Natural,
    /// Reverse Cuthill–McKee: bandwidth-reducing, good on path-like meshes.
    Rcm,
    /// Minimum degree (the AMD family): the lowest fill on 2-D/3-D meshes
    /// and the default.
    #[default]
    Amd,
    /// Nested dissection: level-set bisection with vertex separators
    /// ordered last. Asymptotically the right ordering for chip-scale
    /// grids (`O(n log n)` fill on planar meshes), at a higher ordering
    /// cost than AMD.
    Nd,
}

impl Ordering {
    /// Parses a CLI/spec label (`natural`, `rcm`, `amd`, `nd`).
    pub fn parse(s: &str) -> Option<Ordering> {
        match s {
            "natural" => Some(Ordering::Natural),
            "rcm" => Some(Ordering::Rcm),
            "amd" => Some(Ordering::Amd),
            "nd" => Some(Ordering::Nd),
            _ => None,
        }
    }

    /// The canonical lower-case label (inverse of [`Ordering::parse`]).
    pub fn label(&self) -> &'static str {
        match self {
            Ordering::Natural => "natural",
            Ordering::Rcm => "rcm",
            Ordering::Amd => "amd",
            Ordering::Nd => "nd",
        }
    }
}

/// Configuration for [`LdlFactor::factor_with`].
///
/// The default — AMD ordering, supernodal numeric, one thread — is the right
/// choice for one-shot solves of mesh-structured systems. Callers batching
/// many solves against one factor set `threads`; callers factoring tiny
/// systems in a hot loop (where ordering quality is irrelevant and setup cost
/// is not) pick `Rcm` or `Natural` with `supernodal: false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FactorOptions {
    /// Fill-reducing ordering.
    pub ordering: Ordering,
    /// Use the blocked supernodal numeric engine instead of the scalar
    /// up-looking one. Both produce the same factor layout; the supernodal
    /// engine is faster on matrices with meaningful fill.
    pub supernodal: bool,
    /// Worker threads for the triangular solves ([`LdlFactor::solve`] uses
    /// independent elimination-tree subtrees). Never changes results, only
    /// wall time.
    pub threads: usize,
}

impl Default for FactorOptions {
    fn default() -> Self {
        FactorOptions {
            ordering: Ordering::Amd,
            supernodal: true,
            threads: 1,
        }
    }
}

impl FactorOptions {
    /// Returns the options with a different ordering.
    pub fn with_ordering(mut self, ordering: Ordering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Returns the options with a different solve-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The scalar RCM configuration the workspace used before the supernodal
    /// engine existed: bit-identical to the historical scalar-RCM path, so
    /// hot loops whose sample streams must not move pin themselves to it.
    pub fn scalar_rcm() -> Self {
        FactorOptions {
            ordering: Ordering::Rcm,
            supernodal: false,
            threads: 1,
        }
    }
}

/// A factorization `P A Pᵀ = L D Lᵀ` of a sparse SPD matrix.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), emgrid_sparse::SparseError> {
/// use emgrid_sparse::{FactorOptions, TripletMatrix, LdlFactor};
///
/// // 1-D Laplacian with Dirichlet ends: tridiag(-1, 2, -1).
/// let n = 10;
/// let mut t = TripletMatrix::new(n, n);
/// for i in 0..n {
///     t.push(i, i, 2.0);
///     if i + 1 < n {
///         t.push_sym(i, i + 1, -1.0);
///     }
/// }
/// let a = t.to_csr();
/// let f = LdlFactor::factor_with(&a, &FactorOptions::default())?;
/// let b = vec![1.0; n];
/// let x = f.solve(&b);
/// assert!(a.residual_norm(&x, &b) < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LdlFactor {
    n: usize,
    /// Column pointers of L (strictly lower triangular part), CSC.
    col_ptr: Vec<usize>,
    /// Row indices of L.
    row_idx: Vec<u32>,
    /// Values of L.
    values: Vec<f64>,
    /// Diagonal matrix D.
    diag: Vec<f64>,
    /// Fill-reducing permutation applied to the matrix (new -> old).
    perm: Permutation,
    /// Supernode column boundaries, when the supernodal engine ran.
    sn_ptr: Vec<usize>,
    /// Structural subtree plan for the parallel solve (large systems only).
    plan: Option<SolvePlan>,
    /// Worker threads for the solve sweeps.
    threads: usize,
}

impl LdlFactor {
    /// Factors `a` under the given [`FactorOptions`]. This is the single
    /// entry point for every ordering and numeric engine combination.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] for non-square input and
    /// [`SparseError::NotPositiveDefinite`] if a pivot is non-positive (the
    /// reported column index is in the permuted ordering).
    pub fn factor_with(a: &CsrMatrix, opts: &FactorOptions) -> Result<Self, SparseError> {
        if a.rows() != a.cols() {
            return Err(SparseError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let perm = {
            let _span = obs::span("order");
            match opts.ordering {
                Ordering::Natural => Permutation::identity(a.rows()),
                Ordering::Rcm => reverse_cuthill_mckee(a),
                Ordering::Amd => amd(a),
                Ordering::Nd => nested_dissection(a),
            }
        };
        Self::factor_permuted(a, perm, opts)
    }

    /// [`LdlFactor::factor_with`] minus the ordering phase: factors `a`
    /// under `perm`. When `perm` comes from an earlier factor, under the
    /// same options, of a matrix with the same pattern, the result has the
    /// same bits as `factor_with`: every [`Ordering`] is a function of the
    /// pattern alone.
    pub(crate) fn factor_permuted(
        a: &CsrMatrix,
        perm: Permutation,
        opts: &FactorOptions,
    ) -> Result<Self, SparseError> {
        if perm.len() != a.rows() {
            return Err(SparseError::DimensionMismatch {
                expected: a.rows(),
                found: perm.len(),
            });
        }
        let pa = if perm.as_slice().iter().enumerate().all(|(i, &v)| i == v) {
            a.clone()
        } else {
            a.permute_symmetric(&perm)
        };

        let sym = {
            let _span = obs::span("symbolic");
            supernodal::analyze(&pa, opts.supernodal, MAX_SUPERNODE_WIDTH)
        };
        let n = sym.n();
        let (row_idx, values, diag) = {
            let _span = obs::span("numeric");
            if opts.supernodal {
                supernodal::factor_numeric(&pa, &sym, &BlockedKernels)?
            } else {
                Self::factor_numeric_scalar(&pa, &sym)?
            }
        };
        let plan = supernodal::build_solve_plan(&sym.parent);
        let Symbolic {
            col_ptr, sn_ptr, ..
        } = sym;
        Ok(LdlFactor {
            n,
            col_ptr,
            row_idx,
            values,
            diag,
            perm,
            sn_ptr,
            plan,
            threads: opts.threads.max(1),
        })
    }

    /// Scalar up-looking numeric phase: compute row k of L against columns
    /// `< k`, using the elimination tree to enumerate each row's pattern.
    fn factor_numeric_scalar(
        pa: &CsrMatrix,
        sym: &Symbolic,
    ) -> Result<supernodal::NumericFactor, SparseError> {
        let n = sym.n();
        let none = usize::MAX;
        let col_ptr = &sym.col_ptr;
        let parent = &sym.parent;
        let nnz = col_ptr[n];
        let mut row_idx = vec![0u32; nnz];
        let mut values = vec![0.0f64; nnz];
        let mut diag = vec![0.0f64; n];

        let mut y = vec![0.0f64; n];
        let mut pattern = vec![0usize; n];
        let mut stack = vec![0usize; n];
        let mut next = col_ptr[..n].to_vec(); // next free slot in each column
        let mut flag = vec![none; n];
        for k in 0..n {
            let mut top = n;
            flag[k] = k;
            let mut dk = 0.0;
            for (i, v) in pa.row(k) {
                match i.cmp(&k) {
                    std::cmp::Ordering::Less => {
                        y[i] += v;
                        let mut len = 0usize;
                        let mut j = i;
                        while flag[j] != k {
                            pattern[len] = j;
                            len += 1;
                            flag[j] = k;
                            j = parent[j];
                        }
                        while len > 0 {
                            len -= 1;
                            top -= 1;
                            stack[top] = pattern[len];
                        }
                    }
                    std::cmp::Ordering::Equal => dk = v,
                    std::cmp::Ordering::Greater => break,
                }
            }
            // Sparse triangular solve over the pattern (in etree order).
            for &i in &stack[top..n] {
                let yi = y[i];
                y[i] = 0.0;
                for p in col_ptr[i]..next[i] {
                    y[row_idx[p] as usize] -= values[p] * yi;
                }
                let di = diag[i];
                let lki = yi / di;
                dk -= lki * yi;
                row_idx[next[i]] = k as u32;
                values[next[i]] = lki;
                next[i] += 1;
            }
            if dk <= 0.0 || !dk.is_finite() {
                return Err(SparseError::NotPositiveDefinite {
                    column: k,
                    pivot: dk,
                });
            }
            diag[k] = dk;
        }
        Ok((row_idx, values, diag))
    }

    /// Dimension of the factored matrix.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the factored matrix is empty (0 x 0).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of off-diagonal nonzeros in `L` (the fill-in measure the
    /// ordering tests compare).
    pub fn l_nnz(&self) -> usize {
        self.values.len()
    }

    /// The fill-reducing permutation used (new -> old).
    pub fn permutation(&self) -> &Permutation {
        &self.perm
    }

    /// Supernode column boundaries of the permuted factor, when the
    /// supernodal engine ran: supernode `s` spans columns
    /// `sn[s]..sn[s + 1]`. Empty for scalar factors. The partition is a pure
    /// function of the matrix pattern and ordering — never of thread count.
    pub fn supernode_ptr(&self) -> &[usize] {
        &self.sn_ptr
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        let _span = obs::span("solve");
        let mut x = self.perm.apply(b);
        match &self.plan {
            Some(plan) => self.solve_planned(&mut x, plan),
            None => self.solve_permuted_in_place(&mut x),
        }
        self.perm.apply_inverse(&x)
    }

    /// Solves in the permuted coordinate system, in place (no allocations
    /// beyond the caller's buffer). `x` holds `P b` on entry and `P x` on
    /// exit. Prefer [`LdlFactor::solve`] unless you are batching solves.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the matrix dimension.
    pub fn solve_permuted_in_place(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n, "rhs length mismatch");
        // Forward: L z = b.
        for j in 0..self.n {
            let xj = x[j];
            if xj != 0.0 {
                for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                    x[self.row_idx[p] as usize] -= self.values[p] * xj;
                }
            }
        }
        // Diagonal: w = D^{-1} z.
        for j in 0..self.n {
            x[j] /= self.diag[j];
        }
        // Backward: Lᵀ x = w.
        for j in (0..self.n).rev() {
            let mut acc = x[j];
            for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                acc -= self.values[p] * x[self.row_idx[p] as usize];
            }
            x[j] = acc;
        }
    }

    /// Parallel triangular sweeps over independent elimination-tree
    /// subtrees. Every entry of `x` is produced by exactly one deterministic
    /// expression and cross-subtree contributions fold in subtree order, so
    /// the result is bit-identical for any thread count — and because the
    /// plan itself is structural, a factor of a given matrix always takes
    /// this same path regardless of how many workers execute it.
    fn solve_planned(&self, x: &mut [f64], plan: &SolvePlan) {
        let nsub = plan.subtree_count();
        let top_len = plan.top_cols.len();

        // Forward within subtrees: each returns its own solution values plus
        // a dense vector of contributions to the shared top separator.
        let xr: &[f64] = x;
        let parts: Vec<(Vec<f64>, Vec<f64>)> =
            parallel_map_chunks(nsub, 1, self.threads, |c, _| {
                let cols = plan.sub_cols(c);
                let mut loc = vec![0.0f64; cols.len()];
                let mut topadd = vec![0.0f64; top_len];
                for (li, &j) in cols.iter().enumerate() {
                    let j = j as usize;
                    let zj = xr[j] + loc[li];
                    loc[li] = zj;
                    if zj != 0.0 {
                        for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                            let r = self.row_idx[p] as usize;
                            let v = self.values[p] * zj;
                            if plan.home[r] == c as u32 {
                                loc[plan.slot[r] as usize] -= v;
                            } else {
                                // Rows of a column are etree ancestors, so a
                                // foreign row is necessarily in the top.
                                topadd[plan.slot[r] as usize] -= v;
                            }
                        }
                    }
                }
                (loc, topadd)
            });
        for (c, (loc, topadd)) in parts.iter().enumerate() {
            for (li, &j) in plan.sub_cols(c).iter().enumerate() {
                x[j as usize] = loc[li];
            }
            for (t, &j) in plan.top_cols.iter().enumerate() {
                x[j as usize] += topadd[t];
            }
        }
        // Forward over the top separator (its columns only reach other top
        // columns: the top is ancestor-closed).
        for &j in &plan.top_cols {
            let j = j as usize;
            let zj = x[j];
            if zj != 0.0 {
                for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                    x[self.row_idx[p] as usize] -= self.values[p] * zj;
                }
            }
        }
        // Diagonal.
        for j in 0..self.n {
            x[j] /= self.diag[j];
        }
        // Backward over the top separator first...
        for &j in plan.top_cols.iter().rev() {
            let j = j as usize;
            let mut acc = x[j];
            for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                acc -= self.values[p] * x[self.row_idx[p] as usize];
            }
            x[j] = acc;
        }
        // ...then independently within each subtree, reading only finalized
        // top entries and the subtree's own (descending) results.
        let xr: &[f64] = x;
        let parts: Vec<Vec<f64>> = parallel_map_chunks(nsub, 1, self.threads, |c, _| {
            let cols = plan.sub_cols(c);
            let mut loc: Vec<f64> = cols.iter().map(|&j| xr[j as usize]).collect();
            for li in (0..cols.len()).rev() {
                let j = cols[li] as usize;
                let mut acc = loc[li];
                for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                    let r = self.row_idx[p] as usize;
                    let xv = if plan.home[r] == c as u32 {
                        loc[plan.slot[r] as usize]
                    } else {
                        debug_assert_eq!(plan.home[r], TOP);
                        xr[r]
                    };
                    acc -= self.values[p] * xv;
                }
                loc[li] = acc;
            }
            loc
        });
        for (c, loc) in parts.iter().enumerate() {
            for (li, &j) in plan.sub_cols(c).iter().enumerate() {
                x[j as usize] = loc[li];
            }
        }
    }

    /// The raw CSC parts of the permuted factor: `(col_ptr, row_idx,
    /// values, diag)`. Exposed for byte-level determinism checks (the
    /// bit-identity tests compare these arrays directly) and diagnostics.
    pub fn factor_parts(&self) -> (&[usize], &[u32], &[f64], &[f64]) {
        (&self.col_ptr, &self.row_idx, &self.values, &self.diag)
    }

    /// [`LdlFactor::factor_parts`] with the numeric arrays writable, for
    /// in-place updates that keep the pattern (and so the solve plan).
    pub(crate) fn factor_parts_mut(&mut self) -> (&[usize], &[u32], &mut [f64], &mut [f64]) {
        (
            &self.col_ptr,
            &self.row_idx,
            &mut self.values,
            &mut self.diag,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::TripletMatrix;
    use crate::panel::ScalarKernels;
    use proptest::prelude::*;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i + 1 < n {
                t.push_sym(i, i + 1, -1.0);
            }
        }
        t.to_csr()
    }

    fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix {
        let id = |x: usize, y: usize| y * nx + x;
        let mut t = TripletMatrix::new(nx * ny, nx * ny);
        for y in 0..ny {
            for x in 0..nx {
                t.push(id(x, y), id(x, y), 4.0 + 0.01);
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

    fn opts(ordering: Ordering, supernodal: bool) -> FactorOptions {
        FactorOptions {
            ordering,
            supernodal,
            ..FactorOptions::default()
        }
    }

    #[test]
    fn solves_tridiagonal_exactly() {
        let a = laplacian_1d(50);
        let f = LdlFactor::factor_with(&a, &opts(Ordering::Natural, false)).unwrap();
        let b: Vec<f64> = (0..50).map(|i| (i as f64).sin()).collect();
        let x = f.solve(&b);
        assert!(a.residual_norm(&x, &b) < 1e-10);
    }

    #[test]
    fn all_orderings_and_engines_solve_the_same_system() {
        let a = laplacian_2d(7, 9);
        let b: Vec<f64> = (0..63).map(|i| (i % 5) as f64 - 2.0).collect();
        let reference = LdlFactor::factor_with(&a, &opts(Ordering::Natural, false))
            .unwrap()
            .solve(&b);
        for ordering in [
            Ordering::Natural,
            Ordering::Rcm,
            Ordering::Amd,
            Ordering::Nd,
        ] {
            for supernodal in [false, true] {
                let x = LdlFactor::factor_with(&a, &opts(ordering, supernodal))
                    .unwrap()
                    .solve(&b);
                for (u, v) in reference.iter().zip(&x) {
                    assert!(
                        (u - v).abs() < 1e-9,
                        "{ordering:?} supernodal={supernodal}: {u} vs {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn supernodal_factor_matches_scalar_layout_and_values() {
        // Both engines must emit the same CSC structure; values agree to
        // rounding (the update orders differ).
        let a = laplacian_2d(12, 11);
        for ordering in [Ordering::Rcm, Ordering::Amd, Ordering::Nd] {
            let s = LdlFactor::factor_with(&a, &opts(ordering, false)).unwrap();
            let p = LdlFactor::factor_with(&a, &opts(ordering, true)).unwrap();
            assert_eq!(s.col_ptr, p.col_ptr);
            assert_eq!(s.row_idx, p.row_idx);
            for (u, v) in s.values.iter().zip(&p.values) {
                assert!((u - v).abs() < 1e-12, "{u} vs {v}");
            }
            for (u, v) in s.diag.iter().zip(&p.diag) {
                assert!((u - v).abs() < 1e-12, "{u} vs {v}");
            }
            assert!(!p.supernode_ptr().is_empty());
            assert!(s.supernode_ptr().is_empty());
        }
    }

    #[test]
    fn factor_is_bit_identical_across_thread_counts() {
        // The ordering, supernode partition, factor bits, and solve bits must
        // not depend on the solve-thread count. Size pushes past the parallel
        // plan threshold so the planned path is actually exercised.
        let a = laplacian_2d(80, 70);
        let b: Vec<f64> = (0..80 * 70).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let f1 = LdlFactor::factor_with(&a, &FactorOptions::default().with_threads(1)).unwrap();
        let f8 = LdlFactor::factor_with(&a, &FactorOptions::default().with_threads(8)).unwrap();
        assert_eq!(f1.permutation().as_slice(), f8.permutation().as_slice());
        assert_eq!(f1.supernode_ptr(), f8.supernode_ptr());
        assert_eq!(f1.values, f8.values);
        assert!(f1.plan.is_some(), "plan should trigger at this size");
        let x1 = f1.solve(&b);
        let x8 = f8.solve(&b);
        assert_eq!(x1, x8, "planned solve must be bit-identical across threads");
        assert!(a.residual_norm(&x1, &b) < 1e-8);
    }

    /// The production supernodal factor's numeric arrays, recomputed under
    /// the test-only reference kernels on the same permuted matrix and a
    /// supernode partition capped at `max_width`.
    fn reference_factor(
        a: &CsrMatrix,
        f: &LdlFactor,
        max_width: usize,
    ) -> supernodal::NumericFactor {
        let pa = a.permute_symmetric(f.permutation());
        let sym = supernodal::analyze(&pa, true, max_width);
        supernodal::factor_numeric(&pa, &sym, &ScalarKernels).unwrap()
    }

    #[test]
    fn supernodal_factor_matches_the_reference_kernels_bitwise() {
        let a = laplacian_2d(40, 33);
        let f = LdlFactor::factor_with(&a, &FactorOptions::default()).unwrap();
        let (row_idx, values, diag) = reference_factor(&a, &f, MAX_SUPERNODE_WIDTH);
        assert_eq!(f.row_idx, row_idx);
        assert_eq!(f.values, values, "factor values must be bit-identical");
        assert_eq!(f.diag, diag);
    }

    #[test]
    fn supernode_width_cap_is_honored() {
        let a = laplacian_2d(14, 13);
        let base = LdlFactor::factor_with(&a, &FactorOptions::default()).unwrap();
        // A width cap of 1 forces single-column supernodes. The partition
        // (and hence FP grouping) changes, so values agree to rounding, not
        // bitwise — but the CSC layout is identical and, for a fixed cap,
        // the blocked kernels still match the reference bitwise.
        let pa = a.permute_symmetric(base.permutation());
        let narrow = supernodal::analyze(&pa, true, 1);
        assert!(narrow.sn_ptr.windows(2).all(|w| w[1] - w[0] == 1));
        assert!(base.supernode_ptr().windows(2).any(|w| w[1] - w[0] > 1));
        assert_eq!(narrow.col_ptr, base.col_ptr);
        let (row_idx, values, _) =
            supernodal::factor_numeric(&pa, &narrow, &BlockedKernels).unwrap();
        assert_eq!(row_idx, base.row_idx);
        for (u, v) in values.iter().zip(&base.values) {
            assert!((u - v).abs() < 1e-12, "{u} vs {v}");
        }
        let (_, reference, _) = reference_factor(&a, &base, 1);
        assert_eq!(values, reference);
    }

    #[test]
    fn detects_indefinite_matrix() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push_sym(0, 1, 2.0);
        t.push(1, 1, 1.0); // eigenvalues 3, -1
        for supernodal in [false, true] {
            let err = LdlFactor::factor_with(&t.to_csr(), &opts(Ordering::Natural, supernodal))
                .unwrap_err();
            assert!(matches!(err, SparseError::NotPositiveDefinite { .. }));
        }
    }

    #[test]
    fn rejects_non_square() {
        let t = TripletMatrix::new(2, 3);
        let err = LdlFactor::factor_with(&t.to_csr(), &FactorOptions::default()).unwrap_err();
        assert!(matches!(err, SparseError::NotSquare { .. }));
    }

    #[test]
    fn identity_factor_solves_trivially() {
        for supernodal in [false, true] {
            let a = CsrMatrix::identity(5);
            let f = LdlFactor::factor_with(&a, &opts(Ordering::Amd, supernodal)).unwrap();
            let b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
            assert_eq!(f.solve(&b), b);
            assert_eq!(f.l_nnz(), 0);
        }
    }

    #[test]
    fn empty_matrix_factors() {
        let a = CsrMatrix::identity(0);
        let f = LdlFactor::factor_with(&a, &FactorOptions::default()).unwrap();
        assert!(f.is_empty());
        assert!(f.solve(&[]).is_empty());
    }

    #[test]
    fn diagonal_matrix_divides() {
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(1, 1, 4.0);
        t.push(2, 2, 8.0);
        let f = LdlFactor::factor_with(&t.to_csr(), &FactorOptions::default()).unwrap();
        let x = f.solve(&[2.0, 4.0, 8.0]);
        assert_eq!(x, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn dense_spd_block_matches_dense_solver() {
        // Small dense SPD matrix: A = M Mᵀ + I.
        let m = [[1.0, 2.0, 0.5], [0.0, 1.5, -1.0], [2.0, 0.3, 1.0]];
        let mut t = TripletMatrix::new(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                let mut v = 0.0;
                for (k, _) in m.iter().enumerate() {
                    v += m[i][k] * m[j][k];
                }
                if i == j {
                    v += 1.0;
                }
                t.push(i, j, v);
            }
        }
        let a = t.to_csr();
        let b = vec![1.0, -2.0, 0.5];
        let xd = a.to_dense().solve(&b).unwrap();
        for supernodal in [false, true] {
            let xs = LdlFactor::factor_with(&a, &opts(Ordering::Natural, supernodal))
                .unwrap()
                .solve(&b);
            for (u, v) in xs.iter().zip(&xd) {
                assert!((u - v).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn ordering_parse_round_trips() {
        for o in [
            Ordering::Natural,
            Ordering::Rcm,
            Ordering::Amd,
            Ordering::Nd,
        ] {
            assert_eq!(Ordering::parse(o.label()), Some(o));
        }
        assert_eq!(Ordering::parse("metis"), None);
        assert_eq!(Ordering::default(), Ordering::Amd);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn factor_solve_residual_small_on_random_spd(
            diag_boost in 0.1f64..5.0,
            edges in proptest::collection::vec((0u32..15, 0u32..15, 0.01f64..1.0), 1..60),
            b in proptest::collection::vec(-10.0f64..10.0, 15),
        ) {
            // Build a weighted graph Laplacian + boost*I: always SPD.
            let n = 15;
            let mut t = TripletMatrix::new(n, n);
            let mut diag = vec![diag_boost; n];
            for (a_, b_, w) in edges {
                let (i, j) = (a_ as usize, b_ as usize);
                if i != j {
                    t.push_sym(i, j, -w);
                    diag[i] += w;
                    diag[j] += w;
                }
            }
            for (i, d) in diag.iter().enumerate() {
                t.push(i, i, *d);
            }
            let a = t.to_csr();
            let f = LdlFactor::factor_with(&a, &FactorOptions::default()).unwrap();
            let x = f.solve(&b);
            prop_assert!(a.residual_norm(&x, &b) < 1e-8);
        }

        #[test]
        fn three_orderings_agree_on_random_spd(
            diag_boost in 0.5f64..5.0,
            edges in proptest::collection::vec((0u32..20, 0u32..20, 0.01f64..1.0), 1..80),
            b in proptest::collection::vec(-10.0f64..10.0, 20),
        ) {
            // The satellite guarantee: natural, RCM, and AMD factors of the
            // same SPD system agree to <= 1e-10 relative error.
            let n = 20;
            let mut t = TripletMatrix::new(n, n);
            let mut diag = vec![diag_boost; n];
            for (a_, b_, w) in edges {
                let (i, j) = (a_ as usize, b_ as usize);
                if i != j {
                    t.push_sym(i, j, -w);
                    diag[i] += w;
                    diag[j] += w;
                }
            }
            for (i, d) in diag.iter().enumerate() {
                t.push(i, i, *d);
            }
            let a = t.to_csr();
            let norm = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>().sqrt();
            let solutions: Vec<Vec<f64>> = [
                Ordering::Natural,
                Ordering::Rcm,
                Ordering::Amd,
                Ordering::Nd,
            ]
                .iter()
                .map(|&o| {
                    LdlFactor::factor_with(&a, &FactorOptions::default().with_ordering(o))
                        .unwrap()
                        .solve(&b)
                })
                .collect();
            let scale = norm(&solutions[0]).max(1e-30);
            for other in &solutions[1..] {
                let diff: Vec<f64> = solutions[0]
                    .iter()
                    .zip(other)
                    .map(|(u, v)| u - v)
                    .collect();
                prop_assert!(norm(&diff) / scale <= 1e-10,
                    "relative gap {}", norm(&diff) / scale);
            }
        }

        #[test]
        fn kernel_backends_are_byte_identical_on_random_spd(
            diag_boost in 0.1f64..5.0,
            edges in proptest::collection::vec((0u32..24, 0u32..24, 0.01f64..1.0), 1..120),
        ) {
            // The production factor, built on the blocked kernels, has
            // byte-for-byte the CSC arrays of the reference kernels on
            // arbitrary SPD systems.
            let n = 24;
            let mut t = TripletMatrix::new(n, n);
            let mut diag = vec![diag_boost; n];
            for (a_, b_, w) in edges {
                let (i, j) = (a_ as usize, b_ as usize);
                if i != j {
                    t.push_sym(i, j, -w);
                    diag[i] += w;
                    diag[j] += w;
                }
            }
            for (i, d) in diag.iter().enumerate() {
                t.push(i, i, *d);
            }
            let a = t.to_csr();
            let f = LdlFactor::factor_with(&a, &FactorOptions::default()).unwrap();
            let (row_idx, values, diag) = reference_factor(&a, &f, MAX_SUPERNODE_WIDTH);
            let (_, ri, va, di) = f.factor_parts();
            prop_assert_eq!(ri, &row_idx[..]);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(va), bits(&values));
            prop_assert_eq!(bits(di), bits(&diag));
        }
    }
}
