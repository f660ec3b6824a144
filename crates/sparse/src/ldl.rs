//! Sparse LDLᵀ (Cholesky-type) factorization for SPD matrices.
//!
//! Two numeric engines share one entry point, [`LdlFactor::factor_with`]:
//!
//! * a scalar up-looking factorization in the style of Davis' `LDL` package —
//!   a symbolic pass computes the elimination tree and column counts, then a
//!   numeric pass computes one row of `L` at a time using the tree to find
//!   each row's sparsity pattern; and
//! * a blocked supernodal factorization ([`crate::supernodal`]) that groups
//!   columns with nested patterns into dense panels and applies
//!   cache-contiguous update kernels — the default, and the faster choice on
//!   the mesh-structured conductance and stiffness matrices this workspace
//!   produces.
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
use crate::panel::{self, KernelBackend, PanelKernels};
use crate::supernodal::{self, SolvePlan, Symbolic, TOP};

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
    /// independent elimination-tree subtrees, [`LdlFactor::solve_many`]
    /// blocks of right-hand sides). Never changes results, only wall time.
    pub threads: usize,
    /// Dense-panel microkernel backend for the supernodal factor and the
    /// blocked solves ([`crate::panel`]). Every backend produces identical
    /// bytes, so this — like `threads` — only moves wall time.
    pub kernels: KernelBackend,
    /// Right-hand sides per panel in [`LdlFactor::solve_many`]. Panels of
    /// this width share one forward/diagonal/backward sweep; the default
    /// (8) matches the blocked backend's row-unroll width. Re-blocking
    /// never changes solution bits.
    pub rhs_panel: usize,
    /// Cap on supernode width in the supernodal engine. Wider panels
    /// amortize better but waste work on patterns that only almost match;
    /// the default (48) keeps the dense diagonal block (48×48 f64 ≈ 18 KiB)
    /// comfortably in L1/L2. Changes the supernode partition — and thus
    /// panel shapes — but never the factor's CSC layout or values.
    pub max_supernode_width: usize,
}

/// Default [`FactorOptions::rhs_panel`].
pub const DEFAULT_RHS_PANEL: usize = 8;

/// Default [`FactorOptions::max_supernode_width`].
pub const DEFAULT_MAX_SUPERNODE_WIDTH: usize = 48;

impl Default for FactorOptions {
    fn default() -> Self {
        FactorOptions {
            ordering: Ordering::Amd,
            supernodal: true,
            threads: 1,
            kernels: KernelBackend::Auto,
            rhs_panel: DEFAULT_RHS_PANEL,
            max_supernode_width: DEFAULT_MAX_SUPERNODE_WIDTH,
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

    /// Returns the options with a different microkernel backend.
    pub fn with_kernels(mut self, kernels: KernelBackend) -> Self {
        self.kernels = kernels;
        self
    }

    /// The scalar RCM configuration the workspace used before the supernodal
    /// engine existed: bit-identical to the historical scalar-RCM path, so
    /// hot loops whose sample streams must not move pin themselves to it
    /// (including pinning the reference kernel backend, although backends
    /// are bit-identical anyway).
    pub fn scalar_rcm() -> Self {
        FactorOptions {
            ordering: Ordering::Rcm,
            supernodal: false,
            threads: 1,
            kernels: KernelBackend::Scalar,
            rhs_panel: DEFAULT_RHS_PANEL,
            max_supernode_width: DEFAULT_MAX_SUPERNODE_WIDTH,
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
    /// Microkernel backend for the blocked solve sweeps.
    kernels: KernelBackend,
    /// Right-hand sides per [`LdlFactor::solve_many`] panel.
    rhs_panel: usize,
}

impl LdlFactor {
    /// Factors `a` under the given [`FactorOptions`]. This is the single
    /// entry point for every ordering, numeric engine, and microkernel
    /// backend combination.
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
            supernodal::analyze(&pa, opts.supernodal, opts.max_supernode_width)
        };
        let n = sym.n();
        let (row_idx, values, diag) = {
            let _span = obs::span("numeric");
            if opts.supernodal {
                // Dispatch once to a concrete backend so the panel kernels
                // monomorphize (and inline) instead of going through the
                // vtable on every dense update.
                match opts.kernels.resolve() {
                    KernelBackend::Scalar => supernodal::factor_numeric(&pa, &sym, &panel::SCALAR)?,
                    _ => supernodal::factor_numeric(&pa, &sym, &panel::BLOCKED)?,
                }
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
            kernels: opts.kernels,
            rhs_panel: opts.rhs_panel.max(1),
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

    /// Number of off-diagonal nonzeros in `L` (the fill-in measure reported
    /// by the ordering ablation bench).
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

    /// Solves for several right-hand sides with a blocked kernel: panels of
    /// up to [`FactorOptions::rhs_panel`] vectors share one
    /// forward/diagonal/backward sweep (one pass over the factor per panel
    /// instead of one per vector), and panels run on the configured worker
    /// threads. Each solution is bit-identical to a scalar sweep of the
    /// same factor for any thread count, panel width, or kernel backend.
    ///
    /// # Panics
    ///
    /// Panics if any right-hand side has the wrong length.
    pub fn solve_many(&self, rhs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        if rhs.is_empty() {
            return Vec::new();
        }
        let _span = obs::span("solve");
        let blocks: Vec<Vec<Vec<f64>>> =
            parallel_map_chunks(rhs.len(), self.rhs_panel, self.threads, |_, range| {
                self.solve_block(&rhs[range])
            });
        blocks.into_iter().flatten().collect()
    }

    /// One blocked sweep over `k <= rhs_panel` right-hand sides held in a
    /// row-major `n x k` panel. The k columns are independent, so the row
    /// operations route through the microkernel backend, which may
    /// vectorize across them.
    fn solve_block(&self, rhs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        // One concrete dispatch per panel; the per-nonzero row kernels then
        // inline instead of paying a virtual call each.
        match self.kernels.resolve() {
            KernelBackend::Scalar => self.solve_block_with(&panel::SCALAR, rhs),
            _ => self.solve_block_with(&panel::BLOCKED, rhs),
        }
    }

    fn solve_block_with<K: PanelKernels + ?Sized>(
        &self,
        kern: &K,
        rhs: &[Vec<f64>],
    ) -> Vec<Vec<f64>> {
        let k = rhs.len();
        let n = self.n;
        let mut panel = vec![0.0f64; n * k];
        for (c, b) in rhs.iter().enumerate() {
            assert_eq!(b.len(), n, "rhs length mismatch");
            for new in 0..n {
                panel[new * k + c] = b[self.perm.map(new)];
            }
        }
        // Forward: row j of the panel updates strictly-later rows.
        for j in 0..n {
            let (head, tail) = panel.split_at_mut((j + 1) * k);
            let xj = &head[j * k..];
            for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                let r = self.row_idx[p] as usize;
                let row = &mut tail[(r - j - 1) * k..(r - j) * k];
                kern.row_update(row, xj, self.values[p]);
            }
        }
        // Diagonal.
        for j in 0..n {
            kern.row_div(&mut panel[j * k..(j + 1) * k], self.diag[j]);
        }
        // Backward: row j accumulates from strictly-later rows.
        for j in (0..n).rev() {
            let (head, tail) = panel.split_at_mut((j + 1) * k);
            let xj = &mut head[j * k..];
            for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                let r = self.row_idx[p] as usize;
                let row = &tail[(r - j - 1) * k..(r - j) * k];
                kern.row_update(xj, row, self.values[p]);
            }
        }
        // Unpermute each column.
        (0..k)
            .map(|c| {
                let mut out = vec![0.0f64; n];
                for new in 0..n {
                    out[self.perm.map(new)] = panel[new * k + c];
                }
                out
            })
            .collect()
    }

    /// The raw CSC parts of the permuted factor: `(col_ptr, row_idx,
    /// values, diag)`. Exposed for byte-level determinism checks (the
    /// backend bit-identity suites compare these arrays directly) and
    /// diagnostics.
    pub fn factor_parts(&self) -> (&[usize], &[u32], &[f64], &[f64]) {
        (&self.col_ptr, &self.row_idx, &self.values, &self.diag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::TripletMatrix;
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

    #[test]
    fn solve_many_matches_individual_solves_bitwise() {
        let a = laplacian_2d(9, 8);
        let f = LdlFactor::factor_with(&a, &FactorOptions::default().with_threads(4)).unwrap();
        let rhs: Vec<Vec<f64>> = (0..19)
            .map(|s| (0..72).map(|i| ((i + s * 7) % 13) as f64 - 6.0).collect())
            .collect();
        let batched = f.solve_many(&rhs);
        assert_eq!(batched.len(), rhs.len());
        for (b, x) in rhs.iter().zip(&batched) {
            assert!(a.residual_norm(x, b) < 1e-9);
        }
        // Blocked panels are bit-stable against re-blocking: a panel of one.
        let single = f.solve_block(std::slice::from_ref(&rhs[3]));
        assert_eq!(single[0], batched[3]);
    }

    #[test]
    fn kernel_backends_factor_and_solve_bit_identically() {
        let a = laplacian_2d(40, 33);
        let b: Vec<f64> = (0..40 * 33).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let factor =
            |k| LdlFactor::factor_with(&a, &FactorOptions::default().with_kernels(k)).unwrap();
        let fs = factor(KernelBackend::Scalar);
        let fb = factor(KernelBackend::Blocked);
        assert_eq!(fs.col_ptr, fb.col_ptr);
        assert_eq!(fs.row_idx, fb.row_idx);
        assert_eq!(fs.values, fb.values, "factor values must be bit-identical");
        assert_eq!(fs.diag, fb.diag);
        assert_eq!(fs.solve(&b), fb.solve(&b));
        // Auto must resolve to one of the two, not a third behavior.
        let fa = factor(KernelBackend::Auto);
        assert_eq!(fa.values, fb.values);
    }

    #[test]
    fn rhs_panel_and_width_cap_tunables_are_honored() {
        let a = laplacian_2d(14, 13);
        let rhs: Vec<Vec<f64>> = (0..11)
            .map(|s| (0..182).map(|i| ((i + s * 5) % 9) as f64 - 4.0).collect())
            .collect();
        let base = LdlFactor::factor_with(&a, &FactorOptions::default()).unwrap();
        // Any panel width re-blocking keeps solve_many bit-identical.
        for rhs_panel in [1, 3, 8, 64] {
            let f = LdlFactor::factor_with(
                &a,
                &FactorOptions {
                    rhs_panel,
                    ..FactorOptions::default()
                },
            )
            .unwrap();
            assert_eq!(
                f.solve_many(&rhs),
                base.solve_many(&rhs),
                "panel={rhs_panel}"
            );
        }
        // A width cap of 1 forces single-column supernodes. The partition
        // (and hence FP grouping) changes, so values agree to rounding, not
        // bitwise — but the CSC layout is identical and, for a fixed cap,
        // backends still agree bitwise.
        let narrow_opts = FactorOptions {
            max_supernode_width: 1,
            ..FactorOptions::default()
        };
        let narrow = LdlFactor::factor_with(&a, &narrow_opts).unwrap();
        assert!(narrow.supernode_ptr().windows(2).all(|w| w[1] - w[0] == 1));
        assert!(base.supernode_ptr().windows(2).any(|w| w[1] - w[0] > 1));
        assert_eq!(narrow.col_ptr, base.col_ptr);
        assert_eq!(narrow.row_idx, base.row_idx);
        for (u, v) in narrow.values.iter().zip(&base.values) {
            assert!((u - v).abs() < 1e-12, "{u} vs {v}");
        }
        let narrow_scalar =
            LdlFactor::factor_with(&a, &narrow_opts.with_kernels(KernelBackend::Scalar)).unwrap();
        assert_eq!(narrow.values, narrow_scalar.values);
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
            rhs in proptest::collection::vec(
                proptest::collection::vec(-10.0f64..10.0, 24), 1..6),
        ) {
            // The tentpole guarantee: scalar and blocked microkernels give
            // byte-for-byte the same factor CSC arrays and solve_many
            // panels on arbitrary SPD systems.
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
            let factor = |k: KernelBackend| {
                LdlFactor::factor_with(&a, &FactorOptions::default().with_kernels(k)).unwrap()
            };
            let fs = factor(KernelBackend::Scalar);
            let fb = factor(KernelBackend::Blocked);
            let (cp_s, ri_s, va_s, di_s) = fs.factor_parts();
            let (cp_b, ri_b, va_b, di_b) = fb.factor_parts();
            prop_assert_eq!(cp_s, cp_b);
            prop_assert_eq!(ri_s, ri_b);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(va_s), bits(va_b));
            prop_assert_eq!(bits(di_s), bits(di_b));
            let xs = fs.solve_many(&rhs);
            let xb = fb.solve_many(&rhs);
            for (u, v) in xs.iter().zip(&xb) {
                prop_assert_eq!(bits(u), bits(v));
            }
        }
    }
}
