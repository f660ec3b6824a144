//! Smoothed-aggregation algebraic multigrid (SA-AMG) for scalar
//! conductance matrices.
//!
//! A preconditioner for [`crate::cg::conjugate_gradient`] on the reduced
//! MNA systems of power grids: weighted graph Laplacians plus a diagonal
//! from the pinned pads, whose near-null space is the constant vector.
//! IC(0) leaves the smooth error of a chip-scale grid almost untouched, so
//! its iteration count grows with the grid; one V-cycle here removes that
//! error on a coarse level instead (20 iterations on a 270k-unknown
//! three-layer stack where IC(0) takes 151).
//!
//! The hierarchy is built level by level until at most [`MAX_COARSE`]
//! unknowns remain:
//!
//! 1. **Aggregation** — greedy three passes in index order over the
//!    matrix graph itself, with no strength threshold. (A metal layer's
//!    stripes are 1-D, so any threshold would keep only the in-stripe
//!    couplings and aggregate each stripe on its own.)
//! 2. **Tentative prolongator** — the constant vector restricted to each
//!    aggregate.
//! 3. **Prolongator smoothing** — one damped-Jacobi step,
//!    `P = (I − ω D⁻¹A) T` with `ω = 4 / (3ρ)`, built row by row straight
//!    from `A`'s rows. `ρ` is the Gershgorin bound on `ρ(D⁻¹A)`,
//!    `maxᵢ Σⱼ |aᵢⱼ| / aᵢᵢ`: exactly 2 on a weakly diagonally dominant grid
//!    matrix, and an upper bound everywhere, so the smoother below never
//!    amplifies the top of the spectrum.
//! 4. **Galerkin coarse operator** — `Pᵀ(AP)` by row-wise sparse products
//!    with ascending columns; `AP` is freed before the next level starts.
//!
//! The V-cycle smooths with degree-2 Chebyshev–Jacobi before and after
//! the coarse correction (the same polynomial both times, so the cycle is
//! a symmetric operator, as CG needs) and solves the coarsest level with
//! [`LdlFactor`]. A system at or below [`MAX_COARSE`] unknowns is therefore
//! solved exactly by one application.
//!
//! # Determinism
//!
//! Setup is sequential, so the hierarchy depends on the matrix alone. In
//! the cycle, smoothing and prolongation write each entry once from one
//! row's serial sum over [`emgrid_runtime::parallel_fill`] fixed chunks,
//! and restriction is a serial scatter: every application is
//! **bit-identical for any thread count**.

use emgrid_runtime::parallel_fill;

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::kernels::ROW_CHUNK;
use crate::ldl::{FactorOptions, LdlFactor};

/// Largest level solved directly: coarsening stops once a level has at
/// most this many unknowns, and that level is factored by [`LdlFactor`].
pub const MAX_COARSE: usize = 1000;

/// The Chebyshev smoother targets `[ρ / CHEBYSHEV_RATIO, ρ]`: the upper
/// part of the spectrum, which the coarse level cannot represent.
const CHEBYSHEV_RATIO: f64 = 10.0;

/// Coarsening that keeps more than this fraction of a level's unknowns has
/// stalled (a graph with few edges); that level becomes the coarsest.
const STALL_FRACTION: f64 = 0.9;

/// One smoothed level: its operator's inverse diagonal, the prolongator
/// from the next coarser level, and the Chebyshev step coefficients.
#[derive(Debug, Clone)]
struct Level {
    /// The level operator; `None` on the finest level, which borrows the
    /// caller's matrix.
    op: Option<CsrMatrix>,
    dinv: Vec<f64>,
    /// Prolongator `n_l × n_{l+1}`.
    p: CsrMatrix,
    cheb: Chebyshev,
}

/// Degree-2 Chebyshev iteration on `D⁻¹A` over `[lo, hi]`: `d₀ = c0·r₀`,
/// `d₁ = c1·d₀ + c2·r₁`, each `rₖ = D⁻¹(b − A xₖ)` and `xₖ₊₁ = xₖ + dₖ`.
#[derive(Debug, Clone, Copy)]
struct Chebyshev {
    c0: f64,
    c1: f64,
    c2: f64,
}

impl Chebyshev {
    fn new(rho: f64) -> Self {
        let (lo, hi) = (rho / CHEBYSHEV_RATIO, rho);
        let theta = 0.5 * (hi + lo);
        let delta = 0.5 * (hi - lo);
        let sigma = theta / delta;
        let rho0 = 1.0 / sigma;
        let rho1 = 1.0 / (2.0 * sigma - rho0);
        Chebyshev {
            c0: 1.0 / theta,
            c1: rho1 * rho0,
            c2: 2.0 * rho1 / delta,
        }
    }
}

/// A smoothed-aggregation AMG hierarchy over a borrowed fine matrix, with
/// the V-cycle's work vectors.
#[derive(Debug, Clone)]
pub struct Amg<'a> {
    fine: &'a CsrMatrix,
    levels: Vec<Level>,
    coarse: LdlFactor,
    /// Unknowns per level, finest first, coarsest last.
    sizes: Vec<usize>,
    /// Per smoothed level: the smoother's direction / residual vector.
    work: Vec<Vec<f64>>,
    /// Per coarser level: its right-hand side and correction.
    coarse_work: Vec<(Vec<f64>, Vec<f64>)>,
    threads: usize,
}

impl<'a> Amg<'a> {
    /// Builds the hierarchy for `a`. `threads` sizes the V-cycle's
    /// parallel kernels; it never changes a bit of any application.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] for non-square input and
    /// [`SparseError::NotPositiveDefinite`] if any level has a
    /// non-positive (or missing) diagonal entry or the coarsest
    /// factorization meets a non-positive pivot.
    pub fn setup(a: &'a CsrMatrix, threads: usize) -> Result<Self, SparseError> {
        if a.rows() != a.cols() {
            return Err(SparseError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let threads = threads.max(1);
        let mut levels: Vec<Level> = Vec::new();
        let mut sizes = vec![a.rows()];
        // The operator of the level being coarsened: the caller's matrix,
        // then each Galerkin product in turn.
        let mut current: Option<CsrMatrix> = None;
        loop {
            let op = current.as_ref().unwrap_or(a);
            let n = op.rows();
            let dinv = inverse_diagonal(op)?;
            if n <= MAX_COARSE {
                break;
            }
            let (agg, nc) = aggregate(op);
            if nc as f64 > STALL_FRACTION * n as f64 {
                break;
            }
            let rho = gershgorin_bound(op, &dinv);
            let p = smoothed_prolongator(op, &dinv, &agg, nc, 4.0 / (3.0 * rho));
            let coarse_op = {
                let ap = spgemm(op, &p);
                spgemm(&p.transpose(), &ap)
            };
            sizes.push(nc);
            levels.push(Level {
                op: current.take(),
                dinv,
                p,
                cheb: Chebyshev::new(rho),
            });
            current = Some(coarse_op);
        }
        let coarse =
            LdlFactor::factor_with(current.as_ref().unwrap_or(a), &FactorOptions::default())?;
        let work = sizes[..levels.len()]
            .iter()
            .map(|&n| vec![0.0; n])
            .collect();
        let coarse_work = sizes[1..]
            .iter()
            .map(|&n| (vec![0.0; n], vec![0.0; n]))
            .collect();
        Ok(Amg {
            fine: a,
            levels,
            coarse,
            sizes,
            work,
            coarse_work,
            threads,
        })
    }

    fn len(&self) -> usize {
        self.sizes[0]
    }

    /// Unknowns per level, finest first; the last level is the one
    /// factored directly.
    pub fn level_sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Applies one V-cycle: `z ≈ A⁻¹ r`.
    ///
    /// # Panics
    ///
    /// Panics if `r.len()` differs from the matrix dimension.
    pub fn apply(&mut self, r: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; self.len()];
        self.apply_into(r, &mut z);
        z
    }

    /// [`Amg::apply`] into a caller-provided buffer; `z`'s prior contents
    /// are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `r.len()` or `z.len()` differs from the matrix dimension.
    pub fn apply_into(&mut self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.len(), "rhs length mismatch");
        assert_eq!(z.len(), self.len(), "output length mismatch");
        let mut work = std::mem::take(&mut self.work);
        let mut coarse_work = std::mem::take(&mut self.coarse_work);
        self.cycle(0, r, z, &mut work, &mut coarse_work);
        self.work = work;
        self.coarse_work = coarse_work;
    }

    fn op(&self, level: usize) -> &CsrMatrix {
        self.levels[level].op.as_ref().unwrap_or(self.fine)
    }

    /// V-cycle on level `l` from a zero initial guess: `x ≈ A_l⁻¹ b`.
    /// `work` and `coarse_work` start at this level's entries.
    fn cycle(
        &self,
        l: usize,
        b: &[f64],
        x: &mut [f64],
        work: &mut [Vec<f64>],
        coarse_work: &mut [(Vec<f64>, Vec<f64>)],
    ) {
        let Some(level) = self.levels.get(l) else {
            x.copy_from_slice(&self.coarse.solve(b));
            return;
        };
        let (d, work_below) = work.split_first_mut().expect("work per level");
        let ((cb, cx), coarse_below) = coarse_work.split_first_mut().expect("coarse work");
        let (a, t) = (self.op(l), self.threads);

        level.smooth(a, b, x, d, true, t);
        // Restrict the residual, correct from the coarser level.
        parallel_fill(d, ROW_CHUNK, t, |i, di| *di = b[i] - row_dot(a, i, x));
        restrict(&level.p, d, cb);
        self.cycle(l + 1, cb, cx, work_below, coarse_below);
        let p = &level.p;
        parallel_fill(x, ROW_CHUNK, t, |i, xi| *xi += row_dot(p, i, cx));
        // The same polynomial again, so the cycle is symmetric.
        level.smooth(a, b, x, d, false, t);
    }
}

impl Level {
    /// Two Chebyshev–Jacobi steps on `A x = b` (from `x = 0` when
    /// `from_zero`), with `d` as the direction buffer.
    fn smooth(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        x: &mut [f64],
        d: &mut [f64],
        from_zero: bool,
        t: usize,
    ) {
        let (dinv, cheb) = (&self.dinv[..], self.cheb);
        // d₀ = c0·D⁻¹(b − A x), x += d₀.
        if from_zero {
            parallel_fill(d, ROW_CHUNK, t, |i, di| *di = cheb.c0 * (dinv[i] * b[i]));
            x.copy_from_slice(d);
        } else {
            {
                let x = &*x;
                parallel_fill(d, ROW_CHUNK, t, |i, di| {
                    *di = cheb.c0 * (dinv[i] * (b[i] - row_dot(a, i, x)));
                });
            }
            parallel_fill(x, ROW_CHUNK, t, |i, xi| *xi += d[i]);
        }
        // d₁ = c1·d₀ + c2·D⁻¹(b − A x), x += d₁.
        {
            let x = &*x;
            parallel_fill(d, ROW_CHUNK, t, |i, di| {
                *di = cheb.c1 * *di + cheb.c2 * (dinv[i] * (b[i] - row_dot(a, i, x)));
            });
        }
        parallel_fill(x, ROW_CHUNK, t, |i, xi| *xi += d[i]);
    }
}

/// `Σ_k A[i, k] · x[k]` in stored (ascending column) order.
#[inline]
fn row_dot(a: &CsrMatrix, i: usize, x: &[f64]) -> f64 {
    let (rp, ci, v) = (a.row_ptr(), a.col_idx(), a.values());
    let mut acc = 0.0;
    for k in rp[i]..rp[i + 1] {
        acc += v[k] * x[ci[k] as usize];
    }
    acc
}

/// `out = Pᵀ r` as a serial scatter over `P`'s rows in ascending order.
fn restrict(p: &CsrMatrix, r: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    let (rp, ci, v) = (p.row_ptr(), p.col_idx(), p.values());
    for (i, &ri) in r.iter().enumerate() {
        for k in rp[i]..rp[i + 1] {
            out[ci[k] as usize] += v[k] * ri;
        }
    }
}

/// `1 / A[i, i]` for every row.
///
/// # Errors
///
/// [`SparseError::NotPositiveDefinite`] at the first row whose diagonal is
/// missing, non-positive or not finite.
fn inverse_diagonal(a: &CsrMatrix) -> Result<Vec<f64>, SparseError> {
    (0..a.rows())
        .map(|i| {
            let d = a.get(i, i);
            if d > 0.0 && d.is_finite() {
                Ok(1.0 / d)
            } else {
                Err(SparseError::NotPositiveDefinite {
                    column: i,
                    pivot: d,
                })
            }
        })
        .collect()
}

/// Greedy three-pass aggregation in index order over `a`'s graph (every
/// stored nonzero off-diagonal entry is an edge). Returns each node's
/// aggregate and the aggregate count.
///
/// 1. A node whose neighbours are all free roots a new aggregate of
///    itself and its neighbours; a node without neighbours becomes a
///    singleton.
/// 2. A still-free node joins the aggregate of its first neighbour that
///    pass 1 placed.
/// 3. Each node left roots a new aggregate of itself and its free
///    neighbours.
fn aggregate(a: &CsrMatrix) -> (Vec<u32>, usize) {
    const FREE: u32 = u32::MAX;
    let n = a.rows();
    let (rp, ci, v) = (a.row_ptr(), a.col_idx(), a.values());
    let neighbours = |i: usize| {
        (rp[i]..rp[i + 1])
            .filter(move |&k| ci[k] as usize != i && v[k] != 0.0)
            .map(move |k| ci[k] as usize)
    };
    let mut agg = vec![FREE; n];
    let mut count = 0u32;
    for i in 0..n {
        if agg[i] == FREE && neighbours(i).all(|j| agg[j] == FREE) {
            agg[i] = count;
            for j in neighbours(i) {
                agg[j] = count;
            }
            count += 1;
        }
    }
    // Pass 2 reads pass 1's placements only, never its own.
    let first_pass = count;
    let mut joined = agg.clone();
    for i in 0..n {
        if agg[i] == FREE {
            if let Some(j) = neighbours(i).find(|&j| agg[j] < first_pass) {
                joined[i] = agg[j];
            }
        }
    }
    let mut agg = joined;
    for i in 0..n {
        if agg[i] == FREE {
            agg[i] = count;
            for j in neighbours(i) {
                if agg[j] == FREE {
                    agg[j] = count;
                }
            }
            count += 1;
        }
    }
    (agg, count as usize)
}

/// The Gershgorin bound on `ρ(D⁻¹A)`: `maxᵢ Σⱼ |aᵢⱼ| / aᵢᵢ`.
fn gershgorin_bound(a: &CsrMatrix, dinv: &[f64]) -> f64 {
    (0..a.rows())
        .map(|i| a.row(i).map(|(_, v)| v.abs()).sum::<f64>() * dinv[i])
        .fold(0.0, f64::max)
}

/// `P = (I − ω D⁻¹A) T` for the aggregate-indicator `T`, row by row: row
/// `i` collects `δᵢⱼ − ω·A[i, j]/A[i, i]` into column `agg[j]` over row
/// `i`'s stored entries.
fn smoothed_prolongator(
    a: &CsrMatrix,
    dinv: &[f64],
    agg: &[u32],
    nc: usize,
    omega: f64,
) -> CsrMatrix {
    let mut p = RowBuilder::new(a.rows(), nc, a.nnz());
    for i in 0..a.rows() {
        let scale = omega * dinv[i];
        for (j, aij) in a.row(i) {
            let w = if j == i {
                1.0 - scale * aij
            } else {
                -scale * aij
            };
            p.add(agg[j] as usize, w);
        }
        p.end_row();
    }
    p.finish()
}

/// Row-wise (Gustavson) sparse product `A·B`: row `i` sums `A[i, k]·B[k, :]`
/// over `A`'s row in stored order.
pub(crate) fn spgemm(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(a.cols(), b.rows(), "spgemm dimension mismatch");
    // Reserving the product count up front (an upper bound on the nonzeros)
    // means the output never reallocates: untouched capacity is never
    // resident, where a grown vector's copies raise the peak.
    let b_rows = b.row_ptr();
    let products = a
        .col_idx()
        .iter()
        .map(|&k| b_rows[k as usize + 1] - b_rows[k as usize])
        .sum();
    let mut c = RowBuilder::new(a.rows(), b.cols(), products);
    for i in 0..a.rows() {
        for (k, aik) in a.row(i) {
            for (j, bkj) in b.row(k) {
                c.add(j, aik * bkj);
            }
        }
        c.end_row();
    }
    c.finish()
}

/// Assembles a CSR matrix one row at a time from summed contributions:
/// each entry sums its contributions in arrival order, and each row's
/// columns come out ascending.
struct RowBuilder {
    acc: Vec<f64>,
    /// The row that last touched each column.
    mark: Vec<usize>,
    /// The current row's columns, in arrival order.
    touched: Vec<u32>,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl RowBuilder {
    /// A builder for `rows × cols` with room for `max_nnz` entries.
    fn new(rows: usize, cols: usize, max_nnz: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        RowBuilder {
            acc: vec![0.0; cols],
            mark: vec![usize::MAX; cols],
            touched: Vec::new(),
            row_ptr,
            col_idx: Vec::with_capacity(max_nnz),
            values: Vec::with_capacity(max_nnz),
        }
    }

    /// Adds `v` to column `c` of the current row.
    fn add(&mut self, c: usize, v: f64) {
        let row = self.row_ptr.len() - 1;
        if self.mark[c] != row {
            self.mark[c] = row;
            self.acc[c] = v;
            self.touched.push(c as u32);
        } else {
            self.acc[c] += v;
        }
    }

    /// Emits the current row and starts the next.
    fn end_row(&mut self) {
        self.touched.sort_unstable();
        for &c in &self.touched {
            self.col_idx.push(c);
            self.values.push(self.acc[c as usize]);
        }
        self.touched.clear();
        self.row_ptr.push(self.col_idx.len());
    }

    fn finish(self) -> CsrMatrix {
        let (rows, cols) = (self.row_ptr.len() - 1, self.acc.len());
        CsrMatrix::from_parts(rows, cols, self.row_ptr, self.col_idx, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::TripletMatrix;

    /// A 2-D grid Laplacian with a light diagonal shift (pads).
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

    fn rhs(n: usize, salt: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 31 + salt * 7) % 23) as f64 * 0.25 - 2.75)
            .collect()
    }

    #[test]
    fn hierarchy_coarsens_to_a_direct_level() {
        let a = laplacian_2d(60, 50);
        let amg = Amg::setup(&a, 1).unwrap();
        let sizes = amg.level_sizes();
        assert!(sizes.len() >= 2, "{sizes:?}");
        assert_eq!(sizes[0], 3000);
        assert!(sizes.windows(2).all(|w| w[1] < w[0]), "{sizes:?}");
        assert!(*sizes.last().unwrap() <= MAX_COARSE, "{sizes:?}");
        // Operator complexity (the smoothed levels' nonzeros over the fine
        // matrix's) bounds the hierarchy's memory and cycle cost.
        let nnz: usize = amg
            .levels
            .iter()
            .filter_map(|l| l.op.as_ref())
            .map(CsrMatrix::nnz)
            .sum();
        let oc = 1.0 + nnz as f64 / a.nnz() as f64;
        assert!((1.0..2.0).contains(&oc), "operator complexity {oc}");
    }

    #[test]
    fn v_cycle_is_symmetric() {
        // ⟨M x, y⟩ = ⟨x, M y⟩ to rounding: CG's preconditioner must be
        // a symmetric operator.
        let a = laplacian_2d(45, 40);
        let mut amg = Amg::setup(&a, 1).unwrap();
        assert!(amg.level_sizes().len() >= 2);
        let (x, y) = (rhs(a.rows(), 1), rhs(a.rows(), 2));
        let (mx, my) = (amg.apply(&x), amg.apply(&y));
        let lhs: f64 = mx.iter().zip(&y).map(|(u, v)| u * v).sum();
        let rhs_: f64 = x.iter().zip(&my).map(|(u, v)| u * v).sum();
        assert!(
            (lhs - rhs_).abs() <= 1e-12 * lhs.abs().max(rhs_.abs()),
            "{lhs} vs {rhs_}"
        );
        // And positive: ⟨M x, x⟩ > 0.
        assert!(mx.iter().zip(&x).map(|(u, v)| u * v).sum::<f64>() > 0.0);
    }

    #[test]
    fn preconditioned_cg_matches_the_direct_solve() {
        use crate::cg::{conjugate_gradient, CgOptions, Preconditioner};
        let a = laplacian_2d(70, 64);
        let b = rhs(a.rows(), 3);
        let direct = LdlFactor::factor_with(&a, &FactorOptions::default())
            .unwrap()
            .solve(&b);
        let opts = CgOptions {
            tolerance: 1e-12,
            preconditioner: Preconditioner::SmoothedAggregation,
            ..CgOptions::default()
        };
        let out = conjugate_gradient(&a, &b, None, &opts).unwrap();
        let peak = direct.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (u, v) in out.x.iter().zip(&direct) {
            assert!((u - v).abs() <= 1e-8 * peak, "{u} vs {v}");
        }
    }

    #[test]
    fn small_or_uncoarsenable_systems_are_solved_exactly() {
        // At most MAX_COARSE unknowns, or a graph too sparse to aggregate
        // (here no couplings at all): one level, factored directly.
        let mut diagonal = TripletMatrix::new(1500, 1500);
        for i in 0..1500 {
            diagonal.push(i, i, 1.0 + (i % 7) as f64);
        }
        for a in [laplacian_2d(20, 20), diagonal.to_csr()] {
            let mut amg = Amg::setup(&a, 1).unwrap();
            assert_eq!(amg.level_sizes(), &[a.rows()]);
            let b = rhs(a.rows(), 4);
            let x = amg.apply(&b);
            assert!(a.residual_norm(&x, &b) < 1e-10);
        }
    }

    #[test]
    fn apply_is_bit_identical_across_thread_counts() {
        let a = laplacian_2d(80, 40);
        let b = rhs(a.rows(), 5);
        let seq = Amg::setup(&a, 1).unwrap().apply(&b);
        for threads in [2, 8] {
            let mut amg = Amg::setup(&a, threads).unwrap();
            let mut z = vec![f64::NAN; a.rows()];
            // The work vectors are reused: a second application must not
            // see the first one's state.
            amg.apply_into(&rhs(a.rows(), 6), &mut z);
            amg.apply_into(&b, &mut z);
            assert_eq!(z, seq, "threads = {threads}");
        }
    }

    #[test]
    fn non_positive_diagonal_is_rejected() {
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 2.0);
        t.push_sym(0, 1, -1.0);
        t.push(1, 1, 0.0);
        t.push(2, 2, -1.0);
        let a = t.to_csr();
        assert!(matches!(
            Amg::setup(&a, 1),
            Err(SparseError::NotPositiveDefinite { column: 1, .. })
        ));
        assert!(matches!(
            Amg::setup(&TripletMatrix::new(2, 3).to_csr(), 1),
            Err(SparseError::NotSquare { .. })
        ));
    }

    #[test]
    fn aggregation_covers_every_node_in_index_order() {
        // A path 0-1-2-…: pass 1 takes {0,1}, then {2,3,4}, …; every node
        // lands in exactly one aggregate and aggregate ids first appear in
        // ascending node order.
        let n = 11;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i + 1 < n {
                t.push_sym(i, i + 1, -1.0);
            }
        }
        let (agg, count) = aggregate(&t.to_csr());
        assert_eq!(agg, vec![0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
        assert_eq!(count, 4);
    }

    #[test]
    fn spgemm_matches_the_dense_product() {
        let a = laplacian_2d(4, 3);
        let mut t = TripletMatrix::new(12, 5);
        for i in 0..12 {
            t.push(i, i % 5, 1.0 + i as f64 * 0.5);
            t.push(i, (i * 3) % 5, -0.25);
        }
        let b = t.to_csr();
        let c = spgemm(&a, &b);
        let (da, db, dc) = (a.to_dense(), b.to_dense(), c.to_dense());
        for i in 0..12 {
            for j in 0..5 {
                let want: f64 = (0..12).map(|k| da[(i, k)] * db[(k, j)]).sum();
                assert!((dc[(i, j)] - want).abs() < 1e-12);
            }
        }
    }
}
