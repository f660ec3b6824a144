//! Dense-panel microkernels for the supernodal factorization and the CG
//! vector primitives.
//!
//! Every hot dense loop in the sparse crate — the GEMM-like descendant
//! update of the supernodal factor, the dense panel LDLᵀ, the triangular
//! panel solve, and the `kernels::{dot,axpy,xpby}` chunk bodies — is one
//! method of [`PanelKernels`]. [`BlockedKernels`] is the implementation
//! every production path runs: explicit register blocking with fixed-width
//! unrolled inner loops. The unrolling vectorizes across *independent*
//! quantities — separate descendant columns fused into one sweep, separate
//! elements of a vector — and never across the terms of one floating-point
//! sum. The tests check it against `ScalarKernels`, a test-only reference
//! made of the plain loops the blocked bodies were derived from.
//!
//! # Why the blocked kernels match the reference bit for bit
//!
//! The determinism contract of the whole workspace (factor bytes and solve
//! bits never depend on thread count) rests on every kernel producing
//! exactly the `f64` bit patterns of the plain loops. The blocked kernels
//! achieve that structurally, not by luck:
//!
//! * Each output element receives the *same ordered sequence of arithmetic
//!   operations* as the reference loops. Fusing four rank-1 updates into
//!   one sweep emits four separate `+=` statements per element — the adds
//!   stay in ascending descendant order and are never reassociated into a
//!   wider sum (and rustc without `fast-math` never reorders them either).
//! * Zero-skip tests (`lqk != 0.0`) are evaluated on the same values in the
//!   same order, so both skip exactly the same terms.
//! * Reductions ([`PanelKernels::dot_chunk`]) are the one place where lane
//!   splitting *would* reassociate a sum, so the blocked body keeps the
//!   chunk-serial summation order verbatim. This is a contract: a kernel
//!   must not introduce multiple accumulators here.
//! * Divisions stay divisions (`x / d` is never rewritten `x * (1.0 / d)`).

/// Dense-panel microkernels.
///
/// The trait is the seam between [`BlockedKernels`] and the test-only
/// reference loops: an implementation must be bit-for-bit identical to the
/// reference on every method, i.e. each output element must receive the
/// same ordered sequence of IEEE-754 operations (see the module docs for
/// what that allows).
pub(crate) trait PanelKernels {
    /// Accumulates the descendant outer-product contribution into the
    /// packed `update` buffer (`act` columns × `len` rows, column-major,
    /// lower-trapezoidal: column `q` uses rows `q..len`).
    ///
    /// Each entry of `tails` is `(start, dk)`: the descendant column's
    /// active row tail is `values[start..start + len]` and `dk` its `D`
    /// entry. For column `q` of the buffer the scaled multiplier is
    /// `lqk = values[start + q] * dk`, and zero multipliers are skipped.
    /// Per element, terms accumulate in `tails` order.
    fn rank_update(
        &self,
        update: &mut [f64],
        len: usize,
        act: usize,
        values: &[f64],
        tails: &[(usize, f64)],
    );

    /// Dense LDLᵀ of the `w × w` diagonal block of a column-major `m × w`
    /// frontal panel (rows `w..m` are untouched). Writes pivots into
    /// `diag[..w]` and leaves the unit-lower factor (off-diagonal entries
    /// divided by their pivot) in the block.
    ///
    /// # Errors
    ///
    /// Returns `(q, pivot)` on the first non-positive or non-finite pivot.
    fn panel_ldl(
        &self,
        front: &mut [f64],
        m: usize,
        w: usize,
        diag: &mut [f64],
    ) -> Result<(), (usize, f64)>;

    /// Triangular solve of the rectangular part (rows `w..m`) of the panel
    /// against the unit-lower diagonal block produced by
    /// [`PanelKernels::panel_ldl`] (whose pivots are in `diag[..w]`).
    fn panel_trsolve(&self, front: &mut [f64], m: usize, w: usize, diag: &[f64]);

    /// Dot product of one reduction chunk. **Must** sum the products
    /// serially in index order — this is the one kernel where lane
    /// splitting would reassociate a floating-point sum.
    fn dot_chunk(&self, a: &[f64], b: &[f64]) -> f64;

    /// `y[i] += alpha * x[i]` over one chunk.
    fn axpy_chunk(&self, alpha: f64, x: &[f64], y: &mut [f64]);

    /// `p[i] = z[i] + beta * p[i]` over one chunk (the CG direction
    /// update).
    fn xpby_chunk(&self, z: &[f64], beta: f64, p: &mut [f64]);
}

/// Rank-1 sources fused into one sweep by the blocked kernels. Eight
/// column-major panel sources keep a group under the L1 footprint of one
/// destination column while still fitting the broadcast coefficients in
/// vector registers on every 64-bit target.
const LANES: usize = 8;

/// Fixed unroll width for the element-wise vector kernels.
const ROW_LANES: usize = 8;

/// `ucol[t] += src[s + t] * a` (or `-=` when `SUB`) for each of the `N`
/// lanes `(s, a)`, rows `lo..hi`, in one sweep.
///
/// The per-element updates are separate statements in lane order — never
/// one reassociated sum — so the result is bit-identical to applying the
/// lanes one sweep at a time. Each lane's source is pre-sliced to the
/// `lo..hi` window, whose length provably equals the destination's, so the
/// unrolled inner body carries no bounds checks and vectorizes across the
/// (independent) rows.
#[inline]
fn fused_sweep<const N: usize, const SUB: bool>(
    ucol: &mut [f64],
    src: &[f64],
    lanes: &[(usize, f64)],
    lo: usize,
    hi: usize,
) {
    let u = &mut ucol[lo..hi];
    let mut cols: [&[f64]; N] = [&[]; N];
    let mut coef = [0.0f64; N];
    for i in 0..N {
        let (s, a) = lanes[i];
        cols[i] = &src[s + lo..s + hi];
        coef[i] = a;
    }
    for (t, u) in u.iter_mut().enumerate() {
        for i in 0..N {
            if SUB {
                *u -= cols[i][t] * coef[i];
            } else {
                *u += cols[i][t] * coef[i];
            }
        }
    }
}

/// Width-dispatched [`fused_sweep`]: one monomorphized body per lane count.
#[inline]
fn fused<const SUB: bool>(
    ucol: &mut [f64],
    src: &[f64],
    lanes: &[(usize, f64)],
    lo: usize,
    hi: usize,
) {
    match lanes.len() {
        1 => fused_sweep::<1, SUB>(ucol, src, lanes, lo, hi),
        2 => fused_sweep::<2, SUB>(ucol, src, lanes, lo, hi),
        3 => fused_sweep::<3, SUB>(ucol, src, lanes, lo, hi),
        4 => fused_sweep::<4, SUB>(ucol, src, lanes, lo, hi),
        5 => fused_sweep::<5, SUB>(ucol, src, lanes, lo, hi),
        6 => fused_sweep::<6, SUB>(ucol, src, lanes, lo, hi),
        7 => fused_sweep::<7, SUB>(ucol, src, lanes, lo, hi),
        8 => fused_sweep::<8, SUB>(ucol, src, lanes, lo, hi),
        _ => unreachable!("lane groups are 1..=LANES wide"),
    }
}

/// `ucol[t] += src[s + t] * a` for each lane `(s, a)`, rows `lo..hi`.
#[inline]
fn fused_add(ucol: &mut [f64], src: &[f64], lanes: &[(usize, f64)], lo: usize, hi: usize) {
    fused::<false>(ucol, src, lanes, lo, hi);
}

/// `ucol[t] -= src[s + t] * a` for each lane `(s, a)`, rows `lo..hi`.
#[inline]
fn fused_sub(ucol: &mut [f64], src: &[f64], lanes: &[(usize, f64)], lo: usize, hi: usize) {
    fused::<true>(ucol, src, lanes, lo, hi);
}

/// The register-blocked kernels every production path runs.
///
/// The panel kernels regroup the reference loops into fused [`LANES`]-wide
/// sweeps — the rank update takes descendant columns in ascending groups
/// and sweeps every destination column against the group (keeping the
/// group's source tails L1-resident), while the in-panel factor and
/// triangular solve collect each output column's contributions
/// left-looking — always in the reference order, skipping the same zero
/// multipliers, so every element's operation sequence is untouched. Vector
/// kernels unroll by [`ROW_LANES`] across independent elements.
pub(crate) struct BlockedKernels;

impl PanelKernels for BlockedKernels {
    fn rank_update(
        &self,
        update: &mut [f64],
        len: usize,
        act: usize,
        values: &[f64],
        tails: &[(usize, f64)],
    ) {
        // Tail-group-outer: take the descendant columns in fixed groups of
        // LANES (ascending) and sweep every buffer column against the group
        // before moving on. The group's source tails stay L1-resident
        // across all `act` destinations, so the buffer — not the descendant
        // panel — is the only stream that revisits L2, and it does so
        // `ceil(width / LANES)` times instead of `width` times.
        //
        // Per element, terms still accumulate in ascending-tail order (the
        // group boundaries only partition that order), so the result is
        // bit-identical to the scalar descendant-outer loop.
        let mut lanes = [(0usize, 0.0f64); LANES];
        for group in tails.chunks(LANES) {
            for q in 0..act {
                let ucol = &mut update[q * len..(q + 1) * len];
                let mut nl = 0;
                for &(start, dk) in group {
                    let lqk = values[start + q] * dk;
                    if lqk != 0.0 {
                        lanes[nl] = (start, lqk);
                        nl += 1;
                    }
                }
                if nl > 0 {
                    fused_add(ucol, values, &lanes[..nl], q, len);
                }
            }
        }
    }

    fn panel_ldl(
        &self,
        front: &mut [f64],
        m: usize,
        w: usize,
        diag: &mut [f64],
    ) -> Result<(), (usize, f64)> {
        // Left-looking: column u absorbs the pending updates from all
        // finalized columns q < u (ascending, fused LANES at a time), then
        // pivots. Element-for-element the same sequence as the scalar
        // right-looking sweep, which also applies q's update before u's
        // pivot for every q < u.
        let mut lanes = [(0usize, 0.0f64); LANES];
        for u in 0..w {
            let (left, rest) = front.split_at_mut(u * m);
            let ucol = &mut rest[..m];
            let mut nl = 0;
            for q in 0..u {
                let luq = left[q * m + u];
                if luq != 0.0 {
                    lanes[nl] = (q * m, luq * diag[q]);
                    nl += 1;
                    if nl == LANES {
                        fused_sub(ucol, left, &lanes, u, w);
                        nl = 0;
                    }
                }
            }
            if nl > 0 {
                fused_sub(ucol, left, &lanes[..nl], u, w);
            }
            let du = ucol[u];
            if du <= 0.0 || !du.is_finite() {
                return Err((u, du));
            }
            diag[u] = du;
            for t in (u + 1)..w {
                ucol[t] /= du;
            }
        }
        Ok(())
    }

    fn panel_trsolve(&self, front: &mut [f64], m: usize, w: usize, diag: &[f64]) {
        let mut lanes = [(0usize, 0.0f64); LANES];
        for u in 0..w {
            let (left, rest) = front.split_at_mut(u * m);
            let ucol = &mut rest[..m];
            let mut nl = 0;
            for q in 0..u {
                let luq = left[q * m + u];
                if luq != 0.0 {
                    lanes[nl] = (q * m, luq * diag[q]);
                    nl += 1;
                    if nl == LANES {
                        fused_sub(ucol, left, &lanes, w, m);
                        nl = 0;
                    }
                }
            }
            if nl > 0 {
                fused_sub(ucol, left, &lanes[..nl], w, m);
            }
            let du = diag[u];
            for t in w..m {
                ucol[t] /= du;
            }
        }
    }

    #[inline]
    fn dot_chunk(&self, a: &[f64], b: &[f64]) -> f64 {
        // Reduction-order contract: a dot is one serial sum. Splitting it
        // into lanes would reassociate the addition, so the blocked body is
        // intentionally the plain serial loop.
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[inline]
    fn axpy_chunk(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        let mut yc = y.chunks_exact_mut(ROW_LANES);
        let xc = x.chunks_exact(ROW_LANES);
        let x_rem = xc.remainder();
        for (yb, xb) in yc.by_ref().zip(xc) {
            yb[0] += alpha * xb[0];
            yb[1] += alpha * xb[1];
            yb[2] += alpha * xb[2];
            yb[3] += alpha * xb[3];
            yb[4] += alpha * xb[4];
            yb[5] += alpha * xb[5];
            yb[6] += alpha * xb[6];
            yb[7] += alpha * xb[7];
        }
        for (yi, &xi) in yc.into_remainder().iter_mut().zip(x_rem) {
            *yi += alpha * xi;
        }
    }

    #[inline]
    fn xpby_chunk(&self, z: &[f64], beta: f64, p: &mut [f64]) {
        let mut pc = p.chunks_exact_mut(ROW_LANES);
        let zc = z.chunks_exact(ROW_LANES);
        let z_rem = zc.remainder();
        for (pb, zb) in pc.by_ref().zip(zc) {
            pb[0] = zb[0] + beta * pb[0];
            pb[1] = zb[1] + beta * pb[1];
            pb[2] = zb[2] + beta * pb[2];
            pb[3] = zb[3] + beta * pb[3];
            pb[4] = zb[4] + beta * pb[4];
            pb[5] = zb[5] + beta * pb[5];
            pb[6] = zb[6] + beta * pb[6];
            pb[7] = zb[7] + beta * pb[7];
        }
        for (pi, &zi) in pc.into_remainder().iter_mut().zip(z_rem) {
            *pi = zi + beta * *pi;
        }
    }
}

/// The test-only reference: the plain loop nests [`BlockedKernels`] must
/// match bit for bit.
#[cfg(test)]
pub(crate) struct ScalarKernels;

#[cfg(test)]
impl PanelKernels for ScalarKernels {
    fn rank_update(
        &self,
        update: &mut [f64],
        len: usize,
        act: usize,
        values: &[f64],
        tails: &[(usize, f64)],
    ) {
        for &(start, dk) in tails {
            let tail = &values[start..start + len];
            for q in 0..act {
                let lqk = tail[q] * dk;
                if lqk != 0.0 {
                    let ucol = &mut update[q * len..(q + 1) * len];
                    for t in q..len {
                        ucol[t] += tail[t] * lqk;
                    }
                }
            }
        }
    }

    fn panel_ldl(
        &self,
        front: &mut [f64],
        m: usize,
        w: usize,
        diag: &mut [f64],
    ) -> Result<(), (usize, f64)> {
        // Right-looking: pivot column q immediately updates columns u > q.
        for q in 0..w {
            let colq = q * m;
            let dq = front[colq + q];
            if dq <= 0.0 || !dq.is_finite() {
                return Err((q, dq));
            }
            diag[q] = dq;
            for t in (q + 1)..w {
                front[colq + t] /= dq;
            }
            for u in (q + 1)..w {
                let luq = front[colq + u];
                if luq != 0.0 {
                    let alpha = luq * dq;
                    let colu = u * m;
                    for t in u..w {
                        front[colu + t] -= front[colq + t] * alpha;
                    }
                }
            }
        }
        Ok(())
    }

    fn panel_trsolve(&self, front: &mut [f64], m: usize, w: usize, diag: &[f64]) {
        for q in 0..w {
            let colq = q * m;
            let dq = diag[q];
            for t in w..m {
                front[colq + t] /= dq;
            }
            for u in (q + 1)..w {
                let luq = front[colq + u];
                if luq != 0.0 {
                    let alpha = luq * dq;
                    let colu = u * m;
                    for t in w..m {
                        front[colu + t] -= front[colq + t] * alpha;
                    }
                }
            }
        }
    }

    #[inline]
    fn dot_chunk(&self, a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[inline]
    fn axpy_chunk(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    #[inline]
    fn xpby_chunk(&self, z: &[f64], beta: f64, p: &mut [f64]) {
        for (pi, &zi) in p.iter_mut().zip(z) {
            *pi = zi + beta * *pi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random f64 stream (no external RNG deps).
    struct Lcg(u64);

    impl Lcg {
        fn next_f64(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 11) as f64) / ((1u64 << 53) as f64) * 4.0 - 2.0
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn rank_update_backends_are_bit_identical() {
        let mut rng = Lcg(7);
        // Sweep over shapes around the lane width, with zero multipliers
        // injected so the zero-skip paths are exercised.
        for &(len, act, ncols) in &[(1, 1, 1), (5, 3, 2), (16, 7, 4), (23, 9, 11), (40, 12, 17)] {
            let mut values: Vec<f64> = (0..ncols * len).map(|_| rng.next_f64()).collect();
            for v in values.iter_mut().step_by(5) {
                *v = 0.0;
            }
            let tails: Vec<(usize, f64)> = (0..ncols)
                .map(|c| (c * len, if c % 4 == 3 { 0.0 } else { rng.next_f64() }))
                .collect();
            let mut a = vec![0.25f64; act * len];
            let mut b = a.clone();
            ScalarKernels.rank_update(&mut a, len, act, &values, &tails);
            BlockedKernels.rank_update(&mut b, len, act, &values, &tails);
            assert_eq!(bits(&a), bits(&b), "len={len} act={act} ncols={ncols}");
        }
    }

    /// Builds a column-major m × w SPD-ish frontal panel: diagonally
    /// dominant in the w × w head, random rectangle below.
    fn random_front(rng: &mut Lcg, m: usize, w: usize) -> Vec<f64> {
        let mut front = vec![0.0f64; m * w];
        for q in 0..w {
            for t in q..m {
                front[q * m + t] = if t == q {
                    8.0 + rng.next_f64().abs() * (w as f64)
                } else if (t + q) % 6 == 0 {
                    0.0 // exercise the zero-skip path
                } else {
                    rng.next_f64()
                };
            }
        }
        front
    }

    #[test]
    fn panel_factor_backends_are_bit_identical() {
        let mut rng = Lcg(42);
        for &(m, w) in &[(1, 1), (4, 3), (9, 9), (17, 5), (30, 13), (61, 48)] {
            let reference = random_front(&mut rng, m, w);
            let mut fa = reference.clone();
            let mut fb = reference.clone();
            let mut da = vec![0.0f64; w];
            let mut db = vec![0.0f64; w];
            ScalarKernels.panel_ldl(&mut fa, m, w, &mut da).unwrap();
            BlockedKernels.panel_ldl(&mut fb, m, w, &mut db).unwrap();
            assert_eq!(bits(&da), bits(&db), "m={m} w={w} diag");
            assert_eq!(bits(&fa), bits(&fb), "m={m} w={w} after ldl");
            ScalarKernels.panel_trsolve(&mut fa, m, w, &da);
            BlockedKernels.panel_trsolve(&mut fb, m, w, &db);
            assert_eq!(bits(&fa), bits(&fb), "m={m} w={w} after trsolve");
        }
    }

    #[test]
    fn panel_ldl_backends_report_the_same_pivot_failure() {
        // A panel whose third pivot goes negative must fail identically.
        let m = 6;
        let w = 4;
        let mut rng = Lcg(3);
        let mut front = random_front(&mut rng, m, w);
        front[2 * m + 2] = -5.0;
        let mut da = vec![0.0f64; w];
        let mut db = vec![0.0f64; w];
        let ea = ScalarKernels
            .panel_ldl(&mut front.clone(), m, w, &mut da)
            .unwrap_err();
        let eb = BlockedKernels
            .panel_ldl(&mut front, m, w, &mut db)
            .unwrap_err();
        assert_eq!(ea.0, eb.0);
        assert_eq!(ea.1.to_bits(), eb.1.to_bits());
    }

    #[test]
    fn vector_kernels_are_bit_identical() {
        let mut rng = Lcg(99);
        for n in [0, 1, 7, 8, 9, 16, 41] {
            let src: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
            let base: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
            let v = rng.next_f64();

            assert_eq!(
                ScalarKernels.dot_chunk(&src, &base).to_bits(),
                BlockedKernels.dot_chunk(&src, &base).to_bits(),
                "dot_chunk n={n}"
            );

            let mut a = base.clone();
            let mut b = base.clone();
            ScalarKernels.axpy_chunk(v, &src, &mut a);
            BlockedKernels.axpy_chunk(v, &src, &mut b);
            assert_eq!(bits(&a), bits(&b), "axpy_chunk n={n}");

            let mut a = base.clone();
            let mut b = base.clone();
            ScalarKernels.xpby_chunk(&src, v, &mut a);
            BlockedKernels.xpby_chunk(&src, v, &mut b);
            assert_eq!(bits(&a), bits(&b), "xpby_chunk n={n}");
        }
    }
}
