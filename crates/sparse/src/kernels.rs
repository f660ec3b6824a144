//! Deterministic, optionally-threaded vector kernels for the iterative
//! solvers: chunked dot/norm reductions and element-wise updates.
//!
//! All kernels run the **same fixed-chunk arithmetic** whether `threads` is
//! 1 or 64: reductions sum each `VEC_CHUNK`-sized block serially and fold
//! the block partials in chunk order (via
//! [`emgrid_runtime::parallel_reduce`]), and element-wise updates write each
//! entry exactly once. Results are therefore bit-identical for any thread
//! count — the invariance the CG solver's determinism contract rests on.
//!
//! The chunk bodies are the register-blocked kernels of the crate's
//! `panel` module, which match the plain serial loops bit for bit.

use emgrid_runtime::{parallel_chunks_mut, parallel_reduce};

use crate::panel::{BlockedKernels, PanelKernels};

/// Fixed reduction block for vector kernels. Small enough to parallelize
/// FEM-sized vectors (1e5–1e6 entries → dozens to hundreds of chunks),
/// large enough that chunk bookkeeping is noise.
pub const VEC_CHUNK: usize = 4096;

/// Fixed row-block size for threaded CSR mat-vec products.
pub const ROW_CHUNK: usize = 512;

// The kernels are `#[inline]` so that `cg::solve` inlines them whichever
// codegen unit the crate's partitioning puts this module in: without it,
// adding code elsewhere in the crate has moved them out of line.

/// Chunked dot product `aᵀ b`, bit-identical for any `threads`.
#[inline]
pub fn dot(a: &[f64], b: &[f64], threads: usize) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    parallel_reduce(
        a.len(),
        VEC_CHUNK,
        threads,
        |_, r| BlockedKernels.dot_chunk(&a[r.clone()], &b[r]),
        |acc: f64, part| acc + part,
    )
    .unwrap_or(0.0)
}

/// Chunked Euclidean norm `||a||`, bit-identical for any `threads`.
#[inline]
pub fn norm(a: &[f64], threads: usize) -> f64 {
    dot(a, a, threads).sqrt()
}

/// `y[i] += alpha * x[i]` over fixed chunks.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64], threads: usize) {
    debug_assert_eq!(x.len(), y.len());
    parallel_chunks_mut(y, VEC_CHUNK, threads, |start, yc| {
        BlockedKernels.axpy_chunk(alpha, &x[start..start + yc.len()], yc);
    });
}

/// `p[i] = z[i] + beta * p[i]` (the CG direction update) over fixed chunks.
#[inline]
pub fn xpby(z: &[f64], beta: f64, p: &mut [f64], threads: usize) {
    debug_assert_eq!(z.len(), p.len());
    parallel_chunks_mut(p, VEC_CHUNK, threads, |start, pc| {
        BlockedKernels.xpby_chunk(&z[start..start + pc.len()], beta, pc);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_a(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 31 + 7) % 97) as f64 * 0.125 - 6.0)
            .collect()
    }

    fn vec_b(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 17 + 3) % 89) as f64 * 0.25 - 11.0)
            .collect()
    }

    #[test]
    fn dot_is_thread_count_invariant() {
        let a = vec_a(50_000);
        let b = vec_b(50_000);
        let seq = dot(&a, &b, 1);
        for threads in [2, 3, 8] {
            assert_eq!(seq.to_bits(), dot(&a, &b, threads).to_bits());
        }
    }

    #[test]
    fn axpy_matches_serial_loop_bitwise() {
        let x = vec_a(20_000);
        let mut expect = vec_b(20_000);
        for (e, xi) in expect.iter_mut().zip(&x) {
            *e += 0.37 * xi;
        }
        for threads in [1, 2, 8] {
            let mut y = vec_b(20_000);
            axpy(0.37, &x, &mut y, threads);
            assert_eq!(y, expect, "threads = {threads}");
        }
    }

    #[test]
    fn xpby_matches_serial_loop_bitwise() {
        let z = vec_a(20_000);
        let mut expect = vec_b(20_000);
        for (e, zi) in expect.iter_mut().zip(&z) {
            *e = zi - 0.81 * *e;
        }
        for threads in [1, 2, 8] {
            let mut p = vec_b(20_000);
            xpby(&z, -0.81, &mut p, threads);
            assert_eq!(p, expect, "threads = {threads}");
        }
    }

    #[test]
    fn empty_vectors_are_harmless() {
        assert_eq!(dot(&[], &[], 4), 0.0);
        assert_eq!(norm(&[], 4), 0.0);
        let mut y: Vec<f64> = vec![];
        axpy(1.0, &[], &mut y, 4);
        xpby(&[], 1.0, &mut y, 4);
    }
}
