//! Preconditioned conjugate gradient solver.
//!
//! The finite-element systems produced when characterizing via-array stress
//! can reach hundreds of thousands of unknowns, and chip-scale power grids
//! millions; CG preconditioned by the zero-fill incomplete Cholesky factor
//! ([`Ic0`], the default) keeps memory linear in the number of nonzeros
//! where a direct factorization would fill in.

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::ic0::Ic0;
use crate::kernels::{axpy, dot, norm, xpby, VEC_CHUNK};
use emgrid_runtime::{obs, parallel_fill};
use std::time::{Duration, Instant};

/// Preconditioner selection for [`conjugate_gradient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Preconditioner {
    /// Diagonal (Jacobi) scaling — cheap, helps badly scaled systems.
    Jacobi,
    /// Zero-fill incomplete Cholesky ([`Ic0`]) — costs one structured
    /// factorization up front, typically cuts iteration counts several-fold
    /// on FEM/grid matrices (the default).
    #[default]
    IncompleteCholesky,
}

/// Options controlling [`conjugate_gradient`].
#[derive(Debug, Clone, PartialEq)]
pub struct CgOptions {
    /// Relative residual target `||b - Ax|| / ||b||`.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Preconditioner (default: IC(0)).
    pub preconditioner: Preconditioner,
    /// Worker threads for the SpMV / dot / axpy kernels (default 1).
    ///
    /// The kernels run identical fixed-chunk arithmetic at every thread
    /// count, so the solve — iterates, iteration count and residual — is
    /// **bit-identical** whatever value is used.
    pub threads: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            tolerance: 1e-10,
            max_iterations: 10_000,
            preconditioner: Preconditioner::default(),
            threads: 1,
        }
    }
}

/// Convergence report returned by [`conjugate_gradient`].
#[derive(Debug, Clone, PartialEq)]
pub struct CgOutcome {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final relative residual.
    pub residual: f64,
    /// Wall time spent building the preconditioner (the IC(0)
    /// factorization for [`Preconditioner::IncompleteCholesky`]; near
    /// zero for Jacobi).
    pub precond_time: Duration,
}

/// Solves the SPD system `A x = b` by preconditioned CG (IC(0) unless
/// `options` picks Jacobi).
///
/// `x0` provides a warm start; pass `None` to start from zero.
///
/// # Errors
///
/// Returns [`SparseError::NotSquare`] or [`SparseError::DimensionMismatch`]
/// on malformed input and [`SparseError::NotConverged`] if the tolerance is
/// not met within `max_iterations` (the partial solution is discarded; use a
/// looser tolerance or the direct solver in that case).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), emgrid_sparse::SparseError> {
/// use emgrid_sparse::{TripletMatrix, conjugate_gradient, CgOptions};
///
/// let mut t = TripletMatrix::new(3, 3);
/// for i in 0..3 {
///     t.push(i, i, 2.0);
/// }
/// let a = t.to_csr();
/// let out = conjugate_gradient(&a, &[2.0, 4.0, 6.0], None, &CgOptions::default())?;
/// assert!((out.x[2] - 3.0).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn conjugate_gradient(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    options: &CgOptions,
) -> Result<CgOutcome, SparseError> {
    if a.rows() != a.cols() {
        return Err(SparseError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    if b.len() != n {
        return Err(SparseError::DimensionMismatch {
            expected: n,
            found: b.len(),
        });
    }
    let threads = options.threads.max(1);
    let _cg_span = obs::span("cg");
    let bnorm = norm(b, threads);
    if bnorm == 0.0 {
        return Ok(CgOutcome {
            x: vec![0.0; n],
            iterations: 0,
            residual: 0.0,
            precond_time: Duration::ZERO,
        });
    }

    enum Prec {
        Diagonal(Vec<f64>),
        Ic(Box<Ic0>),
    }
    let precond_span = obs::span("precondition");
    let precond_start = Instant::now();
    let prec = match options.preconditioner {
        Preconditioner::Jacobi => Prec::Diagonal(
            (0..n)
                .map(|i| {
                    let d = a.get(i, i);
                    if d > 0.0 {
                        1.0 / d
                    } else {
                        1.0
                    }
                })
                .collect(),
        ),
        Preconditioner::IncompleteCholesky => Prec::Ic(Box::new(Ic0::factor(a)?)),
    };
    let precond_time = precond_start.elapsed();
    drop(precond_span);
    // Writes z = M⁻¹ r into a buffer reused across iterations.
    let apply_prec = |r: &[f64], z: &mut [f64]| match &prec {
        Prec::Diagonal(d) => parallel_fill(z, VEC_CHUNK, threads, |i, zi| *zi = r[i] * d[i]),
        // Triangular solves are inherently sequential across rows.
        Prec::Ic(f) => f.apply_into(r, z),
    };

    let mut x = match x0 {
        Some(x0) => {
            if x0.len() != n {
                return Err(SparseError::DimensionMismatch {
                    expected: n,
                    found: x0.len(),
                });
            }
            x0.to_vec()
        }
        None => vec![0.0; n],
    };
    let mut r = vec![0.0; n];
    a.par_matvec_into(&x, &mut r, threads);
    parallel_fill(&mut r, VEC_CHUNK, threads, |i, ri| *ri = b[i] - *ri);
    let mut z = vec![0.0; n];
    apply_prec(&r, &mut z);
    let mut p = z.clone();
    let mut rz = dot(&r, &z, threads);
    let mut ap = vec![0.0; n];

    let mut residual = norm(&r, threads) / bnorm;
    if residual <= options.tolerance {
        return Ok(CgOutcome {
            x,
            iterations: 0,
            residual,
            precond_time,
        });
    }

    let _iterate_span = obs::span("iterate");
    for it in 1..=options.max_iterations {
        a.par_matvec_into(&p, &mut ap, threads);
        let pap = dot(&p, &ap, threads);
        if pap <= 0.0 || !pap.is_finite() {
            return Err(SparseError::NotPositiveDefinite {
                column: it,
                pivot: pap,
            });
        }
        let alpha = rz / pap;
        axpy(alpha, &p, &mut x, threads);
        axpy(-alpha, &ap, &mut r, threads);
        residual = norm(&r, threads) / bnorm;
        if residual <= options.tolerance {
            return Ok(CgOutcome {
                x,
                iterations: it,
                residual,
                precond_time,
            });
        }
        apply_prec(&r, &mut z);
        let rz_new = dot(&r, &z, threads);
        let beta = rz_new / rz;
        rz = rz_new;
        xpby(&z, beta, &mut p, threads);
    }
    Err(SparseError::NotConverged {
        iterations: options.max_iterations,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::TripletMatrix;
    use crate::ldl::{FactorOptions, LdlFactor};
    use proptest::prelude::*;

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
    fn matches_direct_solver_on_mesh() {
        let a = laplacian_2d(12, 12);
        let b: Vec<f64> = (0..144).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let direct = LdlFactor::factor_with(&a, &FactorOptions::default())
            .unwrap()
            .solve(&b);
        let cg = conjugate_gradient(&a, &b, None, &CgOptions::default()).unwrap();
        for (u, v) in cg.x.iter().zip(&direct) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = laplacian_2d(3, 3);
        let out = conjugate_gradient(&a, &[0.0; 9], None, &CgOptions::default()).unwrap();
        assert_eq!(out.iterations, 0);
        assert!(out.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn warm_start_from_solution_converges_instantly() {
        let a = laplacian_2d(5, 5);
        let b = vec![1.0; 25];
        let exact = LdlFactor::factor_with(&a, &FactorOptions::default())
            .unwrap()
            .solve(&b);
        let out = conjugate_gradient(&a, &b, Some(&exact), &CgOptions::default()).unwrap();
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn iteration_cap_is_reported() {
        let a = laplacian_2d(10, 10);
        let b = vec![1.0; 100];
        let opts = CgOptions {
            tolerance: 1e-14,
            max_iterations: 2,
            ..CgOptions::default()
        };
        let err = conjugate_gradient(&a, &b, None, &opts).unwrap_err();
        assert!(matches!(
            err,
            SparseError::NotConverged { iterations: 2, .. }
        ));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = laplacian_2d(3, 3);
        let err = conjugate_gradient(&a, &[1.0; 5], None, &CgOptions::default()).unwrap_err();
        assert!(matches!(err, SparseError::DimensionMismatch { .. }));
    }

    #[test]
    fn jacobi_preconditioner_accelerates_ill_scaled_systems() {
        // Badly scaled diagonal: Jacobi should fix conditioning entirely.
        let n = 60;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 10f64.powi((i % 7) as i32));
        }
        let a = t.to_csr();
        let b = vec![1.0; n];
        let with = conjugate_gradient(
            &a,
            &b,
            None,
            &CgOptions {
                preconditioner: Preconditioner::Jacobi,
                ..CgOptions::default()
            },
        )
        .unwrap();
        assert!(with.iterations <= 2, "jacobi its = {}", with.iterations);
    }

    #[test]
    fn incomplete_cholesky_cuts_iterations() {
        let a = laplacian_2d(24, 24);
        let b: Vec<f64> = (0..576).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let run = |p: Preconditioner| {
            conjugate_gradient(
                &a,
                &b,
                None,
                &CgOptions {
                    preconditioner: p,
                    ..CgOptions::default()
                },
            )
            .unwrap()
        };
        let jacobi = run(Preconditioner::Jacobi);
        let ic = run(Preconditioner::IncompleteCholesky);
        assert!(
            ic.iterations * 2 < jacobi.iterations,
            "ic {} vs jacobi {} iterations",
            ic.iterations,
            jacobi.iterations
        );
        // Both converge to the same solution.
        for (u, v) in ic.x.iter().zip(&jacobi.x) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn solve_is_bit_identical_across_thread_counts() {
        let a = laplacian_2d(20, 20);
        let b: Vec<f64> = (0..400).map(|i| ((i * 11) % 17) as f64 - 8.0).collect();
        let run = |threads| {
            conjugate_gradient(
                &a,
                &b,
                None,
                &CgOptions {
                    threads,
                    ..CgOptions::default()
                },
            )
            .unwrap()
        };
        let seq = run(1);
        for threads in [2, 8] {
            let par = run(threads);
            assert_eq!(par.iterations, seq.iterations, "threads = {threads}");
            assert_eq!(
                par.residual.to_bits(),
                seq.residual.to_bits(),
                "threads = {threads}"
            );
            assert_eq!(par.x, seq.x, "threads = {threads}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn cg_residual_below_tolerance(
            b in proptest::collection::vec(-5.0f64..5.0, 36),
        ) {
            let a = laplacian_2d(6, 6);
            let out = conjugate_gradient(&a, &b, None, &CgOptions::default()).unwrap();
            prop_assert!(a.residual_norm(&out.x, &b) / (1e-30 + b.iter().map(|v| v*v).sum::<f64>().sqrt()) < 1e-8);
        }
    }
}
