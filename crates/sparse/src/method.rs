//! Direct-vs-iterative method selection for SPD solves.
//!
//! Small and medium meshes favor the supernodal LDLᵀ factorization (one
//! factor, many cheap triangular solves); chip-scale grids favor IC(0)-
//! preconditioned CG, whose memory stays linear in `nnz` where a direct
//! factor's fill does not. [`Method`] names the choice the way
//! [`crate::ldl::Ordering`] names orderings — `auto`, `direct` or `cg` —
//! and [`Method::resolve`] turns `Auto` into a concrete engine from the
//! matrix dimension alone, so every knob surface (CLI, job specs, screen
//! options) can thread one label through to [`solve_spd`].

use crate::cg::{conjugate_gradient, CgOptions};
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::ldl::{FactorOptions, LdlFactor};

/// Above this many unknowns `Auto` switches from the direct factorization
/// to IC(0)-CG. The crossover is memory-driven: a dissected power-grid
/// factor holds roughly `30–60·n` nonzeros, so by 200k unknowns the factor
/// alone outweighs the matrix by an order of magnitude while IC(0)-CG
/// keeps working in `O(nnz)`.
pub const AUTO_DIRECT_LIMIT: usize = 200_000;

/// Which linear-solve engine runs under a screening or analysis pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// Pick [`Method::Direct`] or [`Method::Cg`] from the problem size at
    /// run time (the default; canonical spec forms keep it implicit).
    #[default]
    Auto,
    /// Supernodal LDLᵀ via [`LdlFactor::factor_with`].
    Direct,
    /// IC(0)-preconditioned conjugate gradients.
    Cg,
}

impl Method {
    /// Parses a CLI/spec label (`auto`, `direct`, `cg`).
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "auto" => Some(Method::Auto),
            "direct" => Some(Method::Direct),
            "cg" => Some(Method::Cg),
            _ => None,
        }
    }

    /// The canonical lower-case label (inverse of [`Method::parse`]).
    pub fn label(&self) -> &'static str {
        match self {
            Method::Auto => "auto",
            Method::Direct => "direct",
            Method::Cg => "cg",
        }
    }

    /// The concrete engine for an `n`-unknown system: `Auto` resolves by
    /// [`AUTO_DIRECT_LIMIT`]; explicit choices pass through.
    pub fn resolve(&self, n: usize) -> Method {
        match self {
            Method::Auto if n > AUTO_DIRECT_LIMIT => Method::Cg,
            Method::Auto => Method::Direct,
            explicit => *explicit,
        }
    }
}

/// Solves the SPD system `A x = b` with the engine `method` resolves to.
///
/// The direct path factors with `factor` and runs one triangular solve;
/// the CG path runs CG under `cg` (IC(0)-preconditioned by default).
///
/// # Errors
///
/// Propagates [`SparseError`] from either engine (shape mismatches,
/// non-SPD pivots, CG non-convergence).
pub fn solve_spd(
    a: &CsrMatrix,
    b: &[f64],
    method: Method,
    factor: &FactorOptions,
    cg: &CgOptions,
) -> Result<Vec<f64>, SparseError> {
    match method.resolve(a.rows()) {
        Method::Direct => Ok(LdlFactor::factor_with(a, factor)?.solve(b)),
        Method::Cg => Ok(conjugate_gradient(a, b, None, cg)?.x),
        Method::Auto => unreachable!("resolve never returns Auto"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::TripletMatrix;

    fn laplacian(nx: usize, ny: usize) -> CsrMatrix {
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

    #[test]
    fn labels_round_trip() {
        for m in [Method::Auto, Method::Direct, Method::Cg] {
            assert_eq!(Method::parse(m.label()), Some(m));
        }
        assert_eq!(Method::parse("gpu"), None);
        assert_eq!(Method::default(), Method::Auto);
    }

    #[test]
    fn auto_resolves_by_problem_size() {
        assert_eq!(Method::Auto.resolve(10), Method::Direct);
        assert_eq!(Method::Auto.resolve(AUTO_DIRECT_LIMIT), Method::Direct);
        assert_eq!(Method::Auto.resolve(AUTO_DIRECT_LIMIT + 1), Method::Cg);
        // Explicit picks are never overridden.
        assert_eq!(Method::Direct.resolve(usize::MAX), Method::Direct);
        assert_eq!(Method::Cg.resolve(1), Method::Cg);
    }

    #[test]
    fn both_engines_agree_through_solve_spd() {
        let a = laplacian(14, 13);
        let b: Vec<f64> = (0..14 * 13).map(|i| ((i * 7) % 9) as f64 - 4.0).collect();
        let factor = FactorOptions::default();
        let cg = CgOptions {
            tolerance: 1e-12,
            ..CgOptions::default()
        };
        let direct = solve_spd(&a, &b, Method::Direct, &factor, &cg).unwrap();
        let iterative = solve_spd(&a, &b, Method::Cg, &factor, &cg).unwrap();
        let auto = solve_spd(&a, &b, Method::Auto, &factor, &cg).unwrap();
        assert_eq!(auto, direct, "auto at this size must take the direct path");
        let norm: f64 = direct.iter().map(|v| v * v).sum::<f64>().sqrt();
        let gap: f64 = direct
            .iter()
            .zip(&iterative)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        assert!(gap / norm < 1e-8, "relative gap {}", gap / norm);
    }
}
