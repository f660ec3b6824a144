//! Direct-vs-iterative method selection for SPD solves.
//!
//! Small meshes favor the supernodal LDLᵀ factorization (one factor, many
//! cheap triangular solves); from a few ten thousand unknowns on, CG
//! preconditioned by a smoothed-aggregation AMG V-cycle ([`crate::amg`])
//! is faster, and its memory stays linear in `nnz` where a direct
//! factor's fill does not. [`Method`] names the choice the way
//! [`crate::ldl::Ordering`] names orderings — `auto`, `direct` or `cg` —
//! and [`Method::resolve`] turns `Auto` into a concrete engine from the
//! matrix dimension alone, so every knob surface (CLI, job specs) can
//! thread one label through a power grid's constructor to [`solve_spd`].

use crate::cg::{conjugate_gradient, CgOptions};
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::ldl::{FactorOptions, LdlFactor};

/// Above this many unknowns `Auto` switches from the direct factorization
/// to AMG-preconditioned CG.
///
/// The limit is the measured crossover on generated power grids
/// (`cargo run --release --example solver_crossover`: one thread, best of
/// three; AMD factor plus one solve against AMG set-up plus CG to the
/// default 1e-10 residual, ms):
///
/// | unknowns | 2 layers: direct / CG | 3 layers | 4 layers |
/// |---:|---:|---:|---:|
/// | 3k | 4.1 / 3.8 | 3.4 / 5.2 | 6.9 / 4.7 |
/// | 5k | 6.8 / 5.3 | 5.7 / 6.1 | 17.3 / 7.9 |
/// | 10k | 13.5 / 11.7 | 13.4 / 13.3 | 63.2 / 12.8 |
/// | 20k | 30.9 / 22.1 | 29.3 / 26.7 | 260 / 24.9 |
/// | 50k | 95.3 / 59.7 | 102 / 71.1 | 1444 / 66.2 |
/// | 100k | 236 / 155 | 283 / 151 | 6013 / 146 |
/// | 200k | 667 / 332 | 784 / 344 | 16506 / 298 |
///
/// CG, started from zero here, takes 11–28 iterations at every size; the
/// nominal solves of `DcAnalysis` start it at the supply voltage and save
/// a few more, so the table is conservative. Below about 10k unknowns the
/// three-layer factor still wins; at 10k the two engines tie there, and
/// from 20k on CG is ahead at every layer count and the factor's lead
/// never returns, since its fill grows faster than `n` while CG stays
/// `O(nnz)`. The classic PG1–PG5 profiles (at most 3,200 unknowns) stay
/// on the factor, so their nominal solves keep their bits.
pub const AUTO_DIRECT_LIMIT: usize = 20_000;

/// Which linear-solve engine solves a power grid's operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// Pick [`Method::Direct`] or [`Method::Cg`] from the problem size at
    /// run time (the default; canonical spec forms keep it implicit).
    #[default]
    Auto,
    /// Supernodal LDLᵀ via [`LdlFactor::factor_with`].
    Direct,
    /// Preconditioned conjugate gradients under [`CgOptions`] (the
    /// smoothed-aggregation AMG V-cycle by default).
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
/// the CG path runs CG under `cg` (AMG-preconditioned by default), from
/// `x0` when given and from zero otherwise. The direct path has no use for
/// `x0`.
///
/// # Errors
///
/// Propagates [`SparseError`] from either engine (shape mismatches,
/// non-SPD pivots, CG non-convergence).
pub fn solve_spd(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    method: Method,
    factor: &FactorOptions,
    cg: &CgOptions,
) -> Result<Vec<f64>, SparseError> {
    match method.resolve(a.rows()) {
        Method::Direct => Ok(LdlFactor::factor_with(a, factor)?.solve(b)),
        Method::Cg => Ok(conjugate_gradient(a, b, x0, cg)?.x),
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
        // The measured crossover: PG5 (3,200 unknowns) keeps the factor,
        // a two-layer 101×101 grid (20,402) and pg100k (97,200) take CG.
        assert_eq!(AUTO_DIRECT_LIMIT, 20_000);
        assert_eq!(Method::Auto.resolve(3_200), Method::Direct);
        assert_eq!(Method::Auto.resolve(20_402), Method::Cg);
        assert_eq!(Method::Auto.resolve(97_200), Method::Cg);
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
        let direct = solve_spd(&a, &b, None, Method::Direct, &factor, &cg).unwrap();
        let iterative = solve_spd(&a, &b, None, Method::Cg, &factor, &cg).unwrap();
        let auto = solve_spd(&a, &b, None, Method::Auto, &factor, &cg).unwrap();
        // A start vector reaches CG only.
        let start = vec![1.0; b.len()];
        assert_eq!(
            solve_spd(&a, &b, Some(&start), Method::Direct, &factor, &cg).unwrap(),
            direct
        );
        let warm = solve_spd(&a, &b, Some(&start), Method::Cg, &factor, &cg).unwrap();
        assert_eq!(auto, direct, "auto at this size must take the direct path");
        let norm: f64 = direct.iter().map(|v| v * v).sum::<f64>().sqrt();
        for x in [&iterative, &warm] {
            let gap: f64 = direct
                .iter()
                .zip(x)
                .map(|(u, v)| (u - v) * (u - v))
                .sum::<f64>()
                .sqrt();
            assert!(gap / norm < 1e-8, "relative gap {}", gap / norm);
        }
        assert_ne!(warm, iterative, "the start vector reached CG");
    }
}
