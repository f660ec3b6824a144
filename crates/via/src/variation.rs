//! On-die variation for the Monte Carlo levels.
//!
//! The paper's Algorithm 1 assumes nominal, uniform conditions: every via
//! sees the same share of the array current, the same temperature, and the
//! same drawn linewidth. The multi-via follow-up line (arXiv 1801.08281)
//! shows the current split is *not* uniform — vias near the feeding edges
//! carry more — and the chip-scale variation line (arXiv 1712.05562) models
//! on-die temperature/geometry variation as spatially correlated random
//! walks. This module provides both extensions:
//!
//! * [`Variation::edge_weights`] — a static, geometry-derived per-via
//!   current weighting (edge and corner vias carry more than interior
//!   ones),
//! * [`random_walk_field`] / [`correlated_field_2d`] — spatially correlated
//!   unit-variance fields sampled once per trial, used for per-via
//!   temperature offsets and linewidth multipliers,
//! * [`Variation::temperature_life_scale`] — the Arrhenius lifetime factor
//!   of a local temperature offset,
//! * [`VarianceDecomposition`] — the random-walk variance-analysis output:
//!   how much of the ln-TTF variance the correlated fields contribute on
//!   top of the void-nucleation randomness.
//!
//! # Determinism
//!
//! Variation-enabled trials draw from **derived sub-streams**
//! ([`emgrid_stats::substream_rng`]): void draws, the temperature field,
//! and the linewidth field each consume an independent stream of
//! `(seed, trial)`, so enabling one source never shifts another's sequence
//! and results stay bit-identical for any thread count.

use emgrid_em::Technology;
use emgrid_stats::Rng;

/// Sub-stream channel for critical-stress (void nucleation) draws.
pub const CHANNEL_VOID: u64 = 0;
/// Sub-stream channel for the per-trial temperature field.
pub const CHANNEL_FIELD: u64 = 1;
/// Sub-stream channel for the per-trial linewidth (geometry) field.
pub const CHANNEL_GEOMETRY: u64 = 2;

/// Smallest allowed relative linewidth after variation, to keep per-via
/// current densities finite.
pub const MIN_RELATIVE_WIDTH: f64 = 0.1;

/// On-die variation knobs for a via-array Monte Carlo.
///
/// The default has every source off: no edge weighting, no fields. A
/// simulator configured with any variation, this all-zero one included,
/// draws from the per-trial sub-streams; only one configured with none
/// draws from the legacy single trial stream, so nominal results stay
/// byte-identical with pre-variation builds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Variation {
    /// Extra current weight per exposed array side: a via touching `s`
    /// array edges carries weight `1 + factor·s` before renormalization
    /// (corner vias touch two sides). `0` keeps the configured current
    /// model's split.
    pub edge_current_factor: f64,
    /// Standard deviation of the per-via correlated temperature offset,
    /// °C. `0` disables the temperature field.
    pub temperature_sigma_c: f64,
    /// Relative standard deviation of the per-via correlated linewidth
    /// multiplier. `0` disables the linewidth field.
    pub linewidth_sigma: f64,
}

impl Variation {
    /// The largest value each knob accepts: the bounds that the CLI flags
    /// and a job spec's `variation` block both check.
    pub const MAX: Variation = Variation {
        edge_current_factor: 10.0,
        temperature_sigma_c: 100.0,
        linewidth_sigma: 0.5,
    };

    /// The same variation with both correlated fields frozen at nominal —
    /// the counterfactual the variance decomposition compares against.
    pub fn frozen_fields(&self) -> Variation {
        Variation {
            edge_current_factor: self.edge_current_factor,
            temperature_sigma_c: 0.0,
            linewidth_sigma: 0.0,
        }
    }

    /// Static per-via current weights for a `rows × cols` array: weight
    /// `1 + factor·s` where `s` counts the array sides the via touches.
    /// The Monte Carlo renormalizes the weighted currents so the total is
    /// conserved; only the *relative* weights matter.
    pub fn edge_weights(&self, rows: usize, cols: usize) -> Vec<f64> {
        let mut w = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let mut sides = 0u32;
                if r == 0 {
                    sides += 1;
                }
                if r + 1 == rows {
                    sides += 1;
                }
                if c == 0 {
                    sides += 1;
                }
                if c + 1 == cols {
                    sides += 1;
                }
                w.push(1.0 + self.edge_current_factor * f64::from(sides));
            }
        }
        w
    }

    /// Lifetime multiplier for a via running `offset_c` °C away from the
    /// technology's nominal operating temperature.
    ///
    /// `TTF ∝ 1/D_eff` with `D_eff = D₀·exp(−E_a/kT)`, so the factor is
    /// `exp(E_a/k_B · (1/T − 1/T_nom))`: hotter vias live (much) shorter.
    pub fn temperature_life_scale(tech: &Technology, offset_c: f64) -> f64 {
        let t_nom = tech.temperature_k();
        let t = (t_nom + offset_c).max(1.0);
        let boltzmann = tech.thermal_energy() / t_nom;
        (tech.activation_energy() / boltzmann * (1.0 / t - 1.0 / t_nom)).exp()
    }

    /// First-order ln-TTF sigma of the temperature field, for levels that
    /// work with fitted lifetime distributions instead of the Arrhenius
    /// law directly: `|d ln TTF / dT|·σ_T = E_a/(k_B·T²)·σ_T`.
    pub fn grid_ttf_ln_sigma(&self, tech: &Technology) -> f64 {
        let t_nom = tech.temperature_k();
        let boltzmann = tech.thermal_energy() / t_nom;
        tech.activation_energy() / (boltzmann * t_nom * t_nom) * self.temperature_sigma_c
    }
}

/// A spatially correlated field over `len` positions with unit marginal
/// variance: position `k` is `W_k/√(k+1)` where `W` is a standard random
/// walk. Neighboring positions share their walk prefix, so correlation
/// decays slowly with distance — the 1712.05562 on-die variation shape.
pub fn random_walk_field<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Vec<f64> {
    let mut walk = 0.0;
    (0..len)
        .map(|k| {
            walk += rng.next_standard_normal();
            walk / ((k + 1) as f64).sqrt()
        })
        .collect()
}

/// A separable 2-D correlated field over a `rows × cols` array, row-major:
/// `f(r,c) = (F_row(r) + F_col(c))/√2`, built from two independent
/// [`random_walk_field`]s so the marginal variance stays one.
pub fn correlated_field_2d<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Vec<f64> {
    let row_f = random_walk_field(rows, rng);
    let col_f = random_walk_field(cols, rng);
    let norm = 1.0 / 2f64.sqrt();
    let mut field = Vec::with_capacity(rows * cols);
    for rf in &row_f {
        for cf in &col_f {
            field.push((rf + cf) * norm);
        }
    }
    field
}

/// Random-walk variance analysis: the decomposition of `Var[ln TTF]` into
/// the void-nucleation contribution and the residual contributed by the
/// correlated temperature/linewidth fields.
///
/// Computed by replaying the same trial budget twice with the same seed:
/// once with every variation source active, once with the fields frozen
/// ([`Variation::frozen_fields`]). Because void draws come from their own
/// sub-stream, the two runs share identical critical-stress samples and
/// the difference isolates the field contribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VarianceDecomposition {
    /// `Var[ln TTF]` with all variation sources active.
    pub total: f64,
    /// `Var[ln TTF]` with the correlated fields frozen (void randomness
    /// plus any static edge weighting only).
    pub void: f64,
    /// `total − void`, clamped at zero: the field contribution.
    pub environment: f64,
}

impl VarianceDecomposition {
    /// Builds the decomposition from two matched ln-TTF sample sets.
    ///
    /// # Panics
    ///
    /// Panics if either sample set has fewer than two samples or the
    /// lengths differ.
    pub fn from_ln_samples(varied: &[f64], frozen: &[f64]) -> VarianceDecomposition {
        assert_eq!(varied.len(), frozen.len(), "matched runs must align");
        assert!(varied.len() >= 2, "variance needs at least two samples");
        let total = sample_variance(varied);
        let void = sample_variance(frozen);
        VarianceDecomposition {
            total,
            void,
            environment: (total - void).max(0.0),
        }
    }
}

/// Unbiased sample variance.
fn sample_variance(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emgrid_stats::seeded_rng;

    #[test]
    fn edge_weights_rank_corner_over_edge_over_interior() {
        let var = Variation {
            edge_current_factor: 0.5,
            ..Variation::default()
        };
        let w = var.edge_weights(4, 4);
        assert_eq!(w.len(), 16);
        assert_eq!(w[0], 2.0); // corner: two sides
        assert_eq!(w[1], 1.5); // edge: one side
        assert_eq!(w[5], 1.0); // interior
    }

    #[test]
    fn zero_factor_weights_are_uniform() {
        let w = Variation::default().edge_weights(3, 5);
        assert!(w.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn random_walk_field_is_unit_variance_and_correlated() {
        let mut rng = seeded_rng(11);
        let n = 4000;
        let mut first = Vec::new();
        let mut sum_sq = 0.0;
        let mut corr = 0.0;
        for _ in 0..n {
            let f = random_walk_field(8, &mut rng);
            first.push(f[0]);
            sum_sq += f[7] * f[7];
            corr += f[6] * f[7];
        }
        let var_last = sum_sq / n as f64;
        assert!((var_last - 1.0).abs() < 0.1, "var {var_last}");
        // Neighbors share a 7-step walk prefix: corr ≈ √(7/8).
        let rho = corr / n as f64 / var_last;
        assert!(rho > 0.8, "rho {rho}");
    }

    #[test]
    fn correlated_2d_field_has_unit_marginals() {
        let mut rng = seeded_rng(13);
        let n = 4000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let f = correlated_field_2d(4, 4, &mut rng);
            sum += f[5];
            sum_sq += f[5] * f[5];
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.08, "mean {mean}");
        assert!((var - 1.0).abs() < 0.12, "var {var}");
    }

    #[test]
    fn hotter_offsets_shorten_life() {
        let tech = Technology::default();
        let hot = Variation::temperature_life_scale(&tech, 20.0);
        let cold = Variation::temperature_life_scale(&tech, -20.0);
        assert!(hot < 1.0 && cold > 1.0, "hot {hot}, cold {cold}");
        assert_eq!(Variation::temperature_life_scale(&tech, 0.0), 1.0);
    }

    #[test]
    fn grid_sigma_matches_exact_scale_to_first_order() {
        let tech = Technology::default();
        let var = Variation {
            temperature_sigma_c: 5.0,
            ..Variation::default()
        };
        let ln_sigma = var.grid_ttf_ln_sigma(&tech);
        let exact = -Variation::temperature_life_scale(&tech, 5.0).ln();
        assert!(
            (ln_sigma - exact).abs() / exact < 0.05,
            "ln_sigma {ln_sigma} vs exact {exact}"
        );
    }

    #[test]
    fn variance_decomposition_clamps_and_splits() {
        let varied = [1.0, 3.0, 5.0, 7.0];
        let frozen = [2.0, 3.0, 4.0, 5.0];
        let d = VarianceDecomposition::from_ln_samples(&varied, &frozen);
        assert!(d.total > d.void);
        assert!((d.environment - (d.total - d.void)).abs() < 1e-12);
        let swapped = VarianceDecomposition::from_ln_samples(&frozen, &varied);
        assert_eq!(swapped.environment, 0.0);
    }
}
