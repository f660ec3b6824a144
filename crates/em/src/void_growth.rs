//! Void-growth time, the check on the paper's nucleation-only model.
//!
//! For Al-era technologies the TTF was `t_n + t_g` — nucleation plus the
//! time for the void to grow to a catastrophic size. The paper (after \[10\])
//! argues that Cu slit voids under vias grow so fast that `TTF ≈ t_n`, so
//! both Monte Carlo levels take a via's life to be its nucleation time.
//! This module implements the growth term so that claim can be examined
//! quantitatively (`slit_growth_is_fast_relative_to_nucleation` below
//! checks it at the nominal operating point).

use crate::constants::ELEMENTARY_CHARGE;
use crate::nucleation::diffusivity;
use crate::technology::Technology;

/// Void-growth model: drift-controlled growth at the EM drift velocity
/// `v = D_eff e Z* ρ j / (k_B T Ω^{0}) · Ω ...` — in the standard Korhonen
/// normalization, `v = (D_eff / k_B T) · e Z* ρ_Cu j`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrowthModel {
    /// Void size at which the via is considered electrically open, m.
    /// For slit voids this is the slit thickness (tens of nanometres); for
    /// legacy wire voids it is the via/wire dimension.
    pub critical_size: f64,
}

impl GrowthModel {
    /// A slit-void model: a thin (10 nm) void severs the via (fast growth,
    /// consistent with the paper's "void growth … is rapid" for Cu).
    pub fn slit() -> Self {
        GrowthModel {
            critical_size: 10e-9,
        }
    }

    /// A legacy wire-spanning model: the void must grow across the via
    /// (paper's Al-era comparison point).
    pub fn spanning(via_width: f64) -> Self {
        GrowthModel {
            critical_size: via_width,
        }
    }

    /// EM drift velocity (m/s) at current density `j` (A/m²).
    pub fn drift_velocity(&self, tech: &Technology, j: f64) -> f64 {
        let force = ELEMENTARY_CHARGE * tech.effective_charge * tech.resistivity * j;
        diffusivity(tech) * force / tech.thermal_energy()
    }

    /// Growth time (seconds) to the critical size at current density `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j <= 0`.
    pub fn growth_time(&self, tech: &Technology, j: f64) -> f64 {
        assert!(j > 0.0, "current density must be positive");
        self.critical_size / self.drift_velocity(tech, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nucleation::{nucleation_time, SECONDS_PER_YEAR};

    #[test]
    fn slit_growth_is_fast_relative_to_nucleation() {
        // This is the quantitative backing for the paper's TTF ≈ t_n claim:
        // at the nominal operating point the 10 nm slit-void growth time is
        // well below the nucleation time.
        let tech = Technology::default();
        let j = 1e10;
        let tn = nucleation_time(&tech, 340e6, 240e6, j);
        let tg = GrowthModel::slit().growth_time(&tech, j);
        assert!(
            tg < 0.2 * tn,
            "tg {} yr vs tn {} yr",
            tg / SECONDS_PER_YEAR,
            tn / SECONDS_PER_YEAR
        );
    }

    #[test]
    fn spanning_growth_dominates_for_large_vias() {
        // A 1 µm legacy void must grow 100× further than a slit: growth can
        // no longer be neglected.
        let tech = Technology::default();
        let j = 1e10;
        let slit = GrowthModel::slit().growth_time(&tech, j);
        let span = GrowthModel::spanning(1e-6).growth_time(&tech, j);
        assert!((span / slit - 100.0).abs() < 1e-9);
    }

    #[test]
    fn growth_time_inverse_in_current() {
        let tech = Technology::default();
        let g = GrowthModel::slit();
        let t1 = g.growth_time(&tech, 1e10);
        let t2 = g.growth_time(&tech, 2e10);
        assert!((t1 / t2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn drift_velocity_positive_and_tiny() {
        let tech = Technology::default();
        let v = GrowthModel::slit().drift_velocity(&tech, 1e10);
        assert!(v > 0.0 && v < 1e-9, "drift velocity {v} m/s");
    }
}
