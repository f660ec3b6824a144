//! Flat (non-hierarchical) Monte Carlo: individual **vias** as the failing
//! components of the whole power grid.
//!
//! The paper's methodology is hierarchical: characterize a via array once,
//! fit a lognormal, and sample that distribution at the grid level. The
//! flat simulation here skips the hierarchy — every via of every array is
//! a component; each via failure bumps its array's resistance by the Eq. 5
//! step (`g → g − g_nom/n`), currents redistribute across the *whole grid*,
//! and all surviving vias rescale. It is far more expensive (the reason
//! the paper introduces the hierarchy) but provides the ground truth the
//! hierarchical results can be validated against on small grids — see the
//! `hierarchical_matches_flat_ground_truth` test.

use emgrid_em::nucleation::{self, rescale_remaining_life};
use emgrid_em::Technology;
use emgrid_sparse::IncrementalSolver;
use emgrid_stats::Ecdf;
use emgrid_stats::Rng;
use emgrid_via::{StressTable, ViaArrayConfig};

use crate::irdrop::IrDropReport;
use crate::mc::SystemCriterion;
use crate::model::{PgError, PowerGrid};

/// System TTF samples from the flat simulation.
#[derive(Debug, Clone)]
pub struct FlatResult {
    ttf_seconds: Vec<f64>,
}

impl FlatResult {
    /// System TTF per trial, seconds.
    pub fn ttf_seconds(&self) -> &[f64] {
        &self.ttf_seconds
    }

    /// Empirical CDF of the system TTF.
    pub fn ecdf(&self) -> Ecdf {
        Ecdf::new(self.ttf_seconds.clone())
    }

    /// Median TTF in years.
    pub fn median_years(&self) -> f64 {
        self.ecdf().median() / emgrid_em::SECONDS_PER_YEAR
    }
}

/// A flat Monte Carlo over every via of every array.
#[derive(Debug, Clone)]
pub struct FlatMc {
    grid: PowerGrid,
    config: ViaArrayConfig,
    tech: Technology,
    sigma_t: Vec<f64>,
    system_criterion: SystemCriterion,
}

impl FlatMc {
    /// Creates a flat simulation with the same via-array configuration at
    /// every site, using the bundled reference stress table.
    ///
    /// # Panics
    ///
    /// Panics if the reference table lacks the configuration.
    pub fn new(grid: PowerGrid, config: ViaArrayConfig, tech: Technology) -> Self {
        let sigma_t = StressTable::reference()
            .lookup(
                config.layer_pair,
                config.pattern,
                config.geometry.rows,
                config.geometry.cols,
                config.wire_width,
            )
            .expect("reference table covers the paper configurations");
        FlatMc {
            grid,
            config,
            tech,
            sigma_t,
            system_criterion: SystemCriterion::IrDropFraction(0.10),
        }
    }

    /// Sets the system failure criterion (default: 10% IR drop).
    pub fn with_system_criterion(mut self, criterion: SystemCriterion) -> Self {
        self.system_criterion = criterion;
        self
    }

    /// Runs `trials` trials.
    ///
    /// # Errors
    ///
    /// Returns [`PgError`] if the base system cannot be factored.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub fn run(&self, trials: usize, seed: u64) -> Result<FlatResult, PgError> {
        assert!(trials > 0, "need at least one trial");
        // Every trial's clone starts from the grid's base solution.
        let base_solver = self.grid.incremental_solver()?;
        let base_rhs = self.grid.dc().rhs();
        let mut rng = emgrid_stats::seeded_rng(seed);
        let mut ttf_seconds = Vec::with_capacity(trials);
        for _ in 0..trials {
            ttf_seconds.push(self.one_trial(&mut rng, &base_solver, base_rhs)?);
        }
        Ok(FlatResult { ttf_seconds })
    }

    fn one_trial(
        &self,
        rng: &mut (impl Rng + ?Sized),
        base_solver: &IncrementalSolver,
        base_rhs: &[f64],
    ) -> Result<f64, PgError> {
        let sites = self.grid.via_sites();
        let m = sites.len();
        let n = self.config.count();
        let area_eff = self.config.effective_area_m2();
        let j_floor = 1e7; // A/m²; guards the 1/j² rescale at idle vias.
        let sc_dist = self.tech.critical_stress_distribution();

        // Per-site state.
        let site_currents = self.grid.via_currents(self.grid.nominal_solution());
        let mut alive = vec![n; m];
        // Via current density at site s: I_s / (alive_s · A_via) =
        // I_s · n / (alive_s · A_eff).
        let j_site = |current: f64, alive: usize| -> f64 {
            (current * n as f64 / (alive as f64 * area_eff)).max(j_floor)
        };
        let mut j: Vec<f64> = site_currents.iter().map(|&i| j_site(i, n)).collect();
        // remaining[s][v], row-major per site.
        let mut remaining: Vec<f64> = (0..m)
            .flat_map(|s| {
                let js = j[s];
                self.sigma_t
                    .iter()
                    .map(move |&st| (s, st, js))
                    .collect::<Vec<_>>()
            })
            .map(|(_, st, js)| nucleation::nucleation_time(&self.tech, sc_dist.sample(rng), st, js))
            .collect();

        if matches!(self.system_criterion, SystemCriterion::WeakestLink) {
            return Ok(remaining.iter().copied().fold(f64::INFINITY, f64::min));
        }
        let SystemCriterion::IrDropFraction(threshold) = self.system_criterion else {
            unreachable!("weakest-link handled above");
        };

        let mut solver = base_solver.clone();
        let rhs = base_rhs.to_vec();
        let dc = self.grid.dc();
        let mut t = 0.0;
        let mut via_alive = vec![true; m * n];
        loop {
            // Earliest alive via anywhere.
            let mut victim = usize::MAX;
            let mut dt = f64::INFINITY;
            for (k, &a) in via_alive.iter().enumerate() {
                if a && remaining[k] < dt {
                    dt = remaining[k];
                    victim = k;
                }
            }
            if victim == usize::MAX {
                return Ok(t); // everything failed without breaching
            }
            t += dt;
            via_alive[victim] = false;
            let s = victim / n;
            alive[s] -= 1;
            for (k, &a) in via_alive.iter().enumerate() {
                if a {
                    remaining[k] = (remaining[k] - dt).max(0.0);
                }
            }

            // Eq. 5 step: each via failure removes g_nom/n of the array's
            // conductance.
            let site = &sites[s];
            let delta_g = -1.0 / (site.resistance * n as f64);
            let ok = match (dc.unknown_index(site.lower), dc.unknown_index(site.upper)) {
                (Some(i), Some(jx)) => solver.update_edge(i, jx, delta_g).is_ok(),
                _ => true, // benchmark grids keep via endpoints unknown
            };
            if !ok {
                return Ok(t);
            }
            let x = match solver.solve(&rhs) {
                Ok(x) => x,
                Err(_) => return Ok(t),
            };
            let solution = dc.solution_from_unknowns(&x);
            if IrDropReport::evaluate(&self.grid, &solution).violates(threshold) {
                return Ok(t);
            }

            // Rescale all surviving vias to their new current densities.
            let currents = self.grid.via_currents(&solution);
            for site_idx in 0..m {
                if alive[site_idx] == 0 {
                    continue;
                }
                let j_new = j_site(currents[site_idx], alive[site_idx]);
                if (j_new - j[site_idx]).abs() > 1e-12 {
                    for v in 0..n {
                        let k = site_idx * n + v;
                        if via_alive[k] {
                            remaining[k] = rescale_remaining_life(remaining[k], j[site_idx], j_new);
                        }
                    }
                    j[site_idx] = j_new;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emgrid_fea::geometry::IntersectionPattern;
    use emgrid_sparse::{FactorOptions, Method, Ordering};
    use emgrid_spice::benchgen::GridSpec;
    use emgrid_via::{FailureCriterion, ViaArrayMc};

    fn small_grid() -> PowerGrid {
        PowerGrid::from_netlist(GridSpec::custom("flat", 6, 6).generate()).unwrap()
    }

    #[test]
    fn flat_ttfs_are_positive_and_reproducible() {
        let mc = FlatMc::new(
            small_grid(),
            ViaArrayConfig::paper_4x4(IntersectionPattern::Plus),
            Technology::default(),
        );
        let a = mc.run(5, 3).unwrap();
        let b = mc.run(5, 3).unwrap();
        assert_eq!(a.ttf_seconds(), b.ttf_seconds());
        assert!(a.ttf_seconds().iter().all(|&t| t > 0.0));
    }

    #[test]
    fn an_nd_grid_run_starts_from_the_nd_factor() {
        // A trial of the run on an ND grid is bit for bit the trial started
        // from an ND factor holding its nominal solution, and not the one
        // an AMD factor starts.
        let netlist = GridSpec::custom("flat", 6, 6).generate();
        let grid = PowerGrid::from_netlist_with(netlist, Method::Direct, Ordering::Nd).unwrap();
        let mc = FlatMc::new(
            grid,
            ViaArrayConfig::paper_4x4(IntersectionPattern::Plus),
            Technology::default(),
        );
        let dc = mc.grid.dc();
        let started_from = |ordering| {
            let factor = FactorOptions::default().with_ordering(ordering);
            let mut solver = IncrementalSolver::with_options(dc.matrix(), &factor).unwrap();
            solver.solve(dc.rhs()).unwrap();
            let mut rng = emgrid_stats::seeded_rng(3);
            mc.one_trial(&mut rng, &solver, dc.rhs()).unwrap().to_bits()
        };
        let ttf = mc.run(1, 3).unwrap().ttf_seconds()[0].to_bits();
        assert_eq!(ttf, started_from(Ordering::Nd));
        assert_ne!(ttf, started_from(Ordering::Amd));
    }

    #[test]
    fn hierarchical_matches_flat_ground_truth() {
        // The paper's central methodological claim, validated: the two-level
        // decomposition (characterize array → sample lognormal at grid
        // level) approximates the flat per-via simulation.
        let tech = Technology::default();
        let config = ViaArrayConfig::paper_4x4(IntersectionPattern::Plus);

        let flat = FlatMc::new(small_grid(), config, tech).run(25, 11).unwrap();

        let rel = ViaArrayMc::from_reference_table(&config, tech, 1e10)
            .characterize(400, 12)
            .reliability(FailureCriterion::OpenCircuit)
            .unwrap();
        let hierarchical = crate::mc::PowerGridMc::new(small_grid(), rel)
            .run(25, 11)
            .unwrap();

        let ratio = hierarchical.median_years() / flat.median_years();
        assert!(
            (0.5..2.0).contains(&ratio),
            "hierarchical {} yr vs flat {} yr (ratio {ratio})",
            hierarchical.median_years(),
            flat.median_years()
        );
    }

    #[test]
    fn flat_weakest_link_is_the_global_minimum_via() {
        let mc = FlatMc::new(
            small_grid(),
            ViaArrayConfig::paper_4x4(IntersectionPattern::Plus),
            Technology::default(),
        )
        .with_system_criterion(SystemCriterion::WeakestLink);
        let r = mc.run(10, 7).unwrap();
        // Minimum over 36 sites × 16 vias: comfortably below a year at
        // these currents.
        assert!(r.median_years() < 3.0);
        assert!(r.ttf_seconds().iter().all(|&t| t > 0.0));
    }
}
