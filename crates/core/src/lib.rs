//! `emgrid` — stress-aware electromigration reliability analysis of power
//! grids with via arrays.
//!
//! A from-scratch Rust reproduction of *"Incorporating the Role of Stress on
//! Electromigration in Power Grids with Via Arrays"* (Mishra, Jain, Marella,
//! Sapatnekar — DAC 2017), including every substrate the paper relies on:
//!
//! | sub-crate | role |
//! |---|---|
//! | [`sparse`] | sparse Cholesky / CG / rank-1 incremental solvers |
//! | [`stats`] | lognormal machinery, Wilkinson approximation, ECDFs, KS |
//! | [`fea`] | 3-D thermoelastic FEM of the Cu dual-damascene stack |
//! | [`em`] | Korhonen nucleation model, Eq. (1)–(4) |
//! | [`via`] | via-array redundancy, stress tables, level-1 Monte Carlo |
//! | [`spice`] | SPICE netlists, MNA DC solver, benchmark generator |
//! | [`pg`] | power-grid IR-drop reliability, level-2 Monte Carlo |
//! | [`screen`] | linear-time steady-state EM screening (prefilter before MC) |
//!
//! The typical flow mirrors the paper:
//!
//! 1. **Characterize** a via-array configuration: thermomechanical stress
//!    from the FEA engine (or the bundled reference table), level-1 Monte
//!    Carlo, lognormal fit.
//! 2. **Analyze** a power grid: sample via-array TTFs at each site's local
//!    current, fail arrays until the IR-drop criterion is breached.
//!
//! [`ReliabilityStudy`] packages the whole flow.
//!
//! # Example
//!
//! ```
//! use emgrid::prelude::*;
//! use emgrid::ReliabilityStudy;
//!
//! let outcome = ReliabilityStudy::new(GridSpec::custom("demo", 8, 8))
//!     .with_array(ViaArrayConfig::paper_4x4(IntersectionPattern::Plus))
//!     .with_via_criterion(FailureCriterion::OpenCircuit)
//!     .with_system_criterion(SystemCriterion::IrDropFraction(0.10))
//!     .with_trials(100, 20)
//!     .run(42)
//!     .unwrap();
//! assert!(outcome.grid_result.worst_case_years() > 0.0);
//! ```

pub mod cli;

pub use emgrid_em as em;
pub use emgrid_fea as fea;
pub use emgrid_pg as pg;
pub use emgrid_runtime as runtime;
pub use emgrid_screen as screen;
pub use emgrid_sparse as sparse;
pub use emgrid_spice as spice;
pub use emgrid_stats as stats;
pub use emgrid_via as via;

use std::error::Error;
use std::fmt;

use emgrid_em::Technology;
use emgrid_fea::geometry::IntersectionPattern;
use emgrid_pg::{McResult, PgError, PowerGrid, PowerGridMc, SystemCriterion};
use emgrid_runtime::RuntimeConfig;
use emgrid_spice::GridSpec;
use emgrid_stats::InvalidParameterError;
use emgrid_via::{
    CharacterizationResult, FailureCriterion, ViaArrayConfig, ViaArrayMc, ViaArrayReliability,
};

/// Everything most users need.
pub mod prelude {
    pub use emgrid_em::{Technology, SECONDS_PER_YEAR};
    pub use emgrid_fea::geometry::{CharacterizationModel, IntersectionPattern, ViaArrayGeometry};
    pub use emgrid_fea::model::ThermalStressAnalysis;
    pub use emgrid_pg::{
        GridVariation, IrDropReport, McResult, PowerGrid, PowerGridMc, SiteAssignment,
        SystemCriterion, Table2Row, TtfCurve,
    };
    pub use emgrid_runtime::{EarlyStop, RunReport, RuntimeConfig};
    pub use emgrid_spice::{parse, GridSpec};
    pub use emgrid_stats::{Ecdf, LogNormal, OnlineStats};
    pub use emgrid_via::{
        CurrentModel, FailureCriterion, FeaOptions, FeaReport, StressCache, StressTable,
        VarianceDecomposition, Variation, ViaArrayConfig, ViaArrayMc, ViaArrayReliability,
    };
}

/// Errors from the end-to-end study pipeline.
#[derive(Debug)]
pub enum StudyError {
    /// Via-array characterization could not be fitted.
    Fit(InvalidParameterError),
    /// Power-grid analysis failed.
    Grid(PgError),
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::Fit(e) => write!(f, "via-array characterization failed: {e}"),
            StudyError::Grid(e) => write!(f, "power-grid analysis failed: {e}"),
        }
    }
}

impl Error for StudyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StudyError::Fit(e) => Some(e),
            StudyError::Grid(e) => Some(e),
        }
    }
}

impl From<InvalidParameterError> for StudyError {
    fn from(e: InvalidParameterError) -> Self {
        StudyError::Fit(e)
    }
}

impl From<PgError> for StudyError {
    fn from(e: PgError) -> Self {
        StudyError::Grid(e)
    }
}

/// An end-to-end study: characterize one via-array configuration, then run
/// the power-grid Monte Carlo with it at every site.
#[derive(Debug, Clone)]
pub struct ReliabilityStudy {
    grid_spec: GridSpec,
    array: ViaArrayConfig,
    technology: Technology,
    via_criterion: FailureCriterion,
    system_criterion: SystemCriterion,
    characterization_current: f64,
    via_trials: usize,
    grid_trials: usize,
    runtime: RuntimeConfig,
}

impl ReliabilityStudy {
    /// A study of the given synthetic grid with paper-default settings:
    /// 4×4 Plus array, open-circuit array criterion, 10% IR-drop system
    /// criterion, 500 level-1 trials and 500 level-2 trials (the paper's
    /// `N_trials`).
    pub fn new(grid_spec: GridSpec) -> Self {
        ReliabilityStudy {
            grid_spec,
            array: ViaArrayConfig::paper_4x4(IntersectionPattern::Plus),
            technology: Technology::default(),
            via_criterion: FailureCriterion::OpenCircuit,
            system_criterion: SystemCriterion::IrDropFraction(0.10),
            characterization_current: 1e10,
            via_trials: 500,
            grid_trials: 500,
            runtime: RuntimeConfig::sequential(),
        }
    }

    /// Selects the via-array configuration used at every site.
    pub fn with_array(mut self, array: ViaArrayConfig) -> Self {
        self.array = array;
        self
    }

    /// Overrides the technology parameters.
    pub fn with_technology(mut self, technology: Technology) -> Self {
        self.technology = technology;
        self
    }

    /// Selects the via-array failure criterion.
    pub fn with_via_criterion(mut self, criterion: FailureCriterion) -> Self {
        self.via_criterion = criterion;
        self
    }

    /// Selects the system failure criterion.
    pub fn with_system_criterion(mut self, criterion: SystemCriterion) -> Self {
        self.system_criterion = criterion;
        self
    }

    /// Sets the level-1 and level-2 Monte Carlo trial counts.
    pub fn with_trials(mut self, via_trials: usize, grid_trials: usize) -> Self {
        self.via_trials = via_trials;
        self.grid_trials = grid_trials;
        self
    }

    /// Runs both Monte Carlo levels on the given runtime (thread count and
    /// optional early termination). Results are bit-identical for any
    /// thread count.
    pub fn with_runtime(mut self, runtime: RuntimeConfig) -> Self {
        self.runtime = runtime;
        self
    }

    /// Runs the two-level analysis.
    ///
    /// # Errors
    ///
    /// Returns [`StudyError`] if the characterization cannot be fitted or
    /// the grid analysis fails.
    pub fn run(&self, seed: u64) -> Result<StudyOutcome, StudyError> {
        let characterization = ViaArrayMc::from_reference_table(
            &self.array,
            self.technology,
            self.characterization_current,
        )
        .characterize_with(self.via_trials, seed ^ 0x5eed_0001, &self.runtime);
        let reliability = characterization.reliability(self.via_criterion)?;
        let grid = PowerGrid::from_netlist(self.grid_spec.generate())?;
        let nominal_ir = emgrid_pg::IrDropReport::evaluate(&grid, grid.nominal_solution());
        let mc = PowerGridMc::new(grid, reliability).with_system_criterion(self.system_criterion);
        let grid_result = mc.run_with(self.grid_trials, seed ^ 0x5eed_0002, &self.runtime)?;
        Ok(StudyOutcome {
            characterization,
            reliability,
            nominal_ir,
            grid_result,
        })
    }
}

/// The artifacts of a [`ReliabilityStudy`].
#[derive(Debug, Clone)]
pub struct StudyOutcome {
    /// Level-1 characterization (per-trial via failure times).
    pub characterization: CharacterizationResult,
    /// The fitted lognormal used at every grid site.
    pub reliability: ViaArrayReliability,
    /// Nominal (failure-free) IR drop of the grid.
    pub nominal_ir: emgrid_pg::IrDropReport,
    /// Level-2 system TTF samples.
    pub grid_result: McResult,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_study() -> ReliabilityStudy {
        ReliabilityStudy::new(GridSpec::custom("t", 8, 8)).with_trials(100, 15)
    }

    #[test]
    fn study_runs_end_to_end() {
        let outcome = quick_study().run(1).unwrap();
        assert!(outcome.nominal_ir.worst_fraction < 0.10);
        assert!(outcome.grid_result.worst_case_years() > 0.0);
        assert!(outcome.reliability.distribution.median() > 0.0);
    }

    #[test]
    fn larger_arrays_improve_system_ttf() {
        // The paper's bottom line (Table 2): 8×8 beats 4×4 for the same
        // criteria.
        let small = quick_study()
            .with_array(ViaArrayConfig::paper_4x4(IntersectionPattern::Plus))
            .run(5)
            .unwrap();
        let large = quick_study()
            .with_array(ViaArrayConfig::paper_8x8(IntersectionPattern::Plus))
            .run(5)
            .unwrap();
        assert!(
            large.grid_result.median_years() > small.grid_result.median_years(),
            "8x8 {} vs 4x4 {}",
            large.grid_result.median_years(),
            small.grid_result.median_years()
        );
    }

    #[test]
    fn study_is_reproducible() {
        let a = quick_study().run(9).unwrap();
        let b = quick_study().run(9).unwrap();
        assert_eq!(a.grid_result.ttf_seconds(), b.grid_result.ttf_seconds());
    }
}
