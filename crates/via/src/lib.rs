//! Via-array electromigration modeling (the paper's §3–§4, level 1).
//!
//! A power-grid via array is a redundant system: the failure of one via
//! raises the array resistance (Eq. 5, [`array::resistance_increase`]) and
//! redistributes current onto the survivors, accelerating them (TTF ∝ 1/j²).
//! This crate combines:
//!
//! * **array geometry and failure criteria** ([`mod@array`]) — via counts,
//!   resistance-ratio and open-circuit criteria,
//! * **precharacterized thermomechanical stress** ([`stress_table`]) — per-
//!   via peak `σ_T` for each (layer pair, pattern, configuration, wire
//!   width), either regenerated with the [`emgrid_fea`] engine or taken from
//!   the bundled reference table calibrated to the paper's Figs. 1/6/7,
//! * **current redistribution** ([`electrical`]) — a uniform model and a
//!   plate-network model that captures current crowding at perimeter vias,
//! * **the level-1 Monte Carlo** ([`mc`]) — Algorithm 1 with vias as
//!   components — and its **lognormal characterization** output
//!   ([`characterization`]) that feeds the power-grid level.
//!
//! # Example
//!
//! Characterize the paper's 4×4 Plus-shaped array and read off the TTF at
//! the `R = 2×` failure criterion:
//!
//! ```
//! use emgrid_via::prelude::*;
//!
//! let config = ViaArrayConfig::paper_4x4(IntersectionPattern::Plus);
//! let mc = ViaArrayMc::from_reference_table(&config, Technology::default(), 1e10);
//! let result = mc.characterize(500, 42);
//! let ttf = result.fit_lognormal(FailureCriterion::ResistanceRatio(2.0)).unwrap();
//! let years = ttf.median() / SECONDS_PER_YEAR;
//! assert!(years > 0.5 && years < 50.0, "median {years} years");
//! ```

pub mod analytic;
pub mod array;
pub mod cache;
pub mod characterization;
pub mod electrical;
pub mod layout;
pub mod mc;
pub mod stress_table;
pub mod variation;

pub use analytic::WeakestLink;
pub use array::{resistance_increase, FailureCriterion, ViaArrayConfig};
pub use cache::{CacheEntry, StressCache};
pub use characterization::{CharacterizationResult, ViaArrayReliability};
pub use electrical::CurrentModel;
pub use layout::{ArrayFootprint, DesignRules};
pub use mc::{ViaArrayMc, ViaArraySample, ViaCheckpoint, ViaSession};
pub use stress_table::{
    FeaOptions, FeaPrimitiveReport, FeaReport, LayerPair, StressEntry, StressTable,
};
pub use variation::{VarianceDecomposition, Variation};

/// Convenient re-exports for typical use.
pub mod prelude {
    pub use crate::array::{resistance_increase, FailureCriterion, ViaArrayConfig};
    pub use crate::characterization::{CharacterizationResult, ViaArrayReliability};
    pub use crate::electrical::CurrentModel;
    pub use crate::mc::{ViaArrayMc, ViaArraySample};
    pub use crate::stress_table::{LayerPair, StressTable};
    pub use crate::variation::{VarianceDecomposition, Variation};
    pub use emgrid_em::{Technology, SECONDS_PER_YEAR};
    pub use emgrid_fea::geometry::{IntersectionPattern, ViaArrayGeometry};
}
