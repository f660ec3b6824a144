//! Power-grid electromigration reliability analysis (the paper's §4–§5,
//! level 2).
//!
//! The grid is a redundant system whose components are **via arrays**: each
//! array's TTF comes from the level-1 characterization
//! ([`emgrid_via::ViaArrayReliability`]), rescaled to its local current.
//! A Monte Carlo plays array failures forward — every failure is a rank-1
//! conductance update applied to the grid's factor in place — until the
//! system failure criterion (weakest link, or IR drop above a fraction of
//! Vdd) is breached.
//!
//! * [`model::PowerGrid`] — netlist → grid model with via-site detection
//!   and its one nominal operating point,
//! * [`irdrop`] — IR-drop evaluation of DC solutions,
//! * [`mc::PowerGridMc`] — Algorithm 1 with via arrays as components,
//! * [`report`] — the Table 2 / Fig. 10 output helpers.
//!
//! # Example
//!
//! ```
//! use emgrid_pg::prelude::*;
//!
//! // Small synthetic grid + the paper's 4x4 array characterization.
//! let netlist = GridSpec::custom("demo", 8, 8).generate();
//! let grid = PowerGrid::from_netlist(netlist).unwrap();
//! let reliability = ViaArrayMc::from_reference_table(
//!     &ViaArrayConfig::paper_4x4(IntersectionPattern::Plus),
//!     Technology::default(),
//!     1e10,
//! )
//! .characterize(200, 1)
//! .reliability(FailureCriterion::OpenCircuit)
//! .unwrap();
//!
//! let mc = PowerGridMc::new(grid, reliability)
//!     .with_system_criterion(SystemCriterion::IrDropFraction(0.10));
//! let result = mc.run(25, 7).unwrap();
//! assert!(result.ecdf().min() > 0.0);
//! ```

pub mod flat;
pub mod irdrop;
pub mod mc;
pub mod model;
pub mod report;
pub mod signoff;

pub use flat::{FlatMc, FlatResult};
pub use irdrop::IrDropReport;
pub use mc::{
    GridCheckpoint, GridSession, GridVariation, McResult, PowerGridMc, SiteAssignment,
    SystemCriterion, TrialOutcome,
};
pub use model::{PgError, PowerGrid, ViaSite};
pub use report::{Table2Row, TtfCurve};
pub use signoff::{current_density_signoff, SignoffReport, WireGeometry};

/// Convenient re-exports for typical use.
pub mod prelude {
    pub use crate::flat::{FlatMc, FlatResult};
    pub use crate::mc::{GridVariation, McResult, PowerGridMc, SiteAssignment, SystemCriterion};
    pub use crate::model::{PgError, PowerGrid, ViaSite};
    pub use crate::report::{Table2Row, TtfCurve};
    pub use emgrid_em::{Technology, SECONDS_PER_YEAR};
    pub use emgrid_fea::geometry::IntersectionPattern;
    pub use emgrid_spice::GridSpec;
    pub use emgrid_via::{FailureCriterion, ViaArrayConfig, ViaArrayMc, ViaArrayReliability};
}
