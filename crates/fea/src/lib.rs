//! A from-scratch 3-D linear thermoelastic finite-element engine for
//! copper dual-damascene (Cu DD) interconnect stacks.
//!
//! This crate replaces the ABAQUS runs of the paper ("Incorporating the Role
//! of Stress on Electromigration in Power Grids with Via Arrays", DAC 2017):
//! it meshes the Cu DD structure of the paper's Fig. 2 — silicon substrate,
//! SiCOH inter-layer dielectric, Ta-lined copper wires and vias, Si₃N₄
//! capping — as axis-aligned 8-node hexahedra, assembles the isotropic
//! thermoelastic stiffness system for the anneal-to-operating temperature
//! drop, solves it, and recovers the **hydrostatic stress** `σ_H =
//! (σxx + σyy + σzz)/3` that drives void nucleation.
//!
//! The flow mirrors the paper's §3 characterization methodology:
//!
//! 1. describe a via-array intersection primitive
//!    ([`geometry::CharacterizationModel`]) — Plus-, T- or L-shaped pattern
//!    ([`geometry::IntersectionPattern`]), array configuration
//!    ([`geometry::ViaArrayGeometry`]), wire width, layer stack
//!    ([`geometry::CuDdStack`]),
//! 2. voxelize it into a [`mesh::HexMesh`] with material IDs from the
//!    paper's Table 1 ([`material::table1`]),
//! 3. solve the thermoelastic problem ([`model::ThermalStressAnalysis`]),
//! 4. extract line scans (the paper's Figs. 1, 6, 7) and per-via peak
//!    stresses ([`stress::StressField`]), which feed the EM layer.
//!
//! # Example
//!
//! Compute the hydrostatic stress map of a tiny 2×2 via-array primitive
//! (coarse mesh so the example runs quickly):
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use emgrid_fea::geometry::{CharacterizationModel, IntersectionPattern, ViaArrayGeometry};
//! use emgrid_fea::model::ThermalStressAnalysis;
//!
//! let model = CharacterizationModel {
//!     pattern: IntersectionPattern::Plus,
//!     array: ViaArrayGeometry::square(2, 0.5, 1.0),
//!     resolution: 0.25,
//!     ..CharacterizationModel::default()
//! };
//! let analysis = ThermalStressAnalysis::new(model);
//! let field = analysis.run()?;
//! let peaks = field.per_via_peak_stress();
//! assert_eq!(peaks.len(), 4);
//! // Annealing from 325 °C to 105 °C leaves the copper in tension.
//! assert!(peaks.iter().all(|&p| p > 0.0));
//! # Ok(())
//! # }
//! ```

// Indexed loops over multiple parallel arrays are the clearest form for
// these numerical kernels; silence clippy's iterator suggestion crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod assembly;
pub mod element;
pub mod export;
pub mod geometry;
pub mod material;
pub mod mesh;
pub mod model;
mod rigid;
pub mod stress;
pub mod verification;

pub use assembly::{BoundaryConditions, FaceBc};
pub use geometry::{CharacterizationModel, CuDdStack, IntersectionPattern, ViaArrayGeometry};
pub use material::{table1, Material, MaterialKind};
pub use mesh::HexMesh;
pub use model::{FeaError, SolveMethod, SolveStats, ThermalStressAnalysis};
pub use stress::StressField;
