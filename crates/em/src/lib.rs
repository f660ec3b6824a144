//! Electromigration void-nucleation physics (the paper's §2).
//!
//! Implements the stress-threshold nucleation model used by the paper:
//!
//! * **Eq. (1)–(3)** — the Korhonen-style nucleation time
//!   `t_n = C_tn (σ_C − σ_T)² / D_eff` with
//!   `C_tn = (Ω/4) · π k_B T / ((e Z* ρ_Cu j)² B)` and
//!   `D_eff = D₀ exp(−E_a / k_B T)` ([`nucleation`]),
//! * **Eq. (4)** — the critical stress `σ_C = 2 γ_s sin θ_C / R_f` with a
//!   lognormal flaw radius `R_f`, making `σ_C` exactly lognormal
//!   ([`mod@critical_stress`]),
//! * the [`Technology`] parameter set that calibrates both, with defaults
//!   that land the nominal 4×4 via array at `j = 1×10¹⁰ A/m²`, 105 °C in the
//!   paper's multi-year TTF range,
//! * a void-**growth** model ([`void_growth`]) — negligible for the slit
//!   voids of Cu technology per the paper; it checks that nucleation-only
//!   argument and is not a Monte Carlo option.
//!
//! # Example
//!
//! ```
//! use emgrid_em::{Technology, nucleation};
//!
//! let tech = Technology::default();
//! // Median critical stress vs a precharacterized 240 MPa thermomechanical
//! // stress at the nominal power-grid current density.
//! let sigma_c = tech.critical_stress_distribution().median();
//! let ttf = nucleation::nucleation_time(&tech, sigma_c, 240e6, 1e10);
//! let years = ttf / nucleation::SECONDS_PER_YEAR;
//! assert!(years > 1.0 && years < 20.0, "nominal TTF {years} years");
//! ```

pub mod black;
pub mod constants;
pub mod critical_stress;
pub mod nucleation;
pub mod technology;
pub mod void_growth;

pub use black::BlackModel;
pub use critical_stress::critical_stress;
pub use nucleation::{diffusivity, nucleation_constant, nucleation_time, SECONDS_PER_YEAR};
pub use technology::Technology;
pub use void_growth::GrowthModel;
