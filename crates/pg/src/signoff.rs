//! Traditional current-density signoff — the conventional flow the paper's
//! introduction describes and improves upon.
//!
//! *"Today, circuit designers typically guard against EM by comparing
//! current densities against a foundry-specified limit for a process
//! technology"* (§1). This module runs that check on a power grid: every
//! element's current density is compared against a limit derived from a
//! lifetime target through Black's law. Contrasting its verdicts with the
//! stress-aware Monte Carlo (see the `grid_signoff` example) demonstrates
//! what the conventional flow misses.

use emgrid_em::black::BlackModel;
use emgrid_em::Technology;
use emgrid_spice::netlist::Element;

use crate::model::PowerGrid;

/// Conductor cross-sections used to convert element currents to current
/// densities (m²).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireGeometry {
    /// Cross-section of a lower-layer wire segment (width × thickness), m².
    pub lower_wire_cross_section: f64,
    /// Cross-section of a top-metal stripe (much wider/thicker: it carries
    /// the aggregated pad current), m².
    pub upper_wire_cross_section: f64,
    /// Conducting cross-section of a via array, m².
    pub via_cross_section: f64,
}

impl Default for WireGeometry {
    fn default() -> Self {
        WireGeometry {
            // 2 µm × 0.3 µm intermediate power-grid wire.
            lower_wire_cross_section: 2.0e-6 * 0.3e-6,
            // 10 µm × 2 µm top-metal power stripe.
            upper_wire_cross_section: 10.0e-6 * 2.0e-6,
            // The paper's 1 µm² effective via-array area.
            via_cross_section: 1e-12,
        }
    }
}

/// One element exceeding the current-density limit.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Element name.
    pub name: String,
    /// Its current density, A/m².
    pub current_density: f64,
    /// The limit it was checked against, A/m².
    pub limit: f64,
}

/// The outcome of a traditional signoff run.
#[derive(Debug, Clone, PartialEq)]
pub struct SignoffReport {
    /// The current-density limit applied to wires and vias, A/m².
    pub limit: f64,
    /// Elements above the limit, sorted worst first.
    pub violations: Vec<Violation>,
    /// Highest current density seen anywhere, A/m².
    pub peak_current_density: f64,
    /// Number of elements checked.
    pub checked: usize,
}

impl SignoffReport {
    /// Whether the grid passes (no violations).
    pub fn passes(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the conventional current-density signoff at the grid's nominal
/// operating point: the limit is Black's law inverted at the lifetime
/// target and operating temperature.
///
/// # Example
///
/// ```
/// use emgrid_pg::signoff::{current_density_signoff, WireGeometry};
/// use emgrid_pg::PowerGrid;
/// use emgrid_em::{black::BlackModel, Technology, SECONDS_PER_YEAR};
/// use emgrid_spice::GridSpec;
///
/// let grid = PowerGrid::from_netlist(GridSpec::custom("doc", 6, 6).generate()).unwrap();
/// let tech = Technology::default();
/// let black = BlackModel::from_accelerated_test(&tech, 3e10, 300.0);
/// let report = current_density_signoff(
///     &grid, &tech, &black, &WireGeometry::default(), SECONDS_PER_YEAR);
/// assert!(report.checked > 0);
/// ```
pub fn current_density_signoff(
    grid: &PowerGrid,
    tech: &Technology,
    black: &BlackModel,
    geometry: &WireGeometry,
    lifetime_target_seconds: f64,
) -> SignoffReport {
    let limit = black.current_density_limit(lifetime_target_seconds, tech.temperature_k());
    let solution = grid.nominal_solution();
    let mut violations = Vec::new();
    let mut peak = 0.0f64;
    let mut checked = 0usize;
    let via_indices: std::collections::HashSet<usize> =
        grid.via_sites().iter().map(|s| s.element_index).collect();
    let netlist = grid.netlist();
    for (idx, e) in netlist.resistors() {
        let Element::Resistor { a, b, .. } = e else {
            continue;
        };
        let name = netlist.element_name(idx);
        // Pad contact resistors have no meaningful cross-section here.
        if name.starts_with("Rp") {
            continue;
        }
        let area = if via_indices.contains(&idx) {
            geometry.via_cross_section
        } else {
            // Classify wire segments by their metal layer.
            let layer = a
                .id()
                .or(b.id())
                .and_then(|i| netlist.node_layer(i))
                .unwrap_or(1);
            if layer >= 3 {
                geometry.upper_wire_cross_section
            } else {
                geometry.lower_wire_cross_section
            }
        };
        let j = solution.resistor_current(e).abs() / area;
        peak = peak.max(j);
        checked += 1;
        if j > limit {
            violations.push(Violation {
                name: name.to_owned(),
                current_density: j,
                limit,
            });
        }
    }
    violations.sort_by(|a, b| {
        b.current_density
            .partial_cmp(&a.current_density)
            .expect("finite current densities")
    });
    SignoffReport {
        limit,
        violations,
        peak_current_density: peak,
        checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emgrid_em::SECONDS_PER_YEAR;
    use emgrid_spice::benchgen::GridSpec;

    fn setup() -> (PowerGrid, Technology, BlackModel) {
        let grid = PowerGrid::from_netlist(GridSpec::pg1().generate()).unwrap();
        let tech = Technology::default();
        let black = BlackModel::from_accelerated_test(&tech, 3e10, 300.0);
        (grid, tech, black)
    }

    #[test]
    fn lenient_target_passes_strict_target_fails() {
        let (grid, tech, black) = setup();
        let geometry = WireGeometry::default();
        let lenient =
            current_density_signoff(&grid, &tech, &black, &geometry, 0.5 * SECONDS_PER_YEAR);
        assert!(lenient.passes(), "{} violations", lenient.violations.len());
        let strict =
            current_density_signoff(&grid, &tech, &black, &geometry, 2000.0 * SECONDS_PER_YEAR);
        assert!(!strict.passes());
        // Violations are ranked worst first.
        for w in strict.violations.windows(2) {
            assert!(w[0].current_density >= w[1].current_density);
        }
    }

    #[test]
    fn peak_density_matches_via_probe() {
        let (grid, tech, black) = setup();
        let report = current_density_signoff(
            &grid,
            &tech,
            &black,
            &WireGeometry::default(),
            SECONDS_PER_YEAR,
        );
        // Generator tuning puts the hottest via around 1e10-2e10 A/m².
        assert!(
            report.peak_current_density > 5e9 && report.peak_current_density < 8e10,
            "peak {:.2e}",
            report.peak_current_density
        );
        assert!(report.checked > 1000);
    }

    #[test]
    fn traditional_signoff_misses_stress_aware_failures() {
        // The paper's motivating gap, end to end: pick the lifetime target
        // right at the stress-aware worst case; the conventional check can
        // still pass because it ignores sigma_T and redundancy dynamics.
        use emgrid_fea::geometry::IntersectionPattern;
        use emgrid_via::{FailureCriterion, ViaArrayConfig, ViaArrayMc};

        let (grid, tech, black) = setup();
        let rel = ViaArrayMc::from_reference_table(
            &ViaArrayConfig::paper_4x4(IntersectionPattern::Plus),
            tech,
            1e10,
        )
        .characterize(300, 5)
        .reliability(FailureCriterion::OpenCircuit)
        .unwrap();
        let mc_result = crate::mc::PowerGridMc::new(grid, rel).run(30, 7).unwrap();
        let stress_aware_years = mc_result.worst_case_years();

        let (grid2, _, _) = setup();
        let report = current_density_signoff(
            &grid2,
            &tech,
            &black,
            &WireGeometry::default(),
            stress_aware_years * SECONDS_PER_YEAR,
        );
        assert!(
            report.passes(),
            "conventional check already fails at the stress-aware lifetime — \
             the gap the paper describes would not exist"
        );
    }
}
