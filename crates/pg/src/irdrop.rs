//! IR-drop evaluation of DC solutions.

use emgrid_spice::mna::DcSolution;

use crate::model::PowerGrid;

/// Summary of the IR drop of one DC operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IrDropReport {
    /// Worst (largest) drop below Vdd over all nodes, V.
    pub worst_drop: f64,
    /// The worst drop as a fraction of Vdd.
    pub worst_fraction: f64,
    /// Supply voltage the drop is referenced to, V.
    pub vdd: f64,
}

impl IrDropReport {
    /// Evaluates the IR drop of a solution on a grid.
    pub fn evaluate(grid: &PowerGrid, solution: &DcSolution) -> Self {
        Self::from_min_voltage(grid.vdd(), solution.min_voltage())
    }

    /// The report of an operating point whose lowest node voltage is
    /// `min_voltage`.
    pub(crate) fn from_min_voltage(vdd: f64, min_voltage: f64) -> Self {
        let worst_drop = vdd - min_voltage;
        IrDropReport {
            worst_drop,
            worst_fraction: worst_drop / vdd,
            vdd,
        }
    }

    /// Whether the drop violates a threshold given as a fraction of Vdd
    /// (the paper uses 10%).
    pub fn violates(&self, fraction: f64) -> bool {
        self.worst_fraction >= fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emgrid_spice::benchgen::GridSpec;

    #[test]
    fn nominal_grid_is_within_ten_percent() {
        let grid = PowerGrid::from_netlist(GridSpec::pg1().generate()).unwrap();
        let report = IrDropReport::evaluate(&grid, grid.nominal_solution());
        assert!(report.worst_drop > 0.0);
        assert!(
            !report.violates(0.10),
            "nominal drop {}",
            report.worst_fraction
        );
        assert!(report.violates(report.worst_fraction * 0.99));
    }

    #[test]
    fn fraction_is_drop_over_vdd() {
        let grid = PowerGrid::from_netlist(GridSpec::pg1().generate()).unwrap();
        let report = IrDropReport::evaluate(&grid, grid.nominal_solution());
        assert!((report.worst_fraction - report.worst_drop / report.vdd).abs() < 1e-15);
    }
}
