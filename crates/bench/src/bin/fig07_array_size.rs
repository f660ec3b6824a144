//! Figure 7: stress line scans through each via row of a 4×4 vs an 8×8 via
//! array of equal effective area.
//!
//! Paper expectations: perimeter vias of both arrays see similar peak
//! stress; interior vias of the 8×8 see smaller peaks and smoother
//! fluctuations than those of the 4×4.

use emgrid::prelude::*;
use emgrid_bench::{fea_resolution, figure_model, outln, print_scan, solve_figure_field};

fn main() {
    outln!(
        "== Figure 7: 4x4 vs 8x8 via array stress (resolution {} um) ==",
        fea_resolution()
    );
    for array in [ViaArrayGeometry::paper_4x4(), ViaArrayGeometry::paper_8x8()] {
        let label = emgrid_bench::array_label(&array);
        let model = figure_model(IntersectionPattern::Plus, array);
        let field = solve_figure_field(&model);
        // One scan per distinct ring of rows (symmetry halves the work).
        for row in 0..array.rows / 2 {
            let scan = field.via_row_scan(row);
            print_scan(&format!("{label}, via row {row}"), &scan);
        }
        let peaks = field.per_via_peak_stress();
        let perimeter: Vec<f64> = peaks
            .iter()
            .enumerate()
            .filter(|(i, _)| array.is_perimeter(*i))
            .map(|(_, &p)| p / 1e6)
            .collect();
        let interior: Vec<f64> = peaks
            .iter()
            .enumerate()
            .filter(|(i, _)| !array.is_perimeter(*i))
            .map(|(_, &p)| p / 1e6)
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        outln!(
            "# {label}: mean perimeter peak {:7.1} MPa, mean interior peak {:7.1} MPa",
            mean(&perimeter),
            mean(&interior)
        );
        outln!();
    }
    outln!("# expectation: similar perimeter peaks; 8x8 interior < 4x4 interior.");
}
