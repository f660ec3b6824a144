//! Figure 6: thermomechanical stress under the first via row of a 4×4 array
//! for the Plus-, T- and L-shaped intersection patterns.
//!
//! Paper expectation: Plus > T > L in stress magnitude (more surrounding
//! ILD lets the copper contract, relieving stress).

use emgrid::prelude::*;
use emgrid_bench::{fea_resolution, figure_model, outln, print_scan, solve_figure_field};

fn main() {
    outln!(
        "== Figure 6: sigma_T by intersection pattern (4x4 array, resolution {} um) ==",
        fea_resolution()
    );
    let mut peaks = Vec::new();
    for pattern in IntersectionPattern::ALL {
        let model = figure_model(pattern, ViaArrayGeometry::paper_4x4());
        let field = solve_figure_field(&model);
        let scan = field.via_row_scan(0);
        print_scan(&format!("{pattern}-shaped pattern, first via row"), &scan);
        let peak = field
            .per_via_peak_stress()
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max);
        peaks.push((pattern, peak));
    }
    outln!("# peak sigma_T per pattern (MPa):");
    for (pattern, peak) in &peaks {
        outln!("#   {:>4}-shaped: {:7.1}", pattern.to_string(), peak / 1e6);
    }
    outln!("# expectation: plus > tee > ell.");
}
