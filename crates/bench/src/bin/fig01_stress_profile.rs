//! Figure 1: hydrostatic stress along the lower wire beneath a 1×1 via and
//! a 4×4 via array (Plus pattern, 2 µm wires, 1 µm² effective via area),
//! plus Table 1 (material inputs).
//!
//! Paper expectations: local stress minima inside each via, local maxima
//! between vias of the 4×4 array; the 4×4 perimeter peak is similar to the
//! 1×1 peak while interior vias see visibly lower stress.

use emgrid::fea::material::{table1, MaterialKind};
use emgrid::prelude::*;
use emgrid_bench::{fea_resolution, figure_model, out, outln, print_scan, solve_figure_field};

fn main() {
    outln!("== Table 1: mechanical properties of materials in Cu DD ==");
    outln!(
        "{:<10} {:<8} {:>8} {:>9} {:>12}",
        "structure",
        "material",
        "E(GPa)",
        "nu",
        "CTE(ppm/C)"
    );
    for kind in MaterialKind::ALL {
        let m = table1(kind);
        outln!(
            "{:<10} {:<8} {:>8.1} {:>9.3} {:>12.2}",
            kind.to_string(),
            m.name,
            m.youngs_modulus / 1e9,
            m.poisson_ratio,
            m.cte * 1e6
        );
    }
    outln!();
    outln!(
        "== Figure 1: stress beneath 1x1 vs 4x4 via array (resolution {} um) ==",
        fea_resolution()
    );

    for array in [ViaArrayGeometry::paper_1x1(), ViaArrayGeometry::paper_4x4()] {
        let label = emgrid_bench::array_label(&array);
        let model = figure_model(IntersectionPattern::Plus, array);
        let field = solve_figure_field(&model);
        // Outer row (black arrow) and, for the 4x4, the inner row (red).
        let rows: &[usize] = if array.rows > 1 { &[0, 1] } else { &[0] };
        for &row in rows {
            let scan = field.via_row_scan(row);
            print_scan(&format!("{label} via array, row {row}"), &scan);
        }
        let peaks = field.per_via_peak_stress();
        outln!("# per-via peak sigma_T (MPa), row-major, {label}:");
        for (i, p) in peaks.iter().enumerate() {
            out!("{:8.1}", p / 1e6);
            if (i + 1) % array.cols == 0 {
                outln!();
            }
        }
        outln!();
    }
    outln!("# expectation: interior 4x4 vias shielded relative to perimeter;");
    outln!("# perimeter peak comparable to the 1x1 peak.");
}
