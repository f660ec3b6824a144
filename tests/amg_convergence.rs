//! AMG-CG iteration ceilings on generated power grids at the default
//! tolerance, one test per metal-stack depth.
//!
//! Aggregation visits the stiffest rows first, so each aggregate keeps a
//! stretch of one thick top-metal stripe whole. Visiting in index order
//! instead roots the aggregates in the lower metal and cuts the top-metal
//! stripes between them: the two-layer grid below then takes 42 iterations
//! and the four-layer one 35, where these ceilings allow 25.

use emgrid::sparse::{conjugate_gradient, CgOptions};
use emgrid::spice::{DcAnalysis, GridSpec};

const CEILING: usize = 25;

fn iterations(layers: usize, side: usize) -> usize {
    let netlist = GridSpec {
        layers,
        ..GridSpec::custom("amg", side, side)
    }
    .generate();
    let dc = DcAnalysis::new(&netlist).unwrap();
    conjugate_gradient(dc.matrix(), dc.rhs(), None, &CgOptions::default())
        .unwrap()
        .iterations
}

#[test]
fn two_layer_grid_converges_within_the_ceiling() {
    // 4,608 unknowns: 14 iterations.
    let n = iterations(2, 48);
    assert!(n <= CEILING, "{n} iterations");
}

#[test]
fn three_layer_grid_converges_within_the_ceiling() {
    // 4,800 unknowns: 16 iterations.
    let n = iterations(3, 40);
    assert!(n <= CEILING, "{n} iterations");
}

#[test]
fn four_layer_grid_converges_within_the_ceiling() {
    // 2,304 unknowns: 18 iterations.
    let n = iterations(4, 24);
    assert!(n <= CEILING, "{n} iterations");
}
