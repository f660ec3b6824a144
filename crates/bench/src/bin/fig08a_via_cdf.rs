//! Figure 8(a): CDF of the via-array TTF for failure criteria based on the
//! number of failed vias (Plus-shaped 4×4 array, j = 1×10¹⁰ A/m², 105 °C).
//!
//! Paper expectation: CDFs shift right with the allowed failure count; the
//! spread spans roughly 2–14 years.

use emgrid::prelude::*;
use emgrid_bench::{characterize, level1_trials, outln, print_cdf, print_report};

fn main() {
    let trials = level1_trials();
    outln!("== Figure 8(a): 4x4 Plus via-array TTF CDFs ({trials} trials) ==");
    let result = characterize(
        &ViaArrayConfig::paper_4x4(IntersectionPattern::Plus),
        trials,
        801,
    );
    print_report("4x4 plus characterization", result.report());
    // The paper's curve set: 1st, 2nd, 4th, 8th, 14th, 15th, last via.
    for n_f in [1usize, 2, 4, 8, 14, 15, 16] {
        let crit = FailureCriterion::ViaCount(n_f);
        print_cdf(&format!("n_F = {n_f}"), &result.ecdf(crit));
    }
    outln!("# medians (years):");
    for n_f in [1usize, 2, 4, 8, 14, 15, 16] {
        let med = result.ecdf(FailureCriterion::ViaCount(n_f)).median() / SECONDS_PER_YEAR;
        outln!("#   {n_f:>2} vias: {med:6.2}");
    }
    outln!("# expectation: monotone in n_F.");
}
