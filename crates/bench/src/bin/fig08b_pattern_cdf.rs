//! Figure 8(b): CDF of the 4×4 via-array TTF at the 8th-via failure
//! criterion, for the three intersection patterns.
//!
//! Paper expectation: L and T outlive Plus (lower thermomechanical stress).

use emgrid::prelude::*;
use emgrid_bench::{characterize, level1_trials, outln, print_cdf, print_report};

fn main() {
    let trials = level1_trials();
    outln!("== Figure 8(b): pattern comparison at n_F = 8 ({trials} trials) ==");
    let crit = FailureCriterion::ViaCount(8);
    let mut medians = Vec::new();
    for pattern in IntersectionPattern::ALL {
        let result = characterize(&ViaArrayConfig::paper_4x4(pattern), trials, 802);
        print_report(
            &format!("{pattern}-shaped characterization"),
            result.report(),
        );
        print_cdf(&format!("{pattern}-shaped"), &result.ecdf(crit));
        medians.push((pattern, result.ecdf(crit).median() / SECONDS_PER_YEAR));
    }
    outln!("# medians (years):");
    for (pattern, med) in &medians {
        outln!("#   {:>4}-shaped: {med:6.2}", pattern.to_string());
    }
    outln!("# expectation: ell > tee > plus in lifetime.");
}
