//! Figure 9: TTF comparison of 1×1, 4×4 and 8×8 via arrays under the
//! `R = 2×` and `R = ∞` (open-circuit) failure criteria.
//!
//! Paper expectations: 1×1 worst, then 4×4, then 8×8 under each criterion;
//! at `R = 2×` the worst-case (0.3%ile) TTF of the 8×8 (~8 yr in the paper)
//! beats the 4×4 (~4 yr) and even the 4×4 at `R = ∞` (~6 yr).

use emgrid::prelude::*;
use emgrid_bench::{characterize, level1_trials, outln, print_cdf, print_report};

fn main() {
    let trials = level1_trials();
    outln!("== Figure 9: redundancy comparison ({trials} trials) ==");
    let configs = [
        (
            ViaArrayConfig::paper_1x1(IntersectionPattern::Plus),
            vec![FailureCriterion::OpenCircuit],
        ),
        (
            ViaArrayConfig::paper_4x4(IntersectionPattern::Plus),
            vec![
                FailureCriterion::ResistanceRatio(2.0),
                FailureCriterion::OpenCircuit,
            ],
        ),
        (
            ViaArrayConfig::paper_8x8(IntersectionPattern::Plus),
            vec![
                FailureCriterion::ResistanceRatio(2.0),
                FailureCriterion::OpenCircuit,
            ],
        ),
    ];
    outln!("# worst-case (0.3%ile) TTF in years:");
    let mut summaries = Vec::new();
    for (config, criteria) in &configs {
        let label = emgrid_bench::array_label(&config.geometry);
        let result = characterize(config, trials, 809);
        print_report(&format!("{label} characterization"), result.report());
        for &crit in criteria {
            let ecdf = result.ecdf(crit);
            print_cdf(&format!("{label}, {crit}"), &ecdf);
            summaries.push((
                format!("{label} {crit}"),
                ecdf.worst_case() / SECONDS_PER_YEAR,
                ecdf.median() / SECONDS_PER_YEAR,
            ));
        }
    }
    outln!("# summary (worst-case 0.3%ile | median, years):");
    for (label, wc, med) in &summaries {
        outln!("#   {label:<14} {wc:6.2} | {med:6.2}");
    }
    outln!("# paper anchors: 8x8@R=2x ~8 yr, 4x4@R=2x ~4 yr, 4x4@R=inf ~6 yr (0.3%ile).");
}
