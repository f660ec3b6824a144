//! Figure 10: system TTF percentile curves for the PG1 profile, with 4×4
//! (a) and 8×8 (b) via arrays, under the four (system criterion, via-array
//! criterion) combinations.
//!
//! Paper expectations: for a fixed via-array criterion, the 10%-IR-drop
//! system criterion outlives the system weakest link; for a fixed system
//! criterion, the `R = ∞` array criterion outlives the array weakest link;
//! the 8×8 panel sits right of the 4×4 panel.

use emgrid::prelude::*;
use emgrid_bench::{level2_trials, outln, print_report, run_grid};

fn main() {
    let spec = GridSpec::pg1();
    outln!(
        "== Figure 10: {} system TTF percentile curves ({} trials) ==",
        spec.name,
        level2_trials()
    );
    for array in [
        ViaArrayConfig::paper_4x4(IntersectionPattern::Plus),
        ViaArrayConfig::paper_8x8(IntersectionPattern::Plus),
    ] {
        let label = emgrid_bench::array_label(&array.geometry);
        outln!("-- panel: {label} via arrays --");
        for (system, sys_label) in [
            (SystemCriterion::WeakestLink, "system weakest-link"),
            (SystemCriterion::IrDropFraction(0.10), "system 10% IR-drop"),
        ] {
            for (via_crit, via_label) in [
                (FailureCriterion::WeakestLink, "array weakest-link"),
                (FailureCriterion::OpenCircuit, "array R=inf"),
            ] {
                let result = run_grid(&spec, &array, via_crit, system, 810);
                let curve = TtfCurve::from_result(format!("{sys_label}, {via_label}"), &result);
                outln!("# curve: {}", curve.label);
                print_report(&curve.label, result.report());
                outln!("# ttf_years  percentile");
                for (t, p) in &curve.points {
                    outln!("{t:10.2}  {p:6.3}");
                }
                outln!(
                    "# worst-case {:.1} yr, median {:.1} yr, mean failures/trial {:.1}",
                    result.worst_case_years(),
                    result.median_years(),
                    result.mean_failures()
                );
                outln!();
            }
        }
    }
    outln!(
        "# expectation: IR-drop criterion > weakest link; R=inf > array weakest link; 8x8 > 4x4."
    );
}
