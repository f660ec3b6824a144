//! Table 2: worst-case (0.3%ile) TTF for the PG1/PG2/PG5 benchmark
//! profiles under every (system criterion, via-array criterion) pair, for
//! 4×4 and 8×8 via arrays.
//!
//! Paper values (years) for orientation:
//!
//! ```text
//!           weakest-link        10% IR-drop
//!           WL      R=inf       WL      R=inf
//! 4x4 PG1   0.8     2.0         1.5     3.9
//!     PG2   0.9     3.1         2.2     5.5
//!     PG5   1.7     4.4         3.1     10.2
//! 8x8 PG1   0.9     4.2         1.7     7.6
//!     PG2   1.0     4.9         2.8     7.9
//!     PG5   1.9     8.4         4.5     16.7
//! ```
//!
//! Expected shape: every row grows left→right; every 8×8 entry beats its
//! 4×4 counterpart; PG5 ≥ PG2 ≥ PG1.

use emgrid::prelude::*;
use emgrid_bench::{level2_trials, mc_target_ci, mc_threads, outln, run_grid};

fn main() {
    outln!(
        "== Table 2: worst-case TTF (0.3%ile, years), {} trials ==",
        level2_trials()
    );
    outln!(
        "# runtime: {} thread(s), early stop: {}",
        mc_threads(),
        mc_target_ci().map_or_else(
            || "off (fixed budget)".to_owned(),
            |hw| format!("95% CI half-width target {hw}")
        )
    );
    outln!(
        "{:<5} {:<4} {:>10} {:>10} {:>10} {:>10}",
        "bench",
        "cfg",
        "WL/WL",
        "WL/Rinf",
        "IR/WL",
        "IR/Rinf"
    );
    for array in [
        ViaArrayConfig::paper_4x4(IntersectionPattern::Plus),
        ViaArrayConfig::paper_8x8(IntersectionPattern::Plus),
    ] {
        let cfg = emgrid_bench::array_label(&array.geometry);
        for spec in [GridSpec::pg1(), GridSpec::pg2(), GridSpec::pg5()] {
            let mut cells = Vec::new();
            for system in [
                SystemCriterion::WeakestLink,
                SystemCriterion::IrDropFraction(0.10),
            ] {
                for via_crit in [FailureCriterion::WeakestLink, FailureCriterion::OpenCircuit] {
                    // One seed across all criteria combinations: common
                    // random numbers, so column differences are compared on
                    // identical failure-time draws (lower variance).
                    let result = run_grid(&spec, &array, via_crit, system, 0x7ab1e2);
                    cells.push(result.worst_case_years());
                }
            }
            outln!(
                "{:<5} {:<4} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                spec.name,
                cfg,
                cells[0],
                cells[1],
                cells[2],
                cells[3]
            );
        }
    }
    outln!("# columns: system/via-array criteria; WL = weakest link, Rinf = open circuit, IR = 10% IR-drop.");
}
