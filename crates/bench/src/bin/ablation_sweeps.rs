//! Sensitivity sweeps over the model inputs the paper treats as knobs:
//! operating temperature, package stress (explicitly "an input to the
//! method", §2.3), flaw-size statistics (§2.2), and the contrast with the
//! conventional Black's-law signoff (§1).
//!
//! ```text
//! cargo run -p emgrid-bench --release --bin ablation_sweeps
//! ```

use emgrid::em::black::BlackModel;
use emgrid::em::constants::celsius_to_kelvin;
use emgrid::prelude::*;
use emgrid_bench::{characterize, outln};

fn median_years(tech: Technology) -> f64 {
    let config = ViaArrayConfig::paper_4x4(IntersectionPattern::Plus);
    ViaArrayMc::from_reference_table(&config, tech, 1e10)
        .characterize(800, 77)
        .ecdf(FailureCriterion::ResistanceRatio(2.0))
        .median()
        / SECONDS_PER_YEAR
}

fn main() {
    outln!("== Ablation sweeps (4x4 Plus, R=2x criterion, 800 trials each) ==\n");

    outln!("# operating temperature sweep");
    outln!("# temp_C   median_ttf_years");
    for t in [85.0, 95.0, 105.0, 115.0, 125.0] {
        let tech = Technology {
            operating_temperature_c: t,
            ..Technology::default()
        };
        outln!("{t:8.0}  {:10.2}", median_years(tech));
    }
    outln!("# expectation: strong Arrhenius decrease with temperature.\n");

    outln!("# package stress sweep (added to sigma_T, paper §2.3)");
    outln!("# package_MPa   median_ttf_years");
    for p in [0.0, 20.0, 40.0, 60.0, 80.0] {
        let tech = Technology {
            package_stress: p * 1e6,
            ..Technology::default()
        };
        outln!("{p:12.0}  {:10.2}", median_years(tech));
    }
    outln!("# expectation: quadratic-in-margin decrease with package stress.\n");

    outln!("# flaw-radius mean sweep (paper §2.2 uses 10 nm)");
    outln!("# flaw_nm   median_ttf_years");
    for rf in [8.0, 9.0, 10.0, 11.0, 12.0] {
        let tech = Technology {
            flaw_radius_mean: rf * 1e-9,
            ..Technology::default()
        };
        outln!("{rf:7.1}  {:10.2}", median_years(tech));
    }
    outln!("# expectation: larger flaws -> lower critical stress -> shorter TTF.\n");

    outln!("# Black's-law baseline vs stress-aware TTF (same via, j sweep)");
    let tech = Technology::default();
    let black = BlackModel::from_accelerated_test(&tech, 3e10, 300.0);
    let t_op = celsius_to_kelvin(tech.operating_temperature_c);
    outln!("# j_A_per_m2   black_years   stress_aware_years (sigma_T = 240 MPa)");
    for j in [5e9, 1e10, 2e10] {
        let black_years = black.mttf(j, t_op) / SECONDS_PER_YEAR;
        let aware = emgrid::em::nucleation_time(
            &tech,
            tech.critical_stress_distribution().median(),
            240e6,
            j,
        ) / SECONDS_PER_YEAR;
        outln!("{j:10.1e}  {black_years:12.2}  {aware:12.2}");
    }
    outln!("# expectation: the stress-blind extrapolation overpredicts life");
    outln!("# at operating conditions (the paper's core motivation).\n");

    outln!("# current-redistribution model ablation (4x4, R=2x)");
    let config = ViaArrayConfig::paper_4x4(IntersectionPattern::Plus);
    let uniform = characterize(&config, 800, 78)
        .ecdf(FailureCriterion::ResistanceRatio(2.0))
        .median()
        / SECONDS_PER_YEAR;
    let crowded = ViaArrayMc::from_reference_table(&config, tech, 1e10)
        .with_current_model(CurrentModel::Network(Default::default()))
        .characterize(800, 78)
        .ecdf(FailureCriterion::ResistanceRatio(2.0))
        .median()
        / SECONDS_PER_YEAR;
    outln!("# uniform sharing : {uniform:.2} years");
    outln!("# crowding network: {crowded:.2} years");
    outln!("# expectation: crowding concentrates current on perimeter vias and");
    outln!("# shortens the early failures.");
}
