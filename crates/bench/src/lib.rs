//! Shared code for the figure/table regeneration binaries. Performance is
//! measured by perfbench (`perfbench/` at the repository root), not here.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §5 for the index) and prints the series the paper plots,
//! alongside the paper's qualitative expectations, so EXPERIMENTS.md can be
//! filled by running them:
//!
//! ```text
//! cargo run -p emgrid-bench --release --bin fig01_stress_profile
//! ```
//!
//! FEA mesh resolution for the figure binaries can be overridden with the
//! `EMGRID_RESOLUTION` environment variable (µm, default 0.25); Monte Carlo
//! trial counts with `EMGRID_TRIALS` (default 2000 for level 1, 500 for
//! level 2, the paper's `N_trials`). A set override must be a positive
//! number: anything else stops the binary with a message naming it.

use std::str::FromStr;

use emgrid::prelude::*;

/// A value an `EMGRID_*` override may hold: a count or a length, which
/// only means something when positive and finite.
trait Override: FromStr {
    /// What a valid value looks like, for the error message.
    const EXPECTED: &'static str;

    fn is_valid(&self) -> bool;
}

impl Override for usize {
    const EXPECTED: &'static str = "a positive integer";

    fn is_valid(&self) -> bool {
        *self > 0
    }
}

impl Override for f64 {
    const EXPECTED: &'static str = "a positive finite number";

    fn is_valid(&self) -> bool {
        self.is_finite() && *self > 0.0
    }
}

/// Parses the text of the override `name`; `None` means unset.
fn parse_override<T: Override>(name: &str, text: Option<&str>) -> Result<Option<T>, String> {
    let Some(text) = text else {
        return Ok(None);
    };
    match text.parse::<T>() {
        Ok(value) if value.is_valid() => Ok(Some(value)),
        _ => Err(format!("{name}=`{text}` is not {}", T::EXPECTED)),
    }
}

/// The `EMGRID_*` override `name`, or `None` when unset. A malformed or
/// out-of-range value stops the binary (exit 2): a typo must not quietly
/// run the default configuration.
fn env_override<T: Override>(name: &str) -> Option<T> {
    let text = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_override(name, text.as_deref()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Mesh resolution for figure FEA runs (µm), `EMGRID_RESOLUTION` override.
pub fn fea_resolution() -> f64 {
    env_override("EMGRID_RESOLUTION").unwrap_or(0.25)
}

/// FEA worker threads for figure runs, `EMGRID_FEA_THREADS` override
/// (default 1). Assembly and CG kernels run fixed-chunk deterministic
/// arithmetic, so stress fields are bit-identical for any thread count.
pub fn fea_threads() -> usize {
    env_override("EMGRID_FEA_THREADS").unwrap_or(1)
}

/// Solves a figure model through the persistent stress cache
/// (`results/cache/`, disabled by `EMGRID_NO_CACHE=1`).
///
/// On a hit the full field is reconstructed bit-exactly from the cached
/// displacement vector; on a miss the solve runs on [`fea_threads`]
/// threads and the cache is populated. Telemetry goes to **stderr** so the
/// figure's stdout stays byte-identical between cold and warm runs.
pub fn solve_figure_field(model: &CharacterizationModel) -> emgrid::fea::StressField {
    use emgrid::via::{CacheEntry, StressCache};
    let method = emgrid::fea::SolveMethod::default();
    let cache = StressCache::open_default();
    let key = StressCache::key(model, &method, emgrid::sparse::Ordering::default());
    if let Some(cache) = &cache {
        if let Some(field) = cache.load_field(key, model) {
            eprintln!("# fea: cache hit {key:016x} ({})", cache.dir().display());
            return field;
        }
    }
    let (field, stats) = ThermalStressAnalysis::new(*model)
        .with_threads(fea_threads())
        .run_with_stats()
        .expect("figure FEA run solves");
    eprintln!(
        "# fea: solved {key:016x}: {} unknowns, {} ({} iterations), assemble {:.0} ms, solve {:.0} ms, {} thread(s)",
        stats.unknowns,
        stats.solver,
        stats.iterations,
        stats.assemble_time.as_secs_f64() * 1e3,
        stats.solve_time.as_secs_f64() * 1e3,
        fea_threads()
    );
    if let Some(cache) = &cache {
        let stored = cache.store(
            key,
            &CacheEntry {
                per_via_stress: field.per_via_peak_stress(),
                displacements: field.displacements().to_vec(),
            },
        );
        if let Err(e) = stored {
            eprintln!("# fea: cache store failed (continuing uncached): {e}");
        }
    }
    field
}

/// Level-1 Monte Carlo trial count, `EMGRID_TRIALS` override.
pub fn level1_trials() -> usize {
    env_override("EMGRID_TRIALS").unwrap_or(2000)
}

/// Level-2 (power grid) Monte Carlo trial count: the paper's 500, or the
/// `EMGRID_GRID_TRIALS` override.
pub fn level2_trials() -> usize {
    env_override("EMGRID_GRID_TRIALS").unwrap_or(500)
}

/// Monte Carlo worker threads, `EMGRID_THREADS` override (default 1).
/// Results are bit-identical for any thread count.
pub fn mc_threads() -> usize {
    env_override("EMGRID_THREADS").unwrap_or(1)
}

/// Optional CI-based early termination, `EMGRID_TARGET_CI` override: stop
/// once the 95% CI half-width on the mean `ln TTF` reaches this value
/// instead of exhausting the trial budget. Unset = fixed budget.
pub fn mc_target_ci() -> Option<f64> {
    env_override("EMGRID_TARGET_CI")
}

/// The runtime configuration every figure/table binary runs its Monte
/// Carlo on, assembled from `EMGRID_THREADS` / `EMGRID_TARGET_CI`.
pub fn runtime_config() -> RuntimeConfig {
    let mut runtime = RuntimeConfig::threaded(mc_threads());
    if let Some(hw) = mc_target_ci() {
        runtime = runtime.with_early_stop(EarlyStop::to_half_width(hw));
    }
    runtime
}

/// Writes figure output to stdout. When the reader has gone, as in
/// `fig08a_via_cdf | head -3`, the binary exits quietly with status 0, as
/// a Unix filter does; any other write error stops it with status 1.
pub fn emit(args: std::fmt::Arguments) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// `println!` for figure output, through [`emit`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::emit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `print!` for figure output, through [`emit`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::emit(format_args!($($arg)*))
    };
}

/// Prints one execution-telemetry comment line for a scheduler run, to
/// **stderr**: it carries the wall time, so on stdout no two runs of a
/// figure would print the same bytes.
pub fn print_report(label: &str, report: &RunReport) {
    let early = if report.stopped_early {
        format!(
            " (stopped early, 95% CI half-width {:.4})",
            report.achieved_half_width(0.95)
        )
    } else {
        String::new()
    };
    eprintln!(
        "# execution: {label}: {}/{} trials, {} thread(s), {:.0} ms{early}",
        report.trials_run,
        report.trials_requested,
        report.threads,
        report.wall.as_secs_f64() * 1e3,
    );
}

/// The paper's nominal characterization current density, A/m².
pub const PAPER_CURRENT_DENSITY: f64 = 1e10;

/// Builds the characterization model for a paper figure FEA run.
pub fn figure_model(
    pattern: IntersectionPattern,
    array: ViaArrayGeometry,
) -> CharacterizationModel {
    CharacterizationModel {
        pattern,
        array,
        wire_width: 2.0,
        margin: 1.0,
        resolution: fea_resolution(),
        ..CharacterizationModel::default()
    }
}

/// Formats a line scan as `x_um sigma_mpa` rows, tagged with a label.
pub fn print_scan(label: &str, scan: &[emgrid::fea::stress::LineSample]) {
    outln!("# scan: {label} ({} samples)", scan.len());
    outln!("# x_um   sigma_h_MPa");
    for s in scan {
        outln!("{:8.3}  {:9.2}", s.position, s.hydrostatic_mpa);
    }
    outln!();
}

/// Formats an ECDF as `ttf_years cum_probability` rows.
pub fn print_cdf(label: &str, ecdf: &Ecdf) {
    outln!("# cdf: {label} ({} samples)", ecdf.len());
    outln!("# ttf_years   cumulative_probability");
    for p in [
        0.003, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.997,
    ] {
        outln!("{:10.2}  {:6.3}", ecdf.quantile(p) / SECONDS_PER_YEAR, p);
    }
    outln!();
}

/// Characterizes a paper configuration against the bundled reference table,
/// on the environment-selected runtime ([`runtime_config`]).
pub fn characterize(
    config: &ViaArrayConfig,
    trials: usize,
    seed: u64,
) -> emgrid::via::CharacterizationResult {
    ViaArrayMc::from_reference_table(config, Technology::default(), PAPER_CURRENT_DENSITY)
        .characterize_with(trials, seed, &runtime_config())
}

/// Runs one power-grid Monte Carlo combination and returns the result, on
/// the environment-selected runtime ([`runtime_config`]).
pub fn run_grid(
    spec: &GridSpec,
    array: &ViaArrayConfig,
    via_criterion: FailureCriterion,
    system: SystemCriterion,
    seed: u64,
) -> McResult {
    let reliability = characterize(array, level1_trials(), seed ^ 0xa11ce)
        .reliability(via_criterion)
        .expect("characterization fits");
    let grid = PowerGrid::from_netlist(spec.generate()).expect("benchmark grid builds");
    PowerGridMc::new(grid, reliability)
        .with_system_criterion(system)
        .run_with(level2_trials(), seed, &runtime_config())
        .expect("grid monte carlo runs")
}

/// A compact label for an array geometry ("4x4").
pub fn array_label(g: &ViaArrayGeometry) -> String {
    format!("{}x{}", g.rows, g.cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        // Note: assumes the test environment doesn't set the overrides.
        assert!(fea_resolution() > 0.0);
        assert!(level1_trials() >= 100);
        assert!(level2_trials() >= 100);
        assert!(mc_threads() >= 1);
        assert_eq!(
            runtime_config().early_stop,
            mc_target_ci().map(EarlyStop::to_half_width)
        );
    }

    #[test]
    fn overrides_parse_or_name_the_bad_value() {
        assert_eq!(parse_override::<usize>("EMGRID_TRIALS", None), Ok(None));
        assert_eq!(
            parse_override::<usize>("EMGRID_TRIALS", Some("100")),
            Ok(Some(100))
        );
        assert_eq!(
            parse_override::<f64>("EMGRID_RESOLUTION", Some("0.4")),
            Ok(Some(0.4))
        );
        for bad in ["1OO", "0", "-3", "", "2.5"] {
            let e = parse_override::<usize>("EMGRID_TRIALS", Some(bad)).unwrap_err();
            assert_eq!(
                e,
                format!("EMGRID_TRIALS=`{bad}` is not a positive integer")
            );
        }
        for bad in ["junk", "0", "-0.25", "inf", "NaN"] {
            let e = parse_override::<f64>("EMGRID_TARGET_CI", Some(bad)).unwrap_err();
            assert_eq!(
                e,
                format!("EMGRID_TARGET_CI=`{bad}` is not a positive finite number")
            );
        }
    }

    #[test]
    fn array_labels() {
        assert_eq!(array_label(&ViaArrayGeometry::paper_4x4()), "4x4");
        assert_eq!(array_label(&ViaArrayGeometry::paper_8x8()), "8x8");
    }
}
