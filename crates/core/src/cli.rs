//! Command-line interface logic for the `emgrid` binary.
//!
//! Argument parsing is hand-rolled (the workspace avoids CLI dependencies)
//! and the command handlers return their report as a `String`, which keeps
//! the whole surface unit-testable; the binary in `src/bin/emgrid.rs` only
//! forwards `std::env::args` and prints.

use std::fmt::Write as _;

use emgrid_em::black::BlackModel;
use emgrid_em::{Technology, SECONDS_PER_YEAR};
use emgrid_fea::geometry::{CharacterizationModel, IntersectionPattern, ViaArrayGeometry};
use emgrid_pg::signoff::{current_density_signoff, WireGeometry};
use emgrid_pg::{GridVariation, IrDropReport, PowerGrid, PowerGridMc, SystemCriterion};
use emgrid_runtime::obs;
use emgrid_runtime::{EarlyStop, RunReport, RuntimeConfig};
use emgrid_screen::{screen_grid, ScreenOptions};
use emgrid_serve::{ServeConfig, Server};
use emgrid_sparse::{Method, Ordering};
use emgrid_spice::writer::write_string;
use emgrid_spice::{lint, parse, repair_shorted_vias, GridSpec};
use emgrid_via::{
    FailureCriterion, FeaOptions, LayerPair, StressCache, StressTable, Variation, ViaArrayConfig,
    ViaArrayMc,
};

/// A CLI failure: the message to print to stderr.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// Usage text.
pub const USAGE: &str = "\
emgrid — stress-aware EM reliability analysis of power grids with via arrays

USAGE:
    emgrid <COMMAND> [OPTIONS]

COMMANDS:
    generate      emit a synthetic IBM-style benchmark deck to stdout
                    --profile pg1|pg2|pg5|pg100k|pg1m (default pg1)
    lint          check a SPICE deck for structural problems
                    <deck.sp>
    irdrop        nominal IR-drop report of a deck
                    <deck.sp> [--repair-vias <ohms>]
    characterize  via-array TTF characterization (level-1 Monte Carlo)
                    --array 1x1|4x4|8x8 (default 4x4)
                    --pattern plus|tee|ell (default plus)
                    --criterion wl|r2x|rinf (default rinf)
                    --trials <n> (default 2000)  --seed <n> (default 1)
                    [--threads <n>] [--target-ci <half-width>]
                    [--edge-current-factor <f>] [--temperature-sigma <degC>]
                    [--linewidth-sigma <f>] [--variance-analysis]
    analyze       system TTF of a deck (two-level Monte Carlo)
                    <deck.sp> [same options as characterize]
                    --grid-trials <n> (default 200)
                    [--repair-vias <ohms>] [--threads <n>]
                    [--target-ci <half-width>]
                    [--ordering amd|nd] (the grid's nominal solve and
                                         Monte Carlo factor)
                    [--edge-current-factor <f>] [--temperature-sigma <degC>]
                    [--linewidth-sigma <f>]
    screen        linear-time steady-state EM screening: rank every via
                  array of a deck by steady-state stress, no Monte Carlo
                    <deck.sp> [--repair-vias <ohms>]
                      | --profile pg1|pg2|pg5|pg100k|pg1m
                    [--top-k <n>] [--stress-threshold <Pa>]
                    [--method auto|direct|cg] (default auto: direct up to
                                               20k unknowns, AMG-CG above)
                    [--ordering amd|nd] (direct engine only)
                    [--json]

    fea           finite-element stress characterization of one primitive
                    --array 1x1|4x4|8x8 (default 4x4)
                    --pattern plus|tee|ell (default plus)
                    [--resolution <um>] [--fea-threads <n>] [--no-cache]
                    [--cache-dir <dir>] [--ordering amd|nd]

    signoff       traditional current-density signoff (Black's law)
                    <deck.sp> --target-years <y> (default 10)
    sweep         run a manifest-driven parameter sweep to completion
                    <spec.json> (declarative sweep: job template + axes)
                    [--state-dir <dir>] (default results/jobs)
                    [--workers <n>] (default 2)
                    [--checkpoint-every <trials>] (default 64; 0 disables)
                    [--max-in-flight <n>] (default 2*workers)
    validate      check a job or sweep spec offline, no daemon required
                    <spec.json> (a spec with a `kind` key is validated as
                                 a job spec, anything else as a sweep spec)
                  prints the canonical JSON to stdout on success; on
                  failure prints the offending field and exits nonzero
    serve         run the analysis daemon (JSON over HTTP)
                    [--addr <ip:port>] (default 127.0.0.1:8080; port 0 = ephemeral)
                    [--workers <n>] (default 2)
                    [--queue-depth <n>] (default 64)
                    [--checkpoint-every <trials>] (default 64; 0 disables)
                    [--state-dir <dir>] (default results/jobs)
                    [--cache-dir <dir>] [--max-body-bytes <n>]
                    [--max-netlist-lines <n>] (default 400000; raise for
                                               chip-scale inline decks)
                    [--max-connections <n>] (default 256)
                    [--dispatchers <n>] (default 2; handler threads,
                                         thread 0 interactive-only)
                    [--max-in-flight-per-client <n>] (default 64; 0 = off)
                    [--debug-panic-route] (CI only: POST /debug/panic panics
                                           its request handler)
    help          print this message

Every command takes --trace: span timers are collected across all layers
(assembly, factorization, CG iterations, Monte Carlo batches, checkpoint
commits) and a nested wall-time summary is printed to stderr on exit.

Monte Carlo commands take --threads (work-stealing across n OS threads;
results are bit-identical for any thread count) and --target-ci (stop as
soon as the 95% CI half-width on mean ln TTF reaches the target instead
of exhausting the trial budget).

The characterize and analyze commands model on-die variation:
--edge-current-factor weights edge/corner vias with `1 + f*sides` of the
array current, --temperature-sigma and --linewidth-sigma sample
spatially correlated per-via temperature and linewidth fields each trial
(from per-trial RNG sub-streams, so results stay bit-identical for any
thread count). characterize additionally takes --variance-analysis: it
replays the same trials with the fields frozen and reports how much of
the ln-TTF variance the correlated fields add on top of void nucleation.

The screen command solves one operating point, decomposes the grid into
interconnect trees, and prints every via array ranked by its steady-state
EM stress (the Korhonen long-time limit) — seconds even at a million
nodes, so it runs before (and gates) the expensive two-level Monte Carlo.
--top-k / --stress-threshold select the subset; --json emits the same
deterministic document the serve/sweep `screening` block records.

The analyze, screen and fea commands read the sparse solver's
fill-reducing ordering (amd: minimum degree; nd: nested dissection) from
--ordering first, the EMGRID_ORDERING environment variable second, and
default to amd. The ordering changes factorization wall time and
rounding, never which statistics come out. It applies only where a
factor is built: the grid's nominal solve, which is direct up to 20k
unknowns and AMG-CG above unless screen's --method says otherwise, and
the factor analyze's level-2 Monte Carlo updates.

The fea command reads its mesh resolution from --resolution first, the
EMGRID_RESOLUTION environment variable second, and defaults to 0.25 um.
Solved fields are cached keyed by model content under --cache-dir,
falling back to EMGRID_CACHE_DIR and then results/cache/; --no-cache
(or EMGRID_NO_CACHE=1) bypasses the cache. --fea-threads splits threads
across primitives and solver kernels; results are bit-identical for any
thread count.

The serve command runs in the foreground until killed. Job state lives
under --state-dir; a restarted daemon requeues unfinished jobs and
resumes them from their last checkpoint, reproducing the exact bytes an
uninterrupted run would have returned. The daemon also mounts the sweep
API (POST /v1/sweeps, GET /v1/sweeps/:id[/report]) and resumes any
interrupted sweeps on startup.

The sweep command expands a JSON sweep spec (a job template plus axes of
values) into one job per axis combination, runs them through the same
checkpointable engine, and folds the results into a single byte-stable
report under <state-dir>/sweeps/<id>/report.json. Progress is tracked in
an on-disk manifest: re-running the same spec after an interruption (or
`kill -9`) resumes from the completed jobs instead of starting over, and
the final report is byte-identical to an uninterrupted run's.

The validate command runs the same strict spec checks the daemon and the
sweep engine apply — unknown keys, bounds, schema versions, full axis
expansion — without touching a state directory, and prints the canonical
(persisted) form of the spec. Job and sweep specs both take an optional
`\"schema\": 1` version pin; unknown versions are rejected up front.
";

/// Runs the CLI on pre-split arguments (without the program name).
///
/// # Errors
///
/// Returns [`CliError`] with a user-facing message on bad arguments or
/// failing analyses.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Err(CliError(USAGE.to_owned()));
    };
    let rest = &args[1..];
    check_flags(command, rest)?;
    // `--trace` arms the runtime's span timers for any command; the span
    // tree goes to stderr so piped stdout reports stay clean.
    let trace = rest.iter().any(|a| a == "--trace");
    if trace {
        obs::reset_spans();
        obs::set_trace(true);
    }
    let result = match command.as_str() {
        "generate" => cmd_generate(rest),
        "lint" => cmd_lint(rest),
        "irdrop" => cmd_irdrop(rest),
        "characterize" => cmd_characterize(rest),
        "analyze" => cmd_analyze(rest),
        "screen" => cmd_screen(rest),
        "fea" => cmd_fea(rest),
        "signoff" => cmd_signoff(rest),
        "sweep" => cmd_sweep(rest),
        "validate" => cmd_validate(rest),
        "serve" => cmd_serve(rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_owned()),
        other => Err(CliError(format!("unknown command `{other}`\n\n{USAGE}"))),
    };
    if trace {
        obs::set_trace(false);
        eprintln!("{}", obs::span_report());
    }
    result
}

fn option_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

/// The flags that take no value; every other `--flag` takes the token
/// after it.
const VALUELESS_FLAGS: [&str; 5] = [
    "--trace",
    "--json",
    "--no-cache",
    "--variance-analysis",
    "--debug-panic-route",
];

/// Whether each command reads one positional argument (its deck or spec
/// path), and the flags it takes beyond the global `--trace`, as [`USAGE`]
/// lists them.
const COMMAND_FLAGS: [(&str, bool, &[&str]); 12] = [
    ("generate", false, &["--profile"]),
    ("lint", true, &[]),
    ("irdrop", true, &["--repair-vias"]),
    (
        "characterize",
        false,
        &[
            "--array",
            "--pattern",
            "--criterion",
            "--trials",
            "--seed",
            "--threads",
            "--target-ci",
            "--edge-current-factor",
            "--temperature-sigma",
            "--linewidth-sigma",
            "--variance-analysis",
        ],
    ),
    (
        "analyze",
        true,
        &[
            "--array",
            "--pattern",
            "--criterion",
            "--trials",
            "--seed",
            "--threads",
            "--target-ci",
            "--edge-current-factor",
            "--temperature-sigma",
            "--linewidth-sigma",
            "--variance-analysis",
            "--grid-trials",
            "--repair-vias",
            "--ordering",
        ],
    ),
    (
        "screen",
        true,
        &[
            "--profile",
            "--top-k",
            "--stress-threshold",
            "--method",
            "--ordering",
            "--repair-vias",
            "--json",
        ],
    ),
    (
        "fea",
        false,
        &[
            "--array",
            "--pattern",
            "--resolution",
            "--fea-threads",
            "--no-cache",
            "--cache-dir",
            "--ordering",
        ],
    ),
    ("signoff", true, &["--target-years"]),
    (
        "sweep",
        true,
        &[
            "--state-dir",
            "--workers",
            "--checkpoint-every",
            "--max-in-flight",
        ],
    ),
    ("validate", true, &[]),
    (
        "serve",
        false,
        &[
            "--addr",
            "--workers",
            "--queue-depth",
            "--checkpoint-every",
            "--state-dir",
            "--cache-dir",
            "--max-body-bytes",
            "--max-netlist-lines",
            "--max-connections",
            "--dispatchers",
            "--max-in-flight-per-client",
            "--debug-panic-route",
        ],
    ),
    ("help", false, &[]),
];

/// Rejects an argument the command does not read, so a misspelt flag or a
/// stray path fails instead of silently running the default: a `--flag`
/// the command does not take, or a positional beyond the one path it
/// reads. `screen --profile` generates its deck, so it reads neither a
/// path nor `--repair-vias`. Unknown commands are left to the dispatch.
fn check_flags(command: &str, args: &[String]) -> Result<(), CliError> {
    let Some((_, reads_path, flags)) = COMMAND_FLAGS.iter().find(|(name, ..)| *name == command)
    else {
        return Ok(());
    };
    let profile = command == "screen" && option_value(args, "--profile").is_some();
    let label = if profile { "screen --profile" } else { command };
    let mut paths = usize::from(*reads_path && !profile);
    for arg in arguments(args) {
        if !arg.starts_with("--") {
            if paths == 0 {
                return Err(CliError(format!(
                    "unexpected argument `{arg}` for `emgrid {label}`"
                )));
            }
            paths -= 1;
        } else if profile && arg == "--repair-vias" {
            return Err(CliError(format!(
                "unknown flag `{arg}` for `emgrid {label}`"
            )));
        } else if arg != "--trace" && !flags.contains(&arg) {
            return Err(CliError(format!(
                "unknown flag `{arg}` for `emgrid {command}`"
            )));
        }
    }
    Ok(())
}

/// The flags and positional arguments in `args`, stepping over the value
/// after each flag that takes one.
fn arguments(args: &[String]) -> impl Iterator<Item = &str> {
    let mut i = 0;
    std::iter::from_fn(move || {
        let arg = args.get(i)?.as_str();
        i += if arg.starts_with("--") && !VALUELESS_FLAGS.contains(&arg) {
            2
        } else {
            1
        };
        Some(arg)
    })
}

/// The first positional argument.
fn positional(args: &[String]) -> Option<&str> {
    arguments(args).find(|a| !a.starts_with("--"))
}

fn parse_usize(args: &[String], name: &str, default: usize) -> Result<usize, CliError> {
    match option_value(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError(format!("invalid value `{v}` for {name}"))),
    }
}

fn parse_u64(args: &[String], name: &str, default: u64) -> Result<u64, CliError> {
    match option_value(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError(format!("invalid value `{v}` for {name}"))),
    }
}

/// Parses `--threads` / `--target-ci` into a runtime configuration shared
/// by the Monte Carlo commands.
fn parse_runtime(args: &[String]) -> Result<RuntimeConfig, CliError> {
    let threads = parse_usize(args, "--threads", 1)?;
    if threads == 0 {
        return Err(CliError("--threads must be at least 1".to_owned()));
    }
    let mut runtime = RuntimeConfig::threaded(threads);
    if let Some(v) = option_value(args, "--target-ci") {
        let hw: f64 = v
            .parse()
            .map_err(|_| CliError(format!("invalid value `{v}` for --target-ci")))?;
        if hw.is_nan() || hw <= 0.0 {
            return Err(CliError("--target-ci must be positive".to_owned()));
        }
        runtime = runtime.with_early_stop(EarlyStop::to_half_width(hw));
    }
    Ok(runtime)
}

/// One-line execution summary appended to Monte Carlo reports.
fn format_report(report: &RunReport) -> String {
    let mut line = format!(
        "execution      : {}/{} trials, {} thread(s), {:.0} ms, {:.0} trials/s",
        report.trials_run,
        report.trials_requested,
        report.threads,
        report.wall.as_secs_f64() * 1e3,
        report.throughput(),
    );
    if report.stopped_early {
        let _ = write!(
            line,
            " (stopped early: 95% CI half-width {:.4})",
            report.achieved_half_width(0.95)
        );
    }
    line
}

fn parse_pattern(args: &[String]) -> Result<IntersectionPattern, CliError> {
    match option_value(args, "--pattern").unwrap_or("plus") {
        "plus" => Ok(IntersectionPattern::Plus),
        "tee" | "t" => Ok(IntersectionPattern::Tee),
        "ell" | "l" => Ok(IntersectionPattern::Ell),
        other => Err(CliError(format!("unknown pattern `{other}`"))),
    }
}

fn parse_array(args: &[String]) -> Result<(ViaArrayConfig, &'static str), CliError> {
    let pattern = parse_pattern(args)?;
    match option_value(args, "--array").unwrap_or("4x4") {
        "1x1" => Ok((ViaArrayConfig::paper_1x1(pattern), "1x1")),
        "4x4" => Ok((ViaArrayConfig::paper_4x4(pattern), "4x4")),
        "8x8" => Ok((ViaArrayConfig::paper_8x8(pattern), "8x8")),
        other => Err(CliError(format!("unknown array `{other}`"))),
    }
}

/// Flag > environment variable precedence for one setting: the raw text of
/// `flag` when given, else of the environment variable `env`, with the name
/// of the source that supplied it; `None` leaves the caller's default.
fn flag_or_env(
    args: &[String],
    flag: &'static str,
    env: &'static str,
) -> Option<(String, &'static str)> {
    match option_value(args, flag) {
        Some(v) => Some((v.to_owned(), flag)),
        None => std::env::var(env).ok().map(|v| (v, env)),
    }
}

/// How an error message names a value's source: `for --flag` or
/// `in ENV_VAR`.
fn source_phrase(source: &str) -> String {
    if source.starts_with("--") {
        format!("for {source}")
    } else {
        format!("in {source}")
    }
}

/// Mesh resolution precedence: `--resolution` flag, then the
/// `EMGRID_RESOLUTION` environment variable, then 0.25 µm. Returns the
/// value and which source supplied it.
fn parse_resolution(args: &[String]) -> Result<(f64, &'static str), CliError> {
    let Some((v, source)) = flag_or_env(args, "--resolution", "EMGRID_RESOLUTION") else {
        return Ok((0.25, "default"));
    };
    let r: f64 = v
        .parse()
        .map_err(|_| CliError(format!("invalid value `{v}` {}", source_phrase(source))))?;
    if !r.is_finite() || r <= 0.0 {
        return Err(CliError(format!("{source} must be positive")));
    }
    Ok((r, source))
}

/// Fill-reducing ordering precedence: `--ordering` flag, then the
/// `EMGRID_ORDERING` environment variable, then AMD. Returns the value
/// and which source supplied it.
fn parse_ordering(args: &[String]) -> Result<(Ordering, &'static str), CliError> {
    let Some((v, source)) = flag_or_env(args, "--ordering", "EMGRID_ORDERING") else {
        return Ok((Ordering::default(), "default"));
    };
    Ordering::parse(&v).map(|o| (o, source)).ok_or_else(|| {
        CliError(format!(
            "unknown ordering `{v}` {} (expected amd or nd)",
            source_phrase(source)
        ))
    })
}

fn parse_criterion(args: &[String]) -> Result<FailureCriterion, CliError> {
    match option_value(args, "--criterion").unwrap_or("rinf") {
        "wl" | "weakest-link" => Ok(FailureCriterion::WeakestLink),
        "r2x" => Ok(FailureCriterion::ResistanceRatio(2.0)),
        "rinf" | "open" => Ok(FailureCriterion::OpenCircuit),
        other => Err(CliError(format!("unknown criterion `{other}`"))),
    }
}

/// One bounded, non-negative variation flag. The bounds mirror the serve
/// spec layer's, so a flag combination that works here also works as a
/// `variation` block in a job spec.
fn variation_flag(args: &[String], name: &str, max: f64) -> Result<Option<f64>, CliError> {
    match option_value(args, name) {
        None => Ok(None),
        Some(v) => {
            let x: f64 = v
                .parse()
                .map_err(|_| CliError(format!("invalid value `{v}` for {name}")))?;
            if !x.is_finite() || x < 0.0 || x > max {
                return Err(CliError(format!("{name} must be in [0, {max}]")));
            }
            Ok(Some(x))
        }
    }
}

/// Parses the on-die variation flags shared by the Monte Carlo commands.
/// `None` when no variation flag appears at all, so unvaried runs keep the
/// legacy single-stream RNG draws (and their exact historical bytes);
/// passing any flag — even at zero — opts into the sub-stream draws.
fn parse_variation(args: &[String]) -> Result<Option<Variation>, CliError> {
    let edge = variation_flag(args, "--edge-current-factor", 10.0)?;
    let temperature = variation_flag(args, "--temperature-sigma", 100.0)?;
    let linewidth = variation_flag(args, "--linewidth-sigma", 0.5)?;
    let variance = args.iter().any(|a| a == "--variance-analysis");
    if edge.is_none() && temperature.is_none() && linewidth.is_none() && !variance {
        return Ok(None);
    }
    Ok(Some(Variation {
        edge_current_factor: edge.unwrap_or(0.0),
        temperature_sigma_c: temperature.unwrap_or(0.0),
        linewidth_sigma: linewidth.unwrap_or(0.0),
    }))
}

fn load_deck(args: &[String]) -> Result<emgrid_spice::Netlist, CliError> {
    let path = positional(args).ok_or_else(|| CliError("missing deck path".to_owned()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read `{path}`: {e}")))?;
    let mut netlist = parse(&text).map_err(|e| CliError(format!("parse error: {e}")))?;
    if let Some(ohms) = option_value(args, "--repair-vias") {
        let ohms: f64 = ohms
            .parse()
            .map_err(|_| CliError(format!("invalid value `{ohms}` for --repair-vias")))?;
        repair_shorted_vias(&mut netlist, ohms);
    }
    Ok(netlist)
}

fn cmd_generate(args: &[String]) -> Result<String, CliError> {
    let name = option_value(args, "--profile").unwrap_or("pg1");
    let spec = GridSpec::profile(name).ok_or_else(|| {
        CliError(format!(
            "unknown profile `{name}` (expected {})",
            GridSpec::PROFILES.join(", ")
        ))
    })?;
    Ok(write_string(&spec.generate()))
}

fn cmd_lint(args: &[String]) -> Result<String, CliError> {
    let netlist = load_deck(args)?;
    let issues = lint(&netlist);
    let mut out = String::new();
    let (r, v, i) = netlist.counts();
    let _ = writeln!(
        out,
        "{} nodes, {r} resistors, {v} voltage sources, {i} current sources",
        netlist.node_count()
    );
    if issues.is_empty() {
        out.push_str("no issues found\n");
    } else {
        for issue in &issues {
            let _ = writeln!(out, "warning: {issue}");
        }
        let _ = writeln!(out, "{} issue(s)", issues.len());
    }
    Ok(out)
}

fn cmd_irdrop(args: &[String]) -> Result<String, CliError> {
    let netlist = load_deck(args)?;
    let grid = PowerGrid::from_netlist(netlist).map_err(|e| CliError(e.to_string()))?;
    let report = IrDropReport::evaluate(&grid, grid.nominal_solution());
    let mut out = String::new();
    let _ = writeln!(out, "vdd            : {:.3} V", report.vdd);
    let _ = writeln!(
        out,
        "worst IR drop  : {:.1} mV ({:.2}% of Vdd)",
        report.worst_drop * 1e3,
        report.worst_fraction * 100.0
    );
    let _ = writeln!(out, "via arrays     : {}", grid.via_sites().len());
    let _ = writeln!(
        out,
        "10% budget     : {}",
        if report.violates(0.10) {
            "VIOLATED"
        } else {
            "met"
        }
    );
    Ok(out)
}

fn cmd_characterize(args: &[String]) -> Result<String, CliError> {
    let (config, label) = parse_array(args)?;
    let criterion = parse_criterion(args)?;
    let trials = parse_usize(args, "--trials", 2000)?;
    let seed = parse_u64(args, "--seed", 1)?;
    let runtime = parse_runtime(args)?;
    let variation = parse_variation(args)?;
    let variance_analysis = args.iter().any(|a| a == "--variance-analysis");
    let mut model = ViaArrayMc::from_reference_table(&config, Technology::default(), 1e10);
    if let Some(v) = variation {
        model = model.with_variation(v);
    }
    let (result, variance) = if variance_analysis {
        let (result, decomposition) = model.characterize_with_variance(trials, seed, &runtime);
        (result, Some(decomposition))
    } else {
        (model.characterize_with(trials, seed, &runtime), None)
    };
    let ecdf = result.ecdf(criterion);
    let fit = result
        .fit_lognormal(criterion)
        .map_err(|e| CliError(e.to_string()))?;
    let ks = result
        .fit_quality(criterion)
        .map_err(|e| CliError(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "array {label} ({} pattern), criterion {criterion}, {trials} trials",
        config.pattern
    );
    if let Some(v) = variation {
        let _ = writeln!(
            out,
            "variation      : edge factor {}, sigma_T {} degC, sigma_w {}",
            v.edge_current_factor, v.temperature_sigma_c, v.linewidth_sigma
        );
    }
    let _ = writeln!(
        out,
        "TTF median     : {:.2} years",
        ecdf.median() / SECONDS_PER_YEAR
    );
    let _ = writeln!(
        out,
        "TTF 0.3%ile    : {:.2} years",
        ecdf.worst_case() / SECONDS_PER_YEAR
    );
    let _ = writeln!(
        out,
        "lognormal fit  : median {:.2} years, sigma {:.3} (KS {:.3})",
        fit.median() / SECONDS_PER_YEAR,
        fit.sigma(),
        ks
    );
    if let Some(d) = variance {
        let _ = writeln!(
            out,
            "ln-TTF variance: total {:.4} (void {:.4} + environment {:.4})",
            d.total, d.void, d.environment
        );
    }
    let _ = writeln!(out, "{}", format_report(result.report()));
    Ok(out)
}

fn cmd_analyze(args: &[String]) -> Result<String, CliError> {
    let netlist = load_deck(args)?;
    let (config, label) = parse_array(args)?;
    let criterion = parse_criterion(args)?;
    let trials = parse_usize(args, "--trials", 2000)?;
    let grid_trials = parse_usize(args, "--grid-trials", 200)?;
    let seed = parse_u64(args, "--seed", 1)?;
    let runtime = parse_runtime(args)?;
    let (ordering, _) = parse_ordering(args)?;
    let variation = parse_variation(args)?;
    let mut level1 = ViaArrayMc::from_reference_table(&config, Technology::default(), 1e10);
    if let Some(v) = variation {
        level1 = level1.with_variation(v);
    }
    let reliability = level1
        .characterize_with(trials, seed, &runtime)
        .reliability(criterion)
        .map_err(|e| CliError(e.to_string()))?;
    let grid = PowerGrid::from_netlist_with(netlist, Method::Auto, ordering)
        .map_err(|e| CliError(e.to_string()))?;
    let sites = grid.via_sites().len();
    let mut mc = PowerGridMc::new(grid, reliability)
        .with_system_criterion(SystemCriterion::IrDropFraction(0.10));
    if let Some(v) = variation {
        mc = mc.with_variation(GridVariation {
            ttf_ln_sigma: v.grid_ttf_ln_sigma(&Technology::default()),
            linewidth_sigma: v.linewidth_sigma,
        });
    }
    let result = mc
        .run_with(grid_trials, seed ^ 0xc11, &runtime)
        .map_err(|e| CliError(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{sites} via arrays as {label}/{criterion}; {grid_trials} grid trials"
    );
    if let Some(v) = variation {
        let _ = writeln!(
            out,
            "variation      : edge factor {}, sigma_T {} degC, sigma_w {}",
            v.edge_current_factor, v.temperature_sigma_c, v.linewidth_sigma
        );
    }
    let _ = writeln!(
        out,
        "system TTF median   : {:.2} years",
        result.median_years()
    );
    let _ = writeln!(
        out,
        "system TTF 0.3%ile  : {:.2} years",
        result.worst_case_years()
    );
    let _ = writeln!(out, "mean failures/trial : {:.1}", result.mean_failures());
    let _ = writeln!(out, "most critical sites :");
    for (site, count) in result.critical_sites(5) {
        let _ = writeln!(out, "  site {site:>5}  failed in {count} trials");
    }
    let _ = writeln!(out, "{}", format_report(result.report()));
    Ok(out)
}

/// Operating-point solve engine: `--method` flag, defaulting to `auto`
/// (direct up to `AUTO_DIRECT_LIMIT` unknowns, CG preconditioned by
/// smoothed-aggregation AMG above). `--ordering` reaches only the direct
/// engine.
fn parse_method(args: &[String]) -> Result<Method, CliError> {
    match option_value(args, "--method") {
        None => Ok(Method::default()),
        Some(v) => Method::parse(v).ok_or_else(|| {
            CliError(format!(
                "unknown method `{v}` for --method (expected auto, direct or cg)"
            ))
        }),
    }
}

fn cmd_screen(args: &[String]) -> Result<String, CliError> {
    // The deck comes from either a benchmark profile (generated in memory,
    // no 65 MB chip-scale file round-trip) or a positional deck path.
    let netlist = match option_value(args, "--profile") {
        Some(name) => {
            let spec = GridSpec::profile(name).ok_or_else(|| {
                CliError(format!(
                    "unknown profile `{name}` (expected {})",
                    GridSpec::PROFILES.join(", ")
                ))
            })?;
            spec.generate()
        }
        None => load_deck(args)?,
    };
    let (ordering, _) = parse_ordering(args)?;
    let method = parse_method(args)?;
    let top_k = match option_value(args, "--top-k") {
        None => None,
        Some(v) => {
            let k: usize = v
                .parse()
                .map_err(|_| CliError(format!("invalid value `{v}` for --top-k")))?;
            if k == 0 {
                return Err(CliError("--top-k must be at least 1".to_owned()));
            }
            Some(k)
        }
    };
    let stress_threshold = match option_value(args, "--stress-threshold") {
        None => None,
        Some(v) => {
            let s: f64 = v
                .parse()
                .map_err(|_| CliError(format!("invalid value `{v}` for --stress-threshold")))?;
            if !s.is_finite() || s <= 0.0 {
                return Err(CliError("--stress-threshold must be positive".to_owned()));
            }
            Some(s)
        }
    };
    let grid = PowerGrid::from_netlist_with(netlist, method, ordering)
        .map_err(|e| CliError(e.to_string()))?;
    let options = ScreenOptions {
        top_k,
        stress_threshold,
    };
    let Ok(report) = screen_grid(&grid, &Technology::default(), &options);
    if args.iter().any(|a| a == "--json") {
        let mut out = report.to_json();
        out.push('\n');
        Ok(out)
    } else {
        Ok(report.render())
    }
}

fn cmd_fea(args: &[String]) -> Result<String, CliError> {
    let pattern = parse_pattern(args)?;
    let (array, label) = match option_value(args, "--array").unwrap_or("4x4") {
        "1x1" => (ViaArrayGeometry::paper_1x1(), "1x1"),
        "4x4" => (ViaArrayGeometry::paper_4x4(), "4x4"),
        "8x8" => (ViaArrayGeometry::paper_8x8(), "8x8"),
        other => return Err(CliError(format!("unknown array `{other}`"))),
    };
    let (resolution, source) = parse_resolution(args)?;
    let (ordering, ordering_source) = parse_ordering(args)?;
    let threads = parse_usize(args, "--fea-threads", 1)?;
    if threads == 0 {
        return Err(CliError("--fea-threads must be at least 1".to_owned()));
    }
    let no_cache = args.iter().any(|a| a == "--no-cache");
    let model = CharacterizationModel {
        pattern,
        array,
        resolution,
        ..CharacterizationModel::default()
    };
    let cache = if no_cache {
        None
    } else if let Some(dir) = option_value(args, "--cache-dir") {
        Some(StressCache::new(dir))
    } else {
        StressCache::open_default()
    };
    let caching = match &cache {
        Some(c) => format!("{}", c.dir().display()),
        None => "disabled".to_owned(),
    };
    let opts = FeaOptions {
        threads,
        ordering,
        cache,
        ..FeaOptions::default()
    };
    let (table, report) =
        StressTable::characterize_with_fea_opts(&[(model, LayerPair::IntermediateTop)], &opts)
            .map_err(|e| CliError(e.to_string()))?;
    let entry = &table.entries()[0];
    let prim = &report.primitives[0];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "array {label} ({pattern} pattern), resolution {resolution} um (from {source})"
    );
    let _ = writeln!(out, "cache          : {caching}");
    let _ = writeln!(
        out,
        "ordering       : {} (from {ordering_source})",
        ordering.label()
    );
    let _ = writeln!(
        out,
        "solve          : {} ({} unknowns, {} iterations), {} thread(s), {:.0} ms",
        prim.solver,
        prim.unknowns,
        prim.iterations,
        threads,
        report.total_time.as_secs_f64() * 1e3
    );
    let _ = writeln!(out, "per-via peak tensile stress (MPa, row-major):");
    for r in 0..entry.rows {
        let row: Vec<String> = (0..entry.cols)
            .map(|c| format!("{:7.1}", entry.per_via_stress[r * entry.cols + c] / 1e6))
            .collect();
        let _ = writeln!(out, "  {}", row.join(" "));
    }
    Ok(out)
}

fn cmd_signoff(args: &[String]) -> Result<String, CliError> {
    let netlist = load_deck(args)?;
    let target_years: f64 = match option_value(args, "--target-years") {
        None => 10.0,
        Some(v) => v
            .parse()
            .map_err(|_| CliError(format!("invalid value `{v}` for --target-years")))?,
    };
    let tech = Technology::default();
    let black = BlackModel::from_accelerated_test(&tech, 3e10, 300.0);
    let grid = PowerGrid::from_netlist(netlist).map_err(|e| CliError(e.to_string()))?;
    let report = current_density_signoff(
        &grid,
        &tech,
        &black,
        &WireGeometry::default(),
        target_years * SECONDS_PER_YEAR,
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "traditional (Black's-law) signoff at a {target_years}-year target"
    );
    let _ = writeln!(out, "current-density limit : {:.3e} A/m^2", report.limit);
    let _ = writeln!(
        out,
        "peak current density  : {:.3e} A/m^2 over {} elements",
        report.peak_current_density, report.checked
    );
    if report.passes() {
        out.push_str(
            "verdict               : PASS (no element above the limit)
",
        );
        out.push_str(
            "note: this check ignores thermomechanical stress and via-array
",
        );
        out.push_str(
            "redundancy; run `analyze` for the stress-aware lifetime.
",
        );
    } else {
        let _ = writeln!(
            out,
            "verdict               : FAIL ({} element(s) above the limit)",
            report.violations.len()
        );
        for v in report.violations.iter().take(5) {
            let _ = writeln!(
                out,
                "  {:<12} {:.3e} A/m^2 (limit {:.3e})",
                v.name, v.current_density, v.limit
            );
        }
    }
    Ok(out)
}

/// Parses the `serve` flags into a daemon configuration.
fn serve_config(args: &[String]) -> Result<ServeConfig, CliError> {
    let defaults = ServeConfig::default();
    let workers = parse_usize(args, "--workers", defaults.workers)?;
    if workers == 0 {
        return Err(CliError("--workers must be at least 1".to_owned()));
    }
    let queue_depth = parse_usize(args, "--queue-depth", defaults.queue_depth)?;
    if queue_depth == 0 {
        return Err(CliError("--queue-depth must be at least 1".to_owned()));
    }
    let max_connections = parse_usize(args, "--max-connections", defaults.max_connections)?;
    if max_connections == 0 {
        return Err(CliError("--max-connections must be at least 1".to_owned()));
    }
    let max_netlist_lines = parse_usize(args, "--max-netlist-lines", defaults.max_netlist_lines)?;
    if max_netlist_lines == 0 {
        return Err(CliError(
            "--max-netlist-lines must be at least 1".to_owned(),
        ));
    }
    Ok(ServeConfig {
        addr: option_value(args, "--addr")
            .unwrap_or("127.0.0.1:8080")
            .to_owned(),
        workers,
        queue_depth,
        checkpoint_every: parse_usize(args, "--checkpoint-every", defaults.checkpoint_every)?,
        state_dir: option_value(args, "--state-dir")
            .map(Into::into)
            .unwrap_or(defaults.state_dir),
        cache_dir: option_value(args, "--cache-dir").map(Into::into),
        max_body_bytes: parse_usize(args, "--max-body-bytes", defaults.max_body_bytes)?,
        max_netlist_lines,
        max_connections,
        request_deadline: defaults.request_deadline,
        debug_panic_route: args.iter().any(|a| a == "--debug-panic-route"),
        dispatchers: {
            let dispatchers = parse_usize(args, "--dispatchers", defaults.dispatchers)?;
            if dispatchers == 0 {
                return Err(CliError("--dispatchers must be at least 1".to_owned()));
            }
            dispatchers
        },
        max_in_flight_per_client: parse_usize(
            args,
            "--max-in-flight-per-client",
            defaults.max_in_flight_per_client,
        )?,
        shutdown_grace: defaults.shutdown_grace,
    })
}

/// Runs one sweep spec to completion on a socketless job service and
/// prints where the aggregated report landed. Sharing `--state-dir` with
/// a prior interrupted run resumes it from the completed jobs.
fn cmd_sweep(args: &[String]) -> Result<String, CliError> {
    use emgrid_batch::SweepEngine;
    use emgrid_serve::JobService;

    let path = positional(args).ok_or_else(|| CliError("missing sweep spec path".to_owned()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read `{path}`: {e}")))?;

    let defaults = ServeConfig::default();
    let workers = parse_usize(args, "--workers", defaults.workers)?;
    if workers == 0 {
        return Err(CliError("--workers must be at least 1".to_owned()));
    }
    let checkpoint_every = parse_usize(args, "--checkpoint-every", defaults.checkpoint_every)?;
    let max_in_flight = parse_usize(args, "--max-in-flight", 2 * workers)?;
    if max_in_flight == 0 {
        return Err(CliError("--max-in-flight must be at least 1".to_owned()));
    }
    let config = ServeConfig {
        state_dir: option_value(args, "--state-dir")
            .map(Into::into)
            .unwrap_or(defaults.state_dir),
        workers,
        checkpoint_every,
        // The dispatcher never has more jobs in flight than this, and a
        // full queue is retried on its next tick.
        queue_depth: max_in_flight,
        ..defaults
    };
    let service =
        JobService::open(&config).map_err(|e| CliError(format!("cannot open state dir: {e}")))?;
    let engine = SweepEngine::new(
        std::sync::Arc::new(service.jobs_api()),
        config.state_dir.join("sweeps"),
        max_in_flight,
    )
    .map_err(|e| CliError(format!("cannot open sweep store: {e}")))?;
    let submission = engine.submit_text(&text).map_err(|e| {
        CliError(match &e.field {
            Some(field) => format!("invalid sweep spec at `{field}`: {e}"),
            None => format!("invalid sweep spec: {e}"),
        })
    })?;
    engine.wait_idle();

    let status = engine
        .status(&submission.sweep)
        .ok_or_else(|| CliError("sweep state disappeared".to_owned()))?;
    let report = engine.store().report_path(&submission.sweep);
    if engine.report_bytes(&submission.sweep).is_none() {
        return Err(CliError(format!(
            "sweep {} was interrupted before completing; re-run to resume",
            submission.sweep
        )));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sweep          : {} ({})",
        submission.sweep, submission.name
    );
    let _ = writeln!(
        out,
        "jobs           : {} total, {} done, {} failed, {} cancelled",
        status.total, status.done, status.failed, status.cancelled
    );
    let _ = writeln!(out, "report         : {}", report.display());
    Ok(out)
}

/// Validates one job or sweep spec offline and prints the canonical
/// (persisted) document to stdout — the same strict checks the HTTP API
/// and the sweep engine apply, including full axis expansion, with the
/// same field attribution, but with no daemon and no state directory.
fn cmd_validate(args: &[String]) -> Result<String, CliError> {
    use emgrid_scenarios::SweepSpec;
    use emgrid_serve::json::{self, Json};
    use emgrid_serve::{JobSpec, SpecError};

    let path = positional(args).ok_or_else(|| CliError("missing spec path".to_owned()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read `{path}`: {e}")))?;
    let doc =
        json::parse(&text).map_err(|e| CliError(format!("`{path}` is not valid JSON: {e}")))?;
    let spec_err = |kind: &str, e: SpecError| {
        CliError(match &e.field {
            Some(field) => format!("invalid {kind} spec at `{field}`: {e}"),
            None => format!("invalid {kind} spec: {e}"),
        })
    };
    // A `kind` key marks a job spec; everything else is tried as a sweep.
    let is_job = matches!(&doc, Json::Obj(pairs) if pairs.iter().any(|(k, _)| k == "kind"));
    let mut canonical = if is_job {
        let spec = JobSpec::from_json(&doc).map_err(|e| spec_err("job", e))?;
        spec.resolve().map_err(|e| spec_err("job", e))?;
        spec.to_json().to_string()
    } else {
        let spec = SweepSpec::from_json(&doc).map_err(|e| spec_err("sweep", e))?;
        spec.expand().map_err(|e| spec_err("sweep", e))?;
        spec.canonical_string()
    };
    canonical.push('\n');
    Ok(canonical)
}

/// Runs the daemon in the foreground until the process is killed. Prints
/// the bound address before blocking so scripts can discover an ephemeral
/// port (`--addr 127.0.0.1:0`).
fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    use emgrid_batch::SweepEngine;
    use std::sync::Arc;

    let config = serve_config(args)?;
    let state_dir = config.state_dir.clone();
    let workers = config.workers;
    let server =
        Server::start(config).map_err(|e| CliError(format!("cannot start daemon: {e}")))?;
    // Mount the sweep API over the job engine and resume any sweep that
    // was interrupted (spec on disk, no report) by a previous daemon.
    let engine = SweepEngine::new(
        Arc::new(server.jobs_api()),
        state_dir.join("sweeps"),
        2 * workers,
    )
    .map_err(|e| CliError(format!("cannot open sweep store: {e}")))?;
    let hook_engine = Arc::clone(&engine);
    server.set_route_hook(Arc::new(move |req| {
        emgrid_batch::http::route(req, &hook_engine)
    }));
    engine.resume_all();
    println!("emgrid-serve listening on {}", server.local_addr());
    println!("state dir      : {}", state_dir.display());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.wait();
    Ok(String::new())
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    /// The flags USAGE lists under each command; `analyze` also takes
    /// characterize's ("same options as characterize").
    fn usage_flags() -> BTreeMap<String, BTreeSet<String>> {
        let (_, commands) = USAGE
            .split_once("COMMANDS:\n")
            .expect("USAGE lists commands");
        let (commands, _) = commands
            .split_once("\n\nEvery command")
            .expect("the command list ends before the notes");
        let mut table: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut command = String::new();
        for line in commands.lines() {
            // Command lines are indented by four spaces, their option
            // lines by more.
            if line.len() > 4 && !line[4..].starts_with(' ') {
                command = line.split_whitespace().next().unwrap().to_owned();
            }
            let mut flags: BTreeSet<String> = line
                .split(|c: char| c != '-' && !c.is_ascii_alphanumeric())
                .filter(|w| w.starts_with("--") && w.len() > 2)
                .map(str::to_owned)
                .collect();
            if line.contains("same options as characterize") {
                flags.extend(table["characterize"].clone());
            }
            if !command.is_empty() {
                table.entry(command.clone()).or_default().extend(flags);
            }
        }
        table
    }

    #[test]
    fn every_flag_usage_lists_is_accepted() {
        let usage = usage_flags();
        let declared: BTreeMap<String, BTreeSet<String>> = COMMAND_FLAGS
            .iter()
            .map(|(c, _, f)| (c.to_string(), f.iter().map(|f| f.to_string()).collect()))
            .collect();
        assert_eq!(declared, usage);
        assert_eq!(usage.len(), 12, "{usage:?}");
        for (command, reads_path, flags) in COMMAND_FLAGS {
            for &flag in flags.iter().chain(&["--trace"]) {
                let mut args = vec![flag.to_owned()];
                if !VALUELESS_FLAGS.contains(&flag) {
                    args.push("1".into());
                }
                if reads_path && !(command == "screen" && flag == "--profile") {
                    args.push("deck.sp".into());
                }
                assert!(check_flags(command, &args).is_ok(), "{command} {args:?}");
            }
        }
    }

    #[test]
    fn a_positional_beyond_the_path_a_command_reads_is_rejected() {
        let err = run(&argv("irdrop pg1.sp /nonexistent.sp")).unwrap_err();
        assert_eq!(
            err.0,
            "unexpected argument `/nonexistent.sp` for `emgrid irdrop`"
        );
        // Commands that read no path reject the first positional.
        for (command, reads_path, _) in COMMAND_FLAGS {
            let args = if reads_path { "a.sp b.sp" } else { "b.sp" };
            let err = check_flags(command, &argv(args)).unwrap_err();
            assert_eq!(
                err.0,
                format!("unexpected argument `b.sp` for `emgrid {command}`")
            );
        }
    }

    #[test]
    fn screen_under_a_profile_rejects_a_deck_path() {
        let err = run(&argv("screen --profile pg1 /nonexistent.sp")).unwrap_err();
        assert_eq!(
            err.0,
            "unexpected argument `/nonexistent.sp` for `emgrid screen --profile`"
        );
    }

    #[test]
    fn screen_under_a_profile_rejects_repair_vias() {
        // The repair applies to a loaded deck; a generated one has none.
        let err = run(&argv("screen --profile pg1 --repair-vias 0.5")).unwrap_err();
        assert_eq!(
            err.0,
            "unknown flag `--repair-vias` for `emgrid screen --profile`"
        );
        assert!(check_flags("screen", &argv("deck.sp --repair-vias 0.5")).is_ok());
    }

    #[test]
    fn every_command_rejects_an_unknown_flag() {
        // Checked without running the command, so a regression fails here
        // instead of starting a daemon.
        for command in usage_flags().keys() {
            let err = check_flags(command, &argv("--bogus 1")).unwrap_err();
            assert_eq!(
                err.0,
                format!("unknown flag `--bogus` for `emgrid {command}`")
            );
        }
        // `run` checks before it dispatches. A flag another command takes
        // is still unknown here, and so is one after valid flags and values.
        let err = run(&argv("irdrop pg1.sp --top-k 3")).unwrap_err();
        assert_eq!(err.0, "unknown flag `--top-k` for `emgrid irdrop`");
        let err = run(&argv("screen --profile pg1 --json --out x")).unwrap_err();
        assert_eq!(err.0, "unknown flag `--out` for `emgrid screen`");
    }

    #[test]
    fn no_args_prints_usage() {
        let err = run(&[]).unwrap_err();
        assert!(err.0.contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_rejected() {
        let err = run(&argv("frobnicate")).unwrap_err();
        assert!(err.0.contains("unknown command"));
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&argv("help")).unwrap();
        assert!(out.contains("characterize"));
    }

    #[test]
    fn serve_flags_parse_into_a_config() {
        let cfg = serve_config(&argv(
            "--addr 127.0.0.1:0 --workers 3 --queue-depth 9 --checkpoint-every 5 \
             --state-dir /tmp/emgrid-jobs --cache-dir /tmp/emgrid-cache --max-body-bytes 4096 \
             --max-netlist-lines 3000000 --max-connections 17 --debug-panic-route \
             --dispatchers 3 --max-in-flight-per-client 8",
        ))
        .unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(
            (cfg.workers, cfg.queue_depth, cfg.checkpoint_every),
            (3, 9, 5)
        );
        assert_eq!(cfg.state_dir, std::path::PathBuf::from("/tmp/emgrid-jobs"));
        assert_eq!(
            cfg.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/emgrid-cache"))
        );
        assert_eq!(cfg.max_body_bytes, 4096);
        assert_eq!(cfg.max_netlist_lines, 3_000_000);
        assert_eq!(cfg.max_connections, 17);
        assert!(cfg.debug_panic_route);
        assert_eq!(cfg.dispatchers, 3);
        assert_eq!(cfg.max_in_flight_per_client, 8);

        let defaults = serve_config(&[]).unwrap();
        assert_eq!(defaults.addr, "127.0.0.1:8080");
        assert_eq!(defaults.max_netlist_lines, 400_000);
        assert!(defaults.cache_dir.is_none());
        assert!(!defaults.debug_panic_route);
        assert!(serve_config(&argv("--workers 0")).is_err());
        assert!(serve_config(&argv("--queue-depth 0")).is_err());
        assert!(serve_config(&argv("--max-connections 0")).is_err());
        assert!(serve_config(&argv("--max-netlist-lines 0")).is_err());
        assert!(serve_config(&argv("--dispatchers 0")).is_err());
    }

    #[test]
    fn generate_produces_parsable_deck() {
        let out = run(&argv("generate --profile pg1")).unwrap();
        let n = parse(&out).unwrap();
        assert!(n.node_count() > 1000);
        assert!(run(&argv("generate --profile nope")).is_err());
    }

    #[test]
    fn lint_and_irdrop_on_a_temp_deck() {
        let deck = run(&argv("generate --profile pg1")).unwrap();
        let path = std::env::temp_dir().join("emgrid_cli_test_pg1.sp");
        std::fs::write(&path, deck).unwrap();
        let path = path.to_string_lossy().into_owned();

        let out = run(&[String::from("lint"), path.clone()]).unwrap();
        assert!(out.contains("no issues found"), "{out}");
        // A valueless flag in front of the deck must not swallow it.
        assert_eq!(cmd_lint(&["--trace".into(), path.clone()]).unwrap(), out);

        let out = run(&[String::from("irdrop"), path.clone()]).unwrap();
        assert!(out.contains("worst IR drop"));
        assert!(out.contains("met"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn characterize_reports_fit() {
        let out = run(&argv(
            "characterize --array 4x4 --pattern plus --criterion r2x --trials 200 --seed 3",
        ))
        .unwrap();
        assert!(out.contains("lognormal fit"));
        assert!(out.contains("R=2x"));
    }

    #[test]
    fn characterize_rejects_bad_options() {
        assert!(run(&argv("characterize --array 3x3")).is_err());
        assert!(run(&argv("characterize --pattern round")).is_err());
        assert!(run(&argv("characterize --criterion maybe")).is_err());
        assert!(run(&argv("characterize --trials many")).is_err());
        assert!(run(&argv("characterize --threads 0")).is_err());
        assert!(run(&argv("characterize --target-ci 0")).is_err());
        assert!(run(&argv("characterize --target-ci tight")).is_err());
    }

    #[test]
    fn characterize_is_thread_count_invariant() {
        let base = "characterize --trials 120 --seed 5 --threads";
        let one = run(&argv(&format!("{base} 1"))).unwrap();
        let four = run(&argv(&format!("{base} 4"))).unwrap();
        // Identical modulo the execution telemetry line (timing/threads).
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("execution"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&one), strip(&four));
        assert!(four.contains("4 thread(s)"), "{four}");
    }

    #[test]
    fn characterize_stops_early_at_a_loose_target() {
        let out = run(&argv(
            "characterize --trials 100000 --seed 5 --target-ci 0.2",
        ))
        .unwrap();
        assert!(out.contains("stopped early"), "{out}");
    }

    #[test]
    fn analyze_runs_end_to_end_on_a_small_deck() {
        let deck = write_string(&GridSpec::custom("cli", 8, 8).generate());
        let path = std::env::temp_dir().join("emgrid_cli_test_small.sp");
        std::fs::write(&path, deck).unwrap();
        let path = path.to_string_lossy().into_owned();
        let out = run(&[
            "analyze".into(),
            path.clone(),
            "--trials".into(),
            "150".into(),
            "--grid-trials".into(),
            "10".into(),
        ])
        .unwrap();
        assert!(out.contains("system TTF median"), "{out}");
        assert!(out.contains("most critical sites"));

        // Variation flags thread through both Monte Carlo levels.
        let varied = run(&[
            "analyze".into(),
            path.clone(),
            "--trials".into(),
            "150".into(),
            "--grid-trials".into(),
            "10".into(),
            "--edge-current-factor".into(),
            "0.5".into(),
            "--temperature-sigma".into(),
            "8".into(),
        ])
        .unwrap();
        assert!(
            varied.contains("variation      : edge factor 0.5, sigma_T 8 degC, sigma_w 0"),
            "{varied}"
        );
        assert!(varied.contains("system TTF median"), "{varied}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn screen_ranks_a_profile_without_monte_carlo() {
        let out = run(&argv("screen --profile pg1 --top-k 8")).unwrap();
        assert!(out.contains("via arrays"), "{out}");
        assert!(out.contains("stress"), "{out}");

        // The JSON document is deterministic run to run.
        let a = run(&argv("screen --profile pg1 --top-k 8 --json")).unwrap();
        let b = run(&argv("screen --profile pg1 --top-k 8 --json")).unwrap();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"kind\":\"screen\""), "{a}");
        assert!(a.contains("\"selected\":8"), "{a}");

        // Both engines rank; an explicit method is honoured.
        let cg = run(&argv("screen --profile pg1 --top-k 8 --method cg --json")).unwrap();
        assert!(cg.contains("\"selected\":8"), "{cg}");

        assert!(run(&argv("screen --profile nope")).is_err());
        assert!(run(&argv("screen --profile pg1 --top-k 0")).is_err());
        assert!(run(&argv("screen --profile pg1 --stress-threshold -4")).is_err());
        assert!(run(&argv("screen --profile pg1 --method simplex")).is_err());
        assert!(run(&argv("screen")).is_err(), "missing deck path");
    }

    #[test]
    fn floating_island_fails_the_same_way_on_every_engine() {
        // Three unknowns with no path to a pad and no load: CG would
        // return their zero start as a solution, the direct factor a zero
        // pivot. The structural check rejects the deck before either runs.
        let mut deck = run(&argv("generate --profile pg1")).unwrap();
        deck.push_str("Rf1 n1_900_900 n3_900_900 2.0\nRf2 n1_900_900 n1_901_900 1.5\n");
        let path = std::env::temp_dir().join("emgrid_cli_test_floating.sp");
        std::fs::write(&path, deck).unwrap();
        let path = path.to_string_lossy().into_owned();
        let errors: Vec<String> = ["direct", "cg", "auto"]
            .iter()
            .map(|method| {
                let args = vec![
                    "screen".into(),
                    path.clone(),
                    "--method".into(),
                    method.to_string(),
                ];
                run(&args).unwrap_err().to_string()
            })
            .collect();
        std::fs::remove_file(&path).ok();
        assert!(
            errors[0].contains("node `n1_900_900` has no resistive path"),
            "{}",
            errors[0]
        );
        assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
    }

    #[test]
    fn screen_reads_a_deck_file_too() {
        let deck = write_string(&GridSpec::custom("cli-screen", 8, 8).generate());
        let path = std::env::temp_dir().join("emgrid_cli_test_screen.sp");
        std::fs::write(&path, deck).unwrap();
        let path = path.to_string_lossy().into_owned();
        let out = run(&["screen".into(), path.clone(), "--json".into()]).unwrap();
        assert!(out.contains("\"kind\":\"screen\""), "{out}");
        assert_eq!(cmd_screen(&["--json".into(), path.clone()]).unwrap(), out);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn signoff_command_reports_verdict() {
        let deck = run(&argv("generate --profile pg1")).unwrap();
        let path = std::env::temp_dir().join("emgrid_cli_test_signoff.sp");
        std::fs::write(&path, deck).unwrap();
        let path = path.to_string_lossy().into_owned();
        let out = run(&[
            "signoff".into(),
            path.clone(),
            "--target-years".into(),
            "1".into(),
        ])
        .unwrap();
        assert!(out.contains("verdict"), "{out}");
        assert!(out.contains("current-density limit"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sweep_runs_a_small_spec_and_writes_a_report() {
        let dir = std::env::temp_dir().join(format!("emgrid-cli-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("spec.json");
        std::fs::write(
            &spec,
            r#"{
                "name": "cli-sweep",
                "job": {"kind": "characterize", "trials": 32, "threads": 1, "array": "1x1"},
                "axes": {"seed": [1, 2]}
            }"#,
        )
        .unwrap();
        let out = run(&[
            "sweep".into(),
            spec.to_string_lossy().into_owned(),
            "--state-dir".into(),
            dir.join("jobs").to_string_lossy().into_owned(),
        ])
        .unwrap();
        assert!(out.contains("2 total, 2 done, 0 failed"), "{out}");
        let report = out
            .lines()
            .find(|l| l.starts_with("report"))
            .and_then(|l| l.split_once(':').map(|x| x.1))
            .map(str::trim)
            .unwrap();
        assert!(std::path::Path::new(report).exists(), "{out}");
        let again = cmd_sweep(&[
            "--trace".into(),
            spec.to_string_lossy().into_owned(),
            "--state-dir".into(),
            dir.join("jobs").to_string_lossy().into_owned(),
        ])
        .unwrap();
        assert_eq!(again, out, "a completed sweep reruns to the same summary");
        assert!(run(&argv("sweep")).is_err(), "missing spec path");
        assert!(run(&argv("sweep nope.json --workers 0")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_canonicalizes_job_and_sweep_specs() {
        let dir = std::env::temp_dir().join(format!("emgrid-cli-validate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // Job spec (has `kind`): defaults materialize, `schema` renders first.
        let job = dir.join("job.json");
        std::fs::write(&job, r#"{"schema": 1, "kind": "characterize"}"#).unwrap();
        let out = run(&["validate".into(), job.to_string_lossy().into_owned()]).unwrap();
        assert_eq!(
            out,
            "{\"schema\":1,\"kind\":\"characterize\",\"array\":\"4x4\",\"pattern\":\"plus\",\
             \"criterion\":\"rinf\",\"trials\":2000,\"seed\":1,\"threads\":1}\n"
        );
        let traced = cmd_validate(&["--trace".into(), job.to_string_lossy().into_owned()]);
        assert_eq!(traced.unwrap(), out);

        // Sweep spec (no `kind`): validated through full axis expansion,
        // dotted variation axes included.
        let sweep = dir.join("sweep.json");
        std::fs::write(
            &sweep,
            r#"{
                "name": "v",
                "job": {"kind": "characterize", "trials": 8},
                "axes": {"variation.edge_current_factor": [0, 0.5]}
            }"#,
        )
        .unwrap();
        let out = run(&["validate".into(), sweep.to_string_lossy().into_owned()]).unwrap();
        assert!(out.starts_with("{\"name\":\"v\""), "{out}");
        assert!(out.contains("variation.edge_current_factor"), "{out}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_names_the_offending_field() {
        let dir =
            std::env::temp_dir().join(format!("emgrid-cli-validate-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let bad_job = dir.join("bad-job.json");
        std::fs::write(&bad_job, r#"{"kind": "characterize", "schema": 7}"#).unwrap();
        let err = run(&["validate".into(), bad_job.to_string_lossy().into_owned()]).unwrap_err();
        assert!(err.0.contains("`schema`"), "{}", err.0);
        assert!(err.0.contains("unsupported spec schema 7"), "{}", err.0);

        let bad_sweep = dir.join("bad-sweep.json");
        std::fs::write(
            &bad_sweep,
            r#"{"name": "b", "job": {"kind": "characterize", "trials": 8},
                "axes": {"array": ["1x1", "9x9"]}}"#,
        )
        .unwrap();
        let err = run(&["validate".into(), bad_sweep.to_string_lossy().into_owned()]).unwrap_err();
        assert!(err.0.contains("`axes.array[1]`"), "{}", err.0);

        let not_json = dir.join("not.json");
        std::fs::write(&not_json, "nope").unwrap();
        let err = run(&["validate".into(), not_json.to_string_lossy().into_owned()]).unwrap_err();
        assert!(err.0.contains("not valid JSON"), "{}", err.0);

        assert!(run(&argv("validate")).is_err(), "missing spec path");
        assert!(run(&argv("validate /nonexistent/spec.json")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn characterize_variation_flags_report_fields_and_variance() {
        let base = "characterize --array 4x4 --trials 64 --seed 9";
        let nominal = run(&argv(base)).unwrap();
        let varied = run(&argv(&format!(
            "{base} --edge-current-factor 0.5 --temperature-sigma 8 \
             --linewidth-sigma 0.1 --variance-analysis"
        )))
        .unwrap();
        assert!(
            varied.contains("variation      : edge factor 0.5, sigma_T 8 degC, sigma_w 0.1"),
            "{varied}"
        );
        assert!(varied.contains("ln-TTF variance: total "), "{varied}");
        assert!(!nominal.contains("variation"), "{nominal}");
        assert_ne!(nominal, varied);
    }

    #[test]
    fn variation_flags_are_bounded() {
        assert!(run(&argv("characterize --edge-current-factor -1")).is_err());
        assert!(run(&argv("characterize --edge-current-factor lots")).is_err());
        assert!(run(&argv("characterize --temperature-sigma 1000")).is_err());
        assert!(run(&argv("characterize --linewidth-sigma 0.9")).is_err());
    }

    #[test]
    fn varied_characterize_is_thread_count_invariant() {
        let base = "characterize --trials 96 --seed 7 --edge-current-factor 0.4 \
                    --temperature-sigma 6 --linewidth-sigma 0.05 --threads";
        let one = run(&argv(&format!("{base} 1"))).unwrap();
        let four = run(&argv(&format!("{base} 4"))).unwrap();
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("execution"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&one), strip(&four));
    }

    #[test]
    fn missing_deck_path_reported() {
        let err = run(&argv("irdrop --repair-vias 0.5")).unwrap_err();
        assert!(err.0.contains("missing deck path"));
    }

    #[test]
    fn fea_solves_a_coarse_primitive() {
        let out = run(&argv(
            "fea --array 1x1 --pattern plus --resolution 0.5 --no-cache",
        ))
        .unwrap();
        assert!(
            out.contains("resolution 0.5 um (from --resolution)"),
            "{out}"
        );
        assert!(out.contains("cache          : disabled"), "{out}");
        assert!(out.contains("per-via peak tensile stress"), "{out}");
    }

    #[test]
    fn fea_cache_dir_flag_redirects_the_cache() {
        let dir = std::env::temp_dir().join(format!("emgrid-cli-cache-{}", std::process::id()));
        let out = run(&argv(&format!(
            "fea --array 1x1 --pattern plus --resolution 0.5 --cache-dir {}",
            dir.display()
        )))
        .unwrap();
        assert!(
            out.contains(&format!("cache          : {}", dir.display())),
            "{out}"
        );
        // The run populated the redirected cache on disk.
        assert!(
            std::fs::read_dir(&dir)
                .map(|mut d| d.next().is_some())
                .unwrap_or(false),
            "expected a cache entry under {}",
            dir.display()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fea_rejects_bad_options() {
        assert!(run(&argv("fea --array 3x3")).is_err());
        assert!(run(&argv("fea --pattern round")).is_err());
        assert!(run(&argv("fea --resolution 0")).is_err());
        assert!(run(&argv("fea --resolution coarse")).is_err());
        assert!(run(&argv("fea --fea-threads 0")).is_err());
        assert!(run(&argv("fea --ordering best")).is_err());
    }

    #[test]
    fn ordering_flag_beats_env_var_and_env_beats_default() {
        // One test mutates EMGRID_ORDERING to avoid races.
        std::env::set_var("EMGRID_ORDERING", "nd");
        let (o, src) = parse_ordering(&argv("--ordering amd")).unwrap();
        assert_eq!((o, src), (Ordering::Amd, "--ordering"));
        let (o, src) = parse_ordering(&argv("")).unwrap();
        assert_eq!((o, src), (Ordering::Nd, "EMGRID_ORDERING"));
        // The retired `natural` and `rcm` are errors (the binary exits 2)
        // that name the flag or variable they came from.
        let e = parse_ordering(&argv("--ordering natural")).unwrap_err();
        assert_eq!(
            e.0,
            "unknown ordering `natural` for --ordering (expected amd or nd)"
        );
        std::env::set_var("EMGRID_ORDERING", "rcm");
        let e = parse_ordering(&argv("")).unwrap_err();
        std::env::set_var("EMGRID_ORDERING", "fastest");
        assert!(parse_ordering(&argv("")).is_err());
        std::env::remove_var("EMGRID_ORDERING");
        assert_eq!(
            e.0,
            "unknown ordering `rcm` in EMGRID_ORDERING (expected amd or nd)"
        );
        let (o, src) = parse_ordering(&argv("")).unwrap();
        assert_eq!((o, src), (Ordering::Amd, "default"));
    }

    #[test]
    fn flag_or_env_names_the_source_its_errors_quote() {
        // A variable no other test touches, so this test races none.
        const ENV: &str = "EMGRID_CLI_TEST_LAYER";
        std::env::set_var(ENV, "env-text");
        let layered = |args| flag_or_env(&argv(args), "--layer", ENV);
        assert_eq!(
            layered("--layer flag-text"),
            Some(("flag-text".into(), "--layer"))
        );
        assert_eq!(layered(""), Some(("env-text".into(), ENV)));
        std::env::remove_var(ENV);
        assert_eq!(layered(""), None);
        assert_eq!(source_phrase("--layer"), "for --layer");
        assert_eq!(source_phrase(ENV), "in EMGRID_CLI_TEST_LAYER");
        let resolution = |args| parse_resolution(&argv(args)).unwrap_err().0;
        assert_eq!(
            resolution("--resolution coarse"),
            "invalid value `coarse` for --resolution"
        );
        assert_eq!(
            resolution("--resolution 0"),
            "--resolution must be positive"
        );
        assert_eq!(
            parse_ordering(&argv("--ordering best")).unwrap_err().0,
            "unknown ordering `best` for --ordering (expected amd or nd)"
        );
    }

    #[test]
    fn resolution_flag_beats_env_var_and_env_beats_default() {
        // One test mutates the process environment to avoid races.
        std::env::set_var("EMGRID_RESOLUTION", "0.7");
        let (r, src) = parse_resolution(&argv("--resolution 0.5")).unwrap();
        assert_eq!((r, src), (0.5, "--resolution"));
        let (r, src) = parse_resolution(&argv("")).unwrap();
        assert_eq!((r, src), (0.7, "EMGRID_RESOLUTION"));
        std::env::set_var("EMGRID_RESOLUTION", "junk");
        assert!(parse_resolution(&argv("")).is_err());
        std::env::remove_var("EMGRID_RESOLUTION");
        let (r, src) = parse_resolution(&argv("")).unwrap();
        assert_eq!((r, src), (0.25, "default"));
    }
}
