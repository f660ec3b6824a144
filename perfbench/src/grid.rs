//! `grid_table2`: Table 2's 10%-IR-drop / R=∞ cell on PG1, PG2 and PG5 —
//! the level-2 Monte Carlo, where many small direct solves (SMW re-solves,
//! rebases) and per-failure IR-drop and current scans do the work.

use std::time::Instant;

use emgrid::pg::IrDropReport;
use emgrid::prelude::*;
use emgrid::sparse::{FactorOptions, IncrementalSolver};
use emgrid::via::{FailureCriterion, ViaArrayReliability};
use emgrid_serve::json::Json;

use crate::check::{self, DEFAULT_SEED};
use crate::stats::{median, timed_setup};
use crate::trace::{self, Tracer};
use crate::{run_ops, Args, Outcome};

const WORKLOAD: &str = "grid_table2";
const GRID_TRIALS: usize = 20;
const LEVEL1_TRIALS: usize = 2000;
/// Rank at which the default incremental solver folds its updates into a
/// fresh factorization (`SolverStrategy::default()`).
const REBASE_INTERVAL: usize = 64;
/// Grid-MC quantiles may move by this much when a solver change reorders
/// the direct solves' arithmetic (their residuals are ~1e-12).
const QUANTILE_TOL: f64 = 1e-6;
/// A Table 2 deck: name, generator, and the per-layer metric of its MC.
type Profile = (&'static str, fn() -> GridSpec, &'static str);
const PROFILES: [Profile; 3] = [
    ("pg1", GridSpec::pg1, "pg.mc_ms.pg1"),
    ("pg2", GridSpec::pg2, "pg.mc_ms.pg2"),
    ("pg5", GridSpec::pg5, "pg.mc_ms.pg5"),
];

struct Setup {
    grids: Vec<(&'static str, PowerGrid)>,
    reliability: ViaArrayReliability,
    parse_s: f64,
    build_s: f64,
    level1_s: f64,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let mut grids = Vec::new();
    let (mut parse_s, mut build_s) = (0.0, 0.0);
    for (name, spec, _) in PROFILES {
        let deck = emgrid::spice::writer::write_string(&spec().generate());
        let t = Instant::now();
        let netlist = emgrid::spice::parse(&deck).map_err(|e| e.to_string())?;
        parse_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let grid = PowerGrid::from_netlist(netlist).map_err(|e| e.to_string())?;
        build_s += t.elapsed().as_secs_f64();
        grids.push((name, grid));
    }
    let t = Instant::now();
    let reliability = ViaArrayMc::from_reference_table(
        &ViaArrayConfig::paper_4x4(IntersectionPattern::Plus),
        Technology::default(),
        1e10,
    )
    .characterize_with(
        LEVEL1_TRIALS,
        check::derive_seed(seed, "level1"),
        &RuntimeConfig::sequential(),
    )
    .reliability(FailureCriterion::OpenCircuit)
    .map_err(|e| e.to_string())?;
    Ok(Setup {
        grids,
        reliability,
        parse_s,
        build_s,
        level1_s: t.elapsed().as_secs_f64(),
    })
}

/// The checked output of one profile's Monte Carlo.
#[derive(PartialEq)]
struct ProfileResult {
    ttf_seconds: Vec<f64>,
    failures: Vec<usize>,
}

impl ProfileResult {
    fn quantiles(&self) -> Vec<f64> {
        let ecdf = Ecdf::new(self.ttf_seconds.clone());
        [0.1, 0.5, 0.9].iter().map(|&p| ecdf.quantile(p)).collect()
    }
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let (setup, setup_s) = timed_setup(9, || setup(args.seed));
    let setup = match setup {
        Ok(s) => s,
        Err(e) => {
            return Outcome {
                errors: vec![format!("set-up failed: {e}")],
                ..Outcome::default()
            }
        }
    };
    let mut errors = Vec::new();
    // Paper shape: every nominal grid meets the 10% IR-drop budget.
    for (name, grid) in &setup.grids {
        let drop = IrDropReport::evaluate(grid, grid.nominal_solution()).worst_fraction;
        if !(drop > 0.0 && drop < 0.10) {
            errors.push(format!(
                "{name}: nominal IR drop {:.2}% of Vdd",
                drop * 100.0
            ));
        }
    }
    let reference = (args.seed == DEFAULT_SEED && !args.record)
        .then(|| check::reference(WORKLOAD))
        .flatten();
    if args.seed == DEFAULT_SEED && !args.record && reference.is_none() {
        errors.push("no stored reference".into());
    }

    let mut first: Option<Vec<ProfileResult>> = None;
    let mut last_pg5: Option<McResult> = None;
    let run = run_ops(args.seconds, |op| {
        let root = tracer.begin("op", op, None);
        let mut results = Vec::new();
        for (name, grid) in &setup.grids {
            let mc = tracer
                .time(&format!("pg.mc.{name}"), op, root, || {
                    PowerGridMc::new(grid.clone(), setup.reliability)
                        .with_system_criterion(SystemCriterion::IrDropFraction(0.10))
                        .run_with(
                            GRID_TRIALS,
                            check::derive_seed(args.seed, name),
                            &RuntimeConfig::sequential(),
                        )
                })
                .map_err(|e| format!("{name}: {e}"))?;
            results.push(ProfileResult {
                ttf_seconds: mc.ttf_seconds().to_vec(),
                failures: mc.failures_per_trial().to_vec(),
            });
            if *name == "pg5" {
                last_pg5 = Some(mc);
            }
        }
        let verdict = tracer.time("check", op, root, || {
            check_op(&setup.grids, &results, first.as_deref(), reference.as_ref())
        });
        if first.is_none() {
            first = Some(results);
        }
        tracer.end(root);
        verdict
    });

    if args.record {
        if let Some(results) = &first {
            let section = Json::Obj(
                setup
                    .grids
                    .iter()
                    .zip(results)
                    .map(|((name, _), r)| (name.to_string(), check::arr(&r.quantiles())))
                    .collect(),
            );
            if let Err(e) = check::record(WORKLOAD, section) {
                errors.push(format!("cannot record reference: {e}"));
            }
        }
    }

    let mut out = Outcome::from_ops(&run, (3 * GRID_TRIALS) as f64, setup_s);
    out.errors.append(&mut errors);
    if tracer.enabled() {
        let spans = tracer.spans();
        for (name, _, metric) in PROFILES {
            let mc_s = trace::per_op_total(spans, &format!("pg.mc.{name}"));
            out.layers.insert(metric, mc_s * 1e3);
        }
        if let Some(results) = &first {
            let failures: Vec<usize> = results.iter().flat_map(|r| r.failures.clone()).collect();
            let n = failures.len().max(1) as f64;
            out.layers.insert(
                "pg.failures_per_trial",
                failures.iter().sum::<usize>() as f64 / n,
            );
            out.layers.insert(
                "sparse.rebases_per_trial",
                failures.iter().map(|f| f / REBASE_INTERVAL).sum::<usize>() as f64 / n,
            );
        }
        out.layers.insert("spice.parse_ms", setup.parse_s * 1e3);
        out.layers.insert("pg.grid_build_ms", setup.build_s * 1e3);
        out.layers.insert("via.level1_ms", setup.level1_s * 1e3);
        out.trace_validity(tracer, &run);
        let pg5 = &setup.grids[2].1;
        match probe_failure_sequence(pg5, last_pg5.as_ref()) {
            Ok(probe) => {
                out.layers
                    .insert("sparse.base_factor_ms", probe.base_factor_s * 1e3);
                out.layers
                    .insert("sparse.smw_solve_us", probe.smw_solve_s * 1e6);
                out.layers.insert("pg.irdrop_eval_us", probe.irdrop_s * 1e6);
                out.layers
                    .insert("pg.via_currents_us", probe.currents_s * 1e6);
            }
            Err(e) => out.errors.push(format!("probe failed: {e}")),
        }
    }
    out
}

/// Per-call times of the work `PowerGridMc::run_with` does inside each
/// trial, timed on the same grid through the same public calls.
struct Probe {
    base_factor_s: f64,
    smw_solve_s: f64,
    irdrop_s: f64,
    currents_s: f64,
}

/// Replays one trial's electrical work on `grid`: factor the base system,
/// then fail the run's most frequently failing sites one at a time (as
/// many as an average trial fails), each with an SMW update + re-solve,
/// an IR-drop evaluation and a via-current scan, rebasing at the default
/// interval exactly as the Monte Carlo does.
fn probe_failure_sequence(grid: &PowerGrid, mc: Option<&McResult>) -> Result<Probe, String> {
    let Some(mc) = mc else {
        return Err("no Monte Carlo result to replay".into());
    };
    let dc = grid.dc();
    let mut base_times = Vec::new();
    let mut solver = None;
    for _ in 0..5 {
        let t = Instant::now();
        let s = IncrementalSolver::with_options(dc.matrix(), &FactorOptions::default())
            .map_err(|e| e.to_string())?;
        base_times.push(t.elapsed().as_secs_f64());
        solver = Some(s);
    }
    let mut solver = solver.expect("five factorizations");
    let failures = mc.mean_failures().round().max(1.0) as usize;
    let sites = mc.critical_sites(failures);
    let mut rhs = dc.rhs().to_vec();
    let (mut smw, mut irdrop, mut currents) = (Vec::new(), Vec::new(), Vec::new());
    for (k, _) in sites {
        let site = &grid.via_sites()[k];
        let g = 1.0 / site.resistance;
        let t = Instant::now();
        let updated = match (dc.unknown_index(site.lower), dc.unknown_index(site.upper)) {
            (Some(i), Some(j)) => solver.update_edge(i, j, -g),
            (Some(i), None) => {
                rhs[i] -= g * dc.pinned_voltage(site.upper).unwrap_or(0.0);
                solver.update_ground(i, -g)
            }
            (None, Some(j)) => {
                rhs[j] -= g * dc.pinned_voltage(site.lower).unwrap_or(0.0);
                solver.update_ground(j, -g)
            }
            (None, None) => Ok(()),
        };
        if updated.is_err() {
            break;
        }
        if solver.rank() >= REBASE_INTERVAL && solver.rebase().is_err() {
            break;
        }
        let Ok(x) = solver.solve(&rhs) else { break };
        smw.push(t.elapsed().as_secs_f64());
        let solution = dc.solution_from_unknowns(&x);
        let t = Instant::now();
        std::hint::black_box(IrDropReport::evaluate(grid, &solution));
        irdrop.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(grid.via_currents(&solution));
        currents.push(t.elapsed().as_secs_f64());
    }
    let m = |v: &[f64]| median(v).ok_or_else(|| "no failure replayed".to_owned());
    Ok(Probe {
        base_factor_s: m(&base_times)?,
        smw_solve_s: m(&smw)?,
        irdrop_s: m(&irdrop)?,
        currents_s: m(&currents)?,
    })
}

/// Checks one op: bit-identical to the run's first op, plausible trials,
/// and — at the default seed — TTF quantiles within [`QUANTILE_TOL`] of
/// the stored reference.
fn check_op(
    grids: &[(&str, PowerGrid)],
    results: &[ProfileResult],
    first: Option<&[ProfileResult]>,
    reference: Option<&Json>,
) -> Result<(), String> {
    if let Some(first) = first {
        if first != results {
            return Err("Monte Carlo differs from the run's first op".into());
        }
    }
    for ((name, _), r) in grids.iter().zip(results) {
        if r.ttf_seconds.len() != GRID_TRIALS
            || r.ttf_seconds.iter().any(|t| !t.is_finite() || *t <= 0.0)
            || r.failures.contains(&0)
        {
            return Err(format!("{name}: implausible trials"));
        }
        if let Some(reference) = reference {
            let want = check::nums(reference.get(name))
                .ok_or_else(|| format!("reference lacks {name}"))?;
            check::series_close(name, &r.quantiles(), &want, QUANTILE_TOL)?;
        }
    }
    Ok(())
}
