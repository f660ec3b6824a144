//! `chip_screen`: chip-scale steady-state screening of one deck on each
//! side of the 200k-unknown `Method::Auto` cutover — `pg100k` takes the
//! supernodal direct factor, the 270k-unknown stack takes IC(0)-CG.

use std::time::Instant;

use emgrid::pg::IrDropReport;
use emgrid::prelude::*;
use emgrid::screen::{screen_grid, ScreenOptions, ScreenReport};
use emgrid::sparse::{conjugate_gradient, CgOptions, FactorOptions, LdlFactor, Preconditioner};
use emgrid::spice::DcAnalysis;
use emgrid_serve::json::Json;

use crate::check;
use crate::stats::timed_setup;
use crate::trace::{self, Tracer};
use crate::{run_ops, Args, Outcome};

const WORKLOAD: &str = "chip_screen";
const TOP_K: usize = 100;
/// Screened stresses may move by this much when a solver change reorders
/// the operating-point arithmetic (direct residuals ~1e-12, CG solves to
/// 1e-10).
const STRESS_TOL: f64 = 1e-6;

fn decks() -> Vec<(&'static str, String)> {
    let stack = GridSpec {
        layers: 3,
        load_current: 3.8e-5,
        hotspot: 0.6,
        ..GridSpec::custom("stack270k", 300, 300)
    };
    [("pg100k", GridSpec::pg100k()), ("stack270k", stack)]
        .into_iter()
        .map(|(name, spec)| (name, emgrid::spice::writer::write_string(&spec.generate())))
        .collect()
}

/// One deck's checked output.
struct Screened {
    json: String,
    sites: usize,
    /// `(site, stress)` of the selected top-k, most critical first.
    top: Vec<(usize, f64)>,
    ir_drop: f64,
}

fn screen_deck(
    tracer: &mut Tracer,
    op: usize,
    root: Option<usize>,
    deck: &str,
) -> Result<(Screened, PowerGrid), String> {
    let netlist = tracer
        .time("spice.parse", op, root, || emgrid::spice::parse(deck))
        .map_err(|e| e.to_string())?;
    let grid = tracer
        .time("pg.grid_build", op, root, || {
            PowerGrid::from_netlist(netlist)
        })
        .map_err(|e| e.to_string())?;
    let options = ScreenOptions {
        top_k: Some(TOP_K),
        ..ScreenOptions::default()
    };
    let report: ScreenReport = tracer
        .time("screen.pass", op, root, || {
            screen_grid(&grid, &Technology::default(), &options)
        })
        .map_err(|e| e.to_string())?;
    let json = tracer.time("screen.json", op, root, || report.to_json());
    let screened = Screened {
        json,
        sites: grid.via_sites().len(),
        top: report
            .selected_scores()
            .iter()
            .map(|s| (s.site, s.stress_pa))
            .collect(),
        ir_drop: IrDropReport::evaluate(&grid, grid.nominal_solution()).worst_fraction,
    };
    Ok((screened, grid))
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let (decks, setup_s) = timed_setup(3, decks);
    let reference = (!args.record).then(|| check::reference(WORKLOAD)).flatten();
    let mut errors = Vec::new();
    if !args.record && reference.is_none() {
        errors.push("no stored reference".into());
    }
    let mut first: Option<Vec<Screened>> = None;
    let mut grids: Vec<PowerGrid> = Vec::new();
    let mut sites_per_op = 0usize;
    let run = run_ops(args.seconds, |op| {
        let root = tracer.begin("op", op, None);
        let mut deck_grids = Vec::new();
        let mut outputs = Vec::new();
        for (name, deck) in &decks {
            let (screened, grid) =
                screen_deck(tracer, op, root, deck).map_err(|e| format!("{name}: {e}"))?;
            outputs.push(screened);
            deck_grids.push(grid);
        }
        let verdict = tracer.time("check", op, root, || {
            check_op(&decks, &outputs, first.as_deref(), reference.as_ref())
        });
        sites_per_op = outputs.iter().map(|s| s.sites).sum();
        if first.is_none() {
            first = Some(outputs);
        }
        if tracer.enabled() && grids.is_empty() {
            // The traced run keeps its first op's grids for the probes.
            grids = deck_grids;
        } else {
            // Freeing two chip-scale grids is part of the op's cost.
            tracer.time("drop", op, root, || drop(deck_grids));
        }
        tracer.end(root);
        verdict
    });

    if args.record {
        if let Some(outputs) = &first {
            let section = Json::Obj(
                decks
                    .iter()
                    .zip(outputs)
                    .map(|((name, _), s)| {
                        let sites: Vec<f64> = s.top.iter().map(|t| t.0 as f64).collect();
                        let stress: Vec<f64> = s.top.iter().map(|t| t.1).collect();
                        (
                            name.to_string(),
                            Json::Obj(vec![
                                ("sites".into(), check::arr(&sites)),
                                ("stress_pa".into(), check::arr(&stress)),
                            ]),
                        )
                    })
                    .collect(),
            );
            if let Err(e) = check::record(WORKLOAD, section) {
                errors.push(format!("cannot record reference: {e}"));
            }
        }
    }

    let mut out = Outcome::from_ops(&run, sites_per_op as f64, setup_s);
    out.errors.append(&mut errors);
    if tracer.enabled() {
        let spans = tracer.spans();
        let ms = |name: &str| trace::per_op_total(spans, name) * 1e3;
        out.layers.insert("spice.parse_ms", ms("spice.parse"));
        out.layers.insert("pg.grid_build_ms", ms("pg.grid_build"));
        out.layers.insert("screen.pass_ms", ms("screen.pass"));
        out.layers.insert("screen.json_ms", ms("screen.json"));
        out.layers.insert("screen.sites", sites_per_op as f64);
        out.trace_validity(tracer, &run);
        match probe_solves(&grids) {
            Ok(layers) => out.layers.extend(layers),
            Err(e) => out.errors.push(format!("probe failed: {e}")),
        }
    }
    out
}

/// Times the work `PowerGrid::from_netlist` does inside its call — MNA
/// assembly, then the direct factor (pg100k) or IC(0)-CG (the stack) —
/// through the same public calls on the same grids.
fn probe_solves(grids: &[PowerGrid]) -> Result<Vec<(&'static str, f64)>, String> {
    let [pg100k, stack] = grids else {
        return Err("no screened grids to probe".into());
    };
    let mut mna = 0.0;
    for grid in grids {
        let t = Instant::now();
        std::hint::black_box(DcAnalysis::new(grid.netlist()).map_err(|e| e.to_string())?);
        mna += t.elapsed().as_secs_f64();
    }
    let dc = pg100k.dc();
    let t = Instant::now();
    let factor = LdlFactor::factor_with(dc.matrix(), &FactorOptions::default())
        .map_err(|e| e.to_string())?;
    let factor_s = t.elapsed().as_secs_f64();
    let fill = factor.l_nnz() as f64;
    drop(factor);
    let dc = stack.dc();
    let t = Instant::now();
    let cg = conjugate_gradient(
        dc.matrix(),
        dc.rhs(),
        None,
        &CgOptions {
            preconditioner: Preconditioner::IncompleteCholesky,
            ..CgOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let cg_s = t.elapsed().as_secs_f64();
    let ic0_s = cg.precond_time.as_secs_f64();
    Ok(vec![
        ("spice.mna_ms", mna * 1e3),
        ("sparse.factor_ms", factor_s * 1e3),
        ("sparse.fill_nnz", fill),
        ("sparse.ic0_ms", ic0_s * 1e3),
        ("sparse.cg_ms", (cg_s - ic0_s) * 1e3),
        ("sparse.cg_iterations", cg.iterations as f64),
    ])
}

/// Checks one op: JSON bytes identical to the run's first op, a full top-k
/// selection, nominal IR drop under the 10% budget, and the selected sites
/// and stresses within [`STRESS_TOL`] of the stored reference (a swap at
/// the k-th place is allowed only between sites whose stresses tie within
/// the tolerance).
fn check_op(
    decks: &[(&str, String)],
    outputs: &[Screened],
    first: Option<&[Screened]>,
    reference: Option<&Json>,
) -> Result<(), String> {
    for (k, ((name, _), s)) in decks.iter().zip(outputs).enumerate() {
        if let Some(first) = first {
            if first[k].json != s.json {
                return Err(format!("{name}: report differs from the run's first op"));
            }
        }
        if s.top.len() != TOP_K {
            return Err(format!(
                "{name}: {} sites selected, wanted {TOP_K}",
                s.top.len()
            ));
        }
        if !(s.ir_drop > 0.0 && s.ir_drop < 0.10) {
            return Err(format!(
                "{name}: nominal IR drop {:.2}% of Vdd",
                s.ir_drop * 100.0
            ));
        }
        let Some(reference) = reference else { continue };
        let entry = reference
            .get(name)
            .ok_or_else(|| format!("reference lacks {name}"))?;
        let sites = check::nums(entry.get("sites")).ok_or("reference lacks sites")?;
        let stress = check::nums(entry.get("stress_pa")).ok_or("reference lacks stresses")?;
        let got: Vec<f64> = s.top.iter().map(|t| t.1).collect();
        check::series_close(name, &got, &stress, STRESS_TOL)?;
        let kth = stress.last().copied().unwrap_or(0.0);
        let tied = |v: f64| check::close(v, kth, STRESS_TOL);
        for (&site, &sigma) in sites.iter().zip(&stress) {
            if !tied(sigma) && !s.top.iter().any(|t| t.0 as f64 == site) {
                return Err(format!("{name}: site {site} left the top {TOP_K}"));
            }
        }
        for &(site, sigma) in &s.top {
            if !tied(sigma) && !sites.contains(&(site as f64)) {
                return Err(format!("{name}: site {site} entered the top {TOP_K}"));
            }
        }
    }
    Ok(())
}
