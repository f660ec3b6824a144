//! `fea_fig07`: a cold single-threaded FEA solve of the Fig. 7 pair (4×4
//! and 8×8 Plus arrays at 0.25 µm), the paper's characterization step.

use emgrid::fea::SolveStats;
use emgrid::prelude::*;
use emgrid_serve::json::Json;

use crate::check;
use crate::stats::timed_setup;
use crate::trace::{self, Tracer};
use crate::{run_ops, Args, Outcome};

const WORKLOAD: &str = "fea_fig07";

/// Per-via stresses may move by this relative amount when a solver change
/// legitimately reorders the CG arithmetic: a thousand times the 1e-7
/// relative residual the FEA path solves to.
const STRESS_TOL: f64 = 1e-4;

fn models() -> Vec<(&'static str, CharacterizationModel)> {
    [
        ("4x4", ViaArrayGeometry::paper_4x4()),
        ("8x8", ViaArrayGeometry::paper_8x8()),
    ]
    .into_iter()
    .map(|(label, array)| {
        let model = CharacterizationModel {
            pattern: IntersectionPattern::Plus,
            array,
            wire_width: 2.0,
            margin: 1.0,
            resolution: 0.25,
            ..CharacterizationModel::default()
        };
        (label, model)
    })
    .collect()
}

/// Mean peak stress of the interior (non-perimeter) vias.
fn interior_mean(array: &ViaArrayGeometry, peaks: &[f64]) -> f64 {
    let interior: Vec<f64> = peaks
        .iter()
        .enumerate()
        .filter(|(i, _)| !array.is_perimeter(*i))
        .map(|(_, &p)| p)
        .collect();
    interior.iter().sum::<f64>() / interior.len().max(1) as f64
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    // Set-up: build both models and voxelize them once to check that each
    // mesh is non-empty before any timed solve.
    let (models, setup_s) = timed_setup(31, || {
        let models = models();
        let occupied: Vec<usize> = models
            .iter()
            .map(|(_, m)| m.build_mesh().occupied_count())
            .collect();
        (models, occupied)
    });
    let (models, occupied) = models;
    let mut errors = Vec::new();
    if occupied.contains(&0) {
        errors.push("empty FEA mesh".to_owned());
    }
    // The FEA inputs do not depend on the seed: every run is checked
    // against the stored stresses.
    let reference = (!args.record).then(|| check::reference(WORKLOAD)).flatten();
    if !args.record && reference.is_none() {
        errors.push("no stored reference".into());
    }
    let mut first: Option<Vec<Vec<f64>>> = None;
    let mut all_stats: Vec<SolveStats> = Vec::new();

    let run = run_ops(args.seconds, |op| {
        let root = tracer.begin("op", op, None);
        let mut peaks = Vec::new();
        for (label, model) in &models {
            let solve = tracer.begin(&format!("fea.solve.{label}"), op, root);
            let (field, stats) = ThermalStressAnalysis::new(*model)
                .with_threads(1)
                .run_with_stats()
                .map_err(|e| format!("{label}: {e}"))?;
            peaks.push(field.per_via_peak_stress());
            tracer.end(solve);
            if let Some(i) = solve {
                // SolveStats reports the assemble, IC(0) and CG intervals of
                // the call in that order; what the call spends beyond them
                // (stress recovery) is the solve span's self time.
                let s = tracer.spans()[i].start;
                let a = stats.assemble_time.as_secs_f64();
                let f = stats.factor_time.as_secs_f64();
                let total = stats.solve_time.as_secs_f64();
                tracer.record_secs("fea.assemble", op, solve, s, s + a);
                tracer.record_secs("sparse.ic0", op, solve, s + a, s + a + f);
                tracer.record_secs("sparse.cg", op, solve, s + a + f, s + a + total);
            }
            all_stats.push(stats);
        }
        let verdict = tracer.time("check", op, root, || {
            check_op(&models, &peaks, first.as_deref(), reference.as_ref())
        });
        if first.is_none() {
            first = Some(peaks);
        }
        tracer.end(root);
        verdict
    });

    if args.record {
        if let Some(peaks) = &first {
            let section = Json::Obj(
                models
                    .iter()
                    .zip(peaks)
                    .map(|((label, _), p)| (label.to_string(), check::arr(p)))
                    .collect(),
            );
            if let Err(e) = check::record(WORKLOAD, section) {
                errors.push(format!("cannot record reference: {e}"));
            }
        }
    }

    let mut out = Outcome::from_ops(&run, 1.0, setup_s);
    out.errors.append(&mut errors);
    if tracer.enabled() {
        let spans = tracer.spans();
        let selfs = trace::self_times(spans);
        let ops = run.attempted.max(1) as f64;
        let recover: f64 = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name.starts_with("fea.solve."))
            .map(|(_, t)| t)
            .sum();
        let per_op = |f: &dyn Fn(&SolveStats) -> f64| all_stats.iter().map(f).sum::<f64>() / ops;
        let layers = &mut out.layers;
        layers.insert(
            "fea.assemble_ms",
            trace::per_op_total(spans, "fea.assemble") * 1e3,
        );
        layers.insert("fea.recover_ms", recover / ops * 1e3);
        layers.insert("fea.unknowns", per_op(&|s| s.unknowns as f64));
        layers.insert(
            "sparse.ic0_ms",
            trace::per_op_total(spans, "sparse.ic0") * 1e3,
        );
        layers.insert(
            "sparse.cg_ms",
            trace::per_op_total(spans, "sparse.cg") * 1e3,
        );
        layers.insert("sparse.cg_iterations", per_op(&|s| s.iterations as f64));
        out.trace_validity(tracer, &run);
    }
    out
}

/// Checks one op's per-via peak stresses: bit-identical to the run's first
/// op, within [`STRESS_TOL`] of the stored reference, and in the paper's
/// Fig. 7 shape (the 8×8 interior sees less stress than the 4×4 interior).
fn check_op(
    models: &[(&str, CharacterizationModel)],
    peaks: &[Vec<f64>],
    first: Option<&[Vec<f64>]>,
    reference: Option<&Json>,
) -> Result<(), String> {
    if let Some(first) = first {
        if first != peaks {
            return Err("stresses differ from the run's first op".into());
        }
    }
    for ((label, model), p) in models.iter().zip(peaks) {
        if p.len() != model.array.count() || p.iter().any(|s| !s.is_finite() || *s <= 0.0) {
            return Err(format!("{label}: implausible per-via stresses"));
        }
        if let Some(reference) = reference {
            let want = check::nums(reference.get(label))
                .ok_or_else(|| format!("reference lacks {label}"))?;
            check::series_close(label, p, &want, STRESS_TOL)?;
        }
    }
    let (i4, i8) = (
        interior_mean(&models[0].1.array, &peaks[0]),
        interior_mean(&models[1].1.array, &peaks[1]),
    );
    if i8 >= i4 {
        return Err(format!(
            "8x8 interior {:.1} MPa is not below 4x4 interior {:.1} MPa",
            i8 / 1e6,
            i4 / 1e6
        ));
    }
    Ok(())
}
