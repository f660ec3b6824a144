//! Executes accepted jobs inside the engine's worker threads.
//!
//! Every job runs a deterministic pipeline keyed only by its canonical
//! spec: the result document contains statistics but never timing,
//! thread-count or resume telemetry, so the same spec (and seed) yields
//! byte-identical `result.json` whether the job ran cold, warm, on one
//! worker or eight, straight through or resumed from a checkpoint after a
//! `kill -9`. Checkpoints stream to the [`JobStore`] with atomic renames;
//! cancellation (client delete or daemon shutdown) commits a final
//! checkpoint via the runtime's session machinery and reports
//! [`JobOutcome::Cancelled`] so a later restart can pick the work back up.
//!
//! The level-1 pieces are the library's, shared with the CLI: a
//! `variance_analysis` spec's decomposition is
//! [`ViaArrayMc::variance_decomposition`] under the job's cancel token,
//! after the lognormal fit, and an analyze job's grid-level variation is
//! [`GridVariation::from_via`].

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use emgrid_em::{Technology, SECONDS_PER_YEAR};
use emgrid_fea::geometry::CharacterizationModel;
use emgrid_pg::{
    GridCheckpoint, GridSession, GridVariation, PowerGrid, PowerGridMc, SystemCriterion,
};
use emgrid_runtime::{JobCtx, JobId, JobOutcome, RunReport};
use emgrid_screen::{screen_grid, ScreenOptions};
use emgrid_spice::ingest::{ingest, IngestLimits, IngestOptions};
use emgrid_spice::GridSpec;
use emgrid_via::{
    CharacterizationResult, FeaOptions, LayerPair, StressCache, StressTable, ViaArrayMc,
    ViaCheckpoint, ViaSession,
};

use crate::json::Json;
use crate::metrics::Metrics;
use crate::spec::{
    DeckSource, JobSpec, ResolvedAnalyze, ResolvedFea, ResolvedJob, ResolvedMc, VariationSpec,
};
use crate::store::JobStore;

/// Jobs whose phase timings stay queryable after the map would otherwise
/// grow without bound; disk stays authoritative for everything else, so
/// evicted phase data is merely absent from old status docs.
const PHASE_RETENTION: usize = 1024;

/// Per-job phase wall times (`mc`, `ingest`, `level1`, `screen`,
/// `level2`, `fea`),
/// surfaced in `GET /v1/jobs/:id` status docs — never in result docs,
/// which must stay byte-identical whatever the timings were.
///
/// Bounded like the engine's terminal-record ring: beyond
/// 1024 jobs (`PHASE_RETENTION`) the oldest entry is evicted.
#[derive(Debug, Default)]
pub struct PhaseLog {
    /// Insertion order (for eviction) alongside the id → phases map.
    inner: Mutex<(VecDeque<JobId>, HashMap<JobId, PhaseTimings>)>,
}

/// `(phase, seconds)` pairs in execution order.
type PhaseTimings = Vec<(&'static str, f64)>;

impl PhaseLog {
    /// Appends one `(phase, seconds)` pair for `id`.
    pub fn record(&self, id: JobId, phase: &'static str, seconds: f64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let (order, map) = &mut *inner;
        if !map.contains_key(&id) {
            order.push_back(id);
            if order.len() > PHASE_RETENTION {
                if let Some(old) = order.pop_front() {
                    map.remove(&old);
                }
            }
        }
        map.entry(id).or_default().push((phase, seconds));
    }

    /// The recorded phases of `id`, in execution order.
    pub fn phases(&self, id: JobId) -> PhaseTimings {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.1.get(&id).cloned().unwrap_or_default()
    }
}

/// Everything a job needs besides its spec.
pub struct RunEnv<'a> {
    /// Where checkpoints (and final artifacts) are persisted.
    pub store: &'a JobStore,
    /// Daemon counters (checkpoints written, jobs resumed).
    pub metrics: &'a Metrics,
    /// Trials between checkpoints; 0 disables periodic checkpointing.
    pub checkpoint_every: usize,
    /// Stress-cache directory override for `fea` jobs.
    pub cache_dir: Option<&'a Path>,
    /// Byte cap for netlist re-ingest, mirroring the limit the submission
    /// endpoint screened with — a deck accepted at the door must never be
    /// rejected as "too large" once it reaches a worker.
    pub max_netlist_bytes: usize,
    /// Line cap for netlist re-ingest, same door/worker symmetry as
    /// [`RunEnv::max_netlist_bytes`] — chip-scale decks run to millions of
    /// lines, far past the ingest default.
    pub max_netlist_lines: usize,
    /// Phase-duration sink for status docs.
    pub phases: &'a PhaseLog,
}

impl RunEnv<'_> {
    fn record_phase(&self, id: JobId, phase: &'static str, started: Instant) {
        self.phases
            .record(id, phase, started.elapsed().as_secs_f64());
    }

    /// Counts a resume only when the checkpointed Monte Carlo really
    /// restarted past trial zero, not when it discarded its checkpoint.
    fn note_resume(&self, report: &RunReport) {
        if report.resumed_from > 0 {
            Metrics::inc(&self.metrics.jobs_resumed);
        }
    }
}

/// Runs one job to an outcome. Never panics on bad input — every failure
/// becomes [`JobOutcome::Failed`] with a client-readable message.
pub fn run_job(spec: &JobSpec, ctx: &JobCtx, env: &RunEnv<'_>) -> JobOutcome<String> {
    // Accepted specs always resolve; a failure here means a hand-built or
    // tampered spec reached a worker, and the field-level message says why.
    let resolved = match spec.resolve() {
        Ok(resolved) => resolved,
        Err(e) => return JobOutcome::Failed(format!("spec failed to resolve: {e}")),
    };
    match resolved {
        ResolvedJob::Characterize(mc) => run_characterize(&mc, ctx, env),
        ResolvedJob::Analyze(job) => run_analyze(&job, ctx, env),
        ResolvedJob::Fea(job) => run_fea(&job, ctx.id, env),
    }
}

fn run_characterize(mc: &ResolvedMc, ctx: &JobCtx, env: &RunEnv<'_>) -> JobOutcome<String> {
    let mut model =
        ViaArrayMc::from_reference_table(&mc.config, Technology::default(), mc.current_density);
    if let Some(v) = &mc.variation {
        model = model.with_variation(v.to_via());
    }

    let resume = env
        .store
        .read_checkpoint(ctx.id)
        .and_then(|text| ViaCheckpoint::decode(&text).ok());
    let mut on_checkpoint = |cp: &ViaCheckpoint| {
        if env.store.write_checkpoint(ctx.id, &cp.encode()).is_ok() {
            ctx.note_checkpoint();
            Metrics::inc(&env.metrics.checkpoints);
        }
    };
    let session = ViaSession {
        resume,
        cancel: Some(&ctx.cancel),
        checkpoint_every: env.checkpoint_every,
        on_checkpoint: Some(&mut on_checkpoint),
    };
    let mc_start = Instant::now();
    let outcome = model.characterize_session(mc.trials, mc.seed, &mc.runtime, session);
    env.record_phase(ctx.id, "mc", mc_start);
    let Some(result) = outcome else {
        return JobOutcome::Cancelled;
    };
    env.note_resume(result.report());
    if result.report().cancelled {
        return JobOutcome::Cancelled;
    }

    let ecdf = result.ecdf(mc.criterion);
    let fit = match result.fit_lognormal(mc.criterion) {
        Ok(fit) => fit,
        Err(e) => return JobOutcome::Failed(format!("lognormal fit failed: {e}")),
    };
    let ks = match result.fit_quality(mc.criterion) {
        Ok(ks) => ks,
        Err(e) => return JobOutcome::Failed(format!("fit quality failed: {e}")),
    };
    let mut doc = vec![
        ("kind".into(), Json::s("characterize")),
        ("array".into(), Json::s(&mc.array)),
        ("pattern".into(), Json::s(&mc.pattern)),
        ("criterion".into(), Json::s(&mc.criterion_label)),
        ("trials".into(), Json::n(mc.trials as f64)),
        ("seed".into(), Json::n(mc.seed as f64)),
        (
            "trials_run".into(),
            Json::n(result.report().trials_run as f64),
        ),
        (
            "ttf_median_years".into(),
            Json::n(ecdf.median() / SECONDS_PER_YEAR),
        ),
        (
            "ttf_p03_years".into(),
            Json::n(ecdf.worst_case() / SECONDS_PER_YEAR),
        ),
        (
            "lognormal_median_years".into(),
            Json::n(fit.median() / SECONDS_PER_YEAR),
        ),
        ("lognormal_sigma".into(), Json::n(fit.sigma())),
        ("ks".into(), Json::n(ks)),
    ];
    // Variation is opt-in; unvaried result documents keep their
    // historical bytes.
    if let Some(v) = &mc.variation {
        let Some(block) = variation_doc(&model, v, mc, ctx, &result) else {
            return JobOutcome::Cancelled;
        };
        doc.push(("variation".into(), block));
    }
    JobOutcome::Done(Json::Obj(doc).to_string())
}

/// The result-document `variation` block: the knobs that shaped the run,
/// plus the variance decomposition of `result`, the level-1 run of
/// `model`, when the spec asked for one. `None` means the job was
/// cancelled during the decomposition's replay.
fn variation_doc(
    model: &ViaArrayMc,
    v: &VariationSpec,
    mc: &ResolvedMc,
    ctx: &JobCtx,
    result: &CharacterizationResult,
) -> Option<Json> {
    let mut pairs = vec![
        ("edge_current_factor".into(), Json::n(v.edge_current_factor)),
        ("temperature_sigma_c".into(), Json::n(v.temperature_sigma_c)),
        ("linewidth_sigma".into(), Json::n(v.linewidth_sigma)),
    ];
    if v.variance_analysis {
        let d = model.variance_decomposition(result, mc.seed, &mc.runtime, Some(&ctx.cancel))?;
        pairs.push((
            "variance".into(),
            Json::Obj(vec![
                ("total".into(), Json::n(d.total)),
                ("void".into(), Json::n(d.void)),
                ("environment".into(), Json::n(d.environment)),
            ]),
        ));
    }
    Some(Json::Obj(pairs))
}

fn run_analyze(job: &ResolvedAnalyze, ctx: &JobCtx, env: &RunEnv<'_>) -> JobOutcome<String> {
    let mc = &job.mc;
    // Materialize the grid.
    let ingest_start = Instant::now();
    let (netlist, deck_label) = match &job.deck {
        DeckSource::Benchmark(name) => {
            let spec = GridSpec::profile(name).unwrap_or_else(GridSpec::pg1);
            (spec.generate(), name.clone())
        }
        DeckSource::Netlist(text) => {
            let options = IngestOptions {
                limits: IngestLimits {
                    max_bytes: env.max_netlist_bytes,
                    max_lines: env.max_netlist_lines,
                },
                repair_vias: job.repair_vias,
            };
            match ingest(text, &options) {
                Ok(ok) => (ok.netlist, "inline".to_owned()),
                Err(e) => return JobOutcome::Failed(format!("netlist rejected: {e}")),
            }
        }
    };
    env.record_phase(ctx.id, "ingest", ingest_start);

    // Level 1: via-array characterization (deterministic, re-run in full on
    // resume — only the level-2 grid loop is checkpointed).
    let mut model =
        ViaArrayMc::from_reference_table(&mc.config, Technology::default(), mc.current_density);
    if let Some(v) = &mc.variation {
        model = model.with_variation(v.to_via());
    }
    let level1 = ViaSession {
        cancel: Some(&ctx.cancel),
        ..ViaSession::default()
    };
    let level1_start = Instant::now();
    let level1_outcome = model.characterize_session(mc.trials, mc.seed, &mc.runtime, level1);
    env.record_phase(ctx.id, "level1", level1_start);
    let Some(characterization) = level1_outcome else {
        return JobOutcome::Cancelled;
    };
    if characterization.report().cancelled {
        return JobOutcome::Cancelled;
    }
    let reliability = match characterization.reliability(mc.criterion) {
        Ok(r) => r,
        Err(e) => return JobOutcome::Failed(format!("level-1 fit failed: {e}")),
    };

    // Level 2: system Monte Carlo over the grid, checkpointed.
    let grid = match PowerGrid::from_netlist_with(netlist, job.method, job.ordering) {
        Ok(g) => g,
        Err(e) => return JobOutcome::Failed(format!("grid construction failed: {e}")),
    };
    let sites = grid.via_sites().len();

    // Optional prefilter: steady-state screening ranks every via array in
    // one linear-time pass, and the grid Monte Carlo then simulates only
    // the selected subset.
    let screen = match &job.screening {
        Some(s) => {
            let screen_start = Instant::now();
            let options = ScreenOptions {
                top_k: s.top_k,
                stress_threshold: s.stress_threshold,
            };
            let Ok(report) = screen_grid(&grid, &Technology::default(), &options);
            env.record_phase(ctx.id, "screen", screen_start);
            if report.selected_scores().is_empty() {
                return JobOutcome::Failed(
                    "screening selected no via arrays: stress_threshold excludes every site".into(),
                );
            }
            Some(report)
        }
        None => None,
    };

    let mut grid_mc = PowerGridMc::new(grid, reliability)
        .with_system_criterion(SystemCriterion::IrDropFraction(0.10));
    if let Some(v) = &mc.variation {
        grid_mc =
            grid_mc.with_variation(GridVariation::from_via(&v.to_via(), &Technology::default()));
    }
    if let Some(report) = &screen {
        grid_mc = grid_mc.with_active_sites(&report.selected_sites());
    }
    let resume = env
        .store
        .read_checkpoint(ctx.id)
        .and_then(|text| GridCheckpoint::decode(&text).ok());
    let mut on_checkpoint = |cp: &GridCheckpoint| {
        if env.store.write_checkpoint(ctx.id, &cp.encode()).is_ok() {
            ctx.note_checkpoint();
            Metrics::inc(&env.metrics.checkpoints);
        }
    };
    let session = GridSession {
        resume,
        cancel: Some(&ctx.cancel),
        checkpoint_every: env.checkpoint_every,
        on_checkpoint: Some(&mut on_checkpoint),
    };
    let level2_start = Instant::now();
    let level2_outcome =
        grid_mc.run_session(job.grid_trials, mc.seed ^ 0xc11, &mc.runtime, session);
    env.record_phase(ctx.id, "level2", level2_start);
    let result = match level2_outcome {
        Ok(r) => r,
        Err(e) => return JobOutcome::Failed(format!("grid Monte Carlo failed: {e}")),
    };
    env.note_resume(result.report());
    if result.report().cancelled {
        return JobOutcome::Cancelled;
    }

    let critical = Json::Arr(
        result
            .critical_sites(5)
            .into_iter()
            .map(|(site, count)| Json::Arr(vec![Json::n(site as f64), Json::n(count as f64)]))
            .collect(),
    );
    let mut doc = vec![
        ("kind".into(), Json::s("analyze")),
        ("deck".into(), Json::s(deck_label)),
        ("array".into(), Json::s(&mc.array)),
        ("pattern".into(), Json::s(&mc.pattern)),
        ("criterion".into(), Json::s(&mc.criterion_label)),
        ("trials".into(), Json::n(mc.trials as f64)),
        ("grid_trials".into(), Json::n(job.grid_trials as f64)),
        ("seed".into(), Json::n(mc.seed as f64)),
        ("sites".into(), Json::n(sites as f64)),
    ];
    // Variation rides in its own block, like screening below; unvaried
    // documents keep their historical bytes.
    if let Some(v) = &mc.variation {
        let Some(block) = variation_doc(&model, v, mc, ctx, &characterization) else {
            return JobOutcome::Cancelled;
        };
        doc.push(("variation".into(), block));
    }
    // Screened jobs record both the screen scores and the MC results in
    // one document; unscreened jobs keep their historical bytes.
    if let Some(report) = &screen {
        let scores = Json::Arr(
            report
                .selected_scores()
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("site".into(), Json::n(s.site as f64)),
                        ("name".into(), Json::s(&s.name)),
                        ("stress_pa".into(), Json::n(s.stress_pa)),
                        ("criticality".into(), Json::n(s.criticality)),
                        ("current_a".into(), Json::n(s.current_a)),
                    ])
                })
                .collect(),
        );
        doc.push((
            "screening".into(),
            Json::Obj(vec![
                ("trees".into(), Json::n(report.trees as f64)),
                (
                    "critical_stress_pa".into(),
                    Json::n(report.critical_stress_pa),
                ),
                (
                    "selected".into(),
                    Json::n(report.selected_scores().len() as f64),
                ),
                ("scores".into(), scores),
            ]),
        ));
    }
    doc.extend([
        (
            "grid_trials_run".into(),
            Json::n(result.report().trials_run as f64),
        ),
        ("ttf_median_years".into(), Json::n(result.median_years())),
        ("ttf_p03_years".into(), Json::n(result.worst_case_years())),
        ("mean_failures".into(), Json::n(result.mean_failures())),
        ("critical_sites".into(), critical),
    ]);
    JobOutcome::Done(Json::Obj(doc).to_string())
}

fn run_fea(job: &ResolvedFea, id: JobId, env: &RunEnv<'_>) -> JobOutcome<String> {
    let model = CharacterizationModel {
        pattern: job.intersection,
        array: job.geometry,
        resolution: job.resolution,
        ..CharacterizationModel::default()
    };
    let cache = if job.use_cache {
        match env.cache_dir {
            Some(dir) => Some(StressCache::new(dir)),
            None => StressCache::open_default(),
        }
    } else {
        None
    };
    let opts = FeaOptions {
        threads: job.threads,
        ordering: job.ordering,
        cache,
        ..FeaOptions::default()
    };
    let fea_start = Instant::now();
    let fea_outcome =
        StressTable::characterize_with_fea_opts(&[(model, LayerPair::IntermediateTop)], &opts);
    env.record_phase(id, "fea", fea_start);
    let (table, report) = match fea_outcome {
        Ok(out) => out,
        Err(e) => return JobOutcome::Failed(format!("FEA failed: {e}")),
    };
    let entry = &table.entries()[0];
    let prim = &report.primitives[0];
    let doc = Json::Obj(vec![
        ("kind".into(), Json::s("fea")),
        ("array".into(), Json::s(&job.array)),
        ("pattern".into(), Json::s(&job.pattern)),
        ("resolution".into(), Json::n(job.resolution)),
        ("rows".into(), Json::n(entry.rows as f64)),
        ("cols".into(), Json::n(entry.cols as f64)),
        ("unknowns".into(), Json::n(prim.unknowns as f64)),
        (
            "per_via_stress_mpa".into(),
            Json::Arr(
                entry
                    .per_via_stress
                    .iter()
                    .map(|s| Json::n(s / 1e6))
                    .collect(),
            ),
        ),
    ]);
    JobOutcome::Done(doc.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{JobBody, McParams, ScreeningSpec, SolverSpec};
    use emgrid_runtime::JobEngine;
    use std::time::Duration;

    fn temp_store(tag: &str) -> JobStore {
        let root = std::env::temp_dir().join(format!("emgrid-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        JobStore::open(root).unwrap()
    }

    /// Runs a spec through a real engine (so a genuine JobCtx exists) and
    /// waits for the outcome.
    fn run_to_outcome(
        spec: JobSpec,
        store: &JobStore,
        checkpoint_every: usize,
    ) -> (u64, JobOutcome<String>) {
        let engine: JobEngine<String> = JobEngine::new(1, 4);
        let store2 = store.clone();
        let id = engine
            .submit(move |ctx| {
                let metrics = Metrics::default();
                let phases = PhaseLog::default();
                let env = RunEnv {
                    store: &store2,
                    metrics: &metrics,
                    checkpoint_every,
                    cache_dir: None,
                    max_netlist_bytes: IngestLimits::default().max_bytes,
                    max_netlist_lines: IngestLimits::default().max_lines,
                    phases: &phases,
                };
                run_job(&spec, ctx, &env)
            })
            .unwrap();
        engine.wait_terminal(id, Duration::from_secs(120)).unwrap();
        let snap = engine.snapshot(id).unwrap();
        let outcome = match snap.result {
            Some(r) => JobOutcome::Done(r),
            None if snap.error.is_some() => JobOutcome::Failed(snap.error.unwrap()),
            None => JobOutcome::Cancelled,
        };
        (id, outcome)
    }

    fn characterize_spec(trials: usize, seed: u64, threads: usize) -> JobSpec {
        JobSpec::from(JobBody::Characterize(McParams {
            array: "4x4".into(),
            pattern: "plus".into(),
            criterion: "rinf".into(),
            trials,
            seed,
            threads,
            target_ci: None,
            current_density: None,
            variation: None,
        }))
    }

    #[test]
    fn characterize_result_is_thread_count_invariant() {
        let store = temp_store("char");
        let (_, one) = run_to_outcome(characterize_spec(96, 11, 1), &store, 0);
        let (_, two) = run_to_outcome(characterize_spec(96, 11, 3), &store, 0);
        let (JobOutcome::Done(a), JobOutcome::Done(b)) = (&one, &two) else {
            panic!("jobs failed: {one:?} / {two:?}");
        };
        assert_eq!(a, b, "thread count leaked into the result document");
        assert!(a.contains("\"kind\":\"characterize\""), "{a}");
        assert!(a.contains("\"trials_run\":96"), "{a}");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn varied_characterize_reports_variance_and_stays_thread_invariant() {
        let store = temp_store("varied");
        let make = |threads: usize| {
            let mut spec = characterize_spec(64, 21, threads);
            let JobBody::Characterize(mc) = &mut spec.body else {
                unreachable!()
            };
            mc.variation = Some(crate::spec::VariationSpec {
                edge_current_factor: 0.4,
                temperature_sigma_c: 6.0,
                linewidth_sigma: 0.05,
                variance_analysis: true,
            });
            spec
        };
        let (_, one) = run_to_outcome(make(1), &store, 0);
        let (_, four) = run_to_outcome(make(4), &store, 0);
        let (JobOutcome::Done(a), JobOutcome::Done(b)) = (&one, &four) else {
            panic!("jobs failed: {one:?} / {four:?}");
        };
        assert_eq!(a, b, "thread count leaked into the varied result");
        assert!(
            a.contains("\"variation\":{\"edge_current_factor\":0.4"),
            "{a}"
        );
        assert!(a.contains("\"variance\":{\"total\":"), "{a}");
        assert!(a.contains("\"environment\":"), "{a}");
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// An analyze job on an inline 8x8 deck with `grid_trials` level-2 trials.
    fn netlist_analyze_spec(grid_trials: usize) -> JobSpec {
        let deck =
            emgrid_spice::writer::write_string(&GridSpec::custom("runner-test", 8, 8).generate());
        JobSpec::from(JobBody::Analyze {
            mc: McParams {
                array: "4x4".into(),
                pattern: "plus".into(),
                criterion: "rinf".into(),
                trials: 120,
                seed: 9,
                threads: 2,
                target_ci: None,
                current_density: None,
                variation: None,
            },
            deck: DeckSource::Netlist(deck),
            grid_trials,
            repair_vias: None,
            screening: None,
            solver: SolverSpec::default(),
        })
    }

    #[test]
    fn analyze_checkpoint_resume_reproduces_the_uninterrupted_result() {
        // Reference: 40 grid trials straight through, no checkpointing.
        let store = temp_store("analyze");
        let (_, reference) = run_to_outcome(netlist_analyze_spec(40), &store, 0);
        let JobOutcome::Done(reference) = reference else {
            panic!("reference failed: {reference:?}")
        };

        // Interruption, constructed deterministically: an 8-trial run with
        // checkpoint cadence 8 leaves on disk exactly the checkpoint a
        // 40-trial run would have written at its first watermark (same
        // seed, and batch ends align to absolute trial-index multiples).
        let store2 = temp_store("analyze-resume");
        let (prefix_id, prefix) = run_to_outcome(netlist_analyze_spec(8), &store2, 8);
        assert!(matches!(prefix, JobOutcome::Done(_)), "{prefix:?}");
        assert!(
            store2.read_checkpoint(prefix_id).is_some(),
            "no checkpoint persisted"
        );

        // Resume: the full 40-trial spec under the same id finds the
        // watermark-8 checkpoint and must land on the reference bytes.
        let (resumed_id, resumed) = run_to_outcome(netlist_analyze_spec(40), &store2, 8);
        assert_eq!(resumed_id, prefix_id, "store keying broken");
        let JobOutcome::Done(resumed) = resumed else {
            panic!("resumed run failed: {resumed:?}")
        };
        assert_eq!(
            resumed, reference,
            "resumed run diverged from the uninterrupted reference"
        );
        let _ = std::fs::remove_dir_all(store.root());
        let _ = std::fs::remove_dir_all(store2.root());
    }

    #[test]
    fn analyze_resume_from_a_misfit_checkpoint_recomputes_the_result() {
        let store = temp_store("misfit-reference");
        let (_, reference) = run_to_outcome(netlist_analyze_spec(40), &store, 0);
        let JobOutcome::Done(reference) = reference else {
            panic!("reference failed: {reference:?}")
        };

        // A well-formed checkpoint naming a site the 64-site grid does not
        // have: it decodes, but must not steer the resumed run.
        assert!(reference.contains("\"sites\":64"), "{reference}");
        let store2 = temp_store("misfit-resume");
        let (id, _) = run_to_outcome(netlist_analyze_spec(8), &store2, 8);
        let text = store2.read_checkpoint(id).expect("checkpoint persisted");
        let mut cp = GridCheckpoint::decode(&text).unwrap();
        cp.outputs[2].failed_sites.push(107);
        store2.write_checkpoint(id, &cp.encode()).unwrap();

        let (resumed_id, resumed) = run_to_outcome(netlist_analyze_spec(40), &store2, 8);
        assert_eq!(resumed_id, id, "store keying broken");
        let JobOutcome::Done(resumed) = resumed else {
            panic!("resume from a misfit checkpoint failed: {resumed:?}")
        };
        assert_eq!(resumed, reference);
        let _ = std::fs::remove_dir_all(store.root());
        let _ = std::fs::remove_dir_all(store2.root());
    }

    #[test]
    fn analyze_resume_from_a_v1_grid_checkpoint_recomputes_from_trial_zero() {
        let store = temp_store("v1-reference");
        let (_, reference) = run_to_outcome(netlist_analyze_spec(40), &store, 0);
        let JobOutcome::Done(reference) = reference else {
            panic!("reference failed: {reference:?}")
        };

        // An 8-trial prefix with its first TTF moved, so a job that used it
        // could not land on the reference bytes.
        let store2 = temp_store("v1-resume");
        let (id, _) = run_to_outcome(netlist_analyze_spec(8), &store2, 8);
        let text = store2.read_checkpoint(id).expect("checkpoint persisted");
        let mut cp = GridCheckpoint::decode(&text).unwrap();
        cp.outputs[0].ttf_seconds *= 1.5;
        let v2 = cp.encode();
        let resume = |text: &str| {
            store2.write_checkpoint(id, text).unwrap();
            let (resumed_id, outcome) = run_to_outcome(netlist_analyze_spec(40), &store2, 8);
            assert_eq!(resumed_id, id, "store keying broken");
            let JobOutcome::Done(doc) = outcome else {
                panic!("resumed run failed: {outcome:?}")
            };
            doc
        };
        // Under the current format line the prefix is used...
        assert_ne!(resume(&v2), reference, "the moved TTF must show");
        // ...and under the previous one, whose TTFs came from another
        // solver, it is discarded: the job recomputes from trial zero.
        let v1 = v2.replace("emgrid-grid-checkpoint-v2", "emgrid-grid-checkpoint-v1");
        assert!(GridCheckpoint::decode(&v1).is_err());
        assert_eq!(resume(&v1), reference);
        let _ = std::fs::remove_dir_all(store.root());
        let _ = std::fs::remove_dir_all(store2.root());
    }

    #[test]
    fn characterize_resume_from_a_misfit_checkpoint_recomputes_the_result() {
        let store = temp_store("char-misfit-reference");
        let reference = |trials| run_to_outcome(characterize_spec(trials, 13, 1), &store, 0).1;
        let (reference8, reference40) = (reference(8), reference(40));
        assert!(
            matches!(reference40, JobOutcome::Done(_)),
            "{reference40:?}"
        );

        // A finished 40-trial run leaves its 40-sample checkpoint on disk.
        let store2 = temp_store("char-misfit-resume");
        let (id, _) = run_to_outcome(characterize_spec(40, 13, 1), &store2, 8);
        let full = store2.read_checkpoint(id).expect("checkpoint persisted");
        let mut cut = ViaCheckpoint::decode(&full).unwrap();
        assert_eq!(cut.outputs.len(), 40);
        cut.outputs[2].failure_times.truncate(3);

        // Both checkpoints decode; neither may steer (or fail) the job.
        let resume = |trials, text: &str| {
            store2.write_checkpoint(id, text).unwrap();
            let (resumed_id, outcome) =
                run_to_outcome(characterize_spec(trials, 13, 1), &store2, 8);
            assert_eq!(resumed_id, id, "store keying broken");
            outcome
        };
        assert_eq!(resume(40, &cut.encode()), reference40, "cut sample");
        assert_eq!(resume(8, &full), reference8, "over budget");
        let _ = std::fs::remove_dir_all(store.root());
        let _ = std::fs::remove_dir_all(store2.root());
    }

    #[test]
    fn a_pre_cancelled_job_reports_cancelled_without_output() {
        let store = temp_store("cancel");
        let engine: JobEngine<String> = JobEngine::new(1, 4);
        let spec = characterize_spec(5_000, 3, 1);
        let s = store.clone();
        let id = engine
            .submit(move |ctx| {
                // Trip the job's own token before running, modelling a
                // delete that raced submission.
                ctx.cancel.cancel();
                let metrics = Metrics::default();
                let phases = PhaseLog::default();
                let env = RunEnv {
                    store: &s,
                    metrics: &metrics,
                    checkpoint_every: 0,
                    cache_dir: None,
                    max_netlist_bytes: IngestLimits::default().max_bytes,
                    max_netlist_lines: IngestLimits::default().max_lines,
                    phases: &phases,
                };
                run_job(&spec, ctx, &env)
            })
            .unwrap();
        engine.wait_terminal(id, Duration::from_secs(60)).unwrap();
        let snap = engine.snapshot(id).unwrap();
        assert!(snap.result.is_none(), "{snap:?}");
        assert!(snap.error.is_none(), "{snap:?}");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn screened_analyze_records_scores_and_stays_byte_stable() {
        let store = temp_store("screened");
        let make = |screening: Option<ScreeningSpec>| {
            JobSpec::from(JobBody::Analyze {
                mc: McParams {
                    array: "4x4".into(),
                    pattern: "plus".into(),
                    criterion: "rinf".into(),
                    trials: 48,
                    seed: 7,
                    threads: 2,
                    target_ci: None,
                    current_density: None,
                    variation: None,
                },
                deck: DeckSource::Benchmark("pg1".into()),
                grid_trials: 10,
                repair_vias: None,
                screening,
                solver: SolverSpec::default(),
            })
        };
        let top6 = ScreeningSpec {
            top_k: Some(6),
            stress_threshold: None,
        };
        let (_, first) = run_to_outcome(make(Some(top6)), &store, 0);
        let JobOutcome::Done(first) = first else {
            panic!("screened job failed: {first:?}")
        };
        assert!(first.contains("\"screening\":{\"trees\":"), "{first}");
        assert!(first.contains("\"selected\":6"), "{first}");
        assert!(first.contains("\"stress_pa\":"), "{first}");
        assert!(first.contains("\"ttf_median_years\":"), "{first}");

        let (_, second) = run_to_outcome(make(Some(top6)), &store, 0);
        let JobOutcome::Done(second) = second else {
            panic!("rerun failed: {second:?}")
        };
        assert_eq!(first, second, "screened result document is not byte-stable");

        // A threshold no array can reach fails structurally instead of
        // running a Monte Carlo with nothing allowed to fail.
        let impossible = ScreeningSpec {
            top_k: None,
            stress_threshold: Some(1e30),
        };
        let (_, outcome) = run_to_outcome(make(Some(impossible)), &store, 0);
        let JobOutcome::Failed(message) = outcome else {
            panic!("expected failure, got {outcome:?}")
        };
        assert!(
            message.contains("screening selected no via arrays"),
            "{message}"
        );
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn bad_netlists_fail_with_structured_messages() {
        let store = temp_store("badnet");
        let spec = JobSpec::from(JobBody::Analyze {
            mc: McParams {
                array: "4x4".into(),
                pattern: "plus".into(),
                criterion: "rinf".into(),
                trials: 10,
                seed: 1,
                threads: 1,
                target_ci: None,
                current_density: None,
                variation: None,
            },
            deck: DeckSource::Netlist("R1 a b\n".into()),
            grid_trials: 5,
            repair_vias: None,
            screening: None,
            solver: SolverSpec::default(),
        });
        let (_, outcome) = run_to_outcome(spec, &store, 0);
        let JobOutcome::Failed(message) = outcome else {
            panic!("expected failure, got {outcome:?}")
        };
        assert!(message.contains("netlist rejected"), "{message}");
        let _ = std::fs::remove_dir_all(store.root());
    }
}
