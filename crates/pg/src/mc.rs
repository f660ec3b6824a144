//! Level-2 Monte Carlo: Algorithm 1 with **via arrays** as the components
//! of a **power grid** system.
//!
//! Each trial samples a TTF for every via array from its precharacterized
//! lognormal (rescaled to the array's local current), then plays failures
//! forward. A failed array's conductance is removed from the grid — a
//! rank-1 update applied through the Sherman–Morrison–Woodbury incremental
//! solver — the IR drop is re-evaluated, and surviving arrays' remaining
//! lives rescale with their new currents. The trial ends when the system
//! criterion (weakest link or an IR-drop threshold) is breached; the system
//! TTF is the failure time of the last component that caused the breach.

use emgrid_em::nucleation::rescale_remaining_life;
use emgrid_runtime::{
    run_trials_session, CancelToken, RunReport, RuntimeConfig, SessionState, TrialSession,
};
use emgrid_sparse::{FactorOptions, IncrementalSolver, LdlFactor, TripletMatrix};
use emgrid_stats::Ecdf;
use emgrid_stats::Rng;
use emgrid_via::variation::{
    random_walk_field, CHANNEL_FIELD, CHANNEL_GEOMETRY, CHANNEL_VOID, MIN_RELATIVE_WIDTH,
};
use emgrid_via::ViaArrayReliability;

use crate::checkpoint::GridCheckpoint;
use crate::irdrop::IrDropReport;
use crate::model::{PgError, PowerGrid};

/// System TTF plus the ordered indices of the sites that failed, for one trial.
type TrialOutcome = (f64, Vec<usize>);

/// When the power grid itself is declared failed (paper §5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SystemCriterion {
    /// Failed at the first via-array failure.
    WeakestLink,
    /// Failed when the worst IR drop reaches this fraction of Vdd
    /// (the paper uses 0.10).
    IrDropFraction(f64),
}

/// How the grid is re-solved after each failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolverStrategy {
    /// Sherman–Morrison–Woodbury incremental updates against the base
    /// factorization, folding updates into a fresh factorization every
    /// `rebase_interval` failures.
    Incremental {
        /// Rank at which accumulated updates are folded and refactored.
        rebase_interval: usize,
    },
    /// Full sparse refactorization after every failure (the baseline the
    /// `smw_ablation` bench compares against).
    Refactor,
}

impl Default for SolverStrategy {
    fn default() -> Self {
        SolverStrategy::Incremental {
            rebase_interval: 64,
        }
    }
}

/// How via-array characterizations are assigned to grid sites.
///
/// The paper uses one configuration for every array but notes "in practice,
/// a combination of the via array configuration can be used"; the
/// two-tier assignment implements that extension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SiteAssignment {
    /// The same characterization at every site (the paper's setup).
    Uniform(ViaArrayReliability),
    /// Two-tier: a site whose nominal current density (through the `low`
    /// configuration's conducting area) reaches `threshold` A/m² receives
    /// the `high` (beefier) array instead.
    ByCurrentDensity {
        /// Current density (A/m²) at which a site is upgraded.
        threshold: f64,
        /// Default configuration.
        low: ViaArrayReliability,
        /// Upgraded configuration for hot sites.
        high: ViaArrayReliability,
    },
}

/// Site-level on-die variation for the grid Monte Carlo.
///
/// Sampled once per trial as spatially correlated random-walk fields over
/// the via-site index (nearby sites share their walk prefix — the
/// 1712.05562 on-die variation shape), from sub-streams independent of the
/// lifetime draws. The grid level works with fitted lifetime
/// distributions, so the temperature field enters as a ln-TTF sigma
/// (first order: `E_a/(k_B·T²)·σ_T`, see
/// [`emgrid_via::Variation::grid_ttf_ln_sigma`]) rather than through the
/// Arrhenius law directly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GridVariation {
    /// Per-site ln-TTF standard deviation contributed by the correlated
    /// temperature field; `0` disables it.
    pub ttf_ln_sigma: f64,
    /// Relative standard deviation of the correlated per-site linewidth
    /// multiplier (a narrower site sees a higher current density); `0`
    /// disables it.
    pub linewidth_sigma: f64,
}

/// One trial's sampled per-site fields.
struct SiteFields {
    /// Multiplier on each site's drawn lifetime (hotter → below one).
    life_scale: Vec<f64>,
    /// Multiplier on each site's current density (narrower → above one).
    inv_width: Vec<f64>,
}

impl SiteFields {
    fn sample(
        var: &GridVariation,
        sites: usize,
        field_rng: &mut (impl Rng + ?Sized),
        geom_rng: &mut (impl Rng + ?Sized),
    ) -> SiteFields {
        let life_scale = if var.ttf_ln_sigma > 0.0 {
            random_walk_field(sites, field_rng)
                .iter()
                .map(|&f| (-var.ttf_ln_sigma * f).exp())
                .collect()
        } else {
            vec![1.0; sites]
        };
        let inv_width = if var.linewidth_sigma > 0.0 {
            random_walk_field(sites, geom_rng)
                .iter()
                .map(|&f| 1.0 / (1.0 + var.linewidth_sigma * f).max(MIN_RELATIVE_WIDTH))
                .collect()
        } else {
            vec![1.0; sites]
        };
        SiteFields {
            life_scale,
            inv_width,
        }
    }
}

/// Per-run state shared read-only by every trial (see
/// [`PowerGridMc::prepare`]).
struct RunSetup {
    /// Base solver of the failure-free grid, its base solution cached.
    solver: IncrementalSolver,
    /// Failure-free right-hand side.
    rhs: Vec<f64>,
    /// Characterization per via site.
    site_rels: Vec<ViaArrayReliability>,
    /// Nominal current density per via site, floored.
    nominal_j: Vec<f64>,
}

/// Checkpoint/resume/cancellation controls for one
/// [`PowerGridMc::run_session`] call; the default is a plain fresh run.
#[derive(Default)]
pub struct GridSession<'a> {
    /// Checkpoint to resume from (`None` = start at trial zero).
    pub resume: Option<GridCheckpoint>,
    /// Cooperative cancellation token, polled between trials.
    pub cancel: Option<&'a CancelToken>,
    /// Trials between checkpoint callbacks; 0 disables periodic
    /// checkpointing (a final checkpoint still fires on cancellation).
    pub checkpoint_every: usize,
    /// Receives a snapshot of the committed state at each checkpoint.
    #[allow(clippy::type_complexity)]
    pub on_checkpoint: Option<&'a mut (dyn FnMut(&GridCheckpoint) + 'a)>,
}

/// The collected system TTFs of a power-grid Monte Carlo run.
#[derive(Debug, Clone)]
pub struct McResult {
    ttf_seconds: Vec<f64>,
    failures_per_trial: Vec<usize>,
    site_failure_counts: Vec<usize>,
    report: RunReport,
}

impl McResult {
    /// System TTF per trial, seconds.
    pub fn ttf_seconds(&self) -> &[f64] {
        &self.ttf_seconds
    }

    /// Execution telemetry: trials run vs requested, threads, early-stop
    /// outcome, wall-clock, and the streamed `ln TTF` statistics.
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// Number of via-array failures each trial took to breach the system
    /// criterion.
    pub fn failures_per_trial(&self) -> &[usize] {
        &self.failures_per_trial
    }

    /// Empirical CDF of the system TTF (the paper's Fig. 10 curves).
    pub fn ecdf(&self) -> Ecdf {
        Ecdf::new(self.ttf_seconds.clone())
    }

    /// The paper's "worst-case TTF": the 0.3 percentile, in years.
    pub fn worst_case_years(&self) -> f64 {
        self.ecdf().worst_case() / emgrid_em::SECONDS_PER_YEAR
    }

    /// Median TTF in years.
    pub fn median_years(&self) -> f64 {
        self.ecdf().median() / emgrid_em::SECONDS_PER_YEAR
    }

    /// Mean number of failures per trial.
    pub fn mean_failures(&self) -> f64 {
        self.failures_per_trial.iter().sum::<usize>() as f64
            / self.failures_per_trial.len().max(1) as f64
    }

    /// How many trials each via site failed in before the system criterion
    /// tripped (indexed like [`PowerGrid::via_sites`]).
    pub fn site_failure_counts(&self) -> &[usize] {
        &self.site_failure_counts
    }

    /// The most frequently failing via sites, most critical first — the
    /// arrays a designer would upgrade (see `SiteAssignment`).
    pub fn critical_sites(&self, top: usize) -> Vec<(usize, usize)> {
        let mut ranked: Vec<(usize, usize)> = self
            .site_failure_counts
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(top);
        ranked
    }
}

/// A configured level-2 Monte Carlo.
#[derive(Debug, Clone)]
pub struct PowerGridMc {
    grid: PowerGrid,
    assignment: SiteAssignment,
    system_criterion: SystemCriterion,
    solver: SolverStrategy,
    /// Sparse factorization configuration for the grid conductance solves
    /// (base factor, SMW rebases, and full refactorizations).
    factor: FactorOptions,
    /// Lower bound on per-array current density, as a fraction of the
    /// characterization reference (guards the 1/j² rescale against
    /// near-zero via currents).
    current_floor_fraction: f64,
    /// Optional via-site subset (indexed like [`PowerGrid::via_sites`]):
    /// `None` simulates every site; otherwise only flagged sites sample
    /// lifetimes and may fail.
    active: Option<Vec<bool>>,
    /// Optional site-level on-die variation: `None` keeps the legacy
    /// single-stream trials bit-identical with pre-variation builds.
    variation: Option<GridVariation>,
}

impl PowerGridMc {
    /// Creates a Monte Carlo using one via-array characterization for every
    /// site (as the paper does: "we select one configuration for a given
    /// power grid and use this configuration for all the via arrays").
    pub fn new(grid: PowerGrid, reliability: ViaArrayReliability) -> Self {
        PowerGridMc {
            grid,
            assignment: SiteAssignment::Uniform(reliability),
            system_criterion: SystemCriterion::IrDropFraction(0.10),
            solver: SolverStrategy::default(),
            factor: FactorOptions::default(),
            current_floor_fraction: 1e-3,
            active: None,
            variation: None,
        }
    }

    /// Restricts the Monte Carlo to a subset of via sites — the
    /// filter-then-simulate contract with the screening prefilter. Only the
    /// listed sites sample lifetimes and become failure candidates; the
    /// rest are treated as immortal (their conductance never changes).
    /// Passing every site index reproduces the unfiltered run bit-exactly.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or any index is out of range.
    pub fn with_active_sites(mut self, indices: &[usize]) -> Self {
        let m = self.grid.via_sites().len();
        assert!(
            !indices.is_empty(),
            "active-site filter needs at least one site"
        );
        let mut active = vec![false; m];
        for &k in indices {
            assert!(k < m, "active site index {k} out of range ({m} sites)");
            active[k] = true;
        }
        self.active = Some(active);
        self
    }

    /// Sets the system failure criterion (default: 10% IR drop).
    pub fn with_system_criterion(mut self, criterion: SystemCriterion) -> Self {
        self.system_criterion = criterion;
        self
    }

    /// Sets the re-solve strategy (default: incremental SMW).
    pub fn with_solver(mut self, solver: SolverStrategy) -> Self {
        self.solver = solver;
        self
    }

    /// Sets the sparse factorization options used for every grid
    /// conductance solve (default: AMD ordering, supernodal numeric). The
    /// choice changes wall time, never the failure statistics' semantics.
    pub fn with_factor_options(mut self, factor: FactorOptions) -> Self {
        self.factor = factor;
        self
    }

    /// Sets a per-site assignment strategy (default: uniform).
    pub fn with_assignment(mut self, assignment: SiteAssignment) -> Self {
        self.assignment = assignment;
        self
    }

    /// Enables site-level on-die variation: trials draw lifetime,
    /// temperature-field, and linewidth-field samples from independent
    /// derived sub-streams (default: nominal model).
    pub fn with_variation(mut self, variation: GridVariation) -> Self {
        self.variation = Some(variation);
        self
    }

    /// The configured variation, if any.
    pub fn variation(&self) -> Option<&GridVariation> {
        self.variation.as_ref()
    }

    /// The grid under analysis.
    pub fn grid(&self) -> &PowerGrid {
        &self.grid
    }

    /// Resolves the assignment to one characterization per via site, using
    /// the nominal (failure-free) via currents.
    pub fn site_reliabilities(&self) -> Vec<ViaArrayReliability> {
        self.assign_sites(&self.grid.via_currents(self.grid.nominal_solution()))
    }

    fn assign_sites(&self, nominal_currents: &[f64]) -> Vec<ViaArrayReliability> {
        nominal_currents
            .iter()
            .map(|i| match self.assignment {
                SiteAssignment::Uniform(rel) => rel,
                SiteAssignment::ByCurrentDensity {
                    threshold,
                    low,
                    high,
                } => {
                    if i / low.config.effective_area_m2() >= threshold {
                        high
                    } else {
                        low
                    }
                }
            })
            .collect()
    }

    /// Builds the state every trial of a run starts from: the base solver
    /// (with the failure-free solution already cached, so no trial's clone
    /// repeats that solve), the site characterizations and the nominal
    /// current densities. Both scheduling paths share it.
    fn prepare(&self) -> Result<RunSetup, PgError> {
        let singular = |e| PgError::Mna(emgrid_spice::mna::MnaError::Singular(e));
        let dc = self.grid.dc();
        let mut solver =
            IncrementalSolver::with_options(dc.matrix(), &self.factor).map_err(singular)?;
        let rhs = dc.rhs().to_vec();
        solver.solve(&rhs).map_err(singular)?;
        let nominal_currents = self.grid.via_currents(self.grid.nominal_solution());
        let site_rels = self.assign_sites(&nominal_currents);
        let nominal_j = nominal_currents
            .iter()
            .zip(&site_rels)
            .map(|(i, rel)| {
                let j_floor = rel.reference_current_density * self.current_floor_fraction;
                (i / rel.config.effective_area_m2()).max(j_floor)
            })
            .collect();
        Ok(RunSetup {
            solver,
            rhs,
            site_rels,
            nominal_j,
        })
    }

    /// Whether `checkpoint` can resume a `trials`-trial run of this Monte
    /// Carlo: at most `trials` outcomes, a stream over exactly those
    /// outcomes, and failures only at active sites in range.
    fn resume_fits(&self, checkpoint: &GridCheckpoint, trials: usize) -> bool {
        let sites = self.grid.via_sites().len();
        let is_active = |k: usize| k < sites && self.active.as_ref().is_none_or(|a| a[k]);
        checkpoint.outcomes.len() <= trials
            && checkpoint.stream.count() == checkpoint.outcomes.len() as u64
            && checkpoint
                .outcomes
                .iter()
                .all(|(_, failed)| failed.iter().all(|&k| is_active(k)))
    }

    /// Runs `trials` trials with a deterministic seed.
    ///
    /// Sequential, fixed-budget shorthand for [`PowerGridMc::run_with`].
    ///
    /// # Errors
    ///
    /// Returns [`PgError`] if the base system cannot be factored.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub fn run(&self, trials: usize, seed: u64) -> Result<McResult, PgError> {
        self.run_with(trials, seed, &RuntimeConfig::sequential())
    }

    /// Runs `trials` trials split across `threads` OS threads.
    ///
    /// Shorthand for [`PowerGridMc::run_with`] without early termination.
    ///
    /// # Errors
    ///
    /// Returns [`PgError`] if the base system cannot be factored.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0` or `threads == 0`.
    pub fn run_threaded(
        &self,
        trials: usize,
        seed: u64,
        threads: usize,
    ) -> Result<McResult, PgError> {
        self.run_with(trials, seed, &RuntimeConfig::threaded(threads))
    }

    /// Runs the grid-level Monte Carlo on the shared work-stealing runtime.
    ///
    /// Each trial draws from its own RNG stream derived from
    /// `(seed, trial)`, and the scheduler commits results in trial order,
    /// so the result is **bit-identical for any thread count** (and to
    /// [`PowerGridMc::run`] with the same seed). With an early-stop policy
    /// the run halts once the confidence interval on the mean system
    /// `ln TTF` is tight enough; [`McResult::report`] records what ran.
    ///
    /// # Errors
    ///
    /// Returns [`PgError`] if the base system cannot be factored, or the
    /// error of the lowest-indexed failing trial.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`, and re-raises a trial panic tagged with its
    /// trial index.
    pub fn run_with(
        &self,
        trials: usize,
        seed: u64,
        runtime: &RuntimeConfig,
    ) -> Result<McResult, PgError> {
        self.run_session(trials, seed, runtime, GridSession::default())
    }

    /// [`PowerGridMc::run_with`] with checkpoint/resume/cancellation
    /// controls — the entry point the analysis daemon drives.
    ///
    /// Because every trial derives its randomness from `(seed, trial)`
    /// alone and checkpoints capture the committed prefix bit-exactly
    /// ([`GridCheckpoint`]), a run resumed from a checkpoint produces the
    /// same [`McResult`] as one that was never interrupted — including the
    /// early-termination point under an early-stop policy. A cancelled run
    /// returns the committed prefix with `report().cancelled` set (after a
    /// final checkpoint callback).
    ///
    /// A resume checkpoint that does not fit the run — more trials than the
    /// budget, a stream count that does not match its outcomes, or a failed
    /// site that is out of range or inactive — is ignored, and the run
    /// starts at trial zero.
    ///
    /// # Errors
    ///
    /// As [`PowerGridMc::run_with`].
    ///
    /// # Panics
    ///
    /// As [`PowerGridMc::run_with`].
    pub fn run_session(
        &self,
        trials: usize,
        seed: u64,
        runtime: &RuntimeConfig,
        session: GridSession<'_>,
    ) -> Result<McResult, PgError> {
        assert!(trials > 0, "need at least one trial");
        let _span = emgrid_runtime::obs::span("grid-mc");
        let setup = self.prepare()?;

        let mut on_checkpoint = session.on_checkpoint;
        let mut adapter = |outputs: &[TrialOutcome], stream: &emgrid_stats::OnlineStats| {
            if let Some(cb) = on_checkpoint.as_mut() {
                cb(&GridCheckpoint {
                    outcomes: outputs.to_vec(),
                    stream: *stream,
                });
            }
        };
        // A checkpoint that does not fit this run is dropped, as the daemon
        // drops an undecodable one: the run starts at trial zero and still
        // lands on the uninterrupted result.
        let resume = session
            .resume
            .filter(|cp| self.resume_fits(cp, trials))
            .map(|cp| SessionState {
                outputs: cp.outcomes,
                stream: cp.stream,
            });
        let trial_session = TrialSession {
            resume,
            cancel: session.cancel,
            checkpoint_every: session.checkpoint_every,
            on_checkpoint: Some(&mut adapter),
        };
        let (outcomes, report) = run_trials_session(
            trials,
            runtime,
            trial_session,
            |t| self.run_one_trial(seed, t, &setup),
            |(ttf, _): &(f64, Vec<usize>)| ttf.max(f64::MIN_POSITIVE).ln(),
        )?;
        Ok(self.collect(outcomes, report))
    }

    /// Static-chunking baseline kept for the scheduling ablation in the
    /// `pg_mc` bench: trials are pre-assigned to threads in contiguous
    /// chunks instead of claimed from the work-stealing counter. It uses
    /// the same per-trial RNG streams as [`PowerGridMc::run_with`], so the
    /// `McResult` is identical — only wall-clock differs (work stealing
    /// wins when trial costs vary, because no thread idles behind the
    /// longest chunk).
    ///
    /// # Errors
    ///
    /// Returns [`PgError`] if the base system cannot be factored or any
    /// trial fails.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0` or `threads == 0`.
    pub fn run_static_chunked(
        &self,
        trials: usize,
        seed: u64,
        threads: usize,
    ) -> Result<McResult, PgError> {
        assert!(trials > 0, "need at least one trial");
        assert!(threads > 0, "need at least one thread");
        let setup = self.prepare()?;

        let run_range = |range: std::ops::Range<usize>| -> Result<Vec<TrialOutcome>, PgError> {
            range.map(|t| self.run_one_trial(seed, t, &setup)).collect()
        };
        let chunk = trials.div_ceil(threads);
        let results: Vec<Result<Vec<TrialOutcome>, PgError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let start = (w * chunk).min(trials);
                    let end = ((w + 1) * chunk).min(trials);
                    let run_range = &run_range;
                    scope.spawn(move || run_range(start..end))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });
        let mut outcomes = Vec::with_capacity(trials);
        for r in results {
            outcomes.extend(r?);
        }
        Ok(self.collect(outcomes, RunReport::unscheduled(trials)))
    }

    /// Folds trial outcomes, in trial order, into an [`McResult`].
    fn collect(&self, outcomes: Vec<TrialOutcome>, report: RunReport) -> McResult {
        let mut ttf_seconds = Vec::with_capacity(outcomes.len());
        let mut failures_per_trial = Vec::with_capacity(outcomes.len());
        let mut site_failure_counts = vec![0usize; self.grid.via_sites().len()];
        for (ttf, failed_sites) in outcomes {
            ttf_seconds.push(ttf);
            failures_per_trial.push(failed_sites.len());
            for k in failed_sites {
                site_failure_counts[k] += 1;
            }
        }
        McResult {
            ttf_seconds,
            failures_per_trial,
            site_failure_counts,
            report,
        }
    }

    /// Dispatches one trial on its `(seed, trial)` randomness: the legacy
    /// single stream for the nominal model, or three derived sub-streams
    /// (lifetimes / temperature field / linewidth field) under variation.
    fn run_one_trial(
        &self,
        seed: u64,
        t: usize,
        setup: &RunSetup,
    ) -> Result<TrialOutcome, PgError> {
        match &self.variation {
            None => {
                let mut rng = emgrid_stats::stream_rng(seed, t as u64);
                self.one_trial(&mut rng, setup, None)
            }
            Some(var) => {
                let s = t as u64;
                let mut void_rng = emgrid_stats::substream_rng(seed, s, CHANNEL_VOID);
                let mut field_rng = emgrid_stats::substream_rng(seed, s, CHANNEL_FIELD);
                let mut geom_rng = emgrid_stats::substream_rng(seed, s, CHANNEL_GEOMETRY);
                let fields = SiteFields::sample(
                    var,
                    self.grid.via_sites().len(),
                    &mut field_rng,
                    &mut geom_rng,
                );
                self.one_trial(&mut void_rng, setup, Some(&fields))
            }
        }
    }

    fn one_trial(
        &self,
        rng: &mut (impl Rng + ?Sized),
        setup: &RunSetup,
        fields: Option<&SiteFields>,
    ) -> Result<TrialOutcome, PgError> {
        let site_rels = &setup.site_rels;
        let sites = self.grid.via_sites();
        let m = sites.len();
        let is_active = |k: usize| self.active.as_ref().is_none_or(|a| a[k]);
        let mut j: Vec<f64> = setup.nominal_j.clone();
        if let Some(f) = fields {
            for (jk, w) in j.iter_mut().zip(&f.inv_width) {
                *jk *= w;
            }
        }
        // Inactive (screened-out) sites draw no lifetime: they are immortal
        // and consume no randomness, so a run over the selected subset is a
        // function of the subset alone.
        let mut remaining: Vec<f64> = (0..m)
            .map(|k| {
                if is_active(k) {
                    let ttf = site_rels[k].sample_ttf(j[k], rng);
                    match fields {
                        Some(f) => ttf * f.life_scale[k],
                        None => ttf,
                    }
                } else {
                    f64::INFINITY
                }
            })
            .collect();

        // Weakest-link system criterion: no electrical updates needed.
        if matches!(self.system_criterion, SystemCriterion::WeakestLink) {
            let (victim, ttf) = remaining
                .iter()
                .copied()
                .enumerate()
                .filter(|&(k, _)| is_active(k))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite lifetimes"))
                .expect("at least one active site");
            return Ok((ttf, vec![victim]));
        }
        let SystemCriterion::IrDropFraction(threshold) = self.system_criterion else {
            unreachable!("weakest-link handled above");
        };

        let mut alive: Vec<bool> = (0..m).map(is_active).collect();
        let mut rhs = setup.rhs.clone();
        let mut solver = setup.solver.clone();
        let mut failed_sites: Vec<usize> = Vec::new();
        let mut t = 0.0;
        let dc = self.grid.dc();
        loop {
            let Some((victim, dt)) = alive
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a)
                .map(|(k, _)| (k, remaining[k]))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite lifetimes"))
            else {
                // Every array failed without breaching the threshold (only
                // possible on grids whose loads keep paths through wires).
                return Ok((t, failed_sites));
            };
            t += dt;
            alive[victim] = false;
            failed_sites.push(victim);
            for k in 0..m {
                if alive[k] {
                    remaining[k] = (remaining[k] - dt).max(0.0);
                }
            }

            // Remove the failed array's conductance and re-solve.
            let site = &sites[victim];
            let g = 1.0 / site.resistance;
            let update_ok = match self.solver {
                SolverStrategy::Incremental { rebase_interval } => {
                    let ok = match (dc.unknown_index(site.lower), dc.unknown_index(site.upper)) {
                        (Some(i), Some(jx)) => solver.update_edge(i, jx, -g).is_ok(),
                        (Some(i), None) => {
                            let pin = dc
                                .pinned_voltage(site.upper)
                                .expect("non-unknown node is pinned");
                            rhs[i] -= g * pin;
                            solver.update_ground(i, -g).is_ok()
                        }
                        (None, Some(jx)) => {
                            let pin = dc
                                .pinned_voltage(site.lower)
                                .expect("non-unknown node is pinned");
                            rhs[jx] -= g * pin;
                            solver.update_ground(jx, -g).is_ok()
                        }
                        (None, None) => true,
                    };
                    if ok && solver.rank() >= rebase_interval {
                        solver.rebase().is_ok()
                    } else {
                        ok
                    }
                }
                SolverStrategy::Refactor => {
                    // Refactor path updates rhs for pinned endpoints too.
                    match (dc.unknown_index(site.lower), dc.unknown_index(site.upper)) {
                        (Some(i), None) => {
                            let pin = dc.pinned_voltage(site.upper).expect("pinned");
                            rhs[i] -= g * pin;
                        }
                        (None, Some(jx)) => {
                            let pin = dc.pinned_voltage(site.lower).expect("pinned");
                            rhs[jx] -= g * pin;
                        }
                        _ => {}
                    }
                    true
                }
            };
            if !update_ok {
                // The failure disconnected part of the grid from every pad:
                // the supply to those loads is gone — system failure.
                return Ok((t, failed_sites));
            }

            let x = match self.solver {
                SolverStrategy::Incremental { .. } => match solver.solve(&rhs) {
                    Ok(x) => x,
                    Err(_) => return Ok((t, failed_sites)),
                },
                SolverStrategy::Refactor => match self.refactor_solve(&failed_sites, &rhs) {
                    Ok(x) => x,
                    Err(_) => return Ok((t, failed_sites)),
                },
            };
            let solution = dc.solution_from_unknowns(&x);
            let report = IrDropReport::evaluate(&self.grid, &solution);
            if report.violates(threshold) {
                return Ok((t, failed_sites));
            }

            // Rescale survivors to their new currents (TTF ∝ 1/j²).
            let currents = self.grid.via_currents(&solution);
            for k in 0..m {
                if alive[k] {
                    let rel = &site_rels[k];
                    let j_floor = rel.reference_current_density * self.current_floor_fraction;
                    let mut j_new = (currents[k] / rel.config.effective_area_m2()).max(j_floor);
                    if let Some(f) = fields {
                        j_new *= f.inv_width[k];
                    }
                    remaining[k] = rescale_remaining_life(remaining[k], j[k], j_new);
                    j[k] = j_new;
                }
            }
        }
    }

    /// Full refactorization solve with the given failed sites removed.
    fn refactor_solve(
        &self,
        failed_sites: &[usize],
        rhs: &[f64],
    ) -> Result<Vec<f64>, emgrid_sparse::SparseError> {
        let dc = self.grid.dc();
        let base = dc.matrix();
        let n = base.rows();
        let mut t = TripletMatrix::with_capacity(n, n, base.nnz() + failed_sites.len() * 4);
        for r in 0..n {
            for (c, v) in base.row(r) {
                t.push(r, c, v);
            }
        }
        for &k in failed_sites {
            let site = &self.grid.via_sites()[k];
            let g = 1.0 / site.resistance;
            match (dc.unknown_index(site.lower), dc.unknown_index(site.upper)) {
                (Some(i), Some(j)) => {
                    t.push(i, i, -g);
                    t.push(j, j, -g);
                    t.push(i, j, g);
                    t.push(j, i, g);
                }
                (Some(i), None) | (None, Some(i)) => {
                    t.push(i, i, -g);
                }
                (None, None) => {}
            }
        }
        Ok(LdlFactor::factor_with(&t.to_csr(), &self.factor)?.solve(rhs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emgrid_em::Technology;
    use emgrid_fea::geometry::IntersectionPattern;
    use emgrid_spice::benchgen::GridSpec;
    use emgrid_via::{FailureCriterion, ViaArrayConfig, ViaArrayMc};

    fn reliability(criterion: FailureCriterion) -> ViaArrayReliability {
        ViaArrayMc::from_reference_table(
            &ViaArrayConfig::paper_4x4(IntersectionPattern::Plus),
            Technology::default(),
            1e10,
        )
        .characterize(300, 99)
        .reliability(criterion)
        .unwrap()
    }

    fn small_grid() -> PowerGrid {
        PowerGrid::from_netlist(GridSpec::custom("t", 10, 10).generate()).unwrap()
    }

    #[test]
    fn ir_drop_criterion_outlives_weakest_link() {
        // The central claim of Fig. 10: performance-based system criteria
        // give longer lifetimes than the weakest link.
        let rel = reliability(FailureCriterion::OpenCircuit);
        let weakest = PowerGridMc::new(small_grid(), rel)
            .with_system_criterion(SystemCriterion::WeakestLink)
            .run(40, 5)
            .unwrap();
        let ir = PowerGridMc::new(small_grid(), rel)
            .with_system_criterion(SystemCriterion::IrDropFraction(0.10))
            .run(40, 5)
            .unwrap();
        assert!(ir.median_years() > weakest.median_years());
        assert!(ir.mean_failures() > 1.0);
        assert!((weakest.mean_failures() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stricter_array_criterion_shortens_system_life() {
        // Via-array weakest-link vs open-circuit at the system IR criterion.
        let weak_rel = reliability(FailureCriterion::WeakestLink);
        let open_rel = reliability(FailureCriterion::OpenCircuit);
        let weak = PowerGridMc::new(small_grid(), weak_rel).run(40, 7).unwrap();
        let open = PowerGridMc::new(small_grid(), open_rel).run(40, 7).unwrap();
        assert!(open.median_years() > weak.median_years());
    }

    #[test]
    fn smw_and_refactor_agree() {
        let rel = reliability(FailureCriterion::OpenCircuit);
        let smw = PowerGridMc::new(small_grid(), rel)
            .with_solver(SolverStrategy::Incremental { rebase_interval: 8 })
            .run(15, 11)
            .unwrap();
        let refactor = PowerGridMc::new(small_grid(), rel)
            .with_solver(SolverStrategy::Refactor)
            .run(15, 11)
            .unwrap();
        for (a, b) in smw.ttf_seconds().iter().zip(refactor.ttf_seconds()) {
            assert!(
                (a - b).abs() / a < 1e-6,
                "smw {a} vs refactor {b} (same seed must agree)"
            );
        }
    }

    #[test]
    fn critical_sites_concentrate_near_the_hotspot() {
        // The hotspot loads the central vias hardest; they should dominate
        // the failure histogram.
        let rel = reliability(FailureCriterion::OpenCircuit);
        let grid = small_grid();
        let n_sites = grid.via_sites().len();
        let r = PowerGridMc::new(grid, rel).run(30, 19).unwrap();
        assert_eq!(r.site_failure_counts().len(), n_sites);
        let total: usize = r.site_failure_counts().iter().sum();
        let trial_failures: usize = r.failures_per_trial().iter().sum();
        assert_eq!(total, trial_failures);
        let critical = r.critical_sites(5);
        assert_eq!(critical.len(), 5);
        // Ranked non-increasing.
        for w in critical.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // The most critical site fails in most trials.
        assert!(critical[0].1 >= 20, "top site count {}", critical[0].1);
    }

    #[test]
    fn weakest_link_records_the_single_victim() {
        let rel = reliability(FailureCriterion::OpenCircuit);
        let r = PowerGridMc::new(small_grid(), rel)
            .with_system_criterion(SystemCriterion::WeakestLink)
            .run(25, 23)
            .unwrap();
        let total: usize = r.site_failure_counts().iter().sum();
        assert_eq!(total, 25);
    }

    #[test]
    fn threaded_run_matches_sequential() {
        let rel = reliability(FailureCriterion::OpenCircuit);
        let seq = PowerGridMc::new(small_grid(), rel).run(16, 41).unwrap();
        let par = PowerGridMc::new(small_grid(), rel)
            .run_threaded(16, 41, 4)
            .unwrap();
        assert_eq!(seq.ttf_seconds(), par.ttf_seconds());
        assert_eq!(seq.site_failure_counts(), par.site_failure_counts());
    }

    #[test]
    fn static_chunking_matches_work_stealing() {
        // The scheduling ablation baseline must produce the same result —
        // only wall-clock may differ.
        let rel = reliability(FailureCriterion::OpenCircuit);
        let ws = PowerGridMc::new(small_grid(), rel)
            .run_threaded(16, 41, 4)
            .unwrap();
        let chunked = PowerGridMc::new(small_grid(), rel)
            .run_static_chunked(16, 41, 4)
            .unwrap();
        assert_eq!(ws.ttf_seconds(), chunked.ttf_seconds());
        assert_eq!(ws.site_failure_counts(), chunked.site_failure_counts());
    }

    #[test]
    fn early_stop_agrees_with_full_budget_within_ci() {
        // An early-terminated run's fitted mean ln TTF must land inside the
        // advertised confidence interval of the full-budget run.
        let rel = reliability(FailureCriterion::OpenCircuit);
        let full = PowerGridMc::new(small_grid(), rel).run(120, 77).unwrap();
        let es = emgrid_runtime::EarlyStop {
            target_half_width: 0.2,
            confidence: 0.95,
            min_trials: 16,
            batch: 16,
        };
        let stopped = PowerGridMc::new(small_grid(), rel)
            .run_with(120, 77, &RuntimeConfig::sequential().with_early_stop(es))
            .unwrap();
        assert!(stopped.report().stopped_early);
        assert!(stopped.ttf_seconds().len() < full.ttf_seconds().len());
        // Early-stopped trials are a prefix of the full run.
        assert_eq!(
            stopped.ttf_seconds(),
            &full.ttf_seconds()[..stopped.ttf_seconds().len()]
        );
        let diff = (stopped.report().stream.mean() - full.report().stream.mean()).abs();
        let hw = stopped.report().achieved_half_width(0.95);
        assert!(diff <= hw, "mean moved {diff} > advertised half-width {hw}");
    }

    #[test]
    fn results_are_reproducible() {
        let rel = reliability(FailureCriterion::OpenCircuit);
        let a = PowerGridMc::new(small_grid(), rel).run(10, 3).unwrap();
        let b = PowerGridMc::new(small_grid(), rel).run(10, 3).unwrap();
        assert_eq!(a.ttf_seconds(), b.ttf_seconds());
    }

    #[test]
    fn mixed_assignment_interpolates_between_uniform_configs() {
        // Hot sites upgraded to 8x8 should land the system TTF between
        // uniform-4x4 and uniform-8x8 (the paper's "combination" remark).
        let rel4 = reliability(FailureCriterion::OpenCircuit);
        let rel8 = ViaArrayMc::from_reference_table(
            &ViaArrayConfig::paper_8x8(IntersectionPattern::Plus),
            Technology::default(),
            1e10,
        )
        .characterize(300, 99)
        .reliability(FailureCriterion::OpenCircuit)
        .unwrap();
        let run = |assignment: SiteAssignment| {
            PowerGridMc::new(small_grid(), rel4)
                .with_assignment(assignment)
                .run(25, 31)
                .unwrap()
                .median_years()
        };
        let uniform4 = run(SiteAssignment::Uniform(rel4));
        let uniform8 = run(SiteAssignment::Uniform(rel8));
        let mixed = run(SiteAssignment::ByCurrentDensity {
            threshold: 5e9,
            low: rel4,
            high: rel8,
        });
        assert!(uniform8 > uniform4);
        assert!(
            mixed > uniform4 && mixed <= uniform8 * 1.05,
            "mixed {mixed} vs uniform4 {uniform4} / uniform8 {uniform8}"
        );
    }

    #[test]
    fn site_reliabilities_follow_the_threshold() {
        let rel4 = reliability(FailureCriterion::OpenCircuit);
        let rel8 = ViaArrayMc::from_reference_table(
            &ViaArrayConfig::paper_8x8(IntersectionPattern::Plus),
            Technology::default(),
            1e10,
        )
        .characterize(100, 98)
        .reliability(FailureCriterion::OpenCircuit)
        .unwrap();
        let mc = PowerGridMc::new(small_grid(), rel4).with_assignment(
            SiteAssignment::ByCurrentDensity {
                threshold: 5e9,
                low: rel4,
                high: rel8,
            },
        );
        let rels = mc.site_reliabilities();
        let grid = small_grid();
        let currents = grid.via_currents(grid.nominal_solution());
        let upgraded = rels.iter().filter(|r| r.config.count() == 64).count();
        let expected = currents.iter().filter(|&&i| i / 1e-12 >= 5e9).count();
        assert_eq!(upgraded, expected);
        assert!(upgraded > 0 && upgraded < rels.len());
    }

    #[test]
    fn session_resume_matches_uninterrupted_run() {
        let rel = reliability(FailureCriterion::OpenCircuit);
        let mc = PowerGridMc::new(small_grid(), rel);
        let whole = mc.run(24, 55).unwrap();

        let mut snapshot: Option<GridCheckpoint> = None;
        let mut on_checkpoint = |cp: &GridCheckpoint| {
            if snapshot.is_none() {
                snapshot = Some(cp.clone());
            }
        };
        mc.run_session(
            24,
            55,
            &RuntimeConfig::sequential(),
            GridSession {
                checkpoint_every: 8,
                on_checkpoint: Some(&mut on_checkpoint),
                ..GridSession::default()
            },
        )
        .unwrap();
        let cp = snapshot.expect("checkpoint fired");
        assert_eq!(cp.outcomes.len(), 8);

        // Round-trip through the text format, exactly as the daemon does,
        // then resume on a different thread count.
        let cp = GridCheckpoint::decode(&cp.encode()).unwrap();
        let resumed = mc
            .run_session(
                24,
                55,
                &RuntimeConfig::threaded(2),
                GridSession {
                    resume: Some(cp),
                    ..GridSession::default()
                },
            )
            .unwrap();
        assert_eq!(resumed.ttf_seconds(), whole.ttf_seconds());
        assert_eq!(resumed.site_failure_counts(), whole.site_failure_counts());
        assert_eq!(resumed.report().resumed_from, 8);
        assert_eq!(resumed.report().stream, whole.report().stream);
    }

    #[test]
    fn session_cancel_checkpoints_and_resumes_to_the_same_result() {
        let rel = reliability(FailureCriterion::OpenCircuit);
        let mc = PowerGridMc::new(small_grid(), rel);
        let whole = mc.run(24, 57).unwrap();

        // Trip the token from the first checkpoint callback: the run stops
        // at the next cancellation check with the prefix committed.
        let token = CancelToken::new();
        let mut last: Option<GridCheckpoint> = None;
        let mut on_checkpoint = |cp: &GridCheckpoint| {
            last = Some(cp.clone());
            token.cancel();
        };
        let cancelled = mc
            .run_session(
                24,
                57,
                &RuntimeConfig::sequential(),
                GridSession {
                    cancel: Some(&token),
                    checkpoint_every: 8,
                    on_checkpoint: Some(&mut on_checkpoint),
                    ..GridSession::default()
                },
            )
            .unwrap();
        assert!(cancelled.report().cancelled);
        assert!(cancelled.ttf_seconds().len() < 24);

        let cp = GridCheckpoint::decode(&last.expect("checkpoint fired").encode()).unwrap();
        let resumed = mc
            .run_session(
                24,
                57,
                &RuntimeConfig::sequential(),
                GridSession {
                    resume: Some(cp),
                    ..GridSession::default()
                },
            )
            .unwrap();
        assert!(!resumed.report().cancelled);
        assert_eq!(resumed.ttf_seconds(), whole.ttf_seconds());
        assert_eq!(resumed.site_failure_counts(), whole.site_failure_counts());
    }

    #[test]
    fn misfit_resume_checkpoints_restart_from_trial_zero() {
        let rel = reliability(FailureCriterion::OpenCircuit);
        let mc = PowerGridMc::new(small_grid(), rel);
        let sites = mc.grid().via_sites().len();
        let mut snapshot: Option<GridCheckpoint> = None;
        let mut on_checkpoint = |cp: &GridCheckpoint| {
            snapshot.get_or_insert_with(|| cp.clone());
        };
        mc.run_session(
            24,
            55,
            &RuntimeConfig::sequential(),
            GridSession {
                checkpoint_every: 8,
                on_checkpoint: Some(&mut on_checkpoint),
                ..GridSession::default()
            },
        )
        .unwrap();
        let good = snapshot.expect("checkpoint fired");

        let resume = |mc: &PowerGridMc, trials: usize, cp: &GridCheckpoint| {
            mc.run_session(
                trials,
                55,
                &RuntimeConfig::sequential(),
                GridSession {
                    resume: Some(cp.clone()),
                    ..GridSession::default()
                },
            )
            .unwrap()
        };
        let same = |a: &McResult, b: &McResult, label: &str| {
            assert_eq!(a.ttf_seconds(), b.ttf_seconds(), "{label}");
            assert_eq!(a.site_failure_counts(), b.site_failure_counts(), "{label}");
            assert_eq!(a.report().resumed_from, 0, "{label}");
        };

        let whole = mc.run(24, 55).unwrap();
        let mut out_of_range = good.clone();
        out_of_range.outcomes[3].1.push(sites + 7);
        // The text format carries no grid, so such a checkpoint decodes.
        let out_of_range = GridCheckpoint::decode(&out_of_range.encode()).unwrap();
        same(&resume(&mc, 24, &out_of_range), &whole, "site out of range");
        let mut wrong_stream = good.clone();
        wrong_stream.stream.push(0.0);
        same(&resume(&mc, 24, &wrong_stream), &whole, "stream count");
        same(
            &resume(&mc, 4, &good),
            &mc.run(4, 55).unwrap(),
            "over budget",
        );
        let subset = [3usize, 17, 40, 41, 55];
        let filtered = mc.clone().with_active_sites(&subset);
        assert!(good
            .outcomes
            .iter()
            .flat_map(|(_, f)| f)
            .any(|k| !subset.contains(k)));
        same(
            &resume(&filtered, 24, &good),
            &filtered.run(24, 55).unwrap(),
            "inactive site",
        );
        // A fitting checkpoint still resumes.
        assert_eq!(resume(&mc, 24, &good).report().resumed_from, 8);
    }

    #[test]
    fn full_site_filter_matches_the_unfiltered_run() {
        let rel = reliability(FailureCriterion::OpenCircuit);
        let grid = small_grid();
        let every: Vec<usize> = (0..grid.via_sites().len()).collect();
        let unfiltered = PowerGridMc::new(small_grid(), rel).run(12, 61).unwrap();
        let filtered = PowerGridMc::new(grid, rel)
            .with_active_sites(&every)
            .run(12, 61)
            .unwrap();
        assert_eq!(unfiltered.ttf_seconds(), filtered.ttf_seconds());
        assert_eq!(
            unfiltered.site_failure_counts(),
            filtered.site_failure_counts()
        );
    }

    #[test]
    fn site_filter_confines_failures_to_the_subset() {
        let rel = reliability(FailureCriterion::OpenCircuit);
        let subset = [3usize, 17, 40, 41, 55];
        let r = PowerGridMc::new(small_grid(), rel)
            .with_active_sites(&subset)
            .run(20, 63)
            .unwrap();
        for (k, &count) in r.site_failure_counts().iter().enumerate() {
            assert!(
                count == 0 || subset.contains(&k),
                "screened-out site {k} failed {count} times"
            );
        }
        assert!(r.ttf_seconds().iter().all(|&t| t.is_finite() && t > 0.0));
        // With only five candidate arrays the system can't take more
        // failures than that to breach (or exhaust the subset).
        assert!(r.failures_per_trial().iter().all(|&f| f <= subset.len()));
    }

    #[test]
    fn site_filter_applies_to_weakest_link_too() {
        let rel = reliability(FailureCriterion::OpenCircuit);
        let subset = [10usize, 30];
        let r = PowerGridMc::new(small_grid(), rel)
            .with_active_sites(&subset)
            .with_system_criterion(SystemCriterion::WeakestLink)
            .run(15, 67)
            .unwrap();
        for (k, &count) in r.site_failure_counts().iter().enumerate() {
            assert!(
                count == 0 || subset.contains(&k),
                "victim {k} not in subset"
            );
        }
        let total: usize = r.site_failure_counts().iter().sum();
        assert_eq!(total, 15);
    }

    #[test]
    fn grid_variation_is_thread_count_invariant() {
        let rel = reliability(FailureCriterion::OpenCircuit);
        let var = GridVariation {
            ttf_ln_sigma: 0.3,
            linewidth_sigma: 0.05,
        };
        let seq = PowerGridMc::new(small_grid(), rel)
            .with_variation(var)
            .run(16, 71)
            .unwrap();
        let par = PowerGridMc::new(small_grid(), rel)
            .with_variation(var)
            .run_threaded(16, 71, 4)
            .unwrap();
        assert_eq!(seq.ttf_seconds(), par.ttf_seconds());
        assert_eq!(seq.site_failure_counts(), par.site_failure_counts());
        let chunked = PowerGridMc::new(small_grid(), rel)
            .with_variation(var)
            .run_static_chunked(16, 71, 4)
            .unwrap();
        assert_eq!(seq.ttf_seconds(), chunked.ttf_seconds());
    }

    #[test]
    fn grid_variation_widens_the_ttf_spread() {
        let rel = reliability(FailureCriterion::OpenCircuit);
        let ln_var = |r: &McResult| {
            let ln: Vec<f64> = r.ttf_seconds().iter().map(|t| t.ln()).collect();
            let mean = ln.iter().sum::<f64>() / ln.len() as f64;
            ln.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (ln.len() - 1) as f64
        };
        let nominal = PowerGridMc::new(small_grid(), rel)
            .with_variation(GridVariation::default())
            .run(60, 73)
            .unwrap();
        let varied = PowerGridMc::new(small_grid(), rel)
            .with_variation(GridVariation {
                ttf_ln_sigma: 0.5,
                linewidth_sigma: 0.1,
            })
            .run(60, 73)
            .unwrap();
        assert!(
            ln_var(&varied) > ln_var(&nominal),
            "varied {} vs nominal {}",
            ln_var(&varied),
            ln_var(&nominal)
        );
    }

    #[test]
    fn inactive_variation_draws_match_across_field_settings() {
        // The lifetime draws come from their own sub-stream: turning the
        // fields off reproduces the all-zero variation run exactly, even
        // though both differ from the legacy single-stream run.
        let rel = reliability(FailureCriterion::OpenCircuit);
        let a = PowerGridMc::new(small_grid(), rel)
            .with_variation(GridVariation::default())
            .run(12, 79)
            .unwrap();
        let b = PowerGridMc::new(small_grid(), rel)
            .with_variation(GridVariation::default())
            .run(12, 79)
            .unwrap();
        assert_eq!(a.ttf_seconds(), b.ttf_seconds());
    }

    #[test]
    fn ttfs_are_positive_and_failures_counted() {
        let rel = reliability(FailureCriterion::OpenCircuit);
        let r = PowerGridMc::new(small_grid(), rel).run(20, 13).unwrap();
        assert_eq!(r.ttf_seconds().len(), 20);
        assert!(r.ttf_seconds().iter().all(|&t| t > 0.0));
        assert!(r
            .failures_per_trial()
            .iter()
            .all(|&f| f >= 1 && f <= small_grid().via_sites().len()));
        assert!(r.worst_case_years() <= r.median_years());
    }
}
