//! Level-1 Monte Carlo: Algorithm 1 with **vias** as the components of a
//! **via-array** system.
//!
//! Each trial samples a critical stress per via (Eq. 4), computes nucleation
//! lifetimes under the initial current split, then plays failures forward:
//! the earliest via dies, current redistributes over the survivors, and
//! their *remaining* life rescales by `(j_old/j_new)²` (the paper's
//! "recalculate new current flow, TTF for components" step). The trial
//! records the absolute time of every via failure, from which any failure
//! criterion can be evaluated after the fact.
//!
//! One trial body serves the nominal model and on-die variation
//! ([`crate::variation`]). A varied trial first samples its fields (per-via
//! life scales from the temperature field, inverse widths from the
//! linewidth field, and the static edge weights), and the body rescales
//! each via's current and life by them; a nominal trial reads no fields.
//! [`ViaArrayMc::variance_decomposition`] replays a finished varied run
//! with the fields frozen to split its `ln TTF` variance.

use std::str::SplitWhitespace;

use emgrid_em::{nucleation, Technology};
use emgrid_runtime::persist::{decode_f64, push_f64};
use emgrid_runtime::{
    CancelToken, Checkpoint, CheckpointError, RuntimeConfig, TrialRecord, TrialSession,
};
use emgrid_stats::Rng;

use crate::array::{FailureCriterion, ViaArrayConfig};
use crate::characterization::CharacterizationResult;
use crate::electrical::{CurrentModel, ViaCurrents};
use crate::stress_table::{LayerPair, StressTable};
use crate::variation::{self, VarianceDecomposition, Variation};

/// One Monte Carlo trial: the absolute failure time (seconds) of the k-th
/// via to die, for k = 1..=n (non-decreasing).
#[derive(Debug, Clone, PartialEq)]
pub struct ViaArraySample {
    /// `failure_times[k]` is the time of the (k+1)-th via failure.
    pub failure_times: Vec<f64>,
}

impl ViaArraySample {
    /// Time at which `n_f` vias have failed.
    ///
    /// # Panics
    ///
    /// Panics if `n_f` is zero or exceeds the via count.
    pub fn time_of_failure(&self, n_f: usize) -> f64 {
        assert!(
            n_f >= 1 && n_f <= self.failure_times.len(),
            "n_f {n_f} out of range"
        );
        self.failure_times[n_f - 1]
    }
}

/// Checkpoint line `sample <failure time> <failure time> ...`, under the
/// format line `emgrid-via-checkpoint-v1`.
impl TrialRecord for ViaArraySample {
    const FORMAT: &'static str = "emgrid-via-checkpoint-v1";
    const TAG: &'static str = "sample";

    fn encode_fields(&self, out: &mut String) {
        for &t in &self.failure_times {
            out.push(' ');
            push_f64(out, t);
        }
    }

    fn decode_fields(fields: SplitWhitespace<'_>) -> Result<Self, CheckpointError> {
        let failure_times = fields
            .map(|s| decode_f64(Some(s)))
            .collect::<Result<Vec<f64>, _>>()?;
        if failure_times.is_empty() {
            return Err(CheckpointError("sample line without times".into()));
        }
        Ok(ViaArraySample { failure_times })
    }
}

/// Committed state of a characterization run.
pub type ViaCheckpoint = Checkpoint<ViaArraySample>;

/// Checkpoint/resume/cancellation controls for one
/// [`ViaArrayMc::characterize_session`] call; the default is a plain fresh
/// run.
pub type ViaSession<'a> = TrialSession<'a, ViaArraySample>;

/// A configured level-1 Monte Carlo simulator for one via array.
#[derive(Debug, Clone)]
pub struct ViaArrayMc {
    config: ViaArrayConfig,
    tech: Technology,
    /// Per-via thermomechanical stress `σ_T`, Pa, row-major.
    sigma_t: Vec<f64>,
    /// Total current density across the effective area, A/m².
    current_density: f64,
    current_model: CurrentModel,
    variation: Option<Variation>,
}

/// One trial's sampled on-die variation, row-major per via.
struct TrialFields {
    /// Multiplier on each via's life (hotter → below one).
    life_scale: Vec<f64>,
    /// Multiplier on each via's current density (narrower → above one).
    inv_width: Vec<f64>,
    /// Static current weights, when edge loading is on.
    edge_weights: Option<Vec<f64>>,
}

impl TrialFields {
    /// Samples the temperature field from `field_rng` and the linewidth
    /// field from `geom_rng`; a source whose sigma is zero draws nothing.
    fn sample<R: Rng + ?Sized>(
        var: &Variation,
        tech: &Technology,
        rows: usize,
        cols: usize,
        field_rng: &mut R,
        geom_rng: &mut R,
    ) -> TrialFields {
        let life_scale = if var.temperature_sigma_c > 0.0 {
            variation::correlated_field_2d(rows, cols, field_rng)
                .iter()
                .map(|&f| Variation::temperature_life_scale(tech, var.temperature_sigma_c * f))
                .collect()
        } else {
            vec![1.0; rows * cols]
        };
        let inv_width = if var.linewidth_sigma > 0.0 {
            variation::correlated_field_2d(rows, cols, geom_rng)
                .iter()
                .map(|&f| 1.0 / (1.0 + var.linewidth_sigma * f).max(variation::MIN_RELATIVE_WIDTH))
                .collect()
        } else {
            vec![1.0; rows * cols]
        };
        TrialFields {
            life_scale,
            inv_width,
            edge_weights: (var.edge_current_factor > 0.0).then(|| var.edge_weights(rows, cols)),
        }
    }
}

impl ViaArrayMc {
    /// Creates a simulator with explicit per-via stresses.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_t.len()` differs from the via count or
    /// `current_density <= 0`.
    pub fn new(
        config: ViaArrayConfig,
        tech: Technology,
        sigma_t: Vec<f64>,
        current_density: f64,
    ) -> Self {
        assert_eq!(
            sigma_t.len(),
            config.count(),
            "need one stress value per via"
        );
        assert!(current_density > 0.0, "current density must be positive");
        ViaArrayMc {
            config,
            tech,
            sigma_t,
            current_density,
            current_model: CurrentModel::default(),
            variation: None,
        }
    }

    /// Creates a simulator using the bundled reference stress table.
    pub fn from_reference_table(
        config: &ViaArrayConfig,
        tech: Technology,
        current_density: f64,
    ) -> Self {
        let table = StressTable::reference();
        Self::from_table(&table, config, tech, current_density)
            .expect("reference table covers the paper configurations")
    }

    /// Creates a simulator from a caller-supplied stress table.
    ///
    /// Returns `None` if the table has no entry for the configuration.
    pub fn from_table(
        table: &StressTable,
        config: &ViaArrayConfig,
        tech: Technology,
        current_density: f64,
    ) -> Option<Self> {
        let sigma_t = table.lookup(
            config.layer_pair,
            config.pattern,
            config.geometry.rows,
            config.geometry.cols,
            config.wire_width,
        )?;
        Some(Self::new(*config, tech, sigma_t, current_density))
    }

    /// Selects the current redistribution model (default: uniform).
    pub fn with_current_model(mut self, model: CurrentModel) -> Self {
        self.current_model = model;
        self
    }

    /// Enables on-die variation: trials draw void, temperature-field, and
    /// linewidth-field samples from independent derived sub-streams instead
    /// of the legacy single trial stream (default: nominal model).
    pub fn with_variation(mut self, variation: Variation) -> Self {
        self.variation = Some(variation);
        self
    }

    /// The configured variation, if any.
    pub fn variation(&self) -> Option<&Variation> {
        self.variation.as_ref()
    }

    /// The simulated configuration.
    pub fn config(&self) -> &ViaArrayConfig {
        &self.config
    }

    /// The per-via thermomechanical stresses, Pa.
    pub fn sigma_t(&self) -> &[f64] {
        &self.sigma_t
    }

    /// The reference (characterization) current density, A/m².
    pub fn current_density(&self) -> f64 {
        self.current_density
    }

    /// The state every trial's current redistribution starts from: all
    /// vias alive (for the network model, the plate network factored
    /// once). Trials clone it.
    fn all_alive_currents(&self) -> ViaCurrents {
        let total_current = self.current_density * self.config.effective_area_m2();
        ViaCurrents::new(
            &self.current_model,
            self.config.geometry.rows,
            self.config.geometry.cols,
            total_current,
        )
    }

    /// Runs one nominal Monte Carlo trial (the configured variation, if
    /// any, is not applied).
    pub fn simulate_once<R: Rng + ?Sized>(&self, rng: &mut R) -> ViaArraySample {
        self.trial(rng, self.all_alive_currents(), None)
    }

    /// Runs trial `t` of a run at `seed` on its `(seed, trial)` randomness:
    /// the legacy single stream for the nominal model, or three derived
    /// sub-streams (void draws / temperature field / linewidth field)
    /// under variation, so enabling one source never shifts another's
    /// sequence.
    fn run_one_trial(&self, seed: u64, t: usize, all_alive: &ViaCurrents) -> ViaArraySample {
        let s = t as u64;
        match &self.variation {
            None => {
                let mut rng = emgrid_stats::stream_rng(seed, s);
                self.trial(&mut rng, all_alive.clone(), None)
            }
            Some(var) => {
                let mut void_rng = emgrid_stats::substream_rng(seed, s, variation::CHANNEL_VOID);
                let mut field_rng = emgrid_stats::substream_rng(seed, s, variation::CHANNEL_FIELD);
                let mut geom_rng =
                    emgrid_stats::substream_rng(seed, s, variation::CHANNEL_GEOMETRY);
                let fields = TrialFields::sample(
                    var,
                    &self.tech,
                    self.config.geometry.rows,
                    self.config.geometry.cols,
                    &mut field_rng,
                    &mut geom_rng,
                );
                self.trial(&mut void_rng, all_alive.clone(), Some(&fields))
            }
        }
    }

    /// One trial from a prepared all-alive state, its critical stresses
    /// drawn from `rng`. Under variation, `fields` reweights the current
    /// split by the edge weights, scales each via's current density by its
    /// inverse width and its life by its life scale.
    fn trial<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mut redistribution: ViaCurrents,
        fields: Option<&TrialFields>,
    ) -> ViaArraySample {
        let n = self.config.count();
        let sc_dist = self.tech.critical_stress_distribution();
        let sigma_c: Vec<f64> = (0..n).map(|_| sc_dist.sample(rng)).collect();

        let total_current = self.current_density * self.config.effective_area_m2();
        let weights = fields.and_then(|f| f.edge_weights.as_deref());
        let via_area = self.config.via_area_m2();
        let density = |v: usize, current: f64| match fields {
            Some(f) => current * f.inv_width[v] / via_area,
            None => current / via_area,
        };
        let mut alive = vec![true; n];
        let currents = weighted_currents(&mut redistribution, &alive, total_current, weights);
        let mut j: Vec<f64> = (0..n).map(|v| density(v, currents[v])).collect();
        let mut remaining: Vec<f64> = (0..n)
            .map(|v| {
                let life =
                    nucleation::nucleation_time(&self.tech, sigma_c[v], self.sigma_t[v], j[v]);
                match fields {
                    Some(f) => life * f.life_scale[v],
                    None => life,
                }
            })
            .collect();

        let mut t = 0.0;
        let mut failure_times = Vec::with_capacity(n);
        for step in 0..n {
            // Earliest remaining failure among alive vias.
            let (victim, dt) = alive
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a)
                .map(|(v, _)| (v, remaining[v]))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite lifetimes"))
                .expect("alive vias remain");
            t += dt;
            failure_times.push(t);
            alive[victim] = false;
            if step + 1 == n {
                break;
            }
            // Elapse time on survivors, then rescale for the new currents.
            redistribution.fail(victim);
            let currents = weighted_currents(&mut redistribution, &alive, total_current, weights);
            for v in 0..n {
                if alive[v] {
                    let j_new = density(v, currents[v]);
                    let left = (remaining[v] - dt).max(0.0);
                    remaining[v] = nucleation::rescale_remaining_life(left, j[v], j_new);
                    j[v] = j_new;
                }
            }
        }
        ViaArraySample { failure_times }
    }

    /// The random-walk variance decomposition of `varied`, a finished run
    /// of this simulator at `seed`: replays its trial budget under
    /// `runtime` with the correlated fields frozen
    /// ([`Variation::frozen_fields`]) and splits the open-circuit `ln TTF`
    /// variance into the void-nucleation part and the fields' part.
    ///
    /// Void draws come from their own sub-stream, so the replay shares
    /// critical-stress samples with `varied` trial for trial and the
    /// difference isolates the field contribution. With early termination
    /// the decomposition uses the common committed prefix. Returns `None`
    /// when `cancel` stopped the replay.
    ///
    /// # Panics
    ///
    /// Panics if no variation is configured or fewer than two trials are
    /// common to both runs. A run with a lognormal fit has at least two
    /// samples, and an uncancelled replay commits at least two unless an
    /// early-stop policy lets it stop below that.
    pub fn variance_decomposition(
        &self,
        varied: &CharacterizationResult,
        seed: u64,
        runtime: &RuntimeConfig,
        cancel: Option<&CancelToken>,
    ) -> Option<VarianceDecomposition> {
        let var = self
            .variation
            .expect("variance analysis requires a configured variation");
        let frozen_mc = self.clone().with_variation(var.frozen_fields());
        let session = ViaSession {
            cancel,
            ..ViaSession::default()
        };
        let trials = varied.report().trials_requested;
        let frozen = frozen_mc.characterize_session(trials, seed, runtime, session)?;
        if frozen.report().cancelled {
            return None;
        }
        let ln = |r: &CharacterizationResult| -> Vec<f64> {
            r.ttf_samples(FailureCriterion::OpenCircuit)
                .into_iter()
                .map(|x| x.max(f64::MIN_POSITIVE).ln())
                .collect()
        };
        let (lv, lf) = (ln(varied), ln(&frozen));
        let common = lv.len().min(lf.len());
        Some(VarianceDecomposition::from_ln_samples(
            &lv[..common],
            &lf[..common],
        ))
    }

    /// Runs `trials` trials with a deterministic seed and collects the
    /// results for criterion evaluation and lognormal fitting.
    ///
    /// Sequential, fixed-budget shorthand for [`ViaArrayMc::characterize_with`].
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub fn characterize(&self, trials: usize, seed: u64) -> CharacterizationResult {
        self.characterize_with(trials, seed, &RuntimeConfig::sequential())
    }

    /// Runs the characterization on the shared Monte Carlo runtime: trials
    /// are scheduled work-stealing across `runtime.threads`, each on its own
    /// RNG stream derived from `(seed, trial)`, so the samples are
    /// **bit-identical for any thread count**. With an early-stop policy the
    /// run halts once the confidence interval on the open-circuit `ln TTF`
    /// mean is tight enough; the [`emgrid_runtime::RunReport`] on the result
    /// records what actually ran.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub fn characterize_with(
        &self,
        trials: usize,
        seed: u64,
        runtime: &RuntimeConfig,
    ) -> CharacterizationResult {
        self.characterize_session(trials, seed, runtime, ViaSession::default())
            .expect("an uncancelled run commits at least one sample")
    }

    /// [`ViaArrayMc::characterize_with`] with checkpoint/resume/cancellation
    /// controls — the entry point the analysis daemon drives.
    ///
    /// A run resumed from a [`ViaCheckpoint`] produces the same result as an
    /// uninterrupted run with the same seed (every trial's randomness comes
    /// from `(seed, trial)` alone). A resume checkpoint that does not fit
    /// the run — more samples than the budget, a stream count that does not
    /// match them, or a sample whose failure-time count is not this array's
    /// via count — is ignored, and the run starts at trial zero. Returns
    /// `None` only when a cancellation stopped the run before any sample
    /// was committed; a cancelled run that did commit samples returns them
    /// with `report().cancelled` set.
    ///
    /// # Panics
    ///
    /// As [`ViaArrayMc::characterize_with`].
    pub fn characterize_session(
        &self,
        trials: usize,
        seed: u64,
        runtime: &RuntimeConfig,
        mut session: ViaSession<'_>,
    ) -> Option<CharacterizationResult> {
        let _span = emgrid_runtime::obs::span("via-mc");
        let vias = self.config.count();
        session.resume = session
            .resume
            .filter(|cp| cp.outputs.iter().all(|s| s.failure_times.len() == vias));
        let open_circuit = vias - 1;
        let all_alive = self.all_alive_currents();
        enum Never {}
        let result: Result<_, Never> = emgrid_runtime::run_trials_session(
            trials,
            runtime,
            session,
            |t| Ok(self.run_one_trial(seed, t, &all_alive)),
            |s: &ViaArraySample| s.failure_times[open_circuit].max(f64::MIN_POSITIVE).ln(),
        );
        let (samples, report) = match result {
            Ok(pair) => pair,
            Err(never) => match never {},
        };
        if samples.is_empty() {
            return None;
        }
        Some(CharacterizationResult::with_report(
            self.config,
            self.current_density,
            samples,
            report,
        ))
    }
}

/// Currents from `redistribution`, optionally reweighted by the static
/// geometry-derived edge weights and renormalized so the total stays
/// conserved.
fn weighted_currents(
    redistribution: &mut ViaCurrents,
    alive: &[bool],
    total_current: f64,
    weights: Option<&[f64]>,
) -> Vec<f64> {
    let mut currents = redistribution.currents(alive);
    if let Some(w) = weights {
        let mut sum = 0.0;
        for (c, &wv) in currents.iter_mut().zip(w) {
            *c *= wv;
            sum += *c;
        }
        let scale = total_current / sum;
        for c in &mut currents {
            *c *= scale;
        }
    }
    currents
}

/// Convenience: the default layer pair used throughout the experiments.
pub const DEFAULT_LAYER_PAIR: LayerPair = LayerPair::IntermediateTop;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::FailureCriterion;
    use emgrid_em::SECONDS_PER_YEAR;
    use emgrid_fea::geometry::IntersectionPattern;
    use emgrid_stats::{seeded_rng, OnlineStats};
    use proptest::prelude::*;

    fn paper_mc(pattern: IntersectionPattern) -> ViaArrayMc {
        ViaArrayMc::from_reference_table(
            &ViaArrayConfig::paper_4x4(pattern),
            Technology::default(),
            1e10,
        )
    }

    #[test]
    fn failure_times_are_sorted_and_positive() {
        let mc = paper_mc(IntersectionPattern::Plus);
        let mut rng = seeded_rng(1);
        let s = mc.simulate_once(&mut rng);
        assert_eq!(s.failure_times.len(), 16);
        assert!(s.failure_times[0] > 0.0);
        for w in s.failure_times.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn first_failures_land_in_single_digit_years() {
        // Fig. 8(a): the 1st-via CDF is centered around a few years.
        let mc = paper_mc(IntersectionPattern::Plus);
        let result = mc.characterize(300, 7);
        let med = result.ecdf(FailureCriterion::WeakestLink).median() / SECONDS_PER_YEAR;
        assert!(med > 0.5 && med < 12.0, "median first failure {med} yr");
    }

    #[test]
    fn later_criteria_fail_later() {
        let mc = paper_mc(IntersectionPattern::Plus);
        let mut rng = seeded_rng(3);
        let s = mc.simulate_once(&mut rng);
        assert!(s.time_of_failure(8) > s.time_of_failure(1));
        assert!(s.time_of_failure(16) > s.time_of_failure(8));
    }

    #[test]
    fn current_acceleration_compresses_the_tail() {
        // With redistribution, the gap between the 15th and 16th failure is
        // driven by a 16x current: the last via's residual life shrinks by
        // ~256x vs its original scale. Check the total spread is far less
        // than 16 independent lifetimes would suggest.
        let mc = paper_mc(IntersectionPattern::Plus);
        let mut rng = seeded_rng(5);
        let s = mc.simulate_once(&mut rng);
        let first = s.time_of_failure(1);
        let last = s.time_of_failure(16);
        assert!(last < 20.0 * first, "first {first}, last {last}");
    }

    #[test]
    fn ell_pattern_outlives_plus() {
        // Fig. 8(b): lower σ_T in the L pattern → longer TTF.
        let plus = paper_mc(IntersectionPattern::Plus).characterize(200, 11);
        let ell = paper_mc(IntersectionPattern::Ell).characterize(200, 11);
        let c = FailureCriterion::ViaCount(8);
        assert!(ell.ecdf(c).median() > plus.ecdf(c).median());
    }

    #[test]
    fn higher_current_shortens_life() {
        let config = ViaArrayConfig::paper_4x4(IntersectionPattern::Plus);
        let tech = Technology::default();
        let lo = ViaArrayMc::from_reference_table(&config, tech, 1e10).characterize(100, 13);
        let hi = ViaArrayMc::from_reference_table(&config, tech, 2e10).characterize(100, 13);
        let c = FailureCriterion::ViaCount(8);
        // TTF ∝ 1/j²: doubling current should quarter the median.
        let ratio = lo.ecdf(c).median() / hi.ecdf(c).median();
        assert!((ratio - 4.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn network_model_changes_failure_order_statistics() {
        // With crowding, perimeter vias die sooner; the first-failure time
        // drops relative to the uniform model (same seed).
        let config = ViaArrayConfig::paper_4x4(IntersectionPattern::Plus);
        let tech = Technology::default();
        let uniform = ViaArrayMc::from_reference_table(&config, tech, 1e10)
            .characterize(150, 17)
            .ecdf(FailureCriterion::WeakestLink)
            .median();
        let crowded = ViaArrayMc::from_reference_table(&config, tech, 1e10)
            .with_current_model(CurrentModel::Network(Default::default()))
            .characterize(150, 17)
            .ecdf(FailureCriterion::WeakestLink)
            .median();
        assert!(
            crowded < uniform,
            "crowded {crowded} should be below uniform {uniform}"
        );
    }

    #[test]
    fn session_resume_and_cancel_match_uninterrupted_run() {
        let mc = paper_mc(IntersectionPattern::Plus);
        let whole = mc.characterize(60, 29);

        // Cancel from the first checkpoint, then resume from its state.
        let token = CancelToken::new();
        let mut last: Option<ViaCheckpoint> = None;
        let mut on_checkpoint = |cp: &ViaCheckpoint| {
            last = Some(cp.clone());
            token.cancel();
        };
        let cancelled = mc
            .characterize_session(
                60,
                29,
                &RuntimeConfig::sequential(),
                ViaSession {
                    cancel: Some(&token),
                    checkpoint_every: 16,
                    on_checkpoint: Some(&mut on_checkpoint),
                    ..ViaSession::default()
                },
            )
            .expect("samples were committed before the cancel");
        assert!(cancelled.report().cancelled);

        let cp = ViaCheckpoint::decode(&last.expect("checkpoint fired").encode()).unwrap();
        assert_eq!(cp.outputs.len(), 16);
        let resumed = mc
            .characterize_session(
                60,
                29,
                &RuntimeConfig::threaded(2),
                ViaSession {
                    resume: Some(cp),
                    ..ViaSession::default()
                },
            )
            .unwrap();
        assert!(!resumed.report().cancelled);
        assert_eq!(resumed.report().resumed_from, 16);
        assert_eq!(
            resumed.ttf_samples(FailureCriterion::OpenCircuit),
            whole.ttf_samples(FailureCriterion::OpenCircuit)
        );

        // A token tripped before any trial commits nothing.
        let token = CancelToken::new();
        token.cancel();
        assert!(mc
            .characterize_session(
                60,
                29,
                &RuntimeConfig::sequential(),
                ViaSession {
                    cancel: Some(&token),
                    ..ViaSession::default()
                },
            )
            .is_none());
    }

    /// An `emgrid-via-checkpoint-v1` file, with an `f64::MAX` failure
    /// time. Its bytes may change only with the format line.
    const GOLDEN_CHECKPOINT: &str = "\
emgrid-via-checkpoint-v1
stream 2 4076b8526ad4e125 410d459c84212799 403141ed7b54e6ab 40862e42fefa39ef
sample 416312d000000000 4177d78400000000 417dcd6500000000
sample 415312d000000000 415c9c3800000000 7fefffffffffffff
";

    #[test]
    fn checkpoint_bytes_are_pinned() {
        let stream = [
            0x4076b8526ad4e125,
            0x410d459c84212799,
            0x403141ed7b54e6ab,
            0x40862e42fefa39ef,
        ]
        .map(f64::from_bits);
        let cp = ViaCheckpoint {
            outputs: vec![
                ViaArraySample {
                    failure_times: vec![1.0e7, 2.5e7, 3.125e7],
                },
                ViaArraySample {
                    failure_times: vec![0.5e7, 0.75e7, f64::MAX],
                },
            ],
            stream: OnlineStats::from_raw_parts(2, stream[0], stream[1], stream[2], stream[3]),
        };
        assert_eq!(cp.encode(), GOLDEN_CHECKPOINT);
        // Equal values that re-encode to the same text: equal bits.
        let back = ViaCheckpoint::decode(GOLDEN_CHECKPOINT).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.encode(), GOLDEN_CHECKPOINT);
    }

    #[test]
    fn corrupt_sample_lines_are_rejected() {
        let decode = ViaCheckpoint::decode;
        let grid = GOLDEN_CHECKPOINT.replace("via-checkpoint", "grid-checkpoint");
        assert!(decode(&grid).is_err(), "other format");
        let cut = GOLDEN_CHECKPOINT.replace(" 7fefffffffffffff", " 7feffff");
        assert!(decode(&cut).is_err(), "cut field");
        let bare = GOLDEN_CHECKPOINT.replace(
            "sample 415312d000000000 415c9c3800000000 7fefffffffffffff",
            "sample",
        );
        assert!(decode(&bare).is_err(), "sample without times");
    }

    /// Tokens of the checkpoint grammar and near-misses of it.
    const CHECKPOINT_TOKENS: &[&str] = &[
        "emgrid-via-checkpoint-v1",
        "stream",
        "sample",
        "0",
        "2",
        "18446744073709551616",
        "416312d000000000",
        "7ff8000000000000",
        "4163",
        " ",
        "\n",
        "\r\n",
    ];

    // The golden file cut anywhere, then tokens: the parse goes wrong in
    // every state, not just at the format line.
    prop_compose! {
        fn checkpoint_text()(
            cut in 0..GOLDEN_CHECKPOINT.len() + 1,
            picks in collection::vec(0usize..CHECKPOINT_TOKENS.len(), 0..48),
        ) -> String {
            let mut text = GOLDEN_CHECKPOINT[..cut].to_owned();
            text.extend(picks.into_iter().map(|i| CHECKPOINT_TOKENS[i]));
            text
        }
    }

    /// An `f64` from arbitrary bits, biased towards both zeros,
    /// subnormals, extremes and NaNs.
    fn any_f64(rng: &mut TestRng) -> f64 {
        const SPECIAL: [u64; 5] = [0, 1 << 63, 1, 0x7fef_ffff_ffff_ffff, !0];
        match rng.next_below(3) {
            0 => f64::from_bits(SPECIAL[rng.next_below(5) as usize]),
            _ => f64::from_bits(rng.next_u64()),
        }
    }

    /// Zero to 40 samples of 1 to 64 failure times, and a stream of
    /// arbitrary bits over them.
    fn any_checkpoint(rng: &mut TestRng) -> ViaCheckpoint {
        let outputs: Vec<ViaArraySample> = (0..rng.next_below(41))
            .map(|_| ViaArraySample {
                failure_times: (0..=rng.next_below(64)).map(|_| any_f64(rng)).collect(),
            })
            .collect();
        let [mean, m2, min, max] = [(); 4].map(|()| any_f64(rng));
        let stream = OnlineStats::from_raw_parts(outputs.len() as u64, mean, m2, min, max);
        ViaCheckpoint { outputs, stream }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn checkpoint_decode_never_panics_on_token_text(text in checkpoint_text()) {
            let _ = ViaCheckpoint::decode(&text);
        }

        #[test]
        fn generated_checkpoints_round_trip_bit_for_bit(cp in FnStrategy(any_checkpoint)) {
            // The text holds every bit, so re-encoding compares bits.
            let text = cp.encode();
            let back = ViaCheckpoint::decode(&text);
            prop_assert!(back.is_ok(), "{back:?}");
            prop_assert_eq!(back.unwrap().encode(), text);
        }
    }

    #[test]
    fn misfit_resume_checkpoints_restart_from_trial_zero() {
        let mc = paper_mc(IntersectionPattern::Plus);
        let mut snapshot: Option<ViaCheckpoint> = None;
        let mut on_checkpoint = |cp: &ViaCheckpoint| {
            snapshot.get_or_insert_with(|| cp.clone());
        };
        let session = ViaSession {
            checkpoint_every: 16,
            on_checkpoint: Some(&mut on_checkpoint),
            ..ViaSession::default()
        };
        mc.characterize_session(48, 29, &RuntimeConfig::sequential(), session);
        let good = snapshot.expect("checkpoint fired");

        let resume = |trials: usize, cp: &ViaCheckpoint| {
            let session = ViaSession {
                resume: Some(cp.clone()),
                ..ViaSession::default()
            };
            mc.characterize_session(trials, 29, &RuntimeConfig::sequential(), session)
                .unwrap()
        };
        let same = |a: &CharacterizationResult, trials: usize, label: &str| {
            let whole = mc.characterize(trials, 29);
            let oc = FailureCriterion::OpenCircuit;
            assert_eq!(a.ttf_samples(oc), whole.ttf_samples(oc), "{label}");
            assert_eq!(a.report().resumed_from, 0, "{label}");
        };

        let mut cut = good.clone();
        cut.outputs[3].failure_times.truncate(3);
        // The text format carries no via count, so such a checkpoint decodes.
        let cut = ViaCheckpoint::decode(&cut.encode()).unwrap();
        same(&resume(48, &cut), 48, "cut sample");
        let mut wrong_stream = good.clone();
        wrong_stream.stream.push(0.0);
        same(&resume(48, &wrong_stream), 48, "stream count");
        same(&resume(8, &good), 8, "over budget");
        // A fitting checkpoint still resumes.
        assert_eq!(resume(48, &good).report().resumed_from, 16);
    }

    #[test]
    fn edge_loaded_arrays_fail_earlier() {
        // Geometry-derived uneven current: edge/corner vias carry more, so
        // the earliest failure moves forward relative to the uniform split
        // (the 1801.08281 direction). Same trial budget, same seed.
        let uniform = paper_mc(IntersectionPattern::Plus)
            .with_variation(Variation::default())
            .characterize(200, 31)
            .ecdf(FailureCriterion::WeakestLink)
            .median();
        let edge_loaded = paper_mc(IntersectionPattern::Plus)
            .with_variation(Variation {
                edge_current_factor: 0.5,
                ..Variation::default()
            })
            .characterize(200, 31)
            .ecdf(FailureCriterion::WeakestLink)
            .median();
        assert!(
            edge_loaded < uniform,
            "edge-loaded {edge_loaded} should be below uniform {uniform}"
        );
    }

    #[test]
    fn edge_weighting_conserves_total_current() {
        let mc = paper_mc(IntersectionPattern::Plus).with_variation(Variation {
            edge_current_factor: 1.0,
            ..Variation::default()
        });
        let total = mc.current_density() * mc.config().effective_area_m2();
        let weights = mc.variation().unwrap().edge_weights(4, 4);
        let mut all_alive = mc.all_alive_currents();
        let currents = weighted_currents(&mut all_alive, &[true; 16], total, Some(&weights));
        let sum: f64 = currents.iter().sum();
        assert!((sum - total).abs() / total < 1e-12);
        // Corner beats edge beats interior.
        assert!(currents[0] > currents[1] && currents[1] > currents[5]);
    }

    #[test]
    fn variation_sources_draw_from_independent_substreams() {
        // Freezing the fields must not change the void draws: with the
        // same seed, the frozen run and the field-enabled run differ only
        // through the fields themselves.
        let base = paper_mc(IntersectionPattern::Plus);
        let frozen_a = base
            .clone()
            .with_variation(Variation::default())
            .characterize(50, 37);
        let frozen_b = base
            .clone()
            .with_variation(
                Variation {
                    temperature_sigma_c: 10.0,
                    linewidth_sigma: 0.08,
                    ..Variation::default()
                }
                .frozen_fields(),
            )
            .characterize(50, 37);
        assert_eq!(
            frozen_a.ttf_samples(FailureCriterion::OpenCircuit),
            frozen_b.ttf_samples(FailureCriterion::OpenCircuit)
        );
    }

    #[test]
    fn variance_decomposition_attributes_field_variance() {
        let mc = paper_mc(IntersectionPattern::Plus).with_variation(Variation {
            temperature_sigma_c: 10.0,
            linewidth_sigma: 0.05,
            ..Variation::default()
        });
        let runtime = RuntimeConfig::sequential();
        let result = mc.characterize_with(120, 41, &runtime);
        let d = mc
            .variance_decomposition(&result, 41, &runtime, None)
            .expect("uncancelled");
        assert!(d.total > d.void, "total {} void {}", d.total, d.void);
        assert!(d.environment > 0.0);
        assert!((d.environment - (d.total - d.void)).abs() < 1e-12);
        // A token tripped before the replay commits nothing.
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            mc.variance_decomposition(&result, 41, &runtime, Some(&token)),
            None
        );

        // Without fields the decomposition collapses onto the void term.
        let bare = paper_mc(IntersectionPattern::Plus).with_variation(Variation::default());
        let result = bare.characterize_with(80, 41, &runtime);
        let d0 = bare
            .variance_decomposition(&result, 41, &runtime, None)
            .expect("uncancelled");
        assert_eq!(d0.environment, 0.0);
        assert_eq!(d0.total, d0.void);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let mc = paper_mc(IntersectionPattern::Plus);
        let a = mc.characterize(50, 23);
        let b = mc.characterize(50, 23);
        assert_eq!(
            a.ttf_samples(FailureCriterion::OpenCircuit),
            b.ttf_samples(FailureCriterion::OpenCircuit)
        );
    }
}
