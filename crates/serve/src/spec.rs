//! Job specifications: the JSON contract of `POST /v1/jobs`.
//!
//! A spec names one of three analyses — `characterize` (level-1 via-array
//! Monte Carlo), `analyze` (two-level system MC over a benchmark grid or
//! an uploaded SPICE netlist) or `fea` (finite-element stress
//! characterization of one primitive) — plus its technology knobs.
//! Parsing is strict: unknown keys, out-of-range budgets and malformed
//! values are all rejected with a [`SpecError`] naming the offending
//! field; the daemon renders it as a structured `400` body.
//!
//! [`JobSpec::to_json`] renders the *canonical* form with every default
//! materialized; that document is persisted as `spec.json` and is what a
//! restarted daemon re-parses, so a job resumes under exactly the
//! parameters it was accepted with even if the client omitted them.
//!
//! Label strings stay labels inside the spec; [`JobSpec::resolve`] turns
//! an accepted spec into the [`ResolvedJob`] a worker actually runs —
//! configurations, criteria, scheduler settings and the grid's solve
//! engine and ordering — in one validated step.

use std::fmt;

use emgrid_fea::geometry::{IntersectionPattern, ViaArrayGeometry};
use emgrid_runtime::{EarlyStop, RuntimeConfig};
use emgrid_sparse::{Method, Ordering};
use emgrid_via::{FailureCriterion, Variation, ViaArrayConfig};

use crate::json::Json;

/// Hard budget ceilings; a daemon accepts work from the network and must
/// bound it.
const MAX_TRIALS: usize = 1_000_000;
const MAX_THREADS: usize = 64;

/// Reference current density for via-array characterization (A/m²) when a
/// spec does not set `current_density`, matching the CLI's
/// `characterize`/`analyze` commands and the paper's stress tables.
pub const REFERENCE_CURRENT_DENSITY: f64 = 1e10;

/// The spec schema version this daemon understands. A document may pin it
/// with a top-level `"schema"` key on job and sweep specs alike; absent
/// means version 1, and the canonical form materializes the key only when
/// the client sent it, so documents accepted before versioning existed
/// keep their exact bytes.
pub const SCHEMA_VERSION: u64 = 1;

/// A validation failure, phrased for the client and naming the field at
/// fault so a caller can highlight it without parsing prose.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError {
    /// The offending spec field (dotted for nested keys, e.g.
    /// `solver.ordering`); `None` for document-level failures.
    pub field: Option<String>,
    /// Human-readable explanation.
    pub message: String,
}

impl SpecError {
    /// A failure attributed to one spec field.
    pub fn field(field: impl Into<String>, message: impl Into<String>) -> SpecError {
        SpecError {
            field: Some(field.into()),
            message: message.into(),
        }
    }

    /// A failure of the document as a whole (wrong shape, missing kind).
    pub fn document(message: impl Into<String>) -> SpecError {
        SpecError {
            field: None,
            message: message.into(),
        }
    }

    /// The structured `400` body: `{"error": ..., "field": ...}` with the
    /// `field` key omitted for document-level failures.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("error".to_owned(), Json::s(&self.message))];
        if let Some(field) = &self.field {
            pairs.push(("field".into(), Json::s(field)));
        }
        Json::Obj(pairs)
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SpecError {}

/// Monte Carlo parameters shared by `characterize` and `analyze`.
#[derive(Debug, Clone, PartialEq)]
pub struct McParams {
    /// Array label: `1x1`, `4x4` or `8x8`.
    pub array: String,
    /// Intersection pattern label: `plus`, `tee` or `ell`.
    pub pattern: String,
    /// Failure criterion label: `wl`, `r2x` or `rinf`.
    pub criterion: String,
    /// Level-1 trial budget.
    pub trials: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads inside the Monte Carlo scheduler.
    pub threads: usize,
    /// Optional early-stop target on the 95% CI half-width of mean ln TTF.
    pub target_ci: Option<f64>,
    /// Stress current density, A/m² (`None` = the reference
    /// [`REFERENCE_CURRENT_DENSITY`]). The sweep axis behind the paper's
    /// TTF-vs-j curves (Fig. 8).
    pub current_density: Option<f64>,
    /// Optional on-die variation block. `None` keeps the legacy
    /// single-stream Monte Carlo path bit-for-bit; any present block (even
    /// all-zero) switches the trial bodies onto named RNG sub-streams.
    pub variation: Option<VariationSpec>,
}

/// Where an `analyze` job's power grid comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum DeckSource {
    /// A built-in synthetic benchmark profile (see
    /// [`emgrid_spice::GridSpec::PROFILES`]): `pg1` through `pg1m`.
    Benchmark(String),
    /// An uploaded SPICE deck (screened by [`emgrid_spice::ingest()`]).
    Netlist(String),
}

/// The `screening` block of an `analyze` spec: run the linear-time
/// steady-state EM prefilter first and hand the Monte Carlo only the
/// selected via arrays (filter-then-simulate). An empty block screens and
/// records scores without narrowing the working set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScreeningSpec {
    /// Simulate only the `k` highest-stress via arrays.
    pub top_k: Option<usize>,
    /// Simulate only arrays whose steady-state stress reaches this many
    /// Pa; combined with `top_k`, both must hold.
    pub stress_threshold: Option<f64>,
}

impl ScreeningSpec {
    fn to_json(self) -> Json {
        let mut pairs = Vec::new();
        if let Some(k) = self.top_k {
            pairs.push(("top_k".to_owned(), Json::n(k as f64)));
        }
        if let Some(s) = self.stress_threshold {
            pairs.push(("stress_threshold".to_owned(), Json::n(s)));
        }
        Json::Obj(pairs)
    }
}

/// The `variation` block shared by `characterize` and `analyze`: on-die
/// variation knobs for the Monte Carlo. All magnitudes default to zero; a
/// present-but-zero block still routes the trial bodies through the named
/// RNG sub-streams, which is what lets a frozen-fields companion run share
/// its void draws with a varied run trial for trial.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VariationSpec {
    /// Extra current share for perimeter vias: weight `1 + f·sides` where
    /// `sides` counts the array edges a via touches (corners get 2).
    pub edge_current_factor: f64,
    /// Standard deviation of the spatially correlated temperature field,
    /// °C around the technology's nominal operating temperature.
    pub temperature_sigma_c: f64,
    /// Relative sigma of the spatially correlated linewidth field; current
    /// density scales as `1/(1 + σ·f)`.
    pub linewidth_sigma: f64,
    /// Run the frozen-fields companion Monte Carlo and report a TTF
    /// variance decomposition (total / void / environment) next to the
    /// mean and CI statistics.
    pub variance_analysis: bool,
}

impl VariationSpec {
    /// The level-1 variation model this block resolves to.
    pub fn to_via(self) -> Variation {
        Variation {
            edge_current_factor: self.edge_current_factor,
            temperature_sigma_c: self.temperature_sigma_c,
            linewidth_sigma: self.linewidth_sigma,
        }
    }

    fn to_json(self) -> Json {
        // Defaults are materialized: a present block is canonicalized in
        // full, mirroring `solver`; only the block itself is optional.
        Json::Obj(vec![
            (
                "edge_current_factor".to_owned(),
                Json::n(self.edge_current_factor),
            ),
            (
                "temperature_sigma_c".to_owned(),
                Json::n(self.temperature_sigma_c),
            ),
            ("linewidth_sigma".to_owned(), Json::n(self.linewidth_sigma)),
            (
                "variance_analysis".to_owned(),
                Json::Bool(self.variance_analysis),
            ),
        ])
    }
}

/// The `solver` block of an `analyze` spec: which engine solves the
/// grid's nominal operating point, and which ordering its direct factors
/// use. Changes wall time and rounding, never what the statistics mean.
///
/// Three of its labels are kept only so documents that carry them keep
/// validating to the same canonical bytes, which sweep ids hash: they are
/// accepted and canonicalized, but select nothing beyond the default. The
/// no-ops are permanent: retiring them would need a schema-2 parser
/// branch whose only job is to reject them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverSpec {
    /// The `ordering` label: `amd` or `nd` pick the fill-reducing
    /// ordering; `natural` and `rcm` are no-ops that select the default,
    /// AMD.
    pub ordering: &'static str,
    /// The `supernodal` flag: a no-op, since the solver has one numeric
    /// engine.
    pub supernodal: bool,
    /// The `kernels` label (`auto`, `scalar` or `blocked`): a no-op, since
    /// the solver has one kernel path.
    pub kernels: &'static str,
    /// Linear-solve engine for the grid's nominal operating point, which
    /// the screening pass ranks on and the level-2 Monte Carlo takes its
    /// nominal currents from: `auto`, `direct` or `cg`. `auto` picks by
    /// problem size at run time.
    pub method: Method,
}

impl Default for SolverSpec {
    fn default() -> Self {
        SolverSpec {
            ordering: "amd",
            supernodal: true,
            kernels: "auto",
            method: Method::Auto,
        }
    }
}

impl SolverSpec {
    fn to_json(self) -> Json {
        let mut pairs = vec![
            ("ordering".into(), Json::s(self.ordering)),
            ("supernodal".into(), Json::Bool(self.supernodal)),
        ];
        // `auto` is the default and stays implicit, so canonical documents
        // from before the key existed keep their bytes.
        if self.kernels != "auto" {
            pairs.push(("kernels".into(), Json::s(self.kernels)));
        }
        // Same rule for the solve method: `auto` resolves by problem size
        // at run time and stays implicit in canonical documents.
        if self.method != Method::Auto {
            pairs.push(("method".into(), Json::s(self.method.label())));
        }
        Json::Obj(pairs)
    }
}

/// One accepted unit of work: an optional explicit spec schema version
/// plus the job body.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// `Some(SCHEMA_VERSION)` when the document carried an explicit
    /// top-level `"schema"` key (materialized first in the canonical
    /// form); `None` means implicitly version 1 and keeps pre-versioning
    /// canonical documents byte-identical.
    pub schema: Option<u64>,
    /// Which analysis runs, and its knobs.
    pub body: JobBody,
}

impl From<JobBody> for JobSpec {
    /// Wraps a hand-built body under the implicit schema version, so its
    /// canonical form matches documents from before versioning existed.
    fn from(body: JobBody) -> JobSpec {
        JobSpec { schema: None, body }
    }
}

/// The job body: which of the three analyses runs.
#[derive(Debug, Clone, PartialEq)]
pub enum JobBody {
    /// Level-1 via-array TTF characterization.
    Characterize(McParams),
    /// Two-level system analysis of a power grid.
    Analyze {
        /// Shared MC parameters (level-1 budget in `mc.trials`).
        mc: McParams,
        /// The grid under analysis.
        deck: DeckSource,
        /// Level-2 (grid) trial budget.
        grid_trials: usize,
        /// Retrofit resistance for shorted vias, Ω (the paper's §5.2).
        repair_vias: Option<f64>,
        /// Optional steady-state EM screening prefilter.
        screening: Option<ScreeningSpec>,
        /// Sparse-solver selection for the grid solves.
        solver: SolverSpec,
    },
    /// Finite-element stress characterization of one primitive.
    Fea {
        /// Array label: `1x1`, `4x4` or `8x8`.
        array: String,
        /// Intersection pattern label.
        pattern: String,
        /// Mesh resolution, µm.
        resolution: f64,
        /// FEA solver threads.
        threads: usize,
        /// Whether to consult / populate the stress cache.
        use_cache: bool,
        /// The `solver.ordering` label (see [`SolverSpec::ordering`]) for
        /// the stiffness factorization. The `solver` block of an `fea`
        /// spec accepts `ordering` and `kernels` but not `supernodal`: the
        /// stress cache keys on the ordering the label selects, and
        /// `kernels` selects nothing, so these are the solver keys an `fea`
        /// job may vary without invalidating cached fields.
        ordering: &'static str,
        /// The `solver.kernels` label (see [`SolverSpec::kernels`]); kept
        /// only for the canonical form.
        kernels: &'static str,
    },
}

/// A characterization spec resolved to runnable configuration.
#[derive(Debug, Clone)]
pub struct ResolvedMc {
    /// Array label, echoed into result documents.
    pub array: String,
    /// Pattern label, echoed into result documents.
    pub pattern: String,
    /// Criterion label, echoed into result documents.
    pub criterion_label: String,
    /// The paper's via-array configuration for the label pair.
    pub config: ViaArrayConfig,
    /// The failure criterion the labels name.
    pub criterion: FailureCriterion,
    /// Scheduler configuration (threads + optional early stop).
    pub runtime: RuntimeConfig,
    /// Level-1 trial budget.
    pub trials: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Stress current density, A/m² (defaults materialized).
    pub current_density: f64,
    /// On-die variation knobs, when the spec asked for them.
    pub variation: Option<VariationSpec>,
}

/// An `analyze` spec resolved to runnable configuration.
#[derive(Debug, Clone)]
pub struct ResolvedAnalyze {
    /// Level-1 configuration.
    pub mc: ResolvedMc,
    /// The grid under analysis.
    pub deck: DeckSource,
    /// Level-2 (grid) trial budget.
    pub grid_trials: usize,
    /// Retrofit resistance for shorted vias, Ω.
    pub repair_vias: Option<f64>,
    /// Screening prefilter parameters, if the spec asked for one.
    pub screening: Option<ScreeningSpec>,
    /// Fill-reducing ordering of the grid's direct factors.
    pub ordering: Ordering,
    /// Solve engine of the grid's nominal operating point.
    pub method: Method,
}

/// An `fea` spec resolved to runnable configuration.
#[derive(Debug, Clone)]
pub struct ResolvedFea {
    /// Array label, echoed into result documents.
    pub array: String,
    /// Pattern label, echoed into result documents.
    pub pattern: String,
    /// The FEA geometry for the array label.
    pub geometry: ViaArrayGeometry,
    /// The intersection pattern for the pattern label.
    pub intersection: IntersectionPattern,
    /// Mesh resolution, µm.
    pub resolution: f64,
    /// FEA solver threads.
    pub threads: usize,
    /// Whether to consult / populate the stress cache.
    pub use_cache: bool,
    /// Fill-reducing ordering for the stiffness factorization.
    pub ordering: Ordering,
}

/// What a worker actually runs: every label resolved, every knob typed.
#[derive(Debug, Clone)]
pub enum ResolvedJob {
    /// Level-1 via-array TTF characterization.
    Characterize(ResolvedMc),
    /// Two-level system analysis of a power grid.
    Analyze(ResolvedAnalyze),
    /// Finite-element stress characterization of one primitive.
    Fea(ResolvedFea),
}

impl JobSpec {
    /// The job kind label.
    pub fn kind(&self) -> &'static str {
        self.body.kind()
    }

    /// Parses and validates a client-submitted document.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] naming the offending field.
    pub fn from_json(doc: &Json) -> Result<JobSpec, SpecError> {
        let Json::Obj(_) = doc else {
            return Err(SpecError::document("spec must be a JSON object"));
        };
        let schema = get_schema(doc)?;
        let body = JobBody::from_json(doc)?;
        Ok(JobSpec { schema, body })
    }

    /// Renders the canonical form (defaults materialized, fixed key
    /// order). An explicit schema version renders first; an implicit one
    /// stays implicit, keeping pre-versioning documents byte-identical.
    pub fn to_json(&self) -> Json {
        let mut pairs = Vec::new();
        if self.schema.is_some() {
            pairs.push(("schema".to_owned(), Json::n(SCHEMA_VERSION as f64)));
        }
        self.body.push_pairs(&mut pairs);
        Json::Obj(pairs)
    }

    /// Resolves labels and knobs into the configuration a worker runs.
    ///
    /// Specs built by [`JobSpec::from_json`] always resolve; the
    /// fallible signature exists because specs can also be constructed
    /// directly, and a bad label must surface as a [`SpecError`] naming
    /// its field rather than silently falling back to a default.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] naming the unresolvable field.
    pub fn resolve(&self) -> Result<ResolvedJob, SpecError> {
        self.body.resolve()
    }
}

impl JobBody {
    /// The job kind label.
    pub fn kind(&self) -> &'static str {
        match self {
            JobBody::Characterize(_) => "characterize",
            JobBody::Analyze { .. } => "analyze",
            JobBody::Fea { .. } => "fea",
        }
    }

    fn from_json(doc: &Json) -> Result<JobBody, SpecError> {
        let kind =
            get_str(doc, "kind")?.ok_or_else(|| SpecError::field("kind", "missing `kind`"))?;
        match kind {
            "characterize" => {
                reject_unknown_keys(doc, &MC_KEYS)?;
                Ok(JobBody::Characterize(mc_params(doc)?))
            }
            "analyze" => {
                const ANALYZE_KEYS: [&str; 17] = [
                    "schema",
                    "kind",
                    "array",
                    "pattern",
                    "criterion",
                    "trials",
                    "seed",
                    "threads",
                    "target_ci",
                    "current_density",
                    "variation",
                    "grid_trials",
                    "benchmark",
                    "netlist",
                    "repair_vias",
                    "screening",
                    "solver",
                ];
                reject_unknown_keys(doc, &ANALYZE_KEYS)?;
                let mc = mc_params(doc)?;
                let deck = match (get_str(doc, "benchmark")?, get_str(doc, "netlist")?) {
                    (Some(_), Some(_)) => {
                        return Err(SpecError::document(
                            "give either `benchmark` or `netlist`, not both",
                        ))
                    }
                    (None, None) => {
                        return Err(SpecError::document(
                            "analyze needs `benchmark` or `netlist`",
                        ))
                    }
                    (Some(b), None) => {
                        if emgrid_spice::GridSpec::profile(b).is_none() {
                            return Err(SpecError::field(
                                "benchmark",
                                format!(
                                    "unknown benchmark `{b}` (expected pg1, pg2, pg5, pg100k or pg1m)"
                                ),
                            ));
                        }
                        DeckSource::Benchmark(b.to_owned())
                    }
                    (None, Some(n)) => DeckSource::Netlist(n.to_owned()),
                };
                let grid_trials = get_usize(doc, "grid_trials", 200, 1, MAX_TRIALS)?;
                let repair_vias = get_pos_f64(doc, "repair_vias")?;
                let screening = get_screening(doc)?;
                let solver = get_solver(doc, &ANALYZE_SOLVER)?;
                Ok(JobBody::Analyze {
                    mc,
                    deck,
                    grid_trials,
                    repair_vias,
                    screening,
                    solver,
                })
            }
            "fea" => {
                reject_unknown_keys(
                    doc,
                    &[
                        "schema",
                        "kind",
                        "array",
                        "pattern",
                        "resolution",
                        "threads",
                        "use_cache",
                        "solver",
                    ],
                )?;
                let array = get_array_label(doc)?;
                let pattern = get_pattern_label(doc)?;
                let resolution = match get_pos_f64(doc, "resolution")? {
                    None => 0.25,
                    Some(r) if (0.05..=5.0).contains(&r) => r,
                    Some(r) => {
                        return Err(SpecError::field(
                            "resolution",
                            format!("resolution {r} out of range [0.05, 5.0] um"),
                        ))
                    }
                };
                let threads = get_usize(doc, "threads", 1, 1, MAX_THREADS)?;
                let use_cache = match doc.get("use_cache") {
                    None => true,
                    Some(v) => v.as_bool().ok_or_else(|| {
                        SpecError::field("use_cache", "`use_cache` must be a boolean")
                    })?,
                };
                let solver = get_solver(doc, &FEA_SOLVER)?;
                let (ordering, kernels) = (solver.ordering, solver.kernels);
                Ok(JobBody::Fea {
                    array,
                    pattern,
                    resolution,
                    threads,
                    use_cache,
                    ordering,
                    kernels,
                })
            }
            other => Err(SpecError::field(
                "kind",
                format!("unknown kind `{other}` (expected characterize, analyze or fea)"),
            )),
        }
    }

    /// Appends the body's canonical key/value pairs in fixed order.
    fn push_pairs(&self, pairs: &mut Vec<(String, Json)>) {
        match self {
            JobBody::Characterize(mc) => {
                pairs.push(("kind".to_owned(), Json::s("characterize")));
                push_mc(pairs, mc);
            }
            JobBody::Analyze {
                mc,
                deck,
                grid_trials,
                repair_vias,
                screening,
                solver,
            } => {
                pairs.push(("kind".to_owned(), Json::s("analyze")));
                push_mc(pairs, mc);
                pairs.push(("grid_trials".into(), Json::n(*grid_trials as f64)));
                match deck {
                    DeckSource::Benchmark(b) => pairs.push(("benchmark".into(), Json::s(b))),
                    DeckSource::Netlist(n) => pairs.push(("netlist".into(), Json::s(n))),
                }
                if let Some(r) = repair_vias {
                    pairs.push(("repair_vias".into(), Json::n(*r)));
                }
                // Screening is opt-in; canonical documents from before the
                // prefilter existed must keep their bytes.
                if let Some(s) = screening {
                    pairs.push(("screening".into(), s.to_json()));
                }
                pairs.push(("solver".into(), solver.to_json()));
            }
            JobBody::Fea {
                array,
                pattern,
                resolution,
                threads,
                use_cache,
                ordering,
                kernels,
            } => {
                let mut solver = vec![("ordering".to_owned(), Json::s(*ordering))];
                // Same rule as `SolverSpec::to_json`: `auto` stays implicit.
                if *kernels != "auto" {
                    solver.push(("kernels".into(), Json::s(*kernels)));
                }
                pairs.push(("kind".into(), Json::s("fea")));
                pairs.push(("array".into(), Json::s(array)));
                pairs.push(("pattern".into(), Json::s(pattern)));
                pairs.push(("resolution".into(), Json::n(*resolution)));
                pairs.push(("threads".into(), Json::n(*threads as f64)));
                pairs.push(("use_cache".into(), Json::Bool(*use_cache)));
                pairs.push(("solver".into(), Json::Obj(solver)));
            }
        }
    }

    fn resolve(&self) -> Result<ResolvedJob, SpecError> {
        match self {
            JobBody::Characterize(mc) => Ok(ResolvedJob::Characterize(resolve_mc(mc)?)),
            JobBody::Analyze {
                mc,
                deck,
                grid_trials,
                repair_vias,
                screening,
                solver,
            } => Ok(ResolvedJob::Analyze(ResolvedAnalyze {
                mc: resolve_mc(mc)?,
                deck: deck.clone(),
                grid_trials: *grid_trials,
                repair_vias: *repair_vias,
                screening: *screening,
                ordering: ordering_of(solver.ordering),
                method: solver.method,
            })),
            JobBody::Fea {
                array,
                pattern,
                resolution,
                threads,
                use_cache,
                ordering,
                ..
            } => Ok(ResolvedJob::Fea(ResolvedFea {
                array: array.clone(),
                pattern: pattern.clone(),
                geometry: geometry_of(array)?,
                intersection: pattern_of(pattern)?,
                resolution: *resolution,
                threads: *threads,
                use_cache: *use_cache,
                ordering: ordering_of(ordering),
            })),
        }
    }
}

fn resolve_mc(mc: &McParams) -> Result<ResolvedMc, SpecError> {
    let intersection = pattern_of(&mc.pattern)?;
    let config = match mc.array.as_str() {
        "1x1" => ViaArrayConfig::paper_1x1(intersection),
        "4x4" => ViaArrayConfig::paper_4x4(intersection),
        "8x8" => ViaArrayConfig::paper_8x8(intersection),
        other => {
            return Err(SpecError::field(
                "array",
                format!("unknown array `{other}` (expected 1x1, 4x4 or 8x8)"),
            ))
        }
    };
    let criterion = match mc.criterion.as_str() {
        "wl" => FailureCriterion::WeakestLink,
        "r2x" => FailureCriterion::ResistanceRatio(2.0),
        "rinf" => FailureCriterion::OpenCircuit,
        other => {
            return Err(SpecError::field(
                "criterion",
                format!("unknown criterion `{other}` (expected wl, r2x or rinf)"),
            ))
        }
    };
    let mut runtime = RuntimeConfig::threaded(mc.threads);
    if let Some(hw) = mc.target_ci {
        runtime = runtime.with_early_stop(EarlyStop::to_half_width(hw));
    }
    Ok(ResolvedMc {
        array: mc.array.clone(),
        pattern: mc.pattern.clone(),
        criterion_label: mc.criterion.clone(),
        config,
        criterion,
        runtime,
        trials: mc.trials,
        seed: mc.seed,
        current_density: mc.current_density.unwrap_or(REFERENCE_CURRENT_DENSITY),
        variation: mc.variation,
    })
}

fn geometry_of(array: &str) -> Result<ViaArrayGeometry, SpecError> {
    match array {
        "1x1" => Ok(ViaArrayGeometry::paper_1x1()),
        "4x4" => Ok(ViaArrayGeometry::paper_4x4()),
        "8x8" => Ok(ViaArrayGeometry::paper_8x8()),
        other => Err(SpecError::field(
            "array",
            format!("unknown array `{other}` (expected 1x1, 4x4 or 8x8)"),
        )),
    }
}

fn pattern_of(pattern: &str) -> Result<IntersectionPattern, SpecError> {
    match pattern {
        "plus" => Ok(IntersectionPattern::Plus),
        "tee" => Ok(IntersectionPattern::Tee),
        "ell" => Ok(IntersectionPattern::Ell),
        other => Err(SpecError::field(
            "pattern",
            format!("unknown pattern `{other}` (expected plus, tee or ell)"),
        )),
    }
}

const MC_KEYS: [&str; 11] = [
    "schema",
    "kind",
    "array",
    "pattern",
    "criterion",
    "trials",
    "seed",
    "threads",
    "target_ci",
    "current_density",
    "variation",
];

fn push_mc(pairs: &mut Vec<(String, Json)>, mc: &McParams) {
    pairs.push(("array".into(), Json::s(&mc.array)));
    pairs.push(("pattern".into(), Json::s(&mc.pattern)));
    pairs.push(("criterion".into(), Json::s(&mc.criterion)));
    pairs.push(("trials".into(), Json::n(mc.trials as f64)));
    pairs.push(("seed".into(), Json::n(mc.seed as f64)));
    pairs.push(("threads".into(), Json::n(mc.threads as f64)));
    if let Some(ci) = mc.target_ci {
        pairs.push(("target_ci".into(), Json::n(ci)));
    }
    // Emitted only when set: older canonical spec documents (and their
    // byte-exact tests) predate the key and must keep re-parsing.
    if let Some(j) = mc.current_density {
        pairs.push(("current_density".into(), Json::n(j)));
    }
    // Same rule: the block is materialized only when the client asked for
    // variation, so unvaried documents keep their bytes.
    if let Some(v) = mc.variation {
        pairs.push(("variation".into(), v.to_json()));
    }
}

fn mc_params(doc: &Json) -> Result<McParams, SpecError> {
    Ok(McParams {
        array: get_array_label(doc)?,
        pattern: get_pattern_label(doc)?,
        criterion: {
            let c = get_str(doc, "criterion")?.unwrap_or("rinf");
            if !matches!(c, "wl" | "r2x" | "rinf") {
                return Err(SpecError::field(
                    "criterion",
                    format!("unknown criterion `{c}` (expected wl, r2x or rinf)"),
                ));
            }
            c.to_owned()
        },
        trials: get_usize(doc, "trials", 2000, 1, MAX_TRIALS)?,
        seed: get_u64(doc, "seed", 1)?,
        threads: get_usize(doc, "threads", 1, 1, MAX_THREADS)?,
        // Positivity and finiteness are enforced by get_pos_f64.
        target_ci: get_pos_f64(doc, "target_ci")?,
        current_density: get_pos_f64(doc, "current_density")?,
        variation: get_variation(doc)?,
    })
}

/// Parses the optional top-level `schema` key shared by every spec kind.
fn get_schema(doc: &Json) -> Result<Option<u64>, SpecError> {
    match doc.get("schema") {
        None => Ok(None),
        Some(v) => {
            let n = v.as_u64().ok_or_else(|| {
                SpecError::field("schema", "`schema` must be a non-negative integer")
            })?;
            if n != SCHEMA_VERSION {
                return Err(SpecError::field(
                    "schema",
                    format!("unsupported spec schema {n} (supported: {SCHEMA_VERSION})"),
                ));
            }
            Ok(Some(n))
        }
    }
}

/// Parses the optional `variation` block of a `characterize` or `analyze`
/// spec.
fn get_variation(doc: &Json) -> Result<Option<VariationSpec>, SpecError> {
    let Some(block) = doc.get("variation") else {
        return Ok(None);
    };
    let Json::Obj(pairs) = block else {
        return Err(SpecError::field(
            "variation",
            "`variation` must be an object",
        ));
    };
    let mut variation = VariationSpec::default();
    for (key, value) in pairs {
        match key.as_str() {
            "edge_current_factor" => {
                variation.edge_current_factor = variation_magnitude(key, value, 10.0)?
            }
            "temperature_sigma_c" => {
                variation.temperature_sigma_c = variation_magnitude(key, value, 100.0)?
            }
            "linewidth_sigma" => variation.linewidth_sigma = variation_magnitude(key, value, 0.5)?,
            "variance_analysis" => {
                variation.variance_analysis = value.as_bool().ok_or_else(|| {
                    SpecError::field(
                        "variation.variance_analysis",
                        "`variation.variance_analysis` must be a boolean",
                    )
                })?
            }
            other => {
                return Err(SpecError::field(
                    format!("variation.{other}"),
                    format!("unknown key `variation.{other}`"),
                ))
            }
        }
    }
    Ok(Some(variation))
}

/// A non-negative, bounded variation magnitude; zero is meaningful (the
/// sub-stream layout without the perturbation).
fn variation_magnitude(key: &str, value: &Json, max: f64) -> Result<f64, SpecError> {
    let v = value.as_f64().ok_or_else(|| {
        SpecError::field(
            format!("variation.{key}"),
            format!("`variation.{key}` must be a number"),
        )
    })?;
    if !v.is_finite() || !(0.0..=max).contains(&v) {
        return Err(SpecError::field(
            format!("variation.{key}"),
            format!("`variation.{key}` = {v} out of range [0, {max}]"),
        ));
    }
    Ok(v)
}

fn get_array_label(doc: &Json) -> Result<String, SpecError> {
    let a = get_str(doc, "array")?.unwrap_or("4x4");
    if !matches!(a, "1x1" | "4x4" | "8x8") {
        return Err(SpecError::field(
            "array",
            format!("unknown array `{a}` (expected 1x1, 4x4 or 8x8)"),
        ));
    }
    Ok(a.to_owned())
}

fn get_pattern_label(doc: &Json) -> Result<String, SpecError> {
    let p = get_str(doc, "pattern")?.unwrap_or("plus");
    if !matches!(p, "plus" | "tee" | "ell") {
        return Err(SpecError::field(
            "pattern",
            format!("unknown pattern `{p}` (expected plus, tee or ell)"),
        ));
    }
    Ok(p.to_owned())
}

/// Which `solver` keys one spec kind exposes; the one shared sub-parser
/// below serves every kind with a solver block.
struct SolverProfile {
    /// Whether the supernode toggle may vary per job.
    supernodal: bool,
    /// Whether the engine of the grid's nominal solve (`method`) may be
    /// set.
    method: bool,
    /// Appended to unknown-or-disallowed-key messages to say why.
    rejection_note: &'static str,
}

/// `analyze` exposes every solver knob, including the `method` of the
/// grid's nominal solve.
const ANALYZE_SOLVER: SolverProfile = SolverProfile {
    supernodal: true,
    method: true,
    rejection_note: "",
};

/// `fea` exposes only `ordering` and `kernels`: the stress cache keys on
/// the ordering alone, so only knobs that cannot change cached fields may
/// vary per job.
const FEA_SOLVER: SolverProfile = SolverProfile {
    supernodal: false,
    method: false,
    rejection_note: " (fea accepts only `ordering` and `kernels`)",
};

/// Parses a `solver` block under the given profile. Every spec kind's
/// solver block funnels through here, so `solver.<field>` attribution and
/// label vocabularies stay identical across kinds.
fn get_solver(doc: &Json, profile: &SolverProfile) -> Result<SolverSpec, SpecError> {
    let Some(block) = doc.get("solver") else {
        return Ok(SolverSpec::default());
    };
    let Json::Obj(pairs) = block else {
        return Err(SpecError::field("solver", "`solver` must be an object"));
    };
    let mut solver = SolverSpec::default();
    for (key, value) in pairs {
        match key.as_str() {
            "ordering" => solver.ordering = parse_ordering(value)?,
            "supernodal" if profile.supernodal => {
                solver.supernodal = value.as_bool().ok_or_else(|| {
                    SpecError::field("solver.supernodal", "`solver.supernodal` must be a boolean")
                })?
            }
            "kernels" => solver.kernels = parse_kernels(value)?,
            "method" if profile.method => solver.method = parse_method(value)?,
            other => {
                return Err(SpecError::field(
                    format!("solver.{other}"),
                    format!("unknown key `solver.{other}`{}", profile.rejection_note),
                ))
            }
        }
    }
    Ok(solver)
}

/// Parses the optional `screening` block of an `analyze` spec.
fn get_screening(doc: &Json) -> Result<Option<ScreeningSpec>, SpecError> {
    let Some(block) = doc.get("screening") else {
        return Ok(None);
    };
    let Json::Obj(pairs) = block else {
        return Err(SpecError::field(
            "screening",
            "`screening` must be an object",
        ));
    };
    let mut screening = ScreeningSpec::default();
    for (key, value) in pairs {
        match key.as_str() {
            "top_k" => {
                let k = value.as_u64().ok_or_else(|| {
                    SpecError::field(
                        "screening.top_k",
                        "`screening.top_k` must be a positive integer",
                    )
                })?;
                if k == 0 {
                    return Err(SpecError::field(
                        "screening.top_k",
                        "`screening.top_k` must be at least 1",
                    ));
                }
                screening.top_k = Some(usize::try_from(k).map_err(|_| {
                    SpecError::field("screening.top_k", "`screening.top_k` too large")
                })?);
            }
            "stress_threshold" => {
                let s = value.as_f64().ok_or_else(|| {
                    SpecError::field(
                        "screening.stress_threshold",
                        "`screening.stress_threshold` must be a number (Pa)",
                    )
                })?;
                if !s.is_finite() || s <= 0.0 {
                    return Err(SpecError::field(
                        "screening.stress_threshold",
                        "`screening.stress_threshold` must be positive",
                    ));
                }
                screening.stress_threshold = Some(s);
            }
            other => {
                return Err(SpecError::field(
                    format!("screening.{other}"),
                    format!("unknown key `screening.{other}`"),
                ))
            }
        }
    }
    Ok(Some(screening))
}

/// Parses `solver.ordering` into its canonical label (see
/// [`SolverSpec::ordering`]).
fn parse_ordering(value: &Json) -> Result<&'static str, SpecError> {
    let s = value
        .as_str()
        .ok_or_else(|| SpecError::field("solver.ordering", "`solver.ordering` must be a string"))?;
    ["natural", "rcm", "amd", "nd"]
        .into_iter()
        .find(|&label| label == s)
        .ok_or_else(|| {
            SpecError::field(
                "solver.ordering",
                format!("unknown ordering `{s}` (expected natural, rcm, amd or nd)"),
            )
        })
}

/// The ordering an accepted `solver.ordering` label selects: `natural`
/// and `rcm` select the default.
fn ordering_of(label: &str) -> Ordering {
    Ordering::parse(label).unwrap_or_default()
}

fn parse_method(value: &Json) -> Result<Method, SpecError> {
    let s = value
        .as_str()
        .ok_or_else(|| SpecError::field("solver.method", "`solver.method` must be a string"))?;
    Method::parse(s).ok_or_else(|| {
        SpecError::field(
            "solver.method",
            format!("unknown method `{s}` (expected auto, direct or cg)"),
        )
    })
}

/// Parses `solver.kernels` into its canonical label (see
/// [`SolverSpec::kernels`]).
fn parse_kernels(value: &Json) -> Result<&'static str, SpecError> {
    let s = value
        .as_str()
        .ok_or_else(|| SpecError::field("solver.kernels", "`solver.kernels` must be a string"))?;
    ["auto", "scalar", "blocked"]
        .into_iter()
        .find(|&label| label == s)
        .ok_or_else(|| {
            SpecError::field(
                "solver.kernels",
                format!("unknown kernel backend `{s}` (expected auto, scalar or blocked)"),
            )
        })
}

fn get_str<'a>(doc: &'a Json, key: &str) -> Result<Option<&'a str>, SpecError> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| SpecError::field(key, format!("`{key}` must be a string"))),
    }
}

fn get_usize(
    doc: &Json,
    key: &str,
    default: usize,
    min: usize,
    max: usize,
) -> Result<usize, SpecError> {
    let v = match doc.get(key) {
        None => return Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| {
            SpecError::field(key, format!("`{key}` must be a non-negative integer"))
        })?,
    };
    let v = usize::try_from(v).map_err(|_| SpecError::field(key, format!("`{key}` too large")))?;
    if v < min || v > max {
        return Err(SpecError::field(
            key,
            format!("`{key}` = {v} out of range [{min}, {max}]"),
        ));
    }
    Ok(v)
}

fn get_u64(doc: &Json, key: &str, default: u64) -> Result<u64, SpecError> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| {
            SpecError::field(key, format!("`{key}` must be a non-negative integer"))
        }),
    }
}

fn get_pos_f64(doc: &Json, key: &str) -> Result<Option<f64>, SpecError> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => {
            let v = v
                .as_f64()
                .ok_or_else(|| SpecError::field(key, format!("`{key}` must be a number")))?;
            if !v.is_finite() || v <= 0.0 {
                return Err(SpecError::field(key, format!("`{key}` must be positive")));
            }
            Ok(Some(v))
        }
    }
}

fn reject_unknown_keys(doc: &Json, allowed: &[&str]) -> Result<(), SpecError> {
    let Json::Obj(pairs) = doc else {
        return Ok(());
    };
    for (key, _) in pairs {
        if !allowed.contains(&key.as_str()) {
            return Err(SpecError::field(key, format!("unknown key `{key}`")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use proptest::prelude::*;

    fn spec(text: &str) -> Result<JobSpec, SpecError> {
        JobSpec::from_json(&json::parse(text).unwrap())
    }

    #[test]
    fn characterize_defaults_are_materialized() {
        let s = spec(r#"{"kind":"characterize"}"#).unwrap();
        let JobBody::Characterize(mc) = &s.body else {
            panic!("wrong kind")
        };
        assert_eq!(
            (
                mc.array.as_str(),
                mc.pattern.as_str(),
                mc.criterion.as_str()
            ),
            ("4x4", "plus", "rinf")
        );
        assert_eq!((mc.trials, mc.seed, mc.threads), (2000, 1, 1));
        assert_eq!(
            s.to_json().to_string(),
            r#"{"kind":"characterize","array":"4x4","pattern":"plus","criterion":"rinf","trials":2000,"seed":1,"threads":1}"#
        );
        // The canonical form re-parses to the same spec.
        assert_eq!(spec(&s.to_json().to_string()).unwrap(), s);
    }

    #[test]
    fn analyze_requires_exactly_one_deck_source() {
        assert!(spec(r#"{"kind":"analyze"}"#).is_err());
        assert!(spec(r#"{"kind":"analyze","benchmark":"pg1","netlist":"R1 a 0 1"}"#).is_err());
        assert!(spec(r#"{"kind":"analyze","benchmark":"pg9"}"#).is_err());
        let s = spec(r#"{"kind":"analyze","benchmark":"pg1","grid_trials":50,"repair_vias":0.5}"#)
            .unwrap();
        let JobBody::Analyze {
            deck,
            grid_trials,
            repair_vias,
            ..
        } = &s.body
        else {
            panic!("wrong kind")
        };
        assert_eq!(deck, &DeckSource::Benchmark("pg1".into()));
        assert_eq!(*grid_trials, 50);
        assert_eq!(*repair_vias, Some(0.5));
        assert_eq!(spec(&s.to_json().to_string()).unwrap(), s);
    }

    #[test]
    fn analyze_canonical_form_materializes_the_solver_block() {
        let s = spec(r#"{"kind":"analyze","benchmark":"pg2","grid_trials":10}"#).unwrap();
        assert_eq!(
            s.to_json().to_string(),
            r#"{"kind":"analyze","array":"4x4","pattern":"plus","criterion":"rinf","trials":2000,"seed":1,"threads":1,"grid_trials":10,"benchmark":"pg2","solver":{"ordering":"amd","supernodal":true}}"#
        );
        assert_eq!(spec(&s.to_json().to_string()).unwrap(), s);
    }

    /// Every `solver` block earlier releases accepted, with the canonical
    /// bytes `emgrid validate` printed for it then. `natural`, `rcm`,
    /// `supernodal` and `kernels` select nothing now, but each block still
    /// validates to those bytes (which sweep ids hash) and resolves to
    /// AMD unless it names `nd`.
    #[test]
    fn every_historical_solver_block_keeps_its_canonical_bytes() {
        const ANALYZE: &str = r#"{"kind":"analyze","array":"4x4","pattern":"plus","criterion":"rinf","trials":2000,"seed":1,"threads":1,"grid_trials":200,"benchmark":"pg1","solver":"#;
        const FEA: &str = r#"{"kind":"fea","array":"4x4","pattern":"plus","resolution":0.25,"threads":1,"use_cache":true,"solver":"#;
        let resolved = |o: &str| match o {
            "nd" => Ordering::Nd,
            _ => Ordering::Amd,
        };
        let mut checked = 0;
        for o in ["natural", "rcm", "amd", "nd"] {
            for supernodal in [None, Some(true), Some(false)] {
                for kernels in [None, Some("scalar")] {
                    let head = match supernodal {
                        Some(b) => format!(r#"{{"ordering":"{o}","supernodal":{b}"#),
                        None => format!(r#"{{"ordering":"{o}""#),
                    };
                    let tail = kernels.map_or(String::new(), |k| format!(r#","kernels":"{k}""#));
                    let text = format!(
                        r#"{{"kind":"analyze","benchmark":"pg1","solver":{head}{tail}}}}}"#
                    );
                    let canonical = format!(
                        r#"{ANALYZE}{{"ordering":"{o}","supernodal":{}{tail}}}}}"#,
                        supernodal.unwrap_or(true)
                    );
                    let s = spec(&text).unwrap();
                    assert_eq!(s.to_json().to_string(), canonical, "{text}");
                    assert_eq!(spec(&canonical).unwrap(), s, "{text}");
                    let ResolvedJob::Analyze(a) = s.resolve().unwrap() else {
                        panic!("wrong kind")
                    };
                    assert_eq!(a.ordering, resolved(o), "{text}");
                    checked += 1;
                }
            }
            for kernels in [None, Some("auto"), Some("scalar"), Some("blocked")] {
                let block = match kernels {
                    Some(k) => format!(r#"{{"ordering":"{o}","kernels":"{k}"}}"#),
                    None => format!(r#"{{"ordering":"{o}"}}"#),
                };
                let text = format!(r#"{{"kind":"fea","solver":{block}}}"#);
                // `auto` stays implicit in the canonical form.
                let canonical = match kernels {
                    Some("auto") | None => format!(r#"{FEA}{{"ordering":"{o}"}}}}"#),
                    Some(k) => format!(r#"{FEA}{{"ordering":"{o}","kernels":"{k}"}}}}"#),
                };
                let s = spec(&text).unwrap();
                assert_eq!(s.to_json().to_string(), canonical, "{text}");
                assert_eq!(spec(&canonical).unwrap(), s, "{text}");
                let ResolvedJob::Fea(f) = s.resolve().unwrap() else {
                    panic!("wrong kind")
                };
                assert_eq!(f.ordering, resolved(o), "{text}");
                checked += 1;
            }
        }
        assert_eq!(checked, 40);
    }

    #[test]
    fn solver_block_names_bad_nested_fields() {
        let e = spec(r#"{"kind":"analyze","benchmark":"pg1","solver":{"ordering":"best"}}"#)
            .unwrap_err();
        assert_eq!(e.field.as_deref(), Some("solver.ordering"));
        let e =
            spec(r#"{"kind":"analyze","benchmark":"pg1","solver":{"supernodal":3}}"#).unwrap_err();
        assert_eq!(e.field.as_deref(), Some("solver.supernodal"));
        let e = spec(r#"{"kind":"analyze","benchmark":"pg1","solver":{"threads":2}}"#).unwrap_err();
        assert_eq!(e.field.as_deref(), Some("solver.threads"));
        let e = spec(r#"{"kind":"analyze","benchmark":"pg1","solver":{"kernels":"simd"}}"#)
            .unwrap_err();
        assert_eq!(e.field.as_deref(), Some("solver.kernels"));
        let e = spec(r#"{"kind":"analyze","benchmark":"pg1","solver":"amd"}"#).unwrap_err();
        assert_eq!(e.field.as_deref(), Some("solver"));
        // `characterize` has no grid solves to steer; the key is unknown.
        assert!(spec(r#"{"kind":"characterize","solver":{"ordering":"amd"}}"#).is_err());
    }

    #[test]
    fn screening_block_round_trips_and_validates() {
        let s = spec(
            r#"{"kind":"analyze","benchmark":"pg5","screening":{"top_k":100,"stress_threshold":50000000}}"#,
        )
        .unwrap();
        let ResolvedJob::Analyze(a) = s.resolve().unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(
            a.screening,
            Some(ScreeningSpec {
                top_k: Some(100),
                stress_threshold: Some(5e7),
            })
        );
        assert_eq!(
            s.to_json().to_string(),
            r#"{"kind":"analyze","array":"4x4","pattern":"plus","criterion":"rinf","trials":2000,"seed":1,"threads":1,"grid_trials":200,"benchmark":"pg5","screening":{"top_k":100,"stress_threshold":50000000},"solver":{"ordering":"amd","supernodal":true}}"#
        );
        assert_eq!(spec(&s.to_json().to_string()).unwrap(), s);

        // An empty block is valid: screen and record, select everything.
        let s = spec(r#"{"kind":"analyze","benchmark":"pg1","screening":{}}"#).unwrap();
        let ResolvedJob::Analyze(a) = s.resolve().unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(a.screening, Some(ScreeningSpec::default()));
        assert!(s.to_json().to_string().contains(r#""screening":{}"#));
        assert_eq!(spec(&s.to_json().to_string()).unwrap(), s);

        // Absent: canonical form omits the key entirely.
        let s = spec(r#"{"kind":"analyze","benchmark":"pg1"}"#).unwrap();
        assert!(!s.to_json().to_string().contains("screening"));

        for (bad, field) in [
            (
                r#"{"kind":"analyze","benchmark":"pg1","screening":7}"#,
                "screening",
            ),
            (
                r#"{"kind":"analyze","benchmark":"pg1","screening":{"top_k":0}}"#,
                "screening.top_k",
            ),
            (
                r#"{"kind":"analyze","benchmark":"pg1","screening":{"top_k":2.5}}"#,
                "screening.top_k",
            ),
            (
                r#"{"kind":"analyze","benchmark":"pg1","screening":{"stress_threshold":-1}}"#,
                "screening.stress_threshold",
            ),
            (
                r#"{"kind":"analyze","benchmark":"pg1","screening":{"mode":"fast"}}"#,
                "screening.mode",
            ),
            (r#"{"kind":"characterize","screening":{}}"#, "screening"),
        ] {
            let e = spec(bad).unwrap_err();
            assert_eq!(e.field.as_deref(), Some(field), "{bad}");
        }
    }

    #[test]
    fn solver_method_round_trips_and_stays_implicit_when_auto() {
        let s = spec(r#"{"kind":"analyze","benchmark":"pg1","solver":{"method":"cg"}}"#).unwrap();
        let ResolvedJob::Analyze(a) = s.resolve().unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(a.method, Method::Cg);
        assert!(s.to_json().to_string().contains(r#""method":"cg""#));
        assert_eq!(spec(&s.to_json().to_string()).unwrap(), s);

        // `auto` is the default and never materialized.
        let s = spec(r#"{"kind":"analyze","benchmark":"pg1","solver":{"method":"auto"}}"#).unwrap();
        assert!(!s.to_json().to_string().contains("method"));
        let ResolvedJob::Analyze(a) = s.resolve().unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(a.method, Method::Auto);

        let e =
            spec(r#"{"kind":"analyze","benchmark":"pg1","solver":{"method":"gpu"}}"#).unwrap_err();
        assert_eq!(e.field.as_deref(), Some("solver.method"));
    }

    #[test]
    fn nd_ordering_and_chip_scale_benchmarks_are_accepted() {
        let s = spec(
            r#"{"kind":"analyze","benchmark":"pg1m","screening":{"top_k":64},"solver":{"ordering":"nd"}}"#,
        )
        .unwrap();
        let ResolvedJob::Analyze(a) = s.resolve().unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(a.ordering, Ordering::Nd);
        assert_eq!(a.deck, DeckSource::Benchmark("pg1m".into()));
        assert_eq!(spec(&s.to_json().to_string()).unwrap(), s);
        assert!(spec(r#"{"kind":"analyze","benchmark":"pg100k"}"#).is_ok());
        assert!(spec(r#"{"kind":"fea","solver":{"ordering":"nd"}}"#).is_ok());
        let e = spec(r#"{"kind":"analyze","benchmark":"pg9"}"#).unwrap_err();
        assert!(e.message.contains("pg100k"), "{}", e.message);
    }

    #[test]
    fn fea_solver_block_rejects_the_supernode_toggle() {
        // The supernode toggle was never part of the stress-cache key, so
        // an fea spec may not set it.
        let e = spec(r#"{"kind":"fea","solver":{"supernodal":false}}"#).unwrap_err();
        assert_eq!(e.field.as_deref(), Some("solver.supernodal"));
    }

    #[test]
    fn kernels_key_round_trips_and_stays_implicit_when_auto() {
        // An explicit non-default backend is materialized in canonical form.
        let s = spec(r#"{"kind":"fea","solver":{"kernels":"scalar"}}"#).unwrap();
        assert!(matches!(s.resolve(), Ok(ResolvedJob::Fea(_))));
        assert_eq!(
            s.to_json().to_string(),
            r#"{"kind":"fea","array":"4x4","pattern":"plus","resolution":0.25,"threads":1,"use_cache":true,"solver":{"ordering":"amd","kernels":"scalar"}}"#
        );
        assert_eq!(spec(&s.to_json().to_string()).unwrap(), s);

        // Same for the analyze solver block; `auto` is never emitted.
        let s =
            spec(r#"{"kind":"analyze","benchmark":"pg1","solver":{"kernels":"blocked"}}"#).unwrap();
        assert!(matches!(s.resolve(), Ok(ResolvedJob::Analyze(_))));
        assert!(s.to_json().to_string().contains(r#""kernels":"blocked""#));
        assert_eq!(spec(&s.to_json().to_string()).unwrap(), s);
        let e = spec(r#"{"kind":"fea","solver":{"kernels":"avx"}}"#).unwrap_err();
        assert_eq!(e.field.as_deref(), Some("solver.kernels"));
    }

    #[test]
    fn fea_round_trips_and_bounds_resolution() {
        let s = spec(r#"{"kind":"fea","array":"1x1","resolution":0.5,"use_cache":false}"#).unwrap();
        assert_eq!(spec(&s.to_json().to_string()).unwrap(), s);
        assert!(spec(r#"{"kind":"fea","resolution":0.001}"#).is_err());
        assert!(spec(r#"{"kind":"fea","resolution":-1}"#).is_err());
    }

    #[test]
    fn strict_validation_rejects_bad_fields() {
        for bad in [
            r#"[1,2]"#,
            r#"{"trials":10}"#,
            r#"{"kind":"mine"}"#,
            r#"{"kind":"characterize","typo":1}"#,
            r#"{"kind":"characterize","array":"2x2"}"#,
            r#"{"kind":"characterize","pattern":"round"}"#,
            r#"{"kind":"characterize","criterion":"best"}"#,
            r#"{"kind":"characterize","trials":0}"#,
            r#"{"kind":"characterize","trials":10000000}"#,
            r#"{"kind":"characterize","trials":2.5}"#,
            r#"{"kind":"characterize","seed":-1}"#,
            r#"{"kind":"characterize","threads":100}"#,
            r#"{"kind":"characterize","target_ci":0}"#,
            r#"{"kind":"analyze","benchmark":"pg1","repair_vias":-0.5}"#,
        ] {
            assert!(spec(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn spec_errors_name_the_offending_field() {
        for (bad, field) in [
            (r#"{"trials":10}"#, Some("kind")),
            (r#"{"kind":"mine"}"#, Some("kind")),
            (r#"{"kind":"characterize","typo":1}"#, Some("typo")),
            (r#"{"kind":"characterize","array":"2x2"}"#, Some("array")),
            (r#"{"kind":"characterize","trials":0}"#, Some("trials")),
            (
                r#"{"kind":"characterize","target_ci":0}"#,
                Some("target_ci"),
            ),
            (r#"{"kind":"analyze","benchmark":"pg9"}"#, Some("benchmark")),
            (r#"{"kind":"analyze"}"#, None),
            (r#"[1,2]"#, None),
        ] {
            let e = spec(bad).unwrap_err();
            assert_eq!(e.field.as_deref(), field, "wrong field for {bad}: {e:?}");
            let rendered = e.to_json().to_string();
            assert!(rendered.starts_with(r#"{"error":"#), "{rendered}");
            assert_eq!(rendered.contains("field"), field.is_some(), "{rendered}");
        }
    }

    #[test]
    fn resolve_covers_all_labels_and_rejects_unknown_ones() {
        let s = spec(
            r#"{"kind":"characterize","array":"8x8","pattern":"tee","criterion":"r2x","threads":4,"target_ci":0.05}"#,
        )
        .unwrap();
        let ResolvedJob::Characterize(mc) = s.resolve().unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(mc.config.count(), 64);
        assert!(matches!(mc.criterion, FailureCriterion::ResistanceRatio(_)));
        assert_eq!(mc.runtime.threads, 4);
        assert!(mc.runtime.early_stop.is_some());
        assert_eq!(
            (mc.array.as_str(), mc.criterion_label.as_str()),
            ("8x8", "r2x")
        );

        let s = spec(r#"{"kind":"characterize","array":"1x1","pattern":"ell","criterion":"wl"}"#)
            .unwrap();
        let ResolvedJob::Characterize(mc) = s.resolve().unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(mc.config.count(), 1);
        assert!(matches!(mc.criterion, FailureCriterion::WeakestLink));
        assert!(mc.runtime.early_stop.is_none());

        // A hand-built spec bypasses from_json's label screening; resolve
        // must still name the bad field instead of defaulting.
        let bad = JobSpec::from(JobBody::Characterize(McParams {
            array: "9x9".into(),
            pattern: "plus".into(),
            criterion: "rinf".into(),
            trials: 1,
            seed: 1,
            threads: 1,
            target_ci: None,
            current_density: None,
            variation: None,
        }));
        let e = bad.resolve().unwrap_err();
        assert_eq!(e.field.as_deref(), Some("array"));
    }

    #[test]
    fn current_density_is_optional_and_round_trips() {
        // Absent: canonical form omits the key and resolve falls back to
        // the reference density.
        let s = spec(r#"{"kind":"characterize"}"#).unwrap();
        assert!(!s.to_json().to_string().contains("current_density"));
        let ResolvedJob::Characterize(mc) = s.resolve().unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(mc.current_density, REFERENCE_CURRENT_DENSITY);

        // Present: the canonical form keeps it and it survives re-parsing.
        let s = spec(r#"{"kind":"characterize","current_density":2e10}"#).unwrap();
        assert_eq!(
            s.to_json().to_string(),
            r#"{"kind":"characterize","array":"4x4","pattern":"plus","criterion":"rinf","trials":2000,"seed":1,"threads":1,"current_density":20000000000}"#
        );
        assert_eq!(spec(&s.to_json().to_string()).unwrap(), s);
        let ResolvedJob::Characterize(mc) = s.resolve().unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(mc.current_density, 2e10);

        // Analyze accepts it too, and bad values name the field.
        let s = spec(r#"{"kind":"analyze","benchmark":"pg1","current_density":5e9}"#).unwrap();
        assert_eq!(spec(&s.to_json().to_string()).unwrap(), s);
        for bad in [
            r#"{"kind":"characterize","current_density":0}"#,
            r#"{"kind":"characterize","current_density":-1e10}"#,
            r#"{"kind":"characterize","current_density":"high"}"#,
        ] {
            let e = spec(bad).unwrap_err();
            assert_eq!(e.field.as_deref(), Some("current_density"), "{bad}");
        }
        // fea has no current to carry; the key stays unknown there.
        assert!(spec(r#"{"kind":"fea","current_density":1e10}"#).is_err());
    }

    #[test]
    fn schema_version_is_accepted_and_materialized_when_present() {
        // Absent: implicit version 1, canonical bytes unchanged (the
        // byte-exact assertions elsewhere in this module pin that).
        let implicit = spec(r#"{"kind":"characterize"}"#).unwrap();
        assert_eq!(implicit.schema, None);
        assert!(!implicit.to_json().to_string().contains("schema"));

        // Present: accepted, materialized first, round-trips.
        let pinned = spec(r#"{"schema":1,"kind":"characterize"}"#).unwrap();
        assert_eq!(pinned.schema, Some(SCHEMA_VERSION));
        assert_eq!(
            pinned.to_json().to_string(),
            r#"{"schema":1,"kind":"characterize","array":"4x4","pattern":"plus","criterion":"rinf","trials":2000,"seed":1,"threads":1}"#
        );
        assert_eq!(spec(&pinned.to_json().to_string()).unwrap(), pinned);
        // The two forms carry the same body but are distinct documents.
        assert_eq!(pinned.body, implicit.body);
        assert_ne!(pinned, implicit);

        // Every kind takes the key.
        assert!(spec(r#"{"schema":1,"kind":"analyze","benchmark":"pg1"}"#).is_ok());
        assert!(spec(r#"{"schema":1,"kind":"fea"}"#).is_ok());

        // Unknown versions and malformed values are structured errors
        // naming the field and the supported range.
        for bad in [
            r#"{"schema":2,"kind":"characterize"}"#,
            r#"{"schema":0,"kind":"characterize"}"#,
        ] {
            let e = spec(bad).unwrap_err();
            assert_eq!(e.field.as_deref(), Some("schema"), "{bad}");
            assert!(e.message.contains("supported: 1"), "{}", e.message);
        }
        let e = spec(r#"{"schema":"one","kind":"characterize"}"#).unwrap_err();
        assert_eq!(e.field.as_deref(), Some("schema"));
    }

    #[test]
    fn variation_block_round_trips_with_defaults_materialized() {
        // Absent: canonical form omits the block and nothing resolves.
        let s = spec(r#"{"kind":"characterize"}"#).unwrap();
        assert!(!s.to_json().to_string().contains("variation"));
        let ResolvedJob::Characterize(mc) = s.resolve().unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(mc.variation, None);

        // Present: defaults are materialized in fixed key order.
        let s = spec(r#"{"kind":"characterize","variation":{"edge_current_factor":0.5}}"#).unwrap();
        assert_eq!(
            s.to_json().to_string(),
            r#"{"kind":"characterize","array":"4x4","pattern":"plus","criterion":"rinf","trials":2000,"seed":1,"threads":1,"variation":{"edge_current_factor":0.5,"temperature_sigma_c":0,"linewidth_sigma":0,"variance_analysis":false}}"#
        );
        assert_eq!(spec(&s.to_json().to_string()).unwrap(), s);
        let ResolvedJob::Characterize(mc) = s.resolve().unwrap() else {
            panic!("wrong kind")
        };
        let v = mc.variation.unwrap();
        assert_eq!(v.edge_current_factor, 0.5);
        assert_eq!(v.to_via().edge_current_factor, 0.5);

        // An empty block is meaningful: sub-stream layout, no perturbation.
        let s = spec(r#"{"kind":"characterize","variation":{}}"#).unwrap();
        let ResolvedJob::Characterize(mc) = s.resolve().unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(mc.variation, Some(VariationSpec::default()));

        // Analyze shares the block; it rides along with push_mc.
        let s = spec(
            r#"{"kind":"analyze","benchmark":"pg1","variation":{"temperature_sigma_c":8,"variance_analysis":true}}"#,
        )
        .unwrap();
        assert_eq!(spec(&s.to_json().to_string()).unwrap(), s);
        let ResolvedJob::Analyze(a) = s.resolve().unwrap() else {
            panic!("wrong kind")
        };
        assert!(a.mc.variation.unwrap().variance_analysis);
    }

    #[test]
    fn variation_block_names_bad_nested_fields() {
        for (bad, field) in [
            (r#"{"kind":"characterize","variation":7}"#, "variation"),
            (
                r#"{"kind":"characterize","variation":{"edge_current_factor":-0.1}}"#,
                "variation.edge_current_factor",
            ),
            (
                r#"{"kind":"characterize","variation":{"temperature_sigma_c":500}}"#,
                "variation.temperature_sigma_c",
            ),
            (
                r#"{"kind":"characterize","variation":{"linewidth_sigma":"wide"}}"#,
                "variation.linewidth_sigma",
            ),
            (
                r#"{"kind":"characterize","variation":{"variance_analysis":1}}"#,
                "variation.variance_analysis",
            ),
            (
                r#"{"kind":"characterize","variation":{"vias":3}}"#,
                "variation.vias",
            ),
        ] {
            let e = spec(bad).unwrap_err();
            assert_eq!(e.field.as_deref(), Some(field), "{bad}");
        }
        // fea has no Monte Carlo; the key stays unknown there.
        assert!(spec(r#"{"kind":"fea","variation":{}}"#).is_err());
    }

    /// Every key the spec grammar knows, top-level and nested, plus one it
    /// does not.
    const SPEC_KEYS: &[&str] = &[
        "schema",
        "kind",
        "array",
        "pattern",
        "criterion",
        "trials",
        "seed",
        "threads",
        "target_ci",
        "current_density",
        "variation",
        "edge_current_factor",
        "temperature_sigma_c",
        "linewidth_sigma",
        "variance_analysis",
        "grid_trials",
        "benchmark",
        "netlist",
        "repair_vias",
        "screening",
        "top_k",
        "stress_threshold",
        "solver",
        "ordering",
        "supernodal",
        "kernels",
        "method",
        "resolution",
        "use_cache",
        "vias",
    ];

    /// Every label the grammar accepts somewhere, plus near misses.
    const SPEC_LABELS: &[&str] = &[
        "characterize",
        "analyze",
        "fea",
        "1x1",
        "4x4",
        "8x8",
        "3x3",
        "plus",
        "tee",
        "ell",
        "wl",
        "r2x",
        "rinf",
        "pg1",
        "pg100k",
        "pg1m",
        "pg9",
        "natural",
        "rcm",
        "amd",
        "nd",
        "auto",
        "direct",
        "cg",
        "scalar",
        "blocked",
        "V1 a 0 1\nR1 a b 1\nRv n1_0_0 n3_0_0 0.5\n",
        "",
    ];

    /// Numbers at and around every bound the validators check.
    const SPEC_NUMBERS: &[f64] = &[
        0.0,
        -0.0,
        1.0,
        2.0,
        -1.0,
        0.5,
        0.04,
        0.25,
        5.0,
        5.1,
        3.7,
        64.0,
        65.0,
        400.0,
        2000.0,
        1e6,
        1e6 + 1.0,
        1e10,
        2e10,
        9.007_199_254_740_993e15,
        1e300,
        -1e300,
        1e-300,
        5e-324,
    ];

    fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
        &items[rng.next_below(items.len() as u64) as usize]
    }

    /// A value biased towards what some key of the grammar accepts: a
    /// label, a boundary number, a boolean, or a nested block of spec keys.
    fn spec_value(rng: &mut TestRng, depth: usize) -> Json {
        match rng.next_below(if depth == 0 { 6 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.next_below(2) == 0),
            2 | 3 => Json::n(*pick(rng, SPEC_NUMBERS)),
            4 => Json::s(*pick(rng, SPEC_LABELS)),
            5 => Json::Arr(vec![Json::n(*pick(rng, SPEC_NUMBERS))]),
            _ => spec_object(rng, depth - 1),
        }
    }

    fn spec_object(rng: &mut TestRng, depth: usize) -> Json {
        Json::Obj(
            (0..rng.next_below(7))
                .map(|_| (pick(rng, SPEC_KEYS).to_string(), spec_value(rng, depth)))
                .collect(),
        )
    }

    /// A document that usually names a real kind, so the generated keys
    /// reach that kind's validators.
    fn spec_document(rng: &mut TestRng) -> Json {
        let mut doc = match spec_object(rng, 2) {
            Json::Obj(pairs) => pairs,
            _ => unreachable!("spec_object builds objects"),
        };
        if rng.next_below(8) != 0 {
            let kind = *pick(rng, &["characterize", "analyze", "fea"]);
            doc.retain(|(k, _)| k != "kind");
            doc.insert(0, ("kind".into(), Json::s(kind)));
            if kind == "analyze" && rng.next_below(4) != 0 {
                doc.retain(|(k, _)| k != "benchmark" && k != "netlist");
                doc.push(("benchmark".into(), Json::s("pg1")));
            }
        }
        Json::Obj(doc)
    }

    /// The job blocks of the committed sweep manifests and a spread of
    /// canonical documents: the starting points the mangler damages.
    fn committed_specs() -> Vec<String> {
        let sweeps = [
            include_str!("../../../examples/sweeps/fig08.json"),
            include_str!("../../../examples/sweeps/fig09.json"),
            include_str!("../../../examples/sweeps/screen_topk.json"),
            include_str!("../../../examples/sweeps/smoke.json"),
            include_str!("../../../examples/sweeps/variation_edge.json"),
        ];
        let mut specs: Vec<String> = sweeps
            .iter()
            .map(|text| json::parse(text).unwrap().get("job").unwrap().to_string())
            .collect();
        specs.extend(
            [
                r#"{"schema":1,"kind":"characterize","target_ci":0.05,"current_density":2e10}"#,
                r#"{"kind":"analyze","netlist":"V1 a 0 1\nR1 a b 1\n","repair_vias":0.5}"#,
                r#"{"kind":"analyze","benchmark":"pg1","solver":{"ordering":"nd","method":"cg","kernels":"scalar"}}"#,
                r#"{"kind":"fea","array":"8x8","resolution":0.4,"use_cache":false,"solver":{"ordering":"rcm"}}"#,
            ]
            .map(String::from),
        );
        specs
    }

    /// Damages a committed spec: half the time one field of the parsed
    /// document is dropped, replaced or joined by a generated one (so the
    /// damage reaches the field validators); otherwise the text itself is
    /// cut, grows a key or punctuation token, or has a byte overwritten.
    fn mangle(rng: &mut TestRng, text: &str) -> String {
        const PUNCT: &[&str] = &[
            "{", "}", "[", "]", ":", ",", "\"", "\\", "-", "e", "0", "9", ".",
        ];
        if rng.next_below(2) == 0 {
            let Ok(Json::Obj(mut pairs)) = json::parse(text) else {
                unreachable!("committed specs are objects")
            };
            let at = rng.next_below(pairs.len() as u64 + 1) as usize;
            match rng.next_below(3) {
                0 if at < pairs.len() => drop(pairs.remove(at)),
                1 if at < pairs.len() => pairs[at].1 = spec_value(rng, 1),
                _ => pairs.insert(at, (pick(rng, SPEC_KEYS).to_string(), spec_value(rng, 1))),
            }
            return Json::Obj(pairs).to_string();
        }
        let mut bytes = text.as_bytes().to_vec();
        let at = rng.next_below(bytes.len() as u64 + 1) as usize;
        match rng.next_below(4) {
            0 => {
                let end = (at + 1 + rng.next_below(12) as usize).min(bytes.len());
                bytes.drain(at.min(end)..end);
            }
            1 => {
                let token = format!("\"{}\"", pick(rng, SPEC_KEYS));
                bytes.splice(at..at, token.into_bytes());
            }
            2 => {
                let token = pick(rng, PUNCT).as_bytes().to_vec();
                bytes.splice(at..at, token);
            }
            _ => {
                if at < bytes.len() {
                    bytes[at] = rng.next_below(256) as u8;
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// The properties every document must meet: parsing never panics, an
    /// accepted spec resolves, and its canonical form parses back to the
    /// same spec and the same bytes.
    fn check_spec(doc: &Json) -> Result<(), TestCaseError> {
        let Ok(spec) = JobSpec::from_json(doc) else {
            return Ok(());
        };
        prop_assert!(spec.resolve().is_ok(), "accepted but unresolvable: {doc}");
        let canonical = spec.to_json();
        let again = JobSpec::from_json(&canonical);
        prop_assert_eq!(again.as_ref(), Ok(&spec));
        let bytes = canonical.to_string();
        prop_assert_eq!(again.unwrap().to_json().to_string(), bytes.clone());
        // The text form round-trips through the JSON parser too.
        prop_assert_eq!(JobSpec::from_json(&json::parse(&bytes).unwrap()), Ok(spec));
        Ok(())
    }

    #[test]
    fn generators_reach_accepted_specs() {
        // The properties below are only as strong as the share of cases
        // that get past validation: keep both generators well above zero.
        let mut rng = TestRng::from_name("spec-coverage");
        let specs = committed_specs();
        let (mut generated, mut mangled) = (0, 0);
        for _ in 0..1000 {
            generated += usize::from(JobSpec::from_json(&spec_document(&mut rng)).is_ok());
            let base = pick(&mut rng, &specs).clone();
            let text = mangle(&mut rng, &base);
            mangled +=
                usize::from(json::parse(&text).is_ok_and(|doc| JobSpec::from_json(&doc).is_ok()));
        }
        assert!(
            generated >= 50,
            "{generated} of 1000 generated documents accepted"
        );
        assert!(
            mangled >= 50,
            "{mangled} of 1000 mangled documents accepted"
        );
    }

    #[test]
    fn committed_specs_are_accepted() {
        for text in committed_specs() {
            let doc = json::parse(&text).unwrap();
            assert!(JobSpec::from_json(&doc).is_ok(), "{text}");
            check_spec(&doc).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn generated_documents_never_panic_and_accepted_ones_round_trip(
            doc in FnStrategy(spec_document),
        ) {
            check_spec(&doc)?;
        }

        #[test]
        fn mangled_committed_specs_never_panic_and_accepted_ones_round_trip(
            text in FnStrategy(|rng: &mut TestRng| {
                let specs = committed_specs();
                let base = pick(rng, &specs).clone();
                mangle(rng, &base)
            }),
        ) {
            if let Ok(doc) = json::parse(&text) {
                check_spec(&doc)?;
            }
        }
    }
}
