//! Shared parallel Monte Carlo runtime for the `emgrid` workspace.
//!
//! Both levels of the paper's hierarchical Monte Carlo (Algorithm 1) — the
//! via-array characterization in `emgrid-via` and the power-grid failure
//! simulation in `emgrid-pg` — are embarrassingly parallel over trials, but
//! trials have highly variable cost: each one walks a different-length
//! failure sequence. Static chunking leaves threads idle behind the longest
//! chunk; this crate replaces it with a **work-stealing trial scheduler**
//! built only on `std`:
//!
//! * **Work stealing.** Threads claim trial indices from a shared atomic
//!   counter, so a thread that drew cheap trials immediately picks up more
//!   work instead of waiting on a pre-assigned range.
//! * **Determinism.** Every trial runs on its own RNG derived from
//!   `(seed, trial_index)` via [`emgrid_stats::stream_rng`], and results
//!   are committed in trial order — so the output is **bit-identical for
//!   any thread count**, including the sequential path.
//! * **Streaming statistics.** Each committed trial pushes an observable
//!   (the engines use `ln TTF`) into a Welford accumulator
//!   ([`emgrid_stats::OnlineStats`]), giving an incremental lognormal fit
//!   after any number of trials.
//! * **Early termination.** With an [`EarlyStop`] target, trials run in
//!   deterministic batches and stop once the confidence interval on the
//!   streamed mean is tight enough — so a run burns only the trials its
//!   confidence target needs instead of a fixed budget. Because the
//!   decision is taken at batch boundaries on deterministically merged
//!   statistics, early-stopped runs are also thread-count invariant.
//! * **Diagnosable failures.** A panicking trial is caught, and the panic
//!   is re-raised on the caller's thread with the trial index and original
//!   payload message attached, instead of a bare "worker thread panicked".
//!
//! The scheduler is generic over the trial body; see [`run_trials`]. The
//! [`persist`] module is the one owner of persisted Monte Carlo state: the
//! [`Checkpoint`] codec both engines write and the atomic file write every
//! on-disk store uses.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use emgrid_stats::OnlineStats;

pub mod jobs;
pub mod obs;
pub mod par;
pub mod persist;
pub use jobs::{CancelToken, JobCtx, JobEngine, JobId, JobOutcome, JobStatus, SubmitError};
pub use par::{parallel_chunks_mut, parallel_fill, parallel_map_chunks, parallel_reduce};
pub use persist::{write_atomic, Checkpoint, CheckpointError, TrialRecord};
// The stream-derivation scheme the scheduler's determinism contract rests
// on, re-exported so trial bodies can split one trial's randomness into
// named, independent sub-streams (geometry / field / void draws) without
// depending on `emgrid-stats` directly.
pub use emgrid_stats::{stream_rng, substream_rng};

/// Early-termination policy: stop once the two-sided confidence interval on
/// the mean of the streamed observable is narrow enough.
///
/// The engines stream `ln TTF`, so `target_half_width` bounds the CI on the
/// fitted lognormal's `mu` — equivalently, the *relative* precision of the
/// fitted median, since the median CI is `exp(mu ± hw)` and
/// `exp(hw) − 1 ≈ hw` for small `hw`. A target of `0.05` therefore means
/// "median known to about ±5%".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyStop {
    /// Stop when the CI half-width on the streamed mean drops to this.
    pub target_half_width: f64,
    /// Confidence level of the interval (default 0.95).
    pub confidence: f64,
    /// Never stop before this many trials (guards against a lucky narrow
    /// CI from the first handful of samples).
    pub min_trials: usize,
    /// Trials per scheduling batch; the stopping rule is evaluated at batch
    /// boundaries so the decision is deterministic for any thread count.
    pub batch: usize,
}

impl EarlyStop {
    /// A policy with the given CI half-width target and the defaults used
    /// throughout the workspace (95% confidence, 64-trial minimum and
    /// batch).
    ///
    /// # Panics
    ///
    /// Panics unless `target_half_width > 0`.
    pub fn to_half_width(target_half_width: f64) -> Self {
        assert!(
            target_half_width > 0.0,
            "target half-width must be positive"
        );
        EarlyStop {
            target_half_width,
            confidence: 0.95,
            min_trials: 64,
            batch: 64,
        }
    }
}

/// How a [`run_trials`] call executes: thread count plus optional early
/// termination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Number of OS threads claiming trials (1 = run on the caller's
    /// thread, no spawns).
    pub threads: usize,
    /// Optional confidence-based early termination.
    pub early_stop: Option<EarlyStop>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            threads: 1,
            early_stop: None,
        }
    }
}

impl RuntimeConfig {
    /// Single-threaded, fixed-budget execution (the old sequential path).
    pub fn sequential() -> Self {
        RuntimeConfig::default()
    }

    /// Work-stealing execution across `threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn threaded(threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        RuntimeConfig {
            threads,
            early_stop: None,
        }
    }

    /// Adds an early-termination policy.
    pub fn with_early_stop(mut self, early_stop: EarlyStop) -> Self {
        self.early_stop = Some(early_stop);
        self
    }
}

/// Execution telemetry of one [`run_trials`] call: trial counters, timing
/// and the streamed statistics, carried into the engines' result types.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The trial budget the caller asked for.
    pub trials_requested: usize,
    /// Trials actually run (less than requested iff stopped early).
    pub trials_run: usize,
    /// Thread count the run was configured with.
    pub threads: usize,
    /// Whether the early-termination target was reached before the budget.
    pub stopped_early: bool,
    /// Trials restored from a checkpoint instead of executed (0 for fresh
    /// runs; see [`TrialSession::resume`]).
    pub resumed_from: usize,
    /// Whether the run was interrupted by a [`CancelToken`] before reaching
    /// the budget or the early-stop target. A cancelled run still commits a
    /// deterministic prefix of trials, suitable for checkpointing.
    pub cancelled: bool,
    /// Number of scheduling batches executed.
    pub batches: usize,
    /// Wall-clock time spent inside the scheduler (trial execution and
    /// result commit, excluding the caller's setup).
    pub wall: Duration,
    /// Trials executed by each worker thread, indexed by worker — the
    /// work-stealing balance (all zeros except index 0 for sequential
    /// runs). Unlike everything else in the report this depends on
    /// scheduling, so it is telemetry only.
    pub trials_per_thread: Vec<usize>,
    /// Streaming statistics of the observable (the engines stream
    /// `ln TTF`), merged in trial order.
    pub stream: OnlineStats,
}

impl RunReport {
    /// A placeholder report for results constructed directly from samples
    /// (e.g. in tests) rather than by the scheduler.
    pub fn unscheduled(trials: usize) -> Self {
        RunReport {
            trials_requested: trials,
            trials_run: trials,
            threads: 1,
            stopped_early: false,
            resumed_from: 0,
            cancelled: false,
            batches: 0,
            wall: Duration::ZERO,
            trials_per_thread: Vec::new(),
            stream: OnlineStats::new(),
        }
    }

    /// The achieved CI half-width on the streamed mean at `confidence`.
    pub fn achieved_half_width(&self, confidence: f64) -> f64 {
        self.stream.ci_half_width(confidence)
    }

    /// Trials per second of wall-clock time (0 if the run was too fast to
    /// measure).
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.trials_run as f64 / secs
        } else {
            0.0
        }
    }
}

/// A panic captured from a worker, tagged with the trial that raised it.
struct TrialPanic {
    trial: usize,
    message: String,
}

pub(crate) fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `trials` Monte Carlo trials under `config` and returns the per-trial
/// outputs in trial order, plus a [`RunReport`].
///
/// `trial(t)` must derive all of its randomness from `t` (typically via
/// [`emgrid_stats::stream_rng`]`(seed, t as u64)`): the scheduler guarantees
/// any thread may run any trial, and determinism then follows. `observe`
/// maps each successful trial to the scalar streamed into the early-stop
/// statistics; engines pass `ln TTF`.
///
/// # Errors
///
/// If any trial returns `Err`, the error of the **lowest-indexed** failing
/// trial is returned (deterministic for any thread count). Trials already
/// completed are discarded.
///
/// # Panics
///
/// Panics if `trials == 0`, and re-raises a worker panic on the caller's
/// thread as `"trial <t> panicked: <original message>"`.
pub fn run_trials<T, E, F, O>(
    trials: usize,
    config: &RuntimeConfig,
    trial: F,
    observe: O,
) -> Result<(Vec<T>, RunReport), E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
    O: Fn(&T) -> f64,
{
    run_trials_session(trials, config, TrialSession::default(), trial, observe)
}

/// Checkpoint/cancellation controls for one [`run_trials_session`] call.
///
/// The default session is a plain fresh run (what [`run_trials`] passes).
/// With `resume`, the scheduler skips the already-committed prefix and
/// continues from the watermark — because every trial derives its
/// randomness from `(seed, trial_index)` alone, a resumed run commits the
/// exact bits an uninterrupted run would have. With `cancel`, workers stop
/// claiming trials as soon as the token trips and the call returns the
/// committed prefix with [`RunReport::cancelled`] set. `on_checkpoint`
/// fires at batch boundaries every `checkpoint_every` committed trials
/// (and once more on cancellation), borrowing the committed state.
pub struct TrialSession<'a, T> {
    /// Checkpoint to resume from (`None` = fresh run).
    pub resume: Option<Checkpoint<T>>,
    /// Cooperative cancellation token checked between trial claims.
    pub cancel: Option<&'a CancelToken>,
    /// Commit interval (in trials) between `on_checkpoint` calls;
    /// 0 disables periodic checkpointing.
    pub checkpoint_every: usize,
    /// Receives the committed state at each checkpoint.
    #[allow(clippy::type_complexity)]
    pub on_checkpoint: Option<&'a mut (dyn FnMut(&Checkpoint<T>) + 'a)>,
}

impl<T> Default for TrialSession<'_, T> {
    fn default() -> Self {
        TrialSession {
            resume: None,
            cancel: None,
            checkpoint_every: 0,
            on_checkpoint: None,
        }
    }
}

/// [`run_trials`] with resume/checkpoint/cancellation controls.
///
/// Scheduling batches are aligned to absolute trial indices (batch `k`
/// covers trials `k·B..(k+1)·B`), so early-stop decisions are evaluated at
/// the same watermarks whether or not the run was interrupted and resumed
/// in between — a resumed run reproduces an uninterrupted run bit for bit,
/// including its early-termination point. A resume checkpoint with more
/// outputs than the budget, or a stream count that does not match its
/// outputs, is ignored and the run starts at trial zero, so a restart
/// never fails on the state it left behind.
///
/// # Errors
///
/// As [`run_trials`]; a checkpoint is *not* written for a failing batch.
///
/// # Panics
///
/// As [`run_trials`].
pub fn run_trials_session<T, E, F, O>(
    trials: usize,
    config: &RuntimeConfig,
    mut session: TrialSession<'_, T>,
    trial: F,
    observe: O,
) -> Result<(Vec<T>, RunReport), E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
    O: Fn(&T) -> f64,
{
    assert!(trials > 0, "need at least one trial");
    assert!(config.threads > 0, "need at least one thread");
    let start = Instant::now();
    let _mc_span = obs::span("mc");
    // Batch size: the early-stop decision grid when early stopping is on
    // (so the stopping rule is invariant to checkpoint cadence), otherwise
    // the checkpoint cadence, otherwise one batch for the whole budget.
    let batch_size = match (config.early_stop, session.checkpoint_every) {
        (Some(es), _) => es.batch.max(1),
        (None, every) if every > 0 => every,
        (None, _) => trials,
    };

    let mut state = match session.resume.take() {
        Some(cp) if cp.fits(trials) => cp,
        _ => Checkpoint {
            outputs: Vec::with_capacity(trials),
            stream: OnlineStats::new(),
        },
    };
    let resumed_from = state.outputs.len();
    let mut last_checkpoint = resumed_from;
    let mut trials_per_thread = vec![0usize; config.threads];
    let mut batches = 0usize;
    let mut stopped_early = false;
    let mut cancelled = false;
    let cancel_flag = session.cancel.map(CancelToken::flag);

    while state.outputs.len() < trials {
        // The stopping rule is evaluated at the top of the loop (at
        // batch-aligned watermarks), so a run resumed exactly at a
        // would-have-stopped watermark stops there too instead of
        // overrunning the uninterrupted run's termination point.
        if let Some(es) = config.early_stop {
            let committed = state.outputs.len();
            if committed >= es.min_trials
                && committed % batch_size == 0
                && state.stream.ci_half_width(es.confidence) <= es.target_half_width
            {
                stopped_early = true;
                break;
            }
        }
        if cancel_flag.is_some_and(|c| c.load(Ordering::Relaxed)) {
            cancelled = true;
            break;
        }
        let batch_start = state.outputs.len();
        // Align batch ends to absolute multiples of the batch size so a
        // resumed run re-joins the uninterrupted run's decision grid.
        let batch_end = ((batch_start / batch_size + 1) * batch_size).min(trials);
        let mut batch = run_batch(batch_start..batch_end, config.threads, cancel_flag, &trial)?;
        batches += 1;
        for (worker, count) in batch.per_worker.drain(..).enumerate() {
            trials_per_thread[worker] += count;
        }
        // Commit in trial order: the stream merge (and therefore the
        // stopping decision above) is identical for any thread count. A
        // cancelled batch may have holes; only the contiguous prefix is
        // committed (the rest is re-run on resume).
        batch.outcomes.sort_by_key(|(t, _)| *t);
        for (t, value) in batch.outcomes {
            if t != state.outputs.len() {
                break;
            }
            state.stream.push(observe(&value));
            state.outputs.push(value);
        }
        if session.checkpoint_every > 0
            && state.outputs.len() - last_checkpoint >= session.checkpoint_every
        {
            if let Some(cb) = session.on_checkpoint.as_mut() {
                commit_checkpoint(cb, &state);
            }
            last_checkpoint = state.outputs.len();
        }
        if batch.interrupted {
            cancelled = true;
            break;
        }
    }

    // A cancelled run checkpoints whatever was committed after the last
    // periodic checkpoint, so resumption loses nothing.
    if cancelled && state.outputs.len() > last_checkpoint {
        if let Some(cb) = session.on_checkpoint.as_mut() {
            commit_checkpoint(cb, &state);
        }
    }

    obs::counter("emgrid_mc_runs_total", "Monte Carlo runs completed.").inc();
    obs::counter(
        "emgrid_mc_trials_total",
        "Monte Carlo trials executed (resumed trials excluded).",
    )
    .add((state.outputs.len() - resumed_from) as u64);
    if stopped_early {
        obs::counter(
            "emgrid_mc_early_stops_total",
            "MC runs terminated early by the CI half-width rule.",
        )
        .inc();
    }
    if cancelled {
        obs::counter(
            "emgrid_mc_cancelled_runs_total",
            "MC runs interrupted by cancellation.",
        )
        .inc();
    }

    let report = RunReport {
        trials_requested: trials,
        trials_run: state.outputs.len(),
        threads: config.threads,
        stopped_early,
        resumed_from,
        cancelled,
        batches,
        wall: start.elapsed(),
        trials_per_thread,
        stream: state.stream,
    };
    Ok((state.outputs, report))
}

/// Runs one checkpoint callback under a span and records its commit
/// latency (serialize + persist) in the global histogram.
fn commit_checkpoint<T>(cb: &mut (dyn FnMut(&Checkpoint<T>) + '_), state: &Checkpoint<T>) {
    let _span = obs::span("checkpoint");
    let started = Instant::now();
    cb(state);
    obs::histogram(
        "emgrid_mc_checkpoint_commit_seconds",
        "Wall time to commit one Monte Carlo checkpoint.",
    )
    .observe_duration(started.elapsed());
}

struct BatchOutcome<T> {
    outcomes: Vec<(usize, T)>,
    per_worker: Vec<usize>,
    interrupted: bool,
}

/// Runs one batch of trials with work stealing; returns outcomes in
/// arbitrary order (the caller sorts). Workers poll `cancel` between trial
/// claims and stop claiming once it trips; `interrupted` reports whether
/// that happened (the batch may then have holes).
fn run_batch<T, E, F>(
    range: std::ops::Range<usize>,
    threads: usize,
    cancel: Option<&AtomicBool>,
    trial: &F,
) -> Result<BatchOutcome<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let len = range.end - range.start;
    if threads == 1 || len == 1 {
        // Sequential fast path: no spawns, no atomics.
        let mut outcomes = Vec::with_capacity(len);
        let mut interrupted = false;
        for t in range {
            if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                interrupted = true;
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| trial(t))) {
                Ok(Ok(v)) => outcomes.push((t, v)),
                Ok(Err(e)) => return Err(e),
                Err(payload) => {
                    panic!("trial {t} panicked: {}", payload_message(payload.as_ref()))
                }
            }
        }
        let count = outcomes.len();
        let mut per_worker = vec![0usize; threads];
        per_worker[0] = count;
        return Ok(BatchOutcome {
            outcomes,
            per_worker,
            interrupted,
        });
    }

    let next = AtomicUsize::new(range.start);
    // Lowest trial index observed to fail (error or panic). Workers skip
    // trials *above* this watermark — fail-fast — but still execute every
    // trial below it, so the lowest-indexed failure is found exactly and
    // the surfaced error is deterministic for any thread count.
    let min_failed = AtomicUsize::new(usize::MAX);
    let workers = threads.min(len);
    struct WorkerResult<T, E> {
        outcomes: Vec<(usize, T)>,
        error: Option<(usize, E)>,
        panic: Option<TrialPanic>,
    }
    let results: Vec<WorkerResult<T, E>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let min_failed = &min_failed;
                scope.spawn(move || {
                    let mut out = WorkerResult {
                        outcomes: Vec::new(),
                        error: None,
                        panic: None,
                    };
                    loop {
                        if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                            break;
                        }
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        if t >= range.end {
                            break;
                        }
                        // The claim counter is monotonic, so every trial
                        // below the failure watermark is already claimed by
                        // some worker; anything above it cannot be the
                        // lowest failure and is skipped.
                        if t > min_failed.load(Ordering::Relaxed) {
                            continue;
                        }
                        match catch_unwind(AssertUnwindSafe(|| trial(t))) {
                            Ok(Ok(v)) => out.outcomes.push((t, v)),
                            Ok(Err(e)) => {
                                out.error = Some((t, e));
                                min_failed.fetch_min(t, Ordering::Relaxed);
                                break;
                            }
                            Err(payload) => {
                                out.panic = Some(TrialPanic {
                                    trial: t,
                                    message: payload_message(payload.as_ref()),
                                });
                                min_failed.fetch_min(t, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("runtime worker panics are caught inside"))
            .collect()
    });

    // On failure, workers skip trials above the watermark, so `outcomes`
    // may be partial; the lowest-indexed recorded event is exact and is
    // the one surfaced.
    let mut panic: Option<TrialPanic> = None;
    let mut error: Option<(usize, E)> = None;
    let mut outcomes = Vec::with_capacity(len);
    let mut per_worker = vec![0usize; threads];
    for (w, r) in results.into_iter().enumerate() {
        per_worker[w] = r.outcomes.len();
        outcomes.extend(r.outcomes);
        if let Some(p) = r.panic {
            if panic.as_ref().is_none_or(|q| p.trial < q.trial) {
                panic = Some(p);
            }
        }
        if let Some((t, e)) = r.error {
            if error.as_ref().is_none_or(|(u, _)| t < *u) {
                error = Some((t, e));
            }
        }
    }
    if let Some(p) = panic {
        if error.as_ref().is_none_or(|(t, _)| p.trial < *t) {
            panic!("trial {} panicked: {}", p.trial, p.message);
        }
    }
    if let Some((_, e)) = error {
        return Err(e);
    }
    Ok(BatchOutcome {
        outcomes,
        per_worker,
        interrupted: cancel.is_some_and(|c| c.load(Ordering::Relaxed)),
    })
}

/// [`run_trials`] for trial bodies that cannot fail.
///
/// # Panics
///
/// Same contract as [`run_trials`].
pub fn run_trials_infallible<T, F, O>(
    trials: usize,
    config: &RuntimeConfig,
    trial: F,
    observe: O,
) -> (Vec<T>, RunReport)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    O: Fn(&T) -> f64,
{
    enum Never {}
    let result: Result<_, Never> = run_trials(trials, config, |t| Ok(trial(t)), observe);
    match result {
        Ok(pair) => pair,
        Err(never) => match never {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emgrid_stats::{stream_rng, Rng};

    fn lognormal_trial(seed: u64, t: usize) -> f64 {
        let mut rng = stream_rng(seed, t as u64);
        (1.0 + 0.5 * rng.next_standard_normal()).exp()
    }

    #[test]
    fn thread_counts_agree_bit_for_bit() {
        let run = |threads| {
            run_trials_infallible(
                257,
                &RuntimeConfig::threaded(threads),
                |t| lognormal_trial(9, t),
                |x| x.ln(),
            )
        };
        let (seq, seq_report) = run(1);
        for threads in [2, 4, 8] {
            let (par, report) = run(threads);
            assert_eq!(seq, par, "thread count {threads} changed results");
            assert_eq!(report.trials_run, 257);
            assert_eq!(report.stream, seq_report.stream);
        }
    }

    #[test]
    fn work_is_actually_distributed() {
        // Trial 0 is claimed first and holds its worker until some other
        // trial has started. That trial can only have been claimed by a
        // second worker, so the spread below holds on any core count and
        // under any scheduling.
        let other_started = AtomicBool::new(false);
        let (_, report) = run_trials_infallible(
            400,
            &RuntimeConfig::threaded(4),
            |t| {
                if t == 0 {
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while !other_started.load(Ordering::SeqCst) {
                        assert!(Instant::now() < deadline, "no second trial started");
                        std::thread::yield_now();
                    }
                } else {
                    other_started.store(true, Ordering::SeqCst);
                }
                lognormal_trial(1, t)
            },
            |x| x.ln(),
        );
        assert_eq!(report.trials_per_thread.len(), 4);
        assert_eq!(report.trials_per_thread.iter().sum::<usize>(), 400);
        let active = report.trials_per_thread.iter().filter(|&&c| c > 0).count();
        assert!(active >= 2, "only {active} workers ran trials");
    }

    #[test]
    fn early_stop_halts_before_the_budget() {
        // sigma = 0.5: hw(95%) ~ 1.96 * 0.5 / sqrt(n) <= 0.05 at n ~ 385.
        let config = RuntimeConfig::threaded(4).with_early_stop(EarlyStop::to_half_width(0.05));
        let (out, report) =
            run_trials_infallible(100_000, &config, |t| lognormal_trial(5, t), |x| x.ln());
        assert!(report.stopped_early);
        assert_eq!(out.len(), report.trials_run);
        assert!(
            report.trials_run < 2000,
            "ran {} trials for a 0.05 target",
            report.trials_run
        );
        assert!(report.achieved_half_width(0.95) <= 0.05);
        assert!(report.trials_run >= 64);
    }

    #[test]
    fn early_stop_is_thread_count_invariant() {
        let run = |threads| {
            let config =
                RuntimeConfig::threaded(threads).with_early_stop(EarlyStop::to_half_width(0.08));
            run_trials_infallible(50_000, &config, |t| lognormal_trial(6, t), |x| x.ln())
        };
        let (seq, seq_report) = run(1);
        for threads in [2, 8] {
            let (par, report) = run(threads);
            assert_eq!(seq, par);
            assert_eq!(report.trials_run, seq_report.trials_run);
            assert_eq!(report.stopped_early, seq_report.stopped_early);
        }
    }

    #[test]
    fn early_stop_respects_min_trials() {
        let es = EarlyStop {
            target_half_width: 1e9, // trivially satisfied immediately
            confidence: 0.95,
            min_trials: 192,
            batch: 64,
        };
        let config = RuntimeConfig::sequential().with_early_stop(es);
        let (_, report) =
            run_trials_infallible(10_000, &config, |t| lognormal_trial(7, t), |x| x.ln());
        assert!(report.stopped_early);
        assert_eq!(report.trials_run, 192);
    }

    #[test]
    fn exhausting_the_budget_is_not_early_stop() {
        let config = RuntimeConfig::sequential().with_early_stop(EarlyStop::to_half_width(1e-9));
        let (_, report) =
            run_trials_infallible(100, &config, |t| lognormal_trial(8, t), |x| x.ln());
        assert!(!report.stopped_early);
        assert_eq!(report.trials_run, 100);
    }

    #[test]
    fn errors_pick_the_lowest_trial_index() {
        for threads in [1, 4] {
            let config = RuntimeConfig::threaded(threads);
            let result: Result<(Vec<f64>, _), usize> = run_trials(
                100,
                &config,
                |t| if t % 7 == 3 { Err(t) } else { Ok(t as f64) },
                |&x| x,
            );
            assert_eq!(result.err(), Some(3), "threads = {threads}");
        }
    }

    #[test]
    fn worker_panics_carry_trial_index_and_message() {
        for threads in [1, 4] {
            let config = RuntimeConfig::threaded(threads);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_trials_infallible(
                    64,
                    &config,
                    |t| {
                        if t == 41 {
                            panic!("bad trial state: remaining life NaN");
                        }
                        t as f64
                    },
                    |&x| x,
                )
            }));
            let payload = caught.expect_err("must panic");
            let message = payload_message(payload.as_ref());
            assert!(
                message.contains("trial 41") && message.contains("remaining life NaN"),
                "threads {threads}: got {message:?}"
            );
        }
    }

    #[test]
    fn report_counters_are_consistent() {
        let (out, report) = run_trials_infallible(
            130,
            &RuntimeConfig::threaded(3),
            |t| lognormal_trial(2, t),
            |x| x.ln(),
        );
        assert_eq!(report.trials_requested, 130);
        assert_eq!(report.trials_run, 130);
        assert_eq!(out.len(), 130);
        assert_eq!(report.batches, 1);
        assert_eq!(report.stream.count(), 130);
        assert!(report.wall >= Duration::ZERO);
    }

    fn session_run(
        trials: usize,
        config: &RuntimeConfig,
        session: TrialSession<'_, f64>,
    ) -> (Vec<f64>, RunReport) {
        enum Never {}
        let result: Result<_, Never> = run_trials_session(
            trials,
            config,
            session,
            |t| Ok(lognormal_trial(21, t)),
            |x| x.ln(),
        );
        match result {
            Ok(pair) => pair,
            Err(never) => match never {},
        }
    }

    #[test]
    fn resumed_session_matches_uninterrupted_run() {
        for threads in [1, 4] {
            let config = RuntimeConfig::threaded(threads);
            let (whole, whole_report) = session_run(300, &config, TrialSession::default());

            // Capture a mid-run checkpoint, then resume from it.
            let mut snapshot: Option<Checkpoint<f64>> = None;
            let mut on_checkpoint = |cp: &Checkpoint<f64>| {
                snapshot.get_or_insert_with(|| cp.clone());
            };
            let session = TrialSession {
                checkpoint_every: 64,
                on_checkpoint: Some(&mut on_checkpoint),
                ..TrialSession::default()
            };
            session_run(300, &config, session);
            let cp = snapshot.expect("checkpoint fired");
            assert_eq!(cp.outputs.len(), 64);

            let (resumed, report) = session_run(
                300,
                &config,
                TrialSession {
                    resume: Some(cp),
                    ..TrialSession::default()
                },
            );
            assert_eq!(resumed, whole, "threads {threads}");
            assert_eq!(report.stream, whole_report.stream);
            assert_eq!(report.resumed_from, 64);
            assert!(!report.cancelled);
        }
    }

    #[test]
    fn resumed_session_reproduces_early_stop_decision() {
        // Including a resume that lands exactly on the watermark where the
        // uninterrupted run stops: the resumed run must also stop there.
        let config = RuntimeConfig::threaded(2).with_early_stop(EarlyStop::to_half_width(0.08));
        let (whole, whole_report) = session_run(50_000, &config, TrialSession::default());
        assert!(whole_report.stopped_early);
        for cut in [64, whole.len() - 64, whole.len()] {
            let outputs = whole[..cut].to_vec();
            let mut stream = OnlineStats::new();
            for x in &outputs {
                stream.push(x.ln());
            }
            let (resumed, report) = session_run(
                50_000,
                &config,
                TrialSession {
                    resume: Some(Checkpoint { outputs, stream }),
                    ..TrialSession::default()
                },
            );
            assert_eq!(resumed, whole, "cut {cut}");
            assert_eq!(report.trials_run, whole_report.trials_run);
            assert!(report.stopped_early);
            assert_eq!(report.stream, whole_report.stream);
        }
    }

    #[test]
    fn misfit_resume_restarts_from_trial_zero() {
        let config = RuntimeConfig::threaded(2);
        let (whole, _) = session_run(100, &config, TrialSession::default());
        let prefix = |n: usize| {
            let mut stream = OnlineStats::new();
            whole[..n].iter().for_each(|x| stream.push(x.ln()));
            Checkpoint {
                outputs: whole[..n].to_vec(),
                stream,
            }
        };
        let mut wrong_stream = prefix(40);
        wrong_stream.stream.push(0.0);
        for (label, trials, cp) in [
            ("over budget", 8, prefix(40)),
            ("stream count", 100, wrong_stream),
        ] {
            let session = TrialSession {
                resume: Some(cp),
                ..TrialSession::default()
            };
            let (out, report) = session_run(trials, &config, session);
            assert_eq!(out, whole[..trials], "{label}");
            assert_eq!(report.resumed_from, 0, "{label}");
        }
    }

    #[test]
    fn checkpoints_fire_at_the_requested_cadence() {
        let mut watermarks = Vec::new();
        let mut on_checkpoint = |cp: &Checkpoint<f64>| {
            assert_eq!(cp.outputs.len() as u64, cp.stream.count());
            watermarks.push(cp.outputs.len());
        };
        let session = TrialSession {
            checkpoint_every: 50,
            on_checkpoint: Some(&mut on_checkpoint),
            ..TrialSession::default()
        };
        session_run(220, &RuntimeConfig::threaded(3), session);
        assert_eq!(watermarks, vec![50, 100, 150, 200]);
    }

    #[test]
    fn cancelled_session_commits_a_resumable_prefix() {
        for threads in [1, 4] {
            let config = RuntimeConfig::threaded(threads);
            let (whole, _) = session_run(300, &config, TrialSession::default());

            let token = CancelToken::new();
            token.cancel(); // trip before the run: nothing should execute
            let mut last: Option<Checkpoint<f64>> = None;
            let mut on_checkpoint = |cp: &Checkpoint<f64>| last = Some(cp.clone());
            let (out, report) = session_run(
                300,
                &config,
                TrialSession {
                    cancel: Some(&token),
                    checkpoint_every: 32,
                    on_checkpoint: Some(&mut on_checkpoint),
                    ..TrialSession::default()
                },
            );
            assert!(report.cancelled);
            assert!(out.is_empty());
            assert!(last.is_none(), "no trials, no checkpoint");

            // Trip mid-run (from inside a trial body): the committed prefix
            // must be contiguous and resume to the uninterrupted result.
            let token = CancelToken::new();
            let mut last: Option<Checkpoint<f64>> = None;
            let mut on_checkpoint = |cp: &Checkpoint<f64>| last = Some(cp.clone());
            enum Never {}
            let cancel_at = 150usize;
            let result: Result<_, Never> = run_trials_session(
                300,
                &config,
                TrialSession {
                    cancel: Some(&token),
                    checkpoint_every: 32,
                    on_checkpoint: Some(&mut on_checkpoint),
                    ..TrialSession::default()
                },
                |t| {
                    if t == cancel_at {
                        token.cancel();
                    }
                    Ok(lognormal_trial(21, t))
                },
                |x: &f64| x.ln(),
            );
            let (out, report) = match result {
                Ok(pair) => pair,
                Err(never) => match never {},
            };
            assert!(report.cancelled, "threads {threads}");
            assert!(!out.is_empty() && out.len() < 300);
            assert_eq!(out[..], whole[..out.len()], "prefix must be contiguous");
            let cp = last.expect("final checkpoint fired");
            assert_eq!(cp.outputs.len(), out.len());

            let (resumed, resumed_report) = session_run(
                300,
                &config,
                TrialSession {
                    resume: Some(cp),
                    ..TrialSession::default()
                },
            );
            assert_eq!(resumed, whole, "threads {threads}");
            assert!(!resumed_report.cancelled);
        }
    }

    #[test]
    fn single_trial_runs_inline() {
        let (out, report) = run_trials_infallible(
            1,
            &RuntimeConfig::threaded(8),
            |t| lognormal_trial(3, t),
            |x| x.ln(),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(report.trials_per_thread.iter().sum::<usize>(), 1);
    }
}
