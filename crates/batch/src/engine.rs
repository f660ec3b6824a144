//! The sweep engine: one dispatcher thread per active sweep, driving its
//! manifest to settlement and folding the results into a report.
//!
//! # Resume protocol
//!
//! The dispatcher never trusts memory across restarts — disk is the only
//! record. On (re)start it re-expands the persisted spec, reconciles the
//! manifest against the job store through [`JobBackend::poll`], reserves
//! the id counter above every bound id, and keeps going. The ordering
//! discipline that makes this safe:
//!
//! 1. an entry's job-id binding is persisted in the manifest *before*
//!    the job is handed to the engine (a crash in between resumes as
//!    "bound but missing" and submits the same spec under the same id);
//! 2. workers persist results/errors *before* the engine observes
//!    terminal state (so a `done` poll always has bytes behind it);
//! 3. the report is written only after every entry settles, and jobs are
//!    addressed by derived keys, so the aggregated bytes cannot depend
//!    on scheduling history.
//!
//! A daemon shutdown surfaces as [`JobPoll::Interrupted`] (engine-level
//! cancel with no client marker) and aborts the dispatcher without a
//! report; genuine client cancels settle the entry as `cancelled` and
//! the sweep completes around it.

use std::collections::HashSet;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use emgrid_runtime::obs;
use emgrid_scenarios::{SweepJob, SweepSpec};
use emgrid_serve::{JobsApiError, SpecError};

use crate::backend::{JobBackend, JobPoll};
use crate::manifest::{EntryState, Manifest, SweepStore};
use crate::report::aggregate;

/// Dispatcher poll cadence while jobs are in flight.
const TICK: Duration = Duration::from_millis(25);

/// What became of a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmissionState {
    /// A dispatcher was started for this sweep.
    Started,
    /// The sweep (same content-derived id) is already being dispatched.
    AlreadyRunning,
    /// The sweep already has a report; nothing ran.
    Complete,
}

/// The accepted form of one `POST /v1/sweeps` / `emgrid sweep` call.
#[derive(Debug, Clone)]
pub struct Submission {
    /// The content-derived sweep id.
    pub sweep: String,
    /// The sweep's display name.
    pub name: String,
    /// The expanded job count.
    pub jobs: usize,
    /// What the engine did with it.
    pub state: SubmissionState,
}

/// A disk-derived progress snapshot of one sweep.
#[derive(Debug, Clone)]
pub struct SweepStatus {
    /// The content-derived sweep id.
    pub sweep: String,
    /// The sweep's display name.
    pub name: String,
    /// Expanded job count.
    pub total: usize,
    /// Entries with a result on disk.
    pub done: usize,
    /// Entries that failed.
    pub failed: usize,
    /// Entries a client cancelled.
    pub cancelled: usize,
    /// Whether the final report exists.
    pub complete: bool,
    /// Whether a dispatcher thread is currently driving the sweep.
    pub active: bool,
}

/// The sweep engine: owns the sweep store and the dispatcher threads.
pub struct SweepEngine {
    backend: Arc<dyn JobBackend>,
    store: SweepStore,
    max_in_flight: usize,
    active: Mutex<HashSet<String>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// Removes the sweep from the active set however the dispatcher exits —
/// completion, abort, or panic.
struct ActiveGuard {
    engine: Arc<SweepEngine>,
    sweep: String,
}

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.engine
            .active
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.sweep);
    }
}

impl SweepEngine {
    /// Opens (creating if needed) the sweep store under `sweeps_root`.
    /// `max_in_flight` bounds how many of one sweep's jobs are queued or
    /// running at once.
    ///
    /// # Errors
    ///
    /// Propagates sweep-store failures.
    pub fn new(
        backend: Arc<dyn JobBackend>,
        sweeps_root: impl Into<PathBuf>,
        max_in_flight: usize,
    ) -> io::Result<Arc<SweepEngine>> {
        Ok(Arc::new(SweepEngine {
            backend,
            store: SweepStore::open(sweeps_root)?,
            max_in_flight: max_in_flight.max(1),
            active: Mutex::new(HashSet::new()),
            handles: Mutex::new(Vec::new()),
        }))
    }

    /// The engine's sweep store.
    pub fn store(&self) -> &SweepStore {
        &self.store
    }

    /// Accepts a sweep spec: parses, expands (every job fully validated),
    /// persists the canonical spec, and starts a dispatcher unless the
    /// sweep is already running or already has a report.
    ///
    /// # Errors
    ///
    /// [`SpecError`] from parsing or expansion — axis-value failures are
    /// attributed as `axes.<name>[<index>]`.
    pub fn submit_text(self: &Arc<Self>, text: &str) -> Result<Submission, SpecError> {
        let spec = SweepSpec::parse(text)?;
        let jobs = spec.expand()?;
        let sweep = spec.id();
        let name = spec.name().to_owned();
        let total = jobs.len();
        if self.store.read_report(&sweep).is_some() {
            return Ok(Submission {
                sweep,
                name,
                jobs: total,
                state: SubmissionState::Complete,
            });
        }
        self.store
            .write_spec(&sweep, &spec.canonical_string())
            .map_err(|e| SpecError::document(format!("cannot persist sweep spec: {e}")))?;
        obs::counter(
            "emgrid_sweeps_submitted_total",
            "Sweep specs accepted (idempotent resubmissions included)",
        )
        .inc();
        let state = if self.spawn_dispatcher(spec, jobs) {
            SubmissionState::Started
        } else {
            SubmissionState::AlreadyRunning
        };
        Ok(Submission {
            sweep,
            name,
            jobs: total,
            state,
        })
    }

    /// Restarts a dispatcher for every persisted sweep that has no report
    /// yet — the startup half of the resume protocol. Returns how many
    /// were resumed.
    pub fn resume_all(self: &Arc<Self>) -> usize {
        let mut resumed = 0;
        for sweep in self.store.list() {
            if self.store.read_report(&sweep).is_some() {
                continue;
            }
            let Some(text) = self.store.read_spec(&sweep) else {
                continue;
            };
            let Ok(spec) = SweepSpec::parse(&text) else {
                eprintln!("emgrid-batch: sweep {sweep}: persisted spec unreadable, skipping");
                continue;
            };
            let Ok(jobs) = spec.expand() else {
                eprintln!("emgrid-batch: sweep {sweep}: persisted spec does not expand, skipping");
                continue;
            };
            if self.spawn_dispatcher(spec, jobs) {
                obs::counter(
                    "emgrid_sweeps_resumed_total",
                    "Sweeps re-dispatched after a restart",
                )
                .inc();
                resumed += 1;
            }
        }
        resumed
    }

    /// The disk-derived status of one sweep (`None` if unknown).
    pub fn status(&self, sweep: &str) -> Option<SweepStatus> {
        let text = self.store.read_spec(sweep)?;
        let spec = SweepSpec::parse(&text).ok()?;
        let (done, failed, cancelled, total) = match self.store.read_manifest(sweep) {
            Some(manifest) => manifest.counts(),
            None => (0, 0, 0, spec.job_count()),
        };
        Some(SweepStatus {
            sweep: sweep.to_owned(),
            name: spec.name().to_owned(),
            total,
            done,
            failed,
            cancelled,
            complete: self.store.read_report(sweep).is_some(),
            active: self
                .active
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .contains(sweep),
        })
    }

    /// Status for every persisted sweep, sorted by id.
    pub fn list(&self) -> Vec<SweepStatus> {
        self.store
            .list()
            .iter()
            .filter_map(|sweep| self.status(sweep))
            .collect()
    }

    /// The final report bytes, once written.
    pub fn report_bytes(&self, sweep: &str) -> Option<Vec<u8>> {
        self.store.read_report(sweep)
    }

    /// Whether any dispatcher is currently running.
    pub fn is_active(&self) -> bool {
        !self
            .active
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty()
    }

    /// Joins every dispatcher thread started so far (completed *or*
    /// aborted) — the CLI's blocking mode and the tests' barrier.
    pub fn wait_idle(&self) {
        loop {
            let drained: Vec<JoinHandle<()>> = {
                let mut handles = self.handles.lock().unwrap_or_else(|e| e.into_inner());
                handles.drain(..).collect()
            };
            if drained.is_empty() {
                return;
            }
            for handle in drained {
                let _ = handle.join();
            }
        }
    }

    /// Starts the dispatcher thread unless this sweep already has one.
    fn spawn_dispatcher(self: &Arc<Self>, spec: SweepSpec, jobs: Vec<SweepJob>) -> bool {
        let sweep = spec.id();
        {
            let mut active = self.active.lock().unwrap_or_else(|e| e.into_inner());
            if !active.insert(sweep.clone()) {
                return false;
            }
        }
        let engine = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("emgrid-sweep-{}", &sweep[..8.min(sweep.len())]))
            .spawn(move || {
                let _guard = ActiveGuard {
                    engine: Arc::clone(&engine),
                    sweep,
                };
                engine.dispatch(&spec, &jobs);
            })
            .expect("spawn sweep dispatcher");
        self.handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(handle);
        true
    }

    /// Drives one sweep's manifest to settlement, then writes the report.
    /// Returns early (no report) when the backend shuts down mid-sweep;
    /// the next `resume_all` picks the sweep back up.
    fn dispatch(&self, spec: &SweepSpec, jobs: &[SweepJob]) {
        let sweep = spec.id();
        let keys: Vec<String> = jobs.iter().map(|j| j.key.clone()).collect();
        let mut manifest = match self.store.read_manifest(&sweep) {
            Some(m) if m.matches(&keys) => m,
            Some(stale) => {
                // A manifest from an older expansion (format drift):
                // rebuild, preserving entries whose keys still exist.
                let mut fresh = Manifest::new(&sweep, spec.name(), &keys);
                for entry in &mut fresh.entries {
                    if let Some(prev) = stale.entries.iter().find(|e| e.key == entry.key) {
                        *entry = prev.clone();
                    }
                }
                fresh
            }
            None => Manifest::new(&sweep, spec.name(), &keys),
        };
        if let Some(floor) = manifest.max_job_id() {
            self.backend.reserve_above(floor);
        }
        if self.store.write_manifest(&manifest).is_err() {
            eprintln!("emgrid-batch: sweep {sweep}: cannot persist manifest, aborting");
            return;
        }

        let jobs_done = obs::counter(
            "emgrid_sweep_jobs_done_total",
            "Sweep-owned jobs settled as done",
        );
        let jobs_failed = obs::counter(
            "emgrid_sweep_jobs_failed_total",
            "Sweep-owned jobs settled as failed",
        );
        let job_wait = obs::histogram(
            "emgrid_sweep_job_wait_seconds",
            "Submission-to-settlement latency of sweep-owned jobs",
        );
        // Submission instants for jobs this dispatcher queued, indexed
        // like the manifest; resumed jobs have no wait sample.
        let mut submitted_at: Vec<Option<Instant>> = vec![None; manifest.entries.len()];

        loop {
            if self.backend.shutting_down() {
                return;
            }
            let mut changed = false;
            let mut all_settled = true;
            let mut in_flight = 0usize;
            for idx in 0..manifest.entries.len() {
                let state = manifest.entries[idx].state;
                if state.is_settled() {
                    continue;
                }
                all_settled = false;
                let bound = manifest.entries[idx].job;
                let settle =
                    |new_state: EntryState, manifest: &mut Manifest, changed: &mut bool| {
                        manifest.entries[idx].state = new_state;
                        *changed = true;
                    };
                match bound {
                    Some(id) => match self.backend.poll(id) {
                        JobPoll::Done => {
                            settle(EntryState::Done, &mut manifest, &mut changed);
                            jobs_done.inc();
                            if let Some(at) = submitted_at[idx] {
                                job_wait.observe_duration(at.elapsed());
                            }
                        }
                        JobPoll::Failed(_) => {
                            settle(EntryState::Failed, &mut manifest, &mut changed);
                            jobs_failed.inc();
                            if let Some(at) = submitted_at[idx] {
                                job_wait.observe_duration(at.elapsed());
                            }
                        }
                        JobPoll::Cancelled => {
                            settle(EntryState::Cancelled, &mut manifest, &mut changed);
                        }
                        JobPoll::Interrupted => return,
                        JobPoll::Pending => in_flight += 1,
                        JobPoll::Unscheduled => {
                            if in_flight < self.max_in_flight {
                                match self.backend.resubmit(id, jobs[idx].spec.clone()) {
                                    Ok(()) => {
                                        submitted_at[idx] = Some(Instant::now());
                                        in_flight += 1;
                                    }
                                    Err(JobsApiError::ShuttingDown) => return,
                                    // Queue pressure: retry next tick.
                                    Err(_) => {}
                                }
                            }
                        }
                        JobPoll::Missing => {
                            // Bound in the manifest but never persisted: a
                            // crash hit between binding and submission.
                            if in_flight < self.max_in_flight {
                                self.backend.mark_sweep(id, &sweep);
                                match self.backend.submit(id, &jobs[idx].spec) {
                                    Ok(()) => {
                                        submitted_at[idx] = Some(Instant::now());
                                        in_flight += 1;
                                    }
                                    Err(JobsApiError::ShuttingDown) => return,
                                    Err(_) => {}
                                }
                            }
                        }
                    },
                    None => {
                        if in_flight >= self.max_in_flight {
                            continue;
                        }
                        let id = self.backend.allocate_id();
                        manifest.entries[idx].job = Some(id);
                        manifest.entries[idx].state = EntryState::Submitted;
                        // Persist the binding BEFORE the engine can run
                        // the job — see the module docs' ordering rules.
                        if self.store.write_manifest(&manifest).is_err() {
                            eprintln!(
                                "emgrid-batch: sweep {sweep}: cannot persist manifest, aborting"
                            );
                            return;
                        }
                        self.backend.mark_sweep(id, &sweep);
                        match self.backend.submit(id, &jobs[idx].spec) {
                            Ok(()) => {
                                submitted_at[idx] = Some(Instant::now());
                                in_flight += 1;
                            }
                            Err(JobsApiError::ShuttingDown) => return,
                            // Stays `submitted` with a bound id; the next
                            // tick polls it as missing and retries.
                            Err(_) => {}
                        }
                    }
                }
            }
            if changed && self.store.write_manifest(&manifest).is_err() {
                eprintln!("emgrid-batch: sweep {sweep}: cannot persist manifest, aborting");
                return;
            }
            if all_settled {
                break;
            }
            std::thread::sleep(TICK);
        }

        let report = aggregate(spec, jobs, &manifest, self.backend.as_ref());
        if self
            .store
            .write_report(&sweep, report.to_string().as_bytes())
            .is_err()
        {
            eprintln!("emgrid-batch: sweep {sweep}: cannot persist report");
            return;
        }
        obs::counter(
            "emgrid_sweeps_completed_total",
            "Sweeps whose aggregated report was written",
        )
        .inc();
    }
}
