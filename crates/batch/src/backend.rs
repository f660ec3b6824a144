//! Where sweep jobs run: the [`JobBackend`] trait the dispatcher fans
//! jobs out through. Its one production implementation is the job
//! service's [`JobsApi`] handle, which both `POST /v1/sweeps` and
//! `emgrid sweep` mount the engine over; the trait lets the conformance
//! tests substitute a double that sabotages chosen jobs.
//!
//! Polling is **disk-first**: the job store is the authoritative record
//! (the engine's worker closures persist results and errors *before* the
//! engine observes terminal state), so a `Done`/`Failed`/`Cancelled`
//! verdict from [`JobBackend::poll`] is always backed by bytes on disk —
//! the property that makes resume-after-`kill -9` indistinguishable from
//! an uninterrupted run.

use emgrid_runtime::{JobId, JobStatus};
use emgrid_serve::{JobSpec, JobsApi, JobsApiError};

/// The dispatcher's view of one job, reconciled disk-first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobPoll {
    /// Nothing anywhere: the bound id was never persisted — submit fresh.
    Missing,
    /// Spec on disk but the engine does not know the id (the queue turned
    /// the job away after its spec was persisted) — resubmit under the
    /// same id.
    Unscheduled,
    /// Queued, running or checkpointed — check again later.
    Pending,
    /// Result document on disk.
    Done,
    /// Failure message on disk.
    Failed(String),
    /// Client-cancelled marker on disk.
    Cancelled,
    /// The engine cancelled the job *without* a client marker: the daemon
    /// is shutting down. The dispatcher must abort and let a restart
    /// resume the sweep.
    Interrupted,
}

/// The engine a sweep dispatcher fans jobs out through.
pub trait JobBackend: Send + Sync {
    /// Allocates a fresh job id (never reused while the process lives).
    fn allocate_id(&self) -> JobId;

    /// Keeps future allocations strictly above `floor` (called with a
    /// resumed manifest's highest bound id).
    fn reserve_above(&self, floor: JobId);

    /// Persists `spec` under `id` and queues it. The caller owns `id`
    /// exclusively and has confirmed via [`poll`](Self::poll) that the
    /// engine does not currently know it.
    fn submit(&self, id: JobId, spec: &JobSpec) -> Result<(), JobsApiError>;

    /// Queues a job whose spec is already persisted under `id`.
    fn resubmit(&self, id: JobId, spec: JobSpec) -> Result<(), JobsApiError>;

    /// Reconciles one job's state, disk-first.
    fn poll(&self, id: JobId) -> JobPoll;

    /// The result document bytes, once [`JobPoll::Done`].
    fn read_result(&self, id: JobId) -> Option<Vec<u8>>;

    /// Records the owning sweep id in the job's state directory (written
    /// before submission so status docs can always point back).
    fn mark_sweep(&self, id: JobId, sweep: &str);

    /// Whether the backend has begun shutting down.
    fn shutting_down(&self) -> bool;
}

impl JobBackend for JobsApi {
    fn allocate_id(&self) -> JobId {
        JobsApi::allocate_id(self)
    }

    fn reserve_above(&self, floor: JobId) {
        JobsApi::reserve_above(self, floor);
    }

    fn submit(&self, id: JobId, spec: &JobSpec) -> Result<(), JobsApiError> {
        JobsApi::submit(self, id, spec)
    }

    fn resubmit(&self, id: JobId, spec: JobSpec) -> Result<(), JobsApiError> {
        JobsApi::resubmit(self, id, spec)
    }

    /// The store first, then the engine, in that order.
    fn poll(&self, id: JobId) -> JobPoll {
        let store = self.store();
        if store.read_result(id).is_some() {
            return JobPoll::Done;
        }
        if let Some(message) = store.read_error(id) {
            return JobPoll::Failed(message);
        }
        if store.is_cancelled(id) {
            return JobPoll::Cancelled;
        }
        match self.engine_status(id) {
            // Engine-cancelled with no client marker: daemon shutdown.
            Some(JobStatus::Cancelled) => JobPoll::Interrupted,
            // Engine-terminal but its persisted artifact has not appeared:
            // the worker's disk write failed. Surface it rather than letting
            // the dispatcher poll forever.
            Some(JobStatus::Done) => JobPoll::Failed("result was not persisted".into()),
            Some(JobStatus::Failed) => JobPoll::Failed("failure was not persisted".into()),
            Some(_) => JobPoll::Pending,
            None if store.exists(id) => JobPoll::Unscheduled,
            None => JobPoll::Missing,
        }
    }

    fn read_result(&self, id: JobId) -> Option<Vec<u8>> {
        self.store().read_result(id)
    }

    fn mark_sweep(&self, id: JobId, sweep: &str) {
        let _ = self.store().write_sweep(id, sweep);
    }

    fn shutting_down(&self) -> bool {
        JobsApi::shutting_down(self)
    }
}
