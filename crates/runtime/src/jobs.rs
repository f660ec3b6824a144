//! A bounded-queue job engine with a worker pool, cancellation and graceful
//! shutdown — the execution core behind the `emgrid serve` daemon.
//!
//! The engine is deliberately small and `std`-only: a FIFO queue guarded by
//! a mutex, a fixed pool of worker threads woken by a condvar, and per-job
//! [`CancelToken`]s that thread down into the Monte Carlo scheduler (see
//! [`TrialSession`](crate::TrialSession)). Determinism is the callers'
//! responsibility and comes for free from the trial scheduler: a job's
//! result depends only on its spec and seed, never on which worker ran it
//! or how long it sat in the queue.
//!
//! State machine (mirrored in `DESIGN.md`):
//!
//! ```text
//! queued ──▶ running ──▶ done
//!    │          │  ▲
//!    │          │  └── checkpointed (running with ≥1 checkpoint written)
//!    │          ├────▶ cancelled   (token tripped mid-run)
//!    │          └────▶ failed      (job fn error or panic)
//!    └───────────────▶ cancelled   (dequeued before a worker picked it up)
//! ```

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::payload_message;

/// Monotonic identifier of a submitted job.
pub type JobId = u64;

/// A shareable cooperative cancellation flag.
///
/// Cloning is cheap (an `Arc` bump); all clones observe the same flag.
/// Workers poll it between trial claims, so cancellation latency is one
/// trial, not one job.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trips the token; every holder sees it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// The underlying flag, for the trial scheduler's inner loop.
    pub(crate) fn flag(&self) -> &AtomicBool {
        &self.0
    }
}

/// Observable lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the FIFO queue.
    Queued,
    /// Claimed by a worker, no checkpoint written yet.
    Running,
    /// Running, and at least one checkpoint has been recorded via
    /// [`JobCtx::note_checkpoint`].
    Checkpointed,
    /// Finished with a result.
    Done,
    /// Cancelled — either dequeued before running or stopped mid-run.
    Cancelled,
    /// The job function returned failure or panicked.
    Failed,
}

impl JobStatus {
    /// Whether the job can make no further progress.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Cancelled | JobStatus::Failed
        )
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Checkpointed => "checkpointed",
            JobStatus::Done => "done",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Failed => "failed",
        };
        f.write_str(s)
    }
}

/// What a job function reports back to the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome<R> {
    /// Completed with a result.
    Done(R),
    /// Observed its cancellation token and stopped early (after
    /// checkpointing, if the job checkpoints).
    Cancelled,
    /// Failed with a human-readable reason.
    Failed(String),
}

/// Handle passed to a running job function.
pub struct JobCtx {
    /// The job's id (e.g. for deriving its on-disk state directory).
    pub id: JobId,
    /// This job's cancellation token; thread it into
    /// [`TrialSession::cancel`](crate::TrialSession::cancel).
    pub cancel: CancelToken,
    checkpoints: Arc<AtomicU64>,
}

impl JobCtx {
    /// Records that a checkpoint was persisted; flips the observable status
    /// from `running` to `checkpointed` and feeds the daemon's metrics.
    pub fn note_checkpoint(&self) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity; retry after jobs drain.
    QueueFull,
    /// The engine is shutting down and accepts no new work.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("job queue is full"),
            SubmitError::ShuttingDown => f.write_str("engine is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A point-in-time view of one job.
#[derive(Debug, Clone)]
pub struct JobSnapshot<R> {
    /// The job's id.
    pub id: JobId,
    /// Lifecycle state at snapshot time.
    pub status: JobStatus,
    /// Checkpoints recorded so far.
    pub checkpoints: u64,
    /// The result, present iff `status == Done`.
    pub result: Option<R>,
    /// The failure reason, present iff `status == Failed`.
    pub error: Option<String>,
}

type JobFn<R> = Box<dyn FnOnce(&JobCtx) -> JobOutcome<R> + Send>;

struct JobRecord<R> {
    status: JobStatus,
    cancel: CancelToken,
    checkpoints: Arc<AtomicU64>,
    result: Option<R>,
    error: Option<String>,
}

impl<R> JobRecord<R> {
    fn observable_status(&self) -> JobStatus {
        if self.status == JobStatus::Running && self.checkpoints.load(Ordering::Relaxed) > 0 {
            JobStatus::Checkpointed
        } else {
            self.status
        }
    }
}

/// Default cap on retained terminal [`JobRecord`]s (see
/// [`JobEngine::with_retention`]). Without a cap the `jobs` map — each
/// `Done` record holding its full result — grows for the engine's
/// lifetime, a memory leak proportional to every job ever submitted.
const DEFAULT_TERMINAL_RETENTION: usize = 1024;

struct EngineState<R> {
    queue: VecDeque<(JobId, JobFn<R>)>,
    jobs: HashMap<JobId, JobRecord<R>>,
    /// Terminal job ids, oldest first; beyond the retention cap the oldest
    /// record is dropped and its id behaves like an unknown id.
    terminal: VecDeque<JobId>,
    next_id: JobId,
    running: usize,
    shutting_down: bool,
}

impl<R> EngineState<R> {
    /// Records a job as terminal and evicts the oldest terminal records
    /// past the cap. Live (queued/running) records are never evicted.
    fn retire(&mut self, id: JobId, retention: usize) {
        self.terminal.push_back(id);
        while self.terminal.len() > retention {
            if let Some(old) = self.terminal.pop_front() {
                self.jobs.remove(&old);
            }
        }
    }
}

struct EngineShared<R> {
    state: Mutex<EngineState<R>>,
    /// Signalled when work arrives or shutdown starts (workers wait here).
    work: Condvar,
    /// Signalled when a job reaches a terminal state (pollers wait here).
    done: Condvar,
    queue_depth: usize,
    /// Terminal records kept in memory before eviction.
    retention: usize,
}

/// A bounded FIFO job queue drained by a fixed worker pool.
///
/// `R` is the job result type (the daemon uses the serialized result path).
/// Jobs are boxed closures receiving a [`JobCtx`]; a panicking job is
/// caught and recorded as [`JobStatus::Failed`] with the panic message —
/// workers never die.
pub struct JobEngine<R: Send + 'static> {
    shared: Arc<EngineShared<R>>,
    workers: Vec<JoinHandle<()>>,
}

impl<R: Send + 'static> JobEngine<R> {
    /// Starts `workers` worker threads over a queue bounded at
    /// `queue_depth` jobs, retaining the last
    /// 1024 (`DEFAULT_TERMINAL_RETENTION`) terminal records in memory.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `queue_depth == 0`.
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        Self::with_retention(workers, queue_depth, DEFAULT_TERMINAL_RETENTION)
    }

    /// As [`JobEngine::new`], keeping at most `retention` terminal job
    /// records in memory. Older terminal records are evicted (their ids
    /// then behave like unknown ids), which bounds the engine's memory over
    /// a long-running daemon's lifetime; durable status lives with the
    /// caller (the daemon's `JobStore`), not the engine.
    ///
    /// # Panics
    ///
    /// Panics if `workers`, `queue_depth` or `retention` is 0.
    pub fn with_retention(workers: usize, queue_depth: usize, retention: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(queue_depth > 0, "need a positive queue depth");
        assert!(retention > 0, "need a positive terminal retention");
        let shared = Arc::new(EngineShared {
            state: Mutex::new(EngineState {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                terminal: VecDeque::new(),
                next_id: 1,
                running: 0,
                shutting_down: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            queue_depth,
            retention,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("emgrid-job-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn job worker")
            })
            .collect();
        JobEngine {
            shared,
            workers: handles,
        }
    }

    /// Enqueues a job and returns its id.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity,
    /// [`SubmitError::ShuttingDown`] once shutdown has begun.
    pub fn submit<F>(&self, job: F) -> Result<JobId, SubmitError>
    where
        F: FnOnce(&JobCtx) -> JobOutcome<R> + Send + 'static,
    {
        let mut state = self.shared.state.lock().unwrap();
        let id = state.next_id;
        self.enqueue(&mut state, id, Box::new(job))?;
        state.next_id = id + 1;
        drop(state);
        self.shared.work.notify_one();
        Ok(id)
    }

    /// Enqueues a job under a caller-chosen id — used on daemon restart to
    /// requeue persisted jobs under their original ids. Future auto-ids are
    /// kept strictly above `id`.
    ///
    /// # Errors
    ///
    /// As [`JobEngine::submit`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is 0 or already known to the engine.
    pub fn submit_with_id<F>(&self, id: JobId, job: F) -> Result<JobId, SubmitError>
    where
        F: FnOnce(&JobCtx) -> JobOutcome<R> + Send + 'static,
    {
        assert!(id > 0, "job ids start at 1");
        let mut state = self.shared.state.lock().unwrap();
        assert!(
            !state.jobs.contains_key(&id),
            "job id {id} already submitted"
        );
        self.enqueue(&mut state, id, Box::new(job))?;
        state.next_id = state.next_id.max(id + 1);
        drop(state);
        self.shared.work.notify_one();
        Ok(id)
    }

    fn enqueue(
        &self,
        state: &mut EngineState<R>,
        id: JobId,
        job: JobFn<R>,
    ) -> Result<(), SubmitError> {
        if state.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        if state.queue.len() >= self.shared.queue_depth {
            return Err(SubmitError::QueueFull);
        }
        state.queue.push_back((id, job));
        state.jobs.insert(
            id,
            JobRecord {
                status: JobStatus::Queued,
                cancel: CancelToken::new(),
                checkpoints: Arc::new(AtomicU64::new(0)),
                result: None,
                error: None,
            },
        );
        Ok(())
    }

    /// Requests cancellation: a queued job is removed and marked cancelled
    /// immediately; a running job has its token tripped and reaches
    /// `Cancelled` once the worker observes it. Returns `false` for
    /// unknown or already-terminal jobs.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut state = self.shared.state.lock().unwrap();
        let Some(record) = state.jobs.get(&id) else {
            return false;
        };
        match record.status {
            JobStatus::Queued => {
                state.queue.retain(|(qid, _)| *qid != id);
                let record = state.jobs.get_mut(&id).unwrap();
                record.status = JobStatus::Cancelled;
                state.retire(id, self.shared.retention);
                drop(state);
                self.shared.done.notify_all();
                true
            }
            JobStatus::Running | JobStatus::Checkpointed => {
                record.cancel.cancel();
                true
            }
            _ => false,
        }
    }

    /// The job's observable status without cloning its result, or `None`
    /// for unknown (or evicted) ids.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let state = self.shared.state.lock().unwrap();
        state.jobs.get(&id).map(JobRecord::observable_status)
    }

    /// A point-in-time view of a job, or `None` if the id is unknown.
    pub fn snapshot(&self, id: JobId) -> Option<JobSnapshot<R>>
    where
        R: Clone,
    {
        let state = self.shared.state.lock().unwrap();
        state.jobs.get(&id).map(|record| JobSnapshot {
            id,
            status: record.observable_status(),
            checkpoints: record.checkpoints.load(Ordering::Relaxed),
            result: record.result.clone(),
            error: record.error.clone(),
        })
    }

    /// Blocks until the job reaches a terminal state (returning it) or the
    /// timeout elapses (returning `None`). Unknown ids return `None`
    /// immediately.
    pub fn wait_terminal(&self, id: JobId, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock().unwrap();
        loop {
            let status = state.jobs.get(&id)?.status;
            if status.is_terminal() {
                return Some(status);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .shared
                .done
                .wait_timeout(state, deadline - now)
                .unwrap();
            state = guard;
        }
    }

    /// Jobs currently waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// Jobs currently executing on workers.
    pub fn running(&self) -> usize {
        self.shared.state.lock().unwrap().running
    }

    /// Starts graceful shutdown without blocking: rejects further
    /// submissions and marks still-queued jobs cancelled. Jobs already on
    /// workers keep running; follow with [`JobEngine::shutdown`] to drain
    /// and join them. Idempotent.
    pub fn begin_shutdown(&self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.shutting_down = true;
            let dequeued: Vec<JobId> = state.queue.drain(..).map(|(id, _)| id).collect();
            for id in dequeued {
                if let Some(record) = state.jobs.get_mut(&id) {
                    record.status = JobStatus::Cancelled;
                    state.retire(id, self.shared.retention);
                }
            }
        }
        self.shared.work.notify_all();
        self.shared.done.notify_all();
    }

    /// Graceful shutdown: [`JobEngine::begin_shutdown`], then drains jobs
    /// already on workers and joins the pool. Idempotent; also invoked by
    /// `Drop`.
    pub fn shutdown(&mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            handle.join().expect("job worker panicked");
        }
    }
}

impl<R: Send + 'static> Drop for JobEngine<R> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop<R: Send + 'static>(shared: &EngineShared<R>) {
    loop {
        let (id, job, ctx) = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if let Some((id, job)) = state.queue.pop_front() {
                    let record = state.jobs.get_mut(&id).expect("queued job has a record");
                    record.status = JobStatus::Running;
                    state.running += 1;
                    let record = &state.jobs[&id];
                    let ctx = JobCtx {
                        id,
                        cancel: record.cancel.clone(),
                        checkpoints: Arc::clone(&record.checkpoints),
                    };
                    break (id, job, ctx);
                }
                if state.shutting_down {
                    return;
                }
                state = shared.work.wait(state).unwrap();
            }
        };

        let outcome = match catch_unwind(AssertUnwindSafe(|| job(&ctx))) {
            Ok(outcome) => outcome,
            Err(payload) => JobOutcome::Failed(format!(
                "job panicked: {}",
                payload_message(payload.as_ref())
            )),
        };

        let mut state = shared.state.lock().unwrap();
        state.running -= 1;
        let record = state.jobs.get_mut(&id).expect("running job has a record");
        match outcome {
            JobOutcome::Done(result) => {
                record.status = JobStatus::Done;
                record.result = Some(result);
            }
            JobOutcome::Cancelled => record.status = JobStatus::Cancelled,
            JobOutcome::Failed(reason) => {
                record.status = JobStatus::Failed;
                record.error = Some(reason);
            }
        }
        state.retire(id, shared.retention);
        drop(state);
        shared.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    const WAIT: Duration = Duration::from_secs(20);

    #[test]
    fn jobs_complete_with_results() {
        let engine: JobEngine<u64> = JobEngine::new(2, 8);
        let ids: Vec<JobId> = (0..5)
            .map(|k| engine.submit(move |_| JobOutcome::Done(k * k)).unwrap())
            .collect();
        for (k, id) in ids.iter().enumerate() {
            assert_eq!(engine.wait_terminal(*id, WAIT), Some(JobStatus::Done));
            let snap = engine.snapshot(*id).unwrap();
            assert_eq!(snap.result, Some((k * k) as u64));
            assert_eq!(snap.error, None);
        }
    }

    #[test]
    fn queue_capacity_is_enforced() {
        // One worker, blocked on a gate: the queue fills behind it.
        let engine: JobEngine<()> = JobEngine::new(1, 2);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let blocker = engine
            .submit(move |_| {
                started_tx.send(()).unwrap();
                gate_rx.recv().ok();
                JobOutcome::Done(())
            })
            .unwrap();
        started_rx.recv_timeout(WAIT).unwrap();
        let a = engine.submit(|_| JobOutcome::Done(())).unwrap();
        let b = engine.submit(|_| JobOutcome::Done(())).unwrap();
        assert_eq!(
            engine.submit(|_| JobOutcome::Done(())).unwrap_err(),
            SubmitError::QueueFull
        );
        gate_tx.send(()).unwrap();
        for id in [blocker, a, b] {
            assert_eq!(engine.wait_terminal(id, WAIT), Some(JobStatus::Done));
        }
        // Capacity frees up once the queue drains.
        let c = engine.submit(|_| JobOutcome::Done(())).unwrap();
        assert_eq!(engine.wait_terminal(c, WAIT), Some(JobStatus::Done));
    }

    #[test]
    fn queued_jobs_cancel_immediately() {
        let engine: JobEngine<()> = JobEngine::new(1, 8);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let blocker = engine
            .submit(move |_| {
                started_tx.send(()).unwrap();
                gate_rx.recv().ok();
                JobOutcome::Done(())
            })
            .unwrap();
        started_rx.recv_timeout(WAIT).unwrap();
        let queued = engine.submit(|_| JobOutcome::Done(())).unwrap();
        assert!(engine.cancel(queued));
        assert_eq!(
            engine.snapshot(queued).unwrap().status,
            JobStatus::Cancelled
        );
        // A terminal job cannot be cancelled again.
        assert!(!engine.cancel(queued));
        gate_tx.send(()).unwrap();
        assert_eq!(engine.wait_terminal(blocker, WAIT), Some(JobStatus::Done));
    }

    #[test]
    fn running_jobs_observe_their_token() {
        let engine: JobEngine<u32> = JobEngine::new(1, 4);
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let id = engine
            .submit(move |ctx| {
                started_tx.send(()).unwrap();
                while !ctx.cancel.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                JobOutcome::Cancelled
            })
            .unwrap();
        started_rx.recv_timeout(WAIT).unwrap();
        assert!(engine.cancel(id));
        assert_eq!(engine.wait_terminal(id, WAIT), Some(JobStatus::Cancelled));
    }

    #[test]
    fn checkpoints_flip_observable_status() {
        let engine: JobEngine<()> = JobEngine::new(1, 4);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (noted_tx, noted_rx) = mpsc::channel::<()>();
        let id = engine
            .submit(move |ctx| {
                ctx.note_checkpoint();
                noted_tx.send(()).unwrap();
                gate_rx.recv().ok();
                JobOutcome::Done(())
            })
            .unwrap();
        noted_rx.recv_timeout(WAIT).unwrap();
        let snap = engine.snapshot(id).unwrap();
        assert_eq!(snap.status, JobStatus::Checkpointed);
        assert_eq!(snap.checkpoints, 1);
        gate_tx.send(()).unwrap();
        assert_eq!(engine.wait_terminal(id, WAIT), Some(JobStatus::Done));
        assert_eq!(engine.snapshot(id).unwrap().status, JobStatus::Done);
    }

    #[test]
    fn panicking_jobs_fail_without_killing_workers() {
        let engine: JobEngine<()> = JobEngine::new(1, 4);
        let bad = engine
            .submit(|_| -> JobOutcome<()> { panic!("solver diverged") })
            .unwrap();
        assert_eq!(engine.wait_terminal(bad, WAIT), Some(JobStatus::Failed));
        let snap = engine.snapshot(bad).unwrap();
        assert!(snap.error.unwrap().contains("solver diverged"));
        // The worker survives and runs the next job.
        let good = engine.submit(|_| JobOutcome::Done(())).unwrap();
        assert_eq!(engine.wait_terminal(good, WAIT), Some(JobStatus::Done));
    }

    #[test]
    fn shutdown_drains_in_flight_and_cancels_queued() {
        let mut engine: JobEngine<u32> = JobEngine::new(1, 8);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let in_flight = engine
            .submit(move |_| {
                started_tx.send(()).unwrap();
                gate_rx.recv().ok();
                JobOutcome::Done(7)
            })
            .unwrap();
        started_rx.recv_timeout(WAIT).unwrap();
        let queued = engine.submit(|_| JobOutcome::Done(8)).unwrap();
        // Begin shutdown while the worker is still gated: the queued job
        // must be cancelled, not raced onto the freed worker.
        engine.begin_shutdown();
        assert_eq!(
            engine.snapshot(queued).unwrap().status,
            JobStatus::Cancelled
        );
        assert_eq!(
            engine.submit(|_| JobOutcome::Done(9)).unwrap_err(),
            SubmitError::ShuttingDown
        );
        gate_tx.send(()).unwrap();
        engine.shutdown();
        assert_eq!(engine.snapshot(in_flight).unwrap().status, JobStatus::Done);
        assert_eq!(engine.snapshot(in_flight).unwrap().result, Some(7));
    }

    #[test]
    fn terminal_records_are_evicted_beyond_the_retention_cap() {
        let engine: JobEngine<u64> = JobEngine::with_retention(1, 8, 2);
        let ids: Vec<JobId> = (0..4)
            .map(|k| {
                let id = engine.submit(move |_| JobOutcome::Done(k)).unwrap();
                // Drain each job before submitting the next so eviction
                // order is deterministic.
                assert_eq!(engine.wait_terminal(id, WAIT), Some(JobStatus::Done));
                id
            })
            .collect();
        // Only the two most recent terminal records survive; evicted ids
        // behave exactly like unknown ids.
        assert!(engine.snapshot(ids[0]).is_none());
        assert!(engine.snapshot(ids[1]).is_none());
        assert_eq!(engine.status(ids[2]), Some(JobStatus::Done));
        assert_eq!(engine.snapshot(ids[3]).unwrap().result, Some(3));
        assert!(!engine.cancel(ids[0]));
        assert_eq!(
            engine.wait_terminal(ids[0], Duration::from_millis(10)),
            None
        );
    }

    #[test]
    fn submit_with_id_keeps_auto_ids_above() {
        let engine: JobEngine<()> = JobEngine::new(1, 8);
        let restored = engine.submit_with_id(41, |_| JobOutcome::Done(())).unwrap();
        assert_eq!(restored, 41);
        let fresh = engine.submit(|_| JobOutcome::Done(())).unwrap();
        assert_eq!(fresh, 42);
        for id in [restored, fresh] {
            assert_eq!(engine.wait_terminal(id, WAIT), Some(JobStatus::Done));
        }
    }

    #[test]
    fn fifo_order_on_a_single_worker() {
        let engine: JobEngine<()> = JobEngine::new(1, 16);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let order = Arc::new(Mutex::new(Vec::new()));
        let blocker = engine
            .submit(move |_| {
                started_tx.send(()).unwrap();
                gate_rx.recv().ok();
                JobOutcome::Done(())
            })
            .unwrap();
        started_rx.recv_timeout(WAIT).unwrap();
        let ids: Vec<JobId> = (0..4)
            .map(|k| {
                let order = Arc::clone(&order);
                engine
                    .submit(move |_| {
                        order.lock().unwrap().push(k);
                        JobOutcome::Done(())
                    })
                    .unwrap()
            })
            .collect();
        gate_tx.send(()).unwrap();
        for id in ids.iter().chain(std::iter::once(&blocker)) {
            assert_eq!(engine.wait_terminal(*id, WAIT), Some(JobStatus::Done));
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }
}
