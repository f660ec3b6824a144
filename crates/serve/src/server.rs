//! The daemon: lifecycle, routing, and the job-engine wiring. One
//! `poll(2)` event loop (`event_loop.rs`) owns every connection and hands
//! parsed requests to [`route`] on a small dispatcher pool.
//!
//! # Endpoints
//!
//! | method & path            | purpose                                    |
//! |--------------------------|--------------------------------------------|
//! | `POST /v1/jobs`          | submit a job spec; `202` with its id       |
//! | `GET /v1/jobs/:id`       | status: queued/running/checkpointed/…      |
//! | `GET /v1/jobs/:id/result`| the result document, byte-for-byte         |
//! | `DELETE /v1/jobs/:id`    | cancel (running jobs checkpoint first)     |
//! | `GET /healthz`           | liveness probe                             |
//! | `GET /metrics`           | Prometheus text exposition                 |
//!
//! # Restart semantics
//!
//! All authoritative job state lives in the [`JobStore`]; on startup the
//! daemon scans it and requeues every unfinished job under its original
//! id. A job with a checkpoint resumes from its watermark instead of
//! restarting trial zero, and because the whole pipeline is deterministic
//! the post-restart result is byte-identical to an uninterrupted run —
//! `kill -9` costs at most `checkpoint_every` trials of progress.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use emgrid_runtime::{JobEngine, JobId, JobOutcome, JobStatus, SubmitError};
use emgrid_spice::ingest::{ingest, IngestError, IngestLimits, IngestOptions};

use crate::http::{Request, Response};
use crate::json::{self, Json};
use crate::metrics::Metrics;
use crate::runner::{run_job, PhaseLog, RunEnv};
use crate::spec::{DeckSource, JobBody, JobSpec};
use crate::store::{DiskJob, JobStore};

/// A pluggable handler consulted for requests no built-in route claims
/// (see [`Server::set_route_hook`]). Returning `None` falls through to
/// the daemon's `404`.
pub type RouteHook = Arc<dyn Fn(&Request) -> Option<Response> + Send + Sync>;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Job-engine worker threads.
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it get `503`.
    pub queue_depth: usize,
    /// Trials between Monte Carlo checkpoints (0 disables).
    pub checkpoint_every: usize,
    /// Root directory for per-job state.
    pub state_dir: PathBuf,
    /// Stress-cache directory for `fea` jobs (`None` = crate default).
    pub cache_dir: Option<PathBuf>,
    /// Largest accepted request body, bytes.
    pub max_body_bytes: usize,
    /// Largest accepted inline netlist, lines. The ingest default caps a
    /// deck at 400k lines — far below a chip-scale benchgen grid, whose
    /// decks run to millions of cards — so screening-scale deployments
    /// raise this (`--max-netlist-lines`) instead of getting the deck
    /// rejected at the door.
    pub max_netlist_lines: usize,
    /// Most open connections; connections beyond the cap are shed with an
    /// immediate nonblocking `503`.
    pub max_connections: usize,
    /// Total time a client gets to deliver one request; a connection that
    /// has not delivered one by then gets a `408`.
    pub request_deadline: Duration,
    /// Enables `POST /debug/panic`, a route whose handler panics — used by
    /// regression tests and the CI smoke job (via the hidden
    /// `--debug-panic-route` serve flag) to prove that panicking handlers
    /// neither crash the daemon nor leak connection slots. Off by default.
    pub debug_panic_route: bool,
    /// Dispatcher threads that run route handlers (min 2; thread 0 is
    /// reserved for interactive routes).
    pub dispatchers: usize,
    /// Per-peer-IP in-flight request cap (0 = unlimited). Requests over
    /// the cap are deferred, not rejected, so one aggressive client cannot
    /// occupy every dispatcher.
    pub max_in_flight_per_client: usize,
    /// Total budget graceful shutdown spends waiting for outstanding jobs
    /// — shared across all of them, not per job, so N stuck jobs cost one
    /// grace period rather than N.
    pub shutdown_grace: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 64,
            checkpoint_every: 64,
            state_dir: PathBuf::from("results").join("jobs"),
            cache_dir: None,
            max_body_bytes: 8 * 1024 * 1024,
            max_netlist_lines: IngestLimits::default().max_lines,
            max_connections: 256,
            request_deadline: Duration::from_secs(30),
            debug_panic_route: false,
            dispatchers: 2,
            max_in_flight_per_client: 64,
            shutdown_grace: Duration::from_secs(600),
        }
    }
}

pub(crate) struct Shared {
    pub(crate) engine: JobEngine<String>,
    pub(crate) store: JobStore,
    pub(crate) metrics: Metrics,
    pub(crate) phases: PhaseLog,
    pub(crate) checkpoint_every: usize,
    pub(crate) cache_dir: Option<PathBuf>,
    pub(crate) max_body: usize,
    pub(crate) max_netlist_lines: usize,
    pub(crate) max_connections: usize,
    pub(crate) request_deadline: Duration,
    pub(crate) debug_panic_route: bool,
    pub(crate) next_id: AtomicU64,
    pub(crate) shutting_down: AtomicBool,
    /// Extension routes (e.g. `/v1/sweeps` from `emgrid-batch`), consulted
    /// only after every built-in route has declined the request.
    pub(crate) route_hook: RwLock<Option<RouteHook>>,
    /// Connections the event loop holds open, as reported in `/metrics`.
    pub(crate) active_connections: AtomicUsize,
    /// Ids submitted or requeued by this process that may still be live,
    /// for shutdown (terminal ids are pruned as new work arrives).
    pub(crate) known: Mutex<Vec<JobId>>,
}

/// A running daemon instance.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    shutdown_grace: Duration,
}

impl Server {
    /// Binds, requeues unfinished jobs from the state directory, and
    /// starts accepting connections.
    ///
    /// # Errors
    ///
    /// Propagates bind and state-directory failures.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let store = JobStore::open(&config.state_dir)?;
        // Classify on-disk jobs *before* sizing the engine: at kill time up
        // to workers + queue_depth unfinished jobs can exist (running jobs
        // hold no queue slot), and an operator may restart with a smaller
        // --queue-depth. The startup queue must fit every unfinished job or
        // requeueing would fail on every boot until the state dir is pruned.
        let mut unfinished = Vec::new();
        let mut max_id = 0;
        for (id, state) in store.scan() {
            max_id = max_id.max(id);
            match state {
                DiskJob::Unfinished { spec } => match JobSpec::from_json(&spec) {
                    Ok(spec) => unfinished.push((id, spec)),
                    Err(e) => {
                        let _ = store.write_error(id, &format!("unreadable spec: {e}"));
                    }
                },
                DiskJob::Done | DiskJob::Failed(_) | DiskJob::Cancelled => {}
            }
        }
        let queue_depth = config.queue_depth.max(unfinished.len());
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine: JobEngine::new(config.workers, queue_depth),
            store,
            metrics: Metrics::default(),
            phases: PhaseLog::default(),
            checkpoint_every: config.checkpoint_every,
            cache_dir: config.cache_dir,
            max_body: config.max_body_bytes,
            max_netlist_lines: config.max_netlist_lines,
            max_connections: config.max_connections.max(1),
            request_deadline: config.request_deadline,
            debug_panic_route: config.debug_panic_route,
            next_id: AtomicU64::new(max_id + 1),
            shutting_down: AtomicBool::new(false),
            route_hook: RwLock::new(None),
            active_connections: AtomicUsize::new(0),
            known: Mutex::new(Vec::new()),
        });
        for (id, spec) in unfinished {
            if let Err(e) = enqueue(&shared, id, spec) {
                // The queue was sized to fit, so this cannot happen — but a
                // startup must never turn one bad job into a crash loop. The
                // job stays unfinished on disk for the next restart.
                eprintln!("emgrid-serve: cannot requeue job {id}: {e}");
            }
        }

        let accept_shared = Arc::clone(&shared);
        let options = crate::event_loop::EventLoopOptions {
            dispatchers: config.dispatchers,
            max_in_flight_per_client: config.max_in_flight_per_client,
        };
        let accept = std::thread::Builder::new()
            .name("emgrid-accept".into())
            .spawn(move || crate::event_loop::run(listener, accept_shared, options))
            .expect("spawn accept thread");
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            shutdown_grace: config.shutdown_grace,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The root of the job state directory.
    pub fn state_dir(&self) -> PathBuf {
        self.shared.store.root().to_path_buf()
    }

    /// Blocks the calling thread until the event loop exits — i.e. until
    /// the process is killed or another thread initiates shutdown. This is
    /// how `emgrid serve` runs as a foreground daemon.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }

    /// Installs the extension-route handler consulted for requests no
    /// built-in route claims (e.g. `/v1/sweeps` from `emgrid-batch`).
    pub fn set_route_hook(&self, hook: RouteHook) {
        *self
            .shared
            .route_hook
            .write()
            .unwrap_or_else(|e| e.into_inner()) = Some(hook);
    }

    /// A handle for submitting jobs programmatically (used by the sweep
    /// engine), sharing this daemon's id space, store, and job engine.
    pub fn jobs_api(&self) -> JobsApi {
        JobsApi {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Graceful shutdown: stop accepting, let queued and running jobs
    /// finish, then stop the workers.
    pub fn shutdown(mut self) {
        self.stop(false);
    }

    /// Fast shutdown: stop accepting and cancel outstanding jobs. Running
    /// Monte Carlo jobs commit a final checkpoint on the way out, so a
    /// later restart resumes them without losing committed trials.
    pub fn shutdown_now(mut self) {
        self.stop(true);
    }

    fn stop(&mut self, cancel_jobs: bool) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the event loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // A poisoned lock only means some handler panicked while holding
        // it; the id list carries no invariant worth dying over.
        let ids: Vec<JobId> = self
            .shared
            .known
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        if cancel_jobs {
            for id in &ids {
                self.shared.engine.cancel(*id);
            }
        }
        wait_all_terminal(&self.shared.engine, &ids, self.shutdown_grace);
        self.shared.engine.begin_shutdown();
    }
}

/// Waits for every id to reach a terminal state under ONE shared grace
/// deadline. The old per-job `wait_terminal(id, 600s)` loop meant N stuck
/// jobs stalled shutdown for N×600s; here the budget is global, and once
/// it is spent the remaining ids still get a zero-timeout status check
/// (already-terminal jobs never block).
fn wait_all_terminal(engine: &JobEngine<String>, ids: &[JobId], grace: Duration) {
    let deadline = Instant::now() + grace;
    for id in ids {
        let left = deadline.saturating_duration_since(Instant::now());
        let _ = engine.wait_terminal(*id, left);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop(true);
    }
}

/// Why [`JobsApi::submit`] or [`JobsApi::resubmit`] rejected a job.
#[derive(Debug)]
pub enum JobsApiError {
    /// The engine's bounded queue is full; retry after jobs drain.
    QueueFull,
    /// The daemon is shutting down; no new work is accepted.
    ShuttingDown,
    /// The spec could not be persisted (jobs must never run spec-less).
    Persist(std::io::Error),
}

impl std::fmt::Display for JobsApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobsApiError::QueueFull => write!(f, "job queue full"),
            JobsApiError::ShuttingDown => write!(f, "daemon shutting down"),
            JobsApiError::Persist(e) => write!(f, "cannot persist job spec: {e}"),
        }
    }
}

impl std::error::Error for JobsApiError {}

/// Programmatic job submission sharing the daemon's id space, store, and
/// engine — how the sweep engine fans jobs out without going through
/// HTTP. Cloning is cheap (one `Arc`).
#[derive(Clone)]
pub struct JobsApi {
    shared: Arc<Shared>,
}

impl JobsApi {
    /// Allocates the next job id (never reused within this process).
    pub fn allocate_id(&self) -> JobId {
        self.shared.next_id.fetch_add(1, Ordering::SeqCst)
    }

    /// Ensures future [`allocate_id`](Self::allocate_id) calls return ids
    /// strictly above `floor` — called by the sweep engine after reading
    /// a manifest so resumed sweeps never collide with their own jobs.
    pub fn reserve_above(&self, floor: JobId) {
        self.shared.next_id.fetch_max(floor + 1, Ordering::SeqCst);
    }

    /// Persists `spec` under `id` and queues it.
    ///
    /// The caller owns `id` exclusively (the engine panics on duplicate
    /// live ids, so callers must confirm via the store/engine that the id
    /// is unknown before submitting).
    ///
    /// # Errors
    ///
    /// [`JobsApiError::Persist`] if the spec cannot be written,
    /// [`JobsApiError::QueueFull`] / [`JobsApiError::ShuttingDown`] from
    /// the engine. On engine rejection the persisted spec is left on disk
    /// so a later retry (or a daemon restart) can still run the job.
    pub fn submit(&self, id: JobId, spec: &JobSpec) -> Result<(), JobsApiError> {
        self.shared
            .store
            .write_spec(id, &spec.to_json())
            .map_err(JobsApiError::Persist)?;
        self.resubmit(id, spec.clone())
    }

    /// Queues a job whose spec is already on disk under `id`.
    ///
    /// # Errors
    ///
    /// [`JobsApiError::QueueFull`] / [`JobsApiError::ShuttingDown`].
    pub fn resubmit(&self, id: JobId, spec: JobSpec) -> Result<(), JobsApiError> {
        enqueue(&self.shared, id, spec).map_err(|e| match e {
            SubmitError::QueueFull => JobsApiError::QueueFull,
            SubmitError::ShuttingDown => JobsApiError::ShuttingDown,
        })
    }

    /// The engine's view of a job (`None` once evicted or never known).
    pub fn engine_status(&self, id: JobId) -> Option<JobStatus> {
        self.shared.engine.status(id)
    }

    /// The daemon's job store (authoritative terminal state).
    pub fn store(&self) -> JobStore {
        self.shared.store.clone()
    }

    /// Whether the daemon has begun shutting down.
    pub fn shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::SeqCst)
    }
}

/// Queues a job closure under `id`.
fn enqueue(shared: &Arc<Shared>, id: JobId, spec: JobSpec) -> Result<(), SubmitError> {
    let job_shared = Arc::clone(shared);
    let submitted = Instant::now();
    shared.engine.submit_with_id(id, move |ctx| {
        job_shared
            .metrics
            .queue_wait
            .observe_duration(submitted.elapsed());
        let started = Instant::now();
        let env = RunEnv {
            store: &job_shared.store,
            metrics: &job_shared.metrics,
            checkpoint_every: job_shared.checkpoint_every,
            cache_dir: job_shared.cache_dir.as_deref(),
            max_netlist_bytes: job_shared.max_body,
            max_netlist_lines: job_shared.max_netlist_lines,
            phases: Some(&job_shared.phases),
        };
        let outcome = run_job(&spec, ctx, &env);
        job_shared
            .metrics
            .job_duration
            .observe_duration(started.elapsed());
        // Persist the terminal state before the engine observes it, so a
        // `done` status always has its result on disk.
        match &outcome {
            JobOutcome::Done(result) => {
                let _ = job_shared.store.write_result(ctx.id, result);
                Metrics::inc(&job_shared.metrics.jobs_done);
            }
            JobOutcome::Failed(message) => {
                let _ = job_shared.store.write_error(ctx.id, message);
                Metrics::inc(&job_shared.metrics.jobs_failed);
            }
            JobOutcome::Cancelled => {
                Metrics::inc(&job_shared.metrics.jobs_cancelled);
            }
        }
        outcome
    })?;
    Metrics::inc(&shared.metrics.jobs_submitted);
    // Recover from poisoning: a plain id vec has no invariant a panicked
    // thread could have broken, and dying here would turn one crashed
    // connection into a daemon that rejects every later submission.
    let mut known = shared.known.lock().unwrap_or_else(|e| e.into_inner());
    // Terminal ids no longer need shutdown handling; pruning here keeps
    // the list proportional to live work, not to total jobs ever run.
    known.retain(|kid| {
        shared
            .engine
            .status(*kid)
            .is_some_and(|status| !status.is_terminal())
    });
    known.push(id);
    Ok(())
}

/// The latency-histogram label for a parsed request.
pub(crate) fn route_label(request: &Request) -> &'static str {
    let segments: Vec<&str> = request
        .path()
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    match segments.as_slice() {
        ["healthz"] => "healthz",
        ["metrics"] => "metrics",
        ["v1", "jobs"] => "submit",
        ["v1", "jobs", _] if request.method == "DELETE" => "cancel",
        ["v1", "jobs", _] => "status",
        ["v1", "jobs", _, "result"] => "result",
        ["v1", "sweeps", ..] => "sweep",
        _ => "other",
    }
}

pub(crate) fn route(request: &Request, shared: &Arc<Shared>) -> Response {
    let segments: Vec<&str> = request
        .path()
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Response::json(
            200,
            &Json::Obj(vec![
                ("status".into(), Json::s("ok")),
                ("version".into(), Json::s(env!("CARGO_PKG_VERSION"))),
            ]),
        ),
        ("GET", ["metrics"]) => Response::text(
            200,
            shared.metrics.render(
                shared.engine.queue_len(),
                shared.engine.running(),
                shared.active_connections.load(Ordering::SeqCst),
            ),
        ),
        ("POST", ["debug", "panic"]) if shared.debug_panic_route => {
            panic!("induced panic (debug route)")
        }
        ("POST", ["v1", "jobs"]) => submit(request, shared),
        ("GET", ["v1", "jobs", id]) => match id.parse() {
            Ok(id) => status(id, shared),
            Err(_) => Response::error(404, "job ids are integers"),
        },
        ("GET", ["v1", "jobs", id, "result"]) => match id.parse() {
            Ok(id) => result(id, shared),
            Err(_) => Response::error(404, "job ids are integers"),
        },
        ("DELETE", ["v1", "jobs", id]) => match id.parse() {
            Ok(id) => cancel(id, shared),
            Err(_) => Response::error(404, "job ids are integers"),
        },
        (_, ["healthz" | "metrics"]) | (_, ["v1", "jobs", ..]) => {
            Response::error(405, "method not allowed")
        }
        _ => {
            // A poisoned hook lock means a handler panicked mid-request;
            // the Arc inside carries no state a panic could corrupt.
            let hook = shared
                .route_hook
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .clone();
            match hook.and_then(|hook| hook(request)) {
                Some(response) => response,
                None => Response::error(404, "no such route"),
            }
        }
    }
}

fn submit(request: &Request, shared: &Arc<Shared>) -> Response {
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return Response::error(400, "body must be UTF-8 JSON");
    };
    let doc = match json::parse(body) {
        Ok(doc) => doc,
        Err(e) => return Response::error(400, e.to_string()),
    };
    let spec = match JobSpec::from_json(&doc) {
        Ok(spec) => spec,
        // Structured body: {"error": ..., "field": ...} so clients can
        // point at the offending spec field without parsing prose.
        Err(e) => return Response::json(400, &e.to_json()),
    };
    // Uploaded netlists are screened at the door: a deck that cannot pass
    // ingest would only fail later inside a worker, wasting queue space.
    if let JobBody::Analyze {
        deck: DeckSource::Netlist(text),
        repair_vias,
        ..
    } = &spec.body
    {
        let options = IngestOptions {
            limits: IngestLimits {
                max_bytes: shared.max_body,
                max_lines: shared.max_netlist_lines,
            },
            repair_vias: *repair_vias,
        };
        if let Err(e) = ingest(text, &options) {
            let kind = match &e {
                IngestError::TooLarge { .. } | IngestError::TooManyLines { .. } => "limit",
                IngestError::Parse(_) => "parse",
                IngestError::Lint(_) => "lint",
            };
            return Response::json(
                400,
                &Json::Obj(vec![
                    ("error".into(), Json::s(e.to_string())),
                    ("kind".into(), Json::s(kind)),
                ]),
            );
        }
    }

    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    if shared.store.write_spec(id, &spec.to_json()).is_err() {
        return Response::error(503, "cannot persist job spec");
    }
    match enqueue(shared, id, spec) {
        Ok(()) => Response::json(
            202,
            &Json::Obj(vec![
                ("id".into(), Json::n(id as f64)),
                ("status".into(), Json::s("queued")),
            ]),
        ),
        Err(e) => {
            // Remove the persisted spec so a restart does not resurrect a
            // job the client was told we rejected.
            let _ = std::fs::remove_dir_all(shared.store.dir(id));
            Response::error(503, e.to_string())
        }
    }
}

fn status(id: JobId, shared: &Arc<Shared>) -> Response {
    if let Some(snapshot) = shared.engine.snapshot(id) {
        let mut pairs = vec![
            ("id".into(), Json::n(id as f64)),
            ("status".into(), Json::s(snapshot.status.to_string())),
            ("checkpoints".into(), Json::n(snapshot.checkpoints as f64)),
        ];
        if let Some(error) = snapshot.error {
            pairs.push(("error".into(), Json::s(error)));
        }
        if let Some(sweep) = shared.store.read_sweep(id) {
            pairs.push(("sweep".into(), Json::s(sweep)));
        }
        // Phase wall times are status-doc-only telemetry: result docs must
        // stay byte-identical however long each stage took.
        let phases = shared.phases.phases(id);
        if !phases.is_empty() {
            pairs.push((
                "phases".into(),
                Json::Obj(
                    phases
                        .into_iter()
                        .map(|(name, seconds)| (format!("{name}_seconds"), Json::n(seconds)))
                        .collect(),
                ),
            ));
        }
        return Response::json(200, &Json::Obj(pairs));
    }
    // Jobs from a previous daemon process live only on disk.
    match shared.store.load(id) {
        Some(disk) => {
            let (status, error) = match disk {
                DiskJob::Done => (JobStatus::Done, None),
                DiskJob::Failed(message) => (JobStatus::Failed, Some(message)),
                DiskJob::Cancelled => (JobStatus::Cancelled, None),
                DiskJob::Unfinished { .. } => (JobStatus::Queued, None),
            };
            let mut pairs = vec![
                ("id".into(), Json::n(id as f64)),
                ("status".into(), Json::s(status.to_string())),
            ];
            if let Some(error) = error {
                pairs.push(("error".into(), Json::s(error)));
            }
            if let Some(sweep) = shared.store.read_sweep(id) {
                pairs.push(("sweep".into(), Json::s(sweep)));
            }
            Response::json(200, &Json::Obj(pairs))
        }
        None => Response::error(404, "no such job"),
    }
}

fn result(id: JobId, shared: &Arc<Shared>) -> Response {
    if let Some(bytes) = shared.store.read_result(id) {
        return Response::json_bytes(200, bytes);
    }
    if let Some(message) = shared.store.read_error(id) {
        return Response::error(409, format!("job failed: {message}"));
    }
    if shared.engine.snapshot(id).is_some() || shared.store.exists(id) {
        return Response::error(409, "job not finished");
    }
    Response::error(404, "no such job")
}

fn cancel(id: JobId, shared: &Arc<Shared>) -> Response {
    let known = shared.engine.snapshot(id).is_some() || shared.store.exists(id);
    if !known {
        return Response::error(404, "no such job");
    }
    // The marker keeps a restart from requeueing the job; the engine
    // cancel interrupts it if it is queued or running right now.
    let _ = shared.store.mark_cancelled(id);
    shared.engine.cancel(id);
    Response::json(
        200,
        &Json::Obj(vec![
            ("id".into(), Json::n(id as f64)),
            ("status".into(), Json::s("cancelling")),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};

    /// A handler that panics while holding `shared.known` must not take
    /// the daemon down with it: later lockers recover the poisoned mutex
    /// with `into_inner` and keep serving.
    #[test]
    fn poisoned_known_lock_is_recovered_not_fatal() {
        let state_dir = std::env::temp_dir().join(format!("emgrid-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            state_dir: state_dir.clone(),
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();

        // Poison the lock the way a panicking handler would.
        let shared = Arc::clone(&server.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.known.lock().unwrap();
            panic!("poison the known-ids lock");
        })
        .join();
        assert!(server.shared.known.lock().is_err(), "lock is poisoned");

        // Submission still locks `known` (to record the id for shutdown)
        // and must succeed despite the poison.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let body = r#"{"kind":"characterize","array":"1x1","trials":8,"seed":1}"#;
        let request = format!(
            "POST /v1/jobs HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 202"), "{response}");

        // Shutdown reads the same lock and must drain the job, not panic.
        server.shutdown();
        let _ = std::fs::remove_dir_all(state_dir);
    }

    /// Satellite regression: graceful shutdown used to call
    /// `wait_terminal(id, 600s)` once *per* job, so N stuck jobs stalled
    /// shutdown for N×600s. The grace budget must be shared: with one
    /// worker pinned by a slow job and several more queued behind it, the
    /// total wait is bounded by one grace period — not jobs × grace.
    #[test]
    fn shutdown_grace_is_shared_across_jobs_not_per_job() {
        use emgrid_runtime::JobEngine;

        let engine: JobEngine<String> = JobEngine::new(1, 16);
        let mut ids = Vec::new();
        for i in 0..5u64 {
            let id = engine
                .submit(move |ctx| {
                    // Ignore cancellation: these jobs model "stuck" work
                    // that outlives any reasonable shutdown patience.
                    let _ = ctx;
                    std::thread::sleep(Duration::from_millis(400));
                    JobOutcome::Done(format!("slow-{i}"))
                })
                .unwrap();
            ids.push(id);
        }

        let grace = Duration::from_millis(150);
        let start = Instant::now();
        wait_all_terminal(&engine, &ids, grace);
        let elapsed = start.elapsed();
        // Per-job waiting would cost ~5 × grace (and with the old 600s
        // constant, ~50 minutes). A single shared deadline returns within
        // one grace period plus the zero-timeout status checks.
        assert!(
            elapsed < grace * 3,
            "shared grace deadline exceeded: waited {elapsed:?} for 5 jobs with grace {grace:?}"
        );
    }
}
