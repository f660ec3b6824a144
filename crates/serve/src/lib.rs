//! `emgrid-serve`: a zero-dependency analysis daemon for the EM power-grid
//! toolkit.
//!
//! The crate turns the library pipelines (via-array characterization, full
//! power-grid Monte Carlo, FEA stress characterization) into a long-running
//! service with a small JSON-over-HTTP API, built entirely on `std`:
//!
//! * [`server`] — the job service both `emgrid serve` and `emgrid sweep`
//!   run jobs through, and the daemon's lifecycle and routing, with every
//!   connection served by one `poll(2)` event loop (hence unix-only);
//! * [`spec`] — strict job-spec parsing with a canonical persisted form;
//! * `runner` — job execution against the deterministic MC sessions;
//! * [`store`] — crash-safe per-job state directories (atomic renames);
//! * [`json`] — deterministic JSON reader/writer;
//! * [`http`] — incremental request parsing and response serialization;
//! * `metrics` — Prometheus text exposition counters.
//!
//! Two properties anchor the design. **Determinism:** a job's result
//! document depends only on its spec — never on worker count, queue order,
//! or whether the daemon was restarted mid-job — so identical submissions
//! produce byte-identical results. **Checkpointability:** Monte Carlo jobs
//! persist checkpoints at fixed trial watermarks, and a daemon killed with
//! `kill -9` requeues and resumes unfinished jobs on restart without
//! re-running committed trials.

#[cfg(not(unix))]
compile_error!("emgrid-serve serves connections on a poll(2) event loop and needs a unix target");

pub(crate) mod event_loop;
pub mod http;
pub mod json;
pub(crate) mod metrics;
pub(crate) mod poll;
pub(crate) mod runner;
pub mod server;
pub mod spec;
pub mod store;

pub use server::{JobService, JobsApi, JobsApiError, RouteHook, ServeConfig, Server};
pub use spec::{
    DeckSource, JobBody, JobSpec, McParams, ResolvedAnalyze, ResolvedFea, ResolvedJob, ResolvedMc,
    SolverSpec, SpecError, VariationSpec, SCHEMA_VERSION,
};
pub use store::{DiskJob, JobStore};
