//! `emgrid-batch`: the manifest-driven sweep engine.
//!
//! Takes a declarative [`SweepSpec`](emgrid_scenarios::SweepSpec), fans
//! its expansion out through the checkpointable job engine, records
//! progress in an atomically-updated on-disk manifest, and folds the
//! results — in manifest order, addressed by derived keys — into one
//! byte-stable aggregated report (the paper's Figs. 8–10 as one
//! artifact).
//!
//! * [`manifest`] — the crash-safe sweep store and entry state machine;
//! * [`backend`] — where jobs run: the job service's [`JobsApi`] handle,
//!   behind both `POST /v1/sweeps` and `emgrid sweep`, polled disk-first;
//! * [`engine`] — the per-sweep dispatcher and resume protocol;
//! * `report` — aggregation into TTF-vs-j curves and Plus/T/L tables;
//! * [`http`] — the `/v1/sweeps` routes, mounted via the daemon's route
//!   hook.
//!
//! The governing contract is inherited from the rest of the workspace:
//! the report's bytes depend only on the sweep spec. `kill -9` at any
//! instant, restart, worker-count changes and queue reordering all
//! converge on the identical artifact, and the conformance tests in
//! `tests/` hold the crate to it.
//!
//! [`JobsApi`]: emgrid_serve::JobsApi

pub mod backend;
pub mod engine;
pub mod http;
pub mod manifest;
mod report;

pub use backend::{JobBackend, JobPoll};
pub use engine::{Submission, SubmissionState, SweepEngine, SweepStatus};
pub use manifest::{Entry, EntryState, Manifest, SweepStore};
