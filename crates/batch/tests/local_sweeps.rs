//! Conformance suite for the sweep engine over a socketless job service:
//! report byte-stability across worker counts and in-flight windows,
//! partial-failure aggregation, and shutdown-mid-sweep resume.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use emgrid_batch::backend::{JobBackend, JobPoll};
use emgrid_batch::{SubmissionState, SweepEngine};
use emgrid_runtime::JobId;
use emgrid_serve::{JobBody, JobService, JobSpec, JobsApi, JobsApiError, ServeConfig};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "emgrid-batch-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const SMALL_SWEEP: &str = r#"{
    "name": "conformance",
    "job": {"kind": "characterize", "trials": 64, "threads": 1, "criterion": "rinf"},
    "axes": {
        "array": ["1x1", "4x4"],
        "pattern": ["plus", "ell"]
    }
}"#;

/// Opens a job service over `state_dir`, as `emgrid sweep` does.
fn open_service(state_dir: &Path, workers: usize) -> JobService {
    JobService::open(&ServeConfig {
        state_dir: state_dir.to_path_buf(),
        workers,
        checkpoint_every: 16,
        ..ServeConfig::default()
    })
    .unwrap()
}

/// Runs `spec_text` to completion on a fresh service and returns the
/// report bytes.
fn run_sweep(tag: &str, spec_text: &str, workers: usize, max_in_flight: usize) -> Vec<u8> {
    let root = temp_dir(tag);
    let service = open_service(&root.join("jobs"), workers);
    let engine = SweepEngine::new(
        Arc::new(service.jobs_api()),
        root.join("jobs").join("sweeps"),
        max_in_flight,
    )
    .unwrap();
    let submission = engine.submit_text(spec_text).unwrap();
    assert_eq!(submission.state, SubmissionState::Started);
    engine.wait_idle();
    let report = engine
        .report_bytes(&submission.sweep)
        .expect("sweep finished without a report");
    let _ = std::fs::remove_dir_all(&root);
    report
}

#[test]
fn report_is_worker_count_and_in_flight_invariant() {
    let serial = run_sweep("serial", SMALL_SWEEP, 1, 1);
    let parallel = run_sweep("parallel", SMALL_SWEEP, 3, 8);
    assert_eq!(
        serial, parallel,
        "worker count or queue order leaked into the report"
    );
    let text = String::from_utf8(serial).unwrap();
    assert!(text.contains("\"kind\":\"sweep_report\""), "{text}");
    assert!(text.contains("\"jobs_total\":4"), "{text}");
    assert!(text.contains("\"jobs_done\":4"), "{text}");
    // Rows are addressed by derived keys, never numeric job ids.
    assert!(
        text.contains("\"key\":\"array=1x1,pattern=plus\""),
        "{text}"
    );
    // The pattern axis produces the comparison table view.
    assert!(text.contains("\"pattern_comparison\""), "{text}");
}

#[test]
fn resubmitting_a_completed_sweep_is_idempotent() {
    let root = temp_dir("idem");
    let service = open_service(&root.join("jobs"), 2);
    let engine = SweepEngine::new(
        Arc::new(service.jobs_api()),
        root.join("jobs").join("sweeps"),
        4,
    )
    .unwrap();
    let first = engine.submit_text(SMALL_SWEEP).unwrap();
    engine.wait_idle();
    let report = engine.report_bytes(&first.sweep).unwrap();
    let again = engine.submit_text(SMALL_SWEEP).unwrap();
    assert_eq!(again.state, SubmissionState::Complete);
    assert_eq!(again.sweep, first.sweep, "sweep id is content-derived");
    assert_eq!(engine.report_bytes(&first.sweep).unwrap(), report);
    let _ = std::fs::remove_dir_all(&root);
}

/// Delegates to [`JobsApi`] but sabotages jobs whose spec carries a
/// marker seed: the spec is persisted and an error artifact written, as
/// if a worker had failed the job.
#[derive(Clone)]
struct Sabotage {
    inner: JobsApi,
    marker_seed: u64,
}

impl Sabotage {
    fn sabotaged(&self, spec: &JobSpec) -> bool {
        matches!(&spec.body, JobBody::Characterize(mc) if mc.seed == self.marker_seed)
    }
}

impl JobBackend for Sabotage {
    fn allocate_id(&self) -> JobId {
        self.inner.allocate_id()
    }
    fn reserve_above(&self, floor: JobId) {
        self.inner.reserve_above(floor);
    }
    fn submit(&self, id: JobId, spec: &JobSpec) -> Result<(), JobsApiError> {
        if self.sabotaged(spec) {
            self.inner
                .store()
                .write_spec(id, &spec.to_json())
                .map_err(JobsApiError::Persist)?;
            let _ = self
                .inner
                .store()
                .write_error(id, "injected worker failure");
            return Ok(());
        }
        self.inner.submit(id, spec)
    }
    fn resubmit(&self, id: JobId, spec: JobSpec) -> Result<(), JobsApiError> {
        if self.sabotaged(&spec) {
            let _ = self
                .inner
                .store()
                .write_error(id, "injected worker failure");
            return Ok(());
        }
        self.inner.resubmit(id, spec)
    }
    fn poll(&self, id: JobId) -> JobPoll {
        self.inner.poll(id)
    }
    fn read_result(&self, id: JobId) -> Option<Vec<u8>> {
        self.inner.read_result(id)
    }
    fn mark_sweep(&self, id: JobId, sweep: &str) {
        self.inner.mark_sweep(id, sweep);
    }
    fn shutting_down(&self) -> bool {
        self.inner.shutting_down()
    }
}

#[test]
fn a_failed_job_is_listed_in_the_report_not_dropped() {
    let root = temp_dir("partial");
    let service = open_service(&root.join("jobs"), 2);
    let backend = Sabotage {
        inner: service.jobs_api(),
        marker_seed: 999,
    };
    let engine = SweepEngine::new(Arc::new(backend), root.join("jobs").join("sweeps"), 4).unwrap();
    let submission = engine
        .submit_text(
            r#"{
            "name": "partial-failure",
            "job": {"kind": "characterize", "trials": 48, "threads": 1},
            "axes": {"seed": [1, 999, 3]}
        }"#,
        )
        .unwrap();
    engine.wait_idle();
    let report = String::from_utf8(engine.report_bytes(&submission.sweep).unwrap()).unwrap();
    assert!(report.contains("\"jobs_total\":3"), "{report}");
    assert!(report.contains("\"jobs_done\":2"), "{report}");
    assert!(report.contains("\"jobs_failed\":1"), "{report}");
    // The failed entry is present, attributed, and carries its message.
    assert!(report.contains("\"key\":\"seed=999\""), "{report}");
    assert!(report.contains("injected worker failure"), "{report}");
    // The healthy entries still carry full result documents.
    assert!(report.contains("\"ttf_median_years\""), "{report}");
    let status = engine.status(&submission.sweep).unwrap();
    assert_eq!((status.done, status.failed, status.total), (2, 1, 3));
    let _ = std::fs::remove_dir_all(&root);
}

/// Shutdown mid-sweep, then resume on fresh service + engine instances
/// over the same state directories: the final report must be
/// byte-identical to an uninterrupted control run.
#[test]
fn shutdown_mid_sweep_resumes_to_an_identical_report() {
    let spec_text = r#"{
        "name": "resume",
        "job": {"kind": "characterize", "trials": 1200, "threads": 1, "array": "1x1"},
        "axes": {
            "pattern": ["plus", "tee"],
            "seed": [5, 6]
        }
    }"#;
    let control = run_sweep("resume-control", spec_text, 1, 1);

    let root = temp_dir("resume-victim");
    let jobs_dir = root.join("jobs");
    let sweeps_dir = jobs_dir.join("sweeps");
    let sweep = {
        let service = open_service(&jobs_dir, 1);
        let engine = SweepEngine::new(Arc::new(service.jobs_api()), &sweeps_dir, 1).unwrap();
        let submission = engine.submit_text(spec_text).unwrap();
        assert_eq!(submission.state, SubmissionState::Started);
        // Let the sweep make real progress (at least one settled job),
        // then interrupt it the way a daemon shutdown would.
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let status = engine.status(&submission.sweep).unwrap();
            if status.done >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "sweep made no progress");
            std::thread::sleep(Duration::from_millis(10));
        }
        service.shutdown(true);
        engine.wait_idle();
        // Interrupted, not completed: no report yet.
        assert!(engine.report_bytes(&submission.sweep).is_none());
        submission.sweep
    };

    // "Restart": fresh service (requeues unfinished jobs from disk) and
    // a fresh engine that resumes every report-less sweep.
    let service = open_service(&jobs_dir, 1);
    let engine = SweepEngine::new(Arc::new(service.jobs_api()), &sweeps_dir, 1).unwrap();
    assert_eq!(engine.resume_all(), 1);
    engine.wait_idle();
    let resumed = engine
        .report_bytes(&sweep)
        .expect("resumed sweep wrote no report");
    assert_eq!(
        resumed, control,
        "resumed report diverged from the uninterrupted control"
    );
    let _ = std::fs::remove_dir_all(&root);
}
