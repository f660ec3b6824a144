//! On-disk job state, laid out for crash-safe restarts.
//!
//! Each job owns a directory `<state_dir>/<id>/` containing:
//!
//! | file         | meaning                                              |
//! |--------------|------------------------------------------------------|
//! | `spec.json`  | the accepted job spec (canonical JSON)               |
//! | `checkpoint` | latest MC checkpoint (versioned text format)         |
//! | `result.json`| final result document, served verbatim               |
//! | `error`      | failure message when the job failed                  |
//! | `cancelled`  | marker: a client cancelled the job — never requeue   |
//! | `sweep`      | owning sweep id, when a sweep submitted the job      |
//!
//! Every write goes through the runtime's one atomic tmp-file + rename
//! ([`emgrid_runtime::write_atomic`]), as the FEA
//! [`StressCache`](emgrid_via::StressCache) and the sweep store do:
//! readers (and a daemon restarted after `kill -9`) see either the
//! previous complete file or the new complete file, never a torn one.
//! Status is *derived* from which files exist, so there is no separate
//! status record to get out of sync.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use emgrid_runtime::{write_atomic, JobId};

use crate::json::{self, Json};

/// A job's state on disk, as found by a startup scan.
#[derive(Debug)]
pub enum DiskJob {
    /// `result.json` exists: the job finished.
    Done,
    /// `error` exists: the job failed with this message.
    Failed(String),
    /// `cancelled` marker exists: a client cancelled it.
    Cancelled,
    /// Only `spec.json` (and possibly `checkpoint`): the daemon died with
    /// this job unfinished; it must be requeued.
    Unfinished {
        /// The persisted spec document.
        spec: Json,
    },
}

/// Filesystem root for job state.
#[derive(Debug, Clone)]
pub struct JobStore {
    root: PathBuf,
}

impl JobStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<JobStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(JobStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory owned by one job.
    pub fn dir(&self, id: JobId) -> PathBuf {
        self.root.join(id.to_string())
    }

    /// Persists the accepted spec (must happen before the job is queued).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_spec(&self, id: JobId, spec: &Json) -> io::Result<()> {
        write_atomic(&self.dir(id), "spec.json", spec.to_string().as_bytes())
    }

    /// Persists a checkpoint snapshot.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_checkpoint(&self, id: JobId, text: &str) -> io::Result<()> {
        write_atomic(&self.dir(id), "checkpoint", text.as_bytes())
    }

    /// Reads the latest checkpoint, if one was ever written.
    pub fn read_checkpoint(&self, id: JobId) -> Option<String> {
        fs::read_to_string(self.dir(id).join("checkpoint")).ok()
    }

    /// Persists the final result document.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_result(&self, id: JobId, result: &str) -> io::Result<()> {
        write_atomic(&self.dir(id), "result.json", result.as_bytes())
    }

    /// Reads the final result document verbatim.
    pub fn read_result(&self, id: JobId) -> Option<Vec<u8>> {
        fs::read(self.dir(id).join("result.json")).ok()
    }

    /// Persists a failure message.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_error(&self, id: JobId, message: &str) -> io::Result<()> {
        write_atomic(&self.dir(id), "error", message.as_bytes())
    }

    /// Reads the failure message, if the job failed.
    pub fn read_error(&self, id: JobId) -> Option<String> {
        fs::read_to_string(self.dir(id).join("error")).ok()
    }

    /// Marks the job client-cancelled so a restart will not requeue it.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn mark_cancelled(&self, id: JobId) -> io::Result<()> {
        write_atomic(&self.dir(id), "cancelled", b"")
    }

    /// Whether the job carries the client-cancelled marker.
    pub fn is_cancelled(&self, id: JobId) -> bool {
        self.dir(id).join("cancelled").exists()
    }

    /// Records which sweep owns this job, so status documents can point
    /// clients back at `GET /v1/sweeps/:id`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_sweep(&self, id: JobId, sweep: &str) -> io::Result<()> {
        write_atomic(&self.dir(id), "sweep", sweep.as_bytes())
    }

    /// The owning sweep id, if a sweep submitted this job.
    pub fn read_sweep(&self, id: JobId) -> Option<String> {
        fs::read_to_string(self.dir(id).join("sweep")).ok()
    }

    /// Whether the job has any state on disk at all.
    pub fn exists(&self, id: JobId) -> bool {
        self.dir(id).join("spec.json").exists()
    }

    /// Classifies one job's on-disk state ([`None`] if it has no spec).
    pub fn load(&self, id: JobId) -> Option<DiskJob> {
        let dir = self.dir(id);
        let spec_text = fs::read_to_string(dir.join("spec.json")).ok()?;
        if dir.join("result.json").exists() {
            return Some(DiskJob::Done);
        }
        if let Some(message) = self.read_error(id) {
            return Some(DiskJob::Failed(message));
        }
        if self.is_cancelled(id) {
            return Some(DiskJob::Cancelled);
        }
        // A torn spec cannot happen (atomic rename), but a spec written by
        // a newer incompatible version could fail to parse; surface that
        // as a failed job rather than refusing to start.
        match json::parse(&spec_text) {
            Ok(spec) => Some(DiskJob::Unfinished { spec }),
            Err(e) => Some(DiskJob::Failed(format!("unreadable spec: {e}"))),
        }
    }

    /// Scans the store, returning every job id found (sorted ascending)
    /// with its classified state. Non-numeric directory entries and stray
    /// tmp files are ignored.
    pub fn scan(&self) -> Vec<(JobId, DiskJob)> {
        let Ok(entries) = fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let mut ids: Vec<JobId> = entries
            .flatten()
            .filter_map(|e| e.file_name().to_str().and_then(|n| n.parse().ok()))
            .collect();
        ids.sort_unstable();
        ids.into_iter()
            .filter_map(|id| self.load(id).map(|state| (id, state)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> JobStore {
        let root = std::env::temp_dir().join(format!("emgrid-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        JobStore::open(root).unwrap()
    }

    #[test]
    fn lifecycle_files_drive_the_derived_state() {
        let store = temp_store("lifecycle");
        let spec = Json::Obj(vec![("kind".into(), Json::s("characterize"))]);
        store.write_spec(7, &spec).unwrap();
        assert!(matches!(store.load(7), Some(DiskJob::Unfinished { .. })));

        store
            .write_checkpoint(7, "emgrid-via-checkpoint-v1\n")
            .unwrap();
        assert!(matches!(store.load(7), Some(DiskJob::Unfinished { .. })));
        assert_eq!(
            store.read_checkpoint(7).as_deref(),
            Some("emgrid-via-checkpoint-v1\n")
        );

        store.write_result(7, "{\"ok\":true}").unwrap();
        assert!(matches!(store.load(7), Some(DiskJob::Done)));
        assert_eq!(store.read_result(7).unwrap(), b"{\"ok\":true}");

        // Unknown ids have no state.
        assert!(store.load(99).is_none());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn failed_and_cancelled_states_are_terminal() {
        let store = temp_store("terminal");
        let spec = Json::Obj(vec![]);
        store.write_spec(1, &spec).unwrap();
        store.write_error(1, "boom").unwrap();
        assert!(matches!(store.load(1), Some(DiskJob::Failed(m)) if m == "boom"));

        store.write_spec(2, &spec).unwrap();
        store.mark_cancelled(2).unwrap();
        assert!(matches!(store.load(2), Some(DiskJob::Cancelled)));
        assert!(store.is_cancelled(2));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn sweep_marker_round_trips_without_affecting_state() {
        let store = temp_store("sweep");
        let spec = Json::Obj(vec![]);
        store.write_spec(5, &spec).unwrap();
        assert_eq!(store.read_sweep(5), None);
        store.write_sweep(5, "a1b2c3d4e5f60718").unwrap();
        assert_eq!(store.read_sweep(5).as_deref(), Some("a1b2c3d4e5f60718"));
        // The marker is metadata: the derived lifecycle state is unchanged.
        assert!(matches!(store.load(5), Some(DiskJob::Unfinished { .. })));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn scan_sorts_ids_and_skips_junk() {
        let store = temp_store("scan");
        let spec = Json::Obj(vec![]);
        for id in [10u64, 2, 33] {
            store.write_spec(id, &spec).unwrap();
        }
        fs::create_dir_all(store.root().join("not-a-job")).unwrap();
        fs::write(store.root().join(".orphan.tmp"), b"x").unwrap();
        let ids: Vec<JobId> = store.scan().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![2, 10, 33]);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn writes_leave_no_tmp_droppings() {
        let store = temp_store("tmp");
        store.write_spec(1, &Json::Obj(vec![])).unwrap();
        store.write_checkpoint(1, "x").unwrap();
        store.write_result(1, "{}").unwrap();
        let names: Vec<String> = fs::read_dir(store.dir(1))
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().all(|n| !n.ends_with(".tmp")),
            "tmp files left behind: {names:?}"
        );
        let _ = fs::remove_dir_all(store.root());
    }
}
