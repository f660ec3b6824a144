//! The on-disk sweep manifest: the crash-safe record of which expanded
//! job holds which engine id and how far it has progressed.
//!
//! Each sweep owns `<sweeps_root>/<sweep-id>/` containing:
//!
//! | file            | meaning                                           |
//! |-----------------|---------------------------------------------------|
//! | `spec.json`     | the canonical sweep spec text                     |
//! | `manifest.json` | entry states and job-id bindings (this module)    |
//! | `report.json`   | the final aggregated report, byte-stable          |
//!
//! Every write goes through the runtime's one atomic tmp-file + rename
//! ([`emgrid_runtime::write_atomic`]), as the job store's do, so a
//! `kill -9` at any instant leaves either the previous complete manifest
//! or the new complete manifest — never a torn one.
//!
//! # Entry state machine
//!
//! ```text
//! pending ──(id bound, persisted)──▶ submitted ──▶ done
//!                                        │    └──▶ failed
//!                                        └───────▶ cancelled
//! ```
//!
//! The binding write happens *before* the job is handed to the engine:
//! a crash between the two leaves a bound entry whose job is missing,
//! and the resume pass simply submits the persisted spec under the
//! already-bound id. The reverse order would orphan a running job and
//! double-submit its work under a fresh id.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use emgrid_runtime::{write_atomic, JobId};
use emgrid_serve::json::{self, Json};

/// Manifest format version, bumped on layout changes.
const MANIFEST_VERSION: f64 = 1.0;

/// Where one sweep entry stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// No job id bound yet.
    Pending,
    /// An id is bound and the job has been (or is about to be) queued.
    Submitted,
    /// The job's result document is on disk.
    Done,
    /// The job failed; the message lives in the job store.
    Failed,
    /// A client cancelled the job; the sweep records, not retries, it.
    Cancelled,
}

impl EntryState {
    /// The manifest wire label.
    pub fn label(self) -> &'static str {
        match self {
            EntryState::Pending => "pending",
            EntryState::Submitted => "submitted",
            EntryState::Done => "done",
            EntryState::Failed => "failed",
            EntryState::Cancelled => "cancelled",
        }
    }

    fn from_label(label: &str) -> Option<EntryState> {
        Some(match label {
            "pending" => EntryState::Pending,
            "submitted" => EntryState::Submitted,
            "done" => EntryState::Done,
            "failed" => EntryState::Failed,
            "cancelled" => EntryState::Cancelled,
            _ => return None,
        })
    }

    /// Whether this entry needs no further scheduling.
    pub fn is_settled(self) -> bool {
        matches!(
            self,
            EntryState::Done | EntryState::Failed | EntryState::Cancelled
        )
    }
}

/// One expanded job's progress record.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The stable derived key from the scenario expansion.
    pub key: String,
    /// The engine job id, once bound.
    pub job: Option<JobId>,
    /// Where the entry stands.
    pub state: EntryState,
}

/// The progress record of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The content-derived sweep id.
    pub sweep: String,
    /// The sweep's display name.
    pub name: String,
    /// One entry per expanded job, in expansion order.
    pub entries: Vec<Entry>,
}

impl Manifest {
    /// A fresh manifest with every entry pending.
    pub fn new(sweep: &str, name: &str, keys: &[String]) -> Manifest {
        Manifest {
            sweep: sweep.to_owned(),
            name: name.to_owned(),
            entries: keys
                .iter()
                .map(|key| Entry {
                    key: key.clone(),
                    job: None,
                    state: EntryState::Pending,
                })
                .collect(),
        }
    }

    /// Whether this manifest covers exactly `keys` in order — the guard
    /// against a manifest written by a different expansion.
    pub fn matches(&self, keys: &[String]) -> bool {
        self.entries.len() == keys.len() && self.entries.iter().zip(keys).all(|(e, k)| &e.key == k)
    }

    /// Settled/total progress counts: `(done, failed, cancelled, total)`.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut done = 0;
        let mut failed = 0;
        let mut cancelled = 0;
        for entry in &self.entries {
            match entry.state {
                EntryState::Done => done += 1,
                EntryState::Failed => failed += 1,
                EntryState::Cancelled => cancelled += 1,
                EntryState::Pending | EntryState::Submitted => {}
            }
        }
        (done, failed, cancelled, self.entries.len())
    }

    /// The highest bound job id, for reserving the daemon's id counter
    /// above everything a resumed sweep already owns.
    pub fn max_job_id(&self) -> Option<JobId> {
        self.entries.iter().filter_map(|e| e.job).max()
    }

    /// The serialized form.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("version".into(), Json::n(MANIFEST_VERSION)),
            ("sweep".into(), Json::s(&self.sweep)),
            ("name".into(), Json::s(&self.name)),
            (
                "entries".into(),
                Json::Arr(
                    self.entries
                        .iter()
                        .map(|entry| {
                            let mut pairs = vec![("key".to_owned(), Json::s(&entry.key))];
                            if let Some(job) = entry.job {
                                pairs.push(("job".into(), Json::n(job as f64)));
                            }
                            pairs.push(("state".into(), Json::s(entry.state.label())));
                            Json::Obj(pairs)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a persisted manifest; `None` on any structural mismatch
    /// (the caller falls back to rebuilding from the expansion).
    pub fn from_json(doc: &Json) -> Option<Manifest> {
        if doc.get("version")?.as_f64()? != MANIFEST_VERSION {
            return None;
        }
        let sweep = doc.get("sweep")?.as_str()?.to_owned();
        let name = doc.get("name")?.as_str()?.to_owned();
        let Json::Arr(rows) = doc.get("entries")? else {
            return None;
        };
        let mut entries = Vec::with_capacity(rows.len());
        for row in rows {
            entries.push(Entry {
                key: row.get("key")?.as_str()?.to_owned(),
                job: match row.get("job") {
                    Some(v) => Some(v.as_u64()?),
                    None => None,
                },
                state: EntryState::from_label(row.get("state")?.as_str()?)?,
            });
        }
        Some(Manifest {
            sweep,
            name,
            entries,
        })
    }
}

/// Filesystem root for sweep state (`<root>/<sweep-id>/…`).
#[derive(Debug, Clone)]
pub struct SweepStore {
    root: PathBuf,
}

impl SweepStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<SweepStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(SweepStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory owned by one sweep.
    pub fn dir(&self, sweep: &str) -> PathBuf {
        self.root.join(sweep)
    }

    /// Persists the canonical sweep spec text.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_spec(&self, sweep: &str, canonical: &str) -> io::Result<()> {
        write_atomic(&self.dir(sweep), "spec.json", canonical.as_bytes())
    }

    /// Reads the canonical sweep spec text.
    pub fn read_spec(&self, sweep: &str) -> Option<String> {
        fs::read_to_string(self.dir(sweep).join("spec.json")).ok()
    }

    /// Persists the manifest atomically.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_manifest(&self, manifest: &Manifest) -> io::Result<()> {
        write_atomic(
            &self.dir(&manifest.sweep),
            "manifest.json",
            manifest.to_json().to_string().as_bytes(),
        )
    }

    /// Reads and parses the manifest, `None` if absent or unreadable.
    pub fn read_manifest(&self, sweep: &str) -> Option<Manifest> {
        let text = fs::read_to_string(self.dir(sweep).join("manifest.json")).ok()?;
        Manifest::from_json(&json::parse(&text).ok()?)
    }

    /// Persists the final aggregated report.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_report(&self, sweep: &str, bytes: &[u8]) -> io::Result<()> {
        write_atomic(&self.dir(sweep), "report.json", bytes)
    }

    /// Reads the final report verbatim.
    pub fn read_report(&self, sweep: &str) -> Option<Vec<u8>> {
        fs::read(self.dir(sweep).join("report.json")).ok()
    }

    /// The path the report lives at (for CLI output).
    pub fn report_path(&self, sweep: &str) -> PathBuf {
        self.dir(sweep).join("report.json")
    }

    /// Every sweep id with a persisted spec, sorted for determinism.
    pub fn list(&self) -> Vec<String> {
        let Ok(entries) = fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let mut ids: Vec<String> = entries
            .flatten()
            .filter_map(|e| e.file_name().to_str().map(str::to_owned))
            .filter(|id| self.dir(id).join("spec.json").is_file())
            .collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn temp_store(tag: &str) -> SweepStore {
        let root =
            std::env::temp_dir().join(format!("emgrid-sweepstore-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        SweepStore::open(root).unwrap()
    }

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("axis=v{i}")).collect()
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let mut manifest = Manifest::new("deadbeefdeadbeef", "fig8", &keys(3));
        manifest.entries[0].job = Some(7);
        manifest.entries[0].state = EntryState::Done;
        manifest.entries[1].job = Some(9);
        manifest.entries[1].state = EntryState::Submitted;
        let text = manifest.to_json().to_string();
        let again = Manifest::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(manifest, again);
        assert_eq!(again.counts(), (1, 0, 0, 3));
        assert_eq!(again.max_job_id(), Some(9));
    }

    #[test]
    fn matches_guards_key_set_and_order() {
        let manifest = Manifest::new("s", "n", &keys(2));
        assert!(manifest.matches(&keys(2)));
        assert!(!manifest.matches(&keys(3)));
        let mut reversed = keys(2);
        reversed.reverse();
        assert!(!manifest.matches(&reversed));
    }

    #[test]
    fn store_round_trips_all_three_artifacts() {
        let store = temp_store("roundtrip");
        let manifest = Manifest::new("abc123", "demo", &keys(2));
        store.write_spec("abc123", "{\"name\":\"demo\"}").unwrap();
        store.write_manifest(&manifest).unwrap();
        store
            .write_report("abc123", b"{\"kind\":\"sweep_report\"}")
            .unwrap();
        assert_eq!(
            store.read_spec("abc123").as_deref(),
            Some("{\"name\":\"demo\"}")
        );
        assert_eq!(store.read_manifest("abc123"), Some(manifest));
        assert_eq!(
            store.read_report("abc123").as_deref(),
            Some(b"{\"kind\":\"sweep_report\"}".as_slice())
        );
        assert_eq!(store.list(), vec!["abc123".to_owned()]);
        let _ = fs::remove_dir_all(store.root());
    }

    /// JSON tokens and wrong-typed values. Spliced into a valid manifest's
    /// text they mostly keep it JSON, so `from_json` sees wrong types and
    /// values; `1e16` is past the ids a JSON number holds exactly.
    const MANIFEST_TOKENS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "\"\"",
        "\"done\"",
        "\"bogus\"",
        "1",
        "-1",
        "1.5",
        "1e16",
        "null",
        "true",
    ];

    /// A short string of quotes, backslashes, control characters and
    /// arbitrary code points.
    fn text(rng: &mut TestRng) -> String {
        (0..rng.next_below(10))
            .map(|_| match rng.next_below(3) {
                0 => ['"', '\\', '\n', '\u{0}', '=', ','][rng.next_below(6) as usize],
                _ => char::from_u32(rng.next_below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
            })
            .collect()
    }

    /// A manifest with zero to 20 entries in every state. Job ids stay in
    /// the range a JSON number holds exactly (up to 2^53), as engine ids do.
    fn any_manifest(rng: &mut TestRng) -> Manifest {
        const STATES: [EntryState; 5] = [
            EntryState::Pending,
            EntryState::Submitted,
            EntryState::Done,
            EntryState::Failed,
            EntryState::Cancelled,
        ];
        Manifest {
            sweep: text(rng),
            name: text(rng),
            entries: (0..rng.next_below(21))
                .map(|_| Entry {
                    key: text(rng),
                    job: (rng.next_below(4) > 0).then(|| rng.next_below((1 << 53) + 1)),
                    state: STATES[rng.next_below(5) as usize],
                })
                .collect(),
        }
    }

    /// A valid manifest's text with one to four spans replaced by tokens.
    fn mangled_manifest(rng: &mut TestRng) -> String {
        let mut text = any_manifest(rng).to_json().to_string();
        for _ in 0..=rng.next_below(3) {
            let mut at = rng.next_below(text.len() as u64 + 1) as usize;
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            let mut end = (at + rng.next_below(8) as usize).min(text.len());
            while !text.is_char_boundary(end) {
                end -= 1;
            }
            let token = MANIFEST_TOKENS[rng.next_below(MANIFEST_TOKENS.len() as u64) as usize];
            text.replace_range(at..end, token);
        }
        text
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn from_json_never_panics_on_parsed_token_text(input in FnStrategy(mangled_manifest)) {
            if let Ok(doc) = json::parse(&input) {
                let _ = Manifest::from_json(&doc);
            }
        }

        #[test]
        fn generated_manifests_round_trip(manifest in FnStrategy(any_manifest)) {
            let text = manifest.to_json().to_string();
            let doc = json::parse(&text);
            prop_assert!(doc.is_ok(), "{text}");
            prop_assert_eq!(Manifest::from_json(&doc.unwrap()), Some(manifest));
        }
    }

    #[test]
    fn unreadable_manifests_read_as_none_not_panic() {
        let store = temp_store("junk");
        fs::create_dir_all(store.dir("bad")).unwrap();
        fs::write(store.dir("bad").join("manifest.json"), b"{not json").unwrap();
        assert_eq!(store.read_manifest("bad"), None);
        // No spec.json → not listed.
        assert!(store.list().is_empty());
        let _ = fs::remove_dir_all(store.root());
    }
}
