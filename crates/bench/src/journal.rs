//! Append-only journal of completed experiment cells, the backbone of
//! `repro --resume`.
//!
//! The journal lives at `<out_dir>/run_journal.jsonl`. Line one is a
//! header fingerprinting the run configuration (scale, app sets); every
//! further line records one experiment that finished *after* its JSON
//! artifact was atomically renamed into place, together with the failure
//! records its grid produced. The write ordering (artifact rename →
//! journal append → fsync) means a journaled id always has a complete
//! artifact on disk, so a resumed run can skip it outright and still
//! converge to byte-identical output — including `failures.json`, which
//! is reconstructed from the journaled failure records of skipped cells.
//!
//! A SIGKILL mid-append can tear at most the final line; [`RunJournal::resume`]
//! tolerates (and drops) exactly that line.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};

use ehs_telemetry::jsonl;
use serde_json::{json, Value};

use crate::fsutil::{self, JournalFormat};

/// Journal file name inside the results directory.
pub const JOURNAL_FILE: &str = "run_journal.jsonl";

/// Header format shared with the other journals via
/// [`fsutil::resume_journal`].
const FORMAT: JournalFormat = JournalFormat {
    name: "kagura-repro",
    version: 1,
    log_tag: "resume",
    torn_note: "its experiment will re-run",
    mismatch_hint: "resume with the original --scale/--apps or start a fresh --out",
};

/// The append-only run journal (see module docs).
#[derive(Debug)]
pub struct RunJournal {
    path: PathBuf,
    file: File,
    /// Completed experiment id → the failure records its run produced.
    completed: BTreeMap<String, Vec<Value>>,
}

impl RunJournal {
    /// Starts a fresh journal in `out_dir`, truncating any previous one,
    /// and writes the fingerprint header.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the journal file.
    pub fn create(out_dir: &Path, fingerprint: Value) -> io::Result<Self> {
        fs::create_dir_all(out_dir)?;
        let path = out_dir.join(JOURNAL_FILE);
        let file = fsutil::create_journal(&path, &FORMAT, &fingerprint)?;
        Ok(RunJournal { path, file, completed: BTreeMap::new() })
    }

    /// Reopens an existing journal for appending, returning the set of
    /// already-completed cells. A missing journal degrades to
    /// [`RunJournal::create`]; a torn final line (killed mid-append) is
    /// dropped.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] when the header is
    /// unreadable or fingerprints the journal for a *different* run
    /// configuration — resuming under changed parameters would splice
    /// incompatible results into one output tree.
    pub fn resume(out_dir: &Path, fingerprint: Value) -> io::Result<Self> {
        let path = out_dir.join(JOURNAL_FILE);
        let Some((file, records)) = fsutil::resume_journal(&path, &FORMAT, &fingerprint)? else {
            return Self::create(out_dir, fingerprint);
        };
        let mut completed = BTreeMap::new();
        for cell in records {
            if let Ok(id) = jsonl::str(&cell, "id") {
                let failures = jsonl::array(&cell, "failures").unwrap_or_default().to_vec();
                completed.insert(id.to_string(), failures);
            }
        }
        Ok(RunJournal { path, file, completed })
    }

    /// Whether `id` already completed (in this process or a journaled
    /// predecessor).
    pub fn is_done(&self, id: &str) -> bool {
        self.completed.contains_key(id)
    }

    /// Count of completed cells.
    pub fn len(&self) -> usize {
        self.completed.len()
    }

    /// `true` when nothing has completed yet.
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty()
    }

    /// Journals one completed experiment with its failure records,
    /// fsyncing before returning: once this call comes back the cell is
    /// durable and will be skipped by any future resume.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the append or sync.
    pub fn record(&mut self, id: &str, failures: Vec<Value>) -> io::Result<()> {
        let cell = json!({ "id": id, "failures": failures.clone() });
        fsutil::append_journal_record(&mut self.file, &cell)?;
        self.completed.insert(id.to_string(), failures);
        Ok(())
    }

    /// Every failure record across all completed cells, in deterministic
    /// (id-sorted, then submission) order — the input to `failures.json`.
    pub fn all_failures(&self) -> Vec<Value> {
        self.completed.values().flat_map(|v| v.iter().cloned()).collect()
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kagura_journal_{name}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn journal_round_trips_completed_cells() {
        let dir = tmp("roundtrip");
        let fp = json!({"scale": 0.1});
        {
            let mut j = RunJournal::create(&dir, fp.clone()).unwrap();
            j.record("fig3", vec![]).unwrap();
            j.record("fig13", vec![json!({"app": "sha", "kind": "panic"})]).unwrap();
        }
        let j = RunJournal::resume(&dir, fp).unwrap();
        assert!(j.is_done("fig3") && j.is_done("fig13"));
        assert!(!j.is_done("fig14"));
        assert_eq!(j.len(), 2);
        assert_eq!(j.all_failures(), vec![json!({"app": "sha", "kind": "panic"})]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_mismatched_fingerprint() {
        let dir = tmp("fingerprint");
        RunJournal::create(&dir, json!({"scale": 0.1})).unwrap();
        let err = RunJournal::resume(&dir, json!({"scale": 0.2})).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("fingerprint"), "unhelpful error: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_tolerates_a_torn_final_line_only() {
        let dir = tmp("torn");
        let fp = json!({"scale": 0.1});
        {
            let mut j = RunJournal::create(&dir, fp.clone()).unwrap();
            j.record("fig3", vec![]).unwrap();
        }
        // Simulate SIGKILL mid-append: a partial record with no newline.
        use std::io::Write as _;
        let mut f = fs::OpenOptions::new().append(true).open(dir.join(JOURNAL_FILE)).unwrap();
        f.write_all(b"{\"id\":\"fig1").unwrap();
        drop(f);
        let mut j = RunJournal::resume(&dir, fp.clone()).unwrap();
        assert!(j.is_done("fig3"));
        assert_eq!(j.len(), 1, "torn cell must not count as done");
        // The torn tail must be truncated off disk, not just skipped:
        // appending after it would otherwise glue the next record onto
        // the partial line and hard-fail every later resume.
        j.record("fig14", vec![]).unwrap();
        drop(j);
        let j = RunJournal::resume(&dir, fp.clone()).unwrap();
        assert!(j.is_done("fig3") && j.is_done("fig14"));
        assert_eq!(j.len(), 2, "append after a torn tail must survive a second resume");
        drop(j);
        // Corruption *before* the end is a hard error, not silent loss.
        let header =
            json!({"journal": FORMAT.name, "version": FORMAT.version, "fingerprint": fp.clone()});
        fs::write(
            dir.join(JOURNAL_FILE),
            format!(
                "{}\nnot json\n{}\n",
                serde_json::to_string(&header).unwrap(),
                serde_json::to_string(&json!({"id": "fig3", "failures": []})).unwrap(),
            ),
        )
        .unwrap();
        assert!(RunJournal::resume(&dir, fp).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_without_journal_starts_fresh() {
        let dir = tmp("fresh");
        let j = RunJournal::resume(&dir, json!({"scale": 0.1})).unwrap();
        assert!(j.is_empty());
        assert!(j.path().exists(), "resume must leave a journal behind");
        fs::remove_dir_all(&dir).unwrap();
    }
}
