//! Crash-safe artifact writes and the shared append-only journal format.
//!
//! Every report and journal artifact in the harness goes through
//! [`atomic_write`]: the bytes land in a `<final>.tmp` sibling, are
//! fsynced, and only then renamed over the destination. A power cut or
//! SIGKILL at any instant therefore leaves either the old complete file
//! or the new complete file — never a torn half-write — which is what
//! lets `repro --resume` trust any artifact it finds on disk.
//!
//! The harness also keeps three append-only JSONL journals with one
//! common shape — a fingerprint header line followed by one fsynced
//! record per line (`repro`'s run journal, the fleet shard journal, and
//! the `simrun serve` result cache). [`create_journal`] /
//! [`resume_journal`] / [`append_journal_record`] implement that format
//! once: header validation, fingerprint matching, per-record fsync, and
//! the torn-tail contract (a SIGKILL mid-append can tear at most the
//! final line, which resume drops *and truncates off disk* so later
//! appends land on a clean line boundary).
//!
//! The observer streams (`flight_*`, `cachescope_*`, `leakscope_*` and
//! `fleet` JSONL) share their file side here too: [`discover_streams`]
//! finds them and [`parse_stream_file`] runs one of the strict
//! [`ehs_telemetry::jsonl`] readers with `file:line` errors.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use ehs_telemetry::jsonl;
use serde_json::{json, Value};

/// Extension used for in-flight writes; `repro --resume` sweeps strays.
pub const TMP_SUFFIX: &str = "tmp";

/// Finds every `<prefix><name>.jsonl` under `dir` as `(name, path)`,
/// sorted by name so reports come out in a deterministic order.
pub fn discover_streams(dir: &Path, prefix: &str) -> Result<Vec<(String, PathBuf)>, String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(stem) = name.strip_prefix(prefix).and_then(|n| n.strip_suffix(".jsonl")) {
            found.push((stem.to_string(), entry.path()));
        }
    }
    found.sort();
    Ok(found)
}

/// Reads `path` and runs the strict stream parser `parse` over its text,
/// prefixing any `(1-based line, message)` error with `file:line:`.
pub fn parse_stream_file<T>(
    path: &Path,
    parse: impl FnOnce(&str) -> Result<T, (usize, String)>,
) -> Result<T, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|(line, msg)| format!("{}:{line}: {msg}", path.display()))
}

/// Writes `bytes` to `path` atomically: tmp sibling → fsync → rename.
///
/// # Errors
///
/// Returns any I/O error from creating, writing, syncing or renaming the
/// temporary file. On error the destination is untouched (a stray `.tmp`
/// may remain; resume sweeps them).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        // Durability before visibility: the rename must never expose a
        // file whose contents are still in the page cache only.
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// The `<path>.tmp` sibling used by [`atomic_write`].
fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".");
    os.push(TMP_SUFFIX);
    os.into()
}

/// Deletes leftover `*.tmp` files under `dir` (non-recursive): the
/// debris of a run killed mid-write. Missing directory is fine.
pub fn sweep_tmp_files(dir: &Path) -> io::Result<usize> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut swept = 0;
    for entry in entries {
        let path = entry?.path();
        if path.is_file() && path.extension().is_some_and(|e| e == TMP_SUFFIX) {
            fs::remove_file(&path)?;
            swept += 1;
        }
    }
    Ok(swept)
}

/// Identity of one journal flavour: the `journal`/`version` pair its
/// header must carry, plus the flavour-specific wording woven into
/// diagnostics (so a run journal still says "its experiment will
/// re-run" and a fleet journal "its shard re-runs").
#[derive(Debug, Clone, Copy)]
pub struct JournalFormat {
    /// Header `journal` field (e.g. `"kagura-repro"`).
    pub name: &'static str,
    /// Header `version` field; a mismatch is treated as a foreign file.
    pub version: u64,
    /// Tag for stderr warnings, e.g. `"resume"` → `[resume] …`.
    pub log_tag: &'static str,
    /// What happens to the work carried by a dropped torn final line.
    pub torn_note: &'static str,
    /// Appended to the fingerprint-mismatch error: how the user gets
    /// back to a resumable state.
    pub mismatch_hint: &'static str,
}

/// Creates (truncating) a journal at `path` and writes its fingerprint
/// header, fsynced. The returned handle is positioned for appends.
///
/// # Errors
///
/// Returns any I/O error from creating, writing or syncing the file.
pub fn create_journal(path: &Path, fmt: &JournalFormat, fingerprint: &Value) -> io::Result<File> {
    let mut file = File::create(path)?;
    let header = json!({
        "journal": fmt.name,
        "version": fmt.version,
        "fingerprint": fingerprint.clone(),
    });
    writeln!(file, "{}", serde_json::to_string(&header).expect("serializable"))?;
    file.sync_data()?;
    Ok(file)
}

/// Reopens the journal at `path` for appending, returning the complete
/// records after the header (parsed, in file order). A torn final line
/// — the only line a SIGKILL mid-append can tear, because every record
/// is fsynced before the writer returns — is dropped *and truncated off
/// disk*, so the next append starts on a clean line boundary instead of
/// gluing onto the partial record.
///
/// Returns `Ok(None)` when no journal exists (callers degrade to
/// [`create_journal`]).
///
/// # Errors
///
/// Fails with [`io::ErrorKind::InvalidData`] when the header is
/// unreadable, names a different format, or fingerprints a different
/// configuration — and on corruption *before* the final line, which the
/// append-only fsync discipline makes impossible short of external
/// tampering (silent data loss would be worse than a hard error).
pub fn resume_journal(
    path: &Path,
    fmt: &JournalFormat,
    fingerprint: &Value,
) -> io::Result<Option<(File, Vec<Value>)>> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut pieces = text.split_inclusive('\n');
    let header_piece = pieces.next().unwrap_or("");
    let header: Value = Some(header_piece)
        .filter(|p| p.ends_with('\n'))
        .and_then(|p| serde_json::from_str(p.trim_end()).ok())
        .ok_or_else(|| bad(format!("{}: missing or corrupt journal header", path.display())))?;
    if jsonl::str(&header, "journal") != Ok(fmt.name)
        || jsonl::u64(&header, "version") != Ok(fmt.version)
    {
        return Err(bad(format!(
            "{}: not a {} v{} journal",
            path.display(),
            fmt.name,
            fmt.version
        )));
    }
    let found = header.get("fingerprint").cloned().unwrap_or(Value::Null);
    if found != *fingerprint {
        let show = |v: &Value| serde_json::to_string(v).unwrap_or_else(|_| "?".into());
        return Err(bad(format!(
            "{}: journal fingerprint does not match this invocation \
             (journal {}, requested {}); {}",
            path.display(),
            show(&found),
            show(fingerprint),
            fmt.mismatch_hint,
        )));
    }
    let entries: Vec<&str> = pieces.collect();
    let mut records = Vec::with_capacity(entries.len());
    // Byte length of the journal's intact prefix — everything up to and
    // including the last record that both parses and carries its
    // trailing newline.
    let mut valid_len = header_piece.len() as u64;
    for (i, piece) in entries.iter().enumerate() {
        match serde_json::from_str(piece.trim_end()) {
            Ok(record) if piece.ends_with('\n') => {
                records.push(record);
                valid_len += piece.len() as u64;
            }
            // Only the final line can legitimately be torn (the journal
            // is append-only and fsynced per record).
            res if i + 1 == entries.len() => {
                let detail = match res {
                    Err(e) => e.to_string(),
                    Ok(_) => "record written without its newline".into(),
                };
                eprintln!(
                    "[{}] dropping torn final journal line ({detail}); {}",
                    fmt.log_tag, fmt.torn_note
                );
            }
            Err(e) => {
                return Err(bad(format!(
                    "{}: corrupt journal line {}: {e}",
                    path.display(),
                    i + 2
                )));
            }
            Ok(_) => unreachable!("only the final split_inclusive piece can lack a newline"),
        }
    }
    let file = OpenOptions::new().append(true).open(path)?;
    if valid_len < text.len() as u64 {
        // Drop the torn tail from disk too: with O_APPEND the next
        // record would otherwise be glued onto the partial line,
        // corrupting the journal for every later resume.
        file.set_len(valid_len)?;
        file.sync_data()?;
    }
    Ok(Some((file, records)))
}

/// Appends one record line and fsyncs: once this returns, the record
/// survives any kill.
///
/// # Errors
///
/// Returns any I/O error from the append or sync.
pub fn append_journal_record(file: &mut File, record: &Value) -> io::Result<()> {
    writeln!(file, "{}", serde_json::to_string(record).expect("serializable"))?;
    file.sync_data()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join("kagura_fsutil_atomic");
        fs::create_dir_all(&dir).unwrap();
        let target = dir.join("report.json");
        atomic_write(&target, b"{\"v\":1}").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"{\"v\":1}");
        atomic_write(&target, b"{\"v\":2}").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"{\"v\":2}");
        assert!(!tmp_path(&target).exists(), "tmp sibling must not survive");
        fs::remove_dir_all(&dir).unwrap();
    }

    const FMT: JournalFormat = JournalFormat {
        name: "kagura-test",
        version: 7,
        log_tag: "test",
        torn_note: "its record re-runs",
        mismatch_hint: "start fresh",
    };

    #[test]
    fn journal_helper_round_trips_and_truncates_torn_tail() {
        let dir = std::env::temp_dir().join("kagura_fsutil_journal");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        // u64 literal: the header round-trip parses positive integers
        // back as u64, and fingerprint equality is exact.
        let fp = json!({"k": 1u64});
        {
            let mut f = create_journal(&path, &FMT, &fp).unwrap();
            append_journal_record(&mut f, &json!({"id": "a"})).unwrap();
            append_journal_record(&mut f, &json!({"id": "b"})).unwrap();
        }
        // Tear the tail the way a SIGKILL mid-append would.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"id\":\"c").unwrap();
        drop(f);
        let (mut f, records) = resume_journal(&path, &FMT, &fp).unwrap().expect("journal exists");
        assert_eq!(records, vec![json!({"id": "a"}), json!({"id": "b"})]);
        // The torn bytes must be gone from disk: a fresh append then a
        // second resume sees three clean records.
        append_journal_record(&mut f, &json!({"id": "d"})).unwrap();
        drop(f);
        let (_, records) = resume_journal(&path, &FMT, &fp).unwrap().unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[2], json!({"id": "d"}));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_helper_rejects_foreign_headers_and_fingerprints() {
        let dir = std::env::temp_dir().join("kagura_fsutil_journal_reject");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        assert!(resume_journal(&path, &FMT, &json!({})).unwrap().is_none(), "missing → None");
        create_journal(&path, &FMT, &json!({"k": 1u64})).unwrap();
        let err = resume_journal(&path, &FMT, &json!({"k": 2u64})).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("fingerprint"), "{err}");
        assert!(err.to_string().contains("start fresh"), "hint must survive: {err}");
        let other = JournalFormat { version: 8, ..FMT };
        let err = resume_journal(&path, &other, &json!({"k": 1u64})).unwrap_err();
        assert!(err.to_string().contains("not a kagura-test v8 journal"), "{err}");
        // Corruption before the final line is a hard error.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, format!("{text}not json\n{{\"id\":\"x\"}}\n")).unwrap();
        assert!(resume_journal(&path, &FMT, &json!({"k": 1u64})).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_removes_only_tmp_debris() {
        let dir = std::env::temp_dir().join("kagura_fsutil_sweep");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("good.json"), b"{}").unwrap();
        fs::write(dir.join("torn.json.tmp"), b"{\"incompl").unwrap();
        assert_eq!(sweep_tmp_files(&dir).unwrap(), 1);
        assert!(dir.join("good.json").exists());
        assert!(!dir.join("torn.json.tmp").exists());
        assert_eq!(sweep_tmp_files(&dir.join("missing")).unwrap(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
