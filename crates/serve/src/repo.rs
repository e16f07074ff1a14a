//! The on-disk trace repository behind the daemon.
//!
//! A repository is a directory initialised once ([`TraceRepo::init`]) and
//! reopened on every daemon start ([`TraceRepo::open`]):
//!
//! ```text
//! <root>/
//!   .tt-repo          marker + format version (refuses to serve a
//!                     directory that was never initialised)
//!   traces/
//!     <name>.ttb      one binary columnar file per ingested trace
//! ```
//!
//! Traces enter in any supported text format (CSV, blkparse) or as TTB
//! and are converted to `.ttb` **once** at ingest; every later query is
//! an [`MmapTrace`] open of the converted file — validated once, then
//! shared by all concurrent readers through the crate-internal
//! [`MmapRegistry`]. Writes are atomic (temp file + rename inside the
//! repository), so a crashed ingest never leaves a half-written `.ttb`
//! visible, and replacing a trace invalidates the registry entry while
//! in-flight readers keep their `Arc` to the old mapping.
//!
//! Trace names are the only client-controlled path component, and
//! [`validate_name`] confines them to a single flat namespace: ASCII
//! `[A-Za-z0-9._-]`, at most 128 bytes, no leading dot. Separators never
//! survive validation, so a repository can only ever read or write
//! inside `<root>/traces/`.

use std::fs;
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tt_trace::format::{blk, csv, ttb, TraceFormat};
use tt_trace::{MmapRegistry, MmapTrace, Trace, TraceError};

/// Marker file written by [`TraceRepo::init`]; its first line is the
/// repository format version.
pub const MARKER: &str = ".tt-repo";
/// Subdirectory holding the converted `.ttb` files.
pub const TRACES_DIR: &str = "traces";
/// Current repository format version (line one of the marker file).
pub const REPO_VERSION: u32 = 1;

/// Longest accepted trace name, in bytes.
pub const MAX_NAME_LEN: usize = 128;

/// Per-process sequence number for temp-file names, so concurrent stores
/// of one trace name never share a temp file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Repository errors, each tagged with the HTTP-ish class the API layer
/// maps it to.
#[derive(Debug)]
pub enum RepoError {
    /// The client named a trace that does not exist (→ 404).
    NotFound(String),
    /// The client supplied an invalid trace name (→ 400).
    BadName(String),
    /// The client supplied a trace body that does not parse (→ 400).
    BadTrace(String),
    /// The directory is not an initialised repository (startup error).
    NotARepo(PathBuf),
    /// An I/O failure on the server side (→ 500).
    Io(String),
}

impl std::fmt::Display for RepoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepoError::NotFound(name) => write!(f, "no trace named {name:?} in the repository"),
            RepoError::BadName(msg) => write!(f, "invalid trace name: {msg}"),
            RepoError::BadTrace(msg) => write!(f, "invalid trace body: {msg}"),
            RepoError::NotARepo(root) => write!(
                f,
                "{} is not a trace repository (run with --init to create one)",
                root.display()
            ),
            RepoError::Io(msg) => write!(f, "repository I/O error: {msg}"),
        }
    }
}

impl std::error::Error for RepoError {}

impl From<TraceError> for RepoError {
    fn from(err: TraceError) -> RepoError {
        match err {
            TraceError::Io(msg) => RepoError::Io(msg),
            other => RepoError::BadTrace(other.to_string()),
        }
    }
}

/// Checks a client-supplied trace name: ASCII letters, digits, `.`, `_`,
/// `-`; 1–128 bytes; no leading dot (which also rejects `.` and `..`).
///
/// Path separators are outside the charset, so a validated name can only
/// ever address a direct child of the repository's `traces/` directory.
///
/// # Errors
///
/// Returns [`RepoError::BadName`] with the violated rule.
pub fn validate_name(name: &str) -> Result<(), RepoError> {
    if name.is_empty() {
        return Err(RepoError::BadName("name must not be empty".into()));
    }
    if name.len() > MAX_NAME_LEN {
        return Err(RepoError::BadName(format!(
            "name exceeds {MAX_NAME_LEN} bytes"
        )));
    }
    if name.starts_with('.') {
        return Err(RepoError::BadName(format!(
            "name {name:?} must not start with '.'"
        )));
    }
    if name.contains("..") {
        return Err(RepoError::BadName(format!(
            "name {name:?} must not contain \"..\""
        )));
    }
    if let Some(bad) = name
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
    {
        return Err(RepoError::BadName(format!(
            "name {name:?} contains {bad:?}; allowed: A-Z a-z 0-9 . _ -"
        )));
    }
    Ok(())
}

/// A TTB-backed trace repository: flat namespace of named traces, each a
/// `.ttb` file under `<root>/traces/`, with one shared read-only mapping
/// per trace for all concurrent readers.
#[derive(Debug)]
pub struct TraceRepo {
    root: PathBuf,
    registry: MmapRegistry,
}

impl TraceRepo {
    /// Creates the repository layout under `root` (which may already
    /// exist as an empty or partially initialised directory) and opens
    /// it. Idempotent: initialising an existing repository is a no-op.
    ///
    /// # Errors
    ///
    /// [`RepoError::Io`] when the directories or marker cannot be
    /// created.
    pub fn init(root: impl Into<PathBuf>) -> Result<TraceRepo, RepoError> {
        let root = root.into();
        let io = |e: std::io::Error| RepoError::Io(format!("{}: {e}", root.display()));
        fs::create_dir_all(root.join(TRACES_DIR)).map_err(io)?;
        let marker = root.join(MARKER);
        if !marker.exists() {
            fs::write(&marker, format!("{REPO_VERSION}\n")).map_err(io)?;
        }
        Self::open(root)
    }

    /// Opens an initialised repository, refusing directories without the
    /// [`MARKER`] file.
    ///
    /// # Errors
    ///
    /// [`RepoError::NotARepo`] when `root` was never initialised,
    /// [`RepoError::Io`] when the marker is unreadable or names an
    /// unsupported version.
    pub fn open(root: impl Into<PathBuf>) -> Result<TraceRepo, RepoError> {
        let root = root.into();
        let marker = root.join(MARKER);
        let text = match fs::read_to_string(&marker) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(RepoError::NotARepo(root))
            }
            Err(e) => return Err(RepoError::Io(format!("{}: {e}", marker.display()))),
        };
        let version: u32 = text
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .parse()
            .map_err(|_| RepoError::Io(format!("{}: unreadable version", marker.display())))?;
        if version != REPO_VERSION {
            return Err(RepoError::Io(format!(
                "repository version {version} unsupported (this build speaks {REPO_VERSION})"
            )));
        }
        // Crash recovery: a store() interrupted between create and rename
        // leaves an orphaned `.{name}.{pid}.{seq}.tmp` behind. They are never valid
        // traces (ingest is atomic), so sweep them on startup.
        if let Ok(entries) = fs::read_dir(root.join(TRACES_DIR)) {
            for entry in entries.filter_map(Result::ok) {
                let file_name = entry.file_name();
                let Some(stale) = file_name.to_str() else {
                    continue;
                };
                if stale.starts_with('.') && stale.ends_with(".tmp") {
                    fs::remove_file(entry.path()).ok();
                }
            }
        }
        Ok(TraceRepo {
            root,
            registry: MmapRegistry::new(),
        })
    }

    /// The repository root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Absolute path of a (validated) trace's `.ttb` file.
    fn ttb_path(&self, name: &str) -> PathBuf {
        self.root.join(TRACES_DIR).join(format!("{name}.ttb"))
    }

    /// Sorted names of every trace in the repository.
    #[must_use]
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(self.root.join(TRACES_DIR))
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter_map(|e| {
                        let path = e.path();
                        let stem = path.file_stem()?.to_str()?;
                        (path.extension().and_then(|x| x.to_str()) == Some("ttb")
                            && validate_name(stem).is_ok())
                        .then(|| stem.to_string())
                    })
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    }

    /// `true` when a trace of this (validated) name exists.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        validate_name(name).is_ok() && self.ttb_path(name).is_file()
    }

    /// Ingests raw trace bytes in the given format under `name`,
    /// converting to `.ttb` (atomically: temp file + rename) and
    /// returning the record count. Replacing an existing trace
    /// invalidates its shared mapping; in-flight readers finish on the
    /// old one.
    ///
    /// # Errors
    ///
    /// [`RepoError::BadName`] / [`RepoError::BadTrace`] on client
    /// mistakes, [`RepoError::Io`] on server-side failures.
    pub fn ingest_bytes(
        &self,
        name: &str,
        format: TraceFormat,
        bytes: &[u8],
    ) -> Result<usize, RepoError> {
        validate_name(name)?;
        let trace = match format {
            TraceFormat::Csv => csv::read_csv(BufReader::new(bytes), name)?,
            TraceFormat::Blk => blk::read_blk(BufReader::new(bytes), name)?,
            TraceFormat::Ttb => ttb::read_ttb(bytes, name)?,
        };
        self.store(name, &trace)?;
        Ok(trace.len())
    }

    /// Registers a server-local trace file (format by extension) under
    /// `name`, converting to `.ttb` exactly like [`Self::ingest_bytes`].
    ///
    /// # Errors
    ///
    /// As [`Self::ingest_bytes`], plus format-detection and read errors
    /// for `path`.
    pub fn register_path(&self, name: &str, path: impl AsRef<Path>) -> Result<usize, RepoError> {
        validate_name(name)?;
        let mut trace = tt_trace::format::load_trace(path, tt_trace::source::DEFAULT_CHUNK)?;
        // The repository name is the identity; the source file's stem is
        // provenance only.
        trace.meta_mut().name = name.to_string();
        self.store(name, &trace)?;
        Ok(trace.len())
    }

    /// Writes `trace` as `<root>/traces/<name>.ttb`, atomically. Each call
    /// writes its own temp file, so concurrent stores of one name both
    /// succeed and the last rename wins.
    fn store(&self, name: &str, trace: &Trace) -> Result<(), RepoError> {
        let final_path = self.ttb_path(name);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp_path = self
            .root
            .join(TRACES_DIR)
            .join(format!(".{name}.{}.{seq}.tmp", std::process::id()));
        let io = |e: std::io::Error| RepoError::Io(format!("{}: {e}", tmp_path.display()));
        let result = (|| -> Result<(), RepoError> {
            let mut file = std::io::BufWriter::new(fs::File::create(&tmp_path).map_err(io)?);
            ttb::write_ttb(trace, &mut file)?;
            file.flush().map_err(io)?;
            // fsync before the rename: the rename must never publish a
            // name whose bytes could still be lost to a crash — a torn
            // `.ttb` under its final name would defeat the atomicity.
            file.into_inner()
                .map_err(|e| RepoError::Io(format!("{}: {}", tmp_path.display(), e.error())))?
                .sync_all()
                .map_err(io)?;
            fs::rename(&tmp_path, &final_path)
                .map_err(|e| RepoError::Io(format!("{}: {e}", final_path.display())))?;
            Ok(())
        })();
        if result.is_err() {
            fs::remove_file(&tmp_path).ok();
        }
        self.registry.invalidate(name);
        result
    }

    /// Deletes a trace, returning `true` when it existed. The shared
    /// mapping is invalidated; in-flight readers keep the old mapping
    /// alive until they finish.
    ///
    /// # Errors
    ///
    /// [`RepoError::BadName`] on an invalid name, [`RepoError::Io`] when
    /// removal fails for a reason other than absence.
    pub fn delete(&self, name: &str) -> Result<bool, RepoError> {
        validate_name(name)?;
        let path = self.ttb_path(name);
        let existed = match fs::remove_file(&path) {
            Ok(()) => true,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
            Err(e) => return Err(RepoError::Io(format!("{}: {e}", path.display()))),
        };
        self.registry.invalidate(name);
        Ok(existed)
    }

    /// The shared read-only mapping for a trace: a registry cache hit
    /// after the first open, so N concurrent readers share one validated
    /// kernel mapping.
    ///
    /// # Errors
    ///
    /// [`RepoError::NotFound`] when no such trace exists,
    /// [`RepoError::BadName`] on an invalid name.
    pub fn open_trace(&self, name: &str) -> Result<Arc<MmapTrace>, RepoError> {
        validate_name(name)?;
        let path = self.ttb_path(name);
        if !path.is_file() {
            return Err(RepoError::NotFound(name.to_string()));
        }
        self.registry.open(name, &path).map_err(RepoError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_trace::time::SimInstant;
    use tt_trace::{BlockRecord, OpType, TraceMeta};

    fn sample(n: usize) -> Trace {
        let records: Vec<BlockRecord> = (0..n)
            .map(|i| {
                BlockRecord::new(
                    SimInstant::from_usecs(100 * i as u64),
                    8 * i as u64,
                    8 + 8 * (i as u32 % 3),
                    if i % 4 == 0 {
                        OpType::Write
                    } else {
                        OpType::Read
                    },
                )
            })
            .collect();
        Trace::from_records(TraceMeta::named("sample"), records)
    }

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tt_repo_{}_{tag}", std::process::id()))
    }

    #[test]
    fn init_open_ingest_list_delete_round_trip() {
        let root = temp_root("rt");
        fs::remove_dir_all(&root).ok();
        let repo = TraceRepo::init(&root).unwrap();
        assert!(repo.list().is_empty());

        let mut csv = Vec::new();
        csv::write_csv(&sample(40), &mut csv).unwrap();
        let n = repo.ingest_bytes("alpha", TraceFormat::Csv, &csv).unwrap();
        assert_eq!(n, 40);
        assert_eq!(repo.list(), vec!["alpha".to_string()]);
        assert!(repo.contains("alpha"));

        // Re-opening the same root sees the trace; the mapping round-trips.
        let reopened = TraceRepo::open(&root).unwrap();
        let mapped = reopened.open_trace("alpha").unwrap();
        assert_eq!(mapped.len(), 40);
        assert_eq!(mapped.meta().name, "alpha");

        assert!(repo.delete("alpha").unwrap());
        assert!(!repo.delete("alpha").unwrap());
        assert!(matches!(
            repo.open_trace("alpha"),
            Err(RepoError::NotFound(_))
        ));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn open_sweeps_orphaned_tmp_files() {
        let root = temp_root("sweep");
        fs::remove_dir_all(&root).ok();
        let repo = TraceRepo::init(&root).unwrap();
        let mut csv = Vec::new();
        csv::write_csv(&sample(8), &mut csv).unwrap();
        repo.ingest_bytes("kept", TraceFormat::Csv, &csv).unwrap();

        // Simulate a crash mid-store: an orphaned tmp file next to a
        // valid trace. Reopening must remove the orphan and nothing else.
        let traces = root.join(TRACES_DIR);
        fs::write(traces.join(".crashed.tmp"), b"torn write").unwrap();
        let reopened = TraceRepo::open(&root).unwrap();
        assert!(!traces.join(".crashed.tmp").exists());
        assert_eq!(reopened.list(), vec!["kept".to_string()]);
        assert_eq!(reopened.open_trace("kept").unwrap().len(), 8);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn concurrent_stores_of_one_name_both_succeed() {
        let root = temp_root("race");
        fs::remove_dir_all(&root).ok();
        let repo = TraceRepo::init(&root).unwrap();
        let payloads: Vec<Vec<u8>> = [40, 60]
            .iter()
            .map(|&n| {
                let mut csv = Vec::new();
                csv::write_csv(&sample(n), &mut csv).unwrap();
                csv
            })
            .collect();
        let expected: Vec<Vec<u8>> = payloads
            .iter()
            .map(|csv| {
                let trace = csv::read_csv(BufReader::new(&csv[..]), "same").unwrap();
                let mut ttb_bytes = Vec::new();
                ttb::write_ttb(&trace, &mut ttb_bytes).unwrap();
                ttb_bytes
            })
            .collect();
        let traces = root.join(TRACES_DIR);
        let repo = &repo;
        for _ in 0..20 {
            // Both stores start together, so their write-then-rename
            // windows can overlap.
            let start = std::sync::Barrier::new(payloads.len());
            let start = &start;
            std::thread::scope(|scope| {
                let handles: Vec<_> = payloads
                    .iter()
                    .map(|csv| {
                        scope.spawn(move || {
                            start.wait();
                            repo.ingest_bytes("same", TraceFormat::Csv, csv)
                        })
                    })
                    .collect();
                for handle in handles {
                    assert!(handle.join().unwrap().is_ok());
                }
            });
            let stored = fs::read(traces.join("same.ttb")).unwrap();
            assert!(
                expected.contains(&stored),
                "stored file matches neither payload"
            );
            let leftovers: Vec<_> = fs::read_dir(&traces)
                .unwrap()
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
                .collect();
            assert!(leftovers.is_empty(), "tmp files left behind: {leftovers:?}");
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn open_refuses_uninitialised_directory() {
        let root = temp_root("plain");
        fs::remove_dir_all(&root).ok();
        fs::create_dir_all(&root).unwrap();
        assert!(matches!(
            TraceRepo::open(&root),
            Err(RepoError::NotARepo(_))
        ));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn hostile_names_never_reach_the_filesystem() {
        let root = temp_root("names");
        fs::remove_dir_all(&root).ok();
        let repo = TraceRepo::init(&root).unwrap();
        for bad in [
            "",
            "../escape",
            "a/b",
            "a\\b",
            ".hidden",
            "..",
            "a..b",
            "name with spaces",
            "caf\u{e9}",
            &"x".repeat(MAX_NAME_LEN + 1),
        ] {
            assert!(
                matches!(repo.open_trace(bad), Err(RepoError::BadName(_))),
                "{bad:?} should be rejected"
            );
            assert!(matches!(
                repo.ingest_bytes(bad, TraceFormat::Csv, b""),
                Err(RepoError::BadName(_))
            ));
            assert!(matches!(repo.delete(bad), Err(RepoError::BadName(_))));
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn replacing_a_trace_keeps_inflight_readers_valid() {
        let root = temp_root("replace");
        fs::remove_dir_all(&root).ok();
        let repo = TraceRepo::init(&root).unwrap();
        let mut csv = Vec::new();
        csv::write_csv(&sample(16), &mut csv).unwrap();
        repo.ingest_bytes("t", TraceFormat::Csv, &csv).unwrap();
        let before = repo.open_trace("t").unwrap();

        let mut csv2 = Vec::new();
        csv::write_csv(&sample(32), &mut csv2).unwrap();
        repo.ingest_bytes("t", TraceFormat::Csv, &csv2).unwrap();
        let after = repo.open_trace("t").unwrap();
        assert_eq!(before.len(), 16, "held mapping still reads the old bytes");
        assert_eq!(after.len(), 32);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn bad_bytes_are_a_client_error_and_leave_no_file() {
        let root = temp_root("badbytes");
        fs::remove_dir_all(&root).ok();
        let repo = TraceRepo::init(&root).unwrap();
        let err = repo
            .ingest_bytes("junk", TraceFormat::Ttb, b"not a ttb file")
            .unwrap_err();
        assert!(matches!(err, RepoError::BadTrace(_)), "{err}");
        assert!(!repo.contains("junk"));
        assert!(repo.list().is_empty());
        fs::remove_dir_all(&root).ok();
    }
}
