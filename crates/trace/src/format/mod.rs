//! On-disk trace formats.
//!
//! Three formats are provided:
//!
//! * [`csv`] — compact SNIA-repository-style CSV, the workspace's text
//!   interchange format;
//! * [`blk`] — blkparse-style text mirroring the Linux `blktrace` toolchain
//!   the paper collects new traces with;
//! * [`ttb`] — the native **binary columnar** format: per-column sections
//!   that load as validated bulk reads straight into the
//!   [`TraceStore`](crate::TraceStore) columns, built for the
//!   convert-once / reload-many workflow where CSV parsing dominates.
//!
//! All three round-trip [`ServiceTiming`](crate::ServiceTiming) so
//! `Tsdev`-known traces survive serialisation, and both sides of each
//! format stream: chunked readers ([`csv::CsvSource`], [`blk::BlkSource`],
//! [`ttb::TtbSource`]) and chunked writers ([`csv::CsvSink`],
//! [`blk::BlkSink`], [`ttb::TtbSink`]).
//!
//! [`TraceFormat`] maps file paths to formats by extension
//! (case-insensitively), [`open_source`]/[`create_sink`] open streaming
//! endpoints for a path, and [`load_trace`]/[`save_trace`] move whole
//! traces — taking the columnar bulk path for TTB instead of
//! record-at-a-time streaming. This is the registry the CLI, the
//! `tracetracker::Pipeline` facade, and applications share.

pub mod blk;
pub mod csv;
pub mod ttb;

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use crate::error::TraceError;
use crate::record::{BlockRecord, MAX_END_LBA};
use crate::sink::{drain_trace, RecordSink};
use crate::source::{collect_source, RecordSource};
use crate::trace::{Trace, TraceMeta};

/// Rejects a text record that ends past [`MAX_END_LBA`] with a parse error
/// at its line, which `--on-error` can skip like any malformed record.
fn check_end_lba(lba: u64, sectors: u32, lineno: usize) -> Result<(), TraceError> {
    if BlockRecord::ends_in_range(lba, sectors) {
        Ok(())
    } else {
        Err(TraceError::parse_at(
            format!(
                "request ends past sector {MAX_END_LBA}, the last whose byte address fits in a u64"
            ),
            lineno,
        ))
    }
}

/// The on-disk trace formats the workspace understands, detected from file
/// extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// SNIA-style CSV (`.csv`, `.txt`, `.trace`).
    Csv,
    /// blkparse-style text (`.blk`).
    Blk,
    /// Native binary columnar format (`.ttb`).
    Ttb,
}

impl TraceFormat {
    /// Detects the format from a path's extension, case-insensitively.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] naming the supported extensions when
    /// the path has no extension or an unrecognised one.
    ///
    /// # Examples
    ///
    /// ```
    /// use tt_trace::format::TraceFormat;
    ///
    /// assert_eq!(TraceFormat::from_path("a/b/TRACE.BLK")?, TraceFormat::Blk);
    /// assert_eq!(TraceFormat::from_path("x.Csv")?, TraceFormat::Csv);
    /// assert_eq!(TraceFormat::from_path("cache.ttb")?, TraceFormat::Ttb);
    /// assert!(TraceFormat::from_path("x.parquet").is_err());
    /// # Ok::<(), tt_trace::TraceError>(())
    /// ```
    pub fn from_path(path: impl AsRef<Path>) -> Result<TraceFormat, TraceError> {
        let path = path.as_ref();
        let ext = path
            .extension()
            .and_then(|e| e.to_str())
            .map(str::to_ascii_lowercase);
        match ext.as_deref() {
            Some("blk") => Ok(TraceFormat::Blk),
            Some("csv" | "txt" | "trace") => Ok(TraceFormat::Csv),
            Some("ttb") => Ok(TraceFormat::Ttb),
            Some(other) => Err(TraceError::format(format!(
                "{}: unreadable trace extension {other:?} \
                 (expected .csv/.txt/.trace for CSV, .blk for blkparse text, \
                 or .ttb for binary columnar)",
                path.display()
            ))),
            None => Err(TraceError::format(format!(
                "{}: no file extension to detect the trace format from \
                 (expected .csv/.txt/.trace for CSV, .blk for blkparse text, \
                 or .ttb for binary columnar)",
                path.display()
            ))),
        }
    }

    /// Short provenance label (`"csv"` / `"blkparse"` / `"ttb"`), matching
    /// what the format's reader records in [`TraceMeta::source`].
    #[must_use]
    pub fn source_label(self) -> &'static str {
        match self {
            TraceFormat::Csv => "csv",
            TraceFormat::Blk => "blkparse",
            TraceFormat::Ttb => "ttb",
        }
    }
}

/// The trace-file name stem used for metadata (`"trace"` when the path
/// has none) — the name every loader gives a trace read from `path`.
#[must_use]
pub fn stem(path: &Path) -> String {
    path.file_stem()
        .map_or_else(|| "trace".to_string(), |s| s.to_string_lossy().into_owned())
}

/// Metadata a trace loaded from `path` carries: name from the file stem,
/// source from the detected format.
///
/// # Errors
///
/// Returns [`TraceError::Format`] when the format cannot be detected.
pub fn meta_for_path(path: impl AsRef<Path>) -> Result<TraceMeta, TraceError> {
    let path = path.as_ref();
    let format = TraceFormat::from_path(path)?;
    Ok(TraceMeta::named(stem(path)).with_source(format.source_label()))
}

/// Opens a streaming [`RecordSource`] over the trace file at `path`, with
/// the format chosen by extension.
///
/// # Errors
///
/// Returns [`TraceError::Format`] on an undetectable format and
/// [`TraceError::Io`] when the file cannot be opened.
pub fn open_source(path: impl AsRef<Path>) -> Result<Box<dyn RecordSource>, TraceError> {
    let path = path.as_ref();
    let format = TraceFormat::from_path(path)?;
    let file = File::open(path).map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
    let reader = BufReader::new(file);
    Ok(match format {
        TraceFormat::Csv => Box::new(csv::CsvSource::new(reader)),
        TraceFormat::Blk => Box::new(blk::BlkSource::new(reader)),
        TraceFormat::Ttb => Box::new(ttb::TtbSource::new(reader)),
    })
}

/// Creates a streaming [`RecordSink`] writing the trace file at `path`,
/// with the format chosen by extension. `name` is the trace name recorded
/// in formats that carry one (the CSV header).
///
/// # Errors
///
/// Returns [`TraceError::Format`] on an undetectable format and
/// [`TraceError::Io`] when the file cannot be created.
pub fn create_sink(path: impl AsRef<Path>, name: &str) -> Result<Box<dyn RecordSink>, TraceError> {
    let path = path.as_ref();
    let format = TraceFormat::from_path(path)?;
    let file =
        File::create(path).map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
    let writer = BufWriter::new(file);
    Ok(match format {
        TraceFormat::Csv => Box::new(csv::CsvSink::new(writer, name)),
        TraceFormat::Blk => Box::new(blk::BlkSink::new(writer)),
        TraceFormat::Ttb => Box::new(ttb::TtbSink::new(writer, name)),
    })
}

/// Loads the whole trace at `path`, taking the fastest route the format
/// allows: TTB is bulk-read column by column ([`ttb::read_ttb`]; `chunk`
/// is irrelevant), text formats stream through their [`RecordSource`]
/// `chunk` records at a time.
///
/// # Errors
///
/// Returns [`TraceError::Format`] on an undetectable format,
/// [`TraceError::Io`] when the file cannot be opened, and the format
/// reader's parse errors.
pub fn load_trace(path: impl AsRef<Path>, chunk: usize) -> Result<Trace, TraceError> {
    let path = path.as_ref();
    let format = TraceFormat::from_path(path)?;
    let meta = meta_for_path(path)?;
    if format == TraceFormat::Ttb {
        let file =
            File::open(path).map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
        return ttb::read_ttb(BufReader::new(file), &meta.name);
    }
    let mut source = open_source(path)?;
    collect_source(&mut *source, meta, chunk)
}

/// Saves `trace` to `path` in the format its extension selects, taking the
/// fastest route the format allows: TTB moves the columns out in bulk
/// ([`ttb::write_ttb`]; `chunk` is irrelevant), text formats stream
/// through their [`RecordSink`] `chunk` records at a time.
///
/// # Errors
///
/// Returns [`TraceError::Format`] on an undetectable format and
/// [`TraceError::Io`] when the file cannot be created or written.
pub fn save_trace(trace: &Trace, path: impl AsRef<Path>, chunk: usize) -> Result<(), TraceError> {
    let path = path.as_ref();
    if TraceFormat::from_path(path)? == TraceFormat::Ttb {
        let file =
            File::create(path).map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
        let mut writer = BufWriter::new(file);
        return ttb::write_ttb(trace, &mut writer);
    }
    let mut sink = create_sink(path, &trace.meta().name)?;
    drain_trace(trace, &mut *sink, chunk)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extension_detection_is_case_insensitive() {
        assert_eq!(
            TraceFormat::from_path("a/b/TRACE.BLK").unwrap(),
            TraceFormat::Blk
        );
        assert_eq!(TraceFormat::from_path("x.Csv").unwrap(), TraceFormat::Csv);
        assert_eq!(TraceFormat::from_path("x.TXT").unwrap(), TraceFormat::Csv);
        assert_eq!(TraceFormat::from_path("x.TtB").unwrap(), TraceFormat::Ttb);
        // Not merely a suffix test: the *extension* decides.
        assert_eq!(
            TraceFormat::from_path("weird.blk.csv").unwrap(),
            TraceFormat::Csv
        );
    }

    #[test]
    fn unreadable_extensions_are_clean_errors() {
        let err = TraceFormat::from_path("trace.parquet").unwrap_err();
        assert!(err.to_string().contains("parquet"), "{err}");
        assert!(err.to_string().contains(".blk"), "{err}");
        let err = TraceFormat::from_path("no_extension").unwrap_err();
        assert!(err.to_string().contains("no file extension"), "{err}");
    }

    #[test]
    fn meta_names_follow_the_stem() {
        let meta = meta_for_path("dir/homes.csv").unwrap();
        assert_eq!(meta.name, "homes");
        assert_eq!(meta.source, "csv");
        let meta = meta_for_path("run.blk").unwrap();
        assert_eq!(meta.source, "blkparse");
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = open_source("/definitely/not/here.csv").err().unwrap();
        assert!(err.to_string().contains("not/here.csv"), "{err}");
        let err = load_trace("/definitely/not/here.ttb", 64).err().unwrap();
        assert!(err.to_string().contains("not/here.ttb"), "{err}");
    }

    #[test]
    fn load_save_round_trip_every_format() {
        use crate::record::BlockRecord;
        use crate::time::SimInstant;
        use crate::OpType;

        let trace = Trace::from_records(
            TraceMeta::named("rt"),
            vec![
                BlockRecord::new(SimInstant::ZERO, 0, 8, OpType::Read),
                BlockRecord::new(SimInstant::from_usecs(120), 8, 16, OpType::Write),
            ],
        );
        for ext in ["csv", "blk", "ttb"] {
            let path = std::env::temp_dir().join(format!("tt_format_load_save.{ext}"));
            save_trace(&trace, &path, 64).unwrap();
            let back = load_trace(&path, 64).unwrap();
            assert_eq!(back.records(), trace.records(), "{ext}");
            assert_eq!(
                back.meta().source,
                TraceFormat::from_path(&path).unwrap().source_label()
            );
            std::fs::remove_file(&path).ok();
        }
    }
}
