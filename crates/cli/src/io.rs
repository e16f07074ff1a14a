//! Trace file loading/saving and device lookup for the CLI.
//!
//! These are thin, error-adapting shims: format detection and the
//! streaming endpoints live in [`tt_trace::format`], the name→device
//! registry in [`tt_device::presets`], and the CLI commands themselves go
//! through [`tracetracker::Pipeline`] — this module only translates
//! [`TraceError`]s into CLI [`ArgError`]s.

use tracetracker::Pipeline;
use tt_device::{presets, BlockDevice};
use tt_trace::format;
use tt_trace::source::DEFAULT_CHUNK;
use tt_trace::{Columns, MmapTrace, Trace, TraceError};

use crate::args::ArgError;

pub use tt_trace::format::TraceFormat;

impl From<TraceError> for ArgError {
    fn from(err: TraceError) -> Self {
        ArgError(err.to_string())
    }
}

/// Detects the trace format from the file extension, case-insensitively
/// (shim over [`TraceFormat::from_path`]).
///
/// # Errors
///
/// Returns [`ArgError`] naming the supported extensions when the path has
/// no extension or an unrecognised one.
pub fn detect_format(path: &str) -> Result<TraceFormat, ArgError> {
    Ok(TraceFormat::from_path(path)?)
}

/// Loads a trace with the default streaming chunk size.
///
/// # Errors
///
/// Returns [`ArgError`] describing the I/O, format-detection, or parse
/// failure.
pub fn load_trace(path: &str) -> Result<Trace, ArgError> {
    load_trace_chunked(path, DEFAULT_CHUNK)
}

/// Loads a trace by streaming it `chunk` records at a time through the
/// format's [`RecordSource`](tt_trace::RecordSource) reader — a
/// [`Pipeline`] with no stages, collected.
///
/// # Errors
///
/// Returns [`ArgError`] describing the I/O, format-detection, or parse
/// failure.
pub fn load_trace_chunked(path: &str, chunk: usize) -> Result<Trace, ArgError> {
    Ok(Pipeline::from_path(path).chunk_size(chunk).collect()?)
}

/// A trace loaded for **analysis**: either memory-mapped (`.ttb` inputs)
/// or decoded. Analysis commands work off [`AnalysisInput::columns`],
/// which is identical either way.
#[derive(Debug)]
pub enum AnalysisInput {
    /// A `.ttb` file mapped read-only; columns served from the page cache.
    Mapped(MmapTrace),
    /// A fully decoded trace (text formats).
    Owned(Trace),
}

impl AnalysisInput {
    /// Loads `path` for analysis: `.ttb` inputs are mapped, everything
    /// else is decoded. A `.ttb` file that fails to map is handed to the
    /// ordinary loader, whose error names the file.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] describing the I/O, format-detection, or parse
    /// failure.
    pub fn load(path: &str, chunk: usize) -> Result<AnalysisInput, ArgError> {
        if TraceFormat::from_path(path) == Ok(TraceFormat::Ttb) {
            if let Ok(mapped) = MmapTrace::open(path) {
                return Ok(AnalysisInput::Mapped(mapped));
            }
        }
        Ok(AnalysisInput::Owned(load_trace_chunked(path, chunk)?))
    }

    /// The borrowed column view every analysis pass consumes.
    #[must_use]
    pub fn columns(&self) -> Columns<'_> {
        match self {
            AnalysisInput::Mapped(m) => m.columns(),
            AnalysisInput::Owned(t) => t.view(),
        }
    }

    /// The trace name (file stem).
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            AnalysisInput::Mapped(m) => &m.meta().name,
            AnalysisInput::Owned(t) => &t.meta().name,
        }
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            AnalysisInput::Mapped(m) => m.len(),
            AnalysisInput::Owned(t) => t.len(),
        }
    }

    /// `true` when the trace holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short provenance note for status output.
    #[must_use]
    pub fn load_path_label(&self) -> &'static str {
        match self {
            AnalysisInput::Mapped(m) if m.is_zero_copy() => "mmap, zero-copy",
            AnalysisInput::Mapped(_) => "mmap, decoded",
            AnalysisInput::Owned(_) => "bulk read",
        }
    }
}

/// Saves a trace in the format its extension selects, streaming the
/// columnar store through the format's
/// [`RecordSink`](tt_trace::RecordSink).
///
/// # Errors
///
/// Returns [`ArgError`] describing the I/O or format-detection failure.
pub fn save_trace(trace: &Trace, path: &str) -> Result<(), ArgError> {
    let mut sink = format::create_sink(path, &trace.meta().name)?;
    tt_trace::drain_trace(trace, &mut *sink, DEFAULT_CHUNK)?;
    Ok(())
}

/// Builds a device by registry name (shim over [`presets::by_name`]).
///
/// # Errors
///
/// Returns [`ArgError`] naming the valid choices on an unknown name.
pub fn device_by_name(name: &str) -> Result<Box<dyn BlockDevice>, ArgError> {
    presets::by_name(name).ok_or_else(|| {
        ArgError(format!(
            "unknown device {name:?}; expected {}",
            presets::names().join(" | ")
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_trace::time::SimInstant;
    use tt_trace::{BlockRecord, OpType, TraceMeta};

    fn tiny_trace() -> Trace {
        Trace::from_records(
            TraceMeta::named("t"),
            vec![
                BlockRecord::new(SimInstant::ZERO, 0, 8, OpType::Read),
                BlockRecord::new(SimInstant::from_usecs(100), 8, 8, OpType::Write),
            ],
        )
    }

    #[test]
    fn round_trip_both_formats() {
        for ext in ["csv", "blk"] {
            let path = std::env::temp_dir().join(format!("tt_cli_io_test.{ext}"));
            let path = path.to_str().unwrap().to_string();
            save_trace(&tiny_trace(), &path).unwrap();
            let back = load_trace(&path).unwrap();
            assert_eq!(back.records(), tiny_trace().records());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn detect_format_shims_to_tt_trace() {
        // Detection behaviour itself is tested in tt_trace::format; here
        // only the ArgError translation matters.
        assert_eq!(detect_format("x.Csv").unwrap(), TraceFormat::Csv);
        let err = detect_format("trace.parquet").unwrap_err();
        assert!(err.to_string().contains("parquet"), "{err}");
    }

    #[test]
    fn chunked_loading_matches_default() {
        let path = std::env::temp_dir().join("tt_cli_io_chunked.csv");
        let path = path.to_str().unwrap().to_string();
        save_trace(&tiny_trace(), &path).unwrap();
        let whole = load_trace(&path).unwrap();
        let chunked = load_trace_chunked(&path, 1).unwrap();
        assert_eq!(whole, chunked);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = load_trace("/definitely/not/here.csv").unwrap_err();
        assert!(err.to_string().contains("not/here.csv"));
    }

    #[test]
    fn devices_resolve_via_the_shared_registry() {
        for name in tt_device::presets::names() {
            assert!(device_by_name(name).is_ok(), "{name}");
        }
        let err = device_by_name("floppy").err().unwrap();
        assert!(err.to_string().contains("hdd | wd-blue | ssd | array"));
    }
}
