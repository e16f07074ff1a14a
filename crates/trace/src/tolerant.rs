//! Error-budget decoding: [`ErrorPolicy`], [`QuarantineLog`], and the
//! [`TolerantSource`] wrapper.
//!
//! Real-world trace corpora arrive dirty — truncated lines, garbage
//! fields, foreign rows mixed in — and an all-or-nothing parser rejects a
//! multi-month trace over one bad record. This module lets any streaming
//! decode degrade gracefully instead: a [`TolerantSource`] wraps a
//! [`RecordSource`] and, under a non-[`Abort`](ErrorPolicy::Abort) policy,
//! **skips malformed records** (recoverable parse errors only — I/O and
//! structural errors still abort), counting and quarantining each one with
//! its 1-based line number so nothing disappears silently.
//!
//! The policy is threaded through the `tracetracker::Pipeline` facade as
//! `.on_error(...)` and through `tt-cli` as `--on-error skip:N`.
//!
//! # Examples
//!
//! ```
//! use tt_trace::tolerant::{ErrorPolicy, TolerantSource};
//! use tt_trace::format::csv::CsvSource;
//! use tt_trace::{collect_source, TraceMeta};
//!
//! let dirty = "100,R,0,8\nnot,a,record\n200,W,8,8\n";
//! let policy = ErrorPolicy::skip(10);
//! let mut source = TolerantSource::new(CsvSource::new(dirty.as_bytes()), policy.clone());
//! let trace = collect_source(&mut source, TraceMeta::named("dirty"), 64)?;
//! assert_eq!(trace.len(), 2); // the bad line was skipped, not fatal
//! assert_eq!(policy.quarantined(), 1);
//! # Ok::<(), tt_trace::TraceError>(())
//! ```

use std::sync::{Arc, Mutex};

use crate::error::TraceError;
use crate::record::BlockRecord;
use crate::source::RecordSource;

/// One skipped record: where it was and why it failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// 1-based line number in the source file, when known.
    pub line: Option<usize>,
    /// The decode error's message.
    pub message: String,
}

/// A shared, append-only log of quarantined records.
///
/// Cloning is cheap (the log is reference-counted): keep one clone to read
/// the report after handing the other to an [`ErrorPolicy`]. Thread-safe,
/// so the decode may run on another thread than the reader.
#[derive(Debug, Clone, Default)]
pub struct QuarantineLog {
    entries: Arc<Mutex<Vec<QuarantineEntry>>>,
}

impl QuarantineLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        QuarantineLog::default()
    }

    /// Appends an entry.
    pub fn push(&self, entry: QuarantineEntry) {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(entry);
    }

    /// Number of quarantined records so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// `true` when nothing has been quarantined.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of all entries.
    #[must_use]
    pub fn entries(&self) -> Vec<QuarantineEntry> {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

/// How a pipeline reacts to malformed input records.
///
/// Only **recoverable** decode failures — [`TraceError::Parse`], i.e. one
/// bad line of a text format — are subject to the policy; I/O errors,
/// structural/format errors, and invariant violations always abort
/// regardless. The default is [`Abort`](ErrorPolicy::Abort): existing
/// behaviour, every error fatal.
#[derive(Debug, Clone, Default)]
pub enum ErrorPolicy {
    /// Any decode error aborts the run (the default).
    #[default]
    Abort,
    /// Skip up to `max` malformed records (logging each), then abort with
    /// an error-budget-exhausted error.
    Skip {
        /// Maximum number of malformed records tolerated.
        max: usize,
        /// Where skipped records are logged.
        log: QuarantineLog,
    },
    /// Skip every malformed record, logging each into `sink` — an
    /// unlimited budget for corpora where dirt is expected.
    Quarantine {
        /// Where skipped records are logged.
        sink: QuarantineLog,
    },
}

impl ErrorPolicy {
    /// [`ErrorPolicy::Skip`] with a fresh log. Keep a clone of the policy
    /// to read [`quarantined`](ErrorPolicy::quarantined) afterwards.
    #[must_use]
    pub fn skip(max: usize) -> Self {
        ErrorPolicy::Skip {
            max,
            log: QuarantineLog::new(),
        }
    }

    /// [`ErrorPolicy::Quarantine`] with a fresh log.
    #[must_use]
    pub fn quarantine() -> Self {
        ErrorPolicy::Quarantine {
            sink: QuarantineLog::new(),
        }
    }

    /// `true` for [`ErrorPolicy::Abort`].
    #[must_use]
    pub fn is_abort(&self) -> bool {
        matches!(self, ErrorPolicy::Abort)
    }

    /// The policy's quarantine log, if it has one.
    #[must_use]
    pub fn log(&self) -> Option<&QuarantineLog> {
        match self {
            ErrorPolicy::Abort => None,
            ErrorPolicy::Skip { log, .. } => Some(log),
            ErrorPolicy::Quarantine { sink } => Some(sink),
        }
    }

    /// Number of records quarantined under this policy so far (0 for
    /// [`Abort`](ErrorPolicy::Abort)).
    #[must_use]
    pub fn quarantined(&self) -> usize {
        self.log().map_or(0, QuarantineLog::len)
    }
}

/// A [`RecordSource`] wrapper that applies an [`ErrorPolicy`] to its
/// inner source's decode errors.
///
/// On a recoverable error the wrapper logs the record and **resumes** the
/// inner source — both text readers ([`CsvSource`](crate::format::csv::CsvSource),
/// [`BlkSource`](crate::format::blk::BlkSource)) are positioned past the
/// offending line when they report it, and any records decoded before the
/// error are kept. Under [`ErrorPolicy::Abort`] the wrapper is transparent.
#[derive(Debug)]
pub struct TolerantSource<S> {
    inner: S,
    policy: ErrorPolicy,
    skipped: usize,
    name: String,
}

impl<S: RecordSource> TolerantSource<S> {
    /// Wraps `inner` under `policy`.
    #[must_use]
    pub fn new(inner: S, policy: ErrorPolicy) -> Self {
        let name = format!("tolerant({})", inner.source_name());
        TolerantSource {
            inner,
            policy,
            skipped: 0,
            name,
        }
    }

    /// Number of records skipped so far.
    #[must_use]
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// The wrapper's policy.
    #[must_use]
    pub fn policy(&self) -> &ErrorPolicy {
        &self.policy
    }

    /// `true` when the policy can absorb `err` instead of aborting.
    fn recoverable(err: &TraceError) -> bool {
        matches!(err, TraceError::Parse { .. })
    }

    /// Applies the policy to a recoverable error: log + count, or abort
    /// when the budget is spent.
    fn absorb(&mut self, err: TraceError) -> Result<(), TraceError> {
        let TraceError::Parse { message, line } = &err else {
            return Err(err);
        };
        let entry = QuarantineEntry {
            line: *line,
            message: message.clone(),
        };
        match &self.policy {
            ErrorPolicy::Abort => Err(err),
            ErrorPolicy::Skip { max, log } => {
                log.push(entry);
                self.skipped += 1;
                if self.skipped > *max {
                    Err(TraceError::format(format!(
                        "error budget exhausted: {} malformed records (limit {max}); last: {err}",
                        self.skipped
                    )))
                } else {
                    Ok(())
                }
            }
            ErrorPolicy::Quarantine { sink } => {
                sink.push(entry);
                self.skipped += 1;
                Ok(())
            }
        }
    }
}

impl<S: RecordSource> RecordSource for TolerantSource<S> {
    fn next_chunk(&mut self, out: &mut Vec<BlockRecord>, max: usize) -> Result<usize, TraceError> {
        let start = out.len();
        // The inner source may append good records *and then* fail on a
        // bad line — track progress through `out`, not return values.
        while out.len() - start < max {
            let want = max - (out.len() - start);
            match self.inner.next_chunk(out, want) {
                Ok(0) => break,
                Ok(_) => {}
                Err(err) if Self::recoverable(&err) => self.absorb(err)?,
                Err(err) => return Err(err),
            }
        }
        Ok(out.len() - start)
    }

    fn source_name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::blk::BlkSource;
    use crate::format::csv::CsvSource;
    use crate::source::collect_source;
    use crate::trace::TraceMeta;

    /// 5 good records with a bad line after every good one.
    const DIRTY: &str = "\
100,R,0,8
garbage
200,W,8,8
300,R,notanlba,8
400,R,16,8
500,R,24,0
600,W,32,8
too,few
700,R,40,8
";

    const CLEAN: &str = "\
100,R,0,8
200,W,8,8
400,R,16,8
600,W,32,8
700,R,40,8
";

    fn tolerant(
        input: &'static str,
        policy: ErrorPolicy,
    ) -> TolerantSource<CsvSource<&'static [u8]>> {
        TolerantSource::new(CsvSource::new(input.as_bytes()), policy)
    }

    #[test]
    fn skip_yields_the_clean_subset() {
        for chunk in [1usize, 2, 7, 1000] {
            let policy = ErrorPolicy::skip(10);
            let mut src = tolerant(DIRTY, policy.clone());
            let trace = collect_source(&mut src, TraceMeta::named("d"), chunk).unwrap();
            let clean = collect_source(
                &mut CsvSource::new(CLEAN.as_bytes()),
                TraceMeta::named("d"),
                chunk,
            )
            .unwrap();
            assert_eq!(trace.columns(), clean.columns(), "chunk {chunk}");
            assert_eq!(src.skipped(), 4, "chunk {chunk}");
            assert_eq!(policy.quarantined(), 4, "chunk {chunk}");
        }
    }

    #[test]
    fn quarantine_log_names_lines() {
        let policy = ErrorPolicy::quarantine();
        let mut src = tolerant(DIRTY, policy.clone());
        collect_source(&mut src, TraceMeta::named("d"), 64).unwrap();
        let log = policy.log().unwrap();
        let lines: Vec<Option<usize>> = log.entries().iter().map(|e| e.line).collect();
        assert_eq!(lines, vec![Some(2), Some(4), Some(6), Some(8)]);
    }

    #[test]
    fn exhausted_budget_aborts() {
        let mut src = tolerant(DIRTY, ErrorPolicy::skip(2));
        let err = collect_source(&mut src, TraceMeta::named("d"), 64).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("error budget exhausted"), "{msg}");
        assert!(msg.contains("limit 2"), "{msg}");
    }

    #[test]
    fn abort_policy_is_transparent() {
        let mut src = tolerant(DIRTY, ErrorPolicy::Abort);
        let err = collect_source(&mut src, TraceMeta::named("d"), 64).unwrap_err();
        // The first bad line, with its 1-based number, verbatim.
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(ErrorPolicy::default().is_abort());
    }

    #[test]
    fn io_errors_are_never_absorbed() {
        struct Broken;
        impl RecordSource for Broken {
            fn next_chunk(
                &mut self,
                _out: &mut Vec<BlockRecord>,
                _max: usize,
            ) -> Result<usize, TraceError> {
                Err(TraceError::Io("disk on fire".into()))
            }
            fn source_name(&self) -> &str {
                "broken"
            }
        }
        let mut src = TolerantSource::new(Broken, ErrorPolicy::quarantine());
        let err = src.next_chunk(&mut Vec::new(), 16).unwrap_err();
        assert!(matches!(err, TraceError::Io(_)));
    }

    #[test]
    fn budget_boundary_is_inclusive() {
        // Exactly `max` bad records: fine. One more: fatal.
        let mut src = tolerant(DIRTY, ErrorPolicy::skip(4));
        let trace = collect_source(&mut src, TraceMeta::named("d"), 64).unwrap();
        assert_eq!(trace.len(), 5);
        let mut src = tolerant(DIRTY, ErrorPolicy::skip(3));
        assert!(collect_source(&mut src, TraceMeta::named("d"), 64).is_err());
    }

    #[test]
    fn skip_absorbs_lines_that_are_not_utf8_in_either_text_format() {
        let csv = b"100,R,0,8\n200,W,8,8\n300,R,\xe9,8\n400,R,16,8\n";
        let blk = b"8,0 0 1 0.000100000 1 Q R 0 + 8\n\
8,0 0 2 0.000200000 1 Q W 8 + 8\n\
8,0 0 3 0.000300000 1 Q R \xe9 + 8\n\
8,0 0 4 0.000400000 1 Q R 16 + 8\n";
        let want = QuarantineEntry {
            line: Some(3),
            message: "line is not valid UTF-8".into(),
        };
        let clean = collect_source(
            &mut CsvSource::new("100,R,0,8\n200,W,8,8\n400,R,16,8\n".as_bytes()),
            TraceMeta::named("d"),
            64,
        )
        .unwrap();

        let policy = ErrorPolicy::skip(5);
        let mut src = TolerantSource::new(CsvSource::new(&csv[..]), policy.clone());
        let trace = collect_source(&mut src, TraceMeta::named("d"), 64).unwrap();
        assert_eq!(trace.columns(), clean.columns());
        assert_eq!(policy.log().unwrap().entries(), vec![want.clone()]);

        let policy = ErrorPolicy::skip(5);
        let mut src = TolerantSource::new(BlkSource::new(&blk[..]), policy.clone());
        let trace = collect_source(&mut src, TraceMeta::named("d"), 64).unwrap();
        assert_eq!(trace.columns(), clean.columns());
        assert_eq!(policy.log().unwrap().entries(), vec![want]);
    }

    #[test]
    fn skip_absorbs_blk_times_past_u64_nanoseconds() {
        let blk = "\
8,0 0 1 0.000100000 1 Q R 0 + 8
8,0 0 2 20000000000 1 Q W 128 + 8
8,0 0 3 1e300 1 Q W 128 + 8
8,0 0 4 0.000200000 1 Q W 8 + 8
";
        let policy = ErrorPolicy::skip(5);
        let mut src = TolerantSource::new(BlkSource::new(blk.as_bytes()), policy.clone());
        let trace = collect_source(&mut src, TraceMeta::named("d"), 64).unwrap();
        assert_eq!(trace.len(), 2);
        let lines: Vec<Option<usize>> = policy
            .log()
            .unwrap()
            .entries()
            .iter()
            .map(|e| e.line)
            .collect();
        assert_eq!(lines, vec![Some(2), Some(3)]);
        assert!(policy.log().unwrap().entries()[0]
            .message
            .starts_with("time out of range"));
    }
}
