//! Streaming record sources.
//!
//! Multi-month trace files do not fit comfortably in memory as parsed rows.
//! A [`RecordSource`] yields records **chunk by chunk**, so consumers — the
//! CLI loader, the replay engine, statistics passes — can process traces
//! far larger than RAM-comfortable without materialising them whole. The
//! CSV and blkparse readers in [`format`](crate::format) implement it; the
//! in-memory readers (`read_csv`/`read_blk`) are thin drains over the same
//! sources, so streaming and whole-file parsing produce byte-identical
//! traces.

use crate::error::TraceError;
use crate::record::BlockRecord;
use crate::store::TraceStore;
use crate::trace::{Trace, TraceMeta};

/// Default records-per-chunk for streaming consumers.
pub const DEFAULT_CHUNK: usize = 65_536;

/// A streaming producer of block records.
///
/// Implementations yield records in file order; consumers that need arrival
/// order sort once at the end (cheap when the input was already ordered).
/// Returning `0` appended records signals exhaustion.
pub trait RecordSource {
    /// Appends up to `max` records to `out`.
    ///
    /// Returns the number appended; `0` means the source is exhausted.
    /// `out` is *not* cleared — the caller owns buffer reuse.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on I/O or parse failure.
    fn next_chunk(&mut self, out: &mut Vec<BlockRecord>, max: usize) -> Result<usize, TraceError>;

    /// Descriptive source name (used for trace metadata).
    fn source_name(&self) -> &str;
}

impl<S: RecordSource + ?Sized> RecordSource for &mut S {
    fn next_chunk(&mut self, out: &mut Vec<BlockRecord>, max: usize) -> Result<usize, TraceError> {
        (**self).next_chunk(out, max)
    }

    fn source_name(&self) -> &str {
        (**self).source_name()
    }
}

impl<S: RecordSource + ?Sized> RecordSource for Box<S> {
    fn next_chunk(&mut self, out: &mut Vec<BlockRecord>, max: usize) -> Result<usize, TraceError> {
        (**self).next_chunk(out, max)
    }

    fn source_name(&self) -> &str {
        (**self).source_name()
    }
}

/// Drains a source into a [`Trace`], `chunk` records at a time, sorting by
/// arrival at the end (stable, so tied arrivals keep file order — exactly
/// what the in-memory readers produce).
///
/// # Errors
///
/// Propagates the source's [`TraceError`]s.
///
/// # Examples
///
/// ```
/// use tt_trace::source::{collect_source, VecSource};
/// use tt_trace::{BlockRecord, OpType, TraceMeta, time::SimInstant};
///
/// let recs = vec![BlockRecord::new(SimInstant::from_usecs(1), 0, 8, OpType::Read)];
/// let mut source = VecSource::new(recs.clone());
/// let trace = collect_source(&mut source, TraceMeta::named("demo"), 16)?;
/// assert_eq!(trace.iter().collect::<Vec<_>>(), recs);
/// # Ok::<(), tt_trace::TraceError>(())
/// ```
pub fn collect_source<S: RecordSource + ?Sized>(
    source: &mut S,
    meta: TraceMeta,
    chunk: usize,
) -> Result<Trace, TraceError> {
    let chunk = chunk.max(1);
    let mut store = TraceStore::new();
    let mut buf: Vec<BlockRecord> = Vec::with_capacity(initial_capacity(chunk));
    loop {
        buf.clear();
        let n = source.next_chunk(&mut buf, chunk)?;
        if n == 0 {
            break;
        }
        store.extend(buf.drain(..));
    }
    Ok(Trace::from_store(meta, store))
}

/// The records a chunk buffer reserves before any arrive: the chunk, but
/// never more than [`DEFAULT_CHUNK`]. A chunk size is a caller's knob (the
/// CLI's `--chunk-size`), not a record count, so a huge one must not size
/// an allocation up front; the buffer grows as records actually arrive.
#[must_use]
pub(crate) fn initial_capacity(chunk: usize) -> usize {
    chunk.min(DEFAULT_CHUNK)
}

/// A record-at-a-time pull buffer over a [`RecordSource`]: refills one
/// chunk at a time and serves records individually, with lookahead.
///
/// This is the one implementation of the "refill when drained" state
/// machine that record-at-a-time consumers need (the multi-stream merge's
/// per-stream lookahead, the streamed concurrent replay's per-stream op
/// conversion) — the end-of-stream and empty-chunk edge cases live here,
/// once.
#[derive(Debug)]
pub struct ChunkCursor<S> {
    source: S,
    chunk: usize,
    buf: Vec<BlockRecord>,
    pos: usize,
    exhausted: bool,
}

impl<S: RecordSource> ChunkCursor<S> {
    /// Wraps `source`, pulling `chunk` records per refill (clamped to
    /// at least 1).
    pub fn new(source: S, chunk: usize) -> Self {
        ChunkCursor {
            source,
            chunk: chunk.max(1),
            buf: Vec::new(),
            pos: 0,
            exhausted: false,
        }
    }

    /// Changes the refill chunk size for subsequent pulls.
    pub fn set_chunk(&mut self, chunk: usize) {
        self.chunk = chunk.max(1);
    }

    /// The next record, without consuming it; `None` at end-of-stream.
    ///
    /// # Errors
    ///
    /// Propagates the source's [`TraceError`]s.
    pub fn peek(&mut self) -> Result<Option<&BlockRecord>, TraceError> {
        if self.pos >= self.buf.len() && !self.exhausted {
            self.buf.clear();
            self.pos = 0;
            if self.source.next_chunk(&mut self.buf, self.chunk)? == 0 {
                self.exhausted = true;
            }
        }
        Ok(self.buf.get(self.pos))
    }

    /// Consumes and returns the next record; `None` at end-of-stream.
    ///
    /// # Errors
    ///
    /// Propagates the source's [`TraceError`]s.
    pub fn next_record(&mut self) -> Result<Option<BlockRecord>, TraceError> {
        let rec = self.peek()?.copied();
        if rec.is_some() {
            self.pos += 1;
        }
        Ok(rec)
    }
}

/// An in-memory source, for tests and for feeding already-parsed records
/// through streaming consumers.
#[derive(Debug, Clone)]
pub struct VecSource {
    records: std::vec::IntoIter<BlockRecord>,
    name: String,
}

impl VecSource {
    /// Wraps a record vector.
    #[must_use]
    pub fn new(records: Vec<BlockRecord>) -> Self {
        VecSource {
            records: records.into_iter(),
            name: "memory".to_string(),
        }
    }
}

impl RecordSource for VecSource {
    fn next_chunk(&mut self, out: &mut Vec<BlockRecord>, max: usize) -> Result<usize, TraceError> {
        let mut appended = 0;
        while appended < max {
            match self.records.next() {
                Some(rec) => {
                    out.push(rec);
                    appended += 1;
                }
                None => break,
            }
        }
        Ok(appended)
    }

    fn source_name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpType;
    use crate::time::SimInstant;

    fn rec(us: u64) -> BlockRecord {
        BlockRecord::new(SimInstant::from_usecs(us), 0, 8, OpType::Read)
    }

    #[test]
    fn vec_source_chunks_exactly() {
        let mut source = VecSource::new((0..10).map(rec).collect());
        let mut buf = Vec::new();
        assert_eq!(source.next_chunk(&mut buf, 4).unwrap(), 4);
        assert_eq!(source.next_chunk(&mut buf, 4).unwrap(), 4);
        assert_eq!(source.next_chunk(&mut buf, 4).unwrap(), 2);
        assert_eq!(source.next_chunk(&mut buf, 4).unwrap(), 0);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn collect_sorts_unordered_sources() {
        let mut source = VecSource::new(vec![rec(30), rec(10), rec(20)]);
        let trace = collect_source(&mut source, TraceMeta::default(), 2).unwrap();
        let arrivals: Vec<u64> = trace
            .columns()
            .arrivals()
            .iter()
            .map(|a| a.as_nanos())
            .collect();
        assert_eq!(arrivals, vec![10_000, 20_000, 30_000]);
    }

    #[test]
    fn chunk_cursor_peeks_and_pops_across_refills() {
        let mut cur = ChunkCursor::new(VecSource::new((0..10).map(rec).collect()), 3);
        for i in 0..10u64 {
            assert_eq!(
                cur.peek().unwrap().map(|r| r.arrival),
                Some(SimInstant::from_usecs(i))
            );
            // Peeking is idempotent; popping advances.
            assert_eq!(
                cur.peek().unwrap().map(|r| r.arrival),
                Some(SimInstant::from_usecs(i))
            );
            assert_eq!(
                cur.next_record().unwrap().map(|r| r.arrival),
                Some(SimInstant::from_usecs(i))
            );
        }
        assert_eq!(cur.peek().unwrap(), None);
        assert_eq!(cur.next_record().unwrap(), None);
    }

    #[test]
    fn collect_source_at_a_huge_chunk_equals_the_default() {
        let recs: Vec<BlockRecord> = (0..100).map(|i| rec(i * 3 % 70)).collect();
        let collect = |chunk| {
            collect_source(
                &mut VecSource::new(recs.clone()),
                TraceMeta::default(),
                chunk,
            )
            .unwrap()
        };
        assert_eq!(collect(usize::MAX), collect(DEFAULT_CHUNK));
    }

    #[test]
    fn chunk_size_does_not_change_result() {
        let recs: Vec<BlockRecord> = (0..100).map(|i| rec(i * 3 % 70)).collect();
        let expect = Trace::from_records(TraceMeta::default(), recs.clone());
        for chunk in [1, 7, 100, 1000] {
            let mut source = VecSource::new(recs.clone());
            let trace = collect_source(&mut source, TraceMeta::default(), chunk).unwrap();
            assert_eq!(trace, expect, "chunk {chunk}");
        }
    }
}
