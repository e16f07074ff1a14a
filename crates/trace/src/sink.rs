//! Streaming record sinks — the write-side mirror of [`RecordSource`].
//!
//! PR 1 made the *read* side streaming (chunked [`RecordSource`] pulls);
//! this module completes the pipeline shape: a [`RecordSink`] accepts
//! records **chunk by chunk**, so producers — format writers, the replay
//! engine, reconstruction — can emit traces far larger than RAM-comfortable
//! without materialising them first. The CSV and blkparse writers in
//! [`format`](crate::format) implement it; the whole-trace writers
//! (`write_csv`/`write_blk`) are thin drains over the same sinks, so
//! streaming and whole-trace serialisation produce byte-identical files.
//!
//! Records must be pushed in arrival order — exactly what every producer in
//! the workspace (sorted [`Trace`]s, replay, reconstruction) emits.
//!
//! # Examples
//!
//! Pump a source straight into a sink — a format conversion that never
//! holds more than one chunk of records:
//!
//! ```
//! use tt_trace::format::csv::{CsvSink, CsvSource};
//! use tt_trace::sink::pump;
//!
//! let input = "# trace: demo\n# timestamp_us,op,lba,sectors[,issue_us,complete_us]\n\
//!              1.000,R,0,8\n2.000,W,8,16\n";
//! let mut out = Vec::new();
//! let n = pump(
//!     &mut CsvSource::new(input.as_bytes()),
//!     &mut CsvSink::new(&mut out, "demo"),
//!     1,
//! )?;
//! assert_eq!(n, 2);
//! assert_eq!(String::from_utf8(out).unwrap(), input);
//! # Ok::<(), tt_trace::TraceError>(())
//! ```

use crate::error::TraceError;
use crate::record::BlockRecord;
use crate::source::{initial_capacity, RecordSource};
use crate::store::TraceStore;
use crate::trace::{Trace, TraceMeta};

/// A streaming consumer of block records (mirror of [`RecordSource`]).
///
/// Implementations accept records in arrival order, chunk by chunk;
/// [`RecordSink::finish`] flushes whatever the sink buffered (headers for
/// empty outputs, trailing state) and must be called exactly once after the
/// last chunk.
pub trait RecordSink {
    /// Accepts the next `records`, in arrival order.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on I/O failure.
    fn push_chunk(&mut self, records: &[BlockRecord]) -> Result<(), TraceError>;

    /// Completes the stream (flush buffers, emit headers for empty output).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on I/O failure.
    fn finish(&mut self) -> Result<(), TraceError>;

    /// Descriptive sink name (used for diagnostics).
    fn sink_name(&self) -> &str;
}

impl<S: RecordSink + ?Sized> RecordSink for &mut S {
    fn push_chunk(&mut self, records: &[BlockRecord]) -> Result<(), TraceError> {
        (**self).push_chunk(records)
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        (**self).finish()
    }

    fn sink_name(&self) -> &str {
        (**self).sink_name()
    }
}

/// Drains `source` into `sink`, `chunk` records at a time, finishing the
/// sink. Returns the number of records transferred.
///
/// Records flow through in **file order**; when the source may be unordered
/// collect into a [`Trace`] first (the trace sorts) and use
/// [`drain_trace`].
///
/// # Errors
///
/// Propagates the first source or sink [`TraceError`].
pub fn pump<S, K>(source: &mut S, sink: &mut K, chunk: usize) -> Result<usize, TraceError>
where
    S: RecordSource + ?Sized,
    K: RecordSink + ?Sized,
{
    let chunk = chunk.max(1);
    let mut buf: Vec<BlockRecord> = Vec::with_capacity(initial_capacity(chunk));
    let mut total = 0;
    loop {
        buf.clear();
        let n = source.next_chunk(&mut buf, chunk)?;
        if n == 0 {
            break;
        }
        sink.push_chunk(&buf)?;
        total += n;
    }
    sink.finish()?;
    Ok(total)
}

/// Streams a [`Trace`]'s records into `sink`, `chunk` at a time, assembling
/// rows from the columns on the fly. Finishes the sink.
///
/// # Errors
///
/// Propagates sink [`TraceError`]s.
pub fn drain_trace<K: RecordSink + ?Sized>(
    trace: &Trace,
    sink: &mut K,
    chunk: usize,
) -> Result<usize, TraceError> {
    pump(&mut TraceSource::new(trace), sink, chunk)
}

/// A [`RecordSource`] over a borrowed [`Trace`]: yields the records in
/// arrival order, assembled from the columns chunk by chunk.
///
/// # Examples
///
/// ```
/// use tt_trace::sink::TraceSource;
/// use tt_trace::source::{collect_source, RecordSource};
/// use tt_trace::{BlockRecord, OpType, Trace, TraceMeta, time::SimInstant};
///
/// let trace = Trace::from_records(
///     TraceMeta::named("demo"),
///     vec![BlockRecord::new(SimInstant::from_usecs(1), 0, 8, OpType::Read)],
/// );
/// let copy = collect_source(&mut TraceSource::new(&trace), trace.meta().clone(), 4)?;
/// assert_eq!(copy, trace);
/// # Ok::<(), tt_trace::TraceError>(())
/// ```
#[derive(Debug)]
pub struct TraceSource<'a> {
    trace: &'a Trace,
    pos: usize,
}

impl<'a> TraceSource<'a> {
    /// Wraps a trace.
    #[must_use]
    pub fn new(trace: &'a Trace) -> Self {
        TraceSource { trace, pos: 0 }
    }
}

impl RecordSource for TraceSource<'_> {
    fn next_chunk(&mut self, out: &mut Vec<BlockRecord>, max: usize) -> Result<usize, TraceError> {
        let store = self.trace.columns();
        let end = store.len().min(self.pos + max);
        let n = end - self.pos;
        out.reserve(n);
        for i in self.pos..end {
            out.push(store.record(i));
        }
        self.pos = end;
        Ok(n)
    }

    fn source_name(&self) -> &str {
        "trace"
    }
}

/// An in-memory sink that collects pushed records into a [`Trace`] — the
/// write-side mirror of [`VecSource`](crate::source::VecSource), and the
/// adapter that lets every streaming producer double as a whole-trace one.
///
/// # Examples
///
/// ```
/// use tt_trace::sink::{RecordSink, TraceSink};
/// use tt_trace::{BlockRecord, OpType, TraceMeta, time::SimInstant};
///
/// let mut sink = TraceSink::new(TraceMeta::named("demo"));
/// sink.push_chunk(&[BlockRecord::new(SimInstant::from_usecs(1), 0, 8, OpType::Read)])?;
/// sink.finish()?;
/// assert_eq!(sink.into_trace().len(), 1);
/// # Ok::<(), tt_trace::TraceError>(())
/// ```
#[derive(Debug, Default)]
pub struct TraceSink {
    meta: TraceMeta,
    store: TraceStore,
}

impl TraceSink {
    /// Creates a sink whose trace will carry `meta`.
    #[must_use]
    pub fn new(meta: TraceMeta) -> Self {
        TraceSink::with_capacity(meta, 0)
    }

    /// Creates a sink that reserves `records` rows up front
    /// ([`TraceStore::with_capacity`]) — for producers that know their
    /// output length, such as a transform stage emitting one record per
    /// input record, so the columns never regrow while records arrive.
    /// That holds for the issue and completion columns too: they are
    /// reserved to the same capacity when the first timed record arrives,
    /// so a replay stage's all-timed output never regrows, and an untimed
    /// output never allocates them. Pushing fewer or more records than
    /// reserved is fine.
    #[must_use]
    pub fn with_capacity(meta: TraceMeta, records: usize) -> Self {
        TraceSink {
            meta,
            store: TraceStore::with_capacity(records),
        }
    }

    /// Number of records collected so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` when nothing has been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Finalises the collected trace (stable arrival sort, like every trace
    /// constructor).
    #[must_use]
    pub fn into_trace(self) -> Trace {
        Trace::from_store(self.meta, self.store)
    }
}

impl RecordSink for TraceSink {
    fn push_chunk(&mut self, records: &[BlockRecord]) -> Result<(), TraceError> {
        self.store.extend(records.iter().copied());
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        Ok(())
    }

    fn sink_name(&self) -> &str {
        "memory"
    }
}

/// Running statistics of records pushed through a [`ChunkBuffer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Number of records pushed.
    pub records: usize,
    /// Arrival of the first record, if any.
    pub first: Option<crate::time::SimInstant>,
    /// Arrival of the last record, if any.
    pub last: Option<crate::time::SimInstant>,
}

impl SinkStats {
    /// Wall-clock span from first to last pushed arrival (zero when fewer
    /// than two records flowed through).
    #[must_use]
    pub fn span(&self) -> crate::time::SimDuration {
        match (self.first, self.last) {
            (Some(first), Some(last)) => last - first,
            _ => crate::time::SimDuration::ZERO,
        }
    }
}

/// Buffering adapter for producers that emit records **one at a time**
/// (replay, reconstruction): accumulates `chunk` records, pushes them as
/// one sink chunk, and tracks [`SinkStats`] along the way.
///
/// # Examples
///
/// ```
/// use tt_trace::sink::{ChunkBuffer, TraceSink};
/// use tt_trace::{BlockRecord, OpType, TraceMeta, time::SimInstant};
///
/// let mut sink = TraceSink::new(TraceMeta::named("demo"));
/// let mut out = ChunkBuffer::new(&mut sink, 2);
/// for i in 0..5u64 {
///     out.push(BlockRecord::new(SimInstant::from_usecs(i * 10), i, 8, OpType::Read))?;
/// }
/// let stats = out.finish()?;
/// assert_eq!(stats.records, 5);
/// assert_eq!(stats.span().as_usecs_f64(), 40.0);
/// # Ok::<(), tt_trace::TraceError>(())
/// ```
pub struct ChunkBuffer<'a> {
    sink: &'a mut dyn RecordSink,
    buf: Vec<BlockRecord>,
    chunk: usize,
    stats: SinkStats,
}

impl std::fmt::Debug for ChunkBuffer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkBuffer")
            .field("sink", &self.sink.sink_name())
            .field("buffered", &self.buf.len())
            .field("chunk", &self.chunk)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<'a> ChunkBuffer<'a> {
    /// Wraps `sink`, flushing every `chunk` pushed records.
    pub fn new(sink: &'a mut dyn RecordSink, chunk: usize) -> Self {
        let chunk = chunk.max(1);
        ChunkBuffer {
            sink,
            buf: Vec::with_capacity(initial_capacity(chunk)),
            chunk,
            stats: SinkStats::default(),
        }
    }

    /// Pushes one record, flushing a full buffer into the sink.
    ///
    /// # Errors
    ///
    /// Propagates sink [`TraceError`]s.
    #[inline]
    pub fn push(&mut self, record: BlockRecord) -> Result<(), TraceError> {
        if self.stats.first.is_none() {
            self.stats.first = Some(record.arrival);
        }
        self.stats.last = Some(record.arrival);
        self.stats.records += 1;
        self.buf.push(record);
        if self.buf.len() >= self.chunk {
            self.sink.push_chunk(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Flushes the tail chunk, finishes the sink, and returns the stats.
    ///
    /// # Errors
    ///
    /// Propagates sink [`TraceError`]s.
    pub fn finish(mut self) -> Result<SinkStats, TraceError> {
        if !self.buf.is_empty() {
            self.sink.push_chunk(&self.buf)?;
            self.buf.clear();
        }
        self.sink.finish()?;
        Ok(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpType;
    use crate::source::{VecSource, DEFAULT_CHUNK};
    use crate::time::SimInstant;

    fn rec(us: u64) -> BlockRecord {
        BlockRecord::new(SimInstant::from_usecs(us), us, 8, OpType::Read)
    }

    #[test]
    fn pump_transfers_everything_at_any_chunk() {
        let recs: Vec<BlockRecord> = (0..37).map(rec).collect();
        for chunk in [1usize, 2, 7, 64] {
            let mut sink = TraceSink::new(TraceMeta::named("t"));
            let n = pump(&mut VecSource::new(recs.clone()), &mut sink, chunk).unwrap();
            assert_eq!(n, 37, "chunk {chunk}");
            assert_eq!(sink.into_trace().iter().collect::<Vec<_>>(), recs);
        }
    }

    /// A sink reserved for `n` records takes `n` timed ones without
    /// regrowing its timing columns: the first timed record reserves them
    /// to the reservation, and they never move after.
    #[test]
    fn reserved_sink_never_regrows_its_timing_columns() {
        let n = 10_000;
        let timed = |us: u64| {
            rec(us).with_timing(crate::record::ServiceTiming::new(
                SimInstant::from_usecs(us + 1),
                SimInstant::from_usecs(us + 2),
            ))
        };
        let mut sink = TraceSink::with_capacity(TraceMeta::named("t"), n);
        sink.push_chunk(&[timed(0)]).unwrap();
        let reserved = sink.store.timing_capacity();
        let at = sink.store.view().issues().as_ptr();
        assert!(reserved.0 >= n && reserved.1 >= n, "{reserved:?}");
        let rest: Vec<BlockRecord> = (1..n as u64).map(timed).collect();
        for part in rest.chunks(333) {
            sink.push_chunk(part).unwrap();
        }
        assert_eq!(sink.store.timing_capacity(), reserved);
        assert_eq!(sink.store.view().issues().as_ptr(), at);
        assert!(sink.into_trace().view().all_timed());
    }

    #[test]
    fn trace_source_round_trips_without_row_cache() {
        let trace = Trace::from_records(TraceMeta::named("t"), (0..10).map(rec).collect());
        let mut sink = TraceSink::new(trace.meta().clone());
        drain_trace(&trace, &mut sink, 3).unwrap();
        assert_eq!(sink.into_trace(), trace);
    }

    #[test]
    fn trace_sink_sorts_like_trace_constructors() {
        let mut sink = TraceSink::new(TraceMeta::default());
        sink.push_chunk(&[rec(30), rec(10)]).unwrap();
        sink.push_chunk(&[rec(20)]).unwrap();
        sink.finish().unwrap();
        let trace = sink.into_trace();
        let expect = Trace::from_records(TraceMeta::default(), vec![rec(30), rec(10), rec(20)]);
        assert_eq!(trace, expect);
    }

    /// A chunk size is a knob, not a record count: `usize::MAX` reserves
    /// one default chunk, grows as records arrive, and changes nothing.
    #[test]
    fn pump_at_a_huge_chunk_equals_the_default() {
        let recs: Vec<BlockRecord> = (0..37).map(rec).collect();
        let pumped = |chunk| {
            let mut sink = TraceSink::new(TraceMeta::named("t"));
            let n = pump(&mut VecSource::new(recs.clone()), &mut sink, chunk).unwrap();
            (n, sink.into_trace())
        };
        assert_eq!(pumped(usize::MAX), pumped(DEFAULT_CHUNK));
    }

    #[test]
    fn chunk_buffer_at_a_huge_chunk_equals_the_default() {
        let buffered = |chunk| {
            let mut sink = TraceSink::new(TraceMeta::named("t"));
            let mut out = ChunkBuffer::new(&mut sink, chunk);
            for us in 0..37 {
                out.push(rec(us)).unwrap();
            }
            let stats = out.finish().unwrap();
            (stats, sink.into_trace())
        };
        assert_eq!(buffered(usize::MAX), buffered(DEFAULT_CHUNK));
    }

    #[test]
    fn pump_into_trace_sink_matches_collect_source() {
        let recs: Vec<BlockRecord> = (0..25).map(|i| rec(i * 3 % 17)).collect();
        let mut sink = TraceSink::new(TraceMeta::named("x"));
        pump(&mut VecSource::new(recs.clone()), &mut sink, DEFAULT_CHUNK).unwrap();
        let via_source = crate::source::collect_source(
            &mut VecSource::new(recs),
            TraceMeta::named("x"),
            DEFAULT_CHUNK,
        )
        .unwrap();
        assert_eq!(sink.into_trace(), via_source);
    }
}
