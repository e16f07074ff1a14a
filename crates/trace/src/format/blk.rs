//! blkparse-style text format.
//!
//! Mimics the human-readable output of Linux `blkparse` (the consumer of
//! `blktrace`, the tool the paper uses for collection, §IV): one line per
//! *queue* action, with optional paired *complete* lines.
//!
//! ```text
//! <major,minor> <cpu> <seq> <time.s> <pid> Q <RW> <lba> + <sectors>
//! <major,minor> <cpu> <seq> <time.s> <pid> C <RW> <lba> + <sectors>
//! ```
//!
//! Only `Q` (block-layer arrival) and `C` (completion) actions are modelled;
//! a `D` (driver issue) line is emitted between them when the record carries
//! full [`ServiceTiming`]. Completion lines are matched back to their queue
//! line by `(lba, sectors, op)` in FIFO order, like blkparse does.
//!
//! Reading is streaming ([`BlkSource`]): a record is released as soon as its
//! completion has been matched (or at end of input for records that never
//! complete). For traces whose requests complete — the normal blktrace
//! case — the in-flight buffer is bounded by the traced device's queue
//! depth rather than the file size; a request whose `C` line never arrives
//! (Q-only captures, dropped completion events) holds the records behind
//! it in the buffer until end of input, since FIFO matching means a later
//! completion could still belong to it.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{BufRead, Write};

use super::csv::instant_from_nanos;
use crate::error::TraceError;
use crate::op::OpType;
use crate::record::{BlockRecord, ServiceTiming};
use crate::sink::{drain_trace, RecordSink};
use crate::source::{collect_source, RecordSource, DEFAULT_CHUNK};
use crate::time::SimInstant;
use crate::trace::{Trace, TraceMeta};

/// Writes `trace` in blkparse-style text — a thin whole-trace drain over
/// [`BlkSink`], so streaming and whole-trace serialisation are
/// byte-identical by construction.
///
/// # Errors
///
/// Returns [`TraceError::Io`] when the writer fails.
///
/// # Examples
///
/// ```
/// use tt_trace::{format::blk, BlockRecord, OpType, Trace, TraceMeta, time::SimInstant};
///
/// let trace = Trace::from_records(
///     TraceMeta::named("demo"),
///     vec![BlockRecord::new(SimInstant::from_usecs(5), 64, 8, OpType::Write)],
/// );
/// let mut buf = Vec::new();
/// blk::write_blk(&trace, &mut buf)?;
/// assert!(String::from_utf8(buf).unwrap().contains(" Q W 64 + 8"));
/// # Ok::<(), tt_trace::TraceError>(())
/// ```
pub fn write_blk<W: Write>(trace: &Trace, w: W) -> Result<(), TraceError> {
    let mut sink = BlkSink::new(w);
    drain_trace(trace, &mut sink, DEFAULT_CHUNK)?;
    Ok(())
}

/// Streaming blkparse-style writer ([`RecordSink`] impl): emits the `Q`
/// (and, for timed records, `D`/`C`) lines chunk by chunk, with the
/// monotone sequence counter carried across chunks — byte-identical to
/// [`write_blk`] at any chunk size (property-tested).
///
/// # Examples
///
/// ```
/// use tt_trace::format::blk::BlkSink;
/// use tt_trace::sink::RecordSink;
/// use tt_trace::{BlockRecord, OpType, time::SimInstant};
///
/// let mut out = Vec::new();
/// let mut sink = BlkSink::new(&mut out);
/// sink.push_chunk(&[BlockRecord::new(SimInstant::from_usecs(5), 64, 8, OpType::Write)])?;
/// sink.finish()?;
/// assert!(String::from_utf8(out).unwrap().contains(" Q W 64 + 8"));
/// # Ok::<(), tt_trace::TraceError>(())
/// ```
#[derive(Debug)]
pub struct BlkSink<W> {
    writer: W,
    seq: u64,
}

impl<W: Write> BlkSink<W> {
    /// Creates a sink writing blkparse-style text to `writer`.
    pub fn new(writer: W) -> Self {
        BlkSink { writer, seq: 0 }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> RecordSink for BlkSink<W> {
    fn push_chunk(&mut self, records: &[BlockRecord]) -> Result<(), TraceError> {
        for rec in records {
            self.seq += 1;
            writeln!(
                self.writer,
                "8,0 0 {} {:.9} 1 Q {} {} + {}",
                self.seq,
                rec.arrival.as_secs_f64(),
                rec.op.code(),
                rec.lba,
                rec.sectors,
            )?;
            if let Some(t) = rec.timing {
                self.seq += 1;
                writeln!(
                    self.writer,
                    "8,0 0 {} {:.9} 1 D {} {} + {}",
                    self.seq,
                    t.issue.as_secs_f64(),
                    rec.op.code(),
                    rec.lba,
                    rec.sectors,
                )?;
                self.seq += 1;
                writeln!(
                    self.writer,
                    "8,0 0 {} {:.9} 1 C {} {} + {}",
                    self.seq,
                    t.complete.as_secs_f64(),
                    rec.op.code(),
                    rec.lba,
                    rec.sectors,
                )?;
            }
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        self.writer.flush()?;
        Ok(())
    }

    fn sink_name(&self) -> &str {
        "blkparse"
    }
}

/// Parses blkparse-style text.
///
/// `Q` lines create records; `D`/`C` lines attach issue/completion times to
/// the oldest unmatched `Q` with the same `(op, lba, sectors)`. Unmatched
/// `D`/`C` lines are an error; records with a `D` but no `C` (or vice versa)
/// simply end up without [`ServiceTiming`].
///
/// # Errors
///
/// Returns [`TraceError::Parse`] with a line number on malformed input,
/// including a line that is not UTF-8 and a time whose nanoseconds do not
/// fit in a `u64`.
pub fn read_blk<R: BufRead + Send>(r: R, name: &str) -> Result<Trace, TraceError> {
    let mut source = BlkSource::new(r);
    collect_source(
        &mut source,
        TraceMeta::named(name).with_source("blkparse"),
        DEFAULT_CHUNK,
    )
}

/// One queued request awaiting its completion (or end of input).
#[derive(Debug)]
struct InFlight {
    rec: BlockRecord,
    issue: Option<SimInstant>,
    sealed: bool,
}

/// Streaming blkparse reader ([`RecordSource`] impl).
///
/// Records are buffered from their `Q` line until they are *sealed* — their
/// `C` line matched, or input exhausted — and released in `Q`-line order,
/// so for traces whose requests complete the buffer stays bounded by the
/// device's in-flight request count (see the module docs for the Q-only
/// degenerate case). Emission order plus the collector's stable arrival
/// sort reproduces the whole-file reader exactly.
#[derive(Debug)]
pub struct BlkSource<R> {
    reader: R,
    /// The line being decoded, newline included.
    line: Vec<u8>,
    lineno: usize,
    /// Requests in `Q`-line order; the front is released once sealed.
    queue: VecDeque<InFlight>,
    /// Global id of `queue[0]` (ids never reuse).
    base: u64,
    /// FIFO of unmatched request ids per `(op, lba, sectors)`.
    pending: HashMap<(OpType, u64, u32), VecDeque<u64>>,
    exhausted: bool,
}

impl<R: BufRead> BlkSource<R> {
    /// Wraps a buffered reader.
    pub fn new(reader: R) -> Self {
        BlkSource {
            reader,
            line: Vec::new(),
            lineno: 0,
            queue: VecDeque::new(),
            base: 0,
            pending: HashMap::new(),
            exhausted: false,
        }
    }

    /// Releases sealed records from the queue front, up to `max` total
    /// appended.
    fn drain(&mut self, out: &mut Vec<BlockRecord>, max: usize, appended: &mut usize) {
        while *appended < max && self.queue.front().is_some_and(|e| e.sealed) {
            if let Some(entry) = self.queue.pop_front() {
                self.base += 1;
                out.push(entry.rec);
                *appended += 1;
            }
        }
    }

    /// Applies one blkparse line to the in-flight state.
    fn process(&mut self, parsed: &ParsedLine, lineno: usize) -> Result<(), TraceError> {
        let key = (parsed.op, parsed.lba, parsed.sectors);
        match parsed.action {
            'Q' => {
                let id = self.base + self.queue.len() as u64;
                self.queue.push_back(InFlight {
                    rec: BlockRecord::new(parsed.time, parsed.lba, parsed.sectors, parsed.op),
                    issue: None,
                    sealed: false,
                });
                self.pending.entry(key).or_default().push_back(id);
            }
            'D' => {
                let ids = self
                    .pending
                    .get(&key)
                    .filter(|q| !q.is_empty())
                    .ok_or_else(|| TraceError::parse_at("D action with no matching Q", lineno))?;
                let base = self.base;
                let slot = ids
                    .iter()
                    .map(|&id| (id - base) as usize)
                    .find(|&idx| self.queue[idx].issue.is_none())
                    .ok_or_else(|| TraceError::parse_at("duplicate D action", lineno))?;
                self.queue[slot].issue = Some(parsed.time);
            }
            'C' => {
                let ids = self
                    .pending
                    .get_mut(&key)
                    .ok_or_else(|| TraceError::parse_at("C action with no matching Q", lineno))?;
                let id = ids
                    .pop_front()
                    .ok_or_else(|| TraceError::parse_at("C action with no matching Q", lineno))?;
                if ids.is_empty() {
                    // Keep the map bounded by *in-flight* keys, not by every
                    // key ever seen.
                    self.pending.remove(&key);
                }
                let entry = &mut self.queue[(id - self.base) as usize];
                if let Some(issue) = entry.issue {
                    if parsed.time < issue {
                        return Err(TraceError::parse_at("C precedes D", lineno));
                    }
                    entry.rec.timing = Some(ServiceTiming::new(issue, parsed.time));
                }
                entry.sealed = true;
            }
            other => {
                return Err(TraceError::parse_at(
                    format!("unsupported action {other:?}"),
                    lineno,
                ))
            }
        }
        Ok(())
    }
}

impl<R: BufRead + Send> RecordSource for BlkSource<R> {
    fn next_chunk(&mut self, out: &mut Vec<BlockRecord>, max: usize) -> Result<usize, TraceError> {
        let mut appended = 0;
        self.drain(out, max, &mut appended);
        while appended < max && !self.exhausted {
            self.line.clear();
            if self.reader.read_until(b'\n', &mut self.line)? == 0 {
                // End of input: everything still in flight is final.
                self.exhausted = true;
                for entry in &mut self.queue {
                    entry.sealed = true;
                }
                break;
            }
            self.lineno += 1;
            let line = std::str::from_utf8(&self.line)
                .map_err(|_| TraceError::parse_at("line is not valid UTF-8", self.lineno))?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let parsed = ParsedLine::parse(trimmed, self.lineno)?;
            self.process(&parsed, self.lineno)?;
            self.drain(out, max, &mut appended);
        }
        self.drain(out, max, &mut appended);
        Ok(appended)
    }

    fn source_name(&self) -> &str {
        "blkparse"
    }
}

struct ParsedLine {
    time: SimInstant,
    action: char,
    op: OpType,
    lba: u64,
    sectors: u32,
}

impl ParsedLine {
    fn parse(line: &str, lineno: usize) -> Result<Self, TraceError> {
        // <dev> <cpu> <seq> <time> <pid> <action> <RW> <lba> + <sectors>
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 10 || fields[8] != "+" {
            return Err(TraceError::parse_at(
                "expected `<dev> <cpu> <seq> <time> <pid> <action> <RW> <lba> + <sectors>`",
                lineno,
            ));
        }
        let secs: f64 = fields[3]
            .parse()
            .map_err(|_| TraceError::parse_at(format!("bad time {:?}", fields[3]), lineno))?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(TraceError::parse_at("time must be non-negative", lineno));
        }
        let time = instant_from_nanos(secs * 1e9, "time", lineno)?;
        let action = fields[5]
            .chars()
            .next()
            .filter(|_| fields[5].len() == 1)
            .ok_or_else(|| TraceError::parse_at("bad action field", lineno))?;
        let op: OpType = fields[6]
            .parse()
            .map_err(|_| TraceError::parse_at(format!("bad op {:?}", fields[6]), lineno))?;
        let lba: u64 = fields[7]
            .parse()
            .map_err(|_| TraceError::parse_at(format!("bad lba {:?}", fields[7]), lineno))?;
        let sectors: u32 = fields[9]
            .parse()
            .map_err(|_| TraceError::parse_at(format!("bad sectors {:?}", fields[9]), lineno))?;
        if sectors == 0 {
            return Err(TraceError::parse_at("sectors must be non-zero", lineno));
        }
        super::check_end_lba(lba, sectors, lineno)?;
        Ok(ParsedLine {
            time,
            action,
            op,
            lba,
            sectors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed_trace() -> Trace {
        let recs = vec![
            BlockRecord::new(SimInstant::from_usecs(10), 64, 8, OpType::Read).with_timing(
                ServiceTiming::new(SimInstant::from_usecs(12), SimInstant::from_usecs(90)),
            ),
            BlockRecord::new(SimInstant::from_usecs(100), 64, 8, OpType::Read).with_timing(
                ServiceTiming::new(SimInstant::from_usecs(101), SimInstant::from_usecs(180)),
            ),
        ];
        Trace::from_records(TraceMeta::named("t"), recs)
    }

    #[test]
    fn round_trip_with_timing() {
        let t = timed_trace();
        let mut buf = Vec::new();
        write_blk(&t, &mut buf).unwrap();
        let back = read_blk(buf.as_slice(), "t").unwrap();
        assert_eq!(back.records(), t.records());
    }

    #[test]
    fn round_trip_without_timing() {
        let t = Trace::from_records(
            TraceMeta::named("t"),
            vec![BlockRecord::new(
                SimInstant::from_usecs(10),
                0,
                8,
                OpType::Write,
            )],
        );
        let mut buf = Vec::new();
        write_blk(&t, &mut buf).unwrap();
        let back = read_blk(buf.as_slice(), "t").unwrap();
        assert_eq!(back.records(), t.records());
    }

    #[test]
    fn duplicate_requests_match_fifo() {
        // Two identical Q lines, completions attach in order.
        let text = "\
8,0 0 1 0.000010000 1 Q R 64 + 8
8,0 0 2 0.000020000 1 Q R 64 + 8
8,0 0 3 0.000030000 1 C R 64 + 8
8,0 0 4 0.000050000 1 C R 64 + 8
";
        let t = read_blk(text.as_bytes(), "x").unwrap();
        // No D lines → no ServiceTiming recorded.
        assert!(t.iter().all(|r| r.timing.is_none()));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn unmatched_completion_is_error() {
        let text = "8,0 0 1 0.0 1 C R 64 + 8\n";
        let err = read_blk(text.as_bytes(), "x").unwrap_err();
        assert!(err.to_string().contains("no matching Q"));
    }

    #[test]
    fn malformed_line_is_error() {
        let err = read_blk("not a blkparse line\n".as_bytes(), "x").unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn unsupported_action_is_error() {
        let text = "8,0 0 1 0.0 1 X R 64 + 8\n";
        let err = read_blk(text.as_bytes(), "x").unwrap_err();
        assert!(err.to_string().contains("unsupported action"));
    }

    #[test]
    fn streaming_releases_completed_records_early() {
        use crate::source::RecordSource;

        // First request completes before the second is queued: with a
        // 1-record chunk the source must release it without reading to EOF.
        let text = "\
8,0 0 1 0.000010000 1 Q R 64 + 8
8,0 0 2 0.000012000 1 D R 64 + 8
8,0 0 3 0.000030000 1 C R 64 + 8
8,0 0 4 0.000040000 1 Q W 128 + 16
";
        let mut source = BlkSource::new(text.as_bytes());
        let mut buf = Vec::new();
        assert_eq!(source.next_chunk(&mut buf, 1).unwrap(), 1);
        assert!(buf[0].timing.is_some());
        assert_eq!(source.next_chunk(&mut buf, 10).unwrap(), 1);
        assert!(buf[1].timing.is_none());
        assert_eq!(source.next_chunk(&mut buf, 10).unwrap(), 0);
    }

    #[test]
    fn streaming_equals_whole_file_reader() {
        let mut text = String::new();
        // Interleaved in-flight requests of mixed keys.
        for i in 0..200u64 {
            text.push_str(&format!(
                "8,0 0 {} {:.9} 1 Q R {} + 8\n",
                i,
                i as f64 * 1e-5,
                i * 8
            ));
            if i % 2 == 0 {
                text.push_str(&format!(
                    "8,0 0 {} {:.9} 1 C R {} + 8\n",
                    i,
                    i as f64 * 1e-5 + 4e-6,
                    i * 8
                ));
            }
        }
        let whole = read_blk(text.as_bytes(), "x").unwrap();
        for chunk in [1usize, 3, 64, 100_000] {
            let mut source = BlkSource::new(text.as_bytes());
            let streamed = collect_source(
                &mut source,
                TraceMeta::named("x").with_source("blkparse"),
                chunk,
            )
            .unwrap();
            assert_eq!(streamed, whole, "chunk {chunk}");
        }
    }

    #[test]
    fn times_past_u64_nanoseconds_are_parse_errors() {
        for time in ["20000000000", "1e300"] {
            let text = format!("8,0 0 1 0.000001000 1 Q R 64 + 8\n8,0 0 2 {time} 1 Q W 128 + 8\n");
            let err = read_blk(text.as_bytes(), "x").unwrap_err();
            let want =
                TraceError::parse_at("time out of range: its nanoseconds do not fit in a u64", 2);
            assert_eq!(err, want, "{time}");
        }
        // 18446744073 s is just below 2^64 ns.
        let t = read_blk("8,0 0 1 18446744073 1 Q R 64 + 8\n".as_bytes(), "x").unwrap();
        assert!(t.get(0).unwrap().arrival.as_nanos() > 18_446_744_072_000_000_000);
    }

    #[test]
    fn a_record_past_the_lba_bound_is_a_parse_error_at_its_line() {
        use crate::record::MAX_END_LBA;
        use crate::tolerant::{ErrorPolicy, TolerantSource};

        // An 8-sector request ending exactly at the bound is kept.
        let last = format!("8,0 0 1 0.000001000 1 Q R {} + 8\n", MAX_END_LBA - 8);
        assert_eq!(read_blk(last.as_bytes(), "x").unwrap().len(), 1);

        // A byte range wrapping past 2^64, or one sector past the bound,
        // stops the reader at its line; a skip budget of one absorbs it.
        for lba in [u64::MAX - 5, MAX_END_LBA - 7] {
            let text = format!(
                "8,0 0 1 0.000001000 1 Q R 64 + 8\n\
                 8,0 0 2 0.000002000 1 Q R {lba} + 8\n\
                 8,0 0 3 0.000003000 1 Q R 72 + 8\n"
            );
            let err = read_blk(text.as_bytes(), "x").unwrap_err();
            assert!(
                matches!(&err, TraceError::Parse { line: Some(2), message }
                    if message.contains("ends past sector")),
                "{err}"
            );
            let mut skipping =
                TolerantSource::new(BlkSource::new(text.as_bytes()), ErrorPolicy::skip(1));
            let trace = collect_source(&mut skipping, TraceMeta::named("x"), 64).unwrap();
            assert_eq!(trace.columns().lbas(), [64, 72]);
        }
    }

    #[test]
    fn a_line_that_is_not_utf8_is_a_parse_error_at_its_line() {
        let text = b"8,0 0 1 0.000001000 1 Q R 64 + 8\n\
8,0 0 2 0.000002000 1 Q R 72 + 8\n\
8,0 0 3 0.000003000 1 Q R \xe9 + 8\n\
8,0 0 4 0.000004000 1 Q R 80 + 8\n";
        let err = read_blk(&text[..], "x").unwrap_err();
        assert_eq!(err, TraceError::parse_at("line is not valid UTF-8", 3));
    }
}
