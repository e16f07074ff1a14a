//! SNIA-style CSV trace format.
//!
//! One record per line:
//!
//! ```text
//! timestamp_us,op,lba,sectors[,issue_us,complete_us]
//! ```
//!
//! * `timestamp_us` — block-layer arrival, fractional microseconds;
//! * `op` — `R` or `W`;
//! * `lba`, `sectors` — integers (512-byte units);
//! * `issue_us`, `complete_us` — optional device-side timestamps
//!   (present for `Tsdev`-known traces, both or neither).
//!
//! Lines starting with `#` and blank lines are ignored. The writer emits a
//! commented header naming the trace; a control character in the name is
//! written as a space there, so no name can split the header line (readers
//! take the name from the file stem, never from the header).
//!
//! The writer renders each record into one reused byte buffer with digit
//! loops, no `core::fmt` call per field. Timestamps are the bytes `{:.3}`
//! writes for [`SimInstant::as_usecs_f64`], but below 2^43 µs (about 101.8
//! days) they are rendered from integers: the whole microseconds
//! `ns / 1000`, a `.`, and `ns % 1000` in three digits. Those are the same
//! bytes: `ns` is below 2^53, so `ns as f64` is exact, and the one rounded
//! division by 1000 lands within half an ulp — at most 2^-11 µs, less than
//! 0.0005 µs — of the three-decimal value, so `{:.3}` rounds back to it.
//! `core::fmt`, exact float formatting most of all, is the slow part of
//! writing a record, and real traces stay far below the bound. Timestamps
//! at or beyond it keep the float rendering, which is lossy there:
//! 8796093022208007 ns is written as `8796093022208.008`.
//!
//! The reader decodes bytes, too, on one of two paths.
//!
//! **One pass.** When the reader's buffered bytes begin with a whole line in
//! the writer's canonical spelling,
//!
//! ```text
//! digits[.digits],op,digits,digits[,digits[.digits],digits[.digits]]
//! ```
//!
//! with `op` one of `R r W w`, at most 16 digits per timestamp and 19 per
//! integer, ended by `\n` or `\r\n`, one walk over those bytes decodes it
//! and the line is consumed from the buffer, never copied. The walk runs
//! every value check the general path runs: sectors non-zero and within
//! `u32`, the end-LBA bound, timestamps in range, completion not before
//! issue. Such a line yields the record `parse_line` yields: it is ASCII,
//! so valid UTF-8; it holds no whitespace for a trim to strip but its line
//! end; it splits at its commas into the same 4 or 6 fields; the op bytes
//! are spellings `parse_op` accepts; an integer of at most 19 digits cannot
//! overflow a `u64`, so its value is the one the checked digit loop
//! computes; and both paths read a timestamp through one routine.
//!
//! **General path.** Every other line — a comment, a blank line,
//! whitespace, a `+`, another op spelling, a value a check rejects, a line
//! cut by the buffer's end or missing its final newline — is read with
//! `read_until` into one reused buffer, split into a fixed array of six
//! fields, and parsed by digit loops. This path is the only source of
//! errors, so every message, line number and check order is its own. It
//! accepts, rejects and reports exactly what the `str` methods it replaced
//! did (`str::trim`, `str::parse`), and two arguments make that so:
//!
//! * The byte trim strips ASCII whitespace, 0x09–0x0D and space, the ASCII
//!   characters `char::is_whitespace` accepts (`<[u8]>::trim_ascii` keeps
//!   0x0B, so it is not the same). Any other whitespace is a non-ASCII
//!   character, so when a non-ASCII byte is left at either end the rest
//!   goes through `str::trim`. A line with a non-ASCII byte is checked to
//!   be UTF-8 first, and is a parse error at its own line if it is not.
//! * A timestamp spelled `digits[.digits]` with at most 16 digits, which
//!   form an integer `w < 2^53` with `k` of them after the point, is `w as
//!   f64 / 10^k` (Clinger's fast path): `w` and `10^k` are exact `f64`s,
//!   so the one division is the correctly rounded value of the decimal,
//!   which is what `str::parse::<f64>` returns. Every other spelling (`+5`,
//!   `1e3`, `.5`, `inf`, 17 digits, ...) goes to `str::parse`.
//!
//! The reader then rounds each timestamp to the nanosecond and rejects one
//! whose nanoseconds do not fit in a `u64` as a parse error naming the
//! field. The timestamp routine takes one shortcut: for `k = 3` and `w <
//! 2^51` it returns `w` nanoseconds without the float route, and the two
//! are equal. With `q = fl(w / 1000)` and `p = fl(q · 1000)`, `w / 1000 <
//! 2^42`, so `|q − w/1000| ≤ 2^-12` and `|1000 q − w| ≤ 1000 · 2^-12`; and
//! `p < 2^51`, so `|p − 1000 q| ≤ ulp(p)/2 ≤ 2^-3`. Then `|p − w| ≤ 2^-3 +
//! 1000 · 2^-12 ≈ 0.37 < 1/2`, and `p` rounds to `w`. Above 2^51 that
//! margin is gone: `w = 4417064359065864` comes back as `w + 0.5`, which
//! rounds to `w + 1`, so the routine takes the float route there.

use std::io::{BufRead, ErrorKind, Write};

use crate::error::TraceError;
use crate::op::OpType;
use crate::record::{BlockRecord, ServiceTiming};
use crate::sink::{drain_trace, RecordSink};
use crate::source::{collect_source, RecordSource, DEFAULT_CHUNK};
use crate::time::SimInstant;
use crate::trace::{Trace, TraceMeta};

/// Timestamps below this many nanoseconds (2^43 µs) are written from
/// integers; see the module docs.
const EXACT_NANOS: u64 = (1 << 43) * 1_000;

/// 2^64: the first nanosecond count a `u64` cannot hold.
const NANOS_LIMIT: f64 = 18_446_744_073_709_551_616.0;

/// Digits the timestamp routine reads: 10^16 is above 2^53, so every `w`
/// of its domain fits, and none of its digit sums can overflow.
const MAX_USECS_DIGITS: usize = 16;

/// Digits the one-pass path reads for an integer: 10^19 is below 2^64.
const MAX_INT_DIGITS: usize = 19;

/// `10^k` for every `k` the timestamp routine meets (one digit is always
/// before the point), each exact.
const POW10: [f64; MAX_USECS_DIGITS] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// Serialises `trace` to CSV — a thin whole-trace drain over [`CsvSink`],
/// so streaming and whole-trace serialisation are byte-identical by
/// construction.
///
/// # Errors
///
/// Returns [`TraceError::Io`] when the writer fails. A `&mut Vec<u8>` or
/// `&mut File` can be passed for `w` (writers are taken by value per
/// C-RW-VALUE; pass `&mut w` to retain ownership).
///
/// # Examples
///
/// ```
/// use tt_trace::{format::csv, BlockRecord, OpType, Trace, TraceMeta, time::SimInstant};
///
/// let trace = Trace::from_records(
///     TraceMeta::named("demo"),
///     vec![BlockRecord::new(SimInstant::from_usecs(3), 0, 8, OpType::Read)],
/// );
/// let mut buf = Vec::new();
/// csv::write_csv(&trace, &mut buf)?;
/// let text = String::from_utf8(buf).unwrap();
/// assert!(text.contains("3.000,R,0,8"));
/// # Ok::<(), tt_trace::TraceError>(())
/// ```
pub fn write_csv<W: Write>(trace: &Trace, w: W) -> Result<(), TraceError> {
    let mut sink = CsvSink::new(w, trace.meta().name.clone());
    drain_trace(trace, &mut sink, DEFAULT_CHUNK)?;
    Ok(())
}

/// Streaming CSV writer: accepts records chunk by chunk ([`RecordSink`]
/// impl) and emits exactly the bytes [`write_csv`] would for the same
/// records (property-tested).
///
/// The commented header is written before the first record (or at
/// [`RecordSink::finish`] for empty streams). Each record is rendered into
/// one small reused buffer and handed to the writer in one `write_all`.
///
/// # Examples
///
/// ```
/// use tt_trace::format::csv::CsvSink;
/// use tt_trace::sink::RecordSink;
/// use tt_trace::{BlockRecord, OpType, time::SimInstant};
///
/// let mut out = Vec::new();
/// let mut sink = CsvSink::new(&mut out, "demo");
/// sink.push_chunk(&[BlockRecord::new(SimInstant::from_usecs(3), 0, 8, OpType::Read)])?;
/// sink.finish()?;
/// assert!(String::from_utf8(out).unwrap().contains("3.000,R,0,8"));
/// # Ok::<(), tt_trace::TraceError>(())
/// ```
#[derive(Debug)]
pub struct CsvSink<W> {
    writer: W,
    name: String,
    header_written: bool,
    /// Records written so far.
    written: usize,
    /// The record being rendered (at most about 100 bytes).
    line: Vec<u8>,
}

impl<W: Write> CsvSink<W> {
    /// Creates a sink writing to `writer`; `name` goes into the commented
    /// header (the trace name [`write_csv`] records), with each control
    /// character written as a space.
    pub fn new(writer: W, name: impl Into<String>) -> Self {
        CsvSink {
            writer,
            name: name.into(),
            header_written: false,
            written: 0,
            line: Vec::with_capacity(128),
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }

    fn ensure_header(&mut self) -> Result<(), TraceError> {
        if !self.header_written {
            let name: String = self
                .name
                .chars()
                .map(|c| if c.is_control() { ' ' } else { c })
                .collect();
            writeln!(self.writer, "# trace: {name}")?;
            writeln!(
                self.writer,
                "# timestamp_us,op,lba,sectors[,issue_us,complete_us]"
            )?;
            self.header_written = true;
        }
        Ok(())
    }
}

impl<W: Write> RecordSink for CsvSink<W> {
    fn push_chunk(&mut self, records: &[BlockRecord]) -> Result<(), TraceError> {
        self.ensure_header()?;
        let line = &mut self.line;
        for rec in records {
            super::check_writable(self.written, rec.lba, rec.sectors)?;
            self.written += 1;
            line.clear();
            push_usecs(line, rec.arrival)?;
            line.extend_from_slice(&[b',', rec.op.code() as u8, b',']);
            push_decimal(line, rec.lba);
            line.push(b',');
            push_decimal(line, u64::from(rec.sectors));
            if let Some(t) = rec.timing {
                line.push(b',');
                push_usecs(line, t.issue)?;
                line.push(b',');
                push_usecs(line, t.complete)?;
            }
            line.push(b'\n');
            self.writer.write_all(line)?;
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        self.ensure_header()?;
        self.writer.flush()?;
        Ok(())
    }

    fn sink_name(&self) -> &str {
        "csv"
    }
}

/// Appends `n` in decimal.
fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// Appends `t` in microseconds with three decimals: the bytes `{:.3}`
/// writes for [`SimInstant::as_usecs_f64`] (see the module docs).
fn push_usecs(out: &mut Vec<u8>, t: SimInstant) -> std::io::Result<()> {
    let ns = t.as_nanos();
    if ns >= EXACT_NANOS {
        return write!(out, "{:.3}", t.as_usecs_f64());
    }
    push_decimal(out, ns / 1_000);
    let frac = ns % 1_000;
    out.extend_from_slice(&[
        b'.',
        b'0' + (frac / 100) as u8,
        b'0' + (frac / 10 % 10) as u8,
        b'0' + (frac % 10) as u8,
    ]);
    Ok(())
}

/// Parses a CSV trace from `r`.
///
/// Records are sorted by arrival if the file is out of order.
///
/// # Errors
///
/// Returns [`TraceError::Parse`] with the offending line number on malformed
/// input (a line that is not UTF-8 included), or [`TraceError::Io`] on read
/// failure.
///
/// # Examples
///
/// ```
/// use tt_trace::format::csv;
///
/// let text = "# header\n10.5,R,100,8\n20.0,W,200,16,21.0,95.5\n";
/// let trace = csv::read_csv(text.as_bytes(), "demo")?;
/// assert_eq!(trace.len(), 2);
/// assert!(trace.get(1).unwrap().timing.is_some());
/// # Ok::<(), tt_trace::TraceError>(())
/// ```
pub fn read_csv<R: BufRead + Send>(r: R, name: &str) -> Result<Trace, TraceError> {
    let mut source = CsvSource::new(r);
    collect_source(
        &mut source,
        TraceMeta::named(name).with_source("csv"),
        DEFAULT_CHUNK,
    )
}

/// Streaming CSV reader: yields parsed records chunk by chunk without
/// materialising the file ([`RecordSource`] impl). A line in the writer's
/// own spelling is decoded in place in the reader's buffer; any other goes
/// through the general decoder (see the module docs).
///
/// # Examples
///
/// ```
/// use tt_trace::format::csv::CsvSource;
/// use tt_trace::source::RecordSource;
///
/// let text = "1.0,R,0,8\n2.0,W,8,16\n";
/// let mut source = CsvSource::new(text.as_bytes());
/// let mut buf = Vec::new();
/// assert_eq!(source.next_chunk(&mut buf, 1)?, 1);
/// assert_eq!(source.next_chunk(&mut buf, 10)?, 1);
/// assert_eq!(source.next_chunk(&mut buf, 10)?, 0);
/// # Ok::<(), tt_trace::TraceError>(())
/// ```
#[derive(Debug)]
pub struct CsvSource<R> {
    reader: R,
    /// The line the general path is decoding, newline included.
    line: Vec<u8>,
    lineno: usize,
}

impl<R: BufRead> CsvSource<R> {
    /// Wraps a buffered reader.
    pub fn new(reader: R) -> Self {
        CsvSource {
            reader,
            line: Vec::with_capacity(128),
            lineno: 0,
        }
    }
}

impl<R: BufRead + Send> RecordSource for CsvSource<R> {
    fn next_chunk(&mut self, out: &mut Vec<BlockRecord>, max: usize) -> Result<usize, TraceError> {
        let mut appended = 0;
        while appended < max {
            // One pass over a canonical line at the front of the buffer,
            // retrying an interrupted read as `read_until` does.
            let buffered = loop {
                match self.reader.fill_buf() {
                    Ok(buffered) => break buffered,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
            };
            if let Some((rec, len)) = canonical_line(buffered) {
                self.reader.consume(len);
                self.lineno += 1;
                out.push(rec);
                appended += 1;
                continue;
            }
            // The general path, for a line of any other spelling.
            self.line.clear();
            if self.reader.read_until(b'\n', &mut self.line)? == 0 {
                break;
            }
            self.lineno += 1;
            if !self.line.is_ascii() && std::str::from_utf8(&self.line).is_err() {
                return Err(TraceError::parse_at("line is not valid UTF-8", self.lineno));
            }
            let line = trim(&self.line);
            if line.is_empty() || line.starts_with(b"#") {
                continue;
            }
            out.push(parse_line(line, self.lineno)?);
            appended += 1;
        }
        Ok(appended)
    }

    fn source_name(&self) -> &str {
        "csv"
    }
}

/// The record of the canonical line at the front of `buf` and the line's
/// length, line end included; `None` for any other bytes, a line that
/// `buf` ends before its line end included (see the module docs).
#[inline]
fn canonical_line(buf: &[u8]) -> Option<(BlockRecord, usize)> {
    let (arrival, mut at) = scan_usecs(buf)?;
    let op = match buf.get(at..at + 3)? {
        [b',', b'R' | b'r', b','] => OpType::Read,
        [b',', b'W' | b'w', b','] => OpType::Write,
        _ => return None,
    };
    at += 3;
    let (lba, len) = scan_u64(&buf[at..])?;
    at += len;
    if buf.get(at) != Some(&b',') {
        return None;
    }
    let (sectors, len) = scan_u64(&buf[at + 1..])?;
    at += 1 + len;
    let sectors = u32::try_from(sectors).ok().filter(|&n| n != 0)?;
    if !BlockRecord::ends_in_range(lba, sectors) {
        return None;
    }
    let mut rec = BlockRecord::new(arrival.instant()?, lba, sectors, op);
    if buf.get(at) == Some(&b',') {
        let (issue, len) = scan_usecs(&buf[at + 1..])?;
        at += 1 + len;
        if buf.get(at) != Some(&b',') {
            return None;
        }
        let (complete, len) = scan_usecs(&buf[at + 1..])?;
        at += 1 + len;
        let (issue, complete) = (issue.instant()?, complete.instant()?);
        if complete < issue {
            return None;
        }
        rec = rec.with_timing(ServiceTiming::new(issue, complete));
    }
    match buf[at..] {
        [b'\n', ..] => Some((rec, at + 1)),
        [b'\r', b'\n', ..] => Some((rec, at + 2)),
        _ => None,
    }
}

/// Reads the run of decimal digits at the front of `bytes` onto `w`, at
/// most `room` of them: the new `w` and the run's length, or `None` when
/// the run is longer.
#[inline]
fn digit_run(bytes: &[u8], mut w: u64, room: usize) -> Option<(u64, usize)> {
    for (len, &b) in bytes.iter().enumerate() {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return Some((w, len));
        }
        if len == room {
            return None;
        }
        w = w * 10 + u64::from(digit);
    }
    Some((w, bytes.len()))
}

/// The integer spelled by the run of 1 to 19 digits at the front of
/// `bytes`, and the run's length.
#[inline]
fn scan_u64(bytes: &[u8]) -> Option<(u64, usize)> {
    digit_run(bytes, 0, MAX_INT_DIGITS).filter(|&(_, len)| len > 0)
}

/// A timestamp read by [`scan_usecs`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Usecs {
    /// Exactly this many nanoseconds (the `k = 3`, `w < 2^51` shortcut).
    Nanos(u64),
    /// This many microseconds, correctly rounded.
    Micros(f64),
}

impl Usecs {
    /// The instant, rounded to the nanosecond; `None` when its nanoseconds
    /// do not fit in a `u64`.
    #[inline]
    fn instant(self) -> Option<SimInstant> {
        match self {
            Usecs::Nanos(ns) => Some(SimInstant::from_nanos(ns)),
            Usecs::Micros(us) => rounded_nanos(us * 1_000.0),
        }
    }
}

/// The timestamp routine both paths share: the value of the
/// `digits[.digits]` at the front of `bytes` — at most 16 digits, which
/// form `w < 2^53` with `k` of them after the point — and the bytes it
/// spans. The value is `w` nanoseconds for `k = 3` and `w < 2^51`, else
/// `w as f64 / 10^k` microseconds (see the module docs); `None` when
/// `bytes` does not begin with such a timestamp.
#[inline]
fn scan_usecs(bytes: &[u8]) -> Option<(Usecs, usize)> {
    let (w, int) = digit_run(bytes, 0, MAX_USECS_DIGITS)?;
    if int == 0 {
        return None;
    }
    let (w, k) = match bytes.get(int) {
        Some(b'.') => match digit_run(&bytes[int + 1..], w, MAX_USECS_DIGITS - int)? {
            (_, 0) => return None,
            run => run,
        },
        _ => (w, 0),
    };
    if w >= 1 << 53 {
        return None;
    }
    let value = if k == 3 && w < 1 << 51 {
        Usecs::Nanos(w)
    } else {
        Usecs::Micros(w as f64 / POW10[k])
    };
    Some((value, if k == 0 { int } else { int + 1 + k }))
}

/// What `str::trim` leaves of UTF-8 `bytes` (see the module docs).
fn trim(mut bytes: &[u8]) -> &[u8] {
    while let [b'\t'..=b'\r' | b' ', rest @ ..] = bytes {
        bytes = rest;
    }
    while let [rest @ .., b'\t'..=b'\r' | b' '] = bytes {
        bytes = rest;
    }
    match (bytes.first(), bytes.last()) {
        (Some(first), Some(last)) if !first.is_ascii() || !last.is_ascii() => {
            std::str::from_utf8(bytes).map_or(bytes, |s| s.trim().as_bytes())
        }
        _ => bytes,
    }
}

fn parse_line(line: &[u8], lineno: usize) -> Result<BlockRecord, TraceError> {
    let mut fields: [&[u8]; 6] = [&[]; 6];
    let mut count = 0;
    for field in line.split(|&b| b == b',') {
        if let Some(slot) = fields.get_mut(count) {
            *slot = trim(field);
        }
        count += 1;
    }
    if count != 4 && count != 6 {
        return Err(TraceError::parse_at(
            format!("expected 4 or 6 fields, got {count}"),
            lineno,
        ));
    }

    let arrival = parse_usecs(fields[0], "timestamp_us", lineno)?;
    let op = parse_op(fields[1]).ok_or_else(|| bad_field("op", fields[1], lineno))?;
    let lba = parse_u64(fields[2]).ok_or_else(|| bad_field("lba", fields[2], lineno))?;
    let sectors = parse_u64(fields[3])
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| bad_field("sectors", fields[3], lineno))?;
    if sectors == 0 {
        return Err(TraceError::parse_at("sectors must be non-zero", lineno));
    }
    super::check_end_lba(lba, sectors, lineno)?;

    let mut rec = BlockRecord::new(arrival, lba, sectors, op);
    if count == 6 {
        let issue = parse_usecs(fields[4], "issue_us", lineno)?;
        let complete = parse_usecs(fields[5], "complete_us", lineno)?;
        if complete < issue {
            return Err(TraceError::parse_at("completion precedes issue", lineno));
        }
        rec = rec.with_timing(ServiceTiming::new(issue, complete));
    }
    Ok(rec)
}

/// The parse error for a `field` that is not a valid `what`; the field is
/// text, as every decoded line is UTF-8.
fn bad_field(what: &str, field: &[u8], lineno: usize) -> TraceError {
    let field = String::from_utf8_lossy(field);
    TraceError::parse_at(format!("bad {what} {field:?}"), lineno)
}

/// The spellings `OpType::from_str` accepts.
fn parse_op(field: &[u8]) -> Option<OpType> {
    match field {
        b"R" | b"r" | b"read" | b"Read" | b"READ" => Some(OpType::Read),
        b"W" | b"w" | b"write" | b"Write" | b"WRITE" => Some(OpType::Write),
        _ => None,
    }
}

/// What `str::parse::<u64>` accepts: decimal digits after at most one `+`,
/// without overflow.
fn parse_u64(field: &[u8]) -> Option<u64> {
    match field.strip_prefix(b"+").unwrap_or(field) {
        [] => None,
        digits => decimal_value(digits),
    }
}

/// The integer the decimal `digits` spell, or `None` if one is not a digit
/// or the integer overflows a `u64`.
fn decimal_value(digits: &[u8]) -> Option<u64> {
    digits.iter().try_fold(0u64, |n, &b| {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        n.checked_mul(10)?.checked_add(u64::from(digit))
    })
}

/// The timestamp routine applied to a whole field: its value when the
/// field is exactly one timestamp in the routine's domain, equal to what
/// `str::parse::<f64>` and the rounding make of it (see the module docs).
fn fast_decimal(field: &[u8]) -> Option<Usecs> {
    scan_usecs(field)
        .filter(|&(_, len)| len == field.len())
        .map(|(value, _)| value)
}

fn parse_usecs(field: &[u8], what: &str, lineno: usize) -> Result<SimInstant, TraceError> {
    let us = match fast_decimal(field) {
        Some(Usecs::Nanos(ns)) => return Ok(SimInstant::from_nanos(ns)),
        Some(Usecs::Micros(us)) => us,
        None => String::from_utf8_lossy(field)
            .parse::<f64>()
            .map_err(|_| bad_field(what, field, lineno))?,
    };
    if !us.is_finite() || us < 0.0 {
        return Err(TraceError::parse_at(
            format!("{what} must be finite and non-negative"),
            lineno,
        ));
    }
    instant_from_nanos(us * 1_000.0, what, lineno)
}

/// `ns` rounded to a whole nanosecond, or a parse error at `lineno` naming
/// `what` when the count does not fit in a `u64`.
pub(super) fn instant_from_nanos(
    ns: f64,
    what: &str,
    lineno: usize,
) -> Result<SimInstant, TraceError> {
    rounded_nanos(ns).ok_or_else(|| {
        TraceError::parse_at(
            format!("{what} out of range: its nanoseconds do not fit in a u64"),
            lineno,
        )
    })
}

/// `ns` rounded to a whole nanosecond, or `None` when the count does not
/// fit in a `u64`.
#[inline]
fn rounded_nanos(ns: f64) -> Option<SimInstant> {
    let ns = ns.round();
    if ns >= NANOS_LIMIT {
        return None;
    }
    Some(SimInstant::from_nanos(ns as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use crate::tolerant::{ErrorPolicy, TolerantSource};
    use proptest::TestRng;

    fn sample_trace() -> Trace {
        let recs = vec![
            BlockRecord::new(SimInstant::from_usecs(0), 100, 8, OpType::Read),
            BlockRecord::new(SimInstant::from_usecs(250), 500, 16, OpType::Write).with_timing(
                ServiceTiming::new(SimInstant::from_usecs(251), SimInstant::from_usecs(400)),
            ),
        ];
        Trace::from_records(TraceMeta::named("t"), recs)
    }

    #[test]
    fn round_trip_preserves_records() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_csv(&trace, &mut buf).unwrap();
        let back = read_csv(buf.as_slice(), "t").unwrap();
        assert_eq!(back.columns(), trace.columns());
    }

    #[test]
    fn skips_comments_and_blanks() {
        let text = "# c\n\n1.0,R,0,8\n  \n";
        let t = read_csv(text.as_bytes(), "x").unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn reports_line_numbers() {
        let text = "1.0,R,0,8\nbogus line\n";
        let err = read_csv(text.as_bytes(), "x").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn rejects_zero_sectors() {
        let err = read_csv("1.0,R,0,0\n".as_bytes(), "x").unwrap_err();
        assert!(err.to_string().contains("non-zero"));
    }

    /// The writer refuses a record its own reader would reject, at the
    /// record's position in the stream, before writing it.
    #[test]
    fn writers_reject_a_record_past_the_lba_bound() {
        use crate::record::MAX_END_LBA;

        let rows = |lba| {
            vec![
                BlockRecord::new(SimInstant::ZERO, 0, 8, OpType::Read),
                BlockRecord::new(SimInstant::from_usecs(10), lba, 8, OpType::Read),
            ]
        };
        let kept = Trace::from_records(TraceMeta::named("x"), rows(MAX_END_LBA - 8));
        let mut out = Vec::new();
        write_csv(&kept, &mut out).unwrap();
        assert_eq!(
            read_csv(out.as_slice(), "x").unwrap().columns(),
            kept.columns()
        );
        for lba in [u64::MAX - 5, MAX_END_LBA - 7] {
            let bad = Trace::from_records(TraceMeta::named("x"), rows(lba));
            let mut out = Vec::new();
            let err = write_csv(&bad, &mut out).unwrap_err();
            assert!(
                matches!(err, TraceError::InvalidRecord { index: 1, .. }),
                "{err}"
            );
            assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
            let mut sink = CsvSink::new(Vec::new(), "x");
            sink.push_chunk(&rows(0)[..1]).unwrap();
            let err = sink.push_chunk(&rows(lba)[1..]).unwrap_err();
            assert!(err.to_string().contains("index 1"), "{err}");
        }
    }

    #[test]
    fn a_record_past_the_lba_bound_is_a_parse_error_at_its_line() {
        use crate::record::MAX_END_LBA;

        // An 8-sector record ending exactly at the bound is kept.
        let last = format!("0.000,R,{},8\n", MAX_END_LBA - 8);
        assert_eq!(read_csv(last.as_bytes(), "x").unwrap().len(), 1);

        // A byte range wrapping past 2^64, or one sector past the bound:
        // the decoder and its `str` oracle both stop at the line, and a
        // skip budget of one absorbs it.
        for lba in [u64::MAX - 5, MAX_END_LBA - 7] {
            let text = format!("0.000,R,{lba},8\n10.000,R,100,8\n");
            for err in [
                drain(&mut CsvSource::new(text.as_bytes()), 64).1,
                drain(&mut StrSource::new(text.as_bytes()), 64).1,
            ] {
                let err = err.expect("record past the bound accepted");
                assert!(
                    err.contains("line 1") && err.contains("ends past sector"),
                    "{err}"
                );
            }
            let mut skipping =
                TolerantSource::new(CsvSource::new(text.as_bytes()), ErrorPolicy::skip(1));
            let (records, err) = drain(&mut skipping, 64);
            assert_eq!((records.len(), err), (1, None));
            assert_eq!(records[0].lba, 100);
        }
    }

    #[test]
    fn rejects_negative_timestamp() {
        let err = read_csv("-1.0,R,0,8\n".as_bytes(), "x").unwrap_err();
        assert!(err.to_string().contains("non-negative"));
    }

    #[test]
    fn rejects_inverted_timing() {
        let err = read_csv("1.0,R,0,8,5.0,2.0\n".as_bytes(), "x").unwrap_err();
        assert!(err.to_string().contains("precedes"));
    }

    #[test]
    fn rejects_wrong_field_count() {
        let err = read_csv("1.0,R,0\n".as_bytes(), "x").unwrap_err();
        assert!(err.to_string().contains("4 or 6"));
    }

    #[test]
    fn sorts_out_of_order_input() {
        let text = "20.0,R,0,8\n10.0,W,0,8\n";
        let t = read_csv(text.as_bytes(), "x").unwrap();
        assert_eq!(t.inter_arrival(0).unwrap(), SimDuration::from_usecs(10));
        assert!(t.get(0).unwrap().op.is_write());
    }

    #[test]
    fn sub_microsecond_precision_survives() {
        let text = "1.234,R,0,8\n";
        let t = read_csv(text.as_bytes(), "x").unwrap();
        assert_eq!(t.get(0).unwrap().arrival.as_nanos(), 1_234);
    }

    #[test]
    fn rejects_out_of_range_timestamps() {
        let cases = [
            ("1e300,R,0,8\n", "timestamp_us"),
            ("18446744073709552,R,0,8\n", "timestamp_us"),
            (
                "1.0,R,0,8,18446744073709552,18446744073709552\n",
                "issue_us",
            ),
            ("1.0,R,0,8,1.0,1e20\n", "complete_us"),
        ];
        for (line, what) in cases {
            let text = format!("0.5,W,0,8\n{line}");
            let err = read_csv(text.as_bytes(), "x").unwrap_err();
            let TraceError::Parse { message, line } = &err else {
                panic!("{err}");
            };
            assert_eq!(*line, Some(2), "{text}");
            assert!(message.starts_with(what), "{message}");
            assert!(message.contains("out of range"), "{message}");
        }
        // Just below the limit still loads: 18446744073709548 µs is an
        // exact f64, and 1000 times it rounds to 2^64 - 4096.
        let t = read_csv("18446744073709548,R,0,8\n".as_bytes(), "x").unwrap();
        assert_eq!(t.get(0).unwrap().arrival.as_nanos(), u64::MAX - 4095);
    }

    #[test]
    fn skip_policy_absorbs_out_of_range_timestamps() {
        let text = "1.0,R,0,8\n1e300,R,0,8\n2.0,W,8,8\n";
        let policy = ErrorPolicy::quarantine();
        let mut source = TolerantSource::new(CsvSource::new(text.as_bytes()), policy.clone());
        let trace = collect_source(&mut source, TraceMeta::named("x"), 64).unwrap();
        assert_eq!(trace.len(), 2);
        let log = policy.log().unwrap();
        assert_eq!(log.entries().len(), 1);
        assert_eq!(log.entries()[0].line, Some(2));
    }

    #[test]
    fn control_characters_in_the_name_cannot_break_the_header() {
        let trace =
            Trace::from_records(TraceMeta::named("a\nb\rc"), sample_trace().iter().collect());
        let mut buf = Vec::new();
        write_csv(&trace, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("# trace: a b c\n# timestamp_us"), "{text}");
        let back = read_csv(buf.as_slice(), "a\nb\rc").unwrap();
        assert_eq!(back.columns(), trace.columns());
    }

    /// Written by the `writeln!`/`{:.3}` encoder this module had before
    /// timestamps were rendered from integers: 200 `CFS` records with
    /// device timing (seed 1)
    /// and 150 `MSNFS` records without (seed 2), both materialised on the
    /// `hdd` preset, plus boundary rows — 0, 999, 1000, arrivals around
    /// 2^43 µs, beyond 2^53 ns and up to 1.8e19 ns, and a `u32::MAX`-sector
    /// record ending at [`MAX_END_LBA`](crate::record::MAX_END_LBA), the
    /// readers' bound.
    const FMT_ENCODER_FIXTURE: &[u8] = include_bytes!("../../tests/data/fmt_encoder.csv");

    #[test]
    fn fixture_from_the_fmt_encoder_round_trips_byte_for_byte() {
        let trace = read_csv(FMT_ENCODER_FIXTURE, "fmt_encoder").unwrap();
        assert_eq!(trace.len(), 374);
        assert!(trace.iter().any(|r| r.arrival.as_nanos() > EXACT_NANOS));
        let mut buf = Vec::new();
        write_csv(&trace, &mut buf).unwrap();
        assert!(buf == FMT_ENCODER_FIXTURE, "re-encoded fixture differs");
    }

    // ---- encoder vs float formatting ---------------------------------------

    /// The `writeln!`/`{:.3}` encoder that [`CsvSink`]'s byte rendering
    /// replaced.
    fn fmt_encode(records: &[BlockRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        for rec in records {
            match rec.timing {
                Some(t) => writeln!(
                    out,
                    "{:.3},{},{},{},{:.3},{:.3}",
                    rec.arrival.as_usecs_f64(),
                    rec.op.code(),
                    rec.lba,
                    rec.sectors,
                    t.issue.as_usecs_f64(),
                    t.complete.as_usecs_f64(),
                ),
                None => writeln!(
                    out,
                    "{:.3},{},{},{}",
                    rec.arrival.as_usecs_f64(),
                    rec.op.code(),
                    rec.lba,
                    rec.sectors,
                ),
            }
            .unwrap();
        }
        out
    }

    /// Nanosecond counts spread over the whole `u64` range: a random bit
    /// length, then random bits below it.
    fn any_nanos(rng: &mut TestRng) -> u64 {
        let bits = rng.below(65);
        if bits == 0 {
            0
        } else {
            rng.next_u64() >> (64 - bits)
        }
    }

    #[test]
    fn usecs_rendering_equals_float_formatting() {
        let fixed = [
            0,
            1,
            999,
            1000,
            1001,
            EXACT_NANOS - 1,
            EXACT_NANOS,
            1 << 53,
            (1 << 53) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        let near_bound = (EXACT_NANOS - 20_000..EXACT_NANOS + 20_000).step_by(3);
        let mut rng = TestRng::from_name("usecs_rendering_equals_float_formatting");
        let random: Vec<u64> = (0..200_000).map(|_| any_nanos(&mut rng)).collect();
        let mut out = Vec::new();
        for ns in fixed.into_iter().chain(near_bound).chain(random) {
            out.clear();
            push_usecs(&mut out, SimInstant::from_nanos(ns)).unwrap();
            let want = format!("{:.3}", ns as f64 / 1000.0);
            assert_eq!(out, want.as_bytes(), "{ns} ns");
        }
    }

    #[test]
    fn sink_equals_fmt_encoder() {
        use crate::record::MAX_END_LBA;

        let mut rng = TestRng::from_name("sink_equals_fmt_encoder");
        for chunk in [1, 7, 500] {
            let records: Vec<BlockRecord> = (0..500)
                .map(|_| {
                    let arrival = SimInstant::from_nanos(any_nanos(&mut rng));
                    let op = OpType::ALL[rng.below(2) as usize];
                    let sectors = (rng.next_u64() >> (rng.below(32) + 32)).max(1) as u32;
                    // The writer refuses a record ending past the LBA
                    // bound, so LBAs span the bits below it.
                    let lba = (any_nanos(&mut rng) >> 9).min(MAX_END_LBA - u64::from(sectors));
                    let rec = BlockRecord::new(arrival, lba, sectors, op);
                    if rng.below(2) == 0 {
                        return rec;
                    }
                    let (a, b) = (any_nanos(&mut rng), any_nanos(&mut rng));
                    let timing = ServiceTiming::new(
                        SimInstant::from_nanos(a.min(b)),
                        SimInstant::from_nanos(a.max(b)),
                    );
                    rec.with_timing(timing)
                })
                .collect();
            let mut sink = CsvSink::new(Vec::new(), "s");
            for part in records.chunks(chunk) {
                sink.push_chunk(part).unwrap();
            }
            sink.finish().unwrap();
            let mut want =
                b"# trace: s\n# timestamp_us,op,lba,sectors[,issue_us,complete_us]\n".to_vec();
            want.extend(fmt_encode(&records));
            assert!(sink.into_inner() == want, "chunk {chunk}");
        }
        // The digit loop over the whole u64 range, past the LBAs a writer
        // accepts.
        for n in [
            u64::MAX,
            10_000_000_000_000_000_000,
            9_999_999_999_999_999_999,
        ] {
            let mut out = Vec::new();
            push_decimal(&mut out, n);
            assert_eq!(out, n.to_string().as_bytes());
        }
    }

    // ---- decoder vs the `str` reader ----------------------------------------

    /// The `read_line` + `str` reader that [`CsvSource`]'s byte decoder
    /// replaced, kept as its oracle.
    struct StrSource<R> {
        reader: R,
        line: String,
        lineno: usize,
    }

    impl<R> StrSource<R> {
        fn new(reader: R) -> Self {
            StrSource {
                reader,
                line: String::new(),
                lineno: 0,
            }
        }
    }

    impl<R: BufRead + Send> RecordSource for StrSource<R> {
        fn next_chunk(
            &mut self,
            out: &mut Vec<BlockRecord>,
            max: usize,
        ) -> Result<usize, TraceError> {
            let mut appended = 0;
            while appended < max {
                self.line.clear();
                if self.reader.read_line(&mut self.line)? == 0 {
                    break;
                }
                self.lineno += 1;
                let trimmed = self.line.trim();
                if trimmed.is_empty() || trimmed.starts_with('#') {
                    continue;
                }
                out.push(str_parse_line(trimmed, self.lineno)?);
                appended += 1;
            }
            Ok(appended)
        }

        fn source_name(&self) -> &str {
            "csv"
        }
    }

    fn str_parse_line(line: &str, lineno: usize) -> Result<BlockRecord, TraceError> {
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != 4 && fields.len() != 6 {
            return Err(TraceError::parse_at(
                format!("expected 4 or 6 fields, got {}", fields.len()),
                lineno,
            ));
        }

        let arrival = str_parse_usecs(fields[0], "timestamp_us", lineno)?;
        let op = fields[1]
            .parse()
            .map_err(|_| TraceError::parse_at(format!("bad op {:?}", fields[1]), lineno))?;
        let lba: u64 = fields[2]
            .parse()
            .map_err(|_| TraceError::parse_at(format!("bad lba {:?}", fields[2]), lineno))?;
        let sectors: u32 = fields[3]
            .parse()
            .map_err(|_| TraceError::parse_at(format!("bad sectors {:?}", fields[3]), lineno))?;
        if sectors == 0 {
            return Err(TraceError::parse_at("sectors must be non-zero", lineno));
        }
        crate::format::check_end_lba(lba, sectors, lineno)?;

        let mut rec = BlockRecord::new(arrival, lba, sectors, op);
        if fields.len() == 6 {
            let issue = str_parse_usecs(fields[4], "issue_us", lineno)?;
            let complete = str_parse_usecs(fields[5], "complete_us", lineno)?;
            if complete < issue {
                return Err(TraceError::parse_at("completion precedes issue", lineno));
            }
            rec = rec.with_timing(ServiceTiming::new(issue, complete));
        }
        Ok(rec)
    }

    fn str_parse_usecs(field: &str, what: &str, lineno: usize) -> Result<SimInstant, TraceError> {
        let us: f64 = field
            .parse()
            .map_err(|_| TraceError::parse_at(format!("bad {what} {field:?}"), lineno))?;
        if !us.is_finite() || us < 0.0 {
            return Err(TraceError::parse_at(
                format!("{what} must be finite and non-negative"),
                lineno,
            ));
        }
        let ns = (us * 1_000.0).round();
        if ns >= NANOS_LIMIT {
            return Err(TraceError::parse_at(
                format!("{what} out of range: its nanoseconds do not fit in a u64"),
                lineno,
            ));
        }
        Ok(SimInstant::from_nanos(ns as u64))
    }

    /// Every record `source` yields, `chunk` at a time, and its first
    /// error.
    fn drain(source: &mut impl RecordSource, chunk: usize) -> (Vec<BlockRecord>, Option<String>) {
        let mut out = Vec::new();
        loop {
            match source.next_chunk(&mut out, chunk) {
                Ok(0) => return (out, None),
                Ok(_) => {}
                Err(err) => return (out, Some(err.to_string())),
            }
        }
    }

    /// One of `good`, or on a dirty line one of `bad` a third of the time.
    fn pick<'a>(rng: &mut TestRng, dirty: bool, good: &[&'a str], bad: &[&'a str]) -> &'a str {
        let pool = if dirty && rng.below(3) == 0 {
            bad
        } else {
            good
        };
        pool[rng.below(pool.len() as u64) as usize]
    }

    /// `w` with a point before its last `k` digits (zero-padded so both
    /// sides have one), after `zeros` leading zeros.
    fn decimal(w: u64, k: usize, zeros: usize) -> String {
        let digits = format!("{}{w:0>width$}", "0".repeat(zeros), width = k + 1);
        let (int, frac) = digits.split_at(digits.len() - k);
        if k == 0 {
            int.to_string()
        } else {
            format!("{int}.{frac}")
        }
    }

    /// A random `w` below 2^54, log-uniform, or one within 50 of 2^53.
    fn any_mantissa(rng: &mut TestRng) -> u64 {
        if rng.below(4) == 0 {
            (1 << 53) - 50 + rng.below(101)
        } else {
            rng.next_u64() >> (10 + rng.below(54))
        }
    }

    fn any_timestamp(rng: &mut TestRng, dirty: bool) -> String {
        const SPELLED: &[&str] = &[
            "0",
            "1.5",
            "007.250",
            "5.",
            ".5",
            "-0.0",
            "+5",
            "1e3",
            "9007199254740991",
            "9007199254740992",
            "0.0000000000000000000001",
            "1.00000000000000000000001",
            "18446744073709548",
        ];
        const BAD: &[&str] = &[
            ".",
            "inf",
            "NaN",
            "-1",
            "",
            "x",
            "1.2.3",
            "+",
            "18446744073709552",
            "1e300",
        ];
        if rng.below(3) == 0 {
            return pick(rng, dirty, SPELLED, BAD).to_string();
        }
        let w = any_mantissa(rng) >> rng.below(40);
        decimal(w, rng.below(25) as usize, rng.below(3) as usize)
    }

    /// One line of a generated input: a comment or blank line, or a record
    /// in one of many spellings. A third of the records are dirty: they
    /// may hold a bad field, pad, or field count.
    fn any_line(rng: &mut TestRng) -> String {
        const PADS: &[&str] = &[
            "",
            "",
            "",
            " ",
            "\t",
            "\x0b",
            "\x0c",
            "\u{a0}",
            "\u{85}",
            "\u{3000}",
            " \u{a0}\t",
        ];
        const BAD_PADS: &[&str] = &["\u{1c}", "\u{200b}"];
        const OPS: &[&str] = &[
            "R", "r", "read", "Read", "READ", "W", "w", "write", "Write", "WRITE",
        ];
        const BAD_OPS: &[&str] = &["rEaD", "X", "", "RW", "\u{e9}"];
        const LBAS: &[&str] = &["0", "8", "+5", "0007", "36028797018963959"];
        const BAD_LBAS: &[&str] = &[
            "+",
            "-5",
            "++5",
            "36028797018963967",
            "18446744073709551615",
            "12345678901234567890",
            "18446744073709551616",
            "99999999999999999999",
            "1.5",
            "",
        ];
        const SECTORS: &[&str] = &["8", "+8", "1", "4294967295", "00000000000000000000008"];
        const BAD_SECTORS: &[&str] = &["0", "+0", "4294967296", "-8", "+", "8x"];
        const OTHER: &[&str] = &[
            "",
            "   ",
            "# comment",
            "  # indented, comment",
            "\u{a0}",
            "\u{85}",
            "#",
        ];

        if rng.below(8) == 0 {
            return OTHER[rng.below(OTHER.len() as u64) as usize].to_string();
        }
        let dirty = rng.below(3) == 0;
        let mut fields = vec![
            any_timestamp(rng, dirty),
            pick(rng, dirty, OPS, BAD_OPS).to_string(),
            if rng.below(3) == 0 {
                (rng.next_u64() >> (9 + rng.below(55))).to_string()
            } else {
                pick(rng, dirty, LBAS, BAD_LBAS).to_string()
            },
            pick(rng, dirty, SECTORS, BAD_SECTORS).to_string(),
        ];
        if rng.below(2) == 0 {
            let (a, b) = (any_timestamp(rng, dirty), any_timestamp(rng, dirty));
            let inverted = matches!((a.parse::<f64>(), b.parse::<f64>()), (Ok(x), Ok(y)) if y < x);
            fields.extend(if inverted && !dirty { [b, a] } else { [a, b] });
        }
        if dirty {
            match rng.below(4) {
                0 => fields.truncate(rng.below(4) as usize),
                1 => fields.extend((0..1 + rng.below(3)).map(|_| any_timestamp(rng, true))),
                _ => {}
            }
        }
        let bad_pads = dirty && rng.below(3) == 0;
        let mut pad = || pick(rng, bad_pads, PADS, BAD_PADS);
        let padded: Vec<String> = fields
            .iter()
            .map(|f| format!("{}{f}{}", pad(), pad()))
            .collect();
        format!("{}{}{}", pad(), padded.join(","), pad())
    }

    /// A line in the writer's canonical shape — no pads, 4 fields or 6 —
    /// with the writer's values, or at an edge of the one-pass path:
    /// timestamps of 16 and 17 digits, other fraction lengths, and `k = 3`
    /// around 2^51 and 2^53; LBAs of 20 digits. As in [`any_line`], a third
    /// of the lines are dirty: they may hold a value a check rejects, an
    /// op spelling the path declines, inverted timing, or 5 or 7 fields.
    fn any_canonical_line(rng: &mut TestRng) -> String {
        use crate::record::MAX_END_LBA;

        const OPS: &[&str] = &["R", "r", "W", "w"];
        const BAD_OPS: &[&str] = &["read", "X"];
        const SECTORS: &[&str] = &["8", "8", "1", "16", "4294967295"];
        const BAD_SECTORS: &[&str] = &["0", "4294967296", "+8"];
        const BAD_LBAS: &[&str] = &[
            "36028797018963960",
            "99999999999999999999",
            "18446744073709551616",
        ];
        let timestamp = |rng: &mut TestRng| match rng.below(12) {
            0 => {
                let edge: u64 = [1 << 51, 1 << 53][rng.below(2) as usize];
                decimal(edge - 3 + rng.below(7), 3, 0)
            }
            1 => decimal(any_mantissa(rng), rng.below(18) as usize, 0),
            2 => ["9999999999999.999", "99999999999999.999", "0.000"][rng.below(3) as usize]
                .to_string(),
            _ => decimal(rng.next_u64() >> (24 + rng.below(40)), 3, 0),
        };

        let dirty = rng.below(3) == 0;
        let lba = match rng.below(8) {
            0 => (MAX_END_LBA - 8).to_string(),
            1 => "00000000000000000008".to_string(),
            2 => pick(rng, dirty, &["0"], BAD_LBAS).to_string(),
            _ => (rng.next_u64() >> (9 + rng.below(55))).to_string(),
        };
        let mut fields = vec![
            timestamp(rng),
            pick(rng, dirty, OPS, BAD_OPS).to_string(),
            lba,
            pick(rng, dirty, SECTORS, BAD_SECTORS).to_string(),
        ];
        if rng.below(2) == 0 {
            let (a, b) = (timestamp(rng), timestamp(rng));
            let inverted = a.parse::<f64>().unwrap() > b.parse::<f64>().unwrap();
            fields.extend(if inverted && !dirty { [b, a] } else { [a, b] });
        }
        if dirty && rng.below(3) == 0 {
            fields.push(timestamp(rng));
        }
        fields.join(",")
    }

    /// A canonical-shape line half of the time, else any line.
    fn any_mixed_line(rng: &mut TestRng) -> String {
        if rng.below(2) == 0 {
            any_canonical_line(rng)
        } else {
            any_line(rng)
        }
    }

    /// A generated input of up to 12 lines, each ended by LF or CRLF, or now
    /// and then run into the next by a lone CR, and sometimes one more line
    /// with no newline at the end.
    fn any_input(rng: &mut TestRng) -> String {
        input_of(rng, any_line)
    }

    /// An input shaped as [`any_input`] describes, its lines drawn from
    /// `line`.
    fn input_of(rng: &mut TestRng, line: fn(&mut TestRng) -> String) -> String {
        let mut text = String::new();
        for _ in 0..rng.below(13) {
            text.push_str(&line(rng));
            let ends = ["\n", "\n", "\n", "\r\n", "\r\n", "\r\n", "\r"];
            text.push_str(ends[rng.below(7) as usize]);
        }
        if rng.below(4) == 0 {
            text.push_str(&line(rng));
        }
        text
    }

    /// Decodes `text` through `reader()` at chunk sizes 1, 3 and 64, directly
    /// and quarantined, and asserts the records, the first error and the
    /// quarantine log are the `str` oracle's.
    fn assert_decodes_like_str_reader<R: BufRead + Send>(text: &str, reader: impl Fn() -> R) {
        for chunk in [1, 3, 64] {
            let new = drain(&mut CsvSource::new(reader()), chunk);
            let old = drain(&mut StrSource::new(text.as_bytes()), chunk);
            assert_eq!(new, old, "chunk {chunk}: {text:?}");

            let (policy, oracle_policy) = (ErrorPolicy::quarantine(), ErrorPolicy::quarantine());
            let new = drain(
                &mut TolerantSource::new(CsvSource::new(reader()), policy.clone()),
                chunk,
            );
            let old = drain(
                &mut TolerantSource::new(StrSource::new(text.as_bytes()), oracle_policy.clone()),
                chunk,
            );
            assert_eq!(new, old, "quarantined, chunk {chunk}: {text:?}");
            assert_eq!(
                policy.log().unwrap().entries(),
                oracle_policy.log().unwrap().entries(),
                "chunk {chunk}: {text:?}"
            );
        }
    }

    #[test]
    fn decoder_equals_str_reader() {
        let mut rng = TestRng::from_name("decoder_equals_str_reader");
        for _ in 0..3_000 {
            let text = any_input(&mut rng);
            for chunk in [1, 3, 64] {
                let new = drain(&mut CsvSource::new(text.as_bytes()), chunk);
                let old = drain(&mut StrSource::new(text.as_bytes()), chunk);
                assert_eq!(new, old, "chunk {chunk}: {text:?}");

                let (policy, oracle_policy) =
                    (ErrorPolicy::quarantine(), ErrorPolicy::quarantine());
                let new = drain(
                    &mut TolerantSource::new(CsvSource::new(text.as_bytes()), policy.clone()),
                    chunk,
                );
                let old = drain(
                    &mut TolerantSource::new(
                        StrSource::new(text.as_bytes()),
                        oracle_policy.clone(),
                    ),
                    chunk,
                );
                assert_eq!(new, old, "quarantined, chunk {chunk}: {text:?}");
                assert_eq!(
                    policy.log().unwrap().entries(),
                    oracle_policy.log().unwrap().entries(),
                    "chunk {chunk}: {text:?}"
                );
            }
        }
    }

    /// A `BufReader` hands the decoder a few bytes at a time, so lines
    /// straddle its buffer's end: the one-pass path must leave a line it
    /// cannot see whole to the general path. The first 1000 inputs of
    /// `decoder_equals_str_reader` and 1000 inputs half of whose lines have
    /// the canonical shape, each read whole and through buffers of 1–8
    /// bytes and of sizes near a line's length.
    #[test]
    fn decoder_equals_str_reader_across_buffer_ends() {
        let mut same = TestRng::from_name("decoder_equals_str_reader");
        let mut mixed = TestRng::from_name("decoder_equals_str_reader_across_buffer_ends");
        for _ in 0..1_000 {
            for text in [any_input(&mut same), input_of(&mut mixed, any_mixed_line)] {
                assert_decodes_like_str_reader(&text, || text.as_bytes());
                for capacity in (1..=8).chain([40, 57, 64, 100]) {
                    assert_decodes_like_str_reader(&text, || {
                        std::io::BufReader::with_capacity(capacity, text.as_bytes())
                    });
                }
            }
        }
    }

    /// The one-pass path takes the writer's lines and declines, for the
    /// general path to decide, every line a check rejects or that is not
    /// whole in the buffer.
    #[test]
    fn one_pass_path_takes_canonical_lines_only() {
        let taken = [
            ("1.000,R,0,8\n", 12),
            ("1.000,r,0,8\r\n", 13),
            ("12.5,W,7,16,13.25,20\nnext", 21),
            ("0,w,36028797018963959,8\n", 24),
        ];
        for (line, len) in taken {
            assert_eq!(canonical_line(line.as_bytes()).map(|(_, n)| n), Some(len));
        }
        let declined = [
            "1.000,R,0,0\n",
            "1.000,R,0,4294967296\n",
            "1.000,R,36028797018963960,8\n",
            "1.000,R,99999999999999999999,8\n",
            "1.000,R,0,8,5.000,2.000\n",
            "1.000,R,0,8,5.000\n",
            "1.000,R,0,8,1.000,2.000,3.000\n",
            "1.000,R,0,8\r2.000,W,0,8\n",
            "1.000,R,0,8\r\r\n",
            "1.000,R,0,8",
            "1.000,R,0,8\r",
            "1.000,R,0,85",
            "1.000,R,0,+8\n",
            "1.000,read,0,8\n",
            "1.000, R,0,8\n",
            "5.,R,0,8\n",
            "12345678901234567,R,0,8\n",
            "# 1.000,R,0,8\n",
            "\n",
            "",
        ];
        for line in declined {
            assert!(canonical_line(line.as_bytes()).is_none(), "{line:?}");
            let text = format!("{line}\n2.000,W,8,8\n");
            assert_decodes_like_str_reader(&text, || text.as_bytes());
        }
    }

    /// Whether `s` is in the timestamp routine's domain: `digits[.digits]`
    /// with at most 16 digits, which form an integer below 2^53.
    fn in_fast_domain(s: &str) -> bool {
        let (int, frac) = s.split_once('.').unwrap_or((s, ""));
        let digits = |part: &str| part.bytes().all(|b| b.is_ascii_digit());
        let form =
            !int.is_empty() && digits(int) && digits(frac) && frac.is_empty() != s.contains('.');
        form && int.len() + frac.len() <= MAX_USECS_DIGITS
            && format!("{int}{frac}")
                .parse::<u128>()
                .is_ok_and(|w| w < 1 << 53)
    }

    /// The value the timestamp routine must give an `s` of its domain: `w`
    /// nanoseconds for three fraction digits and `w < 2^51`, else what
    /// `str::parse::<f64>` reads.
    fn routine_oracle(s: &str) -> Usecs {
        let (int, frac) = s.split_once('.').unwrap_or((s, ""));
        let w: u64 = format!("{int}{frac}").parse().unwrap();
        if frac.len() == 3 && w < 1 << 51 {
            Usecs::Nanos(w)
        } else {
            Usecs::Micros(s.parse().unwrap())
        }
    }

    #[test]
    fn decoder_fast_path_equals_str_parse() {
        let mut cases: Vec<String> = [
            "0",
            "00",
            "5.",
            ".5",
            ".",
            "",
            "007.250",
            "-0.0",
            "+5",
            "+",
            "1e3",
            "inf",
            "NaN",
            "1.2.3",
            " 1",
            "9007199254740991",
            "9007199254740992",
            "900719925474099.1",
            "900719925474099.2",
            "0.9007199254740991",
            "0.9007199254740992",
            "1234567890123456789",
            "9999999999999999999",
            "12345678901234567890",
            "99999999999999999999",
            "0.0000000000000000000001",
            "0.00000000000000000000001",
            "0.1234567890123456789012",
            "1.0000000000000000000000",
            "00000000000000000000000000001.5",
            "18446744073709551.615",
            "18446744073709552",
        ]
        .map(String::from)
        .to_vec();
        let mut rng = TestRng::from_name("decoder_fast_path_equals_str_parse");
        for _ in 0..100_000 {
            let w = any_mantissa(&mut rng);
            cases.push(decimal(w, rng.below(18) as usize, rng.below(3) as usize));
        }
        let mut fast = 0;
        for s in &cases {
            let want = in_fast_domain(s).then(|| routine_oracle(s));
            assert_eq!(fast_decimal(s.as_bytes()), want, "{s:?}");
            fast += usize::from(want.is_some());
            assert_eq!(
                parse_usecs(s.as_bytes(), "t", 1),
                str_parse_usecs(s, "t", 1),
                "{s:?}"
            );
        }
        assert!(fast > cases.len() / 2, "{fast} of {}", cases.len());

        for s in [
            "",
            "+",
            "+5",
            "-5",
            "++5",
            "+-5",
            "0",
            "007",
            "4294967295",
            "4294967296",
            "18446744073709551615",
            "18446744073709551616",
            "000000000000000000000000042",
        ] {
            assert_eq!(parse_u64(s.as_bytes()), s.parse::<u64>().ok(), "{s:?}");
        }
        for s in [
            "R", "r", "read", "Read", "READ", "W", "w", "write", "Write", "WRITE", "rEaD", "x", "",
        ] {
            assert_eq!(parse_op(s.as_bytes()), s.parse::<OpType>().ok(), "{s:?}");
        }
    }

    /// The `k = 3` shortcut against the float route it skips, over random
    /// `w < 2^51` and every `w` in the 2^16 below the bound; and just past
    /// it, a `w` whose float route lands on `w + 1/2` and rounds up, which
    /// the routine must take the float route for.
    #[test]
    fn nanos_shortcut_equals_the_float_route() {
        let float_route = |w: u64| (w as f64 / 1000.0 * 1000.0).round() as u64;
        let read = |w: u64| fast_decimal(decimal(w, 3, 0).as_bytes());
        let mut rng = TestRng::from_name("nanos_shortcut_equals_the_float_route");
        let random = (0..100_000).map(|_| rng.next_u64() >> (13 + rng.below(51)));
        for w in random.chain((1 << 51) - (1 << 16)..1 << 51) {
            assert_eq!(read(w), Some(Usecs::Nanos(w)), "{w}");
            assert_eq!(float_route(w), w, "{w}");
        }

        let w = 4_417_064_359_065_864;
        assert!(w > 1 << 51);
        assert_eq!(float_route(w), w + 1);
        let value = read(w).unwrap();
        assert!(matches!(value, Usecs::Micros(_)), "{value:?}");
        assert_eq!(value.instant(), Some(SimInstant::from_nanos(w + 1)));
        assert_eq!(
            read(1 << 51),
            Some(Usecs::Micros((1u64 << 51) as f64 / 1e3))
        );
    }

    #[test]
    fn a_line_that_is_not_utf8_is_a_parse_error_at_its_line() {
        let text = b"1.0,R,0,8\n2.0,W,8,8\n3.0,R,\xe9,8\n4.0,W,16,8\n";
        let err = read_csv(&text[..], "x").unwrap_err();
        assert_eq!(err, TraceError::parse_at("line is not valid UTF-8", 3));
    }
}
