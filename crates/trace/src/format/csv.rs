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
//! The reader decodes bytes, too: each line is read into one reused buffer,
//! split into a fixed array of six fields, and parsed by digit loops. It
//! accepts, rejects and reports exactly what the `str` methods it replaced
//! did (`str::trim`, `str::parse`), and two arguments make that so:
//!
//! * The byte trim strips ASCII whitespace, 0x09–0x0D and space, the ASCII
//!   characters `char::is_whitespace` accepts (`<[u8]>::trim_ascii` keeps
//!   0x0B, so it is not the same). Any other whitespace is a non-ASCII
//!   character, so when a non-ASCII byte is left at either end the rest
//!   goes through `str::trim`. A line with a non-ASCII byte is checked to
//!   be UTF-8 first, and is a parse error at its own line if it is not.
//! * A timestamp spelled `digits[.digits]` whose digits form an integer
//!   `w < 2^53`, with `k ≤ 22` of them after the point, is `w as f64 /
//!   10^k` (Clinger's fast path): `w` and `10^k` are exact `f64`s, so the
//!   one division is the correctly rounded value of the decimal, which is
//!   what `str::parse::<f64>` returns. Every other spelling (`+5`, `1e3`,
//!   `.5`, `inf`, 23 fraction digits, ...) goes to `str::parse`.
//!
//! The reader then rounds each timestamp to the nanosecond and rejects one
//! whose nanoseconds do not fit in a `u64` as a parse error naming the
//! field.

use std::io::{BufRead, Write};

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

/// Fraction digits the timestamp fast path takes: 10^22 is the largest
/// power of ten an `f64` holds exactly.
const MAX_FAST_FRACTION: usize = 22;

/// `10^k` for every `k ≤ MAX_FAST_FRACTION`, each exact.
const POW10: [f64; MAX_FAST_FRACTION + 1] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
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
/// materialising the file ([`RecordSource`] impl).
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
    /// The line being decoded, newline included.
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
fn decimal_value<'a>(digits: impl IntoIterator<Item = &'a u8>) -> Option<u64> {
    digits.into_iter().try_fold(0u64, |n, &b| {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        n.checked_mul(10)?.checked_add(u64::from(digit))
    })
}

/// Clinger's fast path: the value of a `digits[.digits]` field whose digits
/// form an integer `w < 2^53` with at most `MAX_FAST_FRACTION` after the
/// point, equal to `str::parse::<f64>` (see the module docs); `None` for
/// any other spelling.
fn fast_decimal(field: &[u8]) -> Option<f64> {
    let (int, frac): (&[u8], &[u8]) = match field.iter().position(|&b| b == b'.') {
        Some(dot) => (&field[..dot], &field[dot + 1..]),
        None => (field, &[]),
    };
    // `.5`, `5.`, `.` and the empty field are not `digits[.digits]`.
    if int.is_empty() || (frac.is_empty() && int.len() < field.len()) {
        return None;
    }
    if frac.len() > MAX_FAST_FRACTION {
        return None;
    }
    let w = decimal_value(int.iter().chain(frac))?;
    if w >= 1 << 53 {
        return None;
    }
    Some(w as f64 / POW10[frac.len()])
}

fn parse_usecs(field: &[u8], what: &str, lineno: usize) -> Result<SimInstant, TraceError> {
    let us = match fast_decimal(field) {
        Some(us) => us,
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
    let ns = ns.round();
    if ns >= NANOS_LIMIT {
        return Err(TraceError::parse_at(
            format!("{what} out of range: its nanoseconds do not fit in a u64"),
            lineno,
        ));
    }
    Ok(SimInstant::from_nanos(ns as u64))
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
        assert_eq!(back.records(), trace.records());
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
        let trace = Trace::from_records(
            TraceMeta::named("a\nb\rc"),
            sample_trace().records().to_vec(),
        );
        let mut buf = Vec::new();
        write_csv(&trace, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("# trace: a b c\n# timestamp_us"), "{text}");
        let back = read_csv(buf.as_slice(), "a\nb\rc").unwrap();
        assert_eq!(back.records(), trace.records());
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
        let mut rng = TestRng::from_name("sink_equals_fmt_encoder");
        for chunk in [1, 7, 500] {
            let records: Vec<BlockRecord> = (0..500)
                .map(|_| {
                    let arrival = SimInstant::from_nanos(any_nanos(&mut rng));
                    let op = OpType::ALL[rng.below(2) as usize];
                    let sectors = (rng.next_u64() >> (rng.below(32) + 32)).max(1) as u32;
                    let rec = BlockRecord::new(arrival, any_nanos(&mut rng), sectors, op);
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

    /// A generated input of up to 12 lines, each ended by LF or CRLF, or now
    /// and then run into the next by a lone CR, and sometimes one more line
    /// with no newline at the end.
    fn any_input(rng: &mut TestRng) -> String {
        let mut text = String::new();
        for _ in 0..rng.below(13) {
            text.push_str(&any_line(rng));
            let ends = ["\n", "\n", "\n", "\r\n", "\r\n", "\r\n", "\r"];
            text.push_str(ends[rng.below(7) as usize]);
        }
        if rng.below(4) == 0 {
            text.push_str(&any_line(rng));
        }
        text
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

    /// Whether `s` is in the fast path's domain: `digits[.digits]` whose
    /// digits form an integer below 2^53, at most 22 of them after the
    /// point.
    fn in_fast_domain(s: &str) -> bool {
        let (int, frac) = s.split_once('.').unwrap_or((s, ""));
        let digits = |part: &str| part.bytes().all(|b| b.is_ascii_digit());
        let form =
            !int.is_empty() && digits(int) && digits(frac) && frac.is_empty() != s.contains('.');
        form && frac.len() <= 22
            && format!("{int}{frac}")
                .parse::<u128>()
                .is_ok_and(|w| w < 1 << 53)
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
            cases.push(decimal(w, rng.below(26) as usize, rng.below(3) as usize));
        }
        let mut fast = 0;
        for s in &cases {
            let want = in_fast_domain(s).then(|| s.parse::<f64>().unwrap().to_bits());
            assert_eq!(fast_decimal(s.as_bytes()).map(f64::to_bits), want, "{s:?}");
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

    #[test]
    fn a_line_that_is_not_utf8_is_a_parse_error_at_its_line() {
        let text = b"1.0,R,0,8\n2.0,W,8,8\n3.0,R,\xe9,8\n4.0,W,16,8\n";
        let err = read_csv(&text[..], "x").unwrap_err();
        assert_eq!(err, TraceError::parse_at("line is not valid UTF-8", 3));
    }
}
