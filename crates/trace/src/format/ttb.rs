//! TTB — the workspace's native **binary columnar** trace format.
//!
//! CSV parsing dominates reload-heavy workflows: every re-analysis of a
//! multi-GB trace pays full text tokenisation again. TTB serialises the
//! columnar [`TraceStore`] layout directly, so loading is a validated bulk
//! read straight into the struct-of-arrays columns — no per-record text
//! parsing, no row materialisation. Convert once
//! (`tt-cli convert trace.csv trace.ttb`), reload many times at memory-copy
//! speed.
//!
//! # Layout
//!
//! All integers are little-endian. A file is a header, column *blocks*,
//! and a mandatory end-of-stream trailer:
//!
//! ```text
//! header:
//!   magic    [u8; 4]  = "TTB1"
//!   version  u16      = 2
//!   reserved u16      = 0
//!   name_len u32, name [u8; name_len]   (UTF-8 trace name)
//! block (repeated):
//!   count      u32    records in this block (> 0)
//!   timing_tag u8     0 = untimed, 1 = all timed, 2 = mixed
//!   pad        0–7 zero bytes aligning `arrivals` to 8 in the file
//!   arrivals   count × u64   (nanoseconds)
//!   lbas       count × u64
//!   sectors    count × u32
//!   ops        count × u8    (0 = read, 1 = write)
//!   timing_tag 1: pad 0–7 zero bytes, then
//!                 issues count × u64, completes count × u64
//!   timing_tag 2: presence bitmap ⌈count/8⌉ bytes (LSB-first), then
//!                 issue u64 + complete u64 per *timed* record, in order
//! trailer:
//!   count = 0  u32    the end-of-stream marker (blocks are never empty)
//!   total      u64    records in the whole file (validated on read)
//! ```
//!
//! Blocks let the streaming endpoints work without `Seek`: [`TtbSink`]
//! writes each pushed chunk as one block, [`TtbSource`] decodes one block
//! at a time, and the whole-trace fast paths ([`write_ttb`] /
//! [`read_ttb`]) move column slices in bulk. Files written with different
//! chunk sizes differ in block boundaries but decode to identical traces —
//! round-trip identity is at the record level (property-tested:
//! `CSV → TTB → CSV` is byte-identical at any chunk size).
//!
//! The pads are computed from the absolute file offset, so reader and
//! writer always agree, and they start every machine-word column on its
//! natural boundary: that is what lets [`MmapTrace`] lend a mapped file's
//! columns as typed slices ([`Columns`]). Version 1 files, which had no
//! pads, are no longer read: every reader rejects them with one message
//! asking for the file to be re-created from its source trace with
//! `tt-cli convert`.
//!
//! # One walker behind every reader
//!
//! [`read_ttb`], [`TtbSource`] and [`MmapTrace`] walk a file's blocks
//! through one walker, which owns the layout, the pads, every validation
//! and every error message; the readers differ only in where the bytes
//! live. `read_ttb` and `TtbSource` pull each block from a [`Read`] into a
//! buffer that grows only as bytes arrive, so a corrupt count cannot drive
//! a large allocation. `MmapTrace` walks the mapping itself, serves a
//! single-block, arrival-sorted file's columns where they lie, and copies
//! any other file out of the ranges the walk validated.
//!
//! Corrupt input is rejected, never decoded into garbage records, by every
//! reader with the same message: the magic, version, and reserved bytes
//! are checked, truncation anywhere — including a cut landing exactly on a
//! block boundary, which the trailer's record count catches — yields a
//! "truncated TTB file" parse error naming the missing section, trailing
//! bytes after the trailer are rejected, and decoded values are validated
//! (op bytes, non-zero sectors, records ending at or below
//! [`MAX_END_LBA`], timing ordering, plausible block sizes, zero pads)
//! before any record is built.

use std::io::{Read, Write};
use std::ops::Range;
use std::path::Path;

use crate::error::TraceError;
use crate::mmap::{as_u32s, as_u64s};
use crate::op::OpType;
use crate::record::{BlockRecord, ServiceTiming, MAX_END_LBA};
use crate::sink::RecordSink;
use crate::source::RecordSource;
use crate::store::{normalise_timing, Columns, TraceStore};
use crate::time::SimInstant;
use crate::trace::{Trace, TraceMeta};

/// The four magic bytes opening every TTB file (a brand, not a version —
/// the version lives in the header field that follows).
pub const MAGIC: [u8; 4] = *b"TTB1";

/// The format version this build writes and reads.
pub const VERSION: u16 = 2;

/// Records per block written by the whole-trace fast path
/// ([`write_ttb`]); bounds the scratch memory of block-at-a-time readers.
pub const WRITE_BLOCK: usize = 1 << 20;

/// Upper bound accepted for a block's record count — far above any block
/// this crate writes; counts beyond it mean a corrupt or hostile file and
/// are rejected before any allocation.
const MAX_BLOCK_RECORDS: u32 = 1 << 27;

/// Upper bound accepted for the header's name length.
const MAX_NAME_BYTES: u32 = 1 << 12;

/// Bytes a [`ReadInput`] reserves ahead of a read.
const RESERVE_AHEAD: usize = 1 << 20;

const TIMING_NONE: u8 = 0;
const TIMING_ALL: u8 = 1;
const TIMING_MIXED: u8 = 2;

/// Serialises `trace` to TTB, moving the columnar store out in bulk — no
/// row is ever assembled. Blocks hold up to [`WRITE_BLOCK`] records.
///
/// # Errors
///
/// Returns [`TraceError::Io`] when the writer fails.
///
/// # Examples
///
/// ```
/// use tt_trace::{format::ttb, BlockRecord, OpType, Trace, TraceMeta, time::SimInstant};
///
/// let trace = Trace::from_records(
///     TraceMeta::named("demo"),
///     vec![BlockRecord::new(SimInstant::from_usecs(3), 0, 8, OpType::Read)],
/// );
/// let mut buf = Vec::new();
/// ttb::write_ttb(&trace, &mut buf)?;
/// let back = ttb::read_ttb(buf.as_slice(), "demo")?;
/// assert_eq!(back.columns(), trace.columns());
/// assert_eq!(back.meta().source, "ttb");
/// # Ok::<(), tt_trace::TraceError>(())
/// ```
pub fn write_ttb<W: Write>(trace: &Trace, mut w: W) -> Result<(), TraceError> {
    let mut pos = write_header(&mut w, &trace.meta().name)?;
    let cols = trace.view();
    let mut start = 0;
    while start < cols.len() {
        let end = cols.len().min(start + WRITE_BLOCK);
        pos += write_block(&mut w, pos, start, cols.slice(start..end))?;
        start = end;
    }
    write_trailer(&mut w, cols.len() as u64)?;
    w.flush()?;
    Ok(())
}

/// Parses a TTB trace from `r` one block at a time, bulk-decoding each
/// block's columns into the store. `name` is recorded in the trace
/// metadata (the file's embedded name is provenance only, matching the CSV
/// reader's contract).
///
/// # Errors
///
/// Returns [`TraceError::Format`] on a bad magic, a version other than
/// [`VERSION`], or non-zero reserved bytes, [`TraceError::Parse`] on
/// truncation or corrupt block contents, and [`TraceError::Io`] on read
/// failure.
pub fn read_ttb<R: Read>(r: R, name: &str) -> Result<Trace, TraceError> {
    let mut walker = Walker::new(ReadInput::new(r));
    let mut columns = OwnedColumns::default();
    while let Some(block) = walker.next_block()? {
        columns.append(&block, walker.input.bytes());
    }
    Ok(Trace::from_store(
        TraceMeta::named(name).with_source("ttb"),
        columns.into_store()?,
    ))
}

impl Trace {
    /// Serialises the trace to TTB — the columnar fast path; see
    /// [`write_ttb`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the writer fails.
    pub fn write_ttb<W: Write>(&self, w: W) -> Result<(), TraceError> {
        write_ttb(self, w)
    }

    /// Parses a TTB trace — the columnar fast path; see [`read_ttb`].
    ///
    /// # Errors
    ///
    /// Propagates [`read_ttb`]'s errors.
    pub fn read_ttb<R: Read>(r: R, name: &str) -> Result<Trace, TraceError> {
        read_ttb(r, name)
    }
}

/// Writes the file header, returning its length in bytes (the position
/// the first block starts at — block pads are computed from it).
fn write_header<W: Write>(w: &mut W, name: &str) -> Result<u64, TraceError> {
    // Over-long names are truncated on a char boundary — cutting a
    // multi-byte character in half would write a file the reader then
    // rejects as non-UTF-8.
    let mut cut = name.len().min(MAX_NAME_BYTES as usize);
    while !name.is_char_boundary(cut) {
        cut -= 1;
    }
    let name_bytes = &name.as_bytes()[..cut];
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&0u16.to_le_bytes())?;
    w.write_all(&(name_bytes.len() as u32).to_le_bytes())?;
    w.write_all(name_bytes)?;
    Ok(12 + name_bytes.len() as u64)
}

/// Copies (up to) `N` bytes into a fixed array for a `from_le_bytes`
/// decode — the panic-free replacement for `try_into().expect(..)` on
/// slices that `chunks_exact`/`take` already sized. A short slice (which
/// those callers rule out) zero-extends instead of aborting.
fn le_bytes<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    for (o, b) in out.iter_mut().zip(bytes) {
        *o = *b;
    }
    out
}

/// Zero bytes needed to advance `pos` to the next 8-byte boundary.
fn pad8(pos: u64) -> usize {
    ((8 - pos % 8) % 8) as usize
}

/// Writes the rows of `cols`, which start at position `first` of the
/// stream, as one block. `pos` is the block's absolute file offset — the
/// v2 alignment pads are a pure function of it, so readers recompute them
/// exactly. The block goes out in one write from a buffer sized for it up
/// front, after every row passed the LBA bound. Returns the bytes written.
///
/// # Errors
///
/// Returns [`TraceError::InvalidRecord`] for a row that ends past
/// [`MAX_END_LBA`] (nothing of the block is written), and
/// [`TraceError::Io`] when the writer fails.
fn write_block<W: Write>(
    w: &mut W,
    pos: u64,
    first: usize,
    cols: Columns<'_>,
) -> Result<u64, TraceError> {
    for (i, (&lba, &sectors)) in cols.lbas().iter().zip(cols.sectors()).enumerate() {
        super::check_writable(first + i, lba, sectors)?;
    }
    let n = cols.len();
    debug_assert!(n > 0 && n <= MAX_BLOCK_RECORDS as usize);
    let timed = cols.timed_count();
    let tag = match timed {
        0 => TIMING_NONE,
        t if t == n => TIMING_ALL,
        _ => TIMING_MIXED,
    };
    // The count and tag, then the pad that 8-aligns the arrival column in
    // the file; the arrivals..ops section is 21 bytes a record.
    let head = 4 + 1 + pad8(pos + 4 + 1);
    let timing_len = match tag {
        TIMING_ALL => pad8((head + 21 * n) as u64 + pos) + 16 * n,
        TIMING_MIXED => n.div_ceil(8) + 16 * timed,
        _ => 0,
    };
    let size = head + 21 * n + timing_len;
    let mut buf = Vec::with_capacity(size);
    buf.extend_from_slice(&(n as u32).to_le_bytes());
    buf.push(tag);
    buf.resize(head, 0);
    let nanos = |buf: &mut Vec<u8>, column: &[SimInstant]| {
        for t in column {
            buf.extend_from_slice(&t.as_nanos().to_le_bytes());
        }
    };
    nanos(&mut buf, cols.arrivals());
    for l in cols.lbas() {
        buf.extend_from_slice(&l.to_le_bytes());
    }
    for s in cols.sectors() {
        buf.extend_from_slice(&s.to_le_bytes());
    }
    buf.extend(cols.ops().iter().map(|op| u8::from(op.is_write())));
    match tag {
        TIMING_ALL => {
            // Re-align for the issue/complete u64 columns.
            buf.resize(buf.len() + pad8(pos + buf.len() as u64), 0);
            nanos(&mut buf, cols.issues());
            nanos(&mut buf, cols.completes());
        }
        TIMING_MIXED => {
            let present = cols.present();
            let mut bitmap = vec![0u8; n.div_ceil(8)];
            for (i, _) in present.iter().enumerate().filter(|&(_, &p)| p) {
                bitmap[i / 8] |= 1 << (i % 8);
            }
            buf.extend_from_slice(&bitmap);
            let pairs = cols.issues().iter().zip(cols.completes()).zip(present);
            for ((issue, complete), _) in pairs.filter(|&(_, &p)| p) {
                buf.extend_from_slice(&issue.as_nanos().to_le_bytes());
                buf.extend_from_slice(&complete.as_nanos().to_le_bytes());
            }
        }
        _ => {}
    }
    debug_assert_eq!(buf.len(), size);
    w.write_all(&buf)?;
    Ok(buf.len() as u64)
}

/// The end-of-stream trailer: a zero block count (blocks are never empty)
/// followed by the file's total record count.
fn write_trailer<W: Write>(w: &mut W, total: u64) -> Result<(), TraceError> {
    w.write_all(&0u32.to_le_bytes())?;
    w.write_all(&total.to_le_bytes())?;
    Ok(())
}

/// Where the [`Walker`] finds a file's bytes: the whole file in memory
/// ([`SliceInput`]) or a reader buffered one block at a time
/// ([`ReadInput`]).
trait ByteInput {
    /// Makes the next `n` bytes available and returns where they lie in
    /// [`ByteInput::bytes`], or `None` when the input ends first.
    fn take(&mut self, n: usize) -> Result<Option<Range<usize>>, TraceError>;

    /// The bytes the ranges [`ByteInput::take`] returns index.
    fn bytes(&self) -> &[u8];

    /// Absolute file offset of the next byte — the pads depend on it.
    fn pos(&self) -> u64;

    /// Called before each block: a buffering input drops the previous
    /// block's bytes.
    fn start_block(&mut self) {}

    /// `true` when no byte follows.
    fn at_end(&mut self) -> Result<bool, TraceError>;
}

/// A whole file already in memory (a mapping). Ranges index the file
/// itself, so they stay valid after the walk.
struct SliceInput<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl ByteInput for SliceInput<'_> {
    fn take(&mut self, n: usize) -> Result<Option<Range<usize>>, TraceError> {
        if self.bytes.len() - self.pos < n {
            return Ok(None);
        }
        self.pos += n;
        Ok(Some(self.pos - n..self.pos))
    }

    fn bytes(&self) -> &[u8] {
        self.bytes
    }

    fn pos(&self) -> u64 {
        self.pos as u64
    }

    fn at_end(&mut self) -> Result<bool, TraceError> {
        Ok(self.pos == self.bytes.len())
    }
}

/// A reader, buffered one block at a time. The buffer reserves at most
/// [`RESERVE_AHEAD`] bytes before they arrive and otherwise grows only as
/// they do (`read_to_end` over a `take`), so a count advertising gigabytes
/// the file does not hold fails as truncation without reserving them.
#[derive(Debug)]
struct ReadInput<R> {
    reader: R,
    block: Vec<u8>,
    pos: u64,
}

impl<R: Read> ReadInput<R> {
    fn new(reader: R) -> Self {
        ReadInput {
            reader,
            block: Vec::new(),
            pos: 0,
        }
    }
}

impl<R: Read> ByteInput for ReadInput<R> {
    fn take(&mut self, n: usize) -> Result<Option<Range<usize>>, TraceError> {
        let start = self.block.len();
        // Exact reservations keep the per-block buffer from doubling its
        // way up (and fragmenting the heap) on small blocks.
        self.block.reserve_exact(n.min(RESERVE_AHEAD));
        let got = Read::take(&mut self.reader, n as u64)
            .read_to_end(&mut self.block)
            .map_err(|e| TraceError::Io(e.to_string()))?;
        self.pos += got as u64;
        Ok((got == n).then_some(start..start + n))
    }

    fn bytes(&self) -> &[u8] {
        &self.block
    }

    fn pos(&self) -> u64 {
        self.pos
    }

    fn start_block(&mut self) {
        self.block.clear();
    }

    fn at_end(&mut self) -> Result<bool, TraceError> {
        let mut probe = [0u8; 1];
        match self.reader.read(&mut probe) {
            Ok(n) => Ok(n == 0),
            Err(e) => Err(TraceError::Io(e.to_string())),
        }
    }
}

/// The one TTB block walker behind [`read_ttb`], [`TtbSource`] and
/// [`MmapTrace`]. It owns the layout, the alignment pads, every
/// validation and every error message, so a file is accepted or rejected
/// identically whichever reader meets it.
#[derive(Debug)]
struct Walker<B> {
    input: B,
    /// Records in the blocks walked so far, checked against the trailer.
    records: u64,
    header_read: bool,
    /// Set once the trailer checked out.
    finished: bool,
}

impl<B: ByteInput> Walker<B> {
    fn new(input: B) -> Self {
        Walker {
            input,
            records: 0,
            header_read: false,
            finished: false,
        }
    }

    /// The next `n` bytes, or the truncation error naming `what`.
    fn take(&mut self, n: usize, what: &str) -> Result<Range<usize>, TraceError> {
        self.input.take(n)?.ok_or_else(|| {
            TraceError::parse(format!(
                "truncated TTB file: unexpected end of data while reading {what}"
            ))
        })
    }

    /// The next `N` bytes as an array, for a `from_le_bytes` decode.
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], TraceError> {
        let range = self.take(N, what)?;
        Ok(le_bytes(&self.input.bytes()[range]))
    }

    /// Consumes the alignment pad at the current offset, rejecting
    /// non-zero pad bytes (they can only mean corruption).
    fn pad(&mut self) -> Result<(), TraceError> {
        let range = self.take(pad8(self.input.pos()), "an alignment pad")?;
        if self.input.bytes()[range].iter().any(|&b| b != 0) {
            return Err(TraceError::parse(
                "corrupt TTB block: non-zero alignment padding",
            ));
        }
        Ok(())
    }

    /// Validates the header: magic, version, reserved bytes and name.
    fn header(&mut self) -> Result<(), TraceError> {
        let magic: [u8; 4] = self.array("the magic bytes")?;
        if magic != MAGIC {
            return Err(TraceError::format(format!(
                "not a TTB file: magic bytes {magic:?} (expected {MAGIC:?})"
            )));
        }
        let version = u16::from_le_bytes(self.array("the version")?);
        if version == 1 {
            return Err(TraceError::format(
                "TTB version 1 is no longer read; re-create this .ttb from its source \
                 trace with `tt-cli convert SOURCE OUT.ttb`",
            ));
        }
        if version != VERSION {
            return Err(TraceError::format(format!(
                "unsupported TTB version {version} (this build reads version {VERSION}); \
                 re-convert the trace or upgrade"
            )));
        }
        if u16::from_le_bytes(self.array("the reserved bytes")?) != 0 {
            return Err(TraceError::format(
                "corrupt TTB header: reserved bytes are not zero",
            ));
        }
        let name_len = u32::from_le_bytes(self.array("the name length")?);
        if name_len > MAX_NAME_BYTES {
            return Err(TraceError::format(format!(
                "corrupt TTB header: implausible name length {name_len}"
            )));
        }
        let name = self.take(name_len as usize, "the trace name")?;
        if std::str::from_utf8(&self.input.bytes()[name]).is_err() {
            return Err(TraceError::format(
                "corrupt TTB header: trace name is not UTF-8",
            ));
        }
        Ok(())
    }

    /// Walks and validates the next block, reading the header first on
    /// the first call. Returns where the block's columns lie in the
    /// input's bytes, or `None` once the trailer checked out (and on every
    /// later call).
    fn next_block(&mut self) -> Result<Option<Block>, TraceError> {
        if self.finished {
            return Ok(None);
        }
        if !self.header_read {
            self.header()?;
            self.header_read = true;
        }
        self.input.start_block();
        let n =
            u32::from_le_bytes(self.array("a block record count (or the end-of-stream trailer)")?);
        if n == 0 {
            let total = u64::from_le_bytes(self.array("the end-of-stream trailer")?);
            if total != self.records {
                return Err(TraceError::parse(format!(
                    "truncated TTB file: trailer records {total} records but {} were decoded",
                    self.records
                )));
            }
            if !self.input.at_end()? {
                return Err(TraceError::parse(
                    "corrupt TTB stream: trailing data after the end-of-stream trailer",
                ));
            }
            self.finished = true;
            return Ok(None);
        }
        if n > MAX_BLOCK_RECORDS {
            return Err(TraceError::parse(format!(
                "corrupt TTB block: implausible record count {n}"
            )));
        }
        let n = n as usize;
        let [tag] = self.array("a block timing tag")?;
        if tag > TIMING_MIXED {
            return Err(TraceError::parse(format!(
                "corrupt TTB block: unknown timing tag {tag}"
            )));
        }
        self.pad()?;
        let arrivals = self.take(n * 8, "the arrival column")?;
        let lbas = self.take(n * 8, "the LBA column")?;
        let sectors = self.take(n * 4, "the sector column")?;
        if let Some(bad) = self.input.bytes()[sectors.clone()]
            .chunks_exact(4)
            .position(|c| c == [0; 4])
        {
            return Err(TraceError::parse(format!(
                "corrupt TTB block: zero-sector record at block offset {bad}"
            )));
        }
        let bytes = self.input.bytes();
        if let Some(bad) = u64s(&bytes[lbas.clone()])
            .zip(bytes[sectors.clone()].chunks_exact(4))
            .position(|(lba, s)| !BlockRecord::ends_in_range(lba, u32::from_le_bytes(le_bytes(s))))
        {
            return Err(TraceError::parse(format!(
                "corrupt TTB block: record at block offset {bad} ends past sector {MAX_END_LBA}"
            )));
        }
        let ops = self.take(n, "the op column")?;
        let op_bytes = &self.input.bytes()[ops.clone()];
        if let Some(bad) = op_bytes.iter().position(|&b| b > 1) {
            return Err(TraceError::parse(format!(
                "corrupt TTB block: unknown op byte {} at block offset {bad}",
                op_bytes[bad]
            )));
        }
        let (timing, inverted) = match tag {
            TIMING_ALL => {
                self.pad()?;
                let issues = self.take(n * 8, "the issue column")?;
                let completes = self.take(n * 8, "the completion column")?;
                let bytes = self.input.bytes();
                let inverted = u64s(&bytes[issues.clone()])
                    .zip(u64s(&bytes[completes.clone()]))
                    .position(|(issue, complete)| complete < issue);
                (Timing::All { issues, completes }, inverted)
            }
            TIMING_MIXED => {
                let bitmap = self.take(n.div_ceil(8), "the timing bitmap")?;
                let timed = (0..n)
                    .filter(|&i| timed_bit(&self.input.bytes()[bitmap.clone()], i))
                    .count();
                let pairs = self.take(timed * 16, "a timing pair")?;
                let bytes = self.input.bytes();
                let bits = &bytes[bitmap.clone()];
                let inverted = (0..n)
                    .filter(|&i| timed_bit(bits, i))
                    .zip(bytes[pairs.clone()].chunks_exact(16).map(pair))
                    .find_map(|(i, (issue, complete))| (complete < issue).then_some(i));
                (Timing::Mixed { bitmap, pairs }, inverted)
            }
            _ => (Timing::None, None),
        };
        if let Some(i) = inverted {
            return Err(TraceError::parse(format!(
                "corrupt TTB block: completion precedes issue at block offset {i}"
            )));
        }
        self.records += n as u64;
        Ok(Some(Block {
            len: n,
            arrivals,
            lbas,
            sectors,
            ops,
            timing,
        }))
    }
}

/// One validated block: where each column lies in the walker input's
/// bytes. The default is the block of an empty file: no records, no
/// bytes.
#[derive(Debug, Clone, Default)]
struct Block {
    len: usize,
    arrivals: Range<usize>,
    lbas: Range<usize>,
    sectors: Range<usize>,
    ops: Range<usize>,
    timing: Timing,
}

/// Where a block's timing section lies.
#[derive(Debug, Clone, Default)]
enum Timing {
    /// No record is timed.
    #[default]
    None,
    /// Every record is timed: split issue and completion columns.
    All {
        issues: Range<usize>,
        completes: Range<usize>,
    },
    /// A presence bitmap, then one issue/complete pair per timed record.
    Mixed {
        bitmap: Range<usize>,
        pairs: Range<usize>,
    },
}

impl Block {
    /// Assembles record `i` straight from the block's bytes. `pair_at`
    /// counts the timing pairs of a mixed block consumed so far, which is
    /// why records must be assembled in order.
    fn record(&self, bytes: &[u8], i: usize, pair_at: &mut usize) -> BlockRecord {
        let u64_at = |column: &Range<usize>, i: usize| {
            u64::from_le_bytes(le_bytes(&bytes[column.start + 8 * i..]))
        };
        let timing = match &self.timing {
            Timing::None => None,
            Timing::All { issues, completes } => {
                Some(timing(u64_at(issues, i), u64_at(completes, i)))
            }
            Timing::Mixed { bitmap, pairs } => timed_bit(&bytes[bitmap.clone()], i).then(|| {
                let (issue, complete) = pair(&bytes[pairs.start + 16 * *pair_at..]);
                *pair_at += 1;
                timing(issue, complete)
            }),
        };
        BlockRecord {
            arrival: SimInstant::from_nanos(u64_at(&self.arrivals, i)),
            lba: u64_at(&self.lbas, i),
            sectors: u32::from_le_bytes(le_bytes(&bytes[self.sectors.start + 4 * i..])),
            op: op(bytes[self.ops.start + i]),
            timing,
        }
    }
}

/// Columns decoded out of walked blocks: [`read_ttb`]'s whole file, or
/// the copy [`MmapTrace`] makes of a file it cannot serve in place.
#[derive(Debug, Default)]
struct OwnedColumns {
    arrivals: Vec<SimInstant>,
    lbas: Vec<u64>,
    sectors: Vec<u32>,
    ops: Vec<OpType>,
    timing: OwnedTiming,
}

impl OwnedColumns {
    /// Room for `blocks`' records in every column they need.
    fn with_capacity(blocks: &[Block]) -> Self {
        let records = blocks.iter().map(|b| b.len).sum();
        OwnedColumns {
            arrivals: Vec::with_capacity(records),
            lbas: Vec::with_capacity(records),
            sectors: Vec::with_capacity(records),
            ops: Vec::with_capacity(records),
            timing: OwnedTiming::with_capacity(blocks, records),
        }
    }

    /// Appends a block the walker validated; `bytes` is what its ranges
    /// index.
    fn append(&mut self, block: &Block, bytes: &[u8]) {
        self.timing.append(self.arrivals.len(), block, bytes);
        self.arrivals
            .extend(u64s(&bytes[block.arrivals.clone()]).map(SimInstant::from_nanos));
        self.lbas.extend(u64s(&bytes[block.lbas.clone()]));
        self.sectors.extend(
            bytes[block.sectors.clone()]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(le_bytes(c))),
        );
        self.ops
            .extend(bytes[block.ops.clone()].iter().map(|&b| op(b)));
    }

    fn into_store(self) -> Result<TraceStore, TraceError> {
        let OwnedTiming {
            issues,
            completes,
            present,
        } = self.timing;
        TraceStore::from_parts(
            self.arrivals,
            self.lbas,
            self.sectors,
            self.ops,
            issues,
            completes,
            present,
        )
        .map_err(|e| TraceError::parse(format!("corrupt TTB file: {e}")))
    }
}

/// Timing columns decoded out of walked blocks, laid out as in a
/// [`TraceStore`]: issue and completion columns, empty until the first
/// timed block, and a presence column once timed and untimed records mix.
#[derive(Debug, Default)]
struct OwnedTiming {
    issues: Vec<SimInstant>,
    completes: Vec<SimInstant>,
    present: Vec<bool>,
}

impl OwnedTiming {
    /// Room for the timing of `blocks`, `records` records in all.
    fn with_capacity(blocks: &[Block], records: usize) -> Self {
        let has = |f: fn(&Timing) -> bool| blocks.iter().any(|b| f(&b.timing));
        let timed = has(|t| !matches!(t, Timing::None));
        let mixed = has(|t| matches!(t, Timing::Mixed { .. }))
            || (timed && has(|t| matches!(t, Timing::None)));
        let reserve = |wanted: bool| if wanted { records } else { 0 };
        OwnedTiming {
            issues: Vec::with_capacity(reserve(timed)),
            completes: Vec::with_capacity(reserve(timed)),
            present: Vec::with_capacity(reserve(mixed)),
        }
    }

    /// Appends the timing of `block`, whose records follow `before`
    /// decoded ones; `bytes` is what the block's ranges index.
    fn append(&mut self, before: usize, block: &Block, bytes: &[u8]) {
        let after = before + block.len;
        let timed_so_far = !self.issues.is_empty();
        if !timed_so_far {
            if matches!(block.timing, Timing::None) {
                return;
            }
            // The first timed block: the records before it are untimed.
            self.untimed(before);
            if before > 0 {
                self.present.resize(before, false);
            }
        } else if self.present.is_empty() && !matches!(block.timing, Timing::All { .. }) {
            // Untimed records after timed ones: the columns turn mixed.
            self.present.resize(before, true);
        }
        match &block.timing {
            Timing::None => {
                self.untimed(after);
                self.present.resize(after, false);
            }
            Timing::All { issues, completes } => {
                self.issues
                    .extend(u64s(&bytes[issues.clone()]).map(SimInstant::from_nanos));
                self.completes
                    .extend(u64s(&bytes[completes.clone()]).map(SimInstant::from_nanos));
                if !self.present.is_empty() {
                    self.present.resize(after, true);
                }
            }
            Timing::Mixed { bitmap, pairs } => {
                let bits = &bytes[bitmap.clone()];
                let mut pairs = bytes[pairs.clone()].chunks_exact(16).map(pair);
                for i in 0..block.len {
                    let timed = timed_bit(bits, i);
                    let (issue, complete) = if timed {
                        pairs.next().unwrap_or_default()
                    } else {
                        (0, 0)
                    };
                    self.issues.push(SimInstant::from_nanos(issue));
                    self.completes.push(SimInstant::from_nanos(complete));
                    self.present.push(timed);
                }
            }
        }
    }

    /// Pads the issue and completion columns to `rows` with untimed rows.
    fn untimed(&mut self, rows: usize) {
        self.issues.resize(rows, SimInstant::ZERO);
        self.completes.resize(rows, SimInstant::ZERO);
    }
}

/// Decodes a byte slice (length a multiple of 8) as little-endian u64s.
fn u64s(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(le_bytes::<8>(c)))
}

/// A 16-byte issue/complete pair of a mixed block.
fn pair(bytes: &[u8]) -> (u64, u64) {
    (
        u64::from_le_bytes(le_bytes(&bytes[..8])),
        u64::from_le_bytes(le_bytes(&bytes[8..])),
    )
}

/// Bit `i` of an LSB-first presence bitmap.
fn timed_bit(bitmap: &[u8], i: usize) -> bool {
    bitmap[i / 8] & (1 << (i % 8)) != 0
}

/// A timing pair the walker checked is ordered ([`ServiceTiming::new`]
/// would panic on inverted input, which corrupt files must not reach).
fn timing(issue: u64, complete: u64) -> ServiceTiming {
    ServiceTiming {
        issue: SimInstant::from_nanos(issue),
        complete: SimInstant::from_nanos(complete),
    }
}

/// An op byte the walker checked is 0 or 1.
fn op(byte: u8) -> OpType {
    if byte == 0 {
        OpType::Read
    } else {
        OpType::Write
    }
}

/// Streaming TTB reader: walks one block at a time and yields its records
/// chunk by chunk ([`RecordSource`] impl), holding one block's bytes and
/// assembling rows straight out of them — the adapter that lets TTB flow
/// through every record-at-a-time consumer (`pump`, replay, the
/// `Pipeline` stages).
///
/// Whole-trace loads should prefer [`read_ttb`], which decodes the columns
/// in bulk and never assembles rows.
///
/// # Examples
///
/// ```
/// use tt_trace::format::ttb::{self, TtbSource};
/// use tt_trace::source::RecordSource;
/// use tt_trace::{BlockRecord, OpType, Trace, TraceMeta, time::SimInstant};
///
/// let trace = Trace::from_records(
///     TraceMeta::named("demo"),
///     vec![BlockRecord::new(SimInstant::from_usecs(1), 0, 8, OpType::Read)],
/// );
/// let mut buf = Vec::new();
/// ttb::write_ttb(&trace, &mut buf)?;
///
/// let mut source = TtbSource::new(buf.as_slice());
/// let mut out = Vec::new();
/// assert_eq!(source.next_chunk(&mut out, 16)?, 1);
/// assert_eq!(source.next_chunk(&mut out, 16)?, 0);
/// # Ok::<(), tt_trace::TraceError>(())
/// ```
#[derive(Debug)]
pub struct TtbSource<R> {
    walker: Walker<ReadInput<R>>,
    /// The current block, the next record to assemble out of it, and the
    /// timing pairs of a mixed block consumed so far.
    block: Option<Block>,
    next: usize,
    pair_at: usize,
}

impl<R: Read> TtbSource<R> {
    /// Wraps a reader positioned at the start of a TTB file.
    pub fn new(reader: R) -> Self {
        TtbSource {
            walker: Walker::new(ReadInput::new(reader)),
            block: None,
            next: 0,
            pair_at: 0,
        }
    }
}

impl<R: Read + Send> RecordSource for TtbSource<R> {
    fn next_chunk(&mut self, out: &mut Vec<BlockRecord>, max: usize) -> Result<usize, TraceError> {
        let mut appended = 0;
        while appended < max {
            if self.block.as_ref().is_none_or(|b| self.next == b.len) {
                self.block = self.walker.next_block()?;
                self.next = 0;
                self.pair_at = 0;
            }
            let Some(block) = &self.block else {
                break;
            };
            let take = (block.len - self.next).min(max - appended);
            let bytes = self.walker.input.bytes();
            out.reserve(take);
            for i in self.next..self.next + take {
                out.push(block.record(bytes, i, &mut self.pair_at));
            }
            self.next += take;
            appended += take;
        }
        Ok(appended)
    }

    fn source_name(&self) -> &str {
        "ttb"
    }
}

/// Streaming TTB writer: each pushed chunk becomes one column block
/// ([`RecordSink`] impl). Chunk size therefore shapes block boundaries —
/// files written at different chunk sizes differ in bytes but decode to
/// identical traces. [`write_ttb`] is byte-identical to draining through
/// this sink at [`WRITE_BLOCK`] records per chunk (property-tested).
///
/// # Examples
///
/// ```
/// use tt_trace::format::ttb::{self, TtbSink};
/// use tt_trace::sink::RecordSink;
/// use tt_trace::{BlockRecord, OpType, time::SimInstant};
///
/// let mut buf = Vec::new();
/// let mut sink = TtbSink::new(&mut buf, "demo");
/// sink.push_chunk(&[BlockRecord::new(SimInstant::from_usecs(3), 0, 8, OpType::Read)])?;
/// sink.finish()?;
/// assert_eq!(ttb::read_ttb(buf.as_slice(), "demo")?.len(), 1);
/// # Ok::<(), tt_trace::TraceError>(())
/// ```
#[derive(Debug)]
pub struct TtbSink<W> {
    writer: W,
    name: String,
    header_written: bool,
    /// Records written so far — recorded in the end-of-stream trailer.
    written: u64,
    /// Absolute file position — block alignment pads depend on it.
    pos: u64,
    /// Reused column scratch, so steady-state pushes do not allocate.
    block: TraceStore,
}

impl<W: Write> TtbSink<W> {
    /// Creates a sink writing to `writer`; `name` goes into the header
    /// (the trace name [`write_ttb`] records).
    pub fn new(writer: W, name: impl Into<String>) -> Self {
        TtbSink {
            writer,
            name: name.into(),
            header_written: false,
            written: 0,
            pos: 0,
            block: TraceStore::new(),
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }

    fn ensure_header(&mut self) -> Result<(), TraceError> {
        if !self.header_written {
            self.pos = write_header(&mut self.writer, &self.name)?;
            self.header_written = true;
        }
        Ok(())
    }
}

impl<W: Write> RecordSink for TtbSink<W> {
    fn push_chunk(&mut self, records: &[BlockRecord]) -> Result<(), TraceError> {
        self.ensure_header()?;
        // Oversized pushes are split so no block exceeds what readers (and
        // MAX_BLOCK_RECORDS validation) expect to buffer.
        for piece in records.chunks(WRITE_BLOCK) {
            self.block.clear();
            self.block.extend(piece.iter().copied());
            self.pos += write_block(
                &mut self.writer,
                self.pos,
                self.written as usize,
                self.block.view(),
            )?;
            self.written += piece.len() as u64;
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        self.ensure_header()?;
        write_trailer(&mut self.writer, self.written)?;
        self.writer.flush()?;
        Ok(())
    }

    fn sink_name(&self) -> &str {
        "ttb"
    }
}

/// A `.ttb` trace opened as a **read-only memory mapping** — the zero-copy
/// load path.
///
/// [`read_ttb`] pays one full copy of every column into heap `Vec`s on
/// every reload. `MmapTrace` maps the file instead, walks and validates
/// the header/blocks/trailer **once** at open with the same walker as
/// [`read_ttb`], and then lends the columns straight out of the page cache
/// as a borrowed [`Columns`] view — the same view an owned [`TraceStore`]
/// lends, so grouping, statistics, inference, and schedule building run
/// identically on either (property-tested bit-identical).
///
/// # Which files are served in place
///
/// The in-place view requires a **single-block** file (whole-column
/// contiguity) whose machine-word columns are 8-/4-byte aligned (the
/// format's pads guarantee this in any mapping; see the module docs),
/// already arrival-sorted, on a little-endian target. Every file written
/// by [`write_ttb`] / [`Trace::write_ttb`] / `format::save_trace` with up
/// to [`WRITE_BLOCK`] records qualifies. Any other file — multi-block
/// streams, unsorted blocks, big-endian hosts — is copied into owned
/// columns out of the byte ranges the open-time walk validated (never
/// re-parsed), and the mapping is released; [`MmapTrace::is_zero_copy`]
/// reports which happened.
///
/// Device timing is lent in place too when every record is timed: an
/// all-timed block stores its issue and completion times as two
/// pad-aligned u64 columns, the layout [`Columns`] lends, so a
/// `Tsdev`-known trace (MSPS, MSRC, any replay output) maps with no copy
/// at all. Only a block mixing timed and untimed records is decoded at
/// open, because its disk layout (a presence bitmap, then one pair per
/// timed record) has no column to lend; the decode covers its timing
/// section alone.
///
/// # Safety and corrupt input
///
/// All validation runs **before** any typed view exists: op bytes, sector
/// counts, timing order, pad bytes, the trailer's record total, and
/// trailing garbage are checked with bounds-checked reads, and the typed
/// casts themselves re-check alignment/length
/// ([`mmap::as_u64s`](crate::mmap::as_u64s)). Corrupt, truncated, or
/// tampered files are rejected with the same [`TraceError`]s the other
/// readers produce — never UB, never a garbage record. See
/// [`crate::mmap`] for the mapping-lifetime caveat shared by all mapped
/// I/O.
///
/// # Examples
///
/// ```
/// use tt_trace::format::ttb::MmapTrace;
/// use tt_trace::{BlockRecord, GroupedTrace, OpType, Trace, TraceMeta, time::SimInstant};
///
/// let trace = Trace::from_records(
///     TraceMeta::named("demo"),
///     vec![BlockRecord::new(SimInstant::from_usecs(3), 0, 8, OpType::Read)],
/// );
/// let path = std::env::temp_dir().join("tt_mmap_doc.ttb");
/// trace.write_ttb(std::fs::File::create(&path).unwrap()).unwrap();
///
/// let mapped = MmapTrace::open(&path)?;
/// assert!(mapped.is_zero_copy());
/// let grouped = GroupedTrace::build(mapped.columns());
/// assert_eq!(grouped.total_members(), 1);
/// std::fs::remove_file(&path).ok();
/// # Ok::<(), tt_trace::TraceError>(())
/// ```
#[derive(Debug)]
pub struct MmapTrace {
    map: crate::mmap::Mmap,
    meta: TraceMeta,
    repr: Repr,
}

/// How the mapped trace stores its columns.
#[derive(Debug)]
enum Repr {
    /// The file's one block, its column ranges validated and
    /// alignment-checked at open. `timing` holds the decoded timing of a
    /// mixed block and is empty otherwise: an all-timed block lends its
    /// issue and completion columns from the mapping.
    Mapped {
        block: Block,
        timing: OwnedTiming,
        timed: usize,
    },
    /// Columns copied out of a file that cannot be served in place.
    Owned(TraceStore),
}

impl MmapTrace {
    /// Maps and validates the `.ttb` file at `path`. The trace name is the
    /// file stem, mirroring [`format::load_trace`](crate::format::load_trace).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the file cannot be opened or
    /// mapped, and the TTB validation errors ([`TraceError::Format`] /
    /// [`TraceError::Parse`]) for corrupt or truncated contents.
    pub fn open(path: impl AsRef<Path>) -> Result<MmapTrace, TraceError> {
        let path = path.as_ref();
        let file = std::fs::File::open(path)
            .map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
        let map = crate::mmap::Mmap::map_file(&file)?;
        MmapTrace::from_map(map, &crate::format::stem(path))
    }

    /// Validates an already-created mapping; `name` is recorded in the
    /// trace metadata (source `"ttb"`, matching [`read_ttb`]).
    ///
    /// # Errors
    ///
    /// The same validation errors as [`MmapTrace::open`].
    pub fn from_map(map: crate::mmap::Mmap, name: &str) -> Result<MmapTrace, TraceError> {
        let bytes = map.bytes();
        let mut walker = Walker::new(SliceInput { bytes, pos: 0 });
        let mut blocks = Vec::new();
        while let Some(block) = walker.next_block()? {
            blocks.push(block);
        }
        let in_place = match blocks.as_slice() {
            [] => Some(Block::default()),
            [block] if lends_in_place(block, bytes) => Some(block.clone()),
            _ => None,
        };
        let repr = if let Some(block) = in_place {
            let mut timing = OwnedTiming::default();
            let timed = match block.timing {
                Timing::None => 0,
                Timing::All { .. } => block.len,
                Timing::Mixed { .. } => {
                    timing.append(0, &block, bytes);
                    let OwnedTiming {
                        issues,
                        completes,
                        present,
                    } = &mut timing;
                    normalise_timing(block.len, issues, completes, present)
                }
            };
            Repr::Mapped {
                block,
                timing,
                timed,
            }
        } else {
            // The whole file is validated by now, so the copy can size
            // its columns exactly.
            let mut columns = OwnedColumns::with_capacity(&blocks);
            for block in &blocks {
                columns.append(block, bytes);
            }
            let mut store = columns.into_store()?;
            store.sort_by_arrival();
            Repr::Owned(store)
        };
        // Owned columns never touch the mapping again: release it rather
        // than pin the raw file bytes next to the copy.
        let map = match repr {
            Repr::Mapped { .. } => map,
            Repr::Owned(_) => crate::mmap::Mmap::from_bytes(Vec::new()),
        };
        Ok(MmapTrace {
            map,
            meta: TraceMeta::named(name).with_source("ttb"),
            repr,
        })
    }

    /// The trace metadata (name from the open path or caller, source
    /// `"ttb"`).
    #[must_use]
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Mapped { block, .. } => block.len,
            Repr::Owned(store) => store.len(),
        }
    }

    /// `true` when the trace holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the main columns are served from the mapping in place;
    /// `false` when they were copied out at open.
    #[must_use]
    pub fn is_zero_copy(&self) -> bool {
        matches!(self.repr, Repr::Mapped { .. })
    }

    /// The borrowed column view — feed it to
    /// [`GroupedTrace::build`](crate::GroupedTrace::build),
    /// [`TraceStats::compute`](crate::TraceStats::compute),
    /// `tt_core::infer`, or the `tt_sim` schedule builders.
    #[must_use]
    pub fn columns(&self) -> Columns<'_> {
        match &self.repr {
            Repr::Owned(store) => store.view(),
            Repr::Mapped {
                block,
                timing,
                timed,
            } => {
                let bytes = self.map.bytes();
                let cols = Columns::from_raw_parts(
                    SimInstant::slice_from_nanos(lend(bytes, &block.arrivals, as_u64s)),
                    lend(bytes, &block.lbas, as_u64s),
                    lend(bytes, &block.sectors, as_u32s),
                    lend(bytes, &block.ops, OpType::slice_from_bytes),
                );
                match &block.timing {
                    Timing::All { issues, completes } => cols.with_timing(
                        SimInstant::slice_from_nanos(lend(bytes, issues, as_u64s)),
                        SimInstant::slice_from_nanos(lend(bytes, completes, as_u64s)),
                        &[],
                        *timed,
                    ),
                    _ => {
                        cols.with_timing(&timing.issues, &timing.completes, &timing.present, *timed)
                    }
                }
            }
        }
    }

    /// Copies the mapped view into an owned [`Trace`] — the ownership
    /// fallback for consumers that must mutate (idle injection, transform
    /// stages).
    #[must_use]
    pub fn to_trace(&self) -> Trace {
        match &self.repr {
            Repr::Owned(store) => Trace::from_store(self.meta.clone(), store.clone()),
            Repr::Mapped { .. } => Trace::from_store(self.meta.clone(), self.columns().to_store()),
        }
    }
}

/// A column of the mapping that open() proved castable by `cast`.
fn lend<'a, T>(bytes: &'a [u8], range: &Range<usize>, cast: fn(&[u8]) -> Option<&[T]>) -> &'a [T] {
    cast(&bytes[range.clone()])
        // lint:allow(panic) -- open() proved every lent column aligned and its op bytes valid; the mapping is immutable, so the re-check cannot regress
        .expect("column validated at open")
}

/// `true` when a file's one `block` can be lent straight out of `bytes`:
/// its machine-word columns, the issue and completion columns of an
/// all-timed block included, cast in place (aligned, on a little-endian
/// host) and its arrivals are sorted, since a read-only map cannot be.
fn lends_in_place(block: &Block, bytes: &[u8]) -> bool {
    let Some(arrivals) = as_u64s(&bytes[block.arrivals.clone()]) else {
        return false;
    };
    let timing_casts = match &block.timing {
        Timing::All { issues, completes } => {
            as_u64s(&bytes[issues.clone()]).is_some()
                && as_u64s(&bytes[completes.clone()]).is_some()
        }
        _ => true,
    };
    as_u64s(&bytes[block.lbas.clone()]).is_some()
        && as_u32s(&bytes[block.sectors.clone()]).is_some()
        && timing_casts
        && arrivals.windows(2).all(|w| w[0] <= w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::drain_trace;
    use crate::source::collect_source;
    use crate::time::SimDuration;

    fn rec(us: u64, lba: u64) -> BlockRecord {
        BlockRecord::new(SimInstant::from_usecs(us), lba, 8, OpType::Read)
    }

    fn timed(us: u64, lba: u64) -> BlockRecord {
        BlockRecord::new(SimInstant::from_usecs(us), lba, 16, OpType::Write).with_timing(
            ServiceTiming::new(
                SimInstant::from_usecs(us + 1),
                SimInstant::from_usecs(us + 90),
            ),
        )
    }

    fn sample(kind: &str) -> Trace {
        let recs = match kind {
            "untimed" => vec![rec(0, 100), rec(5, 108), rec(90, 4000)],
            "timed" => vec![timed(0, 100), timed(5, 108), timed(90, 4000)],
            _ => vec![rec(0, 100), timed(5, 108), rec(90, 4000), timed(95, 0)],
        };
        Trace::from_records(TraceMeta::named("t"), recs)
    }

    #[test]
    fn round_trips_all_timing_shapes() {
        for kind in ["untimed", "timed", "mixed"] {
            let trace = sample(kind);
            let mut buf = Vec::new();
            write_ttb(&trace, &mut buf).unwrap();
            let back = read_ttb(buf.as_slice(), "t").unwrap();
            assert_eq!(back.columns(), trace.columns(), "{kind}");
            assert_eq!(back.meta().name, "t");
            assert_eq!(back.meta().source, "ttb");
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = Trace::with_meta(TraceMeta::named("empty"));
        let mut buf = Vec::new();
        write_ttb(&trace, &mut buf).unwrap();
        let back = read_ttb(buf.as_slice(), "empty").unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn trace_methods_mirror_free_functions() {
        let trace = sample("mixed");
        let mut via_fn = Vec::new();
        write_ttb(&trace, &mut via_fn).unwrap();
        let mut via_method = Vec::new();
        trace.write_ttb(&mut via_method).unwrap();
        assert_eq!(via_method, via_fn);
        let back = Trace::read_ttb(via_method.as_slice(), "t").unwrap();
        assert_eq!(back.columns(), trace.columns());
    }

    #[test]
    fn source_streams_across_block_boundaries() {
        let recs: Vec<BlockRecord> = (0..100).map(|i| rec(i * 3, i * 8)).collect();
        let trace = Trace::from_records(TraceMeta::named("t"), recs);
        let mut buf = Vec::new();
        // Many small blocks via the sink.
        let mut sink = TtbSink::new(&mut buf, "t");
        drain_trace(&trace, &mut sink, 7).unwrap();
        for chunk in [1usize, 3, 64, 1000] {
            let mut source = TtbSource::new(buf.as_slice());
            let back = collect_source(&mut source, trace.meta().clone(), chunk).unwrap();
            assert_eq!(back.columns(), trace.columns(), "chunk {chunk}");
        }
    }

    #[test]
    fn write_ttb_equals_sink_at_write_block_chunks() {
        let trace = sample("mixed");
        let mut whole = Vec::new();
        write_ttb(&trace, &mut whole).unwrap();
        let mut streamed = Vec::new();
        let mut sink = TtbSink::new(&mut streamed, "t");
        drain_trace(&trace, &mut sink, WRITE_BLOCK).unwrap();
        assert_eq!(streamed, whole);
    }

    /// `tests/data/mixed.csv`: 203 `CFS` records (`generate --seed 5
    /// --timing`, `hdd` preset) of which 97 keep their timing — an untimed
    /// run of 20, then one timed record in three, then a timed run of 53 —
    /// and `mixed.ttb`, that trace as `tracetracker convert mixed.csv
    /// mixed.ttb` wrote it when timing was stored as one optional pair per
    /// record: a `TIMING_MIXED` block whose bitmap ends in a partial byte.
    const MIXED_CSV: &[u8] = include_bytes!("../../tests/data/mixed.csv");
    const MIXED_TTB: &[u8] = include_bytes!("../../tests/data/mixed.ttb");

    #[test]
    fn writers_reproduce_the_mixed_fixture_byte_for_byte() {
        let trace = crate::format::csv::read_csv(MIXED_CSV, "mixed").unwrap();
        assert_eq!((trace.len(), trace.columns().timed_count()), (203, 97));
        let mut whole = Vec::new();
        write_ttb(&trace, &mut whole).unwrap();
        assert!(whole == MIXED_TTB, "write_ttb differs from the fixture");
        let mut streamed = Vec::new();
        let mut sink = TtbSink::new(&mut streamed, "mixed");
        drain_trace(&trace, &mut sink, WRITE_BLOCK).unwrap();
        assert!(streamed == MIXED_TTB, "TtbSink differs from the fixture");
        let back = read_ttb(MIXED_TTB, "mixed").unwrap();
        assert_eq!(back.columns(), trace.columns());
        let mapped =
            MmapTrace::from_map(crate::mmap::Mmap::from_bytes(MIXED_TTB.to_vec()), "m").unwrap();
        assert!(mapped.columns().iter().eq(trace.columns().iter()));
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_ttb(&b"NOPE00000000"[..], "t").unwrap_err();
        assert!(err.to_string().contains("not a TTB file"), "{err}");
    }

    #[test]
    fn rejects_future_version() {
        let mut buf = Vec::new();
        write_ttb(&sample("untimed"), &mut buf).unwrap();
        buf[4] = 99;
        let err = read_ttb(buf.as_slice(), "t").unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        assert!(err.to_string().contains("re-convert"), "{err}");
    }

    #[test]
    fn rejects_nonzero_reserved_bytes() {
        let mut buf = Vec::new();
        write_ttb(&sample("untimed"), &mut buf).unwrap();
        buf[6] = 1;
        let err = read_ttb(buf.as_slice(), "t").unwrap_err();
        assert!(err.to_string().contains("reserved"), "{err}");
    }

    #[test]
    fn rejects_truncation_everywhere() {
        // A two-block file, so the cuts include header boundaries, both
        // block interiors, the inter-block boundary, and the trailer.
        let trace = sample("mixed");
        let mut buf = Vec::new();
        let mut sink = TtbSink::new(&mut buf, "t");
        drain_trace(&trace, &mut sink, 2).unwrap();
        // Every proper prefix must fail with a truncation error, never
        // decode a partial trace. (Prefix len 0..8 also covers header
        // truncation; the cut on the block boundary is caught by the
        // missing end-of-stream trailer.)
        for cut in 1..buf.len() {
            let truncated = &buf[..cut];
            match read_ttb(truncated, "t") {
                Err(e) => assert!(
                    e.to_string().contains("truncated TTB file"),
                    "cut {cut}: {e}"
                ),
                Ok(t) => panic!("cut {cut} decoded {} records", t.len()),
            }
        }
    }

    #[test]
    fn rejects_cut_on_block_boundary_and_trailer_tampering() {
        let trace = sample("untimed"); // 3 records
        let mut buf = Vec::new();
        let mut sink = TtbSink::new(&mut buf, "t");
        drain_trace(&trace, &mut sink, 2).unwrap(); // blocks of 2 + 1
        const TRAILER: usize = 12;

        // Cut exactly at the block boundary (whole first block survives):
        // without the trailer this used to decode 2 records silently. The
        // v2 block length includes the alignment pad after the 5-byte
        // block header.
        let header_len = 12 + "t".len();
        let block1_len = 4 + 1 + pad8(header_len as u64 + 5) + 2 * (8 + 8 + 4 + 1);
        let cut = &buf[..header_len + block1_len];
        let err = read_ttb(cut, "t").unwrap_err();
        assert!(err.to_string().contains("truncated TTB file"), "{err}");

        // Drop the *last block* but keep a (re-attached) trailer claiming
        // the full count: the total mismatch must be caught.
        let block2_start = (header_len + block1_len) as u64;
        let block2_len = 4 + 1 + pad8(block2_start + 5) + (8 + 8 + 4 + 1);
        let mut forged = buf[..buf.len() - TRAILER - block2_len].to_vec();
        forged.extend_from_slice(&buf[buf.len() - TRAILER..]);
        let err = read_ttb(forged.as_slice(), "t").unwrap_err();
        assert!(err.to_string().contains("3 records but 2"), "{err}");

        // Trailing bytes after the trailer are rejected.
        let mut trailing = buf.clone();
        trailing.push(0);
        let err = read_ttb(trailing.as_slice(), "t").unwrap_err();
        assert!(err.to_string().contains("trailing data"), "{err}");

        // The streaming source applies the same checks.
        let mut source = TtbSource::new(forged.as_slice());
        let err = collect_source(&mut source, TraceMeta::named("t"), 64).unwrap_err();
        assert!(err.to_string().contains("3 records but 2"), "{err}");

        // The untampered file still reads fine.
        assert_eq!(read_ttb(buf.as_slice(), "t").unwrap().len(), 3);
    }

    #[test]
    fn rejects_corrupt_block_contents() {
        const TRAILER: usize = 12; // 0u32 marker + u64 total at the end

        // Zero sectors.
        let mut buf = Vec::new();
        let trace = Trace::from_records(TraceMeta::named("t"), vec![rec(0, 0)]);
        write_ttb(&trace, &mut buf).unwrap();
        let sectors_off = buf.len() - TRAILER - 1 - 4; // ops (1) + sectors (4)
        buf[sectors_off..sectors_off + 4].copy_from_slice(&0u32.to_le_bytes());
        let err = read_ttb(buf.as_slice(), "t").unwrap_err();
        assert!(err.to_string().contains("zero-sector"), "{err}");

        // Bad op byte.
        let mut buf = Vec::new();
        write_ttb(&trace, &mut buf).unwrap();
        let op_off = buf.len() - TRAILER - 1;
        buf[op_off] = 7;
        let err = read_ttb(buf.as_slice(), "t").unwrap_err();
        assert!(err.to_string().contains("op byte 7"), "{err}");

        // Inverted timing.
        let mut buf = Vec::new();
        let trace = Trace::from_records(TraceMeta::named("t"), vec![timed(0, 0)]);
        write_ttb(&trace, &mut buf).unwrap();
        let issue_off = buf.len() - TRAILER - 16;
        buf[issue_off..issue_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_ttb(buf.as_slice(), "t").unwrap_err();
        assert!(err.to_string().contains("precedes issue"), "{err}");

        // An 8-sector record ending exactly at the LBA bound is kept; one
        // sector past it, or a byte range wrapping past 2^64, is not. The
        // writers refuse such a record, so it is patched into the file:
        // name "t", block header at 13, pad to 24, two arrivals, then the
        // LBA column, whose second entry starts at 48.
        for (lba, kept) in [
            (MAX_END_LBA - 8, true),
            (MAX_END_LBA - 7, false),
            (u64::MAX - 5, false),
        ] {
            let mut buf = Vec::new();
            let trace = Trace::from_records(TraceMeta::named("t"), vec![rec(0, 0), rec(10, 8)]);
            write_ttb(&trace, &mut buf).unwrap();
            assert_eq!(buf[48..56], 8u64.to_le_bytes());
            buf[48..56].copy_from_slice(&lba.to_le_bytes());
            match read_ttb(buf.as_slice(), "t") {
                Ok(back) => assert!(kept && back.len() == 2, "{lba}"),
                Err(err) => assert!(
                    !kept && err.to_string().contains("block offset 1 ends past sector"),
                    "{lba}: {err}"
                ),
            }
        }
    }

    /// Both writers refuse a record the readers would reject, at the
    /// record's position in the stream, before writing its block.
    #[test]
    fn writers_reject_a_record_past_the_lba_bound() {
        let kept = Trace::from_records(
            TraceMeta::named("t"),
            vec![rec(0, 0), rec(10, MAX_END_LBA - 8)],
        );
        let mut buf = Vec::new();
        write_ttb(&kept, &mut buf).unwrap();
        assert_eq!(read_ttb(buf.as_slice(), "t").unwrap().len(), 2);
        for lba in [u64::MAX - 5, MAX_END_LBA - 7] {
            let bad = Trace::from_records(TraceMeta::named("t"), vec![rec(0, 0), rec(10, lba)]);
            let err = write_ttb(&bad, Vec::new()).unwrap_err();
            assert!(
                matches!(err, TraceError::InvalidRecord { index: 1, .. }),
                "{err}"
            );
            for chunk in [1, 2] {
                let mut buf = Vec::new();
                let mut sink = TtbSink::new(&mut buf, "t");
                let err = drain_trace(&bad, &mut sink, chunk).unwrap_err();
                assert!(
                    matches!(err, TraceError::InvalidRecord { index: 1, .. }),
                    "chunk {chunk}: {err}"
                );
            }
        }
    }

    #[test]
    fn rejects_implausible_counts() {
        let mut buf = Vec::new();
        write_ttb(&sample("untimed"), &mut buf).unwrap();
        // Header is 12 + name; name "t" = 1 byte, so the block count sits
        // at offset 13.
        buf[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_ttb(buf.as_slice(), "t").unwrap_err();
        assert!(
            err.to_string().contains("implausible record count"),
            "{err}"
        );

        let mut head = MAGIC.to_vec();
        head.extend_from_slice(&VERSION.to_le_bytes());
        head.extend_from_slice(&0u16.to_le_bytes());
        head.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_ttb(head.as_slice(), "t").unwrap_err();
        assert!(err.to_string().contains("implausible name length"), "{err}");
    }

    #[test]
    fn huge_advertised_count_fails_as_truncation_without_huge_allocation() {
        // A tiny file whose block count passes the plausibility cap but
        // advertises ~1 GiB of column data: the bounded column reads must
        // fail on the first missing piece, not reserve the advertised
        // gigabytes first.
        let mut buf = Vec::new();
        write_header(&mut buf, "t").unwrap();
        buf.extend_from_slice(&(MAX_BLOCK_RECORDS - 1).to_le_bytes());
        buf.push(TIMING_NONE);
        buf.extend_from_slice(&[0u8; 64]); // far less than the 8n promised
        let err = read_ttb(buf.as_slice(), "t").unwrap_err();
        assert!(err.to_string().contains("truncated TTB file"), "{err}");
    }

    #[test]
    fn long_names_truncate_on_char_boundaries() {
        // A multi-byte character straddling the 4096-byte cap must not be
        // cut in half — the written file has to read back cleanly.
        let name = format!("{}é", "x".repeat(MAX_NAME_BYTES as usize - 1));
        let trace = Trace::from_records(TraceMeta::named(name), vec![rec(0, 0)]);
        let mut buf = Vec::new();
        write_ttb(&trace, &mut buf).unwrap();
        let back = read_ttb(buf.as_slice(), "t").unwrap();
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn rejects_unknown_timing_tag() {
        let mut buf = Vec::new();
        write_ttb(&sample("untimed"), &mut buf).unwrap();
        buf[17] = 9; // timing tag right after the 4-byte count at 13.
        let err = read_ttb(buf.as_slice(), "t").unwrap_err();
        assert!(err.to_string().contains("timing tag 9"), "{err}");
    }

    #[test]
    fn unsorted_blocks_are_sorted_on_load() {
        // Hand-build a file whose blocks are internally sorted but
        // mutually out of order: read_ttb must arrival-sort like every
        // other loader.
        let mut buf = Vec::new();
        let mut sink = TtbSink::new(&mut buf, "t");
        sink.push_chunk(&[rec(100, 0)]).unwrap();
        sink.push_chunk(&[rec(10, 8)]).unwrap();
        sink.finish().unwrap();
        let back = read_ttb(buf.as_slice(), "t").unwrap();
        assert_eq!(back.start().unwrap(), SimInstant::from_usecs(10));
        assert_eq!(back.span(), SimDuration::from_usecs(90));
    }

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tt_ttb_{}_{name}", std::process::id()))
    }

    /// Hand-builds a version-1 file (no alignment pads): one untimed block
    /// of `lbas.len()` records at 10us spacing.
    fn v1_file(lbas: &[u64]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(b't');
        buf.extend_from_slice(&(lbas.len() as u32).to_le_bytes());
        buf.push(TIMING_NONE);
        for i in 0..lbas.len() {
            buf.extend_from_slice(&(i as u64 * 10_000).to_le_bytes());
        }
        for &l in lbas {
            buf.extend_from_slice(&l.to_le_bytes());
        }
        for _ in lbas {
            buf.extend_from_slice(&8u32.to_le_bytes());
        }
        buf.extend_from_slice(&vec![0u8; lbas.len()]); // ops: all reads
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&(lbas.len() as u64).to_le_bytes());
        buf
    }

    #[test]
    fn v1_files_are_rejected_by_every_reader() {
        let v1 = v1_file(&[100, 200, 300]);
        let bulk = read_ttb(v1.as_slice(), "t").unwrap_err().to_string();
        assert!(bulk.contains("version 1"), "{bulk}");
        assert!(bulk.contains("tt-cli convert"), "{bulk}");
        let mut source = TtbSource::new(v1.as_slice());
        let streamed = collect_source(&mut source, TraceMeta::named("t"), 2).unwrap_err();
        assert_eq!(streamed.to_string(), bulk);
        let mapped = MmapTrace::from_map(crate::mmap::Mmap::from_bytes(v1), "t").unwrap_err();
        assert_eq!(mapped.to_string(), bulk);
    }

    #[test]
    fn mmap_open_is_zero_copy_and_identical_to_bulk_read() {
        for kind in ["untimed", "timed", "mixed"] {
            let trace = sample(kind);
            let path = temp(&format!("zc_{kind}.ttb"));
            write_ttb(&trace, std::fs::File::create(&path).unwrap()).unwrap();

            let mapped = MmapTrace::open(&path).unwrap();
            assert!(mapped.is_zero_copy(), "{kind}");
            assert_eq!(mapped.len(), trace.len(), "{kind}");
            let cols = mapped.columns();
            assert_eq!(cols.arrivals(), trace.columns().arrivals(), "{kind}");
            assert_eq!(cols.lbas(), trace.columns().lbas(), "{kind}");
            assert_eq!(cols.sectors(), trace.columns().sectors(), "{kind}");
            assert_eq!(cols.ops(), trace.columns().ops(), "{kind}");
            assert!(cols.iter().eq(trace.columns().iter()), "{kind}");
            assert_eq!(cols.timed_count(), trace.columns().timed_count());
            // The ownership fallback reproduces the bulk read exactly.
            let bulk = read_ttb(
                std::io::BufReader::new(std::fs::File::open(&path).unwrap()),
                &mapped.meta().name,
            )
            .unwrap();
            assert_eq!(mapped.to_trace(), bulk, "{kind}");
            std::fs::remove_file(&path).ok();
        }
    }

    /// An all-timed single-block file is served wholly in place: the
    /// issue and completion columns are lent from the mapping and nothing
    /// of the timing is owned. Only a mixed block decodes its timing.
    #[test]
    fn mmap_lends_all_timed_columns_in_place() {
        for kind in ["timed", "mixed"] {
            let trace = sample(kind);
            let mut buf = Vec::new();
            write_ttb(&trace, &mut buf).unwrap();
            let mapped = MmapTrace::from_map(crate::mmap::Mmap::from_bytes(buf), "t").unwrap();
            assert!(mapped.is_zero_copy(), "{kind}");
            let Repr::Mapped { timing, timed, .. } = &mapped.repr else {
                panic!("{kind}: not mapped");
            };
            assert_eq!(*timed, trace.columns().timed_count(), "{kind}");
            let owned = [
                timing.issues.len(),
                timing.completes.len(),
                timing.present.len(),
            ];
            let cols = mapped.columns();
            let file = mapped.map.bytes().as_ptr_range();
            let inside = |column: &[SimInstant]| {
                file.contains(&column.as_ptr().cast::<u8>())
                    && column.as_ptr_range().end.cast::<u8>() <= file.end
            };
            if kind == "timed" {
                assert_eq!(owned, [0; 3]);
                assert!(inside(cols.issues()) && inside(cols.completes()));
            } else {
                assert_eq!(owned, [trace.len(); 3]);
                assert!(!inside(cols.issues()));
            }
            assert!(cols.iter().eq(trace.columns().iter()), "{kind}");
        }
    }

    #[test]
    fn mmap_zero_record_trace() {
        let path = temp("empty.ttb");
        let trace = Trace::with_meta(TraceMeta::named("empty"));
        write_ttb(&trace, std::fs::File::create(&path).unwrap()).unwrap();
        let mapped = MmapTrace::open(&path).unwrap();
        assert!(mapped.is_empty());
        assert!(mapped.is_zero_copy());
        assert_eq!(mapped.columns().len(), 0);
        assert!(mapped.columns().issues().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_multi_block_files_fall_back_to_decode() {
        let recs: Vec<BlockRecord> = (0..50).map(|i| rec(i * 3, i * 8)).collect();
        let trace = Trace::from_records(TraceMeta::named("t"), recs);
        let mut buf = Vec::new();
        let mut sink = TtbSink::new(&mut buf, "t");
        drain_trace(&trace, &mut sink, 7).unwrap(); // many blocks
        let mapped = MmapTrace::from_map(crate::mmap::Mmap::from_bytes(buf), "t").unwrap();
        assert!(!mapped.is_zero_copy());
        assert_eq!(mapped.len(), 50);
        assert_eq!(mapped.columns().lbas(), trace.columns().lbas());
    }

    #[test]
    fn mmap_unsorted_single_block_falls_back_and_sorts() {
        let a = Trace::from_records(TraceMeta::named("t"), vec![rec(100, 0), rec(110, 8)]);
        let mut buf = Vec::new();
        let mut sink = TtbSink::new(&mut buf, "t");
        // One block, internally out of order (the sink writes verbatim).
        sink.push_chunk(&[rec(110, 8), rec(100, 0)]).unwrap();
        sink.finish().unwrap();
        let mapped = MmapTrace::from_map(crate::mmap::Mmap::from_bytes(buf), "t").unwrap();
        assert!(!mapped.is_zero_copy());
        assert!(mapped.columns().is_sorted());
        assert_eq!(mapped.columns().arrivals(), a.columns().arrivals());
    }

    /// Every corruption the bulk reader rejects, the mapped view rejects
    /// with the same message — no panic, no UB, no garbage records.
    #[test]
    fn mmap_rejects_corruption_identically_to_bulk_reader() {
        let trace = sample("mixed");
        let mut good = Vec::new();
        write_ttb(&trace, &mut good).unwrap();

        let mapped_err = |bytes: &[u8]| {
            MmapTrace::from_map(crate::mmap::Mmap::from_bytes(bytes.to_vec()), "t")
                .err()
                .map(|e| e.to_string())
        };

        // Truncation at every cut, including a file shorter than the
        // header and a cut exactly on the trailer — of the single-block
        // file and of a two-block one, whose cuts also land inside the
        // second block and on the block boundary. The streaming source
        // rejects each cut with the same message too.
        let mut multi = Vec::new();
        let mut sink = TtbSink::new(&mut multi, "t");
        drain_trace(&trace, &mut sink, 2).unwrap();
        for file in [&good, &multi] {
            for cut in 0..file.len() {
                let bulk = read_ttb(&file[..cut], "t").unwrap_err().to_string();
                let mapped =
                    mapped_err(&file[..cut]).unwrap_or_else(|| panic!("cut {cut} accepted"));
                assert_eq!(mapped, bulk, "cut {cut}");
                let mut source = TtbSource::new(&file[..cut]);
                let streamed = collect_source(&mut source, TraceMeta::named("t"), 3);
                assert_eq!(streamed.unwrap_err().to_string(), bulk, "cut {cut}");
            }
        }

        // Targeted corruptions: bad magic, future version, reserved bytes,
        // non-zero pad, bad op byte, trailing garbage, trailer mismatch.
        let mutate = |f: &dyn Fn(&mut Vec<u8>)| {
            let mut bad = good.clone();
            f(&mut bad);
            let bulk = read_ttb(bad.as_slice(), "t").unwrap_err().to_string();
            let mapped = mapped_err(&bad).expect("corruption accepted");
            assert_eq!(mapped, bulk);
            bulk
        };
        assert!(mutate(&|b| b[0] = b'X').contains("not a TTB file"));
        assert!(mutate(&|b| b[4] = 99).contains("version 99"));
        assert!(mutate(&|b| b[6] = 1).contains("reserved"));
        // Name "t": block header at 13, pad bytes at 18..24.
        assert!(mutate(&|b| b[18] = 7).contains("alignment padding"));
        assert!(mutate(&|b| b.push(0)).contains("trailing data"));
        let trailer_total = good.len() - 8;
        assert!(mutate(&|b| b[trailer_total] ^= 0xFF).contains("records but"));
    }

    #[test]
    fn ttb_is_denser_than_csv() {
        let trace = sample("timed");
        let mut ttb = Vec::new();
        write_ttb(&trace, &mut ttb).unwrap();
        let mut csv = Vec::new();
        crate::format::csv::write_csv(&trace, &mut csv).unwrap();
        // 37 bytes/record fixed (timed) vs ~50+ of text — and no parsing.
        assert!(
            ttb.len() < csv.len(),
            "ttb {} vs csv {}",
            ttb.len(),
            csv.len()
        );
    }
}
