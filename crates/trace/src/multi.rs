//! Multi-stream fan-in: several [`RecordSource`]s merged into one
//! arrival-ordered record flow.
//!
//! `tracetracker convert a.csv b.csv out` writes this merge: a
//! [`MultiSource`] owns N per-stream sources and is itself a
//! [`RecordSource`] whose records come out merged by arrival time.
//!
//! # Ordering contract
//!
//! Each stream must itself be **arrival-ordered** — exactly the order
//! every writer in this workspace produces and the same contract the
//! streamed concurrent replay has. A stream yielding a record earlier than
//! its predecessor is a [`TraceError::InvalidRecord`] naming the stream;
//! sort the file first (load + rewrite) if it is genuinely unordered. The
//! merge itself is *stable*: on duplicate arrival timestamps the lower
//! stream index wins, and records within one stream never reorder — so
//! merging is deterministic, byte for byte, at any chunk size.
//!
//! Memory is bounded by one refill chunk per stream, never a whole trace.
//!
//! ```
//! use tt_trace::multi::MultiSource;
//! use tt_trace::source::{RecordSource, VecSource};
//! use tt_trace::{BlockRecord, OpType, time::SimInstant};
//!
//! let rec = |us: u64, lba: u64| BlockRecord::new(SimInstant::from_usecs(us), lba, 8, OpType::Read);
//! let mut multi = MultiSource::new(vec![
//!     ("a".to_string(), Box::new(VecSource::new(vec![rec(10, 0), rec(30, 1)])) as _),
//!     ("b".to_string(), Box::new(VecSource::new(vec![rec(20, 2)])) as _),
//! ]);
//! let mut out = Vec::new();
//! multi.next_chunk(&mut out, 16)?;
//! let lbas: Vec<u64> = out.iter().map(|r| r.lba).collect();
//! assert_eq!(lbas, vec![0, 2, 1]);
//! # Ok::<(), tt_trace::TraceError>(())
//! ```

use crate::error::TraceError;
use crate::record::BlockRecord;
use crate::source::{ChunkCursor, RecordSource, DEFAULT_CHUNK};
use crate::time::SimInstant;

/// Per-stream pull state: a chunked lookahead cursor plus the merge's
/// bookkeeping.
struct StreamState<'env> {
    name: String,
    cursor: ChunkCursor<Box<dyn RecordSource + 'env>>,
    /// Records this stream has yielded into the merge so far.
    yielded: usize,
    /// Arrival of the last merged record — the order check.
    last: Option<SimInstant>,
}

/// A fan-in over several record streams: a stable arrival-ordered merge
/// (see the module docs for the ordering contract).
pub struct MultiSource<'env> {
    streams: Vec<StreamState<'env>>,
}

impl std::fmt::Debug for MultiSource<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.streams.iter().map(|s| s.name.as_str()).collect();
        f.debug_struct("MultiSource")
            .field("streams", &names)
            .finish()
    }
}

impl<'env> MultiSource<'env> {
    /// Builds a fan-in over `(name, source)` pairs; the position of each
    /// pair is its stream index (its tie-break rank on duplicate
    /// arrivals). Names label streams in errors.
    #[must_use]
    pub fn new(streams: Vec<(String, Box<dyn RecordSource + 'env>)>) -> Self {
        MultiSource {
            streams: streams
                .into_iter()
                .map(|(name, source)| StreamState {
                    name,
                    cursor: ChunkCursor::new(source, DEFAULT_CHUNK),
                    yielded: 0,
                    last: None,
                })
                .collect(),
        }
    }

    /// Sets the per-stream refill chunk (default
    /// [`DEFAULT_CHUNK`], clamped to ≥ 1).
    #[must_use]
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        for stream in &mut self.streams {
            stream.cursor.set_chunk(chunk);
        }
        self
    }
}

impl RecordSource for MultiSource<'_> {
    /// Appends up to `max` merged records to `out`.
    ///
    /// # Errors
    ///
    /// Propagates per-stream source errors, and rejects a stream whose
    /// records are not arrival-ordered.
    fn next_chunk(&mut self, out: &mut Vec<BlockRecord>, max: usize) -> Result<usize, TraceError> {
        let mut appended = 0;
        while appended < max {
            // The smallest head arrival wins; ties go to the lowest stream
            // index, keeping the merge stable and deterministic.
            let mut best: Option<(usize, SimInstant)> = None;
            for i in 0..self.streams.len() {
                if let Some(rec) = self.streams[i].cursor.peek()? {
                    let arrival = rec.arrival;
                    if best.is_none_or(|(_, t)| arrival < t) {
                        best = Some((i, arrival));
                    }
                }
            }
            let Some((i, arrival)) = best else {
                break;
            };
            let stream = &mut self.streams[i];
            if let Some(last) = stream.last {
                if arrival < last {
                    return Err(TraceError::invalid_record(
                        stream.yielded,
                        format!(
                            "stream {:?} is not arrival-ordered: {arrival} precedes {last} \
                             (sort the trace first)",
                            stream.name
                        ),
                    ));
                }
            }
            stream.last = Some(arrival);
            let Some(record) = stream.cursor.next_record()? else {
                // The peek above saw a record; a source that retracts it
                // mid-merge is misbehaving — surface that, don't abort.
                return Err(TraceError::parse(format!(
                    "stream {:?} retracted a peeked record",
                    stream.name
                )));
            };
            stream.yielded += 1;
            out.push(record);
            appended += 1;
        }
        Ok(appended)
    }

    fn source_name(&self) -> &str {
        "multi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpType;
    use crate::source::VecSource;

    fn rec(us: u64, lba: u64) -> BlockRecord {
        BlockRecord::new(SimInstant::from_usecs(us), lba, 8, OpType::Read)
    }

    fn multi(streams: Vec<Vec<BlockRecord>>) -> MultiSource<'static> {
        MultiSource::new(
            streams
                .into_iter()
                .enumerate()
                .map(|(i, recs)| {
                    (
                        format!("s{i}"),
                        Box::new(VecSource::new(recs)) as Box<dyn RecordSource>,
                    )
                })
                .collect(),
        )
    }

    /// The LBAs of one pull of up to `max` merged records.
    fn pull(m: &mut MultiSource<'_>, max: usize) -> Vec<u64> {
        let mut out = Vec::new();
        m.next_chunk(&mut out, max).unwrap();
        out.iter().map(|r| r.lba).collect()
    }

    #[test]
    fn merges_by_arrival_across_streams() {
        let mut m = multi(vec![
            vec![rec(10, 0), rec(40, 1)],
            vec![rec(20, 2), rec(30, 3)],
        ]);
        assert_eq!(pull(&mut m, 16), vec![0, 2, 3, 1]);
        assert!(pull(&mut m, 16).is_empty());
        assert_eq!(m.source_name(), "multi");
    }

    #[test]
    fn duplicate_arrivals_break_ties_by_stream_index() {
        let mut m = multi(vec![
            vec![rec(10, 10), rec(10, 11)],
            vec![rec(10, 20)],
            vec![rec(5, 30), rec(10, 31)],
        ]);
        // 5us first; then all the 10us ties in stream-index order, with
        // stream 0's two records keeping their internal order.
        assert_eq!(pull(&mut m, 16), vec![30, 10, 11, 20, 31]);
    }

    #[test]
    fn chunked_pulls_match_one_big_pull() {
        let streams = vec![
            (0..40u64).map(|i| rec(i * 3, i)).collect::<Vec<_>>(),
            (0..25u64).map(|i| rec(i * 5 + 1, 100 + i)).collect(),
            (0..10u64).map(|i| rec(i * 11, 200 + i)).collect(),
        ];
        let mut whole = Vec::new();
        multi(streams.clone()).next_chunk(&mut whole, 1000).unwrap();

        for (chunk, pull) in [(1usize, 1usize), (3, 7), (64, 2)] {
            let mut m = multi(streams.clone()).with_chunk(chunk);
            let mut got = Vec::new();
            while m.next_chunk(&mut got, pull).unwrap() > 0 {}
            assert_eq!(got, whole, "chunk {chunk} pull {pull}");
        }
    }

    #[test]
    fn a_huge_chunk_and_pull_equal_the_default() {
        let streams = vec![
            (0..40u64).map(|i| rec(i * 3, i)).collect::<Vec<_>>(),
            (0..25u64).map(|i| rec(i * 5 + 1, 100 + i)).collect(),
        ];
        let pull = |chunk, max| {
            let mut m = multi(streams.clone()).with_chunk(chunk);
            let mut out = Vec::new();
            while m.next_chunk(&mut out, max).unwrap() > 0 {}
            out
        };
        assert_eq!(
            pull(usize::MAX, usize::MAX),
            pull(DEFAULT_CHUNK, DEFAULT_CHUNK)
        );
    }

    #[test]
    fn unordered_stream_is_rejected_by_name() {
        let mut m = multi(vec![vec![rec(10, 0)], vec![rec(50, 1), rec(20, 2)]]);
        let mut out = Vec::new();
        let err = m.next_chunk(&mut out, 16).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("s1"), "{msg}");
        assert!(msg.contains("arrival-ordered"), "{msg}");
    }

    #[test]
    fn empty_and_single_stream_edges() {
        assert!(pull(&mut multi(vec![]), 8).is_empty());
        assert_eq!(
            pull(&mut multi(vec![vec![rec(1, 0), rec(2, 1)]]), 8),
            vec![0, 1]
        );
    }
}
