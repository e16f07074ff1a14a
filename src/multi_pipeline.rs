//! The multi-stream half of the Pipeline API: what several input streams
//! do together that no single-stream [`Pipeline`](crate::Pipeline) can.
//!
//! [`Pipeline::from_paths`](crate::Pipeline::from_paths) and
//! [`Pipeline::from_trace_refs`](crate::Pipeline::from_trace_refs) open a
//! [`MultiPipeline`] over N input streams; each input's position is its
//! stream index. It ends in one of two terminals:
//!
//! * [`MultiPipeline::replay_concurrent`] — the paper's consolidation
//!   scenario: every stream is converted to open- or closed-loop
//!   operations on the fly and re-issued against **one shared device**,
//!   the streams interleaving only through the device's resources
//!   ([`tt_sim::replay_concurrent_sources`]; memory holds one chunk of
//!   records per stream, not a trace). The [`ConcurrentOutcome`] holds
//!   the merged serviced trace, the per-request outcomes, the makespan,
//!   and the stream index of every record (`tracetracker replay a.csv
//!   b.csv`).
//! * [`MultiPipeline::collect_merged`] — the arrival-ordered fan-in merge
//!   of the inputs ([`tt_trace::MultiSource`]; `tracetracker convert
//!   a.csv b.csv out`).
//!
//! Whatever is done to each stream on its own — loading, writing,
//! statistics, a solo replay on its own device — is one single-stream
//! [`Pipeline`](crate::Pipeline) per input.
//!
//! # Ordering contract
//!
//! Streams must be **arrival-ordered** (what every writer in this
//! workspace produces); an unordered stream is an error naming the
//! stream, in both terminals and both replay modes. Merging is stable:
//! duplicate arrivals resolve by stream index, and records within one
//! stream never reorder. Every error a path stream yields names its file.
//!
//! # Examples
//!
//! ```
//! use tracetracker::prelude::*;
//!
//! // Two tenants' workloads...
//! let tenant = |name: &str, seed: u64| {
//!     let entry = catalog::find(name).unwrap();
//!     let session = generate_session(name, &entry.profile, 150, seed);
//!     let mut node = presets::enterprise_hdd_2007();
//!     session.materialize(&mut node, false).trace
//! };
//! let traces = vec![tenant("MSNFS", 1), tenant("webusers", 2)];
//!
//! // ...consolidated on one shared flash array.
//! let mut array = presets::intel_750_array();
//! let out = Pipeline::from_trace_refs(&traces)
//!     .replay_concurrent(&mut array, StreamReplay::OpenLoop { time_scale: 1.0 })
//!     .unwrap();
//! assert_eq!(out.outcome.trace.len(), 300);
//! let per_tenant = out.split_traces(&["MSNFS".to_string(), "webusers".to_string()]);
//! assert_eq!(per_tenant[0].len(), 150);
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tt_device::BlockDevice;
use tt_par::telemetry::FlightRecorder;
use tt_sim::{replay_concurrent_sources, ConcurrentOutcome, ReplayConfig, StreamReplay};
use tt_trace::source::{collect_source, RecordSource, DEFAULT_CHUNK};
use tt_trace::{format, BlockRecord, MultiSource, Trace, TraceError, TraceMeta, TraceSource};

use crate::pipeline::{record_terminal, with_path_context};

/// One input stream of a [`MultiPipeline`].
enum MultiInput<'env> {
    /// A trace file, format by extension, streamed at execution time.
    Path(PathBuf),
    /// A borrowed trace — streamed off its columns without copying.
    TraceRef(&'env Trace),
}

impl MultiInput<'_> {
    /// The stream's name: file stem or trace name.
    fn name(&self) -> String {
        match self {
            MultiInput::Path(p) => format::stem(p),
            MultiInput::TraceRef(t) => t.meta().name.clone(),
        }
    }

    /// Opens this input as a named record stream — the one place inputs
    /// become sources, so every error a path stream yields, from opening
    /// the file to its last line, names the file.
    fn open_stream(&self) -> Result<(String, Box<dyn RecordSource + '_>), TraceError> {
        let source: Box<dyn RecordSource + '_> = match self {
            MultiInput::Path(path) => Box::new(PathSource {
                path,
                source: format::open_source(path).map_err(|e| with_path_context(e, path))?,
            }),
            MultiInput::TraceRef(t) => Box::new(TraceSource::new(t)),
        };
        Ok((self.name(), source))
    }
}

/// Opened input streams, named, in stream-index order.
type Streams<'a> = Vec<(String, Box<dyn RecordSource + 'a>)>;

/// A path input's record stream: every error it yields names its file.
struct PathSource<'p> {
    path: &'p Path,
    source: Box<dyn RecordSource>,
}

impl RecordSource for PathSource<'_> {
    fn next_chunk(&mut self, out: &mut Vec<BlockRecord>, max: usize) -> Result<usize, TraceError> {
        self.source
            .next_chunk(out, max)
            .map_err(|e| with_path_context(e, self.path))
    }

    fn source_name(&self) -> &str {
        self.source.source_name()
    }
}

/// A multi-stream trace pipeline: N inputs → a shared-device replay or
/// a merge. See the module docs.
#[must_use = "a MultiPipeline does nothing until a terminal (replay_concurrent/collect_merged) runs it"]
pub struct MultiPipeline<'env> {
    inputs: Vec<MultiInput<'env>>,
    chunk: usize,
    recorder: Option<Arc<FlightRecorder>>,
}

impl std::fmt::Debug for MultiPipeline<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiPipeline")
            .field("streams", &self.stream_names())
            .field("chunk", &self.chunk)
            .finish()
    }
}

impl<'env> MultiPipeline<'env> {
    fn new(inputs: Vec<MultiInput<'env>>) -> Self {
        MultiPipeline {
            inputs,
            chunk: DEFAULT_CHUNK,
            recorder: None,
        }
    }

    /// See [`Pipeline::from_paths`](crate::Pipeline::from_paths).
    pub(crate) fn from_paths<P: AsRef<Path>>(paths: impl IntoIterator<Item = P>) -> Self {
        MultiPipeline::new(
            paths
                .into_iter()
                .map(|p| MultiInput::Path(p.as_ref().to_path_buf()))
                .collect(),
        )
    }

    /// See [`Pipeline::from_trace_refs`](crate::Pipeline::from_trace_refs).
    pub(crate) fn from_trace_refs(traces: &'env [Trace]) -> Self {
        MultiPipeline::new(traces.iter().map(MultiInput::TraceRef).collect())
    }

    /// The stream names, in stream-index order (file stem or trace name).
    #[must_use]
    pub fn stream_names(&self) -> Vec<String> {
        self.inputs.iter().map(MultiInput::name).collect()
    }

    /// Sets the records-per-chunk each stream is read in (default
    /// [`DEFAULT_CHUNK`], clamped to at least 1).
    pub fn chunk_size(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Attaches a **flight recorder** — same contract as
    /// [`Pipeline::flight_recorder`](crate::Pipeline::flight_recorder):
    /// the terminal records itself as one stage (`replay-concurrent` or
    /// `merge`) with its wall clock and the merged record count, outputs
    /// bit-identical with or without it.
    pub fn flight_recorder(mut self, recorder: &Arc<FlightRecorder>) -> Self {
        self.recorder = Some(Arc::clone(recorder));
        self
    }

    /// Terminal: replays the streams **concurrently** against the one
    /// shared `device` — the paper's multi-tenant consolidation scenario.
    /// Each stream is converted to open- or closed-loop operations on the
    /// fly, and the streams interleave only through the device's
    /// resources ([`tt_sim::replay_concurrent_sources`]). The outcome
    /// holds the merged serviced trace (named `concurrent`), per-request
    /// service outcomes, the makespan, and the stream index of every
    /// merged record; [`ConcurrentOutcome::split_traces`] demultiplexes
    /// it.
    ///
    /// The device is **not** reset first, matching
    /// [`Pipeline::replay`](crate::Pipeline::replay).
    ///
    /// # Errors
    ///
    /// Propagates input [`TraceError`]s, and rejects an unordered stream
    /// or an open-loop time scale that fails [`StreamReplay::check_span`].
    pub fn replay_concurrent(
        self,
        device: &mut dyn BlockDevice,
        mode: StreamReplay,
    ) -> Result<ConcurrentOutcome, TraceError> {
        self.run(
            "replay-concurrent",
            |streams, chunk| {
                replay_concurrent_sources(
                    device,
                    streams,
                    "concurrent",
                    mode,
                    chunk,
                    ReplayConfig::default(),
                )
            },
            |out| out.outcome.trace.len(),
        )
    }

    /// Terminal: the **merged** arrival-ordered trace across all streams
    /// (duplicate arrivals resolve by stream index), named after the
    /// streams joined by `+`.
    ///
    /// ```
    /// use tracetracker::prelude::*;
    ///
    /// let rec = |us: u64, lba: u64| BlockRecord::new(SimInstant::from_usecs(us), lba, 8, OpType::Read);
    /// let traces = [
    ///     Trace::from_records(TraceMeta::named("a"), vec![rec(10, 0), rec(30, 1)]),
    ///     Trace::from_records(TraceMeta::named("b"), vec![rec(20, 2), rec(30, 3)]),
    /// ];
    /// let merged = Pipeline::from_trace_refs(&traces).collect_merged()?;
    /// assert_eq!(merged.meta().name, "a+b");
    /// // Arrival order; the tie at 30us goes to stream `a`.
    /// let lbas: Vec<u64> = merged.iter().map(|r| r.lba).collect();
    /// assert_eq!(lbas, [0, 2, 1, 3]);
    /// # Ok::<(), TraceError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates input [`TraceError`]s, and rejects unordered streams
    /// (see the module docs).
    pub fn collect_merged(self) -> Result<Trace, TraceError> {
        let meta = TraceMeta::named(self.stream_names().join("+")).with_source("multi");
        self.run(
            "merge",
            |streams, chunk| {
                let mut merged = MultiSource::new(streams).with_chunk(chunk);
                collect_source(&mut merged, meta, chunk)
            },
            Trace::len,
        )
    }

    /// Opens every stream and runs `terminal` over them, recorded as the
    /// run's one stage with `records(&result)` records.
    fn run<T>(
        self,
        label: &str,
        terminal: impl FnOnce(Streams<'_>, usize) -> Result<T, TraceError>,
        records: impl FnOnce(&T) -> usize,
    ) -> Result<T, TraceError> {
        if let Some(rec) = &self.recorder {
            rec.begin();
            rec.set_knobs(self.chunk);
        }
        let started = Instant::now();
        let streams = self
            .inputs
            .iter()
            .map(MultiInput::open_stream)
            .collect::<Result<Vec<_>, _>>()?;
        let out = terminal(streams, self.chunk)?;
        record_terminal(&self.recorder, label, started, records(&out));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use crate::Pipeline;
    use tt_trace::{Trace, TraceMeta};

    #[test]
    fn streams_are_named_by_file_stem_or_trace_name() {
        let from_paths = Pipeline::from_paths(["traces/old.csv", "new.ttb"]);
        assert_eq!(from_paths.stream_names(), ["old", "new"]);
        let traces = [
            Trace::from_records(TraceMeta::named("x"), Vec::new()),
            Trace::from_records(TraceMeta::named("y"), Vec::new()),
        ];
        assert_eq!(
            Pipeline::from_trace_refs(&traces).stream_names(),
            ["x", "y"]
        );
    }
}
