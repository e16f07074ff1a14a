//! The multi-stream half of the Pipeline API: N tagged input streams,
//! fan-in, concurrent replay, per-stream terminals.
//!
//! A [`MultiPipeline`] models the paper's **co-evaluation scenarios**:
//! several independent workloads (tenants) sharing one storage device.
//! Construction mirrors the single-stream builder
//! ([`Pipeline::from_paths`](crate::Pipeline::from_paths) /
//! [`from_sources`](crate::Pipeline::from_sources) /
//! [`from_traces`](crate::Pipeline::from_traces)); each input becomes a
//! **stream** with a stable index — its tag on every record it
//! contributes, and its tie-break rank when arrivals collide
//! ([`tt_trace::MultiSource`] defines the merge).
//!
//! The one transform stage is [`MultiPipeline::replay_concurrent`]: the
//! streams are converted to open- or closed-loop operation flows **on the
//! fly** and interleaved through the shared device by the discrete-event
//! core ([`tt_sim::replay_concurrent_sources`]) — per stream, memory
//! holds one chunk of records, not a trace. Terminals either keep the
//! merged arrival-ordered result ([`MultiPipeline::collect_merged`]) or
//! demultiplex it back per stream ([`MultiPipeline::collect_all`],
//! [`MultiPipeline::write_paths`], [`MultiPipeline::stats_per_stream`]).
//!
//! Without a replay stage the terminals degenerate to the obvious
//! fan-out/fan-in: per-stream terminals behave exactly like running each
//! input through its own single-stream [`Pipeline`](crate::Pipeline)
//! (property-tested), and `collect_merged` is the arrival-ordered merge
//! of all inputs. Because the streams are independent there, the
//! per-stream terminals — and the solo-baseline
//! [`MultiPipeline::replay_each`] — **fan across worker cores**
//! ([`tt_par::threads`]), one stream per worker, results in stream order
//! and bit-identical at any worker count.
//!
//! # Ordering contract
//!
//! Streams must be **arrival-ordered** (what every writer in this
//! workspace produces); an unordered stream is an error naming the
//! stream. Merging is stable: duplicate arrivals resolve by stream index,
//! records within one stream never reorder.
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
//! let per_tenant = Pipeline::from_trace_refs(&traces)
//!     .replay_concurrent(&mut array, StreamReplay::OpenLoop { time_scale: 1.0 })
//!     .collect_all()
//!     .unwrap();
//! assert_eq!(per_tenant.len(), 2);
//! assert_eq!(per_tenant[0].len(), 150);
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tt_device::BlockDevice;
use tt_par::telemetry::FlightRecorder;
use tt_sim::{
    replay, replay_concurrent_sources, ConcurrentOutcome, ReplayConfig, ReplayOutcome, Schedule,
    StreamReplay,
};
use tt_trace::sink::SinkStats;
use tt_trace::source::{RecordSource, DEFAULT_CHUNK};
use tt_trace::{format, MultiSource, Trace, TraceError, TraceMeta, TraceStats};

use crate::pipeline::Pipeline;

/// One input stream of a [`MultiPipeline`].
enum MultiInput<'env> {
    /// A trace file, format by extension, streamed at execution time.
    Path(PathBuf),
    /// Any streaming source plus the stream's name.
    Source {
        source: Box<dyn RecordSource + 'env>,
        name: String,
    },
    /// An already-materialised trace.
    Trace(Trace),
    /// A borrowed trace — streamed off its columns without copying.
    TraceRef(&'env Trace),
}

impl MultiInput<'_> {
    /// The stream's name: file stem, source name, or trace name.
    fn name(&self) -> String {
        match self {
            MultiInput::Path(p) => format::stem(p),
            MultiInput::Source { name, .. } => name.clone(),
            MultiInput::Trace(t) => t.meta().name.clone(),
            MultiInput::TraceRef(t) => t.meta().name.clone(),
        }
    }

    /// Opens this input as a named record stream — the one place input
    /// kinds map to sources (and path errors gain their file context).
    fn open_stream(&mut self) -> Result<(String, Box<dyn RecordSource + '_>), TraceError> {
        let name = self.name();
        let source: Box<dyn RecordSource + '_> = match self {
            MultiInput::Path(p) => format::open_source(p.as_path())
                .map_err(|e| crate::pipeline::with_path_context(e, p))?,
            MultiInput::Source { source, .. } => Box::new(&mut **source),
            MultiInput::Trace(t) => Box::new(tt_trace::TraceSource::new(t)),
            MultiInput::TraceRef(t) => Box::new(tt_trace::TraceSource::new(t)),
        };
        Ok((name, source))
    }
}

/// The concurrent-replay stage of a multi-stream pipeline.
struct ConcurrentStage<'env> {
    device: &'env mut dyn BlockDevice,
    mode: StreamReplay,
}

/// A multi-stream trace pipeline: tagged inputs → optional concurrent
/// replay → merged or per-stream terminals. See the module docs.
#[must_use = "a MultiPipeline does nothing until a terminal (collect_all/…) runs it"]
pub struct MultiPipeline<'env> {
    inputs: Vec<MultiInput<'env>>,
    stage: Option<ConcurrentStage<'env>>,
    chunk: usize,
    threads: Option<usize>,
    recorder: Option<Arc<FlightRecorder>>,
}

impl std::fmt::Debug for MultiPipeline<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiPipeline")
            .field("streams", &self.stream_names())
            .field("replay_concurrent", &self.stage.is_some())
            .field("chunk", &self.chunk)
            .field("threads", &self.threads)
            .finish()
    }
}

impl<'env> MultiPipeline<'env> {
    fn new(inputs: Vec<MultiInput<'env>>) -> Self {
        MultiPipeline {
            inputs,
            stage: None,
            chunk: DEFAULT_CHUNK,
            threads: None,
            recorder: None,
        }
    }

    /// See [`Pipeline::from_paths`](crate::Pipeline::from_paths).
    pub fn from_paths<P: AsRef<Path>>(paths: impl IntoIterator<Item = P>) -> Self {
        MultiPipeline::new(
            paths
                .into_iter()
                .map(|p| MultiInput::Path(p.as_ref().to_path_buf()))
                .collect(),
        )
    }

    /// See [`Pipeline::from_sources`](crate::Pipeline::from_sources).
    pub fn from_sources(sources: Vec<(String, Box<dyn RecordSource + 'env>)>) -> Self {
        MultiPipeline::new(
            sources
                .into_iter()
                .map(|(name, source)| MultiInput::Source { source, name })
                .collect(),
        )
    }

    /// See [`Pipeline::from_traces`](crate::Pipeline::from_traces).
    pub fn from_traces(traces: Vec<Trace>) -> Self {
        MultiPipeline::new(traces.into_iter().map(MultiInput::Trace).collect())
    }

    /// See [`Pipeline::from_trace_refs`](crate::Pipeline::from_trace_refs).
    pub fn from_trace_refs(traces: &'env [Trace]) -> Self {
        MultiPipeline::new(traces.iter().map(MultiInput::TraceRef).collect())
    }

    /// Number of input streams.
    #[must_use]
    pub fn stream_count(&self) -> usize {
        self.inputs.len()
    }

    /// The stream names, in tag order (file stem / source name / trace
    /// name).
    #[must_use]
    pub fn stream_names(&self) -> Vec<String> {
        self.inputs.iter().map(MultiInput::name).collect()
    }

    /// Sets the records-per-chunk used by per-stream streaming reads and
    /// writes (default [`DEFAULT_CHUNK`], clamped to at least 1).
    pub fn chunk_size(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Caps the worker threads used by grouping/statistics work in the
    /// terminals **and by the per-stream fan-outs** (stage-less
    /// [`MultiPipeline::collect_all`] / [`MultiPipeline::write_paths`],
    /// and [`MultiPipeline::replay_each`]) — same contract as
    /// [`Pipeline::parallel`](crate::Pipeline::parallel) (process-global,
    /// bit-identical results at any count).
    pub fn parallel(mut self, workers: usize) -> Self {
        self.threads = Some(workers);
        self
    }

    /// Appends the **concurrent replay** stage: every stream is converted
    /// to open- or closed-loop operations on the fly and re-issued against
    /// the one shared `device`, streams interleaving only through the
    /// device's resources ([`tt_sim::replay_concurrent_sources`]) — the
    /// paper's multi-tenant consolidation scenario. Each record of the
    /// merged result keeps its stream tag, so the per-stream terminals
    /// can demultiplex it.
    ///
    /// The device is **not** reset first, matching
    /// [`Pipeline::replay`](crate::Pipeline::replay).
    pub fn replay_concurrent(
        mut self,
        device: &'env mut dyn BlockDevice,
        mode: StreamReplay,
    ) -> Self {
        self.stage = Some(ConcurrentStage { device, mode });
        self
    }

    /// Attaches a **flight recorder** — same contract as
    /// [`Pipeline::flight_recorder`](crate::Pipeline::flight_recorder):
    /// the terminal records its phases (the concurrent replay or the
    /// per-stream fan-out, plus any write) with wall clocks and record
    /// counts, outputs bit-identical with or without it.
    pub fn flight_recorder(mut self, recorder: &Arc<FlightRecorder>) -> Self {
        self.recorder = Some(Arc::clone(recorder));
        self
    }

    fn apply_threads(&self) {
        if let Some(workers) = self.threads {
            tt_par::set_threads(workers);
        }
    }

    /// Opens a recorder run for a terminal, returning the handle for its
    /// phase stamps.
    fn begin_run(&self) -> Option<Arc<FlightRecorder>> {
        let recorder = self.recorder.clone();
        if let Some(rec) = &recorder {
            rec.begin();
            rec.set_knobs(self.chunk);
        }
        recorder
    }

    /// Runs the concurrent replay stage over the opened streams.
    fn run_concurrent(
        inputs: &mut [MultiInput<'env>],
        stage: ConcurrentStage<'_>,
        chunk: usize,
    ) -> Result<ConcurrentOutcome, TraceError> {
        let mut sources: Vec<(String, Box<dyn RecordSource + '_>)> =
            Vec::with_capacity(inputs.len());
        for input in inputs.iter_mut() {
            sources.push(input.open_stream()?);
        }
        replay_concurrent_sources(
            stage.device,
            sources,
            "concurrent",
            stage.mode,
            chunk,
            ReplayConfig::default(),
        )
    }

    /// Loads one input as a single-stream pipeline (the per-stream
    /// reference semantics every demultiplexed terminal matches).
    fn single(input: MultiInput<'env>, chunk: usize) -> Pipeline<'env> {
        match input {
            MultiInput::Path(p) => Pipeline::from_path(p),
            MultiInput::Source { source, name } => Pipeline::from_source(source, name),
            MultiInput::Trace(t) => Pipeline::from_trace(t),
            MultiInput::TraceRef(t) => Pipeline::from_trace_ref(t),
        }
        .chunk_size(chunk)
    }

    /// Terminal: the raw tagged replay result — the merged
    /// [`ReplayOutcome`](tt_sim::ReplayOutcome) (trace, per-request
    /// service outcomes, makespan) plus the stream tag of every merged
    /// record. This is the full-information terminal the others are
    /// conveniences over; demultiplex with
    /// [`ConcurrentOutcome::split_traces`].
    ///
    /// # Errors
    ///
    /// Propagates input [`TraceError`]s, and errors when no
    /// [`MultiPipeline::replay_concurrent`] stage was added (the other
    /// terminals work without one; this one has nothing to report).
    pub fn replay_outcome(mut self) -> Result<ConcurrentOutcome, TraceError> {
        self.apply_threads();
        let recorder = self.begin_run();
        let Some(stage) = self.stage.take() else {
            return Err(TraceError::format(
                "replay_outcome needs a replay_concurrent stage",
            ));
        };
        let started = Instant::now();
        let out = Self::run_concurrent(&mut self.inputs, stage, self.chunk)?;
        record_phase(
            &recorder,
            0,
            "replay-concurrent",
            started,
            out.outcome.trace.len(),
        );
        finish_run(&recorder);
        Ok(out)
    }

    /// Terminal: one trace per stream. With a replay stage, the merged
    /// concurrent result demultiplexed by tag (each tenant's serviced
    /// requests under contention); without one, each input loaded
    /// independently — exactly what the same input run through a
    /// single-stream [`Pipeline`](crate::Pipeline) yields.
    ///
    /// # Errors
    ///
    /// Propagates input [`TraceError`]s.
    pub fn collect_all(mut self) -> Result<Vec<Trace>, TraceError> {
        self.apply_threads();
        let recorder = self.begin_run();
        let chunk = self.chunk;
        let started = Instant::now();
        let (label, traces) = match self.stage.take() {
            Some(stage) => {
                let names = self.stream_names();
                let out = Self::run_concurrent(&mut self.inputs, stage, chunk)?;
                ("replay-concurrent", out.split_traces(&names))
            }
            // Independent loads: one worker per stream ([`tt_par`]'s
            // thread cap applies; order is preserved either way).
            None => (
                "collect",
                tt_par::par_map_owned(self.inputs, |input| Self::single(input, chunk).collect())
                    .into_iter()
                    .collect::<Result<Vec<Trace>, TraceError>>()?,
            ),
        };
        record_phase(
            &recorder,
            0,
            label,
            started,
            traces.iter().map(Trace::len).sum(),
        );
        finish_run(&recorder);
        Ok(traces)
    }

    /// Terminal: the **merged** arrival-ordered trace across all streams —
    /// the consolidated view a shared device actually served (with a
    /// replay stage), or the plain fan-in merge of the inputs (without
    /// one; duplicate arrivals resolve by stream index).
    ///
    /// # Errors
    ///
    /// Propagates input [`TraceError`]s, and rejects unordered streams
    /// (see the module docs).
    pub fn collect_merged(mut self) -> Result<Trace, TraceError> {
        self.apply_threads();
        let recorder = self.begin_run();
        let chunk = self.chunk;
        let started = Instant::now();
        let (label, trace) = match self.stage.take() {
            Some(stage) => (
                "replay-concurrent",
                Self::run_concurrent(&mut self.inputs, stage, chunk)?
                    .outcome
                    .trace,
            ),
            None => {
                let meta = TraceMeta::named(self.stream_names().join("+")).with_source("multi");
                let mut sources: Vec<(String, Box<dyn RecordSource + '_>)> =
                    Vec::with_capacity(self.inputs.len());
                for input in &mut self.inputs {
                    sources.push(input.open_stream()?);
                }
                let mut multi = MultiSource::new(sources).with_chunk(chunk);
                ("merge", tt_trace::collect_source(&mut multi, meta, chunk)?)
            }
        };
        record_phase(&recorder, 0, label, started, trace.len());
        finish_run(&recorder);
        Ok(trace)
    }

    /// Terminal: streams each stream's result into its own trace file
    /// (`paths[i]` receives stream `i`, format by extension), returning
    /// per-stream push statistics.
    ///
    /// # Errors
    ///
    /// Errors when `paths.len()` differs from the stream count, and
    /// propagates input, format-detection, and I/O [`TraceError`]s.
    pub fn write_paths<P: AsRef<Path>>(
        mut self,
        paths: &[P],
    ) -> Result<Vec<SinkStats>, TraceError> {
        self.apply_threads();
        if paths.len() != self.inputs.len() {
            return Err(TraceError::format(format!(
                "write_paths needs one output per stream: {} streams, {} paths",
                self.inputs.len(),
                paths.len()
            )));
        }
        let recorder = self.begin_run();
        let chunk = self.chunk;
        let stats: Vec<SinkStats> = match self.stage.take() {
            Some(stage) => {
                let names = self.stream_names();
                let started = Instant::now();
                let out = Self::run_concurrent(&mut self.inputs, stage, chunk)?;
                record_phase(
                    &recorder,
                    0,
                    "replay-concurrent",
                    started,
                    out.outcome.trace.len(),
                );
                let jobs: Vec<(Trace, PathBuf)> = out
                    .split_traces(&names)
                    .into_iter()
                    .zip(paths)
                    .map(|(trace, path)| (trace, path.as_ref().to_path_buf()))
                    .collect();
                let started = Instant::now();
                let stats: Vec<SinkStats> = tt_par::par_map_owned(jobs, |(trace, path)| {
                    Pipeline::from_trace(trace)
                        .chunk_size(chunk)
                        .write_path(path)
                })
                .into_iter()
                .collect::<Result<_, _>>()?;
                record_phase(
                    &recorder,
                    1,
                    "write",
                    started,
                    stats.iter().map(|s| s.records).sum(),
                );
                stats
            }
            None => {
                // Independent load-and-write per stream: fan the streams
                // across workers (each writes its own file; order of the
                // returned stats is preserved).
                let jobs: Vec<(MultiInput<'env>, PathBuf)> = self
                    .inputs
                    .into_iter()
                    .zip(paths)
                    .map(|(input, path)| (input, path.as_ref().to_path_buf()))
                    .collect();
                let started = Instant::now();
                let stats: Vec<SinkStats> = tt_par::par_map_owned(jobs, |(input, path)| {
                    Self::single(input, chunk).write_path(path)
                })
                .into_iter()
                .collect::<Result<_, _>>()?;
                record_phase(
                    &recorder,
                    0,
                    "write",
                    started,
                    stats.iter().map(|s| s.records).sum(),
                );
                stats
            }
        };
        finish_run(&recorder);
        Ok(stats)
    }

    /// Terminal: Table-I style summary statistics per stream (computed on
    /// the demultiplexed per-stream traces).
    ///
    /// # Errors
    ///
    /// Propagates input [`TraceError`]s.
    pub fn stats_per_stream(self) -> Result<Vec<TraceStats>, TraceError> {
        Ok(self
            .collect_all()?
            .iter()
            .map(TraceStats::compute)
            .collect())
    }

    /// Terminal: replays every stream **solo** on its own device — the
    /// per-tenant baselines of the paper's consolidation study — fanning
    /// the independent replays across worker cores ([`tt_par::threads`]).
    /// `make_device` builds one fresh device per stream, so the replays
    /// share nothing and the result is bit-identical at any worker count
    /// (each outcome is exactly what a single-stream
    /// [`Pipeline::replay`](crate::Pipeline::replay) of that input on that
    /// device would collect). Outcomes come back in stream order.
    ///
    /// This is the per-device dual of
    /// [`MultiPipeline::replay_concurrent`]: *concurrent* replay
    /// interleaves the streams through one shared device and is inherently
    /// sequential; *solo* replay sets are embarrassingly parallel across
    /// devices, so they scale with cores.
    ///
    /// # Errors
    ///
    /// Propagates input [`TraceError`]s, and errors when a
    /// [`MultiPipeline::replay_concurrent`] stage was added — the two
    /// replay shapes are mutually exclusive.
    pub fn replay_each<F>(
        self,
        make_device: F,
        mode: StreamReplay,
    ) -> Result<Vec<ReplayOutcome>, TraceError>
    where
        F: Fn() -> Box<dyn BlockDevice> + Sync,
    {
        self.replay_each_with(make_device, mode, ReplayConfig::default())
    }

    /// Like [`MultiPipeline::replay_each`] with an explicit
    /// [`ReplayConfig`].
    ///
    /// # Errors
    ///
    /// See [`MultiPipeline::replay_each`].
    pub fn replay_each_with<F>(
        self,
        make_device: F,
        mode: StreamReplay,
        config: ReplayConfig,
    ) -> Result<Vec<ReplayOutcome>, TraceError>
    where
        F: Fn() -> Box<dyn BlockDevice> + Sync,
    {
        self.apply_threads();
        if self.stage.is_some() {
            return Err(TraceError::format(
                "replay_each replays each stream on its own device; drop the \
                 replay_concurrent stage (or use replay_outcome for the shared-device run)",
            ));
        }
        let recorder = self.begin_run();
        let chunk = self.chunk;
        let started = Instant::now();
        let outcomes: Vec<ReplayOutcome> = tt_par::par_map_owned(self.inputs, |input| {
            let name = input.name();
            let trace = Self::single(input, chunk).collect()?;
            mode.check_span(trace.span())?;
            let schedule = match mode {
                StreamReplay::ClosedLoop => Schedule::closed_loop(&trace),
                StreamReplay::OpenLoop { time_scale } => Schedule::open_loop(&trace, time_scale),
            };
            let mut device = make_device();
            Ok(replay(&mut *device, &schedule, &name, config))
        })
        .into_iter()
        .collect::<Result<_, TraceError>>()?;
        record_phase(
            &recorder,
            0,
            "replay-each",
            started,
            outcomes.iter().map(|o| o.trace.len()).sum(),
        );
        finish_run(&recorder);
        Ok(outcomes)
    }
}

/// Records one multi-stream phase into the recorder, when one is attached.
fn record_phase(
    recorder: &Option<Arc<FlightRecorder>>,
    index: usize,
    label: &str,
    started: Instant,
    records: usize,
) {
    if let Some(rec) = recorder {
        rec.record_stage(index, label, started.elapsed(), records);
    }
}

/// Stamps the run's end time. Only success paths finish: an errored run
/// leaves the recorder mid-flight and the next [`FlightRecorder::begin`]
/// resets it.
fn finish_run(recorder: &Option<Arc<FlightRecorder>>) {
    if let Some(rec) = recorder {
        rec.finish();
    }
}
