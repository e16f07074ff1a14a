//! The composable [`Pipeline`] builder: `RecordSource → stages →
//! RecordSink`.
//!
//! Every consumer of the workspace used to hand-wire the same sequence —
//! open a file, pick a format reader, collect, group, infer, reconstruct,
//! pick a format writer, save. [`Pipeline`] makes that sequence the public
//! API: one builder chains an input ([`Pipeline::from_path`],
//! [`Pipeline::from_source`], [`Pipeline::from_trace`]) through transform
//! stages ([`Pipeline::reconstruct`], [`Pipeline::replay`]) into a
//! terminal ([`Pipeline::collect`], [`Pipeline::write_to`],
//! [`Pipeline::write_path`], or the analysis terminals
//! [`Pipeline::group`], [`Pipeline::infer`], [`Pipeline::stats`],
//! [`Pipeline::verify`]).
//!
//! # Execution: one stage at a time
//!
//! A chain runs the way the paper's §IV evaluation does: one stage after
//! another, on the calling thread, and each stage's work (grouping,
//! inference, reconstruction, replay) is sequential too. Every transform
//! stage reads a borrowed [`Columns`] view of its input: the first stage
//! reads the resolved input where it lies (a caller's trace or mapping,
//! or the loaded file), and each later stage reads its predecessor's
//! output. Every stage but the last runs to completion into an in-memory
//! trace sized from its input's record count, and the final stage
//! **streams into the terminal**: when a pipeline ends in a sink, the
//! last transform pushes records chunk-by-chunk into it
//! ([`Reconstructor::reconstruct_into`], [`tt_sim::replay_into`]) as the
//! simulated device produces them. A
//! `reconstruct → replay` chain written to a file therefore holds at most
//! the input trace and the reconstructed trace, never the replayed one.
//! Every stage consumes and emits records in arrival order, so nothing is
//! re-sorted between stages.
//!
//! Pipelines with no transform stage still materialise a file or source
//! input once (traces are arrival-sorted; sorting needs the whole trace)
//! and then stream it out column-by-column without ever building row
//! caches.
//!
//! Outputs are identical to calling the underlying free functions by hand:
//! the free functions *are* drains over the same streaming code paths
//! (property-tested).
//!
//! # Several inputs at once
//!
//! [`Pipeline::from_paths`] / [`Pipeline::from_trace_refs`] open a
//! [`MultiPipeline`] for the two things several streams do together that
//! one stream cannot: replay on one shared device
//! ([`MultiPipeline::replay_concurrent`]) and merge into one
//! arrival-ordered trace ([`MultiPipeline::collect_merged`]). Anything
//! done to each input on its own is one `Pipeline` per input.
//!
//! # Memory-mapped input
//!
//! A caller's mapping ([`Pipeline::from_mapped`]) is never copied to feed
//! a stage or a column terminal: [`Pipeline::reconstruct`],
//! [`Pipeline::replay`], [`Pipeline::group`], [`Pipeline::infer`] and
//! [`Pipeline::stats`] all read its columns *in place*. For a
//! single-block file (the kind every whole-trace write produces) that
//! means the page cache itself; a multi-block file was copied out once,
//! when it was opened. Only the terminals that must own the input trace
//! copy a mapping: a stage-less [`Pipeline::collect`],
//! [`Pipeline::verify`], and a stage-less [`Pipeline::write_path`] to
//! `.ttb`. Stage-less analysis of a `.ttb` *path* maps the file
//! ([`tt_trace::MmapTrace`]) and reads it the same way; a staged run over
//! a `.ttb` path bulk-reads it. Results are bit-identical on every path.
//!
//! # Examples
//!
//! Revive an old trace on a flash array and collect the result:
//!
//! ```
//! use tracetracker::prelude::*;
//!
//! let entry = catalog::find("MSNFS").unwrap();
//! let session = generate_session("MSNFS", &entry.profile, 300, 7);
//! let mut old_node = presets::enterprise_hdd_2007();
//! let old = session.materialize(&mut old_node, false).trace;
//!
//! let mut new_node = presets::intel_750_array();
//! let revived = Pipeline::from_trace_ref(&old)
//!     .reconstruct(&mut new_node, TraceTracker::new())
//!     .collect()
//!     .unwrap();
//! assert_eq!(revived.len(), old.len());
//! ```

use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tt_core::{infer, verify_injection, InferenceConfig, InferenceResult, Reconstructor};
use tt_device::BlockDevice;
use tt_par::telemetry::FlightRecorder;
use tt_sim::{replay_into, ReplayConfig, Schedule, StreamReplay};
use tt_trace::sink::{ChunkBuffer, RecordSink, SinkStats, TraceSink};
use tt_trace::source::{collect_source, RecordSource, DEFAULT_CHUNK};
use tt_trace::time::SimDuration;
use tt_trace::tolerant::{ErrorPolicy, TolerantSource};
use tt_trace::{
    format, Columns, GroupedTrace, MmapTrace, Trace, TraceError, TraceMeta, TraceStats,
};

pub use crate::multi_pipeline::MultiPipeline;

/// Where a pipeline's records come from.
enum Input<'env> {
    /// A trace file, format detected by extension at execution time.
    Path(PathBuf),
    /// Any streaming source, with the metadata the collected trace carries.
    Source {
        source: Box<dyn RecordSource + 'env>,
        meta: TraceMeta,
    },
    /// A trace or a mapping, ready to read with nothing to load.
    Ready(Analysed<'env>),
}

/// A record-transform stage.
enum Stage<'env> {
    /// Reconstruction: old trace + target device → new trace.
    Reconstruct {
        device: &'env mut dyn BlockDevice,
        method: Box<dyn Reconstructor + 'env>,
    },
    /// Replay: re-issue the request stream against a device.
    Replay {
        device: &'env mut dyn BlockDevice,
        mode: StreamReplay,
    },
}

impl Stage<'_> {
    /// The stage's label in flight logs and `Debug` output.
    fn label(&self) -> &'static str {
        match self {
            Stage::Reconstruct { .. } => "reconstruct",
            Stage::Replay { .. } => "replay",
        }
    }
}

/// A composable trace pipeline: input → transform stages → terminal.
///
/// See the crate-level docs for the overall shape. The builder is
/// consumed by its terminal; configuration methods
/// ([`Pipeline::chunk_size`], [`Pipeline::on_error`]) apply to the whole
/// run.
#[must_use = "a Pipeline does nothing until a terminal (collect/write_to/…) runs it"]
pub struct Pipeline<'env> {
    input: Input<'env>,
    stages: Vec<Stage<'env>>,
    chunk: usize,
    recorder: Option<Arc<FlightRecorder>>,
    on_error: ErrorPolicy,
}

impl std::fmt::Debug for Pipeline<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let input = match &self.input {
            Input::Path(p) => format!("path {}", p.display()),
            Input::Source { meta, .. } => format!("source {:?}", meta.name),
            Input::Ready(input) => format!("{:?} ({} records)", input.meta().name, input.len()),
        };
        let stages: Vec<&str> = self.stages.iter().map(Stage::label).collect();
        f.debug_struct("Pipeline")
            .field("input", &input)
            .field("stages", &stages)
            .field("chunk", &self.chunk)
            .finish()
    }
}

impl<'env> Pipeline<'env> {
    fn new(input: Input<'env>) -> Self {
        Pipeline {
            input,
            stages: Vec::new(),
            chunk: DEFAULT_CHUNK,
            recorder: None,
            on_error: ErrorPolicy::Abort,
        }
    }

    /// Starts a pipeline from a trace file; the format is detected from
    /// the extension (`.csv`/`.txt`/`.trace` for CSV, `.blk` for blkparse
    /// text, `.ttb` for the binary columnar format), and the file is read
    /// at execution time — text formats parse chunk-by-chunk, TTB is
    /// bulk-read straight into the columnar store.
    pub fn from_path(path: impl AsRef<Path>) -> Self {
        Pipeline::new(Input::Path(path.as_ref().to_path_buf()))
    }

    /// Starts a pipeline from any [`RecordSource`]; `name` becomes the
    /// collected trace's name.
    pub fn from_source(source: impl RecordSource + 'env, name: impl Into<String>) -> Self {
        let meta = TraceMeta::named(name).with_source(source.source_name());
        Pipeline::new(Input::Source {
            source: Box::new(source),
            meta,
        })
    }

    /// Starts a pipeline from an already-materialised trace.
    pub fn from_trace(trace: Trace) -> Self {
        Pipeline::new(Input::Ready(Analysed::Owned(trace)))
    }

    /// Starts a pipeline from a *borrowed* trace: analysis terminals and
    /// every stage read it without copying it (only a no-stage
    /// [`Pipeline::collect`] clones, since it must return an owned trace).
    /// Prefer this over `from_trace(trace.clone())` when the caller keeps
    /// using the trace — for the multi-GB traces this API targets, the
    /// clone doubles peak memory.
    pub fn from_trace_ref(trace: &'env Trace) -> Self {
        Pipeline::new(Input::Ready(Analysed::Borrowed(trace)))
    }

    /// Starts a pipeline from a *borrowed, already-open* mapping — the
    /// resident-service shape: a long-running process (`tt-serve`) opens
    /// each `.ttb` once ([`MmapTrace::open`], typically cached in a
    /// [`tt_trace::MmapRegistry`]) and then builds a fresh per-request
    /// pipeline over the shared mapping for every query.
    ///
    /// The **analysis terminals** ([`Pipeline::group`],
    /// [`Pipeline::infer`], [`Pipeline::stats`]) and the **transform
    /// stages** ([`Pipeline::reconstruct`], [`Pipeline::replay`]) read the
    /// mapped columns in place — no copy, no re-validation, and any number
    /// of concurrent pipelines may share one mapping (the
    /// [`tt_trace::Columns`] borrow model guarantees aliasing safety;
    /// results are bit-identical to a single reader, property-tested). A
    /// staged run still logs a `load` stage, holding the input's record
    /// count and next to no wall clock. Only the terminals that must own
    /// the input trace copy the mapped columns out
    /// ([`MmapTrace::to_trace`]): a stage-less [`Pipeline::collect`],
    /// [`Pipeline::verify`] (idle injection writes into the trace), and a
    /// stage-less [`Pipeline::write_path`] to a `.ttb` file — results are
    /// bit-identical on every path.
    pub fn from_mapped(mapped: &'env MmapTrace) -> Self {
        Pipeline::new(Input::Ready(Analysed::Shared(mapped)))
    }

    /// Sets the records-per-chunk used by streaming reads and writes
    /// (default [`DEFAULT_CHUNK`], clamped to at least 1).
    pub fn chunk_size(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Does nothing: chains always run stage at a time, each stage but the
    /// last materialising its whole output trace before the next starts
    /// (see the module docs). Kept so existing callers still compile.
    pub fn materialize(self) -> Self {
        self
    }

    /// Attaches a **flight recorder**: when the terminal runs, the
    /// recorder collects each stage's wall clock (a monotonic clock taken
    /// around the stage) and record count. Read the result with
    /// [`FlightRecorder::flight_log`] after the terminal returns.
    ///
    /// Recording only observes — outputs are **bit-identical** with the
    /// recorder on or off (property-tested), and the bench `recorder`
    /// lane reports its overhead. See [`tt_par::telemetry`] for the exact
    /// recording contract.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use tracetracker::prelude::*;
    /// use tracetracker::FlightRecorder;
    ///
    /// let entry = catalog::find("MSNFS").unwrap();
    /// let session = generate_session("MSNFS", &entry.profile, 300, 7);
    /// let mut node = presets::enterprise_hdd_2007();
    /// let old = session.materialize(&mut node, false).trace;
    ///
    /// let mut ssd = presets::intel_750_array();
    /// let mut fast = presets::intel_750_array();
    /// let recorder = Arc::new(FlightRecorder::new());
    /// Pipeline::from_trace_ref(&old)
    ///     .reconstruct(&mut ssd, TraceTracker::new())
    ///     .replay(&mut fast, StreamReplay::ClosedLoop)
    ///     .flight_recorder(&recorder)
    ///     .collect()
    ///     .unwrap();
    /// let log = recorder.flight_log();
    /// assert_eq!(log.stages.len(), 3); // load + reconstruct + replay
    /// for stage in &log.stages {
    ///     assert_eq!(stage.records, old.len());
    /// }
    /// ```
    pub fn flight_recorder(mut self, recorder: &Arc<FlightRecorder>) -> Self {
        self.recorder = Some(Arc::clone(recorder));
        self
    }

    /// Sets the pipeline's **error budget**: how malformed input records
    /// are handled when a text-format input (CSV / blkparse) is decoded.
    ///
    /// The default, [`ErrorPolicy::Abort`], keeps today's behaviour — any
    /// decode error fails the run. [`ErrorPolicy::Skip`] (`skip:N` on the
    /// CLI) tolerates up to `N` malformed records, logging each with its
    /// 1-based line number into the policy's [`QuarantineLog`]
    /// (keep a clone of the policy to read the report);
    /// [`ErrorPolicy::Quarantine`] is an unlimited budget. Only
    /// *recoverable* per-record parse errors are subject to the policy —
    /// I/O errors, structural format errors, and invariant violations
    /// always abort. Binary TTB inputs and in-memory inputs have no
    /// per-record decode step, so the knob is a no-op for them.
    ///
    /// The surviving records are exactly the clean subset of the input:
    /// a tolerant run over a dirty file is bit-identical to an abort run
    /// over the same file with the bad lines deleted (property-tested).
    ///
    /// [`QuarantineLog`]: tt_trace::tolerant::QuarantineLog
    pub fn on_error(mut self, policy: ErrorPolicy) -> Self {
        self.on_error = policy;
        self
    }

    /// Starts a **multi-stream** pipeline from several trace files (format
    /// by extension, each streamed chunk by chunk), for a shared-device
    /// replay or a merge. Stream order fixes the stream indices and the
    /// tie-break rank on duplicate arrivals. See [`MultiPipeline`].
    pub fn from_paths<P: AsRef<Path>>(paths: impl IntoIterator<Item = P>) -> MultiPipeline<'env> {
        MultiPipeline::from_paths(paths)
    }

    /// Starts a multi-stream pipeline from *borrowed* traces — no copies;
    /// the streams read straight off the columns. See [`MultiPipeline`].
    pub fn from_trace_refs(traces: &'env [Trace]) -> MultiPipeline<'env> {
        MultiPipeline::from_trace_refs(traces)
    }

    /// Appends a reconstruction stage: the current trace is treated as the
    /// *old* workload and re-targeted to `device` with `method`
    /// ([`TraceTracker`](tt_core::TraceTracker) and friends). When this is
    /// the final stage before a sink terminal, records stream into the
    /// sink as the simulated device produces them.
    pub fn reconstruct(
        mut self,
        device: &'env mut dyn BlockDevice,
        method: impl Reconstructor + 'env,
    ) -> Self {
        self.stages.push(Stage::Reconstruct {
            device,
            method: Box::new(method),
        });
        self
    }

    /// Appends a replay stage: the current request stream is re-issued
    /// against `device` open- or closed-loop ([`StreamReplay`]), collecting
    /// the serviced trace blktrace-style. The device is **not** reset
    /// first — a warm cache/head position can be intentional, matching
    /// [`tt_sim::replay`].
    pub fn replay(mut self, device: &'env mut dyn BlockDevice, mode: StreamReplay) -> Self {
        self.stages.push(Stage::Replay { device, mode });
        self
    }

    /// Resolves the input (loading a file or source; a caller's trace or
    /// mapping is only borrowed), and returns it with the stages and
    /// resolved execution knobs.
    fn load_input(self) -> Result<(Analysed<'env>, Vec<Stage<'env>>, Exec), TraceError> {
        let load_started = Instant::now();
        let policy = self.on_error;
        let input = match self.input {
            Input::Path(path) => {
                let tolerant_text = !policy.is_abort()
                    && format::TraceFormat::from_path(&path)
                        .is_ok_and(|f| f != format::TraceFormat::Ttb);
                if tolerant_text {
                    // Error-budget decode: stream the text format through a
                    // TolerantSource so malformed lines are skipped (and
                    // quarantined) instead of failing the run. TTB is
                    // binary-columnar — no per-record decode to tolerate —
                    // so it stays on the bulk path below.
                    let meta = format::meta_for_path(&path)?;
                    let source =
                        format::open_source(&path).map_err(|e| with_path_context(e, &path))?;
                    let mut tolerant = TolerantSource::new(source, policy);
                    Analysed::Owned(
                        collect_source(&mut tolerant, meta, self.chunk)
                            .map_err(|e| with_path_context(e, &path))?,
                    )
                } else {
                    // `load_trace` takes the fastest per-format route: TTB
                    // is bulk-read straight into the columns, text formats
                    // stream through their RecordSource.
                    Analysed::Owned(
                        format::load_trace(&path, self.chunk)
                            .map_err(|e| with_path_context(e, &path))?,
                    )
                }
            }
            Input::Source { mut source, meta } => {
                if policy.is_abort() {
                    Analysed::Owned(collect_source(&mut *source, meta, self.chunk)?)
                } else {
                    let mut tolerant = TolerantSource::new(source, policy);
                    Analysed::Owned(collect_source(&mut tolerant, meta, self.chunk)?)
                }
            }
            // A trace or a mapping is read where it lies; only the owning
            // terminals copy it.
            Input::Ready(input) => input,
        };
        if let Some(rec) = &self.recorder {
            rec.record_stage(0, "load", load_started.elapsed(), input.len());
            rec.set_knobs(self.chunk);
        }
        Ok((
            input,
            self.stages,
            Exec {
                chunk: self.chunk,
                recorder: self.recorder,
            },
        ))
    }

    /// Runs the whole pipeline into memory, keeping the resolved input
    /// as it is when no stage touched it — the zero-copy path behind the
    /// analysis terminals. Staged pipelines run through [`execute`] into
    /// an in-memory sink sized for the input's record count, whose
    /// metadata matches what the stages would have produced themselves.
    fn collect_ref(self) -> Result<Analysed<'env>, TraceError> {
        let (input, stages, exec) = self.load_input()?;
        let Some(last) = stages.last() else {
            return Ok(input);
        };
        let meta = final_meta(&input.meta().name, last);
        let mut sink = TraceSink::with_capacity(meta, input.len());
        execute(&input, stages, &mut sink, &exec)?;
        Ok(Analysed::Owned(sink.into_trace()))
    }

    /// Runs the pipeline, materialising the final trace in memory.
    ///
    /// # Errors
    ///
    /// Propagates input [`TraceError`]s (open, parse, format detection).
    pub fn collect(self) -> Result<Trace, TraceError> {
        let recorder = self.recorder.clone();
        if let Some(rec) = &recorder {
            rec.begin();
        }
        let collected = self.collect_ref()?.into_trace();
        if let Some(rec) = &recorder {
            rec.finish();
        }
        Ok(collected)
    }

    /// Runs the pipeline, streaming the final records into `sink` chunk by
    /// chunk. Every stage but the last hands its whole output trace to the
    /// next, so a chain holds at most two traces at once: a stage's input
    /// and its output (see the module docs). Returns push statistics
    /// (record count, first/last arrival).
    ///
    /// # Errors
    ///
    /// Propagates input and sink [`TraceError`]s.
    pub fn write_to(self, sink: &mut dyn RecordSink) -> Result<SinkStats, TraceError> {
        let recorder = self.recorder.clone();
        if let Some(rec) = &recorder {
            rec.begin();
        }
        let (input, stages, exec) = self.load_input()?;
        let stats = execute(&input, stages, sink, &exec)?;
        if let Some(rec) = &recorder {
            rec.finish();
        }
        Ok(stats)
    }

    /// Runs the pipeline, streaming the final records into the trace file
    /// at `path` (format by extension) — [`Pipeline::write_to`] with the
    /// sink opened for you.
    ///
    /// # Errors
    ///
    /// Propagates input, format-detection, and I/O [`TraceError`]s.
    pub fn write_path(self, path: impl AsRef<Path>) -> Result<SinkStats, TraceError> {
        // Validate the output format before any work: a typo'd extension
        // must fail in microseconds, not after parsing and reconstructing
        // a multi-GB input.
        let out_format = format::TraceFormat::from_path(path.as_ref())?;
        let recorder = self.recorder.clone();
        if let Some(rec) = &recorder {
            rec.begin();
        }
        let (input, stages, exec) = self.load_input()?;
        if stages.is_empty() && out_format == format::TraceFormat::Ttb {
            // Columnar fast path: a stage-less pipeline ending in TTB moves
            // the store's columns out in bulk — no row is ever assembled.
            let write_started = Instant::now();
            let trace = input.to_trace();
            let stats = SinkStats {
                records: trace.len(),
                first: trace.start(),
                last: trace.end(),
            };
            format::save_trace(&trace, path, exec.chunk)?;
            if let Some(rec) = &recorder {
                rec.record_stage(1, "write", write_started.elapsed(), stats.records);
                rec.finish();
            }
            return Ok(stats);
        }
        // Reconstruction and replay both name their output after the input
        // trace, so the sink's name (the CSV header) is known up front.
        let mut sink = format::create_sink(path, &input.meta().name)?;
        let stats = execute(&input, stages, &mut *sink, &exec)?;
        if let Some(rec) = &recorder {
            rec.finish();
        }
        Ok(stats)
    }

    /// Terminal: partitions the final trace by (sequentiality × op × size)
    /// — the paper's §III grouping.
    ///
    /// # Errors
    ///
    /// Propagates input [`TraceError`]s.
    pub fn group(self) -> Result<GroupedTrace, TraceError> {
        self.analyse("group", |cols| GroupedTrace::build(cols))
    }

    /// Terminal: runs the paper's timing inference on the final trace.
    ///
    /// # Errors
    ///
    /// Propagates input [`TraceError`]s.
    pub fn infer(self, config: &InferenceConfig) -> Result<InferenceResult, TraceError> {
        self.analyse("infer", |cols| infer(cols, config))
    }

    /// Terminal: Table-I style summary statistics of the final trace.
    ///
    /// # Errors
    ///
    /// Propagates input [`TraceError`]s.
    pub fn stats(self) -> Result<TraceStats, TraceError> {
        self.analyse("stats", |cols| TraceStats::compute(cols))
    }

    /// Terminal: the paper's §V-A injected-idle verification on the final
    /// trace. Injection writes into a copy of the trace, so this terminal
    /// reads an owned one: a `.ttb` path is bulk-read and a mapping
    /// ([`Pipeline::from_mapped`]) copied out (the copy is booked to this
    /// terminal's stage), with results identical on every path.
    ///
    /// # Errors
    ///
    /// Propagates input [`TraceError`]s.
    pub fn verify(
        self,
        period: SimDuration,
        config: &tt_core::VerifyConfig,
    ) -> Result<tt_core::InjectionVerification, TraceError> {
        let recorder = self.begin_analysis();
        let input = self.collect_ref()?;
        let started = Instant::now();
        let trace = input.to_trace();
        let out = verify_injection(&trace, period, config);
        record_terminal(&recorder, "verify", started, trace.len());
        Ok(out)
    }

    /// The one input-resolution step of the column terminals, which then
    /// run `pass` over the resolved columns as the run's terminal stage. A
    /// stage-less run over a mapping reads the mapped columns in place:
    /// the caller's ([`Pipeline::from_mapped`]), or a `.ttb` path's, mapped
    /// here and recorded as the "load" stage. Any other run loads its
    /// input and runs its stages first.
    fn analyse<T>(self, label: &str, pass: impl FnOnce(Columns<'_>) -> T) -> Result<T, TraceError> {
        let recorder = self.begin_analysis();
        let started = Instant::now();
        let input = match &self.input {
            Input::Ready(Analysed::Shared(mapped)) if self.stages.is_empty() => {
                Analysed::Shared(mapped)
            }
            Input::Path(path)
                if self.stages.is_empty()
                    && format::TraceFormat::from_path(path) == Ok(format::TraceFormat::Ttb) =>
            {
                let mapped = MmapTrace::open(path).map_err(|e| with_path_context(e, path))?;
                if let Some(rec) = &recorder {
                    rec.record_stage(0, "load", started.elapsed(), mapped.len());
                }
                Analysed::Mapped(mapped)
            }
            _ => self.collect_ref()?,
        };
        let cols = input.columns();
        let started = Instant::now();
        let out = pass(cols);
        record_terminal(&recorder, label, started, cols.len());
        Ok(out)
    }

    /// Opens a recorder run for an analysis terminal, stamping the knobs.
    /// Returns the recorder handle for the terminal's own stage.
    fn begin_analysis(&self) -> Option<Arc<FlightRecorder>> {
        let recorder = self.recorder.clone();
        if let Some(rec) = &recorder {
            rec.begin();
            rec.set_knobs(self.chunk);
        }
        recorder
    }
}

/// A resolved input: whatever the pipeline started from, it lends one
/// column view and the trace metadata, so the transform stages and the
/// column terminals read it where it lies. Only the owning terminals copy
/// a mapping ([`Analysed::to_trace`]).
enum Analysed<'env> {
    /// A caller's mapping ([`Pipeline::from_mapped`]).
    Shared(&'env MmapTrace),
    /// A `.ttb` path mapped for a stage-less column terminal.
    Mapped(MmapTrace),
    /// A caller's trace ([`Pipeline::from_trace_ref`]).
    Borrowed(&'env Trace),
    /// A trace the run owns: given, loaded, or a stage's output.
    Owned(Trace),
}

impl Analysed<'_> {
    fn columns(&self) -> Columns<'_> {
        match self {
            Analysed::Shared(mapped) => mapped.columns(),
            Analysed::Mapped(mapped) => mapped.columns(),
            Analysed::Borrowed(trace) => trace.view(),
            Analysed::Owned(trace) => trace.view(),
        }
    }

    fn meta(&self) -> &TraceMeta {
        match self {
            Analysed::Shared(mapped) => mapped.meta(),
            Analysed::Mapped(mapped) => mapped.meta(),
            Analysed::Borrowed(trace) => trace.meta(),
            Analysed::Owned(trace) => trace.meta(),
        }
    }

    fn len(&self) -> usize {
        self.columns().len()
    }

    /// The input as a trace, for the terminals that need one: a trace is
    /// lent as it is, and a mapping is copied out ([`MmapTrace::to_trace`]).
    fn to_trace(&self) -> Cow<'_, Trace> {
        match self {
            Analysed::Shared(mapped) => Cow::Owned(mapped.to_trace()),
            Analysed::Mapped(mapped) => Cow::Owned(mapped.to_trace()),
            Analysed::Borrowed(trace) => Cow::Borrowed(trace),
            Analysed::Owned(trace) => Cow::Borrowed(trace),
        }
    }

    /// The input as an owned trace ([`Pipeline::collect`]).
    fn into_trace(self) -> Trace {
        match self {
            Analysed::Owned(trace) => trace,
            other => other.to_trace().into_owned(),
        }
    }
}

/// Records a terminal's own stage and closes the run — `usize::MAX`
/// orders it after every load/transform stage.
pub(crate) fn record_terminal(
    recorder: &Option<Arc<FlightRecorder>>,
    label: &str,
    started: Instant,
    records: usize,
) {
    if let Some(rec) = recorder {
        rec.record_stage(usize::MAX, label, started.elapsed(), records);
        rec.finish();
    }
}

/// Prefixes errors raised while reading a file with the file they came
/// from — parser errors only know line numbers and mid-read I/O errors
/// nothing at all, which is useless across multiple inputs. Errors that
/// already name the path (file-open failures do) are left alone.
pub(crate) fn with_path_context(err: TraceError, path: &Path) -> TraceError {
    let p = path.display().to_string();
    let prefix = |message: String| {
        if message.contains(&p) {
            message
        } else {
            format!("{p}: {message}")
        }
    };
    match err {
        TraceError::Parse { message, line } => TraceError::Parse {
            message: prefix(message),
            line,
        },
        TraceError::InvalidRecord { index, message } => TraceError::InvalidRecord {
            index,
            message: prefix(message),
        },
        TraceError::Io(message) => TraceError::Io(prefix(message)),
        other => other,
    }
}

/// Streams a replay of `cols` under `mode` into `sink` — the one replay
/// helper behind both a mid-chain and a final replay stage, so the
/// closed/open-loop semantics stay defined in exactly one place
/// ([`Schedule::closed_loop_ops`] / [`Schedule::open_loop_ops`]).
fn replay_stage_into(
    device: &mut dyn BlockDevice,
    cols: Columns<'_>,
    mode: StreamReplay,
    sink: &mut dyn RecordSink,
    chunk: usize,
) -> Result<SinkStats, TraceError> {
    mode.check_span(cols.span())?;
    let config = ReplayConfig::default();
    let out = match mode {
        StreamReplay::ClosedLoop => {
            replay_into(device, Schedule::closed_loop_ops(cols), config, sink, chunk)?
        }
        StreamReplay::OpenLoop { time_scale } => replay_into(
            device,
            Schedule::open_loop_ops(cols, time_scale),
            config,
            sink,
            chunk,
        )?,
    };
    Ok(out.stats)
}

/// Runs one mid-chain stage over `cols`, materialising its output trace
/// for the next. Both stages emit at most one record per input record, so
/// the output store is sized from the input and never regrows. The sink is
/// in-memory, but a faulty device with an abort policy can still fail a
/// replay — that error propagates.
fn run_stage(
    cols: Columns<'_>,
    name: &str,
    stage: Stage<'_>,
    chunk: usize,
) -> Result<Trace, TraceError> {
    let mut sink = TraceSink::with_capacity(final_meta(name, &stage), cols.len());
    write_stage(cols, Some(stage), &mut sink, chunk)?;
    Ok(sink.into_trace())
}

/// Runs the final stage over `cols`, streamed into `sink` (or drains the
/// columns when no stage is left).
fn write_stage(
    cols: Columns<'_>,
    last: Option<Stage<'_>>,
    sink: &mut dyn RecordSink,
    chunk: usize,
) -> Result<SinkStats, TraceError> {
    match last {
        None => {
            let mut out = ChunkBuffer::new(sink, chunk);
            for rec in cols.iter() {
                out.push(rec)?;
            }
            out.finish()
        }
        Some(Stage::Reconstruct { device, method }) => {
            method.reconstruct_into(cols, device, sink, chunk)
        }
        Some(Stage::Replay { device, mode }) => replay_stage_into(device, cols, mode, sink, chunk),
    }
}

/// The metadata a stage gives its output, provenance included: every
/// stage names its output after the pipeline's input trace.
fn final_meta(name: &str, stage: &Stage<'_>) -> TraceMeta {
    match stage {
        Stage::Reconstruct { method, .. } => {
            TraceMeta::named(name).with_source(method.source_label())
        }
        Stage::Replay { .. } => TraceMeta::named(name).with_source("tt-sim collector"),
    }
}

/// The resolved execution knobs a terminal hands the executor — what the
/// builder's knob methods boil down to.
struct Exec {
    chunk: usize,
    recorder: Option<Arc<FlightRecorder>>,
}

/// The one executor behind every sink-terminated run
/// ([`Pipeline::write_to`], [`Pipeline::write_path`], and the staged
/// [`Pipeline::collect`] path): the first stage reads the resolved input
/// in place, every stage but the last runs to completion on the previous
/// stage's output trace, and the last streams into `sink`.
fn execute(
    input: &Analysed<'_>,
    mut stages: Vec<Stage<'_>>,
    sink: &mut dyn RecordSink,
    exec: &Exec,
) -> Result<SinkStats, TraceError> {
    let name = &input.meta().name;
    let last = stages.pop();
    // The previous stage's output, once a stage has run.
    let mut staged: Option<Trace> = None;
    let mut index = 1;
    for stage in stages {
        let label = stage.label();
        let cols = staged.as_ref().map_or_else(|| input.columns(), Trace::view);
        let started = Instant::now();
        let out = run_stage(cols, name, stage, exec.chunk)?;
        if let Some(rec) = &exec.recorder {
            rec.record_stage(index, label, started.elapsed(), out.len());
        }
        staged = Some(out);
        index += 1;
    }
    let cols = staged.as_ref().map_or_else(|| input.columns(), Trace::view);
    let label = last.as_ref().map_or("write", Stage::label);
    let started = Instant::now();
    let stats = write_stage(cols, last, sink, exec.chunk)?;
    if let Some(rec) = &exec.recorder {
        rec.record_stage(index, label, started.elapsed(), stats.records);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_core::{Revision, TraceTracker};
    use tt_device::presets;
    use tt_sim::{replay, Schedule};
    use tt_trace::format::csv::CsvSink;
    use tt_trace::time::SimInstant;
    use tt_trace::{BlockRecord, OpType};
    use tt_workloads::{catalog, generate_session};

    fn old_trace(n: usize, seed: u64) -> Trace {
        let entry = catalog::find("MSNFS").unwrap();
        let session = generate_session("MSNFS", &entry.profile, n, seed);
        let mut node = presets::enterprise_hdd_2007();
        session.materialize(&mut node, false).trace
    }

    #[test]
    fn collect_equals_free_function_reconstruct() {
        let old = old_trace(300, 5);
        let mut d1 = presets::intel_750_array();
        let mut d2 = presets::intel_750_array();
        let direct = TraceTracker::new().reconstruct(&old, &mut d1);
        let piped = Pipeline::from_trace(old)
            .reconstruct(&mut d2, TraceTracker::new())
            .collect()
            .unwrap();
        assert_eq!(piped, direct);
    }

    #[test]
    fn write_to_streams_the_same_bytes_as_write_csv() {
        let old = old_trace(300, 6);
        let mut d1 = presets::intel_750_array();
        let mut d2 = presets::intel_750_array();

        let direct = Revision::new().reconstruct(&old, &mut d1);
        let mut whole = Vec::new();
        tt_trace::format::csv::write_csv(&direct, &mut whole).unwrap();

        let mut streamed = Vec::new();
        let stats = Pipeline::from_trace(old)
            .chunk_size(17)
            .reconstruct(&mut d2, Revision::new())
            .write_to(&mut CsvSink::new(&mut streamed, direct.meta().name.clone()))
            .unwrap();
        assert_eq!(stats.records, direct.len());
        assert_eq!(streamed, whole);
    }

    #[test]
    fn replay_stage_equals_schedule_replay() {
        let old = old_trace(200, 7);
        let mut d1 = presets::intel_750_array();
        let mut d2 = presets::intel_750_array();
        let direct = replay(
            &mut d1,
            &Schedule::open_loop(&old, 1.0),
            &old.meta().name,
            ReplayConfig::default(),
        );
        let piped = Pipeline::from_trace(old)
            .replay(&mut d2, StreamReplay::OpenLoop { time_scale: 1.0 })
            .collect()
            .unwrap();
        assert_eq!(piped.columns(), direct.trace.columns());
    }

    #[test]
    fn single_stream_replay_rejects_a_time_scale_past_the_clock() {
        let old = old_trace(50, 7);
        let err = Pipeline::from_trace_ref(&old)
            .replay(
                &mut presets::intel_750_array(),
                StreamReplay::OpenLoop { time_scale: 1e300 },
            )
            .collect()
            .unwrap_err();
        assert!(err.to_string().contains("time-scale"), "{err}");
    }

    #[test]
    fn concurrent_replay_rejects_a_time_scale_past_the_clock() {
        let traces = [old_trace(50, 7), old_trace(50, 8)];
        let err = Pipeline::from_trace_refs(&traces)
            .replay_concurrent(
                &mut presets::intel_750_array(),
                StreamReplay::OpenLoop { time_scale: 1e300 },
            )
            .unwrap_err();
        assert!(err.to_string().contains("time-scale"), "{err}");
    }

    #[test]
    fn passthrough_write_sorts_like_the_loaders() {
        // Unsorted source input: the pipeline must produce the same bytes
        // as collect-then-write (which sorts).
        let recs = vec![
            BlockRecord::new(SimInstant::from_usecs(30), 0, 8, OpType::Read),
            BlockRecord::new(SimInstant::from_usecs(10), 8, 8, OpType::Write),
        ];
        let trace = Trace::from_records(TraceMeta::named("x"), recs.clone());
        let mut whole = Vec::new();
        tt_trace::format::csv::write_csv(&trace, &mut whole).unwrap();

        let mut streamed = Vec::new();
        let stats = Pipeline::from_source(tt_trace::source::VecSource::new(recs), "x")
            .write_to(&mut CsvSink::new(&mut streamed, "x"))
            .unwrap();
        assert_eq!(stats.records, 2);
        assert_eq!(streamed, whole);
    }

    #[test]
    fn from_trace_ref_matches_from_trace() {
        let old = old_trace(200, 10);
        let mut d1 = presets::intel_750_array();
        let mut d2 = presets::intel_750_array();
        let owned = Pipeline::from_trace(old.clone())
            .reconstruct(&mut d1, TraceTracker::new())
            .collect()
            .unwrap();
        let borrowed = Pipeline::from_trace_ref(&old)
            .reconstruct(&mut d2, TraceTracker::new())
            .collect()
            .unwrap();
        assert_eq!(owned, borrowed);
        // The borrowed input is untouched and still usable.
        assert_eq!(old.len(), 200);
    }

    #[test]
    fn ttb_write_path_and_from_path_round_trip() {
        // The stage-less TTB fast path (bulk columnar write) and the TTB
        // bulk load must agree with the in-memory trace exactly.
        let old = old_trace(300, 12);
        let path = std::env::temp_dir().join("tt_pipeline_cache.ttb");
        let stats = Pipeline::from_trace_ref(&old).write_path(&path).unwrap();
        assert_eq!(stats.records, old.len());
        assert_eq!(stats.first, old.start());
        let back = Pipeline::from_path(&path).collect().unwrap();
        assert_eq!(back.columns(), old.columns());
        assert_eq!(back.meta().source, "ttb");

        // A staged pipeline ending in .ttb streams through TtbSink and
        // decodes to the same records as the materialised equivalent.
        let mut d1 = presets::intel_750_array();
        let mut d2 = presets::intel_750_array();
        let staged = std::env::temp_dir().join("tt_pipeline_staged.ttb");
        Pipeline::from_trace_ref(&old)
            .chunk_size(17)
            .reconstruct(&mut d1, TraceTracker::new())
            .write_path(&staged)
            .unwrap();
        let direct = TraceTracker::new().reconstruct(&old, &mut d2);
        let streamed = Pipeline::from_path(&staged).collect().unwrap();
        assert_eq!(streamed.columns(), direct.columns());

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&staged).ok();
    }

    #[test]
    fn ttb_analysis_terminals_map_the_file_and_match_every_path() {
        let old = old_trace(300, 13);
        let path = std::env::temp_dir().join("tt_pipeline_mmap.ttb");
        Pipeline::from_trace_ref(&old).write_path(&path).unwrap();

        let cfg = InferenceConfig::default();
        // In-memory, mapped, and bulk-loaded paths must agree exactly on
        // every analysis terminal.
        let bulk = format::load_trace(&path, DEFAULT_CHUNK).unwrap();
        let g_mem = Pipeline::from_trace_ref(&old).group().unwrap();
        assert_eq!(Pipeline::from_path(&path).group().unwrap(), g_mem);
        assert_eq!(Pipeline::from_trace_ref(&bulk).group().unwrap(), g_mem);

        let s_mem = Pipeline::from_trace_ref(&old).stats().unwrap();
        assert_eq!(Pipeline::from_path(&path).stats().unwrap(), s_mem);
        assert_eq!(Pipeline::from_trace_ref(&bulk).stats().unwrap(), s_mem);

        let i_mem = Pipeline::from_trace_ref(&old).infer(&cfg).unwrap();
        assert_eq!(Pipeline::from_path(&path).infer(&cfg).unwrap(), i_mem);
        assert_eq!(Pipeline::from_trace_ref(&bulk).infer(&cfg).unwrap(), i_mem);

        let vcfg = tt_core::VerifyConfig::default();
        let period = SimDuration::from_msecs(10);
        let v_mem = Pipeline::from_trace_ref(&old)
            .verify(period, &vcfg)
            .unwrap();
        let v_map = Pipeline::from_path(&path).verify(period, &vcfg).unwrap();
        assert_eq!(v_map, v_mem);

        // A corrupt file errors from the mapped terminal exactly as from
        // the bulk load, path context included.
        let mut bytes = std::fs::read(&path).unwrap();
        let cut = bytes.len() / 2;
        bytes.truncate(cut);
        let bad = std::env::temp_dir().join("tt_pipeline_mmap_bad.ttb");
        std::fs::write(&bad, &bytes).unwrap();
        let e_map = Pipeline::from_path(&bad).stats().unwrap_err().to_string();
        let e_bulk = Pipeline::from_path(&bad).collect().unwrap_err().to_string();
        assert_eq!(e_map, e_bulk);
        assert!(e_map.contains("truncated TTB file"), "{e_map}");
        assert!(e_map.contains("tt_pipeline_mmap_bad.ttb"), "{e_map}");

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn write_path_rejects_bad_extensions_before_any_work() {
        let old = old_trace(50, 11);
        let mut dev = presets::intel_750_array();
        let err = Pipeline::from_trace_ref(&old)
            .reconstruct(&mut dev, TraceTracker::new())
            .write_path("/tmp/tt_pipeline_out.parquet")
            .err()
            .unwrap();
        assert!(err.to_string().contains("parquet"), "{err}");
        assert!(!std::path::Path::new("/tmp/tt_pipeline_out.parquet").exists());
    }

    #[test]
    fn parse_errors_name_the_file() {
        let path = std::env::temp_dir().join("tt_pipeline_bad.csv");
        std::fs::write(&path, "not a valid line\n").unwrap();
        let good = std::env::temp_dir().join("tt_pipeline_good.csv");
        Pipeline::from_trace(old_trace(20, 9))
            .write_path(&good)
            .unwrap();
        let paths = [&good, &path];
        let errors = [
            Pipeline::from_path(&path).collect().err().unwrap(),
            Pipeline::from_paths(paths)
                .replay_concurrent(&mut presets::intel_750_array(), StreamReplay::ClosedLoop)
                .err()
                .unwrap(),
            Pipeline::from_paths(paths).collect_merged().err().unwrap(),
        ];
        for err in errors {
            let msg = err.to_string();
            assert!(msg.contains("tt_pipeline_bad.csv"), "{msg}");
            assert!(msg.contains("line 1"), "{msg}");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&good).ok();
    }

    #[test]
    fn open_errors_name_the_file_exactly_once() {
        // File-open failures already embed the path; the pipeline's error
        // context must not prefix it a second time.
        let err = Pipeline::from_path("/definitely/not/here.csv")
            .collect()
            .err()
            .unwrap();
        let msg = err.to_string();
        assert_eq!(msg.matches("not/here.csv").count(), 1, "{msg}");
    }

    #[test]
    fn analysis_terminals_run() {
        let old = old_trace(200, 8);
        let grouped = Pipeline::from_trace(old.clone()).group().unwrap();
        assert!(grouped.group_count() > 0);
        let stats = Pipeline::from_trace(old.clone()).stats().unwrap();
        assert_eq!(stats.requests, old.len());
        let result = Pipeline::from_trace(old)
            .infer(&InferenceConfig::default())
            .unwrap();
        assert!(result.estimate.beta_ns_per_sector >= 0.0);
    }
}
