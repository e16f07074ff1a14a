#![forbid(unsafe_code)]
//! # TraceTracker — hardware/software co-evaluation for I/O workload reconstruction
//!
//! A full reproduction of *TraceTracker: Hardware/Software Co-Evaluation
//! for Large-Scale I/O Workload Reconstruction* (Kwon et al., IISWC 2017),
//! built as a Rust workspace around a **streaming, columnar** trace
//! pipeline:
//!
//! | crate | contents |
//! |---|---|
//! | [`trace`] (`tt-trace`) | block-trace data model: columnar [`TraceStore`](trace::TraceStore) (struct-of-arrays), streaming [`RecordSource`](trace::RecordSource) readers, single-pass grouping, CSV/blkparse/TTB formats |
//! | [`stats`] (`tt-stats`) | ECDF/PDF numerics over borrowed sample slices, Algorithm 1 steepness, pchip/spline interpolation |
//! | [`device`] (`tt-device`) | HDD, flash SSD / array, linear device models |
//! | [`sim`] (`tt-sim`) | discrete-event replay engine, blktrace-style collector, sink-streamed replay ([`sim::replay_into`]), streamed concurrent replay ([`sim::replay_concurrent_sources`]) |
//! | [`workloads`] (`tt-workloads`) | 31-workload Table I catalog, session generator |
//! | [`core`] (`tt-core`) | inference (per-group CDF analysis), reconstruction methods, verification, reports |
//! | [`par`] (`tt-par`) | the pipeline flight recorder ([`par::telemetry`]), plus a worker-count setting the benchmark harnesses report and no analysis reads |
//!
//! Traces live in struct-of-arrays columns and are consumed
//! chunk-by-chunk from disk; grouping and per-group CDF analysis each make
//! one sequential pass on the calling thread. External dependencies
//! (`serde`, `rand`, `proptest`) are satisfied by offline stand-ins under
//! `compat/`, so the workspace builds with no registry access.
//!
//! This facade re-exports every crate, adds the [`Pipeline`] builder —
//! the public API the CLI, examples, and applications compose the
//! workspace through — and offers a [`prelude`].
//!
//! ## Quickstart: the `Pipeline` API
//!
//! `RecordSource → stages → RecordSink`: start a pipeline from a file, a
//! streaming source, or a trace; chain transform stages; end in a
//! collected trace, a streamed sink, or an analysis result.
//!
//! ```
//! use tracetracker::prelude::*;
//!
//! // 1. A decade-old trace: webusers behaviour on a 2007 disk.
//! let entry = catalog::find("webusers").unwrap();
//! let session = generate_session("webusers", &entry.profile, 300, 7);
//! let mut old_node = presets::enterprise_hdd_2007();
//! let old = session.materialize(&mut old_node, false).trace;
//!
//! // 2. Revive it on an all-flash array with TraceTracker
//! //    (`from_trace_ref` borrows — the old trace is not copied).
//! let mut new_node = presets::intel_750_array();
//! let revived = Pipeline::from_trace_ref(&old)
//!     .reconstruct(&mut new_node, TraceTracker::new())
//!     .collect()
//!     .unwrap();
//! assert_eq!(revived.len(), old.len());
//!
//! // Analysis terminals ride the same builder:
//! let estimate = Pipeline::from_trace_ref(&old)
//!     .infer(&InferenceConfig::default())
//!     .unwrap()
//!     .estimate;
//! assert!(estimate.beta_ns_per_sector >= 0.0);
//! ```
//!
//! ## Streaming quickstart
//!
//! When a pipeline ends in a sink ([`Pipeline::write_to`] /
//! [`Pipeline::write_path`]), the final stage pushes records into it chunk
//! by chunk as they are produced — reconstructing a trace **to disk**
//! holds one trace in memory, never two. Sources stream the same way on
//! the read side.
//!
//! ```
//! use tracetracker::prelude::*;
//! use tracetracker::trace::format::csv::{CsvSink, CsvSource};
//!
//! let file = "# trace\n0.0,R,0,8\n150.5,R,8,8\n900.0,W,5000,16\n";
//!
//! // Stream-parse → reconstruct → stream-serialise, 64Ki records a chunk.
//! let mut device = presets::intel_750_array();
//! let mut out = Vec::new();
//! let stats = Pipeline::from_source(CsvSource::new(file.as_bytes()), "demo")
//!     .reconstruct(&mut device, TraceTracker::new())
//!     .write_to(&mut CsvSink::new(&mut out, "demo"))
//!     .unwrap();
//! assert_eq!(stats.records, 3);
//! assert!(String::from_utf8(out).unwrap().starts_with("# trace: demo"));
//!
//! // Or replay the stream against a device, streaming the serviced
//! // records out the same way.
//! let mut out = Vec::new();
//! let stats = Pipeline::from_source(CsvSource::new(file.as_bytes()), "demo")
//!     .replay(&mut device, StreamReplay::OpenLoop { time_scale: 1.0 })
//!     .write_to(&mut CsvSink::new(&mut out, "demo"))
//!     .unwrap();
//! assert_eq!(stats.records, 3);
//! ```
//!
//! The pre-`Pipeline` free functions (`infer`, `Reconstructor::
//! reconstruct`, `write_csv`, …) remain available and are thin drains over
//! the same streaming code paths — byte-identical output, property-tested.
//!
//! Chains such as the paper's `reconstruct → replay` co-evaluation run one
//! stage at a time: each stage but the last hands its whole output trace
//! to the next, and the last streams into the terminal. A chain equals
//! the same stages called by hand through the free functions
//! (property-tested, including replays on faulty devices):
//!
//! ```
//! use tracetracker::prelude::*;
//!
//! let entry = catalog::find("MSNFS").unwrap();
//! let session = generate_session("MSNFS", &entry.profile, 200, 7);
//! let mut old_node = presets::enterprise_hdd_2007();
//! let old = session.materialize(&mut old_node, false).trace;
//!
//! // Reconstruct onto a flash array, then replay the result closed-loop
//! // on a second array...
//! let mut new_node = presets::intel_750_array();
//! let mut replay_node = presets::intel_750_array();
//! let serviced = Pipeline::from_trace_ref(&old)
//!     .reconstruct(&mut new_node, TraceTracker::new())
//!     .replay(&mut replay_node, StreamReplay::ClosedLoop)
//!     .collect()
//!     .unwrap();
//!
//! // ...which is exactly the two stages called by hand.
//! let mut new_node = presets::intel_750_array();
//! let mut replay_node = presets::intel_750_array();
//! let revived = TraceTracker::new().reconstruct(&old, &mut new_node);
//! let by_hand = replay(
//!     &mut replay_node,
//!     &Schedule::closed_loop(&revived),
//!     &revived.meta().name,
//!     ReplayConfig::default(),
//! );
//! assert_eq!(serviced, by_hand.trace);
//! ```
//!
//! ## Several streams on one device: the consolidation scenario
//!
//! [`Pipeline::from_paths`] / [`Pipeline::from_trace_refs`] open a
//! [`MultiPipeline`] for the two things several streams do together that
//! one stream cannot. [`MultiPipeline::replay_concurrent`] replays the
//! streams on one shared device through the concurrent replay core
//! ([`sim::replay_concurrent_sources`]) — several tenants, one storage
//! box — pulling each stream chunk by chunk; its [`sim::ConcurrentOutcome`]
//! keeps the stream of every serviced record.
//! [`MultiPipeline::collect_merged`] merges the streams in arrival order
//! ([`trace::MultiSource`]). `tt-cli replay a.csv b.csv c.csv` and
//! `tt-cli convert a.csv b.csv out.csv` are the command-line spellings.
//! Per-stream work (loading, writing, a solo replay) is one `Pipeline` per
//! input; see `examples/multi_tenant.rs` for the full consolidation study.
//!
//! ## Reload-heavy workflows: the TTB binary cache
//!
//! Re-analysing the same trace many times pays CSV parsing on every
//! reload. Convert once to the native binary columnar format
//! ([`trace::format::ttb`], extension `.ttb`) and reloads become validated
//! bulk reads straight into the columnar store — one `write_path` away:
//!
//! ```no_run
//! use tracetracker::prelude::*;
//!
//! // Convert once (also: `tt-cli convert trace.csv trace.ttb`)...
//! Pipeline::from_path("trace.csv").write_path("trace.ttb").unwrap();
//! // ...reload many: 8-10x faster than parsing the CSV (`ttb_speedup_x`
//! // of the throughput bench, 1M records, 2 vCPU).
//! let trace = Pipeline::from_path("trace.ttb").collect().unwrap();
//! # let _ = trace;
//! ```
//!
//! The cache is lossless (`CSV → TTB → CSV` is byte-identical,
//! property-tested) and corrupt or truncated files are rejected with
//! clear errors; see `examples/binary_cache.rs` for the full workflow.
//!
//! ## Zero-copy analysis: the memory-mapped `.ttb` view
//!
//! Even the bulk read pays one full copy of every column into heap
//! `Vec`s. Stage-less **column terminals** ([`Pipeline::group`],
//! [`Pipeline::infer`], [`Pipeline::stats`]) on a `.ttb` input skip it:
//! the file is memory-mapped ([`trace::MmapTrace`]) and the columns are
//! grouped/inferred/summarised **in place**, straight out of the page
//! cache — O(1) resident growth for the load step:
//!
//! ```no_run
//! use tracetracker::prelude::*;
//!
//! // Mapped automatically: no bulk copy before the analysis starts.
//! let cfg = InferenceConfig::default();
//! let result = Pipeline::from_path("trace.ttb").infer(&cfg).unwrap();
//! # let _ = result;
//! ```
//!
//! An already-open mapping ([`Pipeline::from_mapped`], the shape
//! `tt-serve` runs every request on) feeds the **transform stages**
//! ([`Pipeline::reconstruct`], [`Pipeline::replay`]) the same way: they
//! read a [`trace::Columns`] view of the mapping, never a copy of the
//! trace, and size their output from its record count:
//!
//! ```no_run
//! use tracetracker::prelude::*;
//!
//! let mapped = MmapTrace::open("trace.ttb").unwrap();
//! let mut array = presets::intel_750_array();
//! let replayed = Pipeline::from_mapped(&mapped)
//!     .replay(&mut array, StreamReplay::OpenLoop { time_scale: 1.0 })
//!     .collect()
//!     .unwrap();
//! # let _ = replayed;
//! ```
//!
//! Safety and equivalence contract: the map is validated once at open by
//! the same block walker as the bulk read (header, blocks, trailer, op
//! bytes, sector counts, timing order, alignment pads), misaligned or
//! corrupt files can never reach a typed view, and every analysis result
//! is **bit-identical** to the bulk-read path (property-tested). Files
//! that cannot be viewed in place — multi-block streams, unsorted blocks —
//! are copied out of the ranges the open validated; only the terminals
//! that must own the trace (a stage-less [`Pipeline::collect`],
//! [`Pipeline::verify`]'s idle injection, a stage-less `.ttb`
//! [`Pipeline::write_path`]) copy a mapping into an owned one. A staged
//! run over a `.ttb` *path* bulk-reads the file. There is no knob: a
//! mapped and a bulk load differ only in where the bytes live. The exact
//! zero-copy conditions live in [`trace::format::ttb`].
//!
//! ## Observability: the flight recorder
//!
//! Attach a [`FlightRecorder`] and every run reports **per-stage** wall
//! clock (monotonic) and record counts. The assembled [`FlightLog`]
//! renders as one line of JSON ([`FlightLog::to_json`], the shape `tt-cli
//! --timings` emits) or one human line per stage ([`FlightLog::render`]).
//! Recording only observes: outputs are **bit-identical** with the
//! recorder on or off, and the bench `recorder` lane reports its overhead
//! (see [`par::telemetry`] for the exact contract).
//!
//! ```
//! use std::sync::Arc;
//! use tracetracker::prelude::*;
//! use tracetracker::FlightRecorder;
//!
//! let entry = catalog::find("MSNFS").unwrap();
//! let session = generate_session("MSNFS", &entry.profile, 300, 7);
//! let mut old_node = presets::enterprise_hdd_2007();
//! let old = session.materialize(&mut old_node, false).trace;
//!
//! let mut new_node = presets::intel_750_array();
//! let mut replay_node = presets::intel_750_array();
//! let recorder = Arc::new(FlightRecorder::new());
//! Pipeline::from_trace_ref(&old)
//!     .flight_recorder(&recorder)
//!     .reconstruct(&mut new_node, TraceTracker::new())
//!     .replay(&mut replay_node, StreamReplay::ClosedLoop)
//!     .collect()
//!     .unwrap();
//!
//! let log = recorder.flight_log();
//! assert_eq!(log.stages.len(), 3); // load + reconstruct + replay
//! println!("{}", log.render());
//! ```
//!
//! The one knob, [`Pipeline::chunk_size`], is output-invariant: it trades
//! memory for wall clock, never results.
//! `examples/flight_recorder.rs` walks through reading a flight log.

#![warn(missing_docs)]

pub use tt_core as core;
pub use tt_device as device;
pub use tt_par as par;
pub use tt_sim as sim;
pub use tt_stats as stats;
pub use tt_trace as trace;
pub use tt_workloads as workloads;

mod multi_pipeline;
mod pipeline;

pub use multi_pipeline::MultiPipeline;
pub use pipeline::Pipeline;
pub use tt_par::telemetry::{FlightLog, FlightRecorder, StageReport};

/// One-stop imports for applications using the pipeline end to end.
pub mod prelude {
    pub use crate::multi_pipeline::MultiPipeline;
    pub use crate::pipeline::Pipeline;
    pub use tt_core::{
        infer, verify_injection, Acceleration, Decomposition, DeviceEstimate, Dynamic,
        FixedThreshold, InferenceConfig, InferenceResult, Reconstructor, Revision, TraceTracker,
        VerifyConfig,
    };
    pub use tt_device::{
        presets, BlockDevice, FaultPlan, FaultyDevice, IoRequest, ServiceFault, ServiceOutcome,
    };
    pub use tt_par::telemetry::{FlightLog, FlightRecorder, StageReport};
    pub use tt_sim::{
        replay, replay_concurrent_sources, replay_concurrent_tagged, replay_into,
        ConcurrentOutcome, FaultEvent, FaultStats, IssueMode, ReplayConfig, RetryPolicy, Schedule,
        ScheduledOp, StreamReplay,
    };
    pub use tt_trace::{
        time::{SimDuration, SimInstant},
        BlockRecord, Columns, ErrorPolicy, GroupedTrace, MmapTrace, MultiSource, OpType,
        QuarantineLog, RecordSink, RecordSource, SinkStats, TolerantSource, Trace, TraceError,
        TraceMeta, TraceSink, TraceStats, TraceStore,
    };
    pub use tt_workloads::{catalog, generate_session, inject_idle, Session, WorkloadProfile};
}
