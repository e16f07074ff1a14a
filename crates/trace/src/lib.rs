//! # tt-trace — block-trace data model
//!
//! Foundation crate of the TraceTracker reproduction (IISWC 2017): the block
//! traces themselves. Everything the paper's pipeline consumes or produces is
//! a [`Trace`] — an arrival-ordered sequence of [`BlockRecord`]s, optionally
//! carrying device-side [`ServiceTiming`].
//!
//! ## Quick tour
//!
//! ```
//! use tt_trace::{BlockRecord, GroupedTrace, OpType, Trace, TraceMeta, TraceStats,
//!     time::SimInstant};
//!
//! // Build a tiny trace: two contiguous reads, then a random write.
//! let records = vec![
//!     BlockRecord::new(SimInstant::from_usecs(0), 1000, 8, OpType::Read),
//!     BlockRecord::new(SimInstant::from_usecs(150), 1008, 8, OpType::Read),
//!     BlockRecord::new(SimInstant::from_usecs(900), 5000, 16, OpType::Write),
//! ];
//! let trace = Trace::from_records(TraceMeta::named("demo"), records);
//!
//! // Inter-arrival times (the paper's Tintt) fall out of the container.
//! let gaps: Vec<f64> = trace.inter_arrivals().map(|d| d.as_usecs_f64()).collect();
//! assert_eq!(gaps, vec![150.0, 750.0]);
//!
//! // Partition by (sequentiality, op, size) for the inference model.
//! let grouped = GroupedTrace::build(&trace);
//! assert_eq!(grouped.group_count(), 3);
//!
//! // Table-I style summary statistics.
//! let stats = TraceStats::compute(&trace);
//! assert_eq!(stats.requests, 3);
//! ```
//!
//! ## Modules
//!
//! * [`time`] — `SimInstant` / `SimDuration` newtypes all timing flows
//!   through;
//! * [`store`](mod@store) — the columnar (struct-of-arrays) record store
//!   behind every [`Trace`], plus the borrowed [`Columns`] view every
//!   columnar analysis pass consumes;
//! * [`mmap`](mod@mmap) — read-only file mapping with checked typed casts,
//!   the substrate of the zero-copy TTB path
//!   ([`format::ttb::MmapTrace`]): a `.ttb` file's columns are analysed
//!   *in place*, no bulk copy into heap `Vec`s;
//! * [`source`](mod@source) — the [`RecordSource`] streaming-iterator
//!   abstraction for consuming traces chunk by chunk;
//! * [`sink`](mod@sink) — the [`RecordSink`] mirror for *producing* traces
//!   chunk by chunk ([`pump`] connects a source to a sink);
//! * [`multi`](mod@multi) — multi-stream fan-in: [`MultiSource`] merges
//!   several sources into one arrival-ordered source (the multi-input
//!   `convert`);
//! * [`tolerant`](mod@tolerant) — error-budget decoding: [`TolerantSource`]
//!   applies an [`ErrorPolicy`] (skip-with-budget / quarantine) to any
//!   source's recoverable decode errors, logging skipped records in a
//!   [`QuarantineLog`];
//! * [`format`](mod@format) — CSV, blkparse-style, and native binary
//!   columnar (TTB) serialisation, with streaming readers
//!   ([`format::csv::CsvSource`], [`format::blk::BlkSource`],
//!   [`format::ttb::TtbSource`]), streaming writers
//!   ([`format::csv::CsvSink`], [`format::blk::BlkSink`],
//!   [`format::ttb::TtbSink`]), path-extension format detection
//!   ([`format::TraceFormat`]), and whole-trace movers
//!   ([`format::load_trace`], [`format::save_trace`]) that take the
//!   columnar bulk path for TTB;
//! * grouping ([`GroupedTrace`], [`classify_sequentiality`]) and statistics
//!   ([`TraceStats`]) re-exported at the crate root.
//!
//! Reading and writing are symmetric: `RecordSource → stages → RecordSink`
//! is the shape the whole workspace (and the `tracetracker::Pipeline`
//! facade) is built around, and the whole-file readers/writers
//! (`read_csv`/`write_csv`, `read_blk`/`write_blk`) are thin drains over
//! the streaming endpoints, byte-identical at any chunk size
//! (property-tested). TTB inverts the relationship for speed: the
//! whole-trace paths ([`format::ttb::read_ttb`],
//! [`format::ttb::write_ttb`]) move columns in bulk, and the streaming
//! endpoints adapt block by block — decoded records are identical either
//! way (property-tested).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod format;
pub mod group;
pub mod mmap;
pub mod multi;
pub mod op;
pub mod record;
pub mod registry;
pub mod sink;
pub mod source;
pub mod stats;
pub mod store;
pub mod time;
pub mod tolerant;
mod trace;

pub use error::TraceError;
pub use format::ttb::MmapTrace;
pub use group::{classify_sequentiality, Group, GroupKey, GroupedTrace, Sequentiality};
pub use multi::MultiSource;
pub use op::OpType;
pub use record::{BlockRecord, ServiceTiming, SECTOR_BYTES};
pub use registry::MmapRegistry;
pub use sink::{drain_trace, pump, ChunkBuffer, RecordSink, SinkStats, TraceSink, TraceSource};
pub use source::{collect_source, ChunkCursor, RecordSource};
pub use stats::TraceStats;
pub use store::{Columns, TraceStore};
pub use tolerant::{ErrorPolicy, QuarantineEntry, QuarantineLog, TolerantSource};
pub use trace::{Trace, TraceMeta};
