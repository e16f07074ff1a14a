#![forbid(unsafe_code)]
//! # tt-sim — discrete-event replay engine
//!
//! Replays block-request schedules against [`tt_device`] models, standing in
//! for the paper's real-time `sleep()`-and-issue hardware emulation (§IV)
//! and its `blktrace` collection:
//!
//! * [`EventQueue`] / [`Engine`] — a minimal deterministic DES core;
//! * [`Schedule`] / [`ScheduledOp`] / [`IssueMode`] — replay inputs with the
//!   paper's sync/async request semantics (Fig 2b);
//! * [`replay`] — executes a schedule on a device, producing a collected
//!   trace plus per-request [`ServiceOutcome`](tt_device::ServiceOutcome)s;
//! * [`try_replay_records`] / [`replay_into`] — the same replay as a
//!   *stream*: records are visited, or pushed into any
//!   [`RecordSink`](tt_trace::RecordSink), the moment the device produces
//!   them — the adapter the `tracetracker::Pipeline` replay stage and the
//!   streaming reconstruction paths in `tt-core` run on;
//! * [`replay_concurrent_sources`] — several streamed traces sharing one
//!   device on the discrete-event engine, each record tagged with its
//!   stream; [`replay_concurrent_tagged`] is the same replay over
//!   in-memory schedules;
//! * [`Collector`] — blktrace-style Q/D/C record assembly;
//! * [`quiescent_cuts`] — where an open-loop schedule leaves the device
//!   provably idle, from the device's service and busy bounds.
//!
//! Single-stream replay is one sequential core behind [`replay`],
//! [`replay_into`] and [`try_replay_records`]: each request's queueing
//! depends on the device state its predecessor left behind, so requests
//! are serviced strictly in schedule order, exactly as the paper's
//! hardware replay issues them (§IV).
//!
//! ## Example: same user behaviour, two devices
//!
//! ```
//! use tt_device::{presets, IoRequest};
//! use tt_sim::{replay, IssueMode, ReplayConfig, Schedule, ScheduledOp};
//! use tt_trace::{time::SimDuration, OpType};
//!
//! // One user session: 50 random 4KB reads, 1ms think time between them.
//! let schedule: Schedule = (0..50)
//!     .map(|i| ScheduledOp {
//!         pre_delay: SimDuration::from_msecs(1),
//!         request: IoRequest::new(OpType::Read, (i * 7919) % 1_000_000 * 8, 8),
//!         mode: IssueMode::Sync,
//!     })
//!     .collect();
//!
//! let mut old = presets::enterprise_hdd_2007();
//! let mut new = presets::intel_750_array();
//! let on_old = replay(&mut old, &schedule, "old", ReplayConfig::default());
//! let on_new = replay(&mut new, &schedule, "new", ReplayConfig::default());
//!
//! // Identical think times, very different makespans:
//! assert!(on_old.makespan > on_new.makespan);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod collector;
mod cuts;
mod engine;
mod queue;
mod replay;

pub use collector::Collector;
pub use cuts::quiescent_cuts;
pub use engine::Engine;
pub use queue::EventQueue;
pub use replay::{
    replay, replay_concurrent_sources, replay_concurrent_tagged, replay_into, try_replay_records,
    ConcurrentOutcome, FaultEvent, FaultStats, IssueMode, ReplayConfig, ReplayOutcome, RetryPolicy,
    Schedule, ScheduledOp, StreamReplay, StreamedReplay,
};
