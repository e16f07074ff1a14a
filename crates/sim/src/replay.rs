//! Trace replay against a device model (paper Fig 2b semantics).
//!
//! A [`Schedule`] is a sequence of operations, each carrying a *pre-delay*
//! and an issue *mode*:
//!
//! * [`IssueMode::Sync`] — the operation becomes ready `pre_delay` after the
//!   **completion** of the previous request (the user/application waited for
//!   the result, computed or idled, then issued the next I/O);
//! * [`IssueMode::Async`] — the operation becomes ready `pre_delay` after
//!   the **issue** of the previous request (no dependency on its result;
//!   the `(i−1)`-th request of the paper's Fig 2b).
//!
//! The pre-delay is exactly the paper's `Tidle` (user idle time + host-side
//! CPU bursts); the device adds `Tcdel + Tsdev`. Replaying one schedule on
//! two different devices is the heart of the whole co-evaluation method:
//! same user behaviour, different storage.

use serde::Serialize;

use tt_device::{BlockDevice, IoRequest, ServiceOutcome};
use tt_trace::sink::{ChunkBuffer, RecordSink, SinkStats};
use tt_trace::source::RecordSource;
use tt_trace::time::{SimDuration, SimInstant};
use tt_trace::{BlockRecord, Columns, Trace, TraceError, TraceMeta};

use crate::collector::Collector;
use crate::engine::Engine;

/// How an operation's readiness relates to its predecessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum IssueMode {
    /// Ready `pre_delay` after the previous request **completes**.
    Sync,
    /// Ready `pre_delay` after the previous request is **issued**.
    Async,
}

impl IssueMode {
    /// `true` for [`IssueMode::Async`].
    #[must_use]
    pub const fn is_async(self) -> bool {
        matches!(self, IssueMode::Async)
    }
}

/// One operation of a replay schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ScheduledOp {
    /// Delay between this operation's reference point (see [`IssueMode`])
    /// and its readiness — the ground-truth `Tidle` for this request.
    pub pre_delay: SimDuration,
    /// The block request to issue.
    pub request: IoRequest,
    /// Sync or async issue semantics.
    pub mode: IssueMode,
}

/// An ordered replay schedule.
///
/// # Examples
///
/// ```
/// use tt_device::IoRequest;
/// use tt_sim::{IssueMode, Schedule, ScheduledOp};
/// use tt_trace::{time::SimDuration, OpType};
///
/// let mut schedule = Schedule::new();
/// schedule.push(ScheduledOp {
///     pre_delay: SimDuration::ZERO,
///     request: IoRequest::new(OpType::Read, 0, 8),
///     mode: IssueMode::Sync,
/// });
/// assert_eq!(schedule.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct Schedule {
    ops: Vec<ScheduledOp>,
}

impl Schedule {
    /// Creates an empty schedule.
    #[must_use]
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Appends an operation.
    pub fn push(&mut self, op: ScheduledOp) {
        self.ops.push(op);
    }

    /// Number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the schedule holds no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations in order.
    #[must_use]
    pub fn ops(&self) -> &[ScheduledOp] {
        &self.ops
    }

    /// **Closed-loop** ops from an existing trace, streamed off the
    /// columns: every request is issued as soon as the previous one
    /// completes (`Sync`, zero pre-delay). This is the paper's *Revision*
    /// replay style — it keeps ordering and dependencies but discards all
    /// idle time. The one definition of closed-loop semantics;
    /// [`Schedule::closed_loop`], the streaming reconstruction paths, and
    /// the `Pipeline` replay stage all consume it. `trace` is a `&Trace`
    /// or a column view, so schedule building runs identically off an
    /// owned trace or a memory-mapped `.ttb` file
    /// ([`MmapTrace`](tt_trace::MmapTrace)).
    pub fn closed_loop_ops<'a>(
        trace: impl Into<Columns<'a>>,
    ) -> impl Iterator<Item = ScheduledOp> + 'a {
        Schedule::sync_ops(trace.into())
    }

    fn sync_ops(cols: Columns<'_>) -> impl Iterator<Item = ScheduledOp> + '_ {
        cols.iter().map(|rec| ScheduledOp {
            pre_delay: SimDuration::ZERO,
            request: IoRequest::from(&rec),
            mode: IssueMode::Sync,
        })
    }

    /// **Closed-loop** schedule from an existing trace
    /// ([`Schedule::closed_loop_ops`], materialised).
    #[must_use]
    pub fn closed_loop<'a>(trace: impl Into<Columns<'a>>) -> Self {
        Schedule {
            ops: Schedule::closed_loop_ops(trace).collect(),
        }
    }

    /// **Open-loop** ops from an existing trace, streamed off the columns:
    /// requests are issued at their recorded inter-arrival gaps regardless
    /// of completions (`Async`, pre-delay = recorded `Tintt`, optionally
    /// scaled). With `time_scale = 1.0` the original timestamps are
    /// reproduced exactly, however long a gap is
    /// ([`SimDuration::mul_f64`] returns a gap unrounded at factor 1.0;
    /// any other scale rounds each gap through `f64`, exact below 2^53 ns,
    /// ~104 days); `time_scale = 0.01` is the paper's 100×
    /// *Acceleration*. The one definition of open-loop semantics. `trace`
    /// is a `&Trace` or a column view, as in [`Schedule::closed_loop_ops`].
    ///
    /// # Panics
    ///
    /// Panics if `time_scale` is negative or not finite.
    pub fn open_loop_ops<'a>(
        trace: impl Into<Columns<'a>>,
        time_scale: f64,
    ) -> impl Iterator<Item = ScheduledOp> + 'a {
        Schedule::async_ops(trace.into(), time_scale)
    }

    fn async_ops(cols: Columns<'_>, time_scale: f64) -> impl Iterator<Item = ScheduledOp> + '_ {
        assert!(
            time_scale.is_finite() && time_scale >= 0.0,
            "time scale must be finite and non-negative, got {time_scale}"
        );
        let arrivals = cols.arrivals();
        cols.iter().enumerate().map(move |(i, rec)| {
            let gap = if i == 0 {
                SimDuration::ZERO
            } else {
                arrivals[i] - arrivals[i - 1]
            };
            ScheduledOp {
                pre_delay: gap.mul_f64(time_scale),
                request: IoRequest::from(&rec),
                mode: IssueMode::Async,
            }
        })
    }

    /// **Open-loop** schedule from an existing trace
    /// ([`Schedule::open_loop_ops`], materialised).
    ///
    /// # Panics
    ///
    /// Panics if `time_scale` is negative or not finite.
    #[must_use]
    pub fn open_loop<'a>(trace: impl Into<Columns<'a>>, time_scale: f64) -> Self {
        Schedule {
            ops: Schedule::open_loop_ops(trace, time_scale).collect(),
        }
    }

    /// Schedule from a trace plus per-request idle times and modes — the
    /// TraceTracker hardware-emulation input (§IV): sleep `idle[i]`, then
    /// issue request `i` with the old trace's sync/async semantics.
    ///
    /// `idle[0]` is the delay before the first request. Entries of `modes`
    /// apply to the *transition into* each request.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths differ from the trace length.
    #[must_use]
    pub fn with_idle_times(trace: &Trace, idle: &[SimDuration], modes: &[IssueMode]) -> Self {
        assert_eq!(idle.len(), trace.len(), "one idle time per request");
        assert_eq!(modes.len(), trace.len(), "one mode per request");
        let ops = trace
            .iter()
            .zip(idle.iter().zip(modes))
            .map(|(rec, (&pre_delay, &mode))| ScheduledOp {
                pre_delay,
                request: IoRequest::from(&rec),
                mode,
            })
            .collect();
        Schedule { ops }
    }
}

impl FromIterator<ScheduledOp> for Schedule {
    fn from_iter<I: IntoIterator<Item = ScheduledOp>>(iter: I) -> Self {
        Schedule {
            ops: iter.into_iter().collect(),
        }
    }
}

/// How replay reacts to transient device faults
/// ([`BlockDevice::try_service`] errors): how often to re-issue a request
/// and how long to back off — in **simulated** time — between attempts.
///
/// The backoff for the `n`-th retry is
/// `backoff · backoff_multiplier^(n−1)` (saturating), the classic
/// exponential schedule. A request that fails `max_attempts` times is
/// **given up**: it produces no record, and the give-up is reported as a
/// [`FaultEvent`] with [`gave_up`](FaultEvent::gave_up) set.
///
/// # Examples
///
/// ```
/// use tt_sim::RetryPolicy;
/// use tt_trace::time::SimDuration;
///
/// let policy = RetryPolicy::default();
/// assert_eq!(policy.max_attempts, 3);
/// // Exponential: 100us, 200us, 400us, ...
/// assert_eq!(policy.backoff_for(2), SimDuration::from_usecs(200));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RetryPolicy {
    /// Maximum number of service attempts per request (the first issue
    /// counts as one). `0` is treated like `1`: no retries.
    pub max_attempts: u32,
    /// Simulated-time delay before the first retry.
    pub backoff: SimDuration,
    /// Backoff growth factor per retry (integer; `1` = constant backoff).
    pub backoff_multiplier: u32,
}

impl Default for RetryPolicy {
    /// 3 attempts, 100 µs initial backoff, doubling.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: SimDuration::from_usecs(100),
            backoff_multiplier: 2,
        }
    }
}

impl RetryPolicy {
    /// The simulated-time backoff before retry number `retry` (1-based):
    /// `backoff · multiplier^(retry−1)`, saturating at
    /// [`SimDuration::MAX`].
    #[must_use]
    pub fn backoff_for(&self, retry: u32) -> SimDuration {
        let factor = u64::from(self.backoff_multiplier).saturating_pow(retry.saturating_sub(1));
        SimDuration::from_nanos(self.backoff.as_nanos().saturating_mul(factor))
    }

    /// `true` once `failed` attempts exhaust the policy.
    #[must_use]
    pub fn exhausted(&self, failed: u32) -> bool {
        failed >= self.max_attempts.max(1)
    }
}

/// One request's brush with device faults during replay: it either
/// succeeded after `attempts` failed tries (`gave_up == false`) or was
/// abandoned (`gave_up == true`, no record produced).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FaultEvent {
    /// 0-based position of the request in its replay stream.
    pub index: usize,
    /// Number of failed service attempts.
    pub attempts: u32,
    /// Total simulated backoff the request waited across its retries.
    pub retry_delay: SimDuration,
    /// `true` when the request exhausted [`RetryPolicy::max_attempts`] and
    /// was dropped from the replayed trace.
    pub gave_up: bool,
}

/// Aggregate fault telemetry of a streamed replay ([`StreamedReplay`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FaultStats {
    /// Requests that experienced at least one failed attempt.
    pub faulted: usize,
    /// Total failed service attempts across all requests.
    pub retries: u64,
    /// Requests given up on (dropped from the output).
    pub failed: usize,
}

impl FaultStats {
    /// Summarises a list of [`FaultEvent`]s.
    #[must_use]
    pub fn from_events(events: &[FaultEvent]) -> Self {
        let mut stats = FaultStats::default();
        for event in events {
            stats.faulted += 1;
            stats.retries += u64::from(event.attempts);
            if event.gave_up {
                stats.failed += 1;
            }
        }
        stats
    }

    /// `true` when no request faulted at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.faulted == 0
    }
}

/// Everything a replay produces.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The collected trace (blktrace-style).
    pub trace: Trace,
    /// Per-request service decomposition, aligned with `trace` records.
    pub outcomes: Vec<ServiceOutcome>,
    /// Completion time of the last request.
    pub makespan: SimDuration,
    /// Per-request fault outcomes (empty on a clean run). Indices refer to
    /// positions in the replay *input* stream — a given-up request appears
    /// here but not in `trace`.
    pub faults: Vec<FaultEvent>,
}

/// Replay configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ReplayConfig {
    /// Attach device-side [`ServiceTiming`](tt_trace::ServiceTiming) to the
    /// collected records (`Tsdev`-known trace) or not (FIU-style).
    pub record_device_timing: bool,
    /// How transient device faults are retried (irrelevant for fault-free
    /// devices: the default [`BlockDevice::try_service`] never fails).
    pub retry: RetryPolicy,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            record_device_timing: true,
            retry: RetryPolicy::default(),
        }
    }
}

/// Replays `schedule` against `device` on the discrete-event engine.
///
/// The device is **not** reset first — callers own device lifecycle (a warm
/// cache/head position can be intentional). Requests are issued strictly in
/// schedule order.
///
/// # Examples
///
/// ```
/// use tt_device::{presets, IoRequest};
/// use tt_sim::{replay, IssueMode, ReplayConfig, Schedule, ScheduledOp};
/// use tt_trace::{time::SimDuration, OpType};
///
/// let mut device = presets::intel_750_array();
/// let schedule: Schedule = (0..10)
///     .map(|i| ScheduledOp {
///         pre_delay: SimDuration::from_usecs(100),
///         request: IoRequest::new(OpType::Read, i * 1024, 8),
///         mode: IssueMode::Sync,
///     })
///     .collect();
///
/// let result = replay(&mut device, &schedule, "demo", ReplayConfig::default());
/// assert_eq!(result.trace.len(), 10);
/// assert!(result.makespan > SimDuration::from_usecs(1000)); // 10 x (idle + service)
/// ```
pub fn replay<D: BlockDevice + ?Sized>(
    device: &mut D,
    schedule: &Schedule,
    name: &str,
    config: ReplayConfig,
) -> ReplayOutcome {
    let mut collector = Collector::new(config.record_device_timing);
    let mut outcomes: Vec<ServiceOutcome> = Vec::with_capacity(schedule.len());
    let mut faults = Vec::new();
    let makespan = drive(
        device,
        schedule.ops().iter().copied(),
        config.retry,
        &mut faults,
        |arrival, request, outcome| {
            collector.observe(arrival, request, &outcome);
            outcomes.push(outcome);
            std::ops::ControlFlow::Continue(())
        },
    );
    ReplayOutcome {
        trace: collector.finish(name),
        outcomes,
        makespan,
        faults,
    }
}

/// The single-stream replay core: issues `ops` strictly in order, calling
/// `visit(arrival, request, outcome)` per operation, and returns the
/// makespan.
///
/// A single replay stream never has more than one pending event — the next
/// operation's readiness depends only on its predecessor's issue/completion
/// — so the discrete-event engine degenerates to this linear scan. Keeping
/// it as a plain loop over an op *iterator* lets [`replay`] (whole
/// schedule), [`replay_into`] (sink-streamed) and the streaming
/// reconstruction entry points in `tt-core` share one code path, emitting
/// records as they are produced without materialising a [`Schedule`].
/// Transient faults are retried per `retry`, with the backoff charged in
/// simulated time by pushing the request's ready instant; give-ups (and
/// retried-then-succeeded requests) are appended to `faults`. Because a
/// retried request's successors chain off its **final** (post-backoff)
/// issue instant, issue order stays monotone — backoff delays, but never
/// reorders, completions.
fn drive<D, I, F>(
    device: &mut D,
    ops: I,
    retry: RetryPolicy,
    faults: &mut Vec<FaultEvent>,
    mut visit: F,
) -> SimDuration
where
    D: BlockDevice + ?Sized,
    I: IntoIterator<Item = ScheduledOp>,
    F: FnMut(SimInstant, &IoRequest, ServiceOutcome) -> std::ops::ControlFlow<()>,
{
    let mut makespan = SimDuration::ZERO;
    let mut prev_issue = SimInstant::ZERO;
    let mut prev_complete = SimInstant::ZERO;
    let mut first = true;
    for (index, op) in ops.into_iter().enumerate() {
        let base = if first {
            SimInstant::ZERO
        } else {
            match op.mode {
                IssueMode::Sync => prev_complete,
                IssueMode::Async => prev_issue,
            }
        };
        let mut ready = base + op.pre_delay;
        let mut attempts = 0u32;
        let mut retry_delay = SimDuration::ZERO;
        let outcome = loop {
            match device.try_service(&op.request, ready) {
                Ok(outcome) => break Some(outcome),
                Err(_) => {
                    attempts += 1;
                    if retry.exhausted(attempts) {
                        break None;
                    }
                    let backoff = retry.backoff_for(attempts);
                    ready += backoff;
                    retry_delay = retry_delay.saturating_add(backoff);
                }
            }
        };
        first = false;
        match outcome {
            Some(outcome) => {
                let complete = outcome.complete_at(ready);
                if attempts > 0 {
                    faults.push(FaultEvent {
                        index,
                        attempts,
                        retry_delay,
                        gave_up: false,
                    });
                }
                let flow = visit(ready, &op.request, outcome);
                makespan = makespan.max(complete - SimInstant::ZERO);
                prev_issue = ready;
                prev_complete = complete;
                if flow.is_break() {
                    break;
                }
            }
            None => {
                faults.push(FaultEvent {
                    index,
                    attempts,
                    retry_delay,
                    gave_up: true,
                });
                // A given-up request occupied the stream until its last
                // attempt but consumed no device time: successors chain
                // off the give-up instant.
                makespan = makespan.max(ready - SimInstant::ZERO);
                prev_issue = ready;
                prev_complete = ready;
            }
        }
    }
    makespan
}

/// Streaming replay over an op iterator: calls `visit` with each collected
/// [`BlockRecord`] (built exactly as [`replay`]'s collector builds them)
/// plus its [`ServiceOutcome`], in arrival order, and returns the makespan.
///
/// This is the visitor-shaped entry point the streaming reconstruction
/// paths build on: no [`Schedule`], no intermediate [`Trace`] — each record
/// can be transformed and pushed onwards the moment the simulated device
/// produces it. The first `Err` from `visit` **stops the simulation
/// immediately** (no point servicing the rest of a multi-month trace once
/// the consumer is broken) and is returned. Per-request fault events are
/// not surfaced here — use [`replay`] / [`replay_into`] when replaying
/// against a fallible device.
///
/// # Errors
///
/// Propagates the first error `visit` returns.
pub fn try_replay_records<D, I, E, F>(
    device: &mut D,
    ops: I,
    config: ReplayConfig,
    visit: F,
) -> Result<SimDuration, E>
where
    D: BlockDevice + ?Sized,
    I: IntoIterator<Item = ScheduledOp>,
    F: FnMut(BlockRecord, ServiceOutcome) -> Result<(), E>,
{
    try_replay_records_faults(device, ops, config, &mut Vec::new(), visit)
}

/// [`try_replay_records`] that also appends per-request [`FaultEvent`]s to
/// `faults` — the full-fidelity core [`replay_into`] builds on.
fn try_replay_records_faults<D, I, E, F>(
    device: &mut D,
    ops: I,
    config: ReplayConfig,
    faults: &mut Vec<FaultEvent>,
    mut visit: F,
) -> Result<SimDuration, E>
where
    D: BlockDevice + ?Sized,
    I: IntoIterator<Item = ScheduledOp>,
    F: FnMut(BlockRecord, ServiceOutcome) -> Result<(), E>,
{
    let mut err: Option<E> = None;
    let makespan = drive(
        device,
        ops,
        config.retry,
        faults,
        |arrival, request, outcome| {
            let record =
                Collector::record_for(arrival, request, &outcome, config.record_device_timing);
            match visit(record, outcome) {
                Ok(()) => std::ops::ControlFlow::Continue(()),
                Err(e) => {
                    err = Some(e);
                    std::ops::ControlFlow::Break(())
                }
            }
        },
    );
    match err {
        Some(e) => Err(e),
        None => Ok(makespan),
    }
}

/// Outcome summary of a sink-streamed replay ([`replay_into`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamedReplay {
    /// Per-record push statistics (count, first/last arrival).
    pub stats: SinkStats,
    /// Completion time of the last request.
    pub makespan: SimDuration,
    /// Aggregate fault telemetry (all-zero on a clean run).
    pub faults: FaultStats,
}

/// Replays `ops` against `device`, pushing the collected records into
/// `sink` `chunk` at a time — [`replay`] without the materialised output
/// trace. Record-for-record identical to [`replay`] on the same schedule
/// (property-tested).
///
/// # Errors
///
/// Propagates sink [`TraceError`]s.
pub fn replay_into<D, I>(
    device: &mut D,
    ops: I,
    config: ReplayConfig,
    sink: &mut dyn RecordSink,
    chunk: usize,
) -> Result<StreamedReplay, TraceError>
where
    D: BlockDevice + ?Sized,
    I: IntoIterator<Item = ScheduledOp>,
{
    let mut out = ChunkBuffer::new(sink, chunk);
    let mut faults = Vec::new();
    let makespan = try_replay_records_faults(device, ops, config, &mut faults, |record, _| {
        out.push(record)
    })?;
    let stats = out.finish()?;
    Ok(StreamedReplay {
        stats,
        makespan,
        faults: FaultStats::from_events(&faults),
    })
}

/// A concurrent replay whose merged output keeps the per-stream identity:
/// `stream_of[i]` is the index of the stream that produced record `i` of
/// the merged trace (and of `outcomes[i]`).
///
/// The tags are what make the merged result **demultiplexable**:
/// [`ConcurrentOutcome::split_traces`] splits it back into per-stream
/// traces, and `tracetracker replay a.csv b.csv` reports each stream's
/// service latency from them.
#[derive(Debug, Clone)]
pub struct ConcurrentOutcome {
    /// The merged replay result (arrival-ordered across all streams).
    pub outcome: ReplayOutcome,
    /// Stream index of each merged record, aligned with
    /// `outcome.trace` / `outcome.outcomes`.
    pub stream_of: Vec<u32>,
    /// Number of input streams (streams that produced no record still
    /// count — [`ConcurrentOutcome::split_traces`] returns an empty trace
    /// for them).
    pub stream_count: usize,
}

impl ConcurrentOutcome {
    /// Demultiplexes the merged trace into one trace per stream, named by
    /// `names`. Within a stream, records keep their merged (arrival)
    /// order.
    ///
    /// # Panics
    ///
    /// Panics when `names.len() != stream_count`.
    #[must_use]
    pub fn split_traces(&self, names: &[String]) -> Vec<Trace> {
        assert_eq!(names.len(), self.stream_count, "one name per replay stream");
        let mut stores: Vec<tt_trace::TraceStore> = (0..self.stream_count)
            .map(|_| tt_trace::TraceStore::new())
            .collect();
        for (rec, &stream) in self.outcome.trace.iter().zip(&self.stream_of) {
            stores[stream as usize].push(rec);
        }
        names
            .iter()
            .zip(stores)
            .map(|(name, store)| {
                Trace::from_store(
                    TraceMeta::named(name.clone()).with_source("tt-sim collector"),
                    store,
                )
            })
            .collect()
    }
}

/// "The next operation of stream `stream` becomes ready now."
struct Ready {
    stream: usize,
    /// 0-based position of the op within its own stream (fault reporting).
    index: usize,
    /// Failed service attempts of this op so far.
    attempts: u32,
    /// Accumulated simulated backoff of this op.
    retry_delay: SimDuration,
    op: ScheduledOp,
}

/// One serviced request of a concurrent run: `(ready, request, outcome,
/// stream index)`.
type TaggedObservation = (SimInstant, IoRequest, ServiceOutcome, u32);

/// The concurrent-replay core: pulls each stream's operations **lazily**
/// from its provider (`Ok(None)` = stream exhausted), interleaving streams
/// through the shared device on the discrete-event engine. Returns
/// arrival-sorted tagged observations plus the makespan.
///
/// Lazy pulling is what lets [`replay_concurrent_sources`] run off
/// chunked [`RecordSource`]s with bounded memory;
/// [`replay_concurrent_tagged`] feeds it whole schedules through the same
/// path, so the two agree record for record.
fn drive_concurrent<D, P>(
    device: &mut D,
    mut next_op: Vec<P>,
    retry: RetryPolicy,
) -> Result<(Vec<TaggedObservation>, SimDuration, Vec<FaultEvent>), TraceError>
where
    D: BlockDevice + ?Sized,
    P: FnMut() -> Result<Option<ScheduledOp>, TraceError>,
{
    let mut engine: Engine<Ready> = Engine::new();
    let mut next_index = vec![0usize; next_op.len()];
    for (si, provider) in next_op.iter_mut().enumerate() {
        if let Some(op) = provider()? {
            engine.schedule_after(
                op.pre_delay,
                Ready {
                    stream: si,
                    index: 0,
                    attempts: 0,
                    retry_delay: SimDuration::ZERO,
                    op,
                },
            );
            next_index[si] = 1;
        }
    }

    let mut observations: Vec<TaggedObservation> = Vec::new();
    let mut faults: Vec<FaultEvent> = Vec::new();
    let mut makespan = SimDuration::ZERO;
    let mut error: Option<TraceError> = None;
    loop {
        let stepped = engine.step(|eng, now, ready| {
            let Ready {
                stream,
                index,
                attempts,
                retry_delay,
                op,
            } = ready;
            // A transient fault reschedules the *same* op after its
            // backoff; the stream pulls no new work until this op either
            // completes or is given up.
            let complete = match device.try_service(&op.request, now) {
                Ok(outcome) => {
                    let complete = outcome.complete_at(now);
                    observations.push((now, op.request, outcome, stream as u32));
                    makespan = makespan.max(complete - SimInstant::ZERO);
                    if attempts > 0 {
                        faults.push(FaultEvent {
                            index,
                            attempts,
                            retry_delay,
                            gave_up: false,
                        });
                    }
                    complete
                }
                Err(_) => {
                    let failed = attempts + 1;
                    if !retry.exhausted(failed) {
                        let backoff = retry.backoff_for(failed);
                        eng.schedule_at(
                            now + backoff,
                            Ready {
                                stream,
                                index,
                                attempts: failed,
                                retry_delay: retry_delay.saturating_add(backoff),
                                op,
                            },
                        );
                        return;
                    }
                    faults.push(FaultEvent {
                        index,
                        attempts: failed,
                        retry_delay,
                        gave_up: true,
                    });
                    makespan = makespan.max(now - SimInstant::ZERO);
                    // Given up: no device time consumed; the successor
                    // chains off the give-up instant for both modes.
                    now
                }
            };

            match next_op[stream]() {
                Ok(Some(next)) => {
                    let base = match next.mode {
                        IssueMode::Sync => complete,
                        IssueMode::Async => now,
                    };
                    let index = next_index[stream];
                    next_index[stream] += 1;
                    eng.schedule_at(
                        base + next.pre_delay,
                        Ready {
                            stream,
                            index,
                            attempts: 0,
                            retry_delay: SimDuration::ZERO,
                            op: next,
                        },
                    );
                }
                Ok(None) => {}
                Err(e) => error = Some(e),
            }
        });
        if let Some(e) = error {
            return Err(e);
        }
        if !stepped {
            break;
        }
    }

    // Events fired in time order, but sort defensively for equal-time ties
    // (stable, so the firing order of ties is preserved).
    observations.sort_by_key(|&(t, _, _, _)| t);
    Ok((observations, makespan, faults))
}

/// Assembles the collector output of a concurrent run.
fn collect_concurrent(
    observations: Vec<TaggedObservation>,
    makespan: SimDuration,
    faults: Vec<FaultEvent>,
    stream_count: usize,
    name: &str,
    config: ReplayConfig,
) -> ConcurrentOutcome {
    let mut collector = Collector::new(config.record_device_timing);
    let mut outcomes = Vec::with_capacity(observations.len());
    let mut stream_of = Vec::with_capacity(observations.len());
    for (arrival, request, outcome, stream) in observations {
        collector.observe(arrival, &request, &outcome);
        outcomes.push(outcome);
        stream_of.push(stream);
    }
    ConcurrentOutcome {
        outcome: ReplayOutcome {
            trace: collector.finish(name),
            outcomes,
            makespan,
            faults,
        },
        stream_of,
        stream_count,
    }
}

/// Replays several independent schedules *concurrently* against one
/// shared device.
///
/// Each stream chains its own operations exactly as [`replay`] does
/// (sync after its own completion, async after its own issue); streams
/// interleave only through the shared device's resources. This models a
/// multi-tenant server — several clients, one storage array — and is the
/// scenario the paper's related work (`//trace`) handles with causality
/// annotations; here the per-stream ground truth makes it exact.
///
/// The returned trace merges all streams in arrival order;
/// `outcome.outcomes` aligns with the merged trace's records, and each
/// record keeps the index of the stream that issued it (see
/// [`ConcurrentOutcome`]). This is the in-memory reference the streamed
/// [`replay_concurrent_sources`] is tested against.
///
/// # Examples
///
/// ```
/// use tt_device::{presets, IoRequest};
/// use tt_sim::{replay_concurrent_tagged, IssueMode, ReplayConfig, Schedule, ScheduledOp};
/// use tt_trace::{time::SimDuration, OpType};
///
/// let stream = |base: u64| -> Schedule {
///     (0..20)
///         .map(|i| ScheduledOp {
///             pre_delay: SimDuration::from_usecs(50),
///             request: IoRequest::new(OpType::Read, base + i * 8, 8),
///             mode: IssueMode::Sync,
///         })
///         .collect()
/// };
/// let mut device = presets::intel_750_array();
/// let out = replay_concurrent_tagged(
///     &mut device,
///     &[stream(0), stream(1_000_000)],
///     "two-tenants",
///     ReplayConfig::default(),
/// );
/// assert_eq!(out.outcome.trace.len(), 40);
/// ```
pub fn replay_concurrent_tagged<D: BlockDevice + ?Sized>(
    device: &mut D,
    streams: &[Schedule],
    name: &str,
    config: ReplayConfig,
) -> ConcurrentOutcome {
    let mut its: Vec<_> = streams.iter().map(|s| s.ops().iter().copied()).collect();
    let providers: Vec<_> = its
        .iter_mut()
        .map(|it| move || Ok::<_, TraceError>(it.next()))
        .collect();
    let (observations, makespan, faults) = drive_concurrent(device, providers, config.retry)
        // lint:allow(panic) -- the providers wrap in-memory iterators and always return Ok, so drive_concurrent has no error source here
        .expect("schedule providers cannot fail");
    collect_concurrent(observations, makespan, faults, streams.len(), name, config)
}

/// Per-stream adapter from a chunked [`RecordSource`] to the lazy
/// [`ScheduledOp`] pulls [`drive_concurrent`] makes: open-/closed-loop
/// conversion on the fly, holding one chunk of records per stream
/// ([`tt_trace::ChunkCursor`]).
struct SourceOps<'env> {
    name: String,
    cursor: tt_trace::ChunkCursor<Box<dyn RecordSource + 'env>>,
    style: StreamReplay,
    index: usize,
    first_arrival: Option<SimInstant>,
    prev_arrival: Option<SimInstant>,
}

impl SourceOps<'_> {
    fn next_op(&mut self) -> Result<Option<ScheduledOp>, TraceError> {
        let Some(rec) = self.cursor.next_record()? else {
            return Ok(None);
        };
        // Both modes need arrival order: the schedules this stands in for
        // are built from an arrival-sorted trace.
        let gap = match self.prev_arrival {
            Some(prev) if rec.arrival < prev => {
                return Err(TraceError::invalid_record(
                    self.index,
                    format!(
                        "stream {:?}: streamed replay needs arrival order: {} precedes {prev}",
                        self.name, rec.arrival
                    ),
                ));
            }
            Some(prev) => rec.arrival - prev,
            None => SimDuration::ZERO,
        };
        self.prev_arrival = Some(rec.arrival);
        let op = match self.style {
            StreamReplay::OpenLoop { time_scale } => {
                let first = *self.first_arrival.get_or_insert(rec.arrival);
                self.style.check_span(rec.arrival - first)?;
                ScheduledOp {
                    pre_delay: gap.mul_f64(time_scale),
                    request: IoRequest::from(&rec),
                    mode: IssueMode::Async,
                }
            }
            StreamReplay::ClosedLoop => ScheduledOp {
                pre_delay: SimDuration::ZERO,
                request: IoRequest::from(&rec),
                mode: IssueMode::Sync,
            },
        };
        self.index += 1;
        Ok(Some(op))
    }
}

/// Replays several **streamed** record sources concurrently against one
/// shared device — [`replay_concurrent_tagged`] without materialised
/// schedules:
/// each `(name, source)` stream is converted to open- or closed-loop
/// operations on the fly and pulled chunk by chunk as the engine needs
/// them, so peak memory holds one chunk per stream plus the merged
/// observations, never the input traces.
///
/// Identical to building each stream's [`Schedule`] (open/closed loop)
/// from the collected trace and calling [`replay_concurrent_tagged`]
/// (property-tested), provided each stream is arrival-ordered.
///
/// # Errors
///
/// Propagates per-stream source errors, and rejects streams whose
/// records are not arrival-ordered (in either mode) or whose open-loop
/// time scale fails [`StreamReplay::check_span`].
pub fn replay_concurrent_sources<'env, D>(
    device: &mut D,
    streams: Vec<(String, Box<dyn RecordSource + 'env>)>,
    name: &str,
    style: StreamReplay,
    chunk: usize,
    config: ReplayConfig,
) -> Result<ConcurrentOutcome, TraceError>
where
    D: BlockDevice + ?Sized,
{
    style.check_span(SimDuration::ZERO)?;
    let chunk = chunk.max(1);
    let stream_count = streams.len();
    let mut adapters: Vec<SourceOps<'env>> = streams
        .into_iter()
        .map(|(name, source)| SourceOps {
            name,
            cursor: tt_trace::ChunkCursor::new(source, chunk),
            style,
            index: 0,
            first_arrival: None,
            prev_arrival: None,
        })
        .collect();
    let providers: Vec<_> = adapters.iter_mut().map(|a| move || a.next_op()).collect();
    let (observations, makespan, faults) = drive_concurrent(device, providers, config.retry)?;
    Ok(collect_concurrent(
        observations,
        makespan,
        faults,
        stream_count,
        name,
        config,
    ))
}

/// How a replay stage re-issues a recorded trace — the single-stream
/// `Pipeline` replay stage and [`replay_concurrent_sources`] both take it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamReplay {
    /// Open-loop: requests fire at their recorded inter-arrival gaps
    /// (scaled), regardless of completions — [`Schedule::open_loop`]
    /// semantics.
    OpenLoop {
        /// Gap multiplier; `1.0` reproduces recorded timing, `0.01` is the
        /// paper's 100× acceleration.
        time_scale: f64,
    },
    /// Closed-loop: each request issues as soon as its predecessor
    /// completes — [`Schedule::closed_loop`] semantics.
    ClosedLoop,
}

/// The longest scaled arrival span an open-loop replay may cover: half the
/// simulated clock, leaving the other half for service times, queueing
/// and retry backoff.
const MAX_SCALED_SPAN: SimDuration = SimDuration::from_nanos(u64::MAX / 2);

impl StreamReplay {
    /// Checks that replaying records whose arrivals span `span` keeps every
    /// request on the simulated clock: an open-loop time scale must be
    /// finite, non-negative, and must not stretch `span` past half the
    /// clock (~292 years). Closed-loop replay always passes. Every replay
    /// entry point that takes a `StreamReplay` runs this before issuing a
    /// request.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] naming `time-scale` when the check
    /// fails.
    pub fn check_span(self, span: SimDuration) -> Result<(), TraceError> {
        let StreamReplay::OpenLoop { time_scale } = self else {
            return Ok(());
        };
        if !(time_scale.is_finite() && time_scale >= 0.0) {
            return Err(TraceError::format(format!(
                "time-scale must be finite and non-negative, got {time_scale:?}"
            )));
        }
        let limit = MAX_SCALED_SPAN;
        if span.as_nanos() as f64 * time_scale > limit.as_nanos() as f64 {
            return Err(TraceError::format(format!(
                "time-scale {time_scale:?} stretches the trace's {span} arrival span past \
                 the simulated clock (the scaled span may be at most {limit})"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_device::{LinearDevice, LinearDeviceConfig};
    use tt_trace::{BlockRecord, OpType, TraceMeta};

    /// A linear device with easily predictable numbers:
    /// read Tsdev = 8us for 8 sectors (seq), Tcdel = 2us, Tmovd = 0.
    fn test_device() -> LinearDevice {
        LinearDevice::new(LinearDeviceConfig {
            beta_ns_per_sector: 1_000,
            eta_ns_per_sector: 1_000,
            tcdel_read: SimDuration::from_usecs(2),
            tcdel_write: SimDuration::from_usecs(2),
            tmovd: SimDuration::ZERO,
            serialize: true,
        })
    }

    fn op(pre_us: u64, mode: IssueMode) -> ScheduledOp {
        ScheduledOp {
            pre_delay: SimDuration::from_usecs(pre_us),
            request: IoRequest::new(OpType::Read, 0, 8),
            mode,
        }
    }

    #[test]
    fn sync_ops_chain_after_completion() {
        // Each request: 2us cdel + 8us sdev = 10us. Pre-delay 5us.
        let schedule: Schedule = vec![op(0, IssueMode::Sync), op(5, IssueMode::Sync)]
            .into_iter()
            .collect();
        let mut dev = test_device();
        let out = replay(&mut dev, &schedule, "t", ReplayConfig::default());
        let arrivals: Vec<u64> = out
            .trace
            .iter()
            .map(|r| r.arrival.as_nanos() / 1000)
            .collect();
        // First at 0, completes at 10; second ready at 15.
        assert_eq!(arrivals, vec![0, 15]);
        assert_eq!(out.makespan, SimDuration::from_usecs(25));
    }

    #[test]
    fn async_ops_chain_after_issue() {
        let schedule: Schedule = vec![op(0, IssueMode::Async), op(5, IssueMode::Async)]
            .into_iter()
            .collect();
        let mut dev = test_device();
        let out = replay(&mut dev, &schedule, "t", ReplayConfig::default());
        let arrivals: Vec<u64> = out
            .trace
            .iter()
            .map(|r| r.arrival.as_nanos() / 1000)
            .collect();
        // Second ready 5us after the first's *issue*, not completion.
        assert_eq!(arrivals, vec![0, 5]);
        // Serialized device: second waits 5us in queue, completes at 20us.
        assert_eq!(out.outcomes[1].queue_wait, SimDuration::from_usecs(5));
        assert_eq!(out.makespan, SimDuration::from_usecs(20));
    }

    #[test]
    fn closed_loop_discards_gaps() {
        // Original trace has huge gaps; closed-loop replay squeezes them out.
        let recs = vec![
            BlockRecord::new(SimInstant::from_secs(0), 0, 8, OpType::Read),
            BlockRecord::new(SimInstant::from_secs(10), 8, 8, OpType::Read),
        ];
        let old = Trace::from_records(TraceMeta::named("old"), recs);
        let schedule = Schedule::closed_loop(&old);
        let mut dev = test_device();
        let out = replay(&mut dev, &schedule, "new", ReplayConfig::default());
        assert!(out.trace.span() < SimDuration::from_usecs(50));
    }

    #[test]
    fn open_loop_reproduces_timestamps() {
        let recs = vec![
            BlockRecord::new(SimInstant::from_usecs(100), 0, 8, OpType::Read),
            BlockRecord::new(SimInstant::from_usecs(350), 8, 8, OpType::Read),
            BlockRecord::new(SimInstant::from_usecs(400), 16, 8, OpType::Read),
        ];
        let old = Trace::from_records(TraceMeta::named("old"), recs);
        let schedule = Schedule::open_loop(&old, 1.0);
        let mut dev = test_device();
        let out = replay(&mut dev, &schedule, "new", ReplayConfig::default());
        let gaps: Vec<f64> = out
            .trace
            .inter_arrivals()
            .map(|d| d.as_usecs_f64())
            .collect();
        assert_eq!(gaps, vec![250.0, 50.0]);
    }

    #[test]
    fn open_loop_scaling_accelerates() {
        let recs = vec![
            BlockRecord::new(SimInstant::ZERO, 0, 8, OpType::Read),
            BlockRecord::new(SimInstant::from_msecs(100), 8, 8, OpType::Read),
        ];
        let old = Trace::from_records(TraceMeta::named("old"), recs);
        let schedule = Schedule::open_loop(&old, 0.01);
        assert_eq!(schedule.ops()[1].pre_delay, SimDuration::from_msecs(1));
    }

    #[test]
    fn with_idle_times_injects_sleep() {
        let recs = vec![
            BlockRecord::new(SimInstant::ZERO, 0, 8, OpType::Read),
            BlockRecord::new(SimInstant::from_usecs(10), 8, 8, OpType::Read),
        ];
        let old = Trace::from_records(TraceMeta::named("old"), recs);
        let idle = vec![SimDuration::ZERO, SimDuration::from_msecs(2)];
        let modes = vec![IssueMode::Sync, IssueMode::Sync];
        let schedule = Schedule::with_idle_times(&old, &idle, &modes);
        let mut dev = test_device();
        let out = replay(&mut dev, &schedule, "new", ReplayConfig::default());
        let gap = out.trace.inter_arrival(0).unwrap();
        // Gap = first completion (10us) + 2ms idle.
        assert_eq!(gap, SimDuration::from_usecs(2010));
    }

    #[test]
    fn empty_schedule_is_fine() {
        let mut dev = test_device();
        let out = replay(&mut dev, &Schedule::new(), "empty", ReplayConfig::default());
        assert!(out.trace.is_empty());
        assert_eq!(out.makespan, SimDuration::ZERO);
    }

    #[test]
    fn timing_follows_config() {
        let schedule: Schedule = vec![op(0, IssueMode::Sync)].into_iter().collect();
        let mut dev = test_device();
        let with = replay(&mut dev, &schedule, "t", ReplayConfig::default());
        dev.reset();
        let without = replay(
            &mut dev,
            &schedule,
            "t",
            ReplayConfig {
                record_device_timing: false,
                ..ReplayConfig::default()
            },
        );
        assert!(with.trace.has_device_timing());
        assert!(!without.trace.has_device_timing());
    }

    #[test]
    #[should_panic(expected = "one idle time per request")]
    fn with_idle_times_checks_lengths() {
        let old = Trace::from_records(
            TraceMeta::default(),
            vec![BlockRecord::new(SimInstant::ZERO, 0, 8, OpType::Read)],
        );
        let _ = Schedule::with_idle_times(&old, &[], &[IssueMode::Sync]);
    }

    #[test]
    fn concurrent_streams_interleave() {
        // Two sync streams with 5us think on a serialised device: stream B
        // requests queue behind stream A's, so both finish later than either
        // would alone, and the merged trace interleaves arrivals.
        let stream: Schedule = (0..5).map(|_| op(5, IssueMode::Sync)).collect();
        let mut dev = test_device();
        let solo = replay(&mut dev, &stream, "solo", ReplayConfig::default());
        dev.reset();
        let both = replay_concurrent_tagged(
            &mut dev,
            &[stream.clone(), stream.clone()],
            "both",
            ReplayConfig::default(),
        )
        .outcome;
        assert_eq!(both.trace.len(), 10);
        assert!(both.makespan > solo.makespan);
        // Some queueing must have happened on the shared device.
        assert!(both
            .outcomes
            .iter()
            .any(|o| o.queue_wait > SimDuration::ZERO));
    }

    #[test]
    fn concurrent_single_stream_equals_plain_replay() {
        let stream: Schedule = (0..8).map(|i| op(i, IssueMode::Sync)).collect();
        let mut d1 = test_device();
        let mut d2 = test_device();
        let plain = replay(&mut d1, &stream, "x", ReplayConfig::default());
        let conc =
            replay_concurrent_tagged(&mut d2, &[stream], "x", ReplayConfig::default()).outcome;
        assert_eq!(plain.trace.columns(), conc.trace.columns());
        assert_eq!(plain.makespan, conc.makespan);
    }

    #[test]
    fn replay_into_matches_replay_at_any_chunk() {
        use tt_trace::sink::TraceSink;
        use tt_trace::TraceMeta;

        let schedule: Schedule = (0..50)
            .map(|i| {
                op(
                    i % 7,
                    if i % 3 == 0 {
                        IssueMode::Async
                    } else {
                        IssueMode::Sync
                    },
                )
            })
            .collect();
        let mut d1 = test_device();
        let whole = replay(&mut d1, &schedule, "x", ReplayConfig::default());
        for chunk in [1usize, 8, 1000] {
            let mut d2 = test_device();
            let mut sink = TraceSink::new(TraceMeta::named("x").with_source("tt-sim collector"));
            let streamed = replay_into(
                &mut d2,
                schedule.ops().iter().copied(),
                ReplayConfig::default(),
                &mut sink,
                chunk,
            )
            .unwrap();
            assert_eq!(streamed.makespan, whole.makespan, "chunk {chunk}");
            assert_eq!(streamed.stats.records, whole.trace.len());
            assert_eq!(sink.into_trace(), whole.trace, "chunk {chunk}");
        }
    }

    #[test]
    fn try_replay_stops_simulating_on_first_error() {
        let ops: Vec<ScheduledOp> = (0..100).map(|_| op(1, IssueMode::Sync)).collect();
        let mut dev = test_device();
        let mut visited = 0usize;
        let result: Result<SimDuration, &str> = try_replay_records(
            &mut dev,
            ops.iter().copied(),
            ReplayConfig::default(),
            |_, _| {
                visited += 1;
                Err("sink broke")
            },
        );
        assert_eq!(result.unwrap_err(), "sink broke");
        // The remaining 99 ops were never serviced.
        assert_eq!(visited, 1);
    }

    #[test]
    fn tagged_concurrent_demuxes_by_stream() {
        let stream_a: Schedule = (0..6).map(|_| op(5, IssueMode::Sync)).collect();
        let stream_b: Schedule = (0..4).map(|_| op(3, IssueMode::Sync)).collect();
        let mut dev = test_device();
        let tagged = replay_concurrent_tagged(
            &mut dev,
            &[stream_a, stream_b],
            "m",
            ReplayConfig::default(),
        );
        assert_eq!(tagged.stream_of.len(), 10);

        let split = tagged.split_traces(&["a".to_string(), "b".to_string()]);
        assert_eq!(split.len(), 2);
        assert_eq!(split[0].len(), 6);
        assert_eq!(split[1].len(), 4);
        // The demux partitions the merged trace exactly.
        assert_eq!(split[0].len() + split[1].len(), tagged.outcome.trace.len());
    }

    #[test]
    fn concurrent_sources_match_schedule_concurrent() {
        use tt_trace::source::VecSource;

        let stream_recs = |seed: u64, n: u64| -> Vec<BlockRecord> {
            (0..n)
                .map(|i| {
                    BlockRecord::new(
                        SimInstant::from_usecs(seed + i * (17 + seed % 5)),
                        seed * 1000 + i * 8,
                        8,
                        if (i + seed).is_multiple_of(3) {
                            OpType::Write
                        } else {
                            OpType::Read
                        },
                    )
                })
                .collect()
        };
        let streams = [stream_recs(1, 40), stream_recs(2, 25), stream_recs(9, 33)];
        let traces: Vec<Trace> = streams
            .iter()
            .map(|r| Trace::from_records(TraceMeta::named("t"), r.clone()))
            .collect();

        for style in [
            StreamReplay::OpenLoop { time_scale: 1.0 },
            StreamReplay::ClosedLoop,
        ] {
            let schedules: Vec<Schedule> = traces
                .iter()
                .map(|t| match style {
                    StreamReplay::OpenLoop { time_scale } => Schedule::open_loop(t, time_scale),
                    StreamReplay::ClosedLoop => Schedule::closed_loop(t),
                })
                .collect();
            let mut d1 = test_device();
            let reference =
                replay_concurrent_tagged(&mut d1, &schedules, "m", ReplayConfig::default());

            for chunk in [1usize, 8, 1000] {
                let mut d2 = test_device();
                let sources: Vec<(String, Box<dyn RecordSource>)> = streams
                    .iter()
                    .enumerate()
                    .map(|(i, recs)| {
                        (
                            format!("s{i}"),
                            Box::new(VecSource::new(recs.clone())) as Box<dyn RecordSource>,
                        )
                    })
                    .collect();
                let streamed = replay_concurrent_sources(
                    &mut d2,
                    sources,
                    "m",
                    style,
                    chunk,
                    ReplayConfig::default(),
                )
                .unwrap();
                assert_eq!(
                    streamed.outcome.trace, reference.outcome.trace,
                    "chunk {chunk}"
                );
                assert_eq!(streamed.stream_of, reference.stream_of, "chunk {chunk}");
                assert_eq!(streamed.outcome.makespan, reference.outcome.makespan);
            }
        }
    }

    #[test]
    fn concurrent_sources_reject_unordered_open_loop_by_stream() {
        use tt_trace::source::VecSource;

        let good = vec![BlockRecord::new(SimInstant::ZERO, 0, 8, OpType::Read)];
        let bad = vec![
            BlockRecord::new(SimInstant::from_usecs(10), 0, 8, OpType::Read),
            BlockRecord::new(SimInstant::from_usecs(5), 8, 8, OpType::Read),
        ];
        for style in [
            StreamReplay::OpenLoop { time_scale: 1.0 },
            StreamReplay::ClosedLoop,
        ] {
            let mut dev = test_device();
            let err = replay_concurrent_sources(
                &mut dev,
                vec![
                    (
                        "fine".to_string(),
                        Box::new(VecSource::new(good.clone())) as Box<dyn RecordSource>,
                    ),
                    (
                        "broken".to_string(),
                        Box::new(VecSource::new(bad.clone())) as _,
                    ),
                ],
                "m",
                style,
                64,
                ReplayConfig::default(),
            )
            .unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("broken"), "{style:?}: {msg}");
            assert!(msg.contains("arrival order"), "{style:?}: {msg}");
        }
    }

    #[test]
    fn concurrent_sources_with_empty_streams() {
        use tt_trace::source::VecSource;

        let mut dev = test_device();
        let out = replay_concurrent_sources(
            &mut dev,
            vec![
                (
                    "empty".to_string(),
                    Box::new(VecSource::new(Vec::new())) as Box<dyn RecordSource>,
                ),
                (
                    "one".to_string(),
                    Box::new(VecSource::new(vec![BlockRecord::new(
                        SimInstant::ZERO,
                        0,
                        8,
                        OpType::Read,
                    )])) as _,
                ),
            ],
            "m",
            StreamReplay::ClosedLoop,
            16,
            ReplayConfig::default(),
        )
        .unwrap();
        assert_eq!(out.outcome.trace.len(), 1);
        assert_eq!(out.stream_count, 2);
        let split = out.split_traces(&["empty".to_string(), "one".to_string()]);
        assert!(split[0].is_empty());
        assert_eq!(split[1].len(), 1);
    }

    #[test]
    fn concurrent_empty_streams() {
        let mut dev = test_device();
        let out = replay_concurrent_tagged(
            &mut dev,
            &[Schedule::new(), Schedule::new()],
            "empty",
            ReplayConfig::default(),
        );
        assert!(out.outcome.trace.is_empty());
    }
}
