//! # Pipeline flight recorder — per-stage timing telemetry
//!
//! The fused pipeline executor runs transform stages as worker threads
//! chained by bounded channels ([`crate::bounded`]). End-to-end wall
//! clock says *that* a chain is slow; it cannot say *which stage* — or
//! whether the time went into real work, waiting for a full downstream
//! queue, or starving on an empty upstream one. This module is the
//! missing per-stage story: a [`FlightRecorder`] collects one track per
//! stage and assembles them into a [`FlightLog`] with, per stage,
//!
//! * **busy** — time spent doing the stage's own work,
//! * **send-wait** — time blocked because the *downstream* queue was at
//!   capacity (the stage outruns its consumer),
//! * **recv-wait** — time blocked because the *upstream* queue was empty
//!   (the stage starves on its producer),
//!
//! plus record/chunk counts and the queue **high-water mark** (peak
//! in-flight depth, ≤ the channel capacity by construction).
//!
//! # The recording contract
//!
//! **Where the clock boundaries sit.** Wait times are measured inside
//! the bounded channel, with a monotonic clock ([`std::time::Instant`]),
//! and *only around actual blocking*: the clock starts when a
//! send/receive first finds the queue full/empty and parks on the
//! condvar, and stops when the operation completes. The uncontended fast
//! path — lock, push/pop, notify — is never timed, which is what keeps
//! the recorder's overhead within its **<5% budget** (measured by the
//! `tt-bench` recorder lane). Stage wall clocks are taken around the
//! whole stage run on its worker thread; `busy` is derived as
//! `wall − send_wait − recv_wait`, so per stage
//! `busy + send_wait + recv_wait ≤ wall` always holds.
//!
//! **Why outputs are bit-identical with the recorder on.** Recording
//! only *observes*: counters are relaxed atomics bumped at channel
//! boundaries, stage tracks are appended to a mutex'd list, and nothing
//! about scheduling, chunking, ordering, or channel capacity changes.
//! The records that flow through an instrumented channel are the same
//! `Vec`s, in the same order, as through a bare one (property-tested in
//! the workspace: recorder-on and recorder-off runs compare equal down
//! to the serialised bytes).
//!
//! # Example
//!
//! A recorder is driven by whoever runs the stages (in the workspace:
//! the `Pipeline` executor); here the stages are simulated by hand to
//! show the assembly contract:
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use tt_par::telemetry::{ChannelStats, FlightRecorder};
//!
//! let recorder = FlightRecorder::new();
//! recorder.begin();
//! recorder.set_knobs(1024, 4);
//!
//! // One stage boundary: the producer's output, the consumer's input.
//! let boundary = Arc::new(ChannelStats::new());
//! boundary.on_send(3);        // a chunk crossed at queue depth 3
//! boundary.add_send_wait(250_000); // the producer blocked 250µs once
//!
//! recorder.record_stage(
//!     1, "produce", Duration::from_millis(5), 10_000,
//!     None, Some(Arc::clone(&boundary)),
//! );
//! recorder.record_stage(
//!     2, "consume", Duration::from_millis(5), 10_000,
//!     Some(boundary), None,
//! );
//! recorder.finish();
//!
//! let log = recorder.flight_log();
//! assert_eq!(log.stages.len(), 2);
//! assert_eq!(log.stages[0].stage, "produce");
//! assert_eq!(log.stages[0].send_wait, Duration::from_micros(250));
//! for stage in &log.stages {
//!     assert!(stage.busy + stage.send_wait + stage.recv_wait <= stage.wall);
//!     assert!(stage.queue_high_water <= 4);
//! }
//! // Machine-readable (one line of JSON) and human renders:
//! assert!(log.to_json().contains("\"stage\":\"produce\""));
//! assert!(log.render().contains("consume"));
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Traffic and wait-time counters for one instrumented channel
/// (shareable, lock-free relaxed-atomic updates).
///
/// One `ChannelStats` sits at one stage boundary: its **send** side
/// belongs to the producer stage (time blocked on a full queue), its
/// **recv** side to the consumer stage (time blocked on an empty one).
/// The recording methods are normally driven by
/// [`crate::bounded::channel_instrumented`]; they are public so other
/// executors can reuse the same assembly contract.
#[derive(Debug, Default)]
pub struct ChannelStats {
    chunks: AtomicUsize,
    peak: AtomicUsize,
    send_wait_ns: AtomicU64,
    recv_wait_ns: AtomicU64,
}

impl ChannelStats {
    /// A fresh set of zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        ChannelStats::default()
    }

    /// Total messages (chunks) sent through the channel.
    #[must_use]
    pub fn chunks(&self) -> usize {
        self.chunks.load(Ordering::Relaxed)
    }

    /// The deepest the queue ever got, in messages — the high-water
    /// mark, ≤ the channel capacity by construction.
    #[must_use]
    pub fn peak_depth(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Cumulative time senders spent blocked on a full queue.
    #[must_use]
    pub fn send_wait(&self) -> Duration {
        Duration::from_nanos(self.send_wait_ns.load(Ordering::Relaxed))
    }

    /// Cumulative time receivers spent blocked on an empty queue.
    #[must_use]
    pub fn recv_wait(&self) -> Duration {
        Duration::from_nanos(self.recv_wait_ns.load(Ordering::Relaxed))
    }

    /// Records one message sent at queue depth `depth` (post-push).
    pub fn on_send(&self, depth: usize) {
        self.chunks.fetch_add(1, Ordering::Relaxed);
        self.peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Credits `ns` nanoseconds of blocked-on-send (full queue) time.
    pub fn add_send_wait(&self, ns: u64) {
        self.send_wait_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Credits `ns` nanoseconds of blocked-on-recv (empty queue) time.
    pub fn add_recv_wait(&self, ns: u64) {
        self.recv_wait_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// One recorded stage run, as reported by its worker.
struct StageTrack {
    /// Ordering key: stages may finish (and record) out of order.
    index: usize,
    label: String,
    wall: Duration,
    records: usize,
    /// The channel the stage consumed from (its recv-waits), if any.
    input: Option<Arc<ChannelStats>>,
    /// The channel the stage produced into (its send-waits), if any.
    output: Option<Arc<ChannelStats>>,
}

#[derive(Default)]
struct RecorderInner {
    started: Option<Instant>,
    wall: Duration,
    chunk_size: usize,
    channel_capacity: usize,
    tracks: Vec<StageTrack>,
}

/// Collects per-stage timing tracks from an executor run and assembles
/// the [`FlightLog`]. Shareable across the executor's worker threads via
/// `Arc`; see the [module docs](self) for the recording contract.
#[derive(Default)]
pub struct FlightRecorder {
    inner: Mutex<RecorderInner>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f.debug_struct("FlightRecorder")
            .field("stages", &inner.tracks.len())
            .field("wall", &inner.wall)
            .finish()
    }
}

impl FlightRecorder {
    /// A fresh, empty recorder.
    #[must_use]
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// Starts a run: clears any previously recorded tracks and stamps
    /// the wall-clock start. One recorder can therefore be attached to
    /// several consecutive runs; the log always describes the last one.
    pub fn begin(&self) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *inner = RecorderInner {
            started: Some(Instant::now()),
            ..RecorderInner::default()
        };
    }

    /// Records the run's knobs — the chunk size records stream in and
    /// the bounded-channel capacity between fused stages — once they are
    /// final (autotuning may pick them after the run began).
    pub fn set_knobs(&self, chunk_size: usize, channel_capacity: usize) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.chunk_size = chunk_size;
        inner.channel_capacity = channel_capacity;
    }

    /// Records one stage run. `index` orders the stages in the log
    /// (workers may finish out of order); `input`/`output` attach the
    /// stage-boundary channels whose recv-/send-waits belong to this
    /// stage. Safe to call from any thread.
    pub fn record_stage(
        &self,
        index: usize,
        label: &str,
        wall: Duration,
        records: usize,
        input: Option<Arc<ChannelStats>>,
        output: Option<Arc<ChannelStats>>,
    ) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.tracks.push(StageTrack {
            index,
            label: label.to_string(),
            wall,
            records,
            input,
            output,
        });
    }

    /// Ends the run, stamping the total wall clock (a no-op without a
    /// preceding [`FlightRecorder::begin`]).
    pub fn finish(&self) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(started) = inner.started.take() {
            inner.wall = started.elapsed();
        }
    }

    /// `true` when no stage has recorded since the last
    /// [`FlightRecorder::begin`] (or ever).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .tracks
            .is_empty()
    }

    /// Assembles the recorded tracks into the [`FlightLog`], deriving
    /// per-stage `busy` from the wall clock and the channel wait
    /// counters (see the [module docs](self) for the derivation).
    #[must_use]
    pub fn flight_log(&self) -> FlightLog {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut tracks: Vec<&StageTrack> = inner.tracks.iter().collect();
        tracks.sort_by_key(|t| t.index);
        let stages = tracks
            .into_iter()
            .map(|track| {
                // Clamp the waits into the stage's wall clock so the
                // derived busy time is never negative: the channel
                // counters are cumulative and (for shared boundaries)
                // can slightly overlap the worker's own wall window.
                let wall = track.wall;
                let send_wait = track
                    .output
                    .as_ref()
                    .map_or(Duration::ZERO, |c| c.send_wait())
                    .min(wall);
                let recv_wait = track
                    .input
                    .as_ref()
                    .map_or(Duration::ZERO, |c| c.recv_wait())
                    .min(wall - send_wait);
                let busy = wall - send_wait - recv_wait;
                let chunks = track
                    .output
                    .as_ref()
                    .or(track.input.as_ref())
                    .map_or(0, |c| c.chunks());
                let queue_high_water = track
                    .input
                    .iter()
                    .chain(track.output.iter())
                    .map(|c| c.peak_depth())
                    .max()
                    .unwrap_or(0);
                StageReport {
                    stage: track.label.clone(),
                    wall,
                    busy,
                    send_wait,
                    recv_wait,
                    records: track.records,
                    chunks,
                    queue_high_water,
                }
            })
            .collect();
        FlightLog {
            wall: inner.wall,
            chunk_size: inner.chunk_size,
            channel_capacity: inner.channel_capacity,
            stages,
        }
    }
}

/// One stage's line in the [`FlightLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReport {
    /// Stage label (`"load"`, `"reconstruct"`, `"replay"`, `"write"`, a
    /// terminal name, …).
    pub stage: String,
    /// Wall clock of the whole stage run on its worker.
    pub wall: Duration,
    /// Time doing the stage's own work: `wall − send_wait − recv_wait`.
    pub busy: Duration,
    /// Time blocked sending into a full downstream queue.
    pub send_wait: Duration,
    /// Time blocked receiving from an empty upstream queue.
    pub recv_wait: Duration,
    /// Records the stage emitted.
    pub records: usize,
    /// Chunks that crossed the stage's boundary channel.
    pub chunks: usize,
    /// Peak in-flight queue depth at the stage's boundary channel(s) —
    /// ≤ the channel capacity by construction.
    pub queue_high_water: usize,
}

impl StageReport {
    /// Fraction of the stage's wall clock spent blocked on channels
    /// (send-wait + recv-wait over wall; `0.0` for an instant stage).
    #[must_use]
    pub fn stall_ratio(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            return 0.0;
        }
        (self.send_wait + self.recv_wait).as_secs_f64() / wall
    }
}

/// The assembled per-stage timing report of one executor run.
///
/// Render with [`FlightLog::to_json`] (one line, machine-readable — the
/// shape `tt-cli --timings` and tt-serve's `?timings=1` emit) or
/// [`FlightLog::render`] (one human line per stage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightLog {
    /// Total run wall clock ([`FlightRecorder::begin`] to
    /// [`FlightRecorder::finish`]).
    pub wall: Duration,
    /// Records per streamed chunk the run used.
    pub chunk_size: usize,
    /// Bounded-channel capacity (in chunks) between fused stages.
    pub channel_capacity: usize,
    /// Per-stage reports, in stage order.
    pub stages: Vec<StageReport>,
}

/// Escapes a label for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a duration for the human report: `1.234s` / `56.7ms` /
/// `890us` / `0`.
fn human(d: Duration) -> String {
    let us = d.as_micros();
    if us == 0 {
        "0".to_string()
    } else if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.3}s", us as f64 / 1_000_000.0)
    }
}

impl FlightLog {
    /// The machine-readable render: one line of JSON, times in integer
    /// microseconds (`*_us`), in the same hand-rolled style as the
    /// bench's `TT_BENCH_JSON` report.
    #[must_use]
    pub fn to_json(&self) -> String {
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| {
                format!(
                    "{{\"stage\":\"{}\",\"wall_us\":{},\"busy_us\":{},\"send_wait_us\":{},\
                     \"recv_wait_us\":{},\"records\":{},\"chunks\":{},\"queue_high_water\":{}}}",
                    json_escape(&s.stage),
                    s.wall.as_micros(),
                    s.busy.as_micros(),
                    s.send_wait.as_micros(),
                    s.recv_wait.as_micros(),
                    s.records,
                    s.chunks,
                    s.queue_high_water,
                )
            })
            .collect();
        format!(
            "{{\"wall_us\":{},\"chunk_size\":{},\"channel_capacity\":{},\"stages\":[{}]}}",
            self.wall.as_micros(),
            self.chunk_size,
            self.channel_capacity,
            stages.join(",")
        )
    }

    /// The human render: a header plus one line per stage.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} stages, wall {}, chunk {}, channel capacity {}\n",
            self.stages.len(),
            human(self.wall),
            self.chunk_size,
            self.channel_capacity,
        );
        let width = self
            .stages
            .iter()
            .map(|s| s.stage.len())
            .max()
            .unwrap_or(0)
            .max(5);
        for s in &self.stages {
            out.push_str(&format!(
                "{:<width$}  wall {:>8}  busy {:>8} ({:>3.0}%)  send-wait {:>8}  \
                 recv-wait {:>8}  records {:>9}  chunks {:>6}  high-water {}\n",
                s.stage,
                human(s.wall),
                human(s.busy),
                (1.0 - s.stall_ratio()) * 100.0,
                human(s.send_wait),
                human(s.recv_wait),
                s.records,
                s.chunks,
                s.queue_high_water,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waits_clamp_into_the_wall_clock() {
        let recorder = FlightRecorder::new();
        recorder.begin();
        recorder.set_knobs(64, 4);
        let chan = Arc::new(ChannelStats::new());
        // Credit more wait than the stage's wall: the derivation must
        // clamp, keeping busy ≥ 0 and busy+waits == wall.
        chan.add_send_wait(5_000_000_000);
        chan.add_recv_wait(5_000_000_000);
        recorder.record_stage(
            0,
            "s",
            Duration::from_millis(2),
            10,
            Some(Arc::clone(&chan)),
            Some(chan),
        );
        recorder.finish();
        let log = recorder.flight_log();
        let s = &log.stages[0];
        assert_eq!(s.busy + s.send_wait + s.recv_wait, s.wall);
        assert_eq!(s.send_wait, Duration::from_millis(2));
        assert_eq!(s.recv_wait, Duration::ZERO);
        assert_eq!(s.busy, Duration::ZERO);
    }

    #[test]
    fn stages_sort_by_index_not_arrival() {
        let recorder = FlightRecorder::new();
        recorder.begin();
        recorder.record_stage(2, "last", Duration::ZERO, 0, None, None);
        recorder.record_stage(0, "first", Duration::ZERO, 0, None, None);
        recorder.record_stage(1, "mid", Duration::ZERO, 0, None, None);
        recorder.finish();
        let log = recorder.flight_log();
        let names: Vec<&str> = log.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(names, ["first", "mid", "last"]);
    }

    #[test]
    fn begin_resets_a_previous_run() {
        let recorder = FlightRecorder::new();
        recorder.begin();
        recorder.record_stage(0, "old", Duration::ZERO, 0, None, None);
        recorder.finish();
        recorder.begin();
        recorder.record_stage(0, "new", Duration::ZERO, 0, None, None);
        recorder.finish();
        let log = recorder.flight_log();
        assert_eq!(log.stages.len(), 1);
        assert_eq!(log.stages[0].stage, "new");
    }

    #[test]
    fn json_is_one_line_and_escapes_labels() {
        let recorder = FlightRecorder::new();
        recorder.begin();
        recorder.record_stage(0, "we\"ird\\label", Duration::from_micros(7), 3, None, None);
        recorder.finish();
        let json = recorder.flight_log().to_json();
        assert!(!json.contains('\n'), "{json}");
        assert!(json.contains("we\\\"ird\\\\label"), "{json}");
        assert!(json.contains("\"wall_us\":7"), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn stall_ratio_is_wait_over_wall() {
        let s = StageReport {
            stage: "x".into(),
            wall: Duration::from_millis(10),
            busy: Duration::from_millis(5),
            send_wait: Duration::from_millis(3),
            recv_wait: Duration::from_millis(2),
            records: 0,
            chunks: 0,
            queue_high_water: 0,
        };
        assert!((s.stall_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn channel_stats_accumulate() {
        let c = ChannelStats::new();
        c.on_send(2);
        c.on_send(4);
        c.on_send(1);
        c.add_send_wait(1_000);
        c.add_send_wait(500);
        c.add_recv_wait(2_000);
        assert_eq!(c.chunks(), 3);
        assert_eq!(c.peak_depth(), 4);
        assert_eq!(c.send_wait(), Duration::from_nanos(1_500));
        assert_eq!(c.recv_wait(), Duration::from_micros(2));
    }
}
