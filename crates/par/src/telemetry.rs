//! # Pipeline flight recorder — per-stage timing telemetry
//!
//! End-to-end wall clock says *that* a pipeline run is slow; it cannot say
//! *which stage*. A [`FlightRecorder`] collects one track per stage (the
//! load, each transform stage, the terminal) and assembles them into a
//! [`FlightLog`] with each stage's wall clock and record count.
//!
//! Stages run one after another on the calling thread, so a stage's whole
//! wall clock is its own work: [`StageReport::busy`] equals
//! [`StageReport::wall`], and the channel columns (`send_wait`,
//! `recv_wait`, `chunks`, `queue_high_water`) and
//! [`FlightLog::channel_capacity`] read zero. They stay in the report so
//! the JSON that `tt-cli --timings` and tt-serve's `?timings=1` emit keeps
//! its shape.
//!
//! # The recording contract
//!
//! Whoever runs the stages times each one with a monotonic clock
//! ([`std::time::Instant`]) and hands the result to
//! [`FlightRecorder::record_stage`]. Recording only *observes*: tracks are
//! appended to a mutex'd list, and nothing about scheduling, chunking, or
//! ordering changes (property-tested in the workspace: recorder-on and
//! recorder-off runs compare equal down to the serialised bytes).
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use tt_par::telemetry::FlightRecorder;
//!
//! let recorder = FlightRecorder::new();
//! recorder.begin();
//! recorder.set_knobs(1024);
//! // Stages may record in any order; the index orders the log.
//! recorder.record_stage(1, "reconstruct", Duration::from_millis(5), 10_000);
//! recorder.record_stage(0, "load", Duration::from_millis(2), 10_000);
//! recorder.finish();
//!
//! let log = recorder.flight_log();
//! assert_eq!(log.stages.len(), 2);
//! assert_eq!(log.stages[0].stage, "load");
//! for stage in &log.stages {
//!     assert_eq!(stage.busy, stage.wall);
//! }
//! // Machine-readable (one line of JSON) and human renders:
//! assert!(log.to_json().contains("\"stage\":\"reconstruct\""));
//! assert!(log.render().contains("load"));
//! ```

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded stage run.
struct StageTrack {
    /// Ordering key: stages may record out of order.
    index: usize,
    label: String,
    wall: Duration,
    records: usize,
}

#[derive(Default)]
struct RecorderInner {
    started: Option<Instant>,
    wall: Duration,
    chunk_size: usize,
    tracks: Vec<StageTrack>,
}

/// Collects per-stage timing tracks from a pipeline run and assembles the
/// [`FlightLog`]. Shareable across threads via `Arc`; see the
/// [module docs](self) for the recording contract.
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

    /// Records the chunk size the run streams records in, once it is
    /// final (autotuning may pick it after the run began).
    pub fn set_knobs(&self, chunk_size: usize) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.chunk_size = chunk_size;
    }

    /// Records one stage run: `wall` is its wall clock and `records` the
    /// records it emitted. `index` orders the stages in the log. Safe to
    /// call from any thread.
    pub fn record_stage(&self, index: usize, label: &str, wall: Duration, records: usize) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.tracks.push(StageTrack {
            index,
            label: label.to_string(),
            wall,
            records,
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

    /// Assembles the recorded tracks into the [`FlightLog`], in stage
    /// index order.
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
            .map(|track| StageReport {
                stage: track.label.clone(),
                wall: track.wall,
                busy: track.wall,
                send_wait: Duration::ZERO,
                recv_wait: Duration::ZERO,
                records: track.records,
                chunks: 0,
                queue_high_water: 0,
            })
            .collect();
        FlightLog {
            wall: inner.wall,
            chunk_size: inner.chunk_size,
            channel_capacity: 0,
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
    /// Wall clock of the whole stage run.
    pub wall: Duration,
    /// Time doing the stage's own work — equal to `wall`, since stages
    /// run one after another.
    pub busy: Duration,
    /// Always zero: no channel sits between stages.
    pub send_wait: Duration,
    /// Always zero: no channel sits between stages.
    pub recv_wait: Duration,
    /// Records the stage emitted.
    pub records: usize,
    /// Always zero: no channel sits between stages.
    pub chunks: usize,
    /// Always zero: no channel sits between stages.
    pub queue_high_water: usize,
}

/// The assembled per-stage timing report of one pipeline run.
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
    /// Always zero: no channel sits between stages.
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
            "{} stages, wall {}, chunk {}\n",
            self.stages.len(),
            human(self.wall),
            self.chunk_size,
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
                "{:<width$}  wall {:>8}  records {:>9}\n",
                s.stage,
                human(s.wall),
                s.records,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_sort_by_index_not_arrival() {
        let recorder = FlightRecorder::new();
        recorder.begin();
        recorder.record_stage(2, "last", Duration::ZERO, 0);
        recorder.record_stage(0, "first", Duration::ZERO, 0);
        recorder.record_stage(1, "mid", Duration::ZERO, 0);
        recorder.finish();
        let log = recorder.flight_log();
        let names: Vec<&str> = log.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(names, ["first", "mid", "last"]);
    }

    #[test]
    fn begin_resets_a_previous_run() {
        let recorder = FlightRecorder::new();
        recorder.begin();
        recorder.record_stage(0, "old", Duration::ZERO, 0);
        recorder.finish();
        recorder.begin();
        recorder.record_stage(0, "new", Duration::ZERO, 0);
        recorder.finish();
        let log = recorder.flight_log();
        assert_eq!(log.stages.len(), 1);
        assert_eq!(log.stages[0].stage, "new");
    }

    #[test]
    fn json_is_one_line_and_escapes_labels() {
        let recorder = FlightRecorder::new();
        recorder.begin();
        recorder.record_stage(0, "we\"ird\\label", Duration::from_micros(7), 3);
        recorder.finish();
        let json = recorder.flight_log().to_json();
        assert!(!json.contains('\n'), "{json}");
        assert!(json.contains("we\\\"ird\\\\label"), "{json}");
        assert!(json.contains("\"wall_us\":7"), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
