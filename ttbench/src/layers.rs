//! The traced run's instruments: spans around the benchmark's calls into
//! each layer, timing wrappers at the device and sink boundaries, and the
//! per-layer metrics assembled from them.
//!
//! Every span is recorded from the benchmark's own code — nothing inside
//! the program under test is instrumented. Three kinds of row exist:
//!
//! * `span` — a call the benchmark brackets itself, on the thread that
//!   runs the operation (`trace.csv_decode`, `core.infer`, ...);
//! * `derived` — a duration the program reports or a wrapper sums up
//!   (flight-recorder stage busy and wait time, device service time, sink
//!   encode time), anchored at the operation's start;
//! * `parallel` — busy time on a worker thread that overlaps the
//!   operation (the fused chain's reconstruct stage).
//!
//! An operation's residue is its wall time minus its `span` and `derived`
//! rows: the part of the calling thread's time no layer accounts for.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use tracetracker::prelude::*;
use tt_trace::{BlockRecord, RecordSink, TraceError};

use crate::report::{Metric, Summary};

/// Per-operation layer times, milliseconds per operation (mean over the
/// traced operations; 0 where the workload never enters the layer).
pub const LAYER_TIMES: [&str; 12] = [
    "trace.csv_decode",
    "trace.csv_encode",
    "trace.ttb_read",
    "trace.ttb_map",
    "trace.stats",
    "core.infer",
    "core.decompose",
    "core.reconstruct",
    "device.service",
    "sim.replay",
    "pipeline.wait",
    "serve.handler",
];

/// Per-route handler medians of the `serve` workload, milliseconds.
pub const SERVE_ROUTES: [&str; 5] = ["stats", "group", "infer", "replay", "ingest"];

/// Counters and ratios, each the mean over the operations that report
/// it (0 where none does).
pub const LAYER_COUNTS: [(&str, &str); 6] = [
    ("sim.cuts", "count"),
    ("device.fault_spikes", "count"),
    ("pipeline.peak_depth", "count"),
    ("sim.shard_speedup_x", "x"),
    ("pipeline.fused_speedup_x", "x"),
    ("par.infer_speedup_x", "x"),
];

/// How a row relates to the operation's thread (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Bracketed by the benchmark on the operation's thread.
    Span,
    /// Reported by the program or summed by a wrapper.
    Derived,
    /// Busy time on another thread, overlapping the operation.
    Parallel,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Span => "span",
            Kind::Derived => "derived",
            Kind::Parallel => "parallel",
        }
    }
}

/// One row of the span file.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`<module>.<call>`).
    pub name: &'static str,
    /// Start, nanoseconds since the run's clock origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's clock origin.
    pub end_ns: u64,
    /// Relation to the operation's thread.
    pub kind: Kind,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The record of one traced operation.
#[derive(Debug)]
pub struct OpTrace {
    origin: Instant,
    start_ns: u64,
    spans: Vec<Span>,
    counts: Vec<(&'static str, f64)>,
}

impl OpTrace {
    /// Opens the record of an operation starting now.
    #[must_use]
    pub fn begin(origin: Instant) -> OpTrace {
        OpTrace::at(origin, Instant::now())
    }

    /// Opens the record of an operation that started at `start`.
    #[must_use]
    pub fn at(origin: Instant, start: Instant) -> OpTrace {
        OpTrace {
            origin,
            start_ns: nanos(start.saturating_duration_since(origin)),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.interval(name, start, Instant::now());
        out
    }

    /// Records a span measured elsewhere (e.g. on the server's thread).
    pub fn interval(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start_ns: nanos(start.saturating_duration_since(self.origin)),
            end_ns: nanos(end.saturating_duration_since(self.origin)),
            kind: Kind::Span,
        });
    }

    /// Records a duration the program reported or a wrapper summed.
    pub fn duration(&mut self, name: &'static str, d: Duration, kind: Kind) {
        self.spans.push(Span {
            name,
            start_ns: self.start_ns,
            end_ns: self.start_ns + nanos(d),
            kind,
        });
    }

    /// Records a counter or ratio.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((name, value));
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Accumulates traced operations into per-layer metrics and span rows.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    ops: u64,
    layer_ns: BTreeMap<&'static str, u64>,
    residue_ns: u64,
    counts: BTreeMap<&'static str, (f64, u64)>,
    handler_ms: BTreeMap<&'static str, Vec<f64>>,
    untraced_ms_per_op: f64,
    rows: String,
}

impl Tracer {
    /// A tracer whose span timestamps count from `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            ops: 0,
            layer_ns: BTreeMap::new(),
            residue_ns: 0,
            counts: BTreeMap::new(),
            handler_ms: BTreeMap::new(),
            untraced_ms_per_op: 0.0,
            rows: String::from("pass\top\tlabel\tname\tkind\tstart_ns\tend_ns\n"),
        }
    }

    /// The clock origin spans are measured from.
    #[must_use]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Closes a traced operation of `wall` time over the trace `label`.
    pub fn finish(&mut self, pass: usize, op: usize, label: &str, wall: Duration, t: OpTrace) {
        self.ops += 1;
        let wall_ns = nanos(wall);
        let _ = writeln!(
            self.rows,
            "{pass}\t{op}\t{label}\top\tspan\t{}\t{}",
            t.start_ns,
            t.start_ns + wall_ns
        );
        let mut accounted = 0u64;
        for s in &t.spans {
            *self.layer_ns.entry(s.name).or_default() += s.ns();
            if s.kind != Kind::Parallel {
                accounted += s.ns();
            }
            let _ = writeln!(
                self.rows,
                "{pass}\t{op}\t{label}\t{}\t{}\t{}\t{}",
                s.name,
                s.kind.label(),
                s.start_ns,
                s.end_ns
            );
        }
        self.residue_ns += wall_ns.saturating_sub(accounted);
        for (name, value) in t.counts {
            let e = self.counts.entry(name).or_default();
            e.0 += value;
            e.1 += 1;
        }
    }

    /// Records the handler time of one `serve` request on `route`.
    pub fn handler_sample(&mut self, route: &'static str, ms: f64) {
        self.handler_ms.entry(route).or_default().push(ms);
    }

    /// Mean time per traced operation spent in layer `name`, ms.
    #[must_use]
    pub fn layer_ms_per_op(&self, name: &str) -> f64 {
        let ns = self.layer_ns.get(name).copied().unwrap_or(0);
        if self.ops == 0 {
            0.0
        } else {
            ms(ns) / self.ops as f64
        }
    }

    /// Notes the median untraced operation time, for probes that compare
    /// another execution path against it.
    pub fn note_untraced(&mut self, ms_per_op: f64) {
        self.untraced_ms_per_op = ms_per_op;
    }

    /// The median untraced operation time noted by the pass loop, ms.
    #[must_use]
    pub fn untraced_ms_per_op(&self) -> f64 {
        self.untraced_ms_per_op
    }

    /// Records a counter that belongs to the run rather than one op.
    pub fn count(&mut self, name: &'static str, value: f64) {
        let e = self.counts.entry(name).or_default();
        e.0 += value;
        e.1 += 1;
    }

    /// The span file contents (tab-separated, one row per span).
    #[must_use]
    pub fn rows(&self) -> &str {
        &self.rows
    }

    /// Every per-layer metric, in `BENCHMARK.json` order. `overhead` is
    /// the traced over untraced operation time.
    #[must_use]
    pub fn metrics(&self, overhead: f64) -> Vec<Metric> {
        let mut out: Vec<Metric> = LAYER_TIMES
            .iter()
            .map(|&name| Metric::value(format!("{name}_ms"), self.layer_ms_per_op(name), "ms"))
            .collect();
        let residue = if self.ops == 0 {
            0.0
        } else {
            ms(self.residue_ns) / self.ops as f64
        };
        out.push(Metric::value("residue_ms", residue, "ms"));
        for route in SERVE_ROUTES {
            let samples = self.handler_ms.get(route).map_or(&[][..], Vec::as_slice);
            let name = format!("serve.{route}_p50_ms");
            out.push(if samples.is_empty() {
                Metric::value(name, 0.0, "ms")
            } else {
                Metric::median(name, samples, "ms")
            });
        }
        for (name, unit) in LAYER_COUNTS {
            let value = self
                .counts
                .get(name)
                .map_or(0.0, |&(sum, n)| sum / n as f64);
            out.push(Metric::value(name, value, unit));
        }
        out.push(Metric::value(
            "par.workers",
            tt_par::threads() as f64,
            "count",
        ));
        out.push(Metric::value("trace_overhead_x", overhead, "x"));
        out
    }
}

/// Traced/untraced time ratio from the two sets of pass or request times.
#[must_use]
pub fn overhead(traced: &[f64], untraced: &[f64]) -> f64 {
    if traced.is_empty() || untraced.is_empty() {
        return 0.0;
    }
    Summary::of(traced).median / Summary::of(untraced).median
}

/// A device wrapper that sums the wall time of every `service` call — the
/// device-model boundary, timed from outside the model.
///
/// It offers no snapshot, so a replay through it never shards; only
/// closed-loop stages, which never shard anyway, are wrapped.
#[derive(Debug)]
pub struct TimedDevice<D> {
    inner: D,
    busy: Duration,
}

impl<D: BlockDevice> TimedDevice<D> {
    /// Wraps `inner` with a zeroed timer.
    pub fn new(inner: D) -> Self {
        TimedDevice {
            inner,
            busy: Duration::ZERO,
        }
    }

    /// Total time spent inside the wrapped device's service calls.
    #[must_use]
    pub fn busy(&self) -> Duration {
        self.busy
    }
}

impl<D: BlockDevice> BlockDevice for TimedDevice<D> {
    fn service(&mut self, request: &IoRequest, issue: SimInstant) -> ServiceOutcome {
        let t = Instant::now();
        let out = self.inner.service(request, issue);
        self.busy += t.elapsed();
        out
    }

    fn try_service(
        &mut self,
        request: &IoRequest,
        issue: SimInstant,
    ) -> Result<ServiceOutcome, ServiceFault> {
        let t = Instant::now();
        let out = self.inner.try_service(request, issue);
        self.busy += t.elapsed();
        out
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn service_bound(&self, request: &IoRequest) -> Option<SimDuration> {
        self.inner.service_bound(request)
    }

    fn busy_bound(&self) -> Option<SimInstant> {
        self.inner.busy_bound()
    }

    fn fast_forward(&mut self, request: &IoRequest) {
        self.inner.fast_forward(request);
    }
}

/// A sink wrapper that sums the time spent encoding and writing records.
#[derive(Debug)]
pub struct TimedSink<S> {
    inner: S,
    busy: Duration,
}

impl<S: RecordSink> TimedSink<S> {
    /// Wraps `inner` with a zeroed timer.
    pub fn new(inner: S) -> Self {
        TimedSink {
            inner,
            busy: Duration::ZERO,
        }
    }

    /// Total time spent inside the wrapped sink.
    #[must_use]
    pub fn busy(&self) -> Duration {
        self.busy
    }
}

impl<S: RecordSink> RecordSink for TimedSink<S> {
    fn push_chunk(&mut self, records: &[BlockRecord]) -> Result<(), TraceError> {
        let t = Instant::now();
        let out = self.inner.push_chunk(records);
        self.busy += t.elapsed();
        out
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        let t = Instant::now();
        let out = self.inner.finish();
        self.busy += t.elapsed();
        out
    }

    fn sink_name(&self) -> &str {
        self.inner.sink_name()
    }
}
