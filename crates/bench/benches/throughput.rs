//! End-to-end pipeline throughput: load → group → infer → reconstruct
//! over a ~1M-record synthetic session, sequential vs parallel, plus a
//! format-load lane comparing CSV text parsing against the TTB binary
//! columnar bulk read (the convert-once / reload-many workflow), a
//! `ttb_mmap` lane comparing that bulk read against the zero-copy
//! memory-mapped view (open cost and open-to-first-group latency), a
//! `recorder` lane timing the `reconstruct → replay` Pipeline chain with
//! the flight recorder off and on, and a `fault` lane measuring an
//! empty-plan `FaultyDevice` against the bare device. Every lane asserts
//! its outputs bit-identical; the speed ratios are reported, not asserted.
//!
//! Prints per-stage wall-clock, records/sec, and the parallel speedup of
//! the grouping+inference stage (the part `tt_par` fans out; on a ≥4-core
//! machine it should exceed 2×). The parallel and sequential runs are
//! asserted **bit-identical** via fingerprints of the grouped partition,
//! the inferred estimate, and the reconstructed trace; the TTB reload is
//! asserted column-identical to the parsed CSV.
//!
//! Environment knobs — this bench doubles as the CI perf-regression gate:
//!
//! * `TT_THROUGHPUT_REQUESTS` — input size (default 1,000,000);
//! * `TT_BENCH_JSON=out.json` — also emit the results machine-readable;
//! * `TT_BENCH_BASELINE=bench-baseline.json` — compare every metric
//!   against the committed baseline and **exit non-zero** when one drops
//!   more than the tolerance below it (a relative path resolves against
//!   the workspace root);
//! * `TT_BENCH_TOLERANCE` — allowed fractional drop (default `0.30`);
//! * `TT_BENCH_SKIP_GATE=1` — escape hatch: report but never fail, for
//!   intentional baseline resets.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::json::Value;
use tracetracker::Pipeline;
use tt_core::{infer, InferenceConfig, Reconstructor, TraceTracker};
use tt_device::{presets, FaultPlan, FaultyDevice, LinearDevice, LinearDeviceConfig};
use tt_sim::{replay, ReplayConfig, Schedule, StreamReplay};
use tt_trace::format::csv::{self, CsvSource};
use tt_trace::format::ttb::{self, MmapTrace};
use tt_trace::source::collect_source;
use tt_trace::{GroupedTrace, Trace, TraceMeta};
use tt_workloads::{catalog, generate_session};

fn requests() -> usize {
    std::env::var("TT_THROUGHPUT_REQUESTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000)
}

/// FNV-1a over a byte stream, for cheap output fingerprints.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Everything the pipeline produced, reduced to comparable bits.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    groups: u64,
    estimate: [u64; 5],
    reconstructed: u64,
}

fn fingerprint(
    grouped: &GroupedTrace,
    result: &tt_core::InferenceResult,
    out: &Trace,
) -> Fingerprint {
    let mut g = Fnv::new();
    for (key, group) in grouped.iter() {
        g.write_u64(u64::from(key.sectors));
        g.write_u64(group.indices.len() as u64);
        for &i in &group.indices {
            g.write_u64(i as u64);
        }
        for &gap in &group.inter_arrivals {
            g.write_u64(gap.as_nanos());
        }
    }
    let est = &result.estimate;
    let mut r = Fnv::new();
    for a in out.columns().arrivals() {
        r.write_u64(a.as_nanos());
    }
    Fingerprint {
        groups: g.0,
        estimate: [
            est.beta_ns_per_sector.to_bits(),
            est.eta_ns_per_sector.to_bits(),
            est.tcdel_read.as_nanos(),
            est.tcdel_write.as_nanos(),
            est.tmovd.as_nanos(),
        ],
        reconstructed: r.0,
    }
}

/// Generates the synthetic session and serialises it to CSV bytes — the
/// "on-disk" input the measured pipeline loads back.
fn build_input(n: usize) -> Vec<u8> {
    let entry = catalog::find("MSNFS").expect("catalog workload");
    let session = generate_session("MSNFS", &entry.profile, n, 0xBEEF);
    let mut device = LinearDevice::new(LinearDeviceConfig::default());
    let trace = session.materialize(&mut device, false).trace;
    let mut buf = Vec::with_capacity(n * 24);
    csv::write_csv(&trace, &mut buf).expect("serialise input");
    buf
}

struct RunReport {
    load: Duration,
    group_infer: Duration,
    reconstruct: Duration,
    records: usize,
    fingerprint: Fingerprint,
}

/// One full pipeline pass at the given worker count.
fn run(input: &[u8], threads: usize) -> RunReport {
    tt_par::set_threads(threads);

    let t0 = Instant::now();
    let trace = collect_source(
        &mut CsvSource::new(input),
        TraceMeta::named("throughput").with_source("csv"),
        tt_trace::source::DEFAULT_CHUNK,
    )
    .expect("parse input");
    let load = t0.elapsed();

    let t1 = Instant::now();
    let grouped = GroupedTrace::build(&trace);
    let result = infer(&trace, &InferenceConfig::default());
    let group_infer = t1.elapsed();

    let t2 = Instant::now();
    let mut target = presets::intel_750_array();
    let reconstructed = TraceTracker::new().reconstruct(&trace, &mut target);
    let reconstruct = t2.elapsed();

    let fingerprint = fingerprint(&grouped, &result, &reconstructed);
    tt_par::set_threads(0);
    RunReport {
        load,
        group_infer,
        reconstruct,
        records: trace.len(),
        fingerprint,
    }
}

fn report(label: &str, r: &RunReport) {
    let total = r.load + r.group_infer + r.reconstruct;
    let rate = r.records as f64 / total.as_secs_f64();
    println!(
        "{label:<11} load {:>8.3}s | group+infer {:>8.3}s | reconstruct {:>8.3}s | \
         total {:>8.3}s  ({rate:.0} rec/s)",
        r.load.as_secs_f64(),
        r.group_infer.as_secs_f64(),
        r.reconstruct.as_secs_f64(),
        total.as_secs_f64(),
    );
}

/// CSV-parse vs TTB-bulk-read over the same records.
struct FormatLane {
    csv_load: Duration,
    ttb_load: Duration,
    csv_bytes: usize,
    ttb_bytes: usize,
    records: usize,
}

impl FormatLane {
    fn speedup(&self) -> f64 {
        self.csv_load.as_secs_f64() / self.ttb_load.as_secs_f64().max(1e-9)
    }
}

/// Measures loading the same trace from CSV text and from a TTB binary
/// cache, asserting the decoded columns identical. Also returns the cache
/// bytes for the mmap lane.
fn run_format_lane(input: &[u8]) -> (FormatLane, Vec<u8>) {
    let t0 = Instant::now();
    let from_csv = collect_source(
        &mut CsvSource::new(input),
        TraceMeta::named("throughput").with_source("csv"),
        tt_trace::source::DEFAULT_CHUNK,
    )
    .expect("parse input");
    let csv_load = t0.elapsed();

    // Convert once...
    let mut cache = Vec::new();
    ttb::write_ttb(&from_csv, &mut cache).expect("serialise ttb cache");

    // ...reload many times (here: once, timed).
    let t1 = Instant::now();
    let from_ttb = ttb::read_ttb(cache.as_slice(), "throughput").expect("load ttb cache");
    let ttb_load = t1.elapsed();

    assert_eq!(
        from_ttb.columns(),
        from_csv.columns(),
        "TTB reload diverged from the parsed CSV"
    );
    let lane = FormatLane {
        csv_load,
        ttb_load,
        csv_bytes: input.len(),
        ttb_bytes: cache.len(),
        records: from_csv.len(),
    };
    (lane, cache)
}

/// Bulk `read_ttb` vs zero-copy `MmapTrace` over the same on-disk cache:
/// raw trace-open cost and open-to-first-group latency.
struct MmapLane {
    bulk_open: Duration,
    bulk_group: Duration,
    mmap_open: Duration,
    mmap_group: Duration,
    records: usize,
    /// Whether the mapped open served the columns in place. False above
    /// `WRITE_BLOCK` records, where `write_ttb` emits a multi-block file
    /// and the mapped view takes the copying fallback.
    zero_copy: bool,
}

impl MmapLane {
    /// Bulk open time over mapped open time (bigger = mmap wins).
    fn open_speedup(&self) -> f64 {
        self.bulk_open.as_secs_f64() / self.mmap_open.as_secs_f64().max(1e-9)
    }

    fn bulk_total(&self) -> Duration {
        self.bulk_open + self.bulk_group
    }

    fn mmap_total(&self) -> Duration {
        self.mmap_open + self.mmap_group
    }
}

/// Writes the TTB cache to a real file (mmap needs one), then measures
/// open and first-group under both load paths, asserting the grouped
/// outputs identical. Opens are timed best-of-3: at CI's 200k smoke
/// scale a single open is sub-millisecond, too noisy for a 30% gate.
fn run_mmap_lane(cache: &[u8]) -> MmapLane {
    let path = std::env::temp_dir().join(format!("tt_bench_mmap_{}.ttb", std::process::id()));
    std::fs::write(&path, cache).expect("write ttb cache file");
    const OPEN_REPS: usize = 3;

    let mut bulk_open = Duration::MAX;
    let mut bulk = None;
    for _ in 0..OPEN_REPS {
        let t = Instant::now();
        let trace = ttb::read_ttb(
            std::io::BufReader::new(std::fs::File::open(&path).expect("open cache")),
            "throughput",
        )
        .expect("bulk read");
        bulk_open = bulk_open.min(t.elapsed());
        bulk = Some(trace);
    }
    let bulk = bulk.expect("at least one bulk open");
    let t1 = Instant::now();
    let bulk_grouped = GroupedTrace::build(&bulk);
    let bulk_group = t1.elapsed();

    let mut mmap_open = Duration::MAX;
    let mut mapped = None;
    for _ in 0..OPEN_REPS {
        let t = Instant::now();
        let m = MmapTrace::open(&path).expect("map cache");
        mmap_open = mmap_open.min(t.elapsed());
        mapped = Some(m);
    }
    let mapped = mapped.expect("at least one mapped open");
    let zero_copy = mapped.is_zero_copy();
    assert!(
        zero_copy || bulk.len() > ttb::WRITE_BLOCK,
        "a single-block bench cache must take the zero-copy path"
    );
    let t3 = Instant::now();
    let mmap_grouped = GroupedTrace::build(mapped.columns());
    let mmap_group = t3.elapsed();

    assert_eq!(
        mmap_grouped, bulk_grouped,
        "mapped grouping diverged from the bulk-read path"
    );
    let records = bulk.len();
    std::fs::remove_file(&path).ok();
    MmapLane {
        bulk_open,
        bulk_group,
        mmap_open,
        mmap_group,
        records,
        zero_copy,
    }
}

/// Flight-recorder overhead on the `reconstruct → replay` chain:
/// the identical run with and without a recorder attached.
struct RecorderLane {
    off: Duration,
    on: Duration,
    records: usize,
    /// Stages the recorded flight log reported (load + the two stages).
    stages: usize,
}

impl RecorderLane {
    /// Recorder-on time over recorder-off time (1.0 = free).
    fn overhead(&self) -> f64 {
        self.on.as_secs_f64() / self.off.as_secs_f64().max(1e-9)
    }
}

/// Times the chain with the recorder off and on (best-of-3 each — the
/// overhead budget is single-digit percent, far below single-shot
/// scheduler noise), asserting the outputs bit-identical: telemetry must
/// observe the run, never steer it.
fn run_recorder_lane(trace: &Trace) -> RecorderLane {
    const RUNS: usize = 3;

    let mut off = Duration::MAX;
    let mut off_out = None;
    for _ in 0..RUNS {
        let t = Instant::now();
        let mut d1 = presets::intel_750_array();
        let mut d2 = presets::intel_750_array();
        let out = Pipeline::from_trace_ref(trace)
            .reconstruct(&mut d1, TraceTracker::new())
            .replay(&mut d2, StreamReplay::ClosedLoop)
            .collect()
            .expect("in-memory chain cannot fail");
        off = off.min(t.elapsed());
        off_out = Some(out);
    }
    let off_out = off_out.expect("RUNS > 0");

    let recorder = Arc::new(tracetracker::FlightRecorder::new());
    let mut on = Duration::MAX;
    let mut on_out = None;
    for _ in 0..RUNS {
        let t = Instant::now();
        let mut d1 = presets::intel_750_array();
        let mut d2 = presets::intel_750_array();
        let out = Pipeline::from_trace_ref(trace)
            .flight_recorder(&recorder)
            .reconstruct(&mut d1, TraceTracker::new())
            .replay(&mut d2, StreamReplay::ClosedLoop)
            .collect()
            .expect("in-memory chain cannot fail");
        on = on.min(t.elapsed());
        on_out = Some(out);
    }
    let on_out = on_out.expect("RUNS > 0");

    assert_eq!(
        on_out, off_out,
        "flight recorder changed the chain's output"
    );
    let log = recorder.flight_log();
    assert_eq!(
        log.stages.len(),
        3,
        "flight log must report load + reconstruct + replay"
    );
    RecorderLane {
        off,
        on,
        records: trace.len(),
        stages: log.stages.len(),
    }
}

/// The fault layer's cost when it does nothing: replaying the same
/// closed-loop schedule on a bare device vs the same device wrapped in a
/// [`FaultyDevice`] with an **empty** plan.
struct FaultLane {
    bare: Duration,
    wrapped: Duration,
    records: usize,
}

impl FaultLane {
    /// Wrapped time over bare time (1.0 = free).
    fn overhead(&self) -> f64 {
        self.wrapped.as_secs_f64() / self.bare.as_secs_f64().max(1e-9)
    }
}

/// Times the replay both ways (best-of-3 — the budget is single-digit
/// percent), asserting the outputs bit-identical: an empty plan must be a
/// true no-op, not a cheap approximation.
fn run_fault_lane(trace: &Trace) -> FaultLane {
    const RUNS: usize = 3;
    let schedule = Schedule::closed_loop(trace);

    let mut bare = Duration::MAX;
    let mut bare_out = None;
    for _ in 0..RUNS {
        let t = Instant::now();
        let mut dev = presets::intel_750_array();
        let out = replay(&mut dev, &schedule, "fault", ReplayConfig::default());
        bare = bare.min(t.elapsed());
        bare_out = Some(out);
    }
    let bare_out = bare_out.expect("RUNS > 0");

    let mut wrapped = Duration::MAX;
    let mut wrapped_out = None;
    for _ in 0..RUNS {
        let t = Instant::now();
        let mut dev = FaultyDevice::new(presets::intel_750_array(), FaultPlan::new(0));
        let out = replay(&mut dev, &schedule, "fault", ReplayConfig::default());
        wrapped = wrapped.min(t.elapsed());
        wrapped_out = Some(out);
    }
    let wrapped_out = wrapped_out.expect("RUNS > 0");

    assert_eq!(
        wrapped_out.trace.columns(),
        bare_out.trace.columns(),
        "empty-plan FaultyDevice changed the replayed records"
    );
    assert_eq!(
        wrapped_out.outcomes, bare_out.outcomes,
        "empty-plan FaultyDevice changed the service outcomes"
    );
    assert_eq!(
        wrapped_out.makespan, bare_out.makespan,
        "empty-plan FaultyDevice changed the makespan"
    );
    assert!(
        wrapped_out.faults.is_empty(),
        "an empty plan must record no fault events"
    );
    FaultLane {
        bare,
        wrapped,
        records: trace.len(),
    }
}

/// One reported metric: a "bigger is better" rate or ratio. Only `gated`
/// metrics feed the regression gate — `ttb_speedup_x` is informational,
/// because a pure CSV-parser *improvement* would shrink the ratio while
/// every absolute rate got better.
struct Metric {
    name: &'static str,
    value: f64,
    gated: bool,
}

/// The metrics the JSON report carries and the regression gate compares.
/// Ratio metrics (`*_speedup_x`) stay ungated by policy: an improvement
/// to the slower side of the ratio must never fail CI.
fn metrics(
    seq: &RunReport,
    par: &RunReport,
    lane: &FormatLane,
    mlane: &MmapLane,
    rlane: &RecorderLane,
    falane: &FaultLane,
) -> Vec<Metric> {
    let rate =
        |r: &RunReport| r.records as f64 / (r.load + r.group_infer + r.reconstruct).as_secs_f64();
    let m = |name, value, gated| Metric { name, value, gated };
    vec![
        m("seq_rec_s", rate(seq), true),
        m("par_rec_s", rate(par), true),
        m(
            "csv_load_rec_s",
            lane.records as f64 / lane.csv_load.as_secs_f64(),
            true,
        ),
        m(
            "ttb_load_rec_s",
            lane.records as f64 / lane.ttb_load.as_secs_f64(),
            true,
        ),
        m("ttb_speedup_x", lane.speedup(), false),
        m(
            "ttb_mmap_open_rec_s",
            mlane.records as f64 / mlane.mmap_open.as_secs_f64().max(1e-9),
            true,
        ),
        m(
            // Open-to-first-group latency as a rate: open *plus* the
            // first grouping pass, not the grouping pass alone.
            "ttb_mmap_open_to_group_rec_s",
            mlane.records as f64 / mlane.mmap_total().as_secs_f64().max(1e-9),
            true,
        ),
        m("ttb_mmap_speedup_x", mlane.open_speedup(), false),
        m(
            "recorder_on_rec_s",
            rlane.records as f64 / rlane.on.as_secs_f64().max(1e-9),
            true,
        ),
        // A ratio near 1.0, and "smaller is better" besides — never gated.
        m("recorder_overhead_x", rlane.overhead(), false),
        m(
            "faulty_replay_rec_s",
            falane.records as f64 / falane.wrapped.as_secs_f64().max(1e-9),
            true,
        ),
        // A ratio near 1.0, "smaller is better" — never gated.
        m("faulty_overhead_x", falane.overhead(), false),
    ]
}

/// Renders the results as the machine-readable JSON document the CI gate
/// and its artifact use.
fn results_json(n: usize, cores: usize, metrics: &[Metric]) -> String {
    let metric_fields = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Value::F64((m.value * 100.0).round() / 100.0),
            )
        })
        .collect();
    Value::Object(vec![
        ("schema".to_string(), Value::U64(1)),
        ("requests".to_string(), Value::U64(n as u64)),
        ("cores".to_string(), Value::U64(cores as u64)),
        ("metrics".to_string(), Value::Object(metric_fields)),
    ])
    .render_pretty()
}

/// Compares current metrics against a baseline JSON document; returns the
/// regressions as `(name, current, floor)` triples.
fn regressions(baseline: &Value, metrics: &[Metric], tolerance: f64) -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();
    for m in metrics.iter().filter(|m| m.gated) {
        // Metrics absent from the baseline are new — nothing to gate yet.
        let Some(base) = baseline
            .get_field("metrics")
            .get(m.name)
            .and_then(Value::as_f64)
        else {
            continue;
        };
        let floor = base * (1.0 - tolerance);
        if m.value < floor {
            out.push((m.name.to_string(), m.value, floor));
        }
    }
    out
}

/// Applies the `TT_BENCH_JSON` / `TT_BENCH_BASELINE` environment contract;
/// returns `false` when the regression gate failed.
fn report_and_gate(n: usize, cores: usize, metrics: &[Metric]) -> bool {
    let json = results_json(n, cores, metrics);
    if let Ok(path) = std::env::var("TT_BENCH_JSON") {
        std::fs::write(&path, format!("{json}\n")).expect("write TT_BENCH_JSON");
        println!("results written to {path}");
    }

    let Ok(baseline_path) = std::env::var("TT_BENCH_BASELINE") else {
        return true;
    };
    // `cargo bench` runs from the package directory; a relative baseline
    // path means the workspace root, where the committed baseline lives.
    let baseline_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(baseline_path)
        .display()
        .to_string();
    let text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("reading TT_BENCH_BASELINE {baseline_path}: {e}"));
    let baseline = serde::json::parse(&text)
        .unwrap_or_else(|e| panic!("parsing TT_BENCH_BASELINE {baseline_path}: {e}"));
    let tolerance = std::env::var("TT_BENCH_TOLERANCE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.30);

    // rec/s at 50k and at 1M are not comparable — refuse to gate across
    // scales rather than produce a nonsense verdict.
    if let Some(base_n) = baseline.get("requests").and_then(Value::as_u64) {
        if base_n != n as u64 {
            eprintln!(
                "regression gate: baseline {baseline_path} was measured at {base_n} requests, \
                 this run used {n} — skipping the gate (set TT_THROUGHPUT_REQUESTS={base_n} \
                 to compare)"
            );
            return true;
        }
    }

    let failures = regressions(&baseline, metrics, tolerance);
    if failures.is_empty() {
        println!(
            "regression gate: all {} gated metrics within {:.0}% of {baseline_path}",
            metrics.iter().filter(|m| m.gated).count(),
            tolerance * 100.0
        );
        return true;
    }
    for (name, current, floor) in &failures {
        eprintln!(
            "regression gate: {name} = {current:.0} fell below the allowed floor {floor:.0} \
             (baseline {baseline_path}, tolerance {:.0}%)",
            tolerance * 100.0
        );
    }
    if std::env::var("TT_BENCH_SKIP_GATE").is_ok_and(|v| v == "1") {
        eprintln!("regression gate: TT_BENCH_SKIP_GATE=1 set — reporting only, not failing");
        return true;
    }
    eprintln!(
        "regression gate: intentional? refresh the baseline by committing the new \
         TT_BENCH_JSON output, or re-run with TT_BENCH_SKIP_GATE=1"
    );
    false
}

fn main() {
    let n = requests();
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!("pipeline throughput bench: {n} requests, {cores} cores");

    println!("generating input session...");
    let input = build_input(n);
    println!(
        "input: {:.1} MiB of CSV",
        input.len() as f64 / (1024.0 * 1024.0)
    );

    let seq = run(&input, 1);
    report("sequential", &seq);
    let par = run(&input, 0);
    report("parallel", &par);

    assert_eq!(
        seq.fingerprint, par.fingerprint,
        "parallel output diverged from sequential"
    );
    println!("outputs bit-identical: yes");

    let speedup = seq.group_infer.as_secs_f64() / par.group_infer.as_secs_f64().max(1e-9);
    println!(
        "group+infer speedup: {speedup:.2}x on {cores} cores \
         (expect >=2x on >=4 cores)"
    );

    let (lane, cache) = run_format_lane(&input);
    println!(
        "format load : csv {:>8.3}s ({:.1} MiB) | ttb {:>8.3}s ({:.1} MiB) | \
         ttb {:.1}x faster",
        lane.csv_load.as_secs_f64(),
        lane.csv_bytes as f64 / (1024.0 * 1024.0),
        lane.ttb_load.as_secs_f64(),
        lane.ttb_bytes as f64 / (1024.0 * 1024.0),
        lane.speedup(),
    );

    let mlane = run_mmap_lane(&cache);
    drop(cache);
    println!(
        "ttb open    : bulk {:>8.3}s | mmap {:>8.3}s | mmap {:.1}x faster",
        mlane.bulk_open.as_secs_f64(),
        mlane.mmap_open.as_secs_f64(),
        mlane.open_speedup(),
    );
    println!(
        "open->group : bulk {:>8.3}s | mmap {:>8.3}s ({}, outputs identical)",
        mlane.bulk_total().as_secs_f64(),
        mlane.mmap_total().as_secs_f64(),
        if mlane.zero_copy {
            "zero-copy"
        } else {
            "multi-block cache: copying fallback"
        },
    );

    // The recorder lane runs the co-evaluation chain on the parsed input
    // trace.
    let trace = collect_source(
        &mut CsvSource::new(input.as_slice()),
        TraceMeta::named("throughput").with_source("csv"),
        tt_trace::source::DEFAULT_CHUNK,
    )
    .expect("parse input");
    let rlane = run_recorder_lane(&trace);
    println!(
        "recorder    : off {:>8.3}s | on {:>8.3}s | {:.3}x overhead \
         ({} stages logged, outputs identical)",
        rlane.off.as_secs_f64(),
        rlane.on.as_secs_f64(),
        rlane.overhead(),
        rlane.stages,
    );

    let falane = run_fault_lane(&trace);
    drop(trace);
    println!(
        "fault layer : bare {:>8.3}s | empty-plan wrapped {:>8.3}s | {:.3}x overhead \
         (outputs bit-identical)",
        falane.bare.as_secs_f64(),
        falane.wrapped.as_secs_f64(),
        falane.overhead(),
    );

    let metrics = metrics(&seq, &par, &lane, &mlane, &rlane, &falane);
    if !report_and_gate(n, cores, &metrics) {
        std::process::exit(1);
    }
}
