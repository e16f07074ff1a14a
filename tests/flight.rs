//! The flight-recorder contract: telemetry **observes** a pipeline run,
//! it never steers it. A chain with a recorder attached is bit-identical
//! to the same chain without one — collected trace and streamed sink
//! bytes — across chunk sizes and worker counts, and so is a
//! multi-stream concurrent replay or merge. The recorded
//! [`FlightLog`] itself obeys its invariants: each stage is busy for its
//! whole wall clock, the channel columns read zero, record counts match
//! the data that actually flowed, and the JSON rendering parses back to
//! the same numbers.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use tracetracker::prelude::*;
use tracetracker::trace::format::csv::CsvSink;

/// One decade-old workload trace, built once and shared by every case.
fn old_trace() -> &'static Trace {
    static TRACE: OnceLock<Trace> = OnceLock::new();
    TRACE.get_or_init(|| {
        let entry = catalog::find("MSNFS").expect("workload in catalog");
        let session = generate_session("MSNFS", &entry.profile, 500, 0xF11E);
        let mut node = presets::enterprise_hdd_2007();
        session.materialize(&mut node, false).trace
    })
}

/// The canonical co-evaluation chain with the given knobs.
fn chain<'env>(
    old: &'env Trace,
    d1: &'env mut dyn BlockDevice,
    d2: &'env mut dyn BlockDevice,
    chunk: usize,
    workers: usize,
) -> Pipeline<'env> {
    Pipeline::from_trace_ref(old)
        .chunk_size(chunk)
        .parallel(workers)
        .reconstruct(d1, TraceTracker::new())
        .replay(d2, StreamReplay::ClosedLoop)
}

/// Stages run one after another, so each is busy for its whole wall
/// clock and no channel column has anything to count; record counts must
/// match the run.
fn check_invariants(log: &FlightLog, records: usize) {
    assert!(!log.stages.is_empty(), "flight log recorded no stages");
    assert_eq!(log.channel_capacity, 0);
    for s in &log.stages {
        assert_eq!(s.busy, s.wall, "stage {:?}: busy must equal wall", s.stage);
        assert_eq!(
            (s.send_wait, s.recv_wait, s.chunks, s.queue_high_water),
            (std::time::Duration::ZERO, std::time::Duration::ZERO, 0, 0),
            "stage {:?}: channel columns must read zero",
            s.stage
        );
    }
    // Both chain stages are 1:1 record transforms, and the load stage
    // reports the input — every stage saw the full record count.
    for s in &log.stages {
        assert_eq!(
            s.records, records,
            "stage {:?}: records must match the run",
            s.stage
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance property: attaching a recorder changes nothing —
    /// collected trace and streamed CSV bytes — at any chunk size and
    /// worker count. And the log the run leaves behind satisfies the
    /// telemetry invariants.
    #[test]
    fn recorder_on_equals_recorder_off(
        chunk in 1usize..200,
        workers in 0usize..3,
    ) {
        let old = old_trace();

        let mut d1 = presets::intel_750_array();
        let mut d2 = presets::intel_750_array();
        let plain = chain(old, &mut d1, &mut d2, chunk, workers)
            .collect()
            .expect("in-memory chain cannot fail");

        let recorder = Arc::new(FlightRecorder::new());
        let mut d3 = presets::intel_750_array();
        let mut d4 = presets::intel_750_array();
        let recorded = chain(old, &mut d3, &mut d4, chunk, workers)
            .flight_recorder(&recorder)
            .collect()
            .expect("in-memory chain cannot fail");
        tt_par::set_threads(0);

        prop_assert_eq!(&plain, &recorded);

        let log = recorder.flight_log();
        prop_assert_eq!(log.chunk_size, chunk);
        prop_assert_eq!(log.stages.len(), 3, "load + reconstruct + replay");
        check_invariants(&log, old.len());
    }

    /// Streamed terminals too: the recorder leaves the sink bytes
    /// untouched.
    #[test]
    fn recorder_leaves_sink_bytes_identical(chunk in 1usize..200) {
        let old = old_trace();

        let mut plain_bytes = Vec::new();
        let mut d1 = presets::intel_750_array();
        let mut d2 = presets::intel_750_array();
        chain(old, &mut d1, &mut d2, chunk, 1)
            .write_to(&mut CsvSink::new(&mut plain_bytes, old.meta().name.clone()))
            .expect("in-memory chain cannot fail");

        let recorder = Arc::new(FlightRecorder::new());
        let mut recorded_bytes = Vec::new();
        let mut d3 = presets::intel_750_array();
        let mut d4 = presets::intel_750_array();
        chain(old, &mut d3, &mut d4, chunk, 1)
            .flight_recorder(&recorder)
            .write_to(&mut CsvSink::new(&mut recorded_bytes, old.meta().name.clone()))
            .expect("in-memory chain cannot fail");
        tt_par::set_threads(0);

        prop_assert_eq!(plain_bytes, recorded_bytes);
        prop_assert!(!recorder.is_empty(), "streamed run must leave a log");
    }
}

/// The machine-readable form round-trips: `to_json()` parses, and the
/// parsed document carries the same stages and counts the in-memory log
/// does.
#[test]
fn flight_log_json_parses_and_matches() {
    let old = old_trace();
    let recorder = Arc::new(FlightRecorder::new());
    let mut d1 = presets::intel_750_array();
    let mut d2 = presets::intel_750_array();
    Pipeline::from_trace_ref(old)
        .parallel(1)
        .reconstruct(&mut d1, TraceTracker::new())
        .replay(&mut d2, StreamReplay::ClosedLoop)
        .flight_recorder(&recorder)
        .collect()
        .expect("in-memory chain cannot fail");
    tt_par::set_threads(0);

    let log = recorder.flight_log();
    let json = log.to_json();
    assert!(
        !json.contains('\n'),
        "the JSON form is one line by contract"
    );

    let parsed: serde_json::Value = serde::json::parse(&json).expect("flight log JSON parses");
    for (i, report) in log.stages.iter().enumerate() {
        let value = parsed.get_field("stages").get_index(i);
        assert_eq!(
            value.get_field("stage").as_str(),
            Some(report.stage.as_str())
        );
        assert_eq!(
            value.get_field("records").as_u64(),
            Some(report.records as u64)
        );
        assert_eq!(
            value.get_field("wall_us").as_u64(),
            Some(u64::try_from(report.wall.as_micros()).expect("fits")),
        );
    }
    assert_eq!(
        parsed.get_field("chunk_size").as_u64(),
        Some(log.chunk_size as u64)
    );

    // The human rendering names every stage the JSON does.
    let render = log.render();
    for report in &log.stages {
        assert!(
            render.contains(report.stage.as_str()),
            "render missing stage {:?}:\n{render}",
            report.stage
        );
    }
}

/// The analysis terminals log one "load" stage for a path input — a
/// mapped `.ttb` and a decoded CSV alike — then their own stage; a
/// caller's mapping is read in place, so only the terminal stage shows.
/// A staged run over a caller's mapping reads it in place too, yet logs a
/// "load" stage holding the input's record count before its transform
/// stages, as every other input does, so readers of the log (`--timings`,
/// `?timings=1`, the benchmark's per-layer split) see the same stages.
#[test]
fn analysis_terminals_log_the_load_and_their_own_stage() {
    let old = old_trace();
    let dir = std::env::temp_dir();
    let ttb = dir.join(format!("tt_flight_{}.ttb", std::process::id()));
    let csv = dir.join(format!("tt_flight_{}.csv", std::process::id()));
    Pipeline::from_trace_ref(old).write_path(&ttb).unwrap();
    Pipeline::from_trace_ref(old).write_path(&csv).unwrap();
    let mapped = MmapTrace::open(&ttb).unwrap();

    let stages = |pipeline: Pipeline<'_>| {
        let recorder = Arc::new(FlightRecorder::new());
        pipeline.flight_recorder(&recorder).stats().unwrap();
        let log = recorder.flight_log();
        check_invariants(&log, old.len());
        log.stages
            .iter()
            .map(|s| s.stage.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(stages(Pipeline::from_path(&ttb)), ["load", "stats"]);
    assert_eq!(stages(Pipeline::from_path(&csv)), ["load", "stats"]);
    assert_eq!(stages(Pipeline::from_mapped(&mapped)), ["stats"]);
    let mut device = presets::intel_750_array();
    let replayed = Pipeline::from_mapped(&mapped)
        .replay(&mut device, StreamReplay::OpenLoop { time_scale: 1.0 });
    assert_eq!(stages(replayed), ["load", "replay", "stats"]);
    std::fs::remove_file(&ttb).ok();
    std::fs::remove_file(&csv).ok();
}

/// The multi-stream terminals log one stage each — `replay-concurrent`
/// and `merge` — holding the merged record count, and a recorded run's
/// output equals the recorder-off run's.
#[test]
fn multi_stream_terminals_log_one_stage() {
    let tenant = {
        let entry = catalog::find("webusers").expect("workload in catalog");
        let session = generate_session("webusers", &entry.profile, 300, 0xF11F);
        let mut node = presets::enterprise_hdd_2007();
        session.materialize(&mut node, false).trace
    };
    let traces = [old_trace().clone(), tenant];
    let merged_len: usize = traces.iter().map(Trace::len).sum();
    let stages = |recorder: &FlightRecorder| {
        let log = recorder.flight_log();
        check_invariants(&log, merged_len);
        log.stages
            .iter()
            .map(|s| s.stage.clone())
            .collect::<Vec<_>>()
    };
    let mode = StreamReplay::OpenLoop { time_scale: 1.0 };

    let plain = Pipeline::from_trace_refs(&traces)
        .replay_concurrent(&mut presets::intel_750_array(), mode)
        .unwrap();
    let recorder = Arc::new(FlightRecorder::new());
    let recorded = Pipeline::from_trace_refs(&traces)
        .flight_recorder(&recorder)
        .replay_concurrent(&mut presets::intel_750_array(), mode)
        .unwrap();
    assert_eq!(recorded.outcome.trace, plain.outcome.trace);
    assert_eq!(recorded.outcome.outcomes, plain.outcome.outcomes);
    assert_eq!(recorded.outcome.makespan, plain.outcome.makespan);
    assert_eq!(recorded.stream_of, plain.stream_of);
    assert_eq!(stages(&recorder), ["replay-concurrent"]);

    let plain = Pipeline::from_trace_refs(&traces).collect_merged().unwrap();
    let recorder = Arc::new(FlightRecorder::new());
    let recorded = Pipeline::from_trace_refs(&traces)
        .flight_recorder(&recorder)
        .collect_merged()
        .unwrap();
    assert_eq!(recorded, plain);
    assert_eq!(stages(&recorder), ["merge"]);
}
