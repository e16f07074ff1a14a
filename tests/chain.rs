//! `Pipeline` chains against the stages called by hand: a chain run
//! through the builder equals `TraceTracker::reconstruct` followed by
//! `tt_sim::replay` on the open- or closed-loop schedule of the
//! intermediate trace — collected trace, metadata, and CSV sink bytes —
//! at any chunk size, on a clean or faulty replay device. Plus the multi-stream terminals: merge determinism under
//! duplicate arrivals, and pipeline concurrent replay matching the direct
//! `tt_sim` reference.

use std::sync::OnceLock;

use proptest::prelude::*;

use tracetracker::prelude::*;
use tracetracker::trace::format::csv::{write_csv, CsvSink};
use tracetracker::workloads::faults;

/// One decade-old workload trace, built once and shared by every case.
fn old_trace() -> &'static Trace {
    static TRACE: OnceLock<Trace> = OnceLock::new();
    TRACE.get_or_init(|| {
        let entry = catalog::find("MSNFS").expect("workload in catalog");
        let session = generate_session("MSNFS", &entry.profile, 600, 0xF5ED);
        let mut node = presets::enterprise_hdd_2007();
        session.materialize(&mut node, false).trace
    })
}

/// The schedule a replay stage in `mode` issues for `trace`.
fn schedule(trace: &Trace, mode: StreamReplay) -> Schedule {
    match mode {
        StreamReplay::OpenLoop { time_scale } => Schedule::open_loop(trace, time_scale),
        StreamReplay::ClosedLoop => Schedule::closed_loop(trace),
    }
}

/// A fresh flash array, behind the named fault scenario when one is given.
fn replay_device(plan: Option<&str>, seed: u64) -> Box<dyn BlockDevice> {
    let array = presets::intel_750_array();
    match plan {
        None => Box::new(array),
        Some(name) => Box::new(FaultyDevice::new(
            array,
            faults::scenario(name, seed).expect("a named scenario"),
        )),
    }
}

/// Replays `trace` in `mode` on `device` through the free function.
fn replay_by_hand(device: &mut dyn BlockDevice, trace: &Trace, mode: StreamReplay) -> Trace {
    let ops = schedule(trace, mode);
    replay(device, &ops, &trace.meta().name, ReplayConfig::default()).trace
}

/// `Revision` onto `d1`, then a closed-loop replay on `d2`: the chain the
/// analysis-terminal cases end.
fn revision_chain<'env>(
    old: &'env Trace,
    d1: &'env mut dyn BlockDevice,
    d2: &'env mut dyn BlockDevice,
    chunk: usize,
) -> Pipeline<'env> {
    Pipeline::from_trace_ref(old)
        .chunk_size(chunk)
        .reconstruct(d1, Revision::new())
        .replay(d2, StreamReplay::ClosedLoop)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance property: a `reconstruct → replay` chain equals
    /// `TraceTracker::reconstruct` then `tt_sim::replay` called by hand —
    /// collected trace (records *and* metadata) and streamed sink bytes —
    /// at any chunk size, in both replay modes, with the replay device
    /// clean or behind every fault scenario.
    #[test]
    fn chain_equals_stages_called_by_hand(
        chunk in 1usize..200,
        seed in 0u64..1000,
    ) {
        let old = old_trace();
        let modes = [StreamReplay::OpenLoop { time_scale: 1.0 }, StreamReplay::ClosedLoop];
        let plans = std::iter::once(None).chain(faults::SCENARIO_NAMES.map(Some));
        for plan in plans {
            for mode in modes {
                let mut target = presets::intel_750_array();
                let mid = TraceTracker::new().reconstruct(old, &mut target);
                let expect = replay_by_hand(&mut *replay_device(plan, seed), &mid, mode);
                let mut expect_bytes = Vec::new();
                write_csv(&expect, &mut expect_bytes).unwrap();

                let mut target = presets::intel_750_array();
                let mut replayer = replay_device(plan, seed);
                let collected = Pipeline::from_trace_ref(old)
                    .chunk_size(chunk)
                    .reconstruct(&mut target, TraceTracker::new())
                    .replay(&mut *replayer, mode)
                    .collect()
                    .unwrap();
                prop_assert_eq!(&collected, &expect, "{:?} {:?}", mode, plan);
                prop_assert_eq!(collected.meta(), expect.meta());

                let mut bytes = Vec::new();
                let mut target = presets::intel_750_array();
                let mut replayer = replay_device(plan, seed);
                Pipeline::from_trace_ref(old)
                    .chunk_size(chunk)
                    .reconstruct(&mut target, TraceTracker::new())
                    .replay(&mut *replayer, mode)
                    .write_to(&mut CsvSink::new(&mut bytes, old.meta().name.clone()))
                    .unwrap();
                prop_assert_eq!(bytes, expect_bytes, "{:?} {:?}", mode, plan);
            }
        }
    }

    /// Three stages: each replay consumes the previous stage's output, so
    /// a replay in the middle of a chain re-issues exactly the trace the
    /// stage before it produced by hand.
    #[test]
    fn three_stage_chain_equals_stages_called_by_hand(chunk in 1usize..200) {
        let old = old_trace();
        let open = StreamReplay::OpenLoop { time_scale: 1.0 };
        let closed = StreamReplay::ClosedLoop;
        let mut d1 = presets::intel_750_array();
        let mut d2 = presets::intel_750_array();
        let mut d3 = presets::intel_750_array();
        let mid = TraceTracker::new().reconstruct(old, &mut d1);
        let expect = replay_by_hand(&mut d3, &replay_by_hand(&mut d2, &mid, open), closed);
        let mut d1 = presets::intel_750_array();
        let mut d2 = presets::intel_750_array();
        let mut d3 = presets::intel_750_array();
        let three = Pipeline::from_trace_ref(old)
            .chunk_size(chunk)
            .reconstruct(&mut d1, TraceTracker::new())
            .replay(&mut d2, open)
            .replay(&mut d3, closed)
            .collect()
            .unwrap();
        prop_assert_eq!(three, expect);
    }

    /// A chain ending in an analysis terminal — `stats()`, `group()` or
    /// `infer()` — analyses exactly the trace the stages produce by hand.
    #[test]
    fn chain_analysis_terminals_equal_stages_called_by_hand(chunk in 1usize..200) {
        let old = old_trace();
        let mut d1 = presets::intel_750_array();
        let mut d2 = presets::intel_750_array();
        let mid = Revision::new().reconstruct(old, &mut d1);
        let replayed = replay_by_hand(&mut d2, &mid, StreamReplay::ClosedLoop);

        let (mut d1, mut d2) = (presets::intel_750_array(), presets::intel_750_array());
        let stats = revision_chain(old, &mut d1, &mut d2, chunk).stats().unwrap();
        prop_assert_eq!(stats, TraceStats::compute(&replayed));

        let (mut d1, mut d2) = (presets::intel_750_array(), presets::intel_750_array());
        let grouped = revision_chain(old, &mut d1, &mut d2, chunk).group().unwrap();
        prop_assert_eq!(grouped, GroupedTrace::build(&replayed));

        let cfg = InferenceConfig::default();
        let (mut d1, mut d2) = (presets::intel_750_array(), presets::intel_750_array());
        let inferred = revision_chain(old, &mut d1, &mut d2, chunk).infer(&cfg).unwrap();
        prop_assert_eq!(inferred, infer(&replayed, &cfg));
    }

    /// Merging streams with heavy arrival-timestamp collisions is
    /// deterministic: equal to a stable sort of the concatenated records
    /// by (arrival, stream index), at any chunk size.
    #[test]
    fn multi_source_merge_with_duplicate_arrivals(
        streams in prop::collection::vec(
            prop::collection::vec((0u64..40, 0u64..1_000_000), 0..60),
            1..5,
        ),
        chunk in 1usize..64,
    ) {
        // Coarse arrival grid (0..40us) over up to 60 records per stream:
        // ties within and across streams are the norm, not the exception.
        let streams: Vec<Vec<BlockRecord>> = streams
            .into_iter()
            .map(|recs| {
                let mut recs: Vec<BlockRecord> = recs
                    .into_iter()
                    .map(|(us, lba)| {
                        BlockRecord::new(SimInstant::from_usecs(us), lba, 8, OpType::Read)
                    })
                    .collect();
                recs.sort_by_key(|r| r.arrival); // per-stream order contract
                recs
            })
            .collect();

        let mut reference: Vec<(usize, BlockRecord)> = streams
            .iter()
            .enumerate()
            .flat_map(|(i, recs)| recs.iter().map(move |&r| (i, r)))
            .collect();
        reference.sort_by_key(|(stream, rec)| (rec.arrival, *stream));
        let reference: Vec<BlockRecord> = reference.into_iter().map(|(_, rec)| rec).collect();

        let mut multi = MultiSource::new(
            streams
                .iter()
                .enumerate()
                .map(|(i, recs)| {
                    (
                        format!("s{i}"),
                        Box::new(tracetracker::trace::source::VecSource::new(recs.clone()))
                            as Box<dyn RecordSource>,
                    )
                })
                .collect(),
        )
        .with_chunk(chunk);
        let mut merged = Vec::new();
        while multi.next_chunk(&mut merged, chunk).unwrap() > 0 {}

        prop_assert_eq!(merged, reference);
    }
}

/// The case the removed fused executor got wrong: an open-loop replay
/// stage on a device that fails requests transiently. Each retry backoff
/// must delay every later request, as `tt_sim::replay` does. At plan seeds
/// 1–3 the `errors` scenario makes requests back off and then succeed.
#[test]
fn open_loop_chain_on_a_failing_device_backs_off_like_replay() {
    let old = old_trace();
    let mode = StreamReplay::OpenLoop { time_scale: 1.0 };
    for seed in 1..=3 {
        let mut target = presets::intel_750_array();
        let mid = TraceTracker::new().reconstruct(old, &mut target);
        let by_hand = replay(
            &mut *replay_device(Some("errors"), seed),
            &schedule(&mid, mode),
            &mid.meta().name,
            ReplayConfig::default(),
        );
        assert!(
            by_hand.faults.iter().any(|f| !f.gave_up),
            "seed {seed}: no request backed off and then succeeded"
        );

        let mut target = presets::intel_750_array();
        let mut replayer = replay_device(Some("errors"), seed);
        let chained = Pipeline::from_trace_ref(old)
            .reconstruct(&mut target, TraceTracker::new())
            .replay(&mut *replayer, mode)
            .collect()
            .unwrap();
        assert_eq!(chained, by_hand.trace, "seed {seed}");
    }
}

/// `materialize()` is kept as a no-op for existing callers: a chain runs
/// the same with or without it.
#[test]
fn materialize_leaves_a_chain_unchanged() {
    let old = old_trace();
    let run = |materialise: bool| {
        let mut d1 = presets::intel_750_array();
        let mut d2 = presets::intel_750_array();
        let chain = Pipeline::from_trace_ref(old)
            .chunk_size(37)
            .reconstruct(&mut d1, TraceTracker::new())
            .replay(&mut d2, StreamReplay::OpenLoop { time_scale: 1.0 });
        let chain = if materialise {
            chain.materialize()
        } else {
            chain
        };
        chain.collect().unwrap()
    };
    assert_eq!(run(true), run(false));
}

/// Errors cross stage boundaries: a failing terminal sink surfaces its
/// own error from a chain instead of being masked.
#[test]
fn chain_propagates_sink_errors() {
    struct FailingSink;
    impl RecordSink for FailingSink {
        fn push_chunk(&mut self, _: &[BlockRecord]) -> Result<(), TraceError> {
            Err(TraceError::Io("disk full (test)".to_string()))
        }
        fn finish(&mut self) -> Result<(), TraceError> {
            Ok(())
        }
        fn sink_name(&self) -> &str {
            "failing"
        }
    }

    let old = old_trace();
    let mut d1 = presets::intel_750_array();
    let mut d2 = presets::intel_750_array();
    let err = Pipeline::from_trace_ref(old)
        .chunk_size(32)
        .reconstruct(&mut d1, TraceTracker::new())
        .replay(&mut d2, StreamReplay::ClosedLoop)
        .write_to(&mut FailingSink)
        .unwrap_err();
    assert!(err.to_string().contains("disk full"), "{err}");
}

/// Multi-stream concurrent replay through the Pipeline API equals the
/// sequential per-trace reference: schedules built per input trace, fed
/// to the tagged concurrent core directly — on a clean shared device and
/// behind every fault scenario, where requests retry or are given up.
#[test]
fn pipeline_replay_concurrent_matches_direct_reference() {
    let tenant = |name: &str, n: usize, seed: u64| {
        let entry = catalog::find(name).expect("workload in catalog");
        let session = generate_session(name, &entry.profile, n, seed);
        let mut node = presets::enterprise_hdd_2007();
        session.materialize(&mut node, false).trace
    };
    let traces = vec![
        tenant("MSNFS", 300, 1),
        tenant("webusers", 220, 2),
        tenant("homes", 180, 3),
    ];

    let plans = std::iter::once(None).chain(faults::SCENARIO_NAMES.map(Some));
    for plan in plans {
        for mode in [
            StreamReplay::OpenLoop { time_scale: 1.0 },
            StreamReplay::ClosedLoop,
        ] {
            // Reference: per-trace schedules through the tt_sim core.
            let schedules: Vec<Schedule> = traces.iter().map(|t| schedule(t, mode)).collect();
            let reference = replay_concurrent_tagged(
                &mut *replay_device(plan, 1),
                &schedules,
                "concurrent",
                ReplayConfig::default(),
            );

            // Pipeline, at several chunk sizes.
            for chunk in [1usize, 19, 100_000] {
                let out = Pipeline::from_trace_refs(&traces)
                    .chunk_size(chunk)
                    .replay_concurrent(&mut *replay_device(plan, 1), mode)
                    .unwrap();
                let case = format!("{plan:?} {mode:?} chunk {chunk}");
                assert_eq!(out.outcome.trace, reference.outcome.trace, "{case}");
                assert_eq!(out.outcome.faults, reference.outcome.faults, "{case}");
                assert_eq!(out.stream_of, reference.stream_of, "{case}");
                assert_eq!(out.outcome.makespan, reference.outcome.makespan, "{case}");

                // On a clean device the stream tags partition the merged
                // trace exactly, one request per input record.
                if plan.is_none() {
                    let names: Vec<String> = traces.iter().map(|t| t.meta().name.clone()).collect();
                    for (tenant_out, tenant_in) in out.split_traces(&names).iter().zip(&traces) {
                        assert_eq!(tenant_out.len(), tenant_in.len());
                    }
                }
            }
        }
    }
}

/// Path inputs — what the CLI opens — stream into both terminals exactly
/// as the traces they hold do from memory, from CSV and TTB files, one
/// record per chunk or the default.
#[test]
fn path_streams_equal_trace_streams() {
    let entry = catalog::find("webusers").expect("workload in catalog");
    let session = generate_session("webusers", &entry.profile, 250, 4);
    let mut node = presets::enterprise_hdd_2007();
    let tenant = session.materialize(&mut node, false).trace;
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let paths = [
        dir.join(format!("tt_chain_paths_{pid}_a.csv")),
        dir.join(format!("tt_chain_paths_{pid}_b.ttb")),
    ];
    for (trace, path) in [old_trace(), &tenant].into_iter().zip(&paths) {
        Pipeline::from_trace_ref(trace).write_path(path).unwrap();
    }
    let loaded: Vec<Trace> = paths
        .iter()
        .map(|p| Pipeline::from_path(p).collect().unwrap())
        .collect();
    let records = |t: &Trace| t.iter_records().collect::<Vec<_>>();
    let merged = Pipeline::from_trace_refs(&loaded).collect_merged().unwrap();

    for mode in [
        StreamReplay::OpenLoop { time_scale: 1.0 },
        StreamReplay::ClosedLoop,
    ] {
        let mut dev = presets::intel_750_array();
        let reference = Pipeline::from_trace_refs(&loaded)
            .replay_concurrent(&mut dev, mode)
            .unwrap();
        for chunk in [1usize, 64, tracetracker::trace::source::DEFAULT_CHUNK] {
            let mut dev = presets::intel_750_array();
            let out = Pipeline::from_paths(&paths)
                .chunk_size(chunk)
                .replay_concurrent(&mut dev, mode)
                .unwrap();
            assert_eq!(
                out.outcome.trace, reference.outcome.trace,
                "{mode:?} {chunk}"
            );
            assert_eq!(out.stream_of, reference.stream_of, "{mode:?} {chunk}");

            let from_paths = Pipeline::from_paths(&paths)
                .chunk_size(chunk)
                .collect_merged()
                .unwrap();
            assert_eq!(records(&from_paths), records(&merged), "chunk {chunk}");
        }
    }
    for path in &paths {
        std::fs::remove_file(path).ok();
    }
}

/// The ordering contract holds in every multi-stream terminal: an
/// unordered input fails the merge and both replay modes, and the error
/// names the stream.
#[test]
fn unordered_path_streams_are_rejected_by_name() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let sorted = dir.join(format!("tt_chain_sorted_{pid}.csv"));
    let unsorted = dir.join(format!("tt_chain_unsorted_{pid}.csv"));
    Pipeline::from_trace_ref(old_trace())
        .write_path(&sorted)
        .unwrap();
    // The same records, newest first.
    let text = std::fs::read_to_string(&sorted).unwrap();
    let (header, data): (Vec<&str>, Vec<&str>) = text.lines().partition(|l| l.starts_with('#'));
    let lines: Vec<&str> = header.into_iter().chain(data.into_iter().rev()).collect();
    std::fs::write(&unsorted, lines.join("\n") + "\n").unwrap();

    let paths = [&sorted, &unsorted];
    let errors = [
        Pipeline::from_paths(paths).collect_merged().unwrap_err(),
        Pipeline::from_paths(paths)
            .replay_concurrent(
                &mut presets::intel_750_array(),
                StreamReplay::OpenLoop { time_scale: 1.0 },
            )
            .unwrap_err(),
        Pipeline::from_paths(paths)
            .replay_concurrent(&mut presets::intel_750_array(), StreamReplay::ClosedLoop)
            .unwrap_err(),
    ];
    let name = format!("\"tt_chain_unsorted_{pid}\"");
    for err in errors {
        let msg = err.to_string();
        assert!(msg.contains(&name), "{msg}");
        assert!(msg.contains("arrival"), "{msg}");
    }
    std::fs::remove_file(&sorted).ok();
    std::fs::remove_file(&unsorted).ok();
}

/// `collect_merged` is the stable arrival merge of the inputs: the
/// concatenated records sorted by (arrival, stream index), named after
/// the streams.
#[test]
fn collect_merged_is_the_stable_arrival_merge() {
    let entry = catalog::find("MSNFS").unwrap();
    let make = |n: usize, seed: u64| {
        let session = generate_session("MSNFS", &entry.profile, n, seed);
        let mut node = presets::enterprise_hdd_2007();
        session.materialize(&mut node, false).trace
    };
    let traces = vec![make(120, 7), make(90, 8)];

    let mut reference: Vec<(usize, BlockRecord)> = traces
        .iter()
        .enumerate()
        .flat_map(|(i, t)| t.iter_records().map(move |r| (i, r)))
        .collect();
    reference.sort_by_key(|(stream, rec)| (rec.arrival, *stream));

    for chunk in [1usize, 64] {
        let merged = Pipeline::from_trace_refs(&traces)
            .chunk_size(chunk)
            .collect_merged()
            .unwrap();
        assert_eq!(merged.meta().name, "MSNFS+MSNFS");
        let got: Vec<BlockRecord> = merged.iter_records().collect();
        let want: Vec<BlockRecord> = reference.iter().map(|&(_, rec)| rec).collect();
        assert_eq!(got, want, "chunk {chunk}");
    }
}
