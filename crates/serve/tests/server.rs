//! End-to-end daemon tests: repository lifecycle over HTTP, and the
//! bit-identical guarantee — concurrent server responses equal the
//! facade/CLI results for the same `.ttb`.

mod common;

use common::{request, sample_csv, TestDaemon};
use tracetracker::sim::StreamReplay;
use tracetracker::Pipeline;
use tt_core::{infer, InferenceConfig};
use tt_serve::Limits;
use tt_trace::{MmapTrace, TraceStats};

/// The `.ttb` file the repository converted an ingested trace into.
fn repo_ttb(daemon: &TestDaemon, name: &str) -> std::path::PathBuf {
    daemon.root.join("traces").join(format!("{name}.ttb"))
}

#[test]
fn repository_lifecycle_over_http() {
    let daemon = TestDaemon::start("lifecycle", 2, Limits::default());
    let addr = daemon.addr;

    let (status, body) = request(addr, "GET", "/healthz", &[]);
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""), "{body}");

    // Empty repository.
    let (status, body) = request(addr, "GET", "/api/v1/traces", &[]);
    assert_eq!(status, 200);
    assert!(body.contains("\"count\": 0"), "{body}");

    // Ingest an uploaded CSV; it lands as traces/w1.ttb.
    let csv = sample_csv(300, 11);
    let (status, body) = request(addr, "PUT", "/api/v1/traces/w1?format=csv", &csv);
    assert_eq!(status, 201, "{body}");
    assert!(body.contains("\"records\": 300"), "{body}");
    assert!(repo_ttb(&daemon, "w1").is_file());

    // Register a server-local file under a second name.
    let staged = daemon.root.join("staged.csv");
    std::fs::write(&staged, sample_csv(120, 12)).unwrap();
    let reg = format!(
        "{{\"name\": \"w2\", \"path\": {:?}}}",
        staged.to_str().unwrap()
    );
    let (status, body) = request(addr, "POST", "/api/v1/traces", reg.as_bytes());
    assert_eq!(status, 201, "{body}");
    assert!(body.contains("\"records\": 120"), "{body}");

    let (status, body) = request(addr, "GET", "/api/v1/traces", &[]);
    assert_eq!(status, 200);
    assert!(body.contains("\"count\": 2"), "{body}");
    assert!(body.contains("\"w1\"") && body.contains("\"w2\""), "{body}");

    let (status, body) = request(addr, "GET", "/api/v1/traces/w2", &[]);
    assert_eq!(status, 200);
    assert!(body.contains("\"records\": 120"), "{body}");

    // Delete; a second delete and any query 404.
    let (status, _) = request(addr, "DELETE", "/api/v1/traces/w2", &[]);
    assert_eq!(status, 200);
    let (status, _) = request(addr, "DELETE", "/api/v1/traces/w2", &[]);
    assert_eq!(status, 404);
    let (status, body) = request(addr, "GET", "/api/v1/traces/w2/stats", &[]);
    assert_eq!(status, 404);
    assert!(body.contains("w2"), "{body}");

    daemon.finish();
}

#[test]
fn analysis_bodies_match_cli_json_byte_for_byte() {
    let daemon = TestDaemon::start("identical", 2, Limits::default());
    let addr = daemon.addr;
    let csv = sample_csv(400, 7);
    let (status, _) = request(addr, "PUT", "/api/v1/traces/t?format=csv", &csv);
    assert_eq!(status, 201);

    // What the CLI's `stats --json` / `infer --json` print for the same
    // `.ttb`: the facade mmap path plus serde_json pretty plus the
    // println! newline.
    let mapped = MmapTrace::open(repo_ttb(&daemon, "t")).unwrap();
    let expected_stats = format!(
        "{}\n",
        serde_json::to_string_pretty(&TraceStats::compute(mapped.columns())).unwrap()
    );
    let expected_infer = format!(
        "{}\n",
        serde_json::to_string_pretty(&infer(mapped.columns(), &InferenceConfig::default()))
            .unwrap()
    );

    let (status, stats_body) = request(addr, "GET", "/api/v1/traces/t/stats", &[]);
    assert_eq!(status, 200);
    assert_eq!(stats_body, expected_stats);

    let (status, infer_body) = request(addr, "GET", "/api/v1/traces/t/infer", &[]);
    assert_eq!(status, 200);
    assert_eq!(infer_body, expected_infer);

    // The verify endpoint matches the facade's verify terminal under the
    // same knobs.
    let expected_verify = format!(
        "{}\n",
        serde_json::to_string_pretty(
            &Pipeline::from_mapped(&mapped)
                .verify(
                    tt_trace::time::SimDuration::from_msecs(10),
                    &tt_core::VerifyConfig {
                        fraction: 0.2,
                        seed: 99,
                        ..tt_core::VerifyConfig::default()
                    },
                )
                .unwrap()
        )
        .unwrap()
    );
    let (status, verify_body) = request(
        addr,
        "GET",
        "/api/v1/traces/t/verify?period=10ms&fraction=0.2&seed=99",
        &[],
    );
    assert_eq!(status, 200);
    assert_eq!(verify_body, expected_verify);

    daemon.finish();
}

#[test]
fn concurrent_mixed_queries_are_bit_identical_to_sequential() {
    let daemon = TestDaemon::start("concurrent", 4, Limits::default());
    let addr = daemon.addr;
    let csv = sample_csv(500, 3);
    let (status, _) = request(addr, "PUT", "/api/v1/traces/c?format=csv", &csv);
    assert_eq!(status, 201);

    // Sequential baselines, one per endpoint.
    let targets = [
        "/api/v1/traces/c/stats",
        "/api/v1/traces/c/infer",
        "/api/v1/traces/c/group",
        "/api/v1/traces/c/replay?device=array&mode=closed",
    ];
    let baselines: Vec<(u16, String)> = targets
        .iter()
        .map(|t| request(addr, "GET", t, &[]))
        .collect();
    for (status, body) in &baselines {
        assert_eq!(*status, 200, "{body}");
    }

    // 16 threads hammer all four endpoints at once; every response must
    // equal its sequential baseline byte for byte.
    std::thread::scope(|scope| {
        for round in 0..16 {
            let target = targets[round % targets.len()];
            let baseline = &baselines[round % targets.len()];
            scope.spawn(move || {
                let (status, body) = request(addr, "GET", target, &[]);
                assert_eq!(status, 200);
                assert_eq!(
                    (status, body),
                    (baseline.0, baseline.1.clone()),
                    "{target} diverged under concurrency"
                );
            });
        }
    });

    // The replay summary matches the facade's replay of the same `.ttb`
    // on a fresh instance of the same device preset.
    let mapped = MmapTrace::open(repo_ttb(&daemon, "c")).unwrap();
    let mut device = tt_device::presets::by_name("array").unwrap();
    let replayed = Pipeline::from_mapped(&mapped)
        .replay(device.as_mut(), StreamReplay::ClosedLoop)
        .collect()
        .unwrap();
    let replay_body = &baselines[3].1;
    assert!(
        replay_body.contains(&format!("\"records\": {}", replayed.len())),
        "{replay_body}"
    );
    assert!(
        replay_body.contains(&format!("\"span\": \"{}\"", replayed.span())),
        "{replay_body}"
    );

    daemon.finish();
}

#[test]
fn leftover_parallel_query_param_is_ignored() {
    // `?parallel=` is not a parameter of any route: like any unknown query
    // parameter it changes neither the status nor the body.
    let daemon = TestDaemon::start("parallel", 2, Limits::default());
    let addr = daemon.addr;
    let csv = sample_csv(400, 21);
    let (status, _) = request(addr, "PUT", "/api/v1/traces/p?format=csv", &csv);
    assert_eq!(status, 201);

    for action in ["stats", "infer"] {
        let (status, plain) = request(addr, "GET", &format!("/api/v1/traces/p/{action}"), &[]);
        assert_eq!(status, 200, "{plain}");
        for value in ["4", "banana"] {
            let target = format!("/api/v1/traces/p/{action}?parallel={value}");
            let (status, body) = request(addr, "GET", &target, &[]);
            assert_eq!(status, 200, "{target} -> {body}");
            assert_eq!(body, plain, "{target}");
        }
    }

    daemon.finish();
}

#[test]
fn timings_param_wraps_body_and_leaves_result_unchanged() {
    let daemon = TestDaemon::start("timings", 2, Limits::default());
    let addr = daemon.addr;
    let csv = sample_csv(400, 31);
    let (status, _) = request(addr, "PUT", "/api/v1/traces/t?format=csv", &csv);
    assert_eq!(status, 201);

    let (status, plain) = request(addr, "GET", "/api/v1/traces/t/stats", &[]);
    assert_eq!(status, 200);
    let (status, timed) = request(addr, "GET", "/api/v1/traces/t/stats?timings=1", &[]);
    assert_eq!(status, 200);

    // The wrapped body carries the flight log next to the usual result.
    assert!(timed.contains("\"result\""), "{timed}");
    assert!(timed.contains("\"timings\""), "{timed}");
    assert!(timed.contains("\"stage\""), "{timed}");
    // Same analysis either way: the plain body's numbers appear verbatim
    // inside the wrapper.
    let plain_parsed = serde::json::parse(&plain).unwrap();
    let timed_parsed = serde::json::parse(&timed).unwrap();
    assert_eq!(timed_parsed.get_field("result"), &plain_parsed);

    // Replay flight logs include the replay stage itself.
    let (status, replay) = request(
        addr,
        "GET",
        "/api/v1/traces/t/replay?mode=closed&timings=true",
        &[],
    );
    assert_eq!(status, 200);
    assert!(replay.contains("\"stage\": \"replay\""), "{replay}");

    daemon.finish();
}

#[test]
fn replacing_a_trace_changes_answers_atomically() {
    let daemon = TestDaemon::start("replace", 2, Limits::default());
    let addr = daemon.addr;
    let (status, _) = request(
        addr,
        "PUT",
        "/api/v1/traces/r?format=csv",
        &sample_csv(100, 1),
    );
    assert_eq!(status, 201);
    let (_, before) = request(addr, "GET", "/api/v1/traces/r/stats", &[]);

    let (status, _) = request(
        addr,
        "PUT",
        "/api/v1/traces/r?format=csv",
        &sample_csv(200, 2),
    );
    assert_eq!(status, 201);
    let (_, after) = request(addr, "GET", "/api/v1/traces/r/stats", &[]);
    assert_ne!(before, after);
    assert!(after.contains("\"requests\": 200"), "{after}");

    daemon.finish();
}
