//! Hostile-input hardening: every malformed, oversized, stalled, or
//! traversal-shaped request gets a clear 4xx — the daemon never panics,
//! never wedges a worker, and never touches a file outside the
//! repository root.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use common::{parse_response, raw_round_trip, request, sample_csv, TestDaemon};
use tt_serve::Limits;

/// Small bounds so the attacks are cheap to express.
fn tight_limits() -> Limits {
    Limits {
        max_head_bytes: 512,
        max_body_bytes: 16 * 1024,
        io_timeout: Duration::from_millis(300),
    }
}

#[test]
fn oversized_headers_get_431() {
    let daemon = TestDaemon::start("heads", 2, tight_limits());
    let huge = format!(
        "GET /healthz HTTP/1.1\r\nX-Padding: {}\r\n\r\n",
        "a".repeat(4096)
    );
    let (status, body) = parse_response(&raw_round_trip(daemon.addr, huge.as_bytes()));
    assert_eq!(status, 431);
    assert!(body.contains("exceeds"), "{body}");
    daemon.finish();
}

#[test]
fn declared_body_beyond_limit_gets_413() {
    let daemon = TestDaemon::start("bigbody", 2, tight_limits());
    let req = "PUT /api/v1/traces/x?format=csv HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n";
    let (status, body) = parse_response(&raw_round_trip(daemon.addr, req.as_bytes()));
    assert_eq!(status, 413);
    assert!(body.contains("exceeds"), "{body}");
    daemon.finish();
}

#[test]
fn truncated_body_gets_400() {
    let daemon = TestDaemon::start("truncated", 2, tight_limits());
    let mut stream = TcpStream::connect(daemon.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            b"PUT /api/v1/traces/x?format=csv HTTP/1.1\r\nContent-Length: 100\r\n\r\nonly-ten..",
        )
        .unwrap();
    // Half-close: the server sees EOF with 90 declared bytes missing.
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    let (status, body) = parse_response(&text);
    assert_eq!(status, 400);
    assert!(body.contains("truncated body"), "{body}");
    daemon.finish();
}

#[test]
fn malformed_requests_get_400() {
    let daemon = TestDaemon::start("malformed", 2, tight_limits());
    for (raw, expect) in [
        (
            "\u{1f980}\u{1f980} HTTP/1.1\r\n\r\n",
            "malformed request line",
        ),
        ("GET noslash HTTP/1.1\r\n\r\n", "malformed request line"),
        ("get /healthz HTTP/1.1\r\n\r\n", "malformed method"),
        ("GET /healthz SMTP/1.0\r\n\r\n", "unsupported protocol"),
        (
            "GET /healthz HTTP/1.1\r\nbroken header line\r\n\r\n",
            "malformed header",
        ),
        (
            "PUT /api/v1/traces/x HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            "bad Content-Length",
        ),
        (
            "GET /api/v1/traces/bad%zzname/stats HTTP/1.1\r\n\r\n",
            "%-escape",
        ),
    ] {
        let (status, body) = parse_response(&raw_round_trip(daemon.addr, raw.as_bytes()));
        assert_eq!(status, 400, "{raw:?} -> {body}");
        assert!(body.contains(expect), "{raw:?} -> {body}");
    }
    daemon.finish();
}

#[test]
fn chunked_transfer_encoding_gets_501() {
    let daemon = TestDaemon::start("chunked", 2, tight_limits());
    let raw = "PUT /api/v1/traces/x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
    let (status, body) = parse_response(&raw_round_trip(daemon.addr, raw.as_bytes()));
    assert_eq!(status, 501);
    assert!(body.contains("Content-Length"), "{body}");
    daemon.finish();
}

#[test]
fn wrong_methods_get_405_and_unknown_routes_404() {
    let daemon = TestDaemon::start("methods", 2, tight_limits());
    let addr = daemon.addr;
    for (method, target) in [
        ("BREW", "/healthz"),
        ("DELETE", "/api/v1/traces"),
        ("PUT", "/api/v1/traces/x/stats"),
        ("GET", "/api/v1/shutdown"),
    ] {
        let (status, body) = request(addr, method, target, &[]);
        assert_eq!(status, 405, "{method} {target} -> {body}");
        assert!(body.contains("expected"), "{body}");
    }
    for target in ["/", "/api", "/api/v2/traces", "/api/v1/nothing"] {
        let (status, body) = request(addr, "GET", target, &[]);
        assert_eq!(status, 404, "{target} -> {body}");
    }
    let (status, body) = request(addr, "GET", "/api/v1/traces/x/frobnicate", &[]);
    // Unknown analysis on a missing trace: the 404 for the trace comes
    // first; on an existing trace the action list comes back.
    assert_eq!(status, 404);
    assert!(body.contains("x"), "{body}");
    daemon.finish();
}

#[test]
fn path_traversal_names_are_rejected_and_touch_nothing() {
    let daemon = TestDaemon::start("traversal", 2, tight_limits());
    let addr = daemon.addr;
    let escape_probe = std::env::temp_dir().join(format!(
        "tt_serve_{}_traversal_escape.ttb",
        std::process::id()
    ));
    std::fs::remove_file(&escape_probe).ok();

    for name in [
        "..%2F..%2Fetc%2Fpasswd",
        "..%5C..%5Cboot",
        "%2E%2E",
        ".hidden",
        "a%2Fb",
        "name%20with%20spaces",
    ] {
        let (status, body) = request(addr, "GET", &format!("/api/v1/traces/{name}/stats"), &[]);
        assert_eq!(status, 400, "{name} -> {body}");
        assert!(body.contains("invalid trace name"), "{body}");
        // Ingest under a hostile name must also be refused before any
        // filesystem write.
        let (status, body) = request(addr, "PUT", &format!("/api/v1/traces/{name}"), b"x");
        assert_eq!(status, 400, "{name} -> {body}");
    }

    // A traversal name aimed at the temp dir outside the repo root never
    // created a file there, and the repository itself holds nothing.
    let up = "..%2F..%2Ftt_serve_traversal_escape";
    let (status, _) = request(addr, "PUT", &format!("/api/v1/traces/{up}"), b"x");
    assert_eq!(status, 400);
    assert!(!escape_probe.exists());
    let (_, listing) = request(addr, "GET", "/api/v1/traces", &[]);
    assert!(listing.contains("\"count\": 0"), "{listing}");
    daemon.finish();
}

#[test]
fn malformed_query_params_get_400_naming_the_rules() {
    let daemon = TestDaemon::start("query", 2, tight_limits());
    let addr = daemon.addr;
    let (status, _) = request(
        addr,
        "PUT",
        "/api/v1/traces/q?format=csv",
        &sample_csv(60, 5),
    );
    assert_eq!(status, 201);

    for (target, expect) in [
        (
            "/api/v1/traces/q/replay?device=floppy",
            "hdd | wd-blue | ssd | array",
        ),
        ("/api/v1/traces/q/replay?mode=sideways", "open | closed"),
        ("/api/v1/traces/q/replay?time-scale=-3", "non-negative"),
        ("/api/v1/traces/q/replay?time-scale=1e300", "time-scale"),
        ("/api/v1/traces/q/verify?fraction=2.0", "[0,1]"),
        ("/api/v1/traces/q/verify?period=10years", "10ms"),
        ("/api/v1/traces/q/verify?seed=-1", "integer"),
    ] {
        let (status, body) = request(addr, "GET", target, &[]);
        assert_eq!(status, 400, "{target} -> {body}");
        assert!(body.contains(expect), "{target} -> {body}");
    }

    // Bad ingest format parameter.
    let (status, body) = request(addr, "PUT", "/api/v1/traces/q2?format=xml", b"x");
    assert_eq!(status, 400);
    assert!(body.contains("csv | blk | ttb"), "{body}");

    // Unparsable body under a valid name: 400, nothing stored.
    let (status, body) = request(addr, "PUT", "/api/v1/traces/q3?format=ttb", b"garbage");
    assert_eq!(status, 400, "{body}");
    let (_, listing) = request(addr, "GET", "/api/v1/traces", &[]);
    assert!(!listing.contains("q3"), "{listing}");

    // Bad register bodies.
    for body_bytes in [&b"not json"[..], br#"{"name": "only"}"#] {
        let (status, body) = request(addr, "POST", "/api/v1/traces", body_bytes);
        assert_eq!(status, 400, "{body}");
    }
    daemon.finish();
}

#[test]
fn deeply_nested_register_body_gets_400_and_the_server_lives() {
    // Far deeper than a worker's stack holds when each level is a frame
    // of the JSON parser's recursion.
    let daemon = TestDaemon::start("nested", 2, Limits::default());
    let addr = daemon.addr;
    let (status, body) = request(addr, "POST", "/api/v1/traces", &[b'['; 100_000]);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nested deeper than 128 levels"), "{body}");

    let (status, body) = request(addr, "GET", "/healthz", &[]);
    assert_eq!(status, 200, "{body}");
    let staged = daemon.root.join("staged.csv");
    std::fs::write(&staged, sample_csv(50, 3)).unwrap();
    let reg = format!(
        "{{\"name\": \"n\", \"path\": {:?}}}",
        staged.to_str().unwrap()
    );
    let (status, body) = request(addr, "POST", "/api/v1/traces", reg.as_bytes());
    assert_eq!(status, 201, "{body}");
    daemon.finish();
}

#[test]
fn undecodable_text_bodies_get_400_naming_the_line() {
    let daemon = TestDaemon::start("undecodable", 2, tight_limits());
    let addr = daemon.addr;
    let cases: [(&str, &[u8], &str); 3] = [
        (
            "csv",
            b"1.0,R,0,8\n2.0,W,8,8\n3.0,R,\xe9,8\n4.0,W,16,8\n",
            "line 3: line is not valid UTF-8",
        ),
        (
            "blk",
            b"8,0 0 1 0.000001000 1 Q R 64 + 8\n8,0 0 2 0.000002000 1 Q R \xe9 + 8\n",
            "line 2: line is not valid UTF-8",
        ),
        (
            "blk",
            b"8,0 0 1 0.000001000 1 Q R 64 + 8\n8,0 0 2 20000000000 1 Q W 128 + 8\n",
            "line 2: time out of range",
        ),
    ];
    for (format, body_bytes, expect) in cases {
        let target = format!("/api/v1/traces/bad?format={format}");
        let (status, body) = request(addr, "PUT", &target, body_bytes);
        assert_eq!(status, 400, "{format} -> {body}");
        assert!(body.contains(expect), "{format} -> {body}");
    }
    let (_, listing) = request(addr, "GET", "/api/v1/traces", &[]);
    assert!(listing.contains("\"count\": 0"), "{listing}");
    daemon.finish();
}

#[test]
fn stalled_clients_time_out_without_wedging_the_server() {
    let daemon = TestDaemon::start("stall", 2, tight_limits());
    let addr = daemon.addr;

    // Two stalled clients (= pool size) send half a request and hang.
    let mut stalled: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
            s
        })
        .collect();

    // Each eventually gets a 408 instead of pinning a worker forever.
    for s in &mut stalled {
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        let (status, body) = parse_response(&text);
        assert_eq!(status, 408, "{body}");
        assert!(body.contains("timed out"), "{body}");
    }

    // And the server still answers promptly afterwards.
    let (status, body) = request(addr, "GET", "/healthz", &[]);
    assert_eq!(status, 200, "{body}");
    daemon.finish();
}
