//! The versioned route table, and the handlers behind it.
//!
//! Every analysis handler is a thin adapter: resolve the trace to its
//! shared mapping ([`TraceRepo::open_trace`]), build a **per-request
//! [`Pipeline`]** over it ([`Pipeline::from_mapped`]), and run the
//! terminal the route names. The facade stays the single execution
//! path — the server adds HTTP, never a second analysis implementation —
//! which is also what makes the bit-identical guarantee cheap: the
//! `stats` and `infer` bodies are exactly the CLI's `--json` output
//! (same serialiser, same trailing newline).
//!
//! | Method | Route | Answer |
//! |---|---|---|
//! | GET | `/healthz` | liveness + trace count |
//! | GET | `/api/v1/traces` | repository listing |
//! | POST | `/api/v1/traces` | register a server-local file (JSON body `{"name", "path"}`) |
//! | GET | `/api/v1/traces/{name}` | one trace's summary line |
//! | PUT | `/api/v1/traces/{name}?format=csv\|blk\|ttb` | ingest the raw body |
//! | DELETE | `/api/v1/traces/{name}` | delete the trace |
//! | GET | `/api/v1/traces/{name}/stats?parallel=` | Table-I statistics (= `stats --json`) |
//! | GET | `/api/v1/traces/{name}/group` | sequentiality/op/size grouping table |
//! | GET | `/api/v1/traces/{name}/infer?parallel=` | timing inference (= `infer --json`) |
//! | GET | `/api/v1/traces/{name}/verify?period=&fraction=&seed=` | §V-A idle-injection verification |
//! | GET | `/api/v1/traces/{name}/replay?device=&mode=&time-scale=` | replay summary |
//! | POST | `/api/v1/shutdown` | drain and stop |
//!
//! Every analysis route also accepts **`?timings=1`**: the run records a
//! [`FlightRecorder`] flight log and the body becomes
//! `{"result": <the usual body>, "timings": <the flight log>}`. The
//! byte-identical-to-CLI guarantee applies only *without* the parameter.

use std::sync::Arc;

use serde::json::Value;
use tracetracker::sim::StreamReplay;
use tracetracker::{FlightRecorder, Pipeline};
use tt_core::{InferenceConfig, VerifyConfig};
use tt_trace::format::TraceFormat;
use tt_trace::time::SimDuration;
use tt_trace::TraceError;

use crate::http::{Request, Response, ServerControl};
use crate::repo::{RepoError, TraceRepo};

/// Routes one parsed request. Never panics on client input; every error
/// is a JSON `{"error": ...}` with a 4xx/5xx status.
#[must_use]
pub fn route(repo: &TraceRepo, request: &Request, control: &ServerControl<'_>) -> Response {
    let segments: Vec<&str> = request.segments.iter().map(String::as_str).collect();
    let method = request.method.as_str();
    match (method, segments.as_slice()) {
        ("GET", ["healthz"]) => healthz(repo),
        (_, ["healthz"]) => method_not_allowed("GET"),

        ("GET", ["api", "v1", "traces"]) => list_traces(repo),
        ("POST", ["api", "v1", "traces"]) => register(repo, request),
        (_, ["api", "v1", "traces"]) => method_not_allowed("GET | POST"),

        ("GET", ["api", "v1", "traces", name]) => describe(repo, name),
        ("PUT", ["api", "v1", "traces", name]) => ingest(repo, name, request),
        ("DELETE", ["api", "v1", "traces", name]) => delete(repo, name),
        (_, ["api", "v1", "traces", _]) => method_not_allowed("GET | PUT | DELETE"),

        ("GET", ["api", "v1", "traces", name, action]) => analyse(repo, name, action, request),
        (_, ["api", "v1", "traces", _, _]) => method_not_allowed("GET"),

        ("POST", ["api", "v1", "shutdown"]) => {
            control.request_shutdown();
            Response::json(
                200,
                &object(vec![("status", Value::Str("shutting down".into()))]),
            )
        }
        (_, ["api", "v1", "shutdown"]) => method_not_allowed("POST"),

        _ => Response::error(
            404,
            format!(
                "no route for {:?}; see /healthz and /api/v1/traces",
                request.path
            ),
        ),
    }
}

/// Shorthand for a `Value::Object` from static keys.
fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn method_not_allowed(allowed: &str) -> Response {
    Response::error(405, format!("method not allowed; expected {allowed}"))
}

/// Maps repository errors to their HTTP class.
fn repo_error(err: &RepoError) -> Response {
    let status = match err {
        RepoError::NotFound(_) => 404,
        RepoError::BadName(_) | RepoError::BadTrace(_) => 400,
        RepoError::NotARepo(_) | RepoError::Io(_) => 500,
    };
    Response::error(status, err.to_string())
}

/// Analysis over a validated mapping should not fail; if it does, it is
/// a server-side problem, not the client's.
fn trace_error(err: &TraceError) -> Response {
    Response::error(500, err.to_string())
}

fn healthz(repo: &TraceRepo) -> Response {
    Response::json(
        200,
        &object(vec![
            ("status", Value::Str("ok".into())),
            ("traces", Value::U64(repo.list().len() as u64)),
        ]),
    )
}

/// One trace's listing entry (opens the shared mapping for the counts —
/// a registry cache hit after the first time).
fn trace_entry(repo: &TraceRepo, name: &str) -> Result<Value, RepoError> {
    let mapped = repo.open_trace(name)?;
    let cols = mapped.columns();
    Ok(object(vec![
        ("name", Value::Str(name.to_string())),
        ("records", Value::U64(mapped.len() as u64)),
        ("timed", Value::Bool(cols.all_timed())),
    ]))
}

fn list_traces(repo: &TraceRepo) -> Response {
    let mut entries = Vec::new();
    for name in repo.list() {
        match trace_entry(repo, &name) {
            Ok(entry) => entries.push(entry),
            Err(err) => return repo_error(&err),
        }
    }
    Response::json(
        200,
        &object(vec![
            ("count", Value::U64(entries.len() as u64)),
            ("traces", Value::Array(entries)),
        ]),
    )
}

fn describe(repo: &TraceRepo, name: &str) -> Response {
    match trace_entry(repo, name) {
        Ok(entry) => Response::json(200, &entry),
        Err(err) => repo_error(&err),
    }
}

/// `POST /api/v1/traces` — register a server-local trace file: JSON body
/// `{"name": "...", "path": "/path/on/server.csv"}`, format by
/// extension, converted to `.ttb` once.
fn register(repo: &TraceRepo, request: &Request) -> Response {
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Response::error(400, "body must be UTF-8 JSON"),
    };
    let value = match serde::json::parse(text) {
        Ok(value) => value,
        Err(e) => return Response::error(400, format!("body is not valid JSON: {e}")),
    };
    let (Some(name), Some(path)) = (
        value.get_field("name").as_str(),
        value.get_field("path").as_str(),
    ) else {
        return Response::error(400, "body must be {\"name\": \"...\", \"path\": \"...\"}");
    };
    match repo.register_path(name, path) {
        Ok(records) => Response::json(
            201,
            &object(vec![
                ("name", Value::Str(name.to_string())),
                ("records", Value::U64(records as u64)),
            ]),
        ),
        Err(err) => repo_error(&err),
    }
}

/// `PUT /api/v1/traces/{name}?format=csv|blk|ttb` — ingest the raw body.
fn ingest(repo: &TraceRepo, name: &str, request: &Request) -> Response {
    let format = match request.query_param("format").unwrap_or("csv") {
        "csv" => TraceFormat::Csv,
        "blk" => TraceFormat::Blk,
        "ttb" => TraceFormat::Ttb,
        other => {
            return Response::error(
                400,
                format!("unknown format {other:?}; expected csv | blk | ttb"),
            )
        }
    };
    match repo.ingest_bytes(name, format, &request.body) {
        Ok(records) => Response::json(
            201,
            &object(vec![
                ("name", Value::Str(name.to_string())),
                ("records", Value::U64(records as u64)),
            ]),
        ),
        Err(err) => repo_error(&err),
    }
}

fn delete(repo: &TraceRepo, name: &str) -> Response {
    match repo.delete(name) {
        Ok(true) => Response::json(
            200,
            &object(vec![("deleted", Value::Str(name.to_string()))]),
        ),
        Ok(false) => Response::error(404, format!("no trace named {name:?} in the repository")),
        Err(err) => repo_error(&err),
    }
}

/// Parses `?parallel=N` (worker threads; absent = leave the process
/// default alone).
fn parallel_param(request: &Request) -> Result<Option<usize>, Response> {
    match request.query_param("parallel") {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| Response::error(400, format!("parallel: expected an integer, got {v:?}"))),
    }
}

/// Parses `"10ms"` / `"100us"` / `"1.5s"` / `"250ns"`, mirroring the
/// CLI's duration flags.
fn parse_duration(s: &str) -> Option<SimDuration> {
    let s = s.trim();
    let (value, unit) = s.split_at(s.find(|c: char| c.is_ascii_alphabetic())?);
    let value: f64 = value.parse().ok()?;
    if !value.is_finite() || value < 0.0 {
        return None;
    }
    let nanos = match unit {
        "ns" => value,
        "us" => value * 1e3,
        "ms" => value * 1e6,
        "s" => value * 1e9,
        _ => return None,
    };
    Some(SimDuration::from_nanos(nanos.round() as u64))
}

/// `?timings=1` (or `true`) — record and return the run's flight log.
fn timings_param(request: &Request) -> bool {
    matches!(request.query_param("timings"), Some("1" | "true"))
}

/// Wraps a successful analysis body with the recorded flight log:
/// `{"result": ..., "timings": ...}`. Without a recorder (no
/// `?timings=1`) the response passes through untouched, preserving the
/// byte-identical-to-CLI bodies.
fn with_timings(response: Response, recorder: &Option<Arc<FlightRecorder>>) -> Response {
    let Some(rec) = recorder else { return response };
    if response.status != 200 {
        return response;
    }
    let Ok(result) = serde::json::parse(&response.body) else {
        return response;
    };
    let timings = serde::json::parse(&rec.flight_log().to_json()).unwrap_or(Value::Null);
    Response::json(200, &object(vec![("result", result), ("timings", timings)]))
}

/// A raw-JSON response: the exact string the CLI's `--json` spelling
/// prints (plus the `println!` newline), so saved bodies byte-compare.
fn cli_identical_json(result: Result<String, serde_json::Error>) -> Response {
    match result {
        Ok(json) => Response {
            status: 200,
            body: format!("{json}\n"),
        },
        Err(e) => Response::error(500, format!("serialising result: {e}")),
    }
}

/// `GET /api/v1/traces/{name}/{stats|group|infer|verify|replay}`.
fn analyse(repo: &TraceRepo, name: &str, action: &str, request: &Request) -> Response {
    let mapped = match repo.open_trace(name) {
        Ok(mapped) => mapped,
        Err(err) => return repo_error(&err),
    };
    let parallel = match parallel_param(request) {
        Ok(parallel) => parallel,
        Err(response) => return response,
    };
    let recorder = timings_param(request).then(|| Arc::new(FlightRecorder::new()));
    let pipeline = || {
        let mut p = Pipeline::from_mapped(&mapped);
        if let Some(workers) = parallel {
            p = p.parallel(workers);
        }
        if let Some(rec) = &recorder {
            p = p.flight_recorder(rec);
        }
        p
    };

    let response = match action {
        "stats" => match pipeline().stats() {
            Ok(stats) => cli_identical_json(serde_json::to_string_pretty(&stats)),
            Err(err) => trace_error(&err),
        },
        "infer" => match pipeline().infer(&InferenceConfig::default()) {
            Ok(result) => cli_identical_json(serde_json::to_string_pretty(&result)),
            Err(err) => trace_error(&err),
        },
        "group" => match pipeline().group() {
            Ok(grouped) => {
                let groups: Vec<Value> = grouped
                    .iter()
                    .map(|(key, group)| {
                        object(vec![
                            ("group", Value::Str(key.to_string())),
                            ("members", Value::U64(group.len() as u64)),
                            ("gaps", Value::U64(group.inter_arrivals.len() as u64)),
                        ])
                    })
                    .collect();
                Response::json(
                    200,
                    &object(vec![
                        ("trace", Value::Str(name.to_string())),
                        ("groups", Value::Array(groups)),
                    ]),
                )
            }
            Err(err) => trace_error(&err),
        },
        "verify" => verify(request, pipeline()),
        "replay" => replay(request, name, &mapped, &recorder),
        other => Response::error(
            404,
            format!("unknown analysis {other:?}; expected stats | group | infer | verify | replay"),
        ),
    };
    with_timings(response, &recorder)
}

/// `?period=10ms&fraction=0.1&seed=7462` — the CLI `verify` defaults.
fn verify(request: &Request, pipeline: Pipeline<'_>) -> Response {
    let period = match request.query_param("period") {
        None => SimDuration::from_msecs(10),
        Some(v) => match parse_duration(v) {
            Some(d) => d,
            None => {
                return Response::error(400, format!("period: expected e.g. 10ms/100us, got {v:?}"))
            }
        },
    };
    let mut config = VerifyConfig::default();
    if let Some(v) = request.query_param("fraction") {
        match v.parse::<f64>() {
            Ok(f) if (0.0..=1.0).contains(&f) => config.fraction = f,
            _ => {
                return Response::error(
                    400,
                    format!("fraction: expected a number in [0,1], got {v:?}"),
                )
            }
        }
    }
    if let Some(v) = request.query_param("seed") {
        match v.parse::<u64>() {
            Ok(seed) => config.seed = seed,
            Err(_) => return Response::error(400, format!("seed: expected an integer, got {v:?}")),
        }
    }
    match pipeline.verify(period, &config) {
        Ok(result) => cli_identical_json(serde_json::to_string_pretty(&result)),
        Err(err) => trace_error(&err),
    }
}

/// `?device=array&mode=open|closed&time-scale=F` — the CLI `replay`
/// knobs. The replay stage reads the shared mapping's columns in place;
/// only the device it mutates is per-request.
fn replay(
    request: &Request,
    name: &str,
    mapped: &tt_trace::MmapTrace,
    recorder: &Option<Arc<FlightRecorder>>,
) -> Response {
    let device_name = request.query_param("device").unwrap_or("array");
    let Some(mut device) = tt_device::presets::by_name(device_name) else {
        return Response::error(
            400,
            format!(
                "unknown device {device_name:?}; expected {}",
                tt_device::presets::names().join(" | ")
            ),
        );
    };
    let mode = match request.query_param("mode").unwrap_or("open") {
        "open" => {
            let time_scale = match request.query_param("time-scale") {
                None => 1.0,
                Some(v) => match v.parse::<f64>() {
                    Ok(f) if f.is_finite() && f >= 0.0 => f,
                    _ => {
                        return Response::error(
                            400,
                            format!("time-scale: expected a non-negative number, got {v:?}"),
                        )
                    }
                },
            };
            StreamReplay::OpenLoop { time_scale }
        }
        "closed" => StreamReplay::ClosedLoop,
        other => {
            return Response::error(
                400,
                format!("unknown replay mode {other:?}; expected open | closed"),
            )
        }
    };

    // The pipeline's own check would surface as a 500 (`trace_error`);
    // a scale the clock cannot hold is the client's error.
    if let Err(err) = mode.check_span(mapped.columns().span()) {
        return Response::error(400, err.to_string());
    }
    let mut pipeline = Pipeline::from_mapped(mapped).replay(device.as_mut(), mode);
    if let Some(rec) = recorder {
        pipeline = pipeline.flight_recorder(rec);
    }
    match pipeline.collect() {
        Ok(trace) => Response::json(
            200,
            &object(vec![
                ("trace", Value::Str(name.to_string())),
                ("device", Value::Str(device_name.to_string())),
                (
                    "mode",
                    Value::Str(request.query_param("mode").unwrap_or("open").to_string()),
                ),
                ("records", Value::U64(trace.len() as u64)),
                ("span", Value::Str(trace.span().to_string())),
            ]),
        ),
        Err(err) => trace_error(&err),
    }
}
