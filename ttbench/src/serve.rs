//! `serve`: the in-process `tt-serve` daemon over a repository of the
//! corpus, loaded by closed-loop HTTP clients.
//!
//! Each client sends its next request only after the previous response
//! has arrived, one connection per request (the server answers
//! `Connection: close`). The seeded mix is 40% `/stats`, 25% `/group`,
//! 25% `/infer`, 5% closed-loop `/replay` on the array, and 5% `PUT`
//! re-ingests of a trace's own TTB bytes — a write beside the reads that
//! replaces the file and invalidates the shared mapping while readers
//! keep going. The mix and the client count are chosen to cover every
//! route and the ingest path in one run; they are not taken from measured
//! production traffic.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::json::Value;
use tracetracker::prelude::*;
use tt_serve::http::{Request, Response, ServerControl};
use tt_serve::{routes, Limits, Server, ServerConfig, TraceRepo};
use tt_trace::format::{ttb, TraceFormat};
use tt_trace::TraceStats;

use crate::corpus::{CorpusTrace, SplitMix};
use crate::layers::{OpTrace, Tracer};
use crate::passes::{input_paths, Measured};
use crate::report::{digest, Fnv};

/// Server worker threads.
pub const SERVER_WORKERS: usize = 2;
/// Closed-loop client threads, one connection at a time each.
pub const CLIENTS: usize = 2;

/// Request kinds, in mix order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Route {
    Stats,
    Group,
    Infer,
    Replay,
    Ingest,
}

impl Route {
    const ALL: [Route; 5] = [
        Route::Stats,
        Route::Group,
        Route::Infer,
        Route::Replay,
        Route::Ingest,
    ];

    /// Share of the mix, in percent.
    fn weight(self) -> usize {
        match self {
            Route::Stats => 40,
            Route::Group | Route::Infer => 25,
            Route::Replay | Route::Ingest => 5,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Route::Stats => "stats",
            Route::Group => "group",
            Route::Infer => "infer",
            Route::Replay => "replay",
            Route::Ingest => "ingest",
        }
    }

    fn pick(rng: &mut SplitMix) -> Route {
        let mut roll = rng.below(100);
        for r in Route::ALL {
            if roll < r.weight() {
                return r;
            }
            roll -= r.weight();
        }
        Route::Stats
    }
}

/// The bound daemon plus the files the clients' `PUT`s send.
#[derive(Debug)]
pub struct Daemon {
    repo: TraceRepo,
    server: Server,
    bodies: Vec<PathBuf>,
}

/// Set-up's corpus half: initialise a repository under `dir/repo`,
/// ingest every corpus trace as TTB, and keep a copy of each TTB file
/// under `dir/put` for the clients to re-ingest.
///
/// # Errors
///
/// The first write or ingest failure.
pub fn ingest(corpus: &[CorpusTrace], dir: &Path) -> Result<(), String> {
    let repo = TraceRepo::init(dir.join("repo")).map_err(|e| e.to_string())?;
    let put = dir.join("put");
    std::fs::create_dir_all(&put).map_err(|e| format!("{}: {e}", put.display()))?;
    let names: Vec<String> = corpus.iter().map(|c| c.name.clone()).collect();
    for (c, path) in corpus.iter().zip(input_paths(&put, &names, "ttb")) {
        let mut b = Vec::new();
        ttb::write_ttb(&c.old, &mut b).map_err(|e| e.to_string())?;
        repo.ingest_bytes(&c.name, TraceFormat::Ttb, &b)
            .map_err(|e| e.to_string())?;
        std::fs::write(&path, &b).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Set-up's daemon half: open the repository [`ingest`] wrote under
/// `dir` and bind the server on an ephemeral loopback port.
///
/// # Errors
///
/// The open or bind failure.
pub fn open(dir: &Path, names: &[String]) -> Result<Daemon, String> {
    let repo = TraceRepo::open(dir.join("repo")).map_err(|e| e.to_string())?;
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: SERVER_WORKERS,
        limits: Limits::default(),
    })
    .map_err(|e| e.to_string())?;
    Ok(Daemon {
        repo,
        server,
        bodies: input_paths(&dir.join("put"), names, "ttb"),
    })
}

/// An HTTP status and body, or why none arrived.
type Answer = Result<(u16, Vec<u8>), String>;

/// A response reduced to what the checks need: its status, the digest of
/// its body, and the body itself only where a check parses it (ingest
/// answers) or a failure report quotes it.
#[derive(Debug)]
struct Reply {
    status: u16,
    digest: u64,
    body: Option<Vec<u8>>,
}

impl Reply {
    fn new(route: Route, status: u16, body: Vec<u8>) -> Reply {
        let keep = route == Route::Ingest || !(200..300).contains(&status);
        Reply {
            status,
            digest: digest(&body),
            body: keep.then_some(body),
        }
    }
}

/// One client request as the client saw it.
#[derive(Debug)]
struct Sample {
    route: Route,
    trace: usize,
    id: u64,
    traced: bool,
    start: Instant,
    end: Instant,
    outcome: Result<Reply, String>,
}

/// Server-side timing of one traced request.
#[derive(Debug, Clone, Copy)]
struct Handled {
    map: (Instant, Instant),
    handler: (Instant, Instant),
}

fn path(route: Route, name: &str) -> String {
    match route {
        Route::Ingest => format!("/api/v1/traces/{name}?format=ttb"),
        Route::Replay => format!("/api/v1/traces/{name}/replay?device=array&mode=closed"),
        r => format!("/api/v1/traces/{name}/{}", r.label()),
    }
}

/// One HTTP/1.1 exchange on a fresh connection.
fn exchange(addr: SocketAddr, method: &str, target: &str, body: &[u8], id: Option<u64>) -> Answer {
    let io = |e: std::io::Error| format!("{method} {target}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(io)?;
    let trace_header = id.map_or(String::new(), |id| format!("X-Bench-Trace: {id}\r\n"));
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n{trace_header}\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(io)?;
    stream.write_all(body).map_err(io)?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response).map_err(io)?;
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {target}: response without a head"))?;
    let status = std::str::from_utf8(&response[..split])
        .ok()
        .and_then(|head| head.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {target}: unreadable status line"))?;
    Ok((status, response[split + 4..].to_vec()))
}

/// Runs the closed-loop load for `seconds` (after a warm-up that fetches
/// every route/trace pair once) against the traces `names`, reads the
/// peak RSS, then checks every response against `corpus()`.
pub fn measure(
    d: &Daemon,
    names: &[String],
    seed: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    corpus: impl FnOnce() -> Vec<CorpusTrace>,
) -> Measured {
    let traced = tracer.is_some();
    let handled: Mutex<BTreeMap<u64, Handled>> = Mutex::new(BTreeMap::new());
    let handle = |request: &Request, control: &ServerControl<'_>| -> Response {
        let Some(id) = request
            .header("x-bench-trace")
            .and_then(|v| v.parse::<u64>().ok())
        else {
            return routes::route(&d.repo, request, control);
        };
        // Time the registry lookup on its own; the handler's own lookup
        // then hits the mapping this one opened.
        let m0 = Instant::now();
        if let Some(name) = request.segments.get(3).filter(|_| request.method == "GET") {
            let _ = d.repo.open_trace(name);
        }
        let m1 = Instant::now();
        let response = routes::route(&d.repo, request, control);
        let h1 = Instant::now();
        handled
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(
                id,
                Handled {
                    map: (m0, m1),
                    handler: (m1, h1),
                },
            );
        response
    };

    let Ok(addr) = d.server.local_addr() else {
        return Measured {
            mismatches: vec!["server has no local address".to_string()],
            ..Measured::default()
        };
    };
    let mut warm: BTreeMap<(Route, usize), Answer> = BTreeMap::new();
    let mut samples: Vec<Sample> = Vec::new();
    let mut shutdown = Ok((200, Vec::new()));
    let mut started = Instant::now();
    let mut deadline = started;

    std::thread::scope(|scope| {
        let server = scope.spawn(|| d.server.run(handle));
        for route in [Route::Stats, Route::Group, Route::Infer, Route::Replay] {
            for (i, name) in names.iter().enumerate() {
                warm.insert(
                    (route, i),
                    exchange(addr, "GET", &path(route, name), &[], None),
                );
            }
        }
        started = Instant::now();
        deadline = started + Duration::from_secs_f64(seconds);
        let clients: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let bodies = &d.bodies;
                scope.spawn(move || {
                    let mut rng = SplitMix::new(seed ^ (0xC11E_4700 + k as u64));
                    let mut out = Vec::new();
                    let mut n = 0u64;
                    while Instant::now() < deadline {
                        let route = Route::pick(&mut rng);
                        // Each client re-ingests only the traces whose index
                        // is its own modulo CLIENTS: two concurrent ingests
                        // of one name race on the repository's shared
                        // temporary file.
                        let trace = if route == Route::Ingest {
                            k + CLIENTS * rng.below((names.len() - k).div_ceil(CLIENTS))
                        } else {
                            rng.below(names.len())
                        };
                        // Traced runs alternate traced and untraced requests
                        // so the two see the same load.
                        let id = ((k as u64) << 32) | n;
                        let traced_req = traced && n % 2 == 1;
                        n += 1;
                        let target = path(route, &names[trace]);
                        // A PUT body is read from disk before the clock
                        // starts and dropped after the request.
                        let (method, body) = match route {
                            Route::Ingest => ("PUT", std::fs::read(&bodies[trace])),
                            _ => ("GET", Ok(Vec::new())),
                        };
                        let start = Instant::now();
                        let outcome = body.map_err(|e| format!("{target}: {e}")).and_then(|body| {
                            exchange(addr, method, &target, &body, traced_req.then_some(id))
                        });
                        let end = Instant::now();
                        out.push(Sample {
                            route,
                            trace,
                            id,
                            traced: traced_req,
                            start,
                            end,
                            outcome: outcome.map(|(status, body)| Reply::new(route, status, body)),
                        });
                    }
                    out
                })
            })
            .collect();
        for c in clients {
            match c.join() {
                Ok(s) => samples.extend(s),
                Err(_) => shutdown = Err("a client thread panicked".to_string()),
            }
        }
        let stop = exchange(addr, "POST", "/api/v1/shutdown", &[], None);
        if shutdown.is_ok() {
            shutdown = stop;
        }
        if server.join().is_err() {
            shutdown = Err("the server thread panicked".to_string());
        }
    });

    let mut m = Measured::default();
    crate::passes::note_peak_rss(&mut m);
    if let Err(e) = shutdown {
        m.mismatches.push(format!("shutdown: {e}"));
    }
    let corpus = corpus();
    if corpus.len() != names.len() {
        m.mismatches.push(format!(
            "the regenerated corpus has {} traces, the repository {}",
            corpus.len(),
            names.len()
        ));
        m.attempted = samples.len() as u64;
        return m;
    }
    let expected = expected_bodies(&corpus, &warm).unwrap_or_else(|e| {
        m.mismatches.push(e);
        BTreeMap::new()
    });
    let mut golden = Fnv::default();
    for v in expected.values() {
        golden.u64(*v);
    }
    m.golden = golden.finish();

    let handled = handled
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut ends = Vec::new();
    for s in &samples {
        m.attempted += 1;
        let wall = s.end - s.start;
        let name = &names[s.trace];
        match &s.outcome {
            Ok(reply) if (200..300).contains(&reply.status) => {
                if let Err(e) = check(s.route, &corpus[s.trace], reply, &expected, s.trace) {
                    m.mismatches
                        .push(format!("{} {name}: {e}", s.route.label()));
                }
            }
            Ok(reply) => {
                m.failed += 1;
                m.mismatches.push(format!(
                    "{} {name}: status {}: {}",
                    s.route.label(),
                    reply.status,
                    String::from_utf8_lossy(reply.body.as_deref().unwrap_or_default()).trim()
                ));
            }
            Err(e) => {
                m.failed += 1;
                m.mismatches.push(e.clone());
            }
        }
        if s.traced {
            traced_ms.push(wall.as_secs_f64() * 1e3);
            if let (Some(t), Some(h)) = (tracer.as_deref_mut(), handled.get(&s.id)) {
                let mut op = OpTrace::at(t.origin(), s.start);
                op.interval("trace.ttb_map", h.map.0, h.map.1);
                op.interval("serve.handler", h.handler.0, h.handler.1);
                t.handler_sample(
                    s.route.label(),
                    (h.handler.1 - h.handler.0).as_secs_f64() * 1e3,
                );
                t.finish(
                    0,
                    m.attempted as usize,
                    &format!("{}:{name}", s.route.label()),
                    wall,
                    op,
                );
            }
        } else {
            untraced_ms.push(wall.as_secs_f64() * 1e3);
            ends.push(s.end);
        }
    }
    if traced {
        m.traced_times = traced_ms;
        m.untraced_times = untraced_ms;
    } else {
        m.latencies_ms = untraced_ms;
        m.pass_rates = window_rates(started, deadline, &ends, seconds);
    }
    m
}

/// Completion rate in each whole-second window of the measurement (at
/// least one window): completions after a window's first one, over the
/// time from its first to its last completion — a rate that does not
/// step with the integer count of a fixed window.
fn window_rates(started: Instant, deadline: Instant, ends: &[Instant], seconds: f64) -> Vec<f64> {
    let windows = (seconds.floor() as usize).max(1);
    let width = (deadline - started).as_secs_f64() / windows as f64;
    let mut bins: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &e in ends.iter().filter(|&&e| e < deadline) {
        let at = (e - started).as_secs_f64();
        bins[((at / width) as usize).min(windows - 1)].push(at);
    }
    bins.iter()
        .filter_map(|b| {
            let (first, last) = b
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &t| (lo.min(t), hi.max(t)));
            (b.len() >= 2 && last > first).then(|| (b.len() - 1) as f64 / (last - first))
        })
        .collect()
}

/// Expected body digests per (route, trace): `stats` and `infer` computed
/// directly from the in-memory corpus (the daemon promises the CLI's
/// `--json` bytes), `group` and `replay` taken from the warm-up answers,
/// which must also pass the semantic checks.
fn expected_bodies(
    corpus: &[CorpusTrace],
    warm: &BTreeMap<(Route, usize), Answer>,
) -> Result<BTreeMap<(Route, usize), u64>, String> {
    let mut out = BTreeMap::new();
    for (i, c) in corpus.iter().enumerate() {
        let stats = serde_json::to_string_pretty(&TraceStats::compute(&c.old))
            .map_err(|e| e.to_string())?;
        out.insert((Route::Stats, i), digest(format!("{stats}\n").as_bytes()));
        let inferred = serde_json::to_string_pretty(&infer(&c.old, &InferenceConfig::default()))
            .map_err(|e| e.to_string())?;
        out.insert(
            (Route::Infer, i),
            digest(format!("{inferred}\n").as_bytes()),
        );
        for route in [Route::Group, Route::Replay] {
            let body = match warm.get(&(route, i)) {
                Some(Ok((200, body))) => body,
                Some(Ok((status, _))) => {
                    return Err(format!(
                        "warm-up {} {}: status {status}",
                        route.label(),
                        c.name
                    ))
                }
                Some(Err(e)) => return Err(format!("warm-up: {e}")),
                None => return Err(format!("warm-up {} {}: not sent", route.label(), c.name)),
            };
            semantic(route, c, body)?;
            out.insert((route, i), digest(body));
        }
    }
    for ((route, i), answer) in warm {
        if matches!(route, Route::Stats | Route::Infer) {
            let body = match answer {
                Ok((200, body)) => body,
                _ => {
                    return Err(format!(
                        "warm-up {} {}: failed",
                        route.label(),
                        corpus[*i].name
                    ))
                }
            };
            if Some(&digest(body)) != out.get(&(*route, *i)) {
                return Err(format!(
                    "warm-up {} {}: body differs from the facade's JSON",
                    route.label(),
                    corpus[*i].name
                ));
            }
        }
    }
    Ok(out)
}

/// Checks one successful response.
fn check(
    route: Route,
    c: &CorpusTrace,
    reply: &Reply,
    expected: &BTreeMap<(Route, usize), u64>,
    i: usize,
) -> Result<(), String> {
    match (route, &reply.body) {
        (Route::Ingest, Some(body)) => semantic(route, c, body),
        _ if expected.get(&(route, i)) == Some(&reply.digest) => Ok(()),
        _ => Err("body differs from the expected bytes".to_string()),
    }
}

/// What a body must say regardless of its formatting: the trace's name
/// and record count.
fn semantic(route: Route, c: &CorpusTrace, body: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let v = serde::json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let records = match route {
        Route::Group => {
            let Value::Array(groups) = v.get_field("groups") else {
                return Err("group body lacks a groups array".to_string());
            };
            groups
                .iter()
                .map(|g| g.get_field("members").as_u64().unwrap_or(0))
                .sum()
        }
        _ => v.get_field("records").as_u64().unwrap_or(0),
    };
    let name = match route {
        Route::Ingest => v.get_field("name").as_str(),
        _ => v.get_field("trace").as_str(),
    };
    if records != c.old.len() as u64 || name != Some(c.name.as_str()) {
        return Err(format!(
            "body names {name:?} with {records} records, expected {:?} with {}",
            c.name,
            c.old.len()
        ));
    }
    Ok(())
}
