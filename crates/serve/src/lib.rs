#![forbid(unsafe_code)]
//! # tt-serve — resident trace-analysis daemon
//!
//! The first *service* in the workspace: everything else is one-shot
//! CLI, but a trace corpus served to many consumers (the Workflow Trace
//! Archive model) wants a resident process that pays trace conversion
//! and mapping costs once and answers analysis queries from a shared
//! read-only mapping. `tt-serve` is that process — a TTB-backed trace
//! **repository** behind a small **HTTP/1.1 JSON API**, std-only like
//! the rest of the repo (the HTTP layer is hand-rolled in the spirit of
//! the compat shims; no frameworks).
//!
//! ## Repository layout
//!
//! ```text
//! <root>/
//!   .tt-repo        marker + format version ([`repo::MARKER`])
//!   traces/
//!     <name>.ttb    one binary columnar file per ingested trace
//! ```
//!
//! Traces are ingested in any supported format (CSV, blkparse text,
//! TTB) and converted to `.ttb` **once**; each later query re-opens the
//! file as a zero-copy [`tt_trace::MmapTrace`] — and because openings go
//! through a [`tt_trace::MmapRegistry`], N concurrent requests share
//! *one* validated kernel mapping per trace.
//!
//! ## Concurrency model
//!
//! One acceptor thread feeds a fixed pool of worker threads through a
//! bounded queue (503 under saturation). Each worker parses one request
//! under hard bounds — capped head and body sizes, socket timeouts both
//! directions — so a stalled or malicious client costs one worker at
//! most one timeout, never a wedge. Handlers build a **per-request
//! [`tracetracker::Pipeline`]** over the shared mapping
//! ([`Pipeline::from_mapped`](tracetracker::Pipeline::from_mapped)):
//! analysis terminals and the replay stage read the mapped columns in
//! place (zero-copy, any number of readers; a replay mutates only its
//! per-request device), while verify copies them out once because idle
//! injection writes into the trace. Responses for `stats` and `infer`
//! are **byte-identical** to `tracetracker stats --json` / `infer --json`
//! on the same `.ttb` — same serialiser, same trailing newline — which
//! the integration tests and the CI smoke assert with a literal byte
//! compare; the smoke also checks a `replay` response's record count and
//! span against `tracetracker replay` on the same file.
//!
//! ## Quickstart
//!
//! ```text
//! $ tt-serve --root /var/lib/tt --init --addr 127.0.0.1:7070 --workers 8
//! tt-serve: listening on http://127.0.0.1:7070 (root /var/lib/tt, 8 workers)
//!
//! # liveness + corpus size
//! $ curl -s http://127.0.0.1:7070/healthz
//!
//! # ingest a CSV trace under the name "msnfs" (converted to TTB once)
//! $ curl -s -X PUT --data-binary @msnfs.csv \
//!     'http://127.0.0.1:7070/api/v1/traces/msnfs?format=csv'
//!
//! # or register a file already on the server
//! $ curl -s -X POST -d '{"name":"msnfs","path":"/data/msnfs.csv"}' \
//!     http://127.0.0.1:7070/api/v1/traces
//!
//! # Table-I statistics — byte-identical to `tracetracker stats --json`
//! $ curl -s http://127.0.0.1:7070/api/v1/traces/msnfs/stats
//!
//! # timing inference, grouping, idle-injection verification
//! $ curl -s http://127.0.0.1:7070/api/v1/traces/msnfs/infer
//! $ curl -s http://127.0.0.1:7070/api/v1/traces/msnfs/group
//! $ curl -s 'http://127.0.0.1:7070/api/v1/traces/msnfs/verify?period=10ms&fraction=0.1'
//!
//! # replay on a preset device (see `tracetracker devices`)
//! $ curl -s 'http://127.0.0.1:7070/api/v1/traces/msnfs/replay?device=array&mode=closed'
//!
//! # drain and stop
//! $ curl -s -X POST http://127.0.0.1:7070/api/v1/shutdown
//! ```
//!
//! The full route table lives in [`routes`]; request bounds and the
//! worker pool in [`http`]; the on-disk format and name validation in
//! [`repo`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod http;
pub mod repo;
pub mod routes;

use std::net::SocketAddr;

pub use http::{Limits, Server, ServerConfig};
pub use repo::{RepoError, TraceRepo};

/// A bound daemon: repository + listening server, ready to [`run`].
///
/// [`run`]: Daemon::run
#[derive(Debug)]
pub struct Daemon {
    server: Server,
    repo: TraceRepo,
}

impl Daemon {
    /// Binds the server socket over an opened repository.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(repo: TraceRepo, config: ServerConfig) -> std::io::Result<Daemon> {
        let server = Server::bind(config)?;
        Ok(Daemon { server, repo })
    }

    /// The bound address (useful when the config asked for port `0`).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.server.local_addr()
    }

    /// Serves requests until a client POSTs `/api/v1/shutdown`.
    pub fn run(&self) {
        self.server
            .run(|request, control| routes::route(&self.repo, request, control));
    }
}

/// A `tt-serve` invocation error: the message to print before exiting
/// non-zero.
#[derive(Debug)]
pub struct ServeError(pub String);

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ServeError {}

/// Usage text for the binary (and for `tracetracker serve`).
pub const USAGE: &str = "\
tt-serve — resident trace-analysis daemon (TTB repository + HTTP/JSON API)

USAGE:
    tt-serve --root DIR [--init] [--addr 127.0.0.1:7070] [--workers N]
             [--io-timeout-ms MS] [--max-body BYTES]

    --root DIR          repository directory (required)
    --init              create the repository layout if missing
    --addr HOST:PORT    listen address (default 127.0.0.1:7070; port 0 = ephemeral)
    --workers N         worker threads (default 4)
    --io-timeout-ms MS  per-socket read/write timeout (default 10000)
    --max-body BYTES    largest accepted request body (default 64 MiB)

ROUTES:
    GET    /healthz
    GET    /api/v1/traces
    POST   /api/v1/traces                      {\"name\":..., \"path\":...}
    GET    /api/v1/traces/{name}
    PUT    /api/v1/traces/{name}?format=csv|blk|ttb
    DELETE /api/v1/traces/{name}
    GET    /api/v1/traces/{name}/stats|group|infer|verify
    GET    /api/v1/traces/{name}/replay?device=&mode=
    POST   /api/v1/shutdown

Analysis routes also take ?timings=1: the body becomes
{\"result\": <usual body>, \"timings\": <flight log>}.";

/// Parses the daemon's command line and runs it to completion (i.e.
/// until shutdown is requested over HTTP).
///
/// # Errors
///
/// [`ServeError`] with a user-facing message on bad flags, a missing or
/// uninitialised repository, or a bind failure.
pub fn run_cli(argv: &[String]) -> Result<(), ServeError> {
    let mut root: Option<String> = None;
    let mut init = false;
    let mut config = ServerConfig::default();

    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| ServeError(format!("--{name} requires a value")))
        };
        match arg.as_str() {
            "--root" => root = Some(value("root")?),
            "--init" => init = true,
            "--addr" => config.addr = value("addr")?,
            "--workers" => {
                config.workers = parse_num(&value("workers")?, "workers")?;
            }
            "--io-timeout-ms" => {
                let ms: u64 = parse_num(&value("io-timeout-ms")?, "io-timeout-ms")?;
                config.limits.io_timeout = std::time::Duration::from_millis(ms);
            }
            "--max-body" => {
                config.limits.max_body_bytes = parse_num(&value("max-body")?, "max-body")?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(ServeError(format!("unknown flag {other:?}\n\n{USAGE}"))),
        }
    }
    let root = root.ok_or_else(|| ServeError(format!("--root DIR is required\n\n{USAGE}")))?;

    let repo = if init {
        TraceRepo::init(&root)
    } else {
        TraceRepo::open(&root)
    }
    .map_err(|e| ServeError(e.to_string()))?;

    let daemon = Daemon::bind(repo, config.clone())
        .map_err(|e| ServeError(format!("binding {}: {e}", config.addr)))?;
    let addr = daemon.local_addr().map_err(|e| ServeError(e.to_string()))?;
    println!(
        "tt-serve: listening on http://{addr} (root {root}, {} workers)",
        config.workers
    );
    daemon.run();
    println!("tt-serve: shut down cleanly");
    Ok(())
}

/// Parses an integer flag value with a clear error.
fn parse_num<T: std::str::FromStr>(v: &str, name: &str) -> Result<T, ServeError> {
    v.parse()
        .map_err(|_| ServeError(format!("--{name}: expected an integer, got {v:?}")))
}
