#![forbid(unsafe_code)]
//! # ttbench — seeded workload benchmark for TraceTracker
//!
//! One run measures one workload for a fixed number of seconds and prints
//! its metrics, ending with one JSON result line. Every input is
//! generated from `--seed`: the corpus (the 31 Table-I catalog workloads
//! collected on the 2007 HDD model), the fault plans, and the HTTP request
//! mix. The program under test sees only the generated files.
//!
//! | workload | operation | layers it stresses |
//! |---|---|---|
//! | `analyze` | CSV file → stats → inference → decomposition | CSV decode, grouping, ECDF/steepest-rise inference |
//! | `revive` | TTB file → reconstruct → closed-loop replay → CSV file | inference, device model, engine, fused executor, CSV encode |
//! | `replay-open` | mmap of one multi-block TTB → open-loop replay on a faulty array | copying TTB open, sharded replay, fault wrapper |
//! | `serve` | one HTTP request to the in-process daemon | HTTP, mmap registry, JSON, per-request analysis, ingest |
//!
//! See `README.md` next to this crate for the metric → layer → workload
//! map and how to read a traced run.

mod corpus;
mod layers;
mod passes;
pub mod report;
mod serve;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use corpus::CorpusTrace;
use layers::Tracer;
use passes::{Analyze, Measured, ReplayOpen, Revive};
use report::{Metric, Summary};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["analyze", "revive", "replay-open", "serve"];

/// Set-up is repeated this many times per run, half before and half
/// after the measurement; `setup_s` is the median.
pub const SETUP_REPS: usize = 6;

/// Requests per corpus trace at the benchmark's scale.
pub const DEFAULT_RECORDS: usize = 20_000;

/// The catalog workload `replay-open` replays, alone.
pub const LARGE_WORKLOAD: &str = "MSNFS";

/// Requests in the `replay-open` trace at the benchmark's scale: above
/// the TTB writer's block size, so the file holds two blocks and a mapped
/// open takes the copying fallback that the single-block corpus traces
/// of the other workloads never reach.
pub const DEFAULT_LARGE_RECORDS: usize = 1_200_000;
const _: () = assert!(DEFAULT_LARGE_RECORDS > tt_trace::format::ttb::WRITE_BLOCK);

/// The seed the golden digests in `golden.json` were recorded at.
pub const GOLDEN_SEED: u64 = 1;

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: f64,
    /// `true` for the traced run that reports per-layer metrics.
    pub traced: bool,
    /// Requests per corpus trace.
    pub records: usize,
    /// Requests in the single `replay-open` trace.
    pub large_records: usize,
    /// Directory for generated files (created; the run's own
    /// subdirectory is removed at the end).
    pub work_dir: PathBuf,
    /// The golden-digest file.
    pub golden: PathBuf,
    /// Rewrite this workload's golden digest instead of checking it.
    pub bless: bool,
    /// The benchmark executable, run with `--prepare` for set-up.
    pub exe: PathBuf,
}

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measurement.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines: checks, failures, and metric lines.
    pub lines: Vec<String>,
}

/// What set-up hands to the measurement.
enum Prepared {
    /// Input files, one per corpus trace, in corpus order.
    Files(Vec<PathBuf>),
    /// The bound daemon over its repository.
    Daemon(serve::Daemon),
}

/// The workload's corpus: one large trace for `replay-open`, the 31
/// Table-I traces for the others.
fn corpus_for(cfg: &Config) -> Vec<CorpusTrace> {
    if cfg.workload == "replay-open" {
        corpus::single(cfg.seed, LARGE_WORKLOAD, cfg.large_records)
            .into_iter()
            .collect()
    } else {
        corpus::generate(cfg.seed, cfg.records)
    }
}

/// One memory figure of this process from `/proc/self/status`, MiB.
fn status_mib(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`], MiB (`VmHWM`).
pub(crate) fn peak_rss_mib() -> Result<f64, String> {
    status_mib("VmHWM")
}

/// Resets `VmHWM` to the current resident set size, so the peak read
/// later covers only what happens after this call, and returns that
/// size: the baseline set-up leaves resident, MiB.
fn reset_peak_rss() -> Result<f64, String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS via /proc/self/clear_refs: {e}"))?;
    status_mib("VmRSS")
}

fn check_workload(cfg: &Config) -> Result<(), String> {
    if WORKLOADS.contains(&cfg.workload.as_str()) {
        Ok(())
    } else {
        Err(format!(
            "unknown workload {:?}; expected one of {}",
            cfg.workload,
            WORKLOADS.join(", ")
        ))
    }
}

/// Runs one benchmark: set-up ([`SETUP_REPS`] times), warm-up,
/// measurement, output checks.
///
/// # Errors
///
/// An unknown workload or a set-up failure; output-check failures are
/// reported through [`Outcome::correct`] instead.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    check_workload(cfg)?;
    let run_dir = cfg
        .work_dir
        .join(format!("{}-{}", cfg.workload, std::process::id()));
    let result = run_in(cfg, &run_dir);
    std::fs::remove_dir_all(&run_dir).ok();
    result
}

/// The half of set-up that needs the corpus: generates it and writes the
/// workload's inputs under `dir` (for `serve`, the repository and the
/// `PUT` bodies). [`run`] calls it in a child process (`cfg.exe
/// --prepare <dir>`), so the corpus never occupies the measuring
/// process. Returns the trace names, in corpus order.
///
/// # Errors
///
/// An unknown workload or the first write or ingest failure.
pub fn prepare_inputs(cfg: &Config, dir: &Path) -> Result<Vec<String>, String> {
    check_workload(cfg)?;
    let corpus = corpus_for(cfg);
    match cfg.workload.as_str() {
        "analyze" => passes::write_corpus(&corpus, dir, "csv")?,
        "revive" | "replay-open" => passes::write_corpus(&corpus, dir, "ttb")?,
        _ => serve::ingest(&corpus, dir)?,
    }
    Ok(corpus.into_iter().map(|c| c.name).collect())
}

/// Runs [`prepare_inputs`] in a child process and waits for it.
fn prepare_in_child(cfg: &Config, dir: &Path) -> Result<Vec<String>, String> {
    let out = Command::new(&cfg.exe)
        .args(["--workload", &cfg.workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--records", &cfg.records.to_string()])
        .args(["--large-records", &cfg.large_records.to_string()])
        .arg("--prepare")
        .arg(dir)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("{}: {e}", cfg.exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "set-up process {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect())
}

/// One timed set-up into `run_dir/setup-<rep>`: the inputs are written
/// by a child process, then opened here.
fn set_up(
    cfg: &Config,
    run_dir: &Path,
    rep: usize,
    setup_s: &mut Vec<f64>,
) -> Result<(Vec<String>, Prepared, PathBuf), String> {
    let dir = run_dir.join(format!("setup-{rep}"));
    let t = Instant::now();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let names = prepare_in_child(cfg, &dir)?;
    let files = |ext| Prepared::Files(passes::input_paths(&dir, &names, ext));
    let prepared = match cfg.workload.as_str() {
        "analyze" => files("csv"),
        "revive" | "replay-open" => files("ttb"),
        _ => Prepared::Daemon(serve::open(&dir, &names)?),
    };
    setup_s.push(t.elapsed().as_secs_f64());
    Ok((names, prepared, dir))
}

fn run_in(cfg: &Config, run_dir: &Path) -> Result<Outcome, String> {
    // Set-up runs before and after the measurement, so its median spans
    // the run instead of one moment of a machine whose speed drifts; the
    // last set-up before the measurement is the one measured.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for rep in 0..SETUP_REPS / 2 {
        if let Some((_, _, old_dir)) = prepared.take() {
            std::fs::remove_dir_all(old_dir).ok();
        }
        prepared = Some(set_up(cfg, run_dir, rep, &mut setup_s)?);
    }
    let Some((labels, prepared, dir)) = prepared else {
        return Err("no set-up ran".to_string());
    };

    // The corpus was generated in the set-up child processes, never in
    // this one, so after this reset `peak_rss_mib` counts what the program
    // under test holds. The checks regenerate the corpus here once the
    // peak has been read.
    let rss_baseline = reset_peak_rss()?;
    let corpus = || corpus_for(cfg);
    let mut tracer = cfg.traced.then(|| Tracer::new(Instant::now()));
    let m: Measured = match (&prepared, cfg.workload.as_str()) {
        (Prepared::Files(files), "analyze") => passes::measure(
            &mut Analyze::new(files.clone()),
            &labels,
            cfg.seconds,
            tracer.as_mut(),
            corpus,
        ),
        (Prepared::Files(files), "revive") => passes::measure(
            &mut Revive::new(&labels, files.clone(), &dir),
            &labels,
            cfg.seconds,
            tracer.as_mut(),
            corpus,
        ),
        (Prepared::Files(files), _) => passes::measure(
            &mut ReplayOpen::new(files.clone(), cfg.seed),
            &labels,
            cfg.seconds,
            tracer.as_mut(),
            corpus,
        ),
        (Prepared::Daemon(daemon), _) => serve::measure(
            daemon,
            &labels,
            cfg.seed,
            cfg.seconds,
            tracer.as_mut(),
            corpus,
        ),
    };
    drop(prepared);
    for rep in SETUP_REPS / 2..SETUP_REPS {
        let (_, _, dir) = set_up(cfg, run_dir, rep, &mut setup_s)?;
        std::fs::remove_dir_all(dir).ok();
    }

    let w = cfg.workload.as_str();
    let mut lines: Vec<String> = m.info.iter().map(|l| format!("check {w} {l}")).collect();
    lines.push(format!("check {w} rss_baseline_mib {rss_baseline:.1}"));
    let mut correct = m.mismatches.is_empty();
    for e in m.mismatches.iter().take(20) {
        lines.push(format!("FAILED {w}: {e}"));
    }
    if m.mismatches.len() > 20 {
        lines.push(format!("FAILED {w}: ... {} more", m.mismatches.len() - 20));
    }
    if correct {
        match check_golden(cfg, m.golden) {
            Ok(line) => lines.push(line),
            Err(e) => {
                correct = false;
                lines.push(format!("FAILED {w}: {e}"));
            }
        }
    }

    let metrics = match tracer {
        Some(t) => {
            let spans = cfg.work_dir.join(format!("spans-{w}.tsv"));
            std::fs::write(&spans, t.rows()).map_err(|e| format!("{}: {e}", spans.display()))?;
            lines.push(format!("spans {w} {}", spans.display()));
            t.metrics(layers::overhead(&m.traced_times, &m.untraced_times))
        }
        None => end_to_end(&m, &setup_s),
    };
    lines.extend(metrics.iter().map(|metric| metric.line(w)));
    Ok(Outcome {
        correct,
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        lines,
    })
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
fn end_to_end(m: &Measured, setup_s: &[f64]) -> Vec<Metric> {
    let mut latencies = m.latencies_ms.clone();
    latencies.sort_by(f64::total_cmp);
    let spread = Summary::of(&latencies);
    vec![
        Metric::median("ops_per_s", &m.pass_rates, "1/s"),
        Metric {
            spread: Some(spread),
            ..Metric::value("op_p50_ms", report::quantile(&latencies, 0.50), "ms")
        },
        Metric {
            spread: Some(spread),
            ..Metric::value("op_p95_ms", report::quantile(&latencies, 0.95), "ms")
        },
        Metric::median("setup_s", setup_s, "s"),
        Metric::value("peak_rss_mib", m.peak_rss_mib, "MiB"),
    ]
}

/// Checks (or with `--bless`, records) the digest over every reference
/// output, when the run is at the golden seed and scale.
fn check_golden(cfg: &Config, golden: u64) -> Result<String, String> {
    let w = cfg.workload.as_str();
    if cfg.seed != GOLDEN_SEED
        || cfg.records != DEFAULT_RECORDS
        || cfg.large_records != DEFAULT_LARGE_RECORDS
    {
        return Ok(format!(
            "check {w} golden skipped (recorded at seed {GOLDEN_SEED}, {DEFAULT_RECORDS} records \
             per trace, {DEFAULT_LARGE_RECORDS} for replay-open)"
        ));
    }
    let text = std::fs::read_to_string(&cfg.golden).unwrap_or_else(|_| "{}".to_string());
    let mut doc = serde::json::parse(&text).map_err(|e| format!("golden file: {e}"))?;
    let hex = format!("{golden:016x}");
    if cfg.bless {
        let serde::json::Value::Object(entries) = &mut doc else {
            return Err("golden file is not a JSON object".to_string());
        };
        entries.retain(|(k, _)| k != w);
        entries.push((w.to_string(), serde::json::Value::Str(hex.clone())));
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        std::fs::write(&cfg.golden, format!("{}\n", doc.render_pretty()))
            .map_err(|e| format!("{}: {e}", cfg.golden.display()))?;
        return Ok(format!("check {w} golden blessed {hex}"));
    }
    match doc.get(w).and_then(serde::json::Value::as_str) {
        Some(want) if want == hex => Ok(format!("check {w} golden ok {hex}")),
        Some(want) => Err(format!(
            "golden digest {hex} differs from the recorded {want}"
        )),
        None => Err(format!(
            "no golden digest recorded for {w}; run with --bless"
        )),
    }
}
