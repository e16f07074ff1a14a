//! The CLI subcommands — thin argument adapters over
//! [`tracetracker::Pipeline`]: every command builds a pipeline from its
//! input path and ends it in the terminal the command names (`collect`,
//! `infer`, `verify`, or a streamed `write_path`).

use std::sync::Arc;
use std::time::Instant;

use tracetracker::sim::StreamReplay;
use tracetracker::{FlightRecorder, Pipeline};
use tt_core::{
    infer_columns, Acceleration, Decomposition, Dynamic, FixedThreshold, InferenceConfig,
    Reconstructor, Revision, TraceTracker, VerifyConfig,
};
use tt_device::{FaultPlan, FaultyDevice};
use tt_trace::time::SimDuration;
use tt_trace::tolerant::ErrorPolicy;
use tt_trace::{GroupedTrace, TraceStats};
use tt_workloads::{catalog, faults, generate_session};

use crate::args::{ArgError, Args};
use crate::io::{detect_format, device_by_name, load_trace_chunked, AnalysisInput};

/// Reads the shared pipeline knob and returns the streaming chunk size.
///
/// `--chunk-size N` sets the records per streamed read chunk. Every
/// setting produces bit-identical results — the knob trades memory for
/// wall-clock only.
fn apply_pipeline_flags(args: &Args) -> Result<usize, ArgError> {
    let chunk = args.get_usize("chunk-size", tt_trace::source::DEFAULT_CHUNK)?;
    if chunk == 0 {
        return Err(ArgError("--chunk-size must be at least 1".into()));
    }
    Ok(chunk)
}

/// The fault-injection knob: `--fault-plan NAME [--fault-seed S]` names a
/// [`tt_workloads::faults`] scenario to wrap the replay device in — the
/// same name and seed always produce the same plan, so two runs with the
/// same flags are byte-identical.
fn fault_plan_flag(args: &Args) -> Result<Option<FaultPlan>, ArgError> {
    let Some(name) = args.get("fault-plan") else {
        if args.get("fault-seed").is_some() {
            return Err(ArgError("--fault-seed requires --fault-plan".into()));
        }
        return Ok(None);
    };
    let seed = args.get_u64("fault-seed", 0xFA17)?;
    faults::scenario(name, seed).map(Some).ok_or_else(|| {
        ArgError(format!(
            "unknown fault plan {name:?}; expected one of {}",
            faults::SCENARIO_NAMES.join(" | ")
        ))
    })
}

/// The error-budget knob: `--on-error abort|skip:N|quarantine` →
/// [`ErrorPolicy`] (default abort, today's behaviour).
fn error_policy_flag(args: &Args) -> Result<ErrorPolicy, ArgError> {
    match args.get("on-error") {
        None | Some("abort") => Ok(ErrorPolicy::Abort),
        Some("quarantine") => Ok(ErrorPolicy::quarantine()),
        Some(v) => match v.strip_prefix("skip:") {
            Some(n) => {
                let max = n.parse().map_err(|_| {
                    ArgError(format!("--on-error skip:N: expected an integer, got {n:?}"))
                })?;
                Ok(ErrorPolicy::skip(max))
            }
            None => Err(ArgError(format!(
                "unknown --on-error {v:?}; expected abort | skip:N | quarantine"
            ))),
        },
    }
}

/// Reports how many malformed input records the error budget absorbed —
/// only under a non-abort policy, where "0 skipped" is itself news.
fn report_quarantine(policy: &ErrorPolicy) {
    if let Some(log) = policy.log() {
        let n = log.len();
        let plural = if n == 1 { "" } else { "s" };
        println!("on-error: skipped {n} malformed input record{plural}");
    }
}

/// The `--timings` flight recorder, when asked for.
fn recorder_for(args: &Args) -> Option<Arc<FlightRecorder>> {
    args.switch("timings")
        .then(|| Arc::new(FlightRecorder::new()))
}

/// Prints the flight log to **stderr** (stdout carries command output and
/// `--json` bodies): one machine-readable `timings: {json}` line, then the
/// human per-stage table, every line under the same `timings: ` prefix so
/// scripts can grep either form out.
fn emit_flight_log(recorder: &Option<Arc<FlightRecorder>>) {
    if let Some(rec) = recorder {
        let log = rec.flight_log();
        eprintln!("timings: {}", log.to_json());
        for line in log.render().lines() {
            eprintln!("timings: {line}");
        }
    }
}

/// `tracetracker catalog` — list the workload catalog.
pub fn catalog_cmd(_args: &Args) -> Result<(), ArgError> {
    println!(
        "{:<14} {:<28} {:>5} {:>8} {:>10} {:>7}",
        "workload", "set", "year", "#traces", "avg KB", "read%"
    );
    for e in catalog::all() {
        println!(
            "{:<14} {:<28} {:>5} {:>8} {:>10.2} {:>6.0}%",
            e.name,
            e.set.label(),
            e.set.published_year(),
            e.trace_count,
            e.avg_size_kb,
            e.profile.read_ratio * 100.0
        );
    }
    Ok(())
}

/// `tracetracker devices` — list the preset device registry, one line
/// per canonical name: the valid values for every `--device` flag and
/// for tt-serve's `?device=` query parameter.
pub fn devices_cmd(_args: &Args) -> Result<(), ArgError> {
    println!("{:<8} description", "name");
    for (name, description) in tt_device::presets::entries() {
        println!("{name:<8} {description}");
    }
    Ok(())
}

/// `tracetracker generate --workload W [--requests N] [--seed S]
/// [--device hdd|wd-blue|ssd|array] [--timing] [--out FILE]`
pub fn generate(args: &Args) -> Result<(), ArgError> {
    let workload = args
        .get("workload")
        .ok_or_else(|| ArgError("--workload is required (see `catalog`)".into()))?;
    let entry = catalog::find(workload)
        .ok_or_else(|| ArgError(format!("unknown workload {workload:?} (see `catalog`)")))?;
    let requests = args.get_usize("requests", 5_000)?;
    let seed = args.get_u64("seed", 42)?;
    let mut device = device_by_name(args.get_or("device", "hdd"))?;

    let session = generate_session(workload, &entry.profile, requests, seed);
    let out = session.materialize(&mut device, args.switch("timing"));

    match args.get("out") {
        Some(path) => {
            let stats = TraceStats::compute(&out.trace);
            let written = Pipeline::from_trace(out.trace).write_path(path)?;
            eprintln!("wrote {} records ({stats}) to {path}", written.records);
        }
        None => {
            let mut stdout = std::io::stdout().lock();
            tt_trace::format::csv::write_csv(&out.trace, &mut stdout)
                .map_err(|e| ArgError(e.to_string()))?;
        }
    }
    Ok(())
}

/// `tracetracker stats TRACE [--groups] [--json] [--chunk-size N]
/// [--timings]`
pub fn stats(args: &Args) -> Result<(), ArgError> {
    let path = args
        .positional(0)
        .ok_or_else(|| ArgError("usage: stats TRACE [--groups]".into()))?;
    let chunk = apply_pipeline_flags(args)?;
    // stats drives the analysis input directly (no Pipeline), so the
    // flight log is recorded by hand: load, then the stats pass.
    let recorder = recorder_for(args);
    if let Some(rec) = &recorder {
        rec.begin();
        rec.set_knobs(chunk);
    }
    let started = Instant::now();
    let input = AnalysisInput::load(path, chunk)?;
    if let Some(rec) = &recorder {
        rec.record_stage(0, "load", started.elapsed(), input.len());
    }
    let cols = input.columns();
    let started = Instant::now();
    let s = TraceStats::compute_columns(cols);
    if let Some(rec) = &recorder {
        rec.record_stage(1, "stats", started.elapsed(), input.len());
        rec.finish();
    }
    emit_flight_log(&recorder);
    if args.switch("json") {
        // The exact body tt-serve's /stats endpoint answers with: same
        // serialiser, and println! supplies the trailing newline.
        let json = serde_json::to_string_pretty(&s)
            .map_err(|e| ArgError(format!("serialising stats: {e}")))?;
        println!("{json}");
        return Ok(());
    }
    println!(
        "trace        : {:?}: {} records over {} ({})",
        input.name(),
        input.len(),
        s.span,
        input.load_path_label()
    );
    println!(
        "requests     : {} ({} reads / {} writes)",
        s.requests, s.reads, s.writes
    );
    println!("read ratio   : {:.1}%", s.read_ratio * 100.0);
    println!("sequential   : {:.1}%", s.sequential_ratio * 100.0);
    println!(
        "avg size     : {:.2} KiB ({} distinct sizes)",
        s.avg_size_kb, s.distinct_sizes
    );
    println!("total data   : {:.3} GiB", s.total_gib());
    println!("span         : {}", s.span);
    println!(
        "Tintt        : mean {} / median {} / max {}",
        s.mean_inter_arrival, s.median_inter_arrival, s.max_inter_arrival
    );
    println!(
        "device timing: {}",
        if cols.all_timed() {
            "present (Tsdev-known)"
        } else {
            "absent"
        }
    );

    if args.switch("groups") {
        println!("\n{:<24} {:>10} {:>10}", "group", "members", "gaps");
        let grouped = GroupedTrace::build_columns(cols);
        for (key, group) in grouped.iter() {
            println!(
                "{:<24} {:>10} {:>10}",
                key.to_string(),
                group.len(),
                group.inter_arrivals.len()
            );
        }
    }
    Ok(())
}

/// `tracetracker infer TRACE [--json] [--chunk-size N]`
pub fn infer_cmd(args: &Args) -> Result<(), ArgError> {
    let path = args
        .positional(0)
        .ok_or_else(|| ArgError("usage: infer TRACE [--json]".into()))?;
    let chunk = apply_pipeline_flags(args)?;
    let input = AnalysisInput::load(path, chunk)?;
    let cols = input.columns();
    let result = infer_columns(cols, &InferenceConfig::default());

    if args.switch("json") {
        let json = serde_json::to_string_pretty(&result)
            .map_err(|e| ArgError(format!("serialising result: {e}")))?;
        println!("{json}");
        return Ok(());
    }

    let est = result.estimate;
    println!("inferred device model:");
    println!("  beta  (read)  : {:.1} ns/sector", est.beta_ns_per_sector);
    println!("  eta   (write) : {:.1} ns/sector", est.eta_ns_per_sector);
    println!("  Tcdel (read)  : {}", est.tcdel_read);
    println!("  Tcdel (write) : {}", est.tcdel_write);
    println!("  Tmovd         : {}", est.tmovd);
    println!("  read fallback : {:?}", result.read.fallback);
    println!("  write fallback: {:?}", result.write.fallback);

    let decomp = Decomposition::compute_columns(cols, &est);
    let floor = SimDuration::from_usecs(100);
    println!("\ndecomposition:");
    println!(
        "  idle gaps     : {} of {} (> {floor})",
        decomp.idle_count(floor),
        input.len().saturating_sub(1)
    );
    println!("  total idle    : {}", decomp.total_idle());
    println!("  mean idle     : {}", decomp.mean_idle(floor));
    println!(
        "  async requests: {}",
        decomp.is_async.iter().filter(|&&a| a).count()
    );
    Ok(())
}

/// The replay style shared by `replay` and `reconstruct --then-replay`:
/// `--mode open` (default; `--time-scale` scales the recorded gaps,
/// `0.01` = the paper's 100× acceleration) or `--mode closed`.
fn replay_mode(args: &Args) -> Result<StreamReplay, ArgError> {
    match args.get_or("mode", "open") {
        "open" => {
            let time_scale = args.get_f64("time-scale", 1.0)?;
            if !(time_scale.is_finite() && time_scale >= 0.0) {
                return Err(ArgError(
                    "--time-scale must be finite and non-negative".into(),
                ));
            }
            Ok(StreamReplay::OpenLoop { time_scale })
        }
        "closed" => Ok(StreamReplay::ClosedLoop),
        other => Err(ArgError(format!(
            "unknown replay mode {other:?}; expected open | closed"
        ))),
    }
}

/// `tracetracker reconstruct TRACE --out FILE [--method M] [--device D]
/// [--factor N] [--threshold DUR] [--then-replay] [--mode open|closed]
/// [--time-scale F] [--chunk-size N] [--timings]`
///
/// The reconstruction **streams**: records are pushed into the output
/// format's [`RecordSink`](tt_trace::RecordSink) chunk by chunk as the
/// simulated target produces them, so peak memory holds one trace (the
/// old one), never two. `--then-replay` appends a replay stage on a
/// fresh instance of the target device — the paper's co-evaluation
/// `reconstruct → replay` chain: the reconstructed trace is collected,
/// then replayed straight into the output file.
pub fn reconstruct(args: &Args) -> Result<(), ArgError> {
    let path = args
        .positional(0)
        .ok_or_else(|| ArgError("usage: reconstruct TRACE --out FILE [--method M]".into()))?;
    let out_path = args
        .get("out")
        .ok_or_else(|| ArgError("--out FILE is required".into()))?;
    detect_format(out_path)?; // fail before any work, like write_path
    let chunk = apply_pipeline_flags(args)?;
    let recorder = recorder_for(args);
    let device_name = args.get_or("device", "array");
    let mut device = device_by_name(device_name)?;

    let method_name = args.get_or("method", "tracetracker");
    let method: Box<dyn Reconstructor> = match method_name {
        "tracetracker" => Box::new(TraceTracker::new()),
        "dynamic" => Box::new(Dynamic::new()),
        "revision" => Box::new(Revision::new()),
        "acceleration" => Box::new(Acceleration::new(args.get_f64("factor", 100.0)?)),
        "fixed-th" => Box::new(FixedThreshold::new(
            args.get_duration("threshold", SimDuration::from_msecs(10))?,
        )),
        other => {
            return Err(ArgError(format!(
                "unknown method {other:?}; expected tracetracker | dynamic | revision | \
                 acceleration | fixed-th"
            )))
        }
    };
    let method_label = method.name().to_string();

    let old = load_trace_chunked(path, chunk)?;
    let old_span = old.span();
    // Declared before `pipeline`, which may borrow it (drop order).
    let mut replay_device = None;
    let mut pipeline = Pipeline::from_trace(old).chunk_size(chunk);
    if let Some(rec) = &recorder {
        pipeline = pipeline.flight_recorder(rec);
    }
    let mut pipeline = pipeline.reconstruct(device.as_mut(), method);
    if args.switch("then-replay") {
        let mode = replay_mode(args)?;
        let dev = replay_device.insert(device_by_name(device_name)?);
        pipeline = pipeline.replay(dev.as_mut(), mode);
    }
    let out = pipeline.write_path(out_path)?;
    emit_flight_log(&recorder);
    eprintln!(
        "{method_label}: {path} -> {out_path} ({} records, span {old_span} -> {})",
        out.records,
        out.span()
    );
    Ok(())
}

/// `tracetracker replay TRACE [TRACE...] [--device D] [--mode open|closed]
/// [--time-scale F] [--out FILE] [--chunk-size N] [--timings]`
///
/// One input replays single-stream ([`Pipeline::replay`]); **several
/// inputs replay concurrently** against the one shared device — the
/// multi-tenant consolidation scenario
/// ([`MultiPipeline::replay_concurrent`](tracetracker::MultiPipeline::replay_concurrent)):
/// streams interleave through the device's resources, each input must be
/// arrival-ordered (an unordered one is an error naming it, in either
/// mode), and the command reports per-stream service latency next to the
/// merged totals. `--out` writes the serviced trace (the merged one for
/// several inputs; format by extension, checked before any work). Replay
/// runs the sequential replay core: one stream replays in order on one
/// device.
pub fn replay_cmd(args: &Args) -> Result<(), ArgError> {
    if args.positional_count() == 0 {
        return Err(ArgError(
            "usage: replay TRACE [TRACE...] [--device D] [--mode open|closed] [--out FILE] \
             [--fault-plan NAME] [--fault-seed S] [--on-error abort|skip:N|quarantine]"
                .into(),
        ));
    }
    if let Some(out_path) = args.get("out") {
        detect_format(out_path)?; // fail before any work, like write_path
    }
    let chunk = apply_pipeline_flags(args)?;
    let recorder = recorder_for(args);
    let mode = replay_mode(args)?;
    let mut device = device_by_name(args.get_or("device", "array"))?;
    if let Some(plan) = fault_plan_flag(args)? {
        eprintln!(
            "fault plan: {} (seed {})",
            args.get_or("fault-plan", "?"),
            plan.seed()
        );
        device = Box::new(FaultyDevice::new(device, plan));
    }
    let policy = error_policy_flag(args)?;

    if args.positional_count() == 1 {
        let Some(path) = args.positional(0) else {
            return Err(ArgError("replay: expected a trace to replay".into()));
        };
        let mut pipeline = Pipeline::from_path(path)
            .on_error(policy.clone())
            .chunk_size(chunk);
        if let Some(rec) = &recorder {
            pipeline = pipeline.flight_recorder(rec);
        }
        let trace = pipeline.replay(device.as_mut(), mode).collect()?;
        emit_flight_log(&recorder);
        report_quarantine(&policy);
        println!(
            "replayed {:?}: {} records, span {}",
            trace.meta().name,
            trace.len(),
            trace.span()
        );
        if let Some(out_path) = args.get("out") {
            let stats = Pipeline::from_trace(trace)
                .chunk_size(chunk)
                .write_path(out_path)?;
            eprintln!("wrote {} records to {out_path}", stats.records);
        }
        return Ok(());
    }

    if !policy.is_abort() {
        return Err(ArgError(
            "--on-error is only supported for single-input replay".into(),
        ));
    }
    let paths: Vec<&str> = (0..args.positional_count())
        .filter_map(|i| args.positional(i))
        .collect();
    let mut pipeline = Pipeline::from_paths(&paths).chunk_size(chunk);
    if let Some(rec) = &recorder {
        pipeline = pipeline.flight_recorder(rec);
    }
    let names = pipeline.stream_names();
    let out = pipeline.replay_concurrent(device.as_mut(), mode)?;
    emit_flight_log(&recorder);

    // Per-stream interference report: each tenant's serviced requests and
    // mean service latency (Tslat) on the shared device. One pass over
    // the merged outcomes accumulates every stream's sum and count.
    println!(
        "{:<16} {:>10} {:>16} {:>14}",
        "stream", "requests", "span", "mean Tslat"
    );
    let mut slat_sums = vec![0.0f64; names.len()];
    let mut slat_counts = vec![0usize; names.len()];
    for (&stream, outcome) in out.stream_of.iter().zip(&out.outcome.outcomes) {
        slat_sums[stream as usize] += outcome.slat().as_usecs_f64();
        slat_counts[stream as usize] += 1;
    }
    let per_stream = out.split_traces(&names);
    for (si, (name, trace)) in names.iter().zip(&per_stream).enumerate() {
        let mean_slat = slat_sums[si] / slat_counts[si].max(1) as f64;
        println!(
            "{name:<16} {:>10} {:>16} {:>12.1}us",
            trace.len(),
            trace.span().to_string(),
            mean_slat
        );
    }
    println!(
        "merged: {} records from {} streams, makespan {}",
        out.outcome.trace.len(),
        names.len(),
        out.outcome.makespan
    );

    if let Some(out_path) = args.get("out") {
        let stats = Pipeline::from_trace(out.outcome.trace)
            .chunk_size(chunk)
            .write_path(out_path)?;
        eprintln!("wrote {} merged records to {out_path}", stats.records);
    }
    Ok(())
}

/// `tracetracker verify TRACE [--period DUR] [--fraction F] [--seed S]
/// [--chunk-size N]`
pub fn verify(args: &Args) -> Result<(), ArgError> {
    let path = args
        .positional(0)
        .ok_or_else(|| ArgError("usage: verify TRACE [--period 10ms] [--fraction 0.1]".into()))?;
    let chunk = apply_pipeline_flags(args)?;
    let period = args.get_duration("period", SimDuration::from_msecs(10))?;
    let fraction = args.get_f64("fraction", 0.1)?;
    if !(0.0..=1.0).contains(&fraction) {
        return Err(ArgError("--fraction must be in [0,1]".into()));
    }
    let config = VerifyConfig {
        fraction,
        seed: args.get_u64("seed", 0x1d1e)?,
        ..VerifyConfig::default()
    };
    let v = Pipeline::from_path(path)
        .chunk_size(chunk)
        .verify(period, &config)?;
    println!(
        "injected      : {} idle periods of {period} ({:.0}% of gaps)",
        v.injected,
        fraction * 100.0
    );
    println!("Detection(TP) : {:.1}%", v.detection_tp() * 100.0);
    println!("Detection(FP) : {:.1}%", v.detection_fp() * 100.0);
    println!("Len(TP)       : {:.1}%", v.len_tp * 100.0);
    println!("mean Len(FP)  : {:.1} us", v.mean_len_fp_us());
    println!(
        "counts        : TP={} FP={} FN={} TN={}",
        v.tp, v.fp, v.fn_, v.tn
    );
    Ok(())
}

/// `tracetracker convert IN [IN...] OUT` — format conversion by
/// extension, as a pass-through pipeline: the input is collected once
/// (traces are arrival-sorted) and streamed out through the target
/// format's [`RecordSink`](tt_trace::RecordSink) without ever building
/// row caches or a second trace. When both extensions name the **same**
/// format the conversion is a no-op and the file is copied byte-for-byte
/// instead of being re-parsed and re-serialised.
///
/// With **several inputs**, the streams are fan-in merged in arrival
/// order (stable: duplicate arrivals keep input-order rank —
/// [`tt_trace::MultiSource`]) and the merged trace is written to the last
/// path.
pub fn convert(args: &Args) -> Result<(), ArgError> {
    if args.positional_count() > 2 {
        let chunk = apply_pipeline_flags(args)?;
        // The merge path spans two pipelines (fan-in merge, then the
        // write), so the flight log is recorded by hand across both.
        let recorder = recorder_for(args);
        if let Some(rec) = &recorder {
            rec.begin();
            rec.set_knobs(chunk);
        }
        let Some(output) = args.positional(args.positional_count() - 1) else {
            return Err(ArgError("convert: expected an output destination".into()));
        };
        detect_format(output)?; // fail before any parsing, like write_path
        let inputs: Vec<&str> = (0..args.positional_count() - 1)
            .filter_map(|i| args.positional(i))
            .collect();
        let started = Instant::now();
        let merged = Pipeline::from_paths(&inputs)
            .chunk_size(chunk)
            .collect_merged()?;
        let records = merged.len();
        if let Some(rec) = &recorder {
            rec.record_stage(0, "merge", started.elapsed(), records);
        }
        let started = Instant::now();
        Pipeline::from_trace(merged)
            .chunk_size(chunk)
            .write_path(output)?;
        if let Some(rec) = &recorder {
            rec.record_stage(1, "write", started.elapsed(), records);
            rec.finish();
        }
        emit_flight_log(&recorder);
        eprintln!(
            "merged {records} records from {} traces -> {output}",
            inputs.len()
        );
        return Ok(());
    }
    let (input, output) = match (args.positional(0), args.positional(1)) {
        (Some(i), Some(o)) => (i, o),
        _ => {
            return Err(ArgError(
                "usage: convert IN [IN...] OUT (format by extension)".into(),
            ))
        }
    };
    let chunk = apply_pipeline_flags(args)?;
    let recorder = recorder_for(args);
    let in_format = detect_format(input)?;
    if in_format == detect_format(output)? {
        let label = in_format.source_label();
        let canon = |p: &str| std::fs::canonicalize(p).ok();
        if canon(input).is_some_and(|i| Some(i) == canon(output)) {
            eprintln!("convert: {input} and {output} are the same {label} file; nothing to do");
            return Ok(());
        }
        // Stream into a temp file, then rename over the output: truncating
        // the output in place (`fs::copy` does) destroys the data when the
        // two paths are hard links to one inode, and buffering the whole
        // file in memory would break the bounded-memory contract for the
        // multi-GB traces this command exists for.
        let tmp = format!("{output}.tt-convert-tmp");
        if let Some(rec) = &recorder {
            rec.begin();
            rec.set_knobs(chunk);
        }
        let started = Instant::now();
        let copied = (|| -> std::io::Result<u64> {
            let mut src = std::fs::File::open(input)?;
            let mut dst = std::fs::File::create(&tmp)?;
            let n = std::io::copy(&mut src, &mut dst)?;
            std::fs::rename(&tmp, output)?;
            Ok(n)
        })();
        let bytes = copied.map_err(|e| {
            std::fs::remove_file(&tmp).ok();
            ArgError(format!("copying {input} -> {output}: {e}"))
        })?;
        if let Some(rec) = &recorder {
            // A byte copy never parses records; the count is honestly 0.
            rec.record_stage(0, "copy", started.elapsed(), 0);
            rec.finish();
        }
        emit_flight_log(&recorder);
        eprintln!(
            "convert: both paths are {label}; copied {bytes} bytes verbatim without re-parsing"
        );
        return Ok(());
    }
    let mut pipeline = Pipeline::from_path(input).chunk_size(chunk);
    if let Some(rec) = &recorder {
        pipeline = pipeline.flight_recorder(rec);
    }
    let out = pipeline.write_path(output)?;
    emit_flight_log(&recorder);
    eprintln!("converted {} records: {input} -> {output}", out.records);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every value flag the commands read, so each test can spell any of
    /// them (`dispatch` narrows the list per command).
    const VALUES: &[&str] = &[
        "workload",
        "requests",
        "seed",
        "device",
        "out",
        "method",
        "factor",
        "threshold",
        "mode",
        "time-scale",
        "fault-plan",
        "fault-seed",
        "on-error",
        "period",
        "fraction",
        "chunk-size",
    ];

    fn args(v: &[&str], switches: &[&str]) -> Args {
        let raw: Vec<String> = v.iter().map(|s| (*s).to_string()).collect();
        Args::parse(&raw, switches, VALUES).unwrap()
    }

    fn temp(name: &str) -> String {
        std::env::temp_dir()
            .join(name)
            .to_str()
            .unwrap()
            .to_string()
    }

    #[test]
    fn generate_stats_infer_reconstruct_verify_round_trip() {
        let trace_path = temp("tt_cli_e2e.csv");
        let out_path = temp("tt_cli_e2e_out.csv");

        generate(&args(
            &[
                "--workload",
                "MSNFS",
                "--requests",
                "400",
                "--seed",
                "7",
                "--out",
                &trace_path,
            ],
            &["timing"],
        ))
        .unwrap();

        stats(&args(&[&trace_path, "--groups"], &["groups"])).unwrap();
        infer_cmd(&args(&[&trace_path], &["json"])).unwrap();
        reconstruct(&args(
            &[&trace_path, "--out", &out_path, "--method", "revision"],
            &[],
        ))
        .unwrap();
        verify(&args(&[&trace_path, "--period", "10ms"], &[])).unwrap();
        convert(&args(&[&trace_path, &temp("tt_cli_e2e.blk")], &[])).unwrap();

        std::fs::remove_file(&trace_path).ok();
        std::fs::remove_file(&out_path).ok();
        std::fs::remove_file(temp("tt_cli_e2e.blk")).ok();
    }

    #[test]
    fn convert_to_ttb_and_back_round_trips() {
        let csv_path = temp("tt_cli_ttb.csv");
        let ttb_path = temp("tt_cli_ttb.ttb");
        let back_path = temp("tt_cli_ttb_back.csv");
        generate(&args(
            &[
                "--workload",
                "MSNFS",
                "--requests",
                "300",
                "--seed",
                "9",
                "--out",
                &csv_path,
            ],
            &["timing"],
        ))
        .unwrap();

        convert(&args(&[&csv_path, &ttb_path], &[])).unwrap();
        convert(&args(&[&ttb_path, &back_path], &[])).unwrap();
        // The binary cache is lossless: every data line survives CSV ->
        // TTB -> CSV byte-for-byte. (The `# trace:` header carries the
        // path stem, which differs between the two files by design.)
        let data_lines = |p: &str| -> Vec<String> {
            String::from_utf8(std::fs::read(p).unwrap())
                .unwrap()
                .lines()
                .filter(|l| !l.starts_with('#'))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(data_lines(&csv_path), data_lines(&back_path));
        assert!(!data_lines(&csv_path).is_empty());

        for p in [&csv_path, &ttb_path, &back_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn convert_same_format_copies_without_reparsing() {
        let a = temp("tt_cli_copy_a.csv");
        // `.trace` is the CSV format under another extension: still a copy.
        let b = temp("tt_cli_copy_b.trace");
        generate(&args(
            &["--workload", "ikki", "--requests", "60", "--out", &a],
            &[],
        ))
        .unwrap();
        convert(&args(&[&a, &b], &[])).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());

        // Same input and output file: detected, left untouched.
        let before = std::fs::read(&a).unwrap();
        convert(&args(&[&a, &a], &[])).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), before);

        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn replay_single_and_concurrent() {
        let a = temp("tt_cli_replay_a.csv");
        let b = temp("tt_cli_replay_b.csv");
        for (path, seed) in [(&a, "3"), (&b, "4")] {
            generate(&args(
                &[
                    "--workload",
                    "MSNFS",
                    "--requests",
                    "150",
                    "--seed",
                    seed,
                    "--out",
                    path,
                ],
                &[],
            ))
            .unwrap();
        }

        // Single-stream replay, written out.
        let solo_out = temp("tt_cli_replay_solo.csv");
        replay_cmd(&args(&[&a, "--mode", "closed", "--out", &solo_out], &[])).unwrap();
        assert!(std::fs::metadata(&solo_out).unwrap().len() > 0);

        // Two streams: concurrent replay, merged output has both.
        let merged_out = temp("tt_cli_replay_merged.ttb");
        replay_cmd(&args(&[&a, &b, "--out", &merged_out], &[])).unwrap();
        let merged = Pipeline::from_path(&merged_out).collect().unwrap();
        assert_eq!(merged.len(), 300);

        let err = replay_cmd(&args(&[&a, "--mode", "sideways"], &[])).unwrap_err();
        assert!(err.to_string().contains("open | closed"), "{err}");

        for p in [&a, &b, &solo_out, &merged_out] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn reconstruct_then_replay_equals_the_two_commands() {
        let trace_path = temp("tt_cli_chain.csv");
        generate(&args(
            &[
                "--workload",
                "MSNFS",
                "--requests",
                "200",
                "--seed",
                "5",
                "--out",
                &trace_path,
            ],
            &[],
        ))
        .unwrap();

        let chain_out = temp("tt_cli_chain_out.csv");
        let mid = temp("tt_cli_chain_mid.ttb");
        let replayed = temp("tt_cli_chain_replayed.csv");
        // TTB keeps nanoseconds exactly, so the file between the two
        // commands loses nothing the chain's in-memory trace carries.
        reconstruct(&args(&[&trace_path, "--out", &mid], &[])).unwrap();
        // The `# trace:` header names each output after its input stem,
        // which differs between the two routes by design.
        let data_lines = |p: &str| -> Vec<String> {
            String::from_utf8(std::fs::read(p).unwrap())
                .unwrap()
                .lines()
                .filter(|l| !l.starts_with('#'))
                .map(str::to_string)
                .collect()
        };
        for mode in ["open", "closed"] {
            reconstruct(&args(
                &[
                    &trace_path,
                    "--out",
                    &chain_out,
                    "--then-replay",
                    "--mode",
                    mode,
                ],
                &["then-replay"],
            ))
            .unwrap();
            replay_cmd(&args(&[&mid, "--mode", mode, "--out", &replayed], &[])).unwrap();
            assert!(!data_lines(&chain_out).is_empty());
            assert_eq!(data_lines(&chain_out), data_lines(&replayed), "{mode}");
        }

        for p in [&trace_path, &chain_out, &mid, &replayed] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn convert_merges_multiple_inputs() {
        let a = temp("tt_cli_merge_a.csv");
        let b = temp("tt_cli_merge_b.csv");
        for (path, seed) in [(&a, "11"), (&b, "12")] {
            generate(&args(
                &[
                    "--workload",
                    "ikki",
                    "--requests",
                    "60",
                    "--seed",
                    seed,
                    "--out",
                    path,
                ],
                &[],
            ))
            .unwrap();
        }
        let merged_path = temp("tt_cli_merge_out.ttb");
        convert(&args(&[&a, &b, &merged_path], &[])).unwrap();
        let merged = Pipeline::from_path(&merged_path).collect().unwrap();
        assert_eq!(merged.len(), 120);
        assert!(merged
            .records()
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
        for p in [&a, &b, &merged_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn a_bad_out_extension_fails_before_the_input_is_read() {
        let missing = temp("tt_cli_missing.csv");
        let other = temp("tt_cli_other.csv");
        let runs = [
            replay_cmd(&args(&[&missing, "--out", "x.bogus"], &[])),
            replay_cmd(&args(&[&missing, &other, "--out", "x.bogus"], &[])),
            reconstruct(&args(&[&missing, "--out", "x.bogus"], &[])),
        ];
        for err in runs {
            let msg = err.unwrap_err().to_string();
            assert!(msg.contains("bogus"), "{msg}");
        }
    }

    #[test]
    fn generate_requires_known_workload() {
        let err = generate(&args(&["--workload", "nope"], &[])).unwrap_err();
        assert!(err.to_string().contains("unknown workload"));
        let err = generate(&args(&[], &[])).unwrap_err();
        assert!(err.to_string().contains("--workload"));
    }

    #[test]
    fn reconstruct_rejects_unknown_method() {
        let trace_path = temp("tt_cli_method.csv");
        generate(&args(
            &[
                "--workload",
                "ikki",
                "--requests",
                "50",
                "--out",
                &trace_path,
            ],
            &[],
        ))
        .unwrap();
        let err = reconstruct(&args(
            &[&trace_path, "--out", "/tmp/x.csv", "--method", "warp"],
            &[],
        ))
        .unwrap_err();
        assert!(err.to_string().contains("unknown method"));
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn verify_validates_fraction() {
        let trace_path = temp("tt_cli_frac.csv");
        generate(&args(
            &[
                "--workload",
                "ikki",
                "--requests",
                "50",
                "--out",
                &trace_path,
            ],
            &[],
        ))
        .unwrap();
        let err = verify(&args(&[&trace_path, "--fraction", "1.5"], &[])).unwrap_err();
        assert!(err.to_string().contains("fraction"));
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn catalog_lists_without_error() {
        catalog_cmd(&args(&[], &[])).unwrap();
    }
}
