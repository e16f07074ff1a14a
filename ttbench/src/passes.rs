//! The three batch workloads — `analyze`, `revive` and `replay-open` —
//! and the pass loop that measures them.
//!
//! A pass runs one operation per corpus trace, in corpus order. Each
//! operation is timed alone; digesting its output happens outside the
//! timer. The first pass is an untimed warm-up whose digests every later
//! pass must reproduce, and an independent reference computation after
//! the measurement, over the corpus regenerated from the seed, must
//! reproduce them too.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tracetracker::prelude::*;
use tracetracker::FlightRecorder;
use tt_trace::format::{self, csv::CsvSink};
use tt_trace::source::DEFAULT_CHUNK;
use tt_trace::TraceStats;

use crate::corpus::{CorpusTrace, SplitMix};
use crate::layers::{Kind, OpTrace, TimedDevice, TimedSink, Tracer};
use crate::report::{Fnv, Summary};

/// Idle periods shorter than this are not counted as idle by the
/// fidelity figures (the decomposition floor the paper's §V uses).
const IDLE_FLOOR: SimDuration = SimDuration::from_usecs(100);

/// One pass-based workload.
pub trait PassWorkload {
    /// What one operation returns.
    type Out;

    /// Runs operation `i` (one per corpus trace); with `trace` set, also
    /// records its layer parts.
    ///
    /// # Errors
    ///
    /// A description of the failure; the operation counts as failed.
    fn run(&mut self, i: usize, trace: Option<&mut OpTrace>) -> Result<Self::Out, String>;

    /// Digest of operation `i`'s output.
    ///
    /// # Errors
    ///
    /// A description of why the output could not be read back.
    fn digest(&self, i: usize, out: Self::Out) -> Result<u64, String>;

    /// Computes every operation's expected digest along an independent
    /// path from the regenerated `corpus`. In a traced run, also adds the
    /// workload's probe counters to `probe`. Returns informational `check`
    /// lines beside the digests.
    ///
    /// # Errors
    ///
    /// A description of a failed reference computation.
    fn reference(
        &mut self,
        corpus: &[CorpusTrace],
        probe: Option<&mut Tracer>,
    ) -> Result<(Vec<u64>, Vec<String>), String>;
}

/// What a measured pass loop produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Latency of every measured, untraced operation, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Operations per second of each untraced pass.
    pub pass_rates: Vec<f64>,
    /// Time of each untraced pass (or request, for `serve`) of a traced
    /// run: the base of `trace_overhead_x`, any unit.
    pub untraced_times: Vec<f64>,
    /// Time of each traced pass or request, same unit.
    pub traced_times: Vec<f64>,
    /// Operations run, warm-up excluded.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// `VmHWM` right after the measurement, before the checks, MiB.
    pub peak_rss_mib: f64,
    /// Output-check failures, described.
    pub mismatches: Vec<String>,
    /// Informational check lines (fidelity figures).
    pub info: Vec<String>,
    /// Digest over every reference digest (the golden value).
    pub golden: u64,
}

/// Runs the warm-up pass, then passes until `seconds` have elapsed
/// (alternating untraced and traced passes when `tracer` is set), reads
/// the peak RSS, then checks every output against the reference computed
/// from `corpus()`.
pub fn measure<W: PassWorkload>(
    w: &mut W,
    labels: &[String],
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    corpus: impl FnOnce() -> Vec<CorpusTrace>,
) -> Measured {
    let mut m = Measured::default();
    let mut expected: Vec<Option<u64>> = Vec::with_capacity(labels.len());
    for (i, label) in labels.iter().enumerate() {
        match w.run(i, None).and_then(|out| w.digest(i, out)) {
            Ok(d) => expected.push(Some(d)),
            Err(e) => {
                m.mismatches.push(format!("warm-up {label}: {e}"));
                expected.push(None);
            }
        }
    }

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut pass = 0usize;
    loop {
        let traced = tracer.is_some() && pass % 2 == 1;
        let mut pass_time = Duration::ZERO;
        for i in 0..labels.len() {
            m.attempted += 1;
            let mut op = tracer
                .as_ref()
                .filter(|_| traced)
                .map(|t| OpTrace::begin(t.origin()));
            let t0 = Instant::now();
            let out = w.run(i, op.as_mut());
            let lat = t0.elapsed();
            pass_time += lat;
            if let (Some(t), Some(op)) = (tracer.as_deref_mut(), op) {
                t.finish(pass, i, &labels[i], lat, op);
            }
            match out.and_then(|out| w.digest(i, out)) {
                Ok(d) if Some(d) == expected[i] => {}
                Ok(_) => m.mismatches.push(format!(
                    "pass {pass} {}: output differs from warm-up",
                    labels[i]
                )),
                Err(e) => {
                    m.failed += 1;
                    m.mismatches.push(format!("pass {pass} {}: {e}", labels[i]));
                }
            }
            if !traced {
                m.latencies_ms.push(lat.as_secs_f64() * 1e3);
            }
        }
        let secs = pass_time.as_secs_f64();
        if traced {
            m.traced_times.push(secs);
        } else {
            m.untraced_times.push(secs);
            m.pass_rates.push(labels.len() as f64 / secs.max(1e-12));
        }
        pass += 1;
        // A traced run needs at least one pass of each kind.
        if Instant::now() >= deadline && (tracer.is_none() || pass >= 2) {
            break;
        }
    }
    note_peak_rss(&mut m);

    if let Some(t) = tracer.as_deref_mut() {
        let untraced = Summary::of(&m.untraced_times).median;
        t.note_untraced(untraced * 1e3 / labels.len() as f64);
    }
    match w.reference(&corpus(), tracer) {
        Ok((reference, _)) if reference.len() != labels.len() => m.mismatches.push(format!(
            "the reference covers {} traces, the measurement {}",
            reference.len(),
            labels.len()
        )),
        Ok((reference, info)) => {
            m.info = info;
            let mut golden = Fnv::default();
            for (i, r) in reference.iter().enumerate() {
                golden.u64(*r);
                if expected.get(i).copied().flatten() != Some(*r) {
                    m.mismatches
                        .push(format!("{}: output differs from the reference", labels[i]));
                }
            }
            m.golden = golden.finish();
        }
        Err(e) => m.mismatches.push(format!("reference: {e}")),
    }
    m
}

/// Records the peak RSS in `m`; a failed read is a failed check.
pub fn note_peak_rss(m: &mut Measured) {
    match crate::peak_rss_mib() {
        Ok(mib) => m.peak_rss_mib = mib,
        Err(e) => m.mismatches.push(e),
    }
}

/// Runs `f`, inside a span when the operation is traced.
fn timed<T>(op: &mut Option<&mut OpTrace>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match op {
        Some(op) => op.span(name, f),
        None => f(),
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Digest of every column of a trace.
#[must_use]
pub fn trace_digest(trace: &Trace) -> u64 {
    let cols = trace.view();
    let mut h = Fnv::default();
    for i in 0..cols.len() {
        h.u64(cols.arrivals()[i].as_nanos())
            .u64(cols.lbas()[i])
            .u64(u64::from(cols.sectors()[i]))
            .u64(cols.ops()[i] as u64);
        if let Some(t) = cols.timing(i) {
            h.u64(t.issue.as_nanos()).u64(t.complete.as_nanos());
        }
    }
    h.finish()
}

/// The input file of each trace in `names`: `dir/<name>.<ext>`.
#[must_use]
pub fn input_paths(dir: &Path, names: &[String], ext: &str) -> Vec<PathBuf> {
    names
        .iter()
        .map(|name| dir.join(format!("{name}.{ext}")))
        .collect()
}

/// Writes each corpus trace to its [`input_paths`] file.
///
/// # Errors
///
/// The first write failure.
pub fn write_corpus(corpus: &[CorpusTrace], dir: &Path, ext: &str) -> Result<(), String> {
    let names: Vec<String> = corpus.iter().map(|c| c.name.clone()).collect();
    for (c, path) in corpus.iter().zip(input_paths(dir, &names, ext)) {
        format::save_trace(&c.old, &path, DEFAULT_CHUNK).map_err(err)?;
    }
    Ok(())
}

// ---- analyze --------------------------------------------------------------

/// `analyze`: CSV text → stats → inference → per-request decomposition.
#[derive(Debug)]
pub struct Analyze {
    files: Vec<PathBuf>,
}

/// The three analysis results of one trace.
type Analysis = (TraceStats, InferenceResult, Decomposition);

impl Analyze {
    /// Prepares the workload over CSV files already written.
    #[must_use]
    pub fn new(files: Vec<PathBuf>) -> Self {
        Analyze { files }
    }

    fn analysis_digest(a: &Analysis) -> Result<u64, String> {
        let (stats, result, decomp) = a;
        let mut h = Fnv::default();
        h.bytes(serde_json::to_string(stats).map_err(err)?.as_bytes())
            .bytes(serde_json::to_string(result).map_err(err)?.as_bytes());
        for (lat, idle) in decomp.tslat.iter().zip(&decomp.tidle) {
            h.u64(lat.as_nanos()).u64(idle.as_nanos());
        }
        Ok(h.finish())
    }
}

impl PassWorkload for Analyze {
    type Out = Analysis;

    fn run(&mut self, i: usize, mut op: Option<&mut OpTrace>) -> Result<Analysis, String> {
        let path = &self.files[i];
        let trace = timed(&mut op, "trace.csv_decode", || {
            format::load_trace(path, DEFAULT_CHUNK)
        })
        .map_err(err)?;
        let stats = timed(&mut op, "trace.stats", || {
            Pipeline::from_trace_ref(&trace).stats()
        })
        .map_err(err)?;
        let result = timed(&mut op, "core.infer", || {
            Pipeline::from_trace_ref(&trace).infer(&InferenceConfig::default())
        })
        .map_err(err)?;
        let decomp = timed(&mut op, "core.decompose", || {
            Decomposition::compute(&trace, &result.estimate)
        });
        Ok((stats, result, decomp))
    }

    fn digest(&self, _i: usize, out: Analysis) -> Result<u64, String> {
        Analyze::analysis_digest(&out)
    }

    /// The same analyses over the in-memory traces (no CSV round trip) on
    /// one worker, so the check also covers parallel == sequential.
    fn reference(
        &mut self,
        corpus: &[CorpusTrace],
        probe: Option<&mut Tracer>,
    ) -> Result<(Vec<u64>, Vec<String>), String> {
        tt_par::set_threads(1);
        let mut infer_time = Duration::ZERO;
        let (mut true_count, mut true_total) = (0u64, SimDuration::ZERO);
        let (mut got_count, mut got_total) = (0u64, SimDuration::ZERO);
        let mut digests = Vec::with_capacity(corpus.len());
        for c in corpus {
            let stats = TraceStats::compute(&c.old);
            let t = Instant::now();
            let result = infer(&c.old, &InferenceConfig::default());
            infer_time += t.elapsed();
            let decomp = Decomposition::compute(&c.old, &result.estimate);
            got_count += decomp.idle_count(IDLE_FLOOR) as u64;
            got_total += decomp
                .tidle
                .iter()
                .copied()
                .filter(|&t| t > IDLE_FLOOR)
                .sum();
            for idle in c.session.ground_truth_idle() {
                if idle > IDLE_FLOOR {
                    true_count += 1;
                    true_total += idle;
                }
            }
            digests.push(Analyze::analysis_digest(&(stats, result, decomp))?);
        }
        tt_par::set_threads(0);
        if let Some(p) = probe {
            let seq_ms = infer_time.as_secs_f64() * 1e3 / corpus.len() as f64;
            let par_ms = p.layer_ms_per_op("core.infer");
            if par_ms > 0.0 {
                p.count("par.infer_speedup_x", seq_ms / par_ms);
            }
        }
        let acc = |got: f64, want: f64| 100.0 * (1.0 - (got - want).abs() / want.max(1e-12));
        let info = vec![
            format!(
                "idle_count_acc_pct {:.3}",
                acc(got_count as f64, true_count as f64)
            ),
            format!(
                "idle_total_acc_pct {:.3}",
                acc(got_total.as_secs_f64(), true_total.as_secs_f64())
            ),
        ];
        Ok((digests, info))
    }
}

// ---- revive ---------------------------------------------------------------

/// `revive`: the paper's co-evaluation chain, TTB file → TraceTracker
/// reconstruction on the flash array → closed-loop replay on a second
/// array → CSV file, on the fused executor.
#[derive(Debug)]
pub struct Revive {
    names: Vec<String>,
    inputs: Vec<PathBuf>,
    outputs: Vec<PathBuf>,
    references: Vec<PathBuf>,
}

impl Revive {
    /// Prepares the workload over the TTB files of the traces `names`,
    /// already written; outputs go to `dir`.
    #[must_use]
    pub fn new(names: &[String], inputs: Vec<PathBuf>, dir: &Path) -> Self {
        let out = |suffix: &str| {
            names
                .iter()
                .map(|name| dir.join(format!("{name}.{suffix}.csv")))
                .collect()
        };
        Revive {
            names: names.to_vec(),
            inputs,
            outputs: out("revived"),
            references: out("reference"),
        }
    }
}

impl PassWorkload for Revive {
    type Out = ();

    fn run(&mut self, i: usize, op: Option<&mut OpTrace>) -> Result<(), String> {
        let (input, output) = (&self.inputs[i], &self.outputs[i]);
        let Some(op) = op else {
            let mut target = presets::intel_750_array();
            let mut replayer = presets::intel_750_array();
            Pipeline::from_path(input)
                .reconstruct(&mut target, TraceTracker::new())
                .replay(&mut replayer, StreamReplay::ClosedLoop)
                .write_path(output)
                .map_err(err)?;
            return Ok(());
        };
        let recorder = Arc::new(FlightRecorder::new());
        let mut target = TimedDevice::new(presets::intel_750_array());
        let mut replayer = TimedDevice::new(presets::intel_750_array());
        let file = File::create(output).map_err(err)?;
        let mut sink = TimedSink::new(CsvSink::new(BufWriter::new(file), self.names[i].clone()));
        Pipeline::from_path(input)
            .flight_recorder(&recorder)
            .reconstruct(&mut target, TraceTracker::new())
            .replay(&mut replayer, StreamReplay::ClosedLoop)
            .write_to(&mut sink)
            .map_err(err)?;
        let log = recorder.flight_log();
        let stage = |label: &str| log.stages.iter().find(|s| s.stage == label);
        let (Some(load), Some(recon), Some(replay)) =
            (stage("load"), stage("reconstruct"), stage("replay"))
        else {
            return Err(format!("flight log lacks a stage: {}", log.render()));
        };
        op.duration("trace.ttb_read", load.wall, Kind::Derived);
        op.duration("trace.csv_encode", sink.busy(), Kind::Derived);
        op.duration("device.service", replayer.busy(), Kind::Derived);
        op.duration(
            "sim.replay",
            replay.busy.saturating_sub(replayer.busy() + sink.busy()),
            Kind::Derived,
        );
        op.duration("pipeline.wait", replay.recv_wait, Kind::Derived);
        op.duration("device.service", target.busy(), Kind::Parallel);
        op.duration(
            "core.reconstruct",
            recon.busy.saturating_sub(target.busy()),
            Kind::Parallel,
        );
        let depth = log
            .stages
            .iter()
            .map(|s| s.queue_high_water)
            .max()
            .unwrap_or(0);
        op.count("pipeline.peak_depth", depth as f64);
        Ok(())
    }

    fn digest(&self, i: usize, (): ()) -> Result<u64, String> {
        let bytes = std::fs::read(&self.outputs[i]).map_err(err)?;
        Ok(crate::report::digest(&bytes))
    }

    /// The same chain on the materialised stage-at-a-time executor:
    /// fused == materialised, byte for byte.
    fn reference(
        &mut self,
        corpus: &[CorpusTrace],
        probe: Option<&mut Tracer>,
    ) -> Result<(Vec<u64>, Vec<String>), String> {
        let mut digests = Vec::with_capacity(corpus.len());
        let mut materialized = Duration::ZERO;
        let (mut span_err, mut spans) = (0.0, 0usize);
        for ((c, input), output) in corpus.iter().zip(&self.inputs).zip(&self.references) {
            let mut target = presets::intel_750_array();
            let mut replayer = presets::intel_750_array();
            let t = Instant::now();
            Pipeline::from_path(input)
                .materialize()
                .reconstruct(&mut target, TraceTracker::new())
                .replay(&mut replayer, StreamReplay::ClosedLoop)
                .write_path(output)
                .map_err(err)?;
            materialized += t.elapsed();
            digests.push(crate::report::digest(&std::fs::read(output).map_err(err)?));

            // Fidelity: the reconstruction's span against the same session
            // materialised on the array itself.
            let mut node = presets::intel_750_array();
            let revived = Pipeline::from_trace_ref(&c.old)
                .reconstruct(&mut node, TraceTracker::new())
                .collect()
                .map_err(err)?;
            let mut node = presets::intel_750_array();
            let truth = c.session.materialize(&mut node, false).trace;
            let want = truth.span().as_secs_f64();
            if want > 0.0 {
                span_err += (revived.span().as_secs_f64() - want).abs() / want;
                spans += 1;
            }
        }
        if let Some(p) = probe {
            let fused_ms = p.untraced_ms_per_op();
            if fused_ms > 0.0 {
                let mat_ms = materialized.as_secs_f64() * 1e3 / corpus.len() as f64;
                p.count("pipeline.fused_speedup_x", mat_ms / fused_ms);
            }
        }
        let info = vec![format!(
            "revive_span_err_pct {:.3}",
            100.0 * span_err / spans.max(1) as f64
        )];
        Ok((digests, info))
    }
}

// ---- replay-open ----------------------------------------------------------

/// `replay-open`: open-loop replay at the recorded pace (time scale 1.0)
/// of each memory-mapped TTB file on a flash array behind a latency-spike
/// fault plan.
#[derive(Debug)]
pub struct ReplayOpen {
    inputs: Vec<PathBuf>,
    plans: Vec<FaultPlan>,
}

const OPEN_LOOP: StreamReplay = StreamReplay::OpenLoop { time_scale: 1.0 };

impl ReplayOpen {
    /// Prepares the workload over TTB files already written; each trace
    /// gets its own spike plan drawn from `seed`.
    #[must_use]
    pub fn new(inputs: Vec<PathBuf>, seed: u64) -> Self {
        let mut seeds = SplitMix::new(seed ^ 0x5EED_FA17);
        let plans = inputs
            .iter()
            .map(|_| tt_workloads::faults::latency_spikes(seeds.next_u64()))
            .collect();
        ReplayOpen { inputs, plans }
    }
}

impl PassWorkload for ReplayOpen {
    type Out = Trace;

    fn run(&mut self, i: usize, mut op: Option<&mut OpTrace>) -> Result<Trace, String> {
        let mapped = timed(&mut op, "trace.ttb_map", || {
            MmapTrace::open(&self.inputs[i])
        })
        .map_err(err)?;
        let mut device = FaultyDevice::new(presets::intel_750_array(), self.plans[i].clone());
        let Some(op) = op else {
            return Pipeline::from_mapped(&mapped)
                .replay(&mut device, OPEN_LOOP)
                .collect()
                .map_err(err);
        };
        let recorder = Arc::new(FlightRecorder::new());
        let out = Pipeline::from_mapped(&mapped)
            .flight_recorder(&recorder)
            .replay(&mut device, OPEN_LOOP)
            .collect()
            .map_err(err)?;
        let log = recorder.flight_log();
        for s in &log.stages {
            match s.stage.as_str() {
                "load" => op.duration("trace.ttb_read", s.wall, Kind::Derived),
                "replay" => op.duration("sim.replay", s.wall, Kind::Derived),
                _ => {}
            }
        }
        Ok(out)
    }

    fn digest(&self, _i: usize, out: Trace) -> Result<u64, String> {
        Ok(trace_digest(&out))
    }

    /// The same replays from the in-memory traces on one worker: mapped ==
    /// owned input, and sharded == sequential replay.
    fn reference(
        &mut self,
        corpus: &[CorpusTrace],
        probe: Option<&mut Tracer>,
    ) -> Result<(Vec<u64>, Vec<String>), String> {
        tt_par::set_threads(1);
        let mut sequential = Duration::ZERO;
        let mut digests = Vec::with_capacity(corpus.len());
        let (mut cuts, mut spikes) = (0usize, 0u64);
        for (c, plan) in corpus.iter().zip(&self.plans) {
            let mut device = FaultyDevice::new(presets::intel_750_array(), plan.clone());
            let t = Instant::now();
            let out = Pipeline::from_trace_ref(&c.old)
                .replay(&mut device, OPEN_LOOP)
                .collect()
                .map_err(err)?;
            sequential += t.elapsed();
            digests.push(trace_digest(&out));
            if probe.is_some() {
                let probe_device = FaultyDevice::new(presets::intel_750_array(), plan.clone());
                let schedule = Schedule::open_loop(&c.old, 1.0);
                cuts +=
                    tt_sim::quiescent_cuts(&probe_device, schedule.ops()).map_or(0, |c| c.len());
                spikes += (0..c.old.len() as u64)
                    .filter(|&o| plan.spike_extra(o) > SimDuration::ZERO)
                    .count() as u64;
            }
        }
        tt_par::set_threads(0);
        if let Some(p) = probe {
            let n = corpus.len() as f64;
            p.count("sim.cuts", cuts as f64 / n);
            p.count("device.fault_spikes", spikes as f64 / n);
            let sharded_ms = p.layer_ms_per_op("sim.replay");
            if sharded_ms > 0.0 {
                p.count(
                    "sim.shard_speedup_x",
                    sequential.as_secs_f64() * 1e3 / n / sharded_ms,
                );
            }
        }
        // Which side of the TTB open the inputs sit on: in place over a
        // single-block file, or the copying decode of a multi-block one.
        let zero_copy = self
            .inputs
            .iter()
            .map(|p| MmapTrace::open(p).map(|m| m.is_zero_copy()))
            .collect::<Result<Vec<bool>, _>>()
            .map_err(err)?;
        let records: usize = corpus.iter().map(|c| c.old.len()).sum();
        let info = vec![format!(
            "ttb_zero_copy {} of {} inputs, {records} records",
            zero_copy.iter().filter(|&&z| z).count(),
            zero_copy.len()
        )];
        Ok((digests, info))
    }
}
