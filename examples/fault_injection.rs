//! Robustness end to end: faulty devices, retrying replay, error budgets.
//!
//! ```sh
//! cargo run --example fault_injection
//! ```
//!
//! Three layers of the fault story in one program:
//!
//! 1. **Faulty devices** — wrap any [`BlockDevice`] in a [`FaultyDevice`]
//!    driven by a seeded [`FaultPlan`]; same plan + seed means
//!    byte-identical replays, so a degraded run is as reproducible as a
//!    clean one.
//! 2. **Retrying replay** — transient device errors are retried with
//!    exponential backoff in *simulated* time; requests that exhaust the
//!    budget become recorded failures, not crashes.
//! 3. **Error-budget decode** — a dirty text trace parsed under
//!    [`ErrorPolicy::skip`] yields exactly the clean subset, with every
//!    malformed line quarantined and reported.

use tracetracker::prelude::*;
use tracetracker::sim::{replay, ReplayConfig, RetryPolicy};
use tracetracker::trace::format::csv::{write_csv, CsvSource};
use tracetracker::workloads::faults;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A decade-old trace to revive: the usual demo input.
    let entry = catalog::find("MSNFS").expect("MSNFS in catalog");
    let session = generate_session("MSNFS", &entry.profile, 20_000, 7);
    let mut old_node = presets::enterprise_hdd_2007();
    let old = session.materialize(&mut old_node, false).trace;
    println!("input: {} records (span {})", old.len(), old.span());

    // -- 1. Deterministic fault injection -------------------------------
    // A named scenario from the workload library: 2% of requests eat a
    // +5ms latency spike. The plan is a pure function of (seed, request
    // ordinal), so the same seed replays identically on every run.
    let plan = faults::scenario("latency-spike", 42).expect("known scenario");
    let degraded = || -> Result<Trace, Box<dyn std::error::Error>> {
        let mut device = FaultyDevice::new(presets::intel_750_array(), plan.clone());
        Ok(Pipeline::from_trace_ref(&old)
            .replay(&mut device, StreamReplay::OpenLoop { time_scale: 1.0 })
            .collect()?)
    };
    let first = degraded()?;
    let second = degraded()?;
    assert_eq!(first, second, "one plan and seed must replay identically");
    println!(
        "latency-spike replay: {} records, identical across two runs",
        first.len()
    );

    // Degraded-mode inference: the spiked trace still yields finite
    // estimates — faults stretch the answer, they don't destroy it.
    let est = tracetracker::core::infer(&first, &InferenceConfig::default()).estimate;
    println!(
        "degraded inference: beta {:.1} ns/sector, Tmovd {:?}",
        est.beta_ns_per_sector, est.tmovd
    );

    // -- 2. Transient errors and retry ----------------------------------
    // 1% of requests fail twice before succeeding; the replay core
    // retries with exponential backoff (default: 3 attempts from 100µs)
    // and logs every fault event it absorbed.
    let error_plan = faults::scenario("errors", 99).expect("known scenario");
    let mut flaky = FaultyDevice::new(presets::intel_750_array(), error_plan);
    let outcome = replay(
        &mut flaky,
        &Schedule::open_loop(&old, 1.0),
        "retry-demo",
        ReplayConfig {
            retry: RetryPolicy::default(),
            ..ReplayConfig::default()
        },
    );
    let gave_up = outcome.faults.iter().filter(|f| f.gave_up).count();
    println!(
        "transient errors: {} requests needed retries, {} exhausted the \
         budget and were dropped ({} records collected)",
        outcome.faults.len(),
        gave_up,
        outcome.trace.len()
    );

    // -- 3. Error-budget decode -----------------------------------------
    // Corrupt a CSV rendering of the trace, then parse it under a skip
    // budget: the clean records survive, the garbage is quarantined.
    let mut clean_bytes = Vec::new();
    write_csv(&old, &mut clean_bytes)?;
    let mut dirty = String::new();
    let mut injected = 0usize;
    for (i, line) in String::from_utf8(clean_bytes.clone())?.lines().enumerate() {
        dirty.push_str(line);
        dirty.push('\n');
        if i % 1000 == 999 {
            dirty.push_str("totally,not,a,record\n");
            injected += 1;
        }
    }
    let policy = ErrorPolicy::skip(injected);
    let tolerant = Pipeline::from_source(CsvSource::new(dirty.as_bytes()), "dirty")
        .on_error(policy.clone())
        .collect()?;
    let clean = Pipeline::from_source(CsvSource::new(&clean_bytes[..]), "clean").collect()?;
    assert_eq!(
        tolerant.records(),
        clean.records(),
        "skip must yield exactly the clean subset"
    );
    println!(
        "error budget: {} malformed lines quarantined, {} records decoded \
         (identical to the clean reference)",
        policy.quarantined(),
        tolerant.len()
    );
    if let Some(first) = policy
        .log()
        .and_then(|log| log.entries().into_iter().next())
    {
        println!(
            "first quarantined: line {}: {}",
            first.line.unwrap_or(0),
            first.message
        );
    }
    Ok(())
}
