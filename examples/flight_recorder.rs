//! The pipeline flight recorder: where did the wall clock go?
//!
//! ```sh
//! cargo run --example flight_recorder
//! ```
//!
//! Runs the co-evaluation chain (`reconstruct → replay`) with a
//! [`FlightRecorder`] attached, prints the flight log — per stage, its
//! wall clock and the records it emitted — and names the stage that took
//! the largest share of the run: the one to speed up first. Telemetry only
//! ever observes, and the knobs only trade memory and wall clock: the same
//! chain re-run at the default chunk size collects a bit-identical trace,
//! demonstrated at the end.

use std::sync::Arc;

use tracetracker::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A decade-old trace to revive: the usual demo input.
    let entry = catalog::find("MSNFS").expect("MSNFS in catalog");
    let session = generate_session("MSNFS", &entry.profile, 20_000, 7);
    let mut old_node = presets::enterprise_hdd_2007();
    let old = session.materialize(&mut old_node, false).trace;
    println!("input: {} records (span {})", old.len(), old.span());

    // The chain with a recorder attached. The recorder is an Arc handle:
    // keep one side, hand the other to the pipeline.
    let recorder = Arc::new(FlightRecorder::new());
    let mut target = presets::intel_750_array();
    let mut replay_target = presets::intel_750_array();
    let baseline = Pipeline::from_trace_ref(&old)
        .chunk_size(2_048)
        .flight_recorder(&recorder)
        .reconstruct(&mut target, TraceTracker::new())
        .replay(&mut replay_target, StreamReplay::ClosedLoop)
        .collect()?;

    let log = recorder.flight_log();
    println!("\nflight log (fixed knobs):\n{}", log.render());

    // Stages run one after another, so their wall clocks split the run:
    // the largest share is the bottleneck.
    if let Some(slowest) = log.stages.iter().max_by_key(|s| s.wall) {
        println!(
            "-> {} takes {:.0}% of the run's wall clock",
            slowest.stage,
            100.0 * slowest.wall.as_secs_f64() / log.wall.as_secs_f64().max(1e-9)
        );
    }

    // Re-run at the default chunk size: every knob is output-invariant,
    // so the result is bit-identical to the run above.
    let rerun_recorder = Arc::new(FlightRecorder::new());
    let mut target2 = presets::intel_750_array();
    let mut replay_target2 = presets::intel_750_array();
    let rerun = Pipeline::from_trace_ref(&old)
        .flight_recorder(&rerun_recorder)
        .reconstruct(&mut target2, TraceTracker::new())
        .replay(&mut replay_target2, StreamReplay::ClosedLoop)
        .collect()?;

    let rerun_log = rerun_recorder.flight_log();
    println!(
        "\nflight log (chunk {}):\n{}",
        rerun_log.chunk_size,
        rerun_log.render()
    );

    assert_eq!(baseline, rerun, "knobs must never change the output");
    println!(
        "outputs at chunk 2048 and {}: bit-identical",
        rerun_log.chunk_size
    );

    // The machine-readable form the CLI's --timings flag prints.
    println!("\nas JSON: {}", rerun_log.to_json());
    Ok(())
}
