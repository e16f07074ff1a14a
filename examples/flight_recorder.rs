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
//! ever observes: the same chain re-run with [`Pipeline::auto`] (all
//! cores, tuned chunk size) collects a bit-identical trace, demonstrated
//! at the end.

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
        .parallel(1)
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

    // Let the pipeline tune its own knobs: auto() uses all cores and
    // scales the chunk size with the input — and because every knob is
    // output-invariant, the result is bit-identical to the fixed-knob run
    // above.
    let tuned_recorder = Arc::new(FlightRecorder::new());
    let mut target2 = presets::intel_750_array();
    let mut replay_target2 = presets::intel_750_array();
    let tuned = Pipeline::from_trace_ref(&old)
        .auto()
        .flight_recorder(&tuned_recorder)
        .reconstruct(&mut target2, TraceTracker::new())
        .replay(&mut replay_target2, StreamReplay::ClosedLoop)
        .collect()?;

    let tuned_log = tuned_recorder.flight_log();
    println!("\nflight log (auto-tuned):\n{}", tuned_log.render());
    println!("\ntuner picked chunk {}", tuned_log.chunk_size);

    assert_eq!(baseline, tuned, "knobs must never change the output");
    println!("fixed-knob and auto-tuned outputs: bit-identical");

    // The machine-readable form the CLI's --timings flag prints.
    println!("\nas JSON: {}", tuned_log.to_json());
    Ok(())
}
