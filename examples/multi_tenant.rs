//! Multi-tenant consolidation study: several catalog workloads sharing one
//! flash array, end to end through the **multi-stream Pipeline API**.
//!
//! ```sh
//! cargo run --example multi_tenant
//! ```
//!
//! The consolidation question that motivates trace reconstruction: can
//! these three old servers share one flash box? Each tenant's decade-old
//! trace is revived for the array with the paper's full co-evaluation
//! method (`Pipeline::reconstruct`, TraceTracker), replayed **solo** on
//! its own array for a baseline (`Pipeline::replay`), then all three are
//! replayed **concurrently** on one shared array
//! (`Pipeline::from_trace_refs(..).replay_concurrent(..)`) — the
//! interference shows up as the change in mean service latency (Tslat),
//! measured per tenant off the merged result, which keeps each record's
//! tenant.

use tracetracker::prelude::*;

/// A tenant's decade-old workload: a generated session materialised on a
/// 2007 enterprise disk.
fn old_trace(workload: &str, requests: usize, seed: u64) -> Trace {
    let entry = catalog::find(workload).expect("workload in catalog");
    let session = generate_session(workload, &entry.profile, requests, seed);
    let mut old_node = presets::enterprise_hdd_2007();
    session.materialize(&mut old_node, false).trace
}

/// Mean service latency (arrival → completion) of a replayed trace, from
/// the device timing its records carry.
fn mean_slat_us(trace: &Trace) -> f64 {
    let total: f64 = trace
        .iter()
        .filter_map(|r| r.timing.map(|t| (t.complete - r.arrival).as_usecs_f64()))
        .sum();
    total / trace.len().max(1) as f64
}

fn main() {
    let tenants = ["MSNFS", "webusers", "homes"];

    // Revive each tenant's old trace for the flash array: the paper's
    // reconstruct step, one single-stream pipeline per tenant.
    let revived: Vec<Trace> = tenants
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let old = old_trace(w, 2_000, 0x77 + i as u64);
            let mut array = presets::intel_750_array();
            Pipeline::from_trace(old)
                .reconstruct(&mut array, TraceTracker::new())
                .collect()
                .expect("in-memory reconstruction cannot fail")
        })
        .collect();

    // Solo baselines: each tenant alone on its own array, open-loop at
    // the reconstructed arrival times — one single-stream pipeline per
    // tenant.
    println!(
        "{:<10} {:>14} {:>16}",
        "tenant", "solo span", "solo mean Tslat"
    );
    let mut solo_spans = Vec::new();
    let mut solo_slat_sum = 0.0;
    for (name, trace) in tenants.iter().zip(&revived) {
        let mut array = presets::intel_750_array();
        let solo = Pipeline::from_trace_ref(trace)
            .replay(&mut array, StreamReplay::OpenLoop { time_scale: 1.0 })
            .collect()
            .expect("in-memory replay cannot fail");
        let slat = mean_slat_us(&solo);
        println!(
            "{:<10} {:>14} {:>14.1}us",
            name,
            solo.span().to_string(),
            slat
        );
        solo_slat_sum += slat * solo.len() as f64;
        solo_spans.push(solo.span());
    }
    let total_requests: usize = revived.iter().map(Trace::len).sum();
    let solo_slat_mean = solo_slat_sum / total_requests as f64;

    // Consolidated: all three on one shared array, concurrently. The
    // outcome keeps the tenant of every serviced record, so per-tenant
    // latency comes straight off the merged result.
    let mut shared = presets::intel_750_array();
    let merged = Pipeline::from_trace_refs(&revived)
        .replay_concurrent(&mut shared, StreamReplay::OpenLoop { time_scale: 1.0 })
        .expect("in-memory replay cannot fail");
    let per_tenant =
        merged.split_traces(&tenants.iter().map(|t| (*t).to_string()).collect::<Vec<_>>());

    println!("\nconsolidated on one array:");
    println!("  merged requests : {}", merged.outcome.trace.len());
    println!("  makespan        : {}", merged.outcome.makespan);
    // Span vs span — the same measure on both sides (makespan would add
    // the final request's service time to only one of them).
    println!(
        "  span            : {} vs max solo span {} (idle-dominated: the \
         slowest tenant sets it)",
        merged.outcome.trace.span(),
        solo_spans
            .iter()
            .copied()
            .fold(SimDuration::ZERO, SimDuration::max)
    );
    let consolidated_slat = mean_slat_us(&merged.outcome.trace);
    println!(
        "  mean Tslat      : {consolidated_slat:.1}us ({:+.2}% vs solo average {:.1}us)",
        (consolidated_slat / solo_slat_mean - 1.0) * 100.0,
        solo_slat_mean
    );
    println!(
        "\n  {:<10} {:>10} {:>16}",
        "tenant", "requests", "mean Tslat"
    );
    for (name, trace) in tenants.iter().zip(&per_tenant) {
        println!(
            "  {:<10} {:>10} {:>14.1}us",
            name,
            trace.len(),
            mean_slat_us(trace)
        );
    }
    println!(
        "\nReading: flash-array headroom absorbs three 2007-era servers with\n\
         negligible interference — the consolidation argument the paper's\n\
         reconstruction enables."
    );
}
