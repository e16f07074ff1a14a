//! Facade-level worker-count invariance: `Pipeline` replay stages and
//! `reconstruct → replay` chains are bit-identical whatever process-wide
//! worker count `tt_par::set_threads` holds. The benchmark harnesses still
//! report and toggle that count, and no stage reads it, so it never
//! changes a result.

use tracetracker::prelude::*;

fn revived(workload: &str, n: usize, seed: u64) -> Trace {
    let entry = catalog::find(workload).expect("workload in catalog");
    let session = generate_session(workload, &entry.profile, n, seed);
    let mut old_node = presets::enterprise_hdd_2007();
    let old = session.materialize(&mut old_node, false).trace;
    let mut array = presets::intel_750_array();
    Pipeline::from_trace(old)
        .reconstruct(&mut array, TraceTracker::new())
        .collect()
        .expect("in-memory reconstruction cannot fail")
}

#[test]
fn pipeline_replay_stage_is_identical_at_every_worker_count() {
    let trace = revived("MSNFS", 800, 41);
    for mode in [
        StreamReplay::OpenLoop { time_scale: 1.0 },
        StreamReplay::ClosedLoop,
    ] {
        tt_par::set_threads(1);
        let mut dev = presets::intel_750_array();
        let reference = Pipeline::from_trace_ref(&trace)
            .replay(&mut dev, mode)
            .collect()
            .unwrap();
        for workers in [0usize, 2, 4, 8] {
            tt_par::set_threads(workers);
            let mut dev = presets::intel_750_array();
            let replayed = Pipeline::from_trace_ref(&trace)
                .replay(&mut dev, mode)
                .collect()
                .unwrap();
            assert_eq!(replayed, reference, "workers={workers} mode={mode:?}");
        }
    }
    tt_par::set_threads(0);
}

#[test]
fn chain_is_identical_at_every_worker_count() {
    let entry = catalog::find("webusers").unwrap();
    let session = generate_session("webusers", &entry.profile, 600, 42);
    let mut node = presets::enterprise_hdd_2007();
    let old = session.materialize(&mut node, false).trace;

    tt_par::set_threads(1);
    let mut d1 = presets::intel_750_array();
    let mut r1 = presets::intel_750_array();
    let reference = Pipeline::from_trace_ref(&old)
        .reconstruct(&mut d1, TraceTracker::new())
        .replay(&mut r1, StreamReplay::OpenLoop { time_scale: 1.0 })
        .collect()
        .unwrap();

    tt_par::set_threads(4);
    let mut d2 = presets::intel_750_array();
    let mut r2 = presets::intel_750_array();
    let chained = Pipeline::from_trace_ref(&old)
        .reconstruct(&mut d2, TraceTracker::new())
        .replay(&mut r2, StreamReplay::OpenLoop { time_scale: 1.0 })
        .collect()
        .unwrap();
    assert_eq!(chained, reference);
    tt_par::set_threads(0);
}
