//! Facade-level worker-invariance properties: `Pipeline` replay stages
//! and `reconstruct → replay` chains must be bit-identical to their
//! sequential references at every worker count — the worker knob trades
//! cores for wall-clock, never results.

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
        let mut dev = presets::intel_750_array();
        let reference = Pipeline::from_trace_ref(&trace)
            .parallel(1)
            .replay(&mut dev, mode)
            .collect()
            .unwrap();
        for workers in [0usize, 2, 4, 8] {
            let mut dev = presets::intel_750_array();
            let sharded = Pipeline::from_trace_ref(&trace)
                .parallel(workers)
                .replay(&mut dev, mode)
                .collect()
                .unwrap();
            assert_eq!(sharded, reference, "workers={workers} mode={mode:?}");
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

    let mut d1 = presets::intel_750_array();
    let mut r1 = presets::intel_750_array();
    let reference = Pipeline::from_trace_ref(&old)
        .parallel(1)
        .reconstruct(&mut d1, TraceTracker::new())
        .replay(&mut r1, StreamReplay::OpenLoop { time_scale: 1.0 })
        .collect()
        .unwrap();

    let mut d2 = presets::intel_750_array();
    let mut r2 = presets::intel_750_array();
    let parallel = Pipeline::from_trace_ref(&old)
        .parallel(4)
        .reconstruct(&mut d2, TraceTracker::new())
        .replay(&mut r2, StreamReplay::OpenLoop { time_scale: 1.0 })
        .collect()
        .unwrap();
    assert_eq!(parallel, reference);
    tt_par::set_threads(0);
}
