//! The [`Pipeline::auto`](crate::Pipeline::auto) knob tuner.
//!
//! The pipeline's performance knobs — worker count and records-per-chunk
//! — are both **output-invariant**: they trade memory and wall clock,
//! never results. That makes tuning safe to automate, and this module is
//! the policy:
//!
//! * **workers** — always all cores (`tt_par::set_threads(0)`, applied by
//!   the pipeline before loading); with bit-identical outputs there is
//!   nothing to hold back for.
//! * **chunk size** — scales with the input, [`CHUNK_DIVISOR`] chunks per
//!   run clamped to `[`[`MIN_CHUNK`]`, `[`MAX_CHUNK`]`]`: small enough to
//!   bound streaming buffers, large enough that per-chunk overhead stays
//!   negligible.
//!
//! `tt-cli --parallel auto` outputs are byte-compared against
//! `--parallel 1` in CI.

/// Target chunks per run for the tuned chunk size.
pub const CHUNK_DIVISOR: usize = 64;

/// Tuned chunk-size clamp bounds.
pub const MIN_CHUNK: usize = 4096;
/// See [`MIN_CHUNK`].
pub const MAX_CHUNK: usize = 65536;

/// The input-scaled chunk size: `len / CHUNK_DIVISOR`, clamped.
#[must_use]
pub fn tuned_chunk(len: usize) -> usize {
    (len / CHUNK_DIVISOR).clamp(MIN_CHUNK, MAX_CHUNK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;
    use tt_core::TraceTracker;
    use tt_device::presets;
    use tt_par::telemetry::FlightRecorder;
    use tt_sim::StreamReplay;
    use tt_trace::Trace;
    use tt_workloads::{catalog, generate_session};

    fn old_trace(n: usize, seed: u64) -> Trace {
        let entry = catalog::find("MSNFS").unwrap();
        let session = generate_session("MSNFS", &entry.profile, n, seed);
        let mut node = presets::enterprise_hdd_2007();
        session.materialize(&mut node, false).trace
    }

    #[test]
    fn tuned_chunk_scales_and_clamps() {
        assert_eq!(tuned_chunk(0), MIN_CHUNK);
        assert_eq!(tuned_chunk(100), MIN_CHUNK);
        assert_eq!(tuned_chunk(MIN_CHUNK * CHUNK_DIVISOR * 2), MIN_CHUNK * 2);
        assert_eq!(tuned_chunk(usize::MAX / 2), MAX_CHUNK);
    }

    #[test]
    fn auto_output_is_bit_identical_to_fixed_knobs() {
        let old = old_trace(1200, 21);
        let mut d1 = presets::intel_750_array();
        let mut r1 = presets::intel_750_array();
        let fixed = Pipeline::from_trace_ref(&old)
            .parallel(1)
            .reconstruct(&mut d1, TraceTracker::new())
            .replay(&mut r1, StreamReplay::ClosedLoop)
            .collect()
            .unwrap();
        let mut d2 = presets::intel_750_array();
        let mut r2 = presets::intel_750_array();
        let auto = Pipeline::from_trace_ref(&old)
            .auto()
            .reconstruct(&mut d2, TraceTracker::new())
            .replay(&mut r2, StreamReplay::ClosedLoop)
            .collect()
            .unwrap();
        tt_par::set_threads(0);
        assert_eq!(auto, fixed);
    }

    #[test]
    fn auto_respects_explicit_knobs() {
        // chunk_size() pins the chunk; auto() must leave it alone. The
        // recorder's knob stamp is the observable.
        let old = old_trace(1000, 22);
        let recorder = std::sync::Arc::new(FlightRecorder::new());
        let mut d = presets::intel_750_array();
        let mut r = presets::intel_750_array();
        Pipeline::from_trace_ref(&old)
            .auto()
            .chunk_size(77)
            .reconstruct(&mut d, TraceTracker::new())
            .replay(&mut r, StreamReplay::ClosedLoop)
            .flight_recorder(&recorder)
            .collect()
            .unwrap();
        tt_par::set_threads(0);
        let log = recorder.flight_log();
        assert_eq!(log.chunk_size, 77);
    }

    #[test]
    fn auto_tunes_untouched_knobs() {
        let old = old_trace(1000, 23);
        let recorder = std::sync::Arc::new(FlightRecorder::new());
        let mut d = presets::intel_750_array();
        let mut r = presets::intel_750_array();
        Pipeline::from_trace_ref(&old)
            .auto()
            .reconstruct(&mut d, TraceTracker::new())
            .replay(&mut r, StreamReplay::ClosedLoop)
            .flight_recorder(&recorder)
            .collect()
            .unwrap();
        tt_par::set_threads(0);
        let log = recorder.flight_log();
        assert_eq!(log.chunk_size, tuned_chunk(old.len()));
        assert_eq!(log.channel_capacity, 0);
    }
}
