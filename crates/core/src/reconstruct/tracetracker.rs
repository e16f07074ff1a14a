//! The paper's contribution: Dynamic and full TraceTracker reconstruction.

use tt_device::{BlockDevice, IoRequest};
use tt_sim::{replay_into, try_replay_records, IssueMode, ReplayConfig, ScheduledOp};
use tt_trace::sink::{ChunkBuffer, RecordSink, SinkStats};
use tt_trace::time::{SimDuration, SimInstant};
use tt_trace::{Columns, TraceError};

use crate::inference::{infer, Decomposition, InferenceConfig};
use crate::reconstruct::methods::Reconstructor;

/// The hardware-emulation schedule (paper §IV): sleep the inferred idle
/// time before each request, all-sync, as the paper's emulator does.
/// `tidle[i]` is the idle *after* request `i`, so the emulator sleeps it
/// *before* request `i + 1`; streamed straight off the old trace's columns
/// without materialising a `Schedule`.
fn idle_schedule<'a>(
    old: Columns<'a>,
    tidle: &'a [SimDuration],
) -> impl Iterator<Item = ScheduledOp> + 'a {
    old.iter().enumerate().map(move |(i, rec)| ScheduledOp {
        pre_delay: if i == 0 {
            SimDuration::ZERO
        } else {
            tidle[i - 1]
        },
        request: IoRequest::from(&rec),
        mode: IssueMode::Sync,
    })
}

/// Shared software-evaluation stage: recover the old device's timing model
/// and split every gap (`Decomposition`), resetting the target first.
fn software_evaluation(
    old: Columns<'_>,
    target: &mut dyn BlockDevice,
    config: &InferenceConfig,
) -> Decomposition {
    target.reset();
    let estimate = infer(old, config).estimate;
    Decomposition::compute(old, &estimate)
}

/// The *Dynamic* method: per-request inferred idle times, hardware
/// emulation, **no** post-processing. The paper's ablation of the async
/// restoration stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Dynamic {
    config: InferenceConfig,
}

impl Dynamic {
    /// Creates the method with the default inference configuration.
    #[must_use]
    pub fn new() -> Self {
        Dynamic::default()
    }

    /// Creates the method with a custom inference configuration.
    #[must_use]
    pub fn with_config(config: InferenceConfig) -> Self {
        Dynamic { config }
    }
}

impl Reconstructor for Dynamic {
    fn name(&self) -> &str {
        "Dynamic"
    }

    fn source_label(&self) -> String {
        "dynamic (inference, no post-processing)".to_string()
    }

    fn reconstruct_into(
        &self,
        old: Columns<'_>,
        target: &mut dyn BlockDevice,
        sink: &mut dyn RecordSink,
        chunk: usize,
    ) -> Result<SinkStats, TraceError> {
        let decomp = software_evaluation(old, target, &self.config);
        // No post-processing: the emulated records go to the sink as-is.
        let out = replay_into(
            target,
            idle_schedule(old, &decomp.tidle),
            ReplayConfig::default(),
            sink,
            chunk,
        )?;
        Ok(out.stats)
    }
}

/// The full *TraceTracker* co-evaluation: software inference of
/// `Tidle`, hardware emulation on the target device, and post-processing
/// that restores asynchronous inter-arrival timing.
///
/// # Examples
///
/// ```
/// use tt_core::{Reconstructor, TraceTracker};
/// use tt_device::presets;
/// use tt_workloads::{catalog, generate_session};
///
/// let entry = catalog::find("MSNFS").unwrap();
/// let session = generate_session("MSNFS", &entry.profile, 300, 7);
/// let mut old_node = presets::enterprise_hdd_2007();
/// let old = session.materialize(&mut old_node, false).trace;
///
/// let mut new_node = presets::intel_750_array();
/// let new = TraceTracker::new().reconstruct(&old, &mut new_node);
/// assert_eq!(new.len(), old.len());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceTracker {
    config: InferenceConfig,
}

impl TraceTracker {
    /// Creates the method with the default inference configuration.
    #[must_use]
    pub fn new() -> Self {
        TraceTracker::default()
    }

    /// Creates the method with a custom inference configuration.
    #[must_use]
    pub fn with_config(config: InferenceConfig) -> Self {
        TraceTracker { config }
    }

    /// The inference configuration in use.
    #[must_use]
    pub fn config(&self) -> &InferenceConfig {
        &self.config
    }
}

impl Reconstructor for TraceTracker {
    fn name(&self) -> &str {
        "TraceTracker"
    }

    fn source_label(&self) -> String {
        "tracetracker (inference + emulation + post-processing)".to_string()
    }

    /// Emulation *and* post-processing in one streamed pass. The paper's
    /// §IV post-processing restores asynchronous timing: for every request
    /// the *old* trace issued asynchronously (its gap was shorter than its
    /// own device time), the emulated all-sync gap wrongly contains the new
    /// device's service time — subtract it and pull all later records
    /// forward. The restoration is a running prefix transform (each output
    /// arrival depends only on the previous emulated gap and outcome), so
    /// records flow to the sink as the simulated device produces them;
    /// reconstruction never materialises the emulated trace.
    fn reconstruct_into(
        &self,
        old: Columns<'_>,
        target: &mut dyn BlockDevice,
        sink: &mut dyn RecordSink,
        chunk: usize,
    ) -> Result<SinkStats, TraceError> {
        let decomp = software_evaluation(old, target, &self.config);
        let is_async = &decomp.is_async;
        let mut out = ChunkBuffer::new(sink, chunk);
        let mut index = 0usize;
        let mut prev_emulated: Option<SimInstant> = None;
        let mut prev_slat = SimDuration::ZERO;
        let mut arrival = SimInstant::ZERO;
        try_replay_records(
            target,
            idle_schedule(old, &decomp.tidle),
            ReplayConfig::default(),
            |mut rec, outcome| {
                let emulated = rec.arrival;
                match prev_emulated {
                    None => arrival = emulated,
                    Some(prev) => {
                        let mut gap = emulated - prev;
                        if is_async[index - 1] {
                            gap = gap.saturating_sub(prev_slat);
                        }
                        arrival += gap;
                    }
                }
                // Keep the device-relative offsets of the D/C timestamps.
                if let Some(t) = &mut rec.timing {
                    let d_off = t.issue - emulated;
                    let c_off = t.complete - emulated;
                    t.issue = arrival + d_off;
                    t.complete = arrival + c_off;
                }
                rec.arrival = arrival;
                prev_emulated = Some(emulated);
                prev_slat = outcome.slat();
                index += 1;
                out.push(rec)
            },
        )?;
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_device::presets;
    use tt_trace::Trace;
    use tt_workloads::{catalog, generate_session};

    fn old_trace(n: usize, seed: u64) -> Trace {
        let entry = catalog::find("MSNFS").unwrap();
        let session = generate_session("MSNFS", &entry.profile, n, seed);
        let mut old_node = presets::enterprise_hdd_2007();
        session.materialize(&mut old_node, false).trace
    }

    #[test]
    fn tracetracker_preserves_stream_and_count() {
        let old = old_trace(400, 1);
        let mut dev = presets::intel_750_array();
        let new = TraceTracker::new().reconstruct(&old, &mut dev);
        assert_eq!(new.len(), old.len());
        for (a, b) in old.iter().zip(new.iter()) {
            assert_eq!((a.lba, a.sectors, a.op), (b.lba, b.sectors, b.op));
        }
    }

    #[test]
    fn tracetracker_keeps_long_idle_that_revision_drops() {
        use crate::reconstruct::methods::{Reconstructor as _, Revision};
        let old = old_trace(500, 2);
        let mut dev = presets::intel_750_array();
        let tt = TraceTracker::new().reconstruct(&old, &mut dev);
        let rev = Revision::new().reconstruct(&old, &mut dev);
        // Revision's span is pure service time; TraceTracker preserves the
        // workload's idle periods, so it is much longer.
        assert!(
            tt.span().as_nanos() > 5 * rev.span().as_nanos(),
            "tt span {} vs revision span {}",
            tt.span(),
            rev.span()
        );
    }

    #[test]
    fn tracetracker_shrinks_service_time_on_faster_device() {
        let old = old_trace(500, 3);
        let mut dev = presets::intel_750_array();
        let new = TraceTracker::new().reconstruct(&old, &mut dev);
        // Idle is preserved, service shrinks: total span must not grow.
        assert!(new.span() <= old.span());
    }

    #[test]
    fn dynamic_differs_from_tracetracker_only_via_async_gaps() {
        let old = old_trace(500, 4);
        let mut dev = presets::intel_750_array();
        let dy = Dynamic::new().reconstruct(&old, &mut dev);
        let tt = TraceTracker::new().reconstruct(&old, &mut dev);
        assert_eq!(dy.len(), tt.len());
        // Post-processing can only shorten gaps.
        assert!(tt.span() <= dy.span());
    }

    /// Reference implementation of the §IV post-processing, materialised:
    /// the pre-streaming shape of the algorithm, kept as a regression
    /// anchor for the online prefix transform in `reconstruct_into`.
    fn restore_async_gaps_reference(
        emulated: &Trace,
        slats: &[SimDuration],
        is_async: &[bool],
    ) -> Trace {
        let records: Vec<_> = emulated.iter().collect();
        let mut gaps: Vec<SimDuration> = emulated.inter_arrivals().collect();
        for i in 0..gaps.len() {
            if is_async[i] {
                gaps[i] = gaps[i].saturating_sub(slats[i]);
            }
        }
        let mut out = Vec::with_capacity(records.len());
        let mut arrival = records
            .first()
            .map_or(tt_trace::time::SimInstant::ZERO, |r| r.arrival);
        for (i, rec) in records.iter().enumerate() {
            if i > 0 {
                arrival += gaps[i - 1];
            }
            let mut r = *rec;
            if let Some(t) = &mut r.timing {
                let d_off = t.issue - rec.arrival;
                let c_off = t.complete - rec.arrival;
                t.issue = arrival + d_off;
                t.complete = arrival + c_off;
            }
            r.arrival = arrival;
            out.push(r);
        }
        Trace::from_records(emulated.meta().clone(), out)
    }

    #[test]
    fn streaming_restore_matches_materialised_reference() {
        // Emulate by hand (replay with the inferred idle schedule), apply
        // the reference restoration, and check the streamed TraceTracker
        // path lands on the same trace bit for bit.
        use tt_sim::{replay, Schedule};

        let old = old_trace(400, 9);
        let config = InferenceConfig::default();

        let mut dev = presets::intel_750_array();
        let decomp = software_evaluation(old.view(), &mut dev, &config);
        let schedule: Schedule = idle_schedule(old.view(), &decomp.tidle).collect();
        let emulated = replay(
            &mut dev,
            &schedule,
            &old.meta().name,
            ReplayConfig::default(),
        );
        let slats: Vec<SimDuration> = emulated.outcomes.iter().map(|o| o.slat()).collect();
        let expect = restore_async_gaps_reference(&emulated.trace, &slats, &decomp.is_async);

        let mut dev2 = presets::intel_750_array();
        let got = TraceTracker::new().reconstruct(&old, &mut dev2);
        assert_eq!(got.columns(), expect.columns());
    }

    #[test]
    fn empty_trace_reconstructs_to_empty() {
        let mut dev = presets::intel_750_array();
        let out = TraceTracker::new().reconstruct(&Trace::new(), &mut dev);
        assert!(out.is_empty());
    }
}
