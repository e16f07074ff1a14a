//! The [`Reconstructor`] trait and the prior-work baselines.

use tt_device::{BlockDevice, IoRequest};
use tt_sim::{replay_into, IssueMode, ReplayConfig, Schedule, ScheduledOp};
use tt_trace::sink::{ChunkBuffer, RecordSink, SinkStats, TraceSink};
use tt_trace::source::DEFAULT_CHUNK;
use tt_trace::time::SimDuration;
use tt_trace::{Columns, Trace, TraceError, TraceMeta};

/// A block-trace reconstruction method: old trace + target device → new
/// trace.
///
/// Implementations reset the target device before use, so repeated
/// reconstructions are independent.
///
/// The *streaming* entry point is [`Reconstructor::reconstruct_into`]:
/// it reads the old trace through a borrowed [`Columns`] view — an owned
/// trace's ([`Trace::view`]) or a memory-mapped `.ttb` file's
/// ([`MmapTrace::columns`](tt_trace::MmapTrace::columns)) alike — and
/// pushes reconstructed records into any
/// [`RecordSink`](tt_trace::RecordSink) chunk by chunk as the simulated
/// target produces them, so writing a reconstruction to disk holds **one**
/// trace in memory (the old one), never two. The whole-trace
/// [`Reconstructor::reconstruct`] is a provided drain of the same stream
/// into an in-memory [`TraceSink`](tt_trace::TraceSink) — the two paths are
/// record-for-record identical by construction (and property-tested).
///
/// `Send` is a supertrait, so a boxed method (and a pipeline holding one)
/// can move to another thread; methods are plain configuration structs
/// with no thread affinity.
pub trait Reconstructor: Send {
    /// Method name for reports (matches the paper's legend strings).
    fn name(&self) -> &str;

    /// Provenance string recorded in the reconstructed trace's
    /// [`TraceMeta::source`].
    fn source_label(&self) -> String;

    /// Streams the reconstruction of the arrival-ordered columns `old`
    /// into `sink`, `chunk` records at a time, in arrival order. Returns
    /// push statistics (record count, first/last arrival).
    ///
    /// `old` is only read, so a memory-mapped trace reconstructs in place:
    /// the `Pipeline` stages hand a mapping's columns straight in.
    ///
    /// # Errors
    ///
    /// Propagates sink [`TraceError`]s; the reconstruction itself cannot
    /// fail.
    fn reconstruct_into(
        &self,
        old: Columns<'_>,
        target: &mut dyn BlockDevice,
        sink: &mut dyn RecordSink,
        chunk: usize,
    ) -> Result<SinkStats, TraceError>;

    /// Produces the reconstructed trace (a drain of
    /// [`Reconstructor::reconstruct_into`] into memory sized for one
    /// record per old record).
    fn reconstruct(&self, old: &Trace, target: &mut dyn BlockDevice) -> Trace {
        let meta = TraceMeta::named(old.meta().name.clone()).with_source(self.source_label());
        let mut sink = TraceSink::with_capacity(meta, old.len());
        self.reconstruct_into(old.view(), target, &mut sink, DEFAULT_CHUNK)
            // lint:allow(panic) -- reconstruct_into only propagates sink errors and TraceSink's push_chunk/finish are Ok(()) by construction
            .expect("in-memory reconstruction cannot fail");
        sink.into_trace()
    }
}

impl<R: Reconstructor + ?Sized> Reconstructor for Box<R> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn source_label(&self) -> String {
        (**self).source_label()
    }

    fn reconstruct_into(
        &self,
        old: Columns<'_>,
        target: &mut dyn BlockDevice,
        sink: &mut dyn RecordSink,
        chunk: usize,
    ) -> Result<SinkStats, TraceError> {
        (**self).reconstruct_into(old, target, sink, chunk)
    }

    fn reconstruct(&self, old: &Trace, target: &mut dyn BlockDevice) -> Trace {
        (**self).reconstruct(old, target)
    }
}

/// The *Acceleration* baseline: every inter-arrival time divided by a
/// constant factor. No device interaction at all — which is exactly its
/// documented weakness (it destroys `Tcdel`, `Tidle`, and leaves `Tsdev`
/// meaningless for the new device).
///
/// The paper uses factor 100 (from the flash-lifetime study it cites).
///
/// # Examples
///
/// ```
/// use tt_core::{Acceleration, Reconstructor};
/// use tt_device::presets;
/// use tt_trace::{time::SimInstant, BlockRecord, OpType, Trace, TraceMeta};
///
/// let old = Trace::from_records(TraceMeta::named("w"), vec![
///     BlockRecord::new(SimInstant::ZERO, 0, 8, OpType::Read),
///     BlockRecord::new(SimInstant::from_msecs(100), 8, 8, OpType::Read),
/// ]);
/// let mut dev = presets::intel_750_array();
/// let new = Acceleration::x100().reconstruct(&old, &mut dev);
/// assert_eq!(new.inter_arrival(0).unwrap().as_msecs_f64(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Acceleration {
    factor: f64,
}

impl Acceleration {
    /// Creates an accelerator dividing gaps by `factor`.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and > 0.
    #[must_use]
    pub fn new(factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "acceleration factor must be positive, got {factor}"
        );
        Acceleration { factor }
    }

    /// The paper's configuration: 100× acceleration.
    #[must_use]
    pub fn x100() -> Self {
        Acceleration::new(100.0)
    }

    /// The configured factor.
    #[must_use]
    pub fn factor(&self) -> f64 {
        self.factor
    }
}

impl Reconstructor for Acceleration {
    fn name(&self) -> &str {
        "Acceleration"
    }

    fn source_label(&self) -> String {
        format!("acceleration x{}", self.factor)
    }

    fn reconstruct_into(
        &self,
        old: Columns<'_>,
        _target: &mut dyn BlockDevice,
        sink: &mut dyn RecordSink,
        chunk: usize,
    ) -> Result<SinkStats, TraceError> {
        let scale = 1.0 / self.factor;
        let arrivals = old.arrivals();
        let mut out = ChunkBuffer::new(sink, chunk);
        let mut arrival = tt_trace::time::SimInstant::ZERO;
        for (i, mut rec) in old.iter().enumerate() {
            if i > 0 {
                arrival += (arrivals[i] - arrivals[i - 1]).mul_f64(scale);
            }
            rec.arrival = arrival;
            rec.timing = None; // timestamps no longer correspond to a device
            out.push(rec)?;
        }
        out.finish()
    }
}

/// The *Revision* baseline: replay the old trace closed-loop on the target
/// device — each request issued as soon as the previous completes. Gains
/// realistic `Tcdel`/`Tsdev`, but loses all idle periods and async timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Revision;

impl Revision {
    /// Creates the revision replayer.
    #[must_use]
    pub fn new() -> Self {
        Revision
    }
}

impl Reconstructor for Revision {
    fn name(&self) -> &str {
        "Revision"
    }

    fn source_label(&self) -> String {
        "revision (closed-loop replay)".to_string()
    }

    fn reconstruct_into(
        &self,
        old: Columns<'_>,
        target: &mut dyn BlockDevice,
        sink: &mut dyn RecordSink,
        chunk: usize,
    ) -> Result<SinkStats, TraceError> {
        target.reset();
        let out = replay_into(
            target,
            Schedule::closed_loop_ops(old),
            ReplayConfig::default(),
            sink,
            chunk,
        )?;
        Ok(out.stats)
    }
}

/// The *Fixed-th* baseline: idle time is whatever exceeds a fixed
/// worst-case-latency threshold (`Tidle = max(0, Tintt − th)`), then the
/// trace is re-emulated on the target with those idles. The paper selects
/// 10 ms after sweeping 10-100 ms on an HDD node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedThreshold {
    threshold: SimDuration,
}

impl FixedThreshold {
    /// Creates the method with an explicit threshold.
    #[must_use]
    pub fn new(threshold: SimDuration) -> Self {
        FixedThreshold { threshold }
    }

    /// The paper's chosen operating point: 10 ms.
    #[must_use]
    pub fn paper_default() -> Self {
        FixedThreshold::new(SimDuration::from_msecs(10))
    }

    /// The configured threshold.
    #[must_use]
    pub fn threshold(&self) -> SimDuration {
        self.threshold
    }
}

impl Reconstructor for FixedThreshold {
    fn name(&self) -> &str {
        "Fixed-th"
    }

    fn source_label(&self) -> String {
        format!("fixed-th ({})", self.threshold)
    }

    fn reconstruct_into(
        &self,
        old: Columns<'_>,
        target: &mut dyn BlockDevice,
        sink: &mut dyn RecordSink,
        chunk: usize,
    ) -> Result<SinkStats, TraceError> {
        target.reset();
        // Idle before request i = thresholded gap after request i-1; the
        // first request (when any) gets none.
        let arrivals = old.arrivals();
        let threshold = self.threshold;
        let ops = old.iter().enumerate().map(|(i, rec)| ScheduledOp {
            pre_delay: if i == 0 {
                SimDuration::ZERO
            } else {
                (arrivals[i] - arrivals[i - 1]).saturating_sub(threshold)
            },
            request: IoRequest::from(&rec),
            mode: IssueMode::Sync,
        });
        let out = replay_into(target, ops, ReplayConfig::default(), sink, chunk)?;
        Ok(out.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_device::{presets, LinearDevice, LinearDeviceConfig};
    use tt_trace::time::SimInstant;
    use tt_trace::{BlockRecord, OpType};

    fn gappy_trace() -> Trace {
        // Gaps: 50ms, 200us, 30ms.
        let times = [0u64, 50_000, 50_200, 80_200];
        let recs = times
            .iter()
            .enumerate()
            .map(|(i, &us)| {
                BlockRecord::new(
                    SimInstant::from_usecs(us),
                    (i as u64) * 1000,
                    8,
                    OpType::Read,
                )
            })
            .collect();
        Trace::from_records(TraceMeta::named("t"), recs)
    }

    #[test]
    fn acceleration_scales_every_gap() {
        let old = gappy_trace();
        let mut dev = LinearDevice::new(LinearDeviceConfig::default());
        let new = Acceleration::new(10.0).reconstruct(&old, &mut dev);
        let gaps: Vec<f64> = new.inter_arrivals().map(|g| g.as_usecs_f64()).collect();
        assert_eq!(gaps, vec![5_000.0, 20.0, 3_000.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn acceleration_rejects_zero_factor() {
        let _ = Acceleration::new(0.0);
    }

    #[test]
    fn revision_removes_idle() {
        let old = gappy_trace();
        let mut dev = presets::intel_750_array();
        let new = Revision::new().reconstruct(&old, &mut dev);
        assert_eq!(new.len(), old.len());
        // All gaps collapse to device latency (well under 50ms).
        assert!(new.span() < SimDuration::from_msecs(10));
    }

    #[test]
    fn fixed_threshold_keeps_only_long_idle() {
        let old = gappy_trace();
        let mut dev = presets::intel_750_array();
        let new = FixedThreshold::paper_default().reconstruct(&old, &mut dev);
        let gaps: Vec<SimDuration> = new.inter_arrivals().collect();
        // Gap 0 (50ms) keeps 40ms of idle; gap 1 (200us) keeps none;
        // gap 2 (30ms) keeps 20ms.
        assert!(gaps[0] > SimDuration::from_msecs(39));
        assert!(gaps[1] < SimDuration::from_msecs(5));
        assert!(gaps[2] > SimDuration::from_msecs(19));
    }

    #[test]
    fn reconstructors_preserve_request_streams() {
        let old = gappy_trace();
        let mut dev = presets::intel_750_array();
        for method in [
            &Acceleration::x100() as &dyn Reconstructor,
            &Revision::new(),
            &FixedThreshold::paper_default(),
        ] {
            let new = method.reconstruct(&old, &mut dev);
            assert_eq!(new.len(), old.len(), "{}", method.name());
            for (a, b) in old.iter().zip(new.iter()) {
                assert_eq!(a.lba, b.lba);
                assert_eq!(a.sectors, b.sectors);
                assert_eq!(a.op, b.op);
            }
        }
    }

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(Acceleration::x100().name(), "Acceleration");
        assert_eq!(Revision::new().name(), "Revision");
        assert_eq!(FixedThreshold::paper_default().name(), "Fixed-th");
    }
}
