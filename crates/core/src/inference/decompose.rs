//! Per-request timing decomposition (`Tintt → Tslat + Tidle`).

use serde::Serialize;

use tt_trace::time::SimDuration;
use tt_trace::{classify_sequentiality, Columns};

use crate::inference::estimate::DeviceEstimate;

/// Per-request decomposition of a trace's timing.
///
/// Vectors are indexed like the trace's records. `tidle[i]` refers to the
/// gap *following* record `i` (zero for the last record), matching the
/// paper's `T_idle^i = T_intt^i − T_sdev^i` convention.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Decomposition {
    /// Modelled (or measured) I/O subsystem latency per request.
    pub tslat: Vec<SimDuration>,
    /// Device time per request.
    pub tsdev: Vec<SimDuration>,
    /// Channel delay per request.
    pub tcdel: Vec<SimDuration>,
    /// Idle time in the gap following each request.
    pub tidle: Vec<SimDuration>,
    /// `true` when the request was issued asynchronously in the source
    /// trace (its gap is shorter than its own device time — paper §IV).
    pub is_async: Vec<bool>,
}

impl Decomposition {
    /// Splits every request of `trace` using `estimate`. `trace` is a
    /// `&Trace` or a column view, with identical output whether the
    /// columns come from an owned trace or a memory-mapped `.ttb` file
    /// ([`MmapTrace`](tt_trace::MmapTrace)).
    ///
    /// When a record carries device-side timing (a `Tsdev`-known trace),
    /// the *measured* service time replaces the modelled one — the paper's
    /// "if workloads provide the Tsdev information, we can skip the Tsdev
    /// inference phase". Measured `issue → complete` spans the channel too,
    /// so it stands in for `Tslat` and the modelled `Tcdel` is carved out
    /// of it.
    ///
    /// # Examples
    ///
    /// ```
    /// use tt_core::{Decomposition, DeviceEstimate};
    /// use tt_trace::{time::{SimDuration, SimInstant}, BlockRecord, OpType, Trace, TraceMeta};
    ///
    /// let est = DeviceEstimate {
    ///     beta_ns_per_sector: 1_000.0,
    ///     eta_ns_per_sector: 1_000.0,
    ///     tcdel_read: SimDuration::ZERO,
    ///     tcdel_write: SimDuration::ZERO,
    ///     tmovd: SimDuration::ZERO,
    /// };
    /// // Two reads 1ms apart; each takes 8us of device time.
    /// let recs = vec![
    ///     BlockRecord::new(SimInstant::ZERO, 0, 8, OpType::Read),
    ///     BlockRecord::new(SimInstant::from_msecs(1), 800, 8, OpType::Read),
    /// ];
    /// let trace = Trace::from_records(TraceMeta::default(), recs);
    /// let d = Decomposition::compute(&trace, &est);
    /// assert_eq!(d.tidle[0], SimDuration::from_usecs(992)); // 1000 - 8
    /// assert_eq!(d.tidle[1], SimDuration::ZERO); // last record
    /// ```
    #[must_use]
    pub fn compute<'a>(trace: impl Into<Columns<'a>>, estimate: &DeviceEstimate) -> Self {
        Decomposition::decompose(trace.into(), estimate)
    }

    fn decompose(cols: Columns<'_>, estimate: &DeviceEstimate) -> Self {
        let n = cols.len();
        let classes = classify_sequentiality(cols);
        let (arrivals, sectors, ops) = (cols.arrivals(), cols.sectors(), cols.ops());
        let mut d = Decomposition {
            tslat: Vec::with_capacity(n),
            tsdev: Vec::with_capacity(n),
            tcdel: Vec::with_capacity(n),
            tidle: Vec::with_capacity(n),
            is_async: Vec::with_capacity(n),
        };

        for i in 0..n {
            let tcdel = estimate.tcdel(ops[i]);
            let measured = cols.timing(i).map(|t| t.device_time());
            let (tslat, tsdev) = match measured {
                Some(measured) => (measured, measured.saturating_sub(tcdel)),
                None => {
                    let tsdev = estimate.tsdev(ops[i], sectors[i], classes[i]);
                    (tcdel + tsdev, tsdev)
                }
            };
            let gap = (i + 1 < n).then(|| arrivals[i + 1] - arrivals[i]);
            let tidle = gap
                .map(|g| g.saturating_sub(tslat))
                .unwrap_or(SimDuration::ZERO);
            let is_async = gap.is_some_and(|g| g < tsdev);

            d.tslat.push(tslat);
            d.tsdev.push(tsdev);
            d.tcdel.push(tcdel);
            d.tidle.push(tidle);
            d.is_async.push(is_async);
        }
        d
    }

    /// Number of requests decomposed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tslat.len()
    }

    /// `true` for an empty decomposition.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tslat.is_empty()
    }

    /// Sum of all idle time.
    #[must_use]
    pub fn total_idle(&self) -> SimDuration {
        self.tidle.iter().copied().sum()
    }

    /// Number of gaps whose idle exceeds `floor`.
    #[must_use]
    pub fn idle_count(&self, floor: SimDuration) -> usize {
        self.tidle.iter().filter(|&&t| t > floor).count()
    }

    /// Mean idle period over gaps with idle above `floor`; zero when none.
    #[must_use]
    pub fn mean_idle(&self, floor: SimDuration) -> SimDuration {
        let count = self.idle_count(floor) as u64;
        if count == 0 {
            return SimDuration::ZERO;
        }
        let total: SimDuration = self.tidle.iter().copied().filter(|&t| t > floor).sum();
        total / count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_trace::time::SimInstant;
    use tt_trace::{BlockRecord, OpType, ServiceTiming, Trace, TraceMeta};

    fn estimate() -> DeviceEstimate {
        DeviceEstimate {
            beta_ns_per_sector: 1_000.0,
            eta_ns_per_sector: 2_000.0,
            tcdel_read: SimDuration::from_usecs(5),
            tcdel_write: SimDuration::from_usecs(5),
            tmovd: SimDuration::from_msecs(2),
        }
    }

    #[test]
    fn modelled_path_uses_estimate() {
        // Random read of 8 sectors: tslat = 5us + 8us + 2ms.
        let recs = vec![
            BlockRecord::new(SimInstant::ZERO, 0, 8, OpType::Read),
            BlockRecord::new(SimInstant::from_msecs(10), 999_999, 8, OpType::Read),
        ];
        let trace = Trace::from_records(TraceMeta::default(), recs);
        let d = Decomposition::compute(&trace, &estimate());
        assert_eq!(
            d.tslat[0],
            SimDuration::from_usecs(13) + SimDuration::from_msecs(2)
        );
        assert_eq!(d.tidle[0], SimDuration::from_msecs(10) - d.tslat[0]);
    }

    #[test]
    fn measured_timing_overrides_model() {
        let recs = vec![
            BlockRecord::new(SimInstant::ZERO, 0, 8, OpType::Read).with_timing(ServiceTiming::new(
                SimInstant::ZERO,
                SimInstant::from_usecs(100),
            )),
            BlockRecord::new(SimInstant::from_usecs(500), 999_999, 8, OpType::Read),
        ];
        let trace = Trace::from_records(TraceMeta::default(), recs);
        let d = Decomposition::compute(&trace, &estimate());
        assert_eq!(d.tslat[0], SimDuration::from_usecs(100)); // measured
        assert_eq!(d.tsdev[0], SimDuration::from_usecs(95)); // minus tcdel
        assert_eq!(d.tidle[0], SimDuration::from_usecs(400));
    }

    #[test]
    fn async_detected_when_gap_shorter_than_tsdev() {
        // Gap of 1ms but random tsdev ≈ 2ms → async.
        let recs = vec![
            BlockRecord::new(SimInstant::ZERO, 0, 8, OpType::Read),
            BlockRecord::new(SimInstant::from_msecs(1), 999_999, 8, OpType::Read),
            BlockRecord::new(SimInstant::from_secs(1), 5, 8, OpType::Read),
        ];
        let trace = Trace::from_records(TraceMeta::default(), recs);
        let d = Decomposition::compute(&trace, &estimate());
        assert!(d.is_async[0]);
        assert!(!d.is_async[1]); // 1s gap
        assert!(!d.is_async[2]); // last record, no gap
        assert_eq!(d.tidle[0], SimDuration::ZERO); // gap < tslat clamps
    }

    #[test]
    fn aggregates() {
        let recs = vec![
            BlockRecord::new(SimInstant::ZERO, 0, 8, OpType::Read),
            BlockRecord::new(SimInstant::from_msecs(50), 0, 8, OpType::Read),
            BlockRecord::new(SimInstant::from_msecs(100), 0, 8, OpType::Read),
        ];
        let trace = Trace::from_records(TraceMeta::default(), recs);
        let d = Decomposition::compute(&trace, &estimate());
        assert_eq!(d.len(), 3);
        assert_eq!(d.idle_count(SimDuration::ZERO), 2);
        assert!(d.total_idle() > SimDuration::from_msecs(90));
        assert!(d.mean_idle(SimDuration::ZERO) > SimDuration::from_msecs(45));
    }

    #[test]
    fn empty_trace() {
        let d = Decomposition::compute(&Trace::new(), &estimate());
        assert!(d.is_empty());
        assert_eq!(d.total_idle(), SimDuration::ZERO);
        assert_eq!(d.mean_idle(SimDuration::ZERO), SimDuration::ZERO);
    }
}
