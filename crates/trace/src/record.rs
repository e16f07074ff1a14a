//! Individual block-trace records.

use serde::Serialize;

use crate::op::OpType;
use crate::time::{SimDuration, SimInstant};

/// Number of bytes in one logical sector (the unit of `lba` and `sectors`).
pub const SECTOR_BYTES: u64 = 512;

/// The last sector a record may end at, `u64::MAX / 512`: a record that
/// ends at or below it has a byte range, `lba * 512 .. end * 512`, that
/// fits in a `u64`. The CSV, blkparse and TTB readers reject a record
/// that ends past it.
pub const MAX_END_LBA: u64 = u64::MAX / SECTOR_BYTES;

/// Device-side service timestamps for one request, when the trace records
/// them.
///
/// MSPS and MSRC traces were collected with an event-based kernel tracer and
/// carry *issue* (driver → disk) and *completion* timestamps; FIU traces do
/// not. Their difference is the observed `Tsdev` of the paper's §V
/// ("`Tsdev`-known" traces can skip the device-time inference phase).
///
/// # Examples
///
/// ```
/// use tt_trace::{ServiceTiming, time::SimInstant};
///
/// let t = ServiceTiming::new(SimInstant::from_usecs(10), SimInstant::from_usecs(150));
/// assert_eq!(t.device_time().as_usecs_f64(), 140.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct ServiceTiming {
    /// When the request was issued from the device driver to the device.
    pub issue: SimInstant,
    /// When the device reported completion.
    pub complete: SimInstant,
}

impl ServiceTiming {
    /// Creates a timing pair.
    ///
    /// # Panics
    ///
    /// Panics if `complete` precedes `issue`.
    #[must_use]
    #[inline]
    pub fn new(issue: SimInstant, complete: SimInstant) -> Self {
        assert!(
            complete >= issue,
            "completion ({complete}) precedes issue ({issue})"
        );
        ServiceTiming { issue, complete }
    }

    /// The observed device service time (`complete - issue`).
    #[must_use]
    #[inline]
    pub fn device_time(self) -> SimDuration {
        self.complete - self.issue
    }
}

/// One entry of a block trace, as captured underneath the block layer.
///
/// This is a passive, C-style data structure with public fields; the
/// [`Trace`](crate::Trace) container enforces cross-record invariants
/// (arrival ordering).
///
/// # Examples
///
/// ```
/// use tt_trace::{BlockRecord, OpType, time::SimInstant};
///
/// let rec = BlockRecord::new(SimInstant::from_usecs(42), 2048, 8, OpType::Read);
/// assert_eq!(rec.bytes(), 8 * 512);
/// assert_eq!(rec.end_lba(), 2056);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct BlockRecord {
    /// Block-layer arrival timestamp (blktrace `Q`).
    pub arrival: SimInstant,
    /// First logical block address, in 512-byte sectors.
    pub lba: u64,
    /// Request length in 512-byte sectors. Always non-zero.
    pub sectors: u32,
    /// Read or write.
    pub op: OpType,
    /// Device-side issue/completion timestamps, when the trace provides them.
    pub timing: Option<ServiceTiming>,
}

impl BlockRecord {
    /// Creates a record without device-side timing.
    ///
    /// # Panics
    ///
    /// Panics if `sectors` is zero; zero-length block requests do not occur
    /// in real traces and would poison the size-based grouping.
    #[must_use]
    #[inline]
    pub fn new(arrival: SimInstant, lba: u64, sectors: u32, op: OpType) -> Self {
        assert!(sectors > 0, "block request must cover at least one sector");
        BlockRecord {
            arrival,
            lba,
            sectors,
            op,
            timing: None,
        }
    }

    /// Creates a record carrying device-side timing, builder-style.
    ///
    /// # Examples
    ///
    /// ```
    /// use tt_trace::{BlockRecord, OpType, ServiceTiming, time::SimInstant};
    ///
    /// let rec = BlockRecord::new(SimInstant::ZERO, 0, 8, OpType::Write)
    ///     .with_timing(ServiceTiming::new(
    ///         SimInstant::from_usecs(1),
    ///         SimInstant::from_usecs(90),
    ///     ));
    /// assert!(rec.timing.is_some());
    /// ```
    #[must_use]
    #[inline]
    pub fn with_timing(mut self, timing: ServiceTiming) -> Self {
        self.timing = Some(timing);
        self
    }

    /// Request length in bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        u64::from(self.sectors) * SECTOR_BYTES
    }

    /// Request length in kilobytes (floating point, for statistics).
    #[must_use]
    pub fn kilobytes(&self) -> f64 {
        self.bytes() as f64 / 1024.0
    }

    /// One past the last sector touched by this request.
    #[must_use]
    pub fn end_lba(&self) -> u64 {
        self.lba + u64::from(self.sectors)
    }

    /// `true` when this request starts exactly where `prev` ended — the
    /// sequentiality test used for grouping (§III "sequential vs. random").
    #[must_use]
    pub fn is_sequential_after(&self, prev: &BlockRecord) -> bool {
        BlockRecord::lba_run_continues(prev.lba, prev.sectors, self.lba)
    }

    /// The raw-column form of [`BlockRecord::is_sequential_after`]: does a
    /// request at `lba` start exactly where `(prev_lba, prev_sectors)`
    /// ended? The single definition of the sequentiality rule, shared with
    /// columnar scans that never assemble records. A run whose end would
    /// overflow `u64` does not continue.
    #[must_use]
    pub const fn lba_run_continues(prev_lba: u64, prev_sectors: u32, lba: u64) -> bool {
        match prev_lba.checked_add(prev_sectors as u64) {
            Some(end) => lba == end,
            None => false,
        }
    }

    /// Does a request of `sectors` at `lba` end at or below
    /// [`MAX_END_LBA`]? The bound every trace reader checks, so that no
    /// record it yields overflows `u64` in sector or byte arithmetic.
    #[must_use]
    #[inline]
    pub(crate) const fn ends_in_range(lba: u64, sectors: u32) -> bool {
        lba <= MAX_END_LBA - sectors as u64
    }

    /// The observed device time, when the trace recorded it.
    #[must_use]
    pub fn device_time(&self) -> Option<SimDuration> {
        self.timing.map(ServiceTiming::device_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(arrival_us: u64, lba: u64, sectors: u32) -> BlockRecord {
        BlockRecord::new(
            SimInstant::from_usecs(arrival_us),
            lba,
            sectors,
            OpType::Read,
        )
    }

    #[test]
    fn bytes_and_kb() {
        let r = rec(0, 0, 16);
        assert_eq!(r.bytes(), 8192);
        assert!((r.kilobytes() - 8.0).abs() < f64::EPSILON);
    }

    #[test]
    #[should_panic(expected = "at least one sector")]
    fn zero_sector_rejected() {
        let _ = BlockRecord::new(SimInstant::ZERO, 0, 0, OpType::Read);
    }

    #[test]
    fn sequentiality_is_exact_adjacency() {
        let a = rec(0, 100, 8);
        let b = rec(1, 108, 8);
        let c = rec(2, 109, 8);
        assert!(b.is_sequential_after(&a));
        assert!(!c.is_sequential_after(&a));
        assert!(!a.is_sequential_after(&b));
    }

    #[test]
    fn a_run_ending_past_u64_does_not_continue() {
        // u64::MAX - 5 + 8 wraps to 2: the run must not continue there.
        assert!(!BlockRecord::lba_run_continues(u64::MAX - 5, 8, 2));
        assert!(BlockRecord::lba_run_continues(u64::MAX - 8, 8, u64::MAX));
    }

    #[test]
    fn service_timing_device_time() {
        let t = ServiceTiming::new(SimInstant::from_usecs(5), SimInstant::from_usecs(25));
        assert_eq!(t.device_time(), SimDuration::from_usecs(20));
    }

    #[test]
    #[should_panic(expected = "precedes issue")]
    fn service_timing_rejects_inverted() {
        let _ = ServiceTiming::new(SimInstant::from_usecs(25), SimInstant::from_usecs(5));
    }

    #[test]
    fn with_timing_attaches() {
        let r = rec(0, 0, 8).with_timing(ServiceTiming::new(
            SimInstant::from_usecs(1),
            SimInstant::from_usecs(2),
        ));
        assert_eq!(r.device_time(), Some(SimDuration::from_usecs(1)));
    }
}
