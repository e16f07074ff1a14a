//! Device-level request and service-outcome types.

use serde::Serialize;

use tt_trace::time::{SimDuration, SimInstant};
use tt_trace::{BlockRecord, OpType, SECTOR_BYTES};

/// A block request as presented to a device model: what to do and where,
/// with no timing attached (timing is the device's output, not input).
///
/// # Examples
///
/// ```
/// use tt_device::IoRequest;
/// use tt_trace::OpType;
///
/// let req = IoRequest::new(OpType::Read, 2048, 8);
/// assert_eq!(req.bytes(), 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct IoRequest {
    /// Read or write.
    pub op: OpType,
    /// First logical block address (512-byte sectors).
    pub lba: u64,
    /// Length in sectors; always non-zero.
    pub sectors: u32,
}

impl IoRequest {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if `sectors` is zero.
    #[must_use]
    #[inline]
    pub fn new(op: OpType, lba: u64, sectors: u32) -> Self {
        assert!(sectors > 0, "request must cover at least one sector");
        IoRequest { op, lba, sectors }
    }

    /// Request length in bytes.
    #[must_use]
    #[inline]
    pub fn bytes(&self) -> u64 {
        u64::from(self.sectors) * SECTOR_BYTES
    }

    /// One past the last sector touched.
    #[must_use]
    #[inline]
    pub fn end_lba(&self) -> u64 {
        self.lba + u64::from(self.sectors)
    }
}

impl From<&BlockRecord> for IoRequest {
    #[inline]
    fn from(rec: &BlockRecord) -> Self {
        IoRequest::new(rec.op, rec.lba, rec.sectors)
    }
}

/// The timing a device model assigns to one request, decomposed the way the
/// paper decomposes `Tslat` (§II-A, Fig 2b):
///
/// ```text
/// complete = issue + queue_wait + channel_delay (Tcdel) + device_time (Tsdev)
/// ```
///
/// `queue_wait` captures time spent behind earlier requests still occupying
/// the device; it is zero in the paper's single-outstanding-request timing
/// diagram but nonzero when asynchronous requests pile up.
///
/// # Examples
///
/// ```
/// use tt_device::ServiceOutcome;
/// use tt_trace::time::{SimDuration, SimInstant};
///
/// let out = ServiceOutcome::new(
///     SimDuration::ZERO,
///     SimDuration::from_usecs(15),
///     SimDuration::from_usecs(120),
/// );
/// assert_eq!(out.slat(), SimDuration::from_usecs(135));
/// let done = out.complete_at(SimInstant::from_usecs(100));
/// assert_eq!(done, SimInstant::from_usecs(235));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct ServiceOutcome {
    /// Time spent waiting for the device to become available.
    pub queue_wait: SimDuration,
    /// Channel/interface delay — the paper's `Tcdel`.
    pub channel_delay: SimDuration,
    /// Device service time proper — the paper's `Tsdev`.
    pub device_time: SimDuration,
}

impl ServiceOutcome {
    /// Assembles an outcome from its three components.
    #[must_use]
    #[inline]
    pub fn new(
        queue_wait: SimDuration,
        channel_delay: SimDuration,
        device_time: SimDuration,
    ) -> Self {
        ServiceOutcome {
            queue_wait,
            channel_delay,
            device_time,
        }
    }

    /// The I/O subsystem latency `Tslat = Tcdel + Tsdev` (queueing excluded,
    /// matching the paper's definition).
    #[must_use]
    #[inline]
    pub fn slat(&self) -> SimDuration {
        self.channel_delay + self.device_time
    }

    /// Total time from issue to completion, including queueing.
    #[must_use]
    #[inline]
    pub fn total(&self) -> SimDuration {
        self.queue_wait + self.channel_delay + self.device_time
    }

    /// Completion instant for a request issued at `issue`.
    #[must_use]
    #[inline]
    pub fn complete_at(&self, issue: SimInstant) -> SimInstant {
        issue + self.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_geometry() {
        let r = IoRequest::new(OpType::Write, 100, 16);
        assert_eq!(r.bytes(), 8192);
        assert_eq!(r.end_lba(), 116);
    }

    #[test]
    #[should_panic(expected = "at least one sector")]
    fn zero_sectors_rejected() {
        let _ = IoRequest::new(OpType::Read, 0, 0);
    }

    #[test]
    fn from_block_record() {
        let rec = BlockRecord::new(SimInstant::from_usecs(9), 7, 8, OpType::Read);
        let req = IoRequest::from(&rec);
        assert_eq!(req, IoRequest::new(OpType::Read, 7, 8));
    }

    #[test]
    fn outcome_decomposition_sums() {
        let out = ServiceOutcome::new(
            SimDuration::from_usecs(5),
            SimDuration::from_usecs(10),
            SimDuration::from_usecs(85),
        );
        assert_eq!(out.total(), SimDuration::from_usecs(100));
        assert_eq!(out.slat(), SimDuration::from_usecs(95));
        assert_eq!(
            out.complete_at(SimInstant::ZERO),
            SimInstant::from_usecs(100)
        );
    }
}
