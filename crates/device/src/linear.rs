//! The paper's inferred device model, run forward as a device.
//!
//! TraceTracker's inference (§III) assumes
//!
//! ```text
//! Tsdev = β·size            (sequential read)
//!       = η·size            (sequential write)
//!       = β·size + Tmovd    (random read)
//!       = η·size + Tmovd    (random write)
//! Tcdel = per-op constant
//! ```
//!
//! [`LinearDevice`] *is* that model. It serves two purposes:
//!
//! 1. **closed-loop validation** — generate a trace on a `LinearDevice` with
//!    known (β, η, Tcdel, Tmovd), run the inference, and check the estimates
//!    recover the ground truth;
//! 2. a cheap stand-in device for unit tests of the replay machinery.

use serde::Serialize;

use tt_trace::time::{SimDuration, SimInstant};

use crate::device::BlockDevice;
use crate::request::{IoRequest, ServiceOutcome};

/// Parameters of the linear service-time model.
///
/// # Examples
///
/// ```
/// use tt_device::LinearDeviceConfig;
///
/// let cfg = LinearDeviceConfig {
///     beta_ns_per_sector: 2_000,
///     ..LinearDeviceConfig::default()
/// };
/// assert_eq!(cfg.beta_ns_per_sector, 2_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LinearDeviceConfig {
    /// Read device time per sector (the paper's `β`), in nanoseconds.
    pub beta_ns_per_sector: u64,
    /// Write device time per sector (the paper's `η`), in nanoseconds.
    pub eta_ns_per_sector: u64,
    /// Channel delay for reads.
    pub tcdel_read: SimDuration,
    /// Channel delay for writes.
    pub tcdel_write: SimDuration,
    /// Extra moving delay added to *random* accesses (the paper's `Tmovd`:
    /// seek + rotational latency on disks).
    pub tmovd: SimDuration,
    /// When `true` the device serialises requests (single actuator, like a
    /// disk); when `false` every request is serviced immediately
    /// (infinite internal parallelism).
    pub serialize: bool,
}

impl Default for LinearDeviceConfig {
    /// A disk-flavoured default: β = 4 µs/sector, η = 5 µs/sector,
    /// `Tcdel` ≈ 15/20 µs, `Tmovd` = 6 ms, serialised.
    fn default() -> Self {
        LinearDeviceConfig {
            beta_ns_per_sector: 4_000,
            eta_ns_per_sector: 5_000,
            tcdel_read: SimDuration::from_usecs(15),
            tcdel_write: SimDuration::from_usecs(20),
            tmovd: SimDuration::from_msecs(6),
            serialize: true,
        }
    }
}

/// A device whose service time follows the paper's linear model exactly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LinearDevice {
    config: LinearDeviceConfig,
    last_end_lba: Option<u64>,
    busy_until: SimInstant,
}

impl LinearDevice {
    /// Creates an idle device with the given parameters.
    #[must_use]
    pub fn new(config: LinearDeviceConfig) -> Self {
        LinearDevice {
            config,
            last_end_lba: None,
            busy_until: SimInstant::ZERO,
        }
    }

    /// The configured parameters.
    #[must_use]
    pub fn config(&self) -> &LinearDeviceConfig {
        &self.config
    }

    /// The `Tsdev` this model assigns to a request, given whether it is
    /// sequential to the previous one. Pure function of the config — used by
    /// tests to state expected values.
    #[must_use]
    pub fn device_time_for(&self, request: &IoRequest, sequential: bool) -> SimDuration {
        let per_sector = if request.op.is_read() {
            self.config.beta_ns_per_sector
        } else {
            self.config.eta_ns_per_sector
        };
        let linear = SimDuration::from_nanos(per_sector * u64::from(request.sectors));
        if sequential {
            linear
        } else {
            linear + self.config.tmovd
        }
    }
}

impl BlockDevice for LinearDevice {
    fn service(&mut self, request: &IoRequest, issue: SimInstant) -> ServiceOutcome {
        let sequential = self.last_end_lba == Some(request.lba);
        let device_time = self.device_time_for(request, sequential);
        let channel_delay = if request.op.is_read() {
            self.config.tcdel_read
        } else {
            self.config.tcdel_write
        };

        let queue_wait = if self.config.serialize {
            self.busy_until.saturating_since(issue)
        } else {
            SimDuration::ZERO
        };
        let complete = issue + queue_wait + channel_delay + device_time;
        self.busy_until = complete;
        self.last_end_lba = Some(request.end_lba());

        ServiceOutcome::new(queue_wait, channel_delay, device_time)
    }

    fn reset(&mut self) {
        self.last_end_lba = None;
        self.busy_until = SimInstant::ZERO;
    }

    fn name(&self) -> &str {
        "linear-model"
    }

    fn service_bound(&self, request: &IoRequest) -> Option<SimDuration> {
        // Worst case is a random access: Tcdel + linear term + Tmovd. With
        // `serialize`, completion is max(busy_until, issue) + that sum; an
        // unserialised device completes even earlier (issue + sum).
        let channel_delay = if request.op.is_read() {
            self.config.tcdel_read
        } else {
            self.config.tcdel_write
        };
        Some(channel_delay + self.device_time_for(request, false))
    }

    fn busy_bound(&self) -> Option<SimInstant> {
        Some(self.busy_until)
    }

    fn fast_forward(&mut self, request: &IoRequest) {
        self.last_end_lba = Some(request.end_lba());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_trace::OpType;

    fn config() -> LinearDeviceConfig {
        LinearDeviceConfig {
            beta_ns_per_sector: 1_000,
            eta_ns_per_sector: 2_000,
            tcdel_read: SimDuration::from_usecs(10),
            tcdel_write: SimDuration::from_usecs(12),
            tmovd: SimDuration::from_msecs(5),
            serialize: true,
        }
    }

    #[test]
    fn first_access_is_random() {
        let mut dev = LinearDevice::new(config());
        let out = dev.service(&IoRequest::new(OpType::Read, 100, 8), SimInstant::ZERO);
        // 8 sectors * 1us + 5ms movd
        assert_eq!(
            out.device_time,
            SimDuration::from_usecs(8) + SimDuration::from_msecs(5)
        );
        assert_eq!(out.channel_delay, SimDuration::from_usecs(10));
    }

    #[test]
    fn sequential_access_skips_tmovd() {
        let mut dev = LinearDevice::new(config());
        let t0 = SimInstant::ZERO;
        dev.service(&IoRequest::new(OpType::Read, 100, 8), t0);
        let out = dev.service(
            &IoRequest::new(OpType::Read, 108, 8),
            SimInstant::from_secs(1),
        );
        assert_eq!(out.device_time, SimDuration::from_usecs(8));
    }

    #[test]
    fn writes_use_eta_and_write_cdel() {
        let mut dev = LinearDevice::new(config());
        dev.service(&IoRequest::new(OpType::Write, 0, 8), SimInstant::ZERO);
        let out = dev.service(
            &IoRequest::new(OpType::Write, 8, 8),
            SimInstant::from_secs(1),
        );
        assert_eq!(out.device_time, SimDuration::from_usecs(16));
        assert_eq!(out.channel_delay, SimDuration::from_usecs(12));
    }

    #[test]
    fn serialization_queues_back_to_back_requests() {
        let mut dev = LinearDevice::new(config());
        let first = dev.service(&IoRequest::new(OpType::Read, 0, 8), SimInstant::ZERO);
        let second = dev.service(&IoRequest::new(OpType::Read, 999, 8), SimInstant::ZERO);
        assert_eq!(second.queue_wait, first.total());
    }

    #[test]
    fn no_serialization_means_no_queueing() {
        let mut cfg = config();
        cfg.serialize = false;
        let mut dev = LinearDevice::new(cfg);
        dev.service(&IoRequest::new(OpType::Read, 0, 8), SimInstant::ZERO);
        let out = dev.service(&IoRequest::new(OpType::Read, 999, 8), SimInstant::ZERO);
        assert_eq!(out.queue_wait, SimDuration::ZERO);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut dev = LinearDevice::new(config());
        dev.service(&IoRequest::new(OpType::Read, 0, 8), SimInstant::ZERO);
        dev.reset();
        let out = dev.service(&IoRequest::new(OpType::Read, 8, 8), SimInstant::ZERO);
        // After reset the access is random again (no last LBA) and unqueued.
        assert_eq!(out.queue_wait, SimDuration::ZERO);
        assert_eq!(
            out.device_time,
            SimDuration::from_usecs(8) + SimDuration::from_msecs(5)
        );
    }

    #[test]
    fn device_time_scales_linearly_with_size() {
        let dev = LinearDevice::new(config());
        let small = dev.device_time_for(&IoRequest::new(OpType::Read, 0, 8), true);
        let large = dev.device_time_for(&IoRequest::new(OpType::Read, 0, 80), true);
        assert_eq!(large, small * 10);
    }
}
