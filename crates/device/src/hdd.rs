//! Mechanistic hard-disk model.
//!
//! Implements the classic decomposition of disk service time
//! (Ruemmler & Wilkes, "An introduction to disk drive modeling" — the
//! paper's own reference for `Tmovd`):
//!
//! ```text
//! Tsdev = seek(cylinder distance) + rotational latency + media transfer
//! ```
//!
//! * seek follows `a + b·√distance` up to a configured maximum;
//! * rotational latency is computed from the platter's *actual angular
//!   position*, which the model tracks against the simulation clock — the
//!   model is fully deterministic, yet rotational delays look
//!   pseudo-random across requests exactly as on real hardware;
//! * sequential reads hit the track buffer and stream at media speed with
//!   no mechanical delay; an optional write cache does the same for writes.
//!
//! The channel is a SATA-style link: fixed command overhead plus
//! bytes / interface rate (`Tcdel`).

use serde::Serialize;

use tt_trace::time::{SimDuration, SimInstant};

use crate::device::BlockDevice;
use crate::request::{IoRequest, ServiceOutcome};

/// Hard-disk model parameters.
///
/// # Examples
///
/// ```
/// use tt_device::HddConfig;
///
/// let cfg = HddConfig::default();
/// assert_eq!(cfg.rpm, 7200);
/// assert!(cfg.rotation_period().as_msecs_f64() > 8.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct HddConfig {
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
    /// Sectors per track (uniform; zoned recording is ignored).
    pub sectors_per_track: u32,
    /// Total tracks (defines the seek distance scale).
    pub tracks: u64,
    /// Fixed component of the seek curve, `seek(d) = seek_base + seek_factor·√d`.
    pub seek_base: SimDuration,
    /// √-distance coefficient of the seek curve, in nanoseconds per √track.
    pub seek_factor_ns: u64,
    /// Cap on any single seek.
    pub max_seek: SimDuration,
    /// Per-command interface overhead (part of `Tcdel`).
    pub command_overhead: SimDuration,
    /// Interface (SATA) transfer rate in MB/s (part of `Tcdel`).
    pub interface_mb_s: u32,
    /// `true` to complete writes from the on-disk cache (no mechanics).
    pub write_cache: bool,
}

impl Default for HddConfig {
    /// A 2007-era 7200 rpm SATA server disk — the class of device the FIU/
    /// MSPS/MSRC traces were collected on.
    fn default() -> Self {
        HddConfig {
            rpm: 7200,
            sectors_per_track: 1024,
            tracks: 300_000,
            seek_base: SimDuration::from_usecs(800),
            // Chosen so a full-stroke seek lands near 16 ms:
            // 0.8ms + 28ns * sqrt(300000) ~= 16.1 ms
            seek_factor_ns: 28_000,
            max_seek: SimDuration::from_msecs(18),
            command_overhead: SimDuration::from_usecs(12),
            interface_mb_s: 300,
            write_cache: false,
        }
    }
}

impl HddConfig {
    /// One full platter revolution.
    #[must_use]
    pub fn rotation_period(&self) -> SimDuration {
        SimDuration::from_nanos(60_000_000_000 / u64::from(self.rpm))
    }

    /// Time to pass one sector under the head (media transfer per sector).
    #[must_use]
    pub fn sector_time(&self) -> SimDuration {
        self.rotation_period() / u64::from(self.sectors_per_track)
    }

    fn track_of(&self, lba: u64) -> u64 {
        (lba / u64::from(self.sectors_per_track)).min(self.tracks.saturating_sub(1))
    }

    /// Seek time between two tracks: `seek_base + seek_factor·√distance`,
    /// capped at [`HddConfig::max_seek`]; zero for a same-track access.
    #[must_use]
    pub fn seek_time(&self, from_track: u64, to_track: u64) -> SimDuration {
        let distance = from_track.abs_diff(to_track);
        if distance == 0 {
            return SimDuration::ZERO;
        }
        let t = self.seek_base
            + SimDuration::from_nanos(
                (self.seek_factor_ns as f64 * (distance as f64).sqrt()).round() as u64,
            );
        t.min(self.max_seek)
    }

    fn interface_transfer(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(bytes * 1_000 / u64::from(self.interface_mb_s))
    }
}

/// A deterministic mechanical disk.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HddDevice {
    config: HddConfig,
    /// Track the head currently sits on.
    head_track: u64,
    /// End LBA of the last serviced request (sequential/track-buffer test).
    last_end_lba: Option<u64>,
    /// The actuator is busy until this instant.
    busy_until: SimInstant,
}

impl HddDevice {
    /// Creates an idle disk with the head parked at track 0.
    #[must_use]
    pub fn new(config: HddConfig) -> Self {
        HddDevice {
            config,
            head_track: 0,
            last_end_lba: None,
            busy_until: SimInstant::ZERO,
        }
    }

    /// The configured geometry/timing.
    #[must_use]
    pub fn config(&self) -> &HddConfig {
        &self.config
    }

    /// Rotational delay to bring `lba`'s sector under the head when the
    /// mechanics are free at `at`.
    fn rotational_delay(&self, lba: u64, at: SimInstant) -> SimDuration {
        let period = self.config.rotation_period().as_nanos();
        let sector_in_track = lba % u64::from(self.config.sectors_per_track);
        let target_angle_ns = sector_in_track * period / u64::from(self.config.sectors_per_track);
        let current_angle_ns = at.as_nanos() % period;
        let wait = (target_angle_ns + period - current_angle_ns) % period;
        SimDuration::from_nanos(wait)
    }

    fn media_transfer(&self, sectors: u32) -> SimDuration {
        self.config.sector_time() * u64::from(sectors)
    }
}

impl BlockDevice for HddDevice {
    fn service(&mut self, request: &IoRequest, issue: SimInstant) -> ServiceOutcome {
        let sequential = self.last_end_lba == Some(request.lba);
        let channel_delay =
            self.config.command_overhead + self.config.interface_transfer(request.bytes());

        let queue_wait = self.busy_until.saturating_since(issue);
        let mech_start = issue + queue_wait + channel_delay;

        let device_time = if request.op.is_write() && self.config.write_cache {
            // Cache hit: ack once data is in the buffer; a small fixed cost.
            self.config.sector_time()
        } else if sequential {
            // Streaming from the track buffer / consecutive sectors: media
            // rate only, no seek, no rotation.
            self.media_transfer(request.sectors)
        } else {
            let target_track = self.config.track_of(request.lba);
            let seek = self.config.seek_time(self.head_track, target_track);
            let rot = self.rotational_delay(request.lba, mech_start + seek);
            seek + rot + self.media_transfer(request.sectors)
        };

        let complete = mech_start + device_time;
        self.busy_until = complete;
        self.head_track = self.config.track_of(request.end_lba().saturating_sub(1));
        self.last_end_lba = Some(request.end_lba());

        ServiceOutcome::new(queue_wait, channel_delay, device_time)
    }

    fn reset(&mut self) {
        self.head_track = 0;
        self.last_end_lba = None;
        self.busy_until = SimInstant::ZERO;
    }

    fn name(&self) -> &str {
        "hdd"
    }

    fn service_bound(&self, request: &IoRequest) -> Option<SimDuration> {
        // Worst case is a random access from any head position: full seek
        // cap, a whole revolution of rotational latency, then the media
        // pass. The write-cache (sector_time ≤ media_transfer) and
        // sequential (media only) branches are strictly cheaper.
        Some(
            self.config.command_overhead
                + self.config.interface_transfer(request.bytes())
                + self.config.max_seek
                + self.config.rotation_period()
                + self.media_transfer(request.sectors),
        )
    }

    fn busy_bound(&self) -> Option<SimInstant> {
        Some(self.busy_until)
    }

    fn fast_forward(&mut self, request: &IoRequest) {
        self.head_track = self.config.track_of(request.end_lba().saturating_sub(1));
        self.last_end_lba = Some(request.end_lba());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_trace::OpType;

    fn disk() -> HddDevice {
        HddDevice::new(HddConfig::default())
    }

    #[test]
    fn random_read_pays_seek_and_rotation() {
        let mut d = disk();
        // Far track, definitely includes a seek on a parked head at 0.
        let out = d.service(
            &IoRequest::new(OpType::Read, 200_000_000, 8),
            SimInstant::ZERO,
        );
        assert!(
            out.device_time >= d.config().seek_base,
            "expected mechanical delay, got {}",
            out.device_time
        );
        // Random 4KB access on a 2007 disk: several milliseconds.
        assert!(out.device_time.as_msecs_f64() > 1.0);
        assert!(out.device_time <= d.config().max_seek + d.config().rotation_period() * 2);
    }

    #[test]
    fn sequential_read_streams_at_media_rate() {
        let mut d = disk();
        d.service(&IoRequest::new(OpType::Read, 1000, 8), SimInstant::ZERO);
        let out = d.service(
            &IoRequest::new(OpType::Read, 1008, 8),
            SimInstant::from_secs(1),
        );
        assert_eq!(out.device_time, d.config().sector_time() * 8);
    }

    #[test]
    fn sequential_is_much_faster_than_random() {
        let mut d = disk();
        d.service(&IoRequest::new(OpType::Read, 1000, 8), SimInstant::ZERO);
        let seq = d.service(
            &IoRequest::new(OpType::Read, 1008, 8),
            SimInstant::from_secs(1),
        );
        let rand = d.service(
            &IoRequest::new(OpType::Read, 250_000_000, 8),
            SimInstant::from_secs(2),
        );
        assert!(rand.device_time.as_nanos() > 10 * seq.device_time.as_nanos());
    }

    #[test]
    fn write_cache_hides_mechanics() {
        let cfg = HddConfig {
            write_cache: true,
            ..HddConfig::default()
        };
        let mut d = HddDevice::new(cfg);
        let out = d.service(
            &IoRequest::new(OpType::Write, 123_456_789, 8),
            SimInstant::ZERO,
        );
        assert!(out.device_time < SimDuration::from_usecs(100));
    }

    #[test]
    fn rotation_depends_on_clock_position() {
        let mut d1 = disk();
        let mut d2 = disk();
        let req = IoRequest::new(OpType::Read, 500_000, 8);
        let a = d1.service(&req, SimInstant::ZERO);
        // Same request issued 1/3 revolution later sees different rotation.
        let third_rev = SimDuration::from_nanos(d2.config().rotation_period().as_nanos() / 3);
        let b = d2.service(&req, SimInstant::ZERO + third_rev);
        assert_ne!(a.device_time, b.device_time);
    }

    #[test]
    fn determinism_after_reset() {
        let mut d = disk();
        let req = IoRequest::new(OpType::Read, 77_000_000, 16);
        let a = d.service(&req, SimInstant::from_usecs(123));
        d.reset();
        let b = d.service(&req, SimInstant::from_usecs(123));
        assert_eq!(a, b);
    }

    #[test]
    fn queueing_serialises_actuator() {
        let mut d = disk();
        let first = d.service(
            &IoRequest::new(OpType::Read, 9_000_000, 8),
            SimInstant::ZERO,
        );
        let second = d.service(
            &IoRequest::new(OpType::Read, 80_000_000, 8),
            SimInstant::ZERO,
        );
        assert_eq!(second.queue_wait, first.total());
    }

    #[test]
    fn seek_time_monotone_in_distance() {
        let cfg = HddConfig::default();
        let near = cfg.seek_time(0, 10);
        let mid = cfg.seek_time(0, 10_000);
        let far = cfg.seek_time(0, 299_999);
        assert!(near < mid && mid <= far);
        assert!(far <= cfg.max_seek);
        assert_eq!(cfg.seek_time(42, 42), SimDuration::ZERO);
    }

    #[test]
    fn channel_delay_scales_with_size() {
        let mut d = disk();
        let small = d.service(&IoRequest::new(OpType::Read, 0, 8), SimInstant::ZERO);
        d.reset();
        let large = d.service(&IoRequest::new(OpType::Read, 0, 1024), SimInstant::ZERO);
        assert!(large.channel_delay > small.channel_delay);
    }
}
