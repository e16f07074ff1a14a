//! Ground-truth session generation.
//!
//! A [`Session`] is the *user behaviour* of a workload: an ordered list of
//! requests with their true pre-delays (idle/think times) and sync/async
//! modes — i.e. a [`Schedule`]. Sessions are generated from a
//! [`WorkloadProfile`] with a seeded RNG and are fully reproducible.
//!
//! Materialising a session on a device model yields a block trace; doing it
//! on the HDD model gives the "OLD" decade-ago trace, on the flash array
//! the "NEW" reference trace. Because the session's idle times are known
//! exactly, reconstruction accuracy can be verified against ground truth —
//! something the paper could only approximate with injected idles.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use tt_device::{BlockDevice, IoRequest};
use tt_sim::{replay, IssueMode, ReplayConfig, ReplayOutcome, Schedule, ScheduledOp};
use tt_trace::time::SimDuration;
use tt_trace::OpType;

use crate::profile::WorkloadProfile;

/// A generated user session: named ground-truth schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Session {
    /// Workload name this session was generated from.
    pub name: String,
    /// The ground-truth operation stream.
    pub schedule: Schedule,
}

impl Session {
    /// Ground-truth idle time preceding each request (the generator's
    /// think/idle draws — the paper's unobservable `Tidle`).
    #[must_use]
    pub fn ground_truth_idle(&self) -> Vec<SimDuration> {
        self.schedule.ops().iter().map(|op| op.pre_delay).collect()
    }

    /// Ground-truth issue mode of each request.
    #[must_use]
    pub fn modes(&self) -> Vec<IssueMode> {
        self.schedule.ops().iter().map(|op| op.mode).collect()
    }

    /// Replays the session on `device`, producing a collected trace.
    ///
    /// `record_device_timing` selects the paper's trace classes:
    /// `true` → `Tsdev`-known (MSPS/MSRC-style), `false` → FIU-style.
    pub fn materialize<D: BlockDevice + ?Sized>(
        &self,
        device: &mut D,
        record_device_timing: bool,
    ) -> ReplayOutcome {
        replay(
            device,
            &self.schedule,
            &self.name,
            ReplayConfig {
                record_device_timing,
                ..ReplayConfig::default()
            },
        )
    }
}

/// Generates a reproducible session of `requests` operations from `profile`.
///
/// # Panics
///
/// Panics when the profile fails [`WorkloadProfile::validate`].
///
/// # Examples
///
/// ```
/// use tt_workloads::{generate_session, WorkloadProfile};
///
/// let session = generate_session("demo", &WorkloadProfile::default(), 100, 42);
/// assert_eq!(session.schedule.len(), 100);
/// // Deterministic: same seed, same session.
/// let again = generate_session("demo", &WorkloadProfile::default(), 100, 42);
/// assert_eq!(session, again);
/// ```
#[must_use]
pub fn generate_session(
    name: &str,
    profile: &WorkloadProfile,
    requests: usize,
    seed: u64,
) -> Session {
    profile
        .validate()
        // lint:allow(panic) -- documented precondition: profiles come from the catalog or a caller-run validate(); an invalid one is a caller bug surfaced eagerly
        .unwrap_or_else(|e| panic!("invalid workload profile: {e}"));

    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = SessionState::new(profile);
    let mut schedule = Schedule::new();
    for i in 0..requests {
        schedule.push(gen.next_op(&mut rng, i == 0));
    }
    Session {
        name: name.to_string(),
        schedule,
    }
}

/// Internal generator state machine.
struct SessionState<'p> {
    profile: &'p WorkloadProfile,
    /// Remaining requests in the current sequential run (0 = not in a run).
    run_remaining: u32,
    /// Next LBA if the run continues.
    run_next_lba: u64,
    /// Remaining requests in the current burst.
    burst_remaining: u32,
}

impl<'p> SessionState<'p> {
    fn new(profile: &'p WorkloadProfile) -> Self {
        SessionState {
            profile,
            run_remaining: 0,
            run_next_lba: 0,
            burst_remaining: 0,
        }
    }

    /// Geometric draw with the given mean (support starts at 1).
    fn geometric<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u32 {
        let p = (1.0 / mean).clamp(1e-6, 1.0);
        let mut len = 1u32;
        while len < 100_000 && !rng.gen_bool(p) {
            len += 1;
        }
        len
    }

    fn sample_lba<R: Rng + ?Sized>(&self, rng: &mut R, sectors: u32) -> u64 {
        let p = self.profile;
        let limit = p.footprint_sectors.saturating_sub(u64::from(sectors) * 128);
        let hot_limit = ((limit as f64) * p.hot_zone_fraction) as u64;
        let range = if rng.gen_bool(p.hot_fraction) && hot_limit > 0 {
            0..hot_limit.max(1)
        } else {
            hot_limit..limit.max(hot_limit + 1)
        };
        // Align to 4 KiB like a file system would.
        (rng.gen_range(range) / 8) * 8
    }

    fn next_op<R: Rng + ?Sized>(&mut self, rng: &mut R, first: bool) -> ScheduledOp {
        let p = self.profile;

        // --- address & size ---
        let sectors = p.size_mix.sample(rng);
        let lba = if self.run_remaining > 0
            && self.run_next_lba + u64::from(sectors) < p.footprint_sectors
        {
            self.run_remaining -= 1;
            self.run_next_lba
        } else if rng.gen_bool(p.seq_start_prob) {
            self.run_remaining = Self::geometric(rng, p.seq_run_mean);
            self.sample_lba(rng, sectors)
        } else {
            self.run_remaining = 0;
            self.sample_lba(rng, sectors)
        };
        self.run_next_lba = lba + u64::from(sectors);

        // --- operation type ---
        let op = if rng.gen_bool(p.read_ratio) {
            OpType::Read
        } else {
            OpType::Write
        };

        // --- timing: burst structure ---
        let (pre_delay, mode) = if first {
            (SimDuration::ZERO, IssueMode::Sync)
        } else if self.burst_remaining > 0 {
            self.burst_remaining -= 1;
            let gap = SimDuration::from_usecs_f64(
                -p.burst.intra_gap_us * (1.0 - rng.gen::<f64>()).ln(), // Exp(mean)
            );
            let mode = if rng.gen_bool(p.burst.async_prob) {
                IssueMode::Async
            } else {
                IssueMode::Sync
            };
            (gap, mode)
        } else {
            self.burst_remaining = Self::geometric(rng, p.burst.mean_length).saturating_sub(1);
            (p.idle.sample(rng), IssueMode::Sync)
        };

        ScheduledOp {
            pre_delay,
            request: IoRequest::new(op, lba, sectors),
            mode,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{BurstModel, IdleModel, SizeMix};
    use tt_device::{LinearDevice, LinearDeviceConfig};
    use tt_trace::{classify_sequentiality, TraceStats};

    fn quick_profile() -> WorkloadProfile {
        WorkloadProfile {
            read_ratio: 0.7,
            size_mix: SizeMix::around_kb(8.0),
            seq_start_prob: 0.2,
            seq_run_mean: 5.0,
            ..WorkloadProfile::default()
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let p = quick_profile();
        let a = generate_session("x", &p, 500, 7);
        let b = generate_session("x", &p, 500, 7);
        assert_eq!(a, b);
        let c = generate_session("x", &p, 500, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn read_ratio_respected() {
        let p = quick_profile();
        let s = generate_session("x", &p, 5_000, 1);
        let reads = s
            .schedule
            .ops()
            .iter()
            .filter(|o| o.request.op.is_read())
            .count();
        let ratio = reads as f64 / 5_000.0;
        assert!((0.66..0.74).contains(&ratio), "read ratio {ratio}");
    }

    #[test]
    fn sizes_match_mixture_mean() {
        let p = quick_profile();
        let s = generate_session("x", &p, 5_000, 2);
        let mean_kb: f64 = s
            .schedule
            .ops()
            .iter()
            .map(|o| f64::from(o.request.sectors) / 2.0)
            .sum::<f64>()
            / 5_000.0;
        assert!((mean_kb - 8.0).abs() < 1.0, "mean size {mean_kb}");
    }

    #[test]
    fn footprint_respected() {
        let mut p = quick_profile();
        p.footprint_sectors = 1024 * 1024;
        let s = generate_session("x", &p, 2_000, 3);
        assert!(s
            .schedule
            .ops()
            .iter()
            .all(|o| o.request.end_lba() <= p.footprint_sectors));
    }

    #[test]
    fn materialized_trace_shows_sequential_runs() {
        let mut p = quick_profile();
        p.seq_start_prob = 0.5;
        p.seq_run_mean = 10.0;
        let s = generate_session("x", &p, 2_000, 4);
        let mut dev = LinearDevice::new(LinearDeviceConfig::default());
        let out = s.materialize(&mut dev, true);
        let classes = classify_sequentiality(&out.trace);
        let seq = classes.iter().filter(|c| c.is_sequential()).count();
        assert!(
            seq as f64 / 2_000.0 > 0.3,
            "expected sequential runs, got {seq}"
        );
    }

    #[test]
    fn idle_heavy_profile_produces_long_gaps() {
        let mut p = quick_profile();
        p.burst = BurstModel {
            mean_length: 2.0,
            async_prob: 0.0,
            intra_gap_us: 10.0,
        };
        p.idle = IdleModel {
            think_mean_us: 500_000.0,
            long_idle_prob: 0.2,
            long_mean_us: 5_000_000.0,
        };
        let s = generate_session("x", &p, 500, 5);
        let mut dev = LinearDevice::new(LinearDeviceConfig::default());
        let out = s.materialize(&mut dev, true);
        let stats = TraceStats::compute(&out.trace);
        assert!(
            stats.max_inter_arrival > SimDuration::from_msecs(100),
            "max gap {}",
            stats.max_inter_arrival
        );
    }

    #[test]
    fn ground_truth_vectors_align() {
        let s = generate_session("x", &quick_profile(), 100, 6);
        assert_eq!(s.ground_truth_idle().len(), 100);
        assert_eq!(s.modes().len(), 100);
        assert_eq!(s.ground_truth_idle()[0], SimDuration::ZERO);
    }

    #[test]
    fn async_fraction_tracks_burst_model() {
        let mut p = quick_profile();
        p.burst = BurstModel {
            mean_length: 20.0,
            async_prob: 0.9,
            intra_gap_us: 5.0,
        };
        let s = generate_session("x", &p, 5_000, 9);
        let asyncs = s
            .schedule
            .ops()
            .iter()
            .filter(|o| o.mode.is_async())
            .count();
        assert!(
            asyncs as f64 / 5_000.0 > 0.5,
            "async fraction {}",
            asyncs as f64 / 5_000.0
        );
    }
}
