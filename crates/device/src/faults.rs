//! Deterministic fault injection: [`FaultPlan`] + [`FaultyDevice`].
//!
//! Real devices stall, throttle, and transiently fail; real replay
//! infrastructure has to survive that without losing determinism. This
//! module wraps any [`BlockDevice`] in a [`FaultyDevice`] that perturbs its
//! outcomes according to a seeded [`FaultPlan`]:
//!
//! * **latency spikes** — a random subset of requests takes extra device
//!   time;
//! * **throttling windows** — device time is inflated by a factor inside an
//!   absolute simulated-time window;
//! * **transient errors** — a random subset of requests fails a fixed
//!   number of times before succeeding (surfaced through
//!   [`BlockDevice::try_service`], retried by `tt_sim`'s `RetryPolicy`);
//! * **full stalls** — every N-th request is held for a fixed duration.
//!
//! Every decision is a *pure function* of `(seed, request ordinal)` (or the
//! absolute issue instant, for throttle windows) — there is no RNG state to
//! desynchronise, so the same plan produces the same faults regardless of
//! worker count, chunk size, or how many times a request is retried.
//!
//! # Examples
//!
//! ```
//! use tt_device::{presets, BlockDevice, FaultPlan, FaultyDevice, IoRequest};
//! use tt_trace::{time::{SimDuration, SimInstant}, OpType};
//!
//! let plan = FaultPlan::new(42).with_spike(0.5, SimDuration::from_msecs(2));
//! let mut faulty = FaultyDevice::new(presets::intel_750_array(), plan);
//!
//! let req = IoRequest::new(OpType::Read, 4096, 8);
//! let out = faulty.service(&req, SimInstant::ZERO);
//! assert!(out.total() > SimDuration::ZERO);
//! ```

use tt_trace::time::{SimDuration, SimInstant};

use crate::device::{BlockDevice, ServiceFault};
use crate::request::{IoRequest, ServiceOutcome};

/// Latency-spike rule: with `probability`, a request's device time grows by
/// `extra`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpikeRule {
    /// Per-request probability of a spike, in `[0, 1]`.
    pub probability: f64,
    /// Extra device time added when the spike fires.
    pub extra: SimDuration,
}

/// Throttling rule: device time is multiplied by `factor` for requests
/// issued inside `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThrottleRule {
    /// Window start (inclusive), in absolute simulated time.
    pub from: SimInstant,
    /// Window end (exclusive), in absolute simulated time.
    pub until: SimInstant,
    /// Device-time multiplier inside the window; values below 1 are
    /// treated as 1 (throttling never speeds a device up).
    pub factor: f64,
}

/// Transient-error rule: with `probability`, a request fails `fails` times
/// before succeeding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorRule {
    /// Per-request probability of being fault-prone, in `[0, 1]`.
    pub probability: f64,
    /// How many consecutive attempts fail before the request succeeds.
    pub fails: u32,
}

/// Full-stall rule: every `every`-th request is held for `duration` before
/// the device sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallRule {
    /// Stall period in requests (every N-th request stalls); 0 disables.
    pub every: u64,
    /// How long the stalled request is held.
    pub duration: SimDuration,
}

/// A deterministic, seeded schedule of device faults.
///
/// A plan is immutable and stateless: every query is a pure function of the
/// seed plus the request ordinal (its 0-based position in the device's
/// request sequence) or the absolute issue instant. Two [`FaultyDevice`]s
/// built from equal plans perturb identically.
///
/// # Examples
///
/// ```
/// use tt_device::FaultPlan;
/// use tt_trace::time::{SimDuration, SimInstant};
///
/// let plan = FaultPlan::new(7)
///     .with_spike(0.1, SimDuration::from_msecs(5))
///     .with_throttle(SimInstant::from_secs(1), SimInstant::from_secs(2), 3.0)
///     .with_error(0.05, 2)
///     .with_stall(1000, SimDuration::from_msecs(50));
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    spike: Option<SpikeRule>,
    throttle: Option<ThrottleRule>,
    error: Option<ErrorRule>,
    stall: Option<StallRule>,
}

/// Domain-separation salts for the per-rule hash streams.
const SALT_SPIKE: u64 = 0x0053_5049_4B45; // "SPIKE"
const SALT_ERROR: u64 = 0x0045_5252_4F52; // "ERROR"

/// SplitMix64-style finaliser over `(seed, ordinal, salt)`.
#[inline]
fn mix(seed: u64, ordinal: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic Bernoulli trial from the hash stream.
#[inline]
fn hit(seed: u64, ordinal: u64, salt: u64, probability: f64) -> bool {
    if probability <= 0.0 {
        false
    } else if probability >= 1.0 {
        true
    } else {
        // Top 53 bits → uniform in [0, 1) with full f64 precision.
        let unit = (mix(seed, ordinal, salt) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < probability
    }
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            spike: None,
            throttle: None,
            error: None,
            stall: None,
        }
    }

    /// Adds a latency-spike rule: with `probability`, add `extra` device
    /// time. Probabilities are clamped to `[0, 1]`.
    #[must_use]
    pub fn with_spike(mut self, probability: f64, extra: SimDuration) -> Self {
        self.spike = Some(SpikeRule {
            probability: probability.clamp(0.0, 1.0),
            extra,
        });
        self
    }

    /// Adds a throttling window: device time ×`factor` for requests issued
    /// in `[from, until)`.
    #[must_use]
    pub fn with_throttle(mut self, from: SimInstant, until: SimInstant, factor: f64) -> Self {
        self.throttle = Some(ThrottleRule {
            from,
            until,
            factor: factor.max(1.0),
        });
        self
    }

    /// Adds a transient-error rule: with `probability`, a request fails
    /// `fails` consecutive attempts before succeeding.
    #[must_use]
    pub fn with_error(mut self, probability: f64, fails: u32) -> Self {
        self.error = Some(ErrorRule {
            probability: probability.clamp(0.0, 1.0),
            fails,
        });
        self
    }

    /// Adds a full-stall rule: every `every`-th request is held for
    /// `duration` (`every == 0` disables the rule).
    #[must_use]
    pub fn with_stall(mut self, every: u64, duration: SimDuration) -> Self {
        self.stall = Some(StallRule { every, duration });
        self
    }

    /// The plan's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `true` when the plan perturbs nothing — a [`FaultyDevice`] carrying
    /// it behaves bit-identically to its inner device.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spike.is_none()
            && self.throttle.is_none()
            && self.error.is_none()
            && self.stall.is_none()
    }

    /// How many consecutive attempts of request `ordinal` fail before it
    /// succeeds.
    #[must_use]
    #[inline]
    pub fn fail_count(&self, ordinal: u64) -> u32 {
        match self.error {
            Some(rule)
                if rule.fails > 0 && hit(self.seed, ordinal, SALT_ERROR, rule.probability) =>
            {
                rule.fails
            }
            _ => 0,
        }
    }

    /// Extra device time the spike rule adds to request `ordinal`.
    #[must_use]
    #[inline]
    pub fn spike_extra(&self, ordinal: u64) -> SimDuration {
        match self.spike {
            Some(rule) if hit(self.seed, ordinal, SALT_SPIKE, rule.probability) => rule.extra,
            _ => SimDuration::ZERO,
        }
    }

    /// Stall duration applied to request `ordinal` (every N-th request).
    #[must_use]
    #[inline]
    pub fn stall_extra(&self, ordinal: u64) -> SimDuration {
        match self.stall {
            Some(rule) if rule.every > 0 && (ordinal + 1).is_multiple_of(rule.every) => {
                rule.duration
            }
            _ => SimDuration::ZERO,
        }
    }

    /// Device-time multiplier for a request issued at `issue` (1.0 outside
    /// every throttle window).
    #[must_use]
    #[inline]
    pub fn throttle_factor(&self, issue: SimInstant) -> f64 {
        match self.throttle {
            Some(rule) if issue >= rule.from && issue < rule.until => rule.factor,
            _ => 1.0,
        }
    }

    /// Worst-case *additive* perturbation of any single request: spike
    /// extra plus stall duration. Used to widen `service_bound`.
    #[must_use]
    pub fn max_extra(&self) -> SimDuration {
        let spike = self.spike.map_or(SimDuration::ZERO, |r| {
            if r.probability > 0.0 {
                r.extra
            } else {
                SimDuration::ZERO
            }
        });
        let stall = self.stall.map_or(SimDuration::ZERO, |r| {
            if r.every > 0 {
                r.duration
            } else {
                SimDuration::ZERO
            }
        });
        spike + stall
    }

    /// Worst-case *multiplicative* perturbation (the largest throttle
    /// factor, at least 1.0). Used to widen `service_bound`.
    #[must_use]
    pub fn max_factor(&self) -> f64 {
        self.throttle.map_or(1.0, |r| r.factor.max(1.0))
    }
}

/// A [`BlockDevice`] wrapper that applies a [`FaultPlan`] to an inner
/// model.
///
/// The wrapper implements the **full** device contract:
///
/// * [`try_service`](BlockDevice::try_service) surfaces the plan's
///   transient errors; [`service`](BlockDevice::service) stays infallible
///   by absorbing them at zero simulated latency (retry-unaware callers
///   keep working, retry-aware ones see the faults);
/// * the bounds/fast-forward surface forwards to the inner model with
///   bounds widened by the plan's worst-case perturbation.
///
/// Fault decisions are keyed by the request **ordinal** — the 0-based count
/// of successfully serviced (or fast-forwarded) requests — so a device
/// that has been fast-forwarded past the first `k` requests makes exactly
/// the decisions a device that serviced them makes from request `k` on.
#[derive(Debug)]
pub struct FaultyDevice<D> {
    inner: D,
    plan: FaultPlan,
    ordinal: u64,
    /// Failed attempts of the *current* request (reset on success).
    attempts: u32,
    label: String,
}

impl<D: BlockDevice> FaultyDevice<D> {
    /// Wraps `inner` with `plan`.
    #[must_use]
    pub fn new(inner: D, plan: FaultPlan) -> Self {
        let label = format!("faulty({})", inner.name());
        FaultyDevice {
            inner,
            plan,
            ordinal: 0,
            attempts: 0,
            label,
        }
    }

    /// The wrapped plan.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The inner device.
    #[must_use]
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unwraps the inner device.
    #[must_use]
    pub fn into_inner(self) -> D {
        self.inner
    }
}

impl<D: BlockDevice> BlockDevice for FaultyDevice<D> {
    fn service(&mut self, request: &IoRequest, issue: SimInstant) -> ServiceOutcome {
        // Infallible view: transient errors are absorbed (the request
        // "eventually succeeds") at zero simulated latency. Terminates
        // because `fail_count` is finite. Retry-aware callers should use
        // `try_service` and charge backoff themselves.
        loop {
            if let Ok(outcome) = self.try_service(request, issue) {
                return outcome;
            }
        }
    }

    fn try_service(
        &mut self,
        request: &IoRequest,
        issue: SimInstant,
    ) -> Result<ServiceOutcome, ServiceFault> {
        if self.attempts < self.plan.fail_count(self.ordinal) {
            self.attempts += 1;
            return Err(ServiceFault::new(format!(
                "injected transient error (request #{}, attempt {})",
                self.ordinal, self.attempts
            )));
        }

        let mut outcome = self.inner.service(request, issue);
        let factor = self.plan.throttle_factor(issue);
        if factor > 1.0 {
            outcome.device_time = outcome.device_time.mul_f64(factor);
        }
        outcome.device_time += self.plan.spike_extra(self.ordinal);
        outcome.queue_wait += self.plan.stall_extra(self.ordinal);

        self.ordinal += 1;
        self.attempts = 0;
        Ok(outcome)
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.ordinal = 0;
        self.attempts = 0;
    }

    fn name(&self) -> &str {
        &self.label
    }

    fn service_bound(&self, request: &IoRequest) -> Option<SimDuration> {
        // complete' ≤ complete + device_time·(factor−1) + spike + stall
        //          ≤ max(busy, issue) + inner_bound·factor + max_extra,
        // and `mul_f64` rounds to nearest, so 1 ns of slack absorbs the
        // rounding difference between bounding before vs. after scaling.
        let inner = self.inner.service_bound(request)?;
        let scaled = inner.mul_f64(self.plan.max_factor());
        Some(scaled + self.plan.max_extra() + SimDuration::from_nanos(1))
    }

    fn busy_bound(&self) -> Option<SimInstant> {
        // The plan adds no *persistent* time-state: extras perturb a single
        // outcome and never feed back into the inner model's next-free
        // instants, so the inner bound stands.
        self.inner.busy_bound()
    }

    fn fast_forward(&mut self, request: &IoRequest) {
        self.inner.fast_forward(request);
        self.ordinal += 1;
        self.attempts = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::{LinearDevice, LinearDeviceConfig};
    use tt_trace::OpType;

    fn inner() -> LinearDevice {
        LinearDevice::new(LinearDeviceConfig::default())
    }

    fn req(i: u64) -> IoRequest {
        IoRequest::new(OpType::Read, i * 1000, 8)
    }

    #[test]
    fn empty_plan_is_transparent() {
        let mut bare = inner();
        let mut faulty = FaultyDevice::new(inner(), FaultPlan::new(1));
        assert!(faulty.plan().is_empty());
        for i in 0..100 {
            let t = SimInstant::from_usecs(i * 50);
            assert_eq!(bare.service(&req(i), t), faulty.service(&req(i), t));
        }
    }

    #[test]
    fn decisions_are_seed_deterministic() {
        let plan = FaultPlan::new(99)
            .with_spike(0.3, SimDuration::from_msecs(1))
            .with_error(0.2, 2);
        let again = plan.clone();
        for ordinal in 0..1000 {
            assert_eq!(plan.spike_extra(ordinal), again.spike_extra(ordinal));
            assert_eq!(plan.fail_count(ordinal), again.fail_count(ordinal));
        }
        // A different seed makes different decisions somewhere.
        let other = FaultPlan::new(100).with_spike(0.3, SimDuration::from_msecs(1));
        assert!((0..1000).any(|o| plan.spike_extra(o) != other.spike_extra(o)));
    }

    #[test]
    fn spike_probability_roughly_respected() {
        let plan = FaultPlan::new(5).with_spike(0.25, SimDuration::from_msecs(1));
        let hits = (0..10_000)
            .filter(|&o| plan.spike_extra(o) > SimDuration::ZERO)
            .count();
        assert!((2000..3000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn transient_errors_fail_then_succeed() {
        let plan = FaultPlan::new(3).with_error(1.0, 2);
        let mut dev = FaultyDevice::new(inner(), plan);
        let r = req(0);
        assert!(dev.try_service(&r, SimInstant::ZERO).is_err());
        assert!(dev.try_service(&r, SimInstant::ZERO).is_err());
        let out = dev.try_service(&r, SimInstant::ZERO);
        assert!(out.is_ok());
        // Next request fails afresh.
        assert!(dev.try_service(&req(1), SimInstant::ZERO).is_err());
    }

    #[test]
    fn infallible_service_absorbs_errors() {
        let plan = FaultPlan::new(3).with_error(1.0, 3);
        let mut dev = FaultyDevice::new(inner(), plan);
        let mut bare = inner();
        let out = dev.service(&req(0), SimInstant::ZERO);
        assert_eq!(out, bare.service(&req(0), SimInstant::ZERO));
    }

    #[test]
    fn throttle_window_inflates_device_time() {
        let plan = FaultPlan::new(0).with_throttle(
            SimInstant::from_usecs(100),
            SimInstant::from_usecs(200),
            2.0,
        );
        let mut dev = FaultyDevice::new(inner(), plan);
        let mut bare = inner();
        let before = dev.service(&req(0), SimInstant::from_usecs(50));
        assert_eq!(before, bare.service(&req(0), SimInstant::from_usecs(50)));
        let during = dev.service(&req(1), SimInstant::from_usecs(150));
        let reference = bare.service(&req(1), SimInstant::from_usecs(150));
        assert_eq!(during.device_time, reference.device_time * 2);
        assert_eq!(during.channel_delay, reference.channel_delay);
    }

    #[test]
    fn stall_hits_every_nth_request() {
        let plan = FaultPlan::new(0).with_stall(3, SimDuration::from_msecs(10));
        assert_eq!(plan.stall_extra(0), SimDuration::ZERO);
        assert_eq!(plan.stall_extra(1), SimDuration::ZERO);
        assert_eq!(plan.stall_extra(2), SimDuration::from_msecs(10));
        assert_eq!(plan.stall_extra(5), SimDuration::from_msecs(10));
        assert_eq!(plan.stall_extra(6), SimDuration::ZERO);
    }

    #[test]
    fn fast_forward_advances_ordinal() {
        let plan = FaultPlan::new(11).with_spike(0.5, SimDuration::from_msecs(1));
        let mut seq = FaultyDevice::new(inner(), plan.clone());
        let mut ff = FaultyDevice::new(inner(), plan);
        let t = SimInstant::from_secs(1);
        for i in 0..5 {
            seq.service(&req(i), SimInstant::from_usecs(i * 30_000));
            ff.fast_forward(&req(i));
        }
        // Ordinal #5's spike decision matches; inner positional state
        // matches; only time-state (irrelevant at a quiescent instant)
        // differs — and at t = 1s both devices are long idle.
        assert_eq!(seq.service(&req(5), t), ff.service(&req(5), t));
    }

    #[test]
    fn service_bound_covers_perturbed_outcomes() {
        let plan = FaultPlan::new(13)
            .with_spike(1.0, SimDuration::from_msecs(3))
            .with_throttle(SimInstant::ZERO, SimInstant::from_secs(1000), 2.5)
            .with_stall(2, SimDuration::from_msecs(1));
        let mut dev = FaultyDevice::new(inner(), plan);
        let mut t = SimInstant::ZERO;
        for i in 0..50 {
            let r = req(i);
            let bound = dev.service_bound(&r).expect("linear model has bounds");
            let busy = dev.busy_bound().expect("linear model has bounds");
            let out = dev.service(&r, t);
            let complete = out.complete_at(t);
            assert!(complete <= busy.max(t) + bound, "request {i}");
            t += SimDuration::from_usecs(500);
        }
    }

    #[test]
    fn reset_restarts_the_plan() {
        let plan = FaultPlan::new(17).with_error(1.0, 1);
        let mut dev = FaultyDevice::new(inner(), plan);
        assert!(dev.try_service(&req(0), SimInstant::ZERO).is_err());
        assert!(dev.try_service(&req(0), SimInstant::ZERO).is_ok());
        dev.reset();
        assert!(dev.try_service(&req(0), SimInstant::ZERO).is_err());
    }
}
