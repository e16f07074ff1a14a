//! The [`BlockDevice`] abstraction all replay and reconstruction code
//! targets.

use std::fmt;

use tt_trace::time::{SimDuration, SimInstant};

use crate::request::{IoRequest, ServiceOutcome};

/// A transient, retryable device failure reported by
/// [`BlockDevice::try_service`].
///
/// A fault carries no timing: the device did not make progress on the
/// request. Whether and when the caller retries is the caller's business
/// (replay threads a `RetryPolicy` through; see `tt_sim`).
///
/// # Examples
///
/// ```
/// use tt_device::ServiceFault;
///
/// let fault = ServiceFault::new("injected transient error");
/// assert!(fault.to_string().contains("transient"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceFault {
    reason: String,
}

impl ServiceFault {
    /// Creates a fault with a human-readable reason.
    #[must_use]
    pub fn new(reason: impl Into<String>) -> Self {
        ServiceFault {
            reason: reason.into(),
        }
    }

    /// The human-readable reason the request failed.
    #[must_use]
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl fmt::Display for ServiceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "device fault: {}", self.reason)
    }
}

impl std::error::Error for ServiceFault {}

/// A stateful storage device model.
///
/// Implementations are *deterministic simulators*: given the same sequence
/// of `(request, issue)` calls after a [`reset`](BlockDevice::reset), they
/// produce the same outcomes. State includes head position (HDD), resource
/// next-free times (flash), and last-LBA tracking for sequential detection.
///
/// Requests must be issued in non-decreasing `issue` order; models may debug
/// assert this. The trait is object-safe — reconstruction pipelines take
/// `&mut dyn BlockDevice` so old and new storage plug in interchangeably.
/// `Send` is a supertrait, so a boxed device (and a pipeline holding one)
/// can move to another thread; device models are plain simulator state
/// with no thread affinity.
///
/// # Examples
///
/// ```
/// use tt_device::{BlockDevice, IoRequest, LinearDevice, LinearDeviceConfig};
/// use tt_trace::{time::SimInstant, OpType};
///
/// let mut dev = LinearDevice::new(LinearDeviceConfig::default());
/// let out = dev.service(&IoRequest::new(OpType::Read, 0, 8), SimInstant::ZERO);
/// assert!(out.device_time > tt_trace::time::SimDuration::ZERO);
/// ```
pub trait BlockDevice: Send {
    /// Services `request` issued at `issue`, returning its timing
    /// decomposition and advancing internal state.
    fn service(&mut self, request: &IoRequest, issue: SimInstant) -> ServiceOutcome;

    /// Fallible variant of [`service`](BlockDevice::service): a device may
    /// refuse a request with a transient [`ServiceFault`] instead of
    /// completing it.
    ///
    /// The default forwards to `service` and never fails — every existing
    /// model is infallible. Fault-injecting wrappers
    /// ([`FaultyDevice`](crate::FaultyDevice)) override this; retry-aware
    /// callers (`tt_sim` replay) call it and decide when to re-issue. A
    /// failed attempt consumes no device time and must leave timing state
    /// unchanged; re-issuing the same request later (at an equal or later
    /// `issue`) is always legal.
    fn try_service(
        &mut self,
        request: &IoRequest,
        issue: SimInstant,
    ) -> Result<ServiceOutcome, ServiceFault> {
        Ok(self.service(request, issue))
    }

    /// Returns the device to its initial state (idle, head parked, queues
    /// empty) so a fresh replay can start.
    fn reset(&mut self);

    /// Short human-readable model name (for reports and logs).
    fn name(&self) -> &str;

    /// A **state-independent** upper bound on `complete − max(busy, issue)`
    /// for servicing `request`: no matter what state the device is in, the
    /// request finishes (and every internal resource frees up) no later
    /// than `max(latest internal next-free instant, issue) + bound`.
    ///
    /// `None` means the model does not expose a bound. The bound may be
    /// loose — looseness only costs cut opportunities, never correctness.
    fn service_bound(&self, request: &IoRequest) -> Option<SimDuration> {
        let _ = request;
        None
    }

    /// An upper bound on the device's **latest internal next-free
    /// instant** in its current state: every queue, actuator, channel and
    /// plane is provably idle from this instant on. `None` when the model
    /// does not expose one.
    ///
    /// Together with [`service_bound`](BlockDevice::service_bound) this
    /// drives quiescent-cut detection: a request issued at or after the
    /// bound observes zero queueing from time-state.
    fn busy_bound(&self) -> Option<SimInstant> {
        None
    }

    /// Advances the device's **positional** state (sequentiality
    /// detection, head position, wear counters) past `request` without
    /// performing any timing math — as if the request had been serviced at
    /// a quiescent instant.
    ///
    /// A freshly built device fast-forwarded past a request sequence holds
    /// the positional state of one that serviced it. Time-state
    /// (busy/next-free instants) is intentionally left alone: at a
    /// quiescent cut it is provably invisible to later requests.
    ///
    /// # Panics
    ///
    /// The default implementation panics: a model that exposes
    /// [`service_bound`](BlockDevice::service_bound) and
    /// [`busy_bound`](BlockDevice::busy_bound) is obliged to override it.
    fn fast_forward(&mut self, request: &IoRequest) {
        let _ = request;
        // lint:allow(panic) -- documented trait contract: calling fast_forward() on a model that does not implement it is a device-model bug, not a data error
        panic!(
            "device model {:?} does not implement fast_forward()",
            self.name()
        );
    }
}

impl<D: BlockDevice + ?Sized> BlockDevice for &mut D {
    fn service(&mut self, request: &IoRequest, issue: SimInstant) -> ServiceOutcome {
        (**self).service(request, issue)
    }

    fn try_service(
        &mut self,
        request: &IoRequest,
        issue: SimInstant,
    ) -> Result<ServiceOutcome, ServiceFault> {
        (**self).try_service(request, issue)
    }

    fn reset(&mut self) {
        (**self).reset();
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn service_bound(&self, request: &IoRequest) -> Option<SimDuration> {
        (**self).service_bound(request)
    }

    fn busy_bound(&self) -> Option<SimInstant> {
        (**self).busy_bound()
    }

    fn fast_forward(&mut self, request: &IoRequest) {
        (**self).fast_forward(request);
    }
}

impl<D: BlockDevice + ?Sized> BlockDevice for Box<D> {
    fn service(&mut self, request: &IoRequest, issue: SimInstant) -> ServiceOutcome {
        (**self).service(request, issue)
    }

    fn try_service(
        &mut self,
        request: &IoRequest,
        issue: SimInstant,
    ) -> Result<ServiceOutcome, ServiceFault> {
        (**self).try_service(request, issue)
    }

    fn reset(&mut self) {
        (**self).reset();
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn service_bound(&self, request: &IoRequest) -> Option<SimDuration> {
        (**self).service_bound(request)
    }

    fn busy_bound(&self) -> Option<SimInstant> {
        (**self).busy_bound()
    }

    fn fast_forward(&mut self, request: &IoRequest) {
        (**self).fast_forward(request);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::{LinearDevice, LinearDeviceConfig};
    use tt_trace::OpType;

    #[test]
    fn trait_is_object_safe_and_forwards() {
        let mut dev = LinearDevice::new(LinearDeviceConfig::default());
        let dyn_dev: &mut dyn BlockDevice = &mut dev;
        let req = IoRequest::new(OpType::Read, 0, 8);
        let out = dyn_dev.service(&req, SimInstant::ZERO);
        assert!(out.total() > tt_trace::time::SimDuration::ZERO);
        assert!(!dyn_dev.name().is_empty());
        dyn_dev.reset();
    }

    /// A model that opts out of the bound contract entirely.
    struct Opaque;

    impl BlockDevice for Opaque {
        fn service(&mut self, _request: &IoRequest, _issue: SimInstant) -> ServiceOutcome {
            ServiceOutcome::new(
                tt_trace::time::SimDuration::ZERO,
                tt_trace::time::SimDuration::ZERO,
                tt_trace::time::SimDuration::from_usecs(1),
            )
        }

        fn reset(&mut self) {}

        fn name(&self) -> &str {
            "opaque"
        }
    }

    #[test]
    fn bound_contract_defaults_to_unsupported() {
        let dev = Opaque;
        assert!(dev.busy_bound().is_none());
        assert!(dev
            .service_bound(&IoRequest::new(OpType::Read, 0, 8))
            .is_none());
    }

    #[test]
    #[should_panic(expected = "fast_forward")]
    fn default_fast_forward_panics() {
        let mut dev = Opaque;
        dev.fast_forward(&IoRequest::new(OpType::Read, 0, 8));
    }

    #[test]
    fn default_try_service_is_infallible() {
        let mut dev = LinearDevice::new(LinearDeviceConfig::default());
        let req = IoRequest::new(OpType::Read, 0, 8);
        let expect = dev.service(&req, SimInstant::ZERO);
        dev.reset();
        let got = dev
            .try_service(&req, SimInstant::ZERO)
            .expect("default try_service forwards to service");
        assert_eq!(got, expect);
    }

    #[test]
    fn boxed_device_forwards() {
        let mut dev: Box<dyn BlockDevice> =
            Box::new(LinearDevice::new(LinearDeviceConfig::default()));
        let req = IoRequest::new(OpType::Write, 64, 8);
        let out = dev.service(&req, SimInstant::from_usecs(5));
        assert!(out.device_time > tt_trace::time::SimDuration::ZERO);
        dev.reset();
        assert!(!dev.name().is_empty());
    }
}
