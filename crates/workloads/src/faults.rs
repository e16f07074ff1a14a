//! Named fault scenarios: ready-made [`FaultPlan`]s for robustness tests,
//! property-test seeds, and the CLI's `--fault-plan` flag.
//!
//! Each generator is a pure function of its `seed` — the same seed always
//! produces the same plan, and the plan itself is deterministic per
//! request (see [`FaultPlan`]), so a fault-injected replay is exactly as
//! reproducible as a clean one. The scenarios are sized for the
//! workspace's replay scales (hundreds to tens of thousands of requests):
//! frequent enough to exercise every code path, rare enough that a
//! degraded run still resembles the clean one.

use tt_device::FaultPlan;
use tt_trace::time::{SimDuration, SimInstant};

/// Occasional large latency spikes: 2% of requests take an extra 5ms —
/// the "one misbehaving die" shape.
#[must_use]
pub fn latency_spikes(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with_spike(0.02, SimDuration::from_msecs(5))
}

/// A throttling window: between t=50ms and t=150ms of simulated time the
/// device runs 4× slower — thermal throttling or a background GC burst.
#[must_use]
pub fn throttling(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with_throttle(SimInstant::from_msecs(50), SimInstant::from_msecs(150), 4.0)
}

/// Transient per-request errors: 1% of requests fail twice before
/// succeeding — the retry-path workout.
#[must_use]
pub fn transient_errors(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with_error(0.01, 2)
}

/// Everything at once: mild spikes, a throttle window, sparse transient
/// errors, and a full stall every 5000 requests.
#[must_use]
pub fn mixed(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_spike(0.01, SimDuration::from_msecs(2))
        .with_throttle(SimInstant::from_msecs(80), SimInstant::from_msecs(120), 2.0)
        .with_error(0.005, 1)
        .with_stall(5000, SimDuration::from_msecs(20))
}

/// Looks up a scenario by its CLI spelling: `latency-spike`, `throttling`,
/// `errors`, or `mixed`. Returns `None` for unknown names.
#[must_use]
pub fn scenario(name: &str, seed: u64) -> Option<FaultPlan> {
    match name {
        "latency-spike" => Some(latency_spikes(seed)),
        "throttling" => Some(throttling(seed)),
        "errors" => Some(transient_errors(seed)),
        "mixed" => Some(mixed(seed)),
        _ => None,
    }
}

/// The CLI spellings [`scenario`] accepts, for usage/error messages.
pub const SCENARIO_NAMES: [&str; 4] = ["latency-spike", "throttling", "errors", "mixed"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_seed_deterministic() {
        for name in SCENARIO_NAMES {
            assert_eq!(scenario(name, 42), scenario(name, 42), "{name}");
        }
        assert_eq!(scenario("bogus", 42), None);
    }

    #[test]
    fn no_scenario_is_empty() {
        for name in SCENARIO_NAMES {
            assert!(!scenario(name, 7).unwrap().is_empty(), "{name}");
        }
    }
}
