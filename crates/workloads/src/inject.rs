//! Idle injection for verification (paper §V-A).
//!
//! "Since the block traces have no information on `Tidle`, we inject `Tidle`
//! in random places with various idle periods, ranging from 100 us to 100
//! ms. [...] injected `Tidle` accounts for 10% of the total I/O
//! instructions."
//!
//! [`inject_idle`] reproduces that methodology: it picks a deterministic
//! random subset of gap positions, stretches each selected gap by the idle
//! period (shifting all later records), and returns the ground-truth
//! injection list so the inference's TP/FP statistics can be scored.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;

use tt_trace::time::SimDuration;
use tt_trace::{Trace, TraceMeta};

/// Ground truth for one injected idle period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct InjectedIdle {
    /// The gap following this record index was stretched.
    pub index: usize,
    /// By how much.
    pub period: SimDuration,
}

/// Stretches a random `fraction` of `trace`'s gaps by `period`.
///
/// Selection is uniform over the `len-1` gap positions, deterministic in
/// `seed`. Returns the modified trace and the injection ground truth sorted
/// by index.
///
/// # Panics
///
/// Panics if `fraction` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use tt_trace::{BlockRecord, OpType, Trace, TraceMeta, time::{SimDuration, SimInstant}};
/// use tt_workloads::inject_idle;
///
/// let recs = (0..100)
///     .map(|i| BlockRecord::new(SimInstant::from_usecs(i * 100), i * 8, 8, OpType::Read))
///     .collect();
/// let trace = Trace::from_records(TraceMeta::named("t"), recs);
///
/// let (injected, truth) = inject_idle(&trace, 0.1, SimDuration::from_msecs(10), 42);
/// assert_eq!(truth.len(), 9); // floor(0.1 * 99) gaps
/// assert_eq!(injected.len(), trace.len());
/// // Total span grew by exactly the injected amount.
/// let grown = injected.span() - trace.span();
/// assert_eq!(grown, SimDuration::from_msecs(10) * 9);
/// ```
#[must_use]
pub fn inject_idle(
    trace: &Trace,
    fraction: f64,
    period: SimDuration,
    seed: u64,
) -> (Trace, Vec<InjectedIdle>) {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction must be in [0,1], got {fraction}"
    );
    let gaps = trace.len().saturating_sub(1);
    let k = ((gaps as f64) * fraction).floor() as usize;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut positions: Vec<usize> = (0..gaps).collect();
    positions.shuffle(&mut rng);
    let mut chosen: Vec<usize> = positions.into_iter().take(k).collect();
    chosen.sort_unstable();

    let truth: Vec<InjectedIdle> = chosen
        .iter()
        .map(|&index| InjectedIdle { index, period })
        .collect();

    // Walk records once, accumulating the shift.
    let mut shifted = Vec::with_capacity(trace.len());
    let mut shift = SimDuration::ZERO;
    let mut next_inject = 0usize;
    for (i, mut r) in trace.iter().enumerate() {
        // Injections at gap j shift records j+1...
        while next_inject < chosen.len() && chosen[next_inject] < i {
            shift += period;
            next_inject += 1;
        }
        r.arrival += shift;
        if let Some(t) = &mut r.timing {
            t.issue += shift;
            t.complete += shift;
        }
        shifted.push(r);
    }

    let meta = TraceMeta::named(trace.meta().name.clone()).with_source(format!(
        "{} + injected idle {period} at {k} gaps",
        trace.meta().source
    ));
    (Trace::from_records(meta, shifted), truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_trace::time::SimInstant;
    use tt_trace::{BlockRecord, OpType};

    fn uniform_trace(n: u64, gap_us: u64) -> Trace {
        let recs = (0..n)
            .map(|i| BlockRecord::new(SimInstant::from_usecs(i * gap_us), i * 8, 8, OpType::Read))
            .collect();
        Trace::from_records(TraceMeta::named("t"), recs)
    }

    #[test]
    fn injected_gaps_are_stretched_exactly() {
        let trace = uniform_trace(50, 100);
        let period = SimDuration::from_msecs(5);
        let (out, truth) = inject_idle(&trace, 0.2, period, 7);
        for inj in &truth {
            let gap = out.inter_arrival(inj.index).unwrap();
            assert_eq!(gap, SimDuration::from_usecs(100) + period);
        }
    }

    #[test]
    fn untouched_gaps_unchanged() {
        let trace = uniform_trace(50, 100);
        let (out, truth) = inject_idle(&trace, 0.2, SimDuration::from_msecs(5), 7);
        let injected: std::collections::HashSet<usize> = truth.iter().map(|i| i.index).collect();
        for i in 0..trace.len() - 1 {
            if !injected.contains(&i) {
                assert_eq!(out.inter_arrival(i), trace.inter_arrival(i));
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let trace = uniform_trace(100, 50);
        let (a, ta) = inject_idle(&trace, 0.1, SimDuration::from_msecs(1), 3);
        let (b, tb) = inject_idle(&trace, 0.1, SimDuration::from_msecs(1), 3);
        assert_eq!(a, b);
        assert_eq!(ta, tb);
        let (_, tc) = inject_idle(&trace, 0.1, SimDuration::from_msecs(1), 4);
        assert_ne!(ta, tc);
    }

    #[test]
    fn zero_fraction_is_identity() {
        let trace = uniform_trace(20, 100);
        let (out, truth) = inject_idle(&trace, 0.0, SimDuration::from_msecs(1), 1);
        assert!(truth.is_empty());
        assert_eq!(out.columns(), trace.columns());
    }

    #[test]
    fn full_fraction_touches_every_gap() {
        let trace = uniform_trace(10, 100);
        let (_, truth) = inject_idle(&trace, 1.0, SimDuration::from_msecs(1), 1);
        assert_eq!(truth.len(), 9);
    }

    #[test]
    fn device_timing_shifts_along() {
        use tt_trace::ServiceTiming;
        let recs = (0..10u64)
            .map(|i| {
                BlockRecord::new(SimInstant::from_usecs(i * 100), i * 8, 8, OpType::Read)
                    .with_timing(ServiceTiming::new(
                        SimInstant::from_usecs(i * 100 + 1),
                        SimInstant::from_usecs(i * 100 + 50),
                    ))
            })
            .collect();
        let trace = Trace::from_records(TraceMeta::named("t"), recs);
        let (out, _) = inject_idle(&trace, 0.5, SimDuration::from_msecs(1), 9);
        for rec in out.iter() {
            let t = rec.timing.unwrap();
            // D stays 1us after Q, C 50us after Q: shifts preserved offsets.
            assert_eq!(t.issue - rec.arrival, SimDuration::from_usecs(1));
            assert_eq!(t.complete - rec.arrival, SimDuration::from_usecs(50));
        }
    }

    #[test]
    fn empty_and_single_record_traces() {
        let empty = Trace::new();
        let (out, truth) = inject_idle(&empty, 0.5, SimDuration::from_msecs(1), 1);
        assert!(out.is_empty() && truth.is_empty());
        let single = uniform_trace(1, 100);
        let (out, truth) = inject_idle(&single, 0.5, SimDuration::from_msecs(1), 1);
        assert_eq!(out.len(), 1);
        assert!(truth.is_empty());
    }
}
