//! Quiescent-cut analysis of open-loop schedules.
//!
//! A **quiescent cut** is a schedule point where the device is *provably
//! idle*. Every model exposing the bound contract
//! ([`BlockDevice::service_bound`] / [`BlockDevice::busy_bound`])
//! promises: servicing a request issued at `r` leaves every internal
//! next-free instant (and the completion) at or below
//! `max(busy, r) + bound`, where `busy` bounds the latest next-free instant
//! beforehand. Running the recurrence
//!
//! ```text
//! B₋₁ = busy_bound(initial state)
//! Bᵢ  = max(Bᵢ₋₁, rᵢ) + service_bound(requestᵢ)
//! ```
//!
//! over an open-loop schedule (where the ready times `rᵢ` are pre-delay
//! prefix sums, independent of the device) yields a monotone upper bound
//! on every resource residue after request `i`. A cut before request `j`
//! is quiescent iff `Bⱼ₋₁ ≤ rⱼ`: every queue, actuator, channel and plane
//! has drained by the time request `j` becomes ready. The cut count is a
//! cheap measure of how bursty a schedule is on a given device.

use tt_device::BlockDevice;
use tt_trace::time::SimInstant;

use crate::replay::ScheduledOp;

/// All quiescent cut indices of `ops` on `device` in its current state: a
/// cut at index `j` means the device is provably idle by the time op `j`
/// becomes ready.
///
/// Returns `None` when the schedule cannot be analysed — any non-`Async`
/// operation (ready times then depend on completions), or a device that
/// does not expose [`BlockDevice::busy_bound`] /
/// [`BlockDevice::service_bound`].
///
/// # Examples
///
/// ```
/// use tt_device::{IoRequest, LinearDevice, LinearDeviceConfig};
/// use tt_sim::{quiescent_cuts, IssueMode, ScheduledOp};
/// use tt_trace::{time::SimDuration, OpType};
///
/// let device = LinearDevice::new(LinearDeviceConfig::default());
/// let ops: Vec<ScheduledOp> = (0..4)
///     .map(|_| ScheduledOp {
///         pre_delay: SimDuration::from_secs(60), // far above any bound
///         request: IoRequest::new(OpType::Read, 0, 8),
///         mode: IssueMode::Async,
///     })
///     .collect();
/// // A minute of idle time between 4 KB requests: every gap is quiescent.
/// assert_eq!(quiescent_cuts(&device, &ops), Some(vec![1, 2, 3]));
/// ```
#[must_use]
pub fn quiescent_cuts<D: BlockDevice + ?Sized>(
    device: &D,
    ops: &[ScheduledOp],
) -> Option<Vec<usize>> {
    let mut busy = device.busy_bound()?;
    let mut ready = SimInstant::ZERO;
    let mut cuts = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if !op.mode.is_async() {
            return None;
        }
        ready += op.pre_delay;
        if i > 0 && busy <= ready {
            cuts.push(i);
        }
        busy = busy.max(ready) + device.service_bound(&op.request)?;
    }
    Some(cuts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::IssueMode;
    use tt_device::{IoRequest, LinearDevice, LinearDeviceConfig};
    use tt_trace::time::SimDuration;
    use tt_trace::OpType;

    #[test]
    fn zero_gap_schedule_has_no_cuts() {
        let ops: Vec<ScheduledOp> = (0..40)
            .map(|i| ScheduledOp {
                pre_delay: SimDuration::ZERO,
                request: IoRequest::new(OpType::Read, i * 64, 8),
                mode: IssueMode::Async,
            })
            .collect();
        let device = LinearDevice::new(LinearDeviceConfig::default());
        assert_eq!(quiescent_cuts(&device, &ops), Some(Vec::new()));
    }

    #[test]
    fn one_giant_gap_cuts_exactly_once() {
        let ops: Vec<ScheduledOp> = (0..100)
            .map(|i| ScheduledOp {
                pre_delay: if i == 50 {
                    SimDuration::from_secs(60)
                } else {
                    SimDuration::ZERO
                },
                request: IoRequest::new(OpType::Read, i * 64, 8),
                mode: IssueMode::Async,
            })
            .collect();
        let device = LinearDevice::new(LinearDeviceConfig::default());
        assert_eq!(quiescent_cuts(&device, &ops), Some(vec![50]));
    }

    #[test]
    fn gap_exactly_at_threshold_is_quiescent() {
        let device = LinearDevice::new(LinearDeviceConfig::default());
        let request = IoRequest::new(OpType::Read, 0, 8);
        // A fresh device is idle, so B₀ is exactly op 0's service bound;
        // making op 1 ready at precisely that instant probes the `≤` in
        // the cut condition.
        let bound = device.service_bound(&request).unwrap();
        let ops = vec![
            ScheduledOp {
                pre_delay: SimDuration::ZERO,
                request,
                mode: IssueMode::Async,
            },
            ScheduledOp {
                pre_delay: bound,
                request,
                mode: IssueMode::Async,
            },
        ];
        assert_eq!(quiescent_cuts(&device, &ops), Some(vec![1]));
    }

    #[test]
    fn sync_ops_defeat_cut_analysis() {
        let device = LinearDevice::new(LinearDeviceConfig::default());
        let ops = vec![ScheduledOp {
            pre_delay: SimDuration::from_secs(60),
            request: IoRequest::new(OpType::Read, 0, 8),
            mode: IssueMode::Sync,
        }];
        assert_eq!(quiescent_cuts(&device, &ops), None);
    }
}
