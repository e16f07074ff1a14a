//! Reporting utilities behind the paper's figures.
//!
//! * CDF series extraction (Figs 1, 12, 15),
//! * longer/equal/shorter gap breakdowns against a reference (Fig 3),
//! * inter-arrival gap statistics between two traces (Figs 13, 14),
//! * idle-time breakdowns into the paper's buckets (Fig 17).

use serde::Serialize;

use tt_stats::Ecdf;
use tt_trace::time::SimDuration;
use tt_trace::Trace;

use crate::inference::Decomposition;

/// All inter-arrival times of `trace`, in microseconds.
#[must_use]
pub fn tintt_usecs(trace: &Trace) -> Vec<f64> {
    trace.inter_arrivals().map(|d| d.as_usecs_f64()).collect()
}

/// CDF of `samples`, down-sampled to at most `max_points` evenly spaced
/// support points (for printing/plotting). Empty when `samples` is.
///
/// # Examples
///
/// ```
/// let pts = tt_core::report::cdf_series(&[1.0, 2.0, 3.0, 4.0], 2);
/// assert_eq!(pts.len(), 2);
/// assert_eq!(pts.last().unwrap().1, 1.0);
/// ```
#[must_use]
pub fn cdf_series(samples: &[f64], max_points: usize) -> Vec<(f64, f64)> {
    let Some(ecdf) = Ecdf::new(samples.to_vec()) else {
        return Vec::new();
    };
    let points = ecdf.points();
    if points.len() <= max_points || max_points == 0 {
        return points;
    }
    let step = points.len() as f64 / max_points as f64;
    let mut out: Vec<(f64, f64)> = (0..max_points)
        .map(|i| points[(i as f64 * step) as usize])
        .collect();
    // Pin the final knot to the true maximum (the stride above rounds
    // down); both sides are non-empty on this path.
    if let (Some(slot), Some(&last)) = (out.last_mut(), points.last()) {
        *slot = last;
    }
    out
}

/// Fractions of per-index gaps that are shorter than / equal to / longer
/// than a reference trace's gaps (Fig 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GapBreakdown {
    /// Fraction of gaps shorter than the reference by more than the
    /// tolerance.
    pub shorter: f64,
    /// Fraction within the tolerance band.
    pub equal: f64,
    /// Fraction longer by more than the tolerance.
    pub longer: f64,
}

impl GapBreakdown {
    /// Compares `trace` against `reference`, gap by gap (up to the shorter
    /// length). A gap counts as *equal* when it is within
    /// `tolerance × reference_gap` of the reference.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is negative.
    ///
    /// # Examples
    ///
    /// ```
    /// use tt_core::report::GapBreakdown;
    /// use tt_trace::{time::SimInstant, BlockRecord, OpType, Trace, TraceMeta};
    ///
    /// let make = |gaps: &[u64]| {
    ///     let mut t = 0;
    ///     let mut recs = vec![BlockRecord::new(SimInstant::ZERO, 0, 8, OpType::Read)];
    ///     for &g in gaps {
    ///         t += g;
    ///         recs.push(BlockRecord::new(SimInstant::from_usecs(t), 0, 8, OpType::Read));
    ///     }
    ///     Trace::from_records(TraceMeta::default(), recs)
    /// };
    /// let reference = make(&[100, 100, 100]);
    /// let candidate = make(&[50, 100, 220]);
    /// let b = GapBreakdown::compare(&candidate, &reference, 0.05);
    /// assert_eq!((b.shorter, b.equal, b.longer), (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0));
    /// ```
    #[must_use]
    pub fn compare(trace: &Trace, reference: &Trace, tolerance: f64) -> Self {
        assert!(tolerance >= 0.0, "tolerance must be non-negative");
        let a: Vec<SimDuration> = trace.inter_arrivals().collect();
        let b: Vec<SimDuration> = reference.inter_arrivals().collect();
        let n = a.len().min(b.len());
        if n == 0 {
            return GapBreakdown {
                shorter: 0.0,
                equal: 0.0,
                longer: 0.0,
            };
        }
        let mut shorter = 0usize;
        let mut equal = 0usize;
        let mut longer = 0usize;
        for i in 0..n {
            let x = a[i].as_usecs_f64();
            let r = b[i].as_usecs_f64();
            let tol = r * tolerance;
            if (x - r).abs() <= tol {
                equal += 1;
            } else if x < r {
                shorter += 1;
            } else {
                longer += 1;
            }
        }
        GapBreakdown {
            shorter: shorter as f64 / n as f64,
            equal: equal as f64 / n as f64,
            longer: longer as f64 / n as f64,
        }
    }
}

/// Summary of per-index inter-arrival differences between two traces
/// (Figs 13-14).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GapStats {
    /// Mean of |Δ gap|.
    pub mean_abs: SimDuration,
    /// Largest |Δ gap|.
    pub max_abs: SimDuration,
    /// Mean signed difference (`trace − reference`), microseconds (signed,
    /// so it can be negative).
    pub mean_signed_us: f64,
}

impl GapStats {
    /// Per-index gap difference statistics over the common prefix.
    #[must_use]
    pub fn compare(trace: &Trace, reference: &Trace) -> Self {
        let a: Vec<SimDuration> = trace.inter_arrivals().collect();
        let b: Vec<SimDuration> = reference.inter_arrivals().collect();
        let n = a.len().min(b.len());
        if n == 0 {
            return GapStats {
                mean_abs: SimDuration::ZERO,
                max_abs: SimDuration::ZERO,
                mean_signed_us: 0.0,
            };
        }
        let mut abs_sum = SimDuration::ZERO;
        let mut max_abs = SimDuration::ZERO;
        let mut signed_sum = 0.0;
        for i in 0..n {
            let (x, r) = (a[i], b[i]);
            let diff = if x >= r { x - r } else { r - x };
            abs_sum += diff;
            max_abs = max_abs.max(diff);
            signed_sum += x.as_usecs_f64() - r.as_usecs_f64();
        }
        GapStats {
            mean_abs: abs_sum / n as u64,
            max_abs,
            mean_signed_us: signed_sum / n as f64,
        }
    }
}

/// Fig 17's idle buckets: no idle (pure `Tslat`), then idle by magnitude.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct IdleBreakdown {
    /// Share of requests (frequency) per bucket:
    /// `[Tslat-only, 0-10ms, 10-100ms, >100ms]`.
    pub frequency: [f64; 4],
    /// Share of total `Tintt` duration per bucket, same order. The
    /// `Tslat` bucket carries all service time; idle buckets carry idle
    /// time.
    pub period: [f64; 4],
}

impl IdleBreakdown {
    /// Computes the breakdown from a decomposition. `floor` separates
    /// "no idle" from real idle (estimation noise filter).
    #[must_use]
    pub fn compute(decomp: &Decomposition, floor: SimDuration) -> Self {
        let n = decomp.len();
        if n == 0 {
            return IdleBreakdown {
                frequency: [0.0; 4],
                period: [0.0; 4],
            };
        }
        let ms10 = SimDuration::from_msecs(10);
        let ms100 = SimDuration::from_msecs(100);

        let mut freq = [0usize; 4];
        let mut period = [SimDuration::ZERO; 4];
        for i in 0..n {
            let idle = decomp.tidle[i];
            let bucket = if idle <= floor {
                0
            } else if idle <= ms10 {
                1
            } else if idle <= ms100 {
                2
            } else {
                3
            };
            freq[bucket] += 1;
            // All service time accrues to the Tslat share; idle time to the
            // idle bucket's share.
            period[0] += decomp.tslat[i];
            if bucket > 0 {
                period[bucket] += idle;
            }
        }
        let total_time: SimDuration = period.iter().copied().sum();
        let to_frac = |d: SimDuration| {
            if total_time.is_zero() {
                0.0
            } else {
                d.as_secs_f64() / total_time.as_secs_f64()
            }
        };
        IdleBreakdown {
            frequency: freq.map(|c| c as f64 / n as f64),
            period: period.map(to_frac),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::DeviceEstimate;
    use tt_trace::time::SimInstant;
    use tt_trace::{BlockRecord, OpType, TraceMeta};

    fn trace_with_gaps(gaps_us: &[u64]) -> Trace {
        let mut t = 0u64;
        let mut recs = vec![BlockRecord::new(SimInstant::ZERO, 0, 8, OpType::Read)];
        for &g in gaps_us {
            t += g;
            recs.push(BlockRecord::new(
                SimInstant::from_usecs(t),
                0,
                8,
                OpType::Read,
            ));
        }
        Trace::from_records(TraceMeta::default(), recs)
    }

    #[test]
    fn cdf_series_downsamples_and_keeps_tail() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let pts = cdf_series(&samples, 50);
        assert_eq!(pts.len(), 50);
        assert_eq!(pts.last().unwrap().1, 1.0);
        for w in pts.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
    }

    #[test]
    fn cdf_series_empty_input() {
        assert!(cdf_series(&[], 10).is_empty());
    }

    #[test]
    fn gap_breakdown_sums_to_one() {
        let a = trace_with_gaps(&[100, 150, 80, 100]);
        let b = trace_with_gaps(&[100, 100, 100, 100]);
        let br = GapBreakdown::compare(&a, &b, 0.05);
        assert!((br.shorter + br.equal + br.longer - 1.0).abs() < 1e-12);
        assert_eq!(br.equal, 0.5);
        assert_eq!(br.shorter, 0.25);
        assert_eq!(br.longer, 0.25);
    }

    #[test]
    fn gap_stats_mean_and_max() {
        let a = trace_with_gaps(&[120, 80]);
        let b = trace_with_gaps(&[100, 100]);
        let s = GapStats::compare(&a, &b);
        assert_eq!(s.mean_abs, SimDuration::from_usecs(20));
        assert_eq!(s.max_abs, SimDuration::from_usecs(20));
        assert!((s.mean_signed_us - 0.0).abs() < 1e-9); // +20 and -20 cancel
    }

    #[test]
    fn gap_stats_empty_traces() {
        let s = GapStats::compare(&Trace::new(), &Trace::new());
        assert_eq!(s.mean_abs, SimDuration::ZERO);
    }

    #[test]
    fn idle_breakdown_buckets() {
        // Gaps: tiny (no idle), 5ms, 50ms, 500ms; tslat == 0 model.
        let trace = trace_with_gaps(&[10, 5_000, 50_000, 500_000]);
        let est = DeviceEstimate {
            beta_ns_per_sector: 0.0,
            eta_ns_per_sector: 0.0,
            tcdel_read: SimDuration::ZERO,
            tcdel_write: SimDuration::ZERO,
            tmovd: SimDuration::ZERO,
        };
        let d = Decomposition::compute(&trace, &est);
        let b = IdleBreakdown::compute(&d, SimDuration::from_usecs(100));
        // 5 records: last has no gap (bucket 0), 10us gap is under floor.
        assert_eq!(b.frequency[0], 2.0 / 5.0);
        assert_eq!(b.frequency[1], 1.0 / 5.0);
        assert_eq!(b.frequency[2], 1.0 / 5.0);
        assert_eq!(b.frequency[3], 1.0 / 5.0);
        // >100ms idle dominates the period share.
        assert!(b.period[3] > 0.85);
        let total: f64 = b.period.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn idle_breakdown_empty() {
        let est = DeviceEstimate {
            beta_ns_per_sector: 0.0,
            eta_ns_per_sector: 0.0,
            tcdel_read: SimDuration::ZERO,
            tcdel_write: SimDuration::ZERO,
            tmovd: SimDuration::ZERO,
        };
        let d = Decomposition::compute(&Trace::new(), &est);
        let b = IdleBreakdown::compute(&d, SimDuration::ZERO);
        assert_eq!(b.frequency, [0.0; 4]);
    }
}
