//! Whole-trace summary statistics (Table I style).

use std::fmt;

use serde::Serialize;

use crate::group::{classify_sequentiality, Sequentiality};
use crate::store::Columns;
use crate::time::SimDuration;

/// Aggregate statistics over one trace.
///
/// Mirrors the columns of the paper's Table I (average data size, total
/// size) plus the mix/locality features the workload generator is tuned
/// against.
///
/// # Examples
///
/// ```
/// use tt_trace::{BlockRecord, OpType, Trace, TraceMeta, TraceStats, time::SimInstant};
///
/// let recs = vec![
///     BlockRecord::new(SimInstant::from_usecs(0), 0, 8, OpType::Read),
///     BlockRecord::new(SimInstant::from_usecs(50), 8, 8, OpType::Write),
/// ];
/// let stats = TraceStats::compute(&Trace::from_records(TraceMeta::default(), recs));
/// assert_eq!(stats.requests, 2);
/// assert_eq!(stats.avg_size_kb, 4.0);
/// assert_eq!(stats.read_ratio, 0.5);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TraceStats {
    /// Total number of requests.
    pub requests: usize,
    /// Number of reads.
    pub reads: usize,
    /// Number of writes.
    pub writes: usize,
    /// Fraction of requests that are reads (0 for an empty trace).
    pub read_ratio: f64,
    /// Fraction of requests classified sequential.
    pub sequential_ratio: f64,
    /// Mean request size in KiB.
    pub avg_size_kb: f64,
    /// Total data moved, in bytes.
    pub total_bytes: u64,
    /// Trace span (first arrival to last arrival).
    pub span: SimDuration,
    /// Mean inter-arrival time.
    pub mean_inter_arrival: SimDuration,
    /// Median inter-arrival time.
    pub median_inter_arrival: SimDuration,
    /// Maximum inter-arrival time.
    pub max_inter_arrival: SimDuration,
    /// Number of distinct request sizes observed.
    pub distinct_sizes: usize,
}

impl TraceStats {
    /// Computes statistics for `trace` — `&Trace` or a column view, with
    /// identical output whether the columns come from an owned store or a
    /// memory-mapped `.ttb` file
    /// ([`MmapTrace`](crate::format::ttb::MmapTrace)). An empty trace
    /// yields all-zero statistics.
    ///
    /// Reads the columns directly — one pass over the op/size/LBA
    /// columns plus one sort of each of the gap and size columns.
    #[must_use]
    pub fn compute<'a>(trace: impl Into<Columns<'a>>) -> Self {
        TraceStats::summarise(trace.into())
    }

    fn summarise(cols: Columns<'_>) -> Self {
        let n = cols.len();
        if n == 0 {
            return TraceStats::default();
        }

        let reads = cols.ops().iter().filter(|op| op.is_read()).count();
        let total_bytes: u64 = cols
            .sectors()
            .iter()
            .map(|&s| u64::from(s) * crate::record::SECTOR_BYTES)
            .sum();
        let seq = classify_sequentiality(cols)
            .iter()
            .filter(|c| c.is_sequential())
            .count();

        let mut sizes: Vec<u32> = cols.sectors().to_vec();
        sizes.sort_unstable();
        sizes.dedup();

        let mut gaps: Vec<SimDuration> = cols.inter_arrivals().collect();
        gaps.sort_unstable();
        let (mean_gap, median_gap, max_gap) = if gaps.is_empty() {
            (SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO)
        } else {
            let total: SimDuration = gaps.iter().copied().sum();
            (
                total / gaps.len() as u64,
                gaps[gaps.len() / 2],
                gaps.last().copied().unwrap_or(SimDuration::ZERO),
            )
        };

        TraceStats {
            requests: n,
            reads,
            writes: n - reads,
            read_ratio: reads as f64 / n as f64,
            sequential_ratio: seq as f64 / n as f64,
            avg_size_kb: total_bytes as f64 / 1024.0 / n as f64,
            total_bytes,
            span: cols.span(),
            mean_inter_arrival: mean_gap,
            median_inter_arrival: median_gap,
            max_inter_arrival: max_gap,
            distinct_sizes: sizes.len(),
        }
    }

    /// Total data moved in GiB (Table I's "Total size (GB)" column).
    #[must_use]
    pub fn total_gib(&self) -> f64 {
        self.total_bytes as f64 / (1024.0 * 1024.0 * 1024.0)
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reqs ({:.0}% read, {:.0}% seq), avg {:.2} KiB, span {}, mean Tintt {}",
            self.requests,
            self.read_ratio * 100.0,
            self.sequential_ratio * 100.0,
            self.avg_size_kb,
            self.span,
            self.mean_inter_arrival,
        )
    }
}

/// Ratio of sequential requests in `classes` (helper shared with reports).
#[must_use]
pub fn sequential_fraction(classes: &[Sequentiality]) -> f64 {
    if classes.is_empty() {
        return 0.0;
    }
    classes.iter().filter(|c| c.is_sequential()).count() as f64 / classes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpType;
    use crate::record::BlockRecord;
    use crate::time::SimInstant;
    use crate::trace::{Trace, TraceMeta};

    fn rec(us: u64, lba: u64, sectors: u32, op: OpType) -> BlockRecord {
        BlockRecord::new(SimInstant::from_usecs(us), lba, sectors, op)
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let s = TraceStats::compute(&Trace::new());
        assert_eq!(s.requests, 0);
        assert_eq!(s.avg_size_kb, 0.0);
        assert_eq!(s.span, SimDuration::ZERO);
    }

    #[test]
    fn mix_and_sizes() {
        let t = Trace::from_records(
            TraceMeta::default(),
            vec![
                rec(0, 0, 8, OpType::Read),
                rec(10, 8, 8, OpType::Read),
                rec(20, 500, 16, OpType::Write),
                rec(50, 900, 32, OpType::Write),
            ],
        );
        let s = TraceStats::compute(&t);
        assert_eq!(s.requests, 4);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 2);
        assert_eq!(s.read_ratio, 0.5);
        assert_eq!(s.distinct_sizes, 3);
        assert_eq!(s.total_bytes, (8 + 8 + 16 + 32) * 512);
        assert_eq!(s.sequential_ratio, 0.25);
    }

    #[test]
    fn inter_arrival_summary() {
        let t = Trace::from_records(
            TraceMeta::default(),
            vec![
                rec(0, 0, 8, OpType::Read),
                rec(10, 0, 8, OpType::Read),
                rec(40, 0, 8, OpType::Read),
            ],
        );
        let s = TraceStats::compute(&t);
        assert_eq!(s.mean_inter_arrival, SimDuration::from_usecs(20));
        assert_eq!(s.max_inter_arrival, SimDuration::from_usecs(30));
        assert_eq!(s.median_inter_arrival, SimDuration::from_usecs(30));
    }

    #[test]
    fn total_gib_scales() {
        let t = Trace::from_records(
            TraceMeta::default(),
            vec![rec(0, 0, 2048, OpType::Read)], // 1 MiB
        );
        let s = TraceStats::compute(&t);
        assert!((s.total_gib() - 1.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn sequential_fraction_helper() {
        use Sequentiality::{Random, Sequential};
        assert_eq!(sequential_fraction(&[]), 0.0);
        assert_eq!(sequential_fraction(&[Sequential, Random]), 0.5);
    }
}
