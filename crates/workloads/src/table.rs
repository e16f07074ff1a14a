//! Table I reconstruction: per-workload trace characteristics.

use serde::Serialize;

use tt_trace::{Trace, TraceStats};

use crate::catalog::CatalogEntry;

/// One row of Table I, computed from generated traces.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TableRow {
    /// Workload name.
    pub name: String,
    /// Collection label.
    pub set_label: String,
    /// Publication year of the collection.
    pub published_year: u16,
    /// Number of block traces (paper's count; generation may scale down).
    pub trace_count: u32,
    /// Average request size in KB, measured from the generated traces.
    pub measured_avg_kb: f64,
    /// Average request size the paper reports.
    pub paper_avg_kb: f64,
    /// Total data moved in the generated traces, GiB.
    pub measured_total_gib: f64,
}

impl TableRow {
    /// Computes a row from a catalog entry and its generated traces.
    ///
    /// # Panics
    ///
    /// Panics when `traces` is empty — a row needs at least one trace.
    #[must_use]
    pub fn compute(entry: &CatalogEntry, traces: &[Trace]) -> Self {
        assert!(!traces.is_empty(), "need at least one trace per row");
        let stats: Vec<TraceStats> = traces.iter().map(TraceStats::compute).collect();
        let total_bytes: u64 = stats.iter().map(|s| s.total_bytes).sum();
        let total_reqs: usize = stats.iter().map(|s| s.requests).sum();
        TableRow {
            name: entry.name.to_string(),
            set_label: entry.set.label().to_string(),
            published_year: entry.set.published_year(),
            trace_count: entry.trace_count,
            measured_avg_kb: if total_reqs == 0 {
                0.0
            } else {
                total_bytes as f64 / 1024.0 / total_reqs as f64
            },
            paper_avg_kb: entry.avg_size_kb,
            measured_total_gib: total_bytes as f64 / f64::from(1 << 30),
        }
    }

    /// Relative error of the measured average size versus the paper's.
    #[must_use]
    pub fn avg_size_error(&self) -> f64 {
        if self.paper_avg_kb == 0.0 {
            return 0.0;
        }
        (self.measured_avg_kb - self.paper_avg_kb).abs() / self.paper_avg_kb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::generator::generate_session;
    use tt_device::{LinearDevice, LinearDeviceConfig};

    #[test]
    fn row_matches_paper_sizes_within_tolerance() {
        let entry = catalog::find("MSNFS").unwrap();
        let session = generate_session(entry.name, &entry.profile, 3_000, 11);
        let mut dev = LinearDevice::new(LinearDeviceConfig::default());
        let trace = session.materialize(&mut dev, false).trace;
        let row = TableRow::compute(&entry, &[trace]);
        assert!(
            row.avg_size_error() < 0.15,
            "avg size err {} (measured {} vs paper {})",
            row.avg_size_error(),
            row.measured_avg_kb,
            row.paper_avg_kb
        );
        assert_eq!(row.published_year, 2007);
        assert_eq!(row.trace_count, 36);
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn empty_traces_rejected() {
        let entry = catalog::find("ikki").unwrap();
        let _ = TableRow::compute(&entry, &[]);
    }
}
