//! The [`Trace`] container: an arrival-ordered sequence of block records,
//! stored columnar. A trace is its metadata plus a [`TraceStore`]; rows
//! are assembled from the columns when asked for, never cached.

use std::fmt;

use serde::Serialize;

use crate::error::TraceError;
use crate::record::BlockRecord;
use crate::store::{Columns, TraceStore};
use crate::time::{SimDuration, SimInstant};

/// Descriptive metadata attached to a trace.
///
/// # Examples
///
/// ```
/// use tt_trace::TraceMeta;
///
/// let meta = TraceMeta::named("msnfs").with_source("synthetic MSPS profile");
/// assert_eq!(meta.name, "msnfs");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct TraceMeta {
    /// Short workload name (e.g. `"msnfs"`, `"ikki"`).
    pub name: String,
    /// Free-form provenance (collection system, generator parameters, ...).
    pub source: String,
}

impl TraceMeta {
    /// Creates metadata with the given name and an empty source.
    #[must_use]
    pub fn named(name: impl Into<String>) -> Self {
        TraceMeta {
            name: name.into(),
            source: String::new(),
        }
    }

    /// Sets the provenance string, builder-style.
    #[must_use]
    pub fn with_source(mut self, source: impl Into<String>) -> Self {
        self.source = source.into();
        self
    }
}

/// An arrival-ordered block trace.
///
/// Records live in a columnar [`TraceStore`] (struct-of-arrays), so
/// whole-trace scans — grouping, statistics, serialisation — touch only the
/// columns they need. Row-shaped access ([`Trace::get`], [`Trace::iter`])
/// assembles each [`BlockRecord`] by value from the columns.
///
/// The container maintains one invariant: records are sorted by
/// [`BlockRecord::arrival`] (ties keep insertion order). Inter-arrival times —
/// the paper's `Tintt` — are therefore always non-negative.
///
/// `Tintt_i` is defined as the gap *following* record `i`
/// (`arrival[i+1] - arrival[i]`, paper §III): it is the window in which
/// record `i`'s service time and any subsequent idle period live, so it is
/// attributed to record `i`'s size and operation type during grouping.
///
/// # Examples
///
/// ```
/// use tt_trace::{BlockRecord, OpType, Trace, time::SimInstant};
///
/// let mut trace = Trace::new();
/// trace.push(BlockRecord::new(SimInstant::from_usecs(0), 0, 8, OpType::Read));
/// trace.push(BlockRecord::new(SimInstant::from_usecs(120), 8, 8, OpType::Read));
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.inter_arrival(0).unwrap().as_usecs_f64(), 120.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    meta: TraceMeta,
    store: TraceStore,
}

impl Trace {
    /// Creates an empty, unnamed trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates an empty trace with metadata.
    #[must_use]
    pub fn with_meta(meta: TraceMeta) -> Self {
        Trace {
            meta,
            store: TraceStore::new(),
        }
    }

    /// Builds a trace from records, sorting them stably by arrival time.
    ///
    /// Use this when assembling records from unordered sources; when records
    /// are already ordered this is O(n) verification plus no moves.
    #[must_use]
    pub fn from_records(meta: TraceMeta, records: Vec<BlockRecord>) -> Self {
        Trace::from_store(meta, TraceStore::from_records(records))
    }

    /// Builds a trace directly from a columnar store, sorting stably by
    /// arrival when needed.
    #[must_use]
    pub fn from_store(meta: TraceMeta, mut store: TraceStore) -> Self {
        store.sort_by_arrival();
        Trace { meta, store }
    }

    /// Builds a trace from records that must already be arrival-ordered.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidRecord`] naming the first out-of-order
    /// record.
    pub fn try_from_ordered(
        meta: TraceMeta,
        records: Vec<BlockRecord>,
    ) -> Result<Self, TraceError> {
        for (i, pair) in records.windows(2).enumerate() {
            if pair[1].arrival < pair[0].arrival {
                return Err(TraceError::invalid_record(
                    i + 1,
                    format!(
                        "arrival {} precedes previous arrival {}",
                        pair[1].arrival, pair[0].arrival
                    ),
                ));
            }
        }
        Ok(Trace {
            meta,
            store: TraceStore::from_records(records),
        })
    }

    /// Appends a record.
    ///
    /// # Panics
    ///
    /// Panics if the record's arrival precedes the last record's arrival;
    /// use [`Trace::from_records`] for unordered input.
    pub fn push(&mut self, record: BlockRecord) {
        if let Some(&last) = self.store.arrivals().last() {
            assert!(
                record.arrival >= last,
                "record arrival {} precedes trace tail {last}",
                record.arrival,
            );
        }
        self.store.push(record);
    }

    /// The trace metadata.
    #[must_use]
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Mutable access to the metadata (records stay guarded).
    pub fn meta_mut(&mut self) -> &mut TraceMeta {
        &mut self.meta
    }

    /// The columnar record store — the preferred access path for
    /// whole-trace scans.
    #[must_use]
    pub fn columns(&self) -> &TraceStore {
        &self.store
    }

    /// The borrowed-slice column view ([`TraceStore::view`]). Every
    /// analysis entry point ([`GroupedTrace::build`](crate::GroupedTrace::build),
    /// [`TraceStats::compute`](crate::TraceStats::compute),
    /// `tt_core::infer`, ...) takes `impl Into<Columns>`, so it accepts
    /// `&trace`, this view, or a memory-mapped `.ttb` file's columns alike.
    #[must_use]
    pub fn view(&self) -> Columns<'_> {
        self.store.view()
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` when the trace holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The record at `index`, if any, assembled from the columns.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<BlockRecord> {
        (index < self.len()).then(|| self.store.record(index))
    }

    /// Iterates records by value in arrival order, assembled from the
    /// columns.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = BlockRecord> + '_ {
        self.store.iter()
    }

    /// Consumes the trace, returning its columnar store.
    #[must_use]
    pub fn into_store(self) -> TraceStore {
        self.store
    }

    /// The inter-arrival time following record `index`
    /// (`arrival[index+1] - arrival[index]`), or `None` for the last record.
    #[must_use]
    pub fn inter_arrival(&self, index: usize) -> Option<SimDuration> {
        let arrivals = self.store.arrivals();
        let a = arrivals.get(index)?;
        let b = arrivals.get(index + 1)?;
        Some(*b - *a)
    }

    /// Iterator over all `len() - 1` inter-arrival times, in order.
    ///
    /// # Examples
    ///
    /// ```
    /// use tt_trace::{BlockRecord, OpType, Trace, TraceMeta, time::SimInstant};
    ///
    /// let recs = (0..4)
    ///     .map(|i| BlockRecord::new(SimInstant::from_usecs(i * 10), 0, 8, OpType::Read))
    ///     .collect();
    /// let trace = Trace::from_records(TraceMeta::default(), recs);
    /// let gaps: Vec<_> = trace.inter_arrivals().collect();
    /// assert_eq!(gaps.len(), 3);
    /// assert!(gaps.iter().all(|g| g.as_usecs_f64() == 10.0));
    /// ```
    pub fn inter_arrivals(&self) -> impl Iterator<Item = SimDuration> + '_ {
        self.store.arrivals().windows(2).map(|w| w[1] - w[0])
    }

    /// Wall-clock span from first to last arrival; zero for traces with
    /// fewer than two records.
    #[must_use]
    pub fn span(&self) -> SimDuration {
        let arrivals = self.store.arrivals();
        match (arrivals.first(), arrivals.last()) {
            (Some(&first), Some(&last)) => last - first,
            _ => SimDuration::ZERO,
        }
    }

    /// First arrival timestamp, if any.
    #[must_use]
    pub fn start(&self) -> Option<SimInstant> {
        self.store.arrivals().first().copied()
    }

    /// Last arrival timestamp, if any.
    #[must_use]
    pub fn end(&self) -> Option<SimInstant> {
        self.store.arrivals().last().copied()
    }

    /// `true` when every record carries device-side timing — the paper's
    /// "`Tsdev`-known" trace class (MSPS/MSRC-style collections).
    #[must_use]
    pub fn has_device_timing(&self) -> bool {
        self.store.all_timed()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace {:?}: {} records over {}",
            self.meta.name,
            self.store.len(),
            self.span()
        )
    }
}

impl<'a> From<&'a Trace> for Columns<'a> {
    fn from(trace: &'a Trace) -> Self {
        trace.view()
    }
}

impl FromIterator<BlockRecord> for Trace {
    /// Collects records into a trace, sorting by arrival.
    fn from_iter<I: IntoIterator<Item = BlockRecord>>(iter: I) -> Self {
        Trace::from_store(TraceMeta::default(), iter.into_iter().collect())
    }
}

impl Extend<BlockRecord> for Trace {
    /// Extends the trace, re-sorting if the new records break ordering.
    fn extend<I: IntoIterator<Item = BlockRecord>>(&mut self, iter: I) {
        self.store.extend(iter);
        self.store.sort_by_arrival();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpType;

    fn rec(us: u64) -> BlockRecord {
        BlockRecord::new(SimInstant::from_usecs(us), 0, 8, OpType::Read)
    }

    #[test]
    fn from_records_sorts() {
        let t = Trace::from_records(TraceMeta::default(), vec![rec(30), rec(10), rec(20)]);
        let arrivals: Vec<_> = t.iter().map(|r| r.arrival.as_nanos()).collect();
        assert_eq!(arrivals, vec![10_000, 20_000, 30_000]);
    }

    #[test]
    fn try_from_ordered_rejects_disorder() {
        let err = Trace::try_from_ordered(TraceMeta::default(), vec![rec(5), rec(3)]).unwrap_err();
        assert!(matches!(err, TraceError::InvalidRecord { index: 1, .. }));
    }

    #[test]
    #[should_panic(expected = "precedes trace tail")]
    fn push_rejects_backwards_time() {
        let mut t = Trace::new();
        t.push(rec(10));
        t.push(rec(5));
    }

    #[test]
    fn inter_arrivals_count_and_values() {
        let t = Trace::from_records(TraceMeta::default(), vec![rec(0), rec(7), rec(30)]);
        let gaps: Vec<_> = t.inter_arrivals().map(|d| d.as_usecs_f64()).collect();
        assert_eq!(gaps, vec![7.0, 23.0]);
        assert_eq!(t.inter_arrival(1).unwrap().as_usecs_f64(), 23.0);
        assert!(t.inter_arrival(2).is_none());
    }

    #[test]
    fn span_and_endpoints() {
        let t = Trace::from_records(TraceMeta::default(), vec![rec(5), rec(45)]);
        assert_eq!(t.span(), SimDuration::from_usecs(40));
        assert_eq!(t.start().unwrap(), SimInstant::from_usecs(5));
        assert_eq!(t.end().unwrap(), SimInstant::from_usecs(45));
        assert_eq!(Trace::new().span(), SimDuration::ZERO);
    }

    #[test]
    fn has_device_timing_requires_all_records() {
        use crate::record::ServiceTiming;
        let mut t = Trace::new();
        assert!(!t.has_device_timing());
        t.push(rec(0).with_timing(ServiceTiming::new(
            SimInstant::from_usecs(0),
            SimInstant::from_usecs(1),
        )));
        assert!(t.has_device_timing());
        t.push(rec(10));
        assert!(!t.has_device_timing());
    }

    #[test]
    fn extend_resorts_when_needed() {
        let mut t = Trace::from_records(TraceMeta::default(), vec![rec(0), rec(20)]);
        t.extend(vec![rec(10)]);
        let arrivals: Vec<_> = t.iter().map(|r| r.arrival.as_nanos()).collect();
        assert_eq!(arrivals, vec![0, 10_000, 20_000]);
    }

    #[test]
    fn collects_from_iterator() {
        let t: Trace = vec![rec(3), rec(1)].into_iter().collect();
        assert_eq!(t.start().unwrap(), SimInstant::from_usecs(1));
    }

    #[test]
    fn columnar_and_row_views_agree() {
        let t = Trace::from_records(TraceMeta::default(), vec![rec(4), rec(9), rec(2)]);
        let sorted = vec![rec(2), rec(4), rec(9)];
        assert_eq!(t.iter().collect::<Vec<_>>(), sorted);
        for (i, row) in sorted.iter().enumerate() {
            assert_eq!(t.get(i), Some(*row));
        }
        assert_eq!(t.get(t.len()), None);
        assert_eq!(t.columns().len(), t.len());
    }
}
