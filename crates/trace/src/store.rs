//! Columnar (struct-of-arrays) storage for block traces.
//!
//! Multi-month MSPS/MSRC/FIU collections run to hundreds of millions of
//! records; holding them as `Vec<BlockRecord>` wastes cache on fields a
//! given pass never touches. [`TraceStore`] keeps each record field in its
//! own contiguous column — arrivals, LBAs, sizes, op types, and (when any
//! record carries them) the device-side issue and completion times — so
//! single-pass scans like grouping, sequentiality classification and
//! statistics read only the columns they need, at full memory bandwidth.
//!
//! Device timing is stored the way the TTB format stores it on disk: an
//! issue and a completion column of [`SimInstant`] (16 bytes per timed
//! record), both empty in an untimed store. Only a *mixed* store, where
//! some records are timed and some are not, adds a presence column; its
//! untimed rows hold [`SimInstant::ZERO`] in both timing columns. The
//! timing columns are allocated when the first timed record arrives, to
//! the capacity the other columns were reserved with, so an all-timed
//! producer that reserved its output never regrows them. A mapped
//! all-timed `.ttb` lends both columns straight from the file
//! ([`MmapTrace`](crate::format::ttb::MmapTrace)).
//!
//! Row-shaped [`BlockRecord`]s are assembled by value on demand
//! ([`TraceStore::record`], [`TraceStore::iter`]) and never stored: a
//! [`Trace`](crate::Trace) is its metadata plus one of these stores.

use std::ops::Range;

use crate::error::TraceError;
use crate::op::OpType;
use crate::record::{BlockRecord, ServiceTiming};
use crate::time::{SimDuration, SimInstant};

/// Struct-of-arrays record storage.
///
/// Invariants: the arrival, LBA, size and op columns have identical
/// length; the issue and completion columns are both empty (no record
/// carries [`ServiceTiming`]) or exactly as long as the others; the
/// presence column is empty unless the store is mixed (some records timed,
/// some not), when it is full length and each untimed row holds
/// [`SimInstant::ZERO`] in both timing columns. Stores holding the same
/// rows therefore hold the same columns, so equality is row equality.
///
/// # Examples
///
/// ```
/// use tt_trace::{BlockRecord, OpType, TraceStore, time::SimInstant};
///
/// let mut store = TraceStore::new();
/// store.push(BlockRecord::new(SimInstant::from_usecs(5), 64, 8, OpType::Read));
/// assert_eq!(store.len(), 1);
/// assert_eq!(store.lbas(), &[64]);
/// assert_eq!(store.record(0).sectors, 8);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStore {
    arrivals: Vec<SimInstant>,
    lbas: Vec<u64>,
    sectors: Vec<u32>,
    ops: Vec<OpType>,
    /// Issue times: empty when no record is timed, else one per record.
    issues: Vec<SimInstant>,
    /// Completion times, laid out like `issues`.
    completes: Vec<SimInstant>,
    /// Which records are timed: non-empty only in a mixed store.
    present: Vec<bool>,
    /// Number of timed records.
    timed: usize,
}

impl TraceStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        TraceStore::default()
    }

    /// Creates an empty store with row capacity `n` in the arrival, LBA,
    /// size and op columns. The timing columns are allocated when the
    /// first timed record arrives, to the same capacity, so pushing up to
    /// `n` records never regrows any column.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        TraceStore {
            arrivals: Vec::with_capacity(n),
            lbas: Vec::with_capacity(n),
            sectors: Vec::with_capacity(n),
            ops: Vec::with_capacity(n),
            ..TraceStore::default()
        }
    }

    /// Builds a store from rows.
    #[must_use]
    pub fn from_records(records: Vec<BlockRecord>) -> Self {
        let mut store = TraceStore::with_capacity(records.len());
        for rec in records {
            store.push(rec);
        }
        store
    }

    /// Builds a store from columns, one optional timing per record.
    ///
    /// `timings` may be empty (no record carries timing) or exactly as long
    /// as the other columns; an all-`None` full-length column is normalised
    /// to the empty representation so stores built from columns compare
    /// equal to stores built from rows.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidRecord`] when column lengths disagree
    /// or a sector count is zero (zero-length block requests do not occur
    /// in real traces and would poison the size-based grouping).
    ///
    /// # Examples
    ///
    /// ```
    /// use tt_trace::{OpType, TraceStore, time::SimInstant};
    ///
    /// let store = TraceStore::from_columns(
    ///     vec![SimInstant::from_usecs(1), SimInstant::from_usecs(2)],
    ///     vec![0, 8],
    ///     vec![8, 8],
    ///     vec![OpType::Read, OpType::Write],
    ///     Vec::new(),
    /// )?;
    /// assert_eq!(store.len(), 2);
    /// # Ok::<(), tt_trace::TraceError>(())
    /// ```
    pub fn from_columns(
        arrivals: Vec<SimInstant>,
        lbas: Vec<u64>,
        sectors: Vec<u32>,
        ops: Vec<OpType>,
        timings: Vec<Option<ServiceTiming>>,
    ) -> Result<Self, TraceError> {
        let at = |pick: fn(ServiceTiming) -> SimInstant| {
            timings
                .iter()
                .map(|t| t.map_or(SimInstant::ZERO, pick))
                .collect()
        };
        let (issues, completes) = (at(|t| t.issue), at(|t| t.complete));
        let present = timings.iter().map(Option::is_some).collect();
        TraceStore::from_parts(arrivals, lbas, sectors, ops, issues, completes, present)
    }

    /// Builds a store from split timing columns — the bulk-load path the
    /// TTB readers use. `issues` and `completes` are empty or full length;
    /// `present` is empty (every row of a non-empty timing column is
    /// timed) or full length, with [`SimInstant::ZERO`] in both timing
    /// columns where it is `false`. A presence column that marks every row,
    /// or none, is normalised away, as [`TraceStore::from_columns`] does.
    ///
    /// # Errors
    ///
    /// As [`TraceStore::from_columns`].
    pub(crate) fn from_parts(
        arrivals: Vec<SimInstant>,
        lbas: Vec<u64>,
        sectors: Vec<u32>,
        ops: Vec<OpType>,
        mut issues: Vec<SimInstant>,
        mut completes: Vec<SimInstant>,
        mut present: Vec<bool>,
    ) -> Result<Self, TraceError> {
        let n = arrivals.len();
        for (name, len) in [
            ("lba", lbas.len()),
            ("sectors", sectors.len()),
            ("op", ops.len()),
        ] {
            if len != n {
                return Err(TraceError::invalid_record(
                    len.min(n),
                    format!("{name} column holds {len} entries but arrivals holds {n}"),
                ));
            }
        }
        for (name, len) in [
            ("timing", issues.len()),
            ("timing", completes.len()),
            ("presence", present.len()),
        ] {
            if len != 0 && len != n {
                return Err(TraceError::invalid_record(
                    len.min(n),
                    format!("{name} column holds {len} entries but arrivals holds {n}"),
                ));
            }
        }
        if issues.len() != completes.len() || (issues.is_empty() && !present.is_empty()) {
            return Err(TraceError::invalid_record(
                0,
                "issue, completion and presence columns disagree in length",
            ));
        }
        if let Some(bad) = sectors.iter().position(|&s| s == 0) {
            return Err(TraceError::invalid_record(
                bad,
                "block request must cover at least one sector",
            ));
        }
        let timed = normalise_timing(n, &mut issues, &mut completes, &mut present);
        Ok(TraceStore {
            arrivals,
            lbas,
            sectors,
            ops,
            issues,
            completes,
            present,
            timed,
        })
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// `true` when the store holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Appends a record, decomposing it into the columns.
    pub fn push(&mut self, rec: BlockRecord) {
        let row = self.arrivals.len();
        self.arrivals.push(rec.arrival);
        self.lbas.push(rec.lba);
        self.sectors.push(rec.sectors);
        self.ops.push(rec.op);
        if self.issues.is_empty() {
            if rec.timing.is_none() {
                return;
            }
            // The first timed record: reserve both timing columns to the
            // capacity the other columns were reserved with, and mark the
            // rows before it untimed.
            let cap = self.arrivals.capacity();
            self.issues.reserve_exact(cap);
            self.completes.reserve_exact(cap);
            self.issues.resize(row, SimInstant::ZERO);
            self.completes.resize(row, SimInstant::ZERO);
            if row > 0 {
                self.present.reserve_exact(cap);
                self.present.resize(row, false);
            }
        } else if rec.timing.is_none() && self.present.is_empty() {
            // The first untimed record after timed ones: the store turns
            // mixed.
            self.present.reserve_exact(self.arrivals.capacity());
            self.present.resize(row, true);
        }
        let (issue, complete) = rec
            .timing
            .map_or((SimInstant::ZERO, SimInstant::ZERO), |t| {
                (t.issue, t.complete)
            });
        self.issues.push(issue);
        self.completes.push(complete);
        if !self.present.is_empty() {
            self.present.push(rec.timing.is_some());
        }
        self.timed += usize::from(rec.timing.is_some());
    }

    /// The arrival-timestamp column.
    #[must_use]
    pub fn arrivals(&self) -> &[SimInstant] {
        &self.arrivals
    }

    /// The start-LBA column.
    #[must_use]
    pub fn lbas(&self) -> &[u64] {
        &self.lbas
    }

    /// The request-size column (sectors).
    #[must_use]
    pub fn sectors(&self) -> &[u32] {
        &self.sectors
    }

    /// The operation-type column.
    #[must_use]
    pub fn ops(&self) -> &[OpType] {
        &self.ops
    }

    /// Device-side timing of record `index`, when recorded.
    #[must_use]
    pub fn timing(&self, index: usize) -> Option<ServiceTiming> {
        self.view().timing(index)
    }

    /// Number of records carrying device-side timing.
    #[must_use]
    pub fn timed_count(&self) -> usize {
        self.timed
    }

    /// `true` when every record carries device-side timing (the paper's
    /// "`Tsdev`-known" class); `false` for empty stores.
    #[must_use]
    pub fn all_timed(&self) -> bool {
        !self.is_empty() && self.timed == self.len()
    }

    /// Reassembles row `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    #[must_use]
    pub fn record(&self, index: usize) -> BlockRecord {
        self.view().record(index)
    }

    /// Iterates rows by value, assembled from the columns (no allocation).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = BlockRecord> + '_ {
        self.view().iter()
    }

    /// `true` when arrivals are non-decreasing.
    #[must_use]
    pub fn is_sorted(&self) -> bool {
        self.view().is_sorted()
    }

    /// Stable-sorts all columns by arrival (no-op when already ordered).
    pub fn sort_by_arrival(&mut self) {
        if self.is_sorted() {
            return;
        }
        let mut perm: Vec<usize> = (0..self.len()).collect();
        perm.sort_by_key(|&i| self.arrivals[i]);
        permute(&mut self.arrivals, &perm);
        permute(&mut self.lbas, &perm);
        permute(&mut self.sectors, &perm);
        permute(&mut self.ops, &perm);
        permute(&mut self.issues, &perm);
        permute(&mut self.completes, &perm);
        permute(&mut self.present, &perm);
    }

    /// The capacities of the issue and completion columns.
    #[cfg(test)]
    pub(crate) fn timing_capacity(&self) -> (usize, usize) {
        (self.issues.capacity(), self.completes.capacity())
    }

    /// Empties every column, keeping the allocations (a scratch store
    /// reused block after block).
    pub(crate) fn clear(&mut self) {
        self.arrivals.clear();
        self.lbas.clear();
        self.sectors.clear();
        self.ops.clear();
        self.issues.clear();
        self.completes.clear();
        self.present.clear();
        self.timed = 0;
    }
}

/// Counts the timed rows of `rows`-row timing columns laid out as in a
/// [`TraceStore`], dropping a presence column that marks every row and
/// all three columns when no row is timed.
pub(crate) fn normalise_timing(
    rows: usize,
    issues: &mut Vec<SimInstant>,
    completes: &mut Vec<SimInstant>,
    present: &mut Vec<bool>,
) -> usize {
    let timed = if present.is_empty() {
        issues.len()
    } else {
        present.iter().filter(|&&p| p).count()
    };
    if timed == 0 {
        (*issues, *completes) = (Vec::new(), Vec::new());
    }
    if timed == 0 || timed == rows {
        *present = Vec::new();
    }
    timed
}

/// Reorders a column by `perm`; an empty (absent) column stays empty.
fn permute<T: Copy>(column: &mut Vec<T>, perm: &[usize]) {
    if !column.is_empty() {
        *column = perm.iter().map(|&i| column[i]).collect();
    }
}

impl TraceStore {
    /// The borrowed-slice view of this store — the form every columnar
    /// analysis pass ([`GroupedTrace::build`](crate::GroupedTrace::build),
    /// [`TraceStats::compute`](crate::TraceStats::compute),
    /// `tt_core::infer`, ...) consumes, so the same code runs off an owned
    /// store or a memory-mapped `.ttb` file
    /// ([`MmapTrace`](crate::format::ttb::MmapTrace)).
    #[must_use]
    pub fn view(&self) -> Columns<'_> {
        Columns {
            arrivals: &self.arrivals,
            lbas: &self.lbas,
            sectors: &self.sectors,
            ops: &self.ops,
            issues: &self.issues,
            completes: &self.completes,
            present: &self.present,
            timed: self.timed,
        }
    }
}

/// A borrowed struct-of-arrays view over trace columns.
///
/// `Columns` is the common currency of every whole-trace scan: an owned
/// [`TraceStore`] lends one via [`TraceStore::view`], and a memory-mapped
/// `.ttb` file lends one via
/// [`MmapTrace::columns`](crate::format::ttb::MmapTrace::columns) — the
/// consumers (grouping, statistics, inference, schedule building) cannot
/// tell the difference, which is what makes the zero-copy mmap path a
/// drop-in replacement for the bulk load.
///
/// Invariants (upheld by both constructors): those of [`TraceStore`] —
/// equal-length record columns, issue and completion columns empty or
/// full length, a presence column only in a mixed view — and `timed`
/// counts the timed records. Analysis additionally assumes arrival order,
/// exactly as it does for a [`TraceStore`] inside a [`Trace`](crate::Trace).
///
/// # Examples
///
/// ```
/// use tt_trace::{BlockRecord, OpType, TraceStore, time::SimInstant};
///
/// let mut store = TraceStore::new();
/// store.push(BlockRecord::new(SimInstant::from_usecs(5), 64, 8, OpType::Read));
/// let cols = store.view();
/// assert_eq!(cols.len(), 1);
/// assert_eq!(cols.lbas(), &[64]);
/// assert_eq!(cols.record(0).sectors, 8);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Columns<'a> {
    arrivals: &'a [SimInstant],
    lbas: &'a [u64],
    sectors: &'a [u32],
    ops: &'a [OpType],
    /// Issue times: empty when no record is timed, else one per record.
    issues: &'a [SimInstant],
    /// Completion times, laid out like `issues`.
    completes: &'a [SimInstant],
    /// Which records are timed: non-empty only in a mixed view.
    present: &'a [bool],
    /// Number of timed records.
    timed: usize,
}

impl<'a> Columns<'a> {
    /// Assembles an untimed view from raw column slices. Callers must
    /// uphold the type's invariants (equal lengths); the mmap reader
    /// validates them while walking the file layout.
    pub(crate) fn from_raw_parts(
        arrivals: &'a [SimInstant],
        lbas: &'a [u64],
        sectors: &'a [u32],
        ops: &'a [OpType],
    ) -> Self {
        debug_assert_eq!(arrivals.len(), lbas.len());
        debug_assert_eq!(arrivals.len(), sectors.len());
        debug_assert_eq!(arrivals.len(), ops.len());
        Columns {
            arrivals,
            lbas,
            sectors,
            ops,
            issues: &[],
            completes: &[],
            present: &[],
            timed: 0,
        }
    }

    /// The view with the given timing columns, laid out as in a
    /// [`TraceStore`]; `timed` counts the timed records.
    pub(crate) fn with_timing(
        self,
        issues: &'a [SimInstant],
        completes: &'a [SimInstant],
        present: &'a [bool],
        timed: usize,
    ) -> Self {
        debug_assert!(issues.is_empty() || issues.len() == self.len());
        debug_assert_eq!(issues.len(), completes.len());
        debug_assert!(present.is_empty() || present.len() == issues.len());
        Columns {
            issues,
            completes,
            present,
            timed,
            ..self
        }
    }

    /// The rows in `range`, as a view of their own.
    ///
    /// # Panics
    ///
    /// Panics when `range` runs past the view.
    pub(crate) fn slice(self, range: Range<usize>) -> Columns<'a> {
        let rows = Columns::from_raw_parts(
            &self.arrivals[range.clone()],
            &self.lbas[range.clone()],
            &self.sectors[range.clone()],
            &self.ops[range.clone()],
        );
        if self.issues.is_empty() {
            return rows;
        }
        let present = self.present.get(range.clone()).unwrap_or_default();
        let timed = if present.is_empty() {
            rows.len()
        } else {
            present.iter().filter(|&&p| p).count()
        };
        if timed == 0 {
            return rows;
        }
        let present = if timed == rows.len() { &[] } else { present };
        rows.with_timing(
            &self.issues[range.clone()],
            &self.completes[range],
            present,
            timed,
        )
    }

    /// Number of records.
    #[must_use]
    pub fn len(self) -> usize {
        self.arrivals.len()
    }

    /// `true` when the view holds no records.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.arrivals.is_empty()
    }

    /// The arrival-timestamp column.
    #[must_use]
    pub fn arrivals(self) -> &'a [SimInstant] {
        self.arrivals
    }

    /// The start-LBA column.
    #[must_use]
    pub fn lbas(self) -> &'a [u64] {
        self.lbas
    }

    /// The request-size column (sectors).
    #[must_use]
    pub fn sectors(self) -> &'a [u32] {
        self.sectors
    }

    /// The operation-type column.
    #[must_use]
    pub fn ops(self) -> &'a [OpType] {
        self.ops
    }

    /// The issue-time column: empty when no record is timed, else one
    /// entry per record ([`SimInstant::ZERO`] on an untimed row).
    pub(crate) fn issues(self) -> &'a [SimInstant] {
        self.issues
    }

    /// The completion-time column, laid out like [`Columns::issues`].
    pub(crate) fn completes(self) -> &'a [SimInstant] {
        self.completes
    }

    /// The presence column: non-empty only in a mixed view.
    pub(crate) fn present(self) -> &'a [bool] {
        self.present
    }

    /// Device-side timing of record `index`, when recorded.
    #[must_use]
    pub fn timing(self, index: usize) -> Option<ServiceTiming> {
        let issue = *self.issues.get(index)?;
        let complete = *self.completes.get(index)?;
        if self.present.get(index) == Some(&false) {
            return None;
        }
        Some(ServiceTiming { issue, complete })
    }

    /// Number of records carrying device-side timing.
    #[must_use]
    pub fn timed_count(self) -> usize {
        self.timed
    }

    /// `true` when every record carries device-side timing; `false` for
    /// empty views.
    #[must_use]
    pub fn all_timed(self) -> bool {
        !self.is_empty() && self.timed == self.len()
    }

    /// Reassembles row `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    #[must_use]
    pub fn record(self, index: usize) -> BlockRecord {
        BlockRecord {
            arrival: self.arrivals[index],
            lba: self.lbas[index],
            sectors: self.sectors[index],
            op: self.ops[index],
            timing: self.timing(index),
        }
    }

    /// Iterates rows by value, assembled from the columns (no allocation).
    pub fn iter(self) -> impl ExactSizeIterator<Item = BlockRecord> + 'a {
        (0..self.len()).map(move |i| self.record(i))
    }

    /// `true` when arrivals are non-decreasing.
    #[must_use]
    pub fn is_sorted(self) -> bool {
        self.arrivals.windows(2).all(|w| w[0] <= w[1])
    }

    /// Wall-clock span from first to last arrival; zero below two records.
    #[must_use]
    pub fn span(self) -> SimDuration {
        match (self.arrivals.first(), self.arrivals.last()) {
            (Some(&first), Some(&last)) => last - first,
            _ => SimDuration::ZERO,
        }
    }

    /// Iterator over the `len() - 1` inter-arrival gaps, in order.
    pub fn inter_arrivals(self) -> impl Iterator<Item = SimDuration> + 'a {
        self.arrivals.windows(2).map(|w| w[1] - w[0])
    }

    /// Copies the view into an owned [`TraceStore`] — the ownership
    /// fallback for consumers that must mutate (sorting, idle injection,
    /// transform stages).
    #[must_use]
    pub fn to_store(self) -> TraceStore {
        TraceStore {
            arrivals: self.arrivals.to_vec(),
            lbas: self.lbas.to_vec(),
            sectors: self.sectors.to_vec(),
            ops: self.ops.to_vec(),
            issues: self.issues.to_vec(),
            completes: self.completes.to_vec(),
            present: self.present.to_vec(),
            timed: self.timed,
        }
    }
}

impl Extend<BlockRecord> for TraceStore {
    fn extend<I: IntoIterator<Item = BlockRecord>>(&mut self, iter: I) {
        for rec in iter {
            self.push(rec);
        }
    }
}

impl FromIterator<BlockRecord> for TraceStore {
    fn from_iter<I: IntoIterator<Item = BlockRecord>>(iter: I) -> Self {
        let mut store = TraceStore::new();
        store.extend(iter);
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn rec(us: u64, lba: u64) -> BlockRecord {
        BlockRecord::new(SimInstant::from_usecs(us), lba, 8, OpType::Read)
    }

    fn timed(us: u64) -> BlockRecord {
        rec(us, 0).with_timing(ServiceTiming::new(
            SimInstant::from_usecs(us + 1),
            SimInstant::from_usecs(us + 2),
        ))
    }

    #[test]
    fn push_and_reassemble_round_trip() {
        let rows = vec![rec(0, 10), timed(5), rec(9, 30)];
        let store = TraceStore::from_records(rows.clone());
        assert_eq!(store.iter().collect::<Vec<_>>(), rows);
        assert_eq!(store.record(1), rows[1]);
    }

    #[test]
    fn timing_column_backfills_lazily() {
        let mut store = TraceStore::new();
        store.push(rec(0, 0));
        store.push(rec(1, 8));
        assert!(store.timing(0).is_none());
        store.push(timed(2));
        assert_eq!(store.len(), 3);
        assert!(store.timing(0).is_none());
        assert!(store.timing(2).is_some());
        assert!(!store.all_timed());
    }

    #[test]
    fn all_timed_detection() {
        let store = TraceStore::from_records(vec![timed(0), timed(5)]);
        assert!(store.all_timed());
        assert!(!TraceStore::new().all_timed());
    }

    #[test]
    fn sort_is_stable_on_ties() {
        let mut store = TraceStore::new();
        store.push(rec(10, 1));
        store.push(rec(0, 2));
        store.push(rec(10, 3));
        store.sort_by_arrival();
        assert_eq!(store.lbas(), &[2, 1, 3]);
        assert!(store.is_sorted());
    }

    #[test]
    fn sort_keeps_timings_aligned() {
        let mut store = TraceStore::new();
        store.push(timed(10));
        store.push(timed(0));
        store.sort_by_arrival();
        assert_eq!(
            store.timing(0).unwrap().device_time(),
            SimDuration::from_usecs(1)
        );
        assert_eq!(store.arrivals()[0], SimInstant::ZERO);
        assert_eq!(store.timing(1).unwrap().issue, SimInstant::from_usecs(11));
    }

    #[test]
    fn from_columns_round_trips_with_from_records() {
        let rows = vec![rec(0, 10), timed(5), rec(9, 30)];
        let by_rows = TraceStore::from_records(rows.clone());
        let by_cols = TraceStore::from_columns(
            rows.iter().map(|r| r.arrival).collect(),
            rows.iter().map(|r| r.lba).collect(),
            rows.iter().map(|r| r.sectors).collect(),
            rows.iter().map(|r| r.op).collect(),
            rows.iter().map(|r| r.timing).collect(),
        )
        .unwrap();
        assert_eq!(by_cols, by_rows);
        assert_eq!(by_cols.timed_count(), 1);
    }

    #[test]
    fn from_columns_normalises_all_none_timings() {
        let rows = vec![rec(0, 10), rec(5, 20)];
        let by_rows = TraceStore::from_records(rows.clone());
        let by_cols = TraceStore::from_columns(
            rows.iter().map(|r| r.arrival).collect(),
            rows.iter().map(|r| r.lba).collect(),
            rows.iter().map(|r| r.sectors).collect(),
            rows.iter().map(|r| r.op).collect(),
            vec![None, None],
        )
        .unwrap();
        assert_eq!(by_cols, by_rows);
        assert!(by_cols.view().issues().is_empty());
    }

    #[test]
    fn from_columns_rejects_mismatched_lengths() {
        let err = TraceStore::from_columns(
            vec![SimInstant::ZERO],
            vec![0, 1],
            vec![8],
            vec![OpType::Read],
            Vec::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("lba column"), "{err}");
        let err = TraceStore::from_columns(
            vec![SimInstant::ZERO],
            vec![0],
            vec![8],
            vec![OpType::Read],
            vec![None, None],
        )
        .unwrap_err();
        assert!(err.to_string().contains("timing column"), "{err}");
    }

    #[test]
    fn from_columns_rejects_zero_sectors() {
        let err = TraceStore::from_columns(
            vec![SimInstant::ZERO, SimInstant::from_usecs(1)],
            vec![0, 8],
            vec![8, 0],
            vec![OpType::Read, OpType::Write],
            Vec::new(),
        )
        .unwrap_err();
        assert!(
            matches!(err, TraceError::InvalidRecord { index: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn columns_have_equal_length() {
        let store = TraceStore::from_records(vec![rec(0, 0), timed(1), rec(2, 5)]);
        assert_eq!(store.arrivals().len(), 3);
        assert_eq!(store.lbas().len(), 3);
        assert_eq!(store.sectors().len(), 3);
        assert_eq!(store.ops().len(), 3);
    }
}
