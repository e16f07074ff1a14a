//! Request classification and grouping (paper §III).
//!
//! The inference model partitions a trace's requests three ways before any
//! CDF analysis:
//!
//! 1. **sequentiality** — a request is *sequential* when it starts exactly
//!    where the previous request ended, otherwise *random*;
//! 2. **operation type** — read vs. write;
//! 3. **request size** — in 512-byte sectors.
//!
//! Each resulting group collects the inter-arrival times (`Tintt`) that
//! follow its member requests; those per-group samples feed the CDF
//! steepness machinery in `tt-core`.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::op::OpType;
use crate::store::Columns;
use crate::time::SimDuration;
use crate::trace::Trace;

/// Whether a request continues the previous request's address range.
///
/// # Examples
///
/// ```
/// use tt_trace::Sequentiality;
///
/// assert_ne!(Sequentiality::Sequential, Sequentiality::Random);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Sequentiality {
    /// Starts at the previous request's end LBA.
    Sequential,
    /// Anything else (including the first request of a trace).
    Random,
}

impl Sequentiality {
    /// Both variants, sequential first.
    pub const ALL: [Sequentiality; 2] = [Sequentiality::Sequential, Sequentiality::Random];

    /// `true` for [`Sequentiality::Sequential`].
    #[must_use]
    pub const fn is_sequential(self) -> bool {
        matches!(self, Sequentiality::Sequential)
    }
}

impl fmt::Display for Sequentiality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sequentiality::Sequential => f.write_str("seq"),
            Sequentiality::Random => f.write_str("rand"),
        }
    }
}

/// Classifies every record of `trace` as sequential or random, in one pass
/// over the LBA and size columns.
///
/// The first record is always [`Sequentiality::Random`] — there is no
/// predecessor to be sequential to.
///
/// # Examples
///
/// ```
/// use tt_trace::{classify_sequentiality, BlockRecord, OpType, Sequentiality, Trace, TraceMeta,
///     time::SimInstant};
///
/// let recs = vec![
///     BlockRecord::new(SimInstant::from_usecs(0), 100, 8, OpType::Read),
///     BlockRecord::new(SimInstant::from_usecs(1), 108, 8, OpType::Read), // contiguous
///     BlockRecord::new(SimInstant::from_usecs(2), 500, 8, OpType::Read), // jump
/// ];
/// let trace = Trace::from_records(TraceMeta::default(), recs);
/// let classes = classify_sequentiality(&trace);
/// assert_eq!(classes, vec![
///     Sequentiality::Random,
///     Sequentiality::Sequential,
///     Sequentiality::Random,
/// ]);
/// ```
#[must_use]
pub fn classify_sequentiality(trace: &Trace) -> Vec<Sequentiality> {
    classify_columns(trace.view())
}

/// [`classify_sequentiality`] over a borrowed column view — identical
/// output whether the columns come from an owned store or a mapped `.ttb`
/// file.
#[must_use]
pub fn classify_columns(cols: Columns<'_>) -> Vec<Sequentiality> {
    let (lbas, sectors) = (cols.lbas(), cols.sectors());
    (0..cols.len())
        .map(|i| class_at(lbas, sectors, i))
        .collect()
}

/// Sequentiality of record `i` straight from the columns.
#[inline]
fn class_at(lbas: &[u64], sectors: &[u32], i: usize) -> Sequentiality {
    if i > 0 && crate::record::BlockRecord::lba_run_continues(lbas[i - 1], sectors[i - 1], lbas[i])
    {
        Sequentiality::Sequential
    } else {
        Sequentiality::Random
    }
}

/// Identity of one request group: (sequentiality, op type, request size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GroupKey {
    /// Sequential or random.
    pub seq: Sequentiality,
    /// Read or write.
    pub op: OpType,
    /// Request size in sectors.
    pub sectors: u32,
}

impl fmt::Display for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}sec", self.seq, self.op, self.sectors)
    }
}

/// One request group: member record indices and their following `Tintt`
/// samples.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Group {
    /// Indices into the source trace, in arrival order.
    pub indices: Vec<usize>,
    /// `Tintt` following each member that has a successor (so this can be
    /// one shorter than `indices` when the trace's last record is a member).
    pub inter_arrivals: Vec<SimDuration>,
}

impl Group {
    /// Number of member requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// `true` when the group has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Inter-arrival samples as microsecond floats (the unit the paper's
    /// CDFs are plotted in).
    #[must_use]
    pub fn inter_arrivals_usec(&self) -> Vec<f64> {
        self.inter_arrivals
            .iter()
            .map(|d| d.as_usecs_f64())
            .collect()
    }
}

/// A trace partitioned into (sequentiality × op × size) groups.
///
/// # Examples
///
/// ```
/// use tt_trace::{BlockRecord, GroupedTrace, OpType, Trace, TraceMeta, time::SimInstant};
///
/// let recs = (0..10)
///     .map(|i| BlockRecord::new(SimInstant::from_usecs(i * 100), i * 1000, 8, OpType::Read))
///     .collect();
/// let trace = Trace::from_records(TraceMeta::default(), recs);
/// let grouped = GroupedTrace::build(&trace);
/// assert_eq!(grouped.total_members(), 10);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GroupedTrace {
    groups: BTreeMap<GroupKey, Group>,
}

impl GroupedTrace {
    /// Partitions `trace` into groups in one pass over its columns.
    #[must_use]
    pub fn build(trace: &Trace) -> Self {
        GroupedTrace::build_columns(trace.view())
    }

    /// Partitions a borrowed column view into groups — the entry point
    /// shared by owned traces ([`GroupedTrace::build`]) and memory-mapped
    /// `.ttb` files ([`MmapTrace`](crate::format::ttb::MmapTrace)), with
    /// the same output either way.
    ///
    /// One pass reads only the columns (no per-record method calls): each
    /// record joins its group, and the gap to its successor's arrival
    /// becomes the group's next `Tintt` sample.
    #[must_use]
    pub fn build_columns(cols: Columns<'_>) -> Self {
        let arrivals = cols.arrivals();
        let lbas = cols.lbas();
        let sectors = cols.sectors();
        let ops = cols.ops();
        let mut groups: BTreeMap<GroupKey, Group> = BTreeMap::new();
        for i in 0..cols.len() {
            let key = GroupKey {
                seq: class_at(lbas, sectors, i),
                op: ops[i],
                sectors: sectors[i],
            };
            let group = groups.entry(key).or_default();
            group.indices.push(i);
            if let Some(&next) = arrivals.get(i + 1) {
                group.inter_arrivals.push(next - arrivals[i]);
            }
        }
        GroupedTrace { groups }
    }

    /// The group for `key`, if present.
    #[must_use]
    pub fn get(&self, key: &GroupKey) -> Option<&Group> {
        self.groups.get(key)
    }

    /// Iterates over `(key, group)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&GroupKey, &Group)> {
        self.groups.iter()
    }

    /// Number of distinct groups.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Sum of member counts across groups (equals the trace length).
    #[must_use]
    pub fn total_members(&self) -> usize {
        self.groups.values().map(Group::len).sum()
    }

    /// Groups matching a sequentiality and op type, keyed by request size.
    ///
    /// This is the slice of the partition the steepness analysis walks: "we
    /// create multiple graphs of CDF(Tintt) for each request size observed in
    /// each read or write with the sequential access pattern" (§III).
    pub fn by_size(&self, seq: Sequentiality, op: OpType) -> impl Iterator<Item = (u32, &Group)> {
        self.groups
            .iter()
            .filter(move |(k, _)| k.seq == seq && k.op == op)
            .map(|(k, g)| (k.sectors, g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::BlockRecord;
    use crate::time::SimInstant;
    use crate::trace::TraceMeta;

    fn trace_of(recs: Vec<BlockRecord>) -> Trace {
        Trace::from_records(TraceMeta::default(), recs)
    }

    fn rec(us: u64, lba: u64, sectors: u32, op: OpType) -> BlockRecord {
        BlockRecord::new(SimInstant::from_usecs(us), lba, sectors, op)
    }

    #[test]
    fn first_record_is_random() {
        let t = trace_of(vec![rec(0, 0, 8, OpType::Read)]);
        assert_eq!(classify_sequentiality(&t), vec![Sequentiality::Random]);
    }

    #[test]
    fn empty_trace_classifies_to_empty() {
        assert!(classify_sequentiality(&Trace::new()).is_empty());
    }

    #[test]
    fn sequential_runs_detected() {
        let t = trace_of(vec![
            rec(0, 0, 8, OpType::Read),
            rec(1, 8, 8, OpType::Read),
            rec(2, 16, 8, OpType::Read),
            rec(3, 1000, 8, OpType::Read),
            rec(4, 1008, 8, OpType::Write),
        ]);
        let classes = classify_sequentiality(&t);
        assert_eq!(
            classes,
            vec![
                Sequentiality::Random,
                Sequentiality::Sequential,
                Sequentiality::Sequential,
                Sequentiality::Random,
                Sequentiality::Sequential, // op change does not break LBA adjacency
            ]
        );
    }

    #[test]
    fn partition_covers_every_record_exactly_once() {
        let t = trace_of(vec![
            rec(0, 0, 8, OpType::Read),
            rec(10, 8, 8, OpType::Read),
            rec(20, 100, 16, OpType::Write),
            rec(30, 116, 16, OpType::Write),
            rec(40, 999, 8, OpType::Read),
        ]);
        let g = GroupedTrace::build(&t);
        assert_eq!(g.total_members(), 5);
        let mut seen: Vec<usize> = g.iter().flat_map(|(_, grp)| grp.indices.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn last_record_contributes_no_gap() {
        let t = trace_of(vec![
            rec(0, 0, 8, OpType::Read),
            rec(10, 999, 8, OpType::Read),
        ]);
        let g = GroupedTrace::build(&t);
        let total_gaps: usize = g.iter().map(|(_, grp)| grp.inter_arrivals.len()).sum();
        assert_eq!(total_gaps, t.len() - 1);
    }

    #[test]
    fn by_size_filters_correctly() {
        let t = trace_of(vec![
            rec(0, 0, 8, OpType::Read),
            rec(10, 500, 16, OpType::Read),
            rec(20, 900, 8, OpType::Write),
        ]);
        let g = GroupedTrace::build(&t);
        let read_rand: Vec<u32> = g
            .by_size(Sequentiality::Random, OpType::Read)
            .map(|(s, _)| s)
            .collect();
        assert_eq!(read_rand, vec![8, 16]);
        assert_eq!(
            g.by_size(Sequentiality::Sequential, OpType::Read).count(),
            0
        );
    }

    #[test]
    fn gap_attributed_to_preceding_record() {
        // Record 0 (read, 8 sectors) is followed by a 100us gap; record 1
        // (write, 16) by a 5us gap. Check attribution.
        let t = trace_of(vec![
            rec(0, 0, 8, OpType::Read),
            rec(100, 500, 16, OpType::Write),
            rec(105, 900, 16, OpType::Write),
        ]);
        let g = GroupedTrace::build(&t);
        let read_key = GroupKey {
            seq: Sequentiality::Random,
            op: OpType::Read,
            sectors: 8,
        };
        let grp = g.get(&read_key).unwrap();
        assert_eq!(grp.inter_arrivals, vec![SimDuration::from_usecs(100)]);
    }
}
