//! Shared experiment inputs: OLD/NEW trace pairs per catalog workload.

use tt_device::presets;
use tt_trace::Trace;
use tt_workloads::{catalog, generate_session, CatalogEntry, Session, WorkloadSet};

/// Everything the figure harnesses need for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadData {
    /// The catalog row.
    pub entry: CatalogEntry,
    /// The ground-truth session.
    pub session: Session,
    /// Trace collected on the 2007 HDD node (the "old"/target trace).
    pub old: Trace,
    /// Trace collected on the all-flash array (the real new system).
    pub new: Trace,
}

/// Whether a collection records device-side timing (issue/completion).
/// MSPS and MSRC used an event-based kernel tracer; FIU did not (§V).
#[must_use]
pub fn records_device_timing(set: WorkloadSet) -> bool {
    matches!(set, WorkloadSet::Msps | WorkloadSet::Msrc)
}

/// Builds the OLD/NEW pair for one workload. Deterministic in
/// `(name, requests, seed)`.
///
/// # Panics
///
/// Panics when `name` is not in the catalog.
#[must_use]
pub fn load(name: &str, requests: usize, seed: u64) -> WorkloadData {
    let entry = catalog::find(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let session = generate_session(name, &entry.profile, requests, seed);
    let timing = records_device_timing(entry.set);

    let mut old_node = presets::enterprise_hdd_2007();
    let old = session.materialize(&mut old_node, timing).trace;
    let mut new_node = presets::intel_750_array();
    let new = session.materialize(&mut new_node, timing).trace;

    WorkloadData {
        entry,
        session,
        old,
        new,
    }
}

/// Loads every Table I workload (31 of them) at `requests` each.
#[must_use]
pub fn load_table1(requests: usize) -> Vec<WorkloadData> {
    catalog::table1()
        .iter()
        .enumerate()
        .map(|(i, e)| load(e.name, requests, 0xA0 + i as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_is_deterministic() {
        let a = load("ikki", 100, 1);
        let b = load("ikki", 100, 1);
        assert_eq!(a.old.columns(), b.old.columns());
        assert_eq!(a.new.columns(), b.new.columns());
    }

    #[test]
    fn timing_classes_follow_collections() {
        assert!(load("CFS", 50, 1).old.has_device_timing());
        assert!(!load("ikki", 50, 1).old.has_device_timing());
    }
}
