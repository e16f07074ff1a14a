//! Shared-mapping registry: one [`MmapTrace`] per `.ttb` file, held in an
//! [`Arc`] and handed to every concurrent reader.
//!
//! A resident service answering many queries over the same trace corpus
//! should pay the map-and-validate cost of [`MmapTrace::open`] **once**
//! per file, not once per request — and all concurrent readers should
//! share one kernel mapping (one page-cache residency), not N. The
//! registry is that cache: [`MmapRegistry::open`] returns the existing
//! `Arc<MmapTrace>` for a key or maps the file on first use, and
//! [`MmapRegistry::invalidate`] drops a cached mapping when the underlying
//! file is replaced or deleted (in-flight readers keep their `Arc` alive
//! until they finish — dropping the registry entry never invalidates a
//! borrowed view).
//!
//! Concurrent reads are sound by the same argument as every other
//! [`Columns`](crate::Columns) consumer: the mapping is read-only for its
//! whole lifetime and only ever lent out as shared borrows, so any number
//! of threads may group/summarise/infer off one mapping at once
//! (bit-identical to a single reader — property-tested at the facade).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use tt_trace::registry::MmapRegistry;
//! use tt_trace::{BlockRecord, OpType, Trace, TraceMeta, time::SimInstant};
//!
//! let path = std::env::temp_dir().join("tt_registry_doc.ttb");
//! let trace = Trace::from_records(
//!     TraceMeta::named("demo"),
//!     vec![BlockRecord::new(SimInstant::from_usecs(5), 0, 8, OpType::Read)],
//! );
//! trace.write_ttb(std::fs::File::create(&path).unwrap()).unwrap();
//!
//! let registry = MmapRegistry::new();
//! let first = registry.open("demo", &path).unwrap();
//! let second = registry.open("demo", &path).unwrap();
//! // One mapping, shared: the second open is a cache hit.
//! assert!(Arc::ptr_eq(&first, &second));
//! assert_eq!(first.len(), 1);
//! registry.invalidate("demo");
//! std::fs::remove_file(&path).ok();
//! ```

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::error::TraceError;
use crate::format::ttb::MmapTrace;

/// A keyed cache of shared, read-only trace mappings.
///
/// Keys are caller-chosen strings (a trace name, a canonical path — the
/// registry does not interpret them). The registry itself is `Sync`:
/// lookups take a short internal lock, and the returned `Arc<MmapTrace>`
/// is read without any lock at all.
#[derive(Debug, Default)]
pub struct MmapRegistry {
    inner: Mutex<HashMap<String, Arc<MmapTrace>>>,
}

impl MmapRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> MmapRegistry {
        MmapRegistry::default()
    }

    /// The map, with a poisoned lock recovered: every operation the lock
    /// guards leaves the map in a valid state (inserts and removes of
    /// complete entries), so a panicking reader cannot corrupt it.
    fn map(&self) -> MutexGuard<'_, HashMap<String, Arc<MmapTrace>>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Returns the cached mapping for `key`, or maps and validates the
    /// `.ttb` file at `path` on first use. Concurrent first opens of the
    /// same key serialise on the internal lock, so the file is mapped and
    /// validated exactly once.
    ///
    /// # Errors
    ///
    /// Propagates [`MmapTrace::open`] failures (I/O, corrupt or truncated
    /// TTB contents); nothing is cached on error, so a later call retries.
    pub fn open(&self, key: &str, path: impl AsRef<Path>) -> Result<Arc<MmapTrace>, TraceError> {
        let mut map = self.map();
        if let Some(mapped) = map.get(key) {
            return Ok(Arc::clone(mapped));
        }
        let mapped = Arc::new(MmapTrace::open(path)?);
        map.insert(key.to_string(), Arc::clone(&mapped));
        Ok(mapped)
    }

    /// The cached mapping for `key`, if any — never touches the
    /// filesystem.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Arc<MmapTrace>> {
        self.map().get(key).map(Arc::clone)
    }

    /// Drops the cached mapping for `key`, returning `true` when one was
    /// cached. Call after replacing or deleting the underlying file;
    /// readers already holding the `Arc` keep a valid view of the **old**
    /// mapping until they drop it (the kernel mapping outlives the
    /// directory entry).
    pub fn invalidate(&self, key: &str) -> bool {
        self.map().remove(key).is_some()
    }

    /// Drops every cached mapping.
    pub fn clear(&self) {
        self.map().clear();
    }

    /// Number of cached mappings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map().is_empty()
    }

    /// The cached keys, in arbitrary order.
    #[must_use]
    pub fn keys(&self) -> Vec<String> {
        self.map().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimInstant;
    use crate::{BlockRecord, OpType, Trace, TraceMeta};

    fn write_ttb(name: &str, n: usize) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("tt_registry_{}_{name}.ttb", std::process::id()));
        let records: Vec<BlockRecord> = (0..n)
            .map(|i| {
                BlockRecord::new(
                    SimInstant::from_usecs(10 * i as u64),
                    8 * i as u64,
                    8,
                    if i % 3 == 0 {
                        OpType::Write
                    } else {
                        OpType::Read
                    },
                )
            })
            .collect();
        Trace::from_records(TraceMeta::named(name), records)
            .write_ttb(std::fs::File::create(&path).unwrap())
            .unwrap();
        path
    }

    #[test]
    fn open_caches_and_shares_one_mapping() {
        let path = write_ttb("share", 32);
        let reg = MmapRegistry::new();
        let a = reg.open("share", &path).unwrap();
        let b = reg.open("share", &path).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(reg.len(), 1);
        assert_eq!(a.len(), 32);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalidate_drops_cache_but_not_borrowed_views() {
        let path = write_ttb("inval", 8);
        let reg = MmapRegistry::new();
        let held = reg.open("inval", &path).unwrap();
        assert!(reg.invalidate("inval"));
        assert!(!reg.invalidate("inval"));
        assert!(reg.get("inval").is_none());
        // The held Arc still reads the old mapping even after the file is
        // gone from the directory.
        std::fs::remove_file(&path).ok();
        assert_eq!(held.columns().len(), 8);

        // Reopening after invalidation maps afresh.
        let path2 = write_ttb("inval", 4);
        let fresh = reg.open("inval", &path2).unwrap();
        assert_eq!(fresh.len(), 4);
        assert!(!Arc::ptr_eq(&held, &fresh));
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn open_error_caches_nothing() {
        let reg = MmapRegistry::new();
        let err = reg.open("ghost", "/definitely/not/here.ttb").unwrap_err();
        assert!(err.to_string().contains("not/here.ttb"));
        assert!(reg.is_empty());
    }

    #[test]
    fn concurrent_readers_share_and_agree() {
        let path = write_ttb("conc", 256);
        let reg = Arc::new(MmapRegistry::new());
        let baseline = crate::TraceStats::compute(reg.open("conc", &path).unwrap().columns());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let reg = Arc::clone(&reg);
                let path = path.clone();
                let baseline = baseline.clone();
                scope.spawn(move || {
                    let mapped = reg.open("conc", &path).unwrap();
                    let stats = crate::TraceStats::compute(mapped.columns());
                    assert_eq!(stats, baseline);
                });
            }
        });
        assert_eq!(reg.len(), 1);
        std::fs::remove_file(&path).ok();
    }
}
