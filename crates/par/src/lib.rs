#![forbid(unsafe_code)]
//! # tt-par — the pipeline flight recorder and a worker-count setting
//!
//! Trace analysis runs on the calling thread: grouping, per-group
//! inference and the ECDF sort each make one sequential pass. What this
//! crate keeps is the pipeline's observability side, the [`telemetry`]
//! module's [`telemetry::FlightRecorder`], which assembles per-stage wall
//! clocks and record counts into a flight log.
//!
//! It also keeps the process-wide worker count, [`threads`] and
//! [`set_threads`], for the benchmark harnesses that report and toggle it.
//! No code in the workspace reads the count any more: setting it changes
//! no output and no schedule.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod telemetry;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Global worker-count override; 0 means "auto".
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// The "auto" worker count, computed on first use: the environment lookup
/// and `available_parallelism` (which reads cgroup and affinity files) cost
/// tens of microseconds.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

/// Sets the worker count that [`threads`] reports.
///
/// `0` restores the default (see [`threads`]). No code in the workspace
/// reads the count: the setting only changes what [`threads`] returns.
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::Relaxed);
}

/// The configured worker count: the last non-zero [`set_threads`] value,
/// else the default. The default is worked out once per process, on first
/// use: the `TT_THREADS` environment variable when it holds a positive
/// count, otherwise [`std::thread::available_parallelism`]. Changing
/// `TT_THREADS` after that first call has no effect.
///
/// No code in the workspace reads the count; analysis is sequential.
#[must_use]
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => *DEFAULT_THREADS.get_or_init(|| {
            std::env::var("TT_THREADS")
                .ok()
                .and_then(|s| s.parse().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
                })
        }),
        n => n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_threads_overrides_the_default_until_reset() {
        let default = threads();
        assert!(default >= 1);
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert_eq!(threads(), default);
    }
}
