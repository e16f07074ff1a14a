#![forbid(unsafe_code)]
//! # tt-par — deterministic parallel helpers
//!
//! The trace pipeline fans work out across CPU cores (per-chunk grouping,
//! per-group CDF analysis). The usual crate for that is `rayon`, which is
//! unavailable in the offline build environment, so this crate provides the
//! two shapes the pipeline needs on top of `std::thread::scope`:
//!
//! * [`par_map`] — dynamic (work-stealing-style) map over a slice, for
//!   uneven per-item costs such as per-group CDF analysis;
//! * [`par_chunk_map`] — static contiguous index ranges, for columnar
//!   single-pass scans such as trace grouping.
//!
//! Both return results **in input order**, so parallel and sequential runs
//! of a pure function produce bit-identical output. The worker count comes
//! from [`set_threads`], else a default read once per process (the
//! `TT_THREADS` environment variable, else the machine's available
//! parallelism); `set_threads(1)` degrades every helper to a plain
//! sequential loop (no threads spawned).
//!
//! The [`telemetry`] module is the pipeline's observability side: the
//! [`telemetry::FlightRecorder`] that assembles per-stage wall clocks and
//! record counts into a flight log.
//!
//! ```
//! let squares = tt_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod telemetry;

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Global worker-count override; 0 means "auto".
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// The "auto" worker count, computed on first use: the environment lookup
/// and `available_parallelism` (which reads cgroup and affinity files) cost
/// tens of microseconds, and every helper consults [`threads`].
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// `true` on threads spawned by this crate's helpers.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// `true` when the current thread is a worker spawned by one of this
/// crate's helpers. Library code that *could* fan out internally (e.g.
/// the parallel ECDF sort) consults this to stay sequential inside an
/// outer fan-out — nesting would multiply the thread count to
/// `threads()²` with no extra cores to run them.
#[must_use]
pub fn in_worker() -> bool {
    IN_WORKER.with(std::cell::Cell::get)
}

/// Marks the current thread as a helper-spawned worker for `f`'s duration
/// (scoped-thread workers die with the scope, so no reset is needed).
fn as_worker<U>(f: impl FnOnce() -> U) -> U {
    IN_WORKER.with(|w| w.set(true));
    f()
}

/// Sets the worker count used by every helper in this crate.
///
/// `0` restores the default (see [`threads`]). `1` makes every helper run
/// sequentially on the calling thread.
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::Relaxed);
}

/// The effective worker count: the last non-zero [`set_threads`] value,
/// else the default. The default is worked out once per process, on first
/// use: the `TT_THREADS` environment variable when it holds a positive
/// count, otherwise [`std::thread::available_parallelism`]. Changing
/// `TT_THREADS` after that first call has no effect.
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

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Items are claimed dynamically (one atomic fetch per item), so uneven
/// per-item costs balance across workers. `f` must be pure for the
/// parallel/sequential outputs to be identical — which they then are,
/// bit for bit, because each output slot is written exactly once from its
/// own input.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = threads().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, U)>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    as_worker(|| {
                        let mut local: Vec<(usize, U)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            local.push((i, f(&items[i])));
                        }
                        local
                    })
                })
            })
            .collect();
        buckets = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect();
    });

    let mut slots: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    for (i, value) in buckets.into_iter().flatten() {
        slots[i] = Some(value);
    }
    // fetch_add hands each index to exactly one worker, so every slot is
    // filled; a None here (impossible) would surface as a short output,
    // which the property tests would catch.
    slots.into_iter().flatten().collect()
}

/// Splits `0..len` into at most `parts` contiguous ranges of near-equal
/// size, in ascending order. Returns no ranges for `len == 0`.
#[must_use]
pub fn split_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    if len == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts.min(len);
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Applies `f` to contiguous index ranges covering `0..len`, in parallel,
/// returning per-range results in range order.
///
/// The range count equals the worker count (capped so every range has at
/// least `min_chunk` items), making this the right shape for columnar
/// scans that carry per-chunk state.
pub fn par_chunk_map<U, F>(len: usize, min_chunk: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(Range<usize>) -> U + Sync,
{
    let min_chunk = min_chunk.max(1);
    let workers = threads().min(len.div_ceil(min_chunk)).max(1);
    let ranges = split_ranges(len, workers);
    if workers <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    let mut out: Vec<U> = Vec::with_capacity(ranges.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| scope.spawn(|| as_worker(|| f(range))))
            .collect();
        for handle in handles {
            out.push(
                handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
    });
    out
}

/// Applies `f` to disjoint contiguous chunks of `items`, in parallel, the
/// mutable mirror of [`par_chunk_map`]: the chunk count equals the worker
/// count (capped so every chunk has at least `min_chunk` items). Returns
/// the chunk boundaries it used, in ascending order.
///
/// Because the chunks are disjoint `&mut` splits of one slice, each worker
/// owns its region exclusively — no locks, no copies — and a pure `f`
/// (per-chunk, independent of the others) produces bit-identical slices at
/// any worker count. This is the shape the parallel ECDF sort uses: sort
/// each chunk in place, then merge the returned ranges. The boundaries
/// are returned (not recomputed by the caller) so a concurrent
/// [`set_threads`] between the apply and a follow-up pass can never
/// desynchronise them.
pub fn par_chunk_apply<T, F>(items: &mut [T], min_chunk: usize, f: F) -> Vec<Range<usize>>
where
    T: Send,
    F: Fn(&mut [T]) + Sync,
{
    let min_chunk = min_chunk.max(1);
    let workers = threads().min(items.len().div_ceil(min_chunk)).max(1);
    if workers <= 1 {
        if items.is_empty() {
            return Vec::new();
        }
        f(items);
        return split_ranges(items.len(), 1);
    }
    let ranges = split_ranges(items.len(), workers);
    std::thread::scope(|scope| {
        let mut rest = items;
        let mut handles = Vec::with_capacity(ranges.len());
        for range in &ranges {
            let (chunk, tail) = rest.split_at_mut(range.len());
            rest = tail;
            handles.push(scope.spawn(|| as_worker(|| f(chunk))));
        }
        for handle in handles {
            handle
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
        }
    });
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        let par = par_map(&items, |&x| x * 3 + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(&[] as &[u64], |&x| x), Vec::<u64>::new());
        assert_eq!(par_map(&[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn split_ranges_cover_exactly() {
        for len in [0usize, 1, 7, 100, 101] {
            for parts in [1usize, 2, 3, 8] {
                let ranges = split_ranges(len, parts);
                let mut covered = 0;
                let mut prev_end = 0;
                for r in &ranges {
                    assert_eq!(r.start, prev_end, "contiguous");
                    covered += r.len();
                    prev_end = r.end;
                }
                assert_eq!(covered, len);
            }
        }
    }

    #[test]
    fn chunk_map_matches_sequential() {
        let data: Vec<u64> = (0..10_000).collect();
        let sums = par_chunk_map(data.len(), 16, |r| data[r].iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn single_thread_mode_is_sequential() {
        set_threads(1);
        let out = par_map(&[1u64, 2, 3], |&x| x);
        assert_eq!(out, vec![1, 2, 3]);
        set_threads(0);
    }

    #[test]
    fn chunk_apply_covers_every_item_once() {
        for threads in [1usize, 2, 7] {
            set_threads(threads);
            let mut data: Vec<u64> = (0..10_000).collect();
            par_chunk_apply(&mut data, 16, |chunk| {
                for x in chunk {
                    *x += 1;
                }
            });
            assert_eq!(data, (1..=10_000).collect::<Vec<u64>>(), "{threads}");
        }
        set_threads(0);
    }

    #[test]
    fn helper_threads_are_flagged_as_workers() {
        set_threads(4);
        let flags = par_map(&[(); 8], |()| in_worker());
        assert!(flags.iter().all(|&f| f), "spawned workers must be flagged");
        set_threads(0);
        // The calling thread is never a worker, even after a fan-out.
        assert!(!in_worker());
    }

    #[test]
    fn chunk_apply_handles_empty_and_tiny() {
        par_chunk_apply(&mut [] as &mut [u64], 16, |_| {});
        let mut one = [5u64];
        par_chunk_apply(&mut one, 16, |c| c[0] *= 2);
        assert_eq!(one, [10]);
    }

    #[test]
    fn uneven_work_balances() {
        // Heavier items at the front; order must still hold.
        let items: Vec<u64> = (0..64).rev().collect();
        let out = par_map(&items, |&x| {
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            (x, acc).0
        });
        assert_eq!(out, items);
    }
}
