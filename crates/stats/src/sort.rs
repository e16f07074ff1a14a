//! Deterministic (optionally parallel) sorting of finite `f64` samples.
//!
//! [`Ecdf::new`](crate::Ecdf) sorts its samples here. Timing inference no
//! longer sorts group samples: it counts each group's gaps into bins and
//! reads both its PDF and its CDF off the counts. The callers left are the
//! `CdfDiff` `ΔT` estimator's raw-sample ECDFs of the two steepest groups,
//! `tt_core::report::cdf_series` (the plotted CDF series of the experiment
//! harnesses) and the Fig 5 experiment's CDFs. For the paper's large
//! collections one group can hold tens of millions of inter-arrival
//! samples, where a sequential sort would dominate. [`sort_samples`] keeps
//! small inputs on `std`'s stable sort and switches to a chunked parallel
//! merge sort ([`par_merge_sort`]) past [`PAR_SORT_THRESHOLD`].
//!
//! The parallel path is **bit-identical** to the sequential one at any
//! worker count (property-tested): chunks are sorted with the same stable
//! comparator, and the merge always takes from the *left* run on ties, so
//! equal-comparing values that differ in bits (`-0.0` vs `0.0`) keep their
//! input order exactly as a stable sequential sort keeps it.
//!
//! Samples must be finite — the comparator is total only without NaN;
//! [`Ecdf::new`](crate::Ecdf) rejects non-finite input before sorting.

/// Sample count from which [`sort_samples`] fans out across cores: below
/// it, thread spawning costs more than the sort.
pub const PAR_SORT_THRESHOLD: usize = 1 << 15;

/// Samples per worker chunk below which the parallel sort stops splitting.
const MIN_SORT_CHUNK: usize = 1 << 12;

/// The one comparator both paths share: total over the finite values the
/// stats layer feeds it (NaN — excluded upstream — would tie as Equal
/// rather than abort the sort).
fn cmp(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
}

/// Stable-sorts finite samples, in parallel past [`PAR_SORT_THRESHOLD`]
/// when more than one worker is configured ([`tt_par::threads`]) **and**
/// the caller is not itself running inside a `tt_par` worker — per-group
/// inference already fans groups out across all cores, and nesting a
/// second fan-out would spawn `threads()²` threads with no cores left to
/// run them ([`tt_par::in_worker`]). Parallel and sequential outputs are
/// bit-identical.
///
/// # Examples
///
/// ```
/// let mut samples = vec![3.0, 1.0, 2.0];
/// tt_stats::sort::sort_samples(&mut samples);
/// assert_eq!(samples, vec![1.0, 2.0, 3.0]);
/// ```
pub fn sort_samples(samples: &mut Vec<f64>) {
    if samples.len() >= PAR_SORT_THRESHOLD && tt_par::threads() > 1 && !tt_par::in_worker() {
        par_merge_sort(samples);
    } else {
        samples.sort_by(cmp);
    }
}

/// The parallel path: sort contiguous chunks on separate cores, then merge
/// adjacent runs pairwise (also in parallel) until one run remains.
///
/// Exposed so the bit-identity property can be tested below the size
/// threshold; use [`sort_samples`] for the adaptive entry point.
pub fn par_merge_sort(samples: &mut Vec<f64>) {
    // Phase 1: stable-sort disjoint chunks in place, one per worker. The
    // run boundaries come back from the apply itself, so a concurrent
    // `tt_par::set_threads` can never desynchronise sort and merge — and
    // *any* boundary choice yields the same bits, because stable-sorted
    // runs merged left-biased reproduce the stable sequential sort.
    let ranges = tt_par::par_chunk_apply(samples, MIN_SORT_CHUNK, |chunk| chunk.sort_by(cmp));
    if ranges.len() <= 1 {
        return; // fully sorted in place
    }

    // Phase 2, first round: merge adjacent in-place runs into owned runs
    // (an unpaired trailing run pays its one copy here).
    let slices: Vec<&[f64]> = ranges.iter().map(|r| &samples[r.clone()]).collect();
    let pairs: Vec<&[&[f64]]> = slices.chunks(2).collect();
    let mut runs: Vec<Vec<f64>> = tt_par::par_map(&pairs, |pair| match pair {
        [left, right] => merge(left, right),
        [last] => last.to_vec(),
        // chunks(2) yields only 1- or 2-element slices.
        _ => Vec::new(),
    });

    // Later rounds: keep halving. An odd trailing run is *moved* aside
    // and re-appended — never copied again.
    while runs.len() > 1 {
        let odd = (runs.len() % 2 == 1).then(|| runs.pop()).flatten();
        let pairs: Vec<&[Vec<f64>]> = runs.chunks(2).collect();
        let mut next = tt_par::par_map(&pairs, |pair| merge(&pair[0], &pair[1]));
        next.extend(odd);
        runs = next;
    }
    samples.clear();
    samples.append(&mut runs[0]);
}

/// Stable merge of two sorted runs: ties take from `left` first, which is
/// what keeps the parallel sort bit-identical to a stable sequential sort.
fn merge(left: &[f64], right: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(left.len() + right.len());
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        if cmp(&right[j], &left[i]) == std::cmp::Ordering::Less {
            out.push(right[j]);
            j += 1;
        } else {
            out.push(left[i]);
            i += 1;
        }
    }
    out.extend_from_slice(&left[i..]);
    out.extend_from_slice(&right[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_samples(n: usize, seed: u64) -> Vec<f64> {
        // Deterministic xorshift mix, including duplicates and ±0.0.
        let mut x = seed | 1;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                match x % 16 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((x % 10_000) as f64) / 8.0 - (i % 3) as f64,
                }
            })
            .collect()
    }

    #[test]
    fn parallel_sort_is_bit_identical_to_stable_sort() {
        for threads in [2usize, 3, 7] {
            tt_par::set_threads(threads);
            for n in [1usize, 2, 100, 4 * MIN_SORT_CHUNK + 57] {
                let input = pseudo_samples(n, 0xC0FFEE + n as u64);
                let mut expect = input.clone();
                expect.sort_by(cmp);
                let mut got = input;
                par_merge_sort(&mut got);
                assert_eq!(expect.len(), got.len());
                for (a, b) in expect.iter().zip(&got) {
                    assert_eq!(a.to_bits(), b.to_bits(), "threads {threads}, n {n}");
                }
            }
        }
        tt_par::set_threads(0);
    }

    #[test]
    fn sort_samples_crosses_the_threshold() {
        tt_par::set_threads(4);
        let input = pseudo_samples(PAR_SORT_THRESHOLD + 123, 7);
        let mut expect = input.clone();
        expect.sort_by(cmp);
        let mut got = input;
        sort_samples(&mut got);
        assert_eq!(
            expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        tt_par::set_threads(0);
    }

    #[test]
    fn merge_takes_left_on_ties() {
        // -0.0 and 0.0 compare equal but differ in bits: left first.
        let merged = merge(&[-0.0, 1.0], &[0.0, 1.0]);
        assert_eq!(merged[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(merged[1].to_bits(), 0.0f64.to_bits());
    }
}
