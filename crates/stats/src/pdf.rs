//! Discrete probability density estimates.

use serde::Serialize;

/// A discrete PDF: `(value, probability)` pairs with probabilities summing
/// to 1.
///
/// Algorithm 1 of the paper estimates `PDF(Ti) = num(Ti) / num(requests)`
/// over the distinct inter-arrival values of a group. Raw nanosecond
/// timestamps rarely repeat, so [`DiscretePdf::binned`] (linear bins) and
/// [`DiscretePdf::log_binned`] (constant bins per decade — matching the
/// log-x CDF plots in the paper) quantise first; [`DiscretePdf::exact`]
/// keeps values as-is.
///
/// # Examples
///
/// ```
/// use tt_stats::DiscretePdf;
///
/// let pdf = DiscretePdf::exact(&[1.0, 1.0, 2.0, 4.0]).unwrap();
/// assert_eq!(pdf.points().len(), 3);
/// assert_eq!(pdf.points()[0], (1.0, 0.5));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DiscretePdf {
    points: Vec<(f64, f64)>,
}

impl DiscretePdf {
    /// Builds a PDF over the exact distinct sample values.
    ///
    /// Returns `None` when `samples` is empty or contains non-finite values.
    #[must_use]
    pub fn exact(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        // All-finite was checked above, so Equal is never substituted.
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = sorted.len() as f64;
        let mut points: Vec<(f64, f64)> = Vec::new();
        for v in sorted {
            match points.last_mut() {
                Some(last) if last.0 == v => last.1 += 1.0 / n,
                _ => points.push((v, 1.0 / n)),
            }
        }
        Some(DiscretePdf { points })
    }

    /// Builds a PDF from samples already counted per distinct value:
    /// `(value, count)` pairs in strictly increasing value order. Equal to
    /// [`DiscretePdf::exact`] of the expanded samples, bit for bit — each
    /// mass is the same running sum of `1/n` that `exact` accumulates,
    /// which can differ from `count / n` in the last bits — without
    /// expanding or sorting them.
    ///
    /// Returns `None` when `counts` is empty, holds a non-finite value or a
    /// zero count, or is not strictly increasing.
    ///
    /// # Examples
    ///
    /// ```
    /// use tt_stats::DiscretePdf;
    ///
    /// let pdf = DiscretePdf::from_sorted_counts(&[(1.0, 2), (2.0, 1), (4.0, 1)]).unwrap();
    /// assert_eq!(pdf, DiscretePdf::exact(&[1.0, 1.0, 2.0, 4.0]).unwrap());
    /// ```
    #[must_use]
    pub fn from_sorted_counts(counts: &[(f64, usize)]) -> Option<Self> {
        if counts.is_empty()
            || counts.iter().any(|&(v, c)| !v.is_finite() || c == 0)
            || counts.windows(2).any(|w| w[1].0 <= w[0].0)
        {
            return None;
        }
        let n = counts.iter().map(|&(_, c)| c).sum::<usize>() as f64;
        let points = counts
            .iter()
            .map(|&(v, c)| {
                let mut p = 1.0 / n;
                for _ in 1..c {
                    p += 1.0 / n;
                }
                (v, p)
            })
            .collect();
        Some(DiscretePdf { points })
    }

    /// Builds a PDF over linear bins of width `bin_width`; each bin is
    /// represented by its centre.
    ///
    /// Returns `None` on empty/non-finite input.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not strictly positive.
    #[must_use]
    pub fn binned(samples: &[f64], bin_width: f64) -> Option<Self> {
        assert!(
            bin_width > 0.0 && bin_width.is_finite(),
            "bin width must be positive and finite"
        );
        if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let quantised: Vec<f64> = samples
            .iter()
            .map(|&x| ((x / bin_width).floor() + 0.5) * bin_width)
            .collect();
        DiscretePdf::exact(&quantised)
    }

    /// Builds a PDF over logarithmic bins (`bins_per_decade` per factor of
    /// 10), suitable for latency-style data spanning many decades. Values
    /// `<= 0` are clamped into the lowest bin.
    ///
    /// Returns `None` on empty/non-finite input.
    ///
    /// # Panics
    ///
    /// Panics if `bins_per_decade` is zero.
    #[must_use]
    pub fn log_binned(samples: &[f64], bins_per_decade: u32) -> Option<Self> {
        assert!(bins_per_decade > 0, "need at least one bin per decade");
        if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let step = 1.0 / f64::from(bins_per_decade);
        let floor_log = samples
            .iter()
            .filter(|&&x| x > 0.0)
            .map(|&x| x.log10())
            .fold(f64::INFINITY, f64::min);
        let quantised: Vec<f64> = samples
            .iter()
            .map(|&x| {
                let lg = if x > 0.0 { x.log10() } else { floor_log };
                let bin = (lg / step).floor();
                10f64.powf((bin + 0.5) * step)
            })
            .collect();
        DiscretePdf::exact(&quantised)
    }

    /// The `(value, probability)` pairs, values strictly increasing.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of distinct support values.
    #[must_use]
    pub fn support_len(&self) -> usize {
        self.points.len()
    }

    /// The support value with the highest probability (the distribution
    /// mode). Ties resolve to the smallest value.
    #[must_use]
    pub fn mode(&self) -> f64 {
        self.points
            .iter()
            .fold((f64::NAN, f64::NEG_INFINITY), |acc, &(v, p)| {
                if p > acc.1 {
                    (v, p)
                } else {
                    acc
                }
            })
            .0
    }

    /// Sum of probabilities (≈ 1; exposed for tests and sanity checks).
    #[must_use]
    pub fn total_mass(&self) -> f64 {
        self.points.iter().map(|&(_, p)| p).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counts_duplicates() {
        let pdf = DiscretePdf::exact(&[3.0, 1.0, 3.0, 3.0]).unwrap();
        assert_eq!(pdf.points(), &[(1.0, 0.25), (3.0, 0.75)]);
        assert_eq!(pdf.mode(), 3.0);
    }

    #[test]
    fn rejects_empty_and_nan() {
        assert!(DiscretePdf::exact(&[]).is_none());
        assert!(DiscretePdf::exact(&[f64::NAN]).is_none());
        assert!(DiscretePdf::binned(&[], 1.0).is_none());
        assert!(DiscretePdf::log_binned(&[], 4).is_none());
    }

    #[test]
    fn mass_sums_to_one() {
        let pdf = DiscretePdf::exact(&[1.0, 2.0, 2.0, 5.0, 9.0]).unwrap();
        assert!((pdf.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn binned_groups_neighbours() {
        let pdf = DiscretePdf::binned(&[0.1, 0.2, 0.9, 1.1], 1.0).unwrap();
        // bins [0,1) -> centre 0.5 (3 samples), [1,2) -> centre 1.5 (1).
        assert_eq!(pdf.points(), &[(0.5, 0.75), (1.5, 0.25)]);
    }

    #[test]
    fn log_binned_spans_decades() {
        let samples = [1.0, 2.0, 10.0, 20.0, 100.0, 200.0];
        let pdf = DiscretePdf::log_binned(&samples, 1).unwrap();
        assert_eq!(pdf.support_len(), 3); // one bin per decade
        assert!((pdf.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_binned_handles_zeros() {
        let pdf = DiscretePdf::log_binned(&[0.0, 1.0, 1.5], 2).unwrap();
        assert!((pdf.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn binned_rejects_zero_width() {
        let _ = DiscretePdf::binned(&[1.0], 0.0);
    }

    /// `from_sorted_counts` equals `exact` of the expanded samples, bit for
    /// bit — including one bin of 1e5 samples, where the running sum of
    /// `1/n` drifts from `count / n`.
    #[test]
    fn sorted_counts_equal_exact_of_expanded_samples() {
        let cases: [&[(f64, usize)]; 5] = [
            &[(7.5, 1)],
            &[(0.5, 3), (1.5, 1), (10.25, 2), (10.5, 5)],
            &[(-2.0, 4), (0.0, 1), (3.0, 9)],
            &[(1.0, 100_000)],
            &[(0.5, 3), (2.5, 100_000), (1e9, 7)],
        ];
        for counts in cases {
            let expanded: Vec<f64> = counts
                .iter()
                .flat_map(|&(v, c)| std::iter::repeat_n(v, c))
                .collect();
            let exact = DiscretePdf::exact(&expanded).unwrap();
            let fast = DiscretePdf::from_sorted_counts(counts).unwrap();
            assert_eq!(exact.points().len(), fast.points().len());
            for (a, b) in exact.points().iter().zip(fast.points()) {
                assert_eq!(a.0.to_bits(), b.0.to_bits(), "{counts:?}");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "{counts:?}");
            }
        }
        // The running sum the test pins down really differs from c / n.
        let drifted = DiscretePdf::from_sorted_counts(&[(0.5, 3), (2.5, 100_000), (1e9, 7)]);
        assert_ne!(
            drifted.unwrap().points()[1].1.to_bits(),
            (100_000.0f64 / 100_010.0).to_bits()
        );
    }

    proptest::proptest! {
        /// `from_sorted_counts` over run-length counts equals `exact` over
        /// the samples, bit for bit.
        #[test]
        fn sorted_counts_equal_exact(
            raw in proptest::collection::vec(0u32..40, 1..400),
            scale in 0.01f64..100.0,
        ) {
            let mut samples: Vec<f64> = raw.iter().map(|&k| f64::from(k) * scale).collect();
            samples.sort_by(f64::total_cmp);
            let mut counts: Vec<(f64, usize)> = Vec::new();
            for &v in &samples {
                match counts.last_mut() {
                    Some(last) if last.0 == v => last.1 += 1,
                    _ => counts.push((v, 1)),
                }
            }
            let bits = |pdf: DiscretePdf| -> Vec<(u64, u64)> {
                pdf.points().iter().map(|&(v, p)| (v.to_bits(), p.to_bits())).collect()
            };
            assert_eq!(
                bits(DiscretePdf::exact(&samples).unwrap()),
                bits(DiscretePdf::from_sorted_counts(&counts).unwrap())
            );
        }
    }

    #[test]
    fn sorted_counts_reject_what_exact_cannot_produce() {
        assert!(DiscretePdf::from_sorted_counts(&[]).is_none());
        assert!(DiscretePdf::from_sorted_counts(&[(f64::INFINITY, 1)]).is_none());
        assert!(DiscretePdf::from_sorted_counts(&[(1.0, 0)]).is_none());
        assert!(DiscretePdf::from_sorted_counts(&[(2.0, 1), (1.0, 1)]).is_none());
        assert!(DiscretePdf::from_sorted_counts(&[(1.0, 1), (1.0, 1)]).is_none());
    }

    #[test]
    fn support_is_strictly_increasing() {
        let pdf = DiscretePdf::exact(&[5.0, 3.0, 5.0, 1.0, 3.0]).unwrap();
        for w in pdf.points().windows(2) {
            assert!(w[1].0 > w[0].0);
        }
    }
}
