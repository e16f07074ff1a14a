//! Empirical cumulative distribution functions.

use serde::{Deserialize, Serialize};

/// An empirical CDF built from finite `f64` samples.
///
/// Samples are stored sorted; evaluation is a binary search. Distinct sample
/// values form the CDF's *support points*, each carrying the cumulative
/// fraction of samples ≤ that value — the `(Tintt, CDF(Tintt))` pairs the
/// paper's steepness analysis interpolates.
///
/// # Examples
///
/// ```
/// use tt_stats::Ecdf;
///
/// let cdf = Ecdf::new(vec![1.0, 2.0, 2.0, 4.0]).unwrap();
/// assert_eq!(cdf.eval(0.5), 0.0);
/// assert_eq!(cdf.eval(2.0), 0.75);
/// assert_eq!(cdf.eval(9.0), 1.0);
/// assert_eq!(cdf.quantile(0.5), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples, taking ownership of the buffer (no
    /// copy — callers holding a buffer they no longer need should prefer
    /// this over [`Ecdf::from_slice`]).
    ///
    /// Returns `None` when `samples` is empty or contains a non-finite value
    /// (an ECDF over NaN/∞ has no meaningful order).
    ///
    /// The sort is stable: samples that compare equal but differ in bits
    /// (`-0.0` and `0.0`) keep their input order.
    #[must_use]
    pub fn new(mut samples: Vec<f64>) -> Option<Self> {
        if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        // Total over the finite samples admitted above; NaN would tie.
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Some(Ecdf { sorted: samples })
    }

    /// Builds an ECDF from a borrowed sample slice (copies, then sorts).
    ///
    /// The slice-based entry point for analysis passes that hand out
    /// borrowed column views; same `None` conditions as [`Ecdf::new`].
    #[must_use]
    pub fn from_slice(samples: &[f64]) -> Option<Self> {
        Ecdf::new(samples.to_vec())
    }

    /// Number of underlying samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `false` always — construction rejects empty sample sets. Present for
    /// API completeness alongside [`Ecdf::len`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Fraction of samples ≤ `x` (right-continuous step function).
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        self.sorted.partition_point(|&s| s <= x) as f64 / self.sorted.len() as f64
    }

    /// Smallest sample value `v` with `eval(v) >= p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "quantile prob must be in [0,1], got {p}"
        );
        let n = self.sorted.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }

    /// Smallest sample value.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample value.
    #[must_use]
    pub fn max(&self) -> f64 {
        // Non-empty by construction (`new` rejects empty input), so this
        // indexes like `min` does.
        self.sorted[self.sorted.len() - 1]
    }

    /// The sorted samples.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Support points as `(value, cumulative_fraction)` pairs, one per
    /// *distinct* value, cumulative fractions strictly increasing to 1.
    ///
    /// These are the knots handed to the pchip/spline interpolators.
    ///
    /// # Examples
    ///
    /// ```
    /// use tt_stats::Ecdf;
    ///
    /// let cdf = Ecdf::new(vec![1.0, 1.0, 3.0]).unwrap();
    /// assert_eq!(cdf.points(), vec![(1.0, 2.0 / 3.0), (3.0, 1.0)]);
    /// ```
    #[must_use]
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut pts: Vec<(f64, f64)> = Vec::new();
        for (i, &v) in self.sorted.iter().enumerate() {
            let frac = (i + 1) as f64 / n;
            match pts.last_mut() {
                Some(last) if last.0 == v => last.1 = frac,
                _ => pts.push((v, frac)),
            }
        }
        pts
    }

    /// Sampled difference of two CDFs, `self − other`, evaluated on the
    /// merged support of both.
    ///
    /// This is the paper's `CDF(diff)` between the two steepest per-size
    /// CDFs (§III, Fig 6): its maximum-derivative location yields
    /// `ΔTintt`, the representative service-time gap between two request
    /// sizes.
    #[must_use]
    pub fn difference(&self, other: &Ecdf) -> Vec<(f64, f64)> {
        let mut support: Vec<f64> = self
            .points()
            .into_iter()
            .map(|(x, _)| x)
            .chain(other.points().into_iter().map(|(x, _)| x))
            .collect();
        support.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        support.dedup();
        support
            .into_iter()
            .map(|x| (x, self.eval(x) - other.eval(x)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_non_finite() {
        assert!(Ecdf::new(vec![]).is_none());
        assert!(Ecdf::new(vec![1.0, f64::NAN]).is_none());
        assert!(Ecdf::new(vec![f64::INFINITY]).is_none());
    }

    #[test]
    fn equal_comparing_samples_keep_their_input_order() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let cdf = Ecdf::new(vec![0.0, -0.0, 1.0, -0.0]).unwrap();
        assert_eq!(bits(cdf.samples()), bits(&[0.0, -0.0, -0.0, 1.0]));

        // Past the length where std sorts small slices by insertion, an
        // unstable sort reorders the ties too.
        let input: Vec<f64> = (0..24)
            .map(|i| match i % 3 {
                0 => 0.0,
                1 => -0.0,
                _ => f64::from(24 - i),
            })
            .collect();
        let mut expect: Vec<f64> = input.iter().copied().filter(|&x| x == 0.0).collect();
        expect.extend([1.0, 4.0, 7.0, 10.0, 13.0, 16.0, 19.0, 22.0]);
        let cdf = Ecdf::new(input).unwrap();
        assert_eq!(bits(cdf.samples()), bits(&expect));
    }

    #[test]
    fn eval_is_right_continuous_step() {
        let cdf = Ecdf::new(vec![10.0, 20.0]).unwrap();
        assert_eq!(cdf.eval(9.99), 0.0);
        assert_eq!(cdf.eval(10.0), 0.5);
        assert_eq!(cdf.eval(19.99), 0.5);
        assert_eq!(cdf.eval(20.0), 1.0);
    }

    #[test]
    fn quantile_inverts_eval() {
        let cdf = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(0.2), 1.0);
        assert_eq!(cdf.quantile(0.5), 3.0);
        assert_eq!(cdf.quantile(1.0), 5.0);
    }

    #[test]
    fn points_deduplicate_and_end_at_one() {
        let cdf = Ecdf::new(vec![2.0, 2.0, 2.0, 7.0]).unwrap();
        let pts = cdf.points();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0], (2.0, 0.75));
        assert_eq!(pts[1], (7.0, 1.0));
    }

    #[test]
    fn points_strictly_increasing_fraction() {
        let cdf = Ecdf::new(vec![5.0, 1.0, 3.0, 3.0, 9.0, 1.0]).unwrap();
        let pts = cdf.points();
        for w in pts.windows(2) {
            assert!(w[1].0 > w[0].0);
            assert!(w[1].1 > w[0].1);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn difference_of_shifted_cdfs_peaks_between() {
        // other is self shifted right by 10: difference is +1 in the gap.
        let a = Ecdf::new(vec![10.0, 20.0]).unwrap();
        let b = Ecdf::new(vec![20.0, 30.0]).unwrap();
        let diff = a.difference(&b);
        let max = diff
            .iter()
            .map(|&(_, d)| d)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(max > 0.0);
        // At x >= 30 both CDFs are 1, difference 0.
        assert_eq!(diff.last().unwrap().1, 0.0);
    }

    #[test]
    fn min_max_reflect_samples() {
        let cdf = Ecdf::new(vec![4.0, -2.0, 8.0]).unwrap();
        assert_eq!(cdf.min(), -2.0);
        assert_eq!(cdf.max(), 8.0);
        assert_eq!(cdf.len(), 3);
    }
}
