//! CDF steepness examination via PDF outliers (paper Algorithm 1).
//!
//! Differentiating every per-size CDF would be expensive and noisy; the
//! paper instead ranks groups by a cheap proxy computed on the PDF:
//!
//! 1. compute `PDF(Ti)` over the group's inter-arrival values;
//! 2. fit a straight line through the `(Ti, PDF(Ti))` points
//!    (Algorithm 1's literal `std/std` fit);
//! 3. points more than `margin = var(PDF)/2` above the line are *outliers*;
//! 4. the outlier with the largest PDF value is the *utmost outlier*; its
//!    distance above the line is the group's **steepness**.
//!
//! A tall PDF spike means many identical inter-arrival values, i.e. a CDF
//! that jumps — exactly the "steep" graphs the decomposition wants.

use serde::Serialize;

use crate::pdf::DiscretePdf;
use crate::regression::{fit_algorithm1, LinearFit};
use crate::summary::variance;

/// Result of the Algorithm 1 steepness examination for one group.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SteepnessReport {
    /// The inter-arrival value at the utmost outlier (`T_utmost_intt`). This
    /// is the CDF's steepest-rise location estimate.
    pub utmost_value: f64,
    /// The PDF mass at the utmost outlier.
    pub utmost_prob: f64,
    /// Distance between the PDF spike and the fitted line — the ranking key
    /// ("steepness", Algorithm 1 line 15).
    pub steepness: f64,
    /// Number of outliers found (diagnostic).
    pub outlier_count: usize,
}

/// Runs Algorithm 1 on a discrete PDF.
///
/// When the regression is degenerate (single support point), the PDF spike
/// itself serves as the steepness — a single-valued group is a maximally
/// steep CDF. When no point clears the margin, the highest-PDF point is used
/// with its (possibly small) distance, so every group still gets a
/// comparable rank.
///
/// # Examples
///
/// ```
/// use tt_stats::{examine_steepness, DiscretePdf};
///
/// // 80% of samples at 100us: a steep CDF.
/// let steep = DiscretePdf::exact(&[100.0, 100.0, 100.0, 100.0, 500.0]).unwrap();
/// // Uniform spread: a shallow CDF.
/// let flat = DiscretePdf::exact(&[100.0, 200.0, 300.0, 400.0, 500.0]).unwrap();
///
/// let s = examine_steepness(&steep);
/// let f = examine_steepness(&flat);
/// assert!(s.steepness > f.steepness);
/// assert_eq!(s.utmost_value, 100.0);
/// ```
#[must_use]
pub fn examine_steepness(pdf: &DiscretePdf) -> SteepnessReport {
    let points = pdf.points();
    let xs: Vec<f64> = points.iter().map(|&(x, _)| x).collect();
    let ps: Vec<f64> = points.iter().map(|&(_, p)| p).collect();

    let Some(fit) = fit_algorithm1(&xs, &ps) else {
        // Degenerate support: one distinct value. The whole distribution is
        // a spike; steepness is the full mass.
        let (v, p) = points[0];
        return SteepnessReport {
            utmost_value: v,
            utmost_prob: p,
            steepness: p,
            outlier_count: 1,
        };
    };

    let margin = variance(&ps) / 2.0;
    let (utmost, outlier_count) = pick_utmost(points, &fit, margin);
    let (v, p) = utmost;
    SteepnessReport {
        utmost_value: v,
        utmost_prob: p,
        steepness: fit.residual(v, p),
        outlier_count,
    }
}

/// Among outliers (distance above the line > margin), picks the one with the
/// highest PDF value; falls back to the global highest-PDF point when no
/// outlier clears the margin.
fn pick_utmost(points: &[(f64, f64)], fit: &LinearFit, margin: f64) -> ((f64, f64), usize) {
    let mut outliers: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|&(x, p)| fit.residual(x, p) > margin)
        .collect();
    let count = outliers.len();
    if outliers.is_empty() {
        outliers = points.to_vec();
    }
    let utmost = outliers
        .into_iter()
        .reduce(|best, cand| {
            // max by PDF value; ties to the smaller Tintt (earlier rise).
            if cand.1 > best.1 || (cand.1 == best.1 && cand.0 < best.0) {
                cand
            } else {
                best
            }
        })
        // A DiscretePdf's support is never empty (and the fallback above
        // refills from it), so this default is never observed.
        .unwrap_or((f64::NAN, 0.0));
    (utmost, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spike_dominates_uniform_background() {
        // 50 samples at 200, 50 spread out.
        let mut samples = vec![200.0; 50];
        samples.extend((0..50).map(|i| 1000.0 + f64::from(i) * 10.0));
        let pdf = DiscretePdf::exact(&samples).unwrap();
        let report = examine_steepness(&pdf);
        assert_eq!(report.utmost_value, 200.0);
        assert!(report.steepness > 0.2);
    }

    #[test]
    fn single_value_group_is_maximally_steep() {
        let pdf = DiscretePdf::exact(&[42.0, 42.0, 42.0]).unwrap();
        let report = examine_steepness(&pdf);
        assert_eq!(report.utmost_value, 42.0);
        assert_eq!(report.steepness, 1.0);
    }

    #[test]
    fn steeper_concentration_ranks_higher() {
        let tight =
            DiscretePdf::exact(&[10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 20.0, 30.0])
                .unwrap();
        let loose =
            DiscretePdf::exact(&[10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0, 24.0, 26.0, 28.0])
                .unwrap();
        assert!(examine_steepness(&tight).steepness > examine_steepness(&loose).steepness);
    }

    #[test]
    fn no_outlier_falls_back_to_mode() {
        // Perfectly uniform: nothing clears the margin, fall back to the
        // smallest value with max PDF.
        let pdf = DiscretePdf::exact(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let report = examine_steepness(&pdf);
        assert_eq!(report.utmost_value, 1.0);
        assert_eq!(report.outlier_count, 0);
    }

    #[test]
    fn utmost_is_highest_probability_outlier() {
        // Two spikes: 40% at 100, 30% at 500, rest spread.
        let mut samples = vec![100.0; 40];
        samples.extend(vec![500.0; 30]);
        samples.extend((0..30).map(|i| 1000.0 + f64::from(i)));
        let pdf = DiscretePdf::exact(&samples).unwrap();
        let report = examine_steepness(&pdf);
        assert_eq!(report.utmost_value, 100.0);
        assert!(report.outlier_count >= 2);
    }
}
