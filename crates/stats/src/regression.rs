//! Straight-line fits.
//!
//! Two fits are provided because the paper's Algorithm 1 writes its "Least
//! Square Regression" step as
//!
//! ```text
//! slope := std(PDF(Tintt)) / std(Tintt)
//! ```
//!
//! which is *not* ordinary least squares (OLS slope is `cov(x,y)/var(x)`;
//! `std(y)/std(x)` is its magnitude when `|corr| = 1`, and always
//! non-negative). We implement both: [`fit_least_squares`] for the textbook
//! fit and [`fit_algorithm1`] for the paper-literal fit used by the graph
//! classification step, so the reproduction can follow the paper exactly
//! while tests document where the two diverge.

use serde::Serialize;

use crate::summary::{mean, std_dev};

/// A fitted line `y = slope * x + intercept`.
///
/// # Examples
///
/// ```
/// use tt_stats::fit_least_squares;
///
/// let fit = fit_least_squares(&[0.0, 1.0, 2.0], &[1.0, 3.0, 5.0]).unwrap();
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!((fit.eval(3.0) - 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LinearFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
}

impl LinearFit {
    /// Evaluates the line at `x`.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }

    /// Vertical residual `y - line(x)`.
    #[must_use]
    pub fn residual(&self, x: f64, y: f64) -> f64 {
        y - self.eval(x)
    }
}

/// Ordinary least-squares fit of `ys` on `xs`.
///
/// Returns `None` when the slices are empty, have different lengths, contain
/// non-finite values, or `xs` has zero variance.
#[must_use]
pub fn fit_least_squares(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    check_inputs(xs, ys)?;
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0;
    let mut var_x = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        var_x += (x - mx) * (x - mx);
    }
    if var_x == 0.0 {
        return None;
    }
    let slope = cov / var_x;
    Some(LinearFit {
        slope,
        intercept: my - slope * mx,
    })
}

/// The paper-literal Algorithm 1 fit:
/// `slope = std(ys) / std(xs)`, `intercept = mean(ys) - slope * mean(xs)`.
///
/// Returns `None` under the same conditions as [`fit_least_squares`].
#[must_use]
pub fn fit_algorithm1(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    check_inputs(xs, ys)?;
    let sx = std_dev(xs);
    if sx == 0.0 {
        return None;
    }
    let slope = std_dev(ys) / sx;
    Some(LinearFit {
        slope,
        intercept: mean(ys) - slope * mean(xs),
    })
}

fn check_inputs(xs: &[f64], ys: &[f64]) -> Option<()> {
    if xs.is_empty() || xs.len() != ys.len() || xs.iter().chain(ys).any(|v| !v.is_finite()) {
        return None;
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ols_recovers_exact_line() {
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.5 * x - 2.0).collect();
        let fit = fit_least_squares(&xs, &ys).unwrap();
        assert!((fit.slope - 3.5).abs() < 1e-12);
        assert!((fit.intercept + 2.0).abs() < 1e-12);
    }

    #[test]
    fn algorithm1_matches_ols_on_perfect_positive_line() {
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let a = fit_least_squares(&xs, &ys).unwrap();
        let b = fit_algorithm1(&xs, &ys).unwrap();
        assert!((a.slope - b.slope).abs() < 1e-12);
        assert!((a.intercept - b.intercept).abs() < 1e-12);
    }

    #[test]
    fn algorithm1_diverges_on_negative_correlation() {
        // std/std is sign-blind: OLS slope is negative, Algorithm 1's is
        // positive. This is the documented divergence.
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -2.0 * x).collect();
        let ols = fit_least_squares(&xs, &ys).unwrap();
        let alg1 = fit_algorithm1(&xs, &ys).unwrap();
        assert!(ols.slope < 0.0);
        assert!(alg1.slope > 0.0);
        assert!((ols.slope.abs() - alg1.slope).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(fit_least_squares(&[], &[]).is_none());
        assert!(fit_least_squares(&[1.0], &[1.0, 2.0]).is_none());
        assert!(fit_least_squares(&[1.0, f64::NAN], &[1.0, 2.0]).is_none());
        // zero variance in x
        assert!(fit_least_squares(&[2.0, 2.0], &[1.0, 3.0]).is_none());
        assert!(fit_algorithm1(&[2.0, 2.0], &[1.0, 3.0]).is_none());
    }

    #[test]
    fn residuals_are_vertical_distances() {
        let fit = LinearFit {
            slope: 1.0,
            intercept: 0.0,
        };
        assert_eq!(fit.residual(2.0, 5.0), 3.0);
        assert_eq!(fit.residual(2.0, 1.0), -1.0);
    }
}
