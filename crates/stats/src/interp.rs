//! Piecewise-cubic interpolation of discrete CDFs (paper §IV).
//!
//! The empirical CDF of `Tintt` is a step function and cannot be
//! differentiated directly. The paper compares two piecewise interpolations:
//!
//! * **spline** — natural cubic spline, two continuous derivatives, but
//!   oscillates (overshoots) around step-like data;
//! * **pchip** — piecewise cubic Hermite with Fritsch–Carlson monotone
//!   slopes, one continuous derivative, shape-preserving.
//!
//! The paper selects pchip: a monotone interpolant of a monotone CDF has a
//! non-negative derivative everywhere, so "the maximum of the differential"
//! is well-defined and oscillation-free. Both are implemented here; the
//! `ablation` and `fig09` experiment harnesses reproduce the comparison.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A differentiable function on a closed interval.
pub trait Interpolant {
    /// Function value at `x`. Outside the domain the nearest endpoint value
    /// is returned (constant extrapolation).
    fn value(&self, x: f64) -> f64;

    /// First derivative at `x`. Outside the domain the derivative is `0.0`
    /// (consistent with constant extrapolation).
    fn derivative(&self, x: f64) -> f64;

    /// The closed `[min, max]` interval covered by the knots.
    fn domain(&self) -> (f64, f64);
}

/// Errors from interpolant construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Fewer than two knots were supplied.
    TooFewKnots,
    /// Knot x-values must be strictly increasing and finite.
    BadKnots,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::TooFewKnots => f.write_str("interpolation needs at least two knots"),
            InterpError::BadKnots => {
                f.write_str("knot x-values must be finite and strictly increasing")
            }
        }
    }
}

impl Error for InterpError {}

fn validate(points: &[(f64, f64)]) -> Result<(), InterpError> {
    if points.len() < 2 {
        return Err(InterpError::TooFewKnots);
    }
    if points
        .iter()
        .any(|&(x, y)| !x.is_finite() || !y.is_finite())
    {
        return Err(InterpError::BadKnots);
    }
    if points.windows(2).any(|w| w[1].0 <= w[0].0) {
        return Err(InterpError::BadKnots);
    }
    Ok(())
}

/// Piecewise Cubic Hermite Interpolating Polynomial with Fritsch–Carlson
/// monotone slope selection ("pchip").
///
/// For monotone input data the interpolant is monotone, so its derivative
/// never goes negative — the property the paper relies on when locating the
/// CDF's steepest point.
///
/// # Examples
///
/// ```
/// use tt_stats::interp::{Interpolant, Pchip};
///
/// // A step-like CDF: flat, jump, flat.
/// let pts = vec![(0.0, 0.0), (1.0, 0.05), (2.0, 0.95), (3.0, 1.0)];
/// let p = Pchip::new(pts).unwrap();
/// // No overshoot: values stay within [0, 1].
/// for i in 0..=300 {
///     let x = i as f64 / 100.0;
///     let v = p.value(x);
///     assert!((-1e-9..=1.0 + 1e-9).contains(&v));
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pchip {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Knot derivatives chosen by the Fritsch–Carlson rules.
    slopes: Vec<f64>,
}

impl Pchip {
    /// Builds the interpolant from `(x, y)` knots.
    ///
    /// # Errors
    ///
    /// [`InterpError::TooFewKnots`] for fewer than two points;
    /// [`InterpError::BadKnots`] when x-values are not finite and strictly
    /// increasing.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self, InterpError> {
        validate(&points)?;
        let xs: Vec<f64> = points.iter().map(|&(x, _)| x).collect();
        let ys: Vec<f64> = points.iter().map(|&(_, y)| y).collect();
        let slopes = fritsch_carlson_slopes(&xs, &ys);
        Ok(Pchip { xs, ys, slopes })
    }

    fn interval(&self, x: f64) -> usize {
        // Index i with xs[i] <= x < xs[i+1]; clamped to valid intervals.
        match self
            .xs
            .binary_search_by(|v| v.partial_cmp(&x).unwrap_or(std::cmp::Ordering::Equal))
        {
            Ok(i) => i.min(self.xs.len() - 2),
            Err(i) => i.saturating_sub(1).min(self.xs.len() - 2),
        }
    }
}

fn fritsch_carlson_slopes(xs: &[f64], ys: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let h: Vec<f64> = xs.windows(2).map(|w| w[1] - w[0]).collect();
    let delta: Vec<f64> = (0..n - 1).map(|i| (ys[i + 1] - ys[i]) / h[i]).collect();

    if n == 2 {
        return vec![delta[0]; 2];
    }

    let mut d = vec![0.0; n];
    // Interior knots: weighted harmonic mean when the secants agree in sign.
    for i in 1..n - 1 {
        if delta[i - 1] * delta[i] <= 0.0 {
            d[i] = 0.0;
        } else {
            let w1 = 2.0 * h[i] + h[i - 1];
            let w2 = h[i] + 2.0 * h[i - 1];
            d[i] = (w1 + w2) / (w1 / delta[i - 1] + w2 / delta[i]);
        }
    }
    d[0] = endpoint_slope(h[0], h[1], delta[0], delta[1]);
    d[n - 1] = endpoint_slope(h[n - 2], h[n - 3], delta[n - 2], delta[n - 3]);
    d
}

/// Non-centred three-point endpoint slope with the Fritsch–Carlson
/// monotonicity clamps.
fn endpoint_slope(h0: f64, h1: f64, d0: f64, d1: f64) -> f64 {
    let slope = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1);
    if slope * d0 <= 0.0 {
        0.0
    } else if d0 * d1 < 0.0 && slope.abs() > 3.0 * d0.abs() {
        3.0 * d0
    } else {
        slope
    }
}

impl Interpolant for Pchip {
    fn value(&self, x: f64) -> f64 {
        let (lo, hi) = self.domain();
        if x <= lo {
            return self.ys[0];
        }
        if x >= hi {
            return self.ys[self.ys.len() - 1];
        }
        let i = self.interval(x);
        let h = self.xs[i + 1] - self.xs[i];
        let t = (x - self.xs[i]) / h;
        let (t2, t3) = (t * t, t * t * t);
        let h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
        let h10 = t3 - 2.0 * t2 + t;
        let h01 = -2.0 * t3 + 3.0 * t2;
        let h11 = t3 - t2;
        self.ys[i] * h00
            + h * self.slopes[i] * h10
            + self.ys[i + 1] * h01
            + h * self.slopes[i + 1] * h11
    }

    fn derivative(&self, x: f64) -> f64 {
        let (lo, hi) = self.domain();
        if x < lo || x > hi {
            return 0.0;
        }
        let i = self.interval(x);
        let h = self.xs[i + 1] - self.xs[i];
        let t = (x - self.xs[i]) / h;
        let t2 = t * t;
        let dh00 = 6.0 * t2 - 6.0 * t;
        let dh10 = 3.0 * t2 - 4.0 * t + 1.0;
        let dh01 = -6.0 * t2 + 6.0 * t;
        let dh11 = 3.0 * t2 - 2.0 * t;
        (self.ys[i] * dh00
            + h * self.slopes[i] * dh10
            + self.ys[i + 1] * dh01
            + h * self.slopes[i + 1] * dh11)
            / h
    }

    fn domain(&self) -> (f64, f64) {
        (self.xs[0], self.xs[self.xs.len() - 1])
    }
}

/// Natural cubic spline (second derivative zero at both ends).
///
/// Smoother than [`Pchip`] (C² vs C¹) but not shape-preserving: around
/// step-like CDF data it overshoots and its derivative oscillates below
/// zero — the artefact the paper's Fig 9 shows and the reason pchip is used
/// in the pipeline.
///
/// # Examples
///
/// ```
/// use tt_stats::interp::{CubicSpline, Interpolant};
///
/// let pts = vec![(0.0, 0.0), (1.0, 1.0), (2.0, 4.0), (3.0, 9.0)];
/// let s = CubicSpline::new(pts).unwrap();
/// assert!((s.value(1.5) - 2.25).abs() < 0.2); // near x^2
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CubicSpline {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Second derivatives at the knots (natural boundary: first = last = 0).
    m: Vec<f64>,
}

impl CubicSpline {
    /// Builds the spline from `(x, y)` knots.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Pchip::new`].
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self, InterpError> {
        validate(&points)?;
        let xs: Vec<f64> = points.iter().map(|&(x, _)| x).collect();
        let ys: Vec<f64> = points.iter().map(|&(_, y)| y).collect();
        let m = natural_second_derivatives(&xs, &ys);
        Ok(CubicSpline { xs, ys, m })
    }

    fn interval(&self, x: f64) -> usize {
        match self
            .xs
            .binary_search_by(|v| v.partial_cmp(&x).unwrap_or(std::cmp::Ordering::Equal))
        {
            Ok(i) => i.min(self.xs.len() - 2),
            Err(i) => i.saturating_sub(1).min(self.xs.len() - 2),
        }
    }
}

/// Thomas-algorithm solve of the natural-spline tridiagonal system.
fn natural_second_derivatives(xs: &[f64], ys: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut m = vec![0.0; n];
    if n == 2 {
        return m;
    }
    let h: Vec<f64> = xs.windows(2).map(|w| w[1] - w[0]).collect();
    let unknowns = n - 2;
    let mut diag = vec![0.0; unknowns];
    let mut upper = vec![0.0; unknowns];
    let mut rhs = vec![0.0; unknowns];
    for k in 0..unknowns {
        let i = k + 1;
        diag[k] = 2.0 * (h[i - 1] + h[i]);
        upper[k] = h[i];
        rhs[k] = 6.0 * ((ys[i + 1] - ys[i]) / h[i] - (ys[i] - ys[i - 1]) / h[i - 1]);
    }
    // Forward sweep (lower diagonal is h[i-1] = upper of previous row).
    for k in 1..unknowns {
        let lower = h[k];
        let w = lower / diag[k - 1];
        diag[k] -= w * upper[k - 1];
        rhs[k] -= w * rhs[k - 1];
    }
    // Back substitution.
    m[unknowns] = rhs[unknowns - 1] / diag[unknowns - 1];
    for k in (0..unknowns - 1).rev() {
        m[k + 1] = (rhs[k] - upper[k] * m[k + 2]) / diag[k];
    }
    m
}

impl Interpolant for CubicSpline {
    fn value(&self, x: f64) -> f64 {
        let (lo, hi) = self.domain();
        if x <= lo {
            return self.ys[0];
        }
        if x >= hi {
            return self.ys[self.ys.len() - 1];
        }
        let i = self.interval(x);
        let h = self.xs[i + 1] - self.xs[i];
        let a = (self.xs[i + 1] - x) / h;
        let b = (x - self.xs[i]) / h;
        a * self.ys[i]
            + b * self.ys[i + 1]
            + ((a * a * a - a) * self.m[i] + (b * b * b - b) * self.m[i + 1]) * h * h / 6.0
    }

    fn derivative(&self, x: f64) -> f64 {
        let (lo, hi) = self.domain();
        if x < lo || x > hi {
            return 0.0;
        }
        let i = self.interval(x);
        let h = self.xs[i + 1] - self.xs[i];
        let a = (self.xs[i + 1] - x) / h;
        let b = (x - self.xs[i]) / h;
        (self.ys[i + 1] - self.ys[i]) / h
            + ((3.0 * b * b - 1.0) * self.m[i + 1] - (3.0 * a * a - 1.0) * self.m[i]) * h / 6.0
    }

    fn domain(&self) -> (f64, f64) {
        (self.xs[0], self.xs[self.xs.len() - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_cdf() -> Vec<(f64, f64)> {
        vec![
            (0.0, 0.0),
            (1.0, 0.02),
            (2.0, 0.05),
            (3.0, 0.90),
            (4.0, 0.95),
            (5.0, 1.0),
        ]
    }

    #[test]
    fn both_interpolants_pass_through_knots() {
        let pts = step_cdf();
        let p = Pchip::new(pts.clone()).unwrap();
        let s = CubicSpline::new(pts.clone()).unwrap();
        for &(x, y) in &pts {
            assert!((p.value(x) - y).abs() < 1e-9, "pchip at {x}");
            assert!((s.value(x) - y).abs() < 1e-9, "spline at {x}");
        }
    }

    #[test]
    fn pchip_is_monotone_on_monotone_data() {
        let p = Pchip::new(step_cdf()).unwrap();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=500 {
            let x = i as f64 / 100.0;
            let v = p.value(x);
            assert!(v >= prev - 1e-12, "pchip dipped at x={x}");
            prev = v;
        }
    }

    #[test]
    fn pchip_derivative_non_negative_on_monotone_data() {
        let p = Pchip::new(step_cdf()).unwrap();
        for i in 0..=500 {
            let x = i as f64 / 100.0;
            assert!(p.derivative(x) >= -1e-9, "negative slope at x={x}");
        }
    }

    #[test]
    fn spline_overshoots_step_data() {
        // The documented artefact: natural spline oscillates around a step.
        let s = CubicSpline::new(step_cdf()).unwrap();
        let mut min_v: f64 = f64::INFINITY;
        let mut max_v: f64 = f64::NEG_INFINITY;
        for i in 0..=500 {
            let x = i as f64 / 100.0;
            let v = s.value(x);
            min_v = min_v.min(v);
            max_v = max_v.max(v);
        }
        assert!(
            min_v < -1e-4 || max_v > 1.0 + 1e-4,
            "expected overshoot, got range [{min_v}, {max_v}]"
        );
    }

    #[test]
    fn derivative_peak_lands_in_jump_interval() {
        let p = Pchip::new(step_cdf()).unwrap();
        let mut best = (0.0, f64::NEG_INFINITY);
        for i in 0..=500 {
            let x = i as f64 / 100.0;
            let d = p.derivative(x);
            if d > best.1 {
                best = (x, d);
            }
        }
        assert!(
            (2.0..=3.0).contains(&best.0),
            "steepest point at {} outside jump interval",
            best.0
        );
    }

    #[test]
    fn spline_reproduces_smooth_function_closely() {
        let pts: Vec<(f64, f64)> = (0..=10)
            .map(|i| {
                let x = f64::from(i) * 0.5;
                (x, x.sin())
            })
            .collect();
        let s = CubicSpline::new(pts).unwrap();
        // Natural boundary conditions (S''=0 at the ends) cost accuracy near
        // the endpoints, so check the interior tightly and the edges loosely.
        for i in 0..=100 {
            let x = f64::from(i) * 0.05;
            let tol = if (0.5..=4.5).contains(&x) { 0.01 } else { 0.05 };
            assert!((s.value(x) - x.sin()).abs() < tol, "at x={x}");
        }
    }

    #[test]
    fn two_point_case_is_linear() {
        let p = Pchip::new(vec![(0.0, 0.0), (2.0, 4.0)]).unwrap();
        let s = CubicSpline::new(vec![(0.0, 0.0), (2.0, 4.0)]).unwrap();
        assert!((p.value(1.0) - 2.0).abs() < 1e-12);
        assert!((s.value(1.0) - 2.0).abs() < 1e-12);
        assert!((p.derivative(1.0) - 2.0).abs() < 1e-12);
        assert!((s.derivative(1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn extrapolation_is_constant() {
        let p = Pchip::new(step_cdf()).unwrap();
        assert_eq!(p.value(-10.0), 0.0);
        assert_eq!(p.value(99.0), 1.0);
        assert_eq!(p.derivative(-10.0), 0.0);
        assert_eq!(p.derivative(99.0), 0.0);
    }

    #[test]
    fn construction_errors() {
        assert_eq!(
            Pchip::new(vec![(0.0, 0.0)]).unwrap_err(),
            InterpError::TooFewKnots
        );
        assert_eq!(
            Pchip::new(vec![(0.0, 0.0), (0.0, 1.0)]).unwrap_err(),
            InterpError::BadKnots
        );
        assert_eq!(
            CubicSpline::new(vec![(1.0, 0.0), (0.0, 1.0)]).unwrap_err(),
            InterpError::BadKnots
        );
        assert_eq!(
            Pchip::new(vec![(0.0, f64::NAN), (1.0, 1.0)]).unwrap_err(),
            InterpError::BadKnots
        );
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let p = Pchip::new(step_cdf()).unwrap();
        let s = CubicSpline::new(step_cdf()).unwrap();
        let eps = 1e-6;
        for i in 1..50 {
            let x = 0.1 * f64::from(i);
            for (name, f) in [
                ("pchip", &p as &dyn Interpolant),
                ("spline", &s as &dyn Interpolant),
            ] {
                let fd = (f.value(x + eps) - f.value(x - eps)) / (2.0 * eps);
                assert!(
                    (f.derivative(x) - fd).abs() < 1e-4,
                    "{name} derivative mismatch at x={x}: {} vs {fd}",
                    f.derivative(x)
                );
            }
        }
    }
}
