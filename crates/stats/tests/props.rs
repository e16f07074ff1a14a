//! Property-based tests for the numerics crate.

use proptest::prelude::*;

use tt_stats::{
    examine_steepness, fit_least_squares, mean, variance, CubicSpline, DiscretePdf, Ecdf,
    Interpolant, Pchip, Welford,
};

fn finite_samples(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e6f64..1.0e6, len)
}

proptest! {
    /// ECDF values stay in [0,1] and are monotone in x.
    #[test]
    fn ecdf_is_a_cdf(samples in finite_samples(1..300), probes in finite_samples(2..20)) {
        let ecdf = Ecdf::new(samples).unwrap();
        let mut sorted_probes = probes;
        sorted_probes.sort_by(f64::total_cmp);
        let mut prev = 0.0;
        for &x in &sorted_probes {
            let v = ecdf.eval(x);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(v >= prev);
            prev = v;
        }
        prop_assert_eq!(ecdf.eval(f64::MAX), 1.0);
    }

    /// Galois connection between quantile and eval:
    /// eval(quantile(p)) >= p for all p.
    #[test]
    fn quantile_inverts_eval(samples in finite_samples(1..200), p in 0.0f64..=1.0) {
        let ecdf = Ecdf::new(samples).unwrap();
        let q = ecdf.quantile(p);
        prop_assert!(ecdf.eval(q) >= p - 1e-12);
    }

    /// ECDF points are strictly increasing in both coordinates and end at 1.
    #[test]
    fn ecdf_points_well_formed(samples in finite_samples(1..200)) {
        let ecdf = Ecdf::new(samples).unwrap();
        let pts = ecdf.points();
        for w in pts.windows(2) {
            prop_assert!(w[1].0 > w[0].0);
            prop_assert!(w[1].1 > w[0].1);
        }
        prop_assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    /// PDF mass always sums to ~1 under any binning.
    #[test]
    fn pdf_mass_is_one(samples in finite_samples(1..200), bin in 0.1f64..100.0) {
        let exact = DiscretePdf::exact(&samples).unwrap();
        prop_assert!((exact.total_mass() - 1.0).abs() < 1e-9);
        let binned = DiscretePdf::binned(&samples, bin).unwrap();
        prop_assert!((binned.total_mass() - 1.0).abs() < 1e-9);
    }

    /// Pchip through monotone data is monotone; through any data it passes
    /// the knots.
    #[test]
    fn pchip_monotone_and_interpolating(ys in prop::collection::vec(0.0f64..100.0, 2..40)) {
        // Build monotone non-decreasing knots from cumulative sums.
        let mut acc = 0.0;
        let points: Vec<(f64, f64)> = ys
            .iter()
            .enumerate()
            .map(|(i, &y)| {
                acc += y;
                (i as f64, acc)
            })
            .collect();
        let p = Pchip::new(points.clone()).unwrap();
        for &(x, y) in &points {
            prop_assert!((p.value(x) - y).abs() < 1e-6 * (1.0 + y.abs()));
        }
        let (lo, hi) = p.domain();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=200 {
            let x = lo + (hi - lo) * f64::from(i) / 200.0;
            let v = p.value(x);
            prop_assert!(v >= prev - 1e-9, "dip at {x}");
            prev = v;
        }
    }

    /// Natural spline also passes through its knots.
    #[test]
    fn spline_interpolates(ys in prop::collection::vec(-100.0f64..100.0, 2..40)) {
        let points: Vec<(f64, f64)> = ys.iter().enumerate().map(|(i, &y)| (i as f64, y)).collect();
        let s = CubicSpline::new(points.clone()).unwrap();
        for &(x, y) in &points {
            prop_assert!((s.value(x) - y).abs() < 1e-6 * (1.0 + y.abs()));
        }
    }

    /// Welford streaming matches batch mean/variance.
    #[test]
    fn welford_matches_batch(samples in finite_samples(1..200)) {
        let mut acc = Welford::new();
        for &x in &samples {
            acc.push(x);
        }
        prop_assert!((acc.mean() - mean(&samples)).abs() < 1e-6 * (1.0 + acc.mean().abs()));
        prop_assert!((acc.variance() - variance(&samples)).abs() < 1e-3 * (1.0 + acc.variance()));
    }

    /// OLS residuals at the two means vanish: the fitted line passes
    /// through (mean_x, mean_y).
    #[test]
    fn ols_passes_through_centroid(
        pts in prop::collection::vec((-1000.0f64..1000.0, -1.0f64..1.0), 3..50),
    ) {
        let xs: Vec<f64> = pts.iter().map(|&(x, _)| x).collect();
        let ys: Vec<f64> = pts.iter().map(|&(x, n)| 2.0 * x + n).collect();
        if let Some(fit) = fit_least_squares(&xs, &ys) {
            let mx = mean(&xs);
            let my = mean(&ys);
            prop_assert!((fit.eval(mx) - my).abs() < 1e-6 * (1.0 + my.abs()));
        }
    }

    /// Steepness examination never panics and returns a finite score for
    /// any non-degenerate PDF.
    #[test]
    fn steepness_total(samples in finite_samples(1..300)) {
        let pdf = DiscretePdf::exact(&samples).unwrap();
        let report = examine_steepness(&pdf);
        prop_assert!(report.steepness.is_finite());
        prop_assert!(report.utmost_prob > 0.0);
    }
}
