#![forbid(unsafe_code)]
//! # tt-stats — empirical distributions and numerics
//!
//! The numerical toolbox behind TraceTracker's timing inference (paper §III
//! and §IV):
//!
//! * [`Ecdf`] / [`DiscretePdf`] — empirical CDF/PDF over inter-arrival
//!   samples;
//! * [`examine_steepness`] — Algorithm 1's PDF-outlier steepness ranking of
//!   candidate CDFs;
//! * [`interp`] — pchip (monotone cubic Hermite) and natural cubic spline
//!   interpolation of discrete CDFs;
//! * [`max_derivative`] / [`cdf_steepest_point`] — location of the
//!   interpolated CDF's steepest rise, the paper's per-group `Tslat`
//!   estimate;
//! * regression ([`fit_least_squares`], [`fit_algorithm1`]) and scalar
//!   summaries ([`mean`], [`variance`], [`Welford`], ...).
//!
//! ## Example: estimate a group's service time from its CDF
//!
//! ```
//! use tt_stats::{cdf_steepest_point, Ecdf};
//!
//! // Inter-arrival samples (us): service time ~120us plus occasional idle.
//! let mut samples: Vec<f64> = (0..200).map(|i| 120.0 + f64::from(i % 5)).collect();
//! samples.extend([5_000.0, 20_000.0, 100_000.0]); // idle gaps
//!
//! let cdf = Ecdf::new(samples).unwrap();
//! let peak = cdf_steepest_point(&cdf, 2000);
//! assert!((115.0..=126.0).contains(&peak.x)); // finds the service plateau
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod deriv;
mod ecdf;
pub mod interp;
mod outlier;
mod pdf;
mod regression;
mod summary;

pub use deriv::{cdf_steepest_point, max_derivative, DerivativePeak};
pub use ecdf::Ecdf;
pub use interp::{CubicSpline, InterpError, Interpolant, Pchip};
pub use outlier::{examine_steepness, SteepnessReport};
pub use pdf::DiscretePdf;
pub use regression::{fit_algorithm1, fit_least_squares, LinearFit};
pub use summary::{max, mean, median_sorted, min, percentile_sorted, std_dev, variance, Welford};
