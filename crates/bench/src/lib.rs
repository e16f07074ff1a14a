#![forbid(unsafe_code)]
//! # tt-bench — figure/table regeneration harness
//!
//! One module per table/figure of the paper's evaluation, each exposing a
//! `run(...)` that prints the same rows/series the paper reports. The
//! binaries in `src/bin/` are thin wrappers (`cargo run -p tt-bench --bin
//! fig12 --release`); `--bin all` regenerates everything in order.
//!
//! Scales: absolute numbers come from the simulated substrate, so what is
//! compared with the paper is *shape* (who wins, by what ballpark factor,
//! where crossovers fall). Most experiments end by printing a "shape check
//! (paper)" line stating the shape the paper reports; nothing asserts those
//! lines yet (open item 1 of ROADMAP.md). Request counts default to
//! laptop-scale and can be raised with the `TT_REQUESTS` environment
//! variable.

#![warn(missing_docs)]

pub mod data;
pub mod experiments;

/// Per-workload request count for sweep experiments, from `TT_REQUESTS`
/// (default 2000).
#[must_use]
pub fn sweep_requests() -> usize {
    std::env::var("TT_REQUESTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000)
}

/// Request count for single-workload deep-dive experiments, from
/// `TT_REQUESTS` scaled 4× (default 8000).
#[must_use]
pub fn deep_requests() -> usize {
    sweep_requests() * 4
}

/// Prints a figure banner.
pub fn banner(id: &str, title: &str) {
    println!("\n==================================================================");
    println!("{id}: {title}");
    println!("==================================================================");
}

/// Prints a CDF as `x<TAB>F(x)` rows, down-sampled.
pub fn print_cdf(label: &str, samples: &[f64], max_points: usize) {
    let series = tt_core::report::cdf_series(samples, max_points);
    println!("# series: {label} ({} samples)", samples.len());
    for (x, f) in series {
        println!("{x:.3}\t{f:.4}");
    }
}

/// Quick scalar summary of a CDF: selected percentiles, printed on one
/// line — the harness's compact stand-in for a plotted curve.
pub fn cdf_summary(label: &str, samples: &[f64]) {
    if samples.is_empty() {
        println!("{label:<16} (no samples)");
        return;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pct = |p: f64| tt_stats::percentile_sorted(&sorted, p);
    println!(
        "{label:<16} p10={:>12.1}us p50={:>12.1}us p90={:>12.1}us p99={:>14.1}us",
        pct(0.10),
        pct(0.50),
        pct(0.90),
        pct(0.99),
    );
}
