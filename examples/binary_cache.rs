//! The convert-once / reload-many workflow behind the TTB binary format.
//!
//! ```sh
//! cargo run --release --example binary_cache
//! ```
//!
//! Re-analysing the same multi-GB trace is the normal mode of working with
//! the paper's collections — every parameter sweep, every reconstruction
//! method comparison reloads the input. Text formats pay full CSV parsing
//! on every reload; the TTB binary columnar format pays it **once**, at
//! conversion, and then every reload is a validated bulk read straight
//! into the columnar store:
//!
//! 1. convert: `Pipeline::from_path("trace.csv").write_path("trace.ttb")`
//!    (or `tt-cli convert trace.csv trace.ttb`);
//! 2. reload forever after: `Pipeline::from_path("trace.ttb")` — same
//!    records, same analysis results, a fraction of the load time;
//! 3. or skip the reload copy entirely: analysis terminals on a `.ttb`
//!    path **memory-map** the file (`MmapTrace`) and read the columns in
//!    place — zero-copy, O(1) resident growth for the load step, same
//!    results bit for bit.

use std::time::Instant;

use tracetracker::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A synthetic stand-in for "your multi-GB trace file": 150k requests
    // of the MSNFS profile, saved as CSV.
    let entry = catalog::find("MSNFS").expect("MSNFS in catalog");
    let session = generate_session("MSNFS", &entry.profile, 150_000, 42);
    let mut device = presets::enterprise_hdd_2007();
    let trace = session.materialize(&mut device, true).trace;

    let dir = std::env::temp_dir();
    let csv_path = dir.join("tt_binary_cache.csv");
    let ttb_path = dir.join("tt_binary_cache.ttb");
    Pipeline::from_trace_ref(&trace).write_path(&csv_path)?;

    // Convert once. The stage-less pipeline takes the columnar fast path:
    // the store's columns move to disk in bulk, no row is ever assembled.
    let t = Instant::now();
    let stats = Pipeline::from_path(&csv_path).write_path(&ttb_path)?;
    println!(
        "convert : {} records, csv -> ttb in {:.0} ms",
        stats.records,
        t.elapsed().as_secs_f64() * 1e3
    );
    let size = |p: &std::path::Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    println!(
        "on disk : csv {:.1} MiB, ttb {:.1} MiB",
        size(&csv_path) as f64 / (1024.0 * 1024.0),
        size(&ttb_path) as f64 / (1024.0 * 1024.0),
    );

    // Reload many: the analysis loop a parameter sweep runs.
    let t = Instant::now();
    let from_csv = Pipeline::from_path(&csv_path).collect()?;
    let csv_load = t.elapsed();
    let t = Instant::now();
    let from_ttb = Pipeline::from_path(&ttb_path).collect()?;
    let ttb_load = t.elapsed();
    assert_eq!(from_ttb.columns(), from_csv.columns());
    println!(
        "reload  : csv parse {:.0} ms, ttb bulk read {:.0} ms ({:.1}x faster)",
        csv_load.as_secs_f64() * 1e3,
        ttb_load.as_secs_f64() * 1e3,
        csv_load.as_secs_f64() / ttb_load.as_secs_f64().max(1e-9),
    );

    // The mmap reload mode: open the cache as a zero-copy mapped view and
    // group it in place — no column copy at all. This is also what the
    // analysis terminals of `Pipeline::from_path("*.ttb")` do by default.
    use tracetracker::trace::format::ttb::MmapTrace;
    let t = Instant::now();
    let mapped = MmapTrace::open(&ttb_path)?;
    let mmap_open = t.elapsed();
    let grouped = tt_trace::GroupedTrace::build(mapped.columns());
    println!(
        "mmap    : open in {:.1} ms ({}), {} groups from the in-place columns",
        mmap_open.as_secs_f64() * 1e3,
        if mapped.is_zero_copy() {
            "zero-copy"
        } else {
            "decoded"
        },
        grouped.group_count(),
    );
    assert_eq!(grouped, tt_trace::GroupedTrace::build(&from_ttb));

    // The cache is transparent to analysis: identical inference results,
    // whether the trace was parsed from CSV, bulk-read from TTB, or
    // analysed straight off the mapping.
    let cfg = InferenceConfig::default();
    let a = Pipeline::from_trace_ref(&from_csv).infer(&cfg)?.estimate;
    let b = Pipeline::from_trace_ref(&from_ttb).infer(&cfg)?.estimate;
    let c = Pipeline::from_path(&ttb_path).infer(&cfg)?.estimate;
    assert_eq!(a, b);
    assert_eq!(a, c);
    println!("analysis: inference on csv-, ttb-, and mmap-loaded traces is identical");

    std::fs::remove_file(&csv_path).ok();
    std::fs::remove_file(&ttb_path).ok();
    Ok(())
}
