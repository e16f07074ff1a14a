//! Round-trip a trace through both on-disk formats, streaming both ways.
//!
//! ```sh
//! cargo run --example trace_formats
//! ```
//!
//! Generates a small workload, streams it out as SNIA-style CSV and
//! blkparse-style text through the format [`RecordSink`]s, streams both
//! back in through the matching [`RecordSource`]s, and checks the round
//! trips — the I/O path a user takes when feeding their own trace files
//! into the pipeline. Reading and writing are symmetric: whole-file
//! (`write_csv`/`read_csv`) and streaming (`CsvSink`/`CsvSource`) paths
//! are byte-identical.

use tracetracker::prelude::*;
use tracetracker::trace::format::{blk, csv};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let entry = catalog::find("homes").expect("homes in catalog");
    let session = generate_session("homes", &entry.profile, 200, 3);
    let mut device = presets::enterprise_hdd_2007();
    let trace = session.materialize(&mut device, true).trace;

    // --- CSV ---------------------------------------------------------------
    // Stream the trace into a CSV sink, 64 records per chunk.
    let mut csv_bytes = Vec::new();
    Pipeline::from_trace(trace.clone())
        .chunk_size(64)
        .write_to(&mut csv::CsvSink::new(&mut csv_bytes, "homes"))?;
    // ... and stream it back through the source.
    let from_csv =
        Pipeline::from_source(csv::CsvSource::new(csv_bytes.as_slice()), "homes").collect()?;
    assert_eq!(from_csv.columns(), trace.columns());
    println!(
        "csv      : {} bytes, {} records, round-trip OK",
        csv_bytes.len(),
        from_csv.len()
    );
    println!("csv head :");
    for line in String::from_utf8_lossy(&csv_bytes).lines().take(5) {
        println!("  {line}");
    }

    // --- blkparse-style ------------------------------------------------------
    let mut blk_bytes = Vec::new();
    Pipeline::from_trace(trace.clone())
        .chunk_size(64)
        .write_to(&mut blk::BlkSink::new(&mut blk_bytes))?;
    let from_blk = blk::read_blk(blk_bytes.as_slice(), "homes")?;
    assert_eq!(from_blk.columns(), trace.columns());
    println!(
        "\nblkparse : {} bytes, {} records, round-trip OK",
        blk_bytes.len(),
        from_blk.len()
    );
    println!("blk head :");
    for line in String::from_utf8_lossy(&blk_bytes).lines().take(6) {
        println!("  {line}");
    }

    // The streaming writers are byte-identical to the whole-file writers:
    let mut whole = Vec::new();
    csv::write_csv(&trace, &mut whole)?;
    assert_eq!(whole, csv_bytes);
    println!("\nstreamed CSV == write_csv output, byte for byte");

    // Traces read from disk plug straight into the pipeline:
    let estimate = Pipeline::from_trace(from_csv)
        .infer(&InferenceConfig::default())?
        .estimate;
    println!(
        "inference on the re-read trace: beta = {:.0} ns/sector, Tmovd = {}",
        estimate.beta_ns_per_sector, estimate.tmovd
    );
    Ok(())
}
