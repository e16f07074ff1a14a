//! Trace format integration: file round-trips feeding the pipeline.

use std::fs;

use serde::json::{parse, Value};
use tracetracker::prelude::*;
use tracetracker::trace::format::{blk, csv, ttb};
use tracetracker::trace::ServiceTiming;

fn sample_trace(with_timing: bool) -> Trace {
    let entry = catalog::find("prxy").unwrap();
    let session = generate_session("prxy", &entry.profile, 300, 17);
    let mut dev = presets::enterprise_hdd_2007();
    session.materialize(&mut dev, with_timing).trace
}

#[test]
fn csv_file_round_trip() {
    let trace = sample_trace(true);
    let path = std::env::temp_dir().join("tt_roundtrip.csv");
    let mut file = fs::File::create(&path).unwrap();
    csv::write_csv(&trace, &mut file).unwrap();
    drop(file);

    let reader = std::io::BufReader::new(fs::File::open(&path).unwrap());
    let back = csv::read_csv(reader, "prxy").unwrap();
    assert_eq!(back.columns(), trace.columns());
    fs::remove_file(&path).ok();
}

#[test]
fn blk_file_round_trip() {
    let trace = sample_trace(true);
    let path = std::env::temp_dir().join("tt_roundtrip.blk");
    let mut file = fs::File::create(&path).unwrap();
    blk::write_blk(&trace, &mut file).unwrap();
    drop(file);

    let reader = std::io::BufReader::new(fs::File::open(&path).unwrap());
    let back = blk::read_blk(reader, "prxy").unwrap();
    assert_eq!(back.columns(), trace.columns());
    fs::remove_file(&path).ok();
}

#[test]
fn ttb_file_round_trip() {
    let trace = sample_trace(true);
    let path = std::env::temp_dir().join("tt_roundtrip.ttb");
    let mut file = fs::File::create(&path).unwrap();
    ttb::write_ttb(&trace, &mut file).unwrap();
    drop(file);

    let reader = std::io::BufReader::new(fs::File::open(&path).unwrap());
    let back = ttb::read_ttb(reader, "prxy").unwrap();
    assert_eq!(back.columns(), trace.columns());
    fs::remove_file(&path).ok();
}

#[test]
fn ttb_cache_matches_csv_through_the_pipeline() {
    // The convert-once workflow: csv -> ttb via the pipeline, then both
    // files must load to the same records and the same inference result.
    let trace = sample_trace(true);
    let csv_path = std::env::temp_dir().join("tt_cache_src.csv");
    let ttb_path = std::env::temp_dir().join("tt_cache_src.ttb");
    Pipeline::from_trace_ref(&trace)
        .write_path(&csv_path)
        .unwrap();
    Pipeline::from_path(&csv_path)
        .write_path(&ttb_path)
        .unwrap();

    let from_csv = Pipeline::from_path(&csv_path).collect().unwrap();
    let from_ttb = Pipeline::from_path(&ttb_path).collect().unwrap();
    assert_eq!(from_ttb.columns(), from_csv.columns());

    let cfg = InferenceConfig::default();
    assert_eq!(
        infer(&from_csv, &cfg).estimate,
        infer(&from_ttb, &cfg).estimate
    );
    fs::remove_file(&csv_path).ok();
    fs::remove_file(&ttb_path).ok();
}

#[test]
fn formats_cross_agree_on_inference() {
    // Writing and re-reading a trace must not change what the pipeline
    // infers from it.
    let trace = sample_trace(false);
    let mut buf = Vec::new();
    csv::write_csv(&trace, &mut buf).unwrap();
    let re_read = csv::read_csv(buf.as_slice(), "prxy").unwrap();

    let cfg = InferenceConfig::default();
    let a = infer(&trace, &cfg).estimate;
    let b = infer(&re_read, &cfg).estimate;
    // CSV stores microseconds with 3 decimals = ns resolution: identical.
    assert_eq!(a, b);
}

#[test]
fn timing_survives_only_when_recorded() {
    let with = sample_trace(true);
    let without = sample_trace(false);
    assert!(with.has_device_timing());
    assert!(!without.has_device_timing());

    for trace in [&with, &without] {
        let mut buf = Vec::new();
        csv::write_csv(trace, &mut buf).unwrap();
        let back = csv::read_csv(buf.as_slice(), "x").unwrap();
        assert_eq!(back.has_device_timing(), trace.has_device_timing());
    }
}

#[test]
fn serde_json_round_trip() {
    // Records render to JSON (C-SERDE). Nothing deserialises a trace, so
    // the way back is the JSON parser plus the record and trace
    // constructors, which check every field and the arrival order.
    fn instant(v: &Value) -> SimInstant {
        SimInstant::from_nanos(v.as_u64().expect("instants render as u64 ns"))
    }
    for trace in [sample_trace(true), sample_trace(false)] {
        let records: Vec<BlockRecord> = trace.iter().collect();
        let json = serde_json::to_string(&records).unwrap();
        let Value::Array(items) = parse(&json).unwrap() else {
            panic!("records render as a JSON array");
        };
        let back: Vec<BlockRecord> = items
            .iter()
            .map(|v| {
                let op = match v.get_field("op").as_str() {
                    Some("Read") => OpType::Read,
                    Some("Write") => OpType::Write,
                    other => panic!("unexpected op {other:?}"),
                };
                let sectors = v.get_field("sectors").as_u64().unwrap();
                let rec = BlockRecord::new(
                    instant(v.get_field("arrival")),
                    v.get_field("lba").as_u64().unwrap(),
                    u32::try_from(sectors).unwrap(),
                    op,
                );
                match v.get_field("timing") {
                    Value::Null => rec,
                    t => rec.with_timing(ServiceTiming::new(
                        instant(t.get_field("issue")),
                        instant(t.get_field("complete")),
                    )),
                }
            })
            .collect();
        let back = Trace::try_from_ordered(trace.meta().clone(), back).unwrap();
        assert_eq!(back.columns(), trace.columns());
    }
}
