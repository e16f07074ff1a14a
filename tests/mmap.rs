//! Cross-crate equivalence of the zero-copy mmap path: every analysis
//! that consumes a [`Columns`] view — grouping, statistics, inference,
//! decomposition, schedule building — must produce **identical** results
//! off a memory-mapped `.ttb` file and off the owned trace it was written
//! from, and adversarial files must be rejected cleanly under both paths.

use tracetracker::prelude::*;
use tracetracker::trace::format::{self, ttb::MmapTrace};
use tracetracker::trace::source::DEFAULT_CHUNK;
use tracetracker::trace::time::SimDuration;
use tt_core::{infer_columns, Decomposition};
use tt_sim::Schedule;
use tt_trace::{GroupedTrace, TraceStats};

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tt_mmap_it_{}_{name}", std::process::id()))
}

/// A realistic session on a simulated device: sequential runs of several
/// sizes per op, random jumps, idle gaps, device-side timing optional.
fn session_trace(n: usize, timing: bool) -> Trace {
    let entry = catalog::find("MSNFS").expect("MSNFS in catalog");
    let session = generate_session("MSNFS", &entry.profile, n, 0x5EED);
    let mut device = presets::enterprise_hdd_2007();
    session.materialize(&mut device, timing).trace
}

#[test]
fn mapped_analysis_is_bit_identical_to_owned() {
    for timing in [false, true] {
        let trace = session_trace(2_000, timing);
        let path = temp(&format!("eq_{timing}.ttb"));
        trace
            .write_ttb(std::fs::File::create(&path).unwrap())
            .unwrap();

        let mapped = MmapTrace::open(&path).unwrap();
        assert!(mapped.is_zero_copy(), "single-block v2 file must map");
        let cols = mapped.columns();

        // Grouping and statistics.
        assert_eq!(
            GroupedTrace::build_columns(cols),
            GroupedTrace::build(&trace),
            "timing {timing}"
        );
        assert_eq!(
            TraceStats::compute_columns(cols),
            TraceStats::compute(&trace)
        );

        // Full inference, including the grid scans and ECDF sorts.
        let cfg = InferenceConfig::default();
        let owned = tt_core::infer(&trace, &cfg);
        let via_map = infer_columns(cols, &cfg);
        assert_eq!(via_map, owned);
        assert_eq!(
            via_map.estimate.beta_ns_per_sector.to_bits(),
            owned.estimate.beta_ns_per_sector.to_bits()
        );

        // Decomposition off the mapped columns.
        assert_eq!(
            Decomposition::compute_columns(cols, &owned.estimate),
            Decomposition::compute(&trace, &owned.estimate)
        );

        // Schedule building (replay input) off the mapped columns.
        let closed_map: Vec<_> = Schedule::closed_loop_ops_columns(cols).collect();
        let closed_own: Vec<_> = Schedule::closed_loop_ops(&trace).collect();
        assert_eq!(closed_map, closed_own);
        let open_map: Vec<_> = Schedule::open_loop_ops_columns(cols, 0.5).collect();
        let open_own: Vec<_> = Schedule::open_loop_ops(&trace, 0.5).collect();
        assert_eq!(open_map, open_own);

        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn mapped_and_bulk_pipelines_agree_through_the_facade() {
    let trace = session_trace(1_500, false);
    let path = temp("facade.ttb");
    Pipeline::from_trace_ref(&trace).write_path(&path).unwrap();

    let cfg = InferenceConfig::default();
    let mapped = Pipeline::from_path(&path).infer(&cfg).unwrap();
    let bulk = format::load_trace(&path, DEFAULT_CHUNK).unwrap();
    let bulk = Pipeline::from_trace(bulk).infer(&cfg).unwrap();
    let owned = Pipeline::from_trace_ref(&trace).infer(&cfg).unwrap();
    assert_eq!(mapped, bulk);
    assert_eq!(mapped, owned);
    std::fs::remove_file(&path).ok();
}

#[test]
fn adversarial_ttb_files_are_rejected_under_both_paths() {
    let trace = session_trace(64, true);
    let path = temp("adv.ttb");
    trace
        .write_ttb(std::fs::File::create(&path).unwrap())
        .unwrap();
    let good = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let check = |bytes: &[u8], what: &str| {
        let bad = temp("adv_case.ttb");
        std::fs::write(&bad, bytes).unwrap();
        // The mapped terminal and the bulk load reject with the same
        // message.
        let e_map = Pipeline::from_path(&bad).stats().unwrap_err().to_string();
        let e_bulk = Pipeline::from_path(&bad).collect().unwrap_err().to_string();
        assert_eq!(e_map, e_bulk, "{what}");
        // Direct MmapTrace::open rejects too (no path-context prefix).
        assert!(MmapTrace::open(&bad).is_err(), "{what}");
        std::fs::remove_file(&bad).ok();
        e_map
    };

    // File shorter than the header.
    let e = check(&good[..7], "short header");
    assert!(e.contains("truncated TTB file"), "{e}");
    // Truncated mid-column.
    let e = check(&good[..good.len() * 2 / 3], "mid-column cut");
    assert!(e.contains("truncated TTB file"), "{e}");
    // Trailer total tampered.
    let mut forged = good.clone();
    let total_off = forged.len() - 8;
    forged[total_off] ^= 0x55;
    let e = check(&forged, "trailer mismatch");
    assert!(e.contains("records but"), "{e}");
    // Trailing garbage.
    let mut trailing = good.clone();
    trailing.extend_from_slice(b"junk");
    let e = check(&trailing, "trailing bytes");
    assert!(e.contains("trailing data"), "{e}");
}

#[test]
fn verify_terminal_runs_off_the_mapped_input() {
    // Verification needs an owned copy (idle injection mutates arrivals);
    // the `.ttb` input must still produce the exact owned-path result.
    let trace = session_trace(1_200, false);
    let path = temp("verify.ttb");
    Pipeline::from_trace_ref(&trace).write_path(&path).unwrap();

    let cfg = tt_core::VerifyConfig::default();
    let period = SimDuration::from_msecs(10);
    let mapped = Pipeline::from_path(&path).verify(period, &cfg).unwrap();
    let bulk = format::load_trace(&path, DEFAULT_CHUNK).unwrap();
    let bulk = Pipeline::from_trace(bulk).verify(period, &cfg).unwrap();
    assert_eq!(mapped, bulk);
    std::fs::remove_file(&path).ok();
}

#[test]
fn multi_block_files_analyse_like_the_owned_trace() {
    // A file streamed in many blocks is copied out at open, not served in
    // place; every analysis terminal must still equal the owned trace's.
    let trace = session_trace(1_500, true);
    let path = temp("multi_block.ttb");
    Pipeline::from_trace_ref(&trace)
        .chunk_size(256)
        .write_to(&mut format::ttb::TtbSink::new(
            std::fs::File::create(&path).unwrap(),
            "multi_block",
        ))
        .unwrap();
    assert!(!MmapTrace::open(&path).unwrap().is_zero_copy());

    let cfg = InferenceConfig::default();
    let vcfg = tt_core::VerifyConfig::default();
    let period = SimDuration::from_msecs(10);
    let owned = || Pipeline::from_trace_ref(&trace);
    let mapped = || Pipeline::from_path(&path);
    assert_eq!(mapped().stats().unwrap(), owned().stats().unwrap());
    assert_eq!(mapped().group().unwrap(), owned().group().unwrap());
    assert_eq!(mapped().infer(&cfg).unwrap(), owned().infer(&cfg).unwrap());
    assert_eq!(
        mapped().verify(period, &vcfg).unwrap(),
        owned().verify(period, &vcfg).unwrap()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn version_1_files_are_rejected_with_a_convert_hint() {
    let trace = session_trace(64, false);
    let path = temp("v1.ttb");
    Pipeline::from_trace_ref(&trace).write_path(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let e_map = Pipeline::from_path(&path).stats().unwrap_err().to_string();
    assert!(e_map.contains("version 1"), "{e_map}");
    assert!(e_map.contains("tt-cli convert"), "{e_map}");
    let e_bulk = Pipeline::from_path(&path)
        .collect()
        .unwrap_err()
        .to_string();
    assert_eq!(e_map, e_bulk);
    std::fs::remove_file(&path).ok();
}

#[test]
fn from_mapped_terminals_match_every_other_input_shape() {
    // The resident-service input shape: a borrowed, already-validated
    // mapping. Its stage-less terminals read the columns in place and
    // must agree exactly with the path-input and owned-trace pipelines.
    let trace = session_trace(1_000, true);
    let path = temp("from_mapped.ttb");
    Pipeline::from_trace_ref(&trace).write_path(&path).unwrap();
    let mapped = MmapTrace::open(&path).unwrap();

    let cfg = InferenceConfig::default();
    assert_eq!(
        Pipeline::from_mapped(&mapped).stats().unwrap(),
        Pipeline::from_path(&path).stats().unwrap()
    );
    assert_eq!(
        Pipeline::from_mapped(&mapped).group().unwrap(),
        Pipeline::from_trace_ref(&trace).group().unwrap()
    );
    assert_eq!(
        Pipeline::from_mapped(&mapped).infer(&cfg).unwrap(),
        Pipeline::from_trace_ref(&trace).infer(&cfg).unwrap()
    );

    // Owning terminals copy the mapped columns out once and still agree.
    let vcfg = tt_core::VerifyConfig::default();
    let period = SimDuration::from_msecs(10);
    assert_eq!(
        Pipeline::from_mapped(&mapped)
            .verify(period, &vcfg)
            .unwrap(),
        Pipeline::from_path(&path).verify(period, &vcfg).unwrap()
    );
    assert_eq!(
        Pipeline::from_mapped(&mapped).collect().unwrap(),
        Pipeline::from_path(&path).collect().unwrap()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn concurrent_shared_mapping_readers_are_bit_identical_to_sequential() {
    // N threads running stats/group/infer off ONE `Arc<MmapTrace>` (the
    // tt-serve sharing model, via `tt_trace::MmapRegistry`) must produce
    // results bit-identical to a sequential single-reader run.
    use std::sync::Arc;

    let trace = session_trace(2_000, true);
    let path = temp("shared_conc.ttb");
    Pipeline::from_trace_ref(&trace).write_path(&path).unwrap();

    let registry = tt_trace::MmapRegistry::new();
    let mapped: Arc<MmapTrace> = registry.open("shared", &path).unwrap();
    assert!(Arc::ptr_eq(
        &mapped,
        &registry.open("shared", &path).unwrap()
    ));

    let cfg = InferenceConfig::default();
    let baseline_stats = Pipeline::from_mapped(&mapped).stats().unwrap();
    let baseline_group = Pipeline::from_mapped(&mapped).group().unwrap();
    let baseline_infer = Pipeline::from_mapped(&mapped).infer(&cfg).unwrap();

    std::thread::scope(|scope| {
        for worker in 0..12 {
            let mapped = Arc::clone(&mapped);
            let (bs, bg, bi) = (&baseline_stats, &baseline_group, &baseline_infer);
            let cfg = &cfg;
            scope.spawn(move || match worker % 3 {
                0 => assert_eq!(&Pipeline::from_mapped(&mapped).stats().unwrap(), bs),
                1 => assert_eq!(&Pipeline::from_mapped(&mapped).group().unwrap(), bg),
                _ => assert_eq!(&Pipeline::from_mapped(&mapped).infer(cfg).unwrap(), bi),
            });
        }
    });
    std::fs::remove_file(&path).ok();
}
