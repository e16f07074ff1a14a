//! Property-based tests for the trace data model.

use proptest::prelude::*;

use tt_trace::format::{blk, csv, ttb};
use tt_trace::time::{SimDuration, SimInstant};
use tt_trace::{
    classify_columns, classify_sequentiality, BlockRecord, GroupedTrace, OpType, RecordSource,
    ServiceTiming, Trace, TraceMeta, TraceStats,
};

fn arb_record() -> impl Strategy<Value = BlockRecord> {
    (
        0u64..10_000_000_000,
        0u64..1_000_000_000,
        1u32..2048,
        proptest::bool::ANY,
    )
        .prop_map(|(t_ns, lba, sectors, write)| {
            BlockRecord::new(
                SimInstant::from_nanos(t_ns),
                lba,
                sectors,
                if write { OpType::Write } else { OpType::Read },
            )
        })
}

/// Records that may carry device-side timing (issue after arrival,
/// completion after issue), exercising the `Tsdev`-known format paths.
fn arb_timed_record() -> impl Strategy<Value = BlockRecord> {
    (
        arb_record(),
        proptest::bool::ANY,
        0u64..1_000_000,
        0u64..10_000_000,
    )
        .prop_map(|(rec, timed, issue_off_ns, service_ns)| {
            if timed {
                let issue = rec.arrival + SimDuration::from_nanos(issue_off_ns);
                rec.with_timing(ServiceTiming::new(
                    issue,
                    issue + SimDuration::from_nanos(service_ns),
                ))
            } else {
                rec
            }
        })
}

proptest! {
    /// from_records produces arrival-sorted traces for any input order.
    #[test]
    fn from_records_always_sorted(recs in prop::collection::vec(arb_record(), 0..200)) {
        let trace = Trace::from_records(TraceMeta::default(), recs);
        prop_assert!(trace
            .records()
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
    }

    /// Inter-arrival count is always len-1 (or 0) and all gaps non-negative
    /// by construction; their sum telescopes to the span.
    #[test]
    fn gaps_telescope_to_span(recs in prop::collection::vec(arb_record(), 2..200)) {
        let trace = Trace::from_records(TraceMeta::default(), recs);
        let total: SimDuration = trace.inter_arrivals().sum();
        prop_assert_eq!(total, trace.span());
        prop_assert_eq!(trace.inter_arrivals().count(), trace.len() - 1);
    }

    /// Rebase moves the first arrival to zero and is gap-preserving.
    #[test]
    fn rebase_preserves_gaps(recs in prop::collection::vec(arb_record(), 1..100)) {
        let trace = Trace::from_records(TraceMeta::default(), recs);
        let rebased = trace.rebased();
        prop_assert_eq!(rebased.start(), Some(SimInstant::ZERO));
        let a: Vec<SimDuration> = trace.inter_arrivals().collect();
        let b: Vec<SimDuration> = rebased.inter_arrivals().collect();
        prop_assert_eq!(a, b);
    }

    /// Grouping partitions the records: every index appears exactly once.
    #[test]
    fn grouping_is_a_partition(recs in prop::collection::vec(arb_record(), 0..150)) {
        let trace = Trace::from_records(TraceMeta::default(), recs);
        let grouped = GroupedTrace::build(&trace);
        let mut seen: Vec<usize> = grouped
            .iter()
            .flat_map(|(_, g)| g.indices.iter().copied())
            .collect();
        seen.sort_unstable();
        let expect: Vec<usize> = (0..trace.len()).collect();
        prop_assert_eq!(seen, expect);
    }

    /// Sequentiality classification matches the pairwise definition.
    #[test]
    fn sequentiality_matches_definition(recs in prop::collection::vec(arb_record(), 1..100)) {
        let trace = Trace::from_records(TraceMeta::default(), recs);
        let classes = classify_sequentiality(&trace);
        for (i, class) in classes.iter().enumerate() {
            let expected = i > 0
                && trace.records()[i].lba == trace.records()[i - 1].end_lba();
            prop_assert_eq!(class.is_sequential(), expected);
        }
    }

    /// CSV round-trips arbitrary traces losslessly (ns resolution).
    #[test]
    fn csv_round_trip(recs in prop::collection::vec(arb_record(), 0..100)) {
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let mut buf = Vec::new();
        csv::write_csv(&trace, &mut buf).unwrap();
        let back = csv::read_csv(buf.as_slice(), "p").unwrap();
        prop_assert_eq!(back.records(), trace.records());
    }

    /// Duration arithmetic: saturating_sub never underflows and add/sub
    /// round-trips when no clamping happened.
    #[test]
    fn duration_saturation(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        let diff = da.saturating_sub(db);
        if a >= b {
            prop_assert_eq!(diff + db, da);
        } else {
            prop_assert_eq!(diff, SimDuration::ZERO);
        }
    }

    /// The streaming CSV source produces byte-identical traces to the
    /// in-memory reader, for any trace and any chunk size.
    #[test]
    fn csv_streaming_equals_in_memory(
        recs in prop::collection::vec(arb_timed_record(), 0..120),
        chunk in 1usize..40,
    ) {
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let mut buf = Vec::new();
        csv::write_csv(&trace, &mut buf).unwrap();

        let whole = csv::read_csv(buf.as_slice(), "p").unwrap();
        let mut source = csv::CsvSource::new(buf.as_slice());
        let streamed = tt_trace::collect_source(
            &mut source,
            TraceMeta::named("p").with_source("csv"),
            chunk,
        )
        .unwrap();
        prop_assert_eq!(streamed.records(), whole.records());
        prop_assert_eq!(&streamed, &whole);
    }

    /// The streaming blkparse source produces byte-identical traces to the
    /// in-memory reader, for any timed/untimed trace and any chunk size.
    #[test]
    fn blk_streaming_equals_in_memory(
        recs in prop::collection::vec(arb_timed_record(), 0..120),
        chunk in 1usize..40,
    ) {
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let mut buf = Vec::new();
        blk::write_blk(&trace, &mut buf).unwrap();

        let whole = blk::read_blk(buf.as_slice(), "p").unwrap();
        let mut source = blk::BlkSource::new(buf.as_slice());
        let streamed = tt_trace::collect_source(
            &mut source,
            TraceMeta::named("p").with_source("blkparse"),
            chunk,
        )
        .unwrap();
        prop_assert_eq!(streamed.records(), whole.records());
        prop_assert_eq!(&streamed, &whole);
    }

    /// The streaming CSV sink emits byte-identical output to the
    /// whole-trace writer, for any trace and any chunk size.
    #[test]
    fn csv_sink_equals_write_csv(
        recs in prop::collection::vec(arb_timed_record(), 0..120),
        chunk in 1usize..40,
    ) {
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let mut whole = Vec::new();
        csv::write_csv(&trace, &mut whole).unwrap();

        let mut streamed = Vec::new();
        let mut sink = csv::CsvSink::new(&mut streamed, "p");
        tt_trace::drain_trace(&trace, &mut sink, chunk).unwrap();
        prop_assert_eq!(streamed, whole);
    }

    /// The streaming blkparse sink emits byte-identical output to the
    /// whole-trace writer (the Q/D/C sequence counter survives chunk
    /// boundaries), for any trace and any chunk size.
    #[test]
    fn blk_sink_equals_write_blk(
        recs in prop::collection::vec(arb_timed_record(), 0..120),
        chunk in 1usize..40,
    ) {
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let mut whole = Vec::new();
        blk::write_blk(&trace, &mut whole).unwrap();

        let mut streamed = Vec::new();
        let mut sink = blk::BlkSink::new(&mut streamed);
        tt_trace::drain_trace(&trace, &mut sink, chunk).unwrap();
        prop_assert_eq!(streamed, whole);
    }

    /// `CsvSource → CsvSink` pass-through reproduces a CSV trace file byte
    /// for byte, at arbitrary read and write chunk sizes — the fully
    /// streamed format-conversion identity.
    #[test]
    fn csv_source_to_sink_is_byte_identical(
        recs in prop::collection::vec(arb_timed_record(), 0..120),
        read_chunk in 1usize..40,
        write_chunk in 1usize..40,
    ) {
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let mut file = Vec::new();
        csv::write_csv(&trace, &mut file).unwrap();

        // Stream source → rechunk → sink, without a Trace in between.
        let mut out = Vec::new();
        let mut source = csv::CsvSource::new(file.as_slice());
        let mut sink = csv::CsvSink::new(&mut out, "p");
        let mut buf = Vec::new();
        loop {
            buf.clear();
            if source.next_chunk(&mut buf, read_chunk).unwrap() == 0 {
                break;
            }
            for piece in buf.chunks(write_chunk) {
                sink.push_chunk(piece).unwrap();
            }
        }
        use tt_trace::RecordSink as _;
        sink.finish().unwrap();
        prop_assert_eq!(out, file);
    }

    /// TTB round-trips arbitrary traces losslessly: the columnar
    /// whole-trace paths (`TraceStore → TTB → TraceStore`) reproduce every
    /// column bit for bit, including optional per-record timing.
    #[test]
    fn ttb_round_trip_is_lossless(recs in prop::collection::vec(arb_timed_record(), 0..120)) {
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let mut buf = Vec::new();
        ttb::write_ttb(&trace, &mut buf).unwrap();
        let back = ttb::read_ttb(buf.as_slice(), "p").unwrap();
        prop_assert_eq!(back.columns(), trace.columns());
        prop_assert_eq!(back.records(), trace.records());
    }

    /// The streaming TTB endpoints agree with the columnar bulk paths at
    /// any read/write chunk size: a file written block-by-block through
    /// `TtbSink` decodes to the same trace through both `read_ttb` and a
    /// chunked `TtbSource`, and vice versa for `write_ttb` output.
    #[test]
    fn ttb_streaming_equals_bulk(
        recs in prop::collection::vec(arb_timed_record(), 0..120),
        write_chunk in 1usize..40,
        read_chunk in 1usize..40,
    ) {
        let trace = Trace::from_records(TraceMeta::named("p"), recs);

        let mut bulk = Vec::new();
        ttb::write_ttb(&trace, &mut bulk).unwrap();
        let mut streamed = Vec::new();
        let mut sink = ttb::TtbSink::new(&mut streamed, "p");
        tt_trace::drain_trace(&trace, &mut sink, write_chunk).unwrap();

        // Block boundaries differ with the chunk size, but every route to
        // records produces the same trace.
        for bytes in [&bulk, &streamed] {
            let whole = ttb::read_ttb(bytes.as_slice(), "p").unwrap();
            prop_assert_eq!(whole.records(), trace.records());
            let mut source = ttb::TtbSource::new(bytes.as_slice());
            let chunked = tt_trace::collect_source(
                &mut source,
                TraceMeta::named("p").with_source("ttb"),
                read_chunk,
            )
            .unwrap();
            prop_assert_eq!(chunked.records(), trace.records());
        }
    }

    /// The mapped view and the owned store are interchangeable: grouping,
    /// statistics, and sequentiality over `MmapTrace` columns equal the
    /// owned-trace results, and the mapped trace materialises back to the
    /// bulk-read trace exactly — for single-block files (the zero-copy
    /// shape) and multi-block streams (the copying fallback) alike.
    #[test]
    fn mapped_view_equals_owned_columns(
        recs in prop::collection::vec(arb_timed_record(), 0..120),
        chunk in 1usize..40,
    ) {
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let mut bulk = Vec::new();
        ttb::write_ttb(&trace, &mut bulk).unwrap();
        let mut streamed = Vec::new();
        let mut sink = ttb::TtbSink::new(&mut streamed, "p");
        tt_trace::drain_trace(&trace, &mut sink, chunk).unwrap();
        for bytes in [bulk, streamed] {
            let mapped =
                ttb::MmapTrace::from_map(tt_trace::mmap::Mmap::from_bytes(bytes), "p").unwrap();
            let cols = mapped.columns();
            prop_assert_eq!(
                GroupedTrace::build_columns(cols),
                GroupedTrace::build(&trace)
            );
            prop_assert_eq!(
                TraceStats::compute_columns(cols),
                TraceStats::compute(&trace)
            );
            prop_assert_eq!(classify_columns(cols), classify_sequentiality(&trace));
            prop_assert_eq!(mapped.to_trace().columns(), trace.columns());
        }
    }

    /// `CsvSource → TtbSink → TtbSource → CsvSink` reproduces the CSV file
    /// byte for byte at any chunk sizes — the binary cache is lossless for
    /// exactly what the text format carries.
    #[test]
    fn csv_through_ttb_is_byte_identical(
        recs in prop::collection::vec(arb_timed_record(), 0..120),
        to_ttb_chunk in 1usize..40,
        to_csv_chunk in 1usize..40,
    ) {
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let mut file = Vec::new();
        csv::write_csv(&trace, &mut file).unwrap();

        let mut cache = Vec::new();
        tt_trace::pump(
            &mut csv::CsvSource::new(file.as_slice()),
            &mut ttb::TtbSink::new(&mut cache, "p"),
            to_ttb_chunk,
        )
        .unwrap();
        let mut out = Vec::new();
        tt_trace::pump(
            &mut ttb::TtbSource::new(cache.as_slice()),
            &mut csv::CsvSink::new(&mut out, "p"),
            to_csv_chunk,
        )
        .unwrap();
        prop_assert_eq!(out, file);
    }

    /// `BlkSource → BlkSink` pass-through reproduces a blkparse trace file
    /// byte for byte, at arbitrary chunk sizes (completion matching on the
    /// read side, sequence numbering on the write side). Timing presence
    /// is uniform across the trace: blkparse's FIFO completion matching is
    /// inherently ambiguous when timed and untimed requests share a
    /// `(op, lba, sectors)` key, so only uniform streams round-trip
    /// bytewise.
    #[test]
    fn blk_source_to_sink_is_byte_identical(
        recs in prop::collection::vec(arb_record(), 0..120),
        timed in proptest::bool::ANY,
        chunk in 1usize..40,
    ) {
        let recs: Vec<BlockRecord> = recs
            .into_iter()
            .map(|rec| {
                if timed {
                    let issue = rec.arrival + SimDuration::from_nanos(1_500);
                    rec.with_timing(ServiceTiming::new(
                        issue,
                        issue + SimDuration::from_nanos(rec.lba % 1_000_000 + 1),
                    ))
                } else {
                    rec
                }
            })
            .collect();
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let mut file = Vec::new();
        blk::write_blk(&trace, &mut file).unwrap();

        let mut out = Vec::new();
        let transferred = tt_trace::pump(
            &mut blk::BlkSource::new(file.as_slice()),
            &mut blk::BlkSink::new(&mut out),
            chunk,
        )
        .unwrap();
        prop_assert_eq!(transferred, trace.len());
        prop_assert_eq!(out, file);
    }
}
