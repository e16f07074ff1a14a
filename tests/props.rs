//! Cross-crate property-based tests (proptest).

use proptest::prelude::*;

use tracetracker::device::{LinearDevice, LinearDeviceConfig};
use tracetracker::prelude::*;
use tracetracker::sim::ScheduledOp;

fn arb_op() -> impl Strategy<Value = OpType> {
    prop_oneof![Just(OpType::Read), Just(OpType::Write)]
}

fn arb_scheduled_op() -> impl Strategy<Value = ScheduledOp> {
    (
        0u64..5_000_000, // pre-delay ns (0..5ms)
        arb_op(),
        0u64..1_000_000_000, // lba
        1u32..512,           // sectors
        proptest::bool::ANY, // async?
    )
        .prop_map(|(pre_ns, op, lba, sectors, is_async)| ScheduledOp {
            pre_delay: SimDuration::from_nanos(pre_ns),
            request: IoRequest::new(op, lba, sectors),
            mode: if is_async {
                IssueMode::Async
            } else {
                IssueMode::Sync
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replay never reorders and never travels back in time, for any
    /// schedule on any preset device.
    #[test]
    fn replay_preserves_order_and_monotonicity(ops in prop::collection::vec(arb_scheduled_op(), 1..80)) {
        let schedule: Schedule = ops.iter().copied().collect();
        let mut device = presets::intel_750_array();
        let out = replay(&mut device, &schedule, "prop", ReplayConfig::default());
        prop_assert_eq!(out.trace.len(), schedule.len());
        let records = out.trace.records();
        for w in records.windows(2) {
            prop_assert!(w[0].arrival <= w[1].arrival);
        }
        // Collected requests match the schedule exactly, in order.
        for (rec, op) in records.iter().zip(schedule.ops()) {
            prop_assert_eq!(rec.lba, op.request.lba);
            prop_assert_eq!(rec.sectors, op.request.sectors);
            prop_assert_eq!(rec.op, op.request.op);
        }
    }

    /// Scaling every pre-delay up can only lengthen the replay makespan
    /// (metamorphic property of the DES).
    #[test]
    fn longer_idle_never_shortens_makespan(ops in prop::collection::vec(arb_scheduled_op(), 1..50)) {
        let base: Schedule = ops.iter().copied().collect();
        let stretched: Schedule = ops
            .iter()
            .map(|o| ScheduledOp {
                pre_delay: o.pre_delay * 3,
                ..*o
            })
            .collect();
        let mut d1 = LinearDevice::new(LinearDeviceConfig::default());
        let mut d2 = LinearDevice::new(LinearDeviceConfig::default());
        let a = replay(&mut d1, &base, "a", ReplayConfig::default());
        let b = replay(&mut d2, &stretched, "b", ReplayConfig::default());
        prop_assert!(b.makespan >= a.makespan);
    }

    /// Idle injection adds exactly `k x period` to the span and never
    /// reorders records.
    #[test]
    fn injection_adds_exactly_the_injected_time(
        gaps in prop::collection::vec(1u64..100_000u64, 2..100),
        period_us in 1u64..1_000_000,
        seed in 0u64..1000,
    ) {
        let mut t = 0u64;
        let mut recs = vec![BlockRecord::new(SimInstant::ZERO, 0, 8, OpType::Read)];
        for &g in &gaps {
            t += g;
            recs.push(BlockRecord::new(SimInstant::from_usecs(t), 0, 8, OpType::Read));
        }
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let period = SimDuration::from_usecs(period_us);
        let (out, truth) = inject_idle(&trace, 0.3, period, seed);
        prop_assert_eq!(out.len(), trace.len());
        let grown = out.span() - trace.span();
        prop_assert_eq!(grown, period * truth.len() as u64);
    }

    /// Acceleration divides every gap by the factor (up to rounding).
    #[test]
    fn acceleration_scales_gaps(
        gaps in prop::collection::vec(1_000u64..10_000_000u64, 2..60),
        factor in 2u32..1000,
    ) {
        let mut t = 0u64;
        let mut recs = vec![BlockRecord::new(SimInstant::ZERO, 0, 8, OpType::Read)];
        for &g in &gaps {
            t += g;
            recs.push(BlockRecord::new(SimInstant::from_usecs(t), 0, 8, OpType::Read));
        }
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let mut device = presets::intel_750();
        let accel = Acceleration::new(f64::from(factor)).reconstruct(&trace, &mut device);
        for (i, gap) in trace.inter_arrivals().enumerate() {
            let got = accel.inter_arrival(i).unwrap().as_nanos() as f64;
            let want = gap.as_nanos() as f64 / f64::from(factor);
            prop_assert!((got - want).abs() <= 1.0, "gap {i}: {got} vs {want}");
        }
    }

    /// The decomposition identity: Tidle == saturating(Tintt - Tslat),
    /// and Tslat == Tcdel + Tsdev, for arbitrary estimates and traces.
    #[test]
    fn decomposition_identity(
        gaps in prop::collection::vec(0u64..1_000_000u64, 1..60),
        beta in 0.0f64..10_000.0,
        cdel_us in 0u64..100,
    ) {
        let mut t = 0u64;
        let mut recs = vec![BlockRecord::new(SimInstant::ZERO, 0, 8, OpType::Read)];
        for &g in &gaps {
            t += g;
            recs.push(BlockRecord::new(SimInstant::from_usecs(t), 0, 8, OpType::Read));
        }
        let trace = Trace::from_records(TraceMeta::named("p"), recs);
        let est = DeviceEstimate {
            beta_ns_per_sector: beta,
            eta_ns_per_sector: beta,
            tcdel_read: SimDuration::from_usecs(cdel_us),
            tcdel_write: SimDuration::from_usecs(cdel_us),
            tmovd: SimDuration::ZERO,
        };
        let d = Decomposition::compute(&trace, &est);
        for i in 0..trace.len() {
            prop_assert_eq!(d.tslat[i], d.tcdel[i] + d.tsdev[i]);
            match trace.inter_arrival(i) {
                Some(gap) => prop_assert_eq!(d.tidle[i], gap.saturating_sub(d.tslat[i])),
                None => prop_assert_eq!(d.tidle[i], SimDuration::ZERO),
            }
        }
    }

    /// Inference is sequential, so the process-wide worker count that
    /// `par::set_threads` sets (and the benchmark harnesses toggle around
    /// `infer`) never changes its result: the estimate is bit-identical at
    /// one worker and at many, for any session.
    #[test]
    fn parallel_inference_equals_sequential(
        requests in 50usize..400,
        seed in 0u64..200,
        workers in 2usize..6,
    ) {
        let entry = &catalog::table1()[seed as usize % 31];
        let session = generate_session(entry.name, &entry.profile, requests, seed);
        let mut device = presets::enterprise_hdd_2007();
        let trace = session.materialize(&mut device, false).trace;

        tracetracker::par::set_threads(1);
        let sequential = infer(&trace, &InferenceConfig::default());
        tracetracker::par::set_threads(workers);
        let parallel = infer(&trace, &InferenceConfig::default());
        tracetracker::par::set_threads(0);

        prop_assert_eq!(&sequential, &parallel);
        let a = sequential.estimate;
        let b = parallel.estimate;
        prop_assert_eq!(a.beta_ns_per_sector.to_bits(), b.beta_ns_per_sector.to_bits());
        prop_assert_eq!(a.eta_ns_per_sector.to_bits(), b.eta_ns_per_sector.to_bits());
    }

    /// Streaming a reconstruction through the Pipeline into a `CsvSink` is
    /// byte-identical to the free-function path (materialise with
    /// `Reconstructor::reconstruct`, then `write_csv`) — for any workload,
    /// method, and chunk size. This pins the redesigned API to the
    /// pre-`Pipeline` output exactly.
    #[test]
    fn pipeline_streaming_equals_free_functions(
        requests in 40usize..200,
        seed in 0u64..100,
        method_pick in 0usize..5,
        chunk in 1usize..96,
    ) {
        use tracetracker::trace::format::csv::{write_csv, CsvSink};

        let entry = &catalog::table1()[seed as usize % 31];
        let session = generate_session(entry.name, &entry.profile, requests, seed);
        let mut old_node = presets::enterprise_hdd_2007();
        let old = session.materialize(&mut old_node, false).trace;

        let method: Box<dyn Reconstructor> = match method_pick {
            0 => Box::new(TraceTracker::new()),
            1 => Box::new(Dynamic::new()),
            2 => Box::new(Revision::new()),
            3 => Box::new(Acceleration::x100()),
            _ => Box::new(FixedThreshold::paper_default()),
        };

        // Free-function path: materialise, then whole-trace write.
        let mut d1 = presets::intel_750_array();
        let direct = method.reconstruct(&old, &mut d1);
        let mut whole = Vec::new();
        write_csv(&direct, &mut whole).unwrap();

        // Pipeline path: stream into the sink, `chunk` records at a time.
        let mut d2 = presets::intel_750_array();
        let mut streamed = Vec::new();
        let stats = Pipeline::from_trace(old)
            .chunk_size(chunk)
            .reconstruct(&mut d2, method)
            .write_to(&mut CsvSink::new(&mut streamed, direct.meta().name.clone()))
            .unwrap();

        prop_assert_eq!(stats.records, direct.len());
        prop_assert_eq!(stats.span(), direct.span());
        prop_assert_eq!(streamed, whole);
    }

    /// Device service outcomes are deterministic after reset, for random
    /// request streams on the flash array.
    #[test]
    fn flash_array_determinism(
        reqs in prop::collection::vec((arb_op(), 0u64..100_000_000, 1u32..256), 1..40),
    ) {
        let mut d1 = presets::intel_750_array();
        let mut d2 = presets::intel_750_array();
        let mut clock = SimInstant::ZERO;
        for (op, lba, sectors) in reqs {
            let req = IoRequest::new(op, lba, sectors);
            let a = d1.service(&req, clock);
            let b = d2.service(&req, clock);
            prop_assert_eq!(a, b);
            clock = a.complete_at(clock);
        }
    }
}
