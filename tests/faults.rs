//! Robustness properties of the fault-injection layer:
//!
//! * a fault-injected replay is **bit-reproducible** given the same
//!   [`FaultPlan`] seed, at every chunk size — the output never depends
//!   on the knob;
//! * an error-budget decode ([`ErrorPolicy::Skip`] / `Quarantine`) of a
//!   dirty input equals the clean-subset reference run exactly;
//! * retry backoff never reorders completions;
//! * inference on a fault-degraded trace degrades gracefully — finite
//!   estimates in a bounded band around the clean baseline.

use proptest::prelude::*;
use tracetracker::prelude::*;
use tracetracker::sim::RetryPolicy;
use tracetracker::trace::format::csv::CsvSource;
use tracetracker::workloads::faults;
use tt_device::{LinearDevice, LinearDeviceConfig};

/// A mixed sync/async session trace on the old node.
fn old_trace(n: usize, seed: u64) -> Trace {
    let entry = catalog::find("MSNFS").unwrap();
    let session = generate_session("MSNFS", &entry.profile, n, seed);
    let mut node = presets::enterprise_hdd_2007();
    session.materialize(&mut node, false).trace
}

/// Replays `old` open-loop on a fresh faulty array at the given chunk size.
fn faulty_replay(old: &Trace, plan: &FaultPlan, chunk: usize) -> Trace {
    let mut device = FaultyDevice::new(presets::intel_750_array(), plan.clone());
    Pipeline::from_trace_ref(old)
        .chunk_size(chunk)
        .replay(&mut device, StreamReplay::OpenLoop { time_scale: 1.0 })
        .collect()
        .expect("in-memory replay cannot fail")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same plan, same seed ⇒ identical records at any chunk size, for
    /// every named scenario — including the error plans, whose retries
    /// shift all later timing.
    #[test]
    fn fault_replay_is_knob_invariant(
        seed in 0u64..1000,
        chunk in 1usize..300,
        scenario_ix in 0usize..faults::SCENARIO_NAMES.len(),
    ) {
        let old = old_trace(300, 11);
        let plan = faults::scenario(faults::SCENARIO_NAMES[scenario_ix], seed).unwrap();
        let reference = faulty_replay(&old, &plan, 64);
        let knobbed = faulty_replay(&old, &plan, chunk);
        prop_assert_eq!(reference.records(), knobbed.records());
        prop_assert_eq!(reference.columns(), knobbed.columns());
    }

    /// Skip/Quarantine decode of a dirty CSV equals the abort run over the
    /// clean subset — same records in, same replayed records out.
    #[test]
    fn error_budget_equals_clean_subset(
        chunk in 1usize..200,
        garbage_stride in 2usize..20,
        unlimited in proptest::bool::ANY,
    ) {
        let old = old_trace(200, 23);
        let mut clean_bytes = Vec::new();
        tracetracker::trace::format::csv::write_csv(&old, &mut clean_bytes).unwrap();

        // Inject a garbage line after every `garbage_stride`-th line.
        let mut dirty = String::new();
        let mut injected = 0usize;
        for (i, line) in String::from_utf8(clean_bytes.clone()).unwrap().lines().enumerate() {
            dirty.push_str(line);
            dirty.push('\n');
            if i % garbage_stride == garbage_stride - 1 {
                dirty.push_str("not,a,valid,record,at,all,xyz\n");
                injected += 1;
            }
        }

        let policy = if unlimited {
            ErrorPolicy::quarantine()
        } else {
            ErrorPolicy::skip(injected)
        };
        let tolerant = Pipeline::from_source(CsvSource::new(dirty.as_bytes()), "d")
            .chunk_size(chunk)
            .on_error(policy.clone())
            .collect()
            .unwrap();
        let clean = Pipeline::from_source(CsvSource::new(&clean_bytes[..]), "d")
            .chunk_size(chunk)
            .collect()
            .unwrap();
        prop_assert_eq!(tolerant.records(), clean.records());
        prop_assert_eq!(policy.quarantined(), injected);

        // One bad record past the budget aborts.
        if !unlimited && injected > 0 {
            let tight = Pipeline::from_source(CsvSource::new(dirty.as_bytes()), "d")
                .chunk_size(chunk)
                .on_error(ErrorPolicy::skip(injected - 1))
                .collect();
            prop_assert!(tight.is_err());
        }
    }
}

/// Retry backoff delays an issue but never lets a later request complete
/// out of order on a serialised device: issues and completions stay
/// monotone even when transient errors force retries.
#[test]
fn retry_backoff_never_reorders_completions() {
    let old = old_trace(400, 31);
    let config = LinearDeviceConfig {
        beta_ns_per_sector: 2_000,
        serialize: true,
        ..LinearDeviceConfig::default()
    };
    // Aggressive transient errors: every retry path gets exercised.
    let plan = FaultPlan::new(77).with_error(0.2, 2);
    let mut device = FaultyDevice::new(LinearDevice::new(config), plan);
    let outcome = tracetracker::sim::replay(
        &mut device,
        &Schedule::open_loop(&old, 1.0),
        "retry",
        ReplayConfig {
            retry: RetryPolicy::default(),
            ..ReplayConfig::default()
        },
    );
    assert!(
        !outcome.faults.is_empty(),
        "the plan must actually trigger retries"
    );
    assert!(outcome.faults.iter().all(|f| !f.gave_up && f.attempts > 0));
    let timing: Vec<_> = outcome
        .trace
        .columns()
        .timing_column()
        .iter()
        .map(|t| t.expect("replay collects timing"))
        .collect();
    for pair in timing.windows(2) {
        assert!(
            pair[1].issue >= pair[0].issue,
            "issues must stay monotone under backoff"
        );
        assert!(
            pair[1].complete >= pair[0].complete,
            "completions must stay monotone under backoff"
        );
    }
}

/// Exhausted retries surface as recorded failures, not records: the
/// give-up requests are dropped from the collected trace and flagged in
/// the fault log.
#[test]
fn exhausted_retries_are_recorded_failures() {
    let old = old_trace(300, 37);
    let plan = FaultPlan::new(5).with_error(0.1, 10); // 10 failures > 2 attempts
    let mut device = FaultyDevice::new(presets::intel_750_array(), plan);
    let outcome = tracetracker::sim::replay(
        &mut device,
        &Schedule::open_loop(&old, 1.0),
        "giveup",
        ReplayConfig {
            retry: RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
            ..ReplayConfig::default()
        },
    );
    let gave_up = outcome.faults.iter().filter(|f| f.gave_up).count();
    assert!(gave_up > 0, "the plan must exhaust some retries");
    assert_eq!(outcome.trace.len(), old.len() - gave_up);
    assert_eq!(outcome.outcomes.len(), outcome.trace.len());
}

/// Degraded-mode inference: a latency-spiked replay still yields finite,
/// sane estimates in a bounded band around the clean baseline — faults
/// degrade the answer, they don't destroy it.
#[test]
fn inference_degrades_gracefully_under_faults() {
    let old = old_trace(2000, 41);
    let config = InferenceConfig::default();

    let mut clean_dev = presets::intel_750_array();
    let clean = Pipeline::from_trace_ref(&old)
        .replay(&mut clean_dev, StreamReplay::OpenLoop { time_scale: 1.0 })
        .collect()
        .unwrap();
    let clean_est = tracetracker::core::infer(&clean, &config).estimate;

    for name in ["latency-spike", "throttling"] {
        let plan = faults::scenario(name, 7).unwrap();
        let degraded = faulty_replay(&old, &plan, 64);
        let est = tracetracker::core::infer(&degraded, &config).estimate;
        assert!(
            est.beta_ns_per_sector.is_finite() && est.beta_ns_per_sector >= 0.0,
            "{name}: beta must stay sane, got {}",
            est.beta_ns_per_sector
        );
        assert!(
            est.tmovd.as_nanos() <= 20 * clean_est.tmovd.as_nanos().max(1),
            "{name}: Tmovd may inflate under faults but must stay bounded \
             (clean {clean_est:?}, degraded {est:?})"
        );
    }
}
