//! Verification of the inference model by idle injection (paper §V-A).
//!
//! Known idle periods are injected into a trace at random gaps; the
//! inference then tries to find them. Each gap becomes one binary
//! classification:
//!
//! * **positive** — the inference reports idle time at the gap;
//! * **true** — the gap matches ground truth (injected ↔ detected).
//!
//! Four metrics summarise the result, exactly as the paper defines them:
//! `Detection(TP) = TP / #injected`, `Detection(FP) = FP / #instructions`,
//! `Len(TP) = T_estimated / T_injected` (mean over true positives),
//! `Len(FP) = T_estimated` at false-positive gaps.

use serde::Serialize;

use tt_trace::time::SimDuration;
use tt_trace::Trace;

use tt_workloads::inject_idle;

use crate::inference::{infer, Decomposition, InferenceConfig};

/// Configuration of one injection experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct VerifyConfig {
    /// Fraction of gaps that receive an injection (paper: 0.1).
    pub fraction: f64,
    /// Detection floor: estimated idle above this counts as "positive".
    /// Set at the new-storage latency scale — the paper observes that
    /// idle periods near the Intel 750's ~100 µs latency blur into device
    /// time and cannot be told apart.
    pub min_idle: SimDuration,
    /// Inference configuration under test.
    pub inference: InferenceConfig,
    /// RNG seed for the injection sites.
    pub seed: u64,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            fraction: 0.1,
            min_idle: SimDuration::from_usecs(100),
            inference: InferenceConfig::default(),
            seed: 0x1d1e,
        }
    }
}

/// Outcome of one injection experiment.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct InjectionVerification {
    /// The injected idle period.
    pub period: SimDuration,
    /// Number of injections performed.
    pub injected: usize,
    /// Number of classified gaps.
    pub total_gaps: usize,
    /// True positives: injected and detected.
    pub tp: usize,
    /// False positives: detected but not injected.
    pub fp: usize,
    /// False negatives: injected but missed.
    pub fn_: usize,
    /// True negatives: neither injected nor detected.
    pub tn: usize,
    /// Mean `T_estimated / T_injected` over true positives.
    pub len_tp: f64,
    /// Estimated idle (µs) at each false-positive gap — Fig 11's CDF input.
    pub len_fp_us: Vec<f64>,
}

impl InjectionVerification {
    /// `Detection(TP)` — recall over injected idles.
    #[must_use]
    pub fn detection_tp(&self) -> f64 {
        if self.injected == 0 {
            return 0.0;
        }
        self.tp as f64 / self.injected as f64
    }

    /// `Detection(FP)` — false positives over all instructions.
    #[must_use]
    pub fn detection_fp(&self) -> f64 {
        if self.total_gaps == 0 {
            return 0.0;
        }
        self.fp as f64 / self.total_gaps as f64
    }

    /// Mean `Len(FP)` in microseconds (0 when no false positives).
    #[must_use]
    pub fn mean_len_fp_us(&self) -> f64 {
        if self.len_fp_us.is_empty() {
            return 0.0;
        }
        self.len_fp_us.iter().sum::<f64>() / self.len_fp_us.len() as f64
    }
}

/// Runs one §V-A experiment: inject → infer → score.
///
/// `base` should carry little natural idle (the methodology cannot tell a
/// natural idle from an injected one, exactly as in the paper, where
/// injection sites were the only ground truth available). `Tsdev`-known vs
/// unknown traces are distinguished by whether `base`'s records carry
/// [`ServiceTiming`](tt_trace::ServiceTiming).
///
/// # Examples
///
/// ```
/// use tt_core::{verify_injection, VerifyConfig};
/// use tt_device::presets;
/// use tt_trace::time::SimDuration;
/// use tt_workloads::{generate_session, BurstModel, IdleModel, WorkloadProfile};
///
/// // A nearly idle-free base workload.
/// let profile = WorkloadProfile {
///     idle: IdleModel { think_mean_us: 200.0, long_idle_prob: 0.0, long_mean_us: 1.0 },
///     burst: BurstModel { mean_length: 4.0, async_prob: 0.0, intra_gap_us: 20.0 },
///     ..WorkloadProfile::default()
/// };
/// let session = generate_session("v", &profile, 400, 5);
/// let mut dev = presets::enterprise_hdd_2007();
/// let base = session.materialize(&mut dev, true).trace;
///
/// let report = verify_injection(&base, SimDuration::from_msecs(10), &VerifyConfig::default());
/// assert!(report.detection_tp() > 0.5);
/// ```
#[must_use]
pub fn verify_injection(
    base: &Trace,
    period: SimDuration,
    config: &VerifyConfig,
) -> InjectionVerification {
    let (injected_trace, truth) = inject_idle(base, config.fraction, period, config.seed);
    let estimate = infer(&injected_trace, &config.inference).estimate;
    let decomp = Decomposition::compute(&injected_trace, &estimate);

    let injected_set: std::collections::HashSet<usize> = truth.iter().map(|t| t.index).collect();

    let total_gaps = injected_trace.len().saturating_sub(1);
    let mut v = InjectionVerification {
        period,
        injected: truth.len(),
        total_gaps,
        tp: 0,
        fp: 0,
        fn_: 0,
        tn: 0,
        len_tp: 0.0,
        len_fp_us: Vec::new(),
    };

    let mut len_tp_sum = 0.0;
    for i in 0..total_gaps {
        let est = decomp.tidle[i];
        let predicted = est > config.min_idle;
        let truth_positive = injected_set.contains(&i);
        match (predicted, truth_positive) {
            (true, true) => {
                v.tp += 1;
                len_tp_sum += est.as_usecs_f64() / period.as_usecs_f64();
            }
            (true, false) => {
                v.fp += 1;
                v.len_fp_us.push(est.as_usecs_f64());
            }
            (false, true) => v.fn_ += 1,
            (false, false) => v.tn += 1,
        }
    }
    if v.tp > 0 {
        v.len_tp = len_tp_sum / v.tp as f64;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_device::presets;
    use tt_workloads::{generate_session, BurstModel, IdleModel, WorkloadProfile};

    /// Base workload with almost no natural idle.
    fn quiet_base(n: usize, with_timing: bool, seed: u64) -> Trace {
        let profile = WorkloadProfile {
            idle: IdleModel {
                think_mean_us: 60.0,
                long_idle_prob: 0.0,
                long_mean_us: 1.0,
            },
            burst: BurstModel {
                mean_length: 4.0,
                async_prob: 0.0,
                intra_gap_us: 10.0,
            },
            // Mostly-sequential access keeps per-request Tslat tight (media
            // transfer scale), so injected idles are not absorbed by seek-time
            // variance -- mirroring the small-file server traces the paper
            // injects into.
            seq_start_prob: 0.45,
            seq_run_mean: 8.0,
            ..WorkloadProfile::default()
        };
        let session = generate_session("v", &profile, n, seed);
        let mut dev = presets::enterprise_hdd_2007();
        session.materialize(&mut dev, with_timing).trace
    }

    #[test]
    fn long_injections_are_found() {
        let base = quiet_base(600, false, 1);
        let v = verify_injection(
            &base,
            SimDuration::from_msecs(100),
            &VerifyConfig::default(),
        );
        assert!(
            v.detection_tp() > 0.9,
            "Detection(TP) = {}",
            v.detection_tp()
        );
        assert!((0.5..1.5).contains(&v.len_tp), "Len(TP) = {}", v.len_tp);
    }

    #[test]
    fn accuracy_grows_with_period() {
        // The paper's Fig 10 shape: longer injections are recovered more
        // accurately (error is a fixed Tslat-scale offset).
        let base = quiet_base(600, false, 2);
        let cfg = VerifyConfig::default();
        let small = verify_injection(&base, SimDuration::from_usecs(500), &cfg);
        let large = verify_injection(&base, SimDuration::from_msecs(100), &cfg);
        let err = |v: &InjectionVerification| (v.len_tp - 1.0).abs();
        assert!(
            err(&large) <= err(&small) + 0.05,
            "Len(TP) err small={} large={}",
            err(&small),
            err(&large)
        );
    }

    #[test]
    fn tsdev_known_traces_verify_too() {
        let base = quiet_base(600, true, 3);
        assert!(base.has_device_timing());
        let v = verify_injection(&base, SimDuration::from_msecs(10), &VerifyConfig::default());
        assert!(
            v.detection_tp() > 0.9,
            "Detection(TP) = {}",
            v.detection_tp()
        );
    }

    #[test]
    fn counts_are_consistent() {
        let base = quiet_base(400, false, 4);
        let v = verify_injection(&base, SimDuration::from_msecs(1), &VerifyConfig::default());
        assert_eq!(v.tp + v.fn_, v.injected);
        assert_eq!(v.tp + v.fp + v.fn_ + v.tn, v.total_gaps);
        assert_eq!(v.fp, v.len_fp_us.len());
    }

    #[test]
    fn empty_trace_degenerates_gracefully() {
        let v = verify_injection(
            &Trace::new(),
            SimDuration::from_msecs(1),
            &VerifyConfig::default(),
        );
        assert_eq!(v.total_gaps, 0);
        assert_eq!(v.detection_tp(), 0.0);
        assert_eq!(v.detection_fp(), 0.0);
        assert_eq!(v.mean_len_fp_us(), 0.0);
    }
}
