#![forbid(unsafe_code)]
//! # tt-core — the TraceTracker method
//!
//! Reproduction of *TraceTracker: Hardware/Software Co-Evaluation for
//! Large-Scale I/O Workload Reconstruction* (IISWC 2017). Old block traces
//! entangle device service time with user idle time in their inter-arrival
//! gaps; this crate recovers the split and re-targets the trace to new
//! storage:
//!
//! 1. **inference** ([`infer`], [`Decomposition`]) — estimate the old
//!    device's linear timing model from the trace alone and split every gap
//!    into `Tslat = Tcdel + Tsdev` plus `Tidle`;
//! 2. **reconstruction** ([`TraceTracker`] and the [`Acceleration`],
//!    [`Revision`], [`FixedThreshold`], [`Dynamic`] baselines) — re-emulate
//!    the workload on a target device, preserving the inferred idle;
//! 3. **verification** ([`verify_injection`]) — the paper's §V-A injected
//!    idle methodology with its `Detection`/`Len` metrics;
//! 4. **reporting** ([`report`]) — the CDF series, gap breakdowns and idle
//!    buckets behind the paper's figures.
//!
//! ## End-to-end example
//!
//! ```
//! use tt_core::{infer, Decomposition, InferenceConfig, Reconstructor, TraceTracker};
//! use tt_device::presets;
//! use tt_workloads::{catalog, generate_session};
//!
//! // A decade-old trace: MSNFS behaviour captured on a 2007 disk.
//! let entry = catalog::find("MSNFS").unwrap();
//! let session = generate_session("MSNFS", &entry.profile, 400, 11);
//! let mut old_node = presets::enterprise_hdd_2007();
//! let old = session.materialize(&mut old_node, false).trace;
//!
//! // Software evaluation: recover the timing model, split the gaps.
//! let result = infer(&old, &InferenceConfig::default());
//! let decomp = Decomposition::compute(&old, &result.estimate);
//! assert_eq!(decomp.len(), old.len());
//!
//! // Hardware co-evaluation: revive the trace on an all-flash array.
//! let mut new_node = presets::intel_750_array();
//! let revived = TraceTracker::new().reconstruct(&old, &mut new_node);
//! assert_eq!(revived.len(), old.len());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod inference;
mod reconstruct;
pub mod report;
mod verify;

pub use inference::{
    infer, Decomposition, DeltaEstimator, DeviceEstimate, GroupAnalysis, InferenceConfig,
    InferenceResult, InterpolationKind, OpFallback, OpInference,
};
pub use reconstruct::{
    Acceleration, Dynamic, FixedThreshold, Reconstructor, Revision, TraceTracker,
};
pub use verify::{verify_injection, InjectionVerification, VerifyConfig};
