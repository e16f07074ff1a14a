//! Timing inference for I/O subsystems (paper §III-§IV).
//!
//! Recovers the paper's linear device model from an old block trace's
//! inter-arrival times, then splits every gap into
//! `Tslat = Tcdel + Tsdev` and `Tidle`.

mod decompose;
mod estimate;
mod infer;

pub use decompose::Decomposition;
pub use estimate::DeviceEstimate;
pub use infer::{
    infer, DeltaEstimator, GroupAnalysis, InferenceConfig, InferenceResult, InterpolationKind,
    OpFallback, OpInference,
};
