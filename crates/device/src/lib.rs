#![forbid(unsafe_code)]
//! # tt-device — storage device models
//!
//! Deterministic simulators for every storage device the TraceTracker paper
//! touches:
//!
//! * [`HddDevice`] — mechanistic disk (seek curve, rotational position,
//!   track buffer): the OLD node the original traces were collected on, and
//!   the instrument for the paper's `Tmovd` measurements;
//! * [`FlashSsd`] / [`FlashArray`] — channel/die/plane resource model of an
//!   NVMe SSD and the paper's 4-drive all-flash evaluation array;
//! * [`LinearDevice`] — the paper's *inferred* linear model
//!   (`Tsdev = β·size + Tmovd`) run forward, for closed-loop validation of
//!   the inference;
//! * [`presets`] — ready-made instances matching the paper's hardware;
//! * [`FaultyDevice`] — a wrapper applying a deterministic, seeded
//!   [`FaultPlan`] (latency spikes, throttling windows, transient errors,
//!   stalls) to any of the above.
//!
//! All models implement [`BlockDevice`] and return a [`ServiceOutcome`]
//! decomposed exactly the way the paper decomposes latency:
//! `Tslat = Tcdel + Tsdev`, plus explicit queueing. Every shipped model
//! also exposes the optional bound methods
//! ([`BlockDevice::service_bound`], [`BlockDevice::busy_bound`],
//! [`BlockDevice::fast_forward`]) behind `tt_sim::quiescent_cuts`.
//!
//! ## Example
//!
//! ```
//! use tt_device::{presets, BlockDevice, IoRequest};
//! use tt_trace::{time::SimInstant, OpType};
//!
//! let mut old_node = presets::enterprise_hdd_2007();
//! let mut new_node = presets::intel_750_array();
//!
//! let req = IoRequest::new(OpType::Read, 123_456_789, 8);
//! let old = old_node.service(&req, SimInstant::ZERO);
//! let new = new_node.service(&req, SimInstant::ZERO);
//!
//! // A decade of storage progress:
//! assert!(old.slat().as_nanos() > 10 * new.slat().as_nanos());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod device;
pub mod faults;
mod hdd;
mod linear;
pub mod presets;
mod request;
mod ssd;

pub use device::{BlockDevice, ServiceFault};
pub use faults::{FaultPlan, FaultyDevice};
pub use hdd::{HddConfig, HddDevice};
pub use linear::{LinearDevice, LinearDeviceConfig};
pub use request::{IoRequest, ServiceOutcome};
pub use ssd::{FlashArray, FlashConfig, FlashSsd};
