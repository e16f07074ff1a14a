//! The inferred device model (paper §III).

use serde::Serialize;

use tt_trace::time::SimDuration;
use tt_trace::{OpType, Sequentiality};

/// The paper's linear storage model, as recovered by the inference:
///
/// ```text
/// Tsdev = β·size            (sequential read)
///       = η·size            (sequential write)
///       = β·size + Tmovd    (random read)
///       = η·size + Tmovd    (random write)
/// Tslat = Tcdel(op) + Tsdev
/// ```
///
/// # Examples
///
/// ```
/// use tt_core::DeviceEstimate;
/// use tt_trace::{time::SimDuration, OpType, Sequentiality};
///
/// let est = DeviceEstimate {
///     beta_ns_per_sector: 1_000.0,
///     eta_ns_per_sector: 2_000.0,
///     tcdel_read: SimDuration::from_usecs(10),
///     tcdel_write: SimDuration::from_usecs(12),
///     tmovd: SimDuration::from_msecs(5),
/// };
/// let slat = est.tslat(OpType::Read, 8, Sequentiality::Sequential);
/// assert_eq!(slat, SimDuration::from_usecs(18)); // 10 + 8*1us
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DeviceEstimate {
    /// Read service time per sector (β), nanoseconds.
    pub beta_ns_per_sector: f64,
    /// Write service time per sector (η), nanoseconds.
    pub eta_ns_per_sector: f64,
    /// Channel delay for reads.
    pub tcdel_read: SimDuration,
    /// Channel delay for writes.
    pub tcdel_write: SimDuration,
    /// Moving delay added to random accesses (seek + rotation on disks).
    pub tmovd: SimDuration,
}

impl DeviceEstimate {
    /// The per-sector coefficient for `op` (β or η), nanoseconds.
    #[must_use]
    pub fn coeff_ns(&self, op: OpType) -> f64 {
        match op {
            OpType::Read => self.beta_ns_per_sector,
            OpType::Write => self.eta_ns_per_sector,
        }
    }

    /// The channel delay for `op`.
    #[must_use]
    pub fn tcdel(&self, op: OpType) -> SimDuration {
        match op {
            OpType::Read => self.tcdel_read,
            OpType::Write => self.tcdel_write,
        }
    }

    /// Modelled device time `Tsdev` for a request.
    #[must_use]
    pub fn tsdev(&self, op: OpType, sectors: u32, seq: Sequentiality) -> SimDuration {
        let linear = SimDuration::from_nanos(
            (self.coeff_ns(op) * f64::from(sectors)).round().max(0.0) as u64,
        );
        match seq {
            Sequentiality::Sequential => linear,
            Sequentiality::Random => linear + self.tmovd,
        }
    }

    /// Modelled I/O subsystem latency `Tslat = Tcdel + Tsdev`.
    #[must_use]
    pub fn tslat(&self, op: OpType, sectors: u32, seq: Sequentiality) -> SimDuration {
        self.tcdel(op) + self.tsdev(op, sectors, seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimate() -> DeviceEstimate {
        DeviceEstimate {
            beta_ns_per_sector: 500.0,
            eta_ns_per_sector: 1_500.0,
            tcdel_read: SimDuration::from_usecs(5),
            tcdel_write: SimDuration::from_usecs(7),
            tmovd: SimDuration::from_msecs(8),
        }
    }

    #[test]
    fn tsdev_linear_in_size() {
        let e = estimate();
        let small = e.tsdev(OpType::Read, 8, Sequentiality::Sequential);
        let large = e.tsdev(OpType::Read, 80, Sequentiality::Sequential);
        assert_eq!(large, small * 10);
    }

    #[test]
    fn random_adds_tmovd() {
        let e = estimate();
        let seq = e.tsdev(OpType::Write, 16, Sequentiality::Sequential);
        let rand = e.tsdev(OpType::Write, 16, Sequentiality::Random);
        assert_eq!(rand, seq + SimDuration::from_msecs(8));
    }

    #[test]
    fn per_op_parameters_used() {
        let e = estimate();
        assert_eq!(e.coeff_ns(OpType::Read), 500.0);
        assert_eq!(e.coeff_ns(OpType::Write), 1_500.0);
        assert_eq!(e.tcdel(OpType::Read), SimDuration::from_usecs(5));
        assert_eq!(e.tcdel(OpType::Write), SimDuration::from_usecs(7));
    }

    #[test]
    fn tslat_is_cdel_plus_tsdev() {
        let e = estimate();
        assert_eq!(
            e.tslat(OpType::Read, 8, Sequentiality::Random),
            e.tcdel_read + e.tsdev(OpType::Read, 8, Sequentiality::Random)
        );
    }

    #[test]
    fn negative_coeff_clamps_to_zero() {
        let mut e = estimate();
        e.beta_ns_per_sector = -10.0;
        assert_eq!(
            e.tsdev(OpType::Read, 8, Sequentiality::Sequential),
            SimDuration::ZERO
        );
    }
}
