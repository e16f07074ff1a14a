//! Simulation time newtypes.
//!
//! All timing in the workspace is carried by two newtypes over `u64`
//! nanoseconds: [`SimInstant`] (a point on the simulation clock) and
//! [`SimDuration`] (a span between two instants). Keeping them distinct makes
//! the decomposition arithmetic of the paper (`Tintt = Tslat + Tidle`)
//! type-checked: an instant minus an instant is a duration, an instant plus a
//! duration is an instant, and nothing else compiles.
//!
//! Nanosecond resolution comfortably covers the paper's range: channel delays
//! are a few microseconds, idle periods run to hundreds of seconds, and
//! `u64` nanoseconds wraps only after ~584 years of simulated time.
//!
//! # Examples
//!
//! ```
//! use tt_trace::time::{SimDuration, SimInstant};
//!
//! let issue = SimInstant::from_usecs(10);
//! let complete = issue + SimDuration::from_usecs(150);
//! assert_eq!(complete - issue, SimDuration::from_usecs(150));
//! assert_eq!((complete - issue).as_usecs_f64(), 150.0);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::Serialize;

/// A point in simulated time, in nanoseconds since the simulation epoch.
///
/// `SimInstant` is totally ordered and starts at [`SimInstant::ZERO`]. It is
/// produced by the replay engine and carried on every trace record as the
/// block-layer arrival timestamp.
///
/// # Examples
///
/// ```
/// use tt_trace::time::{SimDuration, SimInstant};
///
/// let t0 = SimInstant::ZERO;
/// let t1 = t0 + SimDuration::from_msecs(2);
/// assert!(t1 > t0);
/// assert_eq!(t1.as_nanos(), 2_000_000);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[serde(transparent)]
#[repr(transparent)]
pub struct SimInstant(u64);

/// A span of simulated time, in nanoseconds.
///
/// Durations are unsigned: subtracting a later instant from an earlier one is
/// a programming error and panics in debug builds. Use
/// [`SimInstant::saturating_since`] when an underflowing difference should
/// clamp to zero (the paper's `Tidle = max(0, Tintt - Tslat)` rule).
///
/// # Examples
///
/// ```
/// use tt_trace::time::SimDuration;
///
/// let slat = SimDuration::from_usecs(120);
/// let intt = SimDuration::from_usecs(500);
/// assert_eq!(intt.saturating_sub(slat), SimDuration::from_usecs(380));
/// assert_eq!(slat.saturating_sub(intt), SimDuration::ZERO);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[serde(transparent)]
pub struct SimDuration(u64);

impl SimInstant {
    /// The simulation epoch.
    pub const ZERO: SimInstant = SimInstant(0);

    /// Creates an instant from raw nanoseconds since the epoch.
    #[must_use]
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimInstant(ns)
    }

    /// Creates an instant from microseconds since the epoch.
    #[must_use]
    #[inline]
    pub const fn from_usecs(us: u64) -> Self {
        SimInstant(us * 1_000)
    }

    /// Creates an instant from milliseconds since the epoch.
    #[must_use]
    #[inline]
    pub const fn from_msecs(ms: u64) -> Self {
        SimInstant(ms * 1_000_000)
    }

    /// Creates an instant from seconds since the epoch.
    #[must_use]
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimInstant(s * 1_000_000_000)
    }

    /// Raw nanoseconds since the epoch.
    #[must_use]
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Reinterprets a slice of raw nanosecond values as instants, without
    /// copying — the typed-view hook the zero-copy TTB mapping
    /// ([`MmapTrace`](crate::format::ttb::MmapTrace)) uses for the arrival
    /// column.
    ///
    /// Sound because `SimInstant` is `#[repr(transparent)]` over `u64` and
    /// every `u64` bit pattern is a valid instant; the returned slice
    /// borrows `nanos` and aliases it immutably.
    #[must_use]
    pub fn slice_from_nanos(nanos: &[u64]) -> &[SimInstant] {
        // SAFETY: #[repr(transparent)] guarantees identical layout and
        // alignment to u64, and SimInstant has no invalid bit patterns.
        unsafe { std::slice::from_raw_parts(nanos.as_ptr().cast::<SimInstant>(), nanos.len()) }
    }

    /// Microseconds since the epoch as a float (lossless below 2^53 ns).
    #[must_use]
    #[inline]
    pub fn as_usecs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since the epoch as a float.
    #[must_use]
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Duration elapsed since `earlier`, clamping to zero if `earlier` is in
    /// the future.
    ///
    /// # Examples
    ///
    /// ```
    /// use tt_trace::time::{SimDuration, SimInstant};
    ///
    /// let a = SimInstant::from_usecs(5);
    /// let b = SimInstant::from_usecs(9);
    /// assert_eq!(b.saturating_since(a), SimDuration::from_usecs(4));
    /// assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    /// ```
    #[must_use]
    #[inline]
    pub fn saturating_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked difference; `None` when `earlier` is actually later.
    #[must_use]
    pub fn checked_since(self, earlier: SimInstant) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// The later of two instants.
    #[must_use]
    #[inline]
    pub fn max(self, other: SimInstant) -> SimInstant {
        SimInstant(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[must_use]
    #[inline]
    pub fn min(self, other: SimInstant) -> SimInstant {
        SimInstant(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Largest representable span; useful as an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    #[must_use]
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    #[must_use]
    #[inline]
    pub const fn from_usecs(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    #[inline]
    pub const fn from_msecs(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    #[must_use]
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        SimDuration((secs * 1_000_000_000.0).round() as u64)
    }

    /// Creates a duration from fractional microseconds, rounding to
    /// nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative or not finite.
    #[must_use]
    #[inline]
    pub fn from_usecs_f64(us: f64) -> Self {
        assert!(
            us.is_finite() && us >= 0.0,
            "duration microseconds must be finite and non-negative, got {us}"
        );
        SimDuration((us * 1_000.0).round() as u64)
    }

    /// Raw nanoseconds.
    #[must_use]
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds as a float.
    #[must_use]
    #[inline]
    pub fn as_usecs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Milliseconds as a float.
    #[must_use]
    #[inline]
    pub fn as_msecs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Seconds as a float.
    #[must_use]
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// `true` when the span is zero.
    #[must_use]
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Difference clamped at zero.
    #[must_use]
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Checked subtraction; `None` on underflow.
    #[must_use]
    pub fn checked_sub(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(other.0).map(SimDuration)
    }

    /// Saturating addition (clamps at [`SimDuration::MAX`]).
    #[must_use]
    #[inline]
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Scales the duration by a non-negative float, rounding to nanoseconds.
    ///
    /// Used by the Acceleration reconstructor (`Tintt / factor`) and by
    /// open-loop replay's time scale. The product rounds through `f64`,
    /// which holds every nanosecond only below 2^53 ns (~104 days), so a
    /// factor of exactly `1.0` returns `self` unrounded: a recorded gap
    /// replays at its exact length however long it is.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    ///
    /// # Examples
    ///
    /// ```
    /// use tt_trace::time::SimDuration;
    ///
    /// let gap = SimDuration::from_nanos((1 << 53) + 1);
    /// assert_eq!(gap.mul_f64(1.0), gap);
    /// assert_eq!(SimDuration::from_nanos(10).mul_f64(0.25).as_nanos(), 3);
    /// ```
    #[must_use]
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        if factor == 1.0 {
            return self;
        }
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// The larger of two durations.
    #[must_use]
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    #[must_use]
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;

    #[inline]
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimInstant {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimInstant {
    type Output = SimInstant;

    #[inline]
    fn sub(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 - rhs.0)
    }
}

impl Sub<SimInstant> for SimInstant {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics on underflow (subtracting a later instant); use
    /// [`SimInstant::saturating_since`] for the clamped form.
    #[inline]
    fn sub(self, rhs: SimInstant) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                // lint:allow(panic) -- documented Sub contract, mirroring std::time::Instant; saturating_since is the non-panicking form
                .expect("instant subtraction underflow: rhs is later than lhs"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics on underflow; use [`SimDuration::saturating_sub`] for the
    /// clamped form.
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                // lint:allow(panic) -- documented Sub contract, mirroring std::time::Duration; saturating_sub is the non-panicking form
                .expect("duration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics when `rhs` is zero.
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    /// Human-oriented rendering with an auto-selected unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.2}us", ns as f64 / 1_000.0)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.2}ms", ns as f64 / 1_000_000.0)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1_000_000_000.0)
        }
    }
}

impl From<std::time::Duration> for SimDuration {
    fn from(d: std::time::Duration) -> Self {
        SimDuration(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }
}

impl From<SimDuration> for std::time::Duration {
    fn from(d: SimDuration) -> Self {
        std::time::Duration::from_nanos(d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_duration_arithmetic_round_trips() {
        let t = SimInstant::from_usecs(100);
        let d = SimDuration::from_usecs(40);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_msecs(1000));
        assert_eq!(SimDuration::from_msecs(1), SimDuration::from_usecs(1000));
        assert_eq!(SimDuration::from_usecs(1), SimDuration::from_nanos(1000));
        assert_eq!(
            SimInstant::from_secs(2),
            SimInstant::from_nanos(2_000_000_000)
        );
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimInstant::from_usecs(5);
        let b = SimInstant::from_usecs(7);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_usecs(2));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn instant_subtraction_panics_on_underflow() {
        let _ = SimInstant::from_usecs(1) - SimInstant::from_usecs(2);
    }

    #[test]
    fn mul_f64_rounds_to_nanos() {
        let d = SimDuration::from_nanos(10);
        assert_eq!(d.mul_f64(0.25), SimDuration::from_nanos(3)); // 2.5 rounds up
        assert_eq!(d.mul_f64(2.0), SimDuration::from_nanos(20));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
        // Factor 1.0 is exact past 2^53 ns, where the f64 product rounds.
        for ns in [(1u64 << 53) + 1, u64::MAX] {
            let d = SimDuration::from_nanos(ns);
            assert_eq!(d.mul_f64(1.0), d);
        }
    }

    #[test]
    fn from_secs_f64_round_trips_within_nanosecond() {
        let d = SimDuration::from_secs_f64(1.234_567_891);
        assert_eq!(d.as_nanos(), 1_234_567_891);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_usecs).sum();
        assert_eq!(total, SimDuration::from_usecs(10));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(120).to_string(), "120ns");
        assert_eq!(SimDuration::from_usecs(7).to_string(), "7.00us");
        assert_eq!(SimDuration::from_msecs(3).to_string(), "3.00ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn std_duration_conversions() {
        let d = SimDuration::from_msecs(5);
        let std: std::time::Duration = d.into();
        assert_eq!(SimDuration::from(std), d);
    }

    #[test]
    fn min_max_behave() {
        let a = SimDuration::from_usecs(1);
        let b = SimDuration::from_usecs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let ta = SimInstant::from_usecs(1);
        let tb = SimInstant::from_usecs(2);
        assert_eq!(ta.max(tb), tb);
        assert_eq!(ta.min(tb), ta);
    }
}
