//! Virtual time types.
//!
//! The simulator keeps time as an integer number of microseconds.  Integer
//! time gives the event queue a total order (no NaN), makes runs bit-exact
//! reproducible across platforms, and is precise enough for the paper's
//! scenario (block transfers lasting hundreds of seconds).

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use serde::{Deserialize, Serialize};

const MICROS_PER_SEC: u64 = 1_000_000;

/// A point in virtual time, measured from the start of the simulation.
///
/// `SimTime` is an absolute instant; the difference of two instants is a
/// [`SimDuration`].
///
/// # Example
///
/// ```
/// use des::{SimDuration, SimTime};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_secs_f64(1.5);
/// assert_eq!((t1 - t0).as_secs_f64(), 1.5);
/// assert!(t1 > t0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of virtual time (the difference of two [`SimTime`] instants).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable instant; useful as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from whole microseconds since the simulation start.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant from (possibly fractional) seconds since the start.
    /// An instant past the clock's range (about 584,000 years), `+∞`
    /// included, saturates to [`SimTime::MAX`], which no horizon reaches.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or NaN.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_micros(secs))
    }

    /// Microseconds since the simulation start.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the simulation start as a floating point number.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Minutes since the simulation start, the unit the paper's figures use.
    #[must_use]
    pub fn as_minutes_f64(self) -> f64 {
        self.as_secs_f64() / 60.0
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// actually later than `self`.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration, `None` on overflow.
    #[must_use]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from whole microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from (possibly fractional) seconds.  A duration
    /// past the clock's range, `+∞` included, saturates to
    /// [`SimDuration::MAX`].
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or NaN.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_micros(secs))
    }

    /// Creates a duration from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * MICROS_PER_SEC)
    }

    /// The duration in whole microseconds.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in seconds as a floating point number.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// The duration in minutes, the unit the paper's figures use.
    #[must_use]
    pub fn as_minutes_f64(self) -> f64 {
        self.as_secs_f64() / 60.0
    }

    /// Multiplies the duration by a non-negative scalar.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN, or the result overflows.
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration scale factor must be finite and non-negative, got {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

fn secs_to_micros(secs: f64) -> u64 {
    assert!(
        secs >= 0.0,
        "simulated seconds must be non-negative, got {secs}"
    );
    // A float-to-integer `as` cast saturates: anything past the clock's
    // range becomes `u64::MAX`.
    (secs * MICROS_PER_SEC as f64).round() as u64
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        assert!(
            self.0 >= rhs.0,
            "cannot subtract a later SimTime from an earlier one ({self:?} - {rhs:?})"
        );
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        assert!(self.0 >= rhs.0, "duration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        assert!(self.0 >= rhs.0, "duration subtraction underflow");
        self.0 -= rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl From<SimDuration> for SimTime {
    fn from(d: SimDuration) -> Self {
        SimTime(d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(SimDuration::default(), SimDuration::ZERO);
    }

    #[test]
    fn seconds_round_trip() {
        let t = SimTime::from_secs_f64(123.456789);
        assert!((t.as_secs_f64() - 123.456789).abs() < 1e-6);
    }

    #[test]
    fn arithmetic() {
        let t0 = SimTime::from_secs_f64(10.0);
        let d = SimDuration::from_secs_f64(2.5);
        let t1 = t0 + d;
        assert_eq!(t1 - t0, d);
        assert_eq!(t1.as_secs_f64(), 12.5);
    }

    #[test]
    fn minutes_conversion() {
        let d = SimDuration::from_secs(120);
        assert_eq!(d.as_minutes_f64(), 2.0);
    }

    #[test]
    fn saturating_since_is_zero_for_future_reference() {
        let early = SimTime::from_secs_f64(1.0);
        let late = SimTime::from_secs_f64(5.0);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(4));
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_seconds_panic() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "later SimTime")]
    fn time_subtraction_underflow_panics() {
        let _ = SimTime::from_secs_f64(1.0) - SimTime::from_secs_f64(2.0);
    }

    #[test]
    fn ordering_matches_micros() {
        assert!(SimTime::from_micros(5) < SimTime::from_micros(6));
        assert!(SimTime::MAX > SimTime::from_secs_f64(1e12));
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_secs_f64(1.5).to_string(), "1.500s");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn times_past_the_clock_saturate() {
        for secs in [1e13 * 2.0, 1e300, f64::MAX, f64::INFINITY] {
            assert_eq!(SimTime::from_secs_f64(secs), SimTime::MAX);
            assert_eq!(SimDuration::from_secs_f64(secs), SimDuration::MAX);
        }
        let mut t = SimTime::from_secs_f64(600.0) + SimDuration::MAX;
        t += SimDuration::from_secs(1);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_micros(1))
            .is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_secs(1)),
            Some(SimTime::from_secs_f64(1.0))
        );
    }
}
