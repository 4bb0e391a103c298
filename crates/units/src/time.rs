//! Time intervals.

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A non-negative time interval in seconds.
///
/// Used for simulation windows, DRAM refresh intervals and latency budgets.
///
/// # Examples
///
/// ```
/// use uniserver_units::Seconds;
///
/// let nominal_refresh = Seconds::from_millis(64.0);
/// let relaxed = nominal_refresh * 78.0; // the paper's extreme point
/// assert!((relaxed.as_secs() - 4.992).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Seconds(f64);

impl Seconds {
    /// The zero-length interval.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Creates an interval from a value in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN or infinite.
    #[must_use]
    pub fn new(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "interval must be finite and non-negative, got {s}");
        Seconds(s)
    }

    /// Creates an interval from milliseconds.
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Seconds::new(ms / 1e3)
    }

    /// Creates an interval from microseconds.
    #[must_use]
    pub fn from_micros(us: f64) -> Self {
        Seconds::new(us / 1e6)
    }

    /// Returns the value in seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the value in milliseconds.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the value in microseconds.
    #[must_use]
    pub(crate) fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns `self / other`, the dimensionless ratio of two intervals.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    #[must_use]
    pub fn ratio_to(self, other: Seconds) -> f64 {
        assert!(other.0 > 0.0, "cannot take ratio to a zero interval");
        self.0 / other.0
    }

    /// Saturating subtraction clamping at zero.
    #[must_use]
    pub fn saturating_sub(self, rhs: Seconds) -> Self {
        Seconds((self.0 - rhs.0).max(0.0))
    }

    /// Returns the smaller of two intervals.
    #[must_use]
    pub fn min(self, other: Seconds) -> Self {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two intervals.
    #[must_use]
    pub fn max(self, other: Seconds) -> Self {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Default for Seconds {
    fn default() -> Self {
        Seconds::ZERO
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.2} s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.1} ms", self.as_millis())
        } else {
            write!(f, "{:.1} µs", self.as_micros())
        }
    }
}

impl Add for Seconds {
    type Output = Seconds;

    fn add(self, rhs: Seconds) -> Seconds {
        Seconds::new(self.0 + rhs.0)
    }
}

impl Sub for Seconds {
    type Output = Seconds;

    /// # Panics
    ///
    /// Panics if the result would be negative; use
    /// [`Seconds::saturating_sub`] when undershoot is expected.
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds::new(self.0 - rhs.0)
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;

    /// # Panics
    ///
    /// Panics if the result would be negative or non-finite.
    fn mul(self, rhs: f64) -> Seconds {
        Seconds::new(self.0 * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let t = Seconds::from_millis(64.0);
        assert!((t.as_secs() - 0.064).abs() < 1e-12);
        assert!((t.as_millis() - 64.0).abs() < 1e-9);
        assert!((Seconds::from_micros(1500.0).as_millis() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn refresh_relaxation_ratio() {
        let nominal = Seconds::from_millis(64.0);
        let relaxed = Seconds::new(5.0);
        assert!((relaxed.ratio_to(nominal) - 78.125).abs() < 1e-9);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Seconds::new(1.5).to_string(), "1.50 s");
        assert_eq!(Seconds::from_millis(64.0).to_string(), "64.0 ms");
        assert_eq!(Seconds::from_micros(12.0).to_string(), "12.0 µs");
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(Seconds::new(1.0).saturating_sub(Seconds::new(2.0)), Seconds::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_interval_panics() {
        let _ = Seconds::new(-1.0);
    }
}
