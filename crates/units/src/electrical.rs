//! Electrical quantities: supply voltage.

use std::fmt;
use std::ops::{Add, Sub};

/// A supply voltage in volts.
///
/// Voltages in this workspace are always non-negative supply rails; the
/// constructor panics on negative or non-finite input so that corrupted
/// model state is caught at the point of creation.
///
/// # Examples
///
/// ```
/// use uniserver_units::Volts;
///
/// let nominal = Volts::new(1.365);
/// let offset = nominal - Volts::from_millivolts(150.0);
/// assert!((offset.as_millivolts() - 1215.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Volts(f64);

impl Volts {
    /// The zero voltage.
    pub const ZERO: Volts = Volts(0.0);

    /// Creates a voltage from a value in volts.
    ///
    /// # Panics
    ///
    /// Panics if `v` is negative, NaN or infinite.
    #[must_use]
    pub fn new(v: f64) -> Self {
        assert!(v.is_finite() && v >= 0.0, "voltage must be finite and non-negative, got {v}");
        Volts(v)
    }

    /// Creates a voltage from a value in millivolts.
    #[must_use]
    pub fn from_millivolts(mv: f64) -> Self {
        Volts::new(mv / 1000.0)
    }

    /// Returns the value in volts.
    #[must_use]
    pub fn as_volts(self) -> f64 {
        self.0
    }

    /// Returns the value in millivolts.
    #[must_use]
    pub fn as_millivolts(self) -> f64 {
        self.0 * 1000.0
    }

    /// Returns this voltage multiplied by a dimensionless factor.
    ///
    /// # Panics
    ///
    /// Panics if the result would be negative or non-finite.
    #[must_use]
    pub fn scaled(self, factor: f64) -> Self {
        Volts::new(self.0 * factor)
    }

    /// Saturating subtraction: returns zero volts instead of panicking when
    /// the subtrahend exceeds `self`.
    #[must_use]
    pub fn saturating_sub(self, rhs: Volts) -> Self {
        Volts((self.0 - rhs.0).max(0.0))
    }

    /// Returns the smaller of two voltages.
    #[must_use]
    pub fn min(self, other: Volts) -> Self {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two voltages.
    #[must_use]
    pub fn max(self, other: Volts) -> Self {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Default for Volts {
    fn default() -> Self {
        Volts::ZERO
    }
}

impl fmt::Display for Volts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 0.1 {
            write!(f, "{:.1} mV", self.as_millivolts())
        } else {
            write!(f, "{:.3} V", self.0)
        }
    }
}

impl Add for Volts {
    type Output = Volts;

    fn add(self, rhs: Volts) -> Volts {
        Volts::new(self.0 + rhs.0)
    }
}

impl Sub for Volts {
    type Output = Volts;

    /// # Panics
    ///
    /// Panics if the result would be negative; use
    /// [`Volts::saturating_sub`] when undershoot is expected.
    fn sub(self, rhs: Volts) -> Volts {
        Volts::new(self.0 - rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        let v = Volts::new(0.844);
        assert_eq!(v.as_volts(), 0.844);
        assert!((v.as_millivolts() - 844.0).abs() < 1e-9);
        assert_eq!(Volts::from_millivolts(844.0), v);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_voltage_panics() {
        let _ = Volts::new(-0.1);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_voltage_panics() {
        let _ = Volts::new(f64::NAN);
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        let a = Volts::new(0.5);
        let b = Volts::new(0.8);
        assert_eq!(a.saturating_sub(b), Volts::ZERO);
        assert_eq!(b.saturating_sub(a), Volts::new(0.30000000000000004));
    }

    #[test]
    fn min_max() {
        let a = Volts::new(0.5);
        let b = Volts::new(0.8);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_switches_units() {
        assert_eq!(Volts::new(1.365).to_string(), "1.365 V");
        assert_eq!(Volts::from_millivolts(15.0).to_string(), "15.0 mV");
    }
}
