//! Clock frequency.

use std::fmt;
use std::ops::{Add, Sub};

/// A clock frequency in megahertz.
///
/// # Examples
///
/// ```
/// use uniserver_units::Megahertz;
///
/// let f = Megahertz::from_ghz(4.0);
/// assert_eq!(f.as_mhz(), 4000.0);
/// assert_eq!(f.scaled(0.5).as_ghz(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Megahertz(f64);

impl Megahertz {
    /// Creates a frequency from a value in MHz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is negative, NaN or infinite.
    #[must_use]
    pub fn new(mhz: f64) -> Self {
        assert!(mhz.is_finite() && mhz >= 0.0, "frequency must be finite and non-negative, got {mhz}");
        Megahertz(mhz)
    }

    /// Creates a frequency from a value in GHz.
    #[must_use]
    pub fn from_ghz(ghz: f64) -> Self {
        Megahertz::new(ghz * 1000.0)
    }

    /// Returns the value in MHz.
    #[must_use]
    pub fn as_mhz(self) -> f64 {
        self.0
    }

    /// Returns the value in GHz.
    #[must_use]
    pub fn as_ghz(self) -> f64 {
        self.0 / 1000.0
    }

    /// Returns the value in Hz.
    #[must_use]
    pub fn as_hz(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns this frequency multiplied by a dimensionless factor.
    ///
    /// # Panics
    ///
    /// Panics if the result would be negative or non-finite.
    #[must_use]
    pub fn scaled(self, factor: f64) -> Self {
        Megahertz::new(self.0 * factor)
    }

    /// Number of clock cycles elapsed over `seconds` at this frequency.
    #[must_use]
    pub fn cycles_in(self, seconds: crate::Seconds) -> f64 {
        self.as_hz() * seconds.as_secs()
    }
}

impl Default for Megahertz {
    fn default() -> Self {
        Megahertz(0.0)
    }
}

impl fmt::Display for Megahertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1000.0 {
            write!(f, "{:.2} GHz", self.as_ghz())
        } else {
            write!(f, "{:.0} MHz", self.0)
        }
    }
}

impl Add for Megahertz {
    type Output = Megahertz;

    fn add(self, rhs: Megahertz) -> Megahertz {
        Megahertz::new(self.0 + rhs.0)
    }
}

impl Sub for Megahertz {
    type Output = Megahertz;

    /// # Panics
    ///
    /// Panics if the result would be negative.
    fn sub(self, rhs: Megahertz) -> Megahertz {
        Megahertz::new(self.0 - rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Seconds;

    #[test]
    fn ghz_conversion() {
        let f = Megahertz::from_ghz(2.6);
        assert!((f.as_mhz() - 2600.0).abs() < 1e-9);
        assert!((f.as_ghz() - 2.6).abs() < 1e-12);
        assert_eq!(f.as_hz(), 2.6e9);
    }

    #[test]
    fn cycles_in_window() {
        let f = Megahertz::from_ghz(1.0);
        assert_eq!(f.cycles_in(Seconds::new(2.0)), 2e9);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Megahertz::new(800.0).to_string(), "800 MHz");
        assert_eq!(Megahertz::from_ghz(4.0).to_string(), "4.00 GHz");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_frequency_panics() {
        let _ = Megahertz::new(-1.0);
    }
}
