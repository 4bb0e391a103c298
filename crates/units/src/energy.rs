//! Power and energy.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

use crate::Seconds;

/// Electrical power in watts.
///
/// # Examples
///
/// ```
/// use uniserver_units::{Watts, Seconds};
///
/// let sustained = Watts::new(30.0);
/// let energy = sustained * Seconds::new(3600.0);
/// assert_eq!(energy.as_joules(), 108_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Watts(f64);

impl Watts {
    /// The zero power.
    pub const ZERO: Watts = Watts(0.0);

    /// Creates a power from a value in watts.
    ///
    /// # Panics
    ///
    /// Panics if `w` is negative, NaN or infinite.
    #[must_use]
    pub fn new(w: f64) -> Self {
        assert!(w.is_finite() && w >= 0.0, "power must be finite and non-negative, got {w}");
        Watts(w)
    }

    /// Creates a power from milliwatts.
    #[must_use]
    pub fn from_milliwatts(mw: f64) -> Self {
        Watts::new(mw / 1e3)
    }

    /// Returns the value in watts.
    #[must_use]
    pub fn as_watts(self) -> f64 {
        self.0
    }

    /// Returns the value in milliwatts.
    #[must_use]
    pub(crate) fn as_milliwatts(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns this power multiplied by a dimensionless factor.
    ///
    /// # Panics
    ///
    /// Panics if the result would be negative or non-finite.
    #[must_use]
    pub fn scaled(self, factor: f64) -> Self {
        Watts::new(self.0 * factor)
    }
}

impl Default for Watts {
    fn default() -> Self {
        Watts::ZERO
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1.0 {
            write!(f, "{:.1} mW", self.as_milliwatts())
        } else {
            write!(f, "{:.2} W", self.0)
        }
    }
}

impl Add for Watts {
    type Output = Watts;

    fn add(self, rhs: Watts) -> Watts {
        Watts::new(self.0 + rhs.0)
    }
}

impl Sub for Watts {
    type Output = Watts;

    /// # Panics
    ///
    /// Panics if the result would be negative.
    fn sub(self, rhs: Watts) -> Watts {
        Watts::new(self.0 - rhs.0)
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;

    fn mul(self, rhs: Seconds) -> Joules {
        Joules::new(self.0 * rhs.as_secs())
    }
}

/// Energy in joules.
///
/// Produced by integrating [`Watts`] over [`Seconds`].
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Joules(f64);

impl Joules {
    /// The zero energy.
    pub const ZERO: Joules = Joules(0.0);

    /// Creates an energy from a value in joules.
    ///
    /// # Panics
    ///
    /// Panics if `j` is negative, NaN or infinite.
    #[must_use]
    pub fn new(j: f64) -> Self {
        assert!(j.is_finite() && j >= 0.0, "energy must be finite and non-negative, got {j}");
        Joules(j)
    }

    /// Returns the value in joules.
    #[must_use]
    pub fn as_joules(self) -> f64 {
        self.0
    }

    /// Returns the value in kilowatt-hours.
    #[must_use]
    pub(crate) fn as_kwh(self) -> f64 {
        self.0 / 3.6e6
    }

    /// Returns this energy multiplied by a dimensionless factor.
    ///
    /// # Panics
    ///
    /// Panics if the result would be negative or non-finite.
    #[must_use]
    pub fn scaled(self, factor: f64) -> Self {
        Joules::new(self.0 * factor)
    }
}

impl Default for Joules {
    fn default() -> Self {
        Joules::ZERO
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 3.6e6 {
            write!(f, "{:.2} kWh", self.as_kwh())
        } else {
            write!(f, "{:.2} J", self.0)
        }
    }
}

impl Add for Joules {
    type Output = Joules;

    fn add(self, rhs: Joules) -> Joules {
        Joules::new(self.0 + rhs.0)
    }
}

impl Sub for Joules {
    type Output = Joules;

    /// # Panics
    ///
    /// Panics if the result would be negative.
    fn sub(self, rhs: Joules) -> Joules {
        Joules::new(self.0 - rhs.0)
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;

    /// Average power over an interval.
    ///
    /// # Panics
    ///
    /// Panics if the interval is zero.
    fn div(self, rhs: Seconds) -> Watts {
        assert!(rhs.as_secs() > 0.0, "cannot average energy over a zero interval");
        Watts::new(self.0 / rhs.as_secs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts::new(75.0) * Seconds::new(10.0);
        assert_eq!(e.as_joules(), 750.0);
        assert_eq!(e / Seconds::new(10.0), Watts::new(75.0));
    }

    #[test]
    fn watt_hours() {
        let e = Watts::new(1000.0) * Seconds::new(3600.0);
        assert!((e.as_kwh() - 1.0).abs() < 1e-12);
        assert_eq!(e.to_string(), "1.00 kWh");
    }

    #[test]
    fn display_small_power() {
        assert_eq!(Watts::from_milliwatts(120.0).to_string(), "120.0 mW");
        assert_eq!(Watts::new(15.0).to_string(), "15.00 W");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_power_panics() {
        let _ = Watts::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "zero interval")]
    fn zero_interval_average_panics() {
        let _ = Joules::new(1.0) / Seconds::ZERO;
    }
}
