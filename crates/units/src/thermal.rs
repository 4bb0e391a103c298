//! Temperature.

use std::fmt;
use std::ops::{Add, Sub};

/// A temperature in degrees Celsius.
///
/// Unlike the other quantities, temperatures may be negative (cold aisles
/// exist), but are bounded to a physically plausible range for silicon.
///
/// # Examples
///
/// ```
/// use uniserver_units::Celsius;
///
/// let ambient = Celsius::new(25.0);
/// let hot = ambient + Celsius::new(40.0);
/// assert_eq!(hot.as_celsius(), 65.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Celsius(f64);

impl Celsius {
    /// Lowest representable temperature (liquid-nitrogen territory).
    pub const MIN: Celsius = Celsius(-200.0);
    /// Highest representable temperature (beyond any junction limit).
    pub(crate) const MAX: Celsius = Celsius(300.0);

    /// Creates a temperature in °C.
    ///
    /// # Panics
    ///
    /// Panics if `c` is NaN/infinite or outside [`Celsius::MIN`],
    /// 300 °C.
    #[must_use]
    pub fn new(c: f64) -> Self {
        assert!(
            c.is_finite() && (Self::MIN.0..=Self::MAX.0).contains(&c),
            "temperature must be finite and within [-200, 300] °C, got {c}"
        );
        Celsius(c)
    }

    /// Returns the value in °C.
    #[must_use]
    pub fn as_celsius(self) -> f64 {
        self.0
    }

    /// Degrees of `self` above `reference`; negative when below.
    #[must_use]
    pub fn delta_above(self, reference: Celsius) -> f64 {
        self.0 - reference.0
    }
}

impl Default for Celsius {
    /// Room temperature, 25 °C.
    fn default() -> Self {
        Celsius(25.0)
    }
}

impl fmt::Display for Celsius {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} °C", self.0)
    }
}

impl Add for Celsius {
    type Output = Celsius;

    /// Adds a temperature *delta* (interpreting the right operand as a
    /// difference in degrees).
    ///
    /// # Panics
    ///
    /// Panics if the result leaves the representable range.
    fn add(self, rhs: Celsius) -> Celsius {
        Celsius::new(self.0 + rhs.0)
    }
}

impl Sub for Celsius {
    type Output = Celsius;

    /// # Panics
    ///
    /// Panics if the result leaves the representable range.
    fn sub(self, rhs: Celsius) -> Celsius {
        Celsius::new(self.0 - rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_above_reference() {
        let t = Celsius::new(85.0);
        assert_eq!(t.delta_above(Celsius::new(25.0)), 60.0);
    }

    #[test]
    fn default_is_room_temperature() {
        assert_eq!(Celsius::default(), Celsius::new(25.0));
    }

    #[test]
    #[should_panic(expected = "within")]
    fn out_of_range_panics() {
        let _ = Celsius::new(400.0);
    }

    #[test]
    fn display_format() {
        assert_eq!(Celsius::new(65.25).to_string(), "65.2 °C");
    }
}
