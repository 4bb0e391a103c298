//! Dimensionless quantities: ratios, percentages and bit-error rates.

use std::fmt;
use std::ops::Mul;

/// A dimensionless ratio, typically in `[0, 1]` but allowed to exceed 1 for
/// improvement factors (e.g. a 36× energy-efficiency gain).
///
/// # Examples
///
/// ```
/// use uniserver_units::Ratio;
///
/// let guardband = Ratio::from_percent(20.0);
/// assert_eq!(guardband.value(), 0.20);
/// let stacked = guardband * Ratio::new(0.5);
/// assert_eq!(stacked.as_percent(), 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Ratio(f64);

impl Ratio {
    /// The zero ratio.
    pub const ZERO: Ratio = Ratio(0.0);

    /// Creates a ratio from a raw value.
    ///
    /// # Panics
    ///
    /// Panics if `r` is negative, NaN or infinite.
    #[must_use]
    pub fn new(r: f64) -> Self {
        assert!(r.is_finite() && r >= 0.0, "ratio must be finite and non-negative, got {r}");
        Ratio(r)
    }

    /// Creates a ratio from a percentage (`20.0` → `0.20`).
    #[must_use]
    pub fn from_percent(pct: f64) -> Self {
        Ratio::new(pct / 100.0)
    }

    /// Returns the raw value.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Returns the value as a percentage.
    #[must_use]
    pub fn as_percent(self) -> f64 {
        self.0 * 100.0
    }

    /// Returns the complement `1 - self`.
    ///
    /// # Panics
    ///
    /// Panics if `self > 1`, for which the complement is undefined here.
    #[must_use]
    pub fn complement(self) -> Ratio {
        assert!(self.0 <= 1.0, "complement undefined for ratios above 1, got {}", self.0);
        Ratio(1.0 - self.0)
    }
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::ZERO
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 > 1.0 {
            write!(f, "{:.2}×", self.0)
        } else {
            write!(f, "{:.1} %", self.as_percent())
        }
    }
}

impl Mul for Ratio {
    type Output = Ratio;

    fn mul(self, rhs: Ratio) -> Ratio {
        Ratio::new(self.0 * rhs.0)
    }
}

/// A bit-error rate: errors per bit, a very small non-negative number.
///
/// Stored as a raw probability; helper constructors accept the customary
/// `1e-x` notation. The paper's targets: commercial DRAM aims below ~1e-9,
/// SECDED ECC copes with raw rates up to ~1e-6.
///
/// # Examples
///
/// ```
/// use uniserver_units::BitErrorRate;
///
/// let measured = BitErrorRate::new(0.8e-9);
/// assert!(measured.is_correctable_by_secded());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct BitErrorRate(f64);

impl BitErrorRate {
    /// Zero errors.
    pub const ZERO: BitErrorRate = BitErrorRate(0.0);
    /// The maximum raw BER classical SECDED ECC can absorb (paper §6.B,
    /// ref \[27\]): 1e-6.
    pub const SECDED_LIMIT: BitErrorRate = BitErrorRate(1e-6);

    /// Creates a BER from a raw per-bit error probability.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is negative, above 1, NaN or infinite.
    #[must_use]
    pub fn new(ber: f64) -> Self {
        assert!(
            ber.is_finite() && (0.0..=1.0).contains(&ber),
            "bit-error rate must be a probability in [0, 1], got {ber}"
        );
        BitErrorRate(ber)
    }

    /// Computes a BER from an error count over a number of bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    #[must_use]
    pub fn from_counts(errors: u64, bits: u64) -> Self {
        assert!(bits > 0, "cannot compute a BER over zero bits");
        BitErrorRate::new(errors as f64 / bits as f64)
    }

    /// Returns the raw probability.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Whether classical SECDED ECC can be expected to correct this raw
    /// rate (paper §6.B).
    #[must_use]
    pub fn is_correctable_by_secded(self) -> bool {
        self <= Self::SECDED_LIMIT
    }
}

impl Default for BitErrorRate {
    fn default() -> Self {
        BitErrorRate::ZERO
    }
}

impl fmt::Display for BitErrorRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 0.0 {
            write!(f, "0")
        } else {
            write!(f, "{:.2e}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_roundtrip() {
        let r = Ratio::from_percent(15.0);
        assert!((r.value() - 0.15).abs() < 1e-12);
        assert!((r.as_percent() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn complement_of_guardband() {
        let g = Ratio::from_percent(30.0);
        assert!((g.complement().value() - 0.70).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "complement undefined")]
    fn complement_above_one_panics() {
        let _ = Ratio::new(36.0).complement();
    }

    #[test]
    fn improvement_factor_display() {
        assert_eq!(Ratio::new(36.0).to_string(), "36.00×");
        assert_eq!(Ratio::new(0.05).to_string(), "5.0 %");
    }

    #[test]
    fn ber_thresholds() {
        assert!(BitErrorRate::new(5e-8).is_correctable_by_secded());
        assert!(!BitErrorRate::new(5e-5).is_correctable_by_secded());
    }

    #[test]
    fn ber_from_counts() {
        // 64 errors over an 8 GiB module.
        let bits = 8 * 1024 * 1024 * 1024u64 * 8;
        let ber = BitErrorRate::from_counts(64, bits);
        assert!(ber.value() > 0.0 && ber.value() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero bits")]
    fn ber_zero_bits_panics() {
        let _ = BitErrorRate::from_counts(1, 0);
    }

    #[test]
    fn ber_display() {
        assert_eq!(BitErrorRate::ZERO.to_string(), "0");
        assert_eq!(BitErrorRate::new(1e-9).to_string(), "1.00e-9");
    }
}
