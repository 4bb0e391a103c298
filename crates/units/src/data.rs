//! Data sizes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Sub};

/// A data size in bytes.
///
/// # Examples
///
/// ```
/// use uniserver_units::Bytes;
///
/// let dimm = Bytes::gib(8);
/// assert_eq!(dimm.as_u64(), 8 * 1024 * 1024 * 1024);
/// assert_eq!(dimm.bits(), dimm.as_u64() * 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// The zero size.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a size from a raw byte count.
    #[must_use]
    pub const fn new(bytes: u64) -> Self {
        Bytes(bytes)
    }

    /// Creates a size in kibibytes.
    #[must_use]
    pub const fn kib(n: u64) -> Self {
        Bytes(n * 1024)
    }

    /// Creates a size in mebibytes.
    #[must_use]
    pub const fn mib(n: u64) -> Self {
        Bytes(n * 1024 * 1024)
    }

    /// Creates a size in gibibytes.
    #[must_use]
    pub const fn gib(n: u64) -> Self {
        Bytes(n * 1024 * 1024 * 1024)
    }

    /// Returns the raw byte count.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the size in bits.
    #[must_use]
    pub const fn bits(self) -> u64 {
        self.0 * 8
    }

    /// Returns the size in mebibytes as a float.
    #[must_use]
    pub(crate) fn as_mib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Returns the size in gibibytes as a float.
    #[must_use]
    pub fn as_gib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Saturating subtraction clamping at zero.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub const fn checked_add(self, rhs: Bytes) -> Option<Bytes> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Bytes(v)),
            None => None,
        }
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const GIB: u64 = 1024 * 1024 * 1024;
        const MIB: u64 = 1024 * 1024;
        const KIB: u64 = 1024;
        if self.0 >= GIB {
            write!(f, "{:.2} GiB", self.as_gib())
        } else if self.0 >= MIB {
            write!(f, "{:.2} MiB", self.as_mib())
        } else if self.0 >= KIB {
            write!(f, "{:.1} KiB", self.0 as f64 / 1024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

impl Add for Bytes {
    type Output = Bytes;

    /// # Panics
    ///
    /// Panics on overflow in debug builds (standard integer semantics).
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl Sub for Bytes {
    type Output = Bytes;

    /// # Panics
    ///
    /// Panics on underflow; use [`Bytes::saturating_sub`] when the order of
    /// operands is not guaranteed.
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Bytes::kib(1), Bytes::new(1024));
        assert_eq!(Bytes::mib(1), Bytes::new(1024 * 1024));
        assert_eq!(Bytes::gib(8).as_gib(), 8.0);
    }

    #[test]
    fn bits_of_a_dimm() {
        assert_eq!(Bytes::gib(8).bits(), 68_719_476_736);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Bytes = (1..=4).map(Bytes::gib).sum();
        assert_eq!(total, Bytes::gib(10));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Bytes::new(512).to_string(), "512 B");
        assert_eq!(Bytes::kib(2).to_string(), "2.0 KiB");
        assert_eq!(Bytes::mib(3).to_string(), "3.00 MiB");
        assert_eq!(Bytes::gib(8).to_string(), "8.00 GiB");
    }

    #[test]
    fn saturating_and_checked() {
        assert_eq!(Bytes::new(1).saturating_sub(Bytes::new(5)), Bytes::ZERO);
        assert_eq!(Bytes::new(u64::MAX).checked_add(Bytes::new(1)), None);
    }
}
