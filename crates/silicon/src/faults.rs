//! Fault taxonomy and bit-level fault primitives.
//!
//! Shared vocabulary for every layer that produces or consumes errors:
//! the platform's machine-check reporting, the HealthLog's error records,
//! the hypervisor's masking logic and the fault-injection campaigns.

use rand::Rng;

/// Where a fault physically originated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// SRAM (cache) cell upset or low-voltage read failure.
    CacheBit,
    /// DRAM retention failure or particle strike.
    DramBit,
    /// Core logic timing violation (undervolted pipeline).
    CoreLogic,
    /// Uncore/interconnect transient.
    Interconnect,
}

impl FaultKind {
    /// All fault kinds, for iteration in reports.
    pub const ALL: [FaultKind; 4] =
        [FaultKind::CacheBit, FaultKind::DramBit, FaultKind::CoreLogic, FaultKind::Interconnect];

    /// Short label used in log lines and tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::CacheBit => "cache",
            FaultKind::DramBit => "dram",
            FaultKind::CoreLogic => "core",
            FaultKind::Interconnect => "uncore",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How the RAS machinery classified an error's effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ErrorSeverity {
    /// Corrected in hardware (CE) — logged, no software impact.
    Corrected,
    /// Detected but uncorrected (UE) — software must contain it.
    Uncorrected,
    /// Fatal — the component (or machine) crashed.
    Fatal,
}

impl ErrorSeverity {
    /// Short label used in log lines and tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ErrorSeverity::Corrected => "CE",
            ErrorSeverity::Uncorrected => "UE",
            ErrorSeverity::Fatal => "FATAL",
        }
    }
}

impl std::fmt::Display for ErrorSeverity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A single-bit flip in a 64-bit word: the SDC primitive used by the
/// QEMU-style injection campaigns (§6.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitFlip {
    /// Bit index in `0..64`.
    pub bit: u8,
}

impl BitFlip {
    /// Creates a flip of the given bit.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 64`.
    #[must_use]
    pub fn new(bit: u8) -> Self {
        assert!(bit < 64, "bit index must be below 64, got {bit}");
        BitFlip { bit }
    }

    /// Samples a uniformly random flip.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        BitFlip { bit: rng.gen_range(0..64) }
    }

    /// Applies the flip to a word.
    #[must_use]
    pub fn apply(self, word: u64) -> u64 {
        word ^ (1u64 << self.bit)
    }

    /// Whether applying the flip to `word` changes its value (always true
    /// for XOR, kept for symmetry with multi-bit fault types).
    #[must_use]
    pub fn corrupts(self, word: u64) -> bool {
        self.apply(word) != word
    }
}

impl std::fmt::Display for BitFlip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flip(bit {})", self.bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn flip_is_involutive() {
        let flip = BitFlip::new(17);
        let w = 0xDEAD_BEEFu64;
        assert_eq!(flip.apply(flip.apply(w)), w);
        assert!(flip.corrupts(w));
    }

    #[test]
    fn random_flips_cover_the_word() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 64];
        for _ in 0..4_000 {
            seen[BitFlip::random(&mut rng).bit as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 64 bit positions should be hit");
    }

    #[test]
    #[should_panic(expected = "below 64")]
    fn out_of_range_flip_panics() {
        let _ = BitFlip::new(64);
    }

    #[test]
    fn severity_is_ordered_by_badness() {
        assert!(ErrorSeverity::Corrected < ErrorSeverity::Uncorrected);
        assert!(ErrorSeverity::Uncorrected < ErrorSeverity::Fatal);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FaultKind::CacheBit.to_string(), "cache");
        assert_eq!(ErrorSeverity::Fatal.to_string(), "FATAL");
        assert_eq!(FaultKind::ALL.len(), 4);
    }
}
