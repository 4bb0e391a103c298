//! DRAM test patterns for retention characterization (paper §6.B used
//! "random test patterns").
//!
//! A retention failure discharges a cell towards its leak state; whether
//! a test *detects* the failure depends on whether the written pattern
//! charged that cell. True- and anti-cells invert the mapping, so single
//! fixed patterns see only about half the failures, while re-seeded
//! random passes asymptotically see all of them.

use rand::Rng;

/// A memory test pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestPattern {
    /// Fresh pseudo-random data per pass (the paper's choice).
    Random {
        /// Seed mixed into each word.
        seed: u64,
    },
    /// Alternating 0xAA…/0x55… stripes.
    Checkerboard,
    /// All bits set.
    AllOnes,
    /// All bits clear.
    AllZeros,
    /// A single one walking through each word.
    WalkingOnes,
}

impl TestPattern {
    /// Probability that one retention failure is *detectable* under this
    /// pattern (the failing cell was written to its charged state).
    #[must_use]
    pub(crate) fn detection_coverage(self) -> f64 {
        match self {
            // Random data charges any given cell with probability 1/2.
            TestPattern::Random { .. } => 0.5,
            // Fixed patterns also charge ~half the cells once true/anti
            // cell polarity (itself ~50/50) is accounted for.
            TestPattern::Checkerboard | TestPattern::AllOnes | TestPattern::AllZeros => 0.5,
            // Only one bit in 64 is charged.
            TestPattern::WalkingOnes => 1.0 / 64.0,
        }
    }

    /// Thins a raw failure count down to the detected count (binomial
    /// sampling with the pattern's coverage).
    pub(crate) fn detected_failures<R: Rng + ?Sized>(self, raw: u64, rng: &mut R) -> u64 {
        let p = self.detection_coverage();
        (0..raw).filter(|_| rng.gen::<f64>() < p).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn detection_thinning_matches_coverage() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = TestPattern::Random { seed: 0 };
        let detected = p.detected_failures(100_000, &mut rng);
        assert!((detected as f64 / 100_000.0 - 0.5).abs() < 0.01);
        let w = TestPattern::WalkingOnes;
        let detected = w.detected_failures(100_000, &mut rng);
        assert!((detected as f64 / 100_000.0 - 1.0 / 64.0).abs() < 0.005);
    }
}
