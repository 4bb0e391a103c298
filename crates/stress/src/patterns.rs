//! DRAM test patterns for retention characterization (paper §6.B used
//! "random test patterns").
//!
//! A retention failure discharges a cell towards its leak state; whether
//! a test *detects* the failure depends on whether the written pattern
//! charged that cell. True- and anti-cells invert the mapping, so single
//! fixed patterns see only about half the failures, while re-seeded
//! random passes asymptotically see all of them.

use rand::Rng;

use uniserver_silicon::rng::splitmix64;

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
    /// The data word the pattern writes at word index `i`.
    #[must_use]
    pub fn word_at(self, i: u64) -> u64 {
        match self {
            TestPattern::Random { seed } => splitmix64(i ^ seed),
            TestPattern::Checkerboard => {
                if i.is_multiple_of(2) {
                    0xAAAA_AAAA_AAAA_AAAA
                } else {
                    0x5555_5555_5555_5555
                }
            }
            TestPattern::AllOnes => u64::MAX,
            TestPattern::AllZeros => 0,
            TestPattern::WalkingOnes => 1u64 << (i % 64),
        }
    }

    /// Probability that one retention failure is *detectable* under this
    /// pattern (the failing cell was written to its charged state).
    #[must_use]
    pub fn detection_coverage(self) -> f64 {
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
    pub fn detected_failures<R: Rng + ?Sized>(self, raw: u64, rng: &mut R) -> u64 {
        let p = self.detection_coverage();
        (0..raw).filter(|_| rng.gen::<f64>() < p).count() as u64
    }

    /// Coverage of `passes` repeated passes. Re-seeded random passes are
    /// independent (coverage grows towards 1); fixed patterns test the
    /// same cells every time (coverage stays flat).
    #[must_use]
    pub fn multi_pass_coverage(self, passes: u32) -> f64 {
        assert!(passes >= 1, "need at least one pass");
        match self {
            TestPattern::Random { .. } => 1.0 - 0.5f64.powi(passes as i32),
            other => other.detection_coverage(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn patterns_produce_expected_words() {
        assert_eq!(TestPattern::AllOnes.word_at(7), u64::MAX);
        assert_eq!(TestPattern::AllZeros.word_at(7), 0);
        assert_eq!(TestPattern::Checkerboard.word_at(0), 0xAAAA_AAAA_AAAA_AAAA);
        assert_eq!(TestPattern::Checkerboard.word_at(1), 0x5555_5555_5555_5555);
        assert_eq!(TestPattern::WalkingOnes.word_at(65), 2);
    }

    #[test]
    fn random_pattern_is_reproducible_and_varied() {
        let p = TestPattern::Random { seed: 42 };
        assert_eq!(p.word_at(10), p.word_at(10));
        assert_ne!(p.word_at(10), p.word_at(11));
        let q = TestPattern::Random { seed: 43 };
        assert_ne!(p.word_at(10), q.word_at(10));
    }

    #[test]
    fn random_words_have_balanced_bits() {
        let p = TestPattern::Random { seed: 7 };
        let ones: u32 = (0..1000).map(|i| p.word_at(i).count_ones()).sum();
        let frac = ones as f64 / (1000.0 * 64.0);
        assert!((frac - 0.5).abs() < 0.02, "bit balance {frac}");
    }

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

    #[test]
    fn repeated_random_passes_approach_full_coverage() {
        let p = TestPattern::Random { seed: 0 };
        assert!(p.multi_pass_coverage(1) < p.multi_pass_coverage(4));
        assert!(p.multi_pass_coverage(10) > 0.999);
        // Fixed patterns plateau.
        assert_eq!(
            TestPattern::Checkerboard.multi_pass_coverage(10),
            TestPattern::Checkerboard.detection_coverage()
        );
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn zero_passes_panics() {
        let _ = TestPattern::AllOnes.multi_pass_coverage(0);
    }
}
