//! A real SECDED(72,64) extended-Hamming codec.
//!
//! Server DIMMs protect every 64-bit word with 8 check bits: a Hamming
//! code over positions 1..=71 (check bits at the seven powers of two)
//! plus one overall-parity bit, giving single-error correction and
//! double-error detection. The paper leans on exactly this mechanism
//! ("classical ECC-SECDED can handle error rates up to 1e-6", §6.B), so
//! the reproduction implements the code for real rather than flagging
//! errors abstractly: the DRAM and cache models push faulty words through
//! [`Secded72::decode`] and count what the hardware would have counted.
//!
//! # Examples
//!
//! ```
//! use uniserver_silicon::{Secded72, DecodeOutcome};
//!
//! let word = Secded72::encode(0xDEAD_BEEF_CAFE_F00D);
//! // A cosmic ray flips codeword bit 17...
//! let upset = Secded72::flip_bit(word, 17);
//! match Secded72::decode(upset) {
//!     DecodeOutcome::Corrected { data, bit } => {
//!         assert_eq!(data, 0xDEAD_BEEF_CAFE_F00D);
//!         assert_eq!(bit, 17);
//!     }
//!     _ => unreachable!("single errors are always corrected"),
//! }
//! ```

/// Number of bits in a codeword.
pub(crate) const CODEWORD_BITS: u8 = 72;
/// Number of data bits per codeword.
pub(crate) const DATA_BITS: u8 = 64;

/// The SECDED(72,64) codec. Stateless; all methods are associated
/// functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Secded72;

/// Result of decoding a (possibly corrupted) codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeOutcome {
    /// No error was present.
    Clean {
        /// The decoded data word.
        data: u64,
    },
    /// A single-bit error was corrected (a *CE* in RAS terms).
    Corrected {
        /// The decoded data word, after correction.
        data: u64,
        /// The codeword bit (0..72) that was repaired.
        bit: u8,
    },
    /// A double-bit (or worse, odd-aliasing) error was detected but not
    /// correctable (a *UE* in RAS terms).
    Uncorrectable,
}

/// Codeword layout: bit 0 of the `u128` is the overall parity; bits
/// 1..=71 are the Hamming positions (check bits at 1, 2, 4, 8, 16, 32,
/// 64; data at the remaining 64 positions).
const CHECK_POSITIONS: [u8; 7] = [1, 2, 4, 8, 16, 32, 64];

impl Secded72 {
    /// Encodes a 64-bit data word into a 72-bit codeword (stored in the
    /// low 72 bits of a `u128`).
    #[must_use]
    pub fn encode(data: u64) -> u128 {
        let mut word: u128 = 0;
        // Scatter data bits into non-power-of-two positions 3, 5, 6, ...
        let mut data_idx = 0u8;
        for pos in 1u8..=71 {
            if pos.is_power_of_two() {
                continue;
            }
            if (data >> data_idx) & 1 == 1 {
                word |= 1u128 << pos;
            }
            data_idx += 1;
        }
        debug_assert_eq!(data_idx, DATA_BITS);
        // Hamming check bits: parity over every position with bit k set.
        for &k in &CHECK_POSITIONS {
            let mut parity = 0u8;
            for pos in 1u8..=71 {
                if pos & k != 0 && (word >> pos) & 1 == 1 {
                    parity ^= 1;
                }
            }
            if parity == 1 {
                word |= 1u128 << k;
            }
        }
        // Overall parity over positions 1..=71 goes to bit 0.
        if (word.count_ones() & 1) == 1 {
            word |= 1;
        }
        word
    }

    /// Decodes a codeword, correcting a single-bit error and detecting
    /// double-bit errors.
    #[must_use]
    pub fn decode(word: u128) -> DecodeOutcome {
        let mut syndrome = 0u8;
        for &k in &CHECK_POSITIONS {
            let mut parity = 0u8;
            for pos in 1u8..=71 {
                if pos & k != 0 && (word >> pos) & 1 == 1 {
                    parity ^= 1;
                }
            }
            if parity == 1 {
                syndrome |= k;
            }
        }
        let overall_odd = (word.count_ones() & 1) == 1;

        match (syndrome, overall_odd) {
            (0, false) => DecodeOutcome::Clean { data: Self::extract(word) },
            (0, true) => {
                // The overall-parity bit itself flipped; data is intact.
                DecodeOutcome::Corrected { data: Self::extract(word), bit: 0 }
            }
            (s, true) => {
                if s > 71 {
                    // Syndrome points outside the codeword: multi-bit
                    // corruption aliasing as odd parity.
                    return DecodeOutcome::Uncorrectable;
                }
                let fixed = word ^ (1u128 << s);
                DecodeOutcome::Corrected { data: Self::extract(fixed), bit: s }
            }
            // Even overall parity with a non-zero syndrome: two flips.
            (_, false) => DecodeOutcome::Uncorrectable,
        }
    }

    /// Flips one bit (0..72) of a codeword — the fault-injection
    /// primitive used by the DRAM and cache models.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 72`.
    #[must_use]
    pub fn flip_bit(word: u128, bit: u8) -> u128 {
        assert!(bit < CODEWORD_BITS, "codeword bit must be below {CODEWORD_BITS}, got {bit}");
        word ^ (1u128 << bit)
    }

    /// Extracts the 64 data bits from a (corrected) codeword.
    fn extract(word: u128) -> u64 {
        let mut data = 0u64;
        let mut data_idx = 0u8;
        for pos in 1u8..=71 {
            if pos.is_power_of_two() {
                continue;
            }
            if (word >> pos) & 1 == 1 {
                data |= 1u64 << data_idx;
            }
            data_idx += 1;
        }
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_roundtrip() {
        for data in [0u64, u64::MAX, 0xDEAD_BEEF_CAFE_F00D, 1, 1 << 63] {
            let w = Secded72::encode(data);
            assert!(w >> CODEWORD_BITS == 0, "codeword must fit in 72 bits");
            assert_eq!(Secded72::decode(w), DecodeOutcome::Clean { data });
        }
    }

    #[test]
    fn every_single_bit_error_is_corrected() {
        let data = 0xA5A5_5A5A_0F0F_F0F0u64;
        let w = Secded72::encode(data);
        for bit in 0..CODEWORD_BITS {
            let upset = Secded72::flip_bit(w, bit);
            match Secded72::decode(upset) {
                DecodeOutcome::Corrected { data: d, bit: b } => {
                    assert_eq!(d, data, "data recovered after flip of bit {bit}");
                    assert_eq!(b, bit, "correction must identify the flipped bit");
                }
                other => panic!("bit {bit}: expected correction, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_double_bit_error_is_detected() {
        let data = 0x0123_4567_89AB_CDEFu64;
        let w = Secded72::encode(data);
        for b1 in 0..CODEWORD_BITS {
            for b2 in (b1 + 1)..CODEWORD_BITS {
                let upset = Secded72::flip_bit(Secded72::flip_bit(w, b1), b2);
                assert_eq!(
                    Secded72::decode(upset),
                    DecodeOutcome::Uncorrectable,
                    "double flip ({b1}, {b2}) must be detected"
                );
            }
        }
    }

    #[test]
    fn decode_reports_clean_and_corrected() {
        let data = 42u64;
        let w = Secded72::encode(data);
        assert_eq!(Secded72::decode(w), DecodeOutcome::Clean { data: 42 });
        assert!(!matches!(Secded72::decode(w), DecodeOutcome::Corrected { .. }));
        let upset = Secded72::flip_bit(w, 9);
        assert!(matches!(Secded72::decode(upset), DecodeOutcome::Corrected { .. }));
    }

    #[test]
    #[should_panic(expected = "below 72")]
    fn flip_out_of_range_panics() {
        let _ = Secded72::flip_bit(0, 72);
    }

    #[test]
    fn distinct_data_distinct_codewords() {
        // Spot-check injectivity over a structured sample.
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u64 {
            let d = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            assert!(seen.insert(Secded72::encode(d)), "collision at {d:#x}");
        }
    }

    #[cfg(test)]
    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn roundtrip(data: u64) {
                prop_assert_eq!(Secded72::decode(Secded72::encode(data)), DecodeOutcome::Clean { data });
            }

            #[test]
            fn single_flip_corrects(data: u64, bit in 0u8..72) {
                let upset = Secded72::flip_bit(Secded72::encode(data), bit);
                match Secded72::decode(upset) {
                    DecodeOutcome::Corrected { data: d, bit: b } => {
                        prop_assert_eq!(d, data);
                        prop_assert_eq!(b, bit);
                    }
                    other => prop_assert!(false, "expected correction, got {:?}", other),
                }
            }

            #[test]
            fn double_flip_detects(data: u64, b1 in 0u8..72, b2 in 0u8..72) {
                prop_assume!(b1 != b2);
                let upset = Secded72::flip_bit(Secded72::flip_bit(Secded72::encode(data), b1), b2);
                prop_assert_eq!(Secded72::decode(upset), DecodeOutcome::Uncorrectable);
            }
        }
    }
}
