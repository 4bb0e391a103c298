//! Machine-check architecture: how the hardware reports errors upward.
//!
//! Corrected and uncorrected errors leave the node in each interval
//! report, which the HealthLog daemon consumes into its per-origin
//! ledger, CE-rate window and event counts. Records carry the physical
//! origin (which core / cache bank / DIMM), the severity, a simulation
//! timestamp and a count.
//!
//! A record is *counted*, like the corrected-error count field of an
//! x86 `MCi_STATUS` bank: it stands for `count` identical errors of one
//! interval. A cache bank reports its interval's corrected errors as one
//! record, and an ECC DIMM its interval's corrected retention errors as
//! one record carrying the first failing word. Uncorrected DRAM errors
//! stay one record per word, since containment retires the page and
//! picks the victim VM by word. Every reader that counts errors sums
//! `count` rather than counting records, so a CE storm costs
//! O(DIMMs + banks) per interval, not O(errors).

use uniserver_units::Seconds;

use uniserver_silicon::{ErrorSeverity, FaultKind};

/// Physical origin of an error record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorOrigin {
    /// A CPU core (logic/pipeline).
    Core(usize),
    /// A last-level-cache bank.
    CacheBank(usize),
    /// A DIMM, addressed by its index and the failing word address.
    Dimm {
        /// DIMM index within the node.
        dimm: usize,
        /// Failing 64-bit-word index within the DIMM.
        word: u64,
    },
}

impl std::fmt::Display for ErrorOrigin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrorOrigin::Core(c) => write!(f, "core{c}"),
            ErrorOrigin::CacheBank(b) => write!(f, "l3bank{b}"),
            ErrorOrigin::Dimm { dimm, word } => write!(f, "dimm{dimm}@word{word:#x}"),
        }
    }
}

/// One machine-check record: `count` identical errors of one interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MceRecord {
    /// Simulation time at which the error was signalled.
    pub at: Seconds,
    /// What kind of fault produced it.
    pub kind: FaultKind,
    /// Hardware-assessed severity.
    pub severity: ErrorSeverity,
    /// Where it happened.
    pub origin: ErrorOrigin,
    /// How many identical errors the record stands for (at least 1).
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_renders_usefully() {
        assert_eq!(ErrorOrigin::Core(3).to_string(), "core3");
        assert_eq!(ErrorOrigin::Dimm { dimm: 1, word: 0x40 }.to_string(), "dimm1@word0x40");
    }
}
