//! Machine-check architecture: how the hardware reports errors upward.
//!
//! Corrected and uncorrected errors are counted in the machine-check
//! banks and leave the node in each interval report, which the HealthLog
//! daemon consumes into its per-origin ledger, CE-rate window and event
//! counts. Records carry the physical origin (which core / cache bank / DIMM), the
//! severity and a simulation timestamp.

use serde::{Deserialize, Serialize};
use uniserver_units::Seconds;

use uniserver_silicon::{ErrorSeverity, FaultKind};

/// Physical origin of an error record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

/// One machine-check record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MceRecord {
    /// Simulation time at which the error was signalled.
    pub at: Seconds,
    /// What kind of fault produced it.
    pub kind: FaultKind,
    /// Hardware-assessed severity.
    pub severity: ErrorSeverity,
    /// Where it happened.
    pub origin: ErrorOrigin,
}

/// The machine-check banks of one node, reduced to what software reads
/// of them: lifetime totals by severity. The records themselves leave
/// the node in each interval report.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct McaBanks {
    corrected_total: u64,
    uncorrected_total: u64,
    fatal_total: u64,
}

impl McaBanks {
    /// Hardware-side: posts a record.
    pub fn post(&mut self, record: MceRecord) {
        match record.severity {
            ErrorSeverity::Corrected => self.corrected_total += 1,
            ErrorSeverity::Uncorrected => self.uncorrected_total += 1,
            ErrorSeverity::Fatal => self.fatal_total += 1,
        }
    }

    /// Lifetime corrected-error count.
    #[must_use]
    pub fn corrected_total(&self) -> u64 {
        self.corrected_total
    }

    /// Lifetime uncorrected-error count.
    #[must_use]
    pub fn uncorrected_total(&self) -> u64 {
        self.uncorrected_total
    }

    /// Lifetime fatal-error count.
    #[must_use]
    pub fn fatal_total(&self) -> u64 {
        self.fatal_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(at: f64, severity: ErrorSeverity) -> MceRecord {
        MceRecord {
            at: Seconds::new(at),
            kind: FaultKind::CacheBit,
            severity,
            origin: ErrorOrigin::CacheBank(0),
        }
    }

    #[test]
    fn totals_count_every_severity() {
        let mut banks = McaBanks::default();
        banks.post(record(1.0, ErrorSeverity::Corrected));
        banks.post(record(2.0, ErrorSeverity::Uncorrected));
        banks.post(record(3.0, ErrorSeverity::Corrected));
        assert_eq!(banks.corrected_total(), 2);
        assert_eq!(banks.uncorrected_total(), 1);
        assert_eq!(banks.fatal_total(), 0);
    }

    #[test]
    fn origin_renders_usefully() {
        assert_eq!(ErrorOrigin::Core(3).to_string(), "core3");
        assert_eq!(ErrorOrigin::Dimm { dimm: 1, word: 0x40 }.to_string(), "dimm1@word0x40");
    }
}
