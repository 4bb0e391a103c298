//! Machine-check architecture: how the hardware reports errors upward.
//!
//! Corrected and uncorrected errors land in machine-check banks and
//! leave them in each interval report, which the HealthLog daemon
//! consumes into its per-origin ledger, CE-rate window and event
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

/// The machine-check banks of one node: a bounded error queue that
/// software drains. Overflow drops the *oldest* records and counts them,
/// like real MCA banks losing history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McaBanks {
    records: std::collections::VecDeque<MceRecord>,
    capacity: usize,
    /// Records lost to overflow since boot.
    pub overflowed: u64,
    /// Totals by severity since boot (survive draining).
    corrected_total: u64,
    uncorrected_total: u64,
    fatal_total: u64,
}

impl McaBanks {
    /// Creates banks holding up to `capacity` undrained records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MCA banks need capacity");
        McaBanks {
            records: std::collections::VecDeque::with_capacity(capacity),
            capacity,
            overflowed: 0,
            corrected_total: 0,
            uncorrected_total: 0,
            fatal_total: 0,
        }
    }

    /// Hardware-side: posts a record.
    pub fn post(&mut self, record: MceRecord) {
        match record.severity {
            ErrorSeverity::Corrected => self.corrected_total += 1,
            ErrorSeverity::Uncorrected => self.uncorrected_total += 1,
            ErrorSeverity::Fatal => self.fatal_total += 1,
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.overflowed += 1;
        }
        self.records.push_back(record);
    }

    /// Software-side: drains all pending records (oldest first).
    pub fn drain(&mut self) -> Vec<MceRecord> {
        self.records.drain(..).collect()
    }

    /// Number of records waiting to be drained.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.records.len()
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

impl Default for McaBanks {
    fn default() -> Self {
        McaBanks::new(256)
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
    fn post_and_drain_preserve_order() {
        let mut banks = McaBanks::new(8);
        banks.post(record(1.0, ErrorSeverity::Corrected));
        banks.post(record(2.0, ErrorSeverity::Corrected));
        let drained = banks.drain();
        assert_eq!(drained.len(), 2);
        assert!(drained[0].at < drained[1].at);
        assert_eq!(banks.pending(), 0);
    }

    #[test]
    fn totals_survive_draining() {
        let mut banks = McaBanks::new(8);
        banks.post(record(1.0, ErrorSeverity::Corrected));
        banks.post(record(2.0, ErrorSeverity::Uncorrected));
        banks.drain();
        banks.post(record(3.0, ErrorSeverity::Corrected));
        assert_eq!(banks.corrected_total(), 2);
        assert_eq!(banks.uncorrected_total(), 1);
        assert_eq!(banks.fatal_total(), 0);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let mut banks = McaBanks::new(2);
        banks.post(record(1.0, ErrorSeverity::Corrected));
        banks.post(record(2.0, ErrorSeverity::Corrected));
        banks.post(record(3.0, ErrorSeverity::Corrected));
        assert_eq!(banks.overflowed, 1);
        let drained = banks.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].at, Seconds::new(2.0), "oldest record was sacrificed");
        assert_eq!(banks.corrected_total(), 3, "totals count even dropped records");
    }

    #[test]
    fn origin_renders_usefully() {
        assert_eq!(ErrorOrigin::Core(3).to_string(), "core3");
        assert_eq!(ErrorOrigin::Dimm { dimm: 1, word: 0x40 }.to_string(), "dimm1@word0x40");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = McaBanks::new(0);
    }
}
