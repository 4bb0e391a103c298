//! Performance-monitoring unit: the counters every interval report carries.
//!
//! Counters accumulate monotonically, as in hardware; consumers snapshot
//! and difference them. The node derives counter increments from the
//! active workload profile (IPC, MPKI, bandwidth) and the elapsed cycles.

use serde::{Deserialize, Serialize};
use uniserver_units::{Megahertz, Seconds};

use crate::workload::WorkloadProfile;

/// Monotonic counter state of one core's PMU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PmuCounters {
    /// Core clock cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Last-level-cache misses.
    pub llc_misses: u64,
    /// Bytes moved to/from DRAM.
    pub dram_bytes: u64,
}

impl PmuCounters {
    /// Fresh, zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        PmuCounters::default()
    }

    /// Advances the counters for `interval` of the given workload at the
    /// given frequency. Returns the increment that was applied.
    pub fn advance(
        &mut self,
        workload: &WorkloadProfile,
        frequency: Megahertz,
        interval: Seconds,
    ) -> PmuCounters {
        let cycles = frequency.cycles_in(interval);
        let instructions = cycles * workload.ipc;
        let llc_misses = instructions / 1_000.0 * workload.cache_mpki;
        // A stylized 12.8 GB/s channel, scaled by the profile's bandwidth
        // utilization.
        let dram_bytes = 12.8e9 * workload.mem_bw_util * interval.as_secs();

        let delta = PmuCounters {
            cycles: cycles as u64,
            instructions: instructions as u64,
            llc_misses: llc_misses as u64,
            dram_bytes: dram_bytes as u64,
        };
        self.cycles += delta.cycles;
        self.instructions += delta.instructions;
        self.llc_misses += delta.llc_misses;
        self.dram_bytes += delta.dram_bytes;
        delta
    }

    /// Difference `self - earlier`, for snapshot-based monitoring.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is not actually earlier (counters are
    /// monotonic; a regression indicates state corruption).
    #[must_use]
    pub fn since(&self, earlier: &PmuCounters) -> PmuCounters {
        assert!(
            self.cycles >= earlier.cycles
                && self.instructions >= earlier.instructions
                && self.llc_misses >= earlier.llc_misses
                && self.dram_bytes >= earlier.dram_bytes,
            "counter regression: snapshot is not earlier"
        );
        PmuCounters {
            cycles: self.cycles - earlier.cycles,
            instructions: self.instructions - earlier.instructions,
            llc_misses: self.llc_misses - earlier.llc_misses,
            dram_bytes: self.dram_bytes - earlier.dram_bytes,
        }
    }

    /// Instructions per cycle over this counter window.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// LLC misses per kilo-instruction over this counter window.
    #[must_use]
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.llc_misses as f64 * 1_000.0 / self.instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_reflects_workload() {
        let mut pmu = PmuCounters::new();
        let delta =
            pmu.advance(&WorkloadProfile::spec_namd(), Megahertz::from_ghz(2.0), Seconds::new(1.0));
        assert_eq!(delta.cycles, 2_000_000_000);
        assert!((delta.instructions as f64 / delta.cycles as f64 - 2.1).abs() < 0.01);
        assert_eq!(pmu.cycles, delta.cycles, "accumulator matches first delta");
    }

    #[test]
    fn counters_are_monotonic() {
        let mut pmu = PmuCounters::new();
        let w = WorkloadProfile::spec_mcf();
        let f = Megahertz::from_ghz(2.6);
        let mut last = PmuCounters::new();
        for _ in 0..5 {
            pmu.advance(&w, f, Seconds::from_millis(100.0));
            assert!(pmu.cycles >= last.cycles && pmu.dram_bytes >= last.dram_bytes);
            last = pmu;
        }
    }

    #[test]
    fn since_computes_window() {
        let mut pmu = PmuCounters::new();
        let w = WorkloadProfile::spec_bzip2();
        let f = Megahertz::from_ghz(1.0);
        pmu.advance(&w, f, Seconds::new(1.0));
        let snap = pmu;
        pmu.advance(&w, f, Seconds::new(1.0));
        let window = pmu.since(&snap);
        assert_eq!(window.cycles, 1_000_000_000);
    }

    #[test]
    fn derived_rates_match_profile() {
        let mut pmu = PmuCounters::new();
        let w = WorkloadProfile::spec_mcf();
        pmu.advance(&w, Megahertz::from_ghz(2.6), Seconds::new(2.0));
        assert!((pmu.ipc() - w.ipc).abs() < 0.01);
        assert!((pmu.mpki() - w.cache_mpki).abs() < 0.5);
    }

    #[test]
    fn empty_window_rates_are_zero() {
        let pmu = PmuCounters::new();
        assert_eq!(pmu.ipc(), 0.0);
        assert_eq!(pmu.mpki(), 0.0);
    }

    #[test]
    #[should_panic(expected = "counter regression")]
    fn since_rejects_regression() {
        let mut pmu = PmuCounters::new();
        pmu.advance(&WorkloadProfile::idle(), Megahertz::from_ghz(1.0), Seconds::new(1.0));
        let later = pmu;
        let _ = PmuCounters::new().since(&later);
    }
}
