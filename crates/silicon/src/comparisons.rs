//! Baseline techniques the paper positions UniServer against (§5.A).
//!
//! * **Razor-style in-situ timing-error detection** (refs \[10\]\[11\]):
//!   shadow latches detect late transitions and replay the failing
//!   instruction, letting the pipeline run below the conservative
//!   margin at the cost of per-stage hardware, a detection energy tax
//!   and replay stalls. UniServer's contrast: "minimum hardware
//!   intrusion and does not require application side modification".
//! * **ArchShield-style fault-map tolerance** (ref \[27\]): expose known
//!   faulty words in a fault map and replicate them, tolerating raw
//!   error rates up to ~1e-4 — two orders beyond SECDED — at a small
//!   capacity tax. The reproduction uses it to bound how far DRAM
//!   refresh could be pushed beyond the paper's 5 s point.

use uniserver_units::{BitErrorRate, Ratio, Seconds};

use crate::retention::RetentionModel;
use uniserver_units::Celsius;

/// A Razor-equipped core running below the conservative margin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RazorCore {
    /// Energy overhead of shadow latches and detection logic, as a
    /// fraction of core energy (published designs: ~3 %).
    pub detection_overhead: f64,
    /// Pipeline depth refilled on replay.
    pub replay_penalty_cycles: f64,
    /// Error rate (errors per cycle) at the *point of first failure*;
    /// grows tenfold per percent of further undervolt.
    pub per_cycle_error_rate_at_pof: f64,
    /// Error-rate growth per additional percent below the PoF.
    pub decade_per_percent: f64,
    /// How far above the outright crash point the PoF sits: timing
    /// errors begin before total failure (the same physics as the cache
    /// CE window of Table 2), so a Razor design's usable margin is
    /// smaller than the crash margin UniServer characterizes.
    pub pof_above_crash_percent: f64,
}

impl RazorCore {
    /// Published-flavour RazorII-style parameters.
    #[must_use]
    pub fn razor_ii() -> Self {
        RazorCore {
            detection_overhead: 0.03,
            replay_penalty_cycles: 11.0,
            per_cycle_error_rate_at_pof: 1e-5,
            decade_per_percent: 1.0,
            pof_above_crash_percent: 2.5,
        }
    }

    /// Error rate per cycle at `percent_below_pof` percent below the
    /// point of first failure.
    ///
    /// # Panics
    ///
    /// Panics if `percent_below_pof` is negative.
    #[must_use]
    pub(crate) fn error_rate(&self, percent_below_pof: f64) -> f64 {
        assert!(percent_below_pof >= 0.0, "depth below PoF must be non-negative");
        (self.per_cycle_error_rate_at_pof
            * 10f64.powf(self.decade_per_percent * percent_below_pof))
        .min(1.0)
    }

    /// Throughput retained after replay stalls at the given depth.
    #[must_use]
    pub(crate) fn throughput_factor(&self, percent_below_pof: f64) -> f64 {
        let rate = self.error_rate(percent_below_pof);
        1.0 / (1.0 + rate * self.replay_penalty_cycles)
    }

    /// Net *energy per instruction* relative to running at the
    /// conservative margin, when undervolting `percent_below_pof` below
    /// the PoF which itself sits `pof_margin_percent` below the
    /// conservative point. Energy ∝ V²; replay re-executes work;
    /// detection taxes everything.
    #[must_use]
    pub(crate) fn energy_per_instruction(
        &self,
        pof_margin_percent: f64,
        percent_below_pof: f64,
    ) -> f64 {
        let v = 1.0 - (pof_margin_percent + percent_below_pof) / 100.0;
        let base = v * v * (1.0 + self.detection_overhead);
        base / self.throughput_factor(percent_below_pof)
    }

    /// The depth (percent below PoF) minimizing energy per instruction:
    /// the classic Razor sweet spot just past the PoF, where replay
    /// costs start to win.
    #[must_use]
    pub(crate) fn optimal_depth(&self, pof_margin_percent: f64) -> f64 {
        let mut best = (0.0, self.energy_per_instruction(pof_margin_percent, 0.0));
        let mut d = 0.0;
        while d <= 5.0 {
            let e = self.energy_per_instruction(pof_margin_percent, d);
            if e < best.1 {
                best = (d, e);
            }
            d += 0.05;
        }
        best.0
    }
}

/// Energy comparison of UniServer's approach vs a Razor core, both
/// starting from the same conservative baseline.
///
/// UniServer operates *at* the characterized margin (no detection tax,
/// no replays, full throughput); Razor dives a little past its PoF and
/// pays detection + replay. Returns (uniserver, razor) energies per
/// instruction relative to the conservative baseline.
#[must_use]
pub fn uniserver_vs_razor(margin_percent: f64, razor: &RazorCore) -> (f64, f64) {
    let v_uniserver = 1.0 - margin_percent / 100.0;
    let uniserver = v_uniserver * v_uniserver;
    // Razor's PoF sits above the crash point, so its dive starts from a
    // smaller exploitable margin.
    let pof_margin = (margin_percent - razor.pof_above_crash_percent).max(0.0);
    let depth = razor.optimal_depth(pof_margin);
    let razor_energy = razor.energy_per_instruction(pof_margin, depth);
    (uniserver, razor_energy)
}

/// ArchShield-style fault-map tolerance for DRAM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchShield {
    /// Maximum raw bit-error rate the fault map + replication absorbs.
    pub tolerable_ber: BitErrorRate,
    /// Capacity sacrificed to replicas and the fault map.
    pub capacity_tax: Ratio,
}

impl ArchShield {
    /// The published operating envelope: ~1e-4 raw BER at ~4 % capacity.
    #[must_use]
    pub fn published() -> Self {
        ArchShield { tolerable_ber: BitErrorRate::new(1e-4), capacity_tax: Ratio::new(0.04) }
    }

    /// The longest refresh interval whose raw BER stays within this
    /// scheme's tolerance — how much further than SECDED (1e-6) or the
    /// paper's bare 5 s point the refresh could be pushed.
    #[must_use]
    pub fn max_refresh(&self, retention: &RetentionModel, temp: Celsius) -> Seconds {
        let (mut lo, mut hi) = (0.064, 3_600.0);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if retention.fail_probability(Seconds::new(mid), temp) <= self.tolerable_ber.value() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Seconds::new(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn razor_error_rate_grows_a_decade_per_percent() {
        let r = RazorCore::razor_ii();
        let e0 = r.error_rate(0.0);
        let e1 = r.error_rate(1.0);
        let e2 = r.error_rate(2.0);
        assert!((e1 / e0 - 10.0).abs() < 1e-9);
        assert!((e2 / e1 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn razor_throughput_collapses_deep_below_pof() {
        let r = RazorCore::razor_ii();
        assert!(r.throughput_factor(0.0) > 0.999);
        assert!(r.throughput_factor(8.0) < 0.6, "replays dominate deep below PoF");
    }

    #[test]
    fn razor_sweet_spot_is_shallow() {
        let r = RazorCore::razor_ii();
        let depth = r.optimal_depth(15.0);
        assert!(
            (0.0..4.0).contains(&depth),
            "Razor's optimum sits just past the PoF, got {depth} %"
        );
        // At the optimum, energy beats staying exactly at the PoF.
        assert!(
            r.energy_per_instruction(15.0, depth) <= r.energy_per_instruction(15.0, 0.0) + 1e-12
        );
    }

    #[test]
    fn uniserver_wins_at_equal_margin_knowledge() {
        // With the same 15 % exploitable margin, UniServer pays no
        // detection/replay tax; Razor can dive slightly deeper but its
        // overheads eat the difference at these depths.
        let (uniserver, razor) = uniserver_vs_razor(15.0, &RazorCore::razor_ii());
        assert!(uniserver < razor, "uniserver {uniserver} vs razor {razor}");
        // Both beat the conservative baseline (1.0).
        assert!(razor < 1.0);
    }

    #[test]
    fn razor_still_beats_doing_nothing() {
        let (_, razor) = uniserver_vs_razor(15.0, &RazorCore::razor_ii());
        assert!(razor < 0.85, "Razor recovers most of the margin: {razor}");
    }

    #[test]
    fn archshield_extends_the_refresh_envelope() {
        let shield = ArchShield::published();
        let retention = RetentionModel::ddr3_server();
        let temp = Celsius::new(45.0);
        let shielded = shield.max_refresh(&retention, temp);
        // SECDED's envelope (1e-6) for the same module:
        let secded = ArchShield {
            tolerable_ber: BitErrorRate::SECDED_LIMIT,
            capacity_tax: Ratio::ZERO,
        }
        .max_refresh(&retention, temp);
        assert!(shielded > secded, "{shielded} must exceed {secded}");
        // And both extend well past the paper's bare 5 s measurement.
        assert!(secded.as_secs() > 5.0);
        // The tolerance ordering matches the BER ordering by two decades.
        assert!(shielded.as_secs() / secded.as_secs() > 1.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_depth_panics() {
        let _ = RazorCore::razor_ii().error_rate(-1.0);
    }
}
