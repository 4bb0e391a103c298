//! Extended Operating Points: the V-F-R tuples UniServer reveals.

use uniserver_units::Seconds;

use uniserver_platform::node::ServerNode;
use uniserver_stresslog::MarginVector;

/// Nominal DRAM refresh interval in seconds (the JEDEC 64 ms baseline)
/// — the conservative point every scaled-back refresh converges to.
const NOMINAL_REFRESH_SECS: f64 = 0.064;

/// One concrete V-F-R operating point for a node.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// Per-core undervolt offsets in millivolts below nominal.
    pub core_offsets_mv: Vec<f64>,
    /// Refresh interval for the relaxed memory domain.
    pub relaxed_refresh: Seconds,
    /// Free-text provenance (which margins/advice produced it).
    pub provenance: String,
}

impl OperatingPoint {
    /// The conservative point: no undervolt, nominal refresh.
    #[must_use]
    pub fn nominal(cores: usize) -> Self {
        OperatingPoint {
            core_offsets_mv: vec![0.0; cores],
            relaxed_refresh: Seconds::new(NOMINAL_REFRESH_SECS),
            provenance: "nominal (conservative guard-bands)".into(),
        }
    }

    /// Derives an EOP from a StressLog margin vector, optionally scaled
    /// back towards nominal (`aggressiveness` 1.0 = the full measured
    /// margin, 0.0 = nominal).
    ///
    /// # Panics
    ///
    /// Panics if `aggressiveness` is outside `[0, 1]`.
    #[must_use]
    pub(crate) fn from_margins(margins: &MarginVector, aggressiveness: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&aggressiveness),
            "aggressiveness must be in [0, 1], got {aggressiveness}"
        );
        let refresh = NOMINAL_REFRESH_SECS
            + (margins.safe_refresh.as_secs() - NOMINAL_REFRESH_SECS).max(0.0) * aggressiveness;
        OperatingPoint {
            core_offsets_mv: margins
                .per_core_safe_offset_mv
                .iter()
                .map(|mv| mv * aggressiveness)
                .collect(),
            relaxed_refresh: Seconds::new(refresh),
            provenance: format!(
                "stresslog margins @ t={:.0}s, aggressiveness {:.2}",
                margins.produced_at.as_secs(),
                aggressiveness
            ),
        }
    }

    /// The weakest-core offset of the point.
    ///
    /// # Panics
    ///
    /// Panics if the point covers no cores.
    #[must_use]
    pub fn min_offset_mv(&self) -> f64 {
        assert!(!self.core_offsets_mv.is_empty(), "empty operating point");
        self.core_offsets_mv.iter().cloned().fold(f64::MAX, f64::min)
    }

    /// Programs the point into a node's MSRs: per-core undervolt offsets
    /// (clamped to the MSR limit) and the relaxed-domain refresh. This is
    /// the single write path for operating points — the per-node
    /// [`crate::ecosystem::Ecosystem`] and the cluster orchestrator's
    /// deploy-into-cluster plumbing both go through it.
    ///
    /// # Panics
    ///
    /// Panics if the point's core count does not match the node.
    pub fn apply_to(&self, node: &mut ServerNode) {
        assert_eq!(
            self.core_offsets_mv.len(),
            node.core_count(),
            "operating point does not match node topology"
        );
        for (core, &mv) in self.core_offsets_mv.iter().enumerate() {
            node.msr
                .set_voltage_offset(core, mv.min(250.0))
                .expect("optimizer offsets are within MSR limits");
        }
        node.msr
            .set_refresh_interval(uniserver_platform::msr::DomainId(1), self.relaxed_refresh)
            .expect("safe refresh within controller range");
    }

    /// The point scaled back towards nominal by `fraction` (0.0 = this
    /// point, 1.0 = nominal): the post-crash backoff a cluster manager
    /// applies when a node's extended margins proved too aggressive.
    ///
    /// Both axes clamp at nominal, so repeated backoffs converge to the
    /// conservative point and can never overshoot past it — a negative
    /// offset would *overdrive* the core above nominal voltage, turning
    /// a safety retreat into extra stress.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    #[must_use]
    pub fn backed_off(&self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "backoff fraction must be in [0, 1]");
        let keep = 1.0 - fraction;
        OperatingPoint {
            core_offsets_mv: self.core_offsets_mv.iter().map(|mv| (mv * keep).max(0.0)).collect(),
            relaxed_refresh: Seconds::new(
                NOMINAL_REFRESH_SECS
                    + (self.relaxed_refresh.as_secs() - NOMINAL_REFRESH_SECS).max(0.0) * keep,
            ),
            provenance: format!("{} (backed off {:.0} %)", self.provenance, fraction * 100.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniserver_stress::campaign::Table2Summary;

    fn margins() -> MarginVector {
        MarginVector {
            produced_at: Seconds::new(100.0),
            part_name: "test part".into(),
            per_core_safe_offset_mv: vec![80.0, 95.0, 70.0],
            safe_refresh: Seconds::new(1.2),
            summary: Table2Summary {
                part_name: "test part".into(),
                crash_min_pct: 10.0,
                crash_max_pct: 11.0,
                core_var_min_pct: 0.5,
                core_var_max_pct: 2.0,
                cache_ce_min: None,
                cache_ce_max: None,
                mean_ce_window_mv: None,
            },
        }
    }

    #[test]
    fn nominal_point_is_conservative() {
        let p = OperatingPoint::nominal(4);
        assert_eq!(p.core_offsets_mv, vec![0.0; 4]);
        assert_eq!(p.relaxed_refresh, Seconds::from_millis(64.0));
    }

    #[test]
    fn full_aggressiveness_uses_the_margins() {
        let p = OperatingPoint::from_margins(&margins(), 1.0);
        assert_eq!(p.core_offsets_mv, vec![80.0, 95.0, 70.0]);
        assert_eq!(p.relaxed_refresh, Seconds::new(1.2));
        assert_eq!(p.min_offset_mv(), 70.0);
    }

    #[test]
    fn zero_aggressiveness_is_nominal() {
        let p = OperatingPoint::from_margins(&margins(), 0.0);
        assert!(p.core_offsets_mv.iter().all(|&mv| mv == 0.0));
        assert!((p.relaxed_refresh.as_millis() - 64.0).abs() < 1e-9);
    }

    #[test]
    fn half_aggressiveness_interpolates() {
        let p = OperatingPoint::from_margins(&margins(), 0.5);
        assert_eq!(p.core_offsets_mv[0], 40.0);
        assert!((p.relaxed_refresh.as_secs() - (0.064 + 0.568)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "aggressiveness")]
    fn invalid_aggressiveness_panics() {
        let _ = OperatingPoint::from_margins(&margins(), 1.5);
    }

    #[test]
    fn backed_off_converges_to_nominal_and_never_past_it() {
        let mut p = OperatingPoint::from_margins(&margins(), 1.0);
        // A pathological point with an offset already past nominal (e.g.
        // hand-tuned overdrive) must clamp, not amplify.
        p.core_offsets_mv[2] = -5.0;
        for _ in 0..20 {
            p = p.backed_off(0.25);
            assert!(
                p.core_offsets_mv.iter().all(|&mv| mv >= 0.0),
                "backoff must never overdrive past nominal: {:?}",
                p.core_offsets_mv
            );
            assert!(p.relaxed_refresh.as_secs() >= NOMINAL_REFRESH_SECS - 1e-12);
        }
        // Twenty 25 % retreats of an 80 mV margin are sub-milli-volt.
        assert!(p.core_offsets_mv[0] < 0.5);
        assert!((p.backed_off(1.0).relaxed_refresh.as_secs() - NOMINAL_REFRESH_SECS).abs() < 1e-12);
        assert!(p.backed_off(1.0).core_offsets_mv.iter().all(|&mv| mv == 0.0));
    }
}
