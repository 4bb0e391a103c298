//! The EOP optimizer: fuses StressLog margins with Predictor advice
//! under an SLA risk budget (§2: "the system software is responsible
//! for optimizing the system operation in terms of energy or
//! performance, while guaranteeing non-disruptive operation under
//! EOP").

use uniserver_units::Celsius;

use uniserver_platform::part::PartSpec;
use uniserver_platform::workload::WorkloadProfile;
use uniserver_predictor::ModeAdvisor;
use uniserver_stresslog::MarginVector;

use crate::eop::OperatingPoint;

/// The optimizer preset: how much of the measured margin to use
/// before the predictor gets a veto, and the SLA risk budget the
/// advisor is trained to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EopOptimizer {
    /// Keeps a quarter of the measured margin in reserve, at a 2 %
    /// risk tolerance: the single-node ecosystem's preset.
    Cautious,
    /// Uses the full measured margin subject to predictor veto, at a
    /// 5 % risk tolerance: the rack's preset, where placement and
    /// migration absorb the residual crash risk.
    Assertive,
}

impl EopOptimizer {
    /// Fraction of the measured margin the point uses (1.0 = all of it).
    fn aggressiveness(self) -> f64 {
        match self {
            EopOptimizer::Cautious => 0.75,
            EopOptimizer::Assertive => 1.0,
        }
    }

    /// Risk tolerance handed to the mode advisor.
    pub(crate) fn risk_tolerance(self) -> f64 {
        match self {
            EopOptimizer::Cautious => 0.02,
            EopOptimizer::Assertive => 0.05,
        }
    }

    /// Chooses the operating point: start from the StressLog margins,
    /// then cap each core's offset by the depth the Predictor considers
    /// safe for the expected workload.
    #[must_use]
    pub(crate) fn choose(
        self,
        spec: &PartSpec,
        margins: &MarginVector,
        advisor: &ModeAdvisor,
        expected_workload: &WorkloadProfile,
        temp: Celsius,
    ) -> OperatingPoint {
        let mut point = OperatingPoint::from_margins(margins, self.aggressiveness());
        let advice = advisor.advise(expected_workload, &spec.pdn, temp, 0.0);
        let advice_cap_mv = advice.offset_fraction * spec.nominal_voltage.as_millivolts();
        for offset in &mut point.core_offsets_mv {
            *offset = offset.min(advice_cap_mv);
        }
        point.provenance = format!(
            "{} ∧ predictor cap {:.0} mV (risk {:.3})",
            point.provenance, advice_cap_mv, advice.predicted_risk
        );
        point
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniserver_predictor::harness::TrainingHarness;
    use uniserver_predictor::LogisticModel;

    fn setup() -> (PartSpec, MarginVector, ModeAdvisor) {
        let spec = PartSpec::arm_microserver();
        let mut node = uniserver_platform::node::ServerNode::new(spec.clone(), 31);
        let margins = uniserver_stresslog::characterize(&mut node);
        let data = TrainingHarness::quick().generate(2);
        let advisor = ModeAdvisor::new(LogisticModel::fit(&data, 200, 0.7), 0.05);
        (spec, margins, advisor)
    }

    #[test]
    fn chosen_point_respects_both_sources() {
        let (spec, margins, advisor) = setup();
        let point = EopOptimizer::Assertive.choose(
            &spec,
            &margins,
            &advisor,
            &WorkloadProfile::spec_bzip2(),
            Celsius::new(26.0),
        );
        for (core, &mv) in point.core_offsets_mv.iter().enumerate() {
            assert!(
                mv <= margins.per_core_safe_offset_mv[core] + 1e-9,
                "core {core} exceeds its margin"
            );
        }
        assert!(point.min_offset_mv() > 0.0, "the optimizer must reclaim something");
        assert!(point.provenance.contains("predictor cap"));
    }

    #[test]
    fn cautious_is_shallower_than_assertive() {
        let (spec, margins, advisor) = setup();
        let w = WorkloadProfile::spec_bzip2();
        let a = EopOptimizer::Assertive.choose(&spec, &margins, &advisor, &w, Celsius::new(26.0));
        let c = EopOptimizer::Cautious.choose(&spec, &margins, &advisor, &w, Celsius::new(26.0));
        assert!(c.min_offset_mv() <= a.min_offset_mv());
        assert!(c.relaxed_refresh <= a.relaxed_refresh);
    }

    #[test]
    fn stressful_workloads_get_capped_harder() {
        let (spec, margins, advisor) = setup();
        let quiet = EopOptimizer::Assertive.choose(
            &spec,
            &margins,
            &advisor,
            &WorkloadProfile::spec_namd(),
            Celsius::new(26.0),
        );
        let loud = EopOptimizer::Assertive.choose(
            &spec,
            &margins,
            &advisor,
            &WorkloadProfile::spec_zeusmp(),
            Celsius::new(26.0),
        );
        assert!(loud.min_offset_mv() <= quiet.min_offset_mv() + 1e-9);
    }
}
