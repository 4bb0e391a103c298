//! The operating-mode advisor: the Predictor's interface to the
//! Hypervisor ("advice to the Hypervisor for choosing the desired
//! operation mode", §3.E; "possible execution modes (e.g.
//! high-performance or low-power)", §3).

use uniserver_units::Celsius;

use uniserver_platform::workload::WorkloadProfile;
use uniserver_silicon::droop::DroopModel;

use crate::features::FeatureVector;
use crate::logistic::LogisticModel;

/// Execution modes the Hypervisor can be advised into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatingMode {
    /// Nominal settings; maximum safety margin.
    Safe,
    /// Mild undervolt: most of the margin kept.
    Balanced,
    /// Deep undervolt within the predicted-safe envelope.
    LowPower,
    /// Nominal voltage *kept* for stability but margins exploited for
    /// DRAM refresh only.
    HighPerformance,
}

/// Advice returned to the hypervisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Advice {
    /// Suggested mode.
    pub mode: OperatingMode,
    /// Suggested undervolt depth (fraction of nominal).
    pub offset_fraction: f64,
    /// Predicted crash probability per interval at that depth.
    pub predicted_risk: f64,
}

/// The advisor: a trained model plus a risk budget.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeAdvisor {
    model: LogisticModel,
    /// Maximum acceptable predicted crash probability per interval.
    pub risk_tolerance: f64,
    /// Candidate undervolt depths, ascending.
    pub candidate_offsets: Vec<f64>,
}

impl ModeAdvisor {
    /// Creates an advisor over the default candidate grid.
    ///
    /// # Panics
    ///
    /// Panics if `risk_tolerance` is outside `(0, 1)`.
    #[must_use]
    pub fn new(model: LogisticModel, risk_tolerance: f64) -> Self {
        assert!(
            risk_tolerance > 0.0 && risk_tolerance < 1.0,
            "risk tolerance must be in (0, 1), got {risk_tolerance}"
        );
        ModeAdvisor {
            model,
            risk_tolerance,
            candidate_offsets: (0..=16).map(|i| i as f64 * 0.01).collect(),
        }
    }

    /// The deepest candidate offset whose predicted risk stays within
    /// tolerance for the given workload and temperature, plus the mode
    /// that depth maps onto.
    #[must_use]
    pub fn advise(
        &self,
        workload: &WorkloadProfile,
        pdn: &DroopModel,
        temp: Celsius,
        ce_per_minute: f64,
    ) -> Advice {
        let stress = workload.stress_scalar(pdn);
        let mut chosen = 0.0;
        let mut risk_at_chosen = self.risk(0.0, stress, temp, ce_per_minute);
        for &off in &self.candidate_offsets {
            let risk = self.risk(off, stress, temp, ce_per_minute);
            if risk <= self.risk_tolerance {
                chosen = off;
                risk_at_chosen = risk;
            }
        }
        Advice { mode: Self::mode_for(chosen), offset_fraction: chosen, predicted_risk: risk_at_chosen }
    }

    /// Predicted risk at a specific depth.
    #[must_use]
    pub fn risk(&self, offset_fraction: f64, stress: f64, temp: Celsius, ce_per_minute: f64) -> f64 {
        self.model.predict_proba(&FeatureVector::from_observables(
            offset_fraction,
            stress,
            temp,
            ce_per_minute,
        ))
    }

    /// Maps an undervolt depth onto a mode label.
    #[must_use]
    fn mode_for(offset_fraction: f64) -> OperatingMode {
        if offset_fraction < 0.005 {
            OperatingMode::Safe
        } else if offset_fraction < 0.05 {
            OperatingMode::Balanced
        } else {
            OperatingMode::LowPower
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::TrainingHarness;

    fn advisor(tolerance: f64) -> ModeAdvisor {
        let data = TrainingHarness::quick().generate(3);
        let model = LogisticModel::fit(&data, 400, 1.0);
        ModeAdvisor::new(model, tolerance)
    }

    #[test]
    fn advice_is_within_tolerance_and_nontrivial() {
        let a = advisor(0.05);
        let advice = a.advise(
            &WorkloadProfile::spec_bzip2(),
            &DroopModel::typical_server_pdn(),
            Celsius::new(26.0),
            0.0,
        );
        assert!(advice.predicted_risk <= 0.05 + 1e-9);
        assert!(
            advice.offset_fraction >= 0.05,
            "a trained advisor should reclaim real margin, got {}",
            advice.offset_fraction
        );
        assert_eq!(advice.mode, OperatingMode::LowPower);
    }

    #[test]
    fn tighter_tolerance_means_shallower_offsets() {
        let strict = advisor(0.005);
        let loose = advisor(0.2);
        let pdn = DroopModel::typical_server_pdn();
        let w = WorkloadProfile::spec_zeusmp();
        let a = strict.advise(&w, &pdn, Celsius::new(26.0), 0.0);
        let b = loose.advise(&w, &pdn, Celsius::new(26.0), 0.0);
        assert!(a.offset_fraction <= b.offset_fraction);
    }

    #[test]
    fn stressful_workloads_get_shallower_advice() {
        let a = advisor(0.02);
        let pdn = DroopModel::typical_server_pdn();
        let quiet = a.advise(&WorkloadProfile::spec_namd(), &pdn, Celsius::new(26.0), 0.0);
        let loud = a.advise(&WorkloadProfile::spec_zeusmp(), &pdn, Celsius::new(26.0), 0.0);
        assert!(
            loud.offset_fraction <= quiet.offset_fraction,
            "zeusmp ({}) must not get deeper advice than namd ({})",
            loud.offset_fraction,
            quiet.offset_fraction
        );
    }

    #[test]
    fn mode_labels_map_depths() {
        let a = advisor(0.5);
        let advice = a.advise(
            &WorkloadProfile::idle(),
            &DroopModel::typical_server_pdn(),
            Celsius::new(30.0),
            0.0,
        );
        // With an absurd risk budget, the advisor goes deep.
        assert_eq!(advice.mode, OperatingMode::LowPower);
    }

    #[test]
    #[should_panic(expected = "risk tolerance")]
    fn bad_tolerance_panics() {
        let _ = advisor(0.0);
    }
}
