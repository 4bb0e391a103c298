//! Security threat analysis for EOP operation (§2.viii).
//!
//! "The exposure of new EOP, which if not used carefully may result in
//! system failure, entail new security risks. UniServer plans to
//! identify potential security threats (i.e., side channel attacks) that
//! might be caused to micro-servers and develop low cost
//! countermeasures." The paper does not evaluate this; the reproduction
//! ships the threat model as structured data plus the countermeasure
//! mapping, so the ecosystem can report its security posture.

/// Threats introduced or amplified by operating at EOP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreatVector {
    /// A co-located tenant runs a voltage-noise virus to push a reduced-
    /// margin core over its crash point (denial of service).
    DroopInjectionDos,
    /// Error-rate side channel: observing CE rates leaks co-tenant
    /// activity patterns.
    ErrorRateSideChannel,
    /// Rowhammer-style disturbance is easier at relaxed refresh.
    RefreshDisturbance,
    /// A compromised daemon feeds false margins to the governor.
    MarginSpoofing,
}

impl ThreatVector {
    /// All modeled threats.
    pub const ALL: [ThreatVector; 4] = [
        ThreatVector::DroopInjectionDos,
        ThreatVector::ErrorRateSideChannel,
        ThreatVector::RefreshDisturbance,
        ThreatVector::MarginSpoofing,
    ];

    /// Qualitative likelihood at EOP, in `[0, 1]`.
    #[must_use]
    pub fn likelihood(self) -> f64 {
        match self {
            ThreatVector::DroopInjectionDos => 0.5,
            ThreatVector::ErrorRateSideChannel => 0.3,
            ThreatVector::RefreshDisturbance => 0.4,
            ThreatVector::MarginSpoofing => 0.15,
        }
    }

    /// Qualitative impact, in `[0, 1]`.
    #[must_use]
    pub fn impact(self) -> f64 {
        match self {
            ThreatVector::DroopInjectionDos => 0.6,
            ThreatVector::ErrorRateSideChannel => 0.4,
            ThreatVector::RefreshDisturbance => 0.8,
            ThreatVector::MarginSpoofing => 0.9,
        }
    }

    /// Risk = likelihood × impact.
    #[must_use]
    pub fn risk(self) -> f64 {
        self.likelihood() * self.impact()
    }

    /// The low-cost countermeasure the stack already contains (or that
    /// the project proposes).
    #[must_use]
    pub fn countermeasure(self) -> &'static str {
        match self {
            ThreatVector::DroopInjectionDos => {
                "predictor stress-awareness: suspicious high-droop tenants pull the \
                 governor back towards nominal (ModeAdvisor stress feature)"
            }
            ThreatVector::ErrorRateSideChannel => {
                "HealthLog rate-limits and coarsens CE telemetry exposed to guests"
            }
            ThreatVector::RefreshDisturbance => {
                "reliable-domain placement for integrity-critical pages; ECC scrubbing; \
                 per-domain refresh floors"
            }
            ThreatVector::MarginSpoofing => {
                "margin vectors are signed by the StressLog and sanity-checked against \
                 the MSR hardware limits before the governor applies them"
            }
        }
    }
}

/// The posture report: residual risks sorted high to low.
#[must_use]
pub fn risk_register() -> Vec<(ThreatVector, f64)> {
    let mut v: Vec<(ThreatVector, f64)> =
        ThreatVector::ALL.iter().map(|&t| (t, t.risk())).collect();
    v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("risks are finite"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_sorted_and_complete() {
        let reg = risk_register();
        assert_eq!(reg.len(), ThreatVector::ALL.len());
        for w in reg.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn every_threat_has_a_countermeasure() {
        for t in ThreatVector::ALL {
            assert!(!t.countermeasure().is_empty());
            assert!((0.0..=1.0).contains(&t.risk()));
        }
    }

    #[test]
    fn refresh_disturbance_outranks_side_channels() {
        assert!(ThreatVector::RefreshDisturbance.risk() > ThreatVector::ErrorRateSideChannel.risk());
    }
}
