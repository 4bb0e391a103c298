//! Transistor aging: Vmin drift over deployment time.
//!
//! The paper's StressLog daemon exists because safe margins are not
//! static — "these new values may need to be updated several times over
//! the lifetime of a server due to the aging effects of the machine"
//! (§3.D). NBTI/PBTI-style aging follows a sub-linear power law in time:
//! `ΔVmin(t) = A · t^n` with `n ≈ 0.2–0.25`, fast at first and slowing
//! down, which is why periodic re-characterization (every 2–3 months)
//! works.

/// Power-law Vmin drift model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgingModel {
    /// Drift coefficient in millivolts (drift after one month).
    pub coeff_mv: f64,
    /// Time exponent of the power law.
    pub time_exponent: f64,
}

impl AgingModel {
    /// Typical NBTI-dominated drift: ~8 mV after the first month,
    /// ~20 mV after three years.
    #[must_use]
    pub fn typical_nbti() -> Self {
        AgingModel { coeff_mv: 8.0, time_exponent: 0.25 }
    }

    /// Vmin drift after `months` of deployment, in millivolts.
    ///
    /// # Panics
    ///
    /// Panics if `months` is negative.
    #[must_use]
    pub fn drift_mv(&self, months: f64) -> f64 {
        assert!(months >= 0.0, "deployment time must be non-negative, got {months}");
        self.coeff_mv * months.powf(self.time_exponent)
    }
}

impl Default for AgingModel {
    fn default() -> Self {
        AgingModel::typical_nbti()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_is_monotonic_and_sublinear() {
        let m = AgingModel::typical_nbti();
        let d1 = m.drift_mv(1.0);
        let d4 = m.drift_mv(4.0);
        let d16 = m.drift_mv(16.0);
        assert!(d1 < d4 && d4 < d16);
        // Power law with n = 0.25: quadrupling time multiplies drift by sqrt(2).
        assert!((d4 / d1 - 2f64.powf(0.5)).abs() < 1e-9);
        assert!((d16 / d4 - 2f64.powf(0.5)).abs() < 1e-9);
    }

    #[test]
    fn three_year_drift_is_tens_of_millivolts() {
        let d = AgingModel::typical_nbti().drift_mv(36.0);
        assert!((15.0..30.0).contains(&d), "3-year drift {d} mV");
    }

    #[test]
    fn later_recharacterization_intervals_drift_less() {
        let m = AgingModel::typical_nbti();
        // The same 3-month window drifts less the older the machine is —
        // the rationale for a fixed re-characterization period being safe.
        let early = m.drift_mv(3.0) - m.drift_mv(0.0);
        let late = m.drift_mv(27.0) - m.drift_mv(24.0);
        assert!(late < early / 3.0, "early {early} vs late {late}");
    }

    #[test]
    fn zero_time_means_zero_drift() {
        assert_eq!(AgingModel::typical_nbti().drift_mv(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_panics() {
        let _ = AgingModel::typical_nbti().drift_mv(-1.0);
    }
}
