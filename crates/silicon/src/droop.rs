//! Workload-induced voltage droop (Table 1's largest guard-band source).
//!
//! Supply droop has a static IR component proportional to switching
//! activity and a dynamic `L·di/dt` component that peaks when current
//! transients align with the power-delivery network's resonance (tens of
//! MHz). Stress viruses (paper §3.B) are programs evolved to maximize the
//! combination; normal workloads sit far below them, which is precisely
//! why the worst-case droop guard-band is pessimistic.

/// First-order droop model mapping workload excitation to the fraction of
/// nominal voltage lost at the worst on-die point.
#[derive(Debug, Clone, PartialEq)]
pub struct DroopModel {
    /// Droop present even at idle (clock grid, background activity).
    pub idle_fraction: f64,
    /// IR-drop gain with switching activity (fraction at activity = 1).
    pub activity_gain: f64,
    /// `L·di/dt` gain with current-transient intensity.
    pub didt_gain: f64,
    /// Extra gain when transients align with the PDN resonance.
    pub resonance_gain: f64,
}

impl DroopModel {
    /// Calibrated so a perfect virus (all excitations at 1.0) produces a
    /// droop just under the ~20 % guard-band of Table 1, and typical SPEC
    /// workloads produce a few percent.
    #[must_use]
    pub fn typical_server_pdn() -> Self {
        DroopModel {
            idle_fraction: 0.010,
            activity_gain: 0.050,
            didt_gain: 0.060,
            resonance_gain: 0.070,
        }
    }

    /// Worst-case droop as a fraction of nominal voltage.
    ///
    /// All three excitation inputs are in `[0, 1]`:
    /// * `activity` — average switching activity,
    /// * `didt` — current-transient intensity,
    /// * `resonance` — how well the transients align with the PDN
    ///   resonance frequency.
    ///
    /// # Panics
    ///
    /// Panics if any excitation lies outside `[0, 1]`.
    #[must_use]
    pub fn droop_fraction(&self, activity: f64, didt: f64, resonance: f64) -> f64 {
        for (name, v) in [("activity", activity), ("didt", didt), ("resonance", resonance)] {
            assert!((0.0..=1.0).contains(&v), "{name} excitation must be in [0, 1], got {v}");
        }
        self.idle_fraction
            + self.activity_gain * activity
            + self.didt_gain * didt
            // Resonance multiplies the transient term: no transients, no
            // resonant amplification.
            + self.resonance_gain * didt * resonance
    }

    /// The droop of the theoretical worst virus (all excitations 1.0).
    #[must_use]
    pub(crate) fn virus_ceiling(&self) -> f64 {
        self.droop_fraction(1.0, 1.0, 1.0)
    }

    /// Normalizes a droop to a `[0, 1]` stress scalar relative to the
    /// virus ceiling. Used by the Vmin model to couple workload stress
    /// into crash points.
    #[must_use]
    pub fn stress_scalar(&self, droop: f64) -> f64 {
        let ceiling = self.virus_ceiling();
        ((droop - self.idle_fraction) / (ceiling - self.idle_fraction)).clamp(0.0, 1.0)
    }
}

impl Default for DroopModel {
    fn default() -> Self {
        DroopModel::typical_server_pdn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virus_ceiling_matches_table1_magnitude() {
        let m = DroopModel::typical_server_pdn();
        let ceiling = m.virus_ceiling();
        // Table 1 lists ~20 % guard-band against droops; the virus should
        // land close to (but within) it.
        assert!(ceiling > 0.15 && ceiling <= 0.20, "ceiling {ceiling}");
    }

    #[test]
    fn idle_workload_droops_least() {
        let m = DroopModel::typical_server_pdn();
        assert_eq!(m.droop_fraction(0.0, 0.0, 0.0), m.idle_fraction);
    }

    #[test]
    fn droop_is_monotonic_in_each_excitation() {
        let m = DroopModel::typical_server_pdn();
        let base = m.droop_fraction(0.4, 0.4, 0.4);
        assert!(m.droop_fraction(0.6, 0.4, 0.4) > base);
        assert!(m.droop_fraction(0.4, 0.6, 0.4) > base);
        assert!(m.droop_fraction(0.4, 0.4, 0.6) > base);
    }

    #[test]
    fn resonance_alone_adds_nothing() {
        let m = DroopModel::typical_server_pdn();
        assert_eq!(m.droop_fraction(0.0, 0.0, 1.0), m.idle_fraction);
    }

    #[test]
    fn stress_scalar_normalizes() {
        let m = DroopModel::typical_server_pdn();
        assert_eq!(m.stress_scalar(m.idle_fraction), 0.0);
        assert_eq!(m.stress_scalar(m.virus_ceiling()), 1.0);
        let mid = m.droop_fraction(0.5, 0.5, 0.5);
        let s = m.stress_scalar(mid);
        assert!(s > 0.0 && s < 1.0);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn out_of_range_excitation_panics() {
        let _ = DroopModel::typical_server_pdn().droop_fraction(1.5, 0.0, 0.0);
    }
}
