//! Per-core minimum-voltage (crash point) and cache ECC-onset models.
//!
//! This is the behavioural core behind Table 2: undervolting a part in
//! small steps produces, per core and per workload, (1) a window where
//! cache SECDED corrections appear and (2) a crash voltage. The model's
//! free parameters are calibrated per part in `uniserver-platform`.

use rand::Rng;
use uniserver_units::Volts;

use crate::math::sigmoid;
use crate::rng::{normal, poisson};

/// Crash-point and cache-error model for one part type.
///
/// Conventions: *offsets* are fractions of nominal voltage below nominal
/// (`0.10` = the part crashes 10 % below nominal). A *weak* core (positive
/// manufactured `vmin_offset` in [`crate::variation::CoreProfile`]) crashes
/// earlier, i.e. at a smaller undervolt offset.
#[derive(Debug, Clone, PartialEq)]
pub struct VminModel {
    /// Mean crash offset of a typical core running a quiet workload.
    pub base_crash_offset: f64,
    /// How much a fully stressful workload (stress scalar = 1) pulls the
    /// crash point towards nominal.
    pub stress_gain: f64,
    /// Amplification of manufactured per-core Vmin offsets.
    pub core_gain: f64,
    /// Interaction: *weak* cores (positive manufactured offset) are
    /// disproportionally sensitive to workload stress, widening the
    /// core-to-core spread under stressful benchmarks. Applied per unit
    /// of positive weakness (scaled ×10 internally since weaknesses are
    /// a few percent); strong cores get no bonus — stress can only pull
    /// crash points towards nominal, never away (§3.B's monotonicity).
    pub stress_core_interaction: f64,
    /// Run-to-run jitter sigma (fraction of nominal).
    pub run_jitter_sigma: f64,
    /// Mean millivolts above the crash point where cache SECDED
    /// corrections start appearing. Negative means the cache keeps
    /// correcting below the core's crash point, so CEs are never observed
    /// (the paper's high-end i7 behaviour).
    pub cache_onset_above_crash_mv: f64,
    /// Sigma of the cache-onset window in millivolts.
    pub cache_onset_sigma_mv: f64,
    /// Cache CE Poisson rate per millivolt below the onset, per run.
    pub cache_ce_rate_per_mv: f64,
    /// Softness of the crash transition in millivolts (for probability
    /// queries near the crash point).
    pub crash_softness_mv: f64,
}

impl VminModel {
    /// Crash offset (fraction below nominal) for one core/workload/run.
    ///
    /// * `core_weakness` — manufactured fractional Vmin offset of the core
    ///   (chip + core components; positive = weaker).
    /// * `stress` — workload stress scalar in `[0, 1]` (see
    ///   [`crate::droop::DroopModel::stress_scalar`]).
    ///
    /// # Panics
    ///
    /// Panics if `stress` lies outside `[0, 1]`.
    pub fn crash_offset<R: Rng + ?Sized>(
        &self,
        core_weakness: f64,
        stress: f64,
        rng: &mut R,
    ) -> f64 {
        assert!((0.0..=1.0).contains(&stress), "stress must be in [0, 1], got {stress}");
        let jitter = normal(rng, 0.0, self.run_jitter_sigma);
        self.jittered_offset(core_weakness, stress, jitter)
    }

    /// The crash offset for a given run jitter: monotone non-decreasing
    /// in `jitter`, operation for operation, so a bound on the jitter
    /// bounds the offset exactly.
    fn jittered_offset(&self, core_weakness: f64, stress: f64, jitter: f64) -> f64 {
        // Stress strictly shrinks the margin; weak cores (positive
        // weakness) are extra stress-sensitive, strong cores are not
        // extra-tolerant (monotonicity of §3.B).
        let stress_sensitivity = self.stress_gain
            * (1.0 + self.stress_core_interaction * 10.0 * core_weakness.max(0.0));
        let offset = self.base_crash_offset
            - stress_sensitivity * stress
            - self.core_gain * core_weakness
            + jitter;
        offset.max(0.005) // a part that crashes above nominal is dead on arrival
    }

    /// Crash voltage for one core/workload/run.
    pub fn crash_voltage<R: Rng + ?Sized>(
        &self,
        nominal: Volts,
        core_weakness: f64,
        stress: f64,
        rng: &mut R,
    ) -> Volts {
        let offset = self.crash_offset(core_weakness, stress, rng);
        nominal.scaled(1.0 - offset)
    }

    /// The highest crash voltage [`VminModel::crash_voltage`] can return
    /// when its run's standard normal deviate is at least `-z_max`: the
    /// same arithmetic at the extreme jitter, so it is an exact upper
    /// bound (every step is monotone in the deviate).
    ///
    /// # Panics
    ///
    /// Panics if `stress` lies outside `[0, 1]`.
    #[must_use]
    pub fn crash_voltage_bound(&self, nominal: Volts, core_weakness: f64, stress: f64, z_max: f64) -> Volts {
        assert!((0.0..=1.0).contains(&stress), "stress must be in [0, 1], got {stress}");
        let jitter = 0.0 + self.run_jitter_sigma * -z_max;
        nominal.scaled(1.0 - self.jittered_offset(core_weakness, stress, jitter))
    }

    /// Voltage at which cache SECDED corrections begin for a bank, given
    /// the core crash voltage of the same run. May be *below* the crash
    /// voltage (then CEs are never observable on this part).
    pub fn cache_onset_voltage<R: Rng + ?Sized>(
        &self,
        crash: Volts,
        bank_weakness: f64,
        rng: &mut R,
    ) -> Volts {
        let window_mv = normal(rng, self.cache_onset_above_crash_mv, self.cache_onset_sigma_mv)
            + bank_weakness * 1000.0;
        Self::onset_above(crash, window_mv)
    }

    /// The highest onset [`VminModel::cache_onset_voltage`] can return
    /// for a crash voltage at most `crash_bound` and an onset deviate at
    /// most `z_max`: the same arithmetic at the extremes, monotone in
    /// both, so an exact upper bound.
    #[must_use]
    pub fn cache_onset_bound(&self, crash_bound: Volts, bank_weakness: f64, z_max: f64) -> Volts {
        let window_mv = (self.cache_onset_above_crash_mv + self.cache_onset_sigma_mv * z_max)
            + bank_weakness * 1000.0;
        Self::onset_above(crash_bound, window_mv)
    }

    fn onset_above(crash: Volts, window_mv: f64) -> Volts {
        let onset_mv = crash.as_millivolts() + window_mv;
        Volts::from_millivolts(onset_mv.max(0.0))
    }

    /// Number of cache corrected errors observed during one run at supply
    /// `v`, given the bank's onset voltage. Zero at or above the onset;
    /// Poisson with a rate growing linearly below it.
    pub fn cache_ce_count<R: Rng + ?Sized>(&self, v: Volts, onset: Volts, rng: &mut R) -> u64 {
        if v >= onset {
            return 0;
        }
        let depth_mv = onset.as_millivolts() - v.as_millivolts();
        poisson(rng, self.cache_ce_rate_per_mv * depth_mv)
    }

    /// Probability that a run at supply `v` crashes, given the run's crash
    /// voltage. A soft transition (width [`VminModel::crash_softness_mv`])
    /// models metastability right at the edge; the predictor trains on
    /// this curve's samples.
    #[must_use]
    pub fn crash_probability(&self, v: Volts, crash: Volts) -> f64 {
        let x = (crash.as_millivolts() - v.as_millivolts()) / self.crash_softness_mv;
        sigmoid(x)
    }
}

impl Default for VminModel {
    /// A mid-range server part: ~12 % quiet-workload margin.
    fn default() -> Self {
        VminModel {
            base_crash_offset: 0.12,
            stress_gain: 0.03,
            core_gain: 1.0,
            stress_core_interaction: 0.5,
            run_jitter_sigma: 0.002,
            cache_onset_above_crash_mv: 15.0,
            cache_onset_sigma_mv: 3.0,
            cache_ce_rate_per_mv: 0.5,
            crash_softness_mv: 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn stress_pulls_crash_point_towards_nominal() {
        let m = VminModel::default();
        let mut r = rng();
        let quiet: f64 =
            (0..200).map(|_| m.crash_offset(0.0, 0.0, &mut r)).sum::<f64>() / 200.0;
        let loud: f64 = (0..200).map(|_| m.crash_offset(0.0, 1.0, &mut r)).sum::<f64>() / 200.0;
        assert!(loud < quiet, "stressed {loud} should crash earlier than quiet {quiet}");
        assert!((quiet - loud - m.stress_gain).abs() < 0.005);
    }

    #[test]
    fn weak_cores_crash_earlier() {
        let m = VminModel::default();
        let mut r = rng();
        let strong: f64 =
            (0..200).map(|_| m.crash_offset(-0.02, 0.5, &mut r)).sum::<f64>() / 200.0;
        let weak: f64 = (0..200).map(|_| m.crash_offset(0.02, 0.5, &mut r)).sum::<f64>() / 200.0;
        assert!(weak < strong);
    }

    #[test]
    fn crash_voltage_is_below_nominal() {
        let m = VminModel::default();
        let mut r = rng();
        let nominal = Volts::new(0.844);
        for _ in 0..100 {
            let v = m.crash_voltage(nominal, 0.0, 0.3, &mut r);
            assert!(v < nominal);
            assert!(v.as_volts() > 0.6 * nominal.as_volts());
        }
    }

    #[test]
    fn cache_ces_appear_only_below_onset() {
        let m = VminModel::default();
        let mut r = rng();
        let onset = Volts::from_millivolts(760.0);
        assert_eq!(m.cache_ce_count(Volts::from_millivolts(765.0), onset, &mut r), 0);
        assert_eq!(m.cache_ce_count(onset, onset, &mut r), 0);
        let below: u64 =
            (0..50).map(|_| m.cache_ce_count(Volts::from_millivolts(745.0), onset, &mut r)).sum();
        assert!(below > 0, "expected some CEs below onset");
    }

    #[test]
    fn ce_rate_grows_with_depth() {
        let m = VminModel::default();
        let mut r = rng();
        let onset = Volts::from_millivolts(800.0);
        let shallow: u64 =
            (0..300).map(|_| m.cache_ce_count(Volts::from_millivolts(795.0), onset, &mut r)).sum();
        let deep: u64 =
            (0..300).map(|_| m.cache_ce_count(Volts::from_millivolts(780.0), onset, &mut r)).sum();
        assert!(deep > shallow);
    }

    #[test]
    fn negative_onset_window_hides_ces() {
        // i7-like part: cache onset below the crash point.
        let m = VminModel { cache_onset_above_crash_mv: -10.0, ..VminModel::default() };
        let mut r = rng();
        let crash = Volts::from_millivolts(1_200.0);
        let onset = m.cache_onset_voltage(crash, 0.0, &mut r);
        // Any observable (above-crash) voltage sees zero CEs.
        let v_above_crash = Volts::from_millivolts(1_205.0);
        assert_eq!(m.cache_ce_count(v_above_crash, onset, &mut r), 0);
    }

    #[test]
    fn crash_probability_is_half_at_crash_point() {
        let m = VminModel::default();
        let crash = Volts::new(0.760);
        assert!((m.crash_probability(crash, crash) - 0.5).abs() < 1e-12);
        assert!(m.crash_probability(Volts::new(0.780), crash) < 0.01);
        assert!(m.crash_probability(Volts::new(0.740), crash) > 0.99);
    }

    #[test]
    #[should_panic(expected = "stress must be in [0, 1]")]
    fn stress_out_of_range_panics() {
        let _ = VminModel::default().crash_offset(0.0, 1.5, &mut rng());
    }
}
