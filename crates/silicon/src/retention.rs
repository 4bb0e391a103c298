//! DRAM cell retention statistics (paper §6.B).
//!
//! Cell retention times follow a lognormal distribution with a deep weak
//! tail; refresh intervals shorter than the weakest cell's retention are
//! error-free. The model is calibrated to the paper's measurements on an
//! 8 GB DDR3 module in an air-conditioned server room:
//!
//! * refresh relaxed from 64 ms up to **1.5 s** → *no* errors;
//! * at **5 s** (78× nominal) → cumulative BER ≈ **1e-9**, within
//!   commercial DRAM targets and far below SECDED's ~1e-6 capability.
//!
//! Retention is strongly temperature-dependent (roughly halving every
//! ~10 °C), which the model exposes so reliability domains can be managed
//! across thermal conditions. A small population of variable-retention-
//! time (VRT) cells — cells that intermittently drop to a fraction of
//! their nominal retention — adds the stochastic component observed in
//! retention studies (Liu et al. \[32\]).

use uniserver_units::{Celsius, Seconds};

use crate::math::normal_cdf;

/// Lognormal retention-time model for one DRAM generation.
#[derive(Debug, Clone, PartialEq)]
pub struct RetentionModel {
    /// Mean of ln(retention seconds) at the reference temperature.
    pub mu_ln: f64,
    /// Sigma of ln(retention seconds).
    pub sigma_ln: f64,
    /// Temperature at which `mu_ln` is specified.
    pub reference_temp: Celsius,
    /// Retention halves every this many °C above reference.
    pub halving_celsius: f64,
    /// Fraction of cells subject to variable retention time.
    pub vrt_fraction: f64,
    /// Retention multiplier while a VRT cell sits in its weak state
    /// (spends roughly half its time there).
    pub vrt_penalty: f64,
}

impl RetentionModel {
    /// Calibrated for the paper's 8 GB DDR3 DIMMs at a typical 45 °C
    /// operating DIMM temperature in an air-conditioned room: zero
    /// expected failures at 1.5 s, per-bit fail probability 1e-9 at 5 s.
    #[must_use]
    pub fn ddr3_server() -> Self {
        // Solve (ln t - mu)/sigma for the two calibration points:
        //   P(r < 5 s)   = 1e-9   -> z = -5.998
        //   P(r < 1.5 s) = 1e-13  -> z = -7.3
        RetentionModel {
            mu_ln: 7.158,
            sigma_ln: 0.925,
            reference_temp: Celsius::new(45.0),
            halving_celsius: 10.0,
            vrt_fraction: 2e-6,
            vrt_penalty: 0.3,
        }
    }

    /// Per-bit probability that a cell's retention is shorter than the
    /// refresh interval at the given temperature (i.e. the cell leaks its
    /// value before being refreshed).
    ///
    /// # Panics
    ///
    /// Panics if `refresh` is zero.
    #[must_use]
    pub fn fail_probability(&self, refresh: Seconds, temp: Celsius) -> f64 {
        assert!(refresh.as_secs() > 0.0, "refresh interval must be positive");
        // Retention shrinks by 2^(dT/halving); equivalently the effective
        // refresh interval grows by the same factor.
        let dt = temp.delta_above(self.reference_temp);
        let accel = (dt / self.halving_celsius) * std::f64::consts::LN_2;
        let z = |t: f64| (t.ln() + accel - self.mu_ln) / self.sigma_ln;

        let p_nominal = normal_cdf(z(refresh.as_secs()));
        // A VRT cell in its weak state behaves as if the interval were
        // stretched by 1/penalty; it spends about half its time weak.
        let p_vrt_weak = normal_cdf(z(refresh.as_secs() / self.vrt_penalty));
        (1.0 - self.vrt_fraction) * p_nominal
            + self.vrt_fraction * (0.5 * p_nominal + 0.5 * p_vrt_weak)
    }

    /// Expected number of failing bits among `bits` cells.
    #[must_use]
    pub fn expected_failures(&self, refresh: Seconds, temp: Celsius, bits: u64) -> f64 {
        self.fail_probability(refresh, temp) * bits as f64
    }

    /// Longest refresh interval whose expected failure count over `bits`
    /// cells stays at or below `target_expected` (binary search between
    /// 1 ms and 10 min).
    ///
    /// # Panics
    ///
    /// Panics if `target_expected` is negative.
    #[must_use]
    pub fn max_safe_refresh(&self, temp: Celsius, bits: u64, target_expected: f64) -> Seconds {
        assert!(target_expected >= 0.0, "target must be non-negative");
        let (mut lo, mut hi) = (1e-3, 600.0);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if self.expected_failures(Seconds::new(mid), temp, bits) <= target_expected {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Seconds::new(lo)
    }
}

impl Default for RetentionModel {
    fn default() -> Self {
        RetentionModel::ddr3_server()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniserver_units::BitErrorRate;
    use uniserver_units::Bytes;

    const MODULE_BITS: u64 = Bytes::gib(8).bits();

    fn model() -> RetentionModel {
        RetentionModel::ddr3_server()
    }

    fn op_temp() -> Celsius {
        Celsius::new(45.0)
    }

    #[test]
    fn nominal_refresh_is_error_free() {
        let e = model().expected_failures(Seconds::from_millis(64.0), op_temp(), MODULE_BITS);
        assert!(e < 1e-6, "expected failures at 64 ms: {e}");
    }

    #[test]
    fn paper_point_1500ms_no_errors() {
        let e = model().expected_failures(Seconds::new(1.5), op_temp(), MODULE_BITS);
        assert!(e < 0.2, "expected failures at 1.5 s: {e}");
    }

    #[test]
    fn paper_point_5s_ber_1e9() {
        let ber = BitErrorRate::new(model().fail_probability(Seconds::new(5.0), op_temp()));
        // "in the order of 1e-9".
        assert!(ber.value() > 2e-10 && ber.value() < 5e-9, "BER {ber}");
        assert!(ber.is_correctable_by_secded());
    }

    #[test]
    fn fail_probability_is_monotonic_in_interval() {
        let m = model();
        let mut prev = 0.0;
        for t in [0.064, 0.5, 1.0, 1.5, 3.0, 5.0, 10.0, 60.0] {
            let p = m.fail_probability(Seconds::new(t), op_temp());
            assert!(p >= prev, "p({t}) = {p} < {prev}");
            prev = p;
        }
    }

    #[test]
    fn heat_makes_retention_worse() {
        let m = model();
        let cool = m.fail_probability(Seconds::new(5.0), Celsius::new(35.0));
        let ref_t = m.fail_probability(Seconds::new(5.0), op_temp());
        let hot = m.fail_probability(Seconds::new(5.0), Celsius::new(65.0));
        assert!(cool < ref_t && ref_t < hot);
        // Two halvings (+20 °C) behave like a ~4x longer interval.
        let four_x = m.fail_probability(Seconds::new(20.0), op_temp());
        assert!((hot.ln() - four_x.ln()).abs() < 0.2, "hot {hot} vs 4x {four_x}");
    }

    #[test]
    fn max_safe_refresh_brackets_the_paper_window() {
        let m = model();
        // Allowing ~0.1 expected errors on the module keeps us near the
        // empirically safe 1.5 s point.
        let safe = m.max_safe_refresh(op_temp(), MODULE_BITS, 0.1);
        assert!(
            safe.as_secs() > 1.0 && safe.as_secs() < 3.0,
            "safe refresh {safe} should sit around the paper's 1.5 s"
        );
        // And it is consistent with its own definition.
        let e = m.expected_failures(safe, op_temp(), MODULE_BITS);
        assert!(e <= 0.1 + 1e-6);
    }

    #[test]
    fn vrt_population_raises_the_floor() {
        let base = model();
        let no_vrt = RetentionModel { vrt_fraction: 0.0, ..base.clone() };
        let heavy_vrt = RetentionModel { vrt_fraction: 1e-3, ..base };
        let t = Seconds::new(2.5);
        assert!(
            heavy_vrt.fail_probability(t, op_temp()) > no_vrt.fail_probability(t, op_temp()),
            "VRT cells must add failures"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_refresh_panics() {
        let _ = model().fail_probability(Seconds::ZERO, op_temp());
    }
}
