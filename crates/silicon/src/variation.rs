//! Process variation: every manufactured chip, core and memory bank is
//! intrinsically different (paper Figure 1).
//!
//! The model follows the usual decomposition of within-die and die-to-die
//! variation: a chip-level (systematic) component shared by all resources
//! on the die plus an independent per-core / per-bank (random) component.
//! Speed, leakage and Vmin are sampled jointly — fast chips tend to leak
//! more, a correlation the TCO yield model relies on.

use rand::Rng;

use crate::rng::{normal, truncated_normal};

/// Parameters of the process-variation model for one technology node.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationParams {
    /// Die-to-die sigma of the speed factor (fraction of nominal Fmax).
    pub chip_speed_sigma: f64,
    /// Within-die, per-core sigma of the speed factor.
    pub core_speed_sigma: f64,
    /// Die-to-die sigma of the Vmin offset (fraction of nominal voltage).
    pub chip_vmin_sigma: f64,
    /// Within-die, per-core sigma of the Vmin offset.
    pub core_vmin_sigma: f64,
    /// Within-die, per-cache-bank sigma of the Vmin offset.
    pub bank_vmin_sigma: f64,
    /// Die-to-die sigma of the (lognormal) leakage factor.
    pub leakage_sigma_ln: f64,
    /// Correlation between speed and leakage (fast chips leak more).
    pub speed_leakage_correlation: f64,
}

impl VariationParams {
    /// Variation magnitudes representative of a 28 nm planar server part
    /// (the paper cites >30 % combined timing/voltage margins measured on
    /// 28 nm ARM silicon [Whatmough, ISSCC'15]).
    #[must_use]
    pub fn server_28nm() -> Self {
        VariationParams {
            chip_speed_sigma: 0.05,
            core_speed_sigma: 0.015,
            chip_vmin_sigma: 0.025,
            core_vmin_sigma: 0.012,
            bank_vmin_sigma: 0.010,
            leakage_sigma_ln: 0.25,
            speed_leakage_correlation: 0.6,
        }
    }

    /// Tighter distribution for a mature 14 nm FinFET node: FinFETs cut
    /// random variation and leakage spread (the paper's Table 3 banks on
    /// FinFET adoption for part of its efficiency gains).
    #[must_use]
    pub fn server_14nm_finfet() -> Self {
        VariationParams {
            chip_speed_sigma: 0.035,
            core_speed_sigma: 0.010,
            chip_vmin_sigma: 0.018,
            core_vmin_sigma: 0.008,
            bank_vmin_sigma: 0.007,
            leakage_sigma_ln: 0.15,
            speed_leakage_correlation: 0.5,
        }
    }

    /// Samples one manufactured chip with `cores` CPU cores and `banks`
    /// cache banks.
    ///
    /// # Panics
    ///
    /// Panics if `cores` or `banks` is zero.
    pub fn sample_chip<R: Rng + ?Sized>(
        &self,
        chip_id: u64,
        cores: usize,
        banks: usize,
        rng: &mut R,
    ) -> ChipProfile {
        assert!(cores > 0, "a chip must have at least one core");
        assert!(banks > 0, "a chip must have at least one cache bank");

        // Joint speed/leakage sample with the configured correlation.
        let z_speed = normal(rng, 0.0, 1.0);
        let z_indep = normal(rng, 0.0, 1.0);
        let rho = self.speed_leakage_correlation;
        let z_leak = rho * z_speed + (1.0 - rho * rho).sqrt() * z_indep;

        let speed_factor = z_speed * self.chip_speed_sigma;
        let leakage_factor = (z_leak * self.leakage_sigma_ln).exp();
        // Faster chips sit lower on the Vmin distribution (better devices),
        // hence the negative coupling; truncate so Vmin offsets stay sane.
        let vmin_shift = truncated_normal(rng, -0.3 * speed_factor, self.chip_vmin_sigma, -0.10, 0.10);

        let cores = (0..cores)
            .map(|index| CoreProfile {
                index,
                speed_offset: normal(rng, 0.0, self.core_speed_sigma),
                vmin_offset: truncated_normal(rng, 0.0, self.core_vmin_sigma, -0.06, 0.06),
            })
            .collect();
        let banks = (0..banks)
            .map(|index| BankProfile {
                index,
                vmin_offset: truncated_normal(rng, 0.0, self.bank_vmin_sigma, -0.05, 0.05),
            })
            .collect();

        ChipProfile { chip_id, speed_factor, leakage_factor, vmin_shift, cores, banks }
    }

    /// Samples a manufactured population of `n` chips — the input to
    /// binning (Figure 1) and to the TCO yield model.
    pub fn sample_population<R: Rng + ?Sized>(
        &self,
        n: usize,
        cores: usize,
        banks: usize,
        rng: &mut R,
    ) -> Vec<ChipProfile> {
        (0..n).map(|id| self.sample_chip(id as u64, cores, banks, rng)).collect()
    }
}

impl Default for VariationParams {
    fn default() -> Self {
        VariationParams::server_28nm()
    }
}

/// The manufactured identity of one chip: its systematic offsets plus the
/// per-core and per-bank random components.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipProfile {
    /// Identifier within its population.
    pub chip_id: u64,
    /// Fractional speed offset of the die (+0.05 = 5 % faster than typical).
    pub speed_factor: f64,
    /// Multiplicative leakage factor of the die (1.0 = typical).
    pub leakage_factor: f64,
    /// Fractional Vmin offset of the die (negative = can run lower).
    pub vmin_shift: f64,
    /// Per-core random components.
    pub cores: Vec<CoreProfile>,
    /// Per-cache-bank random components.
    pub banks: Vec<BankProfile>,
}

impl ChipProfile {
    /// Maximum stable frequency of a core, as a fraction of the nominal
    /// part frequency (chip systematic × core random).
    #[must_use]
    pub fn core_fmax_factor(&self, core: usize) -> f64 {
        let c = &self.cores[core];
        (1.0 + self.speed_factor) * (1.0 + c.speed_offset)
    }

    /// Combined fractional Vmin offset of a core (chip + core components).
    #[must_use]
    pub fn core_vmin_offset(&self, core: usize) -> f64 {
        self.vmin_shift + self.cores[core].vmin_offset
    }

    /// The weakest core's combined Vmin offset — what manufacturing
    /// screening checks against the part's shippable margin.
    ///
    /// # Panics
    ///
    /// Panics if the chip has no cores.
    #[must_use]
    pub fn worst_core_vmin_offset(&self) -> f64 {
        assert!(!self.cores.is_empty(), "a chip profile needs cores");
        (0..self.cores.len())
            .map(|c| self.core_vmin_offset(c))
            .fold(f64::MIN, f64::max)
    }

    /// Spread between the strongest and weakest core's Vmin offset — the
    /// paper's "core-to-core variation" axis of Table 2.
    #[must_use]
    pub fn core_to_core_spread(&self) -> f64 {
        let offsets: Vec<f64> = (0..self.cores.len()).map(|c| self.core_vmin_offset(c)).collect();
        let max = offsets.iter().cloned().fold(f64::MIN, f64::max);
        let min = offsets.iter().cloned().fold(f64::MAX, f64::min);
        max - min
    }
}

/// Per-core manufactured random variation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreProfile {
    /// Index of the core on its die.
    pub index: usize,
    /// Fractional speed offset relative to the die.
    pub speed_offset: f64,
    /// Fractional Vmin offset relative to the die.
    pub vmin_offset: f64,
}

/// Per-cache-bank manufactured random variation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankProfile {
    /// Index of the bank on its die.
    pub index: usize,
    /// Fractional Vmin offset relative to the die.
    pub vmin_offset: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2024)
    }

    #[test]
    fn chip_has_requested_resources() {
        let chip = VariationParams::server_28nm().sample_chip(3, 6, 12, &mut rng());
        assert_eq!(chip.chip_id, 3);
        assert_eq!(chip.cores.len(), 6);
        assert_eq!(chip.banks.len(), 12);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = VariationParams::server_28nm().sample_chip(0, 0, 1, &mut rng());
    }

    #[test]
    fn population_speed_spread_matches_sigma() {
        let params = VariationParams::server_28nm();
        let pop = params.sample_population(4_000, 4, 8, &mut rng());
        let mean = pop.iter().map(|c| c.speed_factor).sum::<f64>() / pop.len() as f64;
        let var = pop.iter().map(|c| (c.speed_factor - mean).powi(2)).sum::<f64>() / pop.len() as f64;
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((var.sqrt() - params.chip_speed_sigma).abs() < 0.005, "sigma {}", var.sqrt());
    }

    #[test]
    fn speed_and_leakage_are_positively_correlated() {
        let pop = VariationParams::server_28nm().sample_population(4_000, 2, 4, &mut rng());
        let n = pop.len() as f64;
        let ms = pop.iter().map(|c| c.speed_factor).sum::<f64>() / n;
        let ml = pop.iter().map(|c| c.leakage_factor.ln()).sum::<f64>() / n;
        let cov = pop
            .iter()
            .map(|c| (c.speed_factor - ms) * (c.leakage_factor.ln() - ml))
            .sum::<f64>()
            / n;
        assert!(cov > 0.0, "covariance {cov} should be positive");
    }

    #[test]
    fn finfet_node_is_tighter() {
        let planar = VariationParams::server_28nm();
        let finfet = VariationParams::server_14nm_finfet();
        assert!(finfet.chip_speed_sigma < planar.chip_speed_sigma);
        assert!(finfet.core_vmin_sigma < planar.core_vmin_sigma);
        assert!(finfet.leakage_sigma_ln < planar.leakage_sigma_ln);
    }

    #[test]
    fn core_to_core_spread_is_non_negative_and_grows_with_cores() {
        let params = VariationParams::server_28nm();
        let mut r = rng();
        let avg_spread = |cores: usize, r: &mut StdRng| {
            (0..300)
                .map(|i| params.sample_chip(i, cores, 4, r).core_to_core_spread())
                .sum::<f64>()
                / 300.0
        };
        let two = avg_spread(2, &mut r);
        let eight = avg_spread(8, &mut r);
        assert!(two >= 0.0);
        // Order statistics: the expected range widens with the sample count.
        assert!(eight > two, "8-core spread {eight} vs 2-core {two}");
    }

    #[test]
    fn fmax_factor_combines_chip_and_core() {
        let chip = ChipProfile {
            chip_id: 0,
            speed_factor: 0.10,
            leakage_factor: 1.0,
            vmin_shift: -0.02,
            cores: vec![CoreProfile { index: 0, speed_offset: 0.05, vmin_offset: 0.01 }],
            banks: vec![BankProfile { index: 0, vmin_offset: 0.0 }],
        };
        assert!((chip.core_fmax_factor(0) - 1.155).abs() < 1e-12);
        assert!((chip.core_vmin_offset(0) + 0.01).abs() < 1e-12);
    }
}
