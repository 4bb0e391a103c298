//! Chip-cost effects of reclaiming binned-out parts.
//!
//! §5.A: "cost per hardware part may be reduced as parts that previously
//! would have been discarded by binning procedure, will be useful with
//! UniServer approach" — because per-part EOP characterization lets
//! *every* functional chip ship at its own capabilities instead of
//! being discarded for missing the lowest bin.

use rand::rngs::StdRng;
use rand::SeedableRng;
use uniserver_units::Megahertz;

use uniserver_silicon::binning::bin_population;
use uniserver_silicon::variation::VariationParams;

/// Yield comparison between conventional binning and UniServer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldComparison {
    /// Sellable fraction under conventional binning.
    pub binned_yield: f64,
    /// Sellable fraction with per-part EOP characterization (every
    /// functional die ships).
    pub uniserver_yield: f64,
    /// Effective cost-per-sellable-chip ratio (binned / UniServer).
    pub chip_cost_ratio: f64,
}

/// Simulates a chip population and compares yields.
///
/// `functional_fraction` accounts for hard defects that no amount of
/// margin tuning recovers (those dies are dead either way).
///
/// # Panics
///
/// Panics if `population` is zero or `functional_fraction` outside
/// `(0, 1]`.
#[must_use]
pub fn compare_yields(
    population: usize,
    lowest_bin: Megahertz,
    nominal: Megahertz,
    functional_fraction: f64,
    seed: u64,
) -> YieldComparison {
    assert!(population > 0, "population must be non-empty");
    assert!(
        functional_fraction > 0.0 && functional_fraction <= 1.0,
        "functional fraction must be in (0, 1], got {functional_fraction}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let chips = VariationParams::server_28nm().sample_population(population, 8, 8, &mut rng);
    let report = bin_population(&chips, nominal, Megahertz::new(100.0), lowest_bin);

    let binned_yield = report.yield_fraction() * functional_fraction;
    // UniServer ships every functional die at its measured EOP.
    let uniserver_yield = functional_fraction;
    YieldComparison {
        binned_yield,
        uniserver_yield,
        chip_cost_ratio: uniserver_yield / binned_yield,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniserver_reclaims_the_binning_losses() {
        let cmp = compare_yields(
            4_000,
            Megahertz::from_ghz(2.4),
            Megahertz::from_ghz(2.4),
            0.9,
            7,
        );
        assert!(cmp.binned_yield < cmp.uniserver_yield);
        assert!(cmp.chip_cost_ratio > 1.0);
        // With the lowest bin at nominal, roughly half the distribution
        // is below it — a substantial reclaim.
        assert!(cmp.chip_cost_ratio > 1.3, "cost ratio {}", cmp.chip_cost_ratio);
    }

    #[test]
    fn lenient_binning_narrows_the_gap() {
        let strict = compare_yields(4_000, Megahertz::from_ghz(2.4), Megahertz::from_ghz(2.4), 0.9, 7);
        let lenient = compare_yields(4_000, Megahertz::from_ghz(2.0), Megahertz::from_ghz(2.4), 0.9, 7);
        assert!(lenient.chip_cost_ratio < strict.chip_cost_ratio);
    }

    #[test]
    fn hard_defects_cap_both_approaches() {
        let cmp = compare_yields(2_000, Megahertz::from_ghz(2.0), Megahertz::from_ghz(2.4), 0.5, 7);
        assert!(cmp.uniserver_yield <= 0.5);
        assert!(cmp.binned_yield <= 0.5);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_population_panics() {
        let _ = compare_yields(0, Megahertz::from_ghz(2.0), Megahertz::from_ghz(2.4), 0.9, 7);
    }
}
