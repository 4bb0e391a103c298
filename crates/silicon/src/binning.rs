//! Speed binning of manufactured chip populations (paper Figure 1).
//!
//! Manufacturers sort chips into discrete frequency bins; everything that
//! misses the lowest bin is discarded. UniServer's pitch is that binning
//! is coarse — within any bin, each chip (and each core) still has unused
//! capability. This module reproduces the binning view of a population and
//! the yield numbers the TCO model consumes.

use uniserver_units::Megahertz;

use crate::variation::ChipProfile;

/// A discrete speed bin: chips whose maximum frequency is at least
/// `floor_mhz` (but below the next bin's floor) are sold at `floor_mhz`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedBin {
    /// Frequency the bin is sold at.
    pub floor: Megahertz,
    /// Number of chips landing in the bin.
    pub count: usize,
}

/// Result of binning a population.
#[derive(Debug, Clone, PartialEq)]
pub struct BinningReport {
    /// Bins in ascending frequency order; all non-empty edges kept.
    pub bins: Vec<SpeedBin>,
    /// Chips too slow for the lowest bin — discarded (lost yield).
    pub discarded: usize,
    /// Total population size.
    pub population: usize,
}

impl BinningReport {
    /// Sellable fraction of the population.
    ///
    /// # Panics
    ///
    /// Panics if the report covers an empty population.
    #[must_use]
    pub fn yield_fraction(&self) -> f64 {
        assert!(self.population > 0, "yield undefined for an empty population");
        1.0 - self.discarded as f64 / self.population as f64
    }

    /// Average frequency *sold* per sellable chip — the revenue-weighted
    /// view a vendor cares about.
    #[must_use]
    pub fn mean_sold_frequency(&self) -> Megahertz {
        let sold: usize = self.bins.iter().map(|b| b.count).sum();
        if sold == 0 {
            return Megahertz::new(0.0);
        }
        let total: f64 = self.bins.iter().map(|b| b.floor.as_mhz() * b.count as f64).sum();
        Megahertz::new(total / sold as f64)
    }

    /// Average *capability* thrown away per sold chip: the gap between
    /// each chip's true Fmax and the bin floor it is sold at, in MHz.
    /// This is the headroom UniServer reclaims.
    #[must_use]
    pub fn mean_wasted_headroom(
        &self,
        population: &[ChipProfile],
        nominal: Megahertz,
        bin_step: Megahertz,
        lowest_bin: Megahertz,
    ) -> Megahertz {
        let mut wasted = 0.0;
        let mut sold = 0usize;
        for chip in population {
            let fmax = chip_fmax(chip, nominal);
            if let Some(bin) = bin_for(fmax, bin_step, lowest_bin) {
                wasted += fmax.as_mhz() - bin.as_mhz();
                sold += 1;
            }
        }
        if sold == 0 {
            Megahertz::new(0.0)
        } else {
            Megahertz::new(wasted / sold as f64)
        }
    }
}

/// Maximum stable chip frequency: limited by its *slowest* core, which is
/// exactly the worst-case coupling the paper criticizes.
#[must_use]
pub fn chip_fmax(chip: &ChipProfile, nominal: Megahertz) -> Megahertz {
    let worst = (0..chip.cores.len())
        .map(|c| chip.core_fmax_factor(c))
        .fold(f64::MAX, f64::min);
    nominal.scaled(worst.max(0.0))
}

/// The bin floor for a chip of the given Fmax, or `None` if it is below
/// the lowest sellable bin.
#[must_use]
pub fn bin_for(fmax: Megahertz, bin_step: Megahertz, lowest_bin: Megahertz) -> Option<Megahertz> {
    if fmax < lowest_bin {
        return None;
    }
    let steps = ((fmax.as_mhz() - lowest_bin.as_mhz()) / bin_step.as_mhz()).floor();
    Some(Megahertz::new(lowest_bin.as_mhz() + steps * bin_step.as_mhz()))
}

/// Bins a population (Figure 1's histogram).
///
/// # Panics
///
/// Panics if `bin_step` is zero.
#[must_use]
pub fn bin_population(
    population: &[ChipProfile],
    nominal: Megahertz,
    bin_step: Megahertz,
    lowest_bin: Megahertz,
) -> BinningReport {
    assert!(bin_step.as_mhz() > 0.0, "bin step must be positive");
    let mut counts: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
    let mut discarded = 0usize;
    for chip in population {
        match bin_for(chip_fmax(chip, nominal), bin_step, lowest_bin) {
            Some(floor) => *counts.entry(floor.as_mhz().round() as u64).or_insert(0) += 1,
            None => discarded += 1,
        }
    }
    let bins = counts
        .into_iter()
        .map(|(mhz, count)| SpeedBin { floor: Megahertz::new(mhz as f64), count })
        .collect();
    BinningReport { bins, discarded, population: population.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variation::VariationParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn population(n: usize) -> Vec<ChipProfile> {
        let mut rng = StdRng::seed_from_u64(11);
        VariationParams::server_28nm().sample_population(n, 4, 8, &mut rng)
    }

    #[test]
    fn bins_cover_population() {
        let pop = population(2_000);
        let report =
            bin_population(&pop, Megahertz::from_ghz(2.6), Megahertz::new(100.0), Megahertz::from_ghz(2.2));
        let binned: usize = report.bins.iter().map(|b| b.count).sum();
        assert_eq!(binned + report.discarded, 2_000);
        assert!(report.bins.len() > 3, "expect a spread of bins, got {}", report.bins.len());
    }

    #[test]
    fn yield_fraction_is_sane() {
        let pop = population(2_000);
        let report =
            bin_population(&pop, Megahertz::from_ghz(2.6), Megahertz::new(100.0), Megahertz::from_ghz(2.2));
        let y = report.yield_fraction();
        assert!(y > 0.5 && y <= 1.0, "yield {y}");
    }

    #[test]
    fn raising_lowest_bin_lowers_yield() {
        let pop = population(2_000);
        let nominal = Megahertz::from_ghz(2.6);
        let step = Megahertz::new(100.0);
        let lenient = bin_population(&pop, nominal, step, Megahertz::from_ghz(2.0));
        let strict = bin_population(&pop, nominal, step, Megahertz::from_ghz(2.6));
        assert!(strict.yield_fraction() < lenient.yield_fraction());
    }

    #[test]
    fn bin_floor_quantizes_downwards() {
        let step = Megahertz::new(100.0);
        let lowest = Megahertz::from_ghz(2.0);
        assert_eq!(bin_for(Megahertz::new(2_351.0), step, lowest), Some(Megahertz::new(2_300.0)));
        assert_eq!(bin_for(Megahertz::new(2_000.0), step, lowest), Some(Megahertz::new(2_000.0)));
        assert_eq!(bin_for(Megahertz::new(1_999.0), step, lowest), None);
    }

    #[test]
    fn wasted_headroom_is_positive_and_below_step() {
        let pop = population(2_000);
        let nominal = Megahertz::from_ghz(2.6);
        let step = Megahertz::new(100.0);
        let lowest = Megahertz::from_ghz(2.0);
        let report = bin_population(&pop, nominal, step, lowest);
        let waste = report.mean_wasted_headroom(&pop, nominal, step, lowest);
        assert!(waste.as_mhz() > 0.0);
        assert!(waste.as_mhz() < step.as_mhz());
    }

    #[test]
    fn chip_fmax_uses_slowest_core() {
        use crate::variation::{BankProfile, CoreProfile};
        let chip = ChipProfile {
            chip_id: 0,
            speed_factor: 0.0,
            leakage_factor: 1.0,
            vmin_shift: 0.0,
            cores: vec![
                CoreProfile { index: 0, speed_offset: 0.10, vmin_offset: 0.0 },
                CoreProfile { index: 1, speed_offset: -0.10, vmin_offset: 0.0 },
            ],
            banks: vec![BankProfile { index: 0, vmin_offset: 0.0 }],
        };
        let fmax = chip_fmax(&chip, Megahertz::new(1_000.0));
        assert!((fmax.as_mhz() - 900.0).abs() < 1e-9);
    }
}
