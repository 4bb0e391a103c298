//! Voltage guard-band decomposition (paper Table 1).
//!
//! Vendors stack margins against worst-case droop (~20 %), Vmin
//! reliability at low voltage (~15 %) and core-to-core variation (~5 %).
//! [`GuardbandBreakdown::industry_practice`] returns the paper's quoted
//! numbers; [`measure`] re-derives comparable numbers from this crate's
//! own models so Table 1 can be *regenerated* rather than transcribed.

use rand::Rng;
use uniserver_units::Ratio;

use crate::droop::DroopModel;
use crate::variation::VariationParams;
use crate::vmin::VminModel;

/// The sources of voltage guard-band and their magnitudes as fractions of
/// nominal voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardbandBreakdown {
    /// Margin held against worst-case supply droop.
    pub voltage_droops: Ratio,
    /// Margin held against functional failure at low voltage (Vmin).
    pub vmin: Ratio,
    /// Margin held against core-to-core variation.
    pub core_to_core: Ratio,
}

impl GuardbandBreakdown {
    /// The values quoted in Table 1 of the paper.
    #[must_use]
    pub fn industry_practice() -> Self {
        GuardbandBreakdown {
            voltage_droops: Ratio::from_percent(20.0),
            vmin: Ratio::from_percent(15.0),
            core_to_core: Ratio::from_percent(5.0),
        }
    }

    /// Total voltage up-scaling a conservative design pays, as a fraction
    /// of nominal (simple sum — the sources stack).
    #[must_use]
    pub fn total(&self) -> Ratio {
        Ratio::new(self.voltage_droops.value() + self.vmin.value() + self.core_to_core.value())
    }

    /// Rows for rendering the table: (source, up-scaling).
    #[must_use]
    pub fn rows(&self) -> [(&'static str, Ratio); 3] {
        [
            ("Voltage droops", self.voltage_droops),
            ("Vmin", self.vmin),
            ("Core-to-core variations", self.core_to_core),
        ]
    }
}

/// Re-measures the guard-band decomposition from the behavioural models:
///
/// * **droop** — the ceiling of the droop model (what a perfect virus
///   provokes, which is what the worst-case margin protects against);
/// * **vmin** — the population-mean quiet-workload crash offset (the
///   voltage headroom the Vmin margin forgoes);
/// * **core-to-core** — the 95th-percentile per-chip core Vmin spread
///   across a sampled population.
pub fn measure<R: Rng + ?Sized>(
    droop: &DroopModel,
    vmin: &VminModel,
    variation: &VariationParams,
    population: usize,
    cores_per_chip: usize,
    rng: &mut R,
) -> GuardbandBreakdown {
    assert!(population > 0, "population must be non-empty");

    let chips = variation.sample_population(population, cores_per_chip, 4, rng);

    // Mean quiet-workload crash offset across all cores in the population.
    let mut offsets = Vec::with_capacity(population * cores_per_chip);
    let mut spreads = Vec::with_capacity(population);
    for chip in &chips {
        let mut chip_offsets = Vec::with_capacity(cores_per_chip);
        for c in 0..cores_per_chip {
            let off = vmin.crash_offset(chip.core_vmin_offset(c), 0.0, rng);
            chip_offsets.push(off);
            offsets.push(off);
        }
        let max = chip_offsets.iter().cloned().fold(f64::MIN, f64::max);
        let min = chip_offsets.iter().cloned().fold(f64::MAX, f64::min);
        spreads.push(max - min);
    }
    let mean_vmin_margin = offsets.iter().sum::<f64>() / offsets.len() as f64;

    spreads.sort_by(|a, b| a.partial_cmp(b).expect("spreads are finite"));
    let p95 = spreads[(spreads.len() as f64 * 0.95) as usize % spreads.len()];

    GuardbandBreakdown {
        voltage_droops: Ratio::new(droop.virus_ceiling()),
        vmin: Ratio::new(mean_vmin_margin),
        core_to_core: Ratio::new(p95),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn industry_numbers_match_table1() {
        let g = GuardbandBreakdown::industry_practice();
        assert_eq!(g.voltage_droops.as_percent(), 20.0);
        assert_eq!(g.vmin.as_percent(), 15.0);
        assert_eq!(g.core_to_core.as_percent(), 5.0);
        assert_eq!(g.total().as_percent(), 40.0);
    }

    #[test]
    fn rows_cover_all_sources() {
        let rows = GuardbandBreakdown::industry_practice().rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].0, "Voltage droops");
    }

    #[test]
    fn measured_breakdown_is_in_table1_ballpark() {
        let mut rng = StdRng::seed_from_u64(5);
        // A Vmin model with ~15 % quiet margin, like Table 1's Vmin row.
        let vmin = VminModel { base_crash_offset: 0.15, ..VminModel::default() };
        let g = measure(
            &DroopModel::typical_server_pdn(),
            &vmin,
            &VariationParams::server_28nm(),
            400,
            8,
            &mut rng,
        );
        // Shapes from Table 1: droop is the biggest source, core-to-core
        // the smallest; magnitudes within a few percent of the quoted ones.
        assert!(g.voltage_droops.value() > g.vmin.value() * 0.8);
        assert!(g.core_to_core < g.vmin);
        assert!((g.voltage_droops.as_percent() - 20.0).abs() < 5.0, "droop {}", g.voltage_droops);
        assert!((g.vmin.as_percent() - 15.0).abs() < 3.0, "vmin {}", g.vmin);
        assert!((g.core_to_core.as_percent() - 5.0).abs() < 3.5, "c2c {}", g.core_to_core);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_population_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = measure(
            &DroopModel::typical_server_pdn(),
            &VminModel::default(),
            &VariationParams::server_28nm(),
            0,
            4,
            &mut rng,
        );
    }
}
