//! Part specifications.
//!
//! A [`PartSpec`] bundles everything manufactured into a processor model:
//! nominal operating point, topology, power model and the calibrated
//! variability/Vmin models. Three parts are provided:
//!
//! * [`PartSpec::i5_4200u`] — the paper's low-end part (2 cores,
//!   0.844 V @ 2.6 GHz) whose caches *do* expose ECC corrections under
//!   undervolting;
//! * [`PartSpec::i7_3970x`] — the high-end part (6 cores, 1.365 V @
//!   4.0 GHz) that crashes before cache errors become visible;
//! * [`PartSpec::arm_microserver`] — the UniServer target, a 64-bit ARM
//!   Server-on-Chip used by the ecosystem experiments.
//!
//! Calibration targets are Table 2 of the paper; the numbers regenerate
//! through `uniserver-stress`'s shmoo campaign, not by transcription.

use uniserver_units::{Bytes, Megahertz, Volts};

use uniserver_silicon::droop::DroopModel;
use uniserver_silicon::power::CorePowerModel;
use uniserver_silicon::variation::VariationParams;
use uniserver_silicon::vmin::VminModel;

/// Static description of a processor part.
#[derive(Debug, Clone, PartialEq)]
pub struct PartSpec {
    /// Marketing name of the part.
    pub name: String,
    /// Number of physical cores.
    pub cores: usize,
    /// Number of last-level-cache banks.
    pub cache_banks: usize,
    /// Nominal supply voltage (VID at the nominal P-state).
    pub nominal_voltage: Volts,
    /// Nominal (maximum non-turbo) frequency.
    pub nominal_frequency: Megahertz,
    /// Last-level cache capacity.
    pub llc_capacity: Bytes,
    /// Per-core power model.
    pub power: CorePowerModel,
    /// Power-delivery-network droop model.
    pub pdn: DroopModel,
    /// Crash-point / cache-onset model.
    pub vmin: VminModel,
    /// Manufacturing variation of the part's process node.
    pub variation: VariationParams,
}

impl PartSpec {
    /// The paper's low-end part: Intel Core i5-4200U-like. Nominal
    /// 0.844 V @ 2.6 GHz, two cores. Crash offsets land in the
    /// −10 %…−11.2 % band, core-to-core variation stays within 2.7 %, and
    /// cache SECDED corrections appear ≈15 mV above the crash point
    /// (1–17 CEs per run).
    #[must_use]
    pub fn i5_4200u() -> Self {
        PartSpec {
            name: "Intel Core i5-4200U (modeled)".into(),
            cores: 2,
            cache_banks: 4,
            nominal_voltage: Volts::new(0.844),
            nominal_frequency: Megahertz::from_ghz(2.6),
            llc_capacity: Bytes::mib(3),
            power: CorePowerModel::mobile_core(),
            pdn: DroopModel::typical_server_pdn(),
            vmin: VminModel {
                base_crash_offset: 0.112,
                stress_gain: 0.016,
                core_gain: 0.55,
                stress_core_interaction: 0.5,
                run_jitter_sigma: 0.0012,
                cache_onset_above_crash_mv: 15.0,
                cache_onset_sigma_mv: 2.5,
                cache_ce_rate_per_mv: 0.07,
                crash_softness_mv: 1.5,
            },
            variation: VariationParams {
                chip_speed_sigma: 0.04,
                core_speed_sigma: 0.012,
                chip_vmin_sigma: 0.02,
                core_vmin_sigma: 0.009,
                bank_vmin_sigma: 0.008,
                leakage_sigma_ln: 0.22,
                speed_leakage_correlation: 0.6,
            },
        }
    }

    /// The paper's high-end part: Intel Core i7-3970X-like. Nominal
    /// 1.365 V @ 4.0 GHz, six cores. Crash offsets span −8.4 %…−15.4 %
    /// across benchmarks, core-to-core variation 3.7 %…8 %, and the
    /// caches never surface ECC corrections before the core crashes.
    #[must_use]
    pub fn i7_3970x() -> Self {
        PartSpec {
            name: "Intel Core i7-3970X (modeled)".into(),
            cores: 6,
            cache_banks: 12,
            nominal_voltage: Volts::new(1.365),
            nominal_frequency: Megahertz::from_ghz(4.0),
            llc_capacity: Bytes::mib(15),
            power: CorePowerModel::desktop_core(),
            pdn: DroopModel::typical_server_pdn(),
            vmin: VminModel {
                base_crash_offset: 0.205,
                stress_gain: 0.20,
                core_gain: 1.15,
                stress_core_interaction: 0.8,
                run_jitter_sigma: 0.002,
                // Far negative: cache banks keep working well below the
                // core's crash voltage, so CEs are never observable on
                // this part even with sweep overshoot.
                cache_onset_above_crash_mv: -60.0,
                cache_onset_sigma_mv: 4.0,
                cache_ce_rate_per_mv: 0.35,
                crash_softness_mv: 2.0,
            },
            variation: VariationParams {
                chip_speed_sigma: 0.05,
                core_speed_sigma: 0.015,
                chip_vmin_sigma: 0.025,
                core_vmin_sigma: 0.016,
                bank_vmin_sigma: 0.010,
                leakage_sigma_ln: 0.25,
                speed_leakage_correlation: 0.6,
            },
        }
    }

    /// The UniServer chassis: a 64-bit ARM Server-on-Chip micro-server
    /// (X-Gene-class: 8 cores @ 2.4 GHz, 0.98 V).
    #[must_use]
    pub fn arm_microserver() -> Self {
        PartSpec {
            name: "ARM 64-bit Server-on-Chip (modeled)".into(),
            cores: 8,
            cache_banks: 8,
            nominal_voltage: Volts::new(0.980),
            nominal_frequency: Megahertz::from_ghz(2.4),
            llc_capacity: Bytes::mib(8),
            power: CorePowerModel {
                ceff_nf: 1.1,
                leak_nominal_w: 1.2,
                leak_temp_coeff: 0.013,
                leak_voltage_exp: 3.0,
            },
            pdn: DroopModel::typical_server_pdn(),
            vmin: VminModel {
                base_crash_offset: 0.13,
                stress_gain: 0.045,
                core_gain: 1.0,
                stress_core_interaction: 0.6,
                run_jitter_sigma: 0.0018,
                cache_onset_above_crash_mv: 10.0,
                cache_onset_sigma_mv: 3.0,
                cache_ce_rate_per_mv: 0.4,
                crash_softness_mv: 2.0,
            },
            variation: VariationParams::server_28nm(),
        }
    }

    /// Millivolts corresponding to a fractional offset of this part's
    /// nominal voltage.
    #[must_use]
    pub fn offset_mv(&self, fraction: f64) -> f64 {
        self.nominal_voltage.as_millivolts() * fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i5_matches_paper_nominals() {
        let p = PartSpec::i5_4200u();
        assert_eq!(p.cores, 2);
        assert_eq!(p.nominal_voltage, Volts::new(0.844));
        assert_eq!(p.nominal_frequency, Megahertz::from_ghz(2.6));
        assert!(p.vmin.cache_onset_above_crash_mv > 0.0, "i5 exposes cache CEs");
    }

    #[test]
    fn i7_matches_paper_nominals() {
        let p = PartSpec::i7_3970x();
        assert_eq!(p.cores, 6);
        assert_eq!(p.nominal_voltage, Volts::new(1.365));
        assert_eq!(p.nominal_frequency, Megahertz::from_ghz(4.0));
        assert!(p.vmin.cache_onset_above_crash_mv < 0.0, "i7 hides cache CEs");
    }

    #[test]
    fn i7_varies_more_core_to_core_than_i5() {
        // Table 2: i7 core-to-core variation 3.7–8 % vs i5's 0–2.7 %.
        let i5 = PartSpec::i5_4200u();
        let i7 = PartSpec::i7_3970x();
        assert!(
            i7.vmin.core_gain * i7.variation.core_vmin_sigma
                > 2.0 * i5.vmin.core_gain * i5.variation.core_vmin_sigma
        );
    }

    #[test]
    fn offset_mv_scales_with_nominal() {
        let i7 = PartSpec::i7_3970x();
        assert!((i7.offset_mv(0.10) - 136.5).abs() < 1e-9);
    }

    #[test]
    fn arm_part_is_eight_cores() {
        let p = PartSpec::arm_microserver();
        assert_eq!(p.cores, 8);
        assert!(p.nominal_voltage < Volts::new(1.0));
    }
}
