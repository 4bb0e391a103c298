//! Core and DRAM power models.
//!
//! * Core dynamic power follows the classical `C·V²·f·activity` law —
//!   the reason voltage is "the most effective power saving knob" (§1).
//! * Leakage scales super-linearly with voltage and exponentially with
//!   temperature, modulated by the die's manufactured leakage factor.
//! * DRAM module power splits into background, access and refresh parts;
//!   the refresh share grows with chip density (9 % for 2 Gb chips,
//!   ~34 % projected for 32 Gb — §6.B, after RAIDR \[26\]), and shrinks
//!   proportionally as the refresh interval is relaxed.

use uniserver_units::{Celsius, Megahertz, Seconds, Volts, Watts};

/// Per-core power model.
#[derive(Debug, Clone, PartialEq)]
pub struct CorePowerModel {
    /// Effective switched capacitance in nanofarads.
    pub ceff_nf: f64,
    /// Leakage at nominal voltage and 25 °C, in watts.
    pub leak_nominal_w: f64,
    /// Exponential leakage growth per °C above 25 °C.
    pub leak_temp_coeff: f64,
    /// Leakage voltage exponent (leakage ∝ (V/Vnom)^exp).
    pub leak_voltage_exp: f64,
}

impl CorePowerModel {
    /// A mobile-class core (the paper's low-end i5-4200U draws ~15 W for
    /// the whole 2-core package).
    #[must_use]
    pub fn mobile_core() -> Self {
        CorePowerModel { ceff_nf: 0.85, leak_nominal_w: 0.9, leak_temp_coeff: 0.013, leak_voltage_exp: 3.0 }
    }

    /// A desktop/server-class core (the i7-3970X: 150 W for 6 cores at
    /// 4 GHz / 1.365 V).
    #[must_use]
    pub fn desktop_core() -> Self {
        CorePowerModel { ceff_nf: 2.6, leak_nominal_w: 3.0, leak_temp_coeff: 0.013, leak_voltage_exp: 3.0 }
    }

    /// Dynamic power at the given operating point.
    ///
    /// # Panics
    ///
    /// Panics if `activity` is outside `[0, 1]`.
    #[must_use]
    pub(crate) fn dynamic(&self, v: Volts, f: Megahertz, activity: f64) -> Watts {
        assert!((0.0..=1.0).contains(&activity), "activity must be in [0, 1], got {activity}");
        // P = C·V²·f·α ; C in nF and f in MHz conveniently yield milliwatts.
        let mw = self.ceff_nf * v.as_volts() * v.as_volts() * f.as_mhz() * activity;
        Watts::from_milliwatts(mw)
    }

    /// Leakage power at the given voltage and temperature, for a die with
    /// the given manufactured leakage factor.
    ///
    /// # Panics
    ///
    /// Panics if `vnom` is zero or `leakage_factor` is negative.
    #[must_use]
    pub(crate) fn leakage(
        &self,
        v: Volts,
        temp: Celsius,
        vnom: Volts,
        leakage_factor: f64,
    ) -> Watts {
        assert!(vnom.as_volts() > 0.0, "nominal voltage must be positive");
        assert!(leakage_factor >= 0.0, "leakage factor must be non-negative");
        let v_scale = (v.as_volts() / vnom.as_volts()).powf(self.leak_voltage_exp);
        let t_scale = (self.leak_temp_coeff * temp.delta_above(Celsius::new(25.0))).exp();
        Watts::new(self.leak_nominal_w * leakage_factor * v_scale * t_scale)
    }

    /// Total core power (dynamic + leakage).
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn total(
        &self,
        v: Volts,
        f: Megahertz,
        activity: f64,
        temp: Celsius,
        vnom: Volts,
        leakage_factor: f64,
    ) -> Watts {
        self.dynamic(v, f, activity) + self.leakage(v, temp, vnom, leakage_factor)
    }
}

/// DRAM module power model with a density-dependent refresh share.
#[derive(Debug, Clone, PartialEq)]
pub struct DramPowerModel {
    /// DRAM chip density in gigabits (2 for the paper's DDR3 era, 32 for
    /// its projection).
    pub chip_density_gbit: f64,
    /// Total module power at nominal refresh and full utilization.
    pub module_nominal: Watts,
    /// Nominal refresh interval (64 ms for DDR3).
    pub nominal_refresh: Seconds,
    /// Fraction of non-refresh power that is background (independent of
    /// utilization); the rest scales with utilization.
    pub background_fraction: f64,
}

impl DramPowerModel {
    /// An 8 GB DDR3 module built from 2 Gb chips, ~5 W at full tilt.
    #[must_use]
    pub fn ddr3_8gb() -> Self {
        DramPowerModel {
            chip_density_gbit: 2.0,
            module_nominal: Watts::new(5.0),
            nominal_refresh: Seconds::from_millis(64.0),
            background_fraction: 0.4,
        }
    }

    /// A future high-density module from 32 Gb chips (the paper's §6.B
    /// projection where refresh reaches 34 % of module power).
    #[must_use]
    pub fn future_32gbit() -> Self {
        DramPowerModel {
            chip_density_gbit: 32.0,
            module_nominal: Watts::new(8.0),
            nominal_refresh: Seconds::from_millis(64.0),
            background_fraction: 0.4,
        }
    }

    /// Refresh share of module power at nominal refresh. Linear in
    /// log2(density), fitted through the paper's anchors: 9 % at 2 Gb and
    /// 34 % at 32 Gb.
    #[must_use]
    pub fn refresh_share_nominal(&self) -> f64 {
        let share = 6.25 * self.chip_density_gbit.log2() + 2.75;
        (share / 100.0).clamp(0.0, 0.95)
    }

    /// Refresh power at an arbitrary refresh interval: refreshing 78×
    /// less often costs 78× less refresh power.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[must_use]
    pub fn refresh_power(&self, interval: Seconds) -> Watts {
        assert!(interval.as_secs() > 0.0, "refresh interval must be positive");
        let nominal_refresh_w = self.module_nominal.as_watts() * self.refresh_share_nominal();
        Watts::new(nominal_refresh_w * self.nominal_refresh.ratio_to(interval))
    }

    /// Total module power at the given refresh interval and utilization.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is outside `[0, 1]` or `interval` is zero.
    #[must_use]
    pub fn module_power(&self, interval: Seconds, utilization: f64) -> Watts {
        assert!((0.0..=1.0).contains(&utilization), "utilization must be in [0, 1], got {utilization}");
        let non_refresh = self.module_nominal.as_watts() * (1.0 - self.refresh_share_nominal());
        let background = non_refresh * self.background_fraction;
        let access = non_refresh * (1.0 - self.background_fraction) * utilization;
        Watts::new(background + access) + self.refresh_power(interval)
    }

    /// Fraction of total module power saved (at full utilization) by
    /// relaxing refresh from nominal to `interval`.
    #[must_use]
    pub fn refresh_saving(&self, interval: Seconds) -> f64 {
        let nominal = self.module_power(self.nominal_refresh, 1.0);
        let relaxed = self.module_power(interval, 1.0);
        (nominal.as_watts() - relaxed.as_watts()) / nominal.as_watts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_power_scales_quadratically_with_voltage() {
        let m = CorePowerModel::desktop_core();
        let f = Megahertz::from_ghz(4.0);
        let hi = m.dynamic(Volts::new(1.2), f, 1.0);
        let lo = m.dynamic(Volts::new(0.6), f, 1.0);
        assert!((hi.as_watts() / lo.as_watts() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn package_power_matches_tdp_classes() {
        // i5-4200U-like: 2 cores at 2.6 GHz / 0.844 V ≈ 15 W class.
        let mobile = CorePowerModel::mobile_core();
        let p_mobile = 2.0
            * mobile
                .total(Volts::new(0.844), Megahertz::from_ghz(2.6), 0.9, Celsius::new(60.0), Volts::new(0.844), 1.0)
                .as_watts();
        assert!((4.0..20.0).contains(&p_mobile), "mobile package {p_mobile} W");

        // i7-3970X-like: 6 cores at 4.0 GHz / 1.365 V ≈ 150 W class.
        let desktop = CorePowerModel::desktop_core();
        let p_desktop = 6.0
            * desktop
                .total(Volts::new(1.365), Megahertz::from_ghz(4.0), 0.9, Celsius::new(70.0), Volts::new(1.365), 1.0)
                .as_watts();
        assert!((90.0..200.0).contains(&p_desktop), "desktop package {p_desktop} W");
    }

    #[test]
    fn leakage_grows_with_temperature() {
        let m = CorePowerModel::desktop_core();
        let v = Volts::new(1.2);
        let cold = m.leakage(v, Celsius::new(25.0), v, 1.0);
        let hot = m.leakage(v, Celsius::new(85.0), v, 1.0);
        assert!(hot.as_watts() > 1.5 * cold.as_watts());
    }

    #[test]
    fn leaky_die_leaks_proportionally() {
        let m = CorePowerModel::desktop_core();
        let v = Volts::new(1.2);
        let typical = m.leakage(v, Celsius::new(25.0), v, 1.0);
        let leaky = m.leakage(v, Celsius::new(25.0), v, 1.8);
        assert!((leaky.as_watts() / typical.as_watts() - 1.8).abs() < 1e-9);
    }

    #[test]
    fn refresh_share_hits_paper_anchors() {
        assert!((DramPowerModel::ddr3_8gb().refresh_share_nominal() - 0.09).abs() < 1e-9);
        assert!((DramPowerModel::future_32gbit().refresh_share_nominal() - 0.34).abs() < 1e-9);
    }

    #[test]
    fn relaxing_refresh_removes_most_refresh_power() {
        let m = DramPowerModel::ddr3_8gb();
        let at_1_5s = m.refresh_power(Seconds::new(1.5));
        let nominal = m.refresh_power(Seconds::from_millis(64.0));
        // 1.5 s is ~23.4× nominal, so refresh power drops by the same factor.
        assert!((nominal.as_watts() / at_1_5s.as_watts() - 1.5 / 0.064).abs() < 1e-6);
    }

    #[test]
    fn module_saving_bounded_by_refresh_share() {
        let m = DramPowerModel::ddr3_8gb();
        let saving = m.refresh_saving(Seconds::new(5.0));
        let share = m.refresh_share_nominal();
        assert!(saving > 0.0 && saving < share, "saving {saving} vs share {share}");
        // Nearly all of the 9 % refresh share is recovered at 5 s.
        assert!(saving > share * 0.95);
    }

    #[test]
    fn high_density_module_saves_more() {
        let old = DramPowerModel::ddr3_8gb().refresh_saving(Seconds::new(1.5));
        let new = DramPowerModel::future_32gbit().refresh_saving(Seconds::new(1.5));
        assert!(new > 3.0 * old, "32 Gb saving {new} should dwarf 2 Gb saving {old}");
    }

    #[test]
    #[should_panic(expected = "activity must be in [0, 1]")]
    fn activity_out_of_range_panics() {
        let _ = CorePowerModel::mobile_core().dynamic(Volts::new(1.0), Megahertz::new(1000.0), 1.5);
    }

    #[test]
    #[should_panic(expected = "utilization must be in [0, 1]")]
    fn utilization_out_of_range_panics() {
        let _ = DramPowerModel::ddr3_8gb().module_power(Seconds::from_millis(64.0), 2.0);
    }
}
