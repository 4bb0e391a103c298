//! The capex/opex TCO model (after Hardy et al. \[31\]).
//!
//! TCO over the deployment horizon = server capex + infrastructure
//! capex (provisioned per kW) + energy opex (server power × PUE ×
//! price) + maintenance opex. Calibrated so that energy accounts for
//! ~13 % of baseline TCO — the share at which the paper's overall 36×
//! energy-efficiency gain yields its quoted 1.15× TCO improvement.

/// Deployment parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcoParams {
    /// Number of servers.
    pub servers: u32,
    /// Price per server (chip + board + enclosure), USD.
    pub server_price: f64,
    /// Average power draw per server, watts.
    pub server_power_w: f64,
    /// Power usage effectiveness of the facility.
    pub pue: f64,
    /// Electricity price, USD per kWh.
    pub energy_price_kwh: f64,
    /// Infrastructure capex per provisioned kW (power + cooling), USD.
    pub infra_per_kw: f64,
    /// Yearly maintenance as a fraction of server capex.
    pub maintenance_frac: f64,
    /// Deployment horizon in years.
    pub years: f64,
}

impl TcoParams {
    /// A 2016-era micro-server cloud rack (the paper's baseline class).
    #[must_use]
    pub fn cloud_microserver_rack() -> Self {
        TcoParams {
            servers: 96,
            server_price: 2_000.0,
            server_power_w: 85.0,
            pue: 1.5,
            energy_price_kwh: 0.10,
            infra_per_kw: 2_800.0,
            maintenance_frac: 0.05,
            years: 4.0,
        }
    }

    /// An Edge deployment: fewer nodes, no purpose-built facility
    /// (higher effective energy price, minimal infra capex, free-air
    /// cooling PUE).
    #[must_use]
    pub fn edge_site() -> Self {
        TcoParams {
            servers: 8,
            server_price: 1_800.0,
            server_power_w: 60.0,
            pue: 1.15,
            energy_price_kwh: 0.14,
            infra_per_kw: 600.0,
            maintenance_frac: 0.07,
            years: 4.0,
        }
    }
}

/// A TCO breakdown in USD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcoBreakdown {
    /// Server acquisition cost.
    pub server_capex: f64,
    /// Facility power/cooling provisioning cost.
    pub infra_capex: f64,
    /// Energy bill over the horizon.
    pub energy_opex: f64,
    /// Maintenance over the horizon.
    pub maintenance_opex: f64,
}

impl TcoBreakdown {
    /// Computes the breakdown for a deployment.
    #[must_use]
    pub fn compute(p: &TcoParams) -> Self {
        let servers = f64::from(p.servers);
        let server_capex = servers * p.server_price;
        let provisioned_kw = servers * p.server_power_w * p.pue / 1_000.0;
        let infra_capex = provisioned_kw * p.infra_per_kw;
        let kwh = servers * p.server_power_w * p.pue * 24.0 * 365.0 * p.years / 1_000.0;
        let energy_opex = kwh * p.energy_price_kwh;
        let maintenance_opex = server_capex * p.maintenance_frac * p.years;
        TcoBreakdown { server_capex, infra_capex, energy_opex, maintenance_opex }
    }

    /// Total cost of ownership.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.server_capex + self.infra_capex + self.energy_opex + self.maintenance_opex
    }

    /// Energy's share of the total.
    #[must_use]
    pub fn energy_share(&self) -> f64 {
        self.energy_opex / self.total()
    }
}

/// TCO improvement from an energy-efficiency gain alone: power (and the
/// energy bill) divides by `ee_gain`; everything else is unchanged.
/// This is the paper's "taking in account only the energy efficiency
/// gains we estimate 1.15x TCO improvement" calculation.
///
/// # Panics
///
/// Panics if `ee_gain < 1`.
#[must_use]
pub fn tco_improvement_energy_only(p: &TcoParams, ee_gain: f64) -> f64 {
    assert!(ee_gain >= 1.0, "efficiency gain must be at least 1, got {ee_gain}");
    let base = TcoBreakdown::compute(p);
    let improved = TcoParams { server_power_w: p.server_power_w / ee_gain, ..*p };
    // Infrastructure stays provisioned for the original load (it was
    // already built); only the bill shrinks.
    let improved_energy = TcoBreakdown::compute(&improved).energy_opex;
    let improved_total =
        base.server_capex + base.infra_capex + improved_energy + base.maintenance_opex;
    base.total() / improved_total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::{EeFactors, PAPER_TCO_IMPROVEMENT};

    #[test]
    fn baseline_energy_share_is_around_13_percent() {
        let b = TcoBreakdown::compute(&TcoParams::cloud_microserver_rack());
        let share = b.energy_share();
        assert!((0.10..0.16).contains(&share), "energy share {share}");
    }

    #[test]
    fn table3_ee_gain_yields_the_paper_tco() {
        let improvement = tco_improvement_energy_only(
            &TcoParams::cloud_microserver_rack(),
            EeFactors::table3().overall(),
        );
        assert!(
            (improvement - PAPER_TCO_IMPROVEMENT).abs() < 0.02,
            "TCO improvement {improvement} vs paper {PAPER_TCO_IMPROVEMENT}"
        );
    }

    #[test]
    fn bigger_gains_have_diminishing_tco_returns() {
        let p = TcoParams::cloud_microserver_rack();
        let g2 = tco_improvement_energy_only(&p, 2.0);
        let g36 = tco_improvement_energy_only(&p, 36.0);
        let g1000 = tco_improvement_energy_only(&p, 1000.0);
        assert!(g2 < g36 && g36 < g1000);
        // Even infinite efficiency cannot beat the non-energy floor.
        let b = TcoBreakdown::compute(&p);
        let ceiling = b.total() / (b.total() - b.energy_opex);
        assert!(g1000 < ceiling);
        assert!(ceiling < 1.2, "energy is a minority share, ceiling {ceiling}");
    }

    #[test]
    fn edge_sites_pay_less_infrastructure() {
        let cloud = TcoBreakdown::compute(&TcoParams::cloud_microserver_rack());
        let edge = TcoBreakdown::compute(&TcoParams::edge_site());
        let cloud_infra_share = cloud.infra_capex / cloud.total();
        let edge_infra_share = edge.infra_capex / edge.total();
        assert!(edge_infra_share < cloud_infra_share);
    }

    #[test]
    fn breakdown_components_are_positive_and_sum() {
        let b = TcoBreakdown::compute(&TcoParams::cloud_microserver_rack());
        assert!(b.server_capex > 0.0 && b.infra_capex > 0.0);
        assert!(b.energy_opex > 0.0 && b.maintenance_opex > 0.0);
        let total = b.server_capex + b.infra_capex + b.energy_opex + b.maintenance_opex;
        assert_eq!(b.total(), total);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn degrading_efficiency_panics() {
        let _ = tco_improvement_energy_only(&TcoParams::cloud_microserver_rack(), 0.5);
    }
}
