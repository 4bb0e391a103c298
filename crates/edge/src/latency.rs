//! End-to-end latency budgets for Cloud vs Edge placement.

use uniserver_units::Seconds;

use crate::dvfs::DvfsPoint;

/// The network path between the data source and the compute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkPath {
    /// Round-trip time of the path.
    pub rtt: Seconds,
    /// Human-readable description.
    pub label: &'static str,
}

impl NetworkPath {
    /// Public-internet roundtrip to a centralized cloud region —
    /// "tens to hundreds of milliseconds" (§6.D); 100 ms is the paper's
    /// half-of-200 ms working number.
    #[must_use]
    pub fn cloud_wan() -> Self {
        NetworkPath { rtt: Seconds::from_millis(100.0), label: "WAN to cloud region" }
    }

    /// LAN hop to an on-premises Edge micro-server.
    #[must_use]
    pub fn edge_lan() -> Self {
        NetworkPath { rtt: Seconds::from_millis(3.0), label: "LAN to edge node" }
    }
}

/// An end-to-end latency target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBudget {
    /// The service's end-to-end target.
    pub end_to_end: Seconds,
}

impl LatencyBudget {
    /// The paper's hypothetical IoT service: 200 ms end-to-end.
    #[must_use]
    pub fn paper_iot_service() -> Self {
        LatencyBudget { end_to_end: Seconds::from_millis(200.0) }
    }

    /// Compute budget left after the network roundtrip.
    #[must_use]
    pub fn compute_budget(&self, path: NetworkPath) -> Seconds {
        self.end_to_end.saturating_sub(path.rtt)
    }

    /// Fraction of the budget consumed by the network.
    #[must_use]
    pub fn network_share(&self, path: NetworkPath) -> f64 {
        (path.rtt.as_secs() / self.end_to_end.as_secs()).min(1.0)
    }
}

/// The full placement comparison for one service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementAnalysis {
    /// Peak-frequency compute time the service needs.
    pub peak_compute: Seconds,
    /// Budget.
    pub budget: LatencyBudget,
    /// Operating point feasible in the cloud (None = misses deadline).
    pub cloud_point: Option<DvfsPoint>,
    /// Operating point feasible at the edge.
    pub edge_point: Option<DvfsPoint>,
}

impl PlacementAnalysis {
    /// Analyzes a service with the given peak compute time under the
    /// paper's two paths.
    #[must_use]
    pub fn analyze(peak_compute: Seconds, budget: LatencyBudget) -> Self {
        let cloud_point =
            DvfsPoint::deepest_within(peak_compute, budget.compute_budget(NetworkPath::cloud_wan()));
        let edge_point =
            DvfsPoint::deepest_within(peak_compute, budget.compute_budget(NetworkPath::edge_lan()));
        PlacementAnalysis { peak_compute, budget, cloud_point, edge_point }
    }

    /// Energy saving of edge vs cloud execution for this service
    /// (fraction of the cloud-placement energy), when both are feasible.
    #[must_use]
    pub fn edge_energy_saving(&self) -> Option<f64> {
        let cloud = self.cloud_point?.energy_scale_fixed_work();
        let edge = self.edge_point?.energy_scale_fixed_work();
        Some(1.0 - edge / cloud)
    }

    /// Power saving of edge vs cloud execution.
    #[must_use]
    pub fn edge_power_saving(&self) -> Option<f64> {
        let cloud = self.cloud_point?.power_scale();
        let edge = self.edge_point?.power_scale();
        Some(1.0 - edge / cloud)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cloud_wan_eats_half_the_paper_budget() {
        let budget = LatencyBudget::paper_iot_service();
        let share = budget.network_share(NetworkPath::cloud_wan());
        assert!((share - 0.5).abs() < 1e-12, "network share {share}");
        assert!((budget.compute_budget(NetworkPath::cloud_wan()).as_millis() - 100.0).abs() < 1e-9);
        assert!(budget.network_share(NetworkPath::edge_lan()) < 0.02);
    }

    #[test]
    fn edge_placement_enables_deep_dvfs() {
        // A service needing ~95 ms of peak compute: at the cloud it must
        // run at (nearly) full tilt; at the edge it can halve frequency.
        let analysis = PlacementAnalysis::analyze(
            Seconds::from_millis(95.0),
            LatencyBudget::paper_iot_service(),
        );
        let cloud = analysis.cloud_point.expect("cloud feasible, barely");
        let edge = analysis.edge_point.expect("edge feasible");
        assert!(cloud.freq_scale > 0.9, "cloud must run near peak: {}", cloud.freq_scale);
        assert!(edge.freq_scale < 0.55, "edge can halve frequency: {}", edge.freq_scale);

        // The paper's headline savings: ~50 % energy, ~75 % power.
        let e = analysis.edge_energy_saving().unwrap();
        let p = analysis.edge_power_saving().unwrap();
        assert!((0.30..0.60).contains(&e), "energy saving {e}");
        assert!((0.60..0.85).contains(&p), "power saving {p}");
    }

    #[test]
    fn heavy_services_only_fit_at_the_edge() {
        let analysis = PlacementAnalysis::analyze(
            Seconds::from_millis(150.0),
            LatencyBudget::paper_iot_service(),
        );
        assert!(analysis.cloud_point.is_none(), "cloud misses the deadline");
        assert!(analysis.edge_point.is_some());
        assert_eq!(analysis.edge_energy_saving(), None, "no cloud baseline to compare");
    }

    #[test]
    fn trivial_services_run_deep_everywhere() {
        let analysis = PlacementAnalysis::analyze(
            Seconds::from_millis(4.0),
            LatencyBudget::paper_iot_service(),
        );
        let cloud = analysis.cloud_point.unwrap();
        let edge = analysis.edge_point.unwrap();
        assert!(cloud.freq_scale < 0.1 && edge.freq_scale < 0.1);
    }
}
