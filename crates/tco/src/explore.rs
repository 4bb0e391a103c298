//! Design-space exploration (§2.vii: "a tool … for end-to-end
//! estimation of the TCO and data-center design exploration. Among other
//! parameters, the TCO tool will consider specific requirements and
//! architecture of both the Cloud and the Edge.").

use crate::model::{tco_improvement_energy_only, TcoParams};

/// One point of the exploration grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplorationPoint {
    /// Facility PUE at this point.
    pub pue: f64,
    /// Energy price at this point, USD/kWh.
    pub energy_price_kwh: f64,
    /// Energy-efficiency gain applied.
    pub ee_gain: f64,
    /// Resulting TCO improvement.
    pub tco_improvement: f64,
}

/// Sweeps PUE × energy price × efficiency gain over a base deployment.
///
/// # Panics
///
/// Panics if any sweep axis is empty.
#[must_use]
pub fn sweep(
    base: &TcoParams,
    pues: &[f64],
    prices: &[f64],
    gains: &[f64],
) -> Vec<ExplorationPoint> {
    assert!(
        !pues.is_empty() && !prices.is_empty() && !gains.is_empty(),
        "sweep axes must be non-empty"
    );
    let mut out = Vec::with_capacity(pues.len() * prices.len() * gains.len());
    for &pue in pues {
        for &price in prices {
            for &gain in gains {
                let p = TcoParams { pue, energy_price_kwh: price, ..*base };
                out.push(ExplorationPoint {
                    pue,
                    energy_price_kwh: price,
                    ee_gain: gain,
                    tco_improvement: tco_improvement_energy_only(&p, gain),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_full_cartesian_coverage() {
        let pts = sweep(
            &TcoParams::cloud_microserver_rack(),
            &[1.1, 1.5, 2.0],
            &[0.05, 0.10, 0.20],
            &[1.5, 36.0],
        );
        assert_eq!(pts.len(), 18);
    }

    #[test]
    fn expensive_energy_amplifies_the_uniserver_case() {
        let pts = sweep(
            &TcoParams::cloud_microserver_rack(),
            &[1.5],
            &[0.05, 0.30],
            &[36.0],
        );
        assert!(pts[1].tco_improvement > pts[0].tco_improvement);
    }

    #[test]
    fn inefficient_facilities_benefit_more() {
        let pts = sweep(&TcoParams::cloud_microserver_rack(), &[1.1, 2.5], &[0.10], &[36.0]);
        assert!(pts[1].tco_improvement > pts[0].tco_improvement);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_axis_panics() {
        let _ = sweep(&TcoParams::cloud_microserver_rack(), &[], &[0.1], &[2.0]);
    }
}
