//! Feature extraction.
//!
//! The predictor sees exactly what the daemons can measure: the proposed
//! undervolt depth, how stressful the current workload is, how hot the
//! node runs and how many corrected errors it has been producing. All
//! features are normalized to O(1) ranges so one SGD learning rate fits.

use uniserver_units::Celsius;

/// Number of features in a [`FeatureVector`].
pub(crate) const FEATURE_DIM: usize = 4;

/// One normalized feature vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureVector {
    /// `[offset_fraction×10, stress, temp_delta/50, ce_rate/10]`.
    pub values: [f64; FEATURE_DIM],
}

impl FeatureVector {
    /// Builds a feature vector from raw observables.
    ///
    /// * `offset_fraction` — undervolt depth as a fraction of nominal;
    /// * `stress` — workload stress scalar in `[0, 1]`;
    /// * `max_core_temp` — hottest junction;
    /// * `ce_per_minute` — recent corrected-error rate.
    ///
    /// # Panics
    ///
    /// Panics if `offset_fraction` is negative or `stress` outside
    /// `[0, 1]`.
    #[must_use]
    pub fn from_observables(
        offset_fraction: f64,
        stress: f64,
        max_core_temp: Celsius,
        ce_per_minute: f64,
    ) -> Self {
        assert!(offset_fraction >= 0.0, "offset fraction must be non-negative");
        assert!((0.0..=1.0).contains(&stress), "stress must be in [0, 1], got {stress}");
        FeatureVector {
            values: [
                offset_fraction * 10.0,
                stress,
                max_core_temp.delta_above(Celsius::new(25.0)) / 50.0,
                (ce_per_minute / 10.0).min(10.0),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_keeps_features_order_one() {
        let f = FeatureVector::from_observables(0.12, 0.6, Celsius::new(75.0), 12.0);
        for (i, v) in f.values.iter().enumerate() {
            assert!(v.abs() <= 10.0, "feature {i} = {v}");
        }
        assert!((f.values[0] - 1.2).abs() < 1e-12);
        assert!((f.values[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ce_rate_is_capped() {
        let f = FeatureVector::from_observables(0.0, 0.0, Celsius::new(25.0), 1e9);
        assert_eq!(f.values[3], 10.0);
    }

    #[test]
    #[should_panic(expected = "stress must be in [0, 1]")]
    fn bad_stress_panics() {
        let _ = FeatureVector::from_observables(0.1, 2.0, Celsius::new(25.0), 0.0);
    }
}
