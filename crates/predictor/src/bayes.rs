//! Gaussian naive-Bayes comparator.
//!
//! The paper's related-work section surveys Bayesian failure detection
//! (\[21\]); this model doubles as the reproduction's second opinion: a
//! generative classifier with per-class Gaussian feature likelihoods.
//! It trades the logistic model's discriminative sharpness for
//! closed-form training — useful as a sanity cross-check in tests and as
//! a cheap online-updatable alternative.

use crate::features::{FeatureVector, FEATURE_DIM};
use crate::harness::Dataset;

/// Per-class Gaussian statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ClassStats {
    mean: [f64; FEATURE_DIM],
    var: [f64; FEATURE_DIM],
    prior: f64,
}

/// A trained Gaussian naive-Bayes classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianNaiveBayes {
    crash: ClassStats,
    survive: ClassStats,
}

impl GaussianNaiveBayes {
    /// Fits class-conditional Gaussians to the dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset lacks either class (a generative model
    /// needs both).
    #[must_use]
    pub fn fit(data: &Dataset) -> Self {
        let (pos, neg): (Vec<&FeatureVector>, Vec<&FeatureVector>) = {
            let mut pos = Vec::new();
            let mut neg = Vec::new();
            for s in &data.samples {
                if s.crashed {
                    pos.push(&s.features);
                } else {
                    neg.push(&s.features);
                }
            }
            (pos, neg)
        };
        assert!(!pos.is_empty(), "dataset has no crash samples");
        assert!(!neg.is_empty(), "dataset has no survival samples");
        let n = data.samples.len() as f64;
        GaussianNaiveBayes {
            crash: Self::stats(&pos, pos.len() as f64 / n),
            survive: Self::stats(&neg, neg.len() as f64 / n),
        }
    }

    fn stats(rows: &[&FeatureVector], prior: f64) -> ClassStats {
        let n = rows.len() as f64;
        let mut mean = [0.0; FEATURE_DIM];
        for r in rows {
            for (m, x) in mean.iter_mut().zip(r.values) {
                *m += x / n;
            }
        }
        let mut var = [1e-3; FEATURE_DIM]; // variance floor for stability
        for r in rows {
            for ((v, x), m) in var.iter_mut().zip(r.values).zip(mean) {
                *v += (x - m) * (x - m) / n;
            }
        }
        ClassStats { mean, var, prior }
    }

    fn log_likelihood(stats: &ClassStats, f: &FeatureVector) -> f64 {
        let mut ll = stats.prior.max(1e-12).ln();
        for ((x, m), v) in f.values.iter().zip(stats.mean).zip(stats.var) {
            ll += -0.5 * ((x - m) * (x - m) / v + v.ln() + (2.0 * std::f64::consts::PI).ln());
        }
        ll
    }

    /// Posterior crash probability.
    #[must_use]
    pub fn predict_proba(&self, f: &FeatureVector) -> f64 {
        let lc = Self::log_likelihood(&self.crash, f);
        let ls = Self::log_likelihood(&self.survive, f);
        // Softmax over the two log-joint densities.
        let m = lc.max(ls);
        let ec = (lc - m).exp();
        let es = (ls - m).exp();
        ec / (ec + es)
    }

    /// Hard classification at the 0.5 threshold.
    #[must_use]
    pub fn predict(&self, f: &FeatureVector) -> bool {
        self.predict_proba(f) >= 0.5
    }

    /// Classification accuracy on a dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    #[must_use]
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        assert!(!data.samples.is_empty(), "empty dataset");
        let correct =
            data.samples.iter().filter(|s| self.predict(&s.features) == s.crashed).count();
        correct as f64 / data.samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::TrainingHarness;
    use crate::logistic::LogisticModel;
    use uniserver_units::Celsius;

    #[test]
    fn bayes_learns_the_same_boundary_shape() {
        let data = TrainingHarness::quick().generate(3);
        let (train, test) = data.split(0.8);
        let nb = GaussianNaiveBayes::fit(&train);
        assert!(nb.accuracy(&test) > 0.8, "accuracy {}", nb.accuracy(&test));
        let p = |off: f64| {
            nb.predict_proba(&FeatureVector::from_observables(off, 0.5, Celsius::new(25.0), 0.0))
        };
        // Compare in-distribution depths: a generative Gaussian model is
        // only trustworthy where it saw data (its quadratic boundary can
        // fold back in the far tails, unlike the logistic model).
        assert!(p(0.05) < p(0.13), "risk must grow with depth");
    }

    #[test]
    fn discriminative_model_is_at_least_competitive() {
        let data = TrainingHarness::quick().generate(3);
        let (train, test) = data.split(0.8);
        let nb = GaussianNaiveBayes::fit(&train);
        let lr = LogisticModel::fit(&train, 150, 0.5);
        // Logistic regression should not lose badly to naive Bayes here.
        assert!(lr.accuracy(&test) + 0.05 >= nb.accuracy(&test));
    }

    #[test]
    #[should_panic(expected = "no crash samples")]
    fn single_class_data_panics() {
        use crate::harness::Sample;
        let d: Dataset = (0..4)
            .map(|_| Sample {
                features: FeatureVector::from_observables(0.0, 0.0, Celsius::new(25.0), 0.0),
                crashed: false,
            })
            .collect();
        let _ = GaussianNaiveBayes::fit(&d);
    }
}
