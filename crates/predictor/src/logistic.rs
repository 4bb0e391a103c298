//! Logistic-regression failure-probability model.
//!
//! Small, dependency-free and entirely adequate: the crash boundary in
//! feature space (offset vs stress) is close to linear, which is exactly
//! the regime logistic regression handles well. Trained by damped
//! Newton/IRLS iterations; evaluated with accuracy and AUC.

use uniserver_silicon::math::sigmoid;

use crate::features::{FeatureVector, FEATURE_DIM};
use crate::harness::Dataset;

/// A trained logistic model.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticModel {
    /// Per-feature weights.
    pub weights: [f64; FEATURE_DIM],
    /// Bias term.
    pub bias: f64,
}

/// Solves the symmetric positive-definite system `a · x = b` by Gaussian
/// elimination with partial pivoting (the Newton step of [`LogisticModel::fit`]).
fn solve<const N: usize>(mut a: [[f64; N]; N], mut b: [f64; N]) -> [f64; N] {
    for col in 0..N {
        let pivot = (col..N)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("non-empty column");
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        // The ridge term guarantees a strictly positive diagonal, but be
        // defensive against degenerate accumulations.
        if diag.abs() < 1e-30 {
            continue;
        }
        for row in col + 1..N {
            let factor = a[row][col] / diag;
            let (pivot_rows, rest) = a.split_at_mut(row);
            let pivot_row = pivot_rows[col];
            for (cell, pivot_cell) in rest[0][col..].iter_mut().zip(&pivot_row[col..]) {
                *cell -= factor * pivot_cell;
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = [0.0; N];
    for col in (0..N).rev() {
        let mut acc = b[col];
        for k in col + 1..N {
            acc -= a[col][k] * x[k];
        }
        x[col] = if a[col][col].abs() < 1e-30 { 0.0 } else { acc / a[col][col] };
    }
    x
}

impl LogisticModel {
    /// An untrained (all-zero) model predicting 0.5 everywhere.
    #[must_use]
    pub(crate) fn zeroed() -> Self {
        LogisticModel { weights: [0.0; FEATURE_DIM], bias: 0.0 }
    }

    /// Fits by damped Newton/IRLS: up to `epochs` iterations with step
    /// damping `lr` (1.0 = full Newton steps), stopping early once the
    /// step norm vanishes.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or hyper-parameters are
    /// non-positive.
    #[must_use]
    pub fn fit(data: &Dataset, epochs: usize, lr: f64) -> Self {
        assert!(!data.samples.is_empty(), "cannot fit on an empty dataset");
        assert!(epochs > 0, "need at least one epoch");
        assert!(lr > 0.0, "learning rate must be positive");

        // Damped Newton iterations (IRLS) on the ridge-regularized
        // log-loss. Unlike per-sample SGD this is independent of sample
        // order (no recency bias from whatever ends the dataset) and it
        // reaches the calibrated maximum-likelihood fit in a handful of
        // steps instead of thousands. The small ridge keeps the Hessian
        // invertible and the weights finite on separable data.
        const DIM: usize = FEATURE_DIM + 1; // weights + bias
        const RIDGE: f64 = 1e-4;
        let n = data.samples.len() as f64;

        // Per-feature ridge strength, inversely proportional to the
        // feature's variance in the training data. A feature that barely
        // varied provides no evidence, yet the unregularized MLE happily
        // parks a huge weight on it (it is almost free) — and that weight
        // then dominates predictions for queries outside the training
        // range. Tying the penalty to 1/variance pins unidentified
        // weights near zero while leaving well-explored features free.
        // The bias is never penalized (it must absorb the base rate).
        let mut mean = [0.0; FEATURE_DIM];
        for s in &data.samples {
            for (m, x) in mean.iter_mut().zip(s.features.values) {
                *m += x / n;
            }
        }
        let mut var = [0.0; FEATURE_DIM];
        for s in &data.samples {
            for i in 0..FEATURE_DIM {
                let d = s.features.values[i] - mean[i];
                var[i] += d * d / n;
            }
        }
        let mut ridge = [0.0; DIM];
        for i in 0..FEATURE_DIM {
            ridge[i] = RIDGE / (var[i] + 1e-6);
        }

        // Regularized mean log-loss — the line-search objective.
        let loss = |wb: &[f64; DIM]| -> f64 {
            let mut total = 0.0;
            for s in &data.samples {
                let mut x = [1.0; DIM];
                x[..FEATURE_DIM].copy_from_slice(&s.features.values);
                let z: f64 = wb.iter().zip(x).map(|(w, xi)| w * xi).sum();
                // Stable formulation of -ln σ(±z).
                total += if s.crashed { (1.0 + (-z).exp()).ln() } else { (1.0 + z.exp()).ln() };
            }
            let l2: f64 = wb.iter().zip(ridge).map(|(w, r)| r * w * w).sum::<f64>();
            total / n + 0.5 * l2
        };
        let mut wb = [0.0; DIM];
        let mut current_loss = loss(&wb);
        for _ in 0..epochs {
            let mut grad = [0.0; DIM];
            let mut hess = [[0.0; DIM]; DIM];
            for s in &data.samples {
                let mut x = [1.0; DIM];
                x[..FEATURE_DIM].copy_from_slice(&s.features.values);
                let z: f64 = wb.iter().zip(x).map(|(w, xi)| w * xi).sum();
                let p = sigmoid(z);
                let err = if s.crashed { 1.0 } else { 0.0 } - p;
                let weight = (p * (1.0 - p)).max(1e-9);
                for i in 0..DIM {
                    grad[i] += err * x[i] / n;
                    for j in 0..DIM {
                        hess[i][j] += weight * x[i] * x[j] / n;
                    }
                }
            }
            for i in 0..DIM {
                grad[i] -= ridge[i] * wb[i];
                hess[i][i] += ridge[i].max(RIDGE);
            }
            let step = solve(hess, grad);
            // Backtracking line search: a raw Newton step can overshoot
            // into the sigmoid's saturated region (where the Hessian
            // vanishes and later steps explode); halve until the loss
            // actually improves.
            let mut scale = lr;
            let mut advanced = false;
            for _ in 0..30 {
                let mut candidate = wb;
                for (w, d) in candidate.iter_mut().zip(step) {
                    *w += scale * d;
                }
                let candidate_loss = loss(&candidate);
                if candidate_loss < current_loss {
                    wb = candidate;
                    current_loss = candidate_loss;
                    advanced = true;
                    break;
                }
                scale *= 0.5;
            }
            let step_norm: f64 = step.iter().map(|d| d * d).sum::<f64>().sqrt();
            if !advanced || scale * step_norm < 1e-10 {
                break;
            }
        }
        let mut model = LogisticModel::zeroed();
        model.weights.copy_from_slice(&wb[..FEATURE_DIM]);
        model.bias = wb[FEATURE_DIM];
        model
    }

    /// Predicted crash probability for a feature vector.
    #[must_use]
    pub fn predict_proba(&self, f: &FeatureVector) -> f64 {
        let z: f64 =
            self.weights.iter().zip(f.values).map(|(w, x)| w * x).sum::<f64>() + self.bias;
        sigmoid(z)
    }

    /// Hard classification at the 0.5 threshold.
    #[must_use]
    pub(crate) fn predict(&self, f: &FeatureVector) -> bool {
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

    /// Area under the ROC curve via the rank-sum (Mann–Whitney)
    /// formulation. Returns 0.5 when one class is absent.
    #[must_use]
    pub fn auc(&self, data: &Dataset) -> f64 {
        let mut scored: Vec<(f64, bool)> = data
            .samples
            .iter()
            .map(|s| (self.predict_proba(&s.features), s.crashed))
            .collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("probabilities are finite"));
        let positives = scored.iter().filter(|(_, y)| *y).count() as f64;
        let negatives = scored.len() as f64 - positives;
        if positives == 0.0 || negatives == 0.0 {
            return 0.5;
        }
        let mut rank_sum = 0.0;
        for (rank, (_, y)) in scored.iter().enumerate() {
            if *y {
                rank_sum += (rank + 1) as f64;
            }
        }
        (rank_sum - positives * (positives + 1.0) / 2.0) / (positives * negatives)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::TrainingHarness;

    fn trained() -> (LogisticModel, Dataset) {
        let data = TrainingHarness::quick().generate(3);
        let (train, test) = data.split(0.8);
        (LogisticModel::fit(&train, 150, 0.5), test)
    }

    #[test]
    fn model_beats_chance_comfortably() {
        let (model, test) = trained();
        let acc = model.accuracy(&test);
        let auc = model.auc(&test);
        assert!(acc > 0.85, "accuracy {acc}");
        assert!(auc > 0.9, "AUC {auc}");
    }

    /// Mean negative log-likelihood on a dataset (lower is better).
    fn log_loss(model: &LogisticModel, data: &Dataset) -> f64 {
        let eps = 1e-12;
        let total: f64 = data
            .samples
            .iter()
            .map(|s| {
                let p = model.predict_proba(&s.features).clamp(eps, 1.0 - eps);
                if s.crashed {
                    -p.ln()
                } else {
                    -(1.0 - p).ln()
                }
            })
            .sum();
        total / data.samples.len() as f64
    }

    #[test]
    fn training_reduces_log_loss() {
        let data = TrainingHarness::quick().generate(2);
        let untrained = LogisticModel::zeroed();
        let model = LogisticModel::fit(&data, 100, 0.5);
        assert!(log_loss(&model, &data) < log_loss(&untrained, &data) * 0.8);
    }

    #[test]
    fn deeper_undervolt_predicts_higher_risk() {
        let (model, _) = trained();
        use uniserver_units::Celsius;
        let p = |off: f64| {
            model.predict_proba(&FeatureVector::from_observables(
                off,
                0.5,
                Celsius::new(55.0),
                0.0,
            ))
        };
        assert!(p(0.02) < p(0.10));
        assert!(p(0.10) < p(0.18));
        assert!(p(0.02) < 0.1, "shallow offsets are safe: {}", p(0.02));
        assert!(p(0.18) > 0.9, "deep offsets are fatal: {}", p(0.18));
    }

    #[test]
    fn stressful_workloads_raise_risk_at_the_margin() {
        let (model, _) = trained();
        use uniserver_units::Celsius;
        let marginal = 0.12;
        let quiet = model.predict_proba(&FeatureVector::from_observables(
            marginal,
            0.1,
            Celsius::new(55.0),
            0.0,
        ));
        let loud = model.predict_proba(&FeatureVector::from_observables(
            marginal,
            0.9,
            Celsius::new(55.0),
            0.0,
        ));
        assert!(loud > quiet, "stress must raise predicted risk ({loud} vs {quiet})");
    }

    #[test]
    fn untrained_model_is_uninformative() {
        let m = LogisticModel::zeroed();
        use uniserver_units::Celsius;
        let f = FeatureVector::from_observables(0.1, 0.5, Celsius::new(45.0), 0.0);
        assert_eq!(m.predict_proba(&f), 0.5);
    }

    #[test]
    fn auc_degenerates_gracefully() {
        use crate::harness::Sample;
        use uniserver_units::Celsius;
        let one_class: Dataset = (0..5)
            .map(|_| Sample {
                features: FeatureVector::from_observables(0.1, 0.5, Celsius::new(45.0), 0.0),
                crashed: false,
            })
            .collect();
        assert_eq!(LogisticModel::zeroed().auc(&one_class), 0.5);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn accuracy_on_empty_panics() {
        let _ = LogisticModel::zeroed().accuracy(&Dataset::default());
    }
}
