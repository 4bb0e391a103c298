//! Training-behaviour tests: convergence on clean data and the mode
//! advisor's ordering guarantees.

use uniserver_predictor::features::FeatureVector;
use uniserver_predictor::harness::{Dataset, Sample};
use uniserver_predictor::{LogisticModel, ModeAdvisor, OperatingMode};
use uniserver_units::Celsius;

/// A linearly separable dataset: crashes iff the undervolt offset
/// exceeds 10 % (feature 0 > 1.0), everything else benign.
fn separable() -> Dataset {
    let mut samples = Vec::new();
    for i in 0..40 {
        let offset = 0.005 * f64::from(i); // 0 %..19.5 %
        samples.push(Sample {
            features: FeatureVector::from_observables(offset, 0.4, Celsius::new(26.0), 0.0),
            crashed: offset > 0.10,
        });
    }
    Dataset { samples }
}

#[test]
fn logistic_training_converges_on_separable_data() {
    let data = separable();
    let model = LogisticModel::fit(&data, 200, 1.0);
    // Perfect separation is achievable and the optimizer must find it.
    assert_eq!(model.accuracy(&data), 1.0, "separable data must be fit exactly");
    assert!(model.auc(&data) > 0.999, "AUC {}", model.auc(&data));
    // The ridge keeps the weights finite even though the MLE diverges.
    for w in model.weights {
        assert!(w.is_finite());
    }
    assert!(model.bias.is_finite());
    // Probabilities saturate on the right sides of the boundary.
    let p_safe = model.predict_proba(&FeatureVector::from_observables(
        0.02,
        0.4,
        Celsius::new(26.0),
        0.0,
    ));
    let p_deep = model.predict_proba(&FeatureVector::from_observables(
        0.18,
        0.4,
        Celsius::new(26.0),
        0.0,
    ));
    assert!(p_safe < 0.1, "shallow side must be confidently safe, got {p_safe}");
    assert!(p_deep > 0.9, "deep side must be confidently unsafe, got {p_deep}");
}

#[test]
fn logistic_fit_is_deterministic_and_order_independent() {
    let data = separable();
    let mut reversed = Dataset { samples: data.samples.clone() };
    reversed.samples.reverse();
    let a = LogisticModel::fit(&data, 100, 1.0);
    let b = LogisticModel::fit(&data, 100, 1.0);
    let c = LogisticModel::fit(&reversed, 100, 1.0);
    assert_eq!(a, b, "same data, same model");
    for (wa, wc) in a.weights.iter().zip(c.weights) {
        assert!((wa - wc).abs() < 1e-9, "sample order must not matter: {wa} vs {wc}");
    }
}

#[test]
fn mode_advisor_risk_is_monotone_in_depth() {
    let model = LogisticModel::fit(&separable(), 200, 1.0);
    let advisor = ModeAdvisor::new(model, 0.05);
    let mut last = -1.0;
    for &off in &advisor.candidate_offsets {
        let risk = advisor.risk(off, 0.4, Celsius::new(26.0), 0.0);
        assert!(
            risk >= last - 1e-12,
            "risk must not fall as the undervolt deepens: {last} -> {risk} at {off}"
        );
        last = risk;
    }
}

#[test]
fn mode_advisor_tolerance_orders_advice() {
    // A tighter risk budget can never advise a deeper undervolt, and the
    // advised mode escalates Safe → Balanced → LowPower with depth.
    let model = LogisticModel::fit(&separable(), 200, 1.0);
    let strict = ModeAdvisor::new(model.clone(), 0.001);
    let relaxed = ModeAdvisor::new(model, 0.4);
    let w = uniserver_platform::workload::WorkloadProfile::spec_bzip2();
    let pdn = uniserver_silicon::droop::DroopModel::typical_server_pdn();
    let a = strict.advise(&w, &pdn, Celsius::new(26.0), 0.0);
    let b = relaxed.advise(&w, &pdn, Celsius::new(26.0), 0.0);
    assert!(a.offset_fraction <= b.offset_fraction + 1e-12);
    assert!(a.predicted_risk <= strict.risk_tolerance + 1e-9);
    assert!(b.predicted_risk <= relaxed.risk_tolerance + 1e-9);
    let rank = |m: OperatingMode| match m {
        OperatingMode::Safe => 0,
        OperatingMode::Balanced => 1,
        OperatingMode::LowPower => 2,
    };
    assert!(rank(a.mode) <= rank(b.mode), "{:?} must not exceed {:?}", a.mode, b.mode);
}
