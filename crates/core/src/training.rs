//! Shared predictor training: train once per part, deploy everywhere.
//!
//! The Predictor learns the crash surface of a *part* from sibling
//! chips, not of one individual die ([`TrainingHarness`] seeds its
//! sample generation from fixed harness parameters, so training is a
//! pure function of the part and the optimizer preset, which sets the
//! risk tolerance). Re-running that
//! training inside every [`Ecosystem::deploy`] therefore re-derives the
//! identical model — at fleet scale that redundancy dominates deploy
//! wall-clock. This module factors it out:
//!
//! * [`AdvisorCache`] — a thread-safe map from (part name, optimizer
//!   preset) to one trained [`ModeAdvisor`], wrapped in an `Arc` so
//!   worker threads share a single model, training on first request.
//!
//! Per-node *silicon* is still characterized individually by the
//! StressLog ([`provision_node`]); only the part-level risk model is
//! shared.
//!
//! # Examples
//!
//! ```no_run
//! use uniserver_core::ecosystem::DeploymentConfig;
//! use uniserver_core::training::AdvisorCache;
//!
//! let cache = AdvisorCache::new();
//! let config = DeploymentConfig::quick();
//! let a = cache.get_or_train(&config); // trains
//! let b = cache.get_or_train(&config); // cache hit: the same model
//! assert!(std::sync::Arc::ptr_eq(&a, &b));
//! ```
//!
//! [`Ecosystem::deploy`]: crate::ecosystem::Ecosystem::deploy
//! [`provision_node`]: crate::ecosystem::provision_node

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use uniserver_predictor::harness::TrainingHarness;
use uniserver_predictor::{LogisticModel, ModeAdvisor};

use crate::ecosystem::DeploymentConfig;
use crate::optimizer::EopOptimizer;

/// Sibling chips the predictor learns a part's crash surface from.
const TRAINING_CHIPS: usize = 2;

/// A thread-safe (part name, [`EopOptimizer`]) → trained
/// [`ModeAdvisor`] cache. The preset is part of the key because it sets
/// the advisor's risk tolerance; the `Arc` shares one model across every
/// node of the part and across worker threads.
///
/// Training is deterministic per key, so a cache hit returns a model
/// bit-identical to what per-node training would have produced; results
/// cannot depend on which thread populated the entry.
#[derive(Debug, Default)]
pub struct AdvisorCache {
    trained: Mutex<HashMap<(String, EopOptimizer), Arc<ModeAdvisor>>>,
}

impl AdvisorCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        AdvisorCache::default()
    }

    /// Returns the advisor trained for the config's part and preset,
    /// training it on a miss.
    ///
    /// Training runs outside the lock (it is the expensive step); if two
    /// threads race on the same part, the first insert wins and the
    /// loser's identical model is dropped.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned by a panicking trainer.
    #[must_use]
    pub fn get_or_train(&self, config: &DeploymentConfig) -> Arc<ModeAdvisor> {
        let key = (config.spec.name.clone(), config.optimizer);
        if let Some(hit) = self.trained.lock().unwrap().get(&key) {
            return Arc::clone(hit);
        }
        let fresh = Arc::new(train_advisor(config));
        let mut map = self.trained.lock().unwrap();
        map.entry(key).or_insert(fresh).clone()
    }
}

/// The training step [`Ecosystem::deploy`] performs and the cache runs
/// once per key: the part's model fitted on two sibling chips, advising
/// at the preset's risk tolerance.
///
/// [`Ecosystem::deploy`]: crate::ecosystem::Ecosystem::deploy
#[must_use]
pub(crate) fn train_advisor(config: &DeploymentConfig) -> ModeAdvisor {
    let harness = TrainingHarness { spec: config.spec.clone(), ..TrainingHarness::quick() };
    let data = harness.generate(TRAINING_CHIPS);
    let model = LogisticModel::fit(&data, 200, 0.7);
    ModeAdvisor::new(model, config.optimizer.risk_tolerance())
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniserver_platform::part::PartSpec;

    #[test]
    fn cache_trains_once_per_part() {
        let cache = AdvisorCache::new();
        let arm = DeploymentConfig::quick();
        let i5 = DeploymentConfig { spec: PartSpec::i5_4200u(), ..DeploymentConfig::quick() };
        let a = cache.get_or_train(&arm);
        let b = cache.get_or_train(&arm);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the model");
        let c = cache.get_or_train(&i5);
        assert!(!Arc::ptr_eq(&a, &c), "distinct parts train distinct models");
        assert_eq!(cache.trained.lock().unwrap().len(), 2);
    }

    #[test]
    fn each_preset_of_a_part_gets_its_own_advisor() {
        let cache = AdvisorCache::new();
        let cautious = DeploymentConfig::quick();
        let assertive = DeploymentConfig { optimizer: EopOptimizer::Assertive, ..cautious.clone() };
        let c = cache.get_or_train(&cautious);
        let a = cache.get_or_train(&assertive);
        assert!(!Arc::ptr_eq(&c, &a), "the presets must not share an advisor");
        assert_eq!(c.risk_tolerance, 0.02);
        assert_eq!(a.risk_tolerance, 0.05);
        assert_eq!(cache.trained.lock().unwrap().len(), 2);
    }

    #[test]
    fn cached_advisor_matches_fresh_training() {
        let config = DeploymentConfig::quick();
        let cached = AdvisorCache::new().get_or_train(&config);
        let fresh = train_advisor(&config);
        assert_eq!(*cached, fresh, "training must be a pure function of the config");
    }
}
