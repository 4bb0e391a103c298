//! Shared predictor training: train once per part, deploy everywhere.
//!
//! The Predictor learns the crash surface of a *part* from sibling
//! chips, not of one individual die ([`TrainingHarness`] seeds its
//! sample generation from fixed harness parameters, so training is a
//! pure function of the deployment configuration). Re-running that
//! training inside every [`Ecosystem::deploy`] therefore re-derives the
//! identical model — at fleet scale that redundancy dominates deploy
//! wall-clock. This module factors it out:
//!
//! * [`TrainedAdvisor`] — one part's trained [`ModeAdvisor`], wrapped in
//!   an `Arc` so worker threads share a single model;
//! * [`AdvisorCache`] — a thread-safe map from part name to
//!   [`TrainedAdvisor`], training on first request.
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
//! assert!(std::sync::Arc::ptr_eq(&a.advisor, &b.advisor));
//! ```
//!
//! [`Ecosystem::deploy`]: crate::ecosystem::Ecosystem::deploy
//! [`provision_node`]: crate::ecosystem::provision_node

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use uniserver_predictor::harness::TrainingHarness;
use uniserver_predictor::{LogisticModel, ModeAdvisor};

use crate::ecosystem::DeploymentConfig;

/// A part-level trained advisor, shareable across every node of the
/// part (and across worker threads) via `Arc`.
#[derive(Debug, Clone)]
pub struct TrainedAdvisor {
    /// Name of the part the model was trained for.
    pub part_name: Arc<str>,
    /// The trained mode advisor.
    pub advisor: Arc<ModeAdvisor>,
}

impl TrainedAdvisor {
    /// Trains an advisor for the part named in `config` — the exact
    /// training [`Ecosystem::deploy`] performs, factored out so it can
    /// run once per part instead of once per node.
    ///
    /// [`Ecosystem::deploy`]: crate::ecosystem::Ecosystem::deploy
    #[must_use]
    pub fn train(config: &DeploymentConfig) -> Self {
        TrainedAdvisor {
            part_name: Arc::from(config.spec.name.as_str()),
            advisor: Arc::new(train_advisor(config)),
        }
    }
}

/// A thread-safe part-name → [`TrainedAdvisor`] cache.
///
/// Training is deterministic per part, so a cache hit returns a model
/// bit-identical to what per-node training would have produced; results
/// cannot depend on which thread populated the entry. The cache assumes
/// one training configuration per part name within a fleet — deploying
/// the same part under different `training_chips`/`risk_tolerance` in
/// one cache must use separate caches (or train directly).
#[derive(Debug, Default)]
pub struct AdvisorCache {
    trained: Mutex<HashMap<String, TrainedAdvisor>>,
}

impl AdvisorCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        AdvisorCache::default()
    }

    /// Returns the part's trained advisor, training it on a miss.
    ///
    /// Training runs outside the lock (it is the expensive step); if two
    /// threads race on the same part, the first insert wins and the
    /// loser's identical model is dropped.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned by a panicking trainer.
    #[must_use]
    pub fn get_or_train(&self, config: &DeploymentConfig) -> TrainedAdvisor {
        if let Some(hit) = self.trained.lock().unwrap().get(&config.spec.name) {
            return hit.clone();
        }
        let fresh = TrainedAdvisor::train(config);
        let mut map = self.trained.lock().unwrap();
        map.entry(config.spec.name.clone()).or_insert(fresh).clone()
    }

    /// Number of parts trained so far.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned by a panicking trainer.
    #[must_use]
    pub fn len(&self) -> usize {
        self.trained.lock().unwrap().len()
    }

    /// Whether no part has been trained yet.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned by a panicking trainer.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trained.lock().unwrap().is_empty()
    }
}

/// Free-function form of the training step (what [`TrainedAdvisor::train`]
/// wraps): exposed for callers that want an unshared advisor.
#[must_use]
pub fn train_advisor(config: &DeploymentConfig) -> ModeAdvisor {
    let harness = TrainingHarness { spec: config.spec.clone(), ..TrainingHarness::quick() };
    let data = harness.generate(config.training_chips);
    let model = LogisticModel::fit(&data, 200, 0.7);
    ModeAdvisor::new(model, config.risk_tolerance)
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
        assert!(Arc::ptr_eq(&a.advisor, &b.advisor), "second lookup must share the model");
        let c = cache.get_or_train(&i5);
        assert!(!Arc::ptr_eq(&a.advisor, &c.advisor), "distinct parts train distinct models");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_advisor_matches_fresh_training() {
        let config = DeploymentConfig::quick();
        let cached = AdvisorCache::new().get_or_train(&config);
        let fresh = train_advisor(&config);
        assert_eq!(*cached.advisor, fresh, "training must be a pure function of the config");
    }
}
