//! The Predictor daemon (paper §3.E).
//!
//! "In order to advise the system regarding the best V-F-R mode depending
//! on the current workload and runtime characteristics of the system, we
//! will develop a machine-learning predictor that interacts with the
//! HealthLog and StressLog monitors to provide advice to the Hypervisor
//! for choosing the desired operation mode."
//!
//! * [`features`] — feature extraction from operating points, sensor
//!   sweeps and HealthLog error rates;
//! * [`logistic`] — the failure-probability model (logistic regression
//!   trained with SGD) plus evaluation metrics;
//! * [`bayes`] — a Gaussian naive-Bayes comparator;
//! * [`harness`] — labeled-sample generation by exercising platform
//!   nodes across operating points;
//! * [`advisor`] — the operating-mode advisor consuming the model.
//!
//! # Examples
//!
//! ```
//! use uniserver_predictor::harness::TrainingHarness;
//! use uniserver_predictor::logistic::LogisticModel;
//!
//! let data = TrainingHarness::quick().generate(3);
//! let (train, test) = data.split(0.8);
//! let model = LogisticModel::fit(&train, 150, 0.5);
//! assert!(model.accuracy(&test) > 0.8);
//! ```

pub mod advisor;
pub mod bayes;
pub mod features;
pub mod harness;
pub mod logistic;

pub use advisor::{ModeAdvisor, OperatingMode};
pub use features::FeatureVector;
pub use harness::{Dataset, Sample, TrainingHarness};
pub use logistic::LogisticModel;
