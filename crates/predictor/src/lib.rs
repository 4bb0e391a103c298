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
//! * [`LogisticModel`] — the failure-probability model (logistic
//!   regression fitted by Newton/IRLS) plus evaluation metrics;
//! * [`harness`] — labeled-sample generation by exercising platform
//!   nodes across operating points;
//! * [`advisor`] — the operating-mode advisor consuming the model.
//!
//! # Examples
//!
//! ```
//! use uniserver_predictor::harness::TrainingHarness;
//! use uniserver_predictor::LogisticModel;
//!
//! let model = LogisticModel::fit(&TrainingHarness::quick().generate(3), 150, 0.5);
//! let held_out = TrainingHarness { seed: 1, ..TrainingHarness::quick() }.generate(1);
//! assert!(model.accuracy(&held_out) > 0.8);
//! ```

pub mod advisor;
pub mod features;
pub mod harness;
pub(crate) mod logistic;

pub use advisor::{ModeAdvisor, OperatingMode};
pub use features::FeatureVector;
pub use harness::{Dataset, Sample, TrainingHarness};
pub use logistic::LogisticModel;
