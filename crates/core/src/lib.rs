//! The UniServer ecosystem: the paper's cross-layer stack, assembled
//! (Figure 2).
//!
//! A deployed [`Ecosystem`] owns one node wrapped in the error-resilient
//! hypervisor, the HealthLog/StressLog daemons, and the trained
//! Predictor, and walks the paper's lifecycle:
//!
//! 1. **Pre-deployment** — stress-test the hardware, reveal per-core /
//!    per-domain Extended Operating Points (EOP), train the predictor;
//! 2. **Deployment** — operate at the EOP the optimizer preset
//!    ([`EopOptimizer`]: cautious or assertive) chooses for its SLA risk
//!    budget, with the hypervisor masking/containing what slips through;
//! 3. **Monitored operation** — HealthLog watches error rates; threshold
//!    trips or the periodic schedule trigger **re-characterization**,
//!    closing the loop.
//!
//! A deployment is a part, an ambient and a preset
//! ([`DeploymentConfig`]). [`provision_node`] and
//! [`ecosystem::recharacterize_node`] are the one characterize-then-choose
//! path: the rack's deploy and rejoin use them, and so does the
//! single-node [`Ecosystem`].
//!
//! # Examples
//!
//! ```no_run
//! use uniserver_core::ecosystem::{DeploymentConfig, Ecosystem};
//! use uniserver_units::Seconds;
//!
//! let mut eco = Ecosystem::deploy(&DeploymentConfig::quick(), 42);
//! for _ in 0..60 {
//!     eco.run(Seconds::new(1.0));
//! }
//! let report = eco.savings_report();
//! assert!(report.energy_saving_fraction > 0.0);
//! ```

pub mod ecosystem;
pub mod eop;
pub mod optimizer;
pub mod training;

pub use ecosystem::{provision_node, DeploymentConfig, Ecosystem, SavingsReport};
pub use eop::OperatingPoint;
pub use optimizer::EopOptimizer;
pub use training::AdvisorCache;
