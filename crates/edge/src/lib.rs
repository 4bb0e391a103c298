//! Edge-vs-Cloud latency budgets and DVFS energy arithmetic (§6.D).
//!
//! The paper's argument: "a hypothetical IoT service with a target
//! end-to-end latency of 200 ms can easily, for a roundtrip to the
//! cloud, expect to spend half of its budget in the network. … Edge
//! processing has the potential to eliminate most, if not all, of the
//! communication latency and, therefore, can permit to run the service
//! at lower frequency and voltage. For example, operating at 50 % of
//! the peak frequency with 30 % less voltage translates to running with
//! 50 % less energy and 75 % less power."
//!
//! # Examples
//!
//! ```
//! use uniserver_edge::DvfsPoint;
//!
//! let p = DvfsPoint::paper_edge_point(); // f x0.5, V x0.7
//! assert!((p.power_scale() - 0.245).abs() < 1e-12);        // ~75 % less power
//! assert!((p.energy_scale_fixed_work() - 0.49).abs() < 1e-12); // ~50 % less energy
//! ```

pub(crate) mod dvfs;
pub mod latency;

pub use dvfs::DvfsPoint;
pub use latency::{LatencyBudget, NetworkPath, PlacementAnalysis};
