//! The HealthLog daemon (paper §3.C).
//!
//! "A runtime mechanism that will monitor the system and report errors
//! occurring during uptime … the HealthLog monitor records runtime system
//! metrics in the form of an information vector, stored in a system
//! logfile." Here the information vector is the platform's
//! [`IntervalReport`](uniserver_platform::IntervalReport), and the
//! daemon consumes it at ingest into exactly the state its readers use:
//!
//! * the per-origin error **ledger** (resource isolation);
//! * the **CE-rate window**: the intervals inside the policy's rate
//!   window, pruned by time, so the state does not grow with uptime;
//! * typed **event counts** (crash, CE, UE, fatal) of the last
//!   [`RECENT_EVENTS`] intervals that carried an error or a crash, plus
//!   a lifetime event total: what the log-pattern failure predictor
//!   scores.
//!
//! The daemon offers the paper's two services:
//!
//! * **Event-driven**: every platform interval is ingested, thresholds
//!   are evaluated, and actions may be recommended to higher layers
//!   (trigger a StressLog cycle, isolate a resource).
//! * **On-demand**: higher layers (Predictor, Hypervisor) query the
//!   ledger and the recent event counts.
//!
//! # Examples
//!
//! ```
//! use uniserver_healthlog::{HealthLog, ThresholdPolicy};
//! use uniserver_platform::{PartSpec, ServerNode, WorkloadProfile};
//! use uniserver_units::Seconds;
//!
//! let mut node = ServerNode::new(PartSpec::arm_microserver(), 1);
//! let mut health = HealthLog::new(ThresholdPolicy::default());
//! let report = node.run_interval(&WorkloadProfile::spec_bzip2(), Seconds::new(1.0));
//! assert!(health.ingest_owned(report).is_empty());
//! assert_eq!(health.events_logged(), 0, "a clean interval is not an event");
//! ```

mod daemon;
mod ledger;

pub use daemon::{EventCounts, HealthAction, HealthLog, ThresholdPolicy, RECENT_EVENTS};
pub use ledger::{ErrorLedger, LedgerKey, OriginStats};
