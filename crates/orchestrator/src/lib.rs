//! Cluster-in-the-loop orchestration: event-driven VM scheduling over a
//! heterogeneous fleet of UniServer-deployed nodes.
//!
//! The paper's savings story is ultimately a datacenter story: nodes
//! running past conservative guard-bands only pay off if a cluster
//! manager can place, migrate and evict VMs around their elevated crash
//! risk. This crate closes that loop:
//!
//! * [`config`] — scenario parameters ([`OrchestratorConfig`]), the
//!   extended-vs-nominal [`MarginPolicy`], and the [`AdmissionPolicy`]
//!   governing what happens to rejected arrivals;
//! * [`deploy`] — parallel deploy-into-cluster on scoped threads over
//!   contiguous node ranges: per-node silicon characterized to its
//!   Extended Operating Point, sharing one trained advisor per part
//!   (`uniserver_core::training::AdvisorCache`);
//! * [`events`] — the deterministic time-ordered `EventQueue`;
//! * [`orchestrator`] — the serving loop: seeded arrival batches,
//!   energy/SLA-aware placement, crash-driven eviction/migration via
//!   `uniserver_cloudmgr`, with the per-node phase sharded across up
//!   to the run's workers (`Cluster::tick`, the cap set once per run
//!   with `Cluster::set_workers`) under a deterministic sequential
//!   reduce;
//! * [`summary`] — the deterministic [`ClusterSummary`] artefact plus
//!   wall-clock [`OrchestratorTiming`];
//! * [`watchdog`] — the gray-failure health watchdog: seeded probes
//!   with K-of-N hysteresis driving degraded nodes through quarantine
//!   → budgeted drain → probation → readmit. It holds only each node's
//!   probe history ([`watchdog::ProbeWindow`]); the degraded and
//!   quarantined flags live on the cluster's nodes.
//!
//! # Examples
//!
//! ```no_run
//! use uniserver_orchestrator::{run, OrchestratorConfig};
//!
//! let summary = run(&OrchestratorConfig::smoke(8, 42));
//! assert!(summary.placed > 0);
//! assert!(summary.energy_j > 0.0);
//! ```

pub mod config;
pub mod deploy;
pub mod events;
pub mod orchestrator;
mod serve;
pub mod summary;
pub mod watchdog;

pub use config::{AdmissionPolicy, MarginPolicy, OrchestratorConfig};
pub use deploy::{deploy_cluster, DeployedNode};
pub use events::Event;
pub use orchestrator::{run, run_with_telemetry};
pub use summary::{
    ChaosOutcome, ClusterSummary, GrayOutcome, OrchestratorTiming, PartUsage, PowerOutcome,
    StageBreakdown, TickMetrics,
};
pub use uniserver_telemetry::{MetricsRegistry, Telemetry, TraceSink};
pub use uniserver_cloudmgr::lifecycle::NodePhase;
pub use uniserver_cloudmgr::policy::PolicyKind;
pub use uniserver_faultinject::chaos::ChaosPlan;
