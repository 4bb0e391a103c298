//! OpenStack-like resource management (paper §4.B).
//!
//! "Our extended version of OpenStack includes support for monitoring
//! VMs … new scheduling policies … as well as to assess the
//! susceptibility of VMs to experience catastrophic errors due to
//! hardware faults" — with the UniServer twist that a **node
//! reliability metric is added to the traditional metrics of interest
//! (availability, utilization and energy usage)**, and an integrated
//! failure-prediction component proactively migrates workloads off
//! nodes that are about to fail.
//!
//! * [`node`] — managed nodes: a full hypervisor stack per node plus
//!   the four management metrics;
//! * [`sla`] — service classes and their requirements;
//! * [`scheduler`] — Nova-style filter + weigher placement;
//! * [`policy`] — pluggable placement policies over the scheduler
//!   primitives: the reference energy/SLA scorer, pack-and-power-down
//!   consolidation with node sleep states, and the reliability-blind
//!   ablation;
//! * [`failure`] — log-pattern failure prediction (refs \[21\]\[24\]);
//! * [`lifecycle`] — the node failure lifecycle: crashed nodes go
//!   offline (real downtime, lost capacity) for a seeded MTTR window,
//!   then re-characterize and rejoin;
//! * [`migrate`] — live-migration cost model;
//! * [`stream`] — the traffic engine: capacity-scaled, diurnal and
//!   flash-crowd-modulated VM arrival batches, each with its drawn
//!   lifetime (the orchestrator's serve loop offers them and schedules
//!   the departures);
//! * [`index`] — the incremental placement index: cached scores and
//!   node facts behind every placement decision;
//! * [`cluster`] — the managed rack: submit/terminate, crash recovery,
//!   proactive migration, fleet metrics, the tick's per-node phase (on
//!   the caller's thread, or on scoped worker threads when the work
//!   pays for them), and the id-keyed placement store.
//!
//! # Examples
//!
//! ```
//! use uniserver_cloudmgr::cluster::{Cluster, ClusterConfig};
//! use uniserver_cloudmgr::sla::SlaClass;
//! use uniserver_hypervisor::vm::VmConfig;
//! use uniserver_units::Seconds;
//!
//! let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(3), 7);
//! let placed = cluster.submit(VmConfig::idle_guest(), SlaClass::Bronze);
//! assert!(placed.is_some());
//! cluster.tick(Seconds::new(1.0));
//! ```

pub mod cluster;
pub mod failure;
mod fanout;
pub mod index;
pub mod lifecycle;
pub mod migrate;
pub mod node;
pub mod policy;
pub mod scheduler;
pub mod sla;
mod store;
pub mod stream;

pub use cluster::{
    cores, resolve_workers, Cluster, ClusterConfig, ClusterTickReport, CrashRecovery, PartWeight,
    Placement, PlacementId, PowerStats,
};
pub use failure::FailurePredictor;
pub use index::PlacementIndex;
pub use lifecycle::{GrayState, NodePhase};
pub use migrate::{MigrationCost, MigrationModel};
pub use node::{ManagedNode, NodeId, NodeMetrics};
pub use policy::{
    EnergySlaPolicy, ManagementPlan, PlacementDecision, PlacementPolicy, PolicyKind, RackView,
};
pub use scheduler::{Scheduler, SchedulerWeights};
pub use sla::SlaClass;
pub use stream::{Arrival, FlashCrowds, LifetimeModel, Modulation, TrafficShape, VmStream};
