//! Managed nodes: the cloud layer's view of one server.
//!
//! Each node runs the full hypervisor stack; the manager reduces it to
//! the paper's four metrics — availability, utilization, energy usage
//! and the UniServer-specific **reliability** score.

use uniserver_units::{Joules, Seconds};

use uniserver_hypervisor::hypervisor::Hypervisor;
use uniserver_hypervisor::vm::{VmConfig, VmId};
use uniserver_platform::node::ServerNode;
use uniserver_platform::part::PartSpec;

use crate::lifecycle::{GrayState, NodePhase, NodePower, SLEEP_POWER_WATTS};

/// Identifier of a node within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// The four management metrics of §2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeMetrics {
    /// Fraction of time the node was serving (uptime / total).
    pub availability: f64,
    /// vCPUs committed / physical cores.
    pub utilization: f64,
    /// Energy consumed so far.
    pub energy: Joules,
    /// Predicted probability that the node is *not* about to fail
    /// (1.0 = healthy).
    pub reliability: f64,
}

/// One managed node.
#[derive(Debug, Clone)]
pub struct ManagedNode {
    /// Node identifier.
    pub id: NodeId,
    /// The full hypervisor stack.
    pub hypervisor: Hypervisor,
    energy: Joules,
    /// Most recent reliability score (updated by the failure predictor).
    pub reliability: f64,
    /// Failure-lifecycle phase; transitions go through the cluster's
    /// lifecycle methods so the placement index stays consistent.
    pub(crate) phase: NodePhase,
    /// Power state; transitions go through the cluster's park/wake
    /// methods so the placement index and power counters stay
    /// consistent.
    pub(crate) power: NodePower,
}

impl ManagedNode {
    /// Provisions a node of the given part, seeded deterministically.
    #[must_use]
    pub fn provision(id: NodeId, spec: PartSpec, seed: u64) -> Self {
        Self::adopt(id, ServerNode::new(spec, seed))
    }

    /// Wraps an already-prepared node (e.g. one provisioned at its
    /// Extended Operating Point by the orchestrator's deploy plumbing)
    /// into a managed node.
    #[must_use]
    pub fn adopt(id: NodeId, node: ServerNode) -> Self {
        ManagedNode {
            id,
            hypervisor: Hypervisor::new(node),
            energy: Joules::ZERO,
            reliability: 1.0,
            phase: NodePhase::Online,
            power: NodePower::Awake,
        }
    }

    /// The node's failure-lifecycle phase.
    #[must_use]
    pub fn phase(&self) -> NodePhase {
        self.phase
    }

    /// Whether the node is serving. Offline/repairing nodes are skipped
    /// by the tick loop and rejected by the scheduler filter.
    #[must_use]
    pub fn is_online(&self) -> bool {
        self.phase.is_online()
    }

    /// Whether the node is parked in the low-power sleep state. Asleep
    /// nodes are online (lifecycle-wise) but do not tick and are
    /// excluded from the scheduler filter.
    #[must_use]
    pub fn is_asleep(&self) -> bool {
        self.power == NodePower::Asleep
    }

    /// The gray-failure state while the node is degraded, else `None`.
    #[must_use]
    pub fn gray(&self) -> Option<GrayState> {
        match self.phase {
            NodePhase::Degraded { gray } => Some(gray),
            _ => None,
        }
    }

    /// Whether the node is serving gray (degraded capacity and an
    /// elevated CE rate, but still in the pool).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.phase.is_degraded()
    }

    /// Whether the watchdog has quarantined this node: still probed,
    /// still ticking, but excluded from every placement path until it
    /// survives probation.
    #[must_use]
    pub fn is_quarantined(&self) -> bool {
        matches!(self.phase, NodePhase::Degraded { gray } if gray.quarantined)
    }

    /// The vCPU budget placements may commit against: 2x core
    /// overcommit, throttled by the gray capacity cap while the node is
    /// degraded. A healthy node's budget is exactly `cores * 2`.
    #[must_use]
    pub(crate) fn vcpu_budget(&self) -> usize {
        let full = self.cores() * 2;
        match self.phase {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            NodePhase::Degraded { gray } => (full as f64 * gray.capacity_cap).floor() as usize,
            _ => full,
        }
    }

    /// Ticks the node's hypervisor and accumulates energy.
    pub fn tick(&mut self, duration: Seconds) -> uniserver_hypervisor::hypervisor::TickOutcome {
        let outcome = self.hypervisor.tick(duration);
        self.energy = self.energy + outcome.energy;
        outcome
    }

    /// Charges one sleep interval at [`SLEEP_POWER_WATTS`] and returns
    /// the energy drawn. Called by the cluster's sequential reduce for
    /// nodes skipped by the tick loop because they are asleep.
    pub(crate) fn accrue_sleep_energy(&mut self, duration: Seconds) -> Joules {
        let drawn = Joules::new(SLEEP_POWER_WATTS * duration.as_secs());
        self.energy = self.energy + drawn;
        drawn
    }

    /// Launches a VM on this node.
    ///
    /// # Errors
    ///
    /// Propagates the hypervisor's placement error when memory is
    /// exhausted.
    pub(crate) fn launch(
        &mut self,
        config: VmConfig,
    ) -> Result<VmId, uniserver_hypervisor::memdomain::PlacementError> {
        self.hypervisor.launch_vm(config)
    }

    /// Physical cores on the node.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.hypervisor.node().core_count()
    }

    /// Whether the node can fit `config` (CPU overcommit 2x — throttled
    /// by the gray capacity cap while degraded — and memory checked by
    /// the hypervisor's relaxed-domain accounting).
    #[must_use]
    pub(crate) fn fits(&self, config: &VmConfig) -> bool {
        let cpu_ok = self.hypervisor.committed_vcpus() + config.vcpus <= self.vcpu_budget();
        let mem_ok = self
            .hypervisor
            .memory_used_relaxed()
            .checked_add(config.memory)
            .is_some_and(|needed| needed <= self.hypervisor.relaxed_capacity());
        cpu_ok && mem_ok
    }

    /// The reliability score schedulers and the predictor should act
    /// on: the raw predictor score, divided by the gray CE multiplier
    /// while the node is degraded — the elevated error rate priced in
    /// honestly instead of hidden behind a stale score.
    #[must_use]
    pub fn effective_reliability(&self) -> f64 {
        match self.phase {
            NodePhase::Degraded { gray } => self.reliability / gray.ce_multiplier,
            _ => self.reliability,
        }
    }

    /// vCPUs committed / physical cores.
    #[must_use]
    pub(crate) fn utilization(&self) -> f64 {
        self.hypervisor.committed_vcpus() as f64 / self.cores() as f64
    }

    /// The current management metrics.
    #[must_use]
    pub fn metrics(&self) -> NodeMetrics {
        NodeMetrics {
            availability: self.hypervisor.availability(),
            utilization: self.utilization(),
            energy: self.energy,
            reliability: self.effective_reliability(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> ManagedNode {
        ManagedNode::provision(NodeId(0), PartSpec::arm_microserver(), 3)
    }

    #[test]
    fn fresh_node_is_healthy_and_idle() {
        let n = node();
        let m = n.metrics();
        assert_eq!(m.availability, 1.0);
        assert_eq!(m.utilization, 0.0);
        assert_eq!(m.reliability, 1.0);
        assert_eq!(m.energy, Joules::ZERO);
    }

    #[test]
    fn utilization_tracks_committed_vcpus() {
        let mut n = node();
        n.launch(VmConfig::ldbc_benchmark()).unwrap();
        n.launch(VmConfig::ldbc_benchmark()).unwrap();
        // 2 VMs x 2 vCPUs on 8 cores.
        assert!((n.metrics().utilization - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fits_respects_cpu_overcommit_and_memory() {
        let mut n = node();
        // 8 cores, 2x overcommit = 16 vCPUs; each LDBC VM takes 2 vCPUs
        // and 4 GiB of the 16 GiB relaxed domain.
        for _ in 0..4 {
            assert!(n.fits(&VmConfig::ldbc_benchmark()));
            n.launch(VmConfig::ldbc_benchmark()).unwrap();
        }
        // Memory (not CPU) is the binding constraint now.
        assert!(!n.fits(&VmConfig::ldbc_benchmark()));
    }

    #[test]
    fn degraded_nodes_throttle_capacity_and_price_reliability_honestly() {
        let mut n = node();
        assert_eq!(n.vcpu_budget(), 16, "healthy: 8 cores x 2 overcommit");
        n.launch(VmConfig::ldbc_benchmark()).unwrap();
        let gray = GrayState {
            capacity_cap: 0.25,
            ce_multiplier: 8.0,
            clears_at_tick: 100,
            quarantined: false,
        };
        n.phase = NodePhase::Degraded { gray };
        assert!(n.is_online(), "gray nodes keep serving");
        assert!(n.is_degraded());
        assert!(!n.is_quarantined());
        assert_eq!(n.vcpu_budget(), 4, "throttled to a quarter");
        // 2 vCPUs committed + 2 requested == 4: the throttled budget
        // still fits exactly one more LDBC VM, and no further.
        assert!(n.fits(&VmConfig::ldbc_benchmark()));
        n.launch(VmConfig::ldbc_benchmark()).unwrap();
        assert!(!n.fits(&VmConfig::ldbc_benchmark()), "capacity cap binds");
        assert!(
            (n.metrics().reliability - 1.0 / 8.0).abs() < 1e-12,
            "CE multiplier divides the effective reliability"
        );
        n.phase = NodePhase::Degraded { gray: GrayState { quarantined: true, ..gray } };
        assert!(n.is_quarantined());
        n.phase = NodePhase::Online;
        assert_eq!(n.vcpu_budget(), 16, "recovery restores the full budget");
        assert_eq!(n.metrics().reliability, 1.0);
    }

    #[test]
    fn energy_accumulates_with_ticks() {
        let mut n = node();
        n.launch(VmConfig::ldbc_benchmark()).unwrap();
        n.tick(Seconds::new(1.0));
        n.tick(Seconds::new(1.0));
        assert!(n.metrics().energy.as_joules() > 0.0);
    }
}
