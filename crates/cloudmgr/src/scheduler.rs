//! Nova-style filter + weigher scheduling with a reliability weigher.
//!
//! The paper's §4.B promises "new scheduling policies … focused on
//! incurring minimal overhead and being non-intrusive in real-world
//! scenarios where OpenStack would manage streams of incoming and
//! terminating VMs". The scheduler is the classic two-phase pipeline:
//! *filters* drop infeasible hosts, *weighers* rank the rest. UniServer
//! adds reliability to the weigher set.

use uniserver_hypervisor::vm::VmConfig;

use crate::node::ManagedNode;
use crate::sla::SlaClass;

/// Weigher coefficients (higher weight = preferred).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerWeights {
    /// Preference for free CPU capacity (spreading).
    pub free_capacity: f64,
    /// Preference for energy-efficient (low power-per-core) nodes.
    pub energy: f64,
    /// Preference for reliable nodes — the UniServer addition.
    pub reliability: f64,
}

impl SchedulerWeights {
    /// Balanced production weights.
    #[must_use]
    pub fn balanced() -> Self {
        SchedulerWeights { free_capacity: 1.0, energy: 0.5, reliability: 2.0 }
    }

    /// A legacy scheduler that ignores reliability (the ablation
    /// baseline).
    #[must_use]
    pub fn reliability_blind() -> Self {
        SchedulerWeights { free_capacity: 1.0, energy: 0.5, reliability: 0.0 }
    }
}

impl Default for SchedulerWeights {
    fn default() -> Self {
        SchedulerWeights::balanced()
    }
}

/// The scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Scheduler {
    /// Weigher coefficients.
    pub weights: SchedulerWeights,
}

impl Scheduler {
    /// Creates a scheduler with the given weights.
    #[must_use]
    pub fn new(weights: SchedulerWeights) -> Self {
        Scheduler { weights }
    }

    /// Filter phase: can `node` host `config` at `class`?
    ///
    /// Composed from the layered predicates below: a node must be awake
    /// (not parked in [`crate::lifecycle::NodePower::Asleep`]) and pass
    /// [`Scheduler::admits_awake`].
    #[must_use]
    pub fn filter(&self, node: &ManagedNode, config: &VmConfig, class: SlaClass) -> bool {
        !node.is_asleep() && self.admits_awake(node, config, class)
    }

    /// Feasibility for a node assumed awake (or about to be woken): the
    /// reliability-blind gates plus the class reliability floor. This is
    /// the predicate a consolidation policy checks against *asleep*
    /// candidates before spending a wake transition on them.
    #[must_use]
    pub fn admits_awake(&self, node: &ManagedNode, config: &VmConfig, class: SlaClass) -> bool {
        self.admits_blind(node, config, class)
            && node.effective_reliability() >= class.min_reliability()
    }

    /// The pre-UniServer feasibility gates: capacity, liveness, and the
    /// availability floor — everything *except* the reliability floor.
    /// The `reliability_blind()` ablation admits exactly this set.
    /// `fits` is capacity-capped while a node serves gray, and a
    /// watchdog-quarantined node hosts nothing until it survives
    /// probation — even the blind ablation respects the quarantine,
    /// because a quarantined node is operationally out of the pool, not
    /// merely predicted unreliable.
    #[must_use]
    pub fn admits_blind(&self, node: &ManagedNode, config: &VmConfig, class: SlaClass) -> bool {
        node.fits(config)
            // The failure lifecycle pulls crashed nodes out of the pool
            // entirely; an offline or rejoining node hosts nothing.
            && node.is_online()
            && !node.is_quarantined()
            && !node.hypervisor.node().is_crashed()
            // Availability gating uses the class requirement directly;
            // fresh nodes (availability 1.0) pass every floor.
            && node.hypervisor.availability() >= class.min_availability() - 1e-12
    }

    /// Weigher phase: the placement score of a feasible node.
    #[must_use]
    pub fn weigh(&self, node: &ManagedNode) -> f64 {
        let free = 1.0 - node.utilization().min(1.0);
        self.weights.free_capacity * free
            + self.weights.reliability * node.effective_reliability()
            + self.weights.energy * self.energy_score(node)
    }

    /// Energy score in `[0, 1]`: cooler parts (lower nominal per-core
    /// power proxy) score higher.
    fn energy_score(&self, node: &ManagedNode) -> f64 {
        let spec = node.hypervisor.node().part();
        let per_core = spec.power.ceff_nf * spec.nominal_voltage.as_volts().powi(2)
            * spec.nominal_frequency.as_mhz()
            / 1000.0;
        (1.0 / (1.0 + per_core / 3.0)).clamp(0.0, 1.0)
    }

    /// Full placement by linear scan: the feasible node with the highest
    /// `(score, NodeId)` — ties between equal-score nodes break towards
    /// the **higher** node id, explicitly.
    ///
    /// The tie-break used to be implicit: `max_by` keeps the *last*
    /// maximum, so equal-score nodes resolved by whatever order the
    /// iterator happened to visit them in. Index-ordered scans made that
    /// look deterministic, but any re-ordered iterator (or an indexed
    /// scan) would silently pick a different node. The explicit ordering
    /// is what [`crate::index::PlacementIndex`] reproduces, so the
    /// indexed fast path and this reference scan are byte-comparable.
    #[must_use]
    pub fn place_linear<'a>(
        &self,
        nodes: impl Iterator<Item = &'a ManagedNode>,
        config: &VmConfig,
        class: SlaClass,
    ) -> Option<crate::node::NodeId> {
        nodes
            .filter(|n| self.filter(n, config, class))
            .map(|n| (self.weigh(n), n.id))
            .max_by(|a, b| {
                a.0.partial_cmp(&b.0).expect("weights are finite").then_with(|| a.1.cmp(&b.1))
            })
            .map(|(_, id)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use uniserver_platform::part::PartSpec;

    fn nodes(n: usize) -> Vec<ManagedNode> {
        (0..n)
            .map(|i| ManagedNode::provision(NodeId(i as u32), PartSpec::arm_microserver(), i as u64))
            .collect()
    }

    #[test]
    fn placement_prefers_empty_reliable_nodes() {
        let mut ns = nodes(3);
        // Load node 0 heavily; degrade node 1's reliability.
        for _ in 0..4 {
            ns[0].launch(uniserver_hypervisor::vm::VmConfig::ldbc_benchmark()).unwrap();
        }
        ns[1].reliability = 0.2;
        let s = Scheduler::default();
        let chosen = s
            .place_linear(ns.iter(), &uniserver_hypervisor::vm::VmConfig::ldbc_benchmark(), SlaClass::Gold)
            .expect("a node fits");
        assert_eq!(chosen, NodeId(2));
    }

    #[test]
    fn gold_rejects_unreliable_nodes_bronze_tolerates() {
        let mut ns = nodes(1);
        ns[0].reliability = 0.5;
        let s = Scheduler::default();
        let cfg = uniserver_hypervisor::vm::VmConfig::idle_guest();
        assert!(s.place_linear(ns.iter(), &cfg, SlaClass::Gold).is_none());
        assert!(s.place_linear(ns.iter(), &cfg, SlaClass::Bronze).is_some());
    }

    #[test]
    fn blind_scheduler_ignores_reliability_in_weighing() {
        let mut ns = nodes(2);
        ns[0].reliability = 0.31; // just above Bronze's floor
        let blind = Scheduler::new(SchedulerWeights::reliability_blind());
        let aware = Scheduler::new(SchedulerWeights::balanced());
        let cfg = uniserver_hypervisor::vm::VmConfig::idle_guest();
        // The blind scheduler sees two identical nodes and picks the max
        // — tie-broken explicitly towards the higher NodeId; the aware
        // scheduler must pick the reliable node 1.
        assert_eq!(aware.place_linear(ns.iter(), &cfg, SlaClass::Bronze), Some(NodeId(1)));
        let w0 = blind.weigh(&ns[0]);
        let w1 = blind.weigh(&ns[1]);
        assert!((w0 - w1).abs() < 1e-12, "blind weights must tie: {w0} vs {w1}");
    }

    #[test]
    fn nodes_below_the_class_availability_floor_are_filtered() {
        use uniserver_units::Seconds;

        let mut ns = nodes(1);
        // Crash the node once: the 120 s reboot penalty against a few
        // seconds of uptime sinks availability below every class floor.
        let deep = ns[0].hypervisor.node().part().offset_mv(0.20);
        ns[0].hypervisor.node_mut().msr.set_voltage_offset_all(deep).unwrap();
        ns[0].launch(uniserver_hypervisor::vm::VmConfig::ldbc_benchmark()).unwrap();
        let mut crashed = false;
        for _ in 0..120 {
            if ns[0].tick(Seconds::new(1.0)).node_crashed {
                crashed = true;
                break;
            }
        }
        assert!(crashed, "a 20 % undervolt must crash within 120 ticks");
        // Isolate the availability gate: reliability stays pristine.
        ns[0].reliability = 1.0;
        let m = ns[0].metrics();
        assert!(
            m.availability < SlaClass::Bronze.min_availability(),
            "reboot penalty must sink availability below the lowest floor: {}",
            m.availability
        );
        let s = Scheduler::default();
        let cfg = uniserver_hypervisor::vm::VmConfig::idle_guest();
        for class in [SlaClass::Gold, SlaClass::Silver, SlaClass::Bronze] {
            assert!(!s.filter(&ns[0], &cfg, class), "{class} must reject the node");
        }
        assert!(s.place_linear(ns.iter(), &cfg, SlaClass::Bronze).is_none());
    }

    #[test]
    fn equal_score_ties_break_by_node_id_not_scan_order() {
        // Three identical fresh nodes tie exactly (same part, zero
        // utilization, pristine reliability): the winner must be the
        // highest NodeId no matter how the iterator orders the rack.
        // (The old `max_by`-only scan returned the *last* maximum, so a
        // reversed iterator silently flipped the pick to NodeId(0).)
        let ns = nodes(3);
        let s = Scheduler::default();
        let cfg = uniserver_hypervisor::vm::VmConfig::idle_guest();
        let w: Vec<f64> = ns.iter().map(|n| s.weigh(n)).collect();
        assert!(w.iter().all(|&x| x == w[0]), "fresh same-part nodes must tie: {w:?}");
        let forward = s.place_linear(ns.iter(), &cfg, SlaClass::Gold);
        let reversed = s.place_linear(ns.iter().rev(), &cfg, SlaClass::Gold);
        assert_eq!(forward, Some(NodeId(2)), "ties break towards the higher id");
        assert_eq!(forward, reversed, "scan order must not change the winner");
    }

    #[test]
    fn full_nodes_are_filtered_out() {
        let mut ns = nodes(1);
        for _ in 0..4 {
            ns[0].launch(uniserver_hypervisor::vm::VmConfig::ldbc_benchmark()).unwrap();
        }
        let s = Scheduler::default();
        assert!(s
            .place_linear(ns.iter(), &uniserver_hypervisor::vm::VmConfig::ldbc_benchmark(), SlaClass::Bronze)
            .is_none());
    }
}
