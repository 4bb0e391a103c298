//! Pluggable placement policies: one trait, three competing managers.
//!
//! PR 8 demonstrated the paper's headline claim — extended-margin
//! operation beats conservative scaling — under exactly one placement
//! policy. To tell how much of the energy win survives a different
//! scheduler, placement becomes a [`PlacementPolicy`] trait (the same
//! pluggable-backend shape the hypervisor stack uses for guests) and
//! the suite ships three implementations that compete on
//! energy × crashes × SLA abandons:
//!
//! * [`EnergySlaPolicy`] — the reference: the Nova-style filter +
//!   weigher pipeline of [`Scheduler`], byte-identical to the
//!   pre-trait behavior.
//! * `ConsolidatePolicy` — pack-and-power-down consolidation in the
//!   Beloglazov et al. taxonomy: place onto the *lowest*-scored
//!   feasible node (packing), park drained nodes in
//!   `NodePower::Asleep` at near-zero
//!   power, wake them on demand pressure, and rebalance with
//!   migration-cost-aware drain thresholds.
//! * `ReliabilityBlindPolicy` — the ablation:
//!   `SchedulerWeights::reliability_blind` weighing plus a filter
//!   with the reliability floor removed, quantifying what the
//!   UniServer reliability signal buys.
//!
//! Policies are stateless: every decision is a pure function of the
//! rack view and the request, and the only draws a policy may make are
//! pure in `(seed, tick)` — so every summary row is byte-stable across
//! worker counts, per the workspace determinism contract.
//!
//! Decisions read the rack through [`RackView`], which filters every
//! candidate on the placement index's cached node facts before it
//! touches a [`ManagedNode`]: power state, and the online, quarantine
//! and vCPU / relaxed-memory headroom gates of
//! `Scheduler::admits_blind`, which every policy's `admits` implies.
//! The live [`PlacementPolicy::admits`] confirms the survivors and
//! applies everything else (crash state, availability and reliability
//! floors), so a decision over a mostly asleep or mostly full rack
//! reads few nodes.

use std::sync::Arc;

use uniserver_hypervisor::vm::VmConfig;

use crate::index::{NodeFacts, PlacementIndex};
use crate::node::{ManagedNode, NodeId};
use crate::scheduler::{Scheduler, SchedulerWeights};
use crate::sla::SlaClass;

/// The policy selector: a parseable, copyable name for each shipped
/// policy, used by `OrchestratorConfig` and the `fleet_sim --policy`
/// flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// The reference energy/SLA scorer (the default).
    #[default]
    EnergySla,
    /// Pack-and-power-down consolidation with sleep states.
    Consolidate,
    /// The reliability-blind ablation.
    ReliabilityBlind,
}

impl PolicyKind {
    /// Every shipped policy, in matrix order.
    pub const ALL: [PolicyKind; 3] =
        [PolicyKind::EnergySla, PolicyKind::Consolidate, PolicyKind::ReliabilityBlind];

    /// Parses a CLI policy name. Returns `None` for unknown names so
    /// drivers can reject them before a run starts.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "energy-sla" => Some(PolicyKind::EnergySla),
            "consolidate" => Some(PolicyKind::Consolidate),
            "reliability-blind" => Some(PolicyKind::ReliabilityBlind),
            _ => None,
        }
    }

    /// The canonical CLI/JSON name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::EnergySla => "energy-sla",
            PolicyKind::Consolidate => "consolidate",
            PolicyKind::ReliabilityBlind => "reliability-blind",
        }
    }

    /// Builds the policy object. `scheduler` carries the configured
    /// weigher coefficients; the blind ablation substitutes its own
    /// weights (that substitution *is* the ablation).
    #[must_use]
    pub fn build(self, scheduler: Scheduler) -> Arc<dyn PlacementPolicy> {
        match self {
            PolicyKind::EnergySla => Arc::new(EnergySlaPolicy::new(scheduler)),
            PolicyKind::Consolidate => Arc::new(ConsolidatePolicy::new(scheduler)),
            PolicyKind::ReliabilityBlind => Arc::new(ReliabilityBlindPolicy::new()),
        }
    }
}

/// What a policy decided for one placement request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementDecision {
    /// Place onto this awake, feasible node.
    Place(NodeId),
    /// Wake this sleeping node and place onto it (demand pressure).
    WakeAndPlace(NodeId),
    /// No feasible node, awake or asleep.
    Reject,
}

/// A consolidation pass's orders: nodes to park (already empty) and
/// nodes to drain (migrate off, then park). Disjoint lists; the cluster
/// executes parks first so drain targets can never be freshly-parked
/// nodes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ManagementPlan {
    /// Empty awake nodes to put to sleep immediately.
    pub park: Vec<NodeId>,
    /// Lightly-loaded nodes to drain towards the pack, then park.
    pub drain: Vec<NodeId>,
}

/// A read-only view of the rack for policy decisions: the node slice
/// plus the cluster's flushed [`PlacementIndex`], whose cached scores,
/// cached node facts and `(score, NodeId)` ranking serve every query
/// — best-first for spreading and waking, cached scores for walks in
/// another order. Candidates are filtered on their cached facts first;
/// a [`ManagedNode`] is read only to confirm a survivor with the
/// policy's live [`PlacementPolicy::admits`].
#[derive(Debug, Clone, Copy)]
pub struct RackView<'a> {
    /// All managed nodes, dense by `NodeId`.
    pub nodes: &'a [ManagedNode],
    index: &'a PlacementIndex,
}

impl<'a> RackView<'a> {
    /// A view backed by the placement index, which must be flushed
    /// against `nodes` under the deciding policy's weigher.
    #[must_use]
    pub fn new(nodes: &'a [ManagedNode], index: &'a PlacementIndex) -> Self {
        RackView { nodes, index }
    }

    /// The placement score of `node`: the index's cached weigher score.
    #[must_use]
    pub(crate) fn score(&self, node: &ManagedNode) -> f64 {
        self.index.score(node.id)
    }

    /// Every node's cached facts, dense by `NodeId`.
    fn facts(&self) -> &'a [NodeFacts] {
        self.index.facts()
    }

    /// The first node in descending `(score, NodeId)` order whose power
    /// state is `asleep` and that `policy` admits.
    fn first_ranked<P: PlacementPolicy + ?Sized>(
        &self,
        policy: &P,
        config: &VmConfig,
        class: SlaClass,
        avoid: &[NodeId],
        asleep: bool,
    ) -> Option<NodeId> {
        let facts = self.facts();
        self.index.ranked_rev().find(|id| {
            let f = &facts[id.0 as usize];
            f.asleep == asleep
                && f.may_admit(config)
                && !avoid.contains(id)
                && policy.admits(&self.nodes[id.0 as usize], config, class)
        })
    }

    /// The feasible node with the *highest* `(score, NodeId)` — the
    /// spreading end of the ranking, the same node
    /// [`Scheduler::place_linear`] picks for the reference policy.
    #[must_use]
    pub fn best<P: PlacementPolicy + ?Sized>(
        &self,
        policy: &P,
        config: &VmConfig,
        class: SlaClass,
        avoid: &[NodeId],
    ) -> Option<NodeId> {
        self.first_ranked(policy, config, class, avoid, false)
    }

    /// The best-scored *asleep* node that would admit the request once
    /// woken — the wake-on-demand candidate.
    #[must_use]
    pub(crate) fn best_asleep<P: PlacementPolicy + ?Sized>(
        &self,
        policy: &P,
        config: &VmConfig,
        class: SlaClass,
        avoid: &[NodeId],
    ) -> Option<NodeId> {
        self.first_ranked(policy, config, class, avoid, true)
    }
}

/// A placement policy: the pluggable brain behind every submit,
/// re-offer, crash recovery and shed decision the cluster makes.
///
/// Implementations are immutable and shared (`Arc<dyn PlacementPolicy>`
/// in the cluster), so decisions must be pure functions of the view and
/// the request — any randomness must be a pure function of
/// `(seed, tick)`.
pub trait PlacementPolicy: std::fmt::Debug + Send + Sync {
    /// The policy's canonical name (matches [`PolicyKind::label`]).
    fn name(&self) -> &'static str;

    /// The weigher whose scores rank the rack (and that the placement
    /// index caches).
    fn scheduler(&self) -> &Scheduler;

    /// Request-dependent feasibility of one node, *ignoring* its power
    /// state (the view applies the sleep gate; the wake path checks
    /// feasibility of sleeping candidates through this too). The
    /// default is the reference filter's awake gates.
    ///
    /// Whatever it adds, it must imply `Scheduler::admits_blind` —
    /// the view drops candidates whose cached node facts already fail
    /// those gates without calling this.
    fn admits(&self, node: &ManagedNode, config: &VmConfig, class: SlaClass) -> bool {
        self.scheduler().admits_awake(node, config, class)
    }

    /// One placement decision. The default is the reference behavior:
    /// best-first spreading, never waking anyone.
    fn decide(
        &self,
        view: &RackView<'_>,
        config: &VmConfig,
        class: SlaClass,
        avoid: &[NodeId],
    ) -> PlacementDecision {
        match view.best(self, config, class, avoid) {
            Some(id) => PlacementDecision::Place(id),
            None => PlacementDecision::Reject,
        }
    }

    /// Whether prediction-driven proactive migration runs under this
    /// policy. The blind ablation turns it off — it cannot see the
    /// predictor's signal by definition.
    fn proactive_migration(&self) -> bool {
        true
    }

    /// Whether the policy runs a periodic management pass. When false
    /// (the default) the cluster skips [`PlacementPolicy::manage`]
    /// entirely, keeping the reference path zero-overhead.
    fn manages(&self) -> bool {
        false
    }

    /// Cadence, in ticks, at which the cluster re-scores *asleep* nodes
    /// through the failure predictor — the slow clock that lets a node
    /// parked mid-reliability-dip age its error evidence out and
    /// recover while it sleeps, instead of freezing below the wake
    /// floors forever. `None` (the default) never re-scores, which is
    /// byte-identical to the pre-slow-clock behavior.
    fn sleeper_rescore_every(&self) -> Option<u64> {
        None
    }

    /// The periodic management pass: given the rack view, per-node live
    /// placement counts and the current tick, return park/drain orders.
    /// Draws, if any, must be pure in `(seed, tick)`.
    fn manage(
        &self,
        view: &RackView<'_>,
        occupancy: &[u32],
        tick: u64,
        seed: u64,
    ) -> ManagementPlan {
        let _ = (view, occupancy, tick, seed);
        ManagementPlan::default()
    }
}

/// The reference policy: the energy/SLA filter + weigher pipeline,
/// byte-identical to pre-trait placement.
#[derive(Debug, Clone, Copy)]
pub struct EnergySlaPolicy {
    scheduler: Scheduler,
}

impl EnergySlaPolicy {
    /// Wraps the configured scheduler.
    #[must_use]
    pub fn new(scheduler: Scheduler) -> Self {
        EnergySlaPolicy { scheduler }
    }
}

impl PlacementPolicy for EnergySlaPolicy {
    fn name(&self) -> &'static str {
        PolicyKind::EnergySla.label()
    }

    fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }
}

/// The reliability-blind ablation: weighs with
/// [`SchedulerWeights::reliability_blind`] and admits through
/// [`Scheduler::admits_blind`] — no reliability floor, no proactive
/// migration. Running the matrix with and without this policy prices
/// the UniServer reliability signal.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReliabilityBlindPolicy {
    scheduler: Scheduler,
}

impl ReliabilityBlindPolicy {
    /// The ablation always uses the blind weights; a configured
    /// scheduler would defeat its purpose.
    #[must_use]
    pub(crate) fn new() -> Self {
        ReliabilityBlindPolicy { scheduler: Scheduler::new(SchedulerWeights::reliability_blind()) }
    }
}

impl Default for ReliabilityBlindPolicy {
    fn default() -> Self {
        ReliabilityBlindPolicy::new()
    }
}

impl PlacementPolicy for ReliabilityBlindPolicy {
    fn name(&self) -> &'static str {
        PolicyKind::ReliabilityBlind.label()
    }

    fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    fn admits(&self, node: &ManagedNode, config: &VmConfig, class: SlaClass) -> bool {
        self.scheduler.admits_blind(node, config, class)
    }

    fn proactive_migration(&self) -> bool {
        false
    }
}

/// Pack-and-power-down consolidation: place onto the fullest feasible
/// node, periodically park empties (keeping a spare buffer awake) and
/// drain stragglers whose migrations are cheap, wake sleepers on demand
/// pressure. Closes the energy-proportionality gap: an idle node burns
/// a large fraction of peak power, a parked one draws
/// [`crate::lifecycle::SLEEP_POWER_WATTS`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConsolidatePolicy {
    scheduler: Scheduler,
    /// Slow-clock cadence, in ticks, at which the cluster re-runs the
    /// failure predictor over *asleep* nodes so a mid-dip park recovers
    /// in its sleep (silent decay ages the error evidence out).
    pub sleeper_rescore_every: u64,
}

/// Consolidation pass period, in ticks (one minute at 5 s ticks).
const REBALANCE_EVERY: u64 = 12;
/// Empty nodes kept awake as a demand buffer (hysteresis against
/// park/wake thrash).
const SPARE_NODES: usize = 2;
/// Nodes drained per consolidation pass — one, so a pass can never
/// ping-pong VMs between two draining nodes.
const MAX_DRAINS_PER_PASS: usize = 1;
/// Only nodes at or below this many placements are drain candidates.
const DRAIN_MAX_PLACEMENTS: u32 = 2;
/// Per-VM migration budget: a drain aborts if any resident VM's
/// predicted pre-copy duration exceeds this many seconds
/// (migration-cost-aware rebalancing — moving a hot VM costs more than
/// the sleep saves).
pub(crate) const MAX_MIGRATION_SECS: f64 = 10.0;

impl ConsolidatePolicy {
    /// The consolidation policy over `scheduler`, re-scoring sleepers
    /// every 60 ticks (five minutes at 5 s ticks).
    #[must_use]
    pub(crate) fn new(scheduler: Scheduler) -> Self {
        ConsolidatePolicy { scheduler, sleeper_rescore_every: 60 }
    }

    /// Whether parking `node` is safe. The availability wake floor must
    /// pass *right now*: a sleeping node accrues neither uptime nor
    /// downtime, so availability freezes at park time and a node parked
    /// below Gold's floor could never serve premium wakes. Reliability
    /// is deliberately *not* gated any more — the cluster re-scores
    /// sleepers on a slow clock
    /// ([`PlacementPolicy::sleeper_rescore_every`]), so a node parked
    /// mid-reliability-dip ages its error evidence out while asleep and
    /// wakes recovered instead of freezing below the floors forever.
    /// Gray nodes never park: a parked node is invisible to the health
    /// watchdog's probes, and its fault clock must keep running in view.
    fn parkable(&self, node: &ManagedNode) -> bool {
        !node.is_degraded()
            && node.hypervisor.availability() >= SlaClass::Gold.min_availability() - 1e-12
    }

    /// Reliability band (quarters of the unit interval, top band
    /// `[0.75, 1.0]`) used as the pack walk's primary key.
    fn reliability_band(reliability: f64) -> u8 {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let band = (reliability.clamp(0.0, 1.0) * 4.0).floor() as u8;
        band.min(3)
    }

    /// The pack walk's target: among feasible awake nodes, the highest
    /// reliability *band* first, then the legacy lowest `(score, id)`
    /// within that band. Pure worst-first packing concentrated load on
    /// exactly the nodes the predictor was souring on — low reliability
    /// drags the weigher score down, so the walk kept piling VMs onto
    /// the flakiest node and proactive migration kept hauling them back
    /// off. Banding keeps the bin-packing behavior between comparable
    /// nodes but never prefers a node a full band less reliable.
    /// Degraded nodes are never packing targets: their capacity cap is
    /// a symptom, not a bin to fill.
    ///
    /// The band key does not follow the index's `(score, id)` order, so
    /// the walk visits every node's cached facts in id order:
    /// asleep, degraded and fact-infeasible nodes drop out there, the
    /// key comes from the cached reliability and score, and the live
    /// [`PlacementPolicy::admits`] runs only on a candidate whose key
    /// beats the best admitted one so far. Visiting ids in ascending
    /// order makes a tied key never beat, so the pick is the minimum
    /// over all admitted nodes of `(band desc, score asc, id asc)`.
    fn pack_target(
        &self,
        view: &RackView<'_>,
        config: &VmConfig,
        class: SlaClass,
        avoid: &[NodeId],
    ) -> Option<NodeId> {
        let mut best: Option<(u8, f64, NodeId)> = None;
        for (i, f) in view.facts().iter().enumerate() {
            if f.asleep || f.degraded || !f.may_admit(config) {
                continue;
            }
            #[allow(clippy::cast_possible_truncation)]
            let id = NodeId(i as u32);
            let band = Self::reliability_band(f.reliability);
            let score = view.index.score(id);
            let beats = best.is_none_or(|(b, s, _)| band > b || (band == b && score < s));
            if beats && !avoid.contains(&id) && self.admits(&view.nodes[i], config, class) {
                best = Some((band, score, id));
            }
        }
        best.map(|(_, _, id)| id)
    }
}

impl PlacementPolicy for ConsolidatePolicy {
    fn name(&self) -> &'static str {
        PolicyKind::Consolidate.label()
    }

    fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The reference gates *plus* the hypervisor's exact launch
    /// predicate. The coarse capacity filter only checks the relaxed
    /// domain; a packed node whose *reliable* domain is exhausted still
    /// passes it, and because packing walks worst-first, that node stays
    /// the first candidate — a black hole where every launch fails while
    /// sleepers idle. The precise check drops it from the walk instead.
    fn admits(&self, node: &ManagedNode, config: &VmConfig, class: SlaClass) -> bool {
        self.scheduler.admits_awake(node, config, class) && node.hypervisor.can_host(config)
    }

    fn decide(
        &self,
        view: &RackView<'_>,
        config: &VmConfig,
        class: SlaClass,
        avoid: &[NodeId],
    ) -> PlacementDecision {
        // Pack: the lowest-scored awake node that still fits, within the
        // highest reliability band on offer.
        if let Some(id) = self.pack_target(view, config, class, avoid) {
            return PlacementDecision::Place(id);
        }
        // Demand pressure: wake the best sleeping candidate.
        match view.best_asleep(self, config, class, avoid) {
            Some(id) => PlacementDecision::WakeAndPlace(id),
            None => PlacementDecision::Reject,
        }
    }

    fn manages(&self) -> bool {
        true
    }

    fn sleeper_rescore_every(&self) -> Option<u64> {
        Some(self.sleeper_rescore_every)
    }

    fn manage(
        &self,
        view: &RackView<'_>,
        occupancy: &[u32],
        tick: u64,
        _seed: u64,
    ) -> ManagementPlan {
        if !tick.is_multiple_of(REBALANCE_EVERY) {
            return ManagementPlan::default();
        }
        // Empty awake nodes, best-scored first: the top `SPARE_NODES`
        // stay awake as the demand buffer, the rest park. Only
        // [`ConsolidatePolicy::parkable`] nodes qualify — gray nodes
        // stay awake in the watchdog's view, availability-sunk nodes
        // stay awake because that metric freezes at park time. Scores
        // are the index's cached ones ([`RackView::score`], the policy's
        // own weigher).
        let mut empties: Vec<(f64, NodeId)> = view
            .nodes
            .iter()
            .filter(|n| {
                n.is_online()
                    && !n.is_asleep()
                    && occupancy[n.id.0 as usize] == 0
                    && self.parkable(n)
            })
            .map(|n| (view.score(n), n.id))
            .collect();
        empties.sort_by(|a, b| {
            b.0.partial_cmp(&a.0).expect("weights are finite").then_with(|| b.1.cmp(&a.1))
        });
        let park: Vec<NodeId> =
            empties.iter().skip(SPARE_NODES).map(|&(_, id)| id).collect();

        // Drain the lightest straggler (lowest occupancy, then lowest
        // id) so its handful of VMs join the pack and it can park next.
        // Draining ends in a park, so the same parkability gate applies.
        let mut stragglers: Vec<(u32, NodeId)> = view
            .nodes
            .iter()
            .filter(|n| {
                n.is_online()
                    && !n.is_asleep()
                    && (1..=DRAIN_MAX_PLACEMENTS).contains(&occupancy[n.id.0 as usize])
                    && self.parkable(n)
            })
            .map(|n| (occupancy[n.id.0 as usize], n.id))
            .collect();
        stragglers.sort_unstable();
        let drain: Vec<NodeId> =
            stragglers.iter().take(MAX_DRAINS_PER_PASS).map(|&(_, id)| id).collect();

        ManagementPlan { park, drain }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::{GrayState, NodePhase, NodePower};
    use uniserver_platform::part::PartSpec;

    fn nodes(n: usize) -> Vec<ManagedNode> {
        (0..n)
            .map(|i| {
                #[allow(clippy::cast_possible_truncation)]
                ManagedNode::provision(NodeId(i as u32), PartSpec::arm_microserver(), i as u64)
            })
            .collect()
    }

    /// A placement index over `ns`, flushed under `policy`'s weigher —
    /// what the cluster hands a policy before every decision.
    fn flushed(ns: &[ManagedNode], policy: &dyn PlacementPolicy) -> PlacementIndex {
        let mut index = PlacementIndex::new(ns.len());
        index.flush(policy.scheduler(), ns);
        index
    }

    #[test]
    fn policy_names_parse_and_roundtrip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.build(Scheduler::default()).name(), kind.label());
        }
        assert_eq!(PolicyKind::parse("spread"), None);
        assert_eq!(PolicyKind::parse(""), None);
        assert_eq!(PolicyKind::default(), PolicyKind::EnergySla);
    }

    #[test]
    fn reference_policy_decides_exactly_like_place_linear() {
        let mut ns = nodes(4);
        for _ in 0..3 {
            ns[3].launch(VmConfig::ldbc_benchmark()).unwrap();
        }
        ns[1].reliability = 0.4;
        let scheduler = Scheduler::default();
        let policy = EnergySlaPolicy::new(scheduler);
        let cfg = VmConfig::ldbc_benchmark();
        let index = flushed(&ns, &policy);
        for class in [SlaClass::Gold, SlaClass::Silver, SlaClass::Bronze] {
            let expected = match scheduler.place_linear(ns.iter(), &cfg, class) {
                Some(id) => PlacementDecision::Place(id),
                None => PlacementDecision::Reject,
            };
            assert_eq!(policy.decide(&RackView::new(&ns, &index), &cfg, class, &[]), expected);
        }
    }

    #[test]
    fn blind_policy_places_onto_quarantine_worthy_nodes() {
        // One node, reliability collapsed below even Bronze's 0.3 floor:
        // the reference policy quarantines it (no placement at any
        // class); the ablation, blind to the signal, happily uses it.
        let mut ns = nodes(1);
        ns[0].reliability = 0.2;
        let reference = EnergySlaPolicy::new(Scheduler::default());
        let blind = ReliabilityBlindPolicy::new();
        let cfg = VmConfig::ldbc_benchmark();
        let (reference_index, blind_index) = (flushed(&ns, &reference), flushed(&ns, &blind));
        for class in [SlaClass::Gold, SlaClass::Silver, SlaClass::Bronze] {
            assert_eq!(
                reference.decide(&RackView::new(&ns, &reference_index), &cfg, class, &[]),
                PlacementDecision::Reject,
                "the reference policy must quarantine at {class}"
            );
            assert_eq!(
                blind.decide(&RackView::new(&ns, &blind_index), &cfg, class, &[]),
                PlacementDecision::Place(NodeId(0)),
                "the blind ablation must place at {class}"
            );
        }
        assert!(!blind.proactive_migration(), "blind cannot act on predictions");
    }

    #[test]
    fn consolidation_packs_where_the_reference_spreads() {
        let mut ns = nodes(2);
        ns[0].launch(VmConfig::ldbc_benchmark()).unwrap();
        let scheduler = Scheduler::default();
        let cfg = VmConfig::ldbc_benchmark();
        let reference = EnergySlaPolicy::new(scheduler);
        let pack = ConsolidatePolicy::new(scheduler);
        // Both policies weigh with the same scheduler, so one index
        // serves both.
        let index = flushed(&ns, &pack);
        let view = RackView::new(&ns, &index);
        assert_eq!(
            reference.decide(&view, &cfg, SlaClass::Bronze, &[]),
            PlacementDecision::Place(NodeId(1)),
            "the reference spreads onto the empty node"
        );
        assert_eq!(
            pack.decide(&view, &cfg, SlaClass::Bronze, &[]),
            PlacementDecision::Place(NodeId(0)),
            "consolidation packs onto the loaded node"
        );
    }

    #[test]
    fn consolidation_wakes_a_sleeper_under_demand_pressure() {
        let mut ns = nodes(2);
        // Node 0 is full; node 1 sleeps.
        for _ in 0..4 {
            ns[0].launch(VmConfig::ldbc_benchmark()).unwrap();
        }
        ns[1].power = NodePower::Asleep;
        let pack = ConsolidatePolicy::new(Scheduler::default());
        let cfg = VmConfig::ldbc_benchmark();
        let index = flushed(&ns, &pack);
        let view = RackView::new(&ns, &index);
        assert_eq!(
            pack.decide(&view, &cfg, SlaClass::Bronze, &[]),
            PlacementDecision::WakeAndPlace(NodeId(1)),
            "demand pressure must wake the sleeper"
        );
        // The reference policy never wakes anyone.
        let reference = EnergySlaPolicy::new(Scheduler::default());
        assert_eq!(
            reference.decide(&view, &cfg, SlaClass::Bronze, &[]),
            PlacementDecision::Reject
        );
    }

    #[test]
    fn consolidation_skips_launch_infeasible_nodes_the_coarse_filter_admits() {
        use uniserver_hypervisor::hypervisor::{Hypervisor, HypervisorConfig};
        use uniserver_platform::node::ServerNode;
        use uniserver_units::Bytes;

        // Node 0's reliable domain exhausts after one guest (inflated
        // fixed overhead), while its relaxed domain and vCPU budget
        // still pass the coarse `fits` check. Node 1 sleeps.
        let mut ns = nodes(2);
        ns[0].hypervisor = Hypervisor::with_config(
            ServerNode::new(PartSpec::arm_microserver(), 0),
            HypervisorConfig { per_vm_fixed: Bytes::gib(9), ..HypervisorConfig::default() },
        );
        let cfg = VmConfig::ldbc_benchmark();
        ns[0].launch(cfg.clone()).unwrap();
        ns[1].power = NodePower::Asleep;
        assert!(ns[0].fits(&cfg), "the coarse filter still admits the packed node");
        assert!(!ns[0].hypervisor.can_host(&cfg), "but a launch there would fail");

        // Without the precise gate, packing would keep returning node 0
        // — the black hole where every launch fails. With it, demand
        // pressure falls through to the sleeper.
        let pack = ConsolidatePolicy::new(Scheduler::default());
        let index = flushed(&ns, &pack);
        assert_eq!(
            pack.decide(&RackView::new(&ns, &index), &cfg, SlaClass::Bronze, &[]),
            PlacementDecision::WakeAndPlace(NodeId(1)),
            "consolidation must skip the launch-infeasible node"
        );
    }

    #[test]
    fn dipped_nodes_park_but_gray_nodes_never_do() {
        // A mid-reliability-dip empty *does* park now: the sleeper slow
        // clock ([`PlacementPolicy::sleeper_rescore_every`]) re-scores
        // it while asleep, so the dip ages out in its sleep and the park
        // is recoverable. Gray (Degraded-phase) nodes still never park
        // or drain — a parked node is invisible to the watchdog probes
        // that must drive it through quarantine and probation.
        let gray = GrayState {
            capacity_cap: 0.5,
            ce_multiplier: 8.0,
            clears_at_tick: 1000,
            quarantined: false,
        };
        let mut ns = nodes(6);
        ns[0].reliability = 0.25; // dipped — recoverable asleep, parks
        ns[1].phase = NodePhase::Degraded { gray }; // gray — never parks
        ns[5].launch(VmConfig::ldbc_benchmark()).unwrap();
        ns[5].phase = NodePhase::Degraded { gray }; // gray straggler
        let occupancy = [0, 0, 0, 0, 0, 1];
        let pack = ConsolidatePolicy::new(Scheduler::default());
        let index = flushed(&ns, &pack);
        let plan = pack.manage(&RackView::new(&ns, &index), &occupancy, 0, 7);
        // Healthy empties 2..=4 tie on score and sort desc by id; the
        // two highest-id ones stay as spares, then come node 2 and the
        // low-scored dipped node 0. The gray empty never appears.
        assert_eq!(
            plan.park,
            vec![NodeId(2), NodeId(0)],
            "the dip parks (recoverable), the gray empty must not"
        );
        assert!(
            plan.drain.is_empty(),
            "a gray straggler must not be drained into a park"
        );
    }

    #[test]
    fn packing_prefers_the_higher_reliability_band_and_skips_gray_nodes() {
        let mut ns = nodes(3);
        // Node 0: heaviest load, a full band less reliable — the legacy
        // worst-first pick. Node 1: lighter, pristine. Node 2: lowest
        // score in the top band, but serving gray.
        for _ in 0..2 {
            ns[0].launch(VmConfig::ldbc_benchmark()).unwrap();
            ns[2].launch(VmConfig::ldbc_benchmark()).unwrap();
        }
        ns[1].launch(VmConfig::ldbc_benchmark()).unwrap();
        ns[0].reliability = 0.65; // band 2; node 1 sits in band 3
        ns[2].phase = NodePhase::Degraded {
            gray: GrayState {
                capacity_cap: 1.0,
                ce_multiplier: 1.0,
                clears_at_tick: 1000,
                quarantined: false,
            },
        };
        let pack = ConsolidatePolicy::new(Scheduler::default());
        let cfg = VmConfig::ldbc_benchmark();
        let index = flushed(&ns, &pack);
        // The band tie-break holds the pack inside the healthy band,
        // and the gray node (cheapest there) is never a target.
        assert_eq!(
            pack.decide(&RackView::new(&ns, &index), &cfg, SlaClass::Bronze, &[]),
            PlacementDecision::Place(NodeId(1)),
            "pack within the top band, skipping the gray node"
        );
    }

    #[test]
    fn manage_parks_empties_beyond_the_spares_and_drains_the_lightest() {
        let mut ns = nodes(6);
        // Nodes 0..=2 loaded (0 heaviest), 3..=5 empty.
        for _ in 0..3 {
            ns[0].launch(VmConfig::ldbc_benchmark()).unwrap();
        }
        for _ in 0..2 {
            ns[1].launch(VmConfig::ldbc_benchmark()).unwrap();
        }
        ns[2].launch(VmConfig::ldbc_benchmark()).unwrap();
        let occupancy = [3, 2, 1, 0, 0, 0];
        let pack = ConsolidatePolicy::new(Scheduler::default());
        let index = flushed(&ns, &pack);
        let view = RackView::new(&ns, &index);
        let plan = pack.manage(&view, &occupancy, 0, 42);
        // Identical empties tie on score; descending (score, id) keeps
        // the two highest-id spares awake and parks the rest.
        assert_eq!(plan.park, vec![NodeId(3)]);
        // The lightest loaded node (node 2, one placement) drains.
        assert_eq!(plan.drain, vec![NodeId(2)]);
        // Off-period ticks are a no-op.
        assert_eq!(pack.manage(&view, &occupancy, 5, 42), ManagementPlan::default());
    }
}
