//! Placement policies: a closed set of three managers over the
//! scheduler primitives, competing on energy × crashes × SLA abandons.
//!
//! [`PolicyKind`] names each policy and answers every question the
//! cluster asks of it with a `match`:
//!
//! * [`PolicyKind::EnergySla`] — the reference: the Nova-style filter +
//!   weigher pipeline of [`Scheduler`], spreading onto the best-scored
//!   feasible node and never waking anyone.
//! * [`PolicyKind::Consolidate`] — pack-and-power-down consolidation in
//!   the Beloglazov et al. taxonomy: place onto the *lowest*-scored
//!   feasible node (packing), park drained nodes in
//!   `NodePower::Asleep` at near-zero power, wake them on demand
//!   pressure, and rebalance with migration-cost-aware drain
//!   thresholds.
//! * [`PolicyKind::ReliabilityBlind`] — the ablation: `Scheduler::BLIND`
//!   weighing plus a filter with the reliability floor removed and no
//!   proactive migration, quantifying what the UniServer reliability
//!   signal buys.
//!
//! Policies are stateless and draw nothing: every decision is a pure
//! function of the rack view and the request, so every summary row is
//! byte-stable across worker counts, per the workspace determinism
//! contract.
//!
//! Decisions read the rack through [`RackView`], which filters every
//! candidate on the placement index's cached node facts before it
//! touches a [`ManagedNode`]: power state, the online, quarantine and
//! vCPU / relaxed-memory headroom gates of `Scheduler::admits_blind`,
//! which every policy's admission implies, and the class's reliability
//! floor under the policies that weigh reliability. The live
//! [`PolicyKind::admits`] confirms the survivors and applies everything
//! else (crash state, the availability floor, consolidation's launch
//! check), so a decision over a mostly asleep, mostly full or mostly
//! unreliable rack reads few nodes.

use uniserver_hypervisor::vm::VmConfig;

use crate::index::{NodeFacts, PlacementIndex};
use crate::node::{ManagedNode, NodeId};
use crate::scheduler::Scheduler;
use crate::sla::SlaClass;

/// The placement policy: a parseable, copyable name for each shipped
/// policy, used by the cluster, `OrchestratorConfig` and the
/// `fleet_sim --policy` flag.
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

    /// The weigher whose scores rank the rack (and that the placement
    /// index caches): the blind ablation ignores reliability, the
    /// others weigh it.
    #[must_use]
    pub fn scheduler(self) -> &'static Scheduler {
        match self {
            PolicyKind::EnergySla | PolicyKind::Consolidate => &Scheduler::BALANCED,
            PolicyKind::ReliabilityBlind => &Scheduler::BLIND,
        }
    }

    /// Request-dependent feasibility of one node, *ignoring* its power
    /// state (the view applies the sleep gate; the wake path checks
    /// sleeping candidates through this too). Every arm implies
    /// `Scheduler::admits_blind`, so the view may drop candidates whose
    /// cached node facts already fail those gates without calling this.
    ///
    /// Consolidation adds the hypervisor's exact launch predicate to
    /// the reference gates. The coarse capacity filter only checks the
    /// relaxed domain; a packed node whose *reliable* domain is
    /// exhausted still passes it, and because packing walks
    /// worst-first, that node would stay the first candidate — a black
    /// hole where every launch fails while sleepers idle.
    #[must_use]
    pub fn admits(self, node: &ManagedNode, config: &VmConfig, class: SlaClass) -> bool {
        let scheduler = self.scheduler();
        match self {
            PolicyKind::EnergySla => scheduler.admits_awake(node, config, class),
            PolicyKind::Consolidate => {
                scheduler.admits_awake(node, config, class) && node.hypervisor.can_host(config)
            }
            PolicyKind::ReliabilityBlind => scheduler.admits_blind(node, config, class),
        }
    }

    /// The lowest cached [`NodeFacts::reliability`] a node may have and
    /// still pass [`PolicyKind::admits`] for `class`: the class floor
    /// that [`Scheduler::admits_awake`] applies to the live
    /// [`ManagedNode::effective_reliability`], which a flushed index
    /// caches exactly. The blind ablation has no floor.
    fn reliability_floor(self, class: SlaClass) -> f64 {
        match self {
            PolicyKind::EnergySla | PolicyKind::Consolidate => class.min_reliability(),
            PolicyKind::ReliabilityBlind => f64::NEG_INFINITY,
        }
    }

    /// One placement decision. Spreading policies take the best-scored
    /// feasible awake node and never wake anyone; consolidation packs
    /// ([`pack_target`]) and, failing that, wakes the best sleeping
    /// candidate.
    #[must_use]
    pub(crate) fn decide(
        self,
        view: &RackView<'_>,
        config: &VmConfig,
        class: SlaClass,
        avoid: &[NodeId],
    ) -> PlacementDecision {
        match self {
            PolicyKind::Consolidate => match pack_target(view, config, class, avoid) {
                Some(id) => PlacementDecision::Place(id),
                // Demand pressure: wake the best sleeping candidate.
                None => view
                    .best_asleep(self, config, class, avoid)
                    .map_or(PlacementDecision::Reject, PlacementDecision::WakeAndPlace),
            },
            PolicyKind::EnergySla | PolicyKind::ReliabilityBlind => view
                .best(self, config, class, avoid)
                .map_or(PlacementDecision::Reject, PlacementDecision::Place),
        }
    }

    /// Whether prediction-driven proactive migration runs under this
    /// policy. The blind ablation turns it off — it cannot see the
    /// predictor's signal by definition.
    #[must_use]
    pub(crate) fn proactive_migration(self) -> bool {
        self != PolicyKind::ReliabilityBlind
    }

    /// Whether the policy runs a periodic management pass (and so
    /// parks, wakes and drains nodes). When false the cluster skips the
    /// management pass entirely, keeping the spreading paths
    /// zero-overhead.
    #[must_use]
    pub fn manages(self) -> bool {
        self == PolicyKind::Consolidate
    }

    /// One consolidation pass of a managing policy (the cluster runs
    /// it on its rebalance cadence): given the rack view and per-node
    /// live placement counts, return park/drain orders — empty awake
    /// nodes beyond the spare buffer park, and the lightest straggler
    /// drains.
    #[must_use]
    pub(crate) fn manage(self, view: &RackView<'_>, occupancy: &[u32]) -> ManagementPlan {
        // Empty awake nodes, best-scored first: the top `SPARE_NODES`
        // stay awake as the demand buffer, the rest park. Only
        // [`parkable`] nodes qualify — gray nodes stay awake in the
        // watchdog's view, availability-sunk nodes stay awake because
        // that metric freezes at park time. Scores are the index's
        // cached ones ([`RackView::score`], the policy's own weigher).
        let mut empties: Vec<(f64, NodeId)> = view
            .nodes
            .iter()
            .filter(|n| {
                n.is_online() && !n.is_asleep() && occupancy[n.id.0 as usize] == 0 && parkable(n)
            })
            .map(|n| (view.score(n), n.id))
            .collect();
        empties.sort_by(|a, b| {
            b.0.partial_cmp(&a.0).expect("weights are finite").then_with(|| b.1.cmp(&a.1))
        });
        let park: Vec<NodeId> = empties.iter().skip(SPARE_NODES).map(|&(_, id)| id).collect();

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
                    && parkable(n)
            })
            .map(|n| (occupancy[n.id.0 as usize], n.id))
            .collect();
        stragglers.sort_unstable();
        let drain: Vec<NodeId> =
            stragglers.iter().take(MAX_DRAINS_PER_PASS).map(|&(_, id)| id).collect();

        ManagementPlan { park, drain }
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
#[derive(Debug, Clone)]
pub(crate) struct ManagementPlan {
    /// Empty awake nodes to put to sleep immediately.
    pub(crate) park: Vec<NodeId>,
    /// Lightly-loaded nodes to drain towards the pack, then park.
    pub(crate) drain: Vec<NodeId>,
}

/// A read-only view of the rack for policy decisions: the node slice
/// plus the cluster's flushed [`PlacementIndex`], whose cached scores,
/// cached node facts and `(score, NodeId)` ranking serve every query
/// — best-first for spreading and waking, cached scores for walks in
/// another order. Candidates are filtered on their cached facts first;
/// a [`ManagedNode`] is read only to confirm a survivor with the
/// policy's live [`PolicyKind::admits`].
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
    /// state is `asleep` and that `kind` admits.
    fn first_ranked(
        &self,
        kind: PolicyKind,
        config: &VmConfig,
        class: SlaClass,
        avoid: &[NodeId],
        asleep: bool,
    ) -> Option<NodeId> {
        let facts = self.facts();
        let floor = kind.reliability_floor(class);
        self.index.ranked_rev().find(|id| {
            let f = &facts[id.0 as usize];
            f.asleep == asleep
                && f.may_admit(config)
                && f.reliability >= floor
                && !avoid.contains(id)
                && kind.admits(&self.nodes[id.0 as usize], config, class)
        })
    }

    /// The feasible node with the *highest* `(score, NodeId)` — the
    /// spreading end of the ranking, the same node
    /// [`Scheduler::place_linear`] picks for the reference policy.
    #[must_use]
    pub fn best(
        &self,
        kind: PolicyKind,
        config: &VmConfig,
        class: SlaClass,
        avoid: &[NodeId],
    ) -> Option<NodeId> {
        self.first_ranked(kind, config, class, avoid, false)
    }

    /// The best-scored *asleep* node that would admit the request once
    /// woken — the wake-on-demand candidate.
    #[must_use]
    pub(crate) fn best_asleep(
        &self,
        kind: PolicyKind,
        config: &VmConfig,
        class: SlaClass,
        avoid: &[NodeId],
    ) -> Option<NodeId> {
        self.first_ranked(kind, config, class, avoid, true)
    }
}

/// Whether consolidation may park `node`. The availability wake floor
/// must pass *right now*: a sleeping node accrues neither uptime nor
/// downtime, so availability freezes at park time and a node parked
/// below Gold's floor could never serve premium wakes. Reliability is
/// not gated. The cluster re-scores sleepers every
/// `SLEEPER_RESCORE_EVERY` ticks, one silent-decay step (×0.97) per
/// visit, so a node parked mid-reliability-dip does climb back while
/// asleep, but about 60× slower than an idle awake node, which decays
/// every tick (ROADMAP item 1). Gray nodes never park: a parked node is
/// invisible to the health watchdog's probes, and its fault clock must
/// keep running in view.
fn parkable(node: &ManagedNode) -> bool {
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

/// Consolidation's pack walk target: among feasible awake nodes, the
/// highest reliability *band* first, then the legacy lowest
/// `(score, id)` within that band. Pure worst-first packing
/// concentrated load on exactly the nodes the predictor was souring on
/// — low reliability drags the weigher score down, so the walk kept
/// piling VMs onto the flakiest node and proactive migration kept
/// hauling them back off. Banding keeps the bin-packing behavior
/// between comparable nodes but never prefers a node a full band less
/// reliable. Degraded nodes are never packing targets: their capacity
/// cap is a symptom, not a bin to fill.
///
/// The band key does not follow the index's `(score, id)` order, so the
/// walk visits every node's cached facts in id order: asleep, degraded
/// and fact-infeasible nodes drop out there, the key comes from the
/// cached reliability and score, and the live [`PolicyKind::admits`]
/// runs only on a candidate whose key beats the best admitted one so
/// far. Visiting ids in ascending order makes a tied key never beat, so
/// the pick is the minimum over all admitted nodes of
/// `(band desc, score asc, id asc)`.
fn pack_target(
    view: &RackView<'_>,
    config: &VmConfig,
    class: SlaClass,
    avoid: &[NodeId],
) -> Option<NodeId> {
    let mut best: Option<(u8, f64, NodeId)> = None;
    let floor = PolicyKind::Consolidate.reliability_floor(class);
    for (i, f) in view.facts().iter().enumerate() {
        if f.asleep || f.degraded || !f.may_admit(config) || f.reliability < floor {
            continue;
        }
        #[allow(clippy::cast_possible_truncation)]
        let id = NodeId(i as u32);
        let band = reliability_band(f.reliability);
        let score = view.index.score(id);
        let beats = best.is_none_or(|(b, s, _)| band > b || (band == b && score < s));
        if beats
            && !avoid.contains(&id)
            && PolicyKind::Consolidate.admits(&view.nodes[i], config, class)
        {
            best = Some((band, score, id));
        }
    }
    best.map(|(_, _, id)| id)
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

    /// A placement index over `ns`, flushed under `kind`'s weigher —
    /// what the cluster hands a policy before every decision.
    fn flushed(ns: &[ManagedNode], kind: PolicyKind) -> PlacementIndex {
        let mut index = PlacementIndex::new(ns.len());
        index.flush(kind.scheduler(), ns);
        index
    }

    #[test]
    fn policy_names_parse_and_roundtrip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.label()), Some(kind));
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
        let policy = PolicyKind::EnergySla;
        let cfg = VmConfig::ldbc_benchmark();
        let index = flushed(&ns, policy);
        for class in [SlaClass::Gold, SlaClass::Silver, SlaClass::Bronze] {
            let expected = match Scheduler::BALANCED.place_linear(ns.iter(), &cfg, class) {
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
        let reference = PolicyKind::EnergySla;
        let blind = PolicyKind::ReliabilityBlind;
        let cfg = VmConfig::ldbc_benchmark();
        let (reference_index, blind_index) = (flushed(&ns, reference), flushed(&ns, blind));
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
        let cfg = VmConfig::ldbc_benchmark();
        let reference = PolicyKind::EnergySla;
        let pack = PolicyKind::Consolidate;
        // Both policies weigh with the same scheduler, so one index
        // serves both.
        let index = flushed(&ns, pack);
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
        let pack = PolicyKind::Consolidate;
        let cfg = VmConfig::ldbc_benchmark();
        let index = flushed(&ns, pack);
        let view = RackView::new(&ns, &index);
        assert_eq!(
            pack.decide(&view, &cfg, SlaClass::Bronze, &[]),
            PlacementDecision::WakeAndPlace(NodeId(1)),
            "demand pressure must wake the sleeper"
        );
        // The reference policy never wakes anyone.
        let reference = PolicyKind::EnergySla;
        assert_eq!(
            reference.decide(&view, &cfg, SlaClass::Bronze, &[]),
            PlacementDecision::Reject
        );
    }

    #[test]
    fn consolidation_skips_launch_infeasible_nodes_the_coarse_filter_admits() {
        use uniserver_hypervisor::hypervisor::Hypervisor;
        use uniserver_platform::dram::{DimmConfig, MemorySystem};
        use uniserver_platform::msr::DomainId;
        use uniserver_platform::node::ServerNode;
        use uniserver_silicon::power::DramPowerModel;
        use uniserver_silicon::retention::RetentionModel;
        use uniserver_units::Bytes;

        // Node 0's 128 MiB reliable DIMM exhausts after one guest's
        // overhead, while its relaxed domain and vCPU budget still pass
        // the coarse `fits` check. Node 1 sleeps.
        let mut ns = nodes(2);
        let mk = |capacity, domain| DimmConfig { capacity, ecc_enabled: true, domain };
        let memory = MemorySystem::new(
            vec![mk(Bytes::mib(128), DomainId(0)), mk(Bytes::gib(8), DomainId(1))],
            RetentionModel::ddr3_server(),
            DramPowerModel::ddr3_8gb(),
        );
        ns[0].hypervisor = Hypervisor::new(ServerNode::with_memory(PartSpec::arm_microserver(), memory, 0));
        let cfg = VmConfig::ldbc_benchmark();
        ns[0].launch(cfg.clone()).unwrap();
        ns[1].power = NodePower::Asleep;
        assert!(ns[0].fits(&cfg), "the coarse filter still admits the packed node");
        assert!(!ns[0].hypervisor.can_host(&cfg), "but a launch there would fail");

        // Without the precise gate, packing would keep returning node 0
        // — the black hole where every launch fails. With it, demand
        // pressure falls through to the sleeper.
        let pack = PolicyKind::Consolidate;
        let index = flushed(&ns, pack);
        assert_eq!(
            pack.decide(&RackView::new(&ns, &index), &cfg, SlaClass::Bronze, &[]),
            PlacementDecision::WakeAndPlace(NodeId(1)),
            "consolidation must skip the launch-infeasible node"
        );
    }

    #[test]
    fn dipped_nodes_park_but_gray_nodes_never_do() {
        // A mid-reliability-dip empty *does* park: parkability does not
        // gate on reliability (the sleeper re-score lifts the dip
        // slowly, see `parkable`). Gray (Degraded-phase) nodes still never park
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
        let pack = PolicyKind::Consolidate;
        let index = flushed(&ns, pack);
        let plan = pack.manage(&RackView::new(&ns, &index), &occupancy);
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
        let pack = PolicyKind::Consolidate;
        let cfg = VmConfig::ldbc_benchmark();
        let index = flushed(&ns, pack);
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
        let pack = PolicyKind::Consolidate;
        let index = flushed(&ns, pack);
        let view = RackView::new(&ns, &index);
        let plan = pack.manage(&view, &occupancy);
        // Identical empties tie on score; descending (score, id) keeps
        // the two highest-id spares awake and parks the rest.
        assert_eq!(plan.park, vec![NodeId(3)]);
        // The lightest loaded node (node 2, one placement) drains.
        assert_eq!(plan.drain, vec![NodeId(2)]);
    }
}
