//! The cluster driver: streams of VMs, reliability-aware placement and
//! proactive migration off failing nodes.
//!
//! # Sharded ticks
//!
//! Per-tick node advancement (hypervisor tick + the update of the
//! node's own rolling failure score) is embarrassingly parallel between
//! placement decisions. [`Cluster::set_workers`] sets a **cap** on the
//! threads it may use, and each tick picks its width under that cap
//! from measured costs (see the `fanout` module): a tick whose
//! awake-node work is cheaper than spreading it runs directly on the
//! calling thread, and a heavier one is cut into contiguous node-index
//! chunks that hold equal shares of the *awake* nodes, run on scoped
//! threads that borrow the chunk and its result slots, the caller's
//! thread taking the first chunk. A cap of 1 is a plain call, with no
//! awake-node count.
//!
//! Each chunk runs in two passes: every awake node's hypervisor tick,
//! then every ticked node's score update. A node's update reads only
//! its own health log, so the split gives the bytes of one pass per
//! node. The chunk reads the clock three times, around the passes, and
//! never per node: the two pass walls are the chunk's
//! [`Stage::NodeTick`] and [`Stage::Predictor`] time, and their sum is
//! the chunk cost the fan-out measures.
//!
//! The tick then **reduces sequentially in node order** over the result
//! slots: energy is summed index-by-index (bit-identical floats for any
//! width), crash events are emitted ordered by `(node index, event
//! order)`, shard stats merge in node order, and the index marks of
//! nodes whose reliability moved — plus the placement-mutating phases
//! (proactive migration, recovery) — stay sequential. Neither the cap
//! nor the width a tick picks can therefore change a report. The reduce
//! also lists the nodes that cross the failure line, and the proactive
//! pass visits only their placements.
//!
//! # Placement control plane
//!
//! Every serial decision path touches only the candidates and
//! placements that can matter:
//!
//! * decisions read the [`PlacementIndex`]'s cached scores and node
//!   facts, and a live node only to confirm a candidate;
//! * tracked placements live in an id-keyed store (`Vec` position per
//!   [`PlacementId`], id list per node), so departures, crash recovery,
//!   watchdog and consolidation drains, proactive moves and the manage
//!   pass's occupancy never scan every placement, while
//!   [`Cluster::placements`] keeps the order of a plain `Vec` that
//!   appends and `swap_remove`s;
//! * a `Reject` is memoized per SLA class with its request and the
//!   index generation; the same request at the same generation is
//!   rejected again without a walk, and every tick clears the memo.
//!
//! Debug builds re-run every memo hit and, after every store
//! mutation, check the store entries it touched.

use std::time::{Duration, Instant};

use uniserver_telemetry::{MetricsRegistry, Stage, StageProfiler};
use uniserver_units::{Joules, Seconds};

use uniserver_hypervisor::vm::{VmConfig, VmId};
use uniserver_platform::node::{CrashEvent, ServerNode};
use uniserver_platform::part::PartSpec;
use uniserver_silicon::rng::{salt, splitmix64, weighted_pick};

use crate::failure::predicts_failure;
use crate::fanout::{awake_cuts, FanOut};
use crate::index::PlacementIndex;
use crate::lifecycle::{GrayState, NodePhase, NodePower};
use crate::migrate::MigrationModel;
use crate::node::{ManagedNode, NodeId};
use crate::policy::{PlacementDecision, PolicyKind, RackView, MAX_MIGRATION_SECS};
use crate::sla::SlaClass;
use crate::store::PlacementStore;

/// One entry of a cluster's weighted part mix.
#[derive(Debug, Clone, PartialEq)]
pub struct PartWeight {
    /// The part this share provisions.
    pub spec: PartSpec,
    /// Relative weight (need not sum to 1).
    pub weight: f64,
}

/// Cluster construction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Weighted part mix the rack is populated from; a single entry
    /// builds a homogeneous cluster.
    pub part_mix: Vec<PartWeight>,
}

impl ClusterConfig {
    /// A small Edge site: `n` identical ARM micro-servers behind one
    /// switch (the homogeneous test/demo preset).
    #[must_use]
    pub fn small_edge_site(n: usize) -> Self {
        ClusterConfig {
            nodes: n,
            part_mix: vec![PartWeight { spec: PartSpec::arm_microserver(), weight: 1.0 }],
        }
    }

    /// The heterogeneous UniServer rack: `n` nodes drawn from an
    /// ARM+i5+i7 mix at 6:1:1 part shares. Which node gets which part
    /// is a pure function of `(build seed, node index)`.
    #[must_use]
    pub fn uniserver_rack(n: usize) -> Self {
        ClusterConfig {
            nodes: n,
            part_mix: vec![
                PartWeight { spec: PartSpec::arm_microserver(), weight: 6.0 },
                PartWeight { spec: PartSpec::i5_4200u(), weight: 1.0 },
                PartWeight { spec: PartSpec::i7_3970x(), weight: 1.0 },
            ],
        }
    }

    /// The part a given node of this cluster is built from, drawn from
    /// the weighted mix by the node's seed. Pure in `(node_seed)`, so
    /// cluster builds are schedule-independent.
    ///
    /// # Panics
    ///
    /// Panics if the part mix is empty or has a non-positive total.
    #[must_use]
    pub fn node_spec(&self, node_seed: u64) -> &PartSpec {
        assert!(!self.part_mix.is_empty(), "cluster part mix must not be empty");
        let weights: Vec<f64> = self.part_mix.iter().map(|p| p.weight).collect();
        let pick = weighted_pick(splitmix64(node_seed ^ salt::PART), &weights);
        &self.part_mix[pick].spec
    }
}

/// Stable identifier of one placement across migrations: the VM may move
/// nodes (and get a new per-node [`VmId`]), but its placement id never
/// changes — event queues key departures off it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlacementId(pub u64);

/// One tracked placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Stable identifier (survives migrations).
    pub id: PlacementId,
    /// Node currently hosting the VM.
    pub node: NodeId,
    /// VM id on that node.
    pub vm: VmId,
    /// SLA class of the workload.
    pub class: SlaClass,
}

/// Aggregated fleet statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetMetrics {
    /// Mean node availability.
    pub mean_availability: f64,
    /// Mean node utilization.
    pub mean_utilization: f64,
    /// Total energy consumed.
    pub total_energy: Joules,
    /// Migrations not forced by a crash or a consolidation drain:
    /// predictor-driven moves plus [`Cluster::drain_degraded`] moves.
    pub migrations: u64,
    /// Failure-driven migrations performed after node crashes.
    pub crash_migrations: u64,
    /// Placements evicted after node crashes (no healthy node fit them).
    pub evictions: u64,
    /// Cumulative migration blackout across all moves.
    pub migration_downtime: Seconds,
    /// Placement requests rejected (no feasible node).
    pub rejected: u64,
}

/// What one cluster tick observed — the orchestrator's event feed.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterTickReport {
    /// Crash events surfaced by the platform this tick, per node.
    pub crashes: Vec<(NodeId, CrashEvent)>,
    /// Energy consumed across the fleet this tick.
    pub energy: Joules,
    /// Proactive migrations performed this tick.
    pub proactive_migrations: u64,
    /// Placements lost this tick because a proactive move's relaunch
    /// failed (stopped on the source, no room on the target).
    pub evicted: Vec<Placement>,
}

/// Deterministic counts of the work a run did, whatever the host: the
/// same at every worker count and build profile, and never part of a
/// report. Node counts are summed in node order by the tick's reduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkLedger {
    /// Platform intervals the serving ticks ran (one per awake, online
    /// node per tick).
    pub node_intervals: u64,
    /// Of those, the intervals that had their node's previous inputs
    /// and paid only for their draws.
    pub steady_intervals: u64,
    /// Placement-index flushes.
    pub index_flushes: u64,
    /// Nodes those flushes re-weighed.
    pub nodes_reweighed: u64,
}

/// Power-management counters a consolidating policy accumulates. All
/// zero under policies that never park anyone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PowerStats {
    /// Sleep transitions: nodes parked (drained or already empty).
    pub parks: u64,
    /// Wake transitions, all demand-driven.
    pub wakes: u64,
    /// VMs moved by consolidation drains (not crash- or
    /// prediction-driven).
    pub consolidation_migrations: u64,
}

/// The outcome of failure-driven recovery after one node crash.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashRecovery {
    /// Placements moved to healthy nodes (class and id preserved), each
    /// with the predicted cost of its move — event-queue drivers
    /// schedule the settle event at `cost.completes_at(now)`.
    pub migrated: Vec<(Placement, crate::migrate::MigrationCost)>,
    /// Placements that no healthy node could absorb; their VMs were
    /// stopped on the crashed host.
    pub evicted: Vec<Placement>,
}

/// What one node's share of a sharded tick produced — computed on its
/// chunk's thread, reduced sequentially in node-index order.
#[derive(Debug, Clone)]
struct NodeAdvance {
    /// Energy the node consumed this tick.
    energy: Joules,
    /// Crash events the platform surfaced this tick, in drain order.
    crash_events: Vec<CrashEvent>,
    /// The predictor update re-summed the node's event window.
    rescored: bool,
    /// The update moved the node's reliability (its placement score).
    reliability_changed: bool,
    /// The node's platform interval was steady.
    steady: bool,
    /// Predicted to fail and not crashed *this tick*: the proactive
    /// pass visits its placements.
    failing: bool,
}

/// Wall-clock nanos one chunk's two passes took on its thread: the
/// hypervisor ticks, then the predictor updates. The cluster's stage
/// times take them as [`Stage::NodeTick`] / [`Stage::Predictor`], and the
/// fan-out takes their sum as the chunk's cost.
#[derive(Debug, Default)]
struct ShardStats {
    tick_ns: u64,
    predictor_ns: u64,
}

impl ShardStats {
    /// The chunk's whole wall.
    fn wall(&self) -> Duration {
        Duration::from_nanos(self.tick_ns + self.predictor_ns)
    }
}

/// Nanos between two clock reads, saturating at `u64::MAX`.
fn nanos_between(from: Instant, to: Instant) -> u64 {
    u64::try_from((to - from).as_nanos()).unwrap_or(u64::MAX)
}

/// The per-node phase of one contiguous chunk of a tick, written into
/// each node's slot of `slots` (the same chunk of the cluster's advance
/// buffer). Two passes: every awake, online node's hypervisor tick,
/// then every ticked node's update of its own rolling failure score.
/// A node's update reads only its own log, so the split order gives
/// the bytes of one pass per node. The chunk touches only its nodes
/// and slots, so shards never race, and it is the same computation for
/// any chunking, so every width stays bit-identical. The clock is read
/// three times per chunk, never per node.
fn advance_slice(nodes: &mut [ManagedNode], slots: &mut [Option<NodeAdvance>], duration: Seconds) -> ShardStats {
    let start = Instant::now();
    for (node, slot) in nodes.iter_mut().zip(slots.iter_mut()) {
        // Offline nodes are skipped, and asleep nodes are frozen: no
        // hypervisor tick, no crash draws, no predictor update.
        // Sleep-state energy is charged by the sequential reduce.
        *slot = (node.is_online() && !node.is_asleep()).then(|| {
            let outcome = node.tick(duration);
            NodeAdvance {
                energy: outcome.energy,
                crash_events: outcome.crash_events,
                rescored: false,
                reliability_changed: false,
                steady: node.hypervisor.node().last_interval_steady(),
                failing: false,
            }
        });
    }
    let ticked = Instant::now();
    for (node, adv) in nodes.iter_mut().zip(slots.iter_mut()).filter_map(|(n, s)| Some((n, s.as_mut()?))) {
        (adv.rescored, adv.reliability_changed) = node.update_reliability();
        // A node that crashed this tick is failure-recovery business,
        // not prediction business: its placements stay for
        // `recover_from_crash`, which classifies (and SLA-charges) them
        // as crash-interrupted instead of laundering them into
        // proactive moves by the crash line that just hit its own log.
        adv.failing = adv.crash_events.is_empty() && predicts_failure(node.reliability);
    }
    let scored = Instant::now();
    ShardStats { tick_ns: nanos_between(start, ticked), predictor_ns: nanos_between(ticked, scored) }
}

/// CPU cores available to this process (1 when the probe fails) — the
/// single source for [`resolve_workers`] and for the `cores` column of
/// the bench records, so what gets recorded is exactly what requests
/// were clamped against.
#[must_use]
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Resolves a requested worker count against the machine and the job
/// count: `0` means one worker per available core, and explicit requests
/// are clamped to the core count — oversubscribing a CPU-bound shard
/// phase only adds scheduling overhead (on a 1-core container, `-t 4`
/// used to triple deploy cost per node against `-t 1`). The result is
/// further clamped to `[1, jobs]`.
#[must_use]
pub fn resolve_workers(requested: usize, jobs: usize) -> usize {
    let cores = cores();
    let workers = if requested == 0 { cores } else { requested.min(cores) };
    workers.clamp(1, jobs.max(1))
}

/// A remembered `Reject`: the request it answered and the index
/// generation it was decided at. Until a node is marked (the generation
/// moves) or the cluster ticks (the memo is cleared — availability and
/// crash state move without a mark), the same request is rejected
/// again without a walk.
#[derive(Debug, Clone)]
struct RejectMemo {
    generation: u64,
    config: VmConfig,
    exclude: Option<NodeId>,
}

/// The network every live migration is costed on: 10 GbE.
const MIGRATION: MigrationModel = MigrationModel::ten_gbe();

/// Cadence, in ticks, of a managing policy's consolidation pass
/// (`Cluster::manage`): one minute at 5 s ticks.
const REBALANCE_EVERY: u64 = 12;

/// Cadence, in ticks, of a managing policy's sleeper re-score
/// (`Cluster::rescore_sleepers`): five minutes at 5 s ticks.
const SLEEPER_RESCORE_EVERY: u64 = 60;

/// The cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    nodes: Vec<ManagedNode>,
    /// The placement policy every submit/re-offer/recovery decision and
    /// the periodic management pass route through; the reference
    /// [`PolicyKind::EnergySla`] until [`Cluster::set_policy`].
    policy: PolicyKind,
    /// Incremental placement index over `nodes` (see [`PlacementIndex`]).
    index: PlacementIndex,
    /// The last `Reject` per SLA class (see [`RejectMemo`]), cleared at
    /// every tick.
    reject_memo: [Option<RejectMemo>; 3],
    /// Tracked placements, indexed by id and by host node.
    placements: PlacementStore,
    next_placement: u64,
    migrations: u64,
    crash_migrations: u64,
    evictions: u64,
    migration_downtime: Seconds,
    rejected: u64,
    /// Park/wake/consolidation counters (all zero unless the policy
    /// manages power states).
    power_stats: PowerStats,
    /// Node intervals run and steady, counted by the tick's reduce (the
    /// index keeps its own flush counts).
    work: WorkLedger,
    /// Wall-clock time of the tick's own stages: [`Stage::NodeTick`],
    /// [`Stage::Predictor`] and [`Stage::Reduce`] (machine-local; never
    /// in a report).
    stages: StageProfiler,
    /// Accumulated tick-domain metrics, when enabled, counted by the
    /// tick's sequential reduce — kept out of [`ClusterTickReport`] so
    /// the report's `PartialEq` determinism contract is untouched.
    metrics: Option<MetricsRegistry>,
    /// Most threads the per-node phase of a tick may run on (see
    /// [`Cluster::set_workers`]).
    workers: usize,
    /// The measured costs each tick's width under the cap is picked
    /// from.
    fanout: FanOut,
    /// One result slot per node: the per-node phase writes it and the
    /// reduce takes it, so ticks reuse one buffer.
    advances: Vec<Option<NodeAdvance>>,
}

impl Cluster {
    /// Provisions a cluster; node chips are manufactured from
    /// `seed`, `seed+1`, … (wrapping, so seeds near `u64::MAX` stay
    /// valid) so every node is a *different* chip, with parts drawn
    /// from the configured mix. This is plain offsetting, not the
    /// SplitMix64 `silicon::rng::indexed_seed` the orchestrator's
    /// deploy uses, so a built cluster and a deployed rack from one
    /// seed hold different chips.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero nodes.
    #[must_use]
    pub fn build(config: &ClusterConfig, seed: u64) -> Self {
        assert!(config.nodes > 0, "a cluster needs nodes");
        let nodes = (0..config.nodes)
            .map(|i| {
                let node_seed = seed.wrapping_add(i as u64);
                let spec = config.node_spec(node_seed).clone();
                ManagedNode::provision(NodeId(i as u32), spec, node_seed)
            })
            .collect();
        Self::from_nodes(nodes)
    }

    /// Assembles a cluster from already-provisioned nodes, placing
    /// through the reference policy — the orchestrator's entry point
    /// after deploying nodes at their Extended Operating Points.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    #[must_use]
    pub fn from_nodes(nodes: Vec<ManagedNode>) -> Self {
        assert!(!nodes.is_empty(), "a cluster needs nodes");
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(node.id.0 as usize, i, "cluster node ids must be dense 0..n");
        }
        let index = PlacementIndex::new(nodes.len());
        let placements = PlacementStore::new(nodes.len());
        let advances = vec![None; nodes.len()];
        Cluster {
            nodes,
            policy: PolicyKind::EnergySla,
            index,
            reject_memo: Default::default(),
            placements,
            next_placement: 0,
            migrations: 0,
            crash_migrations: 0,
            evictions: 0,
            migration_downtime: Seconds::ZERO,
            rejected: 0,
            power_stats: PowerStats::default(),
            work: WorkLedger::default(),
            stages: StageProfiler::new(),
            metrics: None,
            workers: 1,
            fanout: FanOut::default(),
            advances,
        }
    }

    /// Caps the threads the per-node phase of each tick may run on.
    /// `0` and `1` make every tick a plain call on the caller's thread.
    /// Above that, each tick picks its own width up to the cap (and the
    /// awake-node count) from measured per-node and fan-out costs, and
    /// runs on the caller's thread alone when spreading the work would
    /// cost more than it saves. Any cap and width produce the identical
    /// report, so callers resolve the cap once against the machine
    /// ([`resolve_workers`]).
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers;
    }

    /// Mean number of threads the per-node phase of a tick actually
    /// ran on, over every tick so far (0 before the first tick).
    /// Wall-clock-driven, hence machine-local: never part of a report.
    #[must_use]
    pub fn tick_workers_mean(&self) -> f64 {
        self.fanout.mean_width()
    }

    /// Selects the placement policy; subsequent placement decisions and
    /// management passes route through it. The index keeps caching the
    /// policy's weigher, so the whole rack is re-scored.
    pub fn set_policy(&mut self, kind: PolicyKind) {
        self.policy = kind;
        self.index.mark_all();
    }

    /// The selected placement policy.
    #[must_use]
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Wall-clock time of every tick so far: each chunk of the
    /// per-node phase adds its tick-pass wall to [`Stage::NodeTick`] and
    /// its score-pass wall to [`Stage::Predictor`], and the reduce its
    /// wall to [`Stage::Reduce`]. Machine-local: never part of a report.
    #[must_use]
    pub fn stages(&self) -> &StageProfiler {
        &self.stages
    }

    /// Switches on tick-domain metrics collection: subsequent ticks
    /// count into one registry from the sequential reduce, in
    /// node-index order, so the result is byte-identical for any
    /// worker count.
    pub fn enable_metrics(&mut self) {
        self.metrics = Some(MetricsRegistry::new());
    }

    /// Takes the accumulated metrics registry (collection stops until
    /// [`Cluster::enable_metrics`] is called again).
    pub fn take_metrics(&mut self) -> Option<MetricsRegistry> {
        self.metrics.take()
    }

    fn absorb_shard_stats(&mut self, stats: &ShardStats) {
        self.stages.add_nanos(Stage::NodeTick, stats.tick_ns);
        self.stages.add_nanos(Stage::Predictor, stats.predictor_ns);
    }

    /// The nodes (read-only).
    #[must_use]
    pub fn nodes(&self) -> &[ManagedNode] {
        &self.nodes
    }

    /// Mutable access to every node, for experiments that degrade
    /// specific nodes. Unrestricted mutation can move any placement
    /// score, so this marks the whole rack dirty (all of it re-scored on
    /// the next placement). To reprogram one node's platform, use
    /// [`Cluster::server_mut`], which marks only that node.
    pub fn nodes_mut(&mut self) -> &mut [ManagedNode] {
        self.index.mark_all();
        &mut self.nodes
    }

    /// Mutable access to one node's platform (MSRs, operating point),
    /// marking only that node dirty in the placement index.
    pub fn server_mut(&mut self, id: NodeId) -> &mut ServerNode {
        self.index.mark(id);
        self.node_mut(id).hypervisor.node_mut()
    }

    /// One policy decision over the current rack view, read through the
    /// freshly flushed placement index — unless the class's reject memo
    /// holds this exact request at the current index generation, in
    /// which case the answer is `Reject` without a walk.
    ///
    /// # Panics
    ///
    /// Debug builds re-run every memo hit and panic unless the fresh
    /// decision is `Reject` too.
    fn decide_on(
        &mut self,
        config: &VmConfig,
        class: SlaClass,
        exclude: Option<NodeId>,
    ) -> PlacementDecision {
        let slot = class as usize;
        let generation = self.index.generation();
        if let Some(memo) = &self.reject_memo[slot] {
            if memo.generation == generation && memo.exclude == exclude && memo.config == *config {
                #[cfg(debug_assertions)]
                {
                    self.index.flush(self.policy.scheduler(), &self.nodes);
                    let view = RackView::new(&self.nodes, &self.index);
                    assert_eq!(
                        self.policy.decide(&view, config, class, exclude.as_slice()),
                        PlacementDecision::Reject,
                        "stale reject memo for {class}"
                    );
                }
                return PlacementDecision::Reject;
            }
        }
        self.index.flush(self.policy.scheduler(), &self.nodes);
        let view = RackView::new(&self.nodes, &self.index);
        let decision = self.policy.decide(&view, config, class, exclude.as_slice());
        if decision == PlacementDecision::Reject {
            self.reject_memo[slot] = Some(RejectMemo { generation, config: config.clone(), exclude });
        }
        decision
    }

    /// One placement decision, executing wake-on-demand: a policy that
    /// answers [`PlacementDecision::WakeAndPlace`] gets its candidate
    /// woken here, in the same decision.
    fn place_on(
        &mut self,
        config: &VmConfig,
        class: SlaClass,
        exclude: Option<NodeId>,
    ) -> Option<NodeId> {
        match self.decide_on(config, class, exclude) {
            PlacementDecision::Place(id) => Some(id),
            PlacementDecision::WakeAndPlace(id) => {
                self.wake_node(id);
                Some(id)
            }
            PlacementDecision::Reject => None,
        }
    }

    /// A placement decision that refuses to wake anyone — consolidation
    /// drains use this so emptying one node can never power another one
    /// up.
    fn place_no_wake(&mut self, config: &VmConfig, class: SlaClass, source: NodeId) -> Option<NodeId> {
        match self.decide_on(config, class, Some(source)) {
            PlacementDecision::Place(id) => Some(id),
            _ => None,
        }
    }

    /// Current placements.
    #[must_use]
    pub fn placements(&self) -> &[Placement] {
        self.placements.all()
    }

    /// Parks an online, evacuated node into the low-power sleep state.
    ///
    /// # Panics
    ///
    /// Panics if the node is not online, is already asleep, or (debug
    /// builds) still hosts tracked placements.
    pub fn park_node(&mut self, id: NodeId) {
        debug_assert_eq!(self.placements.count_on(id), 0, "{id} must be drained before parking");
        let node = self.node_mut(id);
        assert!(node.is_online(), "only online nodes can sleep");
        assert!(!node.is_asleep(), "{id} is already asleep");
        node.power = NodePower::Asleep;
        self.index.mark(id);
        self.power_stats.parks += 1;
    }

    /// Wakes a sleeping node; it ticks, consumes full power and takes
    /// placements again from this call on.
    ///
    /// # Panics
    ///
    /// Panics if the node is not asleep.
    pub(crate) fn wake_node(&mut self, id: NodeId) {
        let node = self.node_mut(id);
        assert!(node.is_asleep(), "{id} is not asleep");
        node.power = NodePower::Awake;
        self.index.mark(id);
        self.power_stats.wakes += 1;
    }

    /// Nodes currently parked in the sleep state.
    #[must_use]
    pub fn asleep_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_asleep()).count()
    }

    /// The accumulated park/wake/consolidation counters.
    #[must_use]
    pub fn power_stats(&self) -> PowerStats {
        self.power_stats
    }

    /// The work counted so far.
    #[must_use]
    pub fn work(&self) -> WorkLedger {
        let (index_flushes, nodes_reweighed) = self.index.flush_work();
        WorkLedger { index_flushes, nodes_reweighed, ..self.work }
    }

    /// Runs the policy's periodic management pass every
    /// `REBALANCE_EVERY` ticks: parks empties, drains stragglers
    /// within the plan's migration budget, and parks fully-drained
    /// sources. A no-op (no flush, no occupancy scan) on every other
    /// tick and under policies that do not manage power states.
    pub fn manage(&mut self, tick: u64) {
        if !self.policy.manages() {
            return;
        }
        if tick > 0 && tick.is_multiple_of(SLEEPER_RESCORE_EVERY) {
            self.rescore_sleepers();
        }
        if !tick.is_multiple_of(REBALANCE_EVERY) {
            return;
        }
        #[allow(clippy::cast_possible_truncation)]
        let occupancy: Vec<u32> =
            self.nodes.iter().map(|n| self.placements.count_on(n.id) as u32).collect();
        self.index.flush(self.policy.scheduler(), &self.nodes);
        let plan = self.policy.manage(&RackView::new(&self.nodes, &self.index), &occupancy);
        // Parks first: a freshly-parked node can then never be chosen
        // as a drain target below.
        for &id in &plan.park {
            self.park_node(id);
        }
        for &id in &plan.drain {
            self.drain_node(id);
        }
    }

    /// Runs the rolling-score update of the tick's per-node phase on
    /// every asleep node, once per [`SLEEPER_RESCORE_EVERY`] ticks. A
    /// sleeping node's hypervisor log is frozen, so each visit is a
    /// no-new-events update: one silent-decay step (×0.97) of the
    /// rolling error score. An idle awake node takes that step every
    /// tick, so a sleeper's score ages about 60× slower than it would
    /// awake, and a node parked deep in a reliability dip can stay
    /// below the class floors for the rest of a run (ROADMAP item 1).
    /// Sequential, in node-index order, so runs are worker-count
    /// invariant.
    fn rescore_sleepers(&mut self) {
        for node in &mut self.nodes {
            if node.is_asleep() && node.update_reliability().1 {
                self.index.mark(node.id);
            }
        }
    }

    /// Drains one node for consolidation: live-migrates every resident
    /// VM to a policy-chosen awake target, then parks the source.
    /// Aborts with no side effects if any resident VM's predicted
    /// migration exceeds [`MAX_MIGRATION_SECS`] (all-or-nothing — a hot
    /// VM keeps its node awake rather than strand half the set); aborts
    /// mid-way, leaving the source awake, if targets run out.
    fn drain_node(&mut self, source: NodeId) {
        let victims: Vec<Placement> = self.placements.on(source).into_iter().cloned().collect();
        if victims.is_empty() {
            return; // departures raced the plan; the next pass parks it
        }
        for victim in &victims {
            let node = self.node_ref(source);
            let Some(vm) = node.hypervisor.vm(victim.vm) else { return };
            if MIGRATION.cost(vm).duration.as_secs() > MAX_MIGRATION_SECS {
                return;
            }
        }
        for victim in &victims {
            if !self.precopy_move(source, victim) {
                return;
            }
            self.power_stats.consolidation_migrations += 1;
        }
        self.park_node(source);
    }

    /// One pre-copy move of `victim` off `source` onto an awake target
    /// that [`Cluster::place_no_wake`] picks. The source copy keeps
    /// running until the target launch succeeds, so a move that finds
    /// no target or fails its launch leaves the VM untouched (unlike
    /// crash evacuation, nothing forces it off). Returns whether the VM
    /// moved; the caller counts the move.
    fn precopy_move(&mut self, source: NodeId, victim: &Placement) -> bool {
        let (config, cost) = {
            let Some(vm) = self.node_ref(source).hypervisor.vm(victim.vm) else { return false };
            (vm.config.clone(), MIGRATION.cost(vm))
        };
        let Some(target) = self.place_no_wake(&config, victim.class, source) else { return false };
        let Ok(new_vm) = self.node_mut(target).launch(config) else { return false };
        self.index.mark(target);
        self.node_mut(source).hypervisor.stop_vm(victim.vm);
        self.index.mark(source);
        self.placements.relocate(victim.id, target, new_vm);
        self.migration_downtime = self.migration_downtime + cost.downtime;
        true
    }

    /// Submits a VM request; returns its placement if a node was found.
    pub fn submit(&mut self, config: VmConfig, class: SlaClass) -> Option<Placement> {
        let Some(target) = self.place_on(&config, class, None) else {
            self.rejected += 1;
            return None;
        };
        let node = self.node_mut(target);
        match node.launch(config) {
            Ok(vm) => {
                self.index.mark(target);
                let id = PlacementId(self.next_placement);
                self.next_placement += 1;
                let placement = Placement { id, node: target, vm, class };
                self.placements.push(placement.clone());
                Some(placement)
            }
            Err(_) => {
                self.rejected += 1;
                None
            }
        }
    }

    /// Advances the whole cluster by one interval: ticks every node,
    /// refreshes reliability scores, and proactively migrates protected
    /// workloads off nodes predicted to fail. The report surfaces crash
    /// events (drained from each node's platform feed) so event-driven
    /// callers can trigger failure-driven recovery.
    ///
    /// The per-node phase runs on at most [`Cluster::set_workers`]
    /// threads, one contiguous node-index chunk each, or on the caller's
    /// thread alone when the tick's work is too small to spread; the
    /// results are reduced sequentially in node order, so **any cap and
    /// any width produce the identical report**: energy sums in index
    /// order (bit-identical floats), crash events order by
    /// `(node index, event order)`, and the index marks and
    /// placement-mutating phases run on the caller's thread. The reduce
    /// and the proactive pass are timed as [`Stage::Reduce`].
    ///
    /// # Panics
    ///
    /// Re-raises, on the caller's thread, a panic from any node's tick.
    pub fn tick(&mut self, duration: Seconds) -> ClusterTickReport {
        // Availability and crash state move inside node ticks without
        // an index mark, so no reject outlives the tick it was made in.
        self.reject_memo = Default::default();
        self.advance_nodes(duration);
        let reduce_start = Instant::now();

        // --- Sequential reduce, in node-index order. Offline nodes
        // produced no advance: no tick, no energy, no crash feed, and no
        // predictor update — their score freezes until they rejoin.
        // Asleep nodes produced none either, and they host no placement
        // (a node parks only once drained), so neither kind is failing.
        let mut crashes = Vec::new();
        let mut failing = Vec::new();
        let mut energy = Joules::ZERO;
        let index = &mut self.index;
        let work = &mut self.work;
        let mut metrics = self.metrics.as_mut();
        for (node, slot) in self.nodes.iter_mut().zip(&mut self.advances) {
            match slot.take() {
                Some(adv) => {
                    energy = energy + adv.energy;
                    work.node_intervals += 1;
                    work.steady_intervals += u64::from(adv.steady);
                    if let Some(m) = &mut metrics {
                        m.inc("node_ticks");
                        if adv.rescored {
                            m.inc("predictor_rescores");
                        }
                        if !adv.crash_events.is_empty() {
                            m.record("crash_events_per_node_tick", adv.crash_events.len() as u64);
                        }
                    }
                    crashes.extend(adv.crash_events.into_iter().map(|ev| (node.id, ev)));
                    // Reliability moves the placement score; healthy
                    // nodes whose rolling score stays put (the common
                    // case) stay clean.
                    if adv.reliability_changed {
                        index.mark(node.id);
                    }
                    if adv.failing {
                        failing.push(node.id);
                    }
                }
                None if !node.is_online() => {
                    if let Some(m) = &mut metrics {
                        m.inc("node_ticks_skipped_offline");
                    }
                }
                // Asleep nodes draw sleep power — charged here in the
                // sequential reduce so the float sums stay in node-index
                // order for any worker count.
                None => {
                    if let Some(m) = &mut metrics {
                        m.inc("node_ticks_skipped_asleep");
                    }
                    energy = energy + node.accrue_sleep_energy(duration);
                }
            }
        }

        let before = self.migrations;
        // The blind ablation cannot see the predictor's signal, so it
        // never migrates proactively.
        let evicted = if self.policy.proactive_migration() && !failing.is_empty() {
            self.proactive_migrations(&failing)
        } else {
            Vec::new()
        };
        self.stages.add_nanos(Stage::Reduce, nanos_between(reduce_start, Instant::now()));
        ClusterTickReport {
            crashes,
            energy,
            proactive_migrations: self.migrations - before,
            evicted,
        }
    }

    /// The parallel phase of a tick: every awake node's hypervisor
    /// advances, the node updates its rolling failure score, and the
    /// outcome lands in the node's slot of the advance buffer. Under a
    /// cap above 1 the width comes from [`FanOut::width`]: width 1 runs
    /// on the caller's thread, and its chunk's own timing keeps the
    /// per-node cost current; a wider tick cuts the rack into chunks
    /// holding equal awake-node shares ([`awake_cuts`]) on scoped
    /// threads that borrow each chunk of nodes and slots, the first
    /// chunk on the caller's thread. Only the scope's wall takes a clock
    /// read of its own; the caller's chunk cost is its chunk's timing.
    fn advance_nodes(&mut self, duration: Seconds) {
        let advance = move |nodes: &mut [ManagedNode], slots: &mut [Option<NodeAdvance>]| {
            advance_slice(nodes, slots, duration)
        };
        if self.workers <= 1 {
            let stats = advance(&mut self.nodes, &mut self.advances);
            self.fanout.record(1);
            self.absorb_shard_stats(&stats);
            return;
        }
        // The nodes `advance_slice` ticks; the rest cost nothing.
        let ticks = |n: &ManagedNode| n.is_online() && !n.is_asleep();
        let awake = self.nodes.iter().filter(|n| ticks(n)).count();
        let width = self.fanout.width(awake, self.workers);
        if width == 1 {
            let stats = advance(&mut self.nodes, &mut self.advances);
            self.fanout.observe_inline(awake, stats.wall());
            self.absorb_shard_stats(&stats);
            return;
        }
        awake_cuts(self.nodes.iter().map(ticks), awake, width, &mut self.fanout.cuts);
        let cuts = &self.fanout.cuts;
        let wall = Instant::now();
        let shards = std::thread::scope(|scope| {
            let (first_nodes, mut nodes) = self.nodes.split_at_mut(cuts[0]);
            let (first_slots, mut slots) = self.advances.split_at_mut(cuts[0]);
            let spawned: Vec<_> = cuts
                .windows(2)
                .map(|w| {
                    let (shard, rest) = std::mem::take(&mut nodes).split_at_mut(w[1] - w[0]);
                    nodes = rest;
                    let (shard_slots, rest) = std::mem::take(&mut slots).split_at_mut(w[1] - w[0]);
                    slots = rest;
                    scope.spawn(move || advance(shard, shard_slots))
                })
                .collect();
            let mut shards = vec![advance(first_nodes, first_slots)];
            for handle in spawned {
                shards.push(handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
            }
            shards
        });
        self.fanout.observe_fanout(awake.div_ceil(width), shards[0].wall(), wall.elapsed());
        for stats in &shards {
            self.absorb_shard_stats(stats);
        }
    }

    /// Failure-driven recovery after a node crash: every tracked
    /// placement on `node` is either migrated to a healthy node
    /// (preserving its SLA class and placement id, Gold first) or
    /// evicted. Post-condition: no tracked placement remains on `node`.
    pub fn recover_from_crash(&mut self, crashed: NodeId) -> CrashRecovery {
        let mut victims: Vec<Placement> =
            self.placements.on(crashed).into_iter().cloned().collect();
        // Scarce spare capacity serves the highest classes first; ties
        // keep submission order (stable sort, Gold < Silver < Bronze).
        victims.sort_by_key(|p| p.class);

        let mut recovery = CrashRecovery { migrated: Vec::new(), evicted: Vec::new() };
        for victim in victims {
            let (config, cost) = {
                let node = self.node_ref(victim.node);
                match node.hypervisor.vm(victim.vm) {
                    Some(vm) => (vm.config.clone(), MIGRATION.cost(vm)),
                    // The VM record vanished (should not happen); drop
                    // the stale placement.
                    None => {
                        self.placements.remove(victim.id);
                        recovery.evicted.push(victim);
                        self.evictions += 1;
                        continue;
                    }
                }
            };
            let target = self.place_on(&config, victim.class, Some(crashed));
            // Off the crashed host either way.
            self.node_mut(victim.node).hypervisor.stop_vm(victim.vm);
            self.index.mark(victim.node);
            let launched = target.and_then(|t| {
                let launched = self.node_mut(t).launch(config).ok().map(|new_vm| (t, new_vm));
                if launched.is_some() {
                    self.index.mark(t);
                }
                launched
            });
            match launched {
                Some((t, new_vm)) => {
                    let moved = Placement { id: victim.id, node: t, vm: new_vm, class: victim.class };
                    self.placements.relocate(victim.id, t, new_vm);
                    self.crash_migrations += 1;
                    self.migration_downtime = self.migration_downtime + cost.downtime;
                    recovery.migrated.push((moved, cost));
                }
                None => {
                    self.placements.remove(victim.id);
                    self.evictions += 1;
                    recovery.evicted.push(victim);
                }
            }
        }
        recovery
    }

    /// Moves Gold/Silver VMs off `failing` nodes — the online nodes the
    /// tick's reduce found below the failure line, minus those that
    /// crashed this tick (their placements belong to failure-driven
    /// recovery). Returns the placements lost to failed relaunches.
    fn proactive_migrations(&mut self, failing: &[NodeId]) -> Vec<Placement> {
        let mut lost = Vec::new();
        // Moves run in descending store position (the golden runs pin
        // this order). Each move re-finds its placement by id, so the
        // `swap_remove` of a failed relaunch cannot misdirect a later
        // move.
        let mut moves: Vec<(usize, Placement)> = failing
            .iter()
            .flat_map(|&node| self.placements.hosted(node))
            .filter(|(_, p)| p.class.proactive_migration())
            .map(|(pos, p)| (pos, p.clone()))
            .collect();
        moves.sort_unstable_by_key(|&(pos, _)| std::cmp::Reverse(pos));
        for (_, placement) in moves {
            let (config, cost) = {
                let node = self.node_ref(placement.node);
                let Some(vm) = node.hypervisor.vm(placement.vm) else { continue };
                (vm.config.clone(), MIGRATION.cost(vm))
            };
            let target = self.place_on(&config, placement.class, Some(placement.node));
            let Some(target) = target else { continue };

            // Stop on the failing source, start on the healthy target.
            self.node_mut(placement.node).hypervisor.stop_vm(placement.vm);
            self.index.mark(placement.node);
            if let Ok(new_vm) = self.node_mut(target).launch(config) {
                self.index.mark(target);
                self.placements.relocate(placement.id, target, new_vm);
                self.migrations += 1;
                self.migration_downtime = self.migration_downtime + cost.downtime;
            } else {
                // The target filled up between weighing and launch; the
                // VM is already stopped on the failing source, so the
                // move became an eviction.
                lost.push(self.placements.remove(placement.id).expect("the move is tracked"));
                self.evictions += 1;
            }
        }
        lost
    }

    /// Terminates by stable placement id — migration-proof: the event
    /// queue's departure events stay valid even after the VM moved
    /// nodes. Returns false when the id is no longer tracked (the
    /// placement was evicted).
    pub fn terminate_by_id(&mut self, id: PlacementId) -> bool {
        let Some(record) = self.placements.remove(id) else {
            return false;
        };
        self.index.mark(record.node);
        // stop_vm is idempotent: false means the VM was already stopped
        // (e.g. by a migration whose relaunch failed).
        self.node_mut(record.node).hypervisor.stop_vm(record.vm)
    }

    /// Aggregated fleet metrics.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no nodes (cannot happen after `build`).
    #[must_use]
    pub fn fleet_metrics(&self) -> FleetMetrics {
        assert!(!self.nodes.is_empty(), "empty cluster");
        let n = self.nodes.len() as f64;
        let mut availability = 0.0;
        let mut utilization = 0.0;
        let mut energy = Joules::ZERO;
        for node in &self.nodes {
            let m = node.metrics();
            availability += m.availability / n;
            utilization += m.utilization / n;
            energy = energy + m.energy;
        }
        FleetMetrics {
            mean_availability: availability,
            mean_utilization: utilization,
            total_energy: energy,
            migrations: self.migrations,
            crash_migrations: self.crash_migrations,
            evictions: self.evictions,
            migration_downtime: self.migration_downtime,
            rejected: self.rejected,
        }
    }

    /// Tracked placements currently on `node`.
    #[must_use]
    pub fn placements_on(&self, node: NodeId) -> Vec<&Placement> {
        self.placements.on(node)
    }

    // --- Failure lifecycle transitions. All phase changes go through
    // these so the placement index is marked consistently; the
    // orchestrator drives the sequence
    // `mark_crashed → recover_from_crash → begin_repair →
    // tick_repairs … → complete_rejoin`.

    /// The failure-lifecycle phase of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this cluster.
    #[must_use]
    pub fn phase(&self, id: NodeId) -> NodePhase {
        self.node_ref(id).phase
    }

    /// Nodes currently out of the pool (crashed, under repair, or
    /// rejoining) — the cluster's lost capacity in node units.
    #[must_use]
    pub fn offline_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.is_online()).count()
    }

    /// Marks a node as crashed: it stops passing the scheduler filter
    /// immediately. Transient — the caller evacuates it with
    /// [`Cluster::recover_from_crash`] and parks it with
    /// [`Cluster::begin_repair`] before the tick ends.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this cluster.
    pub fn mark_crashed(&mut self, id: NodeId) {
        let node = self.node_mut(id);
        node.phase = NodePhase::Crashed;
        // A crash is a power cycle: whatever repairs and rejoins comes
        // back awake, so only Online nodes are ever asleep.
        node.power = NodePower::Awake;
        self.index.mark(id);
    }

    /// Takes an evacuated node offline for `mttr_ticks` repair ticks.
    ///
    /// # Panics
    ///
    /// Panics if the repair window is zero ticks, and (debug builds) if
    /// the node still hosts tracked placements — an offline node must be
    /// evacuated first, or its VMs would silently stop ticking.
    pub fn begin_repair(&mut self, id: NodeId, mttr_ticks: u32) {
        assert!(mttr_ticks >= 1, "repairs take at least one tick");
        debug_assert!(
            self.placements_on(id).is_empty(),
            "{id} must be evacuated before going offline"
        );
        self.node_mut(id).phase = NodePhase::Offline { remaining_ticks: mttr_ticks };
        self.index.mark(id);
    }

    /// Advances every offline node's repair clock by one tick. Nodes
    /// whose repair just finished move to [`NodePhase::Rejoining`] and
    /// are returned in node-index order for the caller to
    /// re-characterize and [`Cluster::complete_rejoin`].
    pub fn tick_repairs(&mut self) -> Vec<NodeId> {
        let mut ready = Vec::new();
        for node in &mut self.nodes {
            if let NodePhase::Offline { remaining_ticks } = node.phase {
                if remaining_ticks <= 1 {
                    node.phase = NodePhase::Rejoining;
                    ready.push(node.id);
                } else {
                    node.phase = NodePhase::Offline { remaining_ticks: remaining_ticks - 1 };
                }
            }
        }
        ready
    }

    /// Returns a re-characterized node to service: it ticks, consumes
    /// energy and takes placements again from this call on.
    ///
    /// # Panics
    ///
    /// Panics if the node is not in [`NodePhase::Rejoining`] — online
    /// nodes cannot "rejoin", and offline nodes must finish their repair
    /// window first.
    pub fn complete_rejoin(&mut self, id: NodeId) {
        let node = self.node_mut(id);
        assert_eq!(node.phase, NodePhase::Rejoining, "only rejoining nodes come back online");
        node.phase = NodePhase::Online;
        self.index.mark(id);
    }

    // --- Gray-failure transitions: silent onset, watchdog-driven
    // quarantine, and the clear back to full health. Like the crash
    // lifecycle, every phase change marks the index.

    /// Marks an online node as serving gray: capacity capped, CE rate
    /// multiplied, still in the pool. Gray onset is silent — the node
    /// keeps ticking and holding placements; only the watchdog's probes
    /// can tell it from a healthy one. Asleep nodes never degrade (they
    /// are frozen, not serving).
    ///
    /// # Panics
    ///
    /// Panics unless the node is awake and in [`NodePhase::Online`].
    pub fn mark_degraded(&mut self, id: NodeId, gray: GrayState) {
        let node = self.node_mut(id);
        assert_eq!(node.phase, NodePhase::Online, "only healthy online nodes degrade");
        assert!(!node.is_asleep(), "{id} is asleep — frozen nodes cannot degrade");
        node.phase = NodePhase::Degraded { gray };
        self.index.mark(id);
    }

    /// Sets or clears the watchdog's quarantine marker on a degraded
    /// node. Quarantined nodes keep ticking (their fault clock and
    /// probes must keep running) but are excluded from every placement
    /// path, including the reliability-blind gates.
    ///
    /// # Panics
    ///
    /// Panics if the node is not degraded.
    pub fn set_quarantined(&mut self, id: NodeId, quarantined: bool) {
        let node = self.node_mut(id);
        match node.phase {
            NodePhase::Degraded { mut gray } => {
                gray.quarantined = quarantined;
                node.phase = NodePhase::Degraded { gray };
            }
            phase => panic!("{id} is not degraded (phase {phase:?})"),
        }
        self.index.mark(id);
    }

    /// Returns a degraded node to full health: the underlying fault
    /// cleared (or probation ended in readmission), so the capacity cap
    /// and CE multiplier lift.
    ///
    /// # Panics
    ///
    /// Panics if the node is not degraded.
    pub fn clear_degraded(&mut self, id: NodeId) {
        let node = self.node_mut(id);
        assert!(node.is_degraded(), "{id} is not degraded");
        node.phase = NodePhase::Online;
        self.index.mark(id);
    }

    /// Nodes currently serving gray.
    #[must_use]
    pub fn degraded_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_degraded()).count()
    }

    /// Migrates up to `budget` placements off a (typically quarantined)
    /// degraded node, Gold first, with pre-copy semantics: the source
    /// copy keeps running until the target launch succeeds, so a failed
    /// placement leaves the VM where it is — a watchdog drain never
    /// evicts anyone, it just takes another bite next tick. Returns the
    /// number of placements actually moved.
    ///
    /// Unlike the crash path these moves are not a response to lost
    /// capacity, so they count as proactive migrations (and accrue
    /// pre-copy downtime), not as SLA violations.
    pub fn drain_degraded(&mut self, source: NodeId, budget: usize) -> u64 {
        let mut victims: Vec<Placement> = self.placements.on(source).into_iter().cloned().collect();
        // Gold first: the strictest SLA gets off the sick node before
        // the budget runs out. The sort is stable, so same-class
        // victims keep their (deterministic) placement order.
        victims.sort_by_key(|p| p.class);
        victims.truncate(budget);
        let mut moved = 0u64;
        for victim in &victims {
            if self.precopy_move(source, victim) {
                self.migrations += 1;
                moved += 1;
            }
        }
        moved
    }

    /// Node ids are dense `0..n` (asserted in [`Cluster::from_nodes`]),
    /// so an id is its index.
    fn node_mut(&mut self, id: NodeId) -> &mut ManagedNode {
        &mut self.nodes[id.0 as usize]
    }

    fn node_ref(&self, id: NodeId) -> &ManagedNode {
        &self.nodes[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FailurePredictor;
    use crate::scheduler::Scheduler;
    use uniserver_platform::msr::DomainId;
    use uniserver_units::Bytes;

    #[test]
    fn submissions_spread_across_nodes() {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(4), 100);
        for _ in 0..8 {
            assert!(cluster.submit(VmConfig::ldbc_benchmark(), SlaClass::Silver).is_some());
        }
        let placements = cluster.placements();
        assert_eq!(placements.len(), 8);
        let mut hosts: Vec<NodeId> = placements.iter().map(|p| p.node).collect();
        hosts.sort_unstable();
        hosts.dedup();
        assert!(hosts.len() >= 3, "placements should spread, got {hosts:?}");
    }

    #[test]
    fn server_mut_marks_only_its_node() {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(4), 100);
        cluster.submit(VmConfig::ldbc_benchmark(), SlaClass::Silver).expect("placed");
        assert_eq!(cluster.index.dirty_count(), 1, "the launch marks its host");
        cluster.index.flush(cluster.policy.scheduler(), &cluster.nodes);
        assert_eq!(cluster.index.dirty_count(), 0);
        cluster.server_mut(NodeId(2));
        assert_eq!(cluster.index.dirty_count(), 1, "one node, not the rack");
        cluster.nodes_mut();
        assert_eq!(cluster.index.dirty_count(), 4, "nodes_mut marks the whole rack");
    }

    #[test]
    fn saturated_cluster_rejects() {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(1), 100);
        let mut accepted = 0;
        for _ in 0..6 {
            if cluster.submit(VmConfig::ldbc_benchmark(), SlaClass::Bronze).is_some() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 4, "one 16 GiB relaxed domain fits four 4 GiB guests");
        assert_eq!(cluster.fleet_metrics().rejected, 2);
    }

    #[test]
    fn healthy_cluster_runs_without_migrations() {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(3), 100);
        cluster.submit(VmConfig::ldbc_benchmark(), SlaClass::Gold);
        for _ in 0..30 {
            cluster.tick(Seconds::new(1.0));
        }
        let m = cluster.fleet_metrics();
        assert_eq!(m.migrations, 0);
        assert_eq!(m.mean_availability, 1.0);
        assert!(m.total_energy.as_joules() > 0.0);
    }

    #[test]
    fn failing_node_triggers_proactive_migration_of_gold() {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(3), 100);
        let gold =
            cluster.submit(VmConfig::ldbc_benchmark(), SlaClass::Gold).expect("placed");
        let bronze_cfg = VmConfig { name: "batch".into(), ..VmConfig::ldbc_benchmark() };
        let bronze = cluster.submit(bronze_cfg, SlaClass::Bronze).expect("placed");

        // Degrade both hosting nodes' relaxed DRAM domain so their logs
        // fill with corrected errors and reliability collapses.
        for id in [gold.node, bronze.node] {
            let server = cluster.server_mut(id);
            server.msr.set_refresh_interval(DomainId(1), Seconds::new(10.0)).unwrap();
        }

        for _ in 0..60 {
            cluster.tick(Seconds::new(2.0));
            if cluster.fleet_metrics().migrations > 0 {
                break;
            }
        }
        let m = cluster.fleet_metrics();
        assert!(m.migrations >= 1, "gold VM should have been migrated");
        let gold_now = cluster
            .placements()
            .iter()
            .find(|p| p.class == SlaClass::Gold)
            .expect("gold placement tracked");
        assert_ne!(gold_now.node, gold.node, "gold VM left the degraded node");
        let bronze_now = cluster
            .placements()
            .iter()
            .find(|p| p.class == SlaClass::Bronze)
            .expect("bronze placement tracked");
        assert_eq!(bronze_now.node, bronze.node, "bronze stays (no proactive migration)");
        assert!(m.migration_downtime.as_secs() < 1.0, "pre-copy keeps blackout sub-second");
    }

    #[test]
    fn build_is_deterministic_but_nodes_differ() {
        let a = Cluster::build(&ClusterConfig::small_edge_site(2), 5);
        let b = Cluster::build(&ClusterConfig::small_edge_site(2), 5);
        assert_eq!(
            a.nodes()[0].hypervisor.node().chip().speed_factor,
            b.nodes()[0].hypervisor.node().chip().speed_factor
        );
        assert_ne!(
            a.nodes()[0].hypervisor.node().chip().speed_factor,
            a.nodes()[1].hypervisor.node().chip().speed_factor,
            "every node is a different manufactured chip"
        );
    }

    #[test]
    #[should_panic(expected = "needs nodes")]
    fn empty_cluster_panics() {
        let _ = Cluster::build(&ClusterConfig::small_edge_site(0), 1);
    }

    #[test]
    fn uniserver_rack_mixes_parts_six_to_one_to_one() {
        let config = ClusterConfig::uniserver_rack(64);
        let cluster = Cluster::build(&config, 500);
        let mut counts = [0usize; 3];
        for node in cluster.nodes() {
            let name = &node.hypervisor.node().part().name;
            let idx = config
                .part_mix
                .iter()
                .position(|p| &p.spec.name == name)
                .expect("drawn part comes from the mix");
            counts[idx] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "64 draws must hit every part: {counts:?}");
        assert!(counts[0] > counts[1] + counts[2], "ARM dominates 6:1:1: {counts:?}");
        // Pure function of (seed, index): rebuilding reproduces the rack.
        let again = Cluster::build(&config, 500);
        for (a, b) in cluster.nodes().iter().zip(again.nodes()) {
            assert_eq!(a.hypervisor.node().part().name, b.hypervisor.node().part().name);
        }
    }

    #[test]
    fn placement_ids_are_stable_and_unique() {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(3), 100);
        let a = cluster.submit(VmConfig::idle_guest(), SlaClass::Silver).expect("placed");
        let b = cluster.submit(VmConfig::idle_guest(), SlaClass::Bronze).expect("placed");
        assert_ne!(a.id, b.id);
        assert!(cluster.terminate_by_id(a.id));
        assert!(!cluster.terminate_by_id(a.id), "double termination is reported");
        assert!(cluster.terminate_by_id(b.id));
    }

    #[test]
    fn crash_recovery_clears_the_crashed_node() {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(3), 100);
        let placed: Vec<Placement> = (0..4)
            .filter_map(|i| {
                let class = if i % 2 == 0 { SlaClass::Gold } else { SlaClass::Bronze };
                cluster.submit(VmConfig::idle_guest(), class)
            })
            .collect();
        assert_eq!(placed.len(), 4);
        let crashed = placed[0].node;
        let before = cluster.placements_on(crashed).len();
        assert!(before > 0);
        let recovery = cluster.recover_from_crash(crashed);
        assert_eq!(recovery.migrated.len() + recovery.evicted.len(), before);
        assert!(cluster.placements_on(crashed).is_empty(), "no placement survives the crash");
        for (moved, cost) in &recovery.migrated {
            assert_ne!(moved.node, crashed);
            assert!(cost.duration.as_secs() > 0.0, "every move has a real cost");
            let tracked = cluster
                .placements()
                .iter()
                .find(|p| p.id == moved.id)
                .expect("migrated placement stays tracked");
            assert_eq!(tracked.class, moved.class, "migration preserves the SLA class");
        }
        let m = cluster.fleet_metrics();
        assert_eq!(m.crash_migrations, recovery.migrated.len() as u64);
        assert_eq!(m.evictions, recovery.evicted.len() as u64);
    }

    #[test]
    fn sharded_tick_matches_sequential_on_a_degraded_rack() {
        let build = || {
            let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(6), 100);
            for i in 0..6 {
                let class = if i % 2 == 0 { SlaClass::Gold } else { SlaClass::Bronze };
                cluster.submit(VmConfig::idle_guest(), class);
            }
            // Degrade two nodes: node 0 deep into its crash region,
            // node 1's relaxed DRAM into CE noise, so the comparison
            // covers crash events, predictor re-scores and migrations.
            let deep = cluster.nodes()[0].hypervisor.node().part().offset_mv(0.20);
            cluster.nodes_mut()[0].hypervisor.node_mut().msr.set_voltage_offset_all(deep).unwrap();
            cluster.nodes_mut()[1]
                .hypervisor
                .node_mut()
                .msr
                .set_refresh_interval(DomainId(1), Seconds::new(10.0))
                .unwrap();
            cluster
        };
        let mut seq = build();
        let mut par = build();
        par.set_workers(4);
        let mut saw_crash = false;
        for _ in 0..60 {
            let a = seq.tick(Seconds::new(1.0));
            let b = par.tick(Seconds::new(1.0));
            assert_eq!(a, b, "worker count must never change a tick report");
            saw_crash |= !a.crashes.is_empty();
        }
        assert!(saw_crash, "a 20 % undervolt must crash within 60 ticks");
        assert_eq!(seq.fleet_metrics(), par.fleet_metrics());
        assert_eq!(seq.placements(), par.placements());
        for (a, b) in seq.nodes().iter().zip(par.nodes()) {
            assert_eq!(a.reliability, b.reliability);
            assert_eq!(a.metrics(), b.metrics());
        }
    }

    #[test]
    fn a_standalone_predictor_tracks_every_node_score() {
        // The replay's timed path: a predictor kept current by calling
        // `update_node` on every online awake node after each tick must
        // see exactly the reliability the cluster computed on the node.
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(6), 100);
        for _ in 0..4 {
            cluster.submit(VmConfig::idle_guest(), SlaClass::Bronze);
        }
        let deep = cluster.nodes()[0].hypervisor.node().part().offset_mv(0.20);
        cluster.nodes_mut()[0].hypervisor.node_mut().msr.set_voltage_offset_all(deep).unwrap();
        cluster.nodes_mut()[1]
            .hypervisor
            .node_mut()
            .msr
            .set_refresh_interval(DomainId(1), Seconds::new(10.0))
            .unwrap();
        let mut predictor = FailurePredictor::new();
        let mut dipped = 0;
        for _ in 0..60 {
            cluster.tick(Seconds::new(1.0));
            for node in cluster.nodes().iter().filter(|n| n.is_online() && !n.is_asleep()) {
                let r = predictor.update_node(node.id.0, node.hypervisor.health());
                assert_eq!(r, node.reliability, "{} diverged", node.id);
                dipped += usize::from(r < 1.0);
            }
        }
        assert!(dipped > 0, "the noisy nodes must move their scores");
    }

    #[test]
    #[should_panic(expected = "call reboot()")]
    fn a_panic_in_a_shard_reaches_the_caller_of_tick() {
        use uniserver_platform::workload::WorkloadProfile;

        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(6), 100);
        cluster.set_workers(3);
        // Crash node 5's platform behind its hypervisor's back: the last
        // chunk, on a spawned thread, runs a crashed node next tick.
        let server = cluster.nodes_mut()[5].hypervisor.node_mut();
        server.msr.set_voltage_offset_all(server.part().offset_mv(0.25)).unwrap();
        while server.run_interval(&WorkloadProfile::spec_zeusmp(), Seconds::new(1.0)).crash.is_none() {}
        cluster.tick(Seconds::new(1.0));
    }

    #[test]
    fn tick_clamps_workers_to_node_count() {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(2), 100);
        cluster.submit(VmConfig::idle_guest(), SlaClass::Bronze);
        // More workers than nodes (and zero workers) both behave.
        cluster.set_workers(64);
        let a = cluster.tick(Seconds::new(1.0));
        assert!(a.crashes.is_empty());
        cluster.set_workers(0);
        let b = cluster.tick(Seconds::new(1.0));
        assert!(b.crashes.is_empty());
        assert!(cluster.fleet_metrics().total_energy.as_joules() > 0.0);
    }

    #[test]
    fn resolve_workers_clamps_to_cores_and_jobs() {
        let cores = cores();
        assert!(cores >= 1);
        assert_eq!(resolve_workers(0, 1_000_000), cores, "0 means one per core");
        assert_eq!(resolve_workers(10_000, 1_000_000), cores, "requests clamp to cores");
        assert_eq!(resolve_workers(1, 8), 1);
        assert_eq!(resolve_workers(0, 0), 1, "degenerate job counts still get a worker");
        assert!(resolve_workers(64, 3) <= 3, "never more workers than jobs");
    }

    #[test]
    fn build_accepts_seeds_near_u64_max() {
        // `seed + i` used to panic on overflow in debug builds; the
        // derivation wraps instead.
        let cluster = Cluster::build(&ClusterConfig::small_edge_site(3), u64::MAX);
        assert_eq!(cluster.nodes().len(), 3);
        let again = Cluster::build(&ClusterConfig::small_edge_site(3), u64::MAX);
        assert_eq!(
            cluster.nodes()[2].hypervisor.node().chip().speed_factor,
            again.nodes()[2].hypervisor.node().chip().speed_factor,
            "wrapped seeds stay deterministic"
        );
    }

    #[test]
    fn tick_surfaces_crash_events() {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(2), 100);
        cluster.submit(VmConfig::ldbc_benchmark(), SlaClass::Bronze);
        // Undervolt node 0 deep into its crash region.
        let node = &mut cluster.nodes_mut()[0];
        let deep = node.hypervisor.node().part().offset_mv(0.20);
        node.hypervisor.node_mut().msr.set_voltage_offset_all(deep).unwrap();
        let mut seen = Vec::new();
        for _ in 0..60 {
            let report = cluster.tick(Seconds::new(1.0));
            if !report.crashes.is_empty() {
                seen = report.crashes;
                break;
            }
        }
        assert!(!seen.is_empty(), "a 20 % undervolt must surface a crash event");
        assert_eq!(seen[0].0, NodeId(0));
        assert!(seen[0].1.voltage.as_volts() > 0.0);
    }

    #[test]
    fn lifecycle_round_trips_through_repair() {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(2), 100);
        assert_eq!(cluster.phase(NodeId(0)), NodePhase::Online);
        cluster.mark_crashed(NodeId(0));
        assert_eq!(cluster.phase(NodeId(0)), NodePhase::Crashed);
        assert_eq!(cluster.offline_count(), 1);
        cluster.begin_repair(NodeId(0), 2);
        assert_eq!(cluster.phase(NodeId(0)), NodePhase::Offline { remaining_ticks: 2 });
        assert!(cluster.tick_repairs().is_empty(), "one tick left on the clock");
        assert_eq!(cluster.phase(NodeId(0)), NodePhase::Offline { remaining_ticks: 1 });
        assert_eq!(cluster.tick_repairs(), vec![NodeId(0)], "repair finished");
        assert_eq!(cluster.phase(NodeId(0)), NodePhase::Rejoining);
        assert_eq!(cluster.offline_count(), 1, "rejoining nodes are still out of the pool");
        cluster.complete_rejoin(NodeId(0));
        assert_eq!(cluster.phase(NodeId(0)), NodePhase::Online);
        assert_eq!(cluster.offline_count(), 0);
    }

    #[test]
    fn offline_nodes_take_no_placements_and_consume_no_energy() {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(2), 100);
        cluster.mark_crashed(NodeId(1));
        cluster.begin_repair(NodeId(1), 10);
        // Node 0's relaxed domain fits four 4 GiB guests; all four
        // land there, the fifth has nowhere to go.
        for _ in 0..4 {
            let p = cluster
                .submit(VmConfig::ldbc_benchmark(), SlaClass::Bronze)
                .expect("the online node fits");
            assert_eq!(p.node, NodeId(0), "offline nodes never take placements");
        }
        assert!(cluster.submit(VmConfig::ldbc_benchmark(), SlaClass::Bronze).is_none());
        for _ in 0..5 {
            cluster.tick(Seconds::new(1.0));
        }
        assert!(cluster.nodes()[0].metrics().energy.as_joules() > 0.0);
        assert_eq!(
            cluster.nodes()[1].metrics().energy,
            Joules::ZERO,
            "offline nodes do not tick"
        );
    }

    #[test]
    fn offline_skip_is_worker_count_invariant() {
        let build = || {
            let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(6), 100);
            for i in 0..6 {
                let class = if i % 2 == 0 { SlaClass::Gold } else { SlaClass::Bronze };
                cluster.submit(VmConfig::idle_guest(), class);
            }
            let crashed = NodeId(2);
            cluster.mark_crashed(crashed);
            cluster.recover_from_crash(crashed);
            cluster.begin_repair(crashed, 30);
            cluster
        };
        let mut seq = build();
        let mut par = build();
        par.set_workers(4);
        for tick in 0..20 {
            let a = seq.tick(Seconds::new(1.0));
            let b = par.tick(Seconds::new(1.0));
            assert_eq!(a, b, "offline skip changed tick {tick} across worker counts");
        }
        assert_eq!(seq.fleet_metrics(), par.fleet_metrics());
        assert_eq!(seq.nodes()[2].metrics().energy, Joules::ZERO);
    }

    #[test]
    #[should_panic(expected = "only rejoining nodes")]
    fn online_nodes_cannot_rejoin() {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(1), 100);
        cluster.complete_rejoin(NodeId(0));
    }

    #[test]
    fn parked_nodes_freeze_and_draw_only_sleep_power() {
        use crate::lifecycle::SLEEP_POWER_WATTS;

        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(3), 100);
        cluster.park_node(NodeId(2));
        assert_eq!(cluster.asleep_count(), 1);
        assert_eq!(cluster.power_stats().parks, 1);
        // Placements route around the sleeper under the default policy.
        for _ in 0..4 {
            let p = cluster.submit(VmConfig::idle_guest(), SlaClass::Bronze).expect("placed");
            assert_ne!(p.node, NodeId(2), "the default policy never places onto sleepers");
        }
        for _ in 0..5 {
            cluster.tick(Seconds::new(1.0));
        }
        let sleeper = cluster.nodes()[2].metrics();
        let expected = SLEEP_POWER_WATTS * 5.0;
        assert!(
            (sleeper.energy.as_joules() - expected).abs() < 1e-9,
            "5 s asleep must cost exactly {expected} J, got {}",
            sleeper.energy.as_joules()
        );
        assert!(
            cluster.nodes()[0].metrics().energy.as_joules() > expected,
            "an awake node must out-consume the sleeper"
        );
        cluster.wake_node(NodeId(2));
        assert_eq!(cluster.asleep_count(), 0);
        assert_eq!(cluster.power_stats().wakes, 1);
    }

    #[test]
    fn asleep_skip_is_worker_count_invariant() {
        let build = || {
            let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(6), 100);
            for i in 0..6 {
                let class = if i % 2 == 0 { SlaClass::Gold } else { SlaClass::Bronze };
                cluster.submit(VmConfig::idle_guest(), class);
            }
            // Evacuate node 4 by terminating whatever landed on it, then
            // park it; node 2 goes offline so both skip paths coexist.
            let on_four: Vec<PlacementId> =
                cluster.placements_on(NodeId(4)).iter().map(|p| p.id).collect();
            for id in on_four {
                cluster.terminate_by_id(id);
            }
            cluster.park_node(NodeId(4));
            let crashed = NodeId(2);
            cluster.mark_crashed(crashed);
            cluster.recover_from_crash(crashed);
            cluster.begin_repair(crashed, 30);
            cluster
        };
        let mut seq = build();
        let mut par = build();
        par.set_workers(4);
        for tick in 0..20 {
            let a = seq.tick(Seconds::new(1.0));
            let b = par.tick(Seconds::new(1.0));
            assert_eq!(a, b, "asleep skip changed tick {tick} across worker counts");
        }
        assert_eq!(seq.fleet_metrics(), par.fleet_metrics());
        assert_eq!(seq.power_stats(), par.power_stats());
    }

    #[test]
    fn consolidating_cluster_packs_drains_and_parks() {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(6), 100);
        cluster.set_policy(PolicyKind::Consolidate);
        // Six bronze guests pack onto one node (ties break to the lowest
        // id on the packing end, so the empty rack fills node 0 first)
        // instead of spreading.
        let placed: Vec<Placement> = (0..6)
            .map(|_| cluster.submit(VmConfig::idle_guest(), SlaClass::Bronze).expect("placed"))
            .collect();
        let hosts: std::collections::HashSet<NodeId> = placed.iter().map(|p| p.node).collect();
        assert_eq!(hosts, std::collections::HashSet::from([NodeId(0)]), "consolidation must pack");
        // The management pass parks the empties beyond the spare buffer
        // (identical empties tie, so the two highest ids stay awake).
        cluster.manage(0);
        assert_eq!(cluster.asleep_count(), 3, "6 nodes - 1 host - 2 spares = 3 parked");
        assert_eq!(cluster.power_stats().parks, 3);

        // Strand one tracked straggler on a spare via the spreading
        // reference policy (it picks the best-scored awake node — an
        // empty spare, tie-broken to the highest id: node 5).
        cluster.set_policy(PolicyKind::EnergySla);
        let straggler =
            cluster.submit(VmConfig::idle_guest(), SlaClass::Bronze).expect("placed");
        assert_eq!(straggler.node, NodeId(5));
        cluster.set_policy(PolicyKind::Consolidate);

        // The next pass drains the straggler into the pack (a cheap,
        // within-budget migration) and parks its node.
        cluster.manage(12);
        assert_eq!(cluster.power_stats().consolidation_migrations, 1);
        assert_eq!(cluster.asleep_count(), 4, "the drained source joins the sleepers");
        assert!(cluster.nodes()[5].is_asleep());
        let moved = cluster
            .placements()
            .iter()
            .find(|p| p.id == straggler.id)
            .expect("straggler is still tracked");
        assert_eq!(moved.node, NodeId(0), "the straggler joined the pack");
        assert!(
            cluster.fleet_metrics().migration_downtime.as_secs() > 0.0,
            "consolidation moves pay real blackout"
        );
    }

    #[test]
    fn off_period_manage_neither_scans_nor_flushes() {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(6), 100);
        cluster.set_policy(PolicyKind::Consolidate);
        cluster.submit(VmConfig::idle_guest(), SlaClass::Bronze).expect("placed");
        let (dirty, generation) = (cluster.index.dirty_count(), cluster.index.generation());
        assert!(dirty > 0, "the placement left its host dirty");
        // Three empties beyond the spares are parkable, but tick 5 is
        // off the rebalance cadence: nothing parks, nothing flushes.
        cluster.manage(5);
        assert_eq!(cluster.index.dirty_count(), dirty, "an off-period pass must not flush");
        assert_eq!(cluster.index.generation(), generation);
        assert_eq!(cluster.asleep_count(), 0);
        assert_eq!(cluster.power_stats().parks, 0);
        // On the cadence the same rack parks its three surplus empties,
        // then drains its lone straggler and parks that too.
        cluster.manage(REBALANCE_EVERY);
        assert_eq!(cluster.power_stats().parks, 4);
    }

    /// A consolidating 4-node rack: three idle guests packed on node 0,
    /// nodes 1 and 2 empty (the spare buffer), and one straggler on
    /// node 3 running `guest`, stranded there by the spreading
    /// reference policy.
    fn straggler_rack(guest: VmConfig) -> (Cluster, Placement) {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(4), 100);
        cluster.set_policy(PolicyKind::Consolidate);
        for _ in 0..3 {
            let p = cluster.submit(VmConfig::idle_guest(), SlaClass::Bronze).expect("placed");
            assert_eq!(p.node, NodeId(0), "consolidation packs onto node 0");
        }
        cluster.set_policy(PolicyKind::EnergySla);
        let straggler = cluster.submit(guest, SlaClass::Bronze).expect("placed");
        assert_eq!(straggler.node, NodeId(3), "the reference spreads to the highest empty id");
        cluster.set_policy(PolicyKind::Consolidate);
        (cluster, straggler)
    }

    #[test]
    fn a_drain_aborts_whole_when_a_guest_costs_more_than_the_budget() {
        // A 12 GiB resident set takes over 11 s to pre-copy at 10 GbE,
        // past the 10 s per-VM budget: the straggler keeps its VM and
        // stays awake, and nothing moves.
        let heavy = VmConfig {
            name: "heavy".into(),
            memory: Bytes::gib(14),
            resident_set: Bytes::gib(12),
            ..VmConfig::idle_guest()
        };
        let (mut cluster, straggler) = straggler_rack(heavy);
        let vm = cluster.nodes()[3].hypervisor.vm(straggler.vm).expect("running");
        assert!(MIGRATION.cost(vm).duration.as_secs() > MAX_MIGRATION_SECS);
        cluster.manage(0);
        assert!(!cluster.nodes()[3].is_asleep(), "a hot straggler keeps its node awake");
        assert_eq!(cluster.placements_on(NodeId(3)).len(), 1, "its VM stays in place");
        assert!(cluster.nodes()[3].hypervisor.vm(straggler.vm).is_some());
        assert_eq!(cluster.power_stats().consolidation_migrations, 0);
        assert_eq!(cluster.power_stats().parks, 0, "two empties are the spare buffer");
        assert_eq!(cluster.fleet_metrics().migration_downtime, Seconds::ZERO);

        // The same rack with a cheap straggler drains it and parks.
        let (mut cluster, straggler) = straggler_rack(VmConfig::idle_guest());
        cluster.manage(0);
        assert!(cluster.nodes()[3].is_asleep(), "a cheap straggler is drained and parked");
        assert!(cluster.placements_on(NodeId(3)).is_empty());
        let moved = cluster.placements().iter().find(|p| p.id == straggler.id).expect("tracked");
        assert_eq!(moved.node, NodeId(0), "the straggler joined the pack");
        assert_eq!(cluster.power_stats().consolidation_migrations, 1);
    }

    #[test]
    fn gray_transitions_keep_the_node_in_the_pool_until_quarantine() {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(2), 100);
        let gray = GrayState {
            capacity_cap: 0.5,
            ce_multiplier: 2.0,
            clears_at_tick: 10,
            quarantined: false,
        };
        cluster.mark_degraded(NodeId(1), gray);
        assert!(cluster.nodes()[1].is_degraded());
        assert_eq!(cluster.degraded_count(), 1);
        assert_eq!(cluster.offline_count(), 0, "gray nodes stay in the pool");
        // Degraded but not quarantined: the filter still admits it at
        // Bronze (effective reliability 0.5 clears the 0.3 floor) but
        // the halved reliability fails the premium floors.
        let s = Scheduler::BALANCED;
        let cfg = VmConfig::idle_guest();
        assert!(s.filter(&cluster.nodes()[1], &cfg, SlaClass::Bronze));
        assert!(!s.filter(&cluster.nodes()[1], &cfg, SlaClass::Gold));
        cluster.set_quarantined(NodeId(1), true);
        assert!(
            !s.filter(&cluster.nodes()[1], &cfg, SlaClass::Bronze),
            "quarantine closes even the Bronze gate"
        );
        assert!(cluster.nodes()[1].is_quarantined());
        // Quarantined: every placement routes to node 0, even classes
        // the blind gates would admit.
        for _ in 0..3 {
            let p = cluster.submit(VmConfig::idle_guest(), SlaClass::Bronze).expect("placed");
            assert_eq!(p.node, NodeId(0), "quarantined nodes take nothing");
        }
        cluster.set_quarantined(NodeId(1), false);
        assert!(!cluster.nodes()[1].is_quarantined());
        cluster.clear_degraded(NodeId(1));
        assert_eq!(cluster.phase(NodeId(1)), NodePhase::Online);
        assert_eq!(cluster.degraded_count(), 0);
        assert_eq!(cluster.nodes()[1].metrics().reliability, 1.0, "the cap and multiplier lift");
    }

    #[test]
    fn drain_degraded_moves_gold_first_within_budget_and_never_evicts() {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(2), 100);
        // Fill node 1 with a bronze, a gold and a silver guest — launch
        // order deliberately puts gold in the middle.
        let mut on_node_1 = Vec::new();
        for class in [SlaClass::Bronze, SlaClass::Gold, SlaClass::Silver] {
            loop {
                let p = cluster.submit(VmConfig::idle_guest(), class).expect("fits");
                if p.node == NodeId(1) {
                    on_node_1.push(p);
                    break;
                }
            }
        }
        let before = cluster.fleet_metrics();
        cluster.mark_degraded(
            NodeId(1),
            GrayState { capacity_cap: 0.5, ce_multiplier: 2.0, clears_at_tick: 50, quarantined: false },
        );
        cluster.set_quarantined(NodeId(1), true);
        // Budget 2: the gold and silver guests move, bronze waits.
        let moved = cluster.drain_degraded(NodeId(1), 2);
        assert_eq!(moved, 2);
        let left: Vec<SlaClass> =
            cluster.placements_on(NodeId(1)).iter().map(|p| p.class).collect();
        assert_eq!(left, vec![SlaClass::Bronze], "gold and silver drain first");
        let after = cluster.fleet_metrics();
        assert_eq!(after.migrations, before.migrations + 2, "drains are proactive migrations");
        assert_eq!(after.evictions, before.evictions, "a watchdog drain never evicts");
        assert!(after.migration_downtime > before.migration_downtime);
        // Next bite finishes the node.
        assert_eq!(cluster.drain_degraded(NodeId(1), 8), 1);
        assert!(cluster.placements_on(NodeId(1)).is_empty());
        assert_eq!(cluster.drain_degraded(NodeId(1), 8), 0, "an empty node drains to zero");
    }

    #[test]
    #[should_panic(expected = "only healthy online nodes degrade")]
    fn offline_nodes_cannot_degrade() {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(1), 100);
        cluster.mark_crashed(NodeId(0));
        let gray = GrayState {
            capacity_cap: 0.5,
            ce_multiplier: 2.0,
            clears_at_tick: 1,
            quarantined: false,
        };
        cluster.mark_degraded(NodeId(0), gray);
    }

    #[test]
    fn parked_mid_dip_nodes_recover_on_the_sleeper_slow_clock() {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(3), 100);
        cluster.set_policy(PolicyKind::Consolidate);
        // Pack two bronze guests onto node 0 and make its DRAM noisy so
        // the predictor's rolling error score climbs for real (bronze
        // placements are never proactively migrated, so they stay put).
        let placed: Vec<Placement> = (0..2)
            .map(|_| {
                cluster.submit(VmConfig::ldbc_benchmark(), SlaClass::Bronze).expect("placed")
            })
            .collect();
        assert!(placed.iter().all(|p| p.node == NodeId(0)), "consolidation packs onto node 0");
        cluster.nodes_mut()[0]
            .hypervisor
            .node_mut()
            .msr
            .set_refresh_interval(DomainId(1), Seconds::new(10.0))
            .unwrap();
        for _ in 0..200 {
            cluster.tick(Seconds::new(2.0));
            if cluster.nodes()[0].reliability < 0.7 {
                break;
            }
        }
        let dipped = cluster.nodes()[0].reliability;
        assert!(dipped < 0.7, "the noisy domain must dip reliability, got {dipped}");
        // Park the node mid-dip (the relaxed parkability gate allows
        // exactly this) and drive only the management slow clock.
        for p in placed {
            cluster.terminate_by_id(p.id);
        }
        cluster.park_node(NodeId(0));
        let mut last = dipped;
        let mut recovered_at = None;
        for k in 1..=400u64 {
            cluster.manage(60 * k);
            let r = cluster.nodes()[0].reliability;
            assert!(r >= last, "slow-clock re-scores must never worsen a frozen log: {r} < {last}");
            last = r;
            if r >= 0.9 {
                recovered_at = Some(k);
                break;
            }
        }
        let k = recovered_at.expect("a parked dip must age out on the slow clock");
        assert!(k > 1, "recovery takes multiple decay visits, not one jump");
        assert!(cluster.nodes()[0].is_asleep(), "the node recovered *while* asleep");
        // Awake again, the recovered node clears the strictest wake
        // floor and can serve premium placements.
        cluster.wake_node(NodeId(0));
        assert!(
            cluster.nodes()[0].reliability >= SlaClass::Gold.min_reliability(),
            "a recovered sleeper must clear Gold's floor"
        );
    }

    /// Whether `class`'s reject memo is live: set, and decided at the
    /// index's current generation.
    fn memo_live(cluster: &Cluster, class: SlaClass) -> bool {
        cluster.reject_memo[class as usize]
            .as_ref()
            .is_some_and(|m| m.generation == cluster.index.generation())
    }

    /// Rejects one Gold idle guest and checks the reject is memoized.
    fn reject_gold(cluster: &mut Cluster) {
        assert!(cluster.submit(VmConfig::idle_guest(), SlaClass::Gold).is_none());
        assert!(memo_live(cluster, SlaClass::Gold), "a Gold reject is memoized");
    }

    /// A 3-node rack whose every node sits between Silver's and Gold's
    /// reliability floors, so Silver places and Gold is rejected.
    fn gold_shy_rack() -> Cluster {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(3), 100);
        for node in cluster.nodes_mut() {
            node.reliability = 0.8;
        }
        cluster
    }

    #[test]
    fn a_repeated_reject_hits_the_memo_until_the_request_changes() {
        let mut cluster = gold_shy_rack();
        reject_gold(&mut cluster);
        let generation = cluster.index.generation();
        reject_gold(&mut cluster);
        assert_eq!(cluster.index.generation(), generation, "a memo hit marks nothing");
        assert_eq!(cluster.fleet_metrics().rejected, 2, "a memo hit still counts as a reject");
        // Another config is decided afresh and takes over the slot;
        // another class has its own slot.
        assert!(cluster.submit(VmConfig::ldbc_benchmark(), SlaClass::Gold).is_none());
        let memo = cluster.reject_memo[SlaClass::Gold as usize].as_ref().expect("memoized");
        assert_eq!(memo.config, VmConfig::ldbc_benchmark());
        assert!(cluster.reject_memo[SlaClass::Silver as usize].is_none());
        // An excluded node is part of the request.
        let cfg = VmConfig::idle_guest();
        assert_eq!(cluster.decide_on(&cfg, SlaClass::Gold, Some(NodeId(1))), PlacementDecision::Reject);
        assert_eq!(cluster.reject_memo[SlaClass::Gold as usize].as_ref().unwrap().exclude, Some(NodeId(1)));
    }

    #[test]
    fn a_launch_kills_the_reject_memo() {
        let mut cluster = gold_shy_rack();
        reject_gold(&mut cluster);
        cluster.submit(VmConfig::idle_guest(), SlaClass::Silver).expect("Silver clears 0.8");
        assert!(!memo_live(&cluster, SlaClass::Gold));
    }

    #[test]
    fn a_stop_kills_the_reject_memo() {
        let mut cluster = gold_shy_rack();
        let silver = cluster.submit(VmConfig::idle_guest(), SlaClass::Silver).expect("placed");
        reject_gold(&mut cluster);
        assert!(cluster.terminate_by_id(silver.id));
        assert!(!memo_live(&cluster, SlaClass::Gold));
    }

    #[test]
    fn a_wake_kills_the_reject_memo() {
        let mut cluster = gold_shy_rack();
        cluster.park_node(NodeId(2));
        reject_gold(&mut cluster);
        cluster.wake_node(NodeId(2));
        assert!(!memo_live(&cluster, SlaClass::Gold));
    }

    #[test]
    fn a_reliability_change_kills_the_reject_memo() {
        let mut cluster = gold_shy_rack();
        cluster.set_policy(PolicyKind::Consolidate);
        cluster.park_node(NodeId(2));
        reject_gold(&mut cluster);
        // The sleeper's silent log re-scores to 1.0: its reliability
        // moves, and so does the index generation.
        cluster.rescore_sleepers();
        assert_eq!(cluster.nodes()[2].reliability, 1.0);
        assert!(!memo_live(&cluster, SlaClass::Gold));
        let woken = cluster.submit(VmConfig::idle_guest(), SlaClass::Gold).expect("placed");
        assert_eq!(woken.node, NodeId(2), "the recovered sleeper wakes for Gold");
    }

    #[test]
    fn every_phase_change_kills_the_reject_memo() {
        let gray = GrayState { capacity_cap: 0.5, ce_multiplier: 2.0, clears_at_tick: 9, quarantined: false };
        let transitions: [&dyn Fn(&mut Cluster); 6] = [
            &|c| c.mark_degraded(NodeId(0), gray),
            &|c| c.set_quarantined(NodeId(0), true),
            &|c| c.clear_degraded(NodeId(0)),
            &|c| c.mark_crashed(NodeId(1)),
            &|c| c.begin_repair(NodeId(1), 1),
            &|c| {
                assert_eq!(c.tick_repairs(), vec![NodeId(1)]);
                c.complete_rejoin(NodeId(1));
            },
        ];
        let mut cluster = gold_shy_rack();
        for (step, transition) in transitions.iter().enumerate() {
            reject_gold(&mut cluster);
            transition(&mut cluster);
            assert!(!memo_live(&cluster, SlaClass::Gold), "transition {step} kept the memo");
        }
    }

    #[test]
    fn a_tick_clears_the_reject_memo() {
        let mut cluster = gold_shy_rack();
        reject_gold(&mut cluster);
        cluster.tick(Seconds::new(1.0));
        assert!(cluster.reject_memo.iter().all(Option::is_none));
    }

    /// A 6-node rack with one deep-undervolted node, one noisy DRAM
    /// domain and one node parked offline — the same degradation the
    /// shard-equivalence tests use, so metrics cover crashes, rescores
    /// and the offline skip.
    fn instrumented_rack() -> Cluster {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(6), 100);
        for i in 0..6 {
            let class = if i % 2 == 0 { SlaClass::Gold } else { SlaClass::Bronze };
            cluster.submit(VmConfig::idle_guest(), class);
        }
        let deep = cluster.nodes()[0].hypervisor.node().part().offset_mv(0.20);
        cluster.nodes_mut()[0].hypervisor.node_mut().msr.set_voltage_offset_all(deep).unwrap();
        cluster.nodes_mut()[1]
            .hypervisor
            .node_mut()
            .msr
            .set_refresh_interval(DomainId(1), Seconds::new(10.0))
            .unwrap();
        let parked = NodeId(5);
        cluster.mark_crashed(parked);
        cluster.recover_from_crash(parked);
        cluster.begin_repair(parked, 100);
        cluster
    }

    #[test]
    fn shard_metrics_are_byte_identical_across_worker_counts() {
        let mut seq = instrumented_rack();
        let mut par = instrumented_rack();
        par.set_workers(4);
        seq.enable_metrics();
        par.enable_metrics();
        for _ in 0..40 {
            let a = seq.tick(Seconds::new(1.0));
            let b = par.tick(Seconds::new(1.0));
            assert_eq!(a, b, "metrics collection must not perturb the tick");
        }
        let a = seq.take_metrics().expect("metrics were enabled");
        let b = par.take_metrics().expect("metrics were enabled");
        assert_eq!(a.to_json(), b.to_json(), "shard merge order must equal node order");
        assert_eq!(a.counter("node_ticks"), 5 * 40, "five online nodes tick every tick");
        assert_eq!(a.counter("node_ticks_skipped_offline"), 40);
        assert!(a.counter("predictor_rescores") > 0, "noisy logs must rescore");
        let crashes = a.histogram("crash_events_per_node_tick").expect("deep undervolt crashes");
        assert!(crashes.count > 0);
        assert!(seq.take_metrics().is_none(), "take_metrics stops collection");
    }

    #[test]
    fn the_cluster_times_its_own_stages_at_any_width() {
        for width in 1..=3 {
            let mut cluster = instrumented_rack();
            cluster.set_workers(3);
            cluster.fanout.forced = Some(width);
            for _ in 0..20 {
                cluster.tick(Seconds::new(1.0));
            }
            assert_eq!(cluster.tick_workers_mean(), width as f64, "the forced width ran");
            let stages = cluster.stages();
            assert!(stages.nanos(Stage::NodeTick) > 0, "node ticking must be attributed at width {width}");
            assert!(stages.nanos(Stage::Predictor) > 0, "predictor scans must be attributed at width {width}");
            assert!(stages.nanos(Stage::Reduce) > 0, "the reduce must be attributed at width {width}");
            assert_eq!(stages.nanos(Stage::Placement), 0, "the cluster only times its own phase");
        }
    }

    /// A rack whose nodes follow `mask` (0 online, 1 asleep, 2 offline),
    /// with a guest on every online node and the first online node deep
    /// in its crash region, so ticks carry crashes and re-scores.
    fn masked_rack(mask: &[u8]) -> Cluster {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(mask.len()), 100);
        for (i, &state) in mask.iter().enumerate() {
            let id = NodeId(i as u32);
            match state {
                1 => cluster.park_node(id),
                2 => {
                    cluster.mark_crashed(id);
                    cluster.begin_repair(id, 1000);
                }
                _ => {}
            }
        }
        for i in 0..mask.len() {
            let class = if i % 2 == 0 { SlaClass::Gold } else { SlaClass::Bronze };
            cluster.submit(VmConfig::idle_guest(), class);
        }
        if let Some(first) = mask.iter().position(|&state| state == 0) {
            let server = cluster.nodes_mut()[first].hypervisor.node_mut();
            let deep = server.part().offset_mv(0.20);
            server.msr.set_voltage_offset_all(deep).unwrap();
        }
        cluster
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Any cap and any width (measured, or forced through the test
        /// hook) give the cap-1 cluster's reports, placements and
        /// metrics, while nodes sleep, wake and sit offline.
        #[test]
        fn any_cap_and_width_matches_the_cap_one_cluster(
            mask in proptest::collection::vec(0u8..3, 1..10),
            cap in 1usize..5,
            forced in 0usize..5,
        ) {
            let mut reference = masked_rack(&mask);
            let mut under = masked_rack(&mask);
            under.set_workers(cap);
            under.fanout.forced = (forced > 0).then_some(forced);
            reference.enable_metrics();
            under.enable_metrics();
            let sleeper = mask.iter().position(|&state| state == 1).map(|i| NodeId(i as u32));
            for tick in 0..16 {
                if tick == 8 {
                    if let Some(id) = sleeper {
                        reference.wake_node(id);
                        under.wake_node(id);
                    }
                }
                let a = reference.tick(Seconds::new(1.0));
                let b = under.tick(Seconds::new(1.0));
                proptest::prop_assert_eq!(a, b, "tick {} of {:?} at cap {} width {}", tick, mask, cap, forced);
                proptest::prop_assert_eq!(reference.placements(), under.placements());
            }
            let a = reference.take_metrics().expect("metrics were enabled");
            let b = under.take_metrics().expect("metrics were enabled");
            proptest::prop_assert_eq!(a.to_json(), b.to_json());
            proptest::prop_assert!(under.tick_workers_mean() <= cap.max(1) as f64);
        }
    }
}
