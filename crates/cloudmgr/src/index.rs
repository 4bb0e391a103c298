//! Incremental placement index: cached scores, cached node facts and a
//! sorted candidate set.
//!
//! `Scheduler::place_linear` re-weighs the whole rack for every request
//! — ~10⁸ filter/weigh evaluations per simulated hour at 10⁴ nodes.
//! Energy-aware cloud managers treat placement as an incremental,
//! indexed decision instead (Beloglazov & Buyya's survey of
//! energy-efficient cloud scheduling; Paya & Marinescu's energy-aware
//! load-balancing policies): a node's placement score only changes when
//! one of a handful of events touches it, so the manager maintains the
//! ranking and re-evaluates *dirty* nodes, not the rack.
//!
//! [`PlacementIndex`] caches each node's weigher score in a flat
//! `Vec<f64>` keyed by node index plus a `BTreeSet<(score, NodeId)>`
//! ranking. The cluster marks a node dirty on exactly the events that
//! can move its score — VM launch, departure, migration (stop + start),
//! crash recovery, predictor write-backs that change reliability,
//! lifecycle and gray transitions, and platform reprogramming through
//! `Cluster::server_mut` (one node; `Cluster::nodes_mut` marks the
//! rack) — and flushes the dirty set before every policy decision.
//!
//! The same flush caches each node's `NodeFacts`: power state,
//! lifecycle flags, effective reliability and vCPU / relaxed-memory
//! headroom, in one dense `Vec` keyed by node index. Every decision
//! filters candidates on these facts first (`NodeFacts::may_admit`:
//! online, not quarantined, enough headroom — the gates of
//! `Scheduler::admits_blind`, which every policy's `admits` implies)
//! and reads a [`ManagedNode`] only to confirm a survivor with the
//! policy's live `admits`, so the prefilter can drop a node `admits`
//! would refuse but never one it would take.
//! [`crate::policy::RackView::best`] walks the ranking from the top;
//! walks in another order (consolidation's band-keyed pack walk) read
//! the cached score through `PlacementIndex::score`.
//!
//! A generation counter moves on every clean→dirty
//! [`PlacementIndex::mark`] and on every `PlacementIndex::mark_all`:
//! two decisions at one generation see the same cached rack, which is
//! what the cluster's reject memo keys on.
//!
//! # Freshness
//!
//! The walk order is descending `(score, NodeId)` — exactly the
//! explicit tie-break of [`Scheduler::place_linear`] — and the weigher
//! is deterministic in its inputs, so an index whose cached scores are
//! all fresh returns the *identical* node for every request. Debug
//! builds check exactly that at the end of every
//! [`PlacementIndex::flush`]: the ranking holds one entry per node,
//! every cached score equals a live [`Scheduler::weigh`], every cached
//! fact equals the live node's, and no cached headroom is below the
//! live headroom (headroom is as of the last mark; a prefilter may
//! overestimate it, never underestimate it). A missed invalidation
//! therefore panics in every debug-built test and run, whether or not
//! it would have changed a decision; release builds compile the check
//! out.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use uniserver_hypervisor::vm::VmConfig;
use uniserver_units::Bytes;

use crate::node::{ManagedNode, NodeId};
use crate::scheduler::Scheduler;

/// A finite `f64` score with a total order, so scores can key the
/// ranking set. Placement scores are finite by construction (the
/// weigher is a weighted sum of bounded metrics); a NaN panics loudly
/// instead of corrupting the order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Score(f64);

impl Eq for Score {}

impl PartialOrd for Score {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Score {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("placement scores are finite")
    }
}

/// What the index remembers about one node besides its score, as of
/// the node's last flush: the request-independent inputs of the
/// placement walks.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct NodeFacts {
    /// Whether the node is serving (lifecycle phase `Online` or
    /// `Degraded`).
    pub(crate) online: bool,
    /// Whether the node is parked asleep.
    pub(crate) asleep: bool,
    /// Whether the node is serving gray.
    pub(crate) degraded: bool,
    /// Whether the health watchdog has quarantined the node.
    pub(crate) quarantined: bool,
    /// [`ManagedNode::effective_reliability`].
    pub(crate) reliability: f64,
    /// vCPUs left under [`ManagedNode::vcpu_budget`].
    pub(crate) vcpu_headroom: usize,
    /// Relaxed-domain bytes left for guest memory.
    pub(crate) mem_headroom: Bytes,
}

impl NodeFacts {
    /// The live facts of `node`.
    #[must_use]
    pub(crate) fn of(node: &ManagedNode) -> Self {
        let hv = &node.hypervisor;
        NodeFacts {
            online: node.is_online(),
            asleep: node.is_asleep(),
            degraded: node.is_degraded(),
            quarantined: node.is_quarantined(),
            reliability: node.effective_reliability(),
            vcpu_headroom: node.vcpu_budget().saturating_sub(hv.committed_vcpus()),
            mem_headroom: hv.relaxed_capacity().saturating_sub(hv.memory_used_relaxed()),
        }
    }

    /// Whether a node with these facts can pass
    /// [`Scheduler::admits_blind`] for `config`: it is online, not
    /// quarantined, and has the vCPU and relaxed-memory headroom
    /// [`ManagedNode::fits`] asks for. Every policy's `admits` implies
    /// these gates, so this is a necessary condition only: `false`
    /// proves the live check would refuse the node, `true` proves
    /// nothing.
    #[must_use]
    pub(crate) fn may_admit(&self, config: &VmConfig) -> bool {
        self.online
            && !self.quarantined
            && config.vcpus <= self.vcpu_headroom
            && config.memory <= self.mem_headroom
    }
}

/// The incremental placement index. One per [`crate::cluster::Cluster`];
/// node ids must be the dense `0..n` the cluster builders produce.
#[derive(Debug, Clone)]
pub struct PlacementIndex {
    /// Cached weigher score per node index (valid when not dirty).
    scores: Vec<f64>,
    /// Ranking of all indexed nodes by `(score, NodeId)`.
    by_score: BTreeSet<(Score, NodeId)>,
    /// Per-node dirty flag (score and facts must be recomputed before
    /// use).
    dirty: Vec<bool>,
    /// Dirty node indices pending a flush (each at most once).
    pending: Vec<u32>,
    /// Cached facts per node index (valid when not dirty).
    facts: Vec<NodeFacts>,
    /// Bumped on every clean→dirty mark and every `mark_all`.
    generation: u64,
    /// Flushes so far, and the nodes they re-weighed (work counts).
    flushes: u64,
    reweighed: u64,
}

impl PlacementIndex {
    /// An index over `n` nodes, all initially dirty (first use scores
    /// the whole rack once; after that only events pay).
    #[must_use]
    pub fn new(n: usize) -> Self {
        #[allow(clippy::cast_possible_truncation)]
        let pending = (0..n as u32).collect();
        PlacementIndex {
            scores: vec![0.0; n],
            by_score: BTreeSet::new(),
            dirty: vec![true; n],
            pending,
            facts: vec![NodeFacts::default(); n],
            generation: 0,
            flushes: 0,
            reweighed: 0,
        }
    }

    /// Marks one node's cached score and facts stale.
    pub fn mark(&mut self, id: NodeId) {
        let i = id.0 as usize;
        if !self.dirty[i] {
            self.dirty[i] = true;
            self.pending.push(id.0);
            self.generation += 1;
        }
    }

    /// Marks every node stale — the blunt hammer behind unrestricted
    /// mutable node access.
    pub(crate) fn mark_all(&mut self) {
        self.generation += 1;
        self.pending.clear();
        for (i, d) in self.dirty.iter_mut().enumerate() {
            *d = true;
            #[allow(clippy::cast_possible_truncation)]
            self.pending.push(i as u32);
        }
    }

    /// One node's cached score. Callers must [`PlacementIndex::flush`]
    /// first.
    #[must_use]
    pub(crate) fn score(&self, id: NodeId) -> f64 {
        debug_assert!(!self.dirty[id.0 as usize], "score() requires a flushed index");
        self.scores[id.0 as usize]
    }

    /// Every node's cached facts, dense by node index. Callers must
    /// [`PlacementIndex::flush`] first.
    #[must_use]
    pub(crate) fn facts(&self) -> &[NodeFacts] {
        debug_assert_eq!(self.dirty_count(), 0, "facts() requires a flushed index");
        &self.facts
    }

    /// The invalidation generation: it moves whenever a clean node is
    /// marked or the whole rack is, so an unchanged generation means no
    /// cached score or fact changed since it was read.
    #[must_use]
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Flushes so far and the nodes they re-weighed.
    #[must_use]
    pub(crate) fn flush_work(&self) -> (u64, u64) {
        (self.flushes, self.reweighed)
    }

    /// Number of nodes currently marked dirty (diagnostics/tests).
    #[must_use]
    pub(crate) fn dirty_count(&self) -> usize {
        self.pending.len()
    }

    /// Re-scores every dirty node, refreshes its facts and repairs the
    /// ranking.
    ///
    /// # Panics
    ///
    /// Debug builds panic if, after the repair, the ranking does not
    /// hold exactly one entry per node, any cached score differs from a
    /// live [`Scheduler::weigh`], any cached fact differs from the live
    /// node's, or any cached headroom is below the live headroom — a
    /// missed [`PlacementIndex::mark`].
    pub fn flush(&mut self, scheduler: &Scheduler, nodes: &[ManagedNode]) {
        self.flushes += 1;
        self.reweighed += self.pending.len() as u64;
        for i in std::mem::take(&mut self.pending) {
            let i = i as usize;
            let node = &nodes[i];
            debug_assert_eq!(node.id.0 as usize, i, "node ids must be dense");
            // A node not yet ranked has no entry: the removal is a no-op.
            self.by_score.remove(&(Score(self.scores[i]), node.id));
            let score = scheduler.weigh(node);
            self.scores[i] = score;
            self.by_score.insert((Score(score), node.id));
            self.facts[i] = NodeFacts::of(node);
            self.dirty[i] = false;
        }
        #[cfg(debug_assertions)]
        {
            assert_eq!(self.by_score.len(), nodes.len(), "the ranking must hold one entry per node");
            for node in nodes {
                let live = scheduler.weigh(node);
                assert!(
                    self.scores[node.id.0 as usize] == live
                        && self.by_score.contains(&(Score(live), node.id)),
                    "stale cached score for {}",
                    node.id
                );
                let (cached, live) = (self.facts[node.id.0 as usize], NodeFacts::of(node));
                assert!(
                    cached.vcpu_headroom >= live.vcpu_headroom
                        && cached.mem_headroom >= live.mem_headroom
                        && NodeFacts { vcpu_headroom: 0, mem_headroom: Bytes::ZERO, ..cached }
                            == NodeFacts { vcpu_headroom: 0, mem_headroom: Bytes::ZERO, ..live },
                    "stale cached facts for {}: {cached:?} vs live {live:?}",
                    node.id
                );
            }
        }
    }

    /// All indexed nodes in *descending* `(score, NodeId)` order — the
    /// best-first walk behind [`crate::policy::RackView::best`], which
    /// applies the policy's own per-candidate feasibility checks.
    /// Callers must [`PlacementIndex::flush`] first.
    pub(crate) fn ranked_rev(&self) -> impl Iterator<Item = NodeId> + '_ {
        debug_assert_eq!(self.dirty_count(), 0, "ranked_rev() requires a flushed index");
        self.by_score.iter().rev().map(|&(_, id)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{PolicyKind, RackView};
    use crate::sla::SlaClass;
    use uniserver_hypervisor::vm::VmConfig;
    use uniserver_platform::part::PartSpec;

    fn nodes(n: usize) -> Vec<ManagedNode> {
        (0..n)
            .map(|i| {
                #[allow(clippy::cast_possible_truncation)]
                ManagedNode::provision(NodeId(i as u32), PartSpec::arm_microserver(), i as u64)
            })
            .collect()
    }

    /// The index's best-first pick under the reference policy.
    fn best(
        index: &PlacementIndex,
        ns: &[ManagedNode],
        config: &VmConfig,
        class: SlaClass,
        avoid: &[NodeId],
    ) -> Option<NodeId> {
        RackView::new(ns, index).best(PolicyKind::EnergySla, config, class, avoid)
    }

    fn assert_matches_linear(
        index: &mut PlacementIndex,
        scheduler: &Scheduler,
        ns: &[ManagedNode],
        config: &VmConfig,
    ) {
        index.flush(scheduler, ns);
        for n in ns {
            assert_eq!(index.score(n.id), scheduler.weigh(n), "stale cached score for {}", n.id);
        }
        for class in [SlaClass::Gold, SlaClass::Silver, SlaClass::Bronze] {
            assert_eq!(
                best(index, ns, config, class, &[]),
                scheduler.place_linear(ns.iter(), config, class),
                "indexed placement diverged from the linear scan at {class}"
            );
        }
    }

    #[test]
    fn fresh_index_matches_linear_scan() {
        let ns = nodes(5);
        let s = Scheduler::BALANCED;
        let mut index = PlacementIndex::new(ns.len());
        assert_matches_linear(&mut index, &s, &ns, &VmConfig::idle_guest());
    }

    #[test]
    fn dirty_marks_track_load_and_reliability_changes() {
        let mut ns = nodes(4);
        let s = Scheduler::BALANCED;
        let mut index = PlacementIndex::new(ns.len());
        index.flush(&s, &ns);
        assert_eq!(index.dirty_count(), 0);

        // Load node 3 (the previous tie-break winner) and tell the index.
        ns[3].launch(VmConfig::ldbc_benchmark()).unwrap();
        index.mark(NodeId(3));
        assert_eq!(index.dirty_count(), 1);
        assert_matches_linear(&mut index, &s, &ns, &VmConfig::idle_guest());

        // Degrade node 2's reliability and tell the index.
        ns[2].reliability = 0.4;
        index.mark(NodeId(2));
        assert_matches_linear(&mut index, &s, &ns, &VmConfig::idle_guest());
    }

    #[test]
    fn excluded_nodes_are_skipped() {
        let ns = nodes(3);
        let s = Scheduler::BALANCED;
        let mut index = PlacementIndex::new(ns.len());
        index.flush(&s, &ns);
        let cfg = VmConfig::idle_guest();
        assert_eq!(best(&index, &ns, &cfg, SlaClass::Gold, &[]), Some(NodeId(2)));
        assert_eq!(
            best(&index, &ns, &cfg, SlaClass::Gold, &[NodeId(2)]),
            Some(NodeId(1)),
            "excluding the winner must yield the runner-up"
        );
    }

    #[test]
    fn duplicate_marks_flush_once() {
        let ns = nodes(2);
        let s = Scheduler::BALANCED;
        let mut index = PlacementIndex::new(ns.len());
        index.flush(&s, &ns);
        index.mark(NodeId(1));
        index.mark(NodeId(1));
        assert_eq!(index.dirty_count(), 1, "re-marking a dirty node must not grow the queue");
        index.flush(&s, &ns);
        assert_eq!(index.dirty_count(), 0);
    }

    #[test]
    fn mark_all_rescores_the_rack() {
        let mut ns = nodes(3);
        let s = Scheduler::BALANCED;
        let mut index = PlacementIndex::new(ns.len());
        index.flush(&s, &ns);
        // Mutate behind the index's back, then invalidate wholesale.
        ns[0].reliability = 0.1;
        ns[1].launch(VmConfig::ldbc_benchmark()).unwrap();
        index.mark_all();
        assert_eq!(index.dirty_count(), 3);
        assert_matches_linear(&mut index, &s, &ns, &VmConfig::idle_guest());
    }

    #[test]
    fn a_mark_refreshes_the_facts_and_moves_the_generation_once() {
        let mut ns = nodes(2);
        let s = Scheduler::BALANCED;
        let mut index = PlacementIndex::new(ns.len());
        index.flush(&s, &ns);
        let generation = index.generation();
        ns[1].launch(VmConfig::ldbc_benchmark()).unwrap();
        index.mark(NodeId(1));
        ns[1].reliability = 0.6;
        index.mark(NodeId(1));
        assert_eq!(index.generation(), generation + 1, "only the clean→dirty mark moves it");
        index.flush(&s, &ns);
        assert_eq!(index.facts()[1], NodeFacts::of(&ns[1]));
        assert_eq!(index.score(NodeId(1)), s.weigh(&ns[1]));
        index.mark_all();
        assert_eq!(index.generation(), generation + 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale cached facts for node1")]
    fn understated_headroom_fails_the_debug_freshness_check() {
        let ns = nodes(2);
        let s = Scheduler::BALANCED;
        let mut index = PlacementIndex::new(ns.len());
        index.flush(&s, &ns);
        // A cached headroom below the live one could hide the node
        // from a decision the live `admits` would let it win.
        index.facts[1].vcpu_headroom -= 1;
        index.flush(&s, &ns);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale cached score for node1")]
    fn unmarked_changes_fail_the_debug_freshness_check() {
        let mut ns = nodes(2);
        let s = Scheduler::BALANCED;
        let mut index = PlacementIndex::new(ns.len());
        index.flush(&s, &ns);
        // Mutate behind the index's back and flush without a mark.
        ns[1].reliability = 0.4;
        index.flush(&s, &ns);
    }
}
