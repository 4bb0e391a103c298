//! Incremental placement index: cached scores + a sorted candidate set.
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
//! [`crate::policy::RackView::best`] then walks the ranking from the
//! top, returning the first node that passes the *request-dependent*
//! filter (capacity, crash state, availability and reliability floors
//! are read live from the node). Walks in another order (consolidation's
//! band-keyed pack walk) read the cached score through
//! [`PlacementIndex::score`] instead of re-weighing.
//!
//! # Freshness
//!
//! The walk order is descending `(score, NodeId)` — exactly the
//! explicit tie-break of [`Scheduler::place_linear`] — and the weigher
//! is deterministic in its inputs, so an index whose cached scores are
//! all fresh returns the *identical* node for every request. Debug
//! builds check exactly that at the end of every
//! [`PlacementIndex::flush`]: the ranking holds one entry per node and
//! every cached score equals a live [`Scheduler::weigh`]. A missed
//! invalidation therefore panics in every debug-built test and run,
//! whether or not it would have changed a decision; release builds
//! compile the check out.

use std::cmp::Ordering;
use std::collections::BTreeSet;

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

/// The incremental placement index. One per [`crate::cluster::Cluster`];
/// node ids must be the dense `0..n` the cluster builders produce.
#[derive(Debug, Clone)]
pub struct PlacementIndex {
    /// Cached weigher score per node index (valid when not dirty).
    scores: Vec<f64>,
    /// Ranking of all indexed nodes by `(score, NodeId)`.
    by_score: BTreeSet<(Score, NodeId)>,
    /// Per-node dirty flag (score must be recomputed before use).
    dirty: Vec<bool>,
    /// Dirty node indices pending a flush (each at most once).
    pending: Vec<u32>,
    /// Whether the node currently has an entry in `by_score`.
    indexed: Vec<bool>,
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
            indexed: vec![false; n],
        }
    }

    /// Marks one node's cached score stale.
    pub fn mark(&mut self, id: NodeId) {
        let i = id.0 as usize;
        if !self.dirty[i] {
            self.dirty[i] = true;
            self.pending.push(id.0);
        }
    }

    /// Marks every node stale — the blunt hammer behind unrestricted
    /// mutable node access.
    pub fn mark_all(&mut self) {
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
    pub fn score(&self, id: NodeId) -> f64 {
        debug_assert!(!self.dirty[id.0 as usize], "score() requires a flushed index");
        self.scores[id.0 as usize]
    }

    /// Number of nodes currently marked dirty (diagnostics/tests).
    #[must_use]
    pub fn dirty_count(&self) -> usize {
        self.pending.len()
    }

    /// Re-scores every dirty node and repairs the ranking.
    ///
    /// # Panics
    ///
    /// Debug builds panic if, after the repair, the ranking does not
    /// hold exactly one entry per node or any cached score differs
    /// from a live [`Scheduler::weigh`] — a missed [`PlacementIndex::mark`].
    pub fn flush(&mut self, scheduler: &Scheduler, nodes: &[ManagedNode]) {
        for i in std::mem::take(&mut self.pending) {
            let i = i as usize;
            let node = &nodes[i];
            debug_assert_eq!(node.id.0 as usize, i, "node ids must be dense");
            if self.indexed[i] {
                self.by_score.remove(&(Score(self.scores[i]), node.id));
            }
            let score = scheduler.weigh(node);
            self.scores[i] = score;
            self.by_score.insert((Score(score), node.id));
            self.indexed[i] = true;
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
            }
        }
    }

    /// All indexed nodes in *descending* `(score, NodeId)` order — the
    /// best-first walk behind [`crate::policy::RackView::best`], which
    /// applies the policy's own per-candidate feasibility checks.
    /// Callers must [`PlacementIndex::flush`] first.
    pub fn ranked_rev(&self) -> impl Iterator<Item = NodeId> + '_ {
        debug_assert_eq!(self.dirty_count(), 0, "ranked_rev() requires a flushed index");
        self.by_score.iter().rev().map(|&(_, id)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{EnergySlaPolicy, RackView};
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
        scheduler: &Scheduler,
        ns: &[ManagedNode],
        config: &VmConfig,
        class: SlaClass,
        avoid: &[NodeId],
    ) -> Option<NodeId> {
        RackView::new(ns, index).best(&EnergySlaPolicy::new(*scheduler), config, class, avoid)
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
                best(index, scheduler, ns, config, class, &[]),
                scheduler.place_linear(ns.iter(), config, class),
                "indexed placement diverged from the linear scan at {class}"
            );
        }
    }

    #[test]
    fn fresh_index_matches_linear_scan() {
        let ns = nodes(5);
        let s = Scheduler::default();
        let mut index = PlacementIndex::new(ns.len());
        assert_matches_linear(&mut index, &s, &ns, &VmConfig::idle_guest());
    }

    #[test]
    fn dirty_marks_track_load_and_reliability_changes() {
        let mut ns = nodes(4);
        let s = Scheduler::default();
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
        let s = Scheduler::default();
        let mut index = PlacementIndex::new(ns.len());
        index.flush(&s, &ns);
        let cfg = VmConfig::idle_guest();
        assert_eq!(best(&index, &s, &ns, &cfg, SlaClass::Gold, &[]), Some(NodeId(2)));
        assert_eq!(
            best(&index, &s, &ns, &cfg, SlaClass::Gold, &[NodeId(2)]),
            Some(NodeId(1)),
            "excluding the winner must yield the runner-up"
        );
    }

    #[test]
    fn duplicate_marks_flush_once() {
        let ns = nodes(2);
        let s = Scheduler::default();
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
        let s = Scheduler::default();
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale cached score for node1")]
    fn unmarked_changes_fail_the_debug_freshness_check() {
        let mut ns = nodes(2);
        let s = Scheduler::default();
        let mut index = PlacementIndex::new(ns.len());
        index.flush(&s, &ns);
        // Mutate behind the index's back and flush without a mark.
        ns[1].reliability = 0.4;
        index.flush(&s, &ns);
    }
}
