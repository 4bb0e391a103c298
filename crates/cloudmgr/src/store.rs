//! The id-keyed placement store behind [`crate::cluster::Cluster`].
//!
//! The cluster reports its placements as one `Vec` in a fixed order:
//! submission order, with every removal a `swap_remove` (the last
//! placement fills the hole). Event-queue departures, crash recovery,
//! watchdog drains, consolidation drains and proactive migration look
//! placements up by [`PlacementId`] or by host node. [`PlacementStore`]
//! keeps that `Vec` and two indexes beside it: the `Vec` position of
//! every tracked id, repaired on each `swap_remove`, and the ids hosted
//! by each node. The cluster issues ids densely from 0, so the position
//! index is a plain vector indexed by id: no hashing on the submit and
//! departure paths, at 4 bytes per placement ever made. Lookups by id
//! are O(1) and lookups by node are O(placements on that node), and
//! every order derived from the `Vec` (victim lists, proactive moves)
//! is the order a linear scan of it gives. Debug builds check, after
//! every mutation, the entries it touched against each other: the
//! position and host of each id it moved and the id lists of the nodes
//! it changed, at O(placements on those nodes) per mutation.

use uniserver_hypervisor::vm::VmId;

use crate::cluster::{Placement, PlacementId};
use crate::node::NodeId;

/// The `slot` entry of an id that is not tracked.
const UNTRACKED: u32 = u32::MAX;

/// Tracked placements with id and per-node indexes.
#[derive(Debug, Clone)]
pub(crate) struct PlacementStore {
    /// Placements in submission order, holes filled by `swap_remove`.
    list: Vec<Placement>,
    /// `list` position per id, indexed by `PlacementId.0` and grown on
    /// demand; [`UNTRACKED`] for ids not (or no longer) in `list`.
    slot: Vec<u32>,
    /// Ids hosted by each node, dense by node index (unordered).
    on_node: Vec<Vec<PlacementId>>,
}

impl PlacementStore {
    /// An empty store for a rack of `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        PlacementStore { list: Vec::new(), slot: Vec::new(), on_node: vec![Vec::new(); nodes] }
    }

    /// Every tracked placement, in store order.
    pub(crate) fn all(&self) -> &[Placement] {
        &self.list
    }

    /// The store-order position of `id`, if tracked.
    fn position(&self, id: PlacementId) -> Option<usize> {
        let slot = *usize::try_from(id.0).ok().and_then(|i| self.slot.get(i))?;
        (slot != UNTRACKED).then_some(slot as usize)
    }

    /// Number of placements hosted by `node`.
    pub(crate) fn count_on(&self, node: NodeId) -> usize {
        self.on_node[node.0 as usize].len()
    }

    /// The placements hosted by `node` with their store positions, in
    /// no particular order.
    pub(crate) fn hosted(&self, node: NodeId) -> impl Iterator<Item = (usize, &Placement)> + '_ {
        self.on_node[node.0 as usize].iter().map(|&id| {
            let pos = self.position(id).expect("hosted ids are tracked");
            (pos, &self.list[pos])
        })
    }

    /// The placements hosted by `node`, in store order.
    pub(crate) fn on(&self, node: NodeId) -> Vec<&Placement> {
        let mut hosted: Vec<(usize, &Placement)> = self.hosted(node).collect();
        hosted.sort_unstable_by_key(|&(pos, _)| pos);
        hosted.into_iter().map(|(_, p)| p).collect()
    }

    /// Appends a new placement.
    ///
    /// # Panics
    ///
    /// Panics if the store already holds `u32::MAX` placements, and
    /// (debug builds) if the id is already tracked.
    pub(crate) fn push(&mut self, placement: Placement) {
        debug_assert!(self.position(placement.id).is_none(), "{:?} is already tracked", placement.id);
        let i = usize::try_from(placement.id.0).expect("placement ids fit the address space");
        if i >= self.slot.len() {
            self.slot.resize(i + 1, UNTRACKED);
        }
        self.slot[i] = u32::try_from(self.list.len()).expect("fewer than u32::MAX live placements");
        let (id, node) = (placement.id, placement.node);
        self.on_node[node.0 as usize].push(id);
        self.list.push(placement);
        self.debug_check(&[id], &[node]);
    }

    /// Removes `id` by `swap_remove`, returning it; `None` when `id` is
    /// not tracked.
    pub(crate) fn remove(&mut self, id: PlacementId) -> Option<Placement> {
        let pos = self.position(id)?;
        self.slot[id.0 as usize] = UNTRACKED;
        let removed = self.list.swap_remove(pos);
        let moved = self.list.get(pos).map(|p| p.id);
        if let Some(moved) = moved {
            // `pos` < the length pushed earlier, so it fits a `u32`.
            #[allow(clippy::cast_possible_truncation)]
            let pos = pos as u32;
            self.slot[moved.0 as usize] = pos;
        }
        self.unhost(removed.node, id);
        debug_assert!(self.position(id).is_none(), "{id:?} is still tracked");
        self.debug_check(moved.as_slice(), &[removed.node]);
        Some(removed)
    }

    /// Moves tracked placement `id` to `vm` on `node`, keeping its
    /// position, id and class.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not tracked.
    pub(crate) fn relocate(&mut self, id: PlacementId, node: NodeId, vm: VmId) {
        let pos = self.position(id).expect("relocated placements are tracked");
        let source = self.list[pos].node;
        self.unhost(source, id);
        self.on_node[node.0 as usize].push(id);
        let record = &mut self.list[pos];
        record.node = node;
        record.vm = vm;
        self.debug_check(&[id], &[source, node]);
    }

    fn unhost(&mut self, node: NodeId, id: PlacementId) {
        let hosted = &mut self.on_node[node.0 as usize];
        let at = hosted.iter().position(|&h| h == id).expect("a tracked placement is hosted");
        hosted.swap_remove(at);
    }

    /// Debug builds: each of `ids` sits at its recorded position and is
    /// listed under its host, and every id listed under one of `nodes`
    /// is tracked on that node.
    fn debug_check(&self, ids: &[PlacementId], nodes: &[NodeId]) {
        #[cfg(debug_assertions)]
        {
            for &id in ids {
                let pos = self.position(id).expect("checked ids are tracked");
                let record = &self.list[pos];
                assert_eq!(record.id, id, "stale position for {id:?}");
                assert!(self.on_node[record.node.0 as usize].contains(&id), "{id:?} is not hosted");
            }
            for &node in nodes {
                for &id in &self.on_node[node.0 as usize] {
                    let pos = self.position(id).expect("hosted ids are tracked");
                    assert_eq!(self.list[pos].node, node, "stale host for {id:?}");
                }
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = (ids, nodes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sla::SlaClass;
    use uniserver_silicon::rng::splitmix64;

    /// The reference the store replaces: a plain `Vec`, searched
    /// linearly, shrunk by `swap_remove`.
    fn reference_remove(list: &mut Vec<Placement>, id: PlacementId) -> Option<Placement> {
        let idx = list.iter().position(|p| p.id == id)?;
        Some(list.swap_remove(idx))
    }

    #[test]
    fn store_order_matches_a_plain_vec_under_random_churn() {
        const NODES: u32 = 5;
        let mut store = PlacementStore::new(NODES as usize);
        let mut model: Vec<Placement> = Vec::new();
        let mut next = 0u32;
        let mut state = 17u64;
        for step in 0..2_000 {
            state = splitmix64(state);
            let node = NodeId((state >> 8) as u32 % NODES);
            match state % 4 {
                0 | 1 => {
                    let p = Placement {
                        id: PlacementId(u64::from(next)),
                        node,
                        vm: VmId(next),
                        class: SlaClass::Silver,
                    };
                    next += 1;
                    store.push(p.clone());
                    model.push(p);
                }
                2 if !model.is_empty() => {
                    let id = model[(state >> 32) as usize % model.len()].id;
                    assert_eq!(store.remove(id), reference_remove(&mut model, id), "step {step}");
                    assert_eq!(store.remove(id), None, "a removed id is gone");
                }
                _ if !model.is_empty() => {
                    let idx = (state >> 32) as usize % model.len();
                    let id = model[idx].id;
                    store.relocate(id, node, VmId(step));
                    model[idx].node = node;
                    model[idx].vm = VmId(step);
                }
                _ => {}
            }
            assert_eq!(store.all(), &model[..], "store order diverged at step {step}");
            for n in 0..NODES {
                let expected: Vec<&Placement> = model.iter().filter(|p| p.node.0 == n).collect();
                assert_eq!(store.on(NodeId(n)), expected, "node {n} diverged at step {step}");
                assert_eq!(store.count_on(NodeId(n)), expected.len());
            }
        }
        assert!(next > 500 && !model.is_empty(), "the churn must both grow and shrink the store");
    }
}
