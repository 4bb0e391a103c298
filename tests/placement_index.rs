//! Contract of the incremental placement index under churn: for any
//! rack, SLA-class mix, worker count and churn sequence (launches,
//! departures, ticks, crashes and failure-driven recovery), every
//! submit lands on the node the reference `Scheduler::place_linear`
//! scan picks over the same rack just before it, and a cluster ticking
//! on several workers behaves **identically** to one on a single
//! worker — placement for placement, metric for metric, reliability
//! for reliability. For every policy, every submit matches a test-only
//! reference that scans the live rack through the policy's own
//! `admits` and a live weigh — no cached facts, no cached scores, no
//! reject memo — and `placements()` keeps the order of a plain `Vec`
//! shrunk by `swap_remove`. Debug builds also check every flushed index
//! for stale scores and facts (`PlacementIndex::flush`), re-run every
//! reject-memo hit, and check the placement store after every mutation,
//! so any missed invalidation panics here even when it would not change
//! a decision.

use proptest::prelude::*;

use uniserver_cloudmgr::cluster::{Cluster, ClusterConfig};
use uniserver_cloudmgr::{
    GrayState, ManagedNode, NodeId, NodePhase, Placement, PlacementDecision, PlacementId,
    PolicyKind, SlaClass,
};
use uniserver_hypervisor::vm::VmConfig;
use uniserver_platform::msr::DomainId;
use uniserver_units::Seconds;

fn class_of(i: u64) -> SlaClass {
    match i % 3 {
        0 => SlaClass::Gold,
        1 => SlaClass::Silver,
        _ => SlaClass::Bronze,
    }
}

/// A mixed-part rack with one node deep in its crash region and one
/// raining corrected errors — placement under crash events, predictor
/// re-scores, proactive migrations and recovery, not just clean racks.
fn degraded_rack(nodes: usize, seed: u64) -> Cluster {
    policy_rack(nodes, seed, PolicyKind::EnergySla)
}

/// [`degraded_rack`] placing through the given policy.
fn policy_rack(nodes: usize, seed: u64, kind: PolicyKind) -> Cluster {
    let config = ClusterConfig::uniserver_rack(nodes);
    let mut cluster = Cluster::build(&config, seed);
    cluster.set_policy(kind.build(config.scheduler));
    // Clamped to the MSR's 250 mV limit: the mixed rack can draw an i7
    // whose nominal voltage puts a 22 % offset past it.
    let deep = cluster.nodes()[0].hypervisor.node().part().offset_mv(0.22).min(250.0);
    cluster.nodes_mut()[0].hypervisor.node_mut().msr.set_voltage_offset_all(deep).unwrap();
    if nodes > 1 {
        cluster.nodes_mut()[1]
            .hypervisor
            .node_mut()
            .msr
            .set_refresh_interval(DomainId(1), Seconds::new(10.0))
            .unwrap();
    }
    cluster
}

/// Submits through the cluster's index and checks a successful submit
/// against the reference linear scan over the rack as it stood just
/// before it: the VM must sit on the scan's pick.
fn submit_checked(cluster: &mut Cluster, config: VmConfig, class: SlaClass) -> Option<Placement> {
    let expected = cluster.policy().scheduler().place_linear(cluster.nodes().iter(), &config, class);
    let placed = cluster.submit(config, class);
    if let Some(p) = &placed {
        assert_eq!(Some(p.node), expected, "the index diverged from the linear scan");
    }
    placed
}

fn assert_clusters_match(sharded: &Cluster, sequential: &Cluster, round: usize) {
    assert_eq!(sharded.placements(), sequential.placements(), "placements diverged at round {round}");
    assert_eq!(
        sharded.fleet_metrics(),
        sequential.fleet_metrics(),
        "fleet metrics diverged at round {round}"
    );
    for (a, b) in sharded.nodes().iter().zip(sequential.nodes()) {
        assert_eq!(a.reliability, b.reliability, "reliability diverged at round {round}");
        assert_eq!(a.metrics(), b.metrics(), "node metrics diverged at round {round}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn indexed_placement_equals_linear_scan_under_churn(
        seed in 0u64..500,
        nodes in 2usize..8,
        arrivals_per_round in 1u64..4,
        workers in 1usize..5,
    ) {
        let mut sharded = degraded_rack(nodes, seed);
        sharded.set_workers(workers);
        let mut sequential = degraded_rack(nodes, seed);

        let mut submitted = 0u64;
        for round in 0..50 {
            // Churn: a small arrival batch, mixed classes.
            for _ in 0..arrivals_per_round {
                let class = class_of(submitted);
                let a = submit_checked(&mut sharded, VmConfig::idle_guest(), class);
                let b = sequential.submit(VmConfig::idle_guest(), class);
                prop_assert_eq!(&a, &b, "submit diverged at round {}", round);
                submitted += 1;
            }
            // Departures: every third round, terminate the oldest
            // tracked placement (same id in both by induction).
            if round % 3 == 2 {
                if let Some(p) = sequential.placements().first().cloned() {
                    prop_assert_eq!(
                        sharded.terminate_by_id(p.id),
                        sequential.terminate_by_id(p.id),
                        "terminate diverged at round {}", round
                    );
                }
            }
            // Advance: one cluster shards across workers, the other
            // ticks on one — the worker count must be invisible.
            let ra = sharded.tick(Seconds::new(2.0));
            let rb = sequential.tick(Seconds::new(2.0));
            prop_assert_eq!(&ra, &rb, "tick report diverged at round {}", round);
            // Failure-driven recovery, once per crashed node.
            let mut recovered = Vec::new();
            for (node, _) in &ra.crashes {
                if !recovered.contains(node) {
                    recovered.push(*node);
                    let xa = sharded.recover_from_crash(*node);
                    let xb = sequential.recover_from_crash(*node);
                    prop_assert_eq!(&xa.migrated, &xb.migrated, "recovery diverged at round {}", round);
                    prop_assert_eq!(&xa.evicted, &xb.evicted, "evictions diverged at round {}", round);
                }
            }
            assert_clusters_match(&sharded, &sequential, round);
        }
        prop_assert!(submitted > 0);
    }
}

/// Pinned non-property regression: a rack of *identical-score* fresh
/// nodes must fill in the linear scan's order (the tie-break case the
/// latent `max_by` bug got wrong for re-ordered scans).
#[test]
fn tied_racks_fill_in_the_same_order() {
    let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(4), 7);
    for i in 0..12 {
        let placed = submit_checked(&mut cluster, VmConfig::idle_guest(), class_of(i));
        assert!(placed.is_some(), "submission {i} must place");
    }
    // First pick on an all-tied rack: the highest NodeId, explicitly.
    assert_eq!(cluster.placements()[0].node.0, 3);
}

/// The test-only reference decision: every node scanned live through
/// the installed policy's `admits` and a live `Scheduler::weigh` — no
/// cached facts, no cached scores, no reject memo. Spreading takes the
/// highest `(score, id)`; consolidation packs onto the highest
/// reliability band, then the lowest `(score, id)`, among awake healthy
/// nodes, and otherwise wakes the best-scored admitting sleeper.
fn reference_decision(
    cluster: &Cluster,
    kind: PolicyKind,
    config: &VmConfig,
    class: SlaClass,
) -> PlacementDecision {
    let policy = cluster.policy();
    let weigh = |n: &ManagedNode| policy.scheduler().weigh(n);
    let admitted = |asleep: bool| {
        cluster
            .nodes()
            .iter()
            .filter(move |n| n.is_asleep() == asleep && policy.admits(n, config, class))
    };
    let spread = |asleep: bool| {
        admitted(asleep)
            .map(|n| (weigh(n), n.id))
            .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)))
            .map(|(_, id)| id)
    };
    if kind != PolicyKind::Consolidate {
        return spread(false).map_or(PlacementDecision::Reject, PlacementDecision::Place);
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let band = |r: f64| ((r.clamp(0.0, 1.0) * 4.0).floor() as u8).min(3);
    let pack = admitted(false)
        .filter(|n| !n.is_degraded())
        .map(|n| (band(n.effective_reliability()), weigh(n), n.id))
        .min_by(|a, b| b.0.cmp(&a.0).then(a.1.partial_cmp(&b.1).unwrap()).then(a.2.cmp(&b.2)));
    match (pack, spread(true)) {
        (Some((_, _, id)), _) => PlacementDecision::Place(id),
        (None, Some(id)) => PlacementDecision::WakeAndPlace(id),
        (None, None) => PlacementDecision::Reject,
    }
}

/// Submits and checks the outcome against [`reference_decision`] over
/// the rack as it stood just before: a placement lands on the
/// reference's node, and nothing is placed only when the reference
/// rejects or the chosen node cannot take the launch.
fn submit_against_reference(
    cluster: &mut Cluster,
    kind: PolicyKind,
    config: &VmConfig,
    class: SlaClass,
) -> Option<Placement> {
    let expected = reference_decision(cluster, kind, config, class);
    let placed = cluster.submit(config.clone(), class);
    match (expected, &placed) {
        (PlacementDecision::Reject, None) => {}
        (PlacementDecision::Reject, Some(p)) => {
            panic!("{} placed {class} on {} where the reference rejects", kind.label(), p.node)
        }
        (PlacementDecision::Place(id) | PlacementDecision::WakeAndPlace(id), Some(p)) => {
            assert_eq!(p.node, id, "{} diverged from the reference at {class}", kind.label());
        }
        (PlacementDecision::Place(id) | PlacementDecision::WakeAndPlace(id), None) => {
            assert!(
                !cluster.nodes()[id.0 as usize].hypervisor.can_host(config),
                "{} placed nothing at {class} where the reference picks {id}",
                kind.label()
            );
        }
    }
    placed
}

/// One round of lifecycle churn on node `id`: crash and repair an
/// online node every seventh round, otherwise walk the gray lifecycle
/// (onset, then clear or quarantine with a drain bite, then readmit).
/// Asleep and offline nodes are left alone.
fn lifecycle_churn(cluster: &mut Cluster, id: NodeId, round: u64) {
    let node = &cluster.nodes()[id.0 as usize];
    if !node.is_online() || node.is_asleep() {
        return;
    }
    if round % 7 == 3 {
        cluster.mark_crashed(id);
        cluster.recover_from_crash(id);
        cluster.begin_repair(id, 2);
    } else if node.phase() == NodePhase::Online {
        let gray =
            GrayState { capacity_cap: 0.5, ce_multiplier: 1.5, clears_at_tick: 0, quarantined: false };
        cluster.mark_degraded(id, gray);
    } else if node.is_quarantined() {
        cluster.set_quarantined(id, false);
        cluster.clear_degraded(id);
    } else if round.is_multiple_of(2) {
        cluster.clear_degraded(id);
    } else {
        cluster.set_quarantined(id, true);
        cluster.drain_degraded(id, 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every submit of every policy, at 1 and 3 workers, under churn —
    /// arrival bursts that repeat rejected requests, departures, ticks,
    /// park/wake through the manage pass, gray onset/quarantine/clear
    /// and crash/repair/rejoin — equals the live reference scan.
    #[test]
    fn every_decision_equals_the_live_reference_scan(
        seed in 0u64..500,
        nodes in 2usize..7,
        arrivals_per_round in 2u64..6,
    ) {
        for kind in PolicyKind::ALL {
            for workers in [1, 3] {
                let mut cluster = policy_rack(nodes, seed, kind);
                cluster.set_workers(workers);
                let mut submitted = 0u64;
                for round in 0..36u64 {
                    // A burst cycling the classes, so a rejected request
                    // comes back unchanged while its memo may be live.
                    let config = if round % 4 == 1 {
                        VmConfig::ldbc_benchmark()
                    } else {
                        VmConfig::idle_guest()
                    };
                    for _ in 0..arrivals_per_round {
                        submit_against_reference(&mut cluster, kind, &config, class_of(submitted));
                        submitted += 1;
                    }
                    if round % 3 == 2 {
                        if let Some(p) = cluster.placements().first().cloned() {
                            prop_assert!(cluster.terminate_by_id(p.id));
                        }
                    }
                    #[allow(clippy::cast_possible_truncation)]
                    let id = NodeId(((seed + round) % nodes as u64) as u32);
                    lifecycle_churn(&mut cluster, id, round);
                    for ready in cluster.tick_repairs() {
                        cluster.complete_rejoin(ready);
                    }
                    cluster.manage(round, seed);
                    // A rejected request right after the manage pass: a
                    // park, wake or drain must have killed its memo.
                    submit_against_reference(&mut cluster, kind, &config, SlaClass::Gold);
                    let report = cluster.tick(Seconds::new(2.0));
                    let mut recovered = Vec::new();
                    for (node, _) in &report.crashes {
                        if !recovered.contains(node) {
                            recovered.push(*node);
                            cluster.recover_from_crash(*node);
                        }
                    }
                }
                prop_assert!(submitted > 0);
            }
        }
    }
}

/// Ids of `cluster.placements()`, in order.
fn ids(cluster: &Cluster) -> Vec<PlacementId> {
    cluster.placements().iter().map(|p| p.id).collect()
}

/// The order model: a plain `Vec` of ids, shrunk by `swap_remove`.
fn model_remove(model: &mut Vec<PlacementId>, id: PlacementId) {
    let pos = model.iter().position(|&m| m == id).expect("the model tracks the id");
    model.swap_remove(pos);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `placements()` keeps exactly the order of a plain `Vec` that
    /// appends each placement and `swap_remove`s each departure,
    /// crash-recovery eviction (victims Gold first, then in `Vec`
    /// order) and failed proactive relaunch, while migrations and
    /// drains move placements in place; `placements_on` is the
    /// per-node slice of that order.
    #[test]
    fn placements_keep_plain_vec_order_under_churn(
        seed in 0u64..500,
        nodes in 2usize..7,
        arrivals_per_round in 1u64..5,
    ) {
        for kind in PolicyKind::ALL {
            let mut cluster = policy_rack(nodes, seed, kind);
            let mut model: Vec<PlacementId> = Vec::new();
            let mut submitted = 0u64;
            for round in 0..40u64 {
                for _ in 0..arrivals_per_round {
                    if let Some(p) = cluster.submit(VmConfig::idle_guest(), class_of(submitted)) {
                        model.push(p.id);
                    }
                    submitted += 1;
                }
                if round % 3 == 2 && !model.is_empty() {
                    #[allow(clippy::cast_possible_truncation)]
                    let victim = model[(seed + round) as usize % model.len()];
                    prop_assert!(cluster.terminate_by_id(victim));
                    model_remove(&mut model, victim);
                }
                #[allow(clippy::cast_possible_truncation)]
                let id = NodeId(((seed + round) % nodes as u64) as u32);
                // Crash recovery's victims, in the order it visits them.
                let mut victims: Vec<Placement> =
                    cluster.placements().iter().filter(|p| p.node == id).cloned().collect();
                victims.sort_by_key(|p| p.class);
                let crashing = round % 7 == 3
                    && cluster.nodes()[id.0 as usize].is_online()
                    && !cluster.nodes()[id.0 as usize].is_asleep();
                if crashing {
                    cluster.mark_crashed(id);
                    let recovery = cluster.recover_from_crash(id);
                    for victim in &victims {
                        if recovery.evicted.iter().any(|e| e.id == victim.id) {
                            model_remove(&mut model, victim.id);
                        }
                    }
                    cluster.begin_repair(id, 2);
                } else {
                    lifecycle_churn(&mut cluster, id, round);
                }
                for ready in cluster.tick_repairs() {
                    cluster.complete_rejoin(ready);
                }
                cluster.manage(round, seed);
                let report = cluster.tick(Seconds::new(2.0));
                for lost in &report.evicted {
                    model_remove(&mut model, lost.id);
                }
                prop_assert_eq!(&ids(&cluster), &model, "{} order diverged at round {}", kind.label(), round);
                for n in cluster.nodes() {
                    let expected: Vec<&Placement> =
                        cluster.placements().iter().filter(|p| p.node == n.id).collect();
                    prop_assert_eq!(cluster.placements_on(n.id), expected);
                }
                // Natural crashes recover after the check, so their
                // evictions land in the model before the next round.
                let mut recovered = Vec::new();
                for (node, _) in &report.crashes {
                    if recovered.contains(node) {
                        continue;
                    }
                    recovered.push(*node);
                    let mut victims: Vec<Placement> =
                        cluster.placements().iter().filter(|p| p.node == *node).cloned().collect();
                    victims.sort_by_key(|p| p.class);
                    let recovery = cluster.recover_from_crash(*node);
                    for victim in &victims {
                        if recovery.evicted.iter().any(|e| e.id == victim.id) {
                            model_remove(&mut model, victim.id);
                        }
                    }
                }
                prop_assert_eq!(&ids(&cluster), &model, "{} recovery order diverged at round {}", kind.label(), round);
            }
        }
    }
}
