//! Determinism contract of the placement-policy suite: for **every**
//! shipped policy — the energy/SLA reference, packing consolidation
//! with sleep states, and the reliability-blind ablation — a run's JSON
//! summary must be byte-identical for any worker count, and a cluster
//! ticking on several workers must behave identically to one on a
//! single worker under churn (launches, departures, ticks, crashes,
//! recovery, gray onset/quarantine/clear transitions and the
//! consolidation manage pass). Debug builds check every flushed
//! placement index for stale scores (`PlacementIndex::flush`), so the
//! churn also exercises each policy's index invalidation.

use proptest::prelude::*;

use uniserver_bench::cluster::summary_to_json;
use uniserver_cloudmgr::cluster::{Cluster, ClusterConfig};
use uniserver_cloudmgr::{GrayState, NodeId, NodePhase, PolicyKind, SlaClass};
use uniserver_hypervisor::vm::VmConfig;
use uniserver_orchestrator::{run, OrchestratorConfig};
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
/// raining corrected errors, placing through the given policy — the
/// contract must hold under crash events, predictor re-scores and
/// recovery, not just on clean racks.
fn policy_rack(nodes: usize, seed: u64, kind: PolicyKind) -> Cluster {
    let mut cluster = Cluster::build(&ClusterConfig::uniserver_rack(nodes), seed);
    cluster.set_policy(kind);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Whole-run byte stability: every policy's JSON summary is a pure
    /// function of the configuration, whatever the worker count.
    #[test]
    fn every_policy_summary_is_byte_identical_for_any_worker_count(
        seed in 0u64..200,
        nodes in 4usize..10,
        workers in 2usize..6,
    ) {
        for kind in PolicyKind::ALL {
            let mut config = OrchestratorConfig::smoke(nodes, seed);
            config.policy = kind;
            config.threads = 1;
            let sequential = run(&config);
            config.threads = workers;
            let sharded = run(&config);
            prop_assert_eq!(
                summary_to_json(&sequential, true),
                summary_to_json(&sharded, true),
                "{} diverged between 1 and {} workers", kind.label(), workers
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Worker-count invariance per policy under churn, decision by
    /// decision: every decide path — including the consolidation
    /// policy's band-keyed packing, sleep/wake transitions and the
    /// periodic manage pass — runs against a freshness-checked index.
    #[test]
    fn churn_is_worker_count_invariant_for_every_policy(
        seed in 0u64..500,
        nodes in 2usize..8,
        arrivals_per_round in 1u64..4,
        workers in 1usize..5,
    ) {
        for kind in PolicyKind::ALL {
            let mut sharded = policy_rack(nodes, seed, kind);
            sharded.set_workers(workers);
            let mut sequential = policy_rack(nodes, seed, kind);

            let mut submitted = 0u64;
            for round in 0..40u64 {
                for _ in 0..arrivals_per_round {
                    let class = class_of(submitted);
                    let a = sharded.submit(VmConfig::idle_guest(), class);
                    let b = sequential.submit(VmConfig::idle_guest(), class);
                    prop_assert_eq!(
                        &a, &b,
                        "{} submit diverged at round {}", kind.label(), round
                    );
                    submitted += 1;
                }
                if round % 3 == 2 {
                    if let Some(p) = sequential.placements().first().cloned() {
                        prop_assert_eq!(
                            sharded.terminate_by_id(p.id),
                            sequential.terminate_by_id(p.id),
                            "{} terminate diverged at round {}", kind.label(), round
                        );
                    }
                }
                // A gray transition on one node per round: onset on a
                // healthy awake node; then either the fault clears on
                // its own or the watchdog quarantines the node (with a
                // drain bite) and later readmits it. Each moves the
                // node's effective reliability or capacity, so
                // consolidation's cached-score pack walk must follow it.
                #[allow(clippy::cast_possible_truncation)]
                let id = NodeId(((seed + round) % nodes as u64) as u32);
                let node = &sequential.nodes()[id.0 as usize];
                prop_assert_eq!(node.phase(), sharded.nodes()[id.0 as usize].phase());
                if node.phase() == NodePhase::Online && !node.is_asleep() {
                    let gray = GrayState {
                        capacity_cap: 0.5,
                        ce_multiplier: 1.5,
                        clears_at_tick: round + 6,
                        quarantined: false,
                    };
                    sharded.mark_degraded(id, gray);
                    sequential.mark_degraded(id, gray);
                } else if node.is_quarantined() {
                    for cluster in [&mut sharded, &mut sequential] {
                        cluster.set_quarantined(id, false);
                        cluster.clear_degraded(id);
                    }
                } else if node.is_degraded() && round % 2 == 0 {
                    sharded.clear_degraded(id);
                    sequential.clear_degraded(id);
                } else if node.is_degraded() {
                    sharded.set_quarantined(id, true);
                    sequential.set_quarantined(id, true);
                    prop_assert_eq!(
                        sharded.drain_degraded(id, 2),
                        sequential.drain_degraded(id, 2),
                        "{} gray drain diverged at round {}", kind.label(), round
                    );
                }
                // The manage pass: parks, wakes and consolidation
                // drains must not depend on the worker count (a free
                // no-op for the non-managing policies).
                sharded.manage(round);
                sequential.manage(round);
                prop_assert_eq!(
                    sharded.power_stats(),
                    sequential.power_stats(),
                    "{} power accounting diverged at round {}", kind.label(), round
                );

                let ra = sharded.tick(Seconds::new(2.0));
                let rb = sequential.tick(Seconds::new(2.0));
                prop_assert_eq!(&ra, &rb, "{} tick diverged at round {}", kind.label(), round);
                let mut recovered = Vec::new();
                for (node, _) in &ra.crashes {
                    if !recovered.contains(node) {
                        recovered.push(*node);
                        let xa = sharded.recover_from_crash(*node);
                        let xb = sequential.recover_from_crash(*node);
                        prop_assert_eq!(
                            &xa.migrated, &xb.migrated,
                            "{} recovery diverged at round {}", kind.label(), round
                        );
                        prop_assert_eq!(
                            &xa.evicted, &xb.evicted,
                            "{} evictions diverged at round {}", kind.label(), round
                        );
                    }
                }
                prop_assert_eq!(
                    sharded.placements(),
                    sequential.placements(),
                    "{} placements diverged at round {}", kind.label(), round
                );
                prop_assert_eq!(
                    sharded.asleep_count(),
                    sequential.asleep_count(),
                    "{} sleep states diverged at round {}", kind.label(), round
                );
                prop_assert_eq!(
                    sharded.fleet_metrics(),
                    sequential.fleet_metrics(),
                    "{} fleet metrics diverged at round {}", kind.label(), round
                );
            }
            prop_assert!(submitted > 0);
        }
    }
}

/// Pinned regression for the ablation (the quarantine-worthy-node case
/// at whole-run scale): the blind policy must place *more* and crash
/// *no less* than the reference on the same degraded scenario — it
/// cannot see the predictor signal the reference filters on.
#[test]
fn blind_runs_differ_from_the_reference_on_the_same_seed() {
    let mut config = OrchestratorConfig::smoke(6, 2018);
    let reference = run(&config);
    config.policy = PolicyKind::ReliabilityBlind;
    let blind = run(&config);
    assert_eq!(reference.offered, blind.offered, "the policy must not change the stream");
    assert!(
        summary_to_json(&reference, false) != summary_to_json(&blind, false),
        "ignoring reliability must change the run"
    );
    assert_eq!(blind.policy.as_deref(), Some("reliability-blind"));
    assert!(blind.power.is_none(), "the ablation manages no power");
}
