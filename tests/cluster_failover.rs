//! Failure-driven eviction and migration invariants of the cluster
//! layer, plus a pinned crash/migrate regression: whatever a crash does,
//! no placement survives on the crashed node, migrated VMs keep their
//! SLA class and stable placement id, and the books balance.

use proptest::prelude::*;

use uniserver_bench::cluster::summary_to_json;
use uniserver_cloudmgr::cluster::{Cluster, ClusterConfig};
use uniserver_cloudmgr::{NodeId, SlaClass};
use uniserver_hypervisor::vm::VmConfig;
use uniserver_orchestrator::{run, AdmissionPolicy, ChaosPlan, OrchestratorConfig};
use uniserver_units::Seconds;

fn class_of(i: u64) -> SlaClass {
    match i % 3 {
        0 => SlaClass::Gold,
        1 => SlaClass::Silver,
        _ => SlaClass::Bronze,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash recovery is total: every tracked placement leaves the
    /// crashed node, classes and ids are preserved on migration, and
    /// migrated + evicted exactly covers what was there.
    #[test]
    fn no_placement_survives_a_crashed_node(
        seed in 0u64..500,
        nodes in 2usize..6,
        vms in 1u64..12,
        crash_node in 0u32..6,
    ) {
        let mut cluster = Cluster::build(&ClusterConfig::uniserver_rack(nodes), seed);
        let mut placed = Vec::new();
        for i in 0..vms {
            if let Some(p) = cluster.submit(VmConfig::idle_guest(), class_of(seed + i)) {
                placed.push(p);
            }
        }
        let crashed = NodeId(crash_node % nodes as u32);
        let before: Vec<_> =
            cluster.placements_on(crashed).into_iter().cloned().collect();
        let recovery = cluster.recover_from_crash(crashed);

        prop_assert!(cluster.placements_on(crashed).is_empty(),
            "placements survived on {crashed}: {:?}", cluster.placements_on(crashed));
        prop_assert_eq!(recovery.migrated.len() + recovery.evicted.len(), before.len());

        for (moved, cost) in &recovery.migrated {
            prop_assert_ne!(moved.node, crashed);
            prop_assert!(cost.downtime <= cost.duration);
            let original = before.iter().find(|p| p.id == moved.id)
                .expect("migrated placement existed before the crash");
            prop_assert_eq!(original.class, moved.class, "SLA class must survive migration");
            let tracked = cluster.placements().iter().find(|p| p.id == moved.id)
                .expect("migrated placement stays tracked");
            prop_assert_eq!(tracked.node, moved.node);
            // The migrated VM actually lives on its new host.
            let host = cluster.nodes().iter().find(|n| n.id == moved.node).unwrap();
            prop_assert!(host.hypervisor.vm(moved.vm).is_some());
        }
        for lost in &recovery.evicted {
            prop_assert!(cluster.placements().iter().all(|p| p.id != lost.id),
                "evicted placement must be untracked");
        }
        let metrics = cluster.fleet_metrics();
        prop_assert_eq!(metrics.crash_migrations, recovery.migrated.len() as u64);
        prop_assert_eq!(metrics.evictions, recovery.evicted.len() as u64);

        // Recovery is idempotent: a second pass finds nothing to do.
        let again = cluster.recover_from_crash(crashed);
        prop_assert!(again.migrated.is_empty() && again.evicted.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under either chaos preset, any seed, any horizon (which moves
    /// the plan's rack, cooling, gray and brownout windows) and any
    /// worker count, the serving loop's books balance
    /// (`offered = placed + abandoned`,
    /// `placed = completed + evicted + live_at_end`) and the rendered
    /// summary is byte-identical across thread counts.
    #[test]
    fn chaos_accounting_ties_out_for_any_plan_and_worker_count(
        seed in 0u64..200,
        gray in 0u8..2,
        secs in 60u32..180,
    ) {
        let plan = if gray == 1 { ChaosPlan::GrayBrownout } else { ChaosPlan::RackAndFlash };
        let mut config = OrchestratorConfig::smoke(4, seed);
        config.horizon = Seconds::new(f64::from(secs));
        config.admission = AdmissionPolicy::GoldPriority;
        config.chaos = Some(plan);

        config.threads = 1;
        let a = run(&config);
        config.threads = 3;
        let b = run(&config);

        prop_assert_eq!(&a, &b, "worker count leaked into a chaos summary");
        prop_assert_eq!(
            summary_to_json(&a, true),
            summary_to_json(&b, true),
            "rendered chaos summaries must be byte-identical"
        );
        prop_assert_eq!(a.offered, a.placed + a.abandoned);
        prop_assert_eq!(a.placed, a.completed + a.evicted + a.live_at_end);

        let chaos = a.chaos.expect("an active plan must report an outcome");
        // Every crash offlines its node; the rack failure always hits
        // at least one online node.
        prop_assert!(chaos.nodes_offlined >= 1 || a.crashes == 0);
        prop_assert!(plan == ChaosPlan::GrayBrownout || chaos.injected_crashes >= 1);
        prop_assert!(chaos.downtime_secs >= 0.0);
        prop_assert!(chaos.availability <= 1.0);
        prop_assert_eq!(a.gray.is_some(), plan == ChaosPlan::GrayBrownout);
        // Per-class books tie out too, sheds included.
        for c in &a.per_class {
            prop_assert!(c.expired_at_horizon <= c.abandoned);
        }
    }
}

/// Pinned regression: a seeded 3-node rack runs a crash/migrate
/// sequence whose outcome is locked. If placement, migration ordering
/// or the part draw ever changes, this fails loudly rather than
/// silently shifting every downstream summary.
#[test]
fn pinned_three_node_crash_migrate_sequence() {
    let mut cluster = Cluster::build(&ClusterConfig::uniserver_rack(3), 2018);

    // Six idle guests round-robin over gold/silver/bronze.
    let placed: Vec<_> = (0..6)
        .filter_map(|i| cluster.submit(VmConfig::idle_guest(), class_of(i)))
        .collect();
    assert_eq!(placed.len(), 6, "all six idle guests fit a 3-node rack");
    let loads: Vec<usize> =
        (0..3).map(|n| cluster.placements_on(NodeId(n)).len()).collect();
    assert_eq!(loads.iter().sum::<usize>(), 6);
    // Pinned: the mixed rack's weigher (free capacity + energy score of
    // the drawn parts) shapes this exact spread for seed 2018.
    assert_eq!(loads, vec![2, 3, 1], "placement spread drifted from the pinned sequence");

    // Serve a few ticks, then crash node 0.
    for _ in 0..5 {
        cluster.tick(Seconds::new(1.0));
    }
    let recovery = cluster.recover_from_crash(NodeId(0));
    assert_eq!(recovery.migrated.len(), 2, "both guests of node 0 migrate");
    assert!(recovery.evicted.is_empty(), "two healthy nodes absorb two idle guests");
    // Gold-first ordering: the migrated list is sorted by class.
    let classes: Vec<SlaClass> = recovery.migrated.iter().map(|(p, _)| p.class).collect();
    let mut sorted = classes.clone();
    sorted.sort();
    assert_eq!(classes, sorted, "higher classes migrate first: {classes:?}");
    assert!(cluster.placements_on(NodeId(0)).is_empty());

    // A second crash on node 1 with fuller neighbours still clears it.
    let recovery = cluster.recover_from_crash(NodeId(1));
    assert!(cluster.placements_on(NodeId(1)).is_empty());
    let m = cluster.fleet_metrics();
    assert_eq!(
        m.crash_migrations + m.evictions,
        2 + (recovery.migrated.len() + recovery.evicted.len()) as u64
    );
    assert_eq!(cluster.placements().len(), 6 - m.evictions as usize);

    // The books and the downtime accounting stay consistent.
    assert!(m.migration_downtime.as_secs() >= 0.0);
    assert_eq!(m.rejected, 0);
}
