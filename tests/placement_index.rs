//! Contract of the incremental placement index under churn: for any
//! rack, SLA-class mix, worker count and churn sequence (launches,
//! departures, ticks, crashes and failure-driven recovery), every
//! submit lands on the node the reference `Scheduler::place_linear`
//! scan picks over the same rack just before it, and a cluster ticking
//! on several workers behaves **identically** to one on a single
//! worker — placement for placement, metric for metric, reliability
//! for reliability. Debug builds also check every flushed index for
//! stale scores (`PlacementIndex::flush`), so any missed invalidation
//! panics here even when it would not change a decision.

use proptest::prelude::*;

use uniserver_cloudmgr::cluster::{Cluster, ClusterConfig};
use uniserver_cloudmgr::{Placement, SlaClass};
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
    let mut cluster = Cluster::build(&ClusterConfig::uniserver_rack(nodes), seed);
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
