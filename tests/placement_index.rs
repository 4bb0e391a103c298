//! Equivalence contract of the incremental placement index: for any
//! rack, SLA-class mix, worker count and churn sequence (launches,
//! departures, ticks, crashes and failure-driven recovery), a cluster
//! placing through `PlacementIndex` must behave **identically** to one
//! placing through the reference `Scheduler::place_linear` scan —
//! placement for placement, metric for metric, reliability for
//! reliability. The index is a pure optimization; any divergence is a
//! missed invalidation.

use proptest::prelude::*;

use uniserver_cloudmgr::cluster::{Cluster, ClusterConfig};
use uniserver_cloudmgr::SlaClass;
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
fn degraded_rack(nodes: usize, seed: u64, linear: bool) -> Cluster {
    let mut cluster = Cluster::build(&ClusterConfig::uniserver_rack(nodes), seed);
    cluster.set_linear_placement(linear);
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

fn assert_clusters_match(indexed: &Cluster, linear: &Cluster, round: usize) {
    assert_eq!(indexed.placements(), linear.placements(), "placements diverged at round {round}");
    assert_eq!(
        indexed.fleet_metrics(),
        linear.fleet_metrics(),
        "fleet metrics diverged at round {round}"
    );
    for (a, b) in indexed.nodes().iter().zip(linear.nodes()) {
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
        let mut indexed = degraded_rack(nodes, seed, false);
        indexed.set_workers(workers);
        let mut linear = degraded_rack(nodes, seed, true);

        let mut submitted = 0u64;
        for round in 0..50 {
            // Churn: a small arrival batch, mixed classes.
            for _ in 0..arrivals_per_round {
                let class = class_of(submitted);
                let a = indexed.submit(VmConfig::idle_guest(), class);
                let b = linear.submit(VmConfig::idle_guest(), class);
                prop_assert_eq!(&a, &b, "submit diverged at round {}", round);
                submitted += 1;
            }
            // Departures: every third round, terminate the oldest
            // tracked placement (same id in both by induction).
            if round % 3 == 2 {
                if let Some(p) = linear.placements().first().cloned() {
                    prop_assert_eq!(
                        indexed.terminate_by_id(p.id),
                        linear.terminate_by_id(p.id),
                        "terminate diverged at round {}", round
                    );
                }
            }
            // Advance: the indexed cluster shards across workers, the
            // linear one ticks sequentially — placement routing and
            // worker count must both be invisible.
            let ra = indexed.tick(Seconds::new(2.0));
            let rb = linear.tick(Seconds::new(2.0));
            prop_assert_eq!(&ra, &rb, "tick report diverged at round {}", round);
            // Failure-driven recovery, once per crashed node.
            let mut recovered = Vec::new();
            for (node, _) in &ra.crashes {
                if !recovered.contains(node) {
                    recovered.push(*node);
                    let xa = indexed.recover_from_crash(*node);
                    let xb = linear.recover_from_crash(*node);
                    prop_assert_eq!(&xa.migrated, &xb.migrated, "recovery diverged at round {}", round);
                    prop_assert_eq!(&xa.evicted, &xb.evicted, "evictions diverged at round {}", round);
                }
            }
            assert_clusters_match(&indexed, &linear, round);
        }
        prop_assert!(submitted > 0);
    }
}

/// Pinned non-property regression: a rack of *identical-score* fresh
/// nodes must fill in the same order through both paths (the tie-break
/// case the latent `max_by` bug got wrong for re-ordered scans).
#[test]
fn tied_racks_fill_in_the_same_order() {
    let config = ClusterConfig::small_edge_site(4);
    let mut indexed = Cluster::build(&config, 7);
    let mut linear = Cluster::build(&config, 7);
    linear.set_linear_placement(true);
    for i in 0..12 {
        let a = indexed.submit(VmConfig::idle_guest(), class_of(i));
        let b = linear.submit(VmConfig::idle_guest(), class_of(i));
        assert_eq!(a, b, "submission {i} diverged");
        assert!(a.is_some(), "submission {i} must place");
    }
    // First pick on an all-tied rack: the highest NodeId, explicitly.
    assert_eq!(indexed.placements()[0].node.0, 3);
    assert_eq!(indexed.placements(), linear.placements());
}
