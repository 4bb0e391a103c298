//! Determinism contract of the sharded serving tick: on a degraded rack
//! — crash events present — `Cluster::tick` with any worker count
//! (`Cluster::set_workers`) must match the single-threaded tick, report
//! for report, metric for metric. Shard boundaries may never leak into energy sums
//! (index-ordered float reduction), crash-event ordering
//! (`(node index, event order)`) or predictor scores.

use proptest::prelude::*;

use uniserver_cloudmgr::cluster::{Cluster, ClusterConfig};
use uniserver_cloudmgr::SlaClass;
use uniserver_hypervisor::vm::VmConfig;
use uniserver_platform::msr::DomainId;
use uniserver_units::Seconds;

fn degraded_cluster(nodes: usize, seed: u64, vms: u64) -> Cluster {
    let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(nodes), seed);
    for i in 0..vms {
        let class = match i % 3 {
            0 => SlaClass::Gold,
            1 => SlaClass::Silver,
            _ => SlaClass::Bronze,
        };
        cluster.submit(VmConfig::idle_guest(), class);
    }
    // Node 0 deep in its crash region (service crash events), node 1's
    // relaxed DRAM noisy with corrected errors (predictor re-scores and
    // proactive migrations) — the degraded rack the reduce must keep
    // deterministic.
    let deep = cluster.nodes()[0].hypervisor.node().part().offset_mv(0.22);
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_tick_equals_sequential_for_any_worker_count(
        seed in 0u64..300,
        nodes in 2usize..7,
        vms in 1u64..8,
        workers in 2usize..6,
    ) {
        let mut seq = degraded_cluster(nodes, seed, vms);
        let mut par = degraded_cluster(nodes, seed, vms);
        par.set_workers(workers);
        let mut crash_events = 0usize;
        for tick in 0..60 {
            let a = seq.tick(Seconds::new(1.0));
            let b = par.tick(Seconds::new(1.0));
            prop_assert_eq!(&a, &b, "tick {} diverged at {} workers", tick, workers);
            crash_events += a.crashes.len();
            // Stop a few ticks after the first crash: the interesting
            // recovery + backoff behaviour has been compared by then.
            if crash_events > 0 && tick >= 40 {
                break;
            }
        }
        prop_assert!(crash_events > 0,
            "a 22 % undervolt must surface crash events within 60 ticks");
        prop_assert_eq!(seq.fleet_metrics(), par.fleet_metrics());
        prop_assert_eq!(seq.placements(), par.placements());
        for (a, b) in seq.nodes().iter().zip(par.nodes()) {
            prop_assert_eq!(a.reliability, b.reliability, "predictor write-back diverged");
            prop_assert_eq!(a.metrics(), b.metrics());
        }
    }
}

/// Zero workers (one per core, as `--threads 0` requests) and counts far
/// past the node and core counts both clamp, and still equal the
/// single-threaded tick.
#[test]
fn zero_and_oversubscribed_worker_counts_equal_sequential() {
    for workers in [0, 64] {
        let mut seq = degraded_cluster(5, 17, 6);
        let mut par = degraded_cluster(5, 17, 6);
        par.set_workers(workers);
        for tick in 0..30 {
            let a = seq.tick(Seconds::new(1.0));
            let b = par.tick(Seconds::new(1.0));
            assert_eq!(a, b, "tick {tick} diverged at {workers} workers");
        }
        assert_eq!(seq.fleet_metrics(), par.fleet_metrics());
        assert_eq!(seq.placements(), par.placements());
    }
}
