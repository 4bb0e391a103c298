//! Failure-injection integration: the error-resilience promises of §4,
//! exercised across platform, hypervisor and cloud layers.

use uniserver_hypervisor::hypervisor::Hypervisor;
use uniserver_hypervisor::vm::{VmConfig, VmId};
use uniserver_platform::dram::MemorySystem;
use uniserver_platform::msr::DomainId;
use uniserver_platform::node::ServerNode;
use uniserver_platform::part::PartSpec;
use uniserver_units::Seconds;

fn hv_with_guests(seed: u64, ecc: bool, guests: usize) -> Hypervisor {
    let node = ServerNode::with_memory(
        PartSpec::arm_microserver(),
        MemorySystem::commodity_server(ecc),
        seed,
    );
    let mut hv = Hypervisor::new(node);
    for _ in 0..guests {
        hv.launch_vm(VmConfig::ldbc_benchmark()).expect("guest fits");
    }
    hv
}

#[test]
fn ecc_turns_retention_failures_into_masked_events() {
    // Same degraded refresh; ECC on vs off decides whether guests see
    // corrected noise or VM-killing corruption.
    let mut with_ecc = hv_with_guests(5, true, 2);
    let mut without_ecc = hv_with_guests(5, false, 2);
    for hv in [&mut with_ecc, &mut without_ecc] {
        hv.node_mut().msr.set_refresh_interval(DomainId(1), Seconds::new(8.0)).unwrap();
    }
    let (mut masked_on, mut contained_on) = (0u64, 0u64);
    let (mut masked_off, mut contained_off) = (0u64, 0u64);
    for _ in 0..80 {
        let a = with_ecc.tick(Seconds::new(2.0));
        let b = without_ecc.tick(Seconds::new(2.0));
        masked_on += a.masked_corrected;
        contained_on += a.contained_uncorrected;
        masked_off += b.masked_corrected;
        contained_off += b.contained_uncorrected;
    }
    assert!(masked_on > 0, "ECC masks retention failures");
    assert_eq!(contained_on, 0, "nothing uncorrectable with single-bit failures + ECC");
    assert_eq!(masked_off, 0, "no ECC, no corrections");
    assert!(contained_off > 0, "without ECC the hypervisor must contain UEs");
    // Either way, the machine never goes down.
    assert_eq!(with_ecc.availability(), 1.0);
    assert_eq!(without_ecc.availability(), 1.0);
}

#[test]
fn page_retirement_is_monotone_and_persistent() {
    let mut hv = hv_with_guests(11, false, 1);
    hv.node_mut().msr.set_refresh_interval(DomainId(1), Seconds::new(9.0)).unwrap();
    let mut last = 0;
    for _ in 0..60 {
        hv.tick(Seconds::new(2.0));
        let now = hv.memory_retired_pages();
        assert!(now >= last, "retired pages must never un-retire");
        last = now;
    }
    assert!(last > 0, "the degraded domain must retire pages");
}

#[test]
fn repeated_crashes_accumulate_downtime_but_recover() {
    let mut hv = hv_with_guests(13, true, 1);
    let deep = hv.node().part().offset_mv(0.22);
    let mut crashes = 0;
    for round in 0..4 {
        hv.node_mut().msr.set_voltage_offset_all(deep).unwrap();
        let mut crashed = false;
        for _ in 0..40 {
            if hv.tick(Seconds::from_millis(500.0)).node_crashed {
                crashed = true;
                break;
            }
        }
        assert!(crashed, "round {round}: deep undervolt must crash");
        crashes += 1;
        // After the reboot the node must be serving again at nominal.
        assert!(!hv.tick(Seconds::new(1.0)).node_crashed);
        assert!(hv.vm(VmId(0)).is_some());
    }
    assert_eq!(hv.crashes(), crashes);
    assert!(hv.availability() < 1.0);
    assert!(hv.availability() > 0.0, "the node did serve between crashes");
}

#[test]
fn ce_storm_leads_to_bank_isolation_not_downtime() {
    // Undervolt into the cache CE window (but above the crash point):
    // the health pipeline should isolate the noisy bank(s) while the
    // node keeps serving.
    let mut hv = hv_with_guests(21, true, 1);
    // Find a depth that produces CEs without crashing: walk down slowly
    // and stop at the first CE burst.
    let nominal_mv = hv.node().part().nominal_voltage.as_millivolts();
    let mut offset = 0.04 * nominal_mv;
    let mut saw_ce = false;
    'outer: while offset < 0.09 * nominal_mv {
        hv.node_mut().msr.set_voltage_offset_all(offset).unwrap();
        for _ in 0..10 {
            let out = hv.tick(Seconds::from_millis(500.0));
            if out.node_crashed {
                break 'outer;
            }
            if out.masked_corrected > 0 {
                saw_ce = true;
                break 'outer;
            }
        }
        offset += 0.005 * nominal_mv;
    }
    if saw_ce {
        // Keep running at that depth; isolation should kick in and the
        // node must stay up.
        let before = hv.node().cache().active_banks();
        for _ in 0..120 {
            let out = hv.tick(Seconds::from_millis(500.0));
            if out.node_crashed {
                break;
            }
        }
        let after = hv.node().cache().active_banks();
        assert!(
            after <= before,
            "bank isolation can only reduce active banks ({before} -> {after})"
        );
        assert!(hv.masked_corrected_total() > 0);
    }
    // Whether or not this chip exposed a CE window above its crash
    // point, the run must not have destroyed the hypervisor.
    assert!(hv.vm(VmId(0)).is_some());
}

#[test]
fn cluster_survives_a_node_death_and_keeps_gold_available() {
    use uniserver_cloudmgr::cluster::{Cluster, ClusterConfig};
    use uniserver_cloudmgr::SlaClass;

    let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(3), 31);
    let gold = cluster.submit(VmConfig::ldbc_benchmark(), SlaClass::Gold).expect("placed");

    // Degrade the gold node's DRAM badly.
    let victim = gold.node;
    cluster
        .nodes_mut()
        .iter_mut()
        .find(|n| n.id == victim)
        .unwrap()
        .hypervisor
        .node_mut()
        .msr
        .set_refresh_interval(DomainId(1), Seconds::new(10.0))
        .unwrap();

    for _ in 0..90 {
        cluster.tick(Seconds::new(2.0));
    }
    let m = cluster.fleet_metrics();
    assert!(m.migrations >= 1, "gold must be proactively migrated");
    let gold_now =
        cluster.placements().iter().find(|p| p.class == SlaClass::Gold).expect("tracked");
    assert_ne!(gold_now.node, victim, "gold left the degraded node");
    assert_eq!(m.mean_availability, 1.0, "migration happened before any failure");
}
