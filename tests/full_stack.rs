//! Full-stack integration: the whole UniServer lifecycle across every
//! crate, driven only through public APIs.

use uniserver_core::ecosystem::{DeploymentConfig, Ecosystem};
use uniserver_units::Seconds;

#[test]
fn deploy_serve_recharacterize_loop() {
    let mut eco = Ecosystem::deploy(&DeploymentConfig::quick(), 4242);
    let initial_point = eco.operating_point().clone();
    assert!(initial_point.min_offset_mv() > 0.0, "deployment must reach an EOP");

    for _ in 0..180 {
        eco.run(Seconds::new(1.0));
    }
    let report = eco.savings_report();
    assert_eq!(report.crashes, 0, "EOP operation must be crash-free");
    assert_eq!(report.availability, 1.0);
    assert!(
        report.energy_saving_fraction > 0.03,
        "EOP must save energy, got {:.4}",
        report.energy_saving_fraction
    );

    // The closing of the loop: an explicit re-characterization keeps the
    // system serving and produces a fresh, still-nonzero EOP.
    eco.recharacterize();
    assert!(eco.operating_point().min_offset_mv() > 0.0);
    for _ in 0..30 {
        eco.run(Seconds::new(1.0));
    }
    assert_eq!(eco.savings_report().crashes, 0);
}

#[test]
fn ecosystem_state_is_reproducible() {
    let run = |seed: u64| {
        let mut eco = Ecosystem::deploy(&DeploymentConfig::quick(), seed);
        for _ in 0..60 {
            eco.run(Seconds::new(1.0));
        }
        let r = eco.savings_report();
        (eco.operating_point().clone(), r.eop_energy, r.crashes)
    };
    assert_eq!(run(7), run(7), "same seed, same trajectory");
    let (point_a, ..) = run(7);
    let (point_b, ..) = run(8);
    assert_ne!(point_a, point_b, "different chips get different EOPs");
}

#[test]
fn margins_flow_from_stresslog_through_hypervisor() {
    use uniserver_hypervisor::hypervisor::Hypervisor;
    use uniserver_hypervisor::vm::VmConfig;
    use uniserver_platform::node::ServerNode;
    use uniserver_platform::part::PartSpec;
    use uniserver_platform::msr::DomainId;

    let mut node = ServerNode::new(PartSpec::arm_microserver(), 99);
    let margins = uniserver_stresslog::characterize(&mut node);
    let mut hv = Hypervisor::new(node);
    hv.launch_vm(VmConfig::ldbc_benchmark()).expect("guest fits");
    hv.apply_margins(&margins);

    // The MSRs now reflect the margins (clamped to hardware limits).
    for core in 0..hv.node().core_count() {
        let applied = hv.node().msr.voltage_offset_mv(core);
        let advertised = margins.per_core_safe_offset_mv[core].min(250.0);
        assert!((applied - advertised).abs() < 1e-9, "core {core}: {applied} vs {advertised}");
    }
    assert_eq!(hv.node().msr.refresh_interval(DomainId(1)), margins.safe_refresh);
    assert_eq!(
        hv.node().msr.refresh_interval(DomainId(0)),
        Seconds::from_millis(64.0),
        "the reliable domain is pinned at nominal"
    );

    // And the node survives a sustained run there.
    for _ in 0..120 {
        assert!(!hv.tick(Seconds::new(1.0)).node_crashed);
    }
}

#[test]
fn healthlog_feeds_cloud_failure_prediction() {
    use uniserver_cloudmgr::FailurePredictor;
    use uniserver_healthlog::HealthLog;
    use uniserver_platform::node::ServerNode;
    use uniserver_platform::part::PartSpec;
    use uniserver_platform::workload::WorkloadProfile;

    // A node driven over its crash point produces a health log whose
    // pattern score collapses the predicted reliability.
    let mut node = ServerNode::new(PartSpec::arm_microserver(), 17);
    let mut health = HealthLog::new();
    node.msr.set_voltage_offset_all(node.part().offset_mv(0.22)).unwrap();
    let w = WorkloadProfile::spec_zeusmp();
    loop {
        let report = node.run_interval(&w, Seconds::from_millis(200.0));
        let crashed = report.crash.is_some();
        health.ingest_owned(report);
        if crashed {
            break;
        }
    }
    let predictor = FailurePredictor::new();
    let r = predictor.reliability(&health);
    assert!(predictor.predicts_failure(r), "crash log must predict failure, got {r}");
}
