//! Reproducibility: every experiment is a pure function of its seed.
//! This is what makes the reproduction's numbers auditable — rerunning
//! `repro` on another machine prints byte-identical tables.

use uniserver_units::Seconds;

#[test]
fn repro_reports_are_bit_stable() {
    // The cheap artefacts, rendered twice.
    assert_eq!(uniserver_bench::experiments::table1(9), uniserver_bench::experiments::table1(9));
    assert_eq!(uniserver_bench::experiments::table3(), uniserver_bench::experiments::table3());
    assert_eq!(uniserver_bench::experiments::fig1(9), uniserver_bench::experiments::fig1(9));
    assert_eq!(uniserver_bench::experiments::edge(), uniserver_bench::experiments::edge());
    assert_eq!(
        uniserver_bench::experiments::margins(9),
        uniserver_bench::experiments::margins(9)
    );
}

#[test]
fn seeds_actually_matter() {
    assert_ne!(uniserver_bench::experiments::fig1(1), uniserver_bench::experiments::fig1(2));
    assert_ne!(
        uniserver_bench::experiments::margins(1),
        uniserver_bench::experiments::margins(2)
    );
}

#[test]
fn shmoo_and_injection_campaigns_are_stable() {
    use uniserver_faultinject::SdcCampaign;
    use uniserver_hypervisor::protect::ProtectionPolicy;
    use uniserver_platform::part::PartSpec;
    use uniserver_platform::workload::WorkloadProfile;
    use uniserver_stress::campaign::ShmooCampaign;

    let campaign = ShmooCampaign {
        dwell: Seconds::from_millis(200.0),
        runs: 1,
        ..ShmooCampaign::paper_methodology()
    };
    let w = vec![WorkloadProfile::spec_bzip2()];
    assert_eq!(
        campaign.run(&PartSpec::i5_4200u(), 3, &w),
        campaign.run(&PartSpec::i5_4200u(), 3, &w)
    );

    let sdc = SdcCampaign { executions_per_object: 1, ..SdcCampaign::paper_campaign() };
    assert_eq!(sdc.run(&ProtectionPolicy::none()), sdc.run(&ProtectionPolicy::none()));
}

#[test]
fn cross_crate_seed_isolation() {
    // Consuming randomness in one subsystem must not perturb another:
    // nodes own their RNG streams.
    use uniserver_platform::node::ServerNode;
    use uniserver_platform::part::PartSpec;
    use uniserver_platform::workload::WorkloadProfile;

    let mut a1 = ServerNode::new(PartSpec::arm_microserver(), 4);
    let mut a2 = ServerNode::new(PartSpec::arm_microserver(), 4);
    // Interleave a *different* node's activity between a2's intervals.
    let mut noise = ServerNode::new(PartSpec::i7_3970x(), 5);
    let w = WorkloadProfile::spec_milc();
    for _ in 0..10 {
        let r1 = a1.run_interval(&w, Seconds::from_millis(250.0));
        let _ = noise.run_interval(&w, Seconds::from_millis(250.0));
        let r2 = a2.run_interval(&w, Seconds::from_millis(250.0));
        assert_eq!(r1, r2, "interleaved activity must not change a node's trajectory");
        assert_eq!(a1.last_sensors(), a2.last_sensors(), "nor its sensor sweep");
    }
}
