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

#[test]
fn fleet_summary_json_is_bit_stable() {
    // The fleet driver's contract: same seed → byte-identical aggregated
    // JSON, for any worker count (parallelism must not leak into results).
    use uniserver_bench::fleet::{simulate, FleetConfig};

    let config = FleetConfig {
        horizon: Seconds::new(20.0),
        ..FleetConfig::quick(6, 2018)
    };
    let first = simulate(&config).to_json();
    let second = simulate(&config).to_json();
    assert_eq!(first, second, "same config must render identical JSON");

    let serial = simulate(&FleetConfig { threads: 1, ..config.clone() }).to_json();
    let wide = simulate(&FleetConfig { threads: 5, ..config }).to_json();
    assert_eq!(first, serial, "thread count must not change the summary");
    assert_eq!(first, wide, "uneven shards must not change the summary");

    // And the seed genuinely matters.
    let other = simulate(&FleetConfig {
        horizon: Seconds::new(20.0),
        ..FleetConfig::quick(6, 2019)
    })
    .to_json();
    assert_ne!(first, other, "different fleet seeds must differ");
}

#[test]
fn heterogeneous_fleet_json_is_bit_stable_across_threads() {
    // Heterogeneity (part mix, guest mixes, ambient spread) and the
    // shared training cache must not open any schedule dependence: every
    // per-node draw is a pure function of the node seed, and training is
    // a pure function of the part.
    use uniserver_bench::fleet::{simulate, FleetConfig};

    let config = FleetConfig {
        horizon: Seconds::new(15.0),
        threads: 1,
        ..FleetConfig::mixed(10, 2018)
    };
    let serial = simulate(&config).to_json();
    let wide = simulate(&FleetConfig { threads: 7, ..config.clone() }).to_json();
    assert_eq!(serial, wide, "thread count must not change the mixed-fleet summary");
    assert!(serial.contains("\"per_part\":["), "summary carries per-part aggregates");

    let other_seed = simulate(&FleetConfig {
        horizon: Seconds::new(15.0),
        threads: 1,
        ..FleetConfig::mixed(10, 2019)
    })
    .to_json();
    assert_ne!(serial, other_seed, "different fleet seeds must differ");
}
