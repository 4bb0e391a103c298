//! Micro-benchmarks of the hot building blocks.
//!
//! These quantify the design-choice costs DESIGN.md calls out: the real
//! SECDED codec on the DRAM path, per-interval node simulation, the
//! cluster tick at a cap of one and two workers (a 512-node nominal
//! rack, and a 64-node extended one whose ticks are mostly too small to
//! spread), the CE-storm record path (HealthLog ingest and the
//! hypervisor tick under a DRAM retention CE storm of counted records), GA virus evolution,
//! predictor training/inference, scheduler placement and the migration
//! cost model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;

use uniserver_cloudmgr::node::{ManagedNode, NodeId};
use uniserver_cloudmgr::{Cluster, ClusterConfig, Scheduler, SlaClass};
use uniserver_healthlog::HealthLog;
use uniserver_hypervisor::vm::{Vm, VmConfig, VmId};
use uniserver_hypervisor::Hypervisor;
use uniserver_orchestrator::{deploy_cluster, OrchestratorConfig};
use uniserver_platform::mca::{ErrorOrigin, MceRecord};
use uniserver_platform::msr::DomainId;
use uniserver_platform::node::ServerNode;
use uniserver_platform::part::PartSpec;
use uniserver_platform::workload::WorkloadProfile;
use uniserver_predictor::harness::TrainingHarness;
use uniserver_predictor::{FeatureVector, LogisticModel};
use uniserver_silicon::droop::DroopModel;
use uniserver_silicon::retention::RetentionModel;
use uniserver_silicon::{ErrorSeverity, FaultKind, Secded72};
use uniserver_stress::genetic::{evolve, GaConfig};
use uniserver_units::{Celsius, Seconds};

fn bench_secded(c: &mut Criterion) {
    let word = Secded72::encode(0xDEAD_BEEF_CAFE_F00D);
    c.bench_function("secded72_encode", |b| {
        b.iter(|| black_box(Secded72::encode(black_box(0xDEAD_BEEF_CAFE_F00D))));
    });
    c.bench_function("secded72_decode_clean", |b| {
        b.iter(|| black_box(Secded72::decode(black_box(word))));
    });
    let upset = Secded72::flip_bit(word, 17);
    c.bench_function("secded72_decode_correcting", |b| {
        b.iter(|| black_box(Secded72::decode(black_box(upset))));
    });
}

fn bench_node_tick(c: &mut Criterion) {
    let w = WorkloadProfile::spec_mcf();
    let dt = Seconds::from_millis(100.0);
    // Nominal voltage sits above every screened cache onset: the
    // interval steps over the onset math.
    let mut nominal = ServerNode::new(PartSpec::arm_microserver(), 7);
    c.bench_function("server_node_interval_nominal", |b| {
        b.iter(|| black_box(nominal.run_interval(&w, dt)));
    });
    // 2 % below nominal this die logs ~12 cache CEs per interval and
    // crashes about once in 500: the full onset and CE path.
    let mut undervolted = ServerNode::new(PartSpec::arm_microserver(), 7);
    let offset = undervolted.part().offset_mv(0.02);
    c.bench_function("server_node_interval_undervolted", |b| {
        b.iter(|| {
            if undervolted.is_crashed() {
                undervolted.reboot();
            }
            undervolted.msr.set_voltage_offset_all(offset).expect("offset within MSR limits");
            black_box(undervolted.run_interval(&w, dt))
        });
    });
    // 2 % below nominal on a strong die (over 10 % of crash margin):
    // under the screened onset, so every bank takes the bounded onset
    // path, yet far above the die's crash point and cache onset, so the
    // bounds rule out every crash and CE.
    let mut quiet = ServerNode::new(PartSpec::arm_microserver(), 4);
    let offset = quiet.part().offset_mv(0.02);
    quiet.msr.set_voltage_offset_all(offset).expect("offset within MSR limits");
    c.bench_function("server_node_interval_extended_quiet", |b| {
        b.iter(|| black_box(quiet.run_interval(&w, dt)));
    });
}

fn bench_cluster_tick(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster_tick_512_nominal");
    g.sample_size(10);
    for workers in [1, 2] {
        // The mixed rack at nominal margins with one guest per node:
        // quiet nodes, where the per-node phase is mostly platform.
        let mut cluster = Cluster::build(&ClusterConfig::uniserver_rack(512), 2018);
        for _ in 0..512 {
            cluster.submit(VmConfig::idle_guest(), SlaClass::Bronze);
        }
        cluster.set_workers(workers);
        g.bench_function(BenchmarkId::new("workers", workers), |b| {
            b.iter(|| black_box(cluster.tick(Seconds::new(5.0))));
        });
    }
    g.finish();
    let mut g = c.benchmark_group("cluster_tick_64_extended");
    g.sample_size(100);
    for workers in [1, 2] {
        // The soak rack: 64 mixed nodes deployed at their Extended
        // Operating Points, one guest each. Its per-tick node work is
        // about what one spawn and join cost, so at a cap of two most
        // ticks should run on the calling thread.
        let (mut cluster, ..) = deploy_cluster(&OrchestratorConfig::datacenter(64, 2018));
        for _ in 0..64 {
            cluster.submit(VmConfig::ldbc_benchmark(), SlaClass::Bronze);
        }
        cluster.set_workers(workers);
        // Settle the fan-out decision first: the opening ticks fan out
        // at the cap to sample the spawn cost.
        for _ in 0..16 {
            cluster.tick(Seconds::new(5.0));
        }
        g.bench_function(BenchmarkId::new("workers", workers), |b| {
            b.iter(|| black_box(cluster.tick(Seconds::new(5.0))));
        });
    }
    g.finish();
}

fn bench_ce_storm(c: &mut Criterion) {
    // One 5 s interval of a DRAM retention CE storm, the kind extended
    // margins cause on a hot node's relaxed refresh domain: ~470
    // corrected errors, nearly all on the two relaxed-domain DIMMs, as
    // the counted records the node reports (one per DIMM, one per cache
    // bank). The log is already warm: the bank is past the isolation
    // threshold, and the DIMM errors, which memory contains by page
    // retirement, count only as events and in the CE rate.
    let dt = Seconds::new(5.0);
    let mut node = ServerNode::new(PartSpec::arm_microserver(), 7);
    let mut template = node.run_interval(&WorkloadProfile::idle(), dt);
    let mut at = template.at;
    let record = |kind, origin, count| MceRecord {
        at,
        kind,
        severity: ErrorSeverity::Corrected,
        origin,
        count,
    };
    template.errors = vec![
        record(FaultKind::DramBit, ErrorOrigin::Dimm { dimm: 2, word: 0x1f3a7 }, 241),
        record(FaultKind::DramBit, ErrorOrigin::Dimm { dimm: 3, word: 0x2b0c9 }, 226),
        record(FaultKind::CacheBit, ErrorOrigin::CacheBank(5), 3),
    ];
    let mut health = HealthLog::new();
    let mut interval = || {
        let mut report = template.clone();
        at = at + dt;
        report.at = at;
        report
    };
    for _ in 0..16 {
        health.ingest_owned(interval());
    }
    c.bench_function("healthlog_ingest_ce_storm", |b| {
        b.iter(|| black_box(health.ingest_owned(interval()).len()));
    });
    // One guest on an ECC node whose relaxed domain refreshes every 8 s
    // at a 30 °C inlet: several hundred DRAM CEs per 5 s tick, so each
    // tick runs the counted containment, the ingest and the cached
    // advice; the DIMM errors are left to page retirement.
    let mut hv = Hypervisor::new(ServerNode::new(PartSpec::arm_microserver(), 7));
    hv.launch_vm(VmConfig::ldbc_benchmark()).expect("one guest fits");
    hv.node_mut().set_ambient(Celsius::new(30.0));
    hv.node_mut()
        .msr
        .set_refresh_interval(DomainId(1), Seconds::new(8.0))
        .expect("refresh within controller range");
    c.bench_function("hypervisor_tick_ce_storm", |b| {
        b.iter(|| black_box(hv.tick(dt)));
    });
}

fn bench_ga(c: &mut Criterion) {
    let mut g = c.benchmark_group("genetic_virus");
    g.sample_size(10);
    let pdn = DroopModel::typical_server_pdn();
    g.bench_function("evolve_quick", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            black_box(evolve(&GaConfig::quick(), &pdn, &mut rng))
        });
    });
    g.finish();
}

fn bench_predictor(c: &mut Criterion) {
    let data = TrainingHarness::quick().generate(1);
    let mut g = c.benchmark_group("predictor");
    g.sample_size(10);
    g.bench_function("logistic_fit_100_epochs", |b| {
        b.iter(|| black_box(LogisticModel::fit(&data, 100, 0.5)));
    });
    g.finish();
    let model = LogisticModel::fit(&data, 100, 0.5);
    let f = FeatureVector::from_observables(0.1, 0.5, Celsius::new(26.0), 0.0);
    c.bench_function("logistic_predict", |b| {
        b.iter(|| black_box(model.predict_proba(black_box(&f))));
    });
}

fn bench_scheduler(c: &mut Criterion) {
    let nodes: Vec<ManagedNode> = (0..32)
        .map(|i| ManagedNode::provision(NodeId(i), PartSpec::arm_microserver(), u64::from(i)))
        .collect();
    let scheduler = Scheduler::BALANCED;
    let cfg = VmConfig::ldbc_benchmark();
    c.bench_function("scheduler_place_32_nodes", |b| {
        b.iter(|| black_box(scheduler.place_linear(nodes.iter(), &cfg, SlaClass::Silver)));
    });
}

fn bench_retention_math(c: &mut Criterion) {
    let m = RetentionModel::ddr3_server();
    c.bench_function("retention_fail_probability", |b| {
        b.iter(|| black_box(m.fail_probability(black_box(Seconds::new(5.0)), Celsius::new(45.0))));
    });
    c.bench_function("retention_max_safe_refresh", |b| {
        b.iter(|| black_box(m.max_safe_refresh(Celsius::new(45.0), 1 << 36, 0.1)));
    });
}

fn bench_migration_cost(c: &mut Criterion) {
    let model = uniserver_cloudmgr::migrate::MigrationModel::ten_gbe();
    let mut vm = Vm::launch(VmId(0), VmConfig::ldbc_benchmark());
    vm.advance(Seconds::new(60.0));
    c.bench_function("migration_cost_model", |b| {
        b.iter(|| black_box(model.cost(black_box(&vm))));
    });
}

criterion_group!(
    micro_benches,
    bench_secded,
    bench_node_tick,
    bench_cluster_tick,
    bench_ce_storm,
    bench_ga,
    bench_predictor,
    bench_scheduler,
    bench_retention_math,
    bench_migration_cost,
);
criterion_main!(micro_benches);
