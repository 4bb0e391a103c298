//! Micro-benchmarks of the hot building blocks.
//!
//! These quantify the design-choice costs DESIGN.md calls out: the real
//! SECDED codec on the DRAM path, per-interval node simulation, GA
//! virus evolution, predictor training/inference, scheduler placement
//! and the migration cost model.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;

use uniserver_cloudmgr::node::{ManagedNode, NodeId};
use uniserver_cloudmgr::{Scheduler, SlaClass};
use uniserver_hypervisor::vm::{Vm, VmConfig, VmId};
use uniserver_platform::node::ServerNode;
use uniserver_platform::part::PartSpec;
use uniserver_platform::workload::WorkloadProfile;
use uniserver_predictor::harness::TrainingHarness;
use uniserver_predictor::{FeatureVector, LogisticModel};
use uniserver_silicon::droop::DroopModel;
use uniserver_silicon::retention::RetentionModel;
use uniserver_silicon::Secded72;
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
    let scheduler = Scheduler::default();
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
    bench_ga,
    bench_predictor,
    bench_scheduler,
    bench_retention_math,
    bench_migration_cost,
);
criterion_main!(micro_benches);
