//! Ablation benchmarks for the design choices DESIGN.md calls out.
//!
//! Each group sweeps one knob and reports the throughput of the
//! corresponding pipeline at each setting; the *results* of the sweeps
//! (fatality counts, refresh-rate ratios, energy at each slack) are
//! printed once per run so `cargo bench` doubles as the ablation
//! experiment log.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;

use uniserver_faultinject::SdcCampaign;
use uniserver_hypervisor::protect::ProtectionPolicy;
use uniserver_platform::part::PartSpec;
use uniserver_platform::raidr::BinnedModule;
use uniserver_platform::workload::WorkloadProfile;
use uniserver_silicon::comparisons::{uniserver_vs_razor, RazorCore};
use uniserver_silicon::retention::RetentionModel;
use uniserver_stress::campaign::ShmooCampaign;
use uniserver_units::{Bytes, Celsius, Seconds};

/// Ablation 1 — selective protection coverage: how many categories to
/// shadow-protect (0, 3, 11) vs surviving fatalities.
fn ablation_protection(c: &mut Criterion) {
    let campaign = SdcCampaign { executions_per_object: 1, ..SdcCampaign::paper_campaign() };
    let mut g = c.benchmark_group("ablation_protection_coverage");
    g.sample_size(10);
    for k in [0usize, 3, 11] {
        let policy = ProtectionPolicy::top_categories(k);
        let fatalities = campaign.run(&policy).total_with_load();
        println!("[ablation] protection top-{k}: {fatalities} loaded fatalities");
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| black_box(campaign.run(&policy).total_with_load()));
        });
    }
    g.finish();
}

/// Ablation 2 — RAIDR retention-aware binning vs the paper's flat
/// relaxation: refresh operations relative to the 64 ms baseline.
fn ablation_raidr(c: &mut Criterion) {
    let retention = RetentionModel::ddr3_server();
    let candidates = [0.064, 1.0, 2.0, 4.0, 8.0].map(Seconds::new);
    let mut rng = StdRng::seed_from_u64(5);
    let module = BinnedModule::profile(
        &retention,
        Bytes::gib(8),
        &candidates,
        Celsius::new(45.0),
        &mut rng,
    );
    let flat = module.flat_equivalent_interval();
    println!(
        "[ablation] refresh ops vs 64 ms: flat@{flat} = {:.4}, RAIDR-binned = {:.4}",
        flat.ratio_to(Seconds::from_millis(64.0)).recip(),
        module.refresh_rate_vs(Seconds::from_millis(64.0))
    );
    let mut g = c.benchmark_group("ablation_raidr_profile");
    g.sample_size(10);
    g.bench_function("profile_8gb_module", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(5);
            black_box(BinnedModule::profile(
                &retention,
                Bytes::gib(8),
                &candidates,
                Celsius::new(45.0),
                &mut rng,
            ))
        });
    });
    g.finish();
}

/// The node-wide safe offset the StressLog would certify on a fresh
/// node of `seed` under `suite` at `slack_mv`: the weakest crash offset
/// of its shmoo (the paper's methodology at 200 ms dwell and one run)
/// less the slack.
fn node_safe_offset_mv(seed: u64, suite: &[WorkloadProfile], slack_mv: f64) -> f64 {
    let campaign =
        ShmooCampaign { dwell: Seconds::from_millis(200.0), runs: 1, ..ShmooCampaign::paper_methodology() };
    let shmoo = campaign.run(&PartSpec::arm_microserver(), seed, suite);
    let weakest = shmoo.runs.iter().map(|r| r.crash_offset_mv).fold(f64::MAX, f64::min);
    weakest - slack_mv
}

/// Ablation 3 — StressLog voltage slack: safety margin kept in reserve
/// vs the undervolt actually certified.
fn ablation_slack(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_voltage_slack");
    g.sample_size(10);
    // The StressLog's own suite.
    let suite = [WorkloadProfile::spec_bzip2(), uniserver_stress::kernels::droop_resonator()];
    for slack in [5.0f64, 15.0, 30.0] {
        println!(
            "[ablation] slack {slack} mV -> node-safe offset {:.0} mV",
            node_safe_offset_mv(41, &suite, slack)
        );
        g.bench_with_input(BenchmarkId::from_parameter(slack as u64), &slack, |b, &s| {
            b.iter(|| black_box(node_safe_offset_mv(41, &suite, s)));
        });
    }
    g.finish();
}

/// Ablation 4 — UniServer vs the Razor baseline at equal margin
/// knowledge (§5.A): relative energy per instruction.
fn ablation_razor(c: &mut Criterion) {
    let razor = RazorCore::razor_ii();
    for margin in [10.0f64, 15.0, 20.0] {
        let (us, rz) = uniserver_vs_razor(margin, &razor);
        println!(
            "[ablation] margin {margin}%: uniserver energy {us:.3}, razor energy {rz:.3} (rel. to conservative)"
        );
    }
    c.bench_function("ablation_razor_comparison", |b| {
        b.iter(|| black_box(uniserver_vs_razor(black_box(15.0), &razor)));
    });
}

/// Ablation 5 — workload suite size for characterization: SPEC-only vs
/// SPEC+viruses changes the certified margin (viruses bound it).
fn ablation_suite(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_stress_suite");
    g.sample_size(10);
    let spec_only = WorkloadProfile::spec2006_subset();
    let with_virus = {
        let mut v = spec_only.clone();
        v.extend(uniserver_stress::kernels::suite());
        v
    };
    for (label, suite) in [("spec_only", &spec_only), ("spec_plus_viruses", &with_virus)] {
        println!(
            "[ablation] suite {label}: node-safe offset {:.0} mV",
            node_safe_offset_mv(43, suite, 15.0)
        );
        g.bench_function(label, |b| {
            b.iter(|| black_box(node_safe_offset_mv(43, suite, 15.0)));
        });
    }
    g.finish();
}

criterion_group!(
    ablation_benches,
    ablation_protection,
    ablation_raidr,
    ablation_slack,
    ablation_razor,
    ablation_suite,
);
criterion_main!(ablation_benches);
