//! Golden behaviour lock: the cluster simulator's deterministic
//! artefacts are pinned to committed digests, not only to each other
//! across worker counts.
//!
//! The matrix is 64 nodes × 15 simulated minutes × {flat, flash, chaos,
//! gray} × every placement policy × {extended, nominal} margins, each at
//! 1 and 3 workers. Every run hashes the summary JSON (the exact render
//! `fleet_sim --cluster` prints), the metrics registry (the exact
//! `--metrics-out` body) and the NDJSON event trace (the exact
//! `--trace-out` body) with 64-bit FNV-1a, and all three digests must
//! equal the committed row. A behaviour change that is identical at every
//! thread count therefore still fails here.
//!
//! Every `repro` paper artefact, and the `repro validate` scoreboard, is
//! pinned the same way: the digest of each report's text at the paper
//! seed.
//!
//! On a mismatch the failure names each scenario and prints its new
//! table row. A change that is *meant* to move the output replaces the
//! rows in [`GOLDEN`] with the printed ones, and says so in its commit.

use uniserver_bench::cluster::{scenario as fleet_sim_scenario, summary_to_json, Profile};
use uniserver_bench::experiments;
use uniserver_orchestrator::{
    run_with_telemetry, MarginPolicy, MetricsRegistry, OrchestratorConfig, PolicyKind, Telemetry,
    TraceSink,
};

const NODES: usize = 64;
const SEED: u64 = 2018;
const HORIZON_SECS: f64 = 900.0;
const THREADS: [usize; 2] = [1, 3];

/// `(profile/policy/margins, summary digest, metrics digest, trace digest)`.
const GOLDEN: [(&str, u64, u64, u64); 24] = [
    ("flat/energy-sla/extended", 0x4716b53d4f6008cd, 0x1bb27a25ab55af1f, 0x64c57bfc95fd223a),
    ("flat/energy-sla/nominal", 0x49b596bf1b5dcb0f, 0x82262d828cd5d569, 0x9126d9753a6eb36a),
    ("flat/consolidate/extended", 0xae8c072c6f276ec2, 0x147dfe6f7dc6ecbe, 0x7ee51f7de7aa97e3),
    ("flat/consolidate/nominal", 0x2a527bb8020511c8, 0x94f374270953d00f, 0xe2e215943f0cfaa2),
    ("flat/reliability-blind/extended", 0x1d0cb285f4eb1c16, 0xe4fe9191208c72c6, 0xf17391b4c1bcd03d),
    ("flat/reliability-blind/nominal", 0xe83437aa2dfdf0ad, 0x82262d828cd5d569, 0x9126d9753a6eb36a),
    ("flash/energy-sla/extended", 0x6a71907afa06c773, 0x97be7331004c7372, 0xacc03f99769aaf78),
    ("flash/energy-sla/nominal", 0x13fff7f3354d07a9, 0x694da2c88cd27add, 0x85872a4a9ed1c01b),
    ("flash/consolidate/extended", 0xe244b5890ec0be7d, 0xf712b210e1fafe47, 0xaf40c15dd24fa3a0),
    ("flash/consolidate/nominal", 0xaa19266c363df6bf, 0x0cb11b9efe3dcbfc, 0xe2ffdda1891afefe),
    ("flash/reliability-blind/extended", 0x984483e20c07232b, 0xf4a68f033d06b056, 0xee5200dcc9f5c1cd),
    ("flash/reliability-blind/nominal", 0xfa1b0c95974124f7, 0x694da2c88cd27add, 0x85872a4a9ed1c01b),
    ("chaos/energy-sla/extended", 0xc2068fcfe9c2cedc, 0x6827ac405d8b8ace, 0x94dfb2e596f6827f),
    ("chaos/energy-sla/nominal", 0xf4d84c5dfc44d41a, 0xe2bf680f470dda15, 0xc61a7582cd8fb51b),
    ("chaos/consolidate/extended", 0x4024b6f0e6d30ed1, 0x46a287f6accf9688, 0x0bb83b7d9c665c83),
    ("chaos/consolidate/nominal", 0xcfda1662f291afc7, 0xc0131f39f99447fe, 0x55652e466b5f9bb7),
    ("chaos/reliability-blind/extended", 0x78878dba10eda015, 0x5a9808a57a18b710, 0xb58c4b4151f7fb78),
    ("chaos/reliability-blind/nominal", 0x3ab01a994f202cf0, 0xe2bf680f470dda15, 0xc61a7582cd8fb51b),
    ("gray/energy-sla/extended", 0xa9eea608f1228f6f, 0x7226146630b07dd6, 0xa660afa046cecc9a),
    ("gray/energy-sla/nominal", 0x73add9728dff3a1b, 0x1012b043384c5fd8, 0xf78c3afa6306f651),
    ("gray/consolidate/extended", 0x6713e45164b82b60, 0x84814d3187c75e88, 0x273d7b7a0ef1dd55),
    ("gray/consolidate/nominal", 0xd716f7d0eaf79433, 0x8b67fd797930f144, 0xbe27442e97ecf194),
    ("gray/reliability-blind/extended", 0x7eae6415f645b28c, 0x93ca0b8b914c52c4, 0x9593bfc79a4bee72),
    ("gray/reliability-blind/nominal", 0x2c7424b2927414f5, 0x0155c4cffc2ac6e6, 0xc47244744464ef69),
];

/// `(repro artefact, report digest)` at [`SEED`].
const REPRO_GOLDEN: [(&str, u64); 13] = [
    ("table1", 0xcb60e91dc801301a),
    ("table2", 0x86606035cdd59160),
    ("table3", 0x385b2784bfbcdb1d),
    ("fig1", 0x3582c01a57a31963),
    ("fig2", 0xa6892899814dc21a),
    ("fig3", 0x15e978a022415bc1),
    ("fig4", 0x5a9a0bbc6fb84ee9),
    ("dram", 0x3708ee8f9db16c27),
    ("edge", 0xb48076810ddc6779),
    ("cloud", 0xcffcecbaf2616a07),
    ("margins", 0xf57293753cc601c5),
    ("compare", 0x4c5627ae376f32d9),
    ("validate", 0x2d40ffd2d9a339bb),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The configuration `fleet_sim --cluster --nodes 64 --secs 900
/// --profile P --policy Q [--nominal]` runs, built by the same
/// scenario builder the binary calls.
fn scenario(name: &str) -> OrchestratorConfig {
    let mut parts = name.split('/');
    let (profile, policy, margins) = (parts.next(), parts.next(), parts.next());
    let profile = Profile::parse(profile.unwrap_or_default())
        .unwrap_or_else(|e| panic!("{e} in {name}"));
    let mut config = fleet_sim_scenario(profile, NODES, SEED, Some(HORIZON_SECS), None);
    config.policy = policy
        .and_then(PolicyKind::parse)
        .unwrap_or_else(|| panic!("unknown policy in {name}"));
    config.margins = match margins {
        Some("extended") => MarginPolicy::Extended,
        Some("nominal") => MarginPolicy::Nominal,
        other => panic!("unknown margins {other:?} in {name}"),
    };
    config
}

/// `(summary digest, metrics digest, trace digest)` of one run.
fn digests(config: &OrchestratorConfig) -> (u64, u64, u64) {
    let mut tel = Telemetry::disabled();
    tel.metrics = Some(MetricsRegistry::new());
    tel.trace = Some(TraceSink::buffered());
    let (summary, _) = run_with_telemetry(config, &mut tel);
    let metrics = tel.metrics.take().expect("metrics registry was enabled").to_json();
    let trace = tel.trace.take().expect("trace sink was enabled").into_string();
    (
        fnv1a(summary_to_json(&summary, true).as_bytes()),
        fnv1a(metrics.as_bytes()),
        fnv1a(trace.as_bytes()),
    )
}

fn check_profile(profile: &str) {
    let prefix = format!("{profile}/");
    let rows: Vec<_> = GOLDEN.iter().filter(|(name, ..)| name.starts_with(&prefix)).collect();
    assert_eq!(rows.len(), 6, "{profile}: expected one row per policy × margins");
    let mut mismatches = Vec::new();
    for &&(name, summary, metrics, trace) in &rows {
        for threads in THREADS {
            let mut config = scenario(name);
            config.threads = threads;
            let got = digests(&config);
            if got != (summary, metrics, trace) {
                mismatches.push(format!(
                    "{name} at {threads} threads: new row \
                     (\"{name}\", {:#018x}, {:#018x}, {:#018x}),",
                    got.0, got.1, got.2
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "golden digests changed:\n{}", mismatches.join("\n"));
}

#[test]
fn flat_runs_match_the_golden_digests() {
    check_profile("flat");
}

#[test]
fn flash_runs_match_the_golden_digests() {
    check_profile("flash");
}

#[test]
fn chaos_runs_match_the_golden_digests() {
    check_profile("chaos");
}

#[test]
fn gray_runs_match_the_golden_digests() {
    check_profile("gray");
}

#[test]
fn paper_artefacts_match_the_golden_digests() {
    let mut mismatches = Vec::new();
    for (name, digest) in REPRO_GOLDEN {
        let report = match name {
            "table1" => experiments::table1(SEED),
            "table2" => experiments::table2(SEED),
            "table3" => experiments::table3(),
            "fig1" => experiments::fig1(SEED),
            "fig2" => experiments::fig2(SEED),
            "fig3" => experiments::fig3(SEED),
            "fig4" => experiments::fig4(SEED),
            "dram" => experiments::dram(SEED),
            "edge" => experiments::edge(),
            "cloud" => experiments::cloud(SEED),
            "margins" => experiments::margins(SEED),
            "compare" => experiments::compare(SEED),
            "validate" => experiments::validate(SEED).0,
            other => panic!("no golden artefact {other}"),
        };
        let got = fnv1a(report.as_bytes());
        if got != digest {
            mismatches.push(format!("{name}: new row (\"{name}\", {got:#018x}),"));
        }
    }
    assert!(mismatches.is_empty(), "golden digests changed:\n{}", mismatches.join("\n"));
}
