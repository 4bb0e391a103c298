//! CLI contract of the `fleet_sim` binary: flag validation exits
//! non-zero with a usage message, and stdout is byte-stable across
//! thread counts and with or without the no-op `--cluster`.

use std::process::{Command, Output};

fn fleet_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fleet_sim"))
        .args(args)
        .output()
        .expect("fleet_sim runs")
}

#[test]
fn unknown_flags_exit_nonzero_with_usage() {
    let out = fleet_sim(&["--frobnicate"]);
    assert!(!out.status.success(), "unknown flags must not be silently ignored");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag '--frobnicate'"), "stderr: {stderr}");
    assert!(stderr.contains("usage: fleet_sim"), "stderr must show usage: {stderr}");
}

#[test]
fn flag_value_and_mode_mismatches_exit_nonzero() {
    for args in [
        &["--nodes"][..],
        &["--nodes", "zero"][..],
        &["--nodes", "0"][..],
        &["--secs", "-3"][..],
        &["--cluster", "--place"][..],
        &["--cluster", "--place", "bogus"][..],
        &["--cluster", "--profile"][..],
        &["--cluster", "--profile", "bogus"][..],
        &["--cluster", "--policy"][..],
        &["--cluster", "--policy", "bogus"][..],
        &["--cluster", "--trace-out"][..],
        &["--cluster", "--metrics-out"][..],
    ] {
        let out = fleet_sim(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error:"), "{args:?} stderr: {stderr}");
    }
    // The flags of the deleted isolated-node fleet mode are unknown now.
    for flag in ["--mixed", "--baseline", "--no-per-node"] {
        let out = fleet_sim(&[flag]);
        assert!(!out.status.success(), "{flag} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: unknown flag '{flag}'")),
            "{flag} stderr: {stderr}"
        );
    }
}

#[test]
fn unknown_profile_and_policy_errors_list_the_valid_names() {
    // An operator who typos a name should not have to open the source
    // to learn the valid set: the error must enumerate it.
    let out = fleet_sim(&["--cluster", "--profile", "bogus"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--profile must be flat, flash, chaos or gray, got 'bogus'"),
        "profile error must list the valid names: {stderr}"
    );
    let out = fleet_sim(&["--cluster", "--policy", "bogus"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--policy must be energy-sla, consolidate or reliability-blind, got 'bogus'"),
        "policy error must list the valid names: {stderr}"
    );
}

#[test]
fn help_exits_zero() {
    let out = fleet_sim(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: fleet_sim"));
}

#[test]
fn bare_invocation_is_the_rack() {
    // `--cluster` survives as a no-op for existing scripts: a bare
    // invocation must print the very same run.
    let base = &["--nodes", "8", "--secs", "60"];
    let bare = fleet_sim(base);
    assert!(bare.status.success(), "stderr: {}", String::from_utf8_lossy(&bare.stderr));
    let cluster = fleet_sim(&[&["--cluster"][..], base].concat());
    assert!(cluster.status.success(), "stderr: {}", String::from_utf8_lossy(&cluster.stderr));
    assert_eq!(bare.stdout, cluster.stdout, "--cluster must not change the run");
}

#[test]
fn cluster_mode_is_byte_stable_across_thread_counts() {
    // --threads drives the sharded serving loop as well as deploy, so
    // this locks serve determinism too. Requested counts resolve
    // against the machine (clamped to its cores), so on a single-core
    // box every variant runs one worker and this test only locks the
    // resolution path; genuinely multi-worker determinism is locked by
    // the direct worker-count tests (tests/cluster_shard.rs,
    // tests/placement_index.rs, cloudmgr's cluster unit tests), which
    // set 2-6 workers on the cluster regardless of cores.
    let base = &["--cluster", "--nodes", "8", "--secs", "60", "--seed", "7"];
    let one = fleet_sim(&[base, &["--threads", "1"][..]].concat());
    assert!(one.status.success(), "stderr: {}", String::from_utf8_lossy(&one.stderr));
    for threads in ["3", "4", "64"] {
        let n = fleet_sim(&[base, &["--threads", threads][..]].concat());
        assert!(n.status.success());
        assert_eq!(
            one.stdout,
            n.stdout,
            "cluster summaries must be byte-identical at {threads} threads"
        );
    }
    let json = String::from_utf8_lossy(&one.stdout);
    assert!(json.contains("\"margins\":\"extended\""));
    assert!(json.contains("\"per_tick\":["));
}

#[test]
fn flash_profile_is_byte_stable_and_reports_admission_counters() {
    let base = &["--cluster", "--profile", "flash", "--nodes", "8", "--secs", "120", "--seed", "7"];
    let one = fleet_sim(&[base, &["--threads", "1"][..]].concat());
    assert!(one.status.success(), "stderr: {}", String::from_utf8_lossy(&one.stderr));
    let four = fleet_sim(&[base, &["--threads", "4"][..]].concat());
    assert!(four.status.success());
    assert_eq!(one.stdout, four.stdout, "flash-crowd summaries must be byte-identical");
    let json = String::from_utf8_lossy(&one.stdout);
    assert!(json.contains("\"retried\":"), "flash summaries report admission counters: {json}");
    assert!(json.contains("\"abandoned\":"));
}

#[test]
fn chaos_profile_is_byte_stable_and_reports_the_outcome() {
    let base =
        &["--cluster", "--profile", "chaos", "--nodes", "8", "--secs", "300", "--seed", "7"];
    let one = fleet_sim(&[base, &["--threads", "1"][..]].concat());
    assert!(one.status.success(), "stderr: {}", String::from_utf8_lossy(&one.stderr));
    let four = fleet_sim(&[base, &["--threads", "4"][..]].concat());
    assert!(four.status.success());
    assert_eq!(one.stdout, four.stdout, "chaos summaries must be byte-identical");
    let json = String::from_utf8_lossy(&one.stdout);
    assert!(json.contains("\"chaos\":{\"injected_crashes\":"), "chaos outcome missing: {json}");
    for key in ["\"nodes_offlined\":", "\"downtime_secs\":", "\"availability\":", "\"shed\":"] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

#[test]
fn gray_profile_is_byte_stable_and_reports_the_outcome() {
    let base = &["--cluster", "--profile", "gray", "--nodes", "8", "--secs", "300", "--seed", "7"];
    let one = fleet_sim(&[base, &["--threads", "1"][..]].concat());
    assert!(one.status.success(), "stderr: {}", String::from_utf8_lossy(&one.stderr));
    let four = fleet_sim(&[base, &["--threads", "4"][..]].concat());
    assert!(four.status.success());
    assert_eq!(one.stdout, four.stdout, "gray summaries must be byte-identical");
    let json = String::from_utf8_lossy(&one.stdout);
    assert!(json.contains("\"gray\":{\"gray_onsets\":"), "gray outcome missing: {json}");
    for key in [
        "\"probe_failures\":",
        "\"quarantines\":",
        "\"readmissions\":",
        "\"degraded_node_secs\":",
        "\"peak_degraded\":",
        "\"powercap_deficit_watt_secs\":",
        "\"powercap_sheds\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

#[test]
fn flat_profile_flag_is_the_default_stream() {
    // `--profile flat` must be a no-op spelling of the default, so the
    // legacy rows keep reproducing when the flag is passed explicitly.
    let base = &["--cluster", "--nodes", "6", "--secs", "60", "--seed", "11"];
    let implicit = fleet_sim(base);
    assert!(implicit.status.success());
    let explicit = fleet_sim(&[base, &["--profile", "flat"][..]].concat());
    assert!(explicit.status.success());
    assert_eq!(implicit.stdout, explicit.stdout);
}

#[test]
fn energy_sla_policy_flag_is_the_default_byte_for_byte() {
    // Explicitly selecting the reference policy must be a no-op
    // spelling of the default — no label, no power object, same bytes.
    let base = &["--cluster", "--nodes", "6", "--secs", "60", "--seed", "11"];
    let implicit = fleet_sim(base);
    assert!(implicit.status.success());
    let explicit = fleet_sim(&[base, &["--policy", "energy-sla"][..]].concat());
    assert!(explicit.status.success());
    assert_eq!(implicit.stdout, explicit.stdout);
    let json = String::from_utf8_lossy(&implicit.stdout);
    assert!(!json.contains("\"policy\":"), "the reference run must stay unlabeled");
    assert!(!json.contains("\"power\":"));
}

#[test]
fn consolidate_policy_is_byte_stable_and_reports_power_accounting() {
    let base = &[
        "--cluster", "--policy", "consolidate", "--nodes", "16", "--secs", "300", "--seed", "7",
    ];
    let one = fleet_sim(&[base, &["--threads", "1"][..]].concat());
    assert!(one.status.success(), "stderr: {}", String::from_utf8_lossy(&one.stderr));
    let four = fleet_sim(&[base, &["--threads", "4"][..]].concat());
    assert!(four.status.success());
    assert_eq!(one.stdout, four.stdout, "consolidation summaries must be byte-identical");
    let json = String::from_utf8_lossy(&one.stdout);
    assert!(json.contains("\"policy\":\"consolidate\""), "the run must be labeled: {json}");
    assert!(json.contains("\"power\":{\"parks\":"), "power accounting missing: {json}");
    for key in ["\"wakes\":", "\"consolidation_migrations\":", "\"asleep_node_secs\":", "\"peak_asleep\":"]
    {
        assert!(json.contains(key), "missing {key} in {json}");
    }

    // The ablation is labeled but grows no power object.
    let blind = fleet_sim(&[
        "--cluster", "--policy", "reliability-blind", "--nodes", "6", "--secs", "60", "--seed", "7",
    ]);
    assert!(blind.status.success());
    let json = String::from_utf8_lossy(&blind.stdout);
    assert!(json.contains("\"policy\":\"reliability-blind\""));
    assert!(!json.contains("\"power\":"));
}

#[test]
fn unwritable_telemetry_paths_exit_nonzero_before_the_run() {
    for flag in ["--trace-out", "--metrics-out"] {
        let out = fleet_sim(&[
            "--cluster", "--nodes", "2", "--secs", "30",
            flag, "/nonexistent_dir_hopefully/out.ndjson",
        ]);
        assert!(!out.status.success(), "{flag} to an unwritable path must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error: cannot create"), "{flag} stderr: {stderr}");
    }
}

#[test]
fn telemetry_outputs_are_byte_stable_and_leave_stdout_untouched() {
    let dir = std::env::temp_dir().join(format!("fleet_sim_tel_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let base =
        &["--cluster", "--profile", "chaos", "--nodes", "8", "--secs", "300", "--seed", "7"];
    // The default run, no telemetry: the stdout baseline.
    let plain = fleet_sim(base);
    assert!(plain.status.success());
    let mut outputs = Vec::new();
    for threads in ["1", "4"] {
        let trace = dir.join(format!("trace_{threads}.ndjson"));
        let metrics = dir.join(format!("metrics_{threads}.json"));
        let out = fleet_sim(
            &[
                base,
                &["--threads", threads][..],
                &["--trace-out", trace.to_str().unwrap()][..],
                &["--metrics-out", metrics.to_str().unwrap()][..],
            ]
            .concat(),
        );
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(
            out.stdout, plain.stdout,
            "enabling telemetry must not perturb the deterministic stdout"
        );
        outputs.push((
            std::fs::read(&trace).expect("trace written"),
            std::fs::read(&metrics).expect("metrics written"),
        ));
    }
    assert_eq!(outputs[0].0, outputs[1].0, "traces must be byte-identical across threads");
    assert_eq!(outputs[0].1, outputs[1].1, "metrics must be byte-identical across threads");
    let trace = String::from_utf8_lossy(&outputs[0].0);
    assert!(trace.lines().count() > 0, "a chaos run must trace events");
    assert!(trace.starts_with("{\"tick\":"), "lines carry the tick stamp first");
    assert!(trace.contains("\"ev\":\"arrival\""));
    assert!(trace.contains("\"ev\":\"offline\""), "chaos must offline nodes");
    let metrics = String::from_utf8_lossy(&outputs[0].1);
    for key in [
        "\"counters\":{",
        "\"arrivals\":",
        "\"node_ticks\":",
        "\"gauges\":{",
        "\"offline_nodes\":",
        "\"histograms\":{",
        "\"queue_wait_ticks\":",
        "\"vm_lifetime_ticks\":",
        "\"mttr_ticks\":",
    ] {
        assert!(metrics.contains(key), "missing {key} in {metrics}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cluster_bench_record_reports_serve_rate_and_headline() {
    let dir = std::env::temp_dir().join(format!("fleet_sim_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bench = dir.join("bench.json");
    let bench_path = bench.to_str().expect("utf-8 path");
    let out = fleet_sim(&[
        "--cluster", "--nodes", "4", "--secs", "30", "--threads", "2", "--no-per-tick",
        "--bench", bench_path, "--label", "smoke",
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let record = std::fs::read_to_string(&bench).expect("bench file written");
    // `threads` records the *resolved* worker count (clamped to the
    // machine's cores), so its value is machine-dependent; `cores`
    // records the machine so wall-clocks can be read in context.
    for key in [
        "\"label\":\"smoke\"",
        "\"margins\":\"extended\"",
        "\"threads\":",
        "\"cores\":",
        "\"stages\":{\"placement_ms\":",
        "\"tick_wall_ms\":",
        "\"energy_j\":",
        "\"serve_ms_per_node\":",
    ] {
        assert!(record.contains(key), "missing {key} in {record}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
