//! Scenario assembly and machine-readable rendering of orchestrated
//! cluster runs.
//!
//! [`scenario`] builds the configuration `fleet_sim` runs from its
//! profile and horizon flags, so tests that pin `fleet_sim`'s output
//! run exactly what the binary runs.
//!
//! The orchestrator crate produces structured, `PartialEq`-comparable
//! summaries; this module renders them to stable-key-order JSON, so
//! `fleet_sim` output is byte-diffable across thread counts and CI
//! runs. Wall-clock timings render separately (the `BENCH_cluster.json`
//! record shape) and are deliberately *not* part of the deterministic
//! summary.

use uniserver_orchestrator::summary::{ClusterSummary, OrchestratorTiming};
use uniserver_orchestrator::OrchestratorConfig;
use uniserver_telemetry::json::JsonWriter;
use uniserver_units::Seconds;

/// The scenario preset behind `fleet_sim --profile`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// The legacy flat arrival stream (the default).
    Flat,
    /// The traffic engine's flash-crowd scenario.
    Flash,
    /// Flash crowd plus the failure lifecycle and fault campaigns.
    Chaos,
    /// Flash crowd plus gray failures, the health watchdog and a
    /// brownout power cap.
    Gray,
}

impl Profile {
    /// The profile named `name` (`flat`, `flash`, `chaos` or `gray`).
    ///
    /// # Errors
    ///
    /// Returns the `--profile` usage message for any other name.
    pub fn parse(name: &str) -> Result<Profile, String> {
        match name {
            "flat" => Ok(Profile::Flat),
            "flash" => Ok(Profile::Flash),
            "chaos" => Ok(Profile::Chaos),
            "gray" => Ok(Profile::Gray),
            other => Err(format!("--profile must be flat, flash, chaos or gray, got '{other}'")),
        }
    }
}

/// The configuration `fleet_sim --profile P --nodes N --seed S
/// [--secs T] [--tick DT]` runs: the profile's preset, with `secs` and
/// `tick` overriding its horizon and tick. The fault plans anchor to
/// tick fractions of the run's own horizon, so the rack, cooling and
/// brownout windows land inside the span actually requested.
#[must_use]
pub fn scenario(
    profile: Profile,
    nodes: usize,
    seed: u64,
    secs: Option<f64>,
    tick: Option<f64>,
) -> OrchestratorConfig {
    let mut config = match profile {
        Profile::Flat => OrchestratorConfig::datacenter(nodes, seed),
        Profile::Flash => OrchestratorConfig::flash_crowd(nodes, seed),
        Profile::Chaos => OrchestratorConfig::chaos_profile(nodes, seed),
        Profile::Gray => OrchestratorConfig::gray_profile(nodes, seed),
    };
    if let Some(secs) = secs {
        config.horizon = Seconds::new(secs);
    }
    if let Some(tick) = tick {
        config.tick = Seconds::new(tick);
    }
    config
}

/// Class labels in the summary's per-class order.
const CLASS_NAMES: [&str; 3] = ["gold", "silver", "bronze"];

/// Writes the optional outcome objects, in their fixed order, for both
/// the summary and the bench record. Each is present only when its
/// subsystem ran, so legacy renders stay byte-identical: `chaos` when
/// a fault plan was active, `power` when the policy manages node power
/// (consolidation), `gray` under the gray plan.
fn write_outcomes(w: &mut JsonWriter, s: &ClusterSummary) {
    if let Some(chaos) = &s.chaos {
        w.field_object("chaos", |o| {
            o.field_u64("injected_crashes", chaos.injected_crashes);
            o.field_u64("nodes_offlined", chaos.nodes_offlined);
            o.field_u64("rejoins", chaos.rejoins);
            o.field_u64("peak_offline", chaos.peak_offline);
            o.field_f64("downtime_secs", chaos.downtime_secs);
            o.field_f64("lost_capacity_node_hours", chaos.lost_capacity_node_hours);
            o.field_f64("availability", chaos.availability);
            o.field_u64("shed", chaos.shed);
        });
    }
    if let Some(power) = &s.power {
        w.field_object("power", |o| {
            o.field_u64("parks", power.parks);
            o.field_u64("wakes", power.wakes);
            o.field_u64("consolidation_migrations", power.consolidation_migrations);
            o.field_f64("asleep_node_secs", power.asleep_node_secs);
            o.field_u64("peak_asleep", power.peak_asleep);
        });
    }
    if let Some(gray) = &s.gray {
        w.field_object("gray", |o| {
            o.field_u64("gray_onsets", gray.gray_onsets);
            o.field_u64("probe_failures", gray.probe_failures);
            o.field_u64("quarantines", gray.quarantines);
            o.field_u64("readmissions", gray.readmissions);
            o.field_f64("degraded_node_secs", gray.degraded_node_secs);
            o.field_f64("degraded_node_hours", gray.degraded_node_hours);
            o.field_u64("peak_degraded", gray.peak_degraded);
            o.field_f64("powercap_deficit_watt_secs", gray.powercap_deficit_watt_secs);
            o.field_u64("powercap_sheds", gray.powercap_sheds);
        });
    }
}

/// Renders a cluster summary as JSON with a stable key order. Identical
/// summaries render to byte-identical strings. `per_tick` controls
/// whether the (long) time series is included.
#[must_use]
pub fn summary_to_json(s: &ClusterSummary, per_tick: bool) -> String {
    let mut w = JsonWriter::object();
    w.field_u64("nodes", s.nodes as u64);
    w.field_u64("seed", s.seed);
    w.field_str("margins", &s.margins);
    // Present only when the run deviates from the reference policy, so
    // legacy summaries stay byte-identical.
    if let Some(policy) = &s.policy {
        w.field_str("policy", policy);
    }
    w.field_f64("horizon_secs", s.horizon_secs);
    w.field_f64("tick_secs", s.tick_secs);
    w.field_u64("ticks", s.ticks);
    w.field_u64("offered", s.offered);
    w.field_u64("placed", s.placed);
    w.field_u64("rejected", s.rejected);
    w.field_u64("retried", s.retried);
    w.field_u64("abandoned", s.abandoned);
    w.field_u64("expired_at_horizon", s.expired_at_horizon);
    w.field_u64("completed", s.completed);
    w.field_u64("evicted", s.evicted);
    w.field_u64("live_at_end", s.live_at_end);
    w.field_u64("crashes", s.crashes);
    w.field_u64("crash_migrations", s.crash_migrations);
    w.field_u64("migrations_settled", s.migrations_settled);
    w.field_u64("proactive_migrations", s.proactive_migrations);
    w.field_u64("sla_violations", s.sla_violations);
    w.field_f64("migration_downtime_secs", s.migration_downtime_secs);
    w.field_f64("energy_j", s.energy_j);
    w.field_f64("mean_availability", s.mean_availability);
    w.field_f64("min_availability", s.min_availability);
    w.field_f64("mean_utilization", s.mean_utilization);
    w.field_f64("min_offset_mv_mean", s.min_offset_mv_mean);
    w.field_array("per_class", s.per_class.iter().enumerate(), |(i, c), out| {
        let mut cw = JsonWriter::object();
        cw.field_str("class", CLASS_NAMES[i]);
        cw.field_u64("offered", c.offered);
        cw.field_u64("placed", c.placed);
        cw.field_u64("rejected", c.rejected);
        cw.field_u64("retried", c.retried);
        cw.field_u64("abandoned", c.abandoned);
        cw.field_u64("expired_at_horizon", c.expired_at_horizon);
        cw.field_u64("shed", c.shed);
        cw.field_u64("violations", c.violations);
        out.push_str(&cw.finish());
    });
    write_outcomes(&mut w, s);
    w.field_array("per_part", s.per_part.iter(), |part, out| {
        let mut pw = JsonWriter::object();
        pw.field_str("part", &part.part);
        pw.field_u64("nodes", part.nodes as u64);
        pw.field_u64("crashes", part.crashes);
        pw.field_f64("min_offset_mv_mean", part.min_offset_mv_mean);
        out.push_str(&pw.finish());
    });
    if per_tick {
        w.field_array("per_tick", s.per_tick.iter(), |t, out| {
            let mut tw = JsonWriter::object();
            tw.field_u64("tick", t.tick);
            tw.field_u64("offered", t.offered);
            tw.field_u64("placed", t.placed);
            tw.field_u64("completed", t.completed);
            tw.field_u64("live", t.live);
            tw.field_u64("crashes", t.crashes);
            tw.field_u64("migrations", t.migrations);
            tw.field_f64("energy_j", t.energy_j);
            out.push_str(&tw.finish());
        });
    }
    w.finish()
}

/// Physical core count of the host, from `/proc/cpuinfo` — may exceed
/// the process-available [`uniserver_cloudmgr::cores`] in a
/// cgroup-limited container, and is recorded alongside it so the bench
/// records' wall-clocks are interpretable (a "slow" row from a 2-of-64
/// core container is not a regression). Falls back to the available
/// parallelism when the probe fails (non-Linux hosts).
#[must_use]
pub(crate) fn host_cores() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|info| info.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(uniserver_cloudmgr::cores)
}

/// This process's peak resident set in kB: `VmHWM` from
/// `/proc/self/status`, or `None` where that file is absent (non-Linux
/// hosts). Unlike a parent's `wait4` figure, it holds nothing the
/// parent touched before the exec.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// The full `BENCH_cluster.json` record: the run's headline outcome
/// (margins, fleet energy, crash count, admission accounting — total
/// and per class, so a flash-crowd row shows who got retried and who
/// got abandoned) plus the timing columns —
/// `threads` is the worker count used for deploy *and* the sharded
/// serving loop, `cores` the machine's available parallelism (so a
/// single-core container's wall-clocks read as what they are), and
/// `serve_ms_per_node` the serve wall-clock amortized over the rack, and
/// `peak_rss_kb` the process's own peak RSS where the host reports it. An
/// extended-vs-nominal pair of records carries the savings story
/// without re-parsing the stdout summary.
#[must_use]
pub fn bench_record(s: &ClusterSummary, t: &OrchestratorTiming, label: &str) -> String {
    let mut w = JsonWriter::object();
    w.field_str("label", label);
    w.field_str("margins", &s.margins);
    if let Some(policy) = &s.policy {
        w.field_str("policy", policy);
    }
    w.field_f64("energy_j", s.energy_j);
    w.field_u64("crashes", s.crashes);
    // Carried so a BENCH_policy.json matrix shows who hauls VMs around
    // and who pays for it without re-parsing the stdout summary.
    w.field_u64("proactive_migrations", s.proactive_migrations);
    w.field_u64("sla_violations", s.sla_violations);
    w.field_u64("offered", s.offered);
    w.field_u64("placed", s.placed);
    w.field_u64("retried", s.retried);
    w.field_u64("abandoned", s.abandoned);
    w.field_array("per_class", s.per_class.iter().enumerate(), |(i, c), out| {
        let mut cw = JsonWriter::object();
        cw.field_str("class", CLASS_NAMES[i]);
        cw.field_u64("offered", c.offered);
        cw.field_u64("placed", c.placed);
        cw.field_u64("retried", c.retried);
        cw.field_u64("abandoned", c.abandoned);
        out.push_str(&cw.finish());
    });
    write_outcomes(&mut w, s);
    w.field_u64("nodes", t.nodes as u64);
    w.field_u64("arrivals", t.arrivals);
    w.field_u64("threads", t.workers as u64);
    w.field_f64("tick_workers_mean", t.tick_workers_mean);
    w.field_u64("cores", t.cores as u64);
    w.field_u64("host_cores", host_cores() as u64);
    // Per-phase serve attribution from the stage profiler — wall-clock,
    // machine-local, next to the other timing columns by design.
    w.field_object("stages", |o| {
        o.field_f64("placement_ms", t.stages.placement_ms);
        o.field_f64("predictor_ms", t.stages.predictor_ms);
        o.field_f64("hypervisor_tick_ms", t.stages.hypervisor_tick_ms);
        o.field_f64("retry_ms", t.stages.retry_ms);
        o.field_f64("recovery_ms", t.stages.recovery_ms);
        o.field_f64("events_ms", t.stages.events_ms);
        o.field_f64("rejoin_ms", t.stages.rejoin_ms);
        o.field_f64("tick_wall_ms", t.stages.tick_wall_ms);
        o.field_f64("reduce_ms", t.stages.reduce_ms);
    });
    // Deterministic work counts: equal at every worker count and build.
    w.field_object("work", |o| {
        o.field_u64("node_intervals", t.work.node_intervals);
        o.field_u64("steady_intervals", t.work.steady_intervals);
        o.field_u64("index_flushes", t.work.index_flushes);
        o.field_u64("nodes_reweighed", t.work.nodes_reweighed);
    });
    w.field_f64("wall_ms", t.wall_ms);
    w.field_f64("deploy_ms", t.deploy_ms);
    w.field_f64("deploy_wall_ms", t.deploy_wall_ms);
    w.field_f64("serve_ms", t.serve_ms);
    w.field_f64("deploy_ms_per_node", t.deploy_ms / t.nodes.max(1) as f64);
    w.field_f64("serve_ms_per_node", t.serve_ms / t.nodes.max(1) as f64);
    if let Some(kb) = peak_rss_kb() {
        w.field_u64("peak_rss_kb", kb);
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniserver_orchestrator::{run, run_with_telemetry, OrchestratorConfig};
    use uniserver_telemetry::Telemetry;

    #[test]
    fn summary_json_is_byte_stable_across_worker_counts() {
        let mut config = OrchestratorConfig::smoke(4, 77);
        config.threads = 1;
        let a = run(&config);
        config.threads = 4;
        let b = run(&config);
        assert_eq!(summary_to_json(&a, true), summary_to_json(&b, true));
        assert_eq!(summary_to_json(&a, false), summary_to_json(&b, false));
        assert!(summary_to_json(&a, true).contains("\"per_tick\":["));
        assert!(!summary_to_json(&a, false).contains("per_tick"));
    }

    #[test]
    fn bench_record_carries_the_headline_and_timing_shape() {
        let config = OrchestratorConfig::smoke(2, 5);
        let (summary, timing) = run_with_telemetry(&config, &mut Telemetry::disabled());
        let json = bench_record(&summary, &timing, "smoke");
        for key in [
            "\"label\":\"smoke\"",
            "\"margins\":\"extended\"",
            "\"energy_j\":",
            "\"crashes\":",
            "\"proactive_migrations\":",
            "\"sla_violations\":",
            "\"offered\":",
            "\"retried\":",
            "\"abandoned\":",
            "\"per_class\":[{\"class\":\"gold\"",
            "\"nodes\":2",
            "\"arrivals\":",
            "\"cores\":",
            "\"host_cores\":",
            "\"stages\":{\"placement_ms\":",
            "\"hypervisor_tick_ms\":",
            "\"tick_wall_ms\":",
            "\"reduce_ms\":",
            "\"tick_workers_mean\":",
            "\"deploy_wall_ms\":",
            "\"wall_ms\":",
            "\"deploy_ms_per_node\":",
            "\"serve_ms_per_node\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        if std::path::Path::new("/proc/self/status").exists() {
            let kb = json.split("\"peak_rss_kb\":").nth(1).unwrap_or_else(|| panic!("missing peak_rss_kb in {json}"));
            let kb: u64 = kb.trim_end_matches('}').parse().expect("peak_rss_kb is the record's last field");
            assert!(kb > 0, "a running process has a resident set");
        }
        assert!(!json.contains("\"chaos\":"), "legacy rows must not grow a chaos object");
        assert!(!json.contains("\"policy\":"), "the reference policy rides unlabeled");
        assert!(!json.contains("\"power\":"), "non-managing rows must not grow a power object");
        assert!(!json.contains("\"gray\":"), "gray-free rows must not grow a gray object");
    }

    #[test]
    fn power_outcomes_render_only_for_managing_policies() {
        use uniserver_orchestrator::PolicyKind;

        let mut config = OrchestratorConfig::smoke(4, 77);
        config.policy = PolicyKind::Consolidate;
        let (summary, timing) = run_with_telemetry(&config, &mut Telemetry::disabled());
        assert_eq!(summary.policy.as_deref(), Some("consolidate"));
        assert!(summary.power.is_some());
        let record = bench_record(&summary, &timing, "consolidate");
        let json = summary_to_json(&summary, false);
        for key in [
            "\"policy\":\"consolidate\"",
            "\"power\":{\"parks\":",
            "\"wakes\":",
            "\"consolidation_migrations\":",
            "\"asleep_node_secs\":",
            "\"peak_asleep\":",
        ] {
            assert!(record.contains(key), "missing {key} in {record}");
            assert!(json.contains(key), "missing {key} in {json}");
        }

        // The ablation is labeled but manages no power.
        config.policy = PolicyKind::ReliabilityBlind;
        let summary = run(&config);
        assert_eq!(summary.policy.as_deref(), Some("reliability-blind"));
        assert!(summary.power.is_none());
        let json = summary_to_json(&summary, false);
        assert!(json.contains("\"policy\":\"reliability-blind\""));
        assert!(!json.contains("\"power\":"));

        // Explicitly selecting the reference is indistinguishable from
        // the default: no label, no power object.
        config.policy = PolicyKind::EnergySla;
        let summary = run(&config);
        assert!(summary.policy.is_none());
        assert!(summary.power.is_none());
    }

    #[test]
    fn chaos_outcomes_render_only_when_present() {
        let config = scenario(Profile::Chaos, 4, 5, Some(600.0), None);
        let (summary, timing) = run_with_telemetry(&config, &mut Telemetry::disabled());
        assert!(summary.chaos.is_some());
        let record = bench_record(&summary, &timing, "chaos");
        let json = summary_to_json(&summary, false);
        for key in [
            "\"chaos\":{\"injected_crashes\":",
            "\"nodes_offlined\":",
            "\"rejoins\":",
            "\"peak_offline\":",
            "\"downtime_secs\":",
            "\"lost_capacity_node_hours\":",
            "\"availability\":",
            "\"shed\":",
        ] {
            assert!(record.contains(key), "missing {key} in {record}");
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"expired_at_horizon\":"));
        assert!(
            !json.contains("\"gray\":"),
            "a crash-only plan must not grow a gray object"
        );
    }

    #[test]
    fn gray_outcomes_render_only_under_a_gray_plan() {
        let config = scenario(Profile::Gray, 4, 5, Some(600.0), None);
        let (summary, timing) = run_with_telemetry(&config, &mut Telemetry::disabled());
        assert!(summary.gray.is_some());
        let record = bench_record(&summary, &timing, "gray");
        let json = summary_to_json(&summary, false);
        for key in [
            "\"gray\":{\"gray_onsets\":",
            "\"probe_failures\":",
            "\"quarantines\":",
            "\"readmissions\":",
            "\"degraded_node_secs\":",
            "\"degraded_node_hours\":",
            "\"peak_degraded\":",
            "\"powercap_deficit_watt_secs\":",
            "\"powercap_sheds\":",
        ] {
            assert!(record.contains(key), "missing {key} in {record}");
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The gray profile also runs the lifecycle, so the chaos object
        // rides alongside — gray after power after chaos, fixed order.
        assert!(json.contains("\"chaos\":{"));
    }
}
