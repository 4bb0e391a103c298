//! The cluster-in-the-loop event loop.
//!
//! One run: deploy the rack (parallel, per-node EOPs), then walk the
//! horizon tick by tick —
//!
//! 1. fire due events (departures, migration settlements) from the
//!    deterministic `EventQueue`;
//! 2. re-offer queued rejections (gold first) into the capacity those
//!    departures freed, then draw this tick's VM arrival batch — at the
//!    rack's capacity-scaled, shape-modulated rate — from its seeded
//!    sub-stream and offer it to the energy/SLA-aware scheduler;
//!    rejections either enter the bounded per-class retry queue or are
//!    counted `abandoned`, per the [`crate::config::AdmissionPolicy`];
//! 3. advance every node's hypervisor one tick — **sharded across up to
//!    the run's workers** (`Cluster::tick`, the worker count set on the
//!    cluster once after deploy as a cap: each tick runs on the calling
//!    thread or on scoped threads with one contiguous node-index chunk
//!    each, whichever its measured work pays for), with energy, crash
//!    events and predictor scores reduced sequentially in node-index
//!    order;
//! 4. for every crashed node (deduplicated: several same-tick crash
//!    events still recover once), run failure-driven recovery (migrate
//!    what fits elsewhere, evict the rest). Without a fault plan the
//!    node re-deploys in place at a backed-off operating point
//!    (firmware cleared its undervolts on reboot). A
//!    [`crate::config::OrchestratorConfig::chaos`] plan brings the
//!    failure lifecycle — the crash *costs capacity*: the node goes
//!    offline for a seeded MTTR window (excluded from placement,
//!    ticking, energy and the crash surface) and rejoins through a
//!    re-characterization pass — and injects its seeded fault campaigns
//!    (background node crashes, a correlated rack/PSU failure and a
//!    cooling-failure ambient step, or gray onsets and a brownout) on
//!    top of the natural crash stream; while nodes are offline premium
//!    re-offers shed bronze-first.
//!
//! After the loop, events due in the final `(last tick start, horizon]`
//! window are drained so end-of-horizon departures and settlements are
//! not dropped from `completed` / `migrations_settled`.
//!
//! Every random draw derives from `(seed, node index)` or
//! `(seed, tick index)`, parallel per-node work reduces in node-index
//! order, and every placement-mutating phase is sequential, so a run's
//! [`ClusterSummary`] is a pure function of its configuration —
//! byte-stable for any worker count (`threads` drives deploy *and*
//! serve).

use std::sync::Arc;
use std::time::Instant;

use uniserver_cloudmgr::lifecycle::{GrayState, NodePhase};
use uniserver_cloudmgr::node::NodeId;
use uniserver_cloudmgr::cluster::{cores, resolve_workers};
use uniserver_core::eop::OperatingPoint;
use uniserver_faultinject::chaos::{ChaosPlan, GRAY_CAPACITY_CAP, GRAY_CE_MULTIPLIER};
use uniserver_platform::node::CrashEvent;
use uniserver_telemetry::{Stage, StageProfiler, Telemetry, TraceEvent};
use uniserver_units::{Celsius, Seconds, Volts};

use uniserver_cloudmgr::policy::PolicyKind;

use crate::config::{MarginPolicy, OrchestratorConfig};
use crate::deploy::{deploy_cluster, rejoin_node};
use crate::events::EventQueue;
use crate::serve::{RetryQueue, ServeCounters, CLASS_NAMES};
use crate::summary::{
    ChaosOutcome, ClusterSummary, GrayOutcome, OrchestratorTiming, PartUsage, PowerOutcome,
    StageBreakdown, TickMetrics,
};
use crate::watchdog::{
    probe_fails, ProbeWindow, Verdict, DRAIN_BUDGET, PROBE_FAIL_DEGRADED, PROBE_FAIL_HEALTHY,
};

/// Runs one orchestrated scenario.
///
/// # Panics
///
/// Panics as [`run_with_telemetry`] does.
#[must_use]
pub fn run(config: &OrchestratorConfig) -> ClusterSummary {
    run_with_telemetry(config, &mut Telemetry::disabled()).0
}

/// Runs one orchestrated scenario with a live [`Telemetry`] bundle:
/// sim-domain metrics and trace events land in `tel` (both byte-stable
/// for any worker count — accumulation is sequential, in node-index
/// order), wall-clock stage attribution lands in the returned timing's
/// `stages` block. `Telemetry::disabled()` gives [`run`]'s summary plus
/// the timings.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero nodes, non-positive
/// tick or horizon), or if the run's accounting does not tie out at the
/// horizon: `offered = placed + abandoned` and
/// `placed = completed + evicted + live_at_end`.
#[must_use]
pub fn run_with_telemetry(
    config: &OrchestratorConfig,
    tel: &mut Telemetry,
) -> (ClusterSummary, OrchestratorTiming) {
    let ticks = config.ticks();
    #[allow(clippy::cast_possible_truncation)]
    let fleet_width = config.cluster.nodes as u32;
    let wall_start = Instant::now();
    // `threads` drives the parallel deploy and every tick's per-node
    // phase alike.
    let workers = resolve_workers(config.threads, config.cluster.nodes);
    let deploy_start = Instant::now();
    let (mut cluster, records, deploy_secs, cache) = deploy_cluster(config);
    let deploy_wall_ms = deploy_start.elapsed().as_secs_f64() * 1e3;
    cluster.set_workers(workers);
    // The stage profiler is wall-clock (machine-local): it feeds the
    // timing report, never the deterministic summary or metrics. The
    // cluster times its own tick stages.
    let mut profiler = StageProfiler::new();
    if tel.metrics.is_some() {
        cluster.enable_metrics();
    }
    tel.begin_run(config.tick.as_secs());
    // Each node's operating point, for the crash backoff of a run
    // without a plan. With a plan nothing backs off: rejoin and
    // readmission re-characterize instead.
    let mut points: Vec<_> = records.iter().map(|r| r.point.clone()).collect();
    // Part-mix index per node, resolved once for crash attribution.
    let node_parts: Vec<Option<usize>> = records
        .iter()
        .map(|r| config.cluster.part_mix.iter().position(|p| p.spec.name == r.part))
        .collect();

    let serve_start = Instant::now();
    let dt = config.tick;
    let mut queue = EventQueue::new();
    let mut per_tick = Vec::with_capacity(ticks as usize);
    let mut c = ServeCounters::new(config.cluster.part_mix.len());
    let mut retry = RetryQueue::new(config.admission);
    // The cooling-failure ambient step currently programmed into the
    // fleet (0 = the deploy-time baseline).
    let mut ambient_applied = 0.0f64;
    // Gray failures and the watchdog only engage under the gray plan —
    // every other profile must not even touch those code paths, so
    // their summaries stay byte-identical.
    let gray_active = config.chaos == Some(ChaosPlan::GrayBrownout);
    // Each node's watchdog probe history, reset at its gray onset.
    let mut probes = vec![ProbeWindow::default(); config.cluster.nodes];

    for tick in 0..ticks {
        let now = Seconds::new(tick as f64 * dt.as_secs());
        // The final tick of a non-dividing horizon is clamped so the
        // run never simulates past `horizon` (the summary's
        // `horizon_secs` must mean what it says).
        let step = Seconds::new(dt.as_secs().min(config.horizon.as_secs() - now.as_secs()));
        let mut t_offered = 0u64;
        let mut t_placed = 0u64;
        let mut t_migrations = 0u64;
        tel.begin_tick(tick, now.as_secs());

        // --- 0. Repairs tick down; nodes whose MTTR window just closed
        // rejoin through a re-characterization pass — extended racks
        // re-shmoo the silicon *as it is now* (aged, at its live
        // ambient) instead of applying a geometric backoff.
        {
            let _span = profiler.scoped(Stage::Rejoin);
            for id in cluster.tick_repairs() {
                let idx = id.0 as usize;
                rejoin_node(config, &cache, idx, cluster.server_mut(id));
                cluster.complete_rejoin(id);
                c.chaos.rejoins += 1;
                tel.inc("rejoins");
                tel.emit(&TraceEvent::Rejoin { node: u64::from(id.0) });
            }
        }

        // --- 0b. Gray failures: expired faults clear, new onsets land,
        // and the watchdog probes every degraded node — quarantining,
        // draining and readmitting on its K-of-N hysteresis. Sequential
        // in node-index order, so worker count can never reorder a
        // probe draw.
        if gray_active {
            let _span = profiler.scoped(Stage::Recovery);
            // (i) Faults expire on their own clock — but only while the
            // node is *not* quarantined: once the watchdog distrusts a
            // node, only a full probation run brings it back, however
            // long the underlying fault has been gone (flap-proofing).
            for idx in 0..config.cluster.nodes {
                let Some(gray) = cluster.nodes()[idx].gray() else { continue };
                if !gray.quarantined && tick >= gray.clears_at_tick {
                    cluster.clear_degraded(NodeId(idx as u32));
                }
            }
            // (ii) New onsets from the seeded campaign. Only healthy
            // online awake nodes degrade; offline, rejoining, asleep or
            // already-degraded nodes skip their draw.
            let onsets = ChaosPlan::GrayBrownout.gray_onsets_at(
                config.seed,
                tick,
                ticks,
                step.as_secs(),
                fleet_width,
            );
            for onset in onsets {
                let idx = onset.node as usize;
                let node = &cluster.nodes()[idx];
                if node.phase() != NodePhase::Online || node.is_asleep() {
                    continue;
                }
                cluster.mark_degraded(
                    NodeId(onset.node),
                    GrayState {
                        capacity_cap: GRAY_CAPACITY_CAP,
                        ce_multiplier: GRAY_CE_MULTIPLIER,
                        clears_at_tick: tick + onset.duration_ticks,
                        quarantined: false,
                    },
                );
                probes[idx] = ProbeWindow::default();
                c.gray.gray_onsets += 1;
                tel.inc("gray_onsets");
                tel.emit(&TraceEvent::GrayOnset {
                    node: u64::from(onset.node),
                    duration_ticks: onset.duration_ticks,
                });
            }
            // (iii) The watchdog's probe round over every degraded node.
            // A node that crashed outright left the degraded phase, so
            // the failure lifecycle owns it and it is not probed.
            for (idx, window) in probes.iter_mut().enumerate() {
                let Some(gray) = cluster.nodes()[idx].gray() else { continue };
                let node = idx as u32;
                let p = if tick < gray.clears_at_tick {
                    PROBE_FAIL_DEGRADED
                } else {
                    PROBE_FAIL_HEALTHY
                };
                let failed = probe_fails(config.seed, node, tick, p);
                if failed {
                    c.gray.probe_failures += 1;
                    tel.inc("probe_failures");
                }
                match window.observe(gray.quarantined, failed) {
                    Verdict::Quarantine => {
                        cluster.set_quarantined(NodeId(node), true);
                        // A quarantined extended-margin node backs its
                        // EOP off to nominal: while it is suspect it
                        // stops trading crash margin for energy.
                        if config.margins == MarginPolicy::Extended {
                            let server = cluster.server_mut(NodeId(node));
                            OperatingPoint::nominal(server.part().cores).apply_to(server);
                        }
                        c.gray.quarantines += 1;
                        tel.inc("quarantines");
                        tel.emit(&TraceEvent::Quarantine { node: u64::from(node) });
                    }
                    Verdict::Readmit => {
                        cluster.set_quarantined(NodeId(node), false);
                        cluster.clear_degraded(NodeId(node));
                        // Readmission re-characterizes like a repair
                        // rejoin: the silicon is re-shmooed as it is
                        // now, not restored from a stale point.
                        rejoin_node(config, &cache, idx, cluster.server_mut(NodeId(node)));
                        c.gray.readmissions += 1;
                        tel.inc("readmissions");
                        tel.emit(&TraceEvent::Readmit { node: u64::from(node) });
                    }
                    Verdict::None => {}
                }
                // Quarantined nodes drain on the per-tick budget: gold
                // first, pre-copy, never evicting — a bite per tick
                // until the node is empty.
                if cluster.nodes()[idx].is_quarantined() {
                    t_migrations += cluster.drain_degraded(NodeId(node), DRAIN_BUDGET);
                }
            }
        }

        // --- 1. Due events, earliest first.
        let t_completed = {
            let _span = profiler.scoped(Stage::Events);
            c.drain_due(&mut queue, &mut cluster, now)
        };
        tel.add("completed", t_completed);

        // --- 1b. Power management: a consolidating policy parks nodes
        // the departures just emptied and drains near-empty stragglers
        // onto the packed end of the rack. A no-op (and free) for
        // non-managing policies.
        {
            let _span = profiler.scoped(Stage::Placement);
            cluster.manage(tick);
        }

        // --- 2a. Queued rejections re-offer first, gold before silver,
        // into whatever capacity the departures just freed. (Empty —
        // and free — under the default drop-all admission policy.)
        {
            let _span = profiler.scoped(Stage::RetryQueue);
            t_placed += c.reoffer_pending(&mut retry, &mut cluster, &mut queue, now, tick, tel);
        }

        // --- 2b. This tick's arrival batch, from its own sub-stream,
        // drawn at the rack's capacity-scaled rate.
        {
            let _span = profiler.scoped(Stage::Placement);
            for arrival in
                config.stream.tick_arrivals_scaled(config.seed, tick, step, config.cluster.nodes)
            {
                t_offered += 1;
                if c.admit(&mut retry, &mut cluster, &mut queue, arrival, now, tick, tel) {
                    t_placed += 1;
                }
            }
        }

        // --- 2c. A cooling failure steps the whole fleet's ambient
        // above the deploy-time baseline while it is in force (offline
        // nodes included — the hot aisle does not care).
        if let Some(plan) = config.chaos {
            let delta = plan.ambient_delta_at(tick, ticks);
            if delta != ambient_applied {
                for (managed, rec) in cluster.nodes_mut().iter_mut().zip(&records) {
                    managed
                        .hypervisor
                        .node_mut()
                        .set_ambient(rec.ambient + Celsius::new(delta));
                }
                ambient_applied = delta;
            }
        }

        // --- 3. Advance the fleet, sharded across the run's workers.
        // Offline nodes are skipped wholesale: no energy, no load, no
        // crash surface while they repair.
        let mut report = {
            let _span = profiler.scoped(Stage::Tick);
            cluster.tick(step)
        };
        c.energy_j += report.energy.as_joules();
        t_migrations += report.proactive_migrations;
        tel.add("proactive_migrations", report.proactive_migrations);
        let tick_end = now + step;

        // A proactive move whose relaunch failed lost the VM: that is
        // an eviction whatever the class promised.
        for lost in &report.evicted {
            c.charge_eviction(lost, tel);
        }

        // --- 3a. Brownout: while the plan's power cap is in force the
        // fleet's actual draw this tick is compared with the cap, the
        // shortfall is charged to the deficit meter, and the fleet
        // gracefully degrades — empty nodes park (power-managing
        // policies only; the reference policy never re-wakes parked
        // nodes) and load sheds bronze-first, with every shed charged
        // as the SLA violation it is.
        if let Some(plan) = config.chaos {
            if let Some(cap_watts) = plan.power_cap_at(tick, ticks, fleet_width) {
                let draw_watts = report.energy.as_joules() / step.as_secs();
                if draw_watts > cap_watts {
                    let deficit = draw_watts - cap_watts;
                    c.gray.powercap_deficit_watt_secs += deficit * step.as_secs();
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    tel.record("powercap_deficit_watts", deficit.max(0.0).round() as u64);
                    if cluster.policy().manages() {
                        let mut occupied = vec![false; config.cluster.nodes];
                        for p in cluster.placements() {
                            occupied[p.node.0 as usize] = true;
                        }
                        for (idx, taken) in occupied.iter().enumerate() {
                            let n = &cluster.nodes()[idx];
                            if !taken && n.is_online() && !n.is_asleep() && !n.is_degraded() {
                                #[allow(clippy::cast_possible_truncation)]
                                cluster.park_node(NodeId(idx as u32));
                            }
                        }
                    }
                    let live = cluster.placements().len();
                    if live > 0 {
                        // Proportional control: assume the deficit
                        // scales with live placements and shed just
                        // enough, bounded per tick so one bad estimate
                        // cannot hollow the fleet out.
                        let per_vm = draw_watts / live as f64;
                        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                        let needed = (deficit / per_vm).ceil().max(1.0) as usize;
                        c.shed_for_powercap(&mut cluster, needed.min(32), tel);
                    }
                }
            }
        }

        // --- 3b. Chaos-plan crash injection: seeded fault campaigns
        // surface synthetic power-loss events (voltage 0) alongside the
        // tick's natural crashes. Already-offline nodes cannot crash
        // again.
        if let Some(plan) = config.chaos {
            for idx in
                plan.crash_indices_at(config.seed, tick, ticks, step.as_secs(), fleet_width)
            {
                if !cluster.nodes()[idx as usize].is_online() {
                    continue;
                }
                report.crashes.push((
                    NodeId(idx),
                    CrashEvent {
                        core: 0,
                        at: tick_end,
                        voltage: Volts::new(0.0),
                        workload: Arc::from("chaos"),
                    },
                ));
                c.chaos.injected_crashes += 1;
                tel.inc("injected_crashes");
            }
        }

        // --- 4. Failure-driven recovery, once per crashed node. Under
        // the lifecycle, recovery evacuates the node and takes it
        // offline for its seeded MTTR window.
        {
            let _span = profiler.scoped(Stage::Recovery);
            t_migrations += c.recover_crashes(
                &mut cluster,
                &mut queue,
                &mut points,
                &node_parts,
                &report.crashes,
                tick_end,
                tick,
                config,
                tel,
            );
        }

        // --- 5. Downtime accrual: every tick a node spends offline is
        // real lost capacity (a freshly-crashed node's window starts
        // this tick; a rejoining node stopped counting at tick start).
        let offline = cluster.offline_count();
        c.chaos.downtime_secs += step.as_secs() * offline as f64;
        c.chaos.peak_offline = c.chaos.peak_offline.max(offline as u64);
        if cluster.policy().manages() {
            let asleep = cluster.asleep_count();
            c.power.asleep_node_secs += step.as_secs() * asleep as f64;
            c.power.peak_asleep = c.power.peak_asleep.max(asleep as u64);
            tel.observe("nodes_asleep", asleep as u64);
        }
        if gray_active {
            let degraded = cluster.degraded_count();
            c.gray.degraded_node_secs += step.as_secs() * degraded as f64;
            c.gray.peak_degraded = c.gray.peak_degraded.max(degraded as u64);
            tel.observe("degraded_nodes", degraded as u64);
        }
        tel.observe("live_placements", cluster.placements().len() as u64);
        tel.observe("offline_nodes", offline as u64);
        tel.observe("retry_queue_depth", retry.pending_len() as u64);

        per_tick.push(TickMetrics {
            tick,
            offered: t_offered,
            placed: t_placed,
            completed: t_completed,
            live: cluster.placements().len() as u64,
            crashes: report.crashes.len() as u64,
            migrations: t_migrations,
            energy_j: report.energy.as_joules(),
        });
    }

    // --- End-of-horizon drain: departures and settlements due in the
    // final `(last tick start, horizon]` window must still fire, or
    // `completed` / `migrations_settled` undercount what the horizon
    // actually served. (These fall outside the per-tick series.)
    tel.begin_tick(ticks, config.horizon.as_secs());
    let final_completed =
        c.drain_due(&mut queue, &mut cluster, Seconds::new(config.horizon.as_secs()));
    tel.add("completed", final_completed);
    // Whatever is still waiting for re-admission when the horizon ends
    // was never served: count it abandoned so admission ties out too.
    c.flush_pending(&mut retry, ticks, tel);
    // The cluster's tick metrics (node ticks, predictor rescores, crash
    // histograms), counted by its reduce, join the run's registry.
    if let Some(tick_metrics) = cluster.take_metrics() {
        if let Some(m) = &mut tel.metrics {
            m.merge(&tick_metrics);
        }
    }
    if cluster.policy().manages() {
        let power = cluster.power_stats();
        tel.add("wake_transitions", power.wakes);
        tel.add("consolidation_migrations", power.consolidation_migrations);
    }
    // Checked in every build: a run that loses or double-counts a VM
    // must not report a summary (fleet_sim exits non-zero).
    let (offered, placed, abandoned) =
        (c.total(|s| s.offered), c.total(|s| s.placed), c.total(|s| s.abandoned));
    assert_eq!(
        placed,
        c.completed + c.evicted + cluster.placements().len() as u64,
        "lifecycle accounting must tie out"
    );
    assert_eq!(
        offered,
        placed + abandoned,
        "admission accounting must tie out: every offer is placed or abandoned"
    );
    for (stats, class) in c.per_class.iter().zip(CLASS_NAMES) {
        assert_eq!(
            stats.offered,
            stats.placed + stats.abandoned,
            "{class} admission accounting must tie out"
        );
    }

    let fleet = cluster.fleet_metrics();
    let mut min_availability = f64::MAX;
    for node in cluster.nodes() {
        min_availability = min_availability.min(node.metrics().availability);
    }
    let per_part: Vec<PartUsage> = config
        .cluster
        .part_mix
        .iter()
        .enumerate()
        .map(|(p, part)| {
            let members: Vec<_> =
                records.iter().filter(|r| r.part == part.spec.name).collect();
            PartUsage {
                part: part.spec.name.clone(),
                nodes: members.len(),
                crashes: c.part_crashes[p],
                min_offset_mv_mean: if members.is_empty() {
                    0.0
                } else {
                    members.iter().map(|r| r.point.min_offset_mv()).sum::<f64>()
                        / members.len() as f64
                },
            }
        })
        .filter(|u| u.nodes > 0)
        .collect();

    let summary = ClusterSummary {
        nodes: config.cluster.nodes,
        seed: config.seed,
        margins: config.margins.label().to_string(),
        horizon_secs: config.horizon.as_secs(),
        tick_secs: dt.as_secs(),
        ticks,
        offered,
        placed,
        rejected: c.total(|s| s.rejected),
        retried: c.total(|s| s.retried),
        abandoned,
        expired_at_horizon: c.total(|s| s.expired_at_horizon),
        completed: c.completed,
        evicted: c.evicted,
        live_at_end: cluster.placements().len() as u64,
        crashes: c.crashes,
        crash_migrations: fleet.crash_migrations,
        migrations_settled: c.settled,
        proactive_migrations: fleet.migrations,
        sla_violations: c.total(|s| s.violations),
        migration_downtime_secs: fleet.migration_downtime.as_secs(),
        energy_j: c.energy_j,
        mean_availability: fleet.mean_availability,
        min_availability,
        mean_utilization: fleet.mean_utilization,
        min_offset_mv_mean: records.iter().map(|r| r.point.min_offset_mv()).sum::<f64>()
            / records.len() as f64,
        per_class: c.per_class,
        per_part,
        per_tick,
        chaos: config.chaos.is_some().then(|| {
            let node_secs = config.cluster.nodes as f64 * config.horizon.as_secs();
            ChaosOutcome {
                lost_capacity_node_hours: c.chaos.downtime_secs / 3600.0,
                availability: 1.0 - c.chaos.downtime_secs / node_secs,
                shed: c.total(|s| s.shed),
                ..c.chaos
            }
        }),
        policy: (config.policy != PolicyKind::EnergySla)
            .then(|| config.policy.label().to_string()),
        power: cluster.policy().manages().then(|| {
            let stats = cluster.power_stats();
            PowerOutcome {
                parks: stats.parks,
                wakes: stats.wakes,
                consolidation_migrations: stats.consolidation_migrations,
                ..c.power
            }
        }),
        gray: gray_active.then(|| GrayOutcome {
            degraded_node_hours: c.gray.degraded_node_secs / 3600.0,
            ..c.gray
        }),
    };
    let timing = OrchestratorTiming {
        wall_ms: wall_start.elapsed().as_secs_f64() * 1e3,
        deploy_ms: deploy_secs * 1e3,
        deploy_wall_ms,
        serve_ms: serve_start.elapsed().as_secs_f64() * 1e3,
        nodes: config.cluster.nodes,
        arrivals: offered,
        workers,
        tick_workers_mean: cluster.tick_workers_mean(),
        cores: cores(),
        stages: StageBreakdown {
            placement_ms: profiler.ms(Stage::Placement),
            predictor_ms: cluster.stages().ms(Stage::Predictor),
            hypervisor_tick_ms: cluster.stages().ms(Stage::NodeTick),
            retry_ms: profiler.ms(Stage::RetryQueue),
            recovery_ms: profiler.ms(Stage::Recovery),
            events_ms: profiler.ms(Stage::Events),
            rejoin_ms: profiler.ms(Stage::Rejoin),
            tick_wall_ms: profiler.ms(Stage::Tick),
            reduce_ms: cluster.stages().ms(Stage::Reduce),
        },
        work: cluster.work(),
    };
    (summary, timing)
}

#[cfg(test)]
mod tests {
    use super::*;

    use uniserver_cloudmgr::stream::VmStream;

    use crate::config::AdmissionPolicy;

    #[test]
    fn admission_retries_recover_rejections_and_tie_out() {
        // The full datacenter rate on a 2-node rack: heavily overloaded,
        // so the admission policy is actually exercised.
        let base = OrchestratorConfig {
            stream: VmStream::Flat { arrival_rate: 3.0 },
            ..OrchestratorConfig::smoke(2, 5)
        };
        let drop = run(&base.clone());
        let retrying =
            run(&OrchestratorConfig { admission: AdmissionPolicy::GoldPriority, ..base });

        assert!(drop.rejected > 0, "the rack must actually overload");
        assert_eq!(drop.retried, 0, "drop-all never re-offers");
        assert_eq!(drop.abandoned, drop.rejected, "drop-all abandons every rejection");
        assert_eq!(drop.offered, drop.placed + drop.abandoned);

        assert!(retrying.retried > 0, "gold-priority must re-offer queued rejections");
        assert_eq!(retrying.offered, retrying.placed + retrying.abandoned);
        assert_eq!(
            drop.offered, retrying.offered,
            "the admission policy must not change the arrival stream"
        );
        assert_eq!(
            retrying.per_class[2].retried, 0,
            "bronze has no budget under gold-priority"
        );
    }

    #[test]
    fn flash_crowd_runs_are_deterministic_for_any_worker_count() {
        let mut config = OrchestratorConfig {
            horizon: Seconds::new(600.0),
            ..OrchestratorConfig::flash_crowd(8, 42)
        };
        config.threads = 1;
        let a = run(&config);
        config.threads = 4;
        let b = run(&config);
        assert_eq!(a, b, "worker count must never leak into a flash-crowd summary");
        assert!(a.offered > 0);
        assert_eq!(a.offered, a.placed + a.abandoned);
    }

    #[test]
    fn smoke_run_places_and_completes_vms() {
        let summary = run(&OrchestratorConfig::smoke(8, 42));
        assert_eq!(summary.ticks, 60);
        assert!(summary.offered > 150, "0.75/s × 300 s ≈ 225 arrivals, got {}", summary.offered);
        assert!(summary.placed > 0 && summary.placed <= summary.offered);
        assert!(summary.completed > 0, "5-minute horizon must complete some 5-min-mean VMs");
        assert_eq!(summary.placed - summary.completed - summary.evicted, summary.live_at_end);
        assert!(summary.migrations_settled <= summary.crash_migrations);
        assert!(summary.energy_j > 0.0);
        assert_eq!(summary.per_tick.len(), 60);
        let total_offered: u64 = summary.per_tick.iter().map(|t| t.offered).sum();
        assert_eq!(total_offered, summary.offered, "time series must tie out");
        let class_offered: u64 = summary.per_class.iter().map(|c| c.offered).sum();
        assert_eq!(class_offered, summary.offered);
        // The end-of-horizon drain completes departures due in the
        // final (last tick start, horizon] window — completions the
        // per-tick series (which fires at tick *starts*) cannot see.
        let ticked_completed: u64 = summary.per_tick.iter().map(|t| t.completed).sum();
        assert!(
            ticked_completed < summary.completed,
            "the final-window drain must add completions: {ticked_completed} vs {}",
            summary.completed
        );
    }

    #[test]
    fn runs_are_deterministic_for_any_worker_count() {
        let mut config = OrchestratorConfig::smoke(6, 9);
        config.threads = 1;
        let a = run(&config);
        config.threads = 4;
        let b = run(&config);
        assert_eq!(a, b, "worker count must never leak into the summary");
        let c = run(&OrchestratorConfig { seed: 10, ..config });
        assert_ne!(a, c, "a different seed must produce a different run");
    }

    #[test]
    fn legacy_configs_report_no_chaos_outcome() {
        let summary = run(&OrchestratorConfig::smoke(4, 42));
        assert!(summary.chaos.is_none(), "no plan must keep the legacy shape");
        assert_eq!(summary.expired_at_horizon, 0, "drop-all leaves nothing queued to expire");

        // Crashes and re-offers without a plan: crashed nodes recover in
        // place, so no node is ever offline and no premium re-offer
        // sheds anyone. Shedding rides on the plan alone because of
        // this.
        let config = OrchestratorConfig {
            horizon: Seconds::new(900.0),
            ..OrchestratorConfig::flash_crowd(64, 2018)
        };
        let mut tel = Telemetry::disabled();
        tel.metrics = Some(uniserver_telemetry::MetricsRegistry::new());
        let (summary, _) = run_with_telemetry(&config, &mut tel);
        assert!(summary.crashes >= 1, "the flash rack must crash at least once");
        assert!(summary.retried >= 1, "gold re-admission must re-offer");
        let metrics = tel.metrics.expect("metrics registry was enabled");
        let offline = metrics.gauge("offline_nodes").expect("offline nodes are sampled every tick");
        assert_eq!(offline.max, 0, "without the lifecycle no node goes offline");
        assert!(
            summary.per_class.iter().all(|c| c.shed == 0),
            "nothing sheds without offline nodes"
        );
        assert!(summary.chaos.is_none());
    }

    #[test]
    fn chaos_profile_costs_real_capacity_and_repairs_it() {
        // The plan anchors to the shortened horizon, so the rack and
        // cooling failures land inside it.
        let config = OrchestratorConfig {
            horizon: Seconds::new(900.0),
            ..OrchestratorConfig::chaos_profile(12, 42)
        };
        let summary = run(&config);
        let chaos = summary.chaos.expect("the chaos profile must report an outcome");

        assert!(chaos.injected_crashes > 0, "the plan must inject crashes");
        assert!(chaos.nodes_offlined > 0, "lifecycle crashes must cost capacity");
        assert!(chaos.downtime_secs > 0.0, "offline windows must accrue downtime");
        assert!(chaos.rejoins > 0, "a 15-minute horizon must complete some 1–8 min repairs");
        assert!(chaos.peak_offline >= 1);
        assert!(chaos.availability < 1.0, "lost capacity must show in availability");
        assert!(chaos.availability > 0.0);
        assert!(
            (chaos.lost_capacity_node_hours - chaos.downtime_secs / 3600.0).abs() < 1e-12,
            "node-hours is the same downtime in different units"
        );
        // The accounting invariants hold under chaos too.
        assert_eq!(summary.offered, summary.placed + summary.abandoned);
        assert_eq!(
            summary.placed,
            summary.completed + summary.evicted + summary.live_at_end
        );
        assert!(
            summary.crashes >= chaos.injected_crashes,
            "injected events are counted in the crash total"
        );
    }

    #[test]
    fn chaos_runs_are_deterministic_for_any_worker_count() {
        let mut config = OrchestratorConfig::chaos_profile(8, 7);
        config.horizon = Seconds::new(600.0);
        config.threads = 1;
        let a = run(&config);
        config.threads = 4;
        let b = run(&config);
        assert_eq!(a, b, "worker count must never leak into a chaos summary");
        let chaos = a.chaos.expect("chaos outcome present");
        assert!(chaos.nodes_offlined > 0, "the 600 s profile must offline nodes");
    }

    #[test]
    fn gray_profile_quarantines_drains_and_readmits() {
        // The plan anchors to the shortened horizon, so the gray
        // trickle and the brownout window both land inside it.
        let config = OrchestratorConfig {
            horizon: Seconds::new(900.0),
            ..OrchestratorConfig::gray_profile(12, 42)
        };
        let summary = run(&config);
        let gray = summary.gray.expect("the gray profile must report an outcome");

        assert!(gray.gray_onsets > 0, "the campaign must degrade nodes");
        assert!(gray.probe_failures > 0, "degraded nodes must fail probes");
        assert!(gray.quarantines > 0, "3-of-8 hysteresis must trip on 90 % fail rates");
        assert!(gray.degraded_node_secs > 0.0, "degraded dwell must accrue");
        assert!(gray.peak_degraded >= 1);
        assert!(
            (gray.degraded_node_hours - gray.degraded_node_secs / 3600.0).abs() < 1e-12,
            "node-hours is the same dwell in different units"
        );
        assert!(
            gray.readmissions <= gray.quarantines,
            "a node must be quarantined before it can be readmitted"
        );
        assert!(
            gray.powercap_deficit_watt_secs > 0.0,
            "a 288 W cap on a 12-node fleet must run a deficit"
        );
        // Gray nodes never crash and never go offline, so the
        // accounting invariants hold with capacity merely capped.
        assert_eq!(summary.offered, summary.placed + summary.abandoned);
        assert_eq!(summary.placed, summary.completed + summary.evicted + summary.live_at_end);
    }

    #[test]
    fn gray_runs_are_deterministic_for_any_worker_count() {
        let mut config = OrchestratorConfig::gray_profile(8, 7);
        config.horizon = Seconds::new(600.0);
        config.threads = 1;
        let a = run(&config);
        config.threads = 4;
        let b = run(&config);
        assert_eq!(a, b, "worker count must never leak into a gray summary");
        let gray = a.gray.expect("gray outcome present");
        assert!(gray.gray_onsets > 0, "the 600 s profile must degrade nodes");
    }

    #[test]
    fn a_plan_brings_the_failure_lifecycle_to_a_flat_rack() {
        // The flat smoke rack under the rack-and-flash plan: its rack
        // failure always crashes a node, and every crash takes its node
        // offline instead of recovering in place.
        let config = OrchestratorConfig {
            chaos: Some(ChaosPlan::RackAndFlash),
            ..OrchestratorConfig::smoke(6, 9)
        };
        let summary = run(&config);
        let chaos = summary.chaos.expect("a plan must report an outcome");
        assert!(summary.crashes > 0, "the rack failure must crash a node");
        assert!(chaos.nodes_offlined > 0, "every crashed node must go offline");
        assert!(chaos.downtime_secs > 0.0);
        assert_eq!(summary.offered, summary.placed + summary.abandoned);
        assert_eq!(summary.placed, summary.completed + summary.evicted + summary.live_at_end);
    }

    #[test]
    fn extended_fleet_saves_energy_over_nominal() {
        let base = OrchestratorConfig::smoke(6, 2018);
        let extended = run(&OrchestratorConfig { margins: MarginPolicy::Extended, ..base.clone() });
        let nominal = run(&OrchestratorConfig { margins: MarginPolicy::Nominal, ..base });
        let saving = 1.0 - extended.energy_j / nominal.energy_j;
        assert!(saving > 0.03, "extended margins must save fleet energy, got {saving:.4}");
        assert_eq!(extended.margins, "extended");
        assert_eq!(nominal.margins, "nominal");
        assert_eq!(nominal.crashes, 0, "nominal guard-bands must not crash");
        assert_eq!(nominal.min_offset_mv_mean, 0.0);
        assert!(extended.min_offset_mv_mean > 20.0);
    }
}
