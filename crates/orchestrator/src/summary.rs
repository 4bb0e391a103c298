//! Deterministic run summaries: everything the JSON artefact reports.

use uniserver_cloudmgr::WorkLedger;

/// Per-SLA-class accounting (indexed gold/silver/bronze).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassStats {
    /// Arrivals offered at this class.
    pub offered: u64,
    /// Arrivals placed.
    pub placed: u64,
    /// Arrivals rejected (no feasible node). Counts every failed submit
    /// attempt, so re-offers that fail again are counted again.
    pub rejected: u64,
    /// Re-offer attempts made for this class's queued rejections.
    pub retried: u64,
    /// Arrivals dropped for good: retry budget exhausted, retry queue
    /// overflowed, or the horizon ended with them still queued. With the
    /// legacy drop-all policy every rejection abandons immediately.
    pub abandoned: u64,
    /// SLA violations charged to this class (evictions, and crash
    /// interruptions for gold/silver).
    pub violations: u64,
    /// Of `abandoned`: arrivals still queued when the horizon ended
    /// (never got a final verdict), as opposed to budget-exhausted or
    /// queue-overflow drops.
    pub expired_at_horizon: u64,
    /// Placements of this class shed (stopped early, bronze first) to
    /// free capacity for premium re-offers while nodes were offline.
    pub shed: u64,
}

/// One tick's fleet metrics — the summary's time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickMetrics {
    /// Tick index.
    pub tick: u64,
    /// Arrivals offered this tick.
    pub offered: u64,
    /// Arrivals placed this tick.
    pub placed: u64,
    /// Departures completed this tick.
    pub completed: u64,
    /// Live placements at end of tick.
    pub live: u64,
    /// Node crashes observed this tick.
    pub crashes: u64,
    /// Migrations this tick: crash evacuations, predictor-driven moves
    /// and watchdog drains. Consolidation drains are left out; the
    /// `power` outcome counts them.
    pub migrations: u64,
    /// Fleet energy consumed this tick, in joules.
    pub energy_j: f64,
}

/// What the failure lifecycle and the chaos engine did to one run —
/// present only when either is active, so legacy summaries stay
/// byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosOutcome {
    /// Synthetic crash events injected by the chaos plan (natural
    /// crashes are counted in the summary's `crashes` alongside them).
    pub injected_crashes: u64,
    /// Times a crashed node was taken offline for repair.
    pub nodes_offlined: u64,
    /// Repairs that finished and rejoined (re-characterized) within the
    /// horizon.
    pub rejoins: u64,
    /// Peak simultaneously-offline node count.
    pub peak_offline: u64,
    /// Summed offline node-seconds — real downtime, not reboot
    /// penalties.
    pub downtime_secs: f64,
    /// The same lost capacity in node-hours.
    pub lost_capacity_node_hours: f64,
    /// Capacity availability: `1 − downtime / (nodes × horizon)`.
    pub availability: f64,
    /// Placements shed (bronze first) to free capacity for premium
    /// re-offers while nodes were offline.
    pub shed: u64,
}

/// What a power-managing placement policy did to one run — `Some` only
/// when the active policy manages node power (consolidation), so
/// reference summaries stay byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerOutcome {
    /// Times a drained node was parked into the sleep state.
    pub parks: u64,
    /// Times an asleep node was woken (demand pressure).
    pub wakes: u64,
    /// Live migrations performed by consolidation drains (distinct from
    /// crash- and prediction-driven migrations).
    pub consolidation_migrations: u64,
    /// Summed asleep node-seconds over the run.
    pub asleep_node_secs: f64,
    /// Peak simultaneously-asleep node count.
    pub peak_asleep: u64,
}

/// What the gray-failure campaign and the health watchdog did to one
/// run — `Some` only when the chaos plan carries a gray or power-cap
/// campaign, so every other summary stays byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GrayOutcome {
    /// Gray-failure onsets injected (nodes that silently degraded).
    pub gray_onsets: u64,
    /// Watchdog probes that failed.
    pub probe_failures: u64,
    /// Nodes the watchdog quarantined (K-of-N hysteresis tripped).
    pub quarantines: u64,
    /// Quarantined nodes that survived probation and were readmitted.
    pub readmissions: u64,
    /// Summed degraded node-seconds (onset until clear or readmit).
    pub degraded_node_secs: f64,
    /// The same degraded dwell in node-hours.
    pub degraded_node_hours: f64,
    /// Peak simultaneously-degraded node count.
    pub peak_degraded: u64,
    /// Accumulated fleet-draw excess over the brownout cap, in W·s —
    /// the energy the cap demanded but the fleet had not yet shed.
    pub powercap_deficit_watt_secs: f64,
    /// Placements shed (bronze first) to get back under the cap.
    pub powercap_sheds: u64,
}

/// Per-part aggregation of the rack.
#[derive(Debug, Clone, PartialEq)]
pub struct PartUsage {
    /// Part name.
    pub part: String,
    /// Nodes of this part in the rack.
    pub nodes: usize,
    /// Crashes attributed to the part's nodes.
    pub crashes: u64,
    /// Mean deployed EOP depth (weakest-core offset) across its nodes.
    pub min_offset_mv_mean: f64,
}

/// The deterministic summary of one orchestrated run. `PartialEq` is the
/// determinism contract: two runs of the same config must compare equal
/// whatever the deploy worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSummary {
    /// Node count.
    pub nodes: usize,
    /// Scenario seed.
    pub seed: u64,
    /// Margin policy label (`"extended"` / `"nominal"`).
    pub margins: String,
    /// Simulated horizon in seconds.
    pub horizon_secs: f64,
    /// Tick length in seconds.
    pub tick_secs: f64,
    /// Ticks simulated.
    pub ticks: u64,
    /// Arrivals offered to the scheduler.
    pub offered: u64,
    /// Arrivals placed.
    pub placed: u64,
    /// Arrivals rejected (every failed submit attempt, re-offers
    /// included).
    pub rejected: u64,
    /// Re-offer attempts made for queued rejections (admission policy).
    pub retried: u64,
    /// Arrivals dropped for good — `offered = placed + abandoned` after
    /// the horizon flushes the retry queue.
    pub abandoned: u64,
    /// Of `abandoned`: arrivals the horizon flush expired while still
    /// queued, as opposed to budget-exhausted or overflow drops.
    pub expired_at_horizon: u64,
    /// Placements whose lifetime completed normally.
    pub completed: u64,
    /// Placements evicted after crashes (no healthy node fit them).
    pub evicted: u64,
    /// Placements still live when the horizon ended.
    pub live_at_end: u64,
    /// Node crashes observed.
    pub crashes: u64,
    /// Failure-driven migrations performed after crashes.
    pub crash_migrations: u64,
    /// Crash migrations whose pre-copy settled within the horizon (the
    /// event queue's `MigrationSettled` events that fired).
    pub migrations_settled: u64,
    /// Migrations not forced by a crash: moves off nodes the failure
    /// predictor flagged plus watchdog drains of quarantined nodes. The
    /// metrics registry's `proactive_migrations` counter holds only the
    /// predictor moves; consolidation drains are counted in `power`.
    pub proactive_migrations: u64,
    /// Total SLA violations (all classes).
    pub sla_violations: u64,
    /// Cumulative migration blackout, in seconds.
    pub migration_downtime_secs: f64,
    /// Fleet energy over the run, in joules.
    pub energy_j: f64,
    /// Mean and minimum node availability at the end of the run.
    pub mean_availability: f64,
    pub min_availability: f64,
    /// Mean node utilization at the end of the run.
    pub mean_utilization: f64,
    /// Mean deployed EOP depth across the rack, in millivolts.
    pub min_offset_mv_mean: f64,
    /// Per-class accounting, in gold/silver/bronze order.
    pub per_class: [ClassStats; 3],
    /// Per-part aggregation, in part-mix order.
    pub per_part: Vec<PartUsage>,
    /// The per-tick time series.
    pub per_tick: Vec<TickMetrics>,
    /// Failure-lifecycle and chaos accounting — `Some` only when a
    /// chaos plan (and with it the lifecycle) was active for the run.
    pub chaos: Option<ChaosOutcome>,
    /// The placement-policy label — `Some` only when the run deviates
    /// from the default energy/SLA reference policy.
    pub policy: Option<String>,
    /// Power-management accounting — `Some` only when the active policy
    /// manages node power.
    pub power: Option<PowerOutcome>,
    /// Gray-failure and watchdog accounting — `Some` only under the
    /// gray chaos plan.
    pub gray: Option<GrayOutcome>,
}

/// Per-phase wall-clock attribution of the serving loop, from the
/// run's [`uniserver_telemetry::StageProfiler`]. Machine-local like the
/// rest of [`OrchestratorTiming`]; all values in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageBreakdown {
    /// Arrival-batch admission (scheduler submits) at tick starts.
    pub placement_ms: f64,
    /// Failure-predictor score updates inside the node-tick shards.
    pub predictor_ms: f64,
    /// Per-node hypervisor advancement inside the node-tick shards.
    pub hypervisor_tick_ms: f64,
    /// Retry-queue re-offers (admission-policy path).
    pub retry_ms: f64,
    /// Failure-driven crash recovery (migrate / evict / offline).
    pub recovery_ms: f64,
    /// Event-queue drains (departures, migration settlements).
    pub events_ms: f64,
    /// Repair countdowns and rejoin re-characterization passes.
    pub rejoin_ms: f64,
    /// The whole fleet-tick phase, fan-out and reduce included (a
    /// superset of the hypervisor-tick and predictor shard time and of
    /// `reduce_ms`).
    pub tick_wall_ms: f64,
    /// The tick's sequential reduce and proactive-migration pass, timed
    /// directly on the caller's thread.
    pub reduce_ms: f64,
}

/// Wall-clock accounting of one run — machine-local, deliberately kept
/// out of [`ClusterSummary`] so the deterministic artefact stays
/// byte-stable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrchestratorTiming {
    /// End-to-end wall-clock, in milliseconds.
    pub wall_ms: f64,
    /// Deploy CPU time, in milliseconds: the sum of every deploy
    /// worker's wall-clock over its node range, so it does not fall as
    /// workers are added.
    pub deploy_ms: f64,
    /// Deploy wall-clock, in milliseconds.
    pub deploy_wall_ms: f64,
    /// Event-loop (serve) wall-clock, in milliseconds.
    pub serve_ms: f64,
    /// Nodes deployed.
    pub nodes: usize,
    /// VM arrivals driven.
    pub arrivals: u64,
    /// Worker threads used for deploy, and the cap on the threads each
    /// serving tick may fan out to (the resolved count: `threads: 0`
    /// means one per core, and explicit requests clamp to the core
    /// count).
    pub workers: usize,
    /// Mean number of threads a serving tick's per-node phase actually
    /// ran on: below `workers` when ticks too small to spread ran on
    /// the calling thread.
    pub tick_workers_mean: f64,
    /// CPU cores available on the benching machine — recorded so a
    /// wall-clock from a single-core container is never mistaken for a
    /// multi-worker regression.
    pub cores: usize,
    /// Per-phase attribution of the serving loop.
    pub stages: StageBreakdown,
    /// What the serving loop counted doing: deterministic, unlike every
    /// other field here.
    pub work: WorkLedger,
}
