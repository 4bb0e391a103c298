//! `fleet_sim` — parallel fleet-scale UniServer simulation.
//!
//! Two modes share one binary:
//!
//! **Fleet mode** (default) deploys N *independent* ecosystems (per-node
//! seeds derived from the fleet seed), serves each for the configured
//! horizon, and prints a deterministic JSON fleet summary to stdout.
//!
//! **Cluster mode** (`--cluster`) is the cluster-in-the-loop
//! orchestrator: the same N nodes become one rack behind an energy/
//! SLA-aware scheduler, a seeded arrival process offers VM requests
//! every tick, and node crashes trigger failure-driven eviction and
//! migration. Defaults to the headline scenario — 256 mixed ARM+i5+i7
//! nodes, a simulated hour, ≥10⁴ VM arrivals.
//!
//! ```text
//! fleet_sim [--nodes N] [--seed S] [--secs T] [--threads K]
//!           [--mixed] [--baseline] [--bench PATH] [--label NAME]
//!           [--no-per-node]
//! fleet_sim --cluster [--nodes N] [--seed S] [--secs T] [--tick DT]
//!           [--threads K] [--nominal] [--profile flat|flash|chaos|gray]
//!           [--policy energy-sla|consolidate|reliability-blind]
//!           [--place linear|indexed] [--bench PATH] [--label NAME]
//!           [--no-per-tick] [--per-tick-every N]
//!           [--trace-out PATH] [--metrics-out PATH]
//! ```
//!
//! * `--mixed` (fleet mode) deploys the heterogeneous reference fleet
//!   (ARM + i5 + i7 at 6:1:1, per-node guest mixes, ±6 °C ambient
//!   spread) instead of a homogeneous ARM fleet.
//! * `--baseline` (fleet mode) reproduces the PR 1 deploy semantics —
//!   single-pass shmoo ladders and per-node predictor training.
//! * `--nominal` (cluster mode) runs the rack at conservative
//!   guard-bands instead of Extended Operating Points — the ablation
//!   baseline for energy/SLA comparisons.
//! * `--profile flash` (cluster mode) swaps the default flat arrival
//!   stream for the traffic engine's flash-crowd scenario:
//!   capacity-scaled arrivals, diurnal modulation, seeded burst epochs,
//!   bounded-Pareto lifetimes, and gold-priority re-admission of
//!   rejected arrivals. `--profile chaos` layers the failure lifecycle
//!   and the seeded rack-and-flash fault campaigns on top of the flash
//!   profile: crashed nodes go offline for seeded MTTR windows, rejoin
//!   through re-characterization, and the summary reports downtime,
//!   lost capacity and availability. `--profile gray` runs the
//!   gray-failure scenario: a seeded trickle of silent degradations
//!   (capacity capped, CE rate elevated, no crash), the orchestrator's
//!   probe watchdog quarantining, draining and readmitting suspects on
//!   K-of-N hysteresis, and a fleet-wide power cap over the back half
//!   of the run (the summary grows a `gray` object). `--profile flat`
//!   is the default and reproduces the legacy stream byte-for-byte.
//! * `--policy` (cluster mode) selects the placement policy the rack
//!   routes every decision through. `energy-sla` is the reference
//!   energy/SLA scorer and reproduces the default stdout byte-for-byte;
//!   `consolidate` packs VMs onto the fewest nodes and parks drained
//!   nodes in a near-zero-power sleep state (the summary grows a
//!   `power` object); `reliability-blind` is the ablation that ignores
//!   the failure predictor entirely. Unknown names exit non-zero before
//!   anything runs.
//! * `--place linear` (cluster mode) routes placement through the
//!   reference `Scheduler::place_linear` scan instead of the default
//!   incremental index — the two are equivalent by construction, and CI
//!   byte-diffs their stdout to prove it.
//! * `--bench PATH` appends one JSON timing line (label, nodes, threads,
//!   wall/deploy/serve ms, deploy + serve ms per node — cluster mode
//!   adds the arrival count, margins, fleet energy and crash count) to
//!   PATH: `BENCH_fleet.json` / `BENCH_cluster.json`. Timings are
//!   machine-local wall-clock and deliberately *not* part of the
//!   summary on stdout.
//! * `--metrics-out PATH` (cluster mode) writes the deterministic
//!   tick-domain metrics registry — counters, min/max gauges and
//!   fixed-log2-bucket histograms (queue-wait, VM lifetime, retry
//!   depth, MTTR, per-class time-to-abandon) — as one JSON object.
//!   `--trace-out PATH` streams the sim-time-stamped NDJSON event
//!   trace (arrival/place/reject/reoffer/shed/crash/offline/rejoin/
//!   migration). Both are byte-identical for any `--threads` value;
//!   both paths are validated upfront (unwritable exits non-zero).
//! * `--per-tick-every N` (cluster mode) keeps only every Nth row of
//!   the per-tick series (tick 0 always included); `1` — the default —
//!   reproduces the legacy stdout byte-for-byte.
//! * `--threads K` drives the deploy workers in both modes **and** the
//!   cluster mode's sharded serving loop (`Cluster::tick` on scoped
//!   threads, one contiguous node chunk each): per-node advancement
//!   runs on K workers (0 = one per core; clamped to the core count),
//!   every reduce stays sequential in node-index order.
//!
//! Both modes print byte-identical stdout for any `--threads` value —
//! the determinism the paper's methodology demands of every experiment
//! in this workspace. Unknown flags exit non-zero with a usage message.

use std::io::Write as _;
use std::process::ExitCode;

use uniserver_bench::cluster::{bench_record, summary_to_json};
use uniserver_bench::fleet::{simulate_timed, FleetConfig};
use uniserver_orchestrator::{run_with_telemetry, MarginPolicy, OrchestratorConfig, PolicyKind};
use uniserver_telemetry::{MetricsRegistry, Telemetry, TraceSink};
use uniserver_stress::campaign::ShmooCampaign;
use uniserver_units::Seconds;

/// The cluster-mode scenario profile behind `--profile`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Profile {
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

struct Args {
    cluster: bool,
    nodes: Option<usize>,
    seed: u64,
    secs: Option<f64>,
    tick: Option<f64>,
    threads: usize,
    per_node: bool,
    per_tick: bool,
    mixed: bool,
    baseline: bool,
    nominal: bool,
    /// `None` = flag absent (so fleet mode can reject *any*
    /// `--profile`).
    profile: Option<Profile>,
    /// `None` = flag absent (so fleet mode can reject *any* `--policy`,
    /// including the default-equivalent `energy-sla`).
    policy: Option<PolicyKind>,
    /// `Some(true)` = linear, `Some(false)` = indexed; `None` = flag
    /// absent (so fleet mode can reject *any* `--place`, not just
    /// `--place linear`).
    linear_place: Option<bool>,
    bench: Option<String>,
    label: Option<String>,
    /// NDJSON event-trace output path (cluster mode).
    trace_out: Option<String>,
    /// Metrics-registry JSON output path (cluster mode).
    metrics_out: Option<String>,
    /// Keep only every Nth per-tick row (1 = all, the legacy shape).
    per_tick_every: u64,
}

fn parse(mut argv: std::env::Args) -> Result<Args, String> {
    let _ = argv.next(); // program name
    let mut args = Args {
        cluster: false,
        nodes: None,
        seed: 2018,
        secs: None,
        tick: None,
        threads: 0,
        per_node: true,
        per_tick: true,
        mixed: false,
        baseline: false,
        nominal: false,
        profile: None,
        policy: None,
        linear_place: None,
        bench: None,
        label: None,
        trace_out: None,
        metrics_out: None,
        per_tick_every: 1,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--cluster" => args.cluster = true,
            "--nodes" => {
                args.nodes = Some(value("--nodes")?.parse().map_err(|e| format!("--nodes: {e}"))?);
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--secs" => {
                args.secs = Some(value("--secs")?.parse().map_err(|e| format!("--secs: {e}"))?);
            }
            "--tick" => {
                args.tick = Some(value("--tick")?.parse().map_err(|e| format!("--tick: {e}"))?);
            }
            "--threads" => {
                args.threads = value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?;
            }
            "--no-per-node" => args.per_node = false,
            "--no-per-tick" => args.per_tick = false,
            "--mixed" => args.mixed = true,
            "--baseline" => args.baseline = true,
            "--nominal" => args.nominal = true,
            "--profile" => {
                args.profile = Some(match value("--profile")?.as_str() {
                    "flash" => Profile::Flash,
                    "flat" => Profile::Flat,
                    "chaos" => Profile::Chaos,
                    "gray" => Profile::Gray,
                    other => {
                        return Err(format!(
                            "--profile must be flat, flash, chaos or gray, got '{other}'"
                        ))
                    }
                });
            }
            "--policy" => {
                let name = value("--policy")?;
                args.policy = Some(PolicyKind::parse(&name).ok_or_else(|| {
                    format!(
                        "--policy must be energy-sla, consolidate or reliability-blind, \
                         got '{name}'"
                    )
                })?);
            }
            "--place" => {
                args.linear_place = Some(match value("--place")?.as_str() {
                    "linear" => true,
                    "indexed" => false,
                    other => return Err(format!("--place must be linear or indexed, got '{other}'")),
                });
            }
            "--bench" => args.bench = Some(value("--bench")?),
            "--label" => args.label = Some(value("--label")?),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")?),
            "--per-tick-every" => {
                args.per_tick_every = value("--per-tick-every")?
                    .parse()
                    .map_err(|e| format!("--per-tick-every: {e}"))?;
            }
            "--help" | "-h" => {
                return Err(String::new());
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.nodes == Some(0) {
        return Err("--nodes must be at least 1".into());
    }
    if args.secs.is_some_and(|s| s <= 0.0 || !s.is_finite()) {
        return Err("--secs must be positive".into());
    }
    if args.tick.is_some_and(|t| t <= 0.0 || !t.is_finite()) {
        return Err("--tick must be positive".into());
    }
    if args.per_tick_every == 0 {
        return Err("--per-tick-every must be at least 1".into());
    }
    if args.cluster {
        if args.mixed {
            return Err("--mixed is implied by --cluster (the rack is always mixed)".into());
        }
        if args.baseline {
            return Err("--baseline is a fleet-mode flag; use --nominal with --cluster".into());
        }
        if !args.per_node {
            return Err("--no-per-node is a fleet-mode flag; use --no-per-tick with --cluster".into());
        }
    } else {
        if args.nominal {
            return Err("--nominal requires --cluster".into());
        }
        if args.linear_place.is_some() {
            return Err("--place requires --cluster (fleet mode has no scheduler)".into());
        }
        if args.profile.is_some() {
            return Err("--profile requires --cluster (fleet mode has no arrival stream)".into());
        }
        if args.policy.is_some() {
            return Err("--policy requires --cluster (fleet mode has no scheduler)".into());
        }
        if args.tick.is_some() {
            return Err("--tick requires --cluster (fleet mode uses a fixed 1 s tick)".into());
        }
        if !args.per_tick {
            return Err("--no-per-tick requires --cluster; use --no-per-node in fleet mode".into());
        }
        if args.trace_out.is_some() {
            return Err("--trace-out requires --cluster (fleet mode has no event trace)".into());
        }
        if args.metrics_out.is_some() {
            return Err("--metrics-out requires --cluster (fleet mode has no metrics registry)".into());
        }
        if args.per_tick_every != 1 {
            return Err("--per-tick-every requires --cluster (fleet mode has no tick series)".into());
        }
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: fleet_sim [--nodes N] [--seed S] [--secs T] [--threads K] \
         [--mixed] [--baseline] [--bench PATH] [--label NAME] [--no-per-node]\n\
         \x20      fleet_sim --cluster [--nodes N] [--seed S] [--secs T] [--tick DT] \
         [--threads K] [--nominal] [--profile flat|flash|chaos|gray] \
         [--policy energy-sla|consolidate|reliability-blind] [--place linear|indexed] \
         [--bench PATH] [--label NAME] [--no-per-tick] [--per-tick-every N] \
         [--trace-out PATH] [--metrics-out PATH]"
    );
}

fn append_bench(path: &str, line: &str) -> ExitCode {
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"));
    if let Err(e) = appended {
        eprintln!("error: cannot append bench record to {path}: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run_cluster(args: Args) -> ExitCode {
    let nodes = args.nodes.unwrap_or(256);
    let profile = args.profile.unwrap_or(Profile::Flat);
    let mut config = match profile {
        Profile::Flat => OrchestratorConfig::datacenter(nodes, args.seed),
        Profile::Flash => OrchestratorConfig::flash_crowd(nodes, args.seed),
        Profile::Chaos => OrchestratorConfig::chaos_profile(nodes, args.seed),
        Profile::Gray => OrchestratorConfig::gray_profile(nodes, args.seed),
    };
    if let Some(secs) = args.secs {
        config.horizon = Seconds::new(secs);
    }
    if let Some(tick) = args.tick {
        config.tick = Seconds::new(tick);
    }
    if args.secs.is_some() || args.tick.is_some() {
        // The fault campaigns anchor to tick fractions of the horizon:
        // re-derive the plan so the rack, cooling and brownout windows
        // land inside whatever span was actually requested.
        match profile {
            Profile::Chaos => {
                config.chaos =
                    Some(uniserver_orchestrator::ChaosPlan::rack_and_flash(config.ticks()));
            }
            Profile::Gray => {
                #[allow(clippy::cast_possible_truncation)]
                let fleet_width = nodes as u32;
                config.chaos = Some(uniserver_orchestrator::ChaosPlan::gray_brownout(
                    config.ticks(),
                    fleet_width,
                ));
            }
            Profile::Flat | Profile::Flash => {}
        }
    }
    config.threads = args.threads;
    config.linear_placement = args.linear_place.unwrap_or(false);
    if let Some(policy) = args.policy {
        config.policy = policy;
    }
    if args.nominal {
        config.margins = MarginPolicy::Nominal;
    }

    // Telemetry sinks open before the run so an unwritable path fails
    // fast instead of discarding an hour of simulation.
    let mut tel = Telemetry::disabled();
    if let Some(path) = &args.trace_out {
        match TraceSink::create(path) {
            Ok(sink) => tel.trace = Some(sink),
            Err(e) => {
                eprintln!("error: cannot create trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let metrics_file = if let Some(path) = &args.metrics_out {
        match std::fs::File::create(path) {
            Ok(f) => {
                tel.metrics = Some(MetricsRegistry::new());
                Some(f)
            }
            Err(e) => {
                eprintln!("error: cannot create metrics file {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let (mut summary, timing) = run_with_telemetry(&config, &mut tel);
    if args.per_tick_every > 1 {
        let every = args.per_tick_every;
        summary.per_tick.retain(|t| t.tick % every == 0);
    }
    println!("{}", summary_to_json(&summary, args.per_tick));

    if let Some(mut f) = metrics_file {
        let json = tel.metrics.take().expect("metrics registry was enabled").to_json();
        if let Err(e) = writeln!(f, "{json}") {
            eprintln!(
                "error: cannot write metrics to {}: {e}",
                args.metrics_out.as_deref().unwrap_or_default()
            );
            return ExitCode::FAILURE;
        }
    }
    if let Some(sink) = tel.trace.take() {
        if let Err(e) = sink.finish() {
            eprintln!(
                "error: cannot write trace to {}: {e}",
                args.trace_out.as_deref().unwrap_or_default()
            );
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = args.bench {
        let label = args.label.unwrap_or_else(|| {
            let tag = match profile {
                Profile::Flat => "",
                Profile::Flash => "-flash",
                Profile::Chaos => "-chaos",
                Profile::Gray => "-gray",
            };
            // The reference policy keeps the legacy label; deviations
            // tag themselves so a BENCH_policy.json matrix reads as one.
            let policy = match config.policy {
                PolicyKind::EnergySla => String::new(),
                other => format!("-{}", other.label()),
            };
            format!("cluster{tag}{policy}-{}", summary.margins)
        });
        return append_bench(&path, &bench_record(&summary, &timing, &label));
    }
    ExitCode::SUCCESS
}

fn run_fleet(args: Args) -> ExitCode {
    let nodes = args.nodes.unwrap_or(64);
    let base = if args.mixed {
        FleetConfig::mixed(nodes, args.seed)
    } else {
        FleetConfig::quick(nodes, args.seed)
    };
    let mut config = FleetConfig {
        horizon: Seconds::new(args.secs.unwrap_or(120.0)),
        threads: args.threads,
        ..base
    };
    if args.baseline {
        // PR 1 deploy semantics: single-pass shmoo, train per node.
        config.deployment.stress_params.shmoo =
            ShmooCampaign { coarse_factor: 1, ..config.deployment.stress_params.shmoo };
        config.share_training = false;
    }

    let (mut summary, timing) = simulate_timed(&config);
    if !args.per_node {
        summary.per_node.clear();
    }
    println!("{}", summary.to_json());

    if let Some(path) = args.bench {
        let label = args.label.unwrap_or_else(|| {
            let mode = if args.baseline { "baseline" } else { "fast" };
            let mix = if args.mixed { "mixed" } else { "arm" };
            format!("{mix}-{mode}")
        });
        return append_bench(&path, &timing.to_json(&label));
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse(std::env::args()) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            usage();
            return if msg.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
        }
    };
    if args.cluster {
        run_cluster(args)
    } else {
        run_fleet(args)
    }
}
