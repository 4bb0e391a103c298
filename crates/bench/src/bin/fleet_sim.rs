//! `fleet_sim` — the cluster-in-the-loop UniServer rack simulation.
//!
//! N nodes are deployed at their Extended Operating Points into one
//! rack behind an energy/SLA-aware scheduler, a seeded arrival process
//! offers VM requests every tick, and node crashes trigger
//! failure-driven eviction and migration. The deterministic JSON run
//! summary goes to stdout. Defaults to the headline scenario — 256
//! mixed ARM+i5+i7 nodes, a simulated hour, ≥10⁴ VM arrivals.
//!
//! ```text
//! fleet_sim [--cluster] [--nodes N] [--seed S] [--secs T] [--tick DT]
//!           [--threads K] [--nominal] [--profile flat|flash|chaos|gray]
//!           [--policy energy-sla|consolidate|reliability-blind]
//!           [--bench PATH] [--label NAME]
//!           [--no-per-tick]
//!           [--trace-out PATH] [--metrics-out PATH]
//! ```
//!
//! * `--cluster` is accepted for existing scripts and changes nothing:
//!   `fleet_sim` always runs the rack.
//! * `--nominal` runs the rack at conservative guard-bands instead of
//!   Extended Operating Points — the ablation baseline for energy/SLA
//!   comparisons.
//! * `--profile flash` swaps the default flat arrival stream for the
//!   traffic engine's flash-crowd scenario: capacity-scaled arrivals,
//!   diurnal modulation, seeded burst epochs, bounded-Pareto lifetimes,
//!   and gold-priority re-admission of rejected arrivals.
//!   `--profile chaos` layers the failure lifecycle and the seeded
//!   rack-and-flash fault campaigns on top of the flash profile: crashed
//!   nodes go offline for seeded MTTR windows, rejoin through
//!   re-characterization, and the summary reports downtime, lost
//!   capacity and availability. `--profile gray` runs the gray-failure
//!   scenario: a seeded trickle of silent degradations (capacity capped,
//!   CE rate elevated, no crash), the orchestrator's probe watchdog
//!   quarantining, draining and readmitting suspects on K-of-N
//!   hysteresis, and a fleet-wide power cap over the third quarter of
//!   the run (the summary grows a `gray` object). `--profile flat` is the
//!   default and reproduces the legacy stream byte-for-byte.
//! * `--policy` selects the placement policy the rack routes every
//!   decision through. `energy-sla` is the reference energy/SLA scorer
//!   and reproduces the default stdout byte-for-byte; `consolidate`
//!   packs VMs onto the fewest nodes and parks drained nodes in a
//!   near-zero-power sleep state (the summary grows a `power` object);
//!   `reliability-blind` is the ablation that ignores the failure
//!   predictor entirely. Unknown names exit non-zero before anything
//!   runs.
//! * `--bench PATH` appends one JSON timing line (label, nodes, threads,
//!   wall/deploy/serve ms, deploy + serve ms per node, the arrival
//!   count, margins, fleet energy, crash count and, where
//!   `/proc/self/status` exists, the process's peak RSS) to PATH, e.g.
//!   `BENCH_cluster.json`, with a deterministic `work` object (node and
//!   steady intervals, index flushes, nodes re-weighed). Timings are
//!   machine-local wall-clock and deliberately *not* part of the
//!   summary on stdout.
//! * `--metrics-out PATH` writes the deterministic tick-domain metrics
//!   registry — counters, min/max gauges and fixed-log2-bucket
//!   histograms (queue-wait, VM lifetime, retry depth, MTTR, per-class
//!   time-to-abandon) — as one JSON object. `--trace-out PATH` streams
//!   the sim-time-stamped NDJSON event trace (arrival/place/reject/
//!   reoffer/shed/crash/offline/rejoin/migration). Both are
//!   byte-identical for any `--threads` value; both paths are validated
//!   upfront (unwritable exits non-zero).
//! * `--threads K` drives the deploy workers **and** caps the sharded
//!   serving loop (0 = one per core; clamped to the core count): each
//!   tick's per-node advancement runs on up to K workers, one contiguous
//!   chunk of awake nodes each, or on the calling thread alone when its
//!   measured work is too small to spread. Every reduce stays
//!   sequential in node-index order.
//!
//! Stdout is byte-identical for any `--threads` value — the determinism
//! the paper's methodology demands of every experiment in this
//! workspace. Unknown flags exit non-zero with a usage message.

use std::io::Write as _;
use std::process::ExitCode;

use uniserver_bench::cluster::{bench_record, scenario, summary_to_json, Profile};
use uniserver_orchestrator::{run_with_telemetry, MarginPolicy, PolicyKind};
use uniserver_telemetry::{MetricsRegistry, Telemetry, TraceSink};

struct Args {
    nodes: usize,
    seed: u64,
    secs: Option<f64>,
    tick: Option<f64>,
    threads: usize,
    per_tick: bool,
    nominal: bool,
    profile: Profile,
    policy: PolicyKind,
    bench: Option<String>,
    label: Option<String>,
    /// NDJSON event-trace output path.
    trace_out: Option<String>,
    /// Metrics-registry JSON output path.
    metrics_out: Option<String>,
}

fn parse(mut argv: std::env::Args) -> Result<Args, String> {
    let _ = argv.next(); // program name
    let mut args = Args {
        nodes: 256,
        seed: 2018,
        secs: None,
        tick: None,
        threads: 0,
        per_tick: true,
        nominal: false,
        profile: Profile::Flat,
        policy: PolicyKind::EnergySla,
        bench: None,
        label: None,
        trace_out: None,
        metrics_out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            // Accepted for existing scripts; the rack is the only mode.
            "--cluster" => {}
            "--nodes" => {
                args.nodes = value("--nodes")?.parse().map_err(|e| format!("--nodes: {e}"))?;
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
            "--no-per-tick" => args.per_tick = false,
            "--nominal" => args.nominal = true,
            "--profile" => args.profile = Profile::parse(&value("--profile")?)?,
            "--policy" => {
                let name = value("--policy")?;
                args.policy = PolicyKind::parse(&name).ok_or_else(|| {
                    format!(
                        "--policy must be energy-sla, consolidate or reliability-blind, \
                         got '{name}'"
                    )
                })?;
            }
            "--bench" => args.bench = Some(value("--bench")?),
            "--label" => args.label = Some(value("--label")?),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")?),
            "--help" | "-h" => {
                return Err(String::new());
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.nodes == 0 {
        return Err("--nodes must be at least 1".into());
    }
    if args.secs.is_some_and(|s| s <= 0.0 || !s.is_finite()) {
        return Err("--secs must be positive".into());
    }
    if args.tick.is_some_and(|t| t <= 0.0 || !t.is_finite()) {
        return Err("--tick must be positive".into());
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: fleet_sim [--cluster] [--nodes N] [--seed S] [--secs T] [--tick DT] \
         [--threads K] [--nominal] [--profile flat|flash|chaos|gray] \
         [--policy energy-sla|consolidate|reliability-blind] [--bench PATH] \
         [--label NAME] [--no-per-tick] \
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

fn run(args: Args) -> ExitCode {
    let mut config = scenario(args.profile, args.nodes, args.seed, args.secs, args.tick);
    config.threads = args.threads;
    config.policy = args.policy;
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

    let (summary, timing) = run_with_telemetry(&config, &mut tel);
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
            let tag = match args.profile {
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
    run(args)
}
