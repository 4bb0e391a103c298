//! `layer_replay` — times the public serving-path functions of each
//! crate, one call at a time, over a fixed seeded sample of
//! node-intervals on a rack built with
//! [`uniserver_orchestrator::deploy_cluster`].
//!
//! ```text
//! layer_replay --nodes N --seed S --secs T [--profile flat|flash|chaos|gray]
//!              [--policy energy-sla|consolidate|reliability-blind] [--nominal]
//! ```
//!
//! The rack serves the whole `T`-second horizon of its own arrival
//! stream (`Cluster::submit` fed by `VmStream::tick_arrivals_scaled`,
//! departures at each arrival's lifetime) and advances with the
//! sequential `Cluster::tick`. The fault campaigns of the orchestrator's
//! serve loop are not replayed. On [`SAMPLE_TICKS`] ticks spread evenly
//! over the horizon, [`SAMPLES_PER_TICK`] seeded online nodes are
//! replayed on clones before the tick, so the rack itself never sees the
//! timed calls:
//!
//! * `Hypervisor::tick` on one clone of the node;
//! * `ServerNode::run_interval` then `HealthLog::ingest_owned` on a
//!   second clone, fed the same merged guest workload the tick uses;
//! * `FailurePredictor::observe` on the first clone's post-tick log,
//!   against a predictor kept current on every node after every tick.
//!
//! Resident-memory growth is summed over the `Cluster::tick` spans only,
//! so the replay's own predictor, clones and sample buffers do not count;
//! the memory the clones free is handed back to the kernel before the
//! tick that follows them, so the rack cannot grow into it unseen.
//!
//! After the last tick, seeded nodes that host placements are crashed
//! and evacuated (`Cluster::recover_from_crash`), and others are
//! degraded, quarantined and drained (`Cluster::drain_degraded`).
//!
//! Prints one JSON object on stdout: per-call medians in microseconds,
//! sample counts, and the resident-memory growth per node-hour.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use uniserver_cloudmgr::{FailurePredictor, GrayState, NodeId, NodePhase, PlacementId};
use uniserver_hypervisor::Hypervisor;
use uniserver_orchestrator::{deploy_cluster, MarginPolicy, OrchestratorConfig, PolicyKind};
use uniserver_platform::WorkloadProfile;
use uniserver_silicon::rng::splitmix64;

/// Ticks on which nodes are sampled, spread evenly over the horizon.
const SAMPLE_TICKS: u64 = 96;
/// Nodes sampled on each sampled tick.
const SAMPLES_PER_TICK: u64 = 4;
/// Evacuations and drains timed at the end of the replay.
const LIFECYCLE_SAMPLES: usize = 16;
/// Migrations per drain call: the standard watchdog's per-tick budget.
const DRAIN_BUDGET: usize = 4;

struct Args {
    nodes: usize,
    seed: u64,
    secs: f64,
    profile: String,
    policy: PolicyKind,
    nominal: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        nodes: 0,
        seed: 2018,
        secs: 0.0,
        profile: "flat".into(),
        policy: PolicyKind::EnergySla,
        nominal: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--nodes" => args.nodes = value()?.parse().map_err(|e| format!("--nodes: {e}"))?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--secs" => args.secs = value()?.parse().map_err(|e| format!("--secs: {e}"))?,
            "--profile" => args.profile = value()?,
            "--policy" => {
                let name = value()?;
                args.policy = PolicyKind::parse(&name).ok_or(format!("unknown policy '{name}'"))?;
            }
            "--nominal" => args.nominal = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.nodes == 0 || args.secs <= 0.0 || !args.secs.is_finite() {
        return Err("--nodes and --secs must be positive".into());
    }
    Ok(args)
}

/// The scenario `fleet_sim --cluster` builds for the same flags.
fn scenario(args: &Args) -> Result<OrchestratorConfig, String> {
    let mut config = match args.profile.as_str() {
        "flat" => OrchestratorConfig::datacenter(args.nodes, args.seed),
        "flash" => OrchestratorConfig::flash_crowd(args.nodes, args.seed),
        "chaos" => OrchestratorConfig::chaos_profile(args.nodes, args.seed),
        "gray" => OrchestratorConfig::gray_profile(args.nodes, args.seed),
        other => return Err(format!("unknown profile '{other}'")),
    };
    config.policy = args.policy;
    if args.nominal {
        config.margins = MarginPolicy::Nominal;
    }
    Ok(config)
}

/// The node-level excitation `Hypervisor::tick` hands to
/// `ServerNode::run_interval`: the running guests' profiles averaged,
/// idle background when none runs. The hypervisor's own merge is
/// private; this mirrors it so the platform call sees the tick's input.
fn merged_workload(hv: &Hypervisor) -> WorkloadProfile {
    let running: Vec<&WorkloadProfile> = hv
        .vms()
        .filter(|vm| vm.is_running())
        .map(|vm| &vm.config.workload)
        .collect();
    if running.is_empty() {
        return WorkloadProfile::idle();
    }
    let n = running.len() as f64;
    let avg = |f: fn(&WorkloadProfile) -> f64| running.iter().map(|w| f(w)).sum::<f64>() / n;
    WorkloadProfile::new(
        "merged-guests",
        avg(|w| w.activity).clamp(0.0, 1.0),
        avg(|w| w.didt).clamp(0.0, 1.0),
        avg(|w| w.resonance).clamp(0.0, 1.0),
        avg(|w| w.ipc).max(0.1),
        avg(|w| w.cache_mpki),
        avg(|w| w.mem_bw_util).clamp(0.0, 1.0),
        running.iter().map(|w| w.footprint_mib).sum(),
    )
}

/// `VmRSS` in KiB from a `/proc/<pid>/status` text.
fn vm_rss_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

fn own_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(vm_rss_kb)
        .unwrap_or(0)
}

/// Hands the memory the allocator holds free back to the kernel, so a
/// later `VmRSS` rise counts pages the rack touches, not reuse of freed
/// ones that were still resident.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers; it only returns
    // free heap pages to the kernel.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Node indices in a seeded order: a pure function of `(seed, salt)`.
fn seeded_order(nodes: usize, seed: u64, salt: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..nodes).collect();
    order
        .sort_by_key(|&i| splitmix64(seed ^ salt ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    order
}

#[derive(Default)]
struct Samples {
    hv_tick: Vec<f64>,
    run_interval: Vec<f64>,
    ingest: Vec<f64>,
    containment: Vec<f64>,
    records: Vec<f64>,
    observe: Vec<f64>,
    submit: Vec<f64>,
    recover: Vec<f64>,
    drain: Vec<f64>,
}

fn replay(args: &Args) -> Result<String, String> {
    let config = scenario(args)?;
    let dt = config.tick;
    let nodes = config.cluster.nodes;
    let (mut cluster, _, _, _) = deploy_cluster(&config);

    let ticks = (args.secs / dt.as_secs()).ceil() as u64;
    let stride = (ticks / SAMPLE_TICKS).max(1);

    let mut s = Samples::default();
    let mut predictor = FailurePredictor::new();
    let mut departures: BTreeMap<u64, Vec<PlacementId>> = BTreeMap::new();
    let mut rss_growth_kb = 0i64;
    for tick in 0..ticks {
        for id in departures.remove(&tick).unwrap_or_default() {
            cluster.terminate_by_id(id);
        }
        for arrival in config
            .stream
            .tick_arrivals_scaled(config.seed, tick, dt, nodes)
        {
            let start = Instant::now();
            let placed = cluster.submit(arrival.config, arrival.class);
            s.submit.push(micros(start));
            if let Some(p) = placed {
                let due = tick + (arrival.lifetime.as_secs() / dt.as_secs()).ceil().max(1.0) as u64;
                departures.entry(due).or_default().push(p.id);
            }
        }

        if tick % stride == stride / 2 {
            for j in 0..SAMPLES_PER_TICK {
                let idx = (splitmix64(args.seed ^ (tick << 16) ^ j) % nodes as u64) as usize;
                let node = &cluster.nodes()[idx];
                if !node.is_online() || node.is_asleep() {
                    continue;
                }
                let mut ticked = node.hypervisor.clone();
                let start = Instant::now();
                black_box(ticked.tick(dt));
                let tick_us = micros(start);

                let start = Instant::now();
                black_box(predictor.observe(node.id.0, ticked.health()));
                s.observe.push(micros(start));

                let mut split = node.hypervisor.clone();
                let workload = merged_workload(&split);
                let mut log = split.health().clone();
                let start = Instant::now();
                let report = split.node_mut().run_interval(&workload, dt);
                let run_us = micros(start);
                s.records.push(report.errors.len() as f64);
                let start = Instant::now();
                black_box(log.ingest_owned(report));
                let ingest_us = micros(start);

                s.hv_tick.push(tick_us);
                s.run_interval.push(run_us);
                s.ingest.push(ingest_us);
                s.containment.push(tick_us - run_us - ingest_us);
            }
            release_free_memory();
        }

        let before = own_rss_kb();
        black_box(cluster.tick(dt));
        rss_growth_kb += own_rss_kb() as i64 - before as i64;
        for node in cluster.nodes() {
            if node.is_online() && !node.is_asleep() {
                predictor.update_node(node.id.0, node.hypervisor.health());
            }
        }
    }
    let node_hours = nodes as f64 * ticks as f64 * dt.as_secs() / 3600.0;

    for idx in seeded_order(nodes, args.seed, 0xC4A5) {
        if s.recover.len() == LIFECYCLE_SAMPLES {
            break;
        }
        let id = NodeId(idx as u32);
        if cluster.phase(id) != NodePhase::Online || cluster.placements_on(id).is_empty() {
            continue;
        }
        cluster.mark_crashed(id);
        let start = Instant::now();
        black_box(cluster.recover_from_crash(id));
        s.recover.push(micros(start));
        cluster.begin_repair(id, u32::MAX);
    }
    for idx in seeded_order(nodes, args.seed, 0xD4A1) {
        if s.drain.len() == LIFECYCLE_SAMPLES {
            break;
        }
        let id = NodeId(idx as u32);
        if cluster.phase(id) != NodePhase::Online
            || cluster.nodes()[idx].is_asleep()
            || cluster.placements_on(id).is_empty()
        {
            continue;
        }
        let gray = GrayState {
            capacity_cap: 0.5,
            ce_multiplier: 8.0,
            clears_at_tick: u64::MAX,
            quarantined: false,
        };
        cluster.mark_degraded(id, gray);
        cluster.set_quarantined(id, true);
        let start = Instant::now();
        black_box(cluster.drain_degraded(id, DRAIN_BUDGET));
        s.drain.push(micros(start));
    }

    let intervals = s.hv_tick.len();
    let submits = s.submit.len();
    let mean_records = s.records.iter().sum::<f64>() / intervals.max(1) as f64;
    let fields = [
        ("platform.run_interval_us", median(s.run_interval)),
        ("healthlog.ingest_us", median(s.ingest)),
        ("healthlog.records_per_interval", mean_records),
        ("cloudmgr.predictor_observe_us", median(s.observe)),
        ("hypervisor.tick_us", median(s.hv_tick)),
        ("hypervisor.containment_self_us", median(s.containment)),
        (
            "hypervisor.rss_growth_kb_per_node_hour",
            rss_growth_kb as f64 / node_hours,
        ),
        ("cloudmgr.submit_us", median(s.submit)),
        ("cloudmgr.recover_from_crash_us", median(s.recover)),
        ("cloudmgr.drain_degraded_us", median(s.drain)),
        ("replay.intervals", intervals as f64),
        ("replay.submits", submits as f64),
    ];
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    Ok(format!("{{{}}}", body.join(",")))
}

fn main() -> ExitCode {
    match parse().and_then(|args| replay(&args)) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_parser_reads_the_kib_field_and_rejects_absence() {
        let status = "Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t  1024 kB\nThreads:\t1\n";
        assert_eq!(vm_rss_kb(status), Some(1024));
        assert_eq!(vm_rss_kb("Name:\tzombie\n"), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(Vec::new()), 0.0);
    }

    #[test]
    fn seeded_order_is_a_pure_permutation() {
        let a = seeded_order(50, 7, 1);
        assert_eq!(a, seeded_order(50, 7, 1));
        assert_ne!(a, seeded_order(50, 8, 1));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
