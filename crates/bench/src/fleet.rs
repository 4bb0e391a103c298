//! Fleet-scale simulation: N independent UniServer ecosystems driven in
//! parallel, with per-node RNG seeds and an aggregated savings summary.
//!
//! This is the scale-out scenario of the workspace: every node is
//! manufactured from its own deterministic seed (distinct silicon, so
//! distinct Extended Operating Points), deployed through the full
//! characterize → train → optimize pipeline of
//! [`uniserver_core::ecosystem::Ecosystem`], served for a configurable
//! span, and its [`SavingsReport`] folded into a fleet-wide
//! [`FleetSummary`] that mirrors the energy/availability accounting the
//! paper reports per node.
//!
//! # Heterogeneity
//!
//! Real fleets are not racks of identical machines. [`FleetConfig`]
//! mixes parts ([`PartShare`] weights over ARM + i5 + i7), guest-set
//! variants ([`FleetConfig::workload_mixes`]) and an ambient-temperature
//! spread across nodes. Every per-node choice is a pure function of
//! [`node_seed`], never of thread schedule, so summaries stay
//! byte-stable for any worker count.
//!
//! # Deploy fast path
//!
//! Deployment cost is dominated by characterization and predictor
//! training. Two optimizations push fleets past 10⁴ nodes:
//!
//! * the shmoo ladder descends coarse→fine by default (see
//!   [`uniserver_stress::campaign::ShmooCampaign`]), cutting dwell
//!   intervals per ladder by roughly the coarse factor;
//! * predictor training runs **once per part** through
//!   [`uniserver_core::training::AdvisorCache`] and is shared across
//!   worker threads via `Arc` — per-node silicon is still characterized
//!   individually. Set [`FleetConfig::share_training`] to `false` to
//!   reproduce the legacy train-per-node deploy for baselines.
//!
//! Parallelism uses `std::thread::scope` with one chunk of nodes per
//! worker (the registry-less build has no rayon; the driver is an
//! embarrassingly parallel map, so scoped threads lose nothing).
//! Determinism is by construction, not by scheduling: node seeds are a
//! pure function of `(fleet seed, node index)` and results are re-sorted
//! by node index after the join, so any thread count — including 1 —
//! produces byte-identical summaries. Wall-clock timings
//! ([`FleetTiming`]) are reported separately and are *not* part of the
//! deterministic summary.

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use uniserver_cloudmgr::{cores, resolve_workers};

use uniserver_core::ecosystem::{DeploymentConfig, Ecosystem, SavingsReport};
use uniserver_core::training::AdvisorCache;
use uniserver_hypervisor::vm::VmConfig;
use uniserver_platform::part::PartSpec;
use uniserver_silicon::rng::{ambient_offset, salt, splitmix64, weighted_pick};
use uniserver_units::{Celsius, Seconds};

use crate::render::json::JsonWriter;

/// One entry of the fleet's part mix.
#[derive(Debug, Clone)]
pub struct PartShare {
    /// The part this share deploys.
    pub spec: PartSpec,
    /// Relative weight of the share (need not sum to 1).
    pub weight: f64,
}

/// Fleet simulation parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of nodes (ecosystems) in the fleet.
    pub nodes: usize,
    /// Fleet-level seed; per-node seeds derive from it.
    pub seed: u64,
    /// Served time to simulate per node.
    pub horizon: Seconds,
    /// Simulation tick.
    pub tick: Seconds,
    /// Worker threads; 0 means "one per available core".
    pub threads: usize,
    /// Base per-node deployment configuration. Heterogeneous fleets
    /// override `spec`, `guests` and `ambient` per node from the knobs
    /// below.
    pub deployment: DeploymentConfig,
    /// Weighted part mix. Empty = homogeneous fleet of
    /// `deployment.spec`.
    pub part_mix: Vec<PartShare>,
    /// Candidate guest sets; each node picks one uniformly by seed.
    /// Empty = every node runs `deployment.guests`.
    pub workload_mixes: Vec<Vec<VmConfig>>,
    /// Half-width (°C) of the uniform per-node ambient spread around
    /// `deployment.ambient`. Zero = uniform ambient.
    pub ambient_spread: f64,
    /// Train the predictor once per part and share it across nodes
    /// (the fleet fast path). `false` retrains per node — the legacy
    /// deploy, kept for baseline measurements.
    pub share_training: bool,
}

impl FleetConfig {
    /// A quick homogeneous fleet: `nodes` ARM micro-servers, 120
    /// simulated seconds each, auto-threaded.
    #[must_use]
    pub fn quick(nodes: usize, seed: u64) -> Self {
        FleetConfig {
            nodes,
            seed,
            horizon: Seconds::new(120.0),
            tick: Seconds::new(1.0),
            threads: 0,
            deployment: DeploymentConfig::quick(),
            part_mix: Vec::new(),
            workload_mixes: Vec::new(),
            ambient_spread: 0.0,
            share_training: true,
        }
    }

    /// The heterogeneous reference fleet: ARM-dominant with i5/i7
    /// shares (6:1:1), three guest-set variants and a ±6 °C ambient
    /// spread — the ROADMAP's "mixed parts, per-node workload mixes and
    /// ambient spreads" scenario.
    #[must_use]
    pub fn mixed(nodes: usize, seed: u64) -> Self {
        FleetConfig {
            part_mix: vec![
                PartShare { spec: PartSpec::arm_microserver(), weight: 6.0 },
                PartShare { spec: PartSpec::i5_4200u(), weight: 1.0 },
                PartShare { spec: PartSpec::i7_3970x(), weight: 1.0 },
            ],
            workload_mixes: vec![
                vec![VmConfig::ldbc_benchmark()],
                vec![VmConfig::ldbc_benchmark(), VmConfig::idle_guest()],
                vec![VmConfig::ldbc_benchmark(); 2],
            ],
            ambient_spread: 6.0,
            ..FleetConfig::quick(nodes, seed)
        }
    }

    /// The per-node deployment configuration: the base `deployment`
    /// with part, guest set and ambient resolved from the node's seed.
    /// A pure function of `(self, node)` — thread schedules cannot
    /// perturb it.
    #[must_use]
    pub fn node_deployment(&self, node: usize) -> DeploymentConfig {
        let seed = node_seed(self.seed, node);
        let mut dep = self.deployment.clone();
        if !self.part_mix.is_empty() {
            let weights: Vec<f64> = self.part_mix.iter().map(|s| s.weight).collect();
            let chosen = weighted_pick(splitmix64(seed ^ salt::PART), &weights);
            dep.spec = self.part_mix[chosen].spec.clone();
        }
        if !self.workload_mixes.is_empty() {
            let idx = (splitmix64(seed ^ salt::MIX) % self.workload_mixes.len() as u64) as usize;
            dep.guests.clone_from(&self.workload_mixes[idx]);
        }
        if self.ambient_spread > 0.0 {
            dep.ambient = dep.ambient + Celsius::new(ambient_offset(seed, self.ambient_spread));
        }
        dep
    }

    /// The distinct part specs this fleet can deploy, in mix order
    /// (the summary's per-part aggregation order).
    #[must_use]
    pub fn parts(&self) -> Vec<PartSpec> {
        if self.part_mix.is_empty() {
            vec![self.deployment.spec.clone()]
        } else {
            self.part_mix.iter().map(|s| s.spec.clone()).collect()
        }
    }
}

/// Outcome of one node's deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeOutcome {
    /// Node index within the fleet.
    pub node: usize,
    /// The seed the node's silicon was manufactured from.
    pub seed: u64,
    /// Name of the part the node deployed.
    pub part: Arc<str>,
    /// Ambient temperature the node ran at.
    pub ambient: Celsius,
    /// Shallowest per-core undervolt of the chosen EOP, in millivolts.
    pub min_offset_mv: f64,
    /// The node's savings report at the end of the horizon.
    pub report: SavingsReport,
}

/// Per-part aggregation within a [`FleetSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct PartAggregate {
    /// Part name.
    pub part: Arc<str>,
    /// Nodes of this part in the fleet.
    pub nodes: usize,
    /// Energy-weighted saving across the part's nodes.
    pub energy_saving_fraction: f64,
    /// Mean EOP depth (weakest-core offset) across the part's nodes.
    pub min_offset_mv_mean: f64,
}

/// Fleet-wide aggregation of [`SavingsReport`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Echo of the driving parameters.
    pub nodes: usize,
    pub seed: u64,
    pub horizon_secs: f64,
    /// Energy-weighted fleet saving: 1 − ΣEOP / Σbaseline.
    pub energy_saving_fraction: f64,
    /// Total energy consumed at EOP across the fleet, in joules.
    pub eop_energy_j: f64,
    /// Total energy the conservative twins consumed, in joules.
    pub baseline_energy_j: f64,
    /// Mean and minimum node availability.
    pub mean_availability: f64,
    pub min_availability: f64,
    /// Crash and re-characterization totals.
    pub crashes: u64,
    pub recharacterizations: u64,
    /// Spread of the chosen EOP depths across the manufactured fleet.
    pub min_offset_mv_min: f64,
    pub min_offset_mv_mean: f64,
    pub min_offset_mv_max: f64,
    /// Per-part aggregates, in part-mix order.
    pub per_part: Vec<PartAggregate>,
    /// Per-node outcomes, ordered by node index.
    pub per_node: Vec<NodeOutcome>,
}

/// Wall-clock accounting of one [`simulate_timed`] run. Timings are
/// measurements of *this* run on *this* machine — deliberately kept out
/// of [`FleetSummary`] so the deterministic summary stays byte-stable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetTiming {
    /// End-to-end wall-clock of the simulation, in milliseconds.
    pub wall_ms: f64,
    /// Summed per-node deploy (characterize + train + optimize) time.
    pub deploy_ms: f64,
    /// Summed per-node serving time.
    pub serve_ms: f64,
    /// Nodes simulated (denominator for the per-node rates).
    pub nodes: usize,
    /// Worker threads actually used (the resolved count, not the
    /// configured one — `threads: 0` resolves to the core count and
    /// explicit requests clamp to it).
    pub workers: usize,
    /// CPU cores available on the benching machine — recorded so a
    /// wall-clock from a single-core container is never mistaken for a
    /// multi-worker regression.
    pub cores: usize,
}

impl FleetTiming {
    /// Mean deploy wall-clock per node, in milliseconds.
    #[must_use]
    pub fn deploy_ms_per_node(&self) -> f64 {
        self.deploy_ms / self.nodes.max(1) as f64
    }

    /// Renders the timing record (the `BENCH_fleet.json` entry shape).
    #[must_use]
    pub fn to_json(&self, label: &str) -> String {
        let mut w = JsonWriter::object();
        w.field_str("label", label);
        w.field_u64("nodes", self.nodes as u64);
        w.field_u64("threads", self.workers as u64);
        w.field_u64("cores", self.cores as u64);
        w.field_f64("wall_ms", self.wall_ms);
        w.field_f64("deploy_ms", self.deploy_ms);
        w.field_f64("serve_ms", self.serve_ms);
        w.field_f64("deploy_ms_per_node", self.deploy_ms_per_node());
        w.finish()
    }
}

/// Derives the silicon seed for one node — a pure function of the fleet
/// seed and the node index (SplitMix64 finalizer), so shard boundaries
/// and thread schedules can never shift it. Delegates to the workspace's
/// single copy in [`uniserver_silicon::rng::indexed_seed`].
#[must_use]
pub fn node_seed(fleet_seed: u64, node: usize) -> u64 {
    uniserver_silicon::rng::indexed_seed(fleet_seed, node)
}

/// One node through deploy + serve; returns its outcome plus the
/// wall-clock seconds spent in each phase.
fn simulate_node(config: &FleetConfig, cache: &AdvisorCache, node: usize) -> (NodeOutcome, f64, f64) {
    let seed = node_seed(config.seed, node);
    let dep = config.node_deployment(node);
    let deploy_start = Instant::now();
    let mut eco = if config.share_training {
        let advisor = cache.get_or_train(&dep).advisor;
        Ecosystem::deploy_with_advisor(&dep, seed, advisor)
    } else {
        Ecosystem::deploy(&dep, seed)
    };
    let deploy_secs = deploy_start.elapsed().as_secs_f64();
    let min_offset_mv = eco.operating_point().min_offset_mv();
    let serve_start = Instant::now();
    let mut served = Seconds::ZERO;
    while served < config.horizon {
        eco.run(config.tick);
        served = served + config.tick;
    }
    let serve_secs = serve_start.elapsed().as_secs_f64();
    (
        NodeOutcome {
            node,
            seed,
            part: Arc::from(dep.spec.name.as_str()),
            ambient: dep.ambient,
            min_offset_mv,
            report: eco.savings_report(),
        },
        deploy_secs,
        serve_secs,
    )
}

/// Runs the fleet simulation. Deterministic for a given `config`
/// regardless of `threads`.
///
/// # Panics
///
/// Panics if `config.nodes` is zero or the tick/horizon are degenerate.
#[must_use]
pub fn simulate(config: &FleetConfig) -> FleetSummary {
    simulate_timed(config).0
}

/// Runs the fleet simulation and also reports wall-clock timings.
///
/// # Panics
///
/// Panics if `config.nodes` is zero or the tick/horizon are degenerate.
#[must_use]
pub fn simulate_timed(config: &FleetConfig) -> (FleetSummary, FleetTiming) {
    assert!(config.nodes > 0, "a fleet needs at least one node");
    assert!(config.tick.as_secs() > 0.0, "tick must be positive");
    assert!(config.horizon.as_secs() > 0.0, "horizon must be positive");

    let wall_start = Instant::now();
    // Clamped to available cores: oversubscribing the CPU-bound deploy
    // only adds scheduling overhead (and inflates the summed per-worker
    // wall-clocks a bench record reports).
    let workers = resolve_workers(config.threads, config.nodes);

    // Train every part the mix can produce up front: workers then only
    // ever hit the cache, sharing one Arc'd model per part instead of
    // racing to train duplicates.
    let cache = AdvisorCache::new();
    if config.share_training {
        for spec in config.parts() {
            let dep = DeploymentConfig { spec, ..config.deployment.clone() };
            let _ = cache.get_or_train(&dep);
        }
    }

    // One contiguous chunk of node indices per worker: an embarrassingly
    // parallel map whose only cross-thread step is the final collect.
    let chunk = config.nodes.div_ceil(workers);
    let (mut outcomes, deploy_secs, serve_secs): (Vec<NodeOutcome>, f64, f64) =
        thread::scope(|scope| {
            let cache = &cache;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let lo = (w * chunk).min(config.nodes);
                    let hi = ((w + 1) * chunk).min(config.nodes);
                    scope.spawn(move || {
                        let mut chunk_outcomes = Vec::with_capacity(hi - lo);
                        let mut chunk_deploy = 0.0f64;
                        let mut chunk_serve = 0.0f64;
                        for n in lo..hi {
                            let (outcome, deploy, serve) = simulate_node(config, cache, n);
                            chunk_outcomes.push(outcome);
                            chunk_deploy += deploy;
                            chunk_serve += serve;
                        }
                        (chunk_outcomes, chunk_deploy, chunk_serve)
                    })
                })
                .collect();
            let mut all = Vec::with_capacity(config.nodes);
            let mut deploy = 0.0f64;
            let mut serve = 0.0f64;
            for h in handles {
                let (chunk_outcomes, chunk_deploy, chunk_serve) =
                    h.join().expect("fleet worker panicked");
                all.extend(chunk_outcomes);
                deploy += chunk_deploy;
                serve += chunk_serve;
            }
            (all, deploy, serve)
        });
    // Chunks join in spawn order, but make the invariant explicit.
    outcomes.sort_by_key(|o| o.node);

    let n = outcomes.len() as f64;
    let mut eop = 0.0;
    let mut baseline = 0.0;
    let mut avail_sum = 0.0;
    let mut avail_min = f64::MAX;
    let mut crashes = 0;
    let mut rechar = 0;
    let mut off_min = f64::MAX;
    let mut off_max = f64::MIN;
    let mut off_sum = 0.0;
    // Per-part accumulators, in the deterministic parts() order.
    let part_names: Vec<Arc<str>> =
        config.parts().iter().map(|s| Arc::from(s.name.as_str())).collect();
    let mut part_nodes = vec![0usize; part_names.len()];
    let mut part_eop = vec![0.0f64; part_names.len()];
    let mut part_base = vec![0.0f64; part_names.len()];
    let mut part_off = vec![0.0f64; part_names.len()];
    for o in &outcomes {
        let e = o.report.eop_energy.as_joules();
        eop += e;
        // The report exposes the saving fraction; invert it to recover
        // the conservative twin's energy for an energy-weighted total.
        let saving = o.report.energy_saving_fraction;
        let twin = if saving < 1.0 { e / (1.0 - saving) } else { e };
        baseline += twin;
        avail_sum += o.report.availability;
        avail_min = avail_min.min(o.report.availability);
        crashes += o.report.crashes;
        rechar += o.report.recharacterizations;
        off_min = off_min.min(o.min_offset_mv);
        off_max = off_max.max(o.min_offset_mv);
        off_sum += o.min_offset_mv;
        let p = part_names.iter().position(|name| name == &o.part).expect("part from the mix");
        part_nodes[p] += 1;
        part_eop[p] += e;
        part_base[p] += twin;
        part_off[p] += o.min_offset_mv;
    }
    let per_part: Vec<PartAggregate> = part_names
        .iter()
        .enumerate()
        .filter(|&(p, _)| part_nodes[p] > 0)
        .map(|(p, name)| PartAggregate {
            part: name.clone(),
            nodes: part_nodes[p],
            energy_saving_fraction: if part_base[p] > 0.0 {
                1.0 - part_eop[p] / part_base[p]
            } else {
                0.0
            },
            min_offset_mv_mean: part_off[p] / part_nodes[p] as f64,
        })
        .collect();

    let horizon_secs = config.horizon.as_secs();
    let summary = FleetSummary {
        nodes: config.nodes,
        seed: config.seed,
        horizon_secs,
        energy_saving_fraction: if baseline > 0.0 { 1.0 - eop / baseline } else { 0.0 },
        eop_energy_j: eop,
        baseline_energy_j: baseline,
        mean_availability: avail_sum / n,
        min_availability: avail_min,
        crashes,
        recharacterizations: rechar,
        min_offset_mv_min: off_min,
        min_offset_mv_mean: off_sum / n,
        min_offset_mv_max: off_max,
        per_part,
        per_node: outcomes,
    };
    let timing = FleetTiming {
        wall_ms: wall_start.elapsed().as_secs_f64() * 1e3,
        deploy_ms: deploy_secs * 1e3,
        serve_ms: serve_secs * 1e3,
        nodes: config.nodes,
        workers,
        cores: cores(),
    };
    (summary, timing)
}

impl FleetSummary {
    /// Renders the summary as a JSON document with a stable key order —
    /// the fleet driver's machine-readable artefact. Identical summaries
    /// render to byte-identical strings.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.field_u64("nodes", self.nodes as u64);
        w.field_u64("seed", self.seed);
        w.field_f64("horizon_secs", self.horizon_secs);
        w.field_f64("energy_saving_fraction", self.energy_saving_fraction);
        w.field_f64("eop_energy_j", self.eop_energy_j);
        w.field_f64("baseline_energy_j", self.baseline_energy_j);
        w.field_f64("mean_availability", self.mean_availability);
        w.field_f64("min_availability", self.min_availability);
        w.field_u64("crashes", self.crashes);
        w.field_u64("recharacterizations", self.recharacterizations);
        w.field_f64("min_offset_mv_min", self.min_offset_mv_min);
        w.field_f64("min_offset_mv_mean", self.min_offset_mv_mean);
        w.field_f64("min_offset_mv_max", self.min_offset_mv_max);
        w.field_array("per_part", self.per_part.iter(), |part, out| {
            let mut pw = JsonWriter::object();
            pw.field_str("part", &part.part);
            pw.field_u64("nodes", part.nodes as u64);
            pw.field_f64("energy_saving_fraction", part.energy_saving_fraction);
            pw.field_f64("min_offset_mv_mean", part.min_offset_mv_mean);
            out.push_str(&pw.finish());
        });
        w.field_array("per_node", self.per_node.iter(), |node, out| {
            let mut nw = JsonWriter::object();
            nw.field_u64("node", node.node as u64);
            nw.field_u64("seed", node.seed);
            nw.field_str("part", &node.part);
            nw.field_f64("ambient_c", node.ambient.as_celsius());
            nw.field_f64("min_offset_mv", node.min_offset_mv);
            nw.field_f64("energy_saving_fraction", node.report.energy_saving_fraction);
            nw.field_f64("availability", node.report.availability);
            nw.field_f64("eop_energy_j", node.report.eop_energy.as_joules());
            nw.field_f64("eop_power_w", node.report.eop_power.as_watts());
            nw.field_f64("nominal_power_w", node.report.nominal_power.as_watts());
            nw.field_u64("crashes", node.report.crashes);
            nw.field_u64("recharacterizations", node.report.recharacterizations);
            out.push_str(&nw.finish());
        });
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_fleet_draws_every_part_and_spreads_ambient() {
        let config = FleetConfig::mixed(64, 7);
        let mut part_counts = [0usize; 3];
        let mut ambients = Vec::new();
        for node in 0..config.nodes {
            let dep = config.node_deployment(node);
            let p = config
                .part_mix
                .iter()
                .position(|s| s.spec.name == dep.spec.name)
                .expect("drawn part comes from the mix");
            part_counts[p] += 1;
            ambients.push(dep.ambient.as_celsius());
        }
        assert!(part_counts.iter().all(|&c| c > 0), "64 draws must hit every part: {part_counts:?}");
        assert!(part_counts[0] > part_counts[1] + part_counts[2], "ARM dominates 6:1:1");
        let lo = ambients.iter().cloned().fold(f64::MAX, f64::min);
        let hi = ambients.iter().cloned().fold(f64::MIN, f64::max);
        assert!(hi - lo > 6.0, "±6 °C spread must show up across 64 nodes ({lo}..{hi})");
        assert!(lo >= 20.0 && hi <= 32.0, "spread stays within ±6 °C of 26 °C");
    }

    #[test]
    fn node_deployment_is_schedule_independent() {
        let config = FleetConfig::mixed(16, 11);
        for node in [0, 5, 15] {
            let a = config.node_deployment(node);
            let b = config.node_deployment(node);
            assert_eq!(a.spec.name, b.spec.name);
            assert_eq!(a.ambient, b.ambient);
            assert_eq!(a.guests.len(), b.guests.len());
        }
    }

    #[test]
    fn shared_training_matches_per_node_training() {
        // The fast path must be a pure optimization: training is a pure
        // function of the part, so sharing the model cannot change any
        // node's outcome.
        let mut shared = FleetConfig::quick(3, 2018);
        shared.horizon = Seconds::new(10.0);
        let mut legacy = shared.clone();
        legacy.share_training = false;
        assert_eq!(simulate(&shared).to_json(), simulate(&legacy).to_json());
    }

    #[test]
    fn per_part_aggregates_cover_the_fleet() {
        let mut config = FleetConfig::mixed(12, 3);
        config.horizon = Seconds::new(10.0);
        let summary = simulate(&config);
        let covered: usize = summary.per_part.iter().map(|p| p.nodes).sum();
        assert_eq!(covered, summary.nodes);
        for part in &summary.per_part {
            assert!(part.energy_saving_fraction > 0.0, "{} must save energy", part.part);
        }
    }

    #[test]
    fn timing_accounts_deploy_and_serve() {
        let mut config = FleetConfig::quick(2, 5);
        config.horizon = Seconds::new(5.0);
        config.threads = 1;
        let (_, timing) = simulate_timed(&config);
        assert_eq!(timing.nodes, 2);
        assert_eq!(timing.workers, 1);
        assert!(timing.wall_ms > 0.0);
        assert!(timing.deploy_ms > 0.0);
        assert!(timing.serve_ms > 0.0);
        assert!(
            timing.deploy_ms + timing.serve_ms <= timing.wall_ms * 1.05,
            "phase sums cannot exceed single-threaded wall clock"
        );
        assert!(timing.deploy_ms_per_node() <= timing.deploy_ms);
        let json = timing.to_json("smoke");
        assert!(json.contains("\"label\":\"smoke\""));
        assert!(json.contains("\"threads\":1"));
        assert!(json.contains("\"cores\":"));
        assert!(json.contains("\"deploy_ms_per_node\":"));
    }
}
