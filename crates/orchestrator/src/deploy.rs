//! Parallel deploy-into-cluster: every node of the rack is manufactured
//! from its own seed, characterized, moved to its Extended Operating
//! Point (under [`MarginPolicy::Extended`]) and wrapped into a
//! [`ManagedNode`] — reusing the once-per-part [`AdvisorCache`], so a
//! 256+-node mixed rack trains the failure predictor once per part, not
//! once per node.
//!
//! Determinism is by construction: a node's silicon, part, ambient and
//! operating point are pure functions of `(scenario seed, node index)`,
//! each worker deploys one contiguous node-index range and the ranges
//! concatenate in order after the join, and the advisor cache is
//! pre-trained per part before workers spawn. Any worker count produces
//! the identical cluster.

use std::time::Instant;

use uniserver_cloudmgr::cluster::{resolve_workers, Cluster};
use uniserver_cloudmgr::node::{ManagedNode, NodeId};
use uniserver_core::ecosystem::{provision_node, recharacterize_node, DeploymentConfig};
use uniserver_core::eop::OperatingPoint;
use uniserver_core::optimizer::EopOptimizer;
use uniserver_core::training::AdvisorCache;
use uniserver_platform::node::ServerNode;
use uniserver_platform::part::PartSpec;
use uniserver_silicon::rng::{ambient_offset, indexed_seed};
use uniserver_units::Celsius;

use crate::config::{MarginPolicy, OrchestratorConfig};

/// Site ambient (°C) the per-node spread is centred on.
const BASE_AMBIENT: f64 = 26.0;

/// Half-width (°C) of the uniform per-node ambient spread.
const AMBIENT_SPREAD: f64 = 6.0;

/// Months of silicon aging applied after characterization: the rack is
/// modeled partway into its re-characterization window, where NBTI
/// drift has eroded the margins the StressLog measured at deploy time
/// (§3.D).
const AGE_MONTHS: f64 = 18.0;

/// What one node deployed as (the summary's per-node provenance).
#[derive(Debug, Clone, PartialEq)]
pub struct DeployedNode {
    /// Node index within the rack.
    pub node: usize,
    /// Seed its silicon was manufactured from.
    pub seed: u64,
    /// Part name.
    pub part: String,
    /// Site ambient the node runs at.
    pub ambient: Celsius,
    /// The operating point programmed at deploy time.
    pub point: OperatingPoint,
}

/// A rack node's deployment under the assertive preset.
fn rack_deployment(spec: &PartSpec, ambient: Celsius) -> DeploymentConfig {
    DeploymentConfig { spec: spec.clone(), ambient, optimizer: EopOptimizer::Assertive }
}

/// The per-node deployment configuration: the part drawn from the
/// cluster mix and the base ambient plus an offset, both pure functions
/// of the node's seed.
#[must_use]
pub(crate) fn node_deployment(config: &OrchestratorConfig, node: usize) -> DeploymentConfig {
    let seed = indexed_seed(config.seed, node);
    let ambient = Celsius::new(BASE_AMBIENT) + Celsius::new(ambient_offset(seed, AMBIENT_SPREAD));
    rack_deployment(config.cluster.node_spec(seed), ambient)
}

fn deploy_one(config: &OrchestratorConfig, cache: &AdvisorCache, node: usize) -> (ManagedNode, DeployedNode) {
    let seed = indexed_seed(config.seed, node);
    let dep = node_deployment(config, node);
    let (server, point) = match config.margins {
        MarginPolicy::Extended => {
            let advisor = cache.get_or_train(&dep);
            provision_node(&dep, seed, &advisor)
        }
        MarginPolicy::Nominal => {
            let mut server = ServerNode::new(dep.spec.clone(), seed);
            server.set_ambient(dep.ambient);
            (server, OperatingPoint::nominal(dep.spec.cores))
        }
    };
    let mut server = server;
    // Margins were measured on fresh silicon, then NBTI drift eroded
    // them in service.
    server.age_by_months(AGE_MONTHS);
    let record = DeployedNode {
        node,
        seed,
        part: dep.spec.name.clone(),
        ambient: dep.ambient,
        point,
    };
    #[allow(clippy::cast_possible_truncation)]
    let managed = ManagedNode::adopt(NodeId(node as u32), server);
    (managed, record)
}

/// Deploys the whole rack in parallel: one contiguous node-index range
/// per worker ([`resolve_workers`] of `config.threads`) on scoped
/// threads, the first range on the caller's thread. Returns the
/// assembled cluster, the per-node deploy records (ordered by node
/// index), the summed per-range deploy wall-clock in seconds, and the
/// advisor cache, so rejoin-time re-characterizations (`rejoin_node`)
/// reuse the per-part models trained at deploy time instead of
/// retraining mid-run.
///
/// # Panics
///
/// Panics if the cluster has zero nodes or a worker panics.
#[must_use]
pub fn deploy_cluster(config: &OrchestratorConfig) -> (Cluster, Vec<DeployedNode>, f64, AdvisorCache) {
    let nodes = config.cluster.nodes;
    assert!(nodes > 0, "a cluster needs nodes");
    let chunk = nodes.div_ceil(resolve_workers(config.threads, nodes));

    // Pre-train every part of the mix so workers only ever hit the cache.
    let cache = AdvisorCache::new();
    if config.margins == MarginPolicy::Extended {
        for part in &config.cluster.part_mix {
            let _ = cache.get_or_train(&rack_deployment(&part.spec, Celsius::new(BASE_AMBIENT)));
        }
    }

    let deploy_range = |lo: usize| {
        let start = Instant::now();
        let out: Vec<_> = (lo..(lo + chunk).min(nodes)).map(|n| deploy_one(config, &cache, n)).collect();
        (out, start.elapsed().as_secs_f64())
    };
    let ranges = std::thread::scope(|scope| {
        let spawned: Vec<_> =
            (chunk..nodes).step_by(chunk).map(|lo| scope.spawn(move || deploy_range(lo))).collect();
        let mut ranges = vec![deploy_range(0)];
        ranges.extend(
            spawned.into_iter().map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))),
        );
        ranges
    });

    let mut managed = Vec::with_capacity(nodes);
    let mut records = Vec::with_capacity(nodes);
    let mut deploy_secs = 0.0;
    for (range, range_secs) in ranges {
        for (m, r) in range {
            managed.push(m);
            records.push(r);
        }
        deploy_secs += range_secs;
    }
    let mut cluster = Cluster::from_nodes(managed);
    cluster.set_policy(config.policy);
    (cluster, records, deploy_secs, cache)
}

/// Re-characterizes one repaired node in place — the rejoin path of the
/// failure lifecycle. Extended racks re-run the StressLog shmoo on the
/// node *as it is now* (aged silicon, live ambient) and re-choose the
/// operating point against the deploy-time advisor; nominal racks
/// simply re-program the conservative point. The chosen point lives in
/// the node's MSRs.
pub(crate) fn rejoin_node(config: &OrchestratorConfig, cache: &AdvisorCache, node: usize, server: &mut ServerNode) {
    let dep = node_deployment(config, node);
    match config.margins {
        MarginPolicy::Extended => {
            let advisor = cache.get_or_train(&dep);
            let _ = recharacterize_node(&dep, server, &advisor);
        }
        MarginPolicy::Nominal => OperatingPoint::nominal(dep.spec.cores).apply_to(server),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deploy_is_worker_count_independent() {
        let mut config = OrchestratorConfig::smoke(6, 11);
        config.threads = 1;
        let (_, seq, secs, _) = deploy_cluster(&config);
        assert!(secs > 0.0);
        // Requests above the core count and 0 (one per core) both clamp
        // to the machine; none may perturb any node.
        for threads in [0, 2, 3, 64] {
            config.threads = threads;
            let (cluster, par, _, _) = deploy_cluster(&config);
            assert_eq!(seq, par, "{threads} workers perturbed a node");
            assert_eq!(cluster.nodes().len(), 6);
        }
    }

    #[test]
    fn extended_racks_run_undervolted_nominal_racks_do_not() {
        let config = OrchestratorConfig::smoke(4, 7);
        let (cluster, records, _, _) = deploy_cluster(&config);
        for (node, rec) in cluster.nodes().iter().zip(&records) {
            assert!(rec.point.min_offset_mv() > 0.0, "extended node must undervolt");
            assert!(node.hypervisor.node().msr.voltage_offset_mv(0) > 0.0);
            assert_eq!(node.hypervisor.node().part().name, rec.part);
        }
        let nominal = OrchestratorConfig {
            margins: MarginPolicy::Nominal,
            ..OrchestratorConfig::smoke(4, 7)
        };
        let (cluster, records, _, _) = deploy_cluster(&nominal);
        for (node, rec) in cluster.nodes().iter().zip(&records) {
            assert_eq!(rec.point.min_offset_mv(), 0.0);
            assert_eq!(node.hypervisor.node().msr.voltage_offset_mv(0), 0.0);
        }
    }

    #[test]
    fn rejoin_recharacterizes_extended_racks_and_renominalizes_nominal_ones() {
        let config = OrchestratorConfig::smoke(2, 19);
        let (mut cluster, records, _, cache) = deploy_cluster(&config);
        // Start from nominal, so every undervolt the MSRs show after the
        // rejoin is one the re-shmoo chose.
        let server = cluster.server_mut(NodeId(0));
        OperatingPoint::nominal(server.core_count()).apply_to(server);
        rejoin_node(&config, &cache, 0, cluster.server_mut(NodeId(0)));
        let min_msr_mv = |cluster: &Cluster, node: usize| {
            let server = cluster.nodes()[node].hypervisor.node();
            (0..server.core_count()).map(|c| server.msr.voltage_offset_mv(c)).fold(f64::MAX, f64::min)
        };
        let rejoined = min_msr_mv(&cluster, 0);
        assert!(rejoined > 0.0, "the re-shmoo still finds real margin");
        assert!(
            rejoined <= records[0].point.min_offset_mv() + 1e-9,
            "18 months of aging cannot leave MORE margin than the fresh deploy measured: \
             {rejoined} vs {}",
            records[0].point.min_offset_mv()
        );

        let nominal =
            OrchestratorConfig { margins: MarginPolicy::Nominal, ..OrchestratorConfig::smoke(2, 19) };
        let (mut cluster, _, _, cache) = deploy_cluster(&nominal);
        cluster.server_mut(NodeId(1)).msr.set_voltage_offset_all(30.0).unwrap();
        rejoin_node(&nominal, &cache, 1, cluster.server_mut(NodeId(1)));
        assert_eq!(min_msr_mv(&cluster, 1), 0.0, "nominal racks rejoin at nominal");
    }

    #[test]
    fn ambient_spread_and_parts_vary_across_the_rack() {
        let config = OrchestratorConfig::datacenter(64, 3);
        let mix = &config.cluster.part_mix;
        let mut part_counts = vec![0usize; mix.len()];
        let mut ambients = Vec::new();
        for n in 0..64 {
            let dep = node_deployment(&config, n);
            let p = mix
                .iter()
                .position(|w| w.spec.name == dep.spec.name)
                .expect("drawn part comes from the mix");
            part_counts[p] += 1;
            ambients.push(dep.ambient.as_celsius());
        }
        assert!(part_counts.iter().all(|&c| c > 0), "64 draws must hit every part: {part_counts:?}");
        assert!(part_counts[0] > part_counts[1] + part_counts[2], "ARM dominates 6:1:1");
        let lo = ambients.iter().cloned().fold(f64::MAX, f64::min);
        let hi = ambients.iter().cloned().fold(f64::MIN, f64::max);
        assert!(hi - lo > 6.0, "±6 °C spread must show up ({lo}..{hi})");
        let (base, spread) = (BASE_AMBIENT, AMBIENT_SPREAD);
        assert!(
            lo >= base - spread && hi <= base + spread,
            "every ambient stays within ±{spread} °C of {base} °C ({lo}..{hi})"
        );
    }
}
