//! The deployed ecosystem: the full UniServer lifecycle on one node.

use uniserver_units::{Celsius, Joules, Seconds, Watts};

use uniserver_hypervisor::hypervisor::Hypervisor;
use uniserver_hypervisor::vm::VmConfig;
use uniserver_platform::node::ServerNode;
use uniserver_platform::part::PartSpec;
use uniserver_predictor::ModeAdvisor;
use uniserver_stresslog::Schedule;

use crate::eop::OperatingPoint;
use crate::optimizer::EopOptimizer;

/// Routine re-characterization period: 2.5 months (the paper suggests
/// 2–3).
const RECHARACTERIZATION_PERIOD_SECS: f64 = 2.5 * 30.0 * 24.0 * 3600.0;

/// Minimum spacing between anomaly-triggered re-characterizations
/// (threshold trips can persist for many intervals; taking the node
/// offline every tick would defeat the purpose).
const ANOMALY_COOLDOWN_SECS: f64 = 3_600.0;

/// What a node is deployed as: the part, its site ambient and the
/// optimizer preset. Everything else about a deployment is fixed: the
/// StressLog's one methodology, predictor training on two sibling
/// chips, and one LDBC guest whose workload the optimizer weighs crash
/// risk under.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentConfig {
    /// The part to deploy.
    pub spec: PartSpec,
    /// Ambient (inlet) temperature of the node's deployment site: feeds
    /// both the sensors' thermal model and the advisor's risk queries.
    pub ambient: Celsius,
    /// The optimizer preset, which also sets the advisor's risk
    /// tolerance.
    pub optimizer: EopOptimizer,
}

impl DeploymentConfig {
    /// The single-node deployment: an ARM micro-server at 26 °C under
    /// the cautious optimizer.
    #[must_use]
    pub fn quick() -> Self {
        DeploymentConfig {
            spec: PartSpec::arm_microserver(),
            ambient: Celsius::new(26.0),
            optimizer: EopOptimizer::Cautious,
        }
    }
}

/// The savings summary the ecosystem reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SavingsReport {
    /// Mean node power at the chosen EOP.
    pub eop_power: Watts,
    /// Mean node power a conservative twin consumes for the same work.
    pub nominal_power: Watts,
    /// Fractional energy saving of EOP operation.
    pub energy_saving_fraction: f64,
    /// Availability including any crash recoveries.
    pub availability: f64,
    /// Total energy consumed at EOP so far.
    pub eop_energy: Joules,
    /// Crashes survived (should be zero or near-zero at a sound EOP).
    pub crashes: u64,
    /// Re-characterizations performed since deployment.
    pub recharacterizations: u64,
}

/// Provisions one bare node at its Extended Operating Point — the
/// deploy-into-cluster plumbing, and the first step of
/// [`Ecosystem::deploy`]. The node is manufactured from `seed`, placed
/// at the config's ambient and characterized in place by
/// [`recharacterize_node`] against the shared part-level `advisor`.
/// Unlike a full [`Ecosystem`], no guests are launched and no baseline
/// twin is kept: the caller (a cluster manager) owns VM placement and
/// baseline accounting.
#[must_use]
pub fn provision_node(
    config: &DeploymentConfig,
    seed: u64,
    advisor: &ModeAdvisor,
) -> (ServerNode, OperatingPoint) {
    let mut node = ServerNode::new(config.spec.clone(), seed);
    node.set_ambient(config.ambient);
    let point = recharacterize_node(config, &mut node, advisor);
    (node, point)
}

/// Characterizes a node in place and programs the point the optimizer
/// chooses — the deploy step, the rejoin path after a repair window and
/// the ecosystem's periodic or anomaly-triggered re-run. The StressLog
/// shmoos the node *as it is now* (aged silicon, current ambient), so
/// the chosen point reflects the margins the hardware actually has
/// today instead of a geometric backoff guess from an earlier
/// characterization. The shmoo's own deliberate crashes are drained by
/// the StressLog; only the chosen point is programmed into the MSRs.
///
/// The optimizer weighs crash risk under the LDBC guest's workload, the
/// rack's dominant VM. The advisor query uses the node's *live* ambient
/// (not the config's deploy-time value): a node rejoining mid
/// cooling-failure must choose its point for the hot aisle it is
/// actually in.
#[must_use]
pub fn recharacterize_node(
    config: &DeploymentConfig,
    node: &mut ServerNode,
    advisor: &ModeAdvisor,
) -> OperatingPoint {
    let margins = uniserver_stresslog::characterize(node);
    let point = config.optimizer.choose(
        &config.spec,
        &margins,
        advisor,
        &VmConfig::ldbc_benchmark().workload,
        node.ambient(),
    );
    point.apply_to(node);
    point
}

/// The deployed UniServer ecosystem.
#[derive(Debug, Clone)]
pub struct Ecosystem {
    hypervisor: Hypervisor,
    /// A conservative twin of the same chip, used as the savings
    /// baseline (same seed → same silicon, nominal settings).
    baseline: Hypervisor,
    config: DeploymentConfig,
    /// Part-level risk model, trained at deploy.
    advisor: ModeAdvisor,
    schedule: Schedule,
    current_point: OperatingPoint,
    recharacterizations: u64,
    eop_energy: Joules,
    baseline_energy: Joules,
    served: Seconds,
}

impl Ecosystem {
    /// Stands up the full stack: trains the predictor, provisions the
    /// node at its EOP ([`provision_node`]), and launches one LDBC guest
    /// on it and on a nominal baseline twin.
    ///
    /// Training here is per-deployment; fleets deploying many nodes of
    /// the same part train once via [`crate::training`] and provision
    /// each node with [`provision_node`].
    ///
    /// # Panics
    ///
    /// Panics if the guest does not fit the node's memory.
    #[must_use]
    pub fn deploy(config: &DeploymentConfig, seed: u64) -> Self {
        let advisor = crate::training::train_advisor(config);
        let (node, point) = provision_node(config, seed, &advisor);
        let mut hypervisor = Hypervisor::new(node);
        let mut baseline_node = ServerNode::new(config.spec.clone(), seed);
        baseline_node.set_ambient(config.ambient);
        let mut baseline = Hypervisor::new(baseline_node);
        hypervisor.launch_vm(VmConfig::ldbc_benchmark()).expect("guest fits the node");
        baseline.launch_vm(VmConfig::ldbc_benchmark()).expect("guest fits the baseline");
        Ecosystem {
            hypervisor,
            baseline,
            config: config.clone(),
            advisor,
            schedule: Schedule::every(Seconds::new(RECHARACTERIZATION_PERIOD_SECS)),
            current_point: point,
            recharacterizations: 0,
            eop_energy: Joules::ZERO,
            baseline_energy: Joules::ZERO,
            served: Seconds::ZERO,
        }
    }

    /// The active operating point.
    #[must_use]
    pub fn operating_point(&self) -> &OperatingPoint {
        &self.current_point
    }

    /// Runs one serving interval, handling the monitored-operation
    /// loop: health-triggered or scheduled re-characterization.
    pub fn run(&mut self, duration: Seconds) {
        let outcome = self.hypervisor.tick(duration);
        let base = self.baseline.tick(duration);
        self.eop_energy = self.eop_energy + outcome.energy;
        self.baseline_energy = self.baseline_energy + base.energy;
        self.served = self.served + duration;

        let now = self.hypervisor.node().now();
        match self.schedule.last_run {
            // The deployment-time characterization counts as run zero.
            None => self.schedule.mark_ran(now),
            Some(last) => {
                let periodic_due = self.schedule.due(now, false);
                let anomaly_due = outcome.recharacterization_requested
                    && now.saturating_sub(last) >= Seconds::new(ANOMALY_COOLDOWN_SECS);
                if periodic_due || anomaly_due {
                    self.recharacterize();
                }
            }
        }
    }

    /// Takes the node offline, re-runs the StressLog, re-chooses the
    /// EOP and returns to service (§3: margins adapt to workload drift
    /// and aging).
    pub fn recharacterize(&mut self) {
        self.current_point =
            recharacterize_node(&self.config, self.hypervisor.node_mut(), &self.advisor);
        self.schedule.mark_ran(self.hypervisor.node().now());
        self.recharacterizations += 1;
    }

    /// The savings summary so far.
    ///
    /// # Panics
    ///
    /// Panics if called before any serving interval.
    #[must_use]
    pub fn savings_report(&self) -> SavingsReport {
        assert!(self.served.as_secs() > 0.0, "run the ecosystem before reporting");
        let eop_power = self.eop_energy / self.served;
        let nominal_power = self.baseline_energy / self.served;
        SavingsReport {
            eop_power,
            nominal_power,
            energy_saving_fraction: 1.0
                - self.eop_energy.as_joules() / self.baseline_energy.as_joules(),
            availability: self.hypervisor.availability(),
            eop_energy: self.eop_energy,
            crashes: self.hypervisor.crashes(),
            recharacterizations: self.recharacterizations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_ecosystem() -> Ecosystem {
        Ecosystem::deploy(&DeploymentConfig::quick(), 77)
    }

    #[test]
    fn deployment_reaches_a_real_eop() {
        let eco = quick_ecosystem();
        let point = eco.operating_point();
        assert!(point.min_offset_mv() > 20.0, "EOP must reclaim margin: {point:?}");
        assert!(
            point.relaxed_refresh.as_secs() > 0.5,
            "EOP must relax refresh: {}",
            point.relaxed_refresh
        );
    }

    #[test]
    fn eop_operation_saves_energy_without_crashing() {
        let mut eco = quick_ecosystem();
        for _ in 0..120 {
            eco.run(Seconds::new(1.0));
        }
        let report = eco.savings_report();
        assert_eq!(report.crashes, 0, "a sound EOP must not crash");
        assert_eq!(report.availability, 1.0);
        assert!(
            report.energy_saving_fraction > 0.05,
            "EOP should save >5 % energy, got {:.3}",
            report.energy_saving_fraction
        );
        assert!(report.eop_power < report.nominal_power);
    }

    #[test]
    fn recharacterization_keeps_serving() {
        let mut eco = quick_ecosystem();
        for _ in 0..10 {
            eco.run(Seconds::new(1.0));
        }
        eco.recharacterize();
        let report = {
            for _ in 0..10 {
                eco.run(Seconds::new(1.0));
            }
            eco.savings_report()
        };
        assert_eq!(report.recharacterizations, 1);
        assert_eq!(report.crashes, 0);
    }

    #[test]
    fn provision_node_matches_full_deploy() {
        // The cluster plumbing must choose the exact point a full
        // per-node ecosystem deploy would have chosen.
        let config = DeploymentConfig::quick();
        let advisor = crate::training::train_advisor(&config);
        let (node, point) = provision_node(&config, 77, &advisor);
        let eco = Ecosystem::deploy(&config, 77);
        assert_eq!(&point, eco.operating_point());
        assert_eq!(node.chip().speed_factor, eco.hypervisor.node().chip().speed_factor);
        // And the point is actually programmed into the MSRs.
        assert!(node.msr.voltage_offset_mv(0) > 0.0);
    }

    #[test]
    fn recharacterize_node_measures_aged_margins_and_leaves_no_crash_feed() {
        let config = DeploymentConfig::quick();
        let advisor = crate::training::train_advisor(&config);
        let (mut node, fresh_point) = provision_node(&config, 77, &advisor);
        node.age_by_months(18.0);
        let rejoined_point = recharacterize_node(&config, &mut node, &advisor);
        assert!(
            rejoined_point.min_offset_mv() <= fresh_point.min_offset_mv() + 1e-9,
            "aged silicon cannot have more margin than its fresh self: {} vs {}",
            rejoined_point.min_offset_mv(),
            fresh_point.min_offset_mv()
        );
        assert!(rejoined_point.min_offset_mv() > 0.0, "re-shmoo still finds real margin");
        // The shmoo crashed the node on purpose; none of that may leak
        // into the cluster's service crash feed.
        assert!(node.take_crash_events().is_empty(), "shmoo crashes must be drained");
        assert!(!node.is_crashed());
        // Pure in the node state: same node, same answer.
        let again = recharacterize_node(&config, &mut node, &advisor);
        assert_eq!(again.core_offsets_mv.len(), rejoined_point.core_offsets_mv.len());
    }

    #[test]
    fn ecosystem_recharacterizes_through_the_rack_path() {
        // Right after deploy, the ecosystem's re-run must choose exactly
        // what the rack's rejoin path chooses on a provisioned twin.
        let config = DeploymentConfig::quick();
        let mut eco = Ecosystem::deploy(&config, 77);
        eco.recharacterize();
        let advisor = crate::training::train_advisor(&config);
        let (mut twin, _) = provision_node(&config, 77, &advisor);
        let point = recharacterize_node(&config, &mut twin, &advisor);
        assert_eq!(eco.operating_point(), &point);
    }

    #[test]
    fn backed_off_point_is_shallower() {
        let config = DeploymentConfig::quick();
        let advisor = crate::training::train_advisor(&config);
        let (_, point) = provision_node(&config, 77, &advisor);
        let safe = point.backed_off(0.5);
        assert!(safe.min_offset_mv() < point.min_offset_mv());
        assert!(safe.relaxed_refresh < point.relaxed_refresh);
        let nominal = point.backed_off(1.0);
        assert!(nominal.core_offsets_mv.iter().all(|&mv| mv == 0.0));
    }

    #[test]
    fn deployment_is_deterministic() {
        let a = quick_ecosystem();
        let b = quick_ecosystem();
        assert_eq!(a.operating_point(), b.operating_point());
    }

    #[test]
    #[should_panic(expected = "run the ecosystem")]
    fn premature_report_panics() {
        let eco = quick_ecosystem();
        let _ = eco.savings_report();
    }
}
