//! The deployed ecosystem: the full UniServer lifecycle on one node.

use uniserver_units::{Celsius, Joules, Seconds, Watts};

use uniserver_hypervisor::hypervisor::Hypervisor;
use uniserver_hypervisor::vm::VmConfig;
use uniserver_platform::node::ServerNode;
use uniserver_platform::part::PartSpec;
use uniserver_platform::workload::WorkloadProfile;
use uniserver_predictor::ModeAdvisor;
use uniserver_stresslog::{Schedule, StressLog, StressTargetParams};

use crate::eop::{EopPhase, OperatingPoint};
use crate::optimizer::EopOptimizer;

/// Everything needed to stand up an ecosystem.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentConfig {
    /// The part to deploy.
    pub spec: PartSpec,
    /// Stress-test parameters for (re-)characterization.
    pub stress_params: StressTargetParams,
    /// Predictor training scope: number of sibling chips to learn from.
    pub training_chips: usize,
    /// Risk tolerance handed to the mode advisor.
    pub risk_tolerance: f64,
    /// The optimizer policy.
    pub optimizer: EopOptimizer,
    /// Guests to launch at deployment.
    pub guests: Vec<VmConfig>,
    /// Re-characterization cadence.
    pub recharacterization_period: Seconds,
    /// Minimum spacing between anomaly-triggered re-characterizations
    /// (threshold trips can persist for many intervals; taking the node
    /// offline every tick would defeat the purpose).
    pub anomaly_cooldown: Seconds,
    /// Ambient (inlet) temperature of the node's deployment site: feeds
    /// both the sensors' thermal model and the advisor's risk queries.
    pub ambient: Celsius,
}

impl DeploymentConfig {
    /// A production-flavoured deployment: ARM micro-server, four LDBC
    /// guests, cautious optimizer.
    #[must_use]
    pub fn standard() -> Self {
        DeploymentConfig {
            spec: PartSpec::arm_microserver(),
            stress_params: StressTargetParams::standard(),
            training_chips: 3,
            risk_tolerance: 0.02,
            optimizer: EopOptimizer::cautious(),
            guests: vec![VmConfig::ldbc_benchmark(); 4],
            recharacterization_period: Seconds::new(2.5 * 30.0 * 24.0 * 3600.0),
            anomaly_cooldown: Seconds::new(3_600.0),
            ambient: Celsius::new(26.0),
        }
    }

    /// A reduced configuration for tests and doc examples.
    #[must_use]
    pub fn quick() -> Self {
        DeploymentConfig {
            stress_params: StressTargetParams::quick(),
            training_chips: 2,
            guests: vec![VmConfig::ldbc_benchmark()],
            ..DeploymentConfig::standard()
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

/// Characterizes `node` with a fresh StressLog and chooses its EOP
/// against `advisor` at the node's ambient, for the load the first
/// configured guest runs (idle without guests). Returns the StressLog,
/// that expected workload and the point, which is not yet programmed.
fn characterize_and_choose(
    config: &DeploymentConfig,
    node: &mut ServerNode,
    advisor: &ModeAdvisor,
) -> (StressLog, WorkloadProfile, OperatingPoint) {
    let mut stresslog = StressLog::new(config.stress_params.clone());
    let margins = stresslog.characterize(node);
    let expected_workload =
        config.guests.first().map_or_else(WorkloadProfile::idle, |g| g.workload.clone());
    let point = config.optimizer.choose(
        &config.spec,
        &margins,
        advisor,
        &expected_workload,
        node.ambient(),
    );
    (stresslog, expected_workload, point)
}

/// Provisions one bare node at its Extended Operating Point — the
/// deploy-into-cluster plumbing. The node is manufactured from `seed`,
/// characterized by the StressLog (per-node silicon, exactly as
/// [`Ecosystem::deploy`] does it), the optimizer chooses an EOP against
/// the shared part-level `advisor`, and the point is programmed into
/// the node's MSRs. Unlike a full [`Ecosystem`], no guests are launched
/// and no baseline twin is kept: the caller (a cluster manager) owns VM
/// placement and baseline accounting.
///
/// The optimizer weighs crash risk under the first configured guest's
/// workload; cluster deployments list their dominant guest profile first.
#[must_use]
pub fn provision_node(
    config: &DeploymentConfig,
    seed: u64,
    advisor: &ModeAdvisor,
) -> (ServerNode, OperatingPoint) {
    let mut node = ServerNode::new(config.spec.clone(), seed);
    node.set_ambient(config.ambient);
    let (_, _, point) = characterize_and_choose(config, &mut node, advisor);
    point.apply_to(&mut node);
    (node, point)
}

/// Re-characterizes an already-deployed node in place — the rejoin path
/// after a repair window. The StressLog re-shmoos the node *as it is
/// now* (aged silicon, current ambient), so the chosen point reflects
/// the margins the hardware actually has today instead of a geometric
/// backoff guess from its pre-deployment characterization. The shmoo's
/// own deliberate crashes are drained by the StressLog; only the chosen
/// point is programmed into the MSRs.
///
/// The advisor query uses the node's *live* ambient (not the config's
/// deploy-time value): a node rejoining mid cooling-failure must choose
/// its point for the hot aisle it is actually in.
#[must_use]
pub fn recharacterize_node(
    config: &DeploymentConfig,
    node: &mut ServerNode,
    advisor: &ModeAdvisor,
) -> OperatingPoint {
    let (_, _, point) = characterize_and_choose(config, node, advisor);
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
    stresslog: StressLog,
    /// Part-level risk model, trained at deploy.
    advisor: ModeAdvisor,
    optimizer: EopOptimizer,
    schedule: Schedule,
    phase: EopPhase,
    current_point: OperatingPoint,
    expected_workload: WorkloadProfile,
    spec: PartSpec,
    ambient: Celsius,
    anomaly_cooldown: Seconds,
    recharacterizations: u64,
    eop_energy: Joules,
    baseline_energy: Joules,
    served: Seconds,
}

impl Ecosystem {
    /// Stands up the full stack: manufactures the node, runs the
    /// pre-deployment characterization, trains the predictor, launches
    /// the guests and moves to the chosen EOP.
    ///
    /// Training here is per-deployment; fleets deploying many nodes of
    /// the same part train once via [`crate::training`] and provision
    /// each node with [`provision_node`].
    ///
    /// # Panics
    ///
    /// Panics if the configured guests do not fit the node's memory.
    #[must_use]
    pub fn deploy(config: &DeploymentConfig, seed: u64) -> Self {
        let advisor = crate::training::train_advisor(config);

        // --- Phase 1: pre-deployment characterization and the EOP.
        let mut node = ServerNode::new(config.spec.clone(), seed);
        node.set_ambient(config.ambient);
        let (stresslog, expected_workload, point) =
            characterize_and_choose(config, &mut node, &advisor);

        // --- Phase 2: deployment.
        let mut hypervisor = Hypervisor::new(node);
        let mut baseline_node = ServerNode::new(config.spec.clone(), seed);
        baseline_node.set_ambient(config.ambient);
        let mut baseline = Hypervisor::new(baseline_node);
        for guest in &config.guests {
            hypervisor.launch_vm(guest.clone()).expect("guest fits the node");
            baseline.launch_vm(guest.clone()).expect("guest fits the baseline");
        }
        let mut eco = Ecosystem {
            hypervisor,
            baseline,
            stresslog,
            advisor,
            optimizer: config.optimizer,
            schedule: Schedule::every(config.recharacterization_period),
            anomaly_cooldown: config.anomaly_cooldown,
            phase: EopPhase::Deployed,
            current_point: OperatingPoint::nominal(config.spec.cores),
            expected_workload,
            spec: config.spec.clone(),
            ambient: config.ambient,
            recharacterizations: 0,
            eop_energy: Joules::ZERO,
            baseline_energy: Joules::ZERO,
            served: Seconds::ZERO,
        };
        eco.apply_point(point);
        eco
    }

    fn apply_point(&mut self, point: OperatingPoint) {
        point.apply_to(self.hypervisor.node_mut());
        self.current_point = point;
    }

    /// The active operating point.
    #[must_use]
    pub fn operating_point(&self) -> &OperatingPoint {
        &self.current_point
    }

    /// The lifecycle phase.
    #[must_use]
    pub fn phase(&self) -> EopPhase {
        self.phase
    }

    /// The production hypervisor (read-only).
    #[must_use]
    pub fn hypervisor(&self) -> &Hypervisor {
        &self.hypervisor
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
                    && now.saturating_sub(last) >= self.anomaly_cooldown;
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
        self.phase = EopPhase::Recharacterizing;
        let margins = self.stresslog.characterize(self.hypervisor.node_mut());
        let point = self.optimizer.choose(
            &self.spec,
            &margins,
            &self.advisor,
            &self.expected_workload,
            self.ambient,
        );
        self.apply_point(point);
        self.schedule.mark_ran(self.hypervisor.node().now());
        self.recharacterizations += 1;
        self.phase = EopPhase::Deployed;
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
        assert_eq!(eco.phase(), EopPhase::Deployed);
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
        assert_eq!(eco.phase(), EopPhase::Deployed);
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
        assert_eq!(node.chip().speed_factor, eco.hypervisor().node().chip().speed_factor);
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
