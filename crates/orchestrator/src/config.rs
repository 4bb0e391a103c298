//! Orchestrator scenario configuration.

use uniserver_units::Seconds;

use uniserver_cloudmgr::cluster::ClusterConfig;
use uniserver_cloudmgr::policy::PolicyKind;
use uniserver_cloudmgr::stream::VmStream;
use uniserver_core::ecosystem::DeploymentConfig;
use uniserver_core::optimizer::EopOptimizer;
use uniserver_faultinject::chaos::ChaosPlan;
use uniserver_hypervisor::vm::VmConfig;

/// Which margins the fleet's nodes deploy at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarginPolicy {
    /// Characterize every node and run it at its Extended Operating
    /// Point — the paper's savings story, with its elevated crash risk.
    Extended,
    /// Conservative guard-bands: no characterization, stock settings.
    /// The ablation baseline the extended fleet is compared against.
    Nominal,
}

impl MarginPolicy {
    /// Stable label used in summaries.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MarginPolicy::Extended => "extended",
            MarginPolicy::Nominal => "nominal",
        }
    }
}

/// Admission control: what happens to an arrival the scheduler rejects.
///
/// Rejections used to vanish — gold included. With a non-zero budget a
/// rejected arrival enters a bounded per-class FIFO and is re-offered at
/// the start of each subsequent tick (gold first, into capacity that
/// departures and crash recovery just freed); it is counted `abandoned`
/// only once its budget is exhausted, the queue overflows, or the
/// horizon ends with it still waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Re-offer attempts granted per class (gold, silver, bronze order)
    /// before a rejection is abandoned. 0 = legacy drop-on-rejection.
    pub retry_budget: [u32; 3],
    /// Bound of each class's retry queue; overflow abandons immediately.
    pub queue_depth: usize,
}

impl AdmissionPolicy {
    /// The legacy policy: every rejection is dropped (abandoned)
    /// immediately. The default, so prior flat-stream runs reproduce.
    #[must_use]
    pub(crate) fn drop_all() -> Self {
        AdmissionPolicy { retry_budget: [0, 0, 0], queue_depth: 0 }
    }

    /// Premium-class re-admission: gold rejections retry up to 4 ticks,
    /// silver 2, bronze stays best-effort drop.
    #[must_use]
    pub fn gold_priority() -> Self {
        AdmissionPolicy { retry_budget: [4, 2, 0], queue_depth: 4096 }
    }
}

/// Everything one orchestrated cluster run needs.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Cluster shape: node count, part mix, scheduler, migration net.
    pub cluster: ClusterConfig,
    /// Scenario seed; node silicon, ambient spread and the arrival
    /// stream all derive their sub-streams from it.
    pub seed: u64,
    /// Simulated serving span.
    pub horizon: Seconds,
    /// Simulation tick (arrival batches are drawn per tick).
    pub tick: Seconds,
    /// Worker threads for deploy **and** the serving loop's sharded
    /// per-node phase; 0 = one per available core, and explicit counts
    /// are clamped to the available cores (oversubscribing a CPU-bound
    /// phase only adds scheduling overhead). Deploy runs on that many
    /// scoped threads; for ticks it is a cap, and each tick runs on the
    /// calling thread or fans out up to it as its measured work pays
    /// for. Placement decisions and all reduces stay sequential in
    /// node-index order, so thread count can never change a summary.
    pub threads: usize,
    /// The VM arrival process. Arrival batches are drawn at the rack's
    /// capacity-scaled rate (`tick_arrivals_scaled` with the cluster's
    /// node count).
    pub stream: VmStream,
    /// What happens to rejected arrivals.
    pub admission: AdmissionPolicy,
    /// Per-node deployment template (stress params, optimizer, base
    /// ambient). The part is overridden per node from the cluster mix.
    pub deployment: DeploymentConfig,
    /// Half-width (°C) of the uniform per-node ambient spread.
    pub ambient_spread: f64,
    /// Margin policy for the whole fleet.
    pub margins: MarginPolicy,
    /// How far a node's operating point is scaled back towards nominal
    /// after it crashes (0.0 = reapply unchanged, 1.0 = fall back to
    /// nominal for good).
    pub crash_backoff: f64,
    /// Months of silicon aging applied after characterization — the
    /// scenario models a rack partway into its re-characterization
    /// window, where NBTI drift has eroded the margins the StressLog
    /// measured at deploy time (§3.D). Zero = freshly characterized.
    pub age_months: f64,
    /// The node failure lifecycle switch. Off (the default), crashed
    /// nodes recover in place with the geometric EOP backoff — the
    /// legacy behavior, preserved draw-for-draw. On, a crash takes the
    /// node offline for a seeded MTTR window
    /// (`uniserver_cloudmgr::lifecycle::MTTR_TICKS`) and it rejoins
    /// through a re-characterization pass; while any node is offline,
    /// a premium re-offer that still fails sheds a bronze-first
    /// placement to make room.
    pub lifecycle: bool,
    /// Seeded fault campaigns injected on top of the fleet's natural
    /// crashes. `None` (the default) = no chaos.
    pub chaos: Option<ChaosPlan>,
    /// The placement policy the cluster routes every decision through.
    /// [`PolicyKind::EnergySla`] (the default) reproduces pre-trait
    /// behavior byte-for-byte.
    pub policy: PolicyKind,
}

impl OrchestratorConfig {
    /// The headline datacenter scenario: `nodes` mixed ARM+i5+i7
    /// machines (6:1:1), a 3-arrivals-per-second LDBC stream (≥10⁴
    /// arrivals over the hour-long horizon), 5 s ticks, ±6 °C ambient
    /// spread, extended margins.
    ///
    /// The rack runs the **assertive** optimizer (full measured margin,
    /// predictor-vetoed) and is modeled 18 months into its
    /// re-characterization window, so aging drift has eaten into the
    /// deploy-time margins — the point of cluster-in-the-loop is that
    /// placement, eviction and migration absorb the residual crash risk
    /// that per-node caution would otherwise buy back with energy.
    #[must_use]
    pub fn datacenter(nodes: usize, seed: u64) -> Self {
        OrchestratorConfig {
            cluster: ClusterConfig::uniserver_rack(nodes),
            seed,
            horizon: Seconds::new(3_600.0),
            tick: Seconds::new(5.0),
            threads: 0,
            stream: VmStream::datacenter(),
            admission: AdmissionPolicy::drop_all(),
            deployment: DeploymentConfig {
                guests: vec![VmConfig::ldbc_benchmark()],
                optimizer: EopOptimizer::assertive(),
                risk_tolerance: 0.05,
                ..DeploymentConfig::quick()
            },
            ambient_spread: 6.0,
            margins: MarginPolicy::Extended,
            crash_backoff: 0.25,
            age_months: 18.0,
            lifecycle: false,
            chaos: None,
            policy: PolicyKind::EnergySla,
        }
    }

    /// A CI-sized smoke scenario: the same structure at `nodes` nodes
    /// over a 5-minute horizon with a proportionally lighter stream.
    #[must_use]
    pub fn smoke(nodes: usize, seed: u64) -> Self {
        OrchestratorConfig {
            horizon: Seconds::new(300.0),
            stream: VmStream { arrival_rate: 0.75, ..VmStream::datacenter() },
            ..OrchestratorConfig::datacenter(nodes, seed)
        }
    }

    /// The traffic-engine headline: the datacenter rack under the
    /// [`VmStream::flash_crowd`] stream — capacity-scaled arrivals,
    /// diurnal swell, seeded flash-crowd bursts, bounded-Pareto
    /// lifetimes — with gold-priority re-admission so burst-time
    /// rejections retry into freed capacity instead of vanishing.
    #[must_use]
    pub fn flash_crowd(nodes: usize, seed: u64) -> Self {
        OrchestratorConfig {
            stream: VmStream::flash_crowd(),
            admission: AdmissionPolicy::gold_priority(),
            ..OrchestratorConfig::datacenter(nodes, seed)
        }
    }

    /// The chaos headline: the flash-crowd rack under the failure
    /// lifecycle and the [`ChaosPlan::rack_and_flash`] fault profile —
    /// a steady background of independent node crashes, a rack/PSU
    /// failure taking out 12.5 % of the fleet a third of the way in,
    /// and a cooling failure overlapping the traffic peak. Crashed
    /// nodes go offline for a seeded 12–96-tick repair and rejoin
    /// through re-characterization; load sheds bronze-first while
    /// capacity is short.
    #[must_use]
    pub fn chaos_profile(nodes: usize, seed: u64) -> Self {
        let mut config = OrchestratorConfig::flash_crowd(nodes, seed);
        config.lifecycle = true;
        config.chaos = Some(ChaosPlan::rack_and_flash(config.ticks()));
        config
    }

    /// The gray-failure headline: the flash-crowd rack under the
    /// failure lifecycle, the [`ChaosPlan::gray_brownout`] campaign —
    /// a steady trickle of silent degradations (capacity capped at
    /// 50 %, CE rate 8×, no crash) plus a fleet-wide power cap over
    /// the back half of the run. The gray campaign brings the health
    /// watchdog ([`crate::watchdog`]) with it: 3-of-8 probe failures
    /// quarantine a node, a budgeted drain empties it, and 5
    /// consecutive clean probes readmit it.
    #[must_use]
    pub fn gray_profile(nodes: usize, seed: u64) -> Self {
        let mut config = OrchestratorConfig::flash_crowd(nodes, seed);
        config.lifecycle = true;
        config.chaos = Some(ChaosPlan::gray_brownout(config.ticks(), nodes as u32));
        config
    }

    /// Ticks the horizon divides into (the last, possibly partial, tick
    /// is rounded up).
    ///
    /// # Panics
    ///
    /// Panics if tick or horizon are non-positive.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        assert!(self.tick.as_secs() > 0.0, "tick must be positive");
        assert!(self.horizon.as_secs() > 0.0, "horizon must be positive");
        (self.horizon.as_secs() / self.tick.as_secs()).ceil() as u64
    }
}
