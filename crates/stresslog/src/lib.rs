//! The StressLog daemon (paper §3.D).
//!
//! "A mechanism is needed to produce new nominal values that will still
//! guarantee the safe operations of the server. This mechanism will
//! stress test the machine using predefined applications and compute new
//! safe operating V-F-R margins." The daemon:
//!
//! * is **spawned periodically** (every 2–3 months) or **triggered** by
//!   higher layers on anomalous behaviour ([`Schedule`]);
//! * takes the machine offline, receives its **stress target
//!   parameters** ([`StressTargetParams`]) and runs the characterization
//!   campaigns (undervolting shmoo + refresh sweep);
//! * wraps the results into a **margin vector** ([`MarginVector`]) for
//!   the hypervisor and cloud layers.
//!
//! # Examples
//!
//! ```
//! use uniserver_platform::{PartSpec, ServerNode};
//! use uniserver_stresslog::{StressLog, StressTargetParams};
//!
//! let mut node = ServerNode::new(PartSpec::arm_microserver(), 11);
//! let mut daemon = StressLog::new(StressTargetParams::quick());
//! let margins = daemon.characterize(&mut node);
//! assert_eq!(margins.per_core_safe_offset_mv.len(), 8);
//! assert!(margins.safe_refresh.as_secs() >= 1.0);
//! ```

use uniserver_units::Seconds;

use uniserver_platform::node::ServerNode;
use uniserver_platform::workload::WorkloadProfile;
use uniserver_silicon::rng::splitmix64;
use uniserver_stress::campaign::{RefreshSweep, ShmooCampaign, Table2Summary};
use uniserver_stress::kernels;

/// Input parameters handed down by higher layers ("as soon as the
/// monitor receives the input stress target parameters from the higher
/// system layers, it will initiate the stress test scenarios").
#[derive(Debug, Clone, PartialEq)]
pub struct StressTargetParams {
    /// Workload suite: benchmarks representing real applications plus
    /// hand-coded component stressors.
    pub workloads: Vec<WorkloadProfile>,
    /// Undervolting shmoo methodology.
    pub shmoo: ShmooCampaign,
    /// Refresh-relaxation sweep methodology.
    pub refresh: RefreshSweep,
    /// Safety slack subtracted from measured crash offsets (millivolts).
    pub voltage_slack_mv: f64,
    /// Multiplier (≤ 1) applied to the measured safe refresh interval.
    pub refresh_derating: f64,
}

impl StressTargetParams {
    /// The full suite: the SPEC subset plus every hand-coded kernel, at
    /// the paper's methodology settings.
    #[must_use]
    pub fn standard() -> Self {
        let mut workloads = WorkloadProfile::spec2006_subset();
        workloads.extend(kernels::suite());
        StressTargetParams {
            workloads,
            shmoo: ShmooCampaign::paper_methodology(),
            refresh: RefreshSweep::paper_sweep(),
            voltage_slack_mv: 15.0,
            refresh_derating: 0.8,
        }
    }

    /// A reduced suite for tests and doc examples.
    #[must_use]
    pub fn quick() -> Self {
        let mut p = StressTargetParams::standard();
        p.workloads = vec![WorkloadProfile::spec_bzip2(), kernels::droop_resonator()];
        p.shmoo.dwell = Seconds::from_millis(200.0);
        p.shmoo.runs = 1;
        p.refresh.passes = 1;
        p
    }
}

impl Default for StressTargetParams {
    fn default() -> Self {
        StressTargetParams::standard()
    }
}

/// The output vector "containing the new safe system V-F-R margins that
/// will be suggested to the software (i.e. Hypervisor) for future
/// usage" (§2.ii).
#[derive(Debug, Clone, PartialEq)]
pub struct MarginVector {
    /// Node time at which the characterization finished.
    pub produced_at: Seconds,
    /// Part the margins apply to.
    pub part_name: String,
    /// Maximum safe undervolt per core, in millivolts below nominal
    /// (measured weakest crash point minus the safety slack).
    pub per_core_safe_offset_mv: Vec<f64>,
    /// Safe refresh interval for relaxed memory domains.
    pub safe_refresh: Seconds,
    /// Condensed crash/CE statistics from the shmoo (Table 2 form).
    pub summary: Table2Summary,
}

impl MarginVector {
    /// The node-wide safe offset: limited by the weakest core.
    ///
    /// # Panics
    ///
    /// Panics if the vector covers no cores.
    #[must_use]
    pub fn node_safe_offset_mv(&self) -> f64 {
        assert!(!self.per_core_safe_offset_mv.is_empty(), "empty margin vector");
        self.per_core_safe_offset_mv.iter().cloned().fold(f64::MAX, f64::min)
    }
}

/// Periodic/triggered scheduling of re-characterizations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    /// Period between routine runs (the paper suggests 2–3 months).
    pub period: Seconds,
    /// When the daemon last ran, if ever.
    pub last_run: Option<Seconds>,
}

impl Schedule {
    /// A fresh schedule with the given period that has never run.
    #[must_use]
    pub fn every(period: Seconds) -> Self {
        Schedule { period, last_run: None }
    }

    /// The paper's suggested cadence (~2.5 months).
    #[must_use]
    pub fn paper_cadence() -> Self {
        Schedule::every(Seconds::new(2.5 * 30.0 * 24.0 * 3600.0))
    }

    /// Whether a characterization is due: never ran, period elapsed, or
    /// an anomaly was flagged by the HealthLog.
    #[must_use]
    pub fn due(&self, now: Seconds, anomaly: bool) -> bool {
        if anomaly {
            return true;
        }
        match self.last_run {
            None => true,
            Some(last) => now.saturating_sub(last) >= self.period,
        }
    }

    /// Records a completed run.
    pub fn mark_ran(&mut self, now: Seconds) {
        self.last_run = Some(now);
    }
}

/// The StressLog daemon.
#[derive(Debug, Clone)]
pub struct StressLog {
    params: StressTargetParams,
    history: Vec<MarginVector>,
}

impl StressLog {
    /// Creates a daemon with the given stress target parameters.
    #[must_use]
    pub fn new(params: StressTargetParams) -> Self {
        StressLog { params, history: Vec::new() }
    }

    /// The configured parameters.
    #[must_use]
    pub fn params(&self) -> &StressTargetParams {
        &self.params
    }

    /// All previously produced margin vectors, oldest first.
    #[must_use]
    pub fn history(&self) -> &[MarginVector] {
        &self.history
    }

    /// Takes the node offline and characterizes it.
    pub fn characterize(&mut self, node: &mut ServerNode) -> MarginVector {
        // --- CPU margins via the undervolting shmoo: one pass over the
        // raw runs collecting each core's weakest crash point.
        let shmoo = self.params.shmoo.run_on(node, &self.params.workloads);
        let nominal_mv = node.part().nominal_voltage.as_millivolts();
        let cores = shmoo.cores();
        let mut weakest_mv = vec![f64::MAX; cores.len()];
        for r in &shmoo.runs {
            let pos = cores.binary_search(&r.core).expect("core listed by the shmoo");
            weakest_mv[pos] = weakest_mv[pos].min(r.crash_offset_mv);
        }
        let per_core: Vec<f64> = weakest_mv
            .into_iter()
            .map(|mv| {
                let safe = (mv - self.params.voltage_slack_mv).max(0.0);
                // Never suggest more than the MSR can express.
                safe.min(nominal_mv)
            })
            .collect();

        // --- DRAM margins via the refresh sweep on a relaxed-domain DIMM.
        // The sweep stream derives from the node's own manufacture seed:
        // a per-part constant here would hand every node of a part the
        // identical DRAM draw, collapsing fleet-level refresh diversity.
        let last_dimm = node.memory.dimms().len() - 1;
        let sweep_seed = splitmix64(node.seed() ^ 0x5EED_0D1A_D4A2_7331);
        let points = self.params.refresh.run(&mut node.memory, last_dimm, sweep_seed);
        let measured_safe = RefreshSweep::max_safe_interval(&points)
            .unwrap_or(Seconds::from_millis(64.0));
        let safe_refresh =
            Seconds::new((measured_safe.as_secs() * self.params.refresh_derating).max(0.064));

        let vector = MarginVector {
            produced_at: node.now(),
            part_name: node.part().name.clone(),
            per_core_safe_offset_mv: per_core,
            safe_refresh,
            summary: Table2Summary::from_shmoo(&shmoo),
        };
        // The shmoo crashes the node on purpose, core by core, to find
        // the ladder's crash points. Those are measurements, not service
        // failures — drain them so the cluster's crash feed only ever
        // reports production crashes.
        let _ = node.take_crash_events();
        self.history.push(vector.clone());
        vector
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniserver_platform::part::PartSpec;

    fn characterized() -> (ServerNode, MarginVector) {
        let mut node = ServerNode::new(PartSpec::arm_microserver(), 11);
        let mut daemon = StressLog::new(StressTargetParams::quick());
        let margins = daemon.characterize(&mut node);
        (node, margins)
    }

    #[test]
    fn margins_cover_every_core_and_are_substantial() {
        let (node, margins) = characterized();
        assert_eq!(margins.per_core_safe_offset_mv.len(), node.core_count());
        for (core, &mv) in margins.per_core_safe_offset_mv.iter().enumerate() {
            // The ARM part's crash offsets sit near 9–13 % of 980 mV; the
            // safe margin after slack must remain far beyond nominal DVFS.
            assert!((25.0..200.0).contains(&mv), "core {core} safe offset {mv} mV");
        }
        assert!(margins.safe_refresh.as_secs() > 0.5, "safe refresh {}", margins.safe_refresh);
    }

    #[test]
    fn characterization_crashes_do_not_reach_the_service_crash_feed() {
        let (mut node, margins) = characterized();
        assert!(
            node.pending_crashes().is_empty(),
            "shmoo crashes are measurements, not service failures"
        );
        // A real in-service crash afterwards still surfaces.
        node.msr.set_voltage_offset_all(margins.node_safe_offset_mv() + 120.0).unwrap();
        let w = WorkloadProfile::spec_zeusmp();
        while node.run_interval(&w, Seconds::from_millis(100.0)).crash.is_none() {}
        assert_eq!(node.pending_crashes().len(), 1);
    }

    #[test]
    fn margin_vector_is_actually_safe_to_operate_at() {
        let (mut node, margins) = characterized();
        // Apply the advertised node-wide safe offset and run for a while:
        // the whole point of the margin vector is that this must not crash.
        node.msr.set_voltage_offset_all(margins.node_safe_offset_mv()).unwrap();
        let w = WorkloadProfile::spec_bzip2();
        for _ in 0..100 {
            let report = node.run_interval(&w, Seconds::from_millis(200.0));
            assert!(report.crash.is_none(), "crashed at the advertised safe offset");
        }
    }

    #[test]
    fn slack_widens_safety() {
        let mut node_a = ServerNode::new(PartSpec::arm_microserver(), 11);
        let mut node_b = ServerNode::new(PartSpec::arm_microserver(), 11);
        let mut tight = StressLog::new(StressTargetParams {
            voltage_slack_mv: 5.0,
            ..StressTargetParams::quick()
        });
        let mut wide = StressLog::new(StressTargetParams {
            voltage_slack_mv: 25.0,
            ..StressTargetParams::quick()
        });
        let a = tight.characterize(&mut node_a);
        let b = wide.characterize(&mut node_b);
        assert!(b.node_safe_offset_mv() < a.node_safe_offset_mv());
    }

    #[test]
    fn refresh_derating_shrinks_the_interval() {
        let mut node_a = ServerNode::new(PartSpec::arm_microserver(), 13);
        let mut node_b = ServerNode::new(PartSpec::arm_microserver(), 13);
        let mut full = StressLog::new(StressTargetParams {
            refresh_derating: 1.0,
            ..StressTargetParams::quick()
        });
        let mut derated = StressLog::new(StressTargetParams {
            refresh_derating: 0.5,
            ..StressTargetParams::quick()
        });
        let a = full.characterize(&mut node_a);
        let b = derated.characterize(&mut node_b);
        assert!(b.safe_refresh < a.safe_refresh);
        assert!((b.safe_refresh.as_secs() / a.safe_refresh.as_secs() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn schedule_semantics() {
        let mut s = Schedule::every(Seconds::new(100.0));
        assert!(s.due(Seconds::ZERO, false), "never ran -> due");
        s.mark_ran(Seconds::new(10.0));
        assert!(!s.due(Seconds::new(50.0), false));
        assert!(s.due(Seconds::new(110.0), false), "period elapsed -> due");
        assert!(s.due(Seconds::new(50.0), true), "anomaly -> due regardless");
    }

    #[test]
    fn paper_cadence_is_months() {
        let s = Schedule::paper_cadence();
        let days = s.period.as_secs() / 86_400.0;
        assert!((60.0..100.0).contains(&days), "cadence {days} days");
    }

    #[test]
    fn recharacterization_tracks_aging() {
        // The reason the StressLog re-runs "several times over the
        // lifetime of a server": after years of drift the safe margins
        // shrink, and a fresh characterization discovers that.
        let mut node = ServerNode::new(PartSpec::arm_microserver(), 23);
        let mut daemon = StressLog::new(StressTargetParams::quick());
        let fresh = daemon.characterize(&mut node);
        node.age_by_months(48.0);
        let aged = daemon.characterize(&mut node);
        assert!(
            aged.node_safe_offset_mv() < fresh.node_safe_offset_mv(),
            "aged margins ({:.0} mV) must be tighter than fresh ({:.0} mV)",
            aged.node_safe_offset_mv(),
            fresh.node_safe_offset_mv()
        );
        // And the drift magnitude is in the NBTI ballpark (tens of mV).
        let delta = fresh.node_safe_offset_mv() - aged.node_safe_offset_mv();
        assert!((5.0..60.0).contains(&delta), "drift delta {delta} mV");
    }

    #[test]
    fn history_accumulates() {
        let mut node = ServerNode::new(PartSpec::arm_microserver(), 19);
        let mut daemon = StressLog::new(StressTargetParams::quick());
        let _ = daemon.characterize(&mut node);
        let _ = daemon.characterize(&mut node);
        assert_eq!(daemon.history().len(), 2);
        assert!(daemon.history()[1].produced_at > daemon.history()[0].produced_at);
    }
}
