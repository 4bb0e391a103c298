//! The StressLog daemon (paper §3.D).
//!
//! "A mechanism is needed to produce new nominal values that will still
//! guarantee the safe operations of the server. This mechanism will
//! stress test the machine using predefined applications and compute new
//! safe operating V-F-R margins." The daemon:
//!
//! * is **spawned periodically** (every 2–3 months) or **triggered** by
//!   higher layers on anomalous behaviour ([`Schedule`]);
//! * takes the machine offline and runs one fixed methodology
//!   ([`characterize`]): an undervolting shmoo under bzip2 and the droop
//!   virus, then a refresh sweep on a relaxed-domain DIMM;
//! * wraps the results into a **margin vector** ([`MarginVector`]) for
//!   the hypervisor and cloud layers.
//!
//! # Examples
//!
//! ```
//! use uniserver_platform::{PartSpec, ServerNode};
//!
//! let mut node = ServerNode::new(PartSpec::arm_microserver(), 11);
//! let margins = uniserver_stresslog::characterize(&mut node);
//! assert_eq!(margins.per_core_safe_offset_mv.len(), 8);
//! assert!(margins.safe_refresh.as_secs() >= 1.0);
//! ```

use uniserver_units::Seconds;

use uniserver_platform::node::ServerNode;
use uniserver_platform::workload::WorkloadProfile;
use uniserver_silicon::rng::splitmix64;
use uniserver_stress::campaign::{RefreshSweep, ShmooCampaign, Table2Summary};
use uniserver_stress::kernels;

/// Safety slack subtracted from each core's weakest measured crash
/// offset (millivolts).
const VOLTAGE_SLACK_MV: f64 = 15.0;

/// Multiplier (≤ 1) applied to the measured safe refresh interval.
const REFRESH_DERATING: f64 = 0.8;

/// Salt mixed into the node's manufacture seed for the refresh sweep's
/// stream.
const SWEEP_SALT: u64 = 0x5EED_0D1A_D4A2_7331;

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

/// Takes the node offline and characterizes it.
///
/// The methodology is fixed: the paper's shmoo
/// ([`ShmooCampaign::paper_methodology`]) at 200 ms dwell and one run
/// per (core, workload), under bzip2 and the droop virus; then one pass
/// of the paper's refresh sweep ([`RefreshSweep::paper_sweep`]) on the
/// node's last DIMM. Each core's safe offset is its weakest crash
/// offset minus a 15 mV slack, clamped to `[0, nominal]`; the safe
/// refresh is 0.8 × the longest error-free interval, never below 64 ms.
pub fn characterize(node: &mut ServerNode) -> MarginVector {
    // --- CPU margins via the undervolting shmoo: one pass over the
    // raw runs collecting each core's weakest crash point.
    let campaign = ShmooCampaign {
        dwell: Seconds::from_millis(200.0),
        runs: 1,
        ..ShmooCampaign::paper_methodology()
    };
    let shmoo =
        campaign.run_on(node, &[WorkloadProfile::spec_bzip2(), kernels::droop_resonator()]);
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
            let safe = (mv - VOLTAGE_SLACK_MV).max(0.0);
            // Never suggest more than the MSR can express.
            safe.min(nominal_mv)
        })
        .collect();

    // --- DRAM margins via the refresh sweep on a relaxed-domain DIMM.
    // The sweep stream derives from the node's own manufacture seed:
    // a per-part constant here would hand every node of a part the
    // identical DRAM draw, collapsing fleet-level refresh diversity.
    let sweep = RefreshSweep { passes: 1, ..RefreshSweep::paper_sweep() };
    let last_dimm = node.memory.dimms().len() - 1;
    let sweep_seed = splitmix64(node.seed() ^ SWEEP_SALT);
    let points = sweep.run(&mut node.memory, last_dimm, sweep_seed);
    let measured_safe =
        RefreshSweep::max_safe_interval(&points).unwrap_or(Seconds::from_millis(64.0));
    let safe_refresh = Seconds::new((measured_safe.as_secs() * REFRESH_DERATING).max(0.064));

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
    vector
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniserver_platform::part::PartSpec;

    fn characterized() -> (ServerNode, MarginVector) {
        let mut node = ServerNode::new(PartSpec::arm_microserver(), 11);
        let margins = characterize(&mut node);
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
    fn margins_are_the_slackened_shmoo_and_the_derated_sweep() {
        // Run the same campaign and sweep by hand on a twin of the node:
        // each core's safe offset is its weakest crash offset less 15 mV
        // (clamped), and the safe refresh is 0.8 × the measured one,
        // floored at the 64 ms nominal.
        let spec = PartSpec::arm_microserver();
        let mut node = ServerNode::new(spec.clone(), 13);
        let margins = characterize(&mut node);

        let mut twin = ServerNode::new(spec, 13);
        let campaign = ShmooCampaign {
            dwell: Seconds::from_millis(200.0),
            runs: 1,
            ..ShmooCampaign::paper_methodology()
        };
        let shmoo =
            campaign.run_on(&mut twin, &[WorkloadProfile::spec_bzip2(), kernels::droop_resonator()]);
        let nominal_mv = twin.part().nominal_voltage.as_millivolts();
        for (core, &safe) in margins.per_core_safe_offset_mv.iter().enumerate() {
            let weakest = shmoo
                .runs
                .iter()
                .filter(|r| r.core == core)
                .map(|r| r.crash_offset_mv)
                .fold(f64::MAX, f64::min);
            assert_eq!(safe, (weakest - 15.0).clamp(0.0, nominal_mv), "core {core}");
        }

        let sweep = RefreshSweep { passes: 1, ..RefreshSweep::paper_sweep() };
        let last_dimm = twin.memory.dimms().len() - 1;
        let sweep_seed = splitmix64(twin.seed() ^ SWEEP_SALT);
        let points = sweep.run(&mut twin.memory, last_dimm, sweep_seed);
        let measured = RefreshSweep::max_safe_interval(&points).expect("some interval is safe");
        assert_eq!(margins.safe_refresh.as_secs(), (0.8 * measured.as_secs()).max(0.064));
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
    fn recharacterization_tracks_aging() {
        // The reason the StressLog re-runs "several times over the
        // lifetime of a server": after years of drift the safe margins
        // shrink, and a fresh characterization discovers that.
        let mut node = ServerNode::new(PartSpec::arm_microserver(), 23);
        let fresh = characterize(&mut node);
        node.age_by_months(48.0);
        let aged = characterize(&mut node);
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
    fn each_characterization_is_stamped_later() {
        let mut node = ServerNode::new(PartSpec::arm_microserver(), 19);
        let first = characterize(&mut node);
        let second = characterize(&mut node);
        assert!(second.produced_at > first.produced_at);
    }
}
