//! Log-pattern failure prediction (paper §5.B, refs \[21\]–\[24\]).
//!
//! "These techniques generally leverage machine learning or statistical
//! analysis techniques to process the log data generated from the
//! physical or virtual servers" — here: a message-pattern scorer over
//! the HealthLog's typed event counts (a crash, and each error record by
//! severity, is one pattern occurrence) with a silent-log decay, fused
//! into a node reliability score in `[0, 1]`. UniServer's contribution
//! is the *integration*: the score feeds the scheduler and the proactive
//! migrator directly.

use uniserver_healthlog::{EventCounts, HealthLog};

/// Per-occurrence pattern weights, learned-by-construction after ref
/// [24]'s message-pattern classification: crash markers and uncorrected
/// errors dominate, corrected errors contribute mildly.
const CRASH_WEIGHT: f64 = 3.0;
const UE_WEIGHT: f64 = 1.2;
const FATAL_WEIGHT: f64 = 3.0;
const CE_WEIGHT: f64 = 0.15;

/// Scores one event interval: each occurrence contributes its weight
/// (an interval reporting thirty corrected errors is thirty times the
/// evidence of one reporting a single error).
fn event_score(e: &EventCounts) -> f64 {
    f64::from(u8::from(e.crashed)) * CRASH_WEIGHT
        + e.ue as f64 * UE_WEIGHT
        + e.fatal as f64 * FATAL_WEIGHT
        + e.ce as f64 * CE_WEIGHT
}

/// The summed score of the log's retained event window, oldest first.
fn window_score(health: &HealthLog) -> f64 {
    health.recent_events().iter().map(event_score).sum()
}

/// Log-score at which reliability reaches ~0.27 (e^-1.3).
const SCORE_SCALE: f64 = 4.0;

/// Per-update decay of the rolling score while a node's log stays
/// silent: error evidence ages out, so a node that has run clean since
/// its last event gradually regains trust (and re-enters the
/// scheduler's pool) instead of being quarantined forever.
const SILENT_DECAY: f64 = 0.97;

/// The reliability in `[0, 1]` of a log-score: `exp(-score / scale)`.
/// A node whose log never scored an event (score exactly 0) is at 1.0
/// without the `exp`.
fn reliability_of(score: f64) -> f64 {
    if score == 0.0 {
        return 1.0;
    }
    (-score / SCORE_SCALE).exp()
}

/// Whether a reliability crosses the "about to fail" line.
pub(crate) fn predicts_failure(reliability: f64) -> bool {
    reliability < 0.5
}

/// One node's rolling failure score: the lifetime event count of its
/// health log that the score covers, and the score (`None` before the
/// first update). An update re-sums the log's event window when the log
/// grew since the last one; while the log stays silent it decays the
/// score by [`SILENT_DECAY`] instead, so past error evidence ages out
/// and the node's reliability recovers towards 1.0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct RollingScore(Option<(usize, f64)>);

impl RollingScore {
    /// The score the next update over `health` holds, and whether it
    /// re-sums the event window.
    fn next(self, health: &HealthLog) -> (f64, bool) {
        match self.0 {
            Some((seen, score)) if seen == health.events_logged() => (score * SILENT_DECAY, false),
            _ => (window_score(health), true),
        }
    }

    /// Advances the score over `health` and returns the new reliability
    /// and whether the update re-summed the event window.
    pub(crate) fn update(&mut self, health: &HealthLog) -> (f64, bool) {
        let (score, rescored) = self.next(health);
        *self = RollingScore(Some((health.events_logged(), score)));
        (reliability_of(score), rescored)
    }
}

/// The failure predictor for callers that drive health logs outside a
/// cluster: the rolling-score update every cluster node runs on its own
/// score, over one score per node id (grown on demand).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailurePredictor {
    scores: Vec<RollingScore>,
}

impl FailurePredictor {
    /// Creates a predictor.
    #[must_use]
    pub fn new() -> Self {
        FailurePredictor::default()
    }

    /// Scores a node's health log into a reliability value in `[0, 1]`:
    /// `exp(-window_score / scale)`. A silent log scores 1.0.
    #[must_use]
    pub fn reliability(&self, health: &HealthLog) -> f64 {
        reliability_of(window_score(health))
    }

    /// Advances node `node_id`'s rolling score over its log and returns
    /// the node's reliability: the log is re-scored only when it logged
    /// an event since the last update, and while it stays silent the
    /// score decays, so past error evidence ages out and the reliability
    /// recovers towards 1.0.
    pub fn update_node(&mut self, node_id: u32, health: &HealthLog) -> f64 {
        let i = node_id as usize;
        if i >= self.scores.len() {
            self.scores.resize(i + 1, RollingScore::default());
        }
        self.scores[i].update(health).0
    }

    /// The reliability [`FailurePredictor::update_node`] would return
    /// for the same arguments, without changing any state.
    #[must_use]
    pub fn observe(&self, node_id: u32, health: &HealthLog) -> f64 {
        let score = self.scores.get(node_id as usize).copied().unwrap_or_default();
        reliability_of(score.next(health).0)
    }

    /// Whether the score crosses the "about to fail" line.
    #[must_use]
    pub fn predicts_failure(&self, reliability: f64) -> bool {
        predicts_failure(reliability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniserver_healthlog::RECENT_EVENTS;
    use uniserver_platform::mca::{ErrorOrigin, MceRecord};
    use uniserver_platform::node::{CrashEvent, ServerNode};
    use uniserver_platform::part::PartSpec;
    use uniserver_platform::workload::WorkloadProfile;
    use uniserver_silicon::{ErrorSeverity, FaultKind};
    use uniserver_units::{Seconds, Volts};

    use ErrorSeverity::{Corrected as CE, Fatal as FATAL, Uncorrected as UE};

    /// A node and its health log. Each interval ingests a real
    /// `run_interval` report whose crash and error records are replaced
    /// by the ones the test asks for.
    struct Logged {
        node: ServerNode,
        health: HealthLog,
    }

    impl Logged {
        fn new() -> Self {
            Logged {
                node: ServerNode::new(PartSpec::arm_microserver(), 5),
                health: HealthLog::new(),
            }
        }

        fn with(intervals: &[Interval]) -> Self {
            let mut log = Logged::new();
            for &(crashed, errors) in intervals {
                log.interval(crashed, errors);
            }
            log
        }

        fn interval(&mut self, crashed: bool, errors: &[ErrorSeverity]) {
            let mut report = self.node.run_interval(&WorkloadProfile::idle(), Seconds::new(1.0));
            let at = report.at;
            report.crash = crashed.then(|| CrashEvent {
                core: 0,
                at,
                voltage: Volts::ZERO,
                workload: "idle".into(),
            });
            report.errors = errors
                .iter()
                .map(|&severity| MceRecord {
                    at,
                    kind: FaultKind::CacheBit,
                    severity,
                    origin: ErrorOrigin::CacheBank(0),
                    count: 1,
                })
                .collect();
            self.health.ingest_owned(report);
        }
    }

    type Interval = (bool, &'static [ErrorSeverity]);
    const CLEAN: Interval = (false, &[]);
    const ONE_CE: Interval = (false, &[CE]);
    const ONE_UE: Interval = (false, &[UE]);
    const CRASH: Interval = (true, &[FATAL]);

    #[test]
    fn silent_log_is_fully_reliable() {
        let p = FailurePredictor::new();
        let h = Logged::with(&[CLEAN; 5]);
        assert_eq!(p.reliability(&h.health), 1.0);
        assert!(!p.predicts_failure(1.0));
    }

    #[test]
    fn a_zero_score_skips_only_an_exp_of_one() {
        for score in [0.0, -0.0] {
            assert_eq!(reliability_of(score).to_bits(), (-score / SCORE_SCALE).exp().to_bits());
        }
        assert_eq!(reliability_of(f64::MIN_POSITIVE), (-f64::MIN_POSITIVE / SCORE_SCALE).exp());
    }

    #[test]
    fn ces_erode_reliability_slowly_ues_fast() {
        let p = FailurePredictor::new();
        let ce_log = Logged::with(&[ONE_CE; 8]);
        let ue_log = Logged::with(&[ONE_UE; 8]);
        let r_ce = p.reliability(&ce_log.health);
        let r_ue = p.reliability(&ue_log.health);
        assert!(r_ce > 0.6, "CE-only log keeps reliability high: {r_ce}");
        assert!(r_ue < r_ce, "UEs must erode faster: {r_ue} vs {r_ce}");
        assert!(p.predicts_failure(r_ue));
    }

    #[test]
    fn crash_markers_are_decisive() {
        let p = FailurePredictor::new();
        let r = p.reliability(&Logged::with(&[CRASH]).health);
        assert!(r < 0.3, "a crash interval must tank reliability: {r}");
    }

    #[test]
    fn window_forgets_ancient_history() {
        let p = FailurePredictor::new();
        let recent = vec![ONE_CE; RECENT_EVENTS];
        let mut intervals = vec![CRASH; 4];
        intervals.extend(&recent);
        // The crashes scrolled out of the event window.
        assert_eq!(
            p.reliability(&Logged::with(&intervals).health),
            p.reliability(&Logged::with(&recent).health)
        );
    }

    #[test]
    fn update_node_memoizes_and_decays_until_the_log_grows() {
        let mut p = FailurePredictor::new();
        let mut h = Logged::with(&[ONE_CE]);
        let first = p.update_node(7, &h.health);
        assert_eq!(first, p.reliability(&h.health));
        // A clean interval is no event: the score decays.
        h.interval(false, &[]);
        let second = p.update_node(7, &h.health);
        assert!(second > first, "silent ticks must restore trust: {second} vs {first}");
        h.interval(true, &[FATAL]);
        let after = p.update_node(7, &h.health);
        assert!(after < second, "a new crash must re-score: {after} vs {second}");
        assert_eq!(after, p.reliability(&h.health));
        // Other nodes are keyed independently.
        assert_eq!(p.update_node(8, &Logged::new().health), 1.0);
    }

    #[test]
    fn silent_nodes_rehabilitate() {
        let mut p = FailurePredictor::new();
        let h = Logged::with(&[CRASH]);
        let crashed = p.update_node(3, &h.health);
        assert!(p.predicts_failure(crashed), "fresh crash must predict failure");
        let mut r = crashed;
        let mut updates = 0;
        while p.predicts_failure(r) {
            r = p.update_node(3, &h.health);
            updates += 1;
            assert!(updates < 200, "a clean-running node must eventually regain trust");
        }
        // Recovery is gradual, not instant: quarantine lasts a while.
        assert!(updates > 10, "rehabilitation must take time, took {updates} updates");
    }

    #[test]
    fn observe_previews_update_node_without_mutating() {
        let mut p = FailurePredictor::new();
        let mut h = Logged::with(&[ONE_UE]);
        for round in 0..6 {
            if round == 3 {
                h.interval(true, &[FATAL]);
            }
            let before = p.clone();
            let preview = p.observe(4, &h.health);
            assert_eq!(p, before, "observe must not mutate the predictor");
            assert_eq!(p.update_node(4, &h.health), preview, "round {round} diverged");
        }
        assert_eq!(p.observe(9, &h.health), p.reliability(&h.health), "an unseen node re-scores");
    }

    #[test]
    fn pattern_weights_compose() {
        let e = EventCounts { crashed: true, ce: 1, ue: 0, fatal: 1 };
        assert!((event_score(&e) - (3.0 + 3.0 + 0.15)).abs() < 1e-12);
    }
}
