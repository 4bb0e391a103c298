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

/// What one predictor update should do to a node's rolling score — the
/// outcome of the immutable [`FailurePredictor::observe`] phase, folded
/// back in by [`FailurePredictor::apply`]. Splitting the two lets the
/// sharded cluster loop score logs on worker threads while keeping the
/// state write-back sequential (and therefore deterministic).
#[derive(Debug, Clone, PartialEq)]
pub enum ScoreUpdate {
    /// The log logged no event: decay the rolling score one step.
    Decay,
    /// The log logged events: the rolling score becomes the window's.
    Rescore {
        /// Lifetime event count the score covers.
        consumed: usize,
        /// Score of the log's retained event window.
        score: f64,
    },
}

/// The failure predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct FailurePredictor {
    /// Log-score at which reliability reaches ~0.27 (e^-1.3).
    pub score_scale: f64,
    /// Per-update decay of the rolling score while a node's log stays
    /// silent: error evidence ages out, so a node that has run clean
    /// since its last event gradually regains trust (and re-enters the
    /// scheduler's pool) instead of being quarantined forever.
    pub silent_decay: f64,
    /// Per-node `(events consumed, rolling score)`, dense by node id
    /// and grown on demand (`None` until a node's first re-score): a
    /// node whose log logged no event since the last update decays its
    /// score instead of re-scoring — the cluster loop calls this for
    /// every node every tick, so the lookup is an index, not a hash.
    scores: Vec<Option<(usize, f64)>>,
}

impl FailurePredictor {
    /// Creates a predictor.
    #[must_use]
    pub fn new() -> Self {
        FailurePredictor { score_scale: 4.0, silent_decay: 0.97, scores: Vec::new() }
    }

    /// Scores a node's health log into a reliability value in `[0, 1]`:
    /// `exp(-window_score / scale)`. A silent log scores 1.0.
    #[must_use]
    pub fn reliability(&self, health: &HealthLog) -> f64 {
        (-window_score(health) / self.score_scale).exp()
    }

    /// Incremental variant keyed by node id: the log is only re-scored
    /// when it logged an event since the last update, and while it stays
    /// silent the rolling score decays by
    /// [`FailurePredictor::silent_decay`] per update, so past error
    /// evidence ages out and the node's reliability recovers towards
    /// 1.0.
    ///
    /// Equivalent to [`FailurePredictor::observe`] followed by
    /// [`FailurePredictor::apply`] — the sharded cluster loop uses the
    /// split form so the scoring runs on worker threads while the
    /// write-back stays sequential.
    pub fn update_node(&mut self, node_id: u32, health: &HealthLog) -> f64 {
        let update = self.observe(node_id, health);
        self.apply(node_id, update)
    }

    /// The read-only half of [`FailurePredictor::update_node`]: re-sums
    /// the log's event window when the log grew since the last apply and
    /// returns what the write-back should do. Immutable, so the cluster
    /// loop's workers can score whole node shards in parallel; the
    /// resulting updates are applied sequentially in node-index order.
    #[must_use]
    pub fn observe(&self, node_id: u32, health: &HealthLog) -> ScoreUpdate {
        let logged = health.events_logged();
        match self.scores.get(node_id as usize) {
            Some(&Some((seen, _))) if seen == logged => ScoreUpdate::Decay,
            _ => ScoreUpdate::Rescore { consumed: logged, score: window_score(health) },
        }
    }

    /// The write-back half of [`FailurePredictor::update_node`]: folds a
    /// worker-computed [`ScoreUpdate`] into the rolling per-node state
    /// and returns the node's reliability.
    ///
    /// # Panics
    ///
    /// Panics if a [`ScoreUpdate::Decay`] arrives for a node this
    /// predictor has never scored (decays are only ever observed for
    /// tracked nodes).
    pub fn apply(&mut self, node_id: u32, update: ScoreUpdate) -> f64 {
        let score = match update {
            ScoreUpdate::Decay => {
                let Some(Some((_, score))) = self.scores.get_mut(node_id as usize) else {
                    panic!("Decay is only observed for already-tracked nodes");
                };
                *score *= self.silent_decay;
                *score
            }
            ScoreUpdate::Rescore { consumed, score } => {
                let i = node_id as usize;
                if i >= self.scores.len() {
                    self.scores.resize(i + 1, None);
                }
                self.scores[i] = Some((consumed, score));
                score
            }
        };
        (-score / self.score_scale).exp()
    }

    /// Whether the score crosses the "about to fail" line.
    #[must_use]
    pub fn predicts_failure(&self, reliability: f64) -> bool {
        reliability < 0.5
    }
}

impl Default for FailurePredictor {
    fn default() -> Self {
        FailurePredictor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniserver_healthlog::{ThresholdPolicy, RECENT_EVENTS};
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
                health: HealthLog::new(ThresholdPolicy::default()),
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
        assert_eq!(p.observe(7, &h.health), ScoreUpdate::Decay);
        let second = p.update_node(7, &h.health);
        assert!(second >= first, "silent ticks must not erode trust: {second} vs {first}");
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
    fn observe_then_apply_equals_update_node() {
        // The sharded loop's split form must be indistinguishable from
        // the fused update, tick for tick.
        let mut fused = FailurePredictor::new();
        let mut split = FailurePredictor::new();
        let mut h = Logged::with(&[ONE_CE]);
        for round in 0..6 {
            if round == 3 {
                h.interval(true, &[FATAL]);
            }
            let a = fused.update_node(4, &h.health);
            let update = split.observe(4, &h.health);
            let b = split.apply(4, update);
            assert_eq!(a, b, "round {round} diverged");
        }
        assert_eq!(fused, split, "internal rolling state must match too");
    }

    #[test]
    fn observe_is_pure() {
        let p = FailurePredictor::new();
        let h = Logged::with(&[ONE_UE]);
        let a = p.observe(9, &h.health);
        let b = p.observe(9, &h.health);
        assert_eq!(a, b, "observe must not mutate predictor state");
        assert_eq!(a, ScoreUpdate::Rescore { consumed: 1, score: UE_WEIGHT });
    }

    #[test]
    fn pattern_weights_compose() {
        let e = EventCounts { crashed: true, ce: 1, ue: 0, fatal: 1 };
        assert!((event_score(&e) - (3.0 + 3.0 + 0.15)).abs() < 1e-12);
    }
}
