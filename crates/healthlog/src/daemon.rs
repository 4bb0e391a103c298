//! The HealthLog daemon proper: ingest, bounded typed state and
//! thresholds.

use std::collections::VecDeque;

use uniserver_units::Seconds;

use uniserver_platform::node::IntervalReport;
use uniserver_silicon::ErrorSeverity;

use crate::ledger::{ErrorLedger, LedgerKey};

/// How many of the most recent event intervals the log retains: the
/// failure predictor's scoring window.
pub const RECENT_EVENTS: usize = 64;

/// Actions the HealthLog recommends to higher layers when thresholds
/// trip (§3: "if the number of errors rises above a certain threshold a
/// new stress-test cycle may be triggered").
#[derive(Debug, Clone, PartialEq)]
pub enum HealthAction {
    /// Trigger an on-demand StressLog re-characterization.
    TriggerStressTest,
    /// Isolate a resource that concentrates errors.
    IsolateResource(LedgerKey),
}

/// Error-rate thresholds driving recommendations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdPolicy {
    /// Corrected errors per minute (node-wide) above which a stress test
    /// is recommended.
    pub ce_per_minute: f64,
    /// Per-origin total errors above which isolation is recommended.
    pub isolate_origin_errors: u64,
    /// Window over which rates are evaluated.
    pub rate_window: Seconds,
}

impl Default for ThresholdPolicy {
    fn default() -> Self {
        ThresholdPolicy {
            ce_per_minute: 30.0,
            isolate_origin_errors: 20,
            rate_window: Seconds::new(60.0),
        }
    }
}

/// What one event interval (one carrying an error record or a crash)
/// reported, by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventCounts {
    /// Whether the node crashed during the interval.
    pub crashed: bool,
    /// Corrected errors.
    pub ce: usize,
    /// Uncorrected errors.
    pub ue: usize,
    /// Fatal errors.
    pub fatal: usize,
}

/// The HealthLog daemon. Its state is bounded: it keeps the per-origin
/// ledger, the intervals inside the CE-rate window and the last
/// [`RECENT_EVENTS`] event counts, however long the node runs.
#[derive(Debug, Clone)]
pub struct HealthLog {
    ledger: ErrorLedger,
    policy: ThresholdPolicy,
    /// `(end of interval, interval length, corrected errors)` of every
    /// interval inside the rate window, oldest first.
    rate_window: VecDeque<(Seconds, Seconds, usize)>,
    /// Counts of the most recent event intervals, oldest first.
    recent_events: VecDeque<EventCounts>,
    /// Event intervals ingested over the log's lifetime.
    events_logged: usize,
}

impl HealthLog {
    /// Creates an empty daemon.
    #[must_use]
    pub fn new(policy: ThresholdPolicy) -> Self {
        HealthLog {
            ledger: ErrorLedger::new(),
            policy,
            rate_window: VecDeque::new(),
            recent_events: VecDeque::new(),
            events_logged: 0,
        }
    }

    /// Event-driven service: ingests one platform interval in a single
    /// pass over its error records (ledger, event counts, rate window)
    /// and returns the recommended actions (possibly empty).
    pub fn ingest_owned(&mut self, report: IntervalReport) -> Vec<HealthAction> {
        let mut counts = EventCounts { crashed: report.crash.is_some(), ..EventCounts::default() };
        for err in &report.errors {
            self.ledger.record(err);
            match err.severity {
                ErrorSeverity::Corrected => counts.ce += 1,
                ErrorSeverity::Uncorrected => counts.ue += 1,
                ErrorSeverity::Fatal => counts.fatal += 1,
            }
        }
        // Node clocks never run backwards, so an interval that has left
        // the window can never re-enter it.
        self.rate_window.push_back((report.at, report.duration, counts.ce));
        let from = report.at.saturating_sub(self.policy.rate_window);
        while self.rate_window.front().is_some_and(|&(at, ..)| at <= from) {
            self.rate_window.pop_front();
        }
        if counts.crashed || !report.errors.is_empty() {
            if self.recent_events.len() == RECENT_EVENTS {
                self.recent_events.pop_front();
            }
            self.recent_events.push_back(counts);
            self.events_logged += 1;
        }
        self.recommendations()
    }

    /// On-demand service: the per-origin ledger.
    #[must_use]
    pub fn ledger(&self) -> &ErrorLedger {
        &self.ledger
    }

    /// On-demand service: counts of the last [`RECENT_EVENTS`] event
    /// intervals, oldest first.
    #[must_use]
    pub fn recent_events(&self) -> &VecDeque<EventCounts> {
        &self.recent_events
    }

    /// Event intervals ingested over the log's lifetime.
    #[must_use]
    pub fn events_logged(&self) -> usize {
        self.events_logged
    }

    /// Corrected errors per minute over the policy's rate window ending
    /// at the latest interval.
    #[must_use]
    pub fn ce_rate_per_minute(&self) -> f64 {
        let mut ces = 0usize;
        let mut span = 0.0;
        for &(_, duration, interval_ces) in &self.rate_window {
            ces += interval_ces;
            span += duration.as_secs();
        }
        if span == 0.0 {
            0.0
        } else {
            ces as f64 * 60.0 / span
        }
    }

    /// Evaluates thresholds against the current state. Allocates only
    /// when it returns an action.
    #[must_use]
    pub fn recommendations(&self) -> Vec<HealthAction> {
        let stress = self.ce_rate_per_minute() > self.policy.ce_per_minute;
        let hot = self.ledger.hot_origins(self.policy.isolate_origin_errors);
        let mut actions = Vec::with_capacity(usize::from(stress) + hot.len());
        if stress {
            actions.push(HealthAction::TriggerStressTest);
        }
        actions.extend(hot.into_iter().map(|(key, _)| HealthAction::IsolateResource(key)));
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniserver_platform::mca::{ErrorOrigin, MceRecord};
    use uniserver_platform::msr::DomainId;
    use uniserver_platform::node::ServerNode;
    use uniserver_platform::part::PartSpec;
    use uniserver_platform::workload::WorkloadProfile;
    use uniserver_silicon::FaultKind;

    fn run_clean(health: &mut HealthLog, intervals: usize) {
        let mut node = ServerNode::new(PartSpec::arm_microserver(), 3);
        let w = WorkloadProfile::spec_bzip2();
        for _ in 0..intervals {
            let report = node.run_interval(&w, Seconds::from_millis(500.0));
            health.ingest_owned(report);
        }
    }

    #[test]
    fn clean_operation_recommends_nothing() {
        let mut health = HealthLog::new(ThresholdPolicy::default());
        run_clean(&mut health, 20);
        assert!(health.recommendations().is_empty());
        assert_eq!(health.events_logged(), 0, "clean intervals are not events");
        assert!(health.recent_events().is_empty());
        assert_eq!(health.ce_rate_per_minute(), 0.0);
    }

    #[test]
    fn error_storm_triggers_stress_test_and_isolation() {
        // Drive a node with a deeply relaxed refresh (ECC off) to rain
        // uncorrected DRAM errors.
        let mut node = ServerNode::with_memory(
            PartSpec::arm_microserver(),
            uniserver_platform::dram::MemorySystem::commodity_server(true),
            3,
        );
        node.msr.set_refresh_interval(DomainId(1), Seconds::new(10.0)).unwrap();
        let mut health = HealthLog::new(ThresholdPolicy {
            ce_per_minute: 5.0,
            isolate_origin_errors: 5,
            rate_window: Seconds::new(120.0),
        });
        let w = WorkloadProfile::spec_mcf();
        let mut actions = Vec::new();
        for _ in 0..40 {
            let report = node.run_interval(&w, Seconds::new(2.0));
            actions = health.ingest_owned(report);
            if !actions.is_empty() {
                break;
            }
        }
        assert!(
            actions.contains(&HealthAction::TriggerStressTest)
                || actions.iter().any(|a| matches!(a, HealthAction::IsolateResource(_))),
            "an error storm must trigger a recommendation; ledger total {}",
            health.ledger().grand_total()
        );
        assert!(health.events_logged() > 0, "error intervals are events");
    }

    #[test]
    fn event_counts_split_by_severity() {
        let mut node = ServerNode::new(PartSpec::arm_microserver(), 5);
        let mut report = node.run_interval(&WorkloadProfile::idle(), Seconds::new(1.0));
        report.errors = [
            ErrorSeverity::Corrected,
            ErrorSeverity::Uncorrected,
            ErrorSeverity::Corrected,
            ErrorSeverity::Fatal,
        ]
        .into_iter()
        .map(|severity| MceRecord {
            at: report.at,
            kind: FaultKind::CacheBit,
            severity,
            origin: ErrorOrigin::CacheBank(2),
        })
        .collect();
        let mut health = HealthLog::new(ThresholdPolicy::default());
        health.ingest_owned(report);
        assert_eq!(
            health.recent_events().back(),
            Some(&EventCounts { crashed: false, ce: 2, ue: 1, fatal: 1 })
        );
        assert_eq!(health.ledger().stats(LedgerKey::CacheBank(2)).total(), 4);
    }

    #[test]
    fn nothing_hot_allocates_nothing() {
        // Five CEs a minute on five banks: under both thresholds.
        let mut node = ServerNode::new(PartSpec::arm_microserver(), 5);
        let template = node.run_interval(&WorkloadProfile::idle(), Seconds::new(60.0));
        let policy = ThresholdPolicy::default();
        let mut health = HealthLog::new(policy);
        for i in 0..3 {
            let mut report = template.clone();
            report.at = Seconds::new(60.0 * f64::from(i + 1));
            report.errors = (0..5)
                .map(|b| MceRecord {
                    at: report.at,
                    kind: FaultKind::CacheBit,
                    severity: ErrorSeverity::Corrected,
                    origin: ErrorOrigin::CacheBank(b),
                })
                .collect();
            assert_eq!(health.ingest_owned(report).capacity(), 0);
        }
        assert_eq!(health.ledger().grand_total(), 15);
        assert_eq!(health.ledger().hot_origins(policy.isolate_origin_errors).capacity(), 0);
        assert_eq!(health.recommendations().capacity(), 0);
    }

    /// Feeds `intervals` synthetic CE-storm intervals of `tick` each
    /// (a varying CE burst per interval) and checks, after every ingest,
    /// that the rate window stays bounded and the rate equals a
    /// brute-force recount over the test's own unbounded history.
    fn storm_stays_bounded(tick: f64, intervals: usize) {
        let policy = ThresholdPolicy::default();
        let window = policy.rate_window.as_secs();
        let rate_bound = (window / tick).ceil() as usize + 1;
        let mut node = ServerNode::new(PartSpec::arm_microserver(), 7);
        let template = node.run_interval(&WorkloadProfile::idle(), Seconds::new(tick));
        let mut health = HealthLog::new(policy);
        let mut history: Vec<(Seconds, Seconds, usize)> = Vec::new();
        for i in 0..intervals {
            let at = Seconds::new((i + 1) as f64 * tick);
            let ces = (i * 7) % 13;
            let mut report = template.clone();
            report.at = at;
            report.duration = Seconds::new(tick);
            report.errors = (0..ces)
                .map(|b| MceRecord {
                    at,
                    kind: FaultKind::CacheBit,
                    severity: ErrorSeverity::Corrected,
                    origin: ErrorOrigin::CacheBank(b % 4),
                })
                .collect();
            health.ingest_owned(report);
            history.push((at, Seconds::new(tick), ces));

            assert!(health.rate_window.len() <= rate_bound, "rate window grew at {i}");
            assert!(health.recent_events.len() <= RECENT_EVENTS, "event window grew at {i}");
            // The recount sums every in-window interval in ingest order.
            let from = at.saturating_sub(policy.rate_window);
            let first = history.iter().rposition(|&(t, ..)| t <= from).map_or(0, |p| p + 1);
            let (mut total, mut span) = (0usize, 0.0);
            for &(_, duration, c) in &history[first..] {
                total += c;
                span += duration.as_secs();
            }
            let expected = if span == 0.0 { 0.0 } else { total as f64 * 60.0 / span };
            assert_eq!(health.ce_rate_per_minute(), expected, "rate diverged at {i}");
        }
        assert_eq!(health.recent_events.len(), RECENT_EVENTS);
        assert!(health.events_logged() > RECENT_EVENTS);
    }

    #[test]
    fn a_day_of_ce_storm_keeps_state_bounded() {
        storm_stays_bounded(5.0, 17_280);
    }

    #[test]
    fn a_fine_tick_keeps_every_in_window_interval() {
        // 60 s of 10 ms intervals is 6000 entries, more than any fixed
        // ring of a few thousand would hold.
        storm_stays_bounded(0.01, 8_000);
    }
}
