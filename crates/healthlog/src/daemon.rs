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

/// Corrected errors per minute (node-wide) above which a stress test is
/// recommended.
const CE_PER_MINUTE: f64 = 30.0;

/// Per-origin total errors at which isolation is recommended.
pub const ISOLATE_ORIGIN_ERRORS: u64 = 20;

/// Seconds of intervals the CE rate is evaluated over.
const RATE_WINDOW_SECS: f64 = 60.0;

/// What one event interval (one carrying an error record or a crash)
/// reported, by severity. Each field sums the records' counts.
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
    /// `(end of interval, interval length, corrected errors)` of every
    /// interval inside the rate window, oldest first.
    rate_window: VecDeque<(Seconds, Seconds, usize)>,
    /// The corrected errors summed over `rate_window`: while it is 0 the
    /// CE rate is exactly 0.0 and is not summed.
    window_ces: usize,
    /// Counts of the most recent event intervals, oldest first.
    recent_events: VecDeque<EventCounts>,
    /// Event intervals ingested over the log's lifetime.
    events_logged: usize,
    /// The advice [`HealthLog::ingest_owned`] returns a slice of: a
    /// stress-test slot, then one isolation per hot origin, hottest
    /// first. The hot origins are a function of the ledger, so they are
    /// re-derived only on an interval that changed it.
    advice: Vec<HealthAction>,
}

impl HealthLog {
    /// Creates an empty daemon.
    #[must_use]
    pub fn new() -> Self {
        HealthLog {
            ledger: ErrorLedger::new(),
            rate_window: VecDeque::new(),
            window_ces: 0,
            recent_events: VecDeque::new(),
            events_logged: 0,
            advice: vec![HealthAction::TriggerStressTest],
        }
    }

    /// Event-driven service: ingests one platform interval in a single
    /// pass over its error records (ledger, event counts, rate window)
    /// and returns the recommended actions (possibly empty): a stress
    /// test while the CE rate is above 30 a minute, then every origin
    /// at or past [`ISOLATE_ORIGIN_ERRORS`], hottest first.
    pub fn ingest_owned(&mut self, report: IntervalReport) -> &[HealthAction] {
        let mut counts = EventCounts { crashed: report.crash.is_some(), ..EventCounts::default() };
        let mut recorded = false;
        for err in &report.errors {
            recorded |= self.ledger.record(err);
            let n = err.count as usize;
            match err.severity {
                ErrorSeverity::Corrected => counts.ce += n,
                ErrorSeverity::Uncorrected => counts.ue += n,
                ErrorSeverity::Fatal => counts.fatal += n,
            }
        }
        // Node clocks never run backwards, so an interval that has left
        // the window can never re-enter it.
        self.rate_window.push_back((report.at, report.duration, counts.ce));
        self.window_ces += counts.ce;
        let from = report.at.saturating_sub(Seconds::new(RATE_WINDOW_SECS));
        while let Some(&(at, _, ces)) = self.rate_window.front() {
            if at > from {
                break;
            }
            self.rate_window.pop_front();
            self.window_ces -= ces;
        }
        if counts.crashed || !report.errors.is_empty() {
            if self.recent_events.len() == RECENT_EVENTS {
                self.recent_events.pop_front();
            }
            self.recent_events.push_back(counts);
            self.events_logged += 1;
        }
        if recorded {
            let hot = self.ledger.hot_origins(ISOLATE_ORIGIN_ERRORS);
            self.advice.truncate(1);
            self.advice.extend(hot.into_iter().map(|(key, _)| HealthAction::IsolateResource(key)));
        }
        let stress = self.window_ces > 0 && self.ce_rate_per_minute() > CE_PER_MINUTE;
        let advice = &self.advice[usize::from(!stress)..];
        #[cfg(debug_assertions)]
        assert_eq!(advice, self.recommendations(), "stale cached advice");
        advice
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

    /// Corrected errors per minute over the rate window ending
    /// at the latest interval.
    #[must_use]
    pub(crate) fn ce_rate_per_minute(&self) -> f64 {
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

    /// Evaluates thresholds against the current state from scratch: the
    /// reference the cached advice is checked against. Allocates only
    /// when it returns an action.
    #[cfg(any(test, debug_assertions))]
    #[must_use]
    pub(crate) fn recommendations(&self) -> Vec<HealthAction> {
        let stress = self.ce_rate_per_minute() > CE_PER_MINUTE;
        let hot = self.ledger.hot_origins(ISOLATE_ORIGIN_ERRORS);
        let mut actions = Vec::with_capacity(usize::from(stress) + hot.len());
        if stress {
            actions.push(HealthAction::TriggerStressTest);
        }
        actions.extend(hot.into_iter().map(|(key, _)| HealthAction::IsolateResource(key)));
        actions
    }
}

impl Default for HealthLog {
    fn default() -> Self {
        HealthLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniserver_platform::mca::{ErrorOrigin, MceRecord};
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
        let mut health = HealthLog::new();
        run_clean(&mut health, 20);
        assert!(health.recommendations().is_empty());
        assert_eq!(health.events_logged(), 0, "clean intervals are not events");
        assert!(health.recent_events().is_empty());
        assert_eq!(health.ce_rate_per_minute(), 0.0);
    }

    #[test]
    fn error_storm_triggers_stress_test_and_isolation() {
        // 2 % below nominal this die logs cache CEs every interval: the
        // node-wide CE rate passes its threshold and a bank turns hot.
        let mut node = ServerNode::new(PartSpec::arm_microserver(), 7);
        let offset = node.part().offset_mv(0.02);
        let mut health = HealthLog::new();
        let w = WorkloadProfile::spec_mcf();
        let (mut stress, mut isolate) = (false, false);
        for _ in 0..120 {
            // A crash reboots at nominal: put the undervolt back.
            node.msr.set_voltage_offset_all(offset).unwrap();
            let report = node.run_interval(&w, Seconds::new(1.0));
            let crashed = report.crash.is_some();
            for action in health.ingest_owned(report) {
                stress |= *action == HealthAction::TriggerStressTest;
                isolate |= matches!(action, HealthAction::IsolateResource(_));
            }
            if crashed {
                node.reboot();
            }
        }
        assert!(stress, "an error storm must trigger a stress test");
        assert!(isolate, "an error storm must isolate a resource: {:?}", health.ledger().hot_origins(0));
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
            count: 1,
        })
        .collect();
        let mut health = HealthLog::new();
        health.ingest_owned(report);
        assert_eq!(
            health.recent_events().back(),
            Some(&EventCounts { crashed: false, ce: 2, ue: 1, fatal: 1 })
        );
        assert_eq!(health.ledger().stats(LedgerKey::CacheBank(2)).total(), 4);
    }

    /// A one-minute idle interval whose only record is `record`.
    fn minute_with(node: &mut ServerNode, record: MceRecord) -> IntervalReport {
        let mut report = node.run_interval(&WorkloadProfile::idle(), Seconds::new(60.0));
        report.errors = vec![MceRecord { at: report.at, ..record }];
        report
    }

    #[test]
    fn counted_records_weigh_their_count() {
        let mut node = ServerNode::new(PartSpec::arm_microserver(), 5);
        let storm = MceRecord {
            at: Seconds::ZERO,
            kind: FaultKind::CacheBit,
            severity: ErrorSeverity::Corrected,
            origin: ErrorOrigin::CacheBank(3),
            count: 45,
        };
        let mut health = HealthLog::new();
        let advice = health.ingest_owned(minute_with(&mut node, storm)).to_vec();
        assert_eq!(
            advice,
            [HealthAction::TriggerStressTest, HealthAction::IsolateResource(LedgerKey::CacheBank(3))]
        );
        assert_eq!(health.recent_events().back().map(|e| e.ce), Some(45));
        assert_eq!(health.ledger().stats(LedgerKey::CacheBank(3)).corrected, 45);
        assert_eq!(health.ce_rate_per_minute(), 45.0);
        // A clean interval keeps the isolation advice; the storm has
        // left the rate window.
        let clean = node.run_interval(&WorkloadProfile::idle(), Seconds::new(60.0));
        assert!(clean.errors.is_empty());
        assert_eq!(
            health.ingest_owned(clean),
            [HealthAction::IsolateResource(LedgerKey::CacheBank(3))]
        );
    }

    #[test]
    fn dimm_records_are_events_but_stay_out_of_the_ledger() {
        let mut node = ServerNode::new(PartSpec::arm_microserver(), 5);
        let storm = MceRecord {
            at: Seconds::ZERO,
            kind: FaultKind::DramBit,
            severity: ErrorSeverity::Corrected,
            origin: ErrorOrigin::Dimm { dimm: 3, word: 0x40 },
            count: 45,
        };
        let mut health = HealthLog::new();
        assert_eq!(health.ingest_owned(minute_with(&mut node, storm)), [HealthAction::TriggerStressTest]);
        assert_eq!(health.recent_events().back().map(|e| e.ce), Some(45));
        assert_eq!(health.ce_rate_per_minute(), 45.0);
        assert_eq!(health.ledger(), &ErrorLedger::new(), "memory is contained by page retirement");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale cached advice")]
    fn a_ledger_change_outside_ingest_fails_the_debug_freshness_check() {
        let mut health = HealthLog::new();
        health.ledger.record(&MceRecord {
            at: Seconds::ZERO,
            kind: FaultKind::CacheBit,
            severity: ErrorSeverity::Corrected,
            origin: ErrorOrigin::CacheBank(0),
            count: 20,
        });
        let mut node = ServerNode::new(PartSpec::arm_microserver(), 5);
        let clean = node.run_interval(&WorkloadProfile::idle(), Seconds::new(1.0));
        assert!(clean.errors.is_empty());
        let _ = health.ingest_owned(clean);
    }

    #[test]
    fn nothing_hot_allocates_nothing() {
        // Five CEs a minute on five banks: under both thresholds.
        let mut node = ServerNode::new(PartSpec::arm_microserver(), 5);
        let template = node.run_interval(&WorkloadProfile::idle(), Seconds::new(60.0));
        let mut health = HealthLog::new();
        for i in 0..3 {
            let mut report = template.clone();
            report.at = Seconds::new(60.0 * f64::from(i + 1));
            report.errors = (0..5)
                .map(|b| MceRecord {
                    at: report.at,
                    kind: FaultKind::CacheBit,
                    severity: ErrorSeverity::Corrected,
                    origin: ErrorOrigin::CacheBank(b),
                    count: 1,
                })
                .collect();
            assert!(health.ingest_owned(report).is_empty());
        }
        let total: u64 =
            (0..5).map(|b| health.ledger().stats(LedgerKey::CacheBank(b)).total()).sum();
        assert_eq!(total, 15);
        assert_eq!(health.ledger().hot_origins(ISOLATE_ORIGIN_ERRORS).capacity(), 0);
        assert_eq!(health.recommendations().capacity(), 0);
    }

    /// Feeds `intervals` synthetic CE-storm intervals of `tick` each
    /// (a varying CE burst per interval) and checks, after every ingest,
    /// that the rate window stays bounded and the rate equals a
    /// brute-force recount over the test's own unbounded history.
    fn storm_stays_bounded(tick: f64, intervals: usize) {
        let rate_bound = (RATE_WINDOW_SECS / tick).ceil() as usize + 1;
        let mut node = ServerNode::new(PartSpec::arm_microserver(), 7);
        let template = node.run_interval(&WorkloadProfile::idle(), Seconds::new(tick));
        let mut health = HealthLog::new();
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
                    count: 1,
                })
                .collect();
            health.ingest_owned(report);
            history.push((at, Seconds::new(tick), ces));

            assert!(health.rate_window.len() <= rate_bound, "rate window grew at {i}");
            let in_window: usize = health.rate_window.iter().map(|&(_, _, ces)| ces).sum();
            assert_eq!(health.window_ces, in_window, "window count at {i}");
            assert!(health.recent_events.len() <= RECENT_EVENTS, "event window grew at {i}");
            // The recount sums every in-window interval in ingest order.
            let from = at.saturating_sub(Seconds::new(RATE_WINDOW_SECS));
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

    mod property {
        use super::*;
        use proptest::prelude::*;
        use uniserver_platform::node::CrashEvent;
        use uniserver_units::Volts;

        /// Decodes one drawn word into a record at `at`: a core,
        /// cache-bank or DIMM origin with index below 4, any severity
        /// and a count of 1 to 12, so origins cross the isolation
        /// threshold and intervals the CE-rate trigger.
        fn decode(word: u64, at: Seconds) -> MceRecord {
            let index = (word / 3 % 4) as usize;
            let origin = match word % 3 {
                0 => ErrorOrigin::Core(index),
                1 => ErrorOrigin::CacheBank(index),
                _ => ErrorOrigin::Dimm { dimm: index, word: word >> 16 },
            };
            let severity = match word / 123 % 4 {
                0 | 1 => ErrorSeverity::Corrected,
                2 => ErrorSeverity::Uncorrected,
                _ => ErrorSeverity::Fatal,
            };
            let (kind, count) = (FaultKind::CacheBit, (word >> 32) % 12 + 1);
            MceRecord { at, kind, severity, origin, count }
        }

        proptest! {
            #[test]
            fn counted_records_ingest_like_their_singles(
                intervals in collection::vec(collection::vec(0u64..u64::MAX, 0..5), 1..150),
                tick_ms in 500u64..20_000,
            ) {
                let tick = Seconds::from_millis(tick_ms as f64);
                let mut node = ServerNode::new(PartSpec::arm_microserver(), 9);
                let template = node.run_interval(&WorkloadProfile::idle(), tick);
                let mut counted = HealthLog::new();
                let mut singles = HealthLog::new();
                for (i, words) in intervals.iter().enumerate() {
                    let at = Seconds::new((i + 1) as f64 * tick.as_secs());
                    let mut report = template.clone();
                    report.at = at;
                    report.errors = words.iter().map(|&w| decode(w, at)).collect();
                    let fatal = report.errors.iter().any(|e| e.severity == ErrorSeverity::Fatal);
                    report.crash = fatal.then(|| CrashEvent {
                        core: 0,
                        at,
                        voltage: Volts::ZERO,
                        workload: "idle".into(),
                    });
                    let single =
                        |e: &MceRecord| std::iter::repeat_n(MceRecord { count: 1, ..*e }, e.count as usize);
                    let mut expanded = report.clone();
                    expanded.errors = report.errors.iter().flat_map(single).collect();
                    let advice = counted.ingest_owned(report).to_vec();
                    prop_assert_eq!(singles.ingest_owned(expanded), &advice[..], "advice at {}", i);
                    prop_assert_eq!(counted.ledger(), singles.ledger());
                    prop_assert_eq!(counted.recent_events(), singles.recent_events());
                    prop_assert_eq!(&counted.rate_window, &singles.rate_window);
                    let in_window: usize = counted.rate_window.iter().map(|&(_, _, ces)| ces).sum();
                    prop_assert_eq!(counted.window_ces, in_window, "window count at {}", i);
                    prop_assert_eq!(singles.window_ces, in_window);
                    prop_assert_eq!(in_window == 0, counted.ce_rate_per_minute() == 0.0);
                    prop_assert_eq!(counted.events_logged(), singles.events_logged());
                }
            }
        }
    }
}
