//! The orchestrator-side health watchdog: seeded probes with K-of-N
//! hysteresis driving gray nodes through quarantine → drain →
//! probation → readmit.
//!
//! Gray failures (paper §5: elevated correctable-error rates, thermal
//! throttling) do not crash a node, so the failure lifecycle never
//! sees them and the failure predictor — which scores the node's *log
//! pattern*, not its served throughput — keeps trusting it. The
//! watchdog is the layer that catches them: every tick it probes each
//! watched node with a seeded health check, and a node that fails K of
//! the last N probes is quarantined. Quarantine is sticky: the node is
//! drained on a migration budget and only readmitted after a full run
//! of consecutive probe passes (probation), so a flapping node —
//! passing just often enough to look healthy — can never oscillate
//! back into the serving pool.
//!
//! The probe outcome is injected into [`Watchdog::observe`] rather
//! than drawn inside it, which keeps the hysteresis a pure state
//! machine: property tests can drive it with arbitrary pass/fail
//! sequences, and the orchestrator supplies the seeded draw from
//! [`probe_fails`] — pure in `(seed, node, tick)`, so runs are
//! byte-identical across worker counts.

use std::collections::BTreeMap;

use uniserver_silicon::rng::{salt, splitmix64, unit_fraction};

/// Health-watchdog tuning. `disabled()` keeps every legacy profile
/// byte-identical; `standard()` is the gray-profile default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Master switch. Disabled watchdogs never probe, never quarantine.
    pub enabled: bool,
    /// Probe-history window N: quarantine looks at the last N probes.
    pub window: u32,
    /// Quarantine threshold K: ≥ K failures inside the window trip it.
    pub quarantine_fails: u32,
    /// Consecutive probe passes required to end probation. Any single
    /// failure resets the streak — the flap-proofing.
    pub probation_passes: u32,
    /// Max placements migrated off a quarantined node per tick.
    pub drain_budget: usize,
    /// Probe failure probability while the node's gray fault is live.
    pub probe_fail_degraded: f64,
    /// Residual probe failure probability once the fault has cleared
    /// (probes are not oracles; a healthy node can still flake).
    pub probe_fail_healthy: f64,
}

impl WatchdogConfig {
    /// No watchdog at all — the legacy default.
    #[must_use]
    pub fn disabled() -> Self {
        WatchdogConfig {
            enabled: false,
            window: 8,
            quarantine_fails: 3,
            probation_passes: 5,
            drain_budget: 4,
            probe_fail_degraded: 0.9,
            probe_fail_healthy: 0.02,
        }
    }

    /// The gray-profile watchdog: 3-of-8 quarantine entry, 5 clean
    /// probes to readmit, 4 migrations per tick of drain budget.
    #[must_use]
    pub fn standard() -> Self {
        WatchdogConfig { enabled: true, ..WatchdogConfig::disabled() }
    }
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig::disabled()
    }
}

/// What [`Watchdog::observe`] decided about one probe outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Keep watching; no state change.
    None,
    /// The node just crossed the K-of-N threshold: quarantine it.
    Quarantine,
    /// The node just finished probation: readmit it.
    Readmit,
}

/// Per-node probe history: a bit-ring of the last `window` outcomes
/// plus the probation pass streak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeWatch {
    /// Most recent probe outcomes, LSB = newest; 1 = failed.
    history: u64,
    /// Probes recorded so far, saturating at the window size.
    len: u32,
    /// Consecutive passes while quarantined (probation progress).
    streak: u32,
    /// Whether the node is currently quarantined.
    quarantined: bool,
}

/// The watchdog: one `NodeWatch` per node currently under watch.
/// Iteration order is node-id order (`BTreeMap`), so probe sequencing
/// is deterministic whatever order nodes went gray in.
#[derive(Debug, Clone)]
pub struct Watchdog {
    config: WatchdogConfig,
    watches: BTreeMap<u32, NodeWatch>,
}

impl Watchdog {
    /// A watchdog with the given tuning and no nodes under watch.
    #[must_use]
    pub fn new(config: WatchdogConfig) -> Self {
        assert!(
            config.window >= 1 && config.window <= 64,
            "probe window must be 1..=64, got {}",
            config.window
        );
        assert!(
            config.quarantine_fails >= 1 && config.quarantine_fails <= config.window,
            "quarantine_fails must be 1..=window, got {} of {}",
            config.quarantine_fails,
            config.window
        );
        assert!(config.probation_passes >= 1, "probation needs at least one pass");
        Watchdog { config, watches: BTreeMap::new() }
    }

    /// The tuning this watchdog runs.
    #[must_use]
    pub fn config(&self) -> &WatchdogConfig {
        &self.config
    }

    /// Starts watching `node` (idempotent — an existing watch, and its
    /// accumulated history, is kept).
    pub fn begin_watch(&mut self, node: u32) {
        self.watches
            .entry(node)
            .or_insert(NodeWatch { history: 0, len: 0, streak: 0, quarantined: false });
    }

    /// Stops watching `node` (e.g. it crashed outright and the failure
    /// lifecycle took over).
    pub fn forget(&mut self, node: u32) {
        self.watches.remove(&node);
    }

    /// The nodes currently under watch, in ascending id order.
    #[must_use]
    pub fn watched(&self) -> Vec<u32> {
        self.watches.keys().copied().collect()
    }

    /// Whether `node` is under watch.
    #[must_use]
    pub fn is_watching(&self, node: u32) -> bool {
        self.watches.contains_key(&node)
    }

    /// Whether this watchdog currently holds `node` in quarantine.
    #[must_use]
    pub fn in_quarantine(&self, node: u32) -> bool {
        self.watches.get(&node).is_some_and(|w| w.quarantined)
    }

    /// Records one probe outcome for a watched node and returns the
    /// transition it caused, if any.
    ///
    /// Entry: a node with ≥ `quarantine_fails` failures among its last
    /// `window` probes is quarantined (K-of-N; a single flaky probe
    /// cannot trip it). Exit: a quarantined node must pass
    /// `probation_passes` probes *in a row*; any failure zeroes the
    /// streak, so the verdicts can never alternate
    /// Quarantine/Readmit/Quarantine on a flapping node faster than a
    /// full probation run.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not under watch — callers own the watch
    /// lifecycle explicitly.
    pub fn observe(&mut self, node: u32, failed: bool) -> Verdict {
        let w = self.watches.get_mut(&node).expect("observe() requires an active watch");
        w.history = (w.history << 1) | u64::from(failed);
        w.len = (w.len + 1).min(self.config.window);
        if w.quarantined {
            if failed {
                w.streak = 0;
            } else {
                w.streak += 1;
                if w.streak >= self.config.probation_passes {
                    // Readmission resets the history: the node starts
                    // its next watch (if any) with a clean record.
                    *w = NodeWatch { history: 0, len: 0, streak: 0, quarantined: false };
                    return Verdict::Readmit;
                }
            }
            return Verdict::None;
        }
        let mask = if self.config.window == 64 { u64::MAX } else { (1 << self.config.window) - 1 };
        let fails = (w.history & mask).count_ones();
        if w.len >= self.config.quarantine_fails && fails >= self.config.quarantine_fails {
            w.quarantined = true;
            w.streak = 0;
            return Verdict::Quarantine;
        }
        Verdict::None
    }
}

/// The seeded probe draw: whether the health probe against `node` at
/// `tick` fails, given the failure probability `p` for the node's
/// current condition. Pure in `(seed, node, tick)` — same salt-mix
/// shape as the chaos engine's per-node draws, on its own salt, so
/// probes never correlate with crash or gray-onset draws.
#[must_use]
pub fn probe_fails(seed: u64, node: u32, tick: u64, p: f64) -> bool {
    let word = splitmix64(
        seed ^ salt::PROBE
            ^ u64::from(node).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ tick.wrapping_mul(0xBF58_476D_1CE4_E5B9),
    );
    unit_fraction(word) < p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_of_n_tolerates_sparse_failures() {
        let mut wd = Watchdog::new(WatchdogConfig::standard());
        wd.begin_watch(7);
        // Fail every 4th probe: never 3 fails inside any 8-window.
        for i in 0..64 {
            let v = wd.observe(7, i % 4 == 0);
            assert_eq!(v, Verdict::None, "sparse failures must not quarantine (probe {i})");
        }
        assert!(!wd.in_quarantine(7));
    }

    #[test]
    fn dense_failures_quarantine_exactly_once() {
        let mut wd = Watchdog::new(WatchdogConfig::standard());
        wd.begin_watch(3);
        assert_eq!(wd.observe(3, true), Verdict::None);
        assert_eq!(wd.observe(3, true), Verdict::None);
        // Third failure inside the window trips 3-of-8.
        assert_eq!(wd.observe(3, true), Verdict::Quarantine);
        assert!(wd.in_quarantine(3));
        // Further failures while quarantined change nothing.
        assert_eq!(wd.observe(3, true), Verdict::None);
    }

    #[test]
    fn probation_requires_consecutive_passes() {
        let config = WatchdogConfig::standard();
        let mut wd = Watchdog::new(config);
        wd.begin_watch(0);
        for _ in 0..3 {
            wd.observe(0, true);
        }
        assert!(wd.in_quarantine(0));
        // Four passes, then a fail: streak resets, still quarantined.
        for _ in 0..4 {
            assert_eq!(wd.observe(0, false), Verdict::None);
        }
        assert_eq!(wd.observe(0, true), Verdict::None);
        assert!(wd.in_quarantine(0), "one probation failure must reset the streak");
        // Now five clean passes readmit.
        for i in 0..4 {
            assert_eq!(wd.observe(0, false), Verdict::None, "pass {i}");
        }
        assert_eq!(wd.observe(0, false), Verdict::Readmit);
        assert!(!wd.in_quarantine(0));
    }

    #[test]
    fn flapping_node_stays_quarantined() {
        // Pinned regression: a node alternating pass/fail looks 50 %
        // healthy, but must neither dodge quarantine forever nor ever
        // earn readmission (streak never reaches 5).
        let mut wd = Watchdog::new(WatchdogConfig::standard());
        wd.begin_watch(11);
        let mut quarantined_at = None;
        for i in 0u32..200 {
            let failed = i % 2 == 0;
            match wd.observe(11, failed) {
                Verdict::Quarantine => {
                    assert!(quarantined_at.is_none(), "must quarantine exactly once");
                    quarantined_at = Some(i);
                }
                Verdict::Readmit => panic!("a flapping node must never be readmitted (probe {i})"),
                Verdict::None => {}
            }
        }
        // Alternating fails accumulate 4 fails per 8-window ≥ 3: the
        // K-of-N gate trips as soon as the third failure lands.
        assert_eq!(quarantined_at, Some(4));
        assert!(wd.in_quarantine(11));
    }

    #[test]
    fn readmitted_node_restarts_with_clean_history() {
        let mut wd = Watchdog::new(WatchdogConfig::standard());
        wd.begin_watch(5);
        for _ in 0..3 {
            wd.observe(5, true);
        }
        for _ in 0..4 {
            wd.observe(5, false);
        }
        assert_eq!(wd.observe(5, false), Verdict::Readmit);
        // Two fresh failures must not re-quarantine off stale history.
        assert_eq!(wd.observe(5, true), Verdict::None);
        assert_eq!(wd.observe(5, true), Verdict::None);
        assert_eq!(wd.observe(5, true), Verdict::Quarantine);
    }

    #[test]
    fn forget_drops_the_watch() {
        let mut wd = Watchdog::new(WatchdogConfig::standard());
        wd.begin_watch(1);
        wd.begin_watch(9);
        assert_eq!(wd.watched(), vec![1, 9]);
        wd.forget(1);
        assert_eq!(wd.watched(), vec![9]);
        assert!(!wd.is_watching(1));
    }

    #[test]
    fn probe_draw_is_pure_and_seed_sensitive() {
        let a = probe_fails(42, 3, 100, 0.9);
        assert_eq!(a, probe_fails(42, 3, 100, 0.9), "same inputs, same outcome");
        assert!(!probe_fails(42, 3, 100, 0.0), "p = 0 never fails");
        assert!(probe_fails(42, 3, 100, 1.0), "p = 1 always fails");
        // Degraded probes fail most ticks; healthy probes rarely do.
        let fails_degraded =
            (0..1000u64).filter(|&t| probe_fails(7, 0, t, 0.9)).count();
        let fails_healthy =
            (0..1000u64).filter(|&t| probe_fails(7, 0, t, 0.02)).count();
        assert!(fails_degraded > 800, "degraded: {fails_degraded}/1000");
        assert!(fails_healthy < 80, "healthy: {fails_healthy}/1000");
    }

    #[test]
    #[should_panic(expected = "active watch")]
    fn observing_an_unwatched_node_panics() {
        let mut wd = Watchdog::new(WatchdogConfig::standard());
        let _ = wd.observe(0, false);
    }
}
