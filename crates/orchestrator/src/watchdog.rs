//! The orchestrator-side health watchdog: seeded probes with K-of-N
//! hysteresis driving gray nodes through quarantine → drain →
//! probation → readmit.
//!
//! Gray failures (paper §5: elevated correctable-error rates, thermal
//! throttling) do not crash a node, so the failure lifecycle never
//! sees them and the failure predictor — which scores the node's *log
//! pattern*, not its served throughput — keeps trusting it. The
//! watchdog is the layer that catches them: every tick the serve loop
//! probes each degraded node with a seeded health check, and a node
//! that fails K of the last N probes is quarantined. Quarantine is
//! sticky: the node is drained on a migration budget and only
//! readmitted after a full run of consecutive probe passes
//! (probation), so a flapping node — passing just often enough to look
//! healthy — can never oscillate back into the serving pool.
//!
//! The watchdog keeps no node state of its own. Whether a node is
//! degraded, and whether it is quarantined, lives on the node
//! (`NodePhase::Degraded` and `GrayState::quarantined` in
//! `uniserver_cloudmgr`); a [`ProbeWindow`] holds only the probe
//! history, one per node, reset at each gray onset. Both the quarantine
//! flag and the probe outcome are passed into [`ProbeWindow::observe`],
//! which keeps the hysteresis a pure state machine: property tests can
//! drive it with arbitrary pass/fail sequences, and the orchestrator
//! supplies the seeded draw from `probe_fails` — pure in
//! `(seed, node, tick)`, so runs are byte-identical across worker
//! counts.
//!
//! The policy has no settings. Its numbers are the constants at the top
//! of this module: the K-of-N gate (`QUARANTINE_FAILS` of
//! `WINDOW`), [`PROBATION_PASSES`] clean probes to readmit,
//! `DRAIN_BUDGET` migrations per tick, and the probe failure odds
//! `PROBE_FAIL_DEGRADED` / `PROBE_FAIL_HEALTHY`. The watchdog runs
//! whenever the run's chaos plan is `GrayBrownout`, the only source of
//! degraded nodes.

use uniserver_silicon::rng::{salt, splitmix64, unit_fraction};

/// Probe-history window N: quarantine looks at the last N probes.
pub(crate) const WINDOW: u32 = 8;
/// Quarantine threshold K: ≥ K failures inside the window trip it.
pub(crate) const QUARANTINE_FAILS: u32 = 3;
/// Consecutive probe passes required to end probation. Any single
/// failure resets the streak — the flap-proofing.
pub const PROBATION_PASSES: u32 = 5;
/// Max placements migrated off a quarantined node per tick.
pub(crate) const DRAIN_BUDGET: usize = 4;
/// Probe failure probability while the node's gray fault is live.
pub(crate) const PROBE_FAIL_DEGRADED: f64 = 0.9;
/// Residual probe failure probability once the fault has cleared
/// (probes are not oracles; a healthy node can still flake).
pub(crate) const PROBE_FAIL_HEALTHY: f64 = 0.02;

// The probe history is a `u64` bit-ring masked to the window, and the
// K-of-N gate and the probation streak must both be reachable.
const _: () = assert!(
    0 < QUARANTINE_FAILS && QUARANTINE_FAILS <= WINDOW && WINDOW < 64 && PROBATION_PASSES > 0
);

/// The probe-history bits inside the window.
const WINDOW_MASK: u64 = (1 << WINDOW) - 1;

/// What [`ProbeWindow::observe`] decided about one probe outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Keep watching; no state change.
    None,
    /// The node just crossed the K-of-N threshold: quarantine it.
    Quarantine,
    /// The node just finished probation: readmit it.
    Readmit,
}

/// One node's probe history: a bit-ring of the last `WINDOW`
/// outcomes plus the probation pass streak. The default is the clean
/// window a node starts each gray episode with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProbeWindow {
    /// Most recent probe outcomes, LSB = newest; 1 = failed.
    history: u64,
    /// Probes recorded so far, saturating at the window size.
    len: u32,
    /// Consecutive passes while quarantined (probation progress).
    streak: u32,
}

impl ProbeWindow {
    /// Records one probe outcome for a node whose quarantine flag is
    /// `quarantined` and returns the transition it calls for, if any.
    /// The caller applies the verdict to the node's flag.
    ///
    /// Entry: a node with ≥ `QUARANTINE_FAILS` failures among its last
    /// `WINDOW` probes is quarantined (K-of-N; a single flaky probe
    /// cannot trip it). Exit: a quarantined node must pass
    /// [`PROBATION_PASSES`] probes *in a row*; any failure zeroes the
    /// streak, so the verdicts can never alternate
    /// Quarantine/Readmit/Quarantine on a flapping node faster than a
    /// full probation run.
    pub fn observe(&mut self, quarantined: bool, failed: bool) -> Verdict {
        self.history = (self.history << 1) | u64::from(failed);
        self.len = (self.len + 1).min(WINDOW);
        if quarantined {
            if failed {
                self.streak = 0;
            } else {
                self.streak += 1;
                if self.streak >= PROBATION_PASSES {
                    // Readmission resets the history: the node starts
                    // its next episode (if any) with a clean record.
                    *self = ProbeWindow::default();
                    return Verdict::Readmit;
                }
            }
            return Verdict::None;
        }
        let fails = (self.history & WINDOW_MASK).count_ones();
        if self.len >= QUARANTINE_FAILS && fails >= QUARANTINE_FAILS {
            self.streak = 0;
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
pub(crate) fn probe_fails(seed: u64, node: u32, tick: u64, p: f64) -> bool {
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

    /// A node as the serve loop sees it: its probe window plus the
    /// quarantine flag, flipped on each verdict.
    #[derive(Default)]
    struct Node {
        window: ProbeWindow,
        quarantined: bool,
    }

    impl Node {
        fn probe(&mut self, failed: bool) -> Verdict {
            let verdict = self.window.observe(self.quarantined, failed);
            match verdict {
                Verdict::Quarantine => self.quarantined = true,
                Verdict::Readmit => self.quarantined = false,
                Verdict::None => {}
            }
            verdict
        }
    }

    #[test]
    fn k_of_n_tolerates_sparse_failures() {
        let mut node = Node::default();
        // Fail every 4th probe: never 3 fails inside any 8-window.
        for i in 0..64 {
            let v = node.probe(i % 4 == 0);
            assert_eq!(v, Verdict::None, "sparse failures must not quarantine (probe {i})");
        }
        assert!(!node.quarantined);
    }

    #[test]
    fn dense_failures_quarantine_exactly_once() {
        let mut node = Node::default();
        assert_eq!(node.probe(true), Verdict::None);
        assert_eq!(node.probe(true), Verdict::None);
        // Third failure inside the window trips 3-of-8.
        assert_eq!(node.probe(true), Verdict::Quarantine);
        assert!(node.quarantined);
        // Further failures while quarantined change nothing.
        assert_eq!(node.probe(true), Verdict::None);
    }

    #[test]
    fn probation_requires_consecutive_passes() {
        let mut node = Node::default();
        for _ in 0..3 {
            node.probe(true);
        }
        assert!(node.quarantined);
        // Four passes, then a fail: streak resets, still quarantined.
        for _ in 0..4 {
            assert_eq!(node.probe(false), Verdict::None);
        }
        assert_eq!(node.probe(true), Verdict::None);
        assert!(node.quarantined, "one probation failure must reset the streak");
        // Now five clean passes readmit.
        for i in 0..4 {
            assert_eq!(node.probe(false), Verdict::None, "pass {i}");
        }
        assert_eq!(node.probe(false), Verdict::Readmit);
        assert!(!node.quarantined);
    }

    #[test]
    fn flapping_node_stays_quarantined() {
        // Pinned regression: a node alternating pass/fail looks 50 %
        // healthy, but must neither dodge quarantine forever nor ever
        // earn readmission (streak never reaches 5).
        let mut node = Node::default();
        let mut quarantined_at = None;
        for i in 0u32..200 {
            let failed = i % 2 == 0;
            match node.probe(failed) {
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
        assert!(node.quarantined);
    }

    #[test]
    fn readmitted_node_restarts_with_clean_history() {
        let mut node = Node::default();
        for _ in 0..3 {
            node.probe(true);
        }
        for _ in 0..4 {
            node.probe(false);
        }
        assert_eq!(node.probe(false), Verdict::Readmit);
        assert_eq!(node.window, ProbeWindow::default(), "readmission clears the window");
        // Two fresh failures must not re-quarantine off stale history.
        assert_eq!(node.probe(true), Verdict::None);
        assert_eq!(node.probe(true), Verdict::None);
        assert_eq!(node.probe(true), Verdict::Quarantine);
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
}
