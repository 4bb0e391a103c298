//! The node failure lifecycle: `Online → Crashed → Offline(repairing)
//! → Rejoining → Online`.
//!
//! Before this state machine, failure was free: a crashed node was
//! evacuated, backed off its operating point, and kept taking
//! placements in the very same tick. With the lifecycle enabled, a
//! crash takes the node *out of the pool* — it stops ticking, consumes
//! no energy, is excluded from [`crate::scheduler::Scheduler::filter`]
//! (and therefore from the [`crate::index::PlacementIndex`], which
//! re-checks the filter live per candidate) — for a seeded, bounded
//! MTTR window, then rejoins through a re-characterization pass that
//! measures what margins the aged silicon *actually* has instead of
//! guessing with geometric EOP backoff.
//!
//! Every MTTR draw is a pure function of `(seed, node, tick)` via the
//! workspace's SplitMix64 sub-stream convention ([`salt::MTTR`]), so a
//! run's downtime schedule is byte-identical for any worker count.

use uniserver_silicon::rng::{salt, splitmix64};

use crate::node::NodeId;

/// Gray-failure state riding on a [`NodePhase::Degraded`] node: the
/// throttle and error-rate parameters drawn at onset, when the
/// underlying fault clears, and whether the health watchdog has
/// quarantined the node in the meantime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrayState {
    /// Usable fraction of nominal vCPU capacity while degraded,
    /// `(0, 1]` — the thermal-throttle cap honored by
    /// [`crate::node::ManagedNode::fits`].
    pub capacity_cap: f64,
    /// CE-rate multiplier while the fault is active: the node's
    /// effective reliability is divided by it, so schedulers and the
    /// failure predictor see the elevated error rate honestly.
    pub ce_multiplier: f64,
    /// The tick at which the underlying fault clears (exclusive) —
    /// probes keep failing until then.
    pub clears_at_tick: u64,
    /// True once the watchdog has quarantined the node: drained,
    /// excluded from placement, EOP backed off to nominal, pending
    /// probation and readmission.
    pub quarantined: bool,
}

/// Where a managed node is in its failure lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodePhase {
    /// Serving: ticked, placeable, consuming energy.
    Online,
    /// Serving *gray*: still ticking, still holding placements, but at
    /// throttled capacity and an elevated correctable-error rate. Only
    /// the health watchdog's probes distinguish a degraded node from a
    /// healthy one; the node itself never reports the fault.
    Degraded {
        /// The onset parameters and quarantine marker.
        gray: GrayState,
    },
    /// A crash was observed this tick; evacuation is in progress. The
    /// phase is transient — recovery moves the node to `Offline` before
    /// the tick ends.
    Crashed,
    /// Out of the pool, under repair for the remaining tick count.
    Offline {
        /// Repair ticks left before the node may rejoin.
        remaining_ticks: u32,
    },
    /// Repair finished; the node is being re-characterized and will be
    /// back online within the current tick.
    Rejoining,
}

impl NodePhase {
    /// Whether the node is serving (only `Online` and `Degraded` nodes
    /// tick, hold placements, or pass the scheduler filter — a gray
    /// node keeps serving at throttled capacity, which is the whole
    /// point of the failure mode).
    #[must_use]
    pub fn is_online(self) -> bool {
        matches!(self, NodePhase::Online | NodePhase::Degraded { .. })
    }

    /// Whether the node is serving gray.
    #[must_use]
    pub fn is_degraded(self) -> bool {
        matches!(self, NodePhase::Degraded { .. })
    }
}

/// Power state of an online node, orthogonal to [`NodePhase`]: a node
/// can be fully operational yet parked in a low-power sleep state by a
/// consolidation policy. Only `Online` nodes may be asleep — crashes
/// and repairs wake a node as a side effect (the reboot is a power
/// cycle).
///
/// Asleep nodes do not tick (no crash draws, no guest progress — they
/// host nothing by construction), are excluded from the scheduler
/// filter, and draw only [`SLEEP_POWER_WATTS`]. They wake synchronously
/// on demand pressure: a placement decision that finds no awake
/// feasible node may wake one and place onto it in the same tick
/// (suspend-to-RAM resume is well under the 5 s datacenter tick).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodePower {
    /// Normal operation: ticking, placeable, consuming full power.
    #[default]
    Awake,
    /// Parked by consolidation: near-zero power, frozen state.
    Asleep,
}

/// Wall power of a sleeping node (suspend-to-RAM: DRAM refresh plus the
/// BMC). Charged per tick by the cluster's deterministic reduce, so
/// sleeping is cheap but not free and energy totals stay comparable.
pub const SLEEP_POWER_WATTS: f64 = 2.5;

/// Configuration of the failure lifecycle.
///
/// Disabled (the default), crashed nodes never leave the pool and the
/// legacy recover-and-back-off path runs unchanged, draw for draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureLifecycle {
    /// Whether crashes take nodes offline at all.
    pub enabled: bool,
    /// Shortest repair, in ticks (inclusive). Must be at least 1.
    pub mttr_min_ticks: u32,
    /// Longest repair, in ticks (inclusive).
    pub mttr_max_ticks: u32,
    /// Graceful degradation: when a premium re-offer fails while
    /// capacity is short, shed one best-effort placement (bronze first)
    /// so the next re-offer lands in the freed slot.
    pub shed: bool,
}

impl FailureLifecycle {
    /// Lifecycle off: crashed nodes stay in the pool (legacy behavior,
    /// preserved draw-for-draw).
    #[must_use]
    pub fn disabled() -> Self {
        FailureLifecycle { enabled: false, mttr_min_ticks: 1, mttr_max_ticks: 1, shed: false }
    }

    /// The standard repair policy: crashed nodes go offline for a
    /// seeded 12–96-tick repair (1–8 minutes at the datacenter's 5 s
    /// ticks) and load sheds bronze-first under capacity pressure.
    #[must_use]
    pub fn standard() -> Self {
        FailureLifecycle { enabled: true, mttr_min_ticks: 12, mttr_max_ticks: 96, shed: true }
    }

    /// The bounded MTTR for a node crashing at `tick` — a pure function
    /// of `(seed, node, tick)`, so the repair schedule is independent of
    /// worker count and discovery order.
    ///
    /// # Panics
    ///
    /// Panics if the configured MTTR bounds are invalid
    /// (`min < 1` or `max < min`).
    #[must_use]
    pub fn draw_mttr(&self, seed: u64, node: NodeId, tick: u64) -> u32 {
        assert!(self.mttr_min_ticks >= 1, "repairs take at least one tick");
        assert!(
            self.mttr_max_ticks >= self.mttr_min_ticks,
            "MTTR bounds are inverted: [{}, {}]",
            self.mttr_min_ticks,
            self.mttr_max_ticks
        );
        let word = splitmix64(
            seed ^ salt::MTTR
                ^ u64::from(node.0).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ tick.wrapping_mul(0xBF58_476D_1CE4_E5B9),
        );
        let span = u64::from(self.mttr_max_ticks - self.mttr_min_ticks) + 1;
        #[allow(clippy::cast_possible_truncation)]
        let draw = (word % span) as u32;
        self.mttr_min_ticks + draw
    }
}

impl Default for FailureLifecycle {
    fn default() -> Self {
        FailureLifecycle::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mttr_draws_are_pure_and_bounded() {
        let lc = FailureLifecycle::standard();
        for tick in 0..200u64 {
            for node in 0..8u32 {
                let a = lc.draw_mttr(42, NodeId(node), tick);
                let b = lc.draw_mttr(42, NodeId(node), tick);
                assert_eq!(a, b, "draws must be pure in (seed, node, tick)");
                assert!(
                    (lc.mttr_min_ticks..=lc.mttr_max_ticks).contains(&a),
                    "draw {a} escaped [{}, {}]",
                    lc.mttr_min_ticks,
                    lc.mttr_max_ticks
                );
            }
        }
    }

    #[test]
    fn mttr_draws_spread_across_the_range() {
        let lc = FailureLifecycle::standard();
        let draws: Vec<u32> =
            (0..500).map(|t| lc.draw_mttr(7, NodeId(3), t)).collect();
        let lo = *draws.iter().min().unwrap();
        let hi = *draws.iter().max().unwrap();
        assert!(hi - lo > 40, "500 draws should span most of 12..=96: {lo}..{hi}");
        assert_ne!(
            lc.draw_mttr(7, NodeId(0), 5),
            lc.draw_mttr(8, NodeId(0), 5),
            "different seeds must decorrelate repairs"
        );
    }

    #[test]
    fn phases_classify_online() {
        assert!(NodePhase::Online.is_online());
        let gray = GrayState {
            capacity_cap: 0.5,
            ce_multiplier: 8.0,
            clears_at_tick: 40,
            quarantined: false,
        };
        assert!(
            NodePhase::Degraded { gray }.is_online(),
            "gray nodes keep serving — degraded is not offline"
        );
        assert!(NodePhase::Degraded { gray }.is_degraded());
        assert!(!NodePhase::Online.is_degraded());
        for phase in
            [NodePhase::Crashed, NodePhase::Offline { remaining_ticks: 3 }, NodePhase::Rejoining]
        {
            assert!(!phase.is_online());
            assert!(!phase.is_degraded());
        }
    }

    #[test]
    #[should_panic(expected = "at least one tick")]
    fn zero_mttr_is_rejected() {
        let lc = FailureLifecycle { mttr_min_ticks: 0, ..FailureLifecycle::standard() };
        let _ = lc.draw_mttr(1, NodeId(0), 0);
    }
}
