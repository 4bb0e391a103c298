//! The chaos engine: seeded fault campaigns against a serving cluster.
//!
//! Where the SDC campaign (this crate's root module) corrupts one
//! hypervisor's objects in isolation, the chaos engine attacks a *rack*.
//! A [`ChaosPlan`] is one of two fault presets, each anchored to
//! fractions of the run's `ticks`-long horizon and sized to its
//! `nodes`-wide fleet, so the windows follow whatever horizon a run
//! asks for:
//!
//! * [`ChaosPlan::RackAndFlash`] — independent node crashes (0.15 per
//!   node-hour, the whole run), a rack/PSU failure taking out one
//!   contiguous block of 12.5 % of the node indices at tick `T/3`, and
//!   a cooling failure stepping ambient +12 °C over `[T/2, T/2 + T/6)`
//!   — overlapping the flash-crowd traffic preset so lost capacity
//!   meets peak demand;
//! * [`ChaosPlan::GrayBrownout`] — gray onsets (1.2 per node-hour):
//!   instead of crashing, a node *degrades* — 8× correctable-error
//!   rate, vCPU capacity throttled to 50 % — for a seeded
//!   `[max(T/24, 6), max(T/6, 12)]` ticks, then silently recovers,
//!   serving the whole time; plus a brownout capping the facility feed
//!   at 24 W per node over `[T/2, T/2 + T/4)`.
//!
//! Everything is a pure function of `(seed, tick)` via the workspace's
//! SplitMix64 sub-stream convention ([`salt::CHAOS`],
//! [`salt::CHAOS_RACK`], [`salt::GRAY`]): the same plan replayed at any
//! worker count injects the same faults at the same ticks into the same
//! nodes. The engine deliberately knows nothing about the cluster — it
//! yields node *indices*, ambient deltas and a wattage; the
//! orchestrator owns turning those into crash events, MSR writes and
//! the brownout response.

use uniserver_silicon::rng::{salt, splitmix64, unit_fraction};

/// Background node crashes per node per hour under
/// [`ChaosPlan::RackAndFlash`].
const CRASH_RATE_PER_NODE_HOUR: f64 = 0.15;
/// Fraction of the fleet in the rack failure's blast radius.
const BLAST_FRACTION: f64 = 0.125;
/// Ambient step while the cooling is down, in °C.
const COOLING_DELTA_C: f64 = 12.0;
/// Gray onsets per node per hour under [`ChaosPlan::GrayBrownout`].
const GRAY_RATE_PER_NODE_HOUR: f64 = 1.2;
/// CE-rate multiplier of a degraded node.
pub const GRAY_CE_MULTIPLIER: f64 = 8.0;
/// Usable fraction of nominal vCPU capacity of a degraded node — the
/// thermal-throttle cap.
pub const GRAY_CAPACITY_CAP: f64 = 0.5;
/// The brownout's facility cap per fleet node, in watts.
const BROWNOUT_WATTS_PER_NODE: f64 = 24.0;

/// One node's gray-failure onset: which node degrades and for how long
/// (at [`GRAY_CE_MULTIPLIER`] and [`GRAY_CAPACITY_CAP`]). Yielded by
/// [`ChaosPlan::gray_onsets_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrayOnset {
    /// The fleet index of the degrading node.
    pub node: u32,
    /// Seeded fault duration, in ticks.
    pub duration_ticks: u64,
}

/// A seeded fault profile; see the module docs for its campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPlan {
    /// Background crashes, a rack/PSU failure and a cooling failure.
    RackAndFlash,
    /// Gray onsets and a brownout power cap; nothing crashes.
    GrayBrownout,
}

/// The seeded per-node Bernoulli word for `(seed, node, tick)` under
/// the campaign sub-stream `salt`.
fn node_word(seed: u64, salt: u64, node: u32, tick: u64) -> u64 {
    splitmix64(
        seed ^ salt
            ^ u64::from(node).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ tick.wrapping_mul(0xBF58_476D_1CE4_E5B9),
    )
}

impl ChaosPlan {
    /// The node indices this plan crashes at `tick` of a `ticks`-long
    /// run over a `nodes`-wide fleet, sorted and deduplicated. Pure in
    /// `(seed, tick)` — the caller may query any tick in any order.
    #[must_use]
    pub fn crash_indices_at(
        self,
        seed: u64,
        tick: u64,
        ticks: u64,
        tick_secs: f64,
        nodes: u32,
    ) -> Vec<u32> {
        if self != ChaosPlan::RackAndFlash {
            return Vec::new();
        }
        let p = (CRASH_RATE_PER_NODE_HOUR / 3600.0 * tick_secs).min(1.0);
        let mut hit: Vec<u32> = (0..nodes)
            .filter(|&node| unit_fraction(node_word(seed, salt::CHAOS, node, tick)) < p)
            .collect();
        let rack_tick = ticks / 3;
        if tick == rack_tick {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let width = ((f64::from(nodes) * BLAST_FRACTION).round() as u32).clamp(1, nodes);
            let span = u64::from(nodes - width) + 1;
            let word = splitmix64(seed ^ salt::CHAOS_RACK ^ rack_tick);
            #[allow(clippy::cast_possible_truncation)]
            let start = (word % span) as u32;
            hit.extend(start..start + width);
            hit.sort_unstable();
            hit.dedup();
        }
        hit
    }

    /// The gray-failure onsets this plan fires at `tick` of a
    /// `ticks`-long run over a `nodes`-wide fleet, in node-index order.
    /// Pure in `(seed, tick)` — the caller may query any tick in any
    /// order. The duration draw is chained off the onset word, so it is
    /// equally pure.
    #[must_use]
    pub fn gray_onsets_at(
        self,
        seed: u64,
        tick: u64,
        ticks: u64,
        tick_secs: f64,
        nodes: u32,
    ) -> Vec<GrayOnset> {
        if self != ChaosPlan::GrayBrownout {
            return Vec::new();
        }
        let p = (GRAY_RATE_PER_NODE_HOUR / 3600.0 * tick_secs).min(1.0);
        let min_duration = (ticks / 24).max(6);
        let span = (ticks / 6).max(12) - min_duration + 1;
        (0..nodes)
            .filter_map(|node| {
                let word = node_word(seed, salt::GRAY, node, tick);
                (unit_fraction(word) < p).then(|| GrayOnset {
                    node,
                    duration_ticks: min_duration + splitmix64(word) % span,
                })
            })
            .collect()
    }

    /// The facility power cap (watts) in force at `tick` of a
    /// `ticks`-long run over a `nodes`-wide fleet, or `None` outside
    /// the brownout window.
    #[must_use]
    pub fn power_cap_at(self, tick: u64, ticks: u64, nodes: u32) -> Option<f64> {
        (self == ChaosPlan::GrayBrownout && (ticks / 2..ticks / 2 + ticks / 4).contains(&tick))
            .then(|| f64::from(nodes) * BROWNOUT_WATTS_PER_NODE)
    }

    /// The ambient step (°C above the deployment baseline) in force at
    /// `tick` of a `ticks`-long run.
    #[must_use]
    pub fn ambient_delta_at(self, tick: u64, ticks: u64) -> f64 {
        if self == ChaosPlan::RackAndFlash && (ticks / 2..ticks / 2 + ticks / 6).contains(&tick) {
            COOLING_DELTA_C
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use ChaosPlan::{GrayBrownout, RackAndFlash};

    #[test]
    fn crash_draws_are_pure_sorted_and_rate_shaped() {
        let crashes = |seed: u64, tick_secs: f64| -> Vec<Vec<u32>> {
            (0..720).map(|t| RackAndFlash.crash_indices_at(seed, t, 720, tick_secs, 256)).collect()
        };
        let schedule = crashes(42, 5.0);
        assert_eq!(schedule, crashes(42, 5.0), "draws must be pure in (seed, tick)");
        for hit in &schedule {
            assert!(hit.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        }
        let background = |s: &[Vec<u32>]| -> usize {
            s.iter().enumerate().filter(|&(t, _)| t != 240).map(|(_, h)| h.len()).sum()
        };
        // 256 nodes x 719 ticks x (0.15/3600 x 5) ≈ 38 expected crashes;
        // ten times the tick, ten times the crashes.
        let slow = background(&schedule);
        assert!((20..60).contains(&slow), "rate shaping is off: {slow} crashes");
        let fast = background(&crashes(42, 50.0));
        assert!((250..520).contains(&fast), "rate shaping is off: {fast} crashes at 50 s ticks");
        assert_ne!(schedule, crashes(43, 5.0), "seeds must decorrelate campaigns");
        assert!(
            (0..720).all(|t| GrayBrownout.crash_indices_at(42, t, 720, 5.0, 256).is_empty()),
            "the gray profile never hard-crashes a node"
        );
    }

    #[test]
    fn rack_failure_is_one_contiguous_block_once() {
        // Zero-length ticks silence the background crashes, leaving the
        // rack failure alone.
        for tick in 0..720u64 {
            let hit = RackAndFlash.crash_indices_at(7, tick, 720, 0.0, 256);
            if tick == 240 {
                assert_eq!(hit.len(), 32, "12.5 % of 256 nodes");
                assert!(
                    hit.windows(2).all(|w| w[1] == w[0] + 1),
                    "blast radius is contiguous: {hit:?}"
                );
                assert!(*hit.last().unwrap() < 256, "blast stays inside the fleet");
            } else {
                assert!(hit.is_empty(), "the PSU dies exactly once");
            }
        }
        // Tiny fleets still lose at least one node.
        assert_eq!(RackAndFlash.crash_indices_at(7, 240, 720, 0.0, 4).len(), 1);
        // Merged with the background, the block stays sorted and deduped.
        let merged = RackAndFlash.crash_indices_at(9, 240, 720, 3600.0, 256);
        assert!(merged.len() >= 32, "rack blast plus background crashes");
        assert!(merged.windows(2).all(|w| w[0] < w[1]), "merged draws stay sorted/deduped");
    }

    #[test]
    fn gray_onsets_are_pure_and_rate_shaped_and_never_crash() {
        let onsets = |seed: u64| -> Vec<Vec<GrayOnset>> {
            (0..720).map(|t| GrayBrownout.gray_onsets_at(seed, t, 720, 5.0, 256)).collect()
        };
        let schedule = onsets(42);
        assert_eq!(schedule, onsets(42), "onsets must be pure in (seed, tick)");
        for hit in &schedule {
            assert!(hit.windows(2).all(|w| w[0].node < w[1].node), "sorted, deduped");
        }
        // 256 nodes x 720 ticks x (1.2/3600 x 5) ≈ 307 expected onsets.
        let total: usize = schedule.iter().map(Vec::len).sum();
        assert!((220..400).contains(&total), "rate shaping is off: {total} onsets");
        assert_ne!(schedule, onsets(43), "seeds must decorrelate onsets");
        assert!(
            (0..720).all(|t| RackAndFlash.gray_onsets_at(42, t, 720, 5.0, 256).is_empty()),
            "the rack profile degrades nobody"
        );
    }

    #[test]
    fn preset_windows_follow_the_horizon() {
        for ticks in [60u64, 720, 7_200] {
            let nodes = 64;
            // Rack failure at T/3 (zero-length ticks mute the
            // background crashes).
            let rack: Vec<u64> = (0..ticks)
                .filter(|&t| !RackAndFlash.crash_indices_at(5, t, ticks, 0.0, nodes).is_empty())
                .collect();
            assert_eq!(rack, vec![ticks / 3], "T = {ticks}");
            // Cooling over [T/2, T/2 + T/6), +12 °C.
            let (from, until) = (ticks / 2, ticks / 2 + ticks / 6);
            for t in 0..ticks {
                let want = if (from..until).contains(&t) { 12.0 } else { 0.0 };
                assert_eq!(RackAndFlash.ambient_delta_at(t, ticks), want, "T = {ticks}, tick {t}");
                assert_eq!(GrayBrownout.ambient_delta_at(t, ticks), 0.0);
                assert_eq!(RackAndFlash.power_cap_at(t, ticks, nodes), None);
            }
            // Brownout of 24 W × nodes over [T/2, T/2 + T/4).
            let (from, until) = (ticks / 2, ticks / 2 + ticks / 4);
            for t in 0..ticks {
                let want = (from..until).contains(&t).then_some(24.0 * 64.0);
                assert_eq!(
                    GrayBrownout.power_cap_at(t, ticks, nodes),
                    want,
                    "T = {ticks}, tick {t}"
                );
            }
            // Gray durations in [max(T/24, 6), max(T/6, 12)].
            let (lo, hi) = ((ticks / 24).max(6), (ticks / 6).max(12));
            let durations: Vec<u64> = (0..ticks)
                .flat_map(|t| GrayBrownout.gray_onsets_at(5, t, ticks, 60.0, nodes))
                .map(|o| o.duration_ticks)
                .collect();
            assert!(!durations.is_empty(), "T = {ticks}");
            assert!(
                durations.iter().all(|d| (lo..=hi).contains(d)),
                "T = {ticks}: durations leave [{lo}, {hi}]"
            );
        }
    }
}
