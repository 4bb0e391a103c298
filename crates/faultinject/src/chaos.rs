//! The chaos engine: seeded fault campaigns against a serving cluster.
//!
//! Where the SDC campaign (this crate's root module) corrupts one
//! hypervisor's objects in isolation, the chaos engine attacks a *rack*:
//! independent per-node crash draws, correlated rack/PSU failures that
//! take out a contiguous block of node indices at once, and cooling
//! failures that step the ambient temperature for a window. Campaigns
//! compose — a [`ChaosPlan`] is just a list — and stack with the traffic
//! engine's flash crowds, so a headline run can lose an eighth of its
//! rack in the middle of a demand spike.
//!
//! Everything is a pure function of `(seed, tick)` via the workspace's
//! SplitMix64 sub-stream convention ([`salt::CHAOS`],
//! [`salt::CHAOS_RACK`]): the same plan replayed at any worker count
//! injects the same faults at the same ticks into the same nodes. The
//! engine deliberately knows nothing about the cluster — it yields node
//! *indices* and ambient deltas; the orchestrator owns turning those
//! into crash events and MSR writes.

use uniserver_silicon::rng::{salt, splitmix64, unit_fraction};

/// One fault campaign of a chaos plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Campaign {
    /// Independent node crashes: each online node fails a seeded
    /// Bernoulli trial every tick of the window.
    NodeCrashes {
        /// Expected crashes per node per hour of simulated time.
        rate_per_node_hour: f64,
        /// First tick of the window (inclusive).
        from_tick: u64,
        /// Last tick of the window (exclusive); `u64::MAX` = open-ended.
        until_tick: u64,
    },
    /// A correlated rack/PSU failure: one contiguous block of node
    /// indices crashes in the same tick. The block's start is a seeded
    /// draw; its width is a fraction of the fleet.
    RackFailure {
        /// The tick the PSU dies.
        at_tick: u64,
        /// Fraction of the fleet in the blast radius, `(0, 1]`.
        blast_fraction: f64,
    },
    /// A cooling failure: the ambient (inlet) temperature of every node
    /// steps up by `ambient_delta_c` for `duration_ticks`, then recovers.
    CoolingFailure {
        /// The tick the CRAC unit fails.
        at_tick: u64,
        /// How long the hot window lasts, in ticks.
        duration_ticks: u64,
        /// Ambient step while the cooling is down, in °C.
        ambient_delta_c: f64,
    },
    /// A gray failure: instead of crashing, each online node fails a
    /// seeded Bernoulli trial every tick of the window and *degrades* —
    /// an elevated correctable-error rate plus a thermal-throttle
    /// capacity cap — for a seeded duration, then silently recovers.
    /// The node keeps serving the whole time; only the health watchdog
    /// can tell it has gone gray.
    GrayFailure {
        /// Expected onsets per node per hour of simulated time.
        rate_per_node_hour: f64,
        /// First tick of the window (inclusive).
        from_tick: u64,
        /// Last tick of the window (exclusive); `u64::MAX` = open-ended.
        until_tick: u64,
        /// CE-rate multiplier while the fault is active (≥ 1).
        ce_multiplier: f64,
        /// Usable fraction of nominal vCPU capacity while degraded,
        /// `(0, 1]` — the thermal-throttle cap.
        capacity_cap: f64,
        /// Shortest seeded fault duration, in ticks (≥ 1).
        min_duration_ticks: u64,
        /// Longest seeded fault duration, in ticks (inclusive).
        max_duration_ticks: u64,
    },
    /// A brownout: the facility feed is capped at `watts` for a window
    /// and the fleet must gracefully degrade — park, throttle and shed
    /// bronze-first — until it fits. The engine only declares the cap;
    /// the orchestrator owns the response and charges the SLA cost.
    PowerCap {
        /// The facility cap, in watts.
        watts: f64,
        /// The tick the brownout begins.
        from_tick: u64,
        /// How long the cap stays in force, in ticks.
        duration_ticks: u64,
    },
}

/// One node's gray-failure onset: which node degrades, how hard, and
/// for how long. Yielded by [`ChaosPlan::gray_onsets_at`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrayOnset {
    /// The fleet index of the degrading node.
    pub node: u32,
    /// CE-rate multiplier while the fault is active.
    pub ce_multiplier: f64,
    /// Usable fraction of nominal vCPU capacity while degraded.
    pub capacity_cap: f64,
    /// Seeded fault duration, in ticks.
    pub duration_ticks: u64,
}

/// A seeded schedule of fault campaigns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosPlan {
    /// The campaigns, applied independently each tick.
    pub campaigns: Vec<Campaign>,
}

impl ChaosPlan {
    /// No chaos — every query returns nothing.
    #[must_use]
    pub fn none() -> Self {
        ChaosPlan { campaigns: Vec::new() }
    }

    /// The headline fault profile for a `ticks`-long horizon: a steady
    /// background of independent node crashes (0.15 per node-hour), a
    /// rack/PSU failure taking out 12.5 % of the fleet a third of the
    /// way in, and a cooling failure stepping ambient +12 °C for a
    /// sixth of the horizon starting at the halfway mark — deliberately
    /// overlapping the flash-crowd traffic preset so lost capacity
    /// meets peak demand.
    #[must_use]
    pub fn rack_and_flash(ticks: u64) -> Self {
        ChaosPlan {
            campaigns: vec![
                Campaign::NodeCrashes {
                    rate_per_node_hour: 0.15,
                    from_tick: 0,
                    until_tick: u64::MAX,
                },
                Campaign::RackFailure { at_tick: ticks / 3, blast_fraction: 0.125 },
                Campaign::CoolingFailure {
                    at_tick: ticks / 2,
                    duration_ticks: ticks / 6,
                    ambient_delta_c: 12.0,
                },
            ],
        }
    }

    /// The headline gray-failure profile for a `ticks`-long horizon
    /// over a `nodes`-wide fleet: a steady background of gray onsets
    /// (1.2 per node-hour, 8× CE rate, capacity throttled to 50 %,
    /// seeded durations spanning 1/24th to 1/6th of the horizon) plus
    /// a brownout capping the facility feed at 24 W/node for the third
    /// quarter of the run. Nodes degrade instead of crashing, so the
    /// watchdog — not the MTTR machinery — carries the whole campaign.
    #[must_use]
    pub fn gray_brownout(ticks: u64, nodes: u32) -> Self {
        ChaosPlan {
            campaigns: vec![
                Campaign::GrayFailure {
                    rate_per_node_hour: 1.2,
                    from_tick: 0,
                    until_tick: u64::MAX,
                    ce_multiplier: 8.0,
                    capacity_cap: 0.5,
                    min_duration_ticks: (ticks / 24).max(6),
                    max_duration_ticks: (ticks / 6).max(12),
                },
                Campaign::PowerCap {
                    watts: f64::from(nodes) * 24.0,
                    from_tick: ticks / 2,
                    duration_ticks: ticks / 4,
                },
            ],
        }
    }

    /// The node indices this plan crashes at `tick`, sorted and
    /// deduplicated. Pure in `(seed, tick)` — the caller may query any
    /// tick in any order.
    ///
    /// # Panics
    ///
    /// Panics if a rack failure's blast fraction is outside `(0, 1]` or
    /// a crash campaign's rate is negative.
    #[must_use]
    pub fn crash_indices_at(
        &self,
        seed: u64,
        tick: u64,
        tick_secs: f64,
        nodes: u32,
    ) -> Vec<u32> {
        let mut hit = Vec::new();
        for campaign in &self.campaigns {
            match *campaign {
                Campaign::NodeCrashes { rate_per_node_hour, from_tick, until_tick } => {
                    assert!(rate_per_node_hour >= 0.0, "crash rate must be non-negative");
                    if tick < from_tick || tick >= until_tick {
                        continue;
                    }
                    let p = (rate_per_node_hour / 3600.0 * tick_secs).min(1.0);
                    for node in 0..nodes {
                        let word = splitmix64(
                            seed ^ salt::CHAOS
                                ^ u64::from(node).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                ^ tick.wrapping_mul(0xBF58_476D_1CE4_E5B9),
                        );
                        if unit_fraction(word) < p {
                            hit.push(node);
                        }
                    }
                }
                Campaign::RackFailure { at_tick, blast_fraction } => {
                    assert!(
                        blast_fraction > 0.0 && blast_fraction <= 1.0,
                        "blast fraction must be in (0, 1], got {blast_fraction}"
                    );
                    if tick != at_tick {
                        continue;
                    }
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    let width =
                        ((f64::from(nodes) * blast_fraction).round() as u32).clamp(1, nodes);
                    let span = u64::from(nodes - width) + 1;
                    let word = splitmix64(seed ^ salt::CHAOS_RACK ^ at_tick);
                    #[allow(clippy::cast_possible_truncation)]
                    let start = (word % span) as u32;
                    hit.extend(start..start + width);
                }
                Campaign::CoolingFailure { .. }
                | Campaign::GrayFailure { .. }
                | Campaign::PowerCap { .. } => {}
            }
        }
        hit.sort_unstable();
        hit.dedup();
        hit
    }

    /// The gray-failure onsets this plan fires at `tick`, sorted by
    /// node index and deduplicated (the first campaign in plan order
    /// wins a contested node). Pure in `(seed, tick)` — the caller may
    /// query any tick in any order. The duration draw is chained off
    /// the onset word, so it is equally pure.
    ///
    /// # Panics
    ///
    /// Panics if a gray campaign's rate is negative, its capacity cap
    /// is outside `(0, 1]`, its CE multiplier is below 1, or its
    /// duration bounds are empty or inverted.
    #[must_use]
    pub fn gray_onsets_at(
        &self,
        seed: u64,
        tick: u64,
        tick_secs: f64,
        nodes: u32,
    ) -> Vec<GrayOnset> {
        let mut hit: Vec<GrayOnset> = Vec::new();
        for campaign in &self.campaigns {
            let Campaign::GrayFailure {
                rate_per_node_hour,
                from_tick,
                until_tick,
                ce_multiplier,
                capacity_cap,
                min_duration_ticks,
                max_duration_ticks,
            } = *campaign
            else {
                continue;
            };
            assert!(rate_per_node_hour >= 0.0, "gray rate must be non-negative");
            assert!(
                capacity_cap > 0.0 && capacity_cap <= 1.0,
                "capacity cap must be in (0, 1], got {capacity_cap}"
            );
            assert!(ce_multiplier >= 1.0, "CE multiplier must be at least 1, got {ce_multiplier}");
            assert!(
                min_duration_ticks >= 1 && max_duration_ticks >= min_duration_ticks,
                "duration bounds must satisfy 1 <= min <= max, \
                 got [{min_duration_ticks}, {max_duration_ticks}]"
            );
            if tick < from_tick || tick >= until_tick {
                continue;
            }
            let p = (rate_per_node_hour / 3600.0 * tick_secs).min(1.0);
            let span = max_duration_ticks - min_duration_ticks + 1;
            for node in 0..nodes {
                let word = splitmix64(
                    seed ^ salt::GRAY
                        ^ u64::from(node).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ tick.wrapping_mul(0xBF58_476D_1CE4_E5B9),
                );
                if unit_fraction(word) < p {
                    hit.push(GrayOnset {
                        node,
                        ce_multiplier,
                        capacity_cap,
                        duration_ticks: min_duration_ticks + splitmix64(word) % span,
                    });
                }
            }
        }
        hit.sort_by_key(|o| o.node);
        hit.dedup_by_key(|o| o.node);
        hit
    }

    /// The facility power cap (watts) in force at `tick`, or `None`
    /// when no brownout window covers it — overlapping caps take the
    /// tightest (minimum) value.
    ///
    /// # Panics
    ///
    /// Panics if a power-cap campaign's wattage is not positive.
    #[must_use]
    pub fn power_cap_at(&self, tick: u64) -> Option<f64> {
        self.campaigns
            .iter()
            .filter_map(|c| match *c {
                Campaign::PowerCap { watts, from_tick, duration_ticks } => {
                    assert!(watts > 0.0, "power cap must be positive, got {watts}");
                    (tick >= from_tick && tick < from_tick.saturating_add(duration_ticks))
                        .then_some(watts)
                }
                _ => None,
            })
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Whether this plan contains any gray-failure or power-cap
    /// campaign — the gate for the orchestrator's watchdog loop and
    /// the summary's `gray` object, so legacy profiles stay
    /// byte-identical.
    #[must_use]
    pub fn has_gray(&self) -> bool {
        self.campaigns
            .iter()
            .any(|c| matches!(c, Campaign::GrayFailure { .. } | Campaign::PowerCap { .. }))
    }

    /// The ambient step (°C above the deployment baseline) in force at
    /// `tick` — overlapping cooling failures stack.
    #[must_use]
    pub fn ambient_delta_at(&self, tick: u64) -> f64 {
        self.campaigns
            .iter()
            .map(|c| match *c {
                Campaign::CoolingFailure { at_tick, duration_ticks, ambient_delta_c }
                    if tick >= at_tick && tick < at_tick.saturating_add(duration_ticks) =>
                {
                    ambient_delta_c
                }
                _ => 0.0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_quiet() {
        let plan = ChaosPlan::none();
        for tick in 0..100 {
            assert!(plan.crash_indices_at(1, tick, 5.0, 64).is_empty());
            assert_eq!(plan.ambient_delta_at(tick), 0.0);
        }
    }

    #[test]
    fn crash_draws_are_pure_sorted_and_rate_shaped() {
        let plan = ChaosPlan {
            campaigns: vec![Campaign::NodeCrashes {
                rate_per_node_hour: 2.0,
                from_tick: 10,
                until_tick: 500,
            }],
        };
        let mut total = 0usize;
        for tick in 0..500u64 {
            let a = plan.crash_indices_at(42, tick, 5.0, 256);
            let b = plan.crash_indices_at(42, tick, 5.0, 256);
            assert_eq!(a, b, "draws must be pure in (seed, tick)");
            assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            assert!(tick >= 10 || a.is_empty(), "window not open yet");
            total += a.len();
        }
        // 256 nodes x 490 ticks x (2/3600 x 5) ≈ 348 expected crashes.
        assert!((200..520).contains(&total), "rate shaping is off: {total} crashes");
        let schedule = |seed: u64| -> Vec<Vec<u32>> {
            (0..500).map(|t| plan.crash_indices_at(seed, t, 5.0, 256)).collect()
        };
        assert_ne!(schedule(42), schedule(43), "seeds must decorrelate campaigns");
    }

    #[test]
    fn rack_failure_is_one_contiguous_block_once() {
        let plan = ChaosPlan {
            campaigns: vec![Campaign::RackFailure { at_tick: 240, blast_fraction: 0.125 }],
        };
        for tick in 0..720u64 {
            let hit = plan.crash_indices_at(7, tick, 5.0, 256);
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
        let small = plan.crash_indices_at(7, 240, 5.0, 4);
        assert_eq!(small.len(), 1);
    }

    #[test]
    fn cooling_failure_steps_ambient_for_its_window() {
        let plan = ChaosPlan {
            campaigns: vec![Campaign::CoolingFailure {
                at_tick: 100,
                duration_ticks: 50,
                ambient_delta_c: 12.0,
            }],
        };
        assert_eq!(plan.ambient_delta_at(99), 0.0);
        assert_eq!(plan.ambient_delta_at(100), 12.0);
        assert_eq!(plan.ambient_delta_at(149), 12.0);
        assert_eq!(plan.ambient_delta_at(150), 0.0);
        assert!(plan.crash_indices_at(1, 100, 5.0, 64).is_empty(), "heat is not a crash");
    }

    #[test]
    fn gray_onsets_are_pure_windowed_and_never_crash() {
        let plan = ChaosPlan {
            campaigns: vec![Campaign::GrayFailure {
                rate_per_node_hour: 4.0,
                from_tick: 20,
                until_tick: 400,
                ce_multiplier: 8.0,
                capacity_cap: 0.5,
                min_duration_ticks: 6,
                max_duration_ticks: 30,
            }],
        };
        let mut total = 0usize;
        for tick in 0..500u64 {
            let a = plan.gray_onsets_at(42, tick, 5.0, 256);
            let b = plan.gray_onsets_at(42, tick, 5.0, 256);
            assert_eq!(a, b, "onsets must be pure in (seed, tick)");
            assert!(a.windows(2).all(|w| w[0].node < w[1].node), "sorted, deduped");
            assert!((20..400).contains(&tick) || a.is_empty(), "window respected");
            for onset in &a {
                assert!((6..=30).contains(&onset.duration_ticks), "duration inside bounds");
                assert_eq!(onset.ce_multiplier, 8.0);
                assert_eq!(onset.capacity_cap, 0.5);
            }
            assert!(plan.crash_indices_at(42, tick, 5.0, 256).is_empty(), "gray never crashes");
            total += a.len();
        }
        // 256 nodes x 380 ticks x (4/3600 x 5) ≈ 540 expected onsets.
        assert!((350..750).contains(&total), "rate shaping is off: {total} onsets");
        let durations = |seed: u64| -> Vec<u64> {
            (0..500)
                .flat_map(|t| plan.gray_onsets_at(seed, t, 5.0, 256))
                .map(|o| o.duration_ticks)
                .collect()
        };
        assert_ne!(durations(42), durations(43), "seeds must decorrelate onsets");
    }

    #[test]
    fn power_cap_covers_its_window_and_overlaps_take_the_tightest() {
        let plan = ChaosPlan {
            campaigns: vec![
                Campaign::PowerCap { watts: 1536.0, from_tick: 90, duration_ticks: 45 },
                Campaign::PowerCap { watts: 1200.0, from_tick: 100, duration_ticks: 10 },
            ],
        };
        assert_eq!(plan.power_cap_at(89), None);
        assert_eq!(plan.power_cap_at(90), Some(1536.0));
        assert_eq!(plan.power_cap_at(100), Some(1200.0), "overlap takes the minimum");
        assert_eq!(plan.power_cap_at(110), Some(1536.0));
        assert_eq!(plan.power_cap_at(134), Some(1536.0));
        assert_eq!(plan.power_cap_at(135), None);
        assert!(plan.crash_indices_at(1, 90, 5.0, 64).is_empty(), "a brownout is not a crash");
        assert!(plan.gray_onsets_at(1, 90, 5.0, 64).is_empty(), "or a gray onset");
    }

    #[test]
    fn gray_gate_distinguishes_plans() {
        assert!(!ChaosPlan::none().has_gray());
        assert!(!ChaosPlan::rack_and_flash(720).has_gray());
        let gray = ChaosPlan::gray_brownout(720, 256);
        assert!(gray.has_gray());
        assert!(gray.power_cap_at(360).is_some(), "brownout covers the third quarter");
        assert!(gray.power_cap_at(0).is_none());
        assert!(
            (0..720).any(|t| !gray.gray_onsets_at(11, t, 5.0, 256).is_empty()),
            "the background gray campaign fires"
        );
        assert!(
            (0..720).all(|t| gray.crash_indices_at(11, t, 5.0, 256).is_empty()),
            "the gray profile never hard-crashes a node"
        );
    }

    #[test]
    fn campaigns_compose() {
        let plan = ChaosPlan::rack_and_flash(720);
        let rack_tick = 240u64;
        let hit = plan.crash_indices_at(9, rack_tick, 5.0, 256);
        assert!(hit.len() >= 32, "rack blast plus background crashes");
        assert!(hit.windows(2).all(|w| w[0] < w[1]), "merged draws stay sorted/deduped");
        assert_eq!(plan.ambient_delta_at(360), 12.0, "cooling fails at the halfway mark");
        let crashes_somewhere: usize =
            (0..720).map(|t| plan.crash_indices_at(9, t, 5.0, 256).len()).sum();
        assert!(crashes_somewhere > 32, "background campaign fires too");
    }
}
