//! Streams of incoming and terminating VMs (paper §4.B: scheduling
//! policies must be "non-intrusive in real-world scenarios where
//! OpenStack would manage streams of incoming and terminating VMs").
//!
//! A [`VmStream`] is one of two presets over the paper's Poisson base
//! process, both offering LDBC guests:
//!
//! * [`VmStream::Flat`] — a constant rate independent of rack size,
//!   exponential 5-minute lifetimes and a 20 % gold / 30 % silver mix;
//! * [`VmStream::FlashCrowd`] — the production shape: a rate scaled
//!   with the rack (3/256 arrivals per node per second), a ±25 % daily
//!   sine swell, seeded flash crowds (at most one per 10-minute epoch,
//!   with probability ½) that spike the rate 6× and decay with a 2-minute
//!   constant under a bronze-heavy 5 % gold / 15 % silver mix, and
//!   bounded-Pareto lifetimes (30 s – 2 h, α = 1.5).
//!
//! Every draw is a pure function of `(stream seed, tick)` — the shape
//! is closed-form in simulated time and the burst schedule derives from
//! its own SplitMix64 sub-stream — so arrival streams stay byte-identical
//! across thread counts and draw orders.

use std::f64::consts::TAU;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uniserver_units::Seconds;

use uniserver_hypervisor::vm::VmConfig;
use uniserver_silicon::rng::{exponential, poisson, splitmix64, unit_fraction};

use crate::sla::SlaClass;

/// Sub-stream salt for the arrival process (keeps arrival draws
/// independent of the rack's part and ambient draws off the same seed).
const ARRIVAL_SALT: u64 = 0x4528_21E6_38D0_1377;

/// Sub-stream salt for the flash-crowd schedule (one burst draw per
/// epoch, independent of the per-tick arrival sub-streams).
const FLASH_SALT: u64 = 0x243F_6A88_85A3_08D3;

/// Base class mix as (gold, silver) fractions; the rest is bronze.
const BASE_MIX: (f64, f64) = (0.2, 0.3);
/// Flat-stream mean VM lifetime (exponential), in seconds.
const MEAN_LIFETIME_SECS: f64 = 300.0;

/// Flash-crowd arrivals per second per rack node: a 256-node rack sees
/// the flat headline's 3/s.
const PER_NODE_RATE: f64 = 3.0 / 256.0;
/// Amplitude of the diurnal sine, as a fraction of the base rate.
const DIURNAL_AMPLITUDE: f64 = 0.25;
/// Period of the diurnal sine (a day), in seconds.
const DIURNAL_PERIOD_SECS: f64 = 86_400.0;
/// Window per burst draw, in seconds.
const FLASH_EPOCH_SECS: f64 = 600.0;
/// Probability that an epoch starts a burst.
const FLASH_PROBABILITY: f64 = 0.5;
/// Peak rate multiple at burst onset.
const FLASH_PEAK: f64 = 6.0;
/// Exponential decay constant of a burst, in seconds.
const FLASH_DECAY_SECS: f64 = 120.0;
/// Class mix of burst traffic: flash crowds skew towards best-effort
/// user traffic.
const FLASH_MIX: (f64, f64) = (0.05, 0.15);
/// Tail index of the bounded-Pareto lifetimes (smaller = heavier).
const PARETO_ALPHA: f64 = 1.5;
/// Shortest bounded-Pareto lifetime, in seconds.
const PARETO_MIN_SECS: f64 = 30.0;
/// Longest bounded-Pareto lifetime, in seconds.
const PARETO_MAX_SECS: f64 = 7_200.0;

/// Derives the RNG seed for one tick's arrival batch — a pure function
/// of `(stream seed, tick index)` exactly as `silicon::rng::indexed_seed`
/// derives node silicon, so arrival streams are byte-stable however the
/// driving loop is scheduled or threaded.
#[must_use]
pub(crate) fn arrival_seed(stream_seed: u64, tick: u64) -> u64 {
    splitmix64(stream_seed ^ ARRIVAL_SALT ^ tick.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A VM arrival process: one of the two traffic presets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VmStream {
    /// Constant-rate arrivals, independent of rack size, with
    /// exponential lifetimes — the paper-era stream.
    Flat {
        /// Mean VM arrivals per second.
        arrival_rate: f64,
    },
    /// Capacity-scaled arrivals under a diurnal swell and seeded flash
    /// crowds, with heavy-tailed lifetimes.
    FlashCrowd,
}

/// One VM arrival drawn from a stream: what to run, at which class, for
/// how long.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Guest configuration.
    pub config: VmConfig,
    /// SLA class of the request.
    pub class: SlaClass,
    /// Requested lifetime (drawn from the stream's lifetime model).
    pub lifetime: Seconds,
}

/// The additive flash-crowd boost at simulated time `t` (0 when no
/// burst is live). Bursts from the current and previous epoch
/// contribute, so a burst decays smoothly across an epoch boundary.
fn flash_boost(stream_seed: u64, t: f64) -> f64 {
    let e = (t / FLASH_EPOCH_SECS).floor().max(0.0) as u64;
    let mut boost = 0.0;
    for k in e.saturating_sub(1)..=e {
        let w = splitmix64(stream_seed ^ FLASH_SALT ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if unit_fraction(w) >= FLASH_PROBABILITY {
            continue;
        }
        let start = k as f64 * FLASH_EPOCH_SECS + unit_fraction(splitmix64(w)) * FLASH_EPOCH_SECS;
        if t >= start {
            boost += (FLASH_PEAK - 1.0) * (-(t - start) / FLASH_DECAY_SECS).exp();
        }
    }
    boost
}

impl VmStream {
    /// The arrival rate for a rack of `nodes` machines at simulated time
    /// `t`, and the share of it that is burst traffic — a closed-form
    /// pure function of `(self, stream_seed, nodes, t)`.
    fn rate_and_burst_share(self, stream_seed: u64, nodes: usize, t: f64) -> (f64, f64) {
        match self {
            VmStream::Flat { arrival_rate } => (arrival_rate, 0.0),
            VmStream::FlashCrowd => {
                let boost = flash_boost(stream_seed, t);
                let diurnal = 1.0 + DIURNAL_AMPLITUDE * (TAU * (t / DIURNAL_PERIOD_SECS)).sin();
                let rate = PER_NODE_RATE * nodes as f64 * diurnal * (1.0 + boost);
                (rate, boost / (1.0 + boost))
            }
        }
    }

    /// The arrival batch of one tick, drawn from a per-tick sub-stream
    /// of `stream_seed` (see `arrival_seed`) at the rate the rack's
    /// capacity and the traffic shape prescribe for this tick's start
    /// time (`tick × duration`). Pure in
    /// `(self, stream_seed, tick, duration, nodes)`: the event-queue
    /// driver can generate batches in any order — or in parallel — and
    /// always get the same stream.
    #[must_use]
    pub fn tick_arrivals_scaled(
        &self,
        stream_seed: u64,
        tick: u64,
        duration: Seconds,
        nodes: usize,
    ) -> Vec<Arrival> {
        let mut rng = StdRng::seed_from_u64(arrival_seed(stream_seed, tick));
        let t = tick as f64 * duration.as_secs();
        let (rate, burst_share) = self.rate_and_burst_share(stream_seed, nodes, t);
        let count = poisson(&mut rng, rate * duration.as_secs());
        let template = VmConfig::ldbc_benchmark();
        (0..count)
            .map(|_| {
                // Burst arrivals draw their class from the flash mix; a
                // zero share (flat streams, quiet flash ticks) draws no
                // burst uniform at all.
                let (gold, silver) = if burst_share > 0.0 && rng.gen::<f64>() < burst_share {
                    FLASH_MIX
                } else {
                    BASE_MIX
                };
                let class = pick_class(&mut rng, gold, silver);
                let lifetime = self.sample_lifetime(&mut rng);
                Arrival { config: template.clone(), class, lifetime }
            })
            .collect()
    }

    fn sample_lifetime<R: Rng>(self, rng: &mut R) -> Seconds {
        match self {
            VmStream::Flat { .. } => Seconds::new(exponential(rng, MEAN_LIFETIME_SECS)),
            VmStream::FlashCrowd => {
                // Inverse CDF of the bounded Pareto on [min, max]:
                // x = L · (1 − U·(1 − (L/H)^α))^(−1/α), U ∈ [0, 1).
                let u: f64 = rng.gen();
                let ratio = (PARETO_MIN_SECS / PARETO_MAX_SECS).powf(PARETO_ALPHA);
                Seconds::new(PARETO_MIN_SECS * (1.0 - u * (1.0 - ratio)).powf(-1.0 / PARETO_ALPHA))
            }
        }
    }
}

fn pick_class<R: Rng>(rng: &mut R, gold: f64, silver: f64) -> SlaClass {
    let x: f64 = rng.gen();
    if x < gold {
        SlaClass::Gold
    } else if x < gold + silver {
        SlaClass::Silver
    } else {
        SlaClass::Bronze
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAT: VmStream = VmStream::Flat { arrival_rate: 3.0 };

    #[test]
    fn tick_arrivals_are_pure_and_order_independent() {
        let forward: Vec<_> =
            (0..50).map(|t| FLAT.tick_arrivals_scaled(9, t, Seconds::new(5.0), 0)).collect();
        let backward: Vec<_> =
            (0..50).rev().map(|t| FLAT.tick_arrivals_scaled(9, t, Seconds::new(5.0), 0)).collect();
        for (t, batch) in forward.iter().enumerate() {
            assert_eq!(batch, &backward[49 - t], "tick {t} must not depend on draw order");
        }
        let total: usize = forward.iter().map(Vec::len).sum();
        assert!((600..=900).contains(&total), "3/s × 250 s ≈ 750 arrivals, got {total}");
        let gold = forward.iter().flatten().filter(|a| a.class == SlaClass::Gold).count();
        assert!(gold > 0, "the class mix must draw gold arrivals");
    }

    #[test]
    fn arrival_seed_separates_ticks_and_seeds() {
        assert_ne!(arrival_seed(1, 0), arrival_seed(1, 1));
        assert_ne!(arrival_seed(1, 0), arrival_seed(2, 0));
        assert_eq!(arrival_seed(7, 42), arrival_seed(7, 42));
    }

    #[test]
    fn flash_crowd_rate_scales_with_rack_size() {
        let count = |nodes: usize| -> usize {
            (0..60)
                .map(|t| {
                    VmStream::FlashCrowd.tick_arrivals_scaled(11, t, Seconds::new(5.0), nodes).len()
                })
                .sum()
        };
        let small = count(64);
        let big = count(1024);
        // 64 nodes → 0.75/s ≈ 225 arrivals over 300 s before bursts;
        // 1024 nodes → 16×.
        assert!(small >= 150, "64-node rack drew {small}");
        assert!(big > 10 * small, "1024-node rack must draw ~16× more, got {big} vs {small}");
        assert_eq!(count(0), 0, "an empty rack offers no capacity-scaled traffic");
    }

    #[test]
    fn flash_crowds_spike_and_decay_deterministically() {
        let s = VmStream::FlashCrowd;
        // Scan a few hours for the seeded burst schedule: rates must
        // spike past the diurnal ceiling and return to it.
        let base = PER_NODE_RATE * 256.0;
        let ceiling = base * 1.26; // diurnal amplitude 0.25 + margin
        let rates = |seed: u64| -> Vec<f64> {
            (0..2_000).map(|t| s.rate_and_burst_share(seed, 256, t as f64 * 10.0).0).collect()
        };
        let schedule = rates(77);
        let peak = schedule.iter().cloned().fold(0.0, f64::max);
        assert!(peak > 2.0 * base, "bursts must spike the rate, peak {peak} vs base {base}");
        let quiet = schedule.iter().filter(|r| **r < ceiling).count();
        assert!(quiet > schedule.len() / 3, "bursts must decay back below the diurnal ceiling");
        // Pure function of (seed, t): the schedule replays byte-for-byte.
        assert_eq!(schedule, rates(77));
        assert_ne!(schedule, rates(78), "the burst schedule must derive from the stream seed");
    }

    #[test]
    fn bounded_pareto_lifetimes_stay_in_bounds_and_skew_short() {
        let lifetimes: Vec<f64> = (0..200)
            .flat_map(|t| VmStream::FlashCrowd.tick_arrivals_scaled(5, t, Seconds::new(5.0), 256))
            .map(|a| a.lifetime.as_secs())
            .collect();
        assert!(lifetimes.len() > 500, "got {}", lifetimes.len());
        assert!(lifetimes.iter().all(|l| (30.0..=7_200.0).contains(l)), "bounds violated");
        let short = lifetimes.iter().filter(|l| **l < 120.0).count();
        assert!(
            short * 2 > lifetimes.len(),
            "a heavy-tailed draw must skew short: {short}/{}",
            lifetimes.len()
        );
        let long = lifetimes.iter().filter(|l| **l > 1_800.0).count();
        assert!(long > 0, "the tail must reach long lifetimes");
    }

    #[test]
    fn burst_traffic_skews_towards_bronze() {
        // Six simulated hours at 5 s ticks: split the flash stream's
        // arrivals by whether burst traffic carries most of the tick.
        let (mut burst, mut quiet) = ((0usize, 0usize), (0usize, 0usize));
        for tick in 0..4_320u64 {
            let share = VmStream::FlashCrowd.rate_and_burst_share(3, 256, tick as f64 * 5.0).1;
            let bucket = if share > 0.6 {
                &mut burst
            } else if share == 0.0 {
                &mut quiet
            } else {
                continue;
            };
            for a in VmStream::FlashCrowd.tick_arrivals_scaled(3, tick, Seconds::new(5.0), 256) {
                bucket.0 += usize::from(a.class == SlaClass::Gold);
                bucket.1 += 1;
            }
        }
        assert!(
            burst.1 > 1_000 && quiet.1 > 1_000,
            "both regimes must be sampled: {burst:?} {quiet:?}"
        );
        let frac = |(gold, total): (usize, usize)| gold as f64 / total as f64;
        // Base mix is 20 % gold; the flash mix is 5 %. With bursts
        // carrying over 60 % of a tick the blend sits at most near 11 %.
        assert!((0.17..0.23).contains(&frac(quiet)), "quiet ticks keep the base mix: {quiet:?}");
        assert!(frac(burst) < 0.14, "burst mix must pull gold down: {burst:?}");
    }
}
