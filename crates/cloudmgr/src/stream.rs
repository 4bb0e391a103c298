//! Streams of incoming and terminating VMs (paper §4.B: scheduling
//! policies must be "non-intrusive in real-world scenarios where
//! OpenStack would manage streams of incoming and terminating VMs").
//!
//! The traffic engine composes production shapes on top of the paper's
//! Poisson base process:
//!
//! * **capacity scaling** — `per_node_rate` scales the offered rate with
//!   the rack size, so a 10⁴-node rack is not served the same ~10.9k
//!   arrivals as a 256-node one;
//! * **diurnal modulation** — a sine factor over a configurable period
//!   models time-of-day load swings;
//! * **flash crowds** — seeded bursts (one draw per epoch) spike the
//!   rate by a multiplier and decay exponentially, with their own
//!   (bronze-heavy) SLA mix;
//! * **heavy-tailed lifetimes** — a bounded-Pareto option replaces the
//!   exponential lifetime draw.
//!
//! Every draw remains a pure function of `(stream seed, tick)` — the
//! modulation factors are closed-form in simulated time and the burst
//! schedule derives from its own SplitMix64 sub-stream — so arrival
//! streams stay byte-identical across thread counts and draw orders.
//! The flat default (`TrafficShape::Flat`, exponential lifetimes,
//! `per_node_rate = 0`) reproduces the legacy stream draw-for-draw.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uniserver_units::Seconds;

use uniserver_hypervisor::vm::VmConfig;
use uniserver_silicon::rng::{exponential, poisson, splitmix64, unit_fraction};

use crate::cluster::{Cluster, Placement};
use crate::node::NodeId;
use crate::sla::SlaClass;

/// Sub-stream salt for the arrival process (keeps arrival draws
/// independent of the rack's part and ambient draws off the same seed).
const ARRIVAL_SALT: u64 = 0x4528_21E6_38D0_1377;

/// Sub-stream salt for the flash-crowd schedule (one burst draw per
/// epoch, independent of the per-tick arrival sub-streams).
const FLASH_SALT: u64 = 0x243F_6A88_85A3_08D3;

/// Derives the RNG seed for one tick's arrival batch — a pure function
/// of `(stream seed, tick index)` exactly as `silicon::rng::indexed_seed`
/// derives node silicon, so arrival streams are byte-stable however the
/// driving loop is scheduled or threaded.
#[must_use]
pub fn arrival_seed(stream_seed: u64, tick: u64) -> u64 {
    splitmix64(stream_seed ^ ARRIVAL_SALT ^ tick.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// How the offered arrival rate is shaped over simulated time.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficShape {
    /// Constant rate — the paper-era stream and the default (prior runs
    /// reproduce byte-for-byte).
    Flat,
    /// Production shapes: diurnal sine modulation plus optional seeded
    /// flash-crowd bursts.
    Modulated(Modulation),
}

/// Closed-form rate modulation over simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct Modulation {
    /// Diurnal sine amplitude as a fraction of the base rate, in
    /// `[0, 1)` (0 disables the diurnal component).
    pub diurnal_amplitude: f64,
    /// Diurnal period (e.g. 86 400 s for a day).
    pub diurnal_period: Seconds,
    /// Phase offset as a fraction of the period at `t = 0`.
    pub diurnal_phase: f64,
    /// Flash-crowd bursts on top of the diurnal swell.
    pub flash: Option<FlashCrowds>,
}

/// Seeded flash-crowd bursts: at most one burst starts per `epoch`,
/// drawn from the stream seed's own sub-stream, spikes the rate by
/// `peak_multiplier` and decays exponentially with constant `decay`.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashCrowds {
    /// Window per burst draw.
    pub epoch: Seconds,
    /// Probability that an epoch starts a burst, in `[0, 1]`.
    pub probability: f64,
    /// Peak rate multiple at burst onset (≥ 1; 1 disables).
    pub peak_multiplier: f64,
    /// Exponential decay constant of a burst.
    pub decay: Seconds,
    /// SLA mix of burst traffic as (gold, silver) fractions — flash
    /// crowds skew towards best-effort user traffic, so their mix is
    /// configured separately from the base stream's.
    pub gold_fraction: f64,
    /// Silver fraction of burst traffic.
    pub silver_fraction: f64,
}

/// How requested VM lifetimes are drawn.
#[derive(Debug, Clone, PartialEq)]
pub enum LifetimeModel {
    /// Exponential around the stream's `mean_lifetime` (the legacy
    /// default).
    Exponential,
    /// Bounded Pareto on `[min, max]` with tail index `alpha` — the
    /// heavy-tailed production shape (most VMs are short, a few run for
    /// hours). `mean_lifetime` is ignored under this model.
    BoundedPareto {
        /// Tail index (> 0; smaller = heavier tail).
        alpha: f64,
        /// Shortest lifetime.
        min: Seconds,
        /// Longest lifetime.
        max: Seconds,
    },
}

/// Stream configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct VmStream {
    /// Mean VM arrivals per second, independent of rack size.
    pub arrival_rate: f64,
    /// Mean VM arrivals per second **per rack node** — capacity scaling:
    /// the effective base rate is `arrival_rate + per_node_rate × nodes`
    /// when the driver passes its rack size (0 keeps the flat legacy
    /// rate).
    pub per_node_rate: f64,
    /// Mean VM lifetime (exponential model).
    pub mean_lifetime: Seconds,
    /// Template for arriving guests.
    pub template: VmConfig,
    /// SLA mix as (gold, silver) fractions; the rest is bronze.
    pub gold_fraction: f64,
    /// Silver fraction of arrivals.
    pub silver_fraction: f64,
    /// Rate shape over simulated time.
    pub shape: TrafficShape,
    /// Lifetime distribution.
    pub lifetimes: LifetimeModel,
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

/// Checks one (gold, silver) class mix; the remainder is bronze, so the
/// fractions must be non-negative and sum to at most 1.
fn check_mix(what: &str, gold: f64, silver: f64) -> Result<(), String> {
    if !(gold.is_finite() && silver.is_finite() && gold >= 0.0 && silver >= 0.0) {
        return Err(format!("{what}: class fractions must be finite and non-negative, got gold {gold} / silver {silver}"));
    }
    if gold + silver > 1.0 {
        return Err(format!(
            "{what}: gold ({gold}) + silver ({silver}) = {} exceeds 1.0 and would starve bronze",
            gold + silver
        ));
    }
    Ok(())
}

impl VmStream {
    /// A busy edge-site stream: ~one arrival per 20 s, 2-minute
    /// lifetimes, 20 % gold / 30 % silver.
    #[must_use]
    pub fn edge_site() -> Self {
        VmStream {
            arrival_rate: 0.05,
            per_node_rate: 0.0,
            mean_lifetime: Seconds::new(120.0),
            template: VmConfig::idle_guest(),
            gold_fraction: 0.2,
            silver_fraction: 0.3,
            shape: TrafficShape::Flat,
            lifetimes: LifetimeModel::Exponential,
        }
    }

    /// A datacenter-scale stream: three LDBC guests arriving per second,
    /// 5-minute lifetimes, 20 % gold / 30 % silver — ≥10⁴ arrivals over
    /// a simulated hour, the orchestrator's flat-profile headline load.
    #[must_use]
    pub fn datacenter() -> Self {
        VmStream {
            arrival_rate: 3.0,
            per_node_rate: 0.0,
            mean_lifetime: Seconds::new(300.0),
            template: VmConfig::ldbc_benchmark(),
            gold_fraction: 0.2,
            silver_fraction: 0.3,
            shape: TrafficShape::Flat,
            lifetimes: LifetimeModel::Exponential,
        }
    }

    /// The production traffic engine preset: capacity-scaled arrivals
    /// (3/256 per node per second — a 256-node rack sees the flat
    /// headline's 3/s), a mild diurnal swell, flash crowds that spike
    /// the rate ~6× for minutes at a time with a bronze-heavy mix, and
    /// bounded-Pareto lifetimes (30 s – 2 h, α = 1.5).
    #[must_use]
    pub fn flash_crowd() -> Self {
        VmStream {
            arrival_rate: 0.0,
            per_node_rate: 3.0 / 256.0,
            shape: TrafficShape::Modulated(Modulation {
                diurnal_amplitude: 0.25,
                diurnal_period: Seconds::new(86_400.0),
                diurnal_phase: 0.0,
                flash: Some(FlashCrowds {
                    epoch: Seconds::new(600.0),
                    probability: 0.5,
                    peak_multiplier: 6.0,
                    decay: Seconds::new(120.0),
                    gold_fraction: 0.05,
                    silver_fraction: 0.15,
                }),
            }),
            lifetimes: LifetimeModel::BoundedPareto {
                alpha: 1.5,
                min: Seconds::new(30.0),
                max: Seconds::new(7_200.0),
            },
            ..VmStream::datacenter()
        }
    }

    /// Returns `self` with the base class mix replaced, rejecting mixes
    /// that would silently starve bronze (gold + silver > 1) or are
    /// otherwise degenerate.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn with_class_mix(mut self, gold: f64, silver: f64) -> Result<Self, String> {
        check_mix("class mix", gold, silver)?;
        self.gold_fraction = gold;
        self.silver_fraction = silver;
        Ok(self)
    }

    /// Validates every knob of the stream. Drivers call this once at
    /// startup; the sampling paths `debug_assert` it so a hand-rolled
    /// invalid stream fails fast in tests instead of silently skewing
    /// the mix.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.arrival_rate.is_finite() && self.arrival_rate >= 0.0) {
            return Err(format!("arrival_rate must be finite and non-negative, got {}", self.arrival_rate));
        }
        if !(self.per_node_rate.is_finite() && self.per_node_rate >= 0.0) {
            return Err(format!("per_node_rate must be finite and non-negative, got {}", self.per_node_rate));
        }
        check_mix("class mix", self.gold_fraction, self.silver_fraction)?;
        if let TrafficShape::Modulated(m) = &self.shape {
            if !(0.0..1.0).contains(&m.diurnal_amplitude) {
                return Err(format!("diurnal_amplitude must be in [0, 1), got {}", m.diurnal_amplitude));
            }
            if m.diurnal_period.as_secs() <= 0.0 {
                return Err("diurnal_period must be positive".into());
            }
            if let Some(f) = &m.flash {
                if !(0.0..=1.0).contains(&f.probability) {
                    return Err(format!("flash probability must be in [0, 1], got {}", f.probability));
                }
                if f.peak_multiplier < 1.0 {
                    return Err(format!("flash peak_multiplier must be ≥ 1, got {}", f.peak_multiplier));
                }
                if f.epoch.as_secs() <= 0.0 || f.decay.as_secs() <= 0.0 {
                    return Err("flash epoch and decay must be positive".into());
                }
                check_mix("flash mix", f.gold_fraction, f.silver_fraction)?;
            }
        }
        if let LifetimeModel::BoundedPareto { alpha, min, max } = self.lifetimes {
            if !(alpha.is_finite() && alpha > 0.0) {
                return Err(format!("pareto alpha must be positive, got {alpha}"));
            }
            if !(min.as_secs() > 0.0 && max.as_secs() > min.as_secs()) {
                return Err(format!(
                    "pareto bounds must satisfy 0 < min < max, got [{}, {}]",
                    min.as_secs(),
                    max.as_secs()
                ));
            }
        } else if self.mean_lifetime.as_secs() <= 0.0 {
            return Err("mean_lifetime must be positive".into());
        }
        Ok(())
    }

    /// The effective base rate for a rack of `nodes` machines (pass 0 to
    /// keep the capacity-independent `arrival_rate` alone).
    #[must_use]
    pub fn effective_rate(&self, nodes: usize) -> f64 {
        self.arrival_rate + self.per_node_rate * nodes as f64
    }

    /// The additive flash-crowd boost at simulated time `t` (0 when no
    /// burst is live). Bursts from the current and previous epoch
    /// contribute, so a burst decays smoothly across an epoch boundary.
    fn flash_boost(&self, stream_seed: u64, t: f64) -> f64 {
        let TrafficShape::Modulated(m) = &self.shape else { return 0.0 };
        let Some(f) = &m.flash else { return 0.0 };
        let epoch = f.epoch.as_secs();
        let e = (t / epoch).floor().max(0.0) as u64;
        let mut boost = 0.0;
        for k in e.saturating_sub(1)..=e {
            let w = splitmix64(stream_seed ^ FLASH_SALT ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            if unit_fraction(w) >= f.probability {
                continue;
            }
            let start = k as f64 * epoch + unit_fraction(splitmix64(w)) * epoch;
            if t >= start {
                boost += (f.peak_multiplier - 1.0) * (-(t - start) / f.decay.as_secs()).exp();
            }
        }
        boost
    }

    /// The modulated arrival rate for a rack of `nodes` machines at
    /// simulated time `t` — a closed-form pure function of
    /// `(self, stream_seed, nodes, t)`.
    #[must_use]
    pub fn rate_at(&self, stream_seed: u64, nodes: usize, t: Seconds) -> f64 {
        let base = self.effective_rate(nodes);
        match &self.shape {
            TrafficShape::Flat => base,
            TrafficShape::Modulated(m) => {
                let phase = t.as_secs() / m.diurnal_period.as_secs() + m.diurnal_phase;
                let diurnal = 1.0 + m.diurnal_amplitude * (std::f64::consts::TAU * phase).sin();
                base * diurnal * (1.0 + self.flash_boost(stream_seed, t.as_secs()))
            }
        }
    }

    /// The arrival batch of one tick for a capacity-independent stream —
    /// [`VmStream::tick_arrivals_scaled`] with zero rack nodes.
    #[must_use]
    pub fn tick_arrivals(&self, stream_seed: u64, tick: u64, duration: Seconds) -> Vec<Arrival> {
        self.tick_arrivals_scaled(stream_seed, tick, duration, 0)
    }

    /// The arrival batch of one tick, drawn from a per-tick sub-stream
    /// of `stream_seed` (see [`arrival_seed`]) at the rate the rack's
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
        debug_assert!(self.validate().is_ok(), "invalid stream: {:?}", self.validate());
        let mut rng = StdRng::seed_from_u64(arrival_seed(stream_seed, tick));
        let t = tick as f64 * duration.as_secs();
        let rate = self.rate_at(stream_seed, nodes, Seconds::new(t));
        let count = poisson(&mut rng, rate * duration.as_secs());
        // Fraction of this tick's traffic that is burst traffic; burst
        // arrivals draw their class from the flash mix. 0 for flat
        // streams, where the short-circuit keeps the legacy draw
        // sequence byte-identical.
        let boost = self.flash_boost(stream_seed, t);
        let burst_share = boost / (1.0 + boost);
        (0..count)
            .map(|_| {
                let class = if burst_share > 0.0 && rng.gen::<f64>() < burst_share {
                    self.sample_burst_class(&mut rng)
                } else {
                    self.sample_class_with(&mut rng)
                };
                let lifetime = self.sample_lifetime(&mut rng);
                Arrival { config: self.template.clone(), class, lifetime }
            })
            .collect()
    }

    fn sample_class_with<R: Rng>(&self, rng: &mut R) -> SlaClass {
        debug_assert!(
            check_mix("class mix", self.gold_fraction, self.silver_fraction).is_ok(),
            "gold + silver fractions exceed 1.0 and would starve bronze"
        );
        pick_class(rng, self.gold_fraction, self.silver_fraction)
    }

    /// Class draw for burst (flash-crowd) traffic, from the flash mix.
    fn sample_burst_class<R: Rng>(&self, rng: &mut R) -> SlaClass {
        if let TrafficShape::Modulated(Modulation { flash: Some(f), .. }) = &self.shape {
            pick_class(rng, f.gold_fraction, f.silver_fraction)
        } else {
            self.sample_class_with(rng)
        }
    }

    fn sample_lifetime<R: Rng>(&self, rng: &mut R) -> Seconds {
        match self.lifetimes {
            LifetimeModel::Exponential => {
                Seconds::new(exponential(rng, self.mean_lifetime.as_secs()))
            }
            LifetimeModel::BoundedPareto { alpha, min, max } => {
                // Inverse CDF of the bounded Pareto on [min, max]:
                // x = L · (1 − U·(1 − (L/H)^α))^(−1/α), U ∈ [0, 1).
                let u: f64 = rng.gen();
                let l = min.as_secs();
                let ratio = (l / max.as_secs()).powf(alpha);
                Seconds::new(l * (1.0 - u * (1.0 - ratio)).powf(-1.0 / alpha))
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

/// Statistics of one driven interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Arrivals offered to the scheduler.
    pub offered: u64,
    /// Arrivals successfully placed.
    pub placed: u64,
    /// VMs terminated (lifetime expired).
    pub terminated: u64,
    /// Tracked placements lost to evictions (crash recovery that found
    /// no healthy capacity, or proactive moves whose relaunch failed).
    pub evicted: u64,
}

/// The stream driver: owns the live-placement lifetimes.
#[derive(Debug, Clone)]
pub struct StreamDriver {
    config: VmStream,
    live: Vec<(Placement, Seconds)>,
    stats: StreamStats,
    seed: u64,
    tick: u64,
}

impl StreamDriver {
    /// Creates a driver with a deterministic seed. Arrival draws derive
    /// from per-tick sub-streams of `seed` (see [`arrival_seed`]), so a
    /// driven run is reproducible tick-by-tick.
    #[must_use]
    pub fn new(config: VmStream, seed: u64) -> Self {
        StreamDriver { config, live: Vec::new(), stats: StreamStats::default(), seed, tick: 0 }
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Live (stream-tracked) placements.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Drives one interval: terminate expired guests, then offer new
    /// arrivals, then tick the cluster and reconcile its feedback —
    /// crashed nodes run failure-driven recovery, and placements the
    /// cluster evicted (crash recovery or failed proactive relaunches)
    /// leave the live table immediately instead of lingering until
    /// their lifetime expires and overstating `live_count`.
    pub fn drive(&mut self, cluster: &mut Cluster, duration: Seconds) {
        // --- Departures, keyed by stable placement id so a VM that was
        // migrated (new node, new per-node VmId) still terminates.
        let mut survivors = Vec::with_capacity(self.live.len());
        for (placement, mut remaining) in self.live.drain(..) {
            if remaining <= duration {
                if cluster.terminate_by_id(placement.id) {
                    self.stats.terminated += 1;
                }
            } else {
                remaining = remaining - duration;
                survivors.push((placement, remaining));
            }
        }
        self.live = survivors;

        // --- Arrivals, from this tick's sub-stream, at the rack's
        // capacity-scaled rate.
        let nodes = cluster.nodes().len();
        for arrival in self.config.tick_arrivals_scaled(self.seed, self.tick, duration, nodes) {
            self.stats.offered += 1;
            if let Some(placement) = cluster.submit(arrival.config, arrival.class) {
                self.stats.placed += 1;
                self.live.push((placement, arrival.lifetime));
            }
        }
        self.tick += 1;

        // --- Advance the cluster and reconcile its eviction feedback.
        let report = cluster.tick(duration);
        let mut lost: Vec<_> = report.evicted.iter().map(|p| p.id).collect();
        let mut crashed: Vec<NodeId> = Vec::new();
        for (node_id, _event) in &report.crashes {
            if !crashed.contains(node_id) {
                crashed.push(*node_id);
            }
        }
        for node_id in crashed {
            let recovery = cluster.recover_from_crash(node_id);
            lost.extend(recovery.evicted.iter().map(|p| p.id));
        }
        if !lost.is_empty() {
            let stats = &mut self.stats;
            self.live.retain(|(p, _)| {
                let evicted = lost.contains(&p.id);
                if evicted {
                    stats.evicted += 1;
                }
                !evicted
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;

    #[test]
    fn stream_churns_vms_through_the_cluster() {
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(3), 7);
        let mut driver = StreamDriver::new(VmStream::edge_site(), 7);
        for _ in 0..300 {
            driver.drive(&mut cluster, Seconds::new(5.0));
        }
        let s = driver.stats();
        assert!(s.offered > 40, "offered {}", s.offered);
        assert!(s.placed > 0 && s.placed <= s.offered);
        assert!(s.terminated > 0, "lifetimes must expire during the run");
        // Steady state: the live population stays bounded by capacity.
        assert!(driver.live_count() < 60);
    }

    #[test]
    fn placement_rate_degrades_gracefully_under_overload() {
        let overloaded = VmStream {
            arrival_rate: 0.5,
            mean_lifetime: Seconds::new(600.0),
            template: VmConfig::ldbc_benchmark(),
            ..VmStream::edge_site()
        };
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(2), 9);
        let mut driver = StreamDriver::new(overloaded, 9);
        for _ in 0..120 {
            driver.drive(&mut cluster, Seconds::new(5.0));
        }
        let s = driver.stats();
        assert!(s.placed < s.offered, "an overloaded site must reject some arrivals");
        assert!(cluster.fleet_metrics().rejected > 0);
        // But what was placed keeps running: no crashes from churn alone.
        assert_eq!(cluster.fleet_metrics().mean_availability, 1.0);
    }

    #[test]
    fn tick_arrivals_are_pure_and_order_independent() {
        let s = VmStream::datacenter();
        let forward: Vec<_> = (0..50).map(|t| s.tick_arrivals(9, t, Seconds::new(5.0))).collect();
        let backward: Vec<_> =
            (0..50).rev().map(|t| s.tick_arrivals(9, t, Seconds::new(5.0))).collect();
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
    fn driver_is_deterministic() {
        let run = |seed: u64| {
            let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(2), seed);
            let mut driver = StreamDriver::new(VmStream::edge_site(), seed);
            for _ in 0..50 {
                driver.drive(&mut cluster, Seconds::new(5.0));
            }
            driver.stats()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn per_node_rate_scales_arrivals_with_rack_size() {
        let s = VmStream { arrival_rate: 0.0, per_node_rate: 0.01, ..VmStream::datacenter() };
        let count = |nodes: usize| -> usize {
            (0..60).map(|t| s.tick_arrivals_scaled(11, t, Seconds::new(5.0), nodes).len()).sum()
        };
        let small = count(64);
        let big = count(1024);
        // 64 nodes → 0.64/s ≈ 192 arrivals over 300 s; 1024 → 16×.
        assert!((120..=280).contains(&small), "64-node rack drew {small}");
        assert!(big > 10 * small, "1024-node rack must draw ~16× more, got {big} vs {small}");
        // nodes = 0 keeps the capacity-independent rate (here zero).
        assert_eq!(count(0), 0, "zero effective rate must draw nothing");
    }

    #[test]
    fn flash_crowds_spike_and_decay_deterministically() {
        let s = VmStream::flash_crowd();
        s.validate().expect("preset is valid");
        // Scan a few hours for the seeded burst schedule: rates must
        // spike past the diurnal ceiling and return to it.
        let base = s.effective_rate(256);
        let ceiling = base * 1.26; // diurnal amplitude 0.25 + margin
        let rates: Vec<f64> =
            (0..2_000).map(|t| s.rate_at(77, 256, Seconds::new(t as f64 * 10.0))).collect();
        let peak = rates.iter().cloned().fold(0.0, f64::max);
        assert!(peak > 2.0 * base, "bursts must spike the rate, peak {peak} vs base {base}");
        let quiet = rates.iter().filter(|r| **r < ceiling).count();
        assert!(quiet > rates.len() / 3, "bursts must decay back below the diurnal ceiling");
        // Pure function of (seed, t): the schedule replays byte-for-byte.
        for (i, r) in rates.iter().enumerate() {
            assert_eq!(*r, s.rate_at(77, 256, Seconds::new(i as f64 * 10.0)));
        }
        // A different seed draws a different burst schedule.
        let other: Vec<f64> =
            (0..2_000).map(|t| s.rate_at(78, 256, Seconds::new(t as f64 * 10.0))).collect();
        assert_ne!(rates, other, "the burst schedule must derive from the stream seed");
    }

    #[test]
    fn bounded_pareto_lifetimes_stay_in_bounds_and_skew_short() {
        let s = VmStream::flash_crowd();
        let lifetimes: Vec<f64> = (0..200)
            .flat_map(|t| s.tick_arrivals_scaled(5, t, Seconds::new(5.0), 256))
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
        let mut s = VmStream::flash_crowd();
        // Make bursts near-certain and strong so the burst mix dominates.
        if let TrafficShape::Modulated(m) = &mut s.shape {
            let f = m.flash.as_mut().unwrap();
            f.probability = 1.0;
            f.peak_multiplier = 20.0;
            f.decay = Seconds::new(600.0);
        }
        let arrivals: Vec<Arrival> =
            (0..120).flat_map(|t| s.tick_arrivals_scaled(3, t, Seconds::new(5.0), 256)).collect();
        let gold = arrivals.iter().filter(|a| a.class == SlaClass::Gold).count();
        let total = arrivals.len();
        assert!(total > 1_000, "burst traffic must dominate, got {total}");
        // Base mix is 20 % gold; the flash mix is 5 %. With bursts
        // carrying ~95 % of traffic the blend must sit well below 15 %.
        assert!(
            (gold as f64) < 0.15 * total as f64,
            "burst mix must pull gold down: {gold}/{total}"
        );
    }

    #[test]
    fn class_mix_constructor_rejects_bronze_starvation() {
        assert!(VmStream::datacenter().with_class_mix(0.8, 0.4).is_err());
        assert!(VmStream::datacenter().with_class_mix(-0.1, 0.3).is_err());
        let ok = VmStream::datacenter().with_class_mix(0.5, 0.5).expect("valid mix");
        assert_eq!(ok.gold_fraction, 0.5);
        assert!(VmStream::datacenter().validate().is_ok());
        assert!(VmStream::edge_site().validate().is_ok());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "invalid stream")]
    fn sampling_an_overfull_mix_panics_in_debug() {
        let bad = VmStream { gold_fraction: 0.8, silver_fraction: 0.4, ..VmStream::datacenter() };
        let _ = bad.tick_arrivals(1, 0, Seconds::new(5.0));
    }

    #[test]
    fn validate_rejects_degenerate_knobs() {
        let mut s = VmStream::flash_crowd();
        if let TrafficShape::Modulated(m) = &mut s.shape {
            m.diurnal_amplitude = 1.5;
        }
        assert!(s.validate().is_err(), "amplitude ≥ 1 would drive the rate negative");
        let s = VmStream {
            lifetimes: LifetimeModel::BoundedPareto {
                alpha: 1.0,
                min: Seconds::new(100.0),
                max: Seconds::new(50.0),
            },
            ..VmStream::datacenter()
        };
        assert!(s.validate().is_err(), "inverted pareto bounds");
        let s = VmStream { per_node_rate: -1.0, ..VmStream::datacenter() };
        assert!(s.validate().is_err(), "negative rates");
    }

    #[test]
    fn crash_evictions_reconcile_the_live_table() {
        // A single-node site: when the node crashes, recovery has
        // nowhere to migrate, so every live placement is evicted. The
        // driver must learn this from the cluster's feedback instead of
        // carrying the placements until their lifetimes expire.
        let stream = VmStream {
            arrival_rate: 0.5,
            mean_lifetime: Seconds::new(3_600.0),
            template: VmConfig::idle_guest(),
            ..VmStream::edge_site()
        };
        let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(1), 21);
        let mut driver = StreamDriver::new(stream, 21);
        for _ in 0..4 {
            driver.drive(&mut cluster, Seconds::new(5.0));
        }
        assert!(driver.live_count() > 0, "long-lived guests must accumulate");

        // Undervolt the only node deep into its crash region.
        let deep = cluster.nodes()[0].hypervisor.node().part().offset_mv(0.20);
        cluster.nodes_mut()[0].hypervisor.node_mut().msr.set_voltage_offset_all(deep).unwrap();

        let mut crashed = false;
        for _ in 0..60 {
            driver.drive(&mut cluster, Seconds::new(5.0));
            // The live table must always agree with the cluster's
            // tracked placements — stale evicted entries are the bug.
            assert_eq!(
                driver.live_count(),
                cluster.placements().len(),
                "driver live table diverged from the cluster"
            );
            if driver.stats().evicted > 0 {
                crashed = true;
                break;
            }
        }
        assert!(crashed, "a 20 % undervolt must crash and evict within 60 ticks");
        assert_eq!(driver.live_count(), 0, "a 1-node site cannot absorb its own crash");
    }
}
