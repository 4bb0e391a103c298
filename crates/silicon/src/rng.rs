//! Seeded samplers for the statistical models.
//!
//! `rand` 0.8 ships only uniform distributions; the normal, exponential and
//! Poisson samplers the models need are implemented here so that the
//! workspace stays within its declared dependency set. All samplers take
//! `&mut impl Rng` so experiments remain reproducible from a single seed.

use rand::Rng;

/// Samples a normal deviate `N(mean, sigma²)` via the Box–Muller
/// transform.
///
/// # Panics
///
/// Panics if `sigma` is negative or non-finite.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use uniserver_silicon::rng::normal;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let x = normal(&mut rng, 10.0, 0.0);
/// assert_eq!(x, 10.0); // zero sigma is deterministic
/// ```
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    assert!(sigma.is_finite() && sigma >= 0.0, "sigma must be finite and non-negative, got {sigma}");
    if sigma == 0.0 {
        return mean;
    }
    // Box–Muller; u1 in (0,1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + sigma * z
}

/// Advances `rng` exactly as [`normal`] with the same `sigma` would,
/// without computing the deviate: for callers whose draw is provably
/// unread but whose stream position must not move.
///
/// # Panics
///
/// Panics if `sigma` is negative or non-finite.
pub fn skip_normal<R: Rng + ?Sized>(rng: &mut R, sigma: f64) {
    assert!(sigma.is_finite() && sigma >= 0.0, "sigma must be finite and non-negative, got {sigma}");
    if sigma == 0.0 {
        return;
    }
    let _: f64 = rng.gen();
    let _: f64 = rng.gen();
}

/// Box–Muller radii a bounded skip tests a [`normal`] draw against,
/// smallest first: the uniform `u1` of a draw bounds its standard
/// deviate by `|z| ≤ sqrt(−2 ln u1)`, so `u1 ≥ exp(−r²/2)` gives
/// `|z| ≤ r`. The last radius covers every `u1` a 53-bit uniform can
/// produce (`u1 ≥ 2⁻⁵³`, so `|z| < 8.6`).
pub const NORMAL_RADII: [f64; 5] = [1.5, 2.0, 3.0, 4.5, 9.0];

/// `exp(−r²/2)` for each of [`NORMAL_RADII`].
const RADIUS_FLOORS: [f64; 5] = [
    0.324_652_467_358_349_74,
    0.135_335_283_236_612_7,
    0.011_108_996_538_242_306,
    4.006_529_739_295_107e-5,
    2.576_757_109_154_981e-18,
];

/// Added to a radius before it bounds a deviate, so libm rounding in
/// `ln` and `sqrt` near a floor can never carry `|z|` past the bound.
const RADIUS_SLACK: f64 = 1e-9;

/// Draws the two uniforms of one [`normal`] with the same `sigma`
/// without transforming them, and returns the index into
/// [`NORMAL_RADII`] of the smallest radius bounding the draw's standard
/// deviate, or `None` if none does. Zero `sigma` draws nothing and
/// returns the first radius (the deviate is never read).
///
/// # Panics
///
/// Panics if `sigma` is negative or non-finite.
pub fn normal_radius<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> Option<usize> {
    assert!(sigma.is_finite() && sigma >= 0.0, "sigma must be finite and non-negative, got {sigma}");
    if sigma == 0.0 {
        return Some(0);
    }
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let _: f64 = rng.gen();
    RADIUS_FLOORS.iter().position(|&floor| u1 >= floor)
}

/// The bound on `|z|` a [`normal_radius`] index guarantees: the radius
/// plus a 1e-9 slack, so libm rounding in `ln` and `sqrt` near a floor
/// can never carry `|z|` past it.
#[must_use]
pub fn deviate_bound(radius: usize) -> f64 {
    NORMAL_RADII[radius] + RADIUS_SLACK
}

/// Samples a normal deviate truncated to `[lo, hi]` by rejection (falls
/// back to clamping after 64 rejections, which only triggers for extreme
/// truncations).
///
/// # Panics
///
/// Panics if `lo > hi` or `sigma` is negative.
pub(crate) fn truncated_normal<R: Rng + ?Sized>(
    rng: &mut R,
    mean: f64,
    sigma: f64,
    lo: f64,
    hi: f64,
) -> f64 {
    assert!(lo <= hi, "invalid truncation interval [{lo}, {hi}]");
    for _ in 0..64 {
        let x = normal(rng, mean, sigma);
        if (lo..=hi).contains(&x) {
            return x;
        }
    }
    normal(rng, mean, sigma).clamp(lo, hi)
}

/// Samples a Poisson-distributed count with the given rate.
///
/// Uses Knuth's product method for small rates and a rounded-normal
/// approximation above 30, which is accurate to within the model noise.
///
/// # Panics
///
/// Panics if `lambda` is negative or non-finite.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    PoissonLimit::default().sample(rng, lambda)
}

/// [`poisson`] for a caller that samples one recurring rate: it keeps
/// the product method's zero limit `exp(−λ)`, keyed on the bits of λ,
/// so a repeated rate costs no `exp`. It draws exactly as [`poisson`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonLimit {
    lambda_bits: u64,
    limit: f64,
}

impl Default for PoissonLimit {
    /// The limit of λ = 0, `exp(−0) = 1`.
    fn default() -> Self {
        PoissonLimit { lambda_bits: 0, limit: 1.0 }
    }
}

impl PoissonLimit {
    /// Samples a Poisson count with rate `lambda`, as [`poisson`] does.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or non-finite.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R, lambda: f64) -> u64 {
        assert!(lambda.is_finite() && lambda >= 0.0, "lambda must be finite and non-negative, got {lambda}");
        if lambda == 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            let x = normal(rng, lambda, lambda.sqrt());
            return x.round().max(0.0) as u64;
        }
        if self.lambda_bits != lambda.to_bits() {
            *self = PoissonLimit { lambda_bits: lambda.to_bits(), limit: (-lambda).exp() };
        }
        let mut product: f64 = rng.gen();
        let mut count = 0u64;
        while product > self.limit {
            product *= rng.gen::<f64>();
            count += 1;
        }
        count
    }
}

/// SplitMix64 finalizer: a cheap stateless mixer for deriving
/// independent seeds/words from an index (also the xoshiro seeding
/// recommended by its authors). The single workspace copy — pattern
/// generators and the per-node rack draws all key their streams off it.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent seed for item `index` of a family keyed by
/// `family_seed` — the SplitMix64-finalized derivation the orchestrator
/// uses for per-node silicon, so shard boundaries and thread schedules
/// can never shift a node's identity.
#[must_use]
pub fn indexed_seed(family_seed: u64, index: usize) -> u64 {
    splitmix64(family_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Sub-stream salts for the seeded per-node draws. Each draw gets its
/// own SplitMix64 sub-stream off the node (or scenario) seed, so adding
/// a draw never shifts another one. These are the single workspace
/// copies: the cluster's part mix, the orchestrator's ambient spread,
/// the failure lifecycle and the fault campaigns each salt with their
/// own constant here, so no two crates can collide on a sub-stream.
pub mod salt {
    /// Part draw from a weighted mix.
    pub const PART: u64 = 0x9A97_1BD5_2C1E_0FF1;
    /// Ambient-temperature spread.
    pub(crate) const AMBIENT: u64 = 0x1F83_D9AB_FB41_BD6B;
    /// Mean-time-to-repair draw for a crashed node's offline window.
    pub const MTTR: u64 = 0x5BE0_CD19_137E_2179;
    /// Independent per-node chaos crash draws.
    pub const CHAOS: u64 = 0x510E_527F_ADE6_82D1;
    /// Rack/PSU blast-radius start draw of a correlated chaos failure.
    pub const CHAOS_RACK: u64 = 0x6A09_E667_F3BC_C908;
    /// Gray-failure onset + duration draws (degraded, not crashed).
    pub const GRAY: u64 = 0xBB67_AE85_84CA_A73B;
    /// Health-watchdog probe draws against a possibly-degraded node.
    pub const PROBE: u64 = 0xA54F_F53A_5F1D_36F1;
}

/// Maps a 64-bit word onto `[0, 1)` using its top 53 bits — the single
/// workspace copy of the mapping every seeded per-node knob (part draw,
/// ambient spread) uses, so those draws cannot drift apart.
#[must_use]
pub fn unit_fraction(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// The per-node ambient-temperature offset (°C) for a node seed and a
/// uniform spread half-width — the single workspace copy of the draw,
/// so a node's ambient is a pure function of its seed.
#[must_use]
pub fn ambient_offset(node_seed: u64, half_width: f64) -> f64 {
    (2.0 * unit_fraction(splitmix64(node_seed ^ salt::AMBIENT)) - 1.0) * half_width
}

/// Picks an index from `weights` proportionally to the weights, using a
/// single 64-bit word of randomness (e.g. a [`splitmix64`] draw). A pure
/// function of `(x, weights)`, so the seeded cluster build can draw
/// per-node parts without threading an RNG through.
///
/// # Panics
///
/// Panics if `weights` is empty or does not sum to a positive total.
#[must_use]
pub fn weighted_pick(x: u64, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "weighted_pick needs at least one weight");
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must sum to a positive total, got {total}");
    let mut r = unit_fraction(x) * total;
    for (i, w) in weights.iter().enumerate() {
        if r < *w {
            return i;
        }
        r -= w;
    }
    weights.len() - 1
}

/// Samples `true` with probability `p` (clamped into `[0, 1]`).
pub fn bernoulli<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    rng.gen::<f64>() < p.clamp(0.0, 1.0)
}

/// Samples an exponential deviate with the given mean.
///
/// # Panics
///
/// Panics if `mean` is non-positive or non-finite.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    assert!(mean.is_finite() && mean > 0.0, "mean must be finite and positive, got {mean}");
    let u: f64 = 1.0 - rng.gen::<f64>();
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5EED)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 40_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut r, 3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let mut r = rng();
        for _ in 0..2_000 {
            let x = truncated_normal(&mut r, 0.0, 1.0, -0.5, 0.5);
            assert!((-0.5..=0.5).contains(&x));
        }
    }

    #[test]
    fn poisson_small_rate_mean() {
        let mut r = rng();
        let n = 30_000;
        let total: u64 = (0..n).map(|_| poisson(&mut r, 2.5)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn poisson_large_rate_uses_normal_approx() {
        let mut r = rng();
        let n = 10_000;
        let total: u64 = (0..n).map(|_| poisson(&mut r, 500.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 500.0).abs() < 2.0, "mean {mean}");
    }

    /// Knuth's product method with the limit taken afresh on every
    /// call, and the normal approximation above 30.
    fn product_method(rng: &mut StdRng, lambda: f64) -> u64 {
        if lambda == 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            return normal(rng, lambda, lambda.sqrt()).round().max(0.0) as u64;
        }
        let limit = (-lambda).exp();
        let mut product: f64 = rng.gen();
        let mut count = 0u64;
        while product > limit {
            product *= rng.gen::<f64>();
            count += 1;
        }
        count
    }

    #[test]
    fn a_kept_limit_draws_like_the_product_method() {
        // Zero, tiny rates, rates around the normal cutoff, and repeats
        // of each (the memo hits) in between changes (the misses).
        let tiny = 1e-300;
        let rates = [
            0.0, tiny, tiny, 0.0, tiny, 1e-9, 1e-9, 0.7, 0.7, 29.999_999, 30.0, 30.0,
            30.000_000_1, 30.0, 29.999_999, 0.0, 0.7, 450.0, 30.0,
        ];
        let mut memo = PoissonLimit::default();
        let (mut kept, mut fresh, mut plain) = (rng(), rng(), rng());
        for _ in 0..50 {
            for lambda in rates {
                let got = memo.sample(&mut kept, lambda);
                assert_eq!(got, poisson(&mut plain, lambda), "poisson at {lambda}");
                assert_eq!(got, product_method(&mut fresh, lambda), "count at {lambda}");
                assert_eq!(kept, fresh, "stream position at {lambda}");
            }
        }
    }

    #[test]
    fn poisson_zero_rate_is_zero() {
        let mut r = rng();
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn weighted_pick_tracks_weights() {
        let weights = [6.0, 1.0, 1.0];
        let mut counts = [0usize; 3];
        for i in 0..8_000u64 {
            counts[weighted_pick(splitmix64(i), &weights)] += 1;
        }
        assert!(counts[0] > counts[1] + counts[2], "6:1:1 must be dominated: {counts:?}");
        assert!(counts[1] > 500 && counts[2] > 500, "minor shares must appear: {counts:?}");
        // Pure function: the same word always picks the same index.
        assert_eq!(weighted_pick(12345, &weights), weighted_pick(12345, &weights));
    }

    #[test]
    #[should_panic(expected = "positive total")]
    fn weighted_pick_rejects_zero_total() {
        let _ = weighted_pick(1, &[0.0, 0.0]);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = rng();
        assert!((0..100).all(|_| !bernoulli(&mut r, 0.0)));
        assert!((0..100).all(|_| bernoulli(&mut r, 1.0)));
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng();
        let n = 40_000;
        let mean = (0..n).map(|_| exponential(&mut r, 4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn skip_normal_mirrors_normal_draw_for_draw() {
        for sigma in [0.0, 0.5, 3.0] {
            let mut drawn = rng();
            let mut skipped = rng();
            for _ in 0..16 {
                let _ = normal(&mut drawn, 1.0, sigma);
                skip_normal(&mut skipped, sigma);
                assert_eq!(drawn, skipped, "sigma {sigma}: stream positions diverged");
            }
        }
        // Zero sigma draws nothing at all.
        let mut r = rng();
        skip_normal(&mut r, 0.0);
        assert_eq!(r, rng());
    }

    #[test]
    #[should_panic(expected = "sigma must be finite")]
    fn skip_normal_rejects_negative_sigma() {
        skip_normal(&mut rng(), -1.0);
    }

    #[test]
    fn radius_floors_are_exp_of_minus_half_r_squared() {
        for (r, floor) in NORMAL_RADII.iter().zip(RADIUS_FLOORS) {
            assert_eq!(floor, (-(r * r) / 2.0).exp(), "floor of radius {r}");
        }
        assert!(RADIUS_FLOORS.windows(2).all(|w| w[0] > w[1]), "radii ascend");
        // The last radius admits the smallest u1 a 53-bit uniform yields.
        assert!(1.0 - (1.0 - f64::EPSILON / 2.0) >= RADIUS_FLOORS[NORMAL_RADII.len() - 1]);
    }

    #[test]
    fn radius_bounds_hold_one_ulp_either_side_of_each_floor() {
        for (i, floor) in RADIUS_FLOORS.into_iter().enumerate() {
            for u1 in [f64::from_bits(floor.to_bits() - 1), floor, f64::from_bits(floor.to_bits() + 1)] {
                let radius = (-2.0 * u1.ln()).sqrt();
                assert!(radius <= deviate_bound(i), "u1 {u1:e}: radius {radius} past {}", deviate_bound(i));
            }
        }
    }

    #[test]
    fn normal_radius_mirrors_normal_and_bounds_its_deviate() {
        for sigma in [0.5, 3.0] {
            let mut drawn = rng();
            let mut bounded = rng();
            let mut used = [0usize; NORMAL_RADII.len()];
            for _ in 0..20_000 {
                let z = (normal(&mut drawn, 0.0, sigma) / sigma).abs();
                let radius = normal_radius(&mut bounded, sigma).expect("the last radius admits every draw");
                assert_eq!(drawn, bounded, "sigma {sigma}: stream positions diverged");
                assert!(z <= deviate_bound(radius), "|z| {z} past radius {}", NORMAL_RADII[radius]);
                used[radius] += 1;
            }
            assert!(used[..4].iter().all(|&n| n > 0), "the common radii are all reached: {used:?}");
        }
        // Zero sigma draws nothing at all.
        let mut r = rng();
        assert_eq!(normal_radius(&mut r, 0.0), Some(0));
        assert_eq!(r, rng());
    }

    #[test]
    fn determinism_from_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let xs: Vec<f64> = (0..16).map(|_| normal(&mut a, 0.0, 1.0)).collect();
        let ys: Vec<f64> = (0..16).map(|_| normal(&mut b, 0.0, 1.0)).collect();
        assert_eq!(xs, ys);
    }
}
