//! Seeded samplers for the statistical models.
//!
//! `rand` 0.8 ships only uniform distributions; the normal, lognormal and
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

/// Samples a normal deviate truncated to `[lo, hi]` by rejection (falls
/// back to clamping after 64 rejections, which only triggers for extreme
/// truncations).
///
/// # Panics
///
/// Panics if `lo > hi` or `sigma` is negative.
pub fn truncated_normal<R: Rng + ?Sized>(
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

/// Samples a half-normal deviate `|N(0, sigma²)|`.
pub fn half_normal<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    normal(rng, 0.0, sigma).abs()
}

/// Samples a lognormal deviate: `exp(N(mu_ln, sigma_ln²))`.
///
/// `mu_ln`/`sigma_ln` are the parameters of the underlying normal (natural
/// log scale), matching how the DRAM retention literature reports fits.
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu_ln: f64, sigma_ln: f64) -> f64 {
    normal(rng, mu_ln, sigma_ln).exp()
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
    assert!(lambda.is_finite() && lambda >= 0.0, "lambda must be finite and non-negative, got {lambda}");
    if lambda == 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        let x = normal(rng, lambda, lambda.sqrt());
        return x.round().max(0.0) as u64;
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

/// SplitMix64 finalizer: a cheap stateless mixer for deriving
/// independent seeds/words from an index (also the xoshiro seeding
/// recommended by its authors). The single workspace copy — pattern
/// generators and the fleet driver both key their streams off it.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent seed for item `index` of a family keyed by
/// `family_seed` — the SplitMix64-finalized derivation the fleet and
/// cluster drivers use for per-node silicon, so shard boundaries and
/// thread schedules can never shift a node's identity.
#[must_use]
pub fn indexed_seed(family_seed: u64, index: usize) -> u64 {
    splitmix64(family_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Sub-stream salts for the per-node heterogeneity knobs. Each knob gets
/// its own SplitMix64 sub-stream off the node seed, so adding a knob
/// never shifts another knob's draw. These are the single workspace
/// copies — the fleet driver, the cluster's part mix and the
/// orchestrator's ambient spread all salt with the same constants, which
/// is what keeps "a rack and a fleet built from one seed agree on every
/// per-node draw" true across crates.
pub mod salt {
    /// Part draw from a weighted mix.
    pub const PART: u64 = 0x9A97_1BD5_2C1E_0FF1;
    /// Guest-set (workload mix) pick.
    pub const MIX: u64 = 0x3C6E_F372_FE94_F82B;
    /// Ambient-temperature spread.
    pub const AMBIENT: u64 = 0x1F83_D9AB_FB41_BD6B;
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
/// ambient spread) uses, so fleet and cluster drivers cannot drift.
#[must_use]
pub fn unit_fraction(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// The per-node ambient-temperature offset (°C) for a node seed and a
/// uniform spread half-width — the single workspace copy of the draw,
/// so the fleet driver and the cluster orchestrator always hand the
/// same node the same ambient.
#[must_use]
pub fn ambient_offset(node_seed: u64, half_width: f64) -> f64 {
    (2.0 * unit_fraction(splitmix64(node_seed ^ salt::AMBIENT)) - 1.0) * half_width
}

/// Picks an index from `weights` proportionally to the weights, using a
/// single 64-bit word of randomness (e.g. a [`splitmix64`] draw). A pure
/// function of `(x, weights)`, so seeded fleet/cluster drivers can draw
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
    fn half_normal_is_non_negative() {
        let mut r = rng();
        assert!((0..2_000).all(|_| half_normal(&mut r, 2.0) >= 0.0));
    }

    #[test]
    fn lognormal_median() {
        let mut r = rng();
        let n = 40_000;
        let mut xs: Vec<f64> = (0..n).map(|_| lognormal(&mut r, 1.0, 0.5)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2];
        // Median of a lognormal is exp(mu).
        assert!((median - 1.0f64.exp()).abs() < 0.1, "median {median}");
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
    fn determinism_from_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let xs: Vec<f64> = (0..16).map(|_| normal(&mut a, 0.0, 1.0)).collect();
        let ys: Vec<f64> = (0..16).map(|_| normal(&mut b, 0.0, 1.0)).collect();
        assert_eq!(xs, ys);
    }
}
