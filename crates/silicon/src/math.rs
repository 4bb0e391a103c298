//! Special functions used by the statistical models.
//!
//! Implemented locally (rather than pulling a numerics dependency) because
//! only three functions are needed: `erf`, the standard normal CDF and
//! the logistic sigmoid.

/// Error function, via the Abramowitz & Stegun 7.1.26 rational
/// approximation (max absolute error ≈ 1.5e-7, ample for model work).
#[must_use]
pub(crate) fn erf(x: f64) -> f64 {
    // A&S 7.1.26 with symmetry erf(-x) = -erf(x).
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736 + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal cumulative distribution function Φ(z).
///
/// For very negative arguments (deep tail, |z| > 6) the A&S `erf`
/// approximation underflows to 0; the asymptotic expansion
/// `φ(z)/|z| · (1 − 1/z²)` is used instead so tail probabilities like
/// Φ(−6) ≈ 1e-9 — exactly the regime of the paper's DRAM BER — stay
/// accurate.
#[must_use]
pub(crate) fn normal_cdf(z: f64) -> f64 {
    if z < -6.0 {
        // Asymptotic tail: Φ(z) ≈ φ(z)/|z| · (1 − 1/z² + 3/z⁴).
        let pdf = (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt();
        let z2 = z * z;
        (pdf / -z) * (1.0 - 1.0 / z2 + 3.0 / (z2 * z2))
    } else if z > 6.0 {
        1.0 - normal_cdf(-z)
    } else {
        0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
    }
}

/// Logistic sigmoid `1 / (1 + e^(-x))`, used by the predictor-facing
/// failure-probability curves.
///
/// # Examples
///
/// ```
/// use uniserver_silicon::math::sigmoid;
/// assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
/// assert!(sigmoid(10.0) > 0.9999);
/// ```
#[must_use]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_points() {
        // Reference values from tables of erf.
        for (x, want) in [(0.5, 0.5204999), (1.0, 0.8427008), (2.0, 0.9953223), (3.0, 0.9999779)] {
            assert!((erf(x) - want).abs() < 2e-6, "erf({x})");
            assert!((erf(-x) + want).abs() < 2e-6, "erf(-{x})");
        }
    }

    #[test]
    fn cdf_symmetry() {
        for z in [0.1, 0.7, 1.3, 2.5, 4.0] {
            let s = normal_cdf(z) + normal_cdf(-z);
            assert!((s - 1.0).abs() < 1e-6, "symmetry at {z}");
        }
    }

    #[test]
    fn cdf_deep_tail_matches_known_values() {
        // Φ(-6) ≈ 9.866e-10 — the BER regime of the paper's 5 s refresh.
        let p6 = normal_cdf(-6.0);
        assert!((p6 - 9.866e-10).abs() / 9.866e-10 < 0.05, "got {p6}");
        // Φ(-7) ≈ 1.28e-12.
        let p7 = normal_cdf(-7.0);
        assert!((p7 - 1.28e-12).abs() / 1.28e-12 < 0.05, "got {p7}");
    }

    #[test]
    fn sigmoid_is_monotonic_and_bounded() {
        let mut prev = -1.0;
        for i in -50..=50 {
            let y = sigmoid(i as f64 / 5.0);
            assert!(y > prev);
            assert!((0.0..=1.0).contains(&y));
            prev = y;
        }
    }
}
