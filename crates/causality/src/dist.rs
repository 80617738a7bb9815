//! Special functions and probability distributions.
//!
//! The F-test at the heart of the Granger causality check needs the
//! cumulative distribution function of the F distribution, which in turn is
//! a regularized incomplete beta function. All of it is implemented here:
//! log-gamma (Lanczos approximation), the regularized incomplete beta
//! function (continued fraction) and the F distribution's CDF and survival
//! function.

/// Natural logarithm of the gamma function (Lanczos approximation, g = 7).
///
/// Accurate to roughly 1e-13 over the positive real axis.
pub fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients (g=7, n=9).
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.5203681218851,
        -1259.1392167224028,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507343278686905,
        -0.13857109526572012,
        9.984_369_578_019_572e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Natural logarithm of the beta function `B(a, b)`.
pub fn ln_beta(a: f64, b: f64) -> f64 {
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// Regularized incomplete beta function `I_x(a, b)` computed with the
/// continued-fraction expansion (Numerical Recipes `betacf`).
///
/// Returns values clamped to `[0, 1]`; `NaN` inputs yield `NaN`.
pub fn incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    if x.is_nan() || a.is_nan() || b.is_nan() {
        return f64::NAN;
    }
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = a * x.ln() + b * (1.0 - x).ln() - ln_beta(a, b);
    // Use the symmetry relation to keep the continued fraction convergent;
    // both branches evaluate the continued fraction directly (no recursion),
    // so boundary inputs cannot loop.
    if x < (a + 1.0) / (a + b + 2.0) {
        (ln_front.exp() * beta_continued_fraction(a, b, x) / a).clamp(0.0, 1.0)
    } else {
        (1.0 - ln_front.exp() * beta_continued_fraction(b, a, 1.0 - x) / b).clamp(0.0, 1.0)
    }
}

/// Continued fraction for the incomplete beta function (Lentz's algorithm).
fn beta_continued_fraction(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-14;
    const TINY: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m_f = m as f64;
        let m2 = 2.0 * m_f;
        // Even step.
        let aa = m_f * (b - m_f) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m_f) * (qab + m_f) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// CDF of the F distribution with `d1` and `d2` degrees of freedom.
///
/// Returns 0 for non-positive `f`; degrees of freedom must be positive
/// (non-positive values yield `NaN`).
pub fn f_cdf(f: f64, d1: f64, d2: f64) -> f64 {
    if d1 <= 0.0 || d2 <= 0.0 {
        return f64::NAN;
    }
    if f <= 0.0 {
        return 0.0;
    }
    let x = d1 * f / (d1 * f + d2);
    incomplete_beta(d1 / 2.0, d2 / 2.0, x)
}

/// Survival function (upper tail probability) of the F distribution.
pub fn f_sf(f: f64, d1: f64, d2: f64) -> f64 {
    1.0 - f_cdf(f, d1, d2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        close(ln_gamma(1.0), 0.0, 1e-12);
        close(ln_gamma(2.0), 0.0, 1e-12);
        close(ln_gamma(5.0), (24.0f64).ln(), 1e-10); // gamma(5) = 4! = 24
        close(ln_gamma(0.5), (std::f64::consts::PI.sqrt()).ln(), 1e-10);
        // ln(Γ(10.5)) = ln(9.5 · 8.5 · … · 0.5 · √π)
        close(ln_gamma(10.5), 13.940_625_219_4, 1e-6);
    }

    #[test]
    fn incomplete_beta_boundaries() {
        assert_eq!(incomplete_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(incomplete_beta(2.0, 3.0, 1.0), 1.0);
        // Symmetric case I_{0.5}(a, a) = 0.5.
        close(incomplete_beta(4.0, 4.0, 0.5), 0.5, 1e-10);
    }

    #[test]
    fn incomplete_beta_uniform_special_case() {
        // I_x(1, 1) = x.
        for x in [0.1, 0.25, 0.5, 0.9] {
            close(incomplete_beta(1.0, 1.0, x), x, 1e-10);
        }
        // I_x(1, b) = 1 - (1-x)^b.
        close(incomplete_beta(1.0, 3.0, 0.3), 1.0 - 0.7f64.powi(3), 1e-10);
    }

    #[test]
    fn f_cdf_matches_reference_values() {
        // Reference values from standard F tables / scipy.stats.f.cdf.
        close(f_cdf(1.0, 1.0, 1.0), 0.5, 1e-9);
        close(f_cdf(161.4476, 1.0, 1.0), 0.95, 1e-4);
        close(f_cdf(4.964603, 1.0, 10.0), 0.95, 1e-4);
        close(f_cdf(3.098391, 3.0, 20.0), 0.95, 1e-4);
        close(f_cdf(2.533555, 5.0, 30.0), 0.95, 1e-4);
    }

    #[test]
    fn f_sf_is_complement_of_cdf() {
        for f in [0.5, 1.0, 2.5, 10.0] {
            close(f_sf(f, 4.0, 17.0), 1.0 - f_cdf(f, 4.0, 17.0), 1e-12);
        }
        assert_eq!(f_cdf(-1.0, 2.0, 2.0), 0.0);
        assert!(f_cdf(1.0, 0.0, 2.0).is_nan());
    }

    #[test]
    fn cdfs_are_monotone() {
        let mut prev = 0.0;
        for i in 0..100 {
            let f = i as f64 * 0.2;
            let v = f_cdf(f, 3.0, 12.0);
            assert!(v >= prev - 1e-12);
            prev = v;
        }
    }
}
