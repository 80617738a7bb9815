//! Augmented Dickey-Fuller (ADF) unit-root test.
//!
//! "the F-test might find spurious regressions when non-stationary time
//! series are included. Non-stationary time series (e.g., monotonically
//! increasing counters for CPU and network interfaces) can be found using the
//! Augmented Dickey-Fuller test. For these time series, the first difference
//! is taken and then used in the Granger Causality tests." (§3.3)
//!
//! The test regresses `Δy_t` on `y_{t-1}`, a constant and `p` lagged
//! differences, and compares the t-statistic of the `y_{t-1}` coefficient
//! against MacKinnon's 5% critical value for the constant-only
//! specification. The regression is an [`ols::Design`] of contiguous
//! slices of the series and its first difference, fitted like every Granger
//! model.

use crate::ols::{self, Design};
use crate::{CausalityError, Result};
use sieve_timeseries::first_difference;

/// MacKinnon's approximate 5% critical value of the ADF t-statistic for the
/// model with a constant (no trend), asymptotic (large-n) case — the level
/// Sieve tests at.
pub(crate) const CRITICAL_5PCT: f64 = -2.86;

/// Outcome of an ADF test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AdfResult {
    /// The ADF t-statistic of the lagged-level coefficient.
    pub statistic: f64,
    /// Number of lagged difference terms included.
    pub lags: usize,
    /// Number of observations used in the regression.
    pub n_observations: usize,
}

impl AdfResult {
    /// Whether the unit-root null hypothesis is rejected at the 5% level
    /// (i.e. the series is considered stationary).
    pub(crate) fn is_stationary(&self) -> bool {
        self.statistic < CRITICAL_5PCT
    }
}

/// Default number of lagged differences, Schwert's rule of thumb
/// `floor(12 * (n/100)^0.25)` capped to keep enough observations.
///
/// The fourth root is two square roots: `sqrt` is correctly rounded on
/// every IEEE host, where `powf` is the platform libm's. The floored lag
/// agrees with the `powf` form for every `n` up to 2^24 (tested).
pub(crate) fn default_lag_order(n: usize) -> usize {
    if n < 10 {
        return 0;
    }
    let schwert = (12.0 * (n as f64 / 100.0).sqrt().sqrt()).floor() as usize;
    schwert.min(n / 3)
}

/// Runs the ADF test with `lags` lagged difference terms and a constant.
///
/// # Errors
///
/// * [`CausalityError::TooFewObservations`] when the series is too short for
///   the requested lag order.
/// * [`CausalityError::SingularMatrix`] when the regression is degenerate
///   (e.g. a constant series).
pub(crate) fn adf_test(series: &[f64], lags: usize) -> Result<AdfResult> {
    let n = series.len();
    // Need at least lags + a handful of usable rows and more rows than
    // parameters (constant + level + lags).
    let min_obs = lags + 8;
    if n < min_obs {
        return Err(CausalityError::TooFewObservations {
            required: min_obs,
            actual: n,
        });
    }

    // One row per t in lags..n-1:
    //   dy[t] = alpha + gamma * y[t] + sum_j beta_j * dy[t-j] + e
    // so every regressor is a contiguous slice.
    let dy = first_difference(series);
    let mut design = Design::new();
    design.reset(n - 1 - lags);
    design.push_intercept();
    design.push_column(&series[lags..n - 1])?;
    for j in 1..=lags {
        design.push_column(&dy[lags - j..n - 1 - j])?;
    }
    // The coefficient of y_{t-1} is at index 1 (after the intercept).
    let (fit, se) = ols::fit_with_standard_error(&design, &dy[lags..], 1)?;
    if se == 0.0 {
        return Err(CausalityError::SingularMatrix);
    }
    Ok(AdfResult {
        statistic: fit.coefficients[1] / se,
        lags,
        n_observations: fit.n_observations,
    })
}

/// Runs the ADF test with an automatically chosen lag order.
///
/// # Errors
///
/// Same as [`adf_test`]; very short series fall back to lag order 0.
pub(crate) fn adf_test_auto(series: &[f64]) -> Result<AdfResult> {
    let lags = default_lag_order(series.len());
    // If the series is too short for the Schwert order, retry with fewer lags.
    let mut order = lags;
    loop {
        match adf_test(series, order) {
            Ok(r) => return Ok(r),
            // Not enough data or a collinear lag structure at this order:
            // retry with a smaller one (deterministic signals such as pure
            // sinusoids satisfy exact linear recurrences that make high-order
            // designs singular).
            Err(CausalityError::TooFewObservations { .. })
            | Err(CausalityError::SingularMatrix)
                if order > 0 =>
            {
                order /= 2;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Convenience helper: whether `series` is stationary at the 5% level. A
/// series that is too short or degenerate (constant) is reported as
/// non-stationary, matching Sieve's conservative first-difference fallback.
pub(crate) fn is_stationary(series: &[f64]) -> bool {
    adf_test_auto(series).is_ok_and(|r| r.is_stationary())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(i: usize, seed: u64) -> f64 {
        // Mix index and seed with different multipliers so nearby seeds do
        // not produce shifted copies of the same stream.
        let mut s =
            (i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) ^ seed.wrapping_mul(0xD1B54A32D192ED03);
        s ^= s >> 33;
        s = s.wrapping_mul(0xff51afd7ed558ccd);
        s ^= s >> 29;
        ((s >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
    }

    #[test]
    fn stationary_ar1_is_detected() {
        // y_t = 0.3 y_{t-1} + e_t is clearly stationary.
        let mut y = vec![0.0];
        for i in 1..400 {
            let prev = y[i - 1];
            y.push(0.3 * prev + noise(i, 42));
        }
        let r = adf_test(&y, 2).unwrap();
        assert!(r.is_stationary(), "statistic {}", r.statistic);
    }

    #[test]
    fn random_walk_is_not_stationary() {
        // y_t = y_{t-1} + e_t is a unit-root process.
        let mut y = vec![0.0];
        for i in 1..400 {
            let prev = y[i - 1];
            y.push(prev + noise(i, 7));
        }
        let r = adf_test(&y, 2).unwrap();
        assert!(!r.is_stationary(), "statistic {}", r.statistic);
    }

    #[test]
    fn monotone_counter_is_not_stationary() {
        // A CPU-seconds style counter: strictly increasing with jitter.
        let mut y = Vec::new();
        let mut acc = 0.0;
        for i in 0..300 {
            acc += 1.0 + 0.3 * noise(i, 11).abs();
            y.push(acc);
        }
        assert!(!is_stationary(&y));
        // Its first difference is stationary.
        let dy = first_difference(&y);
        assert!(is_stationary(&dy));
    }

    #[test]
    fn oscillating_metric_is_stationary() {
        let y: Vec<f64> = (0..300)
            .map(|i| (i as f64 * 0.7).sin() + 0.2 * noise(i, 3))
            .collect();
        assert!(is_stationary(&y));
    }

    #[test]
    fn constant_series_is_reported_non_stationary_without_panicking() {
        let y = vec![5.0; 100];
        // The regression is singular; is_stationary falls back to `false`.
        assert!(!is_stationary(&y));
    }

    #[test]
    fn too_short_series_is_an_error() {
        assert!(matches!(
            adf_test(&[1.0, 2.0, 3.0], 1),
            Err(CausalityError::TooFewObservations { .. })
        ));
    }

    #[test]
    fn default_lag_order_grows_slowly_with_n() {
        assert_eq!(default_lag_order(5), 0);
        assert!(default_lag_order(100) >= 10 && default_lag_order(100) <= 12);
        assert!(default_lag_order(1000) > default_lag_order(100));
        // Never uses more than a third of the data.
        assert!(default_lag_order(30) <= 10);
    }

    #[test]
    fn default_lag_order_floors_like_the_powf_form() {
        for n in 10..=1usize << 24 {
            let powf = ((12.0 * (n as f64 / 100.0).powf(0.25)).floor() as usize).min(n / 3);
            assert_eq!(default_lag_order(n), powf, "n = {n}");
        }
    }

    /// The ADF statistic as the parent computed it: the fit on the same
    /// regression, and the standard error from a second Gram matrix summed
    /// observation row by observation row, in order (the seed's
    /// `transpose().matmul()` over rows with the intercept prepended),
    /// solved against `e_1`.
    fn sequential_gram_statistic(series: &[f64], lags: usize) -> Result<f64> {
        use crate::linalg::{solve_with, Matrix, SolveScratch};
        let n = series.len();
        let dy = first_difference(series);
        let k = lags + 2;
        let mut design = Design::new();
        design.reset(n - 1 - lags);
        design.push_intercept();
        design.push_column(&series[lags..n - 1])?;
        for j in 1..=lags {
            design.push_column(&dy[lags - j..n - 1 - j])?;
        }
        let fit = ols::fit_design(&design, &dy[lags..])?;
        let mut xtx = Matrix::zeros(k, k);
        let mut row = vec![0.0; k];
        for t in lags + 1..n {
            row[0] = 1.0;
            row[1] = series[t - 1];
            for j in 1..=lags {
                row[1 + j] = dy[t - 1 - j];
            }
            for i in 0..k {
                for j in 0..k {
                    xtx.set(i, j, xtx.get(i, j) + row[i] * row[j]);
                }
            }
        }
        let mut unit = vec![0.0; k];
        unit[1] = 1.0;
        let inverse = solve_with(&xtx, &unit, &mut SolveScratch::new())?;
        let se = (fit.residual_variance() * inverse[1]).max(0.0).sqrt();
        Ok(fit.coefficients[1] / se)
    }

    #[test]
    fn blocked_gram_standard_error_matches_sequential_oracle_within_epsilon() {
        // Epsilon tier: the standard error now reads the blocked Gram matrix
        // the fit already formed; the parent's sequential Gram is the
        // oracle. Statistics agree within 1e-9 relative, verdicts exactly.
        let mut compared = 0;
        for seed in 0..100u64 {
            let n = 40 + (seed as usize * 37) % 261;
            let e = |i: usize| noise(i, seed);
            let ar1 = |phi: f64| {
                let mut y = vec![0.0];
                for i in 1..n {
                    y.push(phi * y[i - 1] + e(i));
                }
                y
            };
            let mut acc = 0.0;
            let counter: Vec<f64> = (0..n)
                .map(|i| {
                    acc += 1.0 + 0.3 * e(i).abs();
                    acc
                })
                .collect();
            let omega = 0.1 + 0.05 * (seed % 13) as f64;
            let sinusoid: Vec<f64> = (0..n)
                .map(|i| 3.0 * (i as f64 * omega).sin() + 0.2 * e(i))
                .collect();
            let phis = [0.0, 0.5, 0.9, 0.97, 1.0];
            let series = phis.map(ar1).into_iter().chain([counter, sinusoid]);
            for (kind, y) in series.enumerate() {
                for lags in [0, 1, 3, default_lag_order(n)] {
                    let ctx = format!("seed {seed} kind {kind} n {n} lags {lags}");
                    let Ok(blocked) = adf_test(&y, lags) else {
                        continue;
                    };
                    let oracle = sequential_gram_statistic(&y, lags).expect(&ctx);
                    let gap = (blocked.statistic - oracle).abs();
                    assert!(gap <= 1e-9 * oracle.abs(), "{ctx}: {blocked:?} vs {oracle}");
                    assert_eq!(blocked.is_stationary(), oracle < CRITICAL_5PCT, "{ctx}");
                    compared += 1;
                }
            }
        }
        assert!(compared >= 2000, "{compared} cases compared");
    }

    #[test]
    fn auto_lag_handles_short_series() {
        let y: Vec<f64> = (0..20).map(|i| (i as f64 * 0.9).sin()).collect();
        let r = adf_test_auto(&y).unwrap();
        assert!(r.n_observations > 0);
    }
}
