//! Granger causality testing.
//!
//! "If a metric X is Granger-causing another metric Y, then we can predict Y
//! better by using the history of both X and Y compared to only using the
//! history of Y" (§3.3). The test compares, per candidate lag order `p`,
//!
//! * the **restricted** model `y_t ~ const + y_{t-1} + … + y_{t-p}` with
//! * the **unrestricted** model that additionally includes
//!   `x_{t-1} + … + x_{t-p}`,
//!
//! via an F-test. Non-stationary inputs are first-differenced beforehand
//! (detected with the ADF test), mirroring Sieve's handling of counters.

use crate::adf::is_stationary;
use crate::ftest::f_test;
use crate::ols::{self, Design};
use crate::{CausalityError, Result};
use sieve_timeseries::diff::first_difference;
use sieve_timeseries::stats::variance;
use std::borrow::{Borrow, Cow};

/// Configuration of a Granger causality test.
#[derive(Debug, Clone, PartialEq)]
pub struct GrangerConfig {
    /// Maximum autoregressive lag order to try (each order from 1 to this
    /// value is tested and the most significant one is reported).
    pub max_lag: usize,
    /// Significance level for rejecting the "does not Granger-cause" null.
    pub significance: f64,
    /// Whether to first-difference series that fail the ADF stationarity
    /// test (Sieve always does).
    pub difference_non_stationary: bool,
    /// Minimum number of observations required to attempt the test.
    pub min_observations: usize,
}

impl Default for GrangerConfig {
    fn default() -> Self {
        Self {
            max_lag: 3,
            significance: 0.05,
            difference_non_stationary: true,
            min_observations: 30,
        }
    }
}

impl GrangerConfig {
    /// Builder-style setter for the maximum lag order.
    pub fn with_max_lag(mut self, max_lag: usize) -> Self {
        self.max_lag = max_lag;
        self
    }

    /// Builder-style setter for the significance level.
    pub fn with_significance(mut self, significance: f64) -> Self {
        self.significance = significance;
        self
    }

    /// Checks the parameters every test needs whatever its inputs: the
    /// single rule behind both the per-test check and pipeline
    /// configuration validation.
    ///
    /// # Errors
    ///
    /// [`CausalityError::InvalidParameter`] when `max_lag` is zero or the
    /// significance level is outside `(0, 1)`.
    pub fn validate(&self) -> Result<()> {
        if self.max_lag == 0 {
            return Err(CausalityError::InvalidParameter {
                name: "max_lag",
                reason: "must be at least 1".to_string(),
            });
        }
        if !(self.significance > 0.0 && self.significance < 1.0) {
            return Err(CausalityError::InvalidParameter {
                name: "significance",
                reason: format!("must be in (0, 1), got {}", self.significance),
            });
        }
        Ok(())
    }
}

/// Outcome of a Granger causality test of "X causes Y".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrangerResult {
    /// Whether X Granger-causes Y at the configured significance level.
    pub causal: bool,
    /// p-value of the F-test comparing the restricted and unrestricted
    /// models at the used lag order.
    pub p_value: f64,
    /// The F statistic of that comparison.
    pub f_statistic: f64,
    /// The estimated response delay in samples: the lag (between 1 and the
    /// configured maximum) at which the lagged cross-correlation between X
    /// and Y is strongest. 0 when no test could run.
    pub best_lag: usize,
    /// Whether the inputs were first-differenced before testing.
    pub differenced: bool,
}

impl GrangerResult {
    /// A "no evidence of causality" result.
    pub(crate) fn not_causal(differenced: bool) -> Self {
        Self {
            causal: false,
            p_value: 1.0,
            f_statistic: 0.0,
            best_lag: 0,
            differenced,
        }
    }
}

/// Tests whether `x` Granger-causes `y`.
///
/// # Errors
///
/// * [`CausalityError::LengthMismatch`] when the series differ in length.
/// * [`CausalityError::TooFewObservations`] when fewer than
///   `config.min_observations` samples are available.
/// * [`CausalityError::InvalidParameter`] when `max_lag` is zero or the
///   significance level is outside `(0, 1)`.
pub fn granger_causes(x: &[f64], y: &[f64], config: &GrangerConfig) -> Result<GrangerResult> {
    validate_inputs(x.len(), y.len(), config)?;

    // Constant series can never carry predictive information.
    if variance(x) < 1e-12 || variance(y) < 1e-12 {
        return Ok(GrangerResult::not_causal(false));
    }

    // Difference when either series is non-stationary (as Sieve does for
    // counters); both are differenced to keep them aligned. Stationary
    // inputs are tested in place — no copy is taken.
    let differenced = config.difference_non_stationary && (!is_stationary(x) || !is_stationary(y));
    let (xs, ys): (Cow<'_, [f64]>, Cow<'_, [f64]>) = if differenced {
        (first_difference(x).into(), first_difference(y).into())
    } else {
        (x.into(), y.into())
    };

    // Only freshly differenced buffers need a variance re-check: in the
    // stationary case `xs`/`ys` *are* `x`/`y`, which passed above.
    if differenced && (variance(&xs) < 1e-12 || variance(&ys) < 1e-12) {
        return Ok(GrangerResult::not_causal(differenced));
    }

    // Fresh restricted fits, one per candidate order, in the shared design.
    test_reducing_lag_order(&xs, &ys, differenced, config, |design, lag| {
        fit_restricted(design, &ys, lag)
    })
}

/// Shared input validation of [`granger_causes`] and the prepared-state
/// engine path.
pub(crate) fn validate_inputs(x_len: usize, y_len: usize, config: &GrangerConfig) -> Result<()> {
    if x_len != y_len {
        return Err(CausalityError::LengthMismatch {
            left: x_len,
            right: y_len,
        });
    }
    config.validate()?;
    if x_len < config.min_observations {
        return Err(CausalityError::TooFewObservations {
            required: config.min_observations,
            actual: x_len,
        });
    }
    Ok(())
}

/// The lag in `1..=max_lag` at which the absolute lagged correlation between
/// `x` and `y` (x leading) is largest.
///
/// The lagged pair set at lag `l` is just the sub-slice pair
/// `(x[..n-l], y[l..])`, so no per-lag buffers are materialized.
fn strongest_lag(x: &[f64], y: &[f64], max_lag: usize) -> usize {
    use sieve_timeseries::stats::pearson;
    let n = x.len().min(y.len());
    let mut best_lag = 1;
    let mut best_corr = f64::NEG_INFINITY;
    for lag in 1..=max_lag.max(1) {
        if lag >= n || n - lag < 3 {
            continue;
        }
        let corr = pearson(&x[..n - lag], &y[lag..n]).abs();
        if corr > best_corr {
            best_corr = corr;
            best_lag = lag;
        }
    }
    best_lag
}

/// Fits the restricted autoregressive model `y_t ~ const + y_{t-1..t-p}`
/// into the reusable `design` scratch. The regressor columns are sub-slices
/// of `y` itself — nothing is copied per row.
///
/// The caller must guarantee `y.len() > lag`.
pub(crate) fn fit_restricted(design: &mut Design, y: &[f64], lag: usize) -> Result<ols::OlsFit> {
    let n = y.len();
    design.reset(n - lag);
    design.push_intercept();
    for k in 1..=lag {
        design.push_column(&y[lag - k..n - k])?;
    }
    ols::fit_design(design, &y[lag..])
}

/// Fits the unrestricted model `y_t ~ const + y_{t-1..t-p} + x_{t-1..t-p}`
/// into the reusable `design` scratch.
///
/// The caller must guarantee `x.len() == y.len() > lag`.
fn fit_unrestricted(design: &mut Design, x: &[f64], y: &[f64], lag: usize) -> Result<ols::OlsFit> {
    let n = y.len();
    design.reset(n - lag);
    design.push_intercept();
    for k in 1..=lag {
        design.push_column(&y[lag - k..n - k])?;
    }
    for k in 1..=lag {
        design.push_column(&x[lag - k..n - k])?;
    }
    ols::fit_design(design, &y[lag..])
}

/// The lag-order reduction loop behind both Granger paths, on inputs that
/// are already differenced (or not) and checked for variance.
///
/// The autoregressive order is the configured maximum lag. Using the full
/// order for the restricted model matters: with too few own-lags a smooth
/// metric is under-fitted and the other metric becomes significant merely as
/// a proxy for the missing own-lags, which would flip harmless downstream
/// metrics into apparent causes. If the sample is too short (or the design
/// collinear) the order is reduced until the test runs.
///
/// `restricted(design, lag)` supplies the restricted fit of `ys` at `lag`:
/// a fresh [`fit_restricted`] into the loop's reusable `design` for
/// [`granger_causes`], the target's memo for the prepared engine. The
/// unrestricted fit is always computed here, into the same `design`.
pub(crate) fn test_reducing_lag_order<R: Borrow<ols::OlsFit>>(
    xs: &[f64],
    ys: &[f64],
    differenced: bool,
    config: &GrangerConfig,
    mut restricted: impl FnMut(&mut Design, usize) -> Result<R>,
) -> Result<GrangerResult> {
    let n = ys.len();
    let mut design = Design::new();
    let mut order = config.max_lag;
    loop {
        let test = if n <= order * 2 + 2 {
            Err(CausalityError::TooFewObservations {
                required: order * 2 + 3,
                actual: n,
            })
        } else {
            restricted(&mut design, order).and_then(|restricted| {
                let unrestricted = fit_unrestricted(&mut design, xs, ys, order)?;
                f_test(restricted.borrow(), &unrestricted)
            })
        };
        match test {
            Ok(result) => {
                let causal = result.p_value < config.significance;
                return Ok(GrangerResult {
                    causal,
                    p_value: result.p_value,
                    f_statistic: result.f_statistic,
                    best_lag: if causal {
                        strongest_lag(xs, ys, order)
                    } else {
                        0
                    },
                    differenced,
                });
            }
            Err(CausalityError::SingularMatrix)
            | Err(CausalityError::TooFewObservations { .. })
                if order > 1 =>
            {
                order -= 1;
            }
            Err(CausalityError::SingularMatrix)
            | Err(CausalityError::TooFewObservations { .. }) => {
                return Ok(GrangerResult::not_causal(differenced))
            }
            Err(e) => return Err(e),
        }
    }
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

    /// x drives y with the given lag: y_t = gain * x_{t-lag} + noise.
    fn driven_pair(n: usize, lag: usize, gain: f64) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.37).sin() + 0.3 * noise(i, 5))
            .collect();
        let y: Vec<f64> = (0..n)
            .map(|i| {
                if i < lag {
                    0.0
                } else {
                    gain * x[i - lag] + 0.2 * noise(i, 17)
                }
            })
            .collect();
        (x, y)
    }

    #[test]
    fn detects_direct_causality() {
        let (x, y) = driven_pair(300, 1, 1.0);
        let r = granger_causes(&x, &y, &GrangerConfig::default()).unwrap();
        assert!(r.causal, "p = {}", r.p_value);
        assert!(r.p_value < 0.01);
    }

    #[test]
    fn detects_causality_at_longer_lag() {
        // Use an unpredictable (white-noise) driver so only models that reach
        // back three steps can explain y.
        let n = 400;
        let x: Vec<f64> = (0..n).map(|i| noise(i, 23)).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| {
                if i < 3 {
                    0.0
                } else {
                    1.5 * x[i - 3] + 0.1 * noise(i, 31)
                }
            })
            .collect();
        let cfg = GrangerConfig::default().with_max_lag(4);
        let r = granger_causes(&x, &y, &cfg).unwrap();
        assert!(r.causal, "p = {}", r.p_value);
        assert!(r.best_lag >= 3, "best lag {}", r.best_lag);
    }

    #[test]
    fn reverse_direction_is_weaker_than_forward() {
        let (x, y) = driven_pair(400, 2, 1.2);
        let cfg = GrangerConfig::default().with_max_lag(3);
        let forward = granger_causes(&x, &y, &cfg).unwrap();
        let backward = granger_causes(&y, &x, &cfg).unwrap();
        assert!(forward.causal);
        assert!(
            forward.p_value <= backward.p_value,
            "forward p {} should be <= backward p {}",
            forward.p_value,
            backward.p_value
        );
    }

    #[test]
    fn independent_series_are_not_causal() {
        let x: Vec<f64> = (0..300).map(|i| noise(i, 1)).collect();
        let y: Vec<f64> = (0..300).map(|i| noise(i, 2)).collect();
        let r = granger_causes(&x, &y, &GrangerConfig::default()).unwrap();
        assert!(!r.causal, "p = {}", r.p_value);
    }

    #[test]
    fn constant_series_is_never_causal() {
        let x = vec![4.2; 100];
        let y: Vec<f64> = (0..100).map(|i| (i as f64 * 0.2).sin()).collect();
        let r = granger_causes(&x, &y, &GrangerConfig::default()).unwrap();
        assert!(!r.causal);
        assert_eq!(r.p_value, 1.0);
        let r = granger_causes(&y, &x, &GrangerConfig::default()).unwrap();
        assert!(!r.causal);
    }

    #[test]
    fn non_stationary_counters_are_differenced() {
        // Two independent random-walk counters: without differencing this is
        // the classic spurious-regression setup.
        let mut x = vec![0.0];
        let mut y = vec![0.0];
        for i in 1..400 {
            x.push(x[i - 1] + 1.0 + noise(i, 3).abs());
            y.push(y[i - 1] + 2.0 + noise(i, 9).abs());
        }
        let r = granger_causes(&x, &y, &GrangerConfig::default()).unwrap();
        assert!(r.differenced, "counters must be first-differenced");
        assert!(
            !r.causal,
            "independent counters must not appear causal (p={})",
            r.p_value
        );
    }

    #[test]
    fn causality_survives_differencing() {
        // Cumulative counters where the *rate* of y follows the rate of x.
        let n = 400;
        let rate_x: Vec<f64> = (0..n)
            .map(|i| 2.0 + (i as f64 * 0.25).sin() + 0.1 * noise(i, 4))
            .collect();
        let mut x = vec![0.0];
        let mut y = vec![0.0];
        for i in 1..n {
            x.push(x[i - 1] + rate_x[i]);
            y.push(y[i - 1] + 1.5 * rate_x[i - 1] + 0.1 * noise(i, 6));
        }
        let r = granger_causes(&x, &y, &GrangerConfig::default()).unwrap();
        assert!(r.differenced);
        assert!(r.causal, "p = {}", r.p_value);
    }

    #[test]
    fn rejects_invalid_configuration_and_input() {
        let x = vec![1.0; 50];
        let y = vec![2.0; 40];
        assert!(matches!(
            granger_causes(&x, &y, &GrangerConfig::default()),
            Err(CausalityError::LengthMismatch { .. })
        ));
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let cfg = GrangerConfig::default().with_max_lag(0);
        assert!(granger_causes(&x, &x, &cfg).is_err());
        let cfg = GrangerConfig::default().with_significance(1.5);
        assert!(granger_causes(&x, &x, &cfg).is_err());
        let short = vec![1.0, 2.0, 3.0];
        assert!(matches!(
            granger_causes(&short, &short, &GrangerConfig::default()),
            Err(CausalityError::TooFewObservations { .. })
        ));
    }

    #[test]
    fn default_config_matches_paper_choices() {
        let cfg = GrangerConfig::default();
        assert_eq!(cfg.significance, 0.05);
        assert!(cfg.difference_non_stationary);
        assert!(cfg.max_lag >= 1);
    }
}
