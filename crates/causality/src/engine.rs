//! The shared Granger-causality engine: per-series prepared state.
//!
//! Sieve's dependency-identification stage (§3.3) tests every representative
//! metric of a caller against every representative of its callees, in both
//! directions. A naive [`crate::granger::granger_causes`] call re-derives
//! three per-*series* quantities for every *pair*:
//!
//! * the ADF stationarity verdict of each input,
//! * the first-differenced buffer (for non-stationary inputs), and
//! * the **restricted** AR fit `y ~ const + y-lags`, which depends only on
//!   the target series and the lag order.
//!
//! With `R` representatives wired to a series through the call graph, each
//! of those is recomputed `O(R)` times. A [`PreparedGrangerSeries`] computes
//! the stationarity verdict and variance once up front (so a batch of
//! preparations can run through a parallel executor), materialises the
//! differenced buffer lazily as an `Arc<[f64]>`, and memoizes restricted
//! fits keyed by `(differenced, lag-order)`.
//!
//! [`granger_causes_prepared`] is **bit-identical** to
//! [`crate::granger::granger_causes`]: both funnel through the same flat
//! column-major [`Design`] fits, the same F-test and the one lag-order
//! reduction loop; the prepared path merely serves the per-series pieces
//! from the cache. The pipeline's production/oracle model-equality tests
//! rely on this.

use crate::adf::is_stationary;
use crate::granger::{
    fit_restricted, test_reducing_lag_order, validate_inputs, GrangerConfig, GrangerResult,
};
use crate::ols::{Design, OlsFit};
use crate::Result;
use sieve_timeseries::{first_difference, variance};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Memoized restricted fits, keyed by `(differenced, lag order)`.
type RestrictedMemo = HashMap<(bool, usize), Result<Arc<OlsFit>>>;

/// Per-series state shared by every Granger test the series participates in.
///
/// The struct is `Sync`: one prepared instance can back many concurrent
/// per-edge tests (the pipeline shares them across executor workers). All
/// cached values are deterministic functions of the series, so whichever
/// thread fills a cache slot first produces the same bits any other thread
/// would have.
#[derive(Debug)]
pub struct PreparedGrangerSeries {
    /// The raw series, shared with the pipeline's prepared buffers.
    values: Arc<[f64]>,
    /// `variance(values)`, computed once at preparation time.
    variance: f64,
    /// The ADF stationarity verdict of the raw series, computed once at
    /// preparation time (eagerly, so batches of preparations parallelise).
    stationary: bool,
    /// Lazily computed first-differenced buffer and its variance.
    diff: OnceLock<(Arc<[f64]>, f64)>,
    /// Memoized restricted AR fits keyed by `(differenced, lag order)`.
    /// Failed fits are memoized too: the order-reduction loop must observe
    /// the same error on every pairing.
    restricted: Mutex<RestrictedMemo>,
    /// Number of restricted fits actually computed (not served from the
    /// memo) — instrumentation for the memoization tests.
    restricted_computes: AtomicUsize,
}

impl PreparedGrangerSeries {
    /// Prepares a series: takes (or shares) the buffer, computes its
    /// variance and runs the ADF stationarity test once.
    pub fn prepare(values: impl Into<Arc<[f64]>>) -> Self {
        let values = values.into();
        let variance = variance(&values);
        let stationary = is_stationary(&values);
        Self {
            values,
            variance,
            stationary,
            diff: OnceLock::new(),
            restricted: Mutex::new(HashMap::new()),
            restricted_computes: AtomicUsize::new(0),
        }
    }

    /// The raw series values.
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of observations.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series is empty.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Population variance of the raw series (cached).
    pub(crate) fn variance(&self) -> f64 {
        self.variance
    }

    /// The cached ADF verdict: whether the raw series is stationary at the
    /// 5% level (short or degenerate series report `false`, matching
    /// `adf::is_stationary`).
    pub(crate) fn is_stationary(&self) -> bool {
        self.stationary
    }

    /// The first-differenced series and its variance, computed on first use
    /// and cached for every later test.
    pub(crate) fn differenced(&self) -> (&[f64], f64) {
        let (buffer, var) = self.diff.get_or_init(|| {
            let d = first_difference(&self.values);
            let v = variance(&d);
            (d.into(), v)
        });
        (buffer, *var)
    }

    /// How many restricted fits were actually computed (cache misses). A
    /// target paired against `R` sources at one effective lag order reports
    /// 1, not `R`.
    pub fn restricted_fit_computations(&self) -> usize {
        self.restricted_computes.load(Ordering::Relaxed)
    }

    /// The memoized restricted fit of this series as the *target* of a
    /// Granger test: `s_t ~ const + s_{t-1..t-lag}` on the raw
    /// (`differenced == false`) or first-differenced series.
    fn restricted_fit(&self, differenced: bool, lag: usize) -> Result<Arc<OlsFit>> {
        let mut memo = self
            .restricted
            .lock()
            .expect("restricted-fit memo poisoned");
        memo.entry((differenced, lag))
            .or_insert_with(|| {
                self.restricted_computes.fetch_add(1, Ordering::Relaxed);
                let series: &[f64] = if differenced {
                    self.differenced().0
                } else {
                    &self.values
                };
                let mut design = Design::new();
                fit_restricted(&mut design, series, lag).map(Arc::new)
            })
            .clone()
    }
}

/// Tests whether `x` Granger-causes `y` using prepared per-series state.
///
/// Bit-identical to [`crate::granger::granger_causes`] on the same raw
/// series — only the caching policy differs, never the mechanism.
///
/// # Errors
///
/// Same as [`crate::granger::granger_causes`].
pub fn granger_causes_prepared(
    x: &PreparedGrangerSeries,
    y: &PreparedGrangerSeries,
    config: &GrangerConfig,
) -> Result<GrangerResult> {
    validate_inputs(x.len(), y.len(), config)?;

    // Constant series can never carry predictive information.
    if x.variance() < 1e-12 || y.variance() < 1e-12 {
        return Ok(GrangerResult::not_causal(false));
    }

    // Cached ADF verdicts replace the two per-pair ADF runs; the cached
    // differenced buffers (with their variances) replace the per-pair
    // `first_difference` allocations and variance re-checks.
    let differenced = !x.is_stationary() || !y.is_stationary();
    let (xs, ys) = if differenced {
        let (dx, vx) = x.differenced();
        let (dy, vy) = y.differenced();
        if vx < 1e-12 || vy < 1e-12 {
            return Ok(GrangerResult::not_causal(true));
        }
        (dx, dy)
    } else {
        (x.values(), y.values())
    };

    // The direct path's order-reduction loop; the restricted fit at each
    // candidate order comes from the target's memo.
    test_reducing_lag_order(xs, ys, differenced, config, |_, lag| {
        y.restricted_fit(differenced, lag)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::granger::granger_causes;
    use crate::CausalityError;

    fn noise(i: usize, seed: u64) -> f64 {
        let mut s =
            (i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) ^ seed.wrapping_mul(0xD1B54A32D192ED03);
        s ^= s >> 33;
        s = s.wrapping_mul(0xff51afd7ed558ccd);
        s ^= s >> 29;
        ((s >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
    }

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

    fn assert_same(a: &GrangerResult, b: &GrangerResult) {
        assert_eq!(a.causal, b.causal);
        assert_eq!(a.p_value.to_bits(), b.p_value.to_bits());
        assert_eq!(a.f_statistic.to_bits(), b.f_statistic.to_bits());
        assert_eq!(a.best_lag, b.best_lag);
        assert_eq!(a.differenced, b.differenced);
    }

    #[test]
    fn prepared_path_matches_direct_path_on_stationary_pair() {
        let (x, y) = driven_pair(300, 1, 1.0);
        let config = GrangerConfig::default();
        let direct = granger_causes(&x, &y, &config).unwrap();
        let px = PreparedGrangerSeries::prepare(x.as_slice());
        let py = PreparedGrangerSeries::prepare(y.as_slice());
        let prepared = granger_causes_prepared(&px, &py, &config).unwrap();
        assert!(prepared.causal);
        assert_same(&direct, &prepared);
        // Stationary pair: the differenced buffer was never needed.
        assert!(px.diff.get().is_none());
        assert!(py.diff.get().is_none());
    }

    #[test]
    fn prepared_path_matches_direct_path_on_counters() {
        // Independent random-walk counters exercise the differenced branch.
        let mut x = vec![0.0];
        let mut y = vec![0.0];
        for i in 1..400 {
            x.push(x[i - 1] + 1.0 + noise(i, 3).abs());
            y.push(y[i - 1] + 2.0 + noise(i, 9).abs());
        }
        let config = GrangerConfig::default();
        let direct = granger_causes(&x, &y, &config).unwrap();
        let px = PreparedGrangerSeries::prepare(x.as_slice());
        let py = PreparedGrangerSeries::prepare(y.as_slice());
        let prepared = granger_causes_prepared(&px, &py, &config).unwrap();
        assert!(prepared.differenced);
        assert_same(&direct, &prepared);
        // The differenced buffer is cached after first use.
        assert!(px.diff.get().is_some());
    }

    #[test]
    fn prepared_path_handles_constants_and_errors_like_the_direct_path() {
        let constant = vec![4.2; 100];
        let varying: Vec<f64> = (0..100).map(|i| (i as f64 * 0.2).sin()).collect();
        let config = GrangerConfig::default();
        let pc = PreparedGrangerSeries::prepare(constant.as_slice());
        let pv = PreparedGrangerSeries::prepare(varying.as_slice());
        let direct = granger_causes(&constant, &varying, &config).unwrap();
        let prepared = granger_causes_prepared(&pc, &pv, &config).unwrap();
        assert_same(&direct, &prepared);
        assert!(!prepared.causal);

        // Length mismatch and config errors surface identically.
        let short = PreparedGrangerSeries::prepare(vec![1.0, 2.0, 3.0]);
        assert!(matches!(
            granger_causes_prepared(&short, &pv, &config),
            Err(CausalityError::LengthMismatch { .. })
        ));
        assert!(matches!(
            granger_causes_prepared(&short, &short, &config),
            Err(CausalityError::TooFewObservations { .. })
        ));
        let bad = GrangerConfig::default().with_max_lag(0);
        assert!(granger_causes_prepared(&pv, &pv, &bad).is_err());
    }

    #[test]
    fn restricted_fit_is_memoized_across_sources() {
        let n = 240;
        let target: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.23).sin() + 0.2 * noise(i, 2))
            .collect();
        let pt = PreparedGrangerSeries::prepare(target.as_slice());
        let config = GrangerConfig::default();
        for seed in 0..8u64 {
            let source: Vec<f64> = (0..n)
                .map(|i| (i as f64 * (0.11 + seed as f64 * 0.03)).cos() + 0.3 * noise(i, seed))
                .collect();
            let ps = PreparedGrangerSeries::prepare(source.as_slice());
            granger_causes_prepared(&ps, &pt, &config).unwrap();
        }
        // Eight sources against one target, all stationary at one lag
        // order: at most `max_lag` distinct restricted fits, not eight.
        let computes = pt.restricted_fit_computations();
        assert!(computes >= 1);
        assert!(
            computes <= config.max_lag,
            "restricted fits computed {computes} times for 8 sources"
        );
    }

    #[test]
    fn bidirectional_prepared_matches_two_direct_calls() {
        let (x, y) = driven_pair(400, 2, 1.2);
        let config = GrangerConfig::default().with_max_lag(3);
        let px = PreparedGrangerSeries::prepare(x.as_slice());
        let py = PreparedGrangerSeries::prepare(y.as_slice());
        // One prepared state per series serves both directions.
        let forward = granger_causes_prepared(&px, &py, &config).unwrap();
        let backward = granger_causes_prepared(&py, &px, &config).unwrap();
        assert_same(&forward, &granger_causes(&x, &y, &config).unwrap());
        assert_same(&backward, &granger_causes(&y, &x, &config).unwrap());
    }

    #[test]
    fn accessors_expose_the_cached_state() {
        let values: Vec<f64> = (0..60).map(|i| (i as f64 * 0.4).sin()).collect();
        let p = PreparedGrangerSeries::prepare(values.as_slice());
        assert_eq!(p.len(), 60);
        assert!(!p.is_empty());
        assert_eq!(p.values().len(), 60);
        assert_eq!(p.variance().to_bits(), variance(&values).to_bits());
        assert_eq!(p.is_stationary(), is_stationary(&values));
        let (d, dv) = p.differenced();
        assert_eq!(d.len(), 59);
        assert_eq!(dv.to_bits(), variance(&first_difference(&values)).to_bits());
        // Second call serves the same buffer.
        let (d2, _) = p.differenced();
        assert_eq!(d.as_ptr(), d2.as_ptr());
        assert_eq!(p.restricted_fit_computations(), 0);
    }
}
