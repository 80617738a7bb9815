//! The F-test for comparing nested OLS models.
//!
//! Sieve's Granger check compares the restricted model (a metric regressed
//! on its own history) against the unrestricted model (own history plus the
//! other metric's lagged history) "via the F-test. The null hypothesis
//! (i.e., X does not granger-cause Y) is rejected if the p-value is below a
//! critical value" (§3.3).

use crate::dist::f_sf;
use crate::ols::OlsFit;
use crate::{CausalityError, Result};

/// Outcome of an F-test between a restricted and an unrestricted model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FTestResult {
    /// The F statistic.
    pub f_statistic: f64,
    /// The p-value (upper-tail probability under the null hypothesis that
    /// the extra regressors have no explanatory power).
    pub p_value: f64,
    /// Numerator degrees of freedom (number of restrictions).
    pub df_numerator: usize,
    /// Denominator degrees of freedom (residual df of the unrestricted model).
    pub df_denominator: usize,
}

/// Compares two nested OLS fits on the *same* observations.
///
/// `restricted` must have fewer parameters than `unrestricted`.
///
/// # Errors
///
/// * [`CausalityError::InvalidParameter`] when the models are not nested
///   (parameter counts not strictly increasing), were fitted on different
///   numbers of observations, or when the unrestricted model has no residual
///   degrees of freedom.
pub fn f_test(restricted: &OlsFit, unrestricted: &OlsFit) -> Result<FTestResult> {
    if restricted.n_observations != unrestricted.n_observations {
        return Err(CausalityError::InvalidParameter {
            name: "n_observations",
            reason: format!(
                "models fitted on different samples: {} vs {}",
                restricted.n_observations, unrestricted.n_observations
            ),
        });
    }
    if unrestricted.n_parameters <= restricted.n_parameters {
        return Err(CausalityError::InvalidParameter {
            name: "n_parameters",
            reason: "unrestricted model must have more parameters than the restricted one"
                .to_string(),
        });
    }
    let df_num = unrestricted.n_parameters - restricted.n_parameters;
    let df_den = unrestricted.degrees_of_freedom();
    if df_den == 0 {
        return Err(CausalityError::InvalidParameter {
            name: "degrees_of_freedom",
            reason: "unrestricted model has no residual degrees of freedom".to_string(),
        });
    }

    let rss_r = restricted.rss;
    let rss_u = unrestricted.rss;
    // A perfect unrestricted fit gives an infinite F statistic; handle the
    // degenerate case explicitly to avoid 0/0.
    let f_statistic = if rss_u <= f64::EPSILON * restricted.tss.max(1.0) {
        if rss_r <= rss_u + f64::EPSILON {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        ((rss_r - rss_u).max(0.0) / df_num as f64) / (rss_u / df_den as f64)
    };

    let p_value = if f_statistic.is_infinite() {
        0.0
    } else {
        f_sf(f_statistic, df_num as f64, df_den as f64).clamp(0.0, 1.0)
    };

    Ok(FTestResult {
        f_statistic,
        p_value,
        df_numerator: df_num,
        df_denominator: df_den,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ols::{fit_design, Design};

    /// Deterministic pseudo-noise in [-0.5, 0.5].
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

    /// Fits `y ~ const + columns`.
    fn fit(columns: &[&[f64]], y: &[f64]) -> OlsFit {
        let mut design = Design::new();
        design.reset(y.len());
        design.push_intercept();
        for column in columns {
            design.push_column(column).unwrap();
        }
        fit_design(&design, y).unwrap()
    }

    #[test]
    fn informative_extra_regressor_is_detected() {
        // y depends on both x1 and x2; the restricted model omits x2.
        let n = 120;
        let x1: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let x2: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| 1.0 + 2.0 * x1[i] + 1.5 * x2[i] + 0.1 * noise(i, 1))
            .collect();
        let test = f_test(&fit(&[&x1], &y), &fit(&[&x1, &x2], &y)).unwrap();
        assert!(test.f_statistic > 10.0);
        assert!(test.p_value < 0.001);
        assert_eq!(test.df_numerator, 1);
    }

    #[test]
    fn uninformative_extra_regressor_is_not_significant() {
        // y depends only on x1; x2 is independent noise.
        let n = 150;
        let x1: Vec<f64> = (0..n).map(|i| (i as f64 * 0.25).sin()).collect();
        let x2: Vec<f64> = (0..n).map(|i| noise(i, 99)).collect();
        let y: Vec<f64> = (0..n).map(|i| 2.0 * x1[i] + 0.3 * noise(i, 7)).collect();
        let test = f_test(&fit(&[&x1], &y), &fit(&[&x1, &x2], &y)).unwrap();
        assert!(
            test.p_value > 0.05,
            "p-value {} should not be significant",
            test.p_value
        );
    }

    #[test]
    fn rejects_non_nested_models() {
        let x: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| v * 2.0 + noise(*v as usize, 3)).collect();
        let a = fit(&[&x], &y);
        // Same number of parameters -> not nested.
        assert!(f_test(&a, &a).is_err());
    }

    #[test]
    fn rejects_models_on_different_samples() {
        let x: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| v * 2.0 + 1.0).collect();
        let squares: Vec<f64> = x.iter().map(|v| v * v).collect();
        let a = fit(&[&x], &y);
        let b = fit(&[&x[..20], &squares[..20]], &y[..20]);
        assert!(f_test(&a, &b).is_err());
    }

    #[test]
    fn perfect_fit_gives_infinite_f_and_zero_p() {
        let x1: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).sin()).collect();
        let x2: Vec<f64> = (0..40).map(|i| (i as f64 * 0.9).cos()).collect();
        // y depends exactly on x1 and x2, with zero residual.
        let y: Vec<f64> = (0..40).map(|i| x1[i] + 4.0 * x2[i]).collect();
        let t = f_test(&fit(&[&x1], &y), &fit(&[&x1, &x2], &y)).unwrap();
        assert!(t.f_statistic.is_infinite());
        assert_eq!(t.p_value, 0.0);
    }
}
