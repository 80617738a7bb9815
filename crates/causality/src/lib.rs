//! Statistical machinery behind Sieve's dependency extraction.
//!
//! Sieve identifies dependencies between the representative metrics of
//! neighbouring components with Granger-causality tests (§3.3 of the paper):
//! two linear models are fitted with ordinary least squares — one predicting
//! a metric `Y` from its own history, one predicting it from its own history
//! *and* the (time-lagged) history of another metric `X` — and compared with
//! an F-test. Non-stationary metrics (e.g. monotonically increasing
//! counters) are detected with the Augmented Dickey-Fuller test and
//! first-differenced before testing, to avoid spurious regressions.
//!
//! Everything is implemented from first principles, and every regression
//! runs through one path:
//!
//! * a Gaussian-elimination solver for the normal equations ([`solve_with`]),
//! * least squares on a column-major design of contiguous slices, whose
//!   Gram matrix is formed in exactly one place ([`fit_design`]),
//! * the gamma/beta special functions and the F distribution ([`f_cdf`]),
//! * the F-test for nested models (`ftest`),
//! * the Augmented Dickey-Fuller unit-root test at the 5% level, regressed
//!   on the same kind of design (`adf`),
//! * the Granger causality test itself and its one lag-order reduction
//!   loop ([`granger_causes`]), and
//! * the shared causality engine ([`PreparedGrangerSeries`]): per-series prepared state
//!   (cached ADF verdict, lazily differenced buffer, memoized restricted
//!   fits) that lets a pipeline test one series against many others without
//!   redoing the per-series work — bit-identical to the direct path.
//!
//! # Example
//!
//! ```
//! use sieve_causality::{granger_causes, GrangerConfig};
//!
//! // y follows x with a delay of one step, plus a deterministic wobble.
//! let x: Vec<f64> = (0..200).map(|i| ((i as f64) * 0.35).sin()).collect();
//! let y: Vec<f64> = (0..200)
//!     .map(|i| if i == 0 { 0.0 } else { 0.8 * x[i - 1] + 0.05 * ((i as f64) * 1.3).cos() })
//!     .collect();
//! let result = granger_causes(&x, &y, &GrangerConfig::default()).unwrap();
//! assert!(result.causal, "x should Granger-cause y (p = {})", result.p_value);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]
#![deny(unnameable_types)]

mod adf;
mod dist;
mod engine;
mod ftest;
mod granger;
mod linalg;
mod ols;

mod error;

pub use dist::{f_cdf, incomplete_beta};
pub use engine::{granger_causes_prepared, PreparedGrangerSeries};
pub use error::CausalityError;
pub use granger::{granger_causes, GrangerConfig, GrangerResult};
pub use linalg::{solve_with, Matrix, SolveScratch};
pub use ols::{fit_design, Design, OlsFit};

/// Convenient result alias for causality operations.
pub type Result<T> = std::result::Result<T, CausalityError>;
