//! Time-series primitives used throughout the Sieve reproduction.
//!
//! This crate implements, from scratch, every piece of numerical time-series
//! machinery that the Sieve pipeline (Thalheim et al., Middleware 2017)
//! relies on:
//!
//! * a [`TimeSeries`] container with millisecond timestamps and its
//!   zero-copy [`SeriesView`],
//! * the descriptive statistics and chunked reduction kernels the variance
//!   filter, the Granger lag search and the OLS normal equations read
//!   ([`stats`]),
//! * z-normalization ([`normalize`]) as required by k-Shape,
//! * natural cubic-spline interpolation for gap reconstruction
//!   ([`interpolate`], §3.2 of the paper),
//! * resampling/discretization to a fixed 500 ms grid through those
//!   splines ([`resample`]),
//! * first-differencing of non-stationary series for the Granger causality
//!   tests ([`diff`]),
//! * a radix-2 FFT ([`fft`]) used to compute the normalized
//!   cross-correlation,
//! * the shape-based distance (SBD) of the k-Shape algorithm ([`sbd`]), and
//! * cached per-series spectra ([`spectrum`]) that make repeated SBD
//!   evaluations cheap (one product + inverse FFT per pair) while staying
//!   bit-identical to the direct path.
//!
//! # Example
//!
//! ```
//! use sieve_timeseries::{TimeSeries, sbd};
//!
//! # fn main() -> Result<(), sieve_timeseries::TimeSeriesError> {
//! // Two series with identical shape but different amplitude and a lag.
//! let a = TimeSeries::from_values(0, 500, vec![0.0, 1.0, 4.0, 1.0, 0.0, 0.0]);
//! let b = TimeSeries::from_values(0, 500, vec![0.0, 0.0, 2.0, 8.0, 2.0, 0.0]);
//! let d = sbd::shape_based_distance(a.values(), b.values())?;
//! assert!(d.distance < 0.2, "shape-based distance ignores scale and lag");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod fft;
pub mod interpolate;
pub mod normalize;
pub mod resample;
pub mod sbd;
pub mod series;
pub mod spectrum;
pub mod stats;

mod error;

pub use error::TimeSeriesError;
pub use series::{SeriesView, TimeSeries};

/// Convenient result alias used by fallible operations in this crate.
pub type Result<T> = std::result::Result<T, TimeSeriesError>;
