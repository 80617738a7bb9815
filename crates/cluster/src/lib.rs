//! Time-series clustering for Sieve's metric-reduction step.
//!
//! Sieve organises each component's metrics into a small number of clusters
//! of similar-behaving time series (§3.2 of the paper) using the k-Shape
//! algorithm of Paparrizos & Gravano, with three adjustments:
//!
//! 1. observations are interpolated and discretised to a 500 ms grid
//!    (provided by `sieve-timeseries`),
//! 2. the initial assignment is derived from metric-*name* similarity
//!    (Jaro distance) instead of being random ([`jaro`]), and
//! 3. the number of clusters is chosen by maximising the silhouette score
//!    computed under the shape-based distance ([`silhouette`]).
//!
//! Because the k sweep re-evaluates the same pairwise distances — and, from
//! one `k` to the next or around a cycle, re-refines the same clusters — for
//! every candidate `k`, the hot path runs on a shared SBD engine: per-series
//! spectra ([`sieve_timeseries::spectrum`]) and a memo of every cluster
//! refinement performed, both held by one [`KShapeSeriesCache`] per
//! sweep, and a pairwise [`distance::DistanceMatrix`] computed once and read
//! by every silhouette evaluation — bit-identical to the direct path, just
//! without the redundant FFTs and power iterations.
//!
//! The robustness evaluation of the paper (Figure 3) compares cluster
//! assignments across measurement runs with the Adjusted Mutual Information
//! score, implemented in [`adjusted_mutual_information`].
//!
//! # Example
//!
//! ```
//! use sieve_cluster::{KShape, KShapeConfig};
//!
//! // Two obvious groups of shapes: rising ramps and single spikes.
//! let series: Vec<Vec<f64>> = vec![
//!     (0..32).map(|i| i as f64).collect(),
//!     (0..32).map(|i| i as f64 * 2.0 + 3.0).collect(),
//!     (0..32).map(|i| if i == 10 { 5.0 } else { 0.0 }).collect(),
//!     (0..32).map(|i| if i == 12 { 9.0 } else { 0.1 }).collect(),
//! ];
//! let result = KShape::new(KShapeConfig::new(2)).fit(&series).unwrap();
//! assert_eq!(result.assignments[0], result.assignments[1]);
//! assert_eq!(result.assignments[2], result.assignments[3]);
//! assert_ne!(result.assignments[0], result.assignments[2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]
#![deny(unnameable_types)]

mod ami;
pub mod distance;
pub mod jaro;
mod kshape;
pub mod silhouette;

mod error;

pub use ami::adjusted_mutual_information;
pub use error::ClusterError;
pub use kshape::{KShape, KShapeConfig, KShapeResult, KShapeSeriesCache};

/// Convenient result alias for clustering operations.
pub type Result<T> = std::result::Result<T, ClusterError>;
