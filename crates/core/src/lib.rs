//! The Sieve pipeline: actionable insights from monitored metrics.
//!
//! This crate implements the paper's primary contribution — the three-step
//! pipeline of §3:
//!
//! 1. **Load the application** ([`load_application`]): run the
//!    application under a workload, record every exported metric as a time
//!    series and capture the component call graph.
//! 2. **Reduce metrics** ([`reduce`]): per component, drop unvarying metrics
//!    (variance ≤ 0.002), interpolate and discretise the rest onto a 500 ms
//!    grid, cluster them with k-Shape (warm-started from metric-name
//!    similarity), choose the cluster count by silhouette score and keep one
//!    *representative metric* per cluster.
//! 3. **Identify dependencies** ([`dependencies`]): for every pair of
//!    communicating components, test each representative metric of the
//!    caller against each representative metric of the callee with Granger
//!    causality (plain and time-lagged), and keep the statistically
//!    significant directed edges, dropping bidirectional (likely spurious)
//!    relations.
//!
//! The result is a [`SieveModel`]: per-component clusterings plus a
//! metric dependency graph, which the autoscaling (`sieve-autoscale`) and
//! RCA (`sieve-rca`) engines consume.
//!
//! Steps 2 and 3 run inside an epoch-based incremental engine, the
//! [`AnalysisSession`]: long-lived per-series state absorbs store
//! deltas and recomputes only what a delta dirties, while
//! [`Sieve::analyze`] is the batch special case (a fresh session
//! with everything dirty) — so streaming and batch share one code path and
//! emit bit-identical models. What "identical" is measured against lives in
//! [`oracle_analyze`] (module `oracle`): the same analysis written serially and statelessly on the
//! recomputing reference kernels.
//!
//! # Example
//!
//! ```no_run
//! use sieve_apps::{sharelatex, MetricRichness};
//! use sieve_core::{Sieve, SieveConfig};
//! use sieve_simulator::Workload;
//!
//! let app = sharelatex::app_spec(MetricRichness::Minimal);
//! let sieve = Sieve::new(SieveConfig::default());
//! let model = sieve
//!     .analyze_application(&app, &Workload::randomized(60.0, 1), 0xFEED)
//!     .unwrap();
//! println!(
//!     "{} metrics reduced to {} representatives",
//!     model.total_metric_count(),
//!     model.total_representative_count()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]
#![deny(unnameable_types)]

pub mod columnar;
mod config;
pub mod dependencies;
mod model;
mod oracle;
mod pipeline;
pub mod reduce;
mod session;

mod error;

pub use config::{GrangerConfig, RetentionPolicy, SieveConfig};
pub use error::SieveError;
pub use model::{ComponentClustering, MetricCluster, SieveModel};
pub use oracle::analyze as oracle_analyze;
pub use pipeline::{load_application, load_application_with_retention, Sieve};
pub use session::{AnalysisSession, CachedClustering, CachedVerdict, SessionCache, SessionStats};

/// Convenient result alias for pipeline operations.
pub type Result<T> = std::result::Result<T, SieveError>;
