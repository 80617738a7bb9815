//! Multi-tenant sharded serving layer for Sieve analysis.
//!
//! The paper's two case studies consume the Sieve model *as a service*:
//! ShareLatex autoscaling polls it for the guiding metric, OpenStack RCA
//! asks it for dependency graphs of two deployments. This crate is the
//! layer that serves many such consumers at once: a
//! [`SieveService`] owns N tenants — each an isolated
//! `(MetricStore, AnalysisSession)` pair — behind a sharded registry, and
//! multiplexes their refreshes over the shared deterministic executor.
//!
//! # Architecture
//!
//! * **Sharded registry** (internal): tenant name → shard
//!   via the deterministic [`sieve_exec::hash::shard_index`] routing hash
//!   over a fixed power-of-two shard count, one `RwLock`-protected map per
//!   shard. Shard locks guard only the name→tenant lookup; all per-tenant
//!   state carries finer locks, so ingest on tenant A never contends with
//!   analysis on tenant B.
//! * **Batched ingestion** ([`SieveService::ingest`]): appends
//!   [`MetricPoint`]s through the store's append/delta API — every
//!   accepted point advances a content fingerprint and marks its series
//!   touched.
//! * **Dirty sweep** ([`SieveService::refresh_dirty`]): drains
//!   every tenant's [`sieve_simulator::store::StoreDelta`] and refreshes
//!   exactly the dirty tenants through one
//!   [`sieve_exec::par_map_chunks`] fan-out in sorted tenant order —
//!   deterministic across sweep parallelism degrees, and bit-identical to
//!   per-tenant batch analysis (the incremental-session guarantee,
//!   asserted by the `service_property` test and the unit tests).
//! * **Model snapshots** ([`SieveService::model`]): each refresh
//!   publishes an `Arc<SieveModel>` swap; readers clone the `Arc` under a
//!   momentary read lock and never block (or get blocked by) writers.
//! * **Aggregated stats** ([`ServiceStats`]): per-tenant
//!   [`sieve_core::SessionStats`] summed across the fleet, so
//!   "only dirty work was redone" stays observable at service scale.
//! * **Crash safety** (opt-in via [`DurabilityConfig`]): every
//!   accepted ingest batch and tenant-admin event is group-committed to a
//!   per-shard write-ahead log with periodic atomic snapshots, and
//!   [`SieveService::recover`] replays snapshot + log tail on
//!   boot through the ordinary store machinery — the recovered service
//!   publishes models bit-identical to the pre-crash live ones, and a
//!   torn or bit-flipped log tail degrades exactly the affected tenants
//!   with a precisely accounted lost suffix
//!   ([`RecoveryReport`]).
//! * **Warm restart**: after a sweep that computed something new, each
//!   affected shard's analysis caches are checkpointed beside its log (a
//!   cache, with no fsync), and recovery seeds every tenant's session from
//!   it, so the first sweep after a crash re-clusters and re-tests only
//!   what changed since — with the model a cold restart publishes.
//!
//! Each of the service's protocols has one home: `service` holds
//! [`SieveService`] itself — construction, tenant admin, ingest and the
//! read accessors; `durable` the path every tenant mutation takes to
//! become durable (the lock order, as code), the snapshot cadence and the
//! one snapshot writer; `sweep` the one refresh sweep and the fleet
//! gauges; `checkpoint` the analysis checkpoint a sweep writes and the
//! seeds recovery reads from it; `recovery` the replay of one shard next
//! to the report it produces; `registry` the sharded name→tenant map; `tenant` the
//! per-tenant state with its locks behind accessors.
//!
//! # Example
//!
//! ```
//! use sieve_core::SieveConfig;
//! use sieve_graph::CallGraph;
//! use sieve_serve::{MetricPoint, ServeConfig, SieveService};
//!
//! let config = ServeConfig::default()
//!     .with_analysis(SieveConfig::default().with_cluster_range(2, 2).with_parallelism(1));
//! let service = SieveService::new(config)?;
//! service.create_tenant("tenant-a", CallGraph::new())?;
//! let points: Vec<MetricPoint> = (0..60)
//!     .map(|t| MetricPoint::new("web", "load", t * 500, (t as f64 * 0.3).sin()))
//!     .collect();
//! service.ingest("tenant-a", &points)?;
//! service.refresh_dirty()?;
//! assert!(service.model("tenant-a")?.is_some());
//! # Ok::<(), sieve_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]
#![deny(unnameable_types)]
// A function over the default threshold (100 lines) is several functions;
// CI runs clippy with `-D warnings`, so none can accrete here.
#![warn(clippy::too_many_lines)]

mod checkpoint;
mod config;
mod durable;
mod error;
mod recovery;
mod registry;
mod service;
mod stats;
mod sweep;
mod tenant;

pub use config::{DurabilityConfig, ServeConfig};
pub use error::ServeError;
pub use recovery::{
    CheckpointSeeding, CorruptionSummary, LostSuffix, RecoveryReport, ShardRecovery, TenantRecovery,
};
pub use service::SieveService;
pub use stats::ServiceStats;
pub use tenant::MetricPoint;

// Re-exported so durable-serving callers can pick an fsync policy
// without depending on `sieve-wal` directly.
pub use sieve_wal::FsyncPolicy;

/// Convenient result alias for serving-layer operations.
pub type Result<T> = std::result::Result<T, ServeError>;
