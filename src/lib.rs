//! # Sieve — actionable insights from monitored metrics in distributed systems
//!
//! A from-scratch Rust reproduction of *Sieve: Actionable Insights from
//! Monitored Metrics in Distributed Systems* (Thalheim et al.,
//! ACM/IFIP/USENIX Middleware 2017), including every substrate the paper's
//! evaluation depends on.
//!
//! Sieve turns the thousands of metrics a microservices-based application
//! exports into something an operator can act on, in three steps:
//!
//! 1. **Load the application** and record all metrics plus the component
//!    call graph ([`simulator`], [`apps`]);
//! 2. **Reduce the metric space** by filtering unvarying metrics and
//!    clustering the rest with k-Shape under the shape-based distance,
//!    keeping one representative metric per cluster ([`cluster`],
//!    [`core::reduce`]);
//! 3. **Identify dependencies** between the representative metrics of
//!    communicating components with Granger-causality tests
//!    ([`causality`], [`core::dependencies`]), yielding a metric dependency
//!    graph ([`graph`]).
//!
//! Two case-study engines consume the resulting model: orchestration of
//! autoscaling ([`autoscale`]) and root cause analysis ([`rca`]). At scale,
//! the multi-tenant serving layer ([`serve`]) multiplexes many isolated
//! applications' incremental analysis sessions behind a sharded registry,
//! refreshing only what each observation round actually changed —
//! optionally crash-safe through a per-shard write-ahead log with model
//! snapshots and replay-on-boot ([`wal`], [`serve::SieveService::recover`]).
//! The whole stack is graded against adversarial workloads with scripted
//! ground truth by the chaos-scenario engine ([`scenario`]): seeded
//! scenarios inject faults, bursts and dependency drift, and scoring
//! harnesses check that RCA ranks the injected root cause, the
//! incremental session tracks the drift, and autoscaling reacts in time.
//!
//! ## Quick start
//!
//! ```no_run
//! use sieve::apps::{sharelatex, MetricRichness};
//! use sieve::core::{Sieve, SieveConfig};
//! use sieve::simulator::Workload;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Model the application (here: the ShareLatex-like deployment).
//! let app = sharelatex::app_spec(MetricRichness::Minimal);
//!
//! // 2.–3. Run the Sieve pipeline: load, reduce, identify dependencies.
//! let model = Sieve::new(SieveConfig::default())
//!     .analyze_application(&app, &Workload::randomized(60.0, 1), 42)?;
//!
//! println!(
//!     "{} metrics -> {} representatives ({}x reduction), {} dependency edges",
//!     model.total_metric_count(),
//!     model.total_representative_count(),
//!     model.overall_reduction_factor().round(),
//!     model.dependency_graph.edge_count()
//! );
//! # Ok(())
//! # }
//! ```
//!
//! See the `examples/` directory for the full autoscaling and RCA workflows
//! and the `sieve-bench` crate for the harness that regenerates every table
//! and figure of the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]
#![deny(unnameable_types)]

pub use sieve_apps as apps;
pub use sieve_autoscale as autoscale;
pub use sieve_causality as causality;
pub use sieve_cluster as cluster;
pub use sieve_core as core;
pub use sieve_exec as exec;
pub use sieve_graph as graph;
pub use sieve_rca as rca;
pub use sieve_scenario as scenario;
pub use sieve_serve as serve;
pub use sieve_simulator as simulator;
pub use sieve_timeseries as timeseries;
pub use sieve_wal as wal;

/// The most commonly used items, re-exported for convenience.
pub mod prelude {
    pub use sieve_apps::MetricRichness;
    pub use sieve_autoscale::{AutoscaleEngine, AutoscalingReport, ScalingRule, SlaCondition};
    pub use sieve_causality::{
        granger_causes, granger_causes_prepared, GrangerConfig, GrangerResult,
        PreparedGrangerSeries,
    };
    pub use sieve_cluster::{KShape, KShapeConfig, KShapeResult};
    pub use sieve_core::{
        load_application, AnalysisSession, ComponentClustering, MetricCluster, RetentionPolicy,
        SessionStats, Sieve, SieveConfig, SieveModel,
    };
    pub use sieve_exec::{par_map_chunks, Name};
    pub use sieve_graph::{CallGraph, DependencyEdge, DependencyGraph};
    pub use sieve_rca::{RcaConfig, RcaEngine, RcaReport};
    pub use sieve_scenario::{
        generate, scenario_matrix, score_clusters, score_drift, score_rca, smoke_matrix,
        GroundTruth, ScenarioCase, ScenarioData, ScenarioSpec,
    };
    pub use sieve_serve::{
        DurabilityConfig, FsyncPolicy, MetricPoint, RecoveryReport, ServeConfig, ServiceStats,
        SieveService,
    };
    pub use sieve_simulator::store::{MetricId, MetricStore, StoreDelta};
    pub use sieve_simulator::{
        AppSpec, CallSpec, ComponentSpec, MetricBehavior, MetricSpec, SimConfig, Simulation,
        Workload,
    };
    pub use sieve_timeseries::TimeSeries;
}
