//! Case study 2: root cause analysis (§4.2 and §6.3 of the paper).
//!
//! Given the Sieve models of a *correct* (C) and a *faulty* (F) version of an
//! application, the RCA engine narrows the search for a root cause down to a
//! ranked list of `{component, metric list}` pairs by following the five
//! steps of Figure 2:
//!
//! 1. **Metric analysis** ([`metric_diffs`]) — which metrics appeared or
//!    disappeared between versions (metrics present in both are healthy and
//!    filtered out);
//! 2. **Component rankings** ([`RcaEngine`]) — components ordered by their
//!    novelty score (number of new + discarded metrics);
//! 3. **Cluster analysis** ([`assess_component_clusters`]) — novelty and similarity of each
//!    component's clusters across versions (similarity uses a modified
//!    Jaccard coefficient normalised by the correct cluster's size);
//! 4. **Edge filtering** ([`diff_edges`]) — dependency-graph edges that are new,
//!    discarded or changed their time lag, filtered by cluster novelty and
//!    similarity thresholds;
//! 5. **Final rankings** ([`RcaEngine`]) — the surviving components, ordered by
//!    step-2 rank, each with the metrics implicated by steps 3 and 4.
//!
//! In the paper's OpenStack experiment this procedure ranks the Nova and
//! Neutron components at the top and isolates the edge between
//! `nova_instances_in_state_ERROR` and `neutron_ports_in_status_DOWN` — the
//! observable trace of the crashed Open vSwitch agent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]
#![deny(unnameable_types)]

mod clusters;
mod config;
mod edges;
mod engine;
mod metrics;

pub use clusters::{
    assess_all_clusters, assess_component_clusters, cluster_similarity, ClusterAssessment,
    ClusterNoveltyCounts,
};
pub use config::RcaConfig;
pub use edges::{diff_edges, EdgeChangeKind, EdgeDiff, EdgeNoveltyCounts};
pub use engine::{RankedCause, RcaEngine, RcaReport};
pub use metrics::{metric_diffs, ComponentRanking, MetricDiff};
