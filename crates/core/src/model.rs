//! The output model of a Sieve analysis.
//!
//! All component and metric identifiers in the model are interned
//! [`Name`]s: cloning a model (or lifting names out of it into the RCA and
//! autoscaling engines) bumps reference counts instead of copying strings,
//! and lookups hit the interner's pointer-equality fast path.

use sieve_exec::Name;
use sieve_graph::DependencyGraph;
use std::collections::BTreeMap;

/// One cluster of similarly behaving metrics within a component.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricCluster {
    /// Names of the metrics assigned to this cluster.
    pub members: Vec<Name>,
    /// The representative metric: the member closest (by shape-based
    /// distance) to the cluster centroid.
    pub representative: Name,
    /// Shape-based distance between the representative and the centroid.
    pub representative_distance: f64,
}

impl MetricCluster {
    /// Number of metrics in the cluster.
    #[cfg(test)]
    pub(crate) fn size(&self) -> usize {
        self.members.len()
    }

    /// Whether the given metric belongs to this cluster.
    pub fn contains(&self, metric: &str) -> bool {
        self.members.iter().any(|m| m == metric)
    }
}

/// The clustering of one component's metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentClustering {
    /// Component name.
    pub component: Name,
    /// Total number of metrics the component exported.
    pub total_metrics: usize,
    /// Metrics dropped by the variance filter.
    pub filtered_metrics: Vec<Name>,
    /// The clusters of the remaining metrics.
    pub clusters: Vec<MetricCluster>,
    /// Silhouette score of the chosen clustering (under SBD).
    pub silhouette: f64,
    /// The chosen number of clusters.
    pub chosen_k: usize,
}

impl ComponentClustering {
    /// The representative metrics of this component (one per cluster).
    pub fn representatives(&self) -> Vec<Name> {
        self.clusters
            .iter()
            .map(|c| c.representative.clone())
            .collect()
    }

    /// All metrics that survived the variance filter.
    pub fn clustered_metrics(&self) -> Vec<Name> {
        self.clusters
            .iter()
            .flat_map(|c| c.members.iter().cloned())
            .collect()
    }
}

/// The complete result of a Sieve analysis: per-component clusterings plus
/// the metric dependency graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SieveModel {
    /// Name of the analysed application.
    pub application: String,
    /// Per-component clustering results, keyed by component name.
    pub clusterings: BTreeMap<Name, ComponentClustering>,
    /// The dependency graph over representative metrics.
    pub dependency_graph: DependencyGraph,
}

impl SieveModel {
    /// Total number of metrics exported by all components.
    pub fn total_metric_count(&self) -> usize {
        self.clusterings.values().map(|c| c.total_metrics).sum()
    }

    /// Total number of representative metrics (i.e. what an operator has to
    /// monitor after Sieve's reduction).
    pub fn total_representative_count(&self) -> usize {
        self.clusterings.values().map(|c| c.clusters.len()).sum()
    }

    /// Overall reduction factor of the metric space.
    pub fn overall_reduction_factor(&self) -> f64 {
        let reps = self.total_representative_count();
        if reps == 0 {
            return 1.0;
        }
        self.total_metric_count() as f64 / reps as f64
    }

    /// The representative metrics of every component, as
    /// `(component, metric)` pairs — the set an operator keeps monitoring.
    pub fn representative_metrics(&self) -> Vec<(Name, Name)> {
        self.clusterings
            .values()
            .flat_map(|c| {
                let component = c.component.clone();
                c.representatives()
                    .into_iter()
                    .map(move |m| (component.clone(), m))
            })
            .collect()
    }

    /// The clustering of one component, if present.
    pub fn clustering_of(&self, component: &str) -> Option<&ComponentClustering> {
        self.clusterings.get(component)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustering(component: &str, total: usize, clusters: Vec<Vec<&str>>) -> ComponentClustering {
        ComponentClustering {
            component: component.into(),
            total_metrics: total,
            filtered_metrics: vec![],
            clusters: clusters
                .into_iter()
                .map(|members| MetricCluster {
                    representative: members[0].into(),
                    members: members.into_iter().map(Name::from).collect(),
                    representative_distance: 0.1,
                })
                .collect(),
            silhouette: 0.7,
            chosen_k: 2,
        }
    }

    #[test]
    fn cluster_accessors() {
        let c = clustering("web", 10, vec![vec!["cpu", "mem"], vec!["latency"]]);
        assert_eq!(c.representatives(), vec!["cpu", "latency"]);
        assert_eq!(c.clustered_metrics().len(), 3);
        assert_eq!(c.clusters[0].size(), 2);
    }

    #[test]
    fn model_aggregates_counts() {
        let mut model = SieveModel {
            application: "test".into(),
            ..Default::default()
        };
        model.clusterings.insert(
            "web".into(),
            clustering("web", 30, vec![vec!["a"], vec!["b", "c"]]),
        );
        model
            .clusterings
            .insert("db".into(), clustering("db", 20, vec![vec!["q"]]));
        assert_eq!(model.total_metric_count(), 50);
        assert_eq!(model.total_representative_count(), 3);
        assert!((model.overall_reduction_factor() - 50.0 / 3.0).abs() < 1e-9);
        assert_eq!(model.representative_metrics().len(), 3);
        assert!(model.clustering_of("web").is_some());
        assert!(model.clustering_of("nope").is_none());
    }

    #[test]
    fn empty_model_has_factor_one() {
        let model = SieveModel::default();
        assert_eq!(model.overall_reduction_factor(), 1.0);
    }

    #[test]
    fn clone_equality_roundtrip() {
        let c = clustering("web", 10, vec![vec!["cpu", "mem"]]);
        let copy = c.clone();
        assert_eq!(copy, c);
    }
}
