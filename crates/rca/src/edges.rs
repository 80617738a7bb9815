//! Step 4: edge filtering.
//!
//! The RCA engine examines the dependency-graph differences between the two
//! versions and keeps the edges that are most likely related to the anomaly
//! (§4.2, Table 2):
//!
//! 1. edges involving at least one *novel* cluster,
//! 2. edges that appear or disappear between clusters that are otherwise
//!    highly similar across versions, and
//! 3. edges whose Granger time lag changed between versions (again between
//!    similar clusters).

use crate::clusters::ClusterAssessment;
use crate::config::{RcaConfig, LAG_TOLERANCE_MS, NOVELTY_THRESHOLD};
use sieve_core::SieveModel;
use sieve_exec::Name;
use sieve_graph::DependencyEdge;
use std::collections::BTreeSet;

/// How an edge differs between the correct and faulty versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeChangeKind {
    /// The edge exists only in the faulty version.
    New,
    /// The edge exists only in the correct version.
    Discarded,
    /// The edge exists in both versions but its time lag changed.
    LagChanged,
    /// The edge exists in both versions with the same lag.
    Unchanged,
}

/// One dependency-graph edge annotated with its change classification and
/// the cluster context needed for filtering.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeDiff {
    /// The edge (taken from the faulty version when present there, otherwise
    /// from the correct version).
    pub edge: DependencyEdge,
    /// The classification of the change.
    pub change: EdgeChangeKind,
    /// Lag in the correct version (when the edge exists there).
    pub correct_lag_ms: Option<u64>,
    /// Lag in the faulty version (when the edge exists there).
    pub faulty_lag_ms: Option<u64>,
    /// Whether at least one endpoint metric belongs to a novel cluster.
    pub involves_novel_cluster: bool,
    /// The smaller of the two endpoint-cluster similarities.
    pub min_endpoint_similarity: f64,
}

impl EdgeDiff {
    /// Whether the edge survives the paper's filtering rules under `config`:
    /// changed edges that either touch a novel cluster or connect clusters
    /// maintained across versions (similarity above the threshold).
    pub fn is_interesting(&self, config: &RcaConfig) -> bool {
        if self.change == EdgeChangeKind::Unchanged {
            return false;
        }
        self.involves_novel_cluster || self.min_endpoint_similarity >= config.similarity_threshold
    }
}

/// Counts of edge classifications (one group of bars in Figure 7b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EdgeNoveltyCounts {
    /// Edges present only in the faulty version.
    pub new: usize,
    /// Edges present only in the correct version.
    pub discarded: usize,
    /// Edges whose lag changed.
    pub lag_changed: usize,
    /// Edges unchanged between versions.
    pub unchanged: usize,
}

impl EdgeNoveltyCounts {
    /// Total number of classified edges.
    #[cfg(test)]
    pub(crate) fn total(&self) -> usize {
        self.new + self.discarded + self.lag_changed + self.unchanged
    }
}

/// Looks up the cluster assessment covering `metric` of `component`.
///
/// A metric is covered either because it is a member of the (faulty-version)
/// cluster or because it is one of the metrics that *disappeared* from the
/// cluster's correct-version counterpart — discarded edges reference such
/// metrics.
fn assessment_for<'a>(
    assessments: &'a [ClusterAssessment],
    component: &str,
    metric: &str,
) -> Option<&'a ClusterAssessment> {
    assessments.iter().find(|a| {
        a.component == component
            && (a.members.iter().any(|m| m == metric)
                || a.discarded_metrics.iter().any(|m| m == metric))
    })
}

/// Classifies every edge of both dependency graphs and annotates it with the
/// cluster context from step 3.
pub fn diff_edges(
    correct: &SieveModel,
    faulty: &SieveModel,
    assessments: &[ClusterAssessment],
) -> Vec<EdgeDiff> {
    let correct_edges = correct.dependency_graph.edges();
    let faulty_edges = faulty.dependency_graph.edges();
    let correct_keys: BTreeSet<_> = correct_edges.iter().map(|e| e.metric_key()).collect();
    let faulty_keys: BTreeSet<_> = faulty_edges.iter().map(|e| e.metric_key()).collect();

    let mut out = Vec::new();

    let annotate = |edge: &DependencyEdge,
                    change: EdgeChangeKind,
                    correct_lag: Option<u64>,
                    faulty_lag: Option<u64>|
     -> EdgeDiff {
        let source = assessment_for(assessments, &edge.source_component, &edge.source_metric);
        let target = assessment_for(assessments, &edge.target_component, &edge.target_metric);
        let involves_novel_cluster = source
            .map(|a| a.is_novel(NOVELTY_THRESHOLD))
            .unwrap_or(false)
            || target
                .map(|a| a.is_novel(NOVELTY_THRESHOLD))
                .unwrap_or(false);
        let min_endpoint_similarity = source
            .map(|a| a.similarity)
            .unwrap_or(0.0)
            .min(target.map(|a| a.similarity).unwrap_or(0.0));
        EdgeDiff {
            edge: edge.clone(),
            change,
            correct_lag_ms: correct_lag,
            faulty_lag_ms: faulty_lag,
            involves_novel_cluster,
            min_endpoint_similarity,
        }
    };

    // Edges of the faulty version: new, lag-changed or unchanged.
    for edge in faulty_edges {
        if correct_keys.contains(&edge.metric_key()) {
            let correct_edge = correct_edges
                .iter()
                .find(|e| e.metric_key() == edge.metric_key())
                .expect("key present");
            let change = if edge.lag_ms.abs_diff(correct_edge.lag_ms) > LAG_TOLERANCE_MS {
                EdgeChangeKind::LagChanged
            } else {
                EdgeChangeKind::Unchanged
            };
            out.push(annotate(
                edge,
                change,
                Some(correct_edge.lag_ms),
                Some(edge.lag_ms),
            ));
        } else {
            out.push(annotate(edge, EdgeChangeKind::New, None, Some(edge.lag_ms)));
        }
    }
    // Edges that only exist in the correct version: discarded.
    for edge in correct_edges {
        if !faulty_keys.contains(&edge.metric_key()) {
            out.push(annotate(
                edge,
                EdgeChangeKind::Discarded,
                Some(edge.lag_ms),
                None,
            ));
        }
    }
    out
}

/// Aggregates edge diffs into the Figure 7b counts, considering only edges
/// whose endpoint similarity is at least `similarity_threshold` (or which
/// touch a novel cluster).
pub(crate) fn edge_novelty_counts(diffs: &[EdgeDiff], config: &RcaConfig) -> EdgeNoveltyCounts {
    let mut counts = EdgeNoveltyCounts::default();
    for d in diffs {
        let admitted =
            d.involves_novel_cluster || d.min_endpoint_similarity >= config.similarity_threshold;
        if !admitted {
            continue;
        }
        match d.change {
            EdgeChangeKind::New => counts.new += 1,
            EdgeChangeKind::Discarded => counts.discarded += 1,
            EdgeChangeKind::LagChanged => counts.lag_changed += 1,
            EdgeChangeKind::Unchanged => counts.unchanged += 1,
        }
    }
    counts
}

/// The `(components, clusters, metrics)` touched by the interesting edges —
/// the quantities plotted in Figure 7c.
pub(crate) fn surviving_scope(
    diffs: &[EdgeDiff],
    assessments: &[ClusterAssessment],
    config: &RcaConfig,
) -> (usize, usize, usize) {
    let mut components: BTreeSet<Name> = BTreeSet::new();
    let mut clusters: BTreeSet<(Name, Option<usize>)> = BTreeSet::new();
    let mut metrics: BTreeSet<(Name, Name)> = BTreeSet::new();
    for d in diffs.iter().filter(|d| d.is_interesting(config)) {
        for (component, metric) in [
            (&d.edge.source_component, &d.edge.source_metric),
            (&d.edge.target_component, &d.edge.target_metric),
        ] {
            components.insert(component.clone());
            metrics.insert((component.clone(), metric.clone()));
            if let Some(a) = assessment_for(assessments, component, metric) {
                clusters.insert((a.component.clone(), a.faulty_index));
                // Every member of an implicated cluster is part of the state
                // the developer needs to look at.
                for m in &a.members {
                    metrics.insert((component.clone(), m.clone()));
                }
            }
        }
    }
    (components.len(), clusters.len(), metrics.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clusters::assess_all_clusters;
    use crate::metrics::metric_diffs;
    use sieve_core::{ComponentClustering, MetricCluster};
    use sieve_graph::DependencyGraph;

    fn clustering(component: &str, clusters: Vec<Vec<&str>>) -> ComponentClustering {
        ComponentClustering {
            component: component.into(),
            total_metrics: clusters.iter().map(|c| c.len()).sum(),
            filtered_metrics: vec![],
            clusters: clusters
                .into_iter()
                .map(|members| MetricCluster {
                    representative: members[0].into(),
                    members: members.into_iter().map(Name::from).collect(),
                    representative_distance: 0.05,
                })
                .collect(),
            silhouette: 0.6,
            chosen_k: 1,
        }
    }

    fn edge(sc: &str, sm: &str, tc: &str, tm: &str, lag: u64) -> DependencyEdge {
        DependencyEdge {
            source_component: sc.into(),
            source_metric: sm.into(),
            target_component: tc.into(),
            target_metric: tm.into(),
            p_value: 0.01,
            f_statistic: 20.0,
            lag_ms: lag,
        }
    }

    /// Correct version: api {active} -> server {ports_active}.
    /// Faulty version: api {error} -> server {ports_down}, plus a lag change
    /// on a stable edge.
    fn models() -> (SieveModel, SieveModel) {
        let mut correct = SieveModel::default();
        correct
            .clusterings
            .insert("api".into(), clustering("api", vec![vec!["active", "cpu"]]));
        correct.clusterings.insert(
            "server".into(),
            clustering("server", vec![vec!["ports_active", "net"]]),
        );
        let mut cg = DependencyGraph::new();
        cg.add_edge(edge("api", "active", "server", "ports_active", 500));
        cg.add_edge(edge("api", "cpu", "server", "net", 500));
        correct.dependency_graph = cg;

        let mut faulty = SieveModel::default();
        faulty
            .clusterings
            .insert("api".into(), clustering("api", vec![vec!["error", "cpu"]]));
        faulty.clusterings.insert(
            "server".into(),
            clustering("server", vec![vec!["ports_down", "net"]]),
        );
        let mut fg = DependencyGraph::new();
        fg.add_edge(edge("api", "error", "server", "ports_down", 500));
        fg.add_edge(edge("api", "cpu", "server", "net", 2000));
        faulty.dependency_graph = fg;
        (correct, faulty)
    }

    fn full_diff() -> (Vec<EdgeDiff>, Vec<ClusterAssessment>) {
        let (correct, faulty) = models();
        let diffs = metric_diffs(&correct, &faulty);
        let assessments = assess_all_clusters(&correct, &faulty, &diffs);
        (diff_edges(&correct, &faulty, &assessments), assessments)
    }

    #[test]
    fn edge_changes_are_classified() {
        let (diffs, _) = full_diff();
        let kinds: Vec<EdgeChangeKind> = diffs.iter().map(|d| d.change).collect();
        assert!(kinds.contains(&EdgeChangeKind::New));
        assert!(kinds.contains(&EdgeChangeKind::Discarded));
        assert!(kinds.contains(&EdgeChangeKind::LagChanged));
        assert_eq!(diffs.len(), 3);
    }

    #[test]
    fn the_error_edge_touches_a_novel_cluster() {
        let (diffs, _) = full_diff();
        let new_edge = diffs
            .iter()
            .find(|d| d.change == EdgeChangeKind::New)
            .unwrap();
        assert_eq!(new_edge.edge.source_metric, "error");
        assert!(new_edge.involves_novel_cluster);
        assert!(new_edge.is_interesting(&RcaConfig::default()));
    }

    #[test]
    fn lag_changed_edges_record_both_lags() {
        let (diffs, _) = full_diff();
        let lag = diffs
            .iter()
            .find(|d| d.change == EdgeChangeKind::LagChanged)
            .unwrap();
        assert_eq!(lag.correct_lag_ms, Some(500));
        assert_eq!(lag.faulty_lag_ms, Some(2000));
    }

    #[test]
    fn novelty_counts_and_scope_shrink_with_higher_thresholds() {
        let (diffs, assessments) = full_diff();
        let loose = RcaConfig::default().with_similarity_threshold(0.0);
        let strict = RcaConfig::default().with_similarity_threshold(0.9);
        let loose_counts = edge_novelty_counts(&diffs, &loose);
        let strict_counts = edge_novelty_counts(&diffs, &strict);
        assert!(loose_counts.total() >= strict_counts.total());
        let (c_loose, _, m_loose) = surviving_scope(&diffs, &assessments, &loose);
        let (c_strict, _, m_strict) = surviving_scope(&diffs, &assessments, &strict);
        assert!(c_loose >= c_strict);
        assert!(m_loose >= m_strict);
        assert!(c_loose <= 2);
    }

    #[test]
    fn identical_models_have_only_unchanged_edges() {
        let (correct, _) = models();
        let diffs = metric_diffs(&correct, &correct.clone());
        let assessments = assess_all_clusters(&correct, &correct.clone(), &diffs);
        let config = RcaConfig::default();
        let edge_diffs = diff_edges(&correct, &correct.clone(), &assessments);
        assert!(edge_diffs
            .iter()
            .all(|d| d.change == EdgeChangeKind::Unchanged));
        assert!(edge_diffs.iter().all(|d| !d.is_interesting(&config)));
        let (c, cl, m) = surviving_scope(&edge_diffs, &assessments, &config);
        assert_eq!((c, cl, m), (0, 0, 0));
    }
}
