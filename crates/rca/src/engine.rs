//! Step 5 and the end-to-end RCA engine.
//!
//! "We present a final list of {component, metric list} pairs. The list is
//! ordered by component, following the rank given in step 2. The metric list
//! items include the metrics identified at steps 3 and 4." (§4.2)

use crate::clusters::{
    assess_all_clusters, novelty_counts, ClusterAssessment, ClusterNoveltyCounts,
};
use crate::config::{RcaConfig, NOVELTY_THRESHOLD};
use crate::edges::{diff_edges, edge_novelty_counts, surviving_scope, EdgeDiff, EdgeNoveltyCounts};
use crate::metrics::{metric_diffs, rank_components, ComponentRanking, MetricDiff};
use sieve_core::SieveModel;
use sieve_exec::Name;
use std::collections::{BTreeMap, BTreeSet};

/// One entry of the final ranking: a candidate root-cause component with the
/// metrics a developer should inspect.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedCause {
    /// Final rank (1 = most likely related to the root cause).
    pub rank: usize,
    /// Component name.
    pub component: Name,
    /// Novelty score from step 2.
    pub novelty_score: usize,
    /// Metrics implicated by steps 3 and 4.
    pub metrics: Vec<Name>,
}

/// The full output of an RCA comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct RcaReport {
    /// Step 1: per-component metric differences.
    pub metric_diffs: Vec<MetricDiff>,
    /// Step 2: components ranked by metric novelty.
    pub component_rankings: Vec<ComponentRanking>,
    /// Step 3: per-cluster novelty and similarity assessments.
    pub cluster_assessments: Vec<ClusterAssessment>,
    /// Step 3 aggregate: the Figure 7a counts.
    pub cluster_novelty: ClusterNoveltyCounts,
    /// Step 4: classified dependency-graph edge differences.
    pub edge_diffs: Vec<EdgeDiff>,
    /// Step 4 aggregate: the Figure 7b counts at the configured threshold.
    pub edge_novelty: EdgeNoveltyCounts,
    /// Step 4 aggregate: `(components, clusters, metrics)` surviving the
    /// edge filter (Figure 7c).
    pub surviving_scope: (usize, usize, usize),
    /// Step 5: the final ranked list of candidate root causes.
    pub final_ranking: Vec<RankedCause>,
    /// The configuration used for the comparison.
    pub config: RcaConfig,
}

impl RcaReport {
    /// The rank of a component in the final ranking (1-based), if present.
    pub fn rank_of(&self, component: &str) -> Option<usize> {
        self.final_ranking
            .iter()
            .find(|c| c.component == component)
            .map(|c| c.rank)
    }

    /// The top `k` components of the final ranking, in rank order — what a
    /// scoring harness checks an injected root cause against.
    pub fn top_components(&self, k: usize) -> Vec<Name> {
        self.final_ranking
            .iter()
            .take(k)
            .map(|c| c.component.clone())
            .collect()
    }

    /// Whether a `(component, metric)` pair appears in the final ranking's
    /// metric lists.
    pub fn implicates_metric(&self, component: &str, metric: &str) -> bool {
        self.final_ranking
            .iter()
            .any(|c| c.component == component && c.metrics.iter().any(|m| m == metric))
    }
}

/// The root cause analysis engine.
#[derive(Debug, Clone, Default)]
pub struct RcaEngine {
    config: RcaConfig,
}

impl RcaEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: RcaConfig) -> Self {
        Self { config }
    }

    /// Compares the Sieve models of the correct and faulty versions and
    /// produces the five-step report.
    pub fn compare(&self, correct: &SieveModel, faulty: &SieveModel) -> RcaReport {
        // Steps 1 & 2.
        let diffs = metric_diffs(correct, faulty);
        let rankings = rank_components(&diffs);

        // Step 3.
        let assessments = assess_all_clusters(correct, faulty, &diffs);
        let cluster_novelty = novelty_counts(&assessments);

        // Step 4.
        let edge_diffs = diff_edges(correct, faulty, &assessments);
        let edge_novelty = edge_novelty_counts(&edge_diffs, &self.config);
        let scope = surviving_scope(&edge_diffs, &assessments, &self.config);

        // Step 5: components surviving the edge filter, ordered by the
        // step-2 ranking; their metric lists combine the novel-cluster
        // metrics (step 3) and the metrics on interesting edges (step 4).
        let surviving_components: BTreeSet<&Name> = edge_diffs
            .iter()
            .filter(|d| d.is_interesting(&self.config))
            .flat_map(|d| [&d.edge.source_component, &d.edge.target_component])
            .collect();

        let mut metric_lists: BTreeMap<Name, BTreeSet<Name>> = BTreeMap::new();
        for d in edge_diffs.iter().filter(|d| d.is_interesting(&self.config)) {
            metric_lists
                .entry(d.edge.source_component.clone())
                .or_default()
                .insert(d.edge.source_metric.clone());
            metric_lists
                .entry(d.edge.target_component.clone())
                .or_default()
                .insert(d.edge.target_metric.clone());
        }
        for a in &assessments {
            if !surviving_components.contains(&a.component) {
                continue;
            }
            if a.is_novel(NOVELTY_THRESHOLD) {
                let entry = metric_lists.entry(a.component.clone()).or_default();
                for m in a.new_metrics.iter().chain(a.discarded_metrics.iter()) {
                    entry.insert(m.clone());
                }
            }
        }

        let mut final_ranking = Vec::new();
        let mut rank = 0usize;
        for ranking in &rankings {
            if !surviving_components.contains(&ranking.component) {
                continue;
            }
            rank += 1;
            final_ranking.push(RankedCause {
                rank,
                component: ranking.component.clone(),
                novelty_score: ranking.novelty_score,
                metrics: metric_lists
                    .get(&ranking.component)
                    .map(|s| s.iter().cloned().collect())
                    .unwrap_or_default(),
            });
        }

        RcaReport {
            metric_diffs: diffs,
            component_rankings: rankings,
            cluster_assessments: assessments,
            cluster_novelty,
            edge_diffs,
            edge_novelty,
            surviving_scope: scope,
            final_ranking,
            config: self.config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_core::{ComponentClustering, MetricCluster};
    use sieve_graph::{DependencyEdge, DependencyGraph};

    fn clustering(component: &str, clusters: Vec<Vec<&str>>) -> ComponentClustering {
        ComponentClustering {
            component: component.into(),
            total_metrics: clusters.iter().map(|c| c.len()).sum::<usize>() + 1,
            filtered_metrics: vec!["some_constant".into()],
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

    /// A miniature OpenStack-like scenario: the faulty version gains an
    /// ERROR->DOWN edge, loses the healthy ACTIVE->ACTIVE edge, and an
    /// unrelated pair of components stays identical.
    fn scenario() -> (SieveModel, SieveModel) {
        let mut correct = SieveModel::default();
        correct.clusterings.insert(
            "nova-api".into(),
            clustering(
                "nova-api",
                vec![
                    vec!["instances_active", "cpu", "build_rate"],
                    vec!["req_rate"],
                ],
            ),
        );
        correct.clusterings.insert(
            "neutron".into(),
            clustering("neutron", vec![vec!["ports_active", "net"]]),
        );
        correct.clusterings.insert(
            "keystone".into(),
            clustering("keystone", vec![vec!["auth_rate", "auth_cpu"]]),
        );
        let mut cg = DependencyGraph::new();
        cg.add_edge(edge(
            "nova-api",
            "instances_active",
            "neutron",
            "ports_active",
            500,
        ));
        cg.add_edge(edge("nova-api", "req_rate", "keystone", "auth_rate", 500));
        correct.dependency_graph = cg;

        let mut faulty = SieveModel::default();
        faulty.clusterings.insert(
            "nova-api".into(),
            clustering(
                "nova-api",
                vec![vec!["instances_error", "cpu"], vec!["req_rate"]],
            ),
        );
        faulty.clusterings.insert(
            "neutron".into(),
            clustering("neutron", vec![vec!["ports_down", "net"]]),
        );
        faulty.clusterings.insert(
            "keystone".into(),
            clustering("keystone", vec![vec!["auth_rate", "auth_cpu"]]),
        );
        let mut fg = DependencyGraph::new();
        fg.add_edge(edge(
            "nova-api",
            "instances_error",
            "neutron",
            "ports_down",
            500,
        ));
        fg.add_edge(edge("nova-api", "req_rate", "keystone", "auth_rate", 500));
        faulty.dependency_graph = fg;
        (correct, faulty)
    }

    #[test]
    fn final_ranking_implicates_the_faulty_components_and_metrics() {
        let (correct, faulty) = scenario();
        let report = RcaEngine::new(RcaConfig::default()).compare(&correct, &faulty);

        // The healthy component never makes it into the final ranking.
        assert!(report.rank_of("keystone").is_none());
        // Both anomalous components are ranked.
        assert!(report.rank_of("nova-api").is_some());
        assert!(report.rank_of("neutron").is_some());
        // nova-api has the larger novelty score and therefore ranks first.
        assert_eq!(report.rank_of("nova-api"), Some(1));
        // top_components follows the final ranking and truncates at k.
        assert_eq!(report.top_components(1), vec![Name::from("nova-api")]);
        assert_eq!(report.top_components(10).len(), report.final_ranking.len());
        // The error/down metrics are in the metric lists.
        assert!(report.implicates_metric("nova-api", "instances_error"));
        assert!(report.implicates_metric("neutron", "ports_down"));
        let implicated: usize = report.final_ranking.iter().map(|c| c.metrics.len()).sum();
        assert!(implicated >= 4);
    }

    #[test]
    fn report_aggregates_are_consistent() {
        let (correct, faulty) = scenario();
        let report = RcaEngine::new(RcaConfig::default()).compare(&correct, &faulty);
        assert_eq!(report.metric_diffs.len(), 3);
        assert_eq!(report.component_rankings.len(), 3);
        assert!(report.cluster_novelty.novel() >= 2);
        assert!(report.edge_novelty.new >= 1);
        assert!(report.edge_novelty.discarded >= 1);
        let (components, clusters, metrics) = report.surviving_scope;
        assert!(components >= 2);
        assert!(clusters >= 2);
        assert!(metrics >= 2);
    }

    #[test]
    fn comparing_identical_versions_yields_an_empty_ranking() {
        let (correct, _) = scenario();
        let report = RcaEngine::new(RcaConfig::default()).compare(&correct, &correct.clone());
        assert!(report.final_ranking.is_empty());
        assert_eq!(report.cluster_novelty.novel(), 0);
        assert_eq!(report.edge_novelty.new, 0);
        assert_eq!(report.edge_novelty.discarded, 0);
        assert_eq!(report.surviving_scope, (0, 0, 0));
        assert!(report.final_ranking.iter().all(|c| c.metrics.is_empty()));
    }

    #[test]
    fn stricter_similarity_thresholds_never_grow_the_scope() {
        let (correct, faulty) = scenario();
        let loose = RcaEngine::new(RcaConfig::default().with_similarity_threshold(0.0))
            .compare(&correct, &faulty);
        let strict = RcaEngine::new(RcaConfig::default().with_similarity_threshold(0.7))
            .compare(&correct, &faulty);
        assert!(loose.surviving_scope.0 >= strict.surviving_scope.0);
        assert!(loose.surviving_scope.2 >= strict.surviving_scope.2);
        assert!(loose.final_ranking.len() >= strict.final_ranking.len());
    }
}
