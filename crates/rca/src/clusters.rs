//! Step 3: cluster novelty and similarity.
//!
//! "Clusters aggregate component metrics which exhibit similar behavior over
//! time. The clusters with new or discarded metrics should be more
//! interesting for RCA ... In addition, we track the similarity of a
//! component's clusters between C and F versions." (§4.2)
//!
//! The similarity score is the modified Jaccard coefficient of equation (2):
//! `S = |M_C ∩ M_F| / |M_C|` — normalised by the *correct* cluster only so
//! that new metrics added in the faulty cluster do not penalise the match.

use crate::metrics::MetricDiff;
use sieve_core::{ComponentClustering, SieveModel};
use sieve_exec::Name;
use std::collections::BTreeSet;

/// Modified Jaccard similarity between a correct-version cluster and a
/// faulty-version cluster (equation 2 of the paper).
pub fn cluster_similarity(correct_members: &[Name], faulty_members: &[Name]) -> f64 {
    if correct_members.is_empty() {
        return 0.0;
    }
    let correct: BTreeSet<&Name> = correct_members.iter().collect();
    let faulty: BTreeSet<&Name> = faulty_members.iter().collect();
    correct.intersection(&faulty).count() as f64 / correct.len() as f64
}

/// Novelty and similarity of one faulty-version (or vanished
/// correct-version) cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterAssessment {
    /// Component the cluster belongs to.
    pub component: Name,
    /// Index of the cluster in the faulty version (`None` for clusters that
    /// only exist in the correct version).
    pub faulty_index: Option<usize>,
    /// Index of the best-matching cluster in the correct version, if any.
    pub matched_correct_index: Option<usize>,
    /// Similarity to that best match (0 when there is none).
    pub similarity: f64,
    /// New metrics (per step 1) that live in this cluster.
    pub new_metrics: Vec<Name>,
    /// Discarded metrics (per step 1) associated with this cluster (for
    /// vanished correct-version clusters these are their members).
    pub discarded_metrics: Vec<Name>,
    /// All members of the cluster (faulty version when present, correct
    /// version otherwise).
    pub members: Vec<Name>,
}

impl ClusterAssessment {
    /// Novelty score of the cluster: number of new + discarded metrics.
    pub fn novelty_score(&self) -> usize {
        self.new_metrics.len() + self.discarded_metrics.len()
    }

    /// Whether the cluster is considered novel under the given threshold.
    pub fn is_novel(&self, novelty_threshold: usize) -> bool {
        self.novelty_score() >= novelty_threshold.max(1)
    }
}

/// Aggregate counts over a component's clusters (one slice of Figure 7a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterNoveltyCounts {
    /// Clusters containing only new metrics (among their changed metrics).
    pub with_new_only: usize,
    /// Clusters containing only discarded metrics.
    pub with_discarded_only: usize,
    /// Clusters containing both new and discarded metrics.
    pub with_new_and_discarded: usize,
    /// Clusters whose membership changed without new/discarded metrics
    /// (metrics moved between clusters).
    pub changed_membership: usize,
    /// Total number of clusters assessed.
    pub total: usize,
}

impl ClusterNoveltyCounts {
    /// Number of clusters with at least one new or discarded metric.
    pub fn novel(&self) -> usize {
        self.with_new_only + self.with_discarded_only + self.with_new_and_discarded
    }
}

/// Assesses every cluster of one component: matches faulty clusters to their
/// most similar correct clusters, attaches the step-1 new/discarded metrics
/// and computes similarity scores. Clusters that exist only in the correct
/// version (all their metrics disappeared) are reported too.
pub fn assess_component_clusters(
    component: &str,
    correct: Option<&ComponentClustering>,
    faulty: Option<&ComponentClustering>,
    diff: &MetricDiff,
) -> Vec<ClusterAssessment> {
    let empty: Vec<sieve_core::MetricCluster> = Vec::new();
    let correct_clusters = correct.map(|c| c.clusters.as_slice()).unwrap_or(&empty);
    let faulty_clusters = faulty.map(|c| c.clusters.as_slice()).unwrap_or(&empty);

    let new_set: BTreeSet<&Name> = diff.new_metrics.iter().collect();
    let discarded_set: BTreeSet<&Name> = diff.discarded_metrics.iter().collect();

    let mut out = Vec::new();

    // Faulty clusters, matched against the correct version.
    for (fi, fc) in faulty_clusters.iter().enumerate() {
        let mut best: Option<(usize, f64)> = None;
        for (ci, cc) in correct_clusters.iter().enumerate() {
            let s = cluster_similarity(&cc.members, &fc.members);
            if best.map_or(true, |(_, b)| s > b) {
                best = Some((ci, s));
            }
        }
        let new_metrics: Vec<Name> = fc
            .members
            .iter()
            .filter(|m| new_set.contains(m))
            .cloned()
            .collect();
        // Discarded metrics "associated" with this cluster: metrics that
        // disappeared from its best-matching correct cluster.
        let discarded_metrics: Vec<Name> = match best {
            Some((ci, _)) => correct_clusters[ci]
                .members
                .iter()
                .filter(|m| discarded_set.contains(m))
                .cloned()
                .collect(),
            None => Vec::new(),
        };
        out.push(ClusterAssessment {
            component: component.into(),
            faulty_index: Some(fi),
            matched_correct_index: best.map(|(ci, _)| ci),
            similarity: best.map(|(_, s)| s).unwrap_or(0.0),
            new_metrics,
            discarded_metrics,
            members: fc.members.clone(),
        });
    }

    // Correct clusters that have no counterpart at all in the faulty version
    // (every member was discarded or moved).
    for cc in correct_clusters.iter() {
        let vanished = cc.members.iter().all(|m| discarded_set.contains(m));
        if vanished && !cc.members.is_empty() {
            out.push(ClusterAssessment {
                component: component.into(),
                faulty_index: None,
                matched_correct_index: None,
                similarity: 0.0,
                new_metrics: Vec::new(),
                discarded_metrics: cc.members.clone(),
                members: cc.members.clone(),
            });
        }
    }

    out
}

/// Assesses every component of two models and returns all cluster
/// assessments.
pub fn assess_all_clusters(
    correct: &SieveModel,
    faulty: &SieveModel,
    diffs: &[MetricDiff],
) -> Vec<ClusterAssessment> {
    let mut out = Vec::new();
    for diff in diffs {
        let assessments = assess_component_clusters(
            &diff.component,
            correct.clustering_of(&diff.component),
            faulty.clustering_of(&diff.component),
            diff,
        );
        out.extend(assessments);
    }
    out
}

/// Aggregates cluster assessments into the Figure 7a counts.
pub(crate) fn novelty_counts(assessments: &[ClusterAssessment]) -> ClusterNoveltyCounts {
    let mut counts = ClusterNoveltyCounts {
        total: assessments.len(),
        ..Default::default()
    };
    for a in assessments {
        let has_new = !a.new_metrics.is_empty();
        let has_discarded = !a.discarded_metrics.is_empty();
        match (has_new, has_discarded) {
            (true, true) => counts.with_new_and_discarded += 1,
            (true, false) => counts.with_new_only += 1,
            (false, true) => counts.with_discarded_only += 1,
            (false, false) => {
                if a.similarity < 1.0 {
                    counts.changed_membership += 1;
                }
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::metric_diffs;
    use sieve_core::MetricCluster;

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
            chosen_k: 2,
        }
    }

    fn model(component: &str, clusters: Vec<Vec<&str>>) -> SieveModel {
        let mut m = SieveModel::default();
        m.clusterings
            .insert(component.into(), clustering(component, clusters));
        m
    }

    #[test]
    fn similarity_is_normalised_by_the_correct_cluster() {
        let correct = vec![Name::new("a"), Name::new("b")];
        let faulty = vec![
            Name::new("a"),
            Name::new("b"),
            Name::new("c"),
            Name::new("d"),
        ];
        // All correct members survive: similarity 1 despite the new metrics.
        assert_eq!(cluster_similarity(&correct, &faulty), 1.0);
        // Half the correct members survive.
        assert_eq!(cluster_similarity(&faulty, &correct), 0.5);
        assert_eq!(cluster_similarity(&[], &correct), 0.0);
    }

    #[test]
    fn faulty_clusters_are_matched_to_their_closest_correct_cluster() {
        let correct = model("api", vec![vec!["cpu", "mem"], vec!["active", "build"]]);
        let faulty = model("api", vec![vec!["cpu", "mem"], vec!["error", "build"]]);
        let diffs = metric_diffs(&correct, &faulty);
        let assessments = assess_all_clusters(&correct, &faulty, &diffs);
        assert_eq!(assessments.len(), 2);
        // The unchanged cluster has similarity 1 and no novelty.
        let stable = assessments
            .iter()
            .find(|a| a.members.iter().any(|m| m == "cpu"))
            .unwrap();
        assert_eq!(stable.similarity, 1.0);
        assert_eq!(stable.novelty_score(), 0);
        // The changed cluster picked up `error`, lost `active`, and matches
        // its correct counterpart with similarity 0.5.
        let changed = assessments
            .iter()
            .find(|a| a.members.iter().any(|m| m == "error"))
            .unwrap();
        assert_eq!(changed.new_metrics, vec!["error"]);
        assert_eq!(changed.discarded_metrics, vec!["active"]);
        assert_eq!(changed.similarity, 0.5);
        assert!(changed.is_novel(1));
    }

    #[test]
    fn vanished_clusters_are_reported() {
        let correct = model("agent", vec![vec!["sync", "devices"], vec!["cpu"]]);
        let faulty = model("agent", vec![vec!["cpu"]]);
        let diffs = metric_diffs(&correct, &faulty);
        let assessments = assess_all_clusters(&correct, &faulty, &diffs);
        let vanished: Vec<_> = assessments
            .iter()
            .filter(|a| a.faulty_index.is_none())
            .collect();
        assert_eq!(vanished.len(), 1);
        assert_eq!(vanished[0].discarded_metrics.len(), 2);
        assert_eq!(vanished[0].similarity, 0.0);
    }

    #[test]
    fn novelty_counts_aggregate_correctly() {
        let correct = model("api", vec![vec!["cpu", "mem"], vec!["active", "build"]]);
        let faulty = model("api", vec![vec!["cpu", "mem"], vec!["error", "build"]]);
        let diffs = metric_diffs(&correct, &faulty);
        let assessments = assess_all_clusters(&correct, &faulty, &diffs);
        let counts = novelty_counts(&assessments);
        assert_eq!(counts.total, 2);
        assert_eq!(counts.novel(), 1);
        assert_eq!(counts.with_new_and_discarded, 1);
        assert_eq!(counts.with_new_only + counts.with_discarded_only, 0);
    }

    #[test]
    fn identical_models_produce_no_novel_clusters() {
        let m = model("api", vec![vec!["cpu", "mem"], vec!["a", "b"]]);
        let diffs = metric_diffs(&m, &m.clone());
        let assessments = assess_all_clusters(&m, &m.clone(), &diffs);
        let counts = novelty_counts(&assessments);
        assert_eq!(counts.novel(), 0);
        assert_eq!(counts.changed_membership, 0);
        assert!(assessments.iter().all(|a| a.similarity == 1.0));
    }
}
