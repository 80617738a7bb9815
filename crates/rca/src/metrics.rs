//! Steps 1 and 2: metric-level diffing and component rankings.
//!
//! "This step analyzes the presence or absence of metrics between C and F
//! versions. If a metric m is present in both C and F, it intuitively
//! represents the maintenance of healthy behavior ... the appearance of a
//! new metric (or the disappearance of a previously existing metric) between
//! versions is likely to be related with the anomaly." (§4.2)
//!
//! A metric counts as *present* when it survived Sieve's variance filter and
//! was clustered — a metric that froze at a constant value in the faulty
//! version therefore shows up as *discarded* even though the component still
//! technically exports it, which matches how the paper's OpenStack agent
//! crash manifests.

use sieve_core::SieveModel;
use sieve_exec::Name;
use std::collections::BTreeSet;

/// Per-component metric differences between the correct and faulty versions.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDiff {
    /// Component name.
    pub component: Name,
    /// Metrics present (clustered) only in the faulty version.
    pub new_metrics: Vec<Name>,
    /// Metrics present (clustered) only in the correct version.
    pub discarded_metrics: Vec<Name>,
    /// Metrics present in both versions (healthy behaviour).
    pub unchanged_metrics: Vec<Name>,
    /// Total number of metrics the component exported (faulty version, or
    /// correct when the component vanished).
    pub total_metrics: usize,
}

impl MetricDiff {
    /// The component's novelty score: number of new plus discarded metrics.
    pub fn novelty_score(&self) -> usize {
        self.new_metrics.len() + self.discarded_metrics.len()
    }
}

/// One row of the step-2 component ranking (Table 5's left columns).
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentRanking {
    /// Component name.
    pub component: Name,
    /// Novelty score (new + discarded metrics).
    pub novelty_score: usize,
    /// Number of new metrics.
    pub new_metrics: usize,
    /// Number of discarded metrics.
    pub discarded_metrics: usize,
    /// Total metrics of the component.
    pub total_metrics: usize,
}

/// Computes the per-component metric diff between two Sieve models.
pub fn metric_diffs(correct: &SieveModel, faulty: &SieveModel) -> Vec<MetricDiff> {
    let components: BTreeSet<&Name> = correct
        .clusterings
        .keys()
        .chain(faulty.clusterings.keys())
        .collect();
    let mut out = Vec::new();
    for component in components {
        let correct_metrics: BTreeSet<Name> = correct
            .clustering_of(component)
            .map(|c| c.clustered_metrics().into_iter().collect())
            .unwrap_or_default();
        let faulty_metrics: BTreeSet<Name> = faulty
            .clustering_of(component)
            .map(|c| c.clustered_metrics().into_iter().collect())
            .unwrap_or_default();
        let new_metrics: Vec<Name> = faulty_metrics
            .difference(&correct_metrics)
            .cloned()
            .collect();
        let discarded_metrics: Vec<Name> = correct_metrics
            .difference(&faulty_metrics)
            .cloned()
            .collect();
        let unchanged_metrics: Vec<Name> = correct_metrics
            .intersection(&faulty_metrics)
            .cloned()
            .collect();
        let total_metrics = faulty
            .clustering_of(component)
            .or_else(|| correct.clustering_of(component))
            .map(|c| c.total_metrics)
            .unwrap_or(0);
        out.push(MetricDiff {
            component: component.clone(),
            new_metrics,
            discarded_metrics,
            unchanged_metrics,
            total_metrics,
        });
    }
    out
}

/// Ranks components by novelty score (step 2). Ties are broken by component
/// name for determinism.
pub(crate) fn rank_components(diffs: &[MetricDiff]) -> Vec<ComponentRanking> {
    let mut rankings: Vec<ComponentRanking> = diffs
        .iter()
        .map(|d| ComponentRanking {
            component: d.component.clone(),
            novelty_score: d.novelty_score(),
            new_metrics: d.new_metrics.len(),
            discarded_metrics: d.discarded_metrics.len(),
            total_metrics: d.total_metrics,
        })
        .collect();
    rankings.sort_by(|a, b| {
        b.novelty_score
            .cmp(&a.novelty_score)
            .then_with(|| a.component.cmp(&b.component))
    });
    rankings
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_core::{ComponentClustering, MetricCluster};

    fn model_with(component: &str, metrics: Vec<&str>) -> SieveModel {
        let mut model = SieveModel::default();
        model.clusterings.insert(
            component.into(),
            ComponentClustering {
                component: component.into(),
                total_metrics: metrics.len() + 2,
                filtered_metrics: vec!["constant_a".into(), "constant_b".into()],
                clusters: vec![MetricCluster {
                    members: metrics.iter().map(|m| Name::new(m)).collect(),
                    representative: metrics.first().copied().unwrap_or("none").into(),
                    representative_distance: 0.1,
                }],
                silhouette: 0.6,
                chosen_k: 1,
            },
        );
        model
    }

    #[test]
    fn new_and_discarded_metrics_are_detected() {
        let correct = model_with("api", vec!["active", "cpu"]);
        let faulty = model_with("api", vec!["errors", "cpu"]);
        let diffs = metric_diffs(&correct, &faulty);
        assert_eq!(diffs.len(), 1);
        let d = &diffs[0];
        assert_eq!(d.new_metrics, vec!["errors"]);
        assert_eq!(d.discarded_metrics, vec!["active"]);
        assert_eq!(d.unchanged_metrics, vec!["cpu"]);
        assert_eq!(d.novelty_score(), 2);
    }

    #[test]
    fn identical_models_have_zero_novelty() {
        let model = model_with("api", vec!["a", "b"]);
        let diffs = metric_diffs(&model, &model.clone());
        assert_eq!(diffs[0].novelty_score(), 0);
        assert_eq!(diffs[0].unchanged_metrics.len(), 2);
    }

    #[test]
    fn components_missing_from_one_version_are_handled() {
        let correct = model_with("api", vec!["a"]);
        let faulty = model_with("agent", vec!["b"]);
        let diffs = metric_diffs(&correct, &faulty);
        assert_eq!(diffs.len(), 2);
        let api = diffs.iter().find(|d| d.component == "api").unwrap();
        assert_eq!(api.discarded_metrics, vec!["a"]);
        let agent = diffs.iter().find(|d| d.component == "agent").unwrap();
        assert_eq!(agent.new_metrics, vec!["b"]);
    }

    #[test]
    fn ranking_orders_by_novelty_then_name() {
        let diffs = vec![
            MetricDiff {
                component: "zeta".into(),
                new_metrics: vec!["a".into()],
                discarded_metrics: vec![],
                unchanged_metrics: vec![],
                total_metrics: 5,
            },
            MetricDiff {
                component: "alpha".into(),
                new_metrics: vec!["a".into()],
                discarded_metrics: vec![],
                unchanged_metrics: vec![],
                total_metrics: 5,
            },
            MetricDiff {
                component: "hot".into(),
                new_metrics: vec!["a".into(), "b".into()],
                discarded_metrics: vec!["c".into()],
                unchanged_metrics: vec![],
                total_metrics: 9,
            },
        ];
        let ranking = rank_components(&diffs);
        assert_eq!(ranking[0].component, "hot");
        assert_eq!(ranking[0].novelty_score, 3);
        assert_eq!(ranking[1].component, "alpha");
        assert_eq!(ranking[2].component, "zeta");
    }
}
