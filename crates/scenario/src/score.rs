//! Scoring harnesses: grade pipeline answers against the ground truth.

use crate::truth::GroundTruth;
use sieve_autoscale::AutoscalingReport;
use sieve_core::SieveModel;
use sieve_exec::Name;
use sieve_rca::{RcaConfig, RcaEngine, RcaReport};
use sieve_simulator::Burst;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The RCA grade of one run: where the injected root cause landed in the
/// five-step comparison's final ranking.
#[derive(Debug, Clone)]
pub struct RcaScore {
    /// The true root-cause component.
    pub component: Name,
    /// Its 1-based rank in the final ranking, if it survived the filters.
    pub rank: Option<usize>,
    /// The top-k bound the run is graded against.
    pub top_k: usize,
    /// The full report, for diagnostics.
    pub report: RcaReport,
}

impl RcaScore {
    /// Whether the true root cause ranked within the top-k.
    pub fn hit(&self) -> bool {
        self.rank.is_some_and(|r| r <= self.top_k)
    }
}

/// Grades root-cause analysis: compares the last pre-fault model (correct
/// version) against the final model (faulty version) and locates the
/// injected component in the final ranking.
///
/// Returns `None` when the scenario injects no fault, or injects it at
/// epoch 0 (no pre-fault baseline exists).
pub fn score_rca(
    models: &[Arc<SieveModel>],
    truth: &GroundTruth,
    config: RcaConfig,
    top_k: usize,
) -> Option<RcaScore> {
    let component = truth.root_cause.clone()?;
    let fault_epoch = truth.fault_epoch?;
    if fault_epoch == 0 || fault_epoch > models.len() || models.is_empty() {
        return None;
    }
    let correct = &models[fault_epoch - 1];
    let faulty = models.last()?;
    let report = RcaEngine::new(config).compare(correct, faulty);
    let rank = report.rank_of(component.as_str());
    Some(RcaScore {
        component,
        rank,
        top_k,
        report,
    })
}

/// The tracking outcome of one scripted dependency flip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftOutcome {
    /// Calling component.
    pub caller: Name,
    /// Called component.
    pub callee: Name,
    /// Whether the edge appeared (`true`) or disappeared (`false`).
    pub up: bool,
    /// Epoch at whose start the flip was scripted.
    pub scripted_epoch: usize,
    /// First epoch from which the model agrees with the flip *and keeps
    /// agreeing* until the pair's next flip (or the end of the run).
    pub detected_epoch: Option<usize>,
}

impl DriftOutcome {
    /// Detection lag in epochs, if detected.
    pub fn lag_epochs(&self) -> Option<usize> {
        self.detected_epoch.map(|d| d - self.scripted_epoch)
    }

    /// Whether the flip was tracked within `m` epochs.
    pub fn tracked_within(&self, m: usize) -> bool {
        self.lag_epochs().is_some_and(|lag| lag <= m)
    }
}

/// The drift grade of one run: one outcome per scripted flip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftScore {
    /// Outcomes in scripted order.
    pub outcomes: Vec<DriftOutcome>,
}

impl DriftScore {
    /// Whether every scripted flip was tracked within `m` epochs.
    pub fn all_tracked_within(&self, m: usize) -> bool {
        self.outcomes.iter().all(|o| o.tracked_within(m))
    }
}

/// The component pairs connected (in either direction) by at least one
/// dependency-graph edge of `model`.
fn connected_pairs(model: &SieveModel) -> BTreeSet<(Name, Name)> {
    let mut pairs = BTreeSet::new();
    for edge in model.dependency_graph.edges() {
        let (a, b) = edge.component_pair();
        pairs.insert((b.clone(), a.clone()));
        pairs.insert((a, b));
    }
    pairs
}

/// Grades dependency-drift tracking: for each scripted edge flip, finds
/// the first epoch from which the per-epoch models agree with the new
/// state and keep agreeing until the pair flips again.
///
/// `models[e]` must be the model produced after ingesting epoch `e`.
/// Presence is judged undirected (Granger may orient an edge either way).
pub fn score_drift(models: &[Arc<SieveModel>], truth: &GroundTruth) -> DriftScore {
    let flips = truth.edge_flips();
    let pairs_per_epoch: Vec<BTreeSet<(Name, Name)>> =
        models.iter().map(|m| connected_pairs(m)).collect();
    let outcomes = flips
        .iter()
        .map(|flip| {
            let boundary = flips
                .iter()
                .filter(|f| f.caller == flip.caller && f.callee == flip.callee)
                .map(|f| f.epoch)
                .find(|&e| e > flip.epoch)
                .unwrap_or(models.len());
            let key = (flip.caller.clone(), flip.callee.clone());
            let mut detected = None;
            for (epoch, pairs) in pairs_per_epoch
                .iter()
                .enumerate()
                .take(boundary)
                .skip(flip.epoch)
            {
                if pairs.contains(&key) == flip.up {
                    detected.get_or_insert(epoch);
                } else {
                    detected = None;
                }
            }
            DriftOutcome {
                caller: flip.caller.clone(),
                callee: flip.callee.clone(),
                up: flip.up,
                scripted_epoch: flip.epoch,
                detected_epoch: detected,
            }
        })
        .collect();
    DriftScore { outcomes }
}

/// The autoscaling grade: per scripted burst, the engine's reaction lag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AutoscaleScore {
    /// `(burst_start_tick, scale_out_lag_ticks)` per scripted burst.
    pub reactions: Vec<(usize, Option<usize>)>,
}

impl AutoscaleScore {
    /// Whether every burst triggered a scale-out within `max_lag` ticks.
    pub fn all_within(&self, max_lag: usize) -> bool {
        self.reactions
            .iter()
            .all(|(_, lag)| lag.is_some_and(|l| l <= max_lag))
    }
}

/// Grades autoscaling reactions against the scripted bursts.
pub fn score_autoscale(report: &AutoscalingReport, bursts: &[Burst]) -> AutoscaleScore {
    AutoscaleScore {
        reactions: bursts
            .iter()
            .map(|b| (b.start_tick, report.scale_out_lag(b.start_tick)))
            .collect(),
    }
}

/// The clustering grade: chosen `k` vs the true family count per component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterScore {
    /// `(component, true_k, chosen_k)` rows; `chosen_k` is `None` when the
    /// model has no clustering for the component.
    pub per_component: Vec<(Name, usize, Option<usize>)>,
}

impl ClusterScore {
    /// Mean absolute error of the chosen `k` over graded components
    /// (missing clusterings count as an error equal to the true `k`).
    pub fn mean_abs_error(&self) -> f64 {
        if self.per_component.is_empty() {
            return 0.0;
        }
        let total: usize = self
            .per_component
            .iter()
            .map(|(_, true_k, chosen)| chosen.map_or(*true_k, |k| k.abs_diff(*true_k)))
            .sum();
        total as f64 / self.per_component.len() as f64
    }
}

/// Grades cluster-count selection against the true per-component family
/// counts.
pub fn score_clusters(model: &SieveModel, truth: &GroundTruth) -> ClusterScore {
    ClusterScore {
        per_component: truth
            .true_cluster_counts
            .iter()
            .map(|(component, &true_k)| {
                let chosen = model
                    .clustering_of(component.as_str())
                    .map(|c| c.clusters.len());
                (component.clone(), true_k, chosen)
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::EpochTruth;
    use sieve_core::{ComponentClustering, MetricCluster};
    use sieve_graph::{DependencyEdge, DependencyGraph};
    use std::collections::{BTreeMap, BTreeSet};

    fn model_with_pairs(pairs: &[(&str, &str)]) -> Arc<SieveModel> {
        let mut graph = DependencyGraph::new();
        for (a, b) in pairs {
            graph.add_component(*a);
            graph.add_component(*b);
            graph.add_edge(DependencyEdge {
                source_component: Name::from(*a),
                source_metric: Name::from("m"),
                target_component: Name::from(*b),
                target_metric: Name::from("m"),
                p_value: 0.01,
                f_statistic: 8.0,
                lag_ms: 500,
            });
        }
        Arc::new(SieveModel {
            application: "t".to_string(),
            clusterings: BTreeMap::new(),
            dependency_graph: graph,
        })
    }

    fn truth_with_edges(per_epoch: &[&[(&str, &str)]]) -> GroundTruth {
        GroundTruth {
            scenario: "t".to_string(),
            seed: 0,
            root_cause: None,
            fault_epoch: None,
            true_cluster_counts: BTreeMap::new(),
            epochs: per_epoch
                .iter()
                .enumerate()
                .map(|(epoch, edges)| EpochTruth {
                    epoch,
                    active_edges: edges
                        .iter()
                        .map(|(a, b)| (Name::from(*a), Name::from(*b)))
                        .collect(),
                    offline: BTreeSet::new(),
                    dropped_metrics: BTreeSet::new(),
                    clock_skew_ms: BTreeMap::new(),
                    regime_multiplier: 1.0,
                    fault_active: false,
                })
                .collect(),
        }
    }

    #[test]
    fn drift_score_finds_stable_detection_epochs() {
        // Edge (a,b) scripted up at epoch 1; the model notices at epoch 2.
        let truth = truth_with_edges(&[&[], &[("a", "b")], &[("a", "b")], &[("a", "b")]]);
        let models = vec![
            model_with_pairs(&[]),
            model_with_pairs(&[]),
            model_with_pairs(&[("a", "b")]),
            model_with_pairs(&[("b", "a")]), // reversed direction still counts
        ];
        let score = score_drift(&models, &truth);
        assert_eq!(score.outcomes.len(), 1);
        assert_eq!(score.outcomes[0].detected_epoch, Some(2));
        assert_eq!(score.outcomes[0].lag_epochs(), Some(1));
        assert!(score.all_tracked_within(1));
        assert!(!score.all_tracked_within(0));
    }

    #[test]
    fn drift_score_requires_stability_and_respects_reflips() {
        // Up at 1, back down at 3: detection must hold within [1, 3).
        let truth = truth_with_edges(&[&[], &[("a", "b")], &[("a", "b")], &[]]);
        let flapping = vec![
            model_with_pairs(&[]),
            model_with_pairs(&[("a", "b")]),
            model_with_pairs(&[]), // lost it again before the boundary
            model_with_pairs(&[]),
        ];
        let score = score_drift(&flapping, &truth);
        let up = score.outcomes.iter().find(|o| o.up).unwrap();
        assert_eq!(up.detected_epoch, None);
        let down = score.outcomes.iter().find(|o| !o.up).unwrap();
        // The down-flip at epoch 3 is immediately consistent.
        assert_eq!(down.detected_epoch, Some(3));
    }

    #[test]
    fn cluster_score_measures_k_error() {
        let mut clusterings = BTreeMap::new();
        let members: Vec<Name> = vec![Name::from("x")];
        clusterings.insert(
            Name::from("a"),
            ComponentClustering {
                component: Name::from("a"),
                total_metrics: 4,
                filtered_metrics: vec![],
                clusters: vec![
                    MetricCluster {
                        members: members.clone(),
                        representative: Name::from("x"),
                        representative_distance: 0.0,
                    },
                    MetricCluster {
                        members,
                        representative: Name::from("y"),
                        representative_distance: 0.0,
                    },
                ],
                silhouette: 0.5,
                chosen_k: 2,
            },
        );
        let model = SieveModel {
            application: "t".to_string(),
            clusterings,
            dependency_graph: DependencyGraph::new(),
        };
        let mut truth = truth_with_edges(&[&[]]);
        truth.true_cluster_counts.insert(Name::from("a"), 3);
        truth.true_cluster_counts.insert(Name::from("b"), 2);
        let score = score_clusters(&model, &truth);
        assert_eq!(score.per_component.len(), 2);
        // |2-3| = 1 for a; b missing counts as 2. Mean = 1.5.
        assert!((score.mean_abs_error() - 1.5).abs() < 1e-12);
    }
}
