//! Step 3 of the pipeline: identify dependencies between components.
//!
//! Sieve restricts the quadratic pairwise comparison to *communicating*
//! components (the call graph from step 1) and to *representative metrics*
//! (the clusters from step 2): "For each component, we do pairwise
//! comparisons using each representative metric of its clusters with each of
//! its neighbouring components (i.e., callees) and their representative
//! metrics" (§3.3). Each pair is tested for Granger causality in both
//! directions, the significant directions become edges annotated with the
//! detected lag, and metric pairs that cause each other in both directions
//! are filtered out as likely artefacts of a hidden common cause.
//!
//! The comparisons run per-edge through [`sieve_exec::par_map_chunks`] — the
//! same executor as the reduction step — and the candidate-edge list comes
//! back in plan order, so the resulting graph is identical regardless of the
//! parallelism degree. The series lookup borrows views of the columnar
//! prepared arenas; nothing on this path clones a string or a sample
//! vector.
//!
//! The stage runs on the shared causality engine: every (component, metric)
//! series referenced by the plan is turned into one
//! [`PreparedGrangerSeries`] — ADF verdict and variance computed up front
//! through the executor, differenced buffer and restricted AR fits cached on
//! demand — and every edge test (both directions, including the pairs the
//! bidirectional filter later drops) reuses that state instead of redoing
//! the per-series work per pair. The per-pair path it must stay
//! bit-identical to is [`crate::oracle::identify_dependencies`].

use crate::columnar::PreparedComponent;
use crate::config::SieveConfig;
use crate::model::ComponentClustering;
use crate::Result;
use sieve_causality::engine::{granger_causes_prepared, PreparedGrangerSeries};
use sieve_causality::granger::GrangerResult;
use sieve_exec::{par_map_chunks, Name};
use sieve_graph::{CallGraph, DependencyEdge, DependencyGraph};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A `(component, metric)` key borrowing the interned names of the plan.
pub(crate) type SeriesKey<'a> = (&'a str, &'a str);

/// One Granger comparison that should be executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Comparison {
    pub(crate) source_component: Name,
    pub(crate) source_metric: Name,
    pub(crate) target_component: Name,
    pub(crate) target_metric: Name,
}

/// Builds the list of metric pairs to test from the call graph and the
/// per-component representative metrics.
pub(crate) fn comparison_plan(
    call_graph: &CallGraph,
    clusterings: &BTreeMap<Name, ComponentClustering>,
) -> Vec<Comparison> {
    let mut out = Vec::new();
    for (caller, callee) in call_graph.communicating_pairs() {
        if caller == callee {
            continue;
        }
        let (Some(caller_clustering), Some(callee_clustering)) =
            (clusterings.get(&caller), clusterings.get(&callee))
        else {
            continue;
        };
        for source_metric in caller_clustering.representatives() {
            for target_metric in callee_clustering.representatives() {
                out.push(Comparison {
                    source_component: caller.clone(),
                    source_metric: source_metric.clone(),
                    target_component: callee.clone(),
                    target_metric: target_metric.clone(),
                });
            }
        }
    }
    out
}

/// Number of pairwise tests a naive all-pairs/all-metrics approach would
/// need, for comparison against the call-graph-restricted plan (used by the
/// ablation bench).
pub fn naive_comparison_count(clusterings: &BTreeMap<Name, ComponentClustering>) -> usize {
    let components: Vec<&ComponentClustering> = clusterings.values().collect();
    let mut count = 0;
    for (i, a) in components.iter().enumerate() {
        for (j, b) in components.iter().enumerate() {
            if i == j {
                continue;
            }
            count += a.clustered_metrics().len() * b.clustered_metrics().len();
        }
    }
    count
}

/// Number of pairwise tests Sieve actually performs.
pub fn planned_comparison_count(
    call_graph: &CallGraph,
    clusterings: &BTreeMap<Name, ComponentClustering>,
) -> usize {
    comparison_plan(call_graph, clusterings).len() * 2
}

/// Indexes a prepared-component map for O(1) lookup. Keys borrow the
/// interned names, values borrow views of the columnar arenas — no clones
/// on this path.
pub(crate) fn series_lookup(
    series: &BTreeMap<Name, PreparedComponent>,
) -> HashMap<SeriesKey<'_>, &[f64]> {
    let mut lookup: HashMap<SeriesKey<'_>, &[f64]> = HashMap::new();
    for (component, prepared) in series {
        for (name, values) in prepared.iter() {
            lookup.insert((component.as_str(), name.as_str()), values);
        }
    }
    lookup
}

/// Runs every comparison of `plan` (both directions) and returns one
/// candidate-edge list *per comparison*, in plan order — the unit the
/// incremental session caches. [`identify_dependencies`] flattens this.
///
/// One [`PreparedGrangerSeries`] per (component, metric) referenced by the
/// plan is built up front through the shared executor (each needed
/// representative is copied out of the columnar arena exactly once, into
/// the engine's own buffer), then every per-edge test in both directions
/// reuses it. The per-series ADF verdicts and variances are computed
/// exactly once, the differenced buffers and restricted fits at most once
/// per (differenced, order) key — instead of once per edge the series
/// participates in.
pub(crate) fn candidate_edges_per_comparison(
    plan: &[Comparison],
    lookup: &HashMap<SeriesKey<'_>, &[f64]>,
    config: &SieveConfig,
) -> Vec<Vec<DependencyEdge>> {
    let needed: BTreeSet<SeriesKey<'_>> = plan
        .iter()
        .flat_map(|cmp| {
            [
                (cmp.source_component.as_str(), cmp.source_metric.as_str()),
                (cmp.target_component.as_str(), cmp.target_metric.as_str()),
            ]
        })
        .collect();
    let entries: Vec<(SeriesKey<'_>, &[f64])> = needed
        .into_iter()
        .filter_map(|key| lookup.get(&key).map(|values| (key, *values)))
        .collect();
    let states = par_map_chunks(config.parallelism, &entries, |(_, values)| {
        PreparedGrangerSeries::prepare(*values)
    });
    let prepared: HashMap<SeriesKey<'_>, PreparedGrangerSeries> =
        entries.iter().map(|(key, _)| *key).zip(states).collect();

    let per_comparison = |cmp: &Comparison| -> Vec<DependencyEdge> {
        let Some(source) =
            prepared.get(&(cmp.source_component.as_str(), cmp.source_metric.as_str()))
        else {
            return Vec::new();
        };
        let Some(target) =
            prepared.get(&(cmp.target_component.as_str(), cmp.target_metric.as_str()))
        else {
            return Vec::new();
        };
        let forward = granger_causes_prepared(source, target, &config.granger).ok();
        let reverse = granger_causes_prepared(target, source, &config.granger).ok();
        edges_for_comparison(cmp, forward, reverse, config.interval_ms)
    };
    par_map_chunks(config.parallelism, plan, per_comparison)
}

/// Assembles the final graph from the clusterings, the call graph and the
/// candidate edges (in plan order), applying the bidirectional filter —
/// shared verbatim by the batch and incremental paths so both produce
/// structurally identical graphs.
pub(crate) fn assemble_graph(
    clusterings: &BTreeMap<Name, ComponentClustering>,
    call_graph: &CallGraph,
    candidate_edges: impl IntoIterator<Item = DependencyEdge>,
) -> DependencyGraph {
    let mut graph = DependencyGraph::new();
    for component in clusterings.keys() {
        graph.add_component(component.clone());
    }
    for component in call_graph.components() {
        graph.add_component(component);
    }
    for edge in candidate_edges {
        graph.add_edge(edge);
    }
    graph.filter_bidirectional();
    graph
}

/// Runs the Granger comparisons and assembles the dependency graph.
///
/// `series` maps each component to its prepared (resampled, columnar,
/// `Arc`-shared) series arena — the same buffers the reduction step ran on.
///
/// # Errors
///
/// Rejects an invalid Granger configuration; individual tests that fail
/// because a series is too short or degenerate are simply skipped (no edge
/// is produced).
pub fn identify_dependencies(
    series: &BTreeMap<Name, PreparedComponent>,
    clusterings: &BTreeMap<Name, ComponentClustering>,
    call_graph: &CallGraph,
    config: &SieveConfig,
) -> Result<DependencyGraph> {
    config.granger.validate()?;
    let plan = comparison_plan(call_graph, clusterings);
    let lookup = series_lookup(series);

    // Each comparison is tested in both directions (the callee may drive the
    // caller, e.g. back-pressure); the per-edge work runs through the shared
    // executor and the candidate edges are concatenated in plan order.
    let candidate_edges = candidate_edges_per_comparison(&plan, &lookup, config);
    Ok(assemble_graph(
        clusterings,
        call_graph,
        candidate_edges.into_iter().flatten(),
    ))
}

/// Turns the two directed test outcomes of one comparison into candidate
/// edges. `forward` is "source metric Granger-causes target metric";
/// individual tests that failed (too short, degenerate) arrive as `None`
/// and simply produce no edge.
pub(crate) fn edges_for_comparison(
    cmp: &Comparison,
    forward: Option<GrangerResult>,
    reverse: Option<GrangerResult>,
    interval_ms: u64,
) -> Vec<DependencyEdge> {
    let mut edges = Vec::new();
    if let Some(result) = forward {
        if result.causal {
            edges.push(DependencyEdge {
                source_component: cmp.source_component.clone(),
                source_metric: cmp.source_metric.clone(),
                target_component: cmp.target_component.clone(),
                target_metric: cmp.target_metric.clone(),
                p_value: result.p_value,
                f_statistic: result.f_statistic,
                lag_ms: result.best_lag as u64 * interval_ms,
            });
        }
    }
    if let Some(result) = reverse {
        if result.causal {
            edges.push(DependencyEdge {
                source_component: cmp.target_component.clone(),
                source_metric: cmp.target_metric.clone(),
                target_component: cmp.source_component.clone(),
                target_metric: cmp.source_metric.clone(),
                p_value: result.p_value,
                f_statistic: result.f_statistic,
                lag_ms: result.best_lag as u64 * interval_ms,
            });
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MetricCluster;

    fn clustering(component: &str, reps: Vec<&str>) -> ComponentClustering {
        ComponentClustering {
            component: component.into(),
            total_metrics: reps.len(),
            filtered_metrics: vec![],
            clusters: reps
                .iter()
                .map(|r| MetricCluster {
                    members: vec![Name::new(r)],
                    representative: Name::new(r),
                    representative_distance: 0.0,
                })
                .collect(),
            silhouette: 0.5,
            chosen_k: reps.len(),
        }
    }

    fn noise(i: usize, seed: u64) -> f64 {
        // Mix the index and the seed with different multipliers so that
        // streams with nearby seeds are genuinely independent (and not
        // shifted copies of each other).
        let mut s =
            (i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) ^ seed.wrapping_mul(0xD1B54A32D192ED03);
        s ^= s >> 33;
        s = s.wrapping_mul(0xff51afd7ed558ccd);
        s ^= s >> 29;
        ((s >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
    }

    /// Builds a two-component scenario where `frontend/requests` drives
    /// `backend/queries` with a one-step lag and `backend/noise` is
    /// unrelated.
    fn scenario() -> (
        BTreeMap<Name, PreparedComponent>,
        BTreeMap<Name, ComponentClustering>,
        CallGraph,
    ) {
        let n = 240;
        let requests: Vec<f64> = (0..n)
            .map(|i| 50.0 + 30.0 * ((i as f64) * 0.2).sin() + 3.0 * noise(i, 1))
            .collect();
        let queries: Vec<f64> = (0..n)
            .map(|i| {
                if i == 0 {
                    0.0
                } else {
                    2.0 * requests[i - 1] + 2.0 * noise(i, 2)
                }
            })
            .collect();
        let unrelated: Vec<f64> = (0..n).map(|i| 10.0 * noise(i, 3)).collect();

        let mut series = BTreeMap::new();
        series.insert(
            Name::new("frontend"),
            PreparedComponent::from_rows(vec![(Name::new("requests"), requests)]),
        );
        series.insert(
            Name::new("backend"),
            PreparedComponent::from_rows(vec![
                (Name::new("queries"), queries),
                (Name::new("noise"), unrelated),
            ]),
        );

        let mut clusterings = BTreeMap::new();
        clusterings.insert(
            Name::new("frontend"),
            clustering("frontend", vec!["requests"]),
        );
        clusterings.insert(
            Name::new("backend"),
            clustering("backend", vec!["queries", "noise"]),
        );

        let mut call_graph = CallGraph::new();
        call_graph.record_call("frontend", "backend");
        (series, clusterings, call_graph)
    }

    #[test]
    fn detects_the_true_dependency_and_its_direction() {
        let (series, clusterings, call_graph) = scenario();
        let config = SieveConfig::default().with_parallelism(1);
        let graph = identify_dependencies(&series, &clusterings, &call_graph, &config).unwrap();

        assert!(!graph.edges_between("frontend", "backend").is_empty());
        let edges = graph.edges_between("frontend", "backend");
        assert!(edges
            .iter()
            .any(|e| e.source_metric == "requests" && e.target_metric == "queries"));
        // The unrelated noise metric does not get an edge from requests.
        assert!(!edges.iter().any(|e| e.target_metric == "noise"));
        // The detected lag is a small multiple of the interval.
        let edge = edges.iter().find(|e| e.target_metric == "queries").unwrap();
        assert!(
            edge.lag_ms >= 500 && edge.lag_ms <= 1500,
            "lag {}",
            edge.lag_ms
        );
        assert!(edge.p_value < 0.05);
    }

    #[test]
    fn parallel_and_serial_execution_produce_identical_graphs() {
        let (series, clusterings, call_graph) = scenario();
        let serial = identify_dependencies(
            &series,
            &clusterings,
            &call_graph,
            &SieveConfig::default().with_parallelism(1),
        )
        .unwrap();
        let parallel = identify_dependencies(
            &series,
            &clusterings,
            &call_graph,
            &SieveConfig::default().with_parallelism(4),
        )
        .unwrap();
        // Same edges in the same order, with identical statistics — the
        // executor guarantees plan-order results.
        assert_eq!(serial, parallel);
    }

    #[test]
    fn cached_and_naive_granger_paths_produce_identical_graphs() {
        // The causality engine must be a pure caching policy: at every
        // executor degree the dependency graph is bit-identical (edges,
        // order, p-values, F statistics, lags) to the per-pair oracle's.
        let (series, clusterings, call_graph) = scenario();
        let config = SieveConfig::default();
        let reference =
            crate::oracle::identify_dependencies(&series, &clusterings, &call_graph, &config)
                .unwrap();
        assert!(reference.edge_count() > 0, "scenario must produce edges");
        for parallelism in [1usize, 4, 8] {
            let config = config.clone().with_parallelism(parallelism);
            let graph = identify_dependencies(&series, &clusterings, &call_graph, &config).unwrap();
            assert_eq!(reference, graph, "parallelism {parallelism}");
            for (a, b) in reference.edges().iter().zip(graph.edges().iter()) {
                assert_eq!(a.p_value.to_bits(), b.p_value.to_bits());
                assert_eq!(a.f_statistic.to_bits(), b.f_statistic.to_bits());
                assert_eq!(a.lag_ms, b.lag_ms);
            }
        }
    }

    #[test]
    fn invalid_granger_settings_are_an_error_not_an_empty_graph() {
        let (series, clusterings, call_graph) = scenario();
        let mut config = SieveConfig::default();
        config.granger.significance = 1.5;
        assert!(matches!(
            identify_dependencies(&series, &clusterings, &call_graph, &config),
            Err(crate::SieveError::Causality(_))
        ));
    }

    #[test]
    fn comparison_planning_respects_the_call_graph() {
        let (_, clusterings, call_graph) = scenario();
        // 1 caller representative x 2 callee representatives, both directions.
        assert_eq!(planned_comparison_count(&call_graph, &clusterings), 4);
        // The naive plan tests all metrics of all component pairs.
        assert_eq!(naive_comparison_count(&clusterings), 4);
        // With more components not in the call graph, the naive count grows
        // but the planned count does not.
        let mut clusterings2 = clusterings.clone();
        clusterings2.insert(Name::new("idle"), clustering("idle", vec!["m1", "m2"]));
        assert_eq!(planned_comparison_count(&call_graph, &clusterings2), 4);
        assert!(naive_comparison_count(&clusterings2) > 4);
    }

    #[test]
    fn components_without_clustering_are_skipped() {
        let (series, mut clusterings, call_graph) = scenario();
        clusterings.remove("backend");
        let graph = identify_dependencies(
            &series,
            &clusterings,
            &call_graph,
            &SieveConfig::default().with_parallelism(1),
        )
        .unwrap();
        assert_eq!(graph.edge_count(), 0);
        // Both components still appear as nodes (one from the clusterings,
        // one from the call graph).
        assert_eq!(graph.component_count(), 2);
    }

    #[test]
    fn self_calls_do_not_produce_comparisons() {
        let (series, clusterings, mut call_graph) = scenario();
        call_graph.record_call("backend", "backend");
        let graph = identify_dependencies(
            &series,
            &clusterings,
            &call_graph,
            &SieveConfig::default().with_parallelism(1),
        )
        .unwrap();
        assert!(graph.edges_between("backend", "backend").is_empty());
    }

    #[test]
    fn mutually_causal_metric_pairs_are_filtered_out() {
        // x and y drive each other (shifted copies of a common signal), so
        // Granger finds significance in both directions — the classic
        // hidden-common-cause artefact §3.3 filters.
        let n = 240;
        let base: Vec<f64> = (0..n)
            .map(|i| 40.0 + 25.0 * ((i as f64) * 0.25).sin() + 2.0 * noise(i, 11))
            .collect();
        let x: Vec<f64> = (0..n).map(|i| base[i] + 0.5 * noise(i, 12)).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| {
                if i == 0 {
                    0.0
                } else {
                    base[i - 1] + 0.5 * noise(i, 13)
                }
            })
            .collect();

        let mut series = BTreeMap::new();
        series.insert(
            Name::new("a"),
            PreparedComponent::from_rows(vec![(Name::new("x"), x)]),
        );
        series.insert(
            Name::new("b"),
            PreparedComponent::from_rows(vec![(Name::new("y"), y)]),
        );
        let mut clusterings = BTreeMap::new();
        clusterings.insert(Name::new("a"), clustering("a", vec!["x"]));
        clusterings.insert(Name::new("b"), clustering("b", vec!["y"]));
        let mut call_graph = CallGraph::new();
        call_graph.record_call("a", "b");

        let config = SieveConfig::default().with_parallelism(1);

        // Sanity-check the setup: both directions really are significant
        // before filtering (otherwise this test would pass vacuously).
        let x = PreparedGrangerSeries::prepare(series["a"].series(0));
        let y = PreparedGrangerSeries::prepare(series["b"].series(0));
        let forward = granger_causes_prepared(&x, &y, &config.granger).unwrap();
        let backward = granger_causes_prepared(&y, &x, &config.granger).unwrap();
        assert!(
            forward.causal && backward.causal,
            "scenario must be bidirectionally causal (forward p={}, backward p={})",
            forward.p_value,
            backward.p_value
        );

        let graph = identify_dependencies(&series, &clusterings, &call_graph, &config).unwrap();
        assert_eq!(
            graph.edge_count(),
            0,
            "bidirectional x<->y edges must be dropped"
        );
        // The components themselves are still registered as nodes.
        assert_eq!(graph.component_count(), 2);
    }

    #[test]
    fn missing_prepared_series_produce_no_edges() {
        let (_, clusterings, call_graph) = scenario();
        // Clusterings reference metrics that have no prepared series at all.
        let empty: BTreeMap<Name, PreparedComponent> = BTreeMap::new();
        let graph = identify_dependencies(
            &empty,
            &clusterings,
            &call_graph,
            &SieveConfig::default().with_parallelism(2),
        )
        .unwrap();
        assert_eq!(graph.edge_count(), 0);
    }
}
