//! The reference analysis: what every production fast path must equal.
//!
//! [`analyze`] is steps 2 and 3 written the slow, obvious way — serial and
//! stateless, every shape-based distance recomputed from the raw series
//! ([`KShape::fit`], [`silhouette_score_sbd`], [`shape_based_distance`]),
//! every Granger test re-run per pair and direction ([`granger_causes`]). It
//! shares no session, fingerprint cache, edge cache, spectrum, distance
//! matrix, prepared Granger state or executor with
//! [`crate::pipeline::Sieve::analyze`]; it shares only the *definition* of
//! each stage (variance filter, short-circuits, cluster and edge assembly,
//! comparison plan), so `==` between the two models pins the engines, the
//! incremental session and the executor at once. Tests compare against it
//! at three granularities: the whole model, one component's
//! reduction ([`reduce_component`]) and the dependency stage
//! ([`identify_dependencies`]).

use crate::columnar::PreparedComponent;
use crate::config::SieveConfig;
use crate::dependencies::{assemble_graph, comparison_plan, edges_for_comparison, series_lookup};
use crate::model::{ComponentClustering, SieveModel};
use crate::pipeline::prepare_component;
use crate::reduce::{build_clusters, reduce_component_with, SweepOutcome};
use crate::{Result, SieveError};
use sieve_causality::granger::granger_causes;
use sieve_cluster::jaro::pre_cluster_names;
use sieve_cluster::kshape::{KShape, KShapeConfig, KShapeResult};
use sieve_cluster::silhouette::silhouette_score_sbd;
use sieve_exec::Name;
use sieve_graph::{CallGraph, DependencyGraph};
use sieve_simulator::store::MetricStore;
use sieve_timeseries::sbd::shape_based_distance;
use std::collections::BTreeMap;

/// Reference twin of [`crate::pipeline::Sieve::analyze`].
///
/// # Errors
///
/// The same as the production path: [`SieveError::InvalidConfig`],
/// [`SieveError::NoMetrics`] for an empty store, clustering failures.
pub fn analyze(
    application: &str,
    store: &MetricStore,
    call_graph: &CallGraph,
    config: &SieveConfig,
) -> Result<SieveModel> {
    config.validate()?;
    if store.series_count() == 0 {
        return Err(SieveError::NoMetrics {
            scope: format!("application {application}"),
        });
    }
    let prepared: BTreeMap<Name, PreparedComponent> = store
        .components()
        .into_iter()
        .map(|component| {
            let (series, _) = prepare_component(store, &component, config.interval_ms);
            (component, series)
        })
        .collect();
    let mut clusterings = BTreeMap::new();
    for (component, series) in &prepared {
        let clustering = reduce_component(component.clone(), series, config)?;
        clusterings.insert(component.clone(), clustering);
    }
    let dependency_graph = identify_dependencies(&prepared, &clusterings, call_graph, config)?;
    Ok(SieveModel {
        application: application.to_string(),
        clusterings,
        dependency_graph,
    })
}

/// Reference twin of [`crate::reduce::reduce_component`]: the same stage
/// around a direct-SBD k sweep.
///
/// # Errors
///
/// Propagates clustering failures.
pub fn reduce_component(
    component: impl Into<Name>,
    prepared: &PreparedComponent,
    config: &SieveConfig,
) -> Result<ComponentClustering> {
    reduce_component_with(component.into(), prepared, config, sweep)
}

/// The direct-SBD k sweep: every distance re-z-normalizes and re-FFTs both
/// operands.
fn sweep(
    data: &[&[f64]],
    names: &[&str],
    kept: &[&Name],
    config: &SieveConfig,
) -> Result<SweepOutcome> {
    let max_k = config.max_clusters.min(data.len().saturating_sub(1)).max(1);
    let min_k = config.min_clusters.min(max_k);
    let mut best: Option<(f64, KShapeResult, usize)> = None;
    for k in min_k..=max_k {
        let init = pre_cluster_names(names, k);
        let kshape_config = KShapeConfig::new(k)
            .with_max_iterations(config.kshape_max_iterations)
            .with_initial_assignment(init);
        let result = KShape::new(kshape_config).fit(data)?;
        let score = silhouette_score_sbd(data, &result.assignments)?;
        let better = match &best {
            None => true,
            Some((best_score, _, _)) => score > *best_score,
        };
        if better {
            best = Some((score, result, k));
        }
    }
    let (silhouette, result, chosen_k) = best.expect("at least one k was evaluated");

    let clusters = build_clusters(&result, chosen_k, kept, |centroid, members| {
        members
            .iter()
            .map(|&idx| {
                shape_based_distance(centroid, data[idx])
                    .map(|r| r.distance)
                    .unwrap_or(2.0)
            })
            .collect()
    });
    Ok((silhouette, chosen_k, clusters))
}

/// Reference twin of [`crate::dependencies::identify_dependencies`]: every
/// planned pair re-runs the full Granger test on the raw slices, recomputing
/// ADF, differencing and restricted fits per pair and per direction.
///
/// # Errors
///
/// Rejects an invalid Granger configuration.
pub fn identify_dependencies(
    series: &BTreeMap<Name, PreparedComponent>,
    clusterings: &BTreeMap<Name, ComponentClustering>,
    call_graph: &CallGraph,
    config: &SieveConfig,
) -> Result<DependencyGraph> {
    config.granger.validate()?;
    let plan = comparison_plan(call_graph, clusterings);
    let lookup = series_lookup(series);
    let candidate_edges = plan.iter().flat_map(|cmp| {
        let source = lookup.get(&(cmp.source_component.as_str(), cmp.source_metric.as_str()));
        let target = lookup.get(&(cmp.target_component.as_str(), cmp.target_metric.as_str()));
        let (Some(source), Some(target)) = (source, target) else {
            return Vec::new();
        };
        let forward = granger_causes(source, target, &config.granger).ok();
        let reverse = granger_causes(target, source, &config.granger).ok();
        edges_for_comparison(cmp, forward, reverse, config.interval_ms)
    });
    Ok(assemble_graph(clusterings, call_graph, candidate_edges))
}

// Whole-model equality on realistic applications lives next to the code it
// pins (`pipeline`, `reduce`, `dependencies`, the integration and property
// suites); these cover the paths such inputs never reach.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Sieve;
    use sieve_simulator::store::MetricId;

    fn config() -> SieveConfig {
        SieveConfig::default()
            .with_cluster_range(2, 3)
            .with_parallelism(1)
    }

    fn record(store: &MetricStore, component: &str, metric: &str, f: impl Fn(f64) -> f64) {
        let id = MetricId::new(component, metric);
        for t in 0..120u64 {
            store.record(&id, t * 500, f(t as f64));
        }
    }

    /// Two ordinary components, `web` leading `db`.
    fn record_web_and_db(store: &MetricStore) {
        for (component, phase) in [("web", 0.0), ("db", 0.4)] {
            record(store, component, "requests", |t| {
                30.0 + 10.0 * (0.2 * t - phase).sin() + (t * 7.3).sin()
            });
            record(store, component, "latency", |t| {
                5.0 + (0.2 * t - phase).cos() + 0.3 * (t * 3.1).sin()
            });
            record(store, component, "bytes_total", |t| t * (1.0 + phase));
        }
    }

    #[test]
    fn rejects_what_the_pipeline_rejects() {
        let empty = MetricStore::new();
        let graph = CallGraph::new();
        assert!(matches!(
            analyze("app", &empty, &graph, &config()),
            Err(SieveError::NoMetrics { .. })
        ));
        assert!(matches!(
            Sieve::new(config()).analyze("app", &empty, &graph),
            Err(SieveError::NoMetrics { .. })
        ));

        let store = MetricStore::new();
        record(&store, "web", "requests", |t| (0.2 * t).sin());
        let invalid = config().with_interval_ms(0);
        assert!(matches!(
            analyze("app", &store, &graph, &invalid),
            Err(SieveError::InvalidConfig { .. })
        ));
        assert!(matches!(
            Sieve::new(invalid).analyze("app", &store, &graph),
            Err(SieveError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn degenerate_components_match_the_pipeline() {
        let store = MetricStore::new();
        // Every metric filtered: zero clusters.
        record(&store, "idle", "threads_max", |_| 64.0);
        record(&store, "idle", "pool_size", |_| 16.0);
        // One varying series: its own cluster, no sweep.
        record(&store, "solo", "requests", |t| {
            30.0 + 10.0 * (0.2 * t).sin()
        });
        record(&store, "solo", "limit", |_| 8.0);
        // Too short to resample: the component is prepared empty.
        store.record(&MetricId::new("blip", "once"), 0, 1.0);
        record_web_and_db(&store);
        let mut graph = CallGraph::new();
        graph.record_call("web", "db");
        graph.record_call("web", "solo");
        graph.record_call("solo", "idle");
        graph.record_call("db", "blip");
        graph.record_call("db", "ghost"); // never exported a metric

        let reference = analyze("app", &store, &graph, &config()).unwrap();
        assert_eq!(reference.clustering_of("idle").unwrap().chosen_k, 0);
        assert_eq!(reference.clustering_of("solo").unwrap().chosen_k, 1);
        assert_eq!(reference.clustering_of("blip").unwrap().total_metrics, 0);
        assert!(reference.clustering_of("web").unwrap().chosen_k >= 2);
        for parallelism in [1usize, 4] {
            let model = Sieve::new(config().with_parallelism(parallelism))
                .analyze("app", &store, &graph)
                .unwrap();
            assert_eq!(reference, model, "parallelism {parallelism}");
        }
    }

    #[test]
    fn representatives_without_a_prepared_series_match_the_pipeline() {
        let store = MetricStore::new();
        record_web_and_db(&store);
        let mut graph = CallGraph::new();
        graph.record_call("web", "db");
        let model = analyze("app", &store, &graph, &config()).unwrap();
        let mut prepared = Sieve::new(config()).prepare(&store);
        let with_both =
            identify_dependencies(&prepared, &model.clusterings, &graph, &config()).unwrap();
        assert_eq!(with_both, model.dependency_graph);

        // The clusterings still name db's representatives; their series are
        // gone.
        prepared.remove("db");
        let reference =
            identify_dependencies(&prepared, &model.clusterings, &graph, &config()).unwrap();
        let production = crate::dependencies::identify_dependencies(
            &prepared,
            &model.clusterings,
            &graph,
            &config(),
        )
        .unwrap();
        assert_eq!(reference, production);
        assert_eq!(reference.edge_count(), 0);
        assert_eq!(reference.component_count(), 2);
    }
}
