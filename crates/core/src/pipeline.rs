//! The end-to-end Sieve pipeline.
//!
//! [`load_application`] implements step 1 (run the application under load,
//! record metrics and the call graph); [`Sieve::analyze`] chains steps 2 and
//! 3 on recorded data; [`Sieve::analyze_application`] does all three in one
//! call, which is what the examples and the benchmark harness use.
//!
//! Both parallel stages — per-component reduction (step 2) and per-edge
//! Granger testing (step 3) — run through the shared
//! [`sieve_exec::par_map_chunks`] executor. The executor returns results in
//! input order, so a `parallelism = 1` run and a `parallelism = N` run
//! produce *identical* [`SieveModel`]s, not merely equivalent ones.

use crate::columnar::PreparedComponent;
use crate::config::SieveConfig;
use crate::model::SieveModel;
use crate::session::AnalysisSession;
use crate::{Result, SieveError};
use sieve_exec::{par_map_chunks, Name};
use sieve_graph::CallGraph;
use sieve_simulator::store::{MetricStore, RetentionPolicy};
use sieve_simulator::{AppSpec, SimConfig, Simulation, Workload};
use sieve_timeseries::resample::resample_values_into;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default duration of the offline loading phase (step 1), in milliseconds.
pub(crate) const DEFAULT_LOAD_DURATION_MS: u64 = 150_000;

/// Step 1: loads the application under the given workload and records every
/// exported metric plus the component call graph.
///
/// The finished simulation is consumed via [`Simulation::into_parts`], so
/// the recorded store and call graph are moved out, not copied.
///
/// # Errors
///
/// Propagates simulator errors (invalid specs or parameters).
pub fn load_application(
    spec: &AppSpec,
    workload: &Workload,
    seed: u64,
    duration_ms: u64,
    interval_ms: u64,
) -> Result<(MetricStore, CallGraph)> {
    load_application_with_retention(
        spec,
        workload,
        seed,
        duration_ms,
        interval_ms,
        RetentionPolicy::unbounded(),
    )
}

/// Same as [`load_application`] with an explicit store [`RetentionPolicy`]:
/// the recorded store keeps only the retained window of each series, so a
/// bounded policy models analysing a long-running service whose monitoring
/// database evicts old points. [`Sieve::analyze_application`] routes
/// through this with `SieveConfig::retention`.
///
/// # Errors
///
/// Propagates simulator errors (invalid specs or parameters).
pub fn load_application_with_retention(
    spec: &AppSpec,
    workload: &Workload,
    seed: u64,
    duration_ms: u64,
    interval_ms: u64,
    retention: RetentionPolicy,
) -> Result<(MetricStore, CallGraph)> {
    let sim_config = SimConfig::new(seed)
        .with_tick_ms(interval_ms)
        .with_duration_ms(duration_ms)
        .with_retention(retention);
    let mut simulation =
        Simulation::new(spec.clone(), workload.clone(), sim_config).map_err(SieveError::from)?;
    simulation.run_to_completion();
    Ok(simulation.into_parts())
}

/// Prepares the series of the given components (in parallel through the
/// shared executor, output index-aligned with `components`), each with the
/// grid points its resampling interpolated. Shared by [`Sieve::prepare`]
/// (all components) and the incremental session (the dirty subset):
/// preparation is per-component, so preparing a subset yields
/// bit-identical series to preparing everything.
pub(crate) fn prepare_components(
    store: &MetricStore,
    components: &[Name],
    config: &SieveConfig,
) -> Vec<(PreparedComponent, usize)> {
    par_map_chunks(config.parallelism, components, |component| {
        prepare_component(store, component, config.interval_ms)
    })
}

/// Prepares one component's series and counts the grid points that fell
/// between observations. Each series is resampled straight off the store's
/// zero-copy window view into one buffer, with no grid of timestamps and no
/// row of its own, and the rows are truncated to the shortest in place: the
/// buffer becomes the component's columnar arena. Series too short to
/// resample (fewer than two points) or malformed are skipped.
pub(crate) fn prepare_component(
    store: &MetricStore,
    component: &Name,
    interval_ms: u64,
) -> (PreparedComponent, usize) {
    let (mut names, mut lens, mut buffer) = (Vec::new(), Vec::new(), Vec::new());
    let mut interpolated = 0;
    store.for_each_series_of(component.as_str(), |id, view| {
        if view.len() < 2 {
            return;
        }
        let before = buffer.len();
        if let Ok(count) = resample_values_into(view, interval_ms, &mut buffer) {
            names.push(id.metric.clone());
            lens.push(buffer.len() - before);
            interpolated += count;
        }
    });
    (
        PreparedComponent::from_ragged(names, &lens, buffer),
        interpolated,
    )
}

/// The Sieve analysis pipeline.
#[derive(Debug, Clone, Default)]
pub struct Sieve {
    config: SieveConfig,
}

impl Sieve {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: SieveConfig) -> Self {
        Self { config }
    }

    /// Prepares (resamples and truncates) the series of every component in
    /// the store, in parallel through the shared executor (component order
    /// is preserved). Each component's series come back packed into one
    /// columnar, `Arc`-shared [`PreparedComponent`] arena: steps 2 and 3
    /// both read views of these buffers without re-copying them.
    pub fn prepare(&self, store: &MetricStore) -> BTreeMap<Name, PreparedComponent> {
        let components = store.components();
        let prepared = prepare_components(store, &components, &self.config);
        components
            .into_iter()
            .zip(prepared)
            .map(|(component, (prepared, _))| (component, prepared))
            .collect()
    }

    /// Steps 2 and 3 on already-recorded data: a fresh
    /// [`AnalysisSession`] with every component dirty, refreshed once —
    /// the batch and incremental paths share this single code path, which
    /// is what makes their models bit-identical by construction.
    ///
    /// # Errors
    ///
    /// * [`SieveError::NoMetrics`] when the store is empty.
    /// * Propagates configuration, clustering and causality errors.
    ///
    /// # Example
    ///
    /// ```
    /// use sieve_core::{Sieve, SieveConfig};
    /// use sieve_graph::CallGraph;
    /// use sieve_simulator::store::{MetricId, MetricStore};
    ///
    /// // Two components, each exporting a varying and a constant metric;
    /// // the frontend calls the backend.
    /// let store = MetricStore::new();
    /// for t in 0..80u64 {
    ///     let x = t as f64 * 0.2;
    ///     store.record(&MetricId::new("frontend", "requests"), t * 500, 30.0 + 10.0 * x.sin());
    ///     store.record(&MetricId::new("frontend", "threads_max"), t * 500, 64.0);
    ///     store.record(&MetricId::new("backend", "queries"), t * 500, 55.0 + 20.0 * (x - 0.4).sin());
    ///     store.record(&MetricId::new("backend", "pool_size"), t * 500, 16.0);
    /// }
    /// let mut call_graph = CallGraph::new();
    /// call_graph.record_calls("frontend", "backend", 100);
    ///
    /// let sieve = Sieve::new(SieveConfig::default().with_cluster_range(2, 2).with_parallelism(1));
    /// let model = sieve.analyze("shop", &store, &call_graph)?;
    ///
    /// // The constant metrics are filtered before clustering...
    /// assert!(model.clustering_of("frontend").unwrap().filtered_metrics.contains(&"threads_max".into()));
    /// // ...and the metric space shrinks to the representatives.
    /// assert!(model.total_representative_count() <= model.total_metric_count());
    /// assert_eq!(model.clusterings.len(), 2);
    /// # Ok::<(), sieve_core::SieveError>(())
    /// ```
    pub fn analyze(
        &self,
        application: &str,
        store: &MetricStore,
        call_graph: &CallGraph,
    ) -> Result<SieveModel> {
        self.config.validate()?;
        if store.series_count() == 0 {
            return Err(SieveError::NoMetrics {
                scope: format!("application {application}"),
            });
        }
        let mut session = AnalysisSession::new(
            application,
            store.clone(),
            call_graph.clone(),
            self.config.clone(),
        )?;
        let model = session.refresh()?;
        // Dropping the throwaway session releases its snapshot reference,
        // so the batch path takes ownership of the model without paying
        // for a deep clone.
        drop(session);
        Ok(Arc::try_unwrap(model).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Runs all three steps: loads `spec` under `workload` (for 150 s of
    /// simulated time) and analyses the recorded data.
    ///
    /// # Errors
    ///
    /// Propagates loading and analysis errors.
    pub fn analyze_application(
        &self,
        spec: &AppSpec,
        workload: &Workload,
        seed: u64,
    ) -> Result<SieveModel> {
        self.analyze_application_for(spec, workload, seed, DEFAULT_LOAD_DURATION_MS)
    }

    /// Same as [`Sieve::analyze_application`] with an explicit loading
    /// duration.
    ///
    /// # Errors
    ///
    /// Propagates loading and analysis errors.
    pub fn analyze_application_for(
        &self,
        spec: &AppSpec,
        workload: &Workload,
        seed: u64,
        duration_ms: u64,
    ) -> Result<SieveModel> {
        let (store, call_graph) = load_application_with_retention(
            spec,
            workload,
            seed,
            duration_ms,
            self.config.interval_ms,
            self.config.retention,
        )?;
        self.analyze(&spec.name, &store, &call_graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_apps::{openstack, MetricRichness};
    use sieve_simulator::{CallSpec, ComponentSpec, MetricBehavior, MetricSpec};

    /// A small three-component app with clear metric families.
    fn small_app() -> AppSpec {
        let mut app = AppSpec::new("small", "lb");
        app.add_component(
            ComponentSpec::new("lb")
                .with_capacity(200.0)
                .with_metric(MetricSpec::gauge(
                    "lb_requests_per_second",
                    MetricBehavior::load_proportional(1.0),
                ))
                .with_metric(MetricSpec::gauge(
                    "lb_cpu_usage",
                    MetricBehavior::cpu_like(0.4),
                ))
                .with_metric(MetricSpec::gauge(
                    "lb_buffer_size",
                    MetricBehavior::constant(128.0),
                )),
        );
        app.add_component(
            ComponentSpec::new("api")
                .with_capacity(100.0)
                .with_metric(MetricSpec::gauge(
                    "api_requests_per_second",
                    MetricBehavior::load_proportional(1.0),
                ))
                .with_metric(MetricSpec::gauge(
                    "api_latency_ms",
                    MetricBehavior::latency(40.0, 90.0),
                ))
                .with_metric(MetricSpec::gauge(
                    "api_cpu_usage",
                    MetricBehavior::cpu_like(1.0),
                ))
                .with_metric(MetricSpec::gauge(
                    "api_threads_max",
                    MetricBehavior::constant(32.0),
                )),
        );
        app.add_component(
            ComponentSpec::new("db")
                .with_capacity(300.0)
                .with_metric(MetricSpec::gauge(
                    "db_queries_per_second",
                    MetricBehavior::load_proportional(2.0),
                ))
                .with_metric(MetricSpec::gauge(
                    "db_query_time_ms",
                    MetricBehavior::latency(5.0, 250.0),
                ))
                .with_metric(MetricSpec::counter(
                    "db_bytes_written_total",
                    MetricBehavior::counter(100.0),
                )),
        );
        app.add_call(CallSpec::new("lb", "api").with_lag_ms(500));
        app.add_call(CallSpec::new("api", "db").with_fanout(2.0).with_lag_ms(500));
        app
    }

    fn fast_config() -> SieveConfig {
        SieveConfig::default()
            .with_cluster_range(2, 3)
            .with_parallelism(2)
    }

    #[test]
    fn end_to_end_analysis_reduces_metrics_and_finds_dependencies() {
        let app = small_app();
        let sieve = Sieve::new(fast_config());
        let model = sieve
            .analyze_application_for(&app, &Workload::randomized(80.0, 3), 11, 120_000)
            .unwrap();

        assert_eq!(model.application, "small");
        assert_eq!(model.clusterings.len(), 3);
        // Constants are filtered.
        let lb = model.clustering_of("lb").unwrap();
        assert!(lb.filtered_metrics.iter().any(|m| m == "lb_buffer_size"));
        // The metric space shrinks.
        assert!(model.total_representative_count() < model.total_metric_count());
        assert!(model.overall_reduction_factor() > 1.0);
        // Dependencies follow the call graph topology: lb -> api and api -> db.
        assert!(!model.dependency_graph.edges_between("lb", "api").is_empty());
        assert!(!model.dependency_graph.edges_between("api", "db").is_empty());
        // No fabricated edge between components that never communicate.
        assert!(model.dependency_graph.edges_between("lb", "db").is_empty());
    }

    #[test]
    fn analyze_fails_on_an_empty_store() {
        let sieve = Sieve::new(SieveConfig::default());
        let store = MetricStore::new();
        let graph = CallGraph::new();
        assert!(matches!(
            sieve.analyze("empty", &store, &graph),
            Err(SieveError::NoMetrics { .. })
        ));
    }

    #[test]
    fn analyze_rejects_invalid_configuration() {
        let app = small_app();
        let (store, graph) =
            load_application(&app, &Workload::constant(10.0), 1, 60_000, 500).unwrap();
        let mut edgeless = SieveConfig::default();
        edgeless.granger.max_lag = 0;
        let unfiltered = SieveConfig {
            variance_threshold: f64::NAN,
            ..SieveConfig::default()
        };
        for config in [
            SieveConfig::default().with_interval_ms(0),
            edgeless,
            unfiltered,
        ] {
            assert!(matches!(
                Sieve::new(config).analyze("small", &store, &graph),
                Err(SieveError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn load_application_records_everything() {
        let app = small_app();
        let (store, graph) =
            load_application(&app, &Workload::constant(20.0), 5, 60_000, 500).unwrap();
        assert_eq!(store.series_count(), app.total_metric_count());
        assert_eq!(graph.component_count(), 3);
        assert!(graph.callees("api").iter().any(|c| c == "db"));
        // 120 ticks of 500 ms.
        assert_eq!(
            store
                .series(&sieve_simulator::store::MetricId::new(
                    "db",
                    "db_queries_per_second"
                ))
                .unwrap()
                .len(),
            120
        );
    }

    #[test]
    fn cached_and_naive_granger_paths_produce_identical_models() {
        // The shared SBD and causality engines, the session's caches and
        // the executor must be pure optimisations: at every parallelism the
        // model is bit-identical to the stateless serial oracle's.
        let app = small_app();
        let (store, graph) =
            load_application(&app, &Workload::randomized(60.0, 1), 9, 90_000, 500).unwrap();
        let reference = crate::oracle::analyze("small", &store, &graph, &fast_config()).unwrap();
        assert!(
            reference.dependency_graph.edge_count() > 0,
            "scenario must produce dependency edges"
        );
        for parallelism in [1usize, 4, 8] {
            let sieve = Sieve::new(fast_config().with_parallelism(parallelism));
            let model = sieve.analyze("small", &store, &graph).unwrap();
            assert_eq!(reference, model, "parallelism {parallelism}");
        }
    }

    #[test]
    fn serial_and_parallel_pipelines_produce_identical_models() {
        // The small app at the fast config, and OpenStack's full metric
        // profile at the shipped config: with it both stages — per-component
        // reduction and per-edge Granger testing — have enough independent
        // work to spread over eight workers.
        let cases = [
            (
                small_app(),
                Workload::randomized(60.0, 1),
                90_000,
                fast_config(),
            ),
            (
                openstack::app_spec(MetricRichness::Full),
                Workload::randomized(60.0, 5),
                120_000,
                SieveConfig::default(),
            ),
        ];
        for (app, workload, duration_ms, config) in cases {
            let (store, graph) = load_application(&app, &workload, 9, duration_ms, 500).unwrap();
            let serial = Sieve::new(config.clone().with_parallelism(1))
                .analyze(&app.name, &store, &graph)
                .unwrap();
            let parallel = Sieve::new(config.with_parallelism(8))
                .analyze(&app.name, &store, &graph)
                .unwrap();
            assert!(serial.dependency_graph.edge_count() > 0, "{}", app.name);

            // Full structural equality: clusterings (members,
            // representatives, scores), dependency edges with their lags and
            // statistics — not just matching counts.
            assert_eq!(serial, parallel, "{}", app.name);

            // Spell out the load-bearing pieces so a regression pinpoints
            // itself even if `SieveModel`'s PartialEq ever loosens.
            assert_eq!(serial.clusterings, parallel.clusterings);
            for (s, p) in serial
                .dependency_graph
                .edges()
                .iter()
                .zip(parallel.dependency_graph.edges())
            {
                assert_eq!(s, p);
            }
            assert_eq!(
                serial.dependency_graph.edge_count(),
                parallel.dependency_graph.edge_count()
            );
            assert_eq!(
                serial
                    .clusterings
                    .values()
                    .map(|c| c.representatives())
                    .collect::<Vec<_>>(),
                parallel
                    .clusterings
                    .values()
                    .map(|c| c.representatives())
                    .collect::<Vec<_>>()
            );
        }
    }
}
