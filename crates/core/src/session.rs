//! Epoch-based incremental analysis: the [`AnalysisSession`].
//!
//! [`crate::pipeline::Sieve::analyze`] is a batch pass: prepare every
//! series, cluster every component, Granger-test every call-graph edge.
//! A live deployment does not change wholesale between observations — a
//! delta touches a handful of metrics — so the session keeps the analysis
//! state alive between epochs and recomputes only what a delta dirties:
//!
//! * **Prepared series** are cached per component and rebuilt only for
//!   components with at least one touched series (preparation truncates a
//!   component's series to a common length, so one new sample can shift
//!   the whole component's prepared view — the component is the dirtiness
//!   unit here).
//! * **Clusterings** are cached per component, keyed by a content
//!   fingerprint of the component's prepared series (names + values) mixed
//!   with the statistical configuration. A re-prepared component whose
//!   prepared content came out identical keeps its clustering without
//!   re-running the k sweep.
//! * **Granger verdicts** are cached per comparison (source/target
//!   component + metric), keyed by the prepared-series fingerprints of
//!   both endpoints and the configuration. An edge is re-tested only when
//!   one of its endpoint series actually changed — not merely because some
//!   unrelated component received samples.
//!
//! Every cache key is a *content* fingerprint, never a timestamp or an
//! epoch number, and all recomputation funnels through the same
//! [`crate::reduce`]/[`crate::dependencies`] code as the batch path. The
//! result is the central guarantee of this module, asserted by tests,
//! property tests and the `incremental` bench: a session that absorbed any
//! sequence of deltas emits a [`SieveModel`] **bit-identical** to batch
//! analysis of the final store — and to the stateless [`crate::oracle`] —
//! across parallelism degrees.
//!
//! # Lifecycle
//!
//! ```no_run
//! use sieve_core::config::SieveConfig;
//! use sieve_core::session::AnalysisSession;
//! use sieve_simulator::engine::{SimConfig, Simulation};
//! use sieve_simulator::workload::Workload;
//! # let spec = sieve_apps::sharelatex::app_spec(sieve_apps::MetricRichness::Minimal);
//!
//! let mut sim = Simulation::new(spec, Workload::constant(40.0), SimConfig::new(7)).unwrap();
//! let mut session = AnalysisSession::new(
//!     "sharelatex",
//!     sim.store().clone(),
//!     sim.call_graph(),
//!     SieveConfig::default(),
//! )
//! .unwrap();
//! loop {
//!     let (delta, executed) = sim.step_epoch(60);
//!     if executed == 0 {
//!         break;
//!     }
//!     session.set_call_graph(sim.call_graph());
//!     let model = session.update(&delta).unwrap();
//!     println!("epoch {}: {} edges", delta.epoch, model.dependency_graph.edge_count());
//! }
//! ```

use crate::columnar::PreparedComponent;
use crate::config::SieveConfig;
use crate::dependencies::{
    assemble_graph, candidate_edges_per_comparison, comparison_plan, Comparison, SeriesKey,
};
use crate::model::{ComponentClustering, SieveModel};
use crate::pipeline::prepare_components;
use crate::reduce::reduce_component;
use crate::Result;
use sieve_exec::hash::{fingerprint_f64s, mix, mix_f64, mix_str, FINGERPRINT_SEED};
use sieve_exec::{try_par_map_chunks, Name};
use sieve_graph::{CallGraph, DependencyEdge};
use sieve_simulator::store::{MetricStore, StoreDelta};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// What one [`AnalysisSession::refresh`] actually recomputed — the
/// observable behind the "only dirty work is redone" guarantee, asserted
/// by the incremental tests and reported by the bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Epoch watermark of the last delta applied (0 before the first).
    pub epoch: u64,
    /// Components known to the session after the refresh.
    pub components_total: usize,
    /// Components whose series were re-prepared in this refresh.
    pub components_prepared: usize,
    /// Components whose k-Shape sweep was re-run in this refresh.
    pub components_reclustered: usize,
    /// Size of the comparison plan (pairs, not directions) of this refresh.
    pub comparisons_planned: usize,
    /// Comparisons actually Granger-tested (cache misses) in this refresh.
    pub comparisons_tested: usize,
}

/// Cached per-component preparation state.
#[derive(Debug, Clone)]
struct PreparedEntry {
    /// The prepared (resampled, truncated) series, packed into one
    /// columnar, `Arc`-shared [`PreparedComponent`] arena.
    prepared: PreparedComponent,
    /// Content fingerprint of each prepared series, index-aligned.
    series_fps: Vec<u64>,
    /// Combined fingerprint of the whole prepared set (names + values +
    /// configuration) — the clustering cache key.
    clustering_key: u64,
}

/// Cache key of one comparison's candidate edges: the comparison identity,
/// the content fingerprints of both endpoint series, and the statistical
/// configuration fingerprint — so a verdict can never outlive the exact
/// inputs and settings that produced it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct EdgeKey {
    source_component: Name,
    source_metric: Name,
    target_component: Name,
    target_metric: Name,
    source_fp: u64,
    target_fp: u64,
    config_fp: u64,
}

impl EdgeKey {
    fn new(cmp: &Comparison, source_fp: u64, target_fp: u64, config_fp: u64) -> Self {
        Self {
            source_component: cmp.source_component.clone(),
            source_metric: cmp.source_metric.clone(),
            target_component: cmp.target_component.clone(),
            target_metric: cmp.target_metric.clone(),
            source_fp,
            target_fp,
            config_fp,
        }
    }
}

/// Fingerprint of the statistical configuration: every field that can
/// change an analysis result. Parallelism is deliberately excluded — it is
/// proven result-invariant.
fn config_fingerprint(config: &SieveConfig) -> u64 {
    let mut fp = mix(FINGERPRINT_SEED, config.interval_ms);
    fp = mix_f64(fp, config.variance_threshold);
    fp = mix(fp, config.min_clusters as u64);
    fp = mix(fp, config.max_clusters as u64);
    fp = mix(fp, config.kshape_max_iterations as u64);
    fp = mix(fp, config.granger.max_lag as u64);
    fp = mix_f64(fp, config.granger.significance);
    fp = mix(fp, u64::from(config.granger.difference_non_stationary));
    mix(fp, config.granger.min_observations as u64)
}

/// A long-lived, dirty-tracking analysis of one application.
///
/// The session holds a handle to the (shared, append-only) [`MetricStore`]
/// and absorbs [`StoreDelta`]s: [`AnalysisSession::update`] re-prepares
/// only touched components, re-clusters only components whose prepared
/// content changed, re-tests only comparisons with a changed endpoint, and
/// assembles a full [`SieveModel`] from cached plus fresh state. See the
/// [module docs](self) for the cache keys and the equality guarantee.
#[derive(Debug)]
pub struct AnalysisSession {
    config: SieveConfig,
    config_fp: u64,
    application: String,
    store: MetricStore,
    call_graph: CallGraph,
    /// Prepared columnar series arenas + fingerprints per component.
    prepared: BTreeMap<Name, PreparedEntry>,
    /// Cached clustering per component, valid for `clustering_keys[name]`.
    clusterings: BTreeMap<Name, ComponentClustering>,
    clustering_keys: BTreeMap<Name, u64>,
    /// Candidate edges per comparison, stamped with the refresh generation
    /// that last used them (stale entries are pruned each refresh, so the
    /// cache stays bounded by the plan size).
    edge_cache: HashMap<EdgeKey, (u64, Vec<DependencyEdge>)>,
    generation: u64,
    /// Components that must be re-prepared at the next refresh.
    dirty: BTreeSet<Name>,
    last_epoch: u64,
    stats: SessionStats,
    /// The model produced by the last successful refresh, shared so a
    /// serving layer can hand out read-only snapshots without cloning.
    last_model: Option<Arc<SieveModel>>,
}

impl AnalysisSession {
    /// Creates a session over the given store handle and call graph. All
    /// components already in the store are marked dirty, so the first
    /// [`AnalysisSession::refresh`] (or [`AnalysisSession::update`])
    /// performs a full analysis — which is exactly what
    /// [`crate::pipeline::Sieve::analyze`] does.
    ///
    /// The epoch watermark starts at the store's: 0 for a fresh store, and
    /// for one revived from a durability snapshot (`MetricStore::restore`)
    /// the epoch the frozen session had reached, so stats continue from
    /// where it stopped. Because models are pure functions of store
    /// content, the first refresh over a revived store publishes the model
    /// the frozen session would have published over the same content.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SieveError::InvalidConfig`] for invalid
    /// configurations.
    pub fn new(
        application: impl Into<String>,
        store: MetricStore,
        call_graph: CallGraph,
        config: SieveConfig,
    ) -> Result<Self> {
        config.validate()?;
        let mut session = Self {
            config_fp: config_fingerprint(&config),
            config,
            application: application.into(),
            last_epoch: store.epoch(),
            store,
            call_graph,
            prepared: BTreeMap::new(),
            clusterings: BTreeMap::new(),
            clustering_keys: BTreeMap::new(),
            edge_cache: HashMap::new(),
            generation: 0,
            dirty: BTreeSet::new(),
            stats: SessionStats::default(),
            last_model: None,
        };
        session.mark_all_dirty();
        Ok(session)
    }

    /// The session configuration.
    pub fn config(&self) -> &SieveConfig {
        &self.config
    }

    /// The analysed application's name.
    pub fn application(&self) -> &str {
        &self.application
    }

    /// The store handle this session analyses.
    pub fn store(&self) -> &MetricStore {
        &self.store
    }

    /// What the last [`AnalysisSession::refresh`] recomputed.
    pub fn last_stats(&self) -> SessionStats {
        self.stats
    }

    /// The model produced by the last successful refresh, as a shared
    /// snapshot — `None` before the first refresh. Cloning the returned
    /// `Arc` is a reference-count bump, so a serving layer can publish the
    /// snapshot to concurrent readers while the session keeps absorbing
    /// deltas: a later refresh swaps in a *new* `Arc` and never mutates a
    /// model that was already handed out.
    pub fn snapshot(&self) -> Option<Arc<SieveModel>> {
        self.last_model.clone()
    }

    /// Replaces the call graph (it grows while a simulation streams).
    /// Topology changes alter the comparison *plan*, never a cached
    /// verdict, so nothing is dirtied.
    pub fn set_call_graph(&mut self, call_graph: CallGraph) {
        self.call_graph = call_graph;
    }

    /// The call graph the session currently plans comparisons over. A
    /// durability snapshot persists this next to the frozen store, so a
    /// recovered session plans the same comparisons.
    pub fn call_graph(&self) -> &CallGraph {
        &self.call_graph
    }

    /// Marks the components with touched series in `delta` as dirty
    /// without recomputing anything; several deltas may be absorbed before
    /// one [`AnalysisSession::refresh`].
    pub fn apply_delta(&mut self, delta: &StoreDelta) {
        for id in &delta.touched {
            self.dirty.insert(id.component.clone());
        }
        self.last_epoch = self.last_epoch.max(delta.epoch);
    }

    /// Whether absorbed-but-not-yet-refreshed dirt is pending: `true`
    /// after [`AnalysisSession::apply_delta`] of a non-empty delta (or
    /// [`AnalysisSession::mark_all_dirty`]) until the next *successful*
    /// refresh — a failed refresh keeps its dirty set, so a caller polling
    /// this flag retries exactly the outstanding work. The serving layer's
    /// dirty sweep uses this to decide which tenants need a refresh.
    pub fn has_pending_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Marks every component of the store dirty (full recomputation at the
    /// next refresh). Cached clusterings and edge verdicts still short-cut
    /// work whose content fingerprints did not change.
    pub fn mark_all_dirty(&mut self) {
        let dirty = &mut self.dirty;
        self.store.for_each_component(|c| {
            dirty.insert(c.clone());
        });
    }

    /// Absorbs one delta and recomputes the model: the streaming
    /// counterpart of one full `Sieve::analyze` pass. The result is
    /// bit-identical to batch-analysing the store's current content,
    /// whatever sequence of deltas led here.
    ///
    /// The returned model is an owned deep copy (on top of the snapshot
    /// the session retains for [`AnalysisSession::snapshot`]); callers on
    /// a streaming hot path should prefer
    /// [`AnalysisSession::update_shared`], which hands out the retained
    /// `Arc` without cloning the model.
    ///
    /// # Errors
    ///
    /// Propagates clustering and causality errors, like the batch path.
    ///
    /// # Example
    ///
    /// ```
    /// use sieve_core::config::SieveConfig;
    /// use sieve_core::pipeline::Sieve;
    /// use sieve_core::session::AnalysisSession;
    /// use sieve_graph::CallGraph;
    /// use sieve_simulator::store::{MetricId, MetricStore};
    ///
    /// let store = MetricStore::new();
    /// for metric in ["requests", "latency"] {
    ///     let id = MetricId::new("web", metric);
    ///     for t in 0..60u64 {
    ///         store.record(&id, t * 500, ((t as f64) * 0.2).sin() * metric.len() as f64);
    ///     }
    /// }
    /// let config = SieveConfig::default().with_cluster_range(2, 2).with_parallelism(1);
    /// let mut session =
    ///     AnalysisSession::new("shop", store.clone(), CallGraph::new(), config.clone())?;
    /// store.drain_delta(); // the initial load; everything is already dirty
    /// session.refresh()?;
    ///
    /// // Stream one more epoch: touch a series, drain the delta, update.
    /// store.record(&MetricId::new("web", "requests"), 60 * 500, 1.0);
    /// let model = session.update(&store.drain_delta())?;
    ///
    /// // The incremental model matches a from-scratch batch analysis.
    /// let batch = Sieve::new(config).analyze("shop", &store, &CallGraph::new())?;
    /// assert_eq!(model, batch);
    /// assert_eq!(session.last_stats().components_prepared, 1);
    /// # Ok::<(), sieve_core::SieveError>(())
    /// ```
    pub fn update(&mut self, delta: &StoreDelta) -> Result<SieveModel> {
        self.update_shared(delta).map(|model| (*model).clone())
    }

    /// Like [`AnalysisSession::update`], but returns the model as a shared
    /// [`Arc`] snapshot (also retrievable later via
    /// [`AnalysisSession::snapshot`]) instead of a fresh clone — the form
    /// the multi-tenant serving layer publishes to readers.
    ///
    /// # Errors
    ///
    /// Propagates clustering and causality errors, like the batch path.
    pub fn update_shared(&mut self, delta: &StoreDelta) -> Result<Arc<SieveModel>> {
        self.apply_delta(delta);
        self.refresh_shared()
    }

    /// Recomputes everything currently dirty and assembles the model.
    ///
    /// # Errors
    ///
    /// Propagates clustering and causality errors, like the batch path.
    pub fn refresh(&mut self) -> Result<SieveModel> {
        self.refresh_shared().map(|model| (*model).clone())
    }

    /// Like [`AnalysisSession::refresh`], but returns the model as a shared
    /// [`Arc`] snapshot. On success the same snapshot becomes available via
    /// [`AnalysisSession::snapshot`]; on error the previous snapshot is left
    /// in place.
    ///
    /// # Errors
    ///
    /// Propagates clustering and causality errors, like the batch path.
    pub fn refresh_shared(&mut self) -> Result<Arc<SieveModel>> {
        // Components that appeared in the store without a delta being
        // applied (e.g. a session created over a pre-loaded store) are
        // picked up here, so a refresh never analyses a stale world.
        let (prepared, dirty) = (&self.prepared, &mut self.dirty);
        self.store.for_each_component(|c| {
            if !prepared.contains_key(c) {
                dirty.insert(c.clone());
            }
        });

        let mut stats = SessionStats {
            epoch: self.last_epoch,
            ..SessionStats::default()
        };

        // 1. Re-prepare the dirty components (in parallel, component order
        //    preserved by the executor).
        let dirty_components: Vec<Name> = std::mem::take(&mut self.dirty).into_iter().collect();
        stats.components_prepared = dirty_components.len();
        let freshly_prepared = prepare_components(&self.store, &dirty_components, &self.config);
        for (component, prepared) in dirty_components.iter().zip(freshly_prepared) {
            let series_fps: Vec<u64> = (0..prepared.len())
                .map(|i| fingerprint_f64s(prepared.series(i)))
                .collect();
            let clustering_key = prepared.names().iter().zip(&series_fps).fold(
                mix(self.config_fp, prepared.len() as u64),
                |acc, (name, &fp)| mix(mix_str(acc, name.as_str()), fp),
            );
            self.prepared.insert(
                component.clone(),
                PreparedEntry {
                    prepared,
                    series_fps,
                    clustering_key,
                },
            );
        }
        stats.components_total = self.prepared.len();

        // 2. Re-cluster every component whose cached clustering no longer
        //    matches its prepared content (again in parallel, order
        //    preserved). Scanning all prepared components instead of just
        //    the dirty list costs one key comparison per component and
        //    makes the step self-healing: if a previous refresh failed
        //    after re-preparing, the key mismatch is still visible here.
        let to_recluster: Vec<(&Name, &PreparedEntry)> = self
            .prepared
            .iter()
            .filter(|(component, pc)| {
                self.clustering_keys.get(*component) != Some(&pc.clustering_key)
            })
            .collect();
        stats.components_reclustered = to_recluster.len();
        let reclustered =
            match try_par_map_chunks(self.config.parallelism, &to_recluster, |(component, pc)| {
                reduce_component((*component).clone(), &pc.prepared, &self.config)
                    .map(|clustering| ((*component).clone(), pc.clustering_key, clustering))
            }) {
                Ok(reclustered) => reclustered,
                Err(e) => {
                    // Put the taken dirty set back so a failed refresh
                    // leaves the outstanding work observable
                    // ([`AnalysisSession::has_pending_dirty`]) and a retry
                    // redoes it. (Re-preparation is idempotent, and the
                    // re-cluster scan above is keyed by content, so the
                    // retry converges to the same state.)
                    self.dirty.extend(dirty_components);
                    return Err(e);
                }
            };
        for (component, key, clustering) in reclustered {
            self.clusterings.insert(component.clone(), clustering);
            self.clustering_keys.insert(component, key);
        }

        // 3. Re-test the comparisons with a changed endpoint; everything
        //    else is served from the edge cache.
        self.generation += 1;
        let generation = self.generation;
        let plan = comparison_plan(&self.call_graph, &self.clusterings);
        stats.comparisons_planned = plan.len();

        // (fingerprint, values) per prepared series, borrowed from the
        // columnar arenas — nothing on this path copies a sample.
        let mut lookup: HashMap<SeriesKey<'_>, (u64, &[f64])> = HashMap::new();
        for (component, pc) in &self.prepared {
            for ((name, values), &fp) in pc.prepared.iter().zip(&pc.series_fps) {
                lookup.insert((component.as_str(), name.as_str()), (fp, values));
            }
        }

        let mut per_comparison: Vec<Option<Vec<DependencyEdge>>> = vec![None; plan.len()];
        let mut keys: Vec<Option<EdgeKey>> = Vec::with_capacity(plan.len());
        let mut miss_indices: Vec<usize> = Vec::new();
        for (i, cmp) in plan.iter().enumerate() {
            let source = lookup.get(&(cmp.source_component.as_str(), cmp.source_metric.as_str()));
            let target = lookup.get(&(cmp.target_component.as_str(), cmp.target_metric.as_str()));
            match (source, target) {
                (Some(&(source_fp, _)), Some(&(target_fp, _))) => {
                    let key = EdgeKey::new(cmp, source_fp, target_fp, self.config_fp);
                    if let Some((stamp, edges)) = self.edge_cache.get_mut(&key) {
                        *stamp = generation;
                        per_comparison[i] = Some(edges.clone());
                        keys.push(None);
                    } else {
                        miss_indices.push(i);
                        keys.push(Some(key));
                    }
                }
                // A representative without a prepared series produces no
                // edges on the batch path either; nothing worth caching.
                _ => {
                    per_comparison[i] = Some(Vec::new());
                    keys.push(None);
                }
            }
        }

        stats.comparisons_tested = miss_indices.len();
        if !miss_indices.is_empty() {
            let miss_plan: Vec<Comparison> =
                miss_indices.iter().map(|&i| plan[i].clone()).collect();
            let values_lookup: HashMap<SeriesKey<'_>, &[f64]> = lookup
                .iter()
                .map(|(key, &(_, values))| (*key, values))
                .collect();
            let computed = candidate_edges_per_comparison(&miss_plan, &values_lookup, &self.config);
            for (&i, edges) in miss_indices.iter().zip(computed) {
                let key = keys[i].take().expect("miss indices carry their key");
                self.edge_cache.insert(key, (generation, edges.clone()));
                per_comparison[i] = Some(edges);
            }
        }

        let dependency_graph = assemble_graph(
            &self.clusterings,
            &self.call_graph,
            per_comparison.into_iter().flatten().flatten(),
        );

        // Prune cache entries no longer reachable from the plan so the
        // cache stays bounded even under churning representative sets.
        self.edge_cache.retain(|_, (stamp, _)| *stamp == generation);

        self.stats = stats;
        let model = Arc::new(SieveModel {
            application: self.application.clone(),
            clusterings: self.clusterings.clone(),
            dependency_graph,
        });
        self.last_model = Some(Arc::clone(&model));
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{load_application, Sieve};
    use sieve_simulator::app::{AppSpec, CallSpec, ComponentSpec};
    use sieve_simulator::engine::{SimConfig, Simulation};
    use sieve_simulator::metrics::{MetricBehavior, MetricSpec};
    use sieve_simulator::workload::Workload;

    /// Six components in a chain, three metrics each — enough structure
    /// for real clusters and Granger edges while staying fast.
    fn chain_app(components: usize) -> AppSpec {
        let name = |i: usize| format!("svc{i}");
        let mut app = AppSpec::new("chain", name(0));
        for i in 0..components {
            app.add_component(
                ComponentSpec::new(name(i))
                    .with_capacity(150.0 + 30.0 * i as f64)
                    .with_metric(MetricSpec::gauge(
                        format!("svc{i}_requests_per_second"),
                        MetricBehavior::load_proportional(1.0 + 0.2 * i as f64),
                    ))
                    .with_metric(MetricSpec::gauge(
                        format!("svc{i}_latency_ms"),
                        MetricBehavior::latency(10.0 + i as f64, 120.0),
                    ))
                    .with_metric(MetricSpec::gauge(
                        format!("svc{i}_threads_max"),
                        MetricBehavior::constant(64.0),
                    )),
            );
        }
        for i in 1..components {
            app.add_call(CallSpec::new(name(i - 1), name(i)).with_lag_ms(500));
        }
        app
    }

    fn fast_config() -> SieveConfig {
        SieveConfig::default()
            .with_cluster_range(2, 3)
            .with_parallelism(2)
    }

    #[test]
    fn streamed_session_matches_batch_analysis_bit_for_bit() {
        let app = chain_app(4);
        let config = SimConfig::new(31).with_duration_ms(90_000);
        let mut sim = Simulation::new(app, Workload::randomized(60.0, 3), config).unwrap();
        let mut session = AnalysisSession::new(
            "chain",
            sim.store().clone(),
            sim.call_graph(),
            fast_config(),
        )
        .unwrap();

        let mut streamed = None;
        loop {
            let (delta, executed) = sim.step_epoch(45);
            if executed == 0 {
                break;
            }
            session.set_call_graph(sim.call_graph());
            streamed = Some(session.update(&delta).unwrap());
        }
        let streamed = streamed.expect("at least one epoch ran");

        let batch = Sieve::new(fast_config())
            .analyze("chain", sim.store(), &sim.call_graph())
            .unwrap();
        assert_eq!(streamed, batch);
    }

    #[test]
    fn update_recomputes_only_the_dirty_component() {
        let app = chain_app(6);
        let (store, graph) =
            load_application(&app, &Workload::randomized(70.0, 5), 13, 90_000, 500).unwrap();
        let mut session =
            AnalysisSession::new("chain", store.clone(), graph.clone(), fast_config()).unwrap();
        store.drain_delta();
        let full = session.refresh().unwrap();
        let full_stats = session.last_stats();
        assert_eq!(full_stats.components_prepared, 6);
        assert_eq!(full_stats.components_reclustered, 6);
        assert!(full_stats.comparisons_tested > 0);

        // Touch exactly one mid-chain component: one more tick for every
        // svc3 metric, so its prepared (truncated-to-common-length) view
        // really grows.
        for metric in [
            "svc3_requests_per_second",
            "svc3_latency_ms",
            "svc3_threads_max",
        ] {
            let id = sieve_simulator::store::MetricId::new("svc3", metric);
            let last = store.series(&id).unwrap().end_ms().unwrap();
            store.record(&id, last + 500, 42.0);
        }
        let delta = store.drain_delta();
        assert_eq!(delta.touched_components(), vec!["svc3"]);

        let updated = session.update(&delta).unwrap();
        let stats = session.last_stats();
        assert_eq!(stats.components_prepared, 1, "only svc3 is re-prepared");
        assert_eq!(stats.components_reclustered, 1, "only svc3 is re-clustered");
        assert!(
            stats.comparisons_tested < full_stats.comparisons_tested,
            "only comparisons touching svc3 are re-tested ({} of {})",
            stats.comparisons_tested,
            full_stats.comparisons_tested
        );
        assert_eq!(stats.epoch, delta.epoch);

        // And the shortcut changed nothing: batch analysis of the updated
        // store agrees bit for bit.
        let batch = Sieve::new(fast_config())
            .analyze("chain", &store, &graph)
            .unwrap();
        assert_eq!(updated, batch);

        // An empty delta re-tests nothing and returns the same model.
        let noop = session.update(&store.drain_delta()).unwrap();
        let noop_stats = session.last_stats();
        assert_eq!(noop_stats.components_prepared, 0);
        assert_eq!(noop_stats.comparisons_tested, 0);
        assert_eq!(noop, updated);
        assert_eq!(full.application, "chain");
    }

    #[test]
    fn appending_content_identical_epochs_skips_reclustering() {
        // Preparation truncates to the shortest series; if a touched
        // component's prepared content comes out unchanged, the clustering
        // key matches and the k sweep is skipped.
        let store = MetricStore::new();
        let graph = CallGraph::new();
        for m in ["a", "b"] {
            let id = sieve_simulator::store::MetricId::new("web", m);
            for t in 0..100u64 {
                store.record(
                    &id,
                    t * 500,
                    (t as f64 * 0.3).sin() * (m.len() as f64 + 1.0),
                );
            }
        }
        // A deliberately short third series pins the common length.
        let short = sieve_simulator::store::MetricId::new("web", "short");
        for t in 0..50u64 {
            store.record(&short, t * 500, t as f64);
        }
        let mut session = AnalysisSession::new("app", store.clone(), graph, fast_config()).unwrap();
        store.drain_delta();
        session.refresh().unwrap();
        assert_eq!(session.last_stats().components_reclustered, 1);

        // Extending only the already-longer series does not change the
        // truncated prepared content.
        let id = sieve_simulator::store::MetricId::new("web", "a");
        store.record(&id, 100 * 500, 1.0);
        let delta = store.drain_delta();
        session.update(&delta).unwrap();
        let stats = session.last_stats();
        assert_eq!(stats.components_prepared, 1, "web is re-prepared");
        assert_eq!(
            stats.components_reclustered, 0,
            "identical prepared content keeps the cached clustering"
        );
    }

    #[test]
    fn snapshot_tracks_the_last_refreshed_model() {
        let app = chain_app(3);
        let (store, graph) =
            load_application(&app, &Workload::randomized(50.0, 2), 7, 60_000, 500).unwrap();
        let mut session =
            AnalysisSession::new("chain", store.clone(), graph, fast_config()).unwrap();
        assert!(session.snapshot().is_none(), "no model before a refresh");

        let first = session.refresh_shared().unwrap();
        let snap = session.snapshot().unwrap();
        assert!(Arc::ptr_eq(&first, &snap), "snapshot is the same Arc");

        // A refresh swaps in a new Arc; the old snapshot stays readable and
        // unchanged (readers never observe mutation).
        for metric in ["svc1_requests_per_second", "svc1_latency_ms"] {
            let id = sieve_simulator::store::MetricId::new("svc1", metric);
            let last = store.series(&id).unwrap().end_ms().unwrap();
            store.record(&id, last + 500, 7.0);
        }
        let second = session.update_shared(&store.drain_delta()).unwrap();
        assert!(!Arc::ptr_eq(&first, &second));
        assert!(Arc::ptr_eq(&second, &session.snapshot().unwrap()));
        assert_eq!(*first, *snap);
    }

    #[test]
    fn rehydrated_session_reproduces_the_frozen_model_bitwise() {
        let app = chain_app(3);
        let (store, graph) =
            load_application(&app, &Workload::randomized(50.0, 4), 11, 60_000, 500).unwrap();
        let mut live =
            AnalysisSession::new("chain", store.clone(), graph.clone(), fast_config()).unwrap();
        let live_model = live.update_shared(&store.drain_delta()).unwrap();

        // Freeze the store, revive it, and open a fresh session over it —
        // the recovery boot path.
        let revived = sieve_simulator::store::MetricStore::restore(store.freeze());
        let mut recovered = AnalysisSession::new(
            "chain",
            revived.clone(),
            live.call_graph().clone(),
            fast_config(),
        )
        .unwrap();
        assert_eq!(
            recovered.store().epoch(),
            store.epoch(),
            "the watermark survives the freeze"
        );
        let recovered_model = recovered.refresh_shared().unwrap();
        assert_eq!(*recovered_model, *live_model);
        assert_eq!(recovered.last_stats().epoch, live.last_stats().epoch);

        // Both sides keep converging identically once ingest resumes.
        for session_store in [&store, &revived] {
            let id = sieve_simulator::store::MetricId::new("svc1", "svc1_latency_ms");
            let last = session_store.series(&id).unwrap().end_ms().unwrap();
            session_store.record(&id, last + 500, 99.0);
        }
        let next_live = live.update_shared(&store.drain_delta()).unwrap();
        let next_recovered = recovered.update_shared(&revived.drain_delta()).unwrap();
        assert_eq!(*next_recovered, *next_live);
    }

    #[test]
    fn a_session_over_a_revived_store_continues_the_frozen_one() {
        let app = chain_app(3);
        let (store, graph) =
            load_application(&app, &Workload::randomized(50.0, 6), 17, 60_000, 500).unwrap();
        // The live session absorbs two observation rounds without
        // refreshing, then fresh samples arrive and stay undrained.
        let mut live =
            AnalysisSession::new("chain", store.clone(), graph.clone(), fast_config()).unwrap();
        live.apply_delta(&store.drain_delta());
        live.apply_delta(&store.drain_delta());
        for metric in ["svc2_requests_per_second", "svc2_latency_ms"] {
            let id = sieve_simulator::store::MetricId::new("svc2", metric);
            let last = store.series(&id).unwrap().end_ms().unwrap();
            store.record(&id, last + 500, 5.0);
        }

        // A session opened over the revived store starts at its epoch, with
        // the same pending dirt.
        let revived = MetricStore::restore(store.freeze());
        let mut recovered =
            AnalysisSession::new("chain", revived.clone(), graph, fast_config()).unwrap();
        assert_eq!(revived.epoch(), 2);
        assert!(live.has_pending_dirty() && recovered.has_pending_dirty());
        let live_model = live.refresh_shared().unwrap();
        let recovered_model = recovered.refresh_shared().unwrap();
        assert_eq!(*recovered_model, *live_model);
        assert_eq!(recovered.last_stats(), live.last_stats());
        assert_eq!(recovered.last_stats().epoch, 2);

        // The pending samples drain as the same delta on both sides.
        let delta = store.drain_delta();
        assert_eq!(revived.drain_delta(), delta);
        let next_live = live.update_shared(&delta).unwrap();
        let next_recovered = recovered.update_shared(&delta).unwrap();
        assert_eq!(*next_recovered, *next_live);
        assert_eq!(recovered.last_stats(), live.last_stats());
        assert_eq!(live.last_stats().epoch, 3);
    }

    #[test]
    fn session_rejects_invalid_configuration() {
        let mut edgeless = SieveConfig::default();
        edgeless.granger.significance = 1.0;
        let unfiltered = SieveConfig {
            variance_threshold: f64::NAN,
            ..SieveConfig::default()
        };
        for config in [
            SieveConfig::default().with_interval_ms(0),
            edgeless,
            unfiltered,
        ] {
            let result = AnalysisSession::new("x", MetricStore::new(), CallGraph::new(), config);
            assert!(matches!(
                result,
                Err(crate::SieveError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn config_fingerprint_tracks_result_affecting_fields_only() {
        let base = config_fingerprint(&SieveConfig::default());
        assert_eq!(base, config_fingerprint(&SieveConfig::default()));
        assert_ne!(
            base,
            config_fingerprint(&SieveConfig::default().with_interval_ms(250))
        );
        assert_ne!(
            base,
            config_fingerprint(&SieveConfig::default().with_cluster_range(2, 5))
        );
        // Parallelism is result-invariant.
        assert_eq!(
            base,
            config_fingerprint(&SieveConfig::default().with_parallelism(8))
        );
    }
}
