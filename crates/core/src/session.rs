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
//! result is the central guarantee of this module, asserted by unit and
//! property tests: a session that absorbed any sequence of deltas emits a
//! [`SieveModel`] **bit-identical** to batch analysis of the final store —
//! and to the stateless [`crate::oracle`] — across parallelism degrees.
//!
//! # Seeding
//!
//! Because the keys name only content, the caches are valid in any process
//! whose store holds the same content. [`AnalysisSession::cache`] exports
//! them as a [`SessionCache`] and [`AnalysisSession::seed`] takes one back
//! — a durable service checkpoints its tenants' caches and seeds the
//! sessions recovery opens, so the first refresh after a crash re-prepares
//! every component but re-clusters and re-tests only what changed since
//! the checkpoint. The configuration fingerprint in every key mixes in the
//! analysis code's identity, a digest of the `timeseries`, `cluster`,
//! `causality`, `core` and `exec` sources taken at build time: every key is
//! build-specific, so an entry another build computed misses here like any
//! stale one, and a seeded session's model is the one a cold session
//! publishes.
//!
//! # Lifecycle
//!
//! [`AnalysisSession::apply_delta`] and [`AnalysisSession::set_call_graph`]
//! only queue work; [`AnalysisSession::refresh`] runs one step of named
//! phases over it, and [`AnalysisSession::update_shared`] does both:
//!
//! ```no_run
//! use sieve_core::{AnalysisSession, SieveConfig};
//! use sieve_simulator::{SimConfig, Simulation, Workload};
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
//!     let model = session.update_shared(&delta).unwrap();
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
use sieve_exec::hash::{fingerprint_f64_rows, mix, mix_f64, mix_str, FINGERPRINT_SEED};
use sieve_exec::{try_par_map_chunks, Name};
use sieve_graph::{CallGraph, DependencyEdge, DependencyGraph};
use sieve_simulator::store::{MetricStore, StoreDelta};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// What one [`AnalysisSession::refresh`] actually recomputed — the
/// observable behind the "only dirty work is redone" guarantee, asserted
/// by the incremental tests and reported by the benchmark. The refresh's
/// `record` phase is its one writer.
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
    /// Grid points the re-preparation of this refresh interpolated: those
    /// that fell on no observation, so the spline or the linear fallback
    /// computed them. Zero for windows sampled on the grid, whose every
    /// grid point is an observation (see `sieve_timeseries::resample`).
    pub grid_points_interpolated: usize,
}

/// A session's content-keyed caches, as [`AnalysisSession::cache`] exports
/// them and [`AnalysisSession::seed`] takes them back: the unit a durable
/// service checkpoints per tenant. Every key names the content it was
/// computed from and `config_fp`, so an entry is valid wherever its key
/// matches and never matches anywhere else.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionCache {
    /// The configuration fingerprint every key below carries: the
    /// result-affecting fields of [`SieveConfig`] mixed with the analysis
    /// code's identity.
    pub config_fp: u64,
    /// Cached clusterings, in component order.
    pub clusterings: Vec<CachedClustering>,
    /// Cached Granger verdicts, in comparison order.
    pub verdicts: Vec<CachedVerdict>,
}

impl SessionCache {
    /// Entries held: clusterings plus verdicts.
    pub(crate) fn len(&self) -> usize {
        self.clusterings.len() + self.verdicts.len()
    }
}

/// One cached clustering: valid while its component's prepared content
/// fingerprints to `key`.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedClustering {
    /// Fingerprint of the component's prepared series (names and values)
    /// and of the configuration.
    pub key: u64,
    /// The clustering that content produced; its `component` names the
    /// component it belongs to.
    pub clustering: ComponentClustering,
}

/// One cached comparison: the candidate edges a Granger test of the source
/// series against the target series produced, valid while both series'
/// prepared content fingerprints to `source_fp` and `target_fp`.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedVerdict {
    /// Component of the causing series.
    pub source_component: Name,
    /// The causing (representative) metric.
    pub source_metric: Name,
    /// Component of the affected series.
    pub target_component: Name,
    /// The affected (representative) metric.
    pub target_metric: Name,
    /// Content fingerprint of the prepared source series.
    pub source_fp: u64,
    /// Content fingerprint of the prepared target series.
    pub target_fp: u64,
    /// The candidate edges the test produced (possibly none).
    pub edges: Vec<DependencyEdge>,
}

/// The order [`AnalysisSession::cache`] lists verdicts in: by comparison.
fn verdict_order(v: &CachedVerdict) -> [&Name; 4] {
    let CachedVerdict {
        source_component,
        source_metric,
        target_component,
        target_metric,
        ..
    } = v;
    [
        source_component,
        source_metric,
        target_component,
        target_metric,
    ]
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
    comparison: Comparison,
    source_fp: u64,
    target_fp: u64,
    config_fp: u64,
}

/// What the `absorb` phase took out of the session for one refresh: the
/// components to re-prepare, the pending re-plan and the epoch the refresh
/// records. A failed refresh puts the first two back.
struct Absorbed {
    dirty: Vec<Name>,
    replan: bool,
    epoch: u64,
}

/// The counts the `plan_and_test` phase hands to `record`.
struct Tested {
    comparisons_planned: usize,
    comparisons_tested: usize,
}

/// The analysis code's identity: a digest of the sources of every crate
/// whose code decides a clustering or a verdict, taken by the build script.
const ANALYSIS_IDENTITY: &str = env!("SIEVE_ANALYSIS_IDENTITY");

/// Fingerprint of the statistical configuration: every field that can
/// change an analysis result, mixed with [`ANALYSIS_IDENTITY`] — the code
/// that computes a result can change it too. Parallelism is deliberately
/// excluded — it is proven result-invariant.
fn config_fingerprint(config: &SieveConfig) -> u64 {
    let mut fp = mix_str(FINGERPRINT_SEED, ANALYSIS_IDENTITY);
    fp = mix(fp, config.interval_ms);
    fp = mix_f64(fp, config.variance_threshold);
    fp = mix(fp, config.min_clusters as u64);
    fp = mix(fp, config.max_clusters as u64);
    fp = mix(fp, config.kshape_max_iterations as u64);
    fp = mix(fp, config.granger.max_lag as u64);
    mix_f64(fp, config.granger.significance)
}

/// A long-lived, dirty-tracking analysis of one application.
///
/// The session holds a handle to the (shared, append-only) [`MetricStore`]
/// and absorbs [`StoreDelta`]s: [`AnalysisSession::refresh`] re-prepares
/// only touched components, re-clusters only components whose prepared
/// content changed, re-tests only comparisons with a changed endpoint, and
/// assembles a full [`SieveModel`] from cached plus fresh state. The
/// `session` module's documentation gives the cache keys and the equality
/// guarantee.
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
    /// Set by a call-graph swap, cleared by the next successful refresh.
    replan: bool,
    last_epoch: u64,
    stats: SessionStats,
    /// The model produced by the last successful refresh, shared so a
    /// serving layer can hand out read-only snapshots without cloning.
    last_model: Option<Arc<SieveModel>>,
    /// An error the next `reduce` phase returns, once.
    #[cfg(test)]
    reduce_failpoint: Option<crate::SieveError>,
}

impl AnalysisSession {
    /// Creates a session over the given store handle and call graph. All
    /// components already in the store are marked dirty, so the first
    /// [`AnalysisSession::refresh`] performs a full analysis — which is
    /// exactly what [`crate::pipeline::Sieve::analyze`] does.
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
            replan: false,
            stats: SessionStats::default(),
            last_model: None,
            #[cfg(test)]
            reduce_failpoint: None,
        };
        session.mark_all_dirty();
        Ok(session)
    }

    /// The session configuration.
    pub fn config(&self) -> &SieveConfig {
        &self.config
    }

    /// The store handle this session analyses.
    #[cfg(test)]
    pub(crate) fn store(&self) -> &MetricStore {
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
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> Option<Arc<SieveModel>> {
        self.last_model.clone()
    }

    /// Replaces the call graph (it grows while a simulation streams).
    /// Topology changes alter the comparison *plan*, never a cached
    /// verdict, so nothing is dirtied; the re-plan stays pending
    /// ([`AnalysisSession::needs_refresh`]) until a refresh succeeds.
    pub fn set_call_graph(&mut self, call_graph: CallGraph) {
        self.call_graph = call_graph;
        self.replan = true;
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

    /// Whether the next [`AnalysisSession::refresh`] has work: dirty
    /// components, a re-plan queued by [`AnalysisSession::set_call_graph`],
    /// or no model yet. Only a *successful* refresh clears it, so a caller
    /// polling this (as the serving layer's sweep does) retries exactly
    /// the outstanding work.
    pub fn needs_refresh(&self) -> bool {
        !self.dirty.is_empty() || self.replan || self.last_model.is_none()
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

    /// Exports the session's content-keyed caches — every clustering with
    /// its key and every verdict the last refresh's plan reached — for
    /// [`AnalysisSession::seed`] to take back, here or in another process.
    pub fn cache(&self) -> SessionCache {
        let clusterings = self
            .clusterings
            .iter()
            .filter_map(|(component, clustering)| {
                let key = *self.clustering_keys.get(component)?;
                let clustering = clustering.clone();
                Some(CachedClustering { key, clustering })
            })
            .collect();
        let mut verdicts: Vec<CachedVerdict> = self
            .edge_cache
            .iter()
            .map(|(key, (_, edges))| CachedVerdict {
                source_component: key.comparison.source_component.clone(),
                source_metric: key.comparison.source_metric.clone(),
                target_component: key.comparison.target_component.clone(),
                target_metric: key.comparison.target_metric.clone(),
                source_fp: key.source_fp,
                target_fp: key.target_fp,
                edges: edges.clone(),
            })
            .collect();
        verdicts.sort_unstable_by(|a, b| verdict_order(a).cmp(&verdict_order(b)));
        SessionCache {
            config_fp: self.config_fp,
            clusterings,
            verdicts,
        }
    }

    /// Seeds the session's caches with `cache` — the one way entries enter
    /// them other than a refresh computing them — and returns how many it
    /// took; `None`, taking nothing, when `cache` was computed under
    /// another configuration fingerprint (another statistical configuration
    /// or another analysis build). Entries the session already holds win.
    ///
    /// Seeding changes no result: the next refresh re-prepares what it
    /// would have anyway and reuses a seeded entry only where its content
    /// key matches, so a seeded session publishes the model an unseeded one
    /// does, with less work. A clustering of a component the store does not
    /// hold is dropped by that refresh, never published.
    pub fn seed(&mut self, cache: SessionCache) -> Option<usize> {
        if cache.config_fp != self.config_fp {
            return None;
        }
        let seeded = cache.len();
        for CachedClustering { key, clustering } in cache.clusterings {
            let component = clustering.component.clone();
            if !self.clusterings.contains_key(&component) {
                self.clustering_keys.insert(component.clone(), key);
                self.clusterings.insert(component, clustering);
            }
        }
        for verdict in cache.verdicts {
            let key = EdgeKey {
                comparison: Comparison {
                    source_component: verdict.source_component,
                    source_metric: verdict.source_metric,
                    target_component: verdict.target_component,
                    target_metric: verdict.target_metric,
                },
                source_fp: verdict.source_fp,
                target_fp: verdict.target_fp,
                config_fp: cache.config_fp,
            };
            let stamped = (self.generation, verdict.edges);
            self.edge_cache.entry(key).or_insert(stamped);
        }
        Some(seeded)
    }

    /// [`AnalysisSession::apply_delta`], then [`AnalysisSession::refresh`]:
    /// the streaming counterpart of one `Sieve::analyze` pass, bit-identical
    /// to batch-analysing the store whatever sequence of deltas led here.
    ///
    /// # Errors
    ///
    /// Propagates clustering and causality errors, like the batch path.
    ///
    /// # Example
    ///
    /// ```
    /// use sieve_core::{AnalysisSession, Sieve, SieveConfig};
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
    /// let model = session.update_shared(&store.drain_delta())?;
    ///
    /// // The incremental model matches a from-scratch batch analysis.
    /// let batch = Sieve::new(config).analyze("shop", &store, &CallGraph::new())?;
    /// assert_eq!(*model, batch);
    /// assert_eq!(session.last_stats().components_prepared, 1);
    /// # Ok::<(), sieve_core::SieveError>(())
    /// ```
    pub fn update_shared(&mut self, delta: &StoreDelta) -> Result<Arc<SieveModel>> {
        self.apply_delta(delta);
        self.refresh()
    }

    /// Recomputes everything outstanding and publishes the model as a
    /// shared [`Arc`] snapshot; a caller that wants an owned model clones
    /// it. The phases run in order: *absorb → prepare → reduce →
    /// plan and test → publish → record*. On error everything `absorb`
    /// took is put back and the previous snapshot and stats stay in place.
    ///
    /// # Errors
    ///
    /// Propagates clustering and causality errors, like the batch path.
    pub fn refresh(&mut self) -> Result<Arc<SieveModel>> {
        let absorbed = self.absorb();
        let grid_points_interpolated = self.prepare(&absorbed.dirty);
        let components_reclustered = self.reduce().inspect_err(|_| {
            // The one rollback. Re-preparation is idempotent and `reduce`
            // compares content keys, so the retry reaches the state and the
            // record of a refresh that never failed.
            self.dirty.extend(absorbed.dirty.iter().cloned());
            self.replan |= absorbed.replan;
        })?;
        let (dependency_graph, tested) = self.plan_and_test();
        let model = self.publish(dependency_graph);
        self.record(
            &absorbed,
            grid_points_interpolated,
            components_reclustered,
            tested,
        );
        Ok(model)
    }

    /// Takes the outstanding work, plus the components the store has but
    /// the session never prepared (e.g. a session created over a pre-loaded
    /// store), so a refresh never analyses a stale world.
    fn absorb(&mut self) -> Absorbed {
        let (prepared, dirty) = (&self.prepared, &mut self.dirty);
        self.store.for_each_component(|c| {
            if !prepared.contains_key(c) {
                dirty.insert(c.clone());
            }
        });
        Absorbed {
            dirty: std::mem::take(&mut self.dirty).into_iter().collect(),
            replan: std::mem::take(&mut self.replan),
            epoch: self.last_epoch,
        }
    }

    /// Re-prepares the `dirty` components (in parallel, component order
    /// preserved by the executor), fingerprints what came out, and returns
    /// the grid points their resampling interpolated.
    fn prepare(&mut self, dirty: &[Name]) -> usize {
        let freshly_prepared = prepare_components(&self.store, dirty, &self.config);
        let mut interpolated = 0;
        for (component, (prepared, grid_points)) in dirty.iter().zip(freshly_prepared) {
            interpolated += grid_points;
            let series_fps = fingerprint_f64_rows(prepared.buffer(), prepared.len());
            let clustering_key = prepared.names().iter().zip(&series_fps).fold(
                mix(self.config_fp, prepared.len() as u64),
                |acc, (name, &fp)| mix(mix_str(acc, name.as_str()), fp),
            );
            let entry = PreparedEntry {
                prepared,
                series_fps,
                clustering_key,
            };
            self.prepared.insert(component.clone(), entry);
        }
        interpolated
    }

    /// Re-clusters (in parallel, order preserved) and counts every
    /// component whose clustering key no longer matches its prepared
    /// content — all of them, not just the dirty list, so content a failed
    /// refresh re-prepared is still a mismatch here.
    fn reduce(&mut self) -> Result<usize> {
        #[cfg(test)]
        if let Some(error) = self.reduce_failpoint.take() {
            return Err(error);
        }
        // Only components the store holds are the session's to publish: a
        // seeded clustering of any other one goes.
        let prepared = &self.prepared;
        self.clusterings.retain(|c, _| prepared.contains_key(c));
        self.clustering_keys.retain(|c, _| prepared.contains_key(c));
        let to_recluster: Vec<(&Name, &PreparedEntry)> = self
            .prepared
            .iter()
            .filter(|(component, pc)| {
                self.clustering_keys.get(*component) != Some(&pc.clustering_key)
            })
            .collect();
        let reclustered =
            try_par_map_chunks(self.config.parallelism, &to_recluster, |(component, pc)| {
                reduce_component((*component).clone(), &pc.prepared, &self.config)
                    .map(|clustering| ((*component).clone(), pc.clustering_key, clustering))
            })?;
        for (component, key, clustering) in reclustered {
            self.clusterings.insert(component.clone(), clustering);
            self.clustering_keys.insert(component, key);
        }
        Ok(to_recluster.len())
    }

    /// Plans the comparisons over the call graph and the representatives,
    /// re-tests those with a changed endpoint, serves the rest from the
    /// edge cache, prunes what the plan no longer reaches (so the cache
    /// stays bounded by the plan) and assembles the dependency graph.
    fn plan_and_test(&mut self) -> (DependencyGraph, Tested) {
        self.generation += 1;
        let generation = self.generation;
        let plan = comparison_plan(&self.call_graph, &self.clusterings);

        // (fingerprint, values) per prepared series, lent by the arenas.
        let mut lookup: HashMap<SeriesKey<'_>, (u64, &[f64])> = HashMap::new();
        for (component, pc) in &self.prepared {
            for ((name, values), &fp) in pc.prepared.iter().zip(&pc.series_fps) {
                lookup.insert((component.as_str(), name.as_str()), (fp, values));
            }
        }
        let fingerprint = |key| lookup.get(&key).map(|&(fp, _)| fp);

        let mut per_comparison: Vec<Vec<DependencyEdge>> = vec![Vec::new(); plan.len()];
        let mut misses: Vec<(usize, EdgeKey)> = Vec::new();
        for (i, cmp) in plan.iter().enumerate() {
            // A representative without a prepared series produces no
            // edges on the batch path either; nothing worth caching.
            let (Some(source_fp), Some(target_fp)) =
                (fingerprint(cmp.source()), fingerprint(cmp.target()))
            else {
                continue;
            };
            let key = EdgeKey {
                comparison: cmp.clone(),
                source_fp,
                target_fp,
                config_fp: self.config_fp,
            };
            match self.edge_cache.get_mut(&key) {
                Some((stamp, edges)) => {
                    *stamp = generation;
                    per_comparison[i] = edges.clone();
                }
                None => misses.push((i, key)),
            }
        }

        let comparisons_tested = misses.len();
        let miss_plan: Vec<Comparison> = misses.iter().map(|(i, _)| plan[*i].clone()).collect();
        let values = |key| lookup.get(&key).map(|&(_, values)| values);
        let computed = candidate_edges_per_comparison(&miss_plan, values, &self.config);
        for ((i, key), edges) in misses.into_iter().zip(computed) {
            self.edge_cache.insert(key, (generation, edges.clone()));
            per_comparison[i] = edges;
        }
        self.edge_cache.retain(|_, (stamp, _)| *stamp == generation);

        let dependency_graph = assemble_graph(
            &self.clusterings,
            &self.call_graph,
            per_comparison.into_iter().flatten(),
        );
        let tested = Tested {
            comparisons_planned: plan.len(),
            comparisons_tested,
        };
        (dependency_graph, tested)
    }

    /// Swaps in the new model snapshot and returns it.
    fn publish(&mut self, dependency_graph: DependencyGraph) -> Arc<SieveModel> {
        let model = Arc::new(SieveModel {
            application: self.application.clone(),
            clusterings: self.clusterings.clone(),
            dependency_graph,
        });
        Arc::clone(self.last_model.insert(model))
    }

    /// Records what this refresh recomputed: the one write of the stats.
    fn record(
        &mut self,
        absorbed: &Absorbed,
        grid_points_interpolated: usize,
        components_reclustered: usize,
        tested: Tested,
    ) {
        self.stats = SessionStats {
            epoch: absorbed.epoch,
            components_total: self.prepared.len(),
            components_prepared: absorbed.dirty.len(),
            components_reclustered,
            comparisons_planned: tested.comparisons_planned,
            comparisons_tested: tested.comparisons_tested,
            grid_points_interpolated,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{load_application, Sieve};
    use sieve_simulator::{
        AppSpec, CallSpec, ComponentSpec, MetricBehavior, MetricSpec, SimConfig, Simulation,
        Workload,
    };

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
            streamed = Some(session.update_shared(&delta).unwrap());
        }
        let streamed = streamed.expect("at least one epoch ran");

        let batch = Sieve::new(fast_config())
            .analyze("chain", sim.store(), &sim.call_graph())
            .unwrap();
        assert_eq!(*streamed, batch);
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
        // The simulator samples on the grid: resampling copies every value.
        assert_eq!(full_stats.grid_points_interpolated, 0);

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

        let updated = session.update_shared(&delta).unwrap();
        let stats = session.last_stats();
        assert_eq!(stats.components_prepared, 1, "only svc3 is re-prepared");
        assert_eq!(stats.components_reclustered, 1, "only svc3 is re-clustered");
        assert!(
            stats.comparisons_tested < full_stats.comparisons_tested,
            "only comparisons touching svc3 are re-tested ({} of {})",
            stats.comparisons_tested,
            full_stats.comparisons_tested
        );
        // The same update plans every comparison but tests only those: the
        // rest is reused, which is where an update's speed over a batch
        // re-analysis comes from.
        assert!(
            stats.comparisons_tested < stats.comparisons_planned,
            "the update re-tests a subset ({} of {} planned)",
            stats.comparisons_tested,
            stats.comparisons_planned
        );
        assert_eq!(stats.epoch, delta.epoch);

        // And the shortcut changed nothing: batch analysis of the updated
        // store agrees bit for bit.
        let batch = Sieve::new(fast_config())
            .analyze("chain", &store, &graph)
            .unwrap();
        assert_eq!(*updated, batch);

        // An empty delta re-tests nothing and returns the same model.
        let noop = session.update_shared(&store.drain_delta()).unwrap();
        let noop_stats = session.last_stats();
        assert_eq!(noop_stats.components_prepared, 0);
        assert_eq!(noop_stats.comparisons_tested, 0);
        assert_eq!(noop, updated);
        assert_eq!(full.application, "chain");
    }

    #[test]
    fn a_refresh_counts_the_grid_points_it_interpolated() {
        use sieve_simulator::store::MetricId;
        let store = MetricStore::new();
        for i in 0..10u64 {
            let x = (i as f64 * 0.7).sin();
            // On the grid from an origin off 0: every grid point is a sample.
            store.record(&MetricId::new("web", "requests"), 250 + i * 500, 10.0 + x);
            // Ticks 1500 and 3000 missing: two gaps.
            if i != 3 && i != 6 {
                store.record(&MetricId::new("web", "latency"), i * 500, 5.0 - x);
            }
            // Every odd sample 30 ms late: the odd grid points fall between
            // samples, and the grid overhangs the last one (4530) by a point.
            store.record(&MetricId::new("db", "queries"), i * 500 + 30 * (i % 2), x);
        }
        let mut session =
            AnalysisSession::new("shop", store.clone(), CallGraph::new(), fast_config()).unwrap();
        store.drain_delta();
        session.refresh().unwrap();
        // web: the two gaps; db: 500, 1500, 2500, 3500, 4500 and 5000.
        assert_eq!(session.last_stats().grid_points_interpolated, 8);

        // Only the re-prepared component is counted again.
        store.record(&MetricId::new("web", "requests"), 250 + 10 * 500, 10.0);
        session.update_shared(&store.drain_delta()).unwrap();
        assert_eq!(session.last_stats().components_prepared, 1);
        assert_eq!(session.last_stats().grid_points_interpolated, 2);
        session.update_shared(&store.drain_delta()).unwrap();
        assert_eq!(session.last_stats().grid_points_interpolated, 0);
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
        session.update_shared(&delta).unwrap();
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

        let first = session.refresh().unwrap();
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
        let recovered_model = recovered.refresh().unwrap();
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
        assert!(live.needs_refresh() && recovered.needs_refresh());
        let live_model = live.refresh().unwrap();
        let recovered_model = recovered.refresh().unwrap();
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
    fn a_failed_refresh_puts_back_what_it_absorbed() {
        let app = chain_app(3);
        let (store, graph) =
            load_application(&app, &Workload::randomized(50.0, 3), 19, 60_000, 500).unwrap();
        // The twin sees the same data and never fails.
        let twin_store = MetricStore::restore(store.freeze());
        let open = |store: &MetricStore| {
            let mut session =
                AnalysisSession::new("chain", store.clone(), CallGraph::new(), fast_config())
                    .unwrap();
            session.update_shared(&store.drain_delta()).unwrap();
            session
        };
        let (mut session, mut twin) = (open(&store), open(&twin_store));

        // Round 0 only re-plans over a new call graph; round 1 also brings
        // new samples, so dirty components must survive the failure too.
        for round in 0..2 {
            for (session, store) in [(&mut session, &store), (&mut twin, &twin_store)] {
                if round == 1 {
                    let id = sieve_simulator::store::MetricId::new("svc1", "svc1_latency_ms");
                    let last = store.series(&id).unwrap().end_ms().unwrap();
                    store.record(&id, last + 500, 99.0);
                }
                session.set_call_graph(graph.clone());
                session.apply_delta(&store.drain_delta());
            }
            let (before, stats_before) = (session.snapshot().unwrap(), session.last_stats());
            session.reduce_failpoint = Some(crate::SieveError::NoMetrics {
                scope: "injected reduce failure".to_string(),
            });
            assert!(
                matches!(session.refresh(), Err(crate::SieveError::NoMetrics { .. })),
                "round {round}: the error surfaces"
            );
            assert!(Arc::ptr_eq(&session.snapshot().unwrap(), &before));
            assert_eq!(session.last_stats(), stats_before);
            assert!(session.needs_refresh(), "round {round}: the work is back");

            let retried = session.refresh().unwrap();
            let batch = Sieve::new(fast_config())
                .analyze("chain", &store, &graph)
                .unwrap();
            assert_eq!(*retried, batch, "round {round}");
            twin.refresh().unwrap();
            assert_eq!(session.last_stats(), twin.last_stats(), "round {round}");
            assert!(session.last_stats().comparisons_planned > 0);
            assert!(!session.needs_refresh());
        }
    }

    #[test]
    fn a_seeded_session_publishes_the_cold_model_and_recomputes_only_what_changed() {
        let app = chain_app(4);
        let (store, graph) =
            load_application(&app, &Workload::randomized(60.0, 2), 23, 60_000, 500).unwrap();
        let mut live =
            AnalysisSession::new("chain", store.clone(), graph.clone(), fast_config()).unwrap();
        let live_model = live.update_shared(&store.drain_delta()).unwrap();
        let cache = live.cache();
        assert_eq!(cache, live.cache(), "the export is deterministic");
        assert_eq!(cache.clusterings.len(), 4);
        assert!(!cache.verdicts.is_empty());

        // A current cache: the same content in another session, at another
        // parallelism, re-prepares everything and recomputes nothing.
        let open = |store: &MetricStore, parallelism: usize| {
            let config = fast_config().with_parallelism(parallelism);
            AnalysisSession::new("chain", store.clone(), graph.clone(), config).unwrap()
        };
        for parallelism in [1, 4, 8] {
            let revived = MetricStore::restore(store.freeze());
            let mut seeded = open(&revived, parallelism);
            assert_eq!(seeded.seed(cache.clone()), Some(cache.len()));
            assert_eq!(*seeded.refresh().unwrap(), *live_model);
            let stats = seeded.last_stats();
            assert_eq!(stats.components_prepared, 4);
            assert_eq!(
                (stats.components_reclustered, stats.comparisons_tested),
                (0, 0)
            );
        }

        // A stale cache: svc2 moved on since it was taken, so only svc2 is
        // re-clustered and only its comparisons are re-tested — and the
        // model is the batch one.
        for metric in [
            "svc2_requests_per_second",
            "svc2_latency_ms",
            "svc2_threads_max",
        ] {
            let id = sieve_simulator::store::MetricId::new("svc2", metric);
            let last = store.series(&id).unwrap().end_ms().unwrap();
            store.record(&id, last + 500, 3.0);
        }
        let mut cold = open(&store, 2);
        let cold_model = cold.refresh().unwrap();
        let mut stale = open(&store, 2);
        assert!(stale.seed(cache.clone()).is_some());
        assert_eq!(*stale.refresh().unwrap(), *cold_model);
        let stats = stale.last_stats();
        assert_eq!(stats.components_reclustered, 1);
        assert!(stats.comparisons_tested > 0);
        assert!(stats.comparisons_tested < cold.last_stats().comparisons_tested);
    }

    #[test]
    fn a_foreign_or_mismatched_cache_changes_no_model() {
        let app = chain_app(3);
        let (store, graph) =
            load_application(&app, &Workload::randomized(50.0, 5), 29, 60_000, 500).unwrap();
        let batch = Sieve::new(fast_config())
            .analyze("chain", &store, &graph)
            .unwrap();
        let mut live =
            AnalysisSession::new("chain", store.clone(), graph.clone(), fast_config()).unwrap();
        live.refresh().unwrap();
        let open =
            || AnalysisSession::new("chain", store.clone(), graph.clone(), fast_config()).unwrap();

        // Another configuration: nothing is taken.
        let other_config = fast_config().with_cluster_range(2, 4);
        let mut other =
            AnalysisSession::new("chain", store.clone(), graph.clone(), other_config).unwrap();
        other.refresh().unwrap();
        let mut session = open();
        assert_eq!(session.seed(other.cache()), None);
        assert_eq!(*session.refresh().unwrap(), batch);
        assert_eq!(session.last_stats().components_reclustered, 3);

        // Another build of the analysis code: its fingerprint differs, so
        // nothing is taken either.
        let mut foreign = live.cache();
        foreign.config_fp ^= 1;
        let mut session = open();
        assert_eq!(session.seed(foreign), None);
        assert_eq!(*session.refresh().unwrap(), batch);

        // Entries whose keys match no content, and a clustering of a
        // component the store does not hold: taken, then never used or
        // published.
        let mut mismatched = live.cache();
        for entry in &mut mismatched.clusterings {
            entry.key ^= 1;
        }
        for verdict in &mut mismatched.verdicts {
            verdict.source_fp ^= 1;
        }
        let mut ghost = mismatched.clusterings[0].clone();
        ghost.clustering.component = Name::new("ghost");
        mismatched.clusterings.push(ghost);
        let mut session = open();
        assert_eq!(session.seed(mismatched.clone()), Some(mismatched.len()));
        assert_eq!(*session.refresh().unwrap(), batch);
        let stats = session.last_stats();
        assert_eq!(stats.components_reclustered, 3);
        assert_eq!(stats.comparisons_tested, stats.comparisons_planned);
        assert!(session
            .cache()
            .clusterings
            .iter()
            .all(|c| c.clustering.component != "ghost"));
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
