//! The multi-tenant analysis service.

use crate::config::ServeConfig;
use crate::durable::{check_format, written_shard_count, DurableLog};
use crate::recovery::{ns_since, recover_shard, shard_count_mismatch, RecoveryReport};
use crate::registry::ShardedRegistry;
use crate::stats::ServiceStats;
use crate::tenant::{MetricPoint, Mutation, Tenant};
use crate::{Result, ServeError};
use sieve_core::config::SieveConfig;
use sieve_core::model::SieveModel;
use sieve_core::session::SessionStats;
use sieve_exec::Name;
use sieve_graph::CallGraph;
use sieve_simulator::store::{MetricStore, RetentionPolicy};
use sieve_wal::{write_format, WalError, WalEvent};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// A multi-tenant Sieve analysis service.
///
/// The service owns N tenants, each a `(MetricStore, AnalysisSession)`
/// pair, behind a sharded registry (tenant name → shard via the
/// deterministic [`sieve_exec::hash::shard_index`] routing hash, one
/// `RwLock` per shard) — so ingest for tenant A never contends with a
/// model read for tenant B or an ongoing refresh of tenant C.
///
/// The serving loop is:
///
/// 1. [`SieveService::ingest`] appends batches of points to a tenant's
///    store; every accepted point advances the series' content fingerprint
///    and marks it touched.
/// 2. [`SieveService::refresh_dirty`] drains every tenant's
///    [`StoreDelta`](sieve_simulator::store::StoreDelta) and runs
///    `session.update` for all dirty tenants
///    through one [`sieve_exec::par_map_chunks`] fan-out, in sorted tenant
///    order — deterministic: a serial sweep and an 8-way sweep publish
///    bit-identical models.
/// 3. [`SieveService::model`] returns the tenant's last published
///    [`Arc<SieveModel>`] snapshot. Publication swaps an `Arc` under a
///    short write lock, so readers never block an ongoing refresh and
///    never observe a half-updated model.
///
/// Every published model is bit-identical to a from-scratch
/// [`sieve_core::pipeline::Sieve::analyze`] of the same tenant's store —
/// the incremental-session guarantee, asserted across sweep parallelism
/// degrees by the `service_property` test and the unit tests.
#[derive(Debug)]
pub struct SieveService {
    pub(crate) config: ServeConfig,
    pub(crate) registry: ShardedRegistry,
    /// Present iff the configuration enables durability: per-shard logs
    /// plus snapshot state under `config.durability.dir`. Consulted by
    /// [`SieveService::mutate`], the one path every tenant mutation takes.
    pub(crate) durable: Option<DurableLog>,
    /// Monotone sweep counter ([`SieveService::refresh_dirty`] and
    /// [`SieveService::refresh_all`] both count); the time base of the
    /// per-tenant failure backoff.
    pub(crate) sweeps: AtomicU64,
    /// Cumulative tenant-refresh failures since service start.
    pub(crate) refresh_failures: AtomicU64,
    /// Test-only fault injection: tenants whose refresh is forced to fail,
    /// so the backoff machinery can be exercised deterministically (the
    /// analysis pipeline itself degrades gracefully on any valid input and
    /// offers no data-driven way to make a refresh error).
    #[cfg(test)]
    pub(crate) refresh_failpoint: std::sync::RwLock<std::collections::HashSet<String>>,
}

impl SieveService {
    /// Creates a service with the given configuration.
    ///
    /// When [`ServeConfig::durability`] is set, the durable directory is
    /// created (if absent) and **wiped of any previous service's logs,
    /// snapshots and analysis checkpoints** — every shard file in it,
    /// whatever shard count the
    /// previous service ran with: a new service starts empty by
    /// definition. It then names this build's on-disk format in its
    /// format record. To resume a previous incarnation's tenants from its
    /// durable state, use [`SieveService::recover`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for invalid configurations
    /// (shard count not a power of two, invalid default analysis config),
    /// [`ServeError::Wal`] when the durable directory cannot be prepared.
    pub fn new(config: ServeConfig) -> Result<Self> {
        config.validate()?;
        let registry = ShardedRegistry::new(config.shard_count);
        let durable = match &config.durability {
            Some(durability) => Some(DurableLog::create(durability, config.shard_count)?),
            None => None,
        };
        Ok(Self::assemble(config, registry, durable))
    }

    /// The service over a registry and its durable half, however the two
    /// came to be (created empty, or recovered).
    fn assemble(
        config: ServeConfig,
        registry: ShardedRegistry,
        durable: Option<DurableLog>,
    ) -> Self {
        Self {
            config,
            registry,
            durable,
            sweeps: AtomicU64::new(0),
            refresh_failures: AtomicU64::new(0),
            #[cfg(test)]
            refresh_failpoint: std::sync::RwLock::default(),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Registers a new tenant with an empty store, the given call graph
    /// and the service's default analysis configuration. The store is
    /// created under the service's default retention budget
    /// (`config.analysis.retention`), so a bounded service keeps every
    /// tenant's memory flat from the first point.
    ///
    /// # Errors
    ///
    /// * [`ServeError::DuplicateTenant`] when the name is taken.
    /// * [`ServeError::Analysis`] when the analysis configuration is
    ///   rejected by the session.
    pub fn create_tenant(&self, name: impl Into<Name>, call_graph: CallGraph) -> Result<()> {
        let retention = self.config.analysis.retention;
        self.create_tenant_with_retention(name, call_graph, retention)
    }

    /// Like [`SieveService::create_tenant`] with a per-tenant retention
    /// budget overriding the service default — large tenants can run a
    /// tight ring window while small ones keep full history, on the same
    /// service.
    ///
    /// # Errors
    ///
    /// Same as [`SieveService::create_tenant`].
    pub fn create_tenant_with_retention(
        &self,
        name: impl Into<Name>,
        call_graph: CallGraph,
        retention: RetentionPolicy,
    ) -> Result<()> {
        let config = self.config.analysis.clone().with_retention(retention);
        let store = MetricStore::with_retention(retention);
        self.adopt_tenant_with_config(name, store, call_graph, config)
    }

    /// Registers a new tenant over an existing store handle (for example
    /// one a simulation run recorded into).
    ///
    /// The service takes over the store's single-consumer delta stream:
    /// after adoption, nothing else may call
    /// [`MetricStore::drain_delta`] on this store (or on clones of it) —
    /// points drained elsewhere would be invisible to
    /// [`SieveService::refresh_dirty`]. Pre-existing, never-drained
    /// content is picked up by the first sweep.
    ///
    /// # Errors
    ///
    /// Same as [`SieveService::create_tenant`].
    pub fn adopt_tenant(
        &self,
        name: impl Into<Name>,
        store: MetricStore,
        call_graph: CallGraph,
    ) -> Result<()> {
        let config = self.config.analysis.clone();
        self.adopt_tenant_with_config(name, store, call_graph, config)
    }

    /// Like [`SieveService::adopt_tenant`] with a per-tenant analysis
    /// configuration overriding the service default.
    ///
    /// # Errors
    ///
    /// Same as [`SieveService::create_tenant`].
    pub fn adopt_tenant_with_config(
        &self,
        name: impl Into<Name>,
        store: MetricStore,
        call_graph: CallGraph,
        config: SieveConfig,
    ) -> Result<()> {
        let name = name.into();
        // The creation record must reproduce the store being adopted: its
        // retention governs future evictions (and therefore the
        // fingerprint chains replay verifies against), so the logged config
        // carries the store's actual policy even when the session config
        // was built from the service default.
        let created = WalEvent::TenantCreated {
            tenant: name.clone(),
            config: Box::new(config.clone().with_retention(store.retention())),
            call_graph: call_graph.clone(),
        };
        let (tenant, _) = Tenant::open(name, store, call_graph, config, None)?;
        self.mutate(&tenant, Mutation::Admin(created)).map(drop)
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.registry.len()
    }

    /// The names of all registered tenants, sorted.
    pub fn tenants(&self) -> Vec<Name> {
        self.registry
            .all_sorted()
            .iter()
            .map(|t| t.name.clone())
            .collect()
    }

    /// Appends a batch of observations to a tenant's store and returns how
    /// many points the store accepted (out-of-order points are dropped,
    /// see [`MetricPoint::timestamp_ms`]).
    ///
    /// This is the hot path: it takes the tenant's shard lock only to look
    /// the tenant up, then appends the whole batch under a single
    /// acquisition of the store's own lock — ingest for two tenants never
    /// serialises, whatever the analysis threads do.
    ///
    /// On a durable service, the accepted subset of the batch (rejected
    /// points — non-monotone timestamps, non-finite values — are filtered
    /// out, so the log never contains a point that replays differently
    /// than it applied) is framed together with the per-series
    /// fingerprint watermarks the batch produced, and group-committed to
    /// the tenant's shard log before this call returns. Steady-state, the
    /// whole path allocates nothing: the batch outcome and the encoded
    /// WAL payload live in recycled per-tenant scratch buffers, the event
    /// is streamed straight from the caller's points (skipping rejected
    /// indices) into the frame, and concurrent writers to one shard ride
    /// a single leader's write + fsync instead of issuing their own
    /// ([`sieve_wal::GroupCommitLog`]). A commit failure surfaces as
    /// [`ServeError::Wal`]: the batch *is* applied in memory but not
    /// durable — retrying the ingest is safe (the store rejects the
    /// duplicate timestamps as non-monotone).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] when `tenant` is not registered;
    /// [`ServeError::Wal`] when the durable commit fails.
    pub fn ingest(&self, tenant: &str, points: &[MetricPoint]) -> Result<usize> {
        let tenant = self.registry.get(tenant)?;
        self.mutate(&tenant, Mutation::Ingest(points))
    }

    /// Replaces a tenant's call graph (topologies grow while an
    /// application streams). Like on the underlying session, this alters
    /// the comparison *plan* of the next refresh but never invalidates a
    /// cached verdict — and it marks the tenant for refresh at the next
    /// sweep even if no series changes, so the published model catches up
    /// with the new topology without waiting for unrelated ingest.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] when `tenant` is not registered;
    /// [`ServeError::Wal`] when the durable commit fails.
    pub fn set_call_graph(&self, tenant: &str, call_graph: CallGraph) -> Result<()> {
        let tenant = self.registry.get(tenant)?;
        let replaced = WalEvent::CallGraphReplaced {
            tenant: tenant.name.clone(),
            call_graph,
        };
        self.mutate(&tenant, Mutation::Admin(replaced)).map(drop)
    }

    /// Replaces a tenant's store retention budget at runtime. Tightening
    /// the budget evicts each series' oldest points immediately and marks
    /// every trimmed series touched — eviction-as-dirt — so the next
    /// [`SieveService::refresh_dirty`] sweep treats the tenant like any
    /// other dirty one and republishes a model of the narrowed window.
    /// Loosening never restores evicted points.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when the policy is out of range (a
    /// zero raw capacity), before anything is applied or logged;
    /// [`ServeError::UnknownTenant`] when `tenant` is not registered;
    /// [`ServeError::Wal`] when the durable commit fails.
    pub fn set_retention(&self, tenant: &str, retention: RetentionPolicy) -> Result<()> {
        retention
            .validate()
            .map_err(|reason| ServeError::InvalidConfig { reason })?;
        let tenant = self.registry.get(tenant)?;
        let changed = WalEvent::RetentionChanged {
            tenant: tenant.name.clone(),
            retention,
        };
        self.mutate(&tenant, Mutation::Admin(changed)).map(drop)
    }

    /// A tenant's current store retention budget.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] when `tenant` is not registered.
    pub fn retention(&self, tenant: &str) -> Result<RetentionPolicy> {
        Ok(self.registry.get(tenant)?.store.retention())
    }

    /// A handle to a tenant's store (for read-side consumers such as
    /// dashboards; remember the delta stream belongs to the service).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] when `tenant` is not registered.
    pub fn store(&self, tenant: &str) -> Result<MetricStore> {
        Ok(self.registry.get(tenant)?.store.clone())
    }

    /// The tenant's last published model snapshot (`None` until the first
    /// sweep that saw the tenant). The returned `Arc` stays valid and
    /// immutable forever; later refreshes publish new `Arc`s instead of
    /// mutating this one.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] when `tenant` is not registered.
    pub fn model(&self, tenant: &str) -> Result<Option<Arc<SieveModel>>> {
        Ok(self.registry.get(tenant)?.model())
    }

    /// Statistics of the tenant's last refresh (zeroed until the first
    /// sweep that saw the tenant).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] when `tenant` is not registered.
    pub fn last_stats(&self, tenant: &str) -> Result<SessionStats> {
        Ok(self.registry.get(tenant)?.last_stats())
    }

    /// Aggregates the last published per-tenant statistics over all
    /// tenants (without refreshing anything). Tenants that have never been
    /// refreshed contribute nothing.
    pub fn stats(&self) -> ServiceStats {
        let tenants = self.registry.all_sorted();
        let mut stats = ServiceStats::default();
        for tenant in tenants.iter().filter(|t| t.model().is_some()) {
            stats.absorb(&tenant.last_stats());
        }
        self.fleet_gauges(&tenants, &mut stats);
        stats
    }

    /// Drains every tenant's delta and refreshes all dirty tenants through
    /// one parallel fan-out; returns what the sweep recomputed.
    ///
    /// A tenant is dirty when its session
    /// [`needs_refresh`](sieve_core::session::AnalysisSession::needs_refresh):
    /// its drained [`StoreDelta`](sieve_simulator::store::StoreDelta) is
    /// non-empty, a failed earlier refresh put its work back, its call
    /// graph was replaced since its last successful refresh, or it has data
    /// but never published a model (so adopted pre-loaded stores are
    /// analysed on the first sweep). Tenants with
    /// *empty* stores are never refreshed — they stay unpublished
    /// ([`SieveService::model`] returns `None`) until their first accepted
    /// point, which keeps the published-model guarantee unconditional:
    /// batch analysis of an empty store is an error, not an empty model.
    /// Clean tenants only absorb the epoch watermark — their sessions,
    /// clusterings and Granger verdicts are untouched, which is what makes
    /// a sweep with one dirty tenant of N nearly N times cheaper than
    /// batch-analysing the fleet.
    ///
    /// The dirty tenants are processed in sorted-name order through
    /// [`sieve_exec::par_map_chunks`] with
    /// [`ServeConfig::sweep_parallelism`] workers; each tenant's refresh is
    /// itself deterministic, so sweep parallelism 1 and N publish
    /// bit-identical models (asserted by the `service_property` test and
    /// the unit tests).
    ///
    /// # Failure backoff
    ///
    /// A tenant whose refresh fails is retried with capped exponential
    /// backoff: after `n` consecutive failures it is skipped for
    /// `min(2^(n-1), 32)` sweeps (its delta stays in the store, its
    /// absorbed dirt stays pending in the session — nothing is lost, the
    /// work is merely deferred), then retried. One success resets the
    /// backoff. [`ServiceStats::refresh_failures`] counts every failure;
    /// [`ServiceStats::tenants_degraded`] counts tenants currently in a
    /// failed state. [`SieveService::refresh_all`] ignores backoff and
    /// always retries everything.
    ///
    /// # Errors
    ///
    /// [`ServeError::Analysis`] naming the failing tenant — the earliest
    /// one in sorted order, regardless of thread timing. Tenant refreshes
    /// are isolated: every tenant whose own refresh succeeded in the same
    /// sweep has still published its new model (only the returned
    /// aggregate statistics are lost). A failing tenant keeps its previous
    /// snapshot, and its absorbed dirt stays pending in its session, so
    /// a later sweep retries exactly the outstanding work.
    ///
    /// # Analysis checkpoints
    ///
    /// On a durable service, a sweep in which some tenant re-clustered a
    /// component or ran a Granger test ends by rewriting the analysis
    /// checkpoint of each shard such a tenant lives in — its tenants'
    /// content-keyed caches, through a temp file and a rename, with no
    /// fsync — so a checkpoint is never more than one sweep behind the
    /// published models, and [`SieveService::recover`] can seed the
    /// sessions it opens. A failed write is counted
    /// ([`ServiceStats::checkpoint_failures`]), never returned.
    ///
    /// # Example
    ///
    /// ```
    /// use sieve_core::config::SieveConfig;
    /// use sieve_graph::CallGraph;
    /// use sieve_serve::{MetricPoint, ServeConfig, SieveService};
    ///
    /// let config = ServeConfig::default()
    ///     .with_analysis(SieveConfig::default().with_cluster_range(2, 2).with_parallelism(1));
    /// let service = SieveService::new(config)?;
    /// service.create_tenant("acme", CallGraph::new())?;
    ///
    /// // Ingest two series worth of observations for tenant `acme`.
    /// let points: Vec<MetricPoint> = (0..60)
    ///     .flat_map(|t| {
    ///         let time = t as f64;
    ///         [
    ///             MetricPoint::new("web", "requests", t * 500, (time * 0.2).sin()),
    ///             MetricPoint::new("web", "latency", t * 500, (time * 0.2).cos() * 3.0),
    ///         ]
    ///     })
    ///     .collect();
    /// assert_eq!(service.ingest("acme", &points)?, points.len());
    ///
    /// // One sweep refreshes the dirty tenant and publishes its model.
    /// let stats = service.refresh_dirty()?;
    /// assert_eq!(stats.tenants_refreshed, 1);
    /// let model = service.model("acme")?.expect("model published");
    /// assert_eq!(model.total_metric_count(), 2);
    ///
    /// // Nothing changed, so the next sweep refreshes nothing.
    /// assert_eq!(service.refresh_dirty()?.tenants_refreshed, 0);
    /// # Ok::<(), sieve_serve::ServeError>(())
    /// ```
    pub fn refresh_dirty(&self) -> Result<ServiceStats> {
        self.sweep(false)
    }

    /// Marks every component of every tenant dirty and refreshes the whole
    /// fleet, ignoring failure backoff — the batch special case of
    /// [`SieveService::refresh_dirty`]. It is the sweep to run when every
    /// tenant's model must be current whatever its dirt says: the scenario
    /// runner publishes one model per epoch through it, and the recovery
    /// property test compares recovered, live and oracle services after
    /// it. Content-keyed session caches still apply (unchanged prepared
    /// content keeps its clustering and verdicts, seeded ones included), so
    /// this is *not* equivalent to re-analysing from scratch in cost — only
    /// in result.
    ///
    /// # Errors
    ///
    /// Same as [`SieveService::refresh_dirty`].
    pub fn refresh_all(&self) -> Result<ServiceStats> {
        self.sweep(true)
    }

    /// Rebuilds a service from the durable directory of a crashed (or
    /// cleanly stopped) predecessor: per shard, the snapshot is restored,
    /// the log tail is scanned and its intact prefix replayed through the
    /// ordinary store machinery, and every tenant comes back with a
    /// session whose next refresh publishes a model **bit-identical** to
    /// what the pre-crash service would have published for the same
    /// surviving events.
    ///
    /// Corruption never poisons recovery: a torn or bit-flipped frame
    /// truncates that shard's replay at the last intact frame, the
    /// affected tenants are reported as
    /// [`crate::TenantRecovery::Recovered`] with their exact lost suffix
    /// (resynchronized later frames are counted, never applied), and a
    /// replayed batch whose fingerprint watermarks do not reproduce the
    /// logged ones degrades just that tenant. A corrupt snapshot falls
    /// back to pure log replay. After recovery the directory is
    /// re-snapshotted and the logs are truncated, so the corrupt tail is
    /// physically gone and a second recovery is clean by construction.
    ///
    /// The restart is warm: each shard's analysis checkpoint, when there is
    /// one, seeds the sessions of the tenants it opens, so the first sweep
    /// re-clusters and re-tests only what changed since the checkpoint was
    /// written ([`crate::recovery::ShardRecovery::checkpoint`] counts what
    /// it gave). A checkpoint is a cache: one that is missing, damaged, of
    /// another format, configuration or build, or stale costs work, never
    /// a different model or a failed recovery.
    ///
    /// The directory must be of this build's on-disk format
    /// ([`sieve_wal::FORMAT`]), which its format record names: each
    /// structure in it then has one layout and one reader. A directory with
    /// shard files and no record, or a record naming an older format, is
    /// refused as [`ServeError::FormatTooOld`]; one naming a newer format as
    /// [`ServeError::FormatTooNew`]. Both refusals come before anything
    /// else is read, with the directory left byte for byte as found, and
    /// neither is corruption. A directory with no shard files is fresh,
    /// whatever it holds besides.
    ///
    /// `config.shard_count` must be the shard count the directory was
    /// written with — tenant routing depends on it. Shard files beyond the
    /// count, a snapshot in another shard's file, or a tenant found in a
    /// shard its name does not route to are refused, never recovered
    /// "clean" with tenants missing or misrouted. Every shard is read
    /// before anything is written, so a refusal (or a tenant whose session
    /// cannot be rebuilt) leaves the directory untouched.
    ///
    /// # Errors
    ///
    /// [`ServeError::FormatTooOld`] and [`ServeError::FormatTooNew`] when
    /// the directory is of another on-disk format,
    /// [`ServeError::InvalidConfig`] when `config` has no durability
    /// section (or is otherwise invalid) or the directory was written
    /// with a different shard count, [`ServeError::UnknownEventTag`] when a
    /// log holds a checksum-verified frame of an event tag this build does
    /// not read (another build wrote it), [`ServeError::Wal`] on I/O failures,
    /// [`ServeError::Analysis`] when a recovered tenant's session cannot
    /// be rebuilt.
    pub fn recover(config: ServeConfig) -> Result<(Self, RecoveryReport)> {
        config.validate()?;
        let shard_count = config.shard_count;
        let Some(durability) = config.durability.clone() else {
            return Err(ServeError::InvalidConfig {
                reason: "recover requires a durability configuration".to_string(),
            });
        };
        let dir = &durability.dir;
        std::fs::create_dir_all(dir).map_err(WalError::from)?;
        let written = written_shard_count(dir)?;
        if written > 0 {
            check_format(dir)?;
        }
        if written > shard_count {
            let found = format!("the files of {written} shards");
            return Err(shard_count_mismatch(shard_count, found));
        }
        // Read every shard before changing anything on disk: a refusal
        // (or a tenant whose session cannot be rebuilt) leaves the
        // directory exactly as it was found.
        let mut shards = Vec::with_capacity(shard_count);
        let registry = ShardedRegistry::new(shard_count);
        for shard in 0..shard_count {
            shards.push(recover_shard(dir, shard, shard_count, &registry)?);
        }
        let next_seqs = shards.iter().map(|shard| shard.recovered_through_seq + 1);
        let started = std::time::Instant::now();
        // A directory that held no shard file is stamped with this build's
        // format before its re-anchor creates some (the re-anchor's
        // directory sync covers the record); any other already names it.
        if written == 0 {
            write_format(dir)?;
        }
        let durable = DurableLog::reanchor(&durability, &registry, next_seqs)?;
        let reanchor_ns = ns_since(started);
        let service = Self::assemble(config, registry, Some(durable));
        let report = RecoveryReport {
            shards,
            reanchor_ns,
        };
        Ok((service, report))
    }
}

#[cfg(test)]
mod tests;
