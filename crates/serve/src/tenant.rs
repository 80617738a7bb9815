//! Per-tenant state: a metric store, an analysis session and the published
//! model snapshot — and the one fold every accepted event goes through,
//! live or replayed: [`Tenant::open`] builds a tenant, [`Tenant::apply`]
//! applies each later mutation to it.

use crate::{Result, ServeError};
use sieve_core::{AnalysisSession, SessionCache, SessionStats, SieveConfig, SieveModel};
use sieve_exec::Name;
use sieve_graph::CallGraph;
use sieve_simulator::store::{BatchOutcome, MetricId, MetricStore};
use sieve_wal::{IngestBatch, WalEvent};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};

/// Longest refresh-failure backoff, in sweeps. A tenant that keeps
/// failing is still retried at least once every this many sweeps — the
/// cap keeps a transiently broken tenant from being starved forever once
/// its data heals.
pub(crate) const MAX_BACKOFF_SWEEPS: u64 = 32;

/// One observation to ingest for a tenant: which series, when, what value.
///
/// Batches of points go through
/// [`crate::service::SieveService::ingest`], which appends them to the
/// tenant's [`MetricStore`] — every accepted point advances the series'
/// content fingerprint and marks it touched, so the next
/// [`refresh_dirty`](crate::service::SieveService::refresh_dirty) sweep
/// knows exactly which tenants and components to recompute.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricPoint {
    /// The series the observation belongs to.
    pub id: MetricId,
    /// Observation timestamp in milliseconds. Points that do not advance
    /// the series' time (out-of-order or duplicate timestamps) are dropped
    /// by the store, like monitoring agents drop duplicate reports.
    pub timestamp_ms: u64,
    /// Observed value.
    pub value: f64,
}

impl MetricPoint {
    /// Creates a point (interning the component and metric names).
    pub fn new(
        component: impl Into<Name>,
        metric: impl Into<Name>,
        timestamp_ms: u64,
        value: f64,
    ) -> Self {
        Self {
            id: MetricId::new(component, metric),
            timestamp_ms,
            value,
        }
    }
}

/// Reusable per-tenant buffers for the durable mutation path: the batch
/// outcome (rejections + watermarks) of an ingest and the encoded WAL
/// payload of whatever mutation is in flight. Both keep their capacity
/// across mutations, so a steady-state ingest allocates nothing. The
/// `Mutex` around this scratch doubles as the tenant's *apply order* lock:
/// holding it across store-apply + WAL-stage keeps the tenant's log order
/// equal to its apply order, which is what replay verification checks.
#[derive(Debug, Default)]
pub(crate) struct IngestScratch {
    /// Last batch's detailed outcome (vectors recycled).
    pub(crate) outcome: BatchOutcome,
    /// The encoded `WalEvent` of the mutation in flight (buffer recycled):
    /// `SieveService::mutate` hands it out empty and stages what the
    /// mutation encoded into it.
    pub(crate) payload: Vec<u8>,
}

/// One mutation of a tenant, live or replayed: what [`Tenant::apply`]
/// folds into its state. A tenant's model is a pure function of the
/// sequence of these it accepted, so the live service and crash replay
/// apply them through the same function.
#[derive(Debug)]
pub(crate) enum Mutation<'a> {
    /// An admin event, applied as it is logged: a creation record (which
    /// [`Tenant::open`] already applied), a call-graph swap or a retention
    /// change.
    Admin(WalEvent),
    /// A live ingest batch: the store reports the watermarks it produced.
    Ingest(&'a [MetricPoint]),
    /// A logged ingest batch: the store applies it only if it reproduces
    /// the watermarks logged next to it.
    Replay(&'a IngestBatch),
}

/// What a tenant last published: the model snapshot and the statistics of
/// the refresh that produced it. Swapped atomically (under a short write
/// lock) at the end of a refresh, so readers either see the previous
/// complete model or the new complete model, never a half-updated one.
#[derive(Debug, Default)]
struct Published {
    /// The latest analysis model, `None` until the first refresh.
    model: Option<Arc<SieveModel>>,
    /// Statistics of the refresh that produced `model`.
    stats: SessionStats,
}

/// The complete state of one tenant.
///
/// Concurrency layout: the store is internally synchronised (ingest takes
/// the store's own lock), the session is behind a `Mutex` that only the
/// refresh sweep takes, and the published snapshot is behind a `RwLock`
/// that writers hold just long enough to swap an `Arc` — so ingest for
/// tenant A, a model read for tenant B and a refresh of tenant C never
/// contend on shared state. The locks are reached only through the
/// accessors below, which own the poison messages.
#[derive(Debug)]
pub(crate) struct Tenant {
    /// The tenant's name (also its registry key).
    pub(crate) name: Name,
    /// The tenant's metric store. The service owns this store's delta
    /// stream: nothing else may call `drain_delta` on it.
    pub(crate) store: MetricStore,
    /// Durable-ingest scratch buffers + the tenant's apply-order lock
    /// (see [`IngestScratch`]). Only durable mutations take it;
    /// non-durable ingest goes straight to the store.
    apply_order: Mutex<IngestScratch>,
    /// The tenant's long-lived incremental analysis session.
    session: Mutex<AnalysisSession>,
    /// The last published model + stats, swapped at the end of a refresh.
    published: RwLock<Published>,
    /// Consecutive refresh failures (0 = healthy). Drives the capped
    /// exponential backoff: streak `n` delays the next attempt by
    /// `min(2^(n-1), MAX_BACKOFF_SWEEPS)` sweeps.
    failure_streak: AtomicU32,
    /// Sweep number at which a failed tenant becomes eligible again.
    retry_at_sweep: AtomicU64,
}

impl Tenant {
    /// The one constructor: a tenant over `store`, with a session that
    /// plans comparisons over `call_graph` under `config`, seeded with
    /// `cache` when recovery found one for it in a checkpoint. Live
    /// creation, a restored snapshot and a replayed creation record all
    /// build their tenant here. Returns the tenant and what its
    /// session took of `cache` ([`AnalysisSession::seed`]): `None` when
    /// there was none or it was computed under another fingerprint.
    ///
    /// # Errors
    ///
    /// [`ServeError::Analysis`] when the session rejects `config`.
    pub(crate) fn open(
        name: Name,
        store: MetricStore,
        call_graph: CallGraph,
        config: SieveConfig,
        cache: Option<SessionCache>,
    ) -> Result<(Arc<Self>, Option<usize>)> {
        let mut session = AnalysisSession::new(name.as_str(), store.clone(), call_graph, config)
            .map_err(|source| ServeError::Analysis {
                tenant: name.clone(),
                source,
            })?;
        let seeded = cache.and_then(|cache| session.seed(cache));
        let tenant = Arc::new(Self {
            name,
            store,
            apply_order: Mutex::new(IngestScratch::default()),
            session: Mutex::new(session),
            published: RwLock::new(Published::default()),
            failure_streak: AtomicU32::new(0),
            retry_at_sweep: AtomicU64::new(0),
        });
        Ok((tenant, seeded))
    }

    /// Applies `mutation` and returns the ingest points it accepted (0 for
    /// an admin event); `None` when a replayed batch does not reproduce its
    /// logged watermarks, with the store untouched. With a `log`, the
    /// [`WalEvent`] that records the mutation is encoded into its
    /// `payload`: an admin event is the one being applied, an ingest batch
    /// the accepted subset of the points with the watermarks they
    /// produced. Replay passes no `log`.
    pub(crate) fn apply(
        &self,
        mutation: Mutation<'_>,
        log: Option<&mut IngestScratch>,
    ) -> Option<usize> {
        let event = match mutation {
            Mutation::Admin(event) => event,
            Mutation::Ingest(points) => return Some(self.ingest(points, log)),
            Mutation::Replay(batch) => {
                let series_before = batch.series_before.map(|count| count as usize);
                return self.store.record_batch_verified(
                    &batch.points,
                    series_before,
                    batch.names(),
                    batch.digest,
                );
            }
        };
        if let Some(log) = log {
            event.encode(&mut log.payload);
        }
        match event {
            // `Tenant::open` built what the record describes.
            WalEvent::TenantCreated { .. } => {}
            WalEvent::CallGraphReplaced { call_graph, .. } => {
                self.session().set_call_graph(call_graph)
            }
            WalEvent::RetentionChanged { retention, .. } => self.store.set_retention(retention),
            // Ingest is lent to replay, never owned: a batch in this form
            // is not applied.
            WalEvent::IngestBatch(_) => return None,
        }
        Some(0)
    }

    /// [`Mutation::Ingest`]: memory-only, the store counts what it
    /// accepted; logged, it reports which points it rejected and the
    /// watermarks of the rest, which are framed together.
    fn ingest(&self, points: &[MetricPoint], log: Option<&mut IngestScratch>) -> usize {
        let batch = points
            .iter()
            .map(|point| (&point.id, point.timestamp_ms, point.value));
        let Some(log) = log else {
            return self.store.record_batch(batch);
        };
        self.store
            .record_batch_detailed_into(&mut log.outcome, batch.clone());
        let accepted = log.outcome.accepted;
        if accepted > 0 {
            // `rejected` is in ascending batch order: one forward merge
            // skips exactly the rejected indices.
            let rejected = log.outcome.rejected.iter();
            let mut rejected = rejected.map(|&(index, _)| index).peekable();
            let logged = batch
                .enumerate()
                .filter(|&(index, _)| rejected.next_if_eq(&index).is_none())
                .map(|(_, point)| point);
            WalEvent::encode_ingest_batch_into(
                &mut log.payload,
                &self.name,
                accepted,
                logged,
                &log.outcome.watermarks,
            );
        }
        accepted
    }

    /// Locks the tenant's analysis session.
    pub(crate) fn session(&self) -> MutexGuard<'_, AnalysisSession> {
        self.session.lock().expect("tenant session poisoned")
    }

    /// Locks the tenant's apply order (and with it the ingest scratch).
    pub(crate) fn apply_order(&self) -> MutexGuard<'_, IngestScratch> {
        self.apply_order
            .lock()
            .expect("tenant apply-order lock poisoned")
    }

    /// Records a successful refresh: the tenant is healthy again and any
    /// backoff window is cancelled.
    pub(crate) fn record_refresh_success(&self) {
        self.failure_streak.store(0, Ordering::Release);
        self.retry_at_sweep.store(0, Ordering::Release);
    }

    /// Records a failed refresh during sweep number `sweep` and schedules
    /// the retry: streak `n` waits `min(2^(n-1), MAX_BACKOFF_SWEEPS)`
    /// sweeps, so a persistently broken tenant costs one attempt per
    /// backoff window instead of one per sweep.
    pub(crate) fn record_refresh_failure(&self, sweep: u64) {
        let streak = self.failure_streak.fetch_add(1, Ordering::AcqRel) + 1;
        let delay = (1u64 << (streak.min(32) - 1).min(63)).min(MAX_BACKOFF_SWEEPS);
        self.retry_at_sweep.store(sweep + delay, Ordering::Release);
    }

    /// Whether the tenant is waiting out a failure backoff at sweep
    /// number `sweep` (healthy tenants are never in backoff).
    pub(crate) fn in_backoff(&self, sweep: u64) -> bool {
        self.failure_streak.load(Ordering::Acquire) > 0
            && sweep < self.retry_at_sweep.load(Ordering::Acquire)
    }

    /// Current consecutive-failure streak (0 = healthy).
    pub(crate) fn failure_streak(&self) -> u32 {
        self.failure_streak.load(Ordering::Acquire)
    }

    /// What the tenant last published, under a momentary read lock.
    fn published(&self) -> RwLockReadGuard<'_, Published> {
        self.published
            .read()
            .expect("tenant snapshot lock poisoned")
    }

    /// The tenant's published model snapshot, if any refresh has completed.
    pub(crate) fn model(&self) -> Option<Arc<SieveModel>> {
        self.published().model.clone()
    }

    /// Statistics of the tenant's last completed refresh.
    pub(crate) fn last_stats(&self) -> SessionStats {
        self.published().stats
    }

    /// Publishes a freshly refreshed model + stats (one short write lock).
    pub(crate) fn publish(&self, model: Arc<SieveModel>, stats: SessionStats) {
        let mut published = self
            .published
            .write()
            .expect("tenant snapshot lock poisoned");
        published.model = Some(model);
        published.stats = stats;
    }
}
