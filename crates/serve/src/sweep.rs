//! The refresh sweep: one fixed list of phases, run by both
//! [`SieveService::refresh_dirty`] and [`SieveService::refresh_all`].

use crate::service::SieveService;
use crate::stats::ServiceStats;
use crate::tenant::Tenant;
use crate::{Result, ServeError};
use sieve_core::session::SessionStats;
use sieve_exec::par_map_chunks;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl SieveService {
    /// One sweep: *count → select → refresh + publish → record outcomes →
    /// gauges → earliest error*. `force` is what
    /// [`SieveService::refresh_all`] adds: no tenant is skipped for
    /// backoff and every component of every tenant is marked dirty.
    ///
    /// Every selected tenant is attempted (an early failure must not
    /// starve the later tenants of the same sweep), every outcome is
    /// recorded for the backoff machinery, and only then is the earliest
    /// failure in sorted order — deterministic, whatever the thread timing
    /// — reported to the caller.
    pub(crate) fn sweep(&self, force: bool) -> Result<ServiceStats> {
        let sweep = self.sweeps.fetch_add(1, Ordering::Relaxed) + 1;
        let tenants = self.registry.all_sorted();
        let work: Vec<&Arc<Tenant>> = tenants
            .iter()
            .filter(|tenant| absorb_delta(tenant, sweep, force))
            .collect();
        // Each work item locks only its own tenant's session, so workers
        // never contend; the executor returns results in input
        // (sorted-tenant) order.
        let outcomes = par_map_chunks(self.config.sweep_parallelism, &work, |tenant| {
            self.refresh_and_publish(tenant)
        });
        let mut stats = ServiceStats::default();
        let mut first_error = None;
        for (tenant, outcome) in work.iter().zip(outcomes) {
            match outcome {
                Ok(session_stats) => {
                    tenant.record_refresh_success();
                    stats.absorb(&session_stats);
                }
                Err(error) => {
                    self.refresh_failures.fetch_add(1, Ordering::Relaxed);
                    tenant.record_refresh_failure(sweep);
                    first_error.get_or_insert(error);
                }
            }
        }
        self.fleet_gauges(&tenants, &mut stats);
        first_error.map_or(Ok(stats), Err)
    }

    /// Refreshes one selected tenant (its delta is already absorbed into
    /// the session) and publishes the model.
    fn refresh_and_publish(&self, tenant: &Tenant) -> Result<SessionStats> {
        #[cfg(test)]
        if self
            .refresh_failpoint
            .read()
            .expect("failpoint lock poisoned")
            .contains(tenant.name.as_str())
        {
            return Err(ServeError::Analysis {
                tenant: tenant.name.clone(),
                source: sieve_core::SieveError::NoMetrics {
                    scope: "injected refresh failure".to_string(),
                },
            });
        }
        let mut session = tenant.session();
        let model = session
            .refresh_shared()
            .map_err(|source| ServeError::Analysis {
                tenant: tenant.name.clone(),
                source,
            })?;
        let session_stats = session.last_stats();
        // Publish while still holding the session lock: if two sweeps ever
        // race on one tenant, the lock serialises refresh+publish as a
        // unit, so the newest refresh is always the last publish and a
        // stale model can never win.
        tenant.publish(model, session_stats);
        Ok(session_stats)
    }

    /// Fills in the fleet gauges of `stats` — what is true of the service
    /// now rather than of one sweep: the tenant count, the retention
    /// counters of *every* registered tenant's store (the fleet's memory
    /// footprint is a property of the stores, not of the sweep), the
    /// failure counters, and the dataplane counters — per-shard
    /// group-commit traffic and the process-wide executor pool, all
    /// monotone since start (the pool is shared by the whole process, so
    /// its numbers can include other services' work too).
    pub(crate) fn fleet_gauges(&self, tenants: &[Arc<Tenant>], stats: &mut ServiceStats) {
        stats.tenants_total = tenants.len();
        for tenant in tenants {
            stats.absorb_retention(&tenant.store);
        }
        stats.refresh_failures = self.refresh_failures.load(Ordering::Relaxed);
        stats.tenants_degraded = tenants
            .iter()
            .filter(|tenant| tenant.failure_streak() > 0)
            .count();
        if let Some(durable) = &self.durable {
            durable.absorb_commit_stats(stats);
        }
        let pool = sieve_exec::pool::pool_stats();
        stats.pool_workers_spawned = pool.workers_spawned;
        stats.pool_tasks_executed = pool.tasks_executed;
    }
}

/// The select phase for one tenant: drains its delta (cheap: one store
/// lock) and absorbs it into the session — so the epoch watermark stays
/// current even for clean tenants — and returns whether the tenant needs a
/// refresh. The session's own pending-dirt flag is the source of truth: it
/// covers this delta, deltas absorbed by a previously *failed* refresh,
/// and nothing else; a replaced call graph is tracked separately because
/// it changes the comparison plan without dirtying any series.
fn absorb_delta(tenant: &Tenant, sweep: u64, force: bool) -> bool {
    // Tenants waiting out a failure backoff are skipped entirely: their
    // delta stays in the store and their force-refresh flag stays set, so
    // the deferred work is all still there when the backoff window ends.
    if !force && tenant.in_backoff(sweep) {
        return false;
    }
    let delta = tenant.store.drain_delta();
    let replanned = tenant.take_refresh_request();
    let never_published = tenant.model().is_none();
    let pending = {
        let mut session = tenant.session();
        session.apply_delta(&delta);
        if force {
            session.mark_all_dirty();
        }
        session.has_pending_dirty()
    };
    // An empty store has nothing to analyse: the tenant stays unpublished
    // until its first accepted point arrives.
    tenant.store.series_count() > 0 && (pending || replanned || never_published)
}
