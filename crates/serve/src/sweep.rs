//! The refresh sweep: one fixed list of phases, run by both
//! [`SieveService::refresh_dirty`] and [`SieveService::refresh_all`].

use crate::service::SieveService;
use crate::stats::ServiceStats;
use crate::tenant::Tenant;
use crate::{Result, ServeError};
use sieve_core::session::SessionStats;
use sieve_exec::hash::shard_index;
use sieve_exec::par_map_chunks;
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl SieveService {
    /// One sweep: *count → select → refresh + publish → record outcomes →
    /// checkpoint → gauges → earliest error*. `force` is what
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
        let mut to_checkpoint = BTreeSet::new();
        for (tenant, outcome) in work.iter().zip(outcomes) {
            match outcome {
                Ok(session_stats) => {
                    tenant.record_refresh_success();
                    stats.absorb(&session_stats);
                    if session_stats.components_reclustered + session_stats.comparisons_tested > 0 {
                        let shard = shard_index(tenant.name.as_str(), self.config.shard_count);
                        to_checkpoint.insert(shard);
                    }
                }
                Err(error) => {
                    self.refresh_failures.fetch_add(1, Ordering::Relaxed);
                    tenant.record_refresh_failure(sweep);
                    first_error.get_or_insert(error);
                }
            }
        }
        // The analysis checkpoints: each shard whose tenants added a cache
        // entry is rewritten, so a checkpoint is never more than one sweep
        // behind the published models.
        if let Some(durable) = &self.durable {
            durable.checkpoints.write(&self.registry, to_checkpoint);
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
        let model = session.refresh().map_err(|source| ServeError::Analysis {
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
/// refresh. The session is the one source of truth: its
/// `needs_refresh` covers this delta, whatever a *failed* refresh put
/// back, a replaced call graph and a tenant that never refreshed, and only
/// a successful refresh — which this service always publishes — clears it.
fn absorb_delta(tenant: &Tenant, sweep: u64, force: bool) -> bool {
    // Tenants waiting out a failure backoff are skipped entirely: their
    // delta stays in the store and their session keeps its outstanding
    // work, so the deferred work is all still there when the window ends.
    if !force && tenant.in_backoff(sweep) {
        return false;
    }
    let delta = tenant.store.drain_delta();
    let mut session = tenant.session();
    session.apply_delta(&delta);
    if force {
        session.mark_all_dirty();
    }
    // An empty store has nothing to analyse: the tenant stays unpublished
    // until its first accepted point arrives.
    tenant.store.series_count() > 0 && session.needs_refresh()
}
