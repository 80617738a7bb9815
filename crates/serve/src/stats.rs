//! Aggregated service statistics.

use sieve_core::SessionStats;

/// What one cross-tenant sweep (or the tenants' last refreshes, via
/// [`crate::service::SieveService::stats`]) recomputed, aggregated over
/// tenants.
///
/// The per-tenant fields are plain sums of the underlying
/// [`SessionStats`], so the "only dirty work is redone" observable of the
/// incremental engine survives aggregation: a sweep where one of sixteen
/// tenants was dirty reports that tenant's preparation/clustering/Granger
/// counts and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Tenants registered in the service at sweep time.
    pub tenants_total: usize,
    /// Tenants whose session was refreshed (dirty tenants, plus tenants
    /// that had never been analysed).
    pub tenants_refreshed: usize,
    /// Highest epoch watermark across all refreshed tenants' deltas.
    pub epoch_high_watermark: u64,
    /// Sum of [`SessionStats::components_total`] over refreshed tenants.
    pub components_total: usize,
    /// Sum of [`SessionStats::components_prepared`] over refreshed tenants.
    pub components_prepared: usize,
    /// Sum of [`SessionStats::components_reclustered`] over refreshed
    /// tenants.
    pub components_reclustered: usize,
    /// Sum of [`SessionStats::comparisons_planned`] over refreshed tenants.
    pub comparisons_planned: usize,
    /// Sum of [`SessionStats::comparisons_tested`] over refreshed tenants.
    pub comparisons_tested: usize,
    /// Sum of [`SessionStats::grid_points_interpolated`] over refreshed
    /// tenants.
    pub grid_points_interpolated: usize,
    /// Raw points currently retained across *all* tenants' stores (not just
    /// refreshed ones) — the live memory footprint of the fleet's ring
    /// windows, in points. Equals total accepted points when every tenant
    /// runs unbounded retention.
    pub points_retained: u64,
    /// Cumulative points evicted from ring windows across all tenants'
    /// stores since service start.
    pub points_evicted: u64,
    /// Cumulative tenant-refresh failures since service start. A failing
    /// tenant keeps its previous snapshot and is retried with capped
    /// exponential backoff (see
    /// [`crate::service::SieveService::refresh_dirty`]); every individual
    /// failure increments this counter.
    pub refresh_failures: u64,
    /// Tenants currently degraded: their last refresh attempt failed and
    /// they are serving a stale (or no) model while waiting out their
    /// backoff window. Returns to zero as soon as the tenants refresh
    /// successfully.
    pub tenants_degraded: usize,
    /// WAL frames that reached the media in *another* thread's leader
    /// write, summed over shard logs since service start — the payoff of
    /// cross-thread group commit (zero on a non-durable service or with
    /// no concurrent writers).
    pub commits_coalesced: u64,
    /// `fsync` calls the shard logs issued since service start.
    pub fsync_calls: u64,
    /// Total nanoseconds ingest threads spent blocked on another
    /// thread's leader write. Divided by `commits_coalesced` this is the
    /// mean price a rider pays for a free fsync.
    pub commit_wait_ns_total: u64,
    /// Analysis checkpoints written since service start: one per shard
    /// whose tenants added a cache entry in a sweep (zero on a non-durable
    /// service).
    pub checkpoint_writes: u64,
    /// Bytes those checkpoints held, summed.
    pub checkpoint_bytes: u64,
    /// Checkpoint writes that failed since service start. A failed write
    /// leaves the shard's previous checkpoint, which only costs the next
    /// recovery work.
    pub checkpoint_failures: u64,
    /// Worker threads the process-wide executor pool has ever spawned.
    /// Flat across sweeps once the pool is warm — the observable that
    /// refreshes stopped paying per-sweep thread-spawn cost.
    pub pool_workers_spawned: u64,
    /// Chunk tasks the executor pool has run (callers inline their first
    /// chunk, so this counts helper-thread work only).
    pub pool_tasks_executed: u64,
}

impl ServiceStats {
    /// Folds one tenant's refresh statistics into the aggregate (counts the
    /// tenant as refreshed).
    pub(crate) fn absorb(&mut self, stats: &SessionStats) {
        self.tenants_refreshed += 1;
        self.epoch_high_watermark = self.epoch_high_watermark.max(stats.epoch);
        self.components_total += stats.components_total;
        self.components_prepared += stats.components_prepared;
        self.components_reclustered += stats.components_reclustered;
        self.comparisons_planned += stats.comparisons_planned;
        self.comparisons_tested += stats.comparisons_tested;
        self.grid_points_interpolated += stats.grid_points_interpolated;
    }

    /// Folds one tenant store's retention counters into the aggregate.
    /// Called for every registered tenant (refreshed or not): retention is
    /// a property of the fleet's stores, not of any particular sweep.
    pub(crate) fn absorb_retention(&mut self, store: &sieve_simulator::store::MetricStore) {
        self.points_retained += store.retained_point_count();
        self.points_evicted += store.evicted_point_count();
    }
}

impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} of {} tenants refreshed (epoch {}): prepared {} components \
             ({} grid points interpolated), re-clustered {}, re-tested {}/{} comparisons; \
             {} points retained, {} evicted; \
             {} degraded, {} refresh failures to date; \
             {} commits coalesced, {} fsyncs, {} ns commit wait; \
             {} checkpoints written ({} bytes, {} failed); \
             pool: {} workers spawned, {} tasks run",
            self.tenants_refreshed,
            self.tenants_total,
            self.epoch_high_watermark,
            self.components_prepared,
            self.grid_points_interpolated,
            self.components_reclustered,
            self.comparisons_tested,
            self.comparisons_planned,
            self.points_retained,
            self.points_evicted,
            self.tenants_degraded,
            self.refresh_failures,
            self.commits_coalesced,
            self.fsync_calls,
            self.commit_wait_ns_total,
            self.checkpoint_writes,
            self.checkpoint_bytes,
            self.checkpoint_failures,
            self.pool_workers_spawned,
            self.pool_tasks_executed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_fields_and_maxes_the_epoch() {
        let mut agg = ServiceStats {
            tenants_total: 3,
            ..ServiceStats::default()
        };
        agg.absorb(&SessionStats {
            epoch: 4,
            components_total: 5,
            components_prepared: 2,
            components_reclustered: 1,
            comparisons_planned: 10,
            comparisons_tested: 3,
            grid_points_interpolated: 7,
        });
        agg.absorb(&SessionStats {
            epoch: 2,
            components_total: 4,
            components_prepared: 4,
            components_reclustered: 4,
            comparisons_planned: 6,
            comparisons_tested: 6,
            grid_points_interpolated: 0,
        });
        assert_eq!(agg.tenants_refreshed, 2);
        assert_eq!(agg.epoch_high_watermark, 4);
        assert_eq!(agg.components_total, 9);
        assert_eq!(agg.components_prepared, 6);
        assert_eq!(agg.components_reclustered, 5);
        assert_eq!(agg.comparisons_planned, 16);
        assert_eq!(agg.comparisons_tested, 9);
        assert_eq!(agg.grid_points_interpolated, 7);
        let text = agg.to_string();
        assert!(text.contains("2 of 3 tenants"));
        assert!(text.contains("prepared 6 components (7 grid points interpolated)"));
    }

    #[test]
    fn absorb_retention_sums_store_counters() {
        use sieve_simulator::store::{MetricId, MetricStore, RetentionPolicy};
        let store = MetricStore::with_retention(RetentionPolicy::windowed(4));
        let id = MetricId::new("web", "cpu");
        for t in 0..10u64 {
            store.record(&id, t * 500, t as f64);
        }
        let mut agg = ServiceStats::default();
        agg.absorb_retention(&store);
        assert_eq!(agg.points_retained, 4);
        assert_eq!(agg.points_evicted, 6);
        assert!(agg.to_string().contains("4 points retained, 6 evicted;"));
    }
}
