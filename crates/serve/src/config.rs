//! Serving-layer configuration.

use sieve_core::SieveConfig;
use sieve_wal::FsyncPolicy;
use std::path::PathBuf;

/// Default number of registry shards (a power of two, see
/// [`ServeConfig::shard_count`]).
pub(crate) const DEFAULT_SHARD_COUNT: usize = 16;

/// Configuration of a [`crate::service::SieveService`].
///
/// Two layers of parallelism exist in the service and they are deliberately
/// separate knobs: `sweep_parallelism` fans the *cross-tenant* refresh
/// sweep out over worker threads (one tenant is one work item), while
/// `analysis.parallelism` is the degree each tenant's own
/// [`sieve_core::AnalysisSession`] uses *inside* its refresh.
/// Neither affects results: the sweep runs through the deterministic
/// [`sieve_exec::par_map_chunks`] executor in sorted-tenant order, and the
/// per-tenant session is serial==parallel bit-identical by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Number of shards of the tenant registry. Must be a power of two:
    /// tenant names route to shards by masking the low bits of the
    /// deterministic [`sieve_exec::hash::hash_str`] routing hash, so a
    /// tenant lands on the same shard in every process and across
    /// restarts. More shards mean less lock contention between tenants
    /// that happen to hash together; 16 is plenty below a few thousand
    /// tenants. A durable directory belongs to the shard count that wrote
    /// it, because routing depends on the count:
    /// [`crate::service::SieveService::recover`] refuses any other, and
    /// only a *new* service (which wipes the directory) can change it.
    pub shard_count: usize,
    /// Worker threads of the cross-tenant [`refresh_dirty`] sweep (one
    /// dirty tenant is one work item). Defaults to the hardware degree
    /// ([`sieve_exec::par::hardware_parallelism`], cgroup-quota aware); an
    /// explicit setting is honoured exactly by the executor.
    ///
    /// [`refresh_dirty`]: crate::service::SieveService::refresh_dirty
    pub sweep_parallelism: usize,
    /// The analysis configuration handed to every tenant created without
    /// an explicit one ([`crate::service::SieveService::create_tenant`]).
    /// Note the default `analysis.parallelism` also adapts to the
    /// hardware; services hosting many small tenants usually want
    /// per-tenant parallelism 1 and let the sweep provide the fan-out.
    pub analysis: SieveConfig,
    /// Crash safety. `None` (the default) serves purely from memory;
    /// `Some` threads every ingest and tenant-admin operation through a
    /// per-shard write-ahead log with periodic snapshots, and
    /// [`crate::service::SieveService::recover`] can rebuild the service
    /// from the directory after a crash.
    pub durability: Option<DurabilityConfig>,
}

/// Durability settings of a crash-safe service (see
/// [`ServeConfig::durability`]).
///
/// The service keeps one append-only log and one snapshot file per
/// registry shard under `dir` (shard routing is the same deterministic
/// hash in every process, so a tenant's events land in the same shard
/// file across restarts). Accepted ingest batches and tenant-admin events
/// are framed, checksummed and group-committed to the log; every
/// `snapshot_every_events` logged events the shard's tenants are
/// snapshotted atomically and the log is truncated, which bounds both
/// disk usage and replay work at recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityConfig {
    /// Directory holding the per-shard log and snapshot files. Created on
    /// service construction if absent. One directory belongs to one
    /// service: constructing a *new* service over it wipes previous state
    /// (use [`crate::service::SieveService::recover`] to resume instead).
    pub dir: PathBuf,
    /// When the shard logs fsync after a group commit
    /// ([`FsyncPolicy::Always`] by default — no acknowledged event is
    /// ever lost to a crash).
    pub fsync: FsyncPolicy,
    /// Snapshot cadence: after this many logged events a shard writes a
    /// snapshot and truncates its log. Must be at least 1. Small values
    /// bound recovery replay tightly at the cost of more snapshot I/O.
    pub snapshot_every_events: u64,
}

impl DurabilityConfig {
    /// Durability under `dir` with the safe defaults: fsync on every
    /// commit, snapshot every 1024 events.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            snapshot_every_events: 1024,
        }
    }

    /// Builder-style setter for the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Builder-style setter for the snapshot cadence (clamped to at
    /// least 1).
    pub fn with_snapshot_every_events(mut self, every: u64) -> Self {
        self.snapshot_every_events = every.max(1);
        self
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shard_count: DEFAULT_SHARD_COUNT,
            sweep_parallelism: sieve_exec::par::hardware_parallelism(),
            analysis: SieveConfig::default(),
            durability: None,
        }
    }
}

impl ServeConfig {
    /// Builder-style setter for the registry shard count (must be a power
    /// of two; validated when the service is built).
    pub fn with_shard_count(mut self, shard_count: usize) -> Self {
        self.shard_count = shard_count;
        self
    }

    /// Builder-style setter for the cross-tenant sweep parallelism
    /// (clamped to at least 1).
    pub fn with_sweep_parallelism(mut self, sweep_parallelism: usize) -> Self {
        self.sweep_parallelism = sweep_parallelism.max(1);
        self
    }

    /// Builder-style setter for the default per-tenant analysis
    /// configuration.
    pub fn with_analysis(mut self, analysis: SieveConfig) -> Self {
        self.analysis = analysis;
        self
    }

    /// Builder-style setter for the default per-tenant store retention
    /// budget — shorthand for replacing `analysis.retention`. Tenants
    /// created after this point get a store that keeps each series' newest
    /// points in a bounded ring window (see
    /// [`sieve_core::RetentionPolicy`]); per-tenant overrides go
    /// through [`crate::service::SieveService::create_tenant_with_retention`]
    /// or [`crate::service::SieveService::set_retention`].
    pub fn with_retention(mut self, retention: sieve_core::RetentionPolicy) -> Self {
        self.analysis.retention = retention;
        self
    }

    /// Builder-style setter enabling crash-safe serving under the given
    /// durability settings.
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ServeError::InvalidConfig`] when the shard count is
    /// zero or not a power of two, when the durability settings are
    /// inconsistent, or when the default analysis configuration is itself
    /// invalid.
    pub(crate) fn validate(&self) -> crate::Result<()> {
        if !self.shard_count.is_power_of_two() {
            return Err(crate::ServeError::InvalidConfig {
                reason: format!(
                    "shard_count must be a power of two, got {}",
                    self.shard_count
                ),
            });
        }
        if let Some(durability) = &self.durability {
            if durability.snapshot_every_events == 0 {
                return Err(crate::ServeError::InvalidConfig {
                    reason: "durability.snapshot_every_events must be at least 1".to_string(),
                });
            }
            if durability.dir.as_os_str().is_empty() {
                return Err(crate::ServeError::InvalidConfig {
                    reason: "durability.dir must not be empty".to_string(),
                });
            }
        }
        self.analysis
            .validate()
            .map_err(|e| crate::ServeError::InvalidConfig {
                reason: format!("default analysis config: {e}"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_power_of_two() {
        let c = ServeConfig::default();
        assert!(c.shard_count.is_power_of_two());
        assert!(c.sweep_parallelism >= 1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_and_validation() {
        let c = ServeConfig::default()
            .with_shard_count(4)
            .with_sweep_parallelism(0);
        assert_eq!(c.shard_count, 4);
        assert_eq!(c.sweep_parallelism, 1);
        assert!(c.validate().is_ok());

        assert!(ServeConfig::default()
            .with_shard_count(0)
            .validate()
            .is_err());
        assert!(ServeConfig::default()
            .with_shard_count(12)
            .validate()
            .is_err());
        let bad_analysis =
            ServeConfig::default().with_analysis(SieveConfig::default().with_interval_ms(0));
        assert!(bad_analysis.validate().is_err());
        let mut edgeless = SieveConfig::default();
        edgeless.granger.max_lag = 0;
        assert!(ServeConfig::default()
            .with_analysis(edgeless)
            .validate()
            .is_err());
        let unfiltered = SieveConfig {
            variance_threshold: f64::NAN,
            ..SieveConfig::default()
        };
        assert!(ServeConfig::default()
            .with_analysis(unfiltered)
            .validate()
            .is_err());
    }

    #[test]
    fn durability_builders_and_validation() {
        let d = DurabilityConfig::new("/tmp/sieve-wal")
            .with_fsync(FsyncPolicy::EveryN(8))
            .with_snapshot_every_events(0);
        assert_eq!(d.fsync, FsyncPolicy::EveryN(8));
        assert_eq!(d.snapshot_every_events, 1, "cadence clamps to 1");
        let c = ServeConfig::default().with_durability(d.clone());
        assert!(c.validate().is_ok());
        assert_eq!(c.durability, Some(d));

        let zero = DurabilityConfig {
            dir: PathBuf::from("/tmp/sieve-wal"),
            fsync: FsyncPolicy::Never,
            snapshot_every_events: 0,
        };
        assert!(ServeConfig::default()
            .with_durability(zero)
            .validate()
            .is_err());
        assert!(ServeConfig::default()
            .with_durability(DurabilityConfig::new(""))
            .validate()
            .is_err());
    }

    #[test]
    fn retention_shorthand_sets_the_analysis_policy() {
        use sieve_core::RetentionPolicy;
        let c = ServeConfig::default().with_retention(RetentionPolicy::windowed(128));
        assert_eq!(c.analysis.retention, RetentionPolicy::windowed(128));
        assert!(c.validate().is_ok());
    }
}
