//! The analysis checkpoints of a durable service: the write after a sweep
//! and the seeds recovery hands to the tenants it opens.
//!
//! A checkpoint (`wal-shard-<i>.ckpt`, [`sieve_wal::ShardCheckpoint`]) is a
//! cache of every tenant's content-keyed analysis, never state. A sweep
//! that added a cache entry rewrites the checkpoint of each shard whose
//! tenants added one, synchronously, through a temp file and a rename: no
//! log frame, no group-commit slot and no `fsync`. A checkpoint is
//! therefore at most one sweep behind the models the service published. A
//! crash can lose the newest one; then an older one, or none, seeds
//! recovery, and only work is lost. What recovery could not seed is
//! counted per tenant by reason ([`CheckpointSeeding`]).

use crate::recovery::CheckpointSeeding;
use crate::registry::ShardedRegistry;
use crate::stats::ServiceStats;
use crate::Result;
use sieve_core::session::SessionCache;
use sieve_wal::{checkpoint_file_name, CheckpointRead, ShardCheckpoint, TenantCheckpoint};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The checkpoint writer of a durable service: one lock per shard, so two
/// sweeps never interleave one shard's temp file, and the write counters.
#[derive(Debug)]
pub(crate) struct Checkpoints {
    dir: PathBuf,
    turns: Vec<Mutex<()>>,
    writes: AtomicU64,
    bytes: AtomicU64,
    failures: AtomicU64,
}

impl Checkpoints {
    /// The writer of `shard_count` shards' checkpoints in `dir`.
    pub(crate) fn new(dir: &Path, shard_count: usize) -> Self {
        Self {
            dir: dir.to_path_buf(),
            turns: (0..shard_count).map(|_| Mutex::new(())).collect(),
            writes: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        }
    }

    /// Rewrites the checkpoint of every shard in `shards` from its tenants'
    /// sessions. A failed write leaves the shard's previous checkpoint, or
    /// none, and is counted, not returned: the sweep that asked for it has
    /// published its models, and a stale or missing checkpoint only costs
    /// work.
    pub(crate) fn write(
        &self,
        registry: &ShardedRegistry,
        shards: impl IntoIterator<Item = usize>,
    ) {
        for shard in shards {
            match self.write_shard(registry, shard) {
                Ok(bytes) => {
                    self.writes.fetch_add(1, Ordering::Relaxed);
                    self.bytes.fetch_add(bytes, Ordering::Relaxed);
                }
                Err(_) => {
                    self.failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    fn write_shard(&self, registry: &ShardedRegistry, shard: usize) -> Result<u64> {
        let _turn = self.turns[shard].lock().expect("checkpoint lock poisoned");
        let tenants = registry
            .all_in_shard(shard)
            .iter()
            .map(|tenant| TenantCheckpoint {
                tenant: tenant.name.to_string(),
                cache: tenant.session().cache(),
            })
            .collect();
        let path = self.dir.join(checkpoint_file_name(shard));
        Ok(ShardCheckpoint { tenants }.write(&path)?)
    }

    /// Folds the write counters into `stats`.
    pub(crate) fn absorb_stats(&self, stats: &mut ServiceStats) {
        stats.checkpoint_writes = self.writes.load(Ordering::Relaxed);
        stats.checkpoint_bytes = self.bytes.load(Ordering::Relaxed);
        stats.checkpoint_failures = self.failures.load(Ordering::Relaxed);
    }
}

/// What one shard's checkpoint offers the tenants recovery opens, and the
/// tally of what it gave them.
pub(crate) struct Seeds {
    /// Why a tenant without a record gets none.
    absent: Absent,
    records: HashMap<String, SessionCache>,
    tally: CheckpointSeeding,
}

/// The miss a tenant without a record counts as.
#[derive(Clone, Copy)]
enum Absent {
    Missing,
    Corrupt,
    OtherFormat,
}

impl Seeds {
    /// Reads shard `shard`'s checkpoint in `dir`. Never fails: whatever
    /// cannot be read is a miss.
    pub(crate) fn read(dir: &Path, shard: usize) -> Self {
        let (absent, tenants) = match ShardCheckpoint::read(&dir.join(checkpoint_file_name(shard)))
        {
            CheckpointRead::Missing => (Absent::Missing, Vec::new()),
            CheckpointRead::Corrupt { .. } => (Absent::Corrupt, Vec::new()),
            CheckpointRead::OtherFormat { .. } => (Absent::OtherFormat, Vec::new()),
            // A damaged record may have been any tenant's.
            CheckpointRead::Read {
                checkpoint,
                damaged,
            } => {
                let absent = if damaged > 0 {
                    Absent::Corrupt
                } else {
                    Absent::Missing
                };
                (absent, checkpoint.tenants)
            }
        };
        let mut records = HashMap::with_capacity(tenants.len());
        for TenantCheckpoint { tenant, cache } in tenants {
            records.entry(tenant).or_insert(cache);
        }
        Self {
            absent,
            records,
            tally: CheckpointSeeding::default(),
        }
    }

    /// Takes `tenant`'s record, if the checkpoint holds one.
    pub(crate) fn take(&mut self, tenant: &str) -> Option<SessionCache> {
        self.records.remove(tenant)
    }

    /// Counts what one opened tenant got: `offered` whether [`Seeds::take`]
    /// gave it a record, `seeded` what its session took of it.
    pub(crate) fn count(&mut self, offered: bool, seeded: Option<usize>) {
        let tally = &mut self.tally;
        match (offered, seeded) {
            (true, Some(entries)) => {
                tally.tenants_seeded += 1;
                tally.entries_seeded += entries as u64;
            }
            (true, None) => tally.key_mismatch += 1,
            (false, _) => match self.absent {
                Absent::Missing => tally.missing += 1,
                Absent::Corrupt => tally.corrupt += 1,
                Absent::OtherFormat => tally.other_format += 1,
            },
        }
    }

    /// The tally of every tenant counted.
    pub(crate) fn tally(&self) -> CheckpointSeeding {
        self.tally
    }
}
